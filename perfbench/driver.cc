// Entry point of the benchmark driver: parses arguments and runs one
// mode.  See run.py for how the modes are combined into a run.

#include "driver.h"

#include <cstdio>
#include <cstdlib>
#include <string>

int
main(int argc, char **argv)
{
    perfbench::Args a;
    if (argc < 2) {
        std::fprintf(stderr, "usage: perfbench_driver txn|kv|selftest "
                             "[--seed N] [--seconds S] [--trace 0|1] "
                             "[--dir D] [--workload W] [--spans F]\n");
        return 2;
    }
    a.mode = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (k == "--trace")
            a.trace = std::atoi(v) != 0;
        else if (k == "--dir")
            a.dir = v;
        else if (k == "--workload")
            a.workload = v;
        else if (k == "--spans")
            a.spans = v;
        else {
            std::fprintf(stderr, "perfbench_driver: unknown option %s\n",
                         k.c_str());
            return 2;
        }
    }
    if (a.mode == "txn")
        return perfbench::runTxn(a);
    if (a.mode == "kv")
        return perfbench::runKv(a);
    if (a.mode == "selftest")
        return perfbench::runSelftest();
    std::fprintf(stderr, "perfbench_driver: unknown mode %s\n",
                 a.mode.c_str());
    return 2;
}
