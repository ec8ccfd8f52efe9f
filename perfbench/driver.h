/**
 * @file
 * Command-line arguments shared by the driver's modes.  run.py is the
 * only intended caller; it owns process lifetimes, scratch directories
 * and the environment, and turns each mode's one-line JSON into the
 * benchmark's metrics.
 */

#ifndef PERFBENCH_DRIVER_H_
#define PERFBENCH_DRIVER_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct Args {
    std::string mode;       ///< txn | kv | selftest
    std::string workload;   ///< kv: write-zipf | read-uniform
    std::string dir;        ///< txn: empty region directory
    std::string spans;      ///< where to write sampled spans (traced runs)
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

int runTxn(const Args &a);
int runKv(const Args &a);
int runSelftest();

} // namespace perfbench

#endif // PERFBENCH_DRIVER_H_
