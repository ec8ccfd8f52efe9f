// The driver's own correctness checks, fed good and corrupted inputs:
// each check must accept the good case and reject every corruption.
// Run by test_checks.py; exits non-zero if any check misjudges.

#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "driver.h"

namespace perfbench {

namespace {

int failures = 0;

void
expect(const char *name, const std::string &why, bool shouldFail)
{
    const bool failed = !why.empty();
    const bool ok = failed == shouldFail;
    std::printf("%s %s%s%s\n", ok ? "ok  " : "FAIL", name,
                failed ? ": " : "", why.c_str());
    if (!ok)
        ++failures;
}

} // namespace

int
runSelftest()
{
    const uint64_t key = 42, seq = 7;
    std::string v;
    makeValue(key, seq, 100, &v);
    expect("value intact", checkValue(v, key, seq, 100), false);

    std::string bad = v;
    bad[50] ^= 1;
    expect("value byte flipped", checkValue(bad, key, seq, 100), true);
    bad = v;
    bad[99] ^= 1;
    expect("value checksum flipped", checkValue(bad, key, seq, 100), true);
    expect("value truncated", checkValue(v.substr(0, 64), key, seq, 100),
           true);
    std::string stale;
    makeValue(key, seq - 1, 100, &stale);
    expect("stale value (older seq)", checkValue(stale, key, seq, 100), true);
    std::string other;
    makeValue(key + 1, seq, 100, &other);
    expect("another key's value", checkValue(other, key, seq, 100), true);
    // A forged value with a matching checksum but wrong filler.
    bad = v;
    bad[30] = bad[30] == 'a' ? 'b' : 'a';
    const uint64_t sum = fnv1a(bad.data(), bad.size() - 8);
    std::memcpy(bad.data() + bad.size() - 8, &sum, 8);
    expect("forged filler", checkValue(bad, key, seq, 100), true);

    const KeyState present{uint32_t(seq), 100, true};
    const KeyState deleted{uint32_t(seq), 100, false};
    expect("read matches model", checkRead(present, key, true, v), false);
    expect("missing key", checkRead(present, key, false, ""), true);
    expect("resurrected key", checkRead(deleted, key, true, v), true);
    expect("deleted key absent", checkRead(deleted, key, false, ""), false);
    expect("read returns corrupted value",
           checkRead(present, key, true, std::string(100, 'x')), true);

    std::vector<uint64_t> bal(16, 1000);
    expect("balanced accounts", checkBalances(bal, 16000), false);
    bal[3] -= 250;
    bal[9] += 250;
    expect("transfer keeps the sum", checkBalances(bal, 16000), false);
    bal[0] = uint64_t(0) - 5;   // negative balance, wrapping
    bal[1] += 1005;
    expect("negative balance keeps the sum", checkBalances(bal, 16000),
           false);
    bal[5] += 1;
    expect("unbalanced accounts", checkBalances(bal, 16000), true);

    std::printf("%s\n", failures ? "selftest FAILED" : "selftest passed");
    return failures ? 1 : 0;
}

} // namespace perfbench
