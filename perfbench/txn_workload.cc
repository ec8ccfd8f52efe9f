// txn-hash-150ns: the library in-process on the paper's emulated
// platform (spin delays, 150 ns per flush and fence, 4 GB/s streaming),
// default TxnConfig (synchronous commits, no combiner).  Two
// application threads run a closed loop of 50% PHashTable::put on
// their own key slice, 25% transfers between two accounts of a shared
// persistent array (conflicts and aborts), 25% get.  Then a clean stop,
// a new Runtime on the same image, and a full check of the image.

#include <barrier>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "driver.h"

#include "ds/phash_table.h"
#include "obs/stats_registry.h"
#include "runtime/runtime.h"
#include "scm/scm.h"

namespace perfbench {

namespace {

constexpr int kThreads = 2;
constexpr uint64_t kKeysPerThread = 4096;
constexpr uint64_t kKeys = kThreads * kKeysPerThread;
constexpr size_t kBuckets = 16384;
constexpr size_t kAccounts = 16;
constexpr uint64_t kInitialBalance = 1000000;
constexpr size_t kValueBytes = 64;
constexpr size_t kAltValueBytes = 80;   ///< 1 put in 8: forces a resize
constexpr uint64_t kSampleEvery = 64;   ///< ops per sampled span
constexpr int kRestarts = 61;           ///< restart_s is their median
constexpr const char *kTable = "perfbench_table";
constexpr const char *kAccountsVar = "perfbench_accounts";

mnemosyne::RuntimeConfig
config(const std::string &dir)
{
    mnemosyne::RuntimeConfig cfg;
    cfg.scm.latency_mode = mnemosyne::scm::LatencyMode::kSpin;
    cfg.scm.write_latency_ns = 150;
    cfg.scm.write_bandwidth_bytes_per_us = 4096;
    // The paper's emulator models delay, not power failure; a failure
    // journal would add work the modelled platform does not do.
    cfg.scm.failure_tracking = false;
    cfg.region.backing_dir = dir;
    return cfg;
}

std::string
scmJson(const mnemosyne::scm::ScmStats &s)
{
    return Json()
        .u64("flushes", s.flushes)
        .u64("fences", s.fences)
        .u64("bytes_streamed", s.bytes_streamed)
        .u64("wtstores", s.wtstores)
        .u64("delay_ns", s.delay_ns)
        .done();
}

uint64_t *
accounts(mnemosyne::Runtime &rt)
{
    std::vector<uint64_t> init(kAccounts, kInitialBalance);
    return static_cast<uint64_t *>(rt.regions().pstaticVar(
        kAccountsVar, kAccounts * sizeof(uint64_t), init.data()));
}

/** Per-thread results of the timed phase. */
struct Worker {
    Slices slices;
    Latencies puts;
    uint64_t ops = 0, reads = 0, writes = 0, transfers = 0, ackBytes = 0;
    std::vector<Span> spans;
    Errors errors;
};

} // namespace

int
runTxn(const Args &a)
{
    const uint64_t start = nowNs();
    namespace mn = mnemosyne;
    std::filesystem::create_directories(a.dir);

    std::vector<KeyState> model(kKeys);
    std::vector<Worker> workers(kThreads);
    std::vector<Span> phases;
    uint64_t ready = 0, timedStart = 0, timedEnd = 0;
    std::string scmBefore, scmAfter, statsBefore = "null",
                                     statsAfter = "null";

    {
        mn::Runtime rt(config(a.dir));
        mn::ds::PHashTable table(rt, kTable, kBuckets);
        uint64_t *acct = accounts(rt);
        phases.push_back({"launch", start, nowNs(), 0, 0});

        const uint64_t prefillStart = nowNs();
        std::barrier sync(kThreads + 1);
        uint64_t deadline = 0;
        auto body = [&](int tid) {
            Worker &w = workers[size_t(tid)];
            const uint64_t base = uint64_t(tid) * kKeysPerThread;
            std::string v, got;
            for (uint64_t k = base; k < base + kKeysPerThread; ++k) {
                model[k] = {1, uint16_t(kValueBytes), true};
                makeValue(k, 1, kValueBytes, &v);
                table.put(keyOf(k), v);
            }
            sync.arrive_and_wait();     // prefill done
            sync.arrive_and_wait();     // timed phase starts
            w.slices.start(timedStart, a.seconds);

            // Keys and values are made before the clock starts, so a
            // latency covers the call into the library and nothing else.
            Rng rng(mix64(a.seed) + uint64_t(tid));
            for (uint64_t op = 0; nowNs() < deadline; ++op) {
                const uint64_t r = rng.below(100);
                const char *what;
                uint64_t t0, t1;
                if (r < 50) {
                    what = "put";
                    const uint64_t k = base + rng.below(kKeysPerThread);
                    KeyState &m = model[k];
                    const size_t len =
                        rng.below(8) == 0 ? kAltValueBytes : kValueBytes;
                    const std::string key = keyOf(k);
                    makeValue(k, m.seq + 1, len, &v);
                    t0 = nowNs();
                    table.put(key, v);
                    t1 = nowNs();
                    m = {m.seq + 1, uint16_t(len), true};
                    w.ackBytes += 16 + len;
                    w.puts.add(t1 - t0);
                } else if (r < 75) {
                    what = "transfer";
                    const size_t i = rng.below(kAccounts);
                    const size_t j =
                        (i + 1 + rng.below(kAccounts - 1)) % kAccounts;
                    const uint64_t amount = 1 + rng.below(1000);
                    t0 = nowNs();
                    rt.atomic([&](mn::mtm::Txn &tx) {
                        tx.writeT<uint64_t>(&acct[i],
                                            tx.readT(&acct[i]) - amount);
                        tx.writeT<uint64_t>(&acct[j],
                                            tx.readT(&acct[j]) + amount);
                    });
                    t1 = nowNs();
                    ++w.transfers;
                    w.ackBytes += 2 * sizeof(uint64_t);
                } else {
                    what = "get";
                    const uint64_t k = base + rng.below(kKeysPerThread);
                    const std::string key = keyOf(k);
                    t0 = nowNs();
                    const bool found = table.get(key, &got);
                    t1 = nowNs();
                    std::string why = checkRead(model[k], k, found, got);
                    if (!why.empty())
                        w.errors.add("get during run: " + why);
                }
                ++(what[0] == 'g' ? w.reads : w.writes);
                w.slices.add(what[0] == 'g', t1, t1 - t0);
                if (a.trace && op % kSampleEvery == 0)
                    w.spans.push_back({what, t0, t1,
                                       (uint64_t(tid) << 40) | op,
                                       uint32_t(tid + 1)});
                ++w.ops;
            }
        };
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back(body, t);

        sync.arrive_and_wait();
        ready = nowNs();
        phases.push_back({"prefill", prefillStart, ready, 0, 0});
        scmBefore = scmJson(mn::scm::ctx().statsSnapshot());
        if (a.trace)
            statsBefore = mn::obs::StatsRegistry::instance().jsonSnapshot();
        timedStart = nowNs();
        deadline = timedStart + uint64_t(a.seconds * 1e9);
        sync.arrive_and_wait();
        for (auto &t : threads)
            t.join();
        timedEnd = nowNs();
        phases.push_back({"timed", timedStart, timedEnd, 0, 0});
        scmAfter = scmJson(mn::scm::ctx().statsSnapshot());
        if (a.trace)
            statsAfter = mn::obs::StatsRegistry::instance().jsonSnapshot();
    }
    const uint64_t stopped = nowNs();
    phases.push_back({"stop", timedEnd, stopped, 0, 0});

    // Restart: a new Runtime on the populated image, timed until the
    // first successful read; kRestarts times, and the last one stays up
    // for the full check.
    Errors errors;
    std::string got, restartJson = "[";
    for (int i = 1; i < kRestarts; ++i) {
        const uint64_t down = nowNs();
        mn::Runtime rt(config(a.dir));
        mn::ds::PHashTable table(rt, kTable, kBuckets);
        if (!table.get(keyOf(0), &got))
            errors.add("first read after restart found nothing");
        restartJson += std::to_string(nowNs() - down) + ",";
    }
    const uint64_t down = nowNs();
    mn::Runtime rt(config(a.dir));
    mn::ds::PHashTable table(rt, kTable, kBuckets);
    if (!table.get(keyOf(0), &got))
        errors.add("first read after restart found nothing");
    const uint64_t firstRead = nowNs();
    restartJson += std::to_string(firstRead - down) + "]";
    phases.push_back({"restart", stopped, firstRead, 0, 0});
    const mn::ReincarnationStats reinc = rt.reincarnation();

    for (uint64_t k = 0; k < kKeys; ++k) {
        const bool found = table.get(keyOf(k), &got);
        std::string why = checkRead(model[k], k, found, got);
        if (!why.empty())
            errors.add("after restart: " + why);
    }
    uint64_t *acct = accounts(rt);
    std::vector<uint64_t> bal(kAccounts);
    rt.atomic([&](mn::mtm::Txn &tx) {
        for (size_t i = 0; i < kAccounts; ++i)
            bal[i] = tx.readT(&acct[i]);
    });
    std::string why = checkBalances(bal, kAccounts * kInitialBalance);
    if (!why.empty())
        errors.add("after restart: " + why);
    phases.push_back({"verify", firstRead, nowNs(), 0, 0});

    Slices slices;
    slices.start(timedStart, a.seconds);
    Latencies puts;
    uint64_t ops = 0, reads = 0, writes = 0, transfers = 0, ackBytes = 0;
    std::vector<Span> spans = phases;
    for (Worker &w : workers) {
        slices.append(w.slices);
        puts.append(w.puts);
        ops += w.ops;
        reads += w.reads;
        writes += w.writes;
        transfers += w.transfers;
        ackBytes += w.ackBytes;
        spans.insert(spans.end(), w.spans.begin(), w.spans.end());
        errors.append(w.errors);
    }
    if (a.trace && !a.spans.empty() && !writeSpans(a.spans, spans, 1))
        errors.add("cannot write " + a.spans);

    Json out;
    out.u64("start_ns", start)
        .u64("ready_ns", ready)
        .u64("timed_ns", timedEnd - timedStart)
        .u64("ops", ops)
        .u64("writes", writes)
        .u64("reads", reads)
        .u64("transfers", transfers)
        .u64("ack_bytes", ackBytes)
        .raw("slices", slices.json())
        .num("put_p50_us", puts.pctUs(0.50))
        .raw("restart_ns", restartJson)
        .raw("reincarnation",
             Json()
                 .u64("reinc.region_reconstruct_ns",
                      uint64_t(reinc.region_reconstruct.count()))
                 .u64("reinc.region_remap_ns",
                      uint64_t(reinc.region_remap.count()))
                 .u64("reinc.heap_scavenge_ns",
                      uint64_t(reinc.heap_scavenge.count()))
                 .u64("reinc.txn_replay_ns", uint64_t(reinc.txn_replay.count()))
                 .u64("reinc.replayed_txns", reinc.replayed_txns)
                 .done())
        .raw("scm_before", scmBefore)
        .raw("scm_after", scmAfter)
        .raw("stats_before", statsBefore)
        .raw("stats_after", statsAfter)
        .u64("checked_keys", kKeys)
        .raw("errors", errors.json());
    std::printf("%s\n", out.done().c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace perfbench
