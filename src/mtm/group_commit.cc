#include "mtm/group_commit.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

#include "mtm/lock_table.h"
#include "mtm/truncation.h"
#include "mtm/txn.h"
#include "obs/hdr_histogram.h"
#include "obs/obs.h"
#include "obs/trace_ring.h"
#include "scm/scm.h"

namespace mnemosyne::mtm {

namespace {

struct EpochCounters {
    obs::Counter seals{"mtm.epoch_seals"};
    obs::Counter members{"mtm.epoch_members"};
    obs::Counter async_commits{"mtm.epoch_async_commits"};
    /** Record lines shared between members of one epoch and flushed
     *  once instead of per member (adjacent records in a slot share
     *  boundary lines; the Px86 shared-flush-claim rule makes the
     *  single flush correct for every producer's cached stores). */
    obs::Counter lines_deduped{"mtm.epoch_lines_deduped"};
    /** Members per sealed epoch — the fence-amortization factor. */
    obs::Histogram batch{"mtm.epoch_batch"};
    /** Sync-commit wait for epoch retirement (the fence is on another
     *  thread's clock now; this is what the caller actually pays). */
    obs::HdrHistogram wait_ns{"mtm.epoch_wait_ns"};
};

EpochCounters &
ctrs()
{
    static EpochCounters c;
    return c;
}

/** Touch at load so the mtm.epoch_* keys appear in every snapshot even
 *  when the combiner is off (live schema checks rely on presence). */
[[maybe_unused]] EpochCounters &gEpochCtrsEager = ctrs();

/** Grace spin: the shortest poll window, and how many windows without
 *  a join end the grace.  A window also stretches to a quarter of the
 *  last round's duration, so an idle peer costs at most about one more
 *  round (ski-rental: never linger longer than the fence round the
 *  lingering tries to share), and slow builds or slow SCM, where peers
 *  take longer to stage, still batch. */
constexpr uint64_t kWindowNs = 1000;
constexpr uint64_t kQuietWindows = 4;

} // namespace

EpochCombiner::EpochCombiner(log::Rawl *marker_log,
                             TruncationThread *truncator, size_t max_batch)
    : markerLog_(marker_log), truncator_(truncator),
      maxBatch_(max_batch ? max_batch : 1)
{
}

uint64_t
EpochCombiner::joinSync(const Member &m)
{
    std::unique_lock<std::mutex> g(mu_);
    members_.push_back(m);
    publishOpenState();
    const uint64_t e = openEpoch_;
    if (members_.size() >= maxBatch_ && !combining_)
        combineRound(g); // flat combining: the filling arrival works
    return e;
}

uint64_t
EpochCombiner::joinAsync(const Member &m, Pending &&p)
{
    std::unique_lock<std::mutex> g(mu_);
    members_.push_back(m);
    pendings_.push_back(std::move(p));
    publishOpenState();
    ctrs().async_commits.add(1);
    const uint64_t e = openEpoch_;
    if (members_.size() >= maxBatch_ && !combining_)
        combineRound(g);
    return e;
}

void
EpochCombiner::graceSpin(uint64_t epoch, size_t quorum) const
{
    const uint64_t tag = uint64_t(uint32_t(epoch)) << 32;
    const uint64_t windowNs = std::max(
        kWindowNs,
        lastRoundNs_.load(std::memory_order_relaxed) / kQuietWindows);
    uint64_t last = openState_.load(std::memory_order_relaxed);
    uint64_t windowEnd = obs::nowNs() + windowNs;
    uint64_t quiet = 0;
    for (;;) {
        // Yield on every poll: on a host with fewer cores than
        // committers, the peers we linger for need this CPU to stage.
        std::this_thread::yield();
        const uint64_t s = openState_.load(std::memory_order_relaxed);
        if ((s & ~uint64_t(0xffffffff)) != tag)
            return;                         // sealed by someone else
        if ((s & 0xffffffff) >= quorum)
            return;                         // everyone aboard
        const uint64_t now = obs::nowNs();
        if (s != last) {
            last = s;                       // batch grew: new window
            quiet = 0;
            windowEnd = now + windowNs;
        } else if (now >= windowEnd) {
            if (++quiet >= kQuietWindows)
                return;                     // stalled: seal what we have
            windowEnd = now + windowNs;
        }
    }
}

void
EpochCombiner::waitRetired(uint64_t epoch)
{
    std::unique_lock<std::mutex> g(mu_);
    if (retired_ >= epoch)
        return;
    const uint64_t t0 = obs::enabled() ? obs::nowNs() : 0;
    bool graced = false;
    bool parked = false;
    while (retired_ < epoch) {
        assert(epoch <= openEpoch_ && "ticket from the future");
        if (!combining_ && !members_.empty()) {
            // Grace before the seal: with more than one committer
            // thread alive, linger while the batch is still growing so
            // peers can stage and join this epoch — that is where the
            // fence amortization comes from.  The spin runs outside mu_
            // (joiners must not queue behind it), seals early once
            // every registered committer is aboard, and gives up once
            // the batch stops growing (see kQuietWindows), so an idle
            // peer costs microseconds, never a timer-slack nap.  A lone
            // committer skips all of this and seals immediately.
            const size_t quorum = std::min<size_t>(
                maxBatch_, committers_.load(std::memory_order_relaxed));
            if (!graced && members_.size() < quorum) {
                graced = true;
                spinning_.fetch_add(1, std::memory_order_relaxed);
                g.unlock();
                graceSpin(epoch, quorum);
                g.lock();
                spinning_.fetch_sub(1, std::memory_order_relaxed);
                continue; // re-evaluate: someone may have combined
            }
            // Free waiter: become the combiner.  The open epoch holds
            // (at least) our member, so one round retires our ticket.
            combineRound(g);
            continue;
        }
        // Parked behind an in-flight round (or an empty epoch that a
        // racing round already swept up): sleep until its notify.  The
        // combiner may be stalled in Rawl::append on a FULL log, whose
        // drain needs the truncator — from the first wakeup on, keep
        // nudging it so log-space pressure can never deadlock the
        // batch.  (A nudge before every park woke the truncator on each
        // short round, and its poll then sealed one-member epochs.)
        if (parked && truncator_)
            truncator_->nudge();
        parked = true;
        cv_.wait_for(g, std::chrono::microseconds(200));
    }
    if (t0)
        ctrs().wait_ns.record(obs::nowNs() - t0);
}

void
EpochCombiner::sync()
{
    uint64_t target;
    {
        std::lock_guard<std::mutex> g(mu_);
        if (!members_.empty())
            target = openEpoch_;            // open epoch holds work
        else if (combining_)
            target = openEpoch_ - 1;        // round in flight
        else
            return;                         // nothing pending
    }
    waitRetired(target);
}

bool
EpochCombiner::tryAdvance()
{
    if (spinning_.load(std::memory_order_relaxed) != 0)
        return false;
    std::unique_lock<std::mutex> g(mu_, std::try_to_lock);
    if (!g.owns_lock() || combining_ || members_.empty())
        return false;
    combineRound(g);
    return true;
}

void
EpochCombiner::combineRound(std::unique_lock<std::mutex> &g)
{
    assert(g.owns_lock() && !combining_ && !members_.empty());
    const uint64_t e = openEpoch_++;
    combining_ = true;
    std::vector<Member> members;
    std::vector<Pending> pendings;
    members.swap(members_);
    pendings.swap(pendings_);
    publishOpenState();
    g.unlock();
    const uint64_t start = obs::nowNs();

    ctrs().seals.add(1);
    ctrs().members.add(members.size());
    ctrs().batch.record(members.size());
    obs::TraceRing::instance().record(obs::TraceEv::kTxnCommit, e,
                                      members.size());

    uint64_t marker_end = 0;
    try {
        auto &c = scm::ctx();

        // 1. Epoch marker: [kTagEpoch, e, n, (slot, to_abs, ts) x n],
        //    streamed (wtstore) into the dedicated marker log — OUR
        //    fence below retires our own stream.
        markerScratch_.clear();
        markerScratch_.push_back(kTagEpoch);
        markerScratch_.push_back(e);
        markerScratch_.push_back(members.size());
        for (const auto &m : members) {
            markerScratch_.push_back(m.log->slotId());
            markerScratch_.push_back(m.toAbs);
            markerScratch_.push_back(m.ts);
        }
        markerLog_->append(markerScratch_.data(), markerScratch_.size());
        marker_end = markerLog_->tailAbs();

        // 2. Flush every member's record lines.  The records were
        //    staged with cached stores, so these flush claims are
        //    SHARED: our fence retires them on the producers' behalf.
        lineScratch_.clear();
        for (const auto &m : members)
            m.log->linesFor(m.fromAbs, m.toAbs, lineScratch_);
        std::sort(lineScratch_.begin(), lineScratch_.end());
        const size_t gathered = lineScratch_.size();
        lineScratch_.erase(
            std::unique(lineScratch_.begin(), lineScratch_.end()),
            lineScratch_.end());
        ctrs().lines_deduped.add(gathered - lineScratch_.size());
        for (uintptr_t line : lineScratch_)
            c.flush(reinterpret_cast<const void *>(line));

        // 3. THE fence — one per epoch.  Marker and every member record
        //    become durable together; this is the epoch's atomicity
        //    point.
        markerLog_->flush();

        // 4. Publish durability so consumers may read the records.
        for (const auto &m : members)
            m.log->publishFlushed(m.toAbs);

        // 5. Deferred async work, now on the safe side of the fence:
        //    in-place write-back (coalesced runs), lock release at the
        //    commit timestamp, then the truncation task.  Order matters
        //    twice over — write-back strictly after the record's fence
        //    (write-ahead), and the task enqueued only after the
        //    write-back, so the truncator can never drop a record whose
        //    data is still nowhere.
        for (auto &p : pendings) {
            for (size_t i = 0; i < p.items.size();) {
                const uintptr_t start = p.items[i].key;
                runScratch_.clear();
                runScratch_.push_back(p.items[i].val);
                size_t j = i + 1;
                while (j < p.items.size() &&
                       p.items[j].key == p.items[j - 1].key + 8) {
                    runScratch_.push_back(p.items[j].val);
                    ++j;
                }
                c.store(reinterpret_cast<void *>(start), runScratch_.data(),
                        runScratch_.size() * sizeof(uint64_t));
                i = j;
            }
            truncator_->enqueue(TruncationThread::Task{
                p.log, p.toAbs, std::move(p.dataWords), e});
        }
    } catch (const scm::CrashNow &) {
        // Crash injection fired mid-round: the machine is dying, stop
        // touching SCM.  Volatile bookkeeping still completes below so
        // in-process waiters (the crash harness's own thread) unblock;
        // recovery decides the epoch's fate from the media alone.
    }

    // Stripe-lock release is VOLATILE state and must happen even when a
    // crash hook cut the round short mid-I/O above — otherwise surviving
    // in-process threads (the harness itself) spin forever on locks
    // owned by a dead epoch.  On the normal path this still orders after
    // every member's in-place write-back, so a reader that observes the
    // new version also observes the new data.
    for (const auto &p : pendings) {
        for (uintptr_t slot : p.lockSlots) {
            reinterpret_cast<LockTable::Word *>(slot)->store(
                LockTable::makeVersion(p.ts), std::memory_order_release);
        }
    }

    lastRoundNs_.store(obs::nowNs() - start, std::memory_order_relaxed);
    g.lock();
    retired_ = e;
    ++rounds_;
    outstanding_.push_back(Outstanding{e, members.size(), marker_end});
    combining_ = false;
    cv_.notify_all();
}

void
EpochCombiner::noteConsumed(uint64_t epoch)
{
    std::lock_guard<std::mutex> g(mu_);
    for (auto &o : outstanding_) {
        if (o.epoch == epoch) {
            assert(o.remaining > 0);
            --o.remaining;
            return;
        }
    }
    assert(false && "consumed task of unknown epoch");
}

void
EpochCombiner::gcMarkers()
{
    uint64_t consume_to = 0;
    {
        std::lock_guard<std::mutex> g(mu_);
        while (!outstanding_.empty() && outstanding_.front().remaining == 0) {
            consume_to = outstanding_.front().markerEnd;
            outstanding_.pop_front();
        }
    }
    // Every member record of the popped prefix is consumed, which
    // implies its epoch's in-place data is flushed and fenced — the
    // markers carry no remaining recovery obligation.  The head advance
    // rides a later fence; losing it only resurrects fully-retired
    // markers, whose replay is idempotent.
    if (consume_to != 0 && consume_to > markerLog_->headAbs())
        markerLog_->consumeTo(log::Rawl::Cursor{consume_to},
                              /*do_fence=*/false);
}

} // namespace mnemosyne::mtm
