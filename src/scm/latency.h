/**
 * @file
 * Latency emulation for storage-class memory (SCM).
 *
 * Reproduces the paper's performance emulator (Mnemosyne, ASPLOS 2011,
 * section 6.1): delays are implemented with a loop that reads the
 * processor's timestamp counter each iteration and spins until the
 * requested delay has elapsed.  A virtual mode accumulates delays into a
 * counter instead of spinning, for deterministic accounting in tests.
 */

#ifndef MNEMOSYNE_SCM_LATENCY_H_
#define MNEMOSYNE_SCM_LATENCY_H_

#include <cstdint>

#include "obs/obs.h"

namespace mnemosyne::scm {

/** How emulated SCM delays are realized. */
enum class LatencyMode {
    kNone,      ///< No delays (functional simulation only).
    kSpin,      ///< Busy-wait on the TSC, like the paper's emulator.
    kVirtual,   ///< Accumulate delay in a counter without spinning.
};

/**
 * Calibrated TSC-based spin-delay engine.
 *
 * Calibration happens once per process on first use; the calibration
 * measures TSC ticks per nanosecond against the steady clock.
 */
class DelayLoop
{
  public:
    /** Spin for at least @p ns nanoseconds. */
    static void spin(uint64_t ns);

    /** Read the calibrated TSC rate (ticks per nanosecond, scaled by 2^16). */
    static uint64_t ticksPerNsQ16();

    /** Raw timestamp counter read. */
    static uint64_t rdtsc();
};

/**
 * Per-context emulated-time accounting.  In kVirtual mode, delays are
 * added here; in kSpin mode they are both spun and recorded so that
 * benchmarks can report emulated SCM time separately.  Charges land in
 * the calling thread's shard (always on, whatever MN_OBS says), so
 * concurrent flushes and fences never share a counter line; reads sum
 * the shards.
 */
class LatencyAccount
{
  public:
    void
    charge(LatencyMode mode, uint64_t ns)
    {
        totalNs_.add(ns);
        if (mode == LatencyMode::kSpin)
            DelayLoop::spin(ns);
    }

    uint64_t totalNs() const { return totalNs_.sum(); }
    void reset() { totalNs_.reset(); }

  private:
    obs::ShardedCounter totalNs_;
};

} // namespace mnemosyne::scm

#endif // MNEMOSYNE_SCM_LATENCY_H_
