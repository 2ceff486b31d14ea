/**
 * @file
 * Deterministic epoch barriers for the partitioned cluster engine.
 *
 * The cluster simulation runs every leaf on its own sim::EventQueue and
 * only lets cross-leaf state move at *barriers*: the instants where the
 * root closes an SLO window, the cluster scheduler ticks, a cluster
 * fault opens or closes a window, and the end of the run. Between two
 * consecutive barriers no leaf can observe another leaf (arrivals for
 * the interval are staged before it starts; replies are drained after
 * it ends), so the leaves of one epoch may execute on any number of
 * threads in any order and the run stays bit-identical to jobs=1.
 *
 * The barrier schedule is a pure function of the run's configuration —
 * never of anything a leaf computes — which is what makes the schedule
 * itself deterministic. Cluster fault boundaries are barriers by
 * construction, so crash/recover and slack-freeze injections land on
 * exact epoch edges (pinned by tests/epoch_determinism_test.cc).
 * QueryLedger is the root's side of the reply channel: the barrier
 * drains every leaf's replies into it.
 */
#ifndef HERACLES_CLUSTER_EPOCH_H
#define HERACLES_CLUSTER_EPOCH_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "chaos/fault_plan.h"
#include "sim/time.h"

namespace heracles::cluster {

/**
 * The root's fan-out bookkeeping: every query in flight, indexed by its
 * tag.
 *
 * Tags are dense (Open hands them out in order from 1), so the live
 * queries sit in one contiguous slot array indexed by `tag - base_tag`
 * with no hashing and no per-query allocation. A query lost to
 * all-dark leaves still takes its tag and keeps an empty slot.
 * Retire() advances the head past completed slots and drops them once
 * they make up at least half the array, so memory stays proportional
 * to the live span (oldest in-flight query to newest tag), and each
 * slot is moved at most once on average.
 */
class QueryLedger
{
  public:
    /** @param hop_latency network time added to every completed query's
     *         slowest reply (root ↔ leaf hops, both ways). */
    explicit QueryLedger(sim::Duration hop_latency = 0)
        : hop_latency_(hop_latency)
    {
    }

    /** Tag the next Open() assigns. */
    uint64_t next_tag() const { return base_tag_ + slots_.size(); }

    /** Opens query next_tag() awaiting @p alive replies (0 = lost: the
     *  slot stays empty and never completes). Returns its tag. */
    uint64_t Open(int alive);

    /**
     * Applies one leaf reply to live query @p tag. Returns the query's
     * root latency (slowest reply plus hops) when this reply is its
     * last, else -1. Every reply must name a live tag.
     */
    sim::Duration Reply(uint64_t tag, sim::Duration latency);

    /** Advances the head past completed slots; compacts amortised. */
    void Retire();

    /** Slots from the head to the newest tag (live and completed). */
    size_t live_span() const { return slots_.size() - head_; }

  private:
    struct Slot {
        int remaining = 0;
        sim::Duration max_latency = 0;
    };

    sim::Duration hop_latency_;
    std::vector<Slot> slots_;
    size_t head_ = 0;        ///< First slot that may still be live.
    uint64_t base_tag_ = 1;  ///< Tag of slots_[0].
};

/** The sorted, deduplicated barrier schedule of one cluster run. */
struct BarrierClock {
    /** Barrier instants, strictly increasing, in (0, duration]. The
     *  last entry is always the run's end. */
    std::vector<sim::SimTime> barriers;

    /**
     * Builds the schedule: every multiple of @p root_window and of
     * @p scheduler_period (0 = no scheduler) up to @p duration, every
     * resolved cluster-fault begin/end inside (0, duration], and
     * @p duration itself. Fault times at exactly 0 are not barriers —
     * they act before the first epoch starts.
     */
    static BarrierClock Build(sim::Duration duration,
                              sim::Duration root_window,
                              sim::Duration scheduler_period,
                              const std::vector<chaos::TimedFault>& faults);

    /** True when @p t is on the schedule (binary search). */
    bool IsBarrier(sim::SimTime t) const;

    size_t size() const { return barriers.size(); }
};

}  // namespace heracles::cluster

#endif  // HERACLES_CLUSTER_EPOCH_H
