/**
 * @file
 * The epoch engine's two contracts, asserted directly:
 *
 *  1. Thread-count invariance: every cluster scenario in the catalog
 *     (clean weather and chaos alike) produces a bit-identical metrics
 *     record with the leaf fan-out serial (cluster_jobs=1) and parallel
 *     (cluster_jobs=4), and so does a cluster whose pool tasks each
 *     step several leaves. The golden harness separately pins *what*
 *     those records contain; this suite pins that parallelism cannot
 *     change them.
 *
 *  2. The barrier clock: every instant where cross-leaf state may move
 *     (SLO window closes, scheduler ticks, leaf crash/recover and
 *     slack-freeze boundaries, end of run) is a barrier, the schedule
 *     is sorted and duplicate-free, and it depends only on the
 *     configuration — never on thread count or event timing.
 *
 * It also pins the root's reply bookkeeping (cluster::QueryLedger)
 * against a std::map reference under random reply interleavings: the
 * barrier drains replies in leaf order, which is only sound because
 * their order cannot change what completes or the window sum.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "chaos/fault_plan.h"
#include "cluster/epoch.h"
#include "scenarios/registry.h"
#include "scenarios/runner.h"

namespace heracles {
namespace {

using cluster::BarrierClock;

/** Every cluster scenario in the catalog, by name — one test case
 *  each, so a divergence names its scenario and a slow run doesn't
 *  hide behind one monolithic test. */
std::vector<std::string>
ClusterScenarioNames()
{
    std::vector<std::string> names;
    for (const scenarios::ScenarioSpec& s : scenarios::AllScenarios()) {
        if (s.topology == scenarios::Topology::kCluster) {
            names.push_back(s.name);
        }
    }
    return names;
}

class JobsInvariance : public ::testing::TestWithParam<std::string>
{
};

TEST_P(JobsInvariance, SerialAndParallelRunsAreBitIdentical)
{
    const scenarios::ScenarioSpec& spec =
        scenarios::MustFindScenario(GetParam());

    scenarios::RunOptions serial = scenarios::RunOptions::Golden();
    serial.cluster_jobs = 1;
    scenarios::RunOptions parallel = scenarios::RunOptions::Golden();
    parallel.cluster_jobs = 4;

    const scenarios::ScenarioMetrics a =
        scenarios::RunScenario(spec, serial);
    const scenarios::ScenarioMetrics b =
        scenarios::RunScenario(spec, parallel);
    EXPECT_TRUE(a.ExactlyEquals(b))
        << spec.name << ": cluster_jobs=4 diverged from cluster_jobs=1\n"
        << "jobs=1:\n"
        << scenarios::MetricsToJson(a) << "jobs=4:\n"
        << scenarios::MetricsToJson(b);
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, JobsInvariance,
    ::testing::ValuesIn(ClusterScenarioNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        return info.param;
    });

TEST(LeafRanges, MoreLeavesThanRangesMatchSerial)
{
    // The golden harness's 3 leaves give every pool task one leaf. At
    // 10 leaves and cluster_jobs=2 the fan-out splits the leaves into 8
    // contiguous ranges, two of them with two leaves, so a task steps
    // several leaves and the ranges are uneven. Dropping, repeating or
    // reordering a leaf inside a range shows up here.
    const scenarios::ScenarioSpec& spec =
        scenarios::MustFindScenario("cluster_scale_rack_sharded");

    scenarios::RunOptions serial = scenarios::RunOptions::Golden();
    serial.cluster_leaves = 10;
    serial.cluster_jobs = 1;
    scenarios::RunOptions ranged = serial;
    ranged.cluster_jobs = 2;

    const scenarios::ScenarioMetrics a =
        scenarios::RunScenario(spec, serial);
    const scenarios::ScenarioMetrics b =
        scenarios::RunScenario(spec, ranged);
    EXPECT_TRUE(a.ExactlyEquals(b))
        << "10 leaves: cluster_jobs=2 diverged from cluster_jobs=1\n"
        << "jobs=1:\n"
        << scenarios::MetricsToJson(a) << "jobs=2:\n"
        << scenarios::MetricsToJson(b);
}

TEST(BarrierClock, ContainsEveryWindowAndSchedulerTick)
{
    const sim::Duration duration = sim::Seconds(200);
    const sim::Duration window = sim::Seconds(30);
    const sim::Duration period = sim::Seconds(45);
    const BarrierClock clock =
        BarrierClock::Build(duration, window, period, {});

    for (sim::SimTime t = window; t <= duration; t += window) {
        EXPECT_TRUE(clock.IsBarrier(t)) << "missing window close at " << t;
    }
    for (sim::SimTime t = period; t <= duration; t += period) {
        EXPECT_TRUE(clock.IsBarrier(t))
            << "missing scheduler tick at " << t;
    }
    // The run's final instant is always a barrier, even when (as here,
    // 200s) it is a multiple of neither period.
    EXPECT_EQ(clock.barriers.back(), duration);
    EXPECT_TRUE(clock.IsBarrier(duration));
    EXPECT_FALSE(clock.IsBarrier(0));
    EXPECT_FALSE(clock.IsBarrier(sim::Seconds(29)));
}

TEST(BarrierClock, IsSortedAndUnique)
{
    // window and scheduler share multiples (60, 120, ...) — each must
    // appear exactly once, in order.
    const BarrierClock clock = BarrierClock::Build(
        sim::Seconds(180), sim::Seconds(30), sim::Seconds(60), {});
    for (size_t i = 1; i < clock.barriers.size(); ++i) {
        EXPECT_LT(clock.barriers[i - 1], clock.barriers[i]);
    }
}

TEST(BarrierClock, FaultBoundariesLandOnExactBarriers)
{
    // The scenario-layer guarantee behind chaos_cluster_*: a leaf crash
    // or slack-freeze window resolved from plan fractions begins and
    // ends exactly at a barrier, so liveness and frozen exports change
    // only between epochs — never inside one — and the parallel run
    // cannot order a crash against in-flight leaf events differently
    // than the serial run.
    const sim::Duration duration = sim::Minutes(8);
    chaos::FaultPlan plan;
    plan.faults = {chaos::LeafCrash(1, 0.55, 0.85),
                   chaos::SlackFreeze(0, 0.25, 0.75)};
    std::vector<chaos::TimedFault> resolved;
    for (const chaos::FaultSpec& f : plan.faults) {
        resolved.push_back(chaos::ResolveWindow(f, duration));
    }

    const BarrierClock clock = BarrierClock::Build(
        duration, sim::Seconds(30), sim::Seconds(30), resolved);
    for (const chaos::TimedFault& f : resolved) {
        EXPECT_TRUE(clock.IsBarrier(f.begin))
            << "fault begin " << f.begin << " is not a barrier";
        EXPECT_TRUE(clock.IsBarrier(f.end))
            << "fault end " << f.end << " is not a barrier";
    }
}

TEST(BarrierClock, IgnoresFaultBoundariesOutsideTheRun)
{
    std::vector<chaos::TimedFault> faults(1);
    faults[0].kind = chaos::FaultKind::kLeafCrash;
    faults[0].leaf = 0;
    faults[0].begin = 0;                  // applied before the first epoch
    faults[0].end = sim::Seconds(999);    // beyond the run: never recovers
    const BarrierClock clock = BarrierClock::Build(
        sim::Seconds(90), sim::Seconds(30), 0, faults);
    EXPECT_FALSE(clock.IsBarrier(0));
    EXPECT_FALSE(clock.IsBarrier(sim::Seconds(999)));
    EXPECT_EQ(clock.barriers.back(), sim::Seconds(90));
}

TEST(QueryLedger, MatchesMapReferenceUnderAnyReplyInterleaving)
{
    // Each drain opens a random batch of queries over a few leaves
    // (some touch no live leaf and are lost), and each touched leaf
    // replies 0..kMaxDelay drains later. The ledger applies a drain's
    // replies in a random interleaving of per-leaf streams that are
    // themselves shuffled; the reference applies them leaf-major to a
    // std::map. Both must complete the same queries with the same root
    // latencies and the same integer window sum.
    constexpr int kLeaves = 6;
    constexpr int kDrains = 300;
    constexpr int kMaxQueries = 20;  // opened per drain
    constexpr int kMaxDelay = 3;     // drains until a reply lands
    constexpr sim::Duration kHop = 500;
    using Stream = std::vector<std::pair<uint64_t, sim::Duration>>;
    struct RefQuery {
        int remaining;
        sim::Duration max_latency;
    };

    for (uint64_t seed = 1; seed <= 20; ++seed) {
        std::mt19937_64 rng(seed);
        cluster::QueryLedger ledger(kHop);
        std::map<uint64_t, RefQuery> ref;
        std::vector<std::vector<Stream>> due(
            kDrains + kMaxDelay + 1, std::vector<Stream>(kLeaves));
        uint64_t expect_tag = 1;
        uint64_t lost = 0;
        for (int d = 0; d < kDrains; ++d) {
            const int n = static_cast<int>(rng() % (kMaxQueries + 1));
            for (int q = 0; q < n; ++q) {
                // Tags are dense: every query takes the next one, lost
                // or not.
                const uint64_t tag = ledger.next_tag();
                ASSERT_EQ(tag, expect_tag++);
                int alive = 0;
                for (int leaf = 0; leaf < kLeaves; ++leaf) {
                    if (rng() % 3 != 0) continue;
                    ++alive;
                    const int at = d + static_cast<int>(rng() % (kMaxDelay + 1));
                    due[at][leaf].push_back(
                        {tag, static_cast<sim::Duration>(
                                  1 + rng() % 50'000'000)});
                }
                ASSERT_EQ(ledger.Open(alive), tag);
                if (alive > 0) {
                    ref[tag] = {alive, 0};
                } else {
                    ++lost;
                }
            }

            std::map<uint64_t, sim::Duration> want;
            int64_t want_sum = 0;
            for (const Stream& stream : due[d]) {
                for (const auto& [tag, latency] : stream) {
                    auto it = ref.find(tag);
                    ASSERT_NE(it, ref.end());
                    it->second.max_latency =
                        std::max(it->second.max_latency, latency);
                    if (--it->second.remaining == 0) {
                        want[tag] = it->second.max_latency + kHop;
                        want_sum += want[tag];
                        ref.erase(it);
                    }
                }
            }

            std::map<uint64_t, sim::Duration> got;
            int64_t got_sum = 0;
            std::vector<size_t> pos(kLeaves, 0);
            std::vector<int> open_leaves;
            for (int leaf = 0; leaf < kLeaves; ++leaf) {
                std::shuffle(due[d][leaf].begin(), due[d][leaf].end(), rng);
                if (!due[d][leaf].empty()) open_leaves.push_back(leaf);
            }
            while (!open_leaves.empty()) {
                const size_t k = rng() % open_leaves.size();
                const int leaf = open_leaves[k];
                const auto& [tag, latency] = due[d][leaf][pos[leaf]++];
                const sim::Duration root = ledger.Reply(tag, latency);
                if (root >= 0) {
                    EXPECT_EQ(got.count(tag), 0u) << "completed twice";
                    got[tag] = root;
                    got_sum += root;
                }
                if (pos[leaf] == due[d][leaf].size()) {
                    open_leaves.erase(open_leaves.begin() +
                                      static_cast<std::ptrdiff_t>(k));
                }
            }
            ledger.Retire();

            ASSERT_EQ(got, want) << "seed " << seed << " drain " << d;
            ASSERT_EQ(got_sum, want_sum) << "seed " << seed << " drain " << d;
            // After compaction the span runs from the oldest live query
            // to the newest tag: completed and lost slots before it are
            // gone, so it stays within a reply delay's worth of queries.
            const size_t span =
                ref.empty() ? 0 : ledger.next_tag() - ref.begin()->first;
            ASSERT_EQ(ledger.live_span(), span)
                << "seed " << seed << " drain " << d;
            ASSERT_LE(span, static_cast<size_t>(kMaxDelay * kMaxQueries));
        }
        EXPECT_GT(lost, 0u) << "seed " << seed << " opened no lost query";
    }
}

TEST(QueryLedgerDeathTest, RejectsRepliesForNoLiveQuery)
{
    cluster::QueryLedger ledger;
    const uint64_t tag = ledger.Open(1);
    const uint64_t lost = ledger.Open(0);
    EXPECT_DEATH(ledger.Reply(tag + 5, 1), "outside the live span");
    EXPECT_DEATH(ledger.Reply(lost, 1), "completed or lost");
    EXPECT_EQ(ledger.Reply(tag, 7), 7);
    EXPECT_DEATH(ledger.Reply(tag, 1), "completed or lost");
    ledger.Retire();
    EXPECT_EQ(ledger.live_span(), 0u);
    EXPECT_DEATH(ledger.Reply(tag, 1), "outside the live span");
}

}  // namespace
}  // namespace heracles
