/**
 * @file
 * Records the cluster epoch engine's throughput baseline as
 * BENCH_cluster.json (schema in docs/performance.md).
 *
 * One run executes a cluster scenario end to end (target-defining run
 * plus the colocated trace) twice — once with the leaf fan-out serial
 * (jobs=1) and once at --jobs — wall-clocking each pass and verifying
 * the two produce bit-identical results, which is the epoch engine's
 * core contract. The record carries the scenario's shape (leaves,
 * topology), its epoch/event counts, per-pass throughput
 * (epochs/s, aggregate leaf events/s), each pass's host time in the
 * root's serial barrier section, and the parallel speedup.
 *
 * Usage: bench_cluster [--scenario NAME] [--scale F] [--jobs N]
 *                      [--leaves N] [--out FILE]
 *   --scenario  cluster scenario to drive (default
 *               cluster_scale_rack_sharded, the 1024-leaf pod)
 *   --scale     time scale for the scenario's phases (default 1.0)
 *   --jobs      width of the parallel pass (default: hardware
 *               concurrency)
 *   --leaves    overrides the scenario's leaf count (scenarios that pin
 *               their shape with fixed_leaves ignore this)
 *   --out       output path (default BENCH_cluster.json)
 *
 * Exit codes: 0 recorded; 1 the two passes were not bit-identical
 * (a determinism regression — the record is still written, flagged);
 * 2 usage/IO error.
 */
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>

#include "cluster/cluster.h"
#include "scenarios/registry.h"
#include "scenarios/runner.h"
#include "sim/stats.h"

using namespace heracles;

namespace {

/**
 * Strict parse of a positive integer flag (the heracles_sim
 * convention): "--leaves banana" must not silently run the scenario's
 * own leaf count, nor "--jobs 4x" run 4.
 */
bool
ParsePositiveInt(const char* flag, const char* v, int* out)
{
    char* end = nullptr;
    const long n = std::strtol(v, &end, 10);
    if (end == v || *end != '\0' || n <= 0 || n > INT_MAX) {
        std::fprintf(stderr, "%s wants a positive integer, got '%s'\n",
                     flag, v);
        return false;
    }
    *out = static_cast<int>(n);
    return true;
}

double
WallSeconds(const std::function<void()>& fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

bool
SameSeries(const sim::TimeSeries& a, const sim::TimeSeries& b)
{
    return a.t == b.t && a.v == b.v;
}

/** Bit-exact equality of everything a cluster run reports. */
bool
SameResult(const cluster::ClusterResult& a, const cluster::ClusterResult& b)
{
    return SameSeries(a.latency_frac, b.latency_frac) &&
           SameSeries(a.emu, b.emu) && SameSeries(a.load, b.load) &&
           a.worst_latency_frac == b.worst_latency_frac &&
           a.slo_violated == b.slo_violated && a.avg_emu == b.avg_emu &&
           a.min_emu == b.min_emu && a.target == b.target &&
           a.leaf_target == b.leaf_target && a.polls == b.polls &&
           a.be_enables == b.be_enables &&
           a.be_disables == b.be_disables &&
           a.core_shrinks == b.core_shrinks &&
           a.actuations.set_cores == b.actuations.set_cores &&
           a.actuations.set_ways == b.actuations.set_ways &&
           a.actuations.set_freq_cap == b.actuations.set_freq_cap &&
           a.actuations.set_net_ceil == b.actuations.set_net_ceil &&
           a.be_placements == b.be_placements &&
           a.be_migrations == b.be_migrations &&
           a.invariant_violations == b.invariant_violations &&
           a.faulted_ops == b.faulted_ops && a.epochs == b.epochs &&
           a.leaf_events == b.leaf_events;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string scenario_name = "cluster_scale_rack_sharded";
    double scale = 1.0;
    int jobs = runner::DefaultJobs();
    int leaves = 0;
    std::string out_path = "BENCH_cluster.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--scenario") && i + 1 < argc) {
            scenario_name = argv[++i];
        } else if (!std::strcmp(argv[i], "--scale") && i + 1 < argc) {
            // Strict parse (the heracles_sim convention): a typo like
            // "0.2x" or "o.2" must not silently become some other run.
            const char* v = argv[++i];
            char* end = nullptr;
            scale = std::strtod(v, &end);
            if (end == v || *end != '\0' || scale <= 0.0) {
                std::fprintf(
                    stderr,
                    "--scale wants a positive number, got '%s'\n", v);
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
            if (!ParsePositiveInt("--jobs", argv[++i], &jobs)) return 2;
        } else if (!std::strcmp(argv[i], "--leaves") && i + 1 < argc) {
            if (!ParsePositiveInt("--leaves", argv[++i], &leaves)) {
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--scenario NAME] [--scale F] "
                         "[--jobs N] [--leaves N] [--out FILE]\n",
                         argv[0]);
            return 2;
        }
    }

    const scenarios::ScenarioSpec& spec =
        scenarios::MustFindScenario(scenario_name);
    scenarios::RunOptions opts;
    opts.time_scale = scale;
    if (leaves > 0) opts.cluster_leaves = leaves;

    cluster::ClusterConfig base = scenarios::ClusterConfigFor(spec, opts);
    const size_t leaf_count = base.leaf_specs.empty()
                                  ? static_cast<size_t>(base.leaves)
                                  : base.leaf_specs.size();

    const int widths[2] = {1, jobs};
    cluster::ClusterResult results[2];
    double wall[2] = {0.0, 0.0};
    for (int p = 0; p < 2; ++p) {
        cluster::ClusterConfig cfg = base;
        cfg.jobs = widths[p];
        cluster::ClusterExperiment experiment(std::move(cfg));
        wall[p] =
            WallSeconds([&] { results[p] = experiment.Run(); });
        std::fprintf(stderr,
                     "jobs=%d: %.2fs wall (%.2fs serial barrier), %llu "
                     "epochs, %llu leaf events\n",
                     widths[p], wall[p], results[p].barrier_host_s,
                     static_cast<unsigned long long>(results[p].epochs),
                     static_cast<unsigned long long>(
                         results[p].leaf_events));
    }
    const bool identical = SameResult(results[0], results[1]);
    if (!identical) {
        std::fprintf(stderr,
                     "DETERMINISM REGRESSION: jobs=1 and jobs=%d "
                     "disagree\n",
                     jobs);
    }

    std::string runs_json;
    for (int p = 0; p < 2; ++p) {
        char run[320];
        std::snprintf(
            run, sizeof run,
            "    {\n"
            "      \"jobs\": %d,\n"
            "      \"wall_s\": %.3f,\n"
            "      \"barrier_host_s\": %.3f,\n"
            "      \"epochs_per_sec\": %.4f,\n"
            "      \"events_per_sec\": %.0f\n"
            "    }%s\n",
            widths[p], wall[p], results[p].barrier_host_s,
            static_cast<double>(results[p].epochs) / wall[p],
            static_cast<double>(results[p].leaf_events) / wall[p],
            p == 0 ? "," : "");
        runs_json += run;
    }

    char head[1024];
    std::snprintf(
        head, sizeof head,
        "{\n"
        "  \"bench\": \"cluster_epoch\",\n"
        "  \"host_cpus\": %u,\n"
        "  \"scenario\": \"%s\",\n"
        "  \"scale\": %.3f,\n"
        "  \"leaves\": %zu,\n"
        "  \"topology\": \"%s\",\n"
        "  \"epochs\": %llu,\n"
        "  \"leaf_events\": %llu,\n"
        "  \"runs\": [\n",
        std::thread::hardware_concurrency(), scenario_name.c_str(), scale,
        leaf_count,
        cluster::TopologyKindName(base.topology).c_str(),
        static_cast<unsigned long long>(results[0].epochs),
        static_cast<unsigned long long>(results[0].leaf_events));

    char tail[256];
    std::snprintf(tail, sizeof tail,
                  "  ],\n"
                  "  \"speedup\": %.3f,\n"
                  "  \"bit_identical\": %s\n"
                  "}\n",
                  wall[1] > 0.0 ? wall[0] / wall[1] : 0.0,
                  identical ? "true" : "false");

    const std::string json = std::string(head) + runs_json + tail;
    std::fputs(json.c_str(), stdout);
    if (FILE* f = std::fopen(out_path.c_str(), "w")) {
        std::fputs(json.c_str(), f);
        std::fclose(f);
    } else {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 2;
    }
    return identical ? 0 : 1;
}
