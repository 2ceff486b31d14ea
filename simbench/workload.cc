/**
 * simbench_workload: runs one benchmark workload once, in this process,
 * and prints one JSON object describing the run on standard output.
 *
 *   simbench_workload --workload server|pod|fleet --seed N [--trace]
 *
 * Untraced, the object carries the end-to-end figures (wall, set-up and
 * measured-run host seconds, simulated server-seconds per host second,
 * peak RSS, EMU), the canonical ScenarioMetrics record and the output
 * gate's verdict. With --trace the same workload path runs with spans
 * recorded around every call this program makes into a layer, and after
 * the checked record is taken it measures the layers one by one from
 * outside: replays of the assembly-time calls and of the server's run,
 * a sparse-leaf probe of the pod's hw resolve path, a jobs=1 rerun, and
 * a cross-check of the cluster record against scenarios::RunScenario.
 *
 * It only calls public library functions and reads public counters; it
 * changes no simulated state. simbench/run.py repeats it, checks the
 * records and aggregates medians.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "cluster/cluster.h"
#include "cluster/epoch.h"
#include "cluster/fingerprint.h"
#include "exp/server_sim.h"
#include "heracles/bw_model.h"
#include "scenarios/registry.h"
#include "scenarios/runner.h"
#include "scenarios/scenario.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/trace.h"
#include "workloads/antagonists.h"
#include "workloads/be_task.h"
#include "workloads/lc_configs.h"

namespace {

using namespace heracles;
using Clock = std::chrono::steady_clock;

/**
 * The benchmark's workloads. Each pins its catalog scenario, the
 * effective simulated length (through the time scale: the scale floors
 * in ClusterConfigFor and RunScenario's single-server path decide the
 * real length, which every result reports) and its worker-thread count,
 * which is passed explicitly and never taken from runner::DefaultJobs().
 */
struct Workload {
    const char* name;
    const char* scenario;
    double time_scale;
    int leaves;  ///< Cluster leaf override; 0 keeps the scenario's.
    int jobs;    ///< ClusterConfig::jobs (1 = no pool).
};

constexpr Workload kWorkloads[] = {
    // Full scale: 90 s warmup + 120 s measure, one server, one thread.
    {"server", "memkeyval_iperf_heracles", 1.0, 0, 1},
    // 128 leaves are two racks of 64, so every query fans out across
    // racks at the hierarchical root and each leaf sees the same sparse
    // per-leaf rate (1/64 of the root's) as in the 1024-leaf pod.
    // Scale 2 is above every cluster floor: a 360 s trace (120 s warmup)
    // after a 360 s target-defining run. Shorter traces leave the pod's
    // EMU at the mercy of a few brief BE admissions, which swing it by a
    // fifth from seed to seed.
    {"pod", "cluster_scale_rack_sharded", 2.0, 128, 4},
    // Full scale: a 720 s flash-crowd trace after a 180 s target run.
    {"fleet", "chaos_hetero_crash_pred", 1.0, 0, 4},
};

double
Since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
Median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, printed with the result at the end.

class Tracer
{
  public:
    struct Span {
        std::string name;
        double start_s = 0.0;
        double end_s = 0.0;
        int parent = -1;
    };

    Tracer(bool on, Clock::time_point t0) : on_(on), t0_(t0) {}

    bool on() const { return on_; }

    int
    Begin(const std::string& name)
    {
        if (!on_) return -1;
        spans_.push_back({name, Since(t0_), 0.0, current_});
        current_ = static_cast<int>(spans_.size()) - 1;
        return current_;
    }

    void
    End(int id)
    {
        if (id < 0) return;
        spans_[static_cast<size_t>(id)].end_s = Since(t0_);
        current_ = spans_[static_cast<size_t>(id)].parent;
    }

    const std::vector<Span>& spans() const { return spans_; }

  private:
    bool on_;
    Clock::time_point t0_;
    std::vector<Span> spans_;
    int current_ = -1;
};

/** Records one span for its scope and measures its host seconds, traced
 *  or not (the end-to-end figures come from the same stopwatches). */
class Scope
{
  public:
    Scope(Tracer& tracer, const std::string& name)
        : tracer_(tracer), id_(tracer.Begin(name)), t0_(Clock::now())
    {
    }
    ~Scope() { Stop(); }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /** Ends the span; returns its host seconds. Idempotent. */
    double
    Stop()
    {
        if (!stopped_) {
            seconds_ = Since(t0_);
            tracer_.End(id_);
            stopped_ = true;
        }
        return seconds_;
    }

  private:
    Tracer& tracer_;
    int id_;
    Clock::time_point t0_;
    bool stopped_ = false;
    double seconds_ = 0.0;
};

// ---------------------------------------------------------------------------
// One workload run.

struct Outcome {
    scenarios::ScenarioMetrics record;
    std::vector<std::string> fails;
    double wall_s = 0.0;
    double setup_s = 0.0;
    double run_s = 0.0;
    double sim_servers = 0.0;
    double sim_seconds = 0.0;
    /** Cluster runs: simulated length of the target run and warmup. */
    double target_run_sim_s = 0.0;
    double warmup_sim_s = 0.0;
    std::map<std::string, double> layers;
};

/**
 * The output gate every run must pass: no safety-invariant violation,
 * no SLO violation unless the scenario declares one expected at this
 * scale, and every metric finite.
 */
void
Gate(const scenarios::ScenarioSpec& spec, double time_scale,
     const scenarios::ScenarioMetrics& m, std::vector<std::string>* fails)
{
    if (m.invariant_violations != 0.0) {
        fails->push_back("invariant_violations=" +
                         std::to_string(m.invariant_violations));
    }
    const bool violated = m.slo_attained != 1.0 || m.tail_frac_slo > 1.0;
    if (violated && !scenarios::ViolationExpected(spec, time_scale)) {
        fails->push_back("unexpected SLO violation, tail_frac_slo=" +
                         std::to_string(m.tail_frac_slo));
    }
    for (const auto& [key, value] : m.Kv()) {
        if (!std::isfinite(value)) {
            fails->push_back("non-finite metric " + key);
        }
    }
}

/**
 * Host microseconds per resolve on the machine's current state, median
 * over batches so one preempted batch does not count. A full resolve is
 * Machine::ResolveNow(), which recomputes every phase; a cached one is
 * RequestResolve() + EnsureResolved(), the path the 25 ms epoch resolve
 * takes when no demand input changed.
 */
double
ResolveMicros(hw::Machine& machine, bool full)
{
    constexpr int kBatches = 15;
    constexpr int kCalls = 100;
    std::vector<double> per_call;
    for (int b = 0; b < kBatches; ++b) {
        const auto t0 = Clock::now();
        for (int c = 0; c < kCalls; ++c) {
            if (full) {
                machine.ResolveNow();
            } else {
                machine.RequestResolve();
                machine.EnsureResolved();
            }
        }
        per_call.push_back(Since(t0) / kCalls);
    }
    return Median(per_call) * 1e6;
}

workloads::LcParams
LcByName(const std::string& name)
{
    for (const workloads::LcParams& p : workloads::AllLcWorkloads()) {
        if (p.name == name) return p;
    }
    std::fprintf(stderr, "simbench: unknown LC workload %s\n", name.c_str());
    std::exit(2);
}

sim::Duration
Scaled(sim::Duration d, double factor, sim::Duration floor)
{
    return std::max(
        static_cast<sim::Duration>(static_cast<double>(d) * factor), floor);
}

/** The server RunScenario's single-server path assembles for @p seed
 *  (constant-load scenarios only). */
exp::ServerSpec
ServerSpecOf(const scenarios::ScenarioSpec& spec, uint64_t seed,
             sim::Duration length)
{
    if (spec.trace != scenarios::TraceKind::kConstant) {
        std::fprintf(stderr, "simbench: %s is not a constant-load "
                             "scenario\n", spec.name.c_str());
        std::exit(2);
    }
    exp::ServerSpec srv;
    srv.machine = spec.machine;
    srv.lc = LcByName(spec.lc);
    srv.SeedFrom(seed, /*salt=*/97);
    if (!spec.be.empty() && spec.be != "none") {
        srv.be = workloads::BeProfileByName(spec.machine, spec.be);
    }
    srv.policy = spec.policy;
    srv.heracles = spec.heracles;
    srv.faults = chaos::ResolvedFaultPlan::For(spec.faults, length);
    return srv;
}

/**
 * The single-server workload. The run itself is scenarios::RunScenario,
 * timed end to end, so wall_s follows the program's own entry point.
 * Set-up is timed first, on its own: the public calls that path makes
 * before its measured simulation (spec lookup, the BE alone rate and
 * exp::ServerSim assembly, which profiles the bandwidth model).
 */
Outcome
RunServerWorkload(const Workload& w, uint64_t seed, Tracer& tr)
{
    Outcome out;
    double config_s = 0.0;
    double alone_s = 0.0;
    double assembly_s = 0.0;
    {
        const auto s0 = Clock::now();
        Scope setup(tr, "bench.setup");
        Scope config(tr, "scenarios.FindScenario");
        const scenarios::ScenarioSpec& spec =
            scenarios::MustFindScenario(w.scenario);
        const exp::ServerSpec srv = ServerSpecOf(
            spec, seed,
            Scaled(spec.warmup, w.time_scale, sim::Seconds(20)) +
                Scaled(spec.measure, w.time_scale, sim::Seconds(30)));
        config_s = config.Stop();
        {
            Scope alone(tr, "workloads.MeasureAloneRate");
            if (srv.be.has_value() &&
                spec.policy != exp::PolicyKind::kNoColocation) {
                workloads::MeasureAloneRate(spec.machine, *srv.be);
            }
            alone_s = alone.Stop();
        }
        sim::EventQueue queue;
        Scope assembly(tr, "exp.ServerSim");
        exp::ServerSim server(srv, queue);
        assembly_s = assembly.Stop();
        out.setup_s = Since(s0);
    }

    const auto t0 = Clock::now();
    Scope whole(tr, "bench.run");
    const scenarios::ScenarioSpec& spec =
        scenarios::MustFindScenario(w.scenario);
    scenarios::RunOptions opts;
    opts.time_scale = w.time_scale;
    opts.seed = seed;
    {
        Scope run(tr, "scenarios.RunScenario");
        out.record = scenarios::RunScenario(spec, opts);
    }
    Gate(spec, w.time_scale, out.record, &out.fails);
    out.wall_s = Since(t0);
    whole.Stop();
    out.run_s = out.wall_s - out.setup_s;
    const sim::Duration warmup =
        Scaled(spec.warmup, w.time_scale, sim::Seconds(20));
    const sim::Duration measure =
        Scaled(spec.measure, w.time_scale, sim::Seconds(30));
    out.sim_servers = 1.0;
    out.sim_seconds = sim::ToSeconds(warmup + measure);
    if (!tr.on()) return out;

    // --- Layer measurements, after the checked record. ----------------
    // RunScenario keeps its server to itself, so the counters come from
    // a replay of the same simulation, which must reproduce the record's
    // throughput and controller polls exactly.
    Scope probes(tr, "bench.layer_probes");
    const exp::ServerSpec srv = ServerSpecOf(spec, seed, warmup + measure);
    sim::EventQueue queue;
    exp::ServerSim server(srv, queue);
    const sim::ConstantTrace trace(spec.load);
    server.lc().SetTrace(&trace);
    server.lc().Start();
    server.machine().ResolveNow();
    double replay_s = 0.0;
    uint64_t completed = 0;
    {
        Scope s(tr, "exp.ServerSim::RunMeasured");
        completed = server.RunMeasured(warmup, measure);
        replay_s = s.Stop();
    }
    server.StopController();
    const double lc_throughput = static_cast<double>(completed) /
                                 sim::ToSeconds(measure) / srv.lc.peak_qps;
    const ctl::HeraclesController* c = server.controller();
    if (lc_throughput != out.record.lc_throughput || c == nullptr ||
        static_cast<double>(c->stats().polls) != out.record.polls) {
        out.fails.push_back("counter replay differs from the measured run");
    }
    const uint64_t events = queue.executed();
    const uint64_t resolves = server.machine().resolves();
    const uint64_t recomputes = server.machine().demand_recomputes();
    auto& L = out.layers;
    L["sim.events"] = static_cast<double>(events);
    L["sim.host_ns_per_event"] = replay_s * 1e9 / std::max<double>(events, 1);
    L["workloads.lc_requests"] =
        static_cast<double>(server.lc().TotalArrived());
    L["workloads.alone_rate_s"] = alone_s;
    L["hw.resolves_per_event"] =
        static_cast<double>(resolves) / std::max<double>(events, 1);
    L["hw.full_resolve_frac"] =
        static_cast<double>(recomputes) / std::max<double>(resolves, 1);
    {
        Scope s(tr, "hw.Machine::ResolveNow");
        L["hw.resolve_us"] = ResolveMicros(server.machine(), true);
    }
    {
        Scope s(tr, "heracles.LcBwModel::Profile");
        ctl::LcBwModel::Profile(srv.lc, srv.machine);
        L["heracles.bw_profile_s"] = s.Stop();
    }
    L["exp.assembly_s"] = assembly_s;
    L["scenarios.config_s"] = config_s;
    return out;
}

/** ScenarioMetrics of a cluster run, exactly as scenarios::RunScenario
 *  maps a ClusterResult (the traced run cross-checks the two). */
scenarios::ScenarioMetrics
ClusterRecord(const scenarios::ScenarioSpec& spec,
              const cluster::ClusterResult& r)
{
    scenarios::ScenarioMetrics m;
    m.scenario = spec.name;
    m.slo_attained = r.slo_violated ? 0.0 : 1.0;
    m.tail_frac_slo = r.worst_latency_frac;
    m.worst_tail_ms = r.worst_latency_frac * sim::ToMillis(r.target);
    m.emu = r.avg_emu;
    m.min_emu = r.min_emu;
    m.polls = static_cast<double>(r.polls);
    m.be_enables = static_cast<double>(r.be_enables);
    m.be_disables = static_cast<double>(r.be_disables);
    m.core_shrinks = static_cast<double>(r.core_shrinks);
    m.act_set_cores = static_cast<double>(r.actuations.set_cores);
    m.act_set_ways = static_cast<double>(r.actuations.set_ways);
    m.act_set_freq_cap = static_cast<double>(r.actuations.set_freq_cap);
    m.act_set_net_ceil = static_cast<double>(r.actuations.set_net_ceil);
    m.be_placements = static_cast<double>(r.be_placements);
    m.be_migrations = static_cast<double>(r.be_migrations);
    m.be_would_placements = static_cast<double>(r.be_would_placements);
    m.be_would_migrations = static_cast<double>(r.be_would_migrations);
    m.invariant_violations = static_cast<double>(r.invariant_violations);
    m.faulted_ops = static_cast<double>(r.faulted_ops);
    m.root_target_ms = sim::ToMillis(r.target);
    m.leaf_target_ms = sim::ToMillis(r.leaf_target);
    return m;
}

/** The leaf blueprints a cluster run resolves (the uniform cluster
 *  pins brain on even leaves and streetview on odd ones). */
std::vector<cluster::LeafSpec>
LeafSpecsOf(const cluster::ClusterConfig& cfg)
{
    if (!cfg.leaf_specs.empty()) return cfg.leaf_specs;
    std::vector<cluster::LeafSpec> specs;
    for (int i = 0; i < cfg.leaves; ++i) {
        cluster::LeafSpec s;
        s.machine = cfg.machine;
        s.lc = cfg.lc;
        s.be = i % 2 == 0 ? workloads::Brain() : workloads::Streetview();
        specs.push_back(std::move(s));
    }
    return specs;
}

bool
Scheduled(const cluster::ClusterConfig& cfg)
{
    return cfg.colocate &&
           cfg.scheduler.policy != cluster::SchedulerPolicy::kStaticSplit &&
           !cfg.be_jobs.empty();
}

/** The server a colocated cluster assembles for leaf @p i, built from
 *  the public config the same way the cluster layer builds it, less the
 *  per-leaf platform faults (neither cluster workload has any). */
exp::ServerSpec
LeafServerSpec(const cluster::ClusterConfig& cfg,
               const std::vector<cluster::LeafSpec>& specs,
               const std::vector<sim::Duration>& targets,
               const std::vector<ctl::LcBwModel>& models, size_t i)
{
    exp::ServerSpec s;
    s.machine = specs[i].machine;
    s.machine.seed = cfg.seed * 131ull + i;
    s.lc = specs[i].lc;
    s.lc.slo_latency = targets[i];
    s.lc_seed = s.machine.seed ^ 0x11;
    s.heracles = cfg.heracles;
    s.policy = exp::PolicyKind::kHeracles;
    s.bw_model = &models[i];
    if (!Scheduled(cfg) && specs[i].be.has_value()) s.be = specs[i].be;
    return s;
}

/** Poisson query stream into one externally driven LcApp: one injection
 *  event per arrival, as the cluster's per-leaf injection chain has. */
class Injector
{
  public:
    Injector(sim::EventQueue& queue, workloads::LcApp& lc,
             const sim::LoadTrace& trace, double peak_rate, uint64_t seed,
             sim::SimTime end)
        : queue_(queue), lc_(lc), trace_(trace), peak_rate_(peak_rate),
          rng_(seed), end_(end)
    {
    }

    Injector(const Injector&) = delete;
    Injector& operator=(const Injector&) = delete;

    void Start() { Schedule(queue_.Now() + Gap()); }

  private:
    void
    Fire()
    {
        lc_.InjectRequest(next_tag_++);
        Schedule(queue_.Now() + Gap());
    }

    void
    Schedule(sim::SimTime when)
    {
        if (when <= end_) queue_.ScheduleAt(when, [this] { Fire(); });
    }

    sim::Duration
    Gap()
    {
        const double rate = std::max(
            trace_.LoadAt(queue_.Now()) * peak_rate_, 1e-3);
        return std::max<sim::Duration>(
            1, sim::Seconds(rng_.Exponential(1.0 / rate)));
    }

    sim::EventQueue& queue_;
    workloads::LcApp& lc_;
    const sim::LoadTrace& trace_;
    double peak_rate_;
    sim::Rng rng_;
    sim::SimTime end_;
    uint64_t next_tag_ = 1;
};

/**
 * Runs the cluster workload: set-up (config, fingerprints, the
 * target-defining run), then ClusterExperiment::Run as the measured
 * simulation.
 */
Outcome
RunClusterWorkload(const Workload& w, uint64_t seed, Tracer& tr)
{
    Outcome out;
    const auto t0 = Clock::now();
    Scope whole(tr, "bench.run");

    Scope config(tr, "scenarios.ClusterConfigFor");
    const scenarios::ScenarioSpec& spec =
        scenarios::MustFindScenario(w.scenario);
    scenarios::RunOptions opts;
    opts.time_scale = w.time_scale;
    opts.seed = seed;
    opts.cluster_leaves = w.leaves;
    opts.cluster_jobs = w.jobs;
    const cluster::ClusterConfig cfg =
        scenarios::ClusterConfigFor(spec, opts);
    const double config_s = config.Stop();

    cluster::ClusterExperiment experiment(cfg);
    const std::vector<cluster::LeafSpec> specs = LeafSpecsOf(cfg);

    // The predictive tier's fingerprints are cached process-wide, so
    // taking them here moves their cost out of Run() into set-up, in
    // the leaf order the cluster's own assembly would request them.
    Scope fingerprints(tr, "cluster.fingerprints");
    if (Scheduled(cfg) &&
        cfg.scheduler.policy == cluster::SchedulerPolicy::kPredictive) {
        for (const cluster::LeafSpec& ls : specs) {
            Scope s(tr, "cluster.FingerprintFor");
            cluster::FingerprintFor(ls.machine, ls.lc.name);
        }
    }
    const double fingerprint_s = fingerprints.Stop();

    Scope target(tr, "cluster.ClusterExperiment::MeasureTarget");
    experiment.MeasureTarget();
    const double target_s = target.Stop();
    out.setup_s = Since(t0);

    Scope run(tr, "cluster.ClusterExperiment::Run");
    const cluster::ClusterResult r = experiment.Run();
    out.run_s = run.Stop();

    out.record = ClusterRecord(spec, r);
    Gate(spec, w.time_scale, out.record, &out.fails);

    // The epoch engine must have stepped exactly the barrier schedule
    // the config implies, cluster-fault boundaries included: that is
    // the evidence that a crash / slack-freeze plan was applied.
    std::vector<chaos::TimedFault> faults;
    for (const chaos::FaultSpec& f : cfg.faults.faults) {
        if (f.kind != chaos::FaultKind::kLeafCrash &&
            f.kind != chaos::FaultKind::kSlackFreeze) {
            continue;
        }
        const chaos::TimedFault t = chaos::ResolveWindow(f, cfg.duration);
        if (t.end > t.begin) faults.push_back(t);
    }
    const sim::Duration period =
        Scheduled(cfg) ? cfg.scheduler.period : 0;
    const size_t barriers =
        cluster::BarrierClock::Build(cfg.duration, cfg.root_window, period,
                                     faults).size();
    const size_t clean_barriers =
        cluster::BarrierClock::Build(cfg.duration, cfg.root_window, period,
                                     {}).size();
    if (r.epochs != barriers) {
        out.fails.push_back("epochs " + std::to_string(r.epochs) +
                            " != barrier schedule " +
                            std::to_string(barriers));
    }
    if (!faults.empty() && barriers == clean_barriers) {
        out.fails.push_back("cluster fault plan added no barriers");
    }
    out.wall_s = Since(t0);
    whole.Stop();

    out.sim_servers = static_cast<double>(specs.size());
    out.sim_seconds = sim::ToSeconds(cfg.duration);
    out.target_run_sim_s = sim::ToSeconds(cfg.target_run);
    out.warmup_sim_s = sim::ToSeconds(cfg.run_warmup);
    if (!tr.on()) return out;

    // --- Layer measurements, after the checked record. ----------------
    Scope probes(tr, "bench.layer_probes");
    const scenarios::ScenarioMetrics& m = out.record;
    auto& L = out.layers;
    const double n = static_cast<double>(specs.size());
    L["sim.events"] = static_cast<double>(r.leaf_events);
    L["sim.host_ns_per_event"] =
        out.run_s * 1e9 / std::max<double>(r.leaf_events, 1);
    L["scenarios.config_s"] = config_s;
    L["cluster.fingerprint_s"] = fingerprint_s;
    L["cluster.target_run_s"] = target_s;
    L["cluster.run_s"] = out.run_s;
    L["cluster.epochs"] = static_cast<double>(r.epochs);
    L["cluster.host_ms_per_epoch"] =
        out.run_s * 1e3 / std::max<double>(r.epochs, 1);
    L["chaos.fault_barriers"] =
        static_cast<double>(barriers - clean_barriers);

    // Serial replays of the assembly work Run() does internally (alone
    // rates and bandwidth models across the pool, then every leaf's
    // server), timed call by call.
    {
        Scope s(tr, "workloads.MeasureAloneRate");
        std::vector<std::pair<const workloads::BeProfile*,
                              const hw::MachineConfig*>> done;
        const auto alone = [&](const workloads::BeProfile& job,
                               const hw::MachineConfig& machine) {
            for (const auto& [j, mc] : done) {
                if (*j == job && *mc == machine) return;
            }
            done.emplace_back(&job, &machine);
            workloads::MeasureAloneRate(machine, job);
        };
        for (const cluster::LeafSpec& ls : specs) {
            if (Scheduled(cfg)) {
                for (const workloads::BeProfile& job : cfg.be_jobs) {
                    alone(job, ls.machine);
                }
            } else if (cfg.colocate && ls.be.has_value()) {
                alone(*ls.be, ls.machine);
            }
        }
        L["workloads.alone_rate_s"] = s.Stop();
    }
    const std::vector<sim::Duration>& targets = experiment.LeafTargets();
    std::vector<ctl::LcBwModel> models(specs.size());
    {
        Scope s(tr, "heracles.LcBwModel::Profile");
        for (size_t i = 0; i < specs.size(); ++i) {
            hw::MachineConfig mcfg = specs[i].machine;
            mcfg.seed = cfg.seed * 131ull + i;
            workloads::LcParams lc = specs[i].lc;
            lc.slo_latency = targets[i];
            models[i] = ctl::LcBwModel::Profile(lc, mcfg);
        }
        L["heracles.bw_profile_s"] = s.Stop();
    }
    {
        Scope s(tr, "exp.ServerSim");
        for (size_t i = 0; i < specs.size(); ++i) {
            sim::EventQueue queue;
            exp::ServerSim server(
                LeafServerSpec(cfg, specs, targets, models, i), queue);
        }
        L["exp.assembly_s"] = s.Stop();
    }

    // Sparse-leaf probe (hierarchical pods): one leaf server driven at
    // the rate one rack member sees, so its resolves per event are the
    // pod's. Its events per leaf-second must match the pod's mean.
    if (cfg.topology == cluster::TopologyKind::kHierarchical) {
        Scope s(tr, "bench.leaf_probe");
        const int rack = std::min(cfg.rack_size, cfg.leaves);
        const sim::DiurnalTrace trace(cfg.duration, cfg.load_low,
                                      cfg.load_high, 0.02, cfg.seed);
        sim::EventQueue queue;
        exp::ServerSim server(
            LeafServerSpec(cfg, specs, targets, models, 0), queue);
        server.lc().SetLoad(0.0);
        server.lc().StartExternal();
        Injector injector(queue, server.lc(), trace,
                          cfg.lc.peak_qps / rack, seed ^ 0x9B0BE,
                          cfg.duration);
        injector.Start();
        const auto p0 = Clock::now();
        {
            Scope run_probe(tr, "exp.leaf_probe_run");
            queue.RunUntil(cfg.duration);
        }
        const double probe_s = Since(p0);
        server.StopController();
        hw::Machine& machine = server.machine();
        const double events = static_cast<double>(queue.executed());
        const double resolves = static_cast<double>(machine.resolves());
        const double recomputes =
            static_cast<double>(machine.demand_recomputes());
        double full_us = 0.0;
        double cached_us = 0.0;
        {
            Scope rs(tr, "hw.Machine::ResolveNow");
            full_us = ResolveMicros(machine, true);
            cached_us = ResolveMicros(machine, false);
        }
        // Each resolve priced by its kind: an estimate, since the final
        // state stands in for every state the run passed through.
        const double leaf_us =
            (recomputes * full_us + (resolves - recomputes) * cached_us) /
            std::max(resolves, 1.0);
        const double per_leaf_s = events / out.sim_seconds;
        const double pod_per_leaf_s =
            static_cast<double>(r.leaf_events) / (n * out.sim_seconds);
        L["hw.resolves_per_event"] = resolves / std::max(events, 1.0);
        L["hw.full_resolve_frac"] = recomputes / std::max(resolves, 1.0);
        L["hw.resolve_us"] = full_us;
        L["hw.leaf_resolves_per_event"] = L["hw.resolves_per_event"];
        L["hw.leaf_resolve_us"] = leaf_us;
        L["hw.leaf_share"] = resolves * leaf_us * 1e-6 / probe_s;
        L["hw.leaf_probe_match"] = per_leaf_s / pod_per_leaf_s;
        L["workloads.lc_requests"] =
            static_cast<double>(server.lc().TotalArrived());
        constexpr double kProbeTolerance = 0.10;
        if (std::fabs(per_leaf_s / pod_per_leaf_s - 1.0) > kProbeTolerance) {
            out.fails.push_back(
                "leaf probe runs " + std::to_string(per_leaf_s) +
                " events per leaf-second, the pod " +
                std::to_string(pod_per_leaf_s));
        }
    }

    // Jobs=1 rerun: the runner's parallel efficiency at this width, and
    // the epoch engine's promise that results do not depend on it.
    if (cfg.jobs > 1) {
        Scope s(tr, "runner.jobs1_rerun");
        cluster::ClusterConfig serial_cfg = cfg;
        serial_cfg.jobs = 1;
        cluster::ClusterExperiment serial(serial_cfg);
        serial.MeasureTarget();
        const auto r0 = Clock::now();
        const cluster::ClusterResult r1 = serial.Run();
        const double serial_run_s = Since(r0);
        L["runner.parallel_efficiency"] =
            serial_run_s / (cfg.jobs * out.run_s);
        if (!ClusterRecord(spec, r1).ExactlyEquals(m)) {
            out.fails.push_back("jobs=1 record differs from jobs=" +
                                std::to_string(cfg.jobs));
        }
    }
    {
        Scope s(tr, "scenarios.RunScenario");
        if (!scenarios::RunScenario(spec, opts).ExactlyEquals(m)) {
            out.fails.push_back(
                "benchmark record differs from scenarios::RunScenario");
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// Output.

std::string
Num(double v)
{
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
Str(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

double
PeakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void
Print(const Workload& w, uint64_t seed, const Outcome& o,
      const Tracer& tr)
{
    const scenarios::ScenarioMetrics& m = o.record;
    std::string s = "{";
    s += "\"workload\":" + Str(w.name);
    s += ",\"scenario\":" + Str(w.scenario);
    s += ",\"seed\":" + std::to_string(seed);
    s += ",\"jobs\":" + std::to_string(w.jobs);
    s += ",\"time_scale\":" + Num(w.time_scale);
    s += ",\"build_type\":" + Str(SIMBENCH_BUILD_TYPE);
    s += ",\"sim_servers\":" + Num(o.sim_servers);
    s += ",\"sim_seconds\":" + Num(o.sim_seconds);
    s += ",\"target_run_sim_s\":" + Num(o.target_run_sim_s);
    s += ",\"warmup_sim_s\":" + Num(o.warmup_sim_s);
    s += ",\"ok\":" + std::string(o.fails.empty() ? "true" : "false");
    s += ",\"fails\":[";
    for (size_t i = 0; i < o.fails.size(); ++i) {
        s += (i > 0 ? "," : "") + Str(o.fails[i]);
    }
    s += "]";
    s += ",\"wall_s\":" + Num(o.wall_s);
    s += ",\"setup_s\":" + Num(o.setup_s);
    s += ",\"run_s\":" + Num(o.run_s);
    s += ",\"sim_speed\":" + Num(o.sim_servers * o.sim_seconds / o.run_s);
    s += ",\"peak_rss_mb\":" + Num(PeakRssMb());
    s += ",\"emu\":" + Num(m.emu);
    s += ",\"record\":{";
    bool first = true;
    for (const auto& [key, value] : m.Kv()) {
        s += (first ? "" : ",") + Str(key) + ":" + Num(value);
        first = false;
    }
    s += "}";
    if (tr.on()) {
        std::map<std::string, double> layers = o.layers;
        layers["heracles.polls"] = m.polls;
        layers["heracles.be_disables"] = m.be_disables;
        layers["platform.actuations"] = m.act_set_cores + m.act_set_ways +
                                        m.act_set_freq_cap +
                                        m.act_set_net_ceil;
        layers["chaos.invariant_violations"] = m.invariant_violations;
        layers["chaos.faulted_ops"] = m.faulted_ops;
        layers["cluster.be_placements"] = m.be_placements;
        layers["cluster.be_migrations"] = m.be_migrations;
        s += ",\"layers\":{";
        first = true;
        for (const auto& [key, value] : layers) {
            s += (first ? "" : ",") + Str(key) + ":" + Num(value);
            first = false;
        }
        s += "},\"spans\":[";
        first = true;
        for (const Tracer::Span& sp : tr.spans()) {
            s += std::string(first ? "" : ",") + "{\"name\":" +
                 Str(sp.name) + ",\"start_s\":" + Num(sp.start_s) +
                 ",\"end_s\":" + Num(sp.end_s) +
                 ",\"parent\":" + std::to_string(sp.parent) + "}";
            first = false;
        }
        s += "]";
    }
    s += "}\n";
    std::fputs(s.c_str(), stdout);
}

[[noreturn]] void
Usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload server|pod|fleet --seed N "
                 "[--trace]\n",
                 argv0);
    std::exit(2);
}

}  // namespace

int
main(int argc, char** argv)
{
    const Workload* workload = nullptr;
    uint64_t seed = 0;
    bool have_seed = false;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload" && i + 1 < argc) {
            const std::string name = argv[++i];
            for (const Workload& w : kWorkloads) {
                if (name == w.name) workload = &w;
            }
            if (workload == nullptr) Usage(argv[0]);
        } else if (arg == "--seed" && i + 1 < argc) {
            char* end = nullptr;
            const char* text = argv[++i];
            seed = std::strtoull(text, &end, 10);
            if (end == text || *end != '\0' || text[0] == '-') {
                Usage(argv[0]);
            }
            have_seed = true;
        } else if (arg == "--trace") {
            trace = true;
        } else {
            Usage(argv[0]);
        }
    }
    if (workload == nullptr || !have_seed) Usage(argv[0]);

    Tracer tracer(trace, Clock::now());
    const bool is_cluster =
        scenarios::MustFindScenario(workload->scenario).topology ==
        scenarios::Topology::kCluster;
    const Outcome o = is_cluster ? RunClusterWorkload(*workload, seed, tracer)
                                 : RunServerWorkload(*workload, seed, tracer);
    Print(*workload, seed, o, tracer);
    return o.fails.empty() ? 0 : 1;
}
