/**
 * @file
 * The machine's assignment-time layout cache against a per-cpu reference.
 *
 * hw::Machine computes each client's cpu layout (ascending cpu list, HT
 * siblings, socket-local cores, per-socket counts) when cpus are
 * assigned, and each client's HT neighbours when the assignment or the
 * registry changes; the resolve phases then read those caches. Naive
 * mode runs the same HT and power code, so machine_equivalence_test
 * cannot see an ordering or invalidation bug there.
 *
 * This suite drives random AddClient / RemoveClient / AssignCpus /
 * AllowCpuSharing / SetFreqCapGhz / SetCatWays sequences over fixed-busy
 * clients on 1-, 2- and 4-socket machines with one and two threads per
 * core. After every step it resolves and compares every published view
 * field, the per-socket DRAM and power counters and the exact sequence
 * of busy queries against a test-local resolver that derives the layout
 * on every resolve by testing each cpu bit, the way the machine did
 * before the cache existed.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "hw/dram.h"
#include "hw/llc.h"
#include "hw/machine.h"
#include "hw/power.h"
#include "sim/random.h"

namespace heracles::hw {
namespace {

/** Every cpu of @p s, found by testing each bit in turn. */
std::vector<int>
ScanCpus(const CpuSet& s)
{
    std::vector<int> out;
    for (int c = 0; c < kMaxCpus; ++c) {
        if (s.Contains(c)) out.push_back(c);
    }
    return out;
}

/** The cpus of @p s on @p socket, found by testing each cpu. */
CpuSet
ScanOnSocket(const Topology& topo, const CpuSet& s, int socket)
{
    CpuSet out;
    for (int cpu : ScanCpus(s)) {
        if (topo.SocketOf(cpu) == socket) out.Add(cpu);
    }
    return out;
}

int
ScanCoreCount(const Topology& topo, const CpuSet& s)
{
    std::set<int> cores;
    for (int cpu : ScanCpus(s)) cores.insert(topo.CoreOf(cpu));
    return static_cast<int>(cores.size());
}

/** A random set: runs, single cpus and stray bits near word edges. */
CpuSet
RandomSet(sim::Rng& rng, int n_cpus)
{
    CpuSet s;
    switch (rng.UniformInt(4)) {
        case 0:
            break;  // empty
        case 1: {
            const int first = static_cast<int>(rng.UniformInt(n_cpus));
            const int len = 1 + static_cast<int>(rng.UniformInt(12));
            for (int c = first; c < std::min(n_cpus, first + len); ++c) {
                s.Add(c);
            }
            break;
        }
        default: {
            const int k = 1 + static_cast<int>(rng.UniformInt(10));
            for (int i = 0; i < k; ++i) {
                s.Add(static_cast<int>(rng.UniformInt(n_cpus)));
            }
            break;
        }
    }
    return s;
}

/** A client with fixed demand; the machine's busy queries are logged. */
class FixedClient : public ResourceClient
{
  public:
    FixedClient(int id, sim::Rng& rng, std::vector<int>* busy_log)
        : id_(id),
          name_("client" + std::to_string(id)),
          busy_log_(busy_log),
          busy_(rng.Bernoulli(0.2) ? 0.0 : rng.Uniform(0.05, 1.0)),
          footprint_(rng.Uniform(1.0, 40.0)),
          weight_(rng.Uniform(0.1, 20.0)),
          dram_(rng.Uniform(0.5, 30.0)),
          intensity_(rng.Uniform(0.5, 2.0)),
          net_(rng.Uniform(0.0, 4.0)),
          aggression_(rng.Bernoulli(0.25) ? rng.Uniform(0.8, 1.0)
                                          : rng.Uniform(1.0, 1.6))
    {
    }

    int id() const { return id_; }
    /** The busy level, read without logging (for the reference). */
    double busy() const { return busy_; }

    const std::string& name() const override { return name_; }
    bool is_lc() const override { return id_ == 0; }
    double
    CpuBusyFraction() const override
    {
        busy_log_->push_back(id_);
        return busy_;
    }
    double
    LlcFootprintMb(int socket) const override
    {
        return footprint_ + 0.5 * socket;
    }
    double LlcAccessWeight(int) const override { return weight_; }
    double
    DramDemandGbps(int socket, double effective_llc_mb) const override
    {
        const double hit =
            std::min(1.0, effective_llc_mb / LlcFootprintMb(socket));
        return dram_ * (0.4 + 0.6 * (1.0 - hit));
    }
    double PowerIntensity() const override { return intensity_; }
    double NetTxDemandGbps() const override { return net_; }
    double HtAggression() const override { return aggression_; }

  private:
    int id_;
    std::string name_;
    std::vector<int>* busy_log_;
    double busy_, footprint_, weight_, dram_, intensity_, net_, aggression_;
};

/** The test's mirror of one registered client. */
struct RefClient {
    FixedClient* client = nullptr;
    CpuSet cpus;
    int cat_ways = 0;
    double freq_cap_ghz = 0.0;
};

/** What one resolve publishes. */
struct RefOutcome {
    std::vector<TaskView> views;  ///< Parallel to the registry.
    std::vector<double> dram_granted;
    std::vector<double> socket_power;
    std::vector<int> busy_log;  ///< Client ids, in query order.
};

/**
 * One full resolve computed the way the machine did before its layout
 * cache: every phase re-derives each client's per-socket cpus and HT
 * siblings from its cpuset, one cpu at a time, and the HT phase visits
 * every other client at every cpu.
 */
RefOutcome
ReferenceResolve(const MachineConfig& cfg,
                 const std::vector<RefClient>& clients)
{
    const Topology topo(cfg);
    const size_t n = clients.size();
    RefOutcome out;
    out.views.resize(n);
    out.dram_granted.assign(cfg.sockets, 0.0);
    out.socket_power.assign(cfg.sockets, 0.0);
    auto busy_of = [&](size_t i) {
        out.busy_log.push_back(clients[i].client->id());
        return clients[i].client->busy();
    };

    // LLC and DRAM.
    for (TaskView& v : out.views) v.dram_stretch = 0.0;
    for (int socket = 0; socket < cfg.sockets; ++socket) {
        std::vector<LlcRequest> reqs;
        std::vector<size_t> idx;
        std::vector<double> frac;
        for (size_t i = 0; i < n; ++i) {
            const RefClient& rc = clients[i];
            if (rc.cpus.Empty()) continue;
            const int here = ScanOnSocket(topo, rc.cpus, socket).Count();
            if (here == 0) continue;
            LlcRequest r;
            r.footprint_mb = rc.client->LlcFootprintMb(socket);
            r.weight = rc.client->LlcAccessWeight(socket);
            r.cat_ways = rc.cat_ways;
            reqs.push_back(r);
            idx.push_back(i);
            frac.push_back(static_cast<double>(here) / rc.cpus.Count());
        }
        const std::vector<double> llc = ResolveLlc(cfg, reqs);
        std::vector<double> demand(reqs.size());
        for (size_t k = 0; k < reqs.size(); ++k) {
            demand[k] = clients[idx[k]].client->DramDemandGbps(socket, llc[k]);
        }
        const DramOutcome dram = ResolveDram(cfg, demand);
        out.dram_granted[socket] = dram.total_granted_gbps;
        for (size_t k = 0; k < reqs.size(); ++k) {
            TaskView& v = out.views[idx[k]];
            v.llc_mb[socket] = llc[k];
            v.dram_demand_gbps[socket] = demand[k];
            v.dram_granted_gbps[socket] = dram.granted_gbps[k];
        }
        for (size_t k = 0; k < reqs.size(); ++k) {
            out.views[idx[k]].dram_stretch += dram.stretch * frac[k];
        }
    }
    for (TaskView& v : out.views) {
        if (v.dram_stretch < 1.0) v.dram_stretch = 1.0;
    }

    // HyperThreads: every other aggressive client at every cpu, queried
    // at the first two cpus (later cpus reuse the second value).
    std::vector<double> aggr(n), busy(n, 0.0);
    for (size_t o = 0; o < n; ++o) {
        aggr[o] = clients[o].client->HtAggression() - 1.0;
    }
    for (size_t c = 0; c < n; ++c) {
        if (clients[c].cpus.Empty()) {
            out.views[c].ht_penalty = 1.0;
            continue;
        }
        double total = 0.0;
        int n_cpus = 0;
        for (int cpu : ScanCpus(clients[c].cpus)) {
            double p = 1.0;
            const int sib = topo.SiblingOf(cpu);
            for (size_t o = 0; o < n; ++o) {
                if (o == c || aggr[o] <= 0.0) continue;
                if (n_cpus < 2) busy[o] = busy_of(o);
                if (sib >= 0 && clients[o].cpus.Contains(sib)) {
                    p += aggr[o] * busy[o];
                }
                if (clients[o].cpus.Contains(cpu)) {
                    p += 1.6 * aggr[o] * busy[o];
                }
            }
            total += p;
            ++n_cpus;
        }
        out.views[c].ht_penalty = total / n_cpus;
    }

    // Power and frequency.
    for (int socket = 0; socket < cfg.sockets; ++socket) {
        std::vector<CorePowerRequest> cores(cfg.cores_per_socket);
        for (size_t i = 0; i < n; ++i) {
            const RefClient& rc = clients[i];
            if (rc.cpus.Empty()) continue;
            const double b = busy_of(i);
            const double intensity = rc.client->PowerIntensity();
            for (int cpu : ScanCpus(ScanOnSocket(topo, rc.cpus, socket))) {
                auto& core = cores[topo.CoreOf(cpu) % cfg.cores_per_socket];
                const double add = b / cfg.threads_per_core;
                const double w_old = core.busy;
                core.busy = std::min(1.0, core.busy + add);
                const double w_new = core.busy - w_old;
                if (core.busy > 0.0) {
                    core.intensity =
                        (core.intensity * w_old + intensity * w_new) /
                        core.busy;
                }
                if (rc.freq_cap_ghz > 0.0) {
                    core.dvfs_cap_ghz =
                        core.dvfs_cap_ghz > 0.0
                            ? std::min(core.dvfs_cap_ghz, rc.freq_cap_ghz)
                            : rc.freq_cap_ghz;
                }
            }
        }
        const PowerOutcome pw = ResolvePower(cfg, cores);
        out.socket_power[socket] = pw.socket_power_w;
        for (size_t i = 0; i < n; ++i) {
            const CpuSet here = ScanOnSocket(topo, clients[i].cpus, socket);
            if (here.Empty()) continue;
            double f = 0.0;
            int k = 0;
            for (int cpu : ScanCpus(here)) {
                f += pw.freq_ghz[topo.CoreOf(cpu) % cfg.cores_per_socket];
                ++k;
            }
            const double w =
                static_cast<double>(k) / clients[i].cpus.Count();
            out.views[i].freq_ghz += w * (f / k);
        }
    }
    for (size_t i = 0; i < n; ++i) {
        if (!clients[i].cpus.Empty() && out.views[i].freq_ghz < cfg.min_ghz) {
            out.views[i].freq_ghz = cfg.min_ghz;
        }
    }

    // Telemetry queries every client once.
    for (size_t i = 0; i < n; ++i) busy_of(i);
    return out;
}

/** Asserts the machine's published state equals the reference. */
void
ExpectMatches(const Machine& m, const std::vector<RefClient>& clients,
              const RefOutcome& ref, const std::vector<int>& busy_log)
{
    const MachineConfig& cfg = m.config();
    const Topology& topo = m.topology();
    EXPECT_EQ(busy_log, ref.busy_log);
    for (int s = 0; s < cfg.sockets; ++s) {
        EXPECT_EQ(m.MeasuredDramGbps(s), ref.dram_granted[s]) << "socket " << s;
        EXPECT_EQ(m.MeasuredSocketPowerW(s), ref.socket_power[s])
            << "socket " << s;
    }
    for (size_t i = 0; i < clients.size(); ++i) {
        const FixedClient* c = clients[i].client;
        SCOPED_TRACE(c->name() + " cpus " + clients[i].cpus.ToString());
        const TaskView& v = m.ViewOf(c);
        const TaskView& r = ref.views[i];
        EXPECT_EQ(v.ht_penalty, r.ht_penalty);
        EXPECT_EQ(v.freq_ghz, r.freq_ghz);
        EXPECT_EQ(v.dram_stretch, r.dram_stretch);
        for (int s = 0; s < kMaxSockets; ++s) {
            EXPECT_EQ(v.llc_mb[s], r.llc_mb[s]) << "socket " << s;
            EXPECT_EQ(v.dram_demand_gbps[s], r.dram_demand_gbps[s])
                << "socket " << s;
            EXPECT_EQ(v.dram_granted_gbps[s], r.dram_granted_gbps[s])
                << "socket " << s;
        }
        for (int s = 0; s < cfg.sockets; ++s) {
            const CpuSet here = ScanOnSocket(topo, clients[i].cpus, s);
            EXPECT_EQ(m.CpuCountOn(c, s), here.Count()) << "socket " << s;
            EXPECT_EQ(m.CoreCountOn(c, s), ScanCoreCount(topo, here))
                << "socket " << s;
        }
    }
}

struct Shape {
    int sockets;
    int threads_per_core;
};

class MachineLayout : public ::testing::TestWithParam<Shape>
{
  protected:
    MachineConfig
    Config() const
    {
        MachineConfig cfg;
        cfg.sockets = GetParam().sockets;
        cfg.threads_per_core = GetParam().threads_per_core;
        cfg.counter_noise = 0.0;  // counters read back exactly
        cfg.seed = 7;
        return cfg;
    }
};

TEST_P(MachineLayout, BitScanAndSocketMasksMatchPerCpuScan)
{
    const MachineConfig cfg = Config();
    const Topology topo(cfg);
    sim::Rng rng(11 + cfg.sockets * 10 + cfg.threads_per_core);
    for (int iter = 0; iter < 300; ++iter) {
        CpuSet s = RandomSet(rng, kMaxCpus);
        if (rng.Bernoulli(0.3)) s.Add(63);
        if (rng.Bernoulli(0.3)) s.Add(64);
        if (rng.Bernoulli(0.3)) s.Add(kMaxCpus - 1);
        const std::vector<int> scan = ScanCpus(s);
        EXPECT_EQ(std::vector<int>(s.begin(), s.end()), scan);
        EXPECT_EQ(s.Count(), static_cast<int>(scan.size()));
        EXPECT_EQ(s.Empty(), scan.empty());

        const CpuSet on_machine = s.Intersect(topo.AllCpus());
        int total = 0;
        for (int socket = 0; socket < cfg.sockets; ++socket) {
            const CpuSet here = topo.OnSocket(on_machine, socket);
            EXPECT_EQ(here, ScanOnSocket(topo, on_machine, socket));
            total += here.Count();
        }
        EXPECT_EQ(total, on_machine.Count());
        EXPECT_EQ(topo.PhysicalCoreCount(on_machine),
                  ScanCoreCount(topo, on_machine));
    }
}

TEST_P(MachineLayout, CachedPhasesMatchPerCpuReference)
{
    const MachineConfig cfg = Config();
    const int n_cpus = cfg.LogicalCpus();
    sim::EventQueue queue;
    Machine m(cfg, queue);
    std::vector<int> busy_log;
    sim::Rng rng(1000 + cfg.sockets * 10 + cfg.threads_per_core);

    std::vector<std::unique_ptr<FixedClient>> owned;
    std::vector<RefClient> clients;  // registration order
    bool sharing = false;
    auto pick = [&]() -> RefClient& {
        return clients[rng.UniformInt(clients.size())];
    };

    for (int step = 0; step < 400; ++step) {
        const uint64_t op = clients.empty() ? 0 : rng.UniformInt(10);
        if (op == 0 || (op == 1 && clients.size() < 3)) {
            if (clients.size() >= 7) continue;
            owned.push_back(std::make_unique<FixedClient>(
                static_cast<int>(owned.size()), rng, &busy_log));
            m.AddClient(owned.back().get());
            RefClient rc;
            rc.client = owned.back().get();
            clients.push_back(rc);
        } else if (op == 1) {
            const size_t i = rng.UniformInt(clients.size());
            m.RemoveClient(clients[i].client);
            clients.erase(clients.begin() + static_cast<long>(i));
        } else if (op <= 5) {
            RefClient& rc = pick();
            CpuSet cpus = RandomSet(rng, n_cpus);
            if (!sharing) {
                for (const RefClient& other : clients) {
                    if (other.client != rc.client) {
                        cpus = cpus.Minus(other.cpus);
                    }
                }
            }
            m.AssignCpus(rc.client, cpus);
            rc.cpus = cpus;
        } else if (op == 6) {
            sharing = !sharing;
            m.AllowCpuSharing(sharing);
        } else if (op <= 8) {
            RefClient& rc = pick();
            const double ghz = rng.Bernoulli(0.3)
                                   ? 0.0
                                   : rng.Uniform(cfg.min_ghz, cfg.turbo_1c_ghz);
            m.SetFreqCapGhz(rc.client, ghz);
            rc.freq_cap_ghz = ghz;
        } else {
            // Keep the machine-wide sum within the socket's ways, so no
            // socket can be over-allocated wherever the clients sit.
            RefClient& rc = pick();
            int free_ways = cfg.llc_ways;
            for (const RefClient& other : clients) {
                if (other.client != rc.client) free_ways -= other.cat_ways;
            }
            const int ways = static_cast<int>(rng.UniformInt(free_ways + 1));
            m.SetCatWays(rc.client, ways);
            rc.cat_ways = ways;
        }

        // Resolve through either entry point: the explicit full resolve,
        // or the epoch timer (which skips demand phases nobody dirtied).
        busy_log.clear();
        if (rng.Bernoulli(0.5)) {
            m.ResolveNow();
        } else {
            queue.RunUntil(queue.Now() + cfg.epoch);
        }
        const std::vector<int> log = busy_log;
        ExpectMatches(m, clients, ReferenceResolve(cfg, clients), log);
        if (HasFailure()) FAIL() << "diverged at step " << step;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MachineLayout,
    ::testing::Values(Shape{1, 1}, Shape{1, 2}, Shape{2, 1}, Shape{2, 2},
                      Shape{4, 1}, Shape{4, 2}),
    [](const ::testing::TestParamInfo<Shape>& info) {
        return std::to_string(info.param.sockets) + "socket_" +
               std::to_string(info.param.threads_per_core) + "thread";
    });

}  // namespace
}  // namespace heracles::hw
