#include "workloads.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "common/ids.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "core/client.h"
#include "core/cluster.h"
#include "core/ref.h"
#include "store/buffer.h"
#include "store/local_store.h"
#include "workload/backend.h"
#include "workload/driver.h"
#include "workload/scenario.h"
#include "workload/scenarios.h"

namespace perfbench {

using hoplite::KB;
using hoplite::MB;
using hoplite::NodeID;
using hoplite::ObjectID;
using hoplite::Ref;
using hoplite::RefPromise;
using hoplite::SimTime;
using hoplite::Unit;
namespace core = hoplite::core;
namespace store = hoplite::store;
namespace wl = hoplite::workload;

namespace {

/// FNV-1a over a stream of integers: the pass's simulated outputs.
class Digest {
 public:
  void Add(std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      const std::uint64_t byte = (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xff;
      hash_ = (hash_ ^ byte) * 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Wire time of `bytes` at the paper fabric's NIC rate: the denominator of
/// an op's slowdown.
double WireSeconds(std::int64_t bytes) {
  return hoplite::ToSeconds(
      hoplite::TransferTime(bytes, hoplite::net::ClusterConfig{}.nic_bandwidth));
}

/// The store counters of a cluster the benchmark owns, as the library's
/// Hoplite backend reports them.
wl::StoreHighWater StoreHighWaterOf(core::HopliteCluster& cluster) {
  wl::StoreHighWater hw;
  for (NodeID n = 0; n < cluster.num_nodes(); ++n) {
    const store::LocalStore& st = cluster.store(n);
    hw.evictions += st.evictions();
    hw.peak_used_bytes = std::max(hw.peak_used_bytes, st.peak_used_bytes());
    hw.final_used_bytes += st.used_bytes();
    hw.hits += st.hits();
    hw.misses += st.misses();
  }
  hw.coalesced_attaches = cluster.directory().interest_stats().attaches;
  return hw;
}

void AddStoreCounters(const wl::StoreHighWater& hw, LayerCounters& c) {
  c.store_hits += hw.hits;
  c.store_misses += hw.misses;
  c.store_evictions += hw.evictions;
  c.store_peak_used_bytes = std::max(c.store_peak_used_bytes, hw.peak_used_bytes);
  c.coalesce_attaches += hw.coalesced_attaches;
}

/// Counters only a cluster the benchmark owns can show.
void AddClusterCounters(core::HopliteCluster& cluster, LayerCounters& c) {
  for (NodeID n = 0; n < cluster.num_nodes(); ++n) {
    c.net_bytes += cluster.network().TrafficOf(n).bytes_sent;
    c.net_messages += cluster.network().TrafficOf(n).messages_sent;
  }
  c.directory_ops += cluster.directory().ops_served();
}

void AddTracerStats(const TracingEngine& tracer, PassResult& r) {
  for (int l = 0; l < kNumLayers; ++l) {
    r.layers[l].events += tracer.stats(static_cast<Layer>(l)).events;
    r.layers[l].handler_s += tracer.stats(static_cast<Layer>(l)).handler_s;
  }
  r.scheduled += tracer.scheduled();
  r.cancelled += tracer.cancelled();
  r.run_s += tracer.run_s();
}

const ObjectID kNeverProduced = ObjectID::FromName("perfbench-never-produced");

// ----------------------------------------------------------------------
// collective-4096: broadcast, reduce and allreduce on fresh flat clusters.
// ----------------------------------------------------------------------

PassResult RunCollectives(const PassOptions& o) {
  const int nodes = o.tiny ? 16 : 4096;
  const std::int64_t bytes = o.tiny ? MB(1) : MB(32);
  constexpr std::array<const char*, 3> kNames = {"bcast", "reduce", "allreduce"};
  PassResult r;
  Digest digest;

  // The op plan: the seed picks each collective's root and object id.
  Clock::time_point start = Clock::now();
  struct Planned {
    NodeID root;
    ObjectID id;
  };
  std::array<Planned, 3> plan{};
  hoplite::Rng rng(o.seed);
  for (Planned& p : plan) {
    p.root = static_cast<NodeID>(rng.NextBounded(static_cast<std::uint64_t>(nodes)));
    const auto index = static_cast<std::int64_t>(rng.NextU64() >> 1);
    p.id = ObjectID::FromName("perfbench").WithIndex(index);
  }
  r.trace_build_s = SecondsSince(start);
  // Reads: every non-root receiver, the root's result, every participant.
  r.planned =
      static_cast<std::uint64_t>((nodes - 1) + 1 + nodes + (o.inject_unsettled ? 1 : 0));

  for (std::size_t k = 0; k < plan.size(); ++k) {
    const Planned& p = plan[k];
    std::optional<TracingEngine> tracer;
    core::HopliteCluster::Options options;
    options.network.num_nodes = nodes;
    if (o.traced) options.engine = &tracer.emplace(o.perturb_event);

    start = Clock::now();
    core::HopliteCluster cluster(options);
    r.cluster_build_s += SecondsSince(start);

    start = Clock::now();
    const core::GetOptions read{.read_only = true};
    std::vector<Ref<store::Buffer>> reads;
    if (k == 0) {
      cluster.client(p.root).Put(p.id, store::Buffer::OfSize(bytes));
      for (NodeID n = 0; n < nodes; ++n) {
        if (n != p.root) reads.push_back(cluster.client(n).Get(p.id, read));
      }
      if (o.inject_unsettled) {
        reads.push_back(cluster.client(p.root).Get(kNeverProduced, read));
      }
    } else {
      core::ReduceSpec spec;
      spec.target = p.id;
      for (NodeID n = 0; n < nodes; ++n) {
        spec.sources.push_back(p.id.WithIndex(n + 1));
        cluster.client(n).Put(spec.sources.back(), store::Buffer::OfSize(bytes));
      }
      cluster.client(p.root).Reduce(std::move(spec));
      for (NodeID n = 0; n < nodes; ++n) {
        if (k == 2 || n == p.root) reads.push_back(cluster.client(n).Get(p.id, read));
      }
    }
    std::vector<SimTime> settled_at(reads.size(), -1);
    for (std::size_t i = 0; i < reads.size(); ++i) {
      reads[i].OnSettled([&settled_at, &cluster, i](const Ref<store::Buffer>&) {
        settled_at[i] = cluster.Now();
      });
    }
    r.issue_s += SecondsSince(start);
    cluster.RunAll();
    r.wall_s += SecondsSince(start);

    SimTime last = 0;
    for (std::size_t i = 0; i < reads.size(); ++i) {
      ++r.attempted;
      digest.Add(settled_at[i]);
      digest.Add(reads[i].ready());
      if (settled_at[i] < 0) {
        ++r.unsettled;
        continue;
      }
      if (reads[i].failed()) {
        ++r.failed;
        continue;
      }
      ++r.ok;
      if (reads[i].value().size() != bytes) ++r.bad_payloads;
      last = std::max(last, settled_at[i]);
      r.slowdowns.push_back(hoplite::ToSeconds(settled_at[i]) / WireSeconds(bytes));
    }
    r.sim.push_back({std::string("sim_") + kNames[k] + "_s", hoplite::ToSeconds(last), "s"});
    r.events += cluster.simulator().executed_events();
    AddStoreCounters(StoreHighWaterOf(cluster), r.counters);
    AddClusterCounters(cluster, r.counters);
    if (tracer) AddTracerStats(*tracer, r);
  }
  for (const std::int64_t v :
       {static_cast<std::int64_t>(r.events), r.counters.net_bytes,
        static_cast<std::int64_t>(r.counters.net_messages),
        static_cast<std::int64_t>(r.counters.directory_ops),
        static_cast<std::int64_t>(r.counters.store_hits),
        static_cast<std::int64_t>(r.counters.store_misses),
        static_cast<std::int64_t>(r.counters.store_evictions)}) {
    digest.Add(v);
  }
  r.digest = digest.value();
  return r;
}

// ----------------------------------------------------------------------
// The scenario workloads, replayed through the workload driver.
// ----------------------------------------------------------------------

/// Collapses a typed completion ref to the driver's Unit currency,
/// preserving failure (as the library's Hoplite backend does).
template <typename T>
Ref<Unit> ToUnit(hoplite::sim::Engine& sim, ObjectID id, const Ref<T>& done) {
  RefPromise<Unit> promise(&sim, id);
  done.OnSettled([promise](const Ref<T>& settled) {
    if (settled.failed()) {
      promise.Reject(settled.error());
    } else {
      promise.Resolve(Unit{});
    }
  });
  return promise.ref();
}

/// The library's Hoplite WorkloadBackend, rebuilt on a TracingEngine for the
/// ops these scenarios issue (Gets and broadcasts). Its Issue makes the same
/// client calls in the same order, so replaying a trace through it executes
/// the same events; it also times the issue calls and checks every payload
/// it reads.
class TracedHopliteBackend final : public wl::WorkloadBackend {
 public:
  TracedHopliteBackend(const wl::ScenarioSpec& spec, std::uint64_t perturb_event)
      : tracer_(perturb_event), cluster_(Options(spec, tracer_)) {
    HOPLITE_CHECK(spec.faults.empty()) << "the traced backend has no failure model";
  }

  [[nodiscard]] const char* name() const override { return "Hoplite-traced"; }
  [[nodiscard]] hoplite::sim::Engine& simulator() override { return tracer_; }

  [[nodiscard]] Ref<Unit> Issue(const wl::WorkloadOp& op) override {
    const Clock::time_point start = Clock::now();
    const hoplite::qos::TenantId tenant = static_cast<hoplite::qos::TenantId>(op.tenant);
    const core::GetOptions read{
        .read_only = true, .timeout = op.get_timeout, .tenant = tenant};
    Ref<Unit> done;
    if (op.kind == wl::OpKind::kGet) {
      if (op.fresh) {
        cluster_.client(op.peers.at(0)).Put(op.id, store::Buffer::OfSize(op.bytes), tenant);
      }
      done = ToUnit(tracer_, op.id, Checked(cluster_.client(op.home).Get(op.id, read), op));
    } else {
      HOPLITE_CHECK(op.kind == wl::OpKind::kBroadcast) << wl::OpKindName(op.kind);
      cluster_.client(op.home).Put(op.id, store::Buffer::OfSize(op.bytes), tenant);
      std::vector<Ref<store::Buffer>> gets;
      gets.reserve(op.peers.size());
      for (const NodeID peer : op.peers) {
        gets.push_back(Checked(cluster_.client(peer).Get(op.id, read), op));
      }
      done = AllOk(op.id, gets);
    }
    if (op.fresh && op.delete_after) {
      // The serving loop's garbage collection, as the library backend does it.
      done.OnSettled([this, home = op.home, id = op.id](const Ref<Unit>&) {
        if (cluster_.IsAlive(home)) cluster_.client(home).Delete(id);
      });
    }
    issue_s_ += SecondsSince(start);
    return done;
  }

  [[nodiscard]] wl::StoreHighWater store_high_water() override {
    return StoreHighWaterOf(cluster_);
  }

  [[nodiscard]] core::HopliteCluster& cluster() { return cluster_; }
  [[nodiscard]] const TracingEngine& tracer() const { return tracer_; }
  [[nodiscard]] double issue_s() const { return issue_s_; }
  [[nodiscard]] std::uint64_t bad_payloads() const { return *bad_payloads_; }

 private:
  static core::HopliteCluster::Options Options(const wl::ScenarioSpec& spec,
                                               TracingEngine& engine) {
    core::HopliteCluster::Options options;
    options.network.num_nodes = spec.num_nodes;
    options.network.fabric = spec.fabric;
    options.network.cache = spec.cache;
    options.network.qos = spec.qos;
    options.store_capacity_bytes = spec.store_capacity_bytes;
    options.engine = &engine;
    return options;
  }

  /// Counts a completed read whose payload is not the op's size. Observes
  /// without scheduling, so the event stream is unchanged.
  Ref<store::Buffer> Checked(Ref<store::Buffer> read, const wl::WorkloadOp& op) {
    read.OnSettled([bad = bad_payloads_, bytes = op.bytes](const Ref<store::Buffer>& got) {
      if (got.ready() && got.value().size() != bytes) ++*bad;
    });
    return read;
  }

  Ref<Unit> AllOk(ObjectID id, const std::vector<Ref<store::Buffer>>& refs) {
    RefPromise<Unit> promise(&tracer_, id);
    hoplite::WhenAllSettled(refs).Then(
        [promise](const std::vector<hoplite::Settled<store::Buffer>>& outcomes) {
          for (const auto& outcome : outcomes) {
            if (!outcome.ok) {
              promise.Reject(outcome.error);
              return;
            }
          }
          promise.Resolve(Unit{});
        });
    return promise.ref();
  }

  TracingEngine tracer_;
  core::HopliteCluster cluster_;
  double issue_s_ = 0;
  std::shared_ptr<std::uint64_t> bad_payloads_ = std::make_shared<std::uint64_t>(0);
};

struct ScenarioWorkload {
  const char* scenario;
  int nodes;
  double load_scale;
  hoplite::SimDuration horizon;
  std::int64_t store_capacity;
  bool wfq;
  /// Ops of tenant 0 (the aggressor) are not latency-measured.
  bool victims_only;
};

ScenarioWorkload ScenarioFor(const PassOptions& o) {
  using hoplite::Milliseconds;
  using hoplite::Seconds;
  if (o.workload == "zipf-evict") {
    return o.tiny
               ? ScenarioWorkload{"zipf-serving", 8, 1.0, Seconds(1), MB(2), false, false}
               : ScenarioWorkload{"zipf-serving", 64, 4.0, Seconds(40), MB(16), false, false};
  }
  return o.tiny ? ScenarioWorkload{"misbehaving-tenant", 8, 1.5, Milliseconds(500), 0, true,
                                   true}
                : ScenarioWorkload{"misbehaving-tenant", 16, 1.5, Seconds(40), 0, true, true};
}

PassResult RunScenarioPass(const PassOptions& o) {
  const ScenarioWorkload w = ScenarioFor(o);
  PassResult r;

  Clock::time_point start = Clock::now();
  wl::ScenarioTuning tuning;
  tuning.num_nodes = w.nodes;
  tuning.load_scale = w.load_scale;
  tuning.horizon = w.horizon;
  tuning.seed = o.seed;
  wl::ScenarioSpec spec = wl::BuildScenario(w.scenario, tuning);
  spec.store_capacity_bytes = w.store_capacity;
  spec.cache.policy = hoplite::cache::EvictionPolicyKind::kLru;
  spec.cache.coalescing = false;
  spec.qos.wfq = w.wfq;
  spec.qos.aqm = false;
  spec.qos.admission = false;
  wl::WorkloadTrace trace = wl::BuildTrace(spec);
  if (o.inject_unsettled) {
    wl::WorkloadOp never;
    never.kind = wl::OpKind::kGet;
    never.bytes = KB(128);
    never.peers = {1};
    never.id = kNeverProduced;
    never.fresh = false;
    never.delete_after = false;
    trace.ops.insert(trace.ops.begin(), never);
  }
  r.trace_build_s = SecondsSince(start);

  wl::LoadReport report;
  wl::StoreHighWater hw;
  if (o.traced) {
    start = Clock::now();
    TracedHopliteBackend backend(spec, o.perturb_event);
    r.cluster_build_s = SecondsSince(start);
    start = Clock::now();
    report = wl::RunTrace(trace, backend);
    r.wall_s = SecondsSince(start);
    r.issue_s = backend.issue_s();
    r.bad_payloads = backend.bad_payloads();
    r.events = backend.tracer().executed_events();
    hw = backend.store_high_water();
    AddClusterCounters(backend.cluster(), r.counters);
    AddTracerStats(backend.tracer(), r);
  } else {
    start = Clock::now();
    const std::unique_ptr<wl::WorkloadBackend> backend =
        wl::MakeBackend(wl::BackendKind::kHoplite, spec);
    r.cluster_build_s = SecondsSince(start);
    start = Clock::now();
    report = wl::RunTrace(trace, *backend);
    r.wall_s = SecondsSince(start);
    r.events = backend->simulator().executed_events();
    hw = backend->store_high_water();
  }
  r.planned = trace.ops.size();
  r.attempted = report.ops.size();
  r.ok = report.total.completed;
  r.failed = report.total.failed;
  r.unsettled = report.total.unsettled;
  AddStoreCounters(hw, r.counters);

  Digest digest;
  std::vector<double> measured_ms;
  std::vector<double> aggressor_ms;
  std::uint64_t victim_ops = 0;
  std::uint64_t victim_in_slo = 0;
  for (std::size_t i = 0; i < report.ops.size(); ++i) {
    const wl::OpOutcome& out = report.ops[i];
    const wl::WorkloadOp& op = trace.ops[i];
    for (const std::int64_t v :
         {static_cast<std::int64_t>(out.tenant), out.bytes, out.issued_at, out.settled_at,
          static_cast<std::int64_t>(out.ok), static_cast<std::int64_t>(out.error)}) {
      digest.Add(v);
    }
    const bool measured = !w.victims_only || out.tenant != 0;
    if (measured && w.victims_only) ++victim_ops;
    if (!out.settled() || !out.ok) continue;
    const double latency_s = out.latency_s();
    if (!measured) {
      aggressor_ms.push_back(latency_s * 1e3);
      continue;
    }
    measured_ms.push_back(latency_s * 1e3);
    r.slowdowns.push_back(latency_s / WireSeconds(op.bytes));
    const bool in_slo =
        op.get_timeout > 0 && out.settled_at - out.issued_at <= op.get_timeout;
    if (w.victims_only && in_slo) ++victim_in_slo;
  }
  for (const std::int64_t v :
       {report.end_time, static_cast<std::int64_t>(report.all_settled),
        static_cast<std::int64_t>(r.events), static_cast<std::int64_t>(hw.hits),
        static_cast<std::int64_t>(hw.misses), static_cast<std::int64_t>(hw.evictions),
        hw.peak_used_bytes, hw.final_used_bytes, hw.coalesced_attaches}) {
    digest.Add(v);
  }
  r.digest = digest.value();

  const auto pct = [](const std::vector<double>& xs, double p) {
    return xs.empty() ? 0.0 : hoplite::Percentile(xs, p);
  };
  if (w.victims_only) {
    const double slo = victim_ops == 0 ? 0.0
                                       : static_cast<double>(victim_in_slo) /
                                             static_cast<double>(victim_ops);
    r.sim.push_back({"victim_p99_ms", pct(measured_ms, 99), "ms"});
    r.sim.push_back({"victim_slo_frac", slo, "ratio"});
    r.sim.push_back({"bcast_p50_ms", pct(aggressor_ms, 50), "ms"});
  } else {
    r.sim.push_back({"get_p50_ms", pct(measured_ms, 50), "ms"});
    r.sim.push_back({"get_p99_ms", pct(measured_ms, 99), "ms"});
  }
  return r;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "collective-4096" || name == "zipf-evict" || name == "uplink-contention";
}

PassResult RunPass(const PassOptions& options) {
  HOPLITE_CHECK(IsWorkload(options.workload)) << options.workload;
  return options.workload == "collective-4096" ? RunCollectives(options)
                                               : RunScenarioPass(options);
}

}  // namespace perfbench
