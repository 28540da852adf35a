// The benchmark's three workloads, each run as one "pass": build the world,
// drive it to quiescence, check and summarize what it computed.
//
// A pass runs either untraced, on the library's own engine and (for the
// scenarios) its own WorkloadBackend, or traced, on a TracingEngine passed
// in through HopliteCluster::Options::engine. Both produce the same
// PassResult; `digest` covers every simulated output and count, so equal
// digests mean the two runs computed the same thing.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "tracing_engine.h"

namespace perfbench {

struct PassOptions {
  std::string workload;  ///< collective-4096 | zipf-evict | uplink-contention
  std::uint64_t seed = 1;
  bool tiny = false;     ///< test scale: small clusters, short horizons
  bool traced = false;
  /// Test hooks: delay the n-th scheduled event of a traced pass by 1 ms;
  /// add one op that can never settle (a Get of an object nobody puts).
  std::uint64_t perturb_event = 0;
  bool inject_unsettled = false;
};

/// Per-layer work counts the library exposes through its public accessors.
/// A scenario's untraced pass sees only the store and coalescing counters
/// (its cluster is private to the library's backend).
struct LayerCounters {
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
  std::uint64_t store_evictions = 0;
  std::int64_t store_peak_used_bytes = 0;
  std::uint64_t directory_ops = 0;
  std::int64_t coalesce_attaches = 0;
  std::int64_t net_bytes = 0;
  std::uint64_t net_messages = 0;
};

struct PassResult {
  // Host time.
  double cluster_build_s = 0;
  double trace_build_s = 0;  ///< the op plan: scenario trace or collective roots/ids
  double issue_s = 0;        ///< inside client / backend issue calls (traced scenarios)
  double wall_s = 0;         ///< issue + drive to quiescence

  // Op accounting: every planned op is attempted, and is then ok, failed or
  // unsettled.
  std::uint64_t planned = 0;  ///< ops the inputs define
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t unsettled = 0;
  std::uint64_t bad_payloads = 0;  ///< completed reads whose size != the op's

  /// Simulated latency / payload wire time at the NIC rate, for each
  /// completed measured op.
  std::vector<double> slowdowns;
  /// Headline simulated results, printed for people.
  struct Headline {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Headline> sim;

  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  LayerCounters counters;

  // Traced passes only.
  std::array<TracingEngine::LayerStats, kNumLayers> layers{};
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  double run_s = 0;

  [[nodiscard]] double setup_s() const { return cluster_build_s + trace_build_s; }
};

[[nodiscard]] bool IsWorkload(const std::string& name);
[[nodiscard]] PassResult RunPass(const PassOptions& options);

}  // namespace perfbench
