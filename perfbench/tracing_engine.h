// A sim::Engine decorator for the benchmark's traced run.
//
// TracingEngine owns a plain sim::Simulator and forwards every call to it,
// wrapping each scheduled callback so that its host time and count are
// charged to the library layer that scheduled it. The layer is read from
// the callback's type: a lambda's demangled name starts with the function
// it was written in, so `hoplite::net::RackFabric::...::{lambda()#1}`
// belongs to `net`. Lambdas from core/ref.h live directly in namespace
// `hoplite` and count toward `core`.
//
// The decorator never changes what runs or when: the wrapped callback is
// scheduled at the same instant in the same order, so simulated results and
// event counts equal an untraced run's. `perturb_event` exists only so the
// benchmark's own tests can prove that the traced-vs-untraced check fails
// when that stops being true.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <typeindex>
#include <unordered_map>

#include "sim/engine.h"
#include "sim/simulator.h"

namespace perfbench {

/// The library layers callbacks are attributed to; kOther collects callback
/// types from anywhere else (the standard library, the benchmark itself).
enum class Layer { kSim, kNet, kDirectory, kStore, kCore, kWorkload, kQos, kOther };
inline constexpr int kNumLayers = 8;

[[nodiscard]] const char* LayerName(Layer layer);

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class TracingEngine final : public hoplite::sim::Engine {
 public:
  struct LayerStats {
    std::uint64_t events = 0;  ///< callbacks of this layer that ran
    double handler_s = 0;      ///< host time inside them, nested calls included
  };

  /// `perturb_event` > 0 delays the n-th scheduled event by 1 ms (tests only).
  explicit TracingEngine(std::uint64_t perturb_event = 0) : perturb_event_(perturb_event) {}

  [[nodiscard]] hoplite::SimTime Now() const override { return inner_.Now(); }
  hoplite::sim::EventId ScheduleAt(hoplite::SimTime t, Callback fn) override;
  hoplite::sim::EventId ScheduleAfter(hoplite::SimDuration delay, Callback fn) override {
    return ScheduleAt(inner_.Now() + delay, std::move(fn));
  }
  bool Cancel(hoplite::sim::EventId id) override;
  void Run() override;
  void RunUntil(hoplite::SimTime deadline) override;
  bool RunUntilPredicate(const std::function<bool()>& pred) override;
  [[nodiscard]] bool Idle() const override { return inner_.Idle(); }
  [[nodiscard]] std::uint64_t executed_events() const override {
    return inner_.executed_events();
  }

  [[nodiscard]] const LayerStats& stats(Layer layer) const {
    return stats_[static_cast<int>(layer)];
  }
  [[nodiscard]] std::uint64_t scheduled() const { return scheduled_; }
  [[nodiscard]] std::uint64_t cancelled() const { return cancelled_; }
  /// Host time spent inside Run / RunUntil / RunUntilPredicate.
  [[nodiscard]] double run_s() const { return run_s_; }

 private:
  Layer LayerOf(const std::type_info& type);

  hoplite::sim::Simulator inner_;
  std::array<LayerStats, kNumLayers> stats_{};
  std::unordered_map<std::type_index, Layer> layer_cache_;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  double run_s_ = 0;
  std::uint64_t perturb_event_ = 0;
};

}  // namespace perfbench
