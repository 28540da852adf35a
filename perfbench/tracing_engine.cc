#include "tracing_engine.h"

#include <cxxabi.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace perfbench {

namespace {

constexpr std::array<const char*, kNumLayers> kLayerNames = {
    "sim", "net", "directory", "store", "core", "workload", "qos", "other"};

/// src/ modules that are not reported as layers of their own.
constexpr std::array<std::string_view, 5> kUnlistedModules = {"apps", "baselines", "cache",
                                                              "common", "task"};

std::string Demangle(const char* mangled) {
  int status = 0;
  const std::unique_ptr<char, decltype(&std::free)> out(
      abi::__cxa_demangle(mangled, nullptr, nullptr, &status), &std::free);
  return status == 0 && out != nullptr ? std::string(out.get()) : std::string(mangled);
}

/// The qualified name of the entity a type name starts with: for a lambda,
/// the function it was written in. A leading return type (template
/// functions demangle with one) is skipped, and the scan stops at that
/// function's parameter list, so namespaces that only appear in parameter
/// types are never mistaken for the owner.
std::string_view OwnerName(std::string_view name) {
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (c == '<') ++depth;
    if (c == '>' && depth > 0) --depth;
    if (depth != 0) continue;
    if (c == ' ') start = i + 1;
    if (c == '(') return name.substr(start, i - start);
  }
  return name.substr(start);
}

/// Attributes a demangled callback type name to a layer.
Layer LayerOfTypeName(std::string name) {
  // "(anonymous namespace)" would end the owner scan at its parenthesis.
  constexpr std::string_view kAnon = "(anonymous namespace)::";
  for (std::size_t at = name.find(kAnon); at != std::string::npos; at = name.find(kAnon)) {
    name.erase(at, kAnon.size());
  }
  std::string_view owner = OwnerName(name);
  constexpr std::string_view kRoot = "hoplite::";
  if (owner.substr(0, kRoot.size()) != kRoot) return Layer::kOther;
  owner.remove_prefix(kRoot.size());
  const std::string_view module = owner.substr(0, owner.find_first_of(":<"));
  for (int l = 0; l < kNumLayers - 1; ++l) {
    if (module == kLayerNames[l]) return static_cast<Layer>(l);
  }
  for (const std::string_view unlisted : kUnlistedModules) {
    if (module == unlisted) return Layer::kOther;
  }
  // Declared directly in namespace hoplite: the Ref combinators of core/ref.h.
  return Layer::kCore;
}

}  // namespace

const char* LayerName(Layer layer) { return kLayerNames[static_cast<int>(layer)]; }

Layer TracingEngine::LayerOf(const std::type_info& type) {
  const auto [it, inserted] = layer_cache_.try_emplace(std::type_index(type), Layer::kOther);
  if (inserted) it->second = LayerOfTypeName(Demangle(type.name()));
  return it->second;
}

hoplite::sim::EventId TracingEngine::ScheduleAt(hoplite::SimTime t, Callback fn) {
  LayerStats* stats = &stats_[static_cast<int>(LayerOf(fn.target_type()))];
  if (++scheduled_ == perturb_event_) t += hoplite::Milliseconds(1);
  return inner_.ScheduleAt(t, [stats, fn = std::move(fn)] {
    const Clock::time_point start = Clock::now();
    fn();
    stats->handler_s += SecondsSince(start);
    ++stats->events;
  });
}

bool TracingEngine::Cancel(hoplite::sim::EventId id) {
  const bool cancelled = inner_.Cancel(id);
  if (cancelled) ++cancelled_;
  return cancelled;
}

void TracingEngine::Run() {
  const Clock::time_point start = Clock::now();
  inner_.Run();
  run_s_ += SecondsSince(start);
}

void TracingEngine::RunUntil(hoplite::SimTime deadline) {
  const Clock::time_point start = Clock::now();
  inner_.RunUntil(deadline);
  run_s_ += SecondsSince(start);
}

bool TracingEngine::RunUntilPredicate(const std::function<bool()>& pred) {
  const Clock::time_point start = Clock::now();
  const bool held = inner_.RunUntilPredicate(pred);
  run_s_ += SecondsSince(start);
  return held;
}

}  // namespace perfbench
