// The one pending-event queue behind both simulation engines.
//
// sim::Simulator holds its events in one EventQueue; sim::ShardedSimulator
// holds one per shard. Events live in generation-stamped slots: the heap
// holds small plain records {time, key, slot, gen} while callbacks sit in a
// slot array indexed by the handle. Schedule, Cancel and the
// fired/cancelled test are O(1) array operations plus the heap push/pop.
// Cancel leaves a tombstone in the heap (lazy deletion): stale heads are
// dropped as they surface, and the whole heap is swept once tombstones
// outnumber half of it, so heavy cancel traffic cannot grow it without bound.
//
// The only parameter is the tie-break key that orders events at equal
// timestamps: the reference engine's FIFO sequence number, or the sharded
// engine's derived (parent_step, parent_domain, idx). Keys are unique within
// a queue, so the pop order is fully determined by (time, key) and never by
// heap layout or sweeps.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/audit.h"
#include "common/logging.h"
#include "common/units.h"
#include "sim/engine.h"

namespace hoplite::sim {

template <typename Key>
class EventQueue {
 public:
  /// A heap record: plain data only, so heap moves never touch a
  /// std::function.
  struct Record {
    SimTime time;
    Key key;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// The event Pop() removed, its callback moved out of the freed slot.
  struct Popped {
    SimTime time;
    std::uint32_t owner;
    Engine::Callback fn;
  };

  using OwnerCheck = std::function<void(std::uint32_t)>;

  /// Events between consecutive Audit() walks in an engine's run loop
  /// (power of two): the walk is O(slots + heap), so audit builds amortize it.
  static constexpr std::uint64_t kAuditPeriod = 1024;

  /// Adds `fn` (non-empty) at (t, key). `owner` is stamped on the slot and
  /// handed back by OwnerOf and Pop (the sharded engine's DomainId; unused
  /// otherwise).
  EventId Push(SimTime t, const Key& key, Engine::Callback fn, std::uint32_t owner = 0) {
    HOPLITE_CHECK(fn != nullptr);
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    Slot& s = slots_[slot];
    ++s.gen;  // gen 0 is reserved for the invalid handle; first use is gen 1
    s.owner = owner;
    s.fn = std::move(fn);
    heap_.push_back(Record{t, key, slot, s.gen});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return EventId{slot, s.gen};
  }

  /// Cancels a pending event; false for invalid, fired, cancelled or reused
  /// handles.
  bool Cancel(EventId id) {
    const Slot* s = Find(id);
    if (s == nullptr || !s->Live()) return false;
    Free(id.slot);
    ++stale_;
    if (stale_ > heap_.size() / 2) Sweep();
    return true;
  }

  /// The owner stamped on the event `id` names — pending or already gone —
  /// or nullopt when `id` names no event of this queue's current slots.
  [[nodiscard]] std::optional<std::uint32_t> OwnerOf(EventId id) const {
    const Slot* s = Find(id);
    if (s == nullptr) return std::nullopt;
    return s->owner;
  }

  /// Drops stale heads; returns the live head, or nullptr when no event is
  /// pending. The pointer is valid until the queue is next modified.
  const Record* Head() {
    while (!heap_.empty()) {
      if (IsLive(heap_.front())) return &heap_.front();
      PopRecord();
      --stale_;
    }
    return nullptr;
  }

  /// Removes the live head and frees its slot. Precondition: Head() just
  /// returned non-null.
  Popped Pop() {
    HOPLITE_AUDIT(IsLive(heap_.front())) << "Pop() on a stale head";
    const Record rec = PopRecord();
    Slot& s = slots_[rec.slot];
    Popped out{rec.time, s.owner, std::move(s.fn)};
    Free(rec.slot);
    return out;
  }

  /// Whether no live event is pending (tombstones do not count).
  [[nodiscard]] bool Empty() const noexcept { return heap_.size() == stale_; }
  /// Heap records, cancelled-but-unswept included.
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  /// Cancelled-but-unswept heap records.
  [[nodiscard]] std::size_t tombstones() const noexcept { return stale_; }

  /// Full slot/generation/heap consistency walk. Verifies that no live event
  /// sits behind `now`, that every live slot is referenced by exactly one
  /// current-generation heap record, that the tombstone count matches the
  /// heap, and that the free list holds exactly the non-live slots, each
  /// once. `check_owner`, if set, is called with every live event's owner.
  void Audit(SimTime now, const OwnerCheck& check_owner = nullptr) const {
    std::vector<std::uint32_t> live_refs(slots_.size(), 0);
    std::size_t stale_records = 0;
    for (const Record& rec : heap_) {
      if (!IsLive(rec)) {
        ++stale_records;
        continue;
      }
      HOPLITE_AUDIT(rec.time >= now) << "live event in slot " << rec.slot << " is behind now";
      ++live_refs[rec.slot];
      if (check_owner) check_owner(slots_[rec.slot].owner);
    }
    HOPLITE_AUDIT(stale_records == stale_)
        << "(" << stale_records << " stale heap records vs counter " << stale_ << ")";
    std::size_t live_slots = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const std::uint32_t expected = slots_[i].Live() ? 1 : 0;
      live_slots += expected;
      HOPLITE_AUDIT(live_refs[i] == expected)
          << "slot " << i << " has " << live_refs[i] << " live heap records";
    }
    HOPLITE_AUDIT(free_slots_.size() + live_slots == slots_.size())
        << "(" << free_slots_.size() << " free + " << live_slots << " live vs "
        << slots_.size() << " slots)";
    std::vector<bool> freed(slots_.size(), false);
    for (const std::uint32_t slot : free_slots_) {
      HOPLITE_AUDIT(slot < slots_.size());
      HOPLITE_AUDIT(!slots_[slot].Live()) << "live slot " << slot << " on the free list";
      HOPLITE_AUDIT(!freed[slot]) << "slot " << slot << " freed twice";
      freed[slot] = true;
    }
  }

 private:
  struct Slot {
    Engine::Callback fn;  ///< empty exactly while the slot holds no pending event
    std::uint32_t gen = 0;
    std::uint32_t owner = 0;

    [[nodiscard]] bool Live() const noexcept { return fn != nullptr; }
  };
  struct Later {
    // Max-heap comparator inverted into a min-heap by (time, key).
    [[nodiscard]] bool operator()(const Record& a, const Record& b) const noexcept {
      return a.time != b.time ? a.time > b.time : b.key < a.key;
    }
  };

  [[nodiscard]] const Slot* Find(EventId id) const {
    if (!id.IsValid() || id.slot >= slots_.size()) return nullptr;
    const Slot& s = slots_[id.slot];
    return s.gen == id.gen ? &s : nullptr;
  }
  [[nodiscard]] bool IsLive(const Record& rec) const {
    const Slot& s = slots_[rec.slot];
    return s.gen == rec.gen && s.Live();
  }
  void Free(std::uint32_t slot) {
    slots_[slot].fn = nullptr;
    free_slots_.push_back(slot);
  }
  Record PopRecord() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Record rec = heap_.back();
    heap_.pop_back();
    return rec;
  }
  /// Drops every tombstone from the heap.
  void Sweep() {
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [this](const Record& rec) { return !IsLive(rec); }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    stale_ = 0;
  }

  std::vector<Record> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t stale_ = 0;
};

}  // namespace hoplite::sim
