// Single-threaded discrete-event simulator.
//
// Events are (time, sequence, closure) triples executed in nondecreasing time
// order; ties break by insertion sequence so runs are fully deterministic.
// All asynchrony in the system (message delays, timers, client think time)
// is expressed as scheduled events.
//
// Hot-path layout: the ready queue is a flat binary heap of 16-byte
// (time, seq·slot) entries; the closures themselves live in slab-allocated
// event records with inline storage for the common capture sizes (a Message
// delivery capture fits), so scheduling and executing an event allocates
// nothing once the slab and heap have warmed up. Closures larger than the
// inline buffer spill to the heap and are counted in alloc_stats() — the
// allocation-regression test keeps the steady state at zero.
//
// Heap order compares one unsigned 128-bit rank per entry: the time with
// its sign bit flipped in the high half, the (seq << 24 | slot) key in the
// low half, so (t, seq) order is one branch-free compare for every Time.
// A pop walks the hole at the root down to a leaf along the smaller
// children (one compare per level), then sifts the old last entry up from
// there; it is usually near the bottom already, so this costs about half
// the compares of a top-down sift.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"

namespace mwreg {

class Simulator {
 public:
  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (clamped to now if in the past).
  /// `fn` is any void() callable; its captures are stored inline in the
  /// event slab when they fit (kInlineEventBytes), else heap-spilled.
  template <typename Fn>
  void schedule_at(Time t, Fn&& fn) {
    if (t < now_) t = now_;
    const std::uint32_t slot = emplace_closure(std::forward<Fn>(fn));
    heap_.push_back(HeapEntry{t, (next_seq_++ << kSlotBits) | slot});
    sift_up(heap_.size() - 1);
  }

  /// Schedule `fn` after `d` simulated nanoseconds.
  template <typename Fn>
  void schedule_after(Duration d, Fn&& fn) {
    schedule_at(now_ + d, std::forward<Fn>(fn));
  }

  // ---- batched-delivery support ----
  //
  // The batching network coalesces many frames into one delivery event but
  // must reproduce the per-event (time, seq) execution order exactly. It
  // does so by consuming one sequence number per frame via reserve_seq()
  // (identical seq arithmetic to scheduling one event per frame), pushing a
  // single event at the first frame's sequence with schedule_at_seq(), and
  // yielding back to the heap mid-batch whenever has_event_before() says an
  // intermediate event is due (rescheduling the remainder at the next
  // frame's reserved sequence). DESIGN.md section 8 gives the argument.

  /// Consume and return the next tie-break sequence number without pushing
  /// an event. Pair with schedule_at_seq().
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedule `fn` at absolute time `t` under a sequence number previously
  /// obtained from reserve_seq(). Each reserved sequence may be scheduled
  /// at most once (heap keys must stay unique).
  template <typename Fn>
  void schedule_at_seq(Time t, std::uint64_t seq, Fn&& fn) {
    if (t < now_) t = now_;
    const std::uint32_t slot = emplace_closure(std::forward<Fn>(fn));
    heap_.push_back(HeapEntry{t, (seq << kSlotBits) | slot});
    sift_up(heap_.size() - 1);
  }

  /// True when the earliest pending event orders strictly before (t, seq)
  /// under the (time, seq) tie-break. O(1): one peek at the heap top.
  [[nodiscard]] bool has_event_before(Time t, std::uint64_t seq) const {
    if (heap_.empty()) return false;
    const HeapEntry& top = heap_.front();
    return top.t != t ? top.t < t : (top.key >> kSlotBits) < seq;
  }

  /// Execute the next event. Returns false if the queue is empty.
  bool step();

  /// Run until no events remain. Returns the number of events executed.
  std::size_t run();

  /// Run until the queue is empty or virtual time would exceed `deadline`.
  /// Events at exactly `deadline` are executed; later events stay queued.
  std::size_t run_until(Time deadline);

  [[nodiscard]] bool idle() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Allocation counters for the engine itself. Steady-state operation —
  /// after the first events have warmed the slab — performs none: slots and
  /// heap capacity are recycled. tests/alloc_regression_test.cpp pins this.
  struct AllocStats {
    std::uint64_t slab_chunks = 0;  ///< event-record chunks ever allocated
    std::uint64_t heap_spills = 0;  ///< closures too large for inline storage
  };
  [[nodiscard]] const AllocStats& alloc_stats() const { return alloc_stats_; }
  /// Total engine allocations (chunks + spills), for regression asserts.
  [[nodiscard]] std::uint64_t allocations() const {
    return alloc_stats_.slab_chunks + alloc_stats_.heap_spills;
  }

  /// Inline capture budget: sized so a Network delivery closure
  /// (Message + send time + network pointer) stays inline.
  static constexpr std::size_t kInlineEventBytes = 88;

 private:
  /// Slot indices share a word with the tie-break sequence: seq lives in
  /// the high bits, so comparing keys orders by seq exactly (sequences are
  /// unique), and the entry stays 16 bytes for cache-friendly sifting.
  /// 2^24 slots bounds *concurrently pending* events at ~16M — enough for
  /// 10^6 table-driven clients each holding a think-timer plus an in-flight
  /// fan-out; 2^40 sequences bounds total events per simulator.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;

  struct HeapEntry {
    Time t;
    std::uint64_t key;  ///< (seq << kSlotBits) | slot
    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(key) & kSlotMask;
    }
  };

  /// Type-erased closure in a fixed slab slot. Records never move (the slab
  /// grows by whole chunks), so closures are constructed in place and run
  /// from the same address; no move support is needed. `run` invokes and
  /// then destroys in one indirect call (the execute hot path); `destroy`
  /// alone is for events that die unexecuted (~Simulator).
  struct EventRecord {
    void (*run)(EventRecord&) = nullptr;
    void (*destroy)(EventRecord&) = nullptr;
    void* spill = nullptr;  ///< heap fallback for oversized closures
    alignas(std::max_align_t) unsigned char storage[kInlineEventBytes];
  };

  static constexpr std::size_t kChunkRecords = 256;
  struct Chunk {
    EventRecord records[kChunkRecords];
  };

  template <typename F>
  std::uint32_t emplace_closure(F&& fn) {
    using Fn = std::decay_t<F>;
    const std::uint32_t slot = acquire_slot();
    EventRecord& rec = record(slot);
    if constexpr (sizeof(Fn) <= kInlineEventBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(rec.storage)) Fn(std::forward<F>(fn));
      rec.run = [](EventRecord& r) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(r.storage));
        (*f)();
        f->~Fn();
      };
      rec.destroy = [](EventRecord& r) {
        std::launder(reinterpret_cast<Fn*>(r.storage))->~Fn();
      };
    } else {
      rec.spill = new Fn(std::forward<F>(fn));
      ++alloc_stats_.heap_spills;
      rec.run = [](EventRecord& r) {
        Fn* f = static_cast<Fn*>(r.spill);
        (*f)();
        delete f;
        r.spill = nullptr;
      };
      rec.destroy = [](EventRecord& r) {
        delete static_cast<Fn*>(r.spill);
        r.spill = nullptr;
      };
    }
    return slot;
  }

  [[nodiscard]] EventRecord& record(std::uint32_t slot) {
    return chunks_[slot / kChunkRecords]->records[slot % kChunkRecords];
  }

  std::uint32_t acquire_slot();
  void sift_up(std::size_t i);
  void pop_top();

  /// Min-heap order: earliest (time, seq) at heap_[0]. The rank puts the
  /// time, sign bit flipped so negative times order first, above the key;
  /// key order is sequence order (seq occupies its high bits and is unique).
  __extension__ using Rank = unsigned __int128;
  static Rank rank(const HeapEntry& e) {
    return (static_cast<Rank>(static_cast<std::uint64_t>(e.t) ^ (1ULL << 63))
            << 64) |
           e.key;
  }

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::uint32_t> free_slots_;
  AllocStats alloc_stats_;
};

}  // namespace mwreg
