#include "sim/simulator.h"

#include <stdexcept>

namespace mwreg {

Simulator::~Simulator() {
  // Destroy closures of events that never ran (e.g. run_until stopped short).
  for (const HeapEntry& e : heap_) {
    EventRecord& rec = record(e.slot());
    rec.destroy(rec);
  }
}

std::uint32_t Simulator::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const std::uint32_t slot =
      static_cast<std::uint32_t>(chunks_.size() * kChunkRecords);
  // Enforced in every build type: past this, packed heap keys would alias
  // slots and dispatch the wrong closures. ~16M *concurrently pending*
  // events means a runaway scheduling loop, not a real workload.
  if (slot + kChunkRecords - 1 > kSlotMask) {
    throw std::length_error("Simulator: over 2^24 concurrently pending events");
  }
  chunks_.push_back(std::make_unique<Chunk>());
  ++alloc_stats_.slab_chunks;
  free_slots_.reserve(free_slots_.size() + kChunkRecords);
  // Hand out the chunk's first record; queue the rest (descending, so low
  // slots are reused first — purely cosmetic, order is invisible to runs).
  for (std::uint32_t i = kChunkRecords - 1; i >= 1; --i) {
    free_slots_.push_back(slot + i);
  }
  return slot;
}

// sift_up and pop_top move entries through a "hole" and write the displaced
// entry once at its final position instead of swapping at every level.

void Simulator::sift_up(std::size_t i) {
  const HeapEntry item = heap_[i];
  const Rank r = rank(item);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(r < rank(heap_[parent]))) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = item;
}

void Simulator::pop_top() {
  const std::size_t n = heap_.size() - 1;  // entries left after the pop
  if (n == 0) {
    heap_.pop_back();
    return;
  }
  HeapEntry* h = heap_.data();
  std::size_t i = 0;
  // Walk the hole down to a leaf, raising the smaller child each level.
  for (std::size_t c = 1; c < n; c = 2 * i + 1) {
    c += c + 1 < n && rank(h[c + 1]) < rank(h[c]);
    h[i] = h[c];
    i = c;
  }
  // The old last entry fills the hole and sifts up to its place.
  h[i] = h[n];
  heap_.pop_back();
  sift_up(i);
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  const HeapEntry top = heap_.front();
  pop_top();
  now_ = top.t;
  EventRecord& rec = record(top.slot());
  // The record stays put while its closure runs: nested schedule_at calls
  // can only grow the slab or consume free slots, never move live records.
  // The slot is recycled only after the closure is gone — run() invokes
  // and destroys it on the normal path; if the closure throws, the guard
  // destroys it during unwind (same as the old std::function engine) —
  // so re-entrant scheduling cannot overwrite a live closure and a
  // recycled slot never holds one.
  struct SlotGuard {
    Simulator* sim;
    EventRecord* rec;
    std::uint32_t slot;
    bool ran = false;
    ~SlotGuard() {
      if (!ran) rec->destroy(*rec);
      sim->free_slots_.push_back(slot);
    }
  } guard{this, &rec, top.slot()};
  rec.run(rec);
  guard.ran = true;
  ++executed_;
  return true;
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

std::size_t Simulator::run_until(Time deadline) {
  std::size_t n = 0;
  while (!heap_.empty() && heap_.front().t <= deadline) {
    step();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace mwreg
