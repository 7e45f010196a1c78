#include "sim/simulator.h"

#include <algorithm>
#include <stdexcept>

namespace mwreg {

Simulator::~Simulator() {
  // Destroy closures of events that never ran (e.g. run_until stopped short).
  for (std::size_t i = 0; i < heap_size_; ++i) {
    unsigned char* rec = record(heap_[i].slot());
    head(rec).destroy(rec + kCaptureOffset);
  }
}

std::uint32_t Simulator::acquire_slot(unsigned cls) {
  std::vector<std::uint32_t>& free = free_slots_[cls];
  if (!free.empty()) {
    const std::uint32_t slot = free.back();
    free.pop_back();
    return slot;
  }
  std::vector<std::unique_ptr<unsigned char[]>>& chunks = chunks_[cls];
  const auto index = static_cast<std::uint32_t>(chunks.size() * kChunkRecords);
  // Enforced in every build type: past this, packed heap keys would alias
  // slots and dispatch the wrong closures. ~8M *concurrently pending*
  // events of one class means a runaway scheduling loop, not a real
  // workload.
  if (index + kChunkRecords - 1 > kIndexMask) {
    throw std::length_error(
        "Simulator: over 2^23 concurrently pending events of one record size");
  }
  // operator new[] aligns to __STDCPP_DEFAULT_NEW_ALIGNMENT__, which the
  // captures' max_align_t alignment needs.
  chunks.emplace_back(new unsigned char[kChunkRecords << (6 + cls)]);
  ++(cls == 0 ? alloc_stats_.small_chunks : alloc_stats_.large_chunks);
  free.reserve(free.size() + kChunkRecords);
  const std::uint32_t slot = index | (cls << kClassShift);
  // Hand out the chunk's first record; queue the rest (descending, so low
  // slots are reused first — purely cosmetic, order is invisible to runs).
  for (std::uint32_t i = kChunkRecords - 1; i >= 1; --i) {
    free.push_back(slot + i);
  }
  return slot;
}

// sift_up and pop_top move entries through a "hole" and write the displaced
// entry once at its final position instead of swapping at every level.

void Simulator::push_entry(Time t, std::uint64_t key) {
  if (heap_size_ == heap_cap_) {
    grow_heap_and_push(t, key);
    return;
  }
  // sift_up's loop on (t, key) in registers; the entry is written once, at
  // its place, with t rebuilt from the rank word so t itself need not
  // stay live.
  HeapEntry* h = heap_.get();
  std::size_t i = heap_size_++;
  const Rank r = rank(HeapEntry(t, key));
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(r < rank(h[parent]))) break;
    h[i] = h[parent];
    i = parent;
  }
  ::new (static_cast<void*>(h + i)) HeapEntry(
      static_cast<Time>(static_cast<std::uint64_t>(r >> 64) ^ (1ULL << 63)),
      key);
}

// Out of line, cold and reached by a tail call: with the reallocation
// inlined, or with (t, key) live across a call, every push_entry would
// save and restore registers it does not otherwise need.
[[gnu::noinline, gnu::cold]] void Simulator::grow_heap_and_push(
    Time t, std::uint64_t key) {
  const std::size_t cap = std::max<std::size_t>(64, 2 * heap_cap_);
  std::unique_ptr<HeapEntry[]> grown(new HeapEntry[cap]);
  std::copy(heap_.get(), heap_.get() + heap_size_, grown.get());
  heap_ = std::move(grown);
  heap_cap_ = cap;
  push_entry(t, key);
}

void Simulator::sift_up(std::size_t i) {
  HeapEntry* h = heap_.get();
  const HeapEntry item = h[i];
  const Rank r = rank(item);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(r < rank(h[parent]))) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = item;
}

void Simulator::pop_top() {
  const std::size_t n = --heap_size_;  // entries left after the pop
  if (n == 0) return;
  HeapEntry* h = heap_.get();
  std::size_t i = 0;
  // Walk the hole down to a leaf, raising the smaller child each level.
  for (std::size_t c = 1; c < n; c = 2 * i + 1) {
    c += c + 1 < n && rank(h[c + 1]) < rank(h[c]);
    h[i] = h[c];
    i = c;
  }
  // The old last entry fills the hole and sifts up to its place.
  h[i] = h[n];
  sift_up(i);
}

bool Simulator::step() {
  if (heap_size_ == 0) return false;
  const HeapEntry top = heap_[0];
  pop_top();
  now_ = top.t;
  unsigned char* rec = record(top.slot());
  // The record stays put while its closure runs: nested schedule_at calls
  // can only grow a slab or consume free slots, never move live records.
  // The slot is recycled only after the closure is gone — run invokes and
  // destroys it on the normal path; if the closure throws, the guard
  // destroys it during unwind (same as the old std::function engine) — so
  // re-entrant scheduling cannot overwrite a live closure and a recycled
  // slot never holds one.
  struct SlotGuard {
    Simulator* sim;
    unsigned char* rec;
    std::uint32_t slot;
    bool ran = false;
    ~SlotGuard() {
      if (!ran) head(rec).destroy(rec + kCaptureOffset);
      sim->free_slots_[slot >> kClassShift].push_back(slot);
    }
  } guard{this, rec, top.slot()};
  head(rec).run(rec + kCaptureOffset);
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
  while (heap_size_ != 0 && heap_[0].t <= deadline) {
    step();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace mwreg
