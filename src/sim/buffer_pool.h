// Recycled byte buffers for message payloads.
//
// The network copies a payload into a pooled buffer in two places only:
// every message of the per-message delivery lane, and a frame parked on a
// blocked link in either lane (the batched lane otherwise keeps payloads
// in batch chunks and event records). The pool keeps released buffers and
// hands them back cleared with their old capacity, so steady-state
// traffic allocates nothing. The miss counter is the observable: once a
// workload has warmed the pool, misses stop growing
// (tests/alloc_regression_test.cpp asserts exactly that), and
// bench_simcore_throughput reports it per run.
//
// The pool is owned by a Network and is strictly single-threaded, like the
// simulator it serves: each experiment trial has its own pool, which is
// what keeps multi-threaded sweeps deterministic.
#pragma once

#include <cstdint>
#include <vector>

namespace mwreg {

class BufferPool {
 public:
  using Buffer = std::vector<std::uint8_t>;

  /// An empty buffer, with recycled capacity when the pool has one.
  [[nodiscard]] Buffer acquire() {
    ++stats_.acquired;
    if (free_.empty()) {
      ++stats_.misses;
      return Buffer{};
    }
    Buffer b = std::move(free_.back());
    free_.pop_back();
    b.clear();
    return b;
  }

  /// Return a buffer's storage to the pool. Capacity-less buffers are
  /// ignored; beyond the retention cap buffers are freed (counted).
  void release(Buffer b) {
    if (b.capacity() == 0) return;
    if (free_.size() >= kMaxFree) {
      ++stats_.dropped;
      return;
    }
    ++stats_.recycled;
    free_.push_back(std::move(b));
  }

  struct Stats {
    std::uint64_t acquired = 0;
    std::uint64_t misses = 0;    ///< acquires that handed out a fresh buffer
    std::uint64_t recycled = 0;  ///< buffers returned for reuse
    std::uint64_t dropped = 0;   ///< releases past the retention cap
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Buffers currently parked in the pool.
  [[nodiscard]] std::size_t idle_buffers() const { return free_.size(); }

 private:
  /// Bounds pool memory under pathological fan-out. Sized for million-client
  /// table-driven workloads, whose in-flight working set legitimately
  /// fluctuates by far more than the old 4096 cap: releasing a burst only to
  /// re-acquire it a tick later would show up as steady-state allocations.
  static constexpr std::size_t kMaxFree = 1 << 20;

  std::vector<Buffer> free_;
  Stats stats_;
};

}  // namespace mwreg
