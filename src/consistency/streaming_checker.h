// Incremental (streaming) tag-witness atomicity checker.
//
// The batch tag-witness check (tag_witness_checker.cpp) buffers the whole
// history and sweeps it twice; this class consumes the same information as a
// HistorySink, one event at a time, and keeps only the *concurrency window*:
//
//  * per-op state while the op is in flight (its invocation-time tag floor),
//  * a tag-ordered window of writes that could still be read from,
//  * reads that returned a tag whose write has not yet surfaced.
//
// The key observation (DESIGN.md §10, the same watermark argument as the
// valuevector GC proof of §6) is that a write whose tag is below BOTH the
// max finished tag and every in-flight op's invocation floor can never
// participate in a future violation without that violation also being
// caught by a real-time check on the referencing op alone — so its window
// entry can be retired. Memory is therefore bounded by the number of
// concurrent operations, not by the horizon, and a 10^6-op run checks in
// O(window) space.
//
// The state is flat and stops allocating once it has seen the run's peak
// concurrency (DESIGN.md §10.4): pending ops sit in a ring indexed by OpId
// whose first slot is the settled frontier (so its size follows the span of
// ids from the oldest pending op to the newest); floors sit in a FIFO of
// runs in arrival order, which the monotone max finished tag keeps sorted,
// so the oldest pending run holds the minimum floor; the window and the
// unresolved reads are tag-sorted vectors; and per-client state sits behind
// an open-addressing NodeId table. Nothing is allocated before the first
// event.
//
// Verdict parity: finish() equals check_tag_witness() on every history the
// repo generates (enforced by streaming_checker_test across fuzzer
// schedules, fault scenarios, and adversary-injected violations). The one
// deliberate conservatism: a pending write whose recorded value is retagged
// after a read already resolved against it is reported as a violation
// directly (the batch checker reaches the same verdict via read-from).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "consistency/checkers.h"
#include "consistency/history.h"

namespace mwreg {

/// Occupancy statistics for the bench / aggregator ("checked soak" columns).
struct StreamingStats {
  std::size_t ops_seen = 0;         ///< invocations observed
  std::size_t completions = 0;      ///< responses observed
  std::size_t peak_window = 0;      ///< max live write-window entries
  std::size_t peak_pending = 0;     ///< max in-flight ops tracked
  std::size_t peak_unresolved = 0;  ///< max reads awaiting their write
  std::size_t retired_tags = 0;     ///< window entries retired by watermark
};

/// Streaming tag-witness checker. Subscribe to a History (or drive the
/// HistorySink hooks directly, in event-time order); read the verdict with
/// result()/finish(). Optionally retires the settled prefix of a target
/// History so recorder memory stays bounded too (checked soak runs).
class StreamingTagWitness final : public StreamingFeed {
 public:
  StreamingTagWitness() = default;

  // HistorySink feed. Events must arrive in nondecreasing event-time order
  // with same-time invocations before responses (exactly the order a
  // simulation-driven History produces).
  void on_invoke(const OpRecord& op) override;
  void on_value(const OpRecord& op) override;
  void on_complete(const OpRecord& op) override;

  /// Verdict over the events seen so far (in-flight ops not yet judged).
  [[nodiscard]] CheckResult result() const override { return verdict_; }

  /// End-of-run verdict: additionally rules on reads whose tag never
  /// surfaced as a write and on pending bottom-tag writes that visibly took
  /// effect. This is the verdict to compare against check_tag_witness.
  CheckResult finish() override;

  [[nodiscard]] const StreamingStats& stats() const { return stats_; }

  /// Every op with id below the frontier is completed and fully judged; a
  /// History prefix up to it may be retired without weakening this checker.
  [[nodiscard]] OpId settled_frontier() const;

  /// Ask the checker to retire the settled prefix of `h` as the frontier
  /// advances (every `stride` settled ops). `h` must be the History this
  /// sink is subscribed to. Retired records are gone for good: batch
  /// re-checks and latency scans of `h` then see only the live suffix.
  void retire_history(History* h, std::size_t stride = 1024) {
    retire_target_ = h;
    retire_stride_ = stride;
  }

  /// Shim-replay support: the caller verified History::well_formed() up
  /// front, so the incremental per-client checks (which would misfire on
  /// the sorted replay's legal resp==invoke ties) are skipped. A second
  /// invocation of a still-pending id is refused either way.
  void trust_well_formed() { trust_well_formed_ = true; }

 private:
  static constexpr std::uint32_t kNoClient = ~std::uint32_t{0};

  struct PendingOp {
    Tag provisional;  ///< write value recorded early (set_value)
    /// Run of floors_ holding the max finished tag at invocation; an
    /// absolute index, wrapping like floors_base_.
    std::uint32_t floor_run = 0;
    NodeId client = kNoNode;
    std::uint32_t client_index = kNoClient;  ///< clients_ slot, if looked up
    OpKind kind = OpKind::kWrite;
    bool floor_any = false;  ///< false: invoked before any completion
    bool has_provisional = false;
    bool live = false;  ///< this ring slot holds a pending op
  };
  struct WriteEntry {
    Tag tag;
    std::int64_t payload = 0;
    OpId writer_op = -1;  ///< highest write id recorded for this tag
    Tag floor;            ///< the (pending) writer's invocation floor
    bool floor_any = false;
    bool completed = false;   ///< some write with this tag responded
    bool activated = false;   ///< pending-write RT check already ran
    int resolved_reads = 0;   ///< reads that read-from this entry
  };
  /// Consecutive pending ops invoked over the same floor.
  struct FloorRun {
    Tag floor;
    std::size_t pending = 0;
  };
  struct ClientState {
    Time last_resp = 0;
    bool in_flight = false;
    bool any = false;
  };
  struct ClientSlot {
    NodeId id = kNoNode;
    std::uint32_t index = kNoClient;  ///< kNoClient: empty slot
  };
  struct UnresolvedRead {
    Tag tag;
    std::int64_t payload = 0;
    OpId reader = -1;
  };

  void fail(std::string why);
  void advance_time(Time t);
  /// Fold `tag` of an op responding at the current time into the buffer.
  void note_finished(const Tag& tag);
  /// RT check for a (visibly effective) write against an invocation floor.
  void check_write_rt(const Tag& tag, const Tag& floor, bool floor_any,
                      OpId id);
  /// A write recorded `provisional` and now carries another tag: drop the
  /// stale window entry. False (and a violation) if a read resolved on it.
  bool drop_retagged(const Tag& provisional, OpId id);
  /// Insert/refresh the window entry for a write value; runs payload
  /// conflict + duplicate checks and resolves waiting reads.
  void record_write_value(OpId id, const TaggedValue& v, bool completed,
                          Tag floor, bool floor_any);
  void resolve_waiting_reads(const Tag& tag, WriteEntry& e);
  void try_retire_window();
  void note_settled_progress();

  // Pending ring: slot of id i is ring_[(ring_head_ + i - ring_base_) & mask]
  // for ids in [ring_base_, ring_base_ + ring_span_); the first is live.
  PendingOp* find_pending(OpId id);
  PendingOp& add_pending(OpId id);
  void drop_pending(PendingOp& po);
  void grow_ring(std::size_t span);
  // Floor FIFO: runs in arrival order, so nondecreasing (DESIGN §10.1).
  std::uint32_t add_floor(const Tag& floor);
  void drop_floor(std::uint32_t run);
  /// A pending op's invocation floor (the bottom tag if floor_any is off).
  [[nodiscard]] Tag floor_of(const PendingOp& po) const;
  // Window: the live entries are window_[window_head_..], sorted by tag.
  WriteEntry* find_write(const Tag& tag);
  WriteEntry& insert_write(const Tag& tag, bool* inserted);
  // Clients: open-addressing NodeId -> clients_ index table.
  std::uint32_t client_index(NodeId client);

  CheckResult verdict_ = CheckResult::ok();
  bool trust_well_formed_ = false;

  Time cur_time_ = 0;
  bool any_time_ = false;
  Tag max_finished_;  ///< folded responses with time < cur_time_
  bool max_finished_any_ = false;
  Tag buf_tag_;  ///< max tag among responses at exactly cur_time_
  bool buf_any_ = false;

  std::vector<PendingOp> ring_;  ///< power-of-two size once allocated
  std::size_t ring_head_ = 0;
  std::int64_t ring_base_ = 0;
  std::size_t ring_span_ = 0;
  std::size_t pending_count_ = 0;      ///< live slots
  std::vector<FloorRun> floors_;       ///< runs with floor_any ops
  std::size_t floors_head_ = 0;        ///< first run with pending ops
  std::uint32_t floors_base_ = 0;      ///< absolute index of floors_[0]
  std::size_t no_floor_pending_ = 0;   ///< pending ops with floor_any==false
  std::vector<ClientState> clients_;
  std::vector<ClientSlot> client_slots_;  ///< power-of-two size
  int client_shift_ = 64;                 ///< 64 - log2(client_slots_ size)

  std::vector<WriteEntry> window_;
  std::size_t window_head_ = 0;               ///< entries before it retired
  std::vector<UnresolvedRead> unresolved_;    ///< by tag, then arrival

  OpId next_id_ = 0;                 ///< one past the highest id invoked
  bool bottom_read_seen_ = false;    ///< some completed read returned bottom
  std::size_t bottom_completed_writes_ = 0;

  History* retire_target_ = nullptr;
  std::size_t retire_stride_ = 1024;
  OpId last_retired_ = 0;

  StreamingStats stats_;
};

}  // namespace mwreg
