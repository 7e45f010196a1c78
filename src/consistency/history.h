// Operation histories of a single shared register (Section 2.1).
//
// A history is the sequence of invocation/response events produced by a run.
// We store it as one record per operation with invocation and response
// timestamps; an operation that never responded (client crashed, or the run
// was truncated) has resp == kTimeMax and is treated as concurrent with
// everything after its invocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/tag.h"
#include "common/types.h"

namespace mwreg {

enum class OpKind : std::uint8_t { kWrite, kRead };

using OpId = std::int32_t;

struct OpRecord {
  OpId id = -1;
  NodeId client = kNoNode;
  OpKind kind = OpKind::kWrite;
  Time invoke = 0;
  Time resp = kTimeMax;  ///< kTimeMax while pending
  /// For a write: the value written (tag fixed by the protocol during the
  /// operation). For a read: the value returned.
  TaggedValue value;

  [[nodiscard]] bool completed() const { return resp != kTimeMax; }
  /// Real-time precedence (the paper's O1 \prec_sigma O2).
  [[nodiscard]] bool precedes(const OpRecord& other) const {
    return completed() && resp < other.invoke;
  }
};

/// Observer interface for `History` recording events. A sink sees each event
/// as the recorder does (in simulation-time order for harness-driven runs),
/// which is what lets a streaming checker run without post-hoc scanning.
/// All hooks default to no-ops so sinks override only what they consume.
class HistorySink {
 public:
  virtual ~HistorySink() = default;
  /// An operation was invoked (begin_op).
  virtual void on_invoke(const OpRecord& op) { (void)op; }
  /// A pending operation's value became known early (set_value).
  virtual void on_value(const OpRecord& op) { (void)op; }
  /// An operation responded (end_op); `op` carries the final record.
  virtual void on_complete(const OpRecord& op) { (void)op; }
  /// Records with id < first_live were retired from the recorder.
  virtual void on_retire(OpId first_live) { (void)first_live; }
};

/// Append-only recorder used by the harness; also the input to all checkers.
///
/// Long checked runs may retire provably-settled prefixes (retire_prefix) so
/// recorder memory tracks the concurrency window rather than the horizon;
/// op ids stay stable (they index the full logical history) and ops() then
/// returns only the live suffix.
///
/// Storage: records live in fixed blocks of kBlockOps that never move, so a
/// history pays for its records plus at most one partly filled block at
/// each end, never a vector's doubling slack, and a reference from op()
/// stays valid while later ops are recorded. Retiring a block's last
/// record recycles the block for later records.
class History {
 public:
  static constexpr std::size_t kBlockOps = 256;

 private:
  struct Block {
    OpRecord ops[kBlockOps];
  };
  using BlockPtr = std::unique_ptr<Block>;

 public:
  /// The live records in id order: a forward range over the blocks.
  class OpRange {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = OpRecord;
      using difference_type = std::ptrdiff_t;
      using pointer = const OpRecord*;
      using reference = const OpRecord&;

      iterator() = default;
      reference operator*() const { return *p_; }
      pointer operator->() const { return p_; }
      iterator& operator++() {
        // Step into the next block only if there is one: past the last
        // record of a full last block, p_ is the range's end.
        if (++p_ == stop_ && blk_ + 1 != last_) {
          ++blk_;
          p_ = (*blk_)->ops;
          stop_ = p_ + kBlockOps;
        }
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++*this;
        return old;
      }
      bool operator==(const iterator& o) const { return p_ == o.p_; }
      bool operator!=(const iterator& o) const { return p_ != o.p_; }

     private:
      friend class OpRange;
      iterator(const BlockPtr* blk, const BlockPtr* last, std::size_t i)
          : p_((*blk)->ops + i),
            stop_((*blk)->ops + kBlockOps),
            blk_(blk),
            last_(last) {}
      const OpRecord* p_ = nullptr;
      const OpRecord* stop_ = nullptr;
      const BlockPtr* blk_ = nullptr;
      const BlockPtr* last_ = nullptr;
    };
    using const_iterator = iterator;

    [[nodiscard]] iterator begin() const { return begin_; }
    [[nodiscard]] iterator end() const { return end_; }
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }

   private:
    friend class History;
    OpRange(const std::vector<BlockPtr>& blocks, std::size_t first,
            std::size_t last)
        : size_(last - first) {
      if (size_ == 0) return;
      const BlockPtr* b = blocks.data();
      const BlockPtr* e = b + blocks.size();
      begin_ = iterator(b, e, first);
      // `last` is one past the final record: in the last block, or at the
      // stop of a full one.
      end_ = iterator(e - 1, e, last - (blocks.size() - 1) * kBlockOps);
    }
    iterator begin_;
    iterator end_;
    std::size_t size_ = 0;
  };

  /// Record an invocation; the value of a write may be filled in later (the
  /// tag is chosen mid-operation by two-round-trip writers).
  OpId begin_op(NodeId client, OpKind kind, Time invoke);

  /// Record the matching response.
  void end_op(OpId id, Time resp, const TaggedValue& value);

  /// Record the value of an operation that may never respond (e.g. a write
  /// whose tag became known mid-operation before the client crashed). A
  /// pending write with an unrecorded value (bottom tag) is invisible to the
  /// checkers: it cannot be read from.
  void set_value(OpId id, const TaggedValue& value);

  /// Live records (the suffix with id >= retired_count(), in id order).
  [[nodiscard]] OpRange ops() const {
    return OpRange(blocks_, base_ - block_base_, size_ - block_base_);
  }
  /// Logical history length, retired prefix included.
  [[nodiscard]] std::size_t size() const { return size_; }
  /// The live record `id`; throws std::out_of_range for a retired or
  /// unrecorded id.
  [[nodiscard]] const OpRecord& op(OpId id) const { return live(id); }

  [[nodiscard]] std::size_t completed_count() const;

  /// True when each client's subsequence is sequential (well-formedness,
  /// Section 2.1) and response times follow invocations.
  [[nodiscard]] bool well_formed() const;

  /// True when every completed write's tag is distinct (required by the
  /// scalable checkers; all protocols in this repo guarantee it).
  [[nodiscard]] bool unique_write_tags() const;

  [[nodiscard]] std::string to_string() const;

  /// Subscribe an observer to future recording events. The sink must outlive
  /// its subscription; unsubscribe before destroying it.
  void subscribe(HistorySink* sink);
  void unsubscribe(HistorySink* sink);

  /// Drop every record with id < first_live. The caller asserts the prefix is
  /// settled (e.g. via StreamingTagWitness::settled_frontier()); retiring live
  /// state silently weakens any later batch check. Safe to call from a sink
  /// hook. No-op unless it advances the retirement point.
  void retire_prefix(OpId first_live);

  /// Number of records retired so far (== id of the first live record).
  [[nodiscard]] std::size_t retired_count() const { return base_; }

  /// Blocks this history has ever allocated; a warm retiring history
  /// recycles its blocks and allocates none.
  [[nodiscard]] std::uint64_t blocks_created() const {
    return blocks_created_;
  }

  /// Forget every record; the blocks are kept for reuse.
  void clear();

 private:
  [[nodiscard]] const OpRecord& live(OpId id) const;
  [[nodiscard]] OpRecord& live(OpId id) {
    return const_cast<OpRecord&>(std::as_const(*this).live(id));
  }

  /// Live blocks in id order; blocks_[i] holds ids block_base_ +
  /// i * kBlockOps onward.
  std::vector<BlockPtr> blocks_;
  std::vector<BlockPtr> spare_;  ///< recycled blocks, reused LIFO
  std::size_t block_base_ = 0;   ///< id of blocks_[0]'s first record
  std::size_t base_ = 0;         ///< count of retired records
  std::size_t size_ = 0;         ///< count of recorded records
  std::uint64_t blocks_created_ = 0;
  std::vector<HistorySink*> sinks_;
};

/// Result of an atomicity check.
struct CheckResult {
  bool atomic = true;
  /// The checker declined to decide (e.g. wing-gong past its max_ops bound).
  /// A refused result carries atomic == true so "no violation found" logic
  /// keeps working, but it is NOT evidence of atomicity — callers comparing
  /// verdicts must treat refused as "no verdict".
  bool refused = false;
  std::string violation;  ///< human-readable description when !atomic/refused

  [[nodiscard]] bool decided() const { return !refused; }

  static CheckResult ok() { return {true, false, ""}; }
  static CheckResult bad(std::string why) {
    return {false, false, std::move(why)};
  }
  static CheckResult refuse(std::string why) {
    return {true, true, std::move(why)};
  }
};

}  // namespace mwreg
