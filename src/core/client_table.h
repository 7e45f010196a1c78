// Dense table-driven client state machines: one Process hosting every
// writer and reader of a harness as struct-of-arrays slots. This is the
// only client driver; each protocol names the programs its clients run
// (core/protocol.h).
//
// Per-client state lives inline in flat arrays indexed by slot (writers
// first, then readers), each in-flight operation is a phase enum plus an
// accumulator in those arrays, and replies dispatch through one on_message
// entry point — no per-client heap object, no closures, no virtual calls, no
// per-op allocation — so a harness scales to ~10^6 concurrent clients.
//
// Wire behavior. Per-slot rpc ids start at 1 and increment per round,
// fan-out walks the key's server ids in order, and a round completes at the
// quorum-th reply (late replies are dropped). The table replaced per-object
// clients that issued exactly this message sequence; the golden digests
// recorded from them (tests/golden_determinism_test.cpp,
// tests/client_table_test.cpp) are the oracle the table is pinned against.
//
// Keys. Every operation addresses a key of a keyspace (core/keyspace.h);
// requests carry Frame::key so KeyRouters can dispatch to per-key
// replicas. The classic single-register harness is the 1-key special case.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/cluster.h"
#include "consistency/history.h"
#include "core/protocol.h"
#include "protocols/fastread_clients.h"
#include "protocols/messages.h"
#include "sim/network.h"

namespace mwreg {

class ClientTable final : public Process {
 public:
  /// Completion hook: `slot` is the table slot (writers [0, W), readers
  /// [W, W+R)), `value` the written (tag, payload) or the value read. The
  /// per-key History has already been updated when it fires.
  using CompleteFn =
      std::function<void(int slot, OpKind kind, const TaggedValue& value)>;

  /// `global` supplies the client id ranges (its writer/reader ids must
  /// cover every per-key config's clients); `key_cfgs[k]` is key k's quorum
  /// group; `histories[k]` records key k's operations. Both vectors must
  /// outlive the table. Attaches itself at every client id.
  ClientTable(Network& net, const ClusterConfig& global,
              const std::vector<ClusterConfig>& key_cfgs,
              TableWriterProgram writer_program,
              TableReaderProgram reader_program,
              std::vector<History*> histories);

  void on_message(const Frame& m) override;

  /// Batched delivery: a run of replies to one table client lands as one
  /// span; one virtual dispatch, then a non-virtual demux per frame.
  void on_deliver_batch(FrameSpan frames) override {
    for (const Frame& f : frames) handle_reply(f);
  }

  /// Start a write by writer `wi` on `key`; one op per slot at a time.
  /// Returns the OpId in key `key`'s history. Throws, in every build and
  /// before touching any state, std::out_of_range for a bad `wi` or `key`
  /// and std::logic_error while the writer's previous op is in flight.
  OpId start_write(int wi, std::uint32_t key, std::int64_t payload);
  /// Start a read by reader `ri` on `key`; refuses as start_write does.
  OpId start_read(int ri, std::uint32_t key);

  void set_on_complete(CompleteFn fn) { on_complete_ = std::move(fn); }

  /// True when the reader program carries per-register state (valQueues,
  /// server caches, watermarks): each reader must then serve exactly one
  /// key (core/keyspace.h reader blocks).
  [[nodiscard]] bool reader_key_affine() const {
    return mwreg::reader_key_affine(reader_program_);
  }

  [[nodiscard]] int writer_count() const { return w_; }
  [[nodiscard]] int reader_count() const { return r_; }
  [[nodiscard]] std::uint64_t rounds_completed() const { return rounds_done_; }

  /// Decode-arena row growth across all fr-full readers; pinned flat after
  /// warmup by the allocation regression tests.
  [[nodiscard]] std::uint64_t decode_arena_grows() const;

  /// Fast-read reader `ri`'s confirmed watermark: the largest value it has
  /// carried on a request (delta program). Every later read of it returns a
  /// tag >= this (Lemma 3), which server-side GC relies on.
  [[nodiscard]] const TaggedValue& reader_watermark(int ri) const {
    return fr_[static_cast<std::size_t>(ri)]->watermark;
  }
  /// Entries fast-read reader `ri` caches for server index `si` (delta
  /// program; 0 otherwise).
  [[nodiscard]] std::size_t reader_cache_size(int ri, int si) const {
    const FrReaderState& st = *fr_[static_cast<std::size_t>(ri)];
    return st.caches.empty()
               ? 0
               : st.caches[static_cast<std::size_t>(si)].rows.size();
  }

 private:
  /// Per-reader state of the fast-read programs. Heap-boxed (one allocation
  /// per reader at construction, none afterwards) so non-fr tables carry
  /// zero per-slot overhead.
  struct FrReaderState {
    std::vector<TaggedValue> val_queue;  ///< sorted unique; starts {bottom}
    std::vector<FrRows> arenas;          ///< full mode: one per reply index
    std::vector<FrServerCache> caches;   ///< delta mode: per server index
    std::vector<int> round_servers;      ///< delta mode: arrival order
    TaggedValue watermark{};
    // reusable per-read scratch
    std::vector<const FrRows*> views;
    std::vector<TaggedValue> queue_merge;
    std::vector<std::uint64_t> acked_scratch;
    std::vector<TaggedValue> queue_scratch;
  };

  [[nodiscard]] NodeId slot_node(int slot) const {
    return slot < w_ ? global_.writer_id(slot) : global_.reader_id(slot - w_);
  }
  [[nodiscard]] int slot_of(NodeId id) const {
    if (global_.is_writer(id)) return id - global_.first_client();
    if (global_.is_reader(id)) return w_ + (id - global_.first_reader());
    return -1;
  }

  /// Open a new round for `slot`: send `payload` (usually out()) to every
  /// server of `key`'s group, in server order.
  void broadcast(int slot, std::uint32_t key, MsgType type,
                 ByteSpan payload = {});

  /// start_write / start_read's refusals.
  void check_start(bool writer, int index, std::uint32_t key) const;

  void handle_reply(const Frame& m);
  void on_writer_reply(int slot, const Frame& m);
  void on_reader_reply(int slot, const Frame& m);
  void begin_write_round2(int slot, Tag tag);
  void complete_write(int slot);
  void complete_read(int slot, const TaggedValue& v);

  void reader_decide_full(int slot);
  void reader_decide_delta(int slot);

  ClusterConfig global_;
  const std::vector<ClusterConfig>& key_cfgs_;
  TableWriterProgram writer_program_;
  TableReaderProgram reader_program_;
  std::vector<History*> histories_;
  CompleteFn on_complete_;
  int w_ = 0;
  int r_ = 0;
  std::uint64_t rounds_done_ = 0;

  // ---- struct-of-arrays client state, indexed by slot ----
  /// 0 = idle, 1 = first round-trip in flight, 2 = second.
  std::vector<std::uint8_t> phase_;
  std::vector<std::uint32_t> key_;
  std::vector<std::uint64_t> rpc_;       ///< current round's id (0 = none)
  std::vector<std::uint64_t> next_rpc_;  ///< per-slot counter, starts at 1
  std::vector<std::int32_t> acks_;
  std::vector<OpId> op_;
  // ---- one role's state: writers index it by slot (= wi), readers by
  // ri = slot - w_, so no slot pays for the other role's ----
  std::vector<std::int64_t> wr_payload_;  ///< writers: value being written
  std::vector<Tag> acc_tag_;   ///< writers: RT1 max, then the assigned tag
  std::vector<std::int64_t> local_ts_;  ///< local-timestamp writers
  std::vector<TaggedValue> acc_val_;  ///< abd readers: best value so far
  std::vector<std::unique_ptr<FrReaderState>> fr_;  ///< fr readers only
  /// The fr readers' read decision, sized for every key's group.
  FrPicker picker_;
};

}  // namespace mwreg
