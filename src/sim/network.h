// Asynchronous reliable message-passing network (Fig. 1 of the paper).
//
// Channels are bidirectional and reliable: messages are never lost, but may
// be delayed arbitrarily. The adversarial schedules in the proofs are
// expressed with block_link / unblock_link ("skipping" a server = blocking
// its links until the rest of the execution finishes) and crash().
//
// Hot-path layout: crash and block state are NodeId-indexed dense tables
// (node ids are dense by construction — ClusterConfig lays them out
// contiguously), so the per-delivery checks are array loads instead of
// std::set lookups, with a zero-cost fast path while no fault is active.
//
// One send path. A payload enters the network only through send_bytes(),
// which copies it before returning: into a recycled BufferPool buffer in
// the per-message lane, into a batch chunk or an event record in the
// batched one, whose pool then serves only frames parked on blocked links.
// Senders encode into the network's scratch writer (Process::out(),
// cleared on each call); send_bytes() never dispatches synchronously, so a
// sender need only finish its sends before its next out().
//
// Batched delivery (Options::coalesce). The per-message engine costs one
// heap event + one dispatch + one pooled buffer per message; at quorum
// fan-out most cycles are scheduler overhead. With coalescing on, the unit
// of simulation becomes the delivery *tick*, but a batch is opened only
// when a tick has company. The first frame of a tick is scheduled exactly
// as the per-message engine schedules it — its own event, consuming the
// same sequence — with its header and payload copied into the event
// record, and the open-tick table marks the tick as holding a lone frame.
// A second frame for that tick opens a batch at its own reserved sequence
// (Simulator::reserve_seq(), exactly what scheduling it as its own event
// would have consumed); later frames append to it. A first frame whose
// payload does not fit an event record opens the batch itself. The lone
// frame's sequence is lower, so the heap delivers it first, exactly where
// the per-message engine would. Because sequences are handed out
// monotonically, a batch's frame list is *already* in exact global
// (time, seq) delivery order — no sorting, no merging. The drain chops it
// into maximal same-destination runs and hands each run to
// Process::on_deliver_batch, yielding back to the event heap only when a
// genuinely foreign event — a timer, a fault-plan step, an evicted sibling
// batch or lone frame — orders before the next frame's (time, seq). The
// observable execution order is therefore identical to the per-message
// engine in every case, including same-tick ties and crash/recover landing
// mid-batch; golden digests match bit-for-bit with coalescing on and off
// (DESIGN.md section 8).
//
// Batch storage. A batched frame is one record (sequence, send time,
// header, length, payload) appended to its batch's list of fixed-size
// chunks (kChunkBytes). Its header takes one of two forms: a 24-byte
// compact one whenever the frame's fields fit it (sequence as an offset
// from the batch's first, delay instead of send time, 32-bit rpc id, and
// length, type and key packed into one word), else a 48-byte wide one with
// every field at full width; bit 0 of the first word names the form. A
// record never crosses a chunk boundary; one too large for a chunk gets a
// block of its own, under either header. Chunks and blocks come from
// one per-network pool and go back to it LIFO as soon as the drain has
// dispatched every frame they hold, so the next batch to grow usually
// writes into memory a drain has just read. The open-tick entry holds
// the append cursor (tail chunk, offset), so a join touches only the entry
// and the chunk tail. The drain decodes each run into a per-network
// scratch array of Frame views, which is what on_deliver_batch receives.
// Storage changes where bytes live, never which run a frame rides in or
// in what order (DESIGN.md section 8.3).
//
// A batch is its delivery event: there is no batch object. The first-fire
// closure holds the tick, the batch's head chunk and its first sequence
// (the base compact records count from), a continuation the tick, the
// (chunk, offset) it resumes at and the base, and an open-tick entry names
// its batch by the head chunk, which no other batch can hold until this
// one has fired and drained it.
//
// Contract: crash/recover/block/unblock transitions originate from simulator
// events (fault plans, scheduled test steps) or between runs — never from
// inside a message handler or delivery hook. The network enforces this:
// while it is dispatching to a handler or hook, those calls throw
// std::logic_error (the throw aborts the run). A handler that needs a fault
// schedules it as an event at now(). Fault state is therefore constant
// across every dispatched span, which is what lets both delivery lanes
// produce identical histories under faults (DESIGN.md section 9).
// Options::tick quantizes delivery times (round-up) so that same-destination
// traffic actually ties; tick == 1 keeps exact-ns timing and is the default,
// leaving every recorded golden digest valid.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "sim/buffer_pool.h"
#include "sim/delay_model.h"
#include "sim/message.h"
#include "sim/simulator.h"

namespace mwreg {

class Process;

/// Message accounting. At quiescence (no scheduled deliveries in flight)
/// the counters satisfy the invariant
///   sent == delivered + held + to_crashed + from_crashed
///           + dropped_unattached
/// — every sent message is either delivered, parked on a blocked link,
/// dropped at exactly one of the two crash checks, or dropped because no
/// process was ever attached at its destination. tests/sim_test.cpp
/// asserts this across fault scenarios, with coalescing on and off (an open
/// batch always has a delivery event pending, so at quiescence every frame
/// has drained into exactly one of the five buckets).
struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t bytes_sent = 0;  ///< payload bytes across all sent messages
  std::uint64_t delivered = 0;
  std::uint64_t held = 0;         ///< currently parked on blocked links
  std::uint64_t to_crashed = 0;   ///< dropped because dst crashed
  std::uint64_t from_crashed = 0; ///< dropped because src had crashed
  std::uint64_t dropped_unattached = 0;  ///< dst has no attached process
};

/// Coalescing observables (all zero while Options::coalesce is false).
/// A lone frame — the only frame its tick has when it is sent — rides its
/// own event and is counted in `lone` alone; every other counter covers
/// batches only. So at quiescence
///   executed − batches − continuations + enqueued
/// is the event count the per-message engine would have executed.
/// bench_simcore_throughput reports them and scripts/bench_trend.py gates
/// the batch counts and the batch-size histogram.
struct CoalesceStats {
  std::uint64_t batches = 0;        ///< batch delivery events fired
  std::uint64_t continuations = 0;  ///< mid-batch yields rescheduled
  std::uint64_t enqueued = 0;       ///< frames appended into batches
  std::uint64_t frames = 0;         ///< frames delivered through batches
  /// Always 0; kept only because benchmark/driver/bench.cpp reads it.
  std::uint64_t dest_major = 0;
  /// Always 0; kept only because benchmark/driver/bench.cpp reads it.
  std::uint64_t staged = 0;
  /// Frames scheduled as their own event: a tick's first frame, when its
  /// payload fits the event record.
  std::uint64_t lone = 0;
  /// Dispatched batch span sizes, log2-bucketed: hist[b] counts spans of
  /// size [2^b, 2^(b+1)). Buckets past the last saturate into it.
  static constexpr int kHistBuckets = 16;
  std::uint64_t hist[kHistBuckets] = {};

  /// Mean dispatched-run length (frames per dispatched batch span); the
  /// run-length target the bench trend gate tracks.
  [[nodiscard]] double mean_run_len() const {
    std::uint64_t runs = 0;
    for (const std::uint64_t h : hist) runs += h;
    return runs == 0 ? 0.0 : static_cast<double>(frames) /
                                 static_cast<double>(runs);
  }
};

/// Batch-layer storage counters (all zero while Options::coalesce is
/// false): what the network has ever created, and how often a batch grew
/// past a chunk. alloc_regression_test pins chunk creation flat after
/// warm-up; bench_simcore_throughput reports the created counts.
struct BatchStorageStats {
  std::uint64_t chunks = 0;   ///< kChunkBytes chunks created
  std::uint64_t blocks = 0;   ///< blocks created for oversized records
  std::uint64_t spills = 0;   ///< appends that continued a batch in a new chunk
  std::uint64_t wide = 0;     ///< records stored with the wide header
};

/// Network::Options. Declared outside the class so that its member
/// defaults can serve Network's constructor's default argument.
struct NetworkOptions {
  /// When true, per-link delivery preserves send order (delays are
  /// clamped to be nondecreasing per link). The paper's model is non-FIFO.
  bool fifo = false;
  /// Batch all deliveries landing on one tick into one simulator event,
  /// dispatched as maximal same-destination runs.
  bool coalesce = false;
  /// Delivery-time quantum in simulated ns: arrival times round UP to a
  /// multiple of tick, in both engines, so coalescing on/off stays
  /// bit-identical at any tick. 1 = exact-ns (default; no timing change).
  Duration tick = 1;
};

class Network {
 public:
  using Options = NetworkOptions;

  Network(Simulator& sim, std::unique_ptr<DelayModel> delay, Rng rng,
          Options opts = {});

  Simulator& sim() { return sim_; }

  /// The per-message lane's payload buffers and parked frames; its stats
  /// are the pool-miss half of the steady-allocation counters.
  BufferPool& pool() { return pool_; }

  /// The scratch writer, cleared. Senders encode a payload here and pass
  /// it to send_bytes(); Process::out() forwards here.
  ByteWriter& out() {
    out_.clear();
    return out_;
  }

  /// Register the handler for a node. Must be called before any message is
  /// delivered to `id`. The process must outlive the network run.
  void attach(NodeId id, Process& p);

  /// Send one message, copying `bytes` before returning; nothing is
  /// dispatched from inside the call. Checks run in a fixed order: source
  /// crash, destination crash, block, then the delay draw, so dropped and
  /// parked messages draw no randomness. Empty payloads skip the pool
  /// (capacity-0 buffers never recycle).
  void send_bytes(NodeId src, NodeId dst, MsgType type, std::uint32_t key,
                  std::uint64_t rpc_id, ByteSpan bytes);

  /// Crash a node: all future and in-flight messages to it are dropped, and
  /// nothing it sends afterwards is accepted. This and the other fault
  /// mutations below throw std::logic_error when called from a handler or
  /// delivery hook (see the contract at the top of this file).
  void crash(NodeId id);
  [[nodiscard]] bool crashed(NodeId id) const {
    return num_crashed_ > 0 && id >= 0 &&
           static_cast<std::size_t>(id) < crashed_.size() &&
           crashed_[static_cast<std::size_t>(id)] != 0;
  }

  /// Undo a crash: the node accepts and sends messages again. Messages
  /// dropped while it was crashed stay lost (they were counted in
  /// to_crashed / from_crashed); its process state is untouched, modeling a
  /// network-isolated node rejoining. Enables crash -> recover fault plans.
  void recover(NodeId id);

  /// Block the directed link src -> dst: messages are parked, not lost.
  void block_link(NodeId src, NodeId dst);
  /// Block both directions between a client and a server ("skip").
  void block_pair(NodeId a, NodeId b);
  /// Release a directed link; parked messages are delivered with fresh delays.
  void unblock_link(NodeId src, NodeId dst);
  void unblock_pair(NodeId a, NodeId b);
  [[nodiscard]] bool link_blocked(NodeId src, NodeId dst) const {
    if (num_blocked_ == 0 || src < 0 || dst < 0) return false;
    const auto s = static_cast<std::size_t>(src);
    const auto d = static_cast<std::size_t>(dst);
    return s < blocked_.size() && d < blocked_[s].size() &&
           blocked_[s][d] != 0;
  }

  /// Optional observer invoked at delivery time (used by trace capture).
  /// The Frame (and its payload span) is valid only during the call.
  using DeliveryHook =
      std::function<void(const Frame&, Time sent, Time delivered)>;
  void set_delivery_hook(DeliveryHook hook) { hook_ = std::move(hook); }

  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  [[nodiscard]] const CoalesceStats& coalesce_stats() const {
    return coalesce_stats_;
  }
  /// Batch-layer storage the network has created. Each count ratchets
  /// during warm-up and must then stay flat — the coalescing analogue of
  /// Simulator::allocations().
  [[nodiscard]] const BatchStorageStats& storage_stats() const {
    return storage_;
  }

  /// Batch storage geometry. A pooled chunk is kChunkBytes: a 16-byte
  /// header, then kChunkRecordBytes of records. A record is a compact or a
  /// wide header, then its payload padded to 4 bytes.
  static constexpr std::size_t kChunkBytes = 1024;
  static constexpr std::size_t kChunkRecordBytes = kChunkBytes - 16;
  static constexpr std::size_t kCompactHeaderBytes = 24;
  static constexpr std::size_t kWideHeaderBytes = 48;
  /// Largest payload whose record fits a chunk, per header form; a larger
  /// one gets a block.
  static constexpr std::size_t kChunkCompactPayloadBytes =
      kChunkRecordBytes - kCompactHeaderBytes;
  static constexpr std::size_t kChunkWidePayloadBytes =
      kChunkRecordBytes - kWideHeaderBytes;
  /// The largest length, type, key and sequence offset (from the batch's
  /// first) a compact header holds; rpc ids and delays (deliver time less
  /// send time) get 32 bits. A frame past any of these widths takes the
  /// wide header, except that one past the sequence offset opens a fresh
  /// batch for its tick instead (DESIGN.md section 8.3).
  static constexpr std::size_t kCompactMaxLen = (1u << 12) - 1;
  static constexpr MsgType kCompactMaxType = (1u << 8) - 1;
  static constexpr std::uint32_t kCompactMaxKey = (1u << 11) - 1;
  static constexpr std::uint64_t kCompactMaxSeqOffset = 0xFFFFFFFFu;

 private:
  /// A pooled chunk or an oversized block: this header, then records.
  /// `next` links a batch's chunks in drain order (a free list's while
  /// pooled). `used` is valid once the chunk is no open entry's tail.
  struct Chunk {
    Chunk* next = nullptr;
    std::uint32_t used = 0;  ///< record bytes after the header
    std::uint32_t cls = 0;   ///< 0: a kChunkBytes chunk; else log2 block bytes
    [[nodiscard]] std::uint8_t* data() {
      return reinterpret_cast<std::uint8_t*>(this) + sizeof(Chunk);
    }
  };
  static_assert(sizeof(Chunk) + kChunkRecordBytes == kChunkBytes,
                "a chunk's header is 16 bytes");
  /// A lone frame carries its header and payload in its event record: the
  /// capture (network pointer + LoneInline, 88 bytes) takes a large
  /// record, and carries this many payload bytes. A first frame with a
  /// larger payload opens its tick's batch instead. The large record could
  /// hold 24 more; a larger budget would let more first frames ride alone
  /// and so move every lone and batch count (DESIGN.md section 12.1).
  static constexpr std::size_t kLoneInlineBytes = 44;
  struct LoneInline {
    /// Copies f's header and payload; f.payload fits kLoneInlineBytes.
    LoneInline(const Frame& f, Time sent_at);
    /// The frame, viewing this record's own bytes.
    [[nodiscard]] Frame frame() const;

    NodeId src;
    NodeId dst;
    MsgType type;
    std::uint32_t key;
    std::uint64_t rpc_id;
    Time sent;
    std::uint32_t len;
    std::uint8_t bytes[kLoneInlineBytes];
  };
  static_assert(sizeof(Network*) + sizeof(LoneInline) <=
                    Simulator::kInlineEventBytes,
                "a lone frame's capture must fit an event record");
  /// Open-tick table entry, direct-mapped by deliver-time: the tick holds
  /// either a lone frame (its own event is scheduled) or a joinable batch.
  /// Collisions simply evict — the evicted lone frame or batch stays
  /// scheduled and is merely no longer joinable, which costs a little
  /// coalescing but never correctness: its sequences all precede those of
  /// any frame later sent for the same tick, so it delivers first, in
  /// order. A batch's entry holds its append cursor (tail, off) and saves
  /// it into tail->used when it leaves the table, by first fire or
  /// eviction.
  struct OpenEntry {
    Time at = -1;            ///< -1: free
    Chunk* head = nullptr;   ///< the batch's first chunk; null: a lone frame
    Chunk* tail = nullptr;   ///< the batch's last chunk
    std::uint64_t base = 0;  ///< the batch's first sequence
    std::uint32_t off = 0;   ///< append offset into tail
  };

  /// Per-message lane, and redelivery from an unblocked link: crash check,
  /// block check, delay draw, then `m` rides its own event (or, batched,
  /// is routed).
  void deliver_later(Message m, Time sent);
  /// Per-message delivery of `f`: crash check, block check, then the hook
  /// and handler. `owner` holds f's payload, parked as is on a blocked link
  /// and recycled otherwise; null means the bytes live elsewhere, and a
  /// blocked frame is parked as a pooled copy.
  void deliver_one(const Frame& f, Time sent, Message* owner);
  /// Drop `m`, recycling its payload storage.
  void discard(Message&& m);
  /// Throw std::logic_error naming `call` and its node ids if a handler or
  /// delivery hook is running.
  void refuse_while_dispatching(const char* call, NodeId a, NodeId b) const;

  /// Delay sample + tick quantization + FIFO clamp, shared verbatim by the
  /// per-message and batched paths (identical RNG draws, identical times).
  Time arrival_time(NodeId src, NodeId dst);
  /// A Message holding a pooled copy of `f`'s header and payload.
  Message pooled_copy(const Frame& f);
  /// Park a copy of a frame on a blocked link (batched slow path, and a
  /// lone frame whose bytes ride in its event record).
  void hold_copy(const Frame& f, Time sent);

  // ---- batched engine ----
  /// Batched-lane delivery of a frame that passed the crash and block
  /// checks: join or open its tick's batch, else ride alone. Copies the
  /// payload; the caller keeps its buffer.
  void route(const Frame& f, Time sent, Time at);
  /// The table slot `at` maps to.
  OpenEntry& open_entry(Time at);
  /// Free `at`'s entry if it still holds the batch whose head chunk is
  /// `head` (null: a lone frame), saving a batch's cursor.
  void close_entry(Time at, const Chunk* head);
  /// Double the open table; live entries rehash without colliding.
  void grow_open_table();
  /// A pooled chunk, or a block when a `need`-byte record overflows one.
  Chunk* acquire_chunk(std::size_t need);
  /// Return chunks [from, to) of a chain to their free lists, LIFO.
  void release_chunks(Chunk* from, Chunk* to);
  /// Append `f` to the entry's batch, opening it (and scheduling its first
  /// fire at this frame's sequence) when the entry holds a lone frame, or
  /// when the frame's sequence offset would not fit a compact header.
  void enqueue_frame(OpenEntry& oe, const Frame& f, Time sent);
  /// Drain tick `at`'s batch, whose first sequence is `base`, from record
  /// (c, off) as maximal same-destination runs, yielding to the heap
  /// whenever an earlier event is due; the remainder reschedules as a
  /// continuation.
  void drain(Time at, Chunk* c, std::uint32_t off, std::uint64_t base);

  Simulator& sim_;
  std::unique_ptr<DelayModel> delay_;
  Rng rng_;
  Options opts_;
  BufferPool pool_;
  std::vector<Process*> procs_;
  /// Dense crash flags indexed by NodeId, with a count for the fast path.
  std::vector<std::uint8_t> crashed_;
  int num_crashed_ = 0;
  /// Dense per-src rows of blocked-link flags, grown on demand.
  std::vector<std::vector<std::uint8_t>> blocked_;
  int num_blocked_ = 0;
  /// Messages parked on blocked links, with their original send time.
  std::vector<std::pair<Message, Time>> held_;
  /// FIFO mode: per-destination last scheduled delivery time, one per-src
  /// row grown on demand (fifo_last_[dst][src]) — rows exist only for
  /// destinations that actually receive traffic, the same per-destination
  /// scheme the batch engine keys on, instead of a dense S x S matrix.
  std::vector<std::vector<Time>> fifo_last_;
  DeliveryHook hook_;
  /// True while a handler or delivery hook may run; fault mutations refuse.
  bool dispatching_ = false;
  NetworkStats stats_;
  CoalesceStats coalesce_stats_;
  /// The scratch writer out() hands to senders.
  ByteWriter out_;

  /// Owns every chunk and block; the free lists thread through them.
  std::vector<std::unique_ptr<std::uint8_t[]>> chunk_mem_;
  /// Free lists by Chunk::cls: [0] the pooled chunks, [k] 2^k-byte blocks.
  Chunk* free_[64] = {};
  /// The run being dispatched: Frame views into its records' chunks.
  std::vector<Frame> run_;
  BatchStorageStats storage_;
  /// Power-of-two, direct-mapped; doubles when more than a quarter of its
  /// slots hold an open tick, so its size follows the ticks actually open.
  std::vector<OpenEntry> open_tab_;
  std::size_t open_live_ = 0;  ///< entries with at >= 0
};

/// A protocol participant: owns a node id and reacts to delivered messages.
class Process {
 public:
  Process(NodeId id, Network& net) : id_(id), net_(net) {
    net.attach(id, *this);
  }
  virtual ~Process() = default;
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// Handle one delivered message. The frame and its payload span are valid
  /// only for the duration of the call.
  virtual void on_message(const Frame& m) = 0;

  /// Handle a coalesced run of frames addressed to this process (batched
  /// engine). The default replays on_message per frame; servers and client
  /// tables override it to hoist per-batch work (demux, virtual dispatch)
  /// out of the per-frame loop. Every frame of a run has the same
  /// destination node id, and the frames arrive in exact global delivery
  /// order.
  virtual void on_deliver_batch(FrameSpan frames) {
    for (const Frame& f : frames) on_message(f);
  }

  [[nodiscard]] NodeId id() const { return id_; }

 protected:
  Network& net() { return net_; }
  Simulator& sim() { return net_.sim(); }
  /// The network's scratch writer, cleared: encode a payload here and hand
  /// out().bytes() to a send before calling out() again.
  ByteWriter& out() { return net_.out(); }

 private:
  NodeId id_;
  Network& net_;
};

}  // namespace mwreg
