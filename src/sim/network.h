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
// Payload buffers come from a per-network BufferPool and are recycled after
// delivery, so steady-state traffic performs no allocation.
//
// Batched delivery (Options::coalesce). The per-message engine costs one
// heap event + one dispatch + one pooled buffer per message; at quorum
// fan-out most cycles are scheduler overhead. With coalescing on, the unit
// of simulation becomes the delivery *tick*: send appends the encoded frame
// into the open batch for its quantized arrival time (payload bytes
// memcpy'd into a per-batch slab, header recorded as a Frame view) and at
// most one delivery event is scheduled per open tick. Because every frame
// consumes one simulator sequence number via Simulator::reserve_seq()
// (exactly what scheduling it as its own event would have consumed) and
// sequences are handed out monotonically, a tick's frame list is *already*
// in exact global (time, seq) delivery order — no sorting, no merging. The
// drain chops it into maximal same-destination runs and hands each run to
// Process::on_deliver_batch, yielding back to the event heap only when a
// genuinely foreign event — a timer, a fault-plan step, an evicted sibling
// batch — orders before the next frame's (time, seq). The observable
// execution order is therefore identical to the per-message engine in
// every case, including same-tick ties and crash/recover landing
// mid-batch; golden digests match bit-for-bit with coalescing on and off
// (DESIGN.md section 8).
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
/// bench_simcore_throughput reports them and scripts/bench_trend.py tracks
/// the coalesced-vs-per-message ratio and the batch-size histogram.
struct CoalesceStats {
  std::uint64_t batches = 0;        ///< batch delivery events fired
  std::uint64_t continuations = 0;  ///< mid-batch yields rescheduled
  std::uint64_t enqueued = 0;       ///< frames appended into batches
  std::uint64_t frames = 0;         ///< frames delivered through batches
  /// Always 0; kept only because benchmark/driver/bench.cpp reads it.
  std::uint64_t dest_major = 0;
  /// Always 0; kept only because benchmark/driver/bench.cpp reads it.
  std::uint64_t staged = 0;
  /// Dispatched span sizes, log2-bucketed: hist[b] counts spans of size
  /// [2^b, 2^(b+1)). Buckets past the last saturate into it.
  static constexpr int kHistBuckets = 16;
  std::uint64_t hist[kHistBuckets] = {};

  /// Mean dispatched-run length (frames per dispatched span); the
  /// run-length target the bench trend gate tracks.
  [[nodiscard]] double mean_run_len() const {
    std::uint64_t runs = 0;
    for (const std::uint64_t h : hist) runs += h;
    return runs == 0 ? 0.0 : static_cast<double>(frames) /
                                 static_cast<double>(runs);
  }
};

class Network {
 public:
  struct Options {
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

  Network(Simulator& sim, std::unique_ptr<DelayModel> delay, Rng rng,
          Options opts);
  /// Back-compat convenience: fifo-only options.
  Network(Simulator& sim, std::unique_ptr<DelayModel> delay, Rng rng,
          bool fifo = false)
      : Network(sim, std::move(delay), std::move(rng), Options{fifo, false, 1}) {}

  Simulator& sim() { return sim_; }

  /// Pool every payload buffer should come from and return to; processes
  /// reach it through Process::pool().
  BufferPool& pool() { return pool_; }

  [[nodiscard]] bool coalescing() const { return opts_.coalesce; }

  /// Pre-size the coalescing engine: `expected_batches` concurrently open
  /// delivery ticks (bounded by max-delay / tick) of `frames_per_batch`
  /// frames averaging `bytes_per_frame` payload bytes, plus an open-batch
  /// lookup table sized so distinct ticks rarely collide. Growth past these
  /// shapes still works — every capacity ratchets — but then warmup (not
  /// steady state) allocates. No-op when coalescing is off.
  void reserve_coalescing(std::size_t expected_batches,
                          std::size_t frames_per_batch,
                          std::size_t bytes_per_frame);

  /// Register the handler for a node. Must be called before any message is
  /// delivered to `id`. The process must outlive the network run.
  void attach(NodeId id, Process& p);

  /// Send a message. The src/dst fields must be filled in.
  void send(Message m);

  /// Fan-out entry point: send one message whose payload is copied from
  /// `bytes` (the caller keeps ownership). With coalescing on the bytes go
  /// straight into the destination batch's slab — no pooled buffer, no
  /// Message materialization; with it off this acquires a pooled copy,
  /// exactly what broadcast call sites used to do by hand. Empty payloads
  /// skip the pool in both modes (capacity-0 buffers never recycle).
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
  /// Batches ever created (live + free). Ratchets during warmup, then must
  /// stay flat — the coalescing analogue of Simulator::allocations().
  [[nodiscard]] std::size_t batch_pool_size() const { return batches_.size(); }

 private:
  /// One coalesced delivery-tick batch: every frame arriving at time `at`,
  /// appended in send order — which IS global (time, seq) delivery order,
  /// because sequences are reserved monotonically at send time. Frames'
  /// payload bytes live concatenated in `slab`; Frame::payload pointers are
  /// fixed up at seal time (first fire), after which no append can move the
  /// slab. All vectors keep their capacity across recycling, so a warmed
  /// batch pool appends and drains without allocating.
  struct FrameMeta {
    std::uint32_t off = 0;   ///< payload offset into slab
    Time sent = 0;           ///< original send time (delivery hooks)
    std::uint64_t seq = 0;   ///< reserved simulator sequence of this frame
  };
  struct Batch {
    Time at = 0;
    std::uint32_t open_slot = 0;  ///< open-table index while joinable
    bool sealed = false;
    std::vector<std::uint8_t> slab;
    std::vector<Frame> frames;
    std::vector<FrameMeta> meta;
  };
  /// Direct-mapped open-batch lookup: deliver-time -> batch index.
  /// Collisions simply evict — the evicted batch stays scheduled and is
  /// merely no longer joinable, which costs a little coalescing but never
  /// correctness: an evicted batch's sequences all precede those of any
  /// batch opened later for the same tick, so it drains first, in order.
  struct OpenEntry {
    Time at = -1;
    std::uint32_t batch = 0;
  };

  void deliver_later(Message m, Time sent);
  void deliver_now(Message m, Time sent);
  /// Drop `m`, recycling its payload storage.
  void discard(Message&& m);
  /// Throw std::logic_error naming `call` and its node ids if a handler or
  /// delivery hook is running.
  void refuse_while_dispatching(const char* call, NodeId a, NodeId b) const;

  /// Delay sample + tick quantization + FIFO clamp, shared verbatim by the
  /// per-message and batched paths (identical RNG draws, identical times).
  Time arrival_time(NodeId src, NodeId dst);
  /// Park a copy of a frame on a blocked link (batched slow path).
  void hold_copy(const Frame& f, Time sent);

  // ---- batched engine ----
  std::uint32_t acquire_batch();
  void recycle_batch(std::uint32_t bi);
  void enqueue_frame(NodeId src, NodeId dst, MsgType type, std::uint32_t key,
                     std::uint64_t rpc_id, ByteSpan bytes, Time sent, Time at);
  /// Seal (fix payload pointers, leave the open table) then drain frames
  /// [from, n) as maximal same-destination runs, yielding to the heap
  /// whenever an earlier event is due.
  void fire_batch(std::uint32_t bi, std::uint32_t from);

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

  std::vector<std::unique_ptr<Batch>> batches_;
  std::vector<std::uint32_t> free_batches_;
  std::vector<OpenEntry> open_tab_;  ///< power-of-two, direct-mapped
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
  /// Payload buffers should be acquired here and handed to send(); the
  /// network recycles them after delivery.
  BufferPool& pool() { return net_.pool(); }

  void send(NodeId dst, MsgType type, std::uint64_t rpc_id,
            std::vector<std::uint8_t> payload) {
    Message m;
    m.src = id_;
    m.dst = dst;
    m.type = type;
    m.rpc_id = rpc_id;
    m.payload = std::move(payload);
    net_.send(std::move(m));
  }

 private:
  NodeId id_;
  Network& net_;
};

}  // namespace mwreg
