// Simulation-core throughput: events/sec and messages/sec across protocols
// and cluster sizes, plus a live comparison of the pooled event engine
// against the verbatim pre-refactor engine (legacy_sim.h).
//
// Next to the plain-text report this bench writes BENCH_simcore.json, the
// artifact of the perf trajectory that scripts/bench_trend.py gates CI on.
// Schema (schema_version 6):
//
//   {
//     "bench": "simcore_throughput",
//     "schema_version": 4,
//     "engine_comparison": {            // same W2R1-shaped hop stream
//       "workload": "w2r1_replay_uniform_delay",
//       "hops": <uint>,                 //   through all three engines
//       "legacy_events_per_sec": <f>,   // priority_queue + std::function +
//                                       //   fresh vectors + std::set checks
//       "pooled_events_per_sec": <f>,   // slab heap + inline closures +
//                                       //   BufferPool + dense checks
//       "batched_events_per_sec": <f>,  // per-tick slab batches, one heap
//                                       //   event per tick (this PR)
//       "speedup": <f>,                 // pooled / legacy
//       "batched_speedup": <f>          // batched / pooled
//     },
//     "coalescing": {                   // same hop stream through the REAL
//       "workload": "w2r1_replay_real_network",
//       "frames": <uint>,               //   Network, both delivery engines
//       "per_message_events_per_sec": <f>,  // one heap event per message
//       "coalesced_events_per_sec": <f>,    // one per delivery tick
//       "coalesce_speedup": <f>,        // coalesced / per_message
//       "batches": <uint>,
//       "frames_per_batch": <f>,
//       "batch_size_hist": [{"ge": <uint>, "count": <uint>}, ...],
//       "steady_engine_allocs": <uint>, // post-warmup replay deltas;
//       "steady_pool_misses": <uint>    //   0 = allocation-free
//     },
//     "workloads": [                    // end-to-end harness runs
//       {"protocol": <s>, "cluster": <s>, "ops_per_client": <int>,
//        "events": <uint>, "msgs": <uint>, "bytes_on_wire": <uint>,
//        "wall_ms": <f>,
//        "events_per_sec": <f>, "msgs_per_sec": <f>,
//        "engine_allocs": <uint>,        // slab chunks + closure spills
//        "pool_misses": <uint>,          // payload buffers allocated fresh
//        "steady_engine_allocs": <uint>, // both deltas over a post-warmup
//        "steady_pool_misses": <uint>}   //   burst; 0 = allocation-free
//     ],
//     "fanout_replay": {                // schema v5: the dest-major
//       "workload": "w2r2_table_fanout",//   headline — one single-register
//       "protocol": "mw-abd(W2R2)",     //   W2R2 deployment, table-driven
//       "clients": <int>,               //   closed loop at a 10us tick,
//       "ops_per_client": <int>,        //   run twice (frame-order vs
//       "frames": <uint>,               //   destination-major drain)
//       "frame_order_events_per_sec": <f>,
//       "frame_order_mean_run_len": <f>,
//       "dest_major_events_per_sec": <f>,
//       "dest_major_speedup": <f>,      // dest_major / frame_order
//       "mean_run_len": <f>,            // dest-major lane; hard-gated >= 8
//       "dest_major_ticks": <uint>,     // ticks the dm drain handled
//       "staged_replies": <uint>,       // sends through the staging buffer
//       "wall_ms": <f>
//     },
//     "million_client": [               // table-driven keyspace runs
//       {"protocol": <s>, "keyspace": <s>,
//        "clients": <int>, "ops_per_client": <int>,
//        "coalesce": <bool>,             // batched delivery, 10us tick
//        "dest_major": <bool>,           // v5: dest-major drain (the
//        "mean_run_len": <f>,            //   default) vs frame-order twin
//        "events": <uint>, "msgs": <uint>, "wall_ms": <f>,
//        "events_per_sec": <f>,
//        "write_p99_ms": <f>, "read_p99_ms": <f>,    // pooled across keys
//        "per_key_read_p99_max_ms": <f>,             // worst single key
//        "steady_engine_allocs": <uint>,             // post-warmup deltas;
//        "steady_pool_misses": <uint>}               //   0 = allocation-free
//     ],
//     "checked_soak": {                 // schema v6: the 10^6-op dest-major
//       "workload": "million_client_checked",  // grid point re-run with a
//       "protocol": "mw-abd(W2R2)",     //   StreamingTagWitness live on
//       "keyspace": <s>,                //   every key history and prefix
//       "clients": <int>,               //   retirement on
//       "ops_per_client": <int>,
//       "ops_checked": <uint>,          // completions the checkers judged
//       "verdict_atomic": <bool>,       // must be true (trend-gated)
//       "peak_window": <uint>,          // max per-key window occupancy —
//                                       //   concurrency-bounded, trend-gated
//       "peak_pending": <uint>,         // max in-flight ops tracked
//       "retired_tags": <uint>,         // window entries GC'd by watermark
//       "history_live": <uint>,         // recorder entries left after
//                                       //   prefix retirement
//       "events": <uint>, "wall_ms": <f>,
//       "events_per_sec": <f>,          // trend-gated ratio vs baseline
//       "checker_ns_per_op": <f>,       // (checked - unchecked twin) wall
//       "steady_engine_allocs": <uint>, // post-warmup deltas;
//       "steady_pool_misses": <uint>    //   0 = allocation-free, gated
//     },
//     "valuevector": [                  // long-horizon GC rows (schema in
//       ...                            //   bench/valuevector_rows.h):
//     ]                                //   bytes-on-wire + windowed
//   }                                  //   read-ack sizes, GC vs. ablation
//
// Schema v2 added bytes_on_wire to workload rows and the "valuevector"
// section (the GC+delta protocol vs. its gc_enabled=false ablation on
// long-horizon W2R1/W4R4 runs). Schema v3 added the "million_client"
// section: 10^5- and 10^6-op closed loops through ONE harness hosting
// 10^4/10^5 table-driven clients over a 64-key Zipfian keyspace. Schema v4
// adds a batched engine row to engine_comparison (per-tick slab batches,
// the cost model of this PR's coalesced fast path), the "coalescing"
// section (per-message vs. batched per-tick delivery through the real
// Network on the same hop stream, with the batch-size histogram) and a
// "coalesce" flag + rows to million_client;
// million_client "events" became the logical frame count so events_per_sec
// compares across engines. Schema v5 adds the "fanout_replay" section (the
// destination-major drain's headline: dispatched-run length and throughput
// on a W2R2 table fan-out, frame-order vs dest-major twins), a
// "dest_major" flag + frame-order twin rows to million_client, and
// "mean_run_len" to coalesced rows. Schema v6 adds the "checked_soak"
// section: the 10^6-op dest-major grid point with the streaming tag-witness
// checker subscribed to every key history and settled-prefix retirement on,
// reporting the checker's overhead (checker_ns_per_op vs the unchecked
// twin) and its memory high-water marks (peak_window stays bounded by the
// concurrency window, not the horizon). Latency columns are deliberately
// absent there — retired records are gone, so the live suffix would bias
// percentiles. Compare runs by diffing events_per_sec
// per row and the speedup columns; steady_* columns must stay 0 — or let
// scripts/bench_trend.py do it against bench/baselines/.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "valuevector_rows.h"
#include "core/harness.h"
#include "core/workload.h"
#include "legacy_sim.h"
#include "protocols/protocols.h"
#include "sim/buffer_pool.h"
#include "sim/simulator.h"

namespace mwreg::bench {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---- engine comparison: identical hop stream through both engines ----
//
// The replay reproduces the per-hop costs of a Network delivery in each
// era: sample a delay, materialize a payload buffer, schedule a closure
// carrying it, and at delivery run the crash/block checks and dispose of
// the buffer. The legacy side pays what the pre-refactor Network paid
// (std::function heap captures, a fresh std::vector per hop, std::set
// lookups); the pooled side pays what the refactored Network pays (inline
// slab closures, recycled buffers, dense-array checks).

// Payload model: each hop materializes a buffer of the recorded size and
// disposes of it at delivery. The bytes a hop carries matter: the legacy
// engine's priority_queue step copied the scheduled std::function out of
// top(), which deep-copied the captured Message — payload included — so a
// size-n payload is part of the baseline's per-hop cost exactly as it was
// in the PR 2 tree.

/// Pre-refactor cost model.
struct LegacyEnv {
  LegacySimulator sim;
  std::set<NodeId> crashed;
  std::set<std::pair<NodeId, NodeId>> blocked;

  std::vector<std::uint8_t> make_payload(std::uint32_t n) {
    return std::vector<std::uint8_t>(n);  // fresh allocation, like ByteWriter
  }
  void recycle(std::vector<std::uint8_t>&&) {}  // freed, like ~Message
  bool deliverable(NodeId src, NodeId dst) {
    return crashed.count(src) == 0 && crashed.count(dst) == 0 &&
           blocked.count({src, dst}) == 0;
  }
};

/// Pooled cost model (the refactored Network's fast path).
struct PooledEnv {
  Simulator sim;
  BufferPool pool;
  std::vector<std::uint8_t> crashed_flags;
  int num_crashed = 0;
  int num_blocked = 0;

  std::vector<std::uint8_t> make_payload(std::uint32_t n) {
    auto b = pool.acquire();  // recycled capacity, like pooled ByteWriter
    b.resize(n);
    return b;
  }
  void recycle(std::vector<std::uint8_t>&& b) { pool.release(std::move(b)); }
  bool deliverable(NodeId src, NodeId dst) {
    if (num_crashed > 0 &&
        (crashed_flags[static_cast<std::size_t>(src)] != 0 ||
         crashed_flags[static_cast<std::size_t>(dst)] != 0)) {
      return false;
    }
    return num_blocked == 0;  // dense row walk elided: no active blocks
  }
};

/// One message hop of the replay trace: payload size, endpoints, delay.
/// Precomputed outside the timed region so both engines execute the exact
/// same hop stream and the measurement isolates the engine + buffer +
/// fault-check layers (the three layers the refactor touched).
struct Hop {
  std::uint32_t size;
  NodeId src;
  NodeId dst;
  Duration delay;
};

template <typename Env>
struct Replayer {
  /// Cycles through the trace `rounds` times so one timed run is long
  /// enough (tens of ms) for stable wall-clock numbers.
  Replayer(const std::vector<Hop>& trace, int rounds)
      : hops(trace),
        remaining(trace.size() * static_cast<std::size_t>(rounds)) {}

  void schedule_hop() {
    if (remaining == 0) return;
    --remaining;
    const Hop hop = hops[next];
    if (++next == hops.size()) next = 0;
    auto payload = env.make_payload(hop.size);
    env.sim.schedule_after(
        hop.delay,
        [this, payload = std::move(payload), src = hop.src,
         dst = hop.dst]() mutable {
          benchmark::DoNotOptimize(payload.data());
          if (env.deliverable(src, dst)) env.recycle(std::move(payload));
          schedule_hop();
        });
  }

  double events_per_sec(int fanout) {
    const std::size_t total = remaining;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < fanout; ++i) schedule_hop();
    while (env.sim.step()) {
    }
    return static_cast<double>(total) / seconds_since(t0);
  }

  Env env;
  const std::vector<Hop>& hops;
  std::size_t next = 0;
  std::size_t remaining = 0;
};

/// Batched cost model (the coalesced Network's fast path): no per-hop
/// buffer and no per-hop heap event. A hop reserves a sequence number,
/// memcpys its payload into the open slab of its quantized arrival tick,
/// and rides the single event scheduled when that tick opened; the drain
/// pays one fault check per run and one heap-top compare per frame — the
/// exact per-frame work Network::fire_batch does with no fault active.
struct BatchedReplayer {
  static constexpr Duration kTick = kMillisecond;
  /// Direct-mapped per-tick batch. 32 slots cover the 10ms delay horizon
  /// three times over, so a slot is never reclaimed while still open.
  struct Tick {
    Time at = -1;
    std::vector<std::uint8_t> slab;
    std::vector<std::uint32_t> sizes;
    std::vector<std::uint64_t> seqs;
  };

  BatchedReplayer(const std::vector<Hop>& trace, int rounds)
      : hops(trace),
        remaining(trace.size() * static_cast<std::size_t>(rounds)) {
    ticks.resize(32);
    std::uint32_t max_sz = 0;
    for (const Hop& h : trace) max_sz = std::max(max_sz, h.size);
    scratch.assign(max_sz, 0xA5);
  }

  void schedule_hop() {
    if (remaining == 0) return;
    --remaining;
    const Hop hop = hops[next];
    if (++next == hops.size()) next = 0;
    const std::uint64_t seq = sim.reserve_seq();
    const Time at =
        ((sim.now() + hop.delay + kTick - 1) / kTick) * kTick;
    const std::size_t idx =
        static_cast<std::size_t>(at / kTick) & (ticks.size() - 1);
    Tick& t = ticks[idx];
    if (t.at != at) {
      t.at = at;
      t.slab.clear();
      t.sizes.clear();
      t.seqs.clear();
      sim.schedule_at_seq(at, seq, [this, idx] { fire(idx); });
    }
    t.slab.insert(t.slab.end(), scratch.data(), scratch.data() + hop.size);
    t.sizes.push_back(hop.size);
    t.seqs.push_back(seq);
  }

  void fire(std::size_t idx) {
    Tick& t = ticks[idx];
    const Time at = t.at;
    t.at = -1;  // close: follow-on hops land on strictly later ticks
    const std::size_t n = t.sizes.size();
    const std::uint8_t* base = t.slab.data();
    std::size_t off = 0;
    std::size_t i = 0;
    while (i < n) {
      std::size_t j = i + 1;
      while (j < n && !sim.has_event_before(at, t.seqs[j])) ++j;
      if (num_crashed == 0) {  // one fault check per dispatched run
        benchmark::DoNotOptimize(base);
      }
      for (; i < j; ++i) {
        benchmark::DoNotOptimize(base + off);
        off += t.sizes[i];
        schedule_hop();
      }
    }
  }

  double events_per_sec(int fanout) {
    const std::size_t total = remaining;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < fanout; ++i) schedule_hop();
    while (sim.step()) {
    }
    return static_cast<double>(total) / seconds_since(t0);
  }

  Simulator sim;
  int num_crashed = 0;
  std::vector<Tick> ticks;
  const std::vector<Hop>& hops;
  std::vector<std::uint8_t> scratch;
  std::size_t next = 0;
  std::size_t remaining = 0;
};

/// Payload sizes of every hop of a real W2R1 uniform-delay workload run,
/// so the replay stresses the engines with the true size distribution.
std::vector<std::uint32_t> capture_w2r1_hop_sizes(int ops_per_client) {
  const Protocol* p = protocol_by_name("fast-read-mw(W2R1)");
  SimHarness::Options o;
  o.cfg = ClusterConfig{5, 2, 1, 1};
  o.seed = 42;
  o.delay = std::make_unique<UniformDelay>(kMillisecond, 10 * kMillisecond);
  SimHarness h(*p, std::move(o));
  std::vector<std::uint32_t> sizes;
  h.net().set_delivery_hook([&sizes](const Frame& m, Time, Time) {
    sizes.push_back(static_cast<std::uint32_t>(m.payload.size()));
  });
  WorkloadOptions w;
  w.ops_per_writer = ops_per_client;
  w.ops_per_reader = ops_per_client;
  run_random_workload(h, w);
  return sizes;
}

struct EngineComparison {
  std::uint64_t hops = 0;
  double legacy_eps = 0;
  double pooled_eps = 0;
  double batched_eps = 0;
  [[nodiscard]] double speedup() const {
    return legacy_eps > 0 ? pooled_eps / legacy_eps : 0;
  }
  [[nodiscard]] double batched_speedup() const {
    return pooled_eps > 0 ? batched_eps / pooled_eps : 0;
  }
};

EngineComparison compare_engines(const std::vector<std::uint32_t>& sizes) {
  std::vector<Hop> trace;
  trace.reserve(sizes.size());
  Rng rng(7);
  for (std::uint32_t sz : sizes) {
    Hop h;
    h.size = sz;
    h.src = static_cast<NodeId>(rng.next_below(8));
    h.dst = static_cast<NodeId>(rng.next_below(8));
    h.delay =
        kMillisecond + static_cast<Duration>(rng.next_below(9 * kMillisecond));
    trace.push_back(h);
  }
  EngineComparison cmp;
  constexpr int kFanout = 15;  // 3 clients x 5 servers in flight
  constexpr int kRounds = 20;  // cycle the trace: ~300k hops per timed run
  constexpr int kReps = 5;     // best-of, to shed scheduler noise
  // The batched engine's win is amortization over fan-out, so it replays
  // at the in-flight count of the regime coalescing targets (the same 512
  // the real-Network replay below uses); the per-hop cost of the other two
  // engines is fan-out-independent, so their rows stay comparable.
  constexpr int kBatchedFanout = 512;
  cmp.hops = trace.size() * kRounds;
  for (int rep = 0; rep < kReps; ++rep) {
    Replayer<LegacyEnv> legacy(trace, kRounds);
    cmp.legacy_eps = std::max(cmp.legacy_eps, legacy.events_per_sec(kFanout));
    Replayer<PooledEnv> pooled(trace, kRounds);
    cmp.pooled_eps = std::max(cmp.pooled_eps, pooled.events_per_sec(kFanout));
    BatchedReplayer batched(trace, kRounds);
    cmp.batched_eps =
        std::max(cmp.batched_eps, batched.events_per_sec(kBatchedFanout));
  }
  return cmp;
}

// ---- coalesced delivery replay: the real Network, both engines ----
//
// Unlike the engine comparison above (raw simulator cost models), this
// replays a closed-loop hop stream through the REAL Network stack twice —
// per-message scheduling vs. batched per-tick delivery — at the same
// tick, so the measured difference is coalescing itself: one heap event
// and one dispatch per batch instead of per message, frames appended to
// pre-sized per-destination slabs instead of pooled per-message buffers.

struct NetReplayDriver {
  explicit NetReplayDriver(const std::vector<std::uint32_t>& s) : sizes(s) {}

  const std::vector<std::uint32_t>& sizes;  ///< recorded payload sizes
  std::vector<std::uint8_t> scratch;        ///< payload byte source
  Network* net = nullptr;
  std::size_t next = 0;
  std::uint64_t remaining = 0;
  int ndst = 0;

  void send_next(NodeId src) {
    if (remaining == 0) return;
    --remaining;
    const std::uint32_t sz = sizes[next];
    if (++next == sizes.size()) next = 0;
    const NodeId dst = static_cast<NodeId>(
        (static_cast<std::uint32_t>(src) + 1 + sz) %
        static_cast<std::uint32_t>(ndst));
    net->send_bytes(src, dst, /*type=*/1, /*key=*/0, /*rpc_id=*/0,
                    ByteSpan(scratch.data(), sz));
  }
};

/// Closed-loop sink: every delivered frame triggers the next hop, keeping
/// the configured fan-out in flight. Runs unmodified on both engines —
/// Process::on_deliver_batch's default replays the batch per frame.
class ReplaySink final : public Process {
 public:
  ReplaySink(NodeId id, Network& net, NetReplayDriver& d)
      : Process(id, net), d_(d) {}
  void on_message(const Frame& m) override {
    benchmark::DoNotOptimize(m.payload.data());
    d_.send_next(id());
  }

 private:
  NetReplayDriver& d_;
};

struct CoalescedReplay {
  std::uint64_t frames = 0;  ///< hops delivered in one timed run
  double per_message_eps = 0;
  double coalesced_eps = 0;
  std::uint64_t batches = 0;
  std::uint64_t coalesced_frames = 0;  ///< frames through batch delivery
  std::uint64_t hist[CoalesceStats::kHistBuckets] = {};
  std::uint64_t steady_engine_allocs = 0;
  std::uint64_t steady_pool_misses = 0;

  [[nodiscard]] double speedup() const {
    return per_message_eps > 0 ? coalesced_eps / per_message_eps : 0;
  }
  [[nodiscard]] double frames_per_batch() const {
    return batches > 0
               ? static_cast<double>(coalesced_frames) /
                     static_cast<double>(batches)
               : 0;
  }
};

CoalescedReplay measure_coalesced_delivery(
    const std::vector<std::uint32_t>& sizes) {
  constexpr int kDsts = 8;     // replica-group-sized destination set
  constexpr int kFanout = 512; // closed-loop hops in flight
  constexpr int kRounds = 20;  // ~300k hops per timed run
  constexpr int kReps = 5;     // best-of, to shed scheduler noise
  const std::uint64_t hops = sizes.size() * kRounds;
  std::uint32_t max_sz = 0;
  for (std::uint32_t s : sizes) max_sz = std::max(max_sz, s);

  auto run_once = [&](bool coalesce, CoalescedReplay* out) {
    Simulator sim;
    Network::Options nopts;
    nopts.coalesce = coalesce;
    // Same tick on both sides: quantization is not what is being measured.
    nopts.tick = kMillisecond;
    Network net(sim,
                std::make_unique<UniformDelay>(kMillisecond, 10 * kMillisecond),
                Rng(7), nopts);
    if (coalesce) {
      net.reserve_coalescing(kDsts * 16, kFanout / kDsts, max_sz);
    }
    NetReplayDriver d{sizes};
    d.scratch.assign(max_sz, 0xA5);
    d.net = &net;
    d.remaining = hops;
    d.ndst = kDsts;
    std::vector<std::unique_ptr<ReplaySink>> sinks;
    sinks.reserve(kDsts);
    for (int i = 0; i < kDsts; ++i) {
      sinks.push_back(
          std::make_unique<ReplaySink>(static_cast<NodeId>(i), net, d));
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kFanout; ++i) {
      d.send_next(static_cast<NodeId>(i % kDsts));
    }
    sim.run();
    const double secs = seconds_since(t0);
    const std::uint64_t delivered = net.stats().delivered;
    if (out != nullptr) {
      out->frames = delivered;
      if (coalesce) {
        const CoalesceStats& cs = net.coalesce_stats();
        out->batches = cs.batches;
        out->coalesced_frames = cs.frames;
        for (int b = 0; b < CoalesceStats::kHistBuckets; ++b) {
          out->hist[b] = cs.hist[b];
        }
        // Steady-state probe: one more trace round on the warm network —
        // batch rings, slabs, and the event slab must all be ratcheted.
        const std::uint64_t a0 = sim.allocations();
        const std::uint64_t m0 = net.pool().stats().misses;
        d.remaining = sizes.size();
        for (int i = 0; i < kFanout; ++i) {
          d.send_next(static_cast<NodeId>(i % kDsts));
        }
        sim.run();
        out->steady_engine_allocs = sim.allocations() - a0;
        out->steady_pool_misses = net.pool().stats().misses - m0;
      }
    }
    return static_cast<double>(delivered) / secs;
  };

  CoalescedReplay r;
  for (int rep = 0; rep < kReps; ++rep) {
    r.per_message_eps = std::max(r.per_message_eps, run_once(false, nullptr));
    // Counters are deterministic across reps; capture them on the first.
    r.coalesced_eps =
        std::max(r.coalesced_eps, run_once(true, rep == 0 ? &r : nullptr));
  }
  return r;
}

// ---- end-to-end harness throughput across the design space ----

struct WorkloadRow {
  std::string protocol;
  std::string cluster;
  int ops_per_client = 0;
  std::uint64_t events = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes_on_wire = 0;
  double wall_ms = 0;
  std::uint64_t engine_allocs = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t steady_engine_allocs = 0;
  std::uint64_t steady_pool_misses = 0;

  [[nodiscard]] double events_per_sec() const {
    return wall_ms > 0 ? static_cast<double>(events) / (wall_ms / 1e3) : 0;
  }
  [[nodiscard]] double msgs_per_sec() const {
    return wall_ms > 0 ? static_cast<double>(msgs) / (wall_ms / 1e3) : 0;
  }
};

WorkloadRow run_workload(const std::string& protocol, const ClusterConfig& cfg,
                         int ops_per_client) {
  const Protocol* p = protocol_by_name(protocol);
  SimHarness::Options o;
  o.cfg = cfg;
  o.seed = 42;
  o.delay = std::make_unique<UniformDelay>(kMillisecond, 10 * kMillisecond);
  SimHarness h(*p, std::move(o));
  WorkloadOptions w;
  w.ops_per_writer = ops_per_client;
  w.ops_per_reader = ops_per_client;

  WorkloadRow row;
  row.protocol = protocol;
  row.cluster = cfg.to_string();
  row.ops_per_client = ops_per_client;
  const auto t0 = std::chrono::steady_clock::now();
  run_random_workload(h, w);
  row.wall_ms = seconds_since(t0) * 1e3;
  row.events = h.sim().executed();
  row.msgs = h.net().stats().sent;
  row.bytes_on_wire = h.net().stats().bytes_sent;
  row.engine_allocs = h.sim().allocations();
  row.pool_misses = h.net().pool().stats().misses;

  // Steady-state probe: more closed-loop traffic on the same harness must
  // not move either allocation counter — the pool and slab are warm, and a
  // closed loop never needs a larger working set than the run that warmed
  // them (the regression test pins the same property; here it is recorded
  // in the artifact every run).
  WorkloadOptions probe;
  probe.ops_per_writer = 1;
  probe.ops_per_reader = 1;
  run_random_workload(h, probe);
  row.steady_engine_allocs = h.sim().allocations() - row.engine_allocs;
  row.steady_pool_misses = h.net().pool().stats().misses - row.pool_misses;
  return row;
}

// ---- million-client keyspace rows ----

/// One table-driven keyspace run: `clients` closed-loop clients (half
/// writers, half readers) over a 64-key, 8-shard Zipfian keyspace in a
/// single harness. ops_per_client * clients is the op count: 10^5 and 10^6
/// at the two grid points.
struct MillionRow {
  int clients = 0;
  int ops_per_client = 0;
  bool coalesce = false;    ///< batched delivery at a 10us tick
  bool dest_major = false;  ///< destination-major drain (coalesce only)
  double mean_run_len = 0;  ///< frames per dispatched run (coalesce only)
  std::string protocol;
  std::string keyspace;
  std::uint64_t events = 0;
  std::uint64_t msgs = 0;
  double wall_ms = 0;
  double write_p99_ms = 0;          ///< pooled across keys
  double read_p99_ms = 0;           ///< pooled across keys
  double per_key_read_p99_max_ms = 0;  ///< worst single key
  std::uint64_t steady_engine_allocs = 0;
  std::uint64_t steady_pool_misses = 0;

  [[nodiscard]] double events_per_sec() const {
    return wall_ms > 0 ? static_cast<double>(events) / (wall_ms / 1e3) : 0;
  }
};

MillionRow run_million_client(int clients, int ops_per_client,
                              bool coalesce = false, bool dest_major = true) {
  const Protocol* p = protocol_by_name("mw-abd(W2R2)");
  SimHarness::Options o;
  o.cfg = ClusterConfig{5, clients / 2, clients - clients / 2, 1};
  o.keyspace = KeyspaceConfig{64, 8, 0.99};
  o.seed = 42;
  o.delay = std::make_unique<UniformDelay>(kMillisecond, 10 * kMillisecond);
  o.coalesce = coalesce;
  if (coalesce) {
    o.tick = 10 * kMicrosecond;  // quantize so same-tick traffic batches
    o.dest_major = dest_major;
  }
  SimHarness h(*p, std::move(o));

  MillionRow row;
  row.clients = clients;
  row.ops_per_client = ops_per_client;
  row.coalesce = coalesce;
  row.dest_major = coalesce && dest_major;
  row.protocol = "mw-abd(W2R2)";
  row.keyspace = h.keyspace().to_string();

  WorkloadOptions w;
  w.ops_per_writer = ops_per_client;
  w.ops_per_reader = ops_per_client;
  const auto t0 = std::chrono::steady_clock::now();
  run_random_workload(h, w);
  row.wall_ms = seconds_since(t0) * 1e3;
  // Logical event count (one per enqueued frame, as in exp::Runner): the
  // coalesced engine executes fewer heap events for the same traffic, so
  // events_per_sec stays comparable across the two modes.
  const CoalesceStats& cs = h.net().coalesce_stats();
  row.events = h.sim().executed() - cs.batches - cs.continuations + cs.enqueued;
  row.msgs = h.net().stats().sent;
  row.mean_run_len = coalesce ? cs.mean_run_len() : 0;

  std::vector<double> writes, reads;
  for (int k = 0; k < h.num_keys(); ++k) {
    std::vector<double> kw = latency_samples_ms(h.key_history(k), OpKind::kWrite);
    std::vector<double> kr = latency_samples_ms(h.key_history(k), OpKind::kRead);
    row.per_key_read_p99_max_ms = std::max(
        row.per_key_read_p99_max_ms, summarize_latency(kr).p99_ms);
    writes.insert(writes.end(), kw.begin(), kw.end());
    reads.insert(reads.end(), kr.begin(), kr.end());
  }
  row.write_p99_ms = summarize_latency(std::move(writes)).p99_ms;
  row.read_p99_ms = summarize_latency(std::move(reads)).p99_ms;

  // Steady-state probe: one more closed-loop op per client on the warm
  // table must leave both allocation counters untouched.
  const std::uint64_t engine_allocs = h.sim().allocations();
  const std::uint64_t pool_misses = h.net().pool().stats().misses;
  WorkloadOptions probe;
  probe.ops_per_writer = 1;
  probe.ops_per_reader = 1;
  run_random_workload(h, probe);
  row.steady_engine_allocs = h.sim().allocations() - engine_allocs;
  row.steady_pool_misses = h.net().pool().stats().misses - pool_misses;
  return row;
}

// ---- checked soak: the 10^6-op grid point with the checker live ----

/// The dest-major million-client run re-executed with a StreamingTagWitness
/// subscribed to every key history and settled-prefix retirement on: one
/// harness, 64 keys, 10^6 ops, every completion judged as it lands. Proves
/// the run can be checked live in window-bounded memory and measures what
/// that costs next to the unchecked twin (the matching million_client row).
/// No latency columns: retired records are gone, so the live suffix would
/// bias percentiles.
struct CheckedSoakRow {
  int clients = 0;
  int ops_per_client = 0;
  std::string protocol;
  std::string keyspace;
  std::uint64_t ops_checked = 0;  ///< completions judged, summed over keys
  bool verdict_atomic = false;
  std::uint64_t peak_window = 0;   ///< worst per-key window occupancy
  std::uint64_t peak_pending = 0;  ///< worst per-key in-flight count
  std::uint64_t retired_tags = 0;  ///< window entries GC'd by the watermark
  std::uint64_t history_live = 0;  ///< recorder entries left after retirement
  std::uint64_t events = 0;
  double wall_ms = 0;
  double unchecked_wall_ms = 0;  ///< the twin row's wall, for the overhead
  std::uint64_t steady_engine_allocs = 0;
  std::uint64_t steady_pool_misses = 0;

  [[nodiscard]] double events_per_sec() const {
    return wall_ms > 0 ? static_cast<double>(events) / (wall_ms / 1e3) : 0;
  }
  [[nodiscard]] double checker_ns_per_op() const {
    if (ops_checked == 0) return 0;
    // Wall jitter can make the checked run marginally faster; clamp so the
    // reported overhead is never negative.
    const double delta_ms = std::max(0.0, wall_ms - unchecked_wall_ms);
    return delta_ms * 1e6 / static_cast<double>(ops_checked);
  }
};

CheckedSoakRow run_checked_soak(int clients, int ops_per_client,
                                double unchecked_wall_ms) {
  const Protocol* p = protocol_by_name("mw-abd(W2R2)");
  SimHarness::Options o;
  o.cfg = ClusterConfig{5, clients / 2, clients - clients / 2, 1};
  o.keyspace = KeyspaceConfig{64, 8, 0.99};
  o.seed = 42;
  o.delay = std::make_unique<UniformDelay>(kMillisecond, 10 * kMillisecond);
  o.coalesce = true;
  o.tick = 10 * kMicrosecond;
  o.dest_major = true;
  o.streaming_check = true;
  o.retire_history = true;
  SimHarness h(*p, std::move(o));

  CheckedSoakRow row;
  row.clients = clients;
  row.ops_per_client = ops_per_client;
  row.protocol = "mw-abd(W2R2)";
  row.keyspace = h.keyspace().to_string();
  row.unchecked_wall_ms = unchecked_wall_ms;

  WorkloadOptions w;
  w.ops_per_writer = ops_per_client;
  w.ops_per_reader = ops_per_client;
  const auto t0 = std::chrono::steady_clock::now();
  run_random_workload(h, w);
  row.wall_ms = seconds_since(t0) * 1e3;
  const CoalesceStats& cs = h.net().coalesce_stats();
  row.events = h.sim().executed() - cs.batches - cs.continuations + cs.enqueued;

  // Steady-state probe (same contract as the unchecked rows): the checker
  // and the retirement path must not disturb the engine's allocation-free
  // steady state.
  const std::uint64_t engine_allocs = h.sim().allocations();
  const std::uint64_t pool_misses = h.net().pool().stats().misses;
  WorkloadOptions probe;
  probe.ops_per_writer = 1;
  probe.ops_per_reader = 1;
  run_random_workload(h, probe);
  row.steady_engine_allocs = h.sim().allocations() - engine_allocs;
  row.steady_pool_misses = h.net().pool().stats().misses - pool_misses;

  row.verdict_atomic = true;
  for (int k = 0; k < h.num_keys(); ++k) {
    StreamingTagWitness* sc = h.stream_checker(k);
    if (!sc->finish().atomic) row.verdict_atomic = false;
    const StreamingStats& st = sc->stats();
    row.ops_checked += st.completions;
    row.peak_window = std::max<std::uint64_t>(row.peak_window, st.peak_window);
    row.peak_pending =
        std::max<std::uint64_t>(row.peak_pending, st.peak_pending);
    row.retired_tags += st.retired_tags;
    row.history_live +=
        h.key_history(k).size() - h.key_history(k).retired_count();
  }
  return row;
}

// ---- W2R2 fan-out replay: dispatched-run length under dest-major ----

/// The destination-major drain's headline measurement: one single-register
/// mw-abd(W2R2) deployment, 10^4 table-driven closed-loop clients at a
/// 10us tick. Every server ack fans out to table clients and the whole
/// ClientTable is ONE process, so a tick's ack traffic regroups into a
/// single long run — this is the workload the run-length gate
/// (scripts/bench_trend.py: mean_run_len >= 8) pins.
struct FanoutReplay {
  int clients = 0;
  int ops_per_client = 0;
  std::uint64_t frames = 0;  ///< frames through batch delivery (dm lane)
  double frame_order_eps = 0;
  double frame_order_mean_run_len = 0;
  double dest_major_eps = 0;
  double mean_run_len = 0;  ///< dest-major lane; trend-gated >= 8
  std::uint64_t dest_major_ticks = 0;
  std::uint64_t staged_replies = 0;
  double wall_ms = 0;  ///< dest-major lane, best rep

  [[nodiscard]] double speedup() const {
    return frame_order_eps > 0 ? dest_major_eps / frame_order_eps : 0;
  }
};

FanoutReplay run_fanout_replay() {
  constexpr int kClients = 10'000;
  constexpr int kOps = 4;
  auto lane = [](bool dest_major, double* wall_out, CoalesceStats* stats_out) {
    const Protocol* p = protocol_by_name("mw-abd(W2R2)");
    SimHarness::Options o;
    o.cfg = ClusterConfig{5, kClients / 2, kClients / 2, 1};
    o.seed = 42;
    o.delay = std::make_unique<UniformDelay>(kMillisecond, 10 * kMillisecond);
    o.coalesce = true;
    o.tick = 10 * kMicrosecond;
    o.dest_major = dest_major;
    SimHarness h(*p, std::move(o));
    WorkloadOptions w;
    w.ops_per_writer = kOps;
    w.ops_per_reader = kOps;
    const auto t0 = std::chrono::steady_clock::now();
    run_random_workload(h, w);
    const double secs = seconds_since(t0);
    if (wall_out != nullptr) *wall_out = secs * 1e3;
    const CoalesceStats& cs = h.net().coalesce_stats();
    if (stats_out != nullptr) *stats_out = cs;
    // Logical event count, as in the million-client rows: comparable
    // across drain modes.
    const std::uint64_t logical =
        h.sim().executed() - cs.batches - cs.continuations + cs.enqueued;
    return static_cast<double>(logical) / secs;
  };

  FanoutReplay r;
  r.clients = kClients;
  r.ops_per_client = kOps;
  CoalesceStats frame_order{};
  CoalesceStats dest_major{};
  constexpr int kReps = 2;  // best-of: counters are deterministic across reps
  for (int rep = 0; rep < kReps; ++rep) {
    r.frame_order_eps = std::max(
        r.frame_order_eps, lane(false, nullptr, rep == 0 ? &frame_order : nullptr));
    double wall = 0;
    const double eps = lane(true, &wall, rep == 0 ? &dest_major : nullptr);
    if (eps > r.dest_major_eps) {
      r.dest_major_eps = eps;
      r.wall_ms = wall;
    }
  }
  r.frames = dest_major.frames;
  r.frame_order_mean_run_len = frame_order.mean_run_len();
  r.mean_run_len = dest_major.mean_run_len();
  r.dest_major_ticks = dest_major.dest_major;
  r.staged_replies = dest_major.staged;
  return r;
}

// ---- report + artifact ----

void report() {
  header("Simulation-core throughput (pooled engine)");

  const std::vector<std::uint32_t> hop_sizes = capture_w2r1_hop_sizes(300);
  const EngineComparison cmp = compare_engines(hop_sizes);
  header("Engine comparison: W2R1-shaped hop replay, uniform 1..10ms delays");
  row({"engine", "events/sec", "hops"}, {24, 16, 10});
  row({"legacy (PR 2)", fmt(cmp.legacy_eps, 0), std::to_string(cmp.hops)},
      {24, 16, 10});
  row({"pooled (PR 3)", fmt(cmp.pooled_eps, 0), std::to_string(cmp.hops)},
      {24, 16, 10});
  row({"batched (this PR)", fmt(cmp.batched_eps, 0), std::to_string(cmp.hops)},
      {24, 16, 10});
  row({"speedup", fmt(cmp.speedup(), 2) + "x (pooled/legacy)", ""},
      {24, 28, 10});
  row({"", fmt(cmp.batched_speedup(), 2) + "x (batched/pooled)", ""},
      {24, 28, 10});

  const CoalescedReplay co = measure_coalesced_delivery(hop_sizes);
  header("Batched delivery: same hop stream through the real Network stack");
  row({"engine", "frames/sec", "frames"}, {24, 16, 10});
  row({"per-message", fmt(co.per_message_eps, 0), std::to_string(co.frames)},
      {24, 16, 10});
  row({"coalesced (this PR)", fmt(co.coalesced_eps, 0),
       std::to_string(co.frames)},
      {24, 16, 10});
  row({"speedup", fmt(co.speedup(), 2) + "x",
       fmt(co.frames_per_batch(), 1) + "/batch"},
      {24, 16, 10});

  const std::vector<std::pair<std::string, ClusterConfig>> grid = {
      {"fast-read-mw(W2R1)", ClusterConfig{5, 2, 1, 1}},
      {"fast-read-mw(W2R1)", ClusterConfig{9, 2, 1, 2}},
      {"fast-read-mw-nogc(W2R1)", ClusterConfig{5, 2, 1, 1}},
      {"mw-abd(W2R2)", ClusterConfig{3, 2, 2, 1}},
      {"mw-abd(W2R2)", ClusterConfig{5, 2, 2, 2}},
      {"fast-swmr(W1R1)", ClusterConfig{5, 1, 1, 1}},
  };
  std::vector<WorkloadRow> rows;
  rows.reserve(grid.size());
  for (const auto& [proto, cfg] : grid) {
    // Best-of-3: the run is deterministic (events, bytes, counters are
    // identical across reps), only wall time jitters on shared runners —
    // keep the fastest rep so the perf-trend gate diffs a stable number.
    WorkloadRow best = run_workload(proto, cfg, 300);
    for (int rep = 1; rep < 3; ++rep) {
      WorkloadRow r = run_workload(proto, cfg, 300);
      if (r.wall_ms < best.wall_ms) best = r;
    }
    rows.push_back(std::move(best));
  }

  header("End-to-end workload throughput (300 ops/client, uniform 1..10ms)");
  row({"protocol", "cluster", "events/s", "msgs/s", "allocs", "steady"},
      {24, 18, 12, 12, 8, 8});
  for (const WorkloadRow& r : rows) {
    row({r.protocol, r.cluster, fmt(r.events_per_sec(), 0),
         fmt(r.msgs_per_sec(), 0),
         std::to_string(r.engine_allocs + r.pool_misses),
         std::to_string(r.steady_engine_allocs + r.steady_pool_misses)},
        {24, 18, 12, 12, 8, 8});
  }

  const FanoutReplay fanout = run_fanout_replay();
  header("W2R2 table fan-out: dispatched-run length (10us tick)");
  row({"drain", "events/s", "mean run", "dm ticks", "staged"},
      {24, 14, 10, 10, 10});
  row({"frame-order", fmt(fanout.frame_order_eps, 0),
       fmt(fanout.frame_order_mean_run_len, 2), "-", "-"},
      {24, 14, 10, 10, 10});
  row({"dest-major (this PR)", fmt(fanout.dest_major_eps, 0),
       fmt(fanout.mean_run_len, 2), std::to_string(fanout.dest_major_ticks),
       std::to_string(fanout.staged_replies)},
      {24, 14, 10, 10, 10});
  row({"speedup", fmt(fanout.speedup(), 2) + "x", "", "", ""},
      {24, 14, 10, 10, 10});

  // Million-client grid: 10^5 and 10^6 total ops through one table-driven
  // harness, per-message vs batched, and (v5) the batched rows twinned
  // frame-order vs destination-major. Long runs — a single rep per row is
  // already stable, and the trend gate normalizes by the engine
  // calibration anyway.
  const std::vector<MillionRow> million = {
      run_million_client(10'000, 10),                            // 10^5 ops
      run_million_client(10'000, 10, /*coalesce=*/true, false),  // frame-order
      run_million_client(10'000, 10, /*coalesce=*/true, true),   // dest-major
      run_million_client(100'000, 10),                           // 10^6 ops
      run_million_client(100'000, 10, /*coalesce=*/true, false),
      run_million_client(100'000, 10, /*coalesce=*/true, true),
  };
  header("Million-client keyspace (table clients, 64 keys / 8 shards, zipf)");
  row({"clients", "ops", "mode", "events/s", "wr p99", "rd p99", "run", "steady"},
      {10, 10, 12, 12, 10, 10, 6, 8});
  for (const MillionRow& r : million) {
    row({std::to_string(r.clients),
         std::to_string(static_cast<long long>(r.clients) * r.ops_per_client),
         !r.coalesce ? "per-msg" : (r.dest_major ? "dest-major" : "frame-ord"),
         fmt(r.events_per_sec(), 0), fmt(r.write_p99_ms, 2),
         fmt(r.read_p99_ms, 2), r.coalesce ? fmt(r.mean_run_len, 1) : "-",
         std::to_string(r.steady_engine_allocs + r.steady_pool_misses)},
        {10, 10, 12, 12, 10, 10, 6, 8});
  }

  // Checked soak: the 10^6-op dest-major row with the streaming checker
  // live; the unchecked twin is the last million-client row above.
  const CheckedSoakRow soak =
      run_checked_soak(100'000, 10, million.back().wall_ms);
  header("Checked soak (streaming tag-witness live, prefix retirement on)");
  row({"ops", "events/s", "ns/op", "window", "pending", "retired", "live",
       "verdict"},
      {10, 12, 8, 8, 8, 10, 8, 10});
  row({std::to_string(static_cast<long long>(soak.clients) *
                      soak.ops_per_client),
       fmt(soak.events_per_sec(), 0), fmt(soak.checker_ns_per_op(), 1),
       std::to_string(soak.peak_window), std::to_string(soak.peak_pending),
       std::to_string(soak.retired_tags), std::to_string(soak.history_live),
       soak.verdict_atomic ? "atomic" : "VIOLATION"},
      {10, 12, 8, 8, 8, 10, 8, 10});

  const std::vector<VvRow> vv_rows = run_valuevector_rows();
  print_valuevector_rows(vv_rows);

  JsonWriter j;
  j.begin_object();
  j.key("bench").value("simcore_throughput");
  j.key("schema_version").value(6);
  j.key("engine_comparison").begin_object();
  j.key("workload").value("w2r1_replay_uniform_delay");
  j.key("hops").value(cmp.hops);
  j.key("legacy_events_per_sec").value(cmp.legacy_eps);
  j.key("pooled_events_per_sec").value(cmp.pooled_eps);
  j.key("batched_events_per_sec").value(cmp.batched_eps);
  j.key("speedup").value(cmp.speedup());
  j.key("batched_speedup").value(cmp.batched_speedup());
  j.end_object();
  j.key("coalescing").begin_object();
  j.key("workload").value("w2r1_replay_real_network");
  j.key("frames").value(co.frames);
  j.key("per_message_events_per_sec").value(co.per_message_eps);
  j.key("coalesced_events_per_sec").value(co.coalesced_eps);
  j.key("coalesce_speedup").value(co.speedup());
  j.key("batches").value(co.batches);
  j.key("frames_per_batch").value(co.frames_per_batch());
  j.key("batch_size_hist").begin_array();
  for (int b = 0; b < CoalesceStats::kHistBuckets; ++b) {
    j.begin_object();
    // Bucket b holds spans of size in [2^b, 2^(b+1)).
    j.key("ge").value(std::uint64_t{1} << b);
    j.key("count").value(co.hist[b]);
    j.end_object();
  }
  j.end_array();
  j.key("steady_engine_allocs").value(co.steady_engine_allocs);
  j.key("steady_pool_misses").value(co.steady_pool_misses);
  j.end_object();
  j.key("fanout_replay").begin_object();
  j.key("workload").value("w2r2_table_fanout");
  j.key("protocol").value("mw-abd(W2R2)");
  j.key("clients").value(fanout.clients);
  j.key("ops_per_client").value(fanout.ops_per_client);
  j.key("frames").value(fanout.frames);
  j.key("frame_order_events_per_sec").value(fanout.frame_order_eps);
  j.key("frame_order_mean_run_len").value(fanout.frame_order_mean_run_len);
  j.key("dest_major_events_per_sec").value(fanout.dest_major_eps);
  j.key("dest_major_speedup").value(fanout.speedup());
  j.key("mean_run_len").value(fanout.mean_run_len);
  j.key("dest_major_ticks").value(fanout.dest_major_ticks);
  j.key("staged_replies").value(fanout.staged_replies);
  j.key("wall_ms").value(fanout.wall_ms);
  j.end_object();
  j.key("workloads").begin_array();
  for (const WorkloadRow& r : rows) {
    j.begin_object();
    j.key("protocol").value(r.protocol);
    j.key("cluster").value(r.cluster);
    j.key("ops_per_client").value(r.ops_per_client);
    j.key("events").value(r.events);
    j.key("msgs").value(r.msgs);
    j.key("bytes_on_wire").value(r.bytes_on_wire);
    j.key("wall_ms").value(r.wall_ms);
    j.key("events_per_sec").value(r.events_per_sec());
    j.key("msgs_per_sec").value(r.msgs_per_sec());
    j.key("engine_allocs").value(r.engine_allocs);
    j.key("pool_misses").value(r.pool_misses);
    j.key("steady_engine_allocs").value(r.steady_engine_allocs);
    j.key("steady_pool_misses").value(r.steady_pool_misses);
    j.end_object();
  }
  j.end_array();
  j.key("million_client").begin_array();
  for (const MillionRow& r : million) {
    j.begin_object();
    j.key("protocol").value(r.protocol);
    j.key("keyspace").value(r.keyspace);
    j.key("clients").value(r.clients);
    j.key("ops_per_client").value(r.ops_per_client);
    j.key("coalesce").value(r.coalesce);
    j.key("dest_major").value(r.dest_major);
    j.key("mean_run_len").value(r.mean_run_len);
    j.key("events").value(r.events);
    j.key("msgs").value(r.msgs);
    j.key("wall_ms").value(r.wall_ms);
    j.key("events_per_sec").value(r.events_per_sec());
    j.key("write_p99_ms").value(r.write_p99_ms);
    j.key("read_p99_ms").value(r.read_p99_ms);
    j.key("per_key_read_p99_max_ms").value(r.per_key_read_p99_max_ms);
    j.key("steady_engine_allocs").value(r.steady_engine_allocs);
    j.key("steady_pool_misses").value(r.steady_pool_misses);
    j.end_object();
  }
  j.end_array();
  j.key("checked_soak").begin_object();
  j.key("workload").value("million_client_checked");
  j.key("protocol").value(soak.protocol);
  j.key("keyspace").value(soak.keyspace);
  j.key("clients").value(soak.clients);
  j.key("ops_per_client").value(soak.ops_per_client);
  j.key("ops_checked").value(soak.ops_checked);
  j.key("verdict_atomic").value(soak.verdict_atomic);
  j.key("peak_window").value(soak.peak_window);
  j.key("peak_pending").value(soak.peak_pending);
  j.key("retired_tags").value(soak.retired_tags);
  j.key("history_live").value(soak.history_live);
  j.key("events").value(soak.events);
  j.key("wall_ms").value(soak.wall_ms);
  j.key("events_per_sec").value(soak.events_per_sec());
  j.key("checker_ns_per_op").value(soak.checker_ns_per_op());
  j.key("steady_engine_allocs").value(soak.steady_engine_allocs);
  j.key("steady_pool_misses").value(soak.steady_pool_misses);
  j.end_object();
  emit_valuevector_json(j, vv_rows);
  j.end_object();
  write_json_artifact("BENCH_simcore.json", j.str());
}

// ---- microbenchmarks: the event engines in isolation ----

constexpr int kBatch = 512;

/// A capture the size of a Network delivery closure (Message + send time).
struct FatCapture {
  std::uint64_t pad[7] = {};
  std::uint64_t* sink;
};

void BM_pooled_engine_schedule_step(benchmark::State& state) {
  Simulator sim;
  std::uint64_t acc = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      FatCapture c;
      c.sink = &acc;
      sim.schedule_after(i, [c]() { ++*c.sink; });
    }
    while (sim.step()) {
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_pooled_engine_schedule_step);

void BM_legacy_engine_schedule_step(benchmark::State& state) {
  LegacySimulator sim;
  std::uint64_t acc = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      FatCapture c;
      c.sink = &acc;
      sim.schedule_after(i, [c]() { ++*c.sink; });
    }
    while (sim.step()) {
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_legacy_engine_schedule_step);

}  // namespace
}  // namespace mwreg::bench

MWREG_BENCH_MAIN(mwreg::bench::report)
