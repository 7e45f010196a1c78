// Simulation-core throughput: events/sec and messages/sec across protocols
// and cluster sizes, plus a live comparison of the pooled event engine
// against the verbatim pre-refactor engine (legacy_sim.h).
//
// Next to the plain-text report this bench writes BENCH_simcore.json, the
// artifact scripts/bench_trend.py gates CI on. The artifact's schema is the
// SPEC table in that script: every section, its key fields, and the gate
// kind of every field. Each section below builds its rows once as Rows
// (bench_util.h), which print the text table and emit the JSON object.
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

// ---- engine comparison: identical hop stream through all three engines ----
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

  Simulator sim;
  int num_crashed = 0;
  std::vector<Tick> ticks;
  const std::vector<Hop>& hops;
  std::vector<std::uint8_t> scratch;
  std::size_t next = 0;
  std::size_t remaining = 0;
};

/// Hops per second of one replay: `fanout` hops in flight until the
/// replayer has run its whole trace.
template <typename Replay, typename Sim>
double replay_eps(Replay& r, Sim& sim, int fanout) {
  const std::size_t total = r.remaining;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < fanout; ++i) r.schedule_hop();
  while (sim.step()) {
  }
  return static_cast<double>(total) / seconds_since(t0);
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

SimHarness::Options harness_options(const ClusterConfig& cfg) {
  SimHarness::Options o;
  o.cfg = cfg;
  o.seed = 42;
  o.delay = std::make_unique<UniformDelay>(kMillisecond, 10 * kMillisecond);
  return o;
}

/// Payload sizes of every hop of a real W2R1 uniform-delay workload run,
/// so the replay stresses the engines with the true size distribution.
std::vector<std::uint32_t> capture_w2r1_hop_sizes(int ops_per_client) {
  SimHarness h(*protocol_by_name("fast-read-mw(W2R1)"),
               harness_options(ClusterConfig{5, 2, 1, 1}));
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

Row compare_engines(const std::vector<std::uint32_t>& sizes) {
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
  constexpr int kFanout = 15;  // 3 clients x 5 servers in flight
  constexpr int kRounds = 20;  // cycle the trace: ~300k hops per timed run
  constexpr int kReps = 5;     // best-of, to shed scheduler noise
  // The batched engine's win is amortization over fan-out, so it replays
  // at the in-flight count of the regime coalescing targets (the same 512
  // the real-Network replay below uses); the per-hop cost of the other two
  // engines is fan-out-independent, so their rows stay comparable.
  constexpr int kBatchedFanout = 512;
  double legacy = 0, pooled = 0, batched = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    Replayer<LegacyEnv> l(trace, kRounds);
    legacy = std::max(legacy, replay_eps(l, l.env.sim, kFanout));
    Replayer<PooledEnv> p(trace, kRounds);
    pooled = std::max(pooled, replay_eps(p, p.env.sim, kFanout));
    BatchedReplayer b(trace, kRounds);
    batched = std::max(batched, replay_eps(b, b.sim, kBatchedFanout));
  }
  return {field("workload", "w2r1_replay_uniform_delay"),
          col("hops", trace.size() * kRounds),
          col("legacy_events_per_sec", legacy),
          col("pooled_events_per_sec", pooled),
          col("batched_events_per_sec", batched),
          col("speedup", ratio(pooled, legacy)),
          col("batched_speedup", ratio(batched, pooled))};
}

// ---- coalesced delivery replay: the real Network, both engines ----
//
// Unlike the engine comparison above (raw simulator cost models), this
// replays a closed-loop hop stream through the REAL Network stack twice —
// per-message scheduling vs. batched per-tick delivery — at the same
// tick, so the measured difference is coalescing itself: one heap event
// and one dispatch per batch instead of per message, frames appended to
// per-batch slabs instead of pooled per-message buffers. It replays at two
// ticks: 1 ms, where ~85 frames share a tick and batching always wins, and
// exact-ns, where nearly every frame is alone on its tick and rides its own
// event, the regime every sweep runs in.

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

Row measure_coalesced_delivery(const std::vector<std::uint32_t>& sizes) {
  constexpr int kDsts = 8;     // replica-group-sized destination set
  constexpr int kFanout = 512; // closed-loop hops in flight
  constexpr int kRounds = 20;  // ~300k hops per timed run
  constexpr int kReps = 5;     // best-of, to shed scheduler noise
  std::uint32_t max_sz = 0;
  for (std::uint32_t s : sizes) max_sz = std::max(max_sz, s);
  std::uint64_t frames = 0;
  CoalesceStats stats, exact;
  BatchStorageStats storage;
  Row steady;

  // Counters are deterministic across reps: the first rep captures them
  // into `counters`, and the 1 ms batched one runs the steady-state probe.
  auto run_once = [&](bool coalesce, Duration tick, CoalesceStats* counters,
                      bool probe) {
    Simulator sim;
    Network::Options nopts;
    nopts.coalesce = coalesce;
    // Same tick on both sides: quantization is not what is being measured.
    nopts.tick = tick;
    Network net(sim,
                std::make_unique<UniformDelay>(kMillisecond, 10 * kMillisecond),
                Rng(7), nopts);
    NetReplayDriver d{sizes};
    d.scratch.assign(max_sz, 0xA5);
    d.net = &net;
    d.remaining = sizes.size() * kRounds;
    d.ndst = kDsts;
    std::vector<std::unique_ptr<ReplaySink>> sinks;
    sinks.reserve(kDsts);
    for (int i = 0; i < kDsts; ++i) {
      sinks.push_back(
          std::make_unique<ReplaySink>(static_cast<NodeId>(i), net, d));
    }
    auto drive = [&] {
      for (int i = 0; i < kFanout; ++i) {
        d.send_next(static_cast<NodeId>(i % kDsts));
      }
      sim.run();
    };
    const auto t0 = std::chrono::steady_clock::now();
    drive();
    const double secs = seconds_since(t0);
    const std::uint64_t delivered = net.stats().delivered;
    if (counters != nullptr) *counters = net.coalesce_stats();
    if (probe) {
      storage = net.storage_stats();
      frames = delivered;
      // Steady-state probe: one more trace round on the warm network —
      // batch rings, batch chunks, and the event slab must all be warm.
      const std::uint64_t a0 = sim.allocations();
      const std::uint64_t m0 = net.pool().stats().misses;
      d.remaining = sizes.size();
      drive();
      steady = {col("steady_engine_allocs", sim.allocations() - a0),
                col("steady_pool_misses", net.pool().stats().misses - m0)};
    }
    return static_cast<double>(delivered) / secs;
  };

  double per_message = 0, coalesced = 0;
  double exact_per_message = 0, exact_coalesced = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const bool first = rep == 0;
    per_message = std::max(per_message,
                           run_once(false, kMillisecond, nullptr, false));
    coalesced = std::max(coalesced, run_once(true, kMillisecond,
                                             first ? &stats : nullptr, first));
    exact_per_message =
        std::max(exact_per_message, run_once(false, 1, nullptr, false));
    exact_coalesced = std::max(
        exact_coalesced, run_once(true, 1, first ? &exact : nullptr, false));
  }
  std::vector<Row> hist;
  for (int b = 0; b < CoalesceStats::kHistBuckets; ++b) {
    // Bucket b holds spans of size in [2^b, 2^(b+1)).
    hist.push_back({field("ge", std::uint64_t{1} << b),
                    field("count", stats.hist[b])});
  }
  const double frames_per_batch = ratio(static_cast<double>(stats.frames),
                                        static_cast<double>(stats.batches));
  Row row = {field("workload", "w2r1_replay_real_network"),
             col("frames", frames),
             col("per_message_events_per_sec", per_message),
             col("coalesced_events_per_sec", coalesced),
             col("coalesce_speedup", ratio(coalesced, per_message)),
             col("batches", stats.batches),
             col("lone", stats.lone),
             col("frames_per_batch", frames_per_batch),
             field("batch_size_hist", std::move(hist)),
             col("exact_ns_per_message_events_per_sec", exact_per_message),
             col("exact_ns_coalesced_events_per_sec", exact_coalesced),
             col("exact_ns_speedup", ratio(exact_coalesced, exact_per_message)),
             col("exact_ns_batches", exact.batches),
             col("exact_ns_lone", exact.lone),
             col("created_batches", storage.batches),
             col("created_chunks", storage.chunks),
             col("created_blocks", storage.blocks)};
  row.insert(row.end(), steady.begin(), steady.end());
  return row;
}

// ---- harness runs: one setup, one event count, one steady-state probe ----

/// One timed closed-loop run on a fresh harness. `events` counts logically
/// (one per enqueued frame, as in exp::Runner): the coalesced engine
/// executes fewer heap events for the same traffic, so events/sec stays
/// comparable across delivery modes.
struct Run {
  std::unique_ptr<SimHarness> h;
  double wall_ms = 0;
  std::uint64_t events = 0;
  std::uint64_t engine_allocs = 0;  ///< at the end of the timed run
  std::uint64_t pool_misses = 0;

  [[nodiscard]] double per_sec(std::uint64_t n) const {
    return ratio(static_cast<double>(n), wall_ms / 1e3);
  }

  /// Steady-state probe: one more closed-loop op per client on the warm
  /// harness must move neither allocation counter — the pool and slab are
  /// warm, and a closed loop never needs a larger working set than the run
  /// that warmed them. Appends both deltas to `row`.
  void probe(Row& row) {
    WorkloadOptions w;
    w.ops_per_writer = 1;
    w.ops_per_reader = 1;
    run_random_workload(*h, w);
    row.push_back(
        col("steady_engine_allocs", h->sim().allocations() - engine_allocs));
    row.push_back(col("steady_pool_misses",
                      h->net().pool().stats().misses - pool_misses));
  }
};

/// The fastest of `reps` runs of `protocol` with `ops` ops per client on a
/// harness built from make_options(). The simulation is deterministic, so
/// reps differ only in wall time.
template <typename MakeOptions>
Run run(const std::string& protocol, MakeOptions make_options, int ops,
        int reps = 1) {
  Run best;
  for (int rep = 0; rep < reps; ++rep) {
    Run r;
    r.h = std::make_unique<SimHarness>(*protocol_by_name(protocol),
                                       make_options());
    WorkloadOptions w;
    w.ops_per_writer = ops;
    w.ops_per_reader = ops;
    const auto t0 = std::chrono::steady_clock::now();
    run_random_workload(*r.h, w);
    r.wall_ms = seconds_since(t0) * 1e3;
    const CoalesceStats& cs = r.h->net().coalesce_stats();
    r.events =
        r.h->sim().executed() - cs.batches - cs.continuations + cs.enqueued;
    r.engine_allocs = r.h->sim().allocations();
    r.pool_misses = r.h->net().pool().stats().misses;
    if (rep == 0 || r.wall_ms < best.wall_ms) best = std::move(r);
  }
  return best;
}

/// End-to-end harness throughput at one design-space point. Best-of-3:
/// only wall time jitters, so the gate reads the fastest rep.
Row workload_row(const std::string& protocol, const ClusterConfig& cfg) {
  constexpr int kOps = 300;
  Run r = run(protocol, [&] { return harness_options(cfg); }, kOps, 3);
  const NetworkStats& ns = r.h->net().stats();
  Row row = {col("protocol", protocol), col("cluster", cfg.to_string()),
             field("ops_per_client", kOps), field("events", r.events),
             field("msgs", ns.sent), col("bytes_on_wire", ns.bytes_sent),
             field("wall_ms", r.wall_ms),
             col("events_per_sec", r.per_sec(r.events)),
             col("msgs_per_sec", r.per_sec(ns.sent)),
             field("engine_allocs", r.engine_allocs),
             field("pool_misses", r.pool_misses)};
  r.probe(row);
  return row;
}

/// `clients` closed-loop table clients (half writers, half readers) over a
/// 64-key, 8-shard Zipfian keyspace in one mw-abd(W2R2) harness; batched
/// delivery quantizes to a 10us tick so same-tick traffic batches.
SimHarness::Options keyspace_options(int clients, bool coalesce) {
  SimHarness::Options o =
      harness_options(ClusterConfig{5, clients / 2, clients - clients / 2, 1});
  o.keyspace = KeyspaceConfig{64, 8, 0.99};
  o.coalesce = coalesce;
  if (coalesce) o.tick = 10 * kMicrosecond;
  return o;
}

/// A million-client grid point: 10 ops per client, so 10^5 or 10^6 ops.
/// One rep: the run is long enough to be stable on its own.
Row million_row(int clients, bool coalesce) {
  constexpr int kOps = 10;
  Run r = run(
      "mw-abd(W2R2)", [&] { return keyspace_options(clients, coalesce); },
      kOps);
  SimHarness& h = *r.h;
  std::vector<double> writes, reads;
  double per_key_read_p99_max = 0;
  for (int k = 0; k < h.num_keys(); ++k) {
    const History& hist = h.key_history(k);
    std::vector<double> kw = latency_samples_ms(hist, OpKind::kWrite);
    std::vector<double> kr = latency_samples_ms(hist, OpKind::kRead);
    per_key_read_p99_max =
        std::max(per_key_read_p99_max, summarize_latency(kr).p99_ms);
    writes.insert(writes.end(), kw.begin(), kw.end());
    reads.insert(reads.end(), kr.begin(), kr.end());
  }
  Row row = {field("protocol", "mw-abd(W2R2)"),
             field("keyspace", h.keyspace().to_string()),
             col("clients", clients), col("ops_per_client", kOps),
             col("coalesce", coalesce),
             col("mean_run_len", h.net().coalesce_stats().mean_run_len()),
             field("events", r.events), field("msgs", h.net().stats().sent),
             field("wall_ms", r.wall_ms),
             col("events_per_sec", r.per_sec(r.events)),
             col("write_p99_ms", summarize_latency(std::move(writes)).p99_ms),
             col("read_p99_ms", summarize_latency(std::move(reads)).p99_ms),
             field("per_key_read_p99_max_ms", per_key_read_p99_max)};
  r.probe(row);
  return row;
}

/// The batched 10^6-op grid point re-run with a StreamingTagWitness
/// subscribed to every key history and settled-prefix retirement on:
/// proves the run can be checked live in window-bounded memory and
/// measures the cost next to its unchecked twin. No latency columns:
/// retired records are gone, so the live suffix would bias percentiles.
Row checked_soak(double unchecked_wall_ms) {
  constexpr int kClients = 100'000;
  constexpr int kOps = 10;
  Run r = run(
      "mw-abd(W2R2)",
      [] {
        SimHarness::Options o = keyspace_options(kClients, true);
        o.streaming_check = true;
        o.retire_history = true;
        return o;
      },
      kOps);
  // The checker and the retirement path must not disturb the steady
  // state either; the probe's ops are checked too.
  Row steady;
  r.probe(steady);
  SimHarness& h = *r.h;
  bool atomic = true;
  std::uint64_t ops_checked = 0, peak_window = 0, peak_pending = 0;
  std::uint64_t retired_tags = 0, history_live = 0;
  for (int k = 0; k < h.num_keys(); ++k) {
    StreamingTagWitness* sc = h.stream_checker(k);
    atomic = sc->finish().atomic && atomic;
    const StreamingStats& st = sc->stats();
    ops_checked += st.completions;
    peak_window = std::max<std::uint64_t>(peak_window, st.peak_window);
    peak_pending = std::max<std::uint64_t>(peak_pending, st.peak_pending);
    retired_tags += st.retired_tags;
    history_live += h.key_history(k).size() - h.key_history(k).retired_count();
  }
  // Wall jitter can make the checked run marginally faster; clamp so the
  // reported overhead is never negative.
  const double checker_ns_per_op =
      ratio(std::max(0.0, r.wall_ms - unchecked_wall_ms) * 1e6,
            static_cast<double>(ops_checked));
  Row row = {field("workload", "million_client_checked"),
             field("protocol", "mw-abd(W2R2)"),
             field("keyspace", h.keyspace().to_string()),
             field("clients", kClients), field("ops_per_client", kOps),
             col("ops_checked", ops_checked), col("verdict_atomic", atomic),
             col("peak_window", peak_window), col("peak_pending", peak_pending),
             col("retired_tags", retired_tags),
             col("history_live", history_live), field("events", r.events),
             field("wall_ms", r.wall_ms),
             col("events_per_sec", r.per_sec(r.events)),
             col("checker_ns_per_op", checker_ns_per_op)};
  row.insert(row.end(), steady.begin(), steady.end());
  return row;
}

// ---- report + artifact ----

void report() {
  JsonWriter j;
  j.begin_object();
  j.key("bench").value("simcore_throughput");
  j.key("schema_version").value(6);

  const std::vector<std::uint32_t> hop_sizes = capture_w2r1_hop_sizes(300);
  section(j, "engine_comparison",
          "Engine comparison: W2R1-shaped hop replay, uniform 1..10ms delays",
          {compare_engines(hop_sizes)}, false);
  section(j, "coalescing",
          "Batched delivery: same hop stream through the real Network stack",
          {measure_coalesced_delivery(hop_sizes)}, false);
  std::vector<Row> workloads;
  for (const auto& [proto, cfg] :
       std::vector<std::pair<std::string, ClusterConfig>>{
           {"fast-read-mw(W2R1)", ClusterConfig{5, 2, 1, 1}},
           {"fast-read-mw(W2R1)", ClusterConfig{9, 2, 1, 2}},
           {"fast-read-mw-nogc(W2R1)", ClusterConfig{5, 2, 1, 1}},
           {"mw-abd(W2R2)", ClusterConfig{3, 2, 2, 1}},
           {"mw-abd(W2R2)", ClusterConfig{5, 2, 2, 2}},
           {"fast-swmr(W1R1)", ClusterConfig{5, 1, 1, 1}},
       }) {
    workloads.push_back(workload_row(proto, cfg));
  }
  section(j, "workloads",
          "End-to-end workload throughput (300 ops/client, uniform 1..10ms)",
          workloads, true);
  // 10^5 and 10^6 total ops through one table-driven harness: per-message,
  // then batched.
  std::vector<Row> million;
  for (const int clients : {10'000, 100'000}) {
    million.push_back(million_row(clients, false));
    million.push_back(million_row(clients, true));
  }
  section(j, "million_client",
          "Million-client keyspace (table clients, 64 keys / 8 shards, zipf)",
          million, true);
  // The unchecked twin is the last million-client row.
  double unchecked_wall_ms = 0;
  for (const Field& f : million.back()) {
    if (f.key == "wall_ms") unchecked_wall_ms = std::get<double>(f.value);
  }
  section(j, "checked_soak",
          "Checked soak (streaming tag-witness live, prefix retirement on)",
          {checked_soak(unchecked_wall_ms)}, false);
  section(j, "valuevector",
          "Valuevector GC: long-horizon bytes-on-wire (GC+delta vs. ablation)",
          valuevector_section(run_valuevector_rows()), true);
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

/// Schedule and step kBatch delivery-sized closures through one engine.
template <typename Sim>
void BM_engine_schedule_step(benchmark::State& state) {
  Sim sim;
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
BENCHMARK_TEMPLATE(BM_engine_schedule_step, Simulator);
BENCHMARK_TEMPLATE(BM_engine_schedule_step, LegacySimulator);


}  // namespace
}  // namespace mwreg::bench

MWREG_BENCH_MAIN(mwreg::bench::report)
