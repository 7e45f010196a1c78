// Allocation regression: steady-state simulation must be allocation-free
// as measured by the engine and pool counters, and a warm streaming
// checker's hooks must not allocate at all (counted by this binary's global
// operator new).
//
// A fixed W2R1 workload warms the event slab and the payload pool; after
// that, further closed-loop traffic on the same harness must not move
// either counter: no new slab chunks, no closure heap-spills, no fresh
// payload buffers. This is the property the hot-path rearchitecture bought
// — any change that reintroduces a per-event or per-hop allocation (a
// closure that outgrows the inline budget, a payload that bypasses the
// pool) trips one of these counters.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>

#include "consistency/history.h"
#include "consistency/streaming_checker.h"
#include "core/client_table.h"
#include "core/harness.h"
#include "core/workload.h"
#include "protocols/fastread_server.h"
#include "protocols/protocols.h"
#include "sim/buffer_pool.h"

// Whole-process allocation counter: every global operator new in this
// binary lands here. All non-aligned forms are replaced so each allocation
// is paired with the matching free (sanitizer builds check the pairing).
namespace {
std::atomic<std::uint64_t> g_operator_news{0};

void* counted_new(std::size_t n) {
  g_operator_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mwreg {
namespace {

/// Drive `ops` further closed-loop operations (alternating write/read on
/// client 0) against an already-warm harness. Everything is captured by
/// reference: the locals outlive h.run(), which returns at quiescence.
void run_closed_loop_burst(SimHarness& h, int ops) {
  int remaining = ops;
  std::function<void()> step;
  step = [&h, &remaining, &step]() {
    if (--remaining < 0) return;
    if (remaining % 2 == 0) {
      h.async_write(0, 5'000'000 + remaining, [&step]() { step(); });
    } else {
      h.async_read(0, [&step](TaggedValue) { step(); });
    }
  };
  step();
  h.run();
}

TEST(AllocRegression, SteadyStateW2R1WorkloadAllocatesNothing) {
  const Protocol* proto = protocol_by_name("fast-read-mw(W2R1)");
  ASSERT_NE(proto, nullptr);
  SimHarness::Options o;
  o.cfg = ClusterConfig{5, 2, 1, 1};
  o.seed = 42;
  o.delay = std::make_unique<UniformDelay>(kMillisecond, 10 * kMillisecond);
  SimHarness h(*proto, std::move(o));

  // Warmup: the fixed W2R1 workload (closed loop, every client).
  WorkloadOptions w;
  w.ops_per_writer = 60;
  w.ops_per_reader = 60;
  run_random_workload(h, w);

  const std::uint64_t engine_allocs = h.sim().allocations();
  const BufferPool::Stats pool_warm = h.net().pool().stats();
  EXPECT_GT(pool_warm.acquired, 0u);
  EXPECT_GT(pool_warm.recycled, 0u);

  // Steady state: a closed loop never needs a larger working set than the
  // run that warmed the slab and the pool.
  run_closed_loop_burst(h, 80);

  EXPECT_EQ(h.sim().allocations() - engine_allocs, 0u)
      << "slab chunks or closure heap-spills grew after warmup";
  EXPECT_EQ(h.net().pool().stats().misses - pool_warm.misses, 0u)
      << "a payload buffer was allocated fresh after warmup";
  // The burst really did run traffic through the pool.
  EXPECT_GT(h.net().pool().stats().acquired, pool_warm.acquired);
}

TEST(AllocRegression, NoGcAblationSteadyStateAllocatesNothingFromEngineOrPool) {
  // Same invariant for the full-ack ablation (fast-read-mw ran this way
  // before the PR 7 GC flip): ack payloads grow with the valuevector, but
  // the pool's ratcheted size classes absorb the closed-loop burst without
  // a fresh allocation.
  const Protocol* proto = protocol_by_name("fast-read-mw-nogc(W2R1)");
  ASSERT_NE(proto, nullptr);
  SimHarness::Options o;
  o.cfg = ClusterConfig{5, 2, 1, 1};
  o.seed = 42;
  o.delay = std::make_unique<UniformDelay>(kMillisecond, 10 * kMillisecond);
  SimHarness h(*proto, std::move(o));

  WorkloadOptions w;
  w.ops_per_writer = 60;
  w.ops_per_reader = 60;
  run_random_workload(h, w);

  const std::uint64_t engine_allocs = h.sim().allocations();
  const BufferPool::Stats pool_warm = h.net().pool().stats();
  run_closed_loop_burst(h, 80);

  EXPECT_EQ(h.sim().allocations() - engine_allocs, 0u);
  EXPECT_EQ(h.net().pool().stats().misses - pool_warm.misses, 0u);
  EXPECT_GT(h.net().pool().stats().acquired, pool_warm.acquired);
}

TEST(AllocRegression, ReadAckScratchArenasStopGrowingAfterWarmup) {
  // The reply paths must not rebuild nested vectors per read ack: the
  // server streams its valuevector straight into the reply and the reader
  // decodes into reusable arenas. Arena grows() counts slot allocations;
  // they can only stop moving when the entry count is bounded, so the
  // cluster mixes GC servers with one full-ack (legacy-path) reader and one
  // delta reader: the full-ack reader drives decode_entries_into over a
  // GC-bounded valuevector, the delta reader keeps its side of the
  // machinery warm, and both carry watermarks that advance the floor. A
  // hand-wired cluster exposes the concrete servers; a ClientTable runs one
  // reader program, so each reader gets its own table (one writer each, at
  // the cluster's writer ids) in front of the shared servers.
  const ClusterConfig cfg{5, 2, 2, 1};
  const std::vector<ClusterConfig> key_cfgs{cfg};
  Simulator sim;
  Network net(sim, std::make_unique<ConstantDelay>(kMillisecond), Rng(3));
  FastReadServer::Options so;
  so.gc_enabled = true;
  std::vector<std::unique_ptr<FastReadServer>> servers;
  for (NodeId s : cfg.server_ids()) {
    servers.push_back(std::make_unique<FastReadServer>(s, net, cfg, so));
  }
  auto half = [&cfg](int i) {
    ClusterConfig g{cfg.s(), 1, 1, cfg.t()};
    g.client_base = cfg.writer_id(i);
    g.reader_base = cfg.reader_id(i);
    return g;
  };
  History history;
  ClientTable full(net, half(0), key_cfgs,
                   TableWriterProgram::kFrQueryThenWrite,
                   TableReaderProgram::kFrFull, {&history});
  ClientTable delta(net, half(1), key_cfgs,
                    TableWriterProgram::kFrQueryThenWrite,
                    TableReaderProgram::kFrDelta, {&history});
  auto cycle = [&](int ops) {
    for (int i = 0; i < ops; ++i) {
      full.start_write(0, 0, 1000 + i);
      sim.run();
      full.start_read(0, 0);
      sim.run();
      delta.start_read(0, 0);
      sim.run();
    }
  };
  cycle(40);  // warmup: arenas and caches reach their working-set size

  // Sanity: the mixed cluster really is GC'd and both ack paths ran.
  for (const auto& s : servers) {
    ASSERT_GT(s->entries_pruned(), 0u);
    ASSERT_LE(s->valuevector_size(), 8u);
  }
  ASSERT_GT(full.decode_arena_grows(), 0u);

  const std::uint64_t reader_grows = full.decode_arena_grows();

  cycle(60);  // steady state

  EXPECT_EQ(full.decode_arena_grows() - reader_grows, 0u)
      << "a reader rebuilt decode slots after warmup";
}

TEST(AllocRegression, LegacyDecodeArenaReusesSlotsAcrossReads) {
  // The full-ack path shares the same arenas: its valuevector grows with
  // every write, but between writes repeated reads must reuse the slots
  // (grows() moves only when the entry count itself grows).
  const ClusterConfig cfg{5, 2, 2, 1};
  Simulator sim;
  Network net(sim, std::make_unique<ConstantDelay>(kMillisecond), Rng(4));
  std::vector<std::unique_ptr<FastReadServer>> servers;
  for (NodeId s : cfg.server_ids()) {
    servers.push_back(std::make_unique<FastReadServer>(s, net, cfg));
  }
  const std::vector<ClusterConfig> key_cfgs{cfg};
  History history;
  ClientTable clients(net, cfg, key_cfgs, TableWriterProgram::kFrQueryThenWrite,
                      TableReaderProgram::kFrFull, {&history});
  for (int i = 0; i < 10; ++i) {
    clients.start_write(0, 0, i);
    sim.run();
  }
  clients.start_read(0, 0);
  sim.run();
  const std::uint64_t grows = clients.decode_arena_grows();
  for (int i = 0; i < 20; ++i) {  // reads only: the valuevector is static
    clients.start_read(0, 0);
    sim.run();
  }
  EXPECT_EQ(clients.decode_arena_grows() - grows, 0u);
}

TEST(AllocRegression, HundredThousandTableClientsSteadyStateAllocatesNothing) {
  // The million-client redesign's core claim: one harness, 10^5 concurrent
  // table-driven clients over a 64-key Zipfian keyspace, and once the event
  // slab, payload pool, and per-slot state are warm, further closed-loop
  // traffic allocates nothing from the engine or the pool.
  const Protocol* proto = protocol_by_name("mw-abd(W2R2)");
  ASSERT_NE(proto, nullptr);
  SimHarness::Options o;
  o.cfg = ClusterConfig{5, 50'000, 50'000, 1};
  o.keyspace = KeyspaceConfig{64, 8, 0.99};
  o.seed = 42;
  o.coalesce = false;  // per-message engine: the registered ablation lane
  SimHarness h(*proto, std::move(o));

  WorkloadOptions w;
  w.ops_per_writer = 2;
  w.ops_per_reader = 2;
  run_random_workload(h, w);  // warmup: 2 * 10^5 closed-loop ops

  const std::uint64_t engine_allocs = h.sim().allocations();
  const BufferPool::Stats pool_warm = h.net().pool().stats();
  EXPECT_GT(pool_warm.acquired, 0u);

  WorkloadOptions w2;
  w2.ops_per_writer = 1;
  w2.ops_per_reader = 1;
  run_random_workload(h, w2);  // steady state: 10^5 more ops, same table

  EXPECT_EQ(h.sim().allocations() - engine_allocs, 0u)
      << "slab chunks or closure heap-spills grew after warmup";
  EXPECT_EQ(h.net().pool().stats().misses - pool_warm.misses, 0u)
      << "a payload buffer was allocated fresh after warmup";
  EXPECT_GT(h.net().pool().stats().acquired, pool_warm.acquired);
  EXPECT_EQ(h.sim().alloc_stats().heap_spills, 0u);
}

TEST(AllocRegression, CoalescedHundredThousandClientsSteadyStateAllocatesNothing) {
  // Same 10^5-client workload with the batched delivery engine: batches,
  // frame slabs, and the open-batch table all ratchet their capacity during
  // warmup, after which coalesced steady-state traffic allocates nothing —
  // no engine slabs, no pool misses, and no new Batch objects (the batch
  // ring stops growing once the peak per-tick fan-in has been seen).
  const Protocol* proto = protocol_by_name("mw-abd(W2R2)");
  ASSERT_NE(proto, nullptr);
  SimHarness::Options o;
  o.cfg = ClusterConfig{5, 50'000, 50'000, 1};
  o.keyspace = KeyspaceConfig{64, 8, 0.99};
  o.seed = 42;
  o.coalesce = true;
  o.tick = 10 * kMicrosecond;  // coarse tick so batches actually form
  SimHarness h(*proto, std::move(o));

  WorkloadOptions w;
  w.ops_per_writer = 2;
  w.ops_per_reader = 2;
  run_random_workload(h, w);  // warmup: 2 * 10^5 closed-loop ops

  const std::uint64_t engine_allocs = h.sim().allocations();
  const BufferPool::Stats pool_warm = h.net().pool().stats();
  const std::size_t batch_ring = h.net().batch_pool_size();
  const CoalesceStats& cs = h.net().coalesce_stats();
  EXPECT_GT(cs.frames, cs.batches) << "no multi-frame batch formed";

  WorkloadOptions w2;
  w2.ops_per_writer = 1;
  w2.ops_per_reader = 1;
  run_random_workload(h, w2);  // steady state: 10^5 more ops, same table

  EXPECT_EQ(h.sim().allocations() - engine_allocs, 0u)
      << "slab chunks or closure heap-spills grew after warmup";
  EXPECT_EQ(h.net().pool().stats().misses - pool_warm.misses, 0u)
      << "a payload buffer was allocated fresh after warmup";
  EXPECT_EQ(h.net().batch_pool_size(), batch_ring)
      << "a Batch was created after warmup: ring growth must be warmup-only";
  EXPECT_EQ(h.sim().alloc_stats().heap_spills, 0u);
}

/// Forwards every hook to a checker and counts the operator new calls made
/// inside each one. History::retire_prefix counts as on_complete's, since
/// the checker calls it from there.
class AllocCountingSink final : public HistorySink {
 public:
  explicit AllocCountingSink(HistorySink* inner) : inner_(inner) {}

  struct Counts {
    std::uint64_t invoke = 0;
    std::uint64_t value = 0;
    std::uint64_t complete = 0;
  };

  void on_invoke(const OpRecord& op) override {
    const std::uint64_t before = g_operator_news.load();
    inner_->on_invoke(op);
    allocs.invoke += g_operator_news.load() - before;
  }
  void on_value(const OpRecord& op) override {
    const std::uint64_t before = g_operator_news.load();
    inner_->on_value(op);
    allocs.value += g_operator_news.load() - before;
  }
  void on_complete(const OpRecord& op) override {
    const std::uint64_t before = g_operator_news.load();
    inner_->on_complete(op);
    allocs.complete += g_operator_news.load() - before;
  }

  Counts allocs;

 private:
  HistorySink* inner_;
};

TEST(AllocRegression, WarmStreamingCheckerHooksAllocateNothing) {
  // A single-key harness with a fixed client set: once the checker's ring,
  // floor FIFO, window and client table have seen the workload's peak
  // concurrency, a further burst must not allocate inside any hook.
  const Protocol* proto = protocol_by_name("mw-abd(W2R2)");
  ASSERT_NE(proto, nullptr);
  SimHarness::Options o;
  o.cfg = ClusterConfig{5, 4, 4, 2};
  o.seed = 42;
  SimHarness h(*proto, std::move(o));
  StreamingTagWitness checker;
  checker.retire_history(&h.history(), 64);
  AllocCountingSink sink(&checker);
  h.history().subscribe(&sink);

  WorkloadOptions w;
  w.ops_per_writer = 400;
  w.ops_per_reader = 400;
  run_random_workload(h, w);  // warmup: 3,200 ops
  EXPECT_GT(sink.allocs.invoke, 0u) << "the counter never saw the warmup";
  const AllocCountingSink::Counts warm = sink.allocs;
  const std::size_t retired_records = h.history().retired_count();
  const std::size_t retired_tags = checker.stats().retired_tags;

  WorkloadOptions burst;
  burst.ops_per_writer = 100;
  burst.ops_per_reader = 100;
  run_random_workload(h, burst);  // steady state: 800 more ops

  EXPECT_EQ(sink.allocs.invoke - warm.invoke, 0u);
  EXPECT_EQ(sink.allocs.value - warm.value, 0u);
  EXPECT_EQ(sink.allocs.complete - warm.complete, 0u);
  // The burst really ran through the checker, its watermark retirement and
  // the history retirement it drives.
  EXPECT_EQ(checker.stats().ops_seen, 4000u);
  EXPECT_GT(checker.stats().retired_tags, retired_tags);
  EXPECT_GT(h.history().retired_count(), retired_records);
  const CheckResult verdict = checker.finish();
  EXPECT_TRUE(verdict.atomic) << verdict.violation;
  h.history().unsubscribe(&sink);
}

TEST(AllocRegression, DeliveryClosureFitsTheInlineEventBudget) {
  // The per-hop closure (Network pointer + Message + send time) must stay
  // inside the simulator's inline storage: a heap spill on the delivery
  // path would silently reintroduce an allocation per message.
  const Protocol* proto = protocol_by_name("mw-abd(W2R2)");
  ASSERT_NE(proto, nullptr);
  SimHarness::Options o;
  o.cfg = ClusterConfig{3, 2, 2, 1};
  o.seed = 1;
  SimHarness h(*proto, std::move(o));
  WorkloadOptions w;
  w.ops_per_writer = 20;
  w.ops_per_reader = 20;
  run_random_workload(h, w);
  EXPECT_GT(h.net().stats().delivered, 0u);
  EXPECT_EQ(h.sim().alloc_stats().heap_spills, 0u)
      << "a hot-path closure outgrew Simulator::kInlineEventBytes";
}

}  // namespace
}  // namespace mwreg
