// Unit tests for the discrete-event simulator and network substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/delay_model.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace mwreg {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NestedSchedulingRuns) {
  Simulator sim;
  int hits = 0;
  sim.schedule_at(1, [&] {
    ++hits;
    sim.schedule_after(5, [&] {
      ++hits;
      sim.schedule_after(5, [&] { ++hits; });
    });
  });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(sim.now(), 11);
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator sim;
  Time seen = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_at(5, [&] { seen = sim.now(); });  // "5" is in the past
  });
  sim.run();
  EXPECT_EQ(seen, 100);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int hits = 0;
  sim.schedule_at(10, [&] { ++hits; });
  sim.schedule_at(20, [&] { ++hits; });
  sim.schedule_at(30, [&] { ++hits; });
  EXPECT_EQ(sim.run_until(20), 2u);
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(sim.now(), 20);
  sim.run();
  EXPECT_EQ(hits, 3);
}

TEST(Simulator, RunUntilExecutesEventsExactlyAtDeadline) {
  Simulator sim;
  std::vector<int> hits;
  sim.schedule_at(10, [&] { hits.push_back(10); });
  sim.schedule_at(20, [&] { hits.push_back(20); });  // exactly at deadline
  sim.schedule_at(21, [&] { hits.push_back(21); });  // past it
  EXPECT_EQ(sim.run_until(20), 2u);
  EXPECT_EQ(hits, (std::vector<int>{10, 20}));
  EXPECT_EQ(sim.now(), 20);
  // The past-deadline event survives in the queue, untouched.
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_FALSE(sim.idle());
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(hits.back(), 21);
}

TEST(Simulator, RunUntilAdvancesTimeWithEmptyQueueAndNeverRewinds) {
  Simulator sim;
  EXPECT_EQ(sim.run_until(50), 0u);
  EXPECT_EQ(sim.now(), 50);  // idle time still advances to the deadline
  // A deadline in the past must not rewind the clock.
  EXPECT_EQ(sim.run_until(10), 0u);
  EXPECT_EQ(sim.now(), 50);
}

TEST(Simulator, RunUntilExecutesEventsSpawnedAtTheDeadline) {
  Simulator sim;
  int hits = 0;
  sim.schedule_at(20, [&] {
    ++hits;
    sim.schedule_at(20, [&] { ++hits; });  // same-time follow-up
    sim.schedule_at(21, [&] { ++hits; });  // past the deadline
  });
  EXPECT_EQ(sim.run_until(20), 2u);
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, ScheduleAtClampsPastTimesToNowInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(100, [&] {
    // All three are in the past; they clamp to now()=100 and must run
    // after this event in insertion order (the (time, seq) tie-break).
    sim.schedule_at(5, [&] { order.push_back(1); });
    sim.schedule_at(3, [&] { order.push_back(2); });
    sim.schedule_at(0, [&] { order.push_back(3); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, SlabRecyclesSlotsSteadyState) {
  Simulator sim;
  // A long self-rescheduling chain keeps exactly one event pending; after
  // the first chunk is allocated the engine must not allocate again.
  int remaining = 10'000;
  std::function<void()> tick = [&] {
    if (--remaining > 0) sim.schedule_after(1, tick);
  };
  sim.schedule_at(0, tick);
  const std::uint64_t warm = sim.allocations();
  EXPECT_EQ(sim.run(), 10'000u);
  EXPECT_EQ(sim.allocations(), warm);
  EXPECT_EQ(sim.alloc_stats().slab_chunks, 1u);
}

TEST(Simulator, OversizedClosuresSpillButStillRun) {
  Simulator sim;
  // A capture bigger than the inline budget takes the heap-spill path.
  struct Huge {
    char bytes[Simulator::kInlineEventBytes + 64] = {};
  };
  Huge big;
  big.bytes[0] = 42;
  int seen = 0;
  sim.schedule_at(1, [big, &seen] { seen = big.bytes[0]; });
  EXPECT_EQ(sim.alloc_stats().heap_spills, 1u);
  sim.run();
  EXPECT_EQ(seen, 42);
}

TEST(Simulator, ThrowingClosureIsDestroyedAndEngineStaysUsable) {
  Simulator sim;
  auto token = std::make_shared<int>(1);
  sim.schedule_at(1, [token] { throw std::runtime_error("boom"); });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_THROW(sim.step(), std::runtime_error);
  // The closure was destroyed during unwind and its slot recycled cleanly.
  EXPECT_EQ(token.use_count(), 1);
  int hits = 0;
  sim.schedule_at(2, [&] { ++hits; });
  sim.run();
  EXPECT_EQ(hits, 1);
}

TEST(Simulator, DestroysUnexecutedEventsCleanly) {
  // Events left in the queue when the simulator dies (run_until stopping
  // short) must have their closures destroyed, not leaked: the shared_ptr
  // use count observes the destruction.
  auto token = std::make_shared<int>(7);
  {
    Simulator sim;
    sim.schedule_at(100, [token] { (void)*token; });
    sim.schedule_at(200, [token] { (void)*token; });
    EXPECT_EQ(sim.run_until(50), 0u);
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// ---------- heap order oracle ----------
//
// The pop order must be exactly (time, seq), whatever the heap does inside.
// A seeded mix of schedule_at, reserve_seq + schedule_at_seq, schedules
// made from inside events, equal times, t = 0, past times (clamped) and
// times near 2^62 runs against a std::set reference, checked pop by pop,
// with has_event_before probed against the reference at every step. Three
// pending-set sizes: a sweep trial's (~10), fastread_keyspace's (~400) and
// keyspace_soak's (~10,000).

struct HeapOracle {
  using Key = std::pair<Time, std::uint64_t>;  // (clamped time, seq)

  Simulator sim;
  Rng rng;
  std::size_t target;
  std::set<Key> ref;
  std::vector<std::uint64_t> reserved;  ///< reserved, not yet scheduled
  std::uint64_t next_seq = 0;           ///< mirrors the engine's counter
  std::uint64_t pops = 0;
  std::uint64_t bad_pops = 0;
  std::uint64_t bad_probes = 0;
  std::uint64_t inside = 0;  ///< schedules made from inside events
  std::uint64_t far = 0;     ///< pops at times near 2^62
  std::size_t peak = 0;      ///< most events pending at once
  Time last_t = 0;

  HeapOracle(std::uint64_t seed, std::size_t pending)
      : rng(seed), target(pending) {}

  Time pick_time() {
    const Time now = sim.now();
    switch (rng.next_below(6)) {
      case 0:
        return last_t;  // equal to an earlier pick
      case 1:
        return 0;  // bottom of time: clamped once now > 0
      case 2:
        return now - static_cast<Time>(rng.next_below(1000));  // past
      case 3:
        if (rng.next_bool(0.1)) {
          return (Time{1} << 62) - static_cast<Time>(rng.next_below(64));
        }
        [[fallthrough]];
      default:
        return now + static_cast<Time>(rng.next_below(5000));
    }
  }

  void schedule_one() {
    Time t = pick_time();
    last_t = t;
    const Time at = t < sim.now() ? sim.now() : t;
    if (!reserved.empty() && rng.next_bool(0.3)) {
      const std::size_t i = rng.next_below(reserved.size());
      const std::uint64_t seq = reserved[i];
      reserved[i] = reserved.back();
      reserved.pop_back();
      ref.insert({at, seq});
      sim.schedule_at_seq(t, seq, [this, at, seq] { on_pop(at, seq); });
      return;
    }
    if (rng.next_bool(0.2)) {
      const std::uint64_t seq = sim.reserve_seq();
      EXPECT_EQ(seq, next_seq);
      ++next_seq;
      reserved.push_back(seq);
      return;
    }
    const std::uint64_t seq = next_seq++;
    ref.insert({at, seq});
    sim.schedule_at(t, [this, at, seq] { on_pop(at, seq); });
  }

  void on_pop(Time at, std::uint64_t seq) {
    ++pops;
    if (ref.empty() || *ref.begin() != Key{at, seq} || sim.now() != at) {
      ++bad_pops;
    }
    ref.erase({at, seq});
    if (at >= Time{1} << 61) ++far;
    // Schedules from inside an event, as handlers and the network make them
    // (none while draining).
    const int n = target == 0                           ? 0
                  : ref.size() + reserved.size() < target ? 2
                  : static_cast<int>(rng.next_below(2));
    for (int i = 0; i < n; ++i) {
      schedule_one();
      ++inside;
    }
  }

  void probe() {
    auto before = [this](Time t, std::uint64_t seq) {
      return !ref.empty() && *ref.begin() < Key{t, seq};
    };
    std::vector<Key> probes = {
        {sim.now(), next_seq}, {0, 0}, {Time{1} << 62, 0}};
    if (!ref.empty()) {
      const Key front = *ref.begin();
      probes.push_back(front);
      probes.push_back({front.first, front.second + 1});
      probes.push_back({front.first + 1, 0});
      if (front.second > 0) probes.push_back({front.first, front.second - 1});
    }
    for (const Key& k : probes) {
      const bool got = sim.has_event_before(k.first, k.second);
      if (got != before(k.first, k.second)) ++bad_probes;
    }
  }

  void run(std::uint64_t total_pops) {
    while (sim.pending() < target) schedule_one();
    while (pops < total_pops) {
      peak = std::max(peak, sim.pending());
      probe();
      // Driver-side schedules between steps keep the set near its target.
      if (sim.pending() < target && rng.next_bool(0.5)) schedule_one();
      if (!sim.step()) break;
    }
    for (const std::uint64_t seq : reserved) {  // land every reservation
      const Time at = sim.now() + static_cast<Time>(rng.next_below(100));
      ref.insert({at, seq});
      sim.schedule_at_seq(at, seq, [this, at, seq] { on_pop(at, seq); });
    }
    reserved.clear();
    target = 0;  // drain: events stop scheduling more
    while (!sim.idle()) {
      probe();
      sim.step();
    }
    probe();
  }
};

TEST(SimulatorHeap, PopOrderMatchesTheReferenceAtThreeHeapSizes) {
  for (const std::size_t pending : {std::size_t{10}, std::size_t{400},
                                    std::size_t{10'000}}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      HeapOracle o(seed * 1000 + pending, pending);
      o.run(pending * 6 + 2000);
      EXPECT_EQ(o.bad_pops, 0u) << "pending " << pending << " seed " << seed;
      EXPECT_EQ(o.bad_probes, 0u) << "pending " << pending << " seed " << seed;
      EXPECT_TRUE(o.ref.empty());
      EXPECT_GT(o.pops, pending * 6);
      EXPECT_GT(o.inside, 0u);
      EXPECT_GT(o.far, 0u);
      EXPECT_GE(o.peak, pending);
      EXPECT_EQ(o.sim.executed(), o.pops);
    }
  }
}

// ---------- Network ----------

class Recorder final : public Process {
 public:
  Recorder(NodeId id, Network& net) : Process(id, net) {}
  void on_message(const Frame& m) override {
    Message copy;
    copy.src = m.src;
    copy.dst = m.dst;
    copy.type = m.type;
    copy.key = m.key;
    copy.rpc_id = m.rpc_id;
    copy.payload.assign(m.payload.begin(), m.payload.end());
    received.push_back(std::move(copy));
    times.push_back(sim().now());
  }
  std::vector<Message> received;
  std::vector<Time> times;

  void post(NodeId dst, MsgType type) { send(dst, type, 0, {}); }
  /// Send `n` payload bytes 0, 1, 2, ... through the fan-out entry point.
  void post_bytes(NodeId dst, MsgType type, std::size_t n) {
    std::vector<std::uint8_t> bytes(n);
    for (std::size_t i = 0; i < n; ++i) bytes[i] = static_cast<std::uint8_t>(i);
    net().send_bytes(id(), dst, type, 0, 0, ByteSpan(bytes));
  }
};

struct Rig {
  explicit Rig(std::unique_ptr<DelayModel> delay, bool fifo = false,
               std::uint64_t seed = 1)
      : net(sim, std::move(delay), Rng(seed), fifo), a(0, net), b(1, net) {}
  Simulator sim;
  Network net;
  Recorder a, b;
};

TEST(Network, DeliversWithConstantDelay) {
  Rig rig(std::make_unique<ConstantDelay>(100));
  rig.a.post(1, 7);
  rig.sim.run();
  ASSERT_EQ(rig.b.received.size(), 1u);
  EXPECT_EQ(rig.b.received[0].type, 7u);
  EXPECT_EQ(rig.b.times[0], 100);
  EXPECT_EQ(rig.net.stats().delivered, 1u);
}

TEST(Network, CrashedDestinationDropsMessages) {
  Rig rig(std::make_unique<ConstantDelay>(10));
  rig.net.crash(1);
  rig.a.post(1, 1);
  rig.sim.run();
  EXPECT_TRUE(rig.b.received.empty());
  EXPECT_EQ(rig.net.stats().to_crashed, 1u);
}

TEST(Network, CrashedSourceSendsNothing) {
  Rig rig(std::make_unique<ConstantDelay>(10));
  rig.net.crash(0);
  rig.a.post(1, 1);
  rig.sim.run();
  EXPECT_TRUE(rig.b.received.empty());
  EXPECT_EQ(rig.net.stats().sent, 1u);
  EXPECT_EQ(rig.net.stats().from_crashed, 1u);
}

TEST(Network, RecoverRestoresDeliveryBothDirections) {
  Rig rig(std::make_unique<ConstantDelay>(10));
  rig.net.crash(1);
  rig.a.post(1, 1);  // dropped: dst crashed
  rig.sim.run();
  rig.net.recover(1);
  rig.a.post(1, 2);  // delivered after recovery
  rig.sim.run();
  ASSERT_EQ(rig.b.received.size(), 1u);
  EXPECT_EQ(rig.b.received[0].type, 2u);

  rig.net.crash(0);
  rig.a.post(1, 3);  // dropped: src crashed
  rig.sim.run();
  rig.net.recover(0);
  rig.a.post(1, 4);
  rig.sim.run();
  ASSERT_EQ(rig.b.received.size(), 2u);
  EXPECT_EQ(rig.b.received[1].type, 4u);
  EXPECT_EQ(rig.net.stats().to_crashed, 1u);
  EXPECT_EQ(rig.net.stats().from_crashed, 1u);
}

/// The NetworkStats invariant documented in network.h: at quiescence every
/// sent message is delivered, parked, dropped at exactly one crash check,
/// or discarded for want of an attached destination process.
void expect_stats_invariant(const NetworkStats& s) {
  EXPECT_EQ(s.sent, s.delivered + s.held + s.to_crashed + s.from_crashed +
                        s.dropped_unattached);
}

TEST(Network, UnattachedDestinationCountsAsDroppedNotDelivered) {
  // Node 2 has no attached process: the message is discarded at delivery
  // time, counted in dropped_unattached, and the conservation invariant
  // still balances.
  Rig rig(std::make_unique<ConstantDelay>(10));
  rig.a.post(2, 1);
  rig.a.post(1, 2);
  rig.sim.run();
  EXPECT_EQ(rig.b.received.size(), 1u);
  EXPECT_EQ(rig.net.stats().delivered, 1u);
  EXPECT_EQ(rig.net.stats().dropped_unattached, 1u);
  expect_stats_invariant(rig.net.stats());
}

TEST(Network, StatsInvariantAcrossFaultScenarios) {
  Rig rig(std::make_unique<ConstantDelay>(10));
  rig.a.post(1, 1);  // delivered
  rig.sim.run();
  expect_stats_invariant(rig.net.stats());

  rig.net.block_link(0, 1);
  rig.a.post(1, 2);  // held
  rig.sim.run();
  expect_stats_invariant(rig.net.stats());

  rig.net.crash(0);
  rig.a.post(1, 3);  // dropped at the source check
  rig.b.post(0, 4);  // dropped at the destination check
  rig.sim.run();
  const NetworkStats& s = rig.net.stats();
  EXPECT_EQ(s.sent, 4u);
  EXPECT_EQ(s.delivered, 1u);
  EXPECT_EQ(s.held, 1u);
  EXPECT_EQ(s.from_crashed, 1u);
  EXPECT_EQ(s.to_crashed, 1u);
  expect_stats_invariant(s);

  rig.net.recover(0);
  rig.net.unblock_link(0, 1);  // the held message is redelivered
  rig.sim.run();
  EXPECT_EQ(rig.net.stats().held, 0u);
  EXPECT_EQ(rig.net.stats().delivered, 2u);
  expect_stats_invariant(rig.net.stats());
}

TEST(Network, CrashDropsInFlight) {
  // A message already in flight must not be delivered to a node that
  // crashes before the delivery time.
  Rig rig(std::make_unique<ConstantDelay>(100));
  rig.a.post(1, 1);
  rig.sim.schedule_at(50, [&] { rig.net.crash(1); });
  rig.sim.run();
  EXPECT_TRUE(rig.b.received.empty());
}

TEST(Network, BlockedLinkHoldsThenReleases) {
  Rig rig(std::make_unique<ConstantDelay>(10));
  rig.net.block_link(0, 1);
  rig.a.post(1, 1);
  rig.sim.run();
  EXPECT_TRUE(rig.b.received.empty());
  EXPECT_EQ(rig.net.stats().held, 1u);

  rig.net.unblock_link(0, 1);
  rig.sim.run();
  ASSERT_EQ(rig.b.received.size(), 1u);
  EXPECT_EQ(rig.net.stats().held, 0u);
}

TEST(Network, BlockAppliedAtDeliveryTime) {
  // Message sent before the block but delivered after: must be held.
  Rig rig(std::make_unique<ConstantDelay>(100));
  rig.a.post(1, 1);
  rig.sim.schedule_at(10, [&] { rig.net.block_link(0, 1); });
  rig.sim.run();
  EXPECT_TRUE(rig.b.received.empty());
  rig.net.unblock_link(0, 1);
  rig.sim.run();
  EXPECT_EQ(rig.b.received.size(), 1u);
}

TEST(Network, BlockPairBlocksBothDirections) {
  Rig rig(std::make_unique<ConstantDelay>(10));
  rig.net.block_pair(0, 1);
  rig.a.post(1, 1);
  rig.b.post(0, 2);
  rig.sim.run();
  EXPECT_TRUE(rig.a.received.empty());
  EXPECT_TRUE(rig.b.received.empty());
  rig.net.unblock_pair(0, 1);
  rig.sim.run();
  EXPECT_EQ(rig.a.received.size(), 1u);
  EXPECT_EQ(rig.b.received.size(), 1u);
}

TEST(Network, NonFifoCanReorder) {
  // With uniform delays some pair of back-to-back messages reorders.
  Rig rig(std::make_unique<UniformDelay>(1, 1000), /*fifo=*/false, /*seed=*/3);
  for (MsgType i = 0; i < 20; ++i) rig.a.post(1, i);
  rig.sim.run();
  ASSERT_EQ(rig.b.received.size(), 20u);
  bool reordered = false;
  for (std::size_t i = 1; i < 20; ++i) {
    if (rig.b.received[i].type < rig.b.received[i - 1].type) reordered = true;
  }
  EXPECT_TRUE(reordered);
}

TEST(Network, FifoRedeliveryAfterUnblockPreservesSendOrder) {
  // Messages scheduled before block_link are parked at delivery time (the
  // delivery-time re-hold path) and, in FIFO mode, redelivered in send order
  // after unblock_link.
  Rig rig(std::make_unique<UniformDelay>(1, 1000), /*fifo=*/true, /*seed=*/3);
  for (MsgType i = 0; i < 10; ++i) rig.a.post(1, i);
  // The block runs at t=0, before any delivery (deliveries are at t >= 1),
  // so every message hits the re-hold path.
  rig.sim.schedule_at(0, [&] { rig.net.block_link(0, 1); });
  rig.sim.run();
  EXPECT_TRUE(rig.b.received.empty());
  EXPECT_EQ(rig.net.stats().held, 10u);

  rig.net.unblock_link(0, 1);
  rig.sim.run();
  ASSERT_EQ(rig.b.received.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(rig.b.received[i].type, static_cast<MsgType>(i));
  }
  EXPECT_EQ(rig.net.stats().held, 0u);
  EXPECT_EQ(rig.net.stats().sent, rig.net.stats().delivered);
}

TEST(Network, FifoPreservesPerLinkOrder) {
  Rig rig(std::make_unique<UniformDelay>(1, 1000), /*fifo=*/true, /*seed=*/3);
  for (MsgType i = 0; i < 20; ++i) rig.a.post(1, i);
  rig.sim.run();
  ASSERT_EQ(rig.b.received.size(), 20u);
  for (std::size_t i = 1; i < 20; ++i) {
    EXPECT_LE(rig.b.received[i - 1].type, rig.b.received[i].type);
  }
}

TEST(Network, DeliveryHookObservesTimes) {
  Rig rig(std::make_unique<ConstantDelay>(42));
  Time sent = -1, delivered = -1;
  rig.net.set_delivery_hook([&](const Frame&, Time s, Time d) {
    sent = s;
    delivered = d;
  });
  rig.a.post(1, 1);
  rig.sim.run();
  EXPECT_EQ(sent, 0);
  EXPECT_EQ(delivered, 42);
}

// Determinism: identical seeds give identical delivery schedules.
TEST(Network, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    Rig rig(std::make_unique<UniformDelay>(1, 500), false, seed);
    for (MsgType i = 0; i < 32; ++i) {
      rig.a.post(1, i);
      rig.b.post(0, 100 + i);
    }
    rig.sim.run();
    std::vector<std::pair<MsgType, Time>> log;
    for (std::size_t i = 0; i < rig.b.received.size(); ++i) {
      log.emplace_back(rig.b.received[i].type, rig.b.times[i]);
    }
    return log;
  };
  EXPECT_EQ(run_once(9), run_once(9));
  EXPECT_NE(run_once(9), run_once(10));
}

// ---------- Batched delivery (Network::Options::coalesce) ----------

struct CoalescedRig {
  explicit CoalescedRig(std::unique_ptr<DelayModel> delay,
                        Network::Options opts, std::uint64_t seed = 1)
      : net(sim, std::move(delay), Rng(seed), opts),
        a(0, net),
        b(1, net) {}
  Simulator sim;
  Network net;
  Recorder a, b;
};

/// The per-message event count the batched lane stands for (exp::Runner's
/// trial event count).
std::uint64_t logical_events(const Simulator& sim, const CoalesceStats& cs) {
  return sim.executed() - cs.batches - cs.continuations + cs.enqueued;
}

TEST(NetworkCoalesce, TieBreakOrderInsideABatchIsSendOrder) {
  // n same-tick messages: the first rides alone, the second opens one batch
  // and the rest join it. Their reserved sequences are the insertion
  // order, so the deliveries replay exactly the per-message tie-break:
  // send order, the lone frame first.
  for (const MsgType n : {2u, 4u}) {
    SCOPED_TRACE(n);
    CoalescedRig rig(std::make_unique<ConstantDelay>(100),
                     Network::Options{false, true, 1});
    for (MsgType i = 0; i < n; ++i) rig.a.post(1, i);
    rig.sim.run();
    ASSERT_EQ(rig.b.received.size(), n);
    for (MsgType i = 0; i < n; ++i) {
      EXPECT_EQ(rig.b.received[i].type, i);
      EXPECT_EQ(rig.b.times[i], 100);
    }
    const CoalesceStats& cs = rig.net.coalesce_stats();
    EXPECT_EQ(cs.lone, 1u);
    EXPECT_EQ(cs.batches, 1u);
    EXPECT_EQ(cs.enqueued, n - 1);
    EXPECT_EQ(cs.frames, n - 1);
    EXPECT_EQ(cs.continuations, 0u);
    EXPECT_EQ(rig.sim.executed(), 2u);  // the lone event and the batch
    EXPECT_EQ(logical_events(rig.sim, cs), n);
    expect_stats_invariant(rig.net.stats());
  }
}

TEST(NetworkCoalesce, InterleavedEventOrderMatchesPerMessageEngine) {
  // A run with echoes and mixed delays, same seed under both engines: the
  // delivery logs (type, time) must be bit-identical.
  auto run_once = [](bool coalesce) {
    CoalescedRig rig(std::make_unique<UniformDelay>(1, 500),
                     Network::Options{false, coalesce, 1}, /*seed=*/9);
    for (MsgType i = 0; i < 32; ++i) {
      rig.a.post(1, i);
      rig.b.post(0, 100 + i);
    }
    rig.sim.run();
    std::vector<std::pair<MsgType, Time>> log;
    for (std::size_t i = 0; i < rig.b.received.size(); ++i) {
      log.emplace_back(rig.b.received[i].type, rig.b.times[i]);
    }
    for (std::size_t i = 0; i < rig.a.received.size(); ++i) {
      log.emplace_back(rig.a.received[i].type, rig.a.times[i]);
    }
    return log;
  };
  EXPECT_EQ(run_once(false), run_once(true));
}

TEST(NetworkCoalesce, TickQuantizationIsEngineInvariant) {
  // With a coarse tick many deliveries coalesce; the (type, time) log must
  // still match the per-message engine run at the same tick.
  auto run_once = [](bool coalesce) {
    CoalescedRig rig(std::make_unique<UniformDelay>(1, 500),
                     Network::Options{false, coalesce, /*tick=*/64},
                     /*seed=*/11);
    for (MsgType i = 0; i < 48; ++i) rig.a.post(1, i);
    rig.sim.run();
    std::vector<std::pair<MsgType, Time>> log;
    for (std::size_t i = 0; i < rig.b.received.size(); ++i) {
      log.emplace_back(rig.b.received[i].type, rig.b.times[i]);
      EXPECT_EQ(rig.b.times[i] % 64, 0);
    }
    return log;
  };
  const auto per_message = run_once(false);
  const auto coalesced = run_once(true);
  EXPECT_EQ(per_message, coalesced);
}

TEST(NetworkCoalesce, CrashLandingMidBatchSplitsIt) {
  // Four frames coalesce at t=100; the crash event's sequence sits between
  // frames 1 and 2, so the drain must yield after two deliveries and drop
  // the remainder at the per-frame crash check.
  CoalescedRig rig(std::make_unique<ConstantDelay>(100),
                   Network::Options{false, true, 1});
  rig.a.post(1, 0);
  rig.a.post(1, 1);
  rig.sim.schedule_at(100, [&] { rig.net.crash(1); });
  rig.a.post(1, 2);
  rig.a.post(1, 3);
  rig.sim.run();
  ASSERT_EQ(rig.b.received.size(), 2u);
  EXPECT_EQ(rig.b.received[0].type, 0u);
  EXPECT_EQ(rig.b.received[1].type, 1u);
  EXPECT_EQ(rig.net.stats().to_crashed, 2u);
  EXPECT_GE(rig.net.coalesce_stats().continuations, 1u);
  expect_stats_invariant(rig.net.stats());
}

TEST(NetworkCoalesce, BlockLandingMidBatchParksTheRemainder) {
  // Same shape with a block: the tail of the batch parks on the held list
  // and redelivers after unblock, preserving the stats invariant at every
  // quiescent point.
  CoalescedRig rig(std::make_unique<ConstantDelay>(100),
                   Network::Options{false, true, 1});
  rig.a.post(1, 0);
  rig.a.post(1, 1);
  rig.sim.schedule_at(100, [&] { rig.net.block_link(0, 1); });
  rig.a.post(1, 2);
  rig.a.post(1, 3);
  rig.sim.run();
  ASSERT_EQ(rig.b.received.size(), 2u);
  EXPECT_EQ(rig.net.stats().held, 2u);
  expect_stats_invariant(rig.net.stats());

  rig.net.unblock_link(0, 1);
  rig.sim.run();
  ASSERT_EQ(rig.b.received.size(), 4u);
  EXPECT_EQ(rig.b.received[2].type, 2u);
  EXPECT_EQ(rig.b.received[3].type, 3u);
  EXPECT_EQ(rig.net.stats().held, 0u);
  expect_stats_invariant(rig.net.stats());
}

TEST(NetworkCoalesce, FifoOrderSurvivesCoalescing) {
  auto run_once = [](bool coalesce) {
    CoalescedRig rig(std::make_unique<UniformDelay>(1, 1000),
                     Network::Options{true, coalesce, 1}, /*seed=*/3);
    for (MsgType i = 0; i < 20; ++i) rig.a.post(1, i);
    rig.sim.run();
    std::vector<std::pair<MsgType, Time>> log;
    for (std::size_t i = 0; i < rig.b.received.size(); ++i) {
      log.emplace_back(rig.b.received[i].type, rig.b.times[i]);
    }
    return log;
  };
  const auto per_message = run_once(false);
  const auto coalesced = run_once(true);
  ASSERT_EQ(per_message.size(), 20u);
  for (std::size_t i = 1; i < per_message.size(); ++i) {
    EXPECT_LE(per_message[i - 1].first, per_message[i].first);
  }
  EXPECT_EQ(per_message, coalesced);
}

TEST(NetworkCoalesce, UnattachedDestinationRunIsDroppedAndConserves) {
  // After the tick's lone first frame, two same-tick frames to a node with
  // no attached process drain as one batch run and are discarded together;
  // the conservation invariant balances.
  CoalescedRig rig(std::make_unique<ConstantDelay>(100),
                   Network::Options{false, true, 1});
  rig.a.post(7, 1);  // node 7 has no process; rides alone
  rig.a.post(7, 2);
  rig.a.post(7, 3);
  rig.a.post(1, 4);
  rig.sim.run();
  EXPECT_EQ(rig.net.coalesce_stats().batches, 1u);
  EXPECT_EQ(rig.net.coalesce_stats().lone, 1u);
  EXPECT_EQ(rig.b.received.size(), 1u);
  EXPECT_EQ(rig.net.stats().delivered, 1u);
  EXPECT_EQ(rig.net.stats().dropped_unattached, 3u);
  expect_stats_invariant(rig.net.stats());
}

// ---------- Lone frames: a batch opens when a tick has company ----------

TEST(NetworkCoalesce, LoneFrameMakesNoBatch) {
  CoalescedRig rig(std::make_unique<ConstantDelay>(100),
                   Network::Options{false, true, 1});
  rig.a.post(1, 7);
  rig.sim.run();
  ASSERT_EQ(rig.b.received.size(), 1u);
  EXPECT_EQ(rig.b.times[0], 100);
  const CoalesceStats& cs = rig.net.coalesce_stats();
  EXPECT_EQ(cs.lone, 1u);
  EXPECT_EQ(cs.batches, 0u);
  EXPECT_EQ(cs.enqueued, 0u);
  EXPECT_EQ(cs.frames, 0u);
  EXPECT_EQ(rig.net.storage_stats().batches, 0u);
  EXPECT_EQ(rig.net.storage_stats().chunks, 0u);
  EXPECT_EQ(rig.sim.executed(), 1u);
  EXPECT_EQ(logical_events(rig.sim, cs), 1u);
  expect_stats_invariant(rig.net.stats());
}

TEST(NetworkCoalesce, TimerBetweenLoneFrameAndBatchRunsBetweenThem) {
  // The timer's sequence falls between the lone frame's and the batch's,
  // so it runs after frame 0 and before frames 1 and 2, as in the
  // per-message engine, and the batch never has to yield.
  CoalescedRig rig(std::make_unique<ConstantDelay>(100),
                   Network::Options{false, true, 1});
  rig.a.post(1, 0);
  std::size_t seen_at_timer = 99;
  rig.sim.schedule_at(100, [&] { seen_at_timer = rig.b.received.size(); });
  rig.a.post(1, 1);
  rig.a.post(1, 2);
  rig.sim.run();
  EXPECT_EQ(seen_at_timer, 1u);
  ASSERT_EQ(rig.b.received.size(), 3u);
  for (MsgType i = 0; i < 3; ++i) EXPECT_EQ(rig.b.received[i].type, i);
  EXPECT_EQ(rig.net.coalesce_stats().lone, 1u);
  EXPECT_EQ(rig.net.coalesce_stats().batches, 1u);
  EXPECT_EQ(rig.net.coalesce_stats().continuations, 0u);
}

TEST(NetworkCoalesce, CrashBetweenLoneFrameAndBatchDropsTheBatch) {
  // The crash lands after the lone frame and before the batch: frame 0 is
  // delivered, the batch's two frames are dropped at the per-frame check.
  CoalescedRig rig(std::make_unique<ConstantDelay>(100),
                   Network::Options{false, true, 1});
  rig.a.post(1, 0);
  rig.sim.schedule_at(100, [&] { rig.net.crash(1); });
  rig.a.post(1, 1);
  rig.a.post(1, 2);
  rig.sim.run();
  ASSERT_EQ(rig.b.received.size(), 1u);
  EXPECT_EQ(rig.b.received[0].type, 0u);
  EXPECT_EQ(rig.net.stats().to_crashed, 2u);
  EXPECT_EQ(rig.net.coalesce_stats().lone, 1u);
  EXPECT_EQ(rig.net.coalesce_stats().batches, 1u);
  EXPECT_EQ(rig.net.coalesce_stats().frames, 0u);
  expect_stats_invariant(rig.net.stats());
}

TEST(NetworkCoalesce, LoneFramePayloadRidesInItsEventAndALargerOneOpensABatch) {
  // Tick 100's first frame fits an event record and rides alone; tick
  // 200's first frame does not, so it opens the tick's batch itself and
  // the next frame joins it. Every payload arrives intact, and no lone
  // frame takes a pooled buffer.
  constexpr std::size_t kFits = 44;
  CoalescedRig rig(std::make_unique<ConstantDelay>(100),
                   Network::Options{false, true, 1});
  rig.a.post_bytes(1, 0, kFits);
  rig.sim.schedule_at(100, [&] {
    rig.a.post_bytes(1, 1, kFits + 1);
    rig.a.post_bytes(1, 2, 3);
  });
  rig.sim.run();
  ASSERT_EQ(rig.b.received.size(), 3u);
  const std::size_t sizes[] = {kFits, kFits + 1, 3};
  for (std::size_t i = 0; i < 3; ++i) {
    const Message& m = rig.b.received[i];
    EXPECT_EQ(m.type, static_cast<MsgType>(i));
    ASSERT_EQ(m.payload.size(), sizes[i]);
    for (std::size_t j = 0; j < sizes[i]; ++j) {
      EXPECT_EQ(m.payload[j], static_cast<std::uint8_t>(j));
    }
  }
  EXPECT_EQ(rig.b.times[0], 100);
  EXPECT_EQ(rig.b.times[1], 200);
  const CoalesceStats& cs = rig.net.coalesce_stats();
  EXPECT_EQ(cs.lone, 1u);
  EXPECT_EQ(cs.batches, 1u);
  EXPECT_EQ(cs.frames, 2u);
  EXPECT_EQ(rig.net.pool().stats().acquired, 0u);
}

/// Hands out a fixed list of delays in order.
class ScriptedDelay final : public DelayModel {
 public:
  explicit ScriptedDelay(std::vector<Duration> d) : d_(std::move(d)) {}
  Duration sample(NodeId, NodeId, Rng&) override { return d_.at(next_++); }

 private:
  std::vector<Duration> d_;
  std::size_t next_ = 0;
};

TEST(NetworkCoalesce, EvictedLoneEntryLeavesALaterFrameOfItsTickLone) {
  // Frames 0, 2 and 3 arrive at tick 100; frame 1 arrives at a tick whose
  // open-table slot collides with 100's and evicts its lone entry. Frame 2
  // then finds no entry for tick 100 and rides alone too; frame 3 opens a
  // batch from frame 2's entry. Every frame still arrives in per-message
  // order. The colliding tick is found through the stats, so the test does
  // not depend on the table's size or hash.
  auto run_once = [](Duration other, bool coalesce) {
    CoalescedRig rig(
        std::make_unique<ScriptedDelay>(std::vector<Duration>{
            100, other, 100, 100}),
        Network::Options{false, coalesce, 1});
    for (MsgType i = 0; i < 4; ++i) rig.a.post(1, i);
    rig.sim.run();
    std::vector<std::pair<MsgType, Time>> log;
    for (std::size_t i = 0; i < rig.b.received.size(); ++i) {
      log.emplace_back(rig.b.received[i].type, rig.b.times[i]);
    }
    return std::make_pair(rig.net.coalesce_stats(), log);
  };
  Duration other = 101;
  for (; other < 1'000'000; ++other) {
    if (run_once(other, true).first.lone == 3) break;
  }
  ASSERT_LT(other, 1'000'000) << "no tick collided with tick 100";
  const auto [cs, log] = run_once(other, true);
  EXPECT_EQ(cs.lone, 3u);
  EXPECT_EQ(cs.batches, 1u);
  EXPECT_EQ(cs.frames, 1u);
  EXPECT_EQ(log, run_once(other, false).second);
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], std::make_pair(MsgType{0}, Time{100}));
  EXPECT_EQ(log[1], std::make_pair(MsgType{2}, Time{100}));
  EXPECT_EQ(log[2], std::make_pair(MsgType{3}, Time{100}));
  EXPECT_EQ(log[3], std::make_pair(MsgType{1}, Time{other}));
}

// ---------- Batch storage: records in pooled chunks ----------

/// Sends `n` payload bytes that depend on `type` as well as their index, so
/// a record decoded from the wrong offset cannot pass for another.
void send_pattern(Network& net, NodeId src, NodeId dst, MsgType type,
                  std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 7 + type * 31);
  }
  net.send_bytes(src, dst, type, 0, 0, ByteSpan(bytes));
}

void post_pattern(CoalescedRig& rig, MsgType type, std::size_t n) {
  send_pattern(rig.net, 0, 1, type, n);
}

/// Payload bytes whose record takes exactly `record` bytes of a chunk.
std::size_t payload_for_record(std::size_t record) {
  return record - Network::kRecordHeaderBytes;
}

/// One lane's run: what node 1 received (type, time, payload) and, when
/// a hook is set, what it saw (type, sent, delivered), plus the counters.
struct LaneRun {
  std::vector<std::tuple<MsgType, Time, std::vector<std::uint8_t>>> got;
  std::vector<std::tuple<MsgType, Time, Time>> hooked;
  NetworkStats stats;
  CoalesceStats coalesce;
  BatchStorageStats storage;
};

using Script = std::function<void(CoalescedRig&)>;

LaneRun run_lane(bool coalesce, std::unique_ptr<DelayModel> delay,
                 const Script& script, bool hook = false) {
  CoalescedRig rig(std::move(delay), Network::Options{false, coalesce, 1});
  LaneRun out;
  if (hook) {
    rig.net.set_delivery_hook([&out](const Frame& f, Time sent, Time at) {
      if (f.dst == 1) out.hooked.emplace_back(f.type, sent, at);
    });
  }
  script(rig);
  rig.sim.run();
  for (std::size_t i = 0; i < rig.b.received.size(); ++i) {
    out.got.emplace_back(rig.b.received[i].type, rig.b.times[i],
                         rig.b.received[i].payload);
  }
  out.stats = rig.net.stats();
  out.coalesce = rig.net.coalesce_stats();
  out.storage = rig.net.storage_stats();
  return out;
}

auto stats_fields(const NetworkStats& s) {
  return std::make_tuple(s.sent, s.bytes_sent, s.delivered, s.held,
                         s.to_crashed, s.from_crashed, s.dropped_unattached);
}

/// Runs `script` in both lanes, requires identical deliveries, hook calls
/// and counters, and returns the batched lane's run.
LaneRun expect_lanes_agree(const std::function<std::unique_ptr<DelayModel>()>&
                               make_delay,
                           const Script& script, bool hook = false) {
  const LaneRun per_message = run_lane(false, make_delay(), script, hook);
  LaneRun batched = run_lane(true, make_delay(), script, hook);
  EXPECT_EQ(batched.got, per_message.got);
  EXPECT_EQ(batched.hooked, per_message.hooked);
  EXPECT_EQ(stats_fields(batched.stats), stats_fields(per_message.stats));
  expect_stats_invariant(batched.stats);
  EXPECT_EQ(per_message.storage.chunks, 0u);
  return batched;
}

auto constant_100 = [] { return std::make_unique<ConstantDelay>(100); };

TEST(NetworkChunks, RecordThatExactlyFillsAChunkTakesNoSecond) {
  // After the lone frame, two records of half a chunk each fill the
  // batch's first chunk to its last byte.
  const std::size_t half = Network::kChunkRecordBytes / 2;
  const LaneRun r = expect_lanes_agree(constant_100, [half](CoalescedRig& g) {
    g.a.post(1, 0);
    post_pattern(g, 1, payload_for_record(half));
    post_pattern(g, 2, payload_for_record(half));
  });
  ASSERT_EQ(r.got.size(), 3u);
  EXPECT_EQ(r.coalesce.frames, 2u);
  EXPECT_EQ(r.storage.chunks, 1u);
  EXPECT_EQ(r.storage.spills, 0u);
  EXPECT_EQ(r.storage.blocks, 0u);

  // The largest payload a chunk holds, alone in its batch, fills it too.
  const LaneRun one = expect_lanes_agree(constant_100, [](CoalescedRig& g) {
    post_pattern(g, 0, Network::kChunkPayloadBytes);
  });
  EXPECT_EQ(one.coalesce.frames, 1u);
  EXPECT_EQ(one.storage.chunks, 1u);
  EXPECT_EQ(one.storage.blocks, 0u);
}

TEST(NetworkChunks, RecordThatDoesNotFitTheTailSpillsIntoTheNextChunk) {
  // The second record is 8 bytes too long for what the first left, so it
  // opens the batch's second chunk; a third, small, joins it there.
  const std::size_t half = Network::kChunkRecordBytes / 2;
  const LaneRun r = expect_lanes_agree(constant_100, [half](CoalescedRig& g) {
    g.a.post(1, 0);
    post_pattern(g, 1, payload_for_record(half));
    post_pattern(g, 2, payload_for_record(half + 8));
    post_pattern(g, 3, 5);
  });
  ASSERT_EQ(r.got.size(), 4u);
  EXPECT_EQ(r.coalesce.frames, 3u);
  EXPECT_EQ(r.coalesce.batches, 1u);
  EXPECT_EQ(r.storage.chunks, 2u);
  EXPECT_EQ(r.storage.spills, 1u);
  // One same-destination run, across the chunk boundary.
  EXPECT_EQ(r.coalesce.hist[1], 1u);
}

TEST(NetworkChunks, PayloadLargerThanAChunkGetsABlock) {
  // A first frame too large for a chunk opens its batch in a block; the
  // next record goes to a fresh chunk, never into the block's slack, and a
  // larger payload takes a block of a larger size class. A later tick,
  // sent after the first batch drained, reuses its pooled block and chunk.
  const std::size_t big = Network::kChunkPayloadBytes + 1;
  const LaneRun r = expect_lanes_agree(constant_100, [big](CoalescedRig& g) {
    post_pattern(g, 0, big);
    post_pattern(g, 1, 3);
    post_pattern(g, 2, 4 * Network::kChunkBytes);
    g.sim.schedule_at(150, [&g, big] {
      post_pattern(g, 3, big);
      post_pattern(g, 4, 0);
    });
  });
  ASSERT_EQ(r.got.size(), 5u);
  EXPECT_EQ(r.coalesce.lone, 0u);
  EXPECT_EQ(r.coalesce.batches, 2u);
  EXPECT_EQ(r.storage.blocks, 2u);
  EXPECT_EQ(r.storage.chunks, 1u);
  EXPECT_EQ(r.storage.spills, 3u);
}

/// Three records that fill one chunk, then two in the next.
void fill_then_spill(CoalescedRig& g, const std::function<void()>& between) {
  const std::size_t third = Network::kChunkRecordBytes / 3;
  g.a.post(1, 0);
  for (MsgType i = 1; i <= 3; ++i) {
    post_pattern(g, i, payload_for_record(third));
  }
  post_pattern(g, 4, 100);
  between();
  post_pattern(g, 5, 100);
  post_pattern(g, 6, 0);
}

TEST(NetworkChunks, TimerMidBatchResumesInsideALaterChunk) {
  // The timer's sequence falls between frames 4 and 5, both in the
  // batch's second chunk: the drain yields there and its continuation
  // resumes past frame 4's record, inside that chunk.
  std::vector<std::size_t> seen;
  const LaneRun r = expect_lanes_agree(constant_100, [&seen](CoalescedRig& g) {
    fill_then_spill(g, [&g, &seen] {
      g.sim.schedule_at(100, [&g, &seen] { seen.push_back(g.b.received.size()); });
    });
  });
  EXPECT_EQ(seen, (std::vector<std::size_t>{5, 5}));
  ASSERT_EQ(r.got.size(), 7u);
  EXPECT_EQ(r.coalesce.continuations, 1u);
  EXPECT_EQ(r.storage.chunks, 2u);
  EXPECT_EQ(r.storage.spills, 1u);
}

TEST(NetworkChunks, CrashMidBatchDropsTheRestOfALaterChunk) {
  const LaneRun r = expect_lanes_agree(constant_100, [](CoalescedRig& g) {
    fill_then_spill(g, [&g] {
      g.sim.schedule_at(100, [&g] { g.net.crash(1); });
    });
  });
  ASSERT_EQ(r.got.size(), 5u);
  EXPECT_EQ(r.stats.to_crashed, 2u);
  EXPECT_EQ(r.coalesce.continuations, 1u);
}

TEST(NetworkChunks, EvictedBatchKeepsTheRecordsOfItsCursor) {
  // Tick 100's batch spans two chunks when frame 4, for a tick whose
  // open-table slot collides with 100's, evicts it. The batch must still
  // drain every record up to the evicted cursor; frame 5 finds no entry
  // for tick 100 and rides alone, and frame 6 opens a second batch. The
  // colliding tick is found through the stats, as in the lone-entry case.
  const std::size_t third = Network::kChunkRecordBytes / 3;
  auto script = [third](CoalescedRig& g) {
    g.a.post(1, 0);
    post_pattern(g, 1, payload_for_record(third));
    post_pattern(g, 2, payload_for_record(third));
    post_pattern(g, 3, payload_for_record(2 * third));
    g.a.post(1, 4);
    g.a.post(1, 5);
    post_pattern(g, 6, 9);
  };
  auto delays = [](Duration other) {
    return [other] {
      return std::make_unique<ScriptedDelay>(
          std::vector<Duration>{100, 100, 100, 100, other, 100, 100});
    };
  };
  Duration other = 101;
  for (; other < 1'000'000; ++other) {
    if (run_lane(true, delays(other)(), script).coalesce.lone == 3) break;
  }
  ASSERT_LT(other, 1'000'000) << "no tick collided with tick 100";
  const LaneRun r = expect_lanes_agree(delays(other), script);
  ASSERT_EQ(r.got.size(), 7u);
  EXPECT_EQ(std::get<0>(r.got[3]), 3u);
  EXPECT_EQ(std::get<0>(r.got[6]), 4u);
  EXPECT_EQ(r.coalesce.batches, 2u);
  EXPECT_EQ(r.coalesce.lone, 3u);
  EXPECT_EQ(r.storage.spills, 1u);
}

TEST(NetworkChunks, SlowPathWalksAMultiChunkBatch) {
  // A blocked link elsewhere keeps the drain on its per-frame path for a
  // batch of two full chunks and a block. Mid-batch, a block on 0 -> 1 parks the rest;
  // unblocking redelivers it. A crash variant drops the rest instead, and
  // a hook variant sees every record's send time.
  const std::size_t third = Network::kChunkRecordBytes / 3;
  auto batch = [third](CoalescedRig& g, const std::function<void()>& mid) {
    g.a.post(1, 0);
    for (MsgType i = 1; i <= 6; ++i) {
      post_pattern(g, i, payload_for_record(third));
      if (i == 4) mid();
    }
    post_pattern(g, 7, 2 * Network::kChunkBytes);
  };
  const LaneRun parked =
      expect_lanes_agree(constant_100, [batch](CoalescedRig& g) {
        g.net.block_link(1, 0);
        batch(g, [&g] { g.sim.schedule_at(100, [&g] { g.net.block_link(0, 1); }); });
        g.sim.schedule_at(200, [&g] { g.net.unblock_link(0, 1); });
      });
  ASSERT_EQ(parked.got.size(), 8u);
  EXPECT_EQ(std::get<1>(parked.got[4]), 100);
  EXPECT_EQ(std::get<1>(parked.got[5]), 300);
  // The redelivered tail forms a batch of its own from the pooled chunk
  // and block, and spills into the block again.
  EXPECT_EQ(parked.storage.chunks, 2u);
  EXPECT_EQ(parked.storage.blocks, 1u);
  EXPECT_EQ(parked.storage.spills, 3u);
  EXPECT_EQ(parked.coalesce.continuations, 1u);

  const LaneRun dropped =
      expect_lanes_agree(constant_100, [batch](CoalescedRig& g) {
        g.net.crash(7);
        batch(g, [&g] { g.sim.schedule_at(100, [&g] { g.net.crash(1); }); });
      });
  ASSERT_EQ(dropped.got.size(), 5u);
  EXPECT_EQ(dropped.stats.to_crashed, 3u);

  const LaneRun hooked = expect_lanes_agree(
      constant_100,
      [batch](CoalescedRig& g) {
        g.sim.schedule_at(10, [&g, batch] { batch(g, [] {}); });
      },
      /*hook=*/true);
  ASSERT_EQ(hooked.hooked.size(), 8u);
  for (const auto& h : hooked.hooked) {
    EXPECT_EQ(std::get<1>(h), 10);
    EXPECT_EQ(std::get<2>(h), 110);
  }
}

/// Records each frame it receives and answers it at once with a copy of
/// its payload, so every answer is appended while the run carrying the
/// frame is still being dispatched.
class Echo final : public Process {
 public:
  Echo(NodeId id, Network& net) : Process(id, net) {}
  void on_message(const Frame& m) override {
    got.emplace_back(m.type,
                     std::vector<std::uint8_t>(m.payload.begin(),
                                               m.payload.end()));
    net().send_bytes(id(), m.src, m.type, 0, 0, m.payload);
  }
  std::vector<std::pair<MsgType, std::vector<std::uint8_t>>> got;
};

TEST(NetworkChunks, SendsFromARunNeverReuseAChunkTheRunStillViews) {
  // One same-destination run spans three chunks. Its handler's answers
  // open a batch of their own while the run is dispatched; the chunks
  // they take must not be ones the run's later frames still point into.
  const std::size_t third = Network::kChunkRecordBytes / 3;
  auto run = [third](bool coalesce) {
    Simulator sim;
    Network net(sim, std::make_unique<ConstantDelay>(100), Rng(1),
                Network::Options{false, coalesce, 1});
    Recorder a(0, net);
    Echo b(1, net);
    a.post(1, 0);
    for (MsgType i = 1; i <= 9; ++i) {
      send_pattern(net, 0, 1, i, payload_for_record(third));
    }
    sim.run();
    std::vector<std::vector<std::uint8_t>> back;
    for (const Message& m : a.received) back.push_back(m.payload);
    return std::make_tuple(b.got, back, net.coalesce_stats().hist[3],
                           net.storage_stats().chunks);
  };
  const auto per_message = run(false);
  const auto batched = run(true);
  EXPECT_EQ(std::get<0>(batched), std::get<0>(per_message));
  EXPECT_EQ(std::get<1>(batched), std::get<1>(per_message));
  EXPECT_EQ(std::get<2>(batched), 2u);  // both runs of 9 frames
  EXPECT_EQ(std::get<3>(batched), 6u);
}

// ---------- Fault-mutation contract ----------

struct Lane {
  const char* name;
  Network::Options opts;
};
const Lane kLanes[] = {
    {"per-message", Network::Options{false, false, 1}},
    {"frame-order", Network::Options{false, true, 1}},
};

struct Mutation {
  const char* refusal;  ///< the call as the refusal names it
  void (*apply)(Network&);
};
const Mutation kMutations[] = {
    {"Network::crash(2)", [](Network& n) { n.crash(2); }},
    {"Network::recover(2)", [](Network& n) { n.recover(2); }},
    {"Network::block_link(0, 2)", [](Network& n) { n.block_link(0, 2); }},
    {"Network::unblock_link(0, 2)", [](Network& n) { n.unblock_link(0, 2); }},
    {"Network::block_link(0, 2)", [](Network& n) { n.block_pair(0, 2); }},
    {"Network::unblock_link(0, 2)", [](Network& n) { n.unblock_pair(0, 2); }},
};

void expect_refused(Simulator& sim, const std::string& refusal) {
  try {
    sim.run();
    ADD_FAILURE() << refusal << " from inside a delivery was not refused";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find(refusal + " called from"),
              std::string::npos)
        << e.what();
  }
}

/// Applies one fault mutation from inside its handler for the nth message.
class Mutator final : public Process {
 public:
  Mutator(NodeId id, Network& net, void (*apply)(Network&), int nth)
      : Process(id, net), apply_(apply), left_(nth) {}
  void on_message(const Frame&) override {
    if (--left_ == 0) apply_(net());
  }

 private:
  void (*apply_)(Network&);
  int left_;
};

// Two same-tick frames: in the batched lane the first rides its own event
// and the second a batch, so mutating on each covers both delivery paths
// of every lane.
constexpr int kNth[] = {1, 2};

TEST(NetworkContract, HandlerFaultMutationsAreRefusedInEveryLane) {
  for (const Lane& lane : kLanes) {
    for (const int nth : kNth) {
      for (const Mutation& m : kMutations) {
        SCOPED_TRACE(std::string(lane.name) + ", frame " +
                     std::to_string(nth) + ": " + m.refusal);
        Simulator sim;
        Network net(sim, std::make_unique<ConstantDelay>(100), Rng(1),
                    lane.opts);
        Recorder src(0, net);
        Mutator dst(2, net, m.apply, nth);
        src.post(2, 1);
        src.post(2, 2);
        expect_refused(sim, m.refusal);
      }
    }
  }
}

TEST(NetworkContract, HookFaultMutationsAreRefusedInEveryLane) {
  for (const Lane& lane : kLanes) {
    for (const int nth : kNth) {
      for (const Mutation& m : kMutations) {
        SCOPED_TRACE(std::string(lane.name) + ", frame " +
                     std::to_string(nth) + ": " + m.refusal);
        Simulator sim;
        Network net(sim, std::make_unique<ConstantDelay>(100), Rng(1),
                    lane.opts);
        Recorder src(0, net);
        Recorder dst(2, net);
        int left = nth;
        net.set_delivery_hook(
            [&net, &left, apply = m.apply](const Frame&, Time, Time) {
              if (--left == 0) apply(net);
            });
        src.post(2, 1);
        src.post(2, 2);
        expect_refused(sim, m.refusal);
        // The hook runs before the handler, so the refused frame is never
        // received.
        EXPECT_EQ(dst.received.size(), static_cast<std::size_t>(nth - 1));
      }
    }
  }
}

// ---------- Delay models ----------

TEST(DelayModel, UniformWithinBounds) {
  UniformDelay d(5, 10);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const Duration v = d.sample(0, 1, rng);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 10);
  }
}

TEST(DelayModel, LogNormalPositiveAndSpread) {
  LogNormalDelay d(1 * kMillisecond, 0.5);
  Rng rng(2);
  Duration lo = kTimeMax, hi = 0;
  for (int i = 0; i < 500; ++i) {
    const Duration v = d.sample(0, 1, rng);
    EXPECT_GT(v, 0);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_LT(lo, 1 * kMillisecond);
  EXPECT_GT(hi, 1 * kMillisecond);
}

TEST(DelayModel, GeoUsesSiteMatrix) {
  // Two sites, 100ms apart; same-site is 1ms.
  GeoDelay d({{1.0, 100.0}, {100.0, 1.0}}, {0, 1}, /*jitter=*/0.0);
  Rng rng(3);
  EXPECT_EQ(d.sample(0, 0, rng), static_cast<Duration>(0.5 * kMillisecond));
  EXPECT_EQ(d.sample(0, 1, rng), static_cast<Duration>(50.0 * kMillisecond));
}

}  // namespace
}  // namespace mwreg
