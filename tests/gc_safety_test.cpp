// Safety of valuevector garbage collection + delta read acks (DESIGN.md
// section 6): the GC'd protocol must be observationally identical to the
// full-valuevector protocol — same histories, same verdicts — while server
// state and read-ack bytes stay O(active values). The parity tests exploit
// that gc on/off exchanges the same NUMBER of messages in the same order
// (only payload contents shrink), so with equal seeds the two protocols
// produce bit-identical histories.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "consistency/checkers.h"
#include "core/client_table.h"
#include "core/harness.h"
#include "core/workload.h"
#include "exp/runner.h"
#include "fuzz/schedule_fuzzer.h"
#include "protocols/fastread_server.h"
#include "protocols/protocols.h"
#include "sim/fault_plan.h"

namespace mwreg {
namespace {

// GC is the default since the PR 7 flip; the no-GC ablation stays
// registered precisely so this parity pin keeps a reference side.
constexpr const char* kGcOff = "fast-read-mw-nogc(W2R1)";
constexpr const char* kGcOn = "fast-read-mw(W2R1)";

SimHarness make_harness(const char* proto, const ClusterConfig& cfg,
                        std::uint64_t seed) {
  SimHarness::Options o;
  o.cfg = cfg;
  o.seed = seed;
  return SimHarness(*protocol_by_name(proto), std::move(o));
}

// ---------- observational parity: GC on/off, faults and all ----------

TEST(GcParity, HistoriesIdenticalAcrossCannedFaultScenarios) {
  const ClusterConfig cfg{7, 2, 3, 1};
  ASSERT_TRUE(cfg.supports_fast_read());
  std::vector<FaultPlan> plans = scenarios::all();
  plans.push_back(FaultPlan{});  // fault-free
  for (const FaultPlan& plan : plans) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SimHarness off = make_harness(kGcOff, cfg, seed);
      SimHarness on = make_harness(kGcOn, cfg, seed);
      if (!plan.empty()) {
        off.install_fault_plan(plan);
        on.install_fault_plan(plan);
      }
      WorkloadOptions w;
      w.ops_per_writer = 10;
      w.ops_per_reader = 10;
      run_random_workload(off, w);
      run_random_workload(on, w);

      const std::string label =
          (plan.empty() ? std::string("fault-free") : plan.name) + " seed " +
          std::to_string(seed);
      // Bit-identical histories: same ops, same returned values, same
      // virtual-time stamps. This subsumes MWA2/atomicity verdict parity.
      EXPECT_EQ(off.history().to_string(), on.history().to_string()) << label;
      EXPECT_EQ(off.net().stats().sent, on.net().stats().sent) << label;
      EXPECT_EQ(off.sim().executed(), on.sim().executed()) << label;
      EXPECT_EQ(check_tag_witness(off.history()).atomic,
                check_tag_witness(on.history()).atomic)
          << label;
      // The point of the exercise: same behavior, never more bytes (the
      // margin is slim at 10 ops/client; GcBytes below pins the asymptotic
      // gap on a long run).
      EXPECT_LE(on.net().stats().bytes_sent, off.net().stats().bytes_sent)
          << label;
    }
  }
}

TEST(GcParity, ScheduleFuzzerVerdictsIdenticalGcOnOff) {
  fuzz::FuzzOptions opts;
  opts.cfg = ClusterConfig{7, 2, 3, 1};
  opts.trials = 25;
  opts.ops_per_client = 6;
  opts.seed = 11;
  opts.expect = "atomic";

  opts.protocol = kGcOff;
  const fuzz::FuzzReport off = fuzz::run_schedule_fuzzer(opts);
  opts.protocol = kGcOn;
  const fuzz::FuzzReport on = fuzz::run_schedule_fuzzer(opts);

  EXPECT_EQ(off.trials, on.trials);
  EXPECT_EQ(off.passed, on.passed);
  EXPECT_EQ(off.violations, on.violations);
  EXPECT_EQ(off.total_ops, on.total_ops);
  EXPECT_EQ(off.pending_ops, on.pending_ops);
  EXPECT_EQ(on.violations, 0) << on.first_violation;
}

TEST(GcParity, RunnerVerdictsMatchAcrossScenarioSweep) {
  exp::ExperimentSpec spec;
  spec.name = "gc-parity";
  spec.protocols = {kGcOn};
  spec.clusters = {ClusterConfig{7, 2, 3, 1}, ClusterConfig{9, 2, 2, 2}};
  spec.fault_plans = scenarios::all();
  spec.seeds = 2;
  spec.workload.ops_per_writer = 8;
  spec.workload.ops_per_reader = 8;
  const exp::Runner runner(exp::Runner::Options{4});
  for (const exp::TrialResult& tr : runner.run(spec)) {
    EXPECT_TRUE(tr.tag_atomic)
        << tr.protocol << " " << tr.cfg.to_string() << " " << tr.fault_plan
        << " seed " << tr.user_seed << ": " << tr.violation;
  }
}

// ---------- a hand-wired cluster exposing the concrete servers ----------

/// Mini W2R2 fast-read cluster: a ClientTable in front of FastReadServers,
/// with direct access to the servers' GC state (SimHarness only exposes the
/// Process interface).
struct ManualCluster {
  ClusterConfig cfg{5, 2, 2, 1};
  std::vector<ClusterConfig> key_cfgs{cfg};
  Simulator sim;
  Network net;
  History history;
  std::vector<std::unique_ptr<FastReadServer>> servers;
  std::unique_ptr<ClientTable> clients;
  TaggedValue last{};  ///< value of the most recent completion

  explicit ManualCluster(bool gc)
      : net(sim, std::make_unique<ConstantDelay>(kMillisecond), Rng(7)) {
    FastReadServer::Options so;
    so.gc_enabled = gc;
    for (NodeId s : cfg.server_ids()) {
      servers.push_back(std::make_unique<FastReadServer>(s, net, cfg, so));
    }
    clients = std::make_unique<ClientTable>(
        net, cfg, key_cfgs, TableWriterProgram::kFrQueryThenWrite,
        gc ? TableReaderProgram::kFrDelta : TableReaderProgram::kFrFull,
        std::vector<History*>{&history});
    clients->set_on_complete(
        [this](int, OpKind, const TaggedValue& v) { last = v; });
  }

  Tag write(int wi, std::int64_t payload) {
    last = TaggedValue{};
    clients->start_write(wi, 0, payload);
    sim.run();
    return last.tag;
  }

  TaggedValue read(int ri) {
    last = TaggedValue{Tag{-1, -1}, 0};
    clients->start_read(ri, 0);
    sim.run();
    return last;
  }
};

TEST(GcCollection, ValuevectorStaysBoundedWhileAblationGrows) {
  ManualCluster gc(true);
  ManualCluster off(false);
  const int kOps = 120;
  for (int i = 1; i <= kOps; ++i) {
    EXPECT_EQ(gc.write(i % 2, 100 + i).ts, off.write(i % 2, 100 + i).ts);
    EXPECT_EQ(gc.read(i % 2), off.read(i % 2));  // parity ride-along
  }
  for (int s = 0; s < gc.cfg.s(); ++s) {
    // With both readers reading continuously, the floor tracks the write
    // frontier and the valuevector holds only the handful of values still
    // in flight — two orders of magnitude below the ablation's history.
    EXPECT_LE(gc.servers[static_cast<std::size_t>(s)]->valuevector_size(), 8u)
        << "server " << s;
    EXPECT_GT(gc.servers[static_cast<std::size_t>(s)]->entries_pruned(), 100u);
    EXPECT_GT(gc.servers[static_cast<std::size_t>(s)]->gc_floor().ts, 0);
    // The ablation server keeps every value ever written (plus bottom).
    EXPECT_EQ(off.servers[static_cast<std::size_t>(s)]->valuevector_size(),
              static_cast<std::size_t>(kOps) + 1);
  }
  // Reader-side caches mirror the bounded server state.
  for (int r = 0; r < gc.cfg.r(); ++r) {
    for (int s = 0; s < gc.cfg.s(); ++s) {
      EXPECT_LE(gc.clients->reader_cache_size(r, s), 8u);
    }
  }
  EXPECT_LT(gc.net.stats().bytes_sent, off.net.stats().bytes_sent / 4)
      << "delta acks should cut bytes-on-wire by far more than 4x here";
}

TEST(GcCollection, FloorNeverPassesTheMinimumReaderWatermark) {
  ManualCluster gc(true);
  for (int i = 1; i <= 40; ++i) {
    gc.write(i % 2, i);
    gc.read(0);
    // Reader 1 lags, then stops reading entirely: its watermark is older.
    if (i % 4 == 0 && i <= 30) gc.read(1);
  }
  const Tag w0 = gc.clients->reader_watermark(0).tag;
  const Tag w1 = gc.clients->reader_watermark(1).tag;
  const Tag min_wm = std::min(w0, w1);
  EXPECT_LT(w1, w0) << "reader 1 should genuinely lag in this schedule";
  for (const auto& s : gc.servers) {
    EXPECT_LE(s->gc_floor(), min_wm)
        << "a server pruned above the minimum confirmed watermark";
  }
}

TEST(GcCollection, CrashedThenRecoveredReaderKeepsItsReturnableValues) {
  ManualCluster gc(true);
  // Warm up: both readers read, watermarks and the floor advance.
  for (int i = 1; i <= 10; ++i) {
    gc.write(i % 2, i);
    gc.read(0);
    gc.read(1);
  }
  const TaggedValue pre_crash = gc.read(0);
  const Tag frozen_wm = gc.clients->reader_watermark(0).tag;

  // Reader 0 drops off the network. Its confirmed watermark is frozen; the
  // GC floor must freeze with it even though reader 1 keeps advancing.
  const NodeId r0 = gc.cfg.reader_id(0);
  gc.net.crash(r0);
  for (int i = 11; i <= 60; ++i) {
    gc.write(i % 2, i);
    gc.read(1);
  }
  for (const auto& s : gc.servers) {
    EXPECT_LE(s->gc_floor(), frozen_wm)
        << "GC advanced past a crashed reader's watermark";
    EXPECT_GT(s->entries_pruned(), 0u);
  }

  // The reader rejoins (state intact, network-isolation model) and reads:
  // it must never observe a state that makes it return below its own
  // watermark — the value it could still legally return was never pruned.
  gc.net.recover(r0);
  const TaggedValue post_recover = gc.read(0);
  EXPECT_GE(post_recover.tag, pre_crash.tag)
      << "recovered reader went back in time: read " << post_recover.to_string()
      << " after " << pre_crash.to_string();
  EXPECT_GE(post_recover.tag, frozen_wm);
}

// ---------- bytes-on-wire: bounded vs. linearly growing read acks ----------

TEST(GcBytes, ReadAckBytesPlateauWithGcAndGrowWithoutIt) {
  // Record every read-ack payload size; compare an early window against a
  // late one. The simulation is deterministic, so these are exact counts.
  auto ack_sizes = [](const char* proto, std::uint64_t seed) {
    SimHarness h = make_harness(proto, ClusterConfig{5, 2, 2, 1}, seed);
    std::vector<std::size_t> sizes;
    h.net().set_delivery_hook([&sizes](const Frame& m, Time, Time) {
      if (m.type == kFrReadAck || m.type == kFrReadAckDelta) {
        sizes.push_back(m.payload.size());
      }
    });
    WorkloadOptions w;
    w.ops_per_writer = 120;
    w.ops_per_reader = 120;
    run_random_workload(h, w);
    return sizes;
  };
  auto window_mean = [](const std::vector<std::size_t>& v, double lo,
                        double hi) {
    const std::size_t a = static_cast<std::size_t>(v.size() * lo);
    const std::size_t b = static_cast<std::size_t>(v.size() * hi);
    if (b <= a) return 0.0;
    double sum = 0;
    for (std::size_t i = a; i < b; ++i) sum += static_cast<double>(v[i]);
    return sum / static_cast<double>(b - a);
  };

  const std::vector<std::size_t> off = ack_sizes(kGcOff, 5);
  const std::vector<std::size_t> on = ack_sizes(kGcOn, 5);
  ASSERT_GT(off.size(), 100u);
  ASSERT_GT(on.size(), 100u);

  const double off_growth = window_mean(off, 0.75, 1.0) /
                            window_mean(off, 0.25, 0.5);
  const double on_growth = window_mean(on, 0.75, 1.0) /
                           window_mean(on, 0.25, 0.5);
  // Full acks re-encode every value ever written: the late window must be
  // close to 3x the early one ((0.75+1)/2 over (0.25+0.5)/2 of a linear
  // ramp). Delta acks carry only in-flight values: flat after warmup.
  EXPECT_GT(off_growth, 2.0) << "ablation read acks stopped growing?";
  EXPECT_LT(on_growth, 1.3) << "GC+delta read acks kept growing";
}

}  // namespace
}  // namespace mwreg
