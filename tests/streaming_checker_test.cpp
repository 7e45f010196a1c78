// Streaming tag-witness checker tests: registry surface, refusal semantics,
// verdict parity against the batch checkers (canned histories, randomized
// histories, live fault-scenario runs, adversary-injected violations), and
// the bounded-window / history-retirement guarantees on long runs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chains/fastread_adversary.h"
#include "common/rng.h"
#include "consistency/checkers.h"
#include "consistency/history.h"
#include "consistency/streaming_checker.h"
#include "core/harness.h"
#include "core/workload.h"
#include "protocols/protocols.h"
#include "sim/fault_plan.h"

namespace mwreg {
namespace {

// Same convenience builder as consistency_test.cpp.
struct Builder {
  History h;
  NodeId next_client = 100;

  OpId write(Time s, Time f, Tag tag, std::int64_t payload,
             NodeId client = kNoNode) {
    const OpId id = h.begin_op(client == kNoNode ? next_client++ : client,
                               OpKind::kWrite, s);
    if (f != kTimeMax) {
      h.end_op(id, f, TaggedValue{tag, payload});
    } else {
      h.set_value(id, TaggedValue{tag, payload});  // pending, tag known
    }
    return id;
  }
  OpId read(Time s, Time f, Tag tag, std::int64_t payload,
            NodeId client = kNoNode) {
    const OpId id = h.begin_op(client == kNoNode ? next_client++ : client,
                               OpKind::kRead, s);
    if (f != kTimeMax) h.end_op(id, f, TaggedValue{tag, payload});
    return id;
  }
};

void expect_stream_parity(const History& h, const char* what) {
  const CheckResult batch = check_tag_witness(h);
  const CheckResult stream = check_streaming(h);
  EXPECT_EQ(stream.atomic, batch.atomic)
      << what << ": streaming disagrees with batch on\n"
      << h.to_string() << "batch: " << batch.violation
      << "\nstream: " << stream.violation;
  if (!stream.atomic) {
    EXPECT_FALSE(stream.violation.empty()) << what;
  }
}

// ---------- registry ----------

TEST(CheckerRegistry, EnumeratesAllFourCheckers) {
  const std::vector<const AtomicityChecker*>& all = all_checkers();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0]->name(), "tag-witness");
  EXPECT_EQ(all[1]->name(), "wing-gong");
  EXPECT_EQ(all[2]->name(), "unique-value-graph");
  EXPECT_EQ(all[3]->name(), "streaming-tag-witness");
  for (const AtomicityChecker* c : all) {
    EXPECT_EQ(checker_by_name(c->name()), c);
  }
  EXPECT_EQ(checker_by_name("no-such-checker"), nullptr);
}

TEST(CheckerRegistry, OnlyTheStreamingCheckerOffersAFeed) {
  for (const AtomicityChecker* c : all_checkers()) {
    auto feed = c->make_streaming();
    if (c->name() == "streaming-tag-witness") {
      EXPECT_NE(feed, nullptr);
    } else {
      EXPECT_EQ(feed, nullptr);
    }
  }
}

TEST(CheckerRegistry, CheckForwardsToTheSameAlgorithmsAsTheShims) {
  Builder b;
  b.write(0, 10, Tag{1, 0}, 1);
  b.write(20, 30, Tag{2, 1}, 2);
  b.read(40, 50, Tag{1, 0}, 1);  // stale: every checker rejects
  for (const AtomicityChecker* c : all_checkers()) {
    const CheckResult r = c->check(b.h);
    EXPECT_TRUE(r.decided()) << c->name();
    EXPECT_FALSE(r.atomic) << c->name();
  }
}

// ---------- refusal semantics ----------

TEST(CheckerRegistry, WingGongRefusalIsNotAVerdict) {
  Builder b;
  Time t = 0;
  for (int i = 1; i <= 13; ++i) {  // 26 ops > the default 24-op bound
    b.write(t, t + 5, Tag{i, 0}, i);
    b.read(t + 6, t + 9, Tag{i, 0}, i);
    t += 10;
  }
  const CheckResult refused = check_wing_gong(b.h);
  EXPECT_TRUE(refused.refused);
  EXPECT_FALSE(refused.decided());
  EXPECT_TRUE(refused.atomic) << "a refusal must not read as a violation";

  // A history under the bound gets a real verdict — and a caller-lowered
  // bound turns that same history into a refusal, not a violation.
  Builder small;
  small.write(0, 10, Tag{1, 0}, 1);
  small.read(20, 30, Tag{1, 0}, 1);
  small.write(40, 50, Tag{2, 1}, 2);
  small.read(60, 70, Tag{2, 1}, 2);
  const CheckResult decided = check_wing_gong(small.h);
  EXPECT_TRUE(decided.decided());
  EXPECT_TRUE(decided.atomic) << decided.violation;
  const CheckResult lowered = check_wing_gong(small.h, 2);
  EXPECT_TRUE(lowered.refused);
  EXPECT_TRUE(lowered.atomic);

  // The other checkers never refuse.
  EXPECT_FALSE(check_tag_witness(b.h).refused);
  EXPECT_FALSE(check_unique_value_graph(b.h).refused);
  EXPECT_FALSE(check_streaming(b.h).refused);
}

// ---------- canned-history parity ----------

TEST(StreamingChecker, MatchesBatchOnCannedHistories) {
  {
    History h;
    expect_stream_parity(h, "empty");
  }
  {
    Builder b;
    b.write(0, 10, Tag{1, 0}, 11);
    b.read(20, 30, Tag{1, 0}, 11);
    expect_stream_parity(b.h, "sequential write/read");
  }
  {
    Builder b;
    b.read(0, 5, kBottomTag, 0);
    b.write(10, 20, Tag{1, 0}, 1);
    expect_stream_parity(b.h, "initial bottom read");
  }
  {
    Builder b;
    b.write(0, 10, Tag{1, 0}, 1);
    b.write(20, 30, Tag{2, 1}, 2);
    b.read(40, 50, Tag{1, 0}, 1);
    expect_stream_parity(b.h, "stale read");
  }
  {
    Builder b;
    b.write(0, 10, Tag{1, 0}, 1);
    b.write(20, 100, Tag{2, 1}, 2);
    b.read(30, 35, Tag{2, 1}, 2);
    b.read(40, 45, Tag{1, 0}, 1);
    expect_stream_parity(b.h, "new/old inversion");
  }
  {
    Builder b;
    b.read(0, 5, Tag{1, 0}, 1);
    b.write(10, 20, Tag{1, 0}, 1);
    expect_stream_parity(b.h, "read from the future");
  }
  {
    Builder b;
    b.write(0, 10, Tag{1, 0}, 1);
    b.read(20, 30, Tag{9, 9}, 9);
    expect_stream_parity(b.h, "value never written");
  }
  {
    Builder b;
    b.write(0, 10, Tag{1, 0}, 1);
    b.read(20, 30, Tag{1, 0}, 999);
    expect_stream_parity(b.h, "payload mismatch");
  }
  {
    Builder b;
    b.write(0, kTimeMax, Tag{1, 0}, 1);  // pending write, tag recorded
    b.read(50, 60, Tag{1, 0}, 1);
    b.read(70, 80, Tag{1, 0}, 1);
    expect_stream_parity(b.h, "pending write read twice");
  }
  {
    Builder b;
    b.write(0, kTimeMax, Tag{5, 0}, 5);
    b.read(50, 60, Tag{5, 0}, 5);
    b.read(70, 80, kBottomTag, 0);  // flip-flop back to bottom
    expect_stream_parity(b.h, "pending write flip-flop");
  }
  {
    Builder b;
    b.write(0, 10, Tag{1, 0}, 1);
    b.read(20, 30, kBottomTag, 0);
    expect_stream_parity(b.h, "stale bottom read");
  }
  {
    Builder b;
    b.write(0, 10, Tag{2, 0}, 2);  // tags against real time, no reads
    b.write(20, 30, Tag{1, 1}, 1);
    expect_stream_parity(b.h, "write tags out of order");
  }
  {
    Builder b;
    b.write(0, 10, Tag{1, 0}, 1);
    b.write(20, 30, Tag{1, 0}, 2);  // duplicate completed tags
    expect_stream_parity(b.h, "duplicate write tags");
  }
  {
    Builder b;
    Time t = 0;
    for (int i = 1; i <= 8; ++i) {
      b.write(t, t + 5, Tag{i, 0}, i * 10);
      b.read(t + 6, t + 9, Tag{i, 0}, i * 10);
      t += 10;
    }
    expect_stream_parity(b.h, "long atomic sequence");
  }
}

TEST(StreamingChecker, RejectsMalformedHistories) {
  History h;
  const OpId a = h.begin_op(1, OpKind::kWrite, 10);
  h.begin_op(1, OpKind::kWrite, 12);  // same client, first op still pending
  h.end_op(a, 20, TaggedValue{Tag{1, 0}, 1});
  ASSERT_FALSE(h.well_formed());
  const CheckResult r = check_streaming(h);
  EXPECT_TRUE(r.decided());
  EXPECT_FALSE(r.atomic);
}

// ---------- randomized parity ----------

History random_history(Rng& rng, int n_writes, int n_reads) {
  Builder b;
  struct W {
    Tag tag;
    std::int64_t payload;
  };
  std::vector<W> writes;
  for (int i = 0; i < n_writes; ++i) {
    const Tag tag{rng.next_in(1, 4), static_cast<NodeId>(i)};
    writes.push_back(W{tag, tag.ts * 100 + i});
  }
  const Time horizon = 100;
  for (const W& w : writes) {
    const Time s = rng.next_in(0, horizon);
    const bool pending = rng.next_bool(0.15);
    const Time f = pending ? kTimeMax : rng.next_in(s, horizon + 20);
    b.write(s, f, w.tag, w.payload);
  }
  for (int i = 0; i < n_reads; ++i) {
    const Time s = rng.next_in(0, horizon);
    const Time f = rng.next_in(s, horizon + 20);
    if (!writes.empty() && rng.next_bool(0.8)) {
      const W& w = writes[rng.next_below(writes.size())];
      b.read(s, f, w.tag, w.payload);
    } else {
      b.read(s, f, kBottomTag, 0);
    }
  }
  return std::move(b.h);
}

class StreamingCrossValidation : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(StreamingCrossValidation, AgreesWithBatchTagWitness) {
  Rng rng(GetParam());
  int atomic_count = 0, non_atomic_count = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const History h =
        random_history(rng, 2 + static_cast<int>(rng.next_below(4)),
                       2 + static_cast<int>(rng.next_below(5)));
    const CheckResult batch = check_tag_witness(h);
    const CheckResult stream = check_streaming(h);
    EXPECT_EQ(stream.atomic, batch.atomic)
        << "disagreement on history:\n"
        << h.to_string() << "batch: " << batch.violation
        << "\nstream: " << stream.violation;
    (batch.atomic ? atomic_count : non_atomic_count)++;
  }
  // The generator must exercise both outcomes to be meaningful.
  EXPECT_GT(atomic_count, 0);
  EXPECT_GT(non_atomic_count, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingCrossValidation,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------- live parity on the simulator ----------

TEST(StreamingChecker, LiveVerdictMatchesBatchAcrossFaultScenarios) {
  const Protocol* proto = protocol_by_name("mw-abd(W2R2)");
  ASSERT_NE(proto, nullptr);
  std::uint64_t seed = 41;
  for (const FaultPlan& plan : scenarios::all()) {
    SimHarness::Options o;
    o.cfg = ClusterConfig{5, 2, 2, 2};
    o.seed = seed++;
    o.streaming_check = true;
    SimHarness h(*proto, std::move(o));
    h.install_fault_plan(plan);

    WorkloadOptions w;
    w.ops_per_writer = 8;
    w.ops_per_reader = 8;
    run_random_workload(h, w);

    const CheckResult batch = check_tag_witness(h.history());
    const CheckResult stream = h.stream_checker(0)->finish();
    EXPECT_EQ(stream.atomic, batch.atomic)
        << "plan " << plan.name << ": batch says " << batch.violation
        << ", stream says " << stream.violation;
    EXPECT_TRUE(stream.atomic)
        << "plan " << plan.name << ": " << stream.violation;
  }
}

TEST(StreamingChecker, LiveVerdictMatchesBatchPerKeyOnAKeyspace) {
  const Protocol* proto = protocol_by_name("mw-abd(W2R2)");
  ASSERT_NE(proto, nullptr);
  SimHarness::Options o;
  o.cfg = ClusterConfig{5, 2, 2, 2};
  o.seed = 43;
  o.keyspace = KeyspaceConfig{4, 2, 0.8};
  o.streaming_check = true;
  SimHarness h(*proto, std::move(o));

  WorkloadOptions w;
  w.ops_per_writer = 20;
  w.ops_per_reader = 20;
  run_random_workload(h, w);

  ASSERT_EQ(h.num_keys(), 4);
  std::size_t total_ops = 0;
  for (int k = 0; k < h.num_keys(); ++k) {
    const CheckResult batch = check_tag_witness(h.key_history(k));
    const CheckResult stream = h.stream_checker(k)->finish();
    EXPECT_EQ(stream.atomic, batch.atomic) << "key " << k;
    EXPECT_TRUE(stream.atomic) << "key " << k << ": " << stream.violation;
    total_ops += h.stream_checker(k)->stats().ops_seen;
  }
  EXPECT_EQ(total_ops, 2u * 20u + 2u * 20u);  // every op landed on some key
}

TEST(StreamingChecker, AgreesWithBatchOnAdversaryInjectedViolations) {
  // Above the fast-read bound the adversary schedule produces a genuine
  // new/old inversion; below it the same schedule stays atomic. The
  // streaming verdict must track the batch verdict on both sides.
  const chains::FastReadAdversaryResult bad =
      chains::run_fastread_adversary(4, 1, 2);
  EXPECT_TRUE(bad.bound_violated);
  EXPECT_TRUE(bad.violation_found) << bad.history_dump;
  EXPECT_TRUE(bad.stream_agrees) << bad.history_dump;

  const chains::FastReadAdversaryResult ok =
      chains::run_fastread_adversary(7, 1, 2);
  EXPECT_FALSE(ok.bound_violated);
  EXPECT_FALSE(ok.violation_found) << ok.check_detail;
  EXPECT_TRUE(ok.stream_agrees) << ok.history_dump;
}

// ---------- bounded window + history retirement ----------

TEST(StreamingChecker, WindowStaysBoundedOnLongRetiredRuns) {
  const Protocol* proto = protocol_by_name("fast-read-mw(W2R1)");
  ASSERT_NE(proto, nullptr);
  SimHarness::Options o;
  o.cfg = ClusterConfig{7, 2, 3, 1};
  o.seed = 47;
  o.streaming_check = true;
  o.retire_history = true;
  SimHarness h(*proto, std::move(o));

  WorkloadOptions w;
  w.ops_per_writer = 2000;
  w.ops_per_reader = 2000;
  w.think_hi = 2 * kMillisecond;
  run_random_workload(h, w);

  StreamingTagWitness* sc = h.stream_checker(0);
  ASSERT_NE(sc, nullptr);
  const CheckResult verdict = sc->finish();
  EXPECT_TRUE(verdict.atomic) << verdict.violation;

  const StreamingStats& st = sc->stats();
  const std::size_t total = 5u * 2000u;  // 2 writers + 3 readers
  EXPECT_EQ(st.ops_seen, total);
  EXPECT_EQ(st.completions, total);
  // The whole point: occupancy tracks the concurrency window (a handful of
  // clients), not the 10^4-op horizon.
  EXPECT_LT(st.peak_window, 200u);
  EXPECT_LT(st.peak_pending, 50u);
  // Only writes occupy the window: 2 writers x 2000 ops, nearly all retired.
  EXPECT_GT(st.retired_tags, 2000u) << "watermark retirement never ran";

  // The recorder was GC'd along the way: ids keep counting, records don't.
  History& hist = h.history();
  EXPECT_EQ(hist.size(), total);
  EXPECT_GT(hist.retired_count(), total / 2);
  EXPECT_LT(hist.size() - hist.retired_count(), 4096u);
  // Everything completed, so the settled frontier reached the end.
  EXPECT_EQ(sc->settled_frontier(), static_cast<OpId>(total));
}

TEST(StreamingChecker, UnretiredLiveRunStillMatchesBatchReCheck) {
  // streaming_check without retire_history keeps the full recorder: the
  // live verdict and a batch re-check of the same history must agree.
  const Protocol* proto = protocol_by_name("mw-abd(W2R2)");
  ASSERT_NE(proto, nullptr);
  SimHarness::Options o;
  o.cfg = ClusterConfig{5, 2, 2, 2};
  o.seed = 53;
  o.streaming_check = true;
  SimHarness h(*proto, std::move(o));

  WorkloadOptions w;
  w.ops_per_writer = 50;
  w.ops_per_reader = 50;
  run_random_workload(h, w);

  EXPECT_EQ(h.history().retired_count(), 0u);
  const CheckResult live = h.stream_checker(0)->finish();
  const CheckResult batch = check_tag_witness(h.history());
  const CheckResult replay = check_streaming(h.history());
  EXPECT_EQ(live.atomic, batch.atomic);
  EXPECT_EQ(replay.atomic, batch.atomic);
  EXPECT_TRUE(live.atomic) << live.violation;
}

}  // namespace
}  // namespace mwreg
