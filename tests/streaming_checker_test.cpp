// Streaming tag-witness checker tests: registry surface, refusal semantics,
// verdict parity against the batch checkers (canned histories, randomized
// histories, live fault-scenario runs, adversary-injected violations), and
// the bounded-window / history-retirement guarantees on long runs.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>
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

  // A still-pending id invoked a second time, here by another client so
  // the per-client check passes. Only a direct feed can produce this; left
  // in, its second floor would pin the retirement watermark for good.
  for (const bool trusted : {false, true}) {
    StreamingTagWitness direct;
    if (trusted) direct.trust_well_formed();
    OpRecord op;
    op.id = 0;
    op.client = 1;
    op.invoke = 10;
    direct.on_invoke(op);
    op.client = 2;
    direct.on_invoke(op);
    EXPECT_FALSE(direct.result().atomic);
    EXPECT_EQ(direct.result().violation, "history is not well-formed");
    EXPECT_EQ(direct.stats().ops_seen, 1u);
  }
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

// ---------- output pins ----------
//
// The parity tests above compare verdict booleans. These pin the checker's
// whole observable output: violation strings, every StreamingStats field,
// settled_frontier() and the history's retired_count(). The constants were
// recorded on the node-container implementation and hold unchanged for the
// flat one, so any drift in the checker's private state shows up here.

struct Fnv {
  std::uint64_t h = 14695981039346656037ULL;
  void mix(std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; }
  void mix(const std::string& s) {
    for (const char c : s) mix(static_cast<unsigned char>(c));
    mix(s.size());
  }
  void mix(const CheckResult& r) {
    mix(r.atomic ? 1 : 0);
    mix(r.violation);
  }
  void mix(const StreamingStats& s) {
    mix(s.ops_seen);
    mix(s.completions);
    mix(s.peak_window);
    mix(s.peak_pending);
    mix(s.peak_unresolved);
    mix(s.retired_tags);
  }
};

/// A wider generator than random_history: up to 8 writes and 8 reads over 6
/// timestamps, duplicate tags with clashing payloads, pending reads and
/// pending writes (valued or bottom), reads of tags never written, clients
/// that issue several ops, and begin_op order shuffled against invocation
/// time, so check_streaming's replay sees ids out of order.
History wide_history(Rng& rng) {
  struct Spec {
    OpKind kind;
    NodeId client;
    Time s, f;
    TaggedValue v;
  };
  std::vector<TaggedValue> written;
  std::vector<Spec> specs;
  const int n_writes = static_cast<int>(rng.next_in(0, 8));
  const int n_reads = static_cast<int>(rng.next_in(0, 8));
  auto client = [&rng, &specs]() -> NodeId {
    if (!specs.empty() && rng.next_bool(0.2)) {
      return specs[rng.next_below(specs.size())].client;
    }
    return static_cast<NodeId>(100 + specs.size());
  };
  for (int i = 0; i < n_writes; ++i) {
    const Tag tag{rng.next_in(1, 6), static_cast<NodeId>(rng.next_in(0, 3))};
    const TaggedValue v{tag, rng.next_in(0, 3)};
    const Time s = rng.next_in(0, 120);
    const Time f = rng.next_bool(0.15) ? kTimeMax : rng.next_in(s, 140);
    const bool bottom = f == kTimeMax && rng.next_bool(0.3);
    specs.push_back(Spec{OpKind::kWrite, client(), s, f,
                         bottom ? TaggedValue{} : v});
    if (!bottom) written.push_back(v);
  }
  for (int i = 0; i < n_reads; ++i) {
    const Time s = rng.next_in(0, 120);
    const Time f = rng.next_bool(0.1) ? kTimeMax : rng.next_in(s, 140);
    TaggedValue v;
    const std::uint64_t pick = rng.next_below(10);
    if (pick < 7 && !written.empty()) {
      v = written[rng.next_below(written.size())];
      if (rng.next_bool(0.05)) v.payload += 1;
    } else if (pick < 9) {
      v = TaggedValue{Tag{rng.next_in(1, 6), 9}, 9};
    }
    specs.push_back(Spec{OpKind::kRead, client(), s, f, v});
  }
  rng.shuffle(specs);
  History h;
  for (const Spec& sp : specs) {
    const OpId id = h.begin_op(sp.client, sp.kind, sp.s);
    if (sp.f != kTimeMax) {
      h.end_op(id, sp.f, sp.v);
    } else if (sp.kind == OpKind::kWrite && !(sp.v.tag == kBottomTag)) {
      h.set_value(id, sp.v);
    }
  }
  return h;
}

TEST(StreamingPins, ViolationStringsOverWideRandomHistories) {
  Fnv f;
  int violations = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    for (int iter = 0; iter < 200; ++iter) {
      const CheckResult r = check_streaming(wide_history(rng));
      f.mix(r);
      if (!r.atomic) ++violations;
    }
  }
  EXPECT_EQ(violations, 73774);
  EXPECT_EQ(f.h, 16686567911766505318u);
}

/// Random event streams fed straight into the hooks with the per-client
/// checks on. Ids arrive out of order and with gaps below and above the
/// live range, completed ids are invoked again, some completions and
/// values name an id never invoked, and writes surface values early. A
/// still-pending id is never invoked twice: that input is refused (see
/// RejectsMalformedHistories).
void feed_random_stream(Rng& rng, StreamingTagWitness& c) {
  std::vector<OpRecord> live;
  std::vector<OpId> done;
  std::vector<TaggedValue> seen{TaggedValue{}};  // values a read may return
  Time now = 0;
  OpId top = 50;
  std::int64_t ts = 0;
  auto is_live = [&live](OpId id) {
    for (const OpRecord& r : live) {
      if (r.id == id) return true;
    }
    return false;
  };
  for (int step = 0; step < 60; ++step) {
    now += rng.next_in(0, 3);
    const std::uint64_t pick = rng.next_below(100);
    if (pick < 40 || live.empty()) {
      OpRecord r;
      if (!done.empty() && rng.next_bool(0.05)) {
        r.id = done[rng.next_below(done.size())];
      } else {
        r.id = static_cast<OpId>(rng.next_in(top - 12, top + 4));
        top = std::max(top, r.id);
      }
      if (is_live(r.id)) continue;
      // Mostly a client with nothing in flight; now and then a busy one.
      r.client = static_cast<NodeId>(rng.next_below(12));
      for (const OpRecord& l : live) {
        if (l.client == r.client && rng.next_bool(0.98)) r.client = 12 + r.id;
      }
      r.kind = rng.next_bool(0.5) ? OpKind::kWrite : OpKind::kRead;
      r.invoke = now;
      c.on_invoke(r);
      live.push_back(r);
    } else if (pick < 55) {
      OpRecord& r = live[rng.next_below(live.size())];
      if (r.kind != OpKind::kWrite) continue;
      if (!(r.value.tag == kBottomTag) && rng.next_bool(0.9)) continue;
      r.value = TaggedValue{Tag{++ts, r.client}, r.id};
      if (rng.next_bool(0.02)) r.value.tag.ts -= 3;
      c.on_value(r);
      seen.push_back(r.value);
    } else if (pick < 97) {
      const std::size_t i = rng.next_below(live.size());
      OpRecord r = live[i];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      r.resp = now;
      if (r.kind == OpKind::kRead) {
        const std::size_t back = std::min<std::size_t>(
            seen.size() - 1, rng.next_bool(0.97) ? 0 : rng.next_below(4));
        r.value = seen[seen.size() - 1 - back];
        if (rng.next_bool(0.01)) r.value.payload += 1;
      } else if (r.value.tag == kBottomTag || rng.next_bool(0.03)) {
        r.value = TaggedValue{Tag{++ts, r.client}, r.id};
        seen.push_back(r.value);
      }
      c.on_complete(r);
      done.push_back(r.id);
    } else {
      OpRecord r;
      r.id = static_cast<OpId>(rng.next_in(0, top + 8));
      if (is_live(r.id)) continue;
      r.client = static_cast<NodeId>(40 + rng.next_below(2));
      r.kind = rng.next_bool(0.5) ? OpKind::kWrite : OpKind::kRead;
      r.invoke = now;
      r.resp = now;
      r.value = TaggedValue{Tag{++ts, 7}, 0};
      if (rng.next_bool(0.5)) {
        c.on_value(r);
      } else {
        c.on_complete(r);
        if (r.kind == OpKind::kWrite) seen.push_back(r.value);
      }
    }
  }
}

TEST(StreamingPins, DirectFeedVerdictsStatsAndFrontier) {
  Fnv f;
  int violations = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    for (int iter = 0; iter < 50; ++iter) {
      StreamingTagWitness c;
      feed_random_stream(rng, c);
      f.mix(static_cast<std::uint64_t>(c.settled_frontier()));
      const CheckResult r = c.finish();
      f.mix(r);
      f.mix(c.stats());
      if (!r.atomic) ++violations;
    }
  }
  EXPECT_EQ(violations, 13565);
  EXPECT_EQ(f.h, 3079565439787169207u);
}

/// Per-key stats, settled frontier and retired record count of a live run.
std::string live_pins(SimHarness& h, Fnv& f) {
  std::string dump;
  for (int k = 0; k < h.num_keys(); ++k) {
    StreamingTagWitness* sc = h.stream_checker(k);
    const CheckResult r = sc->finish();
    const StreamingStats& s = sc->stats();
    f.mix(r);
    f.mix(s);
    f.mix(static_cast<std::uint64_t>(sc->settled_frontier()));
    f.mix(h.key_history(k).retired_count());
    dump += "key " + std::to_string(k) + ": atomic " +
            std::to_string(r.atomic) + " ops " + std::to_string(s.ops_seen) +
            " done " + std::to_string(s.completions) + " window " +
            std::to_string(s.peak_window) + " pending " +
            std::to_string(s.peak_pending) + " unresolved " +
            std::to_string(s.peak_unresolved) + " retired_tags " +
            std::to_string(s.retired_tags) + " frontier " +
            std::to_string(sc->settled_frontier()) + " retired_records " +
            std::to_string(h.key_history(k).retired_count()) + "\n";
  }
  return dump;
}

TEST(StreamingPins, LiveKeyspaceRunWithRetirement) {
  SimHarness::Options o;
  o.cfg = ClusterConfig{5, 16, 16, 2};
  o.seed = 61;
  o.keyspace = KeyspaceConfig{8, 2, 0.9};
  o.streaming_check = true;
  o.retire_history = true;
  SimHarness h(*protocol_by_name("mw-abd(W2R2)"), std::move(o));
  WorkloadOptions w;
  w.ops_per_writer = 300;
  w.ops_per_reader = 300;
  run_random_workload(h, w);

  Fnv f;
  const std::string dump = live_pins(h, f);
  EXPECT_EQ(f.h, 11850446967378948323u) << dump;
}

TEST(StreamingPins, WideLiveRunAndItsInterleavedReplay) {
  // 300 clients on one key: hundreds of ops pending at once, so the
  // checker's structures grow several times and wrap, live and in a replay
  // whose ids arrive out of time order.
  SimHarness::Options o;
  o.cfg = ClusterConfig{5, 150, 150, 2};
  o.seed = 83;
  o.streaming_check = true;
  SimHarness h(*protocol_by_name("mw-abd(W2R2)"), std::move(o));
  WorkloadOptions w;
  w.ops_per_writer = 12;
  w.ops_per_reader = 12;
  run_random_workload(h, w);

  Fnv f;
  const std::string dump = live_pins(h, f);
  EXPECT_EQ(f.h, 10060330646305566802u) << dump;

  // The same operations re-recorded with the clients' sequences randomly
  // interleaved: each client's ops keep their order (the history stays
  // well-formed), but ids no longer follow invocation time.
  std::vector<std::vector<OpRecord>> by_client(300);
  for (const OpRecord& r : h.history().ops()) {
    by_client[static_cast<std::size_t>(r.client - h.cfg().first_client())]
        .push_back(r);
  }
  Rng rng(85);
  History replay;
  std::vector<std::size_t> next(by_client.size(), 0);
  for (std::size_t left = h.history().size(); left > 0; --left) {
    std::size_t c = rng.next_below(by_client.size());
    while (next[c] == by_client[c].size()) c = (c + 1) % by_client.size();
    const OpRecord& r = by_client[c][next[c]++];
    const OpId id = replay.begin_op(r.client, r.kind, r.invoke);
    replay.end_op(id, r.resp, r.value);
  }
  ASSERT_TRUE(replay.well_formed());
  const CheckResult stream = check_streaming(replay);
  EXPECT_TRUE(stream.atomic) << stream.violation;
  EXPECT_EQ(stream.atomic, check_tag_witness(replay).atomic);
}

TEST(StreamingPins, LiveFastReadUnderEveryFaultScenario) {
  const std::pair<const char*, std::uint64_t> pins[] = {
      {"single-crash", 10808328845840101995u},
      {"crash-recover", 11902897191272831714u},
      {"rolling-crashes", 10332770275482898147u},
      {"minority-partition", 11902894992249575292u},
      {"majority-partition", 11902894992249575292u},
      {"fig9-skip", 11902890594203062448u},
      {"delay-spike", 11513479600242074901u},
  };
  const std::vector<FaultPlan> plans = scenarios::all();
  ASSERT_EQ(plans.size(), std::size(pins));
  std::uint64_t seed = 71;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const FaultPlan& plan = plans[i];
    ASSERT_EQ(plan.name, pins[i].first);
    SimHarness::Options o;
    o.cfg = ClusterConfig{5, 2, 2, 1};
    o.seed = seed++;
    o.streaming_check = true;
    o.retire_history = true;
    SimHarness h(*protocol_by_name("fast-read-mw(W2R1)"), std::move(o));
    h.install_fault_plan(plan);
    WorkloadOptions w;
    w.ops_per_writer = 400;
    w.ops_per_reader = 400;
    w.think_hi = kMillisecond;
    run_random_workload(h, w);

    Fnv f;
    const std::string dump = live_pins(h, f);
    EXPECT_EQ(f.h, pins[i].second) << plan.name << "\n" << dump;
  }
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
