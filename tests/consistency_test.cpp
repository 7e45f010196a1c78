// Tests for the three atomicity checkers, including cross-validation on
// randomized histories: the Wing-Gong exhaustive search is ground truth, the
// unique-value graph checker must agree with it exactly, and a tag-witness
// pass must imply both. Also: History's block storage against a reference
// vector, and the flat batch checks against their node-container forms.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "consistency/checkers.h"
#include "consistency/history.h"

namespace mwreg {
namespace {

// Convenience builders. Client ids are arbitrary but per-op unique unless a
// test wants real-time chaining through one client.
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

void expect_all_ok(const History& h) {
  EXPECT_TRUE(check_tag_witness(h).atomic) << check_tag_witness(h).violation;
  EXPECT_TRUE(check_wing_gong(h).atomic) << check_wing_gong(h).violation;
  EXPECT_TRUE(check_unique_value_graph(h).atomic)
      << check_unique_value_graph(h).violation;
  EXPECT_TRUE(check_streaming(h).atomic) << check_streaming(h).violation;
}

void expect_all_bad(const History& h) {
  EXPECT_FALSE(check_tag_witness(h).atomic);
  EXPECT_FALSE(check_wing_gong(h).atomic);
  EXPECT_FALSE(check_unique_value_graph(h).atomic);
  EXPECT_FALSE(check_streaming(h).atomic);
}

TEST(Checkers, EmptyHistoryIsAtomic) {
  History h;
  expect_all_ok(h);
}

TEST(Checkers, SequentialWriteThenRead) {
  Builder b;
  b.write(0, 10, Tag{1, 0}, 11);
  b.read(20, 30, Tag{1, 0}, 11);
  expect_all_ok(b.h);
}

TEST(Checkers, ReadOfInitialValueBeforeAnyWrite) {
  Builder b;
  b.read(0, 5, kBottomTag, 0);
  b.write(10, 20, Tag{1, 0}, 1);
  expect_all_ok(b.h);
}

TEST(Checkers, StaleReadAfterLaterWrite) {
  // W(1) ends, then W(2) ends, then a read returns 1: Definition 2.1's
  // read-from requirement is violated.
  Builder b;
  b.write(0, 10, Tag{1, 0}, 1);
  b.write(20, 30, Tag{2, 1}, 2);
  b.read(40, 50, Tag{1, 0}, 1);
  expect_all_bad(b.h);
}

TEST(Checkers, NewOldInversionBetweenReads) {
  // W1 finishes, then W2 runs concurrently with two sequential reads. Read1
  // returns the new value but read2 (strictly after read1) returns the old
  // one: atomicity forbids this new/old inversion, regularity would allow it.
  Builder b;
  b.write(0, 10, Tag{1, 0}, 1);
  b.write(20, 100, Tag{2, 1}, 2);
  b.read(30, 35, Tag{2, 1}, 2);
  b.read(40, 45, Tag{1, 0}, 1);
  expect_all_bad(b.h);
}

TEST(Checkers, ConcurrentReadsMaySeeEitherOrderOfConcurrentWrites) {
  // Both writes concurrent with both reads and with each other: the reads
  // returning different values in either order is linearizable.
  Builder b;
  b.write(0, 100, Tag{1, 0}, 1);
  b.write(0, 100, Tag{2, 1}, 2);
  b.read(10, 20, Tag{2, 1}, 2);
  b.read(30, 40, Tag{1, 0}, 1);
  // Linearize W2, R1, W1, R2: only R1 -> R2 is a real-time constraint.
  EXPECT_TRUE(check_wing_gong(b.h).atomic);
  EXPECT_TRUE(check_unique_value_graph(b.h).atomic);
  // The tag witness is stricter and rejects (tags out of order across reads).
  EXPECT_FALSE(check_tag_witness(b.h).atomic);
}

TEST(Checkers, ReadFromTheFuture) {
  // A read finishing before its write is invoked.
  Builder b;
  b.read(0, 5, Tag{1, 0}, 1);
  b.write(10, 20, Tag{1, 0}, 1);
  expect_all_bad(b.h);
}

TEST(Checkers, ValueNeverWritten) {
  Builder b;
  b.write(0, 10, Tag{1, 0}, 1);
  b.read(20, 30, Tag{9, 9}, 9);
  expect_all_bad(b.h);
}

TEST(Checkers, PayloadMismatchRejected) {
  Builder b;
  b.write(0, 10, Tag{1, 0}, 1);
  b.read(20, 30, Tag{1, 0}, 999);
  expect_all_bad(b.h);
}

TEST(Checkers, ConcurrentWritesAnyOrderOk) {
  // Two overlapping writes; readers may see them in tag order.
  Builder b;
  b.write(0, 100, Tag{1, 0}, 1);
  b.write(0, 100, Tag{1, 1}, 2);  // equal ts, distinct wid
  b.read(110, 120, Tag{1, 1}, 2);
  expect_all_ok(b.h);
}

TEST(Checkers, PendingWriteMayBeRead) {
  // A write that never completed (crashed writer) can still be read.
  Builder b;
  b.write(0, kTimeMax, Tag{1, 0}, 1);
  b.read(50, 60, Tag{1, 0}, 1);
  b.read(70, 80, Tag{1, 0}, 1);
  expect_all_ok(b.h);
}

TEST(Checkers, PendingWriteMayBeIgnored) {
  Builder b;
  b.write(0, kTimeMax, Tag{5, 0}, 5);
  b.read(50, 60, kBottomTag, 0);  // pending write need not have taken effect
  EXPECT_TRUE(check_wing_gong(b.h).atomic);
  EXPECT_TRUE(check_unique_value_graph(b.h).atomic);
}

TEST(Checkers, PendingWriteCannotFlipFlop) {
  // Once a read returned the pending write's value, a later read must not
  // revert to the old value.
  Builder b;
  b.write(0, kTimeMax, Tag{5, 0}, 5);
  b.read(50, 60, Tag{5, 0}, 5);
  b.read(70, 80, kBottomTag, 0);
  expect_all_bad(b.h);
}

TEST(Checkers, StaleBottomReadAfterWrite) {
  Builder b;
  b.write(0, 10, Tag{1, 0}, 1);
  b.read(20, 30, kBottomTag, 0);
  expect_all_bad(b.h);
}

TEST(Checkers, TagWitnessStricterThanTruth) {
  // Write tags ordered against real time with no reads: atomic (any write
  // order can linearize by real time), but the tag witness rejects it.
  Builder b;
  b.write(0, 10, Tag{2, 0}, 2);
  b.write(20, 30, Tag{1, 1}, 1);
  EXPECT_FALSE(check_tag_witness(b.h).atomic);
  EXPECT_TRUE(check_wing_gong(b.h).atomic);
  EXPECT_TRUE(check_unique_value_graph(b.h).atomic);
}

TEST(Checkers, WellFormednessViolationCaught) {
  History h;
  const OpId a = h.begin_op(1, OpKind::kWrite, 10);
  h.begin_op(1, OpKind::kWrite, 12);  // same client, first op still pending
  h.end_op(a, 20, TaggedValue{Tag{1, 0}, 1});
  EXPECT_FALSE(h.well_formed());
  EXPECT_FALSE(check_tag_witness(h).atomic);
  EXPECT_FALSE(check_wing_gong(h).atomic);
}

TEST(Checkers, DuplicateWriteTagsRejectedByWitness) {
  Builder b;
  b.write(0, 10, Tag{1, 0}, 1);
  b.write(20, 30, Tag{1, 0}, 2);
  EXPECT_FALSE(check_tag_witness(b.h).atomic);
  EXPECT_FALSE(check_unique_value_graph(b.h).atomic);
}

TEST(Checkers, ReadChainThroughClients) {
  // r1 returns the new value while the write is still pending, then r2
  // (strictly after r1) must also see it even though the write is pending.
  Builder b;
  b.write(0, 200, Tag{1, 0}, 1);
  b.read(10, 20, Tag{1, 0}, 1);
  b.read(30, 40, kBottomTag, 0);
  expect_all_bad(b.h);
}

TEST(Checkers, LongAtomicSequence) {
  Builder b;
  Time t = 0;
  for (int i = 1; i <= 8; ++i) {
    b.write(t, t + 5, Tag{i, 0}, i * 10);
    b.read(t + 6, t + 9, Tag{i, 0}, i * 10);
    t += 10;
  }
  expect_all_ok(b.h);
}

// ---------- Randomized cross-validation ----------

History random_history(Rng& rng, int n_writes, int n_reads) {
  Builder b;
  struct W {
    Tag tag;
    std::int64_t payload;
  };
  std::vector<W> writes;
  for (int i = 0; i < n_writes; ++i) {
    // Distinct tags, random order relative to time.
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

class CheckerCrossValidation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckerCrossValidation, GraphAgreesWithWingGong) {
  Rng rng(GetParam());
  int atomic_count = 0, non_atomic_count = 0;
  for (int iter = 0; iter < 150; ++iter) {
    const History h = random_history(rng, 2 + static_cast<int>(rng.next_below(3)),
                                     2 + static_cast<int>(rng.next_below(4)));
    if (!h.unique_write_tags()) continue;
    const CheckResult wg = check_wing_gong(h);
    const CheckResult graph = check_unique_value_graph(h);
    EXPECT_EQ(wg.atomic, graph.atomic)
        << "disagreement on history:\n"
        << h.to_string() << "wg: " << wg.violation
        << "\ngraph: " << graph.violation;
    (wg.atomic ? atomic_count : non_atomic_count)++;

    // The tag witness may reject atomic histories but must never accept a
    // non-atomic one; its streaming form must reach the same verdict.
    const CheckResult tw = check_tag_witness(h);
    EXPECT_EQ(check_streaming(h).atomic, tw.atomic) << h.to_string();
    if (tw.atomic) {
      EXPECT_TRUE(wg.atomic) << h.to_string();
    }
  }
  // The generator must exercise both outcomes to be meaningful.
  EXPECT_GT(atomic_count, 0);
  EXPECT_GT(non_atomic_count, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckerCrossValidation,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------- History block storage ----------

void expect_same_record(const OpRecord& got, const OpRecord& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.client, want.client);
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.invoke, want.invoke);
  EXPECT_EQ(got.resp, want.resp);
  EXPECT_EQ(got.value, want.value);
}

/// `h` holds exactly the reference records [base, ref.size()): through
/// ops() iteration, op(id), size() and retired_count(); retired and
/// unrecorded ids throw.
void expect_matches(const History& h, const std::vector<OpRecord>& ref,
                    std::size_t base) {
  ASSERT_EQ(h.size(), ref.size());
  ASSERT_EQ(h.retired_count(), base);
  ASSERT_EQ(h.ops().size(), ref.size() - base);
  EXPECT_EQ(h.ops().empty(), ref.size() == base);
  std::size_t i = base;
  for (const OpRecord& r : h.ops()) {
    ASSERT_LT(i, ref.size());
    expect_same_record(r, ref[i++]);
  }
  EXPECT_EQ(i, ref.size());
  for (std::size_t id = base; id < ref.size(); ++id) {
    expect_same_record(h.op(static_cast<OpId>(id)), ref[id]);
  }
  if (base > 0) {
    EXPECT_THROW((void)h.op(static_cast<OpId>(base - 1)), std::out_of_range);
  }
  EXPECT_THROW((void)h.op(static_cast<OpId>(ref.size())), std::out_of_range);
  EXPECT_THROW((void)h.op(-1), std::out_of_range);
}

TEST(HistoryBlocks, RetireMidBlockAtABoundaryAndAcrossBlocks) {
  constexpr auto kB = static_cast<OpId>(History::kBlockOps);
  History h;
  std::vector<OpRecord> ref;
  auto begin = [&](NodeId client, OpKind kind) {
    OpRecord r;
    r.id = h.begin_op(client, kind, static_cast<Time>(ref.size()));
    r.client = client;
    r.kind = kind;
    r.invoke = static_cast<Time>(ref.size());
    ASSERT_EQ(r.id, static_cast<OpId>(ref.size()));
    ref.push_back(r);
  };
  for (OpId i = 0; i < 2 * kB + kB / 2; ++i) {
    begin(i % 7, i % 3 == 0 ? OpKind::kWrite : OpKind::kRead);
  }
  EXPECT_EQ(h.blocks_created(), 3u);
  expect_matches(h, ref, 0);

  // Values land in the right block, before and after retirement.
  auto end = [&](OpId id, std::int64_t payload) {
    const TaggedValue v{Tag{payload, 1}, payload};
    h.end_op(id, 10'000 + id, v);
    ref[static_cast<std::size_t>(id)].resp = 10'000 + id;
    ref[static_cast<std::size_t>(id)].value = v;
  };
  auto set = [&](OpId id, std::int64_t payload) {
    const TaggedValue v{Tag{payload, 2}, payload};
    h.set_value(id, v);
    ref[static_cast<std::size_t>(id)].value = v;
  };
  end(3, 3);
  end(kB - 1, 4);
  end(kB, 5);
  set(2 * kB + 1, 6);

  h.retire_prefix(kB / 2);  // mid-block
  expect_matches(h, ref, kB / 2);
  h.retire_prefix(kB / 4);  // backwards: a no-op
  expect_matches(h, ref, kB / 2);
  h.retire_prefix(kB);  // exactly a block boundary
  expect_matches(h, ref, kB);
  end(kB + 1, 7);
  set(2 * kB + 2, 8);
  h.retire_prefix(2 * kB + 3);  // across a block, into the next
  expect_matches(h, ref, 2 * kB + 3);
  end(2 * kB + 3, 9);
  expect_matches(h, ref, 2 * kB + 3);

  // Retire everything, then keep recording: retired blocks are recycled.
  h.retire_prefix(static_cast<OpId>(ref.size()) + 50);  // clamps to size()
  expect_matches(h, ref, ref.size());
  for (OpId i = 0; i < kB; ++i) begin(i % 5, OpKind::kRead);
  expect_matches(h, ref, 2 * kB + kB / 2);
  EXPECT_EQ(h.blocks_created(), 3u) << "a retired block was not reused";
  end(static_cast<OpId>(ref.size()) - 1, 10);
  expect_matches(h, ref, 2 * kB + kB / 2);

  h.clear();
  ref.clear();
  expect_matches(h, ref, 0);
  for (OpId i = 0; i < 2 * kB + 1; ++i) begin(i % 5, OpKind::kWrite);
  expect_matches(h, ref, 0);
  EXPECT_EQ(h.blocks_created(), 3u) << "clear() dropped its blocks";
}

TEST(HistoryBlocks, RecordsNeverMoveWhileTheHistoryGrows) {
  History h;
  const OpId id = h.begin_op(1, OpKind::kWrite, 0);
  const OpRecord* first = &h.op(id);
  for (std::size_t i = 0; i < 5 * History::kBlockOps; ++i) {
    h.begin_op(2, OpKind::kRead, static_cast<Time>(i + 1));
  }
  EXPECT_EQ(&h.op(id), first);
  EXPECT_EQ(first->id, id);
}

TEST(HistoryBlocks, RandomOperationsMatchAReferenceVector) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    History h;
    std::vector<OpRecord> ref;
    std::size_t base = 0;
    // Bursts of invocations and slow retirement grow the live window
    // past several blocks; fast retirement shrinks it to nothing.
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t roll = rng.next_below(100);
      const std::size_t live = ref.size() - base;
      if (roll < 45 || live == 0) {
        OpRecord r;
        r.client = static_cast<NodeId>(rng.next_below(9));
        r.kind = rng.next_bool() ? OpKind::kWrite : OpKind::kRead;
        r.invoke = step;
        r.id = h.begin_op(r.client, r.kind, r.invoke);
        ref.push_back(r);
      } else if (roll < 75) {
        const auto id = static_cast<OpId>(base + rng.next_below(live));
        const TaggedValue v{Tag{step, 3}, rng.next_in(-5, 5)};
        h.end_op(id, step, v);
        ref[static_cast<std::size_t>(id)].resp = step;
        ref[static_cast<std::size_t>(id)].value = v;
      } else if (roll < 85) {
        const auto id = static_cast<OpId>(base + rng.next_below(live));
        const TaggedValue v{Tag{step, 4}, step};
        h.set_value(id, v);
        ref[static_cast<std::size_t>(id)].value = v;
      } else {
        const std::size_t stride =
            seed % 2 == 0 ? History::kBlockOps * 2 : History::kBlockOps / 3;
        const std::size_t target = base + rng.next_below(stride);
        h.retire_prefix(static_cast<OpId>(target));
        base = std::max(base, std::min(target, ref.size()));
      }
      if (step % 97 == 0) expect_matches(h, ref, base);
    }
    expect_matches(h, ref, base);
    // Blocks held at once never exceed the peak window's span plus one at
    // each end; recycling keeps the total near that, not the horizon.
    EXPECT_LT(h.blocks_created(), ref.size() / History::kBlockOps)
        << "seed " << seed;
  }
}

// ---------- Flat batch checks against their node-container forms ----------
//
// History::well_formed, History::unique_write_tags and check_tag_witness
// run on sorted flat vectors. These are the std::map / std::set forms they
// replaced, kept as the oracle: verdicts and violation strings must match
// on every history, including writes that share a tag (the last recorded
// write's payload is the one a read must return).

bool node_well_formed(const History& h) {
  std::map<NodeId, Time> last_resp;
  for (const OpRecord& r : h.ops()) {
    if (r.completed() && r.resp < r.invoke) return false;
    auto it = last_resp.find(r.client);
    if (it != last_resp.end() && r.invoke < it->second) return false;
    last_resp[r.client] = r.completed() ? r.resp : kTimeMax;
  }
  return true;
}

bool node_unique_write_tags(const History& h) {
  std::set<Tag> seen;
  for (const OpRecord& r : h.ops()) {
    if (r.kind != OpKind::kWrite || !r.completed()) continue;
    if (!seen.insert(r.value.tag).second) return false;
  }
  return true;
}

std::string node_describe(const OpRecord& r) {
  std::ostringstream os;
  os << (r.kind == OpKind::kWrite ? "write" : "read") << " op#" << r.id
     << " by client " << r.client << " value " << r.value.to_string();
  return os.str();
}

CheckResult node_tag_witness(const History& h) {
  if (!node_well_formed(h)) {
    return CheckResult::bad("history is not well-formed");
  }
  if (!node_unique_write_tags(h)) {
    return CheckResult::bad("completed write tags are not unique");
  }
  std::map<Tag, std::int64_t> written;
  for (const OpRecord& r : h.ops()) {
    if (r.kind == OpKind::kWrite) written[r.value.tag] = r.value.payload;
  }
  for (const OpRecord& r : h.ops()) {
    if (r.kind != OpKind::kRead || !r.completed()) continue;
    if (r.value.tag == kBottomTag) continue;
    auto it = written.find(r.value.tag);
    if (it == written.end()) {
      return CheckResult::bad("read-from: " + node_describe(r) +
                              " returns a tag never written");
    }
    if (it->second != r.value.payload) {
      return CheckResult::bad("read-from: " + node_describe(r) +
                              " returns a payload differing from the write's");
    }
  }
  struct Ev {
    Time at;
    bool is_resp;
    const OpRecord* op;
  };
  std::vector<Ev> evs;
  for (const OpRecord& r : h.ops()) {
    evs.push_back(Ev{r.invoke, false, &r});
    if (r.completed()) evs.push_back(Ev{r.resp, true, &r});
  }
  std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.is_resp != b.is_resp) return !a.is_resp;
    return a.op->id < b.op->id;
  });
  std::set<Tag> read_tags;
  for (const OpRecord& r : h.ops()) {
    if (r.kind == OpKind::kRead && r.completed()) read_tags.insert(r.value.tag);
  }
  Tag max_finished = kBottomTag;
  bool any_finished = false;
  const OpRecord* max_holder = nullptr;
  for (const Ev& ev : evs) {
    const OpRecord& op = *ev.op;
    if (ev.is_resp) {
      if (!any_finished || op.value.tag > max_finished) {
        max_finished = op.value.tag;
        max_holder = &op;
        any_finished = true;
      }
      continue;
    }
    if (!any_finished) continue;
    const Tag t = op.value.tag;
    if (op.kind == OpKind::kWrite) {
      if (!op.completed() && read_tags.find(t) == read_tags.end()) continue;
      if (t <= max_finished) {
        return CheckResult::bad("real-time: " + node_describe(op) +
                                " has tag <= earlier finished " +
                                node_describe(*max_holder));
      }
    } else {
      if (!op.completed()) continue;
      if (t < max_finished) {
        return CheckResult::bad("real-time: " + node_describe(op) +
                                " returns a tag older than earlier finished " +
                                node_describe(*max_holder));
      }
    }
  }
  return CheckResult::ok();
}

void expect_flat_matches_node(const History& h) {
  EXPECT_EQ(h.well_formed(), node_well_formed(h)) << h.to_string();
  EXPECT_EQ(h.unique_write_tags(), node_unique_write_tags(h))
      << h.to_string();
  const CheckResult flat = check_tag_witness(h);
  const CheckResult node = node_tag_witness(h);
  EXPECT_EQ(flat.atomic, node.atomic) << h.to_string();
  EXPECT_EQ(flat.refused, node.refused) << h.to_string();
  EXPECT_EQ(flat.violation, node.violation) << h.to_string();
}

TEST(FlatBatchChecks, PendingAndCompletedWritesSharingATagLastRecordedWins) {
  const Tag t{3, 1};
  for (const bool pending_last : {false, true}) {
    for (const std::int64_t read_payload : {7, 8}) {
      Builder b;
      if (pending_last) {
        b.write(0, 10, t, 7);        // completed, recorded first
        b.write(1, kTimeMax, t, 8);  // pending, same tag, recorded last
      } else {
        b.write(1, kTimeMax, t, 7);
        b.write(0, 10, t, 8);
      }
      b.read(20, 30, t, read_payload);
      expect_flat_matches_node(b.h);
      // The last recorded write's payload (8) is the one a read may return.
      EXPECT_EQ(check_tag_witness(b.h).atomic, read_payload == 8)
          << check_tag_witness(b.h).violation;
    }
  }
}

TEST(FlatBatchChecks, RandomHistoriesMatchTheNodeContainerForms) {
  // Few clients, few tags and few payloads, so every verdict shows up:
  // overlapping ops of one client, duplicate completed tags, pending and
  // completed writes sharing a tag, unknown tags, payload mismatches and
  // real-time inversions.
  int verdicts[5] = {};
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    Builder b;
    const int n = 1 + static_cast<int>(rng.next_below(12));
    for (int i = 0; i < n; ++i) {
      const Time s = rng.next_in(0, 40);
      const Time f = rng.next_bool(0.2) ? kTimeMax : rng.next_in(s, 60);
      const auto client = static_cast<NodeId>(rng.next_below(6));
      const Tag tag = rng.next_bool(0.1)
                          ? kBottomTag
                          : Tag{rng.next_in(1, 4),
                                static_cast<NodeId>(rng.next_below(2))};
      const std::int64_t payload = rng.next_in(0, 2);
      if (rng.next_bool()) {
        b.write(s, f, tag, payload, client);
      } else {
        b.read(s, f, tag, payload, client);
      }
    }
    expect_flat_matches_node(b.h);
    const CheckResult node = node_tag_witness(b.h);
    const std::string& v = node.violation;
    ++verdicts[node.atomic ? 0
               : v.rfind("history", 0) == 0 ? 1
               : v.rfind("completed", 0) == 0 ? 2
               : v.rfind("read-from", 0) == 0 ? 3
                                              : 4];
  }
  for (int k = 0; k < 5; ++k) EXPECT_GT(verdicts[k], 0) << "verdict " << k;
}

}  // namespace
}  // namespace mwreg
