// Property tests for Algorithm 1's read decision. FrPicker (count pass,
// subset search, k-way candidate merge) must agree with two references on
// random inputs: the per-degree DFS the read path used before it, and a
// brute-force enumeration where inputs are small. The references read the
// sorted-list form (FrEntry); the picker reads the same messages converted
// into the bitset form (FrRows). The predicate must also be monotone in the
// ways the correctness proofs rely on (Lemmas 8-10).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "protocols/fastread_clients.h"

namespace mwreg {
namespace {

using Sets = std::vector<std::vector<NodeId>>;  // each sorted
using Msgs = std::vector<std::vector<FrEntry>>;

/// v's updated set in every message holding it (first match per message).
Sets sets_of(const TaggedValue& v, const Msgs& msgs) {
  Sets sets;
  for (const std::vector<FrEntry>& m : msgs) {
    for (const FrEntry& e : m) {
      if (e.value == v) {
        std::vector<NodeId> s = e.updated;
        std::sort(s.begin(), s.end());
        s.erase(std::unique(s.begin(), s.end()), s.end());
        sets.push_back(std::move(s));
        break;
      }
    }
  }
  return sets;
}

/// The messages in the picker's form: one FrRows per message over `kc`'s
/// client span, plus the pointers pick() takes.
struct RowViews {
  std::vector<FrRows> rows;
  std::vector<const FrRows*> views;
};

RowViews rows_of(const Msgs& msgs, const ClusterConfig& kc) {
  RowViews out;
  out.rows.assign(msgs.size(),
                  FrRows(kc.first_client(), kc.id_end() - kc.first_client()));
  for (std::size_t m = 0; m < msgs.size(); ++m) {
    for (const FrEntry& e : msgs[m]) {
      out.rows[m].push_back(e.value);
      for (const NodeId c : e.updated) {
        out.rows[m].set(out.rows[m].size() - 1, c);
      }
    }
    out.views.push_back(&out.rows[m]);
  }
  return out;
}

bool has(const std::vector<NodeId>& set, NodeId c) {
  return std::binary_search(set.begin(), set.end(), c);
}

/// The subset search the read path ran once per (candidate, degree) before
/// FrPicker: clients pruned to those in >= need sets, then a DFS choosing
/// `a` of them while keeping the list of sets that contain all chosen.
bool dfs_admissible(const TaggedValue& v, const Msgs& msgs, int a, int S,
                    int t) {
  const int need = std::max(1, S - a * t);
  const Sets sets = sets_of(v, msgs);
  if (static_cast<int>(sets.size()) < need) return false;
  if (a == 0) return true;
  std::vector<NodeId> all;
  for (const auto& s : sets) all.insert(all.end(), s.begin(), s.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  std::vector<NodeId> cands;
  for (NodeId c : all) {
    int cnt = 0;
    for (const auto& s : sets) cnt += has(s, c);
    if (cnt >= need) cands.push_back(c);
  }
  if (static_cast<int>(cands.size()) < a) return false;
  struct Frame {
    std::vector<std::size_t> live;  // indexes into sets
    std::size_t next_cand;
    int chosen;
  };
  Frame root{{}, 0, 0};
  for (std::size_t i = 0; i < sets.size(); ++i) root.live.push_back(i);
  std::vector<Frame> stack{root};
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    if (f.chosen == a) return true;
    for (std::size_t i = f.next_cand; i < cands.size(); ++i) {
      std::vector<std::size_t> live;
      for (std::size_t s : f.live) {
        if (has(sets[s], cands[i])) live.push_back(s);
      }
      if (static_cast<int>(live.size()) < need) continue;
      if (f.chosen + 1 + static_cast<int>(cands.size() - i - 1) < a) break;
      stack.push_back(Frame{std::move(live), i + 1, f.chosen + 1});
    }
  }
  return false;
}

/// Brute force: enumerate ALL subsets mu of the messages holding v, and for
/// each check |mu| >= max(1, S - a*t) and |intersection| >= a.
bool brute_admissible(const TaggedValue& v, const Msgs& msgs, int a, int S,
                      int t) {
  const Sets sets = sets_of(v, msgs);
  const int need = std::max(1, S - a * t);
  const std::size_t n = sets.size();
  EXPECT_LE(n, 16u) << "brute force is exponential; keep inputs small";
  for (std::uint64_t sub = 1; sub < (1ULL << n); ++sub) {
    if (__builtin_popcountll(sub) < need) continue;
    std::vector<NodeId> inter;
    bool first = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (!(sub & (1ULL << i))) continue;
      if (first) {
        inter = sets[i];
        first = false;
        continue;
      }
      std::vector<NodeId> next;
      std::set_intersection(inter.begin(), inter.end(), sets[i].begin(),
                            sets[i].end(), std::back_inserter(next));
      inter.swap(next);
    }
    if (static_cast<int>(inter.size()) >= a) return true;
  }
  return false;
}

using Admissible = bool (*)(const TaggedValue&, const Msgs&, int, int, int);

/// The read decision as a sorted, deduplicated candidate list tried
/// largest-first, each at degrees 1..R+1.
TaggedValue reference_pick(const Msgs& msgs, int R, int S, int t,
                           Admissible admissible_at) {
  std::vector<TaggedValue> cands;
  for (const std::vector<FrEntry>& m : msgs) {
    for (const FrEntry& e : m) cands.push_back(e.value);
  }
  std::sort(cands.begin(), cands.end());
  cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
  for (auto it = cands.rbegin(); it != cands.rend(); ++it) {
    for (int a = 1; a <= R + 1; ++a) {
      if (admissible_at(*it, msgs, a, S, t)) return *it;
    }
  }
  return TaggedValue{};
}

Msgs random_msgs(Rng& rng, const TaggedValue& v, int n_msgs, int clients) {
  Msgs msgs;
  for (int m = 0; m < n_msgs; ++m) {
    std::vector<FrEntry> entries;
    if (rng.next_bool(0.8)) {  // message "has v"
      FrEntry e;
      e.value = v;
      for (NodeId c = 0; c < clients; ++c) {
        if (rng.next_bool(0.5)) e.updated.push_back(c);
      }
      entries.push_back(std::move(e));
    }
    if (rng.next_bool(0.5)) {  // unrelated entry
      FrEntry other;
      other.value = TaggedValue{Tag{99, 99}, 99};
      other.updated = {static_cast<NodeId>(rng.next_below(
          static_cast<std::uint64_t>(clients)))};
      entries.push_back(std::move(other));
    }
    msgs.push_back(std::move(entries));
  }
  return msgs;
}

class AdmissibleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdmissibleProperty, MatchesBruteForceReference) {
  Rng rng(GetParam());
  const TaggedValue v{Tag{1, 0}, 1};
  for (int iter = 0; iter < 300; ++iter) {
    const int S = 3 + static_cast<int>(rng.next_below(6));
    const int t = 1 + static_cast<int>(rng.next_below(2));
    const int n_msgs = 1 + static_cast<int>(rng.next_below(
                               static_cast<std::uint64_t>(S)));
    const auto msgs = random_msgs(rng, v, n_msgs, 6);
    for (int a = 1; a <= 4; ++a) {
      EXPECT_EQ(admissible(v, msgs, a, S, t),
                brute_admissible(v, msgs, a, S, t))
          << "S=" << S << " t=" << t << " a=" << a << " msgs=" << n_msgs;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdmissibleProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------- FrPicker against the references ----------

/// Clients in [200, 330): wider than one 64-bit word, from a nonzero base.
constexpr NodeId kBase = 200;
constexpr int kSpan = 130;

/// One round's replies for a group of S servers and R readers whose
/// clients span [kBase, kBase + kSpan). Values come from a small pool in
/// which some tags carry two payloads, so replies can disagree on the
/// payload of one tag; each reply holds a tag at most once, sorted. A
/// per-value core of witnesses shows up in most replies holding the value,
/// so counts and the subset search both have work to do.
struct Round {
  ClusterConfig kc;
  Msgs msgs;
};

Round random_round(Rng& rng) {
  Round r;
  const int t = 1 + static_cast<int>(rng.next_below(2));
  const int R = 1 + static_cast<int>(rng.next_below(4));
  const int S = (R + 2) * t + 1 + static_cast<int>(rng.next_below(4));
  r.kc = ClusterConfig{S, kSpan - R, R, t};
  r.kc.client_base = kBase;
  const int q = 1 + static_cast<int>(rng.next_below(
                        static_cast<std::uint64_t>(r.kc.quorum())));
  struct PoolValue {
    TaggedValue value;
    std::vector<NodeId> core;
  };
  std::vector<PoolValue> pool;
  const int tags = 1 + static_cast<int>(rng.next_below(5));
  for (int i = 0; i < tags; ++i) {
    const Tag tag{1 + static_cast<std::int64_t>(rng.next_below(4)),
                  kBase + static_cast<NodeId>(rng.next_below(kSpan - R))};
    const int payloads = rng.next_bool(0.3) ? 2 : 1;
    for (int p = 0; p < payloads; ++p) {
      PoolValue pv;
      pv.value = TaggedValue{tag, 10 * i + p};
      const int core = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(R + 3)));
      for (int k = 0; k < core; ++k) {
        pv.core.push_back(kBase +
                          static_cast<NodeId>(rng.next_below(kSpan)));
      }
      pool.push_back(std::move(pv));
    }
  }
  const double density = 0.01 + 0.2 * rng.next_double();
  for (int m = 0; m < q; ++m) {
    std::vector<FrEntry> entries;
    for (const PoolValue& pv : pool) {
      if (!rng.next_bool(0.7)) continue;
      const bool tag_taken = std::any_of(
          entries.begin(), entries.end(),
          [&pv](const FrEntry& e) { return e.value.tag == pv.value.tag; });
      if (tag_taken) continue;
      FrEntry e;
      e.value = pv.value;
      for (NodeId c : pv.core) {
        if (rng.next_bool(0.85)) e.updated.push_back(c);
      }
      for (NodeId c = kBase; c < kBase + kSpan; ++c) {
        if (rng.next_bool(density)) e.updated.push_back(c);
      }
      std::sort(e.updated.begin(), e.updated.end());
      e.updated.erase(std::unique(e.updated.begin(), e.updated.end()),
                      e.updated.end());
      entries.push_back(std::move(e));
    }
    std::sort(entries.begin(), entries.end(),
              [](const FrEntry& x, const FrEntry& y) {
                return x.value < y.value;
              });
    r.msgs.push_back(std::move(entries));
  }
  return r;
}

class PickerOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PickerOracle, MatchesTheDfsAndBruteForceOnWideRandomRounds) {
  Rng rng(GetParam());
  FrPicker picker;  // reused across rounds of different shapes
  int admissible_hits = 0;
  int rejected = 0;
  for (int iter = 0; iter < 150; ++iter) {
    const Round r = random_round(rng);
    const RowViews rows = rows_of(r.msgs, r.kc);
    const int R = r.kc.r(), S = r.kc.s(), t = r.kc.t();
    if (rng.next_bool(0.5)) picker.reserve(r.kc);
    // Brute force only where it stays cheap: at most 2^6 subsets.
    const bool small = r.msgs.size() <= 6;
    const TaggedValue got = picker.pick(rows.views, r.kc);
    EXPECT_EQ(got, reference_pick(r.msgs, R, S, t, dfs_admissible))
        << "iter " << iter;
    if (small) {
      EXPECT_EQ(got, reference_pick(r.msgs, R, S, t, brute_admissible))
          << "iter " << iter;
    }
    std::vector<TaggedValue> values;
    for (const std::vector<FrEntry>& m : r.msgs) {
      for (const FrEntry& e : m) values.push_back(e.value);
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    for (const TaggedValue& v : values) {
      for (int a = 1; a <= R + 1; ++a) {
        const bool ok = picker.admissible(v, rows.views, a, S, t);
        EXPECT_EQ(ok, dfs_admissible(v, r.msgs, a, S, t))
            << "iter " << iter << " v=" << v.to_string() << " a=" << a;
        if (small) {
          EXPECT_EQ(ok, brute_admissible(v, r.msgs, a, S, t))
              << "iter " << iter << " v=" << v.to_string() << " a=" << a;
        }
        (ok ? admissible_hits : rejected) += 1;
      }
    }
  }
  // The generator reaches both verdicts.
  EXPECT_GT(admissible_hits, 0);
  EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PickerOracle,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(PickerCandidates, SameTagDifferentPayloadsStayDistinct) {
  // S = 5, t = 1, R = 1; four replies. (7, 201) reached the servers with
  // two payloads: two replies hold payload 2, two hold payload 1, all with
  // witness 250. Neither value is admissible on its own (degree 1 needs 4
  // sets, degree 2 needs 3 sets and 2 common witnesses), but merged by tag
  // they would pass degree 1. The picker must fall through to bottom.
  ClusterConfig kc{5, kSpan - 1, 1, 1};
  kc.client_base = kBase;
  const Tag tag{7, 201};
  Msgs msgs;
  for (int m = 0; m < 4; ++m) {
    FrEntry bottom;
    bottom.updated = {250};
    FrEntry e;
    e.value = TaggedValue{tag, m < 2 ? 2 : 1};
    e.updated = {250};
    msgs.push_back({bottom, e});
  }
  FrPicker picker;
  picker.reserve(kc);
  EXPECT_EQ(picker.pick(rows_of(msgs, kc).views, kc), TaggedValue{});
  EXPECT_EQ(reference_pick(msgs, 1, 5, 1, dfs_admissible), TaggedValue{});
  // Three replies agreeing on payload 2 with two common witnesses make it
  // admissible at degree 2.
  for (int m = 0; m < 2; ++m) msgs[m][1].updated = {250, 329};
  msgs[2][1] = FrEntry{TaggedValue{tag, 2}, {250, 329}};
  EXPECT_EQ(picker.pick(rows_of(msgs, kc).views, kc), (TaggedValue{tag, 2}));
  EXPECT_EQ(reference_pick(msgs, 1, 5, 1, dfs_admissible),
            (TaggedValue{tag, 2}));
}

TEST(PickerSpans, RefusesAViewOverAnotherClientSpan) {
  // The picker's columns are the group's client ids, so pick() refuses a
  // view over another base or span, and admissible() views that disagree
  // on theirs. The refusal comes before any set loads: the same picker
  // then decides the next round as the references do.
  ClusterConfig kc{5, kSpan - 1, 1, 1};
  kc.client_base = kBase;
  const TaggedValue v{Tag{7, 201}, 2};
  Msgs msgs;
  for (int m = 0; m < 4; ++m) {
    msgs.push_back({FrEntry{TaggedValue{}, {250}}, FrEntry{v, {250, 329}}});
  }
  ClusterConfig shifted = kc;  // same width, base one id up
  shifted.client_base = kBase + 1;
  ClusterConfig wider{5, kSpan, 1, 1};  // same base, one id wider
  wider.client_base = kBase;
  FrPicker picker;
  picker.reserve(kc);
  for (const ClusterConfig& other : {shifted, wider}) {
    const RowViews odd = rows_of(msgs, other);
    EXPECT_THROW(picker.pick(odd.views, kc), std::invalid_argument);
    for (const std::size_t at : {std::size_t{0}, msgs.size() - 1}) {
      RowViews mixed = rows_of(msgs, kc);
      mixed.views[at] = odd.views[at];
      EXPECT_THROW(picker.pick(mixed.views, kc), std::invalid_argument);
      EXPECT_THROW(picker.admissible(v, mixed.views, 1, 5, 1),
                   std::invalid_argument);
    }
    const RowViews rows = rows_of(msgs, kc);
    EXPECT_EQ(picker.pick(rows.views, kc),
              reference_pick(msgs, 1, 5, 1, dfs_admissible));
    for (int a = 1; a <= 2; ++a) {
      EXPECT_EQ(picker.admissible(v, rows.views, a, 5, 1),
                dfs_admissible(v, msgs, a, 5, 1))
          << "a=" << a;
    }
  }
}

// ---------- monotonicity (Lemmas 8-10) ----------

TEST(AdmissibleMonotone, AddingWitnessClientsPreservesAdmissibility) {
  // Lemma 8's engine: updated sets only grow, and growth never revokes
  // admissibility.
  Rng rng(7);
  const TaggedValue v{Tag{1, 0}, 1};
  for (int iter = 0; iter < 200; ++iter) {
    auto msgs = random_msgs(rng, v, 5, 5);
    const int S = 6, t = 1;
    for (int a = 1; a <= 3; ++a) {
      if (!admissible(v, msgs, a, S, t)) continue;
      auto grown = msgs;
      for (auto& m : grown) {
        for (FrEntry& e : m) {
          if (e.value == v && rng.next_bool(0.5)) e.updated.push_back(5);
        }
      }
      EXPECT_TRUE(admissible(v, grown, a, S, t)) << "a=" << a;
    }
  }
}

TEST(AdmissibleMonotone, MoreMessagesWithVPreserveAdmissibility) {
  Rng rng(9);
  const TaggedValue v{Tag{1, 0}, 1};
  for (int iter = 0; iter < 200; ++iter) {
    auto msgs = random_msgs(rng, v, 4, 5);
    const int S = 5, t = 1;
    if (!admissible(v, msgs, 2, S, t)) continue;
    // A fresh message carrying v with a superset witness set cannot hurt:
    // the original mu is still available.
    FrEntry e;
    e.value = v;
    e.updated = {0, 1, 2, 3, 4};
    msgs.push_back({e});
    EXPECT_TRUE(admissible(v, msgs, 2, S, t));
  }
}

TEST(AdmissibleBounds, FeasibleRegionArithmetic) {
  // At the Fig. 9 boundary S = (R+2)t, a value held by exactly t servers
  // with R+1 common witnesses is admissible at degree R+1 -- and is not
  // when S grows by one (the feasible side).
  const TaggedValue v{Tag{1, 0}, 1};
  for (int t = 1; t <= 3; ++t) {
    for (int R = 2; R <= 5; ++R) {
      std::vector<NodeId> witnesses;
      for (NodeId c = 0; c <= R; ++c) witnesses.push_back(c);  // R+1 clients
      Msgs msgs;
      for (int i = 0; i < t; ++i) {
        FrEntry e;
        e.value = v;
        e.updated = witnesses;
        msgs.push_back({e});
      }
      bool any_boundary = false, any_feasible = false;
      for (int a = 1; a <= R + 1; ++a) {
        any_boundary |= admissible(v, msgs, a, (R + 2) * t, t);
        any_feasible |= admissible(v, msgs, a, (R + 2) * t + 1, t);
      }
      EXPECT_TRUE(any_boundary) << "t=" << t << " R=" << R;
      EXPECT_FALSE(any_feasible) << "t=" << t << " R=" << R;
    }
  }
}

}  // namespace
}  // namespace mwreg
