// Integration tests: every protocol runs on the simulator, histories are
// machine-checked for atomicity, round-trip counts show up as exact
// latencies, and the fast-write strawman exhibits the violation Theorem 1
// promises.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "consistency/checkers.h"
#include "core/harness.h"
#include "core/workload.h"
#include "protocols/fastread_clients.h"
#include "protocols/protocols.h"

namespace mwreg {
namespace {

SimHarness::Options opts(ClusterConfig cfg, std::uint64_t seed,
                         std::unique_ptr<DelayModel> delay = nullptr) {
  SimHarness::Options o;
  o.cfg = cfg;
  o.seed = seed;
  o.delay = std::move(delay);
  return o;
}

void expect_history_atomic(SimHarness& h) {
  const CheckResult tw = check_tag_witness(h.history());
  EXPECT_TRUE(tw.atomic) << tw.violation << "\n" << h.history().to_string();
  const CheckResult g = check_unique_value_graph(h.history());
  EXPECT_TRUE(g.atomic) << g.violation;
}

// ---------- The registry is Table 1 ----------

TEST(ProtocolTable, NamesInRegistryOrder) {
  const std::vector<std::string> want = {
      "mw-abd(W2R2)",       "abd-swmr(W1R2)",          "naive-fast-write(W1R2)",
      "fast-read-mw(W2R1)", "fast-read-mw-nogc(W2R1)", "fast-swmr(W1R1)",
      "regular-fast-read(W2R1)", "fast-read-mw-literal(W2R1)"};
  std::vector<std::string> got;
  for (const Protocol* p : all_protocols()) {
    got.push_back(p->name());
    EXPECT_EQ(protocol_by_name(p->name()), p);
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(protocol_by_name("no-such-protocol"), nullptr);
}

TEST(ProtocolTable, RoundTripsMatchTheNamedWR) {
  for (const Protocol* p : all_protocols()) {
    const std::string n = p->name();
    const std::size_t at = n.rfind("(W");
    ASSERT_NE(at, std::string::npos) << n;
    ASSERT_EQ(n.substr(at + 3, 1), "R") << n;
    EXPECT_EQ(p->write_round_trips(), n[at + 2] - '0') << n;
    EXPECT_EQ(p->read_round_trips(), n[at + 4] - '0') << n;
  }
}

TEST(ProtocolTable, FeasibilityDigestIsPinned) {
  // Every row's "atomic iff" column over S 3-9, t 0-2, W 1-3, R 1-4, as one
  // FNV-1a digest of the verdict bits in registry order.
  std::uint64_t h = 14695981039346656037ULL;
  for (const Protocol* p : all_protocols()) {
    for (int s = 3; s <= 9; ++s) {
      for (int t = 0; t <= 2; ++t) {
        for (int w = 1; w <= 3; ++w) {
          for (int r = 1; r <= 4; ++r) {
            const bool ok = p->guarantees_atomicity(ClusterConfig{s, w, r, t});
            h = (h ^ (ok ? 1u : 0u)) * 1099511628211ULL;
          }
        }
      }
    }
  }
  EXPECT_EQ(h, 15780542258145827815ULL);
}

// ---------- Sequential semantics ----------

class SequentialSemantics : public ::testing::TestWithParam<const Protocol*> {};

TEST_P(SequentialSemantics, WriteThenReadReturnsWritten) {
  const Protocol& proto = *GetParam();
  // A configuration where every protocol in the registry is correct:
  // S=7, t=1, W=1 (single writer), R=2: 7 > (2+2)*1 and 1 < 7/2.
  // Every protocol -- even the regular-only baseline -- behaves atomically
  // when operations never overlap.
  const ClusterConfig cfg{7, 1, 2, 1};
  SimHarness h(proto, opts(cfg, 42));

  h.async_write(0, 111);
  h.run();
  TaggedValue got{};
  h.async_read(0, [&](TaggedValue v) { got = v; });
  h.run();
  EXPECT_EQ(got.payload, 111) << proto.name();

  h.async_write(0, 222);
  h.run();
  h.async_read(1, [&](TaggedValue v) { got = v; });
  h.run();
  EXPECT_EQ(got.payload, 222) << proto.name();

  expect_history_atomic(h);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, SequentialSemantics,
                         ::testing::ValuesIn(all_protocols()),
                         [](const ::testing::TestParamInfo<const Protocol*>& i) {
                           std::string n = i.param->name();
                           for (char& c : n) {
                             if (!isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return n;
                         });

// ---------- Round-trip counts become exact latencies ----------

struct LatencyCase {
  const char* proto;
  ClusterConfig cfg;
};

class RoundTripLatency : public ::testing::TestWithParam<LatencyCase> {};

TEST_P(RoundTripLatency, OperationsTakeExactlyRttTimesRounds) {
  const Protocol* proto = protocol_by_name(GetParam().proto);
  ASSERT_NE(proto, nullptr);
  const ClusterConfig cfg = GetParam().cfg;
  ASSERT_TRUE(proto->guarantees_atomicity(cfg));
  const Duration d = 1 * kMillisecond;
  SimHarness h(*proto, opts(cfg, 1, std::make_unique<ConstantDelay>(d)));

  Time w_lat = 0, r_lat = 0;
  {
    const Time t0 = h.sim().now();
    h.async_write(0, 5);
    h.run();
    w_lat = h.sim().now() - t0;
  }
  {
    const Time t0 = h.sim().now();
    h.async_read(0);
    h.run();
    r_lat = h.sim().now() - t0;
  }
  EXPECT_EQ(w_lat, proto->write_round_trips() * 2 * d) << proto->name();
  EXPECT_EQ(r_lat, proto->read_round_trips() * 2 * d) << proto->name();
}

INSTANTIATE_TEST_SUITE_P(
    Cells, RoundTripLatency,
    ::testing::Values(LatencyCase{"mw-abd(W2R2)", ClusterConfig{5, 2, 2, 2}},
                      LatencyCase{"abd-swmr(W1R2)", ClusterConfig{5, 1, 2, 2}},
                      LatencyCase{"fast-read-mw(W2R1)", ClusterConfig{5, 2, 2, 1}},
                      LatencyCase{"fast-swmr(W1R1)", ClusterConfig{5, 1, 2, 1}}),
    [](const ::testing::TestParamInfo<LatencyCase>& i) {
      std::string n = i.param.proto;
      for (char& c : n) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return n;
    });

// ---------- Randomized concurrent workloads stay atomic ----------

struct WorkloadCase {
  const char* proto;
  ClusterConfig cfg;
  std::uint64_t seed;
};

class ConcurrentWorkload : public ::testing::TestWithParam<WorkloadCase> {};

TEST_P(ConcurrentWorkload, HistoryIsAtomic) {
  const Protocol* proto = protocol_by_name(GetParam().proto);
  ASSERT_NE(proto, nullptr);
  const ClusterConfig cfg = GetParam().cfg;
  ASSERT_TRUE(proto->guarantees_atomicity(cfg))
      << proto->name() << " on " << cfg.to_string();
  SimHarness h(*proto, opts(cfg, GetParam().seed));
  WorkloadOptions w;
  w.ops_per_writer = 12;
  w.ops_per_reader = 12;
  run_random_workload(h, w);

  EXPECT_EQ(h.history().completed_count(),
            static_cast<std::size_t>(cfg.w() * w.ops_per_writer +
                                     cfg.r() * w.ops_per_reader));
  expect_history_atomic(h);
}

std::vector<WorkloadCase> workload_cases() {
  std::vector<WorkloadCase> cases;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    cases.push_back({"mw-abd(W2R2)", ClusterConfig{5, 3, 3, 2}, seed});
    cases.push_back({"mw-abd(W2R2)", ClusterConfig{3, 2, 2, 1}, seed});
    cases.push_back({"abd-swmr(W1R2)", ClusterConfig{5, 1, 3, 2}, seed});
    cases.push_back({"fast-read-mw(W2R1)", ClusterConfig{5, 3, 2, 1}, seed});
    cases.push_back({"fast-read-mw(W2R1)", ClusterConfig{7, 2, 4, 1}, seed});
    cases.push_back({"fast-read-mw(W2R1)", ClusterConfig{9, 2, 2, 2}, seed});
    cases.push_back({"fast-swmr(W1R1)", ClusterConfig{5, 1, 2, 1}, seed});
    cases.push_back({"fast-swmr(W1R1)", ClusterConfig{9, 1, 4, 1}, seed});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConcurrentWorkload,
                         ::testing::ValuesIn(workload_cases()));

// ---------- Crash tolerance ----------

/// Servers down after a run: pins that the workload's mid-run crash fired.
int crashed_servers(SimHarness& h) {
  int n = 0;
  for (const NodeId id : h.cfg().server_ids()) n += h.net().crashed(id);
  return n;
}

TEST(CrashTolerance, MwAbdSurvivesTCrashes) {
  const ClusterConfig cfg{5, 2, 2, 2};
  SimHarness h(*protocol_by_name("mw-abd(W2R2)"), opts(cfg, 7));
  WorkloadOptions w;
  w.ops_per_writer = 10;
  w.ops_per_reader = 10;
  w.crash_servers = 2;  // == t, mid-run
  w.crash_after_ops = 8;
  run_random_workload(h, w);
  EXPECT_EQ(crashed_servers(h), w.crash_servers);
  EXPECT_EQ(h.history().completed_count(), 40u);
  const CheckResult tw = check_tag_witness(h.history());
  EXPECT_TRUE(tw.atomic) << tw.violation;
}

TEST(CrashTolerance, MwAbdKeyspaceSurvivesTCrashes) {
  // The crash options apply to multi-key harnesses too: t of shard 0's
  // physical servers go down mid-run, so keys 0 and 2 each lose t replicas.
  const ClusterConfig cfg{5, 2, 2, 2};
  SimHarness::Options o = opts(cfg, 7);
  o.keyspace = KeyspaceConfig{4, 2, 0.0};
  SimHarness h(*protocol_by_name("mw-abd(W2R2)"), std::move(o));
  WorkloadOptions w;
  w.ops_per_writer = 10;
  w.ops_per_reader = 10;
  w.crash_servers = cfg.t();
  w.crash_after_ops = 8;
  run_random_workload(h, w);
  int crashed = 0;
  for (NodeId id = 0; id < 2 * cfg.s(); ++id) crashed += h.net().crashed(id);
  EXPECT_EQ(crashed, cfg.t());
  std::size_t completed = 0;
  for (int k = 0; k < h.num_keys(); ++k) {
    completed += h.key_history(k).completed_count();
    EXPECT_GT(h.key_history(k).size(), 0u) << "key " << k << " never drawn";
    EXPECT_EQ(h.key_history(k).completed_count(), h.key_history(k).size());
    const CheckResult tw = check_tag_witness(h.key_history(k));
    EXPECT_TRUE(tw.atomic) << "key " << k << ": " << tw.violation;
  }
  EXPECT_EQ(completed, 40u);
}

TEST(CrashTolerance, FastReadMwSurvivesTCrashes) {
  const ClusterConfig cfg{7, 2, 3, 1};
  ASSERT_TRUE(cfg.supports_fast_read());
  SimHarness h(*protocol_by_name("fast-read-mw(W2R1)"), opts(cfg, 9));
  WorkloadOptions w;
  w.ops_per_writer = 10;
  w.ops_per_reader = 10;
  w.crash_servers = 1;
  w.crash_after_ops = 10;
  run_random_workload(h, w);
  EXPECT_EQ(crashed_servers(h), w.crash_servers);
  EXPECT_EQ(h.history().completed_count(), 50u);
  const CheckResult tw = check_tag_witness(h.history());
  EXPECT_TRUE(tw.atomic) << tw.violation;
}

TEST(CrashTolerance, CrashCountOutsideZeroToSIsRefusedBeforeAnyCrash) {
  // A count outside [0, S] is refused before any server crashes, whether
  // the harness is asked directly or through the workload's crash option.
  const ClusterConfig cfg{5, 2, 2, 2};
  SimHarness h(*protocol_by_name("mw-abd(W2R2)"), opts(cfg, 7));
  for (const int count : {-1, cfg.s() + 1, cfg.s() + 2}) {
    SCOPED_TRACE(count);
    EXPECT_THROW((void)h.crash_random_servers(count), std::invalid_argument);
    WorkloadOptions w;
    w.crash_servers = count;
    w.crash_after_ops = 1;
    EXPECT_THROW(run_random_workload(h, w), std::invalid_argument);
    EXPECT_EQ(crashed_servers(h), 0);
    EXPECT_EQ(h.history().size(), 0u);
  }
  EXPECT_TRUE(h.crash_random_servers(0).empty());
  const std::vector<NodeId> all = h.crash_random_servers(cfg.s());
  EXPECT_EQ(std::set<NodeId>(all.begin(), all.end()).size(),
            static_cast<std::size_t>(cfg.s()));
  EXPECT_EQ(crashed_servers(h), cfg.s());
}

TEST(CrashTolerance, TooManyCrashesBlockProgressButNotSafety) {
  const ClusterConfig cfg{5, 2, 2, 2};
  SimHarness h(*protocol_by_name("mw-abd(W2R2)"), opts(cfg, 11));
  // Crash t+1 servers immediately: quorums of S-t=3 can no longer form.
  h.net().crash(0);
  h.net().crash(1);
  h.net().crash(2);
  h.async_write(0, 1);
  h.async_read(0);
  h.run();
  // Operations hang (wait-freedom needs at most t crashes) ...
  EXPECT_EQ(h.history().completed_count(), 0u);
  // ... but the recorded (all-pending) history is trivially atomic.
  EXPECT_TRUE(check_tag_witness(h.history()).atomic);
}

// ---------- Theorem 1's strawman: naive fast write is not atomic ----------

TEST(NaiveFastWrite, TwoWritersViolateAtomicity) {
  // Writer 0 completes several writes, then writer 1 (whose local timestamp
  // is smaller) writes: the late write is ordered behind the earlier ones by
  // tag, so a subsequent read returns the OLD value.
  const ClusterConfig cfg{3, 2, 2, 1};
  SimHarness h(*protocol_by_name("naive-fast-write(W1R2)"), opts(cfg, 1));
  for (int i = 1; i <= 3; ++i) {
    h.async_write(0, i * 10);
    h.run();
  }
  h.async_write(1, 999);  // tag (1, w1) < (3, w0): lost update
  h.run();
  TaggedValue got{};
  h.async_read(0, [&](TaggedValue v) { got = v; });
  h.run();
  EXPECT_NE(got.payload, 999);  // the read misses the latest write

  const CheckResult tw = check_tag_witness(h.history());
  EXPECT_FALSE(tw.atomic);
  const CheckResult wg = check_wing_gong(h.history());
  EXPECT_FALSE(wg.atomic) << "ground truth agrees the history is non-atomic";
}

TEST(NaiveFastWrite, SingleWriterModeIsAtomic) {
  // The same code path with W=1 is just SWMR ABD and stays atomic.
  const ClusterConfig cfg{3, 1, 2, 1};
  SimHarness h(*protocol_by_name("naive-fast-write(W1R2)"), opts(cfg, 2));
  WorkloadOptions w;
  run_random_workload(h, w);
  const CheckResult tw = check_tag_witness(h.history());
  EXPECT_TRUE(tw.atomic) << tw.violation;
}

// ---------- admissible(.) predicate (Algorithm 1, Definition 4) ----------

std::vector<FrEntry> entry_msg(const TaggedValue& v,
                               std::vector<NodeId> updated) {
  FrEntry e;
  e.value = v;
  e.updated = std::move(updated);
  return {e};
}

TEST(Admissible, DegreeOneNeedsFullQuorumAndOneCommonClient) {
  const TaggedValue v{Tag{1, 0}, 1};
  // S=5, t=1: degree 1 needs the value on >= 4 messages with a common client.
  std::vector<std::vector<FrEntry>> msgs(4, entry_msg(v, {7}));
  EXPECT_TRUE(admissible(v, msgs, 1, 5, 1));
  msgs.pop_back();
  EXPECT_FALSE(admissible(v, msgs, 1, 5, 1));  // only 3 < S - t
}

TEST(Admissible, HigherDegreeTradesQuorumForWitnesses) {
  const TaggedValue v{Tag{1, 0}, 1};
  // S=5, t=1, a=2: needs >= 3 messages sharing TWO common clients.
  std::vector<std::vector<FrEntry>> msgs(3, entry_msg(v, {7, 8}));
  EXPECT_TRUE(admissible(v, msgs, 2, 5, 1));
  // Distinct pairs with no common pair of clients: not admissible.
  std::vector<std::vector<FrEntry>> bad{entry_msg(v, {7, 8}),
                                        entry_msg(v, {8, 9}),
                                        entry_msg(v, {9, 7})};
  EXPECT_FALSE(admissible(v, bad, 2, 5, 1));
}

TEST(Admissible, IntersectionMustBeCommonToChosenSubset) {
  const TaggedValue v{Tag{1, 0}, 1};
  // 4 messages have v, but only 3 share client 7. For a=1 (need 4) the
  // shared-client subset is too small; still admissible because client 9 is
  // NOT needed: mu can be any 4 messages only if they share someone.
  std::vector<std::vector<FrEntry>> msgs{
      entry_msg(v, {7}), entry_msg(v, {7}), entry_msg(v, {7}),
      entry_msg(v, {9})};
  EXPECT_FALSE(admissible(v, msgs, 1, 5, 1));
  // Adding 7 to the fourth message fixes it.
  msgs[3] = entry_msg(v, {9, 7});
  EXPECT_TRUE(admissible(v, msgs, 1, 5, 1));
}

TEST(Admissible, ValueAbsentNotAdmissible) {
  const TaggedValue v{Tag{1, 0}, 1};
  const TaggedValue other{Tag{2, 0}, 2};
  std::vector<std::vector<FrEntry>> msgs(5, entry_msg(other, {7}));
  EXPECT_FALSE(admissible(v, msgs, 1, 5, 1));
}

// ---------- Message-size / valuevector growth sanity ----------

TEST(FastReadMw, ValQueueAccumulatesAndStaysBounded) {
  const ClusterConfig cfg{5, 2, 2, 1};
  SimHarness h(*protocol_by_name("fast-read-mw(W2R1)"), opts(cfg, 3));
  WorkloadOptions w;
  w.ops_per_writer = 15;
  w.ops_per_reader = 15;
  run_random_workload(h, w);
  expect_history_atomic(h);
  // Every write creates at most one distinct value; the queue cannot exceed
  // total writes + 1 (bottom).
  EXPECT_LE(h.history().completed_count(), 60u);
}

}  // namespace
}  // namespace mwreg
