// Tests for the src/exp experiment-runner subsystem: spec validation,
// thread-count-independent determinism, and a design-space smoke sweep.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "core/harness.h"
#include "exp/aggregator.h"
#include "exp/runner.h"
#include "exp/spec.h"
#include "protocols/protocols.h"

namespace mwreg::exp {
namespace {

ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.name = "unit";
  spec.protocols = {"mw-abd(W2R2)", "fast-read-mw(W2R1)"};
  spec.clusters = {ClusterConfig{5, 2, 2, 1}, ClusterConfig{7, 2, 3, 1}};
  spec.seed_lo = 1;
  spec.seeds = 3;
  spec.workload.ops_per_writer = 5;
  spec.workload.ops_per_reader = 5;
  return spec;
}

// ---------- spec ----------

TEST(ExperimentSpec, CountsCellsAndTrials) {
  const ExperimentSpec spec = small_spec();
  EXPECT_EQ(spec.cells(), 4);
  EXPECT_EQ(spec.trials(), 12);
  EXPECT_EQ(spec.validate(), "");
}

TEST(ExperimentSpec, RejectsUnknownProtocol) {
  ExperimentSpec spec = small_spec();
  spec.protocols.push_back("no-such-proto");
  EXPECT_NE(spec.validate(), "");
  EXPECT_THROW((void)Runner().run(spec), std::invalid_argument);
}

TEST(ExperimentSpec, RejectsInvalidCluster) {
  ExperimentSpec spec = small_spec();
  spec.clusters.push_back(ClusterConfig{1, 0, 0, 0});
  EXPECT_NE(spec.validate(), "");
}

TEST(ExperimentSpec, RejectsEmptySeedRange) {
  ExperimentSpec spec = small_spec();
  spec.seeds = 0;
  EXPECT_NE(spec.validate(), "");
}

TEST(ExperimentSpec, RejectsFastReadKeysWiderThanTheWitnessMasks) {
  // Fast-read witness masks hold 64 client ids per key; a wider key would
  // shift past them. Single register: W + R = 65 client ids.
  ExperimentSpec single;
  single.name = "wide";
  single.protocols = {"mw-abd(W2R2)", "fast-read-mw(W2R1)"};
  single.clusters = {ClusterConfig{5, 62, 3, 1}};
  const std::string err = single.validate();
  EXPECT_NE(err.find("fast-read-mw(W2R1)"), std::string::npos) << err;
  EXPECT_NE(err.find(single.clusters[0].to_string()), std::string::npos);
  EXPECT_THROW((void)Runner().run(single), std::invalid_argument);
  // The same span is fine for a protocol without witness masks.
  single.protocols = {"mw-abd(W2R2)"};
  EXPECT_EQ(single.validate(), "");

  // Multi-key: every key shares the 60 writers, and the last key's reader
  // block ends 8 readers further on — 68 ids.
  ExperimentSpec multi;
  multi.name = "wide-keys";
  multi.protocols = {"fast-read-mw(W2R1)"};
  multi.clusters = {ClusterConfig{5, 60, 8, 1}};
  multi.keyspaces = {KeyspaceConfig{4, 2, 0.0}};
  const std::string kerr = multi.validate();
  EXPECT_NE(kerr.find(multi.keyspaces[0].to_string()), std::string::npos)
      << kerr;
  // Exactly 64 ids per key still fits (the benchmark's fastread_keyspace
  // shape: 24 writers, 10 readers per key on 4 keys).
  multi.clusters = {ClusterConfig{13, 24, 40, 1}};
  multi.keyspaces = {KeyspaceConfig{4, 2, 0.99}};
  EXPECT_EQ(multi.validate(), "");
  // The harness refuses the wide key too, whoever builds it.
  SimHarness::Options o;
  o.cfg = ClusterConfig{5, 60, 8, 1};
  o.keyspace = KeyspaceConfig{4, 2, 0.0};
  EXPECT_THROW(SimHarness(*protocol_by_name("fast-read-mw(W2R1)"),
                          std::move(o)),
               std::invalid_argument);
}

// ---------- seeding ----------

TEST(DeriveSeed, DeterministicAndStreamSeparated) {
  EXPECT_EQ(derive_seed(7, 0), derive_seed(7, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {1ULL, 2ULL, 99ULL}) {
    for (std::uint64_t stream = 0; stream < 50; ++stream) {
      seen.insert(derive_seed(base, stream));
    }
  }
  EXPECT_EQ(seen.size(), 150u);  // no collisions across nearby inputs
}

// ---------- runner determinism ----------

TEST(Runner, SameSpecSameResultsAcrossThreadCounts) {
  const ExperimentSpec spec = small_spec();
  Runner::Options serial;
  serial.threads = 1;
  Runner::Options wide;
  wide.threads = 4;
  const std::vector<TrialResult> a = Runner(serial).run(spec);
  const std::vector<TrialResult> b = Runner(wide).run(spec);

  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), static_cast<std::size_t>(spec.trials()));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].protocol, b[i].protocol);
    EXPECT_EQ(a[i].cell_index, b[i].cell_index);
    EXPECT_EQ(a[i].user_seed, b[i].user_seed);
    EXPECT_EQ(a[i].harness_seed, b[i].harness_seed);
    EXPECT_EQ(a[i].tag_atomic, b[i].tag_atomic);
    EXPECT_EQ(a[i].write_ms, b[i].write_ms);  // bit-exact latencies
    EXPECT_EQ(a[i].read_ms, b[i].read_ms);
    EXPECT_EQ(a[i].msgs_sent, b[i].msgs_sent);
    EXPECT_EQ(a[i].sim_events, b[i].sim_events);
  }
  // The rendered reports — what an experiment actually publishes — must be
  // byte-identical too.
  EXPECT_EQ(to_csv(aggregate(a)), to_csv(aggregate(b)));
  EXPECT_EQ(to_json(aggregate(a)), to_json(aggregate(b)));
}

TEST(Runner, CellResultsAreBatchInvariant) {
  // A cell's numbers must be reproducible by re-running that cell alone:
  // the RNG stream depends on (protocol, cluster, user seed), not on where
  // the cell sits in a spec or run_all() batch.
  ExperimentSpec other = small_spec();
  other.name = "padding";
  other.seeds = 1;
  const ExperimentSpec spec = small_spec();

  const std::vector<TrialResult> alone = Runner().run(spec);
  const std::vector<TrialResult> batched = Runner().run_all({other, spec});

  ASSERT_EQ(batched.size(), alone.size() + 4u);
  for (std::size_t i = 0; i < alone.size(); ++i) {
    const TrialResult& a = alone[i];
    const TrialResult& b = batched[4 + i];  // after `other`'s 4 trials
    EXPECT_EQ(a.harness_seed, b.harness_seed);
    EXPECT_EQ(a.write_ms, b.write_ms);
    EXPECT_EQ(a.read_ms, b.read_ms);
    EXPECT_EQ(a.tag_atomic, b.tag_atomic);
  }
}

TEST(Runner, DistinctCellsGetDistinctHarnessSeeds) {
  ExperimentSpec spec = small_spec();
  spec.seeds = 1;
  const std::vector<TrialResult> rs = Runner().run(spec);
  std::set<std::uint64_t> seeds;
  for (const TrialResult& tr : rs) seeds.insert(tr.harness_seed);
  EXPECT_EQ(seeds.size(), rs.size());
}

TEST(Runner, RunTrialMatchesPoolExecution) {
  const ExperimentSpec spec = small_spec();
  const std::vector<TrialResult> rs = Runner().run(spec);
  const TrialResult solo =
      run_trial(spec, 0, rs[0].cell_index, rs[0].protocol, rs[0].cfg,
                rs[0].user_seed);
  EXPECT_EQ(solo.write_ms, rs[0].write_ms);
  EXPECT_EQ(solo.read_ms, rs[0].read_ms);
  EXPECT_EQ(solo.tag_atomic, rs[0].tag_atomic);
}

// ---------- smoke sweep ----------

TEST(Runner, SmokeSweepMatchesDesignSpaceExpectations) {
  ExperimentSpec spec;
  spec.name = "smoke";
  spec.protocols = {"mw-abd(W2R2)", "abd-swmr(W1R2)", "fast-read-mw(W2R1)",
                    "fast-swmr(W1R1)", "regular-fast-read(W2R1)"};
  // One multi-writer and one single-writer cluster, both below the
  // fast-read bound (R + 2)t < S.
  spec.clusters = {ClusterConfig{7, 2, 3, 1}, ClusterConfig{7, 1, 3, 1}};
  spec.seeds = 2;
  spec.workload.ops_per_writer = 6;
  spec.workload.ops_per_reader = 6;
  spec.check_graph = true;

  const std::vector<CellStats> cells = aggregate(Runner().run(spec));
  ASSERT_EQ(cells.size(), 10u);
  for (const CellStats& c : cells) {
    // Every cell whose protocol guarantees atomicity must check out under
    // both checkers on every seed.
    EXPECT_TRUE(c.matches_expectation())
        << c.protocol << " on " << c.cfg.to_string() << ": "
        << c.first_violation;
    EXPECT_EQ(c.trials, 2);
    EXPECT_GT(c.write.count, 0u);
    EXPECT_GT(c.read.count, 0u);
    EXPECT_GT(c.msgs_per_op, 0.0);
  }
}

// ---------- aggregator ----------

TEST(Aggregator, PoolsLatenciesExactly) {
  TrialResult t1, t2;
  t1.cell_index = t2.cell_index = 0;
  t1.protocol = t2.protocol = "p";
  t1.tag_atomic = true;
  t2.tag_atomic = false;
  t2.violation = "boom";
  t1.write_ms = {1.0, 3.0};
  t2.write_ms = {2.0, 4.0};
  t1.completed_ops = t2.completed_ops = 2;
  t1.msgs_sent = 10;
  t2.msgs_sent = 14;

  const std::vector<CellStats> cells = aggregate({t1, t2});
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].trials, 2);
  EXPECT_EQ(cells[0].atomic_trials, 1);
  EXPECT_EQ(cells[0].first_violation, "boom");
  EXPECT_EQ(cells[0].write.count, 4u);
  EXPECT_DOUBLE_EQ(cells[0].write.mean_ms, 2.5);
  EXPECT_DOUBLE_EQ(cells[0].write.max_ms, 4.0);
  EXPECT_DOUBLE_EQ(cells[0].msgs_per_op, 6.0);
}

/// Minimal JSON string unescaper for the round-trip test below.
std::string json_unescape(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        const int code = std::stoi(s.substr(i + 1, 4), nullptr, 16);
        out += static_cast<char>(code);
        i += 4;
        break;
      }
      default: out += s[i];  // \" and \\ and \/
    }
  }
  return out;
}

TEST(Aggregator, JsonEscapesControlCharactersRoundTrip) {
  TrialResult tr;
  tr.cell_index = 0;
  tr.protocol = "p";
  tr.tag_atomic = false;
  const std::string nasty = std::string("bad\r\tvalue\x01\x1f end\n\\ \"q\"\b");
  tr.violation = nasty;
  const std::string json = to_json(aggregate({tr}));

  // A violation string must never leak raw control bytes into the JSON;
  // the only raw control characters are the renderer's own newlines.
  for (unsigned char c : json) {
    if (c < 0x20) {
      EXPECT_EQ(c, '\n') << "raw control byte " << int(c);
    }
  }
  EXPECT_NE(json.find("\\r"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\u001f"), std::string::npos);

  // Round trip: extract the first_violation value and unescape it.
  const std::string key = "\"first_violation\":\"";
  const std::size_t pos = json.find(key);
  ASSERT_NE(pos, std::string::npos);
  const std::size_t start = pos + key.size();
  std::size_t end = start;
  while (json[end] != '"' || json[end - 1] == '\\') ++end;
  EXPECT_EQ(json_unescape(json.substr(start, end - start)), nasty);
}

TEST(Runner, FaultPlanAxisExpandsTheCrossProduct) {
  ExperimentSpec spec = small_spec();
  spec.fault_plans = {scenarios::single_crash(),
                      scenarios::minority_partition()};
  EXPECT_EQ(spec.validate(), "");
  EXPECT_EQ(spec.cells(), 8);    // 2 protocols x 2 clusters x 2 plans
  EXPECT_EQ(spec.trials(), 24);  // x 3 seeds

  const std::vector<CellStats> cells = aggregate(Runner().run(spec));
  ASSERT_EQ(cells.size(), 8u);
  int crash_cells = 0, partition_cells = 0;
  for (const CellStats& c : cells) {
    crash_cells += c.fault_plan == "single-crash";
    partition_cells += c.fault_plan == "minority-partition";
    EXPECT_GT(c.faults_injected, 0.0) << c.fault_plan;
  }
  EXPECT_EQ(crash_cells, 4);
  EXPECT_EQ(partition_cells, 4);

  const std::string csv = to_csv(cells);
  EXPECT_NE(csv.find("fault_plan"), std::string::npos);
  EXPECT_NE(csv.find("single-crash"), std::string::npos);
  EXPECT_NE(csv.find("minority-partition"), std::string::npos);
}

TEST(Runner, RejectsDuplicateAndUnnamedFaultPlans) {
  ExperimentSpec spec = small_spec();
  spec.fault_plans = {scenarios::single_crash(), scenarios::single_crash()};
  EXPECT_NE(spec.validate(), "");
  spec.fault_plans = {FaultPlan{}.crash(0, 10)};
  EXPECT_NE(spec.validate(), "");
}

TEST(Runner, FaultFreeCellDigestIsPlanIndependent) {
  // The two-argument digest and an empty plan agree, so pre-fault-axis
  // sweeps reproduce bit-identically; real plans shift the stream.
  const ClusterConfig cfg{5, 2, 2, 1};
  EXPECT_EQ(cell_digest("p", cfg), cell_digest("p", cfg, FaultPlan{}));
  EXPECT_NE(cell_digest("p", cfg),
            cell_digest("p", cfg, scenarios::single_crash()));
  EXPECT_NE(cell_digest("p", cfg, scenarios::single_crash()),
            cell_digest("p", cfg, scenarios::minority_partition()));
}

TEST(Aggregator, CsvHasHeaderAndOneRowPerCell) {
  ExperimentSpec spec = small_spec();
  spec.seeds = 1;
  const std::string csv = to_csv(aggregate(Runner().run(spec)));
  std::size_t lines = 0;
  for (char ch : csv) lines += ch == '\n';
  EXPECT_EQ(lines, 1u + 4u);
  EXPECT_NE(csv.find("spec,protocol,S,W,R,t"), std::string::npos);
  EXPECT_NE(csv.find("mw-abd(W2R2)"), std::string::npos);
}

}  // namespace
}  // namespace mwreg::exp
