// Schedule-fuzzing tests: randomized delivery schedules, link flaps within
// the failure budget, and mid-run crashes -- every history checked against
// the protocol's claimed guarantee.
#include <gtest/gtest.h>

#include "fuzz/schedule_fuzzer.h"

namespace mwreg::fuzz {
namespace {

TEST(Fuzzer, MwAbdStaysAtomicUnderChaos) {
  FuzzOptions o;
  o.protocol = "mw-abd(W2R2)";
  o.cfg = ClusterConfig{5, 2, 2, 2};
  o.trials = 40;
  o.seed = 11;
  const FuzzReport r = run_schedule_fuzzer(o);
  EXPECT_EQ(r.violations, 0) << r.first_violation;
  EXPECT_EQ(r.passed, r.trials);
  EXPECT_GT(r.total_ops, 1000u);
}

TEST(Fuzzer, FastReadMwStaysAtomicBelowBound) {
  FuzzOptions o;
  o.protocol = "fast-read-mw(W2R1)";
  o.cfg = ClusterConfig{7, 2, 3, 1};  // (3+2)*1 < 7
  o.trials = 40;
  o.seed = 13;
  const FuzzReport r = run_schedule_fuzzer(o);
  EXPECT_EQ(r.violations, 0) << r.first_violation;
}

TEST(Fuzzer, FastSwmrStaysAtomicBelowBound) {
  FuzzOptions o;
  o.protocol = "fast-swmr(W1R1)";
  o.cfg = ClusterConfig{7, 1, 3, 1};
  o.trials = 30;
  o.seed = 17;
  const FuzzReport r = run_schedule_fuzzer(o);
  EXPECT_EQ(r.violations, 0) << r.first_violation;
}

TEST(Fuzzer, RegularFastReadStaysRegular) {
  FuzzOptions o;
  o.protocol = "regular-fast-read(W2R1)";
  o.cfg = ClusterConfig{5, 2, 3, 2};
  o.trials = 40;
  o.seed = 19;
  o.expect = "regular";
  const FuzzReport r = run_schedule_fuzzer(o);
  EXPECT_EQ(r.violations, 0) << r.first_violation;
}

TEST(Fuzzer, AbdSwmrSurvivesCrashHeavyRuns) {
  FuzzOptions o;
  o.protocol = "abd-swmr(W1R2)";
  o.cfg = ClusterConfig{5, 1, 3, 2};
  o.trials = 30;
  o.crash_probability = 1.0;  // every trial crashes t servers mid-run
  o.seed = 23;
  const FuzzReport r = run_schedule_fuzzer(o);
  EXPECT_EQ(r.violations, 0) << r.first_violation;
}

TEST(Fuzzer, ReportsAccounting) {
  FuzzOptions o;
  o.protocol = "mw-abd(W2R2)";
  o.cfg = ClusterConfig{3, 2, 2, 1};
  o.trials = 10;
  o.seed = 29;
  const FuzzReport r = run_schedule_fuzzer(o);
  EXPECT_EQ(r.trials, 10);
  EXPECT_EQ(r.passed + r.violations, r.trials);
}

TEST(Fuzzer, EngineParityAcrossFuzzedSchedules) {
  // Every fuzzed schedule replayed under both delivery engines: the two
  // must be digest-identical on every trial, mid-run crashes included. The
  // live streaming checker rides along in both lanes and must agree with
  // the batch tag witness on every trial.
  ParityOptions o;
  o.protocol = "mw-abd(W2R2)";
  o.cfg = ClusterConfig{5, 2, 2, 2};
  o.trials = 25;
  o.seed = 31;
  const ParityReport r = run_engine_parity_fuzzer(o);
  EXPECT_EQ(r.mismatches, 0) << r.first_mismatch;
  EXPECT_EQ(r.frame_order_exact, r.trials);
  EXPECT_EQ(r.stream_verdict_parity, r.trials);
  EXPECT_GT(r.crash_trials, 0) << "seed produced no crash trials; crashes "
                                  "went unsoaked";
}

TEST(Fuzzer, EngineParityHoldsForFastReadUnderCrashHeavySchedules) {
  // The fast-read protocol exercises the largest server fan-outs, and so
  // the longest same-tick batches; force a crash on every trial.
  ParityOptions o;
  o.protocol = "fast-read-mw(W2R1)";
  o.cfg = ClusterConfig{7, 2, 3, 1};
  o.trials = 15;
  o.crash_probability = 1.0;
  o.seed = 37;
  const ParityReport r = run_engine_parity_fuzzer(o);
  EXPECT_EQ(r.mismatches, 0) << r.first_mismatch;
  EXPECT_EQ(r.crash_trials, r.trials);
  EXPECT_EQ(r.frame_order_exact, r.trials);
  EXPECT_EQ(r.stream_verdict_parity, r.trials);
}

TEST(Fuzzer, UnknownProtocolReported) {
  FuzzOptions o;
  o.protocol = "no-such-protocol";
  const FuzzReport r = run_schedule_fuzzer(o);
  EXPECT_EQ(r.trials, 0);
  EXPECT_NE(r.first_violation.find("unknown protocol"), std::string::npos);
}

}  // namespace
}  // namespace mwreg::fuzz
