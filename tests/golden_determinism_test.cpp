// Golden determinism: the hot-path engine refactor (slab event heap, pooled
// payload buffers, dense crash/block tables) must not change a single
// simulated history. The constants below were captured from the
// pre-refactor engine (std::priority_queue<std::function> events,
// fresh-vector payloads, std::set fault bookkeeping) running this exact
// spec; any engine change that shifts an event order, an RNG draw, or a
// message delivery changes the digest and fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "exp/aggregator.h"
#include "exp/runner.h"
#include "protocols/protocols.h"
#include "sim/fault_plan.h"

namespace mwreg::exp {
namespace {

// FNV-1a, same construction as cell_digest: stable across platforms for
// fixed-width inputs.
struct Fnv {
  std::uint64_t h = 14695981039346656037ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xFF)) * 1099511628211ULL;
    }
  }
  void mix_str(const std::string& s) {
    for (char c : s) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
};

/// Digest every observable of a batch: per-trial identity, verdicts,
/// message/event counts, and the full latency sample streams (which pin
/// down both history timestamps and completion structure).
std::uint64_t digest_results(const std::vector<TrialResult>& results) {
  Fnv f;
  for (const TrialResult& tr : results) {
    f.mix_str(tr.protocol);
    f.mix_str(tr.fault_plan);
    f.mix(tr.user_seed);
    f.mix(tr.harness_seed);
    f.mix(tr.tag_atomic ? 1 : 0);
    f.mix(tr.graph_atomic ? 1 : 0);
    f.mix(tr.completed_ops);
    f.mix(tr.msgs_sent);
    f.mix(tr.sim_events);
    for (double ms : tr.write_ms) f.mix(static_cast<std::uint64_t>(ms * 1e6));
    for (double ms : tr.read_ms) f.mix(static_cast<std::uint64_t>(ms * 1e6));
  }
  return f.h;
}

ExperimentSpec golden_spec() {
  ExperimentSpec spec;
  spec.name = "golden";
  spec.protocols = {"mw-abd(W2R2)", "fast-read-mw(W2R1)", "abd-swmr(W1R2)"};
  spec.clusters = {ClusterConfig{5, 2, 1, 1}, ClusterConfig{3, 2, 2, 1}};
  spec.fault_plans = {scenarios::crash_recover(), scenarios::fig9_skip()};
  spec.seeds = 3;
  spec.delay = uniform_delay(1 * kMillisecond, 10 * kMillisecond);
  spec.workload.ops_per_writer = 8;
  spec.workload.ops_per_reader = 8;
  spec.check_graph = true;
  return spec;
}

// Captured from the pre-refactor engine (PR 2 tree) with the spec above.
constexpr std::uint64_t kGoldenBatchDigest = 16581352218070049687ULL;

// Fault-free cell digests are pure functions of (protocol, cluster) and key
// every cell's RNG stream; they must never drift.
constexpr std::uint64_t kGoldenCellDigestMwAbd521 = 8683406513189852776ULL;
constexpr std::uint64_t kGoldenCellDigestFastRead321 = 15207139009833096594ULL;

// golden_spec() over every all_protocols() name.
constexpr std::uint64_t kGoldenAllProtocolsDigest = 14781087596422958843ULL;

TEST(GoldenDeterminism, BatchDigestMatchesPreRefactorEngine) {
  Runner serial(Runner::Options{1, ShardSpec{}});
  const std::uint64_t got = digest_results(serial.run(golden_spec()));
  EXPECT_EQ(got, kGoldenBatchDigest);
}

TEST(GoldenDeterminism, ThreadCountDoesNotChangeTheDigest) {
  Runner serial(Runner::Options{1, ShardSpec{}});
  Runner pooled(Runner::Options{4, ShardSpec{}});
  const ExperimentSpec spec = golden_spec();
  EXPECT_EQ(digest_results(serial.run(spec)), kGoldenBatchDigest);
  EXPECT_EQ(digest_results(pooled.run(spec)), kGoldenBatchDigest);
}

TEST(GoldenDeterminism, NoGcAblationDigestIsThreadCountInvariant) {
  // The full-ack ablation has no golden constant (the name post-dates the
  // GC default flip), but its digests must be equally deterministic: the
  // same spec at 1 and 4 runner threads is bit-identical, and repeats are
  // stable. (The GC'd path is the fast-read-mw default and is pinned by
  // the golden constants above.)
  ExperimentSpec spec = golden_spec();
  spec.protocols = {"fast-read-mw-nogc(W2R1)"};
  spec.clusters = {ClusterConfig{5, 2, 1, 1}, ClusterConfig{7, 2, 3, 1}};
  Runner serial(Runner::Options{1, ShardSpec{}});
  Runner pooled(Runner::Options{4, ShardSpec{}});
  const std::uint64_t serial_digest = digest_results(serial.run(spec));
  EXPECT_EQ(serial_digest, digest_results(pooled.run(spec)));
  EXPECT_EQ(serial_digest, digest_results(pooled.run(spec)));
}

TEST(GoldenDeterminism, CoalescingAndTickAreEngineAndThreadInvariant) {
  // At a coarse tick there is no recorded constant (quantization changes
  // delivery times), but the four combinations {coalesce off/on} x {1/4
  // runner threads} must all produce one digest. The golden fault plans
  // ride along, and at this tick multi-frame batches actually form.
  ExperimentSpec spec = golden_spec();
  spec.tick = 10 * kMicrosecond;
  spec.coalesce = false;
  ExperimentSpec coalesced = spec;
  coalesced.coalesce = true;
  Runner serial(Runner::Options{1, ShardSpec{}});
  Runner pooled(Runner::Options{4, ShardSpec{}});
  const std::uint64_t base = digest_results(serial.run(spec));
  EXPECT_EQ(base, digest_results(serial.run(coalesced)));
  EXPECT_EQ(base, digest_results(pooled.run(spec)));
  EXPECT_EQ(base, digest_results(pooled.run(coalesced)));
}

TEST(GoldenDeterminism, PerMessageAblationPreservesTheGoldenDigest) {
  // The batched engine is the spec default, pinned above; the per-message
  // ablation must still reproduce the recorded digest.
  ExperimentSpec spec = golden_spec();
  spec.coalesce = false;
  Runner serial(Runner::Options{1, ShardSpec{}});
  EXPECT_EQ(digest_results(serial.run(spec)), kGoldenBatchDigest);
}

TEST(GoldenDeterminism, EveryRegisteredProtocolIsPinned) {
  // Pins every row's server and client programs, not only those of the
  // three protocols golden_spec() names.
  ExperimentSpec spec = golden_spec();
  spec.protocols.clear();
  for (const Protocol* p : all_protocols()) spec.protocols.push_back(p->name());
  Runner serial(Runner::Options{1, ShardSpec{}});
  EXPECT_EQ(digest_results(serial.run(spec)), kGoldenAllProtocolsDigest);
}

TEST(GoldenDeterminism, FaultFreeCellDigestsUnchanged) {
  EXPECT_EQ(cell_digest("mw-abd(W2R2)", ClusterConfig{5, 2, 1, 1}),
            kGoldenCellDigestMwAbd521);
  EXPECT_EQ(cell_digest("fast-read-mw(W2R1)", ClusterConfig{3, 2, 2, 1}),
            kGoldenCellDigestFastRead321);
}

}  // namespace
}  // namespace mwreg::exp
