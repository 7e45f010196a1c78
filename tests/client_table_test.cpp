// ClientTable and keyspace coverage.
//
// The heart of this suite is wire parity: the ClientTable must reproduce the
// simulations of the per-object clients it replaced bit for bit on the
// single-register layout — fault plans included — because it issues the
// identical message sequence through the identical RNG draws. The object
// clients are gone; the digests recorded from them are the oracle. The
// keyspace tests then check the multi-register layout: per-key
// linearizability, thread-count invariance, and digest stability.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "consistency/checkers.h"
#include "core/harness.h"
#include "core/keyspace.h"
#include "core/workload.h"
#include "exp/aggregator.h"
#include "exp/runner.h"
#include "protocols/protocols.h"
#include "sim/fault_plan.h"

namespace mwreg::exp {
namespace {

// Same construction as tests/golden_determinism_test.cpp.
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

// The pre-refactor engine constant from tests/golden_determinism_test.cpp:
// the table driver must land on it too.
constexpr std::uint64_t kGoldenBatchDigest = 16581352218070049687ULL;

// ObjectAndTableClientsAgreeOnWiderCells' spec, recorded on the per-object
// clients before they were deleted.
constexpr std::uint64_t kObjectWiderCellsDigest = 7633075559261332101ULL;

TEST(ClientTableParity, GoldenBatchDigestWithTableClients) {
  // The full golden spec — three protocols (two-round, query-then-write,
  // and local-timestamp writers; fast and two-round readers), two clusters,
  // two fault plans, three seeds. Bit-identical histories mean
  // bit-identical digests.
  const ExperimentSpec spec = golden_spec();
  Runner serial(Runner::Options{1});
  EXPECT_EQ(digest_results(serial.run(spec)), kGoldenBatchDigest);
}

TEST(ClientTableParity, ObjectAndTableClientsAgreeOnWiderCells) {
  // Cells the golden constant does not cover: W4R4 multi-writer ABD and the
  // GC'd delta-read protocol (per-server caches, watermarks, ack arrays).
  ExperimentSpec spec;
  spec.name = "parity";
  spec.protocols = {"mw-abd(W2R2)", "fast-read-mw(W2R1)"};
  spec.clusters = {ClusterConfig{5, 4, 4, 1}, ClusterConfig{7, 2, 3, 1}};
  spec.seeds = 2;
  spec.workload.ops_per_writer = 6;
  spec.workload.ops_per_reader = 6;
  spec.check_graph = true;
  Runner serial(Runner::Options{1});
  const std::vector<TrialResult> results = serial.run(spec);
  EXPECT_EQ(digest_results(results), kObjectWiderCellsDigest);
  for (const TrialResult& tr : results) {
    EXPECT_TRUE(tr.atomic()) << tr.protocol << " " << tr.violation;
  }
}

TEST(ClientTableParity, SingleKeyKeyspaceKeepsCellDigest) {
  // A 1-key keyspace is the classic layout; its cells must reuse the
  // historical RNG streams.
  const ClusterConfig cfg{5, 2, 1, 1};
  const KeyspaceConfig one{1, 1, 0.0};
  EXPECT_EQ(cell_digest("mw-abd(W2R2)", cfg, nullptr, one),
            cell_digest("mw-abd(W2R2)", cfg));
  const KeyspaceConfig many{8, 2, 0.99};
  EXPECT_NE(cell_digest("mw-abd(W2R2)", cfg, nullptr, many),
            cell_digest("mw-abd(W2R2)", cfg));
}

TEST(Keyspace, SweepIsThreadCountInvariantAndAtomic) {
  ExperimentSpec spec;
  spec.name = "keyspace";
  spec.protocols = {"mw-abd(W2R2)"};
  spec.clusters = {ClusterConfig{5, 8, 8, 1}};
  spec.keyspaces = {KeyspaceConfig{1, 1, 0.0}, KeyspaceConfig{16, 4, 0.99}};
  spec.seeds = 2;
  spec.workload.ops_per_writer = 5;
  spec.workload.ops_per_reader = 5;
  Runner serial(Runner::Options{1});
  Runner pooled(Runner::Options{4});
  const std::vector<TrialResult> a = serial.run(spec);
  const std::vector<TrialResult> b = pooled.run(spec);
  EXPECT_EQ(digest_results(a), digest_results(b));
  EXPECT_EQ(to_csv(aggregate(a)), to_csv(aggregate(b)));
  for (const TrialResult& tr : a) {
    EXPECT_TRUE(tr.atomic()) << tr.keyspace.to_string() << " " << tr.violation;
    EXPECT_EQ(tr.completed_ops, std::size_t{8 * 5 + 8 * 5});
  }
}

TEST(Keyspace, PerKeyHistoriesAreLinearizable) {
  // Direct harness check, reader-affine fast-read protocol: 4 readers over
  // 4 keys (one per block), every per-key history machine-checked.
  const Protocol* proto = protocol_by_name("fast-read-mw(W2R1)");
  ASSERT_NE(proto, nullptr);
  SimHarness::Options o;
  o.cfg = ClusterConfig{5, 2, 4, 1};
  o.keyspace = KeyspaceConfig{4, 2, 0.8};
  o.seed = 42;
  SimHarness h(*proto, std::move(o));
  ASSERT_TRUE(h.table()->reader_key_affine());
  WorkloadOptions w;
  w.ops_per_writer = 12;
  w.ops_per_reader = 12;
  run_random_workload(h, w);
  std::size_t completed = 0;
  for (int k = 0; k < h.num_keys(); ++k) {
    const CheckResult tag = check_tag_witness(h.key_history(k));
    EXPECT_TRUE(tag.atomic) << "key " << k << ": " << tag.violation;
    const CheckResult graph = check_unique_value_graph(h.key_history(k));
    EXPECT_TRUE(graph.atomic) << "key " << k << ": " << graph.violation;
    completed += h.key_history(k).completed_count();
  }
  EXPECT_EQ(completed, std::size_t{2 * 12 + 4 * 12});
}

TEST(Keyspace, ReaderBlocksPartitionReaders) {
  // reader_key_of inverts reader_block_begin for every (key, reader) shape
  // we rely on.
  for (int keys = 1; keys <= 8; ++keys) {
    for (int readers = keys; readers <= 3 * keys; ++readers) {
      for (int ri = 0; ri < readers; ++ri) {
        const int k = reader_key_of(ri, keys, readers);
        ASSERT_GE(ri, reader_block_begin(k, keys, readers));
        if (k + 1 < keys) {
          ASSERT_LT(ri, reader_block_begin(k + 1, keys, readers));
        }
      }
    }
  }
}

}  // namespace
}  // namespace mwreg::exp
