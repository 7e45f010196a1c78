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
#include <memory>
#include <stdexcept>
#include <string>
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
  Runner serial(Runner::Options{1, ShardSpec{}});
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
  Runner serial(Runner::Options{1, ShardSpec{}});
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
  Runner serial(Runner::Options{1, ShardSpec{}});
  Runner pooled(Runner::Options{4, ShardSpec{}});
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

// ---------- harness refusals ----------
//
// SimHarness refuses, in every build, the cells ExperimentSpec::validate
// refuses, with the same message.

std::unique_ptr<SimHarness> make_harness(const char* protocol,
                                         ClusterConfig cfg,
                                         KeyspaceConfig keyspace) {
  SimHarness::Options o;
  o.cfg = cfg;
  o.keyspace = keyspace;
  return std::make_unique<SimHarness>(*protocol_by_name(protocol),
                                      std::move(o));
}

/// The message the harness refuses the cell with, or "" if it builds.
std::string harness_refusal(const char* protocol, ClusterConfig cfg,
                            KeyspaceConfig keyspace) {
  try {
    make_harness(protocol, cfg, keyspace);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

std::string spec_refusal(const char* protocol, ClusterConfig cfg,
                         KeyspaceConfig keyspace,
                         std::vector<FaultPlan> plans = {}) {
  ExperimentSpec spec;
  spec.protocols = {protocol};
  spec.clusters = {cfg};
  spec.keyspaces = {keyspace};
  spec.fault_plans = std::move(plans);
  return spec.validate();
}

TEST(HarnessRefusals, InvalidCluster) {
  const ClusterConfig t_is_s{5, 2, 2, 5};  // quorum S - t = 0
  EXPECT_THROW(make_harness("mw-abd(W2R2)", t_is_s, {}),
               std::invalid_argument);
  EXPECT_EQ(harness_refusal("mw-abd(W2R2)", t_is_s, {}),
            spec_refusal("mw-abd(W2R2)", t_is_s, {}));
}

TEST(HarnessRefusals, InvalidKeyspace) {
  const KeyspaceConfig more_shards_than_keys{4, 8, 0.0};
  const ClusterConfig cfg{5, 2, 2, 2};
  EXPECT_THROW(make_harness("mw-abd(W2R2)", cfg, more_shards_than_keys),
               std::invalid_argument);
  EXPECT_EQ(harness_refusal("mw-abd(W2R2)", cfg, more_shards_than_keys),
            spec_refusal("mw-abd(W2R2)", cfg, more_shards_than_keys));
}

TEST(HarnessRefusals, ReaderAffineProtocolNeedsAReaderPerKey) {
  const ClusterConfig two_readers{5, 2, 2, 1};
  const KeyspaceConfig four_keys{4, 2, 0.0};
  EXPECT_THROW(make_harness("fast-read-mw(W2R1)", two_readers, four_keys),
               std::invalid_argument);
  EXPECT_EQ(harness_refusal("fast-read-mw(W2R1)", two_readers, four_keys),
            spec_refusal("fast-read-mw(W2R1)", two_readers, four_keys));
  // A reader per key is enough.
  EXPECT_EQ(harness_refusal("fast-read-mw(W2R1)", ClusterConfig{5, 2, 4, 1},
                            four_keys),
            "");
}

TEST(HarnessRefusals, FaultPlanOnAMultiKeyKeyspace) {
  const ClusterConfig cfg{5, 2, 2, 2};
  const KeyspaceConfig four_keys{4, 2, 0.0};
  std::unique_ptr<SimHarness> h = make_harness("mw-abd(W2R2)", cfg, four_keys);
  const FaultPlan plan = scenarios::single_crash();
  EXPECT_THROW(h->install_fault_plan(plan), std::invalid_argument);
  try {
    h->install_fault_plan(plan);
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(e.what(), spec_refusal("mw-abd(W2R2)", cfg, four_keys, {plan}));
  }
  EXPECT_EQ(h->fault_log(), nullptr) << "the refused plan was installed";
}

// ---------- op-start refusals ----------
//
// A start on a client index or key out of range, or on a client whose
// previous op is still in flight, is refused in every build before any
// state changes: the op in flight completes with its own callback, and the
// history stays well-formed.

TEST(OpStartRefusals, BusyWriterKeepsItsInFlightWrite) {
  std::unique_ptr<SimHarness> h =
      make_harness("mw-abd(W2R2)", ClusterConfig{5, 2, 2, 2}, {});
  int first_done = 0;
  int second_done = 0;
  h->async_write(0, 1, [&] { ++first_done; });
  try {
    h->async_write(0, 2, [&] { ++second_done; });
    ADD_FAILURE() << "a second write on a busy writer was not refused";
  } catch (const std::out_of_range& e) {
    ADD_FAILURE() << "refused as out of range: " << e.what();
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("in flight"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(h->table()->start_write(0, 0, 3), std::logic_error);
  EXPECT_EQ(h->history().size(), 1u) << "a refused start recorded an op";
  h->run();
  EXPECT_EQ(first_done, 1);
  EXPECT_EQ(second_done, 0);
  EXPECT_EQ(h->history().completed_count(), 1u);
  const CheckResult r = check_tag_witness(h->history());
  EXPECT_TRUE(r.atomic) << r.violation;
}

TEST(OpStartRefusals, BusyReaderKeepsItsInFlightRead) {
  std::unique_ptr<SimHarness> h =
      make_harness("fast-read-mw(W2R1)", ClusterConfig{5, 2, 2, 1}, {});
  int writes_done = 0;
  int reads_done = 0;
  h->async_write(0, 7, [&] { ++writes_done; });
  h->async_read(1, [&](TaggedValue) { ++reads_done; });
  EXPECT_THROW(h->async_read(1, [&](TaggedValue) { reads_done += 100; }),
               std::logic_error);
  EXPECT_EQ(h->history().size(), 2u) << "a refused start recorded an op";
  h->run();
  EXPECT_EQ(writes_done, 1);
  EXPECT_EQ(reads_done, 1);
  EXPECT_EQ(h->history().completed_count(), 2u);
  const CheckResult r = check_tag_witness(h->history());
  EXPECT_TRUE(r.atomic) << r.violation;
}

TEST(OpStartRefusals, IndexOrKeyOutOfRange) {
  std::unique_ptr<SimHarness> one =
      make_harness("mw-abd(W2R2)", ClusterConfig{5, 2, 2, 2}, {});
  EXPECT_THROW(one->async_write(-1, 1), std::out_of_range);
  EXPECT_THROW(one->async_write(2, 1), std::out_of_range);
  EXPECT_THROW(one->async_read(-1), std::out_of_range);
  EXPECT_THROW(one->async_read(2), std::out_of_range);
  EXPECT_THROW(one->async_write_key(0, 1, 1), std::out_of_range);
  EXPECT_THROW(one->async_read_key(0, 1), std::out_of_range);
  EXPECT_EQ(one->history().size(), 0u) << "a refused start recorded an op";

  std::unique_ptr<SimHarness> four = make_harness(
      "mw-abd(W2R2)", ClusterConfig{5, 2, 2, 2}, KeyspaceConfig{4, 2, 0.0});
  EXPECT_THROW(four->async_write_key(0, 4, 1), std::out_of_range);
  EXPECT_THROW(four->async_read_key(1, 4), std::out_of_range);
  // The refusals left both clients idle: a valid start still goes through.
  int done = 0;
  four->async_write_key(0, 3, 1, [&] { ++done; });
  four->async_read_key(1, 3, [&](TaggedValue) { ++done; });
  four->run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(four->key_history(3).completed_count(), 2u);
}

}  // namespace
}  // namespace mwreg::exp
