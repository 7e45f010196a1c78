// Tests for the process-sharded sweep fleet: ShardSpec slicing in the
// Runner, the versioned partial-aggregate artifact (exp/partial.h), the
// deterministic merge algebra, and the shared sweep CLI parser.
//
// The load-bearing property: for ANY shard count and ANY merge order, the
// merged result vector — and therefore the rendered CSV and JSON reports —
// is byte-for-byte identical to the single-process run. Fault-plan,
// multi-key-keyspace, and streaming-checked cells are all in the reference
// batch, so the property is pinned across every sweep axis at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "exp/aggregator.h"
#include "exp/cli.h"
#include "exp/partial.h"
#include "exp/runner.h"
#include "sim/fault_plan.h"

namespace mwreg::exp {
namespace {

/// A miniature of sweep_explorer's reference batch: fault-plan cells and a
/// multi-key Zipfian keyspace cell, streaming checker live on every trial.
/// Seeds chosen so trials (2*2*3 + 1*3 = 15) divide unevenly by 2 and 7.
std::vector<ExperimentSpec> ref_batch() {
  ExperimentSpec faults;
  faults.name = "ref-faults";
  faults.protocols = {"mw-abd(W2R2)", "fast-read-mw(W2R1)"};
  faults.clusters = {ClusterConfig{5, 2, 2, 1}};
  faults.fault_plans = {scenarios::single_crash(),
                        scenarios::minority_partition()};
  faults.seeds = 3;
  faults.workload.ops_per_writer = 4;
  faults.workload.ops_per_reader = 4;
  faults.check_streaming = true;

  ExperimentSpec keyed;
  keyed.name = "ref-keyspace";
  keyed.protocols = {"mw-abd(W2R2)"};
  keyed.clusters = {ClusterConfig{5, 4, 4, 1}};
  keyed.keyspaces = {KeyspaceConfig{8, 2, 0.99}};
  keyed.seeds = 3;
  keyed.workload.ops_per_writer = 4;
  keyed.workload.ops_per_reader = 4;
  keyed.check_streaming = true;

  return {faults, keyed};
}

/// Run the batch sharded N ways and return the encoded partials.
std::vector<Partial> shard_run(const std::vector<ExperimentSpec>& specs,
                               int count) {
  std::vector<Partial> partials;
  for (int i = 0; i < count; ++i) {
    Runner::Options o;
    o.threads = 1;
    o.shard = ShardSpec{i, count};
    Partial p;
    p.meta = make_partial_meta("ref", specs, o.shard);
    p.results = Runner(o).run_all(specs);
    // Round-trip through the wire format so every merge test also
    // exercises encode/decode bit-exactness.
    const std::vector<std::uint8_t> bytes = encode_partial(p.meta, p.results);
    Partial decoded;
    std::string err;
    EXPECT_TRUE(decode_partial(bytes.data(), bytes.size(), &decoded, &err))
        << err;
    partials.push_back(std::move(decoded));
  }
  return partials;
}

std::string report_pair(const std::vector<TrialResult>& results) {
  const std::vector<CellStats> cells = aggregate(results);
  return to_csv(cells) + "\x01" + to_json(cells);
}

// ---------- runner sharding ----------

TEST(ShardRunner, SlicesPartitionTheExpansion) {
  const std::vector<ExperimentSpec> specs = ref_batch();
  Runner::Options serial;
  serial.threads = 1;
  const std::vector<TrialResult> full = Runner(serial).run_all(specs);
  ASSERT_EQ(full.size(), 15u);
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].trial_index, i);  // unsharded indices are the identity
  }

  for (int count : {2, 3, 7}) {
    std::size_t seen = 0;
    for (int idx = 0; idx < count; ++idx) {
      Runner::Options o;
      o.threads = 1;
      o.shard = ShardSpec{idx, count};
      const std::vector<TrialResult> slice = Runner(o).run_all(specs);
      for (const TrialResult& tr : slice) {
        ASSERT_LT(tr.trial_index, full.size());
        EXPECT_EQ(tr.trial_index % static_cast<std::uint64_t>(count),
                  static_cast<std::uint64_t>(idx));
        const TrialResult& ref = full[tr.trial_index];
        // A shard's trial is bit-identical to the single-process trial:
        // RNG streams depend on the cell, never on slice composition.
        EXPECT_EQ(tr.harness_seed, ref.harness_seed);
        EXPECT_EQ(tr.write_ms, ref.write_ms);
        EXPECT_EQ(tr.read_ms, ref.read_ms);
        EXPECT_EQ(tr.msgs_sent, ref.msgs_sent);
        EXPECT_EQ(tr.stream_peak_window, ref.stream_peak_window);
      }
      seen += slice.size();
    }
    EXPECT_EQ(seen, full.size()) << count << " shards";
  }
}

TEST(ShardRunner, RejectsInvalidShardSpec) {
  Runner::Options o;
  o.shard = ShardSpec{3, 3};
  EXPECT_THROW((void)Runner(o).run_all(ref_batch()), std::invalid_argument);
  o.shard = ShardSpec{-1, 2};
  EXPECT_THROW((void)Runner(o).run_all(ref_batch()), std::invalid_argument);
  EXPECT_FALSE(ShardSpec({0, 0}).valid());
  EXPECT_TRUE(ShardSpec({0, 1}).valid());
  EXPECT_FALSE(ShardSpec({0, 1}).sharded());
  EXPECT_TRUE(ShardSpec({1, 2}).sharded());
}

TEST(ExpansionInfoTest, IdentifiesTheExpansion) {
  const std::vector<ExperimentSpec> specs = ref_batch();
  const ExpansionInfo a = expansion_info(specs);
  EXPECT_EQ(a.total_trials, 15u);
  EXPECT_EQ(a.digest, expansion_info(specs).digest);  // deterministic

  // Any knob that shapes results must shift the digest: merging a shard of
  // a different workload (or seed range) into this run must be refused.
  std::vector<ExperimentSpec> other = ref_batch();
  other[0].workload.ops_per_writer += 1;
  EXPECT_NE(expansion_info(other).digest, a.digest);
  other = ref_batch();
  other[1].seed_lo += 1;
  EXPECT_NE(expansion_info(other).digest, a.digest);
  other = ref_batch();
  other[0].check_streaming = false;
  EXPECT_NE(expansion_info(other).digest, a.digest);
}

// ---------- merge algebra ----------

TEST(ShardMerge, ByteIdenticalReportsAtShardCounts1_2_7) {
  const std::vector<ExperimentSpec> specs = ref_batch();
  Runner::Options serial;
  serial.threads = 1;
  const std::string golden = report_pair(Runner(serial).run_all(specs));

  for (int count : {1, 2, 7}) {  // 15 trials: uneven division at 2 and 7
    const std::vector<Partial> partials = shard_run(specs, count);
    std::vector<TrialResult> merged;
    std::string err;
    ASSERT_TRUE(merge_partials(partials, &merged, &err))
        << count << " shards: " << err;
    EXPECT_EQ(report_pair(merged), golden) << count << " shards";
  }
}

TEST(ShardMerge, MergeOrderCannotAffectTheReport) {
  const std::vector<ExperimentSpec> specs = ref_batch();
  Runner::Options serial;
  serial.threads = 1;
  const std::string golden = report_pair(Runner(serial).run_all(specs));

  std::vector<Partial> partials = shard_run(specs, 3);
  std::vector<int> order = {0, 1, 2};
  do {
    std::vector<Partial> permuted;
    for (int i : order) permuted.push_back(partials[static_cast<std::size_t>(i)]);
    std::vector<TrialResult> merged;
    std::string err;
    ASSERT_TRUE(merge_partials(permuted, &merged, &err)) << err;
    EXPECT_EQ(report_pair(merged), golden)
        << "order " << order[0] << order[1] << order[2];
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(ShardMerge, MoreShardsThanTrialsLeavesEmptyShards) {
  // 3 trials across 7 shards: shards 3..6 run nothing and say so; the
  // merge of all seven is still exact.
  ExperimentSpec tiny;
  tiny.name = "tiny";
  tiny.protocols = {"mw-abd(W2R2)"};
  tiny.clusters = {ClusterConfig{5, 2, 2, 1}};
  tiny.seeds = 3;
  tiny.workload.ops_per_writer = 3;
  tiny.workload.ops_per_reader = 3;
  const std::vector<ExperimentSpec> specs = {tiny};

  Runner::Options serial;
  serial.threads = 1;
  const std::string golden = report_pair(Runner(serial).run_all(specs));

  const std::vector<Partial> partials = shard_run(specs, 7);
  int empty = 0;
  for (const Partial& p : partials) empty += p.results.empty();
  EXPECT_EQ(empty, 4);

  std::vector<TrialResult> merged;
  std::string err;
  ASSERT_TRUE(merge_partials(partials, &merged, &err)) << err;
  EXPECT_EQ(report_pair(merged), golden);
}

TEST(ShardMerge, RefusesIncompleteDuplicateOrForeignShards) {
  const std::vector<ExperimentSpec> specs = ref_batch();
  std::vector<Partial> partials = shard_run(specs, 3);
  std::vector<TrialResult> merged;
  std::string err;

  // A missing shard must not quietly render a thinner report.
  ASSERT_TRUE(merge_partials({partials[0], partials[2]}, &merged, &err) ==
              false);
  EXPECT_NE(err.find("missing"), std::string::npos) << err;

  // The same shard twice claims its trial indices twice.
  EXPECT_FALSE(
      merge_partials({partials[0], partials[0], partials[1], partials[2]},
                     &merged, &err));
  EXPECT_NE(err.find("more than one partial"), std::string::npos) << err;

  // A shard of a DIFFERENT expansion (changed workload) must be refused
  // even though its name and trial count line up.
  std::vector<ExperimentSpec> other = ref_batch();
  other[0].workload.ops_per_writer += 1;
  std::vector<Partial> foreign = shard_run(other, 3);
  EXPECT_FALSE(merge_partials({partials[0], foreign[1], partials[2]}, &merged,
                              &err));
  EXPECT_NE(err.find("different expansions"), std::string::npos) << err;

  // Mixed report names are two different artifacts, not one merge.
  Partial renamed = partials[1];
  renamed.meta.name = "something-else";
  EXPECT_FALSE(
      merge_partials({partials[0], renamed, partials[2]}, &merged, &err));
  EXPECT_NE(err.find("name"), std::string::npos) << err;

  // A trial index one past the expansion has no slot to land in.
  Partial stray = partials[1];
  ASSERT_FALSE(stray.results.empty());
  stray.results.front().trial_index = stray.meta.total_trials;
  EXPECT_FALSE(
      merge_partials({partials[0], stray, partials[2]}, &merged, &err));
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;

  EXPECT_FALSE(merge_partials({}, &merged, &err));
}

TEST(ShardMerge, HostileTrialTotalIsRefusedBeforeAnyAllocation) {
  // Every partial claims more trials than a vector can hold; sizing the
  // merge by that claim would throw std::length_error. The records present
  // fall short of it, so the merge refuses first, allocating nothing.
  std::vector<Partial> partials = shard_run(ref_batch(), 2);
  const std::uint64_t claim =
      static_cast<std::uint64_t>(std::vector<TrialResult>().max_size()) + 1;
  for (Partial& p : partials) p.meta.total_trials = claim;
  std::vector<TrialResult> merged;
  std::string err;
  EXPECT_FALSE(merge_partials(partials, &merged, &err));
  EXPECT_NE(err.find("missing"), std::string::npos) << err;
  EXPECT_NE(err.find(std::to_string(claim)), std::string::npos) << err;
  EXPECT_TRUE(merged.empty());
}

// ---------- artifact robustness ----------

TEST(PartialCodec, RoundTripsBitExactly) {
  const std::vector<ExperimentSpec> specs = ref_batch();
  Runner::Options o;
  o.threads = 1;
  o.shard = ShardSpec{1, 2};
  const std::vector<TrialResult> slice = Runner(o).run_all(specs);
  const PartialMeta meta = make_partial_meta("ref", specs, o.shard);
  const std::vector<std::uint8_t> bytes = encode_partial(meta, slice);

  Partial p;
  std::string err;
  ASSERT_TRUE(decode_partial(bytes.data(), bytes.size(), &p, &err)) << err;
  EXPECT_EQ(p.meta.name, "ref");
  EXPECT_EQ(p.meta.shard.index, 1);
  EXPECT_EQ(p.meta.shard.count, 2);
  EXPECT_EQ(p.meta.total_trials, 15u);
  EXPECT_EQ(p.meta.expansion_digest, expansion_info(specs).digest);
  ASSERT_EQ(p.results.size(), slice.size());
  for (std::size_t i = 0; i < slice.size(); ++i) {
    const TrialResult& a = slice[i];
    const TrialResult& b = p.results[i];
    EXPECT_EQ(a.trial_index, b.trial_index);
    EXPECT_EQ(a.spec_name, b.spec_name);
    EXPECT_EQ(a.protocol, b.protocol);
    EXPECT_EQ(a.fault_plan, b.fault_plan);
    EXPECT_EQ(a.keyspace.num_keys, b.keyspace.num_keys);
    EXPECT_EQ(a.keyspace.zipf_s, b.keyspace.zipf_s);
    EXPECT_EQ(a.harness_seed, b.harness_seed);
    EXPECT_EQ(a.write_ms, b.write_ms);  // bit-exact doubles
    EXPECT_EQ(a.read_ms, b.read_ms);
    EXPECT_EQ(a.stream_peak_window, b.stream_peak_window);
    EXPECT_EQ(a.recovery_ms, b.recovery_ms);
    EXPECT_EQ(a.violation, b.violation);
  }
}

TEST(PartialCodec, RefusesTruncationAtEveryPrefixLength) {
  ExperimentSpec tiny;
  tiny.name = "tiny";
  tiny.protocols = {"mw-abd(W2R2)"};
  tiny.clusters = {ClusterConfig{5, 2, 2, 1}};
  tiny.seeds = 1;
  tiny.workload.ops_per_writer = 2;
  tiny.workload.ops_per_reader = 2;
  Runner::Options o;
  o.threads = 1;
  const std::vector<TrialResult> rs = Runner(o).run_all({tiny});
  const std::vector<std::uint8_t> bytes =
      encode_partial(make_partial_meta("t", {tiny}, ShardSpec{}), rs);

  Partial p;
  std::string err;
  ASSERT_TRUE(decode_partial(bytes.data(), bytes.size(), &p, &err)) << err;
  // EVERY strict prefix must be refused — truncation can never pass, no
  // matter where the file was cut.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(decode_partial(bytes.data(), len, &p, &err))
        << "prefix of " << len << " bytes decoded";
  }
  // ...and so must trailing garbage.
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(decode_partial(padded.data(), padded.size(), &p, &err));
  EXPECT_NE(err.find("trailing"), std::string::npos) << err;
}

TEST(PartialCodec, RefusesBadMagicVersionOrShard) {
  const std::vector<ExperimentSpec> specs = ref_batch();
  Runner::Options o;
  o.threads = 1;
  o.shard = ShardSpec{0, 3};
  const std::vector<std::uint8_t> bytes = encode_partial(
      make_partial_meta("ref", specs, o.shard), Runner(o).run_all(specs));

  Partial p;
  std::string err;
  std::vector<std::uint8_t> bad = bytes;
  bad[0] = 'X';
  EXPECT_FALSE(decode_partial(bad.data(), bad.size(), &p, &err));
  EXPECT_NE(err.find("magic"), std::string::npos) << err;

  // Byte 4 is the version varint (kPartialVersion is small). A future
  // version must be refused with a message that names both versions, not
  // misparsed as today's layout.
  bad = bytes;
  ASSERT_EQ(bad[4], kPartialVersion);
  bad[4] = kPartialVersion + 1;
  EXPECT_FALSE(decode_partial(bad.data(), bad.size(), &p, &err));
  EXPECT_NE(err.find("version mismatch"), std::string::npos) << err;

  // A header whose shard index is not below its count names no slice.
  bad = encode_partial(make_partial_meta("ref", specs, ShardSpec{3, 3}), {});
  EXPECT_FALSE(decode_partial(bad.data(), bad.size(), &p, &err));
  EXPECT_NE(err.find("invalid shard"), std::string::npos) << err;
}

TEST(PartialCodec, HostileSampleCountCannotForceOversizedReserve) {
  // Craft a header claiming one trial, then hand the trial record a huge
  // varint where the write_ms sample count lives. ByteReader::get_count
  // caps the prefix by remaining(), so the decoder must fail cleanly (no
  // multi-GB reserve) — the PR 3 get_vector lesson applied to partials.
  ByteWriter w;
  for (std::uint8_t b : {'M', 'W', 'S', 'P'}) w.put_u8(b);
  w.put_varint(kPartialVersion);
  w.put_string("evil");
  w.put_signed(0);      // shard index
  w.put_signed(1);      // shard count
  w.put_varint(1);      // total trials
  w.put_varint(0x123);  // expansion digest
  w.put_varint(1);      // one trial record...
  w.put_varint(0);      // trial_index
  w.put_signed(0);      // spec_index
  w.put_signed(0);      // cell_index
  w.put_string("s");
  w.put_string("p");
  for (int i = 0; i < 7; ++i) w.put_signed(1);  // cluster fields
  w.put_string("");                             // fault plan
  w.put_signed(0);                              // keyspace num_keys
  w.put_signed(1);                              // keyspace shards
  for (int i = 0; i < 8; ++i) w.put_u8(0);      // zipf_s
  w.put_varint(1);                              // user_seed
  w.put_varint(2);                              // harness_seed
  for (int i = 0; i < 4; ++i) w.put_bool(true); // verdict bools
  w.put_varint(0);                              // stream_peak_window
  w.put_string("");                             // violation
  w.put_varint(0xFFFFFFFFFFFFULL);              // write_ms count: hostile
  const std::vector<std::uint8_t> bytes = w.take();

  Partial p;
  std::string err;
  EXPECT_FALSE(decode_partial(bytes.data(), bytes.size(), &p, &err));
  EXPECT_NE(err.find("truncated"), std::string::npos) << err;
}

TEST(PartialCodec, FileRoundTripAndMissingFile) {
  ExperimentSpec tiny;
  tiny.name = "tiny";
  tiny.protocols = {"mw-abd(W2R2)"};
  tiny.clusters = {ClusterConfig{5, 2, 2, 1}};
  tiny.seeds = 2;
  tiny.workload.ops_per_writer = 2;
  tiny.workload.ops_per_reader = 2;
  Runner::Options o;
  o.threads = 1;
  const std::vector<TrialResult> rs = Runner(o).run_all({tiny});
  const PartialMeta meta = make_partial_meta("tiny", {tiny}, ShardSpec{});

  const std::string path = "shard_merge_test.roundtrip.partial";
  std::string err;
  ASSERT_TRUE(save_partial(path, meta, rs, &err)) << err;
  Partial p;
  ASSERT_TRUE(load_partial(path, &p, &err)) << err;
  EXPECT_EQ(p.results.size(), rs.size());
  EXPECT_EQ(p.meta.expansion_digest, meta.expansion_digest);
  std::remove(path.c_str());

  EXPECT_FALSE(load_partial("no/such/dir/x.partial", &p, &err));
  EXPECT_NE(err.find("x.partial"), std::string::npos) << err;
}

// ---------- sweep CLI parser ----------

TEST(SweepCliParser, ParsesSharedFlags) {
  const char* argv[] = {"prog", "--threads", "8",     "--shard", "2/7",
                        "--out", "reports",   "extra", "--describe"};
  SweepCli cli;
  std::string err;
  ASSERT_TRUE(parse_sweep_cli(9, const_cast<char**>(argv), &cli, &err)) << err;
  EXPECT_EQ(cli.threads, 8);
  EXPECT_EQ(cli.shard.index, 2);
  EXPECT_EQ(cli.shard.count, 7);
  EXPECT_EQ(cli.out_dir, "reports");
  ASSERT_EQ(cli.extra.size(), 2u);
  EXPECT_EQ(cli.extra[0], "extra");
  EXPECT_EQ(cli.extra[1], "--describe");
}

TEST(SweepCliParser, RejectsWhatAtoiWouldSwallow) {
  // std::atoi("garbage") == 0 was sweep_explorer's old argv handling; the
  // parser must hard-fail every one of these instead.
  for (const char* bad : {"garbage", "3x", "", "2.5", "-1",
                          "99999999999999999999"}) {
    const char* argv[] = {"prog", "--threads", bad};
    SweepCli cli;
    std::string err;
    EXPECT_FALSE(parse_sweep_cli(3, const_cast<char**>(argv), &cli, &err))
        << "'" << bad << "' parsed";
    EXPECT_FALSE(err.empty());
  }
  for (const char* bad :
       {"2", "a/b", "3/3", "-1/2", "2/", "/3", "1/0", "1/2/3"}) {
    const char* argv[] = {"prog", "--shard", bad};
    SweepCli cli;
    std::string err;
    EXPECT_FALSE(parse_sweep_cli(3, const_cast<char**>(argv), &cli, &err))
        << "'" << bad << "' parsed";
  }
  // A flag missing its value is an error, not a silent default.
  const char* argv[] = {"prog", "--out"};
  SweepCli cli;
  std::string err;
  EXPECT_FALSE(parse_sweep_cli(2, const_cast<char**>(argv), &cli, &err));
}

TEST(SweepCliParser, ThreadCountAboveTheCeilingIsRefused) {
  // The parser alone: no Runner is built, so no thread starts.
  const std::string ceiling = std::to_string(kMaxSweepThreads);
  {
    const char* argv[] = {"prog", "--threads", ceiling.c_str()};
    SweepCli cli;
    std::string err;
    ASSERT_TRUE(parse_sweep_cli(3, const_cast<char**>(argv), &cli, &err))
        << err;
    EXPECT_EQ(cli.threads, kMaxSweepThreads);
  }
  for (const std::string& bad :
       {std::to_string(kMaxSweepThreads + 1), std::string("1000000")}) {
    const char* argv[] = {"prog", "--threads", bad.c_str()};
    SweepCli cli;
    std::string err;
    EXPECT_FALSE(parse_sweep_cli(3, const_cast<char**>(argv), &cli, &err))
        << "'" << bad << "' parsed";
    EXPECT_NE(err.find(ceiling), std::string::npos) << err;
  }
}

TEST(SweepCliParser, HelpersComposePathsAndFilenames) {
  int v = 0;
  EXPECT_TRUE(parse_int("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_FALSE(parse_int("42 ", &v));
  ShardSpec s;
  EXPECT_TRUE(parse_shard("0/1", &s));
  EXPECT_FALSE(s.sharded());
  EXPECT_EQ(join_path(".", "a.csv"), "a.csv");
  EXPECT_EQ(join_path("dir", "a.csv"), "dir/a.csv");
  EXPECT_EQ(join_path("dir/", "a.csv"), "dir/a.csv");
  EXPECT_EQ(partial_filename("ref_sweep", ShardSpec{2, 7}),
            "ref_sweep.shard2of7.partial");
}

}  // namespace
}  // namespace mwreg::exp
