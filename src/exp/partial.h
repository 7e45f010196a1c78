// Partial-aggregate artifacts: the merge half of the process-sharded
// sweep fleet.
//
// A shard process (Runner with ShardSpec {i, N}) executes the trial slice
// index % N == i of a spec batch's expansion order and serializes its
// TrialResults — per-cell metadata, counters, AND the raw latency sample
// pools (the Aggregator computes exact pooled percentiles, so partials
// must carry samples, not summaries) — into a versioned binary artifact.
// merge_partials() folds any complete set of such artifacts, in any order,
// back into the full expansion-order result vector: every trial returns to
// its TrialResult::trial_index slot, so aggregate() + to_csv()/to_json()
// render reports bit-for-bit identical to the single-process run at any
// shard count.
//
// Why that works: a trial's RNG stream is derive_seed(user_seed,
// cell_digest) — a function of the cell identity alone — so shard
// composition cannot affect any trial's bytes, and slot-indexed merging
// restores the exact expansion order the Aggregator's float accumulation
// depends on (DESIGN.md §11).
//
// The decoder refuses, with a clear error, anything it cannot prove whole:
// wrong magic, version mismatch, truncation, counts that overrun the
// buffer (ByteReader::get_count caps length prefixes by the bytes actually
// remaining — the PR 3 lesson), or trailing garbage.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.h"

namespace mwreg::exp {

/// Bumped whenever the encoding below or the expansion digest's recipe
/// changes (v2: the table-clients flag left the digest). Readers refuse any
/// other version outright: a partial is an intermediate artifact consumed
/// by the merge step of the same build, not a compatibility surface.
inline constexpr std::uint32_t kPartialVersion = 2;

/// Artifact identity: which report, which slice, and which expansion.
struct PartialMeta {
  /// Report stem the merged cells will be written under (e.g. "ref_sweep"
  /// for ref_sweep.csv / ref_sweep.json). Merging refuses mixed names.
  std::string name;
  ShardSpec shard;
  /// Full expansion size — every shard of one run agrees on it.
  std::uint64_t total_trials = 0;
  /// expansion_info(specs).digest of the spec batch. Merging refuses
  /// partials whose digests differ: equal digests mean the shards sliced
  /// the same expansion, so their union IS the single-process run.
  std::uint64_t expansion_digest = 0;
};

/// A decoded partial: the shard's trials, each carrying its global
/// TrialResult::trial_index.
struct Partial {
  PartialMeta meta;
  std::vector<TrialResult> results;
};

/// Convenience: the meta a shard should stamp on its artifact.
PartialMeta make_partial_meta(const std::string& name,
                              const std::vector<ExperimentSpec>& specs,
                              const ShardSpec& shard);

/// Serialize one shard's results (as returned by a sharded Runner::run_all)
/// into the versioned binary artifact.
std::vector<std::uint8_t> encode_partial(const PartialMeta& meta,
                                         const std::vector<TrialResult>& results);

/// Decode an artifact. Returns false and fills *error (never throws) on
/// wrong magic, version mismatch, truncation, oversized counts, or
/// trailing bytes; *out is only valid on success.
bool decode_partial(const std::uint8_t* data, std::size_t size, Partial* out,
                    std::string* error);

/// File round-trip helpers. save_partial writes atomically enough for CI
/// (single write) and fails loudly; load_partial reads the whole file and
/// decodes it.
bool save_partial(const std::string& path, const PartialMeta& meta,
                  const std::vector<TrialResult>& results, std::string* error);
bool load_partial(const std::string& path, Partial* out, std::string* error);

/// Fold a complete shard set back into the full expansion-order result
/// vector. Accepts the partials in ANY order (slot-indexed placement
/// restores expansion order) and at any shard count. Returns false with
/// *error on: empty input, meta disagreement (name / total / expansion
/// digest), a trial index out of range or claimed twice, or missing trials
/// (an incomplete shard set must not quietly render a thinner report).
bool merge_partials(const std::vector<Partial>& partials,
                    std::vector<TrialResult>* out, std::string* error);

}  // namespace mwreg::exp
