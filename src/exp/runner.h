// Runner: expands ExperimentSpecs into trials and executes them on a
// std::thread pool.
//
// Determinism contract: a trial's result depends only on (spec, user seed,
// protocol, cluster) — never on the thread that ran it, the completion
// order of sibling trials, or where the cell sits in a run_all() batch.
// Results come back indexed by the trial's position in the deterministic
// expansion order (spec-major, then protocol, cluster, seed), so the same
// spec list produces byte-identical aggregates at any thread count, and a
// single cell re-run alone reproduces its batch numbers.
// tests/exp_runner_test.cpp enforces this.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/spec.h"

namespace mwreg::exp {

/// Outcome of one (protocol, cluster, fault plan, seed) simulation.
struct TrialResult {
  /// Position in the Runner's deterministic expansion order across the
  /// whole run()/run_all() batch. Under a ShardSpec only the shard's own
  /// slots are executed, and this index is what lets merge_partials()
  /// (exp/partial.h) put every trial back where the single-process run
  /// would have produced it.
  std::uint64_t trial_index = 0;
  int spec_index = 0;   ///< which spec in the run() batch
  int cell_index = 0;   ///< global cell ordinal across the batch
  std::string spec_name;
  std::string protocol;
  ClusterConfig cfg;
  std::string fault_plan;          ///< plan name; "" = fault-free
  /// Keyspace point (num_keys == 0 on classic single-register trials).
  KeyspaceConfig keyspace;
  std::uint64_t user_seed = 0;     ///< seed_lo + k, as reported to humans
  std::uint64_t harness_seed = 0;  ///< derive_seed(user_seed, cell_digest)

  bool expected_atomic = false;  ///< Protocol::guarantees_atomicity(cfg)
  bool tag_atomic = false;       ///< check_tag_witness verdict
  bool graph_atomic = true;      ///< check_unique_value_graph (if enabled)
  bool stream_atomic = true;     ///< live streaming checker (if enabled)
  /// Peak streaming-checker window occupancy across the trial's keys
  /// (0 when streaming is disabled).
  std::size_t stream_peak_window = 0;
  std::string violation;         ///< first checker violation, if any

  /// Raw per-operation latencies (ms, virtual time), kept so the
  /// Aggregator can pool exact percentiles across trials.
  std::vector<double> write_ms;
  std::vector<double> read_ms;

  std::size_t completed_ops = 0;
  std::uint64_t msgs_sent = 0;
  std::size_t sim_events = 0;

  /// Availability under the trial's fault plan (zeros / -1 when fault-free;
  /// see FaultMetrics in core/workload.h).
  int faults_injected = 0;
  std::size_t ops_under_fault = 0;
  double recovery_ms = -1;

  /// Atomic as far as the enabled checkers can tell.
  [[nodiscard]] bool atomic() const {
    return tag_atomic && graph_atomic && stream_atomic;
  }
};

/// Deterministic trial slice for multi-process sweeps: a process with
/// shard {i, N} executes exactly the trials whose expansion-order index
/// satisfies index % N == i. Because a trial's RNG stream is
/// derive_seed(user_seed, cell_digest) — a function of what the cell IS,
/// never of which process runs it — the union of all N shards is
/// bit-identical to the single-process run (see exp/partial.h for the
/// merge half).
struct ShardSpec {
  int index = 0;
  int count = 1;

  [[nodiscard]] bool sharded() const { return count > 1; }
  [[nodiscard]] bool valid() const {
    return count >= 1 && index >= 0 && index < count;
  }
  [[nodiscard]] std::string to_string() const {
    return std::to_string(index) + "/" + std::to_string(count);
  }
};

class Runner {
 public:
  struct Options {
    /// Worker threads; 0 means std::thread::hardware_concurrency()
    /// (at least 1). 1 runs everything inline on the calling thread.
    int threads = 0;
    /// Trial slice this process owns. The default {0, 1} runs everything.
    ShardSpec shard;
  };

  Runner() : Runner(Options{}) {}
  explicit Runner(Options opts);

  /// Run this shard's slice of `spec`'s trials. Throws
  /// std::invalid_argument when spec.validate() fails or the shard spec is
  /// malformed. Results are in expansion order; under a real shard
  /// ({i, N>1}) only the slice's trials are returned (still ordered), each
  /// carrying its global TrialResult::trial_index.
  [[nodiscard]] std::vector<TrialResult> run(const ExperimentSpec& spec) const;

  /// Run a batch of specs as one trial pool (better load balancing than
  /// sequential run() calls when specs are skewed). Sharding slices the
  /// batch-wide expansion order.
  [[nodiscard]] std::vector<TrialResult> run_all(
      const std::vector<ExperimentSpec>& specs) const;

 private:
  Options opts_;
};

/// Identity of a spec batch's full expansion, independent of sharding.
struct ExpansionInfo {
  std::uint64_t total_trials = 0;
  /// Digest over every trial's harness seed plus the workload/engine knobs
  /// that shape results. Two shards may only be merged when their digests
  /// agree: equal digests mean the shards executed slices of the same
  /// expansion, so the merged report is the single-process report.
  std::uint64_t digest = 0;
};

/// Compute the expansion identity of a batch (any shard can: expansion is
/// a pure function of the specs). Throws std::invalid_argument on an
/// invalid spec, like Runner::run_all.
ExpansionInfo expansion_info(const std::vector<ExperimentSpec>& specs);

/// Execute a single trial inline (no threads). The Runner is implemented on
/// top of this; exposed for tests and for callers that need one history.
/// `plan` selects the trial's fault plan (null = fault-free).
TrialResult run_trial(const ExperimentSpec& spec, int spec_index,
                      int cell_index, const std::string& protocol,
                      const ClusterConfig& cfg, std::uint64_t user_seed,
                      const FaultPlan* plan = nullptr,
                      const KeyspaceConfig* keyspace = nullptr);

/// Stable identity of a cell, used as the derive_seed stream: depends only
/// on the protocol name, cluster shape, and fault plan, so re-running one
/// cell alone reproduces its numbers from any batch. The two-argument form
/// is the fault-free cell (identical to its pre-fault-axis value).
std::uint64_t cell_digest(const std::string& protocol,
                          const ClusterConfig& cfg);
std::uint64_t cell_digest(const std::string& protocol,
                          const ClusterConfig& cfg, const FaultPlan& plan);
/// All-axes form. Single-register keyspaces (num_keys <= 1) do not change
/// the digest — a 1-key cell reuses its classic seeds, so its results match
/// the classic layout's bit for bit.
std::uint64_t cell_digest(const std::string& protocol,
                          const ClusterConfig& cfg, const FaultPlan* plan,
                          const KeyspaceConfig& keyspace);

}  // namespace mwreg::exp
