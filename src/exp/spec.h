// ExperimentSpec: a declarative description of a protocol sweep.
//
// A spec is the cross product
//   protocols x clusters x fault_plans x seeds(count, starting at seed_lo)
// run under one delay model and one workload shape. The Runner (runner.h)
// expands it into independent trials and fans them out across a thread
// pool; the Aggregator (aggregator.h) folds per-trial results back into
// per-cell rows. Benches and examples should construct specs instead of
// hand-rolling SimHarness loops: a new experiment is then one spec literal.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cluster.h"
#include "core/keyspace.h"
#include "core/workload.h"
#include "sim/delay_model.h"
#include "sim/fault_plan.h"

namespace mwreg::exp {

/// Builds a fresh DelayModel for one trial. Called once per trial (delay
/// models are stateless but not shareable across concurrent harnesses).
/// A null factory means the SimHarness default (uniform 1..10ms).
using DelayFactory =
    std::function<std::unique_ptr<DelayModel>(const ClusterConfig&)>;

/// Convenience factories for the common models.
DelayFactory constant_delay(Duration delay);
DelayFactory uniform_delay(Duration lo, Duration hi);
DelayFactory lognormal_delay(Duration median, double sigma);

struct ExperimentSpec {
  /// Label carried into reports; not interpreted.
  std::string name;

  /// Protocol names resolved via protocol_by_name(). Unknown names are a
  /// spec validation error (Runner::run asserts via validate()).
  std::vector<std::string> protocols;

  /// Cluster grid. Cells where cfg.valid() is false are rejected by
  /// validate(); cells where the protocol is not expected to be atomic are
  /// still run (that is often the point — see Table 1).
  std::vector<ClusterConfig> clusters;

  /// Fault scenario axis: every plan is crossed with every
  /// (protocol, cluster) pair. Empty means one fault-free run per pair.
  /// Plans must have distinct non-empty names (they key reports and RNG
  /// streams); see scenarios::all() for the canned library.
  std::vector<FaultPlan> fault_plans;

  /// Seed range: trials use user seeds seed_lo, seed_lo+1, ...,
  /// seed_lo+seeds-1. The harness seed for a trial is
  /// derive_seed(user_seed, cell_digest(protocol, cluster, plan)) so
  /// distinct cells never share RNG streams even at equal user seeds, yet a
  /// cell's results do not depend on its position in the spec or batch.
  std::uint64_t seed_lo = 1;
  int seeds = 1;

  /// One delay model shape for every trial (null = harness default).
  DelayFactory delay;

  /// Closed-loop workload driven against every trial harness.
  WorkloadOptions workload;

  /// Keyspace axis: every entry is crossed with every
  /// (protocol, cluster, plan) triple. Empty means one classic
  /// single-register run per triple. Every trial runs the one closed-loop
  /// driver (run_random_workload), which picks Zipfian keys on multi-key
  /// entries (num_keys > 1); those are incompatible with fault_plans, and
  /// every per-key history is checked.
  std::vector<KeyspaceConfig> keyspaces;

  /// Ignored; kept only because benchmark/driver/sweeps.cpp assigns it.
  bool table_clients = false;

  /// FIFO per-link delivery (SimHarness::Options::fifo).
  bool fifo = false;

  /// Batched delivery (SimHarness::Options::coalesce / tick). Observably
  /// identical to the per-message engine — these are deliberately NOT part
  /// of cell_digest, so flipping them reproduces the same harness seeds and
  /// bit-identical results. Batched is the default; per-message is the
  /// registered ablation.
  bool coalesce = true;
  Duration tick = 1;
  /// Ignored; kept only because benchmark/driver/sweeps.cpp reads it.
  bool dest_major = true;

  /// Also run the O(n^2) exact unique-value-graph checker per trial (the
  /// O(n log n) tag-witness checker always runs).
  bool check_graph = false;

  /// Also run the streaming tag-witness checker LIVE during every trial
  /// (SimHarness::Options::streaming_check): atomicity is judged as
  /// operations complete, in window-bounded memory, and the trial reports
  /// the peak window occupancy ("checked soak" columns). Like the engine
  /// knobs above this is deliberately NOT part of cell_digest — a checked
  /// trial reproduces the unchecked trial's seeds and history bit for bit.
  bool check_streaming = false;

  /// One fault-free plan when fault_plans is empty.
  [[nodiscard]] int plans() const {
    return fault_plans.empty() ? 1 : static_cast<int>(fault_plans.size());
  }
  /// One classic single-register point when keyspaces is empty.
  [[nodiscard]] int keyspace_points() const {
    return keyspaces.empty() ? 1 : static_cast<int>(keyspaces.size());
  }
  [[nodiscard]] int cells() const {
    return static_cast<int>(protocols.size() * clusters.size()) * plans() *
           keyspace_points();
  }
  [[nodiscard]] int trials() const { return cells() * seeds; }

  /// Empty string when well-formed, else a human-readable reason
  /// (unknown protocol, invalid cluster, non-positive seed count, ...).
  [[nodiscard]] std::string validate() const;
};

}  // namespace mwreg::exp
