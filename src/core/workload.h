// Closed-loop random workloads and latency accounting over histories.
#pragma once

#include <cstdint>
#include <string>

#include "core/harness.h"

namespace mwreg {

struct WorkloadOptions {
  int ops_per_writer = 10;
  int ops_per_reader = 10;
  /// Uniform think time between a client's operations.
  Duration think_lo = 0;
  Duration think_hi = 5 * kMillisecond;
  /// Crash this many random servers once `crash_after_ops` operations
  /// completed cluster-wide (0 = never crash). Must lie in [0, S]:
  /// run_random_workload throws std::invalid_argument otherwise.
  int crash_servers = 0;
  int crash_after_ops = 0;
};

/// THE closed-loop driver: every writer and reader runs ops back to back
/// with a uniform think time until its count is done; runs the simulator to
/// quiescence. On a multi-key harness writers pick a Zipfian key per op and
/// readers read their affine key (reader-affine protocols) or a Zipfian
/// key; a one-key harness draws no key. The crash options apply to every
/// harness (a multi-key one loses shard 0's servers). Callable repeatedly
/// on one harness, so steady-state probes can reuse a warm table.
void run_random_workload(SimHarness& h, const WorkloadOptions& opts);

/// Forwards to run_random_workload; kept for benchmark/driver/soaks.cpp.
void run_keyspace_workload(SimHarness& h, const WorkloadOptions& opts);

/// Latency summary extracted from a history.
struct LatencyStats {
  std::size_t count = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
};

/// Latencies (ms, virtual time) of every completed op of `kind`, in
/// history order.
std::vector<double> latency_samples_ms(const History& h, OpKind kind);

/// THE latency summary over raw samples: mean, interpolated p50/p99 over
/// the sorted distribution, max. The single implementation behind both
/// latency_of and the experiment Aggregator (exp::summarize_latency
/// forwards here), so bench output and aggregator reports agree on the
/// same samples.
LatencyStats summarize_latency(std::vector<double> samples_ms);

LatencyStats latency_of(const History& h, OpKind kind);

std::string to_string(const LatencyStats& s);

/// Availability accounting of one trial against an executed fault plan.
struct FaultMetrics {
  int faults_injected = 0;
  /// Ops that completed inside the disruption window
  /// [disruption_start, heal_time] (open-ended when never healed).
  std::size_t ops_under_fault = 0;
  /// Time from the heal to the first completion after it, in ms;
  /// -1 when the plan never healed or nothing completed afterwards.
  double recovery_ms = -1;
};

FaultMetrics compute_fault_metrics(const History& h, const FaultPlanLog& log);

}  // namespace mwreg
