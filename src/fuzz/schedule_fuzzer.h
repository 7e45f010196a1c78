// Schedule fuzzing: randomized exploration of message schedules and fault
// patterns, with every produced history machine-checked.
//
// Each trial runs a random closed-loop workload under a heavy-tailed delay
// model, while an adversary thread of events randomly blocks/unblocks
// client-server links (within the failure budget: at most t servers are cut
// from any client at a time) and optionally crashes up to t servers. This
// explores delivery-order interleavings far beyond what fixed-seed tests
// reach -- the cheap, honest cousin of a full schedule model checker.
#pragma once

#include <cstdint>
#include <string>

#include "common/cluster.h"

namespace mwreg::fuzz {

struct FuzzOptions {
  std::string protocol = "mw-abd(W2R2)";
  ClusterConfig cfg{5, 2, 2, 2};
  int trials = 50;
  int ops_per_client = 8;
  /// Probability that a trial crashes exactly t random servers mid-run.
  double crash_probability = 0.3;
  /// Number of random block/unblock adversary events per trial.
  int link_flaps = 20;
  std::uint64_t seed = 1;
  /// Expected guarantee: "atomic", "regular" or "safe".
  std::string expect = "atomic";
};

struct FuzzReport {
  int trials = 0;
  int passed = 0;
  int violations = 0;
  std::uint64_t total_ops = 0;
  std::uint64_t pending_ops = 0;  ///< ops stalled by fault injection (allowed)
  std::string first_violation;    ///< history + verdict of the first failure
};

FuzzReport run_schedule_fuzzer(const FuzzOptions& opts);

/// Engine-parity soak: replays every fuzzed schedule — same harness seed,
/// same link-flap plan, same workload, optionally a mid-run crash — under
/// both delivery engines and cross-checks them:
///   A. per-message (coalesce off): the live reference;
///   B. batched, frame-order drain (coalesce on).
/// A and B must be digest-identical on EVERY trial, crashes included: the
/// workload schedules its crash as a simulator event, and the network
/// refuses fault mutations from inside a drain, so fault state never
/// changes under a dispatched run.
///
/// Both lanes additionally run the streaming tag-witness checker LIVE
/// (subscribed to the lane's history) — the streaming verdict lane: its
/// finish() verdict must equal the lane's batch check_tag_witness verdict
/// on every trial, crashed or not (stream_verdict_parity).
struct ParityOptions {
  std::string protocol = "mw-abd(W2R2)";
  ClusterConfig cfg{5, 2, 2, 2};
  int trials = 20;
  int ops_per_client = 6;
  double crash_probability = 0.3;
  int link_flaps = 20;
  std::uint64_t seed = 1;
  /// Delivery-time quantum shared by both lanes, and the grid the link
  /// flaps land on. Coarse against the 3 ms median delay, so most ticks
  /// have company: lane B runs lone frames, multi-frame batches and
  /// flap-split batches (mid-batch yields) on every suite.
  Duration tick = kMillisecond;
};

struct ParityReport {
  int trials = 0;
  int crash_trials = 0;
  /// Trials where the per-message and frame-order digests matched
  /// (must equal trials).
  int frame_order_exact = 0;
  /// Trials where every lane's LIVE streaming verdict equaled that lane's
  /// batch tag-witness verdict (must equal trials).
  int stream_verdict_parity = 0;
  /// Lane B's coalescing counters summed over every trial: lone frames,
  /// batches and mid-batch yields. All three > 0 shows the soak covered
  /// both batched-lane delivery paths and the drain's yield.
  std::uint64_t lone = 0;
  std::uint64_t batches = 0;
  std::uint64_t continuations = 0;
  int mismatches = 0;
  std::string first_mismatch;
};

ParityReport run_engine_parity_fuzzer(const ParityOptions& opts);

}  // namespace mwreg::fuzz
