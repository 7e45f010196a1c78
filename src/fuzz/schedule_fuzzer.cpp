#include "fuzz/schedule_fuzzer.h"

#include <memory>
#include <vector>

#include "consistency/checkers.h"
#include "consistency/weak_checkers.h"
#include "core/harness.h"
#include "core/workload.h"
#include "protocols/protocols.h"

namespace mwreg::fuzz {
namespace {

/// Run `step` at `at`. With `lead` > 0 an arming event `lead` earlier
/// schedules it, so the step's sequence falls among those of the frames
/// already in flight to `at`.
template <typename Step>
void schedule_step(SimHarness& h, Time at, Duration lead, Step step) {
  if (lead == 0) {
    h.sim().schedule_at(at, std::move(step));
    return;
  }
  h.sim().schedule_at(at - lead, [&h, at, step]() {
    h.sim().schedule_at(at, step);
  });
}

/// Temporarily cut one random server off from one random client, honoring
/// the budget: per client at most t servers blocked at a time. With a
/// delivery tick (> 1), every block and unblock lands on the tick grid,
/// armed up to 5 ms ahead: a flap can then land between two frames of one
/// batch and split it (DESIGN.md section 8.2).
void schedule_link_flaps(SimHarness& h, int flaps, Rng& rng,
                         Duration tick = 1) {
  const ClusterConfig& cfg = h.cfg();
  const Duration horizon = 400 * kMillisecond;
  const auto grid = [tick](Time t) { return (t + tick - 1) / tick * tick; };
  for (int i = 0; i < flaps; ++i) {
    const Time at = grid(rng.next_in(0, horizon));
    const Duration len =
        grid(rng.next_in(5 * kMillisecond, 60 * kMillisecond));
    const NodeId server = static_cast<NodeId>(rng.next_below(
        static_cast<std::uint64_t>(cfg.s())));
    const std::vector<NodeId> clients = cfg.client_ids();
    const NodeId client = clients[rng.next_below(clients.size())];
    const Duration lead = tick > 1 ? rng.next_in(0, 5 * kMillisecond) : 0;
    schedule_step(h, at, lead, [&h, server, client, len, lead]() {
      // Budget check: count servers currently cut from this client.
      int blocked = 0;
      for (NodeId sv : h.cfg().server_ids()) {
        blocked += h.net().link_blocked(sv, client);
      }
      if (blocked >= h.cfg().t()) return;  // would exceed the failure budget
      h.net().block_pair(server, client);
      schedule_step(h, h.sim().now() + len, lead, [&h, server, client]() {
        h.net().unblock_pair(server, client);
      });
    });
  }
}

CheckResult check_expected(const History& hist, const std::string& expect) {
  if (expect == "regular") return check_regular(hist);
  if (expect == "safe") return check_safe(hist);
  return check_tag_witness(hist);
}

/// FNV-1a over the rendered history plus the conservation buckets: any
/// reordering that moves an op's value or timestamps, or changes a single
/// message's fate, moves the digest.
std::uint64_t trial_digest(const History& hist, const NetworkStats& s) {
  std::uint64_t h = 14695981039346656037ULL;
  auto mix_byte = [&h](unsigned char b) { h = (h ^ b) * 1099511628211ULL; };
  for (const char c : hist.to_string()) {
    mix_byte(static_cast<unsigned char>(c));
  }
  for (const std::uint64_t v :
       {s.sent, s.delivered, s.held, s.to_crashed, s.from_crashed,
        s.dropped_unattached}) {
    for (int i = 0; i < 8; ++i) {
      mix_byte(static_cast<unsigned char>((v >> (8 * i)) & 0xFF));
    }
  }
  return h;
}

struct LaneResult {
  std::uint64_t digest = 0;
  bool atomic = false;
  bool stream_atomic = false;  ///< live streaming checker, same history
  CoalesceStats coalesce;
};

/// One fuzzed schedule under one engine configuration. Lanes sharing a
/// trial_seed see the same harness RNG, the same flap plan, and the same
/// workload draws — the engine is the only variable.
LaneResult run_parity_lane(const ParityOptions& opts, const Protocol& proto,
                           std::uint64_t trial_seed, bool crash,
                           bool coalesce) {
  SimHarness::Options o;
  o.cfg = opts.cfg;
  o.seed = trial_seed;
  o.delay = std::make_unique<LogNormalDelay>(3 * kMillisecond, 1.2);
  o.coalesce = coalesce;
  o.tick = opts.tick;
  // Streaming verdict lane: the checker rides along live (history
  // retirement stays OFF so trial digests still cover the full history).
  o.streaming_check = true;
  SimHarness h(proto, std::move(o));

  Rng flap_rng(trial_seed ^ 0x9e3779b97f4a7c15ULL);
  schedule_link_flaps(h, opts.link_flaps, flap_rng, opts.tick);

  WorkloadOptions w;
  w.ops_per_writer = opts.ops_per_client;
  w.ops_per_reader = opts.ops_per_client;
  w.think_hi = 15 * kMillisecond;
  if (crash) {
    w.crash_servers = opts.cfg.t();
    w.crash_after_ops = opts.ops_per_client;
  }
  run_random_workload(h, w);

  LaneResult r;
  r.digest = trial_digest(h.history(), h.net().stats());
  r.atomic = check_tag_witness(h.history()).atomic;
  r.stream_atomic = h.stream_checker(0)->finish().atomic;
  r.coalesce = h.net().coalesce_stats();
  return r;
}

}  // namespace

FuzzReport run_schedule_fuzzer(const FuzzOptions& opts) {
  FuzzReport report;
  Rng master(opts.seed);
  const Protocol* proto = protocol_by_name(opts.protocol);
  if (proto == nullptr) {
    report.first_violation = "unknown protocol: " + opts.protocol;
    return report;
  }
  for (int trial = 0; trial < opts.trials; ++trial) {
    ++report.trials;
    Rng rng = master.fork();
    SimHarness::Options o;
    o.cfg = opts.cfg;
    o.seed = rng.next();
    // Heavy-tailed delays widen the schedule space.
    o.delay = std::make_unique<LogNormalDelay>(3 * kMillisecond, 1.2);
    SimHarness h(*proto, std::move(o));

    schedule_link_flaps(h, opts.link_flaps, rng);

    WorkloadOptions w;
    w.ops_per_writer = opts.ops_per_client;
    w.ops_per_reader = opts.ops_per_client;
    w.think_hi = 15 * kMillisecond;
    if (rng.next_bool(opts.crash_probability)) {
      w.crash_servers = opts.cfg.t();
      w.crash_after_ops = opts.ops_per_client;
    }
    run_random_workload(h, w);

    report.total_ops += h.history().size();
    report.pending_ops += h.history().size() - h.history().completed_count();
    const CheckResult res = check_expected(h.history(), opts.expect);
    if (res.atomic) {
      ++report.passed;
    } else {
      ++report.violations;
      if (report.first_violation.empty()) {
        report.first_violation = res.violation + "\n" + h.history().to_string();
      }
    }
  }
  return report;
}

ParityReport run_engine_parity_fuzzer(const ParityOptions& opts) {
  ParityReport report;
  Rng master(opts.seed);
  const Protocol* proto = protocol_by_name(opts.protocol);
  if (proto == nullptr) {
    report.first_mismatch = "unknown protocol: " + opts.protocol;
    return report;
  }
  for (int trial = 0; trial < opts.trials; ++trial) {
    ++report.trials;
    const std::uint64_t trial_seed = master.next();
    const bool crash = master.next_bool(opts.crash_probability);
    if (crash) ++report.crash_trials;

    const LaneResult per_message =
        run_parity_lane(opts, *proto, trial_seed, crash, /*coalesce=*/false);
    const LaneResult frame_order =
        run_parity_lane(opts, *proto, trial_seed, crash, /*coalesce=*/true);

    report.lone += frame_order.coalesce.lone;
    report.batches += frame_order.coalesce.batches;
    report.continuations += frame_order.coalesce.continuations;

    auto note = [&report, trial](const std::string& what) {
      ++report.mismatches;
      if (report.first_mismatch.empty()) {
        report.first_mismatch = what + " (trial " + std::to_string(trial) + ")";
      }
    };
    if (per_message.digest == frame_order.digest) {
      ++report.frame_order_exact;
    } else {
      note("per-message vs frame-order digest mismatch");
    }
    if (per_message.stream_atomic == per_message.atomic &&
        frame_order.stream_atomic == frame_order.atomic) {
      ++report.stream_verdict_parity;
    } else {
      note("live streaming verdict diverged from the batch tag witness");
    }
  }
  return report;
}

}  // namespace mwreg::fuzz
