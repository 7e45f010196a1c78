#include "core/workload.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace mwreg {
namespace {

/// The closed-loop driver. Lives on run_random_workload's stack for one
/// run(); every closure it hands out (think timers, per-op done callbacks,
/// the crash event) captures at most a pointer and a slot, so it fits
/// std::function's local buffer and the inline closure budget of the
/// simulator: the loop allocates nothing per op.
struct Driver {
  SimHarness* h = nullptr;
  const WorkloadOptions* opts = nullptr;
  ZipfSampler zipf;                       ///< multi-key harnesses only
  std::vector<Rng> rngs;                  ///< per slot, writers then readers
  std::vector<int> remaining;             ///< ops left to complete, per slot
  std::vector<std::uint32_t> reader_key;  ///< affine key per reader, or empty
  int w = 0;
  int completed = 0;  ///< cluster-wide, for the optional crash
  bool crashed = false;

  /// A one-key harness draws no key: its Rng streams then carry think times
  /// only, the draws the single-register golden digests were recorded with.
  std::uint32_t pick_key(std::size_t s) {
    return zipf.num_keys() > 1
               ? static_cast<std::uint32_t>(zipf.sample(rngs[s]))
               : 0;
  }

  void schedule_next(int slot) {
    const Duration think =
        rngs[static_cast<std::size_t>(slot)].next_in(opts->think_lo,
                                                     opts->think_hi);
    h->sim().schedule_after(think, [this, slot]() { start_op(slot); });
  }

  void start_op(int slot) {
    const auto s = static_cast<std::size_t>(slot);
    if (slot < w) {
      // Payload encodes (writer, sequence) so violations are easy to read.
      const std::int64_t payload =
          static_cast<std::int64_t>(slot) * 1'000'000 +
          (opts->ops_per_writer - remaining[s] + 1);
      h->async_write_key(slot, pick_key(s), payload,
                         [this, slot]() { complete(slot); });
    } else {
      const int ri = slot - w;
      const std::uint32_t key = reader_key.empty()
                                    ? pick_key(s)
                                    : reader_key[static_cast<std::size_t>(ri)];
      h->async_read_key(ri, key,
                        [this, slot](TaggedValue) { complete(slot); });
    }
  }

  void complete(int slot) {
    ++completed;
    if (!crashed && opts->crash_servers > 0 &&
        completed >= opts->crash_after_ops) {
      // Runs inside a message handler, where the network refuses fault
      // mutations: the crash becomes an event at now().
      crashed = true;
      h->sim().schedule_at(h->sim().now(),
                           [hp = h, count = opts->crash_servers]() {
                             hp->crash_random_servers(count);
                           });
    }
    if (--remaining[static_cast<std::size_t>(slot)] > 0) schedule_next(slot);
  }
};

}  // namespace

void run_random_workload(SimHarness& h, const WorkloadOptions& opts) {
  const int w = h.cfg().w();
  const int r = h.cfg().r();
  if (opts.crash_servers < 0 || opts.crash_servers > h.cfg().s()) {
    // Refused before the run, not from inside the crash event.
    throw std::invalid_argument(
        "run_random_workload: crash_servers " +
        std::to_string(opts.crash_servers) + " outside [0, " +
        std::to_string(h.cfg().s()) + "] for " + h.cfg().to_string());
  }
  Driver d;
  d.h = &h;
  d.opts = &opts;
  d.w = w;
  if (h.num_keys() > 1) {
    d.zipf = ZipfSampler(h.num_keys(), h.keyspace().zipf_s);
    if (h.table()->reader_key_affine()) {
      d.reader_key.resize(static_cast<std::size_t>(r));
      for (int ri = 0; ri < r; ++ri) {
        d.reader_key[static_cast<std::size_t>(ri)] =
            static_cast<std::uint32_t>(reader_key_of(ri, h.num_keys(), r));
      }
    }
  }
  d.rngs.reserve(static_cast<std::size_t>(w + r));
  for (int i = 0; i < w + r; ++i) d.rngs.push_back(h.rng().fork());
  d.remaining.assign(static_cast<std::size_t>(w), opts.ops_per_writer);
  d.remaining.resize(static_cast<std::size_t>(w + r), opts.ops_per_reader);
  for (int slot = 0; slot < w + r; ++slot) {
    if (d.remaining[static_cast<std::size_t>(slot)] > 0) d.schedule_next(slot);
  }
  h.run();
}

void run_keyspace_workload(SimHarness& h, const WorkloadOptions& opts) {
  run_random_workload(h, opts);
}

std::vector<double> latency_samples_ms(const History& h, OpKind kind) {
  std::vector<double> lat;
  for (const OpRecord& r : h.ops()) {
    if (r.kind != kind || !r.completed()) continue;
    lat.push_back(static_cast<double>(r.resp - r.invoke) /
                  static_cast<double>(kMillisecond));
  }
  return lat;
}

namespace {

/// Interpolated percentile over a sorted sample vector (same convention as
/// numpy's default): exact for the pooled distribution, no nearest-rank
/// bias at small counts.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

}  // namespace

LatencyStats summarize_latency(std::vector<double> samples_ms) {
  LatencyStats s;
  s.count = samples_ms.size();
  if (samples_ms.empty()) return s;
  std::sort(samples_ms.begin(), samples_ms.end());
  double sum = 0;
  for (double v : samples_ms) sum += v;
  s.mean_ms = sum / static_cast<double>(samples_ms.size());
  s.p50_ms = percentile(samples_ms, 0.50);
  s.p99_ms = percentile(samples_ms, 0.99);
  s.max_ms = samples_ms.back();
  return s;
}

LatencyStats latency_of(const History& h, OpKind kind) {
  return summarize_latency(latency_samples_ms(h, kind));
}

FaultMetrics compute_fault_metrics(const History& h, const FaultPlanLog& log) {
  FaultMetrics m;
  m.faults_injected = log.faults_injected;
  if (!log.disrupted()) return m;
  const Time start = log.disruption_start;
  const Time end = log.healed() ? log.heal_time : kTimeMax;
  Time first_after = kTimeMax;
  for (const OpRecord& r : h.ops()) {
    if (!r.completed()) continue;
    if (r.resp >= start && r.resp <= end) ++m.ops_under_fault;
    if (log.healed() && r.resp > end) {
      first_after = std::min(first_after, r.resp);
    }
  }
  if (first_after != kTimeMax) {
    m.recovery_ms = static_cast<double>(first_after - log.heal_time) /
                    static_cast<double>(kMillisecond);
  }
  return m;
}

std::string to_string(const LatencyStats& s) {
  std::ostringstream os;
  os.precision(3);
  os << std::fixed << "n=" << s.count << " mean=" << s.mean_ms
     << "ms p50=" << s.p50_ms << "ms p99=" << s.p99_ms << "ms max=" << s.max_ms
     << "ms";
  return os.str();
}

}  // namespace mwreg
