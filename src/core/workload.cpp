#include "core/workload.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

namespace mwreg {
namespace {

/// Shared driver state: counts completed ops to trigger the optional crash.
struct DriverState {
  int completed = 0;
  bool crashed = false;
};

/// Runs inside a completion callback, i.e. inside a message handler, where
/// the network refuses fault mutations: the crash becomes an event at now().
void maybe_crash(SimHarness& h, const WorkloadOptions& opts, DriverState& st) {
  ++st.completed;
  if (st.crashed || opts.crash_servers <= 0) return;
  if (st.completed >= opts.crash_after_ops) {
    st.crashed = true;
    h.sim().schedule_at(h.sim().now(), [&h, count = opts.crash_servers] {
      h.crash_random_servers(count);
    });
  }
}

void writer_loop(SimHarness& h, const WorkloadOptions& opts,
                 std::shared_ptr<DriverState> st, int wi, int remaining,
                 std::shared_ptr<Rng> rng) {
  if (remaining <= 0) return;
  const Duration think = rng->next_in(opts.think_lo, opts.think_hi);
  h.sim().schedule_after(think, [&h, &opts, st, wi, remaining, rng]() {
    // Payload encodes (writer, sequence) so violations are easy to read.
    const std::int64_t payload = static_cast<std::int64_t>(wi) * 1'000'000 +
                                 (opts.ops_per_writer - remaining + 1);
    h.async_write(wi, payload, [&h, &opts, st, wi, remaining, rng]() {
      maybe_crash(h, opts, *st);
      writer_loop(h, opts, st, wi, remaining - 1, rng);
    });
  });
}

void reader_loop(SimHarness& h, const WorkloadOptions& opts,
                 std::shared_ptr<DriverState> st, int ri, int remaining,
                 std::shared_ptr<Rng> rng) {
  if (remaining <= 0) return;
  const Duration think = rng->next_in(opts.think_lo, opts.think_hi);
  h.sim().schedule_after(think, [&h, &opts, st, ri, remaining, rng]() {
    h.async_read(ri, [&h, &opts, st, ri, remaining, rng](TaggedValue) {
      maybe_crash(h, opts, *st);
      reader_loop(h, opts, st, ri, remaining - 1, rng);
    });
  });
}

}  // namespace

void run_random_workload(SimHarness& h, const WorkloadOptions& opts) {
  auto st = std::make_shared<DriverState>();
  for (int wi = 0; wi < h.cfg().w(); ++wi) {
    writer_loop(h, opts, st, wi, opts.ops_per_writer,
                std::make_shared<Rng>(h.rng().fork()));
  }
  for (int ri = 0; ri < h.cfg().r(); ++ri) {
    reader_loop(h, opts, st, ri, opts.ops_per_reader,
                std::make_shared<Rng>(h.rng().fork()));
  }
  h.run();
}

namespace {

/// Per-slot closed-loop driver over the ClientTable. Lives on the caller's
/// stack for the duration of one run(); the think-timer closures capture
/// only {driver pointer, slot} and stay inside the simulator's inline
/// closure budget.
struct KeyspaceDriver {
  SimHarness* h = nullptr;
  const WorkloadOptions* opts = nullptr;
  ZipfSampler zipf;
  std::vector<Rng> rngs;                  ///< per slot, writers then readers
  std::vector<int> remaining;             ///< ops left to complete, per slot
  std::vector<std::uint32_t> reader_key;  ///< affine key per reader, or empty
  int w = 0;

  void schedule_next(int slot) {
    const Duration think =
        rngs[static_cast<std::size_t>(slot)].next_in(opts->think_lo,
                                                     opts->think_hi);
    KeyspaceDriver* self = this;
    h->sim().schedule_after(think, [self, slot]() { self->start_op(slot); });
  }

  void start_op(int slot) {
    const auto s = static_cast<std::size_t>(slot);
    if (slot < w) {
      const std::uint32_t key =
          static_cast<std::uint32_t>(zipf.sample(rngs[s]));
      // Payload encodes (writer, sequence), as in run_random_workload.
      const std::int64_t payload =
          static_cast<std::int64_t>(slot) * 1'000'000 +
          (opts->ops_per_writer - remaining[s] + 1);
      h->async_write_key(slot, key, payload);
    } else {
      const int ri = slot - w;
      const std::uint32_t key =
          reader_key.empty()
              ? static_cast<std::uint32_t>(zipf.sample(rngs[s]))
              : reader_key[static_cast<std::size_t>(ri)];
      h->async_read_key(ri, key);
    }
  }
};

}  // namespace

void run_keyspace_workload(SimHarness& h, const WorkloadOptions& opts) {
  ClientTable& table = *h.table();
  const int w = table.writer_count();
  const int r = table.reader_count();
  KeyspaceDriver d;
  d.h = &h;
  d.opts = &opts;
  d.zipf = ZipfSampler(h.num_keys(), h.keyspace().zipf_s);
  d.w = w;
  d.rngs.reserve(static_cast<std::size_t>(w + r));
  for (int i = 0; i < w + r; ++i) d.rngs.push_back(h.rng().fork());
  d.remaining.resize(static_cast<std::size_t>(w + r));
  for (int wi = 0; wi < w; ++wi) {
    d.remaining[static_cast<std::size_t>(wi)] = opts.ops_per_writer;
  }
  for (int ri = 0; ri < r; ++ri) {
    d.remaining[static_cast<std::size_t>(w + ri)] = opts.ops_per_reader;
  }
  if (table.reader_key_affine()) {
    d.reader_key.resize(static_cast<std::size_t>(r));
    for (int ri = 0; ri < r; ++ri) {
      d.reader_key[static_cast<std::size_t>(ri)] = static_cast<std::uint32_t>(
          reader_key_of(ri, h.num_keys(), r));
    }
  }
  h.set_table_completion([&d](int slot, OpKind, const TaggedValue&) {
    if (--d.remaining[static_cast<std::size_t>(slot)] > 0) {
      d.schedule_next(slot);
    }
  });
  for (int slot = 0; slot < w + r; ++slot) {
    if (d.remaining[static_cast<std::size_t>(slot)] > 0) d.schedule_next(slot);
  }
  h.run();
  h.set_table_completion(nullptr);
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
