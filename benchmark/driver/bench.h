// Plumbing shared by the benchmark driver's workloads: clocks, the FNV
// digest, the outside-in tracer, and the Report each workload fills in for
// main() to print.
//
// The tracer only ever wraps calls the driver makes into the library's
// public API (SimHarness construction, run_*_workload, checkers, latency
// scans, exp::aggregate, report rendering) and the HistorySink hooks a
// streaming checker receives. Nothing inside the library is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "consistency/history.h"
#include "sim/network.h"

namespace mwbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// num / den, or 0 when den is 0 (a counter the workload never moves).
inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Median of `v`; 0 when empty.
double median_of(std::vector<double> v);

/// Smallest element of `v`; 0 when empty. Repetitions of identical work
/// differ only by host noise, which only ever slows one down.
double fastest_of(const std::vector<double>& v);

/// Interpolated quantile `p` in [0, 1] of `v` (numpy's default method);
/// 0 when empty.
double quantile_of(std::vector<double> v, double p);

/// FNV-1a over 64-bit words, the mixing exp::cell_digest uses.
class Fnv {
 public:
  void mix(std::uint64_t v) { h_ = (h_ ^ v) * 1099511628211ULL; }
  void mix_double(double d);
  void mix_doubles(const std::vector<double>& v);
  void mix_string(const std::string& s);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Spans at the driver's call boundaries plus per-call hook counters.
///
/// A span is (name, parent, start, end). Its self time is its duration
/// minus its children's and minus the hook time recorded while it was the
/// innermost open span, so self times of nested spans never double count.
/// Self time is totalled per name for every span; the span records
/// themselves are kept only while set_keep_spans(true) is in force (the
/// first traced repetition), and only the first kMaxKeptSpans of them plus
/// the roots, which bounds memory and the size of the written trace.
class Tracer {
 public:
  /// Per-call hooks, each with a count and a total.
  enum Hook { kOnInvoke, kOnValue, kOnComplete, kNumHooks };

  /// Times its own lifetime as a span; a null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* t, const char* name) : t_(t) {
      if (t_ != nullptr) t_->begin(name);
    }
    ~Scope() {
      if (t_ != nullptr) t_->end();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
  };

  Tracer() : epoch_(Clock::now()) {}

  /// Open a span inside the innermost open one; end() closes the innermost.
  void begin(const char* name);
  void end();

  /// Account one hook call that started at `t0` and ends now.
  void hook_done(Hook h, Clock::time_point t0);

  void set_keep_spans(bool keep) { keep_spans_ = keep; }

  /// Self seconds per span name, over every span ended so far.
  [[nodiscard]] const std::map<std::string, double>& self_seconds() const {
    return self_s_;
  }
  [[nodiscard]] std::uint64_t hook_count(Hook h) const {
    return hooks_[h].count;
  }
  /// Time inside every hook call so far.
  [[nodiscard]] double total_hook_seconds() const;

  /// Write the kept spans, the hook counters and the self-time totals as
  /// JSON lines. Returns false when the file cannot be written.
  bool write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const;

 private:
  struct Span {
    const char* name = "";
    int id = -1;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t covered_ns = 0;  ///< by child spans and hooks
  };
  struct HookStats {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return ns_between(epoch_, Clock::now());
  }

  static constexpr std::size_t kMaxKeptSpans = 4096;

  Clock::time_point epoch_;
  std::vector<Span> stack_;  ///< open spans, innermost last
  std::vector<Span> kept_;   ///< ended spans, while keep_spans_
  int next_id_ = 0;
  bool keep_spans_ = false;
  std::map<std::string, double> self_s_;
  HookStats hooks_[kNumHooks];
};

/// Forwards every HistorySink hook to `inner` and times it into `tracer`.
class TimedSink final : public mwreg::HistorySink {
 public:
  TimedSink(mwreg::HistorySink* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  void on_invoke(const mwreg::OpRecord& op) override {
    const Clock::time_point t0 = Clock::now();
    inner_->on_invoke(op);
    tracer_->hook_done(Tracer::kOnInvoke, t0);
  }
  void on_value(const mwreg::OpRecord& op) override {
    const Clock::time_point t0 = Clock::now();
    inner_->on_value(op);
    tracer_->hook_done(Tracer::kOnValue, t0);
  }
  void on_complete(const mwreg::OpRecord& op) override {
    const Clock::time_point t0 = Clock::now();
    inner_->on_complete(op);
    tracer_->hook_done(Tracer::kOnComplete, t0);
  }
  void on_retire(mwreg::OpId first_live) override {
    inner_->on_retire(first_live);
  }

 private:
  mwreg::HistorySink* inner_;
  Tracer* tracer_;
};

/// One named correctness check and its outcome.
struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// How a metric's samples reduce to the run's value.
///
/// Host times and rates are sampled over repetitions of bit-identical work,
/// so their differences are the host's, and host noise only ever slows a
/// sample down: another process, or a slower vCPU (on a shared 4-vCPU VM,
/// set-up ran ~30% slower on two of the four). They take the fastest
/// sample, kHighest for a rate and kLowest for a time; a median would flip
/// between the vCPUs' levels with where the scheduler put each repetition.
enum class Reduce { kMedian, kHighest, kLowest };

/// One metric of a run: its samples (one per repetition or set-up, or a
/// single one) and how they reduce to the run's value.
struct Metric {
  std::vector<double> samples;
  Reduce reduce = Reduce::kMedian;

  [[nodiscard]] double value() const;
};

/// What one workload process measured and checked; run.py prints the
/// values with the samples' quartiles.
struct Report {
  std::map<std::string, Metric> metrics;
  /// Simulated statistics that must repeat bit for bit for a given seed.
  std::map<std::string, double> exact;
  std::uint64_t attempted = 0;  ///< client ops the workload asked for
  std::uint64_t completed = 0;
  std::uint64_t verdict_mismatches = 0;
  std::uint64_t reps = 0;
  std::string sim_digest;
  std::vector<Check> checks;
  std::vector<std::string> notes;  ///< human-readable lines

  void add(const std::string& name, double v,
           Reduce reduce = Reduce::kMedian) {
    Metric& m = metrics[name];
    m.samples.push_back(v);
    m.reduce = reduce;
  }
  void check(const std::string& name, bool ok, const std::string& detail = "") {
    checks.push_back(Check{name, ok, detail});
  }
  void note(const std::string& line) { notes.push_back(line); }
  [[nodiscard]] bool correct() const;
};

/// The net.* per-layer metrics from one run's network counters:
/// frames_per_batch, mean_run_len, dest_major_share,
/// continuations_per_batch, staged_per_frame, msgs_per_op, bytes_per_op and
/// fault_dropped_frac.
void add_net_metrics(const mwreg::NetworkStats& net,
                     const mwreg::CoalesceStats& co, std::uint64_t completed,
                     Report* out);

/// The simulated (virtual-time) latency metrics over pooled samples, in ms:
/// read/write p50 and p99, plus the sample counts as exact values. These are
/// the paper's one- vs two-round-trip figures at the workload's scale.
void add_latency_metrics(std::vector<double> write_ms,
                         std::vector<double> read_ms, Report* out);

/// Layer spans must cover at least 90% of a traced run's wall time;
/// otherwise the per-layer split misses where the time went.
void check_coverage(double coverage, Report* out);

/// printf into a std::string.
std::string strf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// The run parameters every workload receives from main().
struct RunConfig {
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  ///< where a traced run writes its spans ("" = none)
};

/// Workload entry points (sweeps.cpp, soaks.cpp).
void run_design_sweep(const RunConfig& rc, Report* out);
void run_fault_sweep(const RunConfig& rc, Report* out);
void run_keyspace_soak(const RunConfig& rc, Report* out);
void run_checked_soak(const RunConfig& rc, Report* out);
void run_fastread_keyspace(const RunConfig& rc, Report* out);

}  // namespace mwbench
