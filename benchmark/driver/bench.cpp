#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdarg>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "core/workload.h"

namespace mwbench {

double peak_rss_mb() {
  // VmHWM is this address space's own high-water mark. ru_maxrss is not:
  // Linux carries the pre-exec image's peak into it, which for a driver
  // spawned from a Python parent is the parent's size.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double median_of(std::vector<double> v) {
  return quantile_of(std::move(v), 0.5);
}

double fastest_of(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

double quantile_of(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

void Fnv::mix_double(double d) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof d, "double is 64-bit");
  std::memcpy(&bits, &d, sizeof bits);
  mix(bits);
}

void Fnv::mix_doubles(const std::vector<double>& v) {
  mix(v.size());
  for (double d : v) mix_double(d);
}

void Fnv::mix_string(const std::string& s) {
  mix(s.size());
  for (char c : s) mix(static_cast<unsigned char>(c));
}

std::string Fnv::hex() const {
  return strf("%016llx", static_cast<unsigned long long>(h_));
}

std::string strf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string s(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(s.data(), s.size() + 1, fmt, ap2);
  va_end(ap2);
  return s;
}

void Tracer::begin(const char* name) {
  Span s;
  s.name = name;
  s.id = next_id_++;
  s.parent = stack_.empty() ? -1 : stack_.back().id;
  s.start_ns = now_ns();
  stack_.push_back(s);
}

void Tracer::end() {
  Span s = stack_.back();
  stack_.pop_back();
  s.end_ns = now_ns();
  const std::int64_t dur = s.end_ns - s.start_ns;
  self_s_[s.name] += static_cast<double>(dur - s.covered_ns) * 1e-9;
  if (!stack_.empty()) stack_.back().covered_ns += dur;
  if (keep_spans_ && (kept_.size() < kMaxKeptSpans || s.parent < 0)) {
    kept_.push_back(s);
  }
}

void Tracer::hook_done(Hook h, Clock::time_point t0) {
  const std::int64_t dt = ns_between(t0, Clock::now());
  ++hooks_[h].count;
  hooks_[h].total_ns += dt;
  if (!stack_.empty()) stack_.back().covered_ns += dt;
}

double Tracer::total_hook_seconds() const {
  std::int64_t ns = 0;
  for (const HookStats& h : hooks_) ns += h.total_ns;
  return static_cast<double>(ns) * 1e-9;
}

bool Tracer::write(const std::string& path, const std::string& workload,
                   std::uint64_t seed) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  os << "{\"format\":\"mwreg-benchmark-spans\",\"version\":1,\"workload\":\""
     << workload << "\",\"seed\":" << seed << "}\n";
  for (const Span& s : kept_) {
    os << "{\"span\":\"" << s.name << "\",\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns
       << ",\"self_ns\":" << (s.end_ns - s.start_ns - s.covered_ns) << "}\n";
  }
  static const char* const kHookNames[kNumHooks] = {
      "consistency.on_invoke", "consistency.on_value",
      "consistency.on_complete"};
  for (int h = 0; h < kNumHooks; ++h) {
    os << "{\"hook\":\"" << kHookNames[h] << "\",\"count\":" << hooks_[h].count
       << ",\"total_ns\":" << hooks_[h].total_ns << "}\n";
  }
  os << "{\"self_s\":{";
  bool first = true;
  for (const auto& [name, secs] : self_s_) {
    os << (first ? "" : ",") << "\"" << name << "\":" << strf("%.9f", secs);
    first = false;
  }
  os << "}}\n";
  return static_cast<bool>(os);
}

void add_net_metrics(const mwreg::NetworkStats& net,
                     const mwreg::CoalesceStats& co, std::uint64_t completed,
                     Report* out) {
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  std::uint64_t runs = 0;
  for (const std::uint64_t b : co.hist) runs += b;
  out->add("net.frames_per_batch", ratio(d(co.frames), d(co.batches)));
  out->add("net.mean_run_len", ratio(d(co.frames), d(runs)));
  out->add("net.dest_major_share", ratio(d(co.dest_major), d(co.batches)));
  out->add("net.continuations_per_batch",
           ratio(d(co.continuations), d(co.batches)));
  out->add("net.staged_per_frame", ratio(d(co.staged), d(co.frames)));
  out->add("net.msgs_per_op", ratio(d(net.sent), d(completed)));
  out->add("net.bytes_per_op", ratio(d(net.bytes_sent), d(completed)));
  out->add("net.fault_dropped_frac",
           ratio(d(net.to_crashed + net.from_crashed), d(net.sent)));
}

void add_latency_metrics(std::vector<double> write_ms,
                         std::vector<double> read_ms, Report* out) {
  const mwreg::LatencyStats w = mwreg::summarize_latency(std::move(write_ms));
  const mwreg::LatencyStats r = mwreg::summarize_latency(std::move(read_ms));
  out->add("read_p50_sim_ms", r.p50_ms);
  out->add("read_p99_sim_ms", r.p99_ms);
  out->add("write_p50_sim_ms", w.p50_ms);
  out->add("write_p99_sim_ms", w.p99_ms);
  out->exact["read_samples"] = static_cast<double>(r.count);
  out->exact["write_samples"] = static_cast<double>(w.count);
}

void check_coverage(double coverage, Report* out) {
  out->check("layer spans cover at least 90% of the traced wall",
             coverage >= 0.9, strf("%.1f%%", 100.0 * coverage));
}

double Metric::value() const {
  if (samples.empty()) return 0;
  switch (reduce) {
    case Reduce::kHighest:
      return *std::max_element(samples.begin(), samples.end());
    case Reduce::kLowest:
      return fastest_of(samples);
    case Reduce::kMedian:
      break;
  }
  return median_of(samples);
}

bool Report::correct() const {
  for (const Check& c : checks) {
    if (!c.ok) return false;
  }
  return verdict_mismatches == 0 && !checks.empty();
}

}  // namespace mwbench
