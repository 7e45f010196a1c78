// Shared helpers for the per-table/figure benchmark binaries.
//
// Every binary prints the paper artifact it regenerates as a plain-text
// table (the "rows/series the paper reports"), then runs google-benchmark
// timings for the machinery involved.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "exp/aggregator.h"

namespace mwreg::bench {

inline void header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline void row(const std::vector<std::string>& cells,
                const std::vector<int>& widths) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int w = i < widths.size() ? widths[i] : 16;
    char buf[256];
    std::snprintf(buf, sizeof buf, "%-*s", w, cells[i].c_str());
    line += buf;
  }
  std::printf("%s\n", line.c_str());
}

inline std::string fmt(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

// ---- machine-readable perf artifacts (BENCH_*.json) ----
//
// Benches that feed the perf trajectory write a JSON artifact next to their
// plain-text report so CI can archive numbers run over run. The writer is
// deliberately tiny: keys are emitted explicitly by the bench, which is what
// keeps each artifact's schema stable and reviewable in one place.

/// Streaming JSON builder: call the structural methods in document order.
/// Comma placement is handled automatically; values are escaped with the
/// repo-wide exp::json_escape (one escaper, no drift).
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(const std::string& k) {
    comma();
    out_ += '"' + exp::json_escape(k) + "\":";
    pending_value_ = true;
    return *this;
  }

  JsonWriter& value(const std::string& v) {
    comma();
    out_ += '"' + exp::json_escape(v) + '"';
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string(v)); }
  JsonWriter& value(double v) {
    comma();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    out_ += buf;
    return *this;
  }
  JsonWriter& value(std::uint64_t v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(std::int64_t v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    return *this;
  }

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  JsonWriter& open(char c) {
    comma();
    out_ += c;
    fresh_ = true;
    return *this;
  }
  JsonWriter& close(char c) {
    out_ += c;
    fresh_ = false;
    return *this;
  }
  void comma() {
    if (pending_value_) {
      pending_value_ = false;  // value right after key: no comma
      return;
    }
    if (!fresh_ && !out_.empty() && out_.back() != '{' && out_.back() != '[') {
      out_ += ',';
    }
    fresh_ = false;
  }

  std::string out_;
  bool fresh_ = true;
  bool pending_value_ = false;
};

/// Write a JSON artifact; logs the path so CI logs show what was produced.
inline bool write_json_artifact(const std::string& path,
                                const std::string& json) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return false;
  }
  f << json << "\n";
  f.flush();  // surface buffered write errors before claiming success
  if (!f) {
    std::fprintf(stderr, "bench: short write to %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), json.size() + 1);
  return true;
}

// ---- artifact rows ----
//
// A bench builds each artifact row once as a Row; the same Row prints the
// text table and emits the JSON object, so the two cannot drift apart.

struct Field;
using Row = std::vector<Field>;

/// One field of an artifact row: its JSON key and value, and whether the
/// text report shows it as a column.
struct Field {
  using Value =
      std::variant<std::string, std::uint64_t, double, bool, std::vector<Row>>;
  std::string key;
  Value value;
  bool text = false;
};

template <typename T>
Field field(std::string key, T v, bool text = false) {
  if constexpr (std::is_same_v<T, const char*>) {
    return {std::move(key), std::string(v), text};
  } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
    return {std::move(key), static_cast<std::uint64_t>(v), text};
  } else {
    return {std::move(key), std::move(v), text};
  }
}

/// A field the text report shows as a column.
template <typename T>
Field col(std::string key, T v) {
  return field(std::move(key), std::move(v), true);
}

inline std::string cell(const Field::Value& v) {
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  if (const auto* u = std::get_if<std::uint64_t>(&v)) return std::to_string(*u);
  if (const auto* d = std::get_if<double>(&v)) {
    return fmt(*d, *d >= 1e3 ? 0 : 2);
  }
  if (const auto* b = std::get_if<bool>(&v)) return *b ? "true" : "false";
  return "";
}

inline void print_rows(const std::string& title, const std::vector<Row>& rows) {
  header(title);
  std::vector<std::vector<std::string>> lines(rows.size() + 1);
  for (const Field& f : rows.front()) {
    if (f.text) lines[0].push_back(f.key);
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (const Field& f : rows[r]) {
      if (f.text) lines[r + 1].push_back(cell(f.value));
    }
  }
  std::vector<int> widths(lines[0].size(), 0);
  for (const auto& l : lines) {
    for (std::size_t i = 0; i < l.size(); ++i) {
      widths[i] = std::max(widths[i], static_cast<int>(l[i].size()) + 2);
    }
  }
  for (const auto& l : lines) row(l, widths);
}

inline void emit(JsonWriter& j, const Row& row) {
  j.begin_object();
  for (const Field& f : row) {
    j.key(f.key);
    std::visit(
        [&j](const auto& v) {
          if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                       std::vector<Row>>) {
            j.begin_array();
            for (const Row& r : v) emit(j, r);
            j.end_array();
          } else {
            j.value(v);
          }
        },
        f.value);
  }
  j.end_object();
}

/// Print `rows` under `title` and emit them as the artifact's `key`
/// section: one object, or a list of rows when `list`.
inline void section(JsonWriter& j, const std::string& key,
                    const std::string& title, const std::vector<Row>& rows,
                    bool list) {
  print_rows(title, rows);
  j.key(key);
  if (list) j.begin_array();
  for (const Row& r : rows) emit(j, r);
  if (list) j.end_array();
}

/// Standard main: print the report, then run the registered benchmarks.
#define MWREG_BENCH_MAIN(report_fn)                      \
  int main(int argc, char** argv) {                      \
    report_fn();                                         \
    ::benchmark::Initialize(&argc, argv);                \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();               \
    ::benchmark::Shutdown();                             \
    return 0;                                            \
  }

}  // namespace mwreg::bench
