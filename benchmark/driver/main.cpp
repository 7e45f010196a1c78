// mwreg_bench: runs one benchmark workload in this process and prints what
// it measured and checked as one JSON line (the last line of stdout) for
// benchmark/run.py, which owns the statistics and the printed result.
//
// usage: mwreg_bench --workload NAME [--seed N] [--seconds N] [--trace 0|1]
//                    [--spans FILE]
//
// Exit status: 0 when every correctness check passed, 1 when one failed or
// the run threw, 2 on a malformed command line.
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench.h"
#include "exp/aggregator.h"
#include "exp/cli.h"

namespace {

using mwbench::Report;
using mwbench::RunConfig;

struct WorkloadEntry {
  const char* name;
  void (*run)(const RunConfig&, Report*);
  std::uint64_t default_seed;
};

const WorkloadEntry kWorkloads[] = {
    {"design_sweep", mwbench::run_design_sweep, 0},
    {"fault_sweep", mwbench::run_fault_sweep, 0},
    {"keyspace_soak", mwbench::run_keyspace_soak, 42},
    {"checked_soak", mwbench::run_checked_soak, 42},
    {"fastread_keyspace", mwbench::run_fastread_keyspace, 42},
};

void print_usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--seconds N] "
               "[--trace 0|1] [--spans FILE]\nworkloads:",
               prog);
  for (const WorkloadEntry& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

int usage_error(const char* prog, const std::string& why) {
  std::fprintf(stderr, "error: %s\n", why.c_str());
  print_usage(prog);
  return 2;
}

/// Shortest text that reads back as the same double.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  return mwbench::strf("%.17g", v);
}

std::string quoted(const std::string& s) {
  std::string q = "\"";
  q += mwreg::exp::json_escape(s);
  q += '"';
  return q;
}

void print_json(const std::string& workload, const RunConfig& rc,
                const Report& r) {
  std::string j = "{\"format\":\"mwreg-benchmark-raw\",\"version\":1";
  j += ",\"workload\":" + quoted(workload);
  j += ",\"seed\":" + std::to_string(rc.seed);
  j += ",\"trace\":" + std::to_string(rc.trace ? 1 : 0);
  j += ",\"reps\":" + std::to_string(r.reps);
  j += ",\"attempted\":" + std::to_string(r.attempted);
  j += ",\"completed\":" + std::to_string(r.completed);
  j += ",\"verdict_mismatches\":" + std::to_string(r.verdict_mismatches);
  j += ",\"sim_digest\":" + quoted(r.sim_digest);
  j += std::string(",\"correct\":") + (r.correct() ? "true" : "false");
  j += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    j += (first ? "" : ",") + quoted(name) + ":{\"value\":" + num(m.value()) +
         ",\"samples\":[";
    for (std::size_t i = 0; i < m.samples.size(); ++i) {
      j += (i ? "," : "") + num(m.samples[i]);
    }
    j += "]}";
    first = false;
  }
  j += "},\"exact\":{";
  first = true;
  for (const auto& [name, value] : r.exact) {
    j += (first ? "" : ",") + quoted(name) + ":" + num(value);
    first = false;
  }
  j += "},\"checks\":[";
  first = true;
  for (const mwbench::Check& c : r.checks) {
    j += std::string(first ? "" : ",") + "{\"name\":" + quoted(c.name) +
         ",\"ok\":" + (c.ok ? "true" : "false") +
         ",\"detail\":" + quoted(c.detail) + "}";
    first = false;
  }
  j += "]}";
  std::printf("%s\n", j.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  mwreg::exp::SweepCli cli;
  std::string err;
  if (!mwreg::exp::parse_sweep_cli(argc, argv, &cli, &err)) {
    return usage_error(argv[0], err);
  }
  // The shared parser knows the sweep drivers' flags too. A workload name
  // fixes its thread count (sweeps run kSweepThreads), so none is accepted.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" || arg == "--shard" || arg == "--out") {
      return usage_error(argv[0], arg + " is a sweep-driver flag");
    }
  }
  std::string workload;
  int seed = -1;
  int seconds = 10;
  int trace = 0;
  RunConfig rc;
  for (std::size_t i = 0; i < cli.extra.size(); ++i) {
    const std::string& flag = cli.extra[i];
    const bool has_value = i + 1 < cli.extra.size();
    const std::string value = has_value ? cli.extra[i + 1] : "";
    if (flag == "--workload" && has_value) {
      workload = value;
    } else if (flag == "--seed" && has_value) {
      if (!mwreg::exp::parse_int(value, &seed) || seed < 0) {
        return usage_error(argv[0],
                           "--seed needs a non-negative integer, got '" +
                               value + "'");
      }
    } else if (flag == "--seconds" && has_value) {
      if (!mwreg::exp::parse_int(value, &seconds) || seconds < 1 ||
          seconds > 600) {
        return usage_error(argv[0],
                           "--seconds needs an integer in [1, 600], got '" +
                               value + "'");
      }
    } else if (flag == "--trace" && has_value) {
      if (value != "0" && value != "1") {
        return usage_error(argv[0],
                           "--trace needs 0 or 1, got '" + value + "'");
      }
      trace = value == "1" ? 1 : 0;
    } else if (flag == "--spans" && has_value) {
      rc.spans_path = value;
    } else {
      return usage_error(argv[0],
                         "unknown or incomplete argument '" + flag + "'");
    }
    ++i;
  }
  if (cli.help) {
    print_usage(argv[0]);
    return 0;
  }
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& w : kWorkloads) {
    if (workload == w.name) entry = &w;
  }
  if (entry == nullptr) {
    return usage_error(argv[0], workload.empty()
                                    ? "--workload is required"
                                    : "unknown workload '" + workload + "'");
  }

  rc.seed = seed >= 0 ? static_cast<std::uint64_t>(seed) : entry->default_seed;
  rc.seconds = seconds;
  rc.trace = trace == 1;

  Report report;
  try {
    entry->run(rc, &report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: workload %s threw: %s\n", entry->name,
                 e.what());
    return 1;
  }
  for (const std::string& line : report.notes) {
    std::printf("  %s\n", line.c_str());
  }
  for (const mwbench::Check& c : report.checks) {
    std::printf("  check %-48s %s %s\n", c.name.c_str(), c.ok ? "ok  " : "FAIL",
                c.detail.c_str());
  }
  print_json(entry->name, rc, report);
  return report.correct() ? 0 : 1;
}
