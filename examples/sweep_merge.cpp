// sweep_merge: fold shard partial-aggregate artifacts into full sweep
// reports.
//
// Usage:
//   sweep_merge [--out DIR] partial...
//
// Partials may be given in any order and may span several sweeps (they are
// grouped by the report stem stamped in their headers); each complete
// group renders <out>/<stem>.csv and <stem>.json byte-identical to the
// corresponding single-process run. Any malformed, truncated,
// version-mismatched, duplicated, or missing partial is a hard error with
// a nonzero exit — CI byte-diffs these reports, so a silent partial merge
// would defeat the gate.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "exp/aggregator.h"
#include "exp/cli.h"
#include "exp/partial.h"

namespace {

using namespace mwreg;

void print_usage(const char* prog) {
  std::printf("usage: %s [--out DIR] partial...\n", prog);
}

}  // namespace

int main(int argc, char** argv) {
  exp::SweepCli cli;
  std::string err;
  if (!exp::parse_sweep_cli(argc, argv, &cli, &err)) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    print_usage(argv[0]);
    return 2;
  }
  if (cli.help) {
    print_usage(argv[0]);
    return 0;
  }
  std::vector<std::string> paths;
  for (const std::string& arg : cli.extra) {
    if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      print_usage(argv[0]);
      return 2;
    }
    paths.push_back(arg);
  }
  if (paths.empty()) {
    std::fprintf(stderr, "error: no partial files given\n");
    print_usage(argv[0]);
    return 2;
  }

  // Load every partial; group by the report stem in the header.
  std::map<std::string, std::vector<exp::Partial>> groups;
  for (const std::string& path : paths) {
    exp::Partial p;
    if (!exp::load_partial(path, &p, &err)) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return 1;
    }
    groups[p.meta.name].push_back(std::move(p));
  }

  bool ok = true;
  for (const auto& entry : groups) {
    const std::string& stem = entry.first;
    std::vector<exp::TrialResult> merged;
    if (!exp::merge_partials(entry.second, &merged, &err)) {
      std::fprintf(stderr, "error: %s: %s\n", stem.c_str(), err.c_str());
      ok = false;
      continue;
    }
    const std::vector<exp::CellStats> cells = exp::aggregate(merged);
    const bool csv_ok = exp::write_report(
        exp::join_path(cli.out_dir, stem + ".csv"), exp::to_csv(cells));
    const bool json_ok = exp::write_report(
        exp::join_path(cli.out_dir, stem + ".json"), exp::to_json(cells));
    ok = ok && csv_ok && json_ok;
    if (csv_ok && json_ok) {
      std::printf("%s: merged %zu partials (%zu trials) -> %s.csv / .json "
                  "(%zu cells)\n",
                  stem.c_str(), entry.second.size(), merged.size(),
                  stem.c_str(), cells.size());
    }
  }
  return ok ? 0 : 1;
}
