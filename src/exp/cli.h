// Tiny shared flag parser for the sweep drivers (sweep_explorer,
// sweep_merge). Replaces bare std::atoi(argv[i]) — which silently turns
// garbage into 0 — with strict full-token parsing: any unknown flag,
// malformed number, or out-of-range shard is a hard error the caller turns
// into usage + nonzero exit.
#pragma once

#include <string>
#include <vector>

#include "exp/runner.h"

namespace mwreg::exp {

/// The most worker threads --threads accepts. Runner starts
/// min(threads, trials) OS threads, and a sweep has thousands of trials, so
/// an unchecked value could ask the OS for thousands of threads at once.
inline constexpr int kMaxSweepThreads = 256;

/// Options every sweep driver shares.
struct SweepCli {
  /// --threads N, 0 <= N <= kMaxSweepThreads (0 = hardware concurrency;
  /// Runner's default).
  int threads = 0;
  /// --shard i/N (default 0/1: run everything in this process).
  ShardSpec shard;
  /// --out DIR for reports / partial artifacts (default ".").
  std::string out_dir = ".";
  /// --help was asked for: print usage and exit 0.
  bool help = false;
  /// Flags the shared parser does not know, in order (e.g. a driver's
  /// --sweep selector or positional file arguments). Drivers either
  /// consume these or reject them.
  std::vector<std::string> extra;
};

/// Strict full-token integer parse; returns false on empty/trailing
/// garbage/overflow instead of atoi's silent 0.
bool parse_int(const std::string& token, int* out);

/// Parse "i/N" into a ShardSpec and require 0 <= i < N.
bool parse_shard(const std::string& token, ShardSpec* out);

/// Parse argv. Returns false and fills *error on the first malformed flag
/// (missing value, bad number, thread count above kMaxSweepThreads, shard
/// out of range). Unrecognized tokens are collected into cli->extra, not
/// errors — the caller decides.
bool parse_sweep_cli(int argc, char** argv, SweepCli* cli, std::string* error);

/// One-line usage for the shared flags, for drivers to print above their
/// own extras.
std::string sweep_cli_usage();

/// Join `dir` and `file` with exactly one '/'.
std::string join_path(const std::string& dir, const std::string& file);

/// The canonical shard-partial filename: <stem>.shard<i>of<N>.partial.
std::string partial_filename(const std::string& stem, const ShardSpec& shard);

}  // namespace mwreg::exp
