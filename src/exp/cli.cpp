#include "exp/cli.h"

#include <cerrno>
#include <climits>
#include <cstdlib>

namespace mwreg::exp {

bool parse_int(const std::string& token, int* out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(token.c_str(), &end, 10);
  if (errno != 0 || end != token.c_str() + token.size()) return false;
  if (v < INT_MIN || v > INT_MAX) return false;
  *out = static_cast<int>(v);
  return true;
}

bool parse_shard(const std::string& token, ShardSpec* out) {
  const std::size_t slash = token.find('/');
  if (slash == std::string::npos) return false;
  ShardSpec s;
  if (!parse_int(token.substr(0, slash), &s.index)) return false;
  if (!parse_int(token.substr(slash + 1), &s.count)) return false;
  if (!s.valid()) return false;
  *out = s;
  return true;
}

bool parse_sweep_cli(int argc, char** argv, SweepCli* cli,
                     std::string* error) {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag, std::string* v) {
      if (i + 1 >= argc) return false;
      *v = argv[++i];
      (void)flag;
      return true;
    };
    if (arg == "--help" || arg == "-h") {
      cli->help = true;
    } else if (arg == "--threads") {
      std::string v;
      if (!value("--threads", &v) || !parse_int(v, &cli->threads) ||
          cli->threads < 0) {
        return fail("--threads needs a non-negative integer, got '" + v + "'");
      }
      if (cli->threads > kMaxSweepThreads) {
        return fail("--threads is at most " + std::to_string(kMaxSweepThreads) +
                    ", got '" + v + "'");
      }
    } else if (arg == "--shard") {
      std::string v;
      if (!value("--shard", &v) || !parse_shard(v, &cli->shard)) {
        return fail("--shard needs i/N with 0 <= i < N, got '" + v + "'");
      }
    } else if (arg == "--out") {
      if (!value("--out", &cli->out_dir) || cli->out_dir.empty()) {
        return fail("--out needs a directory");
      }
    } else {
      cli->extra.push_back(arg);
    }
  }
  return true;
}

std::string sweep_cli_usage() {
  return "[--threads N (at most " + std::to_string(kMaxSweepThreads) +
         ")] [--shard i/N] [--out DIR]";
}

std::string join_path(const std::string& dir, const std::string& file) {
  if (dir.empty() || dir == ".") return file;
  if (dir.back() == '/') return dir + file;
  return dir + "/" + file;
}

std::string partial_filename(const std::string& stem, const ShardSpec& shard) {
  return stem + ".shard" + std::to_string(shard.index) + "of" +
         std::to_string(shard.count) + ".partial";
}

}  // namespace mwreg::exp
