#include "core/keyspace.h"

#include <algorithm>
#include <sstream>

namespace mwreg {

std::string KeyspaceConfig::to_string() const {
  std::ostringstream os;
  os << "K=" << num_keys << " shards=" << shards << " zipf=" << zipf_s;
  return os.str();
}

ZipfSampler::ZipfSampler(int num_keys, double s) {
  cdf_.resize(static_cast<std::size_t>(num_keys));
  double sum = 0;
  for (int k = 0; k < num_keys; ++k) {
    sum += std::pow(static_cast<double>(k + 1), -s);
    cdf_[static_cast<std::size_t>(k)] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

int ZipfSampler::sample(Rng& rng) const {
  const double u = rng.next_double();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const auto idx = static_cast<int>(it - cdf_.begin());
  return std::min(idx, static_cast<int>(cdf_.size()) - 1);
}

int reader_key_of(int ri, int num_keys, int num_readers) {
  // begin(k) = floor(k*R/K) is nondecreasing; start at the proportional
  // guess and nudge — at most one step in either direction.
  int k = static_cast<int>(static_cast<long long>(ri) * num_keys /
                           num_readers);
  if (k >= num_keys) k = num_keys - 1;
  while (k > 0 && reader_block_begin(k, num_keys, num_readers) > ri) --k;
  while (k + 1 < num_keys &&
         reader_block_begin(k + 1, num_keys, num_readers) <= ri) {
    ++k;
  }
  return k;
}

std::vector<ClusterConfig> key_clusters(const ClusterConfig& cfg,
                                        const KeyspaceConfig& ks,
                                        bool reader_affine) {
  if (!ks.multi()) return {cfg};
  std::vector<ClusterConfig> out;
  out.reserve(static_cast<std::size_t>(ks.num_keys));
  for (int k = 0; k < ks.num_keys; ++k) {
    ClusterConfig kc = cfg;
    kc.server_base = static_cast<NodeId>((k % ks.shards) * cfg.s());
    kc.client_base = static_cast<NodeId>(ks.shards * cfg.s());
    if (reader_affine) {
      const int begin = reader_block_begin(k, ks.num_keys, cfg.r());
      const int end = reader_block_begin(k + 1, ks.num_keys, cfg.r());
      kc.reader_base = kc.client_base + cfg.w() + begin;
      kc.num_readers = end - begin;
    }
    out.push_back(kc);
  }
  return out;
}

}  // namespace mwreg
