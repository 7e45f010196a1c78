// First-class multi-register keyspace support: one SimHarness hosting many
// keys, each key its own quorum group (replica state + per-key history)
// inside a single simulation.
//
// Layout. With S servers per group and `shards` physical shards, the id
// space is
//   servers  [0, shards*S)        shard j owns [j*S, (j+1)*S)
//   writers  [shards*S, +W)       shared by every key
//   readers  [shards*S + W, +R)   shared, or partitioned into per-key
//                                 blocks for reader-affine protocols
// Key k maps to shard k % shards; its per-key ClusterConfig re-bases the
// server range onto that shard (cluster.h base offsets). A KeyRouter sits
// at each physical server id and dispatches on Frame::key to the per-key
// replica it owns — server implementations stay single-register and
// completely unaware of the keyspace.
//
// Key popularity is Zipfian (ZipfSampler); zipf_s = 0 degrades to uniform.
#pragma once

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/cluster.h"
#include "common/rng.h"
#include "sim/network.h"

namespace mwreg {

struct KeyspaceConfig {
  /// Number of registers. 0 and 1 both give the classic single-register
  /// layout; > 1 shards the harness into a multi-register keyspace.
  int num_keys = 0;
  /// Physical server groups; keys map to shard `key % shards`.
  int shards = 1;
  /// Zipf skew of key popularity (0 = uniform).
  double zipf_s = 0.0;

  /// Multi-key deployments change the id layout; single-key ones do not.
  [[nodiscard]] bool multi() const { return num_keys > 1; }

  [[nodiscard]] bool valid() const {
    return num_keys >= 0 && shards >= 1 && zipf_s >= 0.0 &&
           (!multi() || shards <= num_keys);
  }

  [[nodiscard]] std::string to_string() const;
};

/// Sample key indexes with Zipfian popularity: key k has weight
/// (k + 1)^-s. Precomputes the CDF once; sampling is one Rng draw plus a
/// binary search, allocation-free.
class ZipfSampler {
 public:
  ZipfSampler() = default;
  ZipfSampler(int num_keys, double s);

  /// Key index in [0, num_keys). Draws exactly one next_double().
  [[nodiscard]] int sample(Rng& rng) const;

  [[nodiscard]] int num_keys() const { return static_cast<int>(cdf_.size()); }

 private:
  std::vector<double> cdf_;  ///< inclusive prefix sums, normalized to 1
};

/// Reader-affine partitioning: key k's reader block is
/// [k*R/num_keys, (k+1)*R/num_keys). Used for protocols whose readers carry
/// per-register state (valQueues, server caches, watermarks) and therefore
/// serve exactly one key.
[[nodiscard]] inline int reader_block_begin(int key, int num_keys,
                                            int num_readers) {
  return static_cast<int>(static_cast<long long>(key) * num_readers /
                          num_keys);
}

/// Inverse of the block map: the key reader `ri` is affine to.
[[nodiscard]] int reader_key_of(int ri, int num_keys, int num_readers);

/// The quorum group of every key: `cfg` itself on the classic single-register
/// layout; otherwise, per key, `cfg`'s shape re-based onto shard
/// key % shards, with all keys sharing the client range after the server
/// block. `reader_affine` narrows each key's readers to its reader block.
[[nodiscard]] std::vector<ClusterConfig> key_clusters(const ClusterConfig& cfg,
                                                      const KeyspaceConfig& ks,
                                                      bool reader_affine);

/// One physical server slot of a shard: owns the per-key replicas of every
/// key on its shard and dispatches incoming requests on Frame::key.
/// Replicas are constructed with this router's node id (their replies carry
/// the right src); the router re-claims the network slot after each one so
/// deliveries land here first. A frame whose key this shard does not host,
/// or that no replica holds, throws std::logic_error in every build.
class KeyRouter final : public Process {
 public:
  KeyRouter(NodeId id, Network& net, int shard, int shards)
      : Process(id, net), shard_(shard), shards_(shards) {}

  /// Add the replica for the next key on this shard (call in increasing
  /// key order: keys j, j+shards, j+2*shards, ... for shard j).
  void add_replica(std::unique_ptr<Process> server) {
    replicas_.push_back(std::move(server));
    // The replica's Process ctor attached itself at our id; take it back.
    net().attach(id(), *this);
  }

  void on_message(const Frame& m) override {
    replicas_[replica_index(m.key)]->on_message(m);
  }

  /// Batched delivery: forward maximal same-replica runs as subspans, so a
  /// burst of requests for one key costs one demux and one virtual dispatch
  /// instead of one per frame.
  void on_deliver_batch(FrameSpan frames) override {
    std::size_t i = 0;
    while (i < frames.size()) {
      const std::size_t rep = replica_index(frames[i].key);
      std::size_t j = i + 1;
      while (j < frames.size() && replica_index(frames[j].key) == rep) ++j;
      replicas_[rep]->on_deliver_batch(frames.subspan(i, j - i));
      i = j;
    }
  }

  [[nodiscard]] std::size_t num_replicas() const { return replicas_.size(); }

 private:
  /// The index of `key`'s replica; throws if this router does not host it.
  /// The quotient and remainder come from one division.
  [[nodiscard]] std::size_t replica_index(std::uint32_t key) const {
    const std::uint32_t shards = static_cast<std::uint32_t>(shards_);
    const std::uint32_t rep = key / shards;
    if (key % shards != static_cast<std::uint32_t>(shard_) ||
        rep >= replicas_.size()) {
      refuse_key(key);
    }
    return rep;
  }
  [[noreturn]] void refuse_key(std::uint32_t key) const;

  int shard_;
  int shards_;
  std::vector<std::unique_ptr<Process>> replicas_;
};

}  // namespace mwreg
