// SimHarness: wires a cluster (Fig. 1) for one protocol on the simulator,
// instruments operations into a History, and exposes fault injection —
// one-shot (crash_random_servers) or declarative (install_fault_plan).
//
// Clients run on one ClientTable (core/client_table.h): every writer and
// reader is a struct-of-arrays slot in one Process, scaling to ~10^6
// concurrent clients per harness. Each op may carry a done callback;
// run_random_workload (core/workload.h) drives its closed loop through
// them. async_write/async_read address key 0.
//
// Every key has its own History; the classic layout is the one-key case.
// A KeyspaceConfig with num_keys > 1 turns the harness into a sharded
// multi-register deployment: each key is its own quorum group (KeyRouter
// per physical server id), hosted by this ONE harness.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/cluster.h"
#include "common/rng.h"
#include "consistency/history.h"
#include "consistency/streaming_checker.h"
#include "core/client_table.h"
#include "core/keyspace.h"
#include "core/protocol.h"
#include "sim/delay_model.h"
#include "sim/fault_plan.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace mwreg {

class SimHarness {
 public:
  struct Options {
    ClusterConfig cfg;
    std::uint64_t seed = 1;
    /// Defaults to UniformDelay(1ms, 10ms) when null.
    std::unique_ptr<DelayModel> delay;
    bool fifo = false;
    /// num_keys > 1 shards the harness into a multi-register keyspace.
    /// num_keys <= 1 keeps the classic layout.
    KeyspaceConfig keyspace;
    /// Ignored; kept only because benchmark/driver/sweeps.cpp assigns it.
    bool table_clients = false;
    /// Batch same-(destination, tick) deliveries into one simulator event
    /// (Network::Options::coalesce). Observably identical to the
    /// per-message engine — histories, digests, and stats match bit for
    /// bit — it only changes how fast the simulation runs. Default ON;
    /// per-message (false) is the registered ablation and the reference
    /// lane of the schedule fuzzer's engine-parity soak.
    bool coalesce = true;
    /// Delivery-time quantum (Network::Options::tick); 1 = exact-ns.
    Duration tick = 1;
    /// Ignored; kept only because benchmark/driver/soaks.cpp and sweeps.cpp
    /// assign it.
    bool dest_major = true;
    /// Subscribe a StreamingTagWitness to every key history so atomicity is
    /// checked live as operations complete (memory bounded by the
    /// concurrency window). Verdicts via stream_checker(k)->finish().
    bool streaming_check = false;
    /// With streaming_check: also retire each history's settled prefix as
    /// the checker's frontier advances, so recorder memory stays bounded on
    /// million-op runs. Retired records are gone — batch re-checks and
    /// latency scans then see only the live suffix.
    bool retire_history = false;
  };

  /// Throws std::invalid_argument on an invalid cluster or keyspace, or a
  /// reader-affine protocol on a keyspace with more keys than readers.
  SimHarness(const Protocol& proto, Options opts);

  Simulator& sim() { return sim_; }
  Network& net() { return *net_; }
  const ClusterConfig& cfg() const { return cfg_; }
  /// Key 0's history: the only one on the classic layout.
  History& history() { return key_histories_.front(); }
  Rng& rng() { return rng_; }

  /// Issue a write by writer index `wi` (key 0), recording it in the
  /// history. Returns the history OpId (useful to set_value on writes that
  /// never complete under fault injection).
  OpId async_write(int wi, std::int64_t payload,
                   std::function<void()> done = nullptr);
  /// Issue a read by reader index `ri` (key 0), recording it in the history.
  OpId async_read(int ri, std::function<void(TaggedValue)> done = nullptr);

  /// Keyed variants. The OpId indexes key `key`'s history. All four throw
  /// as ClientTable::start_write / start_read do (a bad index or key, or a
  /// client whose previous op is in flight) and then leave that op intact.
  OpId async_write_key(int wi, std::uint32_t key, std::int64_t payload,
                       std::function<void()> done = nullptr);
  OpId async_read_key(int ri, std::uint32_t key,
                      std::function<void(TaggedValue)> done = nullptr);

  /// Crash `count` distinct servers chosen with the harness Rng. In
  /// multi-key mode the ids drawn are shard 0's physical servers.
  std::vector<NodeId> crash_random_servers(int count);

  /// Schedule every step of `plan` as simulator events (resolved against
  /// this harness's cluster). The log is observable via fault_log() during
  /// and after run(). Call before run(); repeated installs compose.
  /// Single-register harnesses only (plans resolve against the classic id
  /// layout); a multi-key harness throws std::invalid_argument.
  void install_fault_plan(const FaultPlan& plan);

  /// Log of the most recently installed plan (null when none installed).
  [[nodiscard]] const FaultPlanLog* fault_log() const {
    return fault_log_.get();
  }

  /// Run the simulator to quiescence and return events executed.
  std::size_t run() { return sim_.run(); }

  // ---- keyspace / table-client surface ----

  [[nodiscard]] const KeyspaceConfig& keyspace() const { return keyspace_; }
  /// Number of registers hosted (1 for the classic layout).
  [[nodiscard]] int num_keys() const {
    return static_cast<int>(key_cfgs_.size());
  }
  /// Key `k`'s quorum group (the full cluster config for the classic
  /// layout).
  [[nodiscard]] const ClusterConfig& key_cfg(int k) const {
    return key_cfgs_[static_cast<std::size_t>(k)];
  }
  /// Key `k`'s history.
  History& key_history(int k) {
    return key_histories_[static_cast<std::size_t>(k)];
  }
  /// Key `k`'s live streaming checker; null unless Options::streaming_check.
  [[nodiscard]] StreamingTagWitness* stream_checker(int k) {
    return stream_checkers_.empty()
               ? nullptr
               : stream_checkers_[static_cast<std::size_t>(k)].get();
  }
  /// The client driver.
  [[nodiscard]] ClientTable* table() { return table_.get(); }

 private:
  void setup_streaming(bool retire);

  ClusterConfig cfg_;
  KeyspaceConfig keyspace_;
  Rng rng_;
  Simulator sim_;
  std::unique_ptr<Network> net_;
  SpikeDelay* spike_ = nullptr;  ///< owned by net_'s delay chain
  std::shared_ptr<FaultPlanLog> fault_log_;
  std::vector<std::unique_ptr<Process>> servers_;

  // key_cfgs_ / key_histories_ are sized once in the ctor and never resized
  // (the table holds pointers into them).
  std::vector<ClusterConfig> key_cfgs_;
  std::vector<History> key_histories_;
  std::unique_ptr<ClientTable> table_;
  std::vector<std::function<void()>> write_done_;
  std::vector<std::function<void(TaggedValue)>> read_done_;

  /// One live checker per key history (empty unless streaming_check).
  std::vector<std::unique_ptr<StreamingTagWitness>> stream_checkers_;
};

}  // namespace mwreg
