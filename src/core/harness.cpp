#include "core/harness.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace mwreg {

SimHarness::SimHarness(const Protocol& proto, Options opts)
    : cfg_(opts.cfg), keyspace_(opts.keyspace), rng_(opts.seed) {
  // Refused in every build, worded as ExperimentSpec::validate words them.
  if (!cfg_.valid()) {
    throw std::invalid_argument("invalid cluster: " + cfg_.to_string());
  }
  if (!keyspace_.valid()) {
    throw std::invalid_argument("invalid keyspace: " + keyspace_.to_string());
  }
  std::unique_ptr<DelayModel> delay = std::move(opts.delay);
  if (!delay) {
    delay = std::make_unique<UniformDelay>(1 * kMillisecond, 10 * kMillisecond);
  }
  // Every harness delay is wrapped in a SpikeDelay so fault plans can
  // inject delay spikes; at factor 1.0 the wrapper is transparent.
  auto spike = std::make_unique<SpikeDelay>(std::move(delay));
  spike_ = spike.get();
  Network::Options nopts;
  nopts.fifo = opts.fifo;
  nopts.coalesce = opts.coalesce;
  nopts.tick = opts.tick;
  net_ = std::make_unique<Network>(sim_, std::move(spike), rng_.fork(), nopts);

  const bool affine = reader_key_affine(proto.table_reader());
  if (affine && keyspace_.multi() && keyspace_.num_keys > cfg_.r()) {
    throw std::invalid_argument(
        "reader-affine protocol " + proto.name() + " needs num_keys <= R (" +
        keyspace_.to_string() + " vs " + cfg_.to_string() + ")");
  }
  key_cfgs_ = key_clusters(cfg_, keyspace_, affine);
  key_histories_.resize(key_cfgs_.size());
  ClusterConfig global = cfg_;  // the client id ranges
  if (!keyspace_.multi()) {
    // Single register: the classic layout verbatim — same server ids, same
    // client ids — so fault plans and golden digests carry over unchanged.
    for (NodeId s : cfg_.server_ids()) {
      servers_.push_back(proto.make_server(s, *net_, cfg_));
    }
  } else {
    const int nk = keyspace_.num_keys;
    const int num_shards = keyspace_.shards;
    const int servers_per_group = cfg_.s();
    // One KeyRouter per physical server id; shard j's router at slot i owns
    // the replicas of keys j, j+shards, j+2*shards, ...
    for (int j = 0; j < num_shards; ++j) {
      for (int i = 0; i < servers_per_group; ++i) {
        const NodeId id = static_cast<NodeId>(j * servers_per_group + i);
        auto router = std::make_unique<KeyRouter>(id, *net_, j, num_shards);
        for (int k = j; k < nk; k += num_shards) {
          router->add_replica(
              proto.make_server(id, *net_, key_cfgs_[static_cast<std::size_t>(k)]));
        }
        servers_.push_back(std::move(router));
      }
    }
    global.client_base =
        static_cast<NodeId>(num_shards * servers_per_group);
  }

  std::vector<History*> histories;
  histories.reserve(key_histories_.size());
  for (History& h : key_histories_) histories.push_back(&h);
  table_ = std::make_unique<ClientTable>(*net_, global, key_cfgs_,
                                         proto.table_writer(),
                                         proto.table_reader(),
                                         std::move(histories));
  write_done_.resize(static_cast<std::size_t>(cfg_.w()));
  read_done_.resize(static_cast<std::size_t>(cfg_.r()));
  table_->set_on_complete(
      [this](int slot, OpKind kind, const TaggedValue& value) {
        if (kind == OpKind::kWrite) {
          auto done = std::move(write_done_[static_cast<std::size_t>(slot)]);
          write_done_[static_cast<std::size_t>(slot)] = nullptr;
          if (done) done();
        } else {
          const auto ri =
              static_cast<std::size_t>(slot - table_->writer_count());
          auto done = std::move(read_done_[ri]);
          read_done_[ri] = nullptr;
          if (done) done(value);
        }
      });
  if (opts.streaming_check) setup_streaming(opts.retire_history);
}

void SimHarness::setup_streaming(bool retire) {
  // One live checker per key history; the recorder feeds it every
  // invocation/value/completion in simulation-time order, which is exactly
  // the event order the streaming algorithm requires.
  stream_checkers_.reserve(static_cast<std::size_t>(num_keys()));
  for (int k = 0; k < num_keys(); ++k) {
    auto checker = std::make_unique<StreamingTagWitness>();
    History& hist = key_history(k);
    if (retire) checker->retire_history(&hist);
    hist.subscribe(checker.get());
    stream_checkers_.push_back(std::move(checker));
  }
}

OpId SimHarness::async_write(int wi, std::int64_t payload,
                             std::function<void()> done) {
  return async_write_key(wi, 0, payload, std::move(done));
}

OpId SimHarness::async_read(int ri, std::function<void(TaggedValue)> done) {
  return async_read_key(ri, 0, std::move(done));
}

// The done callback is stored only once the start succeeded, so a refused
// call leaves the in-flight op's callback in place. Completions come from
// deliveries, never from inside start_*, so none can fire before the store.
OpId SimHarness::async_write_key(int wi, std::uint32_t key,
                                 std::int64_t payload,
                                 std::function<void()> done) {
  const OpId op = table_->start_write(wi, key, payload);
  write_done_[static_cast<std::size_t>(wi)] = std::move(done);
  return op;
}

OpId SimHarness::async_read_key(int ri, std::uint32_t key,
                                std::function<void(TaggedValue)> done) {
  const OpId op = table_->start_read(ri, key);
  read_done_[static_cast<std::size_t>(ri)] = std::move(done);
  return op;
}

void SimHarness::install_fault_plan(const FaultPlan& plan) {
  // Fault plans resolve against the single-register layout.
  if (keyspace_.multi()) {
    throw std::invalid_argument("fault plans cannot cross multi-key keyspaces");
  }
  // Repeated installs share one log, so composed plans account together.
  fault_log_ = mwreg::install_fault_plan(*net_, cfg_, plan, spike_, fault_log_);
}

std::vector<NodeId> SimHarness::crash_random_servers(int count) {
  if (count < 0 || count > cfg_.s()) {
    throw std::invalid_argument(
        "crash_random_servers: count " + std::to_string(count) +
        " outside [0, " + std::to_string(cfg_.s()) + "] for " +
        cfg_.to_string());
  }
  std::vector<NodeId> ids = cfg_.server_ids();
  rng_.shuffle(ids);
  ids.resize(static_cast<std::size_t>(count));
  for (NodeId id : ids) net_->crash(id);
  return ids;
}

}  // namespace mwreg
