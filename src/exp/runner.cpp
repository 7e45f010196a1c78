#include "exp/runner.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "consistency/checkers.h"
#include "core/harness.h"
#include "protocols/protocols.h"

namespace mwreg::exp {

// ---- spec.h pieces that need protocol/delay definitions ----

DelayFactory constant_delay(Duration delay) {
  return [delay](const ClusterConfig&) {
    return std::make_unique<ConstantDelay>(delay);
  };
}

DelayFactory uniform_delay(Duration lo, Duration hi) {
  return [lo, hi](const ClusterConfig&) {
    return std::make_unique<UniformDelay>(lo, hi);
  };
}

DelayFactory lognormal_delay(Duration median, double sigma) {
  return [median, sigma](const ClusterConfig&) {
    return std::make_unique<LogNormalDelay>(median, sigma);
  };
}

std::string ExperimentSpec::validate() const {
  if (protocols.empty()) return "spec has no protocols";
  if (clusters.empty()) return "spec has no clusters";
  if (seeds <= 0) return "spec needs seeds >= 1";
  for (const std::string& p : protocols) {
    if (protocol_by_name(p) == nullptr) return "unknown protocol: " + p;
  }
  for (const ClusterConfig& c : clusters) {
    if (!c.valid()) return "invalid cluster: " + c.to_string();
  }
  std::set<std::string> plan_names;
  for (const FaultPlan& plan : fault_plans) {
    if (plan.name.empty()) return "fault plan needs a name";
    const std::string err = plan.validate();
    if (!err.empty()) return err;
    if (!plan_names.insert(plan.name).second) {
      return "duplicate fault plan name: " + plan.name;
    }
  }
  bool any_multi = false;
  for (const KeyspaceConfig& ks : keyspaces) {
    if (!ks.valid()) return "invalid keyspace: " + ks.to_string();
    any_multi = any_multi || ks.multi();
  }
  if (any_multi && !fault_plans.empty()) {
    return "fault plans cannot cross multi-key keyspaces";
  }
  for (const std::string& p : protocols) {
    if (!reader_key_affine(protocol_by_name(p)->table_reader())) continue;
    for (const ClusterConfig& c : clusters) {
      for (int ki = 0; ki < keyspace_points(); ++ki) {
        const KeyspaceConfig ks =
            keyspaces.empty() ? KeyspaceConfig{}
                              : keyspaces[static_cast<std::size_t>(ki)];
        if (ks.multi() && ks.num_keys > c.r()) {
          return "reader-affine protocol " + p + " needs num_keys <= R (" +
                 ks.to_string() + " vs " + c.to_string() + ")";
        }
      }
    }
  }
  return "";
}

// ---- trial execution ----

std::uint64_t cell_digest(const std::string& protocol,
                          const ClusterConfig& cfg) {
  // FNV-1a over the protocol name and cluster shape: a cell's RNG stream
  // depends only on what the cell IS, never on where it sits in a batch.
  std::uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  for (char c : protocol) mix(static_cast<unsigned char>(c));
  mix(static_cast<std::uint64_t>(cfg.s()));
  mix(static_cast<std::uint64_t>(cfg.w()));
  mix(static_cast<std::uint64_t>(cfg.r()));
  mix(static_cast<std::uint64_t>(cfg.t()));
  return h;
}

std::uint64_t cell_digest(const std::string& protocol,
                          const ClusterConfig& cfg, const FaultPlan& plan) {
  std::uint64_t h = cell_digest(protocol, cfg);
  // The fault-free cell keeps its historical digest so pre-fault-axis
  // sweeps reproduce bit-identically.
  if (plan.empty()) return h;
  return (h ^ plan.digest()) * 1099511628211ULL;
}

std::uint64_t cell_digest(const std::string& protocol,
                          const ClusterConfig& cfg, const FaultPlan* plan,
                          const KeyspaceConfig& keyspace) {
  std::uint64_t h = plan != nullptr ? cell_digest(protocol, cfg, *plan)
                                    : cell_digest(protocol, cfg);
  // Single-register keyspaces keep the historical digest: same seeds,
  // comparable runs.
  if (!keyspace.multi()) return h;
  auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  mix(static_cast<std::uint64_t>(keyspace.num_keys));
  mix(static_cast<std::uint64_t>(keyspace.shards));
  std::uint64_t zbits = 0;
  static_assert(sizeof zbits == sizeof keyspace.zipf_s, "double is 64-bit");
  std::memcpy(&zbits, &keyspace.zipf_s, sizeof zbits);
  mix(zbits);
  return h;
}

TrialResult run_trial(const ExperimentSpec& spec, int spec_index,
                      int cell_index, const std::string& protocol,
                      const ClusterConfig& cfg, std::uint64_t user_seed,
                      const FaultPlan* plan, const KeyspaceConfig* keyspace) {
  const Protocol* proto = protocol_by_name(protocol);
  if (proto == nullptr) {
    throw std::invalid_argument("unknown protocol: " + protocol);
  }
  TrialResult tr;
  tr.spec_index = spec_index;
  tr.cell_index = cell_index;
  tr.spec_name = spec.name;
  tr.protocol = protocol;
  tr.cfg = cfg;
  if (plan != nullptr) tr.fault_plan = plan->name;
  if (keyspace != nullptr) tr.keyspace = *keyspace;
  tr.user_seed = user_seed;
  tr.harness_seed =
      derive_seed(user_seed, cell_digest(protocol, cfg, plan, tr.keyspace));
  tr.expected_atomic = proto->guarantees_atomicity(cfg);

  SimHarness::Options o;
  o.cfg = cfg;
  o.seed = tr.harness_seed;
  o.fifo = spec.fifo;
  o.keyspace = tr.keyspace;
  o.coalesce = spec.coalesce;
  o.tick = spec.tick;
  o.streaming_check = spec.check_streaming;
  if (spec.delay) o.delay = spec.delay(cfg);
  SimHarness h(*proto, std::move(o));
  if (plan != nullptr) h.install_fault_plan(*plan);
  run_random_workload(h, spec.workload);

  // The trial is atomic iff every per-key history is (one history on the
  // classic layout). Latencies pool across keys.
  tr.tag_atomic = true;
  for (int k = 0; k < h.num_keys(); ++k) {
    const History& hist = h.key_history(k);
    const CheckResult tag = check_tag_witness(hist);
    if (!tag.atomic) {
      tr.tag_atomic = false;
      if (tr.violation.empty()) tr.violation = tag.violation;
    }
    if (spec.check_graph) {
      const CheckResult graph = check_unique_value_graph(hist);
      if (!graph.atomic) {
        tr.graph_atomic = false;
        if (tr.violation.empty()) tr.violation = graph.violation;
      }
    }
    if (spec.check_streaming) {
      StreamingTagWitness* sc = h.stream_checker(k);
      const CheckResult stream = sc->finish();
      if (!stream.atomic) {
        tr.stream_atomic = false;
        if (tr.violation.empty()) tr.violation = stream.violation;
      }
      tr.stream_peak_window =
          std::max(tr.stream_peak_window, sc->stats().peak_window);
    }
    const std::vector<double> w = latency_samples_ms(hist, OpKind::kWrite);
    const std::vector<double> r = latency_samples_ms(hist, OpKind::kRead);
    tr.write_ms.insert(tr.write_ms.end(), w.begin(), w.end());
    tr.read_ms.insert(tr.read_ms.end(), r.begin(), r.end());
    tr.completed_ops += hist.completed_count();
  }
  tr.msgs_sent = h.net().stats().sent;
  // Report the engine-independent (logical) event count: under coalescing a
  // batch event carries many frames, so substitute one event per enqueued
  // frame for each batch firing — exactly what the per-message engine would
  // have executed. Keeps trial digests comparable across engines.
  const CoalesceStats& cs = h.net().coalesce_stats();
  tr.sim_events =
      h.sim().executed() - cs.batches - cs.continuations + cs.enqueued;
  if (h.fault_log() != nullptr) {
    const FaultMetrics fm = compute_fault_metrics(h.history(), *h.fault_log());
    tr.faults_injected = fm.faults_injected;
    tr.ops_under_fault = fm.ops_under_fault;
    tr.recovery_ms = fm.recovery_ms;
  }
  return tr;
}

// ---- thread-pool fan-out ----

namespace {

/// A trial slot in the deterministic expansion order.
struct PendingTrial {
  const ExperimentSpec* spec;
  int spec_index;
  int cell_index;
  const std::string* protocol;
  const ClusterConfig* cfg;
  const FaultPlan* plan;          ///< null = fault-free
  const KeyspaceConfig* keyspace; ///< null = classic single register
  std::uint64_t user_seed;
};

std::vector<PendingTrial> expand(const std::vector<ExperimentSpec>& specs) {
  std::vector<PendingTrial> out;
  int cell = 0;
  for (std::size_t si = 0; si < specs.size(); ++si) {
    const ExperimentSpec& spec = specs[si];
    for (const std::string& p : spec.protocols) {
      for (const ClusterConfig& c : spec.clusters) {
        for (int ki = 0; ki < spec.keyspace_points(); ++ki) {
          const KeyspaceConfig* ks =
              spec.keyspaces.empty()
                  ? nullptr
                  : &spec.keyspaces[static_cast<std::size_t>(ki)];
          for (int pi = 0; pi < spec.plans(); ++pi) {
            const FaultPlan* plan =
                spec.fault_plans.empty()
                    ? nullptr
                    : &spec.fault_plans[static_cast<std::size_t>(pi)];
            for (int k = 0; k < spec.seeds; ++k) {
              out.push_back(
                  PendingTrial{&spec, static_cast<int>(si), cell, &p, &c, plan,
                               ks, spec.seed_lo + static_cast<unsigned>(k)});
            }
            ++cell;
          }
        }
      }
    }
  }
  return out;
}

}  // namespace

Runner::Runner(Options opts) : opts_(opts) {
  if (opts_.threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    opts_.threads = hw > 0 ? static_cast<int>(hw) : 1;
  }
}

std::vector<TrialResult> Runner::run(const ExperimentSpec& spec) const {
  return run_all({spec});
}

ExpansionInfo expansion_info(const std::vector<ExperimentSpec>& specs) {
  for (const ExperimentSpec& spec : specs) {
    const std::string err = spec.validate();
    if (!err.empty()) {
      throw std::invalid_argument("ExperimentSpec '" + spec.name + "': " + err);
    }
  }
  const std::vector<PendingTrial> pending = expand(specs);
  ExpansionInfo info;
  info.total_trials = pending.size();
  std::uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  auto mix_str = [&mix](const std::string& s) {
    mix(s.size());
    for (char c : s) mix(static_cast<unsigned char>(c));
  };
  for (const ExperimentSpec& spec : specs) {
    // Everything besides the cell identity that shapes a trial's numbers:
    // the workload shape and the result-identical engine knobs (the latter
    // so a per-message shard is never merged into a coalesced run even
    // though both would render the same report when complete).
    mix_str(spec.name);
    mix(static_cast<std::uint64_t>(spec.workload.ops_per_writer));
    mix(static_cast<std::uint64_t>(spec.workload.ops_per_reader));
    mix(static_cast<std::uint64_t>(spec.workload.think_lo));
    mix(static_cast<std::uint64_t>(spec.workload.think_hi));
    mix(static_cast<std::uint64_t>(spec.workload.crash_servers));
    mix(static_cast<std::uint64_t>(spec.workload.crash_after_ops));
    mix(static_cast<std::uint64_t>(spec.fifo));
    mix(static_cast<std::uint64_t>(spec.coalesce));
    mix(static_cast<std::uint64_t>(spec.tick));
    mix(static_cast<std::uint64_t>(spec.check_graph));
    mix(static_cast<std::uint64_t>(spec.check_streaming));
  }
  for (const PendingTrial& t : pending) {
    // derive_seed(user_seed, cell_digest) already folds in the protocol,
    // cluster, fault plan, and keyspace — the full cell identity.
    KeyspaceConfig ks;
    if (t.keyspace != nullptr) ks = *t.keyspace;
    mix(derive_seed(t.user_seed,
                    cell_digest(*t.protocol, *t.cfg, t.plan, ks)));
  }
  info.digest = h;
  return info;
}

std::vector<TrialResult> Runner::run_all(
    const std::vector<ExperimentSpec>& specs) const {
  for (const ExperimentSpec& spec : specs) {
    const std::string err = spec.validate();
    if (!err.empty()) {
      throw std::invalid_argument("ExperimentSpec '" + spec.name + "': " + err);
    }
  }
  if (!opts_.shard.valid()) {
    throw std::invalid_argument("invalid shard spec " + opts_.shard.to_string());
  }
  const std::vector<PendingTrial> expanded = expand(specs);
  // A process's slice of the expansion order: global index i belongs to
  // shard i % count. Trial results depend only on the cell and user seed
  // (derive_seed sub-seeding), never on slice composition, so the N slices
  // partition the single-process result set exactly.
  std::vector<std::uint64_t> indices;
  indices.reserve(opts_.shard.sharded()
                      ? expanded.size() / opts_.shard.count + 1
                      : expanded.size());
  for (std::size_t i = 0; i < expanded.size(); ++i) {
    if (static_cast<int>(i % opts_.shard.count) == opts_.shard.index) {
      indices.push_back(i);
    }
  }
  std::vector<PendingTrial> pending;
  pending.reserve(indices.size());
  for (std::uint64_t i : indices) pending.push_back(expanded[i]);
  std::vector<TrialResult> results(pending.size());

  // Work stealing off a shared counter: each worker claims the next
  // unclaimed trial and writes into its fixed slot, so the result vector's
  // order (and therefore every aggregate) is independent of scheduling.
  // A throwing trial (e.g. a DelayFactory that fails) stops the pool and
  // rethrows on the calling thread, same as the serial path.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;
  auto worker = [&]() {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= pending.size()) return;
      const PendingTrial& t = pending[i];
      try {
        results[i] = run_trial(*t.spec, t.spec_index, t.cell_index,
                               *t.protocol, *t.cfg, t.user_seed, t.plan,
                               t.keyspace);
        results[i].trial_index = indices[i];
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  const int threads =
      std::min<std::size_t>(static_cast<std::size_t>(opts_.threads),
                            pending.size() > 0 ? pending.size() : 1);
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) pool.emplace_back(worker);
    for (std::thread& th : pool) th.join();
  }
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

}  // namespace mwreg::exp
