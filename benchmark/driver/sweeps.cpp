// The two sweep workloads: design_sweep (Table 1 at statistical scale) and
// fault_sweep (the same layers with every canned fault plan live).
//
// A repetition is one whole sweep as a user runs it: build the specs and
// expand them (set-up), Runner::run_all on sweep_threads() workers, then
// exp::aggregate and both report renderings. Every repetition of a run
// uses the same seeds, so each must reproduce the first bit for bit.
//
// After the timed region every trial is rebuilt single-threaded from the
// public calls run_trial makes (derive_seed, SimHarness, install_fault_plan,
// run_random_workload, the tag-witness checker, latency_samples_ms) and must
// reproduce the Runner's result exactly. The traced run times that rebuild,
// with a span around each call.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "consistency/checkers.h"
#include "core/harness.h"
#include "core/workload.h"
#include "exp/aggregator.h"
#include "exp/runner.h"
#include "protocols/protocols.h"
#include "sim/fault_plan.h"

namespace mwbench {
namespace {

using namespace mwreg;

constexpr int kOpsPerClient = 8;
/// Trials per repetition = cells x seeds: 32 x 200 design trials and
/// 28 x 480 fault trials, about a second each on two threads.
constexpr int kDesignSeeds = 200;
constexpr int kFaultSeeds = 480;
/// Runner workers for both sweeps: two leave headroom on a shared host.
constexpr int kSweepThreads = 2;

/// kSweepThreads, capped at the host's hardware concurrency.
int sweep_threads() {
  const auto hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? std::min(kSweepThreads, hw) : kSweepThreads;
}

struct SweepDef {
  const char* name;
  std::vector<exp::ExperimentSpec> (*make)(std::uint64_t seed);
};

exp::ExperimentSpec base_spec(const char* name, std::uint64_t seed, int seeds) {
  exp::ExperimentSpec s;
  s.name = name;
  // Disjoint user-seed ranges per benchmark seed; seed 0 starts at 1.
  s.seed_lo = seed * static_cast<std::uint64_t>(seeds) + 1;
  s.seeds = seeds;
  s.workload.ops_per_writer = kOpsPerClient;
  s.workload.ops_per_reader = kOpsPerClient;
  return s;
}

std::vector<exp::ExperimentSpec> design_specs(std::uint64_t seed) {
  exp::ExperimentSpec s = base_spec("design_sweep", seed, kDesignSeeds);
  for (const Protocol* p : all_protocols()) s.protocols.push_back(p->name());
  s.clusters = {ClusterConfig{5, 2, 2, 1}, ClusterConfig{7, 2, 3, 1},
                ClusterConfig{7, 1, 3, 1}, ClusterConfig{9, 3, 4, 1}};
  return {s};
}

std::vector<exp::ExperimentSpec> fault_specs(std::uint64_t seed) {
  exp::ExperimentSpec s = base_spec("fault_sweep", seed, kFaultSeeds);
  s.protocols = {"mw-abd(W2R2)", "fast-read-mw(W2R1)",
                 "fast-read-mw-nogc(W2R1)", "regular-fast-read(W2R1)"};
  s.clusters = {ClusterConfig{5, 2, 2, 1}};
  s.fault_plans = scenarios::all();
  return {s};
}

/// One trial slot, in the Runner's expansion order for a single spec
/// without keyspaces: protocol, cluster, fault plan, seed.
struct TrialRef {
  const std::string* protocol = nullptr;
  const ClusterConfig* cfg = nullptr;
  const FaultPlan* plan = nullptr;  ///< null = fault-free
  std::uint64_t user_seed = 0;
  int cell = 0;
};

std::vector<TrialRef> expand(const exp::ExperimentSpec& spec) {
  std::vector<TrialRef> out;
  out.reserve(static_cast<std::size_t>(spec.trials()));
  int cell = 0;
  for (const std::string& p : spec.protocols) {
    for (const ClusterConfig& c : spec.clusters) {
      for (int pi = 0; pi < spec.plans(); ++pi) {
        const FaultPlan* plan =
            spec.fault_plans.empty()
                ? nullptr
                : &spec.fault_plans[static_cast<std::size_t>(pi)];
        for (int k = 0; k < spec.seeds; ++k) {
          out.push_back(TrialRef{
              &p, &c, plan, spec.seed_lo + static_cast<unsigned>(k), cell});
        }
        ++cell;
      }
    }
  }
  return out;
}

std::uint64_t planned_ops(const ClusterConfig& cfg) {
  return static_cast<std::uint64_t>(cfg.w() + cfg.r()) * kOpsPerClient;
}

/// A trial rebuilt from public calls, with the network counters the
/// Runner's TrialResult does not carry.
struct Decomposed {
  exp::TrialResult tr;
  NetworkStats net;
  CoalesceStats co;
  std::size_t invoked = 0;
};

Decomposed decompose_trial(const exp::ExperimentSpec& spec, const TrialRef& t,
                           Tracer* tracer) {
  static const AtomicityChecker* const kTagWitness =
      checker_by_name("tag-witness");
  Tracer::Scope trial(tracer, "bench.trial");
  Decomposed d;
  exp::TrialResult& tr = d.tr;
  const Protocol* proto = protocol_by_name(*t.protocol);
  tr.cell_index = t.cell;
  tr.spec_name = spec.name;
  tr.protocol = *t.protocol;
  tr.cfg = *t.cfg;
  if (t.plan != nullptr) tr.fault_plan = t.plan->name;
  tr.user_seed = t.user_seed;
  tr.harness_seed =
      derive_seed(t.user_seed, exp::cell_digest(*t.protocol, *t.cfg, t.plan,
                                                KeyspaceConfig{}));
  tr.expected_atomic = proto->guarantees_atomicity(*t.cfg);

  std::unique_ptr<SimHarness> h;
  {
    Tracer::Scope s(tracer, "core.harness");
    SimHarness::Options o;
    o.cfg = *t.cfg;
    o.seed = tr.harness_seed;
    o.fifo = spec.fifo;
    o.table_clients = spec.table_clients;
    o.coalesce = spec.coalesce;
    o.tick = spec.tick;
    o.dest_major = spec.dest_major;
    h = std::make_unique<SimHarness>(*proto, std::move(o));
  }
  if (t.plan != nullptr) {
    Tracer::Scope s(tracer, "sim.install_fault_plan");
    h->install_fault_plan(*t.plan);
  }
  {
    Tracer::Scope s(tracer, "core.workload");
    run_random_workload(*h, spec.workload);
  }
  {
    Tracer::Scope s(tracer, "consistency.batch_check");
    const CheckResult r = kTagWitness->check(h->history());
    tr.tag_atomic = r.atomic;
    if (!r.atomic) tr.violation = r.violation;
  }
  {
    Tracer::Scope s(tracer, "core.latency_scan");
    tr.write_ms = latency_samples_ms(h->history(), OpKind::kWrite);
    tr.read_ms = latency_samples_ms(h->history(), OpKind::kRead);
  }
  if (h->fault_log() != nullptr) {
    Tracer::Scope s(tracer, "core.fault_metrics");
    const FaultMetrics fm =
        compute_fault_metrics(h->history(), *h->fault_log());
    tr.faults_injected = fm.faults_injected;
    tr.ops_under_fault = fm.ops_under_fault;
    tr.recovery_ms = fm.recovery_ms;
  }
  tr.completed_ops = h->history().completed_count();
  d.invoked = h->history().size();
  d.net = h->net().stats();
  d.co = h->net().coalesce_stats();
  tr.msgs_sent = d.net.sent;
  tr.sim_events =
      h->sim().executed() - d.co.batches - d.co.continuations + d.co.enqueued;
  {
    Tracer::Scope s(tracer, "core.teardown");
    h.reset();
  }
  return d;
}

/// Names the first field where two results of one trial differ ("" = same).
std::string diff_trial(const exp::TrialResult& a, const exp::TrialResult& b) {
  if (a.harness_seed != b.harness_seed) return "harness_seed";
  if (a.sim_events != b.sim_events) return "sim_events";
  if (a.completed_ops != b.completed_ops) return "completed_ops";
  if (a.msgs_sent != b.msgs_sent) return "msgs_sent";
  if (a.tag_atomic != b.tag_atomic) return "verdict";
  if (a.write_ms != b.write_ms) return "write latencies";
  if (a.read_ms != b.read_ms) return "read latencies";
  if (a.faults_injected != b.faults_injected ||
      a.ops_under_fault != b.ops_under_fault ||
      a.recovery_ms != b.recovery_ms) {
    return "fault metrics";
  }
  return "";
}

/// Checks trials re-derived from public calls against the Runner's results
/// (same expansion index) and each one's network accounting.
class TrialAudit {
 public:
  explicit TrialAudit(const std::vector<exp::TrialResult>& runner)
      : runner_(runner) {}

  void add(std::size_t i, const Decomposed& d) {
    ++trials_;
    const NetworkStats& n = d.net;
    if (n.sent != n.delivered + n.held + n.to_crashed + n.from_crashed +
                      n.dropped_unattached) {
      ++not_conserved_;
    }
    if (d.invoked < d.tr.completed_ops || d.invoked > planned_ops(d.tr.cfg)) {
      ++inconsistent_;
    }
    const std::string diff =
        i < runner_.size() ? diff_trial(d.tr, runner_[i])
                           : std::string("a trial the Runner did not run");
    if (mismatch_.empty() && !diff.empty()) {
      mismatch_ = strf("trial %zu differs in %s", i, diff.c_str());
    }
  }

  void report(Report* out) const {
    std::string why = mismatch_;
    if (why.empty() && trials_ != runner_.size()) {
      why = strf("%zu trials re-derived, the Runner ran %zu", trials_,
                 runner_.size());
    }
    out->check("re-derived trials equal the Runner's TrialResults",
               why.empty(), why.empty() ? strf("%zu trials", trials_) : why);
    out->check("NetworkStats conserved at quiescence", not_conserved_ == 0,
               strf("%zu of %zu trials violate", not_conserved_, trials_));
    out->check("every invoked op completed or counted failed",
               inconsistent_ == 0,
               strf("%zu of %zu trials inconsistent", inconsistent_, trials_));
  }

 private:
  const std::vector<exp::TrialResult>& runner_;
  std::size_t trials_ = 0;
  std::size_t not_conserved_ = 0;
  std::size_t inconsistent_ = 0;
  std::string mismatch_;
};

std::string results_digest(const std::vector<exp::TrialResult>& results,
                           const std::string& json_report) {
  Fnv f;
  for (const exp::TrialResult& tr : results) {
    f.mix(tr.trial_index);
    f.mix(tr.harness_seed);
    f.mix(tr.sim_events);
    f.mix(tr.msgs_sent);
    f.mix(tr.completed_ops);
    f.mix(tr.tag_atomic ? 1 : 0);
    f.mix_doubles(tr.write_ms);
    f.mix_doubles(tr.read_ms);
    f.mix(static_cast<std::uint64_t>(tr.faults_injected));
    f.mix(tr.ops_under_fault);
    f.mix_double(tr.recovery_ms);
  }
  f.mix_string(json_report);
  return f.hex();
}

struct SweepRep {
  std::vector<exp::ExperimentSpec> specs;
  std::vector<exp::TrialResult> results;
  std::vector<double> setup_samples;
  double setup_s = 0;  ///< fastest of setup_samples
  double run_s = 0;    ///< run_all + aggregate + both reports
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::string digest;
};

SweepRep sweep_rep(const SweepDef& def, std::uint64_t seed, int threads) {
  // Set-up (building and expanding the specs) takes well under a
  // millisecond, so it is repeated and the fastest sample taken (see
  // Reduce); the last expansion is the one that runs.
  constexpr int kSetupSamples = 16;
  SweepRep rep;
  exp::Runner::Options ro;
  ro.threads = threads;
  for (int i = 0; i < kSetupSamples; ++i) {
    const Clock::time_point t0 = Clock::now();
    rep.specs = def.make(seed);
    (void)exp::expansion_info(rep.specs);
    const exp::Runner runner(ro);
    rep.setup_samples.push_back(seconds_between(t0, Clock::now()));
  }
  rep.setup_s = fastest_of(rep.setup_samples);
  const exp::Runner runner(ro);
  const Clock::time_point t1 = Clock::now();
  rep.results = runner.run_all(rep.specs);
  const std::vector<exp::CellStats> cells = exp::aggregate(rep.results);
  const std::string csv = exp::to_csv(cells);
  const std::string json = exp::to_json(cells);
  rep.run_s = seconds_between(t1, Clock::now());
  for (const exp::TrialResult& tr : rep.results) {
    rep.attempted += planned_ops(tr.cfg);
    rep.completed += tr.completed_ops;
  }
  rep.digest = results_digest(rep.results, csv + json);
  return rep;
}

std::uint64_t verdict_mismatches(const std::vector<exp::TrialResult>& rs) {
  std::uint64_t n = 0;
  for (const exp::TrialResult& tr : rs) {
    if (tr.expected_atomic && !tr.atomic()) ++n;
  }
  return n;
}

/// Simulated latency pooled over every trial.
void add_pooled_latency(const std::vector<exp::TrialResult>& rs, Report* out) {
  std::vector<double> w, r;
  for (const exp::TrialResult& tr : rs) {
    w.insert(w.end(), tr.write_ms.begin(), tr.write_ms.end());
    r.insert(r.end(), tr.read_ms.begin(), tr.read_ms.end());
  }
  add_latency_metrics(std::move(w), std::move(r), out);
}

void record_ops(const SweepRep& rep, Report* out) {
  out->attempted = rep.attempted;
  out->completed = rep.completed;
  out->verdict_mismatches = verdict_mismatches(rep.results);
  out->check("verdicts match guarantees_atomicity",
             out->verdict_mismatches == 0,
             strf("%llu contradicting trials",
                  static_cast<unsigned long long>(out->verdict_mismatches)));
}

void untraced_sweep(const SweepDef& def, const RunConfig& rc, Report* out) {
  const Clock::time_point start = Clock::now();
  SweepRep first;
  std::uint64_t diverged = 0;
  do {
    SweepRep rep = sweep_rep(def, rc.seed, sweep_threads());
    if (out->reps == 0) {
      // The first repetition warms caches and the allocator: checked and
      // kept as the reference, but not timed.
      first = std::move(rep);
    } else {
      for (double s : rep.setup_samples) {
        out->add("setup_s", s, Reduce::kLowest);
      }
      out->add("trials_per_s",
               static_cast<double>(rep.results.size()) /
                   (rep.setup_s + rep.run_s),
               Reduce::kHighest);
      out->add("ops_per_s", static_cast<double>(rep.completed) / rep.run_s,
               Reduce::kHighest);
      if (rep.digest != first.digest) ++diverged;
    }
    ++out->reps;
  } while (seconds_between(start, Clock::now()) < rc.seconds || out->reps < 2);
  out->add("peak_rss_mb", peak_rss_mb());

  // ---- correctness, after the timed region ----
  out->check("repetitions reproduce the first bit for bit", diverged == 0,
             strf("%llu of %llu differ",
                  static_cast<unsigned long long>(diverged),
                  static_cast<unsigned long long>(out->reps)));
  record_ops(first, out);
  add_pooled_latency(first.results, out);

  // Re-derive every trial from public calls: the Runner's results must be
  // reproduced exactly, and each trial's network accounting must balance.
  const std::vector<TrialRef> refs = expand(first.specs[0]);
  TrialAudit audit(first.results);
  Fnv digest;
  digest.mix_string(first.digest);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const Decomposed d = decompose_trial(first.specs[0], refs[i], nullptr);
    audit.add(i, d);
    digest.mix(d.net.bytes_sent);
  }
  audit.report(out);
  out->sim_digest = digest.hex();
}

/// Counters summed over every trial of the traced repetitions.
struct LayerCounters {
  std::uint64_t trials = 0;
  std::uint64_t invoked = 0;
  std::uint64_t completed = 0;
  std::uint64_t events = 0;
  NetworkStats net;
  CoalesceStats co;

  void add(const Decomposed& d) {
    ++trials;
    invoked += d.invoked;
    completed += d.tr.completed_ops;
    events += d.tr.sim_events;
    net.sent += d.net.sent;
    net.bytes_sent += d.net.bytes_sent;
    net.to_crashed += d.net.to_crashed;
    net.from_crashed += d.net.from_crashed;
    co.batches += d.co.batches;
    co.continuations += d.co.continuations;
    co.frames += d.co.frames;
    co.dest_major += d.co.dest_major;
    co.staged += d.co.staged;
    for (int b = 0; b < CoalesceStats::kHistBuckets; ++b) {
      co.hist[b] += d.co.hist[b];
    }
  }
};

void traced_sweep(const SweepDef& def, const RunConfig& rc, Report* out) {
  // Phase A: untraced Runner on sweep_threads() workers (the trials_per_s the
  // parallel efficiency is judged against, and the reference results).
  // Phase B: untraced Runner on one thread (the trace-overhead baseline).
  // Phase C: the traced single-threaded decomposition. Each phase runs at
  // least two repetitions; phase A's first only warms up.
  auto phase = [&](double share, auto&& body) {
    const Clock::time_point t0 = Clock::now();
    int n = 0;
    do {
      body(n++);
    } while (seconds_between(t0, Clock::now()) < share * rc.seconds || n < 2);
  };

  SweepRep reference;
  std::vector<double> tps_parallel, wall_serial, wall_traced, trial_us;
  phase(0.3, [&](int n) {
    SweepRep rep = sweep_rep(def, rc.seed, sweep_threads());
    if (n == 0) {
      reference = std::move(rep);
    } else {
      tps_parallel.push_back(static_cast<double>(rep.results.size()) /
                             (rep.setup_s + rep.run_s));
    }
  });
  phase(0.25, [&](int) {
    const SweepRep rep = sweep_rep(def, rc.seed, 1);
    wall_serial.push_back(rep.setup_s + rep.run_s);
  });

  Tracer tracer;
  LayerCounters lc;
  TrialAudit audit(reference.results);
  SweepRep traced_first;
  phase(0.45, [&](int n) {
    tracer.set_keep_spans(n == 0);
    SweepRep rep;
    const Clock::time_point r0 = Clock::now();
    std::string csv, json;
    {
      Tracer::Scope rs(&tracer, "bench.rep");
      {
        Tracer::Scope s(&tracer, "exp.setup");
        rep.specs = def.make(rc.seed);
        (void)exp::expansion_info(rep.specs);
      }
      const std::vector<TrialRef> refs = expand(rep.specs[0]);
      rep.results.reserve(refs.size());
      for (std::size_t i = 0; i < refs.size(); ++i) {
        const Clock::time_point t0 = Clock::now();
        Decomposed d = decompose_trial(rep.specs[0], refs[i], &tracer);
        trial_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
        d.tr.trial_index = i;
        lc.add(d);
        if (n == 0) audit.add(i, d);
        rep.attempted += planned_ops(d.tr.cfg);
        rep.completed += d.tr.completed_ops;
        rep.results.push_back(std::move(d.tr));
      }
      std::vector<exp::CellStats> cells;
      {
        Tracer::Scope s(&tracer, "exp.aggregate");
        cells = exp::aggregate(rep.results);
      }
      {
        Tracer::Scope s(&tracer, "exp.report");
        csv = exp::to_csv(cells);
        json = exp::to_json(cells);
      }
    }
    wall_traced.push_back(seconds_between(r0, Clock::now()));
    if (n == 0) {
      rep.digest = results_digest(rep.results, csv + json);
      traced_first = std::move(rep);
    }
  });

  // ---- trace fidelity and correctness ----
  audit.report(out);
  out->check("traced reports equal the Runner's",
             traced_first.digest == reference.digest);
  record_ops(traced_first, out);
  out->reps = wall_traced.size();
  out->sim_digest = traced_first.digest;

  // ---- per-layer metrics, over every traced repetition ----
  const std::map<std::string, double>& self = tracer.self_seconds();
  auto self_s = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  double wall = 0;
  for (double w : wall_traced) wall += w;
  const double trials = static_cast<double>(lc.trials);
  const double ops = static_cast<double>(lc.completed);
  const double workload_s = self_s("core.workload");
  // Against the untraced single-thread run, so tracing cost does not
  // flatter the pool.
  const double serial_tps =
      static_cast<double>(traced_first.results.size()) / median_of(wall_serial);
  const double coverage =
      1.0 - (self_s("bench.rep") + self_s("bench.trial")) / wall;

  out->add("sim.events_per_s",
           ratio(static_cast<double>(lc.events), workload_s));
  out->add("sim.events_per_op", ratio(static_cast<double>(lc.events), ops));
  out->add("sim.steady_allocs", 0);  // fresh harness per trial: no steady state
  add_net_metrics(lc.net, lc.co, lc.completed, out);
  out->add("core.harness_us_per_trial", self_s("core.harness") / trials * 1e6);
  out->add("core.workload_us_per_trial", workload_s / trials * 1e6);
  out->add("core.latency_scan_us_per_trial",
           self_s("core.latency_scan") / trials * 1e6);
  out->add("core.workload_ns_per_op", workload_s / ops * 1e9);
  out->add("consistency.check_ns_per_op",
           self_s("consistency.batch_check") / ops * 1e9);
  out->add("consistency.batch_share", self_s("consistency.batch_check") / wall);
  out->add("consistency.stream_share", 0);
  out->add("consistency.peak_window", 0);
  out->add("consistency.peak_pending", 0);
  // Each trial's recorder keeps its whole history to the end.
  out->add("consistency.history_live",
           ratio(static_cast<double>(lc.invoked), trials));
  out->add("exp.trial_host_us_p50", quantile_of(trial_us, 0.50));
  out->add("exp.trial_host_us_p99", quantile_of(trial_us, 0.99));
  out->add("exp.aggregate_share", self_s("exp.aggregate") / wall);
  out->add("exp.report_share", self_s("exp.report") / wall);
  out->add("exp.parallel_efficiency",
           median_of(tps_parallel) / (serial_tps * sweep_threads()));
  out->add("trace.overhead_frac",
           fastest_of(wall_traced) / fastest_of(wall_serial) - 1.0);
  out->add("trace.coverage", coverage);
  check_coverage(coverage, out);

  for (const auto& [name, secs] : self) {
    out->note(strf("self %-28s %9.4f s  %5.1f%%", name.c_str(), secs,
                   100.0 * secs / wall));
  }
  out->note(strf("traced wall %.3f s over %zu repetitions; untraced 1-thread "
                 "%.3f s, %d-thread %.1f trials/s",
                 wall, wall_traced.size(), median_of(wall_serial),
                 sweep_threads(), median_of(tps_parallel)));
  if (!rc.spans_path.empty() &&
      !tracer.write(rc.spans_path, def.name, rc.seed)) {
    out->check("spans written", false, rc.spans_path);
  }
}

void run_sweep(const SweepDef& def, const RunConfig& rc, Report* out) {
  if (rc.trace) {
    traced_sweep(def, rc, out);
  } else {
    untraced_sweep(def, rc, out);
  }
}

}  // namespace

void run_design_sweep(const RunConfig& rc, Report* out) {
  run_sweep(SweepDef{"design_sweep", design_specs}, rc, out);
}

void run_fault_sweep(const RunConfig& rc, Report* out) {
  run_sweep(SweepDef{"fault_sweep", fault_specs}, rc, out);
}

}  // namespace mwbench
