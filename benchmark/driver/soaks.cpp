// The three soak workloads: one SimHarness hosting a Zipfian keyspace,
// driven by table clients in a closed loop at a 10 us delivery tick.
//
//  keyspace_soak      mw-abd(W2R2), 64 keys on 8 shards, no checker: the
//                     engine and network.
//  checked_soak       the same harness and seed with streaming_check and
//                     retire_history on, so the pair isolates the checker.
//  fastread_keyspace  fast-read-mw(W2R1), S = 13, 10 readers per key: the
//                     protocol handlers and codec, inside R < S/t - 2.
//
// A repetition builds a fresh harness (set-up) and runs the workload to
// quiescence (the timed region). Every repetition uses the same seed and
// must reproduce the first bit for bit.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "consistency/checkers.h"
#include "consistency/streaming_checker.h"
#include "core/harness.h"
#include "core/workload.h"
#include "protocols/protocols.h"

namespace mwbench {
namespace {

using namespace mwreg;

struct SoakDef {
  const char* name;
  const char* protocol;
  ClusterConfig cfg;  ///< S, t and the whole client population
  KeyspaceConfig keyspace;
  int ops_per_client;
  bool checked;
};

const SoakDef kKeyspaceSoak{"keyspace_soak", "mw-abd(W2R2)",
                            ClusterConfig{5, 20000, 20000, 1},
                            KeyspaceConfig{64, 8, 0.99}, 5, false};
// The same harness, seed and ops with the live checker: the pair isolates it.
const SoakDef kCheckedSoak{"checked_soak", kKeyspaceSoak.protocol,
                           kKeyspaceSoak.cfg, kKeyspaceSoak.keyspace,
                           kKeyspaceSoak.ops_per_client, true};
// A fast-read reader keeps a key's witness sets as 64-bit masks over the
// key's client ids (all writers, then the key's reader block), so the whole
// population stays within 64 ids: 24 writers and 40 readers, 10 per key.
const SoakDef kFastReadKeyspace{"fastread_keyspace", "fast-read-mw(W2R1)",
                                ClusterConfig{13, 24, 40, 1},
                                KeyspaceConfig{4, 2, 0.99}, 250, false};

SimHarness::Options soak_options(const SoakDef& def, std::uint64_t seed,
                                 bool streaming) {
  SimHarness::Options o;
  o.cfg = def.cfg;
  o.keyspace = def.keyspace;
  o.seed = seed;
  o.delay = std::make_unique<UniformDelay>(1 * kMillisecond, 10 * kMillisecond);
  o.coalesce = true;
  o.tick = 10 * kMicrosecond;
  o.dest_major = true;
  o.streaming_check = streaming;
  o.retire_history = streaming;
  return o;
}

WorkloadOptions soak_workload(const SoakDef& def) {
  WorkloadOptions w;
  w.ops_per_writer = def.ops_per_client;
  w.ops_per_reader = def.ops_per_client;
  return w;
}

std::uint64_t planned_ops(const SoakDef& def) {
  return static_cast<std::uint64_t>(def.cfg.w() + def.cfg.r()) *
         static_cast<std::uint64_t>(def.ops_per_client);
}

/// Whether every key's client ids fit the 64-bit witness masks of a
/// reader-affine (fast-read) protocol; other protocols keep no masks.
bool fits_witness_masks(const Protocol& proto, const SimHarness& h) {
  const TableReaderProgram rp = proto.table_reader();
  if (rp != TableReaderProgram::kFrFull && rp != TableReaderProgram::kFrDelta) {
    return true;
  }
  for (int k = 0; k < h.num_keys(); ++k) {
    const ClusterConfig& kc = h.key_cfg(k);
    if (kc.id_end() - kc.first_client() > 64) return false;
  }
  return true;
}

/// Simulated counts of one run; equal counts on equal seeds.
struct SoakCounts {
  std::uint64_t events = 0;  ///< logical: one per frame, as exp::Runner counts
  NetworkStats net;
  std::uint64_t invoked = 0;
  std::uint64_t completed = 0;

  [[nodiscard]] bool conserved() const {
    return net.sent == net.delivered + net.held + net.to_crashed +
                           net.from_crashed + net.dropped_unattached;
  }
  [[nodiscard]] bool operator==(const SoakCounts& o) const {
    return events == o.events && net.sent == o.net.sent &&
           net.bytes_sent == o.net.bytes_sent &&
           net.delivered == o.net.delivered && invoked == o.invoked &&
           completed == o.completed;
  }
  void mix_into(Fnv& f) const {
    f.mix(events);
    f.mix(net.sent);
    f.mix(net.bytes_sent);
    f.mix(net.delivered);
    f.mix(invoked);
    f.mix(completed);
  }
};

/// `checkers` empty: completions are counted from the (unretired)
/// histories; else from each key's streaming checker.
SoakCounts collect(SimHarness& h,
                   const std::vector<StreamingTagWitness*>& checkers) {
  SoakCounts c;
  const CoalesceStats& cs = h.net().coalesce_stats();
  c.events = h.sim().executed() - cs.batches - cs.continuations + cs.enqueued;
  c.net = h.net().stats();
  for (int k = 0; k < h.num_keys(); ++k) {
    const History& hist = h.key_history(k);
    c.invoked += hist.size();
    const auto ks = static_cast<std::size_t>(k);
    c.completed += checkers.empty() ? hist.completed_count()
                                    : checkers[ks]->stats().completions;
  }
  return c;
}

bool same_stats(const StreamingStats& a, const StreamingStats& b) {
  return a.ops_seen == b.ops_seen && a.completions == b.completions &&
         a.peak_window == b.peak_window && a.peak_pending == b.peak_pending &&
         a.peak_unresolved == b.peak_unresolved &&
         a.retired_tags == b.retired_tags;
}

void mix_stats(Fnv& f, const StreamingStats& s) {
  f.mix(s.ops_seen);
  f.mix(s.completions);
  f.mix(s.peak_window);
  f.mix(s.peak_pending);
  f.mix(s.peak_unresolved);
  f.mix(s.retired_tags);
}

/// One repetition and everything the checks and metrics need from it.
struct SoakRep {
  double setup_s = 0;  ///< SimHarness construction
  double run_s = 0;    ///< checker wiring (traced) and the workload
  double trial_s = 0;  ///< the whole repetition, the probe excluded
  SoakCounts counts;
  CoalesceStats co;
  std::vector<bool> atomic;      ///< per key: streaming or batch verdict
  std::vector<bool> guaranteed;  ///< per key: guarantees_atomicity(key cfg)
  std::vector<StreamingStats> stream;  ///< per key, checked soaks only
  std::vector<double> write_ms, read_ms;  ///< pooled over keys (unchecked)
  std::uint64_t history_live = 0;
  std::uint64_t steady_allocs = 0;
  bool masks_fit = true;
  std::string digest;
};

/// Run one repetition: construct the harness (set-up), run the workload to
/// quiescence (timed), then collect counts, verdicts and latencies.
///
/// A checked soak's per-key checkers are the harness's own (streaming_check)
/// when `tracer` is null. With a tracer, each key instead gets a
/// driver-owned StreamingTagWitness behind a TimedSink, wired as SimHarness
/// wires streaming_check, and every call into the library runs inside a
/// span. Unchecked soaks get a batch tag-witness verdict per key. With
/// `probe`, one more op per client then runs on the warm harness (the
/// BENCH_simcore steady-state contract: no engine allocation, no pool miss).
SoakRep soak_rep(const SoakDef& def, std::uint64_t seed, Tracer* tracer,
                 bool probe) {
  static const AtomicityChecker* const kTagWitness =
      checker_by_name("tag-witness");
  const Protocol* proto = protocol_by_name(def.protocol);
  const bool own_checkers = def.checked && tracer != nullptr;
  SoakRep rep;
  Fnv f;
  Tracer::Scope rs(tracer, "bench.rep");
  std::unique_ptr<SimHarness> h;
  std::vector<std::unique_ptr<StreamingTagWitness>> owned;
  std::vector<std::unique_ptr<TimedSink>> sinks;
  std::vector<StreamingTagWitness*> checkers;
  const Clock::time_point t0 = Clock::now();
  {
    Tracer::Scope trial(tracer, "bench.trial");
    {
      Tracer::Scope s(tracer, "core.harness");
      h = std::make_unique<SimHarness>(
          *proto, soak_options(def, seed, def.checked && !own_checkers));
    }
    const Clock::time_point t1 = Clock::now();
    if (own_checkers) {
      Tracer::Scope s(tracer, "consistency.attach");
      for (int k = 0; k < h->num_keys(); ++k) {
        History& hist = h->key_history(k);
        owned.push_back(std::make_unique<StreamingTagWitness>());
        owned.back()->retire_history(&hist);
        sinks.push_back(
            std::make_unique<TimedSink>(owned.back().get(), tracer));
        hist.subscribe(sinks.back().get());
        checkers.push_back(owned.back().get());
      }
    }
    {
      Tracer::Scope s(tracer, "core.workload");
      run_keyspace_workload(*h, soak_workload(def));
    }
    const Clock::time_point t2 = Clock::now();
    rep.setup_s = seconds_between(t0, t1);
    rep.run_s = seconds_between(t1, t2);

    for (int k = 0; def.checked && !own_checkers && k < h->num_keys(); ++k) {
      checkers.push_back(h->stream_checker(k));
    }
    rep.counts = collect(*h, checkers);
    rep.co = h->net().coalesce_stats();
    rep.counts.mix_into(f);
    rep.masks_fit = fits_witness_masks(*proto, *h);
    for (int k = 0; k < h->num_keys(); ++k) {
      rep.guaranteed.push_back(proto->guarantees_atomicity(h->key_cfg(k)));
    }
    if (def.checked) {
      Tracer::Scope s(tracer, "consistency.finish");
      for (StreamingTagWitness* sc : checkers) {
        rep.atomic.push_back(sc->finish().atomic);
        rep.stream.push_back(sc->stats());
        mix_stats(f, sc->stats());
      }
    } else {
      Tracer::Scope s(tracer, "consistency.batch_check");
      for (int k = 0; k < h->num_keys(); ++k) {
        rep.atomic.push_back(kTagWitness->check(h->key_history(k)).atomic);
      }
    }
    for (const bool ok : rep.atomic) f.mix(ok ? 1 : 0);
    if (!def.checked) {
      // A checked soak's retired records are gone; its latencies come from
      // an unchecked twin.
      Tracer::Scope s(tracer, "core.latency_scan");
      for (int k = 0; k < h->num_keys(); ++k) {
        const History& hist = h->key_history(k);
        const std::vector<double> w = latency_samples_ms(hist, OpKind::kWrite);
        const std::vector<double> r = latency_samples_ms(hist, OpKind::kRead);
        f.mix_doubles(w);
        f.mix_doubles(r);
        rep.write_ms.insert(rep.write_ms.end(), w.begin(), w.end());
        rep.read_ms.insert(rep.read_ms.end(), r.begin(), r.end());
      }
    }
    for (int k = 0; k < h->num_keys(); ++k) {
      History& hist = h->key_history(k);
      rep.history_live += hist.size() - hist.retired_count();
      if (own_checkers) {
        hist.unsubscribe(sinks[static_cast<std::size_t>(k)].get());
      }
    }
  }
  rep.trial_s = seconds_between(t0, Clock::now());
  if (probe) {
    Tracer::Scope s(tracer, "core.probe");
    const std::uint64_t a0 = h->sim().allocations();
    const std::uint64_t m0 = h->net().pool().stats().misses;
    WorkloadOptions w;
    w.ops_per_writer = 1;
    w.ops_per_reader = 1;
    run_keyspace_workload(*h, w);
    rep.steady_allocs =
        h->sim().allocations() - a0 + h->net().pool().stats().misses - m0;
  }
  const Clock::time_point d0 = Clock::now();
  {
    Tracer::Scope s(tracer, "core.teardown");
    h.reset();
  }
  if (own_checkers) {
    Tracer::Scope s(tracer, "consistency.teardown");
    sinks.clear();
    owned.clear();
  }
  rep.trial_s += seconds_between(d0, Clock::now());
  rep.digest = f.hex();
  return rep;
}

/// Tallies the checks every repetition must pass: conservation, op
/// accounting, and the witness-mask range of reader-affine protocols.
struct RepAudit {
  std::uint64_t reps = 0;
  std::uint64_t not_conserved = 0;
  std::uint64_t incomplete = 0;
  std::uint64_t masks_overflow = 0;

  void add(const SoakDef& def, const SoakRep& rep) {
    ++reps;
    if (!rep.counts.conserved()) ++not_conserved;
    if (rep.counts.invoked != planned_ops(def) ||
        rep.counts.completed > rep.counts.invoked) {
      ++incomplete;
    }
    if (!rep.masks_fit) ++masks_overflow;
  }

  void report(Report* out) const {
    const auto n = static_cast<unsigned long long>(reps);
    out->check("NetworkStats conserved at quiescence", not_conserved == 0,
               strf("%llu of %llu repetitions violate",
                    static_cast<unsigned long long>(not_conserved), n));
    out->check("every invoked op completed or counted failed", incomplete == 0,
               strf("%llu of %llu repetitions inconsistent",
                    static_cast<unsigned long long>(incomplete), n));
    out->check("every key's client ids fit the fast-read witness masks",
               masks_overflow == 0,
               strf("%llu of %llu repetitions overflow",
                    static_cast<unsigned long long>(masks_overflow), n));
  }
};

/// Keys whose verdict contradicts guarantees_atomicity of their quorum group.
void record_verdicts(const SoakRep& rep, Report* out) {
  std::uint64_t n = 0;
  for (std::size_t k = 0;
       k < rep.atomic.size() && k < rep.guaranteed.size(); ++k) {
    if (rep.guaranteed[k] && !rep.atomic[k]) ++n;
  }
  out->verdict_mismatches = n;
  out->check("verdicts match guarantees_atomicity",
             n == 0 && rep.atomic.size() == rep.guaranteed.size(),
             strf("%llu of %zu keys contradict",
                  static_cast<unsigned long long>(n), rep.atomic.size()));
}

void untraced_soak(const SoakDef& def, const RunConfig& rc, Report* out) {
  const Clock::time_point start = Clock::now();
  SoakRep first;
  RepAudit audit;
  std::uint64_t diverged = 0;
  do {
    SoakRep rep = soak_rep(def, rc.seed, nullptr, false);
    audit.add(def, rep);
    if (out->reps == 0) {
      // The first repetition warms caches and the allocator: checked and
      // kept as the reference, but not timed.
      first = std::move(rep);
    } else {
      out->add("setup_s", rep.setup_s, Reduce::kLowest);
      out->add("trials_per_s", 1.0 / (rep.setup_s + rep.run_s),
               Reduce::kHighest);
      out->add("ops_per_s",
               static_cast<double>(rep.counts.completed) / rep.run_s,
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
  audit.report(out);
  out->attempted = planned_ops(def);
  out->completed = first.counts.completed;
  record_verdicts(first, out);

  Fnv digest;
  digest.mix_string(first.digest);
  if (!def.checked) {
    add_latency_metrics(first.write_ms, first.read_ms, out);
  } else {
    // The checker is observationally invisible, so an unchecked twin on the
    // same seed replays the identical simulation: it must match the checked
    // run's counts, its batch verdicts must equal the streaming ones, and it
    // still holds the latency records retirement dropped.
    SoakDef unchecked = def;
    unchecked.checked = false;
    const SoakRep twin = soak_rep(unchecked, rc.seed, nullptr, false);
    out->check("unchecked twin replays the checked simulation",
               twin.counts == first.counts);
    out->check("streaming verdicts equal batch verdicts",
               twin.atomic == first.atomic);
    add_latency_metrics(twin.write_ms, twin.read_ms, out);
    digest.mix_string(twin.digest);
  }
  out->sim_digest = digest.hex();
}

/// Names the first way a traced repetition differs from the untraced
/// reference ("" = identical).
std::string diff_rep(const SoakRep& t, const SoakRep& ref) {
  if (!(t.counts == ref.counts)) return "simulated counts differ";
  for (std::size_t k = 0; k < t.stream.size() && k < ref.stream.size(); ++k) {
    if (!same_stats(t.stream[k], ref.stream[k])) {
      return strf("key %zu StreamingStats differ", k);
    }
  }
  if (t.digest != ref.digest) return "verdicts or latency samples differ";
  return "";
}

void traced_soak(const SoakDef& def, const RunConfig& rc, Report* out) {
  // Phase A: untraced repetitions (the overhead baseline and the reference
  // for trace fidelity); the first only warms up.
  SoakRep reference;
  std::vector<double> untraced_s;
  const Clock::time_point a0 = Clock::now();
  for (int n = 0; n < 2 || seconds_between(a0, Clock::now()) < 0.4 * rc.seconds;
       ++n) {
    SoakRep rep = soak_rep(def, rc.seed, nullptr, false);
    if (n == 0) {
      reference = std::move(rep);
    } else {
      untraced_s.push_back(rep.setup_s + rep.run_s);
    }
  }

  // Phase B: traced repetitions.
  Tracer tracer;
  std::vector<SoakRep> reps;
  RepAudit audit;
  std::vector<double> traced_s, trial_s;
  double rep_wall = 0;
  std::string why;
  const Clock::time_point b0 = Clock::now();
  do {
    tracer.set_keep_spans(reps.empty());
    const Clock::time_point r0 = Clock::now();
    SoakRep rep = soak_rep(def, rc.seed, &tracer, reps.empty());
    rep_wall += seconds_between(r0, Clock::now());
    traced_s.push_back(rep.setup_s + rep.run_s);
    trial_s.push_back(rep.trial_s);
    audit.add(def, rep);
    if (why.empty()) why = diff_rep(rep, reference);
    reps.push_back(std::move(rep));
  } while (seconds_between(b0, Clock::now()) < 0.6 * rc.seconds);

  // ---- trace fidelity and correctness ----
  const SoakRep& first = reps.front();
  out->check(def.checked ? "timed sinks equal the streaming_check run"
                         : "traced runs equal the untraced run",
             why.empty(), why);
  audit.report(out);
  out->attempted = planned_ops(def);
  out->completed = first.counts.completed;
  record_verdicts(first, out);
  out->reps = reps.size();
  out->sim_digest = first.digest;

  // ---- per-layer metrics ----
  const std::map<std::string, double>& self = tracer.self_seconds();
  auto self_s = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  double events = 0, ops = 0, wall = 0;  // wall: trial time, probe excluded
  for (const SoakRep& r : reps) {
    events += static_cast<double>(r.counts.events);
    ops += static_cast<double>(r.counts.completed);
    wall += r.trial_s;
  }
  const double n = static_cast<double>(reps.size());
  const double workload_s = self_s("core.workload");
  const double hooks_s = tracer.total_hook_seconds();
  const double stream_s = hooks_s + self_s("consistency.attach") +
                          self_s("consistency.finish") +
                          self_s("consistency.teardown");
  const double batch_s = self_s("consistency.batch_check");
  std::size_t peak_window = 0, peak_pending = 0;
  for (const StreamingStats& s : first.stream) {
    peak_window = std::max(peak_window, s.peak_window);
    peak_pending = std::max(peak_pending, s.peak_pending);
  }
  const double coverage =
      1.0 - (self_s("bench.rep") + self_s("bench.trial")) / rep_wall;

  out->add("sim.events_per_s", ratio(events, workload_s));
  out->add("sim.events_per_op", ratio(events, ops));
  out->add("sim.steady_allocs", static_cast<double>(first.steady_allocs));
  add_net_metrics(first.counts.net, first.co, first.counts.completed, out);
  out->add("core.harness_us_per_trial", self_s("core.harness") / n * 1e6);
  out->add("core.workload_us_per_trial", workload_s / n * 1e6);
  out->add("core.latency_scan_us_per_trial",
           self_s("core.latency_scan") / n * 1e6);
  out->add("core.workload_ns_per_op", workload_s / ops * 1e9);
  out->add("consistency.check_ns_per_op", (stream_s + batch_s) / ops * 1e9);
  out->add("consistency.batch_share", batch_s / wall);
  out->add("consistency.stream_share", def.checked ? stream_s / wall : 0.0);
  out->add("consistency.peak_window", static_cast<double>(peak_window));
  out->add("consistency.peak_pending", static_cast<double>(peak_pending));
  out->add("consistency.history_live", static_cast<double>(first.history_live));
  out->add("exp.trial_host_us_p50", quantile_of(trial_s, 0.50) * 1e6);
  out->add("exp.trial_host_us_p99", quantile_of(trial_s, 0.99) * 1e6);
  out->add("exp.aggregate_share", 0);  // soaks report no aggregated cells
  out->add("exp.report_share", 0);
  out->add("exp.parallel_efficiency", 1.0);  // a soak runs on one thread
  out->add("trace.overhead_frac",
           fastest_of(traced_s) / fastest_of(untraced_s) - 1.0);
  out->add("trace.coverage", coverage);
  check_coverage(coverage, out);

  for (const auto& [name, secs] : self) {
    out->note(strf("self %-28s %9.4f s  %5.1f%%", name.c_str(), secs,
                   100.0 * secs / rep_wall));
  }
  if (def.checked) {
    out->note(strf(
        "hooks %llu invoke / %llu value / %llu complete calls, %.4f s",
        static_cast<unsigned long long>(tracer.hook_count(Tracer::kOnInvoke)),
        static_cast<unsigned long long>(tracer.hook_count(Tracer::kOnValue)),
        static_cast<unsigned long long>(tracer.hook_count(Tracer::kOnComplete)),
        hooks_s));
  }
  out->note(strf("traced wall %.3f s over %zu repetitions; untraced %.3f s "
                 "per repetition",
                 rep_wall, reps.size(), median_of(untraced_s)));
  if (!rc.spans_path.empty() &&
      !tracer.write(rc.spans_path, def.name, rc.seed)) {
    out->check("spans written", false, rc.spans_path);
  }
}

void run_soak(const SoakDef& def, const RunConfig& rc, Report* out) {
  if (rc.trace) {
    traced_soak(def, rc, out);
  } else {
    untraced_soak(def, rc, out);
  }
}

}  // namespace

void run_keyspace_soak(const RunConfig& rc, Report* out) {
  run_soak(kKeyspaceSoak, rc, out);
}

void run_checked_soak(const RunConfig& rc, Report* out) {
  run_soak(kCheckedSoak, rc, out);
}

void run_fastread_keyspace(const RunConfig& rc, Report* out) {
  run_soak(kFastReadKeyspace, rc, out);
}

}  // namespace mwbench
