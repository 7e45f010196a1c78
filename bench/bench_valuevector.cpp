// Valuevector GC deep-dive: does bounding Algorithm 2's server state
// actually bound the wire?
//
// The plain-text report shows the windowed read-ack trajectory for the
// long-horizon W2R1 run — the ablation (gc_enabled=false) re-encodes every
// value ever written into every ack (O(ops^2) bytes end-to-end), the
// GC+delta protocol plateaus after warmup — plus the canonical row grid
// (W2R1/W4R4, GC on/off). The same rows are written to
// BENCH_valuevector.json; bench_simcore_throughput embeds them in
// BENCH_simcore.json (schema v2), which is what the CI perf-trend gate
// diffs (scripts/bench_trend.py).
//
// Micro timings: full-snapshot encode vs. delta encode of a large
// valuevector, isolating the codec cost the delta path removes; and the
// per-entry encode and decode of a fast-read reply's bitset rows.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/codec.h"
#include "protocols/messages.h"
#include "valuevector_rows.h"

namespace mwreg::bench {
namespace {

void report() {
  header("Valuevector garbage collection + bounded read acks");

  // The canonical grid, with ack series captured for the two W2R1 rows.
  // The runs are deterministic, so these are the exact rows the artifact
  // gets — no re-running.
  std::vector<std::size_t> off_series;
  std::vector<std::size_t> on_series;
  const ClusterConfig w2r1{5, 2, 1, 1};
  const ClusterConfig w4r4{7, 4, 4, 1};
  std::vector<VvRow> rows;
  rows.push_back(run_valuevector_row("fast-read-mw-nogc(W2R1)", w2r1,
                                     "W2R1-long", 400, &off_series));
  rows.push_back(run_valuevector_row("fast-read-mw(W2R1)", w2r1, "W2R1-long",
                                     400, &on_series));
  rows.push_back(
      run_valuevector_row("fast-read-mw-nogc(W2R1)", w4r4, "W4R4-long", 150));
  rows.push_back(
      run_valuevector_row("fast-read-mw(W2R1)", w4r4, "W4R4-long", 150));

  // Windowed trajectory: W2R1 long horizon, ablation vs. GC+delta.
  constexpr int kWindows = 8;
  header("Read-ack bytes per window (" + std::to_string(kWindows) +
         " windows over the run)");
  row({"window", "ablation B/ack", "GC+delta B/ack"}, {10, 18, 18});
  for (int k = 0; k < kWindows; ++k) {
    const double lo = static_cast<double>(k) / kWindows;
    const double hi = static_cast<double>(k + 1) / kWindows;
    row({std::to_string(k + 1), fmt(window_mean(off_series, lo, hi), 0),
         fmt(window_mean(on_series, lo, hi), 0)},
        {10, 18, 18});
  }

  JsonWriter j;
  j.begin_object();
  j.key("bench").value("valuevector");
  j.key("schema_version").value(2);
  section(j, "valuevector",
          "Valuevector GC: long-horizon bytes-on-wire (GC+delta vs. ablation)",
          valuevector_section(rows), true);
  j.end_object();
  write_json_artifact("BENCH_valuevector.json", j.str());
}

// ---- microbenchmarks: full-snapshot encode vs. delta encode ----

std::vector<FrEntry> synthetic_valuevector(int n) {
  std::vector<FrEntry> entries;
  entries.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    FrEntry e;
    e.value = TaggedValue{Tag{i, static_cast<NodeId>(5 + i % 2)}, i * 10};
    for (NodeId c = 5; c < 9; ++c) e.updated.push_back(c);
    entries.push_back(std::move(e));
  }
  return entries;
}

void BM_full_read_ack_encode(benchmark::State& state) {
  const auto entries = synthetic_valuevector(static_cast<int>(state.range(0)));
  ByteWriter w;  // reused, like the network's scratch writer
  for (auto _ : state) {
    w.clear();
    encode_entries_into(w, entries);
    benchmark::DoNotOptimize(w.bytes().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_full_read_ack_encode)->Arg(64)->Arg(1024);

void BM_delta_read_ack_encode(benchmark::State& state) {
  // A steady-state delta: the handful of entries still in flight, cut from
  // the same synthetic vector the full encode serializes wholesale.
  const auto entries = synthetic_valuevector(static_cast<int>(state.range(0)));
  constexpr std::size_t kChanged = 4;
  ByteWriter w;
  FrDeltaHeader h;
  h.revision = 12345;
  h.gc_floor = entries.back().value.tag;
  h.count = kChanged;
  for (auto _ : state) {
    w.clear();
    put_delta_ack_header(w, h);
    for (std::size_t i = entries.size() - kChanged; i < entries.size(); ++i) {
      put_fr_entry(w, entries[i]);
    }
    benchmark::DoNotOptimize(w.bytes().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kChanged));
}
BENCHMARK(BM_delta_read_ack_encode)->Arg(64)->Arg(1024);

// ---- microbenchmarks: the per-entry codec of a fast-read reply ----

/// A fastread_keyspace-shaped valuevector in its bitset form: 6 entries of
/// ~10 witness ids in 50..90, over a group's client span from id 13, with
/// the 4-byte payloads run_random_workload writes (writer * 10^6 + seq).
FrRows fastread_rows() {
  FrRows rows(13, 80);
  for (int i = 0; i < 6; ++i) {
    rows.push_back(TaggedValue{Tag{1000 + i, static_cast<NodeId>(13 + i)},
                               (7 + i) * 1'000'000 + 42});
    for (NodeId id = 50 + i; id <= 90; id += 4) rows.set(rows.size() - 1, id);
  }
  return rows;
}

void BM_fr_rows_put(benchmark::State& state) {
  const FrRows rows = fastread_rows();
  ByteWriter w;  // reused, like the network's scratch writer
  for (auto _ : state) {
    w.clear();
    w.put_varint(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) rows.put(w, i);
    benchmark::DoNotOptimize(w.bytes().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows.size()));
}
BENCHMARK(BM_fr_rows_put);

void BM_fr_rows_get(benchmark::State& state) {
  const FrRows rows = fastread_rows();
  ByteWriter w;
  w.put_varint(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) rows.put(w, i);
  const std::vector<std::uint8_t> bytes = w.take();
  FrRows out(rows.base(), rows.span());  // reused, like a reader's arena
  for (auto _ : state) {
    ByteReader r(bytes);
    benchmark::DoNotOptimize(decode_rows_into(r, out));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows.size()));
}
BENCHMARK(BM_fr_rows_get);

}  // namespace
}  // namespace mwreg::bench

MWREG_BENCH_MAIN(mwreg::bench::report)
