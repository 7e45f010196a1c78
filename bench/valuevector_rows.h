// Shared valuevector-GC measurement: long-horizon W2R1/W4R4 runs with the
// GC+delta protocol against the gc_enabled=false ablation, recording
// bytes-on-wire, read-ack sizes and events/sec. Used twice:
//  - bench_simcore_throughput folds the rows into BENCH_simcore.json
//    (schema v2, "valuevector" section) — the artifact CI's perf-trend
//    gate diffs against bench/baselines/;
//  - bench_valuevector is the standalone deep-dive (windowed read-ack
//    trajectories plus the same rows in BENCH_valuevector.json).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/harness.h"
#include "core/workload.h"
#include "protocols/messages.h"
#include "protocols/protocols.h"

namespace mwreg::bench {

struct VvRow {
  std::string protocol;
  std::string cluster;
  std::string workload;  ///< "W2R1-long" / "W4R4-long"
  bool gc_enabled = false;
  int ops_per_client = 0;
  std::uint64_t events = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes_on_wire = 0;  ///< every payload byte sent
  std::uint64_t read_acks = 0;
  std::uint64_t read_ack_bytes = 0;
  double wall_ms = 0;
  /// Mean read-ack bytes over the [25%,50%) and [75%,100%] ack windows:
  /// bounded encodings plateau (growth ~= 1), the ablation ramps linearly
  /// (growth ~= 2.3 for these windows).
  double ack_bytes_warm = 0;
  double ack_bytes_late = 0;

  [[nodiscard]] double events_per_sec() const {
    return wall_ms > 0 ? static_cast<double>(events) / (wall_ms / 1e3) : 0;
  }
  [[nodiscard]] double ack_growth() const {
    return ack_bytes_warm > 0 ? ack_bytes_late / ack_bytes_warm : 0;
  }
};

/// Mean of `v` over the index window [size*lo, size*hi); 0 when empty.
/// Shared by the row runner and the windowed trajectory report.
inline double window_mean(const std::vector<std::size_t>& v, double lo,
                          double hi) {
  const std::size_t a = static_cast<std::size_t>(v.size() * lo);
  const std::size_t b = static_cast<std::size_t>(v.size() * hi);
  if (b <= a) return 0.0;
  double sum = 0;
  for (std::size_t i = a; i < b; ++i) sum += static_cast<double>(v[i]);
  return sum / static_cast<double>(b - a);
}

/// One long-horizon run; `ack_series` (optional) receives every read-ack
/// payload size in delivery order for windowed reporting.
inline VvRow run_valuevector_row_once(const std::string& protocol,
                                      const ClusterConfig& cfg,
                                      const std::string& workload,
                                      int ops_per_client,
                                      std::vector<std::size_t>* ack_series =
                                          nullptr) {
  const Protocol* p = protocol_by_name(protocol);
  SimHarness::Options o;
  o.cfg = cfg;
  o.seed = 42;
  o.delay = std::make_unique<UniformDelay>(kMillisecond, 10 * kMillisecond);
  SimHarness h(*p, std::move(o));
  std::vector<std::size_t> sizes;
  h.net().set_delivery_hook([&sizes](const Frame& m, Time, Time) {
    if (m.type == kFrReadAck || m.type == kFrReadAckDelta) {
      sizes.push_back(m.payload.size());
    }
  });
  WorkloadOptions w;
  w.ops_per_writer = ops_per_client;
  w.ops_per_reader = ops_per_client;

  VvRow row;
  row.protocol = protocol;
  row.cluster = cfg.to_string();
  row.workload = workload;
  // GC is the fast-read default since the PR 7 flip; only the explicit
  // "-nogc(" ablation still runs the full-ack path.
  row.gc_enabled = protocol.find("-nogc(") == std::string::npos;
  row.ops_per_client = ops_per_client;
  const auto t0 = std::chrono::steady_clock::now();
  run_random_workload(h, w);
  row.wall_ms =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count() *
      1e3;
  row.events = h.sim().executed();
  row.msgs = h.net().stats().sent;
  row.bytes_on_wire = h.net().stats().bytes_sent;
  row.read_acks = sizes.size();
  for (std::size_t s : sizes) row.read_ack_bytes += s;
  row.ack_bytes_warm = window_mean(sizes, 0.25, 0.5);
  row.ack_bytes_late = window_mean(sizes, 0.75, 1.0);
  if (ack_series != nullptr) *ack_series = std::move(sizes);
  return row;
}

/// Best-of-N wrapper: the simulation is deterministic (bytes, events and
/// ack series are identical across repetitions), only wall time jitters
/// on shared runners — take the fastest rep so the perf-trend gate diffs
/// a stable number.
inline VvRow run_valuevector_row(const std::string& protocol,
                                 const ClusterConfig& cfg,
                                 const std::string& workload,
                                 int ops_per_client,
                                 std::vector<std::size_t>* ack_series =
                                     nullptr) {
  constexpr int kReps = 3;
  VvRow best = run_valuevector_row_once(protocol, cfg, workload,
                                        ops_per_client, ack_series);
  for (int rep = 1; rep < kReps; ++rep) {
    VvRow r =
        run_valuevector_row_once(protocol, cfg, workload, ops_per_client);
    if (r.wall_ms < best.wall_ms) best = r;
  }
  return best;
}

/// The canonical long-horizon grid: W2R1 and W4R4, GC+delta vs. ablation.
inline std::vector<VvRow> run_valuevector_rows() {
  std::vector<VvRow> rows;
  const ClusterConfig w2r1{5, 2, 1, 1};
  const ClusterConfig w4r4{7, 4, 4, 1};
  rows.push_back(
      run_valuevector_row("fast-read-mw-nogc(W2R1)", w2r1, "W2R1-long", 400));
  rows.push_back(
      run_valuevector_row("fast-read-mw(W2R1)", w2r1, "W2R1-long", 400));
  rows.push_back(
      run_valuevector_row("fast-read-mw-nogc(W2R1)", w4r4, "W4R4-long", 150));
  rows.push_back(
      run_valuevector_row("fast-read-mw(W2R1)", w4r4, "W4R4-long", 150));
  return rows;
}

/// The artifact's "valuevector" section, one Row per run.
inline std::vector<Row> valuevector_section(const std::vector<VvRow>& rows) {
  std::vector<Row> out;
  for (const VvRow& r : rows) {
    out.push_back({col("protocol", r.protocol), field("cluster", r.cluster),
                   col("workload", r.workload),
                   field("gc_enabled", r.gc_enabled),
                   col("ops_per_client", r.ops_per_client),
                   field("events", r.events), field("msgs", r.msgs),
                   col("bytes_on_wire", r.bytes_on_wire),
                   field("read_acks", r.read_acks),
                   field("read_ack_bytes", r.read_ack_bytes),
                   field("wall_ms", r.wall_ms),
                   col("events_per_sec", r.events_per_sec()),
                   col("read_ack_bytes_warm", r.ack_bytes_warm),
                   col("read_ack_bytes_late", r.ack_bytes_late),
                   col("ack_growth", r.ack_growth())});
  }
  return out;
}

}  // namespace mwreg::bench
