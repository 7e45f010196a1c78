// Atomicity (linearizability of a read/write register) checkers.
//
// Four independent algorithms with different cost/strength trade-offs:
//
//  1. tag-witness          — O(n log n) batch. Uses the protocol's tags as
//     the linearization witness (Lynch, "Distributed Algorithms", Lemma
//     13.16 style). Sufficient for atomicity, not necessary: a history can
//     be atomic even though the tags are not a witness. All protocols in
//     this repo are designed so their tags *are* witnesses, so this is the
//     checker used on large protocol-generated histories.
//
//  2. wing-gong            — exponential worst case, memoized. Exhaustive
//     search over linearizations (Wing & Gong 1993). Exact. Ground truth
//     for small histories in property tests. Refuses (CheckResult::refused)
//     histories larger than its bound.
//
//  3. unique-value-graph   — O(n^2). Exact for histories with unique write
//     tags (which fixes the reads-from relation), in the spirit of Gibbons
//     & Korach's "Testing Shared Memories": per-write clusters, forced
//     precedence edges, cycle detection.
//
//  4. streaming-tag-witness — the incremental form of (1): consumes
//     operations as they complete via a HistorySink feed, retires settled
//     prefixes, memory bounded by the concurrency window (DESIGN.md §10).
//     Verdict-identical to (1) on every history the repo generates.
//
// Checkers 2 and 3 agree on every history with unique write tags; checker 1
// implies both; checker 4 equals checker 1. These relations are enforced by
// property tests.
//
// The free functions below are the algorithms and the API: the Runner, the
// fuzzer and the chain engines call them directly. The AtomicityChecker
// registry (all_checkers / checker_by_name) is a table over them, for
// callers that pick a checker by name or enumerate all four.
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "consistency/history.h"

namespace mwreg {

/// Incremental checker feed: subscribe it to a History (or drive the hooks
/// directly), then read the verdict. `result()` is the verdict over events
/// seen so far (pending ops still in flight); `finish()` additionally rules
/// on end-of-run conditions (e.g. reads whose write never completed) and is
/// the verdict to compare against a batch check of the same history.
class StreamingFeed : public HistorySink {
 public:
  [[nodiscard]] virtual CheckResult result() const = 0;
  virtual CheckResult finish() = 0;
};

/// A registered atomicity checker: a stable name for reports/CLIs, the
/// batch algorithm, and (when the algorithm supports it) a streaming feed
/// factory.
struct AtomicityChecker {
  std::string_view label;
  CheckResult (*batch)(const History& h);
  /// nullptr when the algorithm is inherently batch (needs the full history).
  std::unique_ptr<StreamingFeed> (*streaming)();

  [[nodiscard]] std::string_view name() const { return label; }
  [[nodiscard]] CheckResult check(const History& h) const { return batch(h); }
  [[nodiscard]] std::unique_ptr<StreamingFeed> make_streaming() const {
    return streaming == nullptr ? nullptr : streaming();
  }
};

/// All registered checkers, in documentation order (tag-witness first).
[[nodiscard]] const std::vector<const AtomicityChecker*>& all_checkers();

/// Lookup by registered name; nullptr when unknown.
[[nodiscard]] const AtomicityChecker* checker_by_name(std::string_view name);

// ---- the algorithms --------------------------------------------------------

/// Tag-witness check. Requires unique completed-write tags. Conditions:
///  (RF) every read tag is bottom or the tag of some write, with equal payload;
///  (RT) if O1 precedes O2 in real time then tag(O1) <= tag(O2), strictly if
///       O2 is a write.
CheckResult check_tag_witness(const History& h);

/// Exhaustive linearization search. Pending reads are dropped; pending writes
/// may or may not take effect. Refuses histories larger than `max_ops`
/// (CheckResult::refused — distinct from a violation) to keep tests bounded.
CheckResult check_wing_gong(const History& h, std::size_t max_ops = 24);

/// Cluster/constraint-graph check, exact when completed-write tags are unique.
CheckResult check_unique_value_graph(const History& h);

/// One-shot streaming tag-witness replay over a recorded history (builds a
/// StreamingTagWitness, replays events in time order, returns finish()).
CheckResult check_streaming(const History& h);

}  // namespace mwreg
