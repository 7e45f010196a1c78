// The read decision of the paper's Algorithm 1 (Appendix A), shared by the
// ClientTable's fast-read programs (core/client_table.h).
//
// A fast read is ONE round-trip: the reader sends its valQueue, collects
// READACKs from S - t servers, and returns the largest value that is
// admissible(v, rcvMsg, a) for some a in [1, R+1]. The GC'd program speaks
// the incremental protocol instead (kFrReadDeltaReq / kFrReadAckDelta): it
// carries its confirmed watermark and per-server acked revisions,
// reconstructs each server's valuevector in an FrServerCache, and runs the
// same admissibility decision over the reconstructed views — observationally
// identical to the full-ack protocol while keeping bytes-on-wire O(active
// values) (DESIGN.md section 6).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/cluster.h"
#include "protocols/messages.h"

namespace mwreg {

/// Algorithm 1's read decision with reusable scratch. admissible(v, msgs, a)
/// holds iff some mu subset of the READACKs has every message in mu contain
/// v, |mu| >= S - a*t, and at least `a` clients in every chosen message's
/// updated set for v. Equivalently: some set T of `a` clients is contained
/// in at least max(1, S - a*t) of v's updated sets.
///
/// v's updated sets are loaded once per candidate as word-array bitsets,
/// one column of bits over the sets per client id. One per-client count
/// pass then settles most degrees: too few clients in enough sets rules a
/// degree out, and a top-`a` pigeonhole bound proves it (always, for
/// a = 1). Only what the counts leave open goes to an exact subset search on
/// a preallocated stack. Widths follow the groups passed to reserve(): no
/// cap on client-id span or quorum size.
class FrPicker {
 public:
  /// Size the scratch for reads on quorum group `kc`: its client ids, its
  /// quorum of replies, degrees up to R+1. Once every group a caller serves
  /// is reserved, pick() on them allocates nothing.
  void reserve(const ClusterConfig& kc);

  /// The largest value admissible at some degree a in [1, R+1] over one
  /// round's replies (`kc`'s R, S and t). Each view is one server's
  /// valuevector: sorted ascending with no value twice, updated sets within
  /// `kc`'s client ids. Candidates come largest-first from a k-way merge of
  /// the views from the top. Returns bottom if nothing is admissible
  /// (unreachable in a correct configuration).
  TaggedValue pick(const std::vector<FrView>& views, const ClusterConfig& kc);

  /// admissible(v, views, a) at one degree, on views in any order (the
  /// first entry equal to v in each counts). Sizes itself from v's sets.
  bool admissible(const TaggedValue& v, const std::vector<FrView>& views,
                  int a, int num_servers, int max_faulty);

 private:
  void fit(int span, std::size_t max_sets, int max_degree);
  void add_set(const std::vector<NodeId>& updated);
  /// Whether v is admissible at some degree in [a_lo, a_hi]; clears v's
  /// sets either way.
  bool decide(int a_lo, int a_hi, int s, int t);
  /// 1 admissible at degree a, 0 not, -1 the counts cannot tell.
  [[nodiscard]] int count_verdict(int a, int need) const;
  bool subset_search(int a, int need);

  // Capacities (fit() only grows them).
  int span_cap_ = 0;
  std::size_t sets_cap_ = 0;
  int depth_cap_ = 0;
  std::size_t words_ = 1;  ///< words per column: covers sets_cap_ sets

  // The candidate being decided.
  NodeId base_ = 0;  ///< client id of column 0
  int span_ = 0;     ///< client ids in use: [base_, base_ + span_)
  int m_ = 0;        ///< its updated sets loaded so far
  /// Column c (words [c*words_, (c+1)*words_)): bit j set iff client
  /// base_ + c is in set j. All zero between candidates.
  std::vector<std::uint64_t> cols_;
  std::vector<int> count_;            ///< per column: sets holding it
  std::vector<std::size_t> touched_;  ///< columns with count_ > 0
  std::vector<int> hist_;             ///< hist_[k]: touched columns in k sets

  // Subset search stack: candidate columns, and per depth the sets common
  // to the columns chosen so far plus the next candidate to try.
  std::vector<std::size_t> cands_;
  std::vector<std::uint64_t> live_;
  std::vector<int> next_;

  std::vector<std::size_t> cursor_;  ///< pick: entries left per view
};

/// Convenience form over owning nested vectors (tests, offline tools).
bool admissible(const TaggedValue& v,
                const std::vector<std::vector<FrEntry>>& msgs, int a,
                int num_servers, int max_faulty);

/// Reconstructed view of one server's valuevector (delta/gc mode): the
/// entries the server held at its last reply, sorted by tag, plus the reply
/// revision the reader acknowledges on its next request.
struct FrServerCache {
  std::uint64_t rev = 0;
  std::vector<FrEntry> entries;
  /// Updated-set buffers of entries dropped below the GC floor, reused by
  /// later inserts so a warmed cache stops allocating.
  std::vector<std::vector<NodeId>> spare;
};

/// Apply one kFrReadAckDelta payload to `cache`: drop entries below the
/// server's GC floor, upsert the streamed entries, and ack the revision only
/// when the whole delta decoded. `scratch` is a caller-owned reusable decode
/// buffer (its vectors keep their capacity across calls). Returns false on
/// malformed input.
bool fr_apply_delta(FrServerCache& cache, ByteSpan payload, FrEntry& scratch);

}  // namespace mwreg
