// The read decision of the paper's Algorithm 1 (Appendix A), shared by the
// ClientTable's fast-read programs (core/client_table.h).
//
// A fast read is ONE round-trip: the reader sends its valQueue, collects
// READACKs from S - t servers, and returns the largest value that is
// admissible(v, rcvMsg, a) for some a in [1, R+1]. The GC'd program speaks
// the incremental protocol instead (kFrReadDeltaReq / kFrReadAckDelta): it
// carries its confirmed watermark and per-server acked revisions,
// reconstructs each server's valuevector in an FrServerCache, and runs the
// same admissibility decision over the reconstructed valuevectors —
// observationally identical to the full-ack protocol while keeping
// bytes-on-wire O(active values) (DESIGN.md section 6). Every valuevector
// here is an FrRows (protocols/messages.h): updated sets are bitsets over
// the key group's client ids from the server to the decision.
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
/// v's updated sets are loaded once per candidate by scanning their rows'
/// set bits into word-array columns, one column of bits over the sets per
/// client id. One per-client count
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
  /// valuevector: sorted ascending with no value twice, over `kc`'s client
  /// span (std::invalid_argument otherwise). Candidates come largest-first
  /// from a k-way merge of the views from the top. Returns bottom if
  /// nothing is admissible (unreachable in a correct configuration).
  TaggedValue pick(const std::vector<const FrRows*>& views,
                   const ClusterConfig& kc);

  /// admissible(v, views, a) at one degree, on rows in any order (the first
  /// row equal to v in each view counts). The views share one span
  /// (std::invalid_argument otherwise).
  bool admissible(const TaggedValue& v,
                  const std::vector<const FrRows*>& views, int a,
                  int num_servers, int max_faulty);

 private:
  void fit(int span, std::size_t max_sets, int max_degree);
  /// Columns become [base, base + span); std::invalid_argument, with
  /// nothing loaded, if a view covers another span.
  void adopt_span(NodeId base, int span,
                  const std::vector<const FrRows*>& views);
  void add_set(const FrRows& rows, std::size_t i);
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

/// Convenience form over sorted-list messages (tests, offline tools): the
/// sets of v are converted into FrRows over the span of their ids, and
/// FrPicker decides.
bool admissible(const TaggedValue& v,
                const std::vector<std::vector<FrEntry>>& msgs, int a,
                int num_servers, int max_faulty);

/// Reconstructed copy of one server's valuevector (delta/gc mode): the
/// entries the server held at its last reply, sorted by tag, plus the reply
/// revision the reader acknowledges on its next request. `rows` must carry
/// the key group's client span before the first delta.
struct FrServerCache {
  std::uint64_t rev = 0;
  FrRows rows;
};

/// Apply one kFrReadAckDelta payload to `cache`: drop rows below the
/// server's GC floor, upsert the streamed entries in one forward merge
/// (they arrive in ascending tag order), and ack the revision only when the
/// whole delta decoded. Returns false on malformed input, which includes an
/// id outside the cache's span and entries out of tag order; the cache then
/// keeps its old revision.
bool fr_apply_delta(FrServerCache& cache, ByteSpan payload);

}  // namespace mwreg
