#include "protocols/fastread_clients.h"

#include <algorithm>
#include <stdexcept>

namespace mwreg {

void FrPicker::reserve(const ClusterConfig& kc) {
  fit(kc.id_end() - kc.first_client(), static_cast<std::size_t>(kc.quorum()),
      kc.r() + 1);
}

void FrPicker::fit(int span, std::size_t max_sets, int max_degree) {
  if (span <= span_cap_ && max_sets <= sets_cap_ && max_degree <= depth_cap_) {
    return;
  }
  // Only called between candidates, when every column is zero anyway.
  span_cap_ = std::max(span_cap_, span);
  sets_cap_ = std::max(sets_cap_, max_sets);
  depth_cap_ = std::max(depth_cap_, max_degree);
  words_ = std::max<std::size_t>(1, (sets_cap_ + 63) / 64);
  const auto span_cap = static_cast<std::size_t>(span_cap_);
  cols_.assign(span_cap * words_, 0);
  count_.assign(span_cap, 0);
  touched_.reserve(span_cap);
  hist_.assign(sets_cap_ + 1, 0);
  cands_.reserve(span_cap);
  live_.assign(static_cast<std::size_t>(depth_cap_ + 1) * words_, 0);
  next_.assign(static_cast<std::size_t>(depth_cap_ + 1), 0);
  cursor_.reserve(sets_cap_);
}

void FrPicker::adopt_span(NodeId base, int span,
                          const std::vector<const FrRows*>& views) {
  // Columns are the group's client ids: a row over another span would
  // index past them. Checked before any set loads, so a refusal leaves the
  // scratch clean.
  for (const FrRows* v : views) {
    if (v->base() != base || v->span() != span) {
      throw std::invalid_argument("FrPicker: a view over another client span");
    }
  }
  base_ = base;
  span_ = span;
}

void FrPicker::add_set(const FrRows& rows, std::size_t i) {
  const std::size_t word = static_cast<std::size_t>(m_) / 64;
  const std::uint64_t bit = 1ULL << (m_ % 64);
  ++m_;
  rows.for_each(i, [&](NodeId id) {
    const auto col = static_cast<std::size_t>(id - base_);
    cols_[col * words_ + word] |= bit;
    if (count_[col]++ == 0) touched_.push_back(col);
  });
}

int FrPicker::count_verdict(int a, int need) const {
  if (m_ < need) return 0;
  // The `a` clients in the most sets. If fewer than `a` clients reach
  // `need` sets, no T does; otherwise these miss at most `missing` sets
  // between them, so they share at least m_ - missing.
  int taken = 0;
  long long missing = 0;
  for (int k = m_; k >= need && taken < a; --k) {
    const int take = std::min(hist_[static_cast<std::size_t>(k)], a - taken);
    taken += take;
    missing += static_cast<long long>(take) * (m_ - k);
  }
  if (taken < a) return 0;
  return m_ - missing >= need ? 1 : -1;
}

bool FrPicker::subset_search(int a, int need) {
  // Only clients individually in >= need sets can be in T.
  cands_.clear();
  for (const std::size_t c : touched_) {
    if (count_[c] >= need) cands_.push_back(c);
  }
  const int nc = static_cast<int>(cands_.size());
  std::uint64_t* live = live_.data();
  std::fill_n(live, words_, 0);  // depth 0: every set
  for (int j = 0; j < m_; ++j) live[j / 64] |= 1ULL << (j % 64);
  // Choose T's members in increasing candidate order; depth d holds the
  // sets common to the d chosen so far.
  int d = 0;
  next_[0] = 0;
  for (;;) {
    if (d == a) return true;
    const int i = next_[static_cast<std::size_t>(d)];
    if (i + (a - d) > nc) {  // too few candidates left to complete T
      if (d == 0) return false;
      --d;
      ++next_[static_cast<std::size_t>(d)];
      continue;
    }
    const std::uint64_t* col =
        cols_.data() + cands_[static_cast<std::size_t>(i)] * words_;
    const std::uint64_t* cur = live + static_cast<std::size_t>(d) * words_;
    std::uint64_t* nxt = live + static_cast<std::size_t>(d + 1) * words_;
    int common = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      nxt[w] = cur[w] & col[w];
      common += __builtin_popcountll(nxt[w]);
    }
    if (common >= need) {
      ++d;
      next_[static_cast<std::size_t>(d)] = i + 1;
    } else {
      ++next_[static_cast<std::size_t>(d)];
    }
  }
}

bool FrPicker::decide(int a_lo, int a_hi, int s, int t) {
  std::fill_n(hist_.begin(), m_ + 1, 0);
  for (const std::size_t c : touched_) {
    ++hist_[static_cast<std::size_t>(count_[c])];
  }
  bool ok = false;
  for (int a = a_lo; a <= a_hi && !ok; ++a) {
    // mu must be nonempty (an empty witness set would make everything
    // admissible); in valid configurations S - a*t > t >= 1 anyway.
    const int need = std::max(1, s - a * t);
    const int verdict = count_verdict(a, need);
    ok = verdict > 0 || (verdict < 0 && subset_search(a, need));
  }
  for (const std::size_t c : touched_) {
    count_[c] = 0;
    std::fill_n(cols_.begin() + static_cast<std::ptrdiff_t>(c * words_),
                words_, 0);
  }
  touched_.clear();
  m_ = 0;
  return ok;
}

TaggedValue FrPicker::pick(const std::vector<const FrRows*>& views,
                           const ClusterConfig& kc) {
  adopt_span(kc.first_client(), kc.id_end() - kc.first_client(), views);
  fit(span_, views.size(), kc.r() + 1);
  cursor_.clear();
  for (const FrRows* v : views) cursor_.push_back(v->size());
  // Walk every received value from the largest down and return the first
  // admissible one. Lemma 3 guarantees a hit: the max of the valQueue the
  // reader sent is admissible with degree 1, since every server confirmed
  // it before replying.
  for (;;) {
    const TaggedValue* top = nullptr;
    for (std::size_t i = 0; i < views.size(); ++i) {
      if (cursor_[i] == 0) continue;
      const TaggedValue& v = views[i]->value(cursor_[i] - 1);
      if (top == nullptr || *top < v) top = &v;
    }
    // Unreachable in a correct configuration; return bottom defensively.
    if (top == nullptr) return TaggedValue{};
    const TaggedValue v = *top;
    // A view holding v holds it next (views are sorted): load those sets
    // and step past v.
    for (std::size_t i = 0; i < views.size(); ++i) {
      if (cursor_[i] == 0 || views[i]->value(cursor_[i] - 1) != v) continue;
      add_set(*views[i], --cursor_[i]);
    }
    if (decide(1, kc.r() + 1, kc.s(), kc.t())) return v;
  }
}

bool FrPicker::admissible(const TaggedValue& v,
                          const std::vector<const FrRows*>& views, int a,
                          int num_servers, int max_faulty) {
  if (views.empty()) {
    adopt_span(0, 0, views);
  } else {
    adopt_span(views.front()->base(), views.front()->span(), views);
  }
  fit(span_, views.size(), a);
  for (const FrRows* view : views) {
    for (std::size_t i = 0; i < view->size(); ++i) {
      if (view->value(i) != v) continue;
      add_set(*view, i);
      break;
    }
  }
  return decide(a, a, num_servers, max_faulty);
}

bool admissible(const TaggedValue& v,
                const std::vector<std::vector<FrEntry>>& msgs, int a,
                int num_servers, int max_faulty) {
  // v's set in each message holding it (the first match counts), over the
  // span of the ids they name.
  std::vector<const FrEntry*> sets;
  NodeId lo = 0;
  NodeId hi = -1;
  bool any = false;
  for (const std::vector<FrEntry>& m : msgs) {
    for (const FrEntry& e : m) {
      if (e.value != v) continue;
      for (const NodeId c : e.updated) {
        lo = any ? std::min(lo, c) : c;
        hi = any ? std::max(hi, c) : c;
        any = true;
      }
      sets.push_back(&e);
      break;
    }
  }
  std::vector<FrRows> rows(sets.size(), FrRows(lo, hi - lo + 1));
  std::vector<const FrRows*> views;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    rows[i].push_back(v);
    for (const NodeId c : sets[i]->updated) rows[i].set(0, c);
    views.push_back(&rows[i]);
  }
  return FrPicker().admissible(v, views, a, num_servers, max_faulty);
}

bool fr_apply_delta(FrServerCache& cache, ByteSpan payload) {
  ByteReader r(payload);
  const FrDeltaHeader h = get_delta_ack_header(r);
  if (!r.ok()) return false;
  FrRows& rows = cache.rows;
  // Drop cached rows the server has garbage-collected. They sit strictly
  // below every reader's watermark, so this reader could never return them
  // again anyway; dropping keeps the cache O(active values).
  rows.erase_below(h.gc_floor);
  // Upsert the changed entries in one forward merge. Each is decoded as a
  // new last row; `pos` only moves forward, because entries are streamed
  // in ascending tag order, and ends on the row the entry settles in.
  std::size_t pos = 0;
  for (std::uint64_t k = 0; k < h.count && rows.get(r); ++k) {
    const std::size_t last = rows.size() - 1;
    const Tag tag = rows.value(last).tag;
    if (k > 0 && tag < rows.value(pos).tag) {  // out of order: refuse
      rows.pop_back();
      r.fail();
      break;
    }
    while (pos < last && rows.value(pos).tag < tag) ++pos;
    if (pos == last) continue;  // above every cached row: in place already
    if (rows.value(pos).tag == tag) {
      rows.replace_with_back(pos);
    } else {
      rows.move_back_to(pos);
    }
  }
  // Only ack a fully applied delta: on a truncated payload the loop above
  // stopped mid-stream, and acking the server's revision anyway would make
  // it skip the missed entries forever. Leaving rev untouched means the
  // next request re-requests everything since the last good ack.
  if (r.ok()) cache.rev = h.revision;
  return r.ok();
}

}  // namespace mwreg
