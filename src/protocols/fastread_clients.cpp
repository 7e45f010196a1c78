#include "protocols/fastread_clients.h"

#include <algorithm>
#include <cassert>

namespace mwreg {
namespace {

/// DFS over client subsets T (|T| = a) checking that T is contained in at
/// least `need` of the updated sets. Client universes are tiny (W + R + 1),
/// and candidates are pruned to clients individually present in >= need sets.
bool exists_common_subset(const std::vector<std::uint64_t>& sets, int a,
                          int need) {
  if (static_cast<int>(sets.size()) < need) return false;
  if (a == 0) return true;

  // Candidate clients: those appearing in at least `need` sets.
  std::vector<int> cands;
  for (int c = 0; c < 64; ++c) {
    const std::uint64_t bit = 1ULL << c;
    int cnt = 0;
    for (std::uint64_t s : sets) {
      if (s & bit) ++cnt;
    }
    if (cnt >= need) cands.push_back(c);
  }
  if (static_cast<int>(cands.size()) < a) return false;

  // Choose `a` candidates; maintain the list of sets containing all chosen.
  struct Frame {
    std::vector<std::uint64_t> live;
    std::size_t next_cand;
    int chosen;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{sets, 0, 0});
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    if (f.chosen == a) return true;
    for (std::size_t i = f.next_cand; i < cands.size(); ++i) {
      const std::uint64_t bit = 1ULL << cands[i];
      std::vector<std::uint64_t> live;
      live.reserve(f.live.size());
      for (std::uint64_t s : f.live) {
        if (s & bit) live.push_back(s);
      }
      if (static_cast<int>(live.size()) < need) continue;
      // Enough candidates left to complete the subset?
      if (f.chosen + 1 + static_cast<int>(cands.size() - i - 1) < a) break;
      stack.push_back(Frame{std::move(live), i + 1, f.chosen + 1});
    }
  }
  return false;
}

}  // namespace

bool admissible(const TaggedValue& v, const std::vector<FrView>& msgs, int a,
                int num_servers, int max_faulty, NodeId bit_base) {
  // mu must be nonempty (an empty witness set would make everything
  // admissible); in valid configurations S - a*t > t >= 1 anyway.
  const int need = std::max(1, num_servers - a * max_faulty);
  // Collect, per message that "has v", the updated set for v as a bitmask.
  std::vector<std::uint64_t> sets;
  sets.reserve(msgs.size());
  for (const FrView& m : msgs) {
    for (const FrEntry& e : m) {
      if (e.value == v) {
        std::uint64_t mask = 0;
        for (NodeId c : e.updated) {
          assert(c >= bit_base && c - bit_base < kFrWitnessMaskBits);
          mask |= 1ULL << (c - bit_base);
        }
        sets.push_back(mask);
        break;
      }
    }
  }
  return exists_common_subset(sets, a, need);
}

bool admissible(const TaggedValue& v,
                const std::vector<std::vector<FrEntry>>& msgs, int a,
                int num_servers, int max_faulty, NodeId bit_base) {
  std::vector<FrView> views;
  views.reserve(msgs.size());
  for (const std::vector<FrEntry>& m : msgs) {
    views.push_back(FrView{m.data(), m.size()});
  }
  return admissible(v, views, a, num_servers, max_faulty, bit_base);
}

TaggedValue fr_pick_admissible(const std::vector<TaggedValue>& cands,
                               const std::vector<FrView>& views, int r, int s,
                               int t, NodeId bit_base) {
  // Return the largest admissible candidate. Lemma 3 guarantees the loop
  // terminates: the max of the valQueue the reader sent is admissible with
  // degree 1, since every server confirmed it before replying.
  for (auto it = cands.rbegin(); it != cands.rend(); ++it) {
    for (int a = 1; a <= r + 1; ++a) {
      if (admissible(*it, views, a, s, t, bit_base)) return *it;
    }
  }
  // Unreachable in a correct configuration; return bottom defensively.
  return TaggedValue{};
}

bool fr_apply_delta(FrServerCache& cache, ByteSpan payload,
                    FrEntry& scratch) {
  ByteReader r(payload);
  const FrDeltaHeader h = get_delta_ack_header(r);
  if (!r.ok()) return false;
  // Drop cached entries the server has garbage-collected. They sit
  // strictly below every reader's watermark, so this reader could never
  // return them again anyway; dropping keeps the cache O(active values).
  const auto floor_it = std::lower_bound(
      cache.entries.begin(), cache.entries.end(), h.gc_floor,
      [](const FrEntry& e, const Tag& t) { return e.value.tag < t; });
  cache.entries.erase(cache.entries.begin(), floor_it);
  // Upsert the changed entries (streamed in ascending tag order).
  for (std::uint64_t i = 0; i < h.count && r.ok(); ++i) {
    decode_fr_entry_into(r, scratch);
    if (!r.ok()) break;
    const auto it = std::lower_bound(
        cache.entries.begin(), cache.entries.end(), scratch.value.tag,
        [](const FrEntry& e, const Tag& t) { return e.value.tag < t; });
    if (it != cache.entries.end() && it->value.tag == scratch.value.tag) {
      it->value = scratch.value;
      it->updated = scratch.updated;  // copy-assign reuses capacity
    } else {
      cache.entries.insert(it, scratch);
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
