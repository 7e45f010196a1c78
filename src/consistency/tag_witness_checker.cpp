#include <algorithm>
#include <sstream>
#include <vector>

#include "consistency/checkers.h"

namespace mwreg {
namespace {

std::string describe(const OpRecord& r) {
  std::ostringstream os;
  os << (r.kind == OpKind::kWrite ? "write" : "read") << " op#" << r.id
     << " by client " << r.client << " value " << r.value.to_string();
  return os.str();
}

}  // namespace

CheckResult check_tag_witness(const History& h) {
  if (!h.well_formed()) return CheckResult::bad("history is not well-formed");
  if (!h.unique_write_tags()) {
    return CheckResult::bad("completed write tags are not unique");
  }

  // (RF): reads return bottom or an actual written value, payload included.
  // `written` maps tag -> payload over every write, pending included, as a
  // flat vector sorted by tag; of writes sharing a tag, the last recorded
  // wins.
  struct Written {
    Tag tag;
    std::int64_t payload;
  };
  std::vector<Written> written;
  for (const OpRecord& r : h.ops()) {
    if (r.kind == OpKind::kWrite) {
      written.push_back(Written{r.value.tag, r.value.payload});
    }
  }
  const auto by_tag = [](const Written& a, const Written& b) {
    return a.tag < b.tag;
  };
  // Stable, so of writes sharing a tag the last recorded sorts last.
  std::stable_sort(written.begin(), written.end(), by_tag);
  for (const OpRecord& r : h.ops()) {
    if (r.kind != OpKind::kRead || !r.completed()) continue;
    if (r.value.tag == kBottomTag) continue;
    auto it = std::upper_bound(written.begin(), written.end(),
                               Written{r.value.tag, 0}, by_tag);
    if (it == written.begin() || !((--it)->tag == r.value.tag)) {
      return CheckResult::bad("read-from: " + describe(r) +
                              " returns a tag never written");
    }
    if (it->payload != r.value.payload) {
      return CheckResult::bad("read-from: " + describe(r) +
                              " returns a payload differing from the write's");
    }
  }

  // (RT): sweep ops by invocation time, tracking the maximum tag among
  // operations that have already responded. Completed ops only; a pending op
  // precedes nothing.
  struct Ev {
    Time at;
    bool is_resp;  // responses before invocations at equal time? see below
    const OpRecord* op;
  };
  std::vector<Ev> evs;
  evs.reserve(h.size() * 2);
  for (const OpRecord& r : h.ops()) {
    evs.push_back(Ev{r.invoke, false, &r});
    if (r.completed()) evs.push_back(Ev{r.resp, true, &r});
  }
  // O1 precedes O2 iff O1.resp < O2.invoke (strict), so at equal timestamps
  // invocations must be processed BEFORE responses to avoid fabricating a
  // precedence that is really concurrency.
  std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.is_resp != b.is_resp) return !a.is_resp;  // invocations first
    return a.op->id < b.op->id;
  });

  // Tags of pending writes that some completed read returned: such a write
  // MUST appear in any linearization (it visibly took effect), so it is
  // subject to the same real-time constraints as a completed write.
  std::vector<Tag> read_tags;
  for (const OpRecord& r : h.ops()) {
    if (r.kind == OpKind::kRead && r.completed()) {
      read_tags.push_back(r.value.tag);
    }
  }
  std::sort(read_tags.begin(), read_tags.end());

  Tag max_finished = kBottomTag;
  bool any_finished = false;
  const OpRecord* max_holder = nullptr;
  for (const Ev& ev : evs) {
    const OpRecord& op = *ev.op;
    if (ev.is_resp) {
      if (!any_finished || op.value.tag > max_finished) {
        max_finished = op.value.tag;
        max_holder = &op;
        any_finished = true;
      }
      continue;
    }
    if (!any_finished) continue;
    const Tag t = op.value.tag;
    if (op.kind == OpKind::kWrite) {
      // A write must be strictly above every finished op's tag: an equal or
      // smaller finished write breaks MWA0 / uniqueness, an equal or greater
      // finished read would have read this write before it was invoked.
      // A pending write constrains the order only if it visibly took effect.
      if (!op.completed() &&
          !std::binary_search(read_tags.begin(), read_tags.end(), t)) {
        continue;
      }
      if (t <= max_finished) {
        return CheckResult::bad("real-time: " + describe(op) +
                                " has tag <= earlier finished " +
                                describe(*max_holder));
      }
    } else {
      if (!op.completed()) continue;
      if (t < max_finished) {
        return CheckResult::bad("real-time: " + describe(op) +
                                " returns a tag older than earlier finished " +
                                describe(*max_holder));
      }
    }
  }
  return CheckResult::ok();
}

}  // namespace mwreg
