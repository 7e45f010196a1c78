// The checker registry, a table over the checker functions, and the
// streaming-replay entry point.
//
// The batch algorithms live in their own translation units
// (tag_witness_checker.cpp, wing_gong_checker.cpp, graph_checker.cpp).
#include "consistency/checkers.h"

#include <algorithm>
#include <vector>

#include "consistency/streaming_checker.h"

namespace mwreg {

const std::vector<const AtomicityChecker*>& all_checkers() {
  static const AtomicityChecker rows[] = {
      {"tag-witness", check_tag_witness, nullptr},
      {"wing-gong", [](const History& h) { return check_wing_gong(h); },
       nullptr},
      {"unique-value-graph", check_unique_value_graph, nullptr},
      {"streaming-tag-witness", check_streaming,
       []() -> std::unique_ptr<StreamingFeed> {
         return std::make_unique<StreamingTagWitness>();
       }},
  };
  static const std::vector<const AtomicityChecker*> table = [] {
    std::vector<const AtomicityChecker*> v;
    for (const AtomicityChecker& c : rows) v.push_back(&c);
    return v;
  }();
  return table;
}

const AtomicityChecker* checker_by_name(std::string_view name) {
  for (const AtomicityChecker* c : all_checkers()) {
    if (c->name() == name) return c;
  }
  return nullptr;
}

CheckResult check_streaming(const History& h) {
  // Replay the recorded history in event-time order (the order a live feed
  // would have produced) through a fresh streaming checker. Equal-time
  // invocations go before responses, exactly like the batch RT sweep; that
  // replay order can interleave clients' resp==invoke ties in a way the
  // incremental per-client check would misread, so well-formedness is
  // verified on the record up front instead.
  if (!h.well_formed()) {
    return CheckResult::bad("history is not well-formed");
  }
  struct Ev {
    Time at;
    bool is_resp;
    const OpRecord* op;
  };
  std::vector<Ev> evs;
  evs.reserve(h.ops().size() * 2);
  for (const OpRecord& r : h.ops()) {
    evs.push_back(Ev{r.invoke, false, &r});
    if (r.completed()) evs.push_back(Ev{r.resp, true, &r});
  }
  std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.is_resp != b.is_resp) return !a.is_resp;  // invocations first
    return a.op->id < b.op->id;
  });

  StreamingTagWitness feed;
  feed.trust_well_formed();
  for (const Ev& ev : evs) {
    if (ev.is_resp) {
      feed.on_complete(*ev.op);
    } else {
      feed.on_invoke(*ev.op);
      // A pending write whose value was recorded (set_value) surfaces it
      // right after its invocation, as a live feed would.
      if (!ev.op->completed() && ev.op->kind == OpKind::kWrite &&
          !(ev.op->value.tag == kBottomTag)) {
        feed.on_value(*ev.op);
      }
    }
  }
  return feed.finish();
}

}  // namespace mwreg
