#include "consistency/streaming_checker.h"

#include <algorithm>
#include <sstream>

namespace mwreg {
namespace {

std::string describe_op(OpKind kind, OpId id) {
  std::ostringstream os;
  os << (kind == OpKind::kWrite ? "write" : "read") << " op#" << id;
  return os.str();
}

constexpr std::size_t kMinRing = 64;
constexpr std::size_t kMinClientSlots = 16;

/// Orders window entries and unresolved reads against a bare tag.
struct ByTag {
  template <typename E>
  bool operator()(const E& e, const Tag& t) const {
    return e.tag < t;
  }
  template <typename E>
  bool operator()(const Tag& t, const E& e) const {
    return t < e.tag;
  }
};

}  // namespace

// ---- pending ring ----

StreamingTagWitness::PendingOp* StreamingTagWitness::find_pending(OpId id) {
  const std::int64_t off = std::int64_t{id} - ring_base_;
  if (off < 0 || static_cast<std::size_t>(off) >= ring_span_) return nullptr;
  PendingOp& po = ring_[(ring_head_ + static_cast<std::size_t>(off)) &
                        (ring_.size() - 1)];
  return po.live ? &po : nullptr;
}

void StreamingTagWitness::grow_ring(std::size_t span) {
  if (span <= ring_.size()) return;
  std::size_t size = std::max(kMinRing, ring_.size());
  while (size < span) size *= 2;
  std::vector<PendingOp> grown(size);
  for (std::size_t i = 0; i < ring_span_; ++i) {
    grown[i] = ring_[(ring_head_ + i) & (ring_.size() - 1)];
  }
  ring_.swap(grown);
  ring_head_ = 0;
}

StreamingTagWitness::PendingOp& StreamingTagWitness::add_pending(OpId id) {
  // Slots outside [ring_base_, ring_base_ + ring_span_) are never live, so
  // widening the span at either end only takes in dead slots.
  if (ring_span_ == 0) {
    grow_ring(1);
    ring_base_ = id;
    ring_span_ = 1;
  } else if (id < ring_base_) {
    const auto shift = static_cast<std::size_t>(ring_base_ - id);
    grow_ring(ring_span_ + shift);
    ring_head_ = (ring_head_ - shift) & (ring_.size() - 1);
    ring_base_ = id;
    ring_span_ += shift;
  } else {
    const auto span = static_cast<std::size_t>(id - ring_base_) + 1;
    if (span > ring_span_) {
      grow_ring(span);
      ring_span_ = span;
    }
  }
  const auto off = static_cast<std::size_t>(id - ring_base_);
  PendingOp& po = ring_[(ring_head_ + off) & (ring_.size() - 1)];
  po = PendingOp{};
  po.live = true;
  ++pending_count_;
  return po;
}

void StreamingTagWitness::drop_pending(PendingOp& po) {
  po.live = false;
  --pending_count_;
  // Keep the first slot live, so it is the settled frontier.
  while (ring_span_ > 0 && !ring_[ring_head_].live) {
    ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
    ++ring_base_;
    --ring_span_;
  }
}

// ---- floor FIFO ----

std::uint32_t StreamingTagWitness::add_floor(const Tag& floor) {
  // Floors are snapshots of max_finished_, which only grows: a new floor is
  // never below the last run's, so equal floors share the last run.
  if (!floors_.empty() && floors_.back().floor == floor) {
    ++floors_.back().pending;
  } else {
    if (floors_.size() == floors_.capacity() && floors_head_ > 0) {
      const auto popped = static_cast<std::ptrdiff_t>(floors_head_);
      floors_.erase(floors_.begin(), floors_.begin() + popped);
      floors_base_ += static_cast<std::uint32_t>(floors_head_);
      floors_head_ = 0;
    }
    floors_.push_back(FloorRun{floor, 1});
  }
  // Run indices wrap mod 2^32; fewer runs than that are ever stored.
  return floors_base_ + static_cast<std::uint32_t>(floors_.size() - 1);
}

void StreamingTagWitness::drop_floor(std::uint32_t run) {
  --floors_[static_cast<std::uint32_t>(run - floors_base_)].pending;
  while (floors_head_ < floors_.size() && floors_[floors_head_].pending == 0) {
    ++floors_head_;
  }
  if (floors_head_ == floors_.size()) {
    floors_base_ += static_cast<std::uint32_t>(floors_.size());
    floors_.clear();
    floors_head_ = 0;
  }
}

Tag StreamingTagWitness::floor_of(const PendingOp& po) const {
  // Before any completion max_finished_ is still the bottom tag.
  return po.floor_any
             ? floors_[static_cast<std::uint32_t>(po.floor_run - floors_base_)]
                   .floor
             : Tag{};
}

// ---- window ----

StreamingTagWitness::WriteEntry* StreamingTagWitness::find_write(
    const Tag& tag) {
  const auto it = std::lower_bound(
      window_.begin() + static_cast<std::ptrdiff_t>(window_head_),
      window_.end(), tag, ByTag{});
  return it != window_.end() && it->tag == tag ? &*it : nullptr;
}

StreamingTagWitness::WriteEntry& StreamingTagWitness::insert_write(
    const Tag& tag, bool* inserted) {
  auto lower = [this, &tag] {
    return std::lower_bound(
        window_.begin() + static_cast<std::ptrdiff_t>(window_head_),
        window_.end(), tag, ByTag{});
  };
  auto it = lower();
  *inserted = it == window_.end() || !(it->tag == tag);
  if (!*inserted) return *it;
  if (window_.size() == window_.capacity() && window_head_ > 0) {
    // Reuse the retired prefix before growing.
    window_.erase(window_.begin(),
                  window_.begin() + static_cast<std::ptrdiff_t>(window_head_));
    window_head_ = 0;
    it = lower();
  }
  WriteEntry e;
  e.tag = tag;
  return *window_.insert(it, e);
}

// ---- clients ----

std::uint32_t StreamingTagWitness::client_index(NodeId client) {
  // Fibonacci hashing: the top bits of the product pick the slot.
  auto home = [this](NodeId id) -> std::size_t {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(id)) *
               0x9E3779B97F4A7C15ULL >>
           client_shift_;
  };
  if (2 * (clients_.size() + 1) > client_slots_.size()) {
    const std::size_t size =
        std::max(kMinClientSlots, 2 * client_slots_.size());
    std::vector<ClientSlot> old(size);
    old.swap(client_slots_);
    client_shift_ = 64;
    for (std::size_t s = size; s > 1; s /= 2) --client_shift_;
    for (const ClientSlot& slot : old) {
      if (slot.index == kNoClient) continue;
      std::size_t i = home(slot.id);
      while (client_slots_[i].index != kNoClient) {
        i = (i + 1) & (size - 1);
      }
      client_slots_[i] = slot;
    }
  }
  const std::size_t mask = client_slots_.size() - 1;
  for (std::size_t i = home(client);; i = (i + 1) & mask) {
    ClientSlot& slot = client_slots_[i];
    if (slot.index == kNoClient) {
      slot.id = client;
      slot.index = static_cast<std::uint32_t>(clients_.size());
      clients_.emplace_back();
      return slot.index;
    }
    if (slot.id == client) return slot.index;
  }
}

// ---- the checker ----

void StreamingTagWitness::fail(std::string why) {
  if (!verdict_.atomic) return;  // first violation wins; stay sticky
  verdict_ = CheckResult::bad(std::move(why));
  // Drop the window; every later event is ignored, so only the verdict and
  // the (frozen) settled frontier remain meaningful.
  window_.clear();
  window_head_ = 0;
  unresolved_.clear();
}

void StreamingTagWitness::advance_time(Time t) {
  if (!any_time_) {
    any_time_ = true;
    cur_time_ = t;
    return;
  }
  if (t <= cur_time_) return;
  // Responses buffered at cur_time_ become "finished strictly before" only
  // now: same-time invocations must not see them (the batch sweep orders
  // invocations before responses at equal timestamps).
  if (buf_any_) {
    if (!max_finished_any_ || buf_tag_ > max_finished_) max_finished_ = buf_tag_;
    max_finished_any_ = true;
    buf_any_ = false;
  }
  cur_time_ = t;
}

void StreamingTagWitness::note_finished(const Tag& tag) {
  if (!buf_any_ || tag > buf_tag_) buf_tag_ = tag;
  buf_any_ = true;
}

void StreamingTagWitness::on_invoke(const OpRecord& op) {
  if (!verdict_.atomic) return;
  advance_time(op.invoke);
  if (find_pending(op.id) != nullptr) {
    // A second invocation of a pending id would leave a floor behind that
    // no completion removes, pinning the retirement watermark.
    fail("history is not well-formed");
    return;
  }
  std::uint32_t ci = kNoClient;
  if (!trust_well_formed_) {
    ci = client_index(op.client);
    ClientState& cs = clients_[ci];
    if (cs.in_flight || (cs.any && op.invoke < cs.last_resp)) {
      fail("history is not well-formed");
      return;
    }
    cs.in_flight = true;
  }
  PendingOp& po = add_pending(op.id);
  po.client = op.client;
  po.client_index = ci;
  po.kind = op.kind;
  po.floor_any = max_finished_any_;
  if (po.floor_any) {
    po.floor_run = add_floor(max_finished_);
  } else {
    ++no_floor_pending_;
  }
  if (op.id >= next_id_) next_id_ = op.id + 1;
  ++stats_.ops_seen;
  stats_.peak_pending = std::max(stats_.peak_pending, pending_count_);
}

void StreamingTagWitness::on_value(const OpRecord& op) {
  if (!verdict_.atomic) return;
  if (op.kind != OpKind::kWrite) return;
  if (op.value.tag == kBottomTag) return;
  PendingOp* po = find_pending(op.id);
  if (po == nullptr) return;  // already completed; end_op rules
  if (po->has_provisional && !(po->provisional == op.value.tag) &&
      !drop_retagged(po->provisional, op.id)) {
    return;
  }
  po->provisional = op.value.tag;
  po->has_provisional = true;
  record_write_value(op.id, op.value, /*completed=*/false, floor_of(*po),
                     po->floor_any);
}

bool StreamingTagWitness::drop_retagged(const Tag& provisional, OpId id) {
  // The final record (what a batch check sees) carries only the last tag,
  // so the provisional entry must go, unless a read already resolved
  // against it, which the batch check would flag as reading a value never
  // written.
  WriteEntry* we = find_write(provisional);
  if (we == nullptr || we->writer_op != id) return true;
  if (we->resolved_reads > 0) {
    fail("read-from: a read resolved against " +
         describe_op(OpKind::kWrite, id) + " whose value was later retagged");
    return false;
  }
  window_.erase(window_.begin() + (we - window_.data()));
  return true;
}

void StreamingTagWitness::check_write_rt(const Tag& tag, const Tag& floor,
                                         bool floor_any, OpId id) {
  if (floor_any && tag <= floor) {
    fail("real-time: " + describe_op(OpKind::kWrite, id) +
         " has tag <= an op that finished before its invocation");
  }
}

void StreamingTagWitness::resolve_waiting_reads(const Tag& tag, WriteEntry& e) {
  if (unresolved_.empty()) return;
  const auto range =
      std::equal_range(unresolved_.begin(), unresolved_.end(), tag, ByTag{});
  for (auto it = range.first; it != range.second; ++it) {
    if (it->payload != e.payload) {
      fail("read-from: " + describe_op(OpKind::kRead, it->reader) +
           " returns a payload differing from the write's");
      return;
    }
    ++e.resolved_reads;
    if (!e.completed && !e.activated) {
      // A completed read returned this pending write's tag, so the write
      // visibly took effect and is subject to the write RT condition at its
      // own invocation floor.
      e.activated = true;
      check_write_rt(tag, e.floor, e.floor_any, e.writer_op);
      if (!verdict_.atomic) return;
    }
  }
  unresolved_.erase(range.first, range.second);
}

void StreamingTagWitness::record_write_value(OpId id, const TaggedValue& v,
                                             bool completed, Tag floor,
                                             bool floor_any) {
  bool inserted = false;
  WriteEntry& e = insert_write(v.tag, &inserted);
  if (inserted) {
    e.payload = v.payload;
    e.writer_op = id;
    e.floor = floor;
    e.floor_any = floor_any;
  } else {
    if (completed && e.completed) {
      fail("completed write tags are not unique");
      return;
    }
    if (id >= e.writer_op) {
      // Batch read-from resolves payloads against the highest write id for
      // a tag; a conflicting overwrite after reads already resolved means
      // those reads returned a payload the final map does not carry.
      if (v.payload != e.payload && e.resolved_reads > 0) {
        fail("read-from: a read resolved against a payload that a duplicate "
             "write of the same tag later replaced");
        return;
      }
      e.payload = v.payload;
      e.writer_op = id;
      if (!completed) {
        e.floor = floor;
        e.floor_any = floor_any;
      }
    }
  }
  if (completed) {
    e.completed = true;
    e.activated = true;  // RT check below covers it; no activation needed
    // The responder's own floor, not the entry's.
    check_write_rt(v.tag, floor, floor_any, id);
    if (!verdict_.atomic) return;
  }
  resolve_waiting_reads(v.tag, e);
  stats_.peak_window =
      std::max(stats_.peak_window, window_.size() - window_head_);
}

void StreamingTagWitness::on_complete(const OpRecord& op) {
  if (!verdict_.atomic) return;
  advance_time(op.resp);
  PendingOp* pending = find_pending(op.id);
  if (!trust_well_formed_) {
    const std::uint32_t ci =
        pending != nullptr && pending->client == op.client &&
                pending->client_index != kNoClient
            ? pending->client_index
            : client_index(op.client);
    ClientState& cs = clients_[ci];
    if (op.resp < op.invoke) {
      fail("history is not well-formed");
      return;
    }
    cs.in_flight = false;
    cs.last_resp = op.resp;
    cs.any = true;
  }
  PendingOp po;
  // Without a matching on_invoke (a directly driven feed; harness-driven
  // feeds never do this) the op is judged against the current floor.
  Tag floor = max_finished_;
  bool floor_any = max_finished_any_;
  if (pending != nullptr) {
    po = *pending;
    floor = floor_of(po);
    floor_any = po.floor_any;
    if (floor_any) {
      drop_floor(po.floor_run);
    } else {
      --no_floor_pending_;
    }
    drop_pending(*pending);
  }

  if (op.kind == OpKind::kRead) {
    if (floor_any && op.value.tag < floor) {
      fail("real-time: " + describe_op(OpKind::kRead, op.id) +
           " returns a tag older than an op that finished before its "
           "invocation");
      return;
    }
    if (op.value.tag == kBottomTag) {
      bottom_read_seen_ = true;
    } else if (WriteEntry* e = find_write(op.value.tag)) {
      if (e->payload != op.value.payload) {
        fail("read-from: " + describe_op(OpKind::kRead, op.id) +
             " returns a payload differing from the write's");
        return;
      }
      ++e->resolved_reads;
      if (!e->completed && !e->activated) {
        e->activated = true;
        check_write_rt(op.value.tag, e->floor, e->floor_any, e->writer_op);
        if (!verdict_.atomic) return;
      }
    } else {
      // No write with this tag yet; either one is in flight (resolved
      // when its value surfaces) or the run ends and finish() flags it.
      // Equal tags keep arrival order, so finish() names the first.
      unresolved_.insert(std::upper_bound(unresolved_.begin(),
                                          unresolved_.end(), op.value.tag,
                                          ByTag{}),
                         UnresolvedRead{op.value.tag, op.value.payload, op.id});
      stats_.peak_unresolved =
          std::max(stats_.peak_unresolved, unresolved_.size());
    }
  } else {  // write
    // The response carries a different tag than the provisional value
    // recorded mid-operation.
    if (po.has_provisional && !(po.provisional == op.value.tag) &&
        !drop_retagged(po.provisional, op.id)) {
      return;
    }
    if (op.value.tag == kBottomTag) {
      // A completed bottom-tag write is always behind any finished op.
      ++bottom_completed_writes_;
      if (bottom_completed_writes_ > 1) {
        fail("completed write tags are not unique");
        return;
      }
      if (floor_any) {
        fail("real-time: " + describe_op(OpKind::kWrite, op.id) +
             " has tag <= an op that finished before its invocation");
        return;
      }
    } else {
      record_write_value(op.id, op.value, /*completed=*/true, floor,
                         floor_any);
      if (!verdict_.atomic) return;
    }
  }

  note_finished(op.value.tag);
  ++stats_.completions;
  try_retire_window();
  note_settled_progress();
}

void StreamingTagWitness::try_retire_window() {
  if (!verdict_.atomic || !max_finished_any_ || no_floor_pending_ > 0) return;
  // The oldest run still pending holds the minimum floor (§10.1).
  Tag watermark = max_finished_;
  if (floors_head_ < floors_.size() &&
      floors_[floors_head_].floor < watermark) {
    watermark = floors_[floors_head_].floor;
  }
  while (window_head_ < window_.size() &&
         window_[window_head_].tag < watermark) {
    ++window_head_;
    ++stats_.retired_tags;
  }
  if (window_head_ == window_.size()) {
    window_.clear();
    window_head_ = 0;
  }
}

OpId StreamingTagWitness::settled_frontier() const {
  return pending_count_ == 0 ? next_id_ : static_cast<OpId>(ring_base_);
}

void StreamingTagWitness::note_settled_progress() {
  if (retire_target_ == nullptr || !verdict_.atomic) return;
  const OpId frontier = settled_frontier();
  if (static_cast<std::size_t>(frontier - last_retired_) < retire_stride_) {
    return;
  }
  last_retired_ = frontier;
  retire_target_->retire_prefix(frontier);
}

CheckResult StreamingTagWitness::finish() {
  if (!verdict_.atomic) return verdict_;
  if (!unresolved_.empty()) {
    fail("read-from: " +
         describe_op(OpKind::kRead, unresolved_.front().reader) +
         " returns a tag never written");
    return verdict_;
  }
  if (bottom_read_seen_) {
    // A completed read returned bottom, so a pending write whose value was
    // never recorded (still bottom) "visibly took effect" under the batch
    // rule and its bottom tag is <= any finished tag.
    for (std::size_t i = 0; i < ring_span_; ++i) {
      const PendingOp& po = ring_[(ring_head_ + i) & (ring_.size() - 1)];
      if (po.live && po.kind == OpKind::kWrite && !po.has_provisional &&
          po.floor_any) {
        fail("real-time: " +
             describe_op(OpKind::kWrite,
                         static_cast<OpId>(ring_base_ +
                                           static_cast<std::int64_t>(i))) +
             " has tag <= an op that finished before its invocation");
        return verdict_;
      }
    }
  }
  return verdict_;
}

}  // namespace mwreg
