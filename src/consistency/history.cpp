#include "consistency/history.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

namespace mwreg {

OpId History::begin_op(NodeId client, OpKind kind, Time invoke) {
  const std::size_t i = size_ - block_base_;
  if (i == blocks_.size() * kBlockOps) {
    if (spare_.empty()) {
      blocks_.push_back(std::make_unique<Block>());
      ++blocks_created_;
    } else {
      blocks_.push_back(std::move(spare_.back()));
      spare_.pop_back();
    }
  }
  OpRecord& rec = blocks_[i / kBlockOps]->ops[i % kBlockOps];
  rec = OpRecord{};
  rec.id = static_cast<OpId>(size_++);
  rec.client = client;
  rec.kind = kind;
  rec.invoke = invoke;
  for (HistorySink* s : sinks_) s->on_invoke(rec);
  return rec.id;
}

const OpRecord& History::live(OpId id) const {
  const auto i = static_cast<std::size_t>(id);
  if (id < 0 || i < base_ || i >= size_) {
    throw std::out_of_range("History: op " + std::to_string(id) +
                            " is not live (live ids [" +
                            std::to_string(base_) + ", " +
                            std::to_string(size_) + "))");
  }
  const std::size_t j = i - block_base_;
  return blocks_[j / kBlockOps]->ops[j % kBlockOps];
}

void History::end_op(OpId id, Time resp, const TaggedValue& value) {
  OpRecord& rec = live(id);
  rec.resp = resp;
  rec.value = value;
  // Copy before notifying: a sink may reentrantly retire_prefix(), which
  // recycles the block `rec` lives in.
  const OpRecord copy = rec;
  for (HistorySink* s : sinks_) s->on_complete(copy);
}

void History::set_value(OpId id, const TaggedValue& value) {
  OpRecord& rec = live(id);
  rec.value = value;
  const OpRecord copy = rec;
  for (HistorySink* s : sinks_) s->on_value(copy);
}

void History::subscribe(HistorySink* sink) { sinks_.push_back(sink); }

void History::unsubscribe(HistorySink* sink) {
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink), sinks_.end());
}

void History::retire_prefix(OpId first_live) {
  const auto target = static_cast<std::size_t>(first_live);
  if (first_live < 0 || target <= base_) return;
  base_ = std::min(target, size_);
  // Recycle every block whose records are all retired. Erasing the front
  // of blocks_ moves a few pointers, once per kBlockOps retired records.
  std::size_t done = 0;
  while (done < blocks_.size() && block_base_ + kBlockOps <= base_) {
    spare_.push_back(std::move(blocks_[done++]));
    block_base_ += kBlockOps;
  }
  blocks_.erase(blocks_.begin(),
                blocks_.begin() + static_cast<std::ptrdiff_t>(done));
  for (HistorySink* s : sinks_) s->on_retire(static_cast<OpId>(base_));
}

void History::clear() {
  for (BlockPtr& b : blocks_) spare_.push_back(std::move(b));
  blocks_.clear();
  block_base_ = 0;
  base_ = 0;
  size_ = 0;
}

std::size_t History::completed_count() const {
  std::size_t n = 0;
  for (const OpRecord& r : ops()) n += r.completed() ? 1 : 0;
  return n;
}

bool History::well_formed() const {
  // Each client's ops, in history (invocation) order: sort (client, id)
  // pairs, then compare neighbours of one client.
  struct Entry {
    NodeId client;
    const OpRecord* op;
  };
  std::vector<Entry> by_client;
  by_client.reserve(size_ - base_);
  for (const OpRecord& r : ops()) {
    if (r.completed() && r.resp < r.invoke) return false;
    by_client.push_back(Entry{r.client, &r});
  }
  std::sort(by_client.begin(), by_client.end(),
            [](const Entry& a, const Entry& b) {
              return a.client != b.client ? a.client < b.client
                                          : a.op->id < b.op->id;
            });
  for (std::size_t i = 1; i < by_client.size(); ++i) {
    const OpRecord& prev = *by_client[i - 1].op;
    if (by_client[i].client != by_client[i - 1].client) continue;
    // A pending op holds its client forever: nothing may follow it.
    const Time last_resp = prev.completed() ? prev.resp : kTimeMax;
    if (by_client[i].op->invoke < last_resp) return false;
  }
  return true;
}

bool History::unique_write_tags() const {
  std::vector<Tag> tags;
  for (const OpRecord& r : ops()) {
    if (r.kind == OpKind::kWrite && r.completed()) tags.push_back(r.value.tag);
  }
  std::sort(tags.begin(), tags.end());
  return std::adjacent_find(tags.begin(), tags.end()) == tags.end();
}

std::string History::to_string() const {
  std::ostringstream os;
  for (const OpRecord& r : ops()) {
    os << (r.kind == OpKind::kWrite ? "W" : "R") << " c" << r.client << " ["
       << r.invoke << ",";
    if (r.completed()) {
      os << r.resp;
    } else {
      os << "inf";
    }
    os << "] " << r.value.to_string() << "\n";
  }
  return os.str();
}

}  // namespace mwreg
