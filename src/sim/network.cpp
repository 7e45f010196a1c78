#include "sim/network.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace mwreg {

namespace {

/// Mix a deliver-time into a table index. Fibonacci-style multiply so
/// consecutive ticks land in different slots.
std::size_t open_hash(Time at) {
  std::uint64_t x = static_cast<std::uint64_t>(at);
  x *= 0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>(x >> 32);
}

int span_bucket(std::size_t n) {
  int b = 0;
  while (n > 1 && b < CoalesceStats::kHistBuckets - 1) {
    n >>= 1;
    ++b;
  }
  return b;
}

}  // namespace

Network::Network(Simulator& sim, std::unique_ptr<DelayModel> delay, Rng rng,
                 Options opts)
    : sim_(sim), delay_(std::move(delay)), rng_(rng), opts_(opts) {
  if (opts_.tick < 1) opts_.tick = 1;
  if (opts_.coalesce) open_tab_.resize(1024);
}

void Network::attach(NodeId id, Process& p) {
  if (static_cast<std::size_t>(id) >= procs_.size()) {
    procs_.resize(static_cast<std::size_t>(id) + 1, nullptr);
  }
  procs_[static_cast<std::size_t>(id)] = &p;
}

void Network::reserve_coalescing(std::size_t expected_batches,
                                 std::size_t frames_per_batch,
                                 std::size_t bytes_per_frame) {
  if (!opts_.coalesce) return;
  std::size_t tab = open_tab_.size();
  while (tab < 4 * expected_batches) tab <<= 1;
  if (tab > open_tab_.size()) open_tab_.assign(tab, OpenEntry{});
  // The lookup table is sized for the full destination count (entries are
  // cheap and collisions cost coalescing quality), but batch pre-creation
  // is bounded: past this, warmup traffic grows the pool organically and
  // capacities ratchet from real frame shapes instead of worst-case ones.
  const std::size_t precreate = std::min<std::size_t>(expected_batches, 4096);
  while (batches_.size() < precreate) {
    batches_.push_back(std::make_unique<Batch>());
    Batch& b = *batches_.back();
    b.slab.reserve(frames_per_batch * bytes_per_frame);
    b.frames.reserve(frames_per_batch);
    b.meta.reserve(frames_per_batch);
    free_batches_.push_back(static_cast<std::uint32_t>(batches_.size() - 1));
  }
}

void Network::discard(Message&& m) { pool_.release(std::move(m.payload)); }

Time Network::arrival_time(NodeId src, NodeId dst) {
  const Duration d = delay_->sample(src, dst, rng_);
  Time at = sim_.now() + d;
  if (opts_.tick > 1) {
    // Round up to the tick grid — applied identically in both engines, so
    // coalescing on/off stays bit-identical at any tick.
    at = ((at + opts_.tick - 1) / opts_.tick) * opts_.tick;
  }
  if (opts_.fifo) {
    const auto di = static_cast<std::size_t>(dst);
    const auto si = static_cast<std::size_t>(src);
    if (fifo_last_.size() <= di) fifo_last_.resize(di + 1);
    auto& row = fifo_last_[di];
    if (row.size() <= si) row.resize(si + 1, 0);
    at = std::max(at, row[si]);
    row[si] = at;
  }
  return at;
}

void Network::send(Message m) {
  ++stats_.sent;
  stats_.bytes_sent += m.payload.size();
  if (crashed(m.src)) {  // a crashed node sends nothing
    ++stats_.from_crashed;
    discard(std::move(m));
    return;
  }
  deliver_later(std::move(m), sim_.now());
}

void Network::send_bytes(NodeId src, NodeId dst, MsgType type,
                         std::uint32_t key, std::uint64_t rpc_id,
                         ByteSpan bytes) {
  ++stats_.sent;
  stats_.bytes_sent += bytes.size();
  if (crashed(src)) {
    ++stats_.from_crashed;
    return;
  }
  if (opts_.coalesce) {
    // Same check order as deliver_later: crash, block, then delay sample —
    // blocked and dropped messages draw no randomness in either engine.
    if (crashed(dst)) {
      ++stats_.to_crashed;
      return;
    }
    if (link_blocked(src, dst)) {
      Frame f;
      f.src = src;
      f.dst = dst;
      f.type = type;
      f.key = key;
      f.rpc_id = rpc_id;
      f.payload = bytes;
      hold_copy(f, sim_.now());
      return;
    }
    enqueue_frame(src, dst, type, key, rpc_id, bytes, sim_.now(),
                  arrival_time(src, dst));
    return;
  }
  Message m;
  m.src = src;
  m.dst = dst;
  m.type = type;
  m.key = key;
  m.rpc_id = rpc_id;
  if (!bytes.empty()) {
    m.payload = pool_.acquire();
    m.payload.assign(bytes.begin(), bytes.end());
  }
  deliver_later(std::move(m), sim_.now());
}

void Network::deliver_later(Message m, Time sent) {
  if (crashed(m.dst)) {
    ++stats_.to_crashed;
    discard(std::move(m));
    return;
  }
  if (link_blocked(m.src, m.dst)) {
    held_.emplace_back(std::move(m), sent);
    ++stats_.held;
    return;
  }
  const Time at = arrival_time(m.src, m.dst);
  if (opts_.coalesce) {
    enqueue_frame(m.src, m.dst, m.type, m.key, m.rpc_id, ByteSpan(m.payload),
                  sent, at);
    discard(std::move(m));  // bytes now live in the batch slab
    return;
  }
  // The capture (this + Message + Time) fits the simulator's inline event
  // storage, so a hop schedules without allocating.
  sim_.schedule_at(at, [this, m = std::move(m), sent]() mutable {
    deliver_now(std::move(m), sent);
  });
}

void Network::deliver_now(Message m, Time sent) {
  if (crashed(m.dst)) {
    ++stats_.to_crashed;
    discard(std::move(m));
    return;
  }
  // A message can be scheduled before its link is blocked; honor the block
  // at delivery time so block_link() acts as a clean cut.
  if (link_blocked(m.src, m.dst)) {
    held_.emplace_back(std::move(m), sent);
    ++stats_.held;
    return;
  }
  Process* p = static_cast<std::size_t>(m.dst) < procs_.size()
                   ? procs_[static_cast<std::size_t>(m.dst)]
                   : nullptr;
  if (p == nullptr) {
    // Counted explicitly (not as delivered) so the conservation invariant
    // holds even when traffic targets a node nothing ever attached to.
    ++stats_.dropped_unattached;
    discard(std::move(m));
    return;
  }
  ++stats_.delivered;
  Frame f;
  f.src = m.src;
  f.dst = m.dst;
  f.type = m.type;
  f.key = m.key;
  f.rpc_id = m.rpc_id;
  f.payload = ByteSpan(m.payload);
  dispatching_ = true;
  if (hook_) hook_(f, sent, sim_.now());
  p->on_message(f);
  dispatching_ = false;
  discard(std::move(m));  // recycle the payload storage for the next hop
}

void Network::hold_copy(const Frame& f, Time sent) {
  Message m;
  m.src = f.src;
  m.dst = f.dst;
  m.type = f.type;
  m.key = f.key;
  m.rpc_id = f.rpc_id;
  if (!f.payload.empty()) {
    m.payload = pool_.acquire();
    m.payload.assign(f.payload.begin(), f.payload.end());
  }
  held_.emplace_back(std::move(m), sent);
  ++stats_.held;
}

std::uint32_t Network::acquire_batch() {
  if (!free_batches_.empty()) {
    const std::uint32_t bi = free_batches_.back();
    free_batches_.pop_back();
    Batch& b = *batches_[bi];
    b.slab.clear();   // capacities ratchet: a warmed batch pool
    b.frames.clear(); // appends and drains without allocating
    b.meta.clear();
    return bi;
  }
  batches_.push_back(std::make_unique<Batch>());
  return static_cast<std::uint32_t>(batches_.size() - 1);
}

void Network::recycle_batch(std::uint32_t bi) { free_batches_.push_back(bi); }

void Network::enqueue_frame(NodeId src, NodeId dst, MsgType type,
                            std::uint32_t key, std::uint64_t rpc_id,
                            ByteSpan bytes, Time sent, Time at) {
  // One sequence number per frame — exactly what scheduling it as its own
  // event would consume — pins the global (time, seq) order of every frame
  // regardless of which batch it rides in.
  const std::uint64_t seq = sim_.reserve_seq();
  ++coalesce_stats_.enqueued;
  OpenEntry& oe = open_tab_[open_hash(at) & (open_tab_.size() - 1)];
  std::uint32_t bi;
  if (oe.at == at) {
    bi = oe.batch;  // join the open batch; its event is already scheduled
  } else {
    bi = acquire_batch();
    Batch& nb = *batches_[bi];
    nb.at = at;
    nb.open_slot = static_cast<std::uint32_t>(&oe - open_tab_.data());
    nb.sealed = false;
    // Collision evicts the previous entry: that batch stays scheduled and
    // simply stops being joinable — less coalescing, never wrong order.
    oe.at = at;
    oe.batch = bi;
    sim_.schedule_at_seq(at, seq, [this, bi] { fire_batch(bi, 0); });
  }
  Batch& b = *batches_[bi];
  FrameMeta fm;
  fm.off = static_cast<std::uint32_t>(b.slab.size());
  fm.sent = sent;
  fm.seq = seq;
  b.meta.push_back(fm);
  b.slab.insert(b.slab.end(), bytes.begin(), bytes.end());
  Frame f;
  f.src = src;
  f.dst = dst;
  f.type = type;
  f.key = key;
  f.rpc_id = rpc_id;
  // Appends may still grow (and move) the slab; the pointer is fixed up at
  // seal time, the length is final now.
  f.payload = ByteSpan(nullptr, bytes.size());
  b.frames.push_back(f);
}

void Network::fire_batch(std::uint32_t bi, std::uint32_t from) {
  Batch& b = *batches_[bi];
  if (!b.sealed) {
    b.sealed = true;
    // Leave the open table (if we still own our slot — eviction may have
    // reused it), so same-tick sends from handlers open a fresh batch
    // instead of appending to one that is already draining.
    OpenEntry& oe = open_tab_[b.open_slot];
    if (oe.batch == bi && oe.at == b.at) oe.at = -1;
    const std::uint8_t* base = b.slab.data();
    for (std::size_t i = 0; i < b.frames.size(); ++i) {
      b.frames[i].payload.ptr = base + b.meta[i].off;
    }
    ++coalesce_stats_.batches;
  }
  const auto n = static_cast<std::uint32_t>(b.frames.size());
  std::uint32_t i = from;
  while (i < n) {
    // Yield whenever an intermediate event — a timer, a fault-plan step, an
    // evicted sibling batch — orders before the next frame's (time, seq);
    // the remainder reschedules at that frame's reserved sequence,
    // reproducing the per-message interleaving exactly. The tick's frame
    // list is in ascending sequence order by construction, so no event
    // enqueued during this drain (its sequence is above every frame here)
    // can ever force a yield.
    if (sim_.has_event_before(b.at, b.meta[i].seq)) {
      ++coalesce_stats_.continuations;
      sim_.schedule_at_seq(b.at, b.meta[i].seq,
                           [this, bi, i] { fire_batch(bi, i); });
      return;
    }
    const NodeId dst = b.frames[i].dst;
    Process* p = static_cast<std::size_t>(dst) < procs_.size()
                     ? procs_[static_cast<std::size_t>(dst)]
                     : nullptr;
    if (num_crashed_ == 0 && num_blocked_ == 0 && !hook_) {
      // Fast path: no fault is active, so every frame up to the next
      // destination switch or intermediate event delivers as one run.
      std::uint32_t j = i + 1;
      while (j < n && b.frames[j].dst == dst &&
             !sim_.has_event_before(b.at, b.meta[j].seq)) {
        ++j;
      }
      const std::uint32_t len = j - i;
      if (p != nullptr) {
        stats_.delivered += len;
        coalesce_stats_.frames += len;
        ++coalesce_stats_.hist[span_bucket(len)];
        dispatching_ = true;
        p->on_deliver_batch(FrameSpan{b.frames.data() + i, len});
        dispatching_ = false;
      } else {
        stats_.dropped_unattached += len;
      }
      i = j;
    } else {
      // Slow path: re-check fault state frame by frame, same order as the
      // per-message engine (crash check, then block check, then delivery).
      const Frame& f = b.frames[i];
      if (crashed(dst)) {
        ++stats_.to_crashed;
      } else if (link_blocked(f.src, dst)) {
        hold_copy(f, b.meta[i].sent);
      } else if (p == nullptr) {
        ++stats_.dropped_unattached;
      } else {
        ++stats_.delivered;
        ++coalesce_stats_.frames;
        ++coalesce_stats_.hist[0];
        dispatching_ = true;
        if (hook_) hook_(f, b.meta[i].sent, sim_.now());
        p->on_deliver_batch(FrameSpan{&f, 1});
        dispatching_ = false;
      }
      ++i;
    }
  }
  recycle_batch(bi);
}

void Network::refuse_while_dispatching(const char* call, NodeId a,
                                       NodeId b) const {
  if (!dispatching_) return;
  std::string ids = std::to_string(a);
  if (b != kNoNode) ids += ", " + std::to_string(b);
  throw std::logic_error(std::string("Network::") + call + "(" + ids +
                         ") called from a message handler or delivery hook; "
                         "schedule fault mutations as simulator events");
}

void Network::crash(NodeId id) {
  refuse_while_dispatching("crash", id, kNoNode);
  assert(id >= 0);
  if (id < 0) return;  // sentinel ids (kNoNode) never index the table
  const auto i = static_cast<std::size_t>(id);
  if (i >= crashed_.size()) crashed_.resize(i + 1, 0);
  if (crashed_[i] == 0) {
    crashed_[i] = 1;
    ++num_crashed_;
  }
}

void Network::recover(NodeId id) {
  refuse_while_dispatching("recover", id, kNoNode);
  if (id < 0 || static_cast<std::size_t>(id) >= crashed_.size()) return;
  const auto i = static_cast<std::size_t>(id);
  if (crashed_[i] != 0) {
    crashed_[i] = 0;
    --num_crashed_;
  }
}

void Network::block_link(NodeId src, NodeId dst) {
  refuse_while_dispatching("block_link", src, dst);
  assert(src >= 0 && dst >= 0);
  if (src < 0 || dst < 0) return;  // sentinel ids never index the table
  const auto s = static_cast<std::size_t>(src);
  const auto d = static_cast<std::size_t>(dst);
  if (s >= blocked_.size()) blocked_.resize(s + 1);
  if (d >= blocked_[s].size()) blocked_[s].resize(d + 1, 0);
  if (blocked_[s][d] == 0) {
    blocked_[s][d] = 1;
    ++num_blocked_;
  }
}

void Network::block_pair(NodeId a, NodeId b) {
  block_link(a, b);
  block_link(b, a);
}

void Network::unblock_link(NodeId src, NodeId dst) {
  refuse_while_dispatching("unblock_link", src, dst);
  if (!link_blocked(src, dst)) return;
  blocked_[static_cast<std::size_t>(src)][static_cast<std::size_t>(dst)] = 0;
  --num_blocked_;
  std::vector<std::pair<Message, Time>> still_held;
  still_held.reserve(held_.size());
  for (auto& [m, sent] : held_) {
    if (m.src == src && m.dst == dst) {
      --stats_.held;
      deliver_later(std::move(m), sent);
    } else {
      still_held.emplace_back(std::move(m), sent);
    }
  }
  held_ = std::move(still_held);
}

void Network::unblock_pair(NodeId a, NodeId b) {
  unblock_link(a, b);
  unblock_link(b, a);
}

}  // namespace mwreg
