#include "sim/network.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

namespace mwreg {

namespace {

/// Slots the open-tick table starts with; it doubles from real traffic.
constexpr std::size_t kOpenTableSlots = 256;

/// Mix a deliver-time into a table index. Fibonacci-style multiply so
/// consecutive ticks land in different slots.
std::size_t open_hash(Time at) {
  std::uint64_t x = static_cast<std::uint64_t>(at);
  x *= 0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>(x >> 32);
}

Frame frame_of(const Message& m) {
  Frame f;
  f.src = m.src;
  f.dst = m.dst;
  f.type = m.type;
  f.key = m.key;
  f.rpc_id = m.rpc_id;
  f.payload = ByteSpan(m.payload);
  return f;
}

/// Bytes a record of an `len`-byte payload takes: header, then the
/// payload padded so the next record's header stays 8-byte aligned.
std::uint32_t record_bytes(std::size_t len) {
  return static_cast<std::uint32_t>(Network::kRecordHeaderBytes +
                                    ((len + 7) & ~std::size_t{7}));
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
  if (opts_.coalesce) open_tab_.resize(kOpenTableSlots);
}

void Network::attach(NodeId id, Process& p) {
  if (static_cast<std::size_t>(id) >= procs_.size()) {
    procs_.resize(static_cast<std::size_t>(id) + 1, nullptr);
  }
  procs_[static_cast<std::size_t>(id)] = &p;
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
  Frame f;
  f.src = src;
  f.dst = dst;
  f.type = type;
  f.key = key;
  f.rpc_id = rpc_id;
  f.payload = bytes;
  if (!opts_.coalesce) {
    deliver_later(pooled_copy(f), sim_.now());
    return;
  }
  // Same check order as deliver_later: crash, block, then delay sample —
  // blocked and dropped messages draw no randomness in either engine.
  if (crashed(dst)) {
    ++stats_.to_crashed;
    return;
  }
  if (link_blocked(src, dst)) {
    hold_copy(f, sim_.now());
    return;
  }
  route(f, sim_.now(), arrival_time(src, dst));
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
    route(frame_of(m), sent, at);
    discard(std::move(m));  // the bytes now live in a chunk or event record
    return;
  }
  // The capture (this + Message + Time) fits the simulator's inline event
  // storage, so a hop schedules without allocating.
  sim_.schedule_at(at, [this, m = std::move(m), sent]() mutable {
    deliver_one(frame_of(m), sent, &m);
  });
}

void Network::deliver_one(const Frame& f, Time sent, Message* owner) {
  Process* p = static_cast<std::size_t>(f.dst) < procs_.size()
                   ? procs_[static_cast<std::size_t>(f.dst)]
                   : nullptr;
  if (crashed(f.dst)) {
    ++stats_.to_crashed;
  } else if (link_blocked(f.src, f.dst)) {
    // A message can be scheduled before its link is blocked; honor the
    // block at delivery time so block_link() acts as a clean cut.
    if (owner == nullptr) {
      hold_copy(f, sent);
    } else {
      held_.emplace_back(std::move(*owner), sent);
      ++stats_.held;
    }
  } else if (p == nullptr) {
    // Counted explicitly (not as delivered) so the conservation invariant
    // holds even when traffic targets a node nothing ever attached to.
    ++stats_.dropped_unattached;
  } else {
    ++stats_.delivered;
    dispatching_ = true;
    if (hook_) hook_(f, sent, sim_.now());
    p->on_message(f);
    dispatching_ = false;
  }
  // Recycle the payload storage for the next hop (a no-op once parked).
  if (owner != nullptr) discard(std::move(*owner));
}

Message Network::pooled_copy(const Frame& f) {
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
  return m;
}

void Network::hold_copy(const Frame& f, Time sent) {
  held_.emplace_back(pooled_copy(f), sent);
  ++stats_.held;
}

void Network::route(const Frame& f, Time sent, Time at) {
  OpenEntry& oe = open_entry(at);
  const bool joinable = oe.at == at;
  if (!joinable) {
    // The first frame of its tick, as far as the table knows. A colliding
    // tick's entry is evicted; its frames stay scheduled, and a batch's
    // cursor is saved for its drain.
    if (oe.at < 0) {
      ++open_live_;
    } else if (oe.batch != kLone) {
      oe.tail->used = oe.off;
    }
    oe.at = at;
    oe.batch = kLone;
  }
  if (joinable || f.payload.size() > kLoneInlineBytes) {
    // Join the tick's batch, or open it: for a second frame, or a first
    // one too large to ride in an event record.
    enqueue_frame(oe, f, sent);
  } else {
    // Ride alone: schedule the frame as the per-message engine would,
    // consuming the sequence reserve_seq() would have, with its payload
    // in the event record, so it holds no pooled buffer in flight
    // (DESIGN.md section 8.5). A second frame for the tick opens a batch.
    ++coalesce_stats_.lone;
    sim_.schedule_at(at, [this, lf = LoneInline(f, sent)]() {
      // Leave the table, so a same-tick send from the handler rides alone
      // again instead of opening a batch behind a delivered frame.
      close_entry(sim_.now(), kLone);
      deliver_one(lf.frame(), lf.sent, nullptr);
    });
  }
  if (!joinable && 4 * open_live_ > open_tab_.size()) grow_open_table();
}

Network::LoneInline::LoneInline(const Frame& f, Time sent_at)
    : src(f.src),
      dst(f.dst),
      type(f.type),
      key(f.key),
      rpc_id(f.rpc_id),
      sent(sent_at),
      len(static_cast<std::uint32_t>(f.payload.size())) {
  if (len > 0) std::memcpy(bytes, f.payload.data(), len);
}

Frame Network::LoneInline::frame() const {
  Frame f;
  f.src = src;
  f.dst = dst;
  f.type = type;
  f.key = key;
  f.rpc_id = rpc_id;
  f.payload = ByteSpan(bytes, len);
  return f;
}

Frame Network::Record::frame() const {
  Frame f;
  f.src = src;
  f.dst = dst;
  f.type = type;
  f.key = key;
  f.rpc_id = rpc_id;
  f.payload = ByteSpan(reinterpret_cast<const std::uint8_t*>(this) +
                           sizeof(Record),
                       len);
  return f;
}

Network::OpenEntry& Network::open_entry(Time at) {
  return open_tab_[open_hash(at) & (open_tab_.size() - 1)];
}

void Network::close_entry(Time at, std::uint32_t batch) {
  OpenEntry& oe = open_entry(at);
  if (oe.at == at && oe.batch == batch) {
    if (batch != kLone) oe.tail->used = oe.off;
    oe.at = -1;
    --open_live_;
  }
}

void Network::grow_open_table() {
  // Doubling splits slot i into i and i + old size, so no two live
  // entries collide on rehash.
  std::vector<OpenEntry> old(2 * open_tab_.size());
  old.swap(open_tab_);
  for (const OpenEntry& e : old) {
    if (e.at >= 0) open_entry(e.at) = e;
  }
}

std::uint32_t Network::acquire_batch() {
  if (!free_batches_.empty()) {
    const std::uint32_t bi = free_batches_.back();
    free_batches_.pop_back();
    return bi;
  }
  batches_.emplace_back();
  ++storage_.batches;
  return static_cast<std::uint32_t>(batches_.size() - 1);
}

Network::Chunk* Network::acquire_chunk(std::size_t need) {
  std::uint32_t cls = 0;
  std::size_t bytes = kChunkBytes;
  if (need > kChunkRecordBytes) {
    // Oversized: a block of the next power of two, pooled by that size.
    for (cls = 1, bytes = 2; bytes < sizeof(Chunk) + need; bytes <<= 1) ++cls;
  }
  Chunk* c = free_[cls];
  if (c == nullptr) {
    chunk_mem_.emplace_back(new std::uint8_t[bytes]);
    ++(cls == 0 ? storage_.chunks : storage_.blocks);
    return ::new (static_cast<void*>(chunk_mem_.back().get()))
        Chunk{nullptr, 0, cls};
  }
  free_[cls] = c->next;
  c->next = nullptr;
  c->used = 0;
  return c;
}

void Network::release_chunks(Chunk* from, Chunk* to) {
  while (from != to) {
    Chunk* next = from->next;
    from->next = free_[from->cls];
    free_[from->cls] = from;
    from = next;
  }
}

void Network::enqueue_frame(OpenEntry& oe, const Frame& f, Time sent) {
  // One sequence number per frame — exactly what scheduling it as its own
  // event would consume — pins the global (time, seq) order of every frame
  // regardless of which batch it rides in.
  const std::uint64_t seq = sim_.reserve_seq();
  ++coalesce_stats_.enqueued;
  const std::uint32_t need = record_bytes(f.payload.size());
  if (oe.batch == kLone) {
    // The tick's second frame, or a first one too large to ride alone:
    // open the batch at this frame's sequence. A lone frame keeps its own,
    // lower-sequenced event.
    const std::uint32_t nbi = acquire_batch();
    Chunk* c = acquire_chunk(need);
    Batch& nb = batches_[nbi];
    nb.at = oe.at;
    nb.rd = c;
    nb.rd_off = 0;
    nb.sealed = false;
    oe.batch = nbi;
    oe.tail = c;
    oe.off = 0;
    sim_.schedule_at_seq(oe.at, seq, [this, nbi] { fire_batch(nbi); });
  } else if (oe.off + need > kChunkRecordBytes) {
    // The record does not fit the tail: continue in a fresh chunk (or a
    // block). A block tail's offset already exceeds kChunkRecordBytes, so
    // the record after an oversized one always starts a fresh chunk.
    Chunk* c = acquire_chunk(need);
    oe.tail->used = oe.off;
    oe.tail->next = c;
    oe.tail = c;
    oe.off = 0;
    ++storage_.spills;
  }
  std::uint8_t* w = oe.tail->data() + oe.off;
  const auto len = static_cast<std::uint32_t>(f.payload.size());
  ::new (static_cast<void*>(w))
      Record{seq, sent, f.rpc_id, f.src, f.dst, f.type, f.key, len};
  if (len > 0) std::memcpy(w + sizeof(Record), f.payload.data(), len);
  oe.off += need;
}

void Network::fire_batch(std::uint32_t bi) {
  Batch& b = batches_[bi];
  if (!b.sealed) {
    b.sealed = true;
    // Leave the open table (if we still own our entry — eviction may have
    // reused it), so same-tick sends from handlers ride alone or open a
    // fresh batch instead of appending to one that is already draining.
    close_entry(b.at, bi);
    ++coalesce_stats_.batches;
  }
  // b may move once a handler opens a batch; keep what the drain needs.
  const Time at = b.at;
  // Read cursor. Past a record it steps into the next chunk when its own
  // is done, so off < c->used until the batch is drained.
  Chunk* c = b.rd;
  std::uint32_t off = b.rd_off;
  // The first chunk a frame still to be dispatched can point into; the
  // chunks before it go back to the pool.
  Chunk* keep = c;
  auto record = [&c, &off] {
    return std::launder(reinterpret_cast<const Record*>(c->data() + off));
  };
  auto advance = [&c, &off](const Record* r) {
    off += record_bytes(r->len);
    if (off == c->used && c->next != nullptr) {
      c = c->next;
      off = 0;
    }
  };
  while (off < c->used) {
    const Record* r = record();
    // Yield whenever an intermediate event — a timer, a fault-plan step, an
    // evicted sibling batch or lone frame — orders before the next frame's
    // (time, seq); the remainder reschedules at that frame's reserved
    // sequence, reproducing the per-message interleaving exactly. The
    // tick's records are in ascending sequence order by construction, so
    // no event enqueued during this drain (its sequence is above every
    // frame here) can ever force a yield.
    if (sim_.has_event_before(at, r->seq)) {
      ++coalesce_stats_.continuations;
      Batch& rb = batches_[bi];
      rb.rd = c;
      rb.rd_off = off;
      sim_.schedule_at_seq(at, r->seq, [this, bi] { fire_batch(bi); });
      return;
    }
    const NodeId dst = r->dst;
    Process* p = static_cast<std::size_t>(dst) < procs_.size()
                     ? procs_[static_cast<std::size_t>(dst)]
                     : nullptr;
    if (num_crashed_ == 0 && num_blocked_ == 0 && !hook_) {
      // Fast path: no fault is active, so every frame up to the next
      // destination switch or intermediate event delivers as one run.
      run_.clear();
      do {
        run_.push_back(r->frame());
        advance(r);
        r = off < c->used ? record() : nullptr;
      } while (r != nullptr && r->dst == dst &&
               !sim_.has_event_before(at, r->seq));
      const std::size_t len = run_.size();
      if (p != nullptr) {
        stats_.delivered += len;
        coalesce_stats_.frames += len;
        ++coalesce_stats_.hist[span_bucket(len)];
        dispatching_ = true;
        p->on_deliver_batch(FrameSpan{run_.data(), len});
        dispatching_ = false;
      } else {
        stats_.dropped_unattached += len;
      }
    } else {
      // Slow path: re-check fault state frame by frame, same order as the
      // per-message engine (crash check, then block check, then delivery).
      const Frame f = r->frame();
      const Time sent = r->sent;
      advance(r);
      if (crashed(dst)) {
        ++stats_.to_crashed;
      } else if (link_blocked(f.src, dst)) {
        hold_copy(f, sent);
      } else if (p == nullptr) {
        ++stats_.dropped_unattached;
      } else {
        ++stats_.delivered;
        ++coalesce_stats_.frames;
        ++coalesce_stats_.hist[0];
        dispatching_ = true;
        if (hook_) hook_(f, sent, sim_.now());
        p->on_deliver_batch(FrameSpan{&f, 1});
        dispatching_ = false;
      }
    }
    release_chunks(keep, c);
    keep = c;
  }
  release_chunks(keep, nullptr);
  free_batches_.push_back(bi);
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
