#include "sim/network.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
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

/// Bytes a record of an `len`-byte payload under a `header`-byte header
/// takes: the header, then the payload padded to 4 bytes, the alignment
/// of a compact header.
std::uint32_t record_bytes(std::size_t header, std::size_t len) {
  return static_cast<std::uint32_t>(header + ((len + 3) & ~std::size_t{3}));
}

/// A batched frame's header, either form, followed by its payload padded
/// to 4. Both forms open with a word whose bit 0 is kWideFlag. A record
/// starts only 4-byte aligned: a compact header (4-byte fields) lives in
/// place, a wide one is copied in and out.
constexpr std::uint32_t kWideFlag = 1;

/// The header of a frame whose fields all fit: `word` packs the length
/// (bits 1-12), type (13-20) and key (21-31) over a clear flag bit.
struct CompactHeader {
  std::uint32_t word;
  std::uint32_t seq_off;  ///< sequence less the batch's first
  NodeId src;
  NodeId dst;
  std::uint32_t rpc_id;
  std::uint32_t delay;    ///< deliver time less send time
};
static_assert(sizeof(CompactHeader) == Network::kCompactHeaderBytes,
              "a compact header is kCompactHeaderBytes");

/// Every other frame's header: `word` is kWideFlag, and each field has its
/// full width.
struct WideHeader {
  std::uint32_t word;
  std::uint32_t len;
  std::uint64_t seq;  ///< reserved simulator sequence of this frame
  Time sent;          ///< original send time (delivery hooks)
  std::uint64_t rpc_id;
  NodeId src;
  NodeId dst;
  MsgType type;
  std::uint32_t key;
};
static_assert(sizeof(WideHeader) == Network::kWideHeaderBytes,
              "a wide header is kWideHeaderBytes");

/// A record in a batch's chunk, read in place under either header form.
/// Each accessor loads only the fields it needs, straight from the chunk.
class RecordRef {
 public:
  explicit RecordRef(const std::uint8_t* p) : p_(p) {
    std::memcpy(&word_, p, sizeof word_);
  }

  [[nodiscard]] NodeId dst() const {
    return wide() ? wide_field<NodeId>(offsetof(WideHeader, dst))
                  : compact().dst;
  }
  /// The frame's reserved sequence, in a batch whose first is `base`.
  [[nodiscard]] std::uint64_t seq(std::uint64_t base) const {
    return wide() ? wide_field<std::uint64_t>(offsetof(WideHeader, seq))
                  : base + compact().seq_off;
  }
  /// The frame's send time, in a batch delivered at `at`.
  [[nodiscard]] Time sent(Time at) const {
    return wide() ? wide_field<Time>(offsetof(WideHeader, sent))
                  : at - compact().delay;
  }
  /// Header plus padded payload.
  [[nodiscard]] std::uint32_t size() const {
    return record_bytes(header_bytes(), len());
  }
  /// Fill `f` with the frame, its payload viewing the record's own bytes.
  void frame(Frame& f) const {
    if (wide()) {
      WideHeader h;
      std::memcpy(&h, p_, sizeof h);
      f.src = h.src;
      f.dst = h.dst;
      f.type = h.type;
      f.key = h.key;
      f.rpc_id = h.rpc_id;
    } else {
      const CompactHeader& h = compact();
      f.src = h.src;
      f.dst = h.dst;
      f.type = (word_ >> 13) & Network::kCompactMaxType;
      f.key = word_ >> 21;
      f.rpc_id = h.rpc_id;
    }
    f.payload = ByteSpan(p_ + header_bytes(), len());
  }

 private:
  [[nodiscard]] bool wide() const { return (word_ & kWideFlag) != 0; }
  [[nodiscard]] std::size_t header_bytes() const {
    return wide() ? sizeof(WideHeader) : sizeof(CompactHeader);
  }
  [[nodiscard]] std::uint32_t len() const {
    return wide() ? wide_field<std::uint32_t>(offsetof(WideHeader, len))
                  : (word_ >> 1) & Network::kCompactMaxLen;
  }
  [[nodiscard]] const CompactHeader& compact() const {
    return *std::launder(reinterpret_cast<const CompactHeader*>(p_));
  }
  template <typename T>
  [[nodiscard]] T wide_field(std::size_t offset) const {
    T v;
    std::memcpy(&v, p_ + offset, sizeof v);
    return v;
  }

  const std::uint8_t* p_;
  std::uint32_t word_;
};

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

void Network::send_bytes(NodeId src, NodeId dst, MsgType type,
                         std::uint32_t key, std::uint64_t rpc_id,
                         ByteSpan bytes) {
  ++stats_.sent;
  stats_.bytes_sent += bytes.size();
  if (crashed(src)) {  // a crashed node sends nothing
    ++stats_.from_crashed;
    return;
  }
  // Same check order as deliver_later: crash, block, then delay sample —
  // blocked and dropped messages draw no randomness in either engine, and
  // a dropped one takes no copy.
  if (crashed(dst)) {
    ++stats_.to_crashed;
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
    } else if (oe.head != nullptr) {
      oe.tail->used = oe.off;
    }
    oe.at = at;
    oe.head = nullptr;
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
      close_entry(sim_.now(), nullptr);
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

Network::OpenEntry& Network::open_entry(Time at) {
  return open_tab_[open_hash(at) & (open_tab_.size() - 1)];
}

void Network::close_entry(Time at, const Chunk* head) {
  OpenEntry& oe = open_entry(at);
  if (oe.at == at && oe.head == head) {
    if (head != nullptr) oe.tail->used = oe.off;
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
  if (oe.head != nullptr && seq - oe.base > kCompactMaxSeqOffset) {
    // A compact header could not hold this frame's offset from the batch's
    // first sequence. Evict the batch, saving its cursor, as a collision
    // would, and open a fresh one for the tick: every sequence the evicted
    // batch holds precedes this frame's, so it still drains first.
    oe.tail->used = oe.off;
    oe.head = nullptr;
  }
  const auto len = static_cast<std::uint32_t>(f.payload.size());
  const Duration delay = oe.at - sent;
  // Wide when any field is past its compact width, a negative delay
  // included; `|`, not `||`, so the tests cost no branches.
  const bool wide =
      ((f.rpc_id | static_cast<std::uint64_t>(delay)) > 0xFFFFFFFFu) |
      (f.payload.size() > kCompactMaxLen) | (f.type > kCompactMaxType) |
      (f.key > kCompactMaxKey);
  const std::size_t header = wide ? kWideHeaderBytes : kCompactHeaderBytes;
  const std::uint32_t need = record_bytes(header, len);
  if (oe.head == nullptr) {
    // The tick's second frame, or a first one too large to ride alone:
    // open the batch at this frame's sequence. A lone frame keeps its own,
    // lower-sequenced event.
    Chunk* head = acquire_chunk(need);
    oe.head = head;
    oe.tail = head;
    oe.base = seq;
    oe.off = 0;
    auto fire = [this, at = oe.at, head, seq] {
      // Leave the open table (if the entry is still this batch's: eviction
      // may have reused it, even for this tick), so same-tick sends from
      // handlers ride alone or open a fresh batch instead of appending to
      // one that is already draining.
      close_entry(at, head);
      ++coalesce_stats_.batches;
      drain(at, head, 0, seq);
    };
    static_assert(sizeof(fire) <= Simulator::kSmallEventBytes,
                  "a batch's first fire takes a small event record");
    sim_.schedule_at_seq(oe.at, seq, std::move(fire));
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
  if (wide) {
    const WideHeader h{kWideFlag, len,   seq,    sent, f.rpc_id,
                       f.src,     f.dst, f.type, f.key};
    std::memcpy(w, &h, sizeof h);
    ++storage_.wide;
  } else {
    // Built in place, field by field: a stack copy would be stored in
    // 4-byte words and reloaded in 16, which store forwarding cannot serve.
    ::new (static_cast<void*>(w))
        CompactHeader{(len << 1) | (f.type << 13) | (f.key << 21),
                      static_cast<std::uint32_t>(seq - oe.base),
                      f.src,
                      f.dst,
                      static_cast<std::uint32_t>(f.rpc_id),
                      static_cast<std::uint32_t>(delay)};
  }
  if (len > 0) std::memcpy(w + header, f.payload.data(), len);
  oe.off += need;
}

void Network::drain(Time at, Chunk* c, std::uint32_t off, std::uint64_t base) {
  // (c, off) is the read cursor. Past a record it steps into the next
  // chunk when its own is done, so off < c->used until the batch is
  // drained. `keep` is the first chunk a frame still to be dispatched can
  // point into; the chunks before it go back to the pool.
  Chunk* keep = c;
  auto advance = [&c, &off](const RecordRef& r) {
    off += r.size();
    if (off == c->used && c->next != nullptr) {
      c = c->next;
      off = 0;
    }
  };
  while (off < c->used) {
    RecordRef r(c->data() + off);
    // Yield whenever an intermediate event — a timer, a fault-plan step, an
    // evicted sibling batch or lone frame — orders before the next frame's
    // (time, seq); the remainder reschedules at that frame's reserved
    // sequence, reproducing the per-message interleaving exactly. The
    // tick's records are in ascending sequence order by construction, so
    // no event enqueued during this drain (its sequence is above every
    // frame here) can ever force a yield.
    const std::uint64_t seq = r.seq(base);
    if (sim_.has_event_before(at, seq)) {
      ++coalesce_stats_.continuations;
      auto resume = [this, at, c, base, off] { drain(at, c, off, base); };
      static_assert(sizeof(resume) <= Simulator::kSmallEventBytes,
                    "a continuation takes a small event record");
      sim_.schedule_at_seq(at, seq, std::move(resume));
      return;
    }
    const NodeId dst = r.dst();
    Process* p = static_cast<std::size_t>(dst) < procs_.size()
                     ? procs_[static_cast<std::size_t>(dst)]
                     : nullptr;
    if (num_crashed_ == 0 && num_blocked_ == 0 && !hook_) {
      // Fast path: no fault is active, so every frame up to the next
      // destination switch or intermediate event delivers as one run. Each
      // frame is decoded straight into the run array.
      run_.clear();
      for (;;) {
        r.frame(run_.emplace_back());
        advance(r);
        if (off >= c->used) break;
        r = RecordRef(c->data() + off);
        if (r.dst() != dst || sim_.has_event_before(at, r.seq(base))) break;
      }
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
      Frame f;
      r.frame(f);
      const Time sent = r.sent(at);
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
