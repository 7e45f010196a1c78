// Wire messages shared by the register protocols.
//
// Two families:
//  - the ABD/quorum family (MW-ABD, SWMR-ABD, the fast-write strawman):
//    servers keep only the max tagged value;
//  - the fast-read family (the paper's Algorithm 2 servers): servers keep a
//    value vector with per-value `updated` sets.
//
// Each encoder has a pooled overload taking a BufferPool: protocol hot
// paths use it (via Process::pool()) so encoding reuses recycled payload
// capacity; the pool-less overloads allocate fresh and remain for tests
// and offline tooling. Decoders read through span ByteReaders and never
// copy the payload bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/codec.h"
#include "common/tag.h"
#include "sim/buffer_pool.h"
#include "sim/message.h"

namespace mwreg {

enum MsgTypes : MsgType {
  // ABD family
  kAbdReadReq = 1,   // client -> server: query current value
  kAbdReadAck = 2,   // server -> client: TaggedValue
  kAbdWriteReq = 3,  // client -> server: store TaggedValue
  kAbdWriteAck = 4,  // server -> client: ack

  // Fast-read family (Algorithm 1 & 2)
  kFrQueryReq = 10,  // writer -> server: query max timestamp (write RT 1)
  kFrQueryAck = 11,  // server -> writer: Tag
  kFrWriteReq = 12,  // writer -> server: store TaggedValue (write RT 2)
  kFrWriteAck = 13,  // server -> writer: ack
  kFrReadReq = 14,   // reader -> server: valQueue
  kFrReadAck = 15,   // server -> reader: value vector with updated sets

  // Incremental fast-read family (Algorithm 2 + GC, DESIGN.md section 6):
  // the reader carries its confirmed watermark and per-server acked
  // revisions; the server answers with only the entries that changed since
  // the acked revision plus its GC floor.
  kFrReadDeltaReq = 16,  // reader -> server: watermark value + acked revs
  kFrReadAckDelta = 17,  // server -> reader: revision, gc floor, changed
                         //   entries (same per-entry wire format as
                         //   kFrReadAck, so one decoder serves both)
};

// ---- ABD family payloads ----

inline std::vector<std::uint8_t> encode_value(BufferPool& pool,
                                              const TaggedValue& v) {
  ByteWriter w(pool.acquire());
  w.put_value(v);
  return w.take();
}

inline std::vector<std::uint8_t> encode_value(const TaggedValue& v) {
  ByteWriter w;
  w.put_value(v);
  return w.take();
}

inline TaggedValue decode_value(ByteSpan bytes) {
  ByteReader r(bytes);
  return r.get_value();
}

// ---- Fast-read family payloads ----

/// One valuevector entry: a value plus the set of clients in its updated set
/// (Algorithm 2's valuevector[val].updated).
struct FrEntry {
  TaggedValue value;
  std::vector<NodeId> updated;  // sorted
};

/// Non-owning view of a decoded valuevector message (one server's reply).
/// The admissibility machinery works on views so callers can back them with
/// reusable arenas or per-server caches instead of fresh nested vectors.
struct FrView {
  const FrEntry* data = nullptr;
  std::size_t size = 0;

  [[nodiscard]] const FrEntry* begin() const { return data; }
  [[nodiscard]] const FrEntry* end() const { return data + size; }
};

/// Reusable arena of FrEntry slots. reset() rewinds without destroying the
/// slots, so every slot's `updated` vector keeps its capacity; once a
/// workload has warmed the arena, decoding a read ack allocates nothing.
/// grows() is the observable the allocation regression test pins (it must
/// stop moving after warmup).
class FrEntryArena {
 public:
  void reset() { used_ = 0; }

  FrEntry& append() {
    if (used_ == slots_.size()) {
      slots_.emplace_back();
      ++grows_;
    }
    FrEntry& e = slots_[used_++];
    e.updated.clear();  // keeps capacity
    return e;
  }

  [[nodiscard]] std::size_t size() const { return used_; }
  [[nodiscard]] FrView view() const { return FrView{slots_.data(), used_}; }
  [[nodiscard]] std::uint64_t grows() const { return grows_; }

 private:
  std::vector<FrEntry> slots_;
  std::size_t used_ = 0;
  std::uint64_t grows_ = 0;
};

inline std::vector<std::uint8_t> encode_tag(BufferPool& pool, const Tag& t) {
  ByteWriter w(pool.acquire());
  w.put_tag(t);
  return w.take();
}

inline std::vector<std::uint8_t> encode_tag(const Tag& t) {
  ByteWriter w;
  w.put_tag(t);
  return w.take();
}

inline Tag decode_tag(ByteSpan bytes) {
  ByteReader r(bytes);
  return r.get_tag();
}

inline void encode_value_list_into(ByteWriter& w,
                                   const std::vector<TaggedValue>& vals) {
  w.put_vector(vals,
               [](ByteWriter& bw, const TaggedValue& v) { bw.put_value(v); });
}

inline std::vector<std::uint8_t> encode_value_list(
    BufferPool& pool, const std::vector<TaggedValue>& vals) {
  ByteWriter w(pool.acquire());
  encode_value_list_into(w, vals);
  return w.take();
}

inline std::vector<std::uint8_t> encode_value_list(
    const std::vector<TaggedValue>& vals) {
  ByteWriter w;
  encode_value_list_into(w, vals);
  return w.take();
}

/// Decode a value list into a reusable buffer (cleared, capacity kept).
/// On malformed input `out` holds the prefix that decoded.
inline bool decode_value_list_into(ByteReader& r,
                                   std::vector<TaggedValue>& out) {
  out.clear();
  const std::uint64_t n = r.get_count();
  out.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) out.push_back(r.get_value());
  return r.ok();
}

inline std::vector<TaggedValue> decode_value_list(ByteSpan bytes) {
  ByteReader r(bytes);
  std::vector<TaggedValue> out;
  decode_value_list_into(r, out);
  return out;
}

/// One valuevector entry on the wire; the full and delta read acks share
/// it, and servers stream their entries through it directly.
inline void put_fr_entry(ByteWriter& w, const FrEntry& e) {
  w.put_value(e.value);
  w.put_vector(e.updated,
               [](ByteWriter& bw, NodeId id) { bw.put_signed(id); });
}

inline void encode_entries_into(ByteWriter& w, FrView entries) {
  w.put_span(entries.data, entries.size,
             [](ByteWriter& bw, const FrEntry& e) { put_fr_entry(bw, e); });
}

inline void encode_entries_into(ByteWriter& w,
                                const std::vector<FrEntry>& entries) {
  encode_entries_into(w, FrView{entries.data(), entries.size()});
}

inline std::vector<std::uint8_t> encode_entries(BufferPool& pool,
                                                FrView entries) {
  ByteWriter w(pool.acquire());
  encode_entries_into(w, entries);
  return w.take();
}

inline std::vector<std::uint8_t> encode_entries(
    BufferPool& pool, const std::vector<FrEntry>& entries) {
  return encode_entries(pool, FrView{entries.data(), entries.size()});
}

inline std::vector<std::uint8_t> encode_entries(
    const std::vector<FrEntry>& entries) {
  ByteWriter w;
  encode_entries_into(w, entries);
  return w.take();
}

/// Streaming per-entry decode into a caller-owned slot; shared by the full
/// read-ack and delta read-ack decoders (identical per-entry wire format).
inline void decode_fr_entry_into(ByteReader& r, FrEntry& e) {
  e.value = r.get_value();
  e.updated.clear();
  const std::uint64_t n = r.get_count();
  e.updated.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    e.updated.push_back(static_cast<NodeId>(r.get_signed()));
  }
}

/// Decode a full read ack into a reusable arena (no fresh nested vectors).
/// Returns reader.ok(); on malformed input the arena holds the prefix that
/// decoded cleanly.
inline bool decode_entries_into(ByteReader& r, FrEntryArena& out) {
  out.reset();
  const std::uint64_t n = r.get_count();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    decode_fr_entry_into(r, out.append());
  }
  return r.ok();
}

inline std::vector<FrEntry> decode_entries(ByteSpan bytes) {
  ByteReader r(bytes);
  return r.get_vector<FrEntry>([](ByteReader& br) {
    FrEntry e;
    decode_fr_entry_into(br, e);
    return e;
  });
}

// ---- incremental fast-read payloads (Algorithm 2 + GC) ----

/// kFrReadDeltaReq: the reader's pruned valQueue (its confirmed watermark
/// value — the tail of the queue below the watermark carries no information
/// any server still needs, DESIGN.md section 6.3) plus, per server id, the
/// last reply revision the reader has applied from that server. One payload
/// is broadcast to every server; server s indexes acked_revs[s].
inline void encode_delta_read_req_into(ByteWriter& w,
                                       const std::vector<TaggedValue>& queue,
                                       const std::uint64_t* acked_revs,
                                       std::size_t num_servers) {
  encode_value_list_into(w, queue);
  w.put_span(acked_revs, num_servers,
             [](ByteWriter& bw, std::uint64_t rev) { bw.put_varint(rev); });
}

/// Decode into reusable buffers (cleared, capacity kept).
inline bool decode_delta_read_req_into(ByteReader& r,
                                       std::vector<TaggedValue>& queue,
                                       std::vector<std::uint64_t>& acked_revs) {
  decode_value_list_into(r, queue);
  acked_revs.clear();
  const std::uint64_t na = r.get_count();
  acked_revs.reserve(na);
  for (std::uint64_t i = 0; i < na && r.ok(); ++i) {
    acked_revs.push_back(r.get_varint());
  }
  return r.ok();
}

/// kFrReadAckDelta header: the server's current revision (what the reader
/// acks next time), its GC floor (the reader drops cached entries strictly
/// below it), and the count of changed entries that follow. Entries are
/// streamed with put_fr_entry / decode_fr_entry_into — the server encodes
/// straight out of its valuevector, the reader applies straight into
/// its per-server cache; neither side materializes an entry list.
struct FrDeltaHeader {
  std::uint64_t revision = 0;
  Tag gc_floor{};
  std::uint64_t count = 0;
};

inline void put_delta_ack_header(ByteWriter& w, const FrDeltaHeader& h) {
  w.put_varint(h.revision);
  w.put_tag(h.gc_floor);
  w.put_varint(h.count);
}

inline FrDeltaHeader get_delta_ack_header(ByteReader& r) {
  FrDeltaHeader h;
  h.revision = r.get_varint();
  h.gc_floor = r.get_tag();
  h.count = r.get_count();
  return h;
}

}  // namespace mwreg
