// Wire messages shared by the register protocols.
//
// Two families:
//  - the ABD/quorum family (MW-ABD, SWMR-ABD, the fast-write strawman):
//    servers keep only the max tagged value;
//  - the fast-read family (the paper's Algorithm 2 servers): servers keep a
//    value vector with per-value `updated` sets.
//
// Protocol hot paths encode with the *_into / put_* forms into the
// network's scratch writer (Process::out()) and send it as a byte span;
// the encoders returning a fresh vector remain for tests and offline
// tooling. Decoders read through span ByteReaders and never copy the
// payload bytes.
//
// Updated sets have one in-memory form from the server to the read
// decision: FrRows, a word bitset per valuevector entry over the key
// group's client ids. The wire keeps sorted id lists (FrEntry's form).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/codec.h"
#include "common/tag.h"
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

/// One valuevector entry as a sorted id list: the wire's form of an entry,
/// kept as the reference the bitset form (FrRows) is tested against and
/// for offline encoders.
struct FrEntry {
  TaggedValue value;
  std::vector<NodeId> updated;  // sorted
};

/// Valuevector entries in the one in-memory witness form: rows of a value
/// plus its updated set, each set a word bitset over the key group's
/// client-id span [base, base + span), ceil(span / 64) words per row, all
/// rows' words in one flat array. The server's valuevector, the reader's
/// per-server caches and per-reply arenas, and FrPicker's input are FrRows.
///
/// On the wire an updated set stays a sorted zigzag id list, exactly
/// put_fr_entry's bytes: put() scans the set bits in order, get() sets
/// them in a new last row, which replace_with_back() / move_back_to() can
/// then move into place. get() refuses an id outside the span by failing
/// the reader; set() never stores one. A row costs ceil(span / 64) words
/// whatever its set's size, so a key with W writers pays about W / 8 bytes
/// per entry.
class FrRows {
 public:
  FrRows() = default;  // an empty span
  FrRows(NodeId base, int span) { reset(base, span); }

  /// Drop every row and adopt the span [base, base + span). Capacity kept.
  void reset(NodeId base, int span) {
    base_ = base;
    span_ = span;
    const auto words = (static_cast<std::size_t>(span) + 63) / 64;
    words_ = std::max<std::uint32_t>(1, static_cast<std::uint32_t>(words));
    clear();
  }
  /// Drop every row; span and capacity kept.
  void clear() {
    values_.clear();
    bits_.clear();
  }

  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] NodeId base() const { return base_; }
  [[nodiscard]] int span() const { return span_; }
  [[nodiscard]] std::size_t words() const { return words_; }
  [[nodiscard]] bool in_span(NodeId id) const {
    return id >= base_ && static_cast<std::int64_t>(id) - base_ < span_;
  }

  [[nodiscard]] const TaggedValue& value(std::size_t i) const {
    return values_[i];
  }
  [[nodiscard]] TaggedValue& value(std::size_t i) { return values_[i]; }

  /// The first row whose tag is not below `t` (rows sorted by tag).
  [[nodiscard]] std::size_t lower_bound(const Tag& t) const {
    return static_cast<std::size_t>(
        std::lower_bound(values_.begin(), values_.end(), t,
                         [](const TaggedValue& v, const Tag& x) {
                           return v.tag < x;
                         }) -
        values_.begin());
  }

  /// Add `id` to row i's set; false if it was there already. An id outside
  /// the span is not a client of the group and is never stored.
  bool set(std::size_t i, NodeId id) {
    assert(in_span(id) && "witness outside the group's client ids");
    if (!in_span(id)) return false;
    const auto c = static_cast<std::size_t>(id - base_);
    std::uint64_t& w = bits_[i * words_ + c / 64];
    const std::uint64_t bit = 1ULL << (c % 64);
    if (w & bit) return false;
    w |= bit;
    return true;
  }
  [[nodiscard]] bool test(std::size_t i, NodeId id) const {
    if (!in_span(id)) return false;
    const auto c = static_cast<std::size_t>(id - base_);
    return (bits(i)[c / 64] >> (c % 64)) & 1;
  }
  [[nodiscard]] std::size_t count(std::size_t i) const {
    std::size_t n = 0;
    for (std::size_t w = 0; w < words_; ++w) n += popcount(bits(i)[w]);
    return n;
  }
  /// fn(id) for every id in row i's set, ascending.
  template <typename Fn>
  void for_each(std::size_t i, Fn&& fn) const {
    const std::uint64_t* row = bits(i);
    for (std::size_t w = 0; w < words_; ++w) {
      for (std::uint64_t m = row[w]; m != 0; m &= m - 1) {
        fn(base_ + static_cast<NodeId>(w * 64 + static_cast<std::size_t>(
                                                     __builtin_ctzll(m))));
      }
    }
  }

  /// Append / insert a row with an empty set.
  void push_back(const TaggedValue& v) {
    note_growth();
    values_.push_back(v);
    for (std::size_t w = 0; w < words_; ++w) bits_.push_back(0);
  }
  void insert(std::size_t i, const TaggedValue& v) {
    push_back(v);
    move_back_to(i);
  }
  void pop_back() {
    values_.pop_back();
    bits_.resize(bits_.size() - words_);
  }
  /// Row i takes the last row's value and set; the last row goes.
  void replace_with_back(std::size_t i) {
    values_[i] = values_.back();
    const std::uint64_t* from = bits(size() - 1);
    std::uint64_t* to = bits_.data() + i * words_;
    to[0] = from[0];  // inline: a one-word row should not cost a call
    for (std::size_t w = 1; w < words_; ++w) to[w] = from[w];
    pop_back();
  }
  /// The last row moves to position i; rows i.. shift up by one.
  void move_back_to(std::size_t i) {
    if (i + 1 == size()) return;
    std::rotate(values_.begin() + static_cast<std::ptrdiff_t>(i),
                values_.end() - 1, values_.end());
    std::rotate(bits_.begin() + static_cast<std::ptrdiff_t>(i * words_),
                bits_.end() - static_cast<std::ptrdiff_t>(words_),
                bits_.end());
  }
  /// Drop the rows below the first whose tag is not below `floor` (rows
  /// sorted by tag); returns how many went. Scans from the front: pruning
  /// removes a few rows at a time.
  std::size_t erase_below(const Tag& floor) {
    std::size_t n = 0;
    while (n < size() && values_[n].tag < floor) ++n;
    if (n > 0) {
      values_.erase(values_.begin(),
                    values_.begin() + static_cast<std::ptrdiff_t>(n));
      bits_.erase(bits_.begin(),
                  bits_.begin() + static_cast<std::ptrdiff_t>(n * words_));
    }
    return n;
  }

  /// Row i on the wire: put_fr_entry's bytes for its value and sorted ids.
  void put(ByteWriter& w, std::size_t i) const {
    w.put_value(values_[i]);
    w.put_varint(count(i));
    for_each(i, [&w](NodeId id) { w.put_signed(id); });
  }
  /// Decode one wire entry as a new last row. On malformed input, or an id
  /// outside the span, the reader fails and no row is added.
  bool get(ByteReader& r) {
    const TaggedValue v = r.get_value();
    const std::uint64_t n = r.get_count();
    if (!r.ok()) return false;
    push_back(v);
    // Offsets from the base in unsigned arithmetic: an id below it wraps
    // past the span, and no wire value can overflow. Bits gather in one
    // word while the ids stay in it (a sorted list changes word at most
    // words_ - 1 times), then flush.
    const auto base = static_cast<std::uint64_t>(base_);
    const auto span = static_cast<std::uint64_t>(span_);
    std::uint64_t* row = bits_.data() + (size() - 1) * words_;
    std::size_t word = 0;
    std::uint64_t acc = 0;
    for (std::uint64_t k = 0; k < n && r.ok(); ++k) {
      const std::uint64_t c = static_cast<std::uint64_t>(r.get_signed()) - base;
      if (c >= span) {
        r.fail();
        break;
      }
      const auto w = static_cast<std::size_t>(c / 64);
      if (w != word) {
        row[word] |= acc;
        word = w;
        acc = 0;
      }
      acc |= 1ULL << (c % 64);
    }
    row[word] |= acc;
    if (!r.ok()) pop_back();
    return r.ok();
  }

  /// Times a row append found no spare capacity: flat once warm.
  [[nodiscard]] std::uint64_t grows() const { return grows_; }

 private:
  /// Row i's words; bit b of word w is client base + 64 w + b.
  [[nodiscard]] const std::uint64_t* bits(std::size_t i) const {
    return bits_.data() + i * words_;
  }
  void note_growth() {
    if (values_.size() == values_.capacity() ||
        bits_.size() + words_ > bits_.capacity()) {
      ++grows_;
    }
  }
  /// Set bits of one word, inline: without a popcount instruction in the
  /// target flags, __builtin_popcountll is a library call.
  static std::size_t popcount(std::uint64_t x) {
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return static_cast<std::size_t>((x * 0x0101010101010101ULL) >> 56);
  }

  // Kept to 64 bytes: a reader holds one cache per server.
  NodeId base_ = 0;
  int span_ = 0;
  std::uint32_t words_ = 1;
  std::uint32_t grows_ = 0;
  std::vector<TaggedValue> values_;
  std::vector<std::uint64_t> bits_;  ///< words_ per row, row-major
};

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

/// One valuevector entry on the wire from its sorted-list form; the full
/// and delta read acks share it. FrRows::put writes the same bytes.
inline void put_fr_entry(ByteWriter& w, const FrEntry& e) {
  w.put_value(e.value);
  w.put_vector(e.updated,
               [](ByteWriter& bw, NodeId id) { bw.put_signed(id); });
}

inline void encode_entries_into(ByteWriter& w,
                                const std::vector<FrEntry>& entries) {
  w.put_vector(entries,
               [](ByteWriter& bw, const FrEntry& e) { put_fr_entry(bw, e); });
}

inline std::vector<std::uint8_t> encode_entries(
    const std::vector<FrEntry>& entries) {
  ByteWriter w;
  encode_entries_into(w, entries);
  return w.take();
}

/// Decode one wire entry into its sorted-list form (the reference decoder).
inline void decode_fr_entry_into(ByteReader& r, FrEntry& e) {
  e.value = r.get_value();
  e.updated.clear();
  const std::uint64_t n = r.get_count();
  e.updated.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    e.updated.push_back(static_cast<NodeId>(r.get_signed()));
  }
}

/// Decode a full read ack into `out` (cleared; span and capacity kept).
/// Returns reader.ok(); on malformed input `out` holds the rows that
/// decoded cleanly.
inline bool decode_rows_into(ByteReader& r, FrRows& out) {
  out.clear();
  const std::uint64_t n = r.get_count();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) out.get(r);
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

/// Server `self`'s view of a kFrReadDeltaReq: the queue into a reusable
/// buffer (cleared, capacity kept) and only acked_revs[self] into `acked`,
/// 0 when the array is shorter. The other entries are read past, not
/// stored, but the whole array is still validated; on malformed input
/// `acked` is 0, as if nothing were acked.
inline bool decode_delta_read_req_for(ByteReader& r,
                                      std::vector<TaggedValue>& queue,
                                      std::size_t self, std::uint64_t& acked) {
  decode_value_list_into(r, queue);
  acked = 0;
  const std::uint64_t na = r.get_count();
  for (std::uint64_t i = 0; i < na && r.ok(); ++i) {
    const std::uint64_t rev = r.get_varint();
    if (i == self) acked = rev;
  }
  if (!r.ok()) acked = 0;
  return r.ok();
}

/// kFrReadAckDelta header: the server's current revision (what the reader
/// acks next time), its GC floor (the reader drops cached entries strictly
/// below it), and the count of changed entries that follow. Entries are
/// streamed with FrRows::put / FrRows::get: the server encodes straight
/// out of its valuevector, the reader decodes straight into its per-server
/// cache; neither side materializes an entry list.
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
