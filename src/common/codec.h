// Wire-format serialization for protocol messages.
//
// The simulator delivers opaque byte payloads; every protocol message type
// provides encode/decode via ByteWriter/ByteReader. Integers use LEB128
// varints with zigzag for signed values, so payload sizes track information
// content (relevant to the full-info vs. optimized implementation gap the
// paper discusses in Section 4.1).
//
// Hot-path contract: senders encode into one reused ByteWriter (the
// network's, through Process::out()) whose clear() keeps its capacity, so
// encoding allocates nothing once warm. A write checks capacity once per
// field (room() for its widest form) and stores through a raw pointer;
// a valuevector entry checks once for the whole entry (FrRows::put). A
// ByteReader is a non-owning (pointer, length) span so decoding never
// copies the payload; it checks bounds per field, and a hot id loop may
// run a local cursor over its 1- and 2-byte varints (FrRows::get).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/tag.h"
#include "common/types.h"

namespace mwreg {

class ByteWriter {
 public:
  /// Widest LEB128 of a 64-bit value, and of the fields built from them.
  static constexpr std::size_t kMaxVarint = 10;
  static constexpr std::size_t kMaxTag = 2 * kMaxVarint;
  static constexpr std::size_t kMaxValue = kMaxTag + kMaxVarint;

  ByteWriter() = default;

  /// Drop the encoded bytes and keep the capacity, so one writer encodes
  /// message after message without allocating.
  void clear() { size_ = 0; }

  /// Room for `n` more bytes, checked once: write at most `n` bytes from
  /// the returned pointer, then commit() the end of what was written. The
  /// pointer is valid until the next room(), clear() or take().
  std::uint8_t* room(std::size_t n) {
    if (buf_.size() - size_ < n) grow(n);
    return buf_.data() + size_;
  }
  /// End a write begun by room(): the bytes up to `end` are now encoded.
  void commit(std::uint8_t* end) {
    size_ = static_cast<std::size_t>(end - buf_.data());
  }

  // Pointer encoders: each writes one field at `p` and returns the byte
  // after it. The caller has room() for the field's maximum width.

  /// LEB128: seven bits a byte, low first, the top bit marking more.
  static std::uint8_t* write_varint(std::uint8_t* p, std::uint64_t v) {
    while (v >= 0x80) {
      *p++ = static_cast<std::uint8_t>(v) | 0x80;
      v >>= 7;
    }
    *p++ = static_cast<std::uint8_t>(v);
    return p;
  }
  /// Zigzag (0, -1, 1, -2, ... to 0, 1, 2, 3, ...), then LEB128.
  static std::uint8_t* write_signed(std::uint8_t* p, std::int64_t v) {
    const auto u = static_cast<std::uint64_t>(v);
    return write_varint(p, (u << 1) ^ static_cast<std::uint64_t>(v >> 63));
  }
  static std::uint8_t* write_tag(std::uint8_t* p, const Tag& t) {
    return write_signed(write_signed(p, t.ts), t.wid);
  }
  static std::uint8_t* write_value(std::uint8_t* p, const TaggedValue& v) {
    return write_signed(write_tag(p, v.tag), v.payload);
  }

  void put_u8(std::uint8_t v) {
    std::uint8_t* p = room(1);
    *p = v;
    commit(p + 1);
  }
  void put_varint(std::uint64_t v) {
    commit(write_varint(room(kMaxVarint), v));
  }
  void put_signed(std::int64_t v) {
    commit(write_signed(room(kMaxVarint), v));
  }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_string(const std::string& s);
  void put_tag(const Tag& t) { commit(write_tag(room(kMaxTag), t)); }
  void put_value(const TaggedValue& v) {
    commit(write_value(room(kMaxValue), v));
  }

  /// Length-prefixed sequence over a raw (pointer, count) span: the
  /// streaming encode paths hand slices of reusable arenas here so no
  /// intermediate std::vector is materialized.
  template <typename T, typename Fn>
  void put_span(const T* data, std::size_t n, Fn&& put_one) {
    put_varint(n);
    for (std::size_t i = 0; i < n; ++i) put_one(*this, data[i]);
  }

  template <typename T, typename Fn>
  void put_vector(const std::vector<T>& v, Fn&& put_one) {
    put_span(v.data(), v.size(), std::forward<Fn>(put_one));
  }

  /// The encoded bytes; valid until the next write, clear() or take().
  [[nodiscard]] ByteSpan bytes() const { return ByteSpan(buf_.data(), size_); }
  /// Bytes the writer holds storage for; clear() keeps it.
  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  /// Move the encoded bytes out. The writer is left empty and valid, so one
  /// writer can be reused for many encodes (take, refill, take, ...).
  [[nodiscard]] std::vector<std::uint8_t> take() {
    buf_.resize(size_);
    std::vector<std::uint8_t> out = std::move(buf_);
    buf_.clear();  // moved-from state is unspecified; make it empty again
    size_ = 0;
    return out;
  }

 private:
  void grow(std::size_t n);

  /// Storage: every byte is allocated, so buf_.size() is the capacity and
  /// size_ the encoded length.
  std::vector<std::uint8_t> buf_;
  std::size_t size_ = 0;
};

/// Non-owning reader over an encoded payload. All get_* methods set the
/// error flag on malformed input instead of throwing; callers check ok()
/// once at the end. The underlying bytes must outlive the reader.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}
  explicit ByteReader(ByteSpan bytes) : ByteReader(bytes.data(), bytes.size()) {}

  std::uint8_t get_u8();
  /// The next `n` bytes, consumed after one bounds check; nullptr, and the
  /// reader failed, when fewer remain.
  const std::uint8_t* get_bytes(std::size_t n) {
    if (n > remaining()) {
      fail();
      return nullptr;
    }
    const std::uint8_t* p = cursor();
    pos_ += n;
    return p;
  }
  /// LEB128 with the 1- and 2-byte cases inline. Anything else (wider,
  /// truncated, over-long) goes through the out-of-line loop from the
  /// first byte, so malformed input fails exactly as it always has.
  std::uint64_t get_varint() {
    const std::uint8_t* p = cursor();
    std::uint64_t v = 0;
    if (read_short_varint(p, limit(), v)) {
      seek(p);
      return v;
    }
    return get_varint_wide();
  }
  std::int64_t get_signed() { return unzigzag(get_varint()); }
  bool get_bool() { return get_u8() != 0; }
  std::string get_string();
  Tag get_tag();
  TaggedValue get_value();

  // A local cursor for a decoder's hot loop: read from cursor() up to
  // limit() with read_short_varint(), seek() back before any get_*, and
  // let get_varint() take whatever the short form refuses.

  [[nodiscard]] const std::uint8_t* cursor() const { return data_ + pos_; }
  [[nodiscard]] const std::uint8_t* limit() const { return data_ + size_; }
  /// Resume reading at `p`, a point between cursor() and limit().
  void seek(const std::uint8_t* p) {
    pos_ = static_cast<std::size_t>(p - data_);
  }
  /// A 1- or 2-byte LEB128 at `p` (before `end`): store it in `v`, step
  /// `p` past it and return true. Anything else (wider, truncated, or at
  /// `end`) returns false with `p` unmoved.
  static bool read_short_varint(const std::uint8_t*& p,
                                const std::uint8_t* end, std::uint64_t& v) {
    if (p != end && p[0] < 0x80) {
      v = p[0];
      p += 1;
      return true;
    }
    if (end - p >= 2 && p[1] < 0x80) {
      v = (p[0] & 0x7Fu) | static_cast<std::uint64_t>(p[1]) << 7;
      p += 2;
      return true;
    }
    return false;
  }
  static std::int64_t unzigzag(std::uint64_t u) {
    return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
  }

  /// Guarded length prefix. Every element consumes at least one byte, so a
  /// prefix larger than the bytes actually left is malformed; failing here
  /// keeps a truncated or hostile prefix from forcing an oversized reserve.
  /// The streaming decode paths (decode-into-arena, delta-ack apply) read
  /// their counts through this instead of a raw get_varint.
  std::uint64_t get_count() {
    const std::uint64_t n = get_varint();
    if (n > remaining()) {
      fail();
      return 0;
    }
    return n;
  }

  template <typename T, typename Fn>
  std::vector<T> get_vector(Fn&& get_one) {
    const std::uint64_t n = get_count();
    std::vector<T> out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n && ok(); ++i) out.push_back(get_one(*this));
    return out;
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool exhausted() const { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  /// Mark the input malformed. Decoders that check content as well as
  /// framing (an id outside its span) refuse through the same flag.
  void fail() { ok_ = false; }

 private:
  std::uint64_t get_varint_wide();

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace mwreg
