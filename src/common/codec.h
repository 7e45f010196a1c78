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
// encoding allocates nothing once warm, and a ByteReader is a non-owning
// (pointer, length) span so decoding never copies the payload.
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
  ByteWriter() = default;

  /// Drop the encoded bytes and keep the capacity, so one writer encodes
  /// message after message without allocating.
  void clear() { buf_.clear(); }

  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  /// LEB128. The 1- and 2-byte cases (every count and most ids here) are
  /// inline; wider values take the out-of-line loop. Same bytes either way.
  void put_varint(std::uint64_t v) {
    if (v < 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v));
    } else if (v < 0x4000) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      buf_.push_back(static_cast<std::uint8_t>(v >> 7));
    } else {
      put_varint_wide(v);
    }
  }
  void put_signed(std::int64_t v) {  // zigzag + varint
    const auto u = static_cast<std::uint64_t>(v);
    put_varint((u << 1) ^ static_cast<std::uint64_t>(v >> 63));
  }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_string(const std::string& s);
  void put_tag(const Tag& t);
  void put_value(const TaggedValue& v);

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

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }

  /// Move the encoded bytes out. The writer is left empty and valid, so one
  /// writer can be reused for many encodes (take, refill, take, ...).
  [[nodiscard]] std::vector<std::uint8_t> take() {
    std::vector<std::uint8_t> out = std::move(buf_);
    buf_.clear();  // moved-from state is unspecified; make it empty again
    return out;
  }

 private:
  void put_varint_wide(std::uint64_t v);

  std::vector<std::uint8_t> buf_;
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
  /// LEB128 with the 1- and 2-byte cases inline. Anything else (wider,
  /// truncated, over-long) goes through the out-of-line loop from the
  /// first byte, so malformed input fails exactly as it always has.
  std::uint64_t get_varint() {
    if (pos_ < size_) {
      const std::uint8_t b0 = data_[pos_];
      if (b0 < 0x80) {
        ++pos_;
        return b0;
      }
      if (pos_ + 1 < size_ && data_[pos_ + 1] < 0x80) {
        const std::uint8_t b1 = data_[pos_ + 1];
        pos_ += 2;
        return (b0 & 0x7Fu) | static_cast<std::uint64_t>(b1) << 7;
      }
    }
    return get_varint_wide();
  }
  std::int64_t get_signed() {
    const std::uint64_t u = get_varint();
    return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
  }
  bool get_bool() { return get_u8() != 0; }
  std::string get_string();
  Tag get_tag();
  TaggedValue get_value();

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
