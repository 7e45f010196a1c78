#include "common/codec.h"

#include <algorithm>
#include <cstring>

namespace mwreg {

void ByteWriter::grow(std::size_t n) {
  buf_.resize(std::max(size_ + n, 2 * buf_.size()));
}

void ByteWriter::put_string(const std::string& s) {
  std::uint8_t* p = write_varint(room(kMaxVarint + s.size()), s.size());
  if (!s.empty()) std::memcpy(p, s.data(), s.size());
  commit(p + s.size());
}

std::uint8_t ByteReader::get_u8() {
  if (pos_ >= size_) {
    fail();
    return 0;
  }
  return data_[pos_++];
}

std::uint64_t ByteReader::get_varint_wide() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (pos_ >= size_ || shift > 63) {
      fail();
      return 0;
    }
    const std::uint8_t b = data_[pos_++];
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

std::string ByteReader::get_string() {
  const std::uint64_t n = get_count();
  if (n == 0) return {};
  return std::string(reinterpret_cast<const char*>(get_bytes(n)),
                     static_cast<std::size_t>(n));
}

Tag ByteReader::get_tag() {
  Tag t;
  t.ts = get_signed();
  t.wid = static_cast<NodeId>(get_signed());
  return t;
}

TaggedValue ByteReader::get_value() {
  TaggedValue v;
  v.tag = get_tag();
  v.payload = get_signed();
  return v;
}

}  // namespace mwreg
