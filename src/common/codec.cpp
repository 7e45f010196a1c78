#include "common/codec.h"

namespace mwreg {

void ByteWriter::put_varint_wide(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::put_string(const std::string& s) {
  put_varint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::put_tag(const Tag& t) {
  put_signed(t.ts);
  put_signed(t.wid);
}

void ByteWriter::put_value(const TaggedValue& v) {
  put_tag(v.tag);
  put_signed(v.payload);
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
  const std::uint64_t n = get_varint();
  if (n > remaining()) {
    fail();
    return {};
  }
  if (n == 0) return {};
  std::string s(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<std::size_t>(n));
  pos_ += n;
  return s;
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
