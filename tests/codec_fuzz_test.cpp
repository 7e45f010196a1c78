// Robustness: decoding arbitrary bytes must never crash, hang, or
// over-allocate -- servers and clients parse each other's payloads, and a
// malformed message must degrade to a failed ByteReader, not undefined
// behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "protocols/fastread_clients.h"
#include "protocols/messages.h"

namespace mwreg {
namespace {

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
  return b;
}

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, RandomBytesNeverCrashPrimitives) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 500; ++iter) {
    const auto bytes = random_bytes(rng, rng.next_below(64));
    ByteReader r(bytes);
    (void)r.get_varint();
    (void)r.get_signed();
    (void)r.get_string();
    (void)r.get_tag();
    (void)r.get_value();
    // ok() may be true or false; the point is we got here.
    SUCCEED();
  }
}

TEST_P(CodecFuzz, RandomBytesNeverCrashMessageDecoders) {
  Rng rng(GetParam() + 1000);
  for (int iter = 0; iter < 500; ++iter) {
    const auto bytes = random_bytes(rng, rng.next_below(96));
    (void)decode_value(bytes);
    (void)decode_tag(bytes);
    const auto vals = decode_value_list(bytes);
    const auto entries = decode_entries(bytes);
    // Length prefixes are validated against the buffer, so decoded sizes
    // stay bounded by the input size (no attacker-controlled allocation).
    EXPECT_LE(vals.size(), bytes.size() + 2);
    EXPECT_LE(entries.size(), bytes.size() + 2);
  }
}

TEST_P(CodecFuzz, TruncationsOfValidPayloadsFailCleanly) {
  Rng rng(GetParam() + 2000);
  // Build a valid entries payload, then decode every truncation of it.
  std::vector<FrEntry> entries;
  for (int i = 0; i < 4; ++i) {
    FrEntry e;
    e.value = TaggedValue{Tag{rng.next_in(1, 100), static_cast<NodeId>(i)},
                          rng.next_in(-5, 5)};
    for (NodeId c = 0; c < 5; ++c) {
      if (rng.next_bool(0.6)) e.updated.push_back(c);
    }
    entries.push_back(std::move(e));
  }
  const std::vector<std::uint8_t> full = encode_entries(entries);
  // The complete payload round-trips.
  const auto decoded = decode_entries(full);
  ASSERT_EQ(decoded.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(decoded[i].value, entries[i].value);
    EXPECT_EQ(decoded[i].updated, entries[i].updated);
  }
  // Every strict prefix decodes without crashing.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::uint8_t> trunc(
        full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
    (void)decode_entries(trunc);
  }
  SUCCEED();
}

// Regression: a truncated buffer carrying a huge length prefix must fail
// the size guard against the bytes *remaining*, not the total buffer size.
// The old guard (n > buf.size() + 1) passed any prefix up to the full
// buffer length even with the reader nearly exhausted, reserving far more
// elements than the remaining bytes could ever decode.
TEST(CodecGuard, TruncatedHugeLengthPrefixFailsWithoutReserving) {
  // 64 bytes total: a 59-byte string consumes most of the buffer, then a
  // varint length prefix claims 60 elements with only 3 bytes remaining.
  ByteWriter w;
  w.put_string(std::string(59, 'x'));
  w.put_varint(60);  // 1 byte; 60 <= total size, > remaining
  w.put_u8(1);
  w.put_u8(2);
  w.put_u8(3);
  std::vector<std::uint8_t> bytes = w.take();
  ASSERT_EQ(bytes.size(), 64u);

  ByteReader r(bytes);
  (void)r.get_string();
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.remaining(), 4u);
  const auto out =
      r.get_vector<std::uint8_t>([](ByteReader& br) { return br.get_u8(); });
  EXPECT_FALSE(r.ok());
  // The guard must trip before any element is decoded or reserved.
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(out.capacity(), 0u);
}

// The same hostile shape nested inside a message decoder: an entries
// payload whose inner updated-list claims more ids than the bytes left.
TEST(CodecGuard, NestedListLengthCappedByRemainingBytes) {
  ByteWriter w;
  w.put_varint(1);            // one entry
  w.put_value(TaggedValue{Tag{1, 0}, 7});
  w.put_varint(1000);         // updated-set length: absurd vs. remaining
  w.put_signed(1);
  const std::vector<std::uint8_t> bytes = w.bytes();
  const auto entries = decode_entries(bytes);
  EXPECT_TRUE(entries.empty() || entries[0].updated.size() <= bytes.size());
}

// ---- incremental fast-read payloads (kFrReadDeltaReq / kFrReadAckDelta) ----

TEST(DeltaCodec, ReadReqRoundTripsThroughReusableBuffers) {
  const std::vector<TaggedValue> queue = {TaggedValue{Tag{7, 1}, 70}};
  const std::uint64_t acked[] = {3, 0, 12, 5, 1};
  ByteWriter w;
  encode_delta_read_req_into(w, queue, acked, 5);
  const std::vector<std::uint8_t> bytes = w.bytes();

  // Decode twice into the same scratch buffers (capacity reuse path).
  std::vector<TaggedValue> out_queue{TaggedValue{Tag{99, 9}, 1}};
  std::vector<std::uint64_t> out_acked{42};
  for (int round = 0; round < 2; ++round) {
    ByteReader r(bytes);
    ASSERT_TRUE(decode_delta_read_req_into(r, out_queue, out_acked));
    EXPECT_TRUE(r.exhausted());
    ASSERT_EQ(out_queue.size(), 1u);
    EXPECT_EQ(out_queue[0], queue[0]);
    ASSERT_EQ(out_acked.size(), 5u);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(out_acked[i], acked[i]);
  }
}

TEST(DeltaCodec, AckHeaderAndStreamedEntriesRoundTrip) {
  FrDeltaHeader h;
  h.revision = 901;
  h.gc_floor = Tag{5, 2};
  h.count = 2;
  FrEntry a;
  a.value = TaggedValue{Tag{5, 2}, 52};
  a.updated = {0, 3, 7};
  FrEntry b;
  b.value = TaggedValue{Tag{6, 0}, 60};
  b.updated = {1};
  ByteWriter w;
  put_delta_ack_header(w, h);
  put_fr_entry(w, a);
  put_fr_entry(w, b);
  const std::vector<std::uint8_t> bytes = w.bytes();

  ByteReader r(bytes);
  const FrDeltaHeader got = get_delta_ack_header(r);
  EXPECT_EQ(got.revision, h.revision);
  EXPECT_EQ(got.gc_floor, h.gc_floor);
  ASSERT_EQ(got.count, 2u);
  FrEntry e;
  decode_fr_entry_into(r, e);
  EXPECT_EQ(e.value, a.value);
  EXPECT_EQ(e.updated, a.updated);
  decode_fr_entry_into(r, e);
  EXPECT_EQ(e.value, b.value);
  EXPECT_EQ(e.updated, b.updated);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.exhausted());
}

TEST(DeltaCodec, RandomBytesAndTruncationsFailCleanly) {
  Rng rng(77);
  std::vector<TaggedValue> queue;
  std::vector<std::uint64_t> acked;
  for (int iter = 0; iter < 300; ++iter) {
    const auto bytes = random_bytes(rng, rng.next_below(96));
    ByteReader r1(bytes);
    (void)decode_delta_read_req_into(r1, queue, acked);
    EXPECT_LE(queue.size(), bytes.size() + 2);
    EXPECT_LE(acked.size(), bytes.size() + 2);
    ByteReader r2(bytes);
    const FrDeltaHeader h = get_delta_ack_header(r2);
    // The entry-count prefix is validated against the bytes remaining, so
    // a hostile header cannot force an oversized loop downstream.
    EXPECT_LE(h.count, bytes.size() + 2);
  }
}

// ---- the bitset witness form (FrRows) against the sorted-list reference ----

/// A random witness set over [base, base + span): the word-boundary
/// offsets 0, 63, 64, 127, 128 and span - 1 (those inside the span) are
/// each in it with probability 0.7, the rest at a random density.
std::vector<NodeId> random_witnesses(Rng& rng, NodeId base, int span) {
  std::vector<NodeId> ids;
  for (const int c : {0, 63, 64, 127, 128, span - 1}) {
    if (c < span && rng.next_bool(0.7)) ids.push_back(base + c);
  }
  const double density = 0.3 * rng.next_double();
  for (int c = 0; c < span; ++c) {
    if (rng.next_bool(density)) ids.push_back(base + c);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::vector<NodeId> ids_of(const FrRows& rows, std::size_t i) {
  std::vector<NodeId> ids;
  rows.for_each(i, [&ids](NodeId id) { ids.push_back(id); });
  return ids;
}

std::vector<std::uint8_t> encode_rows(const FrRows& rows) {
  ByteWriter w;
  w.put_varint(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) rows.put(w, i);
  return w.take();
}

TEST_P(CodecFuzz, BitsetFormMatchesTheSortedListReference) {
  Rng rng(GetParam() + 3000);
  for (int iter = 0; iter < 200; ++iter) {
    const int span = 1 + static_cast<int>(rng.next_below(200));
    const NodeId base = static_cast<NodeId>(rng.next_below(1000));
    FrRows rows(base, span);
    ASSERT_EQ(rows.words(), static_cast<std::size_t>((span + 63) / 64));
    std::vector<FrEntry> ref;
    const int n = 1 + static_cast<int>(rng.next_below(6));
    for (int i = 0; i < n; ++i) {
      FrEntry e;
      e.value = TaggedValue{Tag{rng.next_in(0, 1 << 20),
                                static_cast<NodeId>(rng.next_in(-1, 300))},
                            rng.next_in(-1000, 1000)};
      e.updated = random_witnesses(rng, base, span);
      // Set in shuffled order, each id twice: a set, not a list.
      std::vector<NodeId> order = e.updated;
      rng.shuffle(order);
      rows.push_back(e.value);
      for (const NodeId id : order) {
        EXPECT_TRUE(rows.set(rows.size() - 1, id));
        EXPECT_FALSE(rows.set(rows.size() - 1, id));
      }
      ref.push_back(std::move(e));
    }
    // Encoding from the bitsets is byte-identical to the sorted lists'.
    const std::vector<std::uint8_t> bytes = encode_rows(rows);
    ASSERT_EQ(bytes, encode_entries(ref)) << "span " << span;
    // Decoding sets the same bits back; the reference decoder agrees.
    FrRows back(base, span);
    ByteReader r(bytes);
    ASSERT_TRUE(decode_rows_into(r, back));
    EXPECT_TRUE(r.exhausted());
    ASSERT_EQ(back.size(), ref.size());
    const std::vector<FrEntry> listed = decode_entries(bytes);
    ASSERT_EQ(listed.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(back.value(i), ref[i].value);
      EXPECT_EQ(ids_of(back, i), ref[i].updated);
      EXPECT_EQ(back.count(i), ref[i].updated.size());
      EXPECT_EQ(listed[i].updated, ref[i].updated);
      for (int c = 0; c < span; ++c) {
        EXPECT_EQ(back.test(i, base + c),
                  std::binary_search(ref[i].updated.begin(),
                                     ref[i].updated.end(), base + c));
      }
      EXPECT_FALSE(back.test(i, base - 1));
      EXPECT_FALSE(back.test(i, base + span));
    }
    // Every strict prefix fails cleanly.
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      FrRows t(base, span);
      ByteReader tr(bytes.data(), cut);
      EXPECT_FALSE(decode_rows_into(tr, t)) << "cut " << cut;
      EXPECT_LT(t.size(), ref.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz,
                         ::testing::Range<std::uint64_t>(1, 7));

TEST(BitsetCodec, IdOutsideTheSpanOrCountPastTheBytesFailsCleanly) {
  const NodeId base = 100;
  const int span = 70;  // two words
  auto decode = [&](const FrEntry& e) {
    ByteWriter w;
    put_fr_entry(w, e);
    const std::vector<std::uint8_t> bytes = w.take();
    FrRows rows(base, span);
    ByteReader r(bytes);
    const bool ok = rows.get(r);
    EXPECT_EQ(ok, r.ok());
    return ok;
  };
  const TaggedValue v{Tag{3, 101}, 7};
  EXPECT_TRUE(decode(FrEntry{v, {base, base + 64, base + span - 1}}));
  EXPECT_FALSE(decode(FrEntry{v, {base - 1}}));
  EXPECT_FALSE(decode(FrEntry{v, {base, base + span}}));
  // Far outside: a shift this wide would leave the row's words.
  EXPECT_FALSE(decode(FrEntry{v, {base + 64 * 1000}}));
  EXPECT_FALSE(decode(FrEntry{v, {-5}}));
  // Ids at the ends of the wire's range: refused, with no overflow on the
  // way (UBSan builds check).
  for (const std::int64_t id : {std::numeric_limits<std::int64_t>::min(),
                                std::numeric_limits<std::int64_t>::max()}) {
    ByteWriter w;
    w.put_value(v);
    w.put_varint(1);
    w.put_signed(id);
    const std::vector<std::uint8_t> bytes = w.take();
    FrRows rows(base, span);
    ByteReader r(bytes);
    EXPECT_FALSE(rows.get(r)) << id;
  }
  // A count past the bytes that remain.
  ByteWriter w;
  w.put_value(v);
  w.put_varint(1000);
  w.put_signed(base);
  const std::vector<std::uint8_t> bytes = w.take();
  FrRows rows(base, span);
  ByteReader r(bytes);
  EXPECT_FALSE(rows.get(r));
  EXPECT_FALSE(r.ok());
}

TEST(BitsetCodec, DeltaRefusalKeepsTheCachedRevision) {
  const NodeId base = 10;
  const int span = 40;
  FrServerCache cache;
  cache.rows.reset(base, span);
  auto delta = [](std::uint64_t rev, Tag floor,
                  const std::vector<FrEntry>& entries) {
    ByteWriter w;
    put_delta_ack_header(w, FrDeltaHeader{rev, floor, entries.size()});
    for (const FrEntry& e : entries) put_fr_entry(w, e);
    return w.take();
  };
  const FrEntry a{TaggedValue{Tag{1, 10}, 1}, {10, 11}};
  const FrEntry b{TaggedValue{Tag{2, 11}, 2}, {11, 49}};
  const FrEntry c{TaggedValue{Tag{3, 10}, 3}, {12}};
  ASSERT_TRUE(fr_apply_delta(cache, delta(5, Tag{}, {a, b})));
  ASSERT_EQ(cache.rev, 5u);
  ASSERT_EQ(cache.rows.size(), 2u);

  // An id outside the span: refused, revision kept, nothing shifted out of
  // range (sanitizer builds check the last).
  const FrEntry wide{TaggedValue{Tag{4, 11}, 4}, {12, base + span}};
  EXPECT_FALSE(fr_apply_delta(cache, delta(9, Tag{}, {c, wide})));
  EXPECT_EQ(cache.rev, 5u);
  const FrEntry far{TaggedValue{Tag{4, 11}, 4}, {base + 64 * 4096}};
  EXPECT_FALSE(fr_apply_delta(cache, delta(9, Tag{}, {far})));
  EXPECT_EQ(cache.rev, 5u);
  // Entries out of tag order: refused too.
  EXPECT_FALSE(fr_apply_delta(cache, delta(9, Tag{}, {b, a})));
  EXPECT_EQ(cache.rev, 5u);
  // A good delta still applies: the floor drops a, b is updated in place,
  // c lands after it.
  const FrEntry b2{TaggedValue{Tag{2, 11}, 2}, {11, 12, 49}};
  ASSERT_TRUE(fr_apply_delta(cache, delta(12, Tag{2, 11}, {b2, c})));
  EXPECT_EQ(cache.rev, 12u);
  ASSERT_EQ(cache.rows.size(), 2u);
  EXPECT_EQ(cache.rows.value(0), b2.value);
  EXPECT_EQ(ids_of(cache.rows, 0), b2.updated);
  EXPECT_EQ(cache.rows.value(1), c.value);
  EXPECT_EQ(ids_of(cache.rows, 1), c.updated);

  // Random bytes never crash the apply, and never ack a revision they did
  // not fully decode.
  Rng rng(99);
  for (int iter = 0; iter < 500; ++iter) {
    const auto bytes = random_bytes(rng, rng.next_below(64));
    FrServerCache scratch;
    scratch.rows.reset(base, span);
    if (!fr_apply_delta(scratch, bytes)) {
      EXPECT_EQ(scratch.rev, 0u);
    }
  }
}

// A reader over a raw (pointer, length) span behaves identically to one
// over the owning vector — the decode path never copies payload bytes.
TEST(CodecSpan, SpanReaderMatchesVectorReader) {
  ByteWriter w;
  w.put_varint(42);
  w.put_string("span");
  w.put_value(TaggedValue{Tag{3, 1}, -9});
  const std::vector<std::uint8_t> bytes = w.bytes();

  ByteReader vec_r(bytes);
  ByteReader span_r(bytes.data(), bytes.size());
  EXPECT_EQ(vec_r.get_varint(), span_r.get_varint());
  EXPECT_EQ(vec_r.get_string(), span_r.get_string());
  EXPECT_EQ(vec_r.get_value(), span_r.get_value());
  EXPECT_TRUE(vec_r.ok());
  EXPECT_TRUE(span_r.ok());
  EXPECT_TRUE(vec_r.exhausted());
  EXPECT_TRUE(span_r.exhausted());
}

}  // namespace
}  // namespace mwreg
