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
  const std::vector<std::uint8_t> bytes = w.take();
  const auto entries = decode_entries(bytes);
  EXPECT_TRUE(entries.empty() || entries[0].updated.size() <= bytes.size());
}

// ---- incremental fast-read payloads (kFrReadDeltaReq / kFrReadAckDelta) ----

TEST(DeltaCodec, ReadReqRoundTripsThroughReusableBuffers) {
  const std::vector<TaggedValue> queue = {TaggedValue{Tag{7, 1}, 70}};
  const std::uint64_t acked[] = {3, 0, 12, 5, 300};
  ByteWriter w;
  encode_delta_read_req_into(w, queue, acked, 5);
  const std::vector<std::uint8_t> bytes = w.take();

  // Each server decodes its own entry into the same scratch queue
  // (capacity reuse path); an index past the array reads as nothing acked.
  std::vector<TaggedValue> out_queue{TaggedValue{Tag{99, 9}, 1}};
  for (std::size_t self = 0; self < 7; ++self) {
    ByteReader r(bytes);
    std::uint64_t own = 42;
    ASSERT_TRUE(decode_delta_read_req_for(r, out_queue, self, own));
    EXPECT_TRUE(r.exhausted());
    ASSERT_EQ(out_queue.size(), 1u);
    EXPECT_EQ(out_queue[0], queue[0]);
    EXPECT_EQ(own, self < 5 ? acked[self] : 0u) << "self " << self;
  }
}

TEST(DeltaCodec, ReadReqCutOffBeforeTheOwnIndexReadsAsNothingAcked) {
  // The ack array claims five entries, but the payload ends before server
  // 3's: the decode fails, and the server answers as if nothing were
  // acked. Cutting inside the entries after it fails the same way, even
  // though the own entry was read.
  const std::vector<TaggedValue> queue = {TaggedValue{Tag{7, 1}, 70}};
  const std::uint64_t acked[] = {3, 200, 12, 5000, 1};
  ByteWriter w;
  encode_delta_read_req_into(w, queue, acked, 5);
  const std::vector<std::uint8_t> bytes = w.take();
  ByteWriter head;
  encode_value_list_into(head, queue);
  const std::size_t array_start = head.bytes().size();
  std::vector<TaggedValue> out_queue;
  for (std::size_t cut = array_start + 1; cut < bytes.size(); ++cut) {
    ByteReader r(bytes.data(), cut);
    std::uint64_t own = 42;
    EXPECT_FALSE(decode_delta_read_req_for(r, out_queue, 3, own)) << cut;
    EXPECT_EQ(own, 0u) << "cut " << cut;
  }
  // An honest count shorter than the index is well formed: nothing acked.
  ByteWriter shorter;
  encode_delta_read_req_into(shorter, queue, acked, 3);
  ByteReader r(shorter.bytes());
  std::uint64_t own = 42;
  EXPECT_TRUE(decode_delta_read_req_for(r, out_queue, 3, own));
  EXPECT_EQ(own, 0u);
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
  const std::vector<std::uint8_t> bytes = w.take();

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
  for (int iter = 0; iter < 300; ++iter) {
    const auto bytes = random_bytes(rng, rng.next_below(96));
    ByteReader r1(bytes);
    std::uint64_t acked = 42;
    if (!decode_delta_read_req_for(r1, queue, iter % 8, acked)) {
      EXPECT_EQ(acked, 0u);
    }
    EXPECT_LE(queue.size(), bytes.size() + 2);
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

// ---- FrRows::put / FrRows::get at every id width and on hostile bytes ----

std::vector<std::uint8_t> copy_of(ByteSpan bytes) {
  return std::vector<std::uint8_t>(bytes.begin(), bytes.end());
}

/// A group's client span and witness ids for the width tests. zigzag(63) =
/// 126 and zigzag(64) = 128, so ids 63 and 64 take one and two bytes; 8191
/// and 8192 take two and three. Near 10^4 every id takes three.
struct WidthCase {
  NodeId base;
  int span;
  std::vector<NodeId> ids;
};

std::vector<WidthCase> width_cases() {
  const NodeId near = 9973;
  return {{0, 8200, {0, 1, 63, 64, 65, 127, 128, 8191, 8192, 8199}},
          {near, 300, {near, 10000, near + 63, near + 64, near + 191,
                       near + 299}},
          {50, 41, {50, 63, 64, 90}},
          {0, 64, {}}};
}

TEST(BitsetCodec, PutMatchesTheListEncoderAtEveryIdWidth) {
  const TaggedValue values[] = {
      TaggedValue{Tag{3, 101}, 7},
      TaggedValue{Tag{std::numeric_limits<std::int64_t>::max(),
                      std::numeric_limits<NodeId>::min()},
                  std::numeric_limits<std::int64_t>::min()}};
  for (const WidthCase& c : width_cases()) {
    for (const TaggedValue& v : values) {
      // One row per prefix of the ids, so the entry sizes step through
      // every width; each is encoded on a fresh writer and then all of
      // them on one, so growth lands at every offset the sizes reach.
      FrRows rows(c.base, c.span);
      std::vector<FrEntry> ref;
      for (std::size_t k = 0; k <= c.ids.size(); ++k) {
        rows.push_back(v);
        FrEntry e{v, {c.ids.begin(), c.ids.begin() + static_cast<long>(k)}};
        for (const NodeId id : e.updated) rows.set(rows.size() - 1, id);
        ref.push_back(std::move(e));
      }
      ByteWriter all;
      ByteWriter all_ref;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        ByteWriter fresh;
        rows.put(fresh, i);
        ByteWriter listed;
        put_fr_entry(listed, ref[i]);
        EXPECT_EQ(copy_of(fresh.bytes()), copy_of(listed.bytes()))
            << "base " << c.base << " row " << i;
        rows.put(all, i);
        put_fr_entry(all_ref, ref[i]);
      }
      EXPECT_EQ(copy_of(all.bytes()), copy_of(all_ref.bytes()));
    }
  }
}

/// The reference verdict on one wire entry for a group at (base, span):
/// decode_fr_entry_into's reads (value, guarded count, signed ids), with
/// each id kept at its full 64 bits and required inside the span. The ids
/// come back as the set a bitset row holds: sorted, each once.
struct EntryVerdict {
  bool ok = false;
  TaggedValue value;
  std::vector<NodeId> ids;
  std::size_t consumed = 0;  ///< bytes read, when ok
};

EntryVerdict reference_verdict(ByteSpan bytes, NodeId base, int span) {
  EntryVerdict v;
  ByteReader r(bytes);
  v.value = r.get_value();
  const std::uint64_t n = r.get_count();
  for (std::uint64_t k = 0; k < n && r.ok(); ++k) {
    const std::int64_t id = r.get_signed();
    if (r.ok() && !(id >= base && id < std::int64_t{base} + span)) return v;
    v.ids.push_back(static_cast<NodeId>(id));
  }
  v.ok = r.ok();
  v.consumed = bytes.size() - r.remaining();
  std::sort(v.ids.begin(), v.ids.end());
  v.ids.erase(std::unique(v.ids.begin(), v.ids.end()), v.ids.end());
  return v;
}

/// FrRows::get's verdict on the same bytes, into rows that already hold a
/// row: a refusal must leave them as they were.
EntryVerdict rows_verdict(ByteSpan bytes, NodeId base, int span) {
  FrRows rows(base, span);
  rows.push_back(TaggedValue{Tag{1, 0}, 1});
  ByteReader r(bytes);
  EntryVerdict v;
  v.ok = rows.get(r);
  EXPECT_EQ(v.ok, r.ok());
  if (!v.ok) {
    EXPECT_EQ(rows.size(), 1u);
    return v;
  }
  EXPECT_EQ(rows.size(), 2u);
  v.value = rows.value(1);
  v.ids = ids_of(rows, 1);
  v.consumed = bytes.size() - r.remaining();
  return v;
}

/// Both verdicts on `bytes` and on every strict prefix of it.
void expect_same_verdicts(const std::vector<std::uint8_t>& bytes, NodeId base,
                          int span) {
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const ByteSpan s(bytes.data(), cut);
    const EntryVerdict want = reference_verdict(s, base, span);
    const EntryVerdict got = rows_verdict(s, base, span);
    ASSERT_EQ(got.ok, want.ok) << "cut " << cut << " of " << bytes.size();
    if (!want.ok) continue;
    EXPECT_EQ(got.value, want.value) << "cut " << cut;
    EXPECT_EQ(got.ids, want.ids) << "cut " << cut;
    EXPECT_EQ(got.consumed, want.consumed) << "cut " << cut;
  }
}

TEST(BitsetCodec, GetAcceptsAndRefusesExactlyWhatTheReferenceDoes) {
  const TaggedValue v{Tag{3, 101}, 7};
  for (const WidthCase& c : width_cases()) {
    FrEntry e{v, c.ids};
    ByteWriter w;
    put_fr_entry(w, e);
    expect_same_verdicts(w.take(), c.base, c.span);
  }
  // Hand-made id lists after a valid value and count. Over-long forms of
  // a small id (accepted: the reader has never refused them), a 10-byte
  // id (too wide for any span), an 11-byte varint, ids just outside the
  // span and at the ends of the wire's range.
  const NodeId base = 50;
  const int span = 41;
  auto entry = [&v](const std::vector<std::uint8_t>& count_bytes,
                    const std::vector<std::uint8_t>& id_bytes) {
    ByteWriter w;
    w.put_value(v);
    std::vector<std::uint8_t> out = w.take();
    out.insert(out.end(), count_bytes.begin(), count_bytes.end());
    out.insert(out.end(), id_bytes.begin(), id_bytes.end());
    return out;
  };
  const std::uint8_t z51 = 102;  // zigzag(51)
  const std::vector<std::vector<std::uint8_t>> id_lists = {
      {z51 | 0x80, 0x00},                          // 2-byte over-long 51
      {z51 | 0x80, 0x80, 0x00},                    // 3-byte over-long 51
      {0xE4, 0x00, z51},                           // over-long 50, then 51
      {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
      {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
      {0xE4, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
       0x00},                                      // 11 bytes, value 50
      {98},                                        // zigzag(49): below
      {0xB6, 0x01},                                // zigzag(91): past
      {0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},  // max
      {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},  // min
  };
  for (const auto& ids : id_lists) {
    for (std::uint8_t count = 1; count <= 3; ++count) {
      expect_same_verdicts(entry({count}, ids), base, span);
    }
  }
  // A count past the bytes that remain (1000), and an over-long count.
  expect_same_verdicts(entry({0xE8, 0x07}, {z51}), base, span);
  expect_same_verdicts(entry({0x81, 0x00}, {z51}), base, span);
}

TEST_P(CodecFuzz, GetMatchesTheReferenceOnMutatedEntries) {
  Rng rng(GetParam() + 4000);
  for (int iter = 0; iter < 300; ++iter) {
    const WidthCase c = width_cases()[rng.next_below(3)];
    FrEntry e{TaggedValue{Tag{rng.next_in(0, 1 << 20), 7},
                          rng.next_in(-1000, 1000)},
              {}};
    for (const NodeId id : c.ids) {
      if (rng.next_bool(0.6)) e.updated.push_back(id);
    }
    ByteWriter w;
    put_fr_entry(w, e);
    std::vector<std::uint8_t> bytes = w.take();
    const int flips = 1 + static_cast<int>(rng.next_below(3));
    for (int f = 0; f < flips; ++f) {
      std::uint8_t& b = bytes[rng.next_below(bytes.size())];
      b = rng.next_bool(0.5) ? static_cast<std::uint8_t>(rng.next())
                             : static_cast<std::uint8_t>(b ^ 0x80);
    }
    expect_same_verdicts(bytes, c.base, c.span);
  }
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
  const std::vector<std::uint8_t> bytes = w.take();

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
