// Unit tests for src/common: tags, cluster math, RNG, codec.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/cluster.h"
#include "common/codec.h"
#include "common/rng.h"
#include "common/tag.h"

namespace mwreg {
namespace {

// ---------- Tag ----------

TEST(Tag, BottomIsSmallest) {
  EXPECT_TRUE(kBottomTag.is_bottom());
  EXPECT_LT(kBottomTag, (Tag{0, 0}));
  EXPECT_LT(kBottomTag, (Tag{1, kNoNode}));
}

TEST(Tag, LexicographicOrder) {
  // Section 5.2: ts dominates; writer id breaks ties.
  EXPECT_LT((Tag{1, 9}), (Tag{2, 0}));
  EXPECT_LT((Tag{2, 3}), (Tag{2, 4}));
  EXPECT_EQ((Tag{2, 3}), (Tag{2, 3}));
  EXPECT_GT((Tag{3, 0}), (Tag{2, 9}));
}

TEST(Tag, ConcurrentWritesWithEqualTsOrderedByWriterId) {
  // The tie-break that Section 5.2 argues is safe.
  const Tag a{5, 3};
  const Tag b{5, 4};
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
}

TEST(Tag, HashDistinguishes) {
  std::set<std::size_t> hashes;
  for (int ts = 0; ts < 10; ++ts) {
    for (NodeId w = 0; w < 10; ++w) {
      hashes.insert(std::hash<Tag>{}(Tag{ts, w}));
    }
  }
  EXPECT_GT(hashes.size(), 90u);  // collisions allowed but rare
}

TEST(TaggedValue, ToStringMentionsBoth) {
  const TaggedValue v{Tag{7, 2}, 42};
  EXPECT_NE(v.to_string().find("7"), std::string::npos);
  EXPECT_NE(v.to_string().find("42"), std::string::npos);
}

// ---------- ClusterConfig ----------

TEST(Cluster, IdLayoutIsDisjointAndComplete) {
  const ClusterConfig cfg{.num_servers = 4, .num_writers = 3, .num_readers = 2,
                          .max_faulty = 1};
  std::set<NodeId> all;
  for (NodeId id : cfg.server_ids()) {
    EXPECT_TRUE(cfg.is_server(id));
    EXPECT_FALSE(cfg.is_writer(id));
    EXPECT_FALSE(cfg.is_reader(id));
    all.insert(id);
  }
  for (NodeId id : cfg.writer_ids()) {
    EXPECT_TRUE(cfg.is_writer(id));
    all.insert(id);
  }
  for (NodeId id : cfg.reader_ids()) {
    EXPECT_TRUE(cfg.is_reader(id));
    all.insert(id);
  }
  EXPECT_EQ(static_cast<int>(all.size()), cfg.total_nodes());
  EXPECT_EQ(cfg.quorum(), 3);
}

TEST(Cluster, W2R2FeasibilityIsMajority) {
  EXPECT_TRUE((ClusterConfig{3, 2, 2, 1}).supports_w2r2());
  EXPECT_FALSE((ClusterConfig{2, 2, 2, 1}).supports_w2r2());
  EXPECT_FALSE((ClusterConfig{4, 2, 2, 2}).supports_w2r2());
  EXPECT_TRUE((ClusterConfig{5, 2, 2, 2}).supports_w2r2());
}

TEST(Cluster, FastReadConditionMatchesPaper) {
  // R < S/t - 2  <=>  (R+2)t < S  (Section 5).
  // S=7, t=1: fast read iff R < 5.
  EXPECT_TRUE((ClusterConfig{7, 2, 4, 1}).supports_fast_read());
  EXPECT_FALSE((ClusterConfig{7, 2, 5, 1}).supports_fast_read());
  // S=7, t=2: R < 3.5-2=1.5, so R=1 only.
  EXPECT_TRUE((ClusterConfig{7, 2, 1, 2}).supports_fast_read());
  EXPECT_FALSE((ClusterConfig{7, 2, 2, 2}).supports_fast_read());
  // t=0 means no failure to mask; the bound degenerates (excluded).
  EXPECT_FALSE((ClusterConfig{3, 2, 2, 0}).supports_fast_read());
}

TEST(Cluster, FastReadBoundaryGrid) {
  // Exhaustive small grid: predicate equals the arithmetic definition.
  for (int s = 2; s <= 12; ++s) {
    for (int t = 1; t <= 3; ++t) {
      for (int r = 1; r <= 8; ++r) {
        const ClusterConfig cfg{s, 2, r, t};
        const bool expected = (r + 2) * t < s;
        EXPECT_EQ(cfg.supports_fast_read(), expected)
            << "S=" << s << " t=" << t << " R=" << r;
      }
    }
  }
}

TEST(Cluster, Validity) {
  EXPECT_TRUE((ClusterConfig{3, 2, 2, 1}).valid());
  EXPECT_FALSE((ClusterConfig{1, 2, 2, 0}).valid());
  EXPECT_FALSE((ClusterConfig{3, 0, 2, 1}).valid());
  EXPECT_FALSE((ClusterConfig{3, 2, 2, 3}).valid());  // t == S
}

// ---------- Rng ----------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(10), 10u);
  }
}

TEST(Rng, NextInCoversRangeUniformly) {
  Rng r(11);
  std::map<std::int64_t, int> counts;
  const int kDraws = 30000;
  for (int i = 0; i < kDraws; ++i) ++counts[r.next_in(-2, 2)];
  ASSERT_EQ(counts.size(), 5u);
  for (const auto& [v, c] : counts) {
    EXPECT_NEAR(c, kDraws / 5, kDraws / 25) << "value " << v;
  }
}

TEST(Rng, ForkIndependentButDeterministic) {
  Rng a(5), b(5);
  Rng fa = a.fork(), fb = b.fork();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(fa.next(), fb.next());
}

TEST(Rng, ShufflePermutes) {
  Rng r(3);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  r.shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

// ---------- Codec ----------

TEST(Codec, VarintRoundTrip) {
  ByteWriter w;
  const std::vector<std::uint64_t> vals{0, 1, 127, 128, 300, 1ULL << 20,
                                        1ULL << 40, ~0ULL};
  for (auto v : vals) w.put_varint(v);
  ByteReader r(w.bytes());
  for (auto v : vals) EXPECT_EQ(r.get_varint(), v);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, SignedZigzagRoundTrip) {
  ByteWriter w;
  const std::vector<std::int64_t> vals{0, -1, 1, -64, 64, -300, 1'000'000,
                                       INT64_MIN, INT64_MAX};
  for (auto v : vals) w.put_signed(v);
  ByteReader r(w.bytes());
  for (auto v : vals) EXPECT_EQ(r.get_signed(), v);
  EXPECT_TRUE(r.ok());
}

TEST(Codec, StringAndTagRoundTrip) {
  ByteWriter w;
  w.put_string("hello");
  w.put_string("");
  w.put_tag(Tag{9, 4});
  w.put_value(TaggedValue{Tag{2, 1}, -77});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_tag(), (Tag{9, 4}));
  EXPECT_EQ(r.get_value(), (TaggedValue{Tag{2, 1}, -77}));
  EXPECT_TRUE(r.ok());
}

TEST(Codec, VectorRoundTrip) {
  ByteWriter w;
  std::vector<std::int64_t> xs{5, -6, 7};
  w.put_vector(xs, [](ByteWriter& bw, std::int64_t v) { bw.put_signed(v); });
  ByteReader r(w.bytes());
  auto ys = r.get_vector<std::int64_t>(
      [](ByteReader& br) { return br.get_signed(); });
  EXPECT_EQ(xs, ys);
}

TEST(Codec, WriterIsReusableAfterTake) {
  // take() must leave the writer empty and valid: one writer (or a pooled
  // buffer cycling through writers) encodes many messages back to back.
  ByteWriter w;
  w.put_string("first");
  w.put_signed(-42);
  const std::vector<std::uint8_t> first = w.take();
  EXPECT_TRUE(w.bytes().empty());

  w.put_string("second");
  w.put_varint(7);
  const std::vector<std::uint8_t> second = w.take();
  EXPECT_TRUE(w.bytes().empty());

  ByteReader r1(first);
  EXPECT_EQ(r1.get_string(), "first");
  EXPECT_EQ(r1.get_signed(), -42);
  EXPECT_TRUE(r1.ok());
  EXPECT_TRUE(r1.exhausted());

  ByteReader r2(second);
  EXPECT_EQ(r2.get_string(), "second");
  EXPECT_EQ(r2.get_varint(), 7u);
  EXPECT_TRUE(r2.ok());
  EXPECT_TRUE(r2.exhausted());
}

TEST(Codec, ClearedWriterKeepsItsCapacity) {
  // clear() is how the network's scratch writer serves message after
  // message: the bytes go, the storage stays.
  ByteWriter w;
  w.put_string("a payload long enough to need storage");
  const std::size_t cap = w.capacity();
  const std::uint8_t* storage = w.bytes().data();
  w.clear();
  EXPECT_TRUE(w.bytes().empty());
  EXPECT_EQ(w.capacity(), cap);
  w.put_varint(5);
  EXPECT_EQ(w.bytes().data(), storage);  // old storage reused
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_varint(), 5u);
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, TruncatedInputSetsError) {
  ByteWriter w;
  w.put_varint(1'000'000);
  std::vector<std::uint8_t> bytes = w.take();
  bytes.pop_back();
  ByteReader r(bytes);
  (void)r.get_varint();
  EXPECT_FALSE(r.ok());
}

// bytes_sent is part of every digest, so the encoded width of each value is
// pinned at every boundary the inline 1- and 2-byte paths switch on.
std::size_t varint_len(std::uint64_t v) {
  ByteWriter w;
  w.put_varint(v);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_varint(), v);
  EXPECT_TRUE(r.ok() && r.exhausted()) << v;
  return w.bytes().size();
}

std::size_t signed_len(std::int64_t v) {
  ByteWriter w;
  w.put_signed(v);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_signed(), v);
  EXPECT_TRUE(r.ok() && r.exhausted()) << v;
  return w.bytes().size();
}

TEST(Codec, VarintWidthBoundaries) {
  EXPECT_EQ(varint_len(0), 1u);
  EXPECT_EQ(varint_len(0x7F), 1u);
  EXPECT_EQ(varint_len(0x80), 2u);
  EXPECT_EQ(varint_len(0x3FFF), 2u);
  EXPECT_EQ(varint_len(0x4000), 3u);
  EXPECT_EQ(varint_len((1ULL << 21) - 1), 3u);
  EXPECT_EQ(varint_len(1ULL << 21), 4u);
  EXPECT_EQ(varint_len(~0ULL), 10u);
  ByteWriter w;
  w.put_varint(0x80);
  w.put_varint(0x3FFF);
  w.put_varint(0x4000);
  EXPECT_EQ(w.take(), (std::vector<std::uint8_t>{0x80, 0x01, 0xFF, 0x7F,
                                                  0x80, 0x80, 0x01}));
}

TEST(Codec, ZigzagWidthBoundaries) {
  // zigzag(63) = 126, zigzag(-64) = 127: one byte; one step further out
  // needs two. Likewise +-8192 for two bytes versus three.
  EXPECT_EQ(signed_len(63), 1u);
  EXPECT_EQ(signed_len(64), 2u);
  EXPECT_EQ(signed_len(-64), 1u);
  EXPECT_EQ(signed_len(-65), 2u);
  EXPECT_EQ(signed_len(8191), 2u);
  EXPECT_EQ(signed_len(8192), 3u);
  EXPECT_EQ(signed_len(-8192), 2u);
  EXPECT_EQ(signed_len(-8193), 3u);
}

TEST(Codec, TruncatedTwoByteVarintFails) {
  const std::vector<std::uint8_t> bytes{0x80};  // continuation, then nothing
  ByteReader r(bytes);
  EXPECT_EQ(r.get_varint(), 0u);
  EXPECT_FALSE(r.ok());
  ByteReader s(bytes);
  (void)s.get_signed();
  EXPECT_FALSE(s.ok());
}

TEST(Codec, OverlongVarintFails) {
  // Ten continuation bytes and a terminator: an 11-byte varint, longer
  // than any 64-bit value needs.
  std::vector<std::uint8_t> bytes(10, 0x80);
  bytes.push_back(0x01);
  ByteReader r(bytes);
  (void)r.get_varint();
  EXPECT_FALSE(r.ok());
}

TEST(Codec, MalformedLengthRejected) {
  // A string length far beyond the buffer must not allocate or crash.
  ByteWriter w;
  w.put_varint(1ULL << 40);
  ByteReader r(w.bytes());
  (void)r.get_string();
  EXPECT_FALSE(r.ok());
}

// The writer's bytes against a per-byte reference: LEB128 one push_back at
// a time, zigzag as its definition. Every call is checked as it lands, on a
// fresh writer, so growth happens at whatever offset the sequence reaches.
void ref_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  do {
    std::uint8_t b = v & 0x7F;
    v >>= 7;
    if (v != 0) b |= 0x80;
    out.push_back(b);
  } while (v != 0);
}

void ref_signed(std::vector<std::uint8_t>& out, std::int64_t v) {
  ref_varint(out, v >= 0 ? 2 * static_cast<std::uint64_t>(v)
                         : 2 * ~static_cast<std::uint64_t>(v) + 1);
}

class PointerWriter : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PointerWriter, EveryPutMatchesThePerByteReference) {
  const std::uint64_t uedges[] = {0,      1,      0x7F,       0x80,
                                  0x3FFF, 0x4000, 0x1FFFFF,   0x200000,
                                  ~0ULL,  ~0ULL >> 1, 1ULL << 63};
  const std::int64_t sedges[] = {0,      -1,     1,         63,
                                 64,     -64,    -65,       8191,
                                 8192,   -8192,  -8193,     INT64_MIN,
                                 INT64_MAX, INT64_MIN + 1, INT64_MAX - 1};
  Rng rng(GetParam());
  auto unsigned_draw = [&]() -> std::uint64_t {
    if (rng.next_bool(0.5)) return uedges[rng.next_below(std::size(uedges))];
    return rng.next() >> rng.next_below(64);
  };
  auto signed_draw = [&]() -> std::int64_t {
    if (rng.next_bool(0.5)) return sedges[rng.next_below(std::size(sedges))];
    return static_cast<std::int64_t>(rng.next()) >> rng.next_below(64);
  };
  ByteWriter w;
  std::vector<std::uint8_t> ref;
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t op = rng.next_below(7);
    switch (op) {
      case 0: {
        const auto v = static_cast<std::uint8_t>(rng.next());
        w.put_u8(v);
        ref.push_back(v);
        break;
      }
      case 1: {
        const bool v = rng.next_bool();
        w.put_bool(v);
        ref.push_back(v ? 1 : 0);
        break;
      }
      case 2: {
        const std::uint64_t v = unsigned_draw();
        w.put_varint(v);
        ref_varint(ref, v);
        break;
      }
      case 3: {
        const std::int64_t v = signed_draw();
        w.put_signed(v);
        ref_signed(ref, v);
        break;
      }
      case 4: {
        const Tag t{signed_draw(), static_cast<NodeId>(signed_draw())};
        w.put_tag(t);
        ref_signed(ref, t.ts);
        ref_signed(ref, t.wid);
        break;
      }
      case 5: {
        const TaggedValue v{Tag{signed_draw(), static_cast<NodeId>(
                                                   signed_draw())},
                            signed_draw()};
        w.put_value(v);
        ref_signed(ref, v.tag.ts);
        ref_signed(ref, v.tag.wid);
        ref_signed(ref, v.payload);
        break;
      }
      default: {
        const std::size_t len = rng.next_bool(0.3)
                                    ? 0
                                    : rng.next_below(rng.next_bool(0.2) ? 400
                                                                        : 20);
        std::string s(len, '\0');
        for (char& c : s) c = static_cast<char>(rng.next());
        w.put_string(s);
        ref_varint(ref, s.size());
        ref.insert(ref.end(), s.begin(), s.end());
        break;
      }
    }
    const ByteSpan got = w.bytes();
    ASSERT_EQ(std::vector<std::uint8_t>(got.begin(), got.end()), ref)
        << "after call " << i << " (op " << op << ")";
  }
  // take() hands over exactly those bytes and leaves the writer empty.
  EXPECT_EQ(w.take(), ref);
  EXPECT_TRUE(w.bytes().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointerWriter,
                         ::testing::Range<std::uint64_t>(1, 9));

// Property sweep: random codec round-trips.
class CodecProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecProperty, RandomRoundTrip) {
  Rng rng(GetParam());
  ByteWriter w;
  std::vector<std::int64_t> signeds;
  std::vector<Tag> tags;
  for (int i = 0; i < 50; ++i) {
    const std::int64_t v = static_cast<std::int64_t>(rng.next());
    signeds.push_back(v);
    w.put_signed(v);
    const Tag t{rng.next_in(0, 1'000'000),
                static_cast<NodeId>(rng.next_in(-1, 100))};
    tags.push_back(t);
    w.put_tag(t);
  }
  ByteReader r(w.bytes());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(r.get_signed(), signeds[static_cast<std::size_t>(i)]);
    EXPECT_EQ(r.get_tag(), tags[static_cast<std::size_t>(i)]);
  }
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.exhausted());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace mwreg
