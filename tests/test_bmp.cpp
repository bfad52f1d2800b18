// Tests for the three BMP (longest-prefix-match) engines, including a
// parameterized cross-engine agreement sweep against a brute-force
// reference, and the memory-access bounds the paper's Table 2 relies on.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "bmp/cpe.hpp"
#include "bmp/lpm.hpp"
#include "bmp/patricia.hpp"
#include "bmp/waldvogel.hpp"
#include "netbase/memaccess.hpp"
#include "tgen/workload.hpp"

namespace rp::bmp {
namespace {

using netbase::IpVersion;
using netbase::MemAccess;
using netbase::Rng;
using netbase::U128;

U128 v4key(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d) {
  return netbase::IpAddr(netbase::Ipv4Addr(a, b, c, d)).key();
}

class EngineTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineTest, BasicInsertLookupRemove) {
  auto e = make_lpm_engine(GetParam(), 32);
  ASSERT_TRUE(e);
  EXPECT_EQ(e->insert(v4key(10, 0, 0, 0), 8, 100), Status::ok);
  EXPECT_EQ(e->insert(v4key(10, 1, 0, 0), 16, 200), Status::ok);
  EXPECT_EQ(e->insert(v4key(10, 1, 2, 3), 32, 300), Status::ok);
  EXPECT_EQ(e->size(), 3u);

  LpmMatch m;
  ASSERT_TRUE(e->lookup(v4key(10, 9, 9, 9), m));
  EXPECT_EQ(m.value, 100u);
  EXPECT_EQ(m.plen, 8);
  ASSERT_TRUE(e->lookup(v4key(10, 1, 9, 9), m));
  EXPECT_EQ(m.value, 200u);
  ASSERT_TRUE(e->lookup(v4key(10, 1, 2, 3), m));
  EXPECT_EQ(m.value, 300u);
  EXPECT_FALSE(e->lookup(v4key(11, 0, 0, 1), m));

  EXPECT_EQ(e->remove(v4key(10, 1, 0, 0), 16), Status::ok);
  ASSERT_TRUE(e->lookup(v4key(10, 1, 9, 9), m));
  EXPECT_EQ(m.value, 100u);  // falls back to /8
  EXPECT_EQ(e->remove(v4key(10, 1, 0, 0), 16), Status::not_found);
}

TEST_P(EngineTest, DefaultRoute) {
  auto e = make_lpm_engine(GetParam(), 32);
  EXPECT_EQ(e->insert({}, 0, 7), Status::ok);
  LpmMatch m;
  ASSERT_TRUE(e->lookup(v4key(1, 2, 3, 4), m));
  EXPECT_EQ(m.value, 7u);
  EXPECT_EQ(m.plen, 0);
  e->insert(v4key(1, 0, 0, 0), 8, 9);
  ASSERT_TRUE(e->lookup(v4key(1, 2, 3, 4), m));
  EXPECT_EQ(m.value, 9u);
}

TEST_P(EngineTest, InsertOverwritesValue) {
  auto e = make_lpm_engine(GetParam(), 32);
  e->insert(v4key(10, 0, 0, 0), 8, 1);
  e->insert(v4key(10, 0, 0, 0), 8, 2);
  LpmMatch m;
  ASSERT_TRUE(e->lookup(v4key(10, 0, 0, 1), m));
  EXPECT_EQ(m.value, 2u);
}

TEST_P(EngineTest, Ipv6Prefixes) {
  auto e = make_lpm_engine(GetParam(), 128);
  auto p1 = *netbase::IpPrefix::parse("2001:db8::/32");
  auto p2 = *netbase::IpPrefix::parse("2001:db8:1::/48");
  e->insert(p1.addr.key(), p1.len, 1);
  e->insert(p2.addr.key(), p2.len, 2);
  LpmMatch m;
  auto a1 = netbase::IpAddr(*netbase::Ipv6Addr::parse("2001:db8:2::5"));
  ASSERT_TRUE(e->lookup(a1.key(), m));
  EXPECT_EQ(m.value, 1u);
  auto a2 = netbase::IpAddr(*netbase::Ipv6Addr::parse("2001:db8:1::5"));
  ASSERT_TRUE(e->lookup(a2.key(), m));
  EXPECT_EQ(m.value, 2u);
}

// Cross-engine agreement with a brute-force reference on random databases.
TEST_P(EngineTest, AgreesWithReferenceV4) {
  auto e = make_lpm_engine(GetParam(), 32);
  auto prefixes = tgen::random_prefixes(500, IpVersion::v4, 11);
  std::map<std::pair<U128, unsigned>, LpmValue> ref;
  LpmValue next = 1;
  for (const auto& p : prefixes) {
    ref[{p.addr.key(), p.len}] = next;
    e->insert(p.addr.key(), p.len, next);
    ++next;
  }
  auto ref_lookup = [&](U128 key) -> std::optional<LpmMatch> {
    std::optional<LpmMatch> best;
    for (const auto& [kp, v] : ref) {
      if ((key & U128::prefix_mask(kp.second)) == kp.first) {
        if (!best || kp.second > best->plen)
          best = LpmMatch{v, static_cast<std::uint8_t>(kp.second)};
      }
    }
    return best;
  };

  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    // Half the probes are random; half are specializations of a prefix so
    // they actually hit.
    U128 key;
    if (i % 2) {
      key = netbase::IpAddr(
                netbase::Ipv4Addr(static_cast<std::uint32_t>(rng.next())))
                .key();
    } else {
      const auto& p = prefixes[rng.below(prefixes.size())];
      U128 mask = U128::prefix_mask(p.len);
      U128 rnd = netbase::IpAddr(
                     netbase::Ipv4Addr(static_cast<std::uint32_t>(rng.next())))
                     .key();
      key = (p.addr.key() & mask) | (rnd & ~mask);
    }
    auto want = ref_lookup(key);
    LpmMatch got;
    bool found = e->lookup(key, got);
    ASSERT_EQ(found, want.has_value());
    if (want) {
      EXPECT_EQ(got.plen, want->plen);
      EXPECT_EQ(got.value, want->value);
    }
  }
}

TEST_P(EngineTest, RemoveHalfStaysConsistent) {
  auto e = make_lpm_engine(GetParam(), 32);
  auto prefixes = tgen::random_prefixes(200, IpVersion::v4, 13);
  std::map<std::pair<U128, unsigned>, LpmValue> ref;
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    const auto& p = prefixes[i];
    ref[{p.addr.key(), p.len}] = static_cast<LpmValue>(i);
    e->insert(p.addr.key(), p.len, static_cast<LpmValue>(i));
  }
  // Remove every other distinct prefix.
  std::size_t n = 0;
  for (auto it = ref.begin(); it != ref.end();) {
    if (n++ % 2 == 0) {
      EXPECT_EQ(e->remove(it->first.first,
                          static_cast<std::uint8_t>(it->first.second)),
                Status::ok);
      it = ref.erase(it);
    } else {
      ++it;
    }
  }
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    U128 key = netbase::IpAddr(
                   netbase::Ipv4Addr(static_cast<std::uint32_t>(rng.next())))
                   .key();
    std::optional<LpmMatch> want;
    for (const auto& [kp, v] : ref) {
      if ((key & U128::prefix_mask(kp.second)) == kp.first)
        if (!want || kp.second > want->plen)
          want = LpmMatch{v, static_cast<std::uint8_t>(kp.second)};
    }
    LpmMatch got;
    ASSERT_EQ(e->lookup(key, got), want.has_value());
    if (want) {
      EXPECT_EQ(got.value, want->value);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineTest,
                         ::testing::Values("patricia", "bsl", "cpe"));

TEST(WaldvogelBsl, ProbeBoundAllLengthsPresent) {
  // Binary search over n distinct lengths costs at most ceil(log2(n+1))
  // probes: 6 when every IPv4 length 1..32 is populated.
  WaldvogelBsl e(32);
  Rng rng(5);
  for (unsigned len = 1; len <= 32; ++len)
    for (int i = 0; i < 8; ++i)
      e.insert(U128{rng.next(), 0} & U128::prefix_mask(len), len, len);
  EXPECT_LE(e.max_probes(), 6u);

  LpmMatch m;
  e.lookup(U128{rng.next(), 0}, m);  // force rebuild outside measurement
  for (int i = 0; i < 100; ++i) {
    MemAccess::reset();
    e.lookup(U128{rng.next(), 0}, m);
    EXPECT_LE(MemAccess::total(), 6u);
  }
}

TEST(WaldvogelBsl, ProbeBoundRealisticLengths) {
  // Real filter databases use prefix lengths 8..32 (25 distinct): at most
  // 5 probes — the paper's Table 2 accounting (2 * log2(32)/2 = 10 for two
  // IPv4 address lookups).
  WaldvogelBsl e(32);
  Rng rng(51);
  for (unsigned len = 8; len <= 32; ++len)
    for (int i = 0; i < 8; ++i)
      e.insert(U128{rng.next(), 0} & U128::prefix_mask(len), len, len);
  EXPECT_LE(e.max_probes(), 5u);
  LpmMatch m;
  e.lookup(U128{rng.next(), 0}, m);
  for (int i = 0; i < 100; ++i) {
    MemAccess::reset();
    e.lookup(U128{rng.next(), 0}, m);
    EXPECT_LE(MemAccess::total(), 5u);
  }
}

TEST(WaldvogelBsl, Ipv6ProbeBound) {
  // Realistic IPv6 filter lengths 16..64 (49 distinct): at most 6 probes;
  // the paper's 7-per-address (log2(128)) is the all-lengths upper bound.
  WaldvogelBsl e(128);
  Rng rng(6);
  for (unsigned len = 16; len <= 64; ++len)
    e.insert(U128{rng.next(), rng.next()} & U128::prefix_mask(len), len, len);
  EXPECT_LE(e.max_probes(), 6u);
  LpmMatch m;
  e.lookup(U128{1, 1}, m);
  for (int i = 0; i < 100; ++i) {
    MemAccess::reset();
    e.lookup(U128{rng.next(), rng.next()}, m);
    EXPECT_LE(MemAccess::total(), 7u);
  }
}

TEST(CpeTrie, AccessBoundIsLevels) {
  CpeTrie e(32, 8);
  auto prefixes = tgen::random_prefixes(300, IpVersion::v4, 21);
  for (std::size_t i = 0; i < prefixes.size(); ++i)
    e.insert(prefixes[i].addr.key(), prefixes[i].len,
             static_cast<LpmValue>(i));
  Rng rng(22);
  LpmMatch m;
  for (int i = 0; i < 200; ++i) {
    MemAccess::reset();
    e.lookup(U128{rng.next(), 0}, m);
    EXPECT_LE(MemAccess::total(), 4u);  // 32/8 levels
  }
}

TEST(Patricia, DepthBoundedByWidth) {
  PatriciaTrie e(32);
  auto prefixes = tgen::random_prefixes(1000, IpVersion::v4, 31);
  for (std::size_t i = 0; i < prefixes.size(); ++i)
    e.insert(prefixes[i].addr.key(), prefixes[i].len,
             static_cast<LpmValue>(i));
  EXPECT_LE(e.depth(), 33u);
}

TEST(EngineFactory, UnknownNameIsNull) {
  EXPECT_EQ(make_lpm_engine("nope", 32), nullptr);
}

// ---- bsl against patricia on adversarial prefix sets ----
//
// Aligned blocks differ only in a few bits just above their prefix length,
// the pattern that defeats a slot hash which leaves high key bits out of
// the low bits a power-of-two mask keeps. Each set is checked three ways:
// every lookup agrees with PATRICIA (value and length); each lookup's
// counted accesses equal a reference model of the binary search — one per
// length probed, however many slots a probe reads; and no probe reads a
// long run of slots.

using PrefixList = std::vector<std::pair<U128, std::uint8_t>>;

// The per-length tables as std::sets: lengths, prefixes and the markers on
// each prefix's binary-search path, built straight from the algorithm.
class BslProbeModel {
 public:
  explicit BslProbeModel(const std::map<std::pair<U128, std::uint8_t>,
                                        LpmValue>& raw) {
    std::set<std::uint8_t> lens;
    for (const auto& [kp, v] : raw)
      if (kp.second) lens.insert(kp.second);
    lengths_.assign(lens.begin(), lens.end());
    entries_.resize(lengths_.size());
    for (const auto& [kp, v] : raw) {
      if (!kp.second) continue;
      const int target = static_cast<int>(
          std::find(lengths_.begin(), lengths_.end(), kp.second) -
          lengths_.begin());
      int lo = 0, hi = static_cast<int>(lengths_.size()) - 1;
      while (lo <= hi) {
        const int mid = (lo + hi) / 2;
        if (mid > target) {
          hi = mid - 1;
          continue;
        }
        entries_[mid].insert(kp.first & U128::prefix_mask(lengths_[mid]));
        if (mid == target) break;
        lo = mid + 1;
      }
    }
  }
  std::uint64_t probes(U128 key) const {
    std::uint64_t n = 0;
    int lo = 0, hi = static_cast<int>(lengths_.size()) - 1;
    while (lo <= hi) {
      const int mid = (lo + hi) / 2;
      ++n;
      if (entries_[mid].contains(key & U128::prefix_mask(lengths_[mid])))
        lo = mid + 1;
      else
        hi = mid - 1;
    }
    return n;
  }

 private:
  std::vector<std::uint8_t> lengths_;
  std::vector<std::set<U128>> entries_;
};

class BslAdversarial {
 public:
  explicit BslAdversarial(unsigned width)
      : width_(width), bsl_(width), ref_(width) {}

  void add(U128 key, std::uint8_t plen, LpmValue v) {
    key = key & U128::prefix_mask(plen);
    raw_[{key, plen}] = v;
    ASSERT_EQ(bsl_.insert(key, plen, v), Status::ok);
    ASSERT_EQ(ref_.insert(key, plen, v), Status::ok);
  }
  void remove(U128 key, std::uint8_t plen) {
    key = key & U128::prefix_mask(plen);
    raw_.erase({key, plen});
    ASSERT_EQ(bsl_.remove(key, plen), Status::ok);
    ASSERT_EQ(ref_.remove(key, plen), Status::ok);
  }

  // Looks up every prefix's base address, a random address inside it and
  // as many fully random addresses, checking agreement and access counts.
  void check(Rng& rng) {
    bsl_.prepare();
    const BslProbeModel model(raw_);
    std::vector<U128> queries;
    for (const auto& [kp, v] : raw_) {
      const U128 mask = U128::prefix_mask(kp.second);
      queries.push_back(kp.first);
      queries.push_back(kp.first | (random_key(rng) & ~mask));
      queries.push_back(random_key(rng));
    }
    for (const U128& q : queries) {
      LpmMatch want, got;
      const bool want_found = ref_.lookup(q, want);
      MemAccess::reset();
      const bool found = bsl_.lookup(q, got);
      ASSERT_EQ(MemAccess::total(), model.probes(q));
      ASSERT_EQ(found, want_found);
      if (found) {
        ASSERT_EQ(got.plen, want.plen);
        ASSERT_EQ(got.value, want.value);
      }
    }
    // A few slots per probe at load <= 3/4. A hash that clusters these
    // sets puts thousands of keys in one run.
    EXPECT_LE(bsl_.max_probe_run(), 64u);
  }

  std::size_t size() const { return raw_.size(); }
  const WaldvogelBsl& bsl() const { return bsl_; }

 private:
  U128 random_key(Rng& rng) const {
    return U128{rng.next(), width_ > 64 ? rng.next() : 0} &
           U128::prefix_mask(static_cast<std::uint8_t>(width_));
  }

  unsigned width_;
  WaldvogelBsl bsl_;
  PatriciaTrie ref_;
  std::map<std::pair<U128, std::uint8_t>, LpmValue> raw_;
};

TEST(WaldvogelBsl, AlignedV4BlocksMatchPatricia) {
  BslAdversarial t(32);
  LpmValue v = 1;
  t.add({}, 0, v++);  // default route
  for (unsigned a = 0; a < 256; ++a) t.add(v4key(a, 0, 0, 0), 8, v++);
  for (unsigned a = 10; a < 14; ++a)
    for (unsigned b = 0; b < 256; ++b) t.add(v4key(a, b, 0, 0), 16, v++);
  for (unsigned b = 0; b < 16; ++b)
    for (unsigned c = 0; c < 256; ++c) t.add(v4key(10, b, c, 0), 24, v++);
  for (unsigned d = 0; d < 256; ++d) t.add(v4key(10, 0, 0, d), 32, v++);
  Rng rng(401);
  t.check(rng);
}

TEST(WaldvogelBsl, AlignedV6BlocksMatchPatricia) {
  BslAdversarial t(128);
  const U128 base = netbase::IpPrefix::parse("2001:db8::/32")->addr.key();
  LpmValue v = 1;
  t.add({}, 0, v++);
  for (std::uint8_t len : {32, 40, 48, 56, 64})
    for (std::uint64_t i = 0; i < 512; ++i)
      t.add(U128{base.hi | (i << (64 - len)), 0}, len, v++);
  Rng rng(402);
  t.check(rng);
}

TEST(WaldvogelBsl, RemoveReaddRebuildMatchesPatricia) {
  BslAdversarial t(32);
  LpmValue v = 1;
  t.add({}, 0, v++);
  PrefixList blocks;
  for (unsigned a = 0; a < 256; ++a) blocks.push_back({v4key(a, 0, 0, 0), 8});
  for (unsigned b = 0; b < 256; ++b) blocks.push_back({v4key(10, b, 0, 0), 16});
  for (unsigned c = 0; c < 1024; ++c)
    blocks.push_back(
        {v4key(10, static_cast<std::uint8_t>(c >> 8),
               static_cast<std::uint8_t>(c), 0),
         24});
  for (const auto& [k, len] : blocks) t.add(k, len, v++);
  Rng rng(403);
  t.check(rng);
  // Withdraw every other block and the default, then re-add them with new
  // values: each step forces a rebuild that must see exactly the live set.
  for (std::size_t i = 0; i < blocks.size(); i += 2)
    t.remove(blocks[i].first, blocks[i].second);
  t.remove({}, 0);
  t.check(rng);
  for (std::size_t i = 0; i < blocks.size(); i += 2)
    t.add(blocks[i].first, blocks[i].second, v++);
  t.add({}, 0, v++);
  EXPECT_EQ(t.size(), blocks.size() + 1);
  t.check(rng);
}

}  // namespace
}  // namespace rp::bmp
