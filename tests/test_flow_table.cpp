// Tests for the flow table: hashing, chaining, the §5.2 free-list growth
// sequence (1024, 2048, 4096, ...), bucket-array growth, LRU recycling at
// the record cap, idle expiry, and the flow_removed soft-state callback —
// plus a randomized differential against a reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "aiu/flow_table.hpp"
#include "netbase/memaccess.hpp"
#include "tgen/workload.hpp"

namespace rp::aiu {
namespace {

using netbase::MemAccess;
using netbase::Rng;

pkt::FlowKey mk(std::uint32_t i) {
  pkt::FlowKey k;
  k.src = netbase::IpAddr(netbase::Ipv4Addr(i));
  k.dst = netbase::IpAddr(netbase::Ipv4Addr(~i));
  k.proto = 17;
  k.sport = static_cast<std::uint16_t>(i);
  k.dport = 80;
  k.in_iface = 0;
  return k;
}

// Counts flow_removed callbacks and remembers the soft pointers it saw.
class RecordingInstance final : public plugin::PluginInstance {
 public:
  plugin::Verdict handle_packet(pkt::Packet&, void**) override {
    return plugin::Verdict::cont;
  }
  void flow_removed(void* soft) override {
    ++removed;
    last_soft = soft;
  }
  int removed{0};
  void* last_soft{nullptr};
};

// The route cache fits in the bytes the chain and LRU links vacated: a
// record is no larger than before they moved to the side array.
static_assert(sizeof(FlowRecord) <= 376);

TEST(FlowTable, InsertLookupRemove) {
  FlowTable t(1024, 16, 4096);
  EXPECT_EQ(t.lookup(mk(1), 0), pkt::kNoFlow);
  auto i = t.insert(mk(1), 100);
  ASSERT_NE(i, pkt::kNoFlow);
  EXPECT_EQ(t.active(), 1u);
  EXPECT_EQ(t.lookup(mk(1), 200), i);
  EXPECT_EQ(t.rec(i).last_used, 200);
  EXPECT_EQ(t.rec(i).packets, 1u);
  t.remove(i);
  EXPECT_EQ(t.active(), 0u);
  EXPECT_EQ(t.lookup(mk(1), 300), pkt::kNoFlow);
}

TEST(FlowTable, CollisionChainsResolve) {
  // 1-bucket table: the first eight entries all collide, and the rest are
  // re-chained as the pool (and with it the bucket array) grows; all
  // entries must still be found.
  FlowTable t(1, 8, 1024);
  std::vector<pkt::FlowIndex> idx;
  for (std::uint32_t i = 0; i < 50; ++i) idx.push_back(t.insert(mk(i), i));
  for (std::uint32_t i = 0; i < 50; ++i) EXPECT_EQ(t.lookup(mk(i), 99), idx[i]);
  // Remove the middle of chains and re-check.
  for (std::uint32_t i = 0; i < 50; i += 2) t.remove(idx[i]);
  for (std::uint32_t i = 1; i < 50; i += 2) EXPECT_EQ(t.lookup(mk(i), 99), idx[i]);
  for (std::uint32_t i = 0; i < 50; i += 2)
    EXPECT_EQ(t.lookup(mk(i), 99), pkt::kNoFlow);
}

TEST(FlowTable, GrowthSequenceDoubles) {
  FlowTable t(256, 4, 64);
  EXPECT_EQ(t.capacity(), 4u);
  for (std::uint32_t i = 0; i < 5; ++i) t.insert(mk(i), i);
  EXPECT_EQ(t.capacity(), 8u);  // 4 -> 8
  for (std::uint32_t i = 5; i < 9; ++i) t.insert(mk(i), i);
  EXPECT_EQ(t.capacity(), 16u);  // 8 -> 16
  EXPECT_EQ(t.stats().grown, 2u);
}

TEST(FlowTable, RecyclesLruAtCap) {
  FlowTable t(256, 4, 8);  // hard cap at 8 records
  for (std::uint32_t i = 0; i < 8; ++i) t.insert(mk(i), i);
  EXPECT_EQ(t.active(), 8u);
  // Touch flow 0 so it is no longer the LRU victim.
  EXPECT_NE(t.lookup(mk(0), 100), pkt::kNoFlow);
  // Next insert must evict flow 1 (the oldest untouched).
  t.insert(mk(100), 101);
  EXPECT_EQ(t.active(), 8u);
  EXPECT_EQ(t.stats().recycled, 1u);
  EXPECT_EQ(t.lookup(mk(1), 102), pkt::kNoFlow);   // evicted
  EXPECT_NE(t.lookup(mk(0), 102), pkt::kNoFlow);   // survived
  EXPECT_NE(t.lookup(mk(100), 102), pkt::kNoFlow);
}

TEST(FlowTable, FlowRemovedCallbackFiresWithSoftState) {
  FlowTable t(64, 4, 64);
  RecordingInstance inst;
  auto i = t.insert(mk(5), 0);
  int marker = 42;
  t.rec(i).gates[gate_index(plugin::PluginType::sched)] = {&inst, &marker,
                                                           nullptr};
  t.remove(i);
  EXPECT_EQ(inst.removed, 1);
  EXPECT_EQ(inst.last_soft, &marker);
}

TEST(FlowTable, PurgeInstanceRemovesOnlyItsFlows) {
  FlowTable t(64, 8, 64);
  RecordingInstance a, b;
  auto ia = t.insert(mk(1), 0);
  auto ib = t.insert(mk(2), 0);
  t.insert(mk(3), 0);  // unbound flow
  t.rec(ia).gates[1] = {&a, nullptr, nullptr};
  t.rec(ib).gates[2] = {&b, nullptr, nullptr};
  EXPECT_EQ(t.purge_instance(&a), 1u);
  EXPECT_EQ(t.active(), 2u);
  EXPECT_EQ(t.lookup(mk(1), 9), pkt::kNoFlow);
  EXPECT_NE(t.lookup(mk(2), 9), pkt::kNoFlow);
}

TEST(FlowTable, PurgeFilterRemovesDerivedFlows) {
  FlowTable t(64, 8, 64);
  FilterRecord fr;
  auto i1 = t.insert(mk(1), 0);
  t.insert(mk(2), 0);
  t.rec(i1).gates[3] = {nullptr, nullptr, &fr};
  EXPECT_EQ(t.purge_filter(&fr), 1u);
  EXPECT_EQ(t.active(), 1u);
}

TEST(FlowTable, ExpireIdleRemovesOldFlows) {
  FlowTable t(64, 8, 64);
  t.insert(mk(1), 100);
  t.insert(mk(2), 200);
  t.insert(mk(3), 300);
  t.lookup(mk(1), 400);  // refresh flow 1
  EXPECT_EQ(t.expire_idle(250), 1u);  // only flow 2 is older than 250
  EXPECT_EQ(t.active(), 2u);
  EXPECT_EQ(t.lookup(mk(2), 500), pkt::kNoFlow);
}

TEST(FlowTable, HitMissStats) {
  FlowTable t(64, 8, 64);
  t.lookup(mk(1), 0);
  t.insert(mk(1), 0);
  t.lookup(mk(1), 1);
  t.lookup(mk(2), 1);
  EXPECT_EQ(t.stats().hits, 1u);
  EXPECT_EQ(t.stats().misses, 2u);
  EXPECT_EQ(t.stats().inserts, 1u);
}

TEST(FlowTable, LookupCostOneProbePlusChain) {
  // In a well-sized table a hit costs the bucket probe plus one entry fetch.
  FlowTable t(32768, 1024, 1 << 20);
  Rng rng(3);
  std::vector<pkt::FlowKey> keys;
  for (int i = 0; i < 100; ++i) {
    keys.push_back(tgen::random_key(rng));
    t.insert(keys.back(), 0);
  }
  std::uint64_t worst = 0;
  for (const auto& k : keys) {
    MemAccess::reset();
    ASSERT_NE(t.lookup(k, 1), pkt::kNoFlow);
    worst = std::max(worst, MemAccess::total());
  }
  EXPECT_LE(worst, 4u);  // 100 flows in 32768 buckets: chains are tiny
}

TEST(FlowTable, ClearEmptiesEverything) {
  FlowTable t(64, 8, 64);
  for (std::uint32_t i = 0; i < 20; ++i) t.insert(mk(i), i);
  t.clear();
  EXPECT_EQ(t.active(), 0u);
  for (std::uint32_t i = 0; i < 20; ++i)
    EXPECT_EQ(t.lookup(mk(i), 99), pkt::kNoFlow);
  // Table remains usable after clear.
  EXPECT_NE(t.insert(mk(5), 1), pkt::kNoFlow);
}

TEST(FlowTable, ChurnAtCapStaysConsistent) {
  // Sustained churn far past the record cap: the free list never grows past
  // max_records, every insert beyond it recycles the LRU entry, and the
  // most recent kCap keys always remain resolvable (two-stage lookup, as
  // the burst path probes).
  constexpr std::uint32_t kCap = 64;
  FlowTable t(256, 4, kCap);
  netbase::SimTime now = 0;
  for (std::uint32_t i = 0; i < 10 * kCap; ++i) {
    auto k = mk(i);
    t.insert(k, k.hash(), ++now);
    ASSERT_LE(t.active(), kCap);
    ASSERT_LE(t.capacity(), kCap);
  }
  EXPECT_EQ(t.active(), kCap);
  EXPECT_EQ(t.stats().recycled, 9 * kCap);
  // The newest kCap flows survived; everything older was recycled.
  for (std::uint32_t i = 9 * kCap; i < 10 * kCap; ++i) {
    auto k = mk(i);
    EXPECT_NE(t.lookup(k, k.hash(), now), pkt::kNoFlow) << i;
  }
  for (std::uint32_t i = 0; i < kCap; ++i) {
    auto k = mk(i);
    EXPECT_EQ(t.lookup(k, k.hash(), now), pkt::kNoFlow) << i;
  }
}

TEST(FlowTable, ExpireIdleThenPrecomputedHashLookup) {
  // expire_idle must unchain records such that the two-stage (precomputed
  // hash) probe agrees with the key-only probe, and reinsertion after
  // expiry produces a findable record with the stored hash refreshed.
  FlowTable t(64, 8, 64);
  auto k1 = mk(1), k2 = mk(2), k3 = mk(3);
  t.insert(k1, k1.hash(), 100);
  t.insert(k2, k2.hash(), 200);
  t.insert(k3, k3.hash(), 300);
  t.lookup(k1, k1.hash(), 400);        // refresh flow 1
  EXPECT_EQ(t.expire_idle(250), 1u);   // only flow 2 idle since before 250
  EXPECT_EQ(t.lookup(k2, k2.hash(), 500), pkt::kNoFlow);
  EXPECT_EQ(t.lookup(k2, 500), pkt::kNoFlow);
  auto i2 = t.insert(k2, k2.hash(), 600);
  ASSERT_NE(i2, pkt::kNoFlow);
  EXPECT_EQ(t.hash_of(i2), k2.hash());
  EXPECT_EQ(t.lookup(k2, k2.hash(), 700), i2);
}

TEST(FlowTable, TouchMatchesLookupHitAccounting) {
  // The burst path's last-flow memo refreshes via touch(); its effect on
  // the record and the stats must be indistinguishable from a lookup hit.
  FlowTable t(64, 8, 64);
  auto k = mk(7);
  auto i = t.insert(k, k.hash(), 10);
  t.touch(i, 20);
  EXPECT_EQ(t.rec(i).last_used, 20);
  EXPECT_EQ(t.rec(i).packets, 1u);
  EXPECT_EQ(t.stats().hits, 1u);
  t.lookup(k, k.hash(), 30);
  EXPECT_EQ(t.rec(i).packets, 2u);
  EXPECT_EQ(t.stats().hits, 2u);
  // touch() refreshes LRU position: with the cap full, the touched entry
  // must not be the recycling victim.
  FlowTable t2(64, 4, 4);
  pkt::FlowIndex first = t2.insert(mk(0), 0);
  for (std::uint32_t i2 = 1; i2 < 4; ++i2) t2.insert(mk(i2), i2);
  t2.touch(first, 50);
  t2.insert(mk(99), 60);  // must evict mk(1), not the touched mk(0)
  EXPECT_NE(t2.lookup(mk(0), 70), pkt::kNoFlow);
  EXPECT_EQ(t2.lookup(mk(1), 70), pkt::kNoFlow);
}

TEST(FlowTable, PrefetchHasNoObservableEffect) {
  // prefetch()/prefetch_record() are pure performance hints: legal on any
  // hash (empty bucket, populated bucket) and invisible to stats/state.
  FlowTable t(64, 8, 64);
  auto k = mk(3);
  t.prefetch(k.hash());
  t.prefetch_record(k.hash());  // empty bucket: must not dereference
  auto i = t.insert(k, k.hash(), 1);
  t.prefetch(k.hash());
  t.prefetch_record(k.hash());
  EXPECT_EQ(t.stats().hits, 0u);
  EXPECT_EQ(t.stats().misses, 0u);
  EXPECT_EQ(t.rec(i).packets, 0u);
  EXPECT_EQ(t.lookup(k, k.hash(), 2), i);
}

TEST(FlowKeyHash, SensitiveToEveryField) {
  // Each component of the six-tuple must perturb the hash — the flow table
  // compares stored hashes before keys, so a field the hash ignores would
  // silently degrade every chain with near-identical keys.
  pkt::FlowKey base = mk(42);
  const std::uint64_t h = base.hash();
  auto differs = [&](pkt::FlowKey k) { return k.hash() != h; };
  pkt::FlowKey k = base;
  k.src = netbase::IpAddr(netbase::Ipv4Addr(9, 9, 9, 9));
  EXPECT_TRUE(differs(k));
  k = base;
  k.dst = netbase::IpAddr(netbase::Ipv4Addr(9, 9, 9, 9));
  EXPECT_TRUE(differs(k));
  k = base;
  k.proto = 6;
  EXPECT_TRUE(differs(k));
  k = base;
  k.sport = static_cast<std::uint16_t>(base.sport + 1);
  EXPECT_TRUE(differs(k));
  k = base;
  k.dport = static_cast<std::uint16_t>(base.dport + 1);
  EXPECT_TRUE(differs(k));
}

TEST(FlowKeyHash, LowBitsDistributeSequentialFlows) {
  // bucket_of() masks the low bits, so sequential flows (the common
  // pattern: one host, incrementing ports) must spread across buckets
  // rather than pile up. Bound the worst chain at ~4x the ideal load.
  constexpr std::size_t kBuckets = 1024;
  constexpr std::size_t kKeys = 16 * kBuckets;
  std::vector<std::uint32_t> load(kBuckets, 0);
  pkt::FlowKey k = mk(1);
  for (std::size_t i = 0; i < kKeys; ++i) {
    k.sport = static_cast<std::uint16_t>(i);
    k.dport = static_cast<std::uint16_t>(i >> 16);
    ++load[k.hash() & (kBuckets - 1)];
  }
  const std::uint32_t worst = *std::max_element(load.begin(), load.end());
  const std::size_t empty =
      static_cast<std::size_t>(std::count(load.begin(), load.end(), 0u));
  EXPECT_LE(worst, 64u);                // ideal 16; allow 4x skew
  EXPECT_LE(empty, kBuckets / 8);       // at most 12.5% empty buckets
}

TEST(FlowTable, StressRandomOpsAgainstReference) {
  FlowTable t(64, 4, 128);
  std::map<std::uint32_t, pkt::FlowIndex> ref;  // key id -> index
  Rng rng(17);
  netbase::SimTime now = 0;
  for (int op = 0; op < 5000; ++op) {
    ++now;
    std::uint32_t id = static_cast<std::uint32_t>(rng.below(200));
    if (rng.chance(0.6)) {
      auto want = ref.find(id);
      auto got = t.lookup(mk(id), now);
      if (want != ref.end()) {
        // May have been recycled under the cap; accept either agreement or
        // a recorded eviction.
        if (got == pkt::kNoFlow) {
          ref.erase(want);
        } else {
          EXPECT_EQ(got, want->second);
        }
      } else if (got == pkt::kNoFlow) {
        ref[id] = t.insert(mk(id), now);
      }
    } else if (!ref.empty() && rng.chance(0.3)) {
      auto it = ref.begin();
      std::advance(it, rng.below(ref.size()));
      // Use the index from a fresh lookup: the stored one may have been
      // recycled and reused by another flow under the record cap.
      auto cur = t.lookup(mk(it->first), now);
      if (cur != pkt::kNoFlow) t.remove(cur);
      ref.erase(it);
    }
    ASSERT_LE(t.active(), 128u);
  }
}

// ---- randomized differential against a reference model ----
//
// The model is the table's contract written the obvious way: a map from
// key to entry plus a std::list in LRU order (front = most recent). Every
// operation runs on both, and hits, misses, returned indices, recycle
// victims, expiry and purge order, per-entry accounting and stats() must
// agree exactly.
class FlowTableModel {
 public:
  struct Entry {
    pkt::FlowIndex fix{pkt::kNoFlow};
    netbase::SimTime last_used{0};
    std::uint64_t packets{0};
    int inst{-1};    // index into the test's instances, or -1
    int filter{-1};  // index into the test's filters, or -1
    std::list<std::uint32_t>::iterator lru;
  };

  FlowTableModel(std::size_t initial, std::size_t max)
      : capacity_(initial), max_(max) {}

  Entry* find(std::uint32_t id) {
    auto it = m_.find(id);
    return it == m_.end() ? nullptr : &it->second;
  }
  void hit(std::uint32_t id, netbase::SimTime now) {
    Entry& e = m_.at(id);
    e.last_used = now;
    ++e.packets;
    lru_.splice(lru_.begin(), lru_, e.lru);
    ++stats.hits;
  }
  // Returns the id recycled to make room, if any.
  std::optional<std::uint32_t> insert(std::uint32_t id, netbase::SimTime now,
                                      pkt::FlowIndex fix, int inst,
                                      int filter) {
    std::optional<std::uint32_t> victim;
    if (m_.size() == capacity_ && capacity_ < max_) {
      capacity_ = std::min(capacity_ * 2, max_);
      ++stats.grown;
    }
    if (m_.size() == capacity_) {
      victim = lru_.back();
      erase(*victim);
      ++stats.recycled;
    }
    lru_.push_front(id);
    m_[id] = Entry{fix, now, 0, inst, filter, lru_.begin()};
    ++stats.inserts;
    return victim;
  }
  void remove(std::uint32_t id) {
    erase(id);
    ++stats.removed;
  }
  std::vector<std::uint32_t> expire(netbase::SimTime cutoff) {
    std::vector<std::uint32_t> out;
    while (!lru_.empty() && m_.at(lru_.back()).last_used < cutoff) {
      out.push_back(lru_.back());
      remove(lru_.back());
    }
    return out;
  }
  // Ids matching `pred`, in the table's purge order (ascending index).
  template <class Pred>
  std::vector<std::uint32_t> purge(Pred pred) {
    std::vector<std::pair<pkt::FlowIndex, std::uint32_t>> hits;
    for (const auto& [id, e] : m_)
      if (pred(e)) hits.emplace_back(e.fix, id);
    std::sort(hits.begin(), hits.end());
    std::vector<std::uint32_t> out;
    for (const auto& [fix, id] : hits) {
      out.push_back(id);
      remove(id);
    }
    return out;
  }
  std::size_t size() const { return m_.size(); }
  std::size_t capacity() const { return capacity_; }
  const std::map<std::uint32_t, Entry>& entries() const { return m_; }

  FlowTable::Stats stats;

 private:
  void erase(std::uint32_t id) {
    lru_.erase(m_.at(id).lru);
    m_.erase(id);
  }

  std::map<std::uint32_t, Entry> m_;
  std::list<std::uint32_t> lru_;
  std::size_t capacity_;
  std::size_t max_;
};

void expect_same_stats(const FlowTable::Stats& a, const FlowTable::Stats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_EQ(a.recycled, b.recycled);
  EXPECT_EQ(a.removed, b.removed);
  EXPECT_EQ(a.grown, b.grown);
}

TEST(FlowTableProperty, MatchesReferenceModelThroughGrowthAndCap) {
  constexpr std::size_t kInitial = 8, kMax = 512, kBuckets = 16;
  constexpr std::uint32_t kUniverse = 1500;  // ids < 65536: sport == id
  FlowTable t(kBuckets, kInitial, kMax);
  FlowTableModel model(kInitial, kMax);
  RecordingInstance insts[2];
  FilterRecord filters[2];

  std::vector<std::pair<std::uint32_t, FlowTable::RemoveReason>> removed;
  t.set_remove_hook([&](const FlowRecord& r, FlowTable::RemoveReason why) {
    removed.emplace_back(r.key.sport, why);
  });
  auto take_removed = [&] {
    std::vector<std::uint32_t> ids;
    for (const auto& [id, why] : removed) ids.push_back(id);
    removed.clear();
    return ids;
  };

  Rng rng(0xf10e);
  netbase::SimTime now = 0;
  std::size_t bucket_doublings = 0;
  std::size_t last_buckets = t.bucket_count();
  bool reached_cap = false;
  for (int step = 0; step < 40000; ++step) {
    now += 1 + static_cast<netbase::SimTime>(rng.next() % 3);
    const std::uint32_t id = static_cast<std::uint32_t>(rng.next() % kUniverse);
    const pkt::FlowKey k = mk(id);
    FlowTableModel::Entry* e = model.find(id);
    const unsigned op = static_cast<unsigned>(rng.next() % 1000);
    if (op < 450) {  // lookup, then insert on a miss (the AIU's pattern)
      const pkt::FlowIndex got = t.lookup(k, k.hash(), now);
      if (e) {
        ASSERT_EQ(got, e->fix) << "step " << step;
        model.hit(id, now);
      } else {
        ASSERT_EQ(got, pkt::kNoFlow) << "step " << step;
        ++model.stats.misses;
        // One flow in eight each bound to an instance and a filter, so a
        // purge takes a slice of the table, not a third of it.
        const auto pick = [&] {
          const int r = static_cast<int>(rng.next() % 16);
          return r < 2 ? r : -1;
        };
        const int inst = pick();
        const int filter = pick();
        const pkt::FlowIndex fix = t.insert(k, k.hash(), now);
        if (inst >= 0) t.rec(fix).gates[1] = {&insts[inst], nullptr, nullptr};
        if (filter >= 0) t.rec(fix).gates[2] = {nullptr, nullptr, &filters[filter]};
        const auto victim = model.insert(id, now, fix, inst, filter);
        if (victim) {
          ASSERT_EQ(removed.size(), 1u) << "step " << step;
          EXPECT_EQ(removed[0].first, *victim) << "step " << step;
          EXPECT_EQ(removed[0].second, FlowTable::RemoveReason::recycled);
          reached_cap = true;
        } else {
          ASSERT_TRUE(removed.empty()) << "step " << step;
        }
        removed.clear();
      }
    } else if (op < 600) {  // key-only lookup of a possibly absent flow
      const pkt::FlowIndex got = t.lookup(k, now);
      ASSERT_EQ(got, e ? e->fix : pkt::kNoFlow) << "step " << step;
      if (e)
        model.hit(id, now);
      else
        ++model.stats.misses;
    } else if (op < 750) {  // memo-style touch of a live flow
      if (!e) continue;
      t.touch(e->fix, now);
      model.hit(id, now);
    } else if (op < 800) {  // explicit remove
      if (!e) continue;
      t.remove(e->fix);
      model.remove(id);
      EXPECT_EQ(take_removed(), std::vector<std::uint32_t>{id});
    } else if (op < 998) {  // idle expiry, in LRU order
      const netbase::SimTime cutoff =
          now - 8000 - static_cast<netbase::SimTime>(rng.next() % 16000);
      const std::vector<std::uint32_t> want = model.expire(cutoff);
      EXPECT_EQ(t.expire_idle(cutoff), want.size());
      EXPECT_EQ(take_removed(), want) << "step " << step;
    } else if (op == 998) {
      const int which = static_cast<int>(rng.next() % 2);
      const auto want = model.purge(
          [&](const FlowTableModel::Entry& m) { return m.inst == which; });
      EXPECT_EQ(t.purge_instance(&insts[which]), want.size());
      EXPECT_EQ(take_removed(), want) << "step " << step;
    } else {
      const int which = static_cast<int>(rng.next() % 2);
      const auto want = model.purge(
          [&](const FlowTableModel::Entry& m) { return m.filter == which; });
      EXPECT_EQ(t.purge_filter(&filters[which]), want.size());
      EXPECT_EQ(take_removed(), want) << "step " << step;
    }

    ASSERT_EQ(t.active(), model.size()) << "step " << step;
    ASSERT_EQ(t.capacity(), model.capacity()) << "step " << step;
    // Two buckets per record: the load factor never exceeds 1/2.
    ASSERT_GE(t.bucket_count(), 2 * t.capacity()) << "step " << step;
    if (t.bucket_count() != last_buckets) {
      EXPECT_EQ(t.bucket_count() % last_buckets, 0u);
      while (last_buckets < t.bucket_count()) {
        last_buckets *= 2;
        ++bucket_doublings;
      }
    }
    if (step % 997 == 0) {
      expect_same_stats(t.stats(), model.stats);
      for (const auto& [mid, me] : model.entries()) {
        const FlowRecord& r = t.rec(me.fix);
        ASSERT_TRUE(r.in_use);
        EXPECT_EQ(r.key, mk(mid));
        EXPECT_EQ(r.last_used, me.last_used);
        EXPECT_EQ(r.packets, me.packets);
        EXPECT_EQ(t.hash_of(me.fix), mk(mid).hash());
      }
    }
  }
  expect_same_stats(t.stats(), model.stats);
  EXPECT_GE(bucket_doublings, 3u);
  EXPECT_TRUE(reached_cap);
  EXPECT_EQ(t.capacity(), kMax);
  EXPECT_GT(t.stats().recycled, 0u);
  EXPECT_GT(t.stats().hits, 0u);
  t.set_remove_hook(nullptr);
}

TEST(FlowTable, HitCostAtQuarterMillionFlows) {
  // Figure B's largest point. With a fixed 32768 buckets this was load 8
  // and ~6 accesses per hit; grown buckets keep it at the paper's ~2.
  constexpr std::size_t kFlows = 262144;
  FlowTable t(32768, 1024, 1 << 20);
  Rng rng(kFlows);
  std::vector<pkt::FlowKey> keys;
  keys.reserve(kFlows);
  for (std::size_t i = 0; i < kFlows; ++i) {
    keys.push_back(tgen::random_key(rng));
    t.insert(keys.back(), 0);
  }
  ASSERT_EQ(t.active(), kFlows);
  MemAccess::reset();
  for (const auto& k : keys) ASSERT_NE(t.lookup(k, 1), pkt::kNoFlow);
  const double per_hit =
      static_cast<double>(MemAccess::total()) / static_cast<double>(kFlows);
  EXPECT_LE(per_hit, 2.5);
}

}  // namespace
}  // namespace rp::aiu
