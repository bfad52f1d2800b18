// Flow table (Section 5.2): the hash-based cache of per-flow state.
//
// Each entry corresponds to one fully-specified flow and stores, for every
// gate in the core, the bound plugin instance plus a per-flow soft-state
// pointer for that instance, and a back-pointer to the filter record the
// binding was derived from. Collisions chain on a singly linked list.
// Records come from a free list seeded with 1024 entries that doubles on
// exhaustion (1024, 2048, 4096, ...) up to a configurable maximum, after
// which the least recently used entries are recycled — all as in §5.2.
//
// Deviation from §5.2: the paper allocates a fixed bucket array (32768).
// Here that is only the initial count; whenever the record pool grows, the
// array doubles until it has two buckets per record, so the load factor
// stays at most 1/2 and a hit costs the paper's ~2 accesses (2.25 on
// average) at any table size, not one per chained flow. The chain and LRU
// links live in a dense side array indexed by FIX (FlowTable::Link), so
// walking a chain or relinking the LRU on a hit touches 24-byte entries
// instead of whole FlowRecords.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "aiu/filter_table.hpp"
#include "netbase/clock.hpp"
#include "pkt/packet.hpp"

namespace rp::route {
struct NextHop;
}

namespace rp::aiu {

// One gate slot per plugin type (types 1..9; slot 0 unused).
constexpr std::size_t kNumGates = 10;
static_assert(kNumGates <= 32, "FlowRecord::bound_mask is a 32-bit mask");

constexpr std::size_t gate_index(plugin::PluginType t) noexcept {
  return static_cast<std::size_t>(t);
}

struct GateBinding {
  plugin::PluginInstance* instance{nullptr};
  void* soft{nullptr};                   // per-flow soft state for the plugin
  const FilterRecord* filter{nullptr};   // filter this binding derives from
};

struct FlowRecord {
  pkt::FlowKey key{};
  // Bit `gate_index(g)` set iff gates[gate_index(g)] has a bound instance.
  // Written at classification time, so the core can skip a whole gate for a
  // burst chunk with one mask test instead of touching every binding. Any
  // filter change flushes the cache; the only in-place mutation is the L7
  // verdict-cache offload (Aiu's flow-offload hook clears one binding and
  // its mask bit once a flow is judged clean — same-thread with dispatch,
  // and only ever *removing* work, so in-flight chunks stay correct).
  std::uint32_t bound_mask{0};
  GateBinding gates[kNumGates]{};
  netbase::SimTime last_used{0};
  netbase::SimTime first_seen{0};
  std::uint64_t packets{0};
  // L3 bytes at ingress, accumulated by the AIU's burst resolver; together
  // with packets/first_seen/last_used this makes every entry a NetFlow-style
  // accounting record the telemetry subsystem exports when the entry dies.
  std::uint64_t bytes{0};
  // Per-flow route cache, owned by the core's grouped tail: the next hop
  // this flow's destination resolved to and the RoutingTable::generation()
  // it was resolved under. Valid only while that generation is current;
  // generation 0, which no table reports, marks it empty.
  const route::NextHop* route_hop{nullptr};
  std::uint64_t route_gen{0};
  bool in_use{false};
};

class FlowTable {
 public:
  // Why an entry is leaving the table; forwarded to the remove hook so a
  // flow-export subsystem can label its records.
  enum class RemoveReason : std::uint8_t {
    removed = 0,  // explicit remove()
    recycled,     // LRU eviction at the record cap
    expired,      // idle-timeout sweep
    purged,       // instance/filter teardown
    cleared,      // table flush
  };
  // Observes every entry removal, after the flow_removed plugin callbacks
  // and before the record is wiped. Not control-path only: the LRU recycle
  // in insert() removes an entry on the per-packet miss path, so this hook
  // and every flow_removed run there too and must be O(1) in the number of
  // tracked flows.
  using RemoveHook = std::function<void(const FlowRecord&, RemoveReason)>;

  struct Stats {
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    std::uint64_t inserts{0};
    std::uint64_t recycled{0};   // LRU evictions at the record cap
    std::uint64_t removed{0};
    std::uint64_t grown{0};      // free-list doubling events
  };

  // `buckets` is the initial bucket count (rounded up to a power of two);
  // it doubles with the record pool from there.
  explicit FlowTable(std::size_t buckets = 32768,
                     std::size_t initial_records = 1024,
                     std::size_t max_records = 1 << 20);

  // Destruction notifies every bound instance (flow_removed) so plugins
  // drop their soft-state back-pointers into this table before it is freed.
  ~FlowTable() { clear(); }

  // Data-path lookup; counts one memory access for the bucket probe plus one
  // per chain link traversed. A hit refreshes LRU position and last_used.
  pkt::FlowIndex lookup(const pkt::FlowKey& key, netbase::SimTime now) {
    return lookup(key, key.hash(), now);
  }
  // Two-stage variant: the burst path hashes a whole burst first (issuing
  // prefetches in between), then probes with the precomputed hash.
  // Touches the bucket head and one Link per chained entry; a FlowRecord is
  // read only on a full-hash match.
  pkt::FlowIndex lookup(const pkt::FlowKey& key, std::uint64_t hash,
                        netbase::SimTime now);

  // Inserts a record for `key` (which must not be present). May grow the
  // free list or recycle the LRU entry. Never fails.
  pkt::FlowIndex insert(const pkt::FlowKey& key, netbase::SimTime now) {
    return insert(key, key.hash(), now);
  }
  pkt::FlowIndex insert(const pkt::FlowKey& key, std::uint64_t hash,
                        netbase::SimTime now);

  // Pulls the bucket head for `hash` toward the cache ahead of a lookup.
  void prefetch(std::uint64_t hash) const noexcept {
    __builtin_prefetch(&buckets_[bucket_of(hash)]);
  }
  // Second prefetch stage: once the bucket head is resident, pull the first
  // chained entry: its Link (the hash compare) and two FlowRecord lines —
  // the first covers the key, the second the start of the gate bindings
  // the core reads right after.
  void prefetch_record(std::uint64_t hash) const noexcept {
    const std::int32_t i = buckets_[bucket_of(hash)];
    if (i >= 0) {
      __builtin_prefetch(&links_[i]);
      const char* r = reinterpret_cast<const char*>(&recs_[i]);
      __builtin_prefetch(r);
      __builtin_prefetch(r + 64);
    }
  }

  // Refreshes a known-live entry without re-probing the hash chain — the
  // burst path's last-flow memo uses this so back-to-back packets of one
  // flow skip the probe entirely. Accounting matches a lookup hit.
  void touch(pkt::FlowIndex i, netbase::SimTime now) {
    FlowRecord& r = recs_[i];
    r.last_used = now;
    r.packets++;
    lru_touch(i);
    ++stats_.hits;
  }

  FlowRecord& rec(pkt::FlowIndex i) noexcept { return recs_[i]; }
  const FlowRecord& rec(pkt::FlowIndex i) const noexcept { return recs_[i]; }
  // The full key hash stored for a live entry.
  std::uint64_t hash_of(pkt::FlowIndex i) const noexcept {
    return links_[i].hash;
  }

  // Removes an entry, invoking each bound instance's flow_removed callback
  // for its soft state.
  void remove(pkt::FlowIndex i) { remove(i, RemoveReason::removed); }
  void remove(pkt::FlowIndex i, RemoveReason why);

  void set_remove_hook(RemoveHook hook) { remove_hook_ = std::move(hook); }

  // Removes every flow with a binding to `inst` / derived from `filter`.
  std::size_t purge_instance(const plugin::PluginInstance* inst);
  std::size_t purge_filter(const FilterRecord* filter);
  // Removes flows idle since before `cutoff`; returns how many.
  std::size_t expire_idle(netbase::SimTime cutoff);
  void clear();

  std::size_t active() const noexcept { return active_; }
  std::size_t capacity() const noexcept { return recs_.size(); }
  std::size_t max_records() const noexcept { return max_records_; }
  std::size_t bucket_count() const noexcept { return buckets_.size(); }
  const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  // Per-entry chain and LRU links, parallel to recs_. hash_next also
  // threads the free list.
  struct Link {
    std::uint64_t hash{0};  // full key hash, compared before the key itself
    std::int32_t hash_next{-1};
    std::int32_t lru_prev{-1};
    std::int32_t lru_next{-1};
  };

  std::uint32_t bucket_of(std::uint64_t hash) const noexcept {
    return static_cast<std::uint32_t>(hash & (buckets_.size() - 1));
  }
  // Doubles the record pool, then grows the bucket array to at least twice
  // the pool (re-chaining every live entry).
  void grow_free_list();
  void rehash(std::size_t buckets);
  void lru_push_front(pkt::FlowIndex i);
  void lru_unlink(pkt::FlowIndex i);
  void lru_touch(pkt::FlowIndex i);
  void unchain(pkt::FlowIndex i);

  std::vector<FlowRecord> recs_;
  std::vector<Link> links_;
  std::vector<std::int32_t> buckets_;
  std::int32_t free_head_{-1};
  std::int32_t lru_head_{-1};  // most recently used
  std::int32_t lru_tail_{-1};  // least recently used
  std::size_t max_records_;
  std::size_t active_{0};
  Stats stats_;
  RemoveHook remove_hook_;
};

}  // namespace rp::aiu
