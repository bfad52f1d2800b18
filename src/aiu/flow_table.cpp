#include "aiu/flow_table.hpp"

#include <bit>
#include <cassert>

#include "netbase/memaccess.hpp"

namespace rp::aiu {

using netbase::MemAccess;

FlowTable::FlowTable(std::size_t buckets, std::size_t initial_records,
                     std::size_t max_records)
    : max_records_(max_records) {
  buckets_.assign(std::bit_ceil(buckets), -1);
  recs_.resize(initial_records == 0 ? 1 : initial_records);
  links_.resize(recs_.size());
  for (std::size_t i = 0; i < links_.size(); ++i)
    links_[i].hash_next =
        i + 1 < links_.size() ? static_cast<std::int32_t>(i + 1) : -1;
  free_head_ = 0;
}

void FlowTable::grow_free_list() {
  // Exponential growth: 1024, 2048, 4096, ... "to adapt to the environment
  // as fast as possible" (§5.2).
  std::size_t old = recs_.size();
  std::size_t grown = old * 2;
  if (grown > max_records_) grown = max_records_;
  if (grown <= old) return;
  recs_.resize(grown);
  links_.resize(grown);
  for (std::size_t i = old; i < grown; ++i)
    links_[i].hash_next =
        i + 1 < grown ? static_cast<std::int32_t>(i + 1) : -1;
  free_head_ = static_cast<std::int32_t>(old);
  ++stats_.grown;
  if (buckets_.size() < 2 * grown) rehash(std::bit_ceil(2 * grown));
}

void FlowTable::rehash(std::size_t buckets) {
  buckets_.assign(buckets, -1);
  // Every live entry is on the LRU list. Pushing them onto their new bucket
  // heads from the least to the most recently used leaves each chain in
  // most-recent-first order.
  for (std::int32_t i = lru_tail_; i >= 0; i = links_[i].lru_prev) {
    std::int32_t& head = buckets_[bucket_of(links_[i].hash)];
    links_[i].hash_next = head;
    head = i;
  }
}

void FlowTable::lru_push_front(pkt::FlowIndex i) {
  links_[i].lru_prev = -1;
  links_[i].lru_next = lru_head_;
  if (lru_head_ >= 0) links_[lru_head_].lru_prev = i;
  lru_head_ = i;
  if (lru_tail_ < 0) lru_tail_ = i;
}

void FlowTable::lru_unlink(pkt::FlowIndex i) {
  Link& l = links_[i];
  if (l.lru_prev >= 0)
    links_[l.lru_prev].lru_next = l.lru_next;
  else
    lru_head_ = l.lru_next;
  if (l.lru_next >= 0)
    links_[l.lru_next].lru_prev = l.lru_prev;
  else
    lru_tail_ = l.lru_prev;
  l.lru_prev = l.lru_next = -1;
}

void FlowTable::lru_touch(pkt::FlowIndex i) {
  if (lru_head_ == i) return;
  lru_unlink(i);
  lru_push_front(i);
}

void FlowTable::unchain(pkt::FlowIndex i) {
  Link& l = links_[i];
  std::int32_t* link = &buckets_[bucket_of(l.hash)];
  while (*link >= 0 && *link != i) link = &links_[*link].hash_next;
  assert(*link == i);
  *link = l.hash_next;
  l.hash_next = -1;
}

pkt::FlowIndex FlowTable::lookup(const pkt::FlowKey& key, std::uint64_t hash,
                                 netbase::SimTime now) {
  MemAccess::count();  // bucket head probe
  std::int32_t i = buckets_[bucket_of(hash)];
  while (i >= 0) {
    MemAccess::count();  // chain entry fetch
    const Link& l = links_[i];
    if (l.hash == hash && recs_[i].key == key) {
      FlowRecord& r = recs_[i];
      r.last_used = now;
      r.packets++;
      lru_touch(i);
      ++stats_.hits;
      return i;
    }
    i = l.hash_next;
  }
  ++stats_.misses;
  return pkt::kNoFlow;
}

pkt::FlowIndex FlowTable::insert(const pkt::FlowKey& key, std::uint64_t hash,
                                 netbase::SimTime now) {
  if (free_head_ < 0 && recs_.size() < max_records_) grow_free_list();
  pkt::FlowIndex i;
  if (free_head_ >= 0) {
    i = free_head_;
    free_head_ = links_[i].hash_next;
  } else {
    // Record cap reached: recycle the oldest entry (§5.2 item 4).
    i = lru_tail_;
    assert(i >= 0);
    remove(i, RemoveReason::recycled);
    ++stats_.recycled;
    --stats_.removed;  // recycling is not an explicit removal
    i = free_head_;
    free_head_ = links_[i].hash_next;
  }

  FlowRecord& r = recs_[i];
  r = FlowRecord{};
  r.key = key;
  r.last_used = now;
  r.first_seen = now;
  r.in_use = true;
  Link& l = links_[i];
  l.hash = hash;
  std::int32_t& head = buckets_[bucket_of(hash)];
  l.hash_next = head;
  head = i;
  lru_push_front(i);
  ++active_;
  ++stats_.inserts;
  return i;
}

void FlowTable::remove(pkt::FlowIndex i, RemoveReason why) {
  FlowRecord& r = recs_[i];
  if (!r.in_use) return;
  // Give each plugin a chance to free its per-flow soft state.
  for (auto& g : r.gates) {
    if (g.instance && g.soft) g.instance->flow_removed(g.soft);
    g = {};
  }
  // Accounting export point: the record still holds key/packets/bytes.
  if (remove_hook_) remove_hook_(r, why);
  unchain(i);
  lru_unlink(i);
  r.in_use = false;
  links_[i].hash_next = free_head_;
  free_head_ = i;
  --active_;
  ++stats_.removed;
}

std::size_t FlowTable::purge_instance(const plugin::PluginInstance* inst) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    if (!recs_[i].in_use) continue;
    for (const auto& g : recs_[i].gates) {
      if (g.instance == inst) {
        remove(static_cast<pkt::FlowIndex>(i), RemoveReason::purged);
        ++n;
        break;
      }
    }
  }
  return n;
}

std::size_t FlowTable::purge_filter(const FilterRecord* filter) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    if (!recs_[i].in_use) continue;
    for (const auto& g : recs_[i].gates) {
      if (g.filter == filter) {
        remove(static_cast<pkt::FlowIndex>(i), RemoveReason::purged);
        ++n;
        break;
      }
    }
  }
  return n;
}

std::size_t FlowTable::expire_idle(netbase::SimTime cutoff) {
  std::size_t n = 0;
  // Walk from the LRU tail; stop at the first fresh entry.
  while (lru_tail_ >= 0 && recs_[lru_tail_].last_used < cutoff) {
    remove(lru_tail_, RemoveReason::expired);
    ++n;
  }
  return n;
}

void FlowTable::clear() {
  for (std::size_t i = 0; i < recs_.size(); ++i)
    if (recs_[i].in_use)
      remove(static_cast<pkt::FlowIndex>(i), RemoveReason::cleared);
}

}  // namespace rp::aiu
