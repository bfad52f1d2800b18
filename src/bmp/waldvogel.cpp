#include "bmp/waldvogel.hpp"

#include <algorithm>
#include <bit>

#include "bmp/patricia.hpp"
#include "netbase/memaccess.hpp"

namespace rp::bmp {

std::size_t WaldvogelBsl::slot_hash(U128 key) noexcept {
  // Fold both halves, then murmur3's fmix64 finalizer: every key bit
  // reaches every low bit the power-of-two mask keeps.
  std::uint64_t h = key.hi ^ (key.lo * 0x9e3779b97f4a7c15ULL);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<std::size_t>(h);
}

// Load stays below 3/4, so every probe run ends at an empty slot.
std::size_t WaldvogelBsl::Level::probe(U128 key) const noexcept {
  const std::size_t m = slots.size() - 1;
  std::size_t i = slot_hash(key) & m;
  while (slots[i].flags && slots[i].key != key) i = (i + 1) & m;
  return i;
}

const WaldvogelBsl::Slot* WaldvogelBsl::Level::find(U128 key) const noexcept {
  const Slot& s = slots[probe(key)];
  return s.flags ? &s : nullptr;
}

WaldvogelBsl::Slot& WaldvogelBsl::Level::find_or_add(U128 key) noexcept {
  Slot& s = slots[probe(key)];
  if (!s.flags) {
    s.key = key;
    s.flags = kUsed;
  }
  return s;
}

Status WaldvogelBsl::insert(U128 key, std::uint8_t plen, LpmValue value) {
  if (plen > width_) return Status::invalid_argument;
  key = key & U128::prefix_mask(plen);
  raw_[{key, plen}] = value;
  dirty_ = true;
  return Status::ok;
}

Status WaldvogelBsl::remove(U128 key, std::uint8_t plen) {
  key = key & U128::prefix_mask(plen);
  if (raw_.erase({key, plen}) == 0) return Status::not_found;
  dirty_ = true;
  return Status::ok;
}

void WaldvogelBsl::rebuild() const {
  levels_.clear();
  has_default_ = false;

  // Distinct lengths (0 handled separately as the default).
  bool present[129] = {};
  for (const auto& [kp, v] : raw_) {
    if (kp.second == 0) {
      has_default_ = true;
      default_value_ = v;
    } else {
      present[kp.second] = true;
    }
  }
  int level_of[129];
  for (unsigned len = 1; len <= width_; ++len) {
    if (!present[len]) continue;
    level_of[len] = static_cast<int>(levels_.size());
    Level& l = levels_.emplace_back();
    l.mask = U128::prefix_mask(static_cast<std::uint8_t>(len));
    l.len = static_cast<std::uint8_t>(len);
  }

  // Calls visit(level, key, value) for each real prefix at its own level
  // (value non-null) and for each marker on its binary-search path (value
  // null): wherever the search must branch toward longer lengths.
  auto for_each_entry = [&](auto&& visit) {
    for (const auto& [kp, v] : raw_) {
      const auto& [key, plen] = kp;
      if (plen == 0) continue;
      const int target = level_of[plen];
      int lo = 0, hi = static_cast<int>(levels_.size()) - 1;
      while (lo <= hi) {
        const int mid = (lo + hi) / 2;
        if (mid == target) {
          visit(mid, key, &v);
          break;
        }
        if (mid < target) {
          visit(mid, key & levels_[mid].mask, nullptr);
          lo = mid + 1;
        } else {
          hi = mid - 1;
        }
      }
    }
  };

  // Counting pass: raw_ iterates in key order and prefix masking preserves
  // that order, so each level sees its keys sorted and counts the distinct
  // ones by comparing with the last. Presizing from the exact count keeps
  // the load below 3/4 with no rehash during the fill.
  std::vector<std::size_t> count(levels_.size(), 0);
  std::vector<U128> last(levels_.size());
  for_each_entry([&](int lvl, U128 key, const LpmValue*) {
    if (count[lvl] == 0 || last[lvl] != key) {
      ++count[lvl];
      last[lvl] = key;
    }
  });
  for (std::size_t lvl = 0; lvl < levels_.size(); ++lvl)
    levels_[lvl].slots.assign(
        std::bit_ceil(count[lvl] + count[lvl] / 3 + 1), Slot{});

  // Fill pass: a marker landing on a real prefix keeps the prefix entry.
  for_each_entry([&](int lvl, U128 key, const LpmValue* v) {
    Slot& s = levels_[lvl].find_or_add(key);
    if (v) {
      s.flags |= kPrefix;
      s.bmp_value = *v;
      s.bmp_plen = levels_[lvl].len;
    }
  });

  // Precompute each entry's best matching prefix, processing levels in
  // ascending length order with an auxiliary trie of all shorter-or-equal
  // real prefixes. A real prefix is its own best match.
  PatriciaTrie aux(width_);
  if (has_default_) aux.insert({}, 0, default_value_);
  for (Level& l : levels_) {
    for (const Slot& s : l.slots)
      if (s.flags & kPrefix) aux.insert(s.key, l.len, s.bmp_value);
    for (Slot& s : l.slots) {
      if (!s.flags) continue;
      if (s.flags & kPrefix) {
        s.flags |= kHasBmp;
        continue;
      }
      LpmMatch m;
      if (aux.lookup(s.key, m)) {
        s.flags |= kHasBmp;
        s.bmp_value = m.value;
        s.bmp_plen = m.plen;
      }
    }
  }
  // The aux trie's bookkeeping accesses are build-time only: they must not
  // pollute the data-path access counts.
  dirty_ = false;
}

bool WaldvogelBsl::lookup(U128 key, LpmMatch& out) const {
  if (dirty_) {
    auto saved = netbase::MemAccess::total();
    rebuild();
    // rebuild() used PatriciaTrie lookups which count accesses; restore.
    netbase::MemAccess::reset();
    netbase::MemAccess::count(saved);
  }

  bool found = false;
  if (has_default_) {
    out = {default_value_, 0};
    found = true;
  }
  int lo = 0, hi = static_cast<int>(levels_.size()) - 1;
  while (lo <= hi) {
    const int mid = (lo + hi) / 2;
    const Level& l = levels_[mid];
    netbase::MemAccess::count();  // one hash-table probe
    if (const Slot* s = l.find(key & l.mask)) {
      if (s->flags & kHasBmp) {
        out = {s->bmp_value, s->bmp_plen};
        found = true;
      }
      lo = mid + 1;  // try longer prefixes
    } else {
      hi = mid - 1;  // only shorter can match
    }
  }
  return found;
}

unsigned WaldvogelBsl::max_probes() const {
  if (dirty_) rebuild();
  unsigned n = static_cast<unsigned>(levels_.size());
  unsigned probes = 0;
  while (n) {
    ++probes;
    n >>= 1;
  }
  return probes;
}

std::size_t WaldvogelBsl::max_probe_run() const {
  if (dirty_) rebuild();
  std::size_t worst = 0;
  for (const Level& l : levels_) {
    const std::size_t n = l.slots.size();
    // Two laps, so a run that wraps past the end is measured whole.
    std::size_t run = 0;
    for (std::size_t i = 0; i < 2 * n; ++i) {
      run = l.slots[i & (n - 1)].flags ? run + 1 : 0;
      worst = std::max(worst, run);
    }
  }
  return levels_.empty() ? 0 : worst + 1;
}

}  // namespace rp::bmp
