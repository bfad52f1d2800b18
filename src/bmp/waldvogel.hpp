// Binary search on prefix lengths (Waldvogel, Varghese, Turner, Plattner —
// SIGCOMM '97): the paper's fast BMP plugin, a clean-room reimplementation
// from the published algorithm.
//
// One hash table per distinct prefix length; lookup binary-searches over the
// lengths. Markers are inserted on each prefix's binary-search path so the
// search knows when to probe longer lengths, and every marker precomputes
// its best-matching prefix so backtracking is never needed: at most
// ceil(log2(#lengths)) hash probes per lookup — 5 for IPv4, 7 for IPv6,
// exactly the Table 2 accounting (2 * log2(W) / 2 accesses per address).
//
// Each per-length table is a flat open-addressing array of 24-byte slots
// (linear probing, power-of-two size, load at most 3/4), sized exactly by a
// counting pass before it is filled, so one logical probe reads one or two
// adjacent cache lines rather than chasing hash-node pointers. Slot indices
// come from a full-avalanche mix of the masked key: prefix-masked IPv4 keys
// differ only in their top bits, which a multiplicative hash alone would
// leave out of the low bits a power-of-two mask selects.
//
// Mutations update a raw prefix set and mark the search structure dirty; it
// is rebuilt lazily on the next lookup (classifier/routing updates are
// control-path operations in the paper's architecture).
#pragma once

#include <vector>

#include "bmp/lpm.hpp"

namespace rp::bmp {

class WaldvogelBsl final : public LpmEngine {
 public:
  explicit WaldvogelBsl(unsigned width) : width_(width) {}

  Status insert(U128 key, std::uint8_t plen, LpmValue value) override;
  Status remove(U128 key, std::uint8_t plen) override;
  bool lookup(U128 key, LpmMatch& out) const override;

  std::string_view name() const override { return "bsl"; }
  unsigned width() const override { return width_; }
  std::size_t size() const override { return raw_.size(); }

  // Run the deferred rebuild eagerly (control path) instead of on the
  // first post-update lookup (packet path).
  void prepare() override {
    if (dirty_) rebuild();
  }

  // Worst-case hash probes for the current table (diagnostics/benches).
  unsigned max_probes() const;
  // Worst-case slots one hash probe reads: the longest run of occupied
  // slots in any per-length table, plus the empty slot that ends a miss.
  // A well-mixed table at load <= 3/4 keeps this small; a clustering hash
  // makes it grow with the table.
  std::size_t max_probe_run() const;

 private:
  struct Slot {
    U128 key{};
    LpmValue bmp_value{0};  // best matching prefix of `key` (kHasBmp)
    std::uint8_t bmp_plen{0};
    std::uint8_t flags{0};  // 0 = empty slot
  };
  static_assert(sizeof(Slot) == 24);
  static constexpr std::uint8_t kUsed = 1, kHasBmp = 2, kPrefix = 4;

  // One per distinct prefix length.
  struct Level {
    U128 mask{};  // prefix mask for `len`
    std::uint8_t len{0};
    std::vector<Slot> slots;  // power-of-two size

    // Index of the slot holding `key`, or of the empty slot ending its run.
    std::size_t probe(U128 key) const noexcept;
    const Slot* find(U128 key) const noexcept;
    // The slot holding `key`, claiming the empty one if absent.
    Slot& find_or_add(U128 key) noexcept;
  };

  static std::size_t slot_hash(U128 key) noexcept;

  void rebuild() const;

  unsigned width_;
  PrefixMap raw_;

  mutable bool dirty_{true};
  mutable std::vector<Level> levels_;  // ascending length, no 0
  mutable bool has_default_{false};
  mutable LpmValue default_value_{0};
};

}  // namespace rp::bmp
