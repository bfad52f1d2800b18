// Shared pieces of the routerbench binary: wall clock, percentiles, the
// metric report, the per-packet tag the correctness checker reads back at
// the egress, and the allocation counter behind `pkt.allocs_per_pkt`.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "pkt/headers.hpp"
#include "pkt/packet.hpp"

namespace rp::aiu {}
namespace rp::core {}
namespace rp::plugin {}
namespace rp::route {}

namespace rb {

namespace aiu = rp::aiu;
namespace core = rp::core;
namespace netbase = rp::netbase;
namespace pkt = rp::pkt;
namespace plugin = rp::plugin;
namespace route = rp::route;

using Ns = std::int64_t;

inline Ns now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Adds the wall time of its scope to `acc` (seconds).
struct Stopwatch {
  double& acc;
  Ns t0{now_ns()};
  ~Stopwatch() { acc += static_cast<double>(now_ns() - t0) * 1e-9; }
};

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  bool smoke{false};         // tiny sizes: the self-test's setting
  bool inject_fault{false};  // flip one gate verdict (checker self-test)
};

// Global allocation counter (operator new replacement in main.cpp). Counting
// is switched on only around the traced window.
extern std::atomic<bool> g_count_allocs;
extern std::atomic<std::uint64_t> g_allocs;

// -- statistics ---------------------------------------------------------

// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// Quantile of integer-valued samples (virtual times in whole ns), each taken
// as spread uniformly over [v - 0.5, v + 0.5): the grouped-data estimate.
// Plain order statistics of such data sit on the integer grid, so many
// distinct inputs would give the same reading; this one moves continuously.
inline double binned_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double target = q * static_cast<double>(v.size());
  const auto lo = std::lower_bound(v.begin(), v.end(),
                                   v[std::min(v.size() - 1,
                                              static_cast<std::size_t>(target))]);
  const auto hi = std::upper_bound(lo, v.end(), *lo);
  const double below = static_cast<double>(lo - v.begin());
  const double in_bin = static_cast<double>(hi - lo);
  return *lo - 0.5 + (target - below) / in_bin;
}

// Quantile of values carrying integer weights (a step's latency counts once
// per packet the step handed to the router).
inline double weighted_quantile(std::vector<std::pair<double, std::uint64_t>> v,
                                double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::uint64_t total = 0;
  for (const auto& e : v) total += e.second;
  const double target = q * static_cast<double>(total);
  std::uint64_t acc = 0;
  for (const auto& e : v) {
    acc += e.second;
    if (static_cast<double>(acc) >= target) return e.first;
  }
  return v.back().first;
}

// Wall-clock figures are taken per slice of a run. Throughput and the p99
// tail are summarized by the run's least disturbed decile: on a shared
// machine, interference from other tenants only ever slows a slice down,
// and those two figures feel it most. The p50 is the median over slices.
inline double best_decile_rate(const std::vector<double>& per_slice) {
  return quantile(per_slice, 0.9);
}
inline double best_decile_time(const std::vector<double>& per_slice) {
  return quantile(per_slice, 0.1);
}

inline double ratio(double num, double den) { return den != 0 ? num / den : 0; }

// -- metric report ---------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    for (auto& m : m_)
      if (m.name == name) {
        m.value = value;
        m.unit = std::move(unit);
        return;
      }
    m_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& metrics() const { return m_; }

 private:
  std::vector<Metric> m_;
};

// Result of one workload run, turned into the final JSON line by main.
struct RunResult {
  bool correct{false};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::string failure;  // human-readable reason when !correct
  Report metrics;
};

// -- per-packet tag ----------------------------------------------------------
//
// Every generated UDP/TCP packet of the flow workloads carries a 16-byte tag
// right after its transport header: packet id, flow id, per-flow sequence
// number, and the fate the reference oracle predicts (output interface, or
// kExpectDrop). The router never reads transport payloads of these flows,
// so the tag comes back unchanged at the egress where the checker reads it.

constexpr std::size_t kTagBytes = 16;
constexpr std::uint16_t kExpectDrop = 0xffff;

struct Tag {
  std::uint32_t id{0};
  std::uint32_t flow{0};
  std::uint32_t seq{0};
  std::uint16_t expect{kExpectDrop};
};

inline std::uint16_t tag_check(const Tag& t) noexcept {
  std::uint64_t h = t.id * 0x9e3779b97f4a7c15ULL;
  h ^= (std::uint64_t{t.flow} << 32 | t.seq) * 0xc2b2ae3d27d4eb4fULL;
  h ^= t.expect;
  h ^= h >> 29;
  return static_cast<std::uint16_t>(h ^ (h >> 16) ^ (h >> 40) ^ 0xb17e);
}

inline void encode_tag(const Tag& t, std::uint8_t* out) noexcept {
  const std::uint16_t chk = tag_check(t);
  std::memcpy(out, &t.id, 4);
  std::memcpy(out + 4, &t.flow, 4);
  std::memcpy(out + 8, &t.seq, 4);
  std::memcpy(out + 12, &t.expect, 2);
  std::memcpy(out + 14, &chk, 2);
}

// Offset of the transport payload of an IPv4 TCP/UDP packet, or 0.
inline std::size_t l4_payload_offset(const pkt::Packet& p) noexcept {
  const std::uint8_t* d = p.data();
  if (p.size() < 20 || (d[0] >> 4) != 4) return 0;
  const std::size_t ihl = static_cast<std::size_t>(d[0] & 0xf) * 4;
  if (ihl < 20 || p.size() < ihl + 8) return 0;
  if (d[9] == 17) return ihl + 8;
  if (d[9] == 6) {
    if (p.size() < ihl + 20) return 0;
    return ihl + static_cast<std::size_t>(d[ihl + 12] >> 4) * 4;
  }
  return 0;
}

inline bool decode_tag(const pkt::Packet& p, Tag& t) noexcept {
  const std::size_t off = l4_payload_offset(p);
  if (off == 0 || p.size() < off + kTagBytes) return false;
  const std::uint8_t* d = p.data() + off;
  std::uint16_t chk = 0;
  std::memcpy(&t.id, d, 4);
  std::memcpy(&t.flow, d + 4, 4);
  std::memcpy(&t.seq, d + 8, 4);
  std::memcpy(&t.expect, d + 12, 2);
  std::memcpy(&chk, d + 14, 2);
  return chk == tag_check(t);
}

}  // namespace rb
