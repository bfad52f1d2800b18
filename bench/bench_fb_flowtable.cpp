// Figure B (§7.1/§8): flow-table (cached path) lookup performance.
//
// The paper: a cached IPv6 flow entry is found in 1.3 us on a P6/233, the
// flow hash costs 17 Pentium cycles, and the default table has 32768
// buckets. We measure the cached lookup across concurrent-flow counts
// (load factors) and report ns/lookup plus counted memory accesses (bucket
// probe + chain links), using google-benchmark.
#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "aiu/flow_table.hpp"
#include "bench_json.hpp"
#include "netbase/memaccess.hpp"
#include "tgen/workload.hpp"

using namespace rp;

namespace {

void BM_FlowTableHit(benchmark::State& state) {
  const std::size_t flows = static_cast<std::size_t>(state.range(0));
  aiu::FlowTable table(32768, 1024, 1 << 21);
  netbase::Rng rng(flows);
  std::vector<pkt::FlowKey> keys;
  keys.reserve(flows);
  for (std::size_t i = 0; i < flows; ++i) {
    keys.push_back(tgen::random_key(rng));
    table.insert(keys.back(), 0);
  }
  std::size_t i = 0;
  netbase::MemAccess::reset();
  std::uint64_t lookups = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(keys[i], 1));
    if (++i == keys.size()) i = 0;
    ++lookups;
  }
  state.counters["mem_accesses_per_lookup"] =
      static_cast<double>(netbase::MemAccess::total()) /
      static_cast<double>(lookups);
  state.counters["load_factor"] =
      static_cast<double>(flows) / static_cast<double>(table.bucket_count());
}
BENCHMARK(BM_FlowTableHit)->RangeMultiplier(8)->Range(64, 1 << 18);

void BM_FlowTableMiss(benchmark::State& state) {
  aiu::FlowTable table(32768, 1024, 1 << 20);
  netbase::Rng rng(1);
  for (int i = 0; i < 10000; ++i) table.insert(tgen::random_key(rng), 0);
  netbase::Rng probe(2);
  for (auto _ : state) {
    auto k = tgen::random_key(probe);
    benchmark::DoNotOptimize(table.lookup(k, 1));
  }
}
BENCHMARK(BM_FlowTableMiss);

void BM_FlowTableHitPrecomputedHash(benchmark::State& state) {
  // The burst path's two-stage lookup: hash computed once up front (and
  // used for prefetch), probe with the precomputed value.
  const std::size_t flows = static_cast<std::size_t>(state.range(0));
  aiu::FlowTable table(32768, 1024, 1 << 21);
  netbase::Rng rng(flows);
  std::vector<pkt::FlowKey> keys;
  std::vector<std::uint64_t> hashes;
  keys.reserve(flows);
  for (std::size_t i = 0; i < flows; ++i) {
    keys.push_back(tgen::random_key(rng));
    hashes.push_back(keys.back().hash());
    table.insert(keys.back(), hashes.back(), 0);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    table.prefetch(hashes[i]);
    benchmark::DoNotOptimize(table.lookup(keys[i], hashes[i], 1));
    if (++i == keys.size()) i = 0;
  }
}
BENCHMARK(BM_FlowTableHitPrecomputedHash)->RangeMultiplier(8)->Range(64, 1 << 18);

void BM_FlowHashOnly(benchmark::State& state) {
  // The paper's 17-cycle flow hash, in isolation.
  netbase::Rng rng(3);
  std::vector<pkt::FlowKey> keys;
  for (int i = 0; i < 1024; ++i) keys.push_back(tgen::random_key(rng));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(keys[i].hash());
    if (++i == keys.size()) i = 0;
  }
}
BENCHMARK(BM_FlowHashOnly);

void BM_FlowTableInsertRecycle(benchmark::State& state) {
  // Steady-state insert behaviour at the record cap (LRU recycling).
  aiu::FlowTable table(32768, 1024, 4096);
  netbase::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.insert(tgen::random_key(rng), 1));
  }
  state.counters["recycled"] =
      static_cast<double>(table.stats().recycled);
}
BENCHMARK(BM_FlowTableInsertRecycle);

// Cached-hit cost of a table built the way the AIU builds one (32768
// initial buckets, 1024 initial records) at `flows` concurrent flows:
// ns/lookup and counted accesses/lookup over `lookups` round-robin hits.
struct HitCost {
  double ns;
  double accesses;
};
HitCost measure_hits(std::size_t flows, std::size_t lookups) {
  aiu::FlowTable table(32768, 1024, 1 << 21);
  netbase::Rng rng(flows);
  std::vector<pkt::FlowKey> keys;
  keys.reserve(flows);
  for (std::size_t i = 0; i < flows; ++i) {
    keys.push_back(tgen::random_key(rng));
    table.insert(keys.back(), 0);
  }
  netbase::MemAccess::reset();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < lookups; ++i)
    benchmark::DoNotOptimize(table.lookup(keys[i % flows], 1));
  const auto t1 = std::chrono::steady_clock::now();
  const double n = static_cast<double>(lookups);
  return {std::chrono::duration<double, std::nano>(t1 - t0).count() / n,
          static_cast<double>(netbase::MemAccess::total()) / n};
}

// Headline numbers for the machine-readable line: cached-hit cost with and
// without a precomputed hash at 64 Ki concurrent flows, and at Figure B's
// largest point (256 Ki flows), where a fixed 32768-bucket array would run
// at load 8.
void emit_json() {
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kFlows = 1 << 16;
  const std::size_t kBigFlows = rp::bench::scaled<std::size_t>(1 << 18, 1 << 12);
  const std::size_t kLookups = rp::bench::scaled<std::size_t>(1 << 20, 1 << 12);
  aiu::FlowTable table(1 << 17, kFlows, 1 << 21);
  netbase::Rng rng(kFlows);
  std::vector<pkt::FlowKey> keys;
  std::vector<std::uint64_t> hashes;
  for (std::size_t i = 0; i < kFlows; ++i) {
    keys.push_back(tgen::random_key(rng));
    hashes.push_back(keys.back().hash());
    table.insert(keys.back(), hashes.back(), 0);
  }
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < kLookups; ++i)
    benchmark::DoNotOptimize(table.lookup(keys[i % kFlows], 1));
  auto t1 = Clock::now();
  for (std::size_t i = 0; i < kLookups; ++i) {
    table.prefetch(hashes[(i + 8) % kFlows]);  // burst-style lookahead
    benchmark::DoNotOptimize(
        table.lookup(keys[i % kFlows], hashes[i % kFlows], 1));
  }
  auto t2 = Clock::now();
  const double n = static_cast<double>(kLookups);
  const HitCost big = measure_hits(kBigFlows, kLookups);
  rp::bench::BenchJson("fb_flowtable")
      .num("flows", static_cast<double>(kFlows))
      .num("hit_ns",
           std::chrono::duration<double, std::nano>(t1 - t0).count() / n)
      .num("hit_prehash_prefetch_ns",
           std::chrono::duration<double, std::nano>(t2 - t1).count() / n)
      .num("hit_ns_256k", big.ns)
      .num("accesses_256k", big.accesses)
      .emit();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // See bench_ff: the adaptive sweep is skipped in RP_BENCH_SMOKE mode.
  if (!rp::bench::smoke_mode()) benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_json();
  return 0;
}
