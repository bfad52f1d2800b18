// routerbench — one benchmark for the whole router.
//
//   routerbench --workload <cached_fwd|flow_setup|qos_churn|sharded_multiq>
//               --seed <n> --seconds <s> --trace <0|1>
//               [--smoke] [--inject-fault]
//
// Prints one JSON object as the last line of stdout:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of the
// traced run (--trace 1). A run whose correctness checks fail prints the
// reason to stderr, no result line, and exits 1.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace rb {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace rb

// Allocation counter behind pkt.allocs_per_pkt: every operator new in the
// process, counted only while the traced window has counting switched on.
void* operator new(std::size_t n) {
  if (rb::g_count_allocs.load(std::memory_order_relaxed))
    rb::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  if (rb::g_count_allocs.load(std::memory_order_relaxed))
    rb::g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

struct Name {
  const char* name;
  const char* unit;
};

// Every run reports exactly these metrics, in this order. A per-layer
// metric of a module the workload does not run reads 0.
constexpr Name kEndToEnd[] = {
    {"setup_s", "s"},          {"fwd_mpps", "Mpps"},
    {"lat_us_p50", "us"},      {"lat_us_p99", "us"},
    {"sojourn_us_p50", "us"},  {"sojourn_us_p99", "us"},
    {"loss_ratio", "ratio"},   {"peak_rss_mb", "MB"},
};
constexpr Name kPerLayer[] = {
    {"core.self_ns_per_pkt", "ns"},
    {"core.pkts_per_burst", "pkts"},
    {"core.fused_share", "ratio"},
    {"core.group_pkts_mean", "pkts"},
    {"core.events_per_pkt", "count"},
    {"pkt.pool_hit_rate", "ratio"},
    {"pkt.heap_fallbacks_per_pkt", "count"},
    {"pkt.allocs_per_pkt", "count"},
    {"pkt.sanitize_ns_per_pkt", "ns"},
    {"pkt.malformed_drops", "count"},
    {"aiu.flow_hit_rate", "ratio"},
    {"aiu.resolve_ns_per_pkt", "ns"},
    {"aiu.classify_ns", "ns"},
    {"aiu.recycled_per_pkt", "count"},
    {"aiu.filter_lookups_per_miss", "count"},
    {"aiu.flows_invalidated_per_batch", "count"},
    {"plugin.ipopt.ns_per_pkt", "ns"},
    {"plugin.ipsec.ns_per_pkt", "ns"},
    {"plugin.firewall.ns_per_pkt", "ns"},
    {"plugin.l7.ns_per_pkt", "ns"},
    {"plugin.stats.ns_per_pkt", "ns"},
    {"plugin.pkts_per_call", "pkts"},
    {"route.lookup_ns", "ns"},
    {"sched.drr.enqueue_ns_per_pkt", "ns"},
    {"sched.drr.dequeue_ns_per_pkt", "ns"},
    {"sched.eiffel.enqueue_ns_per_pkt", "ns"},
    {"sched.eiffel.dequeue_ns_per_pkt", "ns"},
    {"sched.backlog_pkts_p99", "pkts"},
    {"sched.queue_full_drops", "count"},
    {"ctrl.route_batch_us", "us"},
    {"ctrl.filter_batch_us", "us"},
    {"ctrl.upgrade_us", "us"},
    {"ctrl_batch_us_p50", "us"},
    {"ctrl_batch_us_p99", "us"},
    {"ctrl_ops_per_s", "1/s"},
    {"l7.offload_share", "ratio"},
    {"l7.buffered_bytes_max", "bytes"},
    {"io.rx_waits_per_pkt", "count"},
    {"io.max_queue_share", "ratio"},
    {"io.migrations", "count"},
    {"parallel.submit_ns_per_pkt", "ns"},
    {"parallel.worker_busy_share", "ratio"},
    {"parallel.worker_imbalance", "ratio"},
    {"telemetry.flow_exports_per_pkt", "count"},
    {"tgen.build_ns_per_pkt", "ns"},
    {"trace.overhead_rel", "ratio"},
    {"setup.routes_s", "s"},
    {"setup.filters_s", "s"},
    {"setup.warm_s", "s"},
    {"ledger.unattributed_ns_per_pkt", "ns"},
    {"wrong_frac", "ratio"},
};

void usage() {
  std::fprintf(stderr,
               "usage: routerbench --workload <cached_fwd|flow_setup|qos_churn|"
               "sharded_multiq> --seed <n> --seconds <s> --trace <0|1> "
               "[--smoke] [--inject-fault]\n");
  std::exit(2);
}

bool parse(int argc, char** argv, rb::Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(val().c_str(), nullptr);
    else if (k == "--trace") a.trace = val() != "0";
    else if (k == "--smoke") a.smoke = true;
    else if (k == "--inject-fault") a.inject_fault = true;
    else return false;
  }
  return a.workload == "cached_fwd" || a.workload == "flow_setup" ||
         a.workload == "qos_churn" || a.workload == "sharded_multiq";
}

}  // namespace

int main(int argc, char** argv) {
  rb::Args a;
  if (!parse(argc, argv, a) || !(a.seconds > 0)) usage();
  const rb::RunResult r = a.workload == "sharded_multiq"
                              ? rb::run_sharded_multiq(a)
                              : rb::run_kernel_workload(a);
  if (!r.correct) {
    double wf = 0;
    for (const auto& m : r.metrics.metrics())
      if (m.name == "wrong_frac") wf = m.value;
    std::fprintf(stderr,
                 "routerbench %s: CHECK FAILED wrong_frac=%.9g attempted=%llu "
                 "failed=%llu:%s\n",
                 a.workload.c_str(), wf,
                 static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.failed), r.failure.c_str());
    return 1;
  }
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const Name& n) {
    double v = 0;
    for (const auto& m : r.metrics.metrics())
      if (m.name == n.name) v = m.value;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    out += std::string(first ? "\"" : ", \"") + n.name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + n.unit + "\"}";
    first = false;
  };
  if (a.trace)
    for (const auto& n : kPerLayer) emit(n);
  else
    for (const auto& n : kEndToEnd) emit(n);
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
