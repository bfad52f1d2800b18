// sharded_multiq: ShardedDatapath in multi-queue mode, 2 workers, RETA
// migration on. Every shard carries cached_fwd's stack; flow popularity is
// Zipf(1.1) so one RSS queue runs hot. The load thread (this one) submits
// bursts of 32 packets and keeps 32 bursts in flight (a closed loop);
// latency runs from the start of a packet's submit burst to the worker's
// tx handler.
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "ipopt/ipopt_plugins.hpp"
#include "parallel/sharded_datapath.hpp"
#include "pkt/packet_pool.hpp"
#include "stats/stats_plugin.hpp"
#include "stack.hpp"
#include "tgen/workload.hpp"
#include "workloads.hpp"

namespace rb {

using namespace rp;
using plugin::PluginType;

namespace {

constexpr std::uint32_t kWorkers = 2;
constexpr int kBurst = 32;          // packets per submit burst
constexpr std::size_t kWindow = 32;  // bursts in flight (closed loop)
constexpr double kGapNs = 25;       // mean virtual gap between packets

struct ShardState {
  Checker checker;
  double routes_s{0}, filters_s{0};  // set-up time of this shard's stack
  Tracing tr;
  FaultSpec fault{.at = 1000};
  std::vector<double> lat_us;
};

struct Shared {
  const RouteSet* routes{nullptr};
  std::vector<std::unique_ptr<ShardState>> shard;
  bool traced{false};
  bool inject_fault{false};
  // Submit timestamps of the current slice, indexed by id - slice_base.
  std::vector<Ns> submit_ns;
  std::uint32_t slice_base{0};
  std::uint32_t lat_from{0};  // ids below this (warm-up) take no latency
};

void setup_shard(parallel::ShardContext& ctx, Shared& sh) {
  ShardState& st = *sh.shard[ctx.id()];
  ctx.interfaces().add("in0", 10'000'000'000ULL);
  for (int i = 1; i <= 4; ++i)
    ctx.interfaces().add("out" + std::to_string(i), 10'000'000'000ULL);
  for (auto& nic : ctx.interfaces()) {
    const pkt::IfIndex idx = nic->index();
    nic->set_tx_sink([&st, idx](pkt::PacketPtr p, netbase::SimTime t) {
      st.checker.on_tx(*p, idx, t);
    });
  }
  {
    Stopwatch sw{st.routes_s};
    for (std::size_t i = 0; i < sh.routes->prefixes.size(); ++i)
      ctx.routes().add(sh.routes->prefixes[i], sh.routes->hops[i]);
    ctx.routes().prepare();
  }
  Tracing* tr = sh.traced ? &st.tr : nullptr;
  FaultSpec* fault = sh.inject_fault && ctx.id() == 0 ? &st.fault : nullptr;
  auto& pcu = ctx.pcu();
  add_plugin(pcu, std::make_unique<ipopt::OptCheckPlugin>(), tr);
  add_plugin(pcu, std::make_unique<NullPlugin>("ipsec-null", PluginType::ipsec), tr);
  add_plugin(pcu, std::make_unique<stats::StatsPlugin>(), tr, fault);
  const std::pair<PluginType, plugin::PluginInstance*> gates[] = {
      {PluginType::ipopt, new_instance(pcu, "optcheck")},
      {PluginType::ipsec, new_instance(pcu, "ipsec-null")},
      {PluginType::stats, new_instance(pcu, "stats", {{"mode", "packets"}})}};
  Stopwatch sw{st.filters_s};
  for (const auto& [gate, inst] : gates)
    for (const aiu::Filter& f : table3_filters(16))
      ctx.aiu().create_filter(gate, f, inst);
}

// The CPUs this process may run on, lowest first.
std::vector<int> allowed_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  return cpus;
}

void pin(pid_t tid, int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(tid, sizeof one, &one);
}

// Pins the load thread (the caller) and each worker to a CPU of its own.
// Left to the kernel, two of the three busy threads can share one CPU for
// seconds at a time, which halves the measured rate at random. No-op when
// fewer CPUs than threads are allowed.
void pin_threads(parallel::ShardedDatapath& dp, const std::vector<int>& cpus) {
  if (cpus.size() < kWorkers + 1) return;
  std::vector<pid_t> tids(kWorkers);
  dp.gather([&tids](parallel::ShardContext& ctx) {
    tids[ctx.id()] = static_cast<pid_t>(syscall(SYS_gettid));
  });
  pin(0, cpus[0]);
  for (std::uint32_t i = 0; i < kWorkers; ++i) pin(tids[i], cpus[i + 1]);
}

struct Run {
  std::vector<double> slice_mpps;
  std::vector<double> slice_p50, slice_p99;  // latency quantiles per slice
  std::size_t lat_samples{0};
  double submit_ns{0};
  double wall_ns{0};
  std::uint64_t pkts{0};
  std::uint64_t allocs{0};
  double gen_ns{0};
  double loss_ratio{0};
};

}  // namespace

RunResult run_sharded_multiq(const Args& a) {
  RunResult r;
  const std::size_t n_flows = a.smoke ? 4096 : 64 * 1024;
  const std::size_t n_routes = a.smoke ? 5000 : 100000;
  const std::size_t slice = a.smoke ? 2048 : 8192;
  const std::size_t virt = a.smoke ? 2 : 48;

  // Oracle and flows (shared by every stack built below).
  const RouteSet rs = make_routes(n_routes, 1, 4, kConfigSeed);
  Oracle oracle({PluginType::ipopt, PluginType::ipsec, PluginType::stats});
  for (std::size_t i = 0; i < rs.prefixes.size(); ++i)
    oracle.routes().add(rs.prefixes[i], rs.hops[i]);
  for (auto g : {PluginType::ipopt, PluginType::ipsec, PluginType::stats})
    for (const aiu::Filter& f : table3_filters(16))
      oracle.aiu().create_filter(g, f, oracle.tag(plugin::Verdict::cont));
  // Flow keys are configuration too (they fix which RSS queue runs hot);
  // --seed picks the Zipf draws and the arrival times.
  netbase::Rng frng(kConfigSeed ^ 0xf10f);
  const std::vector<pkt::FlowKey> keys = udp_flows(n_flows, rs, frng);
  std::vector<std::uint16_t> fate(n_flows);
  std::vector<Fate> why(n_flows);
  for (std::size_t i = 0; i < n_flows; ++i) fate[i] = oracle.expect(keys[i], why[i]);

  const std::vector<int> cpus = allowed_cpus();

  pkt::PacketPool::Options po;
  po.chunks = 2 * slice;
  po.buf_bytes = 256;

  // One stack: build (timed), warm every flow, run one measured window.
  auto run_stack = [&](bool traced, double seconds, std::size_t min_slices,
                       double* setup_s, Run& out, std::vector<double>* soj,
                       Report* layer)
      -> bool {
    Shared sh;
    sh.routes = &rs;
    sh.traced = traced;
    sh.inject_fault = a.inject_fault;
    for (std::uint32_t i = 0; i < kWorkers; ++i)
      sh.shard.push_back(std::make_unique<ShardState>());
    pkt::PacketPool pool(po);
    pkt::PacketPool::Use use(pool);
    netbase::Rng rng(a.seed * 0x9e3779b97f4a7c15ULL + 17);
    tgen::ZipfSampler zipf(n_flows, 1.1, a.seed ^ 0x21f);
    std::vector<std::uint32_t> seq(n_flows, 0);
    std::uint32_t next_id = 0;
    netbase::SimTime vt = 0;
    std::uint64_t injected = 0, e_fwd = 0, e_no_route = 0;

    parallel::ShardedDatapath::Options o;
    o.workers = kWorkers;
    o.ring_capacity = 1024;
    o.io.mode = parallel::ShardedDatapath::IoOptions::Mode::multiq;
    o.io.migrate_threshold = 0.5;
    o.measure_busy = traced;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof allowed, &allowed);
    const Ns t_setup = now_ns();
    auto dp_owner = std::make_unique<parallel::ShardedDatapath>(
        o, [&sh](parallel::ShardContext& ctx) { setup_shard(ctx, sh); });
    parallel::ShardedDatapath& dp = *dp_owner;
    pin_threads(dp, cpus);
    // Workers are joined on every exit path; the stacks themselves are left
    // to process exit (see abandon()).
    struct Retire {
      std::unique_ptr<parallel::ShardedDatapath>& dp;
      cpu_set_t allowed;
      ~Retire() {
        dp->stop();
        abandon(std::move(dp));
        sched_setaffinity(0, sizeof allowed, &allowed);
      }
    } retire{dp_owner, allowed};
    dp.set_tx_handler([&sh](parallel::ShardContext& ctx, pkt::IfIndex iface,
                            pkt::PacketPtr p) {
      ShardState& st = *sh.shard[ctx.id()];
      Tag t;
      if (decode_tag(*p, t) && t.id >= sh.lat_from && (t.id & 3) == 0)
        st.lat_us.push_back(
            static_cast<double>(now_ns() - sh.submit_ns[t.id - sh.slice_base]) *
            1e-3);
      // Egress link model per shard: zero processing time, so the packet
      // meets the link at its own arrival time.
      const netbase::SimTime at = p->arrival;
      ctx.interfaces().by_index(iface)->transmit(std::move(p), at);
    });

    // Generates `n` packets in submit bursts of 32 (8 trains of 4 Zipf
    // flows); arrivals are a Poisson packet process in virtual time.
    auto gen = [&](std::vector<pkt::PacketPtr>& pk, std::vector<std::size_t>& inst,
                   std::size_t n, bool every_flow) {
      pk.clear();
      inst.clear();
      std::size_t f_next = 0;
      while (pk.size() < n) {
        for (int t = 0; t < kBurst / 4; ++t) {
          const std::size_t f = every_flow ? f_next++ % n_flows : zipf.next();
          for (int j = 0; j < (every_flow ? 1 : 4); ++j) {
            pkt::PacketPtr p = build_tagged(
                keys[f], Tag{next_id++, static_cast<std::uint32_t>(f), seq[f]++, fate[f]},
                kTagBytes);
            vt += std::max<netbase::SimTime>(
                1, static_cast<netbase::SimTime>(
                       -std::log(1.0 - rng.uniform01()) * kGapNs));
            p->arrival = vt;
            p->in_iface = 0;
            ++injected;
            if (why[f] == Fate::forward) ++e_fwd;
            if (why[f] == Fate::no_route) ++e_no_route;
            pk.push_back(std::move(p));
          }
        }
        inst.push_back(pk.size());
      }
    };
    std::vector<pkt::PacketPtr> pk;
    std::vector<std::size_t> inst;
    // Closed loop with kWindow bursts outstanding: burst k is submitted only
    // once every packet of burst k - kWindow has been processed.
    auto processed = [&] {
      std::uint64_t n = 0;
      for (std::uint32_t i = 0; i < kWorkers; ++i) n += dp.worker(i).processed();
      return n;
    };
    std::uint64_t submitted = processed();
    auto submit_all = [&](double* submit_ns) {
      sh.slice_base = pk.empty() ? next_id : next_id - static_cast<std::uint32_t>(pk.size());
      sh.submit_ns.assign(pk.size(), 0);
      std::vector<std::uint64_t> ends;
      std::size_t b = 0;
      for (std::size_t e : inst) {
        if (ends.size() >= kWindow) {
          const std::uint64_t need = ends[ends.size() - kWindow];
          // Wait as ShardedDatapath::quiesce does: ring, then yield.
          while (processed() < need) {
            for (std::uint32_t i = 0; i < kWorkers; ++i) dp.worker(i).doorbell();
            std::this_thread::yield();
          }
        }
        const Ns t0 = now_ns();
        for (std::size_t i = b; i < e; ++i) {
          sh.submit_ns[i] = t0;
          dp.submit(std::move(pk[i]));
        }
        if (submit_ns) *submit_ns += static_cast<double>(now_ns() - t0);
        submitted += e - b;
        ends.push_back(submitted);
        b = e;
      }
      dp.quiesce();
    };
    // Warm-up: one packet per flow, then one Zipf slice.
    const Ns t_warm = now_ns();
    gen(pk, inst, n_flows, true);
    submit_all(nullptr);
    const double warm_s = static_cast<double>(now_ns() - t_warm) * 1e-9;
    if (setup_s) *setup_s = static_cast<double>(now_ns() - t_setup) * 1e-9;
    gen(pk, inst, slice, false);
    submit_all(nullptr);
    sh.lat_from = next_id;
    for (auto& s : sh.shard) {
      s->checker.virt_begin = next_id;
      s->checker.virt_end = next_id + static_cast<std::uint32_t>(virt * slice);
      s->lat_us.clear();
    }

    auto delivered = [&] {
      std::uint64_t n = 0;
      for (auto& s : sh.shard) n += s->checker.delivered;
      return n;
    };
    auto drops = [&] {
      const core::CoreCounters c = dp.aggregate_counters();
      return c.total_drops() + dp.aggregate_nic_counters().rx_drops;
    };
    std::uint64_t busy0 = 0;
    for (std::uint32_t i = 0; i < kWorkers; ++i) busy0 += dp.worker(i).busy_ns();
    std::uint64_t proc0[kWorkers];
    for (std::uint32_t i = 0; i < kWorkers; ++i) proc0[i] = dp.worker(i).processed();
    const core::CoreCounters c0 = dp.aggregate_counters();
    const pkt::PoolStats p0 = pool.stats();
    std::vector<aiu::FlowTable::Stats> fs0(kWorkers);
    std::vector<std::uint64_t> exports0(kWorkers);
    dp.gather([&](parallel::ShardContext& ctx) {
      fs0[ctx.id()] = ctx.aiu().flow_table().stats();
      exports0[ctx.id()] = ctx.telemetry().flows_exported();
    });
    io::QueueStats q0[kWorkers];
    for (std::uint32_t q = 0; q < kWorkers; ++q) q0[q] = dp.queue_stats(q);
    const std::uint64_t mig0 = dp.migrations();
    std::vector<pkt::PacketPtr> sample;
    const std::uint64_t v_drop0 = drops(), v_inj0 = injected;
    const Ns start = now_ns();
    for (std::size_t n = 0;; ++n) {
      if (n >= min_slices && static_cast<double>(now_ns() - start) * 1e-9 >= seconds)
        break;
      const Ns g0 = now_ns();
      gen(pk, inst, slice, false);
      out.gen_ns += static_cast<double>(now_ns() - g0);
      for (std::size_t i = 0; traced && sample.size() < 4096 && i < pk.size(); ++i)
        sample.push_back(pkt::clone_packet(*pk[i]));
      const std::uint64_t d0 = delivered();
      if (traced) g_count_allocs.store(true, std::memory_order_relaxed);
      const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
      const Ns t0 = now_ns();
      submit_all(traced ? &out.submit_ns : nullptr);
      const Ns dt = now_ns() - t0;
      if (traced) {
        out.allocs += g_allocs.load(std::memory_order_relaxed) - a0;
        g_count_allocs.store(false, std::memory_order_relaxed);
      }
      out.wall_ns += static_cast<double>(dt);
      out.pkts += pk.size();
      out.slice_mpps.push_back(
          ratio(static_cast<double>(delivered() - d0) * 1e3, static_cast<double>(dt)));
      std::vector<double> lat;
      for (auto& sp : sh.shard) {
        lat.insert(lat.end(), sp->lat_us.begin(), sp->lat_us.end());
        sp->lat_us.clear();
      }
      out.lat_samples += lat.size();
      out.slice_p50.push_back(quantile(lat, 0.5));
      out.slice_p99.push_back(quantile(std::move(lat), 0.99));
      if (n + 1 == virt)
        out.loss_ratio = ratio(static_cast<double>(drops() - v_drop0),
                               static_cast<double>(injected - v_inj0));
    }
    dp.quiesce();

    // Accounting against the oracle.
    const core::CoreCounters c = dp.aggregate_counters();
    const std::uint64_t rx_drops = dp.aggregate_nic_counters().rx_drops;
    auto gap = [](std::uint64_t x, std::uint64_t y) { return x > y ? x - y : y - x; };
    std::uint64_t wrong = 0, ok = 0, wrong_port = 0;
    std::string whys;
    for (auto& s : sh.shard) {
      wrong += s->checker.wrong();
      ok += s->checker.delivered_ok;
      wrong_port += s->checker.wrong_port;
      if (s->checker.wrong())
        whys += " shard_mismatch=" + std::to_string(s->checker.wrong());
    }
    auto note = [&](const char* what, std::uint64_t g) {
      if (g) whys += std::string(" ") + what + "=" + std::to_string(g);
      wrong += g;
    };
    note("accounting_gap", gap(injected, c.forwarded + c.total_drops() + rx_drops));
    note("delivered_vs_forwarded", gap(delivered(), c.forwarded));
    note("no_route_gap", gap(c.dropped(core::DropReason::no_route), e_no_route));
    note("other_drops", c.total_drops() - c.dropped(core::DropReason::no_route));
    note("loss_gap", gap(e_fwd - std::min(e_fwd, ok + wrong_port), rx_drops));
    r.attempted += injected;
    r.failed += std::min(wrong, injected);
    if (wrong) {
      r.failure += whys;
      r.metrics.add("wrong_frac", ratio(static_cast<double>(r.failed),
                                        static_cast<double>(r.attempted)), "ratio");
      return false;
    }

    if (traced) {
      // Per-layer reads, all at quiescence.
      const pkt::PoolStats p1 = pool.stats();
      const double pkts = static_cast<double>(out.pkts);
      std::uint64_t busy = 0, maxp = 0, sump = 0;
      for (std::uint32_t i = 0; i < kWorkers; ++i) {
        busy += dp.worker(i).busy_ns();
        const std::uint64_t pr = dp.worker(i).processed() - proc0[i];
        maxp = std::max(maxp, pr);
        sump += pr;
      }
      Span gate[aiu::kNumGates];
      double gate_calls = 0, gate_pkts = 0, gate_ns = 0;
      for (auto& sp : sh.shard)
        for (std::size_t g = 0; g < aiu::kNumGates; ++g) {
          gate[g].ns += sp->tr.gate[g].ns;
          gate[g].pkts += sp->tr.gate[g].pkts;
          gate_ns += static_cast<double>(sp->tr.gate[g].ns);
          gate_pkts += static_cast<double>(sp->tr.gate[g].pkts);
          gate_calls += static_cast<double>(sp->tr.gate[g].calls);
        }
      std::vector<aiu::FlowTable::Stats> fs(kWorkers);
      std::vector<std::uint64_t> exports(kWorkers);
      dp.gather([&](parallel::ShardContext& ctx) {
        fs[ctx.id()] = ctx.aiu().flow_table().stats();
        exports[ctx.id()] = ctx.telemetry().flows_exported();
      });
      double hits = 0, misses = 0, recycled = 0, exp_n = 0;
      for (std::uint32_t i = 0; i < kWorkers; ++i) {
        hits += static_cast<double>(fs[i].hits - fs0[i].hits);
        misses += static_cast<double>(fs[i].misses - fs0[i].misses);
        recycled += static_cast<double>(fs[i].recycled - fs0[i].recycled);
        exp_n += static_cast<double>(exports[i] - exports0[i]);
      }
      std::uint64_t enq = 0, maxq = 0, waits = 0;
      for (std::uint32_t q = 0; q < kWorkers; ++q) {
        const io::QueueStats qs = dp.queue_stats(q);
        enq += qs.rx_enqueued - q0[q].rx_enqueued;
        maxq = std::max(maxq, qs.rx_enqueued - q0[q].rx_enqueued);
        waits += qs.rx_waits - q0[q].rx_waits;
      }
      std::vector<GateFilter> filters;
      for (auto g : {PluginType::ipopt, PluginType::ipsec, PluginType::stats})
        for (const aiu::Filter& f : table3_filters(16)) filters.push_back({g, f});
      const ProbeResult probe = run_probes(sample, filters, aiu::Aiu::Options{},
                                           dp.worker(0).ctx().routes());
      auto d = [](std::uint64_t x, std::uint64_t y) {
        return static_cast<double>(x - y);
      };
      const double self = ratio(static_cast<double>(busy - busy0) - gate_ns, pkts);
      Report& m = *layer;
      m.add("core.self_ns_per_pkt", self, "ns");
      m.add("core.pkts_per_burst",
            ratio(d(c.burst_packets, c0.burst_packets), d(c.bursts, c0.bursts)), "pkts");
      m.add("core.fused_share",
            ratio(d(c.fused_bursts, c0.fused_bursts), d(c.bursts, c0.bursts)), "ratio");
      m.add("core.group_pkts_mean",
            ratio(d(c.gate_group_pkts, c0.gate_group_pkts),
                  d(c.gate_groups, c0.gate_groups)), "pkts");
      m.add("pkt.pool_hit_rate",
            ratio(d(p1.pool_hits, p0.pool_hits), d(p1.allocs, p0.allocs)), "ratio");
      m.add("pkt.heap_fallbacks_per_pkt",
            ratio(d(p1.heap_fallbacks, p0.heap_fallbacks), pkts), "count");
      m.add("pkt.allocs_per_pkt", ratio(static_cast<double>(out.allocs), pkts), "count");
      m.add("pkt.sanitize_ns_per_pkt", probe.sanitize_ns, "ns");
      m.add("aiu.flow_hit_rate", ratio(hits, hits + misses), "ratio");
      m.add("aiu.resolve_ns_per_pkt", probe.resolve_ns, "ns");
      m.add("aiu.classify_ns", probe.classify_ns, "ns");
      m.add("aiu.recycled_per_pkt", ratio(recycled, pkts), "count");
      for (auto [name, g] : {std::pair{"ipopt", PluginType::ipopt},
                             std::pair{"ipsec", PluginType::ipsec},
                             std::pair{"stats", PluginType::stats}})
        m.add(std::string("plugin.") + name + ".ns_per_pkt",
              gate[aiu::gate_index(g)].ns_per_pkt(), "ns");
      m.add("plugin.pkts_per_call", ratio(gate_pkts, gate_calls), "pkts");
      m.add("route.lookup_ns", probe.route_ns, "ns");
      m.add("io.rx_waits_per_pkt", ratio(static_cast<double>(waits), pkts), "count");
      m.add("io.max_queue_share",
            ratio(static_cast<double>(maxq), static_cast<double>(enq)), "ratio");
      m.add("io.migrations", static_cast<double>(dp.migrations() - mig0), "count");
      m.add("parallel.submit_ns_per_pkt", ratio(out.submit_ns, pkts), "ns");
      m.add("parallel.worker_busy_share",
            ratio(static_cast<double>(busy - busy0),
                  out.wall_ns * static_cast<double>(kWorkers)), "ratio");
      m.add("parallel.worker_imbalance",
            ratio(static_cast<double>(maxp),
                  static_cast<double>(sump) / static_cast<double>(kWorkers)), "ratio");
      m.add("telemetry.flow_exports_per_pkt", ratio(exp_n, pkts), "count");
      m.add("tgen.build_ns_per_pkt", ratio(out.gen_ns, pkts), "ns");
      double routes_s = 0, filters_s = 0;
      for (auto& sp : sh.shard) {
        routes_s += sp->routes_s;
        filters_s += sp->filters_s;
      }
      m.add("setup.routes_s", routes_s, "s");
      m.add("setup.filters_s", filters_s, "s");
      m.add("setup.warm_s", warm_s, "s");
      m.add("ledger.unattributed_ns_per_pkt",
            self - probe.sanitize_ns - probe.resolve_ns - probe.route_ns, "ns");
    }
    if (soj)
      for (auto& sp : sh.shard)
        for (double v : sp->checker.sojourn_ns) soj->push_back(v);
    return true;
  };

  if (!a.trace) {
    std::vector<double> setups;
    Run run;
    std::vector<double> soj;
    for (int i = 0; i < 3; ++i) {
      // Three builds for the set-up median; the last one is measured.
      double s = 0;
      Run scratch;
      const bool last = i == 2;
      if (!run_stack(false, last ? a.seconds * 0.8 : 0, last ? virt + 4 : 0, &s,
                     last ? run : scratch, last ? &soj : nullptr, nullptr))
        return r;
      setups.push_back(s);
    }
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    r.correct = true;
    r.metrics.add("setup_s", median(setups), "s");
    r.metrics.add("fwd_mpps", best_decile_rate(run.slice_mpps), "Mpps");
    r.metrics.add("lat_us_p50", median(run.slice_p50), "us");
    r.metrics.add("lat_us_p99", best_decile_time(run.slice_p99), "us");
    r.metrics.add("sojourn_us_p50", binned_quantile(soj, 0.5) * 1e-3, "us");
    r.metrics.add("sojourn_us_p99", binned_quantile(soj, 0.99) * 1e-3, "us");
    r.metrics.add("loss_ratio", run.loss_ratio, "ratio");
    r.metrics.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
    std::fprintf(stderr,
                 "routerbench sharded_multiq: %zu slices, %zu latency samples "
                 "(1 in 4 packets), %zu sojourn samples\n",
                 run.slice_mpps.size(), run.lat_samples, soj.size());
    return r;
  }

  // Traced run: untraced reference window, then the decorated stacks.
  Run plain, traced;
  if (!run_stack(false, a.seconds * 0.3, 4, nullptr, plain, nullptr, nullptr))
    return r;
  Report layer;
  double setup_traced = 0;
  if (!run_stack(true, a.seconds * 0.45, 4, &setup_traced, traced, nullptr, &layer))
    return r;
  r.correct = true;
  r.metrics = layer;
  r.metrics.add("wrong_frac", 0, "ratio");
  r.metrics.add("trace.overhead_rel",
                ratio(best_decile_rate(plain.slice_mpps),
                      best_decile_rate(traced.slice_mpps)), "ratio");
  return r;
}

}  // namespace rb
