// The three RouterKernel workloads: cached_fwd, flow_setup and qos_churn.
//
// Load model. Packets take zero virtual time inside the router, so the
// virtual (SimClock) schedule is an open loop: arrival instants at
// exponential gaps sized to the workload's offered rate, each instant
// carrying a burst of packets. The wall-clock side is a closed loop: the load
// thread hands the router the packets of one instant (inject + run_until)
// and only starts the next step when that call has returned. Packets and
// control batches are generated in untimed slices between timed ones.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>

#include "core/router.hpp"
#include "ctrl/control_plane.hpp"
#include "ipopt/ipopt_plugins.hpp"
#include "l7/l7_plugins.hpp"
#include "mgmt/firewall_plugin.hpp"
#include "netbase/byteorder.hpp"
#include "pkt/builder.hpp"
#include "pkt/packet_pool.hpp"
#include "pkt/sanitize.hpp"
#include "sched/drr.hpp"
#include "sched/eiffel.hpp"
#include "stack.hpp"
#include "stats/stats_plugin.hpp"
#include "tgen/adversarial.hpp"
#include "tgen/churn.hpp"
#include "tgen/tcp_stream.hpp"
#include "tgen/workload.hpp"
#include "workloads.hpp"

namespace rb {

using namespace rp;
using plugin::PluginType;

namespace {

constexpr pkt::IfIndex kIn = 0;

netbase::SimTime exp_gap(netbase::Rng& rng, double mean_ns) {
  const double u = rng.uniform01();
  const auto g = static_cast<netbase::SimTime>(-std::log(1.0 - u) * mean_ns);
  return g > 0 ? g : 1;
}

// One timed step: an arrival instant (packets [begin, end) of the slice all
// arrive at t) or, with ctrl >= 0, a control-plane action.
struct Step {
  netbase::SimTime t{0};
  std::uint32_t begin{0}, end{0};
  int ctrl{-1};
};
struct Injection {
  pkt::IfIndex iface;
  pkt::PacketPtr p;
};
struct Slice {
  std::vector<Step> steps;
  std::vector<Injection> pkts;
  void clear() {
    steps.clear();
    pkts.clear();
  }
};

enum class CtrlKind { route, filter, upgrade };
struct CtrlAction {
  CtrlKind kind;
  std::size_t ops;
  std::function<void()> apply;
};

// Common state of a RouterKernel workload: the stack, its oracle and
// checker, and the expectation counters the final accounting compares.
class Env {
 public:
  Env(const Args& a, Tracing* tr, FaultSpec* fault)
      : args(a), tr(tr), fault(fault), rng(a.seed * 0x9e3779b97f4a7c15ULL + 17) {}
  virtual ~Env() = default;

  // Appends the next slice of traffic (advances the oracle with it).
  virtual void fill(Slice& s, std::size_t n_pkts) = 0;
  // Workload-specific end-of-run checks; returns extra wrong outcomes.
  virtual std::uint64_t extra_checks(std::string& why) {
    (void)why;
    return 0;
  }
  // Traced-run extras sampled after each step.
  virtual void sample_step() {}

  const Args& args;
  Tracing* tr;
  FaultSpec* fault;
  netbase::Rng rng;
  std::unique_ptr<core::RouterKernel> k;
  std::unique_ptr<Oracle> oracle;
  Checker checker;
  std::vector<CtrlAction> ctrl;
  std::vector<GateFilter> filters;  // router filters, for the probes
  aiu::Aiu::Options aiu_opt;
  // Set-up time of the router itself (the oracle's copy is not counted).
  double routes_s{0}, filters_s{0}, warm_s{0};
  double setup_s() const { return routes_s + filters_s + warm_s; }

  std::uint32_t next_id{0};
  netbase::SimTime vt{0};
  std::uint64_t injected{0}, e_fwd{0}, e_policy{0}, e_no_route{0},
      e_sanitize{0};
  std::vector<pkt::PacketPtr> probe_sample;

  // Tags and queues one packet of `k` for the slice, expecting `expect`.
  void add(Slice& s, pkt::IfIndex iface, const pkt::FlowKey& key,
           std::uint32_t flow, std::uint32_t seq, std::uint16_t expect,
           Fate why, std::size_t payload = kTagBytes) {
    Tag t{next_id++, flow, seq, expect};
    pkt::PacketPtr p = build_tagged(key, t, payload);
    count(why);
    if (probe_sample.size() < 4096) probe_sample.push_back(pkt::clone_packet(*p));
    s.pkts.push_back({iface, std::move(p)});
  }
  void count(Fate why) {
    ++injected;
    if (why == Fate::forward) ++e_fwd;
    if (why == Fate::policy) ++e_policy;
    if (why == Fate::no_route) ++e_no_route;
  }
  void attach_sinks() {
    for (auto& nic : k->interfaces()) {
      const pkt::IfIndex idx = nic->index();
      nic->set_tx_sink([this, idx](pkt::PacketPtr p, netbase::SimTime t) {
        checker.defer(std::move(p), idx, t);
      });
    }
  }
};

// Installs the Table 3 filter set (16 filters) at `gate`, bound to `inst`.
void install_table3(Env& e, PluginType gate, plugin::PluginInstance* inst) {
  for (const aiu::Filter& f : table3_filters(16)) {
    {
      Stopwatch sw{e.filters_s};
      e.k->aiu().create_filter(gate, f, inst);
    }
    e.oracle->aiu().create_filter(gate, f, e.oracle->tag(plugin::Verdict::cont));
    e.filters.push_back({gate, f});
  }
}

void install_routes(Env& e, const RouteSet& rs) {
  {
    Stopwatch sw{e.routes_s};
    for (std::size_t i = 0; i < rs.prefixes.size(); ++i)
      e.k->routes().add(rs.prefixes[i], rs.hops[i]);
    e.k->routes().prepare();
  }
  for (std::size_t i = 0; i < rs.prefixes.size(); ++i)
    e.oracle->routes().add(rs.prefixes[i], rs.hops[i]);
  e.oracle->routes().prepare();
}

// ---------------------------------------------------------------------------
// cached_fwd — the per-packet fast path with every flow cached.

class CachedFwd final : public Env {
 public:
  using Env::Env;

  void build() {
    const std::size_t n_flows = args.smoke ? 4096 : 256 * 1024;
    const std::size_t n_routes = args.smoke ? 5000 : 100000;
    core::RouterKernel::Options o;
    o.core.input_gates = {PluginType::ipopt, PluginType::ipsec,
                          PluginType::stats};
    aiu_opt = o.aiu;
    k = std::make_unique<core::RouterKernel>(o);
    oracle = std::make_unique<Oracle>(o.core.input_gates);
    k->add_interface("in0", 10'000'000'000ULL);
    for (int i = 1; i <= 4; ++i)
      k->add_interface("out" + std::to_string(i), 10'000'000'000ULL);
    attach_sinks();

    const RouteSet rs = make_routes(n_routes, 1, 4, kConfigSeed);
    install_routes(*this, rs);

    auto& pcu = k->pcu();
    add_plugin(pcu, std::make_unique<ipopt::OptCheckPlugin>(), tr);
    add_plugin(pcu, std::make_unique<NullPlugin>("ipsec-null", PluginType::ipsec), tr);
    add_plugin(pcu, std::make_unique<stats::StatsPlugin>(), tr, fault);
    install_table3(*this, PluginType::ipopt, new_instance(pcu, "optcheck"));
    install_table3(*this, PluginType::ipsec, new_instance(pcu, "ipsec-null"));
    install_table3(*this, PluginType::stats,
                   new_instance(pcu, "stats", {{"mode", "packets"}}));

    netbase::Rng frng(args.seed ^ 0xf10f);
    keys_ = udp_flows(n_flows, rs, frng);
    fate_.resize(n_flows);
    why_.resize(n_flows);
    seq_.assign(n_flows, 0);
    for (std::size_t i = 0; i < n_flows; ++i)
      fate_[i] = oracle->expect(keys_[i], why_[i]);

    // Warm-up: one packet per flow, so every timed packet hits the cache.
    Slice s;
    for (std::size_t i = 0; i < n_flows; i += kInstant) {
      vt += exp_gap(rng, kGapNs);
      const auto b = static_cast<std::uint32_t>(s.pkts.size());
      for (std::size_t j = i; j < std::min(n_flows, i + kInstant); ++j)
        add(s, kIn, keys_[j], static_cast<std::uint32_t>(j), seq_[j]++,
            fate_[j], why_[j]);
      s.steps.push_back({vt, b, static_cast<std::uint32_t>(s.pkts.size()), -1});
    }
    probe_sample.clear();
    for (const auto& st : s.steps) {
      {
        Stopwatch sw{warm_s};
        for (std::uint32_t i = st.begin; i < st.end; ++i)
          k->inject(st.t, s.pkts[i].iface, std::move(s.pkts[i].p));
        k->run_until(st.t);
      }
      checker.drain();
    }
  }

  // Instants of 32 packets (8 trains of 4 from uniformly chosen flows) at
  // exponential gaps: ~72% load on each 10 Gbit/s output link.
  void fill(Slice& s, std::size_t n_pkts) override {
    while (s.pkts.size() < n_pkts) {
      vt += exp_gap(rng, kGapNs);
      const auto b = static_cast<std::uint32_t>(s.pkts.size());
      for (int tr_i = 0; tr_i < kInstant / 4; ++tr_i) {
        const std::size_t f = rng.below(keys_.size());
        for (int j = 0; j < 4; ++j)
          add(s, kIn, keys_[f], static_cast<std::uint32_t>(f), seq_[f]++,
              fate_[f], why_[f]);
      }
      s.steps.push_back({vt, b, static_cast<std::uint32_t>(s.pkts.size()), -1});
    }
  }

 private:
  static constexpr int kInstant = 32;
  static constexpr double kGapNs = 400;
  std::vector<pkt::FlowKey> keys_;
  std::vector<std::uint16_t> fate_;
  std::vector<Fate> why_;
  std::vector<std::uint32_t> seq_;
};

// ---------------------------------------------------------------------------
// flow_setup — nearly every packet misses the flow cache.

class FlowSetup final : public Env {
 public:
  using Env::Env;

  void build() {
    const std::size_t n_filters = args.smoke ? 400 : 8000;
    const std::size_t n_keys = args.smoke ? 2048 : 16384;
    const std::size_t n_routes = args.smoke ? 5000 : 100000;
    core::RouterKernel::Options o;
    o.aiu.max_flows = args.smoke ? 256 : 1024;
    o.aiu.initial_flows = o.aiu.max_flows;
    aiu_opt = o.aiu;
    k = std::make_unique<core::RouterKernel>(o);
    oracle = std::make_unique<Oracle>(
        std::vector<PluginType>{PluginType::firewall, PluginType::stats});
    k->add_interface("in0", 10'000'000'000ULL);
    for (int i = 1; i <= 4; ++i)
      k->add_interface("out" + std::to_string(i), 10'000'000'000ULL);
    attach_sinks();

    RouteSet rs = make_routes(n_routes, 1, 4, kConfigSeed);
    // Two half-space defaults: every destination is routable.
    rs.prefixes.push_back(*netbase::IpPrefix::parse("0.0.0.0/1"));
    rs.hops.push_back({1, {}});
    rs.prefixes.push_back(*netbase::IpPrefix::parse("128.0.0.0/1"));
    rs.hops.push_back({2, {}});
    install_routes(*this, rs);

    auto& pcu = k->pcu();
    add_plugin(pcu, std::make_unique<mgmt::FirewallPlugin>(), tr);
    add_plugin(pcu, std::make_unique<stats::StatsPlugin>(), tr, fault);
    auto* permit = new_instance(pcu, "firewall", {{"policy", "permit"}});
    auto* deny = new_instance(pcu, "firewall", {{"policy", "deny"}});
    tgen::FilterSetSpec fs;
    fs.count = n_filters;
    fs.seed = kConfigSeed * 31 + 7;
    netbase::Rng drng(kConfigSeed ^ 0xde11);
    for (const auto& f : tgen::random_filters(fs)) {
      // Deny only filters with both addresses specified (half of them): a
      // broad deny would drop a seed-dependent share of all traffic.
      const bool d = f.src.len > 0 && f.dst.len > 0 && drng.chance(0.5);
      {
        Stopwatch sw{filters_s};
        k->aiu().create_filter(PluginType::firewall, f, d ? deny : permit);
      }
      oracle->aiu().create_filter(
          PluginType::firewall, f,
          oracle->tag(d ? plugin::Verdict::drop : plugin::Verdict::cont));
      // Re-adding a filter rebinds it: keep the last binding only.
      std::erase_if(live_, [&](const PolicyFilter& p) { return p.filter == f; });
      live_.push_back({f, d});
      filters.push_back({PluginType::firewall, f});
    }
    const aiu::Filter all = *aiu::Filter::parse("* * * * * *");
    {
      Stopwatch sw{filters_s};
      k->aiu().create_filter(PluginType::stats, all,
                             new_instance(pcu, "stats", {{"mode", "packets"}}));
    }
    oracle->aiu().create_filter(PluginType::stats, all,
                                oracle->tag(plugin::Verdict::cont));
    filters.push_back({PluginType::stats, all});

    // Key pool, far larger than the capped flow table: half drawn to match
    // a random filter, half uniformly random. Keys whose best-matching
    // filters tie with opposite policies are skipped (no defined verdict).
    const auto fl = tgen::random_filters(fs);
    netbase::Rng krng(args.seed ^ 0x6e75);
    while (keys_.size() < n_keys) {
      pkt::FlowKey key = krng.chance(0.5)
                             ? tgen::matching_key(fl[krng.below(fl.size())], krng)
                             : tgen::random_key(krng);
      if (key.src.ver != netbase::IpVersion::v4 ||
          key.dst.ver != netbase::IpVersion::v4)
        continue;
      if (key.proto != 6 && key.proto != 17) key.proto = 17;
      key.in_iface = kIn;
      key.flow_label = 0;
      if (ambiguous(live_, key)) continue;
      Fate why;
      const std::uint16_t exp = oracle->expect(key, why);
      keys_.push_back(key);
      fate_.push_back(exp);
      why_.push_back(why);
    }
  }

  // Instants of 32 packets: flows of one packet (3 in 4) or two.
  void fill(Slice& s, std::size_t n_pkts) override {
    while (s.pkts.size() < n_pkts) {
      vt += exp_gap(rng, 600);
      const auto b = static_cast<std::uint32_t>(s.pkts.size());
      while (s.pkts.size() - b < 32) {
        const std::size_t i = rng.below(keys_.size());
        const std::uint32_t flow = next_flow_++;
        const int n = rng.chance(0.25) ? 2 : 1;
        for (int j = 0; j < n; ++j)
          add(s, kIn, keys_[i], flow, static_cast<std::uint32_t>(j), fate_[i],
              why_[i]);
      }
      s.steps.push_back({vt, b, static_cast<std::uint32_t>(s.pkts.size()), -1});
    }
  }

 private:
  std::vector<PolicyFilter> live_;
  std::vector<pkt::FlowKey> keys_;
  std::vector<std::uint16_t> fate_;
  std::vector<Fate> why_;
  std::uint32_t next_flow_{0};
};

// ---------------------------------------------------------------------------
// qos_churn — schedulers under overload while the control plane mutates the
// route and filter tables the packets are classified against.

class QosChurn final : public Env {
 public:
  using Env::Env;

  void build() {
    const std::size_t n_flows = args.smoke ? 1024 : 16384;
    const std::size_t n_routes = args.smoke ? 1000 : 10000;
    const std::size_t n_filters = args.smoke ? 64 : 512;
    const std::size_t n_conns = args.smoke ? 4 : 32;
    core::RouterKernel::Options o;
    o.route_engine = "cpe";
    aiu_opt = o.aiu;
    k = std::make_unique<core::RouterKernel>(o);
    oracle = std::make_unique<Oracle>(
        std::vector<PluginType>{PluginType::firewall});
    cp_ = std::make_unique<ctrl::ControlPlane>(*k);
    k->add_interface("in0", 10'000'000'000ULL);
    k->add_interface("drr1", kPortBps);
    k->add_interface("eiffel2", kPortBps);
    k->add_interface("tcp-client3", 10'000'000'000ULL);
    k->add_interface("tcp-server4", 10'000'000'000ULL);
    attach_sinks();

    // Routes: the churn generator's base table, next hops folded onto the
    // two scheduled ports, plus the TCP slice's benchmark-range prefixes.
    tgen::RouteChurnSpec rcs;
    rcs.base_prefixes = n_routes;
    rcs.ops = 32 * 2000;
    rcs.batch_size = 32;
    rcs.p_withdraw = 0.1;
    rcs.seed = args.seed * 13 + 1;
    rchurn_ = tgen::route_churn(rcs);
    for (auto& h : rchurn_.base_hops) h.out_iface = fold(h.out_iface);
    for (auto& b : rchurn_.batches)
      for (auto& op : b) op.hop.out_iface = fold(op.hop.out_iface);
    RouteSet rs{rchurn_.base, rchurn_.base_hops};
    rs.prefixes.push_back(*netbase::IpPrefix::parse("198.18.0.0/16"));
    rs.hops.push_back({2, {}});
    rs.prefixes.push_back(*netbase::IpPrefix::parse("198.19.0.0/16"));
    rs.hops.push_back({1, {}});
    install_routes(*this, rs);

    auto& pcu = k->pcu();
    add_plugin(pcu, std::make_unique<mgmt::FirewallPlugin>(), tr, fault);
    add_plugin(pcu, std::make_unique<stats::StatsPlugin>(), tr);
    add_plugin(pcu, std::make_unique<sched::DrrPlugin>(), tr);
    add_plugin(pcu, std::make_unique<sched::EiffelPlugin>(), tr);
    // l7 is never wrapped: the verdict-cache offload matches the bound
    // instance pointer, which a decorator would change. Its time comes
    // from the router's own per-gate telemetry histogram instead.
    pcu.register_plugin(std::make_unique<l7::IdsPlugin>());
    new_instance(pcu, "firewall", {{"policy", "permit"}}, &permit_id_);
    new_instance(pcu, "firewall", {{"policy", "deny"}}, &deny_id_);
    auto* permit = pcu.find("firewall")->instance(permit_id_);
    auto* deny = pcu.find("firewall")->instance(deny_id_);

    tgen::FilterChurnSpec fcs;
    fcs.base.count = n_filters;
    fcs.base.seed = kConfigSeed * 17 + 3;
    fcs.ops = 16 * 1000;
    fcs.batch_size = 16;
    fcs.seed = args.seed * 19 + 5;
    fchurn_ = tgen::filter_churn(fcs);
    netbase::Rng drng(kConfigSeed ^ 0xde11);
    for (const auto& f : fchurn_.base) {
      const bool d = deny_draw(f, drng);
      bind_policy(f, d, d ? deny : permit);
    }
    // Statistics, upgraded to a second instance mid-run.
    new_instance(pcu, "stats", {{"mode", "bytes"}}, &stats_a_);
    new_instance(pcu, "stats", {{"mode", "bytes"}}, &stats_b_);
    const aiu::Filter all = *aiu::Filter::parse("* * * * * *");
    {
      Stopwatch sw{filters_s};
      k->aiu().create_filter(PluginType::stats, all,
                             pcu.find("stats")->instance(stats_a_));
    }
    filters.push_back({PluginType::stats, all});

    // Output ports: weighted DRR and Eiffel vtime, 4 packets per flow.
    // A 500 B quantum keeps DRR rounds short (about 1.4 packets per flow),
    // so the virtual window spans many rounds.
    auto* drr = new_instance(pcu, "drr", {{"quantum", "500"}, {"limit", "4"}});
    auto* eif = new_instance(pcu, "eiffel", {{"rank", "vtime"}, {"limit", "4"}});
    // Per-flow weights: flows from 10.0.0.0/11 (1 in 8) get weight 2. Every
    // weight-1 flow is offered more than its share, so the bulk of the
    // traffic sits in full queues and sojourn reads the steady state.
    for (auto* s : {drr, eif}) {
      plugin::PluginMsg m;
      m.custom_name = "setweight";
      m.args.set("filter", "10.0.0.0/11 * * * * *");
      m.args.set("weight", "2");
      plugin::PluginReply r;
      s->handle_message(m, r);
    }
    k->core().set_port_scheduler(1, static_cast<core::OutputScheduler*>(drr));
    k->core().set_port_scheduler(2, static_cast<core::OutputScheduler*>(eif));

    // TCP slice for the l7 gate: one exact permit per direction (the most
    // specific filter possible, so churn never overrides it), IDS on TCP.
    std::vector<std::string> pats;
    for (std::size_t c = 0; c < n_conns; ++c)
      pats.push_back("EVIL-SIG-" + std::to_string(100 + c) + "-X");
    std::string spec;
    for (const auto& p : pats) spec += (spec.empty() ? "" : ",") + p;
    new_instance(pcu, "l7ids", {{"patterns", spec}}, &ids_id_);
    const aiu::Filter tcp_all = *aiu::Filter::parse("* * tcp * * *");
    {
      Stopwatch sw{filters_s};
      k->aiu().create_filter(PluginType::l7, tcp_all,
                             pcu.find("l7ids")->instance(ids_id_));
    }
    filters.push_back({PluginType::l7, tcp_all});
    std::vector<std::vector<tgen::Arrival>> streams;
    for (std::size_t c = 0; c < n_conns; ++c) {
      tgen::TcpStreamSpec ts;
      ts.ep.src = netbase::IpAddr(netbase::Ipv4Addr(
          198, 19, 0, static_cast<std::uint8_t>(c + 1)));
      ts.ep.dst = netbase::IpAddr(netbase::Ipv4Addr(
          198, 18, 0, static_cast<std::uint8_t>(c + 1)));
      ts.ep.sport = static_cast<std::uint16_t>(40000 + c);
      ts.ep.dport = 80;
      ts.ep.in_iface = 3;
      ts.reverse_iface = 4;
      // Every other connection carries one planted signature (an alert);
      // the rest are clean and get offloaded after the inspect limit.
      std::vector<std::pair<std::size_t, std::string>> plant;
      if (c % 2 == 0) {
        plant.push_back({1000 + 97 * c, pats[c]});
        ++planted_;
      }
      ts.payload = tgen::plant(24 * 1024, args.seed + c, plant);
      ts.reverse_payload = tgen::plant(2048, args.seed + 1000 + c, {});
      ts.mss = 1024;
      streams.push_back(tgen::tcp_stream(ts));
      for (int dir = 0; dir < 2; ++dir) {
        pkt::FlowKey key;
        key.src = dir ? ts.ep.dst : ts.ep.src;
        key.dst = dir ? ts.ep.src : ts.ep.dst;
        key.proto = 6;
        key.sport = dir ? ts.ep.dport : ts.ep.sport;
        key.dport = dir ? ts.ep.sport : ts.ep.dport;
        key.in_iface = dir ? 4 : 3;
        aiu::Filter f;
        f.src = netbase::IpPrefix(key.src, 32);
        f.dst = netbase::IpPrefix(key.dst, 32);
        f.proto = aiu::ProtoSpec::exact(6);
        f.sport = aiu::PortSpec::exact(key.sport);
        f.dport = aiu::PortSpec::exact(key.dport);
        f.in_iface = aiu::IfaceSpec::exact(key.in_iface);
        bind_policy(f, false, permit);
        std::uint8_t ip[40]{};
        ip[0] = 0x45;
        netbase::store_be32(ip + 12, static_cast<std::uint32_t>(key.src.v.lo));
        netbase::store_be32(ip + 16, static_cast<std::uint32_t>(key.dst.v.lo));
        netbase::store_be16(ip + 20, key.sport);
        netbase::store_be16(ip + 22, key.dport);
        checker.tcp_flows[Checker::tcp_key(ip)] =
            0x10000000u + static_cast<std::uint32_t>(2 * c + dir);
      }
    }
    tcp_ = tgen::merge(std::move(streams));

    // UDP flow pool: sources in 10/8 (weights by source half), destinations
    // inside base prefixes (so route churn moves and withdraws them).
    netbase::Rng frng(args.seed ^ 0xf10f);
    keys_.resize(n_flows);
    seq_.assign(n_flows, 0);
    // Flow i starts on port 1 + i % 2, so both ports carry the same load.
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      pkt::FlowKey& key = keys_[i];
      key.src = netbase::IpAddr(netbase::Ipv4Addr(
          0x0a000000u | (static_cast<std::uint32_t>(frng.next()) & 0xffffff)));
      for (;;) {
        key.dst = addr_in(rchurn_.base[frng.below(rchurn_.base.size())], frng);
        const route::NextHop* hop = oracle->routes().lookup(key.dst);
        if (hop && hop->out_iface == 1 + i % 2) break;
      }
      key.proto = 17;
      key.sport = static_cast<std::uint16_t>(1024 + frng.below(60000));
      key.dport = static_cast<std::uint16_t>(1 + frng.below(65535));
      key.in_iface = kIn;
    }
    fate_.resize(keys_.size());
    why_.resize(keys_.size());
    amb_.resize(keys_.size());
    deny_.resize(keys_.size());
    route_.resize(keys_.size());
    refresh_routes();
    refresh_policy(nullptr);
    mutants_ = std::make_unique<tgen::AdversarialGen>(args.seed ^ 0xadd);
  }

  // Instants of 16 packets: 4 trains of 4 IMIX packets, ~1% mutants, and
  // the TCP slice's next segment; control batches at fixed virtual
  // intervals. Offered load: 1.2x the two 100 Mbit/s ports.
  void fill(Slice& s, std::size_t n_pkts) override {
    while (s.pkts.size() < n_pkts) {
      vt += exp_gap(rng, kGapNs);
      if (vt >= next_route_ && rb_ < rchurn_.batches.size()) {
        next_route_ += kCtrlEvery;
        route_batch(s, rb_++);
      }
      if (vt >= next_filter_ && fb_ < fchurn_.batches.size()) {
        next_filter_ += kCtrlEvery;
        filter_batch(s, fb_++);
      }
      if (!upgraded_ && vt >= 3 * netbase::kNsPerSec) {
        upgraded_ = true;
        upgrade(s);
      }
      const auto b = static_cast<std::uint32_t>(s.pkts.size());
      if (std::find(amb_.begin(), amb_.end(), false) == amb_.end()) {
        std::fprintf(stderr, "routerbench: every qos_churn key is ambiguous\n");
        std::exit(3);
      }
      for (int t = 0; t < 4; ++t) {
        std::size_t f = rng.below(keys_.size());
        while (amb_[f]) f = rng.below(keys_.size());
        for (int j = 0; j < 4; ++j) {
          const double u = rng.uniform01();
          const std::size_t size = u < 7.0 / 12 ? 64 : u < 11.0 / 12 ? 576 : 1500;
          add(s, kIn, keys_[f], static_cast<std::uint32_t>(f), seq_[f]++,
              fate_[f], why_[f], size - 28);
        }
      }
      if (rng.chance(0.16)) {  // ~1% of packets
        pkt::PacketPtr m;
        for (;;) {
          m = mutants_->next();
          pkt::PacketPtr probe = pkt::clone_packet(*m);
          if (pkt::sanitize_packet(*probe) != pkt::SanitizeCheck::ok) break;
        }
        m->key_valid = false;
        m->invalidate_flow_hash();
        ++injected;
        ++e_sanitize;
        s.pkts.push_back({kIn, std::move(m)});
      }
      if (tcp_next_ < tcp_.size()) {
        tgen::Arrival& a = tcp_[tcp_next_++];
        a.p->key_valid = false;
        a.p->invalidate_flow_hash();
        pkt::FlowKey key;
        const std::uint8_t* ip = a.p->data();
        key.src = netbase::IpAddr(netbase::Ipv4Addr(netbase::load_be32(ip + 12)));
        key.dst = netbase::IpAddr(netbase::Ipv4Addr(netbase::load_be32(ip + 16)));
        key.proto = 6;
        key.sport = netbase::load_be16(ip + 20);
        key.dport = netbase::load_be16(ip + 22);
        key.in_iface = a.iface;
        Fate why;
        const std::uint16_t exp = oracle->expect(key, why);
        std::uint8_t* w = a.p->data();
        netbase::store_be16(w + 4, exp);
        pkt::Ipv4Header::finalize_checksum(w, 20);
        count(why);
        s.pkts.push_back({a.iface, std::move(a.p)});
      }
      s.steps.push_back({vt, b, static_cast<std::uint32_t>(s.pkts.size()), -1});
    }
  }

  std::uint64_t extra_checks(std::string& why) override {
    std::uint64_t bad = 0;
    const std::uint64_t hits = ids().matches();
    if (tcp_next_ >= tcp_.size() && hits != planted_) {
      why += " l7_hits=" + std::to_string(hits) +
             " planted=" + std::to_string(planted_);
      bad += hits > planted_ ? hits - planted_ : planted_ - hits;
    }
    if (upgraded_ && !conserved_) {
      why += " stats_upgrade_not_conserved";
      ++bad;
    }
    return bad;
  }

  void sample_step() override {
    const std::size_t backlog = k->core().port_scheduler(1)->backlog_packets() +
                                k->core().port_scheduler(2)->backlog_packets();
    backlog_.push_back(static_cast<double>(backlog));
    const auto buf = static_cast<double>(ids().counters().buffered_bytes.load());
    if (buf > l7_buf_max_) l7_buf_max_ = buf;
  }

  const l7::IdsInstance& ids() {
    return *dynamic_cast<l7::IdsInstance*>(
        k->pcu().find("l7ids")->instance(ids_id_));
  }
  std::vector<double> backlog_;
  double l7_buf_max_{0};

 private:
  static constexpr std::uint64_t kPortBps = 100'000'000;
  // One route batch and one filter batch per 100 ms of virtual time.
  static constexpr netbase::SimTime kCtrlEvery = 100 * netbase::kNsPerMs;
  // 16 packets x 354 B mean IMIX at 1.2 x 200 Mbit/s.
  static constexpr double kGapNs = 16 * 354.0 * 8 / 240e6 * 1e9;

  static pkt::IfIndex fold(pkt::IfIndex i) {
    return static_cast<pkt::IfIndex>(1 + i % 2);
  }

  void bind_policy(const aiu::Filter& f, bool d, plugin::PluginInstance* inst) {
    {
      Stopwatch sw{filters_s};
      k->aiu().create_filter(PluginType::firewall, f, inst);
    }
    oracle->aiu().create_filter(
        PluginType::firewall, f,
        oracle->tag(d ? plugin::Verdict::drop : plugin::Verdict::cont));
    std::erase_if(live_, [&](const PolicyFilter& p) { return p.filter == f; });
    live_.push_back({f, d});
    filters.push_back({PluginType::firewall, f});
  }

  // Reference fate of pool key i from its two parts: the firewall verdict
  // (changes with filter batches) and the route (changes with route batches).
  void compose(std::size_t i) {
    if (deny_[i]) {
      fate_[i] = kExpectDrop;
      why_[i] = Fate::policy;
    } else {
      fate_[i] = route_[i];
      why_[i] = route_[i] == kExpectDrop ? Fate::no_route : Fate::forward;
    }
  }
  // Re-classifies the pool keys any of `changed` matches (all keys when
  // null) against the reference AIU.
  void refresh_policy(const std::vector<aiu::Filter>* changed) {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (changed && std::none_of(changed->begin(), changed->end(),
                                  [&](const aiu::Filter& f) {
                                    return f.matches(keys_[i]);
                                  }))
        continue;
      amb_[i] = ambiguous(live_, keys_[i]);
      const aiu::FilterRecord* r =
          oracle->aiu().classify_uncached(keys_[i], PluginType::firewall);
      deny_[i] = r && static_cast<const VerdictTag*>(r->instance)->verdict() ==
                          plugin::Verdict::drop;
      compose(i);
    }
  }
  void refresh_routes() {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      const route::NextHop* hop = oracle->routes().lookup(keys_[i].dst);
      route_[i] = hop && hop->valid() ? hop->out_iface : kExpectDrop;
      compose(i);
    }
  }
  // Policy filters bind to the deny instance only when both addresses are
  // specified: a broad deny (wildcard source and destination) would drop a
  // seed-dependent share of all traffic and drown the scheduling behaviour
  // this workload is about.
  bool deny_draw(const aiu::Filter& f, netbase::Rng& r) {
    const bool d = r.chance(0.1);
    return d && f.src.len > 0 && f.dst.len > 0;
  }

  void route_batch(Slice& s, std::size_t i) {
    const auto& ops = rchurn_.batches[i];
    oracle->routes().apply_batch(ops);
    refresh_routes();
    s.steps.push_back({vt, 0, 0, static_cast<int>(ctrl.size())});
    ctrl.push_back({CtrlKind::route, ops.size(),
                    [this, &ops] { cp_->apply_route_batch(ops); }});
  }

  void filter_batch(Slice& s, std::size_t i) {
    std::vector<ctrl::FilterSpecOp> ops;
    std::vector<aiu::Aiu::FilterOp> ref;
    std::vector<aiu::Filter> changed;
    for (const auto& op : fchurn_.batches[i]) {
      changed.push_back(op.filter);
      ctrl::FilterSpecOp o;
      o.plugin = "firewall";
      o.filter = op.filter;
      aiu::Aiu::FilterOp r;
      r.gate = PluginType::firewall;
      r.filter = op.filter;
      std::erase_if(live_,
                    [&](const PolicyFilter& p) { return p.filter == op.filter; });
      if (op.remove) {
        o.kind = r.kind = aiu::Aiu::FilterOp::Kind::remove;
      } else {
        const bool d = deny_draw(op.filter, rng);
        o.instance = d ? deny_id_ : permit_id_;
        r.instance = oracle->tag(d ? plugin::Verdict::drop : plugin::Verdict::cont);
        live_.push_back({op.filter, d});
      }
      ops.push_back(o);
      ref.push_back(r);
    }
    oracle->aiu().apply_filter_batch(ref);
    refresh_policy(&changed);
    s.steps.push_back({vt, 0, 0, static_cast<int>(ctrl.size())});
    ctrl.push_back({CtrlKind::filter, ops.size(),
                    [this, ops = std::move(ops)] { cp_->apply_filter_batch(ops); }});
  }

  std::uint64_t stats_total() {
    std::uint64_t sum = 0;
    for (auto id : {stats_a_, stats_b_}) {
      plugin::PluginInstance* in = k->pcu().find("stats")->instance(id);
      if (auto* w = dynamic_cast<WrapInstance*>(in)) in = w->inner();
      sum += dynamic_cast<stats::StatsInstance*>(in)->total_bytes();
    }
    return sum;
  }

  void upgrade(Slice& s) {
    s.steps.push_back({vt, 0, 0, static_cast<int>(ctrl.size())});
    ctrl.push_back({CtrlKind::upgrade, 1, [this] {
                      const std::uint64_t before = stats_total();
                      cp_->upgrade("stats", stats_a_, stats_b_, false);
                      conserved_ = stats_total() == before;
                    }});
  }

  std::unique_ptr<ctrl::ControlPlane> cp_;
  tgen::RouteChurn rchurn_;
  tgen::FilterChurn fchurn_;
  std::vector<PolicyFilter> live_;
  plugin::InstanceId permit_id_{0}, deny_id_{0}, stats_a_{0}, stats_b_{0},
      ids_id_{0};
  std::vector<pkt::FlowKey> keys_;
  std::vector<std::uint16_t> fate_;
  std::vector<Fate> why_;
  std::vector<bool> amb_, deny_;
  std::vector<std::uint16_t> route_;
  std::vector<std::uint32_t> seq_;
  std::vector<tgen::Arrival> tcp_;
  std::size_t tcp_next_{0};
  std::uint64_t planted_{0};
  std::unique_ptr<tgen::AdversarialGen> mutants_;
  std::size_t rb_{0}, fb_{0};
  netbase::SimTime next_route_{kCtrlEvery};
  netbase::SimTime next_filter_{kCtrlEvery + kCtrlEvery / 2};
  bool upgraded_{false};
  bool conserved_{false};
};

// ---------------------------------------------------------------------------
// Driver

std::unique_ptr<Env> make_env(const Args& a, Tracing* tr, FaultSpec* fault) {
  std::unique_ptr<Env> e;
  if (a.workload == "cached_fwd") {
    auto w = std::make_unique<CachedFwd>(a, tr, fault);
    w->build();
    e = std::move(w);
  } else if (a.workload == "flow_setup") {
    auto w = std::make_unique<FlowSetup>(a, tr, fault);
    w->build();
    e = std::move(w);
  } else {
    auto w = std::make_unique<QosChurn>(a, tr, fault);
    w->build();
    e = std::move(w);
  }
  return e;
}

struct WindowStats {
  std::vector<double> slice_mpps;
  std::vector<double> slice_p50, slice_p99;  // step latency quantiles per slice
  std::vector<double> ctrl_us;
  double ctrl_s{0};
  std::uint64_t ctrl_ops{0};
  double route_us{0}, filter_us{0}, upgrade_us{0};
  std::size_t n_route{0}, n_filter{0}, n_upgrade{0};
  double step_ns{0};
  std::uint64_t pkts{0};
  std::uint64_t allocs{0};
  double gen_ns{0};
  std::uint64_t gen_pkts{0};
  // Virtual-window loss: drops and injections over the first slices.
  double loss_ratio{0};
};

std::uint64_t all_drops(core::RouterKernel& k) {
  return k.core().counters().total_drops() + k.interfaces().totals().rx_drops;
}

// The slices whose packets give the virtual-time metrics: [from, to).
struct VirtWindow {
  std::size_t from{0}, to{0};
};

// Runs slices until `seconds` of wall time have passed and at least
// `min_slices` slices ran. Sojourn and loss are taken over slices `virt`;
// the per-slice wall figures over slices from `steady_from` on.
WindowStats run_window(Env& e, double seconds, std::size_t min_slices,
                       VirtWindow virt, std::size_t slice_pkts, bool traced,
                       std::size_t steady_from = 0) {
  WindowStats w;
  Slice s;
  const Ns start = now_ns();
  std::uint64_t v_drops0 = 0, v_inj0 = 0;
  for (std::size_t n = 0;; ++n) {
    if (n >= min_slices &&
        static_cast<double>(now_ns() - start) * 1e-9 >= seconds)
      break;
    if (n == virt.from && virt.to > virt.from) {
      e.checker.virt_begin = e.next_id;
      e.checker.virt_end = ~std::uint32_t{0};
      v_drops0 = all_drops(*e.k);
      v_inj0 = e.injected;
    }
    if (n == virt.to && virt.to > virt.from) e.checker.virt_end = e.next_id;
    s.clear();
    const std::uint64_t inj0 = e.injected;
    const Ns g0 = now_ns();
    e.fill(s, slice_pkts);
    w.gen_ns += static_cast<double>(now_ns() - g0);
    w.gen_pkts += e.injected - inj0;
    const std::uint64_t fwd0 = e.k->core().counters().forwarded;
    double slice_ns = 0;
    std::uint64_t slice_pkts_n = 0;
    std::vector<std::pair<double, std::uint64_t>> lat_us;  // (step us, pkts)
    for (const Step& st : s.steps) {
      if (st.ctrl >= 0) {
        CtrlAction& c = e.ctrl[static_cast<std::size_t>(st.ctrl)];
        const Ns t0 = now_ns();
        c.apply();
        const double us = static_cast<double>(now_ns() - t0) * 1e-3;
        w.ctrl_us.push_back(us);
        w.ctrl_s += us * 1e-6;
        if (c.kind == CtrlKind::route) {
          w.route_us += us;
          ++w.n_route;
          w.ctrl_ops += c.ops;
        } else if (c.kind == CtrlKind::filter) {
          w.filter_us += us;
          ++w.n_filter;
          w.ctrl_ops += c.ops;
        } else {
          w.upgrade_us += us;
          ++w.n_upgrade;
        }
        continue;
      }
      if (traced) g_count_allocs.store(true, std::memory_order_relaxed);
      const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
      const Ns t0 = now_ns();
      for (std::uint32_t i = st.begin; i < st.end; ++i)
        e.k->inject(st.t, s.pkts[i].iface, std::move(s.pkts[i].p));
      e.k->run_until(st.t);
      const Ns dt = now_ns() - t0;
      if (traced) {
        w.allocs += g_allocs.load(std::memory_order_relaxed) - a0;
        g_count_allocs.store(false, std::memory_order_relaxed);
        e.sample_step();
      }
      e.checker.drain();
      slice_ns += static_cast<double>(dt);
      slice_pkts_n += st.end - st.begin;
      lat_us.push_back({static_cast<double>(dt) * 1e-3, st.end - st.begin});
    }
    w.step_ns += slice_ns;
    w.pkts += slice_pkts_n;
    if (n + 1 == virt.to)
      w.loss_ratio = ratio(static_cast<double>(all_drops(*e.k) - v_drops0),
                           static_cast<double>(e.injected - v_inj0));
    if (n < steady_from) continue;
    w.slice_p50.push_back(weighted_quantile(lat_us, 0.5));
    w.slice_p99.push_back(weighted_quantile(std::move(lat_us), 0.99));
    const std::uint64_t fwd = e.k->core().counters().forwarded - fwd0;
    w.slice_mpps.push_back(ratio(static_cast<double>(fwd) * 1e3, slice_ns));
  }
  return w;
}

double ns_per_cycle() {
  const Ns t0 = now_ns();
  const std::uint64_t c0 = telemetry::cycles();
  while (now_ns() - t0 < 20'000'000) {
  }
  return static_cast<double>(now_ns() - t0) /
         static_cast<double>(telemetry::cycles() - c0);
}

// Final drain and accounting; fills r.correct/attempted/failed.
void check(Env& e, RunResult& r) {
  // Drain every queue: run virtual time on past the last arrival until no
  // port holds a backlog. (Not run_to_completion: that would also run the
  // idle-flow sweep until every cached flow has expired.)
  netbase::SimTime t = e.vt;
  auto backlog = [&] {
    for (pkt::IfIndex i = 0; i < e.k->interfaces().size(); ++i)
      if (e.k->core().tx_backlog(i)) return true;
    return false;
  };
  do {
    t += netbase::kNsPerSec;
    e.k->run_until(t);
  } while (backlog());
  e.checker.drain();
  const auto& c = e.k->core().counters();
  const std::uint64_t rx_drops = e.k->interfaces().totals().rx_drops;
  auto gap = [](std::uint64_t a, std::uint64_t b) { return a > b ? a - b : b - a; };
  std::string why;
  std::uint64_t wrong = e.checker.wrong();
  auto note = [&](const char* what, std::uint64_t g) {
    if (g) why += std::string(" ") + what + "=" + std::to_string(g);
    wrong += g;
  };
  note("accounting_gap",
       gap(e.injected, c.forwarded + c.total_drops() + rx_drops));
  note("delivered_vs_forwarded", gap(e.checker.delivered, c.forwarded));
  note("policy_gap", gap(c.dropped(core::DropReason::policy), e.e_policy));
  note("no_route_gap", gap(c.dropped(core::DropReason::no_route), e.e_no_route));
  note("malformed_gap",
       gap(c.dropped(core::DropReason::malformed), e.e_sanitize));
  note("sanitize_gap", gap(c.total_sanitize_drops(), e.e_sanitize));
  note("unexpected_drops", c.dropped(core::DropReason::ttl_expired) +
                               c.dropped(core::DropReason::bad_checksum) +
                               c.dropped(core::DropReason::too_big) +
                               c.dropped(core::DropReason::plugin_fault));
  const std::uint64_t missing =
      e.e_fwd - std::min(e.e_fwd, e.checker.delivered_ok + e.checker.wrong_port);
  note("loss_gap", gap(missing, c.dropped(core::DropReason::queue_full) + rx_drops));
  if (e.checker.wrong_port) why += " wrong_port=" + std::to_string(e.checker.wrong_port);
  if (e.checker.unexpected) why += " unexpected=" + std::to_string(e.checker.unexpected);
  if (e.checker.reordered) why += " reordered=" + std::to_string(e.checker.reordered);
  if (e.checker.bad_header) why += " bad_header=" + std::to_string(e.checker.bad_header);
  if (e.checker.untagged) why += " untagged=" + std::to_string(e.checker.untagged);
  wrong += e.extra_checks(why);
  r.attempted = e.injected;
  r.failed = std::min(wrong, e.injected);
  r.correct = wrong == 0;
  r.failure = why;
  r.metrics.add("wrong_frac", ratio(static_cast<double>(r.failed),
                                    static_cast<double>(r.attempted)), "ratio");
}

}  // namespace

RunResult run_kernel_workload(const Args& a) {
  RunResult r;
  const std::size_t slice = a.smoke ? 2048 : a.workload == "cached_fwd" ? 32768 : 8192;
  // qos_churn's windows start once the scheduler queues have filled to
  // their per-flow limits (~4.5 s of virtual time), so sojourn, loss and the
  // wall figures read the steady state rather than the fill ramp.
  VirtWindow virt{0, a.smoke ? 2u : a.workload == "cached_fwd" ? 36u : 48u};
  if (a.workload == "qos_churn" && !a.smoke) virt = {48, 96};
  const std::size_t min_slices = virt.to + 4;
  // Each stack gets a fresh fault: the flip must land in the checked run.
  FaultSpec fault;
  FaultSpec* fp = a.inject_fault ? &fault : nullptr;
  auto build = [&](Tracing* tr) {
    fault = FaultSpec{.at = 1000};
    return make_env(a, tr, fp);
  };

  auto pool_opt = [&] {
    pkt::PacketPool::Options po;
    po.chunks = a.workload == "qos_churn" ? 16384 : 3 * slice + 4096;
    po.buf_bytes = a.workload == "qos_churn" ? 1664 : 256;
    return po;
  };

  if (!a.trace) {
    // Set up three times; report the median, keep the last stack.
    std::vector<double> setups;
    std::unique_ptr<Env> e;
    std::unique_ptr<pkt::PacketPool> pool;
    for (int i = 0; i < 3; ++i) {
      abandon(std::move(e));
      pool = std::make_unique<pkt::PacketPool>(pool_opt());
      pkt::PacketPool::Use use(*pool);
      e = build(nullptr);
      setups.push_back(e->setup_s());
    }
    pkt::PacketPool::Use use(*pool);
    // One untimed warm slice, then the measured window.
    run_window(*e, 0, 1, {}, slice, false);
    WindowStats w = run_window(*e, a.seconds * 0.8, min_slices, virt, slice,
                               false, virt.from);
    check(*e, r);
    const std::vector<double> soj = std::move(e->checker.sojourn_ns);
    abandon(std::move(e));
    if (!r.correct) return r;
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    r.metrics = Report{};
    r.metrics.add("setup_s", median(setups), "s");
    r.metrics.add("fwd_mpps", best_decile_rate(w.slice_mpps), "Mpps");
    r.metrics.add("lat_us_p50", median(w.slice_p50), "us");
    r.metrics.add("lat_us_p99", best_decile_time(w.slice_p99), "us");
    r.metrics.add("sojourn_us_p50", binned_quantile(soj, 0.5) * 1e-3, "us");
    r.metrics.add("sojourn_us_p99", binned_quantile(soj, 0.99) * 1e-3, "us");
    r.metrics.add("loss_ratio", w.loss_ratio, "ratio");
    r.metrics.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
    std::fprintf(stderr,
                 "routerbench %s: %zu slices, %llu latency samples (packets), "
                 "%zu sojourn samples\n",
                 a.workload.c_str(), w.slice_mpps.size(),
                 static_cast<unsigned long long>(w.pkts), soj.size());
    return r;
  }

  // Traced run: an untraced reference window first (for trace.overhead_rel),
  // then the decorated stack.
  double untraced_mpps = 0;
  {
    pkt::PacketPool pool(pool_opt());
    pkt::PacketPool::Use use(pool);
    auto e = build(nullptr);
    run_window(*e, 0, 1, {}, slice, false);
    WindowStats w = run_window(*e, a.seconds * 0.3, 4, {}, slice, false);
    untraced_mpps = best_decile_rate(w.slice_mpps);
    check(*e, r);
    abandon(std::move(e));
    if (!r.correct) return r;
  }
  Tracing tr;
  pkt::PacketPool pool(pool_opt());
  pkt::PacketPool::Use use(pool);
  auto e = build(&tr);
  run_window(*e, 0, 1, {}, slice, false);
  tr = Tracing{};
  core::RouterKernel& k = *e->k;
  const core::CoreCounters c0 = k.core().counters();
  const aiu::FlowTable::Stats f0 = k.aiu().flow_table().stats();
  const aiu::Aiu::Stats a0 = k.aiu().stats();
  const pkt::PoolStats p0 = pool.stats();
  const std::size_t ev0 = k.events_processed();
  const std::uint64_t ex0 = k.telemetry().flows_exported();
  const std::uint64_t inj0 = e->injected;
  WindowStats w = run_window(*e, a.seconds * 0.45, 4, {}, slice, true);
  const core::CoreCounters c1 = k.core().counters();
  const aiu::FlowTable::Stats f1 = k.aiu().flow_table().stats();
  const aiu::Aiu::Stats a1 = k.aiu().stats();
  const pkt::PoolStats p1 = pool.stats();
  const double pkts = static_cast<double>(w.pkts);
  const double inj = static_cast<double>(e->injected - inj0);
  const ProbeResult probe =
      run_probes(e->probe_sample, e->filters, e->aiu_opt, k.routes());
  const double npc = ns_per_cycle();
  const double l7_ns =
      k.telemetry().gate_hist(PluginType::l7).mean() * npc;
  auto* q = dynamic_cast<QosChurn*>(e.get());
  double l7_offload = 0, l7_buf = 0, backlog_p99 = 0;
  if (q) {
    const auto& lc = q->ids().counters();
    l7_offload = ratio(static_cast<double>(lc.handles_offloaded.load()),
                       static_cast<double>(lc.handles_created.load()));
    l7_buf = q->l7_buf_max_;
    backlog_p99 = quantile(q->backlog_, 0.99);
  }
  check(*e, r);
  const double routes_s = e->routes_s, filters_s = e->filters_s,
               warm_s = e->warm_s;
  abandon(std::move(e));
  if (!r.correct) return r;

  Report& m = r.metrics;
  auto d = [](std::uint64_t b, std::uint64_t a_) {
    return static_cast<double>(b - a_);
  };
  double gates_ns = 0, gate_pkts = 0, gate_calls = 0;
  for (const auto& g : tr.gate) {
    gates_ns += static_cast<double>(g.ns);
    gate_pkts += static_cast<double>(g.pkts);
    gate_calls += static_cast<double>(g.calls);
  }
  const double sched_ns = static_cast<double>(
      tr.drr.enqueue.ns + tr.drr.dequeue.ns + tr.eiffel.enqueue.ns +
      tr.eiffel.dequeue.ns);
  const double core_self = ratio(w.step_ns - gates_ns - sched_ns, pkts);
  const double misses = d(f1.misses, f0.misses);
  const double hits = d(f1.hits, f0.hits);
  const double traced_mpps = best_decile_rate(w.slice_mpps);

  m.add("core.self_ns_per_pkt", core_self, "ns");
  m.add("core.pkts_per_burst", ratio(d(c1.burst_packets, c0.burst_packets),
                                     d(c1.bursts, c0.bursts)), "pkts");
  m.add("core.fused_share", ratio(d(c1.fused_bursts, c0.fused_bursts),
                                  d(c1.bursts, c0.bursts)), "ratio");
  m.add("core.group_pkts_mean", ratio(d(c1.gate_group_pkts, c0.gate_group_pkts),
                                      d(c1.gate_groups, c0.gate_groups)), "pkts");
  m.add("core.events_per_pkt",
        ratio(static_cast<double>(k.events_processed() - ev0), inj), "count");
  m.add("pkt.pool_hit_rate", ratio(d(p1.pool_hits, p0.pool_hits),
                                   d(p1.allocs, p0.allocs)), "ratio");
  m.add("pkt.heap_fallbacks_per_pkt",
        ratio(d(p1.heap_fallbacks, p0.heap_fallbacks), inj), "count");
  m.add("pkt.allocs_per_pkt", ratio(static_cast<double>(w.allocs), pkts), "count");
  m.add("pkt.sanitize_ns_per_pkt", probe.sanitize_ns, "ns");
  m.add("pkt.malformed_drops",
        d(c1.dropped(core::DropReason::malformed),
          c0.dropped(core::DropReason::malformed)), "count");
  m.add("aiu.flow_hit_rate", ratio(hits, hits + misses), "ratio");
  m.add("aiu.resolve_ns_per_pkt", probe.resolve_ns, "ns");
  m.add("aiu.classify_ns", probe.classify_ns, "ns");
  m.add("aiu.recycled_per_pkt", ratio(d(f1.recycled, f0.recycled), inj), "count");
  m.add("aiu.filter_lookups_per_miss",
        ratio(d(a1.filter_lookups, a0.filter_lookups), misses), "count");
  m.add("aiu.flows_invalidated_per_batch",
        ratio(d(a1.flows_invalidated, a0.flows_invalidated),
              static_cast<double>(w.n_filter)), "count");
  const std::pair<const char*, PluginType> gates[] = {
      {"ipopt", PluginType::ipopt}, {"ipsec", PluginType::ipsec},
      {"firewall", PluginType::firewall}, {"stats", PluginType::stats}};
  for (const auto& [name, g] : gates)
    m.add(std::string("plugin.") + name + ".ns_per_pkt",
          tr.gate[aiu::gate_index(g)].ns_per_pkt(), "ns");
  m.add("plugin.l7.ns_per_pkt", l7_ns, "ns");
  m.add("plugin.pkts_per_call", ratio(gate_pkts, gate_calls), "pkts");
  m.add("route.lookup_ns", probe.route_ns, "ns");
  m.add("sched.drr.enqueue_ns_per_pkt", tr.drr.enqueue.ns_per_pkt(), "ns");
  m.add("sched.drr.dequeue_ns_per_pkt", tr.drr.dequeue.ns_per_pkt(), "ns");
  m.add("sched.eiffel.enqueue_ns_per_pkt", tr.eiffel.enqueue.ns_per_pkt(), "ns");
  m.add("sched.eiffel.dequeue_ns_per_pkt", tr.eiffel.dequeue.ns_per_pkt(), "ns");
  m.add("sched.backlog_pkts_p99", backlog_p99, "pkts");
  m.add("sched.queue_full_drops",
        d(c1.dropped(core::DropReason::queue_full),
          c0.dropped(core::DropReason::queue_full)), "count");
  m.add("ctrl.route_batch_us", ratio(w.route_us, static_cast<double>(w.n_route)), "us");
  m.add("ctrl.filter_batch_us", ratio(w.filter_us, static_cast<double>(w.n_filter)), "us");
  m.add("ctrl.upgrade_us", ratio(w.upgrade_us, static_cast<double>(w.n_upgrade)), "us");
  m.add("ctrl_batch_us_p50", quantile(w.ctrl_us, 0.5), "us");
  m.add("ctrl_batch_us_p99", quantile(w.ctrl_us, 0.99), "us");
  m.add("ctrl_ops_per_s", ratio(static_cast<double>(w.ctrl_ops), w.ctrl_s), "1/s");
  m.add("l7.offload_share", l7_offload, "ratio");
  m.add("l7.buffered_bytes_max", l7_buf, "bytes");
  m.add("telemetry.flow_exports_per_pkt",
        ratio(static_cast<double>(k.telemetry().flows_exported() - ex0), inj), "count");
  m.add("tgen.build_ns_per_pkt", ratio(w.gen_ns, static_cast<double>(w.gen_pkts)), "ns");
  m.add("trace.overhead_rel", ratio(untraced_mpps, traced_mpps), "ratio");
  m.add("setup.routes_s", routes_s, "s");
  m.add("setup.filters_s", filters_s, "s");
  m.add("setup.warm_s", warm_s, "s");
  // Per-packet traced time not covered by a span (gates, schedulers) or
  // by a probe of a core stage (sanitize, AIU resolve, route lookup).
  const double probes = probe.sanitize_ns + probe.resolve_ns + probe.route_ns +
                        ratio(misses, pkts) * probe.classify_ns *
                            static_cast<double>(probe.gates);
  m.add("ledger.unattributed_ns_per_pkt", core_self - probes, "ns");
  return r;
}

}  // namespace rb
