#include "stack.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "netbase/byteorder.hpp"
#include "pkt/builder.hpp"
#include "pkt/sanitize.hpp"
#include "tgen/workload.hpp"

namespace rb {

using namespace rp;

void add_plugin(plugin::PluginControlUnit& pcu,
                std::unique_ptr<plugin::Plugin> real, Tracing* tr,
                FaultSpec* fault) {
  if (tr || fault) {
    const bool sched = real->type() == plugin::PluginType::sched;
    Span* span = tr ? &tr->gate[aiu::gate_index(real->type())] : nullptr;
    SchedSpan* sspan = nullptr;
    if (sched && tr) sspan = real->name() == "drr" ? &tr->drr : &tr->eiffel;
    real = std::make_unique<WrapPlugin>(std::move(real), span, sspan, fault);
  }
  if (pcu.register_plugin(std::move(real)) != netbase::Status::ok) {
    std::fprintf(stderr, "routerbench: plugin registration failed\n");
    std::exit(3);
  }
}

plugin::PluginInstance* new_instance(plugin::PluginControlUnit& pcu,
                                     const std::string& name,
                                     const plugin::Config& cfg,
                                     plugin::InstanceId* id) {
  plugin::Plugin* pl = pcu.find(name);
  plugin::InstanceId got = plugin::kNoInstance;
  if (!pl || pl->create_instance(cfg, got) != netbase::Status::ok) {
    std::fprintf(stderr, "routerbench: cannot create %s instance\n",
                 name.c_str());
    std::exit(3);
  }
  if (id) *id = got;
  return pl->instance(got);
}

RouteSet make_routes(std::size_t n, pkt::IfIndex first_out,
                     std::uint32_t n_out, std::uint64_t seed) {
  RouteSet rs;
  std::set<std::pair<netbase::U128, unsigned>> seen;
  for (const auto& p :
       tgen::random_prefixes(n, netbase::IpVersion::v4, seed)) {
    if (p.len < 8 || (p.addr.v.lo >> 28) == 0xf ||
        !seen.insert({p.addr.key(), p.len}).second)
      continue;
    rs.prefixes.push_back(p);
    rs.hops.push_back(route::NextHop{
        static_cast<pkt::IfIndex>(first_out + rs.hops.size() % n_out), {}});
  }
  return rs;
}

netbase::IpAddr unrouted_addr(netbase::Rng& rng) {
  return netbase::IpAddr(netbase::Ipv4Addr(
      0xf0000000u | (static_cast<std::uint32_t>(rng.next()) & 0x0fffffff)));
}

std::vector<pkt::FlowKey> udp_flows(std::size_t n, const RouteSet& rs,
                                    netbase::Rng& rng) {
  std::vector<pkt::FlowKey> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    pkt::FlowKey& key = keys[i];
    key.src = netbase::IpAddr(netbase::Ipv4Addr(
        0x0a000000u | (static_cast<std::uint32_t>(rng.next()) & 0xffffff)));
    key.dst = i % 64 == 63
                  ? unrouted_addr(rng)
                  : addr_in(rs.prefixes[rng.below(rs.prefixes.size())], rng);
    key.proto = 17;
    key.sport = static_cast<std::uint16_t>(1024 + rng.below(60000));
    key.dport = static_cast<std::uint16_t>(1 + rng.below(65535));
  }
  return keys;
}

std::vector<aiu::Filter> table3_filters(std::size_t n) {
  std::vector<aiu::Filter> out;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    aiu::Filter f;
    f.src = *netbase::IpPrefix::parse("99.77." + std::to_string(i) + ".0/24");
    f.proto = aiu::ProtoSpec::exact(6);
    out.push_back(f);
  }
  out.push_back(*aiu::Filter::parse("* * udp * * *"));
  return out;
}

netbase::IpAddr addr_in(const netbase::IpPrefix& p, netbase::Rng& rng) {
  const std::uint32_t base = static_cast<std::uint32_t>(p.addr.v.lo);
  const std::uint32_t host =
      p.len >= 32 ? 0 : static_cast<std::uint32_t>(rng.next()) >> p.len;
  return netbase::IpAddr(netbase::Ipv4Addr(base | host));
}

pkt::PacketPtr build_tagged(const pkt::FlowKey& k, const Tag& t,
                            std::size_t payload_len) {
  pkt::PacketPtr p;
  if (k.proto == static_cast<std::uint8_t>(pkt::IpProto::tcp)) {
    std::vector<std::uint8_t> payload(payload_len, 'x');
    encode_tag(t, payload.data());
    pkt::TcpSpec s;
    s.src = k.src;
    s.dst = k.dst;
    s.sport = k.sport;
    s.dport = k.dport;
    s.seq = t.seq;
    s.payload = payload.data();
    s.payload_len = payload_len;
    p = pkt::build_tcp(s);
  } else {
    pkt::UdpSpec s;
    s.src = k.src;
    s.dst = k.dst;
    s.sport = k.sport;
    s.dport = k.dport;
    s.payload_len = payload_len;
    p = pkt::build_udp(s);
    encode_tag(t, p->data() + 28);
    netbase::store_be16(p->data() + 26, 0);  // UDP checksum: none (IPv4)
  }
  p->key_valid = false;
  p->invalidate_flow_hash();
  return p;
}

// ---------------------------------------------------------------------------

Oracle::Oracle(std::vector<plugin::PluginType> gates)
    : gates_(std::move(gates)) {
  aiu::Aiu::Options o;
  o.classifier = "linear";
  aiu_ = std::make_unique<aiu::Aiu>(pcu_, clock_, o);
}

std::uint16_t Oracle::expect(const pkt::FlowKey& k, Fate& why) {
  for (auto g : gates_) {
    const aiu::FilterRecord* r = aiu_->classify_uncached(k, g);
    if (r && static_cast<const VerdictTag*>(r->instance)->verdict() ==
                 plugin::Verdict::drop) {
      why = Fate::policy;
      return kExpectDrop;
    }
  }
  const route::NextHop* hop = routes_.lookup(k.dst);
  if (!hop || !hop->valid()) {
    why = Fate::no_route;
    return kExpectDrop;
  }
  why = Fate::forward;
  return hop->out_iface;
}

bool ambiguous(const std::vector<PolicyFilter>& filters,
               const pkt::FlowKey& k) {
  const PolicyFilter* best = nullptr;
  bool split = false;
  for (const auto& f : filters) {
    if (!f.filter.matches(k)) continue;
    if (!best) {
      best = &f;
      continue;
    }
    const int c = aiu::compare_specificity(f.filter, best->filter);
    if (c > 0) {
      best = &f;
      split = false;
    } else if (c == 0 && f.deny != best->deny) {
      split = true;
    }
  }
  return split;
}

// ---------------------------------------------------------------------------

Checker::Checker() : seq_(1u << 20) {}

std::uint64_t Checker::tcp_key(const std::uint8_t* ip) noexcept {
  const std::size_t ihl = static_cast<std::size_t>(ip[0] & 0xf) * 4;
  std::uint64_t h = netbase::load_be32(ip + 12) * 0x9e3779b97f4a7c15ULL;
  h ^= netbase::load_be32(ip + 16) * 0xc2b2ae3d27d4eb4fULL;
  h ^= std::uint64_t{netbase::load_be16(ip + ihl)} << 16 |
       netbase::load_be16(ip + ihl + 2);
  return h;
}

bool Checker::in_order(std::uint32_t flow, pkt::IfIndex port,
                       std::uint32_t seq, bool strict) {
  const std::uint32_t key = flow * 8 + port;
  SeqSlot& s = seq_[(key * 2654435761u) >> 12];
  const bool first = s.key != key;
  // s.next is one past the last sequence number seen on this (flow, port).
  const bool ok = first || (strict ? seq >= s.next : seq + 1 >= s.next);
  s.key = key;
  s.next = seq + 1;
  return ok;
}

void Checker::on_tx(const pkt::Packet& p, pkt::IfIndex port,
                    netbase::SimTime done) {
  ++delivered;
  const std::uint8_t* ip = p.data();
  if (p.size() < 20 || (ip[0] >> 4) != 4) {
    ++untagged;
    return;
  }
  const std::size_t ihl = static_cast<std::size_t>(ip[0] & 0xf) * 4;
  if (ip[8] != 63 || !pkt::Ipv4Header::verify_checksum({ip, ihl}))
    ++bad_header;
  Tag t;
  bool strict = true;
  if (decode_tag(p, t)) {
    if (t.id >= virt_begin && t.id < virt_end)
      sojourn_ns.push_back(static_cast<double>(done - p.arrival));
  } else if (auto it = ip[9] == 6 ? tcp_flows.find(tcp_key(ip))
                                  : tcp_flows.end();
             it != tcp_flows.end()) {
    // TCP slice: sequence numbers repeat on pure ACKs, so ordering is
    // non-decreasing; the expected port rides in the identification field.
    t.flow = it->second;
    t.seq = netbase::load_be32(ip + ihl + 4);
    t.expect = netbase::load_be16(ip + 4);
    strict = false;
  } else {
    ++untagged;
    return;
  }
  if (!in_order(t.flow, port, t.seq, strict)) ++reordered;
  if (t.expect == port)
    ++delivered_ok;
  else if (t.expect == kExpectDrop)
    ++unexpected;
  else
    ++wrong_port;
}

// ---------------------------------------------------------------------------

namespace {

// Best-of-passes ns per item: the fastest pass is the one least disturbed
// by the rest of the machine.
template <class Fn>
double time_passes(std::size_t items, int passes, Fn&& fn) {
  double best = 1e30;
  for (int i = 0; i < passes; ++i) {
    const Ns t0 = now_ns();
    fn();
    const double ns = static_cast<double>(now_ns() - t0) /
                      static_cast<double>(items ? items : 1);
    if (ns < best) best = ns;
  }
  return best;
}

}  // namespace

ProbeResult run_probes(const std::vector<pkt::PacketPtr>& sample,
                       const std::vector<GateFilter>& filters,
                       const aiu::Aiu::Options& aiu_opt,
                       const route::RoutingTable& routes) {
  ProbeResult r;
  if (sample.empty()) return r;
  std::vector<pkt::PacketPtr> pk;
  for (const auto& p : sample) pk.push_back(pkt::clone_packet(*p));
  volatile int sink = 0;

  r.sanitize_ns = time_passes(pk.size(), 5, [&] {
    for (auto& p : pk) sink = sink + static_cast<int>(pkt::sanitize_packet(*p));
  });
  for (auto& p : pk) pkt::extract_flow_key(*p);

  r.route_ns = time_passes(pk.size(), 5, [&] {
    for (auto& p : pk) sink = sink + (routes.lookup(p->key.dst) != nullptr);
  });

  netbase::SimClock clock;
  plugin::PluginControlUnit pcu;
  aiu::Aiu replica(pcu, clock, aiu_opt);
  VerdictTag tag(plugin::Verdict::cont);
  std::vector<plugin::PluginType> gates;
  for (const auto& gf : filters) {
    replica.create_filter(gf.gate, gf.filter, &tag);
    if (std::find(gates.begin(), gates.end(), gf.gate) == gates.end())
      gates.push_back(gf.gate);
  }
  std::vector<pkt::Packet*> ptrs;
  for (auto& p : pk) ptrs.push_back(p.get());
  auto resolve_all = [&] {
    for (auto* p : ptrs) p->fix = pkt::kNoFlow;
    for (std::size_t off = 0; off < ptrs.size(); off += aiu::Aiu::kMaxBurst) {
      const std::size_t n = std::min(aiu::Aiu::kMaxBurst, ptrs.size() - off);
      replica.resolve_flows_burst({ptrs.data() + off, n});
    }
  };
  resolve_all();  // warm: the router's flows are cached the same way
  r.resolve_ns = time_passes(ptrs.size(), 5, resolve_all);

  r.gates = gates.size();
  if (!gates.empty()) {
    r.classify_ns = time_passes(pk.size() * gates.size(), 3, [&] {
      for (auto& p : pk)
        for (auto g : gates)
          sink = sink + (replica.classify_uncached(p->key, g) != nullptr);
    });
  }
  return r;
}

}  // namespace rb
