// Building blocks shared by every workload: plugin registration (plain,
// or wrapped for tracing / fault injection), the route database, tagged
// packet construction, the reference oracle, the egress checker and the
// replica-stack probes of the traced run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "aiu/aiu.hpp"
#include "harness.hpp"
#include "netbase/rng.hpp"
#include "plugin/pcu.hpp"
#include "route/routing_table.hpp"
#include "wrappers.hpp"

namespace rb {

// The router's configuration (route tables, filter databases) is generated
// from this fixed seed; --seed picks the traffic and the control batches.
// Different databases shape the DAG and the BMP engines differently, so
// seeding them too would mix configuration changes into run-to-run spread.
constexpr std::uint64_t kConfigSeed = 20260917;

// Leaves a finished router stack to process exit instead of destroying it.
// Tearing a stack down is quadratic in its cached flows (each flow-table
// removal makes the stats plugin scan its whole flow list), which at this
// benchmark's flow counts would take minutes and measure nothing.
template <class T>
void abandon(std::unique_ptr<T> p) {
  (void)p.release();
}

// Spans filled by the traced run's decorators (one per gate, one per
// scheduler discipline).
struct Tracing {
  Span gate[aiu::kNumGates];
  SchedSpan drr, eiffel;
};

// Registers `real` with the PCU — wrapped in a WrapPlugin when the run is
// traced (`tr`) or a fault is injected into this plugin (`fault`).
void add_plugin(plugin::PluginControlUnit& pcu,
                std::unique_ptr<plugin::Plugin> real, Tracing* tr,
                FaultSpec* fault = nullptr);

// create_instance through the PCU's plugin; aborts the run on failure.
plugin::PluginInstance* new_instance(plugin::PluginControlUnit& pcu,
                                     const std::string& plugin,
                                     const plugin::Config& cfg = {},
                                     plugin::InstanceId* id = nullptr);

// ~n random IPv4 prefixes (tgen::random_prefixes, deduplicated) spread
// round-robin over `n_out` output interfaces starting at `first_out`.
// Nothing inside 240.0.0.0/4 is routed: unrouted_addr() draws from there.
struct RouteSet {
  std::vector<netbase::IpPrefix> prefixes;
  std::vector<route::NextHop> hops;
};
RouteSet make_routes(std::size_t n, pkt::IfIndex first_out,
                     std::uint32_t n_out, std::uint64_t seed);

netbase::IpAddr unrouted_addr(netbase::Rng& rng);

// UDP flows from 10.0.0.0/8 arriving on interface 0, destinations inside
// random prefixes of `rs`; one flow in 64 goes to an unrouted address.
std::vector<pkt::FlowKey> udp_flows(std::size_t n, const RouteSet& rs,
                                    netbase::Rng& rng);

// The paper's Table 3 filter set for one gate: n-1 padding filters that
// never match UDP traffic (TCP from 99.77.x.0/24) and one UDP catch-all.
std::vector<aiu::Filter> table3_filters(std::size_t n);

// A random address inside `p` (host bits random).
netbase::IpAddr addr_in(const netbase::IpPrefix& p, netbase::Rng& rng);

// Builds an IPv4 UDP or TCP packet for `k` whose transport payload is
// `payload_len` bytes starting with the tag. The parsed-key cache is
// cleared, so the router parses the packet like one off the wire.
pkt::PacketPtr build_tagged(const pkt::FlowKey& k, const Tag& t,
                            std::size_t payload_len);

// ---------------------------------------------------------------------------
// Reference oracle: a patricia routing table and a linear-classifier AIU
// holding the same routes and filters as the router under test. Filters
// bind to VerdictTag instances that carry the verdict the router's bound
// instance gives.

enum class Fate : std::uint8_t { forward, policy, no_route };

class Oracle {
 public:
  explicit Oracle(std::vector<plugin::PluginType> gates);

  route::RoutingTable& routes() noexcept { return routes_; }
  aiu::Aiu& aiu() noexcept { return *aiu_; }
  VerdictTag* tag(plugin::Verdict v) noexcept {
    return v == plugin::Verdict::drop ? &deny_ : &cont_;
  }

  // The reference fate of a packet with key `k`: the first gate whose
  // best-matching filter drops it, else the route lookup.
  std::uint16_t expect(const pkt::FlowKey& k, Fate& why);

 private:
  std::vector<plugin::PluginType> gates_;
  netbase::SimClock clock_;
  plugin::PluginControlUnit pcu_;
  route::RoutingTable routes_{"patricia"};
  std::unique_ptr<aiu::Aiu> aiu_;
  VerdictTag cont_{plugin::Verdict::cont};
  VerdictTag deny_{plugin::Verdict::drop};
};

// True when the best-specificity filters matching `k` in `filters` do not
// all agree on `deny` — the router may then pick any of them (ties are
// unordered by design), so such keys carry no checkable verdict.
struct PolicyFilter {
  aiu::Filter filter;
  bool deny{false};
};
bool ambiguous(const std::vector<PolicyFilter>& filters, const pkt::FlowKey& k);

// ---------------------------------------------------------------------------
// Egress checker, fed from the tx sinks. Verifies each delivered packet
// against the fate its tag predicts, per-(flow, port) ordering, TTL and
// header checksum, and gathers the virtual sojourn of packets with
// virt_begin <= id < virt_end.

struct Checker {
  std::uint32_t virt_begin{0}, virt_end{0};
  std::vector<double> sojourn_ns;

  std::uint64_t delivered{0};     // every packet reaching a tx sink
  std::uint64_t delivered_ok{0};  // tagged, expected port
  std::uint64_t wrong_port{0};
  std::uint64_t unexpected{0};    // delivered although expected dropped
  std::uint64_t reordered{0};
  std::uint64_t bad_header{0};    // TTL not decremented once / bad checksum
  std::uint64_t untagged{0};      // neither tagged nor a known TCP flow

  // TCP slice (no tag in the stream bytes): the expected port rides in the
  // IPv4 identification field and ordering is by TCP sequence number.
  std::unordered_map<std::uint64_t, std::uint32_t> tcp_flows;  // key -> flow
  static std::uint64_t tcp_key(const std::uint8_t* ip) noexcept;

  Checker();
  void on_tx(const pkt::Packet& p, pkt::IfIndex port, netbase::SimTime done);
  // Deferred form for the RouterKernel workloads: the tx sink only parks
  // the packet, and drain() checks the parked ones outside the timed step.
  void defer(pkt::PacketPtr p, pkt::IfIndex port, netbase::SimTime done) {
    parked_.push_back({std::move(p), port, done});
  }
  void drain() {
    for (auto& e : parked_) on_tx(*e.p, e.port, e.done);
    parked_.clear();
  }
  std::uint64_t wrong() const noexcept {
    return wrong_port + unexpected + reordered + bad_header + untagged;
  }

 private:
  struct SeqSlot {
    std::uint32_t key{0xffffffff};
    std::uint32_t next{0};
  };
  struct Parked {
    pkt::PacketPtr p;
    pkt::IfIndex port;
    netbase::SimTime done;
  };
  bool in_order(std::uint32_t flow, pkt::IfIndex port, std::uint32_t seq,
                bool strict);
  std::vector<SeqSlot> seq_;
  std::vector<Parked> parked_;
};

// ---------------------------------------------------------------------------
// Replica-stack probes (traced run only): time the sanitizer, the AIU's
// burst resolver and uncached classifier, and the route lookup over a
// sample of the workload's packets, on a replica AIU holding the same
// filters (so the router's own flow table and counters stay untouched).

struct ProbeResult {
  double sanitize_ns{0};
  double resolve_ns{0};
  double classify_ns{0};
  double route_ns{0};
  std::size_t gates{0};  // gates holding filters (classified per miss)
};

struct GateFilter {
  plugin::PluginType gate;
  aiu::Filter filter;
};

ProbeResult run_probes(const std::vector<pkt::PacketPtr>& sample,
                       const std::vector<GateFilter>& filters,
                       const aiu::Aiu::Options& aiu_opt,
                       const route::RoutingTable& routes);

}  // namespace rb
