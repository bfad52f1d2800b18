// Scheduler soft-state lifecycle against the flow table (§5.2): every way a
// flow-table entry can die — explicit removal, idle expiry, LRU recycling at
// the record cap, filter/instance purge — must end with the scheduler's
// per-flow state freed once the queue drains, and never before the queued
// packets are served. This is the regression net over the DRR/H-FSC/
// Eiffel/WF²Q+ `flow_removed` paths (drained-queue destruction, orphan
// draining, fallback sweeping, H-FSC sub-queue erasure).
#include <gtest/gtest.h>

#include <vector>

#include "aiu/flow_table.hpp"
#include "sched/drr.hpp"
#include "sched/eiffel.hpp"
#include "sched/hfsc.hpp"
#include "sched/wf2q.hpp"
#include "tgen/workload.hpp"

namespace rp::sched {
namespace {

using netbase::Status;

constexpr std::size_t kSchedGate = aiu::gate_index(plugin::PluginType::sched);

pkt::PacketPtr flow_pkt(std::uint16_t flow, std::size_t payload) {
  pkt::UdpSpec s;
  s.src = netbase::IpAddr(netbase::Ipv4Addr(
      10, 0, static_cast<std::uint8_t>(flow >> 8),
      static_cast<std::uint8_t>(flow)));
  s.dst = netbase::IpAddr(netbase::Ipv4Addr(20, 0, 0, 1));
  s.sport = flow;
  s.dport = 80;
  s.payload_len = payload;
  return pkt::build_udp(s);
}

// Binds `eng` at the sched gate of a fresh flow-table entry for `flow` and
// backlogs `pkts` packets through the entry's soft slot, exactly as the
// core's gate dispatch does.
pkt::FlowIndex bind_and_backlog(aiu::FlowTable& t, core::OutputScheduler& eng,
                                std::uint16_t flow, int pkts) {
  auto p0 = flow_pkt(flow, 100);
  const pkt::FlowIndex i = t.insert(p0->key, /*now=*/flow);
  aiu::GateBinding& g = t.rec(i).gates[kSchedGate];
  g.instance = &eng;
  for (int k = 0; k < pkts; ++k)
    EXPECT_TRUE(eng.enqueue(flow_pkt(flow, 100), &g.soft, 0));
  return i;
}

template <typename Engine>
void expiry_frees_state() {
  // Engine before table: ~FlowTable fires flow_removed on bound instances,
  // so the engine must outlive it (the order the kernel guarantees).
  // initial == max records: the table never grows, so gate-slot addresses
  // are stable for the whole test (the same invariant the kernel keeps by
  // purging before any reallocation-inducing reconfiguration).
  Engine eng{typename Engine::Config{}};
  aiu::FlowTable t(64, 32, 32);

  // Flows 0..4 are idle (drained) when the sweep fires and must be freed
  // immediately; 5..9 are still backlogged and must be kept as orphans
  // until served. Drain 0..4 before 5..9 exist so the order is engine-
  // independent.
  for (std::uint16_t f = 0; f < 5; ++f) bind_and_backlog(t, eng, f, 1);
  for (int k = 0; k < 5; ++k) ASSERT_NE(eng.dequeue(0), nullptr);
  for (std::uint16_t f = 5; f < 10; ++f) bind_and_backlog(t, eng, f, 2);
  EXPECT_EQ(eng.queue_count(), 10u);

  EXPECT_EQ(t.expire_idle(1000), 10u);
  // Drained flows were freed by their flow_removed; backlogged ones remain.
  EXPECT_EQ(eng.queue_count(), 5u);
  EXPECT_EQ(eng.backlog_packets(), 10u);
  for (int k = 0; k < 10; ++k) ASSERT_NE(eng.dequeue(0), nullptr);
  EXPECT_EQ(eng.queue_count(), 0u);  // orphans freed the moment they drained
  EXPECT_TRUE(eng.empty());
}

TEST(SchedHandleLifecycle, DrrExpirySweepFreesPerFlowState) {
  expiry_frees_state<DrrInstance>();
}
TEST(SchedHandleLifecycle, EiffelExpirySweepFreesPerFlowState) {
  expiry_frees_state<EiffelInstance>();
}
TEST(SchedHandleLifecycle, Wf2qExpirySweepFreesPerFlowState) {
  expiry_frees_state<Wf2qInstance>();
}

template <typename Engine>
void eviction_frees_state() {
  // Cap the table at 4 records: the 5th insert recycles the LRU entry and
  // must fire flow_removed for its scheduler binding. Engine declared
  // first so it outlives the table's teardown callbacks.
  Engine eng{typename Engine::Config{}};
  aiu::FlowTable t(64, 4, 4);
  for (std::uint16_t f = 0; f < 4; ++f) bind_and_backlog(t, eng, f, 1);
  EXPECT_EQ(eng.queue_count(), 4u);

  bind_and_backlog(t, eng, 100, 1);
  EXPECT_EQ(t.stats().recycled, 1u);
  // Flow 0 (the LRU victim) is orphaned but still holds its packet.
  EXPECT_EQ(eng.queue_count(), 5u);
  EXPECT_EQ(eng.backlog_packets(), 5u);
  for (int k = 0; k < 5; ++k) ASSERT_NE(eng.dequeue(0), nullptr);
  // The victim's orphan died on drain; the four still-bound flows keep
  // their (idle) queues until their table entries go.
  EXPECT_EQ(eng.queue_count(), 4u);
  t.clear();
  EXPECT_EQ(eng.queue_count(), 0u);
}

TEST(SchedHandleLifecycle, DrrEvictionRecycleFreesState) {
  eviction_frees_state<DrrInstance>();
}
TEST(SchedHandleLifecycle, EiffelEvictionRecycleFreesState) {
  eviction_frees_state<EiffelInstance>();
}
TEST(SchedHandleLifecycle, Wf2qEvictionRecycleFreesState) {
  eviction_frees_state<Wf2qInstance>();
}

template <typename Engine>
void filter_flip_frees_state() {
  Engine eng{typename Engine::Config{}};
  aiu::FlowTable t(64, 32, 32);
  // Two filters; flipping (removing) one must only purge its own flows.
  aiu::FilterRecord keep{}, flip{};
  for (std::uint16_t f = 0; f < 6; ++f) {
    const pkt::FlowIndex i = bind_and_backlog(t, eng, f, 1);
    t.rec(i).gates[kSchedGate].filter = (f < 3) ? &flip : &keep;
  }
  EXPECT_EQ(t.purge_filter(&flip), 3u);
  EXPECT_EQ(t.active(), 3u);
  EXPECT_EQ(eng.backlog_packets(), 6u);  // queued packets still serviced
  for (int k = 0; k < 6; ++k) ASSERT_NE(eng.dequeue(0), nullptr);
  EXPECT_EQ(eng.queue_count(), 3u);  // surviving (bound, idle) flows only
  EXPECT_EQ(t.purge_instance(&eng), 3u);
  EXPECT_EQ(eng.queue_count(), 0u);  // idle at purge: freed immediately
}

TEST(SchedHandleLifecycle, DrrFilterFlipPurgesOnlyItsFlows) {
  filter_flip_frees_state<DrrInstance>();
}
TEST(SchedHandleLifecycle, EiffelFilterFlipPurgesOnlyItsFlows) {
  filter_flip_frees_state<EiffelInstance>();
}
TEST(SchedHandleLifecycle, Wf2qFilterFlipPurgesOnlyItsFlows) {
  filter_flip_frees_state<Wf2qInstance>();
}

TEST(SchedHandleLifecycle, HfscSubqueuesEraseOnDrainAcrossRemoval) {
  // Engine before table: the last three flow entries stay in the table
  // until its destructor, which fires flow_removed on the bound engine.
  HfscInstance::Config cfg;
  HfscInstance eng(cfg);
  aiu::FlowTable t(64, 32, 32);
  const ServiceCurve rate{12.5e6, 0, 12.5e6};
  ASSERT_EQ(eng.add_class("bulk", "root", rate, rate, {},
                          HfscInstance::LeafQdisc::drr, 1500),
            Status::ok);
  auto all = aiu::Filter::parse("<*, *, udp, *, *, *>");
  ASSERT_TRUE(all.has_value());
  ASSERT_EQ(eng.bind_class(*all, "bulk"), Status::ok);

  for (std::uint16_t f = 0; f < 8; ++f) bind_and_backlog(t, eng, f, 2);
  EXPECT_EQ(eng.subqueue_count(), 8u);

  // H-FSC's per-flow state is the leaf sub-queue, keyed by flow — removal
  // of the table entry is a no-op for it (the soft slot caches the leaf
  // class, shared by construction), but draining must erase it.
  EXPECT_EQ(t.expire_idle(1000), 8u);
  EXPECT_EQ(eng.subqueue_count(), 8u);  // still backlogged
  for (int k = 0; k < 16; ++k) ASSERT_NE(eng.dequeue(1'000'000'000), nullptr);
  EXPECT_EQ(eng.subqueue_count(), 0u);  // every drained sub-queue erased
  EXPECT_TRUE(eng.empty());

  // A fresh burst after total drain re-creates sub-queues from scratch.
  for (std::uint16_t f = 0; f < 3; ++f) bind_and_backlog(t, eng, f, 1);
  EXPECT_EQ(eng.subqueue_count(), 3u);
  for (int k = 0; k < 3; ++k) ASSERT_NE(eng.dequeue(2'000'000'000), nullptr);
  EXPECT_EQ(eng.subqueue_count(), 0u);
}

TEST(SchedHandleLifecycle, DrrFallbackSweepBoundsSelfClassifiedState) {
  // Self-classified (null-soft) DRR queues survive a drain (their weights
  // are cheap to keep) but must not accrete without bound: the sweep
  // watermark caps the idle population.
  DrrInstance::Config cfg;
  DrrInstance eng(cfg);
  for (std::uint32_t f = 0; f < 6000; ++f) {
    auto p = flow_pkt(static_cast<std::uint16_t>(f), 64);
    ASSERT_TRUE(eng.enqueue(std::move(p), nullptr, 0));
    ASSERT_NE(eng.dequeue(0), nullptr);  // drain immediately: all idle
  }
  // The 4096-entry watermark fired at least once on the way to 6000.
  EXPECT_LT(eng.queue_count(), 4200u);
  EXPECT_TRUE(eng.empty());
}

}  // namespace
}  // namespace rp::sched
