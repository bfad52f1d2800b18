// Per-flow soft-state lifecycle for the record-keeping plugins (stats,
// tcpmon, policer, wf2q): releasing one flow's record — in any order, as the
// flow table's LRU recycle, expiry and invalidation do — leaves every other
// record and the instance's report intact; an upgrade's migrate_flow hands a
// record over whole, after which only the new instance frees it; and an
// instance destroyed mid-life nulls exactly the soft slots it still owns.
// Release and handoff are O(1) in the number of tracked flows
// (docs/plugin_authoring.md §4); the teardown test at the end times out if a
// per-flow scan comes back.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/router.hpp"
#include "pkt/builder.hpp"
#include "sched/policer.hpp"
#include "sched/wf2q.hpp"
#include "stats/stats_plugin.hpp"
#include "stats/tcpmon_plugin.hpp"

namespace rp {
namespace {

using netbase::Status;

netbase::IpAddr flow_src(std::uint32_t flow) {
  return netbase::IpAddr(netbase::Ipv4Addr(
      10, static_cast<std::uint8_t>(flow >> 16),
      static_cast<std::uint8_t>(flow >> 8), static_cast<std::uint8_t>(flow)));
}

pkt::PacketPtr udp(std::uint32_t flow, std::size_t payload = 100) {
  pkt::UdpSpec s;
  s.src = flow_src(flow);
  s.dst = netbase::IpAddr(netbase::Ipv4Addr(20, 0, 0, 1));
  s.sport = 1000;
  s.dport = 80;
  s.payload_len = payload;
  return pkt::build_udp(s);
}

pkt::PacketPtr tcp(std::uint32_t flow, std::uint32_t seq) {
  pkt::TcpSpec s;
  s.src = flow_src(flow);
  s.dst = netbase::IpAddr(netbase::Ipv4Addr(20, 0, 0, 1));
  s.sport = 1000;
  s.dport = 80;
  s.seq = seq;
  s.payload_len = 100;
  return pkt::build_tcp(s);
}

std::string message(plugin::PluginInstance& inst, const std::string& name) {
  plugin::PluginMsg msg;
  msg.custom_name = name;
  plugin::PluginReply reply;
  EXPECT_EQ(inst.handle_message(msg, reply), Status::ok);
  return reply.text;
}

// Per-flow report lines: every line after the aggregate header line.
std::size_t report_lines(const std::string& text) {
  const auto n = static_cast<std::size_t>(std::count(text.begin(), text.end(),
                                                     '\n'));
  return n == 0 ? 0 : n - 1;
}

constexpr std::uint32_t kFlows = 512;

// Releases the records behind `slots` in a seeded random order, calling
// `check(remaining)` after every release.
template <typename Check>
void release_in_random_order(plugin::PluginInstance& inst,
                             std::vector<void*>& slots, Check check) {
  std::vector<std::uint32_t> order(slots.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), std::mt19937(7));
  std::size_t remaining = slots.size();
  for (const std::uint32_t f : order) {
    ASSERT_NE(slots[f], nullptr);
    inst.flow_removed(slots[f]);
    slots[f] = nullptr;
    check(--remaining);
  }
}

TEST(SoftStateLifecycle, StatsRandomOrderRemovalKeepsReportConsistent) {
  std::vector<void*> slots(kFlows, nullptr);  // outlives the instance
  stats::StatsInstance inst(stats::StatsInstance::Mode::bytes);
  for (std::uint32_t f = 0; f < kFlows; ++f)
    for (std::uint32_t k = 0; k <= f % 3; ++k)
      inst.handle_packet(*udp(f), &slots[f]);
  ASSERT_EQ(inst.tracked_flows(), kFlows);
  const std::uint64_t total = inst.total_packets();

  release_in_random_order(inst, slots, [&](std::size_t remaining) {
    ASSERT_EQ(inst.tracked_flows(), remaining);
    if (remaining % 64 != 0) return;
    const std::string rep = message(inst, "report");
    EXPECT_NE(rep.find(" flows=" + std::to_string(remaining) + "\n"),
              std::string::npos);
    EXPECT_EQ(report_lines(rep), remaining);
    for (std::uint32_t f = 0; f < kFlows; ++f) {
      const bool listed = rep.find(udp(f)->key.to_string() + " pkts=" +
                                   std::to_string(1 + f % 3)) !=
                          std::string::npos;
      EXPECT_EQ(listed, slots[f] != nullptr) << "flow " << f;
    }
  });
  EXPECT_EQ(inst.total_packets(), total);  // totals outlive the records
}

TEST(SoftStateLifecycle, TcpMonRandomOrderRemovalKeepsReportConsistent) {
  std::vector<void*> slots(kFlows, nullptr);
  stats::TcpMonInstance inst;
  for (std::uint32_t f = 0; f < kFlows; ++f) {
    inst.handle_packet(*tcp(f, 1000), &slots[f]);
    inst.handle_packet(*tcp(f, 2000), &slots[f]);
    inst.handle_packet(*tcp(f, 1000), &slots[f]);  // one retransmit each
  }
  ASSERT_EQ(inst.tracked_flows(), kFlows);
  ASSERT_EQ(inst.total_retransmits(), kFlows);

  release_in_random_order(inst, slots, [&](std::size_t remaining) {
    ASSERT_EQ(inst.tracked_flows(), remaining);
    if (remaining % 64 != 0) return;
    const std::string rep = message(inst, "report");
    EXPECT_EQ(report_lines(rep), remaining);
    for (std::uint32_t f = 0; f < kFlows; f += 7) {
      const bool listed =
          rep.find(tcp(f, 0)->key.to_string() + " segs=3") != std::string::npos;
      EXPECT_EQ(listed, slots[f] != nullptr) << "flow " << f;
    }
  });
  EXPECT_EQ(inst.total_retransmits(), kFlows);
}

TEST(SoftStateLifecycle, PolicerRandomOrderRemovalKeepsBucketCount) {
  std::vector<void*> slots(kFlows, nullptr);
  sched::PolicerInstance inst(sched::PolicerInstance::Config{});
  for (std::uint32_t f = 0; f < kFlows; ++f)
    EXPECT_EQ(inst.handle_packet(*udp(f), &slots[f]), plugin::Verdict::cont);
  EXPECT_NE(message(inst, "stats").find("buckets=" + std::to_string(kFlows)),
            std::string::npos);

  release_in_random_order(inst, slots, [&](std::size_t remaining) {
    if (remaining % 64 != 0) return;
    EXPECT_NE(message(inst, "stats").find(
                  " buckets=" + std::to_string(remaining)),
              std::string::npos);
  });
  // A released flow that comes back starts from a fresh (full) bucket.
  EXPECT_EQ(inst.handle_packet(*udp(0), &slots[0]), plugin::Verdict::cont);
  EXPECT_NE(message(inst, "stats").find(" buckets=1"), std::string::npos);
}

TEST(SoftStateLifecycle, Wf2qRandomOrderRemovalFreesIdleAndOrphansBusy) {
  std::vector<void*> slots(kFlows, nullptr);
  sched::Wf2qInstance inst(sched::Wf2qInstance::Config{});
  // Every flow gets a queue and drains it; then even flows queue one more
  // packet. Removing an odd (idle) flow frees its queue at once; removing
  // an even (busy) one orphans it until it drains.
  for (std::uint32_t f = 0; f < kFlows; ++f)
    ASSERT_TRUE(inst.enqueue(udp(f), &slots[f], 0));
  for (std::uint32_t k = 0; k < kFlows; ++k)
    ASSERT_NE(inst.dequeue(0), nullptr);
  for (std::uint32_t f = 0; f < kFlows; f += 2)
    ASSERT_TRUE(inst.enqueue(udp(f), &slots[f], 0));
  ASSERT_EQ(inst.backlog_packets(), kFlows / 2);
  ASSERT_EQ(inst.queue_count(), kFlows);

  std::size_t freed = 0;
  release_in_random_order(inst, slots, [&](std::size_t remaining) {
    freed = 0;
    for (std::uint32_t f = 1; f < kFlows; f += 2)
      if (!slots[f]) ++freed;
    ASSERT_EQ(inst.queue_count(), kFlows - freed);
    if (remaining % 64 != 0) return;
    EXPECT_NE(message(inst, "stats").find(
                  "queues=" + std::to_string(kFlows - freed) + " "),
              std::string::npos);
  });
  EXPECT_EQ(inst.queue_count(), kFlows / 2);  // the orphans
  EXPECT_EQ(inst.backlog_packets(), kFlows / 2);
  // Orphans are served, then freed the moment they drain.
  for (std::uint32_t k = 0; k < kFlows / 2; ++k)
    ASSERT_NE(inst.dequeue(0), nullptr);
  EXPECT_EQ(inst.queue_count(), 0u);
  EXPECT_TRUE(inst.empty());
}

TEST(SoftStateLifecycle, StatsMigratedRecordIsFreedByTheNewInstance) {
  std::vector<void*> slots(kFlows, nullptr);
  auto v1 = std::make_unique<stats::StatsInstance>(
      stats::StatsInstance::Mode::bytes);
  stats::StatsInstance v2(stats::StatsInstance::Mode::bytes);
  for (std::uint32_t f = 0; f < kFlows; ++f)
    v1->handle_packet(*udp(f), &slots[f]);
  const std::uint64_t pkts = v1->total_packets();
  const std::uint64_t bytes = v1->total_bytes();
  auto* fc = static_cast<stats::StatsInstance::FlowCounter*>(slots[5]);

  // An upgrade hands over every flow, in an order unrelated to insertion.
  for (std::uint32_t f = kFlows; f-- > 0;) {
    void* before = slots[f];
    ASSERT_TRUE(v2.migrate_flow(v1.get(), udp(f)->key, &slots[f]));
    EXPECT_EQ(slots[f], before);  // adopted in place, not copied
  }
  EXPECT_EQ(v1->tracked_flows(), 0u);
  EXPECT_EQ(v2.tracked_flows(), kFlows);
  EXPECT_EQ(v1->total_packets() + v2.total_packets(), pkts);
  EXPECT_EQ(v2.total_bytes(), bytes);
  EXPECT_EQ(fc->packets, 1u);  // history survived

  // The record now belongs to v2: v2 frees it, v1 never sees it again.
  v2.flow_removed(slots[5]);
  slots[5] = nullptr;
  EXPECT_EQ(v2.tracked_flows(), kFlows - 1);
  EXPECT_EQ(v1->tracked_flows(), 0u);
  v1.reset();  // owns nothing any more: must touch no slot
  for (std::uint32_t f = 0; f < kFlows; ++f)
    EXPECT_EQ(slots[f] != nullptr, f != 5) << "flow " << f;
  EXPECT_EQ(report_lines(message(v2, "report")), kFlows - 1);
  // The adopted records keep counting under v2.
  v2.handle_packet(*udp(6), &slots[6]);
  EXPECT_EQ(static_cast<stats::StatsInstance::FlowCounter*>(slots[6])->packets,
            2u);
}

TEST(SoftStateLifecycle, StatsDestroyedAfterMigrationNullsOnlyItsOwnSlots) {
  std::vector<void*> slots(kFlows, nullptr);
  auto v1 = std::make_unique<stats::StatsInstance>(
      stats::StatsInstance::Mode::packets);
  auto v2 = std::make_unique<stats::StatsInstance>(
      stats::StatsInstance::Mode::packets);
  for (std::uint32_t f = 0; f < kFlows; ++f)
    v1->handle_packet(*udp(f), &slots[f]);
  for (std::uint32_t f = 0; f < kFlows; f += 2)
    ASSERT_TRUE(v2->migrate_flow(v1.get(), udp(f)->key, &slots[f]));
  ASSERT_EQ(v1->tracked_flows(), kFlows / 2);
  ASSERT_EQ(v2->tracked_flows(), kFlows / 2);

  v1.reset();  // a partial upgrade whose old version dies first
  for (std::uint32_t f = 0; f < kFlows; ++f)
    EXPECT_EQ(slots[f] != nullptr, f % 2 == 0) << "flow " << f;
  EXPECT_EQ(v2->tracked_flows(), kFlows / 2);
  EXPECT_EQ(report_lines(message(*v2, "report")), kFlows / 2);

  v2.reset();
  for (std::uint32_t f = 0; f < kFlows; ++f) EXPECT_EQ(slots[f], nullptr);
}

TEST(SoftStateLifecycle, StatsMigrateDeclinesANonStatsSource) {
  stats::TcpMonInstance mon;
  stats::StatsInstance st(stats::StatsInstance::Mode::packets);
  void* soft = nullptr;
  mon.handle_packet(*tcp(1, 1000), &soft);
  ASSERT_NE(soft, nullptr);
  void* const before = soft;
  EXPECT_FALSE(st.migrate_flow(&mon, tcp(1, 0)->key, &soft));
  EXPECT_EQ(soft, before);  // untouched: the AIU releases it through `mon`
  EXPECT_EQ(st.tracked_flows(), 0u);
  EXPECT_EQ(mon.tracked_flows(), 1u);
  mon.flow_removed(soft);
  EXPECT_EQ(mon.tracked_flows(), 0u);

  void* none = nullptr;
  EXPECT_FALSE(st.migrate_flow(nullptr, tcp(1, 0)->key, &none));
  EXPECT_FALSE(st.migrate_flow(&mon, tcp(1, 0)->key, &none));
}

// A router holding 2^18 cached flows, each with a stats record, is torn
// down. The flow table dies before the plugin instances, so every entry's
// flow_removed runs against a full stats instance: with a per-flow scan that
// teardown is quadratic and takes minutes, past this test's timeout.
TEST(SoftStateTeardown, RouterKernelWith256KiStatsFlows) {
  constexpr std::uint32_t kCached = 1u << 18;
  core::RouterKernel::Options opt;
  opt.core.input_gates = {plugin::PluginType::stats};
  opt.aiu.max_flows = 2 * kCached;
  auto kernel = std::make_unique<core::RouterKernel>(opt);
  kernel->add_interface("if0");
  kernel->add_interface("if1");
  ASSERT_EQ(kernel->routes().add(netbase::IpPrefix{}, {1, {}}), Status::ok);
  kernel->pcu().register_plugin(std::make_unique<stats::StatsPlugin>());
  plugin::Plugin* pl = kernel->pcu().find("stats");
  plugin::InstanceId id = plugin::kNoInstance;
  ASSERT_EQ(pl->create_instance({}, id), Status::ok);
  auto* st = static_cast<stats::StatsInstance*>(pl->instance(id));
  ASSERT_EQ(kernel->aiu().create_filter(plugin::PluginType::stats,
                                        *aiu::Filter::parse("<*,*,*,*,*,*>"),
                                        st),
            Status::ok);

  for (std::uint32_t f = 0; f < kCached; ++f) {
    kernel->core().process(udp(f, 0));
  }
  ASSERT_EQ(kernel->aiu().flow_table().active(), kCached);
  ASSERT_EQ(st->tracked_flows(), kCached);
  ASSERT_EQ(st->total_packets(), kCached);

  kernel.reset();
}

}  // namespace
}  // namespace rp
