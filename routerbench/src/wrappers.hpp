// Bench-owned pass-through decorators for the traced run and the checker
// self-test. They time calls into the router's plugin instances from the
// outside, without changing a line of the router:
//
//   * WrapPlugin registers under the real plugin's name and type and owns
//     the real plugin object; each instance it creates wraps one real
//     instance, so control messages addressed by (plugin, id) — filter
//     batches, upgrades, setweight — reach the same objects as untraced;
//   * WrapInstance forwards the gate ABI (handle_packet / handle_burst /
//     flow_removed / migrate_flow / messages) and adds the call's wall time
//     to its gate's span; with a FaultSpec it flips exactly one verdict;
//   * WrapSched does the same for the OutputScheduler ABI (enqueue, batch
//     enqueue, dequeue) with separate enqueue and dequeue spans.
//
// Plain runs (untraced, no injected fault) register the real plugins.
#pragma once

#include <memory>
#include <vector>

#include "core/scheduler_base.hpp"
#include "harness.hpp"
#include "plugin/pcu.hpp"
#include "plugin/plugin.hpp"

namespace rb {

struct Span {
  std::uint64_t ns{0};
  std::uint64_t pkts{0};
  std::uint64_t calls{0};
  void add(Ns d, std::size_t n) noexcept {
    ns += static_cast<std::uint64_t>(d);
    pkts += n;
    ++calls;
  }
  double ns_per_pkt() const noexcept {
    return ratio(static_cast<double>(ns), static_cast<double>(pkts));
  }
};

struct SchedSpan {
  Span enqueue;
  Span dequeue;
};

// Flips the verdict of the `at`-th packet the wrapped gate sees (cont <->
// drop), once. Used only by --inject-fault.
struct FaultSpec {
  std::uint64_t at{0};
  std::uint64_t seen{0};
  bool fired{false};
  plugin::Verdict apply(plugin::Verdict v) noexcept {
    if (fired || ++seen < at) return v;
    fired = true;
    return v == plugin::Verdict::drop ? plugin::Verdict::cont
                                      : plugin::Verdict::drop;
  }
};

class WrapInstance final : public plugin::PluginInstance {
 public:
  WrapInstance(plugin::Plugin& inner_plugin, plugin::InstanceId inner_id,
               Span* span, FaultSpec* fault)
      : inner_plugin_(inner_plugin),
        inner_id_(inner_id),
        inner_(inner_plugin.instance(inner_id)),
        span_(span),
        fault_(fault) {}
  ~WrapInstance() override { inner_plugin_.free_instance(inner_id_); }

  plugin::Verdict handle_packet(pkt::Packet& p, void** soft) override {
    const Ns t0 = span_ ? now_ns() : 0;
    plugin::Verdict v = inner_->handle_packet(p, soft);
    if (span_) span_->add(now_ns() - t0, 1);
    if (fault_ && v != plugin::Verdict::consumed) v = fault_->apply(v);
    return v;
  }
  void handle_burst(plugin::PacketRun& run) override {
    const Ns t0 = span_ ? now_ns() : 0;
    inner_->handle_burst(run);
    if (span_) span_->add(now_ns() - t0, run.size());
    if (fault_)
      for (std::size_t i = 0; i < run.size(); ++i)
        if (run.verdict(i) != plugin::Verdict::consumed)
          run.set_verdict(i, fault_->apply(run.verdict(i)));
  }
  void flow_removed(void* soft) override { inner_->flow_removed(soft); }
  bool migrate_flow(plugin::PluginInstance* from, const pkt::FlowKey& key,
                    void** soft) override {
    auto* w = dynamic_cast<WrapInstance*>(from);
    return inner_->migrate_flow(w ? w->inner_ : from, key, soft);
  }
  void filter_removed(void* st) override { inner_->filter_removed(st); }
  netbase::Status handle_message(const plugin::PluginMsg& msg,
                                 plugin::PluginReply& reply) override {
    return inner_->handle_message(msg, reply);
  }
  plugin::PluginInstance* inner() const noexcept { return inner_; }

 private:
  plugin::Plugin& inner_plugin_;
  plugin::InstanceId inner_id_;
  plugin::PluginInstance* inner_;
  Span* span_;
  FaultSpec* fault_;
};

class WrapSched final : public core::OutputScheduler {
 public:
  WrapSched(plugin::Plugin& inner_plugin, plugin::InstanceId inner_id,
            SchedSpan* span)
      : inner_plugin_(inner_plugin),
        inner_id_(inner_id),
        inner_(static_cast<core::OutputScheduler*>(
            inner_plugin.instance(inner_id))),
        span_(span) {}
  ~WrapSched() override { inner_plugin_.free_instance(inner_id_); }

  bool enqueue(pkt::PacketPtr p, void** soft, netbase::SimTime now) override {
    const Ns t0 = now_ns();
    const bool ok = inner_->enqueue(std::move(p), soft, now);
    span_->enqueue.add(now_ns() - t0, 1);
    return ok;
  }
  void enqueue_burst(pkt::PacketPtr* pkts, void** const* softs, bool* accepted,
                     std::size_t n, netbase::SimTime now) override {
    const Ns t0 = now_ns();
    inner_->enqueue_burst(pkts, softs, accepted, n, now);
    span_->enqueue.add(now_ns() - t0, n);
  }
  pkt::PacketPtr dequeue(netbase::SimTime now) override {
    const Ns t0 = now_ns();
    pkt::PacketPtr p = inner_->dequeue(now);
    span_->dequeue.add(now_ns() - t0, p ? 1 : 0);
    return p;
  }
  bool empty() const override { return inner_->empty(); }
  std::size_t backlog_packets() const override {
    return inner_->backlog_packets();
  }
  std::size_t backlog_bytes() const override { return inner_->backlog_bytes(); }
  netbase::SimTime next_wakeup(netbase::SimTime now) const override {
    return inner_->next_wakeup(now);
  }
  void flow_removed(void* soft) override { inner_->flow_removed(soft); }
  void filter_removed(void* st) override { inner_->filter_removed(st); }
  netbase::Status handle_message(const plugin::PluginMsg& msg,
                                 plugin::PluginReply& reply) override {
    return inner_->handle_message(msg, reply);
  }

 private:
  plugin::Plugin& inner_plugin_;
  plugin::InstanceId inner_id_;
  core::OutputScheduler* inner_;
  SchedSpan* span_;
};

// Registers under the wrapped plugin's name/type; every instance it creates
// is a decorator around an instance of the real plugin.
class WrapPlugin final : public plugin::Plugin {
 public:
  WrapPlugin(std::unique_ptr<plugin::Plugin> inner, Span* span,
             SchedSpan* sched_span, FaultSpec* fault)
      : Plugin(inner->name(), inner->type()),
        inner_(std::move(inner)),
        span_(span),
        sched_span_(sched_span),
        fault_(fault) {}
  // Free the decorators while the wrapped plugin (a member, destroyed
  // before the base class's instance map) is still alive.
  ~WrapPlugin() override {
    std::vector<plugin::InstanceId> ids;
    for (auto& [id, inst] : *this) ids.push_back(id);
    for (auto id : ids) free_instance(id);
  }

 protected:
  std::unique_ptr<plugin::PluginInstance> make_instance(
      const plugin::Config& cfg) override {
    plugin::InstanceId id = plugin::kNoInstance;
    if (inner_->create_instance(cfg, id) != netbase::Status::ok) return nullptr;
    if (sched_span_) return std::make_unique<WrapSched>(*inner_, id, sched_span_);
    return std::make_unique<WrapInstance>(*inner_, id, span_, fault_);
  }

 private:
  std::unique_ptr<plugin::Plugin> inner_;
  Span* span_;
  SchedSpan* sched_span_;
  FaultSpec* fault_;
};

// A batch-native null transform for the IP security gate: the paper's
// Table 3 measured the three gates with plugins that do nothing, and real
// AH/ESP crypto would swamp the per-packet path this workload isolates.
class NullInstance final : public plugin::PluginInstance {
 public:
  plugin::Verdict handle_packet(pkt::Packet&, void**) override {
    return plugin::Verdict::cont;
  }
  void handle_burst(plugin::PacketRun&) override {}
};
class NullPlugin final : public plugin::Plugin {
 public:
  NullPlugin(std::string name, plugin::PluginType t)
      : Plugin(std::move(name), t) {}

 protected:
  std::unique_ptr<plugin::PluginInstance> make_instance(
      const plugin::Config&) override {
    return std::make_unique<NullInstance>();
  }
};

// Reference-oracle stand-in for a bound instance: it only records the
// verdict the real instance gives every packet (permit/deny policy, or
// "continue" for monitoring and option plugins).
class VerdictTag final : public plugin::PluginInstance {
 public:
  explicit VerdictTag(plugin::Verdict v) : v_(v) {}
  plugin::Verdict handle_packet(pkt::Packet&, void**) override { return v_; }
  plugin::Verdict verdict() const noexcept { return v_; }

 private:
  plugin::Verdict v_;
};

}  // namespace rb
