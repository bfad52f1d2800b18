#include "sched/drr.hpp"

#include <algorithm>

namespace rp::sched {

using netbase::Status;

DrrInstance::~DrrInstance() {
  // Clear flow-table soft slots that still point at our queues.
  for (auto& q : queues_)
    if (q->soft_slot) *q->soft_slot = nullptr;
}

std::uint32_t DrrInstance::weight_for(const pkt::FlowKey& key) const {
  for (const auto& [filter, w] : weight_rules_)
    if (filter.matches(key)) return w;
  return cfg_.default_weight;
}

DrrInstance::FlowQueue* DrrInstance::queue_for(const pkt::Packet& p,
                                               void** flow_soft) {
  if (flow_soft && *flow_soft) return static_cast<FlowQueue*>(*flow_soft);
  if (!flow_soft) {
    if (auto it = fallback_.find(p.key); it != fallback_.end())
      return it->second;
  }
  auto q = std::make_unique<FlowQueue>();
  q->weight = weight_for(p.key);
  q->soft_slot = flow_soft;
  q->key = p.key;
  FlowQueue* raw = q.get();
  queues_.push_back(std::move(q));
  raw->self = std::prev(queues_.end());
  if (flow_soft) {
    *flow_soft = raw;  // per-flow soft state in the flow record (§5.2)
  } else {
    if (fallback_.size() >= fallback_sweep_at_) sweep_fallback();
    raw->in_fallback = true;
    fallback_[p.key] = raw;  // self-classified per-flow queue
  }
  return raw;
}

void DrrInstance::sweep_fallback() {
  for (auto it = fallback_.begin(); it != fallback_.end();) {
    FlowQueue* q = it->second;
    if (!q->active && q->pkts.empty()) {
      it = fallback_.erase(it);
      queues_.erase(q->self);
    } else {
      ++it;
    }
  }
  fallback_sweep_at_ = std::max<std::size_t>(4096, 2 * fallback_.size());
}

bool DrrInstance::enqueue(pkt::PacketPtr p, void** flow_soft,
                          netbase::SimTime /*now*/) {
  FlowQueue* q = queue_for(*p, flow_soft);
  if (q->pkts.size() >= cfg_.per_flow_limit) {
    ++drops_;
    return false;
  }
  backlog_bytes_ += p->size();
  ++backlog_pkts_;
  q->pkts.push_back(std::move(p));
  if (!q->active) {
    q->active = true;
    q->fresh_visit = true;
    active_.push_back(q);
  }
  return true;
}

void DrrInstance::enqueue_burst(pkt::PacketPtr* pkts, void** const* softs,
                                bool* accepted, std::size_t n,
                                netbase::SimTime /*now*/) {
  // A run shares one flow-table soft slot across its train, so the flow
  // queue resolves once; the fallback path (no slot) still classifies each
  // packet. Per-packet admission is unchanged from enqueue().
  void** memo_soft = nullptr;
  FlowQueue* memo_q = nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    pkt::PacketPtr p = std::move(pkts[i]);
    FlowQueue* q;
    if (softs[i] && softs[i] == memo_soft) {
      q = memo_q;
    } else {
      q = queue_for(*p, softs[i]);
      if (softs[i]) {
        memo_soft = softs[i];
        memo_q = q;
      }
    }
    if (q->pkts.size() >= cfg_.per_flow_limit) {
      ++drops_;
      accepted[i] = false;
      p.reset();  // rejected packets are freed, as by-value enqueue() does
      continue;
    }
    backlog_bytes_ += p->size();
    ++backlog_pkts_;
    q->pkts.push_back(std::move(p));
    if (!q->active) {
      q->active = true;
      q->fresh_visit = true;
      active_.push_back(q);
    }
    accepted[i] = true;
  }
}

pkt::PacketPtr DrrInstance::dequeue(netbase::SimTime /*now*/) {
  while (!active_.empty()) {
    FlowQueue* q = active_.front();
    if (q->fresh_visit) {
      q->deficit += static_cast<std::int64_t>(cfg_.quantum) * q->weight;
      q->fresh_visit = false;
    }
    if (!q->pkts.empty() &&
        static_cast<std::int64_t>(q->pkts.front()->size()) <= q->deficit) {
      auto p = std::move(q->pkts.front());
      q->pkts.pop_front();
      q->deficit -= static_cast<std::int64_t>(p->size());
      backlog_bytes_ -= p->size();
      --backlog_pkts_;
      if (q->pkts.empty()) {
        // Shreedhar/Varghese: an emptied queue forfeits its deficit.
        q->deficit = 0;
        q->active = false;
        q->fresh_visit = true;
        active_.pop_front();
        if (q->orphaned) destroy(q);
      }
      return p;
    }
    // Deficit exhausted: move to the back of the round.
    q->fresh_visit = true;
    active_.pop_front();
    active_.push_back(q);
  }
  return nullptr;
}

void DrrInstance::flow_removed(void* flow_soft) {
  auto* q = static_cast<FlowQueue*>(flow_soft);
  if (!q) return;
  q->soft_slot = nullptr;
  if (q->pkts.empty() && !q->active) {
    destroy(q);
  } else {
    q->orphaned = true;  // drain in-flight packets first
  }
}

void DrrInstance::destroy(FlowQueue* q) {
  // Only ever called on a drained, unlinked queue.
  if (q->in_fallback) fallback_.erase(q->key);
  queues_.erase(q->self);
}

Status DrrInstance::handle_message(const plugin::PluginMsg& msg,
                                   plugin::PluginReply& reply) {
  if (msg.custom_name == "setweight") {
    auto spec = msg.args.get("filter");
    auto weight = msg.args.get_int("weight");
    if (!spec || !weight || *weight < 1) return Status::invalid_argument;
    auto f = aiu::Filter::parse(*spec);
    if (!f) return Status::invalid_argument;
    for (auto& [filter, w] : weight_rules_) {
      if (filter == *f) {
        w = static_cast<std::uint32_t>(*weight);
        return Status::ok;
      }
    }
    weight_rules_.emplace_back(*f, static_cast<std::uint32_t>(*weight));
    return Status::ok;
  }
  if (msg.custom_name == "stats") {
    reply.text = "queues=" + std::to_string(queues_.size()) +
                 " backlog_pkts=" + std::to_string(backlog_pkts_) +
                 " backlog_bytes=" + std::to_string(backlog_bytes_) +
                 " drops=" + std::to_string(drops_);
    return Status::ok;
  }
  return Status::unsupported;
}

}  // namespace rp::sched
