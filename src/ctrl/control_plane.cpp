#include "ctrl/control_plane.hpp"

#include "parallel/sharded_datapath.hpp"

namespace rp::ctrl {

route::RouteBatchResult ControlPlane::apply_route_batch(
    const std::vector<route::RouteOp>& ops) {
  const route::RouteBatchResult res = kernel_.routes().apply_batch(ops);
  if (sharded_) {
    // gather() runs the closure on each worker thread at a burst boundary:
    // the core reads next-hop pointers (its per-flow route cache included)
    // across a chunk, so routes must never mutate mid-chunk, and this is
    // exactly the quiesce hook that guarantees it.
    sharded_->gather([&ops](parallel::ShardContext& ctx) {
      ctx.routes().apply_batch(ops);
    });
  }
  ++stats_.route_batches;
  stats_.routes_added += res.added;
  stats_.routes_updated += res.updated;
  stats_.routes_withdrawn += res.withdrawn;
  stats_.route_failures += res.failed;
  return res;
}

aiu::Aiu::FilterBatchResult ControlPlane::apply_filter_ops_on(
    plugin::PluginControlUnit& pcu, aiu::Aiu& a,
    const std::vector<FilterSpecOp>& ops) {
  std::vector<aiu::Aiu::FilterOp> resolved;
  resolved.reserve(ops.size());
  std::size_t unresolved = 0;
  for (const FilterSpecOp& op : ops) {
    plugin::Plugin* pl = pcu.find(op.plugin);
    if (!pl) {
      ++unresolved;
      continue;
    }
    aiu::Aiu::FilterOp out;
    out.kind = op.kind;
    out.gate = pl->type();
    out.filter = op.filter;
    if (op.kind == aiu::Aiu::FilterOp::Kind::add) {
      out.instance = pl->instance(op.instance);
      if (!out.instance) {
        ++unresolved;
        continue;
      }
    }
    resolved.push_back(std::move(out));
  }
  aiu::Aiu::FilterBatchResult res = a.apply_filter_batch(resolved);
  res.failed += unresolved;
  return res;
}

Status ControlPlane::apply_filter_batch(const std::vector<FilterSpecOp>& ops,
                                        std::string* detail) {
  const aiu::Aiu::FilterBatchResult res =
      apply_filter_ops_on(kernel_.pcu(), kernel_.aiu(), ops);
  if (sharded_) {
    sharded_->gather([&ops](parallel::ShardContext& ctx) {
      apply_filter_ops_on(ctx.pcu(), ctx.aiu(), ops);
    });
  }
  ++stats_.filter_batches;
  stats_.filters_added += res.added;
  stats_.filters_removed += res.removed;
  stats_.filter_failures += res.failed;
  stats_.flows_invalidated += res.flows_invalidated;
  if (detail) {
    *detail = "added=" + std::to_string(res.added) +
              " removed=" + std::to_string(res.removed) +
              " failed=" + std::to_string(res.failed) +
              " flows_invalidated=" + std::to_string(res.flows_invalidated);
  }
  return res.failed == 0 ? Status::ok : Status::invalid_argument;
}

Status ControlPlane::upgrade(const std::string& plugin,
                             plugin::InstanceId from, plugin::InstanceId to,
                             bool retire, std::string* detail) {
  plugin::Plugin* pl = kernel_.pcu().find(plugin);
  if (!pl) return Status::not_found;
  plugin::PluginInstance* old_inst = pl->instance(from);
  plugin::PluginInstance* new_inst = pl->instance(to);
  if (!old_inst || !new_inst || old_inst == new_inst)
    return Status::invalid_argument;

  aiu::Aiu::HandoffResult sum = kernel_.aiu().handoff_instance(old_inst,
                                                               new_inst);
  if (sharded_) {
    std::vector<aiu::Aiu::HandoffResult> per(sharded_->workers());
    sharded_->gather([&](parallel::ShardContext& ctx) {
      plugin::Plugin* spl = ctx.pcu().find(plugin);
      plugin::PluginInstance* f = spl ? spl->instance(from) : nullptr;
      plugin::PluginInstance* t = spl ? spl->instance(to) : nullptr;
      if (f && t && f != t) per[ctx.id()] = ctx.aiu().handoff_instance(f, t);
    });
    for (const auto& h : per) {
      sum.filters_rebound += h.filters_rebound;
      sum.flows_rebound += h.flows_rebound;
      sum.state_migrated += h.state_migrated;
      sum.state_dropped += h.state_dropped;
    }
  }
  if (retire) {
    // Everything is rebound, so the free's purge hooks find nothing; this is
    // the "retire-old" step of create-new -> migrate -> retire-old.
    plugin::PluginMsg msg;
    msg.kind = plugin::PluginMsg::Kind::free_instance;
    msg.plugin_name = plugin;
    msg.instance = from;
    kernel_.pcu().dispatch(msg);
    if (sharded_) {
      sharded_->gather([&](parallel::ShardContext& ctx) {
        ctx.pcu().dispatch(msg);
      });
    }
  }
  ++stats_.upgrades;
  stats_.upgrade_filters_rebound += sum.filters_rebound;
  stats_.upgrade_flows_rebound += sum.flows_rebound;
  stats_.upgrade_state_migrated += sum.state_migrated;
  stats_.upgrade_state_dropped += sum.state_dropped;
  if (detail) {
    *detail = "filters_rebound=" + std::to_string(sum.filters_rebound) +
              " flows_rebound=" + std::to_string(sum.flows_rebound) +
              " state_migrated=" + std::to_string(sum.state_migrated) +
              " state_dropped=" + std::to_string(sum.state_dropped) +
              (retire ? " retired" : "");
  }
  return Status::ok;
}

std::string ControlPlane::status_text() const {
  const Stats& s = stats_;
  std::string out;
  out += "route_batches=" + std::to_string(s.route_batches) +
         " added=" + std::to_string(s.routes_added) +
         " updated=" + std::to_string(s.routes_updated) +
         " withdrawn=" + std::to_string(s.routes_withdrawn) +
         " failed=" + std::to_string(s.route_failures);
  out += "\nfilter_batches=" + std::to_string(s.filter_batches) +
         " added=" + std::to_string(s.filters_added) +
         " removed=" + std::to_string(s.filters_removed) +
         " failed=" + std::to_string(s.filter_failures) +
         " flows_invalidated=" + std::to_string(s.flows_invalidated);
  out += "\nupgrades=" + std::to_string(s.upgrades) +
         " filters_rebound=" + std::to_string(s.upgrade_filters_rebound) +
         " flows_rebound=" + std::to_string(s.upgrade_flows_rebound) +
         " state_migrated=" + std::to_string(s.upgrade_state_migrated) +
         " state_dropped=" + std::to_string(s.upgrade_state_dropped);
  out += "\nroutes=" + std::to_string(kernel_.routes().size()) +
         " hop_slots=" + std::to_string(kernel_.routes().hop_slots()) +
         " free_hops=" + std::to_string(kernel_.routes().free_hop_count());
  return out;
}

}  // namespace rp::ctrl
