// Workload entry points (see README.md for what each one stresses).
#pragma once

#include "harness.hpp"

namespace rb {

// cached_fwd, flow_setup and qos_churn: RouterKernel inject/run_until.
RunResult run_kernel_workload(const Args& a);
// sharded_multiq: ShardedDatapath::submit in multi-queue mode.
RunResult run_sharded_multiq(const Args& a);

}  // namespace rb
