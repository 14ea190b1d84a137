// The three closed-loop workloads, each driven by one load thread through a
// loopback NetServer with two connections: one for the admin, one shared by
// every ClientApi.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metered_store.h"
#include "system/admin.h"
#include "system/client.h"

namespace perfbench {

enum class OpType { add, remove, fetch };
constexpr int op_types = 3;
const char* op_name(OpType t);  // "add", "remove", "fetch"

/// Everything one measured loop produced.
struct LoopResult {
  std::vector<double> ms[op_types];             // wall latencies by op type
  std::vector<double> cpu_ms[op_types];         // process CPU per op, same order
  std::vector<std::uint64_t> op_ids[op_types];  // tracer op ids, same order
  std::uint64_t ecalls[op_types] = {};          // enclave ecalls by op type
  StoreCounts admin_wire;   // admin connection, summed over timed ops
  StoreCounts client_wire;  // client connection, summed over timed fetches
  ibbe::system::ClientStats client;  // summed over timed fetches
  ibbe::system::AdminStats admin_delta;  // admin stats over the loop
  std::uint64_t attempted = 0;  // timed ops + correctness checks
  std::uint64_t failed = 0;
  double wall_s = 0.0;      // loop wall time, correctness checks excluded
  double cpu_s = 0.0;       // process CPU over the same intervals
  // Set-up phases of the deployment the loop ran on.
  double setup_s = 0.0;       // process CPU time of the whole bootstrap
  double setup_wall_s = 0.0;  // its wall time
  double enclave_setup_s = 0.0;
  double provision_ms_per_member = 0.0;
  double create_group_s = 0.0;
  // End-of-run gauges.
  std::uint64_t metadata_bytes = 0;  // bytes the cloud stores
  std::uint64_t partitions = 0, shards = 0, cloud_objects = 0;
  std::uint64_t epc_peak_bytes = 0;
  StoreCounts cloud;  // backing store, over the loop
  std::uint64_t busy_sheds = 0, dedup_hits = 0, bad_frames = 0;
};

/// Fewest timed ops of any type a run makes, so each p90 has ten samples
/// beyond it (tail_percentile refuses a p90 that would not).
constexpr std::size_t min_per_type = 100;

/// Bootstraps a fresh deployment for `workload` (admin_churn, member_rekey
/// or cold_join), runs its timed loop for about `seconds` (never fewer than
/// min_per_type ops of any type) and returns what it measured. Throws
/// std::invalid_argument for an unknown workload and on any error the
/// workload cannot count as a failed op; calls std::_Exit(3) if a revoked
/// member is handed a key.
LoopResult run_workload(const std::string& workload, std::uint64_t seed,
                        double seconds);

/// Set-up CPU time alone (LoopResult::setup_s): bootstraps (and tears down)
/// the deployment run_workload would build.
double bootstrap_seconds(const std::string& workload, std::uint64_t seed,
                         double seconds);

}  // namespace perfbench
