// perfbench: real-stack benchmark of the IBBE-SGX system over a loopback
// NetServer.
//
//   perfbench --workload admin_churn|member_rekey|cold_join --seed N
//             --seconds S --trace 0|1 [--spans PATH]
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1 runs
// the workload untraced and then traced, prints the per-layer metrics taken
// from the traced run's spans, the untraced run's wall-clock latencies and
// the tracing overhead, and writes the spans to PATH. --seconds sets the op
// budget (see per_type() in workloads.cpp; never fewer than 100 of each op
// type). One line per metric
// ("name value unit") precedes the last line, a JSON object with the keys
// correct, attempted, failed and metrics. Exit status 0 only when every op
// succeeded and every correctness check held.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>

#include "analysis.h"
#include "tracer.h"
#include "workloads.h"

namespace {

using namespace perfbench;

/// Bootstraps per run for setup_s; the median is reported.
constexpr int kSetups = 7;

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::size_t count(const LoopResult& r, OpType t) {
  return r.ms[static_cast<int>(t)].size();
}

const std::vector<double>& cpu_ms(const LoopResult& r, OpType t) {
  return r.cpu_ms[static_cast<int>(t)];
}

const std::vector<double>& wall_ms(const LoopResult& r, OpType t) {
  return r.ms[static_cast<int>(t)];
}

std::string op_metric(const std::string& prefix, OpType t, const std::string& suffix) {
  return prefix + op_name(t) + suffix;
}

constexpr OpType kOps[] = {OpType::add, OpType::remove, OpType::fetch};

MetricTable end_to_end(const LoopResult& r, const std::vector<double>& setups) {
  MetricTable m;
  const std::size_t adds = count(r, OpType::add), removes = count(r, OpType::remove),
                    fetches = count(r, OpType::fetch);
  // CPU time, like the latencies below: on a shared host the bootstrap's
  // wall time moved by 2x between runs of one workload.
  m.add("setup_s", percentile(setups, 0.5), "s");
  // Latency is process CPU time, which leaves out the time the hypervisor
  // steals from the VM's vCPUs, taken at p90. On a shared host an op's CPU
  // time alternates, in phases of seconds, between a tight slow plateau and
  // faster, variable stretches. p50 moves with the share of the run spent
  // in the fast stretches; the plateau that p90 lands in recurs in every
  // run. p50 and wall-clock latencies are per-layer metrics of the traced
  // run.
  for (OpType t : kOps) {
    const std::string name = op_metric("", t, "_cpu_ms_p90");
    m.add(name, tail_percentile(name, cpu_ms(r, t), 0.9), "ms");
  }
  m.add("upload_bytes_per_op",
        ratio(static_cast<double>(r.admin_wire.bytes_put),
              static_cast<double>(adds + removes)),
        "B");
  m.add("download_bytes_per_op",
        ratio(static_cast<double>(r.client_wire.bytes_got), static_cast<double>(fetches)),
        "B");
  m.add("metadata_bytes", static_cast<double>(r.metadata_bytes), "B");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  return m;
}

/// Which op type trace.overhead_pct compares: the workload's primary op.
OpType primary_op(const std::string& workload) {
  return workload == "admin_churn" ? OpType::add : OpType::fetch;
}

MetricTable per_layer(const std::string& workload, const LoopResult& r,
                      const LoopResult& untraced, const std::vector<Span>& spans) {
  std::set<std::uint64_t> timed;
  for (const auto& ids : r.op_ids) timed.insert(ids.begin(), ids.end());
  const double n_ops = static_cast<double>(timed.size());
  const double adds = static_cast<double>(count(r, OpType::add));
  const double removes = static_cast<double>(count(r, OpType::remove));
  const double fetches = static_cast<double>(count(r, OpType::fetch));

  const auto self = self_times(spans);
  double cloud_calls = 0, cloud_ns = 0, rpcs = 0, rpc_ns = 0, net_self_ns = 0;
  double self_ns[op_types] = {};
  std::vector<double> rpc_us;
  for (const Span& s : spans) {
    if (timed.count(s.op) == 0) continue;  // set-up and correctness checks
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    if (s.name.rfind("cloud.", 0) == 0) {
      ++cloud_calls;
      cloud_ns += dur;
    } else if (s.name.rfind("net.", 0) == 0) {
      ++rpcs;
      rpc_ns += dur;
      rpc_us.push_back(dur * 1e-3);
      net_self_ns += static_cast<double>(self.at(s.id));
    } else if (s.name.rfind("op.", 0) == 0) {
      for (int t = 0; t < op_types; ++t) {
        if (s.name == std::string("op.") + op_name(static_cast<OpType>(t))) {
          self_ns[t] += static_cast<double>(self.at(s.id));
        }
      }
    }
  }
  const auto& c = r.client;
  MetricTable m;
  m.add("cloud.calls_per_op", ratio(cloud_calls, n_ops), "count");
  m.add("cloud.busy_ms_per_op", ratio(cloud_ns * 1e-6, n_ops), "ms");
  m.add("cloud.cas_conflicts", static_cast<double>(r.cloud.cas_conflicts), "count");
  m.add("net.rpcs_per_op", ratio(rpcs, n_ops), "count");
  m.add("net.rpc_ms_per_op", ratio(rpc_ns * 1e-6, n_ops), "ms");
  m.add("net.rpc_us_p50", rpc_us.empty() ? 0.0 : percentile(rpc_us, 0.5), "us");
  m.add("net.self_ms_per_op", ratio(net_self_ns * 1e-6, n_ops), "ms");
  m.add("net.busy_sheds", static_cast<double>(r.busy_sheds), "count");
  m.add("net.dedup_hits", static_cast<double>(r.dedup_hits), "count");
  m.add("net.bad_frames", static_cast<double>(r.bad_frames), "count");
  m.add("admin.self_ms_per_add", ratio(self_ns[0] * 1e-6, adds), "ms");
  m.add("admin.self_ms_per_remove", ratio(self_ns[1] * 1e-6, removes), "ms");
  m.add("admin.deltas_per_op",
        ratio(static_cast<double>(r.admin_delta.deltas_published), adds + removes),
        "count");
  m.add("admin.repartitions", static_cast<double>(r.admin_delta.repartitions), "count");
  m.add("admin.shard_repartitions",
        static_cast<double>(r.admin_delta.shard_repartitions), "count");
  m.add("admin.cas_conflicts", static_cast<double>(r.admin_delta.cas_conflicts), "count");
  m.add("admin.transient_retries",
        static_cast<double>(r.admin_delta.transient_retries), "count");
  m.add("admin.partitions", static_cast<double>(r.partitions), "count");
  m.add("admin.shards", static_cast<double>(r.shards), "count");
  m.add("admin.cloud_objects", static_cast<double>(r.cloud_objects), "count");
  m.add("admin.create_group_s", r.create_group_s, "s");
  m.add("enclave.ecalls_per_add", ratio(static_cast<double>(r.ecalls[0]), adds), "count");
  m.add("enclave.ecalls_per_remove", ratio(static_cast<double>(r.ecalls[1]), removes),
        "count");
  m.add("enclave.epc_peak_bytes", static_cast<double>(r.epc_peak_bytes), "B");
  m.add("enclave.setup_s", r.enclave_setup_s, "s");
  m.add("enclave.provision_ms", r.provision_ms_per_member, "ms");
  m.add("client.self_ms_per_fetch", ratio(self_ns[2] * 1e-6, fetches), "ms");
  m.add("client.rpcs_per_fetch",
        ratio(static_cast<double>(r.client_wire.calls), fetches), "count");
  m.add("client.delta_folds_per_fetch", ratio(static_cast<double>(c.delta_folds), fetches),
        "count");
  m.add("client.fold_fallbacks_per_fetch",
        ratio(static_cast<double>(c.fold_fallbacks), fetches), "count");
  m.add("client.fold_ratio",
        ratio(static_cast<double>(c.delta_folds),
              static_cast<double>(c.delta_folds + c.fold_fallbacks)),
        "fraction");
  m.add("client.decryptions_per_fetch",
        ratio(static_cast<double>(c.decryptions), fetches), "count");
  m.add("client.degraded_refetches", static_cast<double>(c.degraded_refetches), "count");
  m.add("client.signature_failures", static_cast<double>(c.signature_failures), "count");
  m.add("proc.cpu_per_wall", ratio(r.cpu_s, r.wall_s), "ratio");
  const double untraced_ops = static_cast<double>(
      count(untraced, OpType::add) + count(untraced, OpType::remove) +
      count(untraced, OpType::fetch));
  m.add("wall.ops_s", ratio(untraced_ops, untraced.wall_s), "1/s");
  m.add("wall.setup_s", untraced.setup_wall_s, "s");
  for (OpType t : kOps) {
    m.add(op_metric("cpu.", t, "_ms_p50"), percentile(cpu_ms(untraced, t), 0.5), "ms");
  }
  for (OpType t : kOps) {
    const std::string p90 = op_metric("wall.", t, "_ms_p90");
    m.add(op_metric("wall.", t, "_ms_p50"), percentile(wall_ms(untraced, t), 0.5), "ms");
    m.add(p90, tail_percentile(p90, wall_ms(untraced, t), 0.9), "ms");
  }
  const OpType p = primary_op(workload);
  const double base = percentile(cpu_ms(untraced, p), 0.5);
  m.add("trace.overhead_pct", 100.0 * (percentile(cpu_ms(r, p), 0.5) - base) / base,
        "%");
  m.add("failed_op_share",
        ratio(static_cast<double>(r.failed + untraced.failed),
              static_cast<double>(r.attempted + untraced.attempted)),
        "fraction");
  return m;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 == 0 || !args.count("workload") || !args.count("seed") ||
      !args.count("seconds") || !args.count("trace")) {
    return usage();
  }
  try {
    const std::string workload = args["workload"];
    const std::uint64_t seed = std::stoull(args["seed"]);
    const double seconds = std::stod(args["seconds"]);
    const bool trace = args["trace"] == "1";
    // A traced run makes two loops (untraced, then traced) in the same time.
    const double loop_seconds = trace ? seconds / 2 : seconds;

    MetricTable metrics;
    LoopResult r;
    if (!trace) {
      std::vector<double> setups;
      for (int i = 1; i < kSetups; ++i) {
        setups.push_back(bootstrap_seconds(workload, seed, loop_seconds));
      }
      r = run_workload(workload, seed, loop_seconds);
      setups.push_back(r.setup_s);
      metrics = end_to_end(r, setups);
    } else {
      const LoopResult untraced = run_workload(workload, seed, loop_seconds);
      Tracer::instance().set_enabled(true);
      r = run_workload(workload, seed, loop_seconds);
      Tracer::instance().set_enabled(false);
      const auto spans = Tracer::instance().spans();
      metrics = per_layer(workload, r, untraced, spans);
      if (args.count("spans")) Tracer::instance().write(args["spans"]);
      r.attempted += untraced.attempted;
      r.failed += untraced.failed;
    }
    for (const auto& [name, vu] : metrics.rows()) {
      std::printf("%-34s %14.6f %s\n", name.c_str(), vu.first, vu.second.c_str());
    }
    if (!trace) {
      std::printf("%-34s %14.6f fraction\n", "failed_op_share",
                  ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)));
    }
    const bool correct = r.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), metrics.to_json().c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
