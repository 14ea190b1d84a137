// Million-member group-state trajectory: what the sharded manifest + delta
// layout buys over the seed's monolithic member matrix, measured on the real
// AdminApi -> IbbeEnclave -> CloudStore stack. One group of 10⁶ members at
// the paper's |p| = 1000 (shards of k partitions, k from PartitionAdvisor)
// is created, then churned by add/remove pairs of a joiner; every metric
// below comes from that group.
//
//   mutation_ops_s       — membership mutations per second over the churn
//                          loop (admin CPU + enclave re-key + commit; the
//                          removes' gk rotation over 1000 partitions
//                          dominates);
//   index_bytes_per_op   — mean MEMBER-INDEX bytes the admin uploaded per
//                          mutation: the index, s<id> and d<seq> objects it
//                          put, counted at the store;
//   index_bytes_per_op_monolithic — the same group under the seed's layout:
//                          every mutation re-uploads one envelope-framed
//                          IndexShard holding every partition;
//   index_churn_ratio    — monolithic / sharded. HARD GATE: the bench exits
//                          non-zero below 100x, the acceptance bar for the
//                          layout;
//   delta_fold_us        — mean CachedIndex::apply of a committed delta (the
//                          manifest's head_delta()) into a warm view built
//                          from the committed shards: the online client's
//                          cost per commit;
//   peak_rss_mb          — VmHWM after everything above. --rss-ceiling-mb N
//                          turns it into a gate: exceeding N fails the run,
//                          so the million-member scenario cannot silently
//                          regress into matrix-sized allocations.
//
// Cipher objects (c<id> bundles, o<id> overlays, gk<e>.sealed) are excluded
// from the index bytes: bench_fig7 covers the cipher footprint, and the
// comparison here isolates the member-matrix cost the sharding replaced.
//
// Usage: bench_group_suite [--json PATH] [--scale smoke|default|full]
//                          [--rss-ceiling-mb N]
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "system/admin.h"
#include "system/metadata.h"
#include "util/stopwatch.h"

namespace {

using ibbe::core::Identity;
using ibbe::system::CachedIndex;
using ibbe::system::GroupManifest;
using ibbe::system::IndexShard;
using ibbe::system::SignedEnvelope;

/// An in-process store that also counts the bytes put to member-index
/// objects: the manifest ("index"), shards (s<id>) and deltas (d<seq>).
class IndexCountingStore : public ibbe::cloud::CloudStore {
 public:
  std::size_t index_bytes = 0;

  std::uint64_t put(const std::string& path, ibbe::util::Bytes value) override {
    count(path, value.size());
    return CloudStore::put(path, std::move(value));
  }
  std::optional<std::uint64_t> put_cas(const std::string& path,
                                       ibbe::util::Bytes value,
                                       std::uint64_t expected) override {
    count(path, value.size());
    return CloudStore::put_cas(path, std::move(value), expected);
  }

 private:
  void count(const std::string& path, std::size_t bytes) {
    const std::string name = path.substr(path.rfind('/') + 1);
    if (name == "index" ||
        (name.size() > 1 && (name[0] == 's' || name[0] == 'd') &&
         std::isdigit(static_cast<unsigned char>(name[1])))) {
      index_bytes += bytes;
    }
  }
};

/// Peak resident set (VmHWM) of this process, in MiB; 0 if unreadable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

/// The committed manifest of `gid` (signature not checked: the bench reads
/// what its own admin just wrote).
GroupManifest committed_manifest(const ibbe::cloud::CloudStore& cloud,
                                 const ibbe::system::GroupId& gid) {
  auto raw = cloud.get(ibbe::system::index_path(gid));
  return GroupManifest::from_bytes(SignedEnvelope::from_bytes(*raw).payload);
}

}  // namespace

int main(int argc, char** argv) {
  const ibbe::bench::Scale scale = ibbe::bench::parse_scale(argc, argv);
  long rss_ceiling_mb = 0;  // 0 = report only
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--rss-ceiling-mb") == 0) {
      rss_ceiling_mb = std::atol(argv[i + 1]);
    }
  }
  // The million-member scenario runs at EVERY scale — it is the point of the
  // suite; scale only varies the number of churn pairs.
  const std::size_t churn_pairs = scale == ibbe::bench::Scale::smoke  ? 10
                                  : scale == ibbe::bench::Scale::full ? 250
                                                                      : 50;
  const std::size_t members = 1'000'000;
  const std::size_t m = 1000;  // the paper's large-deployment |p|
  std::printf("# group suite [scale=%s, %zu members, |p|=%zu, %zu churn pairs]\n",
              ibbe::bench::scale_name(scale), members, m, churn_pairs);

  ibbe::sgx::EnclavePlatform platform("bench-group");
  ibbe::enclave::IbbeEnclave enclave(platform, m);
  IndexCountingStore cloud;
  ibbe::crypto::Drbg rng(7);
  ibbe::system::AdminConfig config;
  config.partition_size = m;  // shard_partitions = 0: the advisor picks k
  ibbe::system::AdminApi admin(enclave, cloud,
                               ibbe::pki::EcdsaKeyPair::generate(rng), config,
                               /*seed=*/3);
  const ibbe::system::GroupId gid = "g";
  {
    std::vector<Identity> users;
    users.reserve(members);
    for (std::size_t i = 0; i < members; ++i) {
      // append(), not "u" + ...: GCC 12 flags the latter with a false
      // -Wrestrict here.
      users.push_back(std::string("u").append(std::to_string(i)));
    }
    ibbe::util::Stopwatch sw;
    admin.create_group(gid, users);
    std::printf("  group: %zu members, %zu partitions, %zu shards, created in %s\n",
                admin.group_size(gid), admin.partition_count(gid),
                admin.shard_count(gid),
                ibbe::bench::fmt_seconds(sw.seconds()).c_str());
  }

  // A warm client's view, assembled from the committed shards; the same
  // partitions framed as one object are the seed's monolithic matrix.
  CachedIndex view;
  double monolithic_bytes = 0;
  {
    const GroupManifest manifest = committed_manifest(cloud, gid);
    IndexShard matrix;
    for (const auto& ref : manifest.shards) {
      auto raw = cloud.get(ibbe::system::shard_path(gid, ref.sid));
      IndexShard shard =
          IndexShard::from_bytes(SignedEnvelope::from_bytes(*raw).payload);
      for (auto& partition : shard.partitions) {
        matrix.partitions.push_back(std::move(partition));
      }
    }
    monolithic_bytes = static_cast<double>(
        SignedEnvelope{matrix.to_bytes(), {}}.to_bytes().size());
    for (auto& [pid, list] : matrix.partitions) {
      view.add_partition(pid, std::move(list));
    }
    view.counter = manifest.freshness.counter;
    view.log_head = manifest.freshness.log_head;
    (void)view.find_user("u0");  // build the lookup map outside the timing
  }

  // Churn: each pair adds a joiner and revokes it. Only the admin calls are
  // timed for mutation_ops_s; each commit's delta is then folded into the
  // warm view, as every online client does.
  const std::size_t bytes_before = cloud.index_bytes;
  double mutate_s = 0;
  double fold_us = 0;
  bool folds_ok = true;
  auto commit_and_fold = [&](auto&& mutate) {
    ibbe::util::Stopwatch op;
    mutate();
    mutate_s += op.seconds();
    const auto delta = committed_manifest(cloud, gid).head_delta();
    ibbe::util::Stopwatch fold;
    folds_ok = view.apply(delta) && folds_ok;
    fold_us += fold.micros();
  };
  for (std::size_t i = 0; i < churn_pairs; ++i) {
    const Identity joiner = "joiner" + std::to_string(i);
    commit_and_fold([&] { admin.add_user(gid, joiner); });
    commit_and_fold([&] { admin.remove_user(gid, joiner); });
  }
  const double ops = 2.0 * static_cast<double>(churn_pairs);
  const double sharded_bytes =
      static_cast<double>(cloud.index_bytes - bytes_before) / ops;
  const double ratio = monolithic_bytes / sharded_bytes;
  const double rss = peak_rss_mb();

  const bool json_ok = ibbe::bench::report(
      argc, argv,
      "group suite (" + std::string(ibbe::bench::scale_name(scale)) + ")",
      {{"mutation_ops_s", ops / mutate_s},
       {"index_bytes_per_op", sharded_bytes},
       {"index_bytes_per_op_monolithic", monolithic_bytes},
       {"index_churn_ratio", ratio},
       {"delta_fold_us", fold_us / ops},
       {"peak_rss_mb", rss}});

  // Acceptance gates: the sharded layout must beat the matrix by >=100x per
  // op at a million members, and the whole scenario must fit the ceiling.
  if (!folds_ok) {
    std::fprintf(stderr, "FAIL: a committed delta did not fold into the view\n");
    return 1;
  }
  if (ratio < 100.0) {
    std::fprintf(stderr,
                 "FAIL: index_churn_ratio %.1f < 100 — a membership op "
                 "uploads too much index\n",
                 ratio);
    return 1;
  }
  if (rss_ceiling_mb > 0 && rss > static_cast<double>(rss_ceiling_mb)) {
    std::fprintf(stderr, "FAIL: peak RSS %.0f MiB exceeds ceiling %ld MiB\n",
                 rss, rss_ceiling_mb);
    return 1;
  }
  return json_ok ? 0 : 1;
}
