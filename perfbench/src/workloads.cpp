#include "workloads.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <unordered_set>

#include "ibbe/ibbe.h"
#include "net/remote_store.h"
#include "net/server.h"
#include "pki/ecies.h"
#include "trace/trace.h"
#include "tracer.h"

namespace perfbench {

using ibbe::core::Identity;
using ibbe::core::UserSecretKey;
using ibbe::system::AdminApi;
using ibbe::system::ClientApi;
using FetchStatus = ibbe::system::ClientApi::FetchStatus;

const char* op_name(OpType t) {
  switch (t) {
    case OpType::add: return "add";
    case OpType::remove: return "remove";
    case OpType::fetch: return "fetch";
  }
  return "?";
}

namespace {

const ibbe::system::GroupId kGroup = "bench";

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// CPU time of every thread of the process (load thread, server sessions,
/// pool workers). Time the hypervisor steals from a vCPU is not in it.
std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct Shape {
  std::size_t members;
  std::size_t partition_size;
  bool log_operations;
};

/// One deployment: enclave, loopback server over a metered backing store,
/// one metered connection for the admin and one for all clients.
class Deployment {
 public:
  Deployment(const Shape& shape, std::uint64_t seed) : rng(seed ^ 0x5eed) {
    ScopedSpan span("setup.enclave");
    const std::int64_t t0 = now_ns();
    platform = std::make_unique<ibbe::sgx::EnclavePlatform>("perfbench");
    enclave = std::make_unique<ibbe::enclave::IbbeEnclave>(
        *platform, shape.partition_size, seed);
    enclave_setup_s = seconds_since(t0);
  }

  void start_server(const Shape& shape, std::uint64_t seed) {
    cloud = std::make_unique<MeteredStore>(backing, "cloud", false);
    server = std::make_unique<ibbe::net::NetServer>(*cloud);
    ibbe::net::RemoteStoreConfig cfg;
    cfg.port = server->port();
    cfg.server_identity = server->identity_key();
    cfg.request_deadline = std::chrono::milliseconds(20'000);
    admin_remote = std::make_unique<ibbe::net::RemoteStore>(cfg);
    client_remote = std::make_unique<ibbe::net::RemoteStore>(cfg);
    admin_wire = std::make_unique<MeteredStore>(*admin_remote, "net.admin", true);
    client_wire = std::make_unique<MeteredStore>(*client_remote, "net.client", true);
    ibbe::system::AdminConfig config;
    config.partition_size = shape.partition_size;
    config.log_operations = shape.log_operations;
    admin = std::make_unique<AdminApi>(*enclave, *admin_wire,
                                       ibbe::pki::EcdsaKeyPair::generate(rng),
                                       config, seed);
  }

  void create_group(std::span<const Identity> members) {
    ScopedSpan span("setup.create_group");
    const std::int64_t t0 = now_ns();
    admin->create_group(kGroup, members);
    create_group_s = seconds_since(t0);
  }

  /// Fig. 3 provisioning: the enclave extracts the user key and encrypts it
  /// to a fresh channel key the user holds.
  UserSecretKey provision(const Identity& id) {
    ScopedSpan span("setup.provision");
    const std::int64_t t0 = now_ns();
    auto channel = ibbe::pki::EciesKeyPair::generate(rng);
    auto blob = enclave->ecall_provision_user_key(id, channel.public_key_bytes());
    auto bytes = channel.decrypt(blob);
    if (!bytes) throw std::runtime_error("provisioning channel corrupted");
    provision_s += seconds_since(t0);
    ++provisioned;
    return UserSecretKey::from_bytes(*bytes);
  }

  std::unique_ptr<ClientApi> client(UserSecretKey usk) {
    return std::make_unique<ClientApi>(*client_wire, enclave->public_key(),
                                       std::move(usk),
                                       admin->verification_point());
  }

  ibbe::crypto::Drbg rng;
  double enclave_setup_s = 0.0;
  double create_group_s = 0.0;
  double provision_s = 0.0;
  std::size_t provisioned = 0;

  // Declaration order is teardown order reversed: the admin and the
  // connections go before the server, the server before its store.
  std::unique_ptr<ibbe::sgx::EnclavePlatform> platform;
  std::unique_ptr<ibbe::enclave::IbbeEnclave> enclave;
  ibbe::cloud::CloudStore backing;
  std::unique_ptr<MeteredStore> cloud;
  std::unique_ptr<ibbe::net::NetServer> server;
  std::unique_ptr<ibbe::net::RemoteStore> admin_remote, client_remote;
  std::unique_ptr<MeteredStore> admin_wire, client_wire;
  std::unique_ptr<AdminApi> admin;
};

/// Adds the counters the report uses from `after - before`.
void add_delta(ibbe::system::ClientStats& into, const ibbe::system::ClientStats& after,
               const ibbe::system::ClientStats& before) {
  into.decryptions += after.decryptions - before.decryptions;
  into.signature_failures += after.signature_failures - before.signature_failures;
  into.degraded_refetches += after.degraded_refetches - before.degraded_refetches;
  into.delta_folds += after.delta_folds - before.delta_folds;
  into.fold_fallbacks += after.fold_fallbacks - before.fold_fallbacks;
}

/// Times ops one at a time on the load thread, publishing each op's id to
/// the tracer, and keeps correctness checks out of the loop's wall time.
class Recorder {
 public:
  Recorder(Deployment& d, LoopResult& r) : d_(d), r_(r) {}

  void start() {
    admin_before_ = d_.admin->stats();
    cloud_before_ = d_.cloud->counts();
    server_before_ = d_.server->stats();
    resume();
  }

  void finish() {
    pause();
    const auto& a = d_.admin->stats();
    auto& out = r_.admin_delta;
    out.repartitions = a.repartitions - admin_before_.repartitions;
    out.shard_repartitions = a.shard_repartitions - admin_before_.shard_repartitions;
    out.deltas_published = a.deltas_published - admin_before_.deltas_published;
    out.cas_conflicts = a.cas_conflicts - admin_before_.cas_conflicts;
    out.transient_retries = a.transient_retries - admin_before_.transient_retries;
    r_.cloud = d_.cloud->counts() - cloud_before_;
    const auto s = d_.server->stats();
    r_.busy_sheds = (s.busy_handshakes + s.busy_requests + s.busy_polls +
                     s.shed_connections) -
                    (server_before_.busy_handshakes + server_before_.busy_requests +
                     server_before_.busy_polls + server_before_.shed_connections);
    r_.dedup_hits = s.dedup_hits - server_before_.dedup_hits;
    r_.bad_frames = s.bad_frames - server_before_.bad_frames;
    r_.metadata_bytes = d_.backing.stored_bytes() - base_bytes_;
    r_.partitions = d_.admin->partition_count(group_);
    r_.shards = d_.admin->shard_count(group_);
    r_.cloud_objects = d_.admin->cloud_object_count(group_);
    r_.epc_peak_bytes = d_.enclave->epc_bytes_peak();
  }

  void add(const Identity& id) {
    timed(OpType::add, [&] {
      d_.admin->add_user(group_, id);
      return d_.admin->is_member(group_, id);
    });
  }

  void remove(const Identity& id) {
    timed(OpType::remove, [&] {
      d_.admin->remove_user(group_, id);
      return !d_.admin->is_member(group_, id);
    });
  }

  /// Timed fetch; returns the key, or nullopt (counted failed) when the
  /// status is not ok.
  std::optional<ibbe::util::Bytes> fetch(ClientApi& c) {
    std::optional<ibbe::util::Bytes> key;
    const auto before = c.stats();
    const auto wire_before = d_.client_wire->counts();
    timed(OpType::fetch, [&] {
      auto res = c.fetch(group_);
      if (res.status != FetchStatus::ok || !res.key) return false;
      key = std::move(res.key);
      return true;
    });
    add_delta(r_.client, c.stats(), before);
    r_.client_wire += d_.client_wire->counts() - wire_before;
    return key;
  }

  /// Untimed correctness check outside the loop's wall time; `check`
  /// returns whether it held.
  template <typename F>
  void check(F&& check) {
    untimed([&] {
      ++r_.attempted;
      bool ok = false;
      try {
        ok = check();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "check threw: %s\n", e.what());
      }
      if (!ok) ++r_.failed;
    });
  }

  /// Work outside the loop's wall time that is neither an op nor a check.
  template <typename F>
  void untimed(F&& work) {
    pause();
    work();
    resume();
  }

  /// Creates `gid` outside the loop's wall time and points later ops at it;
  /// the end-of-run gauges then describe this group alone.
  void start_group(const ibbe::system::GroupId& gid, std::span<const Identity> members) {
    untimed([&] {
      base_bytes_ = d_.backing.stored_bytes();
      d_.admin->create_group(gid, members);
      group_ = gid;
    });
  }

  [[nodiscard]] const ibbe::system::GroupId& group() const { return group_; }

 private:
  template <typename F>
  void timed(OpType t, F&& op) {
    const auto type = static_cast<int>(t);
    const std::uint64_t id = ++next_op_;
    Tracer::instance().set_op(id);
    const auto wire_before = d_.admin_wire->counts();
    const std::uint64_t ecalls_before = d_.enclave->ecall_count();
    ++r_.attempted;
    bool ok = false;
    std::int64_t t0 = 0, t1 = 0, c0 = 0, c1 = 0;
    {
      static const char* const span_names[] = {"op.add", "op.remove", "op.fetch"};
      ScopedSpan span(span_names[type]);
      c0 = process_cpu_ns();
      t0 = now_ns();
      try {
        ok = op();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s threw: %s\n", op_name(t), e.what());
      }
      t1 = now_ns();
      c1 = process_cpu_ns();
    }
    Tracer::instance().set_op(0);
    if (!ok) {
      ++r_.failed;
      return;
    }
    r_.ms[type].push_back(static_cast<double>(t1 - t0) * 1e-6);
    r_.cpu_ms[type].push_back(static_cast<double>(c1 - c0) * 1e-6);
    r_.op_ids[type].push_back(id);
    r_.ecalls[type] += d_.enclave->ecall_count() - ecalls_before;
    if (t != OpType::fetch) r_.admin_wire += d_.admin_wire->counts() - wire_before;
  }

  void pause() {
    r_.wall_s += seconds_since(run_start_);
    r_.cpu_s += static_cast<double>(process_cpu_ns() - cpu_start_) * 1e-9;
  }
  void resume() {
    run_start_ = now_ns();
    cpu_start_ = process_cpu_ns();
  }

  Deployment& d_;
  LoopResult& r_;
  ibbe::system::GroupId group_ = kGroup;
  std::size_t base_bytes_ = 0;  // bytes stored before group_ was created
  std::uint64_t next_op_ = 0;
  std::int64_t run_start_ = 0;
  std::int64_t cpu_start_ = 0;
  ibbe::system::AdminStats admin_before_;
  StoreCounts cloud_before_;
  ibbe::net::NetServerStats server_before_;
};

/// Distinct indices in [0, n) drawn from `rng`, in draw order.
std::vector<std::size_t> sample_indices(ibbe::crypto::Drbg& rng, std::size_t n,
                                        std::size_t k) {
  std::vector<std::size_t> out;
  std::unordered_set<std::size_t> seen;
  while (out.size() < k) {
    auto i = static_cast<std::size_t>(rng.uniform(n));
    if (seen.insert(i).second) out.push_back(i);
  }
  return out;
}

std::vector<Identity> numbered(const std::string& prefix, std::size_t n) {
  std::vector<Identity> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ids.push_back(prefix + std::to_string(i));
  return ids;
}

void fail_revoked_key(const Identity& id) {
  std::fprintf(stderr, "FATAL: revoked member %s was handed a group key\n",
               id.c_str());
  std::fflush(nullptr);
  std::_Exit(3);  // at once: server threads are still running
}

/// A workload: its deployment shape, set-up (after create_group, still
/// timed as set-up) and measured loop.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] virtual Shape shape() const = 0;
  [[nodiscard]] virtual std::vector<Identity> initial_members() const = 0;
  /// Provisioning, client construction and untimed warm-up ops.
  virtual void prepare(Deployment& d) = 0;
  virtual void loop(Deployment& d, Recorder& rec) = 0;
};

// ---------------------------------------------------------------- admin_churn
// The admin side of the membership claim: a 2,000-member group at |p|=64
// replays a 50% revocation trace with the audit log on, so the group size
// holds steady. One witness member fetches after every revocation and must
// see a fresh key. Adds and revocations alternate: a random mix would move
// each seed's share of revocations and the history length at each add, and
// with them the upload per op.
//
// Every upload carries the op-log, so an op costs O(history): over one trace
// an add grows from ~4 to ~35 ms after 250 ops. A single long trace would
// put every p90 sample in the last seconds of the run, where the host's
// speed in those seconds decides it. The trace is therefore short and
// replayed in epochs, each on a fresh group created outside the loop's time,
// so the costliest ops of each epoch are spread over the whole run.
class AdminChurn : public Workload {
 public:
  AdminChurn(std::uint64_t seed, std::size_t per_type)
      : epochs_((2 * per_type + kEpochOps - 1) / kEpochOps) {
    ibbe::crypto::Drbg rng(seed);
    std::vector<Identity> live = numbered("init", kMembers);
    trace_.initial_members = live;
    witness_ = live[rng.uniform(kMembers)];
    for (const Identity& user : numbered("u", kEpochOps / 2)) {
      trace_.ops.push_back({ibbe::trace::OpKind::add, user});
      live.push_back(user);
      std::size_t victim = 0;
      do {
        victim = static_cast<std::size_t>(rng.uniform(live.size()));
      } while (live[victim] == witness_);
      trace_.ops.push_back({ibbe::trace::OpKind::remove, live[victim]});
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
  }

  Shape shape() const override { return {kMembers, 64, true}; }
  std::vector<Identity> initial_members() const override {
    return trace_.initial_members;
  }

  void prepare(Deployment& d) override {
    witness_client_ = d.client(d.provision(witness_));
    warm_up(d, kGroup);
  }

  void loop(Deployment& d, Recorder& rec) override {
    for (std::size_t epoch = 0; epoch < epochs_; ++epoch) {
      if (epoch > 0) {
        rec.start_group(kGroup + "." + std::to_string(epoch), trace_.initial_members);
        rec.untimed([&] { warm_up(d, rec.group()); });
      }
      replay(d, rec);
    }
  }

 private:
  static constexpr std::size_t kMembers = 2'000;
  // Ops per epoch: an add's op-log upload grows ~3x over them.
  static constexpr std::size_t kEpochOps = 64;

  /// Untimed ops that build the group's lazy tables and fill the witness's
  /// cache, so that no epoch's first fetch is a cold snapshot.
  void warm_up(Deployment& d, const ibbe::system::GroupId& gid) {
    d.admin->add_user(gid, "warmup");
    d.admin->remove_user(gid, "warmup");
    auto res = witness_client_->fetch(gid);
    if (res.status != FetchStatus::ok) throw std::runtime_error("warm-up fetch failed");
    key_ = *res.key;
  }

  void replay(Deployment& d, Recorder& rec) {
    for (const auto& op : trace_.ops) {
      if (op.kind == ibbe::trace::OpKind::add) {
        rec.add(op.user);
        continue;
      }
      rec.remove(op.user);
      auto key = rec.fetch(*witness_client_);
      rec.check([&] {
        bool rotated = key && *key != key_;
        if (key) key_ = *key;
        return rotated;
      });
    }
    rec.check([&] {
      return d.admin->group_size(rec.group()) == trace_.final_members().size();
    });
    rec.check([&] {
      auto audit = d.admin->audit_group_log(rec.group());
      if (!audit.ok) std::fprintf(stderr, "audit: %s\n", audit.failure.c_str());
      return audit.ok;
    });
  }

  std::size_t epochs_;
  ibbe::trace::MembershipTrace trace_;
  Identity witness_;
  std::unique_ptr<ClientApi> witness_client_;
  ibbe::util::Bytes key_;
};

// --------------------------------------------------------------- member_rekey
// The member side of revocation: each round revokes one non-sampled member
// of a 4,000-member group (|p|=128), adds a replacement, then each of kWarm
// warm members fetches once — folding two deltas, downloading the rotated
// bundle and decrypting.
class MemberRekey : public Workload {
 public:
  MemberRekey(std::uint64_t seed, std::size_t per_type)
      : rounds_(per_type),
        members_(numbered("m", kMembers)),
        replacements_(numbered("r", per_type + 1)) {
    ibbe::crypto::Drbg rng(seed);
    auto picks = sample_indices(rng, kMembers, kWarm + rounds_ + 1);
    for (std::size_t i = 0; i < kWarm; ++i) warm_.push_back(members_[picks[i]]);
    for (std::size_t i = kWarm; i < picks.size(); ++i) {
      victims_.push_back(members_[picks[i]]);
    }
  }

  Shape shape() const override { return {kMembers, 128, false}; }
  std::vector<Identity> initial_members() const override { return members_; }

  void prepare(Deployment& d) override {
    for (const auto& id : warm_) clients_.push_back(d.client(d.provision(id)));
    for (std::size_t r = 0; r <= rounds_; ++r) {
      if (checks_revocation(r)) victim_keys_.emplace(r, d.provision(victims_[r]));
    }
    // Warm-up round: fills every cache and builds the lazy lookup tables.
    d.admin->remove_user(kGroup, victims_[0]);
    d.admin->add_user(kGroup, replacements_[0]);
    for (auto& c : clients_) {
      auto res = c->fetch(kGroup);
      if (res.status != FetchStatus::ok) throw std::runtime_error("warm-up fetch failed");
      key_ = *res.key;
    }
  }

  void loop(Deployment& d, Recorder& rec) override {
    for (std::size_t r = 1; r <= rounds_; ++r) {
      rec.remove(victims_[r]);
      rec.add(replacements_[r]);
      std::vector<std::optional<ibbe::util::Bytes>> keys;
      for (auto& c : clients_) keys.push_back(rec.fetch(*c));
      rec.check([&] {
        bool ok = keys[0] && *keys[0] != key_;
        for (const auto& k : keys) ok = ok && k && *k == *keys[0];
        if (keys[0]) key_ = *keys[0];
        return ok;
      });
      if (checks_revocation(r)) {
        rec.check([&] {
          auto revoked = d.client(victim_keys_.at(r));
          auto res = revoked->fetch(kGroup);
          if (res.status == FetchStatus::ok) fail_revoked_key(victims_[r]);
          return res.status == FetchStatus::not_member;
        });
      }
    }
  }

 private:
  static constexpr std::size_t kMembers = 4'000;
  static constexpr std::size_t kWarm = 2;
  // A revoked member's check is a cold fetch of the whole group; sample it.
  [[nodiscard]] bool checks_revocation(std::size_t r) const {
    return r > 0 && (r % 25 == 0 || r == rounds_);
  }

  std::size_t rounds_;
  std::vector<Identity> members_;
  std::vector<Identity> replacements_;
  std::vector<Identity> warm_;
  std::vector<Identity> victims_;
  std::map<std::size_t, UserSecretKey> victim_keys_;
  std::vector<std::unique_ptr<ClientApi>> clients_;
  ibbe::util::Bytes key_;
};

// ------------------------------------------------------------------ cold_join
// New devices joining a 5,000-member group (|p|=256): each cycle retires the
// last joined device, admits a new one, and the new device's fresh ClientApi makes
// one timed fetch through the full snapshot path. A warm reference member
// re-fetches untimed; every joiner's key must equal its key.
class ColdJoin : public Workload {
 public:
  ColdJoin(std::uint64_t seed, std::size_t per_type)
      : cycles_(per_type), members_(numbered("c", kMembers)),
        joiners_(numbered("j", per_type + 1)) {
    ibbe::crypto::Drbg rng(seed);
    reference_ = members_[rng.uniform(kMembers)];
  }

  Shape shape() const override { return {kMembers, 256, false}; }
  std::vector<Identity> initial_members() const override { return members_; }

  void prepare(Deployment& d) override {
    reference_client_ = d.client(d.provision(reference_));
    for (const auto& id : joiners_) joiner_keys_.push_back(d.provision(id));
    d.admin->add_user(kGroup, joiners_[0]);
    auto ref = reference_client_->fetch(kGroup);
    auto first = d.client(joiner_keys_[0])->fetch(kGroup);
    if (ref.status != FetchStatus::ok || first.status != FetchStatus::ok ||
        *ref.key != *first.key) {
      throw std::runtime_error("warm-up fetch failed");
    }
  }

  void loop(Deployment& d, Recorder& rec) override {
    for (std::size_t i = 1; i <= cycles_; ++i) {
      rec.remove(joiners_[i - 1]);
      rec.add(joiners_[i]);
      auto device = d.client(joiner_keys_[i]);
      auto key = rec.fetch(*device);
      rec.check([&] {
        auto ref = reference_client_->fetch(kGroup);
        return key && ref.status == FetchStatus::ok && *ref.key == *key;
      });
    }
  }

 private:
  static constexpr std::size_t kMembers = 5'000;
  std::size_t cycles_;
  std::vector<Identity> members_;
  std::vector<Identity> joiners_;
  Identity reference_;
  std::vector<UserSecretKey> joiner_keys_;
  std::unique_ptr<ClientApi> reference_client_;
};

/// Timed ops of the rarest type for a loop of about `seconds`, given how
/// many the workload completes per second on a 4-vCPU x86-64 VM; never
/// below min_per_type.
std::size_t per_type(double ops_per_second, double seconds) {
  return std::max(min_per_type,
                  static_cast<std::size_t>(std::ceil(ops_per_second * seconds)));
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, double seconds) {
  if (name == "admin_churn") {
    return std::make_unique<AdminChurn>(seed, per_type(7.0, seconds));
  }
  if (name == "member_rekey") {
    return std::make_unique<MemberRekey>(seed, per_type(4.8, seconds));
  }
  if (name == "cold_join") {
    return std::make_unique<ColdJoin>(seed, per_type(6.0, seconds));
  }
  throw std::invalid_argument("unknown workload: " + name);
}

/// The deployment's real bootstrap, timed end to end: enclave Setup, server
/// start, create_group, provisioning of every driven member, warm-up ops.
std::unique_ptr<Deployment> bootstrap(Workload& w, std::uint64_t seed,
                                      LoopResult& r) {
  const std::int64_t c0 = process_cpu_ns();
  const std::int64_t t0 = now_ns();
  const Shape shape = w.shape();
  auto d = std::make_unique<Deployment>(shape, seed);
  d->start_server(shape, seed);
  d->create_group(w.initial_members());
  const double created = seconds_since(t0);
  w.prepare(*d);
  r.setup_wall_s = seconds_since(t0);
  r.setup_s = static_cast<double>(process_cpu_ns() - c0) * 1e-9;
  std::fprintf(stderr,
               "set-up %.3f s CPU, %.3f s wall (enclave %.3f, create_group %.3f, "
               "prepare %.3f)\n",
               r.setup_s, r.setup_wall_s, d->enclave_setup_s, d->create_group_s,
               r.setup_wall_s - created);
  r.enclave_setup_s = d->enclave_setup_s;
  r.create_group_s = d->create_group_s;
  r.provision_ms_per_member =
      d->provisioned ? 1e3 * d->provision_s / static_cast<double>(d->provisioned) : 0.0;
  return d;
}

}  // namespace

double bootstrap_seconds(const std::string& workload, std::uint64_t seed,
                         double seconds) {
  auto w = make_workload(workload, seed, seconds);
  LoopResult r;
  auto d = bootstrap(*w, seed, r);
  w.reset();  // clients before the connections they hold
  return r.setup_s;
}

LoopResult run_workload(const std::string& workload, std::uint64_t seed,
                        double seconds) {
  auto w = make_workload(workload, seed, seconds);
  LoopResult r;
  auto d = bootstrap(*w, seed, r);
  Recorder rec(*d, r);
  rec.start();
  w->loop(*d, rec);
  rec.finish();
  w.reset();  // clients before the connections they hold
  return r;
}

}  // namespace perfbench
