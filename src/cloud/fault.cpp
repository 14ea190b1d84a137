#include "cloud/fault.h"

#include <algorithm>
#include <set>
#include <thread>

#include "util/retry.h"

namespace ibbe::cloud {

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// True for a group's membership-log delta, ".../d<digits>".
bool is_delta_path(const std::string& path) {
  auto slash = path.rfind('/');
  if (slash == std::string::npos || slash + 2 >= path.size() ||
      path[slash + 1] != 'd') {
    return false;
  }
  return std::all_of(path.begin() + static_cast<std::ptrdiff_t>(slash) + 2,
                     path.end(), [](char c) { return c >= '0' && c <= '9'; });
}

}  // namespace

FaultInjectingStore::FaultInjectingStore(CloudStore& inner, FaultPlan plan)
    : inner_(inner), plan_(plan), rng_state_(plan.seed) {}

bool FaultInjectingStore::roll_locked(double rate) const {
  if (rate <= 0.0) return false;
  double unit = static_cast<double>(util::splitmix64(rng_state_) >> 11) /
                static_cast<double>(1ull << 53);  // [0, 1)
  return unit < rate;
}

void FaultInjectingStore::fire_hook(const std::string& path) {
  const auto me = std::this_thread::get_id();
  std::function<void(const std::string&)> hook;
  {
    std::lock_guard lock(mutex_);
    if (!write_hook_ || hook_active_threads_.count(me) != 0) return;
    hook = write_hook_;
    hook_active_threads_.insert(me);
  }
  try {
    hook(path);
  } catch (...) {
    std::lock_guard lock(mutex_);
    hook_active_threads_.erase(me);
    throw;
  }
  std::lock_guard lock(mutex_);
  hook_active_threads_.erase(me);
}

void FaultInjectingStore::mutation_gate(const std::string& what) {
  std::lock_guard lock(mutex_);
  ++mutations_;
  if (crash_at_ != 0 && mutations_ >= crash_at_) {
    crash_at_ = 0;
    ++fault_stats_.crashes;
    throw CrashError("injected crash (armed) at " + what);
  }
  if (!enabled_) return;
  if (roll_locked(plan_.crash_rate)) {
    ++fault_stats_.crashes;
    throw CrashError("injected crash at " + what);
  }
  if (roll_locked(plan_.put_error_rate)) {
    ++fault_stats_.transient_errors;
    throw TransientError("injected transient error at " + what);
  }
}

void FaultInjectingStore::ambiguity_gate(const std::string& what) {
  std::lock_guard lock(mutex_);
  if (!enabled_) return;
  if (roll_locked(plan_.ambiguous_put_rate)) {
    ++fault_stats_.ambiguous_puts;
    throw TransientError("injected ambiguous (applied) write at " + what);
  }
}

void FaultInjectingStore::record_previous(const std::string& path) {
  // Only needed when stale reads can be served at all.
  if (plan_.stale_read_rate <= 0.0) return;
  auto current = inner_.get_versioned(path);
  if (!current) return;
  std::lock_guard lock(mutex_);
  previous_[path] = std::move(*current);
}

std::uint64_t FaultInjectingStore::put(const std::string& path,
                                       util::Bytes value) {
  fire_hook(path);
  mutation_gate("put " + path);
  record_previous(path);
  auto version = inner_.put(path, std::move(value));
  ambiguity_gate("put " + path);
  return version;
}

std::optional<std::uint64_t> FaultInjectingStore::put_cas(
    const std::string& path, util::Bytes value, std::uint64_t expected) {
  fire_hook(path);
  mutation_gate("put_cas " + path);
  {
    std::lock_guard lock(mutex_);
    if (enabled_ && roll_locked(plan_.spurious_cas_rate)) {
      ++fault_stats_.spurious_cas;
      return std::nullopt;  // reported conflict, nothing applied
    }
  }
  record_previous(path);
  auto version = inner_.put_cas(path, std::move(value), expected);
  if (version) ambiguity_gate("put_cas " + path);
  return version;
}

std::optional<util::Bytes> FaultInjectingStore::get(
    const std::string& path) const {
  {
    std::lock_guard lock(mutex_);
    if (enabled_ && roll_locked(plan_.get_error_rate)) {
      ++fault_stats_.transient_errors;
      throw TransientError("injected transient error at get " + path);
    }
    if (withheld_.count(path) != 0) {
      ++fault_stats_.stale_reads;
      return std::nullopt;  // lagging replica: committed but not served yet
    }
    if (enabled_ && roll_locked(plan_.stale_read_rate)) {
      auto it = previous_.find(path);
      if (it != previous_.end()) {
        ++fault_stats_.stale_reads;
        return it->second.value;
      }
    }
  }
  return inner_.get(path);
}

std::optional<CloudStore::Versioned> FaultInjectingStore::get_versioned(
    const std::string& path) const {
  {
    std::lock_guard lock(mutex_);
    if (enabled_ && roll_locked(plan_.get_error_rate)) {
      ++fault_stats_.transient_errors;
      throw TransientError("injected transient error at get " + path);
    }
    if (withheld_.count(path) != 0) {
      ++fault_stats_.stale_reads;
      return std::nullopt;  // lagging replica: committed but not served yet
    }
    if (enabled_ && roll_locked(plan_.stale_read_rate)) {
      auto it = previous_.find(path);
      if (it != previous_.end()) {
        ++fault_stats_.stale_reads;
        return it->second;
      }
    }
  }
  return inner_.get_versioned(path);
}

std::uint64_t FaultInjectingStore::file_version(const std::string& path) const {
  return inner_.file_version(path);
}

bool FaultInjectingStore::erase(const std::string& path) {
  mutation_gate("erase " + path);
  record_previous(path);
  return inner_.erase(path);
}

std::vector<std::string> FaultInjectingStore::list(
    const std::string& prefix) const {
  {
    std::lock_guard lock(mutex_);
    if (enabled_ && roll_locked(plan_.get_error_rate)) {
      ++fault_stats_.transient_errors;
      throw TransientError("injected transient error at list " + prefix);
    }
  }
  return inner_.list(prefix);
}

std::uint64_t FaultInjectingStore::dir_version(const std::string& dir) const {
  return inner_.dir_version(dir);
}

std::optional<std::uint64_t> FaultInjectingStore::long_poll(
    const std::string& dir, std::uint64_t since,
    std::chrono::milliseconds timeout) const {
  {
    std::lock_guard lock(mutex_);
    if (enabled_ && roll_locked(plan_.poll_timeout_rate)) {
      ++fault_stats_.poll_timeouts;
      return std::nullopt;  // spurious timeout; the next poll catches up
    }
  }
  return inner_.long_poll(dir, since, timeout);
}

CloudStats FaultInjectingStore::stats() const {
  auto s = inner_.stats();
  std::lock_guard lock(mutex_);
  s.faults_injected += fault_stats_.total();
  s.crashes_injected += fault_stats_.crashes;
  return s;
}

std::size_t FaultInjectingStore::stored_bytes() const {
  return inner_.stored_bytes();
}

void FaultInjectingStore::arm_crash_after(std::uint64_t n) {
  std::lock_guard lock(mutex_);
  crash_at_ = mutations_ + n;
}

void FaultInjectingStore::disarm() {
  std::lock_guard lock(mutex_);
  crash_at_ = 0;
}

std::uint64_t FaultInjectingStore::mutation_ops() const {
  std::lock_guard lock(mutex_);
  return mutations_;
}

void FaultInjectingStore::set_faults_enabled(bool enabled) {
  std::lock_guard lock(mutex_);
  enabled_ = enabled;
}

FaultStats FaultInjectingStore::fault_stats() const {
  std::lock_guard lock(mutex_);
  return fault_stats_;
}

void FaultInjectingStore::withhold_path(const std::string& path) {
  std::lock_guard lock(mutex_);
  withheld_.insert(path);
}

void FaultInjectingStore::clear_withheld() {
  std::lock_guard lock(mutex_);
  withheld_.clear();
}

void FaultInjectingStore::set_write_hook(
    std::function<void(const std::string&)> hook) {
  std::lock_guard lock(mutex_);
  write_hook_ = std::move(hook);
}

// ---------------------------------------------------------------------------
// MaliciousStore
// ---------------------------------------------------------------------------

/// A named facade over the parent store: every call routes through the
/// *_for() family with this view's name, so two View objects can be served
/// divergent generations (a fork) while sharing the same live write path.
class MaliciousStore::View : public CloudStore {
 public:
  View(MaliciousStore& parent, std::string name)
      : parent_(parent), name_(std::move(name)) {}

  std::uint64_t put(const std::string& path, util::Bytes value) override {
    return parent_.put_for(name_, path, std::move(value));
  }
  std::optional<std::uint64_t> put_cas(const std::string& path,
                                       util::Bytes value,
                                       std::uint64_t expected) override {
    return parent_.put_cas_for(name_, path, std::move(value), expected);
  }
  std::optional<util::Bytes> get(const std::string& path) const override {
    return parent_.get_for(name_, path);
  }
  std::optional<Versioned> get_versioned(const std::string& path) const override {
    return parent_.get_versioned_for(name_, path);
  }
  std::uint64_t file_version(const std::string& path) const override {
    return parent_.file_version_for(name_, path);
  }
  bool erase(const std::string& path) override { return parent_.erase(path); }
  std::vector<std::string> list(const std::string& prefix) const override {
    return parent_.list_for(name_, prefix);
  }
  std::uint64_t dir_version(const std::string& dir) const override {
    return parent_.dir_version_for(name_, dir);
  }
  std::optional<std::uint64_t> long_poll(
      const std::string& dir, std::uint64_t since,
      std::chrono::milliseconds timeout) const override {
    return parent_.long_poll_for(name_, dir, since, timeout);
  }
  CloudStats stats() const override { return parent_.stats(); }
  std::size_t stored_bytes() const override { return parent_.stored_bytes(); }

 private:
  MaliciousStore& parent_;
  std::string name_;
};

MaliciousStore::MaliciousStore(CloudStore& inner, MaliciousPlan plan)
    : inner_(inner), plan_(std::move(plan)), rng_state_(plan_.seed) {}

MaliciousStore::~MaliciousStore() = default;

bool MaliciousStore::targeted(const std::string& path) const {
  return path.rfind(plan_.target_prefix, 0) == 0;
}

bool MaliciousStore::roll_locked(double rate) const {
  if (rate <= 0.0) return false;
  double unit = static_cast<double>(util::splitmix64(rng_state_) >> 11) /
                static_cast<double>(1ull << 53);  // [0, 1)
  return unit < rate;
}

MaliciousStore::Snapshot MaliciousStore::take_snapshot() const {
  Snapshot snap;
  for (const auto& path : inner_.list(plan_.target_prefix)) {
    if (auto v = inner_.get_versioned(path)) snap.files[path] = std::move(*v);
  }
  // Capture every ancestor directory's version too, so a rolled-back view's
  // change notifications are as stale as its files.
  std::set<std::string> dirs;
  for (const auto& [path, unused] : snap.files) {
    auto pos = path.rfind('/');
    while (pos != std::string::npos && pos > 0) {
      dirs.insert(path.substr(0, pos));
      pos = path.rfind('/', pos - 1);
    }
  }
  for (const auto& d : dirs) snap.dir_versions[d] = inner_.dir_version(d);
  return snap;
}

void MaliciousStore::auto_capture(const std::string& path) {
  // A landed index write is the system's commit point: snapshot the
  // committed generation it produced.
  if (targeted(path) && ends_with(path, "/index")) capture();
}

std::size_t MaliciousStore::capture() {
  // Serialized: concurrent committers must append generations in the order
  // their snapshots were taken, or a rollback could "roll back" to a
  // generation that never existed as a consistent point in time.
  std::lock_guard capture_lock(capture_mutex_);
  auto snap = take_snapshot();  // inner-store reads, outside the state lock
  std::lock_guard lock(mutex_);
  snapshots_.push_back(std::move(snap));
  ++stats_.generations;
  return snapshots_.size() - 1;
}

MaliciousStore::ViewState& MaliciousStore::view_state_locked(
    const std::string& name) const {
  return views_[name];
}

std::optional<std::size_t> MaliciousStore::gen_for_read_locked(
    const std::string& view, const std::string& path, bool fresh) const {
  // The adversary only tampers with the target namespace; everything else
  // (notably the out-of-band gossip channel) is always served live.
  if (!targeted(path)) return std::nullopt;
  auto& vs = view_state_locked(view);
  if (vs.pin) return vs.pin;        // explicit fork
  if (global_pin_) return global_pin_;  // explicit wholesale rollback
  if (vs.window_left > 0) {         // inside a scheduled rollback window
    if (fresh) {
      --vs.window_left;
      ++stats_.stale_serves;
    }
    return vs.window_gen;
  }
  if (!fresh || !enabled_ || snapshots_.empty()) return std::nullopt;
  if (roll_locked(plan_.rollback_rate)) {
    ++stats_.rollback_windows;
    vs.window_gen = util::splitmix64(rng_state_) % snapshots_.size();
    int span = std::max(1, plan_.max_window - plan_.min_window + 1);
    vs.window_left =
        std::max(1, plan_.min_window) +
        static_cast<int>(util::splitmix64(rng_state_) % static_cast<std::uint64_t>(span));
    --vs.window_left;
    ++stats_.stale_serves;
    return vs.window_gen;
  }
  if (is_delta_path(path) && roll_locked(plan_.withhold_rate)) {
    ++stats_.withheld_log_reads;
    return util::splitmix64(rng_state_) % snapshots_.size();
  }
  if (roll_locked(plan_.equivocate_rate)) {
    ++stats_.equivocations;
    return util::splitmix64(rng_state_) % snapshots_.size();
  }
  return std::nullopt;
}

std::uint64_t MaliciousStore::put_for(const std::string& /*view*/,
                                      const std::string& path,
                                      util::Bytes value) {
  auto version = inner_.put(path, std::move(value));
  auto_capture(path);
  return version;
}

std::optional<std::uint64_t> MaliciousStore::put_cas_for(
    const std::string& /*view*/, const std::string& path, util::Bytes value,
    std::uint64_t expected) {
  util::Bytes payload = value;  // keep the bytes: a loser is attack material
  auto version = inner_.put_cas(path, std::move(value), expected);
  if (version) {
    auto_capture(path);
  } else if (targeted(path)) {
    std::lock_guard lock(mutex_);
    rejected_[path].push_back(std::move(payload));
    ++stats_.rejected_writes;
  }
  return version;
}

std::optional<util::Bytes> MaliciousStore::get_for(
    const std::string& view, const std::string& path) const {
  {
    std::lock_guard lock(mutex_);
    auto& vs = view_state_locked(view);
    auto ov = vs.overrides.find(path);
    if (ov != vs.overrides.end()) return ov->second;
    if (auto gen = gen_for_read_locked(view, path, /*fresh=*/true)) {
      const auto& snap = snapshots_[*gen];
      auto it = snap.files.find(path);
      if (it == snap.files.end()) return std::nullopt;
      return it->second.value;
    }
  }
  return inner_.get(path);
}

std::optional<CloudStore::Versioned> MaliciousStore::get_versioned_for(
    const std::string& view, const std::string& path) const {
  std::optional<util::Bytes> override_value;
  {
    std::lock_guard lock(mutex_);
    auto& vs = view_state_locked(view);
    auto ov = vs.overrides.find(path);
    if (ov != vs.overrides.end()) {
      override_value = ov->second;
    } else if (auto gen = gen_for_read_locked(view, path, /*fresh=*/true)) {
      const auto& snap = snapshots_[*gen];
      auto it = snap.files.find(path);
      if (it == snap.files.end()) return std::nullopt;
      return it->second;
    }
  }
  if (override_value) {
    // Overrides ride on the live version so pollers treat them as news.
    auto version = inner_.file_version(path);
    return Versioned{std::move(*override_value), version == 0 ? 1 : version};
  }
  return inner_.get_versioned(path);
}

std::uint64_t MaliciousStore::file_version_for(const std::string& view,
                                               const std::string& path) const {
  {
    std::lock_guard lock(mutex_);
    auto& vs = view_state_locked(view);
    if (vs.overrides.count(path) == 0) {
      if (auto gen = gen_for_read_locked(view, path, /*fresh=*/false)) {
        const auto& snap = snapshots_[*gen];
        auto it = snap.files.find(path);
        return it == snap.files.end() ? 0 : it->second.version;
      }
    }
  }
  auto version = inner_.file_version(path);
  {
    std::lock_guard lock(mutex_);
    auto& vs = view_state_locked(view);
    if (vs.overrides.count(path) != 0 && version == 0) return 1;
  }
  return version;
}

std::vector<std::string> MaliciousStore::list_for(
    const std::string& view, const std::string& prefix) const {
  std::optional<std::size_t> gen;
  {
    std::lock_guard lock(mutex_);
    gen = gen_for_read_locked(view, prefix, /*fresh=*/false);
  }
  auto live = inner_.list(prefix);
  if (!gen) return live;
  std::lock_guard lock(mutex_);
  const auto& snap = snapshots_[*gen];
  std::vector<std::string> merged;
  for (auto& p : live) {
    if (!targeted(p)) merged.push_back(p);
  }
  for (const auto& [p, unused] : snap.files) {
    if (p.rfind(prefix, 0) == 0) merged.push_back(p);
  }
  std::sort(merged.begin(), merged.end());
  return merged;
}

std::uint64_t MaliciousStore::dir_version_for(const std::string& view,
                                              const std::string& dir) const {
  {
    std::lock_guard lock(mutex_);
    if (auto gen = gen_for_read_locked(view, dir, /*fresh=*/false)) {
      const auto& snap = snapshots_[*gen];
      auto it = snap.dir_versions.find(dir);
      return it == snap.dir_versions.end() ? 0 : it->second;
    }
  }
  return inner_.dir_version(dir);
}

std::optional<std::uint64_t> MaliciousStore::long_poll_for(
    const std::string& view, const std::string& dir, std::uint64_t since,
    std::chrono::milliseconds timeout) const {
  std::uint64_t snap_version = 0;
  bool stale = false;
  {
    std::lock_guard lock(mutex_);
    if (auto gen = gen_for_read_locked(view, dir, /*fresh=*/false)) {
      stale = true;
      const auto& snap = snapshots_[*gen];
      auto it = snap.dir_versions.find(dir);
      snap_version = it == snap.dir_versions.end() ? 0 : it->second;
    }
  }
  if (!stale) return inner_.long_poll(dir, since, timeout);
  // A rolled-back replica never reports changes past its own state: wake the
  // caller only if the STALE directory version already beats `since`.
  if (snap_version > since) return snap_version;
  std::this_thread::sleep_for(timeout);
  return std::nullopt;
}

std::uint64_t MaliciousStore::put(const std::string& path, util::Bytes value) {
  return put_for("", path, std::move(value));
}

std::optional<std::uint64_t> MaliciousStore::put_cas(const std::string& path,
                                                     util::Bytes value,
                                                     std::uint64_t expected) {
  return put_cas_for("", path, std::move(value), expected);
}

std::optional<util::Bytes> MaliciousStore::get(const std::string& path) const {
  return get_for("", path);
}

std::optional<CloudStore::Versioned> MaliciousStore::get_versioned(
    const std::string& path) const {
  return get_versioned_for("", path);
}

std::uint64_t MaliciousStore::file_version(const std::string& path) const {
  return file_version_for("", path);
}

bool MaliciousStore::erase(const std::string& path) { return inner_.erase(path); }

std::vector<std::string> MaliciousStore::list(const std::string& prefix) const {
  return list_for("", prefix);
}

std::uint64_t MaliciousStore::dir_version(const std::string& dir) const {
  return dir_version_for("", dir);
}

std::optional<std::uint64_t> MaliciousStore::long_poll(
    const std::string& dir, std::uint64_t since,
    std::chrono::milliseconds timeout) const {
  return long_poll_for("", dir, since, timeout);
}

CloudStats MaliciousStore::stats() const {
  auto s = inner_.stats();
  std::lock_guard lock(mutex_);
  s.faults_injected += stats_.total_attacks();
  return s;
}

std::size_t MaliciousStore::stored_bytes() const {
  return inner_.stored_bytes();
}

CloudStore& MaliciousStore::view(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = view_objects_[name];
  if (!slot) slot = std::make_unique<View>(*this, name);
  return *slot;
}

std::size_t MaliciousStore::generation_count() const {
  std::lock_guard lock(mutex_);
  return snapshots_.size();
}

std::optional<CloudStore::Versioned> MaliciousStore::snapshot_value(
    std::size_t gen, const std::string& path) const {
  std::lock_guard lock(mutex_);
  if (gen >= snapshots_.size()) return std::nullopt;
  auto it = snapshots_[gen].files.find(path);
  if (it == snapshots_[gen].files.end()) return std::nullopt;
  return it->second;
}

void MaliciousStore::serve_generation(std::size_t gen) {
  std::lock_guard lock(mutex_);
  global_pin_ = gen;
}

void MaliciousStore::serve_live() {
  std::lock_guard lock(mutex_);
  global_pin_.reset();
}

void MaliciousStore::pin_view(const std::string& name, std::size_t gen) {
  std::lock_guard lock(mutex_);
  views_[name].pin = gen;
}

void MaliciousStore::unpin_view(const std::string& name) {
  std::lock_guard lock(mutex_);
  views_[name].pin.reset();
}

void MaliciousStore::override_path(const std::string& name,
                                   const std::string& path, util::Bytes value) {
  std::lock_guard lock(mutex_);
  views_[name].overrides[path] = std::move(value);
}

void MaliciousStore::clear_overrides(const std::string& name) {
  std::lock_guard lock(mutex_);
  views_[name].overrides.clear();
}

std::vector<util::Bytes> MaliciousStore::rejected_writes(
    const std::string& path) const {
  std::lock_guard lock(mutex_);
  auto it = rejected_.find(path);
  return it == rejected_.end() ? std::vector<util::Bytes>{} : it->second;
}

void MaliciousStore::set_malice_enabled(bool enabled) {
  std::lock_guard lock(mutex_);
  enabled_ = enabled;
}

MaliciousStats MaliciousStore::malicious_stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace ibbe::cloud
