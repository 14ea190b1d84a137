// Deterministic fault injection over a CloudStore (paper context: IBBE-SGX
// is a *dependability* system — DSN — so the harness must be able to model a
// flaky, adversarially-timed cloud, not just a healthy one).
//
// FaultInjectingStore decorates any CloudStore with the failure modes a real
// Dropbox-style deployment exhibits:
//
//   * transient errors    — a round trip fails outright (TransientError);
//   * ambiguous writes    — the write is APPLIED, then the response is lost
//                           and the caller sees a TransientError (the classic
//                           "did my PUT land?" ambiguity);
//   * spurious CAS fails  — put_cas reports a version conflict without
//                           applying (server-side retry artifacts);
//   * stale reads         — a get is served from a lagging replica: the
//                           previous value AND previous version of the path;
//   * spurious poll wakes — long_poll times out although a change landed;
//   * crash points        — the calling process dies (CrashError) right
//                           before a mutation is applied, leaving every
//                           earlier write of a multi-object mutation behind:
//                           torn cloud state that recovery must repair.
//
// Every decision is drawn from a SplitMix64 stream seeded by FaultPlan::seed,
// so a failing schedule replays bit-for-bit from its printed seed. Crash
// points can additionally be armed one at a time (arm_crash_after) so tests
// can enumerate every mutation inside an operation systematically.
//
// MaliciousStore (below) is the BYZANTINE tier on top of the same decorator
// pattern: instead of failing round trips it answers them with stale truths —
// whole old generations (rollback), different generations to different
// clients (forking), a membership-log delta withheld under a live index (tail
// withholding), or
// a single stale file in an otherwise live view (equivocation). Stack it
// under a FaultInjectingStore to compose both tiers.
//
// Thread-safe like the store it wraps; the injectors keep their own lock and
// never hold it across inner-store calls.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <thread>

#include "cloud/store.h"

namespace ibbe::cloud {

/// Per-operation fault probabilities (0 = never, 1 = always) plus the RNG
/// seed that makes the schedule reproducible.
struct FaultPlan {
  std::uint64_t seed = 1;
  double put_error_rate = 0.0;      // put/put_cas/erase fails before applying
  double ambiguous_put_rate = 0.0;  // put/put_cas applies, then "fails"
  double spurious_cas_rate = 0.0;   // put_cas "conflicts" without applying
  double get_error_rate = 0.0;      // get/get_versioned/list fails
  double stale_read_rate = 0.0;     // get serves the previous value+version
  double poll_timeout_rate = 0.0;   // long_poll returns nullopt immediately
  double crash_rate = 0.0;          // CrashError before applying a mutation
};

struct FaultStats {
  std::uint64_t transient_errors = 0;
  std::uint64_t ambiguous_puts = 0;
  std::uint64_t spurious_cas = 0;
  std::uint64_t stale_reads = 0;
  std::uint64_t poll_timeouts = 0;
  std::uint64_t crashes = 0;

  [[nodiscard]] std::uint64_t total() const {
    return transient_errors + ambiguous_puts + spurious_cas + stale_reads +
           poll_timeouts + crashes;
  }
};

class FaultInjectingStore : public CloudStore {
 public:
  /// Decorates `inner` (not owned; must outlive this object).
  FaultInjectingStore(CloudStore& inner, FaultPlan plan);

  std::uint64_t put(const std::string& path, util::Bytes value) override;
  [[nodiscard]] std::optional<std::uint64_t> put_cas(
      const std::string& path, util::Bytes value,
      std::uint64_t expected) override;
  [[nodiscard]] std::optional<util::Bytes> get(
      const std::string& path) const override;
  [[nodiscard]] std::optional<Versioned> get_versioned(
      const std::string& path) const override;
  [[nodiscard]] std::uint64_t file_version(const std::string& path) const override;
  bool erase(const std::string& path) override;
  [[nodiscard]] std::vector<std::string> list(
      const std::string& prefix) const override;
  [[nodiscard]] std::uint64_t dir_version(const std::string& dir) const override;
  [[nodiscard]] std::optional<std::uint64_t> long_poll(
      const std::string& dir, std::uint64_t since,
      std::chrono::milliseconds timeout) const override;
  /// Inner stats plus this injector's fault counters folded in.
  [[nodiscard]] CloudStats stats() const override;
  [[nodiscard]] std::size_t stored_bytes() const override;

  // ---- crash-point enumeration ----
  /// Arms a one-shot crash on the n-th mutation (put/put_cas/erase) counted
  /// from now (n=1 crashes the very next one). The crash fires BEFORE that
  /// mutation is applied, then disarms itself.
  void arm_crash_after(std::uint64_t n);
  /// Clears an armed crash point.
  void disarm();
  /// Mutations (put/put_cas/erase) that reached this store so far, including
  /// ones that then faulted. The enumeration harness diffs this counter
  /// around an operation to learn how many crash points it contains.
  [[nodiscard]] std::uint64_t mutation_ops() const;

  // ---- schedule control ----
  /// Master switch for the *random* faults (armed crash points still fire).
  /// Harnesses turn faults off for setup and verification phases.
  void set_faults_enabled(bool enabled);
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] FaultStats fault_stats() const;

  /// Test hook invoked with the path of every put/put_cas BEFORE any fault
  /// decision or write. Runs without the injector's lock and is suppressed
  /// re-entrantly, so the hook may itself drive this store — which is how
  /// tests interleave a concurrent admin at an exact write boundary.
  void set_write_hook(std::function<void(const std::string&)> hook);

  // ---- replica-lag modelling ----
  /// From now on, get/get_versioned of exactly `path` answer "absent"
  /// (nullopt) even though the object is committed in the inner store —
  /// a lagging replica that has seen the new manifest but not yet the shard
  /// or delta object it references. Reads of withheld paths count as stale
  /// reads in fault_stats(). Idempotent; writes still pass through.
  void withhold_path(const std::string& path);
  /// Serves every withheld path live again (the replica caught up).
  void clear_withheld();

 private:
  [[nodiscard]] bool roll_locked(double rate) const;
  /// Counts the mutation and fires armed/random crashes and transient
  /// errors; called before the inner write is attempted.
  void mutation_gate(const std::string& what);
  void ambiguity_gate(const std::string& what);
  void fire_hook(const std::string& path);
  /// Snapshots the current value so a later stale read can serve it.
  void record_previous(const std::string& path);

  CloudStore& inner_;
  FaultPlan plan_;
  mutable std::mutex mutex_;
  mutable std::uint64_t rng_state_;
  mutable FaultStats fault_stats_;
  bool enabled_ = true;
  std::uint64_t mutations_ = 0;
  std::uint64_t crash_at_ = 0;  // absolute mutation ordinal; 0 = disarmed
  std::map<std::string, Versioned> previous_;  // last overwritten value
  std::set<std::string> withheld_;             // replica-lag "absent" paths
  std::function<void(const std::string&)> write_hook_;
  // Re-entrancy suppression is PER THREAD: a hook driving this store from
  // its own thread is suppressed, but server session threads hitting the
  // store concurrently must not suppress each other's hooks.
  std::set<std::thread::id> hook_active_threads_;
};

// ---------------------------------------------------------------------------
// Byzantine tier
// ---------------------------------------------------------------------------

/// Seeded probabilities for the replayable attack schedule. Rates are per
/// read of a path under `target_prefix`; an attack "window" serves a
/// CONSISTENT old generation for a bounded run of reads, modelling a cloud
/// that answers from a rolled-back replica for a while and then "heals".
struct MaliciousPlan {
  std::uint64_t seed = 1;
  /// Enter a rollback window: every targeted read (index, deltas, shards,
  /// directory versions — a wholesale old manifest+log pair) is served from
  /// one randomly chosen earlier committed generation for the window's
  /// length.
  double rollback_rate = 0.0;
  /// One-shot: a delta (d<seq>) read alone is served from an old generation —
  /// typically one predating the delta — while the index stays live (tail
  /// withholding).
  double withhold_rate = 0.0;
  /// One-shot: THIS read alone is served from an old generation while
  /// everything around it stays live (selective stale equivocation).
  double equivocate_rate = 0.0;
  /// Window length bounds, in targeted reads.
  int min_window = 1;
  int max_window = 8;
  /// The namespace the adversary tampers with. The gossip channel
  /// (gossip/...) deliberately stays outside it: it models the out-of-band
  /// freshness channel of ROTE-style designs — an adversary controlling that
  /// too can only cause denial of service (fork-consistency bound), which
  /// the schedule keeps out so liveness oracles stay meaningful.
  std::string target_prefix = "groups/";
};

struct MaliciousStats {
  std::uint64_t generations = 0;        // committed snapshots captured
  std::uint64_t rollback_windows = 0;   // windows entered by the schedule
  std::uint64_t stale_serves = 0;       // reads answered from an old generation
  std::uint64_t withheld_log_reads = 0; // one-shot old delta serves
  std::uint64_t equivocations = 0;      // one-shot old single-file serves
  std::uint64_t rejected_writes = 0;    // losing CAS payloads captured

  [[nodiscard]] std::uint64_t total_attacks() const {
    return stale_serves + withheld_log_reads + equivocations;
  }
};

/// A Byzantine CloudStore decorator. Every successful write to an index path
/// under the target prefix snapshots the namespace ("committed generation");
/// reads can then be answered from any earlier generation — wholesale
/// (rollback), per client (forking via `view()`), for delta reads only
/// (withholding), or for one path only (equivocation). Writes always pass
/// through to the live inner store: the adversary can replay old truths, but
/// it cannot forge signed metadata, and it keeps every losing CAS payload as
/// equivocation material (`rejected_writes`).
class MaliciousStore : public CloudStore {
 public:
  /// Decorates `inner` (not owned; must outlive this object).
  explicit MaliciousStore(CloudStore& inner, MaliciousPlan plan = {});
  ~MaliciousStore() override;  // out-of-line: View is incomplete here

  // CloudStore surface — this object is the DEFAULT view.
  std::uint64_t put(const std::string& path, util::Bytes value) override;
  [[nodiscard]] std::optional<std::uint64_t> put_cas(
      const std::string& path, util::Bytes value,
      std::uint64_t expected) override;
  [[nodiscard]] std::optional<util::Bytes> get(
      const std::string& path) const override;
  [[nodiscard]] std::optional<Versioned> get_versioned(
      const std::string& path) const override;
  [[nodiscard]] std::uint64_t file_version(const std::string& path) const override;
  bool erase(const std::string& path) override;
  [[nodiscard]] std::vector<std::string> list(
      const std::string& prefix) const override;
  [[nodiscard]] std::uint64_t dir_version(const std::string& dir) const override;
  [[nodiscard]] std::optional<std::uint64_t> long_poll(
      const std::string& dir, std::uint64_t since,
      std::chrono::milliseconds timeout) const override;
  [[nodiscard]] CloudStats stats() const override;
  [[nodiscard]] std::size_t stored_bytes() const override;

  // ---- per-client forking ----
  /// A named per-client facade: reads through it can be pinned to a
  /// different generation than other clients see (a fork). The reference is
  /// stable for the lifetime of this store. Writes pass through to the
  /// shared live store.
  [[nodiscard]] CloudStore& view(const std::string& name);

  // ---- explicit attack control (deterministic tests) ----
  /// Snapshots the current target namespace; returns the generation id.
  /// (Every committed index write auto-captures, so tests rarely need this.)
  std::size_t capture();
  [[nodiscard]] std::size_t generation_count() const;
  /// A file's value+version in a captured generation (nullopt if absent).
  [[nodiscard]] std::optional<Versioned> snapshot_value(
      std::size_t gen, const std::string& path) const;
  /// Serve EVERY un-pinned view from generation `gen` (wholesale rollback).
  void serve_generation(std::size_t gen);
  /// Back to live serving (heal) for every un-pinned view.
  void serve_live();
  /// Pin one view to a generation (fork that client); unpin to heal it.
  void pin_view(const std::string& name, std::size_t gen);
  void unpin_view(const std::string& name);
  /// Serve exactly `value` for `path` on the named view ("" = default view),
  /// regardless of generations — e.g. a captured losing CAS payload.
  void override_path(const std::string& name, const std::string& path,
                     util::Bytes value);
  void clear_overrides(const std::string& name);
  /// Losing put_cas payloads recorded for `path` (oldest first).
  [[nodiscard]] std::vector<util::Bytes> rejected_writes(
      const std::string& path) const;

  // ---- schedule control ----
  /// Master switch for the *random* schedule (explicit pins/overrides and
  /// auto-capture stay active).
  void set_malice_enabled(bool enabled);
  [[nodiscard]] const MaliciousPlan& plan() const { return plan_; }
  [[nodiscard]] MaliciousStats malicious_stats() const;

 private:
  struct Snapshot {
    std::map<std::string, Versioned> files;          // target-prefix paths
    std::map<std::string, std::uint64_t> dir_versions;
  };
  struct ViewState {
    std::optional<std::size_t> pin;    // explicit fork
    std::optional<std::size_t> window_gen;
    int window_left = 0;               // targeted reads left in the window
    std::map<std::string, util::Bytes> overrides;
  };
  class View;

  [[nodiscard]] bool targeted(const std::string& path) const;
  [[nodiscard]] bool roll_locked(double rate) const;
  Snapshot take_snapshot() const;  // call WITHOUT the lock held
  void auto_capture(const std::string& path);
  ViewState& view_state_locked(const std::string& name) const;
  /// The generation to serve a targeted read from (nullopt = live). `fresh`
  /// lets value reads start new windows / one-shots; version and directory
  /// probes only honour already-active state.
  std::optional<std::size_t> gen_for_read_locked(const std::string& view,
                                                 const std::string& path,
                                                 bool fresh) const;

  // Reads/writes routed by every view, keyed by view name ("" = default).
  std::uint64_t put_for(const std::string& view, const std::string& path,
                        util::Bytes value);
  std::optional<std::uint64_t> put_cas_for(const std::string& view,
                                           const std::string& path,
                                           util::Bytes value,
                                           std::uint64_t expected);
  std::optional<util::Bytes> get_for(const std::string& view,
                                     const std::string& path) const;
  std::optional<Versioned> get_versioned_for(const std::string& view,
                                             const std::string& path) const;
  std::uint64_t file_version_for(const std::string& view,
                                 const std::string& path) const;
  std::vector<std::string> list_for(const std::string& view,
                                    const std::string& prefix) const;
  std::uint64_t dir_version_for(const std::string& view,
                                const std::string& dir) const;
  std::optional<std::uint64_t> long_poll_for(const std::string& view,
                                             const std::string& dir,
                                             std::uint64_t since,
                                             std::chrono::milliseconds timeout) const;

  CloudStore& inner_;
  MaliciousPlan plan_;
  /// Orders concurrent capture() calls so the generation log is a true
  /// history (held across the snapshot reads; never nests inside mutex_).
  mutable std::mutex capture_mutex_;
  mutable std::mutex mutex_;
  mutable std::uint64_t rng_state_;
  mutable MaliciousStats stats_;
  bool enabled_ = true;
  std::vector<Snapshot> snapshots_;
  std::optional<std::size_t> global_pin_;  // serve_generation()
  mutable std::map<std::string, ViewState> views_;
  std::map<std::string, std::vector<util::Bytes>> rejected_;
  std::map<std::string, std::unique_ptr<View>> view_objects_;
};

}  // namespace ibbe::cloud
