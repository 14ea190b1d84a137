// On-cloud metadata records for the IBBE-SGX access-control system.
//
// Layout on the store (sharded manifest layout; the paper's Dropbox
// deployment gives us per-directory long polling and per-file CAS):
//
//   groups/<gid>/index      — GroupManifest: shard refs (id + hash), the
//                             cipher-set id, per-partition cipher overlays,
//                             gk_epoch, freshness token, the delta window and
//                             this commit's own signed delta. THE single CAS
//                             commit point.
//   groups/<gid>/s<k>       — IndexShard: the member lists of a few whole
//                             partitions. Copy-on-write (fresh id per
//                             rewrite); pinned by the manifest's shard hash.
//   groups/<gid>/c<k>       — CipherBundle: EVERY partition's ciphertext +
//                             wrapped gk, written once per gk rotation so a
//                             revocation re-uploads one object, not one per
//                             partition.
//   groups/<gid>/o<k>       — CipherOverlay: a single partition's ciphertext
//                             superseding its bundle entry (O(1) adds and
//                             shard-local re-partitions between rotations).
//                             The manifest maps pid -> live overlay id; the
//                             map is cleared whenever a rotation rewrites the
//                             bundle.
//   groups/<gid>/d<seq>     — IndexDelta: the signed membership diff of the
//                             commit whose freshness counter is <seq>. The
//                             deltas form one hash chain from the group's
//                             genesis — the group's only membership log. A
//                             commit's delta rides inside its manifest; the
//                             NEXT commit copies those committed bytes out to
//                             d<seq> before its CAS, so no delta file ever
//                             holds an uncommitted payload. Warm clients fold
//                             deltas into a cached index; the manifest's
//                             delta_base bounds the retained window.
//   groups/<gid>/gk<e>.sealed — the sealed group key of epoch <e>.
//
// Partition ids are STABLE logical names (a partition keeps its id across
// mutations); copy-on-write immutability lives in the shard / bundle /
// overlay object ids instead, and a delta's name is its commit's counter.
// Everything except the sealed gk is wrapped in SignedEnvelope so clients can
// authenticate that membership changes come from an administrator (the
// paper's authenticity requirement; confidentiality of gk needs no
// signature — it is wrapped).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "enclave/ibbe_enclave.h"
#include "pki/ecdsa.h"

namespace ibbe::system {

using GroupId = std::string;
using PartitionId = std::uint64_t;
using Hash32 = std::array<std::uint8_t, 32>;

/// SHA-256 of an object's stored bytes (the manifest pins shards by
/// content, so a stale replica serving an old shard under a live name is
/// detected without trusting cloud versions).
Hash32 content_hash(std::span<const std::uint8_t> data);

/// Manifest entry pinning one shard: which object holds it and what its
/// stored bytes must hash to.
struct ShardRef {
  std::uint64_t sid = 0;
  Hash32 hash{};
};

struct IndexDelta;

/// The commit point of every group mutation (see the layout comment above).
/// All shard / bundle / overlay / delta / sealed-gk writes land on the cloud
/// BEFORE the CAS that publishes this record makes them reachable. It anchors
/// the state that needs the CAS'd lineage for integrity: the shard hashes,
/// which sealed-gk epoch and cipher objects are current, and the
/// enclave-signed freshness token binding the commit to a platform monotonic
/// counter and to the head of the delta chain (a rolled-back manifest, or a
/// truncated or spliced chain, is detectable — docs/fault_model.md). The
/// commit's own delta is embedded, so the head the token binds always has its
/// bytes at hand.
struct GroupManifest {
  std::vector<ShardRef> shards;
  std::uint64_t cipher_set = 0;                // live CipherBundle object id
  std::map<PartitionId, std::uint64_t> overlays;  // pid -> live overlay id
  std::uint64_t gk_epoch = 0;                  // which gk<e>.sealed is live
  /// counter == 0 ⇒ not attested; log_head is the delta chain's head.
  enclave::FreshnessToken freshness;
  /// Earliest delta seq still retained on the cloud (the group's genesis
  /// while the audit log is kept). A client whose cache is older than
  /// delta_base-1 must take a full snapshot.
  std::uint64_t delta_base = 0;
  /// This commit's SignedEnvelope over its IndexDelta (seq ==
  /// freshness.counter). The next commit writes these bytes verbatim to
  /// d<seq>.
  util::Bytes delta;

  /// Parses the embedded delta (signature NOT checked). Throws
  /// util::DeserializeError.
  [[nodiscard]] IndexDelta head_delta() const;
  /// True if the freshness token binds this manifest: same gk epoch, and the
  /// embedded delta carries the token's counter and hashes to its head.
  [[nodiscard]] bool token_binds() const;

  [[nodiscard]] util::Bytes to_bytes() const;
  static GroupManifest from_bytes(std::span<const std::uint8_t> data);
};

/// A few whole partitions' member lists (user -> partition mapping is stored
/// plainly; the model does not hide member identities, paper §II). Shards
/// are partition-aligned because a client needs its complete partition
/// member list to run the IBBE decrypt.
struct IndexShard {
  std::uint64_t sid = 0;
  std::vector<std::pair<PartitionId, std::vector<core::Identity>>> partitions;

  [[nodiscard]] util::Bytes to_bytes() const;
  static IndexShard from_bytes(std::span<const std::uint8_t> data);
};

/// Every partition's ciphertext + wrapped gk for one key epoch. Rewritten as
/// a single object per gk rotation — the reason a million-member revocation
/// uploads O(1) objects instead of one per partition.
///
/// Entries are held as their wire bytes: from_bytes parses only the
/// structure (clamped entry count, each pid and entry blob), and find()
/// decodes — with full G1/G2 on-curve and subgroup validation — just the
/// entry asked for. A reader pays for its own partition, not for every
/// partition of the group.
struct CipherBundle {
  /// pid -> PartitionCiphertext::to_bytes() of that partition.
  std::vector<std::pair<PartitionId, util::Bytes>> entries;

  void add(PartitionId pid, const enclave::PartitionCiphertext& cipher);
  /// Decodes the entry of `pid` (the first, if repeated); std::nullopt if
  /// the bundle has none. Throws util::DeserializeError on a malformed entry.
  [[nodiscard]] std::optional<enclave::PartitionCiphertext> find(
      PartitionId pid) const;

  [[nodiscard]] util::Bytes to_bytes() const;
  static CipherBundle from_bytes(std::span<const std::uint8_t> data);
};

/// One partition's ciphertext superseding its bundle entry between rotations.
struct CipherOverlay {
  PartitionId pid = 0;
  enclave::PartitionCiphertext cipher;

  [[nodiscard]] util::Bytes to_bytes() const;
  static CipherOverlay from_bytes(std::span<const std::uint8_t> data);
};

/// One membership diff inside an IndexDelta.
struct DeltaOp {
  enum class Kind : std::uint8_t {
    add_member = 1,     // add `user` to partition `pid` (created if absent)
    remove_member = 2,  // remove `user` from `pid` (dropped when emptied)
    repartition = 3,    // shard-local rebuild: `dropped` pids replaced by
                        // `created` (pid, members) partitions
    snapshot = 4,       // creation / full re-partition barrier: `user`
                        // holds a summary; clients never fold it
  };
  Kind kind = Kind::add_member;
  core::Identity user;  // add/remove; the summary of a snapshot
  PartitionId pid = 0;  // add/remove
  std::vector<PartitionId> dropped;  // repartition
  std::vector<std::pair<PartitionId, std::vector<core::Identity>>> created;
};

/// The signed membership diff of one commit, and one link of the group's
/// audit log. `seq` equals the commit's freshness counter (so the file name
/// d<seq> and the enclave counter agree by construction). Consecutive deltas
/// chain through their heads: d.prev_log_head must equal the previous
/// commit's log_head(), which the client verifies while folding and the audit
/// verifies back to genesis (prev_log_head all-zero) — splicing, reordering
/// or replaying deltas breaks the chain.
struct IndexDelta {
  std::uint64_t seq = 0;
  Hash32 prev_log_head{};
  std::string admin;  // the administrator that committed it
  std::vector<DeltaOp> ops;

  /// H(prev_log_head ‖ admin ‖ ops): the chain head this commit attests.
  /// Excludes seq, which the freshness token binds instead, so the head is
  /// known before the enclave assigns the counter.
  [[nodiscard]] Hash32 log_head() const;
  /// True if any op is a snapshot barrier.
  [[nodiscard]] bool is_snapshot() const;

  [[nodiscard]] util::Bytes to_bytes() const;
  static IndexDelta from_bytes(std::span<const std::uint8_t> data);
};

/// A client's (or test's) locally cached, foldable view of a group's
/// membership: the partition -> members mapping at a known commit
/// (counter, log_head). `apply` folds one IndexDelta; `find_user` is the
/// O(1) membership lookup backed by a lazily built hash map that fold
/// operations keep incrementally up to date (the seed's linear scan was
/// O(total members) per fetch — at 10⁶ members that dominated everything).
class CachedIndex {
 public:
  std::uint64_t counter = 0;
  std::array<std::uint8_t, 32> log_head{};
  std::uint64_t gk_epoch = 0;

  [[nodiscard]] const std::vector<
      std::pair<PartitionId, std::vector<core::Identity>>>&
  partitions() const {
    return partitions_;
  }
  /// Appends a partition (snapshot assembly). Invalidates the lookup map.
  void add_partition(PartitionId pid, std::vector<core::Identity> members);

  /// O(1) membership lookup (amortized: the map is built on first use).
  [[nodiscard]] std::optional<PartitionId> find_user(
      const core::Identity& id) const;
  /// The member list of one partition; nullptr if unknown.
  [[nodiscard]] const std::vector<core::Identity>* members_of(
      PartitionId pid) const;
  [[nodiscard]] std::size_t member_count() const;

  /// Folds one delta. Returns false unless `d` is exactly the next commit
  /// (seq == counter+1 and prev_log_head chains from our log_head) and every
  /// op is structurally consistent with the current view (a snapshot op never
  /// is); a replayed or duplicated delta therefore is a no-op by construction
  /// (the chain check rejects it before anything mutates). A STRUCTURAL rejection may leave a
  /// partially folded view — callers must discard the view and fall back to
  /// a snapshot, which is what the client's fold path does. On success the
  /// lookup map is updated incrementally.
  [[nodiscard]] bool apply(const IndexDelta& d);

 private:
  std::vector<std::pair<PartitionId, std::vector<core::Identity>>> partitions_;
  mutable std::unordered_map<core::Identity, PartitionId> user_map_;
  mutable bool map_built_ = false;

  [[nodiscard]] std::size_t partition_index(PartitionId pid) const;
};

/// payload || ECDSA signature by the administrator.
struct SignedEnvelope {
  util::Bytes payload;
  pki::EcdsaSignature signature;

  [[nodiscard]] util::Bytes to_bytes() const;
  static SignedEnvelope from_bytes(std::span<const std::uint8_t> data);

  static SignedEnvelope sign(const pki::EcdsaKeyPair& key, util::Bytes payload);
  [[nodiscard]] bool verify(const ec::P256Point& admin_pub) const;
};

/// Verdict of a delta-chain audit.
struct LogAudit {
  bool ok = false;
  std::string failure;       // empty when ok
  std::uint64_t bad_seq = 0; // the delta that failed; valid when !ok
};

/// Stored envelope bytes of delta `seq`, or nullopt if absent.
using DeltaSource =
    std::function<std::optional<util::Bytes>(std::uint64_t seq)>;

/// Audits a group's membership log: walks the delta chain back from delta
/// `seq`, whose head must be `head` (the committed manifest's attested
/// head), to genesis. Every delta must parse, be signed by one of
/// `admin_keys`, carry its sequence number, and hash to the head its
/// successor chains from. A missing link (truncation, a withheld tail, or a
/// window the retention policy already swept) fails the audit.
[[nodiscard]] LogAudit audit_delta_chain(
    std::uint64_t seq, const Hash32& head, const DeltaSource& fetch,
    std::span<const ec::P256Point> admin_keys);

/// One observer's view of a group's freshness, published to the gossip
/// channel (unsigned — the channel is a HINT: a forged observation can make
/// verifiers refuse service, never accept stale state). Two observations
/// with the same counter but different log heads are proof of a fork.
struct FreshnessObservation {
  std::uint64_t counter = 0;
  std::array<std::uint8_t, 32> log_head{};

  [[nodiscard]] util::Bytes to_bytes() const;
  static FreshnessObservation from_bytes(std::span<const std::uint8_t> data);
};

/// Cloud paths.
std::string group_dir(const GroupId& gid);
std::string index_path(const GroupId& gid);
std::string shard_path(const GroupId& gid, std::uint64_t sid);
std::string cipher_bundle_path(const GroupId& gid, std::uint64_t id);
std::string cipher_overlay_path(const GroupId& gid, std::uint64_t id);
std::string delta_path(const GroupId& gid, std::uint64_t seq);
/// The sealed group key is stored under an epoch-keyed name (fresh epoch per
/// rotation, allocated like object ids so concurrent admins never write the
/// same path); the committed manifest says which epoch is live.
std::string sealed_gk_path(const GroupId& gid, std::uint64_t epoch);
/// Freshness-gossip channel. Deliberately OUTSIDE groups/<gid>/: gossip
/// writes must not wake group-directory long-pollers, and the channel models
/// the out-of-band client-to-client path of ROTE-style fork detection.
std::string gossip_dir(const GroupId& gid);
std::string gossip_path(const GroupId& gid, const std::string& observer);

}  // namespace ibbe::system
