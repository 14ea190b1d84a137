// Sharded-index + incremental-delta behaviour (the million-user metadata
// layout): warm clients fold signed deltas instead of re-downloading the
// index, every fold failure degrades into the snapshot path (never a parse
// error or a wrong view), and the CachedIndex fold primitive rejects
// replays, gaps, snapshot barriers and structurally inconsistent deltas by
// construction. The delta chain doubles as the audit log: a splice across
// it fails the audit, and with the log retained an admin's upload per op
// stays flat however long the history grows. A warm fetch pays for its own
// partition only: one bundle entry decoded, the decrypt prepared once per
// membership of that partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "cloud/fault.h"
#include "system/admin.h"
#include "system/client.h"

namespace {

using namespace std::chrono_literals;
using ibbe::cloud::CloudStore;
using ibbe::cloud::FaultInjectingStore;
using ibbe::cloud::FaultPlan;
using ibbe::core::Identity;
using ibbe::system::AdminApi;
using ibbe::system::AdminConfig;
using ibbe::system::CachedIndex;
using ibbe::system::CipherBundle;
using ibbe::system::ClientApi;
using ibbe::system::DeltaOp;
using ibbe::system::GroupId;
using ibbe::system::GroupManifest;
using ibbe::system::IndexDelta;
using ibbe::system::PartitionId;
using ibbe::system::SignedEnvelope;
using ibbe::util::Bytes;

std::vector<Identity> make_users(std::size_t n, std::size_t offset = 0) {
  std::vector<Identity> users;
  for (std::size_t i = 0; i < n; ++i) {
    users.push_back("user" + std::to_string(offset + i));
  }
  return users;
}

/// The delta files currently on the cloud for `gid`, sorted by sequence
/// number (numeric — "d10" must sort after "d9").
std::vector<std::pair<std::uint64_t, std::string>> delta_files(
    const CloudStore& cloud, const GroupId& gid) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  for (const auto& path : cloud.list("groups/" + gid + "/d")) {
    auto pos = path.rfind("/d");
    out.emplace_back(std::stoull(path.substr(pos + 2)), path);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The committed manifest of `gid` (envelope signature not checked).
GroupManifest live_manifest(CloudStore& cloud, const GroupId& gid) {
  auto raw = cloud.get(ibbe::system::index_path(gid));
  if (!raw) throw std::runtime_error("no manifest");
  return GroupManifest::from_bytes(SignedEnvelope::from_bytes(*raw).payload);
}

struct ShardDeltaFixture : ::testing::Test {
  ShardDeltaFixture() : platform("delta-box"), enclave(platform, 8), rng(17) {}

  AdminApi admin_on(CloudStore& store, AdminConfig config,
                    std::uint64_t seed = 5) {
    return AdminApi(enclave, store, ibbe::pki::EcdsaKeyPair::generate(rng),
                    config, seed);
  }

  ClientApi client_on(CloudStore& store, const AdminApi& admin,
                      const Identity& id) {
    return ClientApi(store, enclave.public_key(),
                     enclave.ecall_extract_user_key(id),
                     admin.verification_point());
  }

  ibbe::sgx::EnclavePlatform platform;
  ibbe::enclave::IbbeEnclave enclave;
  ibbe::crypto::Drbg rng;
  const GroupId gid = "g";
};

// ---------------------------------------------------------------------------
// Warm path: fold, don't re-download
// ---------------------------------------------------------------------------

TEST_F(ShardDeltaFixture, WarmClientFoldsDeltaInsteadOfSnapshot) {
  ibbe::cloud::CloudStore cloud;
  auto admin = admin_on(cloud, {.partition_size = 3});
  admin.create_group(gid, make_users(6));

  auto c = client_on(cloud, admin, "user0");
  ASSERT_TRUE(c.fetch_group_key(gid).has_value());  // cold: full snapshot
  EXPECT_EQ(c.stats().delta_folds, 0u);

  admin.add_user(gid, "late-joiner");
  EXPECT_EQ(admin.stats().deltas_published, 1u);

  auto key = c.fetch_group_key(gid);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(c.stats().delta_folds, 1u);      // exactly the one new commit
  EXPECT_EQ(c.stats().fold_fallbacks, 0u);   // no snapshot re-download
  EXPECT_EQ(c.stats().degraded_refetches, 0u);
  EXPECT_EQ(*key, *client_on(cloud, admin, "late-joiner").fetch_group_key(gid));

  // No change since: the warm path re-reads the manifest and nothing else.
  auto gets_before = cloud.stats().gets;
  ASSERT_TRUE(c.fetch_group_key(gid).has_value());
  EXPECT_EQ(c.stats().delta_folds, 1u);
  EXPECT_LE(cloud.stats().gets - gets_before, 2u);
}

TEST_F(ShardDeltaFixture, DeltaGapFallsBackToSnapshot) {
  ibbe::cloud::CloudStore cloud;
  // Retain only 2 deltas: three commits later a warm cache is out of window.
  auto admin = admin_on(cloud, {.partition_size = 3, .delta_window = 2});
  admin.create_group(gid, make_users(6));

  auto c = client_on(cloud, admin, "user0");
  ASSERT_TRUE(c.fetch_group_key(gid).has_value());

  for (int i = 0; i < 3; ++i) admin.add_user(gid, "j" + std::to_string(i));
  // Window enforced by GC: the newest delta rides in the manifest, the other
  // retained one is a file.
  EXPECT_EQ(delta_files(cloud, gid).size(), 1u);

  auto key = c.fetch_group_key(gid);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(c.stats().fold_fallbacks, 1u);  // gap -> snapshot, not an error
  EXPECT_EQ(c.stats().delta_folds, 0u);

  // The freshly snapshotted cache is warm again: the next commit folds.
  admin.add_user(gid, "j3");
  ASSERT_TRUE(c.fetch_group_key(gid).has_value());
  EXPECT_EQ(c.stats().delta_folds, 1u);
  EXPECT_EQ(c.stats().fold_fallbacks, 1u);
}

TEST_F(ShardDeltaFixture, FarBehindClientTakesSnapshotEvenWithLogRetained) {
  // With the audit log on, every delta since genesis is retained, so the
  // retention window no longer bounds a fold. Folding stops paying once it
  // costs more GETs than the snapshot.
  ibbe::cloud::CloudStore cloud;
  auto admin = admin_on(cloud, {.partition_size = 8,
                                .repartitioning = false,
                                .log_operations = true});
  admin.create_group(gid, make_users(3));
  auto c = client_on(cloud, admin, "user0");
  ASSERT_TRUE(c.fetch_group_key(gid).has_value());
  const auto genesis = live_manifest(cloud, gid).delta_base;

  for (int i = 0; i < 150; ++i) {  // 300 commits behind
    admin.add_user(gid, "churn" + std::to_string(i));
    admin.remove_user(gid, "churn" + std::to_string(i));
  }
  ASSERT_EQ(live_manifest(cloud, gid).delta_base, genesis);  // all retained

  auto gets_before = cloud.stats().gets;
  auto key = c.fetch_group_key(gid);
  auto gets = cloud.stats().gets - gets_before;
  ASSERT_TRUE(key.has_value());
  // Manifest, every shard, the bundle, and at most one overlay.
  EXPECT_LE(gets, admin.shard_count(gid) + 3);
  EXPECT_EQ(c.stats().fold_fallbacks, 1u);
  EXPECT_EQ(c.stats().delta_folds, 0u);
  EXPECT_EQ(*key, *client_on(cloud, admin, "user1").fetch_group_key(gid));

  // A short gap still folds.
  admin.add_user(gid, "late");
  ASSERT_TRUE(c.fetch_group_key(gid).has_value());
  EXPECT_EQ(c.stats().delta_folds, 1u);
}

TEST_F(ShardDeltaFixture, WarmClientFoldsAcrossShardRepartition) {
  ibbe::cloud::CloudStore cloud;
  auto admin =
      admin_on(cloud, {.partition_size = 3, .repartitioning = true,
                       .shard_partitions = 2});
  // 12 users -> 4 full partitions -> 2 shards of 2.
  admin.create_group(gid, make_users(12));
  ASSERT_EQ(admin.partition_count(gid), 4u);
  ASSERT_EQ(admin.shard_count(gid), 2u);

  auto c = client_on(cloud, admin, "user0");
  ASSERT_TRUE(c.fetch_group_key(gid).has_value());

  // Empty out most of the second shard's partitions: 2 of its 2 partitions
  // drop below ceil(2m/3) while globally only 2 of 4 are sparse — the
  // shard-local rule fires, the global (snapshot-barrier) rebuild does not.
  admin.remove_users(gid, std::vector<Identity>{"user7", "user8", "user10",
                                                "user11"});
  EXPECT_EQ(admin.stats().shard_repartitions, 1u);
  EXPECT_EQ(admin.stats().repartitions, 0u);

  // The warm client folds the removes + the repartition op — no snapshot.
  auto key = c.fetch_group_key(gid);
  ASSERT_TRUE(key.has_value());
  EXPECT_GE(c.stats().delta_folds, 1u);
  EXPECT_EQ(c.stats().fold_fallbacks, 0u);

  // Survivors of the repartitioned shard share the rotated key; the revoked
  // users are out.
  EXPECT_EQ(*key, *client_on(cloud, admin, "user6").fetch_group_key(gid));
  EXPECT_EQ(*key, *client_on(cloud, admin, "user9").fetch_group_key(gid));
  EXPECT_FALSE(client_on(cloud, admin, "user7").fetch_group_key(gid));
}

// ---------------------------------------------------------------------------
// Fold rejection paths (all must degrade into the snapshot path)
// ---------------------------------------------------------------------------

TEST_F(ShardDeltaFixture, NonAdminSignedDeltaForcesSnapshot) {
  ibbe::cloud::CloudStore cloud;
  auto admin = admin_on(cloud, {.partition_size = 3});
  admin.create_group(gid, make_users(6));

  auto c = client_on(cloud, admin, "user0");
  ASSERT_TRUE(c.fetch_group_key(gid).has_value());

  admin.add_user(gid, "x");
  admin.add_user(gid, "y");
  auto deltas = delta_files(cloud, gid);
  ASSERT_EQ(deltas.size(), 2u);  // the creation's and x's; y's is embedded

  // A rogue (non-admin) key re-signs x's genuine payload — the one delta
  // the warm client must fold from a file (y's rides in the signed
  // manifest). The per-delta signature check catches it while folding.
  auto stored = cloud.get(deltas.back().second);
  ASSERT_TRUE(stored.has_value());
  auto env = SignedEnvelope::from_bytes(*stored);
  ibbe::crypto::Drbg rogue_rng(99);
  auto rogue = ibbe::pki::EcdsaKeyPair::generate(rogue_rng);
  (void)cloud.put(deltas.back().second,
                  SignedEnvelope::sign(rogue, env.payload).to_bytes());

  auto fails_before = c.stats().signature_failures;
  auto key = c.fetch_group_key(gid);
  ASSERT_TRUE(key.has_value());  // snapshot fallback still authenticates
  EXPECT_GE(c.stats().signature_failures, fails_before + 1);
  EXPECT_EQ(c.stats().fold_fallbacks, 1u);
  EXPECT_EQ(*key, *client_on(cloud, admin, "y").fetch_group_key(gid));
}

TEST_F(ShardDeltaFixture, TornDeltaReadDegradesToSnapshot) {
  ibbe::cloud::CloudStore inner;
  FaultInjectingStore faulty(inner, FaultPlan{});
  auto admin = admin_on(faulty, {.partition_size = 3});
  admin.create_group(gid, make_users(6));

  auto c = client_on(faulty, admin, "user0");
  ASSERT_TRUE(c.fetch_group_key(gid).has_value());

  admin.add_user(gid, "x");
  admin.add_user(gid, "y");
  auto deltas = delta_files(inner, gid);
  ASSERT_EQ(deltas.size(), 2u);

  // A lagging replica serves the committed manifest but not x's delta, which
  // its chain runs through: the fold degrades to a snapshot, it does not
  // error.
  faulty.withhold_path(deltas.back().second);
  auto key = c.fetch_group_key(gid);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(c.stats().fold_fallbacks, 1u);
  EXPECT_EQ(c.stats().delta_folds, 0u);
  EXPECT_GE(faulty.fault_stats().stale_reads, 1u);
}

TEST_F(ShardDeltaFixture, MissingShardDegradesLikeTornSnapshotThenRecovers) {
  ibbe::cloud::CloudStore inner;
  FaultInjectingStore faulty(inner, FaultPlan{});
  auto admin = admin_on(faulty, {.partition_size = 3});
  admin.create_group(gid, make_users(6));

  auto shards = inner.list("groups/" + gid + "/s");
  ASSERT_FALSE(shards.empty());
  faulty.withhold_path(shards[0]);

  // A cold client sees a committed manifest whose shard the replica does not
  // serve yet. That is the torn-snapshot re-fetch loop — bounded retries and
  // an `unavailable` verdict, never a parse error or a false non-member.
  auto c = client_on(faulty, admin, "user0");
  c.set_retry_policy({.max_attempts = 3,
                      .base_delay = std::chrono::microseconds(1),
                      .max_delay = std::chrono::microseconds(10)});
  auto result = c.fetch(gid);
  EXPECT_EQ(result.status, ClientApi::FetchStatus::unavailable);
  EXPECT_FALSE(result.key.has_value());
  EXPECT_GE(c.stats().degraded_refetches, 1u);

  // The replica catches up: the very next fetch succeeds.
  faulty.clear_withheld();
  auto healed = c.fetch(gid);
  EXPECT_EQ(healed.status, ClientApi::FetchStatus::ok);
  ASSERT_TRUE(healed.key.has_value());
}

// ---------------------------------------------------------------------------
// Own-partition fetch: one bundle entry decoded, prepared decrypt reused
// ---------------------------------------------------------------------------

TEST_F(ShardDeltaFixture, UndecodableForeignBundleEntryDeniesOnlyItsPartition) {
  ibbe::cloud::CloudStore cloud;
  auto key_pair = ibbe::pki::EcdsaKeyPair::generate(rng);
  AdminApi admin(enclave, cloud, key_pair, {.partition_size = 3}, 5);
  // Creation fills partitions in order: user0-2 and user3-5.
  admin.create_group(gid, make_users(6));
  auto expected = client_on(cloud, admin, "user0").fetch_group_key(gid);
  ASSERT_TRUE(expected.has_value());

  // A validly signed bundle whose second entry holds an off-curve C1 (the
  // x coordinate is all ones, above the field modulus).
  const auto path =
      ibbe::system::cipher_bundle_path(gid, live_manifest(cloud, gid).cipher_set);
  auto bundle = CipherBundle::from_bytes(
      SignedEnvelope::from_bytes(*cloud.get(path)).payload);
  ASSERT_EQ(bundle.entries.size(), 2u);
  auto& broken = bundle.entries[1].second;
  std::fill(broken.begin(), broken.begin() + 48, std::uint8_t{0xff});
  ASSERT_THROW((void)bundle.find(bundle.entries[1].first),
               ibbe::util::DeserializeError);
  (void)cloud.put(path,
                  SignedEnvelope::sign(key_pair, bundle.to_bytes()).to_bytes());

  // The well-formed partition's members never decode the broken entry.
  auto healthy = client_on(cloud, admin, "user1");
  auto key = healthy.fetch_group_key(gid);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(*key, *expected);
  EXPECT_EQ(healthy.stats().signature_failures, 0u);

  // The broken partition's members get no key, and count the failure.
  auto denied = client_on(cloud, admin, "user3");
  denied.set_retry_policy(ibbe::util::RetryPolicy{.max_attempts = 2}
                              .without_delays());
  auto result = denied.fetch(gid);
  EXPECT_EQ(result.status, ClientApi::FetchStatus::unavailable);
  EXPECT_FALSE(result.key.has_value());
  EXPECT_GE(denied.stats().signature_failures, 1u);
}

TEST_F(ShardDeltaFixture, PreparedPartitionIsReusedUntilItsMembershipChanges) {
  ibbe::cloud::CloudStore cloud;
  auto admin =
      admin_on(cloud, {.partition_size = 4, .repartitioning = false});
  // Creation fills partitions in order: user0-3 (full) and user4-6.
  admin.create_group(gid, make_users(7));
  auto c = client_on(cloud, admin, "user4");
  ASSERT_TRUE(c.fetch_group_key(gid).has_value());
  EXPECT_EQ(c.stats().partition_prepares, 1u);

  // Four rotations that leave user4's partition untouched (the last one
  // empties and drops the other partition): every key is new, and every
  // one is decrypted with the first preparation.
  std::vector<Bytes> keys = {*c.fetch_group_key(gid)};
  for (const auto& revoked : make_users(4)) {
    admin.remove_user(gid, revoked);
    auto key = c.fetch_group_key(gid);
    ASSERT_TRUE(key.has_value()) << revoked;
    EXPECT_EQ(*key, *client_on(cloud, admin, "user5").fetch_group_key(gid));
    EXPECT_NE(*key, keys.back());
    keys.push_back(*key);
  }
  EXPECT_EQ(c.stats().partition_prepares, 1u);
  EXPECT_EQ(c.stats().fold_fallbacks, 0u);
  ASSERT_EQ(admin.partition_count(gid), 1u);

  // An add into the client's own partition (the only one with room)
  // changes its member list: prepare again, same key as a fresh client.
  admin.add_user(gid, "late");
  auto key = c.fetch_group_key(gid);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(c.stats().partition_prepares, 2u);
  EXPECT_EQ(*key, *client_on(cloud, admin, "late").fetch_group_key(gid));

  // Revoked: the warm prepared cache never turns into a key.
  admin.remove_user(gid, "user4");
  auto result = c.fetch(gid);
  EXPECT_EQ(result.status, ClientApi::FetchStatus::not_member);
  EXPECT_FALSE(result.key.has_value());
}

TEST_F(ShardDeltaFixture, TornCiphertextDropsThePreparedPartition) {
  ibbe::cloud::CloudStore cloud;
  auto key_pair = ibbe::pki::EcdsaKeyPair::generate(rng);
  AdminApi admin(enclave, cloud, key_pair, {.partition_size = 3}, 5);
  admin.create_group(gid, make_users(6));
  auto expected = client_on(cloud, admin, "user1").fetch_group_key(gid);
  ASSERT_TRUE(expected.has_value());

  // A signed bundle pairing each partition with the other's ciphertext: the
  // index and the ciphertext disagree, as in a torn view.
  const auto path =
      ibbe::system::cipher_bundle_path(gid, live_manifest(cloud, gid).cipher_set);
  const Bytes original = *cloud.get(path);
  auto bundle =
      CipherBundle::from_bytes(SignedEnvelope::from_bytes(original).payload);
  ASSERT_EQ(bundle.entries.size(), 2u);
  std::swap(bundle.entries[0].second, bundle.entries[1].second);
  (void)cloud.put(path,
                  SignedEnvelope::sign(key_pair, bundle.to_bytes()).to_bytes());

  // Each failed attempt drops every cache, the prepared partition included,
  // so the retry prepares again from scratch.
  auto c = client_on(cloud, admin, "user0");
  c.set_retry_policy(ibbe::util::RetryPolicy{.max_attempts = 2}
                         .without_delays());
  EXPECT_EQ(c.fetch(gid).status, ClientApi::FetchStatus::unavailable);
  EXPECT_EQ(c.stats().partition_prepares, 2u);

  (void)cloud.put(path, original);
  auto key = c.fetch_group_key(gid);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(*key, *expected);
}

// ---------------------------------------------------------------------------
// CachedIndex fold primitive
// ---------------------------------------------------------------------------

TEST(CachedIndexFold, ReplayedOrDuplicatedDeltaIsNoOp) {
  CachedIndex view;
  view.counter = 5;
  view.log_head.fill(0x11);
  view.add_partition(1, {"a", "b"});

  IndexDelta d;
  d.seq = 6;
  d.prev_log_head.fill(0x11);
  DeltaOp add;
  add.kind = DeltaOp::Kind::add_member;
  add.user = "c";
  add.pid = 1;
  d.ops = {add};

  ASSERT_TRUE(view.apply(d));
  EXPECT_EQ(view.counter, 6u);
  EXPECT_EQ(view.log_head, d.log_head());
  EXPECT_EQ(view.member_count(), 3u);
  EXPECT_EQ(view.find_user("c"), std::optional<std::uint64_t>(1));

  // Replaying the very same delta is rejected by the seq/log-head chain and
  // leaves the view untouched.
  EXPECT_FALSE(view.apply(d));
  EXPECT_EQ(view.counter, 6u);
  EXPECT_EQ(view.member_count(), 3u);

  // A gap (seq jumps ahead) is rejected too.
  IndexDelta gap = d;
  gap.seq = 8;
  gap.prev_log_head = d.log_head();
  EXPECT_FALSE(view.apply(gap));

  // Right seq but the wrong chain (spliced from another history).
  IndexDelta spliced = d;
  spliced.seq = 7;
  spliced.prev_log_head.fill(0x77);
  EXPECT_FALSE(view.apply(spliced));
  EXPECT_EQ(view.counter, 6u);
}

TEST(CachedIndexFold, StructurallyInconsistentDeltaIsRejected) {
  CachedIndex view;
  view.counter = 1;
  view.add_partition(1, {"a"});

  // Removing a user who is not in the named partition cannot be folded.
  IndexDelta d;
  d.seq = 2;
  DeltaOp remove;
  remove.kind = DeltaOp::Kind::remove_member;
  remove.user = "ghost";
  remove.pid = 1;
  d.ops = {remove};
  EXPECT_FALSE(view.apply(d));
  EXPECT_EQ(view.member_count(), 1u);

  // Repartitioning a partition the view does not have: same verdict.
  DeltaOp repart;
  repart.kind = DeltaOp::Kind::repartition;
  repart.dropped = {42};
  d.ops = {repart};
  EXPECT_FALSE(view.apply(d));
  EXPECT_EQ(view.counter, 1u);

  // A snapshot barrier (creation, full re-partition) never folds: only a
  // full snapshot crosses it.
  DeltaOp barrier;
  barrier.kind = DeltaOp::Kind::snapshot;
  barrier.user = "partition_size=3";
  d.ops = {barrier};
  EXPECT_FALSE(view.apply(d));
  EXPECT_EQ(view.counter, 1u);
  EXPECT_EQ(view.member_count(), 1u);
}

// ---------------------------------------------------------------------------
// Audit splice across the delta chain
// ---------------------------------------------------------------------------

TEST_F(ShardDeltaFixture, AuditCatchesLogSpliceAcrossDeltaChain) {
  ibbe::cloud::CloudStore cloud;
  auto admin = admin_on(cloud, {.partition_size = 3, .log_operations = true});
  admin.create_group(gid, make_users(6));
  admin.add_user(gid, "x");
  admin.remove_user(gid, "user1");
  ASSERT_TRUE(admin.audit_group_log(gid).ok);

  // A parallel history by the SAME admin: another group whose deltas carry
  // the same sequence numbers and perfectly valid signatures. Splicing its
  // d2 into this group's chain passes every per-delta check — only the head
  // the committed manifest attests exposes the splice.
  admin.create_group("other", make_users(6));
  admin.add_user("other", "y");
  admin.remove_user("other", "user2");
  auto foreign = cloud.get(ibbe::system::delta_path("other", 2));
  ASSERT_TRUE(foreign.has_value());
  ASSERT_TRUE(admin.audit_group_log("other").ok);

  (void)cloud.put(ibbe::system::delta_path(gid, 2), *foreign);
  auto audit = admin.audit_group_log(gid);
  EXPECT_FALSE(audit.ok);
  EXPECT_NE(audit.failure.find("chain"), std::string::npos) << audit.failure;
  EXPECT_EQ(audit.bad_seq, 2u);
}

// ---------------------------------------------------------------------------
// Scale: O(1) lookups and O(1) objects per mutation
// ---------------------------------------------------------------------------

TEST(CachedIndexScale, MillionMemberLookupIsConstantTime) {
  // 1000 partitions x 1000 members. The seed's per-fetch linear scan was
  // O(total members); the hash map makes membership O(1) after one lazy
  // build. 200k lookups through a linear scan would take hours — the bound
  // below is generous for the map yet catches any scan regression.
  CachedIndex view;
  std::size_t uid = 0;
  for (std::uint64_t pid = 0; pid < 1000; ++pid) {
    std::vector<Identity> members;
    members.reserve(1000);
    for (int i = 0; i < 1000; ++i) members.push_back("u" + std::to_string(uid++));
    view.add_partition(pid, std::move(members));
  }
  ASSERT_EQ(view.member_count(), 1'000'000u);

  ASSERT_EQ(view.find_user("u0"), std::optional<std::uint64_t>(0));  // builds map

  auto start = std::chrono::steady_clock::now();
  std::size_t hits = 0;
  for (std::size_t i = 0; i < 200'000; ++i) {
    // Alternate hits (stride over the whole range) and guaranteed misses.
    if (i % 2 == 0) {
      hits += view.find_user("u" + std::to_string((i * 4999) % 1'000'000))
                  .has_value();
    } else {
      hits += view.find_user("nobody" + std::to_string(i)).has_value();
    }
  }
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_EQ(hits, 100'000u);
  EXPECT_LT(elapsed.count(), 2000) << "find_user is no longer O(1)";

  EXPECT_EQ(view.find_user("u999999"), std::optional<std::uint64_t>(999));
}

TEST_F(ShardDeltaFixture, MutationUploadsSameObjectCountRegardlessOfScale) {
  ibbe::cloud::CloudStore cloud;
  auto admin = admin_on(cloud, {.partition_size = 3, .shard_partitions = 2});
  admin.create_group("small", make_users(12));   //  4 partitions
  admin.create_group("big", make_users(48));     // 16 partitions

  auto puts = [&] { return cloud.stats().puts; };

  auto p0 = puts();
  admin.remove_user("small", "user5");
  auto small_remove = puts() - p0;
  admin.remove_user("big", "user5");
  auto big_remove = puts() - p0 - small_remove;
  // A revocation touches the host shard, the rotated cipher bundle, the
  // fresh sealed gk, the delta, the manifest and the gossip note — the same
  // object count whether the group has 4 partitions or 16.
  EXPECT_EQ(small_remove, big_remove);

  auto p1 = puts();
  admin.add_user("small", "fresh-a");
  auto small_add = puts() - p1;
  admin.add_user("big", "fresh-b");
  auto big_add = puts() - p1 - small_add;
  EXPECT_EQ(small_add, big_add);
  EXPECT_LE(small_add, small_remove);  // adds skip the bundle + gk rewrite
}

TEST_F(ShardDeltaFixture, AuditedMutationUploadsStayFlatOverLongHistory) {
  // The audit log costs O(1) upload per op: with the whole chain retained,
  // an add at op ~2,000 uploads within 1.1x of an add at op ~500. The group
  // is churned add/remove so its state, and with it every object an add
  // rewrites, is the same at both points; only the history differs.
  ibbe::cloud::CloudStore cloud;
  auto admin = admin_on(cloud, {.partition_size = 8,
                                .repartitioning = false,
                                .log_operations = true});
  admin.create_group(gid, make_users(4));

  auto add_upload = [&](int i) {
    auto before = cloud.stats().bytes_uploaded;
    admin.add_user(gid, "churn" + std::to_string(i));
    return cloud.stats().bytes_uploaded - before;
  };
  std::uint64_t early = 0;
  std::uint64_t late = 0;
  for (int i = 1000; i < 2000; ++i) {  // equal-length ids at every op
    auto bytes = add_upload(i);
    if (i == 1250) early = bytes;  // op ~500
    if (i == 1999) late = bytes;   // op ~2,000
    admin.remove_user(gid, "churn" + std::to_string(i));
  }
  ASSERT_GT(early, 0u);
  EXPECT_LE(static_cast<double>(late), 1.1 * static_cast<double>(early))
      << "add at op ~500 uploads " << early << " B, at op ~2,000 " << late
      << " B";
  EXPECT_TRUE(admin.audit_group_log(gid).ok);
}

}  // namespace
