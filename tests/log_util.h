// Membership-log helpers shared by the audit suites: a hand-built chain of
// signed deltas (what consecutive commits leave behind), a reader that walks
// a group's chain back from its committed manifest, and the two-admin
// invariant that every delta file on the store holds committed bytes.
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cloud/store.h"
#include "system/admin.h"
#include "system/metadata.h"

namespace ibbe::testutil {

inline system::DeltaOp member_op(system::DeltaOp::Kind kind,
                                 const std::string& user,
                                 system::PartitionId pid = 0) {
  system::DeltaOp op;
  op.kind = kind;
  op.user = user;
  op.pid = pid;
  return op;
}

inline system::DeltaOp add_op(const std::string& user, system::PartitionId pid = 0) {
  return member_op(system::DeltaOp::Kind::add_member, user, pid);
}

inline system::DeltaOp remove_op(const std::string& user,
                                 system::PartitionId pid = 0) {
  return member_op(system::DeltaOp::Kind::remove_member, user, pid);
}

inline system::DeltaOp snapshot_op(const std::string& summary) {
  return member_op(system::DeltaOp::Kind::snapshot, summary);
}

/// Signed deltas chained the way consecutive commits chain them, starting at
/// seq 1 (genesis). `files[seq]` holds each delta's stored envelope bytes.
struct DeltaChain {
  std::map<std::uint64_t, util::Bytes> files;
  system::Hash32 head{};
  std::uint64_t top = 0;

  void append(std::vector<system::DeltaOp> ops, const std::string& admin,
              const pki::EcdsaKeyPair& key) {
    system::IndexDelta d;
    d.seq = ++top;
    d.prev_log_head = head;
    d.admin = admin;
    d.ops = std::move(ops);
    head = d.log_head();
    files[d.seq] = system::SignedEnvelope::sign(key, d.to_bytes()).to_bytes();
  }

  /// Audits the chain from delta `seq`, anchored on `anchor`.
  [[nodiscard]] system::LogAudit audit_from(
      std::uint64_t seq, const system::Hash32& anchor,
      std::span<const ec::P256Point> keys) const {
    return system::audit_delta_chain(
        seq, anchor,
        [&](std::uint64_t s) -> std::optional<util::Bytes> {
          auto it = files.find(s);
          if (it == files.end()) return std::nullopt;
          return it->second;
        },
        keys);
  }

  /// Audits the whole chain from its own head.
  [[nodiscard]] system::LogAudit audit(std::span<const ec::P256Point> keys) const {
    return audit_from(top, head, keys);
  }
};

/// The committed manifest of `gid` (signature not checked).
inline system::GroupManifest committed_manifest(const cloud::CloudStore& store,
                                                const system::GroupId& gid) {
  auto raw = store.get(system::index_path(gid));
  EXPECT_TRUE(raw.has_value()) << "no manifest for " << gid;
  if (!raw) return {};
  return system::GroupManifest::from_bytes(
      system::SignedEnvelope::from_bytes(*raw).payload);
}

/// The group's delta chain, oldest first: the manifest's embedded delta and
/// the files it chains back through, down to genesis or the first missing
/// link. Nothing is verified — audit_group_log does that.
inline std::vector<system::IndexDelta> read_chain(const cloud::CloudStore& store,
                                                  const system::GroupId& gid) {
  auto m = committed_manifest(store, gid);
  std::vector<system::IndexDelta> chain{m.head_delta()};
  while (chain.back().prev_log_head != system::Hash32{}) {
    auto raw = store.get(system::delta_path(gid, chain.back().seq - 1));
    if (!raw) break;
    chain.push_back(system::IndexDelta::from_bytes(
        system::SignedEnvelope::from_bytes(*raw).payload));
  }
  return {chain.rbegin(), chain.rend()};
}

/// After any interleaving of admins: the audit walks from the committed head
/// through every delta file down to genesis, and no delta file lies above the
/// head or holds other bytes than the committed delta embedded in the
/// manifest — a losing or crashed writer left nothing under a delta's name.
inline void expect_deltas_committed(const cloud::CloudStore& store,
                                    const system::AdminApi& admin,
                                    const system::GroupId& gid) {
  auto audit = admin.audit_group_log(gid);
  EXPECT_TRUE(audit.ok) << audit.failure << " at d" << audit.bad_seq;
  auto m = committed_manifest(store, gid);
  const std::string prefix = system::group_dir(gid) + "/d";
  for (const auto& path : store.list(prefix)) {
    auto seq = std::stoull(path.substr(prefix.size()));
    EXPECT_LE(seq, m.freshness.counter) << path << " lies above the head";
    if (seq == m.freshness.counter) {
      EXPECT_EQ(store.get(path), std::optional<util::Bytes>(m.delta))
          << path << " differs from the committed delta";
    }
  }
}

}  // namespace ibbe::testutil
