// A CloudStore decorator that forwards every virtual call to the store it
// wraps and counts calls, payload bytes and lost compare-and-swap races. With tracing on, every call is also a span named
// "<layer>.<call>" (e.g. "cloud.get", "net.admin.put_cas").
//
// One instance sits around the NetServer's backing store (layer "cloud") and
// one around each RemoteStore connection ("net.admin", "net.client"), so
// admin and client traffic are never mixed. RemoteStore::stats() is not used:
// it is an RPC returning the server's combined totals.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "cloud/store.h"

namespace perfbench {

struct StoreCounts {
  std::uint64_t calls = 0;
  std::uint64_t bytes_put = 0;  // payload bytes sent to the store
  std::uint64_t bytes_got = 0;  // payload bytes returned by the store
  std::uint64_t cas_conflicts = 0;

  StoreCounts operator-(const StoreCounts& o) const {
    return {calls - o.calls, bytes_put - o.bytes_put, bytes_got - o.bytes_got,
            cas_conflicts - o.cas_conflicts};
  }
  StoreCounts& operator+=(const StoreCounts& o) {
    calls += o.calls;
    bytes_put += o.bytes_put;
    bytes_got += o.bytes_got;
    cas_conflicts += o.cas_conflicts;
    return *this;
  }
};

class MeteredStore : public ibbe::cloud::CloudStore {
 public:
  /// `publish_parent`: spans of this store become the parent of spans opened
  /// on other threads while they are open (set for the client side of an
  /// RPC, so the server-side spans nest under it).
  MeteredStore(ibbe::cloud::CloudStore& inner, std::string layer,
               bool publish_parent);
  MeteredStore(const MeteredStore&) = delete;
  MeteredStore& operator=(const MeteredStore&) = delete;

  std::uint64_t put(const std::string& path, ibbe::util::Bytes value) override;
  [[nodiscard]] std::optional<std::uint64_t> put_cas(
      const std::string& path, ibbe::util::Bytes value,
      std::uint64_t expected) override;
  [[nodiscard]] std::optional<ibbe::util::Bytes> get(
      const std::string& path) const override;
  [[nodiscard]] std::optional<Versioned> get_versioned(
      const std::string& path) const override;
  [[nodiscard]] std::uint64_t file_version(
      const std::string& path) const override;
  bool erase(const std::string& path) override;
  [[nodiscard]] std::vector<std::string> list(
      const std::string& prefix) const override;
  [[nodiscard]] std::uint64_t dir_version(const std::string& dir) const override;
  [[nodiscard]] std::optional<std::uint64_t> long_poll(
      const std::string& dir, std::uint64_t since,
      std::chrono::milliseconds timeout) const override;
  [[nodiscard]] ibbe::cloud::CloudStats stats() const override;
  [[nodiscard]] std::size_t stored_bytes() const override;

  [[nodiscard]] StoreCounts counts() const;

 private:
  /// Runs `call` against the wrapped store as one counted (and, when
  /// tracing, spanned) call.
  template <typename F>
  auto metered(const char* call, F&& call_fn) const;

  ibbe::cloud::CloudStore& inner_;
  std::string layer_;
  bool publish_parent_;
  // Span names, built once: "<layer>.<call>".
  std::string n_put_, n_put_cas_, n_get_, n_get_versioned_, n_file_version_,
      n_erase_, n_list_, n_dir_version_, n_long_poll_;

  mutable std::atomic<std::uint64_t> calls_{0};
  mutable std::atomic<std::uint64_t> bytes_put_{0};
  mutable std::atomic<std::uint64_t> bytes_got_{0};
  mutable std::atomic<std::uint64_t> cas_conflicts_{0};
};

}  // namespace perfbench
