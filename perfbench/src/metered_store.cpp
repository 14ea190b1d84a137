#include "metered_store.h"

#include "tracer.h"

namespace perfbench {

using ibbe::util::Bytes;

MeteredStore::MeteredStore(ibbe::cloud::CloudStore& inner, std::string layer,
                           bool publish_parent)
    : inner_(inner),
      layer_(std::move(layer)),
      publish_parent_(publish_parent),
      n_put_(layer_ + ".put"),
      n_put_cas_(layer_ + ".put_cas"),
      n_get_(layer_ + ".get"),
      n_get_versioned_(layer_ + ".get_versioned"),
      n_file_version_(layer_ + ".file_version"),
      n_erase_(layer_ + ".erase"),
      n_list_(layer_ + ".list"),
      n_dir_version_(layer_ + ".dir_version"),
      n_long_poll_(layer_ + ".long_poll") {}

template <typename F>
auto MeteredStore::metered(const char* call, F&& call_fn) const {
  ScopedSpan span(call, publish_parent_);
  calls_.fetch_add(1);
  return call_fn();
}

std::uint64_t MeteredStore::put(const std::string& path, Bytes value) {
  bytes_put_.fetch_add(value.size());
  return metered(n_put_.c_str(),
                 [&] { return inner_.put(path, std::move(value)); });
}

std::optional<std::uint64_t> MeteredStore::put_cas(const std::string& path,
                                                   Bytes value,
                                                   std::uint64_t expected) {
  bytes_put_.fetch_add(value.size());
  auto v = metered(n_put_cas_.c_str(), [&] {
    return inner_.put_cas(path, std::move(value), expected);
  });
  if (!v) cas_conflicts_.fetch_add(1);
  return v;
}

std::optional<Bytes> MeteredStore::get(const std::string& path) const {
  auto v = metered(n_get_.c_str(), [&] { return inner_.get(path); });
  if (v) bytes_got_.fetch_add(v->size());
  return v;
}

std::optional<ibbe::cloud::CloudStore::Versioned> MeteredStore::get_versioned(
    const std::string& path) const {
  auto v = metered(n_get_versioned_.c_str(),
                   [&] { return inner_.get_versioned(path); });
  if (v) bytes_got_.fetch_add(v->value.size());
  return v;
}

std::uint64_t MeteredStore::file_version(const std::string& path) const {
  return metered(n_file_version_.c_str(),
                 [&] { return inner_.file_version(path); });
}

bool MeteredStore::erase(const std::string& path) {
  return metered(n_erase_.c_str(), [&] { return inner_.erase(path); });
}

std::vector<std::string> MeteredStore::list(const std::string& prefix) const {
  return metered(n_list_.c_str(), [&] { return inner_.list(prefix); });
}

std::uint64_t MeteredStore::dir_version(const std::string& dir) const {
  return metered(n_dir_version_.c_str(),
                 [&] { return inner_.dir_version(dir); });
}

std::optional<std::uint64_t> MeteredStore::long_poll(
    const std::string& dir, std::uint64_t since,
    std::chrono::milliseconds timeout) const {
  return metered(n_long_poll_.c_str(),
                 [&] { return inner_.long_poll(dir, since, timeout); });
}

// Introspection, not traffic: forwarded uncounted.
ibbe::cloud::CloudStats MeteredStore::stats() const { return inner_.stats(); }
std::size_t MeteredStore::stored_bytes() const { return inner_.stored_bytes(); }

StoreCounts MeteredStore::counts() const {
  return {calls_.load(), bytes_put_.load(), bytes_got_.load(),
          cas_conflicts_.load()};
}

}  // namespace perfbench
