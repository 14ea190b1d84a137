// Bench-side spans: name, start, end, parent and op id, kept in memory and
// written out when the run ends.
//
// The load thread publishes the id of the op in flight; a span opened on any
// thread records it, so server-side spans (which run on a NetServer session
// thread) are attributed to the single op the load thread is waiting on. A
// span with no open span on its own thread takes as parent the last
// "remote parent" published — the client-side RPC span whose request the
// session thread is serving.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t op = 0;      // 0 = outside any timed op
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on); }
  [[nodiscard]] bool enabled() const { return enabled_.load(); }

  /// Published by the load thread around each op (0 = none in flight).
  void set_op(std::uint64_t op) { op_.store(op); }
  [[nodiscard]] std::uint64_t op() const { return op_.load(); }

  [[nodiscard]] std::vector<Span> spans() const;
  /// One span per line: name start_ns end_ns id parent op.
  void write(const std::string& path) const;

 private:
  friend class ScopedSpan;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> op_{0};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> remote_parent_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Records one span from construction to destruction when tracing is on.
/// `publish` makes it the remote parent of spans opened on other threads
/// while it is open.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, bool publish = false);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  bool active_ = false;
  bool publish_ = false;
};

}  // namespace perfbench
