#include "tracer.h"

#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {
thread_local std::vector<std::uint64_t> open_spans;
}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  std::lock_guard lock(mutex_);
  for (const Span& s : spans_) {
    out << s.name << ' ' << s.start_ns << ' ' << s.end_ns << ' ' << s.id << ' '
        << s.parent << ' ' << s.op << '\n';
  }
}

ScopedSpan::ScopedSpan(const char* name, bool publish) {
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return;
  active_ = true;
  publish_ = publish;
  span_.name = name;
  span_.id = t.next_id_.fetch_add(1);
  span_.op = t.op();
  span_.parent = open_spans.empty() ? t.remote_parent_.load() : open_spans.back();
  open_spans.push_back(span_.id);
  if (publish_) t.remote_parent_.store(span_.id);
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = now_ns();
  Tracer& t = Tracer::instance();
  if (publish_) t.remote_parent_.store(0);
  open_spans.pop_back();
  std::lock_guard lock(t.mutex_);
  t.spans_.push_back(std::move(span_));
}

}  // namespace perfbench
