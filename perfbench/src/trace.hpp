// In-memory span recording for the traced benchmark run.
//
// The benchmark brackets each call it makes into a sealpaa layer with a
// span named "<layer>.<operation>" (service, engine, analysis, sim,
// explore; "bench" for the benchmark's own glue).  A span holds its
// name, start, end, parent span and the request / solve / call id it
// belongs to.  Spans stay in memory — one Tracer per thread, no locking —
// and are written out as JSON lines when the run ends; perfbench/
// summarise.py turns them into per-layer self time.  With tracing off a
// Scope costs one branch.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // string literal "<layer>.<operation>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index in the same tracer; -1 = root
  std::uint64_t id = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled, std::uint32_t thread = 0)
      : enabled_(enabled), thread_(thread) {}

  /// Opens a span on construction and closes it on destruction; spans
  /// opened while it is live become its children.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t id = 0)
        : tracer_(tracer),
          index_(tracer.enabled_ ? tracer.open(name, id) : -1) {}
    ~Scope() {
      if (index_ >= 0) tracer_.close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_;
  };

  /// Explicit form for spans that do not follow a C++ scope (a request
  /// on the wire): begin() returns the span's index, or -1 when tracing
  /// is off; end() closes it.
  [[nodiscard]] std::int32_t begin(const char* name, std::uint64_t id = 0) {
    return enabled_ ? open(name, id) : -1;
  }
  void end(std::int32_t index) {
    if (index >= 0) close(index);
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] std::uint32_t thread() const noexcept { return thread_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  std::int32_t open(const char* name, std::uint64_t id);
  void close(std::int32_t index);

  bool enabled_;
  std::uint32_t thread_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  // stack of open span indices
};

/// Nanoseconds since the process's trace origin (steady clock).
[[nodiscard]] std::int64_t trace_now_ns();

/// Writes every span as one JSON object per line:
///   {"span": g, "parent": g or -1, "thread": t, "name": "...",
///    "id": n, "start_ns": s, "end_ns": e}
/// with `span`/`parent` numbered globally across the tracers.  Throws
/// std::runtime_error when the file cannot be written.
void write_trace(const std::string& path,
                 std::span<const Tracer* const> tracers);

}  // namespace perfbench
