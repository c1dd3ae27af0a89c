#include "trace.hpp"

#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kTraceOrigin =
    std::chrono::steady_clock::now();

}  // namespace

std::int64_t trace_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kTraceOrigin)
      .count();
}

std::int32_t Tracer::open(const char* name, std::uint64_t id) {
  Span span;
  span.name = name;
  span.id = id;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = trace_now_ns();
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = trace_now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void write_trace(const std::string& path,
                 std::span<const Tracer* const> tracers) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  std::int64_t base = 0;
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      out << "{\"span\":" << base + static_cast<std::int64_t>(i)
          << ",\"parent\":"
          << (span.parent < 0 ? std::int64_t{-1} : base + span.parent)
          << ",\"thread\":" << tracer->thread() << ",\"name\":\""
          << span.name << "\",\"id\":" << span.id
          << ",\"start_ns\":" << span.start_ns
          << ",\"end_ns\":" << span.end_ns << "}\n";
    }
    base += static_cast<std::int64_t>(spans.size());
  }
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace perfbench
