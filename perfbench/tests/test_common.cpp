// Unit tests of the benchmark's own code: order statistics on known
// samples, span nesting, and seed-determinism of every input generator.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Percentile, KnownSamples) {
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_DOUBLE_EQ(percentile(ten, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(ten, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(ten, 50.0), 5.5);
  // Position (n - 1) * 0.25 = 2.25 -> 3 + 0.25 * (4 - 3).
  EXPECT_DOUBLE_EQ(percentile(ten, 25.0), 3.25);
  EXPECT_DOUBLE_EQ(percentile(ten, 75.0), 7.75);
  // Position 9 * 0.99 = 8.91 -> 9 + 0.91 * (10 - 9).
  EXPECT_DOUBLE_EQ(percentile(ten, 99.0), 9.91);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({7.5}), 7.5);
}

TEST(Percentile, RejectsEmptyAndOutOfRange) {
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, 100.5), std::invalid_argument);
}

TEST(Percentile, SamplesBeyondCountsTheTail) {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  // p99 sits at position 989.01 -> 990.01; ten samples lie above it.
  EXPECT_EQ(samples_beyond(samples, 99.0), 10u);
  EXPECT_EQ(samples_beyond({}, 99.0), 0u);
}

TEST(InputHash, SeparatesInputsAndIsStable) {
  InputHash a;
  a.add(std::string_view("abc"));
  InputHash b;
  b.add(std::string_view("abc"));
  InputHash c;
  c.add(std::string_view("abd"));
  EXPECT_EQ(a.value(), b.value());
  EXPECT_NE(a.value(), c.value());
  EXPECT_EQ(a.hex().size(), 16u);
  // FNV-1a 64 of "abc".
  EXPECT_EQ(a.value(), 0xe71fa2190541574bull);
}

TEST(Tracer, NestsSpansAndRecordsParents) {
  Tracer tracer(true);
  {
    const Tracer::Scope outer(tracer, "service.outer", 7);
    { const Tracer::Scope inner(tracer, "engine.inner", 7); }
    { const Tracer::Scope inner(tracer, "engine.inner", 8); }
  }
  { const Tracer::Scope root(tracer, "bench.root"); }
  const std::vector<Span>& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, -1);
  EXPECT_EQ(spans[2].id, 8u);
  for (const Span& span : spans) EXPECT_LE(span.start_ns, span.end_ns);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[2].end_ns);
}

TEST(Tracer, ExplicitSpansNestLikeScopes) {
  Tracer tracer(true);
  const std::int32_t request = tracer.begin("service.roundtrip", 3);
  { const Tracer::Scope inner(tracer, "engine.oracle", 3); }
  tracer.end(request);
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent, request);
  EXPECT_LE(tracer.spans()[1].end_ns, tracer.spans()[0].end_ns);

  Tracer off(false);
  const std::int32_t none = off.begin("service.roundtrip");
  EXPECT_EQ(none, -1);
  off.end(none);
  EXPECT_TRUE(off.spans().empty());
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer(false);
  { const Tracer::Scope span(tracer, "engine.x"); }
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(SeedDeterminism, ServeSweepInputs) {
  const std::string first = serve_sweep_input_bytes(5, 1, 8);
  EXPECT_EQ(first, serve_sweep_input_bytes(5, 1, 8));
  EXPECT_NE(first, serve_sweep_input_bytes(6, 1, 8));
  EXPECT_NE(first, serve_sweep_input_bytes(5, 2, 8));
}

TEST(SeedDeterminism, EvalColdInputs) {
  const std::string first = eval_cold_input_bytes(5, 3);
  EXPECT_EQ(first, eval_cold_input_bytes(5, 3));
  EXPECT_NE(first, eval_cold_input_bytes(6, 3));
  // Repetitions never repeat a batch.
  EXPECT_NE(first, eval_cold_input_bytes(5, 4));
}

TEST(SeedDeterminism, DseBnbInputs) {
  EXPECT_EQ(dse_bnb_input_bytes(5), dse_bnb_input_bytes(5));
  EXPECT_NE(dse_bnb_input_bytes(5), dse_bnb_input_bytes(6));
}

TEST(SplitMix, StreamsAreIndependentAndRepeatable) {
  EXPECT_EQ(stream_seed(1, 2), stream_seed(1, 2));
  EXPECT_NE(stream_seed(1, 2), stream_seed(1, 3));
  EXPECT_NE(stream_seed(1, 2), stream_seed(2, 2));
  SplitMix a(42);
  SplitMix b(42);
  for (int i = 0; i < 100; ++i) {
    const double u = a.unit();
    EXPECT_EQ(u, b.unit());
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

}  // namespace
}  // namespace perfbench
