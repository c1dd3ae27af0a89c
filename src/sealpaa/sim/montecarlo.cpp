#include "sealpaa/sim/montecarlo.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

#include "sealpaa/prob/rng.hpp"
#include "sealpaa/sim/bitsliced.hpp"
#include "sealpaa/sim/lane_sampler.hpp"
#include "sealpaa/util/parallel.hpp"
#include "sealpaa/util/timer.hpp"

namespace sealpaa::sim {

namespace {

// Samples handled by one RNG stream.  The shard layout is a function of
// the sample count alone, so the merged metrics depend only on
// (seed, samples) — never on how many threads executed the shards.
constexpr std::uint64_t kShardSamples = 1ULL << 16;

struct SimShard {
  ErrorMetrics metrics;
  std::uint64_t lane_batches = 0;
  std::uint64_t masked_lanes = 0;
};

SimShard simulate_shard_scalar(const multibit::AdderChain& chain,
                               const multibit::InputProfile& profile,
                               std::uint64_t samples,
                               prob::Xoshiro256StarStar rng) {
  const std::size_t n = chain.width();
  SimShard shard;
  for (std::uint64_t s = 0; s < samples; ++s) {
    const multibit::InputProfile::Sample input = profile.sample(rng);
    const multibit::TracedAddResult traced =
        chain.evaluate_traced(input.a, input.b, input.cin);
    const multibit::AddResult exact =
        multibit::exact_add(input.a, input.b, input.cin, n);
    shard.metrics.add(traced.outputs.value(n), exact.value(n),
                      traced.all_stages_success);
  }
  return shard;
}

// Same draws as the scalar shard, sampled straight into lane words and
// evaluated 64 samples per kernel pass; the final partial batch runs
// with its remainder lanes masked.
SimShard simulate_shard_bitsliced(const BitSlicedKernel& kernel,
                                  const multibit::InputProfile& profile,
                                  std::uint64_t samples,
                                  prob::Xoshiro256StarStar rng) {
  SimShard shard;
  LaneSampler sampler(profile);
  std::array<std::uint64_t, 64> a_words{};
  std::array<std::uint64_t, 64> b_words{};
  for (std::uint64_t first = 0; first < samples; first += 64) {
    const std::uint64_t count = std::min<std::uint64_t>(64, samples - first);
    const std::uint64_t cin_word =
        sampler.draw(rng, count, a_words.data(), b_words.data());
    const std::uint64_t lane_mask =
        count == 64 ? ~0ULL : (1ULL << count) - 1ULL;
    const BitSlicedKernel::Result result =
        kernel.run_packed(a_words.data(), b_words.data(), cin_word, lane_mask);
    accumulate(shard.metrics, result);
    ++shard.lane_batches;
    shard.masked_lanes += 64 - count;
  }
  return shard;
}

SimShard simulate_shard(const multibit::AdderChain& chain,
                        const BitSlicedKernel* kernel,
                        const multibit::InputProfile& profile,
                        std::uint64_t samples, prob::Xoshiro256StarStar rng) {
  return kernel != nullptr
             ? simulate_shard_bitsliced(*kernel, profile, samples, rng)
             : simulate_shard_scalar(chain, profile, samples, rng);
}

}  // namespace

MonteCarloReport MonteCarloSimulator::run(const multibit::AdderChain& chain,
                                          const multibit::InputProfile& profile,
                                          std::uint64_t samples,
                                          std::uint64_t seed, Kernel kernel) {
  if (chain.width() != profile.width()) {
    throw std::invalid_argument(
        "MonteCarloSimulator: chain and profile widths differ");
  }

  MonteCarloReport report;
  report.samples = samples;
  report.kernel = kernel;
  // Zero samples: no data, so the metrics stay at their identity and the
  // confidence intervals stay empty — never NaN or a fabricated [0, 1].
  if (samples == 0) return report;
  util::WallTimer timer;
  const BitSlicedKernel sliced(chain);
  const SimShard shard = simulate_shard(
      chain, kernel == Kernel::kBitSliced ? &sliced : nullptr, profile,
      samples, prob::Xoshiro256StarStar(seed));
  report.metrics = shard.metrics;
  report.lane_batches = shard.lane_batches;
  report.masked_lanes = shard.masked_lanes;
  report.seconds = timer.elapsed_seconds();
  report.stage_failure_ci =
      prob::wilson_interval(report.metrics.stage_failures(), samples, 1.96);
  report.value_error_ci =
      prob::wilson_interval(report.metrics.value_errors(), samples, 1.96);
  return report;
}

MonteCarloReport MonteCarloSimulator::run_parallel(
    const multibit::AdderChain& chain, const multibit::InputProfile& profile,
    std::uint64_t samples, unsigned threads, std::uint64_t seed,
    Kernel kernel) {
  if (chain.width() != profile.width()) {
    throw std::invalid_argument(
        "MonteCarloSimulator: chain and profile widths differ");
  }
  if (threads == 0) {
    throw std::invalid_argument("MonteCarloSimulator: threads must be >= 1");
  }

  MonteCarloReport report;
  report.samples = samples;
  report.kernel = kernel;
  if (samples == 0) return report;  // empty metrics, empty CIs — not NaN
  util::WallTimer timer;

  // Disjoint streams: shard s uses the base generator advanced by s
  // jumps (each jump skips 2^128 draws).  Shard 0 is the unjumped base,
  // so a single-shard run reproduces run() exactly.
  const std::uint64_t shards =
      std::max<std::uint64_t>(1, (samples + kShardSamples - 1) / kShardSamples);
  std::vector<prob::Xoshiro256StarStar> rngs;
  rngs.reserve(static_cast<std::size_t>(shards));
  prob::Xoshiro256StarStar base(seed);
  for (std::uint64_t s = 0; s < shards; ++s) {
    rngs.push_back(base);
    base.jump();
  }

  const BitSlicedKernel sliced(chain);
  const BitSlicedKernel* sliced_ptr =
      kernel == Kernel::kBitSliced ? &sliced : nullptr;
  const SimShard total = util::with_pool(threads, [&](util::ThreadPool& pool) {
    return util::parallel_map_reduce(
        pool, 0, shards, 1, SimShard{},
        [&](std::uint64_t shard, std::uint64_t) {
          const std::uint64_t first = shard * kShardSamples;
          const std::uint64_t count = std::min(kShardSamples, samples - first);
          return simulate_shard(chain, sliced_ptr, profile, count,
                                rngs[static_cast<std::size_t>(shard)]);
        },
        [](SimShard& acc, SimShard&& shard) {
          acc.metrics.merge(shard.metrics);
          acc.lane_batches += shard.lane_batches;
          acc.masked_lanes += shard.masked_lanes;
        },
        &report.shard_timings);
  });
  report.metrics = total.metrics;
  report.lane_batches = total.lane_batches;
  report.masked_lanes = total.masked_lanes;

  report.seconds = timer.elapsed_seconds();
  report.stage_failure_ci =
      prob::wilson_interval(report.metrics.stage_failures(), samples, 1.96);
  report.value_error_ci =
      prob::wilson_interval(report.metrics.value_errors(), samples, 1.96);
  return report;
}

}  // namespace sealpaa::sim
