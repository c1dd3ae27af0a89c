// The per-layer ledger of the traced run.
//
// Each probe times one layer through its public functions on small
// seeded inputs, inside a span named after the layer, and reports an
// absolute cost per unit of work:
//
//   engine    ChainEvaluator::evaluate on cold chains / stages_computed,
//             ChainBatchEvaluator::evaluate (16 lanes, width 32) per
//             lane-stage, carry_after on a cached prefix per probe;
//   analysis  advance_error_pmf per PMF entry (summed joint support),
//             BlockErrorModel::analyze per call, RecursiveAnalyzer per
//             stage;
//   sim       BitSlicedKernel::run_packed per lane-case, Monte Carlo per
//             sample;
//   service   probe_service_layers (serve_sweep.cpp);
//   explore   a width-14 err branch-and-bound at 1 and min(4, nproc)
//             threads, and the seed beam at that width.
//
// Counters a workload measured on its own traffic (cache hit rates,
// service stats, BnB nodes) take precedence: a probe only fills metrics
// the workload did not produce.
#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/analysis/block_error.hpp"
#include "sealpaa/analysis/error_pmf.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/engine/batch_evaluator.hpp"
#include "sealpaa/engine/chain_evaluator.hpp"
#include "sealpaa/explore/branch_bound.hpp"
#include "sealpaa/explore/hybrid.hpp"
#include "sealpaa/multibit/blocks.hpp"
#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/sim/bitsliced.hpp"
#include "sealpaa/sim/montecarlo.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace sealpaa;

constexpr std::size_t kWidth = 32;

[[nodiscard]] std::vector<adders::AdderCell> palette() {
  const auto cells = adders::all_builtin_cells();
  return {cells.begin(), cells.end()};
}

/// `count` random palette-index chains of `width` stages.
[[nodiscard]] std::vector<std::vector<std::size_t>> random_choices(
    std::size_t count, std::size_t width, std::size_t cells, SplitMix& rng) {
  std::vector<std::vector<std::size_t>> chains(count);
  for (auto& chain : chains) {
    for (std::size_t i = 0; i < width; ++i) chain.push_back(rng.below(cells));
  }
  return chains;
}

[[nodiscard]] std::vector<adders::AdderCell> to_cells(
    const std::vector<std::size_t>& choices,
    const std::vector<adders::AdderCell>& cells) {
  std::vector<adders::AdderCell> stages;
  for (const std::size_t c : choices) stages.push_back(cells[c]);
  return stages;
}

[[nodiscard]] double per(double seconds, double units) {
  return units > 0.0 ? seconds * 1e9 / units : 0.0;
}

void probe_engine(SplitMix& rng, Tracer& tracer, RunResult& result) {
  const std::vector<adders::AdderCell> cells = palette();
  const multibit::InputProfile profile = random_profile(kWidth, rng);
  auto& m = result.per_layer;

  {  // Cold chains: no cache, every stage advanced.
    engine::ChainEvaluatorOptions options;
    options.cache_capacity = 0;
    engine::ChainEvaluator evaluator(profile, cells, options);
    const auto chains = random_choices(2048, kWidth, cells.size(), rng);
    const Tracer::Scope span(tracer, "engine.stage_advance");
    const Clock::time_point t0 = Clock::now();
    for (const auto& chain : chains) {
      result.check(evaluator.evaluate(chain).p_error >= 0.0,
                   "ledger: ChainEvaluator::evaluate");
    }
    const double seconds = seconds_between(t0, Clock::now());
    const double stages = static_cast<double>(
        std::max<std::uint64_t>(evaluator.stats().stages_computed,
                                chains.size() * kWidth));
    set_metric(m, "engine.ns_per_stage_advance", "ns", per(seconds, stages));
  }
  {  // SoA lanes: 16-lane strict batches at width 32.
    engine::ChainBatchEvaluator batch(profile, cells);
    const auto chains = random_choices(16, kWidth, cells.size(), rng);
    std::vector<std::span<const std::size_t>> views(chains.begin(),
                                                    chains.end());
    constexpr int kRepeats = 256;
    const Tracer::Scope span(tracer, "engine.lane_stage");
    const Clock::time_point t0 = Clock::now();
    for (int r = 0; r < kRepeats; ++r) {
      const auto results = batch.evaluate(views, engine::BatchMode::kStrict);
      result.check(results.size() == chains.size(),
                   "ledger: ChainBatchEvaluator::evaluate");
    }
    const double seconds = seconds_between(t0, Clock::now());
    set_metric(m, "engine.ns_per_lane_stage", "ns",
               per(seconds, static_cast<double>(batch.stats().lane_stages)));
  }
  {  // Prefix probes answered from the cache.
    engine::ChainEvaluator evaluator(profile, cells);
    const auto chain = random_choices(1, kWidth, cells.size(), rng).front();
    const std::span<const std::size_t> prefix(chain.data(), 24);
    (void)evaluator.carry_after(prefix);
    constexpr int kProbes = 200'000;
    const Tracer::Scope span(tracer, "engine.prefix_probe");
    double mass = 0.0;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kProbes; ++i) {
      mass += evaluator.carry_after(prefix).success_mass();
    }
    const double seconds = seconds_between(t0, Clock::now());
    result.check(mass > 0.0, "ledger: carry_after");
    set_metric(m, "engine.ns_per_prefix_probe", "ns", per(seconds, kProbes));
  }
}

void probe_analysis(SplitMix& rng, Tracer& tracer, RunResult& result) {
  const std::span<const adders::AdderCell> lpaas = adders::builtin_lpaas();
  const std::vector<adders::AdderCell> cells = palette();
  auto& m = result.per_layer;
  {  // PMF convolution: 12 approximate stages, accurate tail.
    double seconds = 0.0;
    double entries = 0.0;
    const Tracer::Scope span(tracer, "analysis.pmf_advance");
    for (int chain = 0; chain < 8; ++chain) {
      const multibit::InputProfile profile = random_profile(kWidth, rng);
      analysis::ErrorPmfState state =
          analysis::make_error_pmf_state(profile.p_cin());
      for (std::size_t i = 0; i < kWidth; ++i) {
        const adders::AdderCell& cell =
            i < 12 ? lpaas[rng.below(lpaas.size())] : adders::accurate();
        const Clock::time_point t0 = Clock::now();
        analysis::advance_error_pmf(state, cell, profile.p_a(i),
                                    profile.p_b(i));
        seconds += seconds_between(t0, Clock::now());
        for (const analysis::ErrorPmf& joint : state.joint) {
          entries += static_cast<double>(joint.support_size());
        }
      }
      result.check(std::abs(analysis::finalize_error_pmf(state).total_mass() -
                            1.0) < 1e-9,
                   "ledger: error PMF mass");
    }
    set_metric(m, "analysis.ns_per_pmf_entry", "ns", per(seconds, entries));
  }
  {  // Block adders: ACA(24, 4).
    const multibit::BlockChainSpec spec = multibit::BlockChainSpec::aca(24, 4);
    std::vector<double> call_s;
    const Tracer::Scope span(tracer, "analysis.block_call");
    for (int call = 0; call < 8; ++call) {
      const multibit::InputProfile profile = random_profile(24, rng);
      const Clock::time_point t0 = Clock::now();
      const analysis::BlockAnalysis analysis =
          analysis::BlockErrorModel::analyze(spec, profile);
      call_s.push_back(seconds_between(t0, Clock::now()));
      result.check(analysis.p_error >= 0.0 && analysis.p_error <= 1.0,
                   "ledger: BlockErrorModel::analyze");
    }
    set_metric(m, "analysis.ns_per_block_call", "ns", median(call_s) * 1e9);
  }
  {  // The paper's recursion.
    const multibit::InputProfile profile = random_profile(kWidth, rng);
    std::vector<multibit::AdderChain> chains;
    for (const auto& choices : random_choices(256, kWidth, cells.size(), rng)) {
      chains.emplace_back(to_cells(choices, cells));
    }
    constexpr int kRounds = 16;
    const Tracer::Scope span(tracer, "analysis.recursive");
    double sum = 0.0;
    const Clock::time_point t0 = Clock::now();
    for (int round = 0; round < kRounds; ++round) {
      for (const multibit::AdderChain& chain : chains) {
        sum += analysis::RecursiveAnalyzer::analyze(chain, profile).p_error;
      }
    }
    const double seconds = seconds_between(t0, Clock::now());
    result.check(sum >= 0.0, "ledger: RecursiveAnalyzer");
    set_metric(m, "analysis.ns_per_recursive_stage", "ns",
               per(seconds, static_cast<double>(kRounds * chains.size() * kWidth)));
  }
}

void probe_sim(SplitMix& rng, Tracer& tracer, RunResult& result) {
  const std::vector<adders::AdderCell> cells = palette();
  const auto choices = random_choices(1, 16, cells.size(), rng).front();
  const multibit::AdderChain chain(to_cells(choices, cells));
  auto& m = result.per_layer;
  {
    const sim::BitSlicedKernel kernel(chain);
    std::vector<std::uint64_t> words(2 * 16 * 64);
    for (std::uint64_t& word : words) word = rng.next();
    constexpr std::size_t kBatches = 64;
    constexpr int kRounds = 2000;
    std::uint64_t errors = 0;
    const Tracer::Scope span(tracer, "sim.lane_case");
    const Clock::time_point t0 = Clock::now();
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t b = 0; b < kBatches; ++b) {
        const std::uint64_t* a = words.data() + b * 32;
        const sim::BitSlicedKernel::Result out =
            kernel.run_packed(a, a + 16, a[0] ^ a[17], ~std::uint64_t{0});
        errors += static_cast<std::uint64_t>(__builtin_popcountll(out.stage_fail_mask));
      }
    }
    const double seconds = seconds_between(t0, Clock::now());
    result.check(errors > 0, "ledger: BitSlicedKernel::run_packed");
    set_metric(m, "sim.ns_per_lane_case", "ns",
               per(seconds, static_cast<double>(kRounds * kBatches * 64)));
  }
  {
    const multibit::InputProfile profile = random_profile(16, rng);
    constexpr std::uint64_t kSamples = 65'536;
    std::vector<double> run_s;
    const Tracer::Scope span(tracer, "sim.monte_carlo");
    for (int run = 0; run < 5; ++run) {
      const Clock::time_point t0 = Clock::now();
      const sim::MonteCarloReport report =
          sim::MonteCarloSimulator::run(chain, profile, kSamples, rng.next());
      run_s.push_back(seconds_between(t0, Clock::now()));
      result.check(report.samples == kSamples, "ledger: Monte Carlo samples");
    }
    set_metric(m, "sim.ns_per_mc_sample", "ns",
               median(run_s) * 1e9 / static_cast<double>(kSamples));
  }
}

void probe_explore(Tracer& tracer, RunResult& result) {
  const multibit::InputProfile profile = skewed_profile(14);
  const auto lpaas = adders::builtin_lpaas();
  const std::vector<adders::AdderCell> cells(lpaas.begin(), lpaas.end());
  const unsigned threads =
      std::min(4u, std::max(1u, std::thread::hardware_concurrency()));

  const auto solve = [&](unsigned t, double& seconds) {
    explore::BnbOptions options;
    options.threads = t;
    const Tracer::Scope span(tracer, "explore.optimize");
    const Clock::time_point t0 = Clock::now();
    explore::BnbResult solved = explore::BranchBoundOptimizer::optimize(
        profile, cells, {}, explore::Objective::kErrorRate, options);
    seconds = seconds_between(t0, Clock::now());
    return solved;
  };
  double one_s = 0.0;
  double mt_s = 0.0;
  const explore::BnbResult one = solve(1, one_s);
  const explore::BnbResult mt = solve(threads, mt_s);
  result.check(one.complete && mt.complete &&
                   one.design.p_success == mt.design.p_success,
               "ledger: branch-and-bound thread identity");
  const explore::SearchStats& stats = one.design.stats;
  auto& m = result.per_layer;
  const auto fill = [&](const std::string& name, const std::string& unit,
                        double value) {
    if (!has_metric(m, name)) set_metric(m, name, unit, value);
  };
  fill("explore.nodes_expanded", "count",
       static_cast<double>(stats.nodes_expanded));
  fill("explore.bound_cutoffs", "count",
       static_cast<double>(stats.bound_cutoffs));
  fill("explore.ns_per_node", "ns",
       per(one_s, static_cast<double>(stats.nodes_expanded)));
  fill("explore.steal_count", "count",
       static_cast<double>(mt.design.stats.steal_count));
  fill("explore.mt_speedup", "ratio", one_s / mt_s);
  const double probes =
      static_cast<double>(stats.cache_hits + stats.cache_misses);
  fill("engine.prefix_hit_rate", "ratio",
       probes > 0.0 ? static_cast<double>(stats.cache_hits) / probes : 0.0);
  if (!has_metric(m, "explore.seed_beam_s")) {
    const Tracer::Scope span(tracer, "explore.seed_beam");
    const Clock::time_point t0 = Clock::now();
    (void)explore::HybridOptimizer::beam(profile, cells, {}, 64);
    set_metric(m, "explore.seed_beam_s", "s",
               seconds_between(t0, Clock::now()));
  }
}

}  // namespace

multibit::InputProfile random_profile(std::size_t width, SplitMix& rng) {
  std::vector<double> p_a;
  std::vector<double> p_b;
  for (std::size_t i = 0; i < width; ++i) {
    p_a.push_back(0.05 + 0.9 * rng.unit());
    p_b.push_back(0.05 + 0.9 * rng.unit());
  }
  return multibit::InputProfile(p_a, p_b, 0.05 + 0.9 * rng.unit());
}

multibit::InputProfile skewed_profile(std::size_t width,
                                      const std::vector<double>& jitter) {
  std::vector<double> p_a;
  std::vector<double> p_b;
  for (std::size_t i = 0; i < width; ++i) {
    const double shift = jitter.empty() ? 0.0 : jitter[i];
    p_a.push_back(0.10 + 0.08 * static_cast<double>(i % 10) + shift);
    p_b.push_back(0.90 - 0.07 * static_cast<double>(i % 10) - shift);
  }
  return multibit::InputProfile(p_a, p_b, 0.25);
}

void set_metric(std::vector<Metric>& metrics, const std::string& name,
                const std::string& unit, double value) {
  for (Metric& metric : metrics) {
    if (metric.name == name) {
      metric.unit = unit;
      metric.value = value;
      return;
    }
  }
  metrics.push_back(Metric{name, unit, value});
}

bool has_metric(const std::vector<Metric>& metrics, const std::string& name) {
  return std::any_of(metrics.begin(), metrics.end(),
                     [&name](const Metric& metric) {
                       return metric.name == name;
                     });
}

void measure_layers(const RunOptions& options, Tracer& tracer,
                    RunResult& result) {
  SplitMix rng(stream_seed(options.seed, 77));
  // Workload-native values win: each probe writes into a scratch result
  // and only the metrics the workload lacks are copied over.
  RunResult probes;
  probes.per_layer = result.per_layer;
  if (!has_metric(probes.per_layer, "service.parse_ns_per_frame")) {
    probe_service_layers(options.seed, tracer, probes);
  }
  probe_explore(tracer, probes);
  RunResult timed;
  probe_engine(rng, tracer, timed);
  probe_analysis(rng, tracer, timed);
  probe_sim(rng, tracer, timed);
  for (const Metric& metric : timed.per_layer) {
    set_metric(probes.per_layer, metric.name, metric.unit, metric.value);
  }
  result.per_layer = probes.per_layer;
  probes.per_layer.clear();
  result.absorb(probes);
  result.absorb(timed);
}

}  // namespace perfbench
