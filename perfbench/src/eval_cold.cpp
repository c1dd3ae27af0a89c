// eval_cold: one-shot engine::evaluate calls with threads = 1 on seeded
// chains that never repeat — no service, no cache reuse, so the analysis
// and sim kernels set the numbers.
//
// Every repetition generates a fresh batch (repetition index folded into
// the seed) and times it per method:
//
//   recursive        64 calls, width 32, random cells and profile;
//   analytic-pmf      8 calls, width 32, 12 approximate stages + tail;
//   block-analytic    4 calls: ACA(24, 4), ETAII(32, 8), GeAr(28, 4, 4)
//                     and a random heterogeneous 32-bit block list;
//   monte-carlo       4 calls, width 16, 65,536 samples.
//
// The block shapes are fixed so every repetition costs about the same;
// only profiles, chains and the heterogeneous list come from the seed.
//
// The per-call time of a method is its batch time / call count; the
// median across repetitions is reported.  Each recursive result must be
// bit-identical to RecursiveAnalyzer, each analytic-pmf stage result
// too, and each Monte Carlo estimate within 5 standard errors of the
// exact value.  After the window a reduced-width replica (width 8)
// checks the exact methods against weighted-exhaustive to 1e-12.
//
// Set-up (setup_s) is one untimed repetition (lazy kernel dispatch,
// tables), repeated three times; the median is reported.  The end-to-end
// figures are normalised by the calibration kernel timed before each
// repetition (common.hpp); the raw wall times are the workload metrics.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/analysis/block_error.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/engine/method.hpp"
#include "sealpaa/multibit/blocks.hpp"
#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/multibit/input_profile.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace sealpaa;

constexpr std::size_t kRecursiveCalls = 64;
constexpr std::size_t kPmfCalls = 8;
constexpr std::size_t kBlockCalls = 4;
constexpr std::size_t kMcCalls = 4;
constexpr std::uint64_t kMcSamples = 65'536;
constexpr std::size_t kReplicaWidth = 8;
constexpr int kSetupRepeats = 3;

enum Kind : std::size_t {
  kRecursive = 0,
  kPmf = 1,
  kBlock = 2,
  kMc = 3,
  kKinds = 4
};
constexpr const char* kKindNames[kKinds] = {"recursive", "analytic-pmf",
                                            "block-analytic", "monte-carlo"};
constexpr engine::Method kKindMethods[kKinds] = {
    engine::Method::kRecursive, engine::Method::kAnalyticPmf,
    engine::Method::kBlockAnalytic, engine::Method::kMonteCarlo};

struct Call {
  Kind kind = kRecursive;
  std::vector<adders::AdderCell> stages;
  multibit::InputProfile profile = multibit::InputProfile::uniform(1, 0.5);
  std::string blocks;  // block-analytic spec, "" otherwise
  std::uint64_t mc_seed = 0;
};

[[nodiscard]] std::vector<adders::AdderCell> random_chain(std::size_t width,
                                                          std::size_t approx,
                                                          SplitMix& rng) {
  const std::span<const adders::AdderCell> cells = adders::all_builtin_cells();
  const std::span<const adders::AdderCell> lpaas = adders::builtin_lpaas();
  std::vector<adders::AdderCell> stages;
  for (std::size_t i = 0; i < width; ++i) {
    if (approx == width) {
      stages.push_back(cells[rng.below(cells.size())]);
    } else {
      stages.push_back(i < approx ? lpaas[rng.below(lpaas.size())]
                                  : adders::accurate());
    }
  }
  return stages;
}

/// A heterogeneous block list "R:P,..." of total width `width`: result
/// widths 3..5, prediction windows 2..3 (block 0 has none).
[[nodiscard]] std::string hetero_spec(std::size_t width, SplitMix& rng) {
  std::string spec;
  std::size_t covered = 0;
  while (covered < width) {
    const std::size_t r = std::min<std::size_t>(3 + rng.below(3), width - covered);
    const std::size_t p =
        covered == 0 ? 0 : std::min<std::size_t>(2 + rng.below(2), covered);
    if (!spec.empty()) spec += ',';
    spec += std::to_string(r) + ":" + std::to_string(p);
    covered += r;
  }
  return spec;
}

/// Block call `which` of a repetition: its width and spec.
[[nodiscard]] std::pair<std::size_t, std::string> block_call(
    std::size_t which, SplitMix& rng) {
  switch (which % 4) {
    case 0:
      return {24, "aca:4"};
    case 1:
      return {32, "etaii:8"};
    case 2:
      return {28, "gear:4:4"};
    default:
      return {32, hetero_spec(32, rng)};
  }
}

/// The batch of repetition `repetition`: a pure function of (seed,
/// repetition), so no chain repeats within or across repetitions.
[[nodiscard]] std::vector<Call> make_batch(std::uint64_t seed,
                                           std::size_t repetition,
                                           std::size_t width_scale = 0) {
  SplitMix rng(stream_seed(seed, 1000 + repetition));
  std::vector<Call> calls;
  const auto width_or = [width_scale](std::size_t width) {
    return width_scale == 0 ? width : width_scale;
  };
  for (std::size_t i = 0; i < kRecursiveCalls; ++i) {
    const std::size_t w = width_or(32);
    calls.push_back(Call{kRecursive, random_chain(w, w, rng),
                         random_profile(w, rng), "", 0});
  }
  for (std::size_t i = 0; i < kPmfCalls; ++i) {
    const std::size_t w = width_or(32);
    calls.push_back(Call{kPmf, random_chain(w, std::min<std::size_t>(12, w), rng),
                         random_profile(w, rng), "", 0});
  }
  for (std::size_t i = 0; i < kBlockCalls; ++i) {
    auto [w, spec] = block_call(i, rng);
    if (width_scale != 0) {
      w = width_scale;
      if (i % 4 == 3) spec = hetero_spec(w, rng);
    }
    calls.push_back(Call{kBlock, std::vector<adders::AdderCell>(w, adders::accurate()),
                         random_profile(w, rng), spec, 0});
  }
  for (std::size_t i = 0; i < kMcCalls; ++i) {
    const std::size_t w = width_or(16);
    calls.push_back(Call{kMc, random_chain(w, w, rng), random_profile(w, rng),
                         "", rng.next()});
  }
  return calls;
}

[[nodiscard]] std::string describe(const std::vector<Call>& calls) {
  std::ostringstream out;
  for (const Call& call : calls) {
    out << kKindNames[call.kind] << ' ' << call.stages.size() << ' ';
    if (call.kind == kBlock) {
      out << call.blocks;
    } else {
      for (const adders::AdderCell& cell : call.stages) out << cell.name() << ',';
    }
    for (std::size_t i = 0; i < call.profile.width(); ++i) {
      out << ' ' << exact(call.profile.p_a(i)) << '/' << exact(call.profile.p_b(i));
    }
    out << ' ' << exact(call.profile.p_cin()) << ' ' << call.mc_seed << '\n';
  }
  return out.str();
}

[[nodiscard]] engine::EvaluateOptions options_for(const Call& call) {
  engine::EvaluateOptions options;
  options.threads = 1;
  options.samples = kMcSamples;
  options.seed = call.mc_seed;
  if (call.kind == kBlock) {
    options.blocks = multibit::BlockChainSpec::parse(
        static_cast<int>(call.stages.size()), call.blocks);
  }
  return options;
}

[[nodiscard]] engine::Evaluation evaluate(const Call& call) {
  return engine::evaluate(multibit::AdderChain(call.stages), call.profile,
                          kKindMethods[call.kind], options_for(call));
}

/// Checks one timed call's result.
void verify(const Call& call, const engine::Evaluation& got,
            RunResult& result) {
  const std::string what = std::string("eval_cold: ") + kKindNames[call.kind];
  switch (call.kind) {
    case kRecursive:
    case kPmf: {
      const analysis::AnalysisResult exact_result =
          analysis::RecursiveAnalyzer::analyze(multibit::AdderChain(call.stages),
                                               call.profile);
      bool ok = got.p_error == exact_result.p_error &&
                got.p_success == exact_result.p_success;
      if (call.kind == kPmf) {
        ok = ok && got.distribution && got.pmf &&
             std::abs(got.pmf->total_mass - 1.0) < 1e-9;
      }
      result.check(ok, what + " differs from RecursiveAnalyzer");
      break;
    }
    case kBlock:
      result.check(got.distribution && got.p_error >= 0.0 &&
                       got.p_error <= 1.0 &&
                       std::abs(got.distribution->error_rate - got.p_error) <
                           1e-12,
                   what + " returned an inconsistent error rate");
      break;
    case kMc: {
      const double exact_p = analysis::RecursiveAnalyzer::analyze(
                                 multibit::AdderChain(call.stages), call.profile)
                                 .p_error;
      const double se = std::sqrt(std::max(exact_p * (1.0 - exact_p), 1e-12) /
                                  static_cast<double>(kMcSamples));
      result.check(std::abs(got.p_error - exact_p) <= 5.0 * se + 1e-12,
                   what + " estimate is more than 5 standard errors off");
      break;
    }
    default:
      break;
  }
}

[[nodiscard]] bool close(double a, double b) {
  return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b));
}

/// Reduced-width replica: the exact methods against weighted-exhaustive
/// (block-analytic against BlockErrorModel::exhaustive_pmf).
void check_replica(std::uint64_t seed, RunResult& result) {
  for (std::size_t rep = 0; rep < 2; ++rep) {
    std::size_t recursive_checked = 0;
    for (const Call& call :
         make_batch(stream_seed(seed, 9), rep, kReplicaWidth)) {
      if (call.kind == kMc) continue;
      if (call.kind == kRecursive && ++recursive_checked > 8) continue;
      const engine::Evaluation got = evaluate(call);
      if (call.kind == kBlock) {
        const analysis::ErrorPmf oracle = analysis::BlockErrorModel::exhaustive_pmf(
            *options_for(call).blocks, call.profile, kReplicaWidth);
        result.check(close(got.p_error, oracle.error_rate()) &&
                         close(got.distribution->mean_error_distance,
                               oracle.mean_error_distance()) &&
                         close(got.distribution->mean_squared_error,
                               oracle.mean_squared_error()),
                     "eval_cold replica: block-analytic vs exhaustive " +
                         call.blocks);
        continue;
      }
      const engine::Evaluation oracle = engine::evaluate(
          multibit::AdderChain(call.stages), call.profile,
          engine::Method::kWeightedExhaustive, options_for(call));
      bool ok = close(got.p_error, oracle.p_error);
      if (call.kind == kPmf) {
        ok = ok && got.distribution && oracle.distribution &&
             close(got.distribution->error_rate, oracle.distribution->error_rate) &&
             close(got.distribution->mean_error_distance,
                   oracle.distribution->mean_error_distance) &&
             close(got.distribution->mean_squared_error,
                   oracle.distribution->mean_squared_error);
      }
      result.check(ok, std::string("eval_cold replica: ") +
                           kKindNames[call.kind] + " vs weighted-exhaustive");
    }
  }
}

struct Window {
  std::array<std::vector<double>, kKinds> per_call_s;  // one per repetition
  /// The same, normalised by the calibration kernel timed right before
  /// each repetition (see Calibration).
  std::array<std::vector<double>, kKinds> per_call_norm_s;
  std::size_t repetitions = 0;
  double seconds = 0.0;
};

[[nodiscard]] Window timed_window(std::uint64_t seed, std::size_t first,
                                  double seconds, Tracer& tracer,
                                  Calibration& calibration,
                                  RunResult& result) {
  Window window;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (std::size_t rep = first; rep == first || Clock::now() < deadline;
       ++rep) {
    const std::vector<Call> batch = make_batch(seed, rep);
    const double kernel_s = calibration.sample(10);
    std::array<double, kKinds> busy{};
    std::array<std::size_t, kKinds> calls{};
    std::vector<engine::Evaluation> results;
    results.reserve(batch.size());
    std::uint64_t call_id = rep << 16;
    for (const Call& call : batch) {
      const engine::EvaluateOptions options = options_for(call);
      const multibit::AdderChain chain(call.stages);
      const Clock::time_point t0 = Clock::now();
      {
        const Tracer::Scope span(tracer, "engine.evaluate", call_id++);
        results.push_back(engine::evaluate(chain, call.profile,
                                           kKindMethods[call.kind], options));
      }
      busy[call.kind] += seconds_between(t0, Clock::now());
      ++calls[call.kind];
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      verify(batch[i], results[i], result);
    }
    for (std::size_t k = 0; k < kKinds; ++k) {
      window.per_call_s[k].push_back(busy[k] / static_cast<double>(calls[k]));
      window.per_call_norm_s[k].push_back(
          Calibration::normalise(window.per_call_s[k].back(), kernel_s));
    }
    ++window.repetitions;
  }
  window.seconds = seconds_between(start, Clock::now());
  return window;
}

}  // namespace

std::string eval_cold_input_bytes(std::uint64_t seed, std::size_t repetition) {
  return describe(make_batch(seed, repetition));
}

RunResult run_eval_cold(const RunOptions& options, Tracers& tracers) {
  RunResult result;
  tracers.push_back(std::make_unique<Tracer>(
      options.trace, static_cast<std::uint32_t>(tracers.size())));
  Tracer& tracer = *tracers.back();

  InputHash hash;
  for (std::size_t rep = 0; rep < 16; ++rep) {
    hash.add(eval_cold_input_bytes(options.seed, rep));
  }

  // Set-up: untimed repetitions on a stream the window never uses.
  Calibration calibration;
  std::vector<double> setup_s;
  std::vector<double> setup_norm_s;
  Tracer silent(false);
  RunResult setup_checks;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    Calibration setup_calibration;
    const double kernel_s = calibration.sample(50);
    const Clock::time_point t0 = Clock::now();
    (void)timed_window(stream_seed(options.seed, 11),
                       static_cast<std::size_t>(repeat), 0.0, silent,
                       setup_calibration, setup_checks);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    setup_norm_s.push_back(Calibration::normalise(setup_s.back(), kernel_s));
  }
  result.absorb(setup_checks);

  Window untraced;
  if (options.trace) {
    untraced = timed_window(options.seed, 0, options.seconds / 2, silent,
                            calibration, result);
  }
  // Both halves of a traced run time the same repetitions, so the
  // overhead compares like with like.
  const Window window = timed_window(
      options.seed, 0, options.trace ? options.seconds / 2 : options.seconds,
      tracer, calibration, result);

  check_replica(options.seed, result);

  const double recursive_us = median(window.per_call_s[kRecursive]) * 1e6;
  const double pmf_ms = median(window.per_call_s[kPmf]) * 1e3;
  const double block_ms = median(window.per_call_s[kBlock]) * 1e3;
  const double mc_ms = median(window.per_call_s[kMc]) * 1e3;
  auto& w = result.workload_metrics;
  set_metric(w, "eval_recursive_us", "us", recursive_us);
  set_metric(w, "eval_pmf_ms", "ms", pmf_ms);
  set_metric(w, "eval_block_ms", "ms", block_ms);
  set_metric(w, "eval_mc_ms", "ms", mc_ms);

  auto& e = result.end_to_end;
  set_metric(e, "setup_s", "s", median(setup_norm_s));
  set_metric(e, "leg1_ms", "ms", median(window.per_call_norm_s[kRecursive]) * 1e3);
  set_metric(e, "leg2_ms", "ms", median(window.per_call_norm_s[kPmf]) * 1e3);
  set_metric(e, "leg3_ms", "ms", median(window.per_call_norm_s[kBlock]) * 1e3);
  set_metric(e, "leg4_ms", "ms", median(window.per_call_norm_s[kMc]) * 1e3);

  obs::Json& d = result.details;
  d.set("inputs_hash", obs::Json(hash.hex()));
  d.set("speed_factor",
        obs::Json(calibration.median_s() / Calibration::kReferenceS));
  d.set("setup_raw_s", obs::Json(median(setup_s)));
  d.set("repetitions", obs::Json(static_cast<std::uint64_t>(window.repetitions)));
  d.set("calls_per_repetition",
        obs::Json(static_cast<std::uint64_t>(kRecursiveCalls + kPmfCalls +
                                             kBlockCalls + kMcCalls)));
  d.set("window_s", obs::Json(window.seconds));

  if (options.trace) {
    const double traced_norm = median(window.per_call_norm_s[kPmf]);
    const double untraced_norm = median(untraced.per_call_norm_s[kPmf]);
    set_metric(result.per_layer, "trace.overhead_share", "ratio",
               (traced_norm - untraced_norm) / untraced_norm);
    d.set("trace_overhead_basis",
          obs::Json("normalised eval_pmf_ms, traced half vs untraced half"));
  }
  return result;
}

}  // namespace perfbench
