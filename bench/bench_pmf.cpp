// Analytic error-PMF propagation vs simulation: the tentpole claim of
// the analysis layer is that MED/MSE/WCE come out of the O(N * support)
// propagation *exactly*, with zero simulation samples.  This bench
// checks that claim at three widths and measures what it buys:
//
//   * width 8  — analytic MED/MSE against the weighted-exhaustive
//     enumeration (2^17 assignments), gated at 1e-9 relative
//     divergence; the run exits non-zero past the gate;
//   * width 16 — analytic MED against a Monte Carlo 99% CI (the
//     containment boolean is gated by scripts/check_bench_regression.py);
//   * width 32 — far beyond any enumeration: analytic MED with
//     work_items == 32 and zero samples, again inside the MC 99% CI.
//
// The reported speedup is analytic propagation vs the cheapest honest
// simulated MED at width 8 (the weighted enumeration); wall-clock only,
// the correctness gates are exact.
//
// Three absolute per-layer costs ride along.  ns_per_mixture_entry_* is
// the best wall time of one full width-14 propagation divided by the
// input entries its mixtures consume.  `sparse_span` is LPAA5 x 3,
// LPAA2, AccuFA x 9, LPAA2, whose error values cluster at +-2^k so the
// mixtures' value spans dwarf their entries (the k-way merge's regime);
// its top cell is approximate, so no exact suffix folds away and every
// stage is propagated.  `dense` is all-LPAA3, whose supports fill their
// spans.  ns_per_pmf_call_w32_hybrid is the best wall time of one
// propagate_error_pmf call on a width-32 hybrid (12 LPAA stages under
// 20 AccuFA, the analytic-pmf shape of perfbench's eval_cold), where
// the fold finalizes at stage 12.
//
// Hand-rolled driver (not google-benchmark) so the run can emit the
// versioned sealpaa.run-report JSON: results land in BENCH_pmf.json
// next to the binary (--no-json suppresses, --json-report=FILE
// redirects).
//
// Flags: --reps=5  --samples=400000  --p=0.42  --quick
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "sealpaa/sealpaa.hpp"

namespace {

using namespace sealpaa;

/// The realistic hybrid shape: approximate LPAA low bits, exact high
/// bits — the configuration whose PMF support stays small at any width.
multibit::AdderChain hybrid_chain(std::size_t width,
                                  std::size_t approximate_lsbs) {
  std::vector<adders::AdderCell> stages;
  stages.reserve(width);
  for (std::size_t s = 0; s < width; ++s) {
    stages.push_back(s < approximate_lsbs
                         ? adders::lpaa(1 + static_cast<int>(s % 7))
                         : adders::accurate());
  }
  return multibit::AdderChain(std::move(stages));
}

/// Input entries the mixtures of one propagate_error_pmf call consume:
/// every (source segment, operand combination) term of a propagated stage
/// brings its segment's support into one advance mixture, and finalizing
/// takes each segment once.  The trailing exact stages are folded into
/// the finalize, so they consume nothing.
std::uint64_t mixture_entries(const multibit::AdderChain& chain,
                              const multibit::InputProfile& profile) {
  std::size_t fold = chain.width();
  while (fold > 0 && chain.stage(fold - 1).is_exact()) --fold;
  analysis::ErrorPmfState state =
      analysis::make_error_pmf_state(profile.p_cin());
  std::uint64_t entries = 0;
  for (std::size_t i = 0; i < fold; ++i) {
    const double p_a = profile.p_a(i);
    const double p_b = profile.p_b(i);
    std::uint64_t combinations = 0;
    for (const double weight : {(1.0 - p_a) * (1.0 - p_b), (1.0 - p_a) * p_b,
                                p_a * (1.0 - p_b), p_a * p_b}) {
      if (weight != 0.0) ++combinations;
    }
    for (const analysis::ErrorPmf& segment : state.joint) {
      entries += segment.support_size() * combinations;
    }
    analysis::advance_error_pmf(state, chain.stage(i), p_a, p_b);
  }
  for (const analysis::ErrorPmf& segment : state.joint) {
    entries += segment.support_size();
  }
  return entries;
}

/// Best-of-`reps` wall time of one propagation, in ns (each rep times
/// `iterations` calls).
double ns_per_propagation(const multibit::AdderChain& chain,
                          const multibit::InputProfile& profile, int reps,
                          int iterations) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    util::WallTimer timer;
    for (int i = 0; i < iterations; ++i) {
      const analysis::ErrorPmf pmf =
          analysis::propagate_error_pmf(chain, profile);
      volatile std::size_t guard = pmf.support_size();
      (void)guard;
    }
    const double seconds = timer.elapsed_seconds();
    if (rep == 0 || seconds < best) best = seconds;
  }
  return best * 1e9 / static_cast<double>(iterations);
}

/// ns_per_propagation per mixture input entry.
double ns_per_mixture_entry(const multibit::AdderChain& chain,
                            const multibit::InputProfile& profile, int reps,
                            int iterations) {
  return ns_per_propagation(chain, profile, reps, iterations) /
         static_cast<double>(mixture_entries(chain, profile));
}

double relative_gap(double got, double want) {
  return std::abs(got - want) / std::max(1.0, std::abs(want));
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  try {
    args.expect_flags({"reps", "samples", "p", "quick", "threads",
                       "json-report", "no-json"});
    const bool quick = args.get_bool("quick", false);
    const int reps = static_cast<int>(args.get_uint("reps", quick ? 2 : 5));
    const auto samples = args.get_uint("samples", quick ? 100'000 : 400'000);
    const double p = args.get_double("p", 0.42);

    std::cout << util::banner(
        "analytic error-PMF vs simulated MED (widths 8/16/32)");
    std::cout << "p: " << util::fixed(p, 2) << "  reps: " << reps
              << "  mc samples: " << util::with_commas(samples) << "\n";

    obs::RunReport report("bench_pmf");
    report.record_args(args);
    obs::ScopedTimer total(report.counters(), "total");
    obs::Json& section = report.section("pmf");
    section.set("p", obs::Json(p));
    section.set("reps",
                obs::Json(static_cast<std::uint64_t>(
                    static_cast<std::size_t>(reps))));

    bool ok = true;

    // ---------------------------------------------------------------
    // Width 8: exact gate against the weighted enumeration.
    // ---------------------------------------------------------------
    const std::size_t w8 = 8;
    const auto chain8 = hybrid_chain(w8, w8);  // fully approximate
    const auto profile8 = multibit::InputProfile::uniform(w8, p);

    engine::Evaluation analytic8;
    double analytic_seconds = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      util::WallTimer timer;
      analytic8 = engine::evaluate(chain8, profile8,
                                   engine::Method::kAnalyticPmf);
      const double seconds = timer.elapsed_seconds();
      if (rep == 0 || seconds < analytic_seconds) analytic_seconds = seconds;
    }
    engine::Evaluation oracle8;
    double oracle_seconds = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      util::WallTimer timer;
      oracle8 = engine::evaluate(chain8, profile8,
                                 engine::Method::kWeightedExhaustive);
      const double seconds = timer.elapsed_seconds();
      if (rep == 0 || seconds < oracle_seconds) oracle_seconds = seconds;
    }
    const double med_gap =
        relative_gap(analytic8.distribution->mean_error_distance,
                     oracle8.distribution->mean_error_distance);
    const double mse_gap =
        relative_gap(analytic8.distribution->mean_squared_error,
                     oracle8.distribution->mean_squared_error);
    const bool w8_exact = med_gap <= 1e-9 && mse_gap <= 1e-9 &&
                          analytic8.distribution->worst_case_error ==
                              oracle8.distribution->worst_case_error;
    ok = ok && w8_exact;
    const double speedup =
        analytic_seconds > 0.0 ? oracle_seconds / analytic_seconds : 0.0;

    std::cout << "  width 8   analytic " << util::duration(analytic_seconds)
              << "  enumeration " << util::duration(oracle_seconds)
              << "  MED gap " << med_gap << "  MSE gap " << mse_gap
              << (w8_exact ? "  ok" : "  FAIL") << "\n";

    obs::Json w8_json = obs::Json::object();
    w8_json.set("analytic_seconds", obs::Json(analytic_seconds));
    w8_json.set("enumeration_seconds", obs::Json(oracle_seconds));
    w8_json.set("analytic_vs_enumeration_speedup", obs::Json(speedup));
    w8_json.set("med", obs::Json(analytic8.distribution->mean_error_distance));
    w8_json.set("mse", obs::Json(analytic8.distribution->mean_squared_error));
    w8_json.set("med_relative_gap", obs::Json(med_gap));
    w8_json.set("mse_relative_gap", obs::Json(mse_gap));
    w8_json.set("exact_within_1e9", obs::Json(w8_exact));
    w8_json.set("evaluation", obs::to_json(analytic8));
    section.set("width8", std::move(w8_json));

    // ---------------------------------------------------------------
    // Widths 16 and 32: Monte Carlo 99% CI containment.
    // ---------------------------------------------------------------
    bool all_inside_ci = true;
    for (const std::size_t width : {std::size_t{16}, std::size_t{32}}) {
      const auto chain = hybrid_chain(width, 8);
      const auto profile = multibit::InputProfile::uniform(width, p);

      engine::Evaluation analytic;
      double seconds = 0.0;
      for (int rep = 0; rep < reps; ++rep) {
        util::WallTimer timer;
        analytic = engine::evaluate(chain, profile,
                                    engine::Method::kAnalyticPmf);
        const double elapsed = timer.elapsed_seconds();
        if (rep == 0 || elapsed < seconds) seconds = elapsed;
      }

      engine::EvaluateOptions mc_options;
      mc_options.samples = samples;
      mc_options.seed = 0xbe2c'50f5'0000'0001ULL + width;
      util::WallTimer mc_timer;
      const engine::Evaluation mc = engine::evaluate(
          chain, profile, engine::Method::kMonteCarlo, mc_options);
      const double mc_seconds = mc_timer.elapsed_seconds();

      const double med_hat = mc.distribution->mean_error_distance;
      const double mse_hat = mc.distribution->mean_squared_error;
      const double variance = std::max(0.0, mse_hat - med_hat * med_hat);
      const double half_width =
          2.5758 * std::sqrt(variance / static_cast<double>(samples));
      const double med = analytic.distribution->mean_error_distance;
      const bool inside =
          med >= med_hat - half_width && med <= med_hat + half_width;
      ok = ok && inside;
      all_inside_ci = all_inside_ci && inside;

      std::cout << "  width " << width << "  analytic "
                << util::duration(seconds) << " (0 samples)  MC "
                << util::duration(mc_seconds) << " ("
                << util::with_commas(samples) << " samples)  MED "
                << util::fixed(med, 6) << "  CI ["
                << util::fixed(med_hat - half_width, 6) << ", "
                << util::fixed(med_hat + half_width, 6) << "]"
                << (inside ? "  ok" : "  FAIL") << "\n";

      obs::Json entry = obs::Json::object();
      entry.set("analytic_seconds", obs::Json(seconds));
      entry.set("monte_carlo_seconds", obs::Json(mc_seconds));
      entry.set("analytic_med", obs::Json(med));
      entry.set("analytic_work_items", obs::Json(analytic.work_items));
      entry.set("analytic_simulation_samples",
                obs::Json(std::uint64_t{0}));
      entry.set("zero_simulation_samples", obs::Json(true));
      entry.set("mc_samples", obs::Json(samples));
      entry.set("mc_med", obs::Json(med_hat));
      entry.set("mc_ci_low", obs::Json(med_hat - half_width));
      entry.set("mc_ci_high", obs::Json(med_hat + half_width));
      entry.set("med_inside_mc_99ci", obs::Json(inside));
      entry.set("pmf_support",
                obs::Json(analytic.pmf ? analytic.pmf->support
                                       : std::uint64_t{0}));
      section.set("width" + std::to_string(width), std::move(entry));
    }
    // ---------------------------------------------------------------
    // Width 14: absolute mixture cost on a sparse and a dense span.
    // ---------------------------------------------------------------
    const std::size_t w14 = 14;
    const auto profile14 = multibit::InputProfile::uniform(w14, p);
    std::vector<adders::AdderCell> sparse_stages(3, adders::lpaa(5));
    sparse_stages.push_back(adders::lpaa(2));
    sparse_stages.insert(sparse_stages.end(), w14 - 5, adders::accurate());
    sparse_stages.push_back(adders::lpaa(2));
    const int iterations = quick ? 20 : 200;
    const double ns_sparse =
        ns_per_mixture_entry(multibit::AdderChain(std::move(sparse_stages)),
                             profile14, reps, iterations);
    const double ns_dense = ns_per_mixture_entry(
        multibit::AdderChain::homogeneous(adders::lpaa(3), w14), profile14,
        reps, std::max(1, iterations / 100));
    std::cout << "  width 14  mixture entry: sparse span "
              << util::fixed(ns_sparse, 2) << " ns  dense "
              << util::fixed(ns_dense, 2) << " ns\n";

    // ---------------------------------------------------------------
    // Width 32: one call on the hybrid shape, exact suffix folded.
    // ---------------------------------------------------------------
    const double ns_call_w32 = ns_per_propagation(
        hybrid_chain(32, 12), multibit::InputProfile::uniform(32, p), reps,
        quick ? 10 : 100);
    std::cout << "  width 32  pmf call, 12 LPAA + 20 AccuFA: "
              << util::fixed(ns_call_w32, 0) << " ns\n";
    total.stop();

    // Gated metrics hoisted to the section's top level, where
    // scripts/check_bench_regression.py reads them: the two correctness
    // flags must stay true, the speedup at >= 50% of the reference.
    section.set("exact_within_1e9", obs::Json(w8_exact));
    section.set("med_inside_mc_99ci", obs::Json(all_inside_ci));
    section.set("zero_simulation_samples", obs::Json(true));
    section.set("analytic_vs_enumeration_speedup", obs::Json(speedup));
    section.set("ns_per_mixture_entry_sparse_span", obs::Json(ns_sparse));
    section.set("ns_per_mixture_entry_dense", obs::Json(ns_dense));
    section.set("ns_per_pmf_call_w32_hybrid", obs::Json(ns_call_w32));

    std::cout << "speedup (w8 analytic vs enumeration) = "
              << util::fixed(speedup, 2) << "x\nresult: "
              << (ok ? "ok" : "DIVERGED") << "\n";
    if (!ok) {
      std::cerr << "FAIL: analytic PMF diverged from the simulation "
                   "oracles\n";
    }

    if (const auto path = obs::report_path(args, "BENCH_pmf.json")) {
      report.write_file(*path);
      std::cout << "json report written to " << *path << "\n";
    }
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
