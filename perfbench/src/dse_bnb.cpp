// dse_bnb: BranchBoundOptimizer::optimize to a proven optimum.
//
// The problems use bench_bnb's skewed profile (p_a = 0.10 + 0.08 (i mod
// 10), p_b = 0.90 - 0.07 (i mod 10), p_cin = 0.25) and run in three legs:
//
//   err     width 13 over the 7 built-in LPAAs, 1 thread;
//   med     width 14 over {LPAA1..5, AccuFA} under the power budget
//           1385 (w - 4) + 198 * 4 nW, 1 thread;
//   err_mt  the err leg at min(4, nproc) threads.
//
// Each solve takes 0.1-0.8 s, so a 30 s window holds about 20 rotations:
// enough solves per leg for a steady median on a noisy box.  The legs
// rotate in a seeded order until the window closes.  Each design
// must equal the committed reference (perfbench/reference/dse_bnb.json),
// the err_mt design must equal the 1-thread one, and a reduced-width
// replica of every leg (width 7, seed-perturbed profile) must match
// HybridOptimizer::exhaustive.
//
// Set-up (setup_s) is one solve of every leg at a reduced width (lazy
// initialisation of the cell tables and thread pools), repeated three
// times; the median is reported.  The end-to-end figures are normalised
// by the calibration kernel timed before each solve (common.hpp); the
// raw wall times are the workload metrics.
#include <algorithm>
#include <array>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/explore/branch_bound.hpp"
#include "sealpaa/explore/hybrid.hpp"
#include "sealpaa/multibit/input_profile.hpp"
#include "sealpaa/obs/json.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace sealpaa;

constexpr std::size_t kErrWidth = 13;
constexpr std::size_t kMedWidth = 14;
constexpr std::size_t kReplicaWidth = 7;
constexpr std::size_t kSetupWidth = 10;
constexpr int kSetupRepeats = 3;

enum LegId : std::size_t { kErr = 0, kMed = 1, kErrMt = 2, kLegs = 3 };
constexpr const char* kLegNames[kLegs] = {"err", "med", "err_mt"};

[[nodiscard]] std::vector<adders::AdderCell> err_palette() {
  const auto lpaas = adders::builtin_lpaas();
  return {lpaas.begin(), lpaas.end()};
}

[[nodiscard]] std::vector<adders::AdderCell> med_palette() {
  return {adders::lpaa(1), adders::lpaa(2), adders::lpaa(3),
          adders::lpaa(4), adders::lpaa(5), adders::accurate()};
}

[[nodiscard]] explore::DesignConstraints med_budget(std::size_t width) {
  explore::DesignConstraints constraints;
  constraints.max_power_nw =
      1385.0 * static_cast<double>(width - 4) + 198.0 * 4;
  return constraints;
}

struct Problem {
  explore::Objective objective = explore::Objective::kErrorRate;
  multibit::InputProfile profile = multibit::InputProfile::uniform(1, 0.5);
  std::vector<adders::AdderCell> palette;
  explore::DesignConstraints constraints;
  unsigned threads = 1;
};

[[nodiscard]] Problem make_problem(LegId leg, std::size_t width,
                                   unsigned mt_threads,
                                   const std::vector<double>& jitter = {}) {
  Problem problem;
  problem.profile = skewed_profile(width, jitter);
  if (leg == kMed) {
    problem.objective = explore::Objective::kMed;
    problem.palette = med_palette();
    problem.constraints = med_budget(width);
  } else {
    problem.palette = err_palette();
  }
  problem.threads = leg == kErrMt ? mt_threads : 1;
  return problem;
}

[[nodiscard]] explore::BnbResult solve(const Problem& problem) {
  explore::BnbOptions options;
  options.threads = problem.threads;
  return explore::BranchBoundOptimizer::optimize(
      problem.profile, problem.palette, problem.constraints,
      problem.objective, options);
}

[[nodiscard]] std::string stage_names(const explore::HybridDesign& design) {
  std::string out;
  for (const adders::AdderCell& cell : design.stages) {
    if (!out.empty()) out += ',';
    out += cell.name();
  }
  return out;
}

/// Same stages and bit-identical scores.
[[nodiscard]] bool same_design(const explore::HybridDesign& a,
                               const explore::HybridDesign& b) {
  return stage_names(a) == stage_names(b) && a.p_success == b.p_success &&
         a.med == b.med && a.mse == b.mse;
}

struct Reference {
  std::string stages;
  double p_success = 0.0;
  std::optional<double> med;
};

/// Reads perfbench/reference/dse_bnb.json: {"err": {...}, "med": {...}},
/// each with "width", "stages" (comma-joined names), "p_success" and,
/// for med, "med" — the doubles as exact decimal strings.
[[nodiscard]] std::vector<Reference> read_reference(const std::string& dir) {
  const std::string path = dir + "/dse_bnb.json";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("dse_bnb: cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  const obs::Json json = obs::Json::parse(text.str());
  std::vector<Reference> out;
  for (const char* leg : {"err", "med"}) {
    const obs::Json* entry = json.find(leg);
    if (entry == nullptr) {
      throw std::runtime_error("dse_bnb: reference lacks leg " +
                               std::string(leg));
    }
    Reference reference;
    reference.stages = entry->find("stages")->string_value();
    reference.p_success =
        std::strtod(entry->find("p_success")->string_value().c_str(), nullptr);
    if (const obs::Json* med = entry->find("med")) {
      reference.med = std::strtod(med->string_value().c_str(), nullptr);
    }
    out.push_back(reference);
  }
  return out;
}

[[nodiscard]] bool matches_reference(const explore::HybridDesign& design,
                                     const Reference& reference) {
  return stage_names(design) == reference.stages &&
         design.p_success == reference.p_success &&
         (!reference.med || design.med == reference.med);
}

/// Seeded leg order per rotation and the replica profile perturbation.
struct DseInputs {
  std::vector<std::array<LegId, kLegs>> orders;  // cycled
  std::vector<double> jitter;                    // kReplicaWidth entries
};

[[nodiscard]] DseInputs make_inputs(std::uint64_t seed) {
  DseInputs inputs;
  SplitMix rng(stream_seed(seed, 3));
  for (int r = 0; r < 64; ++r) {
    std::array<LegId, kLegs> order = {kErr, kMed, kErrMt};
    for (std::size_t i = kLegs - 1; i > 0; --i) {
      std::swap(order[i], order[rng.below(i + 1)]);
    }
    inputs.orders.push_back(order);
  }
  for (std::size_t i = 0; i < kReplicaWidth; ++i) {
    inputs.jitter.push_back(0.06 * rng.unit() - 0.03);
  }
  return inputs;
}

[[nodiscard]] std::string describe(const DseInputs& inputs) {
  std::ostringstream out;
  for (const auto& order : inputs.orders) {
    for (const LegId leg : order) out << kLegNames[leg] << ' ';
    out << '\n';
  }
  for (const double j : inputs.jitter) out << exact(j) << ' ';
  out << '\n';
  return out.str();
}

[[nodiscard]] unsigned mt_threads() {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  return std::min(4u, cpus);
}

/// Reduced-width replica of every leg against HybridOptimizer::exhaustive.
void check_replicas(const DseInputs& inputs, unsigned threads,
                    RunResult& result) {
  for (const LegId leg : {kErr, kMed, kErrMt}) {
    const Problem problem =
        make_problem(leg, kReplicaWidth, threads, inputs.jitter);
    const explore::HybridDesign bnb = solve(problem).design;
    const explore::HybridDesign exhaustive = explore::HybridOptimizer::exhaustive(
        problem.profile, problem.palette, problem.constraints, 50'000'000, 1,
        problem.objective);
    result.check(same_design(bnb, exhaustive),
                 std::string("dse_bnb: replica leg ") + kLegNames[leg] +
                     " differs from exhaustive: " + stage_names(bnb) + " vs " +
                     stage_names(exhaustive));
  }
}

struct Window {
  std::array<std::vector<double>, kLegs> leg_s;
  /// The same solves normalised by the calibration kernel timed right
  /// before each (see Calibration).
  std::array<std::vector<double>, kLegs> leg_norm_s;
  std::vector<double> rotation_norm_s;
  std::array<explore::SearchStats, kLegs> last_stats{};
  std::vector<double> rotation_s;
  double seconds = 0.0;
};

/// Rotates the legs (seeded order, starting at rotation `first`) until
/// `seconds` have passed; always completes at least one rotation.
[[nodiscard]] Window timed_window(const std::array<Problem, kLegs>& problems,
                                  const DseInputs& inputs,
                                  const std::vector<Reference>& reference,
                                  double seconds, std::size_t first,
                                  Tracer& tracer, Calibration& calibration,
                                  RunResult& result) {
  Window window;
  std::optional<explore::HybridDesign> err_design;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (std::size_t rotation = first;
       rotation == first || Clock::now() < deadline; ++rotation) {
    double total = 0.0;
    double total_norm = 0.0;
    for (const LegId leg : inputs.orders[rotation % inputs.orders.size()]) {
      const double kernel_s = calibration.sample(30);
      explore::BnbResult solved;
      const Clock::time_point t0 = Clock::now();
      {
        const Tracer::Scope span(tracer, "explore.optimize",
                                 rotation * kLegs + leg);
        solved = solve(problems[leg]);
      }
      const double elapsed = seconds_between(t0, Clock::now());
      window.leg_s[leg].push_back(elapsed);
      window.leg_norm_s[leg].push_back(Calibration::normalise(elapsed, kernel_s));
      total += elapsed;
      total_norm += window.leg_norm_s[leg].back();
      window.last_stats[leg] = solved.design.stats;
      const bool proven = solved.complete && solved.has_incumbent;
      result.check(proven && matches_reference(
                                 solved.design,
                                 reference[leg == kMed ? 1 : 0]),
                   std::string("dse_bnb: leg ") + kLegNames[leg] +
                       " design differs from the committed reference: " +
                       stage_names(solved.design));
      if (leg == kErr) err_design = solved.design;
      if (leg == kErrMt && err_design) {
        result.check(same_design(solved.design, *err_design),
                     "dse_bnb: err_mt design differs from the 1-thread design");
      }
    }
    window.rotation_s.push_back(total);
    window.rotation_norm_s.push_back(total_norm);
  }
  window.seconds = seconds_between(start, Clock::now());
  return window;
}

}  // namespace

std::string dse_bnb_reference_json() {
  obs::Json out = obs::Json::object();
  for (const LegId leg : {kErr, kMed}) {
    const std::size_t width = leg == kMed ? kMedWidth : kErrWidth;
    const explore::BnbResult solved = solve(make_problem(leg, width, 1));
    obs::Json entry = obs::Json::object();
    entry.set("width", obs::Json(static_cast<std::uint64_t>(width)));
    entry.set("stages", obs::Json(stage_names(solved.design)));
    entry.set("p_success", obs::Json(exact(solved.design.p_success)));
    if (leg == kMed && solved.design.med) {
      entry.set("med", obs::Json(exact(*solved.design.med)));
    }
    out.set(kLegNames[leg], std::move(entry));
  }
  return out.dump(2) + "\n";
}

std::string dse_bnb_input_bytes(std::uint64_t seed) {
  return describe(make_inputs(seed));
}

RunResult run_dse_bnb(const RunOptions& options, Tracers& tracers) {
  RunResult result;
  const DseInputs inputs = make_inputs(options.seed);
  const std::vector<Reference> reference =
      read_reference(options.reference_dir);
  const unsigned threads = mt_threads();
  tracers.push_back(std::make_unique<Tracer>(
      options.trace, static_cast<std::uint32_t>(tracers.size())));
  Tracer& tracer = *tracers.back();

  Calibration calibration;
  std::vector<double> setup_s;
  std::vector<double> setup_norm_s;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    const double kernel_s = calibration.sample(50);
    const Clock::time_point t0 = Clock::now();
    for (const LegId leg : {kErr, kMed, kErrMt}) {
      (void)solve(make_problem(leg, kSetupWidth, threads));
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
    setup_norm_s.push_back(Calibration::normalise(setup_s.back(), kernel_s));
  }

  const std::array<Problem, kLegs> problems = {
      make_problem(kErr, kErrWidth, threads),
      make_problem(kMed, kMedWidth, threads),
      make_problem(kErrMt, kErrWidth, threads)};

  // The traced run splits the window: half untraced, half traced, so the
  // report can state what tracing itself costs.
  Tracer untraced_tracer(false);
  Window untraced;
  if (options.trace) {
    untraced = timed_window(problems, inputs, reference, options.seconds / 2,
                            0, untraced_tracer, calibration, result);
  }
  const Window window = timed_window(
      problems, inputs, reference,
      options.trace ? options.seconds / 2 : options.seconds,
      untraced.rotation_s.size(), tracer, calibration, result);
  const std::array<std::vector<double>, kLegs>& leg_s = window.leg_s;
  const std::array<explore::SearchStats, kLegs>& last_stats =
      window.last_stats;
  const std::vector<double>& rotation_s = window.rotation_s;
  const double window_s = window.seconds;

  check_replicas(inputs, threads, result);

  const double err_s = median(leg_s[kErr]);
  const double med_s = median(leg_s[kMed]);
  const double err_mt_s = median(leg_s[kErrMt]);
  auto& w = result.workload_metrics;
  set_metric(w, "dse_err_s", "s", err_s);
  set_metric(w, "dse_med_s", "s", med_s);
  set_metric(w, "dse_err_mt_s", "s", err_mt_s);
  set_metric(w, "dse_rotation_s", "s", median(rotation_s));

  auto& e = result.end_to_end;
  set_metric(e, "setup_s", "s", median(setup_norm_s));
  set_metric(e, "leg1_ms", "ms", median(window.leg_norm_s[kErr]) * 1e3);
  set_metric(e, "leg2_ms", "ms", median(window.leg_norm_s[kMed]) * 1e3);
  set_metric(e, "leg3_ms", "ms", median(window.leg_norm_s[kErrMt]) * 1e3);
  set_metric(e, "leg4_ms", "ms", median(window.rotation_norm_s) * 1e3);

  obs::Json& d = result.details;
  InputHash hash;
  hash.add(describe(inputs));
  d.set("inputs_hash", obs::Json(hash.hex()));
  d.set("speed_factor",
        obs::Json(calibration.median_s() / Calibration::kReferenceS));
  d.set("setup_raw_s", obs::Json(median(setup_s)));
  d.set("mt_threads", obs::Json(threads));
  d.set("rotations", obs::Json(static_cast<std::uint64_t>(rotation_s.size())));
  d.set("window_s", obs::Json(window_s));
  for (const LegId leg : {kErr, kMed, kErrMt}) {
    obs::Json leg_json = obs::Json::object();
    leg_json.set("solves",
                 obs::Json(static_cast<std::uint64_t>(leg_s[leg].size())));
    leg_json.set("nodes_expanded", obs::Json(last_stats[leg].nodes_expanded));
    leg_json.set("bound_cutoffs", obs::Json(last_stats[leg].bound_cutoffs));
    leg_json.set("steal_count", obs::Json(last_stats[leg].steal_count));
    leg_json.set("stages_computed", obs::Json(last_stats[leg].stages_computed));
    d.set(std::string("leg_") + kLegNames[leg], std::move(leg_json));
  }

  if (options.trace) {
    const explore::SearchStats& err = last_stats[kErr];
    auto& m = result.per_layer;
    set_metric(m, "explore.nodes_expanded", "count",
               static_cast<double>(err.nodes_expanded));
    set_metric(m, "explore.bound_cutoffs", "count",
               static_cast<double>(err.bound_cutoffs));
    set_metric(m, "explore.ns_per_node", "ns",
               err_s * 1e9 /
                   static_cast<double>(std::max<std::uint64_t>(err.nodes_expanded, 1)));
    set_metric(m, "explore.steal_count", "count",
               static_cast<double>(last_stats[kErrMt].steal_count));
    set_metric(m, "explore.mt_speedup", "ratio", err_s / err_mt_s);
    const double probes =
        static_cast<double>(err.cache_hits + err.cache_misses);
    set_metric(m, "engine.prefix_hit_rate", "ratio",
               probes > 0.0 ? static_cast<double>(err.cache_hits) / probes : 0.0);
    // carry_after caches every stage it computes, so stages_computed
    // stands in for insertions (SearchStats carries no insertion count).
    set_metric(m, "engine.inserts_per_hit", "ratio",
               err.cache_hits > 0 ? static_cast<double>(err.stages_computed) /
                                        static_cast<double>(err.cache_hits)
                                  : 0.0);
    std::vector<double> beam_s;
    for (int rep = 0; rep < 5; ++rep) {
      const Clock::time_point t0 = Clock::now();
      {
        const Tracer::Scope span(tracer, "explore.seed_beam");
        (void)explore::HybridOptimizer::beam(problems[kErr].profile,
                                             problems[kErr].palette, {}, 64);
      }
      beam_s.push_back(seconds_between(t0, Clock::now()));
    }
    set_metric(m, "explore.seed_beam_s", "s", median(beam_s));
    const double traced_norm_s = median(window.leg_norm_s[kErr]);
    const double untraced_norm_s = median(untraced.leg_norm_s[kErr]);
    set_metric(m, "trace.overhead_share", "ratio",
               (traced_norm_s - untraced_norm_s) / untraced_norm_s);
    d.set("trace_overhead_basis",
          obs::Json("normalised dse_err_s, traced half vs untraced half"));
  }
  return result;
}

}  // namespace perfbench
