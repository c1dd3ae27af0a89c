// The three benchmark workloads and the per-layer ledger.
//
// Each run_* function generates its inputs from RunOptions::seed, sets
// the program up (timed as setup_s), measures for RunOptions::seconds,
// verifies every output it times and fills a RunResult.  With
// RunOptions::trace set it also records spans into `tracers` and fills
// RunResult::per_layer with the metrics only this workload can produce;
// measure_layers() supplies the rest.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "sealpaa/multibit/input_profile.hpp"
#include "trace.hpp"

namespace perfbench {

using Tracers = std::vector<std::unique_ptr<Tracer>>;

/// Closed-loop DSE-fleet traffic to an in-process sealpaad over TCP.
[[nodiscard]] RunResult run_serve_sweep(const RunOptions& options,
                                        Tracers& tracers);

/// BranchBoundOptimizer::optimize to a proven optimum, three legs.
[[nodiscard]] RunResult run_dse_bnb(const RunOptions& options,
                                    Tracers& tracers);

/// One-shot engine::evaluate calls on seeded, never-repeating chains.
[[nodiscard]] RunResult run_eval_cold(const RunOptions& options,
                                      Tracers& tracers);

/// Times every layer through its public functions on small seeded
/// inputs and fills `result.per_layer` (traced runs only).  Metrics the
/// workload already produced are kept; the ledger only adds the missing
/// ones, so every traced run reports the full per-layer set.
void measure_layers(const RunOptions& options, Tracer& tracer,
                    RunResult& result);

/// Solves the dse_bnb err and med legs once and returns the JSON that
/// perfbench/reference/dse_bnb.json holds.
[[nodiscard]] std::string dse_bnb_reference_json();

/// The service half of the ledger: replays a few serve_sweep frontiers
/// through FrameSplitter, parse_request, Dispatcher::run_batch and the
/// response builders (used when the workload ran no server).
void probe_service_layers(std::uint64_t seed, Tracer& tracer,
                          RunResult& result);

/// A profile with every operand and carry-in probability uniform in
/// [0.05, 0.95).
[[nodiscard]] sealpaa::multibit::InputProfile random_profile(
    std::size_t width, SplitMix& rng);

/// bench_bnb's skewed profile: p_a = 0.10 + 0.08 (i mod 10), p_b = 0.90 -
/// 0.07 (i mod 10), p_cin = 0.25, optionally shifted per bit by `jitter`.
[[nodiscard]] sealpaa::multibit::InputProfile skewed_profile(
    std::size_t width, const std::vector<double>& jitter = {});

/// Sets metric `name` in `metrics`, replacing an earlier value.
void set_metric(std::vector<Metric>& metrics, const std::string& name,
                const std::string& unit, double value);

/// True when `metrics` already holds `name`.
[[nodiscard]] bool has_metric(const std::vector<Metric>& metrics,
                              const std::string& name);

// ---- input generators, exposed for the determinism tests ----------------

/// Every request byte serve_sweep sends on `connection` in its first
/// `frontiers` frontiers, preceded by the fixed warm-up configurations.
[[nodiscard]] std::string serve_sweep_input_bytes(std::uint64_t seed,
                                                  unsigned connection,
                                                  std::size_t frontiers);

/// The eval_cold call batch of repetition `repetition`, one line per
/// call (method, width, chain or block spec, profile).
[[nodiscard]] std::string eval_cold_input_bytes(std::uint64_t seed,
                                                std::size_t repetition);

/// The dse_bnb leg order and the reduced-width replica profiles.
[[nodiscard]] std::string dse_bnb_input_bytes(std::uint64_t seed);

}  // namespace perfbench
