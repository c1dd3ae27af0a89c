// sealpaa_perfbench: runs one benchmark workload and prints its report
// as one JSON line on stdout.
//
//   sealpaa_perfbench --workload serve_sweep|dse_bnb|eval_cold
//                     --seed N --seconds S --trace 0|1
//                     [--trace-file PATH] [--reference-dir DIR]
//   sealpaa_perfbench --emit-reference   (prints reference/dse_bnb.json)
//
// perfbench/run.py builds this binary, runs it, summarises the trace and
// prints the result line the benchmark contract asks for.  Exit status:
// 0 when the report was printed (failed operations are in the report), 2
// on bad arguments or when the run could not complete.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "sealpaa/obs/json.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using sealpaa::obs::Json;
using namespace perfbench;

[[nodiscard]] Json metrics_json(const std::vector<Metric>& metrics) {
  Json out = Json::object();
  for (const Metric& metric : metrics) {
    Json entry = Json::object();
    entry.set("value", Json(metric.value));
    entry.set("unit", Json(metric.unit));
    out.set(metric.name, std::move(entry));
  }
  return out;
}

/// Cost of recording one span (open + close), measured on a scratch
/// tracer, so the report can say what tracing adds per span.
[[nodiscard]] double span_cost_ns() {
  Tracer tracer(true);
  constexpr int kSpans = 200'000;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    const Tracer::Scope span(tracer, "bench.calibration",
                             static_cast<std::uint64_t>(i));
  }
  return seconds_between(t0, Clock::now()) * 1e9 / kSpans;
}

[[nodiscard]] int usage(const std::string& problem) {
  std::cerr << "sealpaa_perfbench: " << problem
            << "\nusage: sealpaa_perfbench --workload serve_sweep|dse_bnb|"
               "eval_cold --seed N --seconds S --trace 0|1 "
               "[--trace-file PATH] [--reference-dir DIR]\n"
               "       sealpaa_perfbench --emit-reference\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--emit-reference") {
      try {
        std::cout << perfbench::dse_bnb_reference_json();
        return 0;
      } catch (const std::exception& e) {
        std::cerr << "sealpaa_perfbench: " << e.what() << "\n";
        return 2;
      }
    }
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        return usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace " + value);
      options.trace = value == "1";
    } else if (flag == "--trace-file") {
      options.trace_path = value;
    } else if (flag == "--reference-dir") {
      options.reference_dir = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (options.trace && options.trace_path.empty()) {
    return usage("--trace 1 needs --trace-file");
  }

  try {
    Tracers tracers;
    RunResult result;
    if (options.workload == "serve_sweep") {
      result = run_serve_sweep(options, tracers);
    } else if (options.workload == "dse_bnb") {
      result = run_dse_bnb(options, tracers);
    } else if (options.workload == "eval_cold") {
      result = run_eval_cold(options, tracers);
    } else {
      return usage("unknown workload " + options.workload);
    }
    // Peak RSS of the workload itself, before the ledger's probes.
    set_metric(result.end_to_end, "peak_rss_mb", "MiB", peak_rss_mib());

    if (options.trace) {
      tracers.push_back(std::make_unique<Tracer>(
          true, static_cast<std::uint32_t>(tracers.size())));
      measure_layers(options, *tracers.back(), result);
      set_metric(result.per_layer, "trace.span_cost_ns", "ns", span_cost_ns());
      std::vector<const Tracer*> views;
      for (const auto& tracer : tracers) views.push_back(tracer.get());
      write_trace(options.trace_path, views);
    }

    Json report = Json::object();
    report.set("workload", Json(options.workload));
    report.set("seed", Json(options.seed));
    report.set("seconds", Json(options.seconds));
    report.set("trace", Json(options.trace));
    report.set("attempted", Json(result.attempted));
    report.set("failed", Json(result.failed));
    Json failures = Json::array();
    for (const std::string& failure : result.failures) {
      failures.push_back(Json(failure));
    }
    report.set("failures", std::move(failures));
    report.set("context", run_context());
    report.set("workload_metrics", metrics_json(result.workload_metrics));
    report.set("end_to_end", metrics_json(result.end_to_end));
    report.set("per_layer", metrics_json(result.per_layer));
    report.set("details", std::move(result.details));
    if (options.trace) report.set("trace_file", Json(options.trace_path));
    std::cout << report.dump(0) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "sealpaa_perfbench: " << options.workload << ": " << e.what()
              << "\n";
    return 2;
  }
}
