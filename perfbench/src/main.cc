// The TER-iDS benchmark driver. Usually started through run.py, which
// builds it first:
//
//   terids_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <file>]
//   terids_perfbench --self-test
//
// It sets the workload up several times (reporting the median set-up
// time), runs whole rounds of the workload for at least --seconds, checks
// the outputs, and prints the result as the last line of stdout: one JSON
// object with "correct", "attempted", "failed" and "metrics". With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run is
// split between an untraced part and a traced part, and the metrics are the
// per-layer ones. Exits 1 when a check fails, 2 on bad arguments.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checker.h"
#include "traced_run.h"
#include "untraced_run.h"
#include "workload.h"

namespace perfbench {
namespace {

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
  bool self_test = false;
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: terids_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n"
               "       terids_perfbench --self-test\nworkloads:",
               message);
  for (const WorkloadSpec& spec : Workloads()) {
    std::fprintf(stderr, " %s", spec.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!(args.seconds > 0.0)) {
        Usage("--seconds must be positive");
      }
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (args.trace != 0 && args.trace != 1) {
        Usage("--trace must be 0 or 1");
      }
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("malformed value for " + flag).c_str());
    }
  }
  if (!args.self_test && FindWorkload(args.workload) == nullptr) {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  return args;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest rank of an ascending vector: the smallest value with at least
// q of the samples at or below it.
double Percentile(const std::vector<double>& sorted, double q) {
  const double n = static_cast<double>(sorted.size());
  const size_t rank = static_cast<size_t>(std::ceil(q * n));
  return sorted[std::min(std::max<size_t>(rank, 1), sorted.size()) - 1];
}

struct Metric {
  double value;
  const char* unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<std::pair<std::string, Metric>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.c_str(),
                metrics[i].second.value, metrics[i].second.unit);
  }
  std::printf("}}\n");
}

void PrintEnvironment(const Args& args, const WorkloadSpec& spec) {
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
#if defined(__clang__)
  const char* compiler = "clang";
#else
  const char* compiler = "gcc";
#endif
  std::printf("host %s nproc %u compiler %s %s build %s flags %s\n", host,
              std::thread::hardware_concurrency(), compiler, __VERSION__,
              PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  PrintEnvironment(args, spec);
  std::vector<std::string> errors;

  // Set-up, kSetups times; the last one's bench and engine are used.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Bench> bench;
  Engine engine;
  for (int k = 0; k < kSetups; ++k) {
    engine.pipeline.reset();
    engine.repo.reset();
    bench.reset();
    SetupTimes times;
    bench = MakeBench(spec, args.seed, &times);
    engine = BuildEngine(*bench, terids::PipelineKind::kTerIds,
                         bench->Config(), &times);
    setups.push_back(times);
  }
  const auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) {
      v.push_back(t.*field);
    }
    return Median(v);
  };
  std::vector<double> totals;
  for (const SetupTimes& t : setups) {
    totals.push_back(t.total_s());
  }

  // The untraced run; with --trace 1 it shares the run length with the
  // traced run.
  const double measure = args.trace == 1 ? args.seconds / 2 : args.seconds;
  UntracedResult run =
      RunUntraced(*bench, std::move(engine), measure,
                  args.trace == 1 ? 1 : kQualityRounds);
  errors.insert(errors.end(), run.errors.begin(), run.errors.end());

  // Round 1 against the unindexed, unpruned CDD+ER pipeline, outside every
  // timed region (the per-round stream checks ran inside RunUntraced).
  CompareWithReference(run.emitted,
                       ReferenceEmissions(*bench, spec.check_prefix),
                       spec.check_prefix, &errors);
  if (!(run.f_score > 0.0)) {
    errors.push_back("f_score is 0");
  }

  const double n = static_cast<double>(run.arrivals);
  std::sort(run.latency.begin(), run.latency.end());
  std::vector<std::pair<std::string, Metric>> metrics;
  if (args.trace == 0) {
    metrics = {
        {"arrivals_per_s", {Median(run.round_throughput), "arrivals/s"}},
        {"latency_p50_ms", {1e3 * Percentile(run.latency, 0.50), "ms"}},
        {"latency_p99_ms", {1e3 * Percentile(run.latency, 0.99), "ms"}},
        {"setup_s", {Median(totals), "s"}},
        {"f_score", {run.f_score, "ratio"}},
        {"peak_rss_mb", {run.peak_rss_mb, "MB"}},
    };
  } else {
    TracedResult traced = RunTraced(*bench, args.seconds / 2, args.trace_out);
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    CompareExactly(traced.emitted, run.emitted, &errors);
    const double tn = static_cast<double>(traced.arrivals);
    for (const auto& [name, value] : traced.metrics) {
      const bool time = name.size() > 3 &&
                        name.compare(name.size() - 3, 3, "_us") == 0;
      const bool ratio = name.find("ratio") != std::string::npos;
      metrics.push_back(
          {name, {value, time ? "us" : (ratio ? "ratio" : "count")}});
    }
    metrics.push_back({"trace.overhead_ratio",
                       {(traced.wall_seconds / tn) / (run.stream_seconds / n),
                        "ratio"}});
    const terids::CostBreakdown& c = run.cost;
    metrics.insert(
        metrics.end(),
        {
            {"phase.impute_us",
             {1e6 * (c.cdd_select_seconds + c.impute_seconds) / n, "us"}},
            {"phase.candidate_us", {1e6 * c.candidate_seconds / n, "us"}},
            {"phase.refine_us", {1e6 * c.refine_seconds / n, "us"}},
            {"phase.maintain_us", {1e6 * c.maintain_seconds / n, "us"}},
            {"exec.refine_item_p99_us",
             {1e6 * run.refine_items.Percentile(0.99), "us"}},
            {"setup.rule_mining_s",
             {median_of(&SetupTimes::rule_mining_s), "s"}},
            {"setup.pivot_selection_s",
             {median_of(&SetupTimes::pivot_selection_s), "s"}},
            {"setup.repo_build_s", {median_of(&SetupTimes::repo_build_s), "s"}},
            {"setup.engine_build_s",
             {median_of(&SetupTimes::engine_build_s), "s"}},
        });
  }

  for (const std::string& e : errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("rounds %zu arrivals %zu absorbs %zu stream %.3fs\n",
              run.rounds, run.arrivals, run.absorbs, run.stream_seconds);
  PrintResult(errors.empty(), run.arrivals + run.absorbs, run.failed, metrics);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  const std::vector<std::string> failures = perfbench::CheckerSelfTest();
  for (const std::string& f : failures) {
    std::printf("CHECKER SELF-TEST FAILED: %s\n", f.c_str());
  }
  if (!failures.empty()) {
    return 1;
  }
  if (args.self_test) {
    std::printf("checker self-test passed\n");
    return 0;
  }
  return perfbench::Run(args);
}
