#ifndef TERIDS_PERFBENCH_TRACED_RUN_H_
#define TERIDS_PERFBENCH_TRACED_RUN_H_

#include <map>
#include <string>
#include <vector>

#include "checker.h"
#include "workload.h"

namespace perfbench {

/// The traced run: the TER-iDS arrival path rebuilt from each layer's
/// public functions, in the engine's order, with a span around every call
/// (DESIGN.md §6 phases; Algorithm 2). It runs the sequential one-at-a-time
/// operator over the same rounds as the untraced run and must emit exactly
/// the same pairs. Spans are kept in memory; the first `kKeptSpans` of
/// round 1 are written to `trace_out` (JSON lines) when the run ends.
struct TracedResult {
  size_t rounds = 0;
  size_t arrivals = 0;
  /// Round wall time summed over every round (absorbs included).
  double wall_seconds = 0.0;
  /// Per-layer metrics by name (per-arrival means in us, or counts).
  std::map<std::string, double> metrics;
  /// Round 1: the pairs each arrival emitted.
  std::vector<Emitted> emitted;
  std::vector<std::string> errors;
};

TracedResult RunTraced(const Bench& bench, double min_seconds,
                       const std::string& trace_out);

}  // namespace perfbench

#endif  // TERIDS_PERFBENCH_TRACED_RUN_H_
