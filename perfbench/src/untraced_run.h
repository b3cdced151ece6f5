#ifndef TERIDS_PERFBENCH_UNTRACED_RUN_H_
#define TERIDS_PERFBENCH_UNTRACED_RUN_H_

#include <memory>
#include <string>
#include <vector>

#include "checker.h"
#include "core/pipeline.h"
#include "eval/cost_breakdown.h"
#include "eval/latency_histogram.h"
#include "repo/repository.h"
#include "stream/stream_driver.h"
#include "util/stopwatch.h"
#include "workload.h"

namespace perfbench {

/// A repository and the pipeline reading it; the pipeline is destroyed
/// first.
struct Engine {
  std::unique_ptr<terids::Repository> repo;
  std::unique_ptr<terids::ErPipeline> pipeline;
};

/// Builds a fresh repository and a `kind` pipeline over it, adding the two
/// build times to `times` when it is non-null.
Engine BuildEngine(const Bench& bench, terids::PipelineKind kind,
                   const terids::EngineConfig& config, SetupTimes* times);

/// The round's arrivals behind a StreamDriver that records when the engine
/// took each one (closed loop: as fast as the engine asks for them).
class MeteredDriver : public terids::StreamDriver {
 public:
  MeteredDriver(const Bench& bench, size_t round);

  std::vector<terids::Record> NextBatch(size_t max_records) override;
  /// Restarts the clock the handout times are measured on.
  void Start() { clock_.Restart(); }
  double SecondsSinceStart() const { return clock_.ElapsedSeconds(); }
  /// Seconds after Start() at which arrival `i` left the source.
  double handout_seconds(size_t i) const { return handout_[i]; }

 private:
  terids::Stopwatch clock_;
  std::vector<double> handout_;
};

/// Rounds whose pairs the F-score pools: every run makes at least these, so
/// f_score is a fixed function of the seed.
constexpr size_t kQualityRounds = 3;

/// The untraced run: whole rounds of the workload through the public
/// ErPipeline::ProcessStream API until `min_seconds` of stream time and
/// `min_rounds` rounds are reached. Every
/// end-to-end metric and the phase.* / exec.* / stream.* layer metrics come
/// from here. Each round's outputs pass the StreamChecker after the round's
/// clock has stopped.
struct UntracedResult {
  size_t rounds = 0;
  size_t arrivals = 0;
  size_t absorbs = 0;
  size_t failed = 0;
  /// Stream wall time summed over rounds: first handout to last outcome,
  /// absorbs included, set-up excluded.
  double stream_seconds = 0.0;
  /// Arrivals over stream wall time, per round.
  std::vector<double> round_throughput;
  /// Per-arrival latency (seconds), every round pooled.
  std::vector<double> latency;
  /// Per-arrival cost fields summed over every round.
  terids::CostBreakdown cost;
  /// Per-arrival refine phase times, every round.
  terids::LatencyHistogram refine_items;
  double peak_rss_mb = 0.0;
  /// Round 1: the pairs each arrival emitted.
  std::vector<Emitted> emitted;
  /// F-score of the first kQualityRounds rounds' pairs, pooled.
  double f_score = 0.0;
  std::vector<std::string> errors;
};

/// `first` is the engine built during set-up; it serves round 1.
UntracedResult RunUntraced(const Bench& bench, Engine first,
                           double min_seconds, size_t min_rounds);

/// Pairs emitted per arrival by the unindexed, unpruned CDD+ER pipeline
/// over the first `prefix` arrivals of round 1.
std::vector<Emitted> ReferenceEmissions(const Bench& bench, size_t prefix);

}  // namespace perfbench

#endif  // TERIDS_PERFBENCH_UNTRACED_RUN_H_
