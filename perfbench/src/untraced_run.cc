#include "untraced_run.h"

#include <sys/resource.h>

#include <utility>

#include "core/terids_engine.h"
#include "eval/metrics.h"
#include "util/stopwatch.h"

namespace perfbench {

using terids::ArrivalOutcome;
using terids::EngineConfig;
using terids::PipelineKind;

Engine BuildEngine(const Bench& bench, PipelineKind kind,
                   const EngineConfig& config, SetupTimes* times) {
  const terids::Experiment& exp = *bench.experiment;
  Engine engine;
  terids::Stopwatch watch;
  engine.repo = exp.BuildRepository();
  const double repo_s = watch.ElapsedSeconds();
  watch.Restart();
  engine.pipeline =
      terids::MakePipeline(kind, engine.repo.get(), config, /*num_streams=*/2,
                           exp.cdds(), exp.dds(), exp.editing_rules());
  if (times != nullptr) {
    times->repo_build_s += repo_s;
    times->engine_build_s += watch.ElapsedSeconds();
  }
  return engine;
}

MeteredDriver::MeteredDriver(const Bench& bench, size_t round)
    : StreamDriver(bench.RoundSources(round)),
      handout_(bench.spec.arrivals, 0.0) {}

std::vector<terids::Record> MeteredDriver::NextBatch(size_t max_records) {
  std::vector<terids::Record> batch = StreamDriver::NextBatch(max_records);
  const double now = SecondsSinceStart();
  for (const terids::Record& r : batch) {
    handout_[static_cast<size_t>(r.timestamp)] = now;
  }
  return batch;
}

namespace {

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Pooled F-score counts of the quality rounds.
struct Quality {
  size_t true_positives = 0;
  size_t returned = 0;
  size_t truth = 0;

  double FScore() const {
    if (returned == 0 || truth == 0) {
      return 0.0;
    }
    const double p = static_cast<double>(true_positives) / returned;
    const double r = static_cast<double>(true_positives) / truth;
    return p + r > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
  }
};

// One round: the whole arrival sequence through ProcessStream, absorbing
// held-out batches at the workload's cadence, then the round's checks.
void RunRound(const Bench& bench, Engine* engine, size_t round,
              Quality* quality, UntracedResult* out) {
  const WorkloadSpec& spec = bench.spec;
  terids::ErPipeline* pipeline = engine->pipeline.get();
  MeteredDriver driver(bench, round);
  std::vector<Emitted> emitted(spec.arrivals);
  std::vector<double> latency;
  latency.reserve(spec.arrivals);
  const auto sink = [&](ArrivalOutcome&& outcome) {
    const size_t i = static_cast<size_t>(outcome.timestamp);
    // Latency: from when the engine took the arrival to its outcome at
    // this sink.
    latency.push_back(driver.SecondsSinceStart() - driver.handout_seconds(i));
    out->cost.Add(outcome.cost);
    emitted[i] = std::move(outcome.new_matches);
  };

  auto* terids_engine = dynamic_cast<terids::TerIdsEngine*>(pipeline);
  std::vector<std::string> absorb_errors;
  size_t done = 0;
  size_t absorbed = 0;
  driver.Start();
  while (done < spec.arrivals) {
    size_t step = spec.arrivals - done;
    if (absorbed < bench.num_absorbs()) {
      step = (absorbed + 1) * spec.absorb_every - done;
    }
    done += pipeline->ProcessStream(&driver, step, /*batch_size=*/1, sink);
    if (absorbed < bench.num_absorbs() &&
        done == (absorbed + 1) * spec.absorb_every) {
      TERIDS_CHECK(terids_engine != nullptr);
      const size_t samples = engine->repo->num_samples();
      const size_t indexed = terids_engine->dr_index().size();
      if (!terids_engine->AbsorbRepositoryBatch(bench.AbsorbBatch(absorbed))
               .ok()) {
        ++out->failed;
      }
      if (engine->repo->num_samples() != samples + spec.absorb_batch ||
          terids_engine->dr_index().size() != indexed + spec.absorb_batch) {
        absorb_errors.push_back("absorb " + std::to_string(absorbed) +
                                " did not grow R and the DR-index by " +
                                std::to_string(spec.absorb_batch));
      }
      ++absorbed;
    }
  }
  const double wall = driver.SecondsSinceStart();
  out->stream_seconds += wall;
  out->round_throughput.push_back(static_cast<double>(done) / wall);
  out->arrivals += done;
  out->absorbs += absorbed;

  // Everything below is outside the round's clock.
  out->latency.insert(out->latency.end(), latency.begin(), latency.end());
  out->refine_items.Merge(
      pipeline->arrival_latencies()->of(terids::ExecPhase::kRefine));
  const std::string tag = "round " + std::to_string(round + 1) + ": ";
  for (const std::string& e : absorb_errors) {
    out->errors.push_back(tag + e);
  }
  StreamChecker checker(spec.w, bench.experiment->MakeConfig().alpha);
  std::vector<terids::MatchPair> all_pairs;
  for (size_t i = 0; i < spec.arrivals; ++i) {
    checker.Arrive(bench.arrival_order[i].first,
                   bench.arrival_order[i].second, emitted[i]);
    all_pairs.insert(all_pairs.end(), emitted[i].begin(), emitted[i].end());
  }
  checker.Finish(pipeline->results().ToVector());
  for (const std::string& e : checker.errors()) {
    out->errors.push_back(tag + e);
  }
  if (round < kQualityRounds) {
    const terids::PrecisionRecall pr = terids::ComputeFScore(
        all_pairs, bench.experiment->effective_truth());
    quality->true_positives += pr.true_positives;
    quality->returned += pr.returned;
    quality->truth += pr.truth_size;
  }
  if (round == 0) {
    out->emitted = std::move(emitted);
  }
}

}  // namespace

UntracedResult RunUntraced(const Bench& bench, Engine first,
                           double min_seconds, size_t min_rounds) {
  UntracedResult out;
  Quality quality;
  const EngineConfig config = bench.Config();
  Engine engine = std::move(first);
  while (true) {
    RunRound(bench, &engine, out.rounds, &quality, &out);
    ++out.rounds;
    if (out.stream_seconds >= min_seconds && out.rounds >= min_rounds) {
      break;
    }
    // Release the previous round's state before building the next.
    engine.pipeline.reset();
    engine.repo.reset();
    engine = BuildEngine(bench, PipelineKind::kTerIds, config, nullptr);
  }
  out.peak_rss_mb = PeakRssMb();
  out.f_score = quality.FScore();
  return out;
}

std::vector<Emitted> ReferenceEmissions(const Bench& bench, size_t prefix) {
  Engine engine =
      BuildEngine(bench, PipelineKind::kCddEr, bench.Config(), nullptr);
  terids::StreamDriver driver(bench.RoundSources(0));
  std::vector<Emitted> out;
  engine.pipeline->ProcessStream(&driver, prefix, 1,
                                 [&](ArrivalOutcome&& outcome) {
                                   out.push_back(
                                       std::move(outcome.new_matches));
                                 });
  return out;
}

}  // namespace perfbench
