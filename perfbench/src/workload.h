#ifndef TERIDS_PERFBENCH_WORKLOAD_H_
#define TERIDS_PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "eval/experiment.h"
#include "tuple/record.h"

namespace perfbench {

/// One named benchmark workload: the dataset make-up and the absorb
/// cadence. Every field is fixed per workload, and so are the entity
/// universe, R and the mined rules; --seed draws the stream's missing-value
/// pattern.
struct WorkloadSpec {
  std::string name;
  std::string profile;
  double scale = 0.0;
  int w = 0;
  double eta = 0.3;
  /// Arrivals of one round: the fixed stream prefix every round replays
  /// through a freshly built repository and engine.
  size_t arrivals = 0;

  /// Dynamic repository (Section 5.5): after every `absorb_every` arrivals
  /// the engine absorbs `absorb_batch` held-out complete tuples (0 = off).
  size_t absorb_every = 0;
  size_t absorb_batch = 0;

  /// Leading arrivals of round 1 compared against the unindexed CDD+ER
  /// pipeline (kept short where CDD+ER is slow; before the first absorb).
  size_t check_prefix = 0;
};

/// The shipped workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();
/// The workload named `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Wall times of one complete set-up: dataset generation with rule mining,
/// pivot selection and effective truth (the Experiment constructor), the
/// repository build, and the engine construction with its CDD-index and
/// DR-index builds.
struct SetupTimes {
  double experiment_s = 0.0;
  double rule_mining_s = 0.0;
  double pivot_selection_s = 0.0;
  double repo_build_s = 0.0;
  double engine_build_s = 0.0;
  double total_s() const {
    return experiment_s + repo_build_s + engine_build_s;
  }
};

/// Everything a run shares across rounds: the experiment (data, rules,
/// truth), the arrival sequence of one round, and the held-out tuples the
/// growth workload absorbs.
struct Bench {
  WorkloadSpec spec;
  uint64_t seed = 0;
  std::unique_ptr<terids::Experiment> experiment;
  /// (rid, stream id) of each arrival of one round, in arrival order.
  std::vector<std::pair<int64_t, int>> arrival_order;
  /// The complete records of each source that one round delivers.
  std::vector<terids::Record> complete_a;
  std::vector<terids::Record> complete_b;
  /// Complete tuples that neither stream of a round delivers and that R
  /// does not hold, in absorb order.
  std::vector<terids::Record> held_out;

  terids::ExperimentParams Params() const;
  /// The engine configuration: the sequential one-at-a-time operator.
  terids::EngineConfig Config() const;
  /// The two incomplete sources of round `round` (0-based): the round's
  /// records with missing attributes drawn from (seed, round), so every
  /// round of a run replays a different stream and every run the same ones.
  std::vector<std::vector<terids::Record>> RoundSources(size_t round) const;
  /// Absorb batches of one round: batch k is absorbed after arrival
  /// (k + 1) * absorb_every.
  size_t num_absorbs() const;
  std::vector<terids::Record> AbsorbBatch(size_t k) const;
};

/// Builds the experiment and derived inputs of `spec` for `seed`,
/// recording the experiment's share of the set-up time into `times`.
std::unique_ptr<Bench> MakeBench(const WorkloadSpec& spec, uint64_t seed,
                                 SetupTimes* times);

}  // namespace perfbench

#endif  // TERIDS_PERFBENCH_WORKLOAD_H_
