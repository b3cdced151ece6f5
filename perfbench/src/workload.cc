#include "workload.h"

#include <unordered_set>

#include "datagen/generator.h"
#include "datagen/profiles.h"
#include "stream/stream_driver.h"
#include "util/stopwatch.h"

namespace perfbench {

using terids::EngineConfig;
using terids::Experiment;
using terids::ExperimentParams;
using terids::Record;

namespace {

// Seed of every workload's entity universe, repository and mined rules.
// Fixing them keeps the rule set — which sets most of the per-arrival cost —
// the same for every run; --seed varies the stream itself.
constexpr uint64_t kDatasetSeed = 20210620;

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> out;

  WorkloadSpec songs;
  songs.name = "songs-impute";
  songs.profile = "Songs";
  songs.scale = 0.008;  // 2x the paper-figure benches' Songs scale
  songs.w = 200;
  songs.arrivals = 1000;
  songs.check_prefix = 120;
  out.push_back(songs);

  WorkloadSpec anime;
  anime.name = "anime-er";
  anime.profile = "Anime";
  anime.scale = 0.9;
  anime.w = 1500;
  anime.eta = 0.05;
  anime.arrivals = 4000;
  anime.check_prefix = 1500;
  out.push_back(anime);

  WorkloadSpec bikes;
  bikes.name = "bikes-growth";
  bikes.profile = "Bikes";
  bikes.scale = 0.9;
  bikes.w = 250;
  bikes.arrivals = 1000;
  bikes.absorb_every = 200;
  bikes.absorb_batch = 20;
  bikes.check_prefix = 200;
  out.push_back(bikes);
  return out;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec>* kWorkloads =
      new std::vector<WorkloadSpec>(MakeWorkloads());
  return *kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

ExperimentParams Bench::Params() const {
  ExperimentParams params;
  params.scale = spec.scale;
  params.w = spec.w;
  params.eta = spec.eta;
  params.max_arrivals = static_cast<int>(spec.arrivals);
  params.seed = kDatasetSeed;
  return params;
}

EngineConfig Bench::Config() const { return experiment->MakeConfig(); }

std::vector<std::vector<Record>> Bench::RoundSources(size_t round) const {
  // The MAR model of Section 6.1, drawn per source as Experiment does.
  const ExperimentParams params = Params();
  const uint64_t draw = seed * 1000003ULL + 2 * round;
  return {terids::DataGenerator::WithMissing(complete_a, params.xi, params.m,
                                             draw),
          terids::DataGenerator::WithMissing(complete_b, params.xi, params.m,
                                             draw + 1)};
}

size_t Bench::num_absorbs() const {
  if (spec.absorb_every == 0) {
    return 0;
  }
  // Absorbs fall strictly inside the round, never after its last arrival.
  return (spec.arrivals - 1) / spec.absorb_every;
}

std::vector<Record> Bench::AbsorbBatch(size_t k) const {
  const auto first = held_out.begin() + k * spec.absorb_batch;
  return std::vector<Record>(first, first + spec.absorb_batch);
}

std::unique_ptr<Bench> MakeBench(const WorkloadSpec& spec, uint64_t seed,
                                 SetupTimes* times) {
  auto bench = std::make_unique<Bench>();
  bench->spec = spec;
  bench->seed = seed;
  {
    terids::Stopwatch watch;
    bench->experiment = std::make_unique<Experiment>(
        terids::ProfileByName(spec.profile), bench->Params());
    times->experiment_s = watch.ElapsedSeconds();
  }
  times->rule_mining_s = bench->experiment->rule_mining_seconds();
  times->pivot_selection_s = bench->experiment->pivot_selection_seconds();

  // The round's arrival order, from the same interleaving Experiment::Run
  // and the pipelines use.
  const terids::GeneratedDataset& data = bench->experiment->dataset();
  terids::StreamDriver driver({data.source_a, data.source_b});
  std::unordered_set<int64_t> delivered;
  while (bench->arrival_order.size() < spec.arrivals && driver.HasNext()) {
    const Record r = driver.Next();
    bench->arrival_order.emplace_back(r.rid, r.stream_id);
    delivered.insert(r.rid);
  }
  TERIDS_CHECK(bench->arrival_order.size() == spec.arrivals);
  // Round-robin interleaving: truncating each source to what the round
  // takes from it leaves the round's arrival order unchanged.
  size_t from_a = 0;
  for (const auto& [rid, stream] : bench->arrival_order) {
    (void)rid;
    from_a += stream == 0 ? 1 : 0;
  }
  bench->complete_a.assign(data.source_a.begin(),
                           data.source_a.begin() + from_a);
  bench->complete_b.assign(data.source_b.begin(),
                           data.source_b.begin() + (spec.arrivals - from_a));

  // Held-out tuples: complete source records past the round's arrivals
  // (source B's tail first). They come from the same entity universe as R
  // and the streams, but neither R nor any round's stream contains them.
  const size_t wanted = bench->num_absorbs() * spec.absorb_batch;
  for (const std::vector<Record>* source : {&data.source_b, &data.source_a}) {
    for (auto it = source->rbegin();
         it != source->rend() && bench->held_out.size() < wanted; ++it) {
      if (delivered.count(it->rid) == 0) {
        bench->held_out.push_back(*it);
      }
    }
  }
  TERIDS_CHECK(bench->held_out.size() == wanted);

  return bench;
}

}  // namespace perfbench
