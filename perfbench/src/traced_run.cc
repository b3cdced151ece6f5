#include "traced_run.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "core/config.h"
#include "er/match_set.h"
#include "er/pruning.h"
#include "er/topic.h"
#include "imputation/rule_based_imputer.h"
#include "imputation/value_neighborhoods.h"
#include "index/cdd_index.h"
#include "index/dr_index.h"
#include "repo/repository.h"
#include "rules/rule_miner.h"
#include "stream/sliding_window.h"
#include "synopsis/sharded_er_grid.h"
#include "text/token_set.h"
#include "tuple/imputed_tuple.h"

namespace perfbench {

namespace {

using terids::AttrBand;
using terids::AttrConstraint;
using terids::CddRule;
using terids::ImputedTuple;
using terids::Interval;
using terids::Record;
using terids::ValueId;

// One span per call into a layer. Each span's metric is "<name>_us", the
// layer's self time per arrival.
enum Layer : uint8_t {
  kArrival,  // root of one arrival; its self time is trace.unattributed_us
  kProbeCoords,
  kCddSelect,
  kDrRetrieve,
  kDeterminantCheck,
  kNeighborhood,
  kFinalize,
  kTupleBuild,
  kTopic,
  kCandidates,
  kRefine,
  kWindowPush,
  kMaintain,
  kResultEvict,
  kAbsorb,  // root of one absorbed batch
  kAddSample,
  kDrInsert,
  kInvalidate,
  kRulesAbsorb,
  kCddRebuild,
  kNumLayers,
};

constexpr const char* kLayerName[kNumLayers] = {
    "trace.arrival",
    "pivot.probe_coords",
    "index.cdd_select",
    "index.dr_retrieve",
    "imputation.determinant_check",
    "imputation.neighborhood",
    "imputation.finalize",
    "tuple.build",
    "er.topic",
    "synopsis.candidates",
    "er.refine",
    "stream.window_push",
    "synopsis.maintain",
    "er.result_evict",
    "repo.absorb",
    "repo.add_sample",
    "index.dr_insert",
    "imputation.invalidate",
    "rules.absorb",
    "index.cdd_rebuild",
};

// Spans kept for the trace file: enough for the first arrivals of round 1
// without letting the file grow with the run length.
constexpr size_t kKeptSpans = 50000;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  Layer layer;
  int32_t parent;  // index into the root's span list, -1 for the root
  int64_t start_ns;
  int64_t end_ns;
};

/// In-memory span recorder. Spans of one root (an arrival or an absorbed
/// batch) accumulate in a reused buffer; Flush folds them into per-layer
/// self times — a span's duration minus its children's — and keeps the
/// first kKeptSpans for the trace file.
class Tracer {
 public:
  void Begin(Layer layer) {
    spans_.push_back({layer, open_, NowNs(), 0});
    open_ = static_cast<int32_t>(spans_.size() - 1);
  }
  void End() {
    spans_[open_].end_ns = NowNs();
    open_ = spans_[open_].parent;
  }

  /// Folds the finished root. `root_id` names the request (arrival index)
  /// in the trace file; `keep` selects round 1.
  void Flush(int64_t root_id, bool keep) {
    child_ns_.assign(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns_[s.parent] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const int64_t self = s.end_ns - s.start_ns - child_ns_[i];
      if (self < 0) {
        ++negative_self_;
      }
      self_ns_[s.layer] += self;
    }
    root_ns_[spans_.front().layer] += spans_.front().end_ns -
                                      spans_.front().start_ns;
    if (keep) {
      for (const Span& s : spans_) {
        if (kept_.size() >= kKeptSpans) {
          break;
        }
        kept_.push_back({root_id, s});
      }
    }
    spans_.clear();
  }

  int64_t self_ns(Layer layer) const { return self_ns_[layer]; }
  int64_t root_ns(Layer layer) const { return root_ns_[layer]; }
  int64_t negative_self() const { return negative_self_; }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    for (const auto& [root, s] : kept_) {
      std::fprintf(f,
                   "{\"root\":%lld,\"layer\":\"%s\",\"parent\":%d,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   static_cast<long long>(root), kLayerName[s.layer], s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int64_t> child_ns_;
  int32_t open_ = -1;
  std::array<int64_t, kNumLayers> self_ns_{};
  std::array<int64_t, kNumLayers> root_ns_{};
  int64_t negative_self_ = 0;
  std::vector<std::pair<int64_t, Span>> kept_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer) : tracer_(tracer) {
    tracer_->Begin(layer);
  }
  ~ScopedSpan() { tracer_->End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// Work counts recorded at the same call sites as the spans.
struct Counts {
  double cdd_rules_selected = 0;
  double dr_samples_retrieved = 0;
  double dr_leaves_visited = 0;
  double determinant_checks = 0;
  double determinant_passes = 0;
  double neighborhood_builds = 0;
  double freq_increments = 0;
  double candidates_kept = 0;
  double instances = 0;
  double cells_visited = 0;
  double cells_pruned = 0;
  double candidates = 0;
  double grid_pruned = 0;
  double pairs_refined = 0;
  double pairs_matched = 0;
  double theorem_pruned = 0;
  double sig_rejects = 0;
  double rules_widened = 0;
};

/// The state TerIdsEngine owns, built from the same public constructors:
/// the rule copy, CDD-index, DR-index, value neighbourhoods, topic query,
/// windows, a single-shard ER-grid and the result set.
struct TracedEngine {
  explicit TracedEngine(const Bench& bench)
      : config(bench.Config()),
        repo(bench.experiment->BuildRepository()),
        rules(bench.experiment->cdds()),
        cdd(repo.get(), &rules),
        dr(repo.get()),
        neighborhoods(repo.get(),
                      terids::ValueNeighborhoods::MaxRadiusPerAttr(
                          rules, repo->num_attributes())),
        topic(repo->dict(), config.keywords),
        grid(repo->num_attributes(), config.cell_width, /*num_shards=*/1) {
    for (int s = 0; s < 2; ++s) {
      windows.emplace_back(config.window_size);
    }
    cdd.Build();
    dr.Build();
  }

  terids::EngineConfig config;
  std::unique_ptr<terids::Repository> repo;
  std::vector<CddRule> rules;
  terids::CddIndex cdd;
  terids::DrIndex dr;
  terids::ValueNeighborhoods neighborhoods;
  terids::TopicQuery topic;
  std::vector<terids::SlidingWindow> windows;
  terids::ShardedErGrid grid;
  terids::MatchSet matches;
  /// Mirror of the neighbourhood cache's keys, to count lazy builds.
  std::unordered_set<uint64_t> built_neighborhoods;
};

// TerIdsEngine::BandsForRule, re-derived (it is private): per determinant
// attribute, coordinate bands against each pivot by the triangle
// inequality, or the exact coordinates of a constant.
std::vector<AttrBand> BandsForRule(const terids::Repository& repo,
                                   const CddRule& rule,
                                   const terids::ProbeCoords& pc) {
  std::vector<AttrBand> bands(repo.num_attributes());
  for (const auto& [attr, constraint] : rule.determinants) {
    AttrBand& band = bands[attr];
    const int np = repo.num_pivots(attr);
    if (constraint.kind == AttrConstraint::Kind::kInterval) {
      const double eps = constraint.interval.hi;
      for (int a = 0; a < np && a < static_cast<int>(pc.coords[attr].size());
           ++a) {
        const double c = pc.coords[attr][a];
        band.pivot_bands.push_back(Interval::Of(c - eps, c + eps));
      }
    } else {
      for (int a = 0; a < np; ++a) {
        const double c = repo.pivot_distance(attr, a, constraint.constant_vid);
        band.pivot_bands.push_back(Interval::Of(c - 1e-9, c + 1e-9));
      }
    }
  }
  return bands;
}

// One missing attribute's imputation, in TerIdsEngine::Impute's order:
// CDD selection, one DR-index retrieval over the union of the selected
// rules' bands, determinant checks with per-arrival distance memo, and
// neighbourhood accumulation.
std::vector<ImputedTuple::Candidate> ImputeAttr(
    TracedEngine* e, const Record& r, const terids::ProbeCoords& pc, int j,
    std::unordered_map<uint64_t, double>* dist_memo, Tracer* tracer,
    Counts* counts) {
  const terids::Repository& repo = *e->repo;
  std::vector<int> selected;
  {
    ScopedSpan span(tracer, kCddSelect);
    selected = e->cdd.SelectRules(r, pc, j);
  }
  counts->cdd_rules_selected += static_cast<double>(selected.size());
  std::unordered_map<ValueId, double> freq;
  if (!selected.empty()) {
    std::vector<size_t> samples;
    {
      ScopedSpan span(tracer, kDrRetrieve);
      const int d = repo.num_attributes();
      std::vector<AttrBand> union_bands(d);
      std::vector<bool> all_rules_constrain(d, true);
      std::vector<std::vector<Interval>> unions(d);
      for (int rule_idx : selected) {
        const std::vector<AttrBand> bands =
            BandsForRule(repo, e->rules[rule_idx], pc);
        for (int x = 0; x < d; ++x) {
          if (bands[x].pivot_bands.empty()) {
            all_rules_constrain[x] = false;
            continue;
          }
          if (unions[x].size() < bands[x].pivot_bands.size()) {
            unions[x].resize(bands[x].pivot_bands.size(), Interval::Empty());
          }
          for (size_t a = 0; a < bands[x].pivot_bands.size(); ++a) {
            unions[x][a].Union(bands[x].pivot_bands[a]);
          }
        }
      }
      for (int x = 0; x < d; ++x) {
        if (all_rules_constrain[x]) {
          union_bands[x].pivot_bands = unions[x];
        }
      }
      samples = e->dr.Retrieve(union_bands);
    }
    counts->dr_samples_retrieved += static_cast<double>(samples.size());
    counts->dr_leaves_visited +=
        static_cast<double>(e->dr.last_query_leaves_visited());

    for (size_t sample_idx : samples) {
      for (int rule_idx : selected) {
        const CddRule& rule = e->rules[rule_idx];
        bool satisfied = true;
        {
          ScopedSpan span(tracer, kDeterminantCheck);
          for (const auto& [attr, constraint] : rule.determinants) {
            if (constraint.kind == AttrConstraint::Kind::kConstant) {
              if (repo.sample_value_id(sample_idx, attr) !=
                  constraint.constant_vid) {
                satisfied = false;
                break;
              }
              continue;
            }
            const uint64_t key = (static_cast<uint64_t>(sample_idx) << 5) |
                                 static_cast<uint64_t>(attr);
            auto it = dist_memo->find(key);
            if (it == dist_memo->end()) {
              it = dist_memo
                       ->emplace(key, terids::JaccardDistance(
                                          r.values[attr].tokens,
                                          repo.sample(sample_idx)
                                              .values[attr]
                                              .tokens))
                       .first;
            }
            if (!constraint.interval.Contains(it->second)) {
              satisfied = false;
              break;
            }
          }
        }
        counts->determinant_checks += 1;
        if (!satisfied) {
          continue;
        }
        counts->determinant_passes += 1;
        const ValueId svid = repo.sample_value_id(sample_idx, j);
        if (e->built_neighborhoods
                .insert((static_cast<uint64_t>(j) << 32) | svid)
                .second) {
          counts->neighborhood_builds += 1;
        }
        ScopedSpan span(tracer, kNeighborhood);
        e->neighborhoods.AccumulateRange(j, svid, rule.dep_interval, &freq);
      }
    }
  }
  std::vector<ImputedTuple::Candidate> cands;
  {
    ScopedSpan span(tracer, kFinalize);
    cands = terids::FinalizeCandidates(freq, e->config.max_candidates_per_attr);
  }
  for (const auto& [vid, f] : freq) {
    (void)vid;
    counts->freq_increments += f;
  }
  counts->candidates_kept += static_cast<double>(cands.size());
  return cands;
}

// PipelineBase::ProcessArrival for the TER-iDS engine, one span per call.
Emitted TracedArrival(TracedEngine* e, const Record& r, Tracer* tracer,
                      Counts* counts) {
  const terids::EngineConfig& config = e->config;
  Emitted emitted;
  ScopedSpan arrival(tracer, kArrival);

  // ImputePhase.
  terids::ProbeCoords pc;
  {
    ScopedSpan span(tracer, kProbeCoords);
    pc = terids::ProbeCoords::Compute(r, *e->repo);
  }
  std::shared_ptr<const ImputedTuple> tuple;
  if (r.IsComplete()) {
    ScopedSpan span(tracer, kTupleBuild);
    tuple = std::make_shared<const ImputedTuple>(
        ImputedTuple::FromComplete(r, e->repo.get(), config.sig_width));
  } else {
    std::vector<ImputedTuple::ImputedAttr> imputed;
    std::unordered_map<uint64_t, double> dist_memo;
    for (int j : r.MissingAttributes()) {
      std::vector<ImputedTuple::Candidate> cands =
          ImputeAttr(e, r, pc, j, &dist_memo, tracer, counts);
      if (!cands.empty()) {
        ImputedTuple::ImputedAttr ia;
        ia.attr = j;
        ia.candidates = std::move(cands);
        imputed.push_back(std::move(ia));
      }
    }
    ScopedSpan span(tracer, kTupleBuild);
    tuple = std::make_shared<const ImputedTuple>(ImputedTuple::FromImputation(
        r, e->repo.get(), std::move(imputed), config.max_instances,
        config.sig_width));
  }
  counts->instances += tuple->num_instances();
  auto wt = std::make_shared<terids::WindowTuple>();
  wt->tuple = tuple;
  {
    ScopedSpan span(tracer, kTopic);
    wt->topic = e->topic.Classify(*tuple);
  }

  // CandidatePhase.
  terids::ShardedErGrid::CandidateResult grid_result;
  {
    ScopedSpan span(tracer, kCandidates);
    grid_result = e->grid.Candidates(*wt, config.gamma,
                                     !e->topic.IsUnconstrained());
  }
  counts->cells_visited += static_cast<double>(grid_result.cells_visited);
  counts->cells_pruned += static_cast<double>(grid_result.cells_pruned);
  counts->candidates += static_cast<double>(grid_result.candidates.size());
  counts->grid_pruned +=
      static_cast<double>(grid_result.topic_pruned + grid_result.sim_pruned);

  // RefinePhase: the Theorem 4.1-4.4 cascade per candidate.
  for (const terids::WindowTuple* cand : grid_result.candidates) {
    ScopedSpan span(tracer, kRefine);
    const terids::PairEvaluation eval = terids::EvaluatePair(
        *tuple, wt->topic, *cand->tuple, cand->topic, config.gamma,
        config.alpha, config.signature_filter);
    counts->sig_rejects += static_cast<double>(eval.sig_rejects);
    switch (eval.outcome) {
      case terids::PairOutcome::kRefuted:
      case terids::PairOutcome::kMatched:
        counts->pairs_refined += 1;
        break;
      case terids::PairOutcome::kDeferred:
        break;
      default:
        counts->theorem_pruned += 1;
        break;
    }
    if (eval.matched()) {
      counts->pairs_matched += 1;
      e->matches.Add(tuple->rid(), cand->rid(), eval.probability);
      terids::MatchPair pair;
      pair.rid_a = std::min(tuple->rid(), cand->rid());
      pair.rid_b = std::max(tuple->rid(), cand->rid());
      pair.probability = eval.probability;
      emitted.push_back(pair);
    }
  }

  // MaintainPhase.
  std::shared_ptr<terids::WindowTuple> evicted;
  {
    ScopedSpan span(tracer, kWindowPush);
    evicted = e->windows[r.stream_id].Push(wt);
  }
  {
    ScopedSpan span(tracer, kMaintain);
    e->grid.Maintain(wt.get(), evicted.get(), /*parallel=*/false);
  }
  if (evicted != nullptr) {
    ScopedSpan span(tracer, kResultEvict);
    e->matches.RemoveAllWith(evicted->rid());
  }
  return emitted;
}

// TerIdsEngine::AbsorbRepositoryBatch, one span per step.
bool TracedAbsorb(TracedEngine* e, const std::vector<Record>& batch,
                  Tracer* tracer, Counts* counts) {
  ScopedSpan root(tracer, kAbsorb);
  for (const Record& record : batch) {
    const size_t sample_idx = e->repo->num_samples();
    {
      ScopedSpan span(tracer, kAddSample);
      if (!e->repo->AddSample(record).ok()) {
        return false;
      }
    }
    {
      ScopedSpan span(tracer, kDrInsert);
      e->dr.InsertSample(sample_idx);
    }
    {
      ScopedSpan span(tracer, kInvalidate);
      e->neighborhoods.Invalidate();
    }
    e->built_neighborhoods.clear();
    int widened = 0;
    {
      ScopedSpan span(tracer, kRulesAbsorb);
      terids::RuleMiner miner(e->repo.get(), terids::MinerOptions{});
      widened = miner.AbsorbNewSample(sample_idx, &e->rules);
    }
    counts->rules_widened += widened;
    if (widened > 0) {
      ScopedSpan span(tracer, kCddRebuild);
      e->cdd.Build();
    }
  }
  return true;
}

}  // namespace

TracedResult RunTraced(const Bench& bench, double min_seconds,
                       const std::string& trace_out) {
  const WorkloadSpec& spec = bench.spec;
  TracedResult out;
  Tracer tracer;
  Counts counts;
  double wall_seconds = 0.0;
  while (out.rounds == 0 || wall_seconds < min_seconds) {
    const bool first = out.rounds == 0;
    TracedEngine engine(bench);
    terids::StreamDriver driver(bench.RoundSources(out.rounds));
    const int64_t round_start = NowNs();
    size_t absorbed = 0;
    for (size_t i = 0; i < spec.arrivals; ++i) {
      Emitted emitted = TracedArrival(&engine, driver.Next(), &tracer, &counts);
      tracer.Flush(static_cast<int64_t>(i), first);
      if (first) {
        out.emitted.push_back(std::move(emitted));
      }
      if (absorbed < bench.num_absorbs() &&
          i + 1 == (absorbed + 1) * spec.absorb_every) {
        if (!TracedAbsorb(&engine, bench.AbsorbBatch(absorbed), &tracer,
                          &counts)) {
          out.errors.push_back("traced absorb failed");
        }
        tracer.Flush(-static_cast<int64_t>(absorbed) - 1, first);
        ++absorbed;
      }
    }
    wall_seconds += static_cast<double>(NowNs() - round_start) * 1e-9;
    out.arrivals += spec.arrivals;
    ++out.rounds;
  }

  out.wall_seconds = wall_seconds;
  const double n = static_cast<double>(out.arrivals);
  auto& m = out.metrics;
  for (int l = kProbeCoords; l < kNumLayers; ++l) {
    if (l == kAbsorb) {
      continue;
    }
    m[std::string(kLayerName[l]) + "_us"] =
        static_cast<double>(tracer.self_ns(static_cast<Layer>(l))) * 1e-3 / n;
  }
  m["trace.arrival_us"] =
      static_cast<double>(tracer.root_ns(kArrival)) * 1e-3 / n;
  m["trace.unattributed_us"] =
      static_cast<double>(tracer.self_ns(kArrival)) * 1e-3 / n;
  m["index.cdd_rules_selected"] = counts.cdd_rules_selected / n;
  m["index.dr_samples_retrieved"] = counts.dr_samples_retrieved / n;
  m["index.dr_leaves_visited"] = counts.dr_leaves_visited / n;
  m["imputation.determinant_checks"] = counts.determinant_checks / n;
  m["imputation.determinant_pass_ratio"] =
      counts.determinant_checks > 0
          ? counts.determinant_passes / counts.determinant_checks
          : 0.0;
  m["imputation.neighborhood_builds"] = counts.neighborhood_builds / n;
  m["imputation.freq_increments"] = counts.freq_increments / n;
  m["imputation.candidates_kept"] = counts.candidates_kept / n;
  m["tuple.instances"] = counts.instances / n;
  m["synopsis.cells_visited"] = counts.cells_visited / n;
  m["synopsis.cells_pruned"] = counts.cells_pruned / n;
  m["synopsis.candidates"] = counts.candidates / n;
  m["synopsis.grid_pruned"] = counts.grid_pruned / n;
  m["er.pairs_refined"] = counts.pairs_refined / n;
  m["er.pairs_matched"] = counts.pairs_matched / n;
  m["er.match_ratio"] = counts.pairs_refined > 0
                            ? counts.pairs_matched / counts.pairs_refined
                            : 0.0;
  m["er.theorem_pruned"] = counts.theorem_pruned / n;
  m["er.sig_rejects"] = counts.sig_rejects / n;
  m["rules.widened"] = counts.rules_widened / n;

  // Fidelity of the attribution: no span may outlast its parent, and the
  // arrival roots' self times plus every layer below them must add up to
  // the traced arrival wall time.
  if (tracer.negative_self() != 0) {
    out.errors.push_back("trace: " + std::to_string(tracer.negative_self()) +
                         " spans outlast their parent");
  }
  int64_t arrival_layers_ns = 0;
  for (int l = kArrival; l < kAbsorb; ++l) {
    arrival_layers_ns += tracer.self_ns(static_cast<Layer>(l));
  }
  if (arrival_layers_ns != tracer.root_ns(kArrival)) {
    out.errors.push_back("trace: layer self times do not add up to the "
                         "arrival wall time");
  }
  if (!trace_out.empty() && !tracer.Write(trace_out)) {
    out.errors.push_back("trace: cannot write " + trace_out);
  }
  return out;
}

}  // namespace perfbench
