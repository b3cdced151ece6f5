#include "core/terids_engine.h"

#include <unordered_map>

#include "imputation/rule_based_imputer.h"
#include "rules/rule_miner.h"
#include "util/hash.h"
#include "util/stopwatch.h"

namespace terids {

TerIdsEngine::TerIdsEngine(Repository* repo, EngineConfig config,
                           int num_streams, std::vector<CddRule> rules)
    : PipelineBase(repo, std::move(config), num_streams, /*use_grid=*/true,
                   /*use_prunings=*/true, "TER-iDS"),
      rules_(std::move(rules)),
      cdd_index_(repo, &rules_),
      dr_index_(repo),
      neighborhoods_(repo, ValueNeighborhoods::MaxRadiusPerAttr(
                               rules_, repo->num_attributes())) {
  cdd_index_.Build();
  dr_index_.Build();
}

std::vector<AttrBand> TerIdsEngine::BandsForRule(const CddRule& rule,
                                                 const ProbeCoords& pc) const {
  const int d = repo_->num_attributes();
  std::vector<AttrBand> bands(d);
  for (const auto& [attr, constraint] : rule.determinants) {
    AttrBand& band = bands[attr];
    const int np = repo_->num_pivots(attr);
    if (constraint.kind == AttrConstraint::Kind::kInterval) {
      // Triangle inequality: |coord_a(s) - coord_a(r)| <= dist(r, s) <=
      // eps_max for every pivot a.
      const double eps = constraint.interval.hi;
      for (int a = 0; a < np && a < static_cast<int>(pc.coords[attr].size());
           ++a) {
        const double c = pc.coords[attr][a];
        band.pivot_bands.push_back(Interval::Of(c - eps, c + eps));
      }
    } else {
      // Constant: the sample must carry exactly this value.
      for (int a = 0; a < np; ++a) {
        const double c =
            repo_->pivot_distance(attr, a, constraint.constant_vid);
        band.pivot_bands.push_back(Interval::Of(c - 1e-9, c + 1e-9));
      }
    }
  }
  return bands;
}

void TerIdsEngine::BeginBatch() {
  if (config_.cdd_memo_probe) {
    batch_cdd_sigs_.clear();
  }
}

uint64_t TerIdsEngine::DeterminantSignature(const Record& r,
                                            int missing_attr) {
  // FNV-1a over the missing attribute index and every non-missing
  // attribute's (index, token ids). SelectRules reads nothing else from the
  // arrival, so equal signatures imply an identical selection result.
  uint64_t h = kFnv1aOffsetBasis;
  h = Fnv1aMix(h, static_cast<uint64_t>(static_cast<uint32_t>(missing_attr)));
  for (int a = 0; a < r.num_attributes(); ++a) {
    const AttrValue& value = r.values[a];
    if (value.missing) {
      continue;
    }
    h = Fnv1aMix(h, static_cast<uint64_t>(static_cast<uint32_t>(a)) |
                        (1ULL << 32));
    for (Token t : value.tokens) {
      h = Fnv1aMix(h, static_cast<uint64_t>(static_cast<uint32_t>(t)));
    }
  }
  return h;
}

std::vector<ImputedTuple::ImputedAttr> TerIdsEngine::Impute(
    const Record& r, const ProbeCoords& pc, CostBreakdown* cost) {
  std::vector<ImputedTuple::ImputedAttr> result;
  // The index join evaluates each (probe attribute, sample) Jaccard
  // distance at most once per arrival, no matter how many selected rules
  // constrain that attribute — this memo is the "simultaneous traversal"
  // payoff of Section 5.3 that the unindexed baselines do not get.
  std::unordered_map<uint64_t, double> dist_memo;
  auto probe_sample_dist = [&](int attr, size_t sample_idx) {
    const uint64_t key = (static_cast<uint64_t>(sample_idx) << 5) |
                         static_cast<uint64_t>(attr);
    auto it = dist_memo.find(key);
    if (it != dist_memo.end()) {
      return it->second;
    }
    const double dist = JaccardDistance(
        r.values[attr].tokens, repo_->sample(sample_idx).values[attr].tokens);
    dist_memo.emplace(key, dist);
    return dist;
  };
  auto determinants_satisfied = [&](const CddRule& rule, size_t sample_idx) {
    for (const auto& [attr, constraint] : rule.determinants) {
      if (constraint.kind == AttrConstraint::Kind::kConstant) {
        // Probe-side equality was verified by the CDD-index; check the
        // sample side.
        if (repo_->sample_value_id(sample_idx, attr) !=
            constraint.constant_vid) {
          return false;
        }
      } else if (!constraint.interval.Contains(
                     probe_sample_dist(attr, sample_idx))) {
        return false;
      }
    }
    return true;
  };
  for (int j : r.MissingAttributes()) {
    // Memoization probe: would a batch-scoped cache keyed by determinant
    // signature have answered this selection? Counted only — the selection
    // still runs, so results are unchanged while CostBreakdown reports the
    // would-be hit rate. Gated off by default: the measured rate was near
    // zero on every profile (ROADMAP), so the hot loop skips the signature
    // hashing unless a run explicitly re-measures.
    if (config_.cdd_memo_probe && cost != nullptr) {
      cost->cdd_memo_queries += 1.0;
      if (!batch_cdd_sigs_.insert(DeterminantSignature(r, j)).second) {
        cost->cdd_memo_repeats += 1.0;
      }
    }
    // CDD selection via the CDD-index.
    std::vector<int> selected;
    {
      ScopedTimer timer(cost ? &cost->cdd_select_seconds : nullptr);
      selected = cdd_index_.SelectRules(r, pc, j);
    }
    // Sample retrieval: ONE pruned DR-index pass shared by all selected
    // rules. The per-attribute filter is the union of the rules' coordinate
    // bands (sound whenever every selected rule constrains the attribute);
    // retrieved samples are verified against each rule with memoized
    // probe-sample distances, and candidate values come from the
    // precomputed neighbor lists. This is the "simultaneous traversal" of
    // Section 5.3: each distance is computed once per arrival (probe-side)
    // or once per engine lifetime (domain-side), not once per rule.
    {
      ScopedTimer timer(cost ? &cost->impute_seconds : nullptr);
      counter_.Reset(repo_->domain_size(j));
      // Union bands per attribute.
      const int d = repo_->num_attributes();
      std::vector<AttrBand> union_bands(d);
      std::vector<bool> all_rules_constrain(d, !selected.empty());
      std::vector<std::vector<Interval>> unions(d);
      for (int rule_idx : selected) {
        const CddRule& rule = rules_[rule_idx];
        const std::vector<AttrBand> bands = BandsForRule(rule, pc);
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

      if (!selected.empty()) {
        for (size_t sample_idx : dr_index_.Retrieve(union_bands)) {
          for (int rule_idx : selected) {
            const CddRule& rule = rules_[rule_idx];
            if (!determinants_satisfied(rule, sample_idx)) {
              continue;
            }
            // Candidate set cand(s[A_j]): a binary-searched slice of the
            // sample value's neighbourhood (near list + implicit tail).
            neighborhoods_.AccumulateRange(
                j, repo_->sample_value_id(sample_idx, j), rule.dep_interval,
                &counter_);
          }
        }
      }
    }
    std::vector<ImputedTuple::Candidate> cands =
        FinalizeCandidates(counter_, config_.max_candidates_per_attr);
    if (!cands.empty()) {
      ImputedTuple::ImputedAttr ia;
      ia.attr = j;
      ia.candidates = std::move(cands);
      result.push_back(std::move(ia));
    }
  }
  return result;
}

Status TerIdsEngine::AbsorbRepositoryBatch(const std::vector<Record>& batch) {
  // Strictly per tuple: AbsorbNewSample scans every sample already in R, so
  // adding the whole batch first would count each new pair twice. The
  // neighbourhoods pick up new domain values on their next lookup.
  RuleMiner miner(repo_, MinerOptions{});
  Status status = Status::Ok();
  bool widened = false;
  for (const Record& record : batch) {
    const size_t sample_idx = repo_->num_samples();
    status = repo_->AddSample(record);
    if (!status.ok()) {
      break;
    }
    dr_index_.InsertSample(sample_idx);
    widened |= miner.AbsorbNewSample(sample_idx, &rules_) > 0;
  }
  if (widened) {
    // Aggregates changed: rebuild the lattice trees once, and let the
    // neighbourhoods reach the widened dependent intervals.
    cdd_index_.Build();
    const std::vector<double> radius = ValueNeighborhoods::MaxRadiusPerAttr(
        rules_, repo_->num_attributes());
    for (int x = 0; x < repo_->num_attributes(); ++x) {
      neighborhoods_.WidenRadius(x, radius[x]);
    }
  }
  return status;
}

}  // namespace terids
