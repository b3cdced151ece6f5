#include "imputation/rule_based_imputer.h"

#include <algorithm>

#include "util/stopwatch.h"

namespace terids {

RuleBasedImputer::RuleBasedImputer(const Repository* repo,
                                   std::vector<CddRule> rules,
                                   RuleImputerOptions options)
    : repo_(repo), rules_(std::move(rules)), options_(options) {
  TERIDS_CHECK(repo != nullptr);
  by_dependent_.resize(repo->num_attributes());
  for (size_t i = 0; i < rules_.size(); ++i) {
    TERIDS_CHECK(rules_[i].dependent >= 0 &&
                 rules_[i].dependent < repo->num_attributes());
    by_dependent_[rules_[i].dependent].push_back(static_cast<int>(i));
  }
}

const std::vector<int>& RuleBasedImputer::RulesForDependent(int attr) const {
  TERIDS_CHECK(attr >= 0 && attr < static_cast<int>(by_dependent_.size()));
  return by_dependent_[attr];
}

void AccumulateCandidates(const Repository& repo, const CddRule& rule,
                          size_t sample_idx, bool use_coord_filter,
                          std::unordered_map<ValueId, double>* freq) {
  const int j = rule.dependent;
  const ValueId svid = repo.sample_value_id(sample_idx, j);
  const TokenSet& s_tokens = repo.value_tokens(j, svid);
  const Interval& dep = rule.dep_interval;

  if (use_coord_filter && repo.has_pivots()) {
    // Necessary condition via the metric embedding: |coord(val) - coord(s)|
    // <= dist(val, s[A_j]) <= dep.hi, so only values in the coordinate band
    // need exact verification.
    const double coord_s = repo.coord(j, svid);
    const Interval band =
        Interval::Of(coord_s - dep.hi, coord_s + dep.hi);
    for (ValueId val : repo.ValuesInCoordRange(j, band)) {
      const double dist = JaccardDistance(s_tokens, repo.value_tokens(j, val));
      if (dep.Contains(dist)) {
        (*freq)[val] += 1.0;
      }
    }
  } else {
    const size_t dom_size = repo.domain_size(j);
    for (ValueId val = 0; val < dom_size; ++val) {
      const double dist = JaccardDistance(s_tokens, repo.value_tokens(j, val));
      if (dep.Contains(dist)) {
        (*freq)[val] += 1.0;
      }
    }
  }
}

namespace {

// Deterministic order: probability descending, ValueId ascending. The vid
// tie-break makes the cap cut identical regardless of accumulation order,
// so indexed and linear imputation produce byte-identical tuples.
bool CandidateBefore(const ImputedTuple::Candidate& a,
                     const ImputedTuple::Candidate& b) {
  return a.prob != b.prob ? a.prob > b.prob : a.vid < b.vid;
}

// Renormalizes over the top candidates a cap retained: the truncated
// distribution becomes the imputation model. Without this,
// capping strands probability mass and a correctly-imputed pair whose
// candidates split the vote can never clear the alpha threshold.
void Renormalize(std::vector<ImputedTuple::Candidate>* kept_out) {
  double kept = 0.0;
  for (const ImputedTuple::Candidate& c : *kept_out) {
    kept += c.prob;
  }
  if (kept > 0.0) {
    for (ImputedTuple::Candidate& c : *kept_out) {
      c.prob /= kept;
    }
  }
}

}  // namespace

std::vector<ImputedTuple::Candidate> FinalizeCandidates(
    const std::unordered_map<ValueId, double>& freq, int max_candidates) {
  std::vector<ImputedTuple::Candidate> out;
  if (freq.empty()) {
    return out;
  }
  double total = 0.0;
  for (const auto& [vid, f] : freq) {
    (void)vid;
    total += f;
  }
  out.reserve(freq.size());
  for (const auto& [vid, f] : freq) {
    out.push_back({vid, f / total});
  }
  std::sort(out.begin(), out.end(), CandidateBefore);
  if (static_cast<int>(out.size()) > max_candidates) {
    out.resize(max_candidates);
    Renormalize(&out);
  }
  return out;
}

std::vector<ImputedTuple::Candidate> FinalizeCandidates(
    const CandidateCounter& counter, int max_candidates) {
  std::vector<ImputedTuple::Candidate> out;
  const int64_t tail = counter.tail();
  const size_t n = counter.domain_size();
  // Exact integer total, so its double equals the map path's sum.
  int64_t total = tail * static_cast<int64_t>(n);
  for (ValueId v : counter.touched()) {
    total += counter.adj(v);
  }
  if (total == 0) {
    return out;
  }
  const double dtotal = static_cast<double>(total);
  // Values off the tail count, sorted; the rest share prob tail/total and
  // already come in ValueId order.
  std::vector<ImputedTuple::Candidate> off_tail;
  size_t num_off_tail = 0;
  for (ValueId v : counter.touched()) {
    const int64_t adj = counter.adj(v);
    if (adj == 0) {
      continue;
    }
    ++num_off_tail;
    if (tail + adj > 0) {
      off_tail.push_back({v, static_cast<double>(tail + adj) / dtotal});
    }
  }
  std::sort(off_tail.begin(), off_tail.end(), CandidateBefore);
  const size_t num_tail = tail > 0 ? n - num_off_tail : 0;
  const size_t num = off_tail.size() + num_tail;
  const size_t cap = static_cast<size_t>(std::max(max_candidates, 0));
  const size_t keep = std::min(num, cap);
  const double tail_prob = static_cast<double>(tail) / dtotal;
  out.reserve(keep);
  size_t i = 0;
  ValueId v = 0;
  auto next_tail = [&] {
    while (v < n && counter.adj(v) != 0) {
      ++v;
    }
  };
  next_tail();
  while (out.size() < keep) {
    const bool tail_left = num_tail > 0 && v < n;
    if (i < off_tail.size() &&
        (!tail_left || CandidateBefore(off_tail[i], {v, tail_prob}))) {
      out.push_back(off_tail[i++]);
    } else {
      out.push_back({v++, tail_prob});
      next_tail();
    }
  }
  if (num > cap) {
    Renormalize(&out);
  }
  return out;
}

std::vector<ImputedTuple::ImputedAttr> RuleBasedImputer::ImputeRecord(
    const Record& r, CostBreakdown* cost) {
  std::vector<ImputedTuple::ImputedAttr> result;
  for (int j : r.MissingAttributes()) {
    // Rule selection phase: find the applicable rules with dependent A_j.
    std::vector<const CddRule*> applicable;
    {
      ScopedTimer timer(cost ? &cost->cdd_select_seconds : nullptr);
      for (int idx : by_dependent_[j]) {
        if (rules_[idx].ApplicableTo(r)) {
          applicable.push_back(&rules_[idx]);
        }
      }
    }
    // Imputation phase: retrieve satisfying samples and accumulate the
    // multi-rule frequency distribution of Equation (4).
    std::unordered_map<ValueId, double> freq;
    {
      ScopedTimer timer(cost ? &cost->impute_seconds : nullptr);
      for (const CddRule* rule : applicable) {
        for (size_t i = 0; i < repo_->num_samples(); ++i) {
          if (rule->DeterminantsSatisfied(r, *repo_, i)) {
            AccumulateCandidates(*repo_, *rule, i, options_.use_coord_filter,
                                 &freq);
          }
        }
      }
    }
    std::vector<ImputedTuple::Candidate> cands =
        FinalizeCandidates(freq, options_.max_candidates_per_attr);
    if (!cands.empty()) {
      ImputedTuple::ImputedAttr ia;
      ia.attr = j;
      ia.candidates = std::move(cands);
      result.push_back(std::move(ia));
    }
  }
  return result;
}

}  // namespace terids
