#ifndef TERIDS_IMPUTATION_VALUE_NEIGHBORHOODS_H_
#define TERIDS_IMPUTATION_VALUE_NEIGHBORHOODS_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "imputation/candidate_counter.h"
#include "repo/repository.h"
#include "rules/rule.h"

namespace terids {

/// Distance-sorted neighbourhoods of attribute-domain values, the
/// value-level companion of the DR-index (DESIGN.md §14).
///
/// Candidate sets cand(s[A_j]) (Section 3) are binary-searched slices of
/// these neighbourhoods. They rest on one fact: two values that share no
/// token are at Jaccard distance exactly 1.0, and every pair at distance
/// below 1.0 shares a token (or both values are token-empty). So for a
/// domain value v of attribute x the neighbourhood splits into
///
///   - the *near list*: the values at distance < 1.0 within `radius[x]`,
///     sorted by (distance, ValueId) and found through a per-attribute
///     token -> ValueId posting index, never by a domain scan; and
///   - the implicit *tail*: when radius[x] >= 1.0, every other domain value,
///     all at distance exactly 1.0. It is never materialized.
///
/// Near lists are built lazily and cached. ValueIds are append-only, so the
/// posting index is extended on each lookup that sees a grown domain, and a
/// new value drops only the cached lists of its posting-mates: it can enter
/// no other near list, and the tail covers it everywhere else.
class ValueNeighborhoods {
 public:
  /// `radius[x]` caps the usable dependent-interval hi on attribute x; pass
  /// MaxRadiusPerAttr(rules, d) for a rule set.
  ValueNeighborhoods(const Repository* repo, std::vector<double> radius);

  static std::vector<double> MaxRadiusPerAttr(const std::vector<CddRule>& rules,
                                              int num_attributes);

  /// Accumulates the candidate slice within `dep` around sample value
  /// `svid` (+1 per value, Equation 3/4 semantics). The counter must have
  /// been Reset to the attribute's current domain size.
  void AccumulateRange(int attr, ValueId svid, const Interval& dep,
                       CandidateCounter* counter);

  /// The same slice with every value written out into `freq`, tail
  /// included; equal to the counter form value by value.
  void AccumulateRange(int attr, ValueId svid, const Interval& dep,
                       std::unordered_map<ValueId, double>* freq);

  /// Raises radius[attr] to `hi` if it is below, dropping the attribute's
  /// cached lists (they were cut at the old radius).
  void WidenRadius(int attr, double hi);

  /// Drops all cached lists. Not needed for domain growth, which lookups
  /// detect themselves.
  void Invalidate();

 private:
  using NearList = std::vector<std::pair<double, ValueId>>;

  struct AttrIndex {
    /// Domain values [0, indexed) are in the posting index.
    size_t indexed = 0;
    /// Token id -> ascending ValueIds of the values carrying it.
    std::vector<std::vector<ValueId>> postings;
    /// Token-empty values: mutually at distance 0, at 1.0 from the rest.
    std::vector<ValueId> empty_values;
    /// Cached near lists by ValueId; `built[v]` marks a valid entry.
    std::vector<NearList> lists;
    std::vector<uint8_t> built;
  };

  /// The near list of `vid` (distance < 1.0 and <= radius), built on first
  /// use.
  const NearList& Near(int attr, ValueId vid);
  /// Indexes values added to dom(attr) since the last lookup.
  void Sync(int attr);
  void Drop(AttrIndex* ix, ValueId vid);
  bool CoversTail(int attr, const Interval& dep) const {
    return radius_[attr] >= 1.0 && dep.Contains(1.0);
  }

  const Repository* repo_;
  std::vector<double> radius_;
  std::vector<AttrIndex> attrs_;
  /// Build scratch: token overlap with the centre, by ValueId (all zero
  /// between builds), and the values it touched.
  std::vector<uint32_t> overlap_;
  std::vector<ValueId> mates_;
  /// Map-path scratch: near-list membership stamps.
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
};

}  // namespace terids

#endif  // TERIDS_IMPUTATION_VALUE_NEIGHBORHOODS_H_
