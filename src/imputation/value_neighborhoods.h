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
///
/// The same postings answer the determinant checks of an arrival
/// (DESIGN.md §15): ProbeDistance reads the distance from an arriving
/// tuple's value to any domain value out of a per-attribute overlap table,
/// filled by one walk over the probe's token postings. Owned by one engine
/// and used only on its imputing thread.
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

  /// JaccardDistance(probe, value `vid` of dom(attr)), bit for bit. The
  /// first call on `attr` since EndProbe counts |probe ∩ v| for every v
  /// through the postings of the probe's tokens; every later call is a
  /// table lookup. So `probe` must stay the same set on `attr` until
  /// EndProbe, and the domain must not grow in between.
  double ProbeDistance(int attr, const TokenSet& probe, ValueId vid) {
    ProbeTable& table = probes_[attr];
    if (!table.filled) {
      FillProbe(attr, probe);
    }
    TERIDS_CHECK(vid < table.overlap.size());
    const uint32_t inter = table.overlap[vid];
    if (inter == 0) {
      // Token-disjoint: 1 - 0/|union| is exactly 1.0, except that two
      // empty sets are at distance 0.
      return table.probe_size == 0 && repo_->value_tokens(attr, vid).empty()
                 ? 0.0
                 : 1.0;
    }
    // Same arithmetic as JaccardDistance.
    const size_t uni =
        table.probe_size + repo_->value_tokens(attr, vid).size() - inter;
    return 1.0 - static_cast<double>(inter) / static_cast<double>(uni);
  }

  /// Ends the probe: zeroes every overlap table through its touched list.
  void EndProbe();

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

  /// Overlap table of one attribute for the current probe: |probe ∩ v| by
  /// ValueId, nonzero only on `touched`.
  struct ProbeTable {
    bool filled = false;
    size_t probe_size = 0;
    std::vector<uint32_t> overlap;
    std::vector<ValueId> touched;
  };

  /// The near list of `vid` (distance < 1.0 and <= radius), built on first
  /// use.
  const NearList& Near(int attr, ValueId vid);
  /// Indexes values added to dom(attr) since the last lookup.
  void Sync(int attr);
  void Drop(AttrIndex* ix, ValueId vid);
  void FillProbe(int attr, const TokenSet& probe);
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
  /// Probe tables by attribute, kept apart from the build scratch above.
  std::vector<ProbeTable> probes_;
};

}  // namespace terids

#endif  // TERIDS_IMPUTATION_VALUE_NEIGHBORHOODS_H_
