#ifndef TERIDS_IMPUTATION_CANDIDATE_COUNTER_H_
#define TERIDS_IMPUTATION_CANDIDATE_COUNTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "repo/attribute_domain.h"
#include "util/status.h"

namespace terids {

/// Dense candidate-frequency counter over one attribute domain: the
/// Equation (3)/(4) vote of one missing attribute, without a hash map.
///
/// A slice that reaches distance 1.0 votes for every value the sample's
/// near list does not exclude, so it is recorded as one `tail` vote plus
/// per-value corrections rather than |dom| increments. The frequency of
/// every domain value v is therefore
///
///   count(v) = tail + adj[v],
///
/// where adj is nonzero only on touched values. Counts are exact integers;
/// FinalizeCandidates (rule_based_imputer.h) turns them into the same
/// candidate list the map-based accumulation gives. Owned by one engine and
/// mutated only on its imputing thread.
class CandidateCounter {
 public:
  /// Starts a new vote over a domain of `domain_size` values.
  void Reset(size_t domain_size) {
    for (ValueId v : touched_) {
      adj_[v] = 0;
      seen_[v] = 0;
    }
    touched_.clear();
    tail_ = 0;
    domain_size_ = domain_size;
    if (adj_.size() < domain_size) {
      adj_.resize(domain_size, 0);
      seen_.resize(domain_size, 0);
    }
  }

  /// One vote for every domain value (a slice covering distance 1.0).
  void AddTail() { ++tail_; }

  void Add(ValueId vid, int64_t delta) {
    TERIDS_CHECK(vid < domain_size_);
    if (!seen_[vid]) {
      seen_[vid] = 1;
      touched_.push_back(vid);
    }
    adj_[vid] += delta;
  }

  size_t domain_size() const { return domain_size_; }
  int64_t tail() const { return tail_; }
  int64_t adj(ValueId vid) const { return adj_[vid]; }
  /// Values whose adj was ever written since Reset (adj may be back to 0).
  const std::vector<ValueId>& touched() const { return touched_; }

 private:
  size_t domain_size_ = 0;
  int64_t tail_ = 0;
  std::vector<int64_t> adj_;
  std::vector<uint8_t> seen_;
  std::vector<ValueId> touched_;
};

}  // namespace terids

#endif  // TERIDS_IMPUTATION_CANDIDATE_COUNTER_H_
