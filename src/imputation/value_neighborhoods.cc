#include "imputation/value_neighborhoods.h"

#include <algorithm>

namespace terids {

ValueNeighborhoods::ValueNeighborhoods(const Repository* repo,
                                       std::vector<double> radius)
    : repo_(repo), radius_(std::move(radius)) {
  TERIDS_CHECK(repo != nullptr);
  TERIDS_CHECK(static_cast<int>(radius_.size()) == repo->num_attributes());
  attrs_.resize(radius_.size());
  probes_.resize(radius_.size());
}

std::vector<double> ValueNeighborhoods::MaxRadiusPerAttr(
    const std::vector<CddRule>& rules, int num_attributes) {
  std::vector<double> radius(num_attributes, 0.0);
  for (const CddRule& rule : rules) {
    radius[rule.dependent] =
        std::max(radius[rule.dependent], rule.dep_interval.hi);
  }
  return radius;
}

void ValueNeighborhoods::Drop(AttrIndex* ix, ValueId vid) {
  if (ix->built[vid]) {
    ix->built[vid] = 0;
    ix->lists[vid] = NearList();
  }
}

void ValueNeighborhoods::Sync(int attr) {
  AttrIndex& ix = attrs_[attr];
  const size_t n = repo_->domain_size(attr);
  if (n == ix.indexed) {
    return;
  }
  ix.lists.resize(n);
  ix.built.resize(n, 0);
  for (ValueId v = static_cast<ValueId>(ix.indexed); v < n; ++v) {
    const TokenSet& tokens = repo_->value_tokens(attr, v);
    if (tokens.empty()) {
      for (ValueId mate : ix.empty_values) {
        Drop(&ix, mate);
      }
      ix.empty_values.push_back(v);
      continue;
    }
    for (Token t : tokens) {
      if (t >= ix.postings.size()) {
        ix.postings.resize(static_cast<size_t>(t) + 1);
      }
      for (ValueId mate : ix.postings[t]) {
        Drop(&ix, mate);
      }
      ix.postings[t].push_back(v);
    }
  }
  ix.indexed = n;
}

const ValueNeighborhoods::NearList& ValueNeighborhoods::Near(int attr,
                                                             ValueId vid) {
  Sync(attr);
  AttrIndex& ix = attrs_[attr];
  TERIDS_CHECK(vid < ix.indexed);
  if (ix.built[vid]) {
    return ix.lists[vid];
  }
  const double radius = radius_[attr];
  const TokenSet& center = repo_->value_tokens(attr, vid);
  NearList near;
  if (center.empty()) {
    // JaccardDistance of two empty sets is 0, within any radius.
    for (ValueId mate : ix.empty_values) {
      near.emplace_back(0.0, mate);
    }
  } else {
    // Token overlap with every posting-mate, counted through the postings:
    // |center ∩ mate| is the number of centre tokens whose posting holds
    // the mate (both sets are deduplicated).
    if (overlap_.size() < ix.indexed) {
      overlap_.resize(ix.indexed, 0);
    }
    for (Token t : center) {
      for (ValueId mate : ix.postings[t]) {
        if (overlap_[mate]++ == 0) {
          mates_.push_back(mate);
        }
      }
    }
    for (ValueId mate : mates_) {
      const size_t inter = overlap_[mate];
      overlap_[mate] = 0;
      // Same arithmetic as JaccardDistance, so the bits agree with a scan.
      const size_t uni =
          center.size() + repo_->value_tokens(attr, mate).size() - inter;
      const double dist =
          1.0 - static_cast<double>(inter) / static_cast<double>(uni);
      if (dist < 1.0 && dist <= radius) {
        near.emplace_back(dist, mate);
      }
    }
    mates_.clear();
  }
  std::sort(near.begin(), near.end());
  ix.built[vid] = 1;
  ix.lists[vid] = std::move(near);
  return ix.lists[vid];
}

void ValueNeighborhoods::AccumulateRange(int attr, ValueId svid,
                                         const Interval& dep,
                                         CandidateCounter* counter) {
  const NearList& near = Near(attr, svid);
  auto lo = std::lower_bound(near.begin(), near.end(),
                             std::make_pair(dep.lo, static_cast<ValueId>(0)));
  if (CoversTail(attr, dep)) {
    // Every value gets the tail vote; near values closer than dep.lo are
    // taken back out. Near values at or beyond dep.lo are below 1.0 <=
    // dep.hi, so the tail already counts them.
    counter->AddTail();
    for (auto it = near.begin(); it != lo; ++it) {
      counter->Add(it->second, -1);
    }
    return;
  }
  for (auto it = lo; it != near.end() && it->first <= dep.hi; ++it) {
    counter->Add(it->second, 1);
  }
}

void ValueNeighborhoods::AccumulateRange(
    int attr, ValueId svid, const Interval& dep,
    std::unordered_map<ValueId, double>* freq) {
  const NearList& near = Near(attr, svid);
  auto lo = std::lower_bound(near.begin(), near.end(),
                             std::make_pair(dep.lo, static_cast<ValueId>(0)));
  for (auto it = lo; it != near.end() && it->first <= dep.hi; ++it) {
    (*freq)[it->second] += 1.0;
  }
  if (!CoversTail(attr, dep)) {
    return;
  }
  // Write the tail out: every value off the near list.
  const size_t n = attrs_[attr].indexed;
  if (stamp_.size() < n) {
    stamp_.resize(n, 0);
  }
  if (++epoch_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  for (const auto& [dist, vid] : near) {
    (void)dist;
    stamp_[vid] = epoch_;
  }
  for (ValueId v = 0; v < n; ++v) {
    if (stamp_[v] != epoch_) {
      (*freq)[v] += 1.0;
    }
  }
}

void ValueNeighborhoods::WidenRadius(int attr, double hi) {
  if (hi <= radius_[attr]) {
    return;
  }
  radius_[attr] = hi;
  AttrIndex& ix = attrs_[attr];
  for (ValueId v = 0; v < ix.built.size(); ++v) {
    Drop(&ix, v);
  }
}

void ValueNeighborhoods::FillProbe(int attr, const TokenSet& probe) {
  Sync(attr);
  const AttrIndex& ix = attrs_[attr];
  ProbeTable& table = probes_[attr];
  if (table.overlap.size() < ix.indexed) {
    table.overlap.resize(ix.indexed, 0);
  }
  // The walk Near does for a centre: both sets are deduplicated, so a value
  // is met once per shared token.
  for (Token t : probe) {
    if (t >= ix.postings.size()) {
      continue;  // No value of dom(attr) carries t.
    }
    for (ValueId v : ix.postings[t]) {
      if (table.overlap[v]++ == 0) {
        table.touched.push_back(v);
      }
    }
  }
  table.probe_size = probe.size();
  table.filled = true;
}

void ValueNeighborhoods::EndProbe() {
  for (ProbeTable& table : probes_) {
    for (ValueId v : table.touched) {
      table.overlap[v] = 0;
    }
    table.touched.clear();
    table.filled = false;
  }
}

void ValueNeighborhoods::Invalidate() {
  for (AttrIndex& ix : attrs_) {
    for (ValueId v = 0; v < ix.built.size(); ++v) {
      Drop(&ix, v);
    }
  }
}

}  // namespace terids
