#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "imputation/constraint_imputer.h"
#include "imputation/rule_based_imputer.h"
#include "imputation/value_neighborhoods.h"
#include "rules/rule_miner.h"
#include "test_util.h"

namespace terids {
namespace {

using testing_util::MakeHealthWorld;
using testing_util::ToyWorld;

class RuleBasedImputerTest : public ::testing::Test {
 protected:
  RuleBasedImputerTest() : world_(MakeHealthWorld()) {
    MinerOptions opts;
    opts.min_support = 2;
    opts.min_const_freq = 2;
    RuleMiner miner(world_.repo.get(), opts);
    rules_ = miner.MineCdds();
  }
  ToyWorld world_;
  std::vector<CddRule> rules_;
};

TEST_F(RuleBasedImputerTest, ImputesDiagnosisFromSymptoms) {
  RuleBasedImputer imputer(world_.repo.get(), rules_, RuleImputerOptions{});
  // Post a2 of the paper's Table 1: diabetic symptoms, missing diagnosis.
  Record r = world_.Make(1, {"male", "loss of weight blurred vision", "-",
                             "drug therapy"});
  auto imputed = imputer.ImputeRecord(r, nullptr);
  ASSERT_EQ(imputed.size(), 1u);
  EXPECT_EQ(imputed[0].attr, 2);
  ASSERT_FALSE(imputed[0].candidates.empty());
  // The top candidate must be "diabetes" (it dominates the frequency vote).
  const ValueId top = imputed[0].candidates[0].vid;
  EXPECT_EQ(world_.repo->domain(2).text(top), "diabetes");
  // Probabilities are a normalized distribution.
  double total = 0;
  for (const auto& c : imputed[0].candidates) {
    EXPECT_GT(c.prob, 0.0);
    total += c.prob;
  }
  EXPECT_LE(total, 1.0 + 1e-9);
}

TEST_F(RuleBasedImputerTest, CompleteRecordNeedsNoImputation) {
  RuleBasedImputer imputer(world_.repo.get(), rules_, RuleImputerOptions{});
  Record r = world_.Make(2, {"male", "fever", "flu", "rest"});
  EXPECT_TRUE(imputer.ImputeRecord(r, nullptr).empty());
}

TEST_F(RuleBasedImputerTest, CoordFilterDoesNotChangeCandidates) {
  // The sorted-coordinate prefilter is a pure optimization: candidate
  // distributions must be identical with and without it.
  RuleImputerOptions with_filter;
  with_filter.use_coord_filter = true;
  RuleImputerOptions without_filter;
  without_filter.use_coord_filter = false;
  RuleBasedImputer fast(world_.repo.get(), rules_, with_filter);
  RuleBasedImputer slow(world_.repo.get(), rules_, without_filter);
  const std::vector<Record> probes = {
      world_.Make(1, {"male", "loss of weight blurred vision", "-", "-"}),
      world_.Make(2, {"female", "fever cough", "-", "rest"}),
      world_.Make(3, {"male", "-", "diabetes", "-"}),
  };
  for (const Record& r : probes) {
    auto a = fast.ImputeRecord(r, nullptr);
    auto b = slow.ImputeRecord(r, nullptr);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].candidates.size(), b[i].candidates.size());
      for (size_t c = 0; c < a[i].candidates.size(); ++c) {
        EXPECT_EQ(a[i].candidates[c].vid, b[i].candidates[c].vid);
        EXPECT_DOUBLE_EQ(a[i].candidates[c].prob, b[i].candidates[c].prob);
      }
    }
  }
}

TEST_F(RuleBasedImputerTest, CostAccountingSplitsPhases) {
  RuleBasedImputer imputer(world_.repo.get(), rules_, RuleImputerOptions{});
  Record r = world_.Make(1, {"male", "loss of weight", "-", "-"});
  CostBreakdown cost;
  imputer.ImputeRecord(r, &cost);
  EXPECT_GT(cost.cdd_select_seconds + cost.impute_seconds, 0.0);
  EXPECT_DOUBLE_EQ(cost.er_seconds, 0.0);
}

TEST_F(RuleBasedImputerTest, RulesForDependentPartitionsRuleSet) {
  RuleBasedImputer imputer(world_.repo.get(), rules_, RuleImputerOptions{});
  size_t total = 0;
  for (int j = 0; j < world_.repo->num_attributes(); ++j) {
    for (int idx : imputer.RulesForDependent(j)) {
      EXPECT_EQ(imputer.rules()[idx].dependent, j);
      ++total;
    }
  }
  EXPECT_EQ(total, rules_.size());
}

TEST(ValueNeighborhoodsTest, SlicesMatchBruteForce) {
  ToyWorld world = MakeHealthWorld();
  std::vector<double> radius(world.repo->num_attributes(), 0.8);
  ValueNeighborhoods neighborhoods(world.repo.get(), radius);
  const int attr = 2;
  const AttributeDomain& dom = world.repo->domain(attr);
  for (ValueId center = 0; center < dom.size(); ++center) {
    for (const Interval dep : {Interval::Of(0.0, 0.3), Interval::Of(0.2, 0.6),
                               Interval::Of(0.0, 0.8)}) {
      std::unordered_map<ValueId, double> freq;
      neighborhoods.AccumulateRange(attr, center, dep, &freq);
      for (ValueId v = 0; v < dom.size(); ++v) {
        const double dist = JaccardDistance(dom.tokens(center), dom.tokens(v));
        EXPECT_EQ(freq.count(v) > 0, dep.Contains(dist))
            << "center=" << center << " v=" << v << " dist=" << dist;
      }
    }
  }
}

/// Written-out frequencies of a counter: count(v) = tail + adj[v].
std::vector<int64_t> CounterCounts(const CandidateCounter& counter) {
  std::vector<int64_t> counts(counter.domain_size(), counter.tail());
  for (ValueId v : counter.touched()) {
    counts[v] += counter.adj(v);
  }
  return counts;
}

std::unordered_map<ValueId, double> ToFreqMap(
    const std::vector<int64_t>& counts) {
  std::unordered_map<ValueId, double> freq;
  for (ValueId v = 0; v < counts.size(); ++v) {
    if (counts[v] > 0) {
      freq[v] = static_cast<double>(counts[v]);
    }
  }
  return freq;
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

void ExpectSameCandidates(const std::vector<ImputedTuple::Candidate>& a,
                          const std::vector<ImputedTuple::Candidate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].vid, b[i].vid) << "rank " << i;
    EXPECT_EQ(Bits(a[i].prob), Bits(b[i].prob)) << "rank " << i;
  }
}

TEST(ValueNeighborhoodsTest, DomainGrowthReachesCoveringSlices) {
  ToyWorld world = MakeHealthWorld();
  const int attr = 2;
  std::vector<double> radius(world.repo->num_attributes(), 1.0);
  // `warm` has every list cached before the domain grows and relies on the
  // lookup-time growth check; `invalidated` drops its lists explicitly.
  ValueNeighborhoods warm(world.repo.get(), radius);
  ValueNeighborhoods invalidated(world.repo.get(), radius);
  const std::vector<Interval> deps = {
      Interval::Of(0.0, 0.0), Interval::Of(0.0, 0.7), Interval::Of(0.5, 0.8),
      Interval::Of(0.9, 1.0), Interval::Of(0.0, 1.0)};
  const size_t old_size = world.repo->domain_size(attr);
  for (ValueId center = 0; center < old_size; ++center) {
    std::unordered_map<ValueId, double> freq;
    warm.AccumulateRange(attr, center, deps.back(), &freq);
    invalidated.AccumulateRange(attr, center, deps.back(), &freq);
  }
  // One value sharing a token with "diabetes", one sharing none.
  Tokenizer tok(world.dict.get());
  world.repo->RegisterValue(attr, tok.Tokenize("diabetes type two"), "t2");
  world.repo->RegisterValue(attr, tok.Tokenize("brand new diagnosis"), "new");
  invalidated.Invalidate();
  const size_t n = world.repo->domain_size(attr);
  for (ValueNeighborhoods* neighborhoods : {&warm, &invalidated}) {
    for (ValueId center = 0; center < n; ++center) {
      for (const Interval& dep : deps) {
        std::unordered_map<ValueId, double> freq;
        neighborhoods->AccumulateRange(attr, center, dep, &freq);
        for (ValueId v = 0; v < n; ++v) {
          const double dist = JaccardDistance(
              world.repo->value_tokens(attr, center),
              world.repo->value_tokens(attr, v));
          EXPECT_EQ(freq.count(v) > 0, dep.Contains(dist))
              << "center=" << center << " v=" << v << " dist=" << dist;
        }
      }
    }
  }
}

TEST(ValueNeighborhoodsTest, CounterMapAndBruteForceAgree) {
  ToyWorld world = MakeHealthWorld();
  const int d = world.repo->num_attributes();
  // Every attribute gets a token-empty value, so empty centres are covered.
  for (int x = 0; x < d; ++x) {
    world.repo->RegisterValue(x, TokenSet(), "");
  }
  std::mt19937_64 rng(20210620);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (const double r : {0.6, 1.0}) {
    ValueNeighborhoods neighborhoods(world.repo.get(),
                                     std::vector<double>(d, r));
    CandidateCounter counter;
    for (int x = 0; x < d; ++x) {
      const size_t n = world.repo->domain_size(x);
      for (int trial = 0; trial < 40; ++trial) {
        counter.Reset(n);
        std::unordered_map<ValueId, double> freq;
        std::vector<int64_t> brute(n, 0);
        // Several slices per vote, as one imputation accumulates them.
        for (int k = 0; k < 4; ++k) {
          const ValueId center = static_cast<ValueId>(rng() % n);
          double lo = trial % 3 == 0 ? 0.0 : unit(rng) * r;
          double hi = trial % 4 == 0 ? r : unit(rng) * r;
          if (lo > hi) std::swap(lo, hi);
          const Interval dep = Interval::Of(lo, hi);
          neighborhoods.AccumulateRange(x, center, dep, &counter);
          neighborhoods.AccumulateRange(x, center, dep, &freq);
          for (ValueId v = 0; v < n; ++v) {
            brute[v] += dep.Contains(JaccardDistance(
                world.repo->value_tokens(x, center),
                world.repo->value_tokens(x, v)));
          }
        }
        const std::vector<int64_t> counts = CounterCounts(counter);
        for (ValueId v = 0; v < n; ++v) {
          EXPECT_EQ(counts[v], brute[v]) << "attr=" << x << " v=" << v;
          const auto it = freq.find(v);
          EXPECT_EQ(it == freq.end() ? 0 : static_cast<int64_t>(it->second),
                    brute[v])
              << "attr=" << x << " v=" << v;
        }
        for (int cap : {3, 1000}) {
          ExpectSameCandidates(FinalizeCandidates(counter, cap),
                               FinalizeCandidates(freq, cap));
        }
      }
    }
  }
}

TEST(ValueNeighborhoodsTest, WidenRadiusExtendsSlices) {
  ToyWorld world = MakeHealthWorld();
  const int attr = 2;
  Tokenizer tok(world.dict.get());
  const ValueId t2 =
      world.repo->RegisterValue(attr, tok.Tokenize("diabetes type two"), "t2");
  const ValueId diabetes = world.repo->sample_value_id(0, attr);
  ValueNeighborhoods neighborhoods(
      world.repo.get(), std::vector<double>(world.repo->num_attributes(), 0.5));
  const Interval dep = Interval::Of(0.0, 0.7);
  std::unordered_map<ValueId, double> freq;
  neighborhoods.AccumulateRange(attr, diabetes, dep, &freq);
  EXPECT_EQ(freq.count(t2), 0u);  // 2/3 away: beyond the old radius.
  neighborhoods.WidenRadius(attr, 0.7);
  freq.clear();
  neighborhoods.AccumulateRange(attr, diabetes, dep, &freq);
  EXPECT_EQ(freq.count(t2), 1u);
}

TEST(ValueNeighborhoodsTest, ProbeDistanceMatchesJaccardBitForBit) {
  ToyWorld world = MakeHealthWorld();
  const int d = world.repo->num_attributes();
  std::mt19937_64 rng(20210620);
  // Random sets over ids [0, 48): they overlap each other and the toy
  // world's own tokens, and each attribute's domain misses many of them.
  auto random_set = [&rng](size_t max_size) {
    std::vector<Token> tokens;
    const size_t n = rng() % (max_size + 1);
    for (size_t i = 0; i < n; ++i) {
      tokens.push_back(static_cast<Token>(rng() % 48));
    }
    return TokenSet::FromTokens(std::move(tokens));
  };
  for (int x = 0; x < d; ++x) {
    world.repo->RegisterValue(x, TokenSet(), "");
    for (int i = 0; i < 25; ++i) {
      world.repo->RegisterValue(x, random_set(6), "v" + std::to_string(i));
    }
  }
  ValueNeighborhoods neighborhoods(world.repo.get(),
                                   std::vector<double>(d, 1.0));
  CandidateCounter counter;
  auto expect_exact = [&](int x, const TokenSet& probe) {
    for (ValueId v = 0; v < world.repo->domain_size(x); ++v) {
      EXPECT_EQ(Bits(neighborhoods.ProbeDistance(x, probe, v)),
                Bits(JaccardDistance(probe, world.repo->value_tokens(x, v))))
          << "attr=" << x << " v=" << v;
    }
  };
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<TokenSet> probes(d);
    for (int x = 0; x < d; ++x) {
      if (trial % 5 == 0) {
        continue;  // Token-empty probe.
      }
      const TokenSet drawn = random_set(8);
      std::vector<Token> tokens(drawn.begin(), drawn.end());
      if (trial % 3 == 0) {
        // Ids no domain value carries, past the end of every posting array.
        tokens.push_back(static_cast<Token>(100000 + trial));
        tokens.push_back(static_cast<Token>(100001 + trial));
      }
      probes[x] = TokenSet::FromTokens(std::move(tokens));
    }
    for (int x = 0; x < d; ++x) {
      expect_exact(x, probes[x]);
      // A near-list build in the middle of a probe must not disturb it.
      const size_t n = world.repo->domain_size(x);
      counter.Reset(n);
      neighborhoods.AccumulateRange(x, static_cast<ValueId>(rng() % n),
                                    Interval::Of(0.0, 0.9), &counter);
      expect_exact(x, probes[x]);
    }
    neighborhoods.EndProbe();
  }
}

TEST(ValueNeighborhoodsTest, ProbeTablesResetAndFollowDomainGrowth) {
  ToyWorld world = MakeHealthWorld();
  const int attr = 1;
  Tokenizer tok(world.dict.get());
  ValueNeighborhoods neighborhoods(
      world.repo.get(), std::vector<double>(world.repo->num_attributes(), 1.0));
  const TokenSet weight = tok.Tokenize("loss of weight");
  const TokenSet fever = tok.Tokenize("fever");
  const ValueId weight_vid = world.repo->sample_value_id(0, attr);
  ASSERT_EQ(world.repo->value_tokens(attr, weight_vid), weight);
  EXPECT_EQ(neighborhoods.ProbeDistance(attr, weight, weight_vid), 0.0);
  neighborhoods.EndProbe();
  // A second probe sees none of the first one's overlaps.
  EXPECT_EQ(neighborhoods.ProbeDistance(attr, fever, weight_vid), 1.0);
  neighborhoods.EndProbe();
  // A value added between two probes, sharing a probe token, is reached
  // through the posting index's growth check.
  const ValueId grown = world.repo->RegisterValue(
      attr, tok.Tokenize("weight gain"), "weight gain");
  const double want =
      JaccardDistance(weight, world.repo->value_tokens(attr, grown));
  ASSERT_LT(want, 1.0);
  EXPECT_EQ(Bits(neighborhoods.ProbeDistance(attr, weight, grown)), Bits(want));
  EXPECT_EQ(neighborhoods.ProbeDistance(attr, weight, weight_vid), 0.0);
  neighborhoods.EndProbe();
}

TEST(FinalizeCandidatesTest, CounterMatchesMapBitForBit) {
  struct Case {
    const char* name;
    size_t domain;
    int64_t tail;
    std::vector<std::pair<ValueId, int64_t>> adds;
    int cap;
  };
  const std::vector<Case> cases = {
      {"uncapped", 9, 0, {{4, 3}, {1, 1}, {7, 3}, {2, 2}}, 16},
      {"capped and renormalised", 9, 0, {{4, 3}, {1, 1}, {7, 3}, {2, 2}}, 2},
      {"tail, touched net zero", 12, 2,
       {{3, 1}, {3, -1}, {5, -2}, {8, 4}, {0, -1}, {11, 1}}, 16},
      {"tail, capped inside the tail run", 12, 1,
       {{3, 2}, {5, -1}, {6, -1}, {9, 1}}, 5},
      {"tail only", 7, 3, {}, 4},
      {"tail, every value off the tail", 3, 1, {{0, 1}, {1, -1}, {2, 2}}, 8},
      {"empty", 5, 0, {{2, 1}, {2, -1}}, 4},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    CandidateCounter counter;
    counter.Reset(c.domain);
    for (int64_t i = 0; i < c.tail; ++i) {
      counter.AddTail();
    }
    for (const auto& [vid, delta] : c.adds) {
      counter.Add(vid, delta);
    }
    const std::unordered_map<ValueId, double> freq =
        ToFreqMap(CounterCounts(counter));
    const std::vector<ImputedTuple::Candidate> closed =
        FinalizeCandidates(counter, c.cap);
    ExpectSameCandidates(closed, FinalizeCandidates(freq, c.cap));
    EXPECT_EQ(closed.empty(), freq.empty());
  }
}

TEST(ConstraintImputerTest, UsesMostRecentCompleteDonor) {
  ToyWorld world = MakeHealthWorld();
  ConstraintImputer imputer(world.repo.get(), /*history_cap=*/10);
  Record first = world.Make(1, {"male", "fever", "flu", "rest"});
  first.stream_id = 0;
  Record second = world.Make(2, {"female", "cough", "pneumonia", "antibiotics"});
  second.stream_id = 0;
  imputer.OnArrival(first);
  imputer.OnArrival(second);

  Record incomplete = world.Make(3, {"male", "headache", "-", "-"});
  incomplete.stream_id = 0;
  auto imputed = imputer.ImputeRecord(incomplete, nullptr);
  ASSERT_EQ(imputed.size(), 2u);
  // Sequential semantics [43]: the donor is the most recent (rid 2).
  EXPECT_EQ(world.repo->domain(2).text(imputed[0].candidates[0].vid),
            "pneumonia");
  EXPECT_DOUBLE_EQ(imputed[0].candidates[0].prob, 1.0);
}

TEST(ConstraintImputerTest, IgnoresOtherStreamsAndIncompleteDonors) {
  ToyWorld world = MakeHealthWorld();
  ConstraintImputer imputer(world.repo.get(), 10);
  Record other_stream = world.Make(1, {"male", "fever", "flu", "rest"});
  other_stream.stream_id = 1;
  Record incomplete_donor = world.Make(2, {"male", "fever", "-", "rest"});
  incomplete_donor.stream_id = 0;
  imputer.OnArrival(other_stream);
  imputer.OnArrival(incomplete_donor);

  Record probe = world.Make(3, {"male", "cough", "-", "rest"});
  probe.stream_id = 0;
  EXPECT_TRUE(imputer.ImputeRecord(probe, nullptr).empty());
}

TEST(ConstraintImputerTest, EvictionForgetsExpiredDonors) {
  ToyWorld world = MakeHealthWorld();
  ConstraintImputer imputer(world.repo.get(), 10);
  Record donor = world.Make(1, {"male", "fever", "flu", "rest"});
  donor.stream_id = 0;
  imputer.OnArrival(donor);
  imputer.OnEvict(donor);
  Record probe = world.Make(2, {"male", "cough", "-", "rest"});
  probe.stream_id = 0;
  EXPECT_TRUE(imputer.ImputeRecord(probe, nullptr).empty());
}

}  // namespace
}  // namespace terids
