// Behavioral tests of engine-level guarantees that the integration suite
// does not pin down: n > 2 streams, multi-instance grid residency,
// determinism, and refinement edge cases.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/terids_engine.h"
#include "er/probability.h"
#include "imputation/rule_based_imputer.h"
#include "rules/rule_miner.h"
#include "synopsis/sharded_er_grid.h"
#include "test_util.h"

namespace terids {
namespace {

using testing_util::MakeHealthWorld;
using testing_util::ToyWorld;

class EngineBehaviorTest : public ::testing::Test {
 protected:
  EngineBehaviorTest() : world_(MakeHealthWorld()) {
    MinerOptions opts;
    opts.min_support = 2;
    opts.min_const_freq = 2;
    RuleMiner miner(world_.repo.get(), opts);
    rules_ = miner.MineCdds();
    config_.keywords = {"diabetes"};
    config_.gamma = 2.2;
    config_.alpha = 0.4;
    config_.window_size = 16;
  }

  Record Post(int64_t rid, int stream,
              const std::vector<std::string>& texts) {
    Record r = world_.Make(rid, texts);
    r.stream_id = stream;
    return r;
  }

  ToyWorld world_;
  std::vector<CddRule> rules_;
  EngineConfig config_;
};

TEST_F(EngineBehaviorTest, ThreeStreamsMatchAcrossAnyTwo) {
  TerIdsEngine engine(world_.repo.get(), config_, /*num_streams=*/3, rules_);
  const std::vector<std::string> diabetic = {
      "male", "loss of weight", "diabetes", "drug therapy"};
  engine.ProcessArrival(Post(1, 0, diabetic));
  ArrivalOutcome second = engine.ProcessArrival(Post(2, 1, diabetic));
  EXPECT_EQ(second.new_matches.size(), 1u);  // streams 0-1
  ArrivalOutcome third = engine.ProcessArrival(Post(3, 2, diabetic));
  // Stream 2's tuple matches both earlier tuples (0-2 and 1-2 pairs).
  EXPECT_EQ(third.new_matches.size(), 2u);
  EXPECT_EQ(engine.results().size(), 3u);
}

TEST_F(EngineBehaviorTest, SameStreamDuplicatesNeverPair) {
  TerIdsEngine engine(world_.repo.get(), config_, 2, rules_);
  const std::vector<std::string> diabetic = {
      "male", "loss of weight", "diabetes", "drug therapy"};
  engine.ProcessArrival(Post(1, 0, diabetic));
  ArrivalOutcome dup = engine.ProcessArrival(Post(2, 0, diabetic));
  EXPECT_TRUE(dup.new_matches.empty());
}

TEST_F(EngineBehaviorTest, RepeatedRunsAreDeterministic) {
  std::vector<std::pair<uint64_t, size_t>> signatures;
  for (int run = 0; run < 2; ++run) {
    TerIdsEngine engine(world_.repo.get(), config_, 2, rules_);
    const std::vector<std::vector<std::string>> posts = {
        {"male", "loss of weight", "diabetes", "drug therapy"},
        {"male", "blurred vision", "-", "-"},
        {"female", "fever cough", "flu", "rest"},
        {"male", "loss of weight thirst", "-", "dietary therapy"},
    };
    size_t matches = 0;
    for (size_t i = 0; i < posts.size(); ++i) {
      matches += engine
                     .ProcessArrival(Post(static_cast<int64_t>(i),
                                          static_cast<int>(i % 2), posts[i]))
                     .new_matches.size();
    }
    signatures.emplace_back(engine.cumulative_stats().total_pairs, matches);
  }
  EXPECT_EQ(signatures[0], signatures[1]);
}

TEST_F(EngineBehaviorTest, ImputedTupleOccupiesMultipleGridCells) {
  // An imputed tuple whose candidate values have spread-out pivot
  // coordinates must be inserted into several cells and fully removed.
  // Two shards: a spread-out imputed tuple also exercises the coordinator's
  // multi-shard routing and targeted removal.
  ShardedErGrid grid(world_.repo->num_attributes(), 0.05, /*num_shards=*/2);
  TopicQuery topic(*world_.dict, {"diabetes"});
  Record r = world_.Make(1, {"male", "blurred vision", "-", "drug therapy"});
  r.stream_id = 0;
  const AttributeDomain& dom = world_.repo->domain(2);
  ImputedTuple::ImputedAttr ia;
  ia.attr = 2;
  for (ValueId v = 0; v < dom.size() && v < 5; ++v) {
    ia.candidates.push_back({v, 1.0 / 5});
  }
  auto wt = std::make_shared<WindowTuple>();
  wt->tuple = std::make_shared<const ImputedTuple>(
      ImputedTuple::FromImputation(r, world_.repo.get(), {ia}, 16));
  wt->topic = topic.Classify(*wt->tuple);

  grid.Insert(wt.get());
  EXPECT_GE(grid.num_cells(), 2u);
  EXPECT_TRUE(grid.Remove(wt.get()));
  EXPECT_EQ(grid.num_cells(), 0u);
  EXPECT_EQ(grid.num_tuples(), 0u);
}

TEST_F(EngineBehaviorTest, EarlyAcceptedRefinementStillExceedsAlpha) {
  TopicQuery topic;  // unconstrained
  Record a = world_.Make(1, {"male", "fever", "flu", "rest"});
  Record b = world_.Make(2, {"male", "fever", "flu", "rest"});
  ImputedTuple ta = ImputedTuple::FromComplete(a, world_.repo.get());
  ImputedTuple tb = ImputedTuple::FromComplete(b, world_.repo.get());
  RefineResult refine = RefineProbability(ta, topic.Classify(ta), tb,
                                          topic.Classify(tb), 2.0, 0.5);
  EXPECT_TRUE(refine.early_accepted);
  EXPECT_GT(refine.probability, 0.5);
  EXPECT_EQ(refine.pairs_evaluated, 1);
}

TEST_F(EngineBehaviorTest, WindowSizeOneStillWorks) {
  EngineConfig config = config_;
  config.window_size = 1;
  TerIdsEngine engine(world_.repo.get(), config, 2, rules_);
  const std::vector<std::string> diabetic = {
      "male", "loss of weight", "diabetes", "drug therapy"};
  engine.ProcessArrival(Post(1, 0, diabetic));
  EXPECT_EQ(engine.ProcessArrival(Post(2, 1, diabetic)).new_matches.size(),
            1u);
  // A new stream-0 arrival evicts rid 1 and its pair.
  engine.ProcessArrival(Post(3, 0, {"female", "fever cough", "flu", "rest"}));
  EXPECT_FALSE(engine.results().Contains(1, 2));
}

TEST_F(EngineBehaviorTest, SigSaturationCountersTrackFilterWork) {
  // The sig_* PruneStats counters are filter observability: zero with the
  // filter off; with it on, sig_probes counts the popcount probes of the
  // refined pairs and is width-invariant (the same instance pairs are
  // visited at every width because verdicts are width-invariant), while
  // sig_saturated can only shrink as the width grows (narrower signatures
  // are OR-coarsenings of wider ones, so a saturated 256-bit signature is
  // saturated at 64 bits too). Outcome counters never move.
  const std::vector<std::vector<std::string>> posts = {
      {"male", "loss of weight", "diabetes", "drug therapy"},
      {"male", "loss of weight thirst", "diabetes", "drug therapy"},
      {"male", "blurred vision", "-", "drug therapy"},
      {"female", "loss of weight", "diabetes", "dietary therapy"},
      {"male", "fever cough headache", "flu", "drink more"},
      {"male", "loss of weight", "diabetes", "-"},
  };
  auto run = [&](bool sigfilter, int width) {
    EngineConfig config = config_;
    config.signature_filter = sigfilter;
    config.sig_width = width;
    TerIdsEngine engine(world_.repo.get(), config, 2, rules_);
    for (size_t i = 0; i < posts.size(); ++i) {
      engine.ProcessArrival(
          Post(static_cast<int64_t>(i), static_cast<int>(i % 2), posts[i]));
    }
    return engine.cumulative_stats();
  };

  const PruneStats off = run(false, 64);
  EXPECT_EQ(off.sig_probes, 0u);
  EXPECT_EQ(off.sig_saturated, 0u);
  EXPECT_EQ(off.sig_rejects, 0u);
  EXPECT_DOUBLE_EQ(off.SigSaturatedPct(), 0.0);
  EXPECT_GT(off.refined, 0u);  // the stream must actually refine something

  const PruneStats w64 = run(true, 64);
  const PruneStats w128 = run(true, 128);
  const PruneStats w256 = run(true, 256);
  EXPECT_GT(w64.sig_probes, 0u);
  EXPECT_EQ(w64.sig_probes, w128.sig_probes);
  EXPECT_EQ(w64.sig_probes, w256.sig_probes);
  EXPECT_GE(w64.sig_saturated, w128.sig_saturated);
  EXPECT_GE(w128.sig_saturated, w256.sig_saturated);
  EXPECT_LE(w64.sig_saturated, w64.sig_probes);
  EXPECT_GE(w64.SigSaturatedPct(), 0.0);
  EXPECT_LE(w64.SigSaturatedPct(), 100.0);
  for (const PruneStats* stats : {&w64, &w128, &w256}) {
    EXPECT_EQ(stats->total_pairs, off.total_pairs);
    EXPECT_EQ(stats->topic_pruned, off.topic_pruned);
    EXPECT_EQ(stats->sim_ub_pruned, off.sim_ub_pruned);
    EXPECT_EQ(stats->prob_ub_pruned, off.prob_ub_pruned);
    EXPECT_EQ(stats->instance_pruned, off.instance_pruned);
    EXPECT_EQ(stats->refined, off.refined);
    EXPECT_EQ(stats->matched, off.matched);
  }
}

/// Exposes the engine's imputation step for a value-by-value comparison with
/// the linear oracle.
class ImputeProbe : public TerIdsEngine {
 public:
  using TerIdsEngine::TerIdsEngine;
  using TerIdsEngine::Impute;
};

TEST_F(EngineBehaviorTest, AbsorbWidensNeighborhoodRadius) {
  // Symptoms within 0.4 -> the same diagnosis: a neighbourhood radius of 0.
  CddRule rule;
  rule.dependent = 2;
  rule.det_mask = 1u << 1;
  rule.determinants = {{1, AttrConstraint::MakeInterval(0.0, 0.4)}};
  rule.dep_interval = Interval::Of(0.0, 0.0);
  rule.support = 1;
  ImputeProbe engine(world_.repo.get(), config_, 2, {rule});
  const Record probe =
      world_.Make(1, {"male", "loss of weight", "-", "drug therapy"});
  // Caches the near lists at the old radius.
  ASSERT_FALSE(
      engine.Impute(probe, ProbeCoords::Compute(probe, *world_.repo), nullptr)
          .empty());
  // "diabetes type two" is 2/3 from "diabetes": the absorb widens the rule's
  // dependent interval past the radius, but not to 1. The batch's second,
  // incomplete tuple is rejected; the first one's widening must still land.
  const std::vector<Record> batch = {
      world_.Make(2000, {"male", "loss of weight blurred vision",
                         "diabetes type two", "drug therapy"}),
      world_.Make(2001, {"male", "fever", "-", "rest"})};
  EXPECT_FALSE(engine.AbsorbRepositoryBatch(batch).ok());
  ASSERT_GT(engine.rules()[0].dep_interval.hi, 0.6);
  ASSERT_LT(engine.rules()[0].dep_interval.hi, 1.0);

  RuleImputerOptions opts;
  opts.max_candidates_per_attr = config_.max_candidates_per_attr;
  opts.use_coord_filter = false;
  RuleBasedImputer oracle(world_.repo.get(), engine.rules(), opts);
  const auto got =
      engine.Impute(probe, ProbeCoords::Compute(probe, *world_.repo), nullptr);
  const auto want = oracle.ImputeRecord(probe, nullptr);
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(want.size(), 1u);
  ASSERT_EQ(want[0].candidates.size(), 2u);  // diabetes and its new variant
  ASSERT_EQ(got[0].candidates.size(), want[0].candidates.size());
  for (size_t i = 0; i < want[0].candidates.size(); ++i) {
    EXPECT_EQ(got[0].candidates[i].vid, want[0].candidates[i].vid);
    EXPECT_EQ(got[0].candidates[i].prob, want[0].candidates[i].prob);
  }
}

TEST_F(EngineBehaviorTest, DisjointDeterminantsPassIntervalsUpToOne) {
  // Symptoms 0.5..1 apart and similar treatments -> the same diagnosis.
  // Token-disjoint symptoms (distance exactly 1.0) pass, identical ones
  // fail. The treatment bound keeps the absorbed tuples below from pairing
  // with any sample, so absorbing them widens nothing.
  CddRule rule;
  rule.dependent = 2;
  rule.det_mask = (1u << 1) | (1u << 3);
  rule.determinants = {{1, AttrConstraint::MakeInterval(0.5, 1.0)},
                       {3, AttrConstraint::MakeInterval(0.0, 0.6)}};
  rule.dep_interval = Interval::Of(0.0, 0.0);
  rule.support = 1;
  ImputeProbe engine(world_.repo.get(), config_, 2, {rule});
  const std::vector<Record> probes = {
      world_.Make(1, {"male", "loss of weight", "-", "insulin drug therapy"}),
      // A present but token-empty symptom: 1.0 from every sample except a
      // token-empty one, which is at 0.
      world_.Make(2, {"male", "", "-", "bed rest"})};
  ASSERT_TRUE(probes[1].values[1].tokens.empty());
  ASSERT_FALSE(probes[1].values[1].missing);
  auto expect_linear_candidates = [&]() {
    RuleImputerOptions opts;
    opts.max_candidates_per_attr = config_.max_candidates_per_attr;
    opts.use_coord_filter = false;
    RuleBasedImputer oracle(world_.repo.get(), engine.rules(), opts);
    for (const Record& probe : probes) {
      const auto got = engine.Impute(
          probe, ProbeCoords::Compute(probe, *world_.repo), nullptr);
      const auto want = oracle.ImputeRecord(probe, nullptr);
      ASSERT_EQ(got.size(), want.size()) << "rid " << probe.rid;
      for (size_t a = 0; a < want.size(); ++a) {
        ASSERT_EQ(got[a].candidates.size(), want[a].candidates.size());
        for (size_t i = 0; i < want[a].candidates.size(); ++i) {
          EXPECT_EQ(got[a].candidates[i].vid, want[a].candidates[i].vid);
          EXPECT_EQ(got[a].candidates[i].prob, want[a].candidates[i].prob);
        }
      }
    }
  };
  // The first probe's imputed diagnoses, as text.
  auto imputed = [&]() {
    std::vector<std::string> texts;
    const auto got = engine.Impute(
        probes[0], ProbeCoords::Compute(probes[0], *world_.repo), nullptr);
    for (const auto& attr : got) {
      for (const ImputedTuple::Candidate& c : attr.candidates) {
        texts.emplace_back(world_.repo->value_text(2, c.vid));
      }
    }
    return texts;
  };
  expect_linear_candidates();
  // Only "blurred vision" (disjoint from the probe) gets through.
  EXPECT_EQ(imputed(), std::vector<std::string>{"diabetes"});

  // The batch adds a symptom sharing the probe's tokens, 0.25 away (a table
  // that missed the new value would read 1.0 and pass its diagnosis), and a
  // token-empty symptom whose treatment only the second probe matches.
  const size_t support = engine.rules()[0].support;
  const std::vector<Record> batch = {
      world_.Make(2000, {"male", "loss of weight fatigue", "diabetes type two",
                         "insulin drug"}),
      world_.Make(2001, {"female", "", "migraine", "bed rest"})};
  ASSERT_TRUE(engine.AbsorbRepositoryBatch(batch).ok());
  ASSERT_EQ(engine.rules()[0].support, support);  // Nothing paired.
  expect_linear_candidates();
  EXPECT_EQ(imputed(), std::vector<std::string>{"diabetes"});
}

TEST_F(EngineBehaviorTest, NoRulesMeansUnimputedButStillRunning) {
  TerIdsEngine engine(world_.repo.get(), config_, 2, /*rules=*/{});
  Record incomplete = Post(1, 0, {"male", "loss of weight", "-", "-"});
  ArrivalOutcome outcome = engine.ProcessArrival(incomplete);
  EXPECT_TRUE(outcome.new_matches.empty());
  // The tuple is in the window as a single empty-attribute instance.
  EXPECT_EQ(engine.window(0).size(), 1u);
}

}  // namespace
}  // namespace terids
