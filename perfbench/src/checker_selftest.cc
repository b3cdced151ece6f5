// The checker's own test: a clean synthetic outcome stream must pass, and
// each corrupted copy of it must be flagged. Run with --self-test; every
// benchmark run also runs it before measuring, so a checker that stopped
// catching faults can never report a run correct.

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "checker.h"

namespace perfbench {

namespace {

constexpr int kWindow = 2;
constexpr double kAlpha = 0.5;

struct Arrival {
  int64_t rid;
  int stream;
  Emitted pairs;
};

terids::MatchPair Pair(int64_t a, int64_t b, double p) {
  terids::MatchPair pair;
  pair.rid_a = std::min(a, b);
  pair.rid_b = std::max(a, b);
  pair.probability = p;
  return pair;
}

// Stream 0 carries even rids, stream 1 odd ones; windows hold two tuples.
// Arrival 4 evicts rid 0, arrival 5 evicts rid 1 (and with it pair 0-1).
std::vector<Arrival> CleanStream() {
  return {
      {0, 0, {}},
      {1, 1, {Pair(0, 1, 0.9)}},
      {2, 0, {Pair(2, 1, 0.7)}},
      {3, 1, {Pair(3, 0, 0.6), Pair(3, 2, 0.8)}},
      {4, 0, {Pair(4, 3, 0.75)}},
      {5, 1, {}},
  };
}

// Final result set of the clean stream: pair 0-1 and 0-3 left with rid 0,
// pair 2-1 with rid 1.
std::vector<terids::MatchPair> CleanFinal() {
  return {Pair(3, 2, 0.8), Pair(4, 3, 0.75)};
}

// `with_reference` adds the comparison against the clean stream, which is
// what catches dropped and extra pairs; the stream properties are checked
// without it, so each of them must be caught by the StreamChecker alone.
std::vector<std::string> Check(const std::vector<Arrival>& stream,
                               const std::vector<terids::MatchPair>& final,
                               bool with_reference) {
  StreamChecker checker(kWindow, kAlpha);
  std::vector<Emitted> got;
  for (const Arrival& a : stream) {
    checker.Arrive(a.rid, a.stream, a.pairs);
    got.push_back(a.pairs);
  }
  checker.Finish(final);
  std::vector<std::string> errors = checker.errors();
  if (!with_reference) {
    return errors;
  }
  std::vector<Emitted> reference;
  for (const Arrival& a : CleanStream()) {
    reference.push_back(a.pairs);
  }
  CompareWithReference(got, reference, reference.size(), &errors);
  return errors;
}

}  // namespace

std::vector<std::string> CheckerSelfTest() {
  std::vector<std::string> failures;
  const std::vector<std::string> clean =
      Check(CleanStream(), CleanFinal(), /*with_reference=*/true);
  if (!clean.empty()) {
    failures.push_back("clean stream flagged: " + clean.front());
  }
  struct Corruption {
    const char* name;
    bool with_reference;
    std::function<void(std::vector<Arrival>*)> apply;
  };
  const std::vector<Corruption> corruptions = {
      {"dropped pair", true,
       [](std::vector<Arrival>* s) { (*s)[3].pairs.pop_back(); }},
      {"extra pair", true,
       [](std::vector<Arrival>* s) {
         (*s)[5].pairs.push_back(Pair(5, 2, 0.9));
       }},
      {"same-stream pair", false,
       [](std::vector<Arrival>* s) {
         (*s)[4].pairs.push_back(Pair(4, 2, 0.9));
       }},
      {"pair with p <= alpha", false,
       [](std::vector<Arrival>* s) { (*s)[1].pairs[0].probability = kAlpha; }},
      {"pair after a member left its window", false,
       [](std::vector<Arrival>* s) {
         (*s)[5].pairs.push_back(Pair(5, 0, 0.9));
       }},
  };
  for (const Corruption& c : corruptions) {
    std::vector<Arrival> stream = CleanStream();
    c.apply(&stream);
    if (Check(stream, CleanFinal(), c.with_reference).empty()) {
      failures.push_back(std::string("checker missed a ") + c.name);
    }
  }
  std::vector<terids::MatchPair> stale = CleanFinal();
  stale.push_back(Pair(0, 1, 0.9));
  if (Check(CleanStream(), stale, /*with_reference=*/false).empty()) {
    failures.push_back("checker missed an evicted pair in the final set");
  }
  return failures;
}

}  // namespace perfbench
