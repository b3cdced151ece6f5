#ifndef TERIDS_PERFBENCH_CHECKER_H_
#define TERIDS_PERFBENCH_CHECKER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "er/match_set.h"

namespace perfbench {

/// The pairs one arrival emitted, in emission order.
using Emitted = std::vector<terids::MatchPair>;

/// Checks an outcome stream for the stream properties of the TER-iDS
/// result set, independently of the engine: every pair spans the two
/// streams, has alpha < p <= 1, and has both members inside their sliding
/// windows when it is emitted; the final result set is the emitted pairs
/// minus those an eviction removed. The windows are the checker's own FIFO
/// windows of `window` tuples per stream. Runs outside any timed region.
class StreamChecker {
 public:
  StreamChecker(int window, double alpha);

  /// One arrival, in arrival order, with the pairs it emitted.
  void Arrive(int64_t rid, int stream, const Emitted& pairs);
  /// Compares the engine's final result set with the live emitted pairs.
  void Finish(const std::vector<terids::MatchPair>& final_results);

  const std::vector<std::string>& errors() const { return errors_; }

 private:
  void Fail(std::string message);

  int window_;
  double alpha_;
  std::unordered_map<int64_t, int> stream_of_;
  std::vector<std::deque<int64_t>> windows_;
  std::unordered_set<int64_t> windowed_;  // rids inside a window
  /// Emitted pairs whose members are both still windowed, keyed by rids.
  std::map<std::pair<int64_t, int64_t>, double> live_pairs_;
  std::vector<std::string> errors_;
};

/// Compares the first `prefix` arrivals' emitted rid pairs with a
/// reference pipeline's (TER-iDS against the unindexed, unpruned CDD+ER):
/// appends one message per dropped or extra pair to `errors`.
void CompareWithReference(const std::vector<Emitted>& got,
                          const std::vector<Emitted>& reference,
                          size_t prefix, std::vector<std::string>* errors);

/// Compares two emissions of the same arrivals exactly: rids and the
/// probability's bits (traced run against untraced run).
void CompareExactly(const std::vector<Emitted>& got,
                    const std::vector<Emitted>& expected,
                    std::vector<std::string>* errors);

/// Feeds the checker corrupted outcome streams and verifies each
/// corruption is flagged. Returns the failures (empty = pass).
std::vector<std::string> CheckerSelfTest();

}  // namespace perfbench

#endif  // TERIDS_PERFBENCH_CHECKER_H_
