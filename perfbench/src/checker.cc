#include "checker.h"

#include <algorithm>
#include <cstring>

namespace perfbench {

namespace {

std::string PairName(int64_t a, int64_t b) {
  return "(" + std::to_string(a) + "," + std::to_string(b) + ")";
}

std::vector<std::pair<int64_t, int64_t>> SortedRids(const Emitted& pairs) {
  std::vector<std::pair<int64_t, int64_t>> out;
  out.reserve(pairs.size());
  for (const terids::MatchPair& p : pairs) {
    out.emplace_back(std::min(p.rid_a, p.rid_b), std::max(p.rid_a, p.rid_b));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

StreamChecker::StreamChecker(int window, double alpha)
    : window_(window), alpha_(alpha), windows_(2) {}

void StreamChecker::Fail(std::string message) {
  // A corrupted stream can fail on every arrival; the first few say enough.
  if (errors_.size() < 20) {
    errors_.push_back(std::move(message));
  }
}

void StreamChecker::Arrive(int64_t rid, int stream, const Emitted& pairs) {
  if (stream < 0 || stream > 1) {
    Fail("arrival " + std::to_string(rid) + " on unknown stream");
    return;
  }
  stream_of_[rid] = stream;
  std::deque<int64_t>& win = windows_[stream];
  win.push_back(rid);
  windowed_.insert(rid);
  if (static_cast<int>(win.size()) > window_) {
    const int64_t evicted = win.front();
    win.pop_front();
    windowed_.erase(evicted);
    for (auto it = live_pairs_.begin(); it != live_pairs_.end();) {
      if (it->first.first == evicted || it->first.second == evicted) {
        it = live_pairs_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const terids::MatchPair& p : pairs) {
    const std::string name = PairName(p.rid_a, p.rid_b);
    if (p.rid_a != rid && p.rid_b != rid) {
      Fail("pair " + name + " does not involve its arrival " +
           std::to_string(rid));
    }
    const auto sa = stream_of_.find(p.rid_a);
    const auto sb = stream_of_.find(p.rid_b);
    if (sa == stream_of_.end() || sb == stream_of_.end()) {
      Fail("pair " + name + " names a tuple that never arrived");
      continue;
    }
    if (sa->second == sb->second) {
      Fail("pair " + name + " lies within one stream");
    }
    if (!(p.probability > alpha_) || !(p.probability <= 1.0 + 1e-9)) {
      Fail("pair " + name + " has p=" + std::to_string(p.probability) +
           " outside (alpha, 1]");
    }
    if (windowed_.count(p.rid_a) == 0 || windowed_.count(p.rid_b) == 0) {
      Fail("pair " + name + " emitted after a member left its window");
      continue;
    }
    live_pairs_[{std::min(p.rid_a, p.rid_b), std::max(p.rid_a, p.rid_b)}] =
        p.probability;
  }
}

void StreamChecker::Finish(const std::vector<terids::MatchPair>& final_results) {
  std::map<std::pair<int64_t, int64_t>, double> engine;
  for (const terids::MatchPair& p : final_results) {
    engine[{std::min(p.rid_a, p.rid_b), std::max(p.rid_a, p.rid_b)}] =
        p.probability;
  }
  for (const auto& [key, prob] : live_pairs_) {
    const auto it = engine.find(key);
    if (it == engine.end()) {
      Fail("live pair " + PairName(key.first, key.second) +
           " missing from the final result set");
    } else if (std::memcmp(&it->second, &prob, sizeof(double)) != 0) {
      Fail("final result set changed the probability of " +
           PairName(key.first, key.second));
    }
  }
  for (const auto& [key, prob] : engine) {
    (void)prob;
    if (live_pairs_.count(key) == 0) {
      Fail("final result set holds " + PairName(key.first, key.second) +
           ", which was never emitted or was evicted");
    }
  }
}

void CompareWithReference(const std::vector<Emitted>& got,
                          const std::vector<Emitted>& reference,
                          size_t prefix, std::vector<std::string>* errors) {
  if (got.size() < prefix || reference.size() < prefix) {
    errors->push_back("reference comparison is missing arrivals");
    return;
  }
  for (size_t i = 0; i < prefix && errors->size() < 20; ++i) {
    const auto a = SortedRids(got[i]);
    const auto b = SortedRids(reference[i]);
    for (const auto& p : b) {
      if (!std::binary_search(a.begin(), a.end(), p)) {
        errors->push_back("arrival " + std::to_string(i) + " dropped pair " +
                          PairName(p.first, p.second));
      }
    }
    for (const auto& p : a) {
      if (!std::binary_search(b.begin(), b.end(), p)) {
        errors->push_back("arrival " + std::to_string(i) +
                          " emitted extra pair " +
                          PairName(p.first, p.second));
      }
    }
  }
}

void CompareExactly(const std::vector<Emitted>& got,
                    const std::vector<Emitted>& expected,
                    std::vector<std::string>* errors) {
  if (got.size() != expected.size()) {
    errors->push_back("traced run saw " + std::to_string(got.size()) +
                      " arrivals, untraced " +
                      std::to_string(expected.size()));
    return;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    bool same = got[i].size() == expected[i].size();
    for (size_t k = 0; same && k < got[i].size(); ++k) {
      const terids::MatchPair& a = got[i][k];
      const terids::MatchPair& b = expected[i][k];
      same = a.rid_a == b.rid_a && a.rid_b == b.rid_b &&
             std::memcmp(&a.probability, &b.probability, sizeof(double)) ==
                 0;
    }
    if (!same) {
      errors->push_back("traced run diverged from the untraced run at arrival " +
                        std::to_string(i));
      return;
    }
  }
}

}  // namespace perfbench
