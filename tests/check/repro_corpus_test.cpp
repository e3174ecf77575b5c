// Replays every checked-in repro token (tests/check/repro/tokens.jsonl)
// and asserts each still fails with the recorded divergence rule, or,
// for a token without one (a bug since fixed), that it replays clean.
// The corpus is how a failure found by a long exploration sweep becomes
// a permanent, named regression test: the explorer emits the minimized
// token, a human appends it here, CI replays it forever.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "check/explorer.hpp"

#ifndef RELYNX_REPRO_CORPUS
#error "build must define RELYNX_REPRO_CORPUS (path to tokens.jsonl)"
#endif

namespace check {
namespace {

struct Entry {
  std::string token;
  std::string rule;
  int line = 0;
};

std::string rule_field(const std::string& line) {
  const std::string needle = "\"rule\":\"";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return "";
  const std::size_t start = pos + needle.size();
  const std::size_t end = line.find('"', start);
  if (end == std::string::npos) return "";
  return line.substr(start, end - start);
}

std::vector<Entry> load_corpus() {
  std::ifstream in(RELYNX_REPRO_CORPUS);
  EXPECT_TRUE(in.good()) << "missing corpus: " << RELYNX_REPRO_CORPUS;
  std::vector<Entry> out;
  std::string line;
  int n = 0;
  while (std::getline(in, line)) {
    ++n;
    if (line.empty() || line[0] == '#') continue;
    out.push_back({line, rule_field(line), n});
  }
  return out;
}

TEST(ReproCorpus, EveryTokenStillFailsForItsRecordedReason) {
  const std::vector<Entry> corpus = load_corpus();
  ASSERT_FALSE(corpus.empty());
  for (const Entry& e : corpus) {
    SCOPED_TRACE("tokens.jsonl:" + std::to_string(e.line));
    const auto cfg = parse_token(e.token);
    ASSERT_TRUE(cfg.has_value()) << e.token;
    const RunVerdict v = run_one(*cfg);
    if (e.rule.empty()) {  // a fixed bug: the universe must stay clean
      EXPECT_TRUE(v.ok) << v.failure;
      continue;
    }
    EXPECT_FALSE(v.ok) << "token no longer reproduces: " << e.token;
    ASSERT_TRUE(v.divergence.has_value()) << v.failure;
    EXPECT_EQ(v.divergence->rule, e.rule) << v.failure;
  }
}

TEST(ReproCorpus, FirstErrorSurfaceTokenReportsItsFullText) {
  // The whole divergence report, pinned: rule, exact times (integer
  // nanoseconds, printed as microseconds), detail and causal context.
  // The model keeps its context unrendered and builds this text only
  // when it reports a divergence; the text must not change for it.
  const std::vector<Entry> corpus = load_corpus();
  const auto first = std::find_if(
      corpus.begin(), corpus.end(),
      [](const Entry& e) { return e.rule == "error-surface"; });
  ASSERT_NE(first, corpus.end());
  const auto cfg = parse_token(first->token);
  ASSERT_TRUE(cfg.has_value()) << first->token;
  const RunVerdict v = run_one(*cfg);
  EXPECT_EQ(v.failure,
            "divergence [error-surface] at 7607299.200us seq=193 trace=0: "
            "rpc failed with disallowed error kind 'link-destroyed'\n"
            "  causal context (trace 0):\n"
            "    [7606762.450us] seq=186 node=1 instant link.dead\n"
            "    [7607299.200us] seq=193 node=1 instant rpc.error");
}

TEST(ReproCorpus, TokensAreMinimized) {
  // Corpus discipline: permuted-tie tokens carry an explicit shrunk
  // horizon (a full-horizon token means nobody ran the shrinker).
  for (const Entry& e : load_corpus()) {
    const auto cfg = parse_token(e.token);
    ASSERT_TRUE(cfg.has_value()) << e.token;
    if (cfg->tie != sim::TieBreak::kFifo) {
      EXPECT_NE(cfg->horizon, sim::TiePolicy::kNoHorizon) << e.token;
    }
  }
}

}  // namespace
}  // namespace check
