// Robustness: the front end must never crash on malformed input — every
// failure surfaces as QueryError with a location, never UB or an uncaught
// internal error. We fuzz with (a) random token soup assembled from the
// language's own vocabulary and (b) random mutations of valid programs.
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "lang/sema.hpp"
#include "query_vocabulary.hpp"

namespace perfq::lang {
namespace {

class TokenSoupTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TokenSoupTest, NeverCrashesOnlyQueryErrors) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const std::string source = random_soup(rng, 1 + rng.below(40));
    try {
      const auto analyzed = analyze_source(source, {{"alpha", 0.5}});
      // Accidentally valid programs are fine; schemas must be materialized.
      EXPECT_FALSE(analyzed.queries.empty());
    } catch (const QueryError&) {
      // expected for almost every input
    }
    // Any other exception type escapes and fails the test.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenSoupTest,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(MutationFuzz, TruncationsOfValidProgramsFailCleanly) {
  const std::string valid = R"(
def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

R1 = SELECT 5tuple, ewma GROUPBY 5tuple WHERE proto == TCP
R2 = SELECT COUNT GROUPBY 5tuple WHERE tout == infinity
)";
  for (std::size_t cut = 1; cut < valid.size(); cut += 3) {
    const std::string truncated = valid.substr(0, cut);
    try {
      (void)analyze_source(truncated, {{"alpha", 0.5}});
    } catch (const QueryError&) {
    }
  }
  SUCCEED() << "no crash across " << valid.size() / 3 << " truncations";
}

TEST(MutationFuzz, SingleCharacterCorruptionsFailCleanly) {
  const std::string valid =
      "R1 = SELECT COUNT, SUM(pkt_len) GROUPBY srcip WHERE proto == TCP";
  const std::string garbage = "@#($%^&;~`?";
  Rng rng(42);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = valid;
    mutated[rng.below(mutated.size())] = garbage[rng.below(garbage.size())];
    try {
      (void)analyze_source(mutated);
    } catch (const QueryError&) {
    }
  }
  SUCCEED();
}

TEST(MutationFuzz, DeepNestingDoesNotOverflow) {
  // Bounded recursion check: deeply parenthesized expressions either parse
  // or fail cleanly (the parser recurses; 2k levels stays within stack).
  std::string deep = "SELECT srcip FROM T WHERE ";
  for (int i = 0; i < 2000; ++i) deep += "(";
  deep += "tout";
  for (int i = 0; i < 2000; ++i) deep += ")";
  deep += " > 1";
  try {
    (void)analyze_source(deep);
  } catch (const QueryError&) {
  }
  SUCCEED();
}

TEST(MutationFuzz, LongIdentifiersAndNumbers) {
  const std::string long_ident(10'000, 'a');
  EXPECT_THROW((void)analyze_source("SELECT " + long_ident + " FROM T"),
               QueryError);
  EXPECT_THROW((void)analyze_source("SELECT srcip FROM T WHERE tout > 1" +
                                    std::string(500, '0') + "ms"),
               QueryError);  // number overflows to inf or suffix misparse
}

}  // namespace
}  // namespace perfq::lang
