// Unit tests for the SPA baseline (SpaAccumulator, Algorithm 1). The
// swiss HtY/HtA have their own suite in test_swiss_table.cpp.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "hashtable/spa.hpp"

namespace sparta {
namespace {

// --- SpaAccumulator ----------------------------------------------------

TEST(SpaAccumulator, AccumulatesByTuple) {
  SpaAccumulator spa(2);
  spa.accumulate(std::vector<index_t>{0, 3}, 1.0);
  spa.accumulate(std::vector<index_t>{0, 3}, 2.0);
  spa.accumulate(std::vector<index_t>{1, 0}, 5.0);
  ASSERT_EQ(spa.size(), 2u);
  EXPECT_DOUBLE_EQ(spa.value(0), 3.0);
  EXPECT_EQ(spa.key(0)[1], 3u);
  EXPECT_DOUBLE_EQ(spa.value(1), 5.0);
}

TEST(SpaAccumulator, DistinguishesTuplesSharingPrefix) {
  SpaAccumulator spa(3);
  spa.accumulate(std::vector<index_t>{1, 2, 3}, 1.0);
  spa.accumulate(std::vector<index_t>{1, 2, 4}, 2.0);
  EXPECT_EQ(spa.size(), 2u);
}

TEST(SpaAccumulator, MatchesMapOracle) {
  Rng rng(3);
  SpaAccumulator spa(2);
  std::map<std::pair<index_t, index_t>, value_t> oracle;
  std::vector<index_t> key(2);
  for (int i = 0; i < 2000; ++i) {
    key[0] = static_cast<index_t>(rng.uniform(20));
    key[1] = static_cast<index_t>(rng.uniform(20));
    const value_t v = rng.uniform_double(-1.0, 1.0);
    spa.accumulate(key, v);
    oracle[{key[0], key[1]}] += v;
  }
  ASSERT_EQ(spa.size(), oracle.size());
  for (std::size_t i = 0; i < spa.size(); ++i) {
    const auto k = std::make_pair(spa.key(i)[0], spa.key(i)[1]);
    EXPECT_NEAR(spa.value(i), oracle[k], 1e-9);
  }
}

TEST(SpaAccumulator, ZeroArityActsAsScalar) {
  // |F_Y| = 0: every accumulate targets the single empty-tuple slot.
  SpaAccumulator spa(0);
  spa.accumulate({}, 1.0);
  spa.accumulate({}, 2.0);
  EXPECT_EQ(spa.size(), 1u);
  EXPECT_DOUBLE_EQ(spa.value(0), 3.0);
}

}  // namespace
}  // namespace sparta
