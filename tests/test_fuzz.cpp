// Tests for the differential fuzz harness itself: deterministic case
// drawing, corner coverage, clean differential runs, failure plumbing,
// and ddmin minimization.
#include <gtest/gtest.h>

#include "fuzz/differential.hpp"
#include "fuzz/fuzz_case.hpp"
#include "fuzz/minimize.hpp"

namespace sparta::fuzz {
namespace {

TEST(FuzzCase, DrawIsDeterministic) {
  for (std::uint64_t seed : {0ULL, 7ULL, 123ULL, 99999ULL}) {
    const FuzzCase a = draw_case(seed);
    const FuzzCase b = draw_case(seed);
    EXPECT_EQ(dump_case(a), dump_case(b)) << "seed " << seed;
    EXPECT_TRUE(SparseTensor::approx_equal(a.x, b.x, 0.0));
    EXPECT_TRUE(SparseTensor::approx_equal(a.y, b.y, 0.0));
    EXPECT_EQ(a.cx, b.cx);
    EXPECT_EQ(a.cy, b.cy);
  }
}

TEST(FuzzCase, DrawsCoverTheCorners) {
  bool saw_empty_free_x = false;
  bool saw_empty_free_y = false;
  bool saw_duplicates = false;
  bool saw_empty_operand = false;
  bool saw_hypersparse = false;
  bool saw_order_5 = false;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const FuzzCase c = draw_case(seed);
    saw_empty_free_x |= c.cx.size() == static_cast<std::size_t>(c.x.order());
    saw_empty_free_y |= c.cy.size() == static_cast<std::size_t>(c.y.order());
    saw_duplicates |= c.has_duplicates;
    saw_empty_operand |= c.x.empty() || c.y.empty();
    saw_hypersparse |= c.regime == Regime::kHypersparse;
    saw_order_5 |= c.x.order() == 5 || c.y.order() == 5;
    // Structural validity of every drawn case.
    ASSERT_EQ(c.cx.size(), c.cy.size());
    ASSERT_FALSE(c.cx.empty());
    ASSERT_TRUE(c.cx.size() < static_cast<std::size_t>(c.x.order()) ||
                c.cy.size() < static_cast<std::size_t>(c.y.order()));
    for (std::size_t i = 0; i < c.cx.size(); ++i) {
      ASSERT_EQ(c.x.dim(c.cx[i]), c.y.dim(c.cy[i]));
    }
  }
  EXPECT_TRUE(saw_empty_free_x);
  EXPECT_TRUE(saw_empty_free_y);
  EXPECT_TRUE(saw_duplicates);
  EXPECT_TRUE(saw_empty_operand);
  EXPECT_TRUE(saw_hypersparse);
  EXPECT_TRUE(saw_order_5);
}

TEST(Differential, CleanOnHealthySeeds) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const FuzzCase c = draw_case(seed);
    const DiffReport rep = run_differential(c);
    EXPECT_TRUE(rep.ok()) << c.label() << ": "
                          << (rep.findings.empty()
                                  ? ""
                                  : rep.findings.front().what);
    EXPECT_GE(rep.variants_run, 7);  // pipelines + plan/CSF + determinism
  }
}

TEST(Differential, ImpossibleToleranceProducesFindings) {
  // A negative tolerance fails every comparison; this exercises the
  // failure-reporting plumbing end to end without a real bug.
  const FuzzCase c = draw_case(3);
  DiffOptions o;
  o.tolerance = -1.0;
  const DiffReport rep = run_differential(c, o);
  EXPECT_FALSE(rep.ok());
  EXPECT_GE(rep.findings.size(), 4u);
}

TEST(Minimize, ShrinksToThePredicateBoundary) {
  // Failure = "X and Y each still have at least one non-zero": minimal
  // failing case under nnz-dropping is exactly one non-zero each.
  FuzzCase c;
  std::uint64_t seed = 0;
  do {
    c = draw_case(seed++);
  } while (c.x.nnz() < 2 || c.y.nnz() < 2);
  MinimizeStats st;
  const FuzzCase tiny = minimize(
      c,
      [](const FuzzCase& cand) {
        return cand.x.nnz() >= 1 && cand.y.nnz() >= 1;
      },
      &st);
  EXPECT_EQ(tiny.x.nnz(), 1u);
  EXPECT_EQ(tiny.y.nnz(), 1u);
  EXPECT_GT(st.predicate_calls, 0);
}

TEST(Minimize, DropsFreeModes) {
  // Failure independent of a free mode: the minimizer should project the
  // operands down to lower order.
  FuzzCase c;
  c.x = SparseTensor({3, 4, 5});
  c.x.append(std::vector<index_t>{1, 2, 3}, 1.0);
  c.y = SparseTensor({4, 6});
  c.y.append(std::vector<index_t>{2, 5}, 2.0);
  c.cx = {1};
  c.cy = {0};
  const FuzzCase tiny = minimize(c, [](const FuzzCase& cand) {
    return !cand.x.empty() && !cand.y.empty();
  });
  // X sheds its trailing free mode first; Y then sheds its free mode
  // (legal while X still has one); X's last free mode must stay so the
  // contraction keeps one free mode overall.
  EXPECT_EQ(tiny.x.order(), 2);
  EXPECT_EQ(tiny.y.order(), 1);
  EXPECT_EQ(tiny.cx, Modes{1});
  EXPECT_EQ(tiny.cy, Modes{0});
}

TEST(Minimize, MinimizedCaseStillRunsDifferentially) {
  const FuzzCase c = draw_case(8);
  const FuzzCase tiny = minimize(c, [](const FuzzCase& cand) {
    return cand.x.nnz() >= 2 || cand.y.nnz() >= 2;
  });
  EXPECT_TRUE(run_differential(tiny).ok());
}

}  // namespace
}  // namespace sparta::fuzz
