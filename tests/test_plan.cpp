// Tests for the reusable YPlan contraction path and the kCooBinary
// search variant added by this reproduction.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/error.hpp"
#include "contraction/contract.hpp"
#include "contraction/plan.hpp"
#include "contraction/reference.hpp"
#include "tensor/generators.hpp"
#include "tensor/linearize.hpp"

namespace sparta {
namespace {

SparseTensor rand_t(std::vector<index_t> dims, std::size_t nnz,
                    std::uint64_t seed) {
  GeneratorSpec s;
  s.dims = std::move(dims);
  s.nnz = nnz;
  s.seed = seed;
  return generate_random(s);
}

TEST(YPlanTest, MatchesAdHocContraction) {
  const SparseTensor x = rand_t({12, 14, 16}, 400, 1);
  const SparseTensor y = rand_t({14, 16, 10}, 350, 2);
  const Modes cx{1, 2};
  const Modes cy{0, 1};

  const SparseTensor direct = contract_tensor(x, y, cx, cy, {});
  const YPlan plan(y, cy);
  const ContractResult via_plan = contract(x, plan, cx);
  EXPECT_TRUE(SparseTensor::approx_equal(direct, via_plan.z, 1e-9));
}

TEST(YPlanTest, ReusableAcrossManyX) {
  const SparseTensor y = rand_t({20, 15, 10}, 500, 3);
  const YPlan plan(y, {0});
  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    const SparseTensor x = rand_t({20, 8, 9}, 300, seed);
    const ContractResult r = contract(x, plan, {0});
    const SparseTensor ref = contract_reference(x, y, {0}, {0});
    EXPECT_TRUE(SparseTensor::approx_equal(r.z, ref, 1e-9)) << seed;
  }
}

TEST(YPlanTest, ExposesMetadata) {
  const SparseTensor y = rand_t({9, 8, 7}, 200, 4);
  const YPlan plan(y, {2, 0});
  EXPECT_EQ(plan.cy(), (Modes{2, 0}));
  EXPECT_EQ(plan.fy(), (Modes{1}));
  EXPECT_EQ(plan.contract_dims(), (std::vector<index_t>{7, 9}));
  EXPECT_EQ(plan.free_dims(), (std::vector<index_t>{8}));
  EXPECT_EQ(plan.nnz_y(), 200u);
  EXPECT_GT(plan.num_keys(), 0u);
  EXPECT_GE(plan.max_group(), 1u);
  EXPECT_GT(plan.hty_footprint_bytes(), 0u);
}

TEST(YPlanTest, NonLeadingContractModes) {
  // Plan over Y's modes {2,0}; X contracts its modes {0,2} against them.
  const SparseTensor x = rand_t({7, 11, 9}, 250, 5);
  const SparseTensor y = rand_t({9, 8, 7}, 220, 6);
  const YPlan plan(y, {2, 0});
  const ContractResult r = contract(x, plan, {0, 2});
  const SparseTensor ref = contract_reference(x, y, {0, 2}, {2, 0});
  EXPECT_TRUE(SparseTensor::approx_equal(r.z, ref, 1e-9));
}

TEST(YPlanTest, ValidatesXAgainstPlan) {
  const SparseTensor y = rand_t({9, 8}, 50, 7);
  const YPlan plan(y, {0});
  const SparseTensor wrong_size = rand_t({10, 5}, 20, 8);
  EXPECT_THROW((void)contract(wrong_size, plan, {0}), Error);
  const SparseTensor x = rand_t({9, 5}, 20, 9);
  EXPECT_THROW((void)contract(x, plan, {0, 1}), Error);  // arity
  EXPECT_THROW((void)contract(x, plan, {5}), Error);     // range
}

TEST(YPlanTest, RejectsBadPlanConstruction) {
  const SparseTensor y = rand_t({9, 8}, 50, 10);
  EXPECT_THROW(YPlan(y, {0, 0}), Error);
  EXPECT_THROW(YPlan(y, {2}), Error);
  EXPECT_THROW(YPlan(y, {}), Error);
}

TEST(YPlanTest, EmptyXGivesEmptyZ) {
  const SparseTensor y = rand_t({9, 8}, 50, 11);
  const YPlan plan(y, {0});
  const SparseTensor x(std::vector<index_t>{9, 4});
  const ContractResult r = contract(x, plan, {0});
  EXPECT_EQ(r.z.nnz(), 0u);
  EXPECT_EQ(r.z.dims(), (std::vector<index_t>{4, 8}));
}

TEST(YPlanTest, ProfileWorksThroughPlan) {
  const SparseTensor x = rand_t({15, 15, 10}, 300, 12);
  const SparseTensor y = rand_t({15, 15, 8}, 280, 13);
  const YPlan plan(y, {0, 1});
  ContractOptions o;
  o.collect_access_profile = true;
  const ContractResult r = contract(x, plan, {0, 1}, o);
  EXPECT_GT(r.profile.footprint(DataObject::kHtY), 0u);
  EXPECT_GT(r.profile.footprint(DataObject::kY), 0u);
  EXPECT_GT(r.profile.total_footprint(), 0u);
}


TEST(YPlanTest, BatchContractionsMatchIndividual) {
  const SparseTensor y = rand_t({15, 12, 10}, 400, 50);
  const YPlan plan(y, {0, 1});
  std::vector<SparseTensor> xs;
  std::vector<const SparseTensor*> ptrs;
  for (std::uint64_t seed = 60; seed < 64; ++seed) {
    xs.push_back(rand_t({15, 12, 8}, 300, seed));
  }
  for (const auto& x : xs) ptrs.push_back(&x);
  const auto batch = contract_batch(ptrs, plan, {0, 1});
  ASSERT_EQ(batch.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const ContractResult single = contract(xs[i], plan, {0, 1});
    EXPECT_TRUE(SparseTensor::approx_equal(batch[i].z, single.z, 1e-12));
  }
}

TEST(YPlanTest, BatchRejectsNull) {
  const SparseTensor y = rand_t({6, 5}, 10, 70);
  const YPlan plan(y, {0});
  std::vector<const SparseTensor*> ptrs{nullptr};
  EXPECT_THROW((void)contract_batch(ptrs, plan, {0}), Error);
}

// The HtY is built on one thread in Y's storage order, so each key's
// items come back in that order, and every stage after it is free of
// thread-count-dependent floating-point order: Z is bitwise identical
// at any thread count.
TEST(YPlanTest, DeterministicHtyAndThreadCountInvariantZ) {
  // Y appended in a scrambled (unsorted) order, so storage order is
  // neither key order nor free-key order.
  const SparseTensor sorted_y = rand_t({9, 8, 7}, 300, 80);
  SparseTensor y(sorted_y.dims());
  std::vector<index_t> c(3);
  for (std::size_t k = 0; k < sorted_y.nnz(); ++k) {
    const std::size_t n = (k * 7919) % sorted_y.nnz();  // 7919 is prime
    sorted_y.coords(n, c);
    y.append(c, sorted_y.value(n));
  }
  const Modes cy{2, 0};
  const YPlan plan(y, cy);

  const LinearIndexer clin(plan.contract_dims());
  const std::vector<int> fy(plan.fy().begin(), plan.fy().end());
  std::map<lnkey_t, std::vector<FreeItem>> expected;
  for (std::size_t n = 0; n < y.nnz(); ++n) {
    y.coords(n, c);
    expected[clin.linearize_gather(c, cy)].push_back(
        FreeItem{plan.fy_indexer().linearize_gather(c, fy), y.value(n)});
  }
  ASSERT_EQ(plan.num_keys(), expected.size());
  for (const auto& [key, items] : expected) {
    const auto found = plan.hty().find(key);
    ASSERT_EQ(found.size(), items.size()) << "key " << key;
    for (std::size_t i = 0; i < items.size(); ++i) {
      EXPECT_EQ(found[i].free_key, items[i].free_key) << "key " << key;
      EXPECT_EQ(found[i].val, items[i].val) << "key " << key;
    }
  }

  const SparseTensor x = rand_t({7, 11, 9}, 600, 81);
  for (Algorithm alg : {Algorithm::kSpa, Algorithm::kCooHta,
                        Algorithm::kSparta, Algorithm::kCooBinary}) {
    ContractOptions o;
    o.algorithm = alg;
    o.num_threads = 1;
    const SparseTensor z1 = contract_tensor(x, y, {0, 2}, cy, o);
    ASSERT_GT(z1.nnz(), 0u);
    for (int threads : {2, 4}) {
      o.num_threads = threads;
      const SparseTensor zt = contract_tensor(x, y, {0, 2}, cy, o);
      ASSERT_EQ(zt.nnz(), z1.nnz()) << algorithm_name(alg) << threads;
      for (std::size_t n = 0; n < z1.nnz(); ++n) {
        for (int m = 0; m < z1.order(); ++m) {
          ASSERT_EQ(zt.index(n, m), z1.index(n, m))
              << algorithm_name(alg) << " @" << threads << " threads";
        }
        ASSERT_EQ(zt.value(n), z1.value(n))  // bitwise, not approximate
            << algorithm_name(alg) << " @" << threads << " threads";
      }
    }
  }
}

// --- kCooBinary variant -------------------------------------------------

TEST(CooBinary, MatchesOtherAlgorithms) {
  PairedSpec ps;
  ps.x.dims = {30, 25, 20};
  ps.x.nnz = 1500;
  ps.y.dims = {30, 25, 15};
  ps.y.nnz = 1200;
  ps.num_contract_modes = 2;
  ps.match_fraction = 0.7;
  const TensorPair pair = generate_contraction_pair(ps);
  const Modes c{0, 1};

  ContractOptions bin;
  bin.algorithm = Algorithm::kCooBinary;
  ContractOptions sparta_o;
  sparta_o.algorithm = Algorithm::kSparta;
  const SparseTensor zb = contract_tensor(pair.x, pair.y, c, c, bin);
  const SparseTensor zs = contract_tensor(pair.x, pair.y, c, c, sparta_o);
  EXPECT_TRUE(SparseTensor::approx_equal(zb, zs, 1e-9));
}

TEST(CooBinary, HandlesMissesAndEdges) {
  SparseTensor x({4, 4});
  x.append(std::vector<index_t>{0, 0}, 1.0);  // below all Y keys
  x.append(std::vector<index_t>{0, 3}, 2.0);  // above all Y keys
  x.append(std::vector<index_t>{0, 2}, 3.0);  // exact hit
  SparseTensor y({4, 5});
  y.append(std::vector<index_t>{1, 0}, 1.0);
  y.append(std::vector<index_t>{2, 4}, 10.0);
  ContractOptions bin;
  bin.algorithm = Algorithm::kCooBinary;
  const SparseTensor z = contract_tensor(x, y, {1}, {0}, bin);
  const SparseTensor ref = contract_reference(x, y, {1}, {0});
  EXPECT_TRUE(SparseTensor::approx_equal(z, ref, 1e-9));
}

// --- shared-writeback ablation path ------------------------------------

TEST(SharedWriteback, ProducesIdenticalResults) {
  PairedSpec ps;
  ps.x.dims = {25, 20, 15};
  ps.x.nnz = 1000;
  ps.y.dims = {25, 20, 12};
  ps.y.nnz = 900;
  ps.num_contract_modes = 1;
  const TensorPair pair = generate_contraction_pair(ps);
  for (Algorithm alg : {Algorithm::kSpa, Algorithm::kCooHta,
                        Algorithm::kSparta, Algorithm::kCooBinary}) {
    ContractOptions normal;
    normal.algorithm = alg;
    normal.num_threads = 4;
    ContractOptions shared = normal;
    shared.ablation_shared_writeback = true;
    const SparseTensor a =
        contract_tensor(pair.x, pair.y, {0}, {0}, normal);
    const SparseTensor b =
        contract_tensor(pair.x, pair.y, {0}, {0}, shared);
    EXPECT_TRUE(SparseTensor::approx_equal(a, b, 1e-9))
        << algorithm_name(alg);
  }
}

}  // namespace
}  // namespace sparta
