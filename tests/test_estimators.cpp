// Tests for the Eq. 5/6 placement-time size estimators against measured
// footprints from real contractions.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "contraction/contract.hpp"
#include "contraction/estimators.hpp"
#include "contraction/plan.hpp"
#include "tensor/generators.hpp"

namespace sparta {
namespace {

ContractResult run_case(int contract_modes, std::size_t nnz,
                        std::uint64_t seed) {
  PairedSpec ps;
  ps.x.dims = {50, 40, 30, 20};
  ps.x.nnz = nnz;
  ps.x.seed = seed;
  ps.y.dims = {50, 40, 25, 15};
  ps.y.nnz = nnz;
  ps.y.seed = seed + 1;
  ps.num_contract_modes = contract_modes;
  ps.match_fraction = 0.8;
  const TensorPair pair = generate_contraction_pair(ps);
  Modes c;
  for (int m = 0; m < contract_modes; ++m) c.push_back(m);
  ContractOptions o;
  o.algorithm = Algorithm::kSparta;
  o.num_threads = 1;  // stats.hta_bytes is then the per-thread HtA
  return contract(pair.x, pair.y, c, c, o);
}

TEST(Estimators, Eq5TracksMeasuredHtyFootprint) {
  for (int m : {1, 2}) {
    const ContractResult r = run_case(m, 4000, 17);
    // Contract modes are the leading ones of Y's {50, 40, ...}.
    const std::size_t est =
        estimate_hty_bytes(r.stats.nnz_y, m == 1 ? 50u : 50u * 40u);
    // Eq. 5 models the steady-state layout; vector growth slack means the
    // measured value can exceed it, but both must be the same scale.
    EXPECT_GT(est, r.stats.hty_bytes / 4) << m << "-mode";
    EXPECT_LT(est, r.stats.hty_bytes * 4) << m << "-mode";
  }
}

TEST(Estimators, Eq6IsAnUpperBoundOnHta) {
  for (int m : {1, 2}) {
    const ContractResult r = run_case(m, 3000, 23);
    const std::size_t bound =
        estimate_hta_bytes(r.stats.max_x_subtensor, r.stats.max_y_group);
    // The paper: Eq. 6 gives an upper bound on one thread's HtA.
    const std::size_t per_thread = r.stats.hta_bytes;  // 1 thread here
    EXPECT_GE(bound, per_thread)
        << m << "-mode: the table outgrew its bound";
  }
}

TEST(Estimators, Eq6GrowsWithItsInputs) {
  // Slot counts are powers of two, so doubling a factor past the 7/8
  // load point of the current table must double the bound.
  const std::size_t base = estimate_hta_bytes(10, 10);
  EXPECT_GT(estimate_hta_bytes(20, 10), base);
  EXPECT_GT(estimate_hta_bytes(10, 20), base);
  EXPECT_GE(estimate_hta_bytes(10, 11), base);
}

TEST(Estimators, ZlocalBoundCoversMeasured) {
  const ContractResult r = run_case(2, 3000, 31);
  const std::size_t est =
      estimate_zlocal_bytes(r.stats.nnz_z, /*num_free_x=*/2,
                            /*num_free_y=*/2);
  // Measured Z_local includes vector capacity slack; the estimate models
  // exactly the payload, so require same order of magnitude.
  EXPECT_GT(est * 4, r.stats.zlocal_bytes);
  EXPECT_LT(est / 8, r.stats.zlocal_bytes);
}

TEST(Estimators, Eq5ExactFormula) {
  // #Slots*(ctrl + slot) + nnz*item. 50 keys need 4 groups of 16 (64
  // slots, 56 at 7/8 load): 64*(1 + 32) + 50*16.
  constexpr std::size_t kUnbounded = ~std::size_t{0};
  EXPECT_EQ(estimate_hty_bytes(50, kUnbounded), 64u * 33u + 50u * 16u);
  // 10,000 keys: 1024 groups (16384 slots, 14336 at 7/8 load).
  EXPECT_EQ(estimate_hty_bytes(10'000, kUnbounded),
            16384u * 33u + 10'000u * 16u);
  // A key space smaller than nnz bounds the slots, not the items.
  EXPECT_EQ(estimate_hty_bytes(10'000, 50), 64u * 33u + 10'000u * 16u);
}

TEST(Estimators, HtyKeySpaceIsContractModeProduct) {
  const std::vector<index_t> dims = {50, 40, 25};
  EXPECT_EQ(hty_key_space(dims, {0}), 50u);
  EXPECT_EQ(hty_key_space(dims, {2, 0}), 1250u);
  // Saturates rather than wrapping.
  const std::vector<index_t> huge(4, 1u << 30);
  EXPECT_EQ(hty_key_space(huge, {0, 1, 2, 3}), ~std::size_t{0});
}

TEST(Estimators, YPlanSizesHtyForEq5Keys) {
  // 1-mode: 4000 non-zeros share at most 50 keys, so HtY gets the
  // 50-key table Eq. 5 counts, not a 4000-key one.
  PairedSpec ps;
  ps.x.dims = {50, 40, 30, 20};
  ps.x.nnz = 4000;
  ps.y.dims = {50, 40, 25, 15};
  ps.y.nnz = 4000;
  ps.y.seed = 5;
  ps.num_contract_modes = 1;
  const TensorPair pair = generate_contraction_pair(ps);
  const YPlan plan(pair.y, {0});
  EXPECT_EQ(plan.hty().num_slots(),
            simd::swiss_slots_for(std::min<std::size_t>(plan.nnz_y(), 50)));
  EXPECT_LE(plan.num_keys(), 50u);
}

TEST(Estimators, Eq6ExactFormula) {
  // #Slots*(ctrl + slot) for fmax_x*fmax_y = 200 keys: 16 groups of 16
  // (256 slots, 224 at 7/8 load): 256*(1 + 16).
  EXPECT_EQ(estimate_hta_bytes(10, 20), 256u * 17u);
  // The 2-group minimum table holds 28 keys.
  EXPECT_EQ(estimate_hta_bytes(4, 7), 32u * 17u);
  EXPECT_EQ(estimate_hta_bytes(29, 1), 64u * 17u);
}

}  // namespace
}  // namespace sparta
