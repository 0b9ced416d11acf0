// Unit tests for the swiss-table HtY/HtA (simd/swiss_table.hpp):
// std::map oracles, collisions, full-group wraparound, growth, key 0,
// multi-threaded Sparta parity, and the AllocationRegistry budget charge
// when contraction runs on the tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "contraction/contract.hpp"
#include "contraction/reference.hpp"
#include "simd/swiss_table.hpp"
#include "tensor/generators.hpp"

namespace sparta {
namespace {

// --- group_match primitives ----------------------------------------

TEST(SwissGroup, MatchMaskAgreesAcrossTiers) {
  std::uint8_t ctrl[simd::kGroupWidth];
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    for (auto& c : ctrl) {
      const std::uint64_t r = rng() % 4;
      c = r == 0 ? simd::kCtrlEmpty
                 : static_cast<std::uint8_t>(rng() & 0x7f);
    }
    const auto tag = static_cast<std::uint8_t>(rng() & 0x7f);
    const auto native = simd::detect_native_isa();
    EXPECT_EQ(simd::detail::group_match(ctrl, tag, simd::SimdIsa::kScalar),
              simd::detail::group_match(ctrl, tag, native));
    EXPECT_EQ(
        simd::detail::group_match_empty(ctrl, simd::SimdIsa::kScalar),
        simd::detail::group_match_empty(ctrl, native));
  }
}

TEST(SwissGroup, MaskBitsIdentifySlots) {
  std::uint8_t ctrl[simd::kGroupWidth];
  std::fill(std::begin(ctrl), std::end(ctrl), simd::kCtrlEmpty);
  ctrl[3] = 0x42;
  ctrl[9] = 0x42;
  ctrl[15] = 0x42;
  const std::uint32_t m =
      simd::detail::group_match(ctrl, 0x42, simd::detect_native_isa());
  EXPECT_EQ(m, (1u << 3) | (1u << 9) | (1u << 15));
}

// --- SwissYMap ------------------------------------------------------

TEST(SwissGroup, SlotCountCoversRequestAtSevenEighthsLoad) {
  EXPECT_EQ(simd::swiss_slots_for(0), 32u);   // the 2-group minimum
  EXPECT_EQ(simd::swiss_slots_for(28), 32u);  // 7/8 of 32
  EXPECT_EQ(simd::swiss_slots_for(29), 64u);
  EXPECT_EQ(simd::swiss_slots_for(1u << 20), std::size_t{1} << 21);
}

TEST(SwissGroup, SequentialKeysSpreadAcrossGroups) {
  // LN keys are often consecutive integers; the multiplicative hash
  // must not pile them into one group.
  constexpr int kBits = 8;
  std::vector<int> counts(1 << kBits, 0);
  for (lnkey_t k = 0; k < 4096; ++k) {
    ++counts[simd::detail::swiss_h1(k, kBits)];
  }
  const int max_load = *std::max_element(counts.begin(), counts.end());
  EXPECT_LT(max_load, 64);  // 16 expected; allow generous slack
}

// --- SwissYMap ------------------------------------------------------

TEST(SwissYMap, MatchesMapOracle) {
  Rng rng(3);
  simd::SwissYMap t(256);
  std::map<lnkey_t, std::vector<FreeItem>> oracle;
  for (int i = 0; i < 2000; ++i) {
    const lnkey_t key = rng() % 500;  // plenty of multi-item groups
    const FreeItem item{rng() % 97, static_cast<value_t>(i)};
    t.insert(key, item);
    oracle[key].push_back(item);
  }
  std::size_t max_group = 0;
  for (const auto& [key, items] : oracle) {
    max_group = std::max(max_group, items.size());
  }
  EXPECT_EQ(t.num_keys(), oracle.size());
  EXPECT_EQ(t.num_items(), 2000u);
  EXPECT_EQ(t.max_group_size(), max_group);
  for (lnkey_t key = 0; key < 600; ++key) {
    const auto found = t.find(key);
    const auto it = oracle.find(key);
    if (it == oracle.end()) {
      EXPECT_TRUE(found.empty()) << "key " << key;
      continue;
    }
    ASSERT_EQ(found.size(), it->second.size()) << "key " << key;
    for (std::size_t i = 0; i < found.size(); ++i) {
      // Per-key insertion order is preserved.
      EXPECT_EQ(found[i].free_key, it->second[i].free_key);
      EXPECT_EQ(found[i].val, it->second[i].val);
    }
  }
}

TEST(SwissYMap, MissReturnsEmptySpan) {
  simd::SwissYMap t(16);
  t.insert(42, FreeItem{1, 1.0});
  EXPECT_TRUE(t.find(41).empty());
  EXPECT_TRUE(t.find(43).empty());
  EXPECT_EQ(t.find(42).size(), 1u);
}

TEST(SwissYMap, FullGroupWrapsToNextGroup) {
  // The smallest table has 2 groups of 16; packing in enough distinct
  // keys forces probes past full groups (including the wrap from the
  // last group back to group 0) before growth kicks in at 7/8 load.
  simd::SwissYMap t(1);
  ASSERT_EQ(t.num_slots(), 32u);
  for (lnkey_t k = 0; k < 28; ++k) {
    t.insert(k * 1000003, FreeItem{k, static_cast<value_t>(k)});
  }
  EXPECT_EQ(t.num_keys(), 28u);
  for (lnkey_t k = 0; k < 28; ++k) {
    const auto items = t.find(k * 1000003);
    ASSERT_EQ(items.size(), 1u) << "key index " << k;
    EXPECT_EQ(items[0].free_key, k);
  }
}

TEST(SwissYMap, GrowthPreservesEveryGroup) {
  simd::SwissYMap t(4);  // deliberately undersized: forces rehashes
  const std::size_t initial_slots = t.num_slots();
  std::map<lnkey_t, std::size_t> expected;
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    const lnkey_t key = rng() % 1500;
    t.insert(key, FreeItem{key, 1.0});
    ++expected[key];
  }
  EXPECT_GT(t.num_slots(), initial_slots);
  EXPECT_EQ(t.num_keys(), expected.size());
  std::map<lnkey_t, std::size_t> seen;
  t.for_each_group([&](lnkey_t key, std::span<const FreeItem> items) {
    seen[key] = items.size();
  });
  EXPECT_EQ(seen, expected);
}

TEST(SwissYMap, FootprintCoversSlotsAndItems) {
  simd::SwissYMap t(64);
  const std::size_t empty_footprint = t.footprint_bytes();
  EXPECT_GT(empty_footprint, 0u);
  for (lnkey_t k = 0; k < 64; ++k) t.insert(k, FreeItem{k, 1.0});
  EXPECT_GT(t.footprint_bytes(), empty_footprint);
}

// --- SwissAccumulator -----------------------------------------------

TEST(SwissAccumulator, AccumulatesDuplicateKeys) {
  simd::SwissAccumulator acc(16);
  acc.accumulate(7, 1.5);
  acc.accumulate(7, 2.5);
  acc.accumulate(9, 1.0);
  EXPECT_EQ(acc.size(), 2u);
  std::map<lnkey_t, value_t> out;
  acc.drain([&](lnkey_t k, value_t v) { out[k] = v; });
  EXPECT_DOUBLE_EQ(out[7], 4.0);
  EXPECT_DOUBLE_EQ(out[9], 1.0);
}

TEST(SwissAccumulator, ClearKeepsCapacity) {
  simd::SwissAccumulator acc(16);
  for (lnkey_t k = 0; k < 100; ++k) acc.accumulate(k, 1.0);
  const std::size_t slots = acc.num_slots();
  acc.clear();
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.num_slots(), slots);
  // A reused slot must not leak the value it held before clear().
  acc.accumulate(5, 2.0);
  EXPECT_EQ(acc.size(), 1u);
  acc.drain([&](lnkey_t k, value_t v) {
    EXPECT_EQ(k, 5u);
    EXPECT_DOUBLE_EQ(v, 2.0);
  });
}

TEST(SwissAccumulator, MatchesMapOracleOnRandomStream) {
  Rng rng(99);
  simd::SwissAccumulator acc(64);
  std::map<lnkey_t, value_t> oracle;
  for (int i = 0; i < 50'000; ++i) {
    const lnkey_t k = rng.uniform(2000);
    const value_t v = rng.uniform_double(-1.0, 1.0);
    acc.accumulate(k, v);
    oracle[k] += v;
  }
  EXPECT_EQ(acc.size(), oracle.size());
  acc.drain([&](lnkey_t k, value_t v) {
    ASSERT_TRUE(oracle.count(k));
    EXPECT_NEAR(v, oracle[k], 1e-9);
  });
}

TEST(SwissAccumulator, SurvivesHeavyCollisions) {
  // Multiples of 2^40 all hash to tag 0, so every full slot of a probed
  // group matches the tag: probes must fall back to the key compare and
  // never merge distinct keys.
  simd::SwissAccumulator acc(1);
  for (lnkey_t k = 0; k < 5000; ++k) acc.accumulate(k << 40, 1.0);
  for (lnkey_t k = 0; k < 5000; ++k) acc.accumulate(k << 40, 1.0);
  EXPECT_EQ(acc.size(), 5000u);
  acc.drain([&](lnkey_t, value_t v) { EXPECT_DOUBLE_EQ(v, 2.0); });
}

TEST(SwissAccumulator, GrowsPastInitialCapacity) {
  simd::SwissAccumulator acc(4);  // tiny: must grow many times
  const std::size_t initial_slots = acc.num_slots();
  for (lnkey_t k = 0; k < 10'000; ++k) acc.accumulate(k, 1.0);
  EXPECT_EQ(acc.size(), 10'000u);
  EXPECT_EQ(acc.num_slots(), simd::swiss_slots_for(10'000));
  EXPECT_GT(acc.num_slots(), initial_slots);
  std::size_t visited = 0;
  acc.drain([&](lnkey_t, value_t v) {
    EXPECT_DOUBLE_EQ(v, 1.0);
    ++visited;
  });
  EXPECT_EQ(visited, 10'000u);
}

TEST(SwissAccumulator, KeyZeroIsUsable) {
  // LN key 0 is a legal, common key (all-zero free indices).
  simd::SwissAccumulator acc(8);
  acc.accumulate(0, 1.0);
  acc.accumulate(0, 2.0);
  EXPECT_EQ(acc.size(), 1u);
  acc.drain([&](lnkey_t k, value_t v) {
    EXPECT_EQ(k, 0u);
    EXPECT_DOUBLE_EQ(v, 3.0);
  });
}

TEST(SwissAccumulator, MultithreadedSpartaMatchesReference) {
  PairedSpec ps;
  ps.x.dims = {40, 30, 20};
  ps.x.nnz = 2000;
  ps.y.dims = {40, 25, 18};
  ps.y.nnz = 1800;
  ps.num_contract_modes = 1;
  ps.match_fraction = 0.8;
  const TensorPair pair = generate_contraction_pair(ps);
  ContractOptions o;
  o.num_threads = 4;
  const SparseTensor z = contract_tensor(pair.x, pair.y, {0}, {0}, o);
  const SparseTensor ref = contract_reference(pair.x, pair.y, {0}, {0});
  EXPECT_TRUE(SparseTensor::approx_equal(z, ref, 1e-9));
}

// --- budget integration ---------------------------------------------

TEST(SwissBudget, SwissContractionChargesAndRespectsBudget) {
  GeneratorSpec xs;
  xs.dims = {30, 30};
  xs.nnz = 800;
  xs.seed = 1;
  GeneratorSpec ys;
  ys.dims = {30, 30};
  ys.nnz = 800;
  ys.seed = 2;
  const SparseTensor x = generate_random(xs);
  const SparseTensor y = generate_random(ys);

  ContractOptions o;
  o.algorithm = Algorithm::kSparta;

  // Generous budget: must succeed and report a nonzero charged HtY.
  o.budget.bytes = std::size_t{1} << 30;
  const ContractResult ok = contract(x, y, {1}, {0}, o);
  EXPECT_GT(ok.stats.hty_bytes, 0u);

  // Tiny budget: the tables must trip the BudgetExceeded gates, not
  // quietly allocate past the cap.
  o.budget.bytes = 1024;
  EXPECT_THROW((void)contract(x, y, {1}, {0}, o), BudgetExceeded);
}

}  // namespace
}  // namespace sparta
