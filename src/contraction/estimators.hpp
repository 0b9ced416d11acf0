// Memory-consumption estimators for the placement engine (paper §4.2).
//
// Eq. 5 predicts HtY's footprint exactly from tensor metadata; Eq. 6
// upper-bounds one thread's HtA. Both are evaluated before the object is
// allocated, which is what lets Sparta place data statically.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/types.hpp"

namespace sparta {

/// Documented accuracy contract, asserted by test_estimator_accuracy
/// against the tracked-allocator peaks and relied on by the budget
/// pre-flight gate (ContractOptions::budget):
///  * Eq. 5 models HtY's steady-state layout exactly; container growth
///    slack and padding keep the measured peak within a factor of
///    kEstimatorAccuracyFactor of the estimate, in both directions.
///  * Eq. 6 upper-bounds one thread's HtA from worst-case pairing; the
///    measured per-thread peak stays below kEstimatorAccuracyFactor ×
///    estimate (it may undershoot arbitrarily on skewed inputs — that
///    is the bound doing its job).
///  * The Z_local estimate models the staged payload; measured stays
///    within kEstimatorAccuracyFactor × estimate.
inline constexpr double kEstimatorAccuracyFactor = 4.0;

/// Byte sizes of the swiss tables' layout (simd/swiss_table.hpp) that
/// Eq. 5/6 count; estimators.cpp pins each to the real struct.
inline constexpr std::size_t kSwissCtrlBytes = 1;  ///< control byte per slot
inline constexpr std::size_t kHtySlotBytes = 32;   ///< LN key + item array
inline constexpr std::size_t kHtyItemBytes = 16;   ///< FreeItem per Y nnz
inline constexpr std::size_t kHtaSlotBytes = 16;   ///< LN key + value

/// Index/value sizes the Z_local estimate multiplies out.
struct EstimatorSizes {
  std::size_t index = sizeof(index_t);  ///< Size_idx
  std::size_t value = sizeof(value_t);  ///< Size_val
};

/// Key space of HtY: the product of Y's contract-mode sizes (`cy` into
/// `dims`), saturating at SIZE_MAX (also returned for a mode outside
/// `dims`, so Eq. 5 falls back to nnz_Y keys). HtY holds at most
/// min(nnz_Y, key space) distinct keys, and YPlan sizes it for that.
[[nodiscard]] std::size_t hty_key_space(const std::vector<index_t>& dims,
                                        const Modes& cy);

/// Eq. 5: Size_HtY = #Slots·(Size_ctrl + Size_slot) + nnz_Y·Size_item,
/// with #Slots = swiss_slots_for(min(nnz_Y, key_space)) — YPlan sizes
/// the table for that many keys and it never grows during the build, so
/// this is exact up to the item arrays' growth slack.
[[nodiscard]] std::size_t estimate_hty_bytes(std::size_t nnz_y,
                                             std::size_t key_space);

/// Eq. 6 (upper bound): Size_HtA = #Slots·(Size_ctrl + Size_slot), with
/// #Slots = swiss_slots_for(nnz_Fmax^X · nnz_Fmax^Y) — one X sub-tensor
/// yields at most that many distinct keys, and the table grows to
/// exactly the slot count that holds them. nnz_fmax_x / nnz_fmax_y are
/// the largest X sub-tensor and largest HtY group, both known after
/// input processing and before the accumulator is touched.
[[nodiscard]] std::size_t estimate_hta_bytes(std::size_t nnz_fmax_x,
                                             std::size_t nnz_fmax_y);

/// Z_local bound (§4.2): size of HtA's payload plus the free-X indices
/// appended to each of its entries.
[[nodiscard]] std::size_t estimate_zlocal_bytes(std::size_t nnz_hta,
                                                int num_free_x,
                                                int num_free_y,
                                                const EstimatorSizes& sz = {});

}  // namespace sparta
