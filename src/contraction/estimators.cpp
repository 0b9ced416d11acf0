#include "contraction/estimators.hpp"

#include <algorithm>
#include <limits>

#include "simd/swiss_table.hpp"

namespace sparta {

static_assert(sizeof(simd::detail::YSlot) == kHtySlotBytes);
static_assert(sizeof(FreeItem) == kHtyItemBytes);
static_assert(sizeof(simd::detail::ASlot) == kHtaSlotBytes);

std::size_t hty_key_space(const std::vector<index_t>& dims,
                          const Modes& cy) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  std::size_t space = 1;
  for (int m : cy) {
    if (m < 0 || static_cast<std::size_t>(m) >= dims.size()) return kMax;
    const auto d = static_cast<std::size_t>(dims[static_cast<std::size_t>(m)]);
    if (d != 0 && space > kMax / d) return kMax;
    space *= d;
  }
  return space;
}

std::size_t estimate_hty_bytes(std::size_t nnz_y, std::size_t key_space) {
  return simd::swiss_slots_for(std::min(nnz_y, key_space)) *
             (kSwissCtrlBytes + kHtySlotBytes) +
         nnz_y * kHtyItemBytes;
}

std::size_t estimate_hta_bytes(std::size_t nnz_fmax_x,
                               std::size_t nnz_fmax_y) {
  return simd::swiss_slots_for(nnz_fmax_x * nnz_fmax_y) *
         (kSwissCtrlBytes + kHtaSlotBytes);
}

std::size_t estimate_zlocal_bytes(std::size_t nnz_hta, int num_free_x,
                                  int num_free_y, const EstimatorSizes& sz) {
  const std::size_t per_entry =
      sz.index * static_cast<std::size_t>(num_free_x + num_free_y) + sz.value;
  return nnz_hta * per_entry;
}

}  // namespace sparta
