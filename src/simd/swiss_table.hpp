// Flat open-addressing hash tables with SIMD group probing: the one HtY
// (SwissYMap, paper §3.3) and the one hash HtA (SwissAccumulator, §3.4).
//
// Layout: one control byte per slot (empty 0x80, else the low 7 bits of
// the hash as a tag) plus a parallel slot array. Probing loads a
// 16-byte control group and compares all 16 tags in one vector op
// (_mm_cmpeq_epi8 on x86, vceqq_u8 on aarch64); a miss costs one cache
// line of metadata instead of one chained-bucket pointer chase per
// step. The scalar fallback walks the same 16-slot groups in the same
// ascending slot order, so every tier picks identical slots, drains in
// identical order, and therefore accumulates floating point in an
// identical order — forcing SPARTA_SIMD=scalar is bit-exact, the
// invariant the isa-matrix CI job and `fuzz_sptc --isa-diff` enforce.
//
// Neither table erases, so there are no tombstones: a slot is empty or
// full, and an empty slot in a probed group ends the probe.
// docs/SIMD.md covers the dispatch rules.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "simd/dispatch.hpp"
#include "tensor/types.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace sparta {

/// One Y non-zero as seen by the accumulation stage: its free-mode LN key
/// and value.
struct FreeItem {
  lnkey_t free_key;
  value_t val;
};

}  // namespace sparta

namespace sparta::simd {

/// Slots per control group — one 128-bit vector compare. Fixed across
/// all tiers (including scalar) so probe sequences are ISA-independent.
inline constexpr std::size_t kGroupWidth = 16;

/// Control byte of an empty slot. Full slots store a 7-bit tag (top bit
/// clear), so one vector equality against the tag never matches empty.
inline constexpr std::uint8_t kCtrlEmpty = 0x80;

namespace detail {

/// Bitmask of slots in the 16-byte control group at `ctrl` whose byte
/// equals `want` (bit i = slot i). Every tier returns the identical
/// mask; iteration via countr_zero visits slots in ascending order.
[[nodiscard]] inline std::uint32_t group_match(const std::uint8_t* ctrl,
                                               std::uint8_t want,
                                               SimdIsa isa) {
#if defined(__x86_64__) || defined(_M_X64)
  if (isa == SimdIsa::kAvx2) {
    // 128-bit ops suffice for a 16-byte group; SSE2 is x86-64 baseline
    // so no function-level target attribute is needed. The avx2 tier
    // gates availability, abseil-style, not vector width.
    const __m128i group =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
    const __m128i eq = _mm_cmpeq_epi8(group, _mm_set1_epi8(
                                                 static_cast<char>(want)));
    return static_cast<std::uint32_t>(_mm_movemask_epi8(eq));
  }
#endif
#if defined(__aarch64__)
  if (isa == SimdIsa::kNeon) {
    // NEON has no movemask; narrow the 0xFF/0x00 compare result to one
    // nibble per byte (vshrn by 4), then pick one bit per nibble.
    const uint8x16_t group = vld1q_u8(ctrl);
    const uint8x16_t eq = vceqq_u8(group, vdupq_n_u8(want));
    const uint8x8_t nib =
        vshrn_n_u16(vreinterpretq_u16_u8(eq), 4);
    std::uint64_t m = vget_lane_u64(vreinterpret_u64_u8(nib), 0);
    m &= 0x1111111111111111ULL;  // bit 4*i  <=>  slot i matched
    std::uint32_t out = 0;
    while (m != 0) {
      out |= 1u << (std::countr_zero(m) >> 2);
      m &= m - 1;
    }
    return out;
  }
#endif
  (void)isa;
  std::uint32_t out = 0;
  for (std::size_t j = 0; j < kGroupWidth; ++j) {
    if (ctrl[j] == want) out |= 1u << j;
  }
  return out;
}

/// Bitmask of empty slots. Empty is the only control byte with the top
/// bit set, so this is a sign-bit extract rather than a compare.
[[nodiscard]] inline std::uint32_t group_match_empty(const std::uint8_t* ctrl,
                                                     SimdIsa isa) {
#if defined(__x86_64__) || defined(_M_X64)
  if (isa == SimdIsa::kAvx2) {
    const __m128i group =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
    // movemask already extracts the sign bit of every byte.
    return static_cast<std::uint32_t>(_mm_movemask_epi8(group));
  }
#endif
#if defined(__aarch64__)
  if (isa == SimdIsa::kNeon) {
    const uint8x16_t group = vld1q_u8(ctrl);
    const uint8x16_t top = vtstq_u8(group, vdupq_n_u8(0x80));
    const uint8x8_t nib = vshrn_n_u16(vreinterpretq_u16_u8(top), 4);
    std::uint64_t m = vget_lane_u64(vreinterpret_u64_u8(nib), 0);
    m &= 0x1111111111111111ULL;
    std::uint32_t out = 0;
    while (m != 0) {
      out |= 1u << (std::countr_zero(m) >> 2);
      m &= m - 1;
    }
    return out;
  }
#endif
  (void)isa;
  std::uint32_t out = 0;
  for (std::size_t j = 0; j < kGroupWidth; ++j) {
    if ((ctrl[j] & 0x80u) != 0) out |= 1u << j;
  }
  return out;
}

/// Group index (h1, top `group_bits` of the mixed hash) and 7-bit tag
/// (h2, low bits) — disjoint slices of one multiply, so the tag carries
/// information the group index does not.
[[nodiscard]] inline std::uint64_t swiss_h1(lnkey_t key, int group_bits) {
  return (key * 0x9e3779b97f4a7c15ULL) >> (64 - group_bits);
}
[[nodiscard]] inline std::uint8_t swiss_h2(lnkey_t key) {
  return static_cast<std::uint8_t>((key * 0x9e3779b97f4a7c15ULL) & 0x7f);
}

}  // namespace detail

/// Smallest group count exponent (at least 1, i.e. 32 slots) whose
/// 7/8-load capacity holds `keys` entries. The tables size themselves
/// with it and grow to it, and the Eq. 5/6 estimators use it to predict
/// their slot counts.
[[nodiscard]] inline int swiss_group_bits_for(std::size_t keys) {
  int bits = 1;
  while (bits < 57 &&
         ((std::size_t{1} << bits) * kGroupWidth * 7) / 8 < keys) {
    ++bits;
  }
  return bits;
}

/// Slot count of a table sized for `keys` entries.
[[nodiscard]] inline std::size_t swiss_slots_for(std::size_t keys) {
  return kGroupWidth << swiss_group_bits_for(keys);
}

namespace detail {

/// The slot storage and probe loop both tables share. `Slot` carries a
/// `key` member plus its payload, and names its growth counter in
/// `kGrowCounter`.
template <typename Slot>
class SwissSlots {
 public:
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  explicit SwissSlots(std::size_t expected_keys)
      : isa_(active_isa()), group_bits_(swiss_group_bits_for(expected_keys)) {
    ctrl_.assign(num_groups() * kGroupWidth, kCtrlEmpty);
    slots_.resize(ctrl_.size());
  }

  /// Index of the slot holding `key`, or kAbsent. `steps` receives the
  /// number of 16-wide groups probed.
  [[nodiscard]] std::size_t find(lnkey_t key, std::size_t& steps) const {
    const std::uint8_t tag = swiss_h2(key);
    const std::uint64_t group_mask = num_groups() - 1;
    std::uint64_t g = swiss_h1(key, group_bits_);
    for (steps = 1;; ++steps) {
      const std::uint8_t* ctrl = ctrl_.data() + g * kGroupWidth;
      for (std::uint32_t m = group_match(ctrl, tag, isa_); m != 0;
           m &= m - 1) {
        const std::size_t s =
            g * kGroupWidth + static_cast<std::size_t>(std::countr_zero(m));
        if (slots_[s].key == key) return s;
      }
      if (group_match_empty(ctrl, isa_) != 0) return kAbsent;
      g = (g + 1) & group_mask;
    }
  }

  /// Slot holding `key`, claiming the first empty slot on its probe path
  /// when absent (then `inserted` is set and the caller initialises the
  /// payload; a reused slot holds stale data from before a clear()).
  /// Grows first when the claim would pass 7/8 load.
  Slot& find_or_insert(lnkey_t key, bool& inserted, std::size_t& steps) {
    const std::uint8_t tag = swiss_h2(key);
    const std::uint64_t group_mask = num_groups() - 1;
    std::uint64_t g = swiss_h1(key, group_bits_);
    for (steps = 1;; ++steps) {
      const std::uint8_t* ctrl = ctrl_.data() + g * kGroupWidth;
      for (std::uint32_t m = group_match(ctrl, tag, isa_); m != 0;
           m &= m - 1) {
        const std::size_t s =
            g * kGroupWidth + static_cast<std::size_t>(std::countr_zero(m));
        if (slots_[s].key == key) {
          inserted = false;
          return slots_[s];
        }
      }
      const std::uint32_t empty = group_match_empty(ctrl, isa_);
      if (empty != 0) {
        if ((size_ + 1) * 8 > slots_.size() * 7) {
          grow();
          return find_or_insert(key, inserted, steps);
        }
        const std::size_t s =
            g * kGroupWidth + static_cast<std::size_t>(std::countr_zero(empty));
        ctrl_[s] = tag;
        slots_[s].key = key;
        ++size_;
        inserted = true;
        return slots_[s];
      }
      g = (g + 1) & group_mask;
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t num_slots() const { return slots_.size(); }
  [[nodiscard]] const Slot& slot(std::size_t s) const { return slots_[s]; }

  /// Bytes of the control and slot arrays (not what slots point to).
  [[nodiscard]] std::size_t footprint_bytes() const {
    return ctrl_.capacity() + slots_.capacity() * sizeof(Slot);
  }

  /// Visits every full slot in slot order — fixed by insertion history,
  /// identical across ISA tiers.
  template <typename F>
  void for_each(F&& f) const {
    // One group-wide compare per 16 slots, so a sparsely filled table
    // (a reused HtA after a small sub-tensor) drains in O(groups).
    for (std::size_t g = 0; g < ctrl_.size(); g += kGroupWidth) {
      for (std::uint32_t m =
               ~group_match_empty(ctrl_.data() + g, isa_) & 0xffffu;
           m != 0; m &= m - 1) {
        f(slots_[g + static_cast<std::size_t>(std::countr_zero(m))]);
      }
    }
  }

  /// Marks every slot empty, keeping capacity. Slot payloads are left
  /// stale; find_or_insert reports `inserted` so callers overwrite them.
  void clear() {
    std::fill(ctrl_.begin(), ctrl_.end(), kCtrlEmpty);
    size_ = 0;
  }

 private:
  [[nodiscard]] std::size_t num_groups() const {
    return std::size_t{1} << group_bits_;
  }

  void grow() {
    SPARTA_COUNTER_ADD(Slot::kGrowCounter, 1);
    std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
    std::vector<Slot> old_slots = std::move(slots_);
    ++group_bits_;
    ctrl_.assign(num_groups() * kGroupWidth, kCtrlEmpty);
    slots_ = std::vector<Slot>(ctrl_.size());
    const std::uint64_t group_mask = num_groups() - 1;
    for (std::size_t s = 0; s < old_slots.size(); ++s) {
      if ((old_ctrl[s] & 0x80u) != 0) continue;
      const lnkey_t key = old_slots[s].key;
      std::uint64_t g = swiss_h1(key, group_bits_);
      while (true) {
        const std::uint8_t* ctrl = ctrl_.data() + g * kGroupWidth;
        const std::uint32_t empty = group_match_empty(ctrl, isa_);
        if (empty != 0) {
          const std::size_t d =
              g * kGroupWidth +
              static_cast<std::size_t>(std::countr_zero(empty));
          ctrl_[d] = swiss_h2(key);
          slots_[d] = std::move(old_slots[s]);
          break;
        }
        g = (g + 1) & group_mask;
      }
    }
  }

  SimdIsa isa_;  ///< resolved once: every tier probes identically
  int group_bits_;
  std::size_t size_ = 0;
  std::vector<std::uint8_t> ctrl_;
  std::vector<Slot> slots_;
};

struct YSlot {
  static constexpr const char* kGrowCounter = "hty.grows";
  lnkey_t key = 0;
  std::vector<FreeItem> items;
};

struct ASlot {
  static constexpr const char* kGrowCounter = "hta.grows";
  lnkey_t key = 0;
  value_t val = 0;
};

}  // namespace detail

/// The HtY (paper §3.3): LN contract key -> dynamic array of (free key,
/// value) items for every Y non-zero sharing those contract indices.
/// Built by one thread: open addressing rehashes the whole slot array
/// on growth, so a parallel build would need one table-wide lock, and
/// that lock made 2-thread builds slower than 1-thread ones. Items of
/// one key come back from find() in insertion order, which YPlan makes
/// Y's storage order.
class SwissYMap {
 public:
  explicit SwissYMap(std::size_t expected_keys) : table_(expected_keys) {}

  /// Appends `item` to the group for `key`, creating it if absent.
  void insert(lnkey_t key, FreeItem item) {
    bool inserted = false;
    std::size_t steps = 0;
    detail::YSlot& s = table_.find_or_insert(key, inserted, steps);
    if (inserted) s.items.clear();
    s.items.push_back(item);
    // steps counts 16-wide groups probed, not individual slots.
    SPARTA_COUNTER_ADD("hty.inserts", 1);
    SPARTA_COUNTER_ADD("hty.insert_steps", steps);
  }

  /// Items for `key`, or an empty span when absent.
  [[nodiscard]] std::span<const FreeItem> find(lnkey_t key) const {
    std::size_t steps = 0;
    const std::size_t s = table_.find(key, steps);
    SPARTA_COUNTER_ADD("hty.probes", 1);
    SPARTA_COUNTER_ADD("hty.probe_steps", steps);
    SPARTA_HISTOGRAM_RECORD("hty.probe_len", steps);
    if (s == table_.kAbsent) return {};
    return table_.slot(s).items;
  }

  /// Number of distinct keys.
  [[nodiscard]] std::size_t num_keys() const { return table_.size(); }

  /// Total items across all groups.
  [[nodiscard]] std::size_t num_items() const {
    std::size_t n = 0;
    table_.for_each([&](const detail::YSlot& s) { n += s.items.size(); });
    return n;
  }

  /// Size of the largest group — the paper's nnz_Fmax^Y (Eq. 6 bound).
  [[nodiscard]] std::size_t max_group_size() const {
    std::size_t n = 0;
    table_.for_each(
        [&](const detail::YSlot& s) { n = std::max(n, s.items.size()); });
    return n;
  }

  [[nodiscard]] std::size_t num_slots() const { return table_.num_slots(); }

  /// Measured heap footprint (control bytes, slots and item arrays),
  /// the quantity Eq. 5 estimates for DRAM placement.
  [[nodiscard]] std::size_t footprint_bytes() const {
    std::size_t bytes = table_.footprint_bytes();
    table_.for_each([&](const detail::YSlot& s) {
      bytes += s.items.capacity() * sizeof(FreeItem);
    });
    return bytes;
  }

  /// Visits every (key, items) group in slot order — deterministic for
  /// a given insertion history, identical across ISA tiers.
  template <typename F>
  void for_each_group(F&& f) const {
    table_.for_each([&](const detail::YSlot& s) {
      f(s.key, std::span<const FreeItem>(s.items));
    });
  }

 private:
  detail::SwissSlots<detail::YSlot> table_;
};

/// The hash HtA (paper §3.4): flat (key, value) slots probed by 16-wide
/// tag compare. Thread-private: each worker owns one and reuses it
/// across the X sub-tensors it processes (clear() keeps capacity).
class SwissAccumulator {
 public:
  explicit SwissAccumulator(std::size_t expected_keys)
      : table_(expected_keys) {}

  /// Adds `v` to the entry for `key`, inserting it when absent.
  void accumulate(lnkey_t key, value_t v) {
    bool inserted = false;
    std::size_t steps = 0;
    detail::ASlot& s = table_.find_or_insert(key, inserted, steps);
    s.val = inserted ? v : s.val + v;
    SPARTA_COUNTER_ADD("hta.accumulates", 1);
    SPARTA_COUNTER_ADD("hta.probe_steps", steps);
    SPARTA_HISTOGRAM_RECORD("hta.probe_len", steps);
  }

  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] bool empty() const { return table_.size() == 0; }
  [[nodiscard]] std::size_t num_slots() const { return table_.num_slots(); }

  /// Heap footprint; the quantity bounded by Eq. 6 for DRAM placement.
  [[nodiscard]] std::size_t footprint_bytes() const {
    return table_.footprint_bytes();
  }

  /// Visits live entries in slot order — fixed by insertion history,
  /// identical across ISA tiers (the FP-determinism linchpin: drain
  /// order is accumulation order downstream).
  template <typename F>
  void drain(F&& f) const {
    table_.for_each([&](const detail::ASlot& s) { f(s.key, s.val); });
  }

  /// Empties the table by resetting its control bytes, keeping capacity.
  void clear() { table_.clear(); }

 private:
  detail::SwissSlots<detail::ASlot> table_;
};

}  // namespace sparta::simd
