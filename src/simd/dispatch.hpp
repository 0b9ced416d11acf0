// Runtime ISA dispatch for the SIMD kernel layer (docs/SIMD.md).
//
// Feature detection runs once per process: AVX2 on x86-64, NEON on
// aarch64, with an always-compiled scalar fallback whose semantics are
// bit-identical to the vector paths (same group width, same probe
// order, same stable sort), so forcing `SPARTA_SIMD=scalar` changes
// wall time but never a single output bit — the property the CI
// isa-matrix and differential-fuzz jobs pin down.
//
// The environment override SPARTA_SIMD=scalar|avx2|neon|auto picks the
// tier from outside; ScopedIsaOverride forces it from inside a process
// (tests, the fuzzer's scalar-vs-simd sweep).
#pragma once

#include <atomic>
#include <cstdlib>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace sparta::simd {

/// The dispatch tiers. kAvx2/kNeon both drive the 16-wide control-tag
/// group probe (128-bit ops — the swiss-table layout never needs wider
/// vectors) and the fused-histogram radix sort.
enum class SimdIsa : int {
  kScalar = 0,  ///< portable fallback, always compiled
  kAvx2 = 1,    ///< x86-64 with AVX2 (group ops use SSE2 baseline)
  kNeon = 2,    ///< aarch64 Advanced SIMD
};

[[nodiscard]] constexpr std::string_view isa_name(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return "scalar";
    case SimdIsa::kAvx2:
      return "avx2";
    case SimdIsa::kNeon:
      return "neon";
  }
  return "?";
}

/// Best tier this machine supports, from one-time CPUID/feature
/// detection. Pure of the environment: SPARTA_SIMD is applied by
/// resolve_isa()/active_isa(), not here.
[[nodiscard]] inline SimdIsa detect_native_isa() {
#if defined(__aarch64__)
  return SimdIsa::kNeon;
#elif defined(__x86_64__) || defined(_M_X64)
  static const bool avx2 = __builtin_cpu_supports("avx2");
  return avx2 ? SimdIsa::kAvx2 : SimdIsa::kScalar;
#else
  return SimdIsa::kScalar;
#endif
}

/// Maps an SPARTA_SIMD value to a tier. null/""/"auto" mean native
/// detection; a tier this machine cannot execute, or an unknown value,
/// throws sparta::Error naming the offender and the valid set — a typo
/// in CI must fail the job, not silently run scalar.
[[nodiscard]] inline SimdIsa resolve_isa(const char* env) {
  const std::string_view v = env == nullptr ? std::string_view{} : env;
  if (v.empty() || v == "auto") return detect_native_isa();
  if (v == "scalar") return SimdIsa::kScalar;
  if (v == "avx2") {
    if (detect_native_isa() != SimdIsa::kAvx2) {
      throw Error(
          "SPARTA_SIMD=avx2 requested but this machine does not "
          "support AVX2; use 'auto' or 'scalar'");
    }
    return SimdIsa::kAvx2;
  }
  if (v == "neon") {
    if (detect_native_isa() != SimdIsa::kNeon) {
      throw Error(
          "SPARTA_SIMD=neon requested but this is not an aarch64 "
          "machine; use 'auto' or 'scalar'");
    }
    return SimdIsa::kNeon;
  }
  throw Error("SPARTA_SIMD='" + std::string(v) +
              "' is not a recognised tier (valid: scalar, avx2, neon, "
              "auto)");
}

namespace detail {

/// In-process override slot; -1 = none. Relaxed atomics: overriding
/// while a contraction is mid-flight is a caller bug (ScopedIsaOverride
/// is meant for single-threaded test/fuzz drivers), and every tier
/// computes identical results anyway.
inline std::atomic<int>& override_slot() {
  static std::atomic<int> v{-1};
  return v;
}

}  // namespace detail

/// The tier every SIMD kernel dispatches on: the in-process override
/// when one is active, else SPARTA_SIMD (resolved once per process),
/// else native detection.
[[nodiscard]] inline SimdIsa active_isa() {
  const int o = detail::override_slot().load(std::memory_order_relaxed);
  if (o >= 0) return static_cast<SimdIsa>(o);
  static const SimdIsa env_isa = resolve_isa(std::getenv("SPARTA_SIMD"));
  return env_isa;
}

/// Forces a tier for the current scope — the fuzzer's scalar-vs-simd
/// differential sweep and the forced-scalar equivalence tests. Nesting
/// restores the previous override on destruction. Throws when the tier
/// cannot run on this machine.
class ScopedIsaOverride {
 public:
  explicit ScopedIsaOverride(SimdIsa isa)
      : prev_(detail::override_slot().load(std::memory_order_relaxed)) {
    if (isa != SimdIsa::kScalar && isa != detect_native_isa()) {
      throw Error(std::string("ScopedIsaOverride: tier '") +
                  std::string(isa_name(isa)) +
                  "' is not executable on this machine");
    }
    detail::override_slot().store(static_cast<int>(isa),
                                  std::memory_order_relaxed);
  }
  ScopedIsaOverride(const ScopedIsaOverride&) = delete;
  ScopedIsaOverride& operator=(const ScopedIsaOverride&) = delete;
  ~ScopedIsaOverride() {
    detail::override_slot().store(prev_, std::memory_order_relaxed);
  }

 private:
  int prev_;
};

}  // namespace sparta::simd
