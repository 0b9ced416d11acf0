#include "contraction/plan.hpp"

#include "contraction/contract.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "contraction/estimators.hpp"
#include "obs/trace.hpp"

namespace sparta {

namespace {

Modes checked_cy(const SparseTensor& y, Modes cy) {
  std::vector<bool> seen(static_cast<std::size_t>(y.order()), false);
  for (int m : cy) {
    SPARTA_CHECK(m >= 0 && m < y.order(), "cy: contract mode out of range");
    SPARTA_CHECK(!seen[static_cast<std::size_t>(m)],
                 "cy: duplicate contract mode");
    seen[static_cast<std::size_t>(m)] = true;
  }
  SPARTA_CHECK(!cy.empty(), "need at least one contract mode");
  return cy;
}

}  // namespace

// The HtY is sized for min(nnz(y), contract key space) keys — an upper
// bound on distinct keys — so the build never grows the table and Eq. 5
// predicts its slot count.
YPlan::YPlan(const SparseTensor& y, Modes cy, CancelToken cancel)
    : cy_(checked_cy(y, std::move(cy))),
      ydims_(y.dims()),
      hty_(std::min(y.nnz(), hty_key_space(ydims_, cy_))) {
  std::vector<bool> is_contract(static_cast<std::size_t>(y.order()), false);
  for (int m : cy_) is_contract[static_cast<std::size_t>(m)] = true;
  for (int m = 0; m < y.order(); ++m) {
    if (!is_contract[static_cast<std::size_t>(m)]) {
      fy_.push_back(m);
      fydims_.push_back(y.dim(m));
    }
  }
  for (int m : cy_) cdims_.push_back(y.dim(m));

  const LinearIndexer clin(cdims_);
  fylin_ = LinearIndexer(fydims_.empty() ? std::vector<index_t>{1}
                                         : fydims_);

  nnz_y_ = y.nnz();
  y_footprint_ = y.footprint_bytes();

  // Covers the insert loop below — the "HtY build" sub-phase of input
  // processing (nested there when called from contract_impl).
  obs::Span sp_build("build_hty");
  const std::span<const int> cy_span(cy_);
  const std::span<const int> fy_span(fy_);
  const bool has_free = !fy_.empty();
  SPARTA_FAILPOINT("plan.build");
  cancel.check("plan.build");
  std::vector<index_t> c(static_cast<std::size_t>(y.order()));
  for (std::size_t i = 0; i < y.nnz(); ++i) {
    // Strided poll: one deadline read per 256 inserts keeps build
    // cancellation latency bounded without an atomic load per insert.
    if ((i & 255u) == 0) cancel.check("plan.build");
    y.coords(i, c);
    const lnkey_t ckey = clin.linearize_gather(c, cy_span);
    const lnkey_t fkey = has_free ? fylin_.linearize_gather(c, fy_span) : 0;
    hty_.insert(ckey, FreeItem{fkey, y.value(i)});
  }
  max_group_ = hty_.max_group_size();
}

std::vector<ContractResult> contract_batch(
    const std::vector<const SparseTensor*>& xs, const YPlan& plan,
    const Modes& cx, const ContractOptions& opts) {
  std::vector<ContractResult> results;
  results.reserve(xs.size());
  for (const SparseTensor* x : xs) {
    SPARTA_CHECK(x != nullptr, "contract_batch: null operand");
    results.push_back(contract(*x, plan, cx, opts));
  }
  return results;
}

}  // namespace sparta
