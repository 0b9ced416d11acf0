// SIMD paths: the swiss HtY probe loop and a full Sparta contraction
// under the active SIMD tier. Run it once with SPARTA_SIMD=scalar and
// once with the default tier to compare the group-compare kernels.
//
// The "probe" case times the HtY find loop directly — table built once
// outside the timed region, single thread — so the measurement is the
// probe and nothing else (inside a 2-thread contraction the stage-②
// loop saturates memory bandwidth). The key stream is deterministic
// and miss-dominated (~31/32), the sparse-contraction norm
// (stats.hits typically runs well below stats.searches): a miss
// resolves inside the 1-byte-per-slot control array.
//
//   bench_simd_paths [bench flags]

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/format.hpp"
#include "simd/swiss_table.hpp"

namespace {

using namespace sparta;
using namespace sparta::bench;

/// Deterministic probe stream over a 32n key space where only the even
/// keys below 2n are present: ~31/32 of the probes miss.
std::vector<lnkey_t> make_probe_keys(std::size_t n) {
  std::vector<lnkey_t> keys(2 * n);
  std::uint64_t s = 0x2545f4914f6cdd1dULL;
  for (auto& k : keys) {
    // xorshift64 — hash-scattered, identical on every run/platform.
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    k = s % (32 * n);
  }
  return keys;
}

/// Times the find loop over `keys` (best of `reps`, single thread) and,
/// when --json is active, appends a report case whose stage time is all
/// index search and whose counters are the real probe/hit tallies.
double time_probe_loop(const simd::SwissYMap& t,
                       const std::vector<lnkey_t>& keys, std::size_t num_keys,
                       int reps, const std::string& label) {
  double best = 1e300;
  std::vector<double> all_secs;
  all_secs.reserve(static_cast<std::size_t>(reps));
  std::size_t hits = 0;
  double sink = 0.0;
  for (int r = 0; r < reps; ++r) {
    hits = 0;
    Timer timer;
    for (const lnkey_t k : keys) {
      const auto items = t.find(k);
      if (!items.empty()) {
        ++hits;
        sink += items.front().val;
      }
    }
    const double secs = timer.seconds();
    all_secs.push_back(secs);
    best = std::min(best, secs);
  }
  if (sink < 0.0) std::printf("%f\n", sink);  // defeat dead-code elim
  std::sort(all_secs.begin(), all_secs.end());
  if (!json_path().empty()) {
    JsonCase c;
    c.name = label;
    c.repeats = reps;
    c.min_seconds = best;
    c.median_seconds = all_secs[all_secs.size() / 2];
    StageTimes st;
    st[Stage::kIndexSearch] = best;
    c.stages_json = st.to_json();
    ContractStats stats;
    stats.nnz_x = keys.size();
    stats.nnz_y = num_keys;
    stats.num_y_keys = num_keys;
    stats.searches = keys.size();
    stats.hits = hits;
    stats.multiplies = hits;
    c.counters_json = stats.to_json();
    json_cases().push_back(std::move(c));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  parse_cli(argc, argv);
  print_header("SIMD paths: swiss-table HtY probing and end to end",
               "16-wide group probing on the probe-dominated "
               "index-search loop");
  std::printf("active SIMD tier: %s\n\n",
              simd::isa_name(simd::active_isa()).data());

  // Sized so the probe loop stays above perfdiff's --min-seconds floor
  // on slow runners even in smoke mode.
  const std::size_t n =
      smoke_mode()
          ? (std::size_t{1} << 18)
          : static_cast<std::size_t>(
                static_cast<double>(std::size_t{1} << 20) *
                std::max(0.25, scale_from_env()));
  // Best-of-1 cold-cache timing has ~40% run-to-run noise, so always
  // take a few warm repeats.
  const int reps = std::max(6, repeats_from_env());
  const std::vector<lnkey_t> keys = make_probe_keys(n);

  std::printf("probe workload: %zu keys, %zu probes (~31/32 misses)\n\n",
              n, keys.size());
  std::printf("%-16s %14s\n", "case", "best");

  simd::SwissYMap t(n);
  for (std::size_t i = 0; i < n; ++i) t.insert(2 * i, FreeItem{0, 1.0});
  const double secs = time_probe_loop(t, keys, n, reps, "probe");
  std::printf("%-16s %14s\n", "probe", format_seconds(secs).c_str());

  // End to end: a full Sparta contraction on a real dataset case, HtY
  // build included. Too small to clear the CI gate's noise floor —
  // tracked, not gated.
  const SpTCCase c = make_sptc_case("chicago", 2, 0.5 * scale_from_env());
  ContractOptions o;
  o.algorithm = Algorithm::kSparta;
  const TimedRun run =
      time_contraction(c.x, c.y, c.cx, c.cy, o, std::min(2, reps), "e2e");
  std::printf("%-16s %14s\n", "e2e", format_seconds(run.seconds).c_str());
  return 0;
}
