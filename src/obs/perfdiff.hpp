// Perf-regression comparison engine behind tools/sparta_perfdiff and the
// bench --baseline gate.
//
// Compares two bench --json reports (docs/OBSERVABILITY.md schema) case
// by case. Three signals, in decreasing order of trust:
//
//  1. Config comparability. A diff across different workload configs is
//     meaningless, so bench name, smoke flag, scale, thread count and
//     build type must match exactly; otherwise the verdict is
//     kConfigMismatch (exit 3), never a pass. Hostname and git SHA are
//     informational — CI diffs across machines and commits on purpose.
//  2. Deterministic work counters (nnz_*, searches, hits, multiplies…).
//     These are machine- and timing-independent for a fixed config, so
//     any drift is a real behaviour change and gates at threshold 0 —
//     there is no such thing as counter noise.
//  3. Median wall time, gated by a relative threshold. Cases whose
//     baseline median is below --min-seconds are reported but never
//     gate: micro-second smoke cases flap on shared CI runners.
//
// Header-only like the rest of obs/; the tool, the bench harness and the
// tests all include this so the verdict logic cannot diverge.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "obs/json_parse.hpp"

namespace sparta::obs::perfdiff {

/// Process exit codes of sparta_perfdiff (stable API — CI scripts match
/// on them).
enum ExitCode : int {
  kOk = 0,              ///< comparable and within threshold
  kRegression = 1,      ///< timing over threshold or counter drift
  kUsageError = 2,      ///< bad flags / unreadable / unparsable input
  kConfigMismatch = 3,  ///< reports are not comparable
};

struct Options {
  /// Relative slowdown that gates (0.10 = +10% is a regression).
  /// NEGATIVE values demand a speedup: -0.17 gates unless the run is at
  /// least 17% faster than baseline (run ≤ 0.83×base, i.e. base/run ≥
  /// 1.2×) — for asserting that an optimisation keeps its speedup.
  double threshold = 0.10;
  double min_seconds = 1e-3;  ///< baseline medians below this never gate
  bool compare_counters = true;
};

/// "30%" or "0.3" → 0.3. Negative values above -1.0 are allowed
/// (required-improvement gates, see Options::threshold); -1.0 and below
/// would demand a non-positive runtime. nullopt on junk.
[[nodiscard]] inline std::optional<double> parse_threshold(
    std::string_view s) {
  if (s.empty()) return std::nullopt;
  bool percent = false;
  std::string body(s);
  if (body.back() == '%') {
    percent = true;
    body.pop_back();
  }
  char* end = nullptr;
  double v = std::strtod(body.c_str(), &end);
  if (end != body.c_str() + body.size() || !std::isfinite(v)) {
    return std::nullopt;
  }
  if (percent) v /= 100.0;
  if (v <= -1.0) return std::nullopt;
  return v;
}

/// Counters from ContractStats::to_json() that are fully determined by
/// (dataset, algorithm, options) — independent of machine, threads and
/// timing — and therefore compared exactly. Byte-footprint counters are
/// excluded: allocator sizing may legitimately change across commits
/// without being a behaviour bug.
inline constexpr std::string_view kDeterministicCounters[] = {
    "nnz_x",      "nnz_y",    "nnz_z",      "num_x_subtensors",
    "num_y_keys", "max_y_group", "max_x_subtensor",
    "searches",   "hits",     "multiplies",
};

struct CounterDrift {
  std::string counter;
  double base = 0.0;
  double run = 0.0;
};

/// Verdict for one case name present in both reports.
struct CaseResult {
  std::string name;
  double base_median = 0.0;
  double run_median = 0.0;
  /// run/base - 1; 0 when the baseline median is 0.
  double ratio = 0.0;
  /// False when base_median < min_seconds: informational only.
  bool timing_gates = false;
  bool timing_regressed = false;
  std::vector<CounterDrift> counter_drift;

  [[nodiscard]] bool regressed() const {
    return timing_regressed || !counter_drift.empty();
  }
};

struct ConfigMismatch {
  std::string field;
  std::string base;
  std::string run;
};

/// One base-report/run-report comparison.
struct PairResult {
  std::string bench;  ///< bench name (from the base report)
  std::vector<ConfigMismatch> config_mismatches;
  std::vector<CaseResult> cases;
  std::vector<std::string> base_only;  ///< cases that vanished
  std::vector<std::string> run_only;   ///< new cases (informational)

  [[nodiscard]] bool comparable() const {
    return config_mismatches.empty();
  }
  [[nodiscard]] bool regressed() const {
    if (!comparable()) return false;  // mismatch is its own verdict
    if (!base_only.empty()) return true;  // a gated case disappeared
    return std::any_of(cases.begin(), cases.end(),
                       [](const CaseResult& c) { return c.regressed(); });
  }
  [[nodiscard]] ExitCode exit() const {
    if (!comparable()) return kConfigMismatch;
    return regressed() ? kRegression : kOk;
  }
};

namespace detail {

[[nodiscard]] inline std::string scalar_to_string(const JsonValue* v) {
  if (!v) return "<absent>";
  switch (v->type) {
    case JsonValue::Type::kNull:
      return "null";
    case JsonValue::Type::kBool:
      return v->bool_v ? "true" : "false";
    case JsonValue::Type::kNumber:
      return json_number(v->num_v);
    case JsonValue::Type::kString:
      return v->str_v;
    default:
      return "<composite>";
  }
}

[[nodiscard]] inline bool scalar_equal(const JsonValue* a,
                                       const JsonValue* b) {
  if (!a || !b) return a == b;
  if (a->type != b->type) return false;
  switch (a->type) {
    case JsonValue::Type::kBool:
      return a->bool_v == b->bool_v;
    case JsonValue::Type::kNumber:
      return a->num_v == b->num_v;
    case JsonValue::Type::kString:
      return a->str_v == b->str_v;
    default:
      return true;
  }
}

// Appends a mismatch record when `field` differs between the reports.
// `required` fields also mismatch when absent from either side; optional
// fields (context additions newer than a report) only compare when both
// sides carry them, keeping old baselines diffable.
inline void check_field(const JsonValue& base, const JsonValue& run,
                        std::initializer_list<std::string_view> path,
                        std::string field, bool required,
                        std::vector<ConfigMismatch>& out) {
  const JsonValue* b = base.get_path(path);
  const JsonValue* r = run.get_path(path);
  if (!required && (b == nullptr || r == nullptr)) return;
  if (!scalar_equal(b, r)) {
    out.push_back(
        {std::move(field), scalar_to_string(b), scalar_to_string(r)});
  }
}

[[nodiscard]] inline const JsonValue* find_case(const JsonValue& report,
                                                std::string_view name) {
  const JsonValue* cases = report.get("cases");
  if (!cases || !cases->is_array()) return nullptr;
  for (const JsonValue& c : cases->arr) {
    const JsonValue* n = c.get("name");
    if (n && n->is_string() && n->str_v == name) return &c;
  }
  return nullptr;
}

}  // namespace detail

/// Compares two parsed reports. Pure — reads no files, touches no
/// globals — so tests can feed synthetic documents.
[[nodiscard]] inline PairResult diff_reports(const JsonValue& base,
                                             const JsonValue& run,
                                             const Options& opts) {
  PairResult out;
  if (const JsonValue* b = base.get("bench")) out.bench = b->string_or("");

  // Comparability: the workload-defining fields. "context" holds the
  // reproducibility stamp added in schema extensions; build_type lives
  // there and is config (Debug vs RelWithDebInfo timings are apples and
  // oranges), hostname/git_sha are not.
  detail::check_field(base, run, {"bench"}, "bench", true,
                      out.config_mismatches);
  detail::check_field(base, run, {"smoke"}, "smoke", true,
                      out.config_mismatches);
  detail::check_field(base, run, {"scale"}, "scale", true,
                      out.config_mismatches);
  detail::check_field(base, run, {"threads"}, "threads", true,
                      out.config_mismatches);
  detail::check_field(base, run, {"context", "build_type"}, "build_type",
                      false, out.config_mismatches);
  // Scalar-vs-SIMD timings are different workloads entirely; reports
  // must agree on the active tier to be diffable. Optional so baselines
  // predating the field stay comparable.
  detail::check_field(base, run, {"context", "simd_isa"}, "simd_isa",
                      false, out.config_mismatches);
  if (!out.comparable()) return out;

  const JsonValue* base_cases = base.get("cases");
  const JsonValue* run_cases = run.get("cases");
  if (base_cases && base_cases->is_array()) {
    for (const JsonValue& bc : base_cases->arr) {
      const JsonValue* n = bc.get("name");
      if (!n || !n->is_string()) continue;
      const JsonValue* rc = detail::find_case(run, n->str_v);
      if (!rc) {
        out.base_only.push_back(n->str_v);
        continue;
      }
      CaseResult cr;
      cr.name = n->str_v;
      if (const JsonValue* m = bc.get_path({"seconds", "median"})) {
        cr.base_median = m->number_or(0.0);
      }
      if (const JsonValue* m = rc->get_path({"seconds", "median"})) {
        cr.run_median = m->number_or(0.0);
      }
      cr.ratio = cr.base_median > 0.0
                     ? cr.run_median / cr.base_median - 1.0
                     : 0.0;
      cr.timing_gates = cr.base_median >= opts.min_seconds;
      cr.timing_regressed = cr.timing_gates && cr.ratio > opts.threshold;
      if (opts.compare_counters) {
        const JsonValue* bcount = bc.get("counters");
        const JsonValue* rcount = rc->get("counters");
        if (bcount && rcount) {
          for (const std::string_view key : kDeterministicCounters) {
            const JsonValue* bv = bcount->get(key);
            const JsonValue* rv = rcount->get(key);
            if (!bv || !rv || !bv->is_number() || !rv->is_number()) {
              continue;
            }
            if (bv->num_v != rv->num_v) {
              cr.counter_drift.push_back(
                  {std::string(key), bv->num_v, rv->num_v});
            }
          }
        }
      }
      out.cases.push_back(std::move(cr));
    }
  }
  if (run_cases && run_cases->is_array()) {
    for (const JsonValue& rc : run_cases->arr) {
      const JsonValue* n = rc.get("name");
      if (n && n->is_string() && !detail::find_case(base, n->str_v)) {
        out.run_only.push_back(n->str_v);
      }
    }
  }
  return out;
}

/// Highest-severity verdict across pairs: any regression wins over any
/// mismatch wins over ok. (Usage errors never reach this point — the
/// caller exits 2 before comparing.)
[[nodiscard]] inline ExitCode overall_exit(
    const std::vector<PairResult>& pairs) {
  ExitCode code = kOk;
  for (const PairResult& p : pairs) {
    const ExitCode e = p.exit();
    if (e == kRegression) return kRegression;
    if (e == kConfigMismatch) code = kConfigMismatch;
  }
  return code;
}

/// GitHub-flavoured markdown report for one pair (the tool concatenates
/// pairs; CI pastes this into the job summary).
[[nodiscard]] inline std::string to_markdown(const PairResult& p,
                                             const Options& opts) {
  std::string out;
  out += "### " + (p.bench.empty() ? std::string("<unnamed bench>") : p.bench);
  out += "\n\n";
  if (!p.comparable()) {
    out += "**not comparable** — config mismatch:\n\n";
    out += "| field | baseline | run |\n|---|---|---|\n";
    for (const ConfigMismatch& m : p.config_mismatches) {
      out += "| " + m.field + " | " + m.base + " | " + m.run + " |\n";
    }
    return out;
  }
  char buf[160];
  out += "| case | base median (s) | run median (s) | delta | verdict |\n";
  out += "|---|---|---|---|---|\n";
  for (const CaseResult& c : p.cases) {
    const char* verdict =
        !c.counter_drift.empty() ? "COUNTER DRIFT"
        : c.timing_regressed     ? "REGRESSED"
        : !c.timing_gates        ? "ok (below noise floor)"
        : c.ratio < -opts.threshold ? "improved"
                                    : "ok";
    std::snprintf(buf, sizeof(buf), "| %s | %.6f | %.6f | %+.1f%% | %s |\n",
                  c.name.c_str(), c.base_median, c.run_median,
                  c.ratio * 100.0, verdict);
    out += buf;
  }
  for (const CaseResult& c : p.cases) {
    for (const CounterDrift& d : c.counter_drift) {
      std::snprintf(buf, sizeof(buf),
                    "- `%s`: counter `%s` drifted %.0f -> %.0f\n",
                    c.name.c_str(), d.counter.c_str(), d.base, d.run);
      out += buf;
    }
  }
  for (const std::string& name : p.base_only) {
    out += "- **missing case** `" + name + "` (present in baseline only)\n";
  }
  for (const std::string& name : p.run_only) {
    out += "- new case `" + name + "` (no baseline; not gated)\n";
  }
  return out;
}

/// Machine-readable verdict for all pairs (the tool's --json output).
[[nodiscard]] inline std::string to_json(
    const std::vector<PairResult>& pairs, const Options& opts) {
  JsonWriter w;
  w.begin_object();
  w.key("schema_version").value(1);
  w.key("threshold").value(opts.threshold);
  w.key("min_seconds").value(opts.min_seconds);
  w.key("exit").value(static_cast<int>(overall_exit(pairs)));
  w.key("pairs").begin_array();
  for (const PairResult& p : pairs) {
    w.begin_object();
    w.key("bench").value(std::string_view(p.bench));
    w.key("comparable").value(p.comparable());
    w.key("regressed").value(p.regressed());
    w.key("config_mismatches").begin_array();
    for (const ConfigMismatch& m : p.config_mismatches) {
      w.begin_object();
      w.key("field").value(std::string_view(m.field));
      w.key("base").value(std::string_view(m.base));
      w.key("run").value(std::string_view(m.run));
      w.end_object();
    }
    w.end_array();
    w.key("cases").begin_array();
    for (const CaseResult& c : p.cases) {
      w.begin_object();
      w.key("name").value(std::string_view(c.name));
      w.key("base_median_seconds").value(c.base_median);
      w.key("run_median_seconds").value(c.run_median);
      w.key("ratio").value(c.ratio);
      w.key("timing_gates").value(c.timing_gates);
      w.key("timing_regressed").value(c.timing_regressed);
      w.key("counter_drift").begin_array();
      for (const CounterDrift& d : c.counter_drift) {
        w.begin_object();
        w.key("counter").value(std::string_view(d.counter));
        w.key("base").value(d.base);
        w.key("run").value(d.run);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.key("base_only").begin_array();
    for (const std::string& n : p.base_only) {
      w.value(std::string_view(n));
    }
    w.end_array();
    w.key("run_only").begin_array();
    for (const std::string& n : p.run_only) {
      w.value(std::string_view(n));
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace sparta::obs::perfdiff
