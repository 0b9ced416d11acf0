// engine_output_heavy / engine_input_heavy: one caller runs contract()
// on Table-3 analog cases with default ContractOptions (only
// num_threads set), alternating 2-thread and 1-thread calls.
//
// Why these cases (shares measured on a 4-core x86-64 host, 2 threads):
//  * output-heavy — the 1-mode cases at 0.25x nnz (as
//    bench_sec52_sparta_breakdown scales them) plus uber/uracil 2-mode
//    at 1x. Writeback + output sort take 75-95% of each call, stage ①
//    at most 13%: the sort-free output path shows here.
//  * input-heavy — the 3-mode cases at 4x nnz (110-230 ms per call).
//    Stage ① (permute+sort X, HtY build) takes 58-91%, stages ④+⑤ at
//    most ~20%: the control for output-path changes, and where
//    input-sort and hash-table changes show.
#include <array>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "contraction/contract.hpp"
#include "contraction/verify.hpp"
#include "obs/json.hpp"
#include "tensor/datasets.hpp"

namespace perfbench {
namespace {

using sparta::ContractOptions;
using sparta::ContractResult;
using sparta::SparseTensor;
using sparta::SpTCCase;
using sparta::Stage;

constexpr int kParallelThreads = 2;
constexpr int kSerialThreads = 1;
// setup_s is the median of kSetups set-ups. Only the first precedes the
// timed phase: repeated set-ups churn the allocator, so the others run
// after it.
constexpr int kSetups = 3;
constexpr int kMinRounds = 3;  // every case gets >= 3 calls per thread count

struct CaseSpec {
  const char* dataset;
  int modes;
  double nnz_scale;
};

std::vector<CaseSpec> case_specs(const std::string& workload, bool smoke) {
  std::vector<CaseSpec> out;
  if (workload == "engine_output_heavy") {
    for (const char* d : {"chicago", "nips", "uber", "vast", "uracil"}) {
      out.push_back({d, 1, 0.25});
    }
    out.push_back({"uber", 2, 1.0});
    out.push_back({"uracil", 2, 1.0});
  } else {
    for (const char* d : {"chicago", "nips", "uber", "uracil", "vast"}) {
      out.push_back({d, 3, 4.0});
    }
  }
  if (smoke) {
    for (CaseSpec& c : out) c.nnz_scale *= 0.02;
  }
  return out;
}

/// Digest of Z: every coordinate and the bit pattern of every value, in
/// storage order. Equal digests across
/// repetitions mean bitwise-identical outputs.
std::uint64_t fingerprint(const SparseTensor& z) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(z.nnz());
  for (int m = 0; m < z.order(); ++m) {
    mix(z.dim(m));
    for (sparta::index_t i : z.mode_indices(m)) mix(i);
  }
  for (double v : z.values()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  }
  return h;
}

/// What every result of one case must repeat exactly, set from the
/// first result after it passed the Freivalds check.
struct Expect {
  bool set = false;
  std::size_t nnz_z = 0;
  std::size_t multiplies = 0;
  std::uint64_t digest = 0;
};

/// The first successful 2-thread call's public result fields.
struct FirstResult {
  sparta::StageTimes stages;
  sparta::ContractStats stats;
};

struct Case {
  std::size_t idx = 0;  // into EngineRun::expects_
  SpTCCase c;
  std::vector<double> par_s;  // 2-thread call wall times
  std::vector<double> ser_s;  // 1-thread call wall times
  std::vector<double> par_traced_s;
  std::vector<double> par_untraced_s;
  std::optional<FirstResult> first;
};

/// Per-call record of traced 2-thread calls (per-layer metrics).
struct CallSample {
  double wall_s = 0.0;
  sparta::StageTimes stages;
  Usage usage;
};

class EngineRun {
 public:
  EngineRun(const RunOptions& o, Report& r) : o_(o), r_(r), spans_(1) {}

  void run();

 private:
  void setup_once(bool keep, std::vector<double>& setup_s,
                  std::vector<double>& gen_s);
  /// One contract() call, checked. Returns the wall time, or nullopt
  /// when the call threw or its output was wrong.
  std::optional<double> call(Case& k, int threads, bool traced);
  void check(Case& k, const ContractResult& res, int threads);
  void memsim_pass();
  void report_metrics(double timed_s, const Usage& timed_usage);

  const RunOptions& o_;
  Report& r_;
  std::vector<Case> cases_;
  /// Per case index; kept across setups, since the same seed must give
  /// the same inputs and therefore bitwise the same outputs.
  std::vector<Expect> expects_;
  std::vector<CallSample> traced_calls_;
  SpanRecorder spans_;
  double check_s_ = 0.0;  // time spent checking inside the setup window
};

void EngineRun::check(Case& k, const ContractResult& res, int threads) {
  const auto t0 = Clock::now();
  const std::string who = k.c.label + " @" + std::to_string(threads) + "T";
  Expect& e = expects_[k.idx];
  if (!e.set) {
    if (!sparta::verify_contraction(k.c.x, k.c.y, k.c.cx, k.c.cy, res.z)) {
      r_.fail(who + ": Freivalds check rejected Z");
    } else {
      e = {true, res.stats.nnz_z, res.stats.multiplies, fingerprint(res.z)};
    }
  } else if (res.stats.nnz_z != e.nnz_z ||
             res.stats.multiplies != e.multiplies) {
    r_.fail(who + ": nnz_z/multiplies differ from the first result");
  } else if (fingerprint(res.z) != e.digest) {
    r_.fail(who + ": Z differs bitwise from the first result");
  }
  check_s_ += seconds_since(t0);
}

std::optional<double> EngineRun::call(Case& k, int threads,
                                      bool traced) {
  ContractOptions opts;
  opts.num_threads = threads;
  ++r_.attempted;
  const Usage u0 = traced ? Usage::now() : Usage{};
  const auto t0 = Clock::now();
  std::optional<ContractResult> res;
  try {
    res.emplace(sparta::contract(k.c.x, k.c.y, k.c.cx, k.c.cy, opts));
  } catch (const std::exception& ex) {
    r_.fail(k.c.label + ": contract() threw: " + ex.what());
    return std::nullopt;
  }
  const auto t1 = Clock::now();
  const double wall = std::chrono::duration<double>(t1 - t0).count();
  if (traced) {
    CallSample s{wall, res->stage_times, Usage::now() - u0};
    const std::uint64_t id = spans_.add(
        "contract", t0, t1, 0,
        "{\"case\":" + sparta::obs::json_quote(k.c.label) +
            ",\"threads\":" + std::to_string(threads) + "}");
    auto at = t0;
    for (int st = 0; st < sparta::kNumStages; ++st) {
      const double sec = res->stage_times.seconds[st];
      spans_.add_child(std::string(sparta::stage_name(Stage(st))), at, sec,
                       id);
      at += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(sec));
    }
    if (threads == kParallelThreads) traced_calls_.push_back(s);
  }
  const std::uint64_t failed_before = r_.failed;
  check(k, *res, threads);
  if (r_.failed != failed_before) return std::nullopt;
  if (threads == kParallelThreads && !k.first) {
    k.first = FirstResult{res->stage_times, res->stats};
  }
  return wall;
}

void EngineRun::setup_once(bool keep, std::vector<double>& setup_s,
                           std::vector<double>& gen_s) {
  const auto t0 = Clock::now();
  check_s_ = 0.0;
  std::vector<Case> fresh;
  const std::vector<CaseSpec> specs = case_specs(o_.workload, o_.smoke);
  expects_.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const CaseSpec& s = specs[i];
    Case k;
    k.idx = i;
    k.c = sparta::make_sptc_case(s.dataset, s.modes, s.nnz_scale,
                                 o_.seed * 1000003ull + i);
    fresh.push_back(std::move(k));
  }
  const auto t_gen = Clock::now();
  gen_s.push_back(std::chrono::duration<double>(t_gen - t0).count());
  if (o_.trace) spans_.add("setup.generate", t0, t_gen);
  // Warm-up: one 2-thread call per case fills the allocator and the
  // OpenMP pool before anything is timed.
  for (Case& k : fresh) (void)call(k, kParallelThreads, false);
  const auto t_end = Clock::now();
  if (o_.trace) spans_.add("setup.warmup", t_gen, t_end);
  setup_s.push_back(std::chrono::duration<double>(t_end - t0).count() -
                    check_s_);
  if (keep) cases_ = std::move(fresh);
}

void EngineRun::memsim_pass() {
  MemsimTotals sim;
  for (Case& k : cases_) {
    ContractOptions opts;
    opts.num_threads = kParallelThreads;
    opts.collect_access_profile = true;
    ++r_.attempted;
    try {
      const ContractResult res =
          sparta::contract(k.c.x, k.c.y, k.c.cx, k.c.cy, opts);
      check(k, res, kParallelThreads);
      sim.add(res);
    } catch (const std::exception& ex) {
      r_.fail(k.c.label + ": profiled contract() threw: " + ex.what());
    }
  }
  sim.report(r_, "one 2-thread call per case, summed");
}

void EngineRun::run() {
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  setup_once(true, setup_s, gen_s);

  // Timed phase: rounds over every case, each case once at 2 threads
  // and once at 1 thread, alternating which goes first so slow drifts
  // of the machine hit both equally. The traced run also alternates
  // traced and untraced rounds.
  const Usage u0 = Usage::now();
  const auto t0 = Clock::now();
  int round = 0;
  while (round < kMinRounds || seconds_since(t0) < o_.seconds) {
    const bool traced = o_.trace && round % 2 == 1;
    const auto rt0 = Clock::now();
    for (Case& k : cases_) {
      const bool par_first = (round % 2 == 0);
      for (int j = 0; j < 2; ++j) {
        const bool par = (j == 0) == par_first;
        const std::optional<double> w =
            call(k, par ? kParallelThreads : kSerialThreads, traced);
        if (!w) continue;
        if (par) {
          k.par_s.push_back(*w);
          (traced ? k.par_traced_s : k.par_untraced_s).push_back(*w);
        } else {
          k.ser_s.push_back(*w);
        }
      }
    }
    if (traced) spans_.add("round", rt0, Clock::now());
    ++round;
  }
  const double timed_s = seconds_since(t0);
  const Usage timed_usage = Usage::now() - u0;
  // Peak of one set-up plus the timed phase; the later set-ups are not
  // part of what a user runs.
  const double peak_rss = peak_rss_mib();

  if (o_.trace) memsim_pass();
  report_metrics(timed_s, timed_usage);

  for (Case& k : cases_) k.c = SpTCCase{};  // free the inputs
  for (int i = 1; i < kSetups; ++i) setup_once(false, setup_s, gen_s);
  if (o_.trace) {
    r_.set("tensor.generate_s", median(gen_s), "s", gen_s.size());
    write_trace(o_.trace_path, {&spans_});
  } else {
    r_.set("setup_s", median(setup_s), "s", setup_s.size());
    r_.set("peak_rss_mb", peak_rss, "MiB", 1);
  }
}

void EngineRun::report_metrics(double timed_s, const Usage& timed_usage) {
  std::vector<double> par_med, ser_med, traced_med, untraced_med;
  std::size_t par_n = 0, ser_n = 0;
  sparta::obs::JsonWriter d;
  d.begin_object();
  d.key("threads").begin_object();
  d.key("parallel").value(kParallelThreads);
  d.key("serial").value(kSerialThreads);
  d.end_object();
  d.key("timed_seconds").value(timed_s);
  d.key("cases").begin_array();
  for (const Case& k : cases_) {
    if (k.par_s.empty() || k.ser_s.empty()) {
      r_.fail(k.c.label + ": no successful timed call");
      continue;
    }
    par_med.push_back(median(k.par_s) * 1e3);
    ser_med.push_back(median(k.ser_s) * 1e3);
    par_n += k.par_s.size();
    ser_n += k.ser_s.size();
    if (!k.par_traced_s.empty() && !k.par_untraced_s.empty()) {
      traced_med.push_back(median(k.par_traced_s));
      untraced_med.push_back(median(k.par_untraced_s));
    }
    d.begin_object();
    d.key("case").value(k.c.label);
    d.key("par_ms_p50").value(par_med.back());
    d.key("par_samples").value(static_cast<std::uint64_t>(k.par_s.size()));
    d.key("ser_ms_p50").value(ser_med.back());
    d.key("ser_samples").value(static_cast<std::uint64_t>(k.ser_s.size()));
    if (k.first) {
      const sparta::StageTimes& st = k.first->stages;
      d.key("stage_share").begin_object();
      for (int s = 0; s < sparta::kNumStages; ++s) {
        d.key(sparta::stage_name(Stage(s))).value(st.fraction(Stage(s)));
      }
      d.end_object();
      d.key("counters").raw(k.first->stats.to_json());
    }
    d.end_object();
  }
  d.end_array();
  d.end_object();
  r_.details = d.str();
  r_.context["involuntary_ctx_switches_timed"] =
      std::to_string(timed_usage.nivcsw);
  r_.context["threads_parallel"] = std::to_string(kParallelThreads);
  r_.context["threads_serial"] = std::to_string(kSerialThreads);

  if (par_med.size() != cases_.size()) return;  // failures already counted
  if (!o_.trace) {
    r_.set("case_ms_geomean", geomean(par_med), "ms", par_n);
    r_.set("serial_case_ms_geomean", geomean(ser_med), "ms", ser_n);
    return;
  }

  // --- per-layer (traced run only) -----------------------------------
  std::array<std::vector<double>, sparta::kNumStages> stage_ms;
  std::vector<double> unattributed_ms, minflt, sys_ms;
  for (const CallSample& s : traced_calls_) {
    for (int st = 0; st < sparta::kNumStages; ++st) {
      stage_ms[st].push_back(s.stages.seconds[st] * 1e3);
    }
    unattributed_ms.push_back((s.wall_s - s.stages.total()) * 1e3);
    minflt.push_back(static_cast<double>(s.usage.minflt));
    sys_ms.push_back(s.usage.sys_s * 1e3);
  }
  const std::size_t n = traced_calls_.size();
  for (int st = 0; st < sparta::kNumStages; ++st) {
    r_.set("contraction." + std::string(sparta::stage_name(Stage(st))) +
               "_ms",
           mean(stage_ms[st]), "ms", n, "mean per 2-thread call");
  }
  r_.set("contraction.unattributed_ms", mean(unattributed_ms), "ms", n,
         "wall minus the five stages, mean per 2-thread call");
  r_.set("contraction.minflt_per_call", mean(minflt), "count", n);
  r_.set("contraction.sys_ms_per_call", mean(sys_ms), "ms", n);
  r_.set("contraction.parallel_speedup", geomean(ser_med) / geomean(par_med),
         "x", par_n + ser_n, "serial / 2-thread case_ms geomean");

  double mult = 0, nnz_z = 0, hits = 0, searches = 0;
  double hty = 0, hta = 0, zlocal = 0, zb = 0;
  for (const Case& k : cases_) {
    if (!k.first) continue;
    const sparta::ContractStats& s = k.first->stats;
    mult += static_cast<double>(s.multiplies);
    nnz_z += static_cast<double>(s.nnz_z);
    hits += static_cast<double>(s.hits);
    searches += static_cast<double>(s.searches);
    hty += static_cast<double>(s.hty_bytes);
    hta += static_cast<double>(s.hta_bytes);
    zlocal += static_cast<double>(s.zlocal_bytes);
    zb += static_cast<double>(s.z_bytes);
  }
  const double mib = 1 << 20;
  const std::string per_pass = "sum over the cases, 2-thread call";
  r_.set("contraction.multiplies", mult, "count", 0, per_pass);
  r_.set("contraction.nnz_z", nnz_z, "count", 0, per_pass);
  r_.set("contraction.hit_rate", searches > 0 ? hits / searches : 0.0,
         "ratio", 0, "index-search hits / searches");
  r_.set("contraction.hty_mb", hty / mib, "MiB", 0, per_pass);
  r_.set("contraction.hta_mb", hta / mib, "MiB", 0, per_pass);
  r_.set("contraction.zlocal_mb", zlocal / mib, "MiB", 0, per_pass);
  r_.set("contraction.z_mb", zb / mib, "MiB", 0, per_pass);
  r_.set("obs.trace_overhead_frac",
         geomean(traced_med) / geomean(untraced_med) - 1.0, "ratio",
         par_n, "traced / untraced 2-thread case geomean - 1");
}

}  // namespace

void run_engine(const RunOptions& o, Report& r) { EngineRun(o, r).run(); }

}  // namespace perfbench
