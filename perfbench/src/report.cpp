// Statistics, getrusage deltas, spans and the JSON report/trace files.
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "memsim/cost_model.hpp"
#include "obs/json.hpp"
#include "simd/dispatch.hpp"

namespace perfbench {

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.minflt = ru.ru_minflt;
  u.nivcsw = ru.ru_nivcsw;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
  return u;
}

Usage Usage::operator-(const Usage& o) const {
  return {minflt - o.minflt, nivcsw - o.nivcsw, sys_s - o.sys_s};
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --------------------------------------------------------------- spans

namespace {
// One epoch for every recorder so spans from different threads line up.
const Clock::time_point kEpoch = Clock::now();

double us_since_epoch(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - kEpoch).count();
}
}  // namespace

std::uint64_t SpanRecorder::add(std::string name, Clock::time_point start,
                                Clock::time_point end, std::uint64_t parent,
                                std::string args) {
  Span s;
  s.name = std::move(name);
  s.id = ++next_id_;
  s.parent = parent;
  s.tid = tid_;
  s.start_us = us_since_epoch(start);
  s.dur_us = us_since_epoch(end) - s.start_us;
  s.args = std::move(args);
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::uint64_t SpanRecorder::add_child(std::string name,
                                      Clock::time_point start,
                                      double seconds, std::uint64_t parent) {
  const auto end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  return add(std::move(name), start, end, parent, "{\"from\":\"result\"}");
}

void write_trace(const std::string& path,
                 const std::vector<const SpanRecorder*>& recorders) {
  if (path.empty()) return;
  sparta::obs::JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (const SpanRecorder* rec : recorders) {
    for (const SpanRecorder::Span& s : rec->spans()) {
      w.begin_object();
      w.key("name").value(s.name);
      w.key("ph").value("X");
      w.key("pid").value(1);
      w.key("tid").value(s.tid);
      w.key("ts").value(s.start_us);
      w.key("dur").value(s.dur_us);
      w.key("args").begin_object();
      w.key("id").value(s.id);
      w.key("parent").value(s.parent);
      if (!s.args.empty()) w.key("detail").raw(s.args);
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  std::ofstream f(path);
  f << w.str() << '\n';
  if (!f) throw std::runtime_error("cannot write trace " + path);
}

// -------------------------------------------------------------- report

void Report::fail(const std::string& what) {
  ++failed;
  correct = false;
  if (errors.size() < 8) errors.push_back(what);
}

namespace {
/// Below every output-heavy footprint, so HtA/Z_local/Z compete for it
/// as in the paper's HM runs.
constexpr std::uint64_t kSimDramBytes = 64ull << 20;

sparta::MemoryParams sim_params() {
  sparta::MemoryParams params;
  params.dram_capacity_bytes = kSimDramBytes;
  return params;
}
}  // namespace

void MemsimTotals::add(const sparta::ContractResult& res) {
  const sparta::MemoryParams params = sim_params();
  const sparta::Placement p =
      sparta::sparta_placement(res.profile.footprint_bytes, params);
  const sparta::SimResult sim = sparta::simulate_static(res.profile, params, p);
  for (const auto& stage : sim.tier_bytes) {
    dram_b += static_cast<double>(stage[0]);
    pmm_b += static_cast<double>(stage[1]);
  }
  sim_s += sim.total_seconds();
}

void MemsimTotals::report(Report& r, const std::string& what) const {
  const std::string note =
      "computed by memsim at a simulated DRAM capacity of 64 MiB, " + what;
  r.set("memsim.dram_mb", dram_b / (1 << 20), "MiB", 0, note);
  r.set("memsim.pmm_mb", pmm_b / (1 << 20), "MiB", 0, note);
  r.set("memsim.sim_s", sim_s, "s", 0, note);
}

void stamp_context(Report& r, const RunOptions& o) {
  using sparta::obs::json_number;
  using sparta::obs::json_quote;
  auto env = [](const char* name) {
    const char* v = std::getenv(name);
    return json_quote(v == nullptr ? "unset" : v);
  };
  r.context["workload"] = json_quote(o.workload);
  r.context["seed"] = std::to_string(o.seed);
  r.context["seconds"] = json_number(o.seconds);
  r.context["trace"] = o.trace ? "true" : "false";
  r.context["smoke"] = o.smoke ? "true" : "false";
  r.context["git_sha"] = json_quote(o.git_sha.empty() ? "unavailable"
                                                       : o.git_sha);
  r.context["src_digest"] = json_quote(o.src_digest);
  r.context["nproc"] = std::to_string(std::thread::hardware_concurrency());
  r.context["omp_max_threads"] = std::to_string(omp_get_max_threads());
  r.context["omp_proc_bind"] = env("OMP_PROC_BIND");
  r.context["omp_places"] = env("OMP_PLACES");
  r.context["simd_native"] =
      json_quote(sparta::simd::isa_name(sparta::simd::detect_native_isa()));
  r.context["simd_active"] = json_quote(sparta::simd::isa_name(
      sparta::simd::resolve_isa(std::getenv("SPARTA_SIMD"))));
  r.context["failpoints"] = env("SPARTA_FAILPOINTS");
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) >= 1) {
    r.context["loadavg_1min_at_start"] = json_number(load[0]);
  }
}

void write_report(const Report& r, const RunOptions& o) {
  if (o.report_path.empty()) return;
  sparta::obs::JsonWriter w;
  w.begin_object();
  w.key("correct").value(r.correct);
  w.key("attempted").value(r.attempted);
  w.key("failed").value(r.failed);
  w.key("errors").begin_array();
  for (const std::string& e : r.errors) w.value(e);
  w.end_array();
  w.key("context").begin_object();
  for (const auto& [k, v] : r.context) w.key(k).raw(v);
  w.end_object();
  w.key("metrics").begin_object();
  for (const auto& [name, m] : r.metrics) {
    w.key(name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.key("samples").value(static_cast<std::uint64_t>(m.samples));
    if (!m.note.empty()) w.key("note").value(m.note);
    w.end_object();
  }
  w.end_object();
  w.key("details").raw(r.details.empty() ? "{}" : r.details);
  w.end_object();
  std::ofstream f(o.report_path);
  f << w.str() << '\n';
  if (!f) throw std::runtime_error("cannot write report " + o.report_path);
}

}  // namespace perfbench
