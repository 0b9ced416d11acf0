// Shared pieces of the end-to-end benchmark: run options, sample
// statistics, getrusage deltas, the benchmark's own span recorder and
// the report every workload fills.
//
// Everything here measures the library from outside: spans wrap calls
// into public functions, and child durations come from the public
// result structs (ContractResult, ServeReport, PlanExecution).
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "contraction/contract.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs so all workloads finish in seconds (the self-test).
  bool smoke = false;
  std::string report_path;  ///< full JSON report (context + samples)
  std::string trace_path;   ///< Chrome trace of the traced run
  std::string git_sha;      ///< passed in; the checkout may lack .git
  std::string src_digest;   ///< content hash of the library sources
};

// ---------------------------------------------------------------- stats

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 1].
[[nodiscard]] double percentile(std::vector<double> v, double p);
/// Samples strictly above the nearest-rank p-percentile position.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);
[[nodiscard]] double geomean(const std::vector<double>& v);
[[nodiscard]] double mean(const std::vector<double>& v);

// -------------------------------------------------------------- rusage

struct Usage {
  std::int64_t minflt = 0;
  std::int64_t nivcsw = 0;  ///< involuntary context switches
  double sys_s = 0.0;

  [[nodiscard]] static Usage now();
  [[nodiscard]] Usage operator-(const Usage& o) const;
};

/// Peak resident set size of this process so far, MiB.
[[nodiscard]] double peak_rss_mib();

// --------------------------------------------------------------- clock

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --------------------------------------------------------------- spans

/// In-memory span list, written out as a Chrome trace when the run
/// ends. Only the engine caller thread and the serve clients record,
/// each into its own recorder, so no locking is needed.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    int tid = 0;
    double start_us = 0.0;
    double dur_us = 0.0;
    std::string args;  ///< JSON object text, may be empty
  };

  explicit SpanRecorder(int tid, std::uint64_t id_base = 0)
      : tid_(tid), next_id_(id_base) {}

  /// Records a finished span; returns its id for children.
  std::uint64_t add(std::string name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent = 0,
                    std::string args = {});

  /// Records a child whose duration comes from a result struct, laid
  /// out from `start` (the struct gives lengths, not timestamps).
  std::uint64_t add_child(std::string name, Clock::time_point start,
                          double seconds, std::uint64_t parent);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  int tid_;
  std::uint64_t next_id_;
  std::vector<Span> spans_;
};

/// Writes every recorder's spans as one Chrome/Perfetto trace file.
void write_trace(const std::string& path,
                 const std::vector<const SpanRecorder*>& recorders);

// -------------------------------------------------------------- report

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< 0 = a count or a derived ratio
  std::string note;         ///< e.g. "computed" or a percentile caveat
};

struct Report {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;  ///< first few failure messages
  std::map<std::string, std::string> context;  ///< JSON value texts
  std::string details;  ///< workload-specific JSON object text

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0, std::string note = {}) {
    metrics[name] = Metric{value, unit, samples, std::move(note)};
  }
  /// Counts one failed operation (the caller already counted it as
  /// attempted) and keeps its message for the report.
  void fail(const std::string& what);
};

/// The paper's heterogeneous-memory traffic of profiled contract() calls,
/// computed by memsim (sparta_placement + simulate_static at a simulated
/// DRAM capacity of 64 MiB), not measured.
struct MemsimTotals {
  double dram_b = 0.0;
  double pmm_b = 0.0;
  double sim_s = 0.0;

  /// Adds one call made with collect_access_profile set.
  void add(const sparta::ContractResult& res);
  /// Sets memsim.{dram_mb,pmm_mb,sim_s}; `what` names the calls summed.
  void report(Report& r, const std::string& what) const;
};

/// Fills the context stamp every report carries.
void stamp_context(Report& r, const RunOptions& o);
/// Writes the full report as JSON to o.report_path.
void write_report(const Report& r, const RunOptions& o);

// ----------------------------------------------------------- workloads

void run_engine(const RunOptions& o, Report& r);
void run_serve_mixed(const RunOptions& o, Report& r);

}  // namespace perfbench
