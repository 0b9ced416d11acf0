// serve_mixed: two closed-loop clients feed one ContractionService
// (2 workers x 1 OpenMP thread, every other ServeConfig field at its
// default). Two request classes share the registry, plan cache and
// workers:
//  * reads — pairwise requests on operands registered at setup; after
//    the warm-up every one is served from a cached HtY. They are kept
//    small (a few ms) so per-request service overhead is a visible
//    share of their latency.
//  * writes — PlanExecutor::run on the bench_plan funnel chain
//    Z[i,m] = A[i,j]*B[j,k]*C[k,l]*D[l,m] and on a cheaper 3-operand
//    chain, each registering and dropping __tmp/ intermediates.
// Each client issues 7 reads then 1 write, and every 4th write is the
// 3-operand chain. That chain is much faster than the funnel, so the
// chain p50 and p90 both fall inside the funnel class, never on the
// boundary between the two.
//
// The timed phase alternates concurrent slices (both clients) with
// serial slices (client 0 alone, so one request at a time), so slow
// drifts of the machine hit both equally. The case metrics take the
// three request classes (read, funnel chain, 3-operand chain) as their
// cases.
#include <algorithm>
#include <array>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "contraction/contract.hpp"
#include "contraction/verify.hpp"
#include "obs/json.hpp"
#include "plan/executor.hpp"
#include "plan/ir.hpp"
#include "plan/planner.hpp"
#include "serve/service.hpp"
#include "tensor/generators.hpp"

namespace perfbench {
namespace {

using sparta::Algorithm;
using sparta::SparseTensor;
using sparta::plan::ContractionNetwork;
using sparta::plan::PlanExecution;
using sparta::plan::PlanExecutor;
using sparta::serve::ContractionService;
using sparta::serve::ServeReport;
using sparta::serve::ServeRequest;

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr int kThreadsPerRequest = 1;
// setup_s is the median of kSetups set-ups. Only the first precedes the
// timed phase: repeated set-ups churn the allocator and slowed the
// chains that followed by about 10%, so the others run after it.
constexpr int kSetups = 9;
constexpr int kReadsPerWrite = 7;
constexpr int kFunnelsPerTri = 3;
// Samples each class gets at least in each mode, so medians exist at
// smoke size.
constexpr std::size_t kMinPerClass = 5;

enum Class { kReadClass, kFunnelClass, kTriClass, kNumClasses };
constexpr std::array<const char*, kNumClasses> kClassNames = {
    "read", "funnel_chain", "tri_chain"};

struct Operand {
  const char* name;
  std::vector<sparta::index_t> dims;
  std::size_t nnz;
};

// Reads contract X_i[a,b,c] with Y_j[b,c,d] over (b,c).
const std::vector<Operand> kReadX = {
    {"X0", {4096, 256, 256}, 8000},
    {"X1", {4096, 256, 256}, 8000},
    {"X2", {4096, 256, 256}, 8000},
};
const std::vector<Operand> kReadY = {
    {"Y0", {256, 256, 96}, 30000},
    {"Y1", {256, 256, 96}, 30000},
};
// The bench_plan funnel: A*B first would materialise a wide 256x256
// intermediate; the planned order folds D and C into 4-wide tails.
const std::vector<Operand> kFunnel = {
    {"A", {256, 256}, 20000},
    {"B", {256, 256}, 20000},
    {"C", {256, 256}, 2000},
    {"D", {256, 4}, 512},
};
const std::vector<Operand> kTri = {
    {"P", {512, 256}, 3000},
    {"Q", {256, 256}, 3000},
    {"R", {256, 32}, 1000},
};
constexpr const char* kFunnelExpr =
    "Z[i,m] = A[i,j] * B[j,k] * C[k,l] * D[l,m]";
constexpr const char* kTriExpr = "W[i,l] = P[i,j] * Q[j,k] * R[k,l]";

/// Exact counts one request shape must repeat on every execution.
struct Expect {
  bool set = false;
  std::vector<std::size_t> counts;
};

/// Engine work of one execution of a request shape (summed over a
/// chain's steps): the fingerprint behind the contraction.* counts.
struct ShapeWork {
  double multiplies = 0, nnz_z = 0, hty_b = 0, hta_b = 0, zlocal_b = 0,
         z_b = 0;

  void add(const sparta::ContractStats& s) {
    multiplies += static_cast<double>(s.multiplies);
    nnz_z += static_cast<double>(s.nnz_z);
    hty_b += static_cast<double>(s.hty_bytes);
    hta_b += static_cast<double>(s.hta_bytes);
    zlocal_b += static_cast<double>(s.zlocal_bytes);
    z_b += static_cast<double>(s.z_bytes);
  }
};

/// Where a request ran: which slice mode and whether it was traced.
struct SliceMode {
  bool serial = false;
  bool traced = false;
};

struct PairSample {
  double latency_s = 0.0;
  double queue_s = 0.0;
  double exec_s = 0.0;
  SliceMode mode;
};

struct ChainSample {
  bool funnel = true;
  SliceMode mode;
  double wall_s = 0.0;
  double plan_s = 0.0;
  double step_sum_s = 0.0;  // sum of step queue + exec
  std::size_t peak_temp_bytes = 0;
  bool plan_cache_hit = false;
};

/// One engine call inside the service (a read or a chain step).
struct EngineSample {
  Algorithm variant = Algorithm::kSparta;
  sparta::StageTimes stages;
  double exec_s = 0.0;
  std::size_t hits = 0;
  std::size_t searches = 0;
};

struct ClientLog {
  std::uint64_t attempted = 0;
  std::uint64_t concurrent_ok = 0;  // completed in concurrent slices
  std::size_t reads = 0;  // position in the client's request sequence
  std::size_t writes = 0;
  std::vector<std::string> failures;
  std::vector<PairSample> pairs;
  std::vector<ChainSample> chains;
  std::vector<EngineSample> engine;
  std::size_t max_live_bytes = 0;
  double check_s = 0.0;  // time spent checking outputs
};

class ServeRun {
 public:
  ServeRun(const RunOptions& o, Report& r) : o_(o), r_(r) {}
  void run();

 private:
  struct World {
    std::unique_ptr<ContractionService> svc;
    std::unique_ptr<PlanExecutor> exec;
  };

  SparseTensor make(const Operand& op, std::uint64_t salt) const;
  /// Every operand, generated from the run's seed.
  std::vector<std::pair<std::string, SparseTensor>> operands() const;
  World setup_once(std::vector<double>& setup_s, std::vector<double>& gen_s);
  /// Runs each network in left-to-right order on a service of its own,
  /// so the timed service starts without that run's cache and selector
  /// state.
  void make_references();
  /// One read or chain, with its output checked; failures are logged.
  void read(World& w, std::size_t combo, ClientLog& log, SliceMode mode,
            SpanRecorder* spans, bool warmup = false);
  void chain(World& w, bool funnel, ClientLog& log, SliceMode mode,
             SpanRecorder* spans);
  void check_counts(const std::string& key, std::vector<std::size_t> counts,
                    const ShapeWork& work, ClientLog& log);
  /// Client `id` sends its next requests until `deadline`.
  void client_slice(World& w, int id, Clock::time_point deadline,
                    SliceMode mode, ClientLog& log, SpanRecorder& spans);
  /// Every class has kMinPerClass samples in both slice modes.
  [[nodiscard]] static bool enough(const std::vector<ClientLog>& logs);
  /// memsim over one profiled call per read shape (traced run only).
  void memsim_pass(World& w);
  void report(World& w, const std::vector<ClientLog>& logs,
              const std::array<double, 2>& mode_s,
              const Usage& timed_usage,
              const sparta::serve::PlanCache::Stats& cache0,
              const sparta::serve::PlanCache::Stats& cache1,
              const ContractionService::AdmissionStats& adm0,
              const ContractionService::AdmissionStats& adm1,
              const std::vector<double>& search_ms);

  [[nodiscard]] std::size_t combos() const {
    return kReadX.size() * kReadY.size();
  }

  const RunOptions& o_;
  Report& r_;
  ContractionNetwork funnel_net_ = sparta::plan::parse_network(kFunnelExpr);
  ContractionNetwork tri_net_ = sparta::plan::parse_network(kTriExpr);
  /// Left-to-right plan_fixed_order results, made once at setup.
  std::shared_ptr<const SparseTensor> funnel_ref_;
  std::shared_ptr<const SparseTensor> tri_ref_;
  std::mutex expect_mu_;
  std::map<std::string, Expect> expects_;
  std::map<std::string, ShapeWork> work_;  // guarded by expect_mu_
  SpanRecorder setup_spans_{9, 4ull << 40};
};

SparseTensor ServeRun::make(const Operand& op, std::uint64_t salt) const {
  sparta::GeneratorSpec spec;
  spec.dims = op.dims;
  const double scale = o_.smoke ? 0.05 : 1.0;
  spec.nnz = std::max<std::size_t>(
      64, static_cast<std::size_t>(static_cast<double>(op.nnz) * scale));
  spec.seed = o_.seed * 7919ull + salt;
  return sparta::generate_random(spec);
}

void ServeRun::check_counts(const std::string& key,
                            std::vector<std::size_t> counts,
                            const ShapeWork& work, ClientLog& log) {
  std::lock_guard<std::mutex> lock(expect_mu_);
  Expect& e = expects_[key];
  if (!e.set) {
    e.set = true;
    e.counts = std::move(counts);
    work_[key] = work;
  } else if (e.counts != counts) {
    log.failures.push_back(key + ": exact counts differ from the first run");
  }
}

void ServeRun::read(World& w, std::size_t combo, ClientLog& log,
                    SliceMode mode, SpanRecorder* spans, bool warmup) {
  const Operand& x = kReadX[combo / kReadY.size()];
  const Operand& y = kReadY[combo % kReadY.size()];
  ServeRequest req;
  req.x = x.name;
  req.y = y.name;
  req.cx = {1, 2};
  req.cy = {0, 1};
  // Warm-up reads pin HtY+HtA so each Y's HtY is built and retained by
  // its first request; timed reads go through the default selector,
  // which keeps every cached-plan request on HtY+HtA.
  req.force_variant = warmup;
  ++log.attempted;
  const auto t0 = Clock::now();
  ServeReport rep;
  try {
    rep = w.svc->submit(std::move(req)).get();
  } catch (const std::exception& ex) {
    log.failures.push_back(std::string("read submit threw: ") + ex.what());
    return;
  }
  const auto t1 = Clock::now();
  const double lat = std::chrono::duration<double>(t1 - t0).count();
  if (spans != nullptr) {
    const std::uint64_t id = spans->add(
        "serve.submit_get", t0, t1, 0,
        "{\"x\":\"" + std::string(x.name) + "\",\"y\":\"" + y.name + "\"}");
    spans->add_child("serve.queue", t0, rep.queue_seconds, id);
    spans->add_child("serve.exec",
                     t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  rep.queue_seconds)),
                     rep.exec_seconds, id);
  }
  const std::string who = std::string("read ") + x.name + "*" + y.name;
  if (!rep.ok() || rep.rejected || rep.z == nullptr) {
    log.failures.push_back(who + ": " +
                           (rep.error.empty() ? "no result" : rep.error));
    return;
  }
  // Check outside the timed interval: the closed-loop client does it
  // before issuing its next request (its think time).
  const auto c0 = Clock::now();
  const std::size_t before = log.failures.size();
  const auto hx = w.svc->tensors().get(x.name);
  const auto hy = w.svc->tensors().get(y.name);
  // One Freivalds trial per read: every result is checked, and a wrong Z
  // passes only if its error happens to vanish against the random
  // test vectors.
  sparta::VerifyOptions vo;
  vo.trials = 1;
  if (!sparta::verify_contraction(*hx.tensor, *hy.tensor, {1, 2}, {0, 1},
                                  *rep.z, vo)) {
    log.failures.push_back(who + ": Freivalds check rejected Z");
  }
  ShapeWork work;
  work.add(rep.stats);
  check_counts(who, {rep.stats.nnz_z, rep.stats.multiplies}, work, log);
  log.check_s += seconds_since(c0);
  if (log.failures.size() != before) return;
  log.pairs.push_back({lat, rep.queue_seconds, rep.exec_seconds, mode});
  log.engine.push_back({rep.variant, rep.stage_times, rep.exec_seconds,
                        rep.stats.hits, rep.stats.searches});
  if (!mode.serial) ++log.concurrent_ok;
}

void ServeRun::chain(World& w, bool funnel, ClientLog& log, SliceMode mode,
                     SpanRecorder* spans) {
  const ContractionNetwork& net = funnel ? funnel_net_ : tri_net_;
  ++log.attempted;
  const auto t0 = Clock::now();
  PlanExecution ex = w.exec->run(net);
  const auto t1 = Clock::now();
  const double wall = std::chrono::duration<double>(t1 - t0).count();
  const std::string who = funnel ? "funnel chain" : "3-operand chain";
  if (!ex.ok() || ex.z == nullptr) {
    log.failures.push_back(who + ": " + ex.error);
    return;
  }
  ChainSample s;
  s.funnel = funnel;
  s.mode = mode;
  s.wall_s = wall;
  s.plan_s = ex.plan_seconds;
  s.peak_temp_bytes = ex.peak_temp_bytes;
  s.plan_cache_hit = ex.plan_cache_hit;
  for (const ServeReport& st : ex.steps) {
    s.step_sum_s += st.queue_seconds + st.exec_seconds;
  }
  if (spans != nullptr) {
    const std::uint64_t id = spans->add("plan.run", t0, t1, 0,
                                        "{\"net\":\"" + who + "\"}");
    spans->add_child("plan.lookup_or_search", t0, ex.plan_seconds, id);
    auto at = t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(ex.plan_seconds));
    for (const ServeReport& st : ex.steps) {
      const double d = st.queue_seconds + st.exec_seconds;
      spans->add_child("plan.step", at, d, id);
      at += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(d));
    }
  }
  const auto c0 = Clock::now();
  const std::size_t before = log.failures.size();
  const auto& ref = funnel ? funnel_ref_ : tri_ref_;
  if (ref != nullptr && !SparseTensor::approx_equal(*ex.z, *ref, 1e-9)) {
    log.failures.push_back(who + ": result differs from the fixed-order "
                                 "reference");
  }
  std::vector<std::size_t> counts = {ex.steps.size(), ex.z->nnz()};
  ShapeWork work;
  for (const ServeReport& st : ex.steps) {
    counts.push_back(st.stats.nnz_z);
    work.add(st.stats);
  }
  check_counts(who, std::move(counts), work, log);
  log.check_s += seconds_since(c0);
  if (log.failures.size() != before) return;
  for (const ServeReport& st : ex.steps) {
    log.engine.push_back({st.variant, st.stage_times, st.exec_seconds,
                          st.stats.hits, st.stats.searches});
  }
  log.chains.push_back(s);
  if (!mode.serial) ++log.concurrent_ok;
}

ServeRun::World ServeRun::setup_once(std::vector<double>& setup_s,
                                     std::vector<double>& gen_s) {
  const auto t0 = Clock::now();
  std::vector<std::pair<std::string, SparseTensor>> tensors = operands();
  const auto t_gen = Clock::now();
  gen_s.push_back(std::chrono::duration<double>(t_gen - t0).count());
  setup_spans_.add("setup.generate", t0, t_gen);

  sparta::serve::ServeConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.threads_per_request = kThreadsPerRequest;
  World w;
  w.svc = std::make_unique<ContractionService>(cfg);
  for (auto& [name, t] : tensors) w.svc->load(name, std::move(t));
  w.exec = std::make_unique<PlanExecutor>(*w.svc);
  const auto t_load = Clock::now();
  setup_spans_.add("setup.load", t_gen, t_load);

  // Warm-up: every read shape once (builds and retains each HtY), every
  // network once (fills the network plan cache). The spans include the
  // output checks, which setup_s leaves out.
  ClientLog warm;
  for (std::size_t c = 0; c < combos(); ++c) {
    read(w, c, warm, {}, nullptr, true);
  }
  const auto t_reads = Clock::now();
  setup_spans_.add("setup.warmup_reads", t_load, t_reads);
  // The selector tries each variant once per new contraction key before
  // it exploits; run each chain once per variant so that seeding round
  // is over before the timed phase.
  for (std::size_t i = 0; i < sparta::serve::VariantSelector::kVariants.size();
       ++i) {
    chain(w, true, warm, {}, nullptr);
    chain(w, false, warm, {}, nullptr);
  }
  setup_spans_.add("setup.warmup_chains", t_reads, Clock::now());
  setup_s.push_back(seconds_since(t0) - warm.check_s);
  r_.attempted += warm.attempted;
  for (const std::string& f : warm.failures) r_.fail("setup " + f);
  return w;
}

std::vector<std::pair<std::string, SparseTensor>> ServeRun::operands()
    const {
  std::vector<std::pair<std::string, SparseTensor>> out;
  std::uint64_t salt = 0;
  for (const auto* group : {&kReadX, &kReadY, &kFunnel, &kTri}) {
    for (const Operand& op : *group) {
      out.emplace_back(op.name, make(op, ++salt));
    }
  }
  return out;
}

void ServeRun::make_references() {
  sparta::serve::ServeConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.threads_per_request = kThreadsPerRequest;
  World w;
  w.svc = std::make_unique<ContractionService>(cfg);
  for (auto& [name, t] : operands()) w.svc->load(name, std::move(t));
  w.exec = std::make_unique<PlanExecutor>(*w.svc);
  auto fixed = [&](const ContractionNetwork& net) {
    std::vector<sparta::plan::BoundInput> inputs;
    for (const auto& t : net.inputs) {
      const auto h = w.svc->tensors().get(t.name);
      inputs.push_back({t.name, h.tensor->dims(), h.tensor->nnz(), h.id});
    }
    std::vector<std::size_t> order(net.inputs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    ++r_.attempted;
    PlanExecution ex = w.exec->run_plan(
        net, std::make_shared<sparta::plan::NetworkPlan>(
                 sparta::plan::plan_fixed_order(net, inputs, order)));
    if (!ex.ok()) r_.fail("fixed-order reference failed: " + ex.error);
    return ex.z;
  };
  funnel_ref_ = fixed(funnel_net_);
  tri_ref_ = fixed(tri_net_);
}

void ServeRun::client_slice(World& w, int id, Clock::time_point deadline,
                            SliceMode mode, ClientLog& log,
                            SpanRecorder& spans) {
  SpanRecorder* sp = mode.traced ? &spans : nullptr;
  try {
    while (Clock::now() < deadline) {
      if ((log.reads + log.writes) % (kReadsPerWrite + 1) == kReadsPerWrite) {
        const bool funnel =
            log.writes % (kFunnelsPerTri + 1) != kFunnelsPerTri;
        chain(w, funnel, log, mode, sp);
        ++log.writes;
      } else {
        const std::size_t combo = (log.reads * 5 + id * 3) % combos();
        read(w, combo, log, mode, sp);
        ++log.reads;
      }
      log.max_live_bytes = std::max(log.max_live_bytes, w.svc->live_bytes());
    }
  } catch (const std::exception& ex) {
    log.failures.push_back(std::string("client aborted: ") + ex.what());
  }
}

bool ServeRun::enough(const std::vector<ClientLog>& logs) {
  std::array<std::array<std::size_t, kNumClasses>, 2> n{};
  for (const ClientLog& log : logs) {
    if (!log.failures.empty()) return true;  // stop; failures are reported
    for (const PairSample& p : log.pairs) ++n[p.mode.serial][kReadClass];
    for (const ChainSample& c : log.chains) {
      ++n[c.mode.serial][c.funnel ? kFunnelClass : kTriClass];
    }
  }
  for (const auto& mode : n) {
    for (std::size_t k : mode) {
      if (k < kMinPerClass) return false;
    }
  }
  return true;
}

void ServeRun::memsim_pass(World& w) {
  MemsimTotals sim;
  for (std::size_t c = 0; c < combos(); ++c) {
    const Operand& x = kReadX[c / kReadY.size()];
    const Operand& y = kReadY[c % kReadY.size()];
    const auto hx = w.svc->tensors().get(x.name);
    const auto hy = w.svc->tensors().get(y.name);
    sparta::ContractOptions opts;
    opts.num_threads = kThreadsPerRequest;
    opts.collect_access_profile = true;
    ++r_.attempted;
    const std::string who =
        std::string("profiled read ") + x.name + "*" + y.name;
    try {
      const sparta::ContractResult res = sparta::contract(
          *hx.tensor, *hy.tensor, {1, 2}, {0, 1}, opts);
      if (!sparta::verify_contraction(*hx.tensor, *hy.tensor, {1, 2},
                                      {0, 1}, res.z)) {
        r_.fail(who + ": Freivalds check rejected Z");
      }
      sim.add(res);
    } catch (const std::exception& ex) {
      r_.fail(who + " threw: " + ex.what());
    }
  }
  sim.report(r_, "one 1-thread contract() per read shape, summed");
}

void ServeRun::run() {
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  make_references();
  World w = setup_once(setup_s, gen_s);
  if (!r_.correct) return;

  const auto cache0 = w.svc->cache_stats();
  const auto adm0 = w.svc->admission_stats();
  std::vector<ClientLog> logs(kClients);
  std::vector<SpanRecorder> spans;
  for (int c = 0; c < kClients; ++c) {
    spans.emplace_back(10 + c, static_cast<std::uint64_t>(c + 1) << 40);
  }
  // Slices alternate concurrent, serial; a traced run traces every
  // other pair of slices.
  const double slice_s = std::min(1.0, o_.seconds / 8);
  std::array<double, 2> mode_s{};  // time spent concurrent, serial
  const Usage u0 = Usage::now();
  const auto t0 = Clock::now();
  for (long slice = 0; seconds_since(t0) < o_.seconds || !enough(logs);
       ++slice) {
    const SliceMode mode{slice % 2 == 1, o_.trace && (slice / 2) % 2 == 1};
    const auto s0 = Clock::now();
    const auto deadline =
        s0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(slice_s));
    if (mode.serial) {
      client_slice(w, 0, deadline, mode, logs[0], spans[0]);
    } else {
      std::vector<std::thread> threads;
      for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          client_slice(w, c, deadline, mode, logs[c], spans[c]);
        });
      }
      for (std::thread& t : threads) t.join();
    }
    mode_s[mode.serial] += seconds_since(s0);
  }
  const Usage timed_usage = Usage::now() - u0;
  // Peak of one set-up plus the timed phase; the later set-ups are not
  // part of what a user runs.
  const double peak_rss = peak_rss_mib();
  const auto cache1 = w.svc->cache_stats();
  const auto adm1 = w.svc->admission_stats();

  // Order search cost, timed directly (the executor's cache hides it).
  std::vector<double> search_ms;
  if (o_.trace) {
    SpanRecorder plan_spans(20, 3ull << 40);
    for (const ContractionNetwork* net : {&funnel_net_, &tri_net_}) {
      std::vector<sparta::plan::BoundInput> inputs;
      for (const auto& t : net->inputs) {
        const auto h = w.svc->tensors().get(t.name);
        inputs.push_back({t.name, h.tensor->dims(), h.tensor->nnz(), h.id});
      }
      std::vector<double> ms;
      for (int i = 0; i < 25; ++i) {
        const auto p0 = Clock::now();
        const auto plan = sparta::plan::plan_network(*net, inputs);
        const auto p1 = Clock::now();
        plan_spans.add("plan_network", p0, p1);
        ms.push_back(std::chrono::duration<double, std::milli>(p1 - p0)
                         .count());
      }
      search_ms.push_back(median(ms));
    }
    spans.push_back(std::move(plan_spans));
  }
  if (o_.trace) memsim_pass(w);
  report(w, logs, mode_s, timed_usage, cache0, cache1, adm0, adm1,
         search_ms);
  w.exec.reset();  // holds a reference to the service
  w.svc.reset();

  for (int i = 1; i < kSetups; ++i) (void)setup_once(setup_s, gen_s);
  if (o_.trace) {
    r_.set("tensor.generate_s", median(gen_s), "s", gen_s.size());
    std::vector<const SpanRecorder*> recs;
    for (const SpanRecorder& s : spans) recs.push_back(&s);
    recs.push_back(&setup_spans_);
    write_trace(o_.trace_path, recs);
  } else {
    r_.set("setup_s", median(setup_s), "s", setup_s.size());
    r_.set("peak_rss_mb", peak_rss, "MiB", 1);
  }
}

void ServeRun::report(World& w, const std::vector<ClientLog>& logs,
                      const std::array<double, 2>& mode_s,
                      const Usage& timed_usage,
                      const sparta::serve::PlanCache::Stats& cache0,
                      const sparta::serve::PlanCache::Stats& cache1,
                      const ContractionService::AdmissionStats& adm0,
                      const ContractionService::AdmissionStats& adm1,
                      const std::vector<double>& search_ms) {
  // Latency by slice mode (0 concurrent, 1 serial) and request class.
  std::array<std::array<std::vector<double>, kNumClasses>, 2> lat_ms;
  // Concurrent slices; chain_ms holds the funnel class only, so its
  // percentiles stay inside one request class.
  std::vector<double> pair_ms, chain_ms;
  std::vector<double> traced_pair_ms, untraced_pair_ms;
  std::vector<double> queue_ms, exec_ms, overhead_ms;
  std::vector<double> step_sum_ms, interstep_ms;
  std::vector<EngineSample> engine;
  std::uint64_t concurrent_ok = 0;
  std::size_t max_live = 0, peak_temp = 0, plan_hits = 0, funnels = 0;
  std::size_t chains = 0;
  for (const ClientLog& log : logs) {
    r_.attempted += log.attempted;
    for (const std::string& f : log.failures) r_.fail(f);
    chains += log.chains.size();
    concurrent_ok += log.concurrent_ok;
    max_live = std::max(max_live, log.max_live_bytes);
    for (const PairSample& p : log.pairs) {
      lat_ms[p.mode.serial][kReadClass].push_back(p.latency_s * 1e3);
      if (p.mode.serial) continue;
      pair_ms.push_back(p.latency_s * 1e3);
      (p.mode.traced ? traced_pair_ms : untraced_pair_ms)
          .push_back(p.latency_s * 1e3);
      queue_ms.push_back(p.queue_s * 1e3);
      exec_ms.push_back(p.exec_s * 1e3);
      overhead_ms.push_back((p.latency_s - p.queue_s - p.exec_s) * 1e3);
    }
    for (const ChainSample& c : log.chains) {
      const Class k = c.funnel ? kFunnelClass : kTriClass;
      lat_ms[c.mode.serial][k].push_back(c.wall_s * 1e3);
      step_sum_ms.push_back(c.step_sum_s * 1e3);
      interstep_ms.push_back((c.wall_s - c.plan_s - c.step_sum_s) * 1e3);
      peak_temp = std::max(peak_temp, c.peak_temp_bytes);
      plan_hits += c.plan_cache_hit ? 1 : 0;
      funnels += c.funnel ? 1 : 0;
      if (!c.mode.serial && c.funnel) chain_ms.push_back(c.wall_s * 1e3);
    }
    engine.insert(engine.end(), log.engine.begin(), log.engine.end());
  }
  auto pnote = [](std::size_t n, double p) {
    const std::size_t beyond = samples_beyond(n, p);
    return std::to_string(beyond) + " samples beyond" +
           (beyond < 10 ? " (fewer than 10: not supported)" : "");
  };

  sparta::obs::JsonWriter d;
  d.begin_object();
  d.key("clients").value(kClients);
  d.key("workers").value(w.svc->workers());
  d.key("threads_per_request").value(w.svc->threads_per_request());
  d.key("concurrent_seconds").value(mode_s[0]);
  d.key("serial_seconds").value(mode_s[1]);
  d.key("classes").begin_array();
  for (int k = 0; k < kNumClasses; ++k) {
    d.begin_object();
    d.key("class").value(kClassNames[k]);
    for (int m = 0; m < 2; ++m) {
      const std::string mode = m == 0 ? "concurrent" : "serial";
      d.key(mode + "_ms_p50").value(median(lat_ms[m][k]));
      d.key(mode + "_samples")
          .value(static_cast<std::uint64_t>(lat_ms[m][k].size()));
    }
    d.end_object();
  }
  d.end_array();
  d.key("funnel_chains").value(static_cast<std::uint64_t>(funnels));
  double check_s = 0;
  for (const ClientLog& log : logs) check_s += log.check_s;
  d.key("client_check_seconds").value(check_s);
  d.key("service_counters").raw(w.svc->counters_json());
  d.end_object();
  r_.details = d.str();
  r_.context["involuntary_ctx_switches_timed"] =
      std::to_string(timed_usage.nivcsw);
  r_.context["serve_workers"] = std::to_string(w.svc->workers());
  r_.context["serve_threads_per_request"] =
      std::to_string(w.svc->threads_per_request());
  r_.context["serve_clients_concurrent"] = std::to_string(kClients);
  r_.context["serve_clients_serial"] = "1";
  std::array<std::vector<double>, 2> class_med;
  std::array<std::size_t, 2> class_n{};
  for (int m = 0; m < 2; ++m) {
    for (const std::vector<double>& v : lat_ms[m]) {
      if (v.empty()) continue;
      class_med[m].push_back(median(v));
      class_n[m] += v.size();
    }
  }
  if (class_med[0].size() != kNumClasses ||
      class_med[1].size() != kNumClasses) {
    r_.fail("a request class had no successful request in a slice mode");
    return;
  }

  if (!o_.trace) {
    r_.set("case_ms_geomean", geomean(class_med[0]), "ms", class_n[0],
           "cases: read, funnel chain, 3-operand chain; 2 clients");
    r_.set("serial_case_ms_geomean", geomean(class_med[1]), "ms",
           class_n[1], "the same classes, 1 client");
    // Service views of the concurrent slices, reported but not gated.
    r_.set("pair_ms_p50", median(pair_ms), "ms", pair_ms.size());
    r_.set("pair_ms_p90", percentile(pair_ms, 0.9), "ms", pair_ms.size(),
           pnote(pair_ms.size(), 0.9));
    r_.set("chain_ms_p50", median(chain_ms), "ms", chain_ms.size());
    r_.set("chain_ms_p90", percentile(chain_ms, 0.9), "ms",
           chain_ms.size(), pnote(chain_ms.size(), 0.9));
    r_.set("requests_per_s", static_cast<double>(concurrent_ok) / mode_s[0],
           "1/s", concurrent_ok, "concurrent slices");
    return;
  }

  // --- per-layer (traced run only) -----------------------------------
  const std::size_t n = engine.size();
  std::array<std::vector<double>, sparta::kNumStages> stage_ms;
  std::vector<double> unattributed;
  std::array<std::size_t, 3> variants{};
  double hits = 0, searches = 0;
  for (const EngineSample& e : engine) {
    for (int st = 0; st < sparta::kNumStages; ++st) {
      stage_ms[st].push_back(e.stages.seconds[st] * 1e3);
    }
    unattributed.push_back((e.exec_s - e.stages.total()) * 1e3);
    switch (e.variant) {
      case Algorithm::kSpa: ++variants[0]; break;
      case Algorithm::kCooHta: ++variants[1]; break;
      default: ++variants[2]; break;
    }
    hits += static_cast<double>(e.hits);
    searches += static_cast<double>(e.searches);
  }
  const std::string per_call = "mean per engine call (reads and steps)";
  for (int st = 0; st < sparta::kNumStages; ++st) {
    r_.set("contraction." +
               std::string(sparta::stage_name(sparta::Stage(st))) + "_ms",
           mean(stage_ms[st]), "ms", n, per_call);
  }
  r_.set("contraction.unattributed_ms", mean(unattributed), "ms", n,
         "exec minus the five stages, " + per_call);
  r_.set("contraction.minflt_per_call",
         static_cast<double>(timed_usage.minflt) / static_cast<double>(n),
         "count", n, "timed-phase delta / engine calls");
  r_.set("contraction.sys_ms_per_call",
         timed_usage.sys_s * 1e3 / static_cast<double>(n), "ms", n,
         "timed-phase delta / engine calls");
  r_.set("contraction.hit_rate", searches > 0 ? hits / searches : 0.0,
         "ratio", n, "index-search hits / searches");
  {
    ShapeWork sum;
    std::lock_guard<std::mutex> lock(expect_mu_);
    for (const auto& [key, wk] : work_) {
      sum.multiplies += wk.multiplies;
      sum.nnz_z += wk.nnz_z;
      sum.hty_b += wk.hty_b;
      sum.hta_b += wk.hta_b;
      sum.zlocal_b += wk.zlocal_b;
      sum.z_b += wk.z_b;
    }
    const double mib = 1 << 20;
    const std::string per_pass =
        "one execution of each distinct read and chain, summed";
    r_.set("contraction.multiplies", sum.multiplies, "count", 0, per_pass);
    r_.set("contraction.nnz_z", sum.nnz_z, "count", 0, per_pass);
    r_.set("contraction.hty_mb",
           (sum.hty_b + static_cast<double>(cache1.retained_bytes)) / mib,
           "MiB", 0, per_pass + ", plus the HtYs the plan cache retains");
    r_.set("contraction.hta_mb", sum.hta_b / mib, "MiB", 0, per_pass);
    r_.set("contraction.zlocal_mb", sum.zlocal_b / mib, "MiB", 0, per_pass);
    r_.set("contraction.z_mb", sum.z_b / mib, "MiB", 0, per_pass);
  }
  const double vn = static_cast<double>(n);
  r_.set("serve.variant_share.spa", variants[0] / vn, "ratio", n);
  r_.set("serve.variant_share.hta", variants[1] / vn, "ratio", n);
  r_.set("serve.variant_share.sparta", variants[2] / vn, "ratio", n);

  r_.set("serve.queue_ms_p50", median(queue_ms), "ms", queue_ms.size());
  r_.set("serve.exec_ms_p50", median(exec_ms), "ms", exec_ms.size());
  r_.set("serve.overhead_ms_p50", median(overhead_ms), "ms",
         overhead_ms.size(), "submit->ready minus queue minus exec");
  const double acquires = static_cast<double>(
      (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses));
  r_.set("serve.plan_cache_hit_ratio",
         acquires > 0 ? static_cast<double>(cache1.hits - cache0.hits) /
                            acquires
                      : 0.0,
         "ratio", static_cast<std::size_t>(acquires), "base: acquires");
  r_.set("serve.plan_builds",
         static_cast<double>(cache1.misses - cache0.misses), "count");
  r_.set("serve.rejected", static_cast<double>(adm1.rejected - adm0.rejected),
         "count");
  r_.set("serve.degraded", static_cast<double>(adm1.degraded - adm0.degraded),
         "count");
  r_.set("serve.live_mb", static_cast<double>(max_live) / (1 << 20), "MiB",
         0, "max sampled after each operation");

  r_.set("plan.search_ms", search_ms.empty() ? 0.0 : search_ms[0] +
                                                          search_ms[1],
         "ms", 50, "plan_network median, funnel + 3-operand chain");
  r_.set("plan.cache_hit_ratio",
         static_cast<double>(plan_hits) / static_cast<double>(chains),
         "ratio", chains);
  r_.set("plan.step_ms_sum", median(step_sum_ms), "ms", step_sum_ms.size(),
         "median per chain of the steps' queue + exec");
  r_.set("plan.interstep_ms", median(interstep_ms), "ms", interstep_ms.size(),
         "median per chain of wall - plan - steps");
  r_.set("plan.peak_temp_mb", static_cast<double>(peak_temp) / (1 << 20),
         "MiB", chains);
  r_.set("obs.trace_overhead_frac",
         median(traced_pair_ms) / median(untraced_pair_ms) - 1.0, "ratio",
         pair_ms.size(), "traced / untraced pair p50 - 1");
}

}  // namespace

void run_serve_mixed(const RunOptions& o, Report& r) {
  ServeRun(o, r).run();
}

}  // namespace perfbench
