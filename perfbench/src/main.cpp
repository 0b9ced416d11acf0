// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--report <path>] [--trace-out <path>]
//             [--git-sha <sha>] [--src-digest <hex>]
//
// Runs one workload, writes the full JSON report (context stamp,
// metrics with sample counts, per-case details) to --report, and exits
// 0 only when every operation succeeded and every output checked out.
// perfbench/run.py builds this program and prints the summary line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::fprintf(stderr,
               "usage: perfbench --workload engine_output_heavy|"
               "engine_input_heavy|serve_mixed --seed N --seconds S "
               "--trace 0|1 [--smoke] [--report PATH] [--trace-out PATH] "
               "[--git-sha SHA] [--src-digest HEX]\n");
  std::exit(2);
}

perfbench::RunOptions parse(int argc, char** argv) {
  perfbench::RunOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = next();
      } else if (a == "--seed") {
        o.seed = std::stoull(next());
      } else if (a == "--seconds") {
        o.seconds = std::stod(next());
      } else if (a == "--trace") {
        const std::string v = next();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--smoke") {
        o.smoke = true;
      } else if (a == "--report") {
        o.report_path = next();
      } else if (a == "--trace-out") {
        o.trace_path = next();
      } else if (a == "--git-sha") {
        o.git_sha = next();
      } else if (a == "--src-digest") {
        o.src_digest = next();
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (o.seconds <= 0) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunOptions o = parse(argc, argv);
  perfbench::Report r;
  perfbench::stamp_context(r, o);
  try {
    if (o.workload == "engine_output_heavy" ||
        o.workload == "engine_input_heavy") {
      perfbench::run_engine(o, r);
    } else if (o.workload == "serve_mixed") {
      perfbench::run_serve_mixed(o, r);
    } else {
      usage(("unknown workload '" + o.workload + "'").c_str());
    }
  } catch (const std::exception& ex) {
    ++r.attempted;
    r.fail(std::string("benchmark aborted: ") + ex.what());
  }
  if (r.attempted == 0) r.fail("no operation attempted");
  perfbench::write_report(r, o);
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", e.c_str());
  }
  return r.correct && r.failed == 0 ? 0 : 1;
}
