#!/usr/bin/env python3
"""End-to-end benchmark runner for the Sparta SpTC library.

Builds perfbench/ (which compiles ../src from source) and runs one
workload:

    python3 perfbench/run.py --workload engine_output_heavy --seed 1 \
        --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
every end-to-end metric of BENCHMARK.json, with --trace 1 every
per-layer one (see perfbench/README.md). Above it, every metric of the
full report is printed with its sample count, including the
workload-specific ones the summary line leaves out. The full report,
with the context stamp, is written under the build directory next to
the trace of a traced run.

    python3 perfbench/run.py --smoke

is the benchmark's own test: every workload at tiny size in both modes
(checking that each declared metric is printed with its unit), then a
run under SPARTA_FAILPOINTS that must count its injected failures.

Exit codes: 0 success, 1 a failed operation, a wrong output or a broken
build, 2 bad arguments.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SPEC_PATH = REPO / "BENCHMARK.json"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700

WORKLOADS = ("engine_output_heavy", "engine_input_heavy", "serve_mixed")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = Path(base)
    if not base.is_absolute():
        base = REPO / base
    return base / "perfbench"


def run_checked(cmd, timeout, **kw):
    """Runs cmd to completion (killing it on timeout); returns the code."""
    with subprocess.Popen(cmd, **kw) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
            return None


def build():
    """Configures and builds the benchmark; returns the binary path."""
    if not (REPO / "src" / "contraction" / "contract.hpp").is_file():
        log(f"library sources not found under {REPO / 'src'}")
        return None
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        code = run_checked(
            ["cmake", "-S", str(HERE), "-B", str(out), *gen,
             "-DCMAKE_BUILD_TYPE=Release"],
            BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            (out / "CMakeCache.txt").unlink(missing_ok=True)
            log("cmake configure failed")
            return None
    code = run_checked(["cmake", "--build", str(out), "-j", "4"],
                       BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        log("build failed")
        return None
    return out / "perfbench"


def git_sha():
    if not (REPO / ".git").exists() or not shutil.which("git"):
        return "unavailable"
    try:
        res = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=True)
        return res.stdout.strip()
    except (subprocess.SubprocessError, OSError):
        return "unavailable"


def src_digest():
    h = hashlib.sha256()
    for p in sorted((REPO / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(REPO)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def child_env(workload, failpoints=None):
    env = dict(os.environ)
    # Thread placement, settled by measurement (README.md). Unbound
    # 2-thread teams often share one core for a whole process and then
    # run slower than 1 thread, so the engine workloads bind one thread
    # per core. The service stays unbound: under OMP_PROC_BIND its worker
    # threads would inherit the initial thread's one-core mask.
    if workload.startswith("engine_"):
        env["OMP_PROC_BIND"] = "close"
        env["OMP_PLACES"] = "cores"
    else:
        env["OMP_PROC_BIND"] = "false"
        env.pop("OMP_PLACES", None)
    # The library's own tracing/metrics would perturb untraced timings.
    for k in ("SPARTA_TRACE", "SPARTA_METRICS", "SPARTA_FAILPOINTS"):
        env.pop(k, None)
    if failpoints:
        env["SPARTA_FAILPOINTS"] = failpoints
    return env


def declared():
    """Declared units by metric name: (end-to-end, per-layer)."""
    spec = json.loads(SPEC_PATH.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_once(binary, workload, seed, seconds, trace, smoke=False,
             failpoints=None):
    """Runs one workload; returns (exit code, report dict or None)."""
    out = build_dir() / "reports"
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
    report = out / f"{tag}.json"
    report.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--report", str(report),
           "--trace-out", str(out / f"{tag}.trace.json"),
           "--git-sha", git_sha(), "--src-digest", src_digest()]
    if smoke:
        cmd.append("--smoke")
    code = run_checked(cmd, RUN_TIMEOUT_S, env=child_env(workload, failpoints),
                       stdout=sys.stderr)
    if code is None or not report.is_file():
        return code if code else 1, None
    return code, json.loads(report.read_text())


def validate(trace, rep):
    """Checks that the report holds every declared metric of the mode."""
    units = declared()[trace]
    problems = []
    for name in units:
        if name not in rep["metrics"]:
            problems.append(f"{name} missing")
        elif rep["metrics"][name]["unit"] != units[name]:
            problems.append(f"{name} unit {rep['metrics'][name]['unit']} "
                            f"!= declared {units[name]}")
        elif not isinstance(rep["metrics"][name]["value"], (int, float)) \
                or not math.isfinite(rep["metrics"][name]["value"]):
            problems.append(f"{name} is not finite")
        elif not trace and rep["metrics"][name]["value"] <= 0:
            problems.append(f"{name} is not positive")
    return problems


def summary(trace, rep):
    metrics = {n: {"value": rep["metrics"][n]["value"],
                   "unit": rep["metrics"][n]["unit"]}
               for n in declared()[trace] if n in rep["metrics"]}
    return {"correct": bool(rep["correct"]) and rep["failed"] == 0,
            "attempted": int(rep["attempted"]),
            "failed": int(rep["failed"]), "metrics": metrics}


def print_table(rep):
    ctx = rep["context"]
    print("context: " + json.dumps(ctx, sort_keys=True))
    for name, m in sorted(rep["metrics"].items()):
        n = f"n={m['samples']}" if m["samples"] else ""
        note = m.get("note", "")
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']:6s} {n:8s} {note}")
    for e in rep.get("errors", []):
        print(f"  FAILED: {e}")


def bench(args):
    binary = build()
    if binary is None:
        return 1
    code, rep = run_once(binary, args.workload, args.seed, args.seconds,
                         args.trace)
    if rep is None:
        log(f"workload crashed or timed out (exit {code})")
        return 1
    problems = validate(args.trace, rep)
    if rep["failed"] == 0 and problems:
        for p in problems:
            log(f"report check: {p}")
        return 1
    print_table(rep)
    result = summary(args.trace, rep)
    print(json.dumps(result), flush=True)
    return 0 if code == 0 and result["correct"] else 1


def smoke():
    binary = build()
    if binary is None:
        return 1
    bad = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, rep = run_once(binary, workload, 1, 1, trace, smoke=True)
            if rep is None or code != 0:
                bad.append(f"{workload} trace={trace}: exit {code}")
                continue
            bad += [f"{workload} trace={trace}: {p}"
                    for p in validate(trace, rep)]

    # Failure accounting: three injected output-sort errors must show up
    # as exactly three failed operations, with the run ending normally
    # (exit 1, report written) rather than crashing or hiding them.
    code, rep = run_once(binary, "engine_output_heavy", 1, 1, 0, smoke=True,
                         failpoints="contract.sort=error@5x3")
    if rep is None:
        bad.append(f"failpoint run: no report (exit {code})")
    else:
        if code != 1:
            bad.append(f"failpoint run: exit {code}, expected 1")
        if rep["failed"] != 3 or rep["correct"]:
            bad.append(f"failpoint run: failed={rep['failed']} "
                       f"correct={rep['correct']}, expected 3 and false")
        if rep["attempted"] <= rep["failed"]:
            bad.append("failpoint run: attempted not above failed")
    for b in bad:
        log(f"SMOKE FAILED: {b}")
    if not bad:
        print("perfbench smoke: every workload printed every declared "
              "metric; injected failures were counted")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run the benchmark's own test and exit")
    args = ap.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
