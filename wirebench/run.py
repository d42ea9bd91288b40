#!/usr/bin/env python3
"""Wire-level serving benchmark of iodb: build, then run one workload.

Usage (from the repository root):

  python3 wirebench/run.py --workload fleet_reads --seed 1 --seconds 10 --trace 0
  python3 wirebench/run.py --selftest

The first call configures and builds a Release tree under
$CARGO_TARGET_DIR/wirebench (default .bench_build/wirebench): the
repository's library layers, iodb_serve and the `wirebench` client. The
client then runs the workload and prints a human-readable report ("# "
lines) followed by one JSON line. Build output goes to stderr.

--selftest runs every workload at tiny sizes in both modes and checks the
output contract, that a corrupted expected verdict is counted as failed,
and that a restarted write_mix server keeps every uid@revision.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_reads", "engine_mix", "write_mix")
RUN_TIMEOUT_S = 170


def fail(step, message):
    print(f"wirebench: step '{step}' failed: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "wirebench")


def build():
    """Configures (once) and builds; returns the build directory."""
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure", "cmake could not configure " + HERE)
    build_type = ""
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type != "Release":
        fail("build", f"refusing to benchmark a '{build_type or 'unknown'}' "
                      f"build in {out} (configure with "
                      "-DCMAKE_BUILD_TYPE=Release)")
    jobs = str(max(1, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build", "cmake --build failed")
    return out


def git_commit():
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if res.returncode == 0:
            return res.stdout.strip()
    except OSError:
        pass
    return "unknown"


def run_client(out, args, extra=()):
    """Runs the client; returns (exit code, stdout)."""
    cmd = [os.path.join(out, "wirebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve", os.path.join(out, "iodb", "tools", "iodb_serve"),
           "--work-dir", os.path.join(out, "runs"),
           "--spans-dir", os.path.join(out, "spans"),
           "--commit", git_commit(), *extra]
    # Run dirs of an interrupted earlier run are stale.
    shutil.rmtree(os.path.join(out, "runs"), ignore_errors=True)
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def stop_child(signum, _frame):
        child.terminate()  # the client SIGKILLs its server on SIGTERM
        child.wait()
        sys.exit(128 + signum)

    previous = {sig: signal.signal(sig, stop_child)
                for sig in (signal.SIGTERM, signal.SIGINT)}
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.terminate()
        child.wait()
        fail("run", f"client did not finish within {RUN_TIMEOUT_S} s")
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return child.returncode, stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def benchmark_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def keep_declared(res, trace):
    """The client's result with only the metrics BENCHMARK.json declares
    for the mode; the client prints every metric it has."""
    names = {m["name"] for m in benchmark_metrics(trace)}
    return dict(res, metrics={name: value
                              for name, value in res["metrics"].items()
                              if name in names})


def selftest(out):
    problems = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            problems.append(what)

    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=7, seconds=1,
                                      trace=trace)
            code, stdout = run_client(out, args, ["--tiny"])
            res = result_of(stdout)
            if res is not None:
                res = keep_declared(res, trace)
            name = f"{workload} trace={trace}"
            check(code == 0 and res is not None and res["correct"]
                  and res["failed"] == 0, f"{name}: exit 0, correct, 0 failed")
            if res is None:
                continue
            declared = benchmark_metrics(trace)
            bad = [m["name"] for m in declared
                   if not (m["name"] in res["metrics"]
                           and res["metrics"][m["name"]]["unit"] == m["unit"]
                           and isinstance(res["metrics"][m["name"]]["value"],
                                          (int, float))
                           and math.isfinite(
                               res["metrics"][m["name"]]["value"]))]
            check(not bad, f"{name}: all {len(declared)} declared metrics "
                           f"with unit and finite value {bad or ''}")
            if workload == "write_mix":
                check("identity after restart: same" in stdout,
                      f"{name}: uid@revision unchanged across restart")

    args = argparse.Namespace(workload="fleet_reads", seed=7, seconds=1,
                              trace=0)
    code, stdout = run_client(out, args, ["--tiny", "--corrupt-expected"])
    res = result_of(stdout)
    check(code != 0 and res is not None and not res["correct"]
          and res["failed"] >= 1,
          "corrupted expected verdict: counted as failed, nonzero exit")
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    out = build()
    if args.selftest:
        return selftest(out)
    code, stdout = run_client(out, args)
    lines = stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1]) if lines else None
    except ValueError:
        res = None
    if res is None:
        sys.stdout.write(stdout)
        fail("run", f"client printed no result (exit code {code})")
    lines[-1] = json.dumps(keep_declared(res, args.trace))
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    if code != 0:
        print(f"wirebench: client exited with {code}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
