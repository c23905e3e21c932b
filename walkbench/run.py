#!/usr/bin/env python3
"""Build and run the repository benchmark (see walkbench/README.md).

One run, as the benchmark contract has it; the last stdout line is the
JSON result:

    python3 walkbench/run.py --workload oc-basic --seed 1 --seconds 25 --trace 0

Repeat mode: N runs with seeds seed, seed+1, ...; prints each metric's
median, quartiles and spread (IQR over median), and flags every
end-to-end metric whose spread exceeds its bound in BENCHMARK.json:

    python3 walkbench/run.py --workload svc --repeat 5

Self-test: the helper tests plus the metric-name check (every name the
program prints is in BENCHMARK.json and valid, and the reverse):

    python3 walkbench/run.py --self-test

The program is built with CMake from walkbench/CMakeLists.txt, against
the library sources in src/, into $CARGO_TARGET_DIR/walkbench (default
.bench_build/walkbench); traces go to .bench_build/traces.
"""
import argparse
import fcntl
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

# The seed runs use by default, and a held-out seed kept for confirming
# a claimed gain on inputs it was not tuned on.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "walkbench")


def build(targets):
    """Configure (once) and build; output goes to stderr."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=sys.stderr, stderr=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", out, "-j", "4", "--target"] + targets,
            stdout=sys.stderr, stderr=sys.stderr, check=True)
    return out


def run_program(argv, timeout=RUN_TIMEOUT_S):
    """Run @p argv in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError("%s timed out after %d s" % (argv[0], timeout))
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (argv[0], proc.returncode))
    return stdout


def load_spec():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def check_names(spec, listed):
    """Problems between BENCHMARK.json and the program's metric list."""
    problems = []
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        printed = listed.get(section, {})
        for name, unit in printed.items():
            if not NAME_RE.match(name):
                problems.append("invalid metric name %r" % name)
            if name not in declared:
                problems.append("%s %s printed but not in BENCHMARK.json"
                                % (section, name))
            elif declared[name] != unit:
                problems.append("%s %s: unit %s printed, %s declared"
                                % (section, name, unit, declared[name]))
        for name in declared:
            if name not in printed:
                problems.append("%s %s declared but never printed"
                                % (section, name))
    return problems


def list_metrics(binary):
    listed = {}
    for line in run_program([binary, "--list-metrics"]).splitlines():
        section, name, unit = line.split()
        listed.setdefault(section, {})[name] = unit
    return listed


def one_run(binary, spec, workload, seed, seconds, trace, echo=True):
    """Run once; returns the parsed result after validating it."""
    stdout = run_program([binary, "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)])
    lines = stdout.rstrip("\n").split("\n")
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    result = json.loads(lines[-1])
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        raise RuntimeError("printed metrics differ from BENCHMARK.json: %s"
                           % sorted(set(metrics) ^ set(declared)))
    for name, m in metrics.items():
        if m["unit"] != declared[name] or not math.isfinite(m["value"]):
            raise RuntimeError("bad metric %s: %r" % (name, m))
    return result


def repeat(binary, spec, args):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    seeds = [args.seed + i for i in range(args.repeat)]
    for seed in seeds:
        r = one_run(binary, spec, args.workload, seed, args.seconds,
                    args.trace, echo=False)
        status = "ok" if r["correct"] and r["failed"] == 0 else "CHECKS FAILED"
        log("seed %d: %s" % (seed, status))
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    flagged = 0
    print("%-36s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound:
            flag = "  EXCEEDS BOUND"
            flagged += 1
        elif bound is not None and spread > bound / 3:
            flag = "  over a third of its bound"
        print("%-36s %14.6g %14.6g %14.6g %8.4f %6s%s" %
              (name, med, q1, q3, spread,
               "" if bound is None else "%.3f" % bound, flag))
    return 1 if flagged else 0


def self_test(spec):
    out = build(["walkbench", "walkbench_test"])
    subprocess.run([os.path.join(out, "walkbench_test")], check=True)
    problems = check_names(spec, list_metrics(os.path.join(out, "walkbench")))
    names = [w["name"] for w in spec["workloads"]]
    for section in ("workloads", "end_to_end", "per_layer"):
        seen = [m["name"] for m in spec[section]]
        problems += ["duplicate name %s" % n for n in set(seen)
                     if seen.count(n) > 1]
    problems += ["invalid workload name %r" % n for n in names
                 if not NAME_RE.match(n)]
    for p in problems:
        print("FAIL:", p)
    print("metric names: %s" % ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run N times (seeds seed..seed+N-1) and summarize")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    if args.self_test:
        return self_test(spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error("--workload must be one of %s"
                 % [w["name"] for w in spec["workloads"]])
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    binary = os.path.join(build(["walkbench"]), "walkbench")
    if args.repeat > 0:
        return repeat(binary, spec, args)
    result = one_run(binary, spec, args.workload, args.seed, args.seconds,
                     args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.CalledProcessError) as e:
        log("walkbench: %s" % e)
        sys.exit(1)
