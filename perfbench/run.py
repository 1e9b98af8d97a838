#!/usr/bin/env python3
"""Repository benchmark: builds the workload driver from the sources of the
checkout it sits in, runs one workload, checks every output against the
recorded reference, and prints the metrics.

    python3 perfbench/run.py --workload <vco_tran|table6_flows|batch_explore>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. Lines before it give each metric with its unit, the bases the
metrics rest on, and the host facts (nproc, build type, git rev). The exit
status is 0 only when every output matched the reference (and, traced,
the attribution held); 1 after a result that did not, 2 when no result
could be made. The build goes to .bench_build/. See perfbench/README.md
for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "Release"
DRIVER = os.path.join(BUILD_DIR, "olp_perfbench")
DRIVER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    """Configures (once) and builds the driver; build output goes to
    stderr so that standard output stays the benchmark's own."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"no {needed} at {ROOT}: run from a full checkout")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "olp_perfbench",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def run_driver(workload, rounds, trace, timeout=DRIVER_TIMEOUT_S):
    """Runs the driver on `rounds` and sorts its output lines into records."""
    # The library reads OLP_* overrides (threads, cache, router, budgets);
    # none may leak in from the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("OLP_")}
    cmd = [DRIVER, "--workload", workload, "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, input=harness.rounds_text(rounds), env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"driver exceeded {timeout} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"driver exited with {proc.returncode}")
    records = {"ops": [], "rounds": [], "batches": [], "traces": []}
    for line in proc.stdout.splitlines():
        d = json.loads(line)
        if "setup_s" in d:
            records["setup_s"] = d["setup_s"]
            records["setup_probe_s"] = d["setup_probe_s"]
        elif "peak_rss_kb" in d:
            records["peak_rss_kb"] = d["peak_rss_kb"]
        elif "trace" in d:
            records["traces"].append(d)
        elif d.get("op") == "batch":
            records["batches"].append(d)
        elif "op" in d:
            records["ops"].append(d)
        else:
            records["rounds"].append(d)
    if "peak_rss_kb" not in records or not records["rounds"]:
        raise BenchError("driver output incomplete")
    return records


def load_reference(workload):
    path = os.path.join(HERE, "reference", f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)["ops"]


def check(records, reference):
    """Checks every operation; returns (attempted, failed, unchecked)."""
    attempted = failed = unchecked = 0
    for op in records["ops"]:
        attempted += 1
        verdict, reason = harness.compare(op, reference)
        if verdict == "failed":
            failed += 1
            print(f"FAILED {harness.op_key(op)}: {reason}", file=sys.stderr)
        elif verdict == "unchecked":
            unchecked += 1
    return attempted, failed, unchecked


def host_facts():
    rev = "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # Only this checkout's own history counts, not an enclosing one's.
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            rev = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return f"nproc={os.cpu_count()} build={BUILD_TYPE} rev={rev}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    w = args.workload
    try:
        build()
        if args.trace:
            rounds = harness.make_rounds(w, args.seed, harness.TRACE_ROUNDS[w])
        else:
            rounds = harness.make_rounds(w, args.seed, harness.round_count(w, args.seconds))
        records = run_driver(w, rounds, args.trace)
        attempted, failed, unchecked = check(records, load_reference(w))
        correct = failed == 0
        if args.trace:
            metrics, bases = harness.per_layer(records, w, attempted, failed)
            share = metrics["trace.attributed_share"]["value"]
            if share < harness.ATTRIBUTED_MIN:
                correct = False
                print(f"FAILED attribution: timed calls cover {share:.4f} of wall time, "
                      f"below {harness.ATTRIBUTED_MIN}", file=sys.stderr)
        else:
            metrics = harness.end_to_end(records, w)
            bases = harness.unscaled(records, w)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    print(f"# host: {host_facts()}")
    print(f"# workload={w} seed={args.seed} trace={args.trace} "
          f"rounds={len(records['rounds'])} checked={attempted - unchecked} "
          f"unchecked={unchecked}")
    print("# bases: " + " ".join(f"{k}={v:.6g}" for k, v in bases.items()))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
