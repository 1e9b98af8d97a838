#!/usr/bin/env python3
"""Records the reference outputs run.py checks against: runs every placer
seed of a workload's pool once and writes perfbench/reference/<workload>.json
with each operation's status, decision digest and circuit metrics.

    python3 perfbench/record.py --workload <name>

Run it from the root of the repository, at the commit whose outputs are the
reference. Re-recording is only right when a change is meant to alter
flow decisions or circuit metrics, and says so.
"""

import argparse
import json
import os
import subprocess
import sys

import harness
import run


def pool_rounds(workload):
    """Every pool seed once, in pool order."""
    pool = list(harness.POOLS[workload])
    if workload == "vco_tran":
        return [[("vco", s)] for s in pool]
    if workload == "table6_flows":
        return [[("ota", s), ("sa", s)] for s in pool]
    half = harness.BATCH_JOBS // 2
    return [[(c, s) for c in ("ota", "sa") for s in pool[i:i + half]]
            for i in range(0, len(pool), half)]


def write_reference(path, workload, rev, ops):
    """One operation per line, sorted, so that a re-recording diffs well."""
    lines = [f"{json.dumps(k)}: {json.dumps(ops[k], sort_keys=True)}" for k in sorted(ops)]
    with open(path, "w") as f:
        f.write(f'{{"workload": {json.dumps(workload)}, "recorded_at": {json.dumps(rev)},\n')
        f.write('"ops": {\n' + ",\n".join(lines) + "\n}}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    args = ap.parse_args()

    run.build()
    records = run.run_driver(args.workload, pool_rounds(args.workload),
                             trace=False, timeout=None)
    ops = {}
    for op in records["ops"]:
        if op["status"] == "failed":
            sys.exit(f"{harness.op_key(op)} failed: {op.get('error')}")
        ops[harness.op_key(op)] = harness.reference_entry(op)
    rev = subprocess.run(["git", "-C", run.ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True).stdout.strip()
    path = os.path.join(run.HERE, "reference", f"{args.workload}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_reference(path, args.workload, rev, ops)
    print(f"{path}: {len(ops)} operations")


if __name__ == "__main__":
    main()
