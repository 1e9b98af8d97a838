"""Analysis side of the repository benchmark: input generation, the
reference comparator, span self times, the percentile rule and the metric
tables. run.py drives the C++ workload driver and calls into this module;
test_harness.py checks it. See README.md for what each workload and metric
is for.
"""

import hashlib
import math
import random
import statistics

WORKLOADS = ("vco_tran", "table6_flows", "batch_explore")

# Placer seeds each workload draws from. Every seed of a pool has recorded
# reference outputs, so every run is fully checked whatever its workload
# seed; the workload seed picks which pool seeds run and in what order.
POOLS = {
    "vco_tran": range(1, 9),
    "table6_flows": range(1, 65),
    "batch_explore": range(1, 1001),
}

# batch_explore: jobs per round, half OTA and half StrongARM. At 125 jobs a
# job costs what it does at 500 and the cache still serves ~95% of
# evaluations, and a run holds many rounds.
BATCH_JOBS = 125

# Rounds of an untraced run: how many depends only on --seconds, never on
# how fast rounds run, so every commit measures the same inputs. ROUND_S is
# what one round took at the commit that added the benchmark, on the host
# in README.md, so a run of that commit measures about --seconds. A
# vco_tran round cannot be split, so its runs are one round whatever
# --seconds says.
ROUND_S = {"vco_tran": 38.0, "table6_flows": 0.7, "batch_explore": 1.0}

# Leading rounds of an untraced run that are checked but not timed: the
# first batch round of a process also pays for starting the worker pool and
# growing the cache, and takes up to twice as long as the rest. A vco_tran
# run has only its one round.
WARMUP_ROUNDS = {"vco_tran": 0, "table6_flows": 1, "batch_explore": 1}

# The driver's host-speed probe time at full speed on the host in
# README.md. Every end-to-end time is scaled by PROBE_REF_S / the probe's
# mean time while it was measured (see host_scaled).
PROBE_REF_S = 0.0006

# Rounds run twice (untraced and traced) by a --trace 1 run. Fixed per
# workload, not taken from --seconds, so that per-layer counts repeat
# exactly for a given seed on the serial workload.
TRACE_ROUNDS = {"vco_tran": 1, "table6_flows": 8, "batch_explore": 4}

# Least share of the untraced wall time the timed library calls must cover
# for the per-layer attribution to hold.
ATTRIBUTED_MIN = 0.95

# Relative tolerance on circuit metrics against the reference.
METRIC_RTOL = 1e-6

# Spans whose duration (not self time) is a flow stage.
STAGES = ("selection", "combo_choice", "placement", "routing",
          "port_optimization")


# --- Inputs ----------------------------------------------------------------

def make_rounds(workload, seed, count):
    """The first `count` rounds of `workload` for a workload seed, as
    lists of (circuit, placer seed) jobs. Pool seeds are shuffled and
    cycled, so a round repeats only after the whole pool has run."""
    rng = random.Random(f"{workload}:{seed}")
    pool = list(POOLS[workload])

    def cycle():
        while True:
            order = pool[:]
            rng.shuffle(order)
            yield from order

    seeds = cycle()
    rounds = []
    for _ in range(count):
        if workload == "vco_tran":
            rounds.append([("vco", next(seeds))])
        elif workload == "table6_flows":
            s = next(seeds)
            rounds.append([("ota", s), ("sa", s)])
        else:
            half = BATCH_JOBS // 2
            jobs = [("ota", s) for s in rng.sample(pool, half)]
            jobs += [("sa", s) for s in rng.sample(pool, BATCH_JOBS - half)]
            rng.shuffle(jobs)
            rounds.append(jobs)
    return rounds


def round_count(workload, seconds):
    """Rounds of an untraced run of `seconds`, warm-up included."""
    return WARMUP_ROUNDS[workload] + max(1, int(seconds / ROUND_S[workload]))


def rounds_text(rounds):
    return "".join(" ".join(f"{c}:{s}" for c, s in r) + "\n" for r in rounds)


# --- Reference outputs -----------------------------------------------------

def op_key(op):
    """Reference key of one operation record from the driver."""
    key = f"{op['circuit']}:{op['seed']}"
    if op["op"] == "flow":
        return f"{key}:flow:{op['mode']}"
    key += f":measure:{op['of']}"
    if "vctrl" in op:
        key += f"@{op['vctrl']:g}"
    return key


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def reference_entry(op):
    """What the reference records of one successful operation."""
    entry = {"status": op["status"]}
    if "decisions" in op:
        entry["decisions"] = digest(op["decisions"])
    if "metrics" in op:
        entry["metrics"] = op["metrics"]
    return entry


def close(a, b, rtol=METRIC_RTOL):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def compare(op, reference):
    """Checks one operation against the reference table.

    Returns (verdict, reason) with verdict "ok", "failed" or "unchecked".
    An operation fails when it threw, when its status (ok / degraded)
    differs from the reference, when any decision differs, or when any
    metric is off by more than METRIC_RTOL relative. An operation with no
    reference entry is unchecked, not failed — unless it threw."""
    if op["status"] == "failed":
        return "failed", op.get("error", "failed")
    ref = reference.get(op_key(op))
    if ref is None:
        return "unchecked", "no reference"
    if op["status"] != ref["status"]:
        return "failed", f"status {op['status']}, reference {ref['status']}"
    if "decisions" in ref and digest(op.get("decisions", "")) != ref["decisions"]:
        return "failed", "decisions differ"
    if "metrics" in ref:
        got = op.get("metrics", {})
        if set(got) != set(ref["metrics"]):
            return "failed", "metric names differ"
        for name, want in ref["metrics"].items():
            if not close(got[name], want):
                return "failed", f"{name} = {got[name]}, reference {want}"
    return "ok", ""


# --- Statistics ------------------------------------------------------------

def nearest_rank(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(values):
    """(percentile, value) of the tail a sample set supports: the 90th
    percentile when at least ten samples lie beyond it (100 or more
    samples); otherwise the highest whole percentile with ten samples
    beyond it; the maximum (100) when there are ten samples or fewer."""
    v = sorted(values)
    n = len(v)
    if n == 0:
        raise ValueError("no samples")
    if n >= 100:
        return 90, nearest_rank(v, 90)
    pct = math.floor(100.0 * (n - 10) / n) if n > 10 else 100
    while pct < 100 and n - math.ceil(pct / 100.0 * n) < 10:
        pct -= 1
    return pct, nearest_rank(v, pct)


def union_length(intervals):
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def self_times(spans):
    """Self time per span id: its duration minus the part of its interval
    that its child spans cover (children on other threads included, so
    parallel children are counted once). `spans` is a list of
    (id, parent, start, duration)."""
    by_id = {sid: (start, start + dur) for sid, _, start, dur in spans}
    children = {}
    for sid, parent, start, dur in spans:
        if parent in by_id:
            children.setdefault(parent, []).append((start, start + dur))
    out = {}
    for sid, (s, e) in by_id.items():
        clipped = [(max(cs, s), min(ce, e)) for cs, ce in children.get(sid, ())]
        covered = union_length([(a, b) for a, b in clipped if b > a])
        out[sid] = (e - s) - covered
    return out


# --- Metrics ---------------------------------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def host_scaled(secs, probe_s):
    """`secs` measured while the host-speed probe took `probe_s`, in
    seconds of a host at reference speed. The hosts this runs on slow down
    by up to 1.6x, for seconds to minutes at a time, from load the process
    cannot see (identical flows in one process take 0.055 s or 0.09 s); the
    probe, fixed work that never touches the library, slows with them."""
    return secs * PROBE_REF_S / probe_s


def end_to_end(records, workload):
    """End-to-end metrics of an untraced run: wall and flow time summed
    over every round after the warm-up, each round and each flow call
    scaled by the probe's mean time during it, and the median of the
    set-up times, each scaled by the probe run right after it."""
    rounds = timed_rounds(records, workload)
    timed = {r["round"] for r in rounds}
    flow_s = flows = 0
    if workload == "batch_explore":
        for b in records["batches"]:
            if b["round"] in timed:
                flow_s += host_scaled(b["secs"], b["probe_s"])
                flows += b["jobs"]
    else:
        for op in records["ops"]:
            if op["op"] == "flow" and op["round"] in timed:
                flow_s += host_scaled(op["secs"], op["probe_s"])
                flows += 1
    wall_s = sum(host_scaled(r["wall_s"], r["probe_s"]) for r in rounds)
    setup_s = statistics.median(host_scaled(s, p) for s, p in
                                zip(records["setup_s"], records["setup_probe_s"]))
    return {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(wall_s, "s"),
        "flow_s": _metric(flow_s, "s"),
        "flows_per_s": _metric(flows / wall_s, "1/s"),
        "peak_rss_mb": _metric(records["peak_rss_kb"] / 1024.0, "MB"),
    }


def timed_rounds(records, workload):
    """The untraced rounds after the warm-up."""
    return [r for r in records["rounds"]
            if not r["traced"] and r["round"] >= WARMUP_ROUNDS[workload]]


def unscaled(records, workload):
    """The measured times end_to_end scales, and the probe's mean time."""
    rounds = timed_rounds(records, workload)
    return {"wall_s_measured": sum(r["wall_s"] for r in rounds),
            "setup_s_measured": statistics.median(records["setup_s"]),
            "probe_ms": 1e3 * statistics.mean(r["probe_s"] for r in rounds)}


def per_layer(records, workload, attempted, failed):
    """Per-layer metrics of a traced run, and the bases some of them rest
    on (sample and round counts, the untraced wall time), which are not
    metrics themselves. Counts are per round: the total over the traced
    rounds divided by their number. Times are shares of the traced rounds'
    wall time, so that a layer a workload does not use reads 0 and never a
    zero time; spans of concurrent batch jobs overlap, so a batch share can
    exceed 1."""
    traced_rounds = [r for r in records["rounds"] if r["traced"]]
    plain_rounds = [r for r in records["rounds"] if not r["traced"]]
    k = len(traced_rounds)
    traced_wall = sum(r["wall_s"] for r in traced_rounds)
    plain_wall = sum(r["wall_s"] for r in plain_rounds)
    ops = [op for op in records["ops"] if op["traced"]]

    def op_share(kind, **match):
        return sum(op["secs"] for op in ops if op["op"] == kind
                   and all(op.get(f) == v for f, v in match.items())) / traced_wall

    # Spans, counters, distributions and histograms of every traced round.
    counters, self_us, dur_us = {}, {}, {}
    newton = [0, 0.0]
    hists = {}
    for t in records["traces"]:
        names = t["names"]
        # Each span is [id, parent, name index, start_us, dur_us].
        selfs = self_times([(s[0], s[1], s[3], s[4]) for s in t["spans"]])
        for s in t["spans"]:
            name = names[s[2]]
            self_us[name] = self_us.get(name, 0) + selfs[s[0]]
            dur_us[name] = dur_us.get(name, 0) + s[4]
        for name, v in t["counters"].items():
            counters[name] = counters.get(name, 0) + v
        n, mean = t["dists"].get("sim.op.newton_iterations", (0, 0.0))
        newton[0] += n
        newton[1] += n * mean
        for name, (n, total) in t["hists"].items():
            hists[name] = hists.get(name, 0.0) + total

    def count(name):
        return _metric(counters.get(name, 0) / k, "count")

    def us_share(us):
        return _metric(us / 1e6 / traced_wall, "share")

    hits, misses = counters.get("eval.cache_hit", 0), counters.get("eval.cache_miss", 0)
    busy, idle = counters.get("obs.pool.busy_us", 0), counters.get("obs.pool.idle_us", 0)
    sims = ("sim.op", "sim.ac", "sim.tran")
    freq_calls = [op for op in ops if op["op"] == "measure" and op["circuit"] == "vco"]
    opt_ms = [op["secs"] * 1e3 for op in records["ops"]
              if op["op"] == "flow" and not op["traced"] and op["mode"] == "optimize"]
    tail_pct, tail_ms = tail_percentile(opt_ms)
    batches = [b for b in records["batches"] if b["traced"]]

    m = {}
    for mode in ("optimize", "conventional", "manual_oracle"):
        m[f"circuits.flow.{mode}_share"] = _metric(op_share("flow", mode=mode), "share")
    for stage in STAGES:
        m[f"circuits.stage.{stage}_share"] = us_share(dur_us.get(stage, 0))
    m["flow.p50_ms"] = _metric(statistics.median(opt_ms), "ms")
    m["flow.tail_ms"] = _metric(tail_ms, "ms")
    for circuit, name in (("ota", "ota"), ("sa", "strongarm"), ("vco", "vco")):
        m[f"measure.{name}_share"] = _metric(op_share("measure", circuit=circuit), "share")
    m["measure.calls"] = _metric(sum(op["op"] == "measure" for op in ops) / k, "count")
    m["measure.vco.tran_per_call"] = _metric(
        sum(op["tran"] for op in freq_calls) / len(freq_calls) if freq_calls else 0.0, "ratio")
    m["spice.op.count"] = count("sim.op")
    m["spice.op.self_share"] = us_share(self_us.get("sim.op", 0))
    m["spice.op.newton_mean"] = _metric(newton[1] / newton[0] if newton[0] else 0.0, "ratio")
    m["spice.op.nonconverged"] = count("sim.op.nonconverged")
    m["spice.ac.count"] = count("sim.ac")
    m["spice.ac.self_share"] = us_share(self_us.get("sim.ac", 0))
    m["spice.tran.count"] = count("sim.tran")
    m["spice.tran.self_share"] = us_share(self_us.get("sim.tran", 0))
    m["spice.tran.retries"] = count("sim.tran.retries")
    m["spice.tran.failed"] = count("sim.tran.failed")
    m["spice.self_share"] = us_share(sum(self_us.get(n, 0) for n in sims))
    m["core.testbenches"] = count("eval.testbench")
    m["core.optimizer.candidates"] = count("optimizer.candidates")
    m["core.portopt.sweep_points"] = count("portopt.sweep_points")
    m["core.eval_cache.hits"] = count("eval.cache_hit")
    m["core.eval_cache.misses"] = count("eval.cache_miss")
    m["core.eval_cache.hit_ratio"] = _metric(hits / (hits + misses) if hits + misses else 0.0,
                                             "ratio")
    m["core.eval_cache.cross_job_hits"] = count("batch.cross_job_hits")
    m["core.eval_cache.insert_wait_share"] = us_share(
        hists.get("obs.contention.eval_cache_insert.wait_us", 0.0))
    m["place.runs"] = count("placer.runs")
    m["route.nets"] = count("router.nets")
    m["route.pattern_hits"] = count("router.pattern_hits")
    m["route.search_fallbacks"] = count("router.search_fallbacks")
    m["route.unrouted"] = count("router.unrouted")
    m["pool.tasks"] = count("pool.tasks")
    m["pool.busy_share"] = _metric(busy / (busy + idle) if busy + idle else 0.0, "share")
    m["pool.lock_wait_share"] = us_share(hists.get("obs.contention.pool.wait_us", 0.0))
    m["batch.jobs"] = _metric(sum(b["jobs"] for b in batches) / k, "count")
    m["batch.failed"] = _metric(sum(b["failed"] for b in batches) / k, "count")
    m["fail_rate"] = _metric(failed / attempted, "share")
    m["trace.overhead"] = _metric(traced_wall / plain_wall - 1.0, "ratio")
    m["trace.attributed_share"] = _metric(
        sum(r["calls_s"] for r in plain_rounds) / plain_wall, "share")
    bases = {"flow.samples": len(opt_ms), "flow.tail_pct": tail_pct,
             "trace.rounds": k, "trace.base_s": plain_wall}
    return m, bases
