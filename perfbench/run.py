"""critgraphs benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload tree-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up (importing critgraphs and building the seeded inputs) is
repeated SETUP_ROUNDS times and its median reported as setup_s.  The
workload's job is then repeated until --seconds would be exceeded; every
repetition's outputs are checked outside the timed region.

Times are given at a reference host speed.  The CPU speed this benchmark
gets from a shared host drifts by up to a factor of two over minutes, so the
raw time of one fixed job differs between runs by more than the bounds.  A
fixed pure-Python loop that uses no critgraphs code (``calibration_loop``)
is timed before every operation and before every set-up round, outside the
timed regions; each job's and each set-up round's times are multiplied by
(REFERENCE_LOOP_S / median loop time measured with them) ** SPEED_EXPONENT.
The exponent is below 1 because the loop's time moves more than the
workloads' own: regressing the log of raw job time on the log of loop time
gave slopes of 0.4 to 0.94 over the three workloads.  A reported second is
thus about a second on a host where the loop takes REFERENCE_LOOP_S.  Raw
times and the speed factors are printed and written beside them.

--trace 0 reports the end-to-end metrics: wall_s (median job time),
op_p50_ms and op_p90_ms (latency of one operation over all repetitions),
setup_s and peak_rss_mib.  --trace 1 alternates untraced and traced
repetitions and reports the per-layer metrics: calls and self-time share of
each traced function, outcome ratios and counters, the traced job time and
the tracing overhead (traced minus untraced median job time).

Human-readable lines, including error_rate, the sample counts and the
environment, go to stdout first; the last line is one JSON object.  Each
result, and the spans of the last traced repetition, are also written to
perfbench/out/.  Exit code 0 when a result was printed (a failed check shows
as "correct": false), 2 when the package cannot be imported.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_ROUNDS = 11
SETUP_LOOPS = 15  # calibration loops timed before each set-up round
REFERENCE_LOOP_S = 0.8e-3  # calibration loop time at the reference host speed
SPEED_EXPONENT = 0.6  # how strongly job times follow the loop's time
MODULES = ("cli", "bounds", "coloring", "discharge", "generators", "graph", "reducible", "structure")

# (span name, module, attribute path, outcome label of a return value)
LAYERS = (
    ("coloring.ee_eo", "coloring", "ee_eo", None),
    ("coloring.is_f_AT", "coloring", "is_f_AT", lambda r: "found" if r is not None else "none"),
    ("coloring.at_number", "coloring", "at_number", None),
    ("coloring.is_f_paintable", "coloring", "is_f_paintable", None),
    ("coloring.is_f_choosable", "coloring", "is_f_choosable", None),
    ("coloring.chromatic_number", "coloring", "chromatic_number", None),
    ("reducible.check_lemma51", "reducible", "check_lemma51", lambda r: r.status),
    ("graph.are_isomorphic", "graph", "are_isomorphic", lambda r: "true" if r else "false"),
    ("graph.contains_clique", "graph", "contains_clique", None),
    ("graph.induced_subgraph", "graph", "induced_subgraph", None),
    ("graph.parse_graph6", "graph", "parse_graph6", None),
    ("graph.write_graph6", "graph", "write_graph6", None),
    ("graph.parse_edge_list", "graph", "parse_edge_list", None),
    ("generators.enumerate_gallai_trees", "generators", "enumerate_gallai_trees", None),
    ("structure.q_value", "structure", "q_value", None),
    ("structure.build_aux_partition", "structure", "build_aux_partition", None),
    ("structure.in_t_k", "structure", "in_t_k", None),
    ("bounds.tree_bound_rhs", "bounds", "tree_bound_rhs", None),
    ("discharge.run_main_discharge", "discharge", "run_main_discharge", None),
    ("discharge.tree_charge_audit", "discharge", "tree_charge_audit", None),
    ("discharge.sponsorship_stats", "discharge", "sponsorship_stats", None),
    ("discharge.ChargeLedger.replay", "discharge", "ChargeLedger.replay", None),
    ("cli.main", "cli", "main", lambda code: "exit_%s" % code),
)
RATIOS = (
    ("coloring.is_f_AT.found_ratio", "coloring.is_f_AT", "found"),
    ("reducible.check_lemma51.verified_ratio", "reducible.check_lemma51", "verified"),
    ("graph.are_isomorphic.true_ratio", "graph.are_isomorphic", "true"),
)


def calibration_loop():
    """Seconds one fixed pass of integer, tuple, dict, set and sort work
    takes: a probe of the host's current speed, independent of critgraphs."""
    t0 = time.perf_counter()
    counts, pairs, seen = {}, [], set()
    for i in range(1000):
        key = (i * 7919) % 1013
        counts[key] = counts.get(key, 0) + 1
        pairs.append((key, i & 7))
    pairs.sort()
    for key, low in pairs:
        if key not in seen:
            seen.add(key ^ low)
    return time.perf_counter() - t0


def speed_scale(loop_times):
    """Factor taking times measured beside these loop times to the reference speed."""
    return (REFERENCE_LOOP_S / statistics.median(loop_times)) ** SPEED_EXPONENT


class Recorder:
    """Times each operation of a job, after one calibration loop; in a traced
    job each operation is also a root span."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = []
        self.loops = []

    def op(self, kind, fn, *args):
        self.loops.append(calibration_loop())
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                result = fn(*args)
            else:
                with self.tracer.span("op." + kind):
                    result = fn(*args)
        except Exception as exc:  # a failed operation is a result to check
            result = exc
        self.latencies.append(time.perf_counter() - t0)
        return result


def package_modules():
    """critgraphs and its modules, imported if they are not yet."""
    pkg = importlib.import_module("critgraphs")
    mods = {m: importlib.import_module("critgraphs." + m) for m in MODULES}
    return SimpleNamespace(pkg=pkg, **mods)


def load_package():
    """Import critgraphs afresh, so that each set-up round pays the import."""
    for name in [m for m in sys.modules if m == "critgraphs" or m.startswith("critgraphs.")]:
        del sys.modules[name]
    return package_modules()


def git_commit():
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_job(workload, cg, inputs, tracer=None):
    """One repetition of the job: its raw wall time (calibration loops taken
    out), the factor to the reference speed, raw latencies and results."""
    rec = Recorder(tracer)
    t0 = time.perf_counter()
    results = workload.job(cg, inputs, rec)
    wall = time.perf_counter() - t0 - sum(rec.loops)
    return wall, speed_scale(rec.loops), rec.latencies, results


def measure(workload, cg, inputs, seconds):
    """Untraced repetitions of the job until the next would pass --seconds."""
    walls, raw_walls, scales, lat, failures, info = [], [], [], [], [], {}
    attempted = 0
    start = time.perf_counter()
    while True:
        wall, scale, latencies, results = run_job(workload, cg, inputs)
        bad, info = workload.check(cg, inputs, results)
        walls.append(wall * scale)
        raw_walls.append(wall)
        scales.append(scale)
        lat += [t * scale for t in latencies]
        attempted += len(results)
        failures += bad
        if time.perf_counter() - start + wall > seconds:
            break
    deciles = statistics.quantiles(lat, n=10)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (deciles[4] * 1e3, "ms"),
        "op_p90_ms": (deciles[8] * 1e3, "ms"),
    }
    counts = {"job_walls_s": walls, "raw_job_walls_s": raw_walls, "speed_scales": scales,
              "op_samples": len(lat), **info}
    return metrics, counts, attempted, failures


def layer_metrics(tracer, wall):
    summary = tracer.summary()
    calls, selfs, metrics = {}, {}, {}
    for name, _, _, _ in LAYERS:
        row = summary.get(name, {"calls": 0, "self_s": 0.0})
        calls[name] = row["calls"]
        selfs[name] = row["self_s"]
    for name, base, label in RATIOS:
        hits = tracer.outcomes.get(base, {}).get(label, 0)
        metrics[name] = (hits / calls[base] if calls[base] else 0.0, "ratio")
    budget = sum(
        kinds.get("BudgetExceeded", 0)
        for name, kinds in tracer.raised.items()
        if name.startswith("coloring.")
    )
    metrics["coloring.budget_exceeded"] = (budget, "count")
    exits = tracer.outcomes.get("cli.main", {})
    for code in range(4):
        metrics["cli.main.exit_%d" % code] = (exits.get("exit_%d" % code, 0), "count")
    for name in calls:
        metrics[name + ".calls"] = (calls[name], "count")
    return metrics, {name: s / wall * 100 for name, s in selfs.items()}, selfs


def measure_traced(workload, cg, inputs, seconds, spans_path, meta):
    """Alternate untraced and traced repetitions; per-layer metrics."""
    targets = []
    for name, module, attr, outcome in LAYERS:
        owner = getattr(cg, module)
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        targets.append((name, owner, last, outcome))
    plain, traced, raw_traced, pcts, selfs_runs = [], [], [], [], []
    work = None
    failures, info = [], {}
    attempted = 0
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        wall, scale, _, results = run_job(workload, cg, inputs)
        plain.append(wall * scale)
        tracer.reset()
        tracer.install(targets)
        try:
            twall, tscale, _, tresults = run_job(workload, cg, inputs, tracer)
        finally:
            tracer.restore()
        counts, pct, selfs = layer_metrics(tracer, twall)
        traced.append(twall * tscale)
        raw_traced.append(twall)
        pcts.append(pct)
        selfs_runs.append(selfs)
        if work is None:
            work = counts
        elif counts != work:
            failures.append("work counts differ between traced repetitions")
        for res in (results, tresults):
            bad, info = workload.check(cg, inputs, res)
            failures += bad
            attempted += len(res)
        if time.perf_counter() - start + wall + twall > seconds:
            break
    tracer.write(spans_path, meta)
    metrics = dict(work)
    for name, _, _, _ in LAYERS:
        metrics[name + ".self_pct"] = (statistics.median(p[name] for p in pcts), "%")
    metrics["trace.wall_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    table = {
        name: {"calls": work[name + ".calls"][0],
               "self_s": statistics.median(s[name] for s in selfs_runs)}
        for name, _, _, _ in LAYERS
    }
    counts = {"job_walls_s": plain, "traced_job_walls_s": traced,
              "raw_traced_job_walls_s": raw_traced, "layers": table, **info}
    return metrics, counts, attempted, failures


def work_count_changes(previous, meta, metrics):
    """Work counts are deterministic: compare them with an earlier traced
    run of the same workload, seed and commit, if its result file exists."""
    try:
        old = json.loads(previous.read_text())
    except (OSError, ValueError):
        return []
    if old["meta"]["commit"] != meta["commit"]:
        return []
    changes = []
    for name, (value, unit) in metrics.items():
        before = old["result"]["metrics"].get(name, {}).get("value")
        if unit in ("count", "ratio") and before != value:
            changes.append("%s is %s, an earlier run of this commit had %s" % (name, value, before))
    return changes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (SRC / "critgraphs" / "__init__.py").is_file():
        print("critgraphs sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        setup_times, raw_setup_times = [], []
        for _ in range(SETUP_ROUNDS):
            scale = speed_scale([calibration_loop() for _ in range(SETUP_LOOPS)])
            t0 = time.perf_counter()
            cg = load_package()
            inputs = workload.setup(cg, args.seed, workdir)
            raw_setup_times.append(time.perf_counter() - t0)
            setup_times.append(raw_setup_times[-1] * scale)
        if Path(cg.pkg.__file__).resolve().parent != SRC / "critgraphs":
            print("critgraphs imported from %s, not %s" % (cg.pkg.__file__, SRC), file=sys.stderr)
            return 2
        meta = {
            "workload": workload.name,
            "why": workload.why,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "commit": git_commit(),
        }
        tag = "%s-seed%d-trace%d" % (workload.name, args.seed, args.trace)
        result_path = OUT / ("result-%s.json" % tag)
        if args.trace:
            spans_path = OUT / ("spans-%s.json" % tag)
            metrics, counts, attempted, failures = measure_traced(
                workload, cg, inputs, args.seconds, spans_path, meta
            )
            failures += work_count_changes(result_path, meta, metrics)
        else:
            metrics, counts, attempted, failures = measure(workload, cg, inputs, args.seconds)
            metrics["setup_s"] = (statistics.median(setup_times), "s")
            counts["raw_setup_s"] = raw_setup_times
            metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    error_rate = len(failures) / attempted
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump({"meta": meta, "result": result, "counts": counts, "failures": failures[:50]}, fh, indent=1)

    print("meta " + json.dumps(meta, sort_keys=True))
    for message in failures[:20]:
        print("FAILED " + message)
    for name, (value, unit) in sorted(metrics.items()):
        print("%-44s %14.6g %s" % (name, value, unit))
    print("%-44s %14.6g %s" % ("error_rate", error_rate, "ratio"))
    if args.trace:
        print("%-44s %10s %12s" % ("layer", "calls", "raw self_s"))
        for name, row in counts.pop("layers").items():
            print("%-44s %10d %12.6f" % (name, row["calls"], row["self_s"]))
    print("counts " + json.dumps(counts, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
