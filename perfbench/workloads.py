"""The three benchmark workloads: inputs from a seed, one job, output checks.

Each workload is built only from the standard library and critgraphs.  The
package is reached through ``cg``, a namespace of its freshly imported
modules, so that the tracer's rebinding of module attributes is seen.

``job`` runs every operation through ``rec.op`` and returns one result per
operation; it does nothing else, so the job's wall time is time to solution.
``check`` runs afterwards, outside any timing, and returns one message per
operation whose output is wrong, plus deterministic counts of what was done.
"""

import hashlib
import io
import json
import os
from contextlib import redirect_stdout
from dataclasses import dataclass
from itertools import combinations
from random import Random
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable  # (cg, seed, workdir) -> inputs
    job: Callable  # (cg, inputs, rec) -> [result per operation]
    check: Callable  # (cg, inputs, results) -> (failure messages, info counts)


def run_cli(cg, argv):
    """One main() call; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cg.cli.main(argv)
    return code, buf.getvalue()


def _doc(out):
    """The single JSON document a CLI call printed, or None."""
    try:
        return json.loads(out)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# tree-sweep: Sections 2-4, structure and discharging only

SWEEP = ((5, 9), (6, 9), (7, 8))
SWEEP_COUNTS = {5: 468, 6: 679, 7: 272}
CHAINS = tuple((k, m) for k in (5, 6, 7) for m in (1, 2, 3, 4))
SHORT_G6_MAX_N = 62
LEDGER_TREE_N = 7  # padded trees come from the sweep's own enumeration, n <= 7
LEDGERS_PER_SHAPE = 3  # padded instances per (k, number of trees)
LEDGER_DRAW = 2016


def pad_to_degree(cg, k, trees):
    """Disjoint union of trees, every tree vertex padded to degree k-1 by
    edges into K_k pools of high vertices, one boundary edge per pool vertex.

    Untaken pool vertices keep degree k-1 and form a clique component of the
    low side; with at least two takers per pool it has at most k-2 vertices,
    so it holds no K_{k-1}.  A last pool that would get a single taker is not
    opened: its slot becomes a second boundary edge of an earlier pool vertex.
    """
    edges, slots, n = [], [], 0
    for t in trees:
        edges += [(n + u, n + v) for u, v in t.edges()]
        for v in range(t.n):
            slots += [n + v] * (k - 1 - t.degree(v))
        n += t.n
    takers = []  # (pool vertex, tree vertex)
    lone = slots.pop() if len(slots) % k == 1 else None
    for start in range(0, len(slots), k):
        base = n
        n += k
        edges += [(base + a, base + b) for a, b in combinations(range(k), 2)]
        for u, s in zip(range(base, n), slots[start : start + k]):
            edges.append((u, s))
            takers.append((u, s))
    if lone is not None:
        u = next(u for u, s in takers if s != lone)
        edges.append((u, lone))
    g = cg.pkg.Graph(n, edges)
    if g.m != len(edges):
        raise AssertionError("padding doubled an edge")
    return g


def _sweep_setup(cg, seed, workdir):
    # The three verify-trees calls take 0.4-2.5 s and every other operation
    # milliseconds.  LEDGERS_PER_SHAPE keeps those three under 10% of a job's
    # operations, so that op_p90_ms rests on many short operations and not on
    # a few samples of one long call.  The padded trees set how long each
    # ledger takes, so a draw per seed would move the latencies with the draw:
    # the trees are drawn once from LEDGER_DRAW and the seed orders the job.
    draw = Random(LEDGER_DRAW)
    ledgers = []
    for k in (5, 6, 7):
        pool = list(cg.pkg.enumerate_gallai_trees(k, LEDGER_TREE_N))
        params = cg.pkg.make_params(k, cg.pkg.preset_params(k, "smallP"))
        for parts in (1, 2, 3):
            for _ in range(LEDGERS_PER_SHAPE):
                g = pad_to_degree(cg, k, draw.sample(pool, parts))
                comps = sorted(cg.pkg.low_high_split(g, k).l_components, key=min)
                ledgers.append((k, g, params, comps))
    ops = [("verify", k, n) for k, n in SWEEP] + [("construct", k, m) for k, m in CHAINS]
    ops += [("ledger", i) for i in range(len(ledgers))]
    Random(seed).shuffle(ops)
    return {"ops": ops, "ledgers": ledgers}


def _ledger(cg, g, params, comps):
    pkg = cg.pkg
    ledger = pkg.run_main_discharge(g, params)
    replayed = ledger.replay()
    audits = [pkg.tree_charge_audit(g, comp, params, ledger) for comp in comps]
    stats = pkg.sponsorship_stats(g, params, ledger)
    return ledger, replayed, audits, stats


def _sweep_job(cg, inputs, rec):
    results = []
    for op in inputs["ops"]:
        if op[0] == "verify":
            argv = ["verify-trees", "--k", str(op[1]), "--n-max", str(op[2])]
            results.append(rec.op("verify-trees", run_cli, cg, argv))
        elif op[0] == "construct":
            argv = ["construct", "--kind", "chain", "--k", str(op[1]), "--m", str(op[2])]
            results.append(rec.op("construct", run_cli, cg, argv))
        else:
            k, g, params, comps = inputs["ledgers"][op[1]]
            results.append(rec.op("ledger", _ledger, cg, g, params, comps))
    return results


def _chain_tight(cg, k, m):
    pkg = cg.pkg
    g = pkg.extremal_chain(k, m)
    q = pkg.q_value(g, k)
    rhs = pkg.tree_bound_rhs(pkg.preset_params(k, "smallP"), g.n, q)
    return g.n, q == 2 and 2 * g.m == rhs


def _sweep_check(cg, inputs, results):
    bad = []
    info = {"trees_checked": 0, "construct_exit3_over_62": 0, "ledger_transfers": 0}
    for op, res in zip(inputs["ops"], results):
        if isinstance(res, Exception):
            bad.append("%s raised %r" % (op, res))
            continue
        if op[0] == "verify":
            code, out = res
            doc = _doc(out)
            v = doc and doc.get("verdicts", {})
            if code != 0 or not v or v["violations"] != 0 or v["trees_checked"] != SWEEP_COUNTS[op[1]]:
                bad.append("verify-trees k=%d: exit %s, %s" % (op[1], code, v))
            else:
                info["trees_checked"] += v["trees_checked"]
        elif op[0] == "construct":
            code, out = res
            doc = _doc(out)
            k, m = op[1], op[2]
            n, tight = _chain_tight(cg, k, m)
            if not tight:
                bad.append("chain k=%d m=%d is not tight" % (k, m))
            elif code == 0 and doc and doc["verdicts"]["tight"] and doc["verdicts"]["n"] == n:
                pass
            elif code == 3 and n > SHORT_G6_MAX_N and doc and "short form" in doc.get("error", ""):
                # the CLI cannot print a graph6 string past 62 vertices; the
                # chain itself is checked tight above through the library
                info["construct_exit3_over_62"] += 1
            else:
                bad.append("construct k=%d m=%d: exit %s, %s" % (k, m, code, doc))
        else:
            k, g, params, comps = inputs["ledgers"][op[1]]
            ledger, replayed, audits, stats = res
            sends = 3 if params.mode == "symmetric" else 4
            if not (
                ledger.conserved
                and replayed == ledger.final
                and sum(ledger.final) == 2 * g.m
                and len(audits) == len(comps)
                and all(c <= sends for c in stats.gamma_counts.values())
            ):
                bad.append("ledger %d (k=%d, n=%d) fails conservation or replay" % (op[1], k, g.n))
            info["ledger_transfers"] += len(ledger.transfers)
    return bad, info


TREE_SWEEP = Workload(
    "tree-sweep",
    "Sections 2-4: tree enumeration, isomorphism, bounds and discharge ledgers "
    "with zero coloring work, so a coloring change must read no change here.",
    _sweep_setup,
    _sweep_job,
    _sweep_check,
)


# ---------------------------------------------------------------------------
# at-certify: Section 5 reducibility through library calls

TWO_PART_STRIDE = 30  # every 30th two-part instance, a fixed set
SINGLE_SAMPLE = 20  # seeded sample of the single-part instances


def marked_instance(cg, parts, subsets):
    """Disjoint parts plus a last vertex x joined to the chosen subsets."""
    n = sum(p.n for p in parts) + 1
    x = n - 1
    edges, off = [], 0
    for part, sel in zip(parts, subsets):
        edges += [(u + off, v + off) for u, v in part.edges()]
        edges += [(x, s + off) for s in sel]
        off += part.n
    return cg.pkg.Graph(n, edges), x


def _subsets(n, least=1):
    for size in range(least, n + 1):
        yield from combinations(range(n), size)


def lemma51_family(cg):
    """The criterion-9 marked-vertex family over enumerate_gallai_trees(5, 5):
    single parts with |S| >= 3, and pairs of K_4-bearing parts with
    |S_a| + |S_b| >= 4 and at most 20 edges.  Returns (single, two)."""
    trees = list(cg.pkg.enumerate_gallai_trees(5, 5))
    bearing = [t for t in trees if cg.pkg.contains_clique(t, 4)[0]]
    single = [marked_instance(cg, [t], [s]) for t in trees for s in _subsets(t.n, 3)]
    two = []
    for i, a in enumerate(bearing):
        for b in bearing[i:]:
            for sa in _subsets(a.n):
                for sb in _subsets(b.n):
                    if len(sa) + len(sb) >= 4 and a.m + b.m + len(sa) + len(sb) <= 20:
                        two.append(marked_instance(cg, [a, b], [sa, sb]))
    return single, two


def _at_setup(cg, seed, workdir):
    # Certificate-search cost per two-part instance spans 1 ms to 11 s, so a
    # seeded draw among them would measure the draw; they are a fixed stride.
    rng = Random(seed)
    single, two = lemma51_family(cg)
    ops = [("lemma51", g, x) for g, x in two[::TWO_PART_STRIDE]]
    ops += [("lemma51", g, x) for g, x in rng.sample(single, SINGLE_SAMPLE)]
    G = cg.pkg.Graph
    for label, g, k in (("W5", G.wheel(5), 4), ("W7", G.wheel(7), 4), ("W9", G.wheel(9), 4), ("K5", G.complete(5), 5)):
        ops.append(("critical", g, k, label))
    rng.shuffle(ops)
    return {"ops": ops}


def _at_job(cg, inputs, rec):
    pkg = cg.pkg
    results = []
    for op in inputs["ops"]:
        if op[0] == "lemma51":
            results.append(rec.op("check_lemma51", pkg.check_lemma51, op[1], op[2], 5))
        else:
            results.append(rec.op("is_k_AT_critical", pkg.is_k_AT_critical, op[1], op[2]))
    return results


def _certificate_ok(cg, g, x, cert):
    f = [g.degree(v) for v in range(g.n)]
    f[x] -= 1
    d = cert.orientation
    if d.base != g or any(out > cap - 1 for out, cap in zip(d.out_degrees(), f)):
        return False
    poly = cg.coloring.ee_eo_poly(d)
    return poly != 0 and poly == cert.ee - cert.eo


def _at_check(cg, inputs, results):
    bad = []
    info = {"verified": 0, "hypotheses_failed": 0, "at_critical": 0}
    for op, res in zip(inputs["ops"], results):
        if isinstance(res, Exception):
            bad.append("%s raised %r" % (op[0], res))
        elif op[0] == "critical":
            if res is not True:
                bad.append("%s is not AT-critical for k=%d" % (op[3], op[2]))
            else:
                info["at_critical"] += 1
        elif res.status == "hypotheses failed" and not res.all_hold:
            info["hypotheses_failed"] += 1
        elif res.status == "verified" and res.all_hold and _certificate_ok(cg, op[1], op[2], res.certificate):
            info["verified"] += 1
        else:
            bad.append("lemma 5.1 instance %s: status %r" % (cg.pkg.write_graph6(op[1]), res.status))
    return bad, info


AT_CERTIFY = Workload(
    "at-certify",
    "Section 5: early-stopping certificate searches beside exhaustive negative "
    "AT searches and structure-only filtered instances; bypasses the CLI.",
    _at_setup,
    _at_job,
    _at_check,
)


# ---------------------------------------------------------------------------
# cli-stream: many small graphs through main()

# (n, m) strata, three graphs each.  Paint and AT search costs depend on the
# graph and on its labelling: a fresh draw per seed moved op_p90_ms by about
# 18% between seeds, a fresh labelling by about 12%.  So the graphs are drawn
# once from STREAM_DRAW and the seed orders the stream and picks its @file slice.
STREAM_DRAW = 2016
STREAM_STRATA = (
    [(5, m) for m in range(4, 10)]
    + [(6, m) for m in range(5, 15)]
    + [(7, m) for m in (6, 8, 10, 12, 14)]
)
PER_STRATUM = 3
FILE_EVERY = 4  # every 4th graph goes in as an @file edge list
AT_UNIFORM_MAX_M = 12
AT_NUMBER_MAX_M = 10


def random_connected(cg, rng, n, m):
    pairs = list(combinations(range(n), 2))
    while True:
        g = cg.pkg.Graph(n, rng.sample(pairs, m))
        if g.is_connected():
            return g


def _stream_setup(cg, seed, workdir):
    draw = Random(STREAM_DRAW)
    graphs = [random_connected(cg, draw, n, m) for n, m in STREAM_STRATA for _ in range(PER_STRATUM)]
    Random(seed).shuffle(graphs)
    records = []
    for i, g in enumerate(graphs):
        g6 = cg.pkg.write_graph6(g)
        token = g6
        if i % FILE_EVERY == FILE_EVERY - 1:
            path = os.path.join(workdir, "g%03d.txt" % i)
            with open(path, "w", encoding="ascii") as fh:
                fh.write(cg.pkg.write_edge_list(g))
            token = "@" + path
        degs = ",".join(str(d) for d in g.degrees())
        calls = [
            ("chi", ["chi", token]),
            ("choose_deg", ["choose", token, "--f", degs]),
            ("choose_3", ["choose", token, "--uniform", "3"]),
            ("paint_deg", ["paint", token, "--f", degs]),
            ("analyze", ["analyze", token, "--k", "4"]),
        ]
        if g.m <= AT_UNIFORM_MAX_M:
            calls.append(("at_3", ["at", token, "--uniform", "3"]))
        if g.m <= AT_NUMBER_MAX_M:
            calls.append(("at_number", ["at", token, "--number"]))
        records.append((g, g6, calls))
    stream = os.path.join(workdir, "stream.g6")
    with open(stream, "w", encoding="ascii") as fh:
        fh.write(">>graph6<<" + "\n".join(g6 for _, g6, _ in records) + "\n")
    census = [
        ("census_chromatic", ["census", stream, "--k", "4", "--notion", "chromatic"]),
        ("census_list", ["census", stream, "--k", "4", "--notion", "list"]),
    ]
    return {"records": records, "census": census, "digests": None}


def _stream_job(cg, inputs, rec):
    results = []
    for _, _, calls in inputs["records"]:
        for label, argv in calls:
            results.append(rec.op(label, run_cli, cg, argv))
    for label, argv in inputs["census"]:
        results.append(rec.op(label, run_cli, cg, argv))
    return results


def _digest(doc):
    doc = {key: value for key, value in doc.items() if key != "runtime"}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _graph_consistent(cg, g, v):
    """Cross-checks between the verdicts of one graph's calls."""
    a = v["analyze"]
    if (a["n"], a["m"], a["degrees"], a["connected"]) != (g.n, g.m, list(g.degrees()), True):
        return "analyze disagrees with the generated graph"
    # degree-list colorings: for connected graphs both fail exactly on Gallai trees
    if not v["choose_deg"]["f_choosable"] == v["paint_deg"]["f_paintable"] != a["is_gallai_tree"]:
        return "degree-list choosability, paintability and Gallai-tree status disagree"
    chi = v["chi"]["chromatic_number"]
    if not 1 <= chi <= max(g.degrees()) + 1:
        return "chromatic number out of range"
    if v["choose_3"]["f_choosable"] and chi > 3:
        return "3-choosable graph with chromatic number above 3"
    if "at_3" in v:
        at3 = v["at_3"]
        if at3["f_at"] and not v["choose_3"]["f_choosable"]:
            return "3-AT graph that is not 3-choosable"
        if at3["f_at"]:
            arcs = at3["certificate"]["arcs"]
            d = cg.coloring.Orientation(g, [tuple(a) for a in arcs])
            poly = cg.coloring.ee_eo_poly(d)
            if max(d.out_degrees()) > 2 or poly == 0 or poly != at3["certificate"]["ee"] - at3["certificate"]["eo"]:
                return "invalid 3-AT certificate"
    if "at_number" in v:
        number = v["at_number"]["at_number"]
        if number < chi or ("at_3" in v and (number <= 3) != v["at_3"]["f_at"]):
            return "AT number inconsistent with chi or the 3-AT verdict"
    return None


_VERDICT_KEY = {
    "choose_deg": "f_choosable",
    "choose_3": "f_choosable",
    "paint_deg": "f_paintable",
    "at_3": "f_at",
}


def _stream_check(cg, inputs, results):
    bad = []
    info = {"cli_calls": len(results), "exit_1": 0, "census_criticals": 0}
    docs, codes = [], []
    for res in results:
        doc = code = None
        if isinstance(res, Exception):
            bad.append("main() raised %r" % (res,))
        else:
            code, out = res
            doc = _doc(out)
            if code not in (0, 1) or not isinstance(doc, dict) or "error" in doc:
                bad.append("exit %s with output %r" % (code, out[:200]))
                doc = None
            else:
                info["exit_1"] += code
        docs.append(doc)
        codes.append(code)
    digests = [_digest(d) if d else None for d in docs]
    if inputs["digests"] is None:
        inputs["digests"] = digests
    else:
        bad += ["document %d differs from the first job's" % i
                for i, (a, b) in enumerate(zip(digests, inputs["digests"])) if a != b]
    at = 0
    chi4 = not3 = 0
    per_n = {}
    for g, g6, calls in inputs["records"]:
        mine = docs[at : at + len(calls)]
        mine_codes = codes[at : at + len(calls)]
        at += len(calls)
        per_n[g.n] = per_n.get(g.n, 0) + 1
        if any(d is None for d in mine):
            continue
        v = {label: d["verdicts"] for (label, _), d in zip(calls, mine)}
        if any(d["inputs"]["graph"] != g6 for d in mine):
            reason = "graph echo differs"
        elif any(code != (0 if label not in _VERDICT_KEY or v[label][_VERDICT_KEY[label]] else 1)
                 for (label, _), code in zip(calls, mine_codes)):
            reason = "exit code disagrees with the verdict"
        else:
            reason = _graph_consistent(cg, g, v)
        if reason:
            bad.append("%s: %s" % (g6, reason))
        chi4 += v["chi"]["chromatic_number"] == 4
        not3 += not v["choose_3"]["f_choosable"]
    for (label, _), doc in zip(inputs["census"], docs[at:]):
        if doc is None:
            continue
        rows = doc["verdicts"]["rows"]
        criticals = sum(r["criticals"] for r in rows.values())
        info["census_criticals"] += criticals
        limit = chi4 if label == "census_chromatic" else not3
        if {int(n): r["graphs"] for n, r in rows.items()} != per_n or doc["verdicts"]["skipped"] or criticals > limit:
            bad.append("%s: rows %s" % (label, rows))
    return bad, info


CLI_STREAM = Workload(
    "cli-stream",
    "Many small graphs through main(): per-call cost of the deciders, the paint "
    "game, the graph6 and edge-list codecs and the CLI glue.",
    _stream_setup,
    _stream_job,
    _stream_check,
)


WORKLOADS = {w.name: w for w in (TREE_SWEEP, AT_CERTIFY, CLI_STREAM)}
