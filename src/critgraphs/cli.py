"""Command line front end.

Every subcommand prints one JSON report to stdout: command, inputs, the claim
label it exercises, verdicts, budgets, runtime.  Everything outside the
"runtime" group is deterministic, so two runs on the same input can be
compared after deleting that one key.

Exit codes: 0 verified/true, 1 falsified, 2 budget exceeded, 3 input error.
"""

import argparse
import functools
import json
import os
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction

from .bounds import (
    TABLE1_COLUMNS,
    _tree_bound_sweep,
    _tree_limits,
    dirac_bound,
    ky_bound,
    preset_params,
    table1,
)
from .coloring import (
    AT_MAX_EDGES,
    CHI_MAX_VERTICES,
    CHOOSE_MAX_VERTICES,
    PAINT_MAX_VERTICES,
    at_number,
    chromatic_number,
    is_f_AT,
    is_f_choosable,
    is_f_paintable,
    is_k_AT_critical,
    is_k_critical,
    is_k_list_critical,
    is_k_paint_critical,
)
from .discharge import (
    gallai_target,
    make_params,
    run_gallai_discharge,
    run_main_discharge,
    sponsorship_stats,
    tree_charge_audit,
)
from .errors import BudgetExceeded, EliminationFailed, GraphFormatError, PreconditionError
from .generators import (
    _chain_order,
    _clique_path_order,
    clique_path,
    extremal_chain,
)
from .graph import (
    Graph,
    _check_graph6_order,
    _ints,
    parse_edge_list,
    parse_graph6,
    write_graph6,
)
from .reducible import MARKED_SET_CHECKS, MAX_EXPLORED, check_lemma51
from .structure import (
    REGIMES,
    block_decomposition,
    build_auxiliary,
    eliminate,
    in_t_k,
    is_gallai_tree,
    low_high_split,
    q_value,
    regime,
    w_k,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; 2 means budget exceeded here
    def error(self, message):
        raise _UsageError(message)


def _int_at_least(low: int):
    """An argparse type for an integer no less than low: a budget below 0 or
    a tree order below 1 can mean nothing."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
        if value < low:
            raise argparse.ArgumentTypeError("%d is less than %d" % (value, low))
        return value

    return parse


_BUDGET = _int_at_least(0)


def _rat(x) -> str:
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


def _read_text(source: str) -> str:
    """The text of the file at source, or of stdin for '-'; either must be ASCII."""
    name = "stdin" if source == "-" else repr(source)
    try:
        if source == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(source, "rb") as fh:
                data = fh.read()
        # decoded whole, so an error's offset counts from the first byte
        return data.decode("ascii")
    except UnicodeDecodeError as e:
        raise GraphFormatError(
            "byte 0x%02x at byte offset %d of %s is not ASCII" % (e.object[e.start], e.start, name)
        ) from None
    except ValueError as e:  # e.g. open() rejects a path holding a NUL byte
        raise GraphFormatError("cannot read %s: %s" % (name, e)) from None


def _graph6_records(text: str):
    """(line number, record) for each line left non-blank once a '>>graph6<<' header is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith(">>graph6<<"):
            line = line[len(">>graph6<<"):]
        if line:
            yield lineno, line


def _read_graph(token: str, max_vertices=None, max_edges=None) -> Graph:
    """Accept a graph6 literal, '@path' to a file, or '-' for stdin; a bare
    '@' is the graph6 literal of K1.  A file whose first non-blank line is an
    'n m' header is an edge list, checked against max_vertices and max_edges
    before it is built; any other file holds one graph6 record."""
    if token == "@" or token != "-" and not token.startswith("@"):
        return parse_graph6(token)
    text = _read_text(token if token == "-" else token[1:])
    header = next((ln for ln in text.splitlines() if ln.strip()), "")
    counts = _ints(header)
    if counts is not None and len(counts) == 2:
        n, m = counts
        # a header with a negative count is parse_edge_list's to reject
        if min(counts) >= 0:
            if max_vertices is not None and n > max_vertices:
                raise BudgetExceeded("edge list header names %d vertices, over the budget of %d"
                                     % (n, max_vertices))
            if max_edges is not None and m > max_edges:
                raise BudgetExceeded("edge list header names %d edges, over the budget of %d"
                                     % (m, max_edges))
            # every graph command echoes its graph as graph6
            _check_graph6_order(n)
        return parse_edge_list(text)
    records = _graph6_records(text)
    _, first = next(records, (0, None))
    if first is None:
        raise GraphFormatError("empty input")
    extra = next(records, None)
    if extra is not None:
        raise GraphFormatError("line %d: a second graph6 record; a file holds one graph" % extra[0])
    return parse_graph6(first)


def _int_list(text: str, name: str) -> list:
    """The integers of a comma or space separated option value."""
    values = _ints(text.replace(",", " "))
    if values is None:
        raise PreconditionError("%s entries must be integers: %r" % (name, text))
    return values


def _parse_f(args, g: Graph):
    if getattr(args, "f", None):
        f = _int_list(args.f, "f")
        if len(f) != g.n:
            raise PreconditionError("f has %d entries for %d vertices" % (len(f), g.n))
        return f
    if getattr(args, "uniform", None) is not None:
        return [args.uniform] * g.n
    raise PreconditionError("give a list size via --f or --uniform")


def _budget(max_vertices=None, max_edges=None, max_states=None, exceeded=False):
    return {
        "max_vertices": max_vertices,
        "max_edges": max_edges,
        "max_states": max_states,
        "exceeded": exceeded,
    }


def _certificate(cert) -> dict:
    return {
        "arcs": [list(a) for a in cert.orientation.arcs],
        "ee": cert.ee,
        "eo": cert.eo,
    }


# criticality notion -> (decider, budget keyword, default budget)
_CRITICAL = {
    "chromatic": (is_k_critical, "max_vertices", CHI_MAX_VERTICES),
    "list": (is_k_list_critical, "max_vertices", CHOOSE_MAX_VERTICES),
    "online": (is_k_paint_critical, "max_vertices", PAINT_MAX_VERTICES),
    "at": (is_k_AT_critical, "max_edges", AT_MAX_EDGES),
}


def _critical_decider(args):
    """The decider for args.notion, and its budget as keyword arguments.
    A budget flag the notion does not read is an input error."""
    decide, key, default = _CRITICAL[args.notion]
    for other in ("max_vertices", "max_edges"):
        if other != key and getattr(args, other) is not None:
            raise PreconditionError(
                "--%s is not read by --notion %s" % (other.replace("_", "-"), args.notion)
            )
    value = getattr(args, key)
    return decide, {key: default if value is None else value}


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (verdicts, exit code, anchor, inputs, budget)


def _cmd_analyze(args):
    k = args.k
    if k < 4:
        raise PreconditionError("k must be at least 4")
    g = _read_graph(args.graph)
    connected = g.is_connected()
    if connected:
        decomp = block_decomposition(g)
        blocks = decomp.blocks
        cuts = decomp.cut_vertices
    else:
        blocks, cuts = (), frozenset()
    split = low_high_split(g, k)
    aux = build_auxiliary(g, k)
    elim = {}
    for mode in REGIMES:
        r = eliminate(aux, mode)
        elim[mode] = {
            "succeeded": r.succeeded,
            "order": [list(step) for step in r.order],
            "residual_trees": sorted(r.residual_trees) if r.residual_trees else None,
            "residual_highs": sorted(r.residual_highs) if r.residual_highs else None,
        }
    verdicts = {
        "n": g.n,
        "m": g.m,
        "degrees": [g.degree(v) for v in range(g.n)],
        "connected": connected,
        "is_gallai_tree": is_gallai_tree(g),
        "in_T_k": in_t_k(g, k),
        "blocks": [sorted(b) for b in blocks],
        "cut_vertices": sorted(cuts),
        "w_vertices": sorted(w_k(g, k)),
        "q": q_value(g, k) if connected else None,
        "l_components": [sorted(c) for c in split.l_components],
        "h_vertices": sorted(split.h_vertices),
        "higher_vertices": sorted(split.higher_vertices),
        "aux_edges": sorted([y, i] for y, i in aux.edges),
        "elimination": elim,
    }
    inputs = {"graph": write_graph6(g), "k": k}
    return verdicts, 0, "Section 2 structure", inputs, _budget()


def _cmd_bounds(args):
    ks = args.k or [4, 5, 6, 7, 8, 9, 10, 15, 20]
    grid = table1(ks)
    rows = {}
    for k in ks:
        row = {}
        for col in TABLE1_COLUMNS:
            cell = grid[k][col]
            row[col] = {
                "display": cell.display,
                "exact": _rat(cell.exact) if cell.exact is not None else None,
            }
        rows[str(k)] = row
    return {"rows": rows}, 0, "Table 1", {"k": ks}, _budget()


def _cmd_verify_trees(args):
    k = args.k
    # at k = 4 the without-clique triple fails Lemma 3.1's conditions and
    # smallP fails Lemma 3.2's, so what would be checked is no lemma's bound
    if k < 5:
        raise PreconditionError("k must be at least 5")
    checked = 0
    violations = []
    for g, failures in _tree_bound_sweep(k, args.n_max):
        checked += 1
        if failures:
            violations.append({"graph": write_graph6(g), "failed": failures})
    verdicts = {
        "trees_checked": checked,
        "violations": len(violations),
        "violating": violations[:10],
    }
    code = 0 if not violations else 1
    inputs = {"k": k, "n_max": args.n_max}
    return verdicts, code, "Lemmas 2.2, 3.1 and Corollary 3.3", inputs, _budget()


def _cmd_construct(args):
    k, m = args.k, args.m
    chain = args.kind == "chain"
    # refused before it is built when its graph6 could not be printed
    _check_graph6_order((_chain_order if chain else _clique_path_order)(k, m))
    g = (extremal_chain if chain else clique_path)(k, m)
    q = q_value(g, k)
    # the limits verify-trees checks each tree against
    refined, limit = _tree_limits(k, g.n, q)
    rhs, anchor = (limit, "Corollary 3.3") if chain else (refined, "Lemma 2.2 refinement")
    verdicts = {
        "graph6": write_graph6(g),
        "n": g.n,
        "edges": g.m,
        "q": q,
        "two_norm": 2 * g.m,
        "rhs": _rat(rhs),
        "tight": Fraction(2 * g.m) == rhs,
    }
    inputs = {"kind": args.kind, "k": k, "m": m}
    return verdicts, 0, anchor, inputs, _budget()


def _cmd_at(args):
    g = _read_graph(args.graph, max_edges=args.max_edges)
    inputs = {"graph": write_graph6(g)}
    budget = _budget(max_edges=args.max_edges)
    if args.number:
        value = at_number(g, max_edges=args.max_edges)
        return {"at_number": value}, 0, "Alon-Tarsi orientations", inputs, budget
    f = _parse_f(args, g)
    inputs["f"] = f
    cert = is_f_AT(g, f, max_edges=args.max_edges)
    verdicts = {"f_at": cert is not None}
    if cert is not None:
        verdicts["certificate"] = _certificate(cert)
    code = 0 if cert is not None else 1
    return verdicts, code, "Alon-Tarsi orientations", inputs, budget


def _cmd_choose(args):
    g = _read_graph(args.graph, args.max_vertices)
    f = _parse_f(args, g)
    ok, witness = is_f_choosable(g, f, max_vertices=args.max_vertices)
    verdicts = {"f_choosable": ok}
    if witness is not None:
        verdicts["bad_assignment"] = {
            str(v): sorted(colors) for v, colors in witness.items()
        }
    inputs = {"graph": write_graph6(g), "f": f}
    budget = _budget(max_vertices=args.max_vertices)
    return verdicts, 0 if ok else 1, "list coloring", inputs, budget


def _cmd_paint(args):
    g = _read_graph(args.graph, args.max_vertices)
    f = _parse_f(args, g)
    ok = is_f_paintable(g, f, max_vertices=args.max_vertices)
    inputs = {"graph": write_graph6(g), "f": f}
    budget = _budget(max_vertices=args.max_vertices)
    return {"f_paintable": ok}, 0 if ok else 1, "online list coloring", inputs, budget


def _cmd_chi(args):
    g = _read_graph(args.graph, args.max_vertices)
    value = chromatic_number(g, max_vertices=args.max_vertices)
    inputs = {"graph": write_graph6(g)}
    budget = _budget(max_vertices=args.max_vertices)
    return {"chromatic_number": value}, 0, "chromatic number", inputs, budget


def _cmd_critical(args):
    decide, limit = _critical_decider(args)
    g = _read_graph(args.graph, **limit)
    ok = decide(g, args.k, **limit)
    inputs = {"graph": write_graph6(g), "k": args.k, "notion": args.notion}
    return {"critical": ok}, 0 if ok else 1, "criticality notions", inputs, _budget(**limit)


def _ledger_verdicts(g, ledger, target):
    margins = {str(v): _rat(ledger.final[v] - target) for v in range(g.n)}
    min_margin = min((ledger.final[v] - target for v in range(g.n)), default=None)
    return {
        "initial": {str(v): _rat(ledger.initial[v]) for v in range(g.n)},
        "final": {str(v): _rat(ledger.final[v]) for v in range(g.n)},
        "margins": margins,
        "min_margin": _rat(min_margin) if min_margin is not None else None,
        "meets_target": min_margin is not None and min_margin >= 0,
        "conserved": ledger.conserved,
        "transfers": [
            [rule, src, dst, _rat(amount)] for rule, src, dst, amount in ledger.transfers
        ],
        "component_shares": [
            {
                "index": cs.index,
                "vertices": sorted(cs.vertices),
                "total": _rat(cs.total),
                "share": _rat(cs.share),
            }
            for cs in ledger.component_shares
        ],
    }


def _cmd_discharge(args):
    g = _read_graph(args.graph)
    k = args.k
    preset = "smallP" if args.preset is None else args.preset
    inputs = {"graph": write_graph6(g), "k": k, "preset": preset, "mode": args.mode}
    if args.mode == "gallai-sec2":
        if args.preset is not None:
            raise PreconditionError("--preset is not read by --mode gallai-sec2")
        ledger = run_gallai_discharge(g, k)
        target = gallai_target(k)
        verdicts = _ledger_verdicts(g, ledger, target)
        verdicts["target"] = _rat(target)
        code = 0 if verdicts["meets_target"] else 1
        return verdicts, code, "Theorem 2.1", inputs, _budget()
    params = make_params(k, preset_params(k, preset), args.mode)
    anchor = REGIMES[params.mode].theorem
    try:
        ledger = run_main_discharge(g, params)
    except EliminationFailed as e:
        trees, highs, edges = e.residual
        verdicts = {
            "elimination_failed": True,
            "residual_trees": sorted(trees),
            "residual_highs": sorted(highs),
            "residual_edges": sorted([y, i] for y, i in edges),
        }
        return verdicts, 1, anchor, inputs, _budget()
    verdicts = _ledger_verdicts(g, ledger, params.target)
    verdicts["mode"] = params.mode
    verdicts["epsilon"] = _rat(params.epsilon)
    verdicts["gamma"] = _rat(params.gamma)
    verdicts["target"] = _rat(params.target)
    stats = sponsorship_stats(g, params, ledger)
    verdicts["sponsorship"] = {
        "gamma_counts": {str(v): c for v, c in sorted(stats.gamma_counts.items())},
        "unsponsored": {str(i): c for i, c in sorted(stats.unsponsored.items())},
        "max_w_neighbors": stats.max_w_neighbors,
    }
    audits = []
    audit_failures = []
    for share in ledger.component_shares:
        comp = share.vertices
        try:
            a = tree_charge_audit(g, comp, params, ledger)
            audits.append(
                {
                    "component": comp,
                    "A": a.A,
                    "q": a.q,
                    "received": _rat(a.received),
                    "floor": _rat(a.floor),
                    "has_full_clique": a.has_full_clique,
                }
            )
        except AssertionError as e:
            audit_failures.append({"component": comp, "error": str(e)})
    verdicts["audits"] = audits
    if audit_failures:
        verdicts["audit_failures"] = audit_failures
    code = 0 if verdicts["meets_target"] and not audit_failures else 1
    return verdicts, code, anchor, inputs, _budget()


def _cmd_reduce_check(args):
    g = _read_graph(args.graph)
    k = args.k
    inputs = {"graph": write_graph6(g), "k": k}
    if args.x is not None:
        # Lemma 5.1 has no regime and runs no induced-subgraph search
        for flag in ("variant", "max_states"):
            if getattr(args, flag) is not None:
                raise PreconditionError("--%s is not read by --x" % flag.replace("_", "-"))
        budget = _budget(max_edges=args.max_edges)
        inputs["x"] = args.x
        report = check_lemma51(g, args.x, k, max_edges=args.max_edges)
        anchor = "Lemma 5.1"
    else:
        if not args.y:
            raise PreconditionError("give --x or --y")
        ys = _int_list(args.y, "y")
        if not ys or len(set(ys)) < len(ys):
            raise PreconditionError("--y must name distinct vertices: %r" % args.y)
        inputs["y"] = ys
        mode = regime(k, args.variant or "auto")
        max_states = MAX_EXPLORED if args.max_states is None else args.max_states
        budget = _budget(max_edges=args.max_edges, max_states=max_states)
        report = MARKED_SET_CHECKS[mode](
            g, ys, k, max_edges=args.max_edges, max_explored=max_states
        )
        anchor = REGIMES[mode].lemma
    verdicts = {
        "hypotheses": report.hypotheses,
        "all_hold": report.all_hold,
        "f_at": report.f_at,
        "status": report.status,
    }
    if report.witness_vertices is not None:
        verdicts["witness_vertices"] = list(report.witness_vertices)
    if report.certificate is not None:
        verdicts["certificate"] = _certificate(report.certificate)
    if report.status == "verified":
        code = 0
    elif report.status == "not verified: budget":
        code = 2
        budget["exceeded"] = True
    else:
        code = 1
    return verdicts, code, anchor, inputs, budget


def _cmd_census(args):
    k, notion = args.k, args.notion
    decide, limit = _critical_decider(args)
    text = _read_text(args.stream)
    source = "stdin" if args.stream == "-" else args.stream
    rows = {}
    errors = []
    skipped = 0
    for lineno, line in _graph6_records(text):
        try:
            g = parse_graph6(line)
        except GraphFormatError as e:
            errors.append({"line": lineno, "error": str(e)})
            continue
        row = rows.setdefault(
            g.n, {"graphs": 0, "criticals": 0, "skipped": 0, "min_edges": None, "witness": None}
        )
        row["graphs"] += 1
        try:
            ok = decide(g, k, **limit)
        except BudgetExceeded:
            row["skipped"] += 1
            skipped += 1
            continue
        if not ok:
            continue
        row["criticals"] += 1
        if row["min_edges"] is None or g.m < row["min_edges"]:
            row["min_edges"] = g.m
            row["witness"] = write_graph6(g)
    for n, row in rows.items():
        # the first bound is on 2||G|| and assumes G != K_k; the second on
        # ||G||; neither holds below k = 2
        row["dirac_2m"] = dirac_bound(k, n) if k >= 2 else None
        row["ky_edges"] = ky_bound(k, n) if k >= 2 else None
    # the reference table starts at k = 4; its "here" column is the main bound
    row = table1([k])[k] if k >= 4 else {}
    avg_bounds = {
        key: _rat(row[col].exact) if row and row[col].exact is not None else None
        for key, col in (("gallai", "gallai"), ("kriv", "kriv"), ("main", "here"))
    }
    verdicts = {
        "rows": {str(n): rows[n] for n in sorted(rows)},
        "avg_degree_bounds": avg_bounds,
        "skipped": skipped,
        "errors": errors,
    }
    if errors:
        code = 3
    elif skipped:
        code = 2
    else:
        code = 0
    inputs = {"stream": source, "k": k, "notion": notion}
    budget = _budget(**limit, exceeded=bool(skipped))
    return verdicts, code, "size of critical graphs", inputs, budget


# ---------------------------------------------------------------------------


# built on the first main() call, not at import, and shared by every later
# call: a parse keeps its state in the Namespace main() passes in, every
# default is immutable and the subcommand handlers are module functions
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="critgraphs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = add("analyze", _cmd_analyze, "structure report for one graph")
    p.add_argument("graph", help="graph6 literal, @file, or - for stdin")
    p.add_argument("--k", type=int, required=True)

    p = add("bounds", _cmd_bounds, "reference table of average-degree bounds")
    p.add_argument("--k", type=int, nargs="+", default=None)

    p = add("verify-trees", _cmd_verify_trees, "check tree bounds over an enumeration")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=_int_at_least(1), default=8)

    p = add("construct", _cmd_construct, "build a tightness example")
    p.add_argument("--kind", choices=("chain", "clique-path"), default="chain")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    def add_list_size(p):
        # conflicting options are a usage error, not a silent choice
        group = p.add_mutually_exclusive_group()
        group.add_argument("--f", help="comma separated list sizes")
        group.add_argument("--uniform", type=int)
        return group

    p = add("at", _cmd_at, "orientation certificate search")
    p.add_argument("graph")
    sizes = add_list_size(p)
    sizes.add_argument("--number", action="store_true", help="compute the least uniform bound")
    p.add_argument("--max-edges", type=_BUDGET, default=AT_MAX_EDGES)

    p = add("choose", _cmd_choose, "list-colorability decision")
    p.add_argument("graph")
    add_list_size(p)
    p.add_argument("--max-vertices", type=_BUDGET, default=CHOOSE_MAX_VERTICES)

    p = add("paint", _cmd_paint, "painting game decision")
    p.add_argument("graph")
    add_list_size(p)
    p.add_argument("--max-vertices", type=_BUDGET, default=PAINT_MAX_VERTICES)

    p = add("chi", _cmd_chi, "chromatic number")
    p.add_argument("graph")
    p.add_argument("--max-vertices", type=_BUDGET, default=CHI_MAX_VERTICES)

    def add_notion(p):
        # an unset budget takes the notion's default from _CRITICAL
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--notion", choices=tuple(_CRITICAL), default="chromatic")
        p.add_argument("--max-vertices", type=_BUDGET, default=None)
        p.add_argument("--max-edges", type=_BUDGET, default=None)

    p = add("critical", _cmd_critical, "criticality decision")
    p.add_argument("graph")
    add_notion(p)

    p = add("discharge", _cmd_discharge, "run a discharging procedure with a full ledger")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    # unset, this is smallP; --mode gallai-sec2 reads no preset
    p.add_argument("--preset", choices=("gallai", "ks", "smallP"), default=None)
    p.add_argument(
        "--mode",
        choices=("auto", *REGIMES, "gallai-sec2"),
        default="auto",
    )

    p = add("reduce-check", _cmd_reduce_check, "reducible-configuration hypothesis check")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    marks = p.add_mutually_exclusive_group()
    marks.add_argument("--x", type=int, default=None, help="single marked vertex")
    marks.add_argument("--y", help="comma separated marked vertex set")
    # unset, these take "auto" and MAX_EXPLORED under --y; --x reads neither
    p.add_argument("--variant", choices=("auto", *REGIMES), default=None)
    p.add_argument("--max-edges", type=_BUDGET, default=AT_MAX_EDGES)
    p.add_argument("--max-states", type=_BUDGET, default=None)

    p = add("census", _cmd_census, "scan a graph6 stream for critical graphs")
    p.add_argument("stream", help="file of graph6 records, or - for stdin")
    add_notion(p)

    return parser


def _emit(doc) -> None:
    try:
        print(json.dumps(doc, indent=2, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (as `| head -1` does); the exit code still
        # carries the verdict, and the interpreter's last flush goes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    parser = _build_parser()
    # parsed in place, so a usage error still knows a recognised command
    args = argparse.Namespace(command=None)
    try:
        parser.parse_args(argv, args)
    except _UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        _emit({"command": args.command, "error": "usage error: %s" % e, "exit": 3})
        return 3
    except SystemExit as e:  # only -h/--help gets here, after printing the help
        return e.code
    t0 = time.time()
    command = args.command
    try:
        verdicts, code, anchor, inputs, budget = args.func(args)
    except (GraphFormatError, PreconditionError, OSError) as e:
        _emit({"command": command, "error": str(e), "exit": 3})
        return 3
    except BudgetExceeded as e:
        _emit(
            {
                "command": command,
                "error": str(e),
                "budget": _budget(exceeded=True),
                "exit": 2,
            }
        )
        return 2
    except AssertionError as e:
        _emit({"command": command, "error": "fatal: %s" % e, "exit": 1})
        return 1
    doc = {
        "command": command,
        "inputs": inputs,
        "paper_anchor": anchor,
        "verdicts": verdicts,
        "budget": budget,
        "runtime": {
            "seconds": round(time.time() - t0, 6),
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
    }
    _emit(doc)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
