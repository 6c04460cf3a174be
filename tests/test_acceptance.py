"""Acceptance suite: nine end-to-end criteria, one pass line each.

Each test exercises one headline property of the package against frozen
expected values, exhaustive small families, or symbolic identities, and
asserts its own wall-clock budget.
"""

import time
from fractions import Fraction as F
from itertools import product
from random import Random

import networkx as nx
import pytest

from conftest import charge_corpus, connected_atlas, lemma51_family, nx_to_graph
from critgraphs import (
    Graph,
    are_isomorphic,
    check_thm41,
    check_thm43,
    check_lemma51,
    extremal_chain,
    enumerate_gallai_trees,
    gallai_target,
    is_f_AT,
    is_f_choosable,
    is_f_paintable,
    is_gallai_tree,
    is_k_critical,
    ky_bound,
    low_high_split,
    main_bound,
    make_params,
    preset_params,
    q_value,
    run_gallai_discharge,
    run_main_discharge,
    sponsorship_stats,
    table1,
    tree_bound_failures,
    tree_bound_rhs,
    tree_charge_audit,
)
from critgraphs.coloring import Orientation, ee_eo, ee_eo_poly
from critgraphs.generators import reference_chain_5_2, reference_chain_5_3
from critgraphs.discharge import _RECEIVE_RULES

from test_bounds import COLUMNS, EXPECTED_GRID


def test_criterion_1_reference_table():
    t0 = time.monotonic()
    grid = table1(sorted(EXPECTED_GRID))
    cells = 0
    for k, want in EXPECTED_GRID.items():
        for col, display in zip(COLUMNS, want):
            assert grid[k][col].display == display, (k, col)
            cells += 1
    assert grid[5]["here"].display == "4.1000"
    assert grid[7]["here"].display == "6.1192"
    assert grid[7]["kr"].display == "6.1149"
    assert grid[9]["ks_list"].display == "8.0838"
    assert grid[4]["gallai"].display == "3.0769"
    dt = time.monotonic() - t0
    assert dt < 1.0
    print("criterion 1: PASS (%d table cells match, %.2fs)" % (cells, dt))


def test_criterion_2_tree_bound_sweep():
    t0 = time.monotonic()
    counts = {}
    for k, n_max in ((5, 10), (6, 10), (7, 10)):
        checked = 0
        for g in enumerate_gallai_trees(k, n_max):
            assert tree_bound_failures(g, k) == [], (k, g)
            checked += 1
        counts[k] = checked
    assert counts == {5: 1254, 6: 2004, 7: 2391}
    dt = time.monotonic() - t0
    assert dt < 600
    print(
        "criterion 2: PASS (%d trees, four bounds each, zero violations, %.1fs)"
        % (sum(counts.values()), dt)
    )


def test_criterion_3_extremal_tightness():
    t0 = time.monotonic()
    built = 0
    for k in (5, 6, 7):
        bp = preset_params(k, "smallP")
        for m in (1, 2, 3, 4):
            g = extremal_chain(k, m)
            q = q_value(g, k)
            assert q == 2
            assert F(2 * g.m) == tree_bound_rhs(bp, g.n, q), (k, m)
            built += 1
    assert are_isomorphic(extremal_chain(5, 2), reference_chain_5_2())
    assert are_isomorphic(extremal_chain(5, 3), reference_chain_5_3())
    dt = time.monotonic() - t0
    assert dt < 60
    print("criterion 3: PASS (%d chains exactly tight, figures match, %.1fs)" % (built, dt))


def test_criterion_4_coloring_chain_and_degree_lists():
    t0 = time.monotonic()
    chain_checked = 0
    for n_cap, size in ((6, 2), (5, 3)):
        for g in connected_atlas(n_cap):
            f = [size] * g.n
            at_ok = is_f_AT(g, f) is not None
            paint_ok = is_f_paintable(g, f)
            choose_ok, _ = is_f_choosable(g, f)
            assert not (at_ok and not paint_ok), g
            assert not (paint_ok and not choose_ok), g
            chain_checked += 1
    d0_checked = 0
    for g in connected_atlas(7):
        f = list(g.degrees())
        choose_ok, _ = is_f_choosable(g, f)
        paint_ok = is_f_paintable(g, f)
        gallai = is_gallai_tree(g)
        assert choose_ok == paint_ok == (not gallai), g
        d0_checked += 1
    dt = time.monotonic() - t0
    assert dt < 1800
    print(
        "criterion 4: PASS (%d chain cases, %d degree-list cases, %.1fs)"
        % (chain_checked, d0_checked, dt)
    )


def _disjoint_union(parts):
    n = 0
    edges = []
    for g in parts:
        edges += [(u + n, v + n) for u, v in g.edges()]
        n += g.n
    return Graph(n, edges)


def _connected_catalog():
    """Connected graphs with 1..8 edges, one per isomorphism class.

    Atlas covers everything on <= 7 vertices; the rest (8 or 9 vertices,
    still <= 8 edges) are trees and the 8-vertex unicyclic graphs.
    """
    by_m = {m: [] for m in range(1, 9)}
    for g in connected_atlas(7):
        if 1 <= g.m <= 8:
            by_m[g.m].append(g)
    trees8 = [nx_to_graph(t) for t in nx.nonisomorphic_trees(8)]
    assert len(trees8) == 23
    by_m[7].extend(trees8)
    trees9 = [nx_to_graph(t) for t in nx.nonisomorphic_trees(9)]
    assert len(trees9) == 47
    by_m[8].extend(trees9)
    unicyclic = []
    for t in trees8:
        for u in range(8):
            for v in range(u + 1, 8):
                if t.has_edge(u, v):
                    continue
                cand = t.add_edges([(u, v)])
                key = sorted(cand.degrees())
                if not any(
                    sorted(h.degrees()) == key and are_isomorphic(cand, h)
                    for h in unicyclic
                ):
                    unicyclic.append(cand)
    assert len(unicyclic) == 89
    by_m[8].extend(unicyclic)
    return by_m


def _all_graphs_up_to_8_edges():
    """Every graph with 1..8 edges and no isolated vertices, as disjoint
    unions of catalog pieces (multisets, nondecreasing edge count)."""
    by_m = _connected_catalog()
    pieces = [(m, g) for m in range(1, 9) for g in by_m[m]]
    out = []

    def rec(start, budget, parts):
        if parts:
            out.append(_disjoint_union(parts))
        for idx in range(start, len(pieces)):
            m, g = pieces[idx]
            if m <= budget:
                rec(idx, budget - m, parts + [g])

    rec(0, 8, [])
    return out


def _is_acyclic(n, arcs):
    indeg = [0] * n
    heads = {}
    for u, v in arcs:
        indeg[v] += 1
        heads.setdefault(u, []).append(v)
    queue = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for w in heads.get(u, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == n


def _check_orientation(d):
    ee, eo = ee_eo(d)
    assert ee - eo == ee_eo_poly(d)
    assert ee >= 1
    if _is_acyclic(d.base.n, d.arcs):
        assert eo == 0


def test_criterion_5_eulerian_count_oracles():
    t0 = time.monotonic()
    oriented = 0
    for g in _all_graphs_up_to_8_edges():
        es = list(g.edges())
        for bits in product((0, 1), repeat=len(es)):
            d = Orientation(g, [(u, v) if b else (v, u) for (u, v), b in zip(es, bits)])
            _check_orientation(d)
            oriented += 1
    rng = Random(5)
    for _ in range(1000):
        n = rng.randint(8, 10)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        es = rng.sample(pool, rng.randint(9, 12))
        d = Orientation(Graph(n, es), [e if rng.random() < 0.5 else e[::-1] for e in es])
        _check_orientation(d)
        oriented += 1
    dt = time.monotonic() - t0
    assert dt < 600
    print("criterion 5: PASS (%d orientations, both oracles agree, %.1fs)" % (oriented, dt))


def test_criterion_6_minimum_size_census():
    t0 = time.monotonic()
    sixes = [g for g in connected_atlas(6) if g.n == 6]
    assert len(sixes) == 112
    hits = [g for g in sixes if is_k_critical(g, 4)]
    assert len(hits) == 1
    assert hits[0].m == 10 == ky_bound(4, 6)
    assert are_isomorphic(hits[0], Graph.wheel(5))
    dt = time.monotonic() - t0
    assert dt < 300
    print("criterion 6: PASS (min edges 10 on %d graphs, witness is the 5-wheel, %.1fs)"
          % (len(sixes), dt))


def test_criterion_7_ledger_properties():
    t0 = time.monotonic()
    instances = 0
    for k in (5, 6, 7):
        params = make_params(k, preset_params(k, "smallP"))
        sends = 3 if params.mode == "symmetric" else 4
        cap = sends * params.gamma + (k - sends) * params.epsilon
        for inst in charge_corpus(k):
            g = inst.graph
            ledger = run_main_discharge(g, params)
            assert sum(ledger.final) == 2 * g.m
            for v in range(g.n):
                if g.degree(v) == k:
                    assert ledger.outflow(v, _RECEIVE_RULES) <= cap
            for comp in low_high_split(g, k).l_components:
                audit = tree_charge_audit(g, comp, params, ledger)
                if audit.q == 0:
                    assert audit.received >= params.epsilon * audit.A
                else:
                    assert audit.received >= (
                        params.epsilon * audit.A + params.gamma * (audit.q - 2)
                    )
            stats = sponsorship_stats(g, params, ledger)
            assert all(c <= sends for c in stats.gamma_counts.values())
            instances += 1
    assert instances >= 20
    wheel = run_gallai_discharge(Graph.wheel(5), 4)
    assert sum(wheel.final) == 2 * Graph.wheel(5).m
    assert min(wheel.final) >= gallai_target(4)
    for name in ("smallP", "ks", "gallai"):
        for k in range(5, 31):
            bp = preset_params(k, name)
            eps = 1 / (k + 2 + 3 * bp.h - bp.p)
            gam = eps * (bp.h + 1)
            assert 1 - (3 * gam + (k - 3) * eps) == eps * (2 - bp.p), (name, k)
    dt = time.monotonic() - t0
    assert dt < 60
    print(
        "criterion 7: PASS (%d corpus instances plus the 5-wheel, identity over k=5..30, %.1fs)"
        % (instances, dt)
    )


def test_criterion_8_parameter_checkers():
    t0 = time.monotonic()
    for k in range(7, 101):
        assert check_thm41(preset_params(k, "smallP")).passed
        assert check_thm41(preset_params(k, "ks")).passed
        assert check_thm41(preset_params(k, "gallai")).passed
    for k in (5, 6):
        assert check_thm43(preset_params(k, "smallP")).passed
    for k in range(7, 101):
        closed = (k - 1) + F((k - 3) * (2 * k - 5), k**3 + k**2 - 15 * k + 15)
        assert main_bound(k, "thm41", preset_params(k, "smallP")) == closed
    for k in (5, 6):
        closed = (k - 1) + F((k - 3) * (2 * k - 5), k**3 + 2 * k**2 - 18 * k + 15)
        assert main_bound(k, "thm43", preset_params(k, "smallP")) == closed
    dt = time.monotonic() - t0
    assert dt < 1.0
    print("criterion 8: PASS (presets pass for k=5..100, closed forms exact, %.2fs)" % dt)


def test_criterion_9_single_vertex_family():
    t0 = time.monotonic()
    held = verified = failed = 0
    for g, x in lemma51_family():
        report = check_lemma51(g, x, 5)
        assert report.status in ("verified", "hypotheses failed"), report.status
        if report.all_hold:
            held += 1
            assert report.status == "verified"
            verified += 1
        else:
            failed += 1
    assert verified == held and verified >= 50
    dt = time.monotonic() - t0
    assert dt < 1800
    print(
        "criterion 9: PASS (%d hypothesis-satisfying instances all confirmed, "
        "%d filtered, %.1fs)" % (verified, failed, dt)
    )
