"""Reducible-configuration checkers."""

from itertools import combinations
from random import Random

import pytest

from conftest import lemma51_family
from critgraphs import (
    Graph,
    PreconditionError,
    build_aux_partition,
    check_lemma51,
    check_lemma52,
    check_lemma53,
    contains_clique,
    eliminate,
    in_t_k,
    induced_subgraph,
    parse_graph6,
)
from critgraphs.graph import _clique_vertices, _component_masks, _mask_bits, _vertex_mask
from critgraphs.reducible import MARKED_SET_CHECKS
from critgraphs.structure import REGIMES

SINGLE_KEYS = {"no_Kk", "parts_in_Tk", "outside_degree_cap", "w_hit_every_part", "x_degree"}
MULTI_KEYS = {"no_Kk", "parts_in_Tk", "outside_degree_cap", "aux_degrees"}


def marked_trees(k, tree_sizes, contacts):
    """Disjoint cliques K_{size} plus marked vertices; contacts[j] lists the
    (tree index, vertex offset) pairs wired to marked vertex j."""
    sizes = list(tree_sizes)
    starts = []
    total = 0
    edges = []
    for s in sizes:
        starts.append(total)
        edges += [(total + a, total + b) for a in range(s) for b in range(a + 1, s)]
        total += s
    ys = []
    for wires in contacts:
        y = total
        total += 1
        ys.append(y)
        edges += [(y, starts[i] + off) for i, off in wires]
    return Graph(total, edges), ys


def test_single_vertex_verified():
    g = Graph.complete(5).remove_edge(3, 4)
    report = check_lemma51(g, 3, 5)
    assert set(report.hypotheses) == SINGLE_KEYS
    assert report.all_hold
    assert report.status == "verified"
    assert report.f_at is True
    assert report.certificate.ee != report.certificate.eo
    assert report.witness_vertices is None


def test_single_vertex_budget():
    g = Graph.complete(5).remove_edge(3, 4)
    report = check_lemma51(g, 3, 5, max_edges=5)
    assert report.all_hold
    assert report.status == "not verified: budget"
    assert report.f_at is None and report.certificate is None


def test_single_vertex_degree_too_small():
    g = Graph(5, [(a, b) for a in range(4) for b in range(a + 1, 4)] + [(4, 0), (4, 1)])
    report = check_lemma51(g, 4, 5)
    assert report.hypotheses["x_degree"] is False
    assert report.hypotheses["w_hit_every_part"] is True
    assert report.status == "hypotheses failed"
    assert not report.all_hold


def test_single_vertex_missed_part():
    # the pendant component has no K_4, so x cannot reach its W side
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges += [(4, 0), (4, 1), (4, 2), (4, 3), (4, 5)]
    report = check_lemma51(Graph(6, edges), 4, 5)
    assert report.hypotheses["w_hit_every_part"] is False
    assert report.hypotheses["x_degree"] is True
    assert report.status == "hypotheses failed"


def test_single_vertex_clique_leak():
    edges = [(a, b) for a in range(5) for b in range(a + 1, 5)] + [(5, 0)]
    report = check_lemma51(Graph(6, edges), 5, 5)
    assert report.hypotheses["no_Kk"] is False
    assert report.hypotheses["parts_in_Tk"] is False


def test_single_vertex_guards():
    with pytest.raises(PreconditionError):
        check_lemma51(Graph.complete(4), 0, 4)
    with pytest.raises(PreconditionError):
        check_lemma51(Graph.complete(4), 7, 5)


def test_symmetric_multi_hypotheses_hold_budget_stops_search():
    contacts = [[(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 1), (2, 1)], [(0, 2), (1, 2), (2, 2)]]
    g, ys = marked_trees(7, [6, 6, 6], contacts)
    assert g.m == 54
    report = check_lemma52(g, ys, 7)
    assert set(report.hypotheses) == MULTI_KEYS
    assert report.all_hold
    assert report.status == "not verified: budget"
    assert report.witness_vertices is None


def test_symmetric_multi_thin_marked_vertex():
    contacts = [[(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 1), (2, 1)], [(0, 2), (1, 2)]]
    g, ys = marked_trees(7, [6, 6, 6], contacts)
    report = check_lemma52(g, ys, 7)
    assert report.hypotheses["aux_degrees"] is False
    assert report.status == "hypotheses failed"
    assert report.f_at is None


def test_lopsided_multi_hypotheses_hold():
    contacts = [
        [(0, 0), (1, 0), (2, 0), (3, 0)],
        [(0, 1), (1, 1), (2, 1), (3, 1)],
    ]
    g, ys = marked_trees(5, [4, 4, 4, 4], contacts)
    assert g.m == 32
    report = check_lemma53(g, ys, 5)
    assert report.all_hold
    assert report.status == "not verified: budget"


def test_lopsided_multi_tree_degree_floor_is_two():
    # a tree touched by only one marked vertex sinks the lopsided variant
    contacts = [
        [(0, 0), (1, 0), (2, 0), (3, 0)],
        [(0, 1), (1, 1), (2, 1), (4, 0)],
    ]
    g, ys = marked_trees(5, [4, 4, 4, 4, 4], contacts)
    report = check_lemma53(g, ys, 5)
    assert report.hypotheses["aux_degrees"] is False


def test_multi_checker_guards():
    g, ys = marked_trees(5, [4], [[(0, 0)]])
    with pytest.raises(PreconditionError):
        check_lemma52(g, ys, 6)
    with pytest.raises(PreconditionError):
        check_lemma53(g, ys, 4)
    with pytest.raises(PreconditionError):
        check_lemma53(g, [99], 5)


def test_multi_degree_cap_counts_only_unmarked_vertices():
    # wiring two marked vertices to the same tree vertex pushes it to degree 5
    contacts = [
        [(0, 0), (1, 0), (2, 0), (3, 0)],
        [(0, 0), (1, 1), (2, 1), (3, 1)],
    ]
    g, ys = marked_trees(5, [4, 4, 4, 4], contacts)
    assert g.degree(0) == 5
    report = check_lemma53(g, ys, 5)
    assert report.hypotheses["outside_degree_cap"] is False


@pytest.mark.parametrize("mode", ["symmetric", "lopsided"])
def test_elimination_caps_and_lemma_floors_share_a_regime(mode):
    c, s = REGIMES[mode].c, REGIMES[mode].s
    # the paper's floors: Lemma 5.2 (3, 3), Lemma 5.3 (4, 2)
    assert (s, c + 1) == {"symmetric": (3, 3), "lopsided": (4, 2)}[mode]
    for trees, marked in ((s, c + 1), (s - 1, c + 1), (s, c)):
        # every marked vertex sees every tree: aux degrees are trees / marked
        contacts = [[(i, j) for i in range(trees)] for j in range(marked)]
        g, ys = marked_trees(7, [6] * trees, contacts)
        stalls = not eliminate(build_aux_partition(g, ys, 7), mode).succeeded
        report = MARKED_SET_CHECKS[mode](g, ys, 7, max_explored=1)
        floors_met = trees >= s and marked >= c + 1
        assert stalls == report.hypotheses["aux_degrees"] == floors_met
        assert report.all_hold == floors_met


# every hypothesis and aux edge from its definition, one part at a time

def hypotheses_by_definition(g, marked, k, mode=None):
    """The hypotheses of Lemma 5.1 (mode None, one marked vertex) or of the
    marked-set lemma of mode, and the aux edges: no_Kk by contains_clique,
    each part's T_k membership by in_t_k of its induced copy and its W by the clique search."""
    marked = sorted(set(marked))
    rest = [v for v in range(g.n) if v not in marked]
    parts = _component_masks(g._adj, _vertex_mask(rest))
    ws = [_clique_vertices(g._adj, part, k - 1) for part in parts]
    edges = {(y, i) for y in marked for i, w in enumerate(ws) if g._adj[y] & w}
    hyps = {
        "no_Kk": not contains_clique(g, k)[0],
        "parts_in_Tk": all(in_t_k(induced_subgraph(g, list(_mask_bits(part)))[0], k) for part in parts),
        "outside_degree_cap": all(g.degree(v) <= k - 1 for v in rest),
    }
    if mode is None:
        (x,) = marked
        hyps["w_hit_every_part"] = {i for _, i in edges} == set(range(len(parts)))
        hyps["x_degree"] = g.degree(x) >= len(parts) + 2
    else:
        c, s = REGIMES[mode].c, REGIMES[mode].s
        hyps["aux_degrees"] = all(
            sum(z == y for z, _ in edges) >= s for y in marked
        ) and all(sum(j == i for _, j in edges) >= c + 1 for i in range(len(parts)))
    return hyps, edges, ws


def assert_reports_match_the_definitions(g, marked, k):
    aux = build_aux_partition(g, marked, k)
    checks = [(None, lambda: check_lemma51(g, marked[0], k, max_edges=0))] if len(marked) == 1 else []
    checks += [
        (mode, lambda mode=mode: MARKED_SET_CHECKS[mode](g, marked, k, max_edges=0, max_explored=0))
        for mode in ("symmetric", "lopsided") if k >= {"symmetric": 7, "lopsided": 5}[mode]
    ]
    for mode, check in checks:
        hyps, edges, ws = hypotheses_by_definition(g, marked, k, mode)
        assert check().hypotheses == hyps, (g.edges(), marked, k, mode)
        assert aux.edges == edges
        assert aux.w_sets == tuple(frozenset(_mask_bits(w)) for w in ws)
        assert (None not in aux.tree_cuts) == hyps["parts_in_Tk"]


def test_reports_match_the_hypotheses_by_definition():
    """On criterion 9's one-part and two-part families, on parts outside T_k
    that hold a K_{k-1}, and on random marked sets."""
    for g, x in lemma51_family():
        assert_reports_match_the_definitions(g, [x], 5)
    g = parse_graph6("E~og")
    aux = build_aux_partition(g, [5], 5)
    assert aux.tree_cuts == (None,) and aux.w_sets == (frozenset({0, 1, 2, 3}),)
    assert_reports_match_the_definitions(g, [5], 5)
    rng = Random(53)
    outside_with_w = 0
    for _ in range(400):
        n = rng.randint(4, 10)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.55])
        marked = sorted(rng.sample(range(n), rng.randint(1, 3)))
        for k in (5, 7):
            assert_reports_match_the_definitions(g, marked, k)
            aux = build_aux_partition(g, marked, k)
            outside_with_w += any(c is None and w for c, w in zip(aux.tree_cuts, aux.w_sets))
    assert outside_with_w > 50
