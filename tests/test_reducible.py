"""Reducible-configuration checkers."""

import pytest

from critgraphs import (
    Graph,
    PreconditionError,
    build_aux_partition,
    check_lemma51,
    check_lemma52,
    check_lemma53,
    eliminate,
)
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
