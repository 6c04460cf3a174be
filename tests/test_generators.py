"""Gallai-tree enumeration and the two tight construction families."""

import gc
import hashlib
from fractions import Fraction as F
from random import Random

import networkx as nx
import pytest

from conftest import connected_atlas, graph_to_nx, reference_chain_5_2, reference_chain_5_3
from critgraphs import (
    BudgetExceeded,
    Graph,
    PreconditionError,
    are_isomorphic,
    block_decomposition,
    clique_path,
    contains_clique,
    enumerate_gallai_trees,
    extremal_chain,
    in_t_k,
    preset_params,
    q_value,
    tree_bound_rhs,
)
from critgraphs.bounds import _tree_bound_sweep
from critgraphs.generators import _attach, _tree_code


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_gallai_trees(5, 3)) == 4
    assert sum(1 for _ in enumerate_gallai_trees(5, 4)) == 8
    # K_4 is excluded when k = 4: one class fewer
    assert sum(1 for _ in enumerate_gallai_trees(4, 4)) == 7
    assert sum(1 for _ in enumerate_gallai_trees(5, 6)) == 33
    assert sum(1 for _ in enumerate_gallai_trees(6, 6)) == 40


def test_enumeration_guards():
    with pytest.raises(PreconditionError):
        list(enumerate_gallai_trees(3, 5))
    with pytest.raises(BudgetExceeded):
        list(enumerate_gallai_trees(5, 11))
    assert list(enumerate_gallai_trees(5, 0)) == []


@pytest.mark.parametrize(
    "k, count, digest",
    [
        (4, 357, "11194a5d270c5105d16dbb67dc2db08894a2e1dd4a7e179908200ab2922e90dc"),
        (5, 1254, "3a4e8d47151cc9c83ce2919764094bc99a143f836a9b69f6e15bb386a1dc5a59"),
        (6, 2004, "c4ec47d2cf42304a097c8a5d69e05df2d94ddf59e26f50ad7968a2ffca8f7835"),
        (7, 2391, "ea4eccaf25a40fcb33a1c7140ace466192aee64e49449c240365a46d2050bd79"),
    ],
)
def test_enumeration_listing_is_pinned_at_ten_vertices(k, count, digest):
    """The same labelled graphs in the same order up to 10 vertices as the
    all-roots code gave: the sha256 of the listing was taken with it."""
    listing = [(g.n, sorted(g.edges())) for g in enumerate_gallai_trees(k, 10)]
    assert len(listing) == count
    assert hashlib.sha256(repr(listing).encode()).hexdigest() == digest


def test_enumeration_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        list(enumerate_gallai_trees(5, 8))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tree_bound_sweep_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        list(_tree_bound_sweep(5, 8))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("k", [4, 5, 6])
def test_enumeration_matches_atlas_filter(k):
    """Same classes as brute-force filtering of all connected graphs, n <= 7."""
    atlas = [g for g in connected_atlas(7) if in_t_k(g, k)]
    mine = list(enumerate_gallai_trees(k, 7))
    assert len(mine) == len(atlas)
    by_n = {}
    for g in atlas:
        by_n.setdefault(g.n, []).append(g)
    hits = set()
    for t in mine:
        matches = [
            i
            for i, g in enumerate(by_n[t.n])
            if sorted(g.degrees()) == sorted(t.degrees()) and are_isomorphic(t, g)
        ]
        assert len(matches) == 1
        key = (t.n, matches[0])
        assert key not in hits  # no duplicate classes in the stream
        hits.add(key)


def reference_gallai_trees(k, n_max):
    """The enumeration with isomorphism buckets: a new graph is dropped when
    are_isomorphic finds it among the earlier graphs of the same size, edge
    count and degree sequence."""
    catalog = [("clique", t) for t in range(2, k)]
    catalog += [("cycle", t) for t in range(5, n_max + 1, 2)]
    seen = {n: {} for n in range(1, n_max + 1)}
    order = {n: [] for n in range(1, n_max + 1)}

    def register(g):
        bucket = seen[g.n].setdefault((g.m, tuple(sorted(g.degrees()))), [])
        if not any(are_isomorphic(g, h) for h in bucket):
            bucket.append(g)
            order[g.n].append(g)

    register(Graph(1))
    for n in range(1, n_max + 1):
        for g in order[n]:
            yield g
            for kind, size in catalog:
                if n + size - 1 > n_max:
                    continue
                gain = size - 1 if kind == "clique" else 2
                for v in range(n):
                    if g.degree(v) + gain <= k - 1:
                        register(_attach(g, kind, (v, *range(n, n + size - 1))))


@pytest.mark.parametrize("k", [4, 5, 6, 7])
def test_enumeration_matches_isomorphism_reference(k):
    """The canonical code keeps the same labelled graphs, in the same order."""
    def listing(trees):
        return [(g.n, sorted(g.edges())) for g in trees]

    assert listing(enumerate_gallai_trees(k, 8)) == listing(reference_gallai_trees(k, 8))


def tree_blocks(g):
    """The (kind, ring) block list of a Gallai tree, each cycle's ring in cycle
    order, rebuilt from its block decomposition."""
    blocks = []
    for b in block_decomposition(g).blocks:
        inside = {v: [u for u in g.neighbors(v) if u in b] for v in b}
        if all(len(nb) == len(b) - 1 for nb in inside.values()):
            blocks.append(("clique", tuple(sorted(b))))
            continue
        ring = [min(b)]
        while len(ring) < len(b):
            ring.append(next(u for u in inside[ring[-1]] if u not in ring))
        blocks.append(("cycle", tuple(ring)))
    return blocks


def all_roots_code(n, blocks):
    """The tree code taken from every vertex as root, keeping the least: the
    reference that `_tree_code`, rooted at the centre only, must match."""
    at = [[] for _ in range(n)]
    for b, (_, ring) in enumerate(blocks):
        for v in ring:
            at[v].append(b)
    memo = {}

    def vertex_code(v, parent):
        key = (v, parent)
        if key not in memo:
            memo[key] = tuple(sorted(block_code(b, v) for b in at[v] if b != parent))
        return memo[key]

    def block_code(b, v):
        kind, ring = blocks[b]
        if kind == "clique":
            return (0, tuple(sorted(vertex_code(u, b) for u in ring if u != v)))
        i = ring.index(v)
        seq = tuple(vertex_code(u, b) for u in ring[i + 1:] + ring[:i])
        return (1, min(seq, seq[::-1]))

    return min(vertex_code(r, -1) for r in range(n))


def candidates(k, n_max):
    """(n, blocks) for every candidate the enumeration codes: each kept tree
    with one more leaf block glued on, as its growth step does."""
    catalog = [("clique", t) for t in range(2, k)]
    catalog += [("cycle", t) for t in range(5, n_max + 1, 2)]
    for g in enumerate_gallai_trees(k, n_max):
        blocks = tuple(tree_blocks(g))
        for kind, size in catalog:
            m = g.n + size - 1
            if m > n_max:
                continue
            gain = size - 1 if kind == "clique" else 2
            for v in range(g.n):
                if g.degree(v) + gain <= k - 1:
                    yield m, blocks + ((kind, (v, *range(g.n, m))),)


@pytest.mark.parametrize("k", [4, 5, 6, 7])
def test_centre_code_matches_all_roots_code(k):
    """On every candidate up to 8 vertices, old code -> new code is a
    bijection on each vertex count."""
    forward, backward = {}, {}
    seen = 0
    for n, blocks in candidates(k, 8):
        old, new = all_roots_code(n, blocks), _tree_code(n, blocks)
        assert forward.setdefault((n, old), new) == new
        assert backward.setdefault((n, new), old) == old
        seen += 1
    assert seen > len(forward)


def test_tree_code_ignores_labels():
    """Relabel the vertices, reorder the blocks and each clique, and rotate
    and sometimes reflect each cycle: the code stays the same.  The trees
    cover every kind of centre: a vertex, a clique and a cycle."""
    rng = Random(8)
    cycles = 0
    for k in (4, 5, 6, 7):
        centres = set()
        for g in enumerate_gallai_trees(k, 8):
            blocks = tree_blocks(g)
            perm = list(range(g.n))
            rng.shuffle(perm)
            moved = []
            for kind, ring in blocks:
                ring = [perm[v] for v in ring]
                if kind == "clique":
                    rng.shuffle(ring)
                else:
                    cycles += 1
                    r = rng.randrange(len(ring))
                    ring = ring[r:] + ring[:r]
                    if rng.random() < 0.5:
                        ring.reverse()
                moved.append((kind, tuple(ring)))
            rng.shuffle(moved)
            code = _tree_code(g.n, blocks)
            assert _tree_code(g.n, moved) == code
            if g.n > 1:
                centres.add(code[0])
        assert centres == {"vertex", "clique", "cycle"}, k
        clique = tuple(range(k - 1))
        assert _tree_code(k - 1, [("clique", clique)])[0] == "clique"
    assert cycles > 0
    for size in (5, 7):
        assert _tree_code(size, [("cycle", tuple(range(size)))])[0] == "cycle"
    bowtie = [("clique", (0, 1, 2)), ("clique", (0, 3, 4))]
    assert _tree_code(5, bowtie)[0] == "vertex"


def test_enumerated_trees_really_qualify():
    for t in enumerate_gallai_trees(6, 6):
        assert in_t_k(t, 6)
        assert max(t.degrees()) <= 5
        assert not contains_clique(t, 6)[0]


# the chain family

def test_chain_matches_figure_fixtures():
    assert are_isomorphic(extremal_chain(5, 2), reference_chain_5_2())
    assert are_isomorphic(extremal_chain(5, 3), reference_chain_5_3())


def test_chain_shape():
    for k in (5, 6, 7):
        for m in (1, 2, 3):
            g = extremal_chain(k, m)
            assert g.n == m * ((k - 1) + (k - 3) * (k - 2))
            assert max(g.degrees()) == k - 1
            assert in_t_k(g, k)
            assert q_value(g, k) == 2


def test_chain_meets_its_bound_exactly():
    for k in (5, 6, 7):
        bp = preset_params(k, "smallP")
        for m in (1, 2):
            g = extremal_chain(k, m)
            assert 2 * g.m == tree_bound_rhs(bp, g.n, q_value(g, k))


def test_chain_rejects_bad_arguments():
    with pytest.raises(PreconditionError):
        extremal_chain(4, 1)
    with pytest.raises(PreconditionError):
        extremal_chain(5, 0)


# the clique-path family

def test_clique_path_shape():
    assert clique_path(5, 1) == Graph.complete(4)
    g = clique_path(4, 3)
    assert g.n == 9 and 2 * g.m == 22
    for k in (4, 5, 6):
        for m in (1, 2, 3, 4):
            g = clique_path(k, m)
            assert g.n == m * (k - 1)
            assert 2 * g.m == m * (k - 1) * (k - 2) + 2 * (m - 1)
            assert in_t_k(g, k)


def test_clique_path_tight_for_refined_bound():
    for k in (4, 5, 6, 7):
        for m in (1, 2, 3):
            g = clique_path(k, m)
            rhs = (F(k - 2) + F(2, k - 1)) * g.n - 2
            assert F(2 * g.m) == rhs


def test_clique_path_is_connected_chain_of_blocks():
    g = clique_path(5, 3)
    assert g.is_connected()
    h = graph_to_nx(g)
    assert nx.node_connectivity(h) == 1


# the p needed to cover the chain family

def p_required(k, m, f, h):
    num = m * (k - 1) + 2 * m * (k - 3) + 2 * (m - 1) - f - 2 * h
    return F(num, m * ((k - 1) + (k - 2) * (k - 3)))


def test_p_required_decreases_toward_the_preset():
    for k in (5, 6, 7):
        bp = preset_params(k, "smallP")
        seq = [p_required(k, m, F(-3), F(0)) for m in range(1, 7)]
        assert all(a > b for a, b in zip(seq, seq[1:]))
        assert all(v > bp.p for v in seq)


def test_p_required_is_constant_at_the_preset():
    for k in (5, 6, 7):
        bp = preset_params(k, "smallP")
        assert bp.f + 2 * bp.h == -2
        for m in range(1, 7):
            assert p_required(k, m, bp.f, bp.h) == bp.p


def test_p_required_agrees_with_the_real_graphs():
    for k in (5, 6):
        for m in (1, 2, 3):
            g = extremal_chain(k, m)
            direct = F(2 * g.m - (k - 3) * g.n + 3, g.n)
            assert direct == p_required(k, m, F(-3), F(0))
