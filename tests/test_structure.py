"""Blocks, Gallai trees, degree splits, the auxiliary bipartite graph."""

import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import critgraphs.structure as structure_module
from conftest import connected_atlas, graph_to_nx, nx_to_graph, stalled_aux_instance
from critgraphs import (
    Graph,
    PreconditionError,
    block_decomposition,
    build_aux_partition,
    build_auxiliary,
    clique_path,
    eliminate,
    enumerate_gallai_trees,
    extremal_chain,
    in_t_k,
    induced_subgraph,
    is_gallai_tree,
    low_high_split,
    q_value,
    w_k,
)
from critgraphs.graph import _clique_vertices, _mask_bits
from critgraphs.structure import (
    REGIMES,
    AuxiliaryBipartite,
    EliminationResult,
    _blocks,
    _decompose,
)


# block decomposition, oracled against networkx

def test_blocks_match_networkx():
    for g in connected_atlas(7):
        if g.n < 2:
            continue
        bd = block_decomposition(g)
        mine = {tuple(sorted(b)) for b in bd.blocks}
        theirs = {
            tuple(sorted(b)) for b in nx.biconnected_components(graph_to_nx(g))
        }
        assert mine == theirs


def test_cut_vertices_match_networkx():
    for g in connected_atlas(7):
        bd = block_decomposition(g)
        assert bd.cut_vertices == frozenset(
            nx.articulation_points(graph_to_nx(g))
        )


def test_single_vertex_has_no_blocks():
    bd = block_decomposition(Graph(1))
    assert bd.blocks == () and bd.cut_vertices == frozenset()


def test_blocks_reject_disconnected():
    with pytest.raises(PreconditionError):
        block_decomposition(Graph(4, [(0, 1), (2, 3)]))


def reference_blocks(adj, mask):
    """_blocks as first written: Tarjan's search with a generator of
    neighbours per open vertex and a dict of discovery times as the visited
    set, kept as the oracle for the mask-based stack."""
    if not mask:
        return [], 0
    root = (mask & -mask).bit_length() - 1
    disc = {root: 0}
    low = {root: 0}
    path = [root]
    stack = [(root, _mask_bits(adj[root] & mask))]
    blocks = []
    cuts = 0
    root_children = 0
    while stack:
        v, nbrs = stack[-1]
        for w in nbrs:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                path.append(w)
                stack.append((w, _mask_bits(adj[w] & mask)))
                root_children += v == root
                break
            low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    blk = 1 << u
                    while True:
                        x = path.pop()
                        blk |= 1 << x
                        if x == v:
                            break
                    blocks.append(blk)
                    if u != root:
                        cuts |= 1 << u
    if len(disc) != mask.bit_count():
        return None
    if root_children >= 2:
        cuts |= 1 << root
    return blocks, cuts


def test_blocks_match_the_generator_reference():
    """The same blocks in the same order and the same cuts, or None: on every
    atlas graph at its full mask and at random submasks, and on random graphs
    up to 14 vertices."""
    rng = random.Random(29)
    cases = []
    for h in nx.graph_atlas_g():
        g = nx_to_graph(h)
        cases += [(g, (1 << g.n) - 1)] + [(g, rng.getrandbits(g.n)) for _ in range(3)]
    for _ in range(1500):
        n = rng.randint(1, 14)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.35])
        cases += [(g, (1 << n) - 1), (g, rng.getrandbits(n))]
    disconnected = 0
    for g, mask in cases:
        want = reference_blocks(g._adj, mask)
        assert _blocks(g._adj, mask) == want, (g.edges(), mask)
        disconnected += want is None
    assert 0 < disconnected < len(cases)


def test_tree_cuts_read_w_off_the_blocks():
    """A T_k member's cut mask is its block pass's, and its W, the union of
    its clique blocks on k-1 vertices, is the clique search's, for every k,
    as is W outside T_k; without the search, W outside T_k (or below k = 4)
    is None and every other answer is the same."""
    rng = random.Random(31)
    members = 0
    for h in nx.graph_atlas_g()[1:]:
        g = nx_to_graph(h)
        for mask in ((1 << g.n) - 1, rng.getrandbits(g.n)):
            for k in range(1, 9):
                found = _decompose(g._adj, mask, k)
                unsearched = _decompose(g._adj, mask, k, search=False)
                assert found[:4] == unsearched[:4]
                assert found.w == _clique_vertices(g._adj, mask, k - 1)
                assert (unsearched.w is None) == (not found.in_t_k or k < 4)
                if found.in_t_k:
                    members += 1
                    assert found.cuts == _blocks(g._adj, mask)[1]
    assert members > 1000


# questions asked of a vertex mask, oracled against the induced copy

@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.data())
def test_mask_answers_match_the_induced_copy(n, data):
    pairs = list(combinations(range(n), 2))
    bits = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [e for e, b in zip(pairs, bits) if b])
    mask = data.draw(st.integers(1, (1 << n) - 1), label="mask")
    verts = list(_mask_bits(mask))
    sub, _ = induced_subgraph(g, verts)
    found = _blocks(g._adj, mask)
    for k in range(1, 9):
        assert _decompose(g._adj, mask, k).in_t_k == in_t_k(sub, k)
    assert _decompose(g._adj, mask, 0).gallai == is_gallai_tree(sub)
    if not sub.is_connected():
        assert found is None
        return
    bd = block_decomposition(sub)
    blocks, cuts = found
    assert sorted(list(_mask_bits(b)) for b in blocks) == sorted(
        sorted(verts[v] for v in b) for b in bd.blocks
    )
    assert frozenset(_mask_bits(cuts)) == frozenset(verts[v] for v in bd.cut_vertices)
    for k in range(1, 9):
        found = _decompose(g._adj, mask, k)
        w, q = found.w, found.q
        assert q == q_value(sub, k)
        assert frozenset(_mask_bits(w)) == nx_w(g, k, verts)


# Gallai trees

def nx_gallai(g):
    h = graph_to_nx(g)
    if g.n == 0 or not nx.is_connected(h):
        return False
    for comp in nx.biconnected_components(h):
        b = h.subgraph(comp)
        n = b.number_of_nodes()
        complete = b.size() == n * (n - 1) // 2
        odd_cycle = n >= 3 and n % 2 == 1 and all(d == 2 for _, d in b.degree())
        if not (complete or odd_cycle):
            return False
    return True


def test_gallai_matches_block_definition():
    trees = [t for k in (4, 5, 6, 7) for t in enumerate_gallai_trees(k, 8)]
    for g in connected_atlas(7) + trees:
        assert is_gallai_tree(g) == nx_gallai(g)


def test_gallai_edge_cases():
    assert is_gallai_tree(Graph(1))
    assert is_gallai_tree(Graph.complete(4))
    assert is_gallai_tree(Graph.cycle(5))
    assert not is_gallai_tree(Graph.cycle(4))
    assert not is_gallai_tree(Graph(2))
    assert not is_gallai_tree(Graph(0))
    assert not is_gallai_tree(Graph.wheel(4))


def test_in_t_k_from_first_principles():
    for g in connected_atlas(6):
        for k in (4, 5, 6):
            omega = max(len(c) for c in nx.find_cliques(graph_to_nx(g)))
            expect = (
                nx_gallai(g)
                and max(g.degrees()) <= k - 1
                and omega < k
            )
            assert in_t_k(g, k) == expect


def test_in_t_k_refuses_a_high_degree_before_any_block_pass(monkeypatch):
    passes = []
    blocks = structure_module._blocks

    def counted(adj, mask):
        passes.append(mask)
        return blocks(adj, mask)

    monkeypatch.setattr(structure_module, "_blocks", counted)
    assert not in_t_k(Graph.complete(1005), 5)
    assert passes == []
    for h in nx.graph_atlas_g():
        g = nx_to_graph(h)
        for k in (3, 4, 5, 6):
            assert in_t_k(g, k) == _decompose(g._adj, (1 << g.n) - 1, k, search=False).in_t_k


def test_in_t_k_excludes_the_full_clique():
    for k in (4, 5, 6, 7):
        assert not in_t_k(Graph.complete(k), k)
        assert in_t_k(Graph.complete(k - 1), k)


# W and q

def nx_w(g, k, part=None):
    """W of g, or of the subgraph induced on part alone, by networkx."""
    h = graph_to_nx(g)
    out = set()
    for c in nx.find_cliques(h if part is None else h.subgraph(part)):
        if len(c) >= k - 1:
            out |= set(c)
    return frozenset(out)


def test_w_matches_clique_membership():
    for g in connected_atlas(6):
        for k in (4, 5, 6):
            assert w_k(g, k) == nx_w(g, k)


def test_q_counts_non_cut_clique_vertices():
    for g in connected_atlas(6):
        for k in (4, 5):
            bd = block_decomposition(g)
            assert q_value(g, k) == len(nx_w(g, k) - bd.cut_vertices)


def test_q_on_plain_cliques():
    assert q_value(Graph.complete(4), 5) == 4
    assert q_value(Graph.cycle(5), 5) == 0
    with pytest.raises(PreconditionError):
        q_value(Graph(3), 5)


def test_chain_block_shape():
    """The two-link chain: 11 blocks strung along 10 cut vertices, q = 2."""
    g = extremal_chain(5, 2)
    bd = block_decomposition(g)
    assert (g.n, g.m) == (20, 29)
    assert len(bd.blocks) == 11
    assert len(bd.cut_vertices) == 10
    assert q_value(g, 5) == 2
    assert len(w_k(g, 5)) == 8


def test_chain_q_stays_two_as_links_grow():
    for m in (1, 2, 3):
        assert q_value(extremal_chain(5, m), 5) == 2


def test_clique_path_q():
    g = clique_path(5, 2)
    assert q_value(g, 5) == 6
    assert len(w_k(g, 5)) == 8


# degree split

def test_low_high_split_wheel():
    split = low_high_split(Graph.wheel(5), 4)
    assert split.l_components == (frozenset(range(5)),)
    assert split.h_vertices == frozenset()
    assert split.higher_vertices == {5}
    assert not split.sub_vertices


def test_low_high_split_flags_small_degrees():
    split = low_high_split(Graph.path(3), 5)
    assert split.sub_vertices == {0, 1, 2}
    assert split.sub_vertices


def test_split_is_a_partition():
    for g in connected_atlas(6):
        for k in (4, 5):
            split = low_high_split(g, k)
            low = {v for comp in split.l_components for v in comp}
            parts = [low, split.h_vertices, split.higher_vertices, split.sub_vertices]
            assert sum(len(p) for p in parts) == g.n
            seen = set()
            for p in parts:
                assert not (seen & p)
                seen |= p


# auxiliary bipartite graph

def test_aux_on_stalled_instance():
    g, tree_ranges, connectors = stalled_aux_instance(5, 3, 3)
    aux = build_auxiliary(g, 5)
    assert len(aux.tree_components) == 4  # three K_4 trees plus a benign K_2
    assert len(aux.y_vertices) == 6
    named = {frozenset(r) for r in tree_ranges}
    for i, comp in enumerate(aux.tree_components):
        if comp in named:
            assert aux.w_sets[i] == comp
        else:
            assert aux.w_sets[i] == frozenset()
            assert all(j != i for _, j in aux.edges)
    for y in connectors:
        assert aux.y_degree(y) == 3


def test_aux_edge_requires_w_contact():
    # hang a high off a non-clique tree: no K_4 in C_5, so no aux edge
    edges = list(Graph.cycle(5).edges())
    hub = 5
    edges += [(hub, 0), (hub, 1)]
    extra = 6
    edges += [(hub, extra)]
    pad = [(extra, 7), (extra, 8), (7, 8), (7, 9), (8, 9), (9, extra)]
    g = Graph(10, edges + pad)
    aux = build_aux_partition(g, [hub], 5, list(range(5)))
    assert aux.edges == frozenset()


def test_aux_partition_accepts_explicit_sides():
    g = Graph.complete(5).remove_edge(3, 4)
    aux = build_aux_partition(g, [3], 5, [0, 1, 2, 4])
    assert len(aux.tree_components) == 1
    assert aux.w_sets[0] == frozenset({0, 1, 2, 4})
    assert aux.y_degree(3) == 1
    for bad in ([0, 5], [-1, 0]):
        with pytest.raises(ValueError, match="out of range"):
            build_aux_partition(g, [3], 5, bad)
    # marked vertices are range-checked too: adj[-1] would be vertex 4's row
    for bad in ([-1], [7]):
        with pytest.raises(ValueError, match="vertex %d out of range" % bad[0]):
            build_aux_partition(g, bad, 5)
    # a marked vertex on the tree side would see its own part
    with pytest.raises(ValueError, match="vertex 0 is both marked and a tree vertex"):
        build_aux_partition(Graph.complete(4), [0], 5, [0, 1, 2, 3])
    with pytest.raises(ValueError, match="vertex 2 is both marked and a tree vertex"):
        build_aux_partition(g, [2, 3], 5, [0, 1, 2, 4])


def test_aux_w_sets_match_networkx():
    # tree part {0,1,2,3}: a triangle 0,1,2 and a pendant 3; marked vertex 4
    # completes the triangle to a K4, so W(G) meets the part but W(G[part]) is empty
    g = Graph(9, [(0, 1), (0, 2), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2), (4, 5)]
              + [(a, b) for a in range(5, 9) for b in range(a + 1, 9)])
    aux = build_aux_partition(g, [4], 5)
    assert aux.tree_components == (frozenset({0, 1, 2, 3}), frozenset({5, 6, 7, 8}))
    assert w_k(g, 5) & aux.tree_components[0] == frozenset({0, 1, 2})
    assert aux.w_sets == (frozenset(), frozenset({5, 6, 7, 8}))
    assert aux.edges == frozenset({(4, 1)})
    rng = random.Random(9)
    for g in [g] + connected_atlas(7, 5):
        for k in (4, 5):
            marked = rng.sample(range(g.n), rng.randint(1, 3))
            aux = build_aux_partition(g, marked, k)
            for comp, w in zip(aux.tree_components, aux.w_sets):
                assert w == nx_w(g, k, comp)


def synthetic_aux(t, ys, edges):
    return AuxiliaryBipartite(
        tree_components=tuple(frozenset({i}) for i in range(t)),
        w_sets=tuple(frozenset({i}) for i in range(t)),
        y_vertices=tuple(range(100, 100 + ys)),
        edges=frozenset((100 + y, i) for y, i in edges),
    )


def complete_bipartite_aux(a, b):
    return synthetic_aux(a, b, [(y, i) for y in range(b) for i in range(a)])


def test_elimination_thresholds():
    k33 = complete_bipartite_aux(3, 3)
    assert not eliminate(k33, "symmetric").succeeded
    assert eliminate(k33, "lopsided").succeeded
    k44 = complete_bipartite_aux(4, 4)
    assert not eliminate(k44, "symmetric").succeeded
    assert not eliminate(k44, "lopsided").succeeded
    k24 = complete_bipartite_aux(2, 4)
    assert eliminate(k24, "symmetric").succeeded
    assert eliminate(k24, "lopsided").succeeded
    # four trees of degree 2, two highs of degree 4: only symmetric peels
    k42 = complete_bipartite_aux(4, 2)
    assert eliminate(k42, "symmetric").succeeded
    assert not eliminate(k42, "lopsided").succeeded


def test_elimination_order_covers_everything_on_success():
    aux = complete_bipartite_aux(2, 4)
    res = eliminate(aux, "symmetric")
    assert res.succeeded
    kinds = {("tree", i) for i in range(2)} | {("high", 100 + y) for y in range(4)}
    assert set(res.order) == kinds
    assert len(res.order) == len(kinds)


def peel_oracle(aux, mode, seed):
    """Same fixpoint, randomized processing order."""
    caps = {"symmetric": (2, 2), "lopsided": (1, 3)}[mode]
    nodes = [("tree", i) for i in range(len(aux.tree_components))]
    nodes += [("high", y) for y in aux.y_vertices]
    edges = set(aux.edges)
    alive = set(nodes)
    rng = random.Random(seed)
    while True:
        ready = []
        for kind, v in alive:
            if kind == "tree":
                deg = sum(1 for _, j in edges if j == v)
                if deg <= caps[0]:
                    ready.append((kind, v))
            else:
                deg = sum(1 for z, _ in edges if z == v)
                if deg <= caps[1]:
                    ready.append((kind, v))
        if not ready:
            break
        kind, v = rng.choice(ready)
        alive.discard((kind, v))
        if kind == "tree":
            edges = {(z, j) for z, j in edges if j != v}
        else:
            edges = {(z, j) for z, j in edges if z != v}
    trees = sorted(v for kind, v in alive if kind == "tree")
    highs = sorted(v for kind, v in alive if kind == "high")
    return tuple(trees), tuple(highs)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.data(),
    st.sampled_from(["symmetric", "lopsided"]),
    st.integers(0, 10),
)
def test_elimination_fixpoint_is_order_independent(t, ys, data, mode, seed):
    cells = [(y, i) for y in range(ys) for i in range(t)]
    edges = data.draw(st.sets(st.sampled_from(cells)))
    aux = synthetic_aux(t, ys, edges)
    res = eliminate(aux, mode)
    expect = peel_oracle(aux, mode, seed)
    if res.succeeded:
        assert expect == ((), ())
    else:
        assert (res.residual_trees, res.residual_highs) == expect


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.data())
def test_failed_elimination_residual_degrees(t, ys, data):
    """Whatever survives symmetric peeling has both sides at degree >= 3;
    lopsided leaves trees at >= 2 and highs at >= 4."""
    cells = [(y, i) for y in range(ys) for i in range(t)]
    edges = data.draw(st.sets(st.sampled_from(cells)))
    aux = synthetic_aux(t, ys, edges)
    for mode, tree_floor, high_floor in (
        ("symmetric", 3, 3),
        ("lopsided", 2, 4),
    ):
        res = eliminate(aux, mode)
        if res.succeeded:
            continue
        for i in res.residual_trees:
            assert sum(1 for _, j in res.residual_edges if j == i) >= tree_floor
        for y in res.residual_highs:
            assert sum(1 for z, _ in res.residual_edges if z == y) >= high_floor


def reference_eliminate(aux, mode):
    """The elimination as written on sets of (y, component) pairs."""
    tree_max, high_max = REGIMES[mode].c, REGIMES[mode].s - 1
    trees = set(range(len(aux.tree_components)))
    highs = set(aux.y_vertices)
    edges = set(aux.edges)
    order = []
    while trees or highs:
        removed = False
        for i in sorted(trees):
            if sum(1 for y, j in edges if j == i) <= tree_max:
                trees.discard(i)
                edges = {(y, j) for y, j in edges if j != i}
                order.append(("tree", i))
                removed = True
        for y in sorted(highs):
            if sum(1 for z, _ in edges if z == y) <= high_max:
                highs.discard(y)
                edges = {(z, j) for z, j in edges if z != y}
                order.append(("high", y))
                removed = True
        if not removed:
            return EliminationResult(
                tuple(order),
                residual_trees=tuple(sorted(trees)),
                residual_highs=tuple(sorted(highs)),
                residual_edges=frozenset(edges),
            )
    return EliminationResult(tuple(order))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 7),
    st.lists(st.integers(0, 40), unique=True, max_size=7),
    st.data(),
    st.sampled_from(sorted(REGIMES)),
)
def test_elimination_matches_reference(t, ys, data, mode):
    cells = [(y, i) for y in ys for i in range(t)]
    # a cell per coin flip, so that dense graphs, which stall, come up often
    flips = data.draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    edges = [cell for cell, flip in zip(cells, flips) if flip]
    aux = AuxiliaryBipartite(
        tree_components=tuple(frozenset({i}) for i in range(t)),
        w_sets=tuple(frozenset({i}) for i in range(t)),
        y_vertices=tuple(sorted(ys)),
        edges=frozenset(edges),
    )
    assert eliminate(aux, mode) == reference_eliminate(aux, mode)
