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
from critgraphs import generators
from critgraphs.generators import _gallai_trees, _least_in_orbit


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


def attach(base: Graph, kind: str, ring: tuple[int, ...]) -> Graph:
    """Glue a new block (clique or cycle) onto `base`.  `ring` lists the
    block's vertices in cycle order: a vertex of `base`, then the new labels
    base.n, base.n + 1, ..."""
    size = len(ring)
    if kind == "clique":
        extra = [(ring[i], ring[j]) for i in range(size) for j in range(i + 1, size)]
    else:
        extra = [(ring[i], ring[(i + 1) % size]) for i in range(size)]
    return Graph(base.n + size - 1, list(base.edges()) + extra)


def reference_tree_code(n: int, blocks, ids: dict) -> tuple[tuple, tuple]:
    """The reference for the enumeration's `_glued_code`, which recodes one
    path of the parent's peel where this peels the whole tree.

    Canonical code of the connected graph on n vertices whose blocks are
    `blocks`, a sequence of (kind, ring) with kind "clique" or "cycle" (a
    triangle is a clique) and a cycle's ring in cycle order, and the peel
    that computed it.  Two such graphs are isomorphic exactly when their
    codes, taken with the same `ids`, are equal (Aho, Hopcroft & Ullman's
    tree code on the block-cut tree).

    The code is rooted at the centre of the vertex-block incidence tree.
    Every leaf of that tree is a vertex, so every leaf-to-leaf path has even
    length and the centre is one node, found by peeling leaves layer by
    layer.  Each peeled node gets the code of its subtree as a small int:
    `ids` interns the tuple that describes it, numbering tuples as they are
    first met, so it must live as long as the codes are compared.  Entered
    from block `parent`, vertex v's tuple is the sorted codes of its other
    blocks.  A clique entered at v is -1 and the sorted codes of its other
    vertices; a cycle is -2 and the codes of its other vertices read around
    the ring from v, in the direction giving the smaller sequence.  The
    root's code is a flat tuple tagged with its kind: a vertex reads the
    sorted codes of its blocks, a clique the sorted codes of its vertices,
    a cycle the least sequence of its vertices' codes over every rotation
    and reflection of the ring.

    The peel is (links, codes, root): each node's neighbours in the
    incidence tree (a block's ring), each peeled node's code, and the
    centre, as _least_in_orbit reads them; block b is node n + b.
    """
    # node v < n is vertex v, node n + b is block b
    links = [[] for _ in range(n)]
    # the xor of each node's unpeeled neighbours: with one left, it is that one
    rest = [0] * n
    for b, (_, ring) in enumerate(blocks, n):
        r = 0
        for v in ring:
            links[v].append(b)
            rest[v] ^= b
            r ^= v
        rest.append(r)
    links += [ring for _, ring in blocks]
    left = [len(x) for x in links]
    codes = [-1] * len(links)
    # K1 alone has no leaf: its one vertex is the centre
    layer = [v for v in range(n) if left[v] <= 1]
    peeled = 0
    get = ids.get
    while peeled + len(layer) < len(links):
        peeled += len(layer)
        grown = []
        for x in layer:
            parent = rest[x]
            if x < n:
                key = tuple(sorted([codes[b] for b in links[x] if b != parent]))
            else:
                ring = links[x]
                if blocks[x - n][0] == "clique":
                    key = (-1, *sorted([codes[u] for u in ring if u != parent]))
                else:
                    i = ring.index(parent)
                    seq = [codes[u] for u in ring[i + 1:] + ring[:i]]
                    key = (-2, *min(seq, seq[::-1]))
            c = get(key)
            if c is None:
                c = ids[key] = len(ids)
            codes[x] = c
            rest[parent] ^= x
            left[parent] -= 1
            if left[parent] == 1:
                grown.append(parent)
        layer = grown
    (root,) = layer
    peel = (links, codes, root)
    if root < n:
        return ("vertex", *sorted([codes[b] for b in links[root]])), peel
    kind, ring = blocks[root - n]
    seq = [codes[u] for u in ring]
    if kind == "clique":
        return (kind, *sorted(seq)), peel
    return (kind, *min(s[i:] + s[:i] for s in (seq, seq[::-1]) for i in range(len(seq)))), peel


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
                        register(attach(g, kind, (v, *range(n, n + size - 1))))


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
    reference that `reference_tree_code`, rooted at the centre only, must
    match."""
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
    ids = {}
    for n, blocks in candidates(k, 8):
        old, new = all_roots_code(n, blocks), reference_tree_code(n, blocks, ids)[0]
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
    ids = {}
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
            code = reference_tree_code(g.n, blocks, ids)[0]
            assert reference_tree_code(g.n, moved, ids)[0] == code
            if g.n > 1:
                centres.add(code[0])
        assert centres == {"vertex", "clique", "cycle"}, k
        clique = tuple(range(k - 1))
        assert reference_tree_code(k - 1, [("clique", clique)], ids)[0][0] == "clique"
    assert cycles > 0
    for size in (5, 7):
        assert reference_tree_code(size, [("cycle", tuple(range(size)))], ids)[0][0] == "cycle"
    bowtie = [("clique", (0, 1, 2)), ("clique", (0, 3, 4))]
    assert reference_tree_code(5, bowtie, ids)[0][0] == "vertex"


def marked_orbits(g):
    """The automorphism orbits of g's vertices, by VF2: u and v share an
    orbit when g with u marked is isomorphic to g with v marked."""
    def marked(v):
        h = graph_to_nx(g)
        nx.set_node_attributes(h, {v: True}, "mark")
        return h

    same = nx.algorithms.isomorphism.categorical_node_match("mark", False)
    orbits = []
    for v in range(g.n):
        h = marked(v)
        home = next(
            (o for o in orbits
             if g.degree(o[0]) == g.degree(v) and nx.is_isomorphic(marked(o[0]), h, node_match=same)),
            None,
        )
        if home is None:
            orbits.append([v])
        else:
            home.append(v)
    return orbits


@pytest.mark.parametrize("k", [4, 5, 6, 7])
def test_enumeration_glues_at_the_least_vertex_of_each_orbit(k, monkeypatch):
    """For every tree up to 8 vertices, the vertices the enumeration glues
    each kind of block at are exactly the least vertex of each orbit with
    room for it.  The trees include cycle centres with a reflection."""
    glued = {}
    coded = generators._glued_code

    def recording(peel, blocks, kind, ring, ids):
        glued.setdefault((blocks, kind, len(ring)), []).append(ring[0])
        return coded(peel, blocks, kind, ring, ids)

    monkeypatch.setattr(generators, "_glued_code", recording)
    trees = list(_gallai_trees(k, 8))
    monkeypatch.undo()
    catalog = [("clique", t) for t in range(2, k)] + [("cycle", t) for t in (5, 7)]
    ids = {}
    reflected = 0
    for g, blocks in trees:
        orbits = marked_orbits(g)
        for kind, size in catalog:
            gain = size - 1 if kind == "clique" else 2
            room = [o[0] for o in orbits if g.degree(o[0]) + gain <= k - 1]
            want = room if g.n + size - 1 <= 8 else []
            assert glued.get((blocks, kind, size), []) == want, (g.n, sorted(g.edges()), kind, size)
        # up to 8 vertices a tree has at most one cycle, so a cycle centre is it
        if reference_tree_code(g.n, blocks, ids)[0][0] == "cycle":
            (ring,) = [set(r) for kind, r in blocks if kind == "cycle"]
            reflected += any(len(ring.intersection(o)) > 1 for o in orbits)
    assert reflected > 0


@pytest.mark.parametrize("k", [5, 7])
def test_least_in_orbit_matches_vf2_up_to_nine_vertices(k):
    """The least vertex of each orbit as read off the peel, on every tree up
    to 9 vertices, whose cycles off the centre include some that read no
    palindrome; trees up to 8 vertices glue nothing at such a cycle."""
    ids = {}
    for g, blocks in _gallai_trees(k, 9):
        want = list(range(g.n))
        for o in marked_orbits(g):
            for v in o:
                want[v] = o[0]
        assert _least_in_orbit(g.n, blocks, *reference_tree_code(g.n, blocks, ids)[1]) == want


@pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
def test_glued_code_matches_reference_tree_code(k, monkeypatch):
    """On every candidate up to 10 vertices, the code, node codes and centre
    recoded along one path of the parent's peel equal the from-scratch
    peel's, taken with the same `ids`, and so does the rest of the peel it
    returns (its links, each node's neighbour toward the centre and the
    radius); every kept tree's orbits read the same off either peel, and
    every tree's Graph is its block list glued up."""
    n_max = 10
    glued, least_in_orbit = generators._glued_code, generators._least_in_orbit
    centres = set()

    def checking(peel, blocks, kind, ring, ids):
        m, grown = ring[-1] + 1, blocks + ((kind, ring),)
        want, (want_links, want_codes, root) = reference_tree_code(m, grown, ids)
        out = code, (links, parent, codes, centre, radius) = glued(peel, blocks, kind, ring, ids)
        # the reference's node i is the enumeration's node[i]
        node = list(range(m)) + [n_max + b for b in range(len(grown))]
        assert (code, [codes[x] for x in node], node[root]) == (want, want_codes, centre)
        assert [links[x] for x in node] == [tuple(node[y] for y in ys) for ys in want_links]
        # each node's neighbour toward the centre and the radius, by a walk
        # from the centre
        up, depth, stack = {centre: -1}, {centre: 0}, [centre]
        while stack:
            x = stack.pop()
            for y in links[x]:
                if y not in up:
                    up[y], depth[y] = x, depth[x] + 1
                    stack.append(y)
        assert radius == max(depth.values())
        assert [parent[x] for x in node] == [up[x] for x in node]
        centres.add((len(peel[1]) == n_max, code[0]))
        return out

    def checking_least(n, blocks, links, codes, root):
        got = least_in_orbit(n, blocks, links, codes, root)
        assert got == least_in_orbit(n, blocks, *reference_tree_code(n, blocks, {})[1])
        return got

    monkeypatch.setattr(generators, "_glued_code", checking)
    monkeypatch.setattr(generators, "_least_in_orbit", checking_least)
    sizes = []
    for g, blocks in _gallai_trees(k, n_max):
        rebuilt = Graph(1)
        for kind, ring in blocks:
            rebuilt = attach(rebuilt, kind, ring)
        assert g == rebuilt
        sizes.append(g.n)
    # the one-vertex start, whose centre moves to the first block, and every
    # kind of centre after it
    assert centres >= {(True, "clique"), (False, "vertex"), (False, "clique"), (False, "cycle")}
    assert sizes.count(n_max) > 0


@pytest.mark.parametrize("k, codes", [(5, 3222), (7, 6287)])
def test_enumeration_codes_one_candidate_per_orbit(k, codes, monkeypatch):
    """The number of codes the enumeration computes up to 10 vertices: one
    per kept tree, least orbit vertex and block kind with room."""
    calls = []
    coded = generators._glued_code

    def counting(peel, blocks, kind, ring, ids):
        calls.append(ring)
        return coded(peel, blocks, kind, ring, ids)

    monkeypatch.setattr(generators, "_glued_code", counting)
    list(enumerate_gallai_trees(k, 10))
    assert len(calls) == codes


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
