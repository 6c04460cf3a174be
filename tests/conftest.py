"""Shared test helpers.

networkx is a test-only dependency: it supplies independent oracles (graph6
codec, articulation points, isomorphism) and the atlas of small connected
graphs.  The discharging corpus builder assembles synthetic instances that
meet the simulator's preconditions: tree components padded to degree k-1 by
edges into cliques of high vertices.
"""

from dataclasses import dataclass
from itertools import product

import networkx as nx

from critgraphs import Graph, contains_clique, enumerate_gallai_trees
from critgraphs.generators import clique_path, extremal_chain


def nx_to_graph(h) -> Graph:
    nodes = sorted(h.nodes())
    idx = {v: i for i, v in enumerate(nodes)}
    return Graph(len(nodes), [(idx[u], idx[v]) for u, v in h.edges()])


def graph_to_nx(g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


_ATLAS = None


def connected_atlas(max_n: int, min_n: int = 1):
    """All connected graphs with min_n <= |V| <= max_n (the atlas covers up
    to 7 vertices)."""
    global _ATLAS
    if _ATLAS is None:
        _ATLAS = [
            nx_to_graph(h)
            for h in nx.graph_atlas_g()[1:]
            if nx.is_connected(h)
        ]
    return [g for g in _ATLAS if min_n <= g.n <= max_n]


# Hand-transcribed embeddings of the k=5 chains with 2 and 3 copies, so
# extremal_chain can be isomorphism-tested against a drawing that was labeled
# by hand rather than by its layout rule.

_CHAIN_5_2_EDGES = (
    (1, 0), (1, 2), (1, 3), (2, 0), (2, 4), (3, 0), (3, 2), (4, 5), (4, 6),
    (5, 6), (7, 8), (7, 9), (8, 9), (9, 3), (11, 10), (11, 12), (11, 13),
    (12, 1), (12, 10), (13, 10), (13, 12), (14, 15), (14, 16), (15, 16),
    (16, 11), (17, 18), (17, 19), (18, 19), (19, 10),
)

_CHAIN_5_3_EDGES = (
    (0, 5), (1, 0), (1, 2), (1, 3), (1, 19), (2, 0), (3, 0), (3, 2), (5, 4),
    (5, 6), (5, 7), (6, 4), (6, 8), (7, 4), (7, 6), (8, 9), (8, 10), (9, 10),
    (11, 12), (11, 13), (12, 13), (13, 7), (14, 15), (14, 16), (15, 16),
    (16, 2), (18, 17), (18, 19), (18, 20), (19, 17), (20, 17), (20, 19),
    (21, 22), (21, 23), (22, 23), (24, 25), (24, 26), (25, 26), (26, 17),
    (23, 18), (27, 28), (27, 29), (28, 29), (28, 3),
)


def reference_chain_5_2() -> Graph:
    return Graph(20, _CHAIN_5_2_EDGES)


def reference_chain_5_3() -> Graph:
    return Graph(30, _CHAIN_5_3_EDGES)


# ---------------------------------------------------------------------------
# the marked-vertex family of criterion 9


def _marked_instance(parts, subsets):
    n = sum(p.n for p in parts) + 1
    x = n - 1
    edges = []
    off = 0
    for part, sel in zip(parts, subsets):
        edges += [(u + off, v + off) for u, v in part.edges()]
        edges += [(x, s + off) for s in sel]
        off += part.n
    return Graph(n, edges), x


def _nonempty_subsets(n):
    verts = range(n)
    for size in range(1, n + 1):
        for bits in product((0, 1), repeat=n):
            if sum(bits) == size:
                yield tuple(v for v in verts if bits[v])


def lemma51_family():
    """Yield (g, x) over enumerate_gallai_trees(5, 5): x joined to one tree
    at a set S with |S| >= 3, then x joined to a pair of the two K_4-bearing
    trees at S_a, S_b with |S_a| + |S_b| >= 4 and at most 20 edges."""
    trees = list(enumerate_gallai_trees(5, 5))
    bearing = [t for t in trees if contains_clique(t, 4)[0]]
    assert len(bearing) == 2
    for tree in trees:
        for sel in _nonempty_subsets(tree.n):
            if len(sel) >= 3:
                yield _marked_instance([tree], [sel])
    for ai, a in enumerate(bearing):
        for b in bearing[ai:]:
            for sa in _nonempty_subsets(a.n):
                for sb in _nonempty_subsets(b.n):
                    if len(sa) + len(sb) >= 4 and a.m + b.m + len(sa) + len(sb) <= 20:
                        yield _marked_instance([a, b], [sa, sb])


# ---------------------------------------------------------------------------
# synthetic discharging instances


@dataclass(frozen=True)
class ChargeInstance:
    label: str
    k: int
    graph: Graph
    tree_ranges: tuple  # per input tree, the global vertex range it occupies


def build_charge_instance(k: int, tree_graphs, mode: str, label: str = "") -> ChargeInstance:
    """Pad each tree vertex to degree k-1 with edges into pools of highs.

    mode "single": K_k pools, one boundary edge per pool vertex (degree k).
    mode "double": K_k pools, two each (degree k+1).
    mode "pair":   full K_{k-1} pools, two each (degree k, double sponsor).
    mode "mixed":  K_k pools, alternating one and two.

    Pool vertices that get no boundary edge sit at degree k-1 and become
    their own clique component of L; that is harmless while the clique has at
    most k-2 vertices (no K_{k-1}, so no W vertices).  A pool that would end
    with exactly one taker is dissolved and its slots go to earlier takers.
    """
    edges = []
    slots = []
    tree_ranges = []
    offset = 0
    for t in tree_graphs:
        for u, v in t.edges():
            edges.append((offset + u, offset + v))
        for v in range(t.n):
            need = (k - 1) - t.degree(v)
            assert need >= 0, "tree vertex above degree k-1"
            slots.extend([offset + v] * need)
        tree_ranges.append(tuple(range(offset, offset + t.n)))
        offset += t.n

    taken_by = {}
    placed = []  # pool vertices that took at least one slot, in order

    def clique(base, size):
        for a in range(base, base + size):
            for b in range(a + 1, base + size):
                edges.append((a, b))

    def take(u, want):
        # stops early rather than doubling an edge; a later vertex picks up
        # the leftover copy
        got = 0
        while got < want and slots:
            for idx, s in enumerate(slots):
                if s not in taken_by.setdefault(u, set()):
                    taken_by[u].add(s)
                    edges.append((u, s))
                    slots.pop(idx)
                    got += 1
                    break
            else:
                break
        return got

    if mode == "pair":
        while len(slots) >= 2 * (k - 1):
            base = offset
            offset += k - 1
            clique(base, k - 1)
            for u in range(base, base + k - 1):
                take(u, 2)
                placed.append(u)
        rest_caps = [1]
    else:
        rest_caps = {"single": [1], "double": [2], "mixed": [1, 2]}[mode]

    ci = 0
    while slots:
        base = offset
        offset += k
        clique(base, k)
        pool_placed = []
        for u in range(base, base + k):
            if not slots:
                break
            want = rest_caps[ci % len(rest_caps)]
            ci += 1
            if take(u, want):
                pool_placed.append(u)
        if len(pool_placed) == 1:
            # k-1 leftovers would form a K_{k-1} with W vertices; dissolve
            lone = pool_placed[0]
            back = sorted(taken_by.pop(lone))
            edges = [
                e
                for e in edges
                if lone not in e and not (e[0] >= base and e[1] >= base)
            ]
            offset = base
            for s in back:
                for u in placed:
                    if s not in taken_by[u]:
                        taken_by[u].add(s)
                        edges.append((u, s))
                        break
                else:
                    raise AssertionError("nowhere to redistribute a slot")
        else:
            placed.extend(pool_placed)

    g = Graph(offset, edges)
    assert g.m == len(edges), "parallel edge slipped through"
    for rng in tree_ranges:
        for v in rng:
            assert g.degree(v) == k - 1
    for v in range(max((r[-1] for r in tree_ranges), default=-1) + 1, offset):
        assert g.degree(v) >= k - 1
    return ChargeInstance(label or mode, k, g, tuple(tree_ranges))


def _lone_slot_trees(k):
    """Paths whose slot count is 1 mod k, forcing a one-taker final pool."""
    # a path on n vertices contributes (k-3)n + 2 slots
    if k % 3:
        n = pow(3, -1, k)
        picks = [n if n >= 2 else n + k]
    else:
        j = k // 3
        picks = [2, j - 1 if j >= 3 else 2 * j - 1]
    assert sum((k - 3) * n + 2 for n in picks) % k == 1
    return [Graph.path(n) for n in picks]


def charge_corpus(k: int):
    """Eleven instances per k, spanning all the transfer rules."""
    K = Graph.complete
    C5 = Graph.cycle(5)
    menu = [
        ("k1", [K(1)], "single"),
        ("kk1", [K(k - 1)], "single"),
        ("kk2", [K(k - 2)], "double"),
        ("c5", [C5], "single"),
        ("two", [K(k - 1), K(1)], "mixed"),
        ("pair", [K(k - 1), K(k - 1)], "pair"),
        ("chain1", [extremal_chain(k, 1)], "single"),
        ("chain2", [extremal_chain(k, 2)], "double"),
        ("cpath", [clique_path(k, 2)], "mixed"),
        ("mix", [C5, K(k - 1)], "double"),
        ("lone", _lone_slot_trees(k), "single"),
    ]
    return [
        build_charge_instance(k, trees, mode, label="%s-k%d" % (label, k))
        for label, trees, mode in menu
    ]


def stalled_aux_instance(k: int = 5, trees: int = 3, fanout: int = 3):
    """A graph whose auxiliary bipartite graph is complete bipartite
    trees x fanout: every connector high sees W of every tree.

    trees=3, fanout=3 stalls symmetric elimination (all degrees 3);
    trees=4, fanout=4 stalls lopsided as well.
    """
    assert fanout <= k - 1
    edges = []
    offset = 0
    tree_ranges = []
    for _ in range(trees):
        for a in range(k - 1):
            for b in range(a + 1, k - 1):
                edges.append((offset + a, offset + b))
        tree_ranges.append(tuple(range(offset, offset + k - 1)))
        offset += k - 1
    # connectors sit in cliques sized so one edge per tree lands them at
    # degree exactly k
    size = k + 1 - trees
    assert size >= 1 and fanout % size == 0, "connector cliques must be full"
    connectors = []
    for j in range(fanout):
        if j % size == 0:
            base = offset
            offset += size
            for a in range(size):
                for b in range(a + 1, size):
                    edges.append((base + a, base + b))
        u = base + j % size
        for rng in tree_ranges:
            edges.append((u, rng[j]))
        connectors.append(u)
    # remaining tree vertices each need one more edge; K_k single pools
    slots = [v for rng in tree_ranges for v in rng[fanout:]]
    while slots:
        base = offset
        offset += k
        for a in range(k):
            for b in range(a + 1, k):
                edges.append((base + a, base + b))
        for u in range(base, base + k):
            if not slots:
                break
            edges.append((u, slots.pop(0)))
    g = Graph(offset, edges)
    for rng in tree_ranges:
        for v in rng:
            assert g.degree(v) == k - 1, (v, g.degree(v))
    for u in connectors:
        assert g.degree(u) == k, (u, g.degree(u))
    return g, tree_ranges, connectors
