"""Exhaustive enumeration of degree-bounded Gallai trees and the extremal chain families."""

from functools import reduce
from operator import xor
from typing import Iterator

from .errors import BudgetExceeded, PreconditionError
from .graph import Graph

# Enumeration is exponential in n_max: the number of trees about triples from
# n_max = 9 to 10, and no work budget bounds it yet.  At n_max = 10 it takes
# about 0.03/0.13/0.23/0.28 s of CPU for k = 4/5/6/7, and verify-trees, which
# checks the bounds on the way, 0.04/0.15/0.24/0.29 s (best of 9, 2-CPU host,
# Python 3.11.7).
_ENUM_VERTEX_CAP = 10


def _attach(base: Graph, kind: str, ring: tuple[int, ...]) -> Graph:
    """Glue a new block (clique or cycle) onto `base`.  `ring` lists the
    block's vertices in cycle order: a vertex of `base`, then the new labels
    base.n, base.n + 1, ..."""
    size = len(ring)
    if kind == "clique":
        extra = [(ring[i], ring[j]) for i in range(size) for j in range(i + 1, size)]
    else:
        extra = [(ring[i], ring[(i + 1) % size]) for i in range(size)]
    return Graph(base.n + size - 1, list(base.edges()) + extra)


def _tree_code(n: int, blocks) -> tuple:
    """Canonical code of the connected graph on n vertices whose blocks are
    `blocks`, a sequence of (kind, ring) with kind "clique" or "cycle" (a
    triangle is a clique) and a cycle's ring in cycle order.  Two such graphs
    are isomorphic exactly when their codes are equal (Aho, Hopcroft &
    Ullman's tree code on the block-cut tree).

    The code is rooted at the centre of the vertex-block incidence tree.
    Every leaf of that tree is a vertex, so every leaf-to-leaf path has even
    length and the centre is one node, found by peeling leaves layer by
    layer.  Entered from block `parent`, vertex v's code is the sorted tuple
    of the codes of its other blocks.  A clique entered at v is (0, sorted
    codes of its other vertices); a cycle is (1, the codes of its other
    vertices read around the ring from v, in the direction giving the
    smaller sequence).  The root's code is tagged with its kind: a vertex
    reads the sorted codes of its blocks, a clique the sorted codes of its
    vertices, a cycle the least sequence of its vertices' codes over every
    rotation and reflection of the ring.
    """
    if not blocks:
        return ()
    # node v < n is vertex v, node n + b is block b
    links = [[] for _ in range(n)]
    for b, (_, ring) in enumerate(blocks):
        for v in ring:
            links[v].append(n + b)
    links += [ring for _, ring in blocks]
    left = [len(x) for x in links]
    # the xor of each node's unpeeled neighbours: with one left, it is that one
    rest = [reduce(xor, x) for x in links]
    code: list = [None] * len(links)
    layer = [v for v in range(n) if left[v] == 1]
    peeled = 0
    while peeled + len(layer) < len(links):
        peeled += len(layer)
        grown = []
        for x in layer:
            parent = rest[x]
            if x < n:
                code[x] = tuple(sorted(code[b] for b in links[x] if b != parent))
            else:
                ring = links[x]
                if blocks[x - n][0] == "clique":
                    code[x] = (0, tuple(sorted(code[u] for u in ring if u != parent)))
                else:
                    i = ring.index(parent)
                    seq = tuple(code[u] for u in ring[i + 1:] + ring[:i])
                    code[x] = (1, min(seq, seq[::-1]))
            rest[parent] ^= x
            left[parent] -= 1
            if left[parent] == 1:
                grown.append(parent)
        layer = grown
    (root,) = layer
    if root < n:
        return ("vertex", tuple(sorted(code[b] for b in links[root])))
    kind, ring = blocks[root - n]
    if kind == "clique":
        return (kind, tuple(sorted(code[u] for u in ring)))
    seq = tuple(code[u] for u in ring)
    return (kind, min(s[i:] + s[:i] for s in (seq, seq[::-1]) for i in range(len(seq))))


def enumerate_gallai_trees(k: int, n_max: int) -> Iterator[Graph]:
    """Yield every connected graph on <= n_max vertices whose blocks are all
    cliques or odd cycles, with maximum degree <= k-1, excluding K_k itself.
    One representative per isomorphism class, in nondecreasing vertex count.
    """
    for g, _ in _gallai_trees(k, n_max):
        yield g


def _gallai_trees(k: int, n_max: int) -> Iterator[tuple[Graph, tuple]]:
    """enumerate_gallai_trees with each tree's block list: (g, blocks), where
    blocks is a tuple of (kind, ring) as _tree_code reads it, in the order
    the blocks were glued on."""
    if k < 4:
        raise PreconditionError("k must be at least 4", witness=k)
    if n_max > _ENUM_VERTEX_CAP:
        raise BudgetExceeded(
            "enumeration capped at %d vertices, got n_max=%d" % (_ENUM_VERTEX_CAP, n_max)
        )
    if n_max < 1:
        return

    # Every member arises from a smaller one by gluing a leaf block at a cut
    # vertex: cliques K_2..K_{k-1} or odd cycles (C_3 is K_3).  K_k never
    # appears because clique blocks stop at k-1.  Each graph carries its
    # block list, so its canonical code needs no search of the graph, and
    # a candidate's Graph is built only when its code is new.
    catalog = [("clique", t) for t in range(2, k)]
    catalog += [("cycle", t) for t in range(5, n_max + 1, 2)]

    seen: set[tuple] = set()
    order: dict[int, list[tuple[Graph, tuple]]] = {n: [] for n in range(1, n_max + 1)}
    order[1].append((Graph(1), ()))
    for n in range(1, n_max + 1):
        for g, blocks in order[n]:
            yield g, blocks
            for kind, size in catalog:
                m = n + size - 1
                if m > n_max:
                    continue
                gain = size - 1 if kind == "clique" else 2
                for v in range(n):
                    if g.degree(v) + gain <= k - 1:
                        ring = (v, *range(n, m))
                        grown = blocks + ((kind, ring),)
                        code = _tree_code(m, grown)
                        if code not in seen:
                            seen.add(code)
                            order[m].append((_attach(g, kind, ring), grown))


def _chain_order(k: int, m: int) -> int:
    """The vertex count of extremal_chain(k, m), once its arguments pass."""
    if k < 5:
        raise PreconditionError("k must be at least 5", witness=k)
    if m < 1:
        raise PreconditionError("m must be at least 1", witness=m)
    return m * ((k - 1) + (k - 3) * (k - 2))


def extremal_chain(k: int, m: int) -> Graph:
    """Chain of m copies of X, where X is a K_{k-1} with k-3 pendant K_{k-2}s,
    consecutive copies joined by a single edge between free K_{k-1} vertices.

    Deterministic layout per copy: the K_{k-1} occupies the first k-1 labels,
    pendant blocks follow consecutively; pendant i hangs from clique vertex i
    (i = 0..k-4), leaving clique vertices k-3 and k-2 free for link edges.
    """
    n = _chain_order(k, m)
    copy_size = n // m
    edges = []
    free: list[list[int]] = []
    for j in range(m):
        off = j * copy_size
        clique = list(range(off, off + k - 1))
        edges += [(clique[a], clique[b]) for a in range(k - 1) for b in range(a + 1, k - 1)]
        for i in range(k - 3):
            start = off + (k - 1) + i * (k - 2)
            block = list(range(start, start + k - 2))
            edges += [(block[a], block[b]) for a in range(k - 2) for b in range(a + 1, k - 2)]
            edges.append((clique[i], block[0]))
        free.append([clique[k - 3], clique[k - 2]])
    for j in range(m - 1):
        edges.append((free[j].pop(0), free[j + 1].pop(0)))
    return Graph(n, edges)


def _clique_path_order(k: int, m: int) -> int:
    """The vertex count of clique_path(k, m), once its arguments pass."""
    if k < 4:
        raise PreconditionError("k must be at least 4", witness=k)
    if m < 1:
        raise PreconditionError("m must be at least 1", witness=m)
    return m * (k - 1)


def clique_path(k: int, m: int) -> Graph:
    """Path of m copies of K_{k-1}, consecutive copies joined by a single edge
    between their lowest-numbered free vertices.
    """
    n = _clique_path_order(k, m)
    edges = []
    for j in range(m):
        off = j * (k - 1)
        edges += [(off + a, off + b) for a in range(k - 1) for b in range(a + 1, k - 1)]
    for j in range(m - 1):
        # copy 0 links at local 0; later copies already used local 0 for the
        # incoming edge, so the outgoing one sits at local 1
        a = j * (k - 1) + (0 if j == 0 else 1)
        edges.append((a, (j + 1) * (k - 1)))
    return Graph(n, edges)
