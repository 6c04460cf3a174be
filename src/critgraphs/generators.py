"""Exhaustive enumeration of degree-bounded Gallai trees and the extremal chain families."""

from typing import Iterator

from .errors import BudgetExceeded, PreconditionError
from .graph import Graph

# Enumeration is exponential in n_max: the number of trees about triples from
# n_max = 9 to 10, and no work budget bounds it yet.  At n_max = 10 it takes
# about 0.010/0.034/0.053/0.062 s of CPU for k = 4/5/6/7, and verify-trees,
# which checks the bounds on the way, 0.039/0.063/0.073/0.077 s for
# k = 5/6/7/8 (best of 27 runs in three processes, 2-CPU host, Python 3.11.7).
_ENUM_VERTEX_CAP = 10


def _block_edges(kind: str, ring: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The edges of a block (clique or cycle) whose vertices, in cycle order,
    are `ring`."""
    size = len(ring)
    if kind == "clique":
        return tuple((ring[i], ring[j]) for i in range(size) for j in range(i + 1, size))
    return tuple((ring[i], ring[(i + 1) % size]) for i in range(size))


# A tree's canonical code is Aho, Hopcroft & Ullman's tree code on its
# vertex-block incidence tree, rooted at the centre.  Every leaf of that tree
# is a vertex, so every leaf-to-leaf path has even length and the centre is
# one node.  Each non-centre node's code is the code of its subtree, entered
# from its parent toward the centre, as a small int: `ids` interns the tuple
# that describes it, numbering tuples as they are first met, so it must live
# as long as the codes are compared.  Vertex v's tuple is the sorted codes of
# its other blocks.  A clique entered at v is -1 and the sorted codes of its
# other vertices; a cycle is -2 and the codes of its other vertices read
# around the ring from v, in the direction giving the smaller sequence.  The
# centre's code is a flat tuple tagged with its kind: a vertex reads the
# sorted codes of its blocks, a clique the sorted codes of its vertices, a
# cycle the least sequence of its vertices' codes over every rotation and
# reflection of the ring.  Two trees are isomorphic exactly when their codes,
# taken with the same `ids`, are equal.
#
# The enumeration keeps each growable tree's peel as a tuple (edges, links,
# parent, codes, centre, radius): its edge list, each node's neighbours in
# the incidence tree (a vertex's blocks in glue order, a block's ring), each
# node's neighbour toward the centre (-1 at the centre), each node's code (-1
# at the centre), the centre, and the centre's distance to the farthest leaf.
# Node v < n_max is vertex v and node n_max + b is block b, so node numbers do
# not shift as vertices are added; the vertex nodes not yet in the tree are
# empty.


def _child_key(up: int, around, codes, kind: str) -> tuple:
    """The tuple that names the subtree of a node entered from its neighbour
    `up`; `around` is the node's neighbours and kind is "vertex", "clique"
    or "cycle"."""
    if kind == "vertex":
        return tuple(sorted([codes[y] for y in around if y != up]))
    if kind == "clique":
        return (-1, *sorted([codes[u] for u in around if u != up]))
    i = around.index(up)
    seq = [codes[u] for u in around[i + 1:] + around[:i]]
    return (-2, *min(seq, seq[::-1]))


def _centre_code(around, kind: str, codes) -> tuple:
    """The canonical code of a tree whose centre, of the given kind, has the
    neighbours `around`."""
    seq = [codes[u] for u in around]
    if kind == "cycle":
        return (kind, *min(s[i:] + s[:i] for s in (seq, seq[::-1]) for i in range(len(seq))))
    return (kind, *sorted(seq))


def _glued_code(peel: tuple, blocks, kind: str, ring: tuple[int, ...], ids: dict) -> tuple[tuple, tuple]:
    """Glue block (kind, ring) onto the tree whose peel is `peel` and whose
    block list is `blocks`, at its vertex ring[0], the new vertices being
    ring[1:]: the new tree's code, and the rest of its peel (links, parent,
    codes, centre, radius).

    Only the new block, its new vertices and the nodes on the path from
    ring[0] up to the centre get new codes; every other subtree is the
    parent's.  The new leaves sit at depth(ring[0]) + 2.  Up to the radius
    the centre stays; past it, the diameter grows by two and the centre
    moves one step from the old centre toward the new block, the old centre
    becoming a child of the new one."""
    _, links, parent, codes, centre, radius = peel
    v = ring[0]
    b = len(links)
    first_block = b - len(blocks)
    blocks = blocks + ((kind, ring),)
    at_b = (b,)
    links = list(links)
    links[v] += at_b
    links.append(ring)
    parent = list(parent)
    parent.append(v)
    codes = list(codes)
    leaf = ids.setdefault((), len(ids))
    for u in ring[1:]:
        links[u] = at_b
        parent[u] = b
        codes[u] = leaf
    codes.append(ids.setdefault((-1 if kind == "clique" else -2, *[leaf] * (len(ring) - 1)), len(ids)))
    path = [b, v]
    while path[-1] != centre:
        path.append(parent[path[-1]])
    # path runs from the new block to the centre: its length is depth(v) + 2
    top = centre if len(path) <= radius else path[-2]
    recode = [(path[i], path[i + 1]) for i in range(1, path.index(top))]
    if top != centre:
        recode.append((centre, top))
        parent[centre], parent[top] = top, -1
        radius += 1
    for x, up in recode:
        kind_x = "vertex" if x < first_block else blocks[x - first_block][0]
        codes[x] = ids.setdefault(_child_key(up, links[x], codes, kind_x), len(ids))
    codes[top] = -1
    kind_top = "vertex" if top < first_block else blocks[top - first_block][0]
    return _centre_code(links[top], kind_top, codes), (links, parent, codes, top, radius)


def _least_in_orbit(n: int, blocks, links, codes, root: int) -> list[int]:
    """For each vertex of the tree on n vertices with block list `blocks`,
    the least vertex of its automorphism orbit, read off its peel: each
    node's links, each node's code and the centre.  Nodes below n are the
    vertices, and block b is node len(links) - len(blocks) + b.

    Every automorphism fixes the centre, so orbits are read top-down from it:
    two nodes share an orbit exactly when their parents do and they are in
    the same class among their siblings.  Below a vertex or a clique, a
    child's class is its code.  Below a cycle entered from its parent, it is
    the child's position in the direction that gives the smaller sequence of
    codes, positions i and L-1-i merging when the sequence is a palindrome.
    Below a cycle at the centre, it is the least position the vertex takes
    over the rotations and reflections of the ring that give the least
    sequence.
    """
    first_block = len(links) - len(blocks)
    orbit = [-1] * len(links)
    labels: dict[tuple[int, int], int] = {}
    stack = [(root, -1)]
    while stack:
        x, parent = stack.pop()
        children = [c for c in links[x] if c != parent]
        if x < n or blocks[x - first_block][0] == "clique":
            cls = [codes[c] for c in children]
        elif parent >= 0:
            ring = links[x]
            i = ring.index(parent)
            children = ring[i + 1:] + ring[:i]
            seq = [codes[u] for u in children]
            last = len(seq) - 1
            rev = seq[::-1]
            if seq < rev:
                cls = list(range(len(seq)))
            elif seq > rev:
                cls = [last - j for j in range(len(seq))]
            else:
                cls = [min(j, last - j) for j in range(len(seq))]
        else:
            ring = links[x]
            readings = [s[i:] + s[:i] for s in (ring, ring[::-1]) for i in range(len(ring))]
            best = min([codes[u] for u in r] for r in readings)
            pos: dict[int, int] = {}
            for r in readings:
                if [codes[u] for u in r] == best:
                    for j, u in enumerate(r):
                        pos[u] = min(pos.get(u, j), j)
            cls = [pos[u] for u in children]
        for c, k in zip(children, cls):
            orbit[c] = labels.setdefault((orbit[x], k), len(labels))
            stack.append((c, x))
    first: dict[int, int] = {}
    return [first.setdefault(orbit[v], v) for v in range(n)]


def enumerate_gallai_trees(k: int, n_max: int) -> Iterator[Graph]:
    """Yield every connected graph on <= n_max vertices whose blocks are all
    cliques or odd cycles, with maximum degree <= k-1, excluding K_k itself.
    One representative per isomorphism class, in nondecreasing vertex count.
    """
    for g, _ in _gallai_trees(k, n_max):
        yield g


def _gallai_trees(k: int, n_max: int) -> Iterator[tuple[Graph, tuple]]:
    """enumerate_gallai_trees with each tree's block list: (g, blocks), where
    blocks is a tuple of (kind, ring), kind "clique" or "cycle" (a triangle
    is a clique) and a cycle's ring in cycle order, in the order the blocks
    were glued on."""
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
    # appears because clique blocks stop at k-1.  Each tree that can still
    # grow carries its peel, so a candidate is coded along one path of it,
    # and a candidate's Graph is built only when its code is new.
    catalog = [("clique", t) for t in range(2, k)]
    catalog += [("cycle", t) for t in range(5, n_max + 1, 2)]

    ids: dict[tuple, int] = {}
    seen: set[tuple] = set()
    # level n holds (g, blocks, peel) per kept tree on n vertices; the peel
    # is None on n_max vertices, where nothing grows
    order: dict[int, list[tuple]] = {n: [] for n in range(1, n_max + 1)}
    order[1].append((Graph(1), (), ((), ((),) * n_max, (-1,) * n_max, (-1,) * n_max, 0, 0)))
    for n in range(1, n_max + 1):
        for g, blocks, peel in order.pop(n):
            yield g, blocks
            if peel is None:
                continue
            least = _least_in_orbit(n, blocks, peel[1], peel[3], peel[4])
            for kind, size in catalog:
                m = n + size - 1
                if m > n_max:
                    continue
                gain = size - 1 if kind == "clique" else 2
                for v in range(n):
                    # gluing at v and at any vertex of v's orbit gives
                    # isomorphic graphs, and the least of the orbit comes first
                    if least[v] == v and g.degree(v) + gain <= k - 1:
                        ring = (v, *range(n, m))
                        code, rest = _glued_code(peel, blocks, kind, ring, ids)
                        if code not in seen:
                            seen.add(code)
                            edges = peel[0] + _block_edges(kind, ring)
                            peel_m = (edges, *rest) if m < n_max else None
                            order[m].append((Graph(m, edges), blocks + ((kind, ring),), peel_m))


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
