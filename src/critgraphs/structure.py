"""Block structure, Gallai-tree predicates, and the auxiliary bipartite graph.

A Gallai tree is a connected graph whose blocks are all complete graphs or
odd cycles. For a parameter k, the family of interest is the Gallai trees
with maximum degree <= k-1, excluding K_k itself; these are exactly the
connected graphs that are not degree-choosable (and not degree-paintable),
which is what the coloring engines verify empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import PreconditionError
from .graph import Graph, _clique_vertices, _component_masks, _mask_bits, _vertex_mask, clique_vertices


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (as vertex sets) and cut vertices."""

    blocks: tuple[frozenset, ...]
    cut_vertices: frozenset


def _blocks(adj, mask: int) -> Optional[tuple[list[int], int]]:
    """Blocks, as masks, and the cut-vertex mask of the subgraph induced on
    mask; None if that subgraph is disconnected.

    Tarjan's depth-first search from the lowest vertex of mask, taking
    neighbours ascending; vertices are bits, and each open one waits on the
    stack with the neighbours it has not tried.  A vertex's low point may
    come from its parent, which leaves the test low[child] >= disc[parent]
    exact for blocks.  The cut vertices are those in two blocks or more.
    """
    if not mask:
        return [], 0
    root = seen = mask & -mask
    disc, low = {root: 0}, {root: 0}
    # below[i]: the first i + 1 vertices visited and not yet closed into a block
    below = [root]
    stack = [(root, adj[root.bit_length() - 1] & mask, 0)]
    blocks: list[int] = []
    cuts = covered = 0
    while stack:
        v, nbrs, at = stack[-1]
        while nbrs:
            w = nbrs & -nbrs
            nbrs ^= w
            if not seen & w:
                seen |= w
                stack[-1] = (v, nbrs, at)
                disc[w] = low[w] = len(disc)
                stack.append((w, adj[w.bit_length() - 1] & mask, len(below)))
                below.append(below[-1] | w)
                break
            if disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    # u separates the subtree at v: with u, v and every open
                    # vertex visited after it form one block
                    blk = u | below[-1] & ~below[at - 1]
                    del below[at:]
                    blocks.append(blk)
                    cuts |= covered & blk
                    covered |= blk
    return (blocks, cuts) if seen == mask else None


def _disconnected(adj, mask: int) -> PreconditionError:
    """The error for a disconnected mask: its witness is the lowest vertex of each component."""
    comps = _component_masks(adj, mask)
    return PreconditionError(
        f"graph is disconnected ({len(comps)} components); decompose per component",
        witness=tuple((c & -c).bit_length() - 1 for c in comps),
    )


class _Decomposition(NamedTuple):
    """What one block pass tells of the subgraph induced on a mask."""

    blocks: Optional[list[int]]  # block masks; None if the mask is disconnected
    cuts: Optional[int]  # the cut-vertex mask; None if disconnected
    gallai: bool  # a Gallai tree: nonempty, connected, every block a clique or an odd cycle
    in_t_k: bool  # a Gallai tree of maximum degree <= k-1 other than K_k
    w: Optional[int]  # the vertices in some K_{k-1}; None if not searched
    q: Optional[int]  # how many of W are not cut vertices; None if W or cuts is None


def _decompose(adj, mask: int, k: int, search: bool = True) -> _Decomposition:
    """Blocks, cut vertices, Gallai and T_k membership, W and q of the
    subgraph induced on mask, from one _blocks pass.  W of a T_k member,
    k >= 4, is its clique blocks on k-1 vertices: as bounds._blocks_w_q
    says, no clique block is larger and every K_{k-1} lies in one of them.
    Any other W comes from the clique search, or is None if search is False."""
    found = _blocks(adj, mask)
    blocks, cuts = found or (None, None)
    gallai = found is not None and mask != 0
    w = 0
    for blk in blocks if gallai else ():
        size = blk.bit_count()
        # a block is 2-connected, so all inner degrees 2 make it a cycle
        inner = {(adj[v] & blk).bit_count() for v in _mask_bits(blk)}
        if inner == {size - 1}:
            w |= blk if size == k - 1 else 0
        elif not (size % 2 and inner == {2}):
            gallai = False
            break
    member = False
    if gallai:
        degrees = [(adj[v] & mask).bit_count() for v in _mask_bits(mask)]
        member = max(degrees) < k and not (len(degrees) == k and min(degrees) == k - 1)
    if not (member and k >= 4):
        w = _clique_vertices(adj, mask, k - 1) if search else None
    q = None if cuts is None or w is None else (w & ~cuts).bit_count()
    return _Decomposition(blocks, cuts, gallai, member, w, q)


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Biconnected components of a connected graph.

    Raises PreconditionError on disconnected input; callers should split into
    components first.
    """
    adj, mask = g._adj, (1 << g.n) - 1
    found = _decompose(adj, mask, 0, search=False)
    if found.blocks is None:
        raise _disconnected(adj, mask)
    verts = sorted(list(_mask_bits(b)) for b in found.blocks)
    return BlockDecomposition(tuple(frozenset(b) for b in verts), frozenset(_mask_bits(found.cuts)))


def is_gallai_tree(g: Graph) -> bool:
    """Connected, and every block is a clique or an odd cycle. K_1 counts."""
    return _decompose(g._adj, (1 << g.n) - 1, 0, search=False).gallai


def in_t_k(g: Graph, k: int) -> bool:
    """Member of the k-bounded Gallai-tree family: Gallai tree, max degree
    <= k-1, and not K_k itself."""
    # a degree of k or more rules g out, so no block pass is needed
    if max(g.degrees(), default=0) >= k:
        return False
    return _decompose(g._adj, (1 << g.n) - 1, k, search=False).in_t_k


def w_k(g: Graph, k: int) -> frozenset:
    """Vertices lying in at least one K_{k-1} of g."""
    return clique_vertices(g, k - 1)


def q_value(g: Graph, k: int) -> int:
    """Number of non-cut vertices among those in some K_{k-1}."""
    adj, mask = g._adj, (1 << g.n) - 1
    found = _decompose(adj, mask, k)
    if found.q is None:
        raise _disconnected(adj, mask)
    return found.q


@dataclass(frozen=True)
class LowHighSplit:
    """Degree split: components of the degree-(k-1) subgraph, degree-k
    vertices, and higher-degree vertices."""

    l_components: tuple[frozenset, ...]
    h_vertices: frozenset
    higher_vertices: frozenset
    sub_vertices: frozenset  # degree < k-1; nonempty means preconditions fail downstream


def low_high_split(g: Graph, k: int) -> LowHighSplit:
    deg = g.degrees()
    low = [v for v, d in enumerate(deg) if d == k - 1]
    return LowHighSplit(
        l_components=tuple(frozenset(_mask_bits(c)) for c in _component_masks(g._adj, _vertex_mask(low))),
        h_vertices=frozenset(v for v, d in enumerate(deg) if d == k),
        higher_vertices=frozenset(v for v, d in enumerate(deg) if d >= k + 1),
        sub_vertices=frozenset(v for v, d in enumerate(deg) if d < k - 1),
    )


@dataclass(frozen=True)
class AuxiliaryBipartite:
    """Bipartite structure between selected vertices y and components T of the
    remaining side, with an edge when y sees a K_{k-1} vertex of T."""

    tree_components: tuple[frozenset, ...]
    w_sets: tuple[frozenset, ...]
    y_vertices: tuple[int, ...]
    edges: frozenset  # of (y, component index)
    tree_cuts: tuple[Optional[int], ...] = ()  # per component: its cut mask in T_k, else None

    def y_degree(self, y: int) -> int:
        return sum(1 for z, _ in self.edges if z == y)


def build_aux_partition(
    g: Graph, y_vertices, k: int, tree_vertices=None
) -> AuxiliaryBipartite:
    """General form: components are taken from tree_vertices (default: the
    complement of y_vertices).  One _decompose call per component gives
    tree_cuts and W."""
    ys = sorted(set(y_vertices))
    tree_pool = sorted(set(range(g.n)).difference(ys) if tree_vertices is None else set(tree_vertices))
    for v in ys + tree_pool:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    pool = _vertex_mask(tree_pool)
    both = _vertex_mask(ys) & pool
    if both:
        raise ValueError(f"vertex {(both & -both).bit_length() - 1} is both marked and a tree vertex")
    comps = _component_masks(g._adj, pool)
    # W of a component is taken in the component alone: a marked vertex that
    # completes a K_{k-1} with tree vertices does not put them in W
    found = [_decompose(g._adj, comp, k) for comp in comps]
    return AuxiliaryBipartite(
        tree_components=tuple(frozenset(_mask_bits(c)) for c in comps),
        w_sets=tuple(frozenset(_mask_bits(f.w)) for f in found),
        y_vertices=tuple(ys),
        edges=frozenset(
            (y, i) for y in ys for i, f in enumerate(found) if g._adj[y] & f.w
        ),
        tree_cuts=tuple(f.cuts if f.in_t_k else None for f in found),
    )


def build_auxiliary(g: Graph, k: int) -> AuxiliaryBipartite:
    """Degree-based form: y side is the degree-k vertices, tree side the
    degree-(k-1) vertices."""
    split = low_high_split(g, k)
    tree_pool = sorted(v for comp in split.l_components for v in comp)
    return build_aux_partition(g, sorted(split.h_vertices), k, tree_pool)


@dataclass(frozen=True)
class EliminationResult:
    order: tuple  # of ("tree", comp index) / ("high", vertex)
    residual_trees: Optional[tuple[int, ...]] = None
    residual_highs: Optional[tuple[int, ...]] = None
    residual_edges: Optional[frozenset] = None

    @property
    def succeeded(self) -> bool:
        return self.residual_trees is None


class Regime(NamedTuple):
    """One of the paper's two discharging regimes (see REGIMES)."""

    c: int  # gammas a tree component may miss
    s: int  # gammas a degree-k vertex may send
    check: str  # the bounds report that gates its parameters
    theorem: str  # the bound its discharging proves
    lemma: str  # the lemma that makes what its elimination leaves reducible


# A tree may miss c gammas because condition 6, c(h+1) + f <= 0, pays for
# them; a degree-k vertex may send s because epsilon = 1/(k+2+s*h-p) keeps
# it at the target.  Elimination peels trees of aux degree <= c and marked
# vertices of aux degree <= s-1, and the lemma forbids the rest.
REGIMES = {
    # Lemma 5.2 (k >= 7) forbids aux degrees >= 3 on both sides.
    "symmetric": Regime(2, 3, "thm41", "Theorem 4.1", "Lemma 5.2"),
    # Lemma 5.3 (k >= 5) forbids marked degree >= 4 with tree degree >= 2.
    "lopsided": Regime(1, 4, "thm43", "Theorem 4.3", "Lemma 5.3"),
}


def regime(k: int, mode: str = "auto") -> str:
    """The regime named mode, or for "auto" the one the paper applies at k:
    Theorem 4.1 needs k >= 7, and Theorem 4.3 covers k = 5, 6."""
    if mode == "auto":
        mode = "lopsided" if k < 7 else "symmetric"
    if mode not in REGIMES:
        raise PreconditionError("unknown mode %r" % mode)
    return mode


def eliminate(aux: AuxiliaryBipartite, mode: str) -> EliminationResult:
    """Peel the auxiliary graph: tree nodes of degree at most c first
    (ascending component id), then y nodes of degree at most s-1 (ascending
    vertex id), repeated to a fixpoint."""
    tree_max, high_max = REGIMES[mode].c, REGIMES[mode].s - 1
    # each side's neighbours as a mask over the other side: marked vertices
    # by vertex id, trees by component index
    tree_nbrs = [0] * len(aux.tree_components)
    high_nbrs = dict.fromkeys(aux.y_vertices, 0)
    for y, i in aux.edges:
        tree_nbrs[i] |= 1 << y
        high_nbrs[y] |= 1 << i
    trees = (1 << len(tree_nbrs)) - 1
    highs = _vertex_mask(high_nbrs)
    order: list[tuple[str, int]] = []
    while trees or highs:
        removed = False
        for i in _mask_bits(trees):
            if (tree_nbrs[i] & highs).bit_count() <= tree_max:
                trees &= ~(1 << i)
                order.append(("tree", i))
                removed = True
        for y in _mask_bits(highs):
            if (high_nbrs[y] & trees).bit_count() <= high_max:
                highs &= ~(1 << y)
                order.append(("high", y))
                removed = True
        if not removed:
            return EliminationResult(
                tuple(order),
                residual_trees=tuple(_mask_bits(trees)),
                residual_highs=tuple(_mask_bits(highs)),
                residual_edges=frozenset(
                    (y, i) for y, i in aux.edges if trees >> i & 1 and highs >> y & 1
                ),
            )
    return EliminationResult(tuple(order))
