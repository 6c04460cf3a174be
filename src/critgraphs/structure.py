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
    neighbours ascending.  A vertex's low point may come from its parent,
    which leaves the test low[child] >= disc[parent] exact for blocks.
    """
    if not mask:
        return [], 0
    root = (mask & -mask).bit_length() - 1
    disc = {root: 0}
    low = {root: 0}
    path = [root]  # visited vertices not yet closed into a block
    stack = [(root, _mask_bits(adj[root] & mask))]
    blocks: list[int] = []
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
                    # u separates the subtree at v: pop it as one block with u
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


def _connected_blocks(adj, mask: int) -> tuple[list[int], int]:
    """_blocks of mask; raises PreconditionError if mask is disconnected."""
    found = _blocks(adj, mask)
    if found is None:
        comps = _component_masks(adj, mask)
        raise PreconditionError(
            f"graph is disconnected ({len(comps)} components); decompose per component",
            witness=tuple((c & -c).bit_length() - 1 for c in comps),
        )
    return found


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Biconnected components of a connected graph.

    Raises PreconditionError on disconnected input; callers should split into
    components first.
    """
    blocks, cuts = _connected_blocks(g._adj, (1 << g.n) - 1)
    verts = sorted(list(_mask_bits(b)) for b in blocks)
    return BlockDecomposition(tuple(frozenset(b) for b in verts), frozenset(_mask_bits(cuts)))


def _is_gallai(adj, mask: int) -> bool:
    """The subgraph induced on mask is nonempty, connected, and every block
    is a clique or an odd cycle."""
    found = _blocks(adj, mask) if mask else None
    if found is None:
        return False
    for blk in found[0]:
        size = blk.bit_count()
        # a block is 2-connected, so all inner degrees 2 make it a cycle
        inner = {(adj[v] & blk).bit_count() for v in _mask_bits(blk)}
        if inner != {size - 1} and not (size % 2 and inner == {2}):
            return False
    return True


def _in_t_k(adj, mask: int, k: int) -> bool:
    """The subgraph induced on mask is a Gallai tree of maximum degree
    <= k-1 other than K_k."""
    degrees = [(adj[v] & mask).bit_count() for v in _mask_bits(mask)]
    if not degrees or max(degrees) > k - 1:
        return False
    if len(degrees) == k and sum(degrees) == k * (k - 1):
        return False
    return _is_gallai(adj, mask)


def _w_q(adj, mask: int, k: int) -> tuple[int, int]:
    """W and q of the subgraph induced on mask, which must be connected: the
    mask of its vertices in some K_{k-1}, and how many of those are not cut
    vertices."""
    _, cuts = _connected_blocks(adj, mask)
    w = _clique_vertices(adj, mask, k - 1)
    return w, (w & ~cuts).bit_count()


def is_gallai_tree(g: Graph) -> bool:
    """Connected, and every block is a clique or an odd cycle. K_1 counts."""
    return _is_gallai(g._adj, (1 << g.n) - 1)


def in_t_k(g: Graph, k: int) -> bool:
    """Member of the k-bounded Gallai-tree family: Gallai tree, max degree
    <= k-1, and not K_k itself."""
    return _in_t_k(g._adj, (1 << g.n) - 1, k)


def w_k(g: Graph, k: int) -> frozenset:
    """Vertices lying in at least one K_{k-1} of g."""
    return clique_vertices(g, k - 1)


def q_value(g: Graph, k: int) -> int:
    """Number of non-cut vertices among those in some K_{k-1}."""
    return _w_q(g._adj, (1 << g.n) - 1, k)[1]


@dataclass(frozen=True)
class LowHighSplit:
    """Degree split: components of the degree-(k-1) subgraph, degree-k
    vertices, and higher-degree vertices."""

    l_components: tuple[frozenset, ...]
    h_vertices: frozenset
    higher_vertices: frozenset
    sub_vertices: frozenset  # degree < k-1; nonempty means preconditions fail downstream


def low_high_split(g: Graph, k: int) -> LowHighSplit:
    low = [v for v in range(g.n) if g.degree(v) == k - 1]
    return LowHighSplit(
        l_components=tuple(frozenset(_mask_bits(c)) for c in _component_masks(g._adj, _vertex_mask(low))),
        h_vertices=frozenset(v for v in range(g.n) if g.degree(v) == k),
        higher_vertices=frozenset(v for v in range(g.n) if g.degree(v) >= k + 1),
        sub_vertices=frozenset(v for v in range(g.n) if g.degree(v) < k - 1),
    )


@dataclass(frozen=True)
class AuxiliaryBipartite:
    """Bipartite structure between selected vertices y and components T of the
    remaining side, with an edge when y sees a K_{k-1} vertex of T."""

    tree_components: tuple[frozenset, ...]
    w_sets: tuple[frozenset, ...]
    y_vertices: tuple[int, ...]
    edges: frozenset  # of (y, component index)

    def y_degree(self, y: int) -> int:
        return sum(1 for z, _ in self.edges if z == y)


def build_aux_partition(
    g: Graph, y_vertices, k: int, tree_vertices=None
) -> AuxiliaryBipartite:
    """General form: components are taken from tree_vertices (default: the
    complement of y_vertices)."""
    ys = sorted(set(y_vertices))
    if tree_vertices is None:
        tree_pool = [v for v in range(g.n) if v not in ys]
    else:
        tree_pool = sorted(set(tree_vertices))
    for v in ys + tree_pool:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    comps = _component_masks(g._adj, _vertex_mask(tree_pool))
    # W of a component is taken in the component alone: a marked vertex that
    # completes a K_{k-1} with tree vertices does not put them in W
    w_masks = [_clique_vertices(g._adj, comp, k - 1) for comp in comps]
    return AuxiliaryBipartite(
        tree_components=tuple(frozenset(_mask_bits(c)) for c in comps),
        w_sets=tuple(frozenset(_mask_bits(w)) for w in w_masks),
        y_vertices=tuple(ys),
        edges=frozenset(
            (y, i) for y in ys for i, w in enumerate(w_masks) if g._adj[y] & w
        ),
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
    highs = 0
    for y in high_nbrs:
        highs |= 1 << y
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
