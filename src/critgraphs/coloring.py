"""Exact deciders for coloring, list coloring, the paint game, and Alon-Tarsi orientations.

Everything here is desk-scale and exhaustive.  Each decider takes an explicit
budget and raises BudgetExceeded instead of silently truncating the search.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import BudgetExceeded, PreconditionError
from .graph import Graph, _component_masks, _independent_subsets, _mask_bits

FVector = Sequence[int]

# Default budgets of the deciders below; the CLI uses the same values.
CHI_MAX_VERTICES = 16
CHOOSE_MAX_VERTICES = 10
PAINT_MAX_VERTICES = 10
AT_MAX_EDGES = 20
EE_EO_MAX_ARCS = 22


def _check_f(g: Graph, f: FVector) -> tuple[int, ...]:
    f = tuple(f)
    if len(f) != g.n:
        raise PreconditionError(
            "f has %d entries for a graph on %d vertices" % (len(f), g.n)
        )
    if any(x < 0 for x in f):
        raise PreconditionError("f entries must be nonnegative", witness=f)
    return f


# ---------------------------------------------------------------------------
# chromatic number


def _colorable(g: Graph, k: int) -> bool:
    """DSATUR backtracking with one vertex mask per colour in use."""
    if k >= g.n:
        return True
    adj = g._adj
    deg = g.degrees()
    classes: list[int] = []

    def bt(uncolored: int) -> bool:
        if not uncolored:
            return True
        # max saturation, then max degree; the first such vertex
        v, best_key = -1, (-1, -1)
        for u in _mask_bits(uncolored):
            key = (sum(1 for c in classes if c & adj[u]), deg[u])
            if key > best_key:
                v, best_key = u, key
        bit = 1 << v
        rest = uncolored & ~bit
        for i, c in enumerate(classes):
            if c & adj[v] == 0:
                classes[i] = c | bit
                if bt(rest):
                    return True
                classes[i] = c
        # trying more than one brand-new color is a symmetric repeat
        if len(classes) < k:
            classes.append(bit)
            if bt(rest):
                return True
            classes.pop()
        return False

    return bt((1 << g.n) - 1)


def chromatic_number(g: Graph, max_vertices: int = CHI_MAX_VERTICES) -> int:
    if g.n > max_vertices:
        raise BudgetExceeded("chromatic_number limited to %d vertices" % max_vertices)
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    # greedy clique gives the lower bound, greedy coloring the upper
    adj = g._adj
    clique = 0
    classes: list[int] = []
    for v in sorted(range(g.n), key=g.degree, reverse=True):
        if clique & ~adj[v] == 0:
            clique |= 1 << v
        for i, c in enumerate(classes):
            if c & adj[v] == 0:
                classes[i] = c | 1 << v
                break
        else:
            classes.append(1 << v)
    for k in range(clique.bit_count(), len(classes)):
        if _colorable(g, k):
            return k
    return len(classes)


# ---------------------------------------------------------------------------
# choosability

# A graph fails f-choosability iff some assignment with |L(v)| = f(v) admits no
# proper coloring.  The search below enumerates assignments as multisets of
# color classes (class = set of vertices whose list holds that color), using
# three reductions that lose no witnesses: classes may be assumed connected
# (split a disconnected class into fresh colors), classes of size 1 may be
# assumed away (a color private to v is usable at v iff the rest of the graph
# colors at all, so such a witness restricts to one on G - v), and a graph
# that _peel empties is choosable (color the vertices in the reverse of the
# order they were dropped).  The class search keeps the sets of vertices the
# classes so far can color, and reads them only through _peel, which is
# monotone: a subset of a set that peels away peels away.  Those sets are
# closed under subsets, so it keeps only the maximal ones.


def _peel(adj, umask: int, r: Sequence[int]) -> int:
    """Repeatedly drop a vertex of umask whose demand r[v] beats its degree
    among the vertices left, and return those left.  A dropped vertex can
    always be colored last, from its list or by Painter."""
    changed = True
    while umask and changed:
        changed = False
        for v in _mask_bits(umask):
            if r[v] >= (adj[v] & umask).bit_count() + 1:
                umask &= ~(1 << v)
                changed = True
    return umask


def _connected_supersets(g: Graph, pivot: int, allowed: int):
    """All connected vertex sets containing pivot inside the allowed mask."""
    out = []

    def grow(cur: int, frontier: int, forbidden: int):
        out.append(cur)
        ext = frontier & allowed & ~cur & ~forbidden
        seen = 0
        for v in _mask_bits(ext):
            bit = 1 << v
            grow(cur | bit, frontier | g.adj_mask(v), forbidden | seen)
            seen |= bit

    grow(1 << pivot, g.adj_mask(pivot), 0)
    return out


def _search_classes(g: Graph, mask: int, f: tuple[int, ...]):
    """Find a multiset of connected color classes of size >= 2, with each
    vertex v in exactly f(v) of them, admitting no proper coloring.  Returns
    the class list or None."""
    r = [f[v] if mask >> v & 1 else 0 for v in range(g.n)]

    def dfs(reached: list, classes: list, prev: tuple):
        # also the end test: with no demand left nothing peels, so this
        # fires exactly when the classes color all of mask
        if any(not _peel(g._adj, mask & ~m, r) for m in reached):
            return None
        active = 0
        for v in _mask_bits(mask):
            if r[v] > 0:
                active |= 1 << v
        if not active:
            return list(classes)
        pivot = (active & -active).bit_length() - 1
        cands = [c for c in _connected_supersets(g, pivot, active)
                 if c.bit_count() >= 2]
        cands.sort(key=lambda c: (-c.bit_count(), c))
        for c in cands:
            if prev[0] == pivot and c < prev[1]:
                continue
            for v in _mask_bits(c):
                r[v] -= 1
            subsets = _independent_subsets(g._adj, c)
            grown = []
            for m in sorted((old | s for old in reached for s in subsets),
                            key=int.bit_count, reverse=True):
                if all(m & ~o for o in grown):
                    grown.append(m)
            res = dfs(grown, classes + [c], (pivot, c))
            if res is not None:
                return res
            for v in _mask_bits(c):
                r[v] += 1
        return None

    return dfs([0], [], (-1, 0))


def _pad(witness: dict, f: tuple[int, ...], mask: int) -> dict:
    """witness with each vertex v of mask given f[v] colors used nowhere else."""
    top = max((c for lst in witness.values() for c in lst), default=-1) + 1
    out = dict(witness)
    for v in _mask_bits(mask):
        out[v] = tuple(range(top, top + f[v]))
        top += f[v]
    return out


def _not_choosable(g: Graph, f: tuple[int, ...], mask: int, memo: dict):
    if mask not in memo:
        memo[mask] = _bad_assignment(g, f, mask, memo)
    return memo[mask]


def _bad_assignment(g: Graph, f: tuple[int, ...], mask: int, memo: dict):
    """A list assignment of sizes f on mask with no proper coloring, or None."""
    for v in _mask_bits(mask):
        if f[v] == 0:
            return _pad({v: ()}, f, mask & ~(1 << v))

    comps = _component_masks(g._adj, mask)
    if len(comps) > 1:
        for comp in comps:
            sub = _not_choosable(g, f, comp, memo)
            if sub is not None:
                return _pad(sub, f, mask & ~comp)
        return None

    if not _peel(g._adj, mask, f):
        return None

    classes = _search_classes(g, mask, f)
    if classes is not None:
        return {v: tuple(i for i, c in enumerate(classes) if c >> v & 1)
                for v in _mask_bits(mask)}

    for v in _mask_bits(mask):
        sub = _not_choosable(g, f, mask & ~(1 << v), memo)
        if sub is not None:
            return _pad(sub, f, 1 << v)
    return None


def is_f_choosable(
    g: Graph, f: FVector, max_vertices: int = CHOOSE_MAX_VERTICES
) -> tuple[bool, Optional[dict[int, tuple[int, ...]]]]:
    """Decide whether every assignment of color lists of sizes f admits a
    proper coloring.  On failure the second item is a bad assignment, mapping
    each vertex to its list (colors are arbitrary integer labels)."""
    f = _check_f(g, f)
    if g.n > max_vertices:
        raise BudgetExceeded("is_f_choosable limited to %d vertices" % max_vertices)
    witness = _not_choosable(g, f, (1 << g.n) - 1, {})
    if witness is None:
        return True, None
    return False, witness


# ---------------------------------------------------------------------------
# paintability


def is_f_paintable(g: Graph, f: FVector, max_vertices: int = PAINT_MAX_VERTICES) -> bool:
    """Decide the paint game: Lister picks S, Painter keeps an independent
    I subseteq S, everyone else in S burns a token.  Painter wins when the
    graph empties before any vertex runs dry."""
    f = _check_f(g, f)
    if g.n > max_vertices:
        raise BudgetExceeded("is_f_paintable limited to %d vertices" % max_vertices)
    adj = g._adj
    memo: dict[tuple[int, ...], bool] = {}

    def win(mask: int, tok: tuple[int, ...]) -> bool:
        for v in _mask_bits(mask):
            if tok[v] <= 0:
                return False
        # Schauz (EJC 2009): a vertex with more tokens than live neighbours is
        # painted once they are, so it leaves the game
        mask = _peel(adj, mask, tok)
        if mask == 0:
            return True
        # the live vertices are exactly those with tokens left, so the token
        # vector alone is the state
        tok = tuple(t if mask >> v & 1 else 0 for v, t in enumerate(tok))
        if tok in memo:
            return memo[tok]
        comps = _component_masks(adj, mask)
        if len(comps) > 1:
            res = all(win(c, tok) for c in comps)
            memo[tok] = res
            return res
        # Lister's moves: the nonempty submasks of mask, largest first
        sets = []
        s = mask
        while s:
            sets.append(s)
            s = (s - 1) & mask
        sets.sort(key=lambda s: (-s.bit_count(), s))
        res = True
        for s in sets:
            answered = False
            for i in sorted(_independent_subsets(adj, s), key=lambda x: -x.bit_count()):
                ntok = list(tok)
                for v in _mask_bits(s & ~i):
                    ntok[v] -= 1
                if win(mask & ~i, tuple(ntok)):
                    answered = True
                    break
            if not answered:
                res = False
                break
        memo[tok] = res
        return res

    return win((1 << g.n) - 1, f)


# ---------------------------------------------------------------------------
# orientations and Alon-Tarsi


@dataclass(frozen=True)
class Orientation:
    base: Graph
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple((int(u), int(v)) for u, v in self.arcs))
        covered = set()
        for u, v in self.arcs:
            e = frozenset((u, v))
            if not self.base.has_edge(u, v):
                raise PreconditionError("arc (%d,%d) is not an edge of the base" % (u, v))
            if e in covered:
                raise PreconditionError("edge {%d,%d} oriented twice" % (u, v))
            covered.add(e)
        if len(covered) != self.base.m:
            raise PreconditionError(
                "orientation covers %d of %d edges" % (len(covered), self.base.m)
            )

    def out_degrees(self) -> tuple[int, ...]:
        d = [0] * self.base.n
        for u, _ in self.arcs:
            d[u] += 1
        return tuple(d)


def ee_eo(d: Orientation, max_arcs: int = EE_EO_MAX_ARCS) -> tuple[int, int]:
    """Count spanning eulerian subdigraphs (in-degree = out-degree everywhere),
    split by parity of arc count.  The empty subdigraph always counts as even."""
    arcs = d.arcs
    m = len(arcs)
    if m > max_arcs:
        raise BudgetExceeded("ee_eo limited to %d arcs" % max_arcs)
    left = [0] * d.base.n
    for u, v in arcs:
        left[u] += 1
        left[v] += 1
    # Frontier DP over arcs.  A state packs every imbalance out - in into one
    # int: vertex v owns `width` bits at width * v holding imbalance + off, and
    # |imbalance| <= deg(v) < off, so taking u -> v adds (1 << su) - (1 << sv)
    # and no field ever borrows from its neighbour.  An
    # arc moves an imbalance by at most one, so a state whose imbalance at an
    # endpoint exceeds the arcs left there can never balance and is dropped.
    width = max(left, default=0).bit_length() + 1
    off = 1 << (width - 1)
    field = (1 << width) - 1
    start = sum(off << (width * v) for v in range(d.base.n))
    states: dict[int, tuple[int, int]] = {start: (1, 0)}
    for u, v in arcs:
        left[u] -= 1
        left[v] -= 1
        su, sv = width * u, width * v
        step = (1 << su) - (1 << sv)
        lo_u, hi_u = off - left[u], off + left[u]
        lo_v, hi_v = off - left[v], off + left[v]
        nxt: dict[int, tuple[int, int]] = {}
        for key, (e, o) in states.items():
            fu = (key >> su) & field
            fv = (key >> sv) & field
            # leave the arc out: the counts keep their parity
            if lo_u <= fu <= hi_u and lo_v <= fv <= hi_v:
                pe, po = nxt.get(key, (0, 0))
                nxt[key] = (pe + e, po + o)
            # take it: one more arc swaps even and odd
            if lo_u <= fu + 1 <= hi_u and lo_v <= fv - 1 <= hi_v:
                key += step
                pe, po = nxt.get(key, (0, 0))
                nxt[key] = (pe + o, po + e)
        states = nxt
    # every vertex is retired now, so only the balanced state `start` is left
    return states.get(start, (0, 0))


def ee_eo_poly(d: Orientation, max_arcs: int = EE_EO_MAX_ARCS) -> int:
    """EE - EO computed independently: it is, up to the sign of the number of
    descending arcs, the coefficient of prod x_v^outdeg(v) in
    prod over edges u<v of (x_u - x_v)."""
    if len(d.arcs) > max_arcs:
        raise BudgetExceeded("ee_eo_poly limited to %d arcs" % max_arcs)
    target = d.out_degrees()
    sign = (-1) ** sum(1 for u, v in d.arcs if u > v)
    poly: dict[tuple[int, ...], int] = {tuple([0] * d.base.n): 1}
    for u, v in sorted((min(a, b), max(a, b)) for a, b in d.arcs):
        nxt: dict[tuple[int, ...], int] = {}
        for expo, coef in poly.items():
            for w, s in ((u, coef), (v, -coef)):
                if expo[w] + 1 > target[w]:
                    continue
                ne = list(expo)
                ne[w] += 1
                ne = tuple(ne)
                nxt[ne] = nxt.get(ne, 0) + s
        poly = {e: c for e, c in nxt.items() if c}
    return sign * poly.get(target, 0)


@dataclass(frozen=True)
class ATCertificate:
    orientation: Orientation
    ee: int
    eo: int


def is_f_AT(g: Graph, f: FVector, max_edges: int = AT_MAX_EDGES) -> Optional[ATCertificate]:
    """Search for an orientation with d+(v) <= f(v)-1 and EE != EO.  Edges are
    branched in lexicographic order, so the returned certificate is the first
    such orientation in that order; None means a completed exhaustive search."""
    f = _check_f(g, f)
    if g.m > max_edges:
        raise BudgetExceeded("is_f_AT limited to %d edges" % max_edges)
    caps = [f[v] - 1 for v in range(g.n)]
    if any(c < 0 for c in caps):
        return None
    edges = list(g.edges())
    m = len(edges)
    if sum(caps) < m:
        return None
    out = [0] * g.n
    arcs: list[tuple[int, int]] = []
    # EE - EO is +-the coefficient of prod x_v^out(v) in prod_{u<v} (x_u - x_v)
    # (Alon-Tarsi), so it depends only on the out-degree vector.  The subtree
    # below edge i is then decided by (i, out), and i = sum(out): a state that
    # failed once fails again, and a failed leaf vector never reaches ee_eo
    # twice.  The key packs out as the digits of one base-(max cap + 1) int.
    base = max(caps, default=0) + 1
    weight = [base**v for v in range(g.n)]
    failed: set[int] = set()

    def dfs(i: int, key: int) -> Optional[ATCertificate]:
        if key in failed:
            return None
        if i == m:
            o = Orientation(g, tuple(arcs))
            ee, eo = ee_eo(o, max_arcs=m)
            if ee != eo:
                return ATCertificate(o, ee, eo)
        else:
            u, v = edges[i]
            for a, b in ((u, v), (v, u)):
                if out[a] < caps[a]:
                    out[a] += 1
                    arcs.append((a, b))
                    res = dfs(i + 1, key + weight[a])
                    arcs.pop()
                    out[a] -= 1
                    if res is not None:
                        return res
        failed.add(key)
        return None

    return dfs(0, 0)


def at_number(g: Graph, max_edges: int = AT_MAX_EDGES) -> int:
    """Least k such that the constant vector f = k is f-AT.  Bounded above by
    max degree + 1, where an acyclic orientation always certifies."""
    if g.m > max_edges:
        raise BudgetExceeded("at_number limited to %d edges" % max_edges)
    hi = (max(g.degrees()) if g.n else 0) + 1
    for k in range(1, hi + 1):
        if is_f_AT(g, [k] * g.n, max_edges) is not None:
            return k
    raise AssertionError("no orientation certified below max degree + 2")


# ---------------------------------------------------------------------------
# criticality

# The paper's one definition: g is k-X-critical when g is not (k-1)-X but
# every proper subgraph is.  Each parameter X here (chromatic, choice, paint
# and AT number) is monotone under subgraphs, so proper subgraphs reduce to
# edge deletions, plus isolated vertices, which no deletion covers.  Adding a
# vertex u raises each by at most one; in turn: give u a new colour; colour u
# first and delete its colour from the other lists; Painter paints u alone
# the first time it is offered, and the others offered then lose one token;
# orient u's edges into u, so no Eulerian subdigraph uses them.  So X(g) <=
# X(g - u) + 1 <= X(g - e) + 1 for an edge e = uv, and "not (k-1)-X while
# every g - e is" says the same as "X(g) = k while every X(g - e) < k".


def _k_critical(g: Graph, k: int, colorable) -> bool:
    """Not colorable(g, k - 1), while colorable(h, k - 1) for every proper
    subgraph h, so no vertex is isolated; colorable(h, j) means h is j-X."""
    if g.n == 0 or k < 1 or colorable(g, k - 1) or (g.n > 1 and 0 in g.degrees()):
        return False
    return all(colorable(g.remove_edge(u, v), k - 1) for u, v in g.edges())


def is_k_critical(g: Graph, k: int, max_vertices: int = CHI_MAX_VERTICES) -> bool:
    return _k_critical(g, k, lambda h, j: chromatic_number(h, max_vertices) <= j)


def is_k_list_critical(g: Graph, k: int, max_vertices: int = CHOOSE_MAX_VERTICES) -> bool:
    return _k_critical(g, k, lambda h, j: is_f_choosable(h, [j] * h.n, max_vertices)[0])


def is_k_paint_critical(g: Graph, k: int, max_vertices: int = PAINT_MAX_VERTICES) -> bool:
    """Critical for the paint game, that is online list critical."""
    return _k_critical(g, k, lambda h, j: is_f_paintable(h, [j] * h.n, max_vertices))


def is_k_AT_critical(g: Graph, k: int, max_edges: int = AT_MAX_EDGES) -> bool:
    return _k_critical(g, k, lambda h, j: is_f_AT(h, [j] * h.n, max_edges) is not None)
