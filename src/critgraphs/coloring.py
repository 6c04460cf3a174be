"""Exact deciders for coloring, list coloring, the paint game, and Alon-Tarsi orientations.

Everything here is desk-scale and exhaustive.  Each decider takes an explicit
budget and raises BudgetExceeded instead of silently truncating the search.
"""

from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

from .errors import BudgetExceeded, PreconditionError
from .graph import Graph, _component_masks, _edge_classes, _independent_subsets, _mask_bits
from .structure import _blocks

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


def _dsatur(adj, deg: tuple[int, ...], k: int) -> bool:
    """DSATUR backtracking with one vertex mask per colour in use: whether
    the graph has a proper colouring with at most k classes.  The coloured
    vertices are kept on a list, not on the call stack."""
    uncolored = (1 << len(adj)) - 1
    classes: list[int] = []
    placed: list[tuple[int, int]] = []  # per coloured vertex, it and its class
    while uncolored:
        # max saturation, then max degree; the first such vertex
        v, best_key = -1, (-1, -1)
        for u in _mask_bits(uncolored):
            key = (sum(1 for c in classes if c & adj[u]), deg[u])
            if key > best_key:
                v, best_key = u, key
        i = 0
        while True:
            while i < len(classes) and classes[i] & adj[v]:
                i += 1
            # trying more than one brand-new color is a symmetric repeat
            if i == len(classes) < k:
                classes.append(0)
            if i < len(classes):
                classes[i] |= 1 << v
                break
            if not placed:
                return False
            # v fits no class: take back the last vertex coloured, and try its next class
            v, i = placed.pop()
            classes[i] ^= 1 << v
            if not classes[i]:
                classes.pop()
            uncolored |= 1 << v
            i += 1
        placed.append((v, i))
        uncolored ^= 1 << v
    return True


def chromatic_number(g: Graph, max_vertices: int = CHI_MAX_VERTICES) -> int:
    if g.n > max_vertices:
        raise BudgetExceeded("chromatic_number limited to %d vertices" % max_vertices)
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
        if _dsatur(adj, g.degrees(), k):
            return k
    return len(classes)


# ---------------------------------------------------------------------------
# choosability and the paint game

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
# closed under subsets, so it keeps only the maximal ones, and only the
# maximal independent subsets of a class can give one.  One is_f_choosable
# call computes each active set's ordered candidate classes and each class's
# maximal independent subsets once, for all the masks it searches.
#
# The paint game peels the same way (Schauz, EJC 2009; Zhu, EJC 2009), and
# skips two kinds of moves that cannot change its verdict:
# (a) Lister offers only sets S in which every vertex has a neighbour in S.
#     If v has no neighbour in S, each answer I' to S - v extends to the
#     answer I' + v to S, reaching the S - v position with v deleted, and
#     deleting a vertex never hurts Painter.  If Lister wins with a
#     singleton {w}, Painter loses on mask - w, and Lister's winning move
#     there wins on mask too.
# (b) Painter's answers keep every vertex of S that has one token left: one
#     left out would have none, and lose at once.
# One call computes Lister's moves once per mask and Painter's answers once
# per S.  On K5,5 with f = 3 (2-CPU host, Python 3.11.7, run back to back)
# the paint game took 9.5 s before these and 1.9 s with them, and
# choosability 55 s before its caches and 8.1 s with them.


def _peel(adj, umask: int, r: Sequence[int]) -> int:
    """Repeatedly drop a vertex of umask whose demand r[v] beats its degree
    among the vertices left, and return those left.  A dropped vertex can
    always be colored last, from its list or by Painter."""
    changed = True
    while umask and changed:
        changed = False
        rest = umask
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if r[v] > (adj[v] & umask).bit_count():
                umask ^= low
                changed = True
    return umask


def _connected_supersets(adj, pivot: int, allowed: int) -> list[int]:
    """All connected vertex sets containing pivot inside the allowed mask.
    Each stack entry grows cur by frontier vertices, skipping the forbidden
    ones an earlier sibling already grew by, so each set comes once."""
    out = []
    stack = [(1 << pivot, adj[pivot], 0)]
    while stack:
        cur, frontier, forbidden = stack.pop()
        out.append(cur)
        ext = frontier & allowed & ~cur & ~forbidden
        seen = 0
        while ext:
            bit = ext & -ext
            ext ^= bit
            stack.append((cur | bit, frontier | adj[bit.bit_length() - 1], forbidden | seen))
            seen |= bit
    return out


def _maximal_independent(adj, mask: int) -> list[int]:
    """The independent subsets of mask that no vertex of mask can join."""
    subs = [(0, 0)]  # an independent set and its vertices' neighbours
    rest = mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        avoid = adj[bit.bit_length() - 1]
        subs += [(s | bit, near | avoid) for s, near in subs if not s & avoid]
    return [s for s, near in subs if not mask & ~(s | near)]


def _class_dfs(adj, mask, r, active, reached, classes, prev_pivot, prev_c, cands, maximal):
    """One node of the class search: classes so far, the maximal sets
    reached that they can color, the demands r left and the active vertices
    with demand left.  A class repeats its pivot's previous class or comes
    after it, so each multiset is tried once.  cands maps an active set to
    the connected classes of size >= 2 through its lowest vertex, largest
    first; maximal maps a class to its maximal independent subsets."""
    # also the end test: with no demand left nothing peels, so this fires
    # exactly when the classes color all of mask
    for m in reached:
        if not _peel(adj, mask & ~m, r):
            return None
    if not active:
        return list(classes)
    pivot = (active & -active).bit_length() - 1
    order = cands.get(active)
    if order is None:
        order = [c for c in _connected_supersets(adj, pivot, active) if c & (c - 1)]
        order.sort()
        order.sort(key=int.bit_count, reverse=True)
        cands[active] = order
    for c in order:
        if prev_pivot == pivot and c < prev_c:
            continue
        left = active
        rest = c
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            r[v] -= 1
            if not r[v]:
                left ^= low
        subsets = maximal.get(c)
        if subsets is None:
            subsets = maximal[c] = _maximal_independent(adj, c)
        grown: list[int] = []
        for m in sorted({old | s for old in reached for s in subsets},
                        key=int.bit_count, reverse=True):
            for o in grown:
                if not m & ~o:
                    break
            else:
                grown.append(m)
        classes.append(c)
        res = _class_dfs(adj, mask, r, left, grown, classes, pivot, c, cands, maximal)
        if res is not None:
            return res
        classes.pop()
        rest = c
        while rest:
            low = rest & -rest
            rest ^= low
            r[low.bit_length() - 1] += 1
    return None


def _pad(witness: dict, f: tuple[int, ...], mask: int) -> dict:
    """witness with each vertex v of mask given f[v] colors used nowhere else."""
    top = max((c for lst in witness.values() for c in lst), default=-1) + 1
    out = dict(witness)
    for v in _mask_bits(mask):
        out[v] = tuple(range(top, top + f[v]))
        top += f[v]
    return out


def _not_choosable(g: Graph, f: tuple[int, ...], mask: int, memo: dict, cands: dict, maximal: dict):
    if mask not in memo:
        memo[mask] = _bad_assignment(g, f, mask, memo, cands, maximal)
    return memo[mask]


def _bad_assignment(g: Graph, f: tuple[int, ...], mask: int, memo: dict, cands: dict, maximal: dict):
    """A list assignment of sizes f on mask with no proper coloring, or None."""
    for v in _mask_bits(mask):
        if f[v] == 0:
            return _pad({v: ()}, f, mask & ~(1 << v))

    comps = _component_masks(g._adj, mask)
    if len(comps) > 1:
        for comp in comps:
            sub = _not_choosable(g, f, comp, memo, cands, maximal)
            if sub is not None:
                return _pad(sub, f, mask & ~comp)
        return None

    if not _peel(g._adj, mask, f):
        return None

    # a multiset of connected color classes of size >= 2, with each vertex v
    # in exactly f(v) of them, admitting no proper coloring
    r = [f[v] if mask >> v & 1 else 0 for v in range(g.n)]
    classes = _class_dfs(g._adj, mask, r, mask, [0], [], -1, 0, cands, maximal)
    if classes is not None:
        return {v: tuple(i for i, c in enumerate(classes) if c >> v & 1)
                for v in _mask_bits(mask)}

    for v in _mask_bits(mask):
        sub = _not_choosable(g, f, mask & ~(1 << v), memo, cands, maximal)
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
    witness = _not_choosable(g, f, (1 << g.n) - 1, {}, {}, {})
    if witness is None:
        return True, None
    return False, witness


def _lister_moves(adj, mask: int) -> list[int]:
    """The nonempty submasks of mask in which every vertex has a neighbour,
    largest first, then ascending."""
    sets = []
    s = mask
    while s:
        rest = s
        while rest:
            low = rest & -rest
            if not adj[low.bit_length() - 1] & s:
                break
            rest ^= low
        else:
            sets.append(s)
        s = (s - 1) & mask
    sets.reverse()
    sets.sort(key=int.bit_count, reverse=True)
    return sets


def _paints(adj, mask: int, tok: tuple[int, ...], memo: dict, moves: dict, answers: dict) -> bool:
    """Whether Painter wins with the vertices of mask live and tok[v] tokens
    at v.  memo maps a token vector to its verdict, moves a mask to
    _lister_moves, answers a set S to its independent subsets, largest
    first."""
    rest = mask
    while rest:
        low = rest & -rest
        if tok[low.bit_length() - 1] <= 0:
            return False
        rest ^= low
    mask = _peel(adj, mask, tok)
    if mask == 0:
        return True
    # the live vertices are exactly those with tokens left, so the token
    # vector alone is the state
    tok = tuple([t if mask >> v & 1 else 0 for v, t in enumerate(tok)])
    res = memo.get(tok)
    if res is not None:
        return res
    comps = _component_masks(adj, mask)
    if len(comps) > 1:
        res = True
        for c in comps:
            if not _paints(adj, c, tok, memo, moves, answers):
                res = False
                break
        memo[tok] = res
        return res
    sets = moves.get(mask)
    if sets is None:
        sets = moves[mask] = _lister_moves(adj, mask)
    last = 0  # the live vertices with one token left
    for v, t in enumerate(tok):
        if t == 1:
            last |= 1 << v
    res = True
    for s in sets:
        keep = s & last
        subsets = answers.get(s)
        if subsets is None:
            subsets = answers[s] = sorted(_independent_subsets(adj, s), key=int.bit_count, reverse=True)
        for i in subsets:
            if i & keep != keep:
                continue
            ntok = list(tok)
            rest = s & ~i
            while rest:
                low = rest & -rest
                rest ^= low
                ntok[low.bit_length() - 1] -= 1
            if _paints(adj, mask & ~i, tuple(ntok), memo, moves, answers):
                break
        else:
            res = False
            break
    memo[tok] = res
    return res


def is_f_paintable(g: Graph, f: FVector, max_vertices: int = PAINT_MAX_VERTICES) -> bool:
    """Decide the paint game: Lister picks S, Painter keeps an independent
    I subseteq S, everyone else in S burns a token.  Painter wins when the
    graph empties before any vertex runs dry."""
    f = _check_f(g, f)
    if g.n > max_vertices:
        raise BudgetExceeded("is_f_paintable limited to %d vertices" % max_vertices)
    return _paints(g._adj, (1 << g.n) - 1, f, {}, {}, {})


# ---------------------------------------------------------------------------
# orientations and Alon-Tarsi


@dataclass(frozen=True)
class Orientation:
    base: Graph
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        arcs = tuple(map(tuple, self.arcs))
        object.__setattr__(self, "arcs", arcs)
        n, adj = self.base.n, self.base._adj
        oriented = [0] * n  # per vertex, the neighbours it already has an arc with
        for u, v in arcs:
            if not (isinstance(u, int) and isinstance(v, int) and 0 <= u < n and 0 <= v < n):
                raise PreconditionError("arc %r does not join two vertices of the base" % ((u, v),))
            if not adj[u] >> v & 1:
                raise PreconditionError("arc (%d,%d) is not an edge of the base" % (u, v))
            if oriented[u] >> v & 1:
                raise PreconditionError("edge {%d,%d} oriented twice" % (u, v))
            oriented[u] |= 1 << v
            oriented[v] |= 1 << u
        if len(arcs) != self.base.m:
            raise PreconditionError("orientation covers %d of %d edges" % (len(arcs), self.base.m))

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
    prod over edges u<v of (x_u - x_v), expanded with each exponent capped at
    its out-degree."""
    if len(d.arcs) > max_arcs:
        raise BudgetExceeded("ee_eo_poly limited to %d arcs" % max_arcs)
    target = d.out_degrees()
    sign = (-1) ** sum(1 for u, v in d.arcs if u > v)
    shift = list(accumulate((t.bit_length() for t in target), initial=0))
    poly = _capped_polynomial([(min(a, b), max(a, b)) for a, b in d.arcs], target, shift)
    return sign * poly.get(sum(t << s for t, s in zip(target, shift)), 0)


def _capped_polynomial(
    edges: list[tuple[int, int]], caps: Sequence[int], shift: list[int]
) -> dict[int, int]:
    """The nonzero terms of prod over edges (u, v) of (x_u - x_v) whose
    exponent at each v stays at most caps[v].  An exponent vector is packed as
    is_f_AT packs an out-vector: vertex v owns the caps[v].bit_length() bits at
    shift[v].  Exponents only grow, so a term dropped at its first excess
    could never come back under the caps."""
    poly = {0: 1}
    for u, v in edges:
        # a term may take x_w iff its field at w is below caps[w]; the field
        # holds at most caps[w], so adding 1 << shift[w] never carries out
        mu = ((1 << caps[u].bit_length()) - 1) << shift[u]
        mv = ((1 << caps[v].bit_length()) - 1) << shift[v]
        cu, cv = caps[u] << shift[u], caps[v] << shift[v]
        wu, wv = 1 << shift[u], 1 << shift[v]
        nxt: dict[int, int] = {}
        get = nxt.get
        for key, c in poly.items():
            if key & mu < cu:
                t = key + wu
                nxt[t] = get(t, 0) + c
            if key & mv < cv:
                t = key + wv
                nxt[t] = get(t, 0) - c
        poly = {t: c for t, c in nxt.items() if c}
        if not poly:
            break
    return poly


@dataclass(frozen=True)
class ATCertificate:
    orientation: Orientation
    ee: int
    eo: int


def _certificate(g: Graph, arcs: list[tuple[int, int]]) -> ATCertificate:
    o = Orientation(g, tuple(arcs))
    ee, eo = ee_eo(o, max_arcs=len(arcs))
    return ATCertificate(o, ee, eo)


def _block_polynomials(
    g: Graph, edges: list[tuple[int, int]], caps: list[int], shift: list[int]
) -> list[tuple[list[int], dict[int, int]]]:
    """Per block, the indices of its edges in edges, ascending, and the capped
    polynomial of those edges, packed as is_f_AT packs out-vectors."""
    adj = g._adj
    blocks = [b for comp in _component_masks(adj, (1 << g.n) - 1) for b in _blocks(adj, comp)[0]]
    members: list[list[int]] = [[] for _ in blocks]
    for e, (u, v) in enumerate(edges):
        members[next(x for x, b in enumerate(blocks) if b >> u & 1 and b >> v & 1)].append(e)
    return [(idx, _capped_polynomial([edges[e] for e in idx], caps, shift)) for idx in members]


def _first_leaf(branches, caps: list[int], weight: list[int], closing: list, failed: set[int]):
    """Depth first over the edges in order, edge i oriented as branches[i][0]
    first, each out-degree within caps.  A node is keyed by its out-vector,
    weight[v] per arc out of v: a key in failed is skipped, and a node with no
    leaf below joins failed.  An arc that ends a block (closing[i] is set) must
    make the block's out-vector a term.  Returns the first leaf's arcs or None."""
    m = len(branches)
    out = [0] * len(caps)
    arcs: list[tuple[int, int]] = []
    i = key = j = 0  # the node at edge i, and its next branch to try
    while True:
        if j == 0:
            if key in failed:
                j = 2
            elif i == m:
                return arcs
        if j < 2:
            a, b = branches[i][j]
            if out[a] < caps[a] and (
                (c := closing[i]) is None
                or weight[a] + sum(weight[arcs[e][0]] for e in c[0]) in c[1]
            ):
                out[a] += 1
                arcs.append((a, b))
                key += weight[a]
                i += 1
                j = 0
            else:
                j += 1
            continue
        # every branch below this node failed
        failed.add(key)
        if i == 0:
            return None
        i -= 1
        a, _ = arcs.pop()
        out[a] -= 1
        key -= weight[a]
        # resume at the branch after the one just left
        j = 1 if a == branches[i][0][0] else 2


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
    # EE - EO is +-the coefficient of prod x_v^out(v) in prod_{u<v} (x_u - x_v)
    # (Alon-Tarsi), so it depends only on the out-degree vector.  The subtree
    # below edge i is then decided by (i, out), and i = sum(out): a state that
    # failed once fails again.  The key packs out with a caps[v].bit_length()
    # bit field per vertex, as _capped_polynomial packs its exponents.
    shift, width = [], 0
    for c in caps:
        shift.append(width)
        width += c.bit_length()
    weight = [1 << s for s in shift]
    branches = [((u, v), (v, u)) for u, v in edges]
    closing: list = [None] * m  # closing[i]: the other edges and the terms of the block edge i ends
    failed: set[int] = set()
    # The first leaf goes through ee_eo: it is often acyclic and certifies,
    # while an expansion can hold 2^m terms (a cycle with f = 3).
    arcs = _first_leaf(branches, caps, weight, closing, failed)
    if arcs is None:
        return None
    cert = _certificate(g, arcs)
    if cert.ee != cert.eo:
        return cert
    # Once it fails, each block is expanded alone.  Every directed cycle lies
    # in one block, so EE - EO is the product of the blocks' EE - EO
    # (Alon-Tarsi): an orientation certifies iff each block's out-vector is a
    # term of that block's expansion.  A block is judged as its last edge is
    # oriented, so a leaf of the second search certifies.  A one-edge block
    # has both its terms whenever the caps allow the arc, so it is never
    # judged.  The second search keeps failed, as a failed state depends on
    # (i, out) only.
    blocks = _block_polynomials(g, edges, caps, shift)
    if not all(terms for _, terms in blocks):
        return None
    for idx, terms in blocks:
        if len(idx) > 1:
            closing[idx[-1]] = (idx[:-1], terms)
    arcs = _first_leaf(branches, caps, weight, closing, failed)
    return None if arcs is None else _certificate(g, arcs)


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
# An automorphism of g that maps e onto e' makes g - e and g - e'
# isomorphic, and each X is an isomorphism invariant, so one g - e per edge
# orbit decides.  Every g - e has the n and m of any other, so each budget
# check sees the sizes it saw when every edge was decided.


def _k_critical(g: Graph, k: int, colorable) -> bool:
    """Not colorable(g, k - 1), while colorable(h, k - 1) for every proper
    subgraph h, so no vertex is isolated; colorable(h, j) means h is j-X."""
    if g.n == 0 or k < 1 or colorable(g, k - 1) or (g.n > 1 and 0 in g.degrees()):
        return False
    edges = list(g.edges())
    return all(colorable(g.remove_edge(*edges[j]), k - 1)
               for j, first in enumerate(_edge_classes(g)) if first == j)


def is_k_critical(g: Graph, k: int, max_vertices: int = CHI_MAX_VERTICES) -> bool:
    return _k_critical(g, k, lambda h, j: chromatic_number(h, max_vertices) <= j)


def is_k_list_critical(g: Graph, k: int, max_vertices: int = CHOOSE_MAX_VERTICES) -> bool:
    return _k_critical(g, k, lambda h, j: is_f_choosable(h, [j] * h.n, max_vertices)[0])


def is_k_paint_critical(g: Graph, k: int, max_vertices: int = PAINT_MAX_VERTICES) -> bool:
    """Critical for the paint game, that is online list critical."""
    return _k_critical(g, k, lambda h, j: is_f_paintable(h, [j] * h.n, max_vertices))


def is_k_AT_critical(g: Graph, k: int, max_edges: int = AT_MAX_EDGES) -> bool:
    return _k_critical(g, k, lambda h, j: is_f_AT(h, [j] * h.n, max_edges) is not None)
