"""Small simple undirected graphs with dense 0-based labels.

Adjacency is kept as one integer bitmask per vertex, which keeps the exact
set operations cheap (intersection with a candidate set is a single `&`).
graph6 I/O implements the short form (n <= 62) and the long form
(63 <= n <= 258047) of McKay's formats.txt; larger graphs are rejected on
input and output.
"""

from __future__ import annotations

import base64
import re
from itertools import combinations
from typing import Iterable, Iterator, Optional

from .errors import GraphFormatError


def _mask_bits(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _vertex_mask(vertices: Iterable[int]) -> int:
    """The mask whose set bits are vertices."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _reach(adj, start_mask: int, within_mask: int) -> int:
    """Vertices reachable from start_mask by paths inside within_mask."""
    seen = frontier = start_mask
    while frontier:
        nxt = 0
        for v in _mask_bits(frontier):
            nxt |= adj[v]
        frontier = nxt & within_mask & ~seen
        seen |= frontier
    return seen


def _component_masks(adj, mask: int) -> list[int]:
    """Connected components of the subgraph induced on mask, lowest vertex first."""
    out = []
    while mask:
        comp = _reach(adj, mask & -mask, mask)
        out.append(comp)
        mask &= ~comp
    return out


def _independent_subsets(adj, mask: int) -> list[int]:
    """Independent subsets of mask: [0], then per vertex, ascending, the sets it can join."""
    subs = [0]
    for v in _mask_bits(mask):
        bit = 1 << v
        avoid = adj[v]
        subs += [s | bit for s in subs if s & avoid == 0]
    return subs


class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "_adj", "_m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not adj[u] >> v & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                m += 1
        self.n = n
        self._adj = tuple(adj)
        self._m = m

    @property
    def m(self) -> int:
        """Edge count."""
        return self._m

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(a.bit_count() for a in self._adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_mask_bits(self._adj[v]))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for u in _mask_bits(self._adj[v] >> (v + 1) << (v + 1)):
                yield (v, u)

    def remove_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise ValueError(f"no edge ({u},{v})")
        return Graph(self.n, (e for e in self.edges() if e != (min(u, v), max(u, v))))

    def is_connected(self) -> bool:
        full = (1 << self.n) - 1
        return self.n == 0 or _reach(self._adj, 1, full) == full

    def components(self) -> list[frozenset]:
        return [
            frozenset(_mask_bits(c))
            for c in _component_masks(self._adj, (1 << self.n) - 1)
        ]

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # small constructors used throughout tests and fixtures
    @staticmethod
    def complete(n: int) -> "Graph":
        return Graph(n, combinations(range(n), 2))

    @staticmethod
    def cycle(n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs >= 3 vertices")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])

    @staticmethod
    def path(n: int) -> "Graph":
        return Graph(n, [(i, i + 1) for i in range(n - 1)])

    @staticmethod
    def wheel(rim: int) -> "Graph":
        """Hub vertex `rim` joined to a cycle on 0..rim-1."""
        edges = [(i, (i + 1) % rim) for i in range(rim)]
        edges += [(i, rim) for i in range(rim)]
        return Graph(rim + 1, edges)


# ---------------------------------------------------------------------------
# graph6: short form n <= 62, long form '~' + n in three 6-bit bytes

_G6_SHORT_MAX_N = 62
_G6_MAX_N = 258047  # past it formats.txt starts '~~', a form not implemented here
_G6_CHARS = bytes(range(63, 127))
_BASE64_CHARS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6_FROM_BASE64 = bytes.maketrans(_BASE64_CHARS, _G6_CHARS)
_G6_TO_BASE64 = bytes.maketrans(_G6_CHARS, _BASE64_CHARS)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 record, short or long form.

    Raises GraphFormatError naming the byte offset of the first problem.  The
    body's length is checked against the header's n before anything is built.
    """
    record = text.rstrip("\n")
    if not record:
        raise GraphFormatError("empty graph6 record")
    try:
        data = record.encode("ascii")
    except UnicodeEncodeError as e:
        raise GraphFormatError(f"non-ASCII character at byte offset {e.start}") from None
    first = data[0]
    if first == 126:
        if data[1:2] == b"~":
            raise GraphFormatError(
                f"graph6 with more than {_G6_MAX_N} vertices (leading '~~') "
                "unsupported at byte offset 0"
            )
        if len(data) < 4:
            raise GraphFormatError(
                f"truncated long-form graph6 header (ends at byte offset {len(data)})"
            )
        n = 0
        for i in (1, 2, 3):
            if not (63 <= data[i] <= 126):
                raise GraphFormatError(f"malformed graph6 header byte {data[i]} at byte offset {i}")
            n = n << 6 | data[i] - 63
        if n <= _G6_SHORT_MAX_N:
            raise GraphFormatError(
                f"long-form graph6 header names n = {n}, which takes the short form, "
                "at byte offset 0"
            )
        start = 4
    elif 63 <= first <= 63 + _G6_SHORT_MAX_N:
        n = first - 63
        start = 1
    else:
        raise GraphFormatError(f"malformed graph6 header byte {first} at byte offset 0")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[start:]
    if len(body) < nbytes:
        raise GraphFormatError(
            f"truncated graph6 record: need {nbytes} body bytes, got {len(body)} "
            f"(ends at byte offset {len(data)})"
        )
    if len(body) > nbytes:
        raise GraphFormatError(f"trailing garbage at byte offset {start + nbytes}")
    bad = body.translate(None, _G6_CHARS)
    if bad:
        i = body.index(bad[0])
        raise GraphFormatError(f"invalid graph6 body byte {bad[0]} at byte offset {start + i}")
    # base64 under the graph6 alphabet, as write_graph6 writes it: decoded to
    # one int after filling to whole quanta, whose low `spare` bits are the
    # fill and the padding (under six bits, so in the last body character)
    fill = -nbytes % 4
    word = int.from_bytes(base64.b64decode(body.translate(_G6_TO_BASE64) + b"A" * fill), "big")
    spare = 6 * (nbytes + fill) - nbits
    if word & ((1 << spare) - 1):
        raise GraphFormatError(f"nonzero padding bit at byte offset {start + nbytes - 1}")
    bits = format(word >> spare, "0%db" % nbits)
    # column v holds the bits of u = 0 .. v-1 and starts at bit `base`
    edges = []
    v, base = 1, 0
    j = bits.find("1")
    while j >= 0:
        while j >= base + v:
            base += v
            v += 1
        edges.append((j - base, v))
        j = bits.find("1", j + 1)
    return Graph(n, edges)


def _check_graph6_order(n: int) -> None:
    """Reject a vertex count graph6 cannot write, before a graph that large
    is built."""
    if n > _G6_MAX_N:
        raise GraphFormatError(f"graph6 supports n <= {_G6_MAX_N}, got n = {n}")


def write_graph6(g: Graph) -> str:
    """Encode to graph6: the short form up to 62 vertices, then the long form;
    rejects n > 258047."""
    _check_graph6_order(g.n)
    if g.n <= _G6_SHORT_MAX_N:
        out = [chr(63 + g.n)]
    else:
        out = ["~"] + [chr(63 + (g.n >> shift & 63)) for shift in (12, 6, 0)]
    # column v holds the bits of u = 0 .. v-1, read off adj[v] lowest first
    bits = "".join(format(g._adj[v] & ((1 << v) - 1), "0%db" % v)[::-1] for v in range(1, g.n))
    # the body is the bits in big-endian groups of six, each written as
    # chr(63 + group): base64 under another alphabet, so pad to whole
    # 24-bit base64 quanta and keep the characters the bits need
    chars = -(-len(bits) // 6)
    bits += "0" * (-len(bits) % 24)
    data = int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""
    out.append(base64.b64encode(data).translate(_G6_FROM_BASE64)[:chars].decode("ascii"))
    return "".join(out)


# ---------------------------------------------------------------------------
# edge-list text format: first line "n m", then m lines "u v"

_INT_TOKEN = re.compile(r"-?[0-9]+")


def _ints(text: str) -> Optional[list[int]]:
    """The integers of ASCII text split at whitespace, or None unless every
    token is -?[0-9]+: int() also reads non-ASCII digits and underscores, and
    split() non-ASCII spaces."""
    tokens = text.split()
    if not text.isascii() or not all(_INT_TOKEN.fullmatch(t) for t in tokens):
        return None
    try:
        return [int(t) for t in tokens]
    except ValueError:  # longer than int() accepts
        return None


def parse_edge_list(text: str) -> Graph:
    lines = text.splitlines()
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(lines)]
    rows = [(no, ln) for no, ln in rows if ln]
    if not rows:
        raise GraphFormatError("line 1: expected header 'n m'")
    no, header = rows[0]
    counts = _ints(header)
    if counts is None or len(counts) != 2:
        raise GraphFormatError(f"line {no}: expected header 'n m', got {header!r}")
    n, m = counts
    if n < 0 or m < 0:
        raise GraphFormatError(f"line {no}: negative count in header")
    body = rows[1:]
    if len(body) != m:
        raise GraphFormatError(
            f"line {body[m][0] if len(body) > m else no}: header promises {m} edges, "
            f"found {len(body)}"
        )
    edges = []
    seen = set()
    for no, ln in body:
        pair = _ints(ln)
        if pair is None or len(pair) != 2:
            raise GraphFormatError(f"line {no}: expected edge 'u v', got {ln!r}")
        u, v = pair
        if u == v:
            raise GraphFormatError(f"line {no}: loop {u} {v}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {no}: vertex out of range 0..{n-1}: {ln!r}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphFormatError(f"line {no}: duplicate edge {u} {v}")
        seen.add(key)
        edges.append(key)
    return Graph(n, edges)


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# basic operations


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph plus the old->new label map (new labels follow sorted order)."""
    verts = sorted(set(vertices))
    for v in verts:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    relabel = {v: i for i, v in enumerate(verts)}
    edges = [
        (relabel[u], relabel[v])
        for u, v in combinations(verts, 2)
        if g.has_edge(u, v)
    ]
    return Graph(len(verts), edges), relabel


def _expand(adj, r: int, p: int, x: int, t: int = 0) -> Iterator[int]:
    """Bron-Kerbosch with pivoting: the maximal cliques, as masks, that
    contain r, lie inside r | p and meet no vertex of x.  A branch whose
    r | p has fewer than t vertices is cut, which drops only cliques smaller
    than t and leaves the others in the same order.  Open branches wait on
    a stack, each with the candidates it has left to try, so a clique of
    any size nests no frames."""
    stack = []
    while True:
        if (r | p).bit_count() >= t:
            if p == 0 and x == 0:
                yield r
            else:
                # pivot: vertex of p|x maximizing |p & adj|
                pivot = max(_mask_bits(p | x), key=lambda u: (p & adj[u]).bit_count())
                todo = p & ~adj[pivot]
                if todo:
                    stack.append((r, p, x, todo))
        if not stack:
            return
        # the next branch: the lowest candidate left in the deepest open branch
        r, p, x, todo = stack.pop()
        bit = todo & -todo
        if todo != bit:
            stack.append((r, p & ~bit, x | bit, todo ^ bit))
        v = bit.bit_length() - 1
        r, p, x = r | bit, p & adj[v], x & adj[v]


def _clique_vertices(adj, mask: int, t: int) -> int:
    """The vertices of mask lying in at least one K_t of the subgraph induced on mask."""
    out = 0
    for clq in _expand(adj, 0, mask, 0, t):
        if clq.bit_count() >= t:
            out |= clq
    return out


def contains_clique(g: Graph, t: int) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Does g contain K_t? Returns (answer, witness vertex tuple or None)."""
    for clq in _expand(g._adj, 0, (1 << g.n) - 1, 0, t):
        if clq.bit_count() >= t:
            return True, tuple(_mask_bits(clq))[:max(t, 0)]
    return False, None


def clique_vertices(g: Graph, t: int) -> frozenset:
    """Vertices lying in at least one K_t of g."""
    return frozenset(_mask_bits(_clique_vertices(g._adj, (1 << g.n) - 1, t)))


# ---------------------------------------------------------------------------
# isomorphism and edge orbits (exact backtracking; desk scale)


def _refine_colors(nbrs, colors: list[int]) -> tuple[list[int], tuple]:
    """Colour refinement from colors, on the graph whose vertex v has the
    neighbours nbrs[v]: each round gives every vertex the rank of its colour
    and its neighbours' sorted colours, until a round splits no class.
    Every step is canonical, so a map that keeps adjacency and the starting
    colours keeps the final ones, and then the two graphs also end with the
    same invariant, the second item: the last round's signatures and the
    class sizes."""
    classes = len(set(colors))
    ranked: list = []
    for _ in range(len(nbrs)):
        sig = [(c, tuple(sorted([colors[u] for u in nb]))) for c, nb in zip(colors, nbrs)]
        ranked = sorted(set(sig))
        rank = {s: i for i, s in enumerate(ranked)}
        colors = [rank[s] for s in sig]
        if len(ranked) == classes:
            break
        classes = len(ranked)
    return colors, (tuple(ranked), tuple(sorted(colors)))


def _search_order(adj, colors: list[int], first: tuple[int, ...] = ()) -> list[int]:
    """The order the mapping search places vertices in: first, then at each
    step the vertex with the most neighbours placed, then of the rarest
    colour, then the least colour and label."""
    freq: dict[int, int] = {}
    for c in colors:
        freq[c] = freq.get(c, 0) + 1
    order = list(first)
    placed = _vertex_mask(first)
    rest = [v for v in range(len(adj)) if not placed >> v & 1]
    while rest:
        v = min(rest, key=lambda u: (-(adj[u] & placed).bit_count(), freq[colors[u]], colors[u], u))
        rest.remove(v)
        order.append(v)
        placed |= 1 << v
    return order


def _find_map(adj_a, adj_b, order: list[int], allowed: list[int]) -> Optional[list[int]]:
    """A bijection phi from a's vertices onto b's taking order[i] into the
    vertex mask allowed[i], with u, v adjacent in a exactly when phi[u],
    phi[v] are adjacent in b; or None.  Vertices are placed in order, each
    on a vertex of b adjacent to exactly the images of its placed
    neighbours; every open position keeps its untried vertices on a stack,
    so the search nests no frame per vertex."""
    n = len(order)
    if n == 0:
        return []
    back = []  # per position, the neighbours placed before it
    placed = 0
    for v in order:
        back.append(tuple(_mask_bits(adj_a[v] & placed)))
        placed |= 1 << v
    phi = [0] * n
    stack: list[int] = []
    i = used = want = 0
    cands = allowed[0]
    while True:
        if cands:
            bit = cands & -cands
            cands ^= bit
            w = bit.bit_length() - 1
            if adj_b[w] & used != want:
                continue
            phi[order[i]] = w
            stack.append(cands)
            used |= bit
            i += 1
            if i == n:
                return phi
            cands = allowed[i] & ~used
        elif stack:
            # position i has nothing left: take back position i - 1's vertex
            cands = stack.pop()
            i -= 1
            used ^= 1 << phi[order[i]]
        else:
            return None
        want = 0  # the images of position i's placed neighbours
        for u in back[i]:
            want |= 1 << phi[u]


def _color_masks(colors: list[int]) -> dict[int, int]:
    """Each colour's vertices, as a mask."""
    masks: dict[int, int] = {}
    for v, c in enumerate(colors):
        masks[c] = masks.get(c, 0) | 1 << v
    return masks


def are_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.m != b.m or sorted(a.degrees()) != sorted(b.degrees()):
        return False
    ca, inv_a = _refine_colors([a.neighbors(v) for v in range(a.n)], list(a.degrees()))
    cb, inv_b = _refine_colors([b.neighbors(v) for v in range(b.n)], list(b.degrees()))
    if inv_a != inv_b:
        return False
    order = _search_order(a._adj, ca)
    masks = _color_masks(cb)
    return _find_map(a._adj, b._adj, order, [masks[ca[v]] for v in order]) is not None


def _root(parent: list[int], x: int) -> int:
    """x's class in the union-find forest parent, halving the path walked."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _edge_classes(g: Graph) -> Iterator[int]:
    """For each edge of g, in g.edges() order, the index in that order of
    the first edge of its orbit under the automorphisms of g, which may map
    an edge either way round.  Nothing is computed for the later edges until
    the second is asked for.  An edge is compared only with the first edges
    before it whose ends have the same refined colours: through the orbits
    of the automorphisms found so far, then by the colour refinement with
    each edge's ends picked out, which must end the same and gives the
    search its classes, and last by the mapping search pinned at the ends."""
    adj = g._adj
    edges = list(g.edges())
    if not edges:
        return
    yield 0
    nbrs = [g.neighbors(v) for v in range(g.n)]
    colors, _ = _refine_colors(nbrs, [len(nb) for nb in nbrs])
    index = {e: i for i, e in enumerate(edges)}
    parent = list(range(len(edges)))  # the orbits of the automorphisms found
    firsts: dict[tuple[int, int], list[int]] = {}  # the first edges, by their ends' colours
    pinned: dict[int, tuple] = {}  # an edge's refinement with its ends picked out
    orders: dict[int, list[int]] = {}  # a first edge's search order
    for j, (c, d) in enumerate(edges):
        same = firsts.setdefault((min(colors[c], colors[d]), max(colors[c], colors[d])), [])
        root = _root(parent, j)
        rep = next((r for r in same if _root(parent, r) == root), None)
        if rep is None and same:
            cj, inv = pinned[j] = _pin(nbrs, colors, c, d)
            masks = _color_masks(cj)
            for r in same:
                if r not in pinned:
                    pinned[r] = _pin(nbrs, colors, *edges[r])
                cr, inv_r = pinned[r]
                if inv_r != inv:
                    continue
                order = orders.get(r)
                if order is None:
                    order = orders[r] = _search_order(adj, cr, edges[r])
                rest = [masks[cr[v]] for v in order[2:]]
                phi = (_find_map(adj, adj, order, [1 << c, 1 << d] + rest)
                       or _find_map(adj, adj, order, [1 << d, 1 << c] + rest))
                if phi is not None:
                    for x, (u, v) in enumerate(edges):
                        image = (phi[u], phi[v]) if phi[u] < phi[v] else (phi[v], phi[u])
                        parent[_root(parent, x)] = _root(parent, index[image])
                    rep = r
                    break
        if rep is None:
            same.append(j)
            rep = j
        if j:  # edge 0 went out before the colours were computed
            yield rep


def _pin(nbrs, colors: list[int], u: int, v: int) -> tuple[list[int], tuple]:
    """The refinement of colors once u and v get colours of their own."""
    start = list(colors)
    start[u] += len(nbrs)
    start[v] += len(nbrs)
    return _refine_colors(nbrs, start)
