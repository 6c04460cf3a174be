"""Coloring, choosability, paintability, and orientation-count engines."""

import gc
import random
from itertools import combinations, product

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_atlas, nx_to_graph
from critgraphs import (
    are_isomorphic,
    BudgetExceeded,
    Graph,
    Orientation,
    PreconditionError,
    at_number,
    chromatic_number,
    ee_eo,
    is_f_AT,
    is_f_choosable,
    is_f_paintable,
    is_gallai_tree,
    is_k_AT_critical,
    is_k_critical,
    is_k_list_critical,
    is_k_paint_critical,
)
import critgraphs.coloring as coloring
from critgraphs.coloring import PAINT_MAX_VERTICES, ee_eo_poly
from critgraphs.graph import _component_masks, _independent_subsets, _mask_bits


def chi_oracle(g):
    for c in range(1, g.n + 1):
        for assign in product(range(c), repeat=g.n):
            if all(assign[u] != assign[v] for u, v in g.edges()):
                return c
    return 0


def theta_2_2_4():
    return Graph(7, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 6), (6, 1)])


def k23():
    return Graph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])


# chromatic number

def test_chromatic_against_brute_force():
    for g in connected_atlas(6):
        assert chromatic_number(g) == chi_oracle(g)


def reference_chromatic_number(g):
    """χ by DSATUR on a colour array, with sets of neighbour colours."""
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    n = g.n

    def colorable(k):
        if k >= n:
            return True
        color = [-1] * n

        def pick():
            best, best_key = -1, (-1, -1)
            for v in range(n):
                if color[v] < 0:
                    seen = {color[u] for u in g.neighbors(v) if color[u] >= 0}
                    key = (len(seen), g.degree(v))
                    if key > best_key:
                        best, best_key = v, key
            return best

        def bt(done, used):
            if done == n:
                return True
            v = pick()
            forbidden = {color[u] for u in g.neighbors(v) if color[u] >= 0}
            for c in range(min(used + 1, k)):
                if c not in forbidden:
                    color[v] = c
                    if bt(done + 1, max(used, c + 1)):
                        return True
                    color[v] = -1
            return False

        return bt(0, 0)

    order = sorted(range(n), key=g.degree, reverse=True)
    clique, colors = [], {}
    for v in order:
        if all(g.has_edge(u, v) for u in clique):
            clique.append(v)
        taken = {colors[u] for u in g.neighbors(v) if u in colors}
        colors[v] = min(c for c in range(n + 1) if c not in taken)
    hi = max(colors.values()) + 1
    return next((k for k in range(len(clique), hi) if colorable(k)), hi)


def test_chromatic_matches_reference():
    rng = random.Random(2016)
    graphs = connected_atlas(7)
    for _ in range(200):
        n = rng.randint(8, 12)
        p = rng.choice((0.25, 0.4, 0.55, 0.7))
        graphs.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    for g in graphs:
        assert chromatic_number(g) == reference_chromatic_number(g)


def test_chromatic_fixtures():
    assert chromatic_number(Graph(1)) == 1
    assert chromatic_number(Graph.cycle(6)) == 2
    assert chromatic_number(Graph.cycle(7)) == 3
    assert chromatic_number(Graph.complete(5)) == 5
    assert chromatic_number(Graph.wheel(5)) == 4


def test_chromatic_budget():
    with pytest.raises(BudgetExceeded):
        chromatic_number(Graph(17))
    assert chromatic_number(Graph(17), max_vertices=17) == 1


# choosability

def test_choosable_fixtures():
    assert is_f_choosable(Graph.cycle(4), [2] * 4)[0]
    assert not is_f_choosable(Graph.cycle(5), [2] * 5)[0]
    assert is_f_choosable(Graph.cycle(5), [3] * 5)[0]
    assert is_f_choosable(k23(), [2] * 5)[0]
    k24 = Graph(6, [(a, b) for a in (0, 1) for b in (2, 3, 4, 5)])
    assert not is_f_choosable(k24, [2] * 6)[0]


def test_choosable_witness_is_a_real_obstruction():
    ok, bad = is_f_choosable(Graph.cycle(5), [2] * 5)
    assert not ok
    g = Graph.cycle(5)
    assert sorted(bad) == list(range(5))
    assert all(len(bad[v]) == 2 for v in bad)
    for pick in product(*(bad[v] for v in range(5))):
        assert any(pick[u] == pick[v] for u, v in g.edges())


def test_zero_entry_means_no_color():
    ok, bad = is_f_choosable(Graph(2, [(0, 1)]), [0, 2])
    assert not ok
    assert bad[0] == ()


def reference_f_choosable(g, f):
    """is_f_choosable as it was before its search kept only maximal reached
    masks: the reached sets as a frozenset, an explicit end test, the degree
    test instead of peeling, and one fresh-colour pad per vertex."""
    adj = g._adj
    f = tuple(f)

    def peel(umask, r):
        changed = True
        while umask and changed:
            changed = False
            for v in _mask_bits(umask):
                if r[v] >= (adj[v] & umask).bit_count() + 1:
                    umask &= ~(1 << v)
                    changed = True
        return umask

    def connected_supersets(pivot, allowed):
        out = []

        def grow(cur, frontier, forbidden):
            out.append(cur)
            seen = 0
            for v in _mask_bits(frontier & allowed & ~cur & ~forbidden):
                grow(cur | 1 << v, frontier | adj[v], forbidden | seen)
                seen |= 1 << v

        grow(1 << pivot, adj[pivot], 0)
        return out

    def search_classes(mask):
        r = [f[v] if mask >> v & 1 else 0 for v in range(g.n)]

        def dfs(reached, classes, prev):
            active = sum(1 << v for v in _mask_bits(mask) if r[v] > 0)
            if not active:
                return None if mask in reached else list(classes)
            if any(not peel(mask & ~m, r) for m in reached):
                return None
            pivot = (active & -active).bit_length() - 1
            cands = [c for c in connected_supersets(pivot, active) if c.bit_count() >= 2]
            for c in sorted(cands, key=lambda c: (-c.bit_count(), c)):
                if prev[0] == pivot and c < prev[1]:
                    continue
                for v in _mask_bits(c):
                    r[v] -= 1
                grown = reached.union(m | s for m in reached
                                      for s in _independent_subsets(adj, c))
                res = dfs(grown, classes + [c], (pivot, c))
                if res is not None:
                    return res
                for v in _mask_bits(c):
                    r[v] += 1
            return None

        return dfs(frozenset([0]), [], (-1, 0))

    def fresh_pad(witness, v, count):
        top = max((c for lst in witness.values() for c in lst), default=-1) + 1
        out = dict(witness)
        out[v] = tuple(range(top, top + count))
        return out

    memo = {}

    def bad(mask):
        if mask == 0:
            return None
        if mask not in memo:
            memo[mask] = find(mask)
        return memo[mask]

    def find(mask):
        for v in _mask_bits(mask):
            if f[v] == 0:
                result = {v: ()}
                for u in _mask_bits(mask & ~(1 << v)):
                    result = fresh_pad(result, u, f[u])
                return result
        comps = _component_masks(adj, mask)
        if len(comps) > 1:
            for comp in comps:
                sub = bad(comp)
                if sub is not None:
                    for u in _mask_bits(mask & ~comp):
                        sub = fresh_pad(sub, u, f[u])
                    return sub
            return None
        if all(f[v] >= (adj[v] & mask).bit_count() + 1 for v in _mask_bits(mask)):
            return None
        classes = search_classes(mask)
        if classes is not None:
            return {v: tuple(i for i, c in enumerate(classes) if c >> v & 1)
                    for v in _mask_bits(mask)}
        for v in _mask_bits(mask):
            sub = bad(mask & ~(1 << v))
            if sub is not None:
                return fresh_pad(sub, v, f[v])
        return None

    witness = bad((1 << g.n) - 1)
    return witness is None, witness


def assert_real_obstruction(g, f, witness):
    """Every list has size f(v), and no choice from the lists is proper."""
    assert sorted(witness) == list(range(g.n))
    assert all(len(witness[v]) == f[v] for v in range(g.n))
    edges = list(g.edges())
    for pick in product(*(witness[v] for v in range(g.n))):
        assert any(pick[u] == pick[v] for u, v in edges)


def choosability_corpus(graphs, seed):
    """Each graph under f = 2, 3, the degrees, max(degree, 1) and two seeded
    random vectors."""
    rng = random.Random(seed)
    for g in graphs:
        degs = list(g.degrees())
        for f in (
            [2] * g.n,
            [3] * g.n,
            degs,
            [max(d, 1) for d in degs],
            [rng.randint(0, 4) for _ in range(g.n)],
            [rng.randint(1, 3) for _ in range(g.n)],
        ):
            yield g, f


def atlas_graphs(max_n, min_n=1):
    """Every atlas graph, connected or not, with min_n <= |V| <= max_n."""
    return [nx_to_graph(h) for h in nx.graph_atlas_g()[1:]
            if min_n <= h.number_of_nodes() <= max_n]


def check_against_reference(graphs, seed):
    cases = 0
    for g, f in choosability_corpus(graphs, seed):
        got = is_f_choosable(g, f)
        assert got == reference_f_choosable(g, f), (g, f)
        if not got[0]:
            assert_real_obstruction(g, f, got[1])
        cases += 1
    return cases


def test_choosable_matches_reference_on_atlas():
    assert check_against_reference(atlas_graphs(6), 7) == 1248


def test_choosable_matches_reference_on_seven_vertices():
    graphs = atlas_graphs(7, min_n=7)
    assert check_against_reference(random.Random(7).sample(graphs, 40), 8) == 240


# paintability

def test_paintable_fixtures():
    assert is_f_paintable(Graph.cycle(4), [2] * 4)
    assert not is_f_paintable(Graph.cycle(5), [2] * 5)
    assert is_f_paintable(Graph.cycle(5), [3] * 5)
    assert not is_f_paintable(Graph.complete(4), [3] * 4)
    assert is_f_paintable(Graph.complete(4), [4] * 4)


def test_paintable_separates_from_choosable():
    """theta(2,2,4) takes lists but loses the online game at 2 tokens."""
    g = theta_2_2_4()
    assert is_f_choosable(g, [2] * 7)[0]
    assert not is_f_paintable(g, [2] * 7)
    # the short theta graph keeps both
    assert is_f_choosable(k23(), [2] * 5)[0]
    assert is_f_paintable(k23(), [2] * 5)


def test_paintable_budget():
    n = PAINT_MAX_VERTICES + 1
    with pytest.raises(BudgetExceeded):
        is_f_paintable(Graph(n), [1] * n)


def square_of_cycle(n):
    return Graph(n, [(i, (i + d) % n) for i in range(n) for d in (1, 2)])


def k_nn(n):
    return Graph(2 * n, [(a, b) for a in range(n) for b in range(n, 2 * n)])


@pytest.mark.parametrize(
    "g,tokens",
    [
        (Graph.wheel(8), 3),
        (square_of_cycle(9), 4),
        (k_nn(4), 3),
        (Graph(10, list(nx.petersen_graph().edges())), 3),
        (k_nn(5), 3),
    ],
)
def test_paint_decides_up_to_the_budget(g, tokens):
    assert g.n <= PAINT_MAX_VERTICES
    assert is_f_paintable(g, [tokens] * g.n)


def reference_f_paintable(g, f):
    """The paint game without peeling: Lister's and Painter's moves as in
    is_f_paintable, stopping early only when every live vertex has more
    tokens than live neighbours."""
    adj = g._adj
    memo = {}

    def win(mask, tok):
        if mask == 0:
            return True
        for v in _mask_bits(mask):
            if tok[v] <= 0:
                return False
        if all(tok[v] >= (adj[v] & mask).bit_count() + 1 for v in _mask_bits(mask)):
            return True
        key = (mask, tok)
        if key in memo:
            return memo[key]
        comps = _component_masks(adj, mask)
        if len(comps) > 1:
            res = all(win(c, tok) for c in comps)
            memo[key] = res
            return res
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
        memo[key] = res
        return res

    return win((1 << g.n) - 1, tuple(f))


def test_paint_matches_reference_on_atlas():
    rng = random.Random(6)
    cases = 0
    for g in connected_atlas(6):
        degs = list(g.degrees())
        for f in (
            [2] * g.n,
            [3] * g.n,
            degs,
            [max(0, d - 1) for d in degs],
            [rng.randint(0, 4) for _ in range(g.n)],
        ):
            assert is_f_paintable(g, f) == reference_f_paintable(g, f), (g, f)
            cases += 1
    assert cases == 5 * 143


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 7), st.data())
def test_paint_matches_reference_search(n, data):
    pairs = list(combinations(range(n), 2))
    g = Graph(n, [p for p in pairs if data.draw(st.booleans())])
    # tokens near the degree, so that some vertices peel and some do not
    f = [min(4, max(0, g.degree(v) + data.draw(st.integers(-2, 1)))) for v in range(n)]
    assert is_f_paintable(g, f) == reference_f_paintable(g, f)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5), st.data())
def test_paint_skips_only_dominated_moves(core, data):
    # pendant vertices give Lister sets with a vertex that has no neighbour
    # in them, and vertices at one token give Painter answers that leave one
    # dry; the reference tries every move
    pairs = list(combinations(range(core), 2))
    edges = [p for p in pairs if data.draw(st.booleans())]
    n = core + data.draw(st.integers(1, 7 - core))
    edges += [(data.draw(st.integers(0, v - 1)), v) for v in range(core, n)]
    g = Graph(n, edges)
    # a third of the vertices at one token, the rest at their degree, where
    # nothing peels
    f = [1 if data.draw(st.integers(0, 2)) == 0 else max(1, min(4, g.degree(v)))
         for v in range(n)]
    assert is_f_paintable(g, f) == reference_f_paintable(g, f)


# orientations and the two subdigraph counts

def all_orientations(g):
    base = sorted(g.edges())
    for bits in range(1 << len(base)):
        yield Orientation(
            g,
            tuple(
                (v, u) if bits >> i & 1 else (u, v)
                for i, (u, v) in enumerate(base)
            ),
        )


def test_orientation_validation():
    g = Graph.cycle(4)
    with pytest.raises(PreconditionError):
        Orientation(g, [(0, 2)])
    with pytest.raises(PreconditionError):
        Orientation(g, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(PreconditionError):
        Orientation(g, [(0, 1)])


@pytest.mark.parametrize("arc", [(-1, 1), (1, -1), (1, 2.5), (0, 3)])
def test_orientation_refuses_arcs_naming_no_vertex(arc):
    with pytest.raises(PreconditionError, match="does not join two vertices"):
        Orientation(Graph.path(3), (arc, (0, 1)))


def test_counts_agree_across_routes_exhaustively():
    """Direct subdigraph enumeration vs the polynomial coefficient."""
    seen = 0
    for g in connected_atlas(5):
        if g.m > 6:
            continue
        for d in all_orientations(g):
            ee, eo = ee_eo(d)
            assert ee >= 1  # the empty subdigraph is always there
            assert ee - eo == ee_eo_poly(d)
            dag = nx.is_directed_acyclic_graph(nx.DiGraph(list(d.arcs)))
            if d.arcs:
                assert (eo == 0 and ee == 1) == dag
            seen += 1
    assert seen > 600


def test_counts_on_bigger_random_orientations():
    import random

    rng = random.Random(11)
    pool = [g for g in connected_atlas(6) if 7 <= g.m <= 9]
    for g in rng.sample(pool, 12):
        base = sorted(g.edges())
        arcs = tuple((v, u) if rng.random() < 0.5 else (u, v) for u, v in base)
        d = Orientation(g, arcs)
        ee, eo = ee_eo(d)
        assert ee - eo == ee_eo_poly(d)


def brute_ee_eo(d):
    """(ee, eo) by listing all 2^m arc subsets.  Arc u -> v adds b**u - b**v
    with b = 2m + 1, so a subset's sum is its out - in vector written in
    balanced base b (digits in [-m, m]), which is 0 exactly when the subset
    is eulerian; even and odd hold the sums of the even and odd subsets."""
    b = 2 * len(d.arcs) + 1
    even, odd = [0], []
    for u, v in d.arcs:
        step = b**u - b**v
        even, odd = even + [s + step for s in odd], odd + [s + step for s in even]
    return even.count(0), odd.count(0)


def test_both_counts_match_subset_enumeration_on_the_atlas():
    """ee and eo separately, not only ee - eo: every orientation of every
    atlas graph (up to 7 vertices, connected or not) with at most 8 edges."""
    seen = 0
    for h in nx.graph_atlas_g():
        if h.number_of_edges() <= 8:
            for d in all_orientations(nx_to_graph(h)):
                assert ee_eo(d) == brute_ee_eo(d)
                seen += 1
    assert seen == 49816


def test_both_counts_match_subset_enumeration_up_to_12_arcs():
    rng = random.Random(12)
    pool = [g for g in connected_atlas(7) if 9 <= g.m <= 12]
    for g in rng.sample(pool, 120):
        arcs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges()]
        rng.shuffle(arcs)
        d = Orientation(g, tuple(arcs))
        assert ee_eo(d) == brute_ee_eo(d)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.data())
def test_counts_ignore_the_arc_order(n, data):
    pairs = list(combinations(range(n), 2))
    g = Graph(n, [p for p in pairs if data.draw(st.booleans())][:14])
    arcs = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in g.edges()]
    shuffled = data.draw(st.permutations(arcs))
    assert ee_eo(Orientation(g, tuple(shuffled))) == ee_eo(Orientation(g, tuple(arcs)))


def test_count_budget():
    g = Graph.complete(8)
    d = Orientation(g, tuple(g.edges()))
    with pytest.raises(BudgetExceeded):
        ee_eo(d)
    with pytest.raises(BudgetExceeded):
        ee_eo_poly(d)


# Alon-Tarsi

def test_at_fixtures():
    assert is_f_AT(Graph.cycle(4), [2] * 4) is not None
    assert is_f_AT(Graph.cycle(5), [2] * 5) is None
    assert is_f_AT(Graph(2, [(0, 1)]), [0, 2]) is None
    assert at_number(Graph.cycle(4)) == 2
    assert at_number(Graph.cycle(5)) == 3
    assert at_number(Graph.complete(5)) == 5
    assert at_number(Graph.wheel(5)) == 4


def test_at_certificate_is_verifiable():
    f = [2, 2, 2, 2]
    cert = is_f_AT(Graph.cycle(4), f)
    d = cert.orientation
    assert sorted(frozenset(a) for a in d.arcs) == sorted(
        frozenset(e) for e in Graph.cycle(4).edges()
    )
    assert all(out <= f[v] - 1 for v, out in enumerate(d.out_degrees()))
    assert (cert.ee, cert.eo) == ee_eo(d)
    assert cert.ee != cert.eo


def test_at_monotone_in_f():
    g = k23()
    assert is_f_AT(g, [2] * 5) is None
    assert is_f_AT(g, [3, 2, 2, 2, 2]) is not None


def reference_f_AT(g, f):
    """The certificate search without a memo: lexicographic DFS, ee_eo at every
    leaf.  Returns the (arcs, ee, eo) found or None, and the set of leaf
    out-degree vectors visited."""
    caps = [x - 1 for x in f]
    edges = list(g.edges())
    out, arcs, leaves = [0] * g.n, [], set()
    if any(c < 0 for c in caps):
        return None, leaves

    def dfs(i):
        if i == len(edges):
            leaves.add(tuple(out))
            ee, eo = ee_eo(Orientation(g, tuple(arcs)), max_arcs=len(edges))
            return (tuple(arcs), ee, eo) if ee != eo else None
        u, v = edges[i]
        for a, b in ((u, v), (v, u)):
            if out[a] < caps[a]:
                out[a] += 1
                arcs.append((a, b))
                res = dfs(i + 1)
                arcs.pop()
                out[a] -= 1
                if res is not None:
                    return res
        return None

    return dfs(0), leaves


def counted_is_f_AT(g, f):
    """is_f_AT(g, f) as (arcs, ee, eo) or None, and how often it called ee_eo."""
    calls = []

    def counting(d, **kw):
        calls.append(d)
        return ee_eo(d, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coloring, "ee_eo", counting)
        cert = is_f_AT(g, f)
    found = None if cert is None else (cert.orientation.arcs, cert.ee, cert.eo)
    return found, len(calls)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6), st.data())
def test_at_matches_reference_search(n, data):
    pairs = list(combinations(range(n), 2))
    # at most 10 edges: the reference costs seconds on denser 6-vertex graphs
    g = Graph(n, [p for p in pairs if data.draw(st.booleans())][:10])
    # f in 0..4 near the degree, where the search visits several leaves
    f = [min(4, max(0, g.degree(v) + data.draw(st.integers(-1, 1)))) for v in range(n)]
    want, leaves = reference_f_AT(g, f)
    got, calls = counted_is_f_AT(g, f)
    assert got == want
    # each leaf out-vector is counted at most once
    assert calls <= len(leaves)


@pytest.mark.parametrize(
    "g,f", [(Graph(0, []), []), (Graph(4), [1, 1, 1, 1]), (Graph(4), [1, 3, 0, 2])]
)
def test_at_without_edges(g, f):
    want, _ = reference_f_AT(g, f)
    got, calls = counted_is_f_AT(g, f)
    assert got == want
    assert (got is None) == (0 in f)
    if got is not None:
        assert got == ((), 1, 0) and calls == 1


def test_at_counts_each_out_vector_once():
    # both directed 5-cycles have out-vector (1, 1, 1, 1, 1) and EE == EO
    got, calls = counted_is_f_AT(Graph.cycle(5), [2] * 5)
    assert got is None
    assert calls == 1


def test_at_exhaustive_negative_on_k7_minus_an_edge():
    # the first leaf fails, and no term of the capped expansion survives
    got, calls = counted_is_f_AT(Graph.complete(7).remove_edge(0, 1), [5] * 7)
    assert got is None
    assert calls == 1


def memo_f_AT(g, f):
    """The certificate search as it was before the capped expansion: the same
    DFS and failure memo, with ee_eo at every leaf whose out-vector has not
    failed yet.  Returns the (arcs, ee, eo) found or None."""
    caps = [x - 1 for x in f]
    if any(c < 0 for c in caps):
        return None
    edges = list(g.edges())
    m = len(edges)
    if sum(caps) < m:
        return None
    out, arcs = [0] * g.n, []
    base = max(caps, default=0) + 1
    weight = [base**v for v in range(g.n)]
    failed = set()

    def dfs(i, key):
        if key in failed:
            return None
        if i == m:
            ee, eo = ee_eo(Orientation(g, tuple(arcs)), max_arcs=m)
            if ee != eo:
                return tuple(arcs), ee, eo
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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8), st.data())
def test_at_matches_the_per_leaf_search(n, data):
    pairs = list(combinations(range(n), 2))
    g = Graph(n, [p for p in pairs if data.draw(st.booleans())][:16])
    # f in 0..4 near the degree, where the first leaf often fails
    f = [min(4, max(0, g.degree(v) + data.draw(st.integers(-1, 1)))) for v in range(n)]
    got, calls = counted_is_f_AT(g, f)
    assert got == memo_f_AT(g, f)
    # the first leaf, and the certificate if the expansion finds one
    assert calls <= 2


@pytest.mark.parametrize("g", [Graph.cycle(20), Graph.path(21)], ids=["C20", "P21"])
def test_at_first_leaf_certifies_without_the_expansion(g):
    # the first leaf is acyclic; the expansion could hold up to 2^20 terms
    got, calls = counted_is_f_AT(g, [3] * g.n)
    assert got is not None and calls == 1


def test_at_matches_the_per_leaf_search_past_the_first_leaf():
    # a triangle with f = (2, 2, 3) and a 17-edge path hanging off vertex 2:
    # the per-leaf search visits 131,073 leaf out-vectors before it certifies
    g = Graph(20, [(0, 1), (0, 2), (1, 2), (2, 3)] + [(v, v + 1) for v in range(3, 19)])
    f = [2, 2, 3] + [3] * 17
    got, calls = counted_is_f_AT(g, f)
    assert got == memo_f_AT(g, f)
    assert got is not None and calls == 2


# a triangle with f = (2, 2, 19) and 17 pendant edges at vertex 2, f = 2 at
# the leaves: one expansion of the whole graph holds 262,142 terms, while each
# of its 18 blocks expands to 2
PENDANT_TRIANGLE = (
    Graph(20, [(0, 1), (0, 2), (1, 2)] + [(2, v) for v in range(3, 20)]),
    [2, 2, 19] + [2] * 17,
)


def test_at_judges_the_blocks_of_the_first_path():
    # the first leaf closes the directed triangle 1 -> 2 -> 6 -> 1 at edge
    # (2, 6) and fails; a search that resumed below (2, 6) would return the
    # next leaf, which keeps that triangle, as a certificate
    g = Graph(7, [(0, 1), (0, 2), (1, 2), (1, 5), (1, 6), (2, 3), (2, 6), (4, 6)])
    got, calls = counted_is_f_AT(g, [3] * 7)
    assert got == memo_f_AT(g, [3] * 7)
    assert got == (((0, 1), (0, 2), (1, 2), (1, 5), (6, 1), (2, 3), (6, 2), (4, 6)), 1, 0)
    assert calls <= 2


def test_at_expands_each_block_alone():
    sizes = []
    capped = coloring._capped_polynomial

    def counting(edges, caps, shift):
        poly = capped(edges, caps, shift)
        sizes.append(len(poly))
        return poly

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coloring, "_capped_polynomial", counting)
        got, calls = counted_is_f_AT(*PENDANT_TRIANGLE)
    assert got is not None and got[1:] == (1, 0)
    assert calls == 2
    # one expansion per block: the search that starts again from the root
    # expands nothing again
    assert len(sizes) == 18 and max(sizes) <= 2


def test_at_restarts_when_the_first_block_fails_at_its_first_edge():
    # a bowtie: the first leaf closes the directed triangle 0 -> 1 -> 2 -> 0
    # at edge 2, the last edge of the first block
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (2, 4)])
    f = [2, 2, 3, 3, 2]
    got, calls = counted_is_f_AT(g, f)
    assert got == memo_f_AT(g, f)
    assert got == (((0, 1), (2, 0), (2, 1), (3, 2), (4, 2), (3, 4)), 1, 0)
    assert calls <= 2


def test_at_second_search_starts_from_the_first_searchs_failures():
    # the first search records 6 failed states before its leaf fails ee_eo;
    # the second, with every block judged, keeps them and adds 2
    g = Graph(6, [(0, 2), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4), (4, 5)])
    f = [1, 3, 4, 4, 2, 2]
    searches = []
    first_leaf = coloring._first_leaf

    def recording(branches, caps, weight, closing, failed):
        start = set(failed)
        arcs = first_leaf(branches, caps, weight, closing, failed)
        searches.append((failed, start, set(failed)))
        return arcs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coloring, "_first_leaf", recording)
        got, calls = counted_is_f_AT(g, f)
    assert got is not None and got == memo_f_AT(g, f)
    assert calls == 2
    (first, start1, end1), (second, start2, end2) = searches
    assert second is first
    assert start1 == set() and start2 == end1 < end2
    assert (len(end1), len(end2)) == (6, 8)


BLOCK_SHAPES = [
    Graph.complete(3),
    Graph.complete(4),
    Graph.cycle(5),
    Graph.complete(4).remove_edge(0, 1),
    Graph(6, [(v, (v + 1) % 6) for v in range(6)] + [(0, 3)]),
]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_at_matches_the_per_leaf_search_on_glued_blocks(data):
    # 2-4 blocks, each glued at one existing vertex, then relabelled at random
    n, edges = 0, []
    for _ in range(data.draw(st.integers(2, 4))):
        block = data.draw(st.sampled_from(BLOCK_SHAPES))
        if len(edges) + block.m > 16:
            continue
        if n == 0:
            label = list(range(block.n))
        else:
            label = [data.draw(st.integers(0, n - 1))] + list(range(n, n + block.n - 1))
        edges += [(label[u], label[v]) for u, v in block.edges()]
        n = label[-1] + 1
    perm = data.draw(st.permutations(range(n)))
    g = Graph(n, [(perm[u], perm[v]) for u, v in edges])
    f = [max(0, g.degree(v) + data.draw(st.sampled_from([-1, 1]))) for v in range(n)]
    got, calls = counted_is_f_AT(g, f)
    assert got == memo_f_AT(g, f)
    assert calls <= 2


@pytest.mark.parametrize(
    "g,f",
    [
        (Graph.complete(7).remove_edge(0, 1), [5] * 7),
        (Graph.cycle(6), [2] * 6),
        PENDANT_TRIANGLE,
    ],
    ids=["K7-e exhaustive", "C6 certified", "pendant triangle certified"],
)
def test_at_leaves_no_cyclic_garbage(g, f):
    gc.collect()
    gc.disable()
    try:
        is_f_AT(g, f)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "g,f",
    [
        (Graph.wheel(6), [3] * 7),
        (Graph.cycle(5), [2] * 5),
        (k_nn(3), [2] * 6),
    ],
    ids=["W6 with 3", "C5 with 2", "K3,3 with 2"],
)
def test_choose_and_paint_leave_no_cyclic_garbage(g, f):
    for decide in (is_f_choosable, is_f_paintable):
        gc.collect()
        gc.disable()
        try:
            decide(g, f)
            assert gc.collect() == 0, decide.__name__
        finally:
            gc.enable()


def test_chromatic_number_leaves_no_cyclic_garbage():
    """C5 with a two-edge path attached: the greedy clique has 2 vertices and
    the greedy colouring 3 colours, so the DSATUR search runs at k = 2."""
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (5, 6)])
    gc.collect()
    gc.disable()
    try:
        assert chromatic_number(g) == 3
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_at_budget():
    with pytest.raises(BudgetExceeded):
        at_number(Graph.complete(7))


# the Brooks-type boundary: degree-sized budgets succeed except on Gallai trees

@pytest.mark.parametrize("checker", ["at", "paint", "choose"])
def test_degree_budgets_fail_exactly_on_gallai_trees(checker):
    for g in connected_atlas(5):
        f = list(g.degrees())
        if checker == "at":
            got = is_f_AT(g, f) is not None
        elif checker == "paint":
            got = is_f_paintable(g, f)
        else:
            got = is_f_choosable(g, f)[0]
        assert got == (not is_gallai_tree(g)), g


# the implication chain: AT implies paintable implies choosable


def deciders(g, f):
    """(f-AT, f-paintable, f-choosable) of g."""
    return is_f_AT(g, f) is not None, is_f_paintable(g, f), is_f_choosable(g, f)[0]


def test_chain_consistency_and_strictness():
    rows = [
        (Graph.cycle(4), [2] * 4, (True, True, True)),
        (Graph.cycle(5), [2] * 5, (False, False, False)),
        (k23(), [2] * 5, (False, True, True)),
        (theta_2_2_4(), [2] * 7, (False, False, True)),
    ]
    for g, f, want in rows:
        at, paint, choose = deciders(g, f)
        assert (at, paint, choose) == want
        assert (not at or paint) and (not paint or choose)


def test_chain_on_degree_budgets():
    at, paint, choose = deciders(Graph.wheel(5), [3, 3, 3, 3, 3, 5])
    assert at and paint and choose


# criticality

def test_critical_fixtures():
    assert is_k_critical(Graph.complete(4), 4)
    assert is_k_critical(Graph.wheel(5), 4)
    assert is_k_critical(Graph.cycle(5), 3)
    assert not is_k_critical(Graph.cycle(6), 3)
    assert not is_k_critical(Graph.complete(4).remove_edge(0, 1), 4)
    assert is_k_critical(Graph(1), 1)
    assert not is_k_critical(Graph(2), 1)


def test_critical_against_brute_force():
    hits = []
    for g in connected_atlas(6):
        want = chi_oracle(g) == 4 and all(
            chi_oracle(g.remove_edge(u, v)) == 3 for u, v in g.edges()
        )
        assert is_k_critical(g, 4) == want
        if want:
            hits.append(g)
    # exactly two classes this small: the complete graph and the odd wheel
    assert len(hits) == 2
    assert are_isomorphic(hits[0], Graph.complete(4))
    assert are_isomorphic(hits[1], Graph.wheel(5))


def _no_isolated(g):
    return g.n == 1 or all(g.degree(v) > 0 for v in range(g.n))


def reference_k_critical(g, k):
    """The number rule: chi(g) = k and chi(g - e) < k for every edge e."""
    if g.n == 0 or chromatic_number(g) != k or not _no_isolated(g):
        return False
    return all(chromatic_number(g.remove_edge(u, v)) < k for u, v in g.edges())


def reference_k_AT_critical(g, k):
    """The number rule on the AT number."""
    if g.n == 0 or at_number(g) != k or not _no_isolated(g):
        return False
    return all(at_number(g.remove_edge(u, v)) < k for u, v in g.edges())


def test_critical_matches_number_rule():
    hits = 0
    for g in connected_atlas(7):
        for k in range(1, 7):
            want = reference_k_critical(g, k)
            assert is_k_critical(g, k) == want, (g, k)
            hits += want
    assert hits > 0


def test_at_critical_matches_number_rule():
    hits = 0
    for g in connected_atlas(6):
        if g.m > 10:
            continue
        for k in range(1, 6):
            want = reference_k_AT_critical(g, k)
            assert is_k_AT_critical(g, k) == want, (g, k)
            hits += want
    assert hits > 0


def test_list_and_at_criticality():
    assert is_k_list_critical(Graph.cycle(5), 3)
    assert is_k_list_critical(Graph.complete(4), 4)
    assert not is_k_list_critical(Graph.cycle(4), 3)
    assert is_k_AT_critical(Graph.cycle(5), 3)
    assert is_k_AT_critical(Graph.complete(4), 4)
    assert is_k_AT_critical(Graph(1), 1)


def test_paint_criticality():
    assert is_k_paint_critical(Graph.cycle(5), 3)
    assert is_k_paint_critical(Graph.complete(4), 4)
    assert not is_k_paint_critical(Graph.complete(4), 3)
    assert is_k_paint_critical(Graph.wheel(5), 4)
    # the online game separates the two notions
    assert is_k_paint_critical(theta_2_2_4(), 3)
    assert not is_k_list_critical(theta_2_2_4(), 3)


def test_criticality_budgets():
    with pytest.raises(BudgetExceeded):
        is_k_critical(Graph.complete(17), 17)
    with pytest.raises(BudgetExceeded):
        is_k_AT_critical(Graph.complete(7), 7)
    # no graph is k-critical for k < 1, so no budget is consulted
    assert not is_k_critical(Graph.complete(17), 0)
    assert not is_k_AT_critical(Graph.complete(7), 0)
