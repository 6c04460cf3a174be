"""Graph container, graph6/edge-list codecs, cliques, isomorphism."""

from itertools import combinations
from random import Random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_atlas, graph_to_nx, lemma51_family, nx_to_graph
from critgraphs import (
    Graph,
    GraphFormatError,
    are_isomorphic,
    contains_clique,
    induced_subgraph,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from critgraphs.graph import _component_masks, _expand, _mask_bits, clique_vertices


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


def test_basic_accessors():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4 and g.m == 3
    assert g.degrees() == (1, 2, 2, 1)
    assert g.neighbors(1) == (0, 2)
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert g.is_connected()
    assert g.components() == [frozenset(range(4))]


def test_edge_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_remove_and_add():
    g = Graph.complete(4)
    h = g.remove_edge(0, 1)
    assert h.m == 5 and g.m == 6
    with pytest.raises(ValueError):
        h.remove_edge(0, 1)
    assert Graph(h.n, [*h.edges(), (0, 1)]) == g
    p, _ = induced_subgraph(g, [0, 1, 2])
    assert p == Graph.complete(3)


def test_builders_match_networkx():
    for n in range(1, 8):
        assert graph_to_nx(Graph.complete(n)).size() == n * (n - 1) // 2
        assert nx.is_isomorphic(graph_to_nx(Graph.path(n)), nx.path_graph(n))
    for n in range(3, 8):
        assert nx.is_isomorphic(graph_to_nx(Graph.cycle(n)), nx.cycle_graph(n))
        assert nx.is_isomorphic(graph_to_nx(Graph.wheel(n)), nx.wheel_graph(n + 1))


def test_components_split():
    g = Graph(5, [(0, 1), (2, 3)])
    comps = g.components()
    assert sorted(map(sorted, comps)) == [[0, 1], [2, 3], [4]]
    assert not g.is_connected()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9), st.data())
def test_component_masks_match_networkx(n, data):
    pairs = list(combinations(range(n), 2))
    g = Graph(n, data.draw(st.sets(st.sampled_from(pairs))) if pairs else ())
    mask = data.draw(st.integers(0, (1 << n) - 1))
    inside = [v for v in range(n) if mask >> v & 1]
    want = sorted(
        (sorted(c) for c in nx.connected_components(graph_to_nx(g).subgraph(inside))),
        key=min,
    )
    got = [[v for v in range(n) if c >> v & 1] for c in _component_masks(g._adj, mask)]
    assert got == want


# graph6 codec, oracled against networkx

def test_graph6_known_strings():
    assert parse_graph6("D??") == Graph(5)
    assert parse_graph6("B?") == Graph(3)
    assert parse_graph6("Bw") == Graph.complete(3)
    assert write_graph6(Graph.complete(3)) == "Bw"
    w5 = parse_graph6("Ehfw")
    assert nx.is_isomorphic(graph_to_nx(w5), nx.wheel_graph(6))


def test_graph6_exhaustive_small():
    """Both directions agree with networkx on every graph with <= 5 vertices."""
    for n in range(6):
        for g in all_graphs(n):
            mine = write_graph6(g)
            theirs = nx.to_graph6_bytes(graph_to_nx(g), header=False).decode().strip()
            assert mine == theirs
            assert parse_graph6(mine) == g
            assert nx_to_graph(nx.from_graph6_bytes(mine.encode())) == g


def test_graph6_errors_carry_offsets():
    with pytest.raises(GraphFormatError, match="empty"):
        parse_graph6("")
    with pytest.raises(GraphFormatError, match="byte offset 0"):
        parse_graph6("~~~")
    with pytest.raises(GraphFormatError, match="byte offset 0"):
        parse_graph6("!")
    with pytest.raises(GraphFormatError, match="trailing garbage"):
        parse_graph6("Bw?")
    with pytest.raises(GraphFormatError, match="byte offset 1"):
        parse_graph6("B" + chr(30))
    with pytest.raises(GraphFormatError):
        parse_graph6("B")  # body truncated
    with pytest.raises(GraphFormatError, match="non-ASCII character at byte offset 1"):
        parse_graph6("Bé")  # not read as "B?"


def test_graph6_size_limit():
    with pytest.raises(GraphFormatError, match="258047"):
        write_graph6(Graph(258048))
    with pytest.raises(GraphFormatError, match="258047"):
        parse_graph6("~~??????")


@pytest.mark.parametrize("n", [63, 78, 200])
def test_graph6_long_form_matches_networkx(n):
    rng = Random(n)
    g = Graph(n, [p for p in combinations(range(n), 2) if rng.random() < 0.1])
    mine = write_graph6(g)
    theirs = nx.to_graph6_bytes(graph_to_nx(g), header=False).decode().strip()
    assert mine == theirs and mine[0] == "~"
    assert parse_graph6(mine) == g
    assert nx_to_graph(nx.from_graph6_bytes(mine.encode())) == g


def test_graph6_long_form_errors():
    # n = 258047 promises about 5.5e9 body bytes: rejected before anything is built
    with pytest.raises(GraphFormatError, match="truncated graph6 record"):
        parse_graph6("~}~~" + "?" * 10)
    with pytest.raises(GraphFormatError, match="truncated long-form graph6 header"):
        parse_graph6("~?A")
    with pytest.raises(GraphFormatError, match="byte offset 2"):
        parse_graph6("~?!A")
    with pytest.raises(GraphFormatError, match="takes the short form"):
        parse_graph6("~??B" + "w")  # K3 in the long form
    g = Graph.complete(63)
    with pytest.raises(GraphFormatError, match="trailing garbage at byte offset %d" % (4 + 326)):
        parse_graph6(write_graph6(g) + "?")


def reference_write_graph6(g):
    """The writer before it read adjacency masks: one has_edge call per bit,
    six bits per character."""
    if g.n <= 62:
        out = [chr(63 + g.n)]
    else:
        out = ["~"] + [chr(63 + (g.n >> shift & 63)) for shift in (12, 6, 0)]
    bits = [1 if g.has_edge(u, v) else 0 for v in range(1, g.n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    for i in range(0, len(bits), 6):
        x = 0
        for b in bits[i : i + 6]:
            x = (x << 1) | b
        out.append(chr(63 + x))
    return "".join(out)


def test_graph6_writer_matches_the_bitwise_reference():
    """Byte-identical on the atlas (short form) and on seeded random graphs
    of 60-300 vertices, which cross into the long form at 63."""
    graphs = [nx_to_graph(h) for h in nx.graph_atlas_g()]
    rng = Random(6)
    for n in (60, 61, 62, 63, 64, 65, 100, 127, 128, 200, 255, 256, 299, 300):
        for p in (0.0, 0.05, 0.5, 1.0):
            graphs.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    for g in graphs:
        assert write_graph6(g) == reference_write_graph6(g)


def reference_parse_graph6(text):
    """The reader before it decoded the body as base64: a list of all the
    bits, then a loop over every pair."""
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
                "graph6 with more than 258047 vertices (leading '~~') unsupported at byte offset 0"
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
        if n <= 62:
            raise GraphFormatError(
                f"long-form graph6 header names n = {n}, which takes the short form, "
                "at byte offset 0"
            )
        start = 4
    elif 63 <= first <= 63 + 62:
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
    bits = []
    for i, b in enumerate(body):
        if not (63 <= b <= 126):
            raise GraphFormatError(f"invalid graph6 body byte {b} at byte offset {start + i}")
        x = b - 63
        bits.extend((x >> shift) & 1 for shift in range(5, -1, -1))
    for j in range(nbits, len(bits)):
        if bits[j]:
            raise GraphFormatError(f"nonzero padding bit at byte offset {start + j // 6}")
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph(n, edges)


def parse_outcome(parse, text):
    """The graph parse returns, or the text of the GraphFormatError it raises."""
    try:
        return parse(text)
    except GraphFormatError as e:
        return str(e)


@settings(max_examples=500, deadline=None)
@given(st.text(st.characters(max_codepoint=127)))
def test_graph6_reader_matches_the_reference_on_ascii(text):
    assert parse_outcome(parse_graph6, text) == parse_outcome(reference_parse_graph6, text)


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from([0, 1, 2, 5, 7, 12, 62, 63, 64, 90]),
    st.data(),
    st.lists(
        st.tuples(
            st.integers(-6, 6) | st.integers(0, 10**6),
            st.integers(63, 126) | st.integers(0, 127),
        ),
        max_size=3,
    ),
)
def test_graph6_reader_matches_the_reference_on_altered_records(n, data, changes):
    """Records of both forms with characters replaced, often near either end
    and often by a body character: the same graph or the same error text,
    offsets included."""
    p = data.draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = Random(data.draw(st.integers(0, 2**32)))
    g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
    chars = list(write_graph6(g))
    for at, code in changes:
        chars[at % len(chars)] = chr(code)
    text = "".join(chars)
    assert parse_outcome(parse_graph6, text) == parse_outcome(reference_parse_graph6, text)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 17), st.data())
def test_graph6_round_trip_random(n, data):
    pairs = list(combinations(range(n), 2))
    picked = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = Graph(n, picked)
    assert parse_graph6(write_graph6(g)) == g


# edge-list codec

def test_edge_list_round_trip():
    g = Graph.wheel(5)
    assert parse_edge_list(write_edge_list(g)) == g
    text = "3 2\n0 1\n1 2\n"
    assert parse_edge_list(text) == Graph(3, [(0, 1), (1, 2)])


def test_edge_list_blank_lines_ok():
    assert parse_edge_list("2 1\n\n0 1\n\n") == Graph(2, [(0, 1)])


@pytest.mark.parametrize(
    "text,where",
    [
        ("", "line 1"),
        ("wat\n", "line 1"),
        ("2 5\n", "line 1"),
        ("-1 0\n", "line 1"),
        ("3 1\n0\n", "line 2"),
        ("3 1\n1 1\n", "line 2"),
        ("3 1\n0 9\n", "line 2"),
        ("3 2\n0 1\n0 1\n", "line 3"),
        ("3 1\n--2 1\n", "line 2"),
        ("3 1\n0 \u00b2\n", "line 2"),  # superscript two
        ("2 1\n0 \u0661\n", "line 2"),  # Arabic-Indic one, not vertex 1
        ("\u0663 0\n", "line 1"),
    ],
)
def test_edge_list_errors_carry_line_numbers(text, where):
    with pytest.raises(GraphFormatError, match=where):
        parse_edge_list(text)


# induced subgraphs

def test_induced_subgraph_mapping():
    g = Graph.wheel(5)  # hub is vertex 5
    sub, old_to_new = induced_subgraph(g, [1, 3, 5])
    assert sub.n == 3
    assert sorted(old_to_new) == [1, 3, 5]
    # rim vertices 1 and 3 are not adjacent, both touch the hub
    assert sub.m == 2
    assert sub.degree(old_to_new[5]) == 2


def test_induced_subgraph_rejects_bad_vertex():
    with pytest.raises(ValueError):
        induced_subgraph(Graph(3), [0, 7])


# cliques, oracled against networkx

def test_maximal_cliques_match_networkx():
    # the atlas starts at n = 1: at n = 0 _expand yields the empty mask
    for g in connected_atlas(6):
        mine = {tuple(_mask_bits(c)) for c in _expand(g._adj, 0, (1 << g.n) - 1, 0)}
        theirs = {tuple(sorted(c)) for c in nx.find_cliques(graph_to_nx(g))}
        assert mine == theirs


def test_contains_clique_matches_networkx():
    rng = Random(11)
    randoms = []
    for n in range(8, 15):
        for p in (0.3, 0.5, 0.7) * 6:
            randoms.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    for g in connected_atlas(6) + randoms:
        omega = max((len(c) for c in nx.find_cliques(graph_to_nx(g))), default=0)
        for t in range(0, 8):
            found, witness = contains_clique(g, t)
            assert found == (t <= omega)
            if found:
                assert len(witness) == t
                assert all(g.has_edge(u, v) for u, v in combinations(witness, 2))
            else:
                assert witness is None


def recursive_expand(adj, r, p, x, t=0):
    """Bron-Kerbosch with pivoting and the size cut, recursing with one
    generator frame per clique vertex: the reference for _expand's stack."""
    if (r | p).bit_count() < t:
        return
    if p == 0 and x == 0:
        yield r
        return
    pivot = max(_mask_bits(p | x), key=lambda u: (p & adj[u]).bit_count())
    for v in _mask_bits(p & ~adj[pivot]):
        bit = 1 << v
        yield from recursive_expand(adj, r | bit, p & adj[v], x & adj[v], t)
        p &= ~bit
        x |= bit


def test_clique_stack_yields_the_recursive_order():
    """The same masks in the same order, so contains_clique's witness and
    every W set stay as they were: on the atlas with every cut size, and on
    random graphs from a vertex with part of its neighbours excluded."""
    for h in nx.graph_atlas_g():
        g = nx_to_graph(h)
        full = (1 << g.n) - 1
        for t in range(g.n + 2):
            assert list(_expand(g._adj, 0, full, 0, t)) == list(recursive_expand(g._adj, 0, full, 0, t))
    rng = Random(5)
    for _ in range(200):
        n = rng.randint(8, 14)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.6])
        v = rng.randrange(n)
        p = g._adj[v] & rng.getrandbits(n)
        x = g._adj[v] & ~p & rng.getrandbits(n)
        assert list(_expand(g._adj, 1 << v, p, x, 4)) == list(recursive_expand(g._adj, 1 << v, p, x, 4))


def unpruned_clique_answers(g, t):
    """contains_clique and clique_vertices read off every maximal clique."""
    big = [c for c in _expand(g._adj, 0, (1 << g.n) - 1, 0) if c.bit_count() >= t]
    found = (True, tuple(_mask_bits(big[0]))[:max(t, 0)]) if big else (False, None)
    return found, frozenset(v for c in big for v in _mask_bits(c))


def test_clique_search_cut_by_size_changes_no_answer():
    """Cutting branches too small for K_t keeps the answer, the witness tuple
    and the vertex set: on the atlas and on the criterion 9 family."""
    graphs = [nx_to_graph(h) for h in nx.graph_atlas_g()]
    graphs += [g for g, _ in lemma51_family()]
    for g in graphs:
        for t in range(0, 9):
            want = unpruned_clique_answers(g, t)
            assert (contains_clique(g, t), clique_vertices(g, t)) == want


# isomorphism, oracled against networkx

def test_isomorphic_to_any_relabeling():
    import random

    rng = random.Random(7)
    for g in connected_atlas(6):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert are_isomorphic(g, h)


def test_isomorphism_matches_networkx_on_invariant_twins():
    """Pairs sharing (n, m, degree multiset) are where refusal gets hard."""
    by_key = {}
    for g in connected_atlas(7):
        by_key.setdefault((g.n, g.m, tuple(sorted(g.degrees()))), []).append(g)
    checked = 0
    for group in by_key.values():
        for a, b in combinations(group, 2):
            expect = nx.is_isomorphic(graph_to_nx(a), graph_to_nx(b))
            assert are_isomorphic(a, b) == expect
            checked += 1
    assert checked > 100


def test_isomorphism_counts_atlas_classes():
    # the atlas lists one representative per class, so all pairs differ
    small = [g for g in connected_atlas(5) if g.n == 5]
    for a, b in combinations(small, 2):
        assert not are_isomorphic(a, b)
