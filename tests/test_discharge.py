"""Charge redistribution: parameters, rules, ledgers, audits."""

from fractions import Fraction as F
from itertools import combinations
from random import Random

import pytest

import critgraphs.discharge as discharge_module
import critgraphs.structure as structure_module
from conftest import build_charge_instance, charge_corpus, stalled_aux_instance
from critgraphs import (
    BoundParams,
    ChargeLedger,
    EliminationFailed,
    Graph,
    PreconditionError,
    build_auxiliary,
    eliminate,
    enumerate_gallai_trees,
    gallai_target,
    low_high_split,
    main_bound,
    make_params,
    preset_params,
    run_gallai_discharge,
    run_main_discharge,
    sponsorship_stats,
    tree_charge_audit,
)
from critgraphs.discharge import _RECEIVE_RULES, ComponentShare, SponsorStats
from critgraphs.graph import _vertex_mask
from critgraphs.structure import _in_t_k


def params_for(k, mode="auto"):
    return make_params(k, preset_params(k, "smallP"), mode)


# parameter derivation

def test_parameter_fixtures():
    p7 = params_for(7)
    assert p7.mode == "symmetric"
    assert p7.epsilon == F(13, 151)
    assert p7.gamma == F(27, 151)
    assert p7.target == F(924, 151)
    p5 = params_for(5)
    assert p5.mode == "lopsided"
    assert (p5.epsilon, p5.gamma, p5.target) == (F(1, 10), F(1, 5), F(41, 10))
    assert gallai_target(7) == F(140, 23)
    assert gallai_target(4) == F(40, 13)


def test_target_equals_the_published_bound():
    for k in range(5, 31):
        assert params_for(k).target == main_bound(k, "auto", preset_params(k, "smallP"))


def test_epsilon_identity():
    """The k-vertex worst case lands exactly on the target: what a degree-k
    vertex keeps after a full slate of sends equals the bound excess."""
    for k in range(5, 31):
        for name in ("smallP", "ks", "gallai"):
            bp = preset_params(k, name)
            if k >= 7:
                pr = make_params(k, bp, "symmetric")
                spent = 3 * pr.gamma + (k - 3) * pr.epsilon
            else:
                pr = make_params(k, bp, "lopsided")
                spent = 4 * pr.gamma + (k - 4) * pr.epsilon
            assert 1 - spent == (2 - bp.p) * pr.epsilon


def test_high_degree_vertices_clear_the_target():
    # gamma to every neighbor still leaves d(1 - gamma) >= target at d = k+1
    for k in range(7, 31):
        pr = params_for(k)
        assert (k + 1) * (1 - pr.gamma) >= pr.target
        assert pr.gamma >= pr.epsilon


def test_make_params_guards():
    with pytest.raises(PreconditionError):
        make_params(7, preset_params(5, "smallP"))
    with pytest.raises(PreconditionError):
        make_params(7, preset_params(7, "smallP"), "sideways")
    with pytest.raises(PreconditionError):
        make_params(7, preset_params(7, "smallP"), "lopsided")
    with pytest.raises(PreconditionError):
        make_params(5, preset_params(5, "smallP"), "symmetric")
    with pytest.raises(PreconditionError):
        make_params(7, BoundParams(7, F(0), F(-2), F(99)), "symmetric")


# the two-rule procedure

def test_gallai_discharge_on_the_wheel():
    ledger = run_gallai_discharge(Graph.wheel(5), 4)
    assert ledger.conserved
    assert ledger.replay() == ledger.final
    assert ledger.final[5] == F(50, 13)
    for v in range(5):
        assert ledger.final[v] == F(42, 13)
        assert ledger.final[v] >= gallai_target(4)
    assert len(ledger.component_shares) == 1
    assert ledger.component_shares[0].share == F(42, 13)


def test_gallai_discharge_no_low_vertices_is_a_no_op():
    ledger = run_gallai_discharge(Graph.complete(5), 4)
    assert ledger.transfers == ()
    assert ledger.final == tuple([F(4)] * 5)


def test_discharge_rejects_low_degrees():
    with pytest.raises(PreconditionError):
        run_gallai_discharge(Graph.path(4), 4)
    with pytest.raises(PreconditionError):
        run_main_discharge(Graph.path(4), params_for(5))


def test_discharge_rejects_non_tree_low_components():
    # the cube is 3-regular but its lone block is neither clique nor odd cycle
    cube = Graph(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
         (0, 4), (1, 5), (2, 6), (3, 7)],
    )
    with pytest.raises(PreconditionError):
        run_gallai_discharge(cube, 4)


# the four-rule procedure on the generated corpus

@pytest.mark.parametrize("k", [5, 6, 7])
def test_corpus_ledger_invariants(k):
    pr = params_for(k)
    for inst in charge_corpus(k):
        g = inst.graph
        ledger = run_main_discharge(g, pr)
        assert ledger.conserved
        assert ledger.replay() == ledger.final
        for v in range(g.n):
            assert ledger.final[v] >= pr.target, (inst.label, v)


@pytest.mark.parametrize("k", [5, 6, 7])
def test_corpus_outflow_caps(k):
    pr = params_for(k)
    cap_sends = 3 if pr.mode == "symmetric" else 4
    cap_flow = cap_sends * pr.gamma + (k - cap_sends) * pr.epsilon
    for inst in charge_corpus(k):
        g = inst.graph
        ledger = run_main_discharge(g, pr)
        stats = sponsorship_stats(g, pr, ledger)
        for y, count in stats.gamma_counts.items():
            assert count <= cap_sends, (inst.label, y)
        for v in range(g.n):
            if g.degree(v) == k:
                assert ledger.outflow(v, _RECEIVE_RULES) <= cap_flow
            elif g.degree(v) > k:
                assert ledger.outflow(v, _RECEIVE_RULES) <= g.degree(v) * pr.gamma


@pytest.mark.parametrize("k", [5, 6, 7])
def test_corpus_component_audits(k):
    pr = params_for(k)
    uncovered_cap = 2 if pr.mode == "symmetric" else 1
    for inst in charge_corpus(k):
        g = inst.graph
        ledger = run_main_discharge(g, pr)
        stats = sponsorship_stats(g, pr, ledger)
        for i, miss in stats.unsponsored.items():
            assert miss <= uncovered_cap, (inst.label, i)
        for comp in low_high_split(g, k).l_components:
            audit = tree_charge_audit(g, comp, pr, ledger)
            assert audit.received >= audit.floor


def test_named_vertices_keep_their_degree_minus_gamma_share():
    # (k+1)+ vertices never fall below d(1 - gamma)
    for k in (5, 7):
        pr = params_for(k)
        for inst in charge_corpus(k):
            g = inst.graph
            ledger = run_main_discharge(g, pr)
            for v in range(g.n):
                if g.degree(v) >= k + 1:
                    assert ledger.final[v] >= g.degree(v) * (1 - pr.gamma)


# a by-hand instance where rule 3ai fires

def three_ai_instance():
    """Three K_6 trees, six degree-7 sponsors seeing two W vertices each,
    three degree-8 double takers, four benign leftovers."""
    k = 7
    edges = []
    for base in (0, 6, 12):  # trees A, B, C
        edges += [(base + a, base + b) for a in range(6) for b in range(a + 1, 6) if a < b]
    edges += [(18 + a, 18 + b) for a in range(6) for b in range(a + 1, 6)]  # pair pool
    edges += [(24 + a, 24 + b) for a in range(7) for b in range(a + 1, 7)]  # K_7 pool
    sponsor_slots = {18: (0, 1), 19: (2, 3), 20: (6, 7), 21: (8, 9), 22: (12, 13), 23: (14, 15)}
    taker_slots = {24: (4, 5), 25: (10, 11), 26: (16, 17)}
    for u, pair in {**sponsor_slots, **taker_slots}.items():
        edges += [(u, w) for w in pair]
    return Graph(31, edges), k


def test_rule_3ai_fires_with_min_label_tie_break():
    g, k = three_ai_instance()
    pr = params_for(k)
    assert pr.mode == "symmetric"
    ledger = run_main_discharge(g, pr)
    r3ai = [(s, d) for r, s, d, a in ledger.transfers if r == "R3ai"]
    assert r3ai == [(18, 0), (19, 2), (20, 6), (21, 8), (22, 12), (23, 14)]
    assert not any(r == "R3bi" for r, *_ in ledger.transfers)
    r2 = sorted((s, d) for r, s, d, a in ledger.transfers if r == "R2")
    assert r2 == [(24, 4), (24, 5), (25, 10), (25, 11), (26, 16), (26, 17)]
    assert sum(1 for r, *_ in ledger.transfers if r == "R1") == 12


def test_rule_3ai_instance_is_exactly_tight():
    g, k = three_ai_instance()
    pr = params_for(k)
    ledger = run_main_discharge(g, pr)
    stats = sponsorship_stats(g, pr, ledger)
    split = low_high_split(g, k)
    for comp in split.l_components:
        audit = tree_charge_audit(g, comp, pr, ledger)
        if audit.has_full_clique:
            assert audit.A == 0 and audit.q == 6
            assert audit.received == 4 * pr.gamma  # the guaranteed minimum
        else:
            assert audit.A == 12
            assert audit.received == 12 * pr.epsilon
    trees = {i for i, c in enumerate(low_high_split(g, k).l_components) if len(c) == 6}
    for i, miss in stats.unsponsored.items():
        assert miss == (2 if i in trees else 0)
    # every tree vertex finishes exactly on target
    for v in range(18):
        assert ledger.final[v] == pr.target


def test_rule_3bi_pays_every_edge_when_highs_go_first():
    g = build_charge_instance(
        5, [Graph.complete(4), Graph.complete(4)], "pair", label="pair"
    ).graph
    pr = params_for(5)
    ledger = run_main_discharge(g, pr)
    kinds = {r for r, *_ in ledger.transfers}
    assert "R3bi" in kinds and "R3ai" not in kinds
    stats = sponsorship_stats(g, pr, ledger)
    assert all(miss == 0 for miss in stats.unsponsored.values())


# elimination failures

def test_stalled_instances_raise_with_residual():
    g, _, _ = stalled_aux_instance(5, 4, 4)
    with pytest.raises(EliminationFailed) as err:
        run_main_discharge(g, params_for(5))
    trees, highs, edges = err.value.residual
    assert len(trees) == 4 and len(highs) == 4
    for y in highs:
        assert sum(1 for z, _ in edges if z == y) >= 4
    g7, _, _ = stalled_aux_instance(7, 3, 5)
    with pytest.raises(EliminationFailed) as err:
        run_main_discharge(g7, params_for(7))
    trees, highs, edges = err.value.residual
    assert (len(trees), len(highs)) == (3, 5)
    for y in highs:
        assert sum(1 for z, _ in edges if z == y) >= 3


def test_lopsided_clears_what_symmetric_cannot():
    g, _, _ = stalled_aux_instance(5, 3, 3)
    ledger = run_main_discharge(g, params_for(5))  # auto -> lopsided at k=5
    assert ledger.conserved


# ledger mechanics

def test_replay_flags_tampered_pools():
    bad = ChargeLedger(
        1,
        (F(0),),
        (("R4-share", "share:0", 0, F(1)),),
        (F(1),),
    )
    with pytest.raises(AssertionError):
        bad.replay()


def test_flows_by_rule():
    g, k = three_ai_instance()
    pr = params_for(k)
    ledger = run_main_discharge(g, pr)
    assert ledger.outflow(18, {"R3ai"}) == pr.gamma
    assert ledger.outflow(18, {"R1", "R2"}) == 0
    assert ledger.inflow(0, {"R3ai"}) == pr.gamma
    assert ledger.outflow(24, {"R2"}) == 2 * pr.gamma
    assert ledger.outflow(24, {"R1"}) == 4 * pr.epsilon


def test_sponsorship_reads_the_ledgers_components(monkeypatch):
    # the auxiliary graph is built once, by the discharge, and never again
    g, k = three_ai_instance()
    pr = params_for(k)
    built = []
    build = structure_module.build_auxiliary

    def counted(g, k):
        built.append(k)
        return build(g, k)

    for module in (discharge_module, structure_module):
        monkeypatch.setattr(module, "build_auxiliary", counted)
    ledger = run_main_discharge(g, pr)
    sponsorship_stats(g, pr, ledger)
    assert built == [k]


def test_audit_rejects_foreign_components():
    g, k = three_ai_instance()
    pr = params_for(k)
    ledger = run_main_discharge(g, pr)
    for comp in (tuple(range(24, 31)), (0, 999), (-1, 0)):
        with pytest.raises(PreconditionError):
            tree_charge_audit(g, comp, pr, ledger)
    with pytest.raises(AssertionError):
        # two high vertices induce a K_2 but received nothing
        tree_charge_audit(g, (18, 19), pr, ledger)


def test_audit_rejects_a_repeated_vertex():
    g, k = three_ai_instance()
    pr = params_for(k)
    ledger = run_main_discharge(g, pr)
    tree_charge_audit(g, [0, 1, 2, 3, 4, 5], pr, ledger)
    with pytest.raises(PreconditionError) as err:
        tree_charge_audit(g, [0, 0, 1, 2, 3, 4, 5], pr, ledger)
    assert err.value.witness == [0, 0, 1, 2, 3, 4, 5]


# the set-based procedures as first written, kept as the oracle for the rule
# loop on vertex masks

def reference_check_degrees_and_trees(g, k):
    for v in range(g.n):
        if g.degree(v) < k - 1:
            raise PreconditionError(
                "vertex %d has degree %d < k-1" % (v, g.degree(v)), witness=v
            )
    split = low_high_split(g, k)
    for comp in split.l_components:
        if not _in_t_k(g._adj, _vertex_mask(comp), k):
            raise PreconditionError(
                "a component of the degree-(k-1) subgraph falls outside the "
                "clique-or-odd-cycle-block family",
                witness=tuple(sorted(comp)),
            )
    return split


def reference_share_equally(components, charge, transfers, rule):
    shares = []
    for i, comp in enumerate(components):
        members = sorted(comp)
        total = sum((charge[v] for v in members), F(0))
        share = total / len(members)
        pool = "share:%d" % i
        for v in members:
            transfers.append((rule, v, pool, charge[v]))
            charge[v] = F(0)
        for v in members:
            transfers.append((rule, pool, v, share))
            charge[v] = share
        shares.append(ComponentShare(i, tuple(members), total, share))
    return tuple(shares)


def reference_gallai_discharge(g, k):
    if k < 4:
        raise PreconditionError("k must be at least 4", witness=k)
    split = reference_check_degrees_and_trees(g, k)
    amount = F(k - 1, k * k - 3)
    charge = [F(g.degree(v)) for v in range(g.n)]
    transfers = []
    for v in range(g.n):
        if g.degree(v) >= k:
            for u in g.neighbors(v):
                if g.degree(u) == k - 1:
                    transfers.append(("G1", v, u, amount))
                    charge[v] -= amount
                    charge[u] += amount
    shares = reference_share_equally(split.l_components, charge, transfers, "G2")
    initial = tuple(F(d) for d in g.degrees())
    return ChargeLedger(g.n, initial, tuple(transfers), tuple(charge), shares)


def reference_main_discharge(g, params):
    k = params.k
    split = reference_check_degrees_and_trees(g, k)
    aux = build_auxiliary(g, k)
    elim = eliminate(aux, params.mode)
    if not elim.succeeded:
        raise EliminationFailed(
            "auxiliary graph not %s-degenerate; residual %d trees / %d highs"
            % (params.mode, len(elim.residual_trees), len(elim.residual_highs)),
            residual=(elim.residual_trees, elim.residual_highs, elim.residual_edges),
        )
    in_w = set()
    for wset in aux.w_sets:
        in_w |= wset
    eps, gam = params.epsilon, params.gamma
    charge = [F(g.degree(v)) for v in range(g.n)]
    transfers = []

    def send(rule, src, dst, amount):
        transfers.append((rule, src, dst, amount))
        charge[src] -= amount
        charge[dst] += amount

    for v in range(g.n):
        if g.degree(v) >= k:
            for u in g.neighbors(v):
                if g.degree(u) == k - 1 and u not in in_w:
                    send("R1", v, u, eps)
        if g.degree(v) >= k + 1:
            for u in g.neighbors(v):
                if u in in_w:
                    send("R2", v, u, gam)
    present_highs = set(aux.y_vertices)
    present_trees = set(range(len(aux.tree_components)))
    adjacency = {y: sorted(i for z, i in aux.edges if z == y) for y in aux.y_vertices}
    for kind, ident in elim.order:
        if kind == "tree":
            wset = aux.w_sets[ident]
            for v in sorted(present_highs):
                wn = sorted(u for u in g.neighbors(v) if u in wset)
                if len(wn) == 2:
                    send("R3ai", v, wn[0], gam)
            present_trees.discard(ident)
        else:
            for i in adjacency[ident]:
                if i in present_trees:
                    for x in sorted(u for u in g.neighbors(ident) if u in aux.w_sets[i]):
                        send("R3bi", ident, x, gam)
            present_highs.discard(ident)
    shares = reference_share_equally(split.l_components, charge, transfers, "R4-share")
    initial = tuple(F(d) for d in g.degrees())
    return ChargeLedger(g.n, initial, tuple(transfers), tuple(charge), shares)


def reference_sponsorship_stats(g, params, ledger):
    aux = build_auxiliary(g, params.k)
    gamma_counts = {
        y: sum(1 for r, s, _, _ in ledger.transfers if s == y and r in ("R3ai", "R3bi"))
        for y in aux.y_vertices
    }
    got_gamma = {(s, d) for r, s, d, _ in ledger.transfers if r in ("R2", "R3ai", "R3bi")}
    unsponsored = {}
    max_w = 0
    for i, comp in enumerate(aux.tree_components):
        missing = 0
        for x in sorted(aux.w_sets[i]):
            for u in g.neighbors(x):
                if u not in comp and (u, x) not in got_gamma:
                    missing += 1
        unsponsored[i] = missing
        for y in aux.y_vertices:
            max_w = max(max_w, sum(1 for u in g.neighbors(y) if u in aux.w_sets[i]))
    return SponsorStats(gamma_counts, unsponsored, max_w)


def oracle_corpus():
    """(label, graph, k): the generated corpus for k = 5..8, stalled and
    rule-3ai instances, seeded padded Gallai forests and seeded random graphs
    (which mostly fail a precondition)."""
    out = [(inst.label, inst.graph, k) for k in (5, 6, 7, 8) for inst in charge_corpus(k)]
    for args in ((5, 3, 3), (5, 4, 4), (6, 3, 4), (6, 4, 3), (7, 3, 5), (7, 4, 4), (8, 3, 6)):
        out.append(("stalled%s" % (args,), stalled_aux_instance(*args)[0], args[0]))
    g, k = three_ai_instance()
    out.append(("3ai", g, k))
    rng = Random(2016)
    pools = {k: list(enumerate_gallai_trees(k, 6)) for k in (5, 6, 7, 8)}
    for i in range(80):
        k = rng.choice((5, 6, 7, 8))
        trees = [rng.choice(pools[k]) for _ in range(rng.randint(1, 3))]
        mode = rng.choice(("single", "double", "pair", "mixed"))
        try:
            out.append(("forest%d" % i, build_charge_instance(k, trees, mode).graph, k))
        except AssertionError:  # the builder found nowhere to put a slot
            pass
    for i in range(60):
        n = rng.randint(4, 12)
        p = rng.random()
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        out.append(("random%d" % i, Graph(n, edges), rng.choice((4, 5, 6, 7))))
    return out


def outcome(f, *args):
    """repr of f's result, or of the error it raised with its payload."""
    try:
        return repr(f(*args))
    except (PreconditionError, EliminationFailed, AssertionError) as e:
        payload = getattr(e, "residual", getattr(e, "witness", None))
        return (type(e).__name__, str(e), repr(payload))


def test_rule_loop_matches_the_set_based_procedures():
    fired = set()
    for label, g, k in oracle_corpus():
        want = outcome(reference_gallai_discharge, g, k)
        assert outcome(run_gallai_discharge, g, k) == want, label
        if not isinstance(want, tuple):
            fired |= {r for r, *_ in run_gallai_discharge(g, k).transfers}
        for mode in ("auto", "symmetric", "lopsided"):
            try:
                pr = params_for(k, mode)
            except PreconditionError:  # the regime does not cover k
                continue
            want = outcome(reference_main_discharge, g, pr)
            assert outcome(run_main_discharge, g, pr) == want, (label, mode)
            if isinstance(want, tuple):
                continue
            ledger = run_main_discharge(g, pr)
            fired |= {r for r, *_ in ledger.transfers}
            assert repr(sponsorship_stats(g, pr, ledger)) == repr(
                reference_sponsorship_stats(g, pr, ledger)
            ), (label, mode)
            # audits, also of vertex sets that are not components
            comps = list(low_high_split(g, k).l_components) + [(0, 1), tuple(range(g.n))[-3:]]
            for comp in comps:
                received = sum((ledger.inflow(v, _RECEIVE_RULES) for v in comp), F(0))
                got = outcome(tree_charge_audit, g, comp, pr, ledger)
                if not isinstance(got, tuple):
                    assert tree_charge_audit(g, comp, pr, ledger).received == received
                elif "received" in got[1]:
                    assert "received %s <" % received in got[1]
    assert fired == {"G1", "G2", "R1", "R2", "R3ai", "R3bi", "R4-share"}
