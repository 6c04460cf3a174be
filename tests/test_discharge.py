"""Charge redistribution: parameters, rules, ledgers, audits."""

import json
from fractions import Fraction as F
from hashlib import sha256
from itertools import combinations
from random import Random

import pytest

import critgraphs.discharge as discharge_module
import critgraphs.graph as graph_module
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
    in_t_k,
    induced_subgraph,
    low_high_split,
    main_bound,
    make_params,
    preset_params,
    run_gallai_discharge,
    run_main_discharge,
    sponsorship_stats,
    tree_charge_audit,
    write_graph6,
)
from critgraphs.cli import main
from critgraphs.discharge import _RECEIVE_RULES, ComponentShare, SponsorStats
from critgraphs.graph import _vertex_mask


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
        if not in_t_k(induced_subgraph(g, sorted(comp))[0], k):
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


# replay in integer units against the Fraction fold it replaced

def reference_replay(ledger):
    """ChargeLedger.replay as first written: one Fraction operation per end of
    every transfer."""
    charge = {v: ledger.initial[v] for v in range(ledger.n)}
    for _, src, dst, amount in ledger.transfers:
        charge[src] = charge.get(src, F(0)) - amount
        charge[dst] = charge.get(dst, F(0)) + amount
    for node, value in charge.items():
        if isinstance(node, str) and value != 0:
            raise AssertionError("pool %r nets %s, expected 0" % (node, value))
    return tuple(charge[v] for v in range(ledger.n))


def test_replay_matches_the_fraction_fold_on_the_oracle_corpus():
    checked = {"gallai": 0, "auto": 0, "symmetric": 0, "lopsided": 0}
    for label, g, k in oracle_corpus():
        ledgers = []
        try:
            ledgers.append(("gallai", run_gallai_discharge(g, k)))
        except PreconditionError:
            pass
        for mode in ("auto", "symmetric", "lopsided"):
            try:
                ledgers.append((mode, run_main_discharge(g, params_for(k, mode))))
            except (PreconditionError, EliminationFailed):
                pass
        for mode, ledger in ledgers:
            assert repr(ledger.replay()) == repr(reference_replay(ledger)), (label, mode)
            assert ledger.replay() == ledger.final
            checked[mode] += 1
    assert min(checked.values()) >= 40, checked


def hand_built_ledger(residue=F(0)):
    """Eight vertices with int and Fraction starts; int amounts beside
    eps = 1/7; then shares over three members and over five, the second pool
    keeping residue back from its last member."""
    eps = F(1, 7)
    initial = (4, F(5), F(9, 2), 3, F(4), 6, F(7, 3), 5)
    transfers = [
        ("R1", 1, 0, eps), ("R1", 5, 2, eps), ("R2", 5, 3, 1),
        ("R2", 7, 4, 2), ("R1", 7, 6, eps), ("R3ai", 6, 3, eps),
    ]
    charge = list(initial)
    for _, src, dst, amount in transfers:
        charge[src] -= amount
        charge[dst] += amount
    final = list(charge)
    shares = []
    for i, members in enumerate(((0, 1, 2), (3, 4, 5, 6, 7))):
        pool = "share:%d" % i
        total = sum((F(charge[v]) for v in members), F(0))
        share = total / len(members)
        transfers += [("R4-share", v, pool, charge[v]) for v in members]
        transfers += [("R4-share", pool, v, share) for v in members]
        for v in members:
            final[v] = share
        shares.append(ComponentShare(i, members, total, share))
    if residue:
        rule, pool, v, share = transfers.pop()
        transfers.append((rule, pool, v, share - residue))
        final[v] = share - residue
    return ChargeLedger(8, initial, tuple(transfers), tuple(final), tuple(shares))


def test_replay_of_a_hand_built_ledger():
    ledger = hand_built_ledger()
    assert ledger.conserved
    got = ledger.replay()
    assert got == ledger.final == reference_replay(ledger)
    assert repr(got) == repr(reference_replay(ledger))
    assert all(type(x) is F for x in got)
    assert got[:3] == (F(191, 42),) * 3  # (4 + 5 + 9/2 + 1/7) / 3
    assert got[3:] == (F(424, 105),) * 5  # (3 + 4 + 6 + 7/3 + 5 - 1/7) / 5
    assert ledger.outflow(5) == 6  # 1/7 and 1 by the rules, then its charge to the pool
    assert ledger.inflow(3, {"R2", "R3ai"}) == 1 + F(1, 7)
    assert type(ledger.inflow(3, {"R2"})) is F and ledger.inflow(3, {"R2"}) == 1
    assert ledger.outflow(3, {"R1"}) == F(0) and type(ledger.outflow(3, {"R1"})) is F


def test_replay_names_a_pools_residue_as_a_fraction():
    ledger = hand_built_ledger(residue=F(1, 3))
    assert not ledger.conserved
    with pytest.raises(AssertionError) as want:
        reference_replay(ledger)
    with pytest.raises(AssertionError) as got:
        ledger.replay()
    assert str(got.value) == str(want.value) == "pool 'share:1' nets 1/3, expected 0"


# one Fraction per distinct charge

def per_vertex_fractions(counts, unit):
    """The construction discharge._fractions replaced: a fresh Fraction per entry."""
    return [F(c, unit) for c in counts]


def test_ledgers_build_one_fraction_per_distinct_charge(monkeypatch):
    inst = max(charge_corpus(7), key=lambda i: i.graph.n)
    g, pr = inst.graph, params_for(7)
    made = []

    def counted(*args):
        made.append(args)
        return F(*args)

    monkeypatch.setattr(discharge_module, "Fraction", counted)
    ledger = run_main_discharge(g, pr)
    built = len(made)
    made.clear()
    ledger.replay()
    # a fresh Fraction per vertex made 192 and 94 on these 94 vertices
    assert g.n == 94 and built < g.n / 4 and len(made) < g.n / 4, (built, len(made))


def test_shared_fractions_match_a_fresh_fraction_per_vertex(monkeypatch):
    instances = [three_ai_instance()] + [(i.graph, k) for k in (5, 6, 7, 8) for i in charge_corpus(k)]

    def ledgers():
        out = []
        for g, k in instances:
            for ledger in (run_main_discharge(g, params_for(k)), run_gallai_discharge(g, k)):
                out.append((ledger, repr(ledger), repr(ledger.replay())))
        return out

    shared = ledgers()
    monkeypatch.setattr(discharge_module, "_fractions", per_vertex_fractions)
    assert shared == ledgers()


# discharge documents through main(), pinned as computed before charges were
# summed in integer units

def seeded_forest(seed):
    """(graph, k): one to three random Gallai trees on at most six vertices,
    padded by build_charge_instance in a random mode."""
    rng = Random(seed)
    k = rng.choice((5, 6, 7))
    pool = list(enumerate_gallai_trees(k, 6))
    trees = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
    mode = rng.choice(("single", "double", "pair", "mixed"))
    return build_charge_instance(k, trees, mode).graph, k


def digest_instances():
    yield ("3ai", *three_ai_instance())
    yield "stalled(5,4,4)", stalled_aux_instance(5, 4, 4)[0], 5
    yield "stalled(7,3,5)", stalled_aux_instance(7, 3, 5)[0], 7
    for seed in (1, 3, 5, 7):
        yield ("forest%d" % seed, *seeded_forest(seed))


# per instance, (exit code, sha256 of the document without runtime) under
# --mode auto, symmetric, lopsided and gallai-sec2
DISCHARGE_DIGESTS = {
    "3ai": (
        (0, "a173025f338e0260251dc6efcbb164f84de4b623ccf7ed8e0d6d0dc79357e21c"),  # auto
        (0, "e15a671d11c667e2aa89fbfe3b504fe3c8d99b3c8e1ccd6fc55c56a4e61e7dab"),  # symmetric
        (3, "537a8107b7f22ec5933a7fed75a2c7876f9036d906d7a6abc497f56870b8cd76"),  # lopsided
        (0, "f7ccca2743de9626aacfab54bc639ca5c065985a1dc88ddb69544b6aeb314baf"),  # gallai-sec2
    ),
    "stalled(5,4,4)": (
        (1, "cf89ccefd9932ba2e704a42dd2069430f5f0e01c5d859a840e64ea536cb56490"),  # auto
        (3, "352df2057978244c7c69b16be02b041c27634b8cda4abec454cc9b4de7c2ebc0"),  # symmetric
        (1, "554f4e88d18b7206faf02e29fe763bf8f474e31a21f9cc66fcb26e493d33f54c"),  # lopsided
        (0, "b5742518b3af82a21e9091b206299c7682943bfc2587067b0755a800b8bba0c9"),  # gallai-sec2
    ),
    "stalled(7,3,5)": (
        (1, "7e572d2fe29769a3b8dc5d84644e1033d2e771fb3652cb76dbb0a4aa2c0ca415"),  # auto
        (1, "fc03e5d9fc196c7fcdcc3904a881eaa09aaf97c5f1d7fcaa4e367f0b201186f5"),  # symmetric
        (3, "537a8107b7f22ec5933a7fed75a2c7876f9036d906d7a6abc497f56870b8cd76"),  # lopsided
        (0, "0f698a665bb75e1b2cc8aa530e8a966423d241f3687767ac190054a05d8a4c79"),  # gallai-sec2
    ),
    "forest1": (
        (0, "f39c071e91c1fd61466dd8cacaf4052a0ad35efc1ed09b7fc2f5d260cdaab503"),  # auto
        (3, "352df2057978244c7c69b16be02b041c27634b8cda4abec454cc9b4de7c2ebc0"),  # symmetric
        (0, "741b60c6f6cc386a66995a7b64531a74ee9aa52276c24341788d2d19bc8b51c0"),  # lopsided
        (0, "75651a7dbeeaba16bebd7c968c1e5e693d93a8aa3a8de9ce3fe0ff79c842b978"),  # gallai-sec2
    ),
    "forest3": (
        (0, "95132f52bdbdc34c7bb7c8ee94fe41f1bd24a2b69cff78f54075a768702056e0"),  # auto
        (3, "352df2057978244c7c69b16be02b041c27634b8cda4abec454cc9b4de7c2ebc0"),  # symmetric
        (0, "81ec7a4b5ab4548b23328f73dfe637846c220f6386e3a7689637f6ef0fafad1a"),  # lopsided
        (0, "ee6b4faf331c7d93dd9cee1ae93c58f5fc3103ddf5b3e27a20636f8d367f8246"),  # gallai-sec2
    ),
    "forest5": (
        (0, "5673cce2179f3c0effbadcef66c5f16eb8340cf1558c32bb1e29145bddd5e798"),  # auto
        (0, "a28590bdee45965336548359336a72f9d3c09ac2ef423cfa55ffb8b1150d212e"),  # symmetric
        (3, "537a8107b7f22ec5933a7fed75a2c7876f9036d906d7a6abc497f56870b8cd76"),  # lopsided
        (0, "da5ed9bebd047a0d05872d6c851c10aed2d48f4239889025efde3f94bba59ba7"),  # gallai-sec2
    ),
    "forest7": (
        (0, "ed770ce28c05d3e43f00b81e27daa421d513f2eff98e0b7e8e8c6f496805ab20"),  # auto
        (3, "87acfce2cfb05938bdc4902289d615e37de64bfa4d009b28defc6e4e3578b08a"),  # symmetric
        (0, "3eb44d40376910fd971ace9a878d7311996a2cc4fab129f3bacf0fd99226ae7d"),  # lopsided
        (0, "c010b38c54407784416e49969a8358bc31d4684586ab95fb3622938f0352a152"),  # gallai-sec2
    ),
}


def test_discharge_documents_match_their_pinned_digests(capsys):
    got = {}
    for label, g, k in digest_instances():
        runs = []
        for mode in ("auto", "symmetric", "lopsided", "gallai-sec2"):
            code = main(["discharge", write_graph6(g), "--k", str(k), "--mode", mode])
            doc = json.loads(capsys.readouterr().out)
            doc.pop("runtime", None)
            runs.append((code, sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()))
        got[label] = tuple(runs)
    assert got == DISCHARGE_DIGESTS


def test_one_block_pass_per_component(monkeypatch):
    passes = []
    blocks = structure_module._blocks

    def counted(adj, mask):
        passes.append(mask)
        return blocks(adj, mask)

    monkeypatch.setattr(structure_module, "_blocks", counted)
    instances = [three_ai_instance()] + [(i.graph, k) for k in (5, 7) for i in charge_corpus(k)]
    for g, k in instances:
        pr = params_for(k)
        comps = low_high_split(g, k).l_components
        passes.clear()
        ledger = run_main_discharge(g, pr)
        assert sorted(passes) == sorted(_vertex_mask(c) for c in comps)
        for comp in comps:
            passes.clear()
            tree_charge_audit(g, comp, pr, ledger)
            assert passes == [_vertex_mask(comp)]


def test_ledgers_audits_and_sponsorship_run_no_clique_search(monkeypatch):
    # every component here is in T_k, so its W is read off its block pass
    # and carried on the ledger
    searches = []
    expand = graph_module._expand

    def counted(adj, r, p, x, t=0):
        searches.append(p)
        return expand(adj, r, p, x, t)

    monkeypatch.setattr(graph_module, "_expand", counted)
    instances = [three_ai_instance()] + [(i.graph, k) for k in (5, 7) for i in charge_corpus(k)]
    for g, k in instances:
        pr = params_for(k)
        ledger = run_main_discharge(g, pr)
        for comp in low_high_split(g, k).l_components:
            tree_charge_audit(g, comp, pr, ledger)
        sponsorship_stats(g, pr, ledger)
    assert searches == []
