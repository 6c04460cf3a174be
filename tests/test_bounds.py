"""Parameter presets, condition checkers, and the reference bound table."""

from fractions import Fraction as F

import networkx as nx
import pytest

import critgraphs
import critgraphs.bounds as bounds_module
import critgraphs.discharge as discharge_module
import critgraphs.graph as graph_module
from conftest import nx_to_graph
from critgraphs import (
    BoundParams,
    PreconditionError,
    check_lemma31,
    check_lemma32,
    check_thm41,
    check_thm43,
    contains_clique,
    dirac_bound,
    enumerate_gallai_trees,
    g_family,
    ky_asymptotic,
    ky_bound,
    main_bound,
    preset_params,
    q_value,
    table1,
    tree_bound_failures,
    tree_bound_rhs,
)
from critgraphs.bounds import (
    _blocks_w_q,
    _tree_bound_sweep,
    _tree_limits,
    refined_tree_bound,
)
from critgraphs.discharge import gallai_target
from critgraphs.generators import _gallai_trees
from critgraphs.structure import _w_q


def small_p(k):
    return preset_params(k, "smallP")


def test_preset_values():
    bp = preset_params(7, "gallai")
    assert (bp.p, bp.f, bp.h) == (F(4, 3), F(-2), F(0))
    bp = small_p(5)
    assert (bp.p, bp.f, bp.h) == (F(1), F(-4), F(1))
    bp = small_p(7)
    assert (bp.p, bp.f, bp.h) == (F(16, 26), F(-108, 26), F(28, 26))
    ks = preset_params(7, "ks")
    assert (ks.p, ks.f, ks.h) == (F(24, 32), F(-120, 32), F(28, 32))


def test_preset_rejects():
    with pytest.raises(PreconditionError):
        preset_params(3, "gallai")
    with pytest.raises(PreconditionError):
        preset_params(7, "nope")


def test_lemma31_accepts_the_loose_pair():
    for k in range(5, 31):
        bp = BoundParams(k, F(3, k - 2), F(-3), F(0))
        report = check_lemma31(bp)
        assert report.passed, report.failed


def test_lemma31_rejects_positive_or_deep_f():
    assert not check_lemma31(BoundParams(5, F(1), F(1), F(0))).passed
    assert not check_lemma31(BoundParams(5, F(1), F(-10), F(0))).passed


def test_condition_reports_name_failures():
    bp = BoundParams(7, F(0), F(-99), F(0))
    report = check_lemma32(bp)
    assert not report.passed
    assert report.failed
    names = [name for name, _ in report.conditions]
    assert all(name in names for name in report.failed)
    held = {name for name, ok in report.conditions if ok}
    assert not (held & set(report.failed))


def test_presets_pass_their_checkers():
    for k in (5, 6):
        assert check_thm43(small_p(k)).passed
    for k in range(7, 31):
        assert check_thm41(small_p(k)).passed
        assert check_thm41(preset_params(k, "ks")).passed
        assert check_thm41(preset_params(k, "gallai")).passed


def test_thm41_needs_k_at_least_seven():
    report = check_thm41(small_p(5))
    assert not report.k_ok
    assert not report.passed
    with pytest.raises(PreconditionError):
        main_bound(5, "thm41", small_p(5))


def test_thm43_is_for_five_and_six():
    assert check_thm43(small_p(5)).k_ok
    assert not check_thm43(small_p(7)).k_ok


def test_main_bound_auto_below_five_is_the_lopsided_regime():
    with pytest.raises(PreconditionError, match="thm43 conditions fail for k=4: k-range"):
        main_bound(4, "auto", preset_params(4, "smallP"))


def test_main_bound_refuses_params_for_another_k():
    assert main_bound(6, "auto", small_p(6)) == F(332, 65)
    with pytest.raises(PreconditionError, match="bp was built for k=5, not 6"):
        main_bound(6, "auto", preset_params(5, "smallP"))


def test_bounds_is_the_one_producer_of_the_discharge_parameters():
    assert critgraphs.make_params is bounds_module.make_params is discharge_module.make_params
    assert critgraphs.DischargeParams is discharge_module.DischargeParams
    for k in range(4, 31):
        assert gallai_target(k) == g_family(k, 0) == table1([k])[k]["gallai"].exact


def test_main_bound_closed_forms():
    for k in (5, 6):
        got = main_bound(k, "auto", small_p(k))
        want = (k - 1) + F((k - 3) * (2 * k - 5), k**3 + 2 * k**2 - 18 * k + 15)
        assert got == want
    for k in range(7, 101):
        got = main_bound(k, "auto", small_p(k))
        want = (k - 1) + F((k - 3) * (2 * k - 5), k**3 + k**2 - 15 * k + 15)
        assert got == want


def test_main_bound_beats_the_baseline():
    for k in range(5, 31):
        assert main_bound(k, "auto", small_p(k)) > gallai_target(k)


def test_gallai_preset_reproduces_its_target():
    for k in range(7, 31):
        assert main_bound(k, "thm41", preset_params(k, "gallai")) == gallai_target(k)


def test_specific_bound_values():
    assert main_bound(7, "auto", small_p(7)) == F(924, 151)
    assert main_bound(5, "auto", small_p(5)) == F(41, 10)
    assert gallai_target(7) == F(140, 23)


def test_tree_bound_rhs_arithmetic():
    bp = small_p(5)
    assert tree_bound_rhs(bp, 20, 2) == F(58)
    assert tree_bound_rhs(bp, 1, 0) == F(-1)
    bp31 = BoundParams(5, F(1), F(-3), F(0))
    assert tree_bound_rhs(bp31, 7, 99) == F(3 * 7 - 3)


def test_dirac_and_ky_formulas():
    assert dirac_bound(4, 6) == 3 * 6 + 1  # on twice the edge count
    assert ky_bound(4, 6) == 10
    assert ky_bound(4, 4) == 6  # met with equality by the complete graph
    for k in (4, 5, 6):
        for n in range(k, 30):
            assert ky_bound(k, n + 1) >= ky_bound(k, n)
    # long-run slope approaches the asymptotic average degree
    k = 6
    slope = F(ky_bound(k, 1001) - ky_bound(k, 1), 1000)
    assert abs(2 * slope - ky_asymptotic(k)) < F(1, 100)
    # the denominator 2(k - 1) is not positive below k = 2
    for k in (-1, 0, 1):
        with pytest.raises(PreconditionError):
            ky_bound(k, 5)


def test_g_family_values():
    assert g_family(5, 1) == F(4) + F(2, 18)
    assert g_family(7, F(1, 2)) == F(6) + F(4, 43)
    with pytest.raises(PreconditionError):
        g_family(5, 99)


EXPECTED_GRID = {
    4: ("3.0769", "3.1429", None, "3.3333", None, None, None),
    5: ("4.0909", "4.1429", None, "4.5000", None, "4.0984", "4.1000"),
    6: ("5.0909", "5.1304", "5.0976", "5.6000", None, "5.1053", "5.1076"),
    7: ("6.0870", "6.1176", "6.0990", "6.6667", None, "6.1149", "6.1192"),
    8: ("7.0820", "7.1064", "7.0980", "7.7143", None, "7.1128", "7.1167"),
    9: ("8.0769", "8.0968", "8.0959", "8.7500", "8.0838", "8.1094", "8.1130"),
    10: ("9.0722", "9.0886", "9.0932", "9.7778", "9.0793", "9.1055", "9.1088"),
    15: ("14.0541", "14.0618", "14.0785", "14.8571", "14.0610", "14.0864", "14.0884"),
    20: ("19.0428", "19.0474", "19.0666", "19.8947", "19.0490", "19.0719", "19.0733"),
}

COLUMNS = ("gallai", "kriv", "ks_critical", "ky", "ks_list", "kr", "here")


def test_table_matches_published_digits():
    grid = table1(sorted(EXPECTED_GRID))
    for k, want in EXPECTED_GRID.items():
        got = tuple(grid[k][c].display for c in COLUMNS)
        assert got == want, k


def test_table_exact_cells():
    grid = table1([5, 7])
    assert grid[7]["gallai"].exact == F(140, 23)
    assert grid[7]["here"].exact == F(924, 151)
    assert grid[5]["here"].exact == F(41, 10)
    assert grid[5]["ks_critical"].exact is None


def test_table_rejects_small_k():
    with pytest.raises(PreconditionError):
        table1([3])


# the per-tree checks, against the form that found W twice

def reference_tree_bound_failures(g, k):
    """tree_bound_failures with W searched for twice: q from q_value, and
    the branch from contains_clique."""
    n, m2 = g.n, 2 * g.m
    q = q_value(g, k)
    refined = refined_tree_bound(k, n)
    failures = []
    if not m2 < refined + 2:
        failures.append("basic-strict")
    if not m2 <= refined:
        failures.append("refined-minus-2")
    if contains_clique(g, k - 1)[0]:
        if not m2 <= tree_bound_rhs(small_p(k), n, q):
            failures.append("with-clique")
    else:
        bp = BoundParams(k=k, p=F(3, k - 2), f=F(-3), h=F(0))
        if not m2 <= tree_bound_rhs(bp, n, 0):
            failures.append("without-clique")
    return failures


def failures_outcome(f, g, k):
    try:
        return f(g, k)
    except Exception as e:  # the outcome is compared, whatever it is
        return (type(e).__name__, str(e))


def test_tree_bound_failures_match_the_two_search_form():
    # every Gallai tree up to 8 vertices for k = 4..8, and the atlas graphs
    # 1-399 (some disconnected, some k too small for the presets) at k = 2..6
    cases = [(g, k) for k in range(4, 9) for g in enumerate_gallai_trees(k, 8)]
    atlas = [nx_to_graph(h) for h in nx.graph_atlas_g()[1:400]]
    cases += [(g, k) for g in atlas for k in range(2, 7)]
    seen = set()
    for g, k in cases:
        want = failures_outcome(reference_tree_bound_failures, g, k)
        assert failures_outcome(tree_bound_failures, g, k) == want, (g.edges(), k)
        seen.add(want[1].split()[0] if isinstance(want, tuple) else contains_clique(g, k - 1)[0])
    assert len(cases) == 3055
    # both branches ran, and both refusals: a disconnected graph, k below the presets'
    assert seen == {True, False, "graph", "presets"}


def test_tree_bound_failures_search_cliques_once(monkeypatch):
    trees = list(enumerate_gallai_trees(5, 8))
    searches = 0
    expand = graph_module._expand

    def counted(adj, r, p, x, t=0):
        nonlocal searches
        searches += r == 0  # a recursive call always holds a vertex in r
        return expand(adj, r, p, x, t)

    monkeypatch.setattr(graph_module, "_expand", counted)
    for g in trees:
        tree_bound_failures(g, 5)
    assert searches == len(trees)


def test_tree_bound_sweep_agrees_with_the_graph_path():
    # W and q off the block list against a block search and a clique search
    # of the graph, and the sweep's verdicts against tree_bound_failures
    seen = set()
    for k in range(4, 9):
        sweep = list(_tree_bound_sweep(k, 9))
        trees = list(_gallai_trees(k, 9))
        assert len(sweep) == len(trees)
        for (g, blocks), (h, failures) in zip(trees, sweep):
            assert h == g
            w_q = _blocks_w_q(blocks, k)
            assert w_q == _w_q(g._adj, (1 << g.n) - 1, k), (g.edges(), k)
            assert failures == tree_bound_failures(g, k), (g.edges(), k)
            seen.add((w_q[0] != 0, tuple(failures)))
    # both branches ran, and some tree failed a bound (k = 4 has failures)
    assert {(True, ()), (False, ())} < seen


def test_tree_limits_are_the_uncached_bounds():
    for k in range(4, 10):
        without = BoundParams(k=k, p=F(3, k - 2), f=F(-3), h=F(0))
        for n in range(1, 13):
            refined = refined_tree_bound(k, n)
            assert _tree_limits(k, n, None) == (refined, tree_bound_rhs(without, n, 0))
            for q in range(n + 1):
                assert _tree_limits(k, n, q) == (refined, tree_bound_rhs(small_p(k), n, q))
