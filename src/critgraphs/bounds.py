"""Closed-form average-degree bounds and parameter-family checkers.

All arithmetic is exact (fractions.Fraction). Displayed decimals follow the
published reference table's own conventions: the `here` column truncates at
four decimals, every other column rounds half-up, and one printed cell
(kriv, k=15) is kept as a verbatim fixture because the printed digits differ
from the rounded exact value.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .errors import PreconditionError
from .generators import _gallai_trees
from .graph import Graph, _vertex_mask
from .structure import REGIMES, _w_q, regime

F = Fraction


@dataclass(frozen=True)
class BoundParams:
    """Parameter triple (p, f, h) for the tree bound at a given k."""

    k: int
    p: Fraction
    f: Fraction
    h: Fraction


PRESETS = ("gallai", "ks", "smallP")


def preset_params(k: int, name: str) -> BoundParams:
    if k < 4:
        raise PreconditionError(f"presets need k >= 4, got {k}")
    if name == "gallai":
        return BoundParams(k, 1 + F(2, k - 1), F(-2), F(0))
    if name == "ks":
        d = k * k - 3 * k + 4
        return BoundParams(
            k,
            F(4 * (k - 1), d),
            F(-4 * (k * k - 3 * k + 2), d),
            F(k * k - 3 * k, d),
        )
    if name == "smallP":
        d = k * k - 4 * k + 5
        return BoundParams(
            k,
            F(3 * k - 5, d),
            F(-2 * (k - 1) * (2 * k - 5), d),
            F(k * (k - 3), d),
        )
    raise PreconditionError(f"unknown preset {name!r}; choose from {PRESETS}")


def g_family(k: int, c) -> Fraction:
    """Average-degree bound family: k-1 + (k-3)/((k-c)(k-1)+k-3)."""
    c = F(c)
    den = (k - c) * (k - 1) + (k - 3)
    if den <= 0:
        raise PreconditionError(f"g_family denominator not positive for k={k}, c={c}")
    return (k - 1) + F(k - 3) / den


def alpha(k: int) -> Fraction:
    return F(1, 2) - F(1, (k - 1) * (k - 2))


def dirac_bound(k: int, n: int) -> int:
    """Lower bound on 2*edge count: (k-1)n + k-3."""
    return (k - 1) * n + k - 3


def ky_bound(k: int, n: int) -> int:
    """Lower bound on the edge count: ceil(((k+1)(k-2)n - k(k-3)) / (2(k-1)))."""
    if k < 2:
        raise PreconditionError(f"ky_bound denominator not positive for k={k}")
    num = (k + 1) * (k - 2) * n - k * (k - 3)
    den = 2 * (k - 1)
    return -((-num) // den)


def ky_asymptotic(k: int) -> Fraction:
    return F((k + 1) * (k - 2), k - 1)


@dataclass(frozen=True)
class CheckReport:
    name: str
    k_ok: bool
    conditions: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return self.k_ok and all(ok for _, ok in self.conditions)

    @property
    def failed(self) -> tuple[str, ...]:
        out = () if self.k_ok else ("k-range",)
        return out + tuple(label for label, ok in self.conditions if not ok)


def check_lemma31(bp: BoundParams) -> CheckReport:
    k, p, f = bp.k, bp.p, bp.f
    conds = (
        ("1: p >= -f/(k-2)", p >= -f / (k - 2)),
        ("2: p >= -f/5 + 5 - k", p >= -f / 5 + 5 - k),
        ("3: 0 >= f >= -k+2", F(0) >= f >= -k + 2),
        ("4: p >= 3/(k-2)", p >= F(3, k - 2)),
    )
    return CheckReport("lemma31", k >= 4, conds)


def check_lemma32(bp: BoundParams) -> CheckReport:
    k, p, f, h = bp.k, bp.p, bp.f, bp.h
    conds = (
        ("1: f >= (k-1)(1-p-h)", f >= (k - 1) * (1 - p - h)),
        ("2: p >= 3/(k-2)", p >= F(3, k - 2)),
        ("3: p >= h + 5 - k", p >= h + 5 - k),
        ("4: p >= (2+h)/(k-2)", p >= (2 + h) / (k - 2)),
        ("5: (k-1)p + (k-3)h >= k+1", (k - 1) * p + (k - 3) * h >= k + 1),
    )
    return CheckReport("lemma32", k >= 4, conds)


def check_regime(bp: BoundParams, mode: str) -> CheckReport:
    """Lemma 3.2's conditions plus the two the mode's discharging needs;
    condition 6 lets a tree miss c gammas."""
    k, p, f, h = bp.k, bp.p, bp.f, bp.h
    c = REGIMES[mode].c
    c_term = "h + 1" if c == 1 else "%d(h+1)" % c
    conds = check_lemma32(bp).conditions + (
        ("6: %s + f <= 0" % c_term, c * (h + 1) + f <= 0),
        ("7: p + (k-5)h <= k+1", p + (k - 5) * h <= k + 1),
    )
    return CheckReport(REGIMES[mode].check, k >= 5 and regime(k) == mode, conds)


def check_thm41(bp: BoundParams) -> CheckReport:
    return check_regime(bp, "symmetric")


def check_thm43(bp: BoundParams) -> CheckReport:
    return check_regime(bp, "lopsided")


@dataclass(frozen=True)
class DischargeParams:
    k: int
    bp: BoundParams
    mode: str
    epsilon: Fraction
    gamma: Fraction

    @property
    def target(self) -> Fraction:
        return (self.k - 1) + (2 - self.bp.p) * self.epsilon


def _epsilon(bp: BoundParams, s: int) -> Fraction:
    """epsilon = 1/(k+2+s*h-p): a degree-k vertex that sends epsilon on its
    other edges and s gammas of gamma = epsilon*(h+1) keeps the target
    (k-1) + (2-p)*epsilon."""
    return 1 / F(bp.k + 2 + s * bp.h - bp.p)


def make_params(k: int, bp: BoundParams, mode: str = "auto") -> DischargeParams:
    """The discharging parameters of a triple built for k that passes the
    report of regime(k, mode)."""
    if bp.k != k:
        raise PreconditionError("bp was built for k=%d, not %d" % (bp.k, k))
    mode = regime(k, mode)
    report = check_regime(bp, mode)
    if not report.passed:
        raise PreconditionError(
            f"{report.name} conditions fail for k={k}: {', '.join(report.failed)}",
            witness=report,
        )
    eps = _epsilon(bp, REGIMES[mode].s)
    return DischargeParams(k, bp, mode, eps, eps * (bp.h + 1))


def tree_bound_rhs(bp: BoundParams, n: int, q: int) -> Fraction:
    """Right side of the tree degree bound: (k-3+p)n + f + h*q."""
    return (bp.k - 3 + bp.p) * n + bp.f + bp.h * q


def refined_tree_bound(k: int, n: int) -> Fraction:
    """Lemma 2.2's refined bound on 2||G|| for a Gallai tree: (k-2+2/(k-1))n - 2."""
    return (k - 2 + F(2, k - 1)) * n - 2


@functools.cache
def _tree_limits(k: int, n: int, q: Optional[int]) -> tuple[Fraction, Fraction]:
    """Lemma 2.2's refined bound on 2||T|| for a tree on n vertices, and the
    bound of Lemma 3.1 (q is None: T has no K_{k-1}) or of Corollary 3.3
    (q non-cut vertices in some K_{k-1})."""
    refined = refined_tree_bound(k, n)
    if q is None:
        limit = tree_bound_rhs(BoundParams(k=k, p=F(3, k - 2), f=F(-3), h=F(0)), n, 0)
    else:
        limit = tree_bound_rhs(preset_params(k, "smallP"), n, q)
    return refined, limit


def _tree_failures(k: int, n: int, m2: int, w: int, q: int) -> list[str]:
    """The names of the per-tree bounds that fail for a tree on n vertices
    with 2||T|| = m2, W mask w and q."""
    refined, limit = _tree_limits(k, n, q if w else None)
    failures = []
    if not m2 - 2 < refined:
        failures.append("basic-strict")
    if not m2 <= refined:
        failures.append("refined-minus-2")
    if not m2 <= limit:
        failures.append("with-clique" if w else "without-clique")
    return failures


def tree_bound_failures(g: Graph, k: int) -> list[str]:
    """The four per-tree bounds on 2||G|| (Lemmas 2.2, 3.1 and Corollary
    3.3) for a Gallai tree g; returns the names of any that fail."""
    w, q = _w_q(g._adj, (1 << g.n) - 1, k)
    return _tree_failures(k, g.n, 2 * g.m, w, q)


def _blocks_w_q(blocks, k: int) -> tuple[int, int]:
    """W and q of a Gallai tree from its block list, as _w_q gives them.
    W is the union of the clique blocks on k-1 vertices: clique blocks stop
    at k-1 and a cycle block of length 5 or more holds no triangle, so every
    K_{k-1} is one of them.  The cut vertices lie in two blocks or more."""
    w = seen = cuts = 0
    for kind, ring in blocks:
        b = _vertex_mask(ring)
        cuts |= seen & b
        seen |= b
        if kind == "clique" and len(ring) == k - 1:
            w |= b
    return w, (w & ~cuts).bit_count()


def _tree_bound_sweep(k: int, n_max: int) -> Iterator[tuple[Graph, list[str]]]:
    """(g, tree_bound_failures(g, k)) for each g of
    enumerate_gallai_trees(k, n_max), with W and q read off the block list
    the enumeration built g from."""
    for g, blocks in _gallai_trees(k, n_max):
        w, q = _blocks_w_q(blocks, k)
        yield g, _tree_failures(k, g.n, 2 * g.m, w, q)


def main_bound(k: int, variant: str, bp: BoundParams) -> Fraction:
    """Average-degree bound implied by a passing parameter triple: the
    target of its discharging parameters.

    variant: "thm41" or "thm43" (the regime whose report is named so), or
    "auto" (the regime applied at k).
    """
    modes = {r.check: mode for mode, r in REGIMES.items()}
    if variant != "auto" and variant not in modes:
        raise PreconditionError(f"unknown variant {variant!r}")
    return make_params(k, bp, modes.get(variant, "auto")).target


# ---------------------------------------------------------------------------
# reference table

TABLE1_COLUMNS = ("gallai", "kriv", "ks_critical", "ky", "ks_list", "kr", "here")

# columns with no usable closed form at these k: printed digits kept verbatim
_FIXTURE_CELLS: dict[tuple[int, str], str] = {
    (9, "ks_list"): "8.0838",
    (10, "ks_list"): "9.0793",
    (15, "ks_list"): "14.0610",
    (20, "ks_list"): "19.0490",
    (5, "kr"): "4.0984",
    (6, "kr"): "5.1053",
}

# single printed cell that disagrees with half-up rounding of the exact value
_PRINT_OVERRIDES: dict[tuple[int, str], str] = {(15, "kriv"): "14.0618"}


def _fmt(x: Fraction, rule: str) -> str:
    scaled = x * 10_000
    if rule == "trunc":
        i = scaled.numerator // scaled.denominator
    else:  # round half up
        half = scaled + F(1, 2)
        i = half.numerator // half.denominator
    return f"{i // 10_000}.{i % 10_000:04d}"


@dataclass(frozen=True)
class TableCell:
    exact: Optional[Fraction]
    display: Optional[str]  # None renders as an absent cell


def _kr_formula(k: int) -> Fraction:
    return (k - 1) + F(2 * (k - 2) * (k - 3), (k - 1) * (k * k + 3 * k - 12))


def table1(ks) -> dict[int, dict[str, TableCell]]:
    """Exact values plus printed-style display for the reference table."""
    out: dict[int, dict[str, TableCell]] = {}
    for k in ks:
        if k < 4:
            raise PreconditionError(f"table rows start at k = 4, got {k}")
        row: dict[str, TableCell] = {}

        def put(col: str, exact: Optional[Fraction], rule: str = "round") -> None:
            if (k, col) in _PRINT_OVERRIDES:
                row[col] = TableCell(exact, _PRINT_OVERRIDES[(k, col)])
            elif exact is not None:
                row[col] = TableCell(exact, _fmt(exact, rule))
            elif (k, col) in _FIXTURE_CELLS:
                row[col] = TableCell(None, _FIXTURE_CELLS[(k, col)])
            else:
                row[col] = TableCell(None, None)

        put("gallai", g_family(k, 0))
        put("kriv", g_family(k, 2))
        put("ks_critical", g_family(k, (k - 5) * alpha(k)) if k >= 6 else None)
        put("ky", ky_asymptotic(k))
        put("ks_list", None)
        put("kr", _kr_formula(k) if k >= 7 else None)
        here = main_bound(k, "auto", preset_params(k, "smallP")) if k >= 5 else None
        put("here", here, "trunc")
        out[k] = row
    return out
