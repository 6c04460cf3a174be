"""Exact-rational discharging simulator with replayable charge ledgers.

Two procedures are implemented: the two-rule redistribution behind the
k-1 + (k-3)/(k^2-3) average-degree bound (rules G1, G2), and the four-rule
procedure behind the sharper bounds (rules R1, R2, R3ai, R3bi, R4-share).
Every transfer is recorded, so a ledger can be replayed and audited after
the fact.  All arithmetic is fractions.Fraction; nothing is ever rounded.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .bounds import BoundParams, check_regime, epsilon
from .errors import EliminationFailed, PreconditionError
from .graph import Graph, _clique_vertices, _vertex_mask
from .structure import REGIMES, _in_t_k, _q, build_auxiliary, eliminate, low_high_split, regime

Node = Union[int, str]


@dataclass(frozen=True)
class ComponentShare:
    index: int
    vertices: tuple[int, ...]
    total: Fraction
    share: Fraction


@dataclass(frozen=True)
class ChargeLedger:
    n: int
    initial: tuple[Fraction, ...]
    transfers: tuple[tuple[str, Node, Node, Fraction], ...]
    final: tuple[Fraction, ...]
    component_shares: tuple[ComponentShare, ...] = ()

    @property
    def conserved(self) -> bool:
        return sum(self.initial) == sum(self.final)

    def replay(self) -> tuple[Fraction, ...]:
        """Recompute final charges from initial + transfers.  Pool pseudo-nodes
        (string ids used by the sharing rules) must net to zero."""
        charge: dict[Node, Fraction] = {v: self.initial[v] for v in range(self.n)}
        for _, src, dst, amount in self.transfers:
            charge[src] = charge.get(src, Fraction(0)) - amount
            charge[dst] = charge.get(dst, Fraction(0)) + amount
        for node, value in charge.items():
            if isinstance(node, str) and value != 0:
                raise AssertionError("pool %r nets %s, expected 0" % (node, value))
        return tuple(charge[v] for v in range(self.n))

    def outflow(self, v: Node, rules: Optional[set] = None) -> Fraction:
        return sum(
            (a for r, s, _, a in self.transfers if s == v and (rules is None or r in rules)),
            Fraction(0),
        )

    def inflow(self, v: Node, rules: Optional[set] = None) -> Fraction:
        return sum(
            (a for r, _, d, a in self.transfers if d == v and (rules is None or r in rules)),
            Fraction(0),
        )


def _check_degrees_and_trees(g: Graph, k: int):
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


def _share_equally(
    g: Graph,
    components,
    charge: list[Fraction],
    transfers: list,
    rule: str,
) -> tuple[ComponentShare, ...]:
    shares = []
    for i, comp in enumerate(components):
        members = sorted(comp)
        total = sum((charge[v] for v in members), Fraction(0))
        share = total / len(members)
        pool = "share:%d" % i
        for v in members:
            transfers.append((rule, v, pool, charge[v]))
            charge[v] = Fraction(0)
        for v in members:
            transfers.append((rule, pool, v, share))
            charge[v] = share
        shares.append(ComponentShare(i, tuple(members), total, share))
    return tuple(shares)


def gallai_target(k: int) -> Fraction:
    return Fraction(k - 1) + Fraction(k - 3, k * k - 3)


def run_gallai_discharge(g: Graph, k: int) -> ChargeLedger:
    """Each vertex starts with its degree.  G1: every vertex of degree >= k
    sends (k-1)/(k^2-3) to each degree-(k-1) neighbor.  G2: each component of
    the degree-(k-1) subgraph shares its total charge equally."""
    if k < 4:
        raise PreconditionError("k must be at least 4", witness=k)
    split = _check_degrees_and_trees(g, k)
    amount = Fraction(k - 1, k * k - 3)
    charge = [Fraction(g.degree(v)) for v in range(g.n)]
    transfers: list = []
    for v in range(g.n):
        if g.degree(v) >= k:
            for u in g.neighbors(v):
                if g.degree(u) == k - 1:
                    transfers.append(("G1", v, u, amount))
                    charge[v] -= amount
                    charge[u] += amount
    shares = _share_equally(g, split.l_components, charge, transfers, "G2")
    return ChargeLedger(
        g.n,
        tuple(Fraction(d) for d in g.degrees()),
        tuple(transfers),
        tuple(charge),
        shares,
    )


@dataclass(frozen=True)
class DischargeParams:
    k: int
    bp: BoundParams
    mode: str
    epsilon: Fraction
    gamma: Fraction

    @property
    def target(self) -> Fraction:
        return Fraction(self.k - 1) + (2 - self.bp.p) * self.epsilon


def make_params(k: int, bp: BoundParams, mode: str = "auto") -> DischargeParams:
    if bp.k != k:
        raise PreconditionError("bp was built for k=%d, not %d" % (bp.k, k))
    mode = regime(k, mode)
    report = check_regime(bp, mode)
    if not report.passed:
        raise PreconditionError(
            "parameter conditions failed: %s" % "; ".join(report.failed),
            witness=report.failed,
        )
    eps = epsilon(k, bp, mode)
    return DischargeParams(k, bp, mode, eps, eps * (bp.h + 1))


def run_main_discharge(g: Graph, params: DischargeParams) -> ChargeLedger:
    """Apply rules 1-4.  Failure to peel the auxiliary bipartite graph aborts
    the run and surfaces the residual, since that residual is exactly the
    configuration the reducibility lemmas forbid in a critical graph."""
    k = params.k
    split = _check_degrees_and_trees(g, k)
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
    charge = [Fraction(g.degree(v)) for v in range(g.n)]
    transfers: list = []

    def send(rule: str, src: int, dst: int, amount: Fraction):
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

    shares = _share_equally(g, split.l_components, charge, transfers, "R4-share")
    return ChargeLedger(
        g.n,
        tuple(Fraction(d) for d in g.degrees()),
        tuple(transfers),
        tuple(charge),
        shares,
    )


_RECEIVE_RULES = {"R1", "R2", "R3ai", "R3bi"}


@dataclass(frozen=True)
class SponsorStats:
    gamma_counts: dict
    unsponsored: dict
    max_w_neighbors: int


def sponsorship_stats(g: Graph, params: DischargeParams, ledger: ChargeLedger) -> SponsorStats:
    """Read the rule-3 bookkeeping back out of a ledger: how many gammas each
    k-vertex sent, and per component how many of its q(T) boundary edges
    carried no gamma."""
    k = params.k
    aux = build_auxiliary(g, k)
    gamma_counts = {
        y: sum(1 for r, s, _, _ in ledger.transfers if s == y and r in ("R3ai", "R3bi"))
        for y in aux.y_vertices
    }
    got_gamma = {
        (s, d) for r, s, d, _ in ledger.transfers if r in ("R2", "R3ai", "R3bi")
    }
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


@dataclass(frozen=True)
class TreeAudit:
    A: int
    q: int
    received: Fraction
    floor: Fraction
    has_full_clique: bool


def tree_charge_audit(
    g: Graph, component, params: DischargeParams, ledger: ChargeLedger
) -> TreeAudit:
    """Check a single component of the degree-(k-1) subgraph against the
    guaranteed inflow: with a K_{k-1} inside, received >= eps*A + gamma*(q-c)
    >= eps*(2-p)|T|; without one, received >= eps*A >= the same floor.
    c is the mode's count of gammas a tree may miss (structure.REGIMES)."""
    k = params.k
    members = sorted(component)
    adj, mask = g._adj, _vertex_mask(members)
    if not _in_t_k(adj, mask, k):
        raise PreconditionError("component outside the tree family", witness=members)
    q = _q(adj, mask, k)
    # 2|E(T)| is the sum of the degrees inside T
    two_m = sum((adj[v] & mask).bit_count() for v in members)
    a_val = (k - 1) * len(members) - two_m - q
    received = sum(
        (ledger.inflow(v, _RECEIVE_RULES) for v in members), Fraction(0)
    )
    floor = params.epsilon * (2 - params.bp.p) * len(members)
    has_clique = _clique_vertices(adj, mask, k - 1) != 0
    if has_clique:
        lower = params.epsilon * a_val + params.gamma * (q - REGIMES[params.mode].c)
    else:
        lower = params.epsilon * a_val
    if received < lower:
        raise AssertionError(
            "component %s received %s < guaranteed %s" % (members, received, lower)
        )
    if lower < floor:
        raise AssertionError(
            "guarantee %s for component %s undercuts floor %s" % (lower, members, floor)
        )
    return TreeAudit(a_val, q, received, floor, has_clique)
