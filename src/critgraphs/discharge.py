"""Exact-rational discharging simulator with replayable charge ledgers.

One rule loop on vertex masks runs both procedures: the four-rule procedure
behind the sharper bounds (rules R1, R2, R3ai, R3bi, R4-share), and the
two-rule redistribution behind the k-1 + (k-3)/(k^2-3) average-degree bound
(rules G1, G2), which is R1 and R4 with W empty.
Every transfer is recorded, so a ledger can be replayed and audited after
the fact.  Charges are summed in integer units of 1/D, D the lcm of the
denominators in play: nothing is rounded, and every value exposed is a Fraction,
built once per distinct value and shared.  A DischargeParams computes its
target once, however many audits read it.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional, Union

# make_params is re-exported: it lives with the bounds it produces
from .bounds import DischargeParams, _epsilon, g_family, make_params, preset_params
from .errors import EliminationFailed, PreconditionError
from .graph import Graph, _mask_bits, _vertex_mask
from .structure import REGIMES, _decompose, build_auxiliary, eliminate, low_high_split

Node = Union[int, str]


def _in_units(values) -> tuple[list[int], int]:
    """values (ints or Fractions) as integer counts of 1/unit, unit the lcm of the denominators."""
    ratios = [x.as_integer_ratio() for x in values]
    unit = lcm(*{d for _, d in ratios})
    return [n * (unit // d) for n, d in ratios], unit


def _fractions(counts, unit: int) -> list[Fraction]:
    """Fraction(c, unit) for each int c of counts, one Fraction per distinct c."""
    exact = {c: Fraction(c, unit) for c in set(counts)}
    return [exact[c] for c in counts]


def _exact_sum(values) -> Fraction:
    """The sum of values as a Fraction, with one gcd instead of one per term."""
    counts, unit = _in_units(values)
    return Fraction(sum(counts), unit)


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
    # each component's W as the rules read it; it follows from the graph
    component_w: tuple[int, ...] = field(default=(), repr=False, compare=False)

    @property
    def conserved(self) -> bool:
        return _exact_sum(self.initial) == _exact_sum(self.final)

    def replay(self) -> tuple[Fraction, ...]:
        """Recompute final charges from initial + transfers, in integer units.
        Pool pseudo-nodes (string ids used by the sharing rules) must net to zero."""
        n = self.n
        counts, unit = _in_units([self.initial[v] for v in range(n)] + [t[3] for t in self.transfers])
        charge: dict[Node, int] = dict(enumerate(counts[:n]))
        for (_, src, dst, _), amount in zip(self.transfers, counts[n:]):
            charge[src] = charge.get(src, 0) - amount
            charge[dst] = charge.get(dst, 0) + amount
        for node, net in charge.items():
            if isinstance(node, str) and net:
                residue = Fraction(net, unit)
                raise AssertionError("pool %r nets %s, expected 0" % (node, residue))
        return tuple(_fractions([charge[v] for v in range(n)], unit))

    def outflow(self, v: Node, rules: Optional[set] = None) -> Fraction:
        return _exact_sum(
            a for r, s, _, a in self.transfers if s == v and (rules is None or r in rules)
        )

    def inflow(self, v: Node, rules: Optional[set] = None) -> Fraction:
        return _exact_sum(
            a for r, _, d, a in self.transfers if d == v and (rules is None or r in rules)
        )


def _check_degrees(g: Graph, k: int) -> None:
    for v, d in enumerate(g.degrees()):
        if d < k - 1:
            raise PreconditionError("vertex %d has degree %d < k-1" % (v, d), witness=v)


def _check_trees(components, members) -> None:
    for comp, member in zip(components, members):
        if not member:
            raise PreconditionError(
                "a component of the degree-(k-1) subgraph falls outside the "
                "clique-or-odd-cycle-block family",
                witness=tuple(sorted(comp)),
            )


def _discharge(
    g: Graph, k: int, eps: Fraction, gam: Fraction, labels, components, w_sets, order
) -> ChargeLedger:
    """The rule loop of both procedures, transfers in the order they happen.

    R1 (labels[0]): each vertex of degree >= k sends eps to each
    degree-(k-1) neighbour outside W, then R2: if its degree is >= k+1, gam
    to each W neighbour.  Along the elimination order: when tree i goes,
    R3ai: each degree-k vertex still present that sees exactly two vertices
    of W_i sends gam to the lower one; when a degree-k vertex goes, R3bi: it
    sends gam to each of its W neighbours in every tree still present.  Last
    (labels[1]): each component of the degree-(k-1) subgraph shares its
    total charge equally through the pool node "share:i"."""
    adj, deg = g._adj, g.degrees()
    rule1, share_rule = labels
    w_masks = [_vertex_mask(w) for w in w_sets]
    in_w = _vertex_mask(v for w in w_sets for v in w)
    low = _vertex_mask(v for v in range(g.n) if deg[v] == k - 1) & ~in_w
    highs = _vertex_mask(v for v in range(g.n) if deg[v] == k)
    trees = (1 << len(w_masks)) - 1
    transfers: list = []

    for v in range(g.n):
        if deg[v] >= k:
            transfers += [(rule1, v, u, eps) for u in _mask_bits(adj[v] & low)]
        if deg[v] >= k + 1:
            transfers += [("R2", v, u, gam) for u in _mask_bits(adj[v] & in_w)]

    for kind, ident in order:
        if kind == "tree":
            for v in _mask_bits(highs):
                seen = adj[v] & w_masks[ident]
                if seen.bit_count() == 2:
                    transfers.append(("R3ai", v, (seen & -seen).bit_length() - 1, gam))
            trees &= ~(1 << ident)
        else:
            for i in _mask_bits(trees):
                transfers += [("R3bi", ident, x, gam) for x in _mask_bits(adj[ident] & w_masks[i])]
            highs &= ~(1 << ident)

    # the charges after rules 1-3, in integer units of 1/unit
    (e, c), unit = _in_units((eps, gam))
    step = {"R2": c, "R3ai": c, "R3bi": c, rule1: e}
    charge = [d * unit for d in deg]
    for rule, src, dst, _ in transfers:
        charge[src] -= step[rule]
        charge[dst] += step[rule]
    final = _fractions(charge, unit)
    shares = []
    for i, comp in enumerate(components):
        members = sorted(comp)
        units = sum(charge[v] for v in members)
        total, share = Fraction(units, unit), Fraction(units, unit * len(members))
        pool = "share:%d" % i
        transfers += [(share_rule, v, pool, final[v]) for v in members]
        transfers += [(share_rule, pool, v, share) for v in members]
        for v in members:
            final[v] = share
        shares.append(ComponentShare(i, tuple(members), total, share))
    return ChargeLedger(
        g.n, tuple(_fractions(deg, 1)), tuple(transfers), tuple(final), tuple(shares), tuple(w_masks)
    )


def gallai_target(k: int) -> Fraction:
    """Gallai's bound (k-1) + (k-3)/(k^2-3), the table's gallai column."""
    return g_family(k, 0)


def run_gallai_discharge(g: Graph, k: int) -> ChargeLedger:
    """Each vertex starts with its degree.  G1: every vertex of degree >= k
    sends (k-1)/(k^2-3) to each degree-(k-1) neighbor.  G2: each component of
    the degree-(k-1) subgraph shares its total charge equally.  These are
    rules R1 and R4 with W empty, so R2 and R3 send nothing."""
    if k < 4:
        raise PreconditionError("k must be at least 4", witness=k)
    _check_degrees(g, k)
    components = low_high_split(g, k).l_components
    members = [_decompose(g._adj, _vertex_mask(c), k, search=False).in_t_k for c in components]
    _check_trees(components, members)
    # Gallai's bound is the gallai preset's target with no W, so no vertex
    # sends a gamma: G1 sends that preset's epsilon, (k-1)/(k^2-3)
    amount = _epsilon(preset_params(k, "gallai"), 0)
    return _discharge(g, k, amount, Fraction(0), ("G1", "G2"), components, [()] * len(components), ())


def run_main_discharge(g: Graph, params: DischargeParams) -> ChargeLedger:
    """Apply rules 1-4.  Failure to peel the auxiliary bipartite graph aborts
    the run and surfaces the residual, since that residual is exactly the
    configuration the reducibility lemmas forbid in a critical graph."""
    k = params.k
    _check_degrees(g, k)
    # the auxiliary graph's trees are the components of the degree-(k-1)
    # subgraph, in the order low_high_split gives them
    aux = build_auxiliary(g, k)
    _check_trees(aux.tree_components, [cuts is not None for cuts in aux.tree_cuts])
    elim = eliminate(aux, params.mode)
    if not elim.succeeded:
        raise EliminationFailed(
            "auxiliary graph not %s-degenerate; residual %d trees / %d highs"
            % (params.mode, len(elim.residual_trees), len(elim.residual_highs)),
            residual=(elim.residual_trees, elim.residual_highs, elim.residual_edges),
        )
    return _discharge(
        g, k, params.epsilon, params.gamma, ("R1", "R4-share"),
        aux.tree_components, aux.w_sets, elim.order,
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
    carried no gamma.  The components, and each one's W, are the ledger's own."""
    adj, k = g._adj, params.k
    ys = [v for v, d in enumerate(g.degrees()) if d == k]
    gamma_counts = dict.fromkeys(ys, 0)
    got_gamma: dict = {}  # per vertex, the mask of vertices that sent it a gamma
    for r, s, d, _ in ledger.transfers:
        if r in ("R3ai", "R3bi") and s in gamma_counts:
            gamma_counts[s] += 1
        if r in ("R2", "R3ai", "R3bi"):
            got_gamma[d] = got_gamma.get(d, 0) | 1 << s
    unsponsored = {}
    max_w = 0
    for i, (share, w) in enumerate(zip(ledger.component_shares, ledger.component_w, strict=True)):
        comp = _vertex_mask(share.vertices)
        unsponsored[i] = sum(
            (adj[x] & ~comp & ~got_gamma.get(x, 0)).bit_count() for x in _mask_bits(w)
        )
        max_w = max([max_w] + [(adj[y] & w).bit_count() for y in ys])
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
    if not all(0 <= v < g.n for v in members):
        raise PreconditionError("component holds a non-vertex", witness=members)
    adj, mask = g._adj, _vertex_mask(members)
    if mask.bit_count() != len(members):
        raise PreconditionError("component repeats a vertex", witness=members)
    found = _decompose(adj, mask, k)
    if not found.in_t_k:
        raise PreconditionError("component outside the tree family", witness=members)
    w, q = found.w, found.q
    # 2|E(T)| is the sum of the degrees inside T
    two_m = sum((adj[v] & mask).bit_count() for v in members)
    a_val = (k - 1) * len(members) - two_m - q
    received = _exact_sum(a for r, _, d, a in ledger.transfers if r in _RECEIVE_RULES and mask >> d & 1)
    floor = (params.target - (k - 1)) * len(members)
    lower = params.epsilon * a_val + (params.gamma * (q - REGIMES[params.mode].c) if w else 0)
    if received < lower:
        raise AssertionError(
            "component %s received %s < guaranteed %s" % (members, received, lower)
        )
    if lower < floor:
        raise AssertionError(
            "guarantee %s for component %s undercuts floor %s" % (lower, members, floor)
        )
    return TreeAudit(a_val, q, received, floor, w != 0)
