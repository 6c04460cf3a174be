"""Exact-rational discharging simulator with replayable charge ledgers.

One rule loop on vertex masks runs both procedures: the four-rule procedure
behind the sharper bounds (rules R1, R2, R3ai, R3bi, R4-share), and the
two-rule redistribution behind the k-1 + (k-3)/(k^2-3) average-degree bound
(rules G1, G2), which is R1 and R4 with W empty.
Every transfer is recorded, so a ledger can be replayed and audited after
the fact.  All arithmetic is fractions.Fraction; nothing is ever rounded.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

# make_params is re-exported: it lives with the bounds it produces
from .bounds import DischargeParams, _epsilon, g_family, make_params, preset_params
from .errors import EliminationFailed, PreconditionError
from .graph import Graph, _clique_vertices, _mask_bits, _vertex_mask
from .structure import REGIMES, _in_t_k, _w_q, build_auxiliary, eliminate, low_high_split

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


def _check_degrees(g: Graph, k: int) -> None:
    for v, d in enumerate(g.degrees()):
        if d < k - 1:
            raise PreconditionError("vertex %d has degree %d < k-1" % (v, d), witness=v)


def _check_trees(g: Graph, k: int, components) -> None:
    for comp in components:
        if not _in_t_k(g._adj, _vertex_mask(comp), k):
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
    charge = [Fraction(d) for d in deg]
    transfers: list = []

    def send(rule: str, src: int, dst: int, amount: Fraction):
        transfers.append((rule, src, dst, amount))
        charge[src] -= amount
        charge[dst] += amount

    for v in range(g.n):
        if deg[v] >= k:
            for u in _mask_bits(adj[v] & low):
                send(rule1, v, u, eps)
        if deg[v] >= k + 1:
            for u in _mask_bits(adj[v] & in_w):
                send("R2", v, u, gam)

    for kind, ident in order:
        if kind == "tree":
            for v in _mask_bits(highs):
                seen = adj[v] & w_masks[ident]
                if seen.bit_count() == 2:
                    send("R3ai", v, (seen & -seen).bit_length() - 1, gam)
            trees &= ~(1 << ident)
        else:
            for i in _mask_bits(trees):
                for x in _mask_bits(adj[ident] & w_masks[i]):
                    send("R3bi", ident, x, gam)
            highs &= ~(1 << ident)

    shares = []
    for i, comp in enumerate(components):
        members = sorted(comp)
        total = sum((charge[v] for v in members), Fraction(0))
        share = total / len(members)
        pool = "share:%d" % i
        for v in members:
            transfers.append((share_rule, v, pool, charge[v]))
            charge[v] = Fraction(0)
        for v in members:
            transfers.append((share_rule, pool, v, share))
            charge[v] = share
        shares.append(ComponentShare(i, tuple(members), total, share))
    return ChargeLedger(
        g.n, tuple(Fraction(d) for d in deg), tuple(transfers), tuple(charge), tuple(shares)
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
    _check_trees(g, k, components)
    # Gallai's bound is the gallai preset's target with no W, so no vertex
    # sends a gamma: G1 sends that preset's epsilon, (k-1)/(k^2-3)
    amount = _epsilon(preset_params(k, "gallai"), 0)
    return _discharge(g, k, amount, Fraction(0), ("G1", "G2"), components, (), ())


def run_main_discharge(g: Graph, params: DischargeParams) -> ChargeLedger:
    """Apply rules 1-4.  Failure to peel the auxiliary bipartite graph aborts
    the run and surfaces the residual, since that residual is exactly the
    configuration the reducibility lemmas forbid in a critical graph."""
    k = params.k
    _check_degrees(g, k)
    # the auxiliary graph's trees are the components of the degree-(k-1)
    # subgraph, in the order low_high_split gives them
    aux = build_auxiliary(g, k)
    _check_trees(g, k, aux.tree_components)
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
    carried no gamma.  The components are the ledger's own."""
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
    for i, share in enumerate(ledger.component_shares):
        comp = _vertex_mask(share.vertices)
        w = _clique_vertices(adj, comp, k - 1)
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
    if not _in_t_k(adj, mask, k):
        raise PreconditionError("component outside the tree family", witness=members)
    w, q = _w_q(adj, mask, k)
    # 2|E(T)| is the sum of the degrees inside T
    two_m = sum((adj[v] & mask).bit_count() for v in members)
    a_val = (k - 1) * len(members) - two_m - q
    inside = set(members)
    received = sum(
        (a for r, _, d, a in ledger.transfers if d in inside and r in _RECEIVE_RULES),
        Fraction(0),
    )
    floor = (params.target - (k - 1)) * len(members)
    has_clique = w != 0
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
