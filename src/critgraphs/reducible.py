"""Checkers for the three reducible-configuration tests.

Each checker evaluates a list of structural hypotheses (cheap) and then tries
to confirm the promised orientation certificate with is_f_AT (expensive, and
always behind an explicit edge budget).  A hypothesis-satisfying instance
whose certificate search *completes* and fails is an implementation bug
somewhere, so that case raises instead of returning quietly.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Optional, Tuple

from .coloring import AT_MAX_EDGES, ATCertificate, is_f_AT
from .errors import PreconditionError
from .graph import Graph, _vertex_mask, contains_clique, induced_subgraph
from .structure import AuxiliaryBipartite, _in_t_k, build_aux_partition, eliminate

# Caps of _search_induced: induced subgraphs looked at (the default of
# max_explored), and certificate searches run.
MAX_EXPLORED = 5000
MAX_ATTEMPTS = 25


@dataclass(frozen=True)
class ReducibilityReport:
    hypotheses: Dict[str, bool]
    f_at: Optional[bool]
    certificate: Optional[ATCertificate]
    status: str
    witness_vertices: Optional[Tuple[int, ...]] = None

    @property
    def all_hold(self) -> bool:
        return all(self.hypotheses.values())


def _common_hypotheses(g: Graph, marked, k: int) -> tuple[AuxiliaryBipartite, Dict[str, bool]]:
    """The auxiliary partition around the marked vertices, and the hypotheses
    that Lemmas 5.1-5.3 share."""
    marked = set(marked)
    aux = build_aux_partition(g, marked, k)
    hyps = {
        "no_Kk": not contains_clique(g, k)[0],
        "parts_in_Tk": all(
            _in_t_k(g._adj, _vertex_mask(comp), k) for comp in aux.tree_components
        ),
        "outside_degree_cap": all(
            g.degree(v) <= k - 1 for v in range(g.n) if v not in marked
        ),
    }
    return aux, hyps


def check_lemma51(
    g: Graph, x: int, k: int, max_edges: int = AT_MAX_EDGES
) -> ReducibilityReport:
    """Single marked vertex x.  When the five hypotheses hold, g itself must
    admit an orientation certificate for f(x) = d(x)-1, f(v) = d(v) elsewhere."""
    if k < 5:
        raise PreconditionError("k must be at least 5", witness=k)
    if not 0 <= x < g.n:
        raise PreconditionError("x is not a vertex", witness=x)
    aux, hyps = _common_hypotheses(g, [x], k)
    t = len(aux.tree_components)
    hyps["w_hit_every_part"] = aux.y_degree(x) == t
    hyps["x_degree"] = g.degree(x) >= t + 2
    if not all(hyps.values()):
        return ReducibilityReport(hyps, None, None, "hypotheses failed")
    if g.m > max_edges:
        return ReducibilityReport(hyps, None, None, "not verified: budget")
    f = [g.degree(v) for v in range(g.n)]
    f[x] -= 1
    cert = is_f_AT(g, f, max_edges=max_edges)
    if cert is None:
        raise AssertionError(
            "hypotheses hold but no orientation certificate exists; "
            "this indicates a bug in the checker or the certificate search"
        )
    return ReducibilityReport(hyps, True, cert, "verified")


def _search_induced(g, yset, max_edges, max_explored):
    """Look for an induced subgraph carrying the certificate, biggest first.

    Returns (f_at, certificate, kept vertices, status).  Exhausting every
    induced subgraph without a certificate is a fatal finding; running out of
    exploration budget, or skipping subgraphs over the edge budget, is not.
    A failed certificate search near the edge budget costs seconds, so the
    number of searches is capped separately from the number of subsets seen.
    """
    explored = 0
    skipped = 0
    attempts = 0
    for drop in range(g.n):
        for dropped in combinations(range(g.n), drop):
            explored += 1
            if explored > max_explored:
                return None, None, None, "not verified: budget"
            keep = [v for v in range(g.n) if v not in dropped]
            sub, relabel = induced_subgraph(g, keep)
            if sub.m > max_edges:
                skipped += 1
                continue
            f = [0] * sub.n
            for v in keep:
                d = sub.degree(relabel[v])
                f[relabel[v]] = d - 1 if v in yset else d
            if min(f) < 0:
                # an isolated marked vertex would need a -1 list; hopeless
                continue
            if attempts >= MAX_ATTEMPTS:
                return None, None, None, "not verified: budget"
            attempts += 1
            cert = is_f_AT(sub, f, max_edges=max_edges)
            if cert is not None:
                return True, cert, tuple(keep), "verified"
    if skipped:
        return None, None, None, "not verified: budget"
    raise AssertionError(
        "hypotheses hold but no induced subgraph carries a certificate; "
        "this indicates a bug in the checker or the certificate search"
    )


def _check_multi(g, y_vertices, k, mode, max_edges, max_explored):
    ys = sorted(set(y_vertices))
    for y in ys:
        if not 0 <= y < g.n:
            raise PreconditionError("marked set contains a non-vertex", witness=y)
    aux, hyps = _common_hypotheses(g, ys, k)
    # marked aux degrees >= s, tree aux degrees >= c+1: elimination peels nothing
    hyps["aux_degrees"] = not eliminate(aux, mode).order
    if not all(hyps.values()):
        return ReducibilityReport(hyps, None, None, "hypotheses failed")
    f_at, cert, keep, status = _search_induced(g, set(ys), max_edges, max_explored)
    return ReducibilityReport(hyps, f_at, cert, status, keep)


def check_lemma52(
    g: Graph,
    y_vertices,
    k: int,
    max_edges: int = AT_MAX_EDGES,
    max_explored: int = MAX_EXPLORED,
) -> ReducibilityReport:
    """Marked vertex set Y, both sides of the auxiliary graph of degree >= 3.
    The certificate lives on some induced subgraph, searched biggest-first."""
    if k < 7:
        raise PreconditionError("k must be at least 7", witness=k)
    return _check_multi(g, y_vertices, k, "symmetric", max_edges, max_explored)


def check_lemma53(
    g: Graph,
    y_vertices,
    k: int,
    max_edges: int = AT_MAX_EDGES,
    max_explored: int = MAX_EXPLORED,
) -> ReducibilityReport:
    """Lopsided variant: marked vertices need auxiliary degree >= 4 but tree
    components only >= 2, and k = 5 or 6 are allowed."""
    if k < 5:
        raise PreconditionError("k must be at least 5", witness=k)
    return _check_multi(g, y_vertices, k, "lopsided", max_edges, max_explored)


# regime -> the checker of the configuration its elimination leaves
MARKED_SET_CHECKS = {"symmetric": check_lemma52, "lopsided": check_lemma53}
