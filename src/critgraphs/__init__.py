"""Exact verification tools for degree bounds on color-critical graphs.

The package splits into graph plumbing (graph, structure, generators), exact
parameter arithmetic (bounds), certificate-level coloring solvers (coloring),
discharging simulation (discharge), and reducible-configuration checkers
(reducible).  Everything computes over integers and fractions; no floats are
used anywhere in a verdict.
"""

from .bounds import (
    BoundParams,
    check_lemma31,
    check_lemma32,
    check_thm41,
    check_thm43,
    dirac_bound,
    g_family,
    ky_asymptotic,
    ky_bound,
    main_bound,
    preset_params,
    table1,
    tree_bound_failures,
    tree_bound_rhs,
)
from .coloring import (
    ATCertificate,
    Orientation,
    at_number,
    chromatic_number,
    ee_eo,
    is_f_AT,
    is_f_choosable,
    is_f_paintable,
    is_k_AT_critical,
    is_k_critical,
    is_k_list_critical,
    is_k_paint_critical,
)
from .discharge import (
    ChargeLedger,
    DischargeParams,
    gallai_target,
    make_params,
    run_gallai_discharge,
    run_main_discharge,
    sponsorship_stats,
    tree_charge_audit,
)
from .errors import (
    BudgetExceeded,
    EliminationFailed,
    GraphFormatError,
    PreconditionError,
)
from .generators import clique_path, enumerate_gallai_trees, extremal_chain
from .graph import (
    Graph,
    are_isomorphic,
    contains_clique,
    induced_subgraph,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from .reducible import check_lemma51, check_lemma52, check_lemma53
from .structure import (
    AuxiliaryBipartite,
    block_decomposition,
    build_aux_partition,
    build_auxiliary,
    eliminate,
    in_t_k,
    is_gallai_tree,
    low_high_split,
    q_value,
    w_k,
)

__version__ = "0.1.0"
