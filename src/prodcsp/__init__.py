"""Multiplicatively measured Boolean constraint satisfaction.

Exact-rational weighted constraint tables with the seven constructibility
operations, structural class deciders with machine-checkable certificates,
the three-way tractability classifier, exact solvers (exhaustive and
parity-component) behind one dispatch (`solve`), the named graph problems,
and executable approximation-preserving reductions between them.
"""

from .construct import ConstructionScript, replay
from .errors import (
    ArgumentError,
    ArityError,
    CapExceededError,
    CertificateError,
    DomainError,
    IndexRangeError,
    ParseError,
    ProdCspError,
    ReductionError,
)
from .graphs import GraphInstance, graph_brute_force, graph_measure
from .instances import (
    Assignment,
    CspInstance,
    SolveResult,
    brute_force,
    check_ratio,
    hill_climb,
    measure,
)
from .gen import (
    cut_to_prod,
    random_af_constraint,
    random_ed_constraint,
    random_graph,
    random_imopt_constraint,
    random_instance,
    random_positive_quadruple,
)
from .membership import (
    AfCertificate,
    DegenerateCertificate,
    EdCertificate,
    ImOptCertificate,
    LogExpansion,
    binary_witness_search,
    certificate_matches,
    has_affine_support,
    has_imp_support,
    is_af,
    is_degenerate,
    is_ed,
    is_imopt,
    is_nonzero,
    log_expansion,
    memberships,
)
from .reductions import (
    AptCallLog,
    FlowReduction,
    Reduction,
    RewriteResult,
    apt_wrap,
    bis_to_implies,
    complement_all,
    exact_csp_scheme,
    exact_flow_scheme,
    imopt_to_flow,
    is_to_csp,
    reduction_bis_to_implies,
    reduction_imopt_to_flow,
    reduction_is_to_csp,
    reduction_is_to_or_csp,
    rewrite_by_construction,
    solve_via_flow,
)
from .routes import approx_scheme, solve
from .tables import (
    BUILTINS,
    D0,
    D1,
    EQ,
    IMPLIES,
    NAND,
    OR,
    XOR,
    ConstraintTable,
    Support,
    make_table,
    support_of,
)
from .tractable import ParityUnionFind, certify_instance, solve_tractable
from .trichotomy import Category, ClassReport, classify_set, explain

__version__ = "0.2.0"
