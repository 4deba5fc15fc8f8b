"""Exact-arithmetic no-arbitrage checks for finite scenario-tree market
models, by three independent routes with machine-checkable certificates."""

from .errors import GeometryError, InputError, InternalError
from .rationals import Q, Rational, format_rational, parse_rational
from .linalg import in_span, span_basis
from .lp import (
    Infeasible,
    LinearProgram,
    Optimal,
    Unbounded,
    make_lp,
    solve_lp,
)
from .tree import (
    ConditionalSupport,
    LeafDensity,
    Node,
    ScenarioTree,
    Violation,
    conditional_mean,
    conditional_support,
    density_process,
    ensure_valid,
    gains,
    leaf_probabilities,
    path_probabilities,
    tree_from_json,
    tree_to_json,
    validate,
)
from .geometry import (
    InRi,
    NotInRi,
    arbitrage_direction,
    check_ri_certificate,
    ri_conv_contains_origin,
    separation_optimum,
)
from .emm import (
    MartingaleConstruction,
    OneStepDensity,
    build_emm,
    one_step_density,
    one_step_scale,
    support_function,
    verify_martingale,
)
from .verify import (
    EquivalenceReport,
    TreeParams,
    equivalence_report,
    find_arbitrage,
    random_tree,
    report_to_json,
    scaled_gain_optimum,
)

__version__ = "0.1.0"
