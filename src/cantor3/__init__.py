"""Automaton presentations and Hausdorff dimensions of intersections of
multiplicative translates of the base-3 Cantor set."""

from .automaton import (
    PointedLabeledGraph,
    build_multi,
    build_multi_direct,
    build_single,
    count_paths,
    to_dot,
    to_json,
    trim_essential,
    validate,
)
from .errors import ParseError, RefusalError
from .families import (
    N_eigenvector,
    Y_graph,
    check_L_bounds,
    expect_L,
    expect_N,
)
from .checks import CheckResult, run_check, run_suite
from .langops import ComparisonResult, is_subset, pointed_isomorphic
from .oracle import admissible_word, brute_count, brute_count_extendable
from .spectral import (
    CharPoly,
    DimensionResult,
    adjacency,
    char_poly,
    char_poly_dim,
    hausdorff_dim,
    scc,
)
from .ternary import (
    FamilyId,
    Multiplier,
    family_value,
    from_ternary,
    normalize,
    parse_family,
    parse_multiplier,
    parse_multiplier_list,
    render_ternary,
    to_ternary,
)

__version__ = "0.1.0"
