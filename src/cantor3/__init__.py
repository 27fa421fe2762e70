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
from .langops import ComparisonResult, is_subset, pointed_isomorphic
from .oracle import admissible_word, brute_count, brute_count_extendable
from .spectral import (
    CharPoly,
    DimensionResult,
    adjacency,
    char_poly,
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

_FROM_CHECKS = ("CheckResult", "run_check", "run_suite")


def __getattr__(name):
    # The acceptance suite is imported on first use (PEP 562): most callers
    # never run it, and a process without a bytecode cache would compile
    # checks.py, about 4 ms, on every `import cantor3`.
    if name in _FROM_CHECKS:
        from . import checks

        globals().update((n, getattr(checks, n)) for n in _FROM_CHECKS)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
