"""The names the benchmark in perfbench/ reaches in cantor3 still exist.

The benchmark wraps the module attributes listed in perfbench/spans.py
(TRACED), builds its reference graphs with build_multi_direct and checks
small graphs against char_poly(adjacency(g)). A change that removes or
reshapes one of them would break the traced benchmark; this test fails
first. It only reads perfbench/.
"""

import importlib
import importlib.util
from pathlib import Path

from cantor3 import automaton, build_multi, build_single, spectral

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_traced_names_resolve():
    traced = _traced()
    assert traced
    for module, attr, _ in traced:
        owner = importlib.import_module(f"cantor3.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)


def test_reference_construction_exists():
    assert callable(automaton.build_multi_direct)


def test_reference_char_poly_is_exact():
    p = spectral.char_poly(spectral.adjacency(build_single(7)))
    assert p.coefficients == (-1, 0, 1, -2, 1)  # x^4 - 2x^3 + x^2 - 1
    assert all(type(c) is int for c in p.coefficients)


def test_count_paths_returns_plain_int():
    # the benchmark child json.dumps the count; a numpy integer would fail there
    for g in (build_single(7), build_multi([3**7 + 1])):
        for n in (0, 70):
            assert type(automaton.count_paths(g, n)) is int
    assert len(build_single(7).edges) < automaton.LIMB_KERNEL_EDGES
    assert len(build_multi([3**7 + 1]).edges) >= automaton.LIMB_KERNEL_EDGES
