"""Named acceptance checks over pinned reference values.

The reference dimensions are six-decimal table values; everything else is
exact integer data (vertex counts, characteristic polynomials, SCC contents)
or a tolerance-bounded property. Each check is a function returning
(ok, detail), and _REGISTRY, the one place a check's name is written, names
it and puts it in a suite; run_check wraps the pair in a CheckResult.
Checks never raise on a value mismatch; they return a failing result and
let the caller decide what a failure means.

Table values are compared within TABLE_TOL = 1e-5, not 1e-6: the
powers-of-2 singles differ from dense-eigenvalue dimensions by up to 3.5e-6
(2^12: 0.244002 against 0.243998), more than six-decimal rounding explains.
The published 2^8 entry 0.287416 is off by 0.019; it is kept as the refuted
entry, and _table_powers_of_2 disproves it on every run with a lower bound
that reads no automaton.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .automaton import build_multi, build_single, count_paths, vertex_name
from .families import N_eigenvector, PHI, L_poly, Y_graph, check_L_bounds
from .langops import is_subset, pointed_isomorphic
from .oracle import brute_count, brute_count_extendable, return_word_bound
from .spectral import (CharPoly, adjacency, char_poly, hausdorff_dim, largest_root_bracket, log3,
                       scc, scc_labels)
from .ternary import FamilyId, family_value, normalize, to_ternary

SAMPLE_SEED = 20260819
TABLE_TOL = 1e-5
# The published dimension of the pair (2^2, 2^8).
DIM_4_256 = 0.228392


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.detail}"


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _tol(x: float) -> str:
    """A power-of-ten tolerance as written in the tables: 1e-5, not 1e-05."""
    return f"1e{round(math.log10(x))}"


def _span(r: range) -> str:
    return f"{r[0]}..{r[-1]}"


def _near(label: str, got: float, want, tol: float = TABLE_TOL, places: int = 6):
    """(got within tol of the pinned want, the text 'label=got want want+-tol')."""
    return abs(got - want) <= tol, f"{label}={got:.{places}f} want {want}+-{_tol(tol)}"


def _is(label: str, got, want, show=str):
    """(got == want, the text 'label got want want', label ending in its separator)."""
    return got == want, f"{label}{show(got)} want {show(want)}"


def _all(*parts):
    """(every part holds, the parts' texts joined by ', ') of (ok, text) parts."""
    return all(ok for ok, _ in parts), ", ".join(text for _, text in parts)


def _verdict(bad: list, passed: str, cap: int | None = None, in_time: bool = True):
    """(ok, detail) of a check that lists its failures: the pass text when the
    list is empty, else the failures (the first cap of them) joined by '; '."""
    return in_time and not bad, "; ".join(bad[:cap]) if bad else passed


def _cycle_component_count(g) -> int:
    """Number of SCCs that contain at least one edge (i.e. carry a cycle)."""
    label = scc_labels(g)
    src, dst, _ = g.edge_arrays()
    inner = label[src]
    return len(np.unique(inner[inner == label[dst]]))


def _example_7():
    t0 = perf_counter()
    g = build_single(7)
    r = hausdorff_dim(g)
    elapsed = perf_counter() - t0
    return _all(
        _near("dim", r.dim, 0.438018),
        (abs(r.beta - PHI) <= 1e-6, f"|beta-phi|={abs(r.beta - PHI):.1e}"),
        _is("vertices=", g.n, 4),
        (elapsed < 0.1, f"{elapsed * 1000:.1f} ms"),
    )


def _example_19():
    g = build_single(19)
    r = hausdorff_dim(g)
    return _all(
        _near("dim", r.dim, 0.347934),
        _near("beta", r.beta, 1.465571),
        _is("vertices=", g.n, 8),
        _is("cyclic sccs=", _cycle_component_count(g), 2),
    )


def _example_7_19():
    g = build_multi([7, 19])
    return _all(
        _is("vertices=", g.n, 6),
        _is("char poly ", char_poly(adjacency(g)), CharPoly((-1, 0, 0, 0, 1, -2, 1)),
            CharPoly.pretty),
        _near("dim", hausdorff_dim(g).dim, 0.347934),
    )


def _example_43():
    g = build_single(43)
    r = hausdorff_dim(g)
    got = {frozenset(vertex_name(g, v) for v in comp) for comp in scc(g).components}
    want = {frozenset({"0"}), frozenset({"112"}), frozenset({"2", "120", "201", "20"}),
            frozenset({"12", "121"})}
    return _all(
        (got == want, f"sccs={sorted(sorted(c) for c in got)}"),
        _near("beta", r.beta, 1, 1e-9, places=12),
        (r.dim == 0.0, f"dim={_fmt(r.dim)}"),
    )


_L_TABLE = (0.630929, 0.438018, 0.347934, 0.293358, 0.255960, 0.228392, 0.207052, 0.189948,
            0.175877)


def _table_L_dims():
    # adjacency() loads scipy.sparse on first use; load it before the timer,
    # which times the arithmetic only
    import scipy.sparse  # noqa: F401

    t0 = perf_counter()
    bad = []
    for k, want in enumerate(_L_TABLE, start=1):
        g = build_single(family_value(FamilyId("L", k)))
        r = hausdorff_dim(g)
        p = char_poly(adjacency(g))
        if g.n != k or p.coefficients != L_poly(k) or not abs(r.dim - want) <= TABLE_TOL:
            bad.append(f"k={k}: dim={_fmt(r.dim)} want {_fmt(want)}, vertices={g.n}")
    elapsed = perf_counter() - t0
    return _verdict(
        bad,
        f"k={_span(range(1, len(_L_TABLE) + 1))} dims within {_tol(TABLE_TOL)}, k vertices,"
        f" char poly x^k - x^(k-1) - 1, {elapsed * 1000:.0f} ms",
        in_time=elapsed < 1.0)


def _family_N_phi():
    t0 = perf_counter()
    target, ks, dim_tol, resid_tol = log3(PHI), range(1, 13), 1e-8, 1e-9
    bad = []
    for k in ks:
        g = build_single(family_value(FamilyId("N", k)))
        r = hausdorff_dim(g)
        v = np.array(N_eigenvector(k))
        resid = float(np.abs(adjacency(g) @ v - PHI * v).max())
        scale = float(np.abs(v).max())
        if (g.n != 2**k or r.scc_count != 1 or not abs(r.dim - target) <= dim_tol
                or not resid <= resid_tol * scale):
            bad.append(
                f"k={k}: vertices={g.n} want {2**k}, sccs={r.scc_count},"
                f" |dim-log3 phi|={abs(r.dim - target):.1e}, resid={resid:.1e}"
            )
    elapsed = perf_counter() - t0
    return _verdict(
        bad,
        f"k={_span(ks)}: 2^k vertices, one scc, dim=log3(phi)+-{_tol(dim_tol)},"
        f" eigenvector residual <= {_tol(resid_tol)}, {elapsed:.1f} s",
        in_time=elapsed < 30.0)


_POW2_SINGLES = {2: 0.438018, 4: 0.255960, 6: 0.278002, 8: 0.306871, 10: 0.215201, 12: 0.244002,
                 14: 0.267112}
# Published entries the first-return bound shows to be too small.
_POW2_REFUTED = {8: 0.287416}
_POW2_BOUND_LEN = 36
_POW2_NONZERO_PAIRS = {(2, 8): DIM_4_256}
_POW2_ZERO_PAIRS = ((2, 4), (2, 6), (2, 10), (4, 6), (4, 8), (4, 10), (6, 8), (6, 10), (8, 10))
_POW2_ZERO_TRIPLES = ((2, 8, 12), (2, 8, 14), (2, 8, 16))


def _table_powers_of_2():
    t0 = perf_counter()
    bad = []
    dims = {}
    for e, want in _POW2_SINGLES.items():
        dims[e] = hausdorff_dim(build_single(2**e)).dim
        if not abs(dims[e] - want) <= TABLE_TOL:
            bad.append(f"2^{e}: dim={_fmt(dims[e])} want {_fmt(want)}")
    refutations = []
    for e, old in _POW2_REFUTED.items():
        b = return_word_bound([2**e], _POW2_BOUND_LEN)
        msg = (f"2^{e}: first-return words of length <= {b.max_len} give"
               f" dim >= log3({b.r:.6f}) = {_fmt(b.dim)}")
        if not (b.covers(b.r_num, b.r_den) and b.exceeds(old + TABLE_TOL)):
            bad.append(f"{msg}, which does not refute the published {_fmt(old)}")
        elif b.dim > dims[e] + 1e-9:
            bad.append(f"{msg}, above the computed {_fmt(dims[e])}")
        refutations.append(f"{msg} > refuted entry {_fmt(old)} + {_tol(TABLE_TOL)}")
    for exps, want in _POW2_NONZERO_PAIRS.items():
        r = hausdorff_dim(build_multi([2**e for e in exps]))
        if not abs(r.dim - want) <= TABLE_TOL:
            label = ",".join(f"2^{e}" for e in exps)
            bad.append(f"({label}): dim={_fmt(r.dim)} want {want}")
    trivial = ("exact_trivial", ((1, 1), (1, 1)))
    for exps in _POW2_ZERO_PAIRS + _POW2_ZERO_TRIPLES:
        r = hausdorff_dim(build_multi([2**e for e in exps]))
        if (r.method, r.beta_bracket) != trivial:
            bad.append(f"{exps}: {r.method} beta_bracket={r.beta_bracket}"
                       f" want {trivial[0]} {trivial[1]}")
    elapsed = perf_counter() - t0
    counts = ", ".join(f"{len(t)} {noun}{'s' * (len(t) != 1)}" for t, noun in (
        (_POW2_SINGLES, "single"), (_POW2_NONZERO_PAIRS, "nonzero pair"),
        (_POW2_ZERO_PAIRS, "zero pair"), (_POW2_ZERO_TRIPLES, "zero triple")))
    return _verdict(bad, "; ".join([counts] + refutations + [f"{elapsed:.1f} s"]),
                    in_time=elapsed < 120.0)


def _L_pair_absorption():
    ks = range(1, 9)
    bad = []
    for k1, k2 in itertools.combinations(ks, 2):
        big = family_value(FamilyId("L", k2))
        prod = build_multi([family_value(FamilyId("L", k1)), big])
        if not pointed_isomorphic(prod, build_single(big)):
            bad.append(f"(L{k1},L{k2})")
    return _verdict(
        bad and ["not isomorphic: " + ", ".join(bad)],
        f"product of L_k1, L_k2 pointed-isomorphic to L_k2 for {ks[0]}<=k1<k2<={ks[-1]}")


def _N_chain_vs_L():
    ns, tol = range(1, 6), 1e-6
    bad = []
    for n in ns:
        chain = [family_value(FamilyId("N", k)) for k in range(1, n + 1)]
        d1 = hausdorff_dim(build_multi(chain)).dim
        d2 = hausdorff_dim(build_single(family_value(FamilyId("L", n + 1)))).dim
        if not abs(d1 - d2) <= tol:
            bad.append(f"n={n}: {_fmt(d1)} vs {_fmt(d2)}")
    return _verdict(
        bad,
        f"dim of N_1..N_n intersection equals dim L_(n+1) +-{_tol(tol)} for n={_span(ns)}")


def _Y_containment():
    y = Y_graph()
    r = hausdorff_dim(y)
    ks = range(0, 7)
    in_band, text = _near("dim(Y)", r.dim, 0.315464, 1e-6)
    bad = [] if in_band else [text]
    for k in ks:
        host = build_single(family_value(FamilyId("N", 2 * k + 1)))
        res = is_subset(y, host)
        if not res.holds:
            bad.append(f"Y not in N_{2 * k + 1}: witness {res.witness}")
    return _verdict(bad, f"dim(Y)={_fmt(r.dim)}, contained in N_(2k+1) for k={_span(ks)}")


def _L_dim_bounds():
    ks = range(6, 201)
    bad = [k for k in ks if not check_L_bounds(k)]
    return _verdict(bad and [f"bounds fail at k={bad}"],
                    f"two-sided bounds on dim L_k hold for k={_span(ks)}")


def _oracle_agreement():
    bad = []
    single_ns, pair_ns = range(1, 13), range(1, 11)
    singles = [M for M in range(1, 101) if M % 3 == 1 and normalize(M).value == M]
    for M in singles:
        g = build_single(M)
        for n in single_ns:
            b, c = brute_count([M], n), count_paths(g, n)
            if b != c:
                bad.append(f"M={M} n={n}: {b} vs {c}")
    rng = random.Random(SAMPLE_SEED)
    cands = [M for M in range(4, 51) if M % 3 == 1 and normalize(M).value == M]
    pairs = set()
    while len(pairs) < 20:
        a, b = rng.sample(cands, 2)
        pairs.add((min(a, b), max(a, b)))
    for a, b in sorted(pairs):
        g = build_multi([a, b])
        for n in pair_ns:
            x, y = brute_count_extendable([a, b], n), count_paths(g, n)
            if x != y:
                bad.append(f"pair ({a},{b}) n={n}: {x} vs {y}")
    spot, want = brute_count([7], 3), 5
    if spot != want:
        bad.append(f"brute_count([7],3)={spot} want {want}")
    return _verdict(
        bad,
        f"{len(singles)} singles (n<={single_ns[-1]}) and {len(pairs)} seeded pairs"
        f" (n<={pair_ns[-1]}) match automaton path counts; brute_count([7],3)={want}",
        cap=8)


def _zero_one_values(limit: int) -> list:
    """The numbers 1..limit with base-3 digits 0 and 1 only, ascending: the
    binary words of i = 1, 2, ... read in base 3."""
    words = (int(f"{i:b}", 3) for i in itertools.count(1))
    return list(itertools.takewhile(lambda v: v <= limit, words))


def _has_zero_one_cycle_pair(M: int) -> bool:
    """Start vertex carries both a 0-loop and the return word 1 0^m."""
    g = build_single(M)
    rows, st = g.delta.tolist(), g.start
    if rows[st][0] != st:
        return False
    v = rows[st][1]
    for _ in range(len(to_ternary(M)) - 1):
        if v < 0:
            return False
        v = rows[v][0]
    return v == st


def _digit_criteria():
    bad = []
    n_trivial = 0
    for M in range(1, 1001):
        if normalize(M).residue == 2:
            n_trivial += 1
            g = build_multi([M])
            r = hausdorff_dim(g)
            if g.n != 1 or r.dim != 0.0:
                bad.append(f"M={M}: vertices={g.n} dim={r.dim}")
    vals = _zero_one_values(1000)
    normed = sorted({normalize(v).value for v in vals})
    for M in normed:
        if not _has_zero_one_cycle_pair(M):
            bad.append(f"M={M}: no second cycle at start")
    # Two distinct cycles through the start vertex survive every label product
    # of such graphs (the shorter word padded with 0s closes in all factors),
    # so beta > 1 for every tuple. Sample some tuples end to end anyway.
    rng = random.Random(SAMPLE_SEED)
    tuples = [rng.sample(vals, size) for size in (1, 2, 3) for _ in range(20)]
    for tup in tuples:
        r = hausdorff_dim(build_multi(tup))
        if not r.dim > 0.0:
            bad.append(f"tuple {tup}: dim={r.dim}")
    return _verdict(
        bad,
        f"{n_trivial} residue-2 values trivial; {len(normed)} zero-one values"
        f" certified (0-loop plus length m+1 return), {len(tuples)} sampled tuples dim>0",
        cap=8)


def _pair_4_256_root():
    d_single = hausdorff_dim(build_single(4)).dim
    d_pair = hausdorff_dim(build_multi([4, 256])).dim
    poly = CharPoly((-1, 0, 0, 0, 0, -1, 1))
    lo, hi, k = largest_root_bracket(poly.coefficients)
    root = log3((lo + hi) / (2 << k))
    return _all(
        (abs(d_single - log3(PHI)) <= 1e-6,
         f"dim(2^2)={_fmt(d_single)} want log3(phi)={_fmt(log3(PHI))}"),
        (abs(d_pair - DIM_4_256) <= TABLE_TOL, f"dim(2^2,2^8)={_fmt(d_pair)} want {DIM_4_256}"),
        (abs(root - DIM_4_256) <= TABLE_TOL,
         f"log3(root of {poly.pretty().replace(' ', '')})={_fmt(root)}"),
    )


# (name, suite, check) in the order `check all` runs them; every other
# suite runs its own checks in this order.
_REGISTRY = (
    ("example-7", "tables", _example_7),
    ("example-19", "tables", _example_19),
    ("example-7-19", "tables", _example_7_19),
    ("example-43", "tables", _example_43),
    ("table-L-dims", "tables", _table_L_dims),
    ("family-N-phi", "families", _family_N_phi),
    ("table-powers-of-2", "tables", _table_powers_of_2),
    ("L-pair-absorption", "families", _L_pair_absorption),
    ("N-chain-vs-L", "families", _N_chain_vs_L),
    ("Y-containment", "containment", _Y_containment),
    ("L-dim-bounds", "families", _L_dim_bounds),
    ("oracle-agreement", "oracle", _oracle_agreement),
    ("digit-criteria", "families", _digit_criteria),
    ("pair-4-256-root", "tables", _pair_4_256_root),
)

CHECKS = {name: check for name, _, check in _REGISTRY}

SUITES = {suite: tuple(name for name, s, _ in _REGISTRY if s == suite)
          for _, suite, _ in _REGISTRY}
SUITES["all"] = tuple(CHECKS)


def run_check(name: str) -> CheckResult:
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}")
    return CheckResult(name, *CHECKS[name]())


def run_suite(suite: str) -> list:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}, expected one of {sorted(SUITES)}")
    return [run_check(name) for name in SUITES[suite]]
