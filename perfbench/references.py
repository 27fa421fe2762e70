"""Correctness references for benchmark queries, computed outside the timed run.

Each reference comes from a route the timed path does not take:

- residue-2 multipliers: the one-vertex zero graph, dim 0;
- L_k and N_k singles: the closed forms `expect_L` / `expect_N`;
- everything else: `build_multi_direct` (carry vectors, not a fold of label
  products) must give the same graph; its SCC count comes from scipy's
  `connected_components`, and its Perron root from the exact
  characteristic polynomial (up to CHAR_POLY_VERTICES vertices), LAPACK
  eigenvalues (up to DENSE_VERTICES) or ARPACK per component;
- block counts: `count_paths` on the direct graph (n <= 18);
- path counts: the same recurrence in int64 modulo two primes, on the
  direct graph, with scipy sparse products instead of `count_paths`;
- containment and isomorphism: the paper's results (Y lies in every
  N_(2k+1), L_j absorbs into L_k for j < k, 3M presents the same set as
  M), and a refuted containment's witness must pass the digit oracle.

`char_poly_dim` is not used: its bisection on [1, 2] finds a wrong root or
no bracket on some graphs (M = 112 gives 0.0484 against 0.3477), so the
exact polynomial's roots are taken with numpy instead.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigs

from cantor3 import automaton, families, oracle, spectral

from workloads import L, N

DIM_TOL = 1e-6
CHAR_POLY_VERTICES = 16
DENSE_VERTICES = 3000
COUNT_PRIMES = (2_147_483_647, 2_147_483_629)


def strip3(m: int) -> int:
    while m % 3 == 0:
        m //= 3
    return m


def _edges(g):
    return np.array(g.edges, dtype=np.int64).reshape(-1, 3)


def _matrix(g):
    e = _edges(g)
    return csr_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(g.n, g.n))


def _trim(p):
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _divmod(p, d):
    """Quotient and remainder of ascending Fraction coefficient lists."""
    p, q = list(p), [Fraction(0)] * max(1, len(p) - len(d) + 1)
    while len(p) >= len(d) and any(p):
        shift, c = len(p) - len(d), p[-1] / d[-1]
        q[shift] = c
        for i, x in enumerate(d):
            p[i + shift] -= c * x
        p.pop()  # the leading term cancels exactly
    return _trim(q), _trim(p or [Fraction(0)])


def squarefree(coeffs):
    """p / gcd(p, p'): the same roots, each simple, so numpy finds them accurately."""
    p = _trim([Fraction(c) for c in coeffs])
    a, b = p, _trim([i * c for i, c in enumerate(p)][1:] or [Fraction(0)])
    while any(b):
        a, b = b, _divmod(a, b)[1]
    return _divmod(p, a)[0]


def reference_beta(g) -> float:
    """Perron root of g's adjacency matrix, by a route hausdorff_dim does not take."""
    if g.n <= CHAR_POLY_VERTICES:
        p = squarefree(spectral.char_poly(spectral.adjacency(g)).coefficients)
        if len(p) == 1:
            return 0.0
        return float(max(abs(np.roots([float(c) for c in reversed(p)]))))
    a = _matrix(g)
    if g.n <= DENSE_VERTICES:
        return float(max(abs(np.linalg.eigvals(a.toarray()))))
    k, labels = connected_components(a, directed=True, connection="strong")
    best = 0.0
    for c in range(k):
        idx = np.flatnonzero(labels == c)
        sub = a[idx][:, idx]
        if len(idx) <= 2:
            b = max(abs(np.linalg.eigvals(sub.toarray())))
        else:
            b = max(abs(eigs(sub, k=1, which="LM", return_eigenvectors=False, tol=1e-12)))
        best = max(best, float(b))
    return best


def _log3(beta: float) -> float:
    return 0.0 if beta <= 1.0 + 1e-12 else math.log(beta) / math.log(3.0)


def _family(value: int):
    for k in range(1, 40):
        if value == L(k):
            return families.expect_L(k)
    for k in range(1, families.N_CAP + 1):
        if value == N(k):
            return families.expect_N(k)
    return None


def _mismatch(what, got, want):
    return None if got == want else f"{what}={got} want {want}"


def check_dim(q, rec, digest_of):
    values = [strip3(v) for v in q["values"]]
    if any(v % 3 == 2 for v in values):
        want = (1, 1, 0.0)
        got = (rec["vertices"], rec["sccs"], rec["dim"])
        return _mismatch("trivial (vertices, sccs, dim)", got, want)
    distinct = sorted(set(v for v in values if v != 1)) or [1]
    fam = _family(distinct[0]) if len(distinct) == 1 else None
    if fam is not None:
        return (_mismatch("(vertices, sccs)", (rec["vertices"], rec["sccs"]),
                          (fam.expected_vertices, fam.expected_scc_count))
                or (None if abs(rec["dim"] - fam.expected_dim) <= DIM_TOL
                    else f"dim={rec['dim']:.9f} closed form {fam.expected_dim:.9f}"))
    g = automaton.build_multi_direct(values)
    bad = _mismatch("(vertices, edges)", (rec["vertices"], rec["edges"]), (g.n, len(g.edges)))
    if bad:
        return "build_multi_direct disagrees: " + bad
    if rec["digest"] != digest_of(g):
        return "build_multi_direct gives a different edge list"
    sccs = connected_components(_matrix(g), directed=True, connection="strong")[0]
    want = _log3(reference_beta(g))
    return (_mismatch("sccs", rec["sccs"], sccs)
            or (None if abs(rec["dim"] - want) <= DIM_TOL
                else f"dim={rec['dim']:.9f} reference {want:.9f}"))


def _direct(values):
    return automaton.build_multi_direct([strip3(v) for v in values])


def count_mod(g, n: int, p: int) -> int:
    """Words of length n from the start, modulo p, by sparse int64 products."""
    e = _edges(g)
    step = csr_matrix((np.ones(len(e), dtype=np.int64), (e[:, 1], e[:, 0])), shape=(g.n, g.n))
    v = np.zeros(g.n, dtype=np.int64)
    v[g.start] = 1
    for _ in range(n):
        v = (step @ v) % p
    return int(v.sum() % p)


def check_count(q, rec):
    g = _direct(q["values"])
    for p in COUNT_PRIMES:
        want = count_mod(g, q["n"], p)
        if rec["count"] % p != want:
            return f"count mod {p} = {rec['count'] % p} want {want}"
    return None


def check_blocks(q, rec):
    if len(q["values"]) != 1:
        raise ValueError("block-count references cover single multipliers")
    g = _direct(q["values"])
    want = [automaton.count_paths(g, n) for n in range(1, q["n"] + 1)]
    return _mismatch("counts", rec["counts"], want)


def _in_Y(word) -> bool:
    return all(d == 0 for d in word[1::2])


def check_contain(q, rec):
    if rec["holds"] != q["expect"]:
        return f"holds={rec['holds']} want {q['expect']}"
    if q["expect"]:
        return _mismatch("witness", rec["witness"], None)
    w = rec["witness"]
    if not w:
        return "refuted containment without a witness"
    # each side is a multiplier list or Y
    inside_a = _in_Y(w) if q["values_a"] is None else oracle.admissible_word(q["values_a"], w)
    inside_b = _in_Y(w) if q["values_b"] is None else oracle.admissible_word(q["values_b"], w)
    return None if inside_a and not inside_b else f"witness {w} does not separate"


def check_iso(q, rec):
    return _mismatch("iso", rec["iso"], q["expect"])


CHECKS = {"count": check_count, "blocks": check_blocks,
          "contain": check_contain, "iso": check_iso}


def check(q, rec, digest_of) -> str | None:
    """None when the record matches its reference, else the reason it does not."""
    if "error" in rec:
        return rec["error"]
    if q["kind"] == "dim":
        return check_dim(q, rec, digest_of)
    return CHECKS[q["kind"]](q, rec)
