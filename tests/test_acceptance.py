"""Acceptance gate: every pinned reference value and structural claim, one
test per criterion, in order. Each test prints its PASS/FAIL line so a -s or
failed run shows the full scoreboard, and compares the line, its timing
masked as <t>, with a pinned copy: the detail text is output too.
"""

import re

from cantor3.checks import run_check


def _run(name, want):
    res = run_check(name)
    print(res.line())
    assert res.ok, res.detail
    assert re.sub(r"\d+(\.\d+)? m?s$", "<t>", res.line()) == want


def test_01_example_7():
    _run("example-7",
         "PASS example-7: dim=0.438018 want 0.438018+-1e-5, |beta-phi|=1.1e-14, "
         "vertices=4 want 4, <t>")


def test_02_example_19():
    _run("example-19",
         "PASS example-19: dim=0.347934 want 0.347934+-1e-5, beta=1.465571 want "
         "1.465571+-1e-5, vertices=8 want 8, cyclic sccs=2 want 2")


def test_03_example_7_19():
    _run("example-7-19",
         "PASS example-7-19: vertices=6 want 6, char poly x^6 - 2x^5 + x^4 - 1 "
         "want x^6 - 2x^5 + x^4 - 1, dim=0.347934 want 0.347934+-1e-5")


def test_04_example_43():
    _run("example-43",
         "PASS example-43: sccs=[['0'], ['112'], ['12', '121'], ['120', '2', "
         "'20', '201']], beta=1.000000000000 want 1+-1e-9, dim=0.000000")


def test_05_table_L_dims():
    _run("table-L-dims",
         "PASS table-L-dims: k=1..9 dims within 1e-5, k vertices, char poly x^k - "
         "x^(k-1) - 1, <t>")


def test_06_family_N_phi():
    _run("family-N-phi",
         "PASS family-N-phi: k=1..12: 2^k vertices, one scc, dim=log3(phi)+-1e-8, "
         "eigenvector residual <= 1e-9, <t>")


def test_07_table_powers_of_2():
    _run("table-powers-of-2",
         "PASS table-powers-of-2: 7 singles, 1 nonzero pair, 9 zero pairs, 3 zero "
         "triples; 2^8: first-return words of length <= 36 give dim >= "
         "log3(1.398764) = 0.305466 > refuted entry 0.287416 + 1e-5; <t>")


def test_08_L_pair_absorption():
    _run("L-pair-absorption",
         "PASS L-pair-absorption: product of L_k1, L_k2 pointed-isomorphic to "
         "L_k2 for 1<=k1<k2<=8")


def test_09_N_chain_vs_L():
    _run("N-chain-vs-L",
         "PASS N-chain-vs-L: dim of N_1..N_n intersection equals dim L_(n+1) "
         "+-1e-6 for n=1..5")


def test_10_Y_containment():
    _run("Y-containment", "PASS Y-containment: dim(Y)=0.315465, contained in N_(2k+1) for k=0..6")


def test_11_L_dim_bounds():
    _run("L-dim-bounds", "PASS L-dim-bounds: two-sided bounds on dim L_k hold for k=6..200")


def test_12_oracle_agreement():
    _run("oracle-agreement",
         "PASS oracle-agreement: 34 singles (n<=12) and 20 seeded pairs (n<=10) "
         "match automaton path counts; brute_count([7],3)=5")


def test_13_digit_criteria():
    _run("digit-criteria",
         "PASS digit-criteria: 498 residue-2 values trivial; 53 zero-one values "
         "certified (0-loop plus length m+1 return), 60 sampled tuples dim>0")


def test_14_pair_4_256_root():
    _run("pair-4-256-root",
         "PASS pair-4-256-root: dim(2^2)=0.438018 want log3(phi)=0.438018, "
         "dim(2^2,2^8)=0.228391 want 0.228392, log3(root of x^6-x^5-1)=0.228391")
