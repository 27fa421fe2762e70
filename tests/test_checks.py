"""Failure paths of the acceptance checks: each check, with one library call
that it reads made wrong, reports FAIL and names the entry that went wrong.
The PASS lines themselves are pinned in test_acceptance.py.
"""

import dataclasses

import pytest

import cantor3.checks as checks
from cantor3.cli import main


def _shift_dims(product_only=False):
    """hausdorff_dim with every dim 1e-4 too large (beta to match); with
    product_only, only graphs of more than one multiplier are shifted."""
    real = checks.hausdorff_dim

    def shifted(g):
        r = real(g)
        if product_only and g.carries.shape[1] < 2:
            return r
        return dataclasses.replace(r, dim=r.dim + 1e-4, beta=3.0 ** (r.dim + 1e-4))

    return shifted


def _count_paths_off_by_one():
    real = checks.count_paths
    return lambda g, n: real(g, n) + 1


# check -> (the call patched in cantor3.checks, its stand-in, text the FAIL detail names)
_BREAKS = {
    "example-7": ("hausdorff_dim", _shift_dims, "dim=0.438118 want 0.438018"),
    "example-19": ("hausdorff_dim", _shift_dims, "dim=0.348034 want 0.347934"),
    "example-7-19": ("hausdorff_dim", _shift_dims, "dim=0.348034 want 0.347934"),
    "example-43": ("hausdorff_dim", _shift_dims, "dim=0.000100"),
    "table-L-dims": ("hausdorff_dim", _shift_dims, "k=1: dim=0.631030 want 0.630929"),
    "family-N-phi": ("hausdorff_dim", _shift_dims, "k=1: vertices=2 want 2, sccs=1, |dim-log3 phi|=1.0e-04"),
    "table-powers-of-2": ("hausdorff_dim", _shift_dims, "2^2: dim=0.438118 want 0.438018"),
    "L-pair-absorption": ("pointed_isomorphic", lambda: lambda a, b: False,
                          "not isomorphic: (L1,L2), (L1,L3)"),
    "N-chain-vs-L": ("hausdorff_dim", lambda: _shift_dims(product_only=True), "n=2: "),
    "Y-containment": ("hausdorff_dim", _shift_dims, "dim(Y)=0.315565 want 0.315464+-1e-6"),
    "L-dim-bounds": ("check_L_bounds", lambda: lambda k: k != 100, "bounds fail at k=[100]"),
    "oracle-agreement": ("count_paths", _count_paths_off_by_one, "M=1 n=1: 2 vs 3"),
    "digit-criteria": ("hausdorff_dim", _shift_dims, "M=2: vertices=1 dim=0.0001"),
    "pair-4-256-root": ("hausdorff_dim", _shift_dims, "dim(2^2,2^8)=0.228491 want 0.228392"),
}


def test_every_check_has_a_failure_case():
    assert set(_BREAKS) == set(checks.SUITES["all"])


@pytest.mark.parametrize("name", list(_BREAKS))
def test_check_fails_and_names_the_bad_entry(monkeypatch, name):
    call, make, named = _BREAKS[name]
    monkeypatch.setattr(checks, call, make())
    res = checks.run_check(name)
    assert not res.ok and res.line().startswith(f"FAIL {name}: ")
    assert named in res.detail


@pytest.mark.parametrize("name", ["table-L-dims", "family-N-phi", "table-powers-of-2",
                                  "N-chain-vs-L"])
def test_table_check_fails_on_a_nan_dim(monkeypatch, name):
    real = checks.hausdorff_dim
    nan = float("nan")
    monkeypatch.setattr(checks, "hausdorff_dim",
                        lambda g: dataclasses.replace(real(g), dim=nan, beta=nan))
    res = checks.run_check(name)
    assert not res.ok and "nan" in res.detail


def test_check_command_reports_a_failure(monkeypatch, capsys):
    monkeypatch.setattr(checks, "hausdorff_dim", _shift_dims())
    code = main(["check", "containment"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 3
    assert lines[0].startswith("FAIL Y-containment: dim(Y)=0.315565 want 0.315464+-1e-6")
    assert lines[-1] == "0 passed, 1 failed"
