import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from cantor3.checks import SUITES
from cantor3.cli import CSV_HEADER, main
from cantor3.errors import RefusalError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def src_env() -> dict:
    """The environment of a subprocess that imports cantor3 from this checkout's src."""
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=src_env(), timeout=120)


def test_dim_examples(capsys):
    code, out, _ = run(capsys, "dim", "7")
    assert code == 0
    assert out.startswith("beta=1.618034 dim=0.438018 vertices=4 sccs=1")

    code, out, _ = run(capsys, "dim", "7,19")
    assert code == 0
    assert "dim=0.347934" in out and "vertices=6" in out

    code, out, _ = run(capsys, "dim", "2")
    assert code == 0
    assert "dim=0.000000" in out and "vertices=1" in out


def test_dim_precision_flag(capsys):
    code, out, _ = run(capsys, "dim", "7", "--precision", "10")
    assert code == 0
    assert "beta=1.6180339887" in out  # phi = 1.61803398874989...


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "dim", "bogus")
    assert code == 1
    assert "error" in err


def test_usage_error_exit_code(capsys):
    code = main(["dim"])
    capsys.readouterr()
    assert code == 1
    code = main(["nonsense"])
    capsys.readouterr()
    assert code == 1
    # scan takes no --jobs: its rows run one after another in this process
    code, out, err = run(capsys, "scan", "4..6", "--jobs", "2")
    assert code == 1 and out == "" and "unrecognized arguments: --jobs 2" in err


def test_refusal_exit_code(capsys):
    code, _, err = run(capsys, "dim", "7", "--max-vertices", "3")
    assert code == 2
    assert "refused" in err
    code, _, err = run(capsys, "blocks", "7", "--n", "30")
    assert code == 2
    # the extension probe would walk 81 270 carry states past each word
    code, out, err = run(capsys, "blocks", "82,85,88", "--n", "6", "--extendable")
    assert code == 2
    assert out == "" and "4096 carry states, got 81270" in err


def test_huge_multipliers_are_refused_while_parsing(monkeypatch, capsys):
    import cantor3.cli as cli

    # Python's default limit, also where a Python 3.10 has none
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    for spec in ("L:30000000", "1" * 5001, "t:1" + "0" * 9500):
        code, out, err = run(capsys, "dim", spec)
        assert code == 2 and out == "" and err.startswith("refused:"), spec[:12]
    built = []
    monkeypatch.setattr(cli, "build_multi", lambda *a, **k: built.append(a))
    code, out, err = run(capsys, "scan", "L:19990..20000")
    assert code == 2 and out == "" and built == [] and "L:19990" in err
    code, out, err = run(capsys, "scan", "L:9010..9020")  # the first rows fit, L:9014 does not
    assert code == 2 and out == "" and built == [] and "L:9014" in err
    # a number option is not a multiplier: a usage error
    assert run(capsys, "scan", "7", "--max-vertices", "1" * 5001)[0] == 1


@pytest.mark.parametrize("argv, code, message", [
    (["dim", "L:" + "9" * 4400], 2, "refused: "),
    (["scan", "L:1.." + "9" * 5001], 2, "refused: "),
    (["scan", "1.." + "9" * 5001], 2, "refused: "),
    (["scan", "7", "--max-vertices", "9" * 5001], 1,
     "argument --max-vertices: expected a positive integer"),
    (["blocks", "7", "--n", "9" * 5001], 1, "argument --n: expected a positive integer"),
], ids=["family-index", "family-range-end", "range-end", "max-vertices", "n"])
def test_numbers_too_long_to_read_are_refused(monkeypatch, capsys, argv, code, message):
    # Python's default limit, also where a Python 3.10 has none
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    got, out, err = run(capsys, *argv)
    assert got == code and out == "" and message in err


def test_usage_error_echoes_a_bounded_prefix(capsys):
    code, out, err = run(capsys, "blocks", "7", "--n", "9" * 5001)
    assert code == 1 and out == ""
    assert f"--n: expected a positive integer, got '{'9' * 20}'... (5001 characters)" in err
    assert "9" * 21 not in err


def test_blocks_refuses_before_the_first_count(capsys):
    for extendable in ([], ["--extendable"]):
        code, out, err = run(capsys, "blocks", "7", "--n", "23", *extendable)
        assert code == 2 and out == ""
        assert "limited to n <= 22, got 23" in err


@pytest.mark.parametrize("spec", ["\u0661\u0669", "\u00b2", "+7", "1_9", "7,\u0661\u0669"])
def test_multipliers_are_ascii_decimal(capsys, spec):
    code, out, err = run(capsys, "dim", spec)
    assert code == 1 and out == ""
    assert "cannot parse multiplier" in err


@pytest.mark.parametrize("spec", ["L:+4", "L:1_0", "N:\u0663", "7,P:\u00b2"])
def test_family_indices_are_ascii_decimal(capsys, spec):
    code, out, err = run(capsys, "dim", spec)
    assert code == 1 and out == ""
    assert "bad family index" in err


@pytest.mark.parametrize("spec", ["1_0..1_2", "\u0661..\u0663", "+4..6", "4..+6", "L:1..\u0663"])
def test_range_ends_are_ascii_decimal(capsys, spec):
    code, out, err = run(capsys, "scan", spec)
    assert code == 1 and out == ""
    assert "bad range" in err


@pytest.mark.parametrize("value", ["0", "-3", "x", "+3", "1_0", "\u0663"])
def test_blocks_length_must_be_positive(capsys, value):
    code, out, err = run(capsys, "blocks", "7", "--n", value)
    assert code == 1 and out == ""
    assert f"--n: expected a positive integer, got '{value}'" in err


@pytest.mark.parametrize("value", ["+3", "1_0", "\u0663", "0", "13"])
def test_precision_is_ascii_decimal_1_to_12(capsys, value):
    code, out, err = run(capsys, "dim", "7", "--precision", value)
    assert code == 1 and out == ""
    assert f"--precision: expected decimal places 1..12, got '{value}'" in err


@pytest.mark.parametrize("value", ["0", "-5", "1_000"])
def test_max_vertices_must_be_positive(capsys, value):
    code, out, err = run(capsys, "dim", "7", "--max-vertices", value)
    assert code == 1 and out == ""
    assert f"--max-vertices: expected a positive integer, got '{value}'" in err


def test_blocks_enumerates_once(monkeypatch, capsys):
    # every length comes from the one enumeration to --n; --extendable
    # counts each length on its own
    import cantor3.oracle as oracle

    lengths = []
    count = oracle._count

    def spy(values, n, *rest):
        lengths.append(n)
        return count(values, n, *rest)

    monkeypatch.setattr(oracle, "_count", spy)
    code, out, _ = run(capsys, "blocks", "730", "--n", "18")
    assert code == 0 and lengths == [18]
    want = [f"n={n} blocks={oracle._count((730,), n)[n]}" for n in range(1, 19)]
    assert out.splitlines() == want
    lengths.clear()
    code, out, _ = run(capsys, "blocks", "730", "--n", "6", "--extendable")
    assert code == 0 and lengths == [1, 2, 3, 4, 5, 6]


def test_blocks_output(capsys):
    code, out, _ = run(capsys, "blocks", "7", "--n", "4")
    assert code == 0
    assert out.splitlines() == ["n=1 blocks=2", "n=2 blocks=3", "n=3 blocks=5", "n=4 blocks=8"]
    code, out, _ = run(capsys, "blocks", "4,16", "--n", "3", "--extendable")
    assert code == 0
    assert out.splitlines() == ["n=1 blocks=1", "n=2 blocks=1", "n=3 blocks=1"]
    # a multiplier 2 mod 3 admits only the zero word
    code, out, _ = run(capsys, "blocks", "5", "--n", "4")
    assert code == 0
    assert out.splitlines() == [f"n={n} blocks=1" for n in range(1, 5)]
    code, out, _ = run(capsys, "blocks", "2,7", "--n", "3", "--extendable")
    assert code == 0
    assert out.splitlines() == [f"n={n} blocks=1" for n in range(1, 4)]


def test_export_json_schema(capsys):
    code, out, _ = run(capsys, "export", "7", "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"start", "vertices", "edges", "provenance"}
    assert len(doc["vertices"]) == 4


def test_export_dot_and_y(capsys):
    code, out, _ = run(capsys, "export", "Y", "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert "doublecircle" in out
    code, out, _ = run(capsys, "export", "Y", "--json")
    assert json.loads(out)["provenance"] == "Y"


# Export output pinned byte for byte: vertex order, edge order and layout
# are what every later change must keep. The JSON literals are compact and
# re-rendered with the export's own indentation.
EXPORT_7_19_JSON = (
    '{"start":0,"vertices":[{"id":0,"carries":[0,0]},{"id":1,"carries":[2,6]},'
    '{"id":2,"carries":[3,8]},{"id":3,"carries":[3,9]},{"id":4,"carries":[1,3]},'
    '{"id":5,"carries":[0,1]}],"edges":[{"from":0,"to":0,"label":0},'
    '{"from":0,"to":1,"label":1},{"from":1,"to":2,"label":1},{"from":2,"to":3,"label":1},'
    '{"from":3,"to":4,"label":0},{"from":3,"to":3,"label":1},{"from":4,"to":5,"label":0},'
    '{"from":5,"to":0,"label":0}],"provenance":"product(carry(7), carry(19))"}'
)
EXPORT_Y_JSON = (
    '{"start":0,"vertices":[{"id":0,"carries":[0]},{"id":1,"carries":[1]}],'
    '"edges":[{"from":0,"to":1,"label":0},{"from":0,"to":1,"label":1},'
    '{"from":1,"to":0,"label":0}],"provenance":"Y"}'
)
EXPORT_5_7_JSON = (  # residue 2: the trivial graph, one carry column per multiplier
    '{"start":0,"vertices":[{"id":0,"carries":[0,0]}],'
    '"edges":[{"from":0,"to":0,"label":0}],"provenance":"trivial(5,7)"}'
)
EXPORT_19_DOT = """\
digraph presentation {
  rankdir=LR;
  v0 [label="0", shape=doublecircle];
  v1 [label="20", shape=circle];
  v2 [label="2", shape=circle];
  v3 [label="22", shape=circle];
  v4 [label="21", shape=circle];
  v5 [label="100", shape=circle];
  v6 [label="10", shape=circle];
  v7 [label="1", shape=circle];
  v0 -> v0 [label="0"];
  v0 -> v1 [label="1"];
  v1 -> v2 [label="0"];
  v1 -> v3 [label="1"];
  v2 -> v4 [label="1"];
  v3 -> v5 [label="1"];
  v4 -> v2 [label="0"];
  v5 -> v6 [label="0"];
  v5 -> v5 [label="1"];
  v6 -> v7 [label="0"];
  v6 -> v4 [label="1"];
  v7 -> v0 [label="0"];
}
"""


@pytest.mark.parametrize("spec, fmt, want", [
    ("7,19", "--json", json.dumps(json.loads(EXPORT_7_19_JSON), indent=2) + "\n"),
    ("19", "--dot", EXPORT_19_DOT),
    ("Y", "--json", json.dumps(json.loads(EXPORT_Y_JSON), indent=2) + "\n"),
    ("5,7", "--json", json.dumps(json.loads(EXPORT_5_7_JSON), indent=2) + "\n"),
    # the multiplier 1 is no constraint: neither a carry column nor in the provenance
    ("1,5,7", "--json", json.dumps(json.loads(EXPORT_5_7_JSON), indent=2) + "\n"),
])
def test_export_is_byte_identical(capsys, spec, fmt, want):
    code, out, _ = run(capsys, "export", spec, fmt)
    assert code == 0
    assert out == want


def test_export_requires_exactly_one_format(capsys):
    assert main(["export", "7"]) == 1
    capsys.readouterr()
    assert main(["export", "7", "--dot", "--json"]) == 1
    capsys.readouterr()


def test_export_deterministic(capsys):
    _, a, _ = run(capsys, "export", "7,19", "--dot")
    _, b, _ = run(capsys, "export", "7,19", "--dot")
    assert a == b


def test_contain_and_iso(capsys):
    code, out, _ = run(capsys, "contain", "Y", "28")
    assert code == 0 and out.strip() == "subset: yes"
    code, out, _ = run(capsys, "contain", "4", "13")
    assert code == 0 and out.startswith("subset: no witness=")
    word = out.strip().split("=", 1)[1]
    assert set(word) <= {"0", "1"}
    code, out, _ = run(capsys, "iso", "4,13", "13")
    assert code == 0 and out.strip() == "isomorphic: yes"
    code, out, _ = run(capsys, "iso", "7", "19")
    assert code == 0 and out.strip() == "isomorphic: no"


def test_scan_csv_header_and_rows(capsys):
    code, out, _ = run(capsys, "scan", "L:1..4", "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert tuple(rows[0]) == CSV_HEADER
    assert len(rows) == 5
    assert [r[0] for r in rows[1:]] == ["L:1", "L:2", "L:3", "L:4"]
    assert rows[2][4] == "0.438018"


def test_scan_mixed_specs_and_error_column(capsys):
    code, out, _ = run(capsys, "scan", "7,19", "847288609444", "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][0] == "7,19" and rows[1][7] == ""
    assert rows[2][0] == "847288609444" and "exceeds" in rows[2][7]


def test_scan_prints_a_refusal_as_a_row_without_csv(capsys):
    code, out, _ = run(capsys, "scan", "7", "1000003", "--max-vertices", "10")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("7 vertices=4 ")
    assert lines[1] == "1000003 error: carry automaton for 1000003 exceeds 10 vertices"


def test_scan_raises_what_is_not_a_refusal(capsys, monkeypatch):
    import cantor3.cli as cli

    # only a refusal is a row's error cell; a library fault must not print as one and exit 0
    def broken(g):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "hausdorff_dim", broken)
    with pytest.raises(ZeroDivisionError):
        run(capsys, "scan", "7", "19", "--csv")


def test_scan_matches_dim(capsys):
    _, dim_out, _ = run(capsys, "dim", "7,19")
    _, scan_out, _ = run(capsys, "scan", "7,19", "--csv")
    row = list(csv.reader(io.StringIO(scan_out)))[1]
    beta = dim_out.split()[0].split("=")[1]
    dim = dim_out.split()[1].split("=")[1]
    assert row[3] == beta and row[4] == dim


def test_scan_rejects_bad_range(capsys):
    assert run(capsys, "scan", "9..4")[0] == 1
    assert run(capsys, "scan", "L:0..3")[0] == 1
    assert run(capsys, "scan", "x..y")[0] == 1


def _recorded_parses(monkeypatch) -> list:
    """The labels cli parses one multiplier at a time, in order, from now on."""
    import cantor3.cli as cli

    built = []
    parse = cli.parse_multiplier

    def recording(text):
        built.append(text)
        return parse(text)

    monkeypatch.setattr(cli, "parse_multiplier", recording)
    return built


def test_scan_refuses_oversized_before_building_rows(monkeypatch, capsys):
    import cantor3.cli as cli

    built = _recorded_parses(monkeypatch)
    code, out, err = run(capsys, "scan", "1..1000000000")
    assert code == 2 and out == "" and built == []
    assert f"scan limited to {cli.SCAN_ROW_LIMIT} rows, got 1000000000" in err
    # tuple specs and family ranges count too: 3 + 1 + 1 rows at a cap of 5;
    # each range's top end is parsed once before its rows are made
    monkeypatch.setattr(cli, "SCAN_ROW_LIMIT", 5)
    assert run(capsys, "scan", "1..3", "7,19", "L:1..1")[0] == 0
    assert built == ["3", "L:1", "1", "2", "3", "L:1"]
    code, _, err = run(capsys, "scan", "1..4", "7,19", "L:1..1")
    assert code == 2 and "scan limited to 5 rows, got 6" in err
    assert built == ["3", "L:1", "1", "2", "3", "L:1"]


def test_scan_rows_are_made_as_they_are_read(monkeypatch):
    import cantor3.cli as cli

    built = _recorded_parses(monkeypatch)
    rows = cli._expand_scan_specs(["1..100000"])
    assert [label for _, label in itertools.islice(rows, 2)] == ["1", "2"]
    assert built == ["100000", "1", "2"]


def test_scan_range_refused_at_its_top_end_writes_no_row(monkeypatch, capsys):
    import cantor3.cli as cli

    parse = cli.parse_multiplier

    def refusing(text):
        # stands in for a top end too long to print, which every lower end passes
        if text == "L:9":
            raise RefusalError("the top end is too long")
        return parse(text)

    monkeypatch.setattr(cli, "parse_multiplier", refusing)
    for argv in (["scan", "L:1..9"], ["scan", "4..6", "L:1..9", "--csv"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "the top end is too long" in err


def test_precision_only_on_commands_that_print_numbers(capsys):
    for argv in (["export", "7", "--json"], ["contain", "Y", "28"], ["iso", "4,13", "13"]):
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, *argv, "--precision", "3")[0] == 1
    for argv in (["dim", "7"], ["scan", "7"], ["family", "L:2"]):
        assert run(capsys, *argv, "--precision", "3")[0] == 0


def test_family_tolerance_is_not_an_option(capsys):
    assert run(capsys, "family", "L:4")[0] == 0
    assert run(capsys, "family", "L:4", "--tol", "1e-3")[0] == 1  # cli.FAMILY_DIM_TOL


def test_family_command(capsys):
    code, out, _ = run(capsys, "family", "L:6")
    assert code == 0 and out.strip().endswith("ok")
    code, out, _ = run(capsys, "family", "N:3")
    assert code == 0 and "vertices=8/8" in out
    code, out, _ = run(capsys, "family", "P:2")
    assert code == 0 and "no closed form" in out
    assert run(capsys, "family", "Q:3")[0] == 1
    assert run(capsys, "family", "N:25")[0] == 2


def test_family_refuses_before_building(monkeypatch, capsys):
    import cantor3.cli as cli

    built = []
    monkeypatch.setattr(cli, "build_multi", lambda *a, **k: built.append(a))
    # the cap allows N_21's 2^21 vertices; the closed form's own limit does not
    code, out, err = run(capsys, "family", "N:21", "--max-vertices", "3000000")
    assert code == 2 and out == "" and built == []
    assert "N_k presentations have 2^k vertices; k <= 20, got 21" in err


def test_check_suites(capsys):
    code, out, _ = run(capsys, "check", "containment")
    assert code == 0
    assert out.splitlines()[0].startswith("PASS Y-containment")
    assert out.splitlines()[-1] == "1 passed, 0 failed"
    names = sorted(SUITES)
    code, out, err = run(capsys, "check", "nosuch")
    assert (code, out) == (1, "")
    assert err == f"error: unknown suite 'nosuch', expected one of {names}\n"
    # the help spells the names out, so that parsing does not import the suite
    code, out, _ = run(capsys, "check", "--help")
    assert code == 0 and f"one of {', '.join(names)}\n" in out


_CLI_WITHOUT_CHECKS = """
import contextlib, io, sys
from cantor3.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["dim", "7"]) == 0
assert "cantor3.checks" not in sys.modules
"""


def test_only_check_loads_the_suite():
    # the command line imports the acceptance suite in `check` alone
    proc = python("-c", _CLI_WITHOUT_CHECKS)
    assert proc.returncode == 0, proc.stderr


def test_check_oracle_suite(capsys):
    code, out, _ = run(capsys, "check", "oracle")
    assert code == 0
    assert "PASS oracle-agreement" in out


def test_one_tarjan_per_graph(monkeypatch, capsys):
    import cantor3.spectral as spectral

    calls = []
    tarjan = spectral._tarjan

    def counted(succ):
        calls.append(len(succ))
        return tarjan(succ)

    monkeypatch.setattr(spectral, "_tarjan", counted)
    code, out, _ = run(capsys, "scan", "4..40", "--csv")
    assert code == 0
    assert len(calls) == len(out.splitlines()) - 1 == 37
    del calls[:]
    code, out, _ = run(capsys, "dim", "7")
    assert code == 0 and "sccs=1" in out and len(calls) == 1
    del calls[:]
    code, out, _ = run(capsys, "family", "L:4")
    assert code == 0 and "sccs=1/1 ok" in out and len(calls) == 1
    # at or above the array cutoff one Tarjan pass finishes the numpy search
    for spec in ("N:14", "16777216,67108864"):
        del calls[:]
        code, out, _ = run(capsys, "dim", spec)
        assert code == 0 and len(calls) == 1, spec


def test_dim_json(capsys):
    code, out, _ = run(capsys, "dim", "7,19", "--json")
    assert code == 0 and len(out.splitlines()) == 1
    doc = json.loads(out)
    assert set(doc) == {"vertices", "edges", "sccs", "method", "beta", "beta_bracket", "dim",
                        "error_bound", "iterations"}
    assert (doc["vertices"], doc["edges"], doc["sccs"]) == (6, 8, 1)
    assert doc["method"] == "dense_squaring" and doc["iterations"] > 0
    (a, b), (c, d) = doc["beta_bracket"]
    assert Fraction(a, b) <= Fraction(doc["beta"]) <= Fraction(c, d)
    assert abs(doc["dim"] - 0.347934) <= 1e-6 and 0 < doc["error_bound"] <= 1e-12
    # the text output is unchanged by the flag's existence
    _, text, _ = run(capsys, "dim", "7,19")
    assert text == "beta=1.465571 dim=0.347934 vertices=6 sccs=1 error_bound=6.7e-16\n"


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write fails as on a closed pipe."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        raise io.UnsupportedOperation("no file descriptor")


def test_closed_stdout_ends_quietly(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["scan", "4..40", "--csv", "--precision", "12"]) == 0
    assert capsys.readouterr().err == ""


def test_closed_pipe_ends_quietly_end_to_end():
    # more than a pipe buffer of output, and the reader leaves after one line
    proc = subprocess.Popen([sys.executable, "-m", "cantor3.cli", "export", "4782970", "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env())
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_scan_streams_into_a_closed_pipe(tmp_path):
    # each row is written once it is computed: a reader that leaves after the
    # header and two rows ends a scan of 100 000 rows within seconds
    with open(tmp_path / "stderr", "w+b") as err:
        proc = subprocess.Popen([sys.executable, "-m", "cantor3", "scan", "1..100000", "--csv"],
                                stdout=subprocess.PIPE, stderr=err, env=src_env())
        timer = threading.Timer(20, proc.kill)
        timer.start()
        try:
            lines = [proc.stdout.readline() for _ in range(3)]
            proc.stdout.close()
            code = proc.wait()
        finally:
            timer.cancel()
        err.seek(0)
        assert code == 0 and err.read() == b""
    assert lines[0] == ",".join(CSV_HEADER).encode() + b"\n"
    assert [line.split(b",")[:5] for line in lines[1:]] == [
        [b"1", b"1", b"1", b"2.000000", b"0.630930"], [b"2", b"1", b"1", b"1.000000", b"0.000000"]]


def test_python_dash_m_cantor3_runs_the_cli():
    proc = python("-m", "cantor3", "dim", "7")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("beta=1.618034 dim=0.438018 vertices=4 sccs=1")
    proc = python("-m", "cantor3", "dim", "x")
    assert proc.returncode == 1 and proc.stdout == ""  # main's exit code is the process's


_LOADED = """
import contextlib, io, json, sys
import cantor3.cli as cli
from cantor3 import adjacency, build_multi, count_paths, parse_multiplier_list
from cantor3.automaton import LIMB_KERNEL_EDGES

def loaded(after):
    mods = ("scipy", "scipy.sparse", "multiprocessing")
    print(json.dumps([after, [m for m in mods if m in sys.modules]]))

loaded("import")
for argv in (["dim", "7"], ["scan", "1..300", "--csv"], ["contain", "Y", "N:3"],
             ["iso", "L:2,L:4", "L:4"], ["blocks", "7", "--n", "12"], ["dim", "N:10"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    loaded(" ".join(argv))
    if argv[0] == "blocks":
        count_paths(build_multi(parse_multiplier_list("N:3")), 200)
        loaded("count_paths")
g = build_multi(parse_multiplier_list("N:10"))
assert g.edge_count >= LIMB_KERNEL_EDGES  # the limb kernel, not the loop
count_paths(g, 200)
loaded("count_paths N:10")
adjacency(g)
loaded("adjacency")
"""


def test_scipy_and_multiprocessing_load_only_where_used():
    proc = python("-c", _LOADED)
    assert proc.returncode == 0, proc.stderr
    loaded = dict(json.loads(line) for line in proc.stdout.splitlines())
    light = ["import", "dim 7", "scan 1..300 --csv", "contain Y N:3", "iso L:2,L:4 L:4",
             "blocks 7 --n 12", "count_paths"]
    sparse = ["dim N:10", "count_paths N:10"]
    assert list(loaded) == light + sparse + ["adjacency"]
    # N:10 is one 1024-vertex component, past the dense limit, so dim runs the
    # sparse power iteration, and its count the limb kernel: both call scipy's
    # compiled routines without importing scipy
    assert all(loaded[k] == [] for k in light + sparse), loaded
    assert loaded["adjacency"] == ["scipy", "scipy.sparse"]


_CHECKS_ON_FIRST_USE = """
import sys
import cantor3
assert "cantor3.checks" not in sys.modules
from cantor3 import build_multi, count_paths, parse_multiplier_list
count_paths(build_multi(parse_multiplier_list("N:12")), 400)  # the limb kernel's largest words count
assert not {"cantor3.checks", "concurrent.futures"} & sys.modules.keys()
assert cantor3.run_check is sys.modules["cantor3.checks"].run_check
assert cantor3.run_check("example-7").ok
from cantor3 import CheckResult, run_suite
assert run_suite is cantor3.checks.run_suite and CheckResult is cantor3.checks.CheckResult
"""


def test_import_cantor3_loads_checks_on_first_use():
    # `import cantor3` and a count compile and run no acceptance code and
    # start no thread pool; the suite's names still resolve from the package
    proc = python("-c", _CHECKS_ON_FIRST_USE)
    assert proc.returncode == 0, proc.stderr
    proc = python("-c", "import cantor3; cantor3.no_such_name")
    assert "AttributeError: module 'cantor3' has no attribute 'no_such_name'" in proc.stderr


_KERNELS_THEN_SCIPY = """
import sys
from pathlib import Path
from cantor3.automaton import sparse_kernels
kernels = sparse_kernels()
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
import numpy as np
import scipy.sparse
own = scipy.sparse._sparsetools
assert own is not kernels and own.__name__ == "scipy.sparse._sparsetools"
assert kernels.__file__ == own.__file__
assert Path(kernels.__file__).parent == Path(scipy.sparse.__file__).parent
a = scipy.sparse.csr_matrix(np.array([[0, 1], [1, 1]]))
assert (a @ a).toarray().tolist() == [[1, 1], [1, 2]]
"""


def test_sparse_kernels_leave_scipy_sparse_importable():
    # the kernels load under cantor3's own module name: scipy's package,
    # imported afterwards, still loads and binds its own copy of the file
    proc = python("-c", _KERNELS_THEN_SCIPY)
    assert proc.returncode == 0, proc.stderr


def test_scan_csv_is_pinned(capsys):
    # columns 1-6 and 8 of the CSV, as `cut -d, -f1-6,8` prints them; 7 is the time
    code, out, _ = run(capsys, "scan", "1..3000", "--csv", "--precision", "12")
    assert code == 0
    cut = "".join(",".join(f[:6] + f[7:8]) + "\n" for f in (line.split(",") for line in out.splitlines()))
    assert hashlib.sha256(cut.encode()).hexdigest() == (
        "5e30e2620d489ec0a224790e8f25dd32771f4ae17fe8b1baf14725e1c55fe8a2")


def test_scan_csv_over_pairs_is_pinned(capsys):
    # the 1 378 pairs M_1 < M_2 in 4..160, both 1 mod 3; 125 of them have two
    # components or more, so the hash pins how components are numbered.
    # Columns 1-6 and 8 as in test_scan_csv_is_pinned, read with csv since
    # each label holds a comma
    ms = range(4, 161, 3)
    pairs = [f"{a},{b}" for i, a in enumerate(ms) for b in ms[i + 1:]]
    assert len(pairs) == 1378
    code, out, _ = run(capsys, "scan", *pairs, "--csv", "--precision", "12")
    assert code == 0
    cut = "".join(",".join(f[:6] + f[7:8]) + "\n" for f in csv.reader(io.StringIO(out)))
    assert hashlib.sha256(cut.encode()).hexdigest() == (
        "c380b0b08b7cc26d180b04060e89642981758b41d7f90c3a5c3a98c07221efab")


# `dim --json` on graphs of 2048 edges or more, which take the array SCC
# search, pinned byte for byte. No scan row reaches that search.
DIM_JSON_PINNED = {
    "N:14": '{"vertices": 16384, "edges": 24576, "sccs": 1, "method": "power_iteration",'
            ' "beta": 1.618033988799149, "beta_bracket": [[35853857946295, 22158902844392],'
            ' [125488502825671, 77556159918681]], "dim": 0.4380178795136508,'
            ' "error_bound": 2.647765340313413e-10, "iterations": 328}',
    "1048576": '{"vertices": 6089, "edges": 8119, "sccs": 5, "method": "power_iteration",'
               ' "beta": 1.333986065107896, "beta_bracket": [[8400939236495, 6297621436071],'
               ' [44481636521943, 33344903422849]], "dim": 0.2623050046546715,'
               ' "error_bound": 2.761286199692848e-10, "iterations": 164}',
    "1000003": '{"vertices": 5899, "edges": 7864, "sccs": 7, "method": "power_iteration",'
               ' "beta": 1.3348293178302124, "beta_bracket": [[11945489677173, 8949076499608],'
               ' [3235144134385, 2423638805821]], "dim": 0.2628802124687917,'
               ' "error_bound": 1.5309498113680322e-10, "iterations": 164}',
    "16777216,67108864": '{"vertices": 8173, "edges": 8792, "sccs": 51, "method": "power_iteration",'
                         ' "beta": 1.0764777628973543, "beta_bracket": [[4138061413334, 3844075147535],'
                         ' [4416534767175, 4102764513469]], "dim": 0.06707951614568602,'
                         ' "error_bound": 4.1657356730784306e-10, "iterations": 688}',
    "P:10": '{"vertices": 2048, "edges": 3072, "sccs": 6, "method": "power_iteration",'
            ' "beta": 1.370226958227005, "beta_bracket": [[2882660622511, 2103783322956],'
            ' [23519724450849, 17164838498120]], "dim": 0.286703864782654,'
            ' "error_bound": 2.7525182133558706e-10, "iterations": 460}',
}


@pytest.mark.parametrize("spec", list(DIM_JSON_PINNED))
def test_dim_json_is_pinned_on_array_search_graphs(capsys, spec):
    code, out, _ = run(capsys, "dim", spec, "--json")
    assert code == 0
    assert out == DIM_JSON_PINNED[spec] + "\n"


# The brackets these graphs printed while the power iteration tested its
# quotients after every product; its rounds of four products moved them.
DIM_JSON_EARLIER_BRACKETS = {
    "1048576": [[33603756958289, 25190485755531], [59337883280047, 44481636513368]],
    "1000003": [[11945489682901, 8949076505276], [5176230613681, 3877822087750]],
    "P:10": [[56492492461477, 41228565925898], [16113680245798, 11759862221411]],
}


@pytest.mark.parametrize("spec", list(DIM_JSON_EARLIER_BRACKETS))
def test_repinned_bracket_meets_the_earlier_one(spec):
    # both certified brackets enclose the same beta, so they intersect
    lo, hi = (Fraction(*end) for end in json.loads(DIM_JSON_PINNED[spec])["beta_bracket"])
    old_lo, old_hi = (Fraction(*end) for end in DIM_JSON_EARLIER_BRACKETS[spec])
    assert lo <= old_hi and old_lo <= hi
