import csv
import io
import json

import pytest

from cantor3.cli import CSV_HEADER, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    assert "beta=1.6180339886" in out


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


def test_refusal_exit_code(capsys):
    code, _, err = run(capsys, "dim", "7", "--max-vertices", "3")
    assert code == 2
    assert "refused" in err
    code, _, err = run(capsys, "blocks", "7", "--n", "30")
    assert code == 2


def test_blocks_output(capsys):
    code, out, _ = run(capsys, "blocks", "7", "--n", "4")
    assert code == 0
    assert out.splitlines() == ["n=1 blocks=2", "n=2 blocks=3", "n=3 blocks=5", "n=4 blocks=8"]
    code, out, _ = run(capsys, "blocks", "4,16", "--n", "3", "--extendable")
    assert code == 0
    assert out.splitlines() == ["n=1 blocks=1", "n=2 blocks=1", "n=3 blocks=1"]


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


def test_scan_jobs_deterministic(capsys):
    _, serial, _ = run(capsys, "scan", "4..13", "--csv")
    _, parallel, _ = run(capsys, "scan", "4..13", "--csv", "--jobs", "3")

    def strip_elapsed(text):
        return [row[:6] for row in csv.reader(io.StringIO(text))]

    assert strip_elapsed(serial) == strip_elapsed(parallel)


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


def test_family_command(capsys):
    code, out, _ = run(capsys, "family", "L:6")
    assert code == 0 and out.strip().endswith("ok")
    code, out, _ = run(capsys, "family", "N:3")
    assert code == 0 and "vertices=8/8" in out
    code, out, _ = run(capsys, "family", "P:2")
    assert code == 0 and "no closed form" in out
    assert run(capsys, "family", "Q:3")[0] == 1
    assert run(capsys, "family", "N:25")[0] == 2


def test_check_suites(capsys):
    code, out, _ = run(capsys, "check", "containment")
    assert code == 0
    assert out.splitlines()[0].startswith("PASS Y-containment")
    assert out.splitlines()[-1] == "1 passed, 0 failed"
    assert run(capsys, "check", "nosuch")[0] == 1


def test_check_oracle_suite(capsys):
    code, out, _ = run(capsys, "check", "oracle")
    assert code == 0
    assert "PASS oracle-agreement" in out


def test_scan_jobs_clamped_to_cpus_and_tasks(monkeypatch, capsys):
    import cantor3.cli as cli

    sizes = []

    class RecordingPool:
        """Stands in for the process pool; runs the rows in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    _, serial, _ = run(capsys, "scan", "4..13", "--csv")
    _, pooled, _ = run(capsys, "scan", "4..13", "--csv", "--jobs", "100000")
    assert sizes == [4]
    assert [r[:6] for r in csv.reader(io.StringIO(pooled))] == \
        [r[:6] for r in csv.reader(io.StringIO(serial))]
    run(capsys, "scan", "4..6", "--csv", "--jobs", "100000")
    assert sizes == [4, 3]  # three rows need three workers at most
    run(capsys, "scan", "7,19", "--csv", "--jobs", "100000")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    run(capsys, "scan", "4..13", "--csv", "--jobs", "8")
    assert sizes == [4, 3]  # one row, or an unknown CPU count, runs serially


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
