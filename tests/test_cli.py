"""Command-line surface: dispatch, formats, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacunary import total_bound
from lacunary.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# --- detection commands ------------------------------------------------------------


def test_test_command_reads_file(tmp_path, capsys):
    f = tmp_path / "polys.txt"
    f.write_text("# corpus\n1 2\n1 3\n")
    code, out, err = run_cli(["test", str(f)], capsys)
    assert code == 0 and err == ""
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert records[0] == {
        "exponents": [1, 2],
        "factors": [3],
        "has_cyclotomic": True,
        "mode": "full-sweep",
    }
    assert records[1]["factors"] == [] and records[1]["has_cyclotomic"] is False


def test_test_command_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 2\n1 3\n"))
    code, out, err = run_cli(["test"], capsys)
    assert code == 0 and err == ""
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert [r["factors"] for r in records] == [[3], []]


def test_test_command_parse_error_names_line(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("1 2\nnope nope\n")
    code, out, err = run_cli(["test", str(f)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "PolyParseError"
    assert payload["line"] == 2


# one malformed line of each kind: non-integer, descending, repeated, zero exponent
MALFORMED = ("3 x 7", "5 4", "2 2", "0 3")


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    before=st.lists(st.sampled_from(("1 2", "1 3", "# comment", "", "  4 9  ")), max_size=8),
    bad=st.sampled_from(MALFORMED),
    after=st.lists(st.sampled_from(("1 2", "x", "# comment")), max_size=3),
)
def test_test_command_names_the_malformed_line(before, bad, after):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "polys.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([*before, bad, *after]) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["test", path])
    assert code == 2 and out.getvalue() == ""
    payload = json.loads(err.getvalue())
    assert payload["error"] == "PolyParseError"
    assert payload["line"] == len(before) + 1


@pytest.mark.parametrize("argv", [["factors", "5", "--N", "5"], ["test", "--N", "5"]])
def test_degree_cap_is_not_a_flag(argv, capsys):
    # a factor list does not depend on any cap at or above the degree
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_factors_command(capsys):
    code, out, _ = run_cli(["factors", "5"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["factors"] == [2, 10]


def test_factors_pruned_mode_records_mode(capsys):
    code, out, _ = run_cli(["factors", "1", "2", "--mode", "fs-pruned"], capsys)
    rec = json.loads(out)
    assert rec["mode"] == "fs-pruned" and rec["factors"] == [3]


def test_cap_override_limits_sweep(capsys):
    code, out, _ = run_cli(["factors", "5", "--cap-override", "9"], capsys)
    rec = json.loads(out)
    assert rec["factors"] == [2]  # 10 is beyond the overridden cap


# --- inspection commands -------------------------------------------------------------


def test_basis_command(capsys):
    code, out, _ = run_cli(["basis", "--n", "4"], capsys)
    rec = json.loads(out)
    assert rec["rank"] == 2
    assert rec["vectors"] == [[1, 0, 1, 0], [0, 1, 0, 1]]


def test_basis_work_guard_exit_code(capsys):
    # rank 24,270 at n = 30030: the basis and Gram would need about 10^9 entries
    start = time.perf_counter()
    code, out, err = run_cli(["basis", "--n", "30030"], capsys)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ResourceLimitError"
    assert time.perf_counter() - start < 1.0


def test_candidates_command(capsys):
    code, out, _ = run_cli(["candidates", "--k", "4"], capsys)
    assert out == "1,2,3,5,6,10\n"
    code, out, _ = run_cli(["candidates", "--k", "4", "--format", "json"], capsys)
    assert json.loads(out)["members"] == [1, 2, 3, 5, 6, 10]


def test_bounds_command(capsys):
    code, out, _ = run_cli(["bounds", "--k", "64"], capsys)
    lines = out.strip().split("\n")
    assert lines[0] == "k,range_label,n_lo,n_hi,bound,formula_tag"
    assert all(line.split(",")[0] == "64" for line in lines[1:])
    tags = {line.split(",")[-1] for line in lines[1:]}
    assert "eq3-lattice" in tags and "large-n-residue" in tags


def test_bounds_command_json_mirrors_total_bound(capsys):
    code, out, _ = run_cli(["bounds", "--k", "256", "--format", "json"], capsys)
    assert code == 0
    rec = json.loads(out)
    bb = total_bound(256)
    assert rec["k"] == 256 and rec["total"] == bb.total
    assert len(rec["rows"]) == len(bb.rows)
    for row, r in zip(rec["rows"], bb.rows):
        assert (row["label"], row["n_lo"], row["bound"], row["tag"]) == (r.label, r.n_lo, r.value, r.tag)
        assert row["n_hi"] == ("inf" if r.n_hi == float("inf") else r.n_hi)
        assert row["raw"] == ("inf" if r.raw == float("inf") else r.raw)
    assert rec["rows"][-1]["n_hi"] == "inf"


# --- experiment commands -------------------------------------------------------------


def test_estimate_command_csv(capsys):
    argv = ["estimate", "--k", "5", "--N", "12", "--n", "2",
            "--trials", "2000", "--seed", "9", "--workers", "1"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "k,N,n_or_any,mode,trials,hits,estimate,ci_low,ci_high,seed"
    fields = row.split(",")
    assert fields[:5] == ["5", "12", "2", "monte-carlo", "2000"]


def test_estimate_invalid_parameters_exit_code(capsys):
    code, out, err = run_cli(
        ["estimate", "--k", "5", "--N", "4", "--trials", "10"], capsys
    )
    assert code == 4
    assert json.loads(err)["error"] == "InvalidParametersError"


def test_enumerate_command(capsys):
    argv = ["enumerate", "--k", "5", "--N", "12", "--n", "2", "--format", "json"]
    code, out, _ = run_cli(argv, capsys)
    rec = json.loads(out)
    assert rec["mode"] == "exhaustive"
    assert rec["hits"] == 300 and rec["trials"] == 792


def test_enumerate_resource_limit_exit_code(capsys):
    code, out, err = run_cli(["enumerate", "--k", "20", "--N", "45"], capsys)
    assert code == 3
    assert json.loads(err)["error"] == "ResourceLimitError"


@pytest.mark.parametrize("argv", [
    ["estimate", "--k", "5", "--N", "12", "--n", "2", "--trials", "10", "--mode", "fs-pruned"],
    ["estimate", "--k", "5", "--N", "12", "--n", "2", "--trials", "10", "--cap-override", "3"],
    ["enumerate", "--k", "5", "--N", "12", "--n", "2", "--mode", "fs-pruned"],
    ["enumerate", "--k", "20", "--N", "45", "--n", "0"],  # invalid before it is too large
])
def test_sweep_flags_with_one_modulus_are_invalid_parameters(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "InvalidParametersError"


def test_factors_sweep_guard_exit_code(capsys):
    code, out, err = run_cli(["factors", "100000000"], capsys)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ResourceLimitError"


def test_pruned_decay_at_large_degree_is_not_refused(capsys):
    # a fs-pruned sweep lists only (k+1)-smooth moduli: 522 at most for k=3
    # and 6,786 for k=5 at N = 10^8, far below the full sweep's 1.94 * 10^8
    argv = ["decay", "--k-list", "3,5", "--N", "100000000", "--trials", "50"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert [line.split(",")[0] for line in out.strip().split("\n")[1:]] == ["3", "5"]


def test_pruned_decay_at_large_k_is_not_refused(capsys):
    # k = 300 admits over 10^6 kernels, but the sweep at N = 1000 has under 2,000 moduli
    argv = ["decay", "--k-list", "300", "--N", "1000", "--trials", "10", "--workers", "1"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert out.strip().split("\n")[1].startswith("300,1000,any,monte-carlo:fs-pruned,10,")


def test_decay_command(capsys):
    argv = ["decay", "--k-list", "3,4", "--N", "40", "--trials", "300", "--seed", "2"]
    code, out, _ = run_cli(argv, capsys)
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "3" and lines[2].split(",")[0] == "4"


def test_decay_bad_k_list_is_invalid_parameters(capsys):
    argv = ["decay", "--k-list", "3,x", "--N", "40", "--trials", "10"]
    code, out, err = run_cli(argv, capsys)
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "InvalidParametersError"


# --- determinism ---------------------------------------------------------------------


def test_repeated_runs_byte_identical(tmp_path):
    argv = [sys.executable, "-m", "lacunary.cli", "estimate", "--k", "4", "--N", "30",
            "--trials", "1500", "--seed", "33"]
    outs = []
    for w, path in [("1", tmp_path / "a.csv"), ("8", tmp_path / "b.csv"),
                    ("1", tmp_path / "c.csv")]:
        subprocess.run(argv + ["--workers", w, "--output", str(path)], check=True)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_json_roundtrip_reproduces_verdicts(tmp_path, capsys):
    f = tmp_path / "polys.txt"
    f.write_text("2 4\n1 3\n5 7 11\n")
    code, out, _ = run_cli(["test", str(f)], capsys)
    for line in out.strip().split("\n"):
        rec = json.loads(line)
        argv = ["factors"] + [str(e) for e in rec["exponents"]]
        code2, out2, _ = run_cli(argv, capsys)
        rec2 = json.loads(out2)
        assert rec2["factors"] == rec["factors"]
        assert rec2["has_cyclotomic"] == rec["has_cyclotomic"]
