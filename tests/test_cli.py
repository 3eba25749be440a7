"""Command-line surface: dispatch, formats, exit codes, determinism."""

import argparse
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

from lacunary import ResourceLimitError, SparsePoly, find_cyclotomic_factors, total_bound
from lacunary.cli import build_parser, main


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


def test_cap_override_is_not_a_flag(capsys):
    # a cap would only cut the factor list, and Phi_n | F already forces phi(n) <= deg F
    with pytest.raises(SystemExit) as exc:
        main(["factors", "5", "--cap-override", "9"])
    assert exc.value.code == 2


# the flags each command takes, as README's CLI section states them; a flag
# added or removed shows as an edit here
FLAGS = {
    "test": {"--output", "--mode"},
    "factors": {"--output", "--mode"},
    "basis": {"--output", "--n"},
    "candidates": {"--output", "--format", "--k"},
    "bounds": {"--output", "--format", "--k"},
    "estimate": {"--output", "--format", "--seed", "--workers", "--k", "--N", "--n", "--trials", "--mode"},
    "decay": {"--output", "--format", "--seed", "--workers", "--k-list", "--N", "--trials", "--mode"},
    "enumerate": {"--output", "--format", "--k", "--N", "--n", "--mode"},
}


def test_flag_inventory():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    taken = {
        name: {s for action in parser._actions for s in action.option_strings} - {"-h", "--help"}
        for name, parser in sub.choices.items()
    }
    assert taken == FLAGS


def test_factors_command(capsys):
    code, out, _ = run_cli(["factors", "5"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["factors"] == [2, 10]


def test_factors_pruned_mode_records_mode(capsys):
    code, out, _ = run_cli(["factors", "1", "2", "--mode", "fs-pruned"], capsys)
    rec = json.loads(out)
    assert rec["mode"] == "fs-pruned" and rec["factors"] == [3]


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


@pytest.mark.parametrize("argv", [
    ["candidates", "--k", "350"],  # 10,071,738 kernels, one prime past k = 349's 9,855,176
    ["candidates", "--k", "1000000"],
    ["candidates", "--k", "10000000"],
    ["candidates", "--k", "1000000000"],  # refused after the primes up to 89
    ["bounds", "--k", "1000000000"],  # exp(k / (24 log k)) mid-range moduli overflow a float
    ["estimate", "--k", "100000000", "--N", "100000000", "--n", "2", "--trials", "1"],
    ["bounds", "--k", str(10**309)],  # past float range; once an OverflowError traceback
    ["factors", "6", str(10**309)],  # the same, from the sweep's trial-division guard
])
def test_refused_before_anything_is_listed_or_sampled(argv, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "ResourceLimitError"
    assert time.perf_counter() - start < 1.0


def test_bounds_refusal_past_float_range_prints_a_lower_bound(capsys):
    code, _, err = run_cli(["bounds", "--k", "1000000000"], capsys)
    assert code == 3
    assert "mid-range moduli (a lower bound)" in json.loads(err)["message"]


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
    ["estimate", "--k", "5", "--N", "12", "--n", "2", "--trials", "10", "--mode", "full-sweep"],
    ["enumerate", "--k", "5", "--N", "12", "--n", "2", "--mode", "fs-pruned"],
    ["enumerate", "--k", "20", "--N", "45", "--n", "0"],  # invalid before it is too large
])
def test_sweep_flags_with_one_modulus_are_invalid_parameters(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "InvalidParametersError"


def test_factors_sweep_guard_exit_code(capsys):
    # x^(10^8) + 1: its range of 1.94 * 10^8 moduli once refused it, but the
    # walk's node bound is small; Phi_n divides it exactly when n = 2^9 5^a
    code, out, _ = run_cli(["factors", "100000000"], capsys)
    assert code == 0 and json.loads(out)["factors"] == [512 * 5**a for a in range(9)]
    # j * 2^10 3^6 5^3, j = 1..60: the walk's node bound is 4.72 * 10^7
    start = time.perf_counter()
    code, out, err = run_cli(["factors"] + [str(j * 93312000) for j in range(1, 61)], capsys)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ResourceLimitError"
    assert "4.72e+7 predicted candidate moduli" in json.loads(err)["message"]
    assert time.perf_counter() - start < 1.0


def test_pruned_decay_at_large_degree_is_not_refused(capsys):
    # a fs-pruned sweep lists only (k+1)-smooth moduli: 522 at most for k=3
    # and 6,786 for k=5 at N = 10^8, far below the full sweep's 1.94 * 10^8
    argv = ["decay", "--k-list", "3,5", "--N", "100000000", "--trials", "50"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert [line.split(",")[0] for line in out.strip().split("\n")[1:]] == ["3", "5"]


@pytest.mark.parametrize("argv", [
    # the guard once counted every (k+1)-smooth n up to N prod p/(p-1), which
    # refused k = 13 at N = 10^9; the sweep builds a few hundred products
    ["decay", "--k-list", "3,5,7,9,11,13", "--N", "1000000000", "--trials", "100"],
    ["decay", "--k-list", "3,5,13", "--N", str(10**20), "--trials", "300", "--workers", "1"],
])
def test_pruned_decay_is_guarded_by_its_products(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert [line.split(",")[0] for line in out.strip().split("\n")[1:]] == argv[2].split(",")


def test_pruned_factors_of_a_large_prime_exponent_are_fast(capsys):
    # a pruned sweep factors no exponent: its filter tries only the primes up
    # to k + 1 = 3, so the 10^16 prime costs no trial division
    start = time.perf_counter()
    code, out, _ = run_cli(["factors", "--mode", "fs-pruned", "210", "10000000000000061"], capsys)
    assert code == 0 and json.loads(out)["factors"] == []
    assert time.perf_counter() - start < 1.0


def test_capped_full_sweep_of_a_large_prime_exponent_is_fast(capsys):
    # the 10^16 prime would be trial-divided up to its square root, 10^8; a cap
    # only cuts the factor list, so the capped sweep is refused as fast as the
    # uncapped one
    start = time.perf_counter()
    code, out, err = run_cli(["factors", "210", "10000000000000061"], capsys)
    assert code == 3 and out == ""
    assert "1.01e+8 predicted trial divisions" in json.loads(err)["message"]
    with pytest.raises(ResourceLimitError, match="1.01e\\+8 predicted trial divisions"):
        find_cyclotomic_factors(SparsePoly((210, 10000000000000061), 10000000000000061), cap=100)
    assert time.perf_counter() - start < 1.0


def test_trial_divisions_above_the_guard_are_refused(capsys):
    # twelve exponents near 10^16 would each be trial-divided up to its square
    # root, 2.92 * 10^9 divisions in all
    start = time.perf_counter()
    argv = ["factors"] + [str(j * 10000000000000061) for j in range(1, 13)]
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ResourceLimitError"
    assert "trial divisions" in json.loads(err)["message"]
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("k, N, unit", [
    # the filter would visit the k + 1 keys once for each of the 9,592 and
    # 2,262 primes up to k + 1, 9.60 * 10^8 and 4.53 * 10^7 visits
    ("100000", "300000", "9.60e+8 predicted first-peel key visits"),
    ("20000", "100000", "4.53e+7 predicted first-peel key visits"),
    # 1.45 * 10^6 visits pass, and the walk's node bound is refused
    ("3200", "1000000000", "predicted candidate moduli"),
])
def test_large_k_sweeps_are_refused_before_they_walk(k, N, unit, capsys):
    start = time.perf_counter()
    argv = ["decay", "--k-list", k, "--N", N, "--trials", "5", "--workers", "1", "--mode", "fs-pruned"]
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ResourceLimitError"
    assert unit in json.loads(err)["message"]
    assert time.perf_counter() - start < 1.0


def test_any_factor_estimate_is_one_event_in_either_mode(capsys):
    # the full range at N = 10^9 holds 1.94 * 10^9 moduli, but the event is
    # decided by the pruned sweep whatever the mode, so only the label differs
    argv = ["estimate", "--k", "13", "--N", "1000000000", "--trials", "200", "--seed", "3",
            "--workers", "1", "--mode"]
    rows = {}
    for mode in ("full-sweep", "fs-pruned"):
        code, out, err = run_cli(argv + [mode], capsys)
        assert code == 0 and err == ""
        rows[mode] = out.strip().split("\n")[1].split(",")
    assert rows["full-sweep"][3] == "monte-carlo:full-sweep"
    assert rows["fs-pruned"][3] == "monte-carlo:fs-pruned"
    assert rows["full-sweep"][5] == "47"
    del rows["full-sweep"][3], rows["fs-pruned"][3]
    assert rows["full-sweep"] == rows["fs-pruned"]


@pytest.mark.parametrize("N", [10**200, 10**309], ids=["1e200", "1e309"])
def test_pruned_factors_at_a_large_degree_are_fast(N, capsys):
    # the walk stops on phi(n) > N, with no walk for the largest modulus, also
    # past float range, where the full sweep is refused
    start = time.perf_counter()
    code, out, _ = run_cli(["factors", "--mode", "fs-pruned", "6", str(N)], capsys)
    assert code == 0 and json.loads(out)["factors"] == []
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv", [
    # 40 exponents whose passing prime powers give the walk 1.88 * 10^7 nodes
    ["factors", "--mode", "fs-pruned"] + [str(j * 2**20 * 3**12 * 5**8 * 7**6) for j in range(1, 41)],
])
def test_pruned_sweeps_above_the_guard_are_refused(argv, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ResourceLimitError"
    assert "1.88e+7 predicted candidate moduli" in json.loads(err)["message"]
    assert time.perf_counter() - start < 1.0


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
