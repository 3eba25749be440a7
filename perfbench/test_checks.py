"""Self-test of the benchmark's checker: wrong results must count as failures.

    python3 -m pytest -q perfbench/test_checks.py

Needs neither the library nor a benchmark run: the results are hand-made
dicts shaped like the output of phase.py.
"""

import checks


def tally_of(workload, res, ref=None):
    tally = checks.Tally()
    checks.CHECKERS[workload](tally, res)
    if ref is not None:
        checks.check_reference(tally, checks.fingerprint(workload, res), ref)
    return tally


def mc_result(run_hits):
    hits = {"3": 122, "5": 145}
    return {
        "replay": {"hits": dict(hits), "items": 600},
        "runs": [{"hits": dict(run_hits), "output_sha256": "a"}],
        "run1": {"hits": dict(hits)},
        "cli": {"exit_code": 0, "output_sha256": "a"},
    }


def detect_result(factors, pruned):
    return {"batches": [{"batch": 0, "factors": factors, "pruned_has_factor": pruned,
                         "output_sha256": "b"}],
            "cli": {"exit_code": 0, "output_sha256": "b"}}


def lattice_result(cell_12_20):
    cells = [{"n": 4, "r": 5, "count": 37, "refused": False, "bound": 76.9, "error": None},
             dict({"n": 12, "r": 20, "bound": 6e10, "error": None}, **cell_12_20)]
    return {
        "bases": [{"bases": [{"n": 6, "rank": 4, "det_bits": 4, "det_positive": True}]}],
        "balls": {"cells": cells},
        "bounds": {"totals": {"256": "5.05", "512": "5.03"}},
        "lib": {"output_sha256": "c"},
        "cli": {"exit_code": 0, "output_sha256": "c"},
    }


def test_correct_results_pass():
    assert tally_of("mc-decay", mc_result({"3": 122, "5": 145})).failed == 0
    assert tally_of("detect-file", detect_result([[], [2, 6]], [False, True])).failed == 0
    assert tally_of("lattice", lattice_result({"count": None, "refused": True})).failed == 0


def test_wrong_hit_count_fails():
    tally = tally_of("mc-decay", mc_result({"3": 122, "5": 146}))
    assert tally.failed == 1
    assert "k=5" in tally.problems[0]


def test_hit_count_off_reference_fails():
    res = mc_result({"3": 122, "5": 145})
    tally = tally_of("mc-decay", res, ref={"hits": {"3": 122, "5": 144}, "cli_sha256": "a"})
    assert tally.failed == 1


def test_structural_disagreement_counts_each_trial():
    res = mc_result({"3": 122, "5": 145})
    res["replay"]["structural_disagreements"] = 3
    assert tally_of("mc-phi2", res).failed == 600


def test_wrong_factor_list_fails():
    # a factor found by the pruned sweep but missing from the full-sweep list
    assert tally_of("detect-file", detect_result([[], []], [False, True])).failed == 1
    # a list that is not ascending
    assert tally_of("detect-file", detect_result([[6, 2]], [True])).failed == 1


def test_factor_list_off_reference_fails():
    res = detect_result([[], [2, 6]], [False, True])
    ref = checks.fingerprint("detect-file", detect_result([[], [2]], [False, True]))
    assert tally_of("detect-file", res, ref=ref).failed == 1


def test_unrefused_12_20_cell_fails():
    assert tally_of("lattice", lattice_result({"count": 10**9, "refused": False})).failed == 1


def test_refusal_elsewhere_fails():
    res = lattice_result({"count": None, "refused": True})
    res["balls"]["cells"][0].update(count=None, refused=True)
    assert tally_of("lattice", res).failed == 1


def test_crashed_phase_fails():
    res = mc_result({"3": 122, "5": 145})
    res["runs"].append({"error": "Traceback ..."})
    assert tally_of("mc-decay", res).failed == 1
