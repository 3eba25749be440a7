"""Monte Carlo and exhaustive estimation: determinism, exactness, coverage."""

import multiprocessing
import os
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacunary import (
    InvalidParametersError,
    ResourceLimitError,
    SparsePoly,
    decay_series,
    divides_phi_dense,
    estimate_any_cyclotomic,
    estimate_phi_n,
    exhaustive_enumeration,
    find_cyclotomic_factors,
    lattice_ball_bound,
    reports_to_csv,
    sample_random,
    wilson_interval,
)
from lacunary import experiment
from lacunary.experiment import report_to_json


# --- Wilson interval -----------------------------------------------------------


def test_wilson_basic_properties():
    low, high = wilson_interval(50, 100)
    assert 0 < low < 0.5 < high < 1
    assert wilson_interval(0, 100)[0] == 0.0
    assert wilson_interval(100, 100)[1] == 1.0
    lo1, hi1 = wilson_interval(5, 100)
    lo2, hi2 = wilson_interval(5, 10000)
    assert hi2 - lo2 < hi1 - lo1  # narrows with trials


def test_wilson_validation():
    with pytest.raises(InvalidParametersError):
        wilson_interval(5, 0)
    with pytest.raises(InvalidParametersError):
        wilson_interval(11, 10)


# --- exhaustive enumeration ------------------------------------------------------


def test_exhaustive_phi2_exact():
    r = exhaustive_enumeration(5, 12, n=2)
    assert r.exact_value == Fraction(25, 66)
    assert r.estimate == r.ci_low == r.ci_high
    assert r.mode == "exhaustive"
    assert r.trials == 792 and r.hits == 300


def test_exhaustive_phi3_zero():
    r = exhaustive_enumeration(4, 12, n=3)
    assert r.exact_value == 0


def test_exhaustive_full_support_always_divisible():
    # k = N gives 1 + x + ... + x^N, a product of cyclotomic polynomials
    for N in (1, 2, 5, 6):
        r = exhaustive_enumeration(N, N)
        assert r.exact_value == 1


def test_exhaustive_guard():
    with pytest.raises(ResourceLimitError):
        exhaustive_enumeration(20, 45)
    with pytest.raises(ResourceLimitError):  # 30,101 digits: too long for str() or a float
        exhaustive_enumeration(50000, 100000)
    t = time.perf_counter()
    with pytest.raises(ResourceLimitError):  # refused before C(10^6, 5 * 10^5) is computed
        exhaustive_enumeration(500000, 10**6)
    assert time.perf_counter() - t < 1.0


def test_single_modulus_event_takes_no_sweep_mode():
    with pytest.raises(InvalidParametersError):
        exhaustive_enumeration(5, 12, n=2, mode="fs-pruned")
    with pytest.raises(InvalidParametersError):
        exhaustive_enumeration(5, 12, n=2, mode="full-sweep")
    with pytest.raises(InvalidParametersError):
        exhaustive_enumeration(20, 45, n=0)  # invalid before it is too large
    assert exhaustive_enumeration(4, 12).sweep_mode == "full-sweep"


# --- the dense route checks the structural decision --------------------------------

CHECKED_MODULI = (2, 3, 4, 6, 12, 30)


def test_estimate_hits_equal_a_dense_recount():
    k, N, trials, seed = 5, 40, 2000, 3
    for n in CHECKED_MODULI:
        recount = sum(divides_phi_dense(sample_random(k, N, seed, i), n) for i in range(trials))
        assert estimate_phi_n(k, N, n, trials, seed).hits == recount, n


def test_exhaustive_hits_equal_a_dense_recount():
    k, N = 5, 16
    subsets = [SparsePoly(exps, N) for exps in combinations(range(1, N + 1), k)]
    for n in CHECKED_MODULI:
        recount = sum(divides_phi_dense(F, n) for F in subsets)
        assert exhaustive_enumeration(k, N, n=n).hits == recount, n


def test_single_modulus_estimate_builds_no_cyclotomic_polynomial():
    # the dense route divides x^4620 - 1 by every lower cyclotomic polynomial:
    # 5.0 s for these 20 trials on a 2-vCPU VM
    t = time.perf_counter()
    estimate_phi_n(5, 10**4, 4620, 20, seed=1)
    assert time.perf_counter() - t < 1.0


# --- Monte Carlo ------------------------------------------------------------------


def test_estimate_single_polynomial_space():
    r = estimate_phi_n(2, 2, 3, 50, seed=5)
    assert r.estimate == 1.0  # only 1 + x + x^2 exists and it is divisible


def test_estimate_impossible_parity_is_zero():
    r = estimate_phi_n(4, 12, 2, 3000, seed=1)
    assert r.hits == 0  # even k cannot satisfy the count-matching condition


def test_estimate_deterministic_and_worker_independent():
    a = estimate_phi_n(5, 40, 2, 4000, seed=99, workers=1)
    b = estimate_phi_n(5, 40, 2, 4000, seed=99, workers=1)
    c = estimate_phi_n(5, 40, 2, 4000, seed=99, workers=2)
    d = estimate_phi_n(5, 40, 2, 4000, seed=99, workers=8)
    assert a == b == c == d
    e = estimate_any_cyclotomic(4, 60, 2000, seed=7, workers=1)
    f = estimate_any_cyclotomic(4, 60, 2000, seed=7, workers=8)
    assert e == f


def test_more_workers_than_trials_split_into_one_chunk_per_trial():
    # one chunk bound per worker would be 10^9 ints, gigabytes, before the empty spans drop
    start = time.perf_counter()
    report = estimate_phi_n(3, 10, 2, 10, 0, workers=10**9)
    assert time.perf_counter() - start < 1.0
    assert report == estimate_phi_n(3, 10, 2, 10, 0, workers=1)


@settings(max_examples=10, deadline=None)
@given(
    k=st.integers(1, 6),
    N=st.integers(6, 60),
    n=st.integers(1, 120),
    trials=st.integers(256, 512),
    seed=st.integers(0, 2**64),
    workers=st.integers(1, 8),
    mode=st.sampled_from(["full-sweep", "fs-pruned"]),
)
def test_hits_do_not_depend_on_workers(k, N, n, trials, seed, workers, mode):
    # at 256 trials or more any workers > 1 runs the pool, of at most nproc processes
    assert estimate_phi_n(k, N, n, trials, seed, workers) == estimate_phi_n(k, N, n, trials, seed)
    assert estimate_any_cyclotomic(k, N, trials, seed, mode, workers) == estimate_any_cyclotomic(
        k, N, trials, seed, mode
    )
    ks = range(1, k + 1)
    assert decay_series(ks, N, trials, seed, mode, workers) == decay_series(ks, N, trials, seed, mode)


def test_estimate_nontrivial_seed_changes_draws():
    a = estimate_phi_n(5, 40, 2, 2000, seed=1)
    b = estimate_phi_n(5, 40, 2, 2000, seed=2)
    assert a.hits != b.hits or a.estimate == b.estimate  # different stream


def test_estimate_within_ci_of_exact():
    exact = float(Fraction(25, 66))
    r = estimate_phi_n(5, 12, 2, 20000, seed=11)
    assert r.ci_low <= exact <= r.ci_high


def test_ci_coverage_rate():
    # Wilson 95% intervals should cover the exact value in at least 93 of
    # 100 independent-seed repetitions
    exact = float(Fraction(25, 66))
    cover = 0
    for seed in range(100):
        r = estimate_phi_n(5, 12, 2, 2000, seed=seed)
        if r.ci_low <= exact <= r.ci_high:
            cover += 1
    assert cover >= 93, f"coverage {cover}/100"


def test_ci_coverage_rate_any_event():
    exact = float(exhaustive_enumeration(4, 12).exact_value)
    cover = 0
    for seed in range(100):
        r = estimate_any_cyclotomic(4, 12, 2000, seed=seed)
        if r.ci_low <= exact <= r.ci_high:
            cover += 1
    assert cover >= 93, f"coverage {cover}/100"


def test_estimate_any_agrees_with_exhaustive_ci():
    exact = exhaustive_enumeration(4, 12).exact_value  # 67/495
    r = estimate_any_cyclotomic(4, 12, 20000, seed=4)
    assert r.ci_low <= float(exact) <= r.ci_high
    r2 = estimate_any_cyclotomic(4, 12, 20000, seed=4, mode="fs-pruned")
    assert r2.hits == r.hits  # verdict-equivalent sweeps


def test_model_level_domination():
    # for n | k the estimate must sit under the clipped ball bound plus
    # three half-widths (and the true value is zero by the parity shift)
    for k in (63, 64, 126):
        for n in (7, 9):
            if k % n:
                continue
            r = estimate_phi_n(k, 4000, n, 4000, seed=17)
            bound = min(1.0, lattice_ball_bound(k, n))
            assert r.estimate <= bound + 3 * r.ci_half_width


def test_estimate_validation():
    with pytest.raises(InvalidParametersError):
        estimate_phi_n(5, 4, 2, 100, seed=0)
    with pytest.raises(InvalidParametersError):
        estimate_any_cyclotomic(5, 10, 0, seed=0)


# --- decay series ------------------------------------------------------------------


def test_decay_singleton():
    reports = decay_series([4], 60, 500, seed=21)
    assert len(reports) == 1 and reports[0].k == 4


def test_decay_csv_deterministic():
    a = reports_to_csv(decay_series([3, 5], 60, 400, seed=8))
    b = reports_to_csv(decay_series([3, 5], 60, 400, seed=8))
    # 400 trials is above the pool threshold, so workers=2 runs the pool path
    c = reports_to_csv(decay_series([3, 5], 60, 400, seed=8, workers=2))
    assert a == b == c
    assert a.startswith("k,N,n_or_any,mode,trials,hits,estimate,ci_low,ci_high,seed\n")
    assert len(a.strip().split("\n")) == 3


def test_pool_has_at_most_nproc_processes(monkeypatch):
    sizes = []

    class FakePool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [fn(job) for job in jobs]

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: FakeContext())
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    serial = decay_series([3, 4], 40, 300, seed=5, workers=1)
    pooled = decay_series([3, 4], 40, 300, seed=5, workers=64)
    assert sizes == [3]  # one pool for the whole series, capped at nproc
    assert pooled == serial


def test_decay_validation():
    with pytest.raises(InvalidParametersError):
        decay_series([], 60, 100, seed=0)
    with pytest.raises(InvalidParametersError):
        decay_series([61], 60, 100, seed=0)
    with pytest.raises(InvalidParametersError):
        decay_series([3, 0], 60, 100, seed=0)
    with pytest.raises(InvalidParametersError):
        decay_series([3], 60, 0, seed=0)
    with pytest.raises(InvalidParametersError):
        decay_series([3], 60, 100, seed=0, workers=0)


@pytest.mark.parametrize("run", [
    lambda: estimate_any_cyclotomic(3, 20, 300, seed=0, mode="pruned", workers=2),
    lambda: decay_series([3, 4], 20, 300, seed=0, mode="full", workers=2),
    lambda: exhaustive_enumeration(3, 10, mode="sweep"),
])
def test_unknown_sweep_mode_is_refused_before_any_pool(run, monkeypatch):
    # the mode only labels the report, so no trial would ever check it
    pools = []
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: pools.append(method))
    with pytest.raises(InvalidParametersError, match="unknown sweep mode"):
        run()
    assert pools == []


def test_any_factor_runs_never_take_the_full_sweep(monkeypatch):
    # both sweeps decide the one event, so the cheaper pruned one decides it
    # whatever the mode label says; the estimate matches the full sweep's count
    modes = []
    real = experiment.has_cyclotomic_factor

    def spy(poly, mode="full-sweep", cap=None):
        modes.append(mode)
        return real(poly, mode, cap)

    monkeypatch.setattr(experiment, "has_cyclotomic_factor", spy)
    e = estimate_any_cyclotomic(5, 40, 200, seed=2, mode="full-sweep")
    d = decay_series([3, 5], 40, 200, seed=2, mode="full-sweep")
    x = exhaustive_enumeration(3, 9, mode="full-sweep")
    assert set(modes) == {"fs-pruned"} and len(modes) == 200 + 400 + 84
    polys = [sample_random(5, 40, 2, i) for i in range(200)]
    assert e.hits == sum(bool(find_cyclotomic_factors(p, "full-sweep")) for p in polys)
    assert (e.sweep_mode, d[0].sweep_mode, x.sweep_mode) == ("full-sweep",) * 3


# --- serialization -----------------------------------------------------------------


def test_report_json_mirror():
    r = exhaustive_enumeration(5, 12, n=2)
    rec = report_to_json(r)
    assert rec["n_or_any"] == 2
    assert rec["mode"] == "exhaustive"
    assert rec["hits"] == 300 and rec["trials"] == 792
    rec2 = report_to_json(estimate_any_cyclotomic(3, 20, 100, seed=1, mode="fs-pruned"))
    assert rec2["n_or_any"] == "any"
    assert rec2["mode"] == "monte-carlo:fs-pruned"
    # each CSV row is the JSON record, strings as they are and numbers by repr
    reports = [
        r,
        exhaustive_enumeration(4, 10, mode="fs-pruned"),
        estimate_phi_n(5, 30, 3, 200, seed=2),
        *decay_series([3, 5], 60, 100, seed=8),
    ]
    header, *rows = reports_to_csv(reports).splitlines()
    assert header == ",".join(rec)
    for row, report in zip(rows, reports, strict=True):
        assert row.split(",") == [str(v) for v in report_to_json(report).values()]
        assert row.split(",")[6:9] == [repr(report.estimate), repr(report.ci_low), repr(report.ci_high)]
