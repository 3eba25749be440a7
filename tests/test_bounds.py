"""Formula evaluators for every displayed probability bound."""

from math import exp, factorial, lgamma, log, pi, sqrt

import mpmath
import pytest

from lacunary import (
    InvalidParametersError,
    admissible_kernels,
    chernoff_tail_bound,
    default_exponent_constant,
    lattice_ball_bound,
    small_n_exact,
    total_bound,
)
from lacunary.bounds import _midrange_atom
from lacunary.numtheory import totient

from oracles import multinomial_relation_probability

mpmath.mp.dps = 40


# --- admissible kernels -------------------------------------------------------------


def test_kernel_examples():
    assert admissible_kernels(1) == (1, 2)
    assert admissible_kernels(2) == (1, 2, 3, 6)
    assert admissible_kernels(4) == (1, 2, 3, 5, 6, 10)


def test_kernels_downward_closed():
    for k in (3, 5, 8, 12):
        members = set(admissible_kernels(k))
        for m in members:
            for d in range(1, m + 1):
                if m % d == 0:
                    assert d in members, (k, m, d)


def test_kernels_complete_by_brute_force():
    # independent re-derivation: every squarefree m up to the max must be in
    # the set exactly when its prime condition holds
    for k in (1, 2, 4, 6, 9):
        members = set(admissible_kernels(k))
        top = max(members)
        for m in range(1, top + 1):
            fac = []
            x, d = m, 2
            sqfree = True
            while d * d <= x:
                if x % d == 0:
                    fac.append(d)
                    x //= d
                    if x % d == 0:
                        sqfree = False
                        break
                d += 1
            if x > 1:
                fac.append(x)
            if not sqfree:
                assert m not in members
                continue
            ok = 2 + sum(p - 2 for p in fac) <= k + 1
            assert (m in members) == ok, (k, m)


def test_default_constant_matches_kernel_max():
    for k in (4, 9, 13, 20):
        c = default_exponent_constant(k)
        assert exp(c * sqrt(k) * log(k)) == pytest.approx(
            max(admissible_kernels(k)), rel=1e-9
        )


# --- small n --------------------------------------------------------------------------


def test_small_n_asymptotic_examples():
    assert small_n_exact(200, 2) == pytest.approx(sqrt(2 / (pi * 200)))
    assert small_n_exact(100, 3) == pytest.approx(1 / 100)
    assert small_n_exact(100, 5) == pytest.approx(1e-4)
    assert small_n_exact(100, 4) == pytest.approx(log(100) ** 2 / 10)
    assert small_n_exact(100, 6) == pytest.approx(log(100) ** 4 / 10)


def test_small_n_validation():
    with pytest.raises(InvalidParametersError):
        small_n_exact(10, 7)
    with pytest.raises(InvalidParametersError):
        small_n_exact(0, 2)


# --- central atom and the lattice-ball bound ---------------------------------------


def test_loggamma_matches_factorial_to_twelve_digits():
    for m in range(1, 120):
        assert abs(exp(lgamma(m + 1)) / factorial(m) - 1) < 1e-12


def test_lattice_ball_bound_against_high_precision():
    for k, n in [(100, 7), (64, 10), (256, 9)]:
        rank = n - totient(n)
        atom = (
            mpmath.gamma(k + 1)
            / mpmath.gamma(k / mpmath.mpf(n) + 1) ** n
            / mpmath.mpf(n) ** k
        )
        ball = (
            (mpmath.mpf("2.1") * mpmath.sqrt(k) * mpmath.log(k)) ** rank
            * mpmath.pi ** (rank / mpmath.mpf(2))
            / mpmath.gamma(rank / mpmath.mpf(2) + 1)
        )
        expected = min(1.0, float(atom * ball))
        assert lattice_ball_bound(k, n) == pytest.approx(expected, rel=1e-10)


def test_lattice_ball_bound_decreasing_in_k():
    vals = [lattice_ball_bound(k, 7) for k in (64, 128, 256, 512)]
    assert vals == sorted(vals, reverse=True)
    assert vals[0] < 1


def test_lattice_ball_bound_validation():
    with pytest.raises(InvalidParametersError):
        lattice_ball_bound(100, 6)


def test_lattice_ball_dominates_exact_model_probability():
    # exact atom summation oracle at k = 64; larger k either have the
    # balanced atom forced to zero by divisibility or a bound clipped at 1
    for n in (7, 9, 10):
        bound = lattice_ball_bound(64, n)
        exact = multinomial_relation_probability(64, n)
        assert bound >= float(exact), (n, bound, float(exact))
    for k in (128, 256):
        for n in (7, 9):
            assert multinomial_relation_probability(k, n) == 0
        assert lattice_ball_bound(k, 10) == 1.0  # clipped: dominates trivially


# --- tail and range bounds -----------------------------------------------------------


def test_chernoff_tail_values():
    assert chernoff_tail_bound(1000) == pytest.approx(2e6 * exp(-log(1000) ** 2 / 3))
    vals = [chernoff_tail_bound(k) for k in (1000, 2000, 4000, 10000)]
    assert vals == sorted(vals, reverse=True)
    # becomes non-trivial once (log k)^2/3 beats 2 log k + log 2 (log k ~ 6.3)
    assert chernoff_tail_bound(400) > 1
    assert chernoff_tail_bound(700) < 1


def test_midrange_values():
    assert _midrange_atom(1000, 10, totient(10)) > 0
    k, n = 10**4, 10**3
    phi = totient(n)
    m = k * phi / (2 * n)
    assert _midrange_atom(k, n, phi) == pytest.approx(sqrt(m) / sqrt(2 * pi) ** (phi - 1))


def test_midrange_boundary_takes_max():
    # m == phi(n) exactly: k = 2 n
    k, n = 20, 10
    phi = totient(n)
    assert k * phi / (2 * n) == phi
    atom = _midrange_atom(k, n, phi)
    big = sqrt(phi) / sqrt(2 * pi) ** (phi - 1)
    small = exp(lgamma(phi + 1) - phi * log(phi))
    assert atom == pytest.approx(max(big, small))


# --- assembled breakdown -------------------------------------------------------------


def test_total_bound_partition_has_no_gaps_or_overlaps():
    for k in (8, 64, 256, 1024):
        bb = total_bound(k)
        ranges = []
        for r in bb.rows:
            rng = (r.n_lo, r.n_hi)
            if rng not in ranges:
                ranges.append(rng)
        assert ranges[0][0] == 2
        for (lo1, hi1), (lo2, hi2) in zip(ranges, ranges[1:]):
            assert lo2 == (hi1 if hi1 >= lo1 else lo1 - 1) + 1, ranges
        assert ranges[-1][1] == float("inf")


def test_total_bound_rows_clipped():
    bb = total_bound(256)
    for r in bb.rows:
        assert 0.0 <= r.value <= 1.0
        assert r.value <= r.raw or r.raw != r.raw
    assert bb.total <= sum(r.raw for r in bb.rows)


def test_total_bound_strictly_decreasing():
    totals = [total_bound(k).total for k in (256, 512, 1024, 2048)]
    assert all(a > b for a, b in zip(totals, totals[1:]))


def test_total_bound_tags():
    bb = total_bound(64)
    tags = {r.tag for r in bb.rows}
    assert tags == {
        "small-n-exact",
        "eq3-lattice",
        "chernoff-tail",
        "midrange-K",
        "large-n-residue",
    }


def test_total_bound_validation():
    with pytest.raises(InvalidParametersError):
        total_bound(7)


# --- classic factorial sandwich -------------------------------------------------------


def test_stirling_sandwich():
    for n in range(1, 171):
        nf = mpmath.factorial(n)
        lo = mpmath.sqrt(2 * mpmath.pi * n) * (n / mpmath.e) ** n
        hi = lo * mpmath.e ** (mpmath.mpf(1) / (12 * n))
        assert lo <= nf <= hi, n
