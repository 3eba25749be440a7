"""Cyclotomic polynomials, the two divisibility routes, splitting, sweeps."""

import time
import tracemalloc
from collections import Counter
from itertools import combinations
from math import prod

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lacunary import (
    InvalidParametersError,
    ResourceLimitError,
    SparsePoly,
    admissible_kernels,
    divides_phi_dense,
    divides_phi_structural,
    find_cyclotomic_factors,
    has_cyclotomic_factor,
    sample_random,
    sweep_cap,
)
from lacunary.cyclotomic import (
    _candidate_moduli,
    _column_classes,
    _largest_modulus,
    _sweep_moduli,
    _vanishes,
)
import lacunary.cyclotomic as cyclotomic_module
from lacunary.numtheory import factorize, peel, primes_up_to, totient
from lacunary.sparsepoly import _Stream

from oracles import cyclotomic_divides, cyclotomic_via_mobius, phi_brute, root_sum_zero_numeric


def _roots_vanish(exponents, n):
    """Whether the zeta_n^e, one for each listed e, sum to zero."""
    return _vanishes(Counter(e % n for e in exponents), n)


# --- cyclotomic polynomials ----------------------------------------------------
# No route builds one: the Moebius oracle supplies them to the tests.


def test_cyclotomic_small():
    assert cyclotomic_via_mobius(1) == [-1, 1]
    assert cyclotomic_via_mobius(2) == [1, 1]
    assert cyclotomic_via_mobius(10) == [1, -1, 1, -1, 1]


def test_cyclotomic_105_has_minus_two():
    assert min(cyclotomic_via_mobius(105)) == -2


@pytest.mark.parametrize("n", [1, 2, 6, 12, 36, 60, 105, 128, 210])
def test_cyclotomic_matches_moebius_oracle(n):
    # the dense route never builds Phi_n: its verdict is the oracle's
    # division of F mod x^n - 1 by Phi_n
    polys = [sample_random(k, 3 * n + 4, 29, i) for k in (1, 2, 5) for i in range(20)]
    # (x^n - 1) / (x^j - 1) for each proper divisor j: Phi_n divides each
    polys += [SparsePoly(tuple(range(j, n, j)), n) for j in range(1, n) if n % j == 0]
    hits = 0
    for F in polys:
        counts = [0] * n
        for e in (0,) + F.exponents:
            counts[e % n] += 1
        divides = cyclotomic_divides(counts, n)
        hits += divides
        assert divides_phi_dense(F, n) == divides, (F.exponents, n)
    assert hits >= sum(n % j == 0 for j in range(1, n))


def test_cyclotomic_degree_is_totient():
    for n in range(1, 80):
        assert len(cyclotomic_via_mobius(n)) - 1 == phi_brute(n)


def test_cyclotomic_validation():
    for n in (0, -3):
        for route in (divides_phi_dense, divides_phi_structural):
            with pytest.raises(InvalidParametersError):
                route(SparsePoly((1,), 1), n)


# --- divisibility --------------------------------------------------------------


def test_divides_dense_examples():
    assert divides_phi_dense(SparsePoly((1, 2), 2), 3)
    assert divides_phi_dense(SparsePoly((5,), 5), 10)
    assert not divides_phi_dense(SparsePoly((1, 3), 3), 2)


def test_divides_structural_examples():
    assert divides_phi_structural(SparsePoly((1, 2, 3, 4), 4), 5)
    assert divides_phi_structural(SparsePoly((1, 2, 3), 3), 4)
    assert not divides_phi_structural(SparsePoly((1, 3), 3), 2)


def test_phi_1_never_divides():
    for i in range(50):
        p = sample_random(1 + i % 9, 40, 3, i)
        assert not divides_phi_dense(p, 1)
        assert not divides_phi_structural(p, 1)


def test_oracle_agreement_seeded_corpus():
    # small slice of the acceptance corpus; both routes must agree everywhere
    stream = _Stream(97, 0)
    for i in range(1500):
        k = stream.randbelow(30) + 1
        N = k + stream.randbelow(121 - k)
        n = stream.randbelow(120) + 1
        F = sample_random(k, N, 55, i)
        assert divides_phi_dense(F, n) == divides_phi_structural(F, n)


def _lift_progressions(n, p, starts, N, stream):
    """Distinct exponents in [1, N] whose residues mod n form full p-runs.

    Each start r contributes the complete run {r, r + n/p, ..., r + (p-1)n/p}
    mod n; one residue-0 slot is left to the constant term, so the resulting
    polynomial is divisible by the n-th cyclotomic polynomial by construction.
    """
    m = n // p
    need = []
    for r in starts:
        for t in range(p):
            need.append((r + t * m) % n)
    assert 0 in need, "a progression must pass through the constant term"
    need.remove(0)
    used = set()
    for rho in need:
        base = rho if rho else n
        slots = (N - base) // n + 1
        lift = base + n * stream.randbelow(slots)
        while lift in used:
            lift += n
            if lift > N:
                lift = base
        used.add(lift)
    return SparsePoly(tuple(sorted(used)), N)


def test_constructed_divisible_polynomials():
    stream = _Stream(11, 0)
    for n in (12, 18, 20, 45, 50, 63, 75):
        p = factorize(n)[0][0]
        F = _lift_progressions(n, p, [0, stream.randbelow(n)], 40 * n, stream)
        assert divides_phi_structural(F, n), (n, F.exponents)
        assert divides_phi_dense(F, n)


def test_multiplicities_in_residue_classes():
    # repeated residues feed coefficients > 1 through both routes
    assert divides_phi_dense(SparsePoly((1, 2, 3), 3), 2)  # (1+x)(1+x^2)
    assert divides_phi_structural(SparsePoly((1, 2, 3), 3), 2)
    assert not divides_phi_dense(SparsePoly((2, 4), 4), 2)
    assert not divides_phi_structural(SparsePoly((2, 4), 4), 2)


def test_deep_recursion_modulus():
    # n = 5040 = 2^4 3^2 5 7 exercises four peel levels, 30030 six; half-turn
    # shifts 1 + x^{n/2} are divisible for every even n.  The dense route
    # builds no Phi_n, so it costs O(n omega(n)).
    for n in (5040, 30030, 10**5):
        F = SparsePoly((n // 2,), n)
        G = SparsePoly((n // 2 + 1,), n)
        t = time.perf_counter()
        assert divides_phi_dense(F, n)
        assert not divides_phi_dense(G, n)
        assert time.perf_counter() - t < 1.0, n
        assert divides_phi_structural(F, n)
        assert not divides_phi_structural(G, n)


def test_peel_takes_the_largest_prime_with_its_full_power():
    assert peel(12) == (3, 3, 4)
    assert peel(2**5) == (2, 32, 1)
    assert peel(360) == (5, 5, 72)
    assert peel(2 * 7**2 * 3) == (7, 49, 6)


def test_a_large_prime_modulus_is_decided_without_a_fold():
    # n = 198 * 526,117: folding the columns of the large prime into p - 1
    # others once cost 0.56 s and 148 MB on this one candidate
    F = sample_random(13, 10**8, 1, 0)
    tracemalloc.start()
    try:
        assert not divides_phi_structural(F, 104171166)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_conway_jones_split_examples():
    # the terms of F in one residue class mod b (the constant term as
    # exponent 0) are a sum of n-th roots of unity in their own right:
    # 1 + x + x^2 + x^3 at n = 4 splits mod 2 into two vanishing classes
    assert _roots_vanish((0, 2), 4) and _roots_vanish((1, 3), 4)
    # 1 + x^5 at n = 10 mod 5: class 0 vanishes, the other classes are empty
    assert _roots_vanish((0, 5), 10)
    # b = 1 is no split: 1 + x + x^3 + x^4 at n = 3 is one class, 2 + 2 zeta_3
    assert not _roots_vanish((0, 1, 3, 4), 3)


def test_conway_jones_soundness_on_divisible_corpus():
    # with b = n / squarefree kernel, the terms of a divisible polynomial in
    # each residue class mod b (the constant term as exponent 0) are
    # themselves a vanishing sum
    stream = _Stream(13, 0)
    for n in (12, 18, 40, 45, 50, 72):
        p = factorize(n)[-1][0]
        F = _lift_progressions(n, p, [0, stream.randbelow(n), stream.randbelow(n)], 50 * n, stream)
        if not divides_phi_structural(F, n):
            continue
        b = n // prod(p for p, _ in factorize(n))
        parts: dict[int, list[int]] = {}
        for e in (0,) + F.exponents:
            parts.setdefault(e % b, []).append(e)
        for part in parts.values():
            assert _roots_vanish(part, n), (n, b, part)


def test_singleton_parts_never_vanish():
    stream = _Stream(17, 0)
    for _ in range(100):
        n = stream.randbelow(80) + 2
        e = stream.randbelow(n)
        assert not _roots_vanish((e,), n)


def test_root_power_sum_matches_numeric():
    stream = _Stream(19, 0)
    for _ in range(300):
        n = stream.randbelow(48) + 2
        count = stream.randbelow(6) + 1
        exps = [stream.randbelow(n) for _ in range(count)]
        assert _roots_vanish(exps, n) == root_sum_zero_numeric(exps, n)


def test_root_power_sum_zero_coefficients():
    # the recursion's sums carry signed, non-zero coefficients on keys that
    # need not be reduced mod n: congruent keys merge inside a column
    assert _vanishes({}, 3)
    assert _vanishes({1: 2, 4: -2}, 3)
    assert _vanishes({0: 1, 1: 1, 5: 1}, 3)
    assert not _vanishes({0: 1, 1: 1}, 3)


# --- the weight check: a column's image under zeta_{n'} -> 1, mod Phi_{n'}(1) ---


def _check_signed(vec, n, expected):
    assert _vanishes(vec, n) is expected, (vec, n)
    assert root_sum_zero_numeric(list(vec), n, list(vec.values())) is expected, (vec, n)


def test_weights_are_compared_mod_one_at_a_composite_cofactor():
    # n = 30 peels to q = 5, n' = 6.  The columns mod 5 reduce mod 6 to {0}
    # and {1, 5}, of weights 1 and 2, and zeta_6 + zeta_6^5 = 1, so the
    # class vanishes: Phi_6(1) = 1, and a weight modulus of 2 or 3, a prime
    # of n', would drop the factor
    F = SparsePoly((1, 11, 12, 18, 24), 24)
    for mode in ("full-sweep", "fs-pruned"):
        assert find_cyclotomic_factors(F, mode) == [30]
    assert [n for n in range(2, 200) if divides_phi_dense(F, n)] == [30]


def test_signed_full_class_with_a_column_that_cancels():
    # n = 3: n' = 1, where the weight check is the whole test
    _check_signed({0: 1, 3: -1, 1: 2, 4: -2, 2: 1, 5: -1}, 3, True)
    _check_signed({0: 1, 3: -1, 1: 1, 2: 1}, 3, False)  # weights 0, 1, 1
    _check_signed({0: 1, 3: -1, 1: 1, 4: 1, 2: 1, 5: 1}, 3, False)  # weights 0, 2, 2
    # n = 6: n' = 2, weights mod Phi_2(1) = 2; 1 + zeta_2 = 0 weighs 2
    _check_signed({0: 1, 3: 1, 1: 1, 4: 1, 2: 1, 5: 1}, 6, True)
    _check_signed({0: 1, 6: -1, 1: 1, 2: 1}, 6, False)  # weights 0, 1, 1
    # n = 12: n' = 4, weights mod Phi_4(1) = 2; each column is 1 + zeta_4^2 = 0
    _check_signed({0: 1, 6: 1, 4: 1, 10: 1, 8: 1, 2: 1}, 12, True)


def test_weights_are_only_necessary_at_a_prime_power_cofactor():
    # n = 6 peels to q = 3, n' = 2: every weight below is 2, 0 mod 2, yet
    # the columns are 2 and -2 (and 2): a full class of unequal columns,
    # and a short class of non-zero ones
    _check_signed({0: 2, 1: 2, 2: 2}, 6, False)
    _check_signed({0: 2, 1: 2}, 6, False)
    assert not _roots_vanish((0, 6, 1, 7), 6)
    # (1 + x)(1 + x^6), with 1 + x^6 = Phi_4 Phi_12, has no factor Phi_6
    assert find_cyclotomic_factors(SparsePoly((1, 6, 7), 7)) == [2, 4, 12]


# --- sweeps ----------------------------------------------------------------------


def test_sweep_cap_small():
    assert sweep_cap(1) == 2
    assert sweep_cap(2) == 6
    with pytest.raises(InvalidParametersError):
        sweep_cap(0)


def test_sweep_cap_past_the_first_sieve():
    # these walks look past the primes to 64: 5,000 to 128, 10^6 to 256, 12,094
    # to 512 and 10^9 to 1,024
    assert sweep_cap(5000) == 23100
    assert sweep_cap(10**6) == 5290740
    assert sweep_cap(12094) == 60060
    assert _largest_modulus(10**9) == 6023507490  # above the guard for sweep_cap


@pytest.mark.parametrize("N", [716, 6804, 12094, 10**9])
def test_largest_modulus_walks_within_the_first_sieve(N, monkeypatch):
    # the walk indexes only the primes to 1,024, sieved once: one that looked
    # past them would raise IndexError, and none sieves again
    sieves = []
    monkeypatch.setattr(cyclotomic_module, "primes_up_to", lambda m: sieves.append(m) or primes_up_to(m))
    _largest_modulus.__wrapped__(N)
    assert sieves == []


def test_sweep_cap_at_the_edge_of_the_guard():
    # 1.9436 N rounds up to 9,999,999 moduli at N = 5,145,091 and to
    # 10,000,001 one degree later, above the guard's 10^7
    assert sweep_cap(5_145_091) == 29_099_070
    with pytest.raises(ResourceLimitError):
        sweep_cap(5_145_092)


def test_sweep_cap_against_brute_force():
    # trial-division totients over a range far past the answer
    from oracles import brute_sweep_max

    assert sweep_cap(100) == brute_sweep_max(100, 20000)
    for N in (3, 7, 12, 33):
        assert sweep_cap(N) == brute_sweep_max(N, 40 * N * N)


@pytest.fixture(scope="module")
def phi_to_60():
    # phi(n) >= sqrt(n) for n > 6, so every n with phi(n) <= 60 is below 3607
    return {n: phi_brute(n) for n in range(2, 60 * 60 + 7)}


def test_full_sweep_candidates_are_the_moduli_with_phi_at_most_N(phi_to_60):
    for N in range(1, 61):
        brute = sorted(n for n, f in phi_to_60.items() if f <= N)
        assert _candidate_moduli(N, None) == tuple(brute), N
        assert sweep_cap(N) == brute[-1]


def test_pruned_candidates_are_the_admissible_kernels(phi_to_60):
    for k in range(1, 14):
        members = set(admissible_kernels(k))
        for N in (k, 30, 60):
            expect = tuple(
                n for n, f in sorted(phi_to_60.items())
                if f <= N and prod(p for p, _ in factorize(n)) in members
            )
            assert _candidate_moduli(N, k) == expect, (k, N)
    # k = 300 admits more kernels than admissible_kernels will list; the walk
    # charges each prime its Conway-Jones cost p - 2 instead
    for k in (40, 130, 300):
        for N in (30, 60):
            expect = tuple(
                n for n, f in sorted(phi_to_60.items())
                if f <= N and 2 + sum(p - 2 for p, _ in factorize(n)) <= k + 1
            )
            assert _candidate_moduli(N, k) == expect, (k, N)


def test_pruned_sweep_at_large_k_agrees_with_the_full_sweep():
    # fs-pruned at k = 300 once listed every admissible kernel first and was refused
    polys = [sample_random(300, 1000, 89, i) for i in range(4)]
    polys.append(SparsePoly(tuple(range(1, 301)), 1000))  # (x^301 - 1) / (x - 1)
    for F in polys:
        full = find_cyclotomic_factors(F, "full-sweep")
        pruned = find_cyclotomic_factors(F, "fs-pruned")
        assert set(pruned) <= set(full)
        assert has_cyclotomic_factor(F, "fs-pruned") == bool(pruned) == bool(full)
    assert pruned == full == [7, 43, 301]


def test_sweep_cap_by_branch_and_bound_is_the_last_of_the_range():
    # the range for N is the range for 3000 cut at phi(n) <= N, so one walk
    # gives the last modulus of every smaller range; some are also walked
    top = 3000
    last = [0] * (top + 1)
    for n in _candidate_moduli(top, None):
        f = totient(n)
        last[f] = max(last[f], n)
    for N in range(1, top + 1):
        last[N] = max(last[N], last[N - 1])
        assert sweep_cap(N) == last[N], N
    for N in list(range(1, top + 1, 97)) + [top, 10**5]:
        assert sweep_cap(N) == _candidate_moduli(N, None)[-1], N


def test_unknown_sweep_mode_raises():
    F = SparsePoly((1, 2), 2)
    with pytest.raises(InvalidParametersError):
        find_cyclotomic_factors(F, mode="bogus")
    with pytest.raises(InvalidParametersError):
        has_cyclotomic_factor(F, mode="bogus")


def test_sweep_guard_refuses_before_allocating():
    with pytest.raises(ResourceLimitError):
        sweep_cap(10**8)
    with pytest.raises(ResourceLimitError, match="1.95e\\+309 "):
        sweep_cap(10**309)  # past float range: the range term is an exact integer


def test_full_sweep_of_a_binomial_above_the_range():
    # x^(10^8) + 1 = (x^(2 * 10^8) - 1) / (x^(10^8) - 1): Phi_n divides it exactly
    # when n divides 2^9 5^8 but not 2^8 5^8, so n = 2^9 5^a; its range of
    # 1.94 * 10^8 moduli once refused it, though the walk builds a few dozen
    t = time.perf_counter()
    assert find_cyclotomic_factors(SparsePoly((10**8,), 10**8)) == [512 * 5**a for a in range(9)]
    assert time.perf_counter() - t < 1.0


def test_full_sweep_of_a_geometric_progression_above_the_range():
    # 1 + x^L + ... + x^{kL} = (x^{(k+1)L} - 1) / (x^L - 1): Phi_n divides it
    # exactly when n divides (k+1)L but not L; N = 6 * 10^6 is past the
    # 5,145,091 where the range of 1.94 N moduli once refused a full sweep
    t = time.perf_counter()
    L, k = 10**6, 6
    F = SparsePoly(tuple(L * i for i in range(1, k + 1)), k * L)
    M = (k + 1) * L
    expect = [n for n in _divisors_of_smooth_part(M, 7) if n > 1 and L % n]  # M = 2^6 5^6 7
    assert find_cyclotomic_factors(F) == expect
    assert time.perf_counter() - t < 1.0


def test_small_cap_cuts_the_factor_list():
    # x^(10^8) + 1 has Phi_n | F exactly when n | 2 * 10^8 and n does not divide 10^8;
    # the sweep walks its few dozen candidates uncapped, and the cap cuts its list
    t = time.perf_counter()
    assert find_cyclotomic_factors(SparsePoly((10**8,), 10**8), cap=1000) == [512]
    assert time.perf_counter() - t < 1.0


def test_cap_below_one_is_invalid_and_a_cap_of_one_lists_nothing():
    # a cap below 1 would read 1 + x + x^2 = Phi_3 as "no factor"
    F = SparsePoly((1, 2), 2)
    for mode in ("full-sweep", "fs-pruned"):
        for cap in (0, -3):
            with pytest.raises(InvalidParametersError):
                find_cyclotomic_factors(F, mode, cap)
            with pytest.raises(InvalidParametersError):
                has_cyclotomic_factor(F, mode, cap)
        assert find_cyclotomic_factors(F, mode, 1) == []
        assert not has_cyclotomic_factor(F, mode, 1)


def test_find_factors_examples():
    assert find_cyclotomic_factors(SparsePoly((1, 2), 2)) == [3]
    assert find_cyclotomic_factors(SparsePoly((5,), 5)) == [2, 10]
    assert find_cyclotomic_factors(SparsePoly((1, 3), 3)) == []
    assert find_cyclotomic_factors(SparsePoly((2, 4), 4)) == [3, 6]


def test_has_factor_examples():
    assert has_cyclotomic_factor(SparsePoly((1, 2), 2))
    assert not has_cyclotomic_factor(SparsePoly((1, 3), 3))
    assert has_cyclotomic_factor(SparsePoly((2, 4), 4))


def test_constant_polynomial_has_no_factor_in_either_mode():
    F = SparsePoly((), 5)  # F = 1
    for mode in ("full-sweep", "fs-pruned"):
        assert find_cyclotomic_factors(F, mode) == []
        assert not has_cyclotomic_factor(F, mode)


def test_factors_are_genuine_divisors():
    stream = _Stream(23, 0)
    for i in range(60):
        k = stream.randbelow(8) + 1
        F = sample_random(k, 60, 7, i)
        for n in find_cyclotomic_factors(F):
            assert divides_phi_dense(F, n)


def test_pruned_and_full_sweep_agree_on_verdict():
    stream = _Stream(29, 0)
    for i in range(200):
        k = stream.randbelow(6) + 1
        F = sample_random(k, 30, 31, i)
        assert has_cyclotomic_factor(F, "fs-pruned") == has_cyclotomic_factor(F, "full-sweep")


def test_pruned_factors_subset_of_full():
    stream = _Stream(37, 0)
    for i in range(60):
        k = stream.randbelow(5) + 1
        F = sample_random(k, 24, 41, i)
        pruned = set(find_cyclotomic_factors(F, "fs-pruned"))
        full = set(find_cyclotomic_factors(F, "full-sweep"))
        assert pruned <= full


def test_full_sweep_matches_dense_exhaustively():
    # every polynomial 1 + sum x^e with k <= 5 terms and exponents in [1, 12]
    N = 12
    cap = sweep_cap(N)
    checked = 0
    for k in range(1, 6):
        for exps in combinations(range(1, N + 1), k):
            F = SparsePoly(exps, N)
            dense = [n for n in range(2, cap + 1) if divides_phi_dense(F, n)]
            assert find_cyclotomic_factors(F, "full-sweep") == dense, exps
            checked += 1
    assert checked == 1585


# --- generated candidates --------------------------------------------------------

MODES = ("full-sweep", "fs-pruned")


def _reference_factors(F, mode, cap=None):
    """The walk the sweep replaces: every modulus of the range decided on its
    own by divides_phi_structural, with no grouping shared between moduli.

    Under a cap it walks only the range of degree min(N, cap) and cuts that
    at the cap: n <= cap gives phi(n) <= cap, so no modulus is lost.
    """
    k = F.k if mode == "fs-pruned" else None
    top = F.N if cap is None else min(F.N, cap)
    return [
        n for n in _candidate_moduli(top, k)
        if (cap is None or n <= cap) and divides_phi_structural(F, n)
    ]


def _assert_generated_is_exact(F, caps):
    # a capped list is the uncapped reference cut at the cap
    for mode in MODES:
        reference = _reference_factors(F, mode)
        for cap in caps:
            expect = [n for n in reference if cap is None or n <= cap]
            assert find_cyclotomic_factors(F, mode, cap) == expect, (F.exponents, F.N, mode, cap)


def test_generated_matches_the_walk_exhaustively():
    # every polynomial with k <= 5 terms and exponents in [1, 12], two caps
    checked = 0
    for k in range(1, 6):
        for exps in combinations(range(1, 13), k):
            _assert_generated_is_exact(SparsePoly(exps, 12), (None, 9))
            checked += 1
    assert checked == 1585


def test_generated_matches_the_walk_on_seeded_polynomials():
    stream = _Stream(43, 0)
    for i in range(60):
        k = (2, 3, 6, 10, 13, 20)[i % 6]
        N = k + stream.randbelow(1001 - k)
        F = sample_random(k, N, 47, i)
        _assert_generated_is_exact(F, (None, N // 2 + 1))
    # a few at N = 10^5; the uncapped full walk takes seconds, so only k = 3 runs it
    _assert_generated_is_exact(sample_random(3, 10**5, 53, 0), (None, 10**4))
    for k in (13, 20):
        F = sample_random(k, 10**5, 53, k)
        for mode in MODES:
            assert find_cyclotomic_factors(F, mode, 10**4) == _reference_factors(F, mode, 10**4), (k, mode)
        assert find_cyclotomic_factors(F, "fs-pruned") == _reference_factors(F, "fs-pruned")


def test_generated_matches_the_walk_on_geometric_progressions():
    # 1 + x^a + ... + x^{ka} = (x^{(k+1)a} - 1) / (x^a - 1): Phi_n divides it
    # exactly when n divides (k+1)a but not a, so every candidate list is tested
    # against a closed form as well as against the walk
    for k in range(1, 9):
        for a in range(1, 40, 3):
            F = SparsePoly(tuple(a * i for i in range(1, k + 1)), k * a)
            M = (k + 1) * a
            expect = [n for n in range(2, M + 1) if M % n == 0 and a % n != 0]
            assert find_cyclotomic_factors(F) == expect, (k, a)
            _assert_generated_is_exact(F, (None, M // 2))


def test_dense_factors_are_among_the_generated_candidates():
    stream = _Stream(59, 0)
    for i in range(40):
        k = stream.randbelow(7) + 1
        F = sample_random(k, 40, 61, i)
        dense = [n for n in range(2, sweep_cap(F.N) + 1) if divides_phi_dense(F, n)]
        assert set(dense) <= set(_sweep_moduli(F, None)[0]), F.exponents
        assert dense == find_cyclotomic_factors(F)


def _filtered_range(F, k):
    """The spec of the walk: the n of the range that pass the first-peel filter
    at every p^v || n."""
    keys = (0,) + F.exponents
    return [
        n for n in _candidate_moduli(F.N, k)
        if all(_column_classes(keys, p, p**v) is not None for p, v in factorize(n))
    ]


def test_walk_is_the_filtered_range():
    # a small share of the range, and the classes of every modulus's peel
    # power are the filter's
    polys = [sample_random(13, 10**4, 1, 0), sample_random(5, 3000, 1, 1)]
    polys += [_product(*factors) for factors in SHARED_Q]
    polys.append(SparsePoly(tuple(range(1, 131)), 400))  # 130 terms
    for F in polys:
        keys = (0,) + F.exponents
        for k in (None, F.k):
            moduli, classes = _sweep_moduli(F, k)
            assert moduli == _filtered_range(F, k), (F.exponents, k)
            for n in moduli:
                p, q, _ = peel(n)
                assert classes[q] == _column_classes(keys, p, q)
    F = polys[0]
    for k in (None, F.k):
        assert len(_sweep_moduli(F, k)[0]) * 20 < len(_candidate_moduli(F.N, k))


def test_walk_matches_the_range_above_k_120():
    # the walk serves large k as it does small ones; Phi_3(x^300)
    # (1 + x + ... + x^{k/3}) has 122, 152 and 302 terms
    stream = _Stream(67, 0)
    for k in (121, 150, 300):
        N = k + stream.randbelow(1001 - k)
        for F in (sample_random(k, N, 67, k), _product(_gon(3, 300), tuple(range(k // 3 + 1)))):
            assert F.k >= k and F.N <= 1000
            _assert_generated_is_exact(F, (None, N // 3))


def test_generated_sweeps_build_no_range():
    # the cache once kept a whole phi(n) <= N range, about 1.94 N ints, per N
    _candidate_moduli.cache_clear()
    for i, N in enumerate(range(100_000, 100_006)):
        find_cyclotomic_factors(sample_random(3 + 2 * i, N, 71, i))
    assert _candidate_moduli.cache_info().currsize == 0


def test_full_sweep_near_the_guard_against_the_closed_form():
    # 1 + x^a + x^2a + x^3a at N = 3 * 10^6 (5.8 million predicted moduli):
    # Phi_n divides it exactly when n divides 4a but not a
    _candidate_moduli.cache_clear()
    a = 10**6
    M = 4 * a
    F = SparsePoly((a, 2 * a, 3 * a), 3 * a)
    t = time.perf_counter()
    expect = [n for n in range(2, M + 1) if M % n == 0 and a % n != 0]
    assert find_cyclotomic_factors(F) == expect
    members = set(admissible_kernels(3))
    pruned = [n for n in expect if prod(p for p, _ in factorize(n)) in members]
    assert find_cyclotomic_factors(F, "fs-pruned") == pruned == [128, 256]
    assert time.perf_counter() - t < 3.0
    assert _candidate_moduli.cache_info().currsize == 0


def test_pruned_guard_prediction_bounds_the_walk():
    # a node of the walk takes at most one passing power of each prime, and
    # the guard counts prod(1 + passing powers of p) before the walk, so the
    # count bounds every modulus a sweep builds
    for k in (1, 2, 3, 5, 8, 13, 20, 40):
        for N in (60, 3000, 10**9, 10**15):
            F = sample_random(k, N, 83, N % 97)
            # a full sweep of exponents near 10^15 is refused on its trial divisions
            for mode_k in (None, k) if N <= 10**9 else (k,):
                moduli, classes = _sweep_moduli(F, mode_k)
                passing = Counter(factorize(q)[0][0] for q in classes)
                assert len(moduli) <= prod(1 + a for a in passing.values()), (k, N, mode_k)
    # the range no longer refuses a full sweep of x^(10^8) + 1, and the node
    # bound refuses j * 93,312,000 for j = 1..60 before the walk
    F = SparsePoly((10**8,), 10**8)
    assert 512 in _sweep_moduli(F, None)[0]
    assert 512 in _sweep_moduli(F, 1)[0]
    F = SparsePoly(tuple(j * 93312000 for j in range(1, 61)), 60 * 93312000)
    with pytest.raises(ResourceLimitError, match="4.72e"):
        _sweep_moduli(F, None)


def _divisors_of_smooth_part(x, bound):
    """Every divisor of x with no prime above bound, ascending."""
    divs = [1]
    for p in primes_up_to(bound):
        e = 0
        while x % p == 0:
            x, e = x // p, e + 1
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def test_pruned_factors_at_large_degree_against_the_closed_form():
    # 1 + x^a + ... + x^{ka}: Phi_n divides it exactly when n divides (k+1)a but
    # not a, and a pruned sweep keeps the n with an admissible kernel, each of
    # which divides the (k+1)-smooth part of (k+1)a; N runs from 10^9 to 10^20
    for k in (1, 2, 3, 5, 6, 11, 13):
        members = set(admissible_kernels(k))
        for a in (720 * 999983 * 1009, 2**30 * 3**5 * 1000003, 10**17 + 3,
                  2**20 * 3**12 * 5**3 * 7**2 * 11 * 13, 2**60 * 5, 3**40):
            F = SparsePoly(tuple(a * i for i in range(1, k + 1)), k * a)
            expect = [
                n for n in _divisors_of_smooth_part((k + 1) * a, k + 1)
                if n > 1 and a % n and prod(p for p, _ in factorize(n)) in members
            ]
            assert expect and find_cyclotomic_factors(F, "fs-pruned") == expect, (k, a)


def test_pruned_factors_at_large_degree_match_the_walk_under_a_cap():
    polys = [sample_random(k, N, 97, k) for k in (3, 5, 8, 13) for N in (10**9, 10**12, 10**16, 10**20)]
    # Phi_3(x^m) Phi_5(x^c) and Phi_2(x^m) Phi_7(x^c) have factors below the caps
    polys.append(_product(_gon(3, 4 * 10**8), _gon(5, 6 * 10**11)))
    polys.append(_product(_gon(2, 9 * 10**15), _gon(7, 10**18 + 1)))
    for F in polys:
        for cap in (10**4, 10**6):
            assert find_cyclotomic_factors(F, "fs-pruned", cap) == _reference_factors(F, "fs-pruned", cap), (
                F.exponents, cap,
            )
    assert find_cyclotomic_factors(polys[-2], "fs-pruned", 10**4)[:4] == [3, 6, 12, 15]


# --- one grouping per peel prime power ---------------------------------------------


def _gon(p, m, shift=0):
    """Exponents of x^shift * Phi_p(x^m): Phi_n divides it when n | p m and n does not divide m."""
    return tuple(shift + m * t for t in range(p))


def _product(*factors):
    """1 + sum x^e for the product of 0,1-polynomials given by exponent tuples with 0."""
    exps = [0]
    for f in factors:
        exps = [a + b for a in exps for b in f]
    if len(set(exps)) != len(exps):
        raise ValueError(f"product of {factors} is not a 0,1-polynomial")
    return SparsePoly(tuple(sorted(exps))[1:], max(exps))


# several factors per q: Phi_3(x^4) gives 3, 6, 12 (q = 3), Phi_5(x^6) gives 5, 10,
# 15, 30 (q = 5), Phi_7(x^2) gives 7, 14 (q = 7), Phi_2(x^9) gives 2, 6, 18
SHARED_Q = (
    (_gon(3, 4), _gon(5, 6)),
    (_gon(3, 4), (0, 1, 13)),
    (_gon(7, 2), _gon(3, 15), (0, 43)),
    (_gon(2, 9), _gon(3, 4)),
    (_gon(5, 6), (0, 1), (0, 100)),
)


def test_sweep_matches_the_per_candidate_walk_on_shared_peels():
    for factors in SHARED_Q:
        F = _product(*factors)
        for mode in MODES:
            assert find_cyclotomic_factors(F, mode) == _reference_factors(F, mode), (factors, mode)
            assert has_cyclotomic_factor(F, mode)
    # in one sweep the grouping of q = 3 and of q = 5 is reused by passing
    # moduli, and no candidate is one that the filter rejects at its peel power
    F = _product(*SHARED_Q[0])
    found = find_cyclotomic_factors(F)
    assert {3, 6, 12, 5, 10, 15, 30} <= set(found)
    vec = dict.fromkeys((0,) + F.exponents, 1)
    moduli, classes = _sweep_moduli(F, None)
    assert all(_column_classes(vec, *peel(n)[:2]) is not None for n in moduli)
    shared = Counter(peel(n)[1] for n in moduli)
    assert shared[3] >= 2 and shared[5] >= 2 and set(shared) <= set(classes)


def test_sweep_matches_the_per_candidate_walk_on_seeded_polynomials():
    stream = _Stream(79, 0)
    for i in range(33):
        k = 3 + i % 11
        N = k + stream.randbelow(3001 - k)
        F = sample_random(k, N, 83, i)
        for mode in MODES:
            assert find_cyclotomic_factors(F, mode) == _reference_factors(F, mode), (k, N, i, mode)


@st.composite
def sparse_polys(draw):
    """1 + sum x^e with a few random terms and up to two rotated p-gons mixed in."""
    terms = set(draw(st.lists(st.integers(1, 600), max_size=6)))
    for _ in range(draw(st.integers(0, 2))):
        p = draw(st.sampled_from((2, 3, 5, 7)))
        terms |= set(_gon(p, draw(st.integers(1, 40)), draw(st.integers(0, 60)))) - {0}
    if not terms:
        terms = {draw(st.integers(1, 600))}
    return SparsePoly(tuple(sorted(terms)), max(terms) + draw(st.integers(0, 30)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(F=sparse_polys())
def test_pruned_full_and_walked_sweeps_agree(F):
    full = find_cyclotomic_factors(F, "full-sweep")
    pruned = find_cyclotomic_factors(F, "fs-pruned")
    assert full == _reference_factors(F, "full-sweep")
    assert pruned == _reference_factors(F, "fs-pruned")
    assert set(pruned) <= set(full)
    assert has_cyclotomic_factor(F, "fs-pruned") == has_cyclotomic_factor(F, "full-sweep") == bool(full)
    event(f"factors: {bool(full)}")


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(F=sparse_polys(), extra=st.integers(1, 10**4))
def test_factors_do_not_depend_on_the_cap_above_the_degree(F, extra):
    # Phi_n | F forces phi(n) <= deg F, so a degree cap above deg F adds only
    # moduli that cannot divide F
    at_degree = SparsePoly(F.exponents, F.degree)
    above = SparsePoly(F.exponents, F.degree + extra)
    for mode in MODES:
        assert find_cyclotomic_factors(above, mode) == find_cyclotomic_factors(at_degree, mode)
