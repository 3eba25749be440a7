"""Property tests of _vanishes, the structural recursion on integer sums of
roots of unity: lattice relations vanish, one more root does not, and random
sparse sums agree with 50-digit numerics.  The structural test of Phi_n | F
agrees with the dense check and numerics."""

from collections import Counter

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lacunary import (
    SparsePoly,
    build_basis,
    divides_phi_dense,
    divides_phi_structural,
)
from lacunary.cyclotomic import _vanishes

from oracles import root_sum_zero_numeric

# prime powers, the composite moduli of the acceptance cells, and a prime above 1,000
MODULI = (7, 25, 32, 81, 12, 20, 36, 60, 1009, 2 * 1009)

checks = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _sum_vanishes(exponents, n: int, coefficients) -> bool:
    """Whether sum coefficients[i] * zeta_n^exponents[i] is zero; _vanishes
    takes non-zero coefficients only, so those that cancel are dropped."""
    vec = Counter()
    for e, c in zip(exponents, coefficients, strict=True):
        vec[e % n] += c
    return _vanishes({l: c for l, c in vec.items() if c}, n)


@st.composite
def relations(draw, n: int):
    """(exponents, coefficients) of an integer combination of shifted basis vectors.

    Keys are offset by multiples of n, and cancelling pairs (e, c), (e + m n, -c)
    are mixed in.
    """
    vectors = build_basis(n).vectors
    exponents, coefficients = [], []
    for _ in range(draw(st.integers(1, 4))):
        v = draw(st.sampled_from(vectors))
        shift = draw(st.integers(0, n - 1))
        c = draw(st.integers(-3, 3).filter(bool))
        offsets = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=4))
        for i, l in enumerate(l for l, x in enumerate(v) if x):
            exponents.append(l + shift + n * offsets[i % len(offsets)])
            coefficients.append(c)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(-2, 2), st.integers(1, 3))
    for e, m, c in draw(st.lists(pairs, max_size=3)):
        exponents += [e, e + m * n]
        coefficients += [c, -c]
    return exponents, coefficients


@pytest.mark.parametrize("n", MODULI)
@checks
@given(data=st.data())
def test_combinations_of_basis_relations_vanish(n, data):
    exponents, coefficients = data.draw(relations(n))
    assert _sum_vanishes(exponents, n, coefficients)


@pytest.mark.parametrize("n", MODULI)
@checks
@given(data=st.data())
def test_one_more_root_does_not_vanish(n, data):
    exponents, coefficients = data.draw(relations(n))
    extra = data.draw(st.integers(-3 * n, 3 * n))
    assert not _sum_vanishes(exponents + [extra], n, coefficients + [1])


@pytest.mark.parametrize("n", MODULI)
@checks
@given(data=st.data())
def test_sparse_sums_agree_with_numerics(n, data):
    # random terms on top of a few regular p-gons, so that some sums vanish
    exponents, coefficients = [], []
    primes = [p for p in (2, 3, 5, 7) if n % p == 0]
    if primes:
        gons = st.tuples(st.sampled_from(primes), st.integers(0, n - 1), st.integers(-2, 2))
        for p, s, c in data.draw(st.lists(gons, max_size=3)):
            exponents += [s + j * (n // p) for j in range(p)]
            coefficients += [c] * p
    for e, c in data.draw(st.lists(st.tuples(st.integers(0, 2 * n), st.integers(-2, 2)), max_size=6)):
        exponents.append(e)
        coefficients.append(c)
    expected = root_sum_zero_numeric(exponents, n, coefficients)
    event(f"vanishes: {expected}")
    assert _sum_vanishes(exponents, n, coefficients) == expected


# --- Phi_n | F: structural decision, dense and numeric checks ------------------------


@st.composite
def sparse_polys(draw):
    """(F, n): a 0,1-polynomial with k <= 12 terms of degree at most N <= 300, and n <= 2N."""
    N = draw(st.integers(1, 300))
    exponents = draw(st.lists(st.integers(1, N), min_size=1, max_size=min(12, N), unique=True))
    return SparsePoly(tuple(sorted(exponents)), N), draw(st.integers(1, 2 * N))


@st.composite
def vanishing_polys(draw):
    """(F, n) with Phi_n | F: F's residues mod n are a union of rotated p-gons, one through 0.

    A residue met again is lifted by the next multiple of n, so F stays a
    0,1-polynomial; at most 13 roots, so k <= 12.
    """
    n = draw(st.integers(2, 60))
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]
    p = draw(st.sampled_from(primes))
    residues = [j * (n // p) for j in range(1, p)]  # the p-gon through 0, less the constant term
    while len(residues) < 12:
        p = draw(st.sampled_from(primes))
        if len(residues) + p > 12 or not draw(st.booleans()):
            break
        s = draw(st.integers(0, n - 1))
        residues += [(s + j * (n // p)) % n for j in range(p)]
    lifts = Counter({0: 1})  # the constant term holds exponent 0
    exponents = []
    for r in residues:
        exponents.append(r + lifts[r] * n)
        lifts[r] += 1
    N = max(exponents) + draw(st.integers(0, 10))
    return SparsePoly(tuple(sorted(exponents)), N), n


def _three_routes(F: SparsePoly, n: int) -> bool:
    structural = divides_phi_structural(F, n)
    assert divides_phi_dense(F, n) == structural
    assert root_sum_zero_numeric((0,) + F.exponents, n) == structural
    return structural


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=sparse_polys())
def test_dense_structural_and_numerics_agree_on_random_polynomials(case):
    event(f"divides: {_three_routes(*case)}")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=vanishing_polys())
def test_dense_structural_and_numerics_agree_on_built_vanishing_sums(case):
    assert _three_routes(*case)
