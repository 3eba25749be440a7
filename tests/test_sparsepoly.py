"""Representation, sampling, and exact distribution of residue counts."""

import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacunary import (
    InvalidParametersError,
    PolyParseError,
    ResourceLimitError,
    SparsePoly,
    atom_probability,
    divides_phi_dense,
    format_poly,
    multinomial_weight,
    parse_poly_line,
    read_poly_file,
    sample_random,
)


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for v in range(total + 1):
        for rest in compositions(total - v, parts - 1):
            yield (v,) + rest


# --- construction and reduction ----------------------------------------------


def test_poly_invariants():
    p = SparsePoly((1, 3, 4), 12)
    assert p.k == 3 and p.degree == 4
    with pytest.raises(InvalidParametersError):
        SparsePoly((3, 1), 12)  # not increasing
    with pytest.raises(InvalidParametersError):
        SparsePoly((0, 1), 12)  # exponent below 1
    with pytest.raises(InvalidParametersError):
        SparsePoly((1, 13), 12)  # above cap
    with pytest.raises(InvalidParametersError):
        SparsePoly((1,), 0)


def test_reduce_mod_cyclic_examples():
    # the dense check counts the constant term on residue 0: 1 + x + x^2 is
    # Phi_3, while x + x^2 alone leaves -1 modulo it
    assert divides_phi_dense(SparsePoly((1, 2), 2), 3)
    assert divides_phi_dense(SparsePoly((1, 5), 5), 3)
    assert not divides_phi_dense(SparsePoly((3, 4, 5), 5), 3)  # residues 0, 0, 1, 2
    assert not divides_phi_dense(SparsePoly((1, 3, 4), 12), 3)  # 2 + 2x
    assert not divides_phi_dense(SparsePoly((2,), 2), 2)  # 1 + x^2 = 2 mod x + 1
    with pytest.raises(InvalidParametersError):
        divides_phi_dense(SparsePoly((1,), 2), 0)
    with pytest.raises(ResourceLimitError):  # refused before n counts are allocated
        divides_phi_dense(SparsePoly((1, 2), 2), 10**7 + 1)


def test_refusal_just_above_the_guard_prints_above_it():
    # three significant digits rounded up: 10^7 + 1 must not read as 1.00e+7
    with pytest.raises(ResourceLimitError) as exc:
        divides_phi_dense(SparsePoly((1, 2), 2), 10**7 + 1)
    assert str(exc.value) == "1.01e+7 predicted residue counts exceed guard 1e+07"


# --- exact probabilities ------------------------------------------------------


def test_atom_probability_examples():
    assert atom_probability((2, 1, 1), 4, 3, 12) == Fraction(32, 165)
    assert atom_probability((4,), 4, 1, 10) == 1
    assert atom_probability((0, 4), 4, 2, 4) == 0


def test_atom_probability_validation():
    with pytest.raises(InvalidParametersError):
        atom_probability((2, 1), 4, 2, 12)  # sums to 3, not 4
    with pytest.raises(InvalidParametersError):
        atom_probability((2, -1, 3), 4, 3, 12)
    with pytest.raises(InvalidParametersError):
        atom_probability((2, 2), 4, 2, 1)  # n > N


def test_multinomial_weight_examples():
    assert multinomial_weight((2, 1, 1), 4, 3) == Fraction(4, 27)
    assert multinomial_weight((4, 0, 0), 4, 3) == Fraction(1, 81)
    assert multinomial_weight((2, 2), 4, 2) == Fraction(3, 8)
    with pytest.raises(InvalidParametersError):
        multinomial_weight((3, -1), 2, 2)


def test_atom_probability_mass_spot():
    # exact unit mass on a couple of (k, n, N) triples; the acceptance suite
    # sweeps the full grid
    for k, n, N in [(4, 3, 12), (5, 2, 11), (3, 4, 9)]:
        total = sum(atom_probability(c, k, n, N) for c in compositions(k, n))
        assert total == 1


def test_multinomial_mass_spot():
    for k, n in [(6, 3), (5, 4), (8, 2)]:
        total = sum(multinomial_weight(c, k, n) for c in compositions(k, n))
        assert total == 1


@pytest.mark.parametrize(
    "c,k,n",
    [((2, 1, 1), 4, 3), ((1, 1, 1, 1), 4, 4), ((3, 2, 1), 6, 3)],
)
def test_atom_converges_to_multinomial(c, k, n):
    # the finite-N correction factor shrinks like 1/N: a decade of N buys
    # roughly a decade of |ratio - 1|
    w = multinomial_weight(c, k, n)
    errs = []
    for N in (n * 10, n * 100, n * 1000):
        ratio = atom_probability(c, k, n, N) / w
        errs.append(abs(ratio - 1))
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] <= errs[0] / 8
    assert errs[2] <= errs[1] / 8


# --- sampling ------------------------------------------------------------------


def test_sample_forced_cases():
    assert sample_random(3, 3, 1, 0).exponents == (1, 2, 3)
    assert sample_random(1, 1, 99, 7).exponents == (1,)


def test_sample_regression_fixture():
    # frozen first output of the counter-based generator
    assert sample_random(5, 100, 42, 0).exponents == (16, 24, 53, 61, 75)


def test_sample_validation():
    with pytest.raises(InvalidParametersError):
        sample_random(5, 4, 0, 0)
    with pytest.raises(InvalidParametersError):
        sample_random(0, 4, 0, 0)


def test_sample_deterministic_and_index_separated():
    a = sample_random(6, 50, 1234, 17)
    b = sample_random(6, 50, 1234, 17)
    assert a == b
    draws = {sample_random(6, 50, 1234, i).exponents for i in range(50)}
    assert len(draws) > 40  # indexes give fresh draws


def test_sample_bounds_and_size():
    for i in range(200):
        p = sample_random(7, 31, 5, i)
        assert len(p.exponents) == 7
        assert 1 <= p.exponents[0] and p.exponents[-1] <= 31


def test_sample_uniformity_chi_square():
    # 6 possible subsets for (k=2, N=4); chi-square on 60000 seeded draws
    # must stay below the 0.001 critical value for 5 degrees of freedom
    counts = {}
    for i in range(60000):
        key = sample_random(2, 4, 2026, i).exponents
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    expected = 60000 / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 20.515, f"chi-square {chi2:.2f} rejects uniformity"


# --- text format ----------------------------------------------------------------


def test_parse_and_format_roundtrip():
    p = parse_poly_line("3 5 11", 1)
    assert p.exponents == (3, 5, 11) and p.N == 11
    assert format_poly(p) == "3 5 11"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(exps=st.sets(st.integers(1, 10**12), min_size=1, max_size=20), pad=st.integers(0, 100))
def test_parse_inverts_format(exps, pad):
    # a parsed line is capped at its degree, whatever cap the formatted polynomial had
    p = SparsePoly(tuple(sorted(exps)), max(exps) + pad)
    assert parse_poly_line(format_poly(p)) == SparsePoly(p.exponents, p.degree)


def test_read_poly_file():
    text = "# header comment\n1 2\n\n  5 7 8\n"
    polys = list(read_poly_file(io.StringIO(text)))
    assert [(ln, p.exponents) for ln, p in polys] == [(2, (1, 2)), (4, (5, 7, 8))]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(PolyParseError) as exc:
        list(read_poly_file(io.StringIO("1 2\n4 x\n")))
    assert exc.value.lineno == 2
    with pytest.raises(PolyParseError) as exc:
        list(read_poly_file(io.StringIO("1 2\n\n9 4\n")))
    assert exc.value.lineno == 3  # not ascending
