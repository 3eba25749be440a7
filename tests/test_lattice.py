"""Relation-lattice basis geometry and exact ball counting."""

import random
from dataclasses import replace
from fractions import Fraction
from math import ceil, floor, gamma, isqrt, lcm, pi, sqrt

import pytest

from lacunary import (
    BallQuery,
    InvalidParametersError,
    ResourceLimitError,
    basis_to_json,
    build_basis,
    enumerate_ball,
    mesh_max_length,
    volume_count_bound,
)
from lacunary import lattice
from lacunary.cyclotomic import _cyclotomic_coeffs, _poly_mod
from lacunary.numtheory import factorize, omega, totient
from oracles import bareiss_det, fincke_pohst_count


def dense_kills_cyclotomic(vector, n):
    rem = _poly_mod(list(vector), list(_cyclotomic_coeffs(n)))
    return all(c == 0 for c in rem)


def fraction_inverse(mat):
    """Inverse of a nonsingular integer matrix by Gauss-Jordan over the rationals."""
    r = len(mat)
    m = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(r)]
         for i, row in enumerate(mat)]
    for k in range(r):
        piv = next(i for i in range(k, r) if m[i][k])
        m[k], m[piv] = m[piv], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for i in range(r):
            if i != k and m[i][k]:
                f = m[i][k]
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return [row[r:] for row in m]


def box_count(basis, center, radius_sq, anchor):
    """Points of anchor + lattice with |x - center|^2 <= radius_sq, by a box scan.

    t - t* = G^-1 B (x - center) with t* = G^-1 B (center - anchor), so
    |t_i - t*_i| <= sqrt((G^-1)_ii) * radius bounds the box.  Coordinates are
    scaled by D, the common denominator of the center and radius_sq, and
    radius_sq by D^2, so every distance test compares integers.
    """
    center = [Fraction(c) for c in center]
    radius_sq = Fraction(radius_sq)
    ginv = fraction_inverse(basis.gram)
    proj = [sum(c - a for c, a, x in zip(center, anchor, v) if x) for v in basis.vectors]
    tstar = [sum(g * w for g, w in zip(row, proj)) for row in ginv]
    boxes = []
    for i, ti in enumerate(tstar):
        s = isqrt(ceil(ginv[i][i] * radius_sq)) + 1
        box = range(floor(ti) - s, ceil(ti) + s + 1)
        boxes.append([x for x in box if (x - ti) ** 2 <= ginv[i][i] * radius_sq])
    den = lcm(radius_sq.denominator, *(c.denominator for c in center))
    start = [den * a - int(den * c) for a, c in zip(anchor, center)]
    scaled = [[den * x for x in v] for v in basis.vectors]
    limit = int(den * den * radius_sq)

    def scan(i, coords):
        if i == len(scaled):
            return int(sum(y * y for y in coords) <= limit)
        v = scaled[i]
        return sum(scan(i + 1, [y + ti * x for y, x in zip(coords, v)]) for ti in boxes[i])

    return scan(0, start)


# --- construction ----------------------------------------------------------------


def test_basis_n4():
    b = build_basis(4)
    assert b.rank == 2
    assert b.vectors == ((1, 0, 1, 0), (0, 1, 0, 1))
    assert b.gram == ((2, 0), (0, 2))
    assert b.gram_det == 4


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_basis_prime_is_all_ones(p):
    b = build_basis(p)
    assert b.rank == 1
    assert b.vectors == ((1,) * p,)
    assert b.gram_det == p


def test_basis_n12():
    b = build_basis(12)
    assert b.rank == 8
    assert b.gram_det > 0
    for v in b.vectors:
        assert dense_kills_cyclotomic(v, 12)


def test_basis_validation():
    with pytest.raises(InvalidParametersError):
        build_basis(1)


def test_basis_invariants_moderate_range():
    # the acceptance suite runs the full [2, 300]
    for n in range(2, 61):
        b = build_basis(n)
        assert b.rank == n - totient(n)
        assert isinstance(b.gram_det, int) and b.gram_det > 0
        assert all(x == 1 for v in b.vectors for x in v if x)  # 0/1 vectors
        for i in range(b.rank):
            for j in range(b.rank):
                assert b.gram[i][j] >= 0
        for v in b.vectors:
            assert dense_kills_cyclotomic(v, n)


def test_gram_det_regression_fixtures():
    # frozen exact determinants pin the construction against silent drift
    expected = {6: 12, 12: 144, 30: 518400, 36: 2985984, 100: 10737418240000000000}
    for n, det in expected.items():
        assert build_basis(n).gram_det == det


def fraction_det(mat):
    """Determinant by Gaussian elimination over the rationals, with row swaps."""
    m = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for k in range(len(m)):
        piv = next((i for i in range(k, len(m)) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def gram_of(vectors):
    return [[sum(a * b for a, b in zip(u, v)) for v in vectors] for u in vectors]


def test_bareiss_det_singular_psd_is_zero():
    # a zero first pivot, a zero second leading minor, and a rank-2 Gram of 3 vectors
    for vectors in (
        [(0, 0), (1, 2)],
        [(1, 0, 0), (2, 0, 0), (0, 0, 1)],
        [(1, 1), (1, -1), (2, 3)],
    ):
        g = gram_of(vectors)
        assert fraction_det(g) == 0
        assert bareiss_det(g) == 0


def test_bareiss_det_matches_fraction_determinant_on_random_grams():
    rng = random.Random(11)
    for _ in range(60):
        r = rng.randint(1, 7)
        dim = rng.randint(1, 8)  # dim < r gives a singular Gram
        vectors = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(r)]
        g = gram_of(vectors)
        assert bareiss_det(g) == fraction_det(g)


def test_gram_det_equals_bareiss_of_the_whole_gram():
    # Bareiss on the whole rank x rank Gram is the independent check of the closed form
    # 250 = 125 * 2 and 270 = 5 * 54 peel a prime power above p with n' > 1
    for n in list(range(2, 121)) + [210, 240, 250, 270, 288, 300]:
        b = build_basis(n)
        assert bareiss_det([list(row) for row in b.gram]) == b.gram_det, n


def test_gram_det_closed_form_certifies_the_basis():
    # prod_{p | n} p^(phi(n)/(p-1)) = n^phi(n) / |disc Q(zeta_n)| is the determinant
    # of the whole lattice of vanishing sums; a sublattice of index j has j^2 times it
    for n in range(2, 301):
        phi = totient(n)
        expected = 1
        for p, _ in factorize(n):
            expected *= p ** (phi // (p - 1))
        assert build_basis(n).gram_det == expected, n


def test_tail_gram_determinant_is_one():
    # the Gram on coordinates phi(m)..m-1 has determinant 1 exactly when the
    # basis for m spans its lattice: projecting the lattice onto them is onto Z^(m - phi(m))
    for m in range(2, 151):
        phi = totient(m)
        assert bareiss_det(gram_of([v[phi:] for v in build_basis(m).vectors])) == 1, m


def _supports(basis):
    return [tuple(l for l, x in enumerate(v) if x) for v in basis.vectors]


def test_copies_are_the_images_of_the_smaller_basis():
    # zeta_{n'} -> zeta_n^q times zeta_n^{n' i} maps a relation for n' to one for n
    for n in range(2, 301):
        factors = factorize(n)
        if len(factors) == 1:
            continue
        p, e = factors[-1]
        q = p**e
        nprime = n // q
        images = [
            tuple(sorted((nprime * i + q * l) % n for l in y))
            for i in range(q)
            for y in _supports(build_basis(nprime))
        ]
        assert _supports(build_basis(n))[: len(images)] == images, n


# --- mesh length -------------------------------------------------------------------


def test_mesh_examples():
    assert mesh_max_length(build_basis(4)) == pytest.approx(2.0)
    assert mesh_max_length(build_basis(9)) == pytest.approx(3.0)
    assert mesh_max_length(build_basis(6)) <= 2 * sqrt(6)


def test_mesh_bound_and_prime_power_equality():
    for n in range(2, 61):
        ml = mesh_max_length(build_basis(n))
        assert ml <= omega(n) * sqrt(n) + 1e-9
        if omega(n) == 1:
            assert ml == pytest.approx(sqrt(n))


# --- ball counting -----------------------------------------------------------------


def test_radius_zero_counts_anchor():
    b = build_basis(4)
    q = BallQuery(center=(0, 0, 0, 0), radius=0, n=4)
    assert enumerate_ball(b, q, (0, 0, 0, 0)) == 1


@pytest.mark.parametrize("p,r", [(5, 7), (3, 10), (7, 20)])
def test_rank_one_closed_form(p, r):
    b = build_basis(p)
    q = BallQuery(center=(0,) * p, radius=r, n=p)
    assert enumerate_ball(b, q, (0,) * p) == 2 * int(r / sqrt(p)) + 1


def test_boundary_points_are_included():
    # radius exactly sqrt(p): the two neighbors sit on the sphere
    b = build_basis(5)
    q = BallQuery(center=(0,) * 5, radius=sqrt(5), n=5)
    assert enumerate_ball(b, q, (0,) * 5) == 3


def test_count_matches_brute_force_off_center():
    b = build_basis(4)
    center = (Fraction(5, 4), Fraction(5, 4), Fraction(5, 4), Fraction(5, 4))
    for anchor in [(0, 0, 0, 0), (1, 0, 1, 0), (2, 1, 0, 0)]:
        for radius in (0, 1, 3, 6):
            q = BallQuery(center=center, radius=radius, n=4)
            assert enumerate_ball(b, q, anchor) == box_count(b, center, radius**2, anchor)


def test_count_matches_brute_force_rank3():
    b = build_basis(9)
    center = (Fraction(1, 3),) * 9
    q = BallQuery(center=center, radius=5, n=9)
    assert enumerate_ball(b, q, (0,) * 9) == box_count(b, center, 25, (0,) * 9)


def lattice_point(basis, anchor, t):
    return [a + sum(ti * v[l] for ti, v in zip(t, basis.vectors)) for l, a in enumerate(anchor)]


def test_count_matches_box_scan_off_center_above_rank3():
    # ranks 4, 4 and 6: seeded rational centers near anchor + lattice, nonzero
    # anchors, and radii whose square is the distance to a lattice point.  Every
    # basis built has b_0 . b_1 = 0; the same lattice in reverse order has not.
    rng = random.Random(17)
    for n in (6, 8, 10):
        b = build_basis(n)
        reversed_b = replace(b, vectors=b.vectors[::-1], gram=tuple(r[::-1] for r in b.gram[::-1]))
        assert reversed_b.gram[0][1] or n == 8
        for _ in range(4):
            anchor = [rng.randint(-2, 2) for _ in range(n)]
            s = [rng.randint(-2, 2) for _ in range(b.rank)]
            near = lattice_point(b, anchor, s)
            center = [x + Fraction(rng.randint(-1, 1), rng.randint(2, 4)) for x in near]
            on_sphere = []
            for _ in range(3):
                point = lattice_point(b, anchor, [si + rng.randint(-1, 1) for si in s])
                on_sphere.append(sum((x - c) ** 2 for x, c in zip(point, center)))
            for radius_sq in [0, 1, 3, 5] + [d for d in on_sphere if d <= 8]:
                q = BallQuery(center=center, radius=sqrt(radius_sq), n=n)
                expected = box_count(b, center, radius_sq, anchor)
                for basis in (b, reversed_b):
                    assert enumerate_ball(basis, q, anchor) == expected, (n, anchor, radius_sq)


def shuffled(basis, rng):
    """The same lattice with its basis vectors in a random order."""
    perm = list(range(basis.rank))
    rng.shuffle(perm)
    return replace(
        basis,
        vectors=tuple(basis.vectors[i] for i in perm),
        gram=tuple(tuple(basis.gram[i][j] for j in perm) for i in perm),
    )


def test_count_matches_fincke_pohst_on_shuffled_bases():
    # the former per-point recursion is the reference; the norm-distribution
    # count must not depend on the order of the basis vectors
    rng = random.Random(23)
    for n in (12, 15, 18, 20, 24, 30):
        b = build_basis(n)
        for _ in range(3):
            anchor = [rng.randint(-2, 2) for _ in range(n)]
            s = [rng.randint(-2, 2) for _ in range(b.rank)]
            center = [x + Fraction(rng.randint(-1, 1), rng.randint(2, 4))
                      for x in lattice_point(b, anchor, s)]
            for radius_sq in (0, 1, 3, 6):
                q = BallQuery(center=center, radius=sqrt(radius_sq), n=n)
                expected = fincke_pohst_count(b, q, anchor)
                for basis in (b, shuffled(b, rng)):
                    assert enumerate_ball(basis, q, anchor) == expected, (n, anchor, radius_sq)


def test_count_matches_box_scan_with_a_large_center_denominator():
    # D = 997: D^2 R^2 runs to 10^7, but the norm counts hold only the norms
    # reached.  Distinct squared distances differ by at least 1/997^2, far
    # more than the slack, so the points on the sphere are still decided.
    rng = random.Random(29)
    for n in (4, 8, 9):
        b = build_basis(n)
        for _ in range(3):
            anchor = [rng.randint(-2, 2) for _ in range(n)]
            s = [rng.randint(-2, 2) for _ in range(b.rank)]
            center = [x + Fraction(rng.randint(-400, 400), 997) for x in lattice_point(b, anchor, s)]
            on_sphere = []
            for _ in range(3):
                point = lattice_point(b, anchor, [si + rng.randint(-1, 1) for si in s])
                on_sphere.append(sum((x - c) ** 2 for x, c in zip(point, center)))
            for radius_sq in [1, 3, 6] + [d for d in on_sphere if d <= 8]:
                q = BallQuery(center=center, radius=sqrt(radius_sq), n=n)
                expected = box_count(b, center, radius_sq, anchor)
                for basis in (b, shuffled(b, rng)):
                    assert enumerate_ball(basis, q, anchor) == expected, (n, radius_sq)


def test_points_on_the_sphere_at_a_separator_node_are_counted():
    # at the origin, n = 10 has the point t_sep = 2, t_copy = -1 at squared
    # distance 10, the least over real copy coefficients; n = 12 and 18 alike
    for n, radius_sq in ((10, 10), (12, 6), (12, 24), (18, 6)):
        b = build_basis(n)
        q = BallQuery(center=(0,) * n, radius=sqrt(radius_sq), n=n)
        assert enumerate_ball(b, q, (0,) * n) == fincke_pohst_count(b, q, (0,) * n), (n, radius_sq)


def unimodular(basis, rng):
    """U b for a random unit upper-triangular U: the same lattice, mixed supports."""
    r = basis.rank
    u = [[int(i == j) + (rng.randint(-1, 1) if j > i else 0) for j in range(r)] for i in range(r)]
    vectors = tuple(
        tuple(sum(ui[k] * v[l] for k, v in enumerate(basis.vectors)) for l in range(basis.n))
        for ui in u
    )
    return replace(basis, vectors=vectors, gram=tuple(tuple(row) for row in gram_of(vectors)))


def test_count_does_not_depend_on_the_basis_of_the_lattice():
    # a mixed basis meets every residue class, so every coefficient is a
    # separator; a prefix of the basis spans a sublattice and leaves
    # coordinates that no vector covers
    rng = random.Random(31)
    for n in (6, 10, 12):
        b = build_basis(n)
        mixed = unimodular(b, rng)
        prefix = replace(b, rank=2, vectors=b.vectors[:2], gram=tuple(row[:2] for row in b.gram[:2]))
        for _ in range(3):
            anchor = [rng.randint(-2, 2) for _ in range(n)]
            s = [rng.randint(-2, 2) for _ in range(b.rank)]
            center = [x + Fraction(rng.randint(-1, 1), rng.randint(2, 4))
                      for x in lattice_point(b, anchor, s)]
            for radius_sq in (0, 2, 6):
                q = BallQuery(center=center, radius=sqrt(radius_sq), n=n)
                expected = fincke_pohst_count(b, q, anchor)
                assert enumerate_ball(b, q, anchor) == expected, (n, radius_sq)
                assert enumerate_ball(mixed, q, anchor) == expected, (n, radius_sq)
                part = box_count(prefix, center, radius_sq, anchor)
                assert enumerate_ball(prefix, q, anchor) == part, (n, radius_sq)


def test_count_is_exact_beyond_the_float_slack():
    # D = 10^6: the origin lies 2e-9 outside radius^2 + 1e-9, the exact rule,
    # which floats at this scale cannot resolve, so only the integer norm
    # drops it; a second radius keeps it 2e-9 inside
    rng = random.Random(37)
    for n in (6, 10):
        b = build_basis(n)
        for basis in (b, unimodular(b, rng)):
            center = [Fraction(rng.randint(-800_000, 800_000), 10**6) for _ in range(n)]
            dist_sq = sum(c * c for c in center)
            for margin in (Fraction(3, 10**9), Fraction(-1, 10**9)):
                radius = sqrt(dist_sq - margin)
                q = BallQuery(center=center, radius=radius, n=n)
                limit = Fraction(radius**2 + lattice._SLACK)
                assert (limit < dist_sq) == (margin > 0)
                expected = box_count(b, center, limit, (0,) * n)
                assert enumerate_ball(basis, q, (0,) * n) == expected, (n, margin)


def test_count_at_a_far_anchor_equals_the_count_at_the_origin():
    # anchor + lattice is the lattice when the anchor is a lattice point, here
    # with coefficients up to 10^6, far beyond what floats resolve to 1e-9
    rng = random.Random(41)
    for n in (12, 30):
        b = build_basis(n)
        far = lattice_point(b, [0] * n, [rng.randint(-10**6, 10**6) for _ in range(b.rank)])
        for radius_sq in (5, 9):
            q = BallQuery(center=(Fraction(1, 3),) * n, radius=sqrt(radius_sq), n=n)
            assert enumerate_ball(b, q, far) == enumerate_ball(b, q, (0,) * n), (n, radius_sq)


def test_the_guard_sees_the_query_moved_near_the_origin():
    # a centre far out along the lattice once cancelled catastrophically in
    # the guard's float LDL, which predicted 1.03e7 nodes and refused
    rng = random.Random(12)
    b = build_basis(12)
    far = lattice_point(b, [0] * 12, [rng.randint(-10**9, 10**9) for _ in range(b.rank)])
    q = BallQuery(center=[Fraction(1, 3) + x for x in far], radius=sqrt(2), n=12)
    near = BallQuery(center=(Fraction(1, 3),) * 12, radius=sqrt(2), n=12)
    assert enumerate_ball(b, q, (0,) * 12) == enumerate_ball(b, near, (0,) * 12) == 7


# (n, radius) -> exact count at the origin; acceptance 6 minus the refused (12, 20)
ORIGIN_COUNTS = {
    (4, 5): 37,
    (4, 10): 161,
    (4, 20): 633,
    (6, 5): 859,
    (6, 10): 14435,
    (6, 20): 228337,
    (8, 5): 761,
    (8, 10): 12577,
    (8, 20): 197793,
    (9, 5): 93,
    (9, 10): 799,
    (9, 20): 6451,
    (10, 5): 10281,
    (10, 10): 576729,
    (10, 20): 37014729,
    (12, 5): 137577,
    (12, 10): 34226593,
}


def test_origin_counts_are_pinned():
    for (n, radius), expected in ORIGIN_COUNTS.items():
        q = BallQuery(center=(0,) * n, radius=radius, n=n)
        assert enumerate_ball(build_basis(n), q, (0,) * n) == expected, (n, radius)


def test_enumeration_guard():
    b = build_basis(12)
    q = BallQuery(center=(0,) * 12, radius=20, n=12)
    with pytest.raises(ResourceLimitError):
        enumerate_ball(b, q, (0,) * 12)
    # at radius 1e8 in rank 44 the predicted nodes and the volume bound pass
    # exp's range: both read inf, and the guard refuses
    b = build_basis(60)
    with pytest.raises(ResourceLimitError):
        enumerate_ball(b, BallQuery((0,) * 60, 1e8, 60), (0,) * 60)
    assert volume_count_bound(b, 1e8) == float("inf")
    assert volume_count_bound(b, 10**400) == float("inf")  # an integer past float range
    assert volume_count_bound(b, float("inf")) == float("inf")
    with pytest.raises(InvalidParametersError):
        volume_count_bound(b, float("nan"))  # nan compares false with 0
    # a radius whose square overflows a float predicts inf nodes and is refused
    with pytest.raises(ResourceLimitError):
        enumerate_ball(b, BallQuery((0,) * 60, 1e200, 60), (0,) * 60)
    # the rank-1 basis of a prime n has no level above 0; its line is counted
    b = build_basis(2)
    for radius in (1e8, 1e200):
        with pytest.raises(ResourceLimitError):
            enumerate_ball(b, BallQuery((0, 0), radius, 2), (0, 0))


def test_enumeration_validation():
    b = build_basis(4)
    with pytest.raises(InvalidParametersError):
        BallQuery(center=(0, 0, 0, 0), radius=-1, n=4)
    with pytest.raises(InvalidParametersError):
        enumerate_ball(b, BallQuery(center=(0,) * 6, radius=1, n=6), (0,) * 4)


@pytest.mark.parametrize("radius", [
    float("nan"), float("inf"), float("-inf"), pytest.param(10**400, id="int-past-float-range"),
])
def test_ball_query_rejects_a_non_finite_radius(radius):
    with pytest.raises(InvalidParametersError):
        BallQuery(center=(0, 0, 0, 0), radius=radius, n=4)


@pytest.mark.parametrize("entry", [0.5, Fraction(1, 3), float("nan"), float("inf")])
def test_enumerate_ball_rejects_a_non_integer_anchor(entry):
    b = build_basis(4)
    q = BallQuery(center=(0, 0, 0, 0), radius=2, n=4)
    with pytest.raises(InvalidParametersError):
        enumerate_ball(b, q, (entry, 0, 0, 0))
    # integral values of any numeric type are integers
    assert enumerate_ball(b, q, (1.0, 0, Fraction(1), 0)) == enumerate_ball(b, q, (1, 0, 1, 0))


# --- volume bound ------------------------------------------------------------------


def test_volume_bound_rank_one_formula():
    for p, r in [(5, 7), (3, 4), (11, 20)]:
        b = build_basis(p)
        assert volume_count_bound(b, r) == pytest.approx(2 * (r + sqrt(p)) / sqrt(p))


def test_volume_bound_radius_zero_at_least_one():
    for n in (4, 6, 9, 12):
        assert volume_count_bound(build_basis(n), 0) >= 1


def test_volume_bound_dominates_counts_small_grid():
    # the acceptance suite runs the full n x radius grid
    for n in (4, 6, 9):
        b = build_basis(n)
        for r in (5, 10):
            q = BallQuery(center=(0,) * n, radius=r, n=n)
            assert enumerate_ball(b, q, (0,) * n) <= volume_count_bound(b, r)


def test_volume_bound_formula_agreement():
    b = build_basis(6)
    r = 10.0
    expected = (
        (r + mesh_max_length(b)) ** b.rank
        * pi ** (b.rank / 2)
        / gamma(b.rank / 2 + 1)
        / sqrt(b.gram_det)
    )
    assert volume_count_bound(b, r) == pytest.approx(expected, rel=1e-12)


# --- export -------------------------------------------------------------------------


def test_basis_json_record():
    rec = basis_to_json(build_basis(4))
    assert rec["n"] == 4 and rec["rank"] == 2
    assert rec["vectors"] == [[1, 0, 1, 0], [0, 1, 0, 1]]
    assert rec["gram_det"] == 4
    assert rec["mesh_len"] == pytest.approx(2.0)
