"""Basis, geometry, and exact point counting for the lattice of vanishing sums.

The integer combinations of n-th roots of unity that evaluate to zero form
a lattice of rank n - phi(n) inside Z^n (coordinates indexed by the powers
of a fixed primitive root).  build_basis is its only recursion.  It peels
off the largest prime p of n with its full power q, n = q n', and takes

* q copies of the cached basis for n': its image under zeta_{n'} -> zeta_n^q
  times zeta_n^{n' i} for i < q, with supports (n' i + q l) mod n;

* the products zeta_{n'}^t zeta_q^s (1 + zeta_p + ... + zeta_p^{p-1}) for
  t < phi(n') and s < q/p, with supports {(q t + (s + j q/p) n') mod n : j < p};
  for n = p^e (n' = 1) they are the whole basis.

Only the products are checked with root_power_sum_is_zero: a copy is a root
of unity times the image of a relation for n', checked when that basis was
built, under a ring map, so it is a relation too.  A basis with more than
10^7 vector and Gram entries (rank * n + rank^2) is refused before it is built.

Every vector produced is a 0,1-vector, so the Gram entry of two supports is
the number of residues they share, counted from a residue-to-support index
that touches only the pairs that share one; all pairwise inner products are
non-negative and the far corner of the fundamental mesh realizes the
longest vector in the mesh.

The Gram determinant is a positive integer, computed exactly from the same
recursion.  For n = p^e the supports are disjoint p-sets, so G = p I.
Otherwise the q shifted copies of the basis for n' = n/q lie in distinct
residue classes mod q, and l -> n' i + q l is injective mod n, so the
leading block of G is I_q (x) G' with G' the Gram for n'; this is checked
before it is used.  With delta = det G', A = adj G' (fraction-free
Gauss-Jordan, cached per n'), E the Gram of the m products and C_i their
inner products with copy i, T = delta E - sum_i C_i^T A C_i is delta times
a Schur complement of G, hence positive definite, and
det G = delta^q det T / delta^m.  Only det T, an m x m determinant with
m = (q/p) phi(n'), is taken by fraction-free (Bareiss) elimination, which
needs no pivot search on a positive definite matrix.  The result equals
prod_{p | n} p^(phi(n)/(p-1)) = n^phi(n) / |disc Q(zeta_n)| for every
n <= 300 (tested); a sublattice of index j would have j^2 times that
determinant, so for those n the basis spans the whole lattice.

Ball counting is the Fincke-Pohst recursion over the basis coefficients in
basis order: coefficients are fixed from the last down to the first.  The
offset of coefficient i - 1's interval is linear in t[i..r-1]; a node at
level i sums the part that t[i+1..] fixes once, so each child adds one
product for its own t[i].  The level-1 loop counts the first coefficient's
admissible interval in closed form inline, with no call per level-0 node.
Interval bounds come from one homogenized LDL decomposition evaluated in
floating point with a small slack toward inclusion, which is decisive for
the rational centers used here because distinct achievable squared
distances differ by far more than the slack.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, exp, floor, log, sqrt

from .bounds import ball_volume_log
from .errors import InvalidParametersError, ResourceLimitError
from .numtheory import factorize, totient
from .cyclotomic import root_power_sum_is_zero

_WORK_GUARD = 10**7
_SLACK = 1e-9


@dataclass(frozen=True)
class RelationBasis:
    """Basis of the rank n - phi(n) lattice of vanishing sums of n-th roots."""

    n: int
    rank: int
    vectors: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[int, ...], ...]
    gram_det: int


@dataclass(frozen=True)
class BallQuery:
    """Euclidean ball in coordinate space: |x - center| <= radius."""

    center: tuple[Fraction, ...]
    radius: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(Fraction(c) for c in self.center))
        if self.radius < 0:
            raise InvalidParametersError(f"radius must be >= 0, got {self.radius}")
        if len(self.center) != self.n:
            raise InvalidParametersError("center must have length n")


def _peel_largest_prime(n: int) -> tuple[int, int, int]:
    """(p, q, n') with p the largest prime of n, q its full power and n = q n'."""
    p, e = factorize(n)[-1]
    q = p**e
    return p, q, n // q


def _bareiss_det(mat: list[list[int]]) -> int:
    """Exact determinant of a positive semidefinite integer matrix.

    Fraction-free elimination without row swaps: the pivot at step k is the
    leading (k+1)-minor.
    """
    m = [row[:] for row in mat]
    r = len(m)
    prev = 1
    for k in range(r - 1):
        pivot = m[k][k]
        if pivot == 0:
            return 0  # PSD: A_k x = 0, x padded to y, gives y.Ay = 0, so Ay = 0 and det = 0
        for i in range(k + 1, r):
            row_i = m[i]
            row_k = m[k]
            cik = row_i[k]
            for j in range(k + 1, r):
                row_i[j] = (row_i[j] * pivot - cik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return m[r - 1][r - 1]


def _adjugate(mat) -> tuple[tuple[int, ...], ...]:
    """delta * mat^-1 for a positive definite integer matrix, delta = det mat.

    Fraction-free Gauss-Jordan on [mat | I] without row swaps: every entry
    stays a minor of the augmented matrix, so each division by the previous
    pivot is exact, and at the end the left half is delta * I and the right
    half is the adjugate.
    """
    r = len(mat)
    m = [list(row) + [int(i == j) for j in range(r)] for i, row in enumerate(mat)]
    prev = 1
    for k in range(r):
        row_k = m[k]
        pivot = row_k[k]
        for i in range(r):
            if i != k:
                cik = m[i][k]
                m[i] = [(x * pivot - cik * y) // prev for x, y in zip(m[i], row_k)]
        prev = pivot
    return tuple(tuple(row[r:]) for row in m)


@lru_cache(maxsize=64)
def _copy_block(n: int) -> tuple[tuple[tuple[int, ...], ...], int, tuple[tuple[int, ...], ...]]:
    """(Gram, its determinant, its adjugate) of the basis for n."""
    basis = build_basis(n)
    return basis.gram, basis.gram_det, _adjugate(basis.gram)


def _gram_det(n: int, gram: list[list[int]]) -> int:
    """det gram by the block recursion of the module docstring."""
    p, q, nprime = _peel_largest_prime(n)
    r = len(gram)
    if nprime == 1:
        if any(gram[i][j] != (p if i == j else 0) for i in range(r) for j in range(r)):
            raise ArithmeticError(f"Gram for n={n} is not {p} I")
        return p**r
    sub, delta, adj = _copy_block(nprime)
    rp = len(sub)
    lead = q * rp
    for a in range(lead):
        i, j = divmod(a, rp)
        row, lo = gram[a], i * rp
        if tuple(row[lo : lo + rp]) != sub[j] or any(row[:lo]) or any(row[lo + rp : lead]):
            raise ArithmeticError(f"leading block of the Gram for n={n} is not I_{q} x Gram({nprime})")
    products = gram[lead:]
    t = [[delta * x for x in row[lead:]] for row in products]
    for lo in range(0, lead, rp):
        # the columns of C_i that meet copy i; the rest contribute nothing
        cols = [(j, c) for j, row in enumerate(products) if any(c := row[lo : lo + rp])]
        ys = [(j, [sum(a * x for a, x in zip(arow, c) if x) for arow in adj]) for j, c in cols]
        for j1, c in cols:
            t_row = t[j1]
            for j2, y in ys:
                t_row[j2] -= sum(x * v for x, v in zip(c, y) if x)
    det, remainder = divmod(delta**q * _bareiss_det(t), delta ** len(t))
    if remainder:
        raise ArithmeticError(f"Schur complement determinant for n={n} is not an integer")
    return det


@lru_cache(maxsize=64)
def build_basis(n: int) -> RelationBasis:
    """Construct the recursive basis with exact Gram data for modulus n >= 2.

    Refuses (resource-limit) when rank * n + rank^2 exceeds 10^7 entries.
    """
    if n < 2:
        raise InvalidParametersError(f"modulus must be >= 2, got {n}")
    rank = n - totient(n)
    if (work := rank * n + rank * rank) > _WORK_GUARD:
        raise ResourceLimitError(f"basis for n={n} needs {work:.3g} entries, guard {_WORK_GUARD:g}")
    p, q, nprime = _peel_largest_prime(n)
    # zeta_{n'} = zeta_n^q and zeta_q = zeta_n^{n'} fix the CRT embedding
    smaller = build_basis(nprime).vectors if nprime > 1 else ()
    prev = [[l for l, x in enumerate(v) if x] for v in smaller]
    supports = [tuple(sorted((nprime * i + q * l) % n for l in y)) for i in range(q) for y in prev]
    step = q // p
    products = [
        tuple(sorted((q * t + (s + j * step) * nprime) % n for j in range(p)))
        for t in range(totient(nprime))
        for s in range(step)
    ]
    for y in products:
        if not root_power_sum_is_zero(y, n):
            raise ArithmeticError(f"non-relation vector for n={n}")
    supports += products
    if len(supports) != rank:
        raise ArithmeticError(f"basis for n={n} has {len(supports)} vectors, rank is {rank}")
    # each point shared by supports i and j adds 1 to gram[i][j]; most pairs share none
    holders = [[] for _ in range(n)]
    for i, s in enumerate(supports):
        for l in s:
            holders[l].append(i)
    gram = [[0] * rank for _ in range(rank)]
    for h in holders:
        for i in h:
            row = gram[i]
            for j in h:
                row[j] += 1
    det = _gram_det(n, gram)
    if det <= 0:
        raise ArithmeticError(f"degenerate basis for n={n}")
    vectors = []
    for s in supports:
        row = [0] * n
        for l in s:
            row[l] = 1
        vectors.append(tuple(row))
    return RelationBasis(
        n=n,
        rank=rank,
        vectors=tuple(vectors),
        gram=tuple(tuple(row) for row in gram),
        gram_det=det,
    )


def mesh_max_length(basis: RelationBasis) -> float:
    """Length of the sum of all basis vectors.

    All pairwise inner products are non-negative, so the all-ones corner of
    the fundamental mesh is its longest element.
    """
    s = [0] * basis.n
    for v in basis.vectors:
        for l, x in enumerate(v):
            s[l] += x
    return sqrt(sum(x * x for x in s))


def volume_count_bound(basis: RelationBasis, radius: float) -> float:
    """Mesh-adjoining bound on the number of lattice points in a ball.

    Inflates the radius by the longest mesh vector, divides the resulting
    ball volume by the mesh volume sqrt(det Gram).
    """
    if radius < 0:
        raise InvalidParametersError(f"radius must be >= 0, got {radius}")
    r = basis.rank
    inflated = radius + mesh_max_length(basis)
    return exp(ball_volume_log(r, inflated) - 0.5 * log(basis.gram_det))


def _homogeneous_ldl(basis: RelationBasis, center, anchor):
    """Float LDL of the homogenized quadratic |anchor + B^T t - center|^2.

    The linear data (projections of anchor - center on the basis) is built
    exactly in rationals, then converted once to float.
    """
    r = basis.rank
    z = [Fraction(a) - c for a, c in zip(anchor, center)]
    w = []
    for v in basis.vectors:
        w.append(sum(zi for zi, x in zip(z, v) if x))
    s0 = sum(zi * zi for zi in z)
    a = [[0.0] * (r + 1) for _ in range(r + 1)]
    for i in range(r):
        for j in range(r):
            a[i][j] = float(basis.gram[i][j])
        a[i][r] = a[r][i] = float(w[i])
    a[r][r] = float(s0)
    d = [0.0] * (r + 1)
    lmat = [[0.0] * (r + 1) for _ in range(r + 1)]
    for i in range(r + 1):
        d[i] = a[i][i]
        if i == r:
            break
        if d[i] <= 0:
            raise InvalidParametersError("Gram matrix is not positive definite")
        for j in range(i + 1, r + 1):
            lmat[i][j] = a[i][j] / d[i]
        for j1 in range(i + 1, r + 1):
            for j2 in range(j1, r + 1):
                a[j1][j2] -= d[i] * lmat[i][j1] * lmat[i][j2]
                a[j2][j1] = a[j1][j2]
    return d, lmat


def _predicted_nodes(d, radius_sq: float) -> float:
    """Estimated enumeration nodes above level 0, from the LDL pivots."""
    r = len(d) - 1
    rad = sqrt(max(radius_sq - d[r], 0.0))
    work = 0.0
    logprod = 0.0
    for m in range(1, r):
        logprod += 0.5 * log(d[r - m])
        work += exp(ball_volume_log(m, rad) - logprod) if rad > 0 else 1.0
    return work


def enumerate_ball(basis: RelationBasis, query: BallQuery, anchor) -> int:
    """Exact number of points of anchor + lattice inside the query ball.

    Counts integer combinations t of the basis vectors with
    |anchor + sum t_i b_i - center| <= radius.  Boundary points are
    included.  Refuses (resource-limit) when the predicted enumeration
    workload exceeds 10^7 nodes.
    """
    if query.n != basis.n:
        raise InvalidParametersError("query modulus does not match basis")
    anchor = tuple(int(x) for x in anchor)
    if len(anchor) != basis.n:
        raise InvalidParametersError("anchor must have length n")
    r = basis.rank
    radius_sq = float(query.radius) ** 2
    d, lmat = _homogeneous_ldl(basis, query.center, anchor)
    work = _predicted_nodes(d, radius_sq)
    if work > _WORK_GUARD:
        raise ResourceLimitError(
            f"predicted enumeration workload {work:.3g} exceeds guard {_WORK_GUARD:g}"
        )
    rem0 = radius_sq - d[r]
    if rem0 < -_SLACK:
        return 0
    if r == 0:
        return 1
    t = [0] * r

    def count(i: int, off: float, rem: float) -> int:
        """Points with t[i+1..r-1] fixed; off is level i's offset, rem the squared radius left."""
        width = sqrt((rem + _SLACK) / d[i])
        lo = ceil(-off - width)
        hi = floor(-off + width)
        if i == 0:  # rank 1; rem >= -_SLACK, so the count is never negative
            return hi - lo + 1
        # the part of level i-1's offset that t[i+1..] fixes; each child adds step * t[i]
        below = lmat[i - 1]
        base = below[r]
        for j in range(i + 1, r):
            base += below[j] * t[j]
        step = below[i]
        di = d[i]
        total = 0
        if i == 1:
            d0 = d[0]
            for x in range(lo, hi + 1):
                y = x + off
                left = rem - di * y * y
                if left >= -_SLACK:
                    o = base + step * x
                    w = sqrt((left + _SLACK) / d0)
                    total += floor(w - o) - ceil(-w - o) + 1
            return total
        for x in range(lo, hi + 1):
            y = x + off
            left = rem - di * y * y
            if left >= -_SLACK:
                t[i] = x
                total += count(i - 1, base + step * x, left)
        return total

    return count(r - 1, lmat[r - 1][r], rem0)


def basis_to_json(basis: RelationBasis) -> dict:
    """Inspection record used by the CLI and regression fixtures."""
    return {
        "n": basis.n,
        "rank": basis.rank,
        "vectors": [list(v) for v in basis.vectors],
        "gram_det": basis.gram_det,
        "mesh_len": mesh_max_length(basis),
    }
