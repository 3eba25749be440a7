"""Basis, geometry, and exact point counting for the lattice of vanishing sums.

The integer combinations of n-th roots of unity that evaluate to zero form
a lattice of rank n - phi(n) inside Z^n (coordinates indexed by the powers
of a fixed primitive root).  build_basis is its only recursion.  It peels
off the largest prime p of n with its full power q, n = q n' (numtheory.peel),
and takes

* q copies of the cached basis for n': its image under zeta_{n'} -> zeta_n^q
  times zeta_n^{n' i} for i < q, with supports (n' i + q l) mod n;

* the products zeta_{n'}^t zeta_q^s (1 + zeta_p + ... + zeta_p^{p-1}) for
  t < phi(n') and s < q/p, with supports {(q t + (s + j q/p) n') mod n : j < p};
  for n = p^e (n' = 1) they are the whole basis.

Both kinds are relations by construction, so none is re-proved here: a copy
is a root of unity times the image of a relation for n' under a ring map,
and a product is zeta_n^x (1 + zeta_p + ... + zeta_p^{p-1}), a rotated
vanishing p-block.  A basis with more than 10^7 vector and Gram entries
(rank * n + rank^2) is refused before it is built.

Every vector produced is a 0,1-vector, so the Gram entry of two supports is
the number of residues they share, counted from a residue-to-support index
that touches only the pairs that share one; all pairwise inner products are
non-negative and the far corner of the fundamental mesh realizes the
longest vector in the mesh.

The Gram determinant is prod_{p | n} p^(phi(n)/(p-1)) = n^phi(n) / |disc Q(zeta_n)|
(Washington, Introduction to Cyclotomic Fields, Prop. 2.7), the squared
covolume of the lattice L(n) of vanishing sums, because the basis spans L(n):

(i) Spanning, by induction on the peel.  Coordinate x = n' i + q l mod n has
zeta_n^x = zeta_q^i zeta_{n'}^l; call the n' coordinates with one i column i
(the residue class of n' i mod q), and class s < step = q/p the p columns
s + j step.  Copy i lies in column i; product (t, s) meets class s.
Take c in L(n).  By the column criterion of cyclotomic._vanishes (the q-th
cyclotomic polynomial stays irreducible over Q(zeta_{n'})), the p columns of
each class s are, as elements of Z[zeta_{n'}], one and the same Y_s.  Write
Y_s = sum_{t < phi(n')} y_{s,t} zeta_{n'}^t in the power basis, a Z-basis.
Product (t, s) is the unit vector e_t in each column of class s, so
c - sum y_{s,t} product(t, s) has every column in L(n'), and the copies of
the basis for n' span those columns.  The base case is n' = 1: L(1) = 0.

(ii) The covolume.  The coordinates 0..phi-1 map Z^phi onto Z[zeta_n]
bijectively, so L(n) = {(-A t, t) : t in Z^(n - phi)}, with column k of A
the power-basis coordinates of zeta^(phi + k), and its Gram is I + A^T A.
Sylvester's determinant identity gives det(I + A^T A) = det(M M^T), with
M = [I | A] the coordinates of zeta^0..zeta^(n-1).  For the embedding matrix
V (rows sigma_i on the power basis), (V M)(V M)^* = n I, since
sum_{l < n} (sigma_i(zeta) / sigma_j(zeta))^l = n delta_ij.  So
det(M M^T) = n^phi / |det V|^2 = n^phi / |disc|.

A basis of a sublattice of index j would have j^2 times that determinant.
The tests check the closed form independently: by Bareiss on the whole Gram,
and by the Gram on the coordinates phi..n-1, whose determinant is 1 exactly
when the basis spans, since (ii) projects L(n) onto Z^(n - phi) bijectively.

Ball counting is exact in integers.  Scaled by c, the common denominator of
the center, every c^2 |anchor + B^T t - center|^2 is an integer, and a point
counts when it is at most M = floor(c^2 (radius^2 + slack)).  The count is the
total of a norm distribution {norm: count} keyed by the norms reached.  Vectors
with disjoint supports contribute independently, so the distribution of a set
of vectors is the convolution, truncated at M, of those of its classes linked
by shared coordinates (the theta series of an orthogonal sum is the product of
the parts' series); a single vector's is a one-dimensional walk.  Within one
linked class the residue structure above says what to enumerate: at depth j of
the peel chain n, n', ..., with q the prime power peeled there, the separators
are the vectors that meet more than one residue class mod q (that level's
products), while each copy lies in one class.  Once the separators'
coefficients are fixed the shift is exact, and the rest splits into copies
counted at depth j + 1.  Only separator coefficients are enumerated, by
Fincke-Pohst on a homogenized float LDL with the separators as its top levels;
floats only prune, with a slack toward inclusion, and every norm kept is exact.
Nothing depends on the basis order, and in a basis without this structure,
such as a unimodular mix of this one, every vector is a separator.  The
anchor is first moved by the lattice point nearest the real minimizer, so the
floats work near the center.  The 10^7 guard still predicts per-point
Fincke-Pohst nodes from the LDL of the whole basis, taken at the moved anchor.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, exp, floor, inf, isfinite, lcm, log, prod, sqrt

from .bounds import ball_volume_log
from .errors import InvalidParametersError, refuse_above
from .numtheory import factorize, peel, totient

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
        try:
            finite = isfinite(self.radius)
        except OverflowError:  # an integer beyond float range
            finite = False
        if not finite:
            raise InvalidParametersError(f"radius must be a finite float, got {self.radius}")
        if self.radius < 0:
            raise InvalidParametersError(f"radius must be >= 0, got {self.radius}")
        if len(self.center) != self.n:
            raise InvalidParametersError("center must have length n")


@lru_cache(maxsize=64)
def build_basis(n: int) -> RelationBasis:
    """Construct the recursive basis with exact Gram data for modulus n >= 2.

    Refuses (resource-limit) when rank * n + rank^2 exceeds 10^7 entries.
    """
    if n < 2:
        raise InvalidParametersError(f"modulus must be >= 2, got {n}")
    phi = totient(n)
    rank = n - phi
    refuse_above(rank * n + rank * rank, f"vector and Gram entries of the basis for n={n}")
    p, q, nprime = peel(n)
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
        gram_det=prod(p ** (phi // (p - 1)) for p, _ in factorize(n)),  # closed form: module docstring
    )


def mesh_max_length(basis: RelationBasis) -> float:
    """Length of the sum of all basis vectors.

    All pairwise inner products are non-negative, so the all-ones corner of
    the fundamental mesh is its longest element; |sum b_i|^2 = sum G_ij.
    """
    return sqrt(sum(map(sum, basis.gram)))


def volume_count_bound(basis: RelationBasis, radius: float) -> float:
    """Mesh-adjoining bound on the number of lattice points in a ball.

    Inflates the radius by the longest mesh vector, divides the resulting
    ball volume by the mesh volume sqrt(det Gram).
    """
    if not radius >= 0:  # nan compares false
        raise InvalidParametersError(f"radius must be >= 0, got {radius}")
    r = basis.rank
    try:
        inflated = radius + mesh_max_length(basis)
    except OverflowError:  # an integer radius beyond float range; log takes it exactly
        inflated = radius
    v = ball_volume_log(r, inflated) - 0.5 * log(basis.gram_det)
    return exp(v) if v < 700 else inf


def _homogeneous_ldl(gram, w, s0):
    """Float LDL of the homogenized quadratic t^T gram t + 2 w.t + s0.

    The data is exact (integer or rational) and converted once to float.  The
    homogenizing coordinate is last, so d[-1] is the minimum over real t.
    """
    r = len(gram)
    a = [[float(x) for x in row] + [float(wi)] for row, wi in zip(gram, w)]
    a.append([float(wi) for wi in w] + [float(s0)])
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
    """Estimated enumeration nodes above level 0, from the LDL pivots.

    A rank-1 basis has no level above 0, so its one line is counted instead.
    """
    r = len(d) - 1
    rad = sqrt(max(radius_sq - d[r], 0.0))
    work = 0.0
    logprod = 0.0
    for m in range(1, max(r, 2)):
        logprod += 0.5 * log(d[r - m])
        v = ball_volume_log(m, rad) - logprod if rad > 0 else 0.0
        work += exp(v) if v < 700 else inf
    return work


def _components(group, supports) -> list[list[int]]:
    """The classes of group linked by shared coordinates, in group order."""
    root = {i: i for i in group}

    def find(i):
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    owner = {}
    for i in group:
        for l, _ in supports[i]:
            root[find(owner.setdefault(l, i))] = find(i)
    classes = {}
    for i in group:
        classes.setdefault(find(i), []).append(i)
    return list(classes.values())


def _convolve(a: dict, b: dict, cap: int) -> dict:
    """Norm counts of independent sums, truncated at cap."""
    out = {}
    items = sorted(b.items())
    for va, ca in a.items():
        room = cap - va
        for vb, cb in items:
            if vb > room:
                break
            out[va + vb] = out.get(va + vb, 0) + ca * cb
    return out


def _line_counts(support, y, scale: int, cap: int) -> dict:
    """{norm: count} of sum_l (y_l + scale x_l t)^2 over integers t, norms <= cap.

    The norm is a convex quadratic in t, so the admissible t form an interval
    that contains floor or ceil of the real minimizer; walk out from there.
    """
    a = scale * scale * sum(x * x for _, x in support)
    b = 2 * scale * sum(y[l] * x for l, x in support)
    c = sum(y[l] * y[l] for l, _ in support)
    out = {}
    t0 = -b // (2 * a)
    for t, step in ((t0, -1), (t0 + 1, 1)):
        while (v := (a * t + b) * t + c) <= cap:
            out[v] = out.get(v, 0) + 1
            t += step
    return out


def _norm_counts(group, y, cap: int, depth: int, geometry) -> dict:
    """{norm: count} over t in Z^group of |y + scale B^T t|^2 on the group's coordinates.

    group is linked by shared coordinates.  Its separators are the vectors
    that meet more than one residue class mod the q of the peel chain at the
    first depth from depth on where there are any.  Their coefficients are
    enumerated with the float LDL, separators last, pruning with a slack
    toward inclusion; at each separator node the shift is exact and the
    remaining vectors split into groups counted independently at the next
    depth and convolved.
    """
    supports, gram, scale, chain = geometry
    if len(group) == 1:
        return _line_counts(supports[group[0]], y, scale, cap)
    # some depth has one: a vector in one class mod every q of the chain is a
    # single coordinate, and two linked such vectors would be parallel
    while not (seps := [i for i in group if len({l % chain[depth] for l, _ in supports[i]}) > 1]):
        depth += 1
    rest = [i for i in group if i not in seps]
    order = rest + seps
    m, k = len(order), len(rest)
    w = [scale * sum(y[l] * x for l, x in supports[i]) for i in order]
    covered = {l for i in group for l, _ in supports[i]}
    s0 = sum(y[l] * y[l] for l in covered)
    d, lmat = _homogeneous_ldl([[scale * scale * gram[i][j] for j in order] for i in order], w, s0)
    slack = _SLACK * (1 + cap + s0)  # float error grows with the magnitudes in the LDL
    parts = _components(rest, supports)
    alone = covered.difference(l for i in rest for l, _ in supports[i])
    t = [0] * m
    out = {}

    def node(i: int, off: float, rem: float) -> None:
        """Separator nodes with t[i+1..m-1] fixed; off is level i's offset, rem the budget left."""
        width = sqrt((rem + slack) / d[i])
        xs = range(ceil(-off - width), floor(-off + width) + 1)
        if i == k:  # the last separator: from here on every shift is exact
            for x in xs:
                if rem - d[i] * (x + off) ** 2 >= -slack:
                    t[i] = x
                    shift = list(y)
                    for s, ts in zip(seps, t[k:]):
                        for l, v in supports[s]:
                            shift[l] += scale * v * ts
                    c0 = sum(shift[l] * shift[l] for l in alone)
                    counts = _independent_sum(c0, parts, shift, cap, depth + 1, geometry)
                    for norm, c in counts.items():
                        out[norm] = out.get(norm, 0) + c
            return
        # the part of level i-1's offset that t[i+1..] fixes; each child adds step * t[i]
        below = lmat[i - 1]
        base = below[m] + sum(below[j] * t[j] for j in range(i + 1, m))
        step = below[i]
        for x in xs:
            left = rem - d[i] * (x + off) ** 2
            if left >= -slack:
                t[i] = x
                node(i - 1, base + step * x, left)

    if cap - d[m] >= -slack:
        node(m - 1, lmat[m - 1][m], cap - d[m])
    return out


def _independent_sum(c0: int, parts, y, cap: int, depth: int, geometry) -> dict:
    """Norm counts of c0 plus the norms of groups with disjoint coordinates, truncated at cap."""
    counts = {c0: 1} if c0 <= cap else {}
    for part in parts:
        if not counts:
            break
        more = _norm_counts(part, y, cap - min(counts), depth, geometry)
        refuse_above(len(counts) * len(more), "norm-count pairs")
        counts = _convolve(counts, more, cap)
    return counts


def enumerate_ball(basis: RelationBasis, query: BallQuery, anchor) -> int:
    """Exact number of points of anchor + lattice inside the query ball.

    Counts integer combinations t of the basis vectors with
    |anchor + sum t_i b_i - center| <= radius.  Boundary points are
    included.  Refuses (resource-limit) when the predicted enumeration
    nodes, or the norm-count pairs of one convolution, exceed 10^7.
    """
    if query.n != basis.n:
        raise InvalidParametersError("query modulus does not match basis")
    try:
        anchor = [Fraction(x) for x in anchor]
    except (TypeError, ValueError, OverflowError):
        raise InvalidParametersError("anchor entries must be integers") from None
    if any(x.denominator != 1 for x in anchor):
        raise InvalidParametersError("anchor entries must be integers")
    if len(anchor) != basis.n:
        raise InvalidParametersError("anchor must have length n")
    z = [x - c for x, c in zip(anchor, query.center)]

    def ldl(z):
        w = [sum(zi * x for zi, x in zip(z, v)) for v in basis.vectors]
        return _homogeneous_ldl(basis.gram, w, sum(zi * zi for zi in z))

    # move the anchor by the lattice point nearest the real minimizer, so the
    # guard and the floats that prune below work near the center whatever the
    # anchor: far out, d[-1] cancels catastrophically
    d, lmat = ldl(z)
    r = basis.rank
    near = [0.0] * r
    for i in range(r - 1, -1, -1):
        near[i] = -(lmat[i][r] + sum(lmat[i][j] * near[j] for j in range(i + 1, r)))
    if any(move := list(map(round, near))):
        for ti, v in zip(move, basis.vectors):
            if ti:
                z = [zl + ti * x for zl, x in zip(z, v)]
        d, _ = ldl(z)
    radius = float(query.radius)
    radius_sq = radius * radius  # overflows to inf, which the guard refuses
    refuse_above(_predicted_nodes(d, radius_sq), "ball enumeration nodes")
    # scaled by the common denominator D, every squared distance is an integer
    scale = lcm(*(zi.denominator for zi in z))
    cap = floor(scale * scale * Fraction(radius_sq + _SLACK))
    y = [int(scale * zi) for zi in z]
    supports = [tuple((l, x) for l, x in enumerate(v) if x) for v in basis.vectors]
    chain, m = [], basis.n
    while m > 1:
        _, q, m = peel(m)
        chain.append(q)
    geometry = (supports, basis.gram, scale, chain)
    covered = {l for s in supports for l, _ in s}
    c0 = sum(y[l] * y[l] for l in range(basis.n) if l not in covered)
    parts = _components(range(basis.rank), supports)
    return sum(_independent_sum(c0, parts, y, cap, 0, geometry).values())


def basis_to_json(basis: RelationBasis) -> dict:
    """Inspection record used by the CLI and regression fixtures."""
    return {
        "n": basis.n,
        "rank": basis.rank,
        "vectors": [list(v) for v in basis.vectors],
        "gram_det": basis.gram_det,
        "mesh_len": mesh_max_length(basis),
    }
