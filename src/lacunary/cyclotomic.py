"""Exact detection of cyclotomic divisors of sparse 0,1-polynomials.

Two independent algorithms decide whether the n-th cyclotomic polynomial
divides F.  The structural one decides everywhere; the dense one, which
builds Phi_d for every divisor d of n, is kept only as the tests' and the
benchmark's check of it:

* the dense route counts the terms of F by residue mod n (F modulo
  x^n - 1, the constant term on residue 0) and takes the exact integer
  remainder modulo the n-th cyclotomic polynomial;

* the structural route never builds the cyclotomic polynomial.  It works
  with the sparse exponent multiset directly: peel n = q n' with q = p^e
  the full power of the largest prime p of n (numtheory.peel).  With
  u n' + v q = 1, zeta_q = zeta_n^{u n'} and zeta_{n'} = zeta_n^{v q} are
  primitive and zeta_n^l = zeta_q^{l mod q} zeta_{n'}^{l mod n'}, so the
  sum is sum_{a < q} zeta_q^a X_a with columns X_a in Z[zeta_{n'}].  The
  q-th cyclotomic polynomial, sum_{t < p} x^{t q/p}, stays irreducible over
  Q(zeta_{n'}), so the sum vanishes exactly when, for each r < q/p, the p
  columns X_{r + t q/p} are equal (Lam-Leung, J. Algebra 224, 2000): each
  vanishes if one is zero, else each minus the smallest vanishes, a sum at
  modulus n' decided by recursion.  The base case n = 1 asks whether an
  integer sum vanishes.  A full class has p terms or more, so each level
  passes on at most twice its terms, whatever p, which is what makes
  whole-sweep experiments affordable.  The first-peel filter (a one-term
  column in a class short of a column) and the grouping into columns and
  classes depend on q alone, so a sweep runs them once per distinct q.

A sweep's range is exactly the moduli n with phi(n) <= N, the only ones
whose cyclotomic polynomial can divide a non-zero polynomial of degree N.
It can be pruned to moduli whose squarefree kernel survives the term-count
test (see bounds.admissible_kernels).  Sweeps never list the range: each
candidate is checked against it from its own factorisation.  A full sweep
builds no candidate past the range's last modulus, sweep_cap(N), which
comes from a branch and bound over prime powers; a pruned one none past
N prod p / (p - 1) over the primes p <= k + 1, since a (k+1)-smooth n has
n / phi(n) at most that.

Within the range, only moduli generated from F's own exponents are tested.
If the n-th cyclotomic polynomial divides F, the k + 1 roots zeta_n^t,
t in {0, e_1, ..., e_k}, sum to zero, and the sum splits into minimal
vanishing sub-sums.  The one holding the constant term has s <= k + 1
terms, so by Mann (Mathematika 12, 1965) its terms are m-th roots of unity
for a squarefree m, and by Conway-Jones (Acta Arith. 30, 1976)
2 + sum_{p | m} (p - 2) <= s: m is admissible for k.  Each other term
zeta_n^{e_j} of that sub-sum (a partner of the constant term) has order
n / gcd(n, e_j) dividing m, so admissible too, since admissibility passes
to divisors; and some partner's order is above 1, or the sub-sum would add
up to s.  So n = g * m' with g = gcd(n, e_j) and m' > 1 admissible and
prime to e_j / g.  The sweep builds these products, keeps those with
phi(g * m') <= N (and, for the pruned range, an admissible kernel) and
tests them in ascending order, so factor lists and early exits are those
of the whole range.

The guard refuses a sweep before it lists anything.  A full sweep is
refused on its range, about 1.9436 N moduli (an exact integer, so any N
has one), or on its cap, before any exponent is factored, since g may hold
any prime of e_j and factoring a whole exponent costs sqrt(e_j).  A pruned
modulus is (k+1)-smooth, so a pruned sweep factors only the (k+1)-smooth
part of each exponent, in O(k) steps, and is refused only when the
products it would build, the admissible kernels times the smooth divisors
over all exponents, pass the guard as well as the range and the cap.
"""

from collections import Counter
from collections.abc import Sequence
from functools import lru_cache
from math import gcd, inf, prod

from .bounds import admissible_kernels
from .errors import InvalidParametersError, refuse_above
from .numtheory import factorize, peel, primes_up_to, smooth_divisors, totient
from .sparsepoly import SparsePoly


# --- dense algorithm ---------------------------------------------------------


def _poly_mod(f: list[int], g: list[int]) -> list[int]:
    """Remainder of f modulo monic g, exact integer arithmetic."""
    f = list(f)
    dg = len(g) - 1
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i]
        if c:
            f[i] = 0
            for j in range(dg):
                f[i - dg + j] -= c * g[j]
    del f[dg:]
    return f


def _poly_divexact(f: list[int], g: list[int]) -> list[int]:
    """Exact quotient f / g for monic g; remainder must vanish."""
    f = list(f)
    dg = len(g) - 1
    dq = len(f) - 1 - dg
    q = [0] * (dq + 1)
    for i in range(dq, -1, -1):
        c = f[i + dg]
        q[i] = c
        if c:
            for j in range(dg + 1):
                f[i + j] -= c * g[j]
    if any(f):
        raise ArithmeticError("division was not exact")
    return q


@lru_cache(maxsize=512)  # recursion reaches only the divisors of n
def _cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, by dividing x^n - 1 by every lower cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    f = [0] * (n + 1)
    f[0], f[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            f = _poly_divexact(f, list(_cyclotomic_coeffs(d)))
    return tuple(f)


def divides_phi_dense(poly: SparsePoly, n: int) -> bool:
    """Dense check of the structural test: the residue counts of F mod x^n - 1,
    constant term included, reduced modulo Phi_n."""
    if n < 1:
        raise InvalidParametersError(f"modulus must be >= 1, got {n}")
    refuse_above(n, "residue counts")
    counts = [0] * n
    for e in (0,) + poly.exponents:
        counts[e % n] += 1
    return not any(_poly_mod(counts, list(_cyclotomic_coeffs(n))))


# --- structural algorithm ----------------------------------------------------


def _column_classes(keys, p: int, q: int) -> dict[int, list[list[int]]] | None:
    """The keys in columns by l mod q, and the columns in classes by l mod q/p.

    None when the first-peel filter rejects: a one-term column is not zero,
    so in a class short of a column (where every column must vanish) the sum
    cannot vanish; this rejects almost every (random polynomial, large
    modulus) pair after one pass over the keys.
    """
    step = q // p
    cols: dict[int, list[int]] = {}
    for l in keys:
        cols.setdefault(l % q, []).append(l)
    width: dict[int, int] = {}
    for a in cols:
        width[a % step] = width.get(a % step, 0) + 1
    classes: dict[int, list[list[int]]] = {}
    for a, col in cols.items():
        r = a % step
        if len(col) == 1 and width[r] < p:
            return None
        classes.setdefault(r, []).append(col)
    return classes


def _classes_vanish(
    vec: dict[int, int], p: int, nprime: int, classes: dict[int, list[list[int]]]
) -> bool:
    """Whether the sum vanishes, given its _column_classes at n = q n'.

    Each column is reduced to Z[zeta_{n'}] by l mod n'; a class vanishes
    when its p columns are equal, or, short of a column, when each is zero.
    """
    for group in classes.values():
        cols = []
        for keys in group:
            col: dict[int, int] = {}
            for l in keys:
                b = l % nprime
                nc = col.get(b, 0) + vec[l]
                if nc:
                    col[b] = nc
                else:
                    del col[b]
            if col:
                cols.append(col)
        if len(cols) == p:  # every column present: each must equal the smallest
            x0, *cols = sorted(cols, key=len)
            for x in cols:
                for b, c in x0.items():
                    nc = x.get(b, 0) - c
                    if nc:
                        x[b] = nc
                    else:
                        del x[b]
        if not all(_vanishes(x, nprime) for x in cols):
            return False
    return True


def _vanishes(vec: dict[int, int], n: int) -> bool:
    """Whether sum of vec[l] * zeta_n^l is zero, zeta_n primitive n-th root.

    Coefficients must be non-zero.  Keys need not be reduced mod n: the
    columns depend only on l mod q and l mod n', and congruent keys merge
    inside a column.
    """
    if len(vec) < 2:
        return not vec  # a single non-zero multiple of a root of unity
    if n == 1:
        return sum(vec.values()) == 0
    p, q, nprime = peel(n)
    classes = _column_classes(vec, p, q)
    return classes is not None and _classes_vanish(vec, p, nprime, classes)


def root_power_sum_is_zero(exponents, n: int, coefficients=None) -> bool:
    """Exact test of sum coeff_i * zeta_n^{e_i} == 0 for integer coefficients."""
    if n < 1:
        raise InvalidParametersError(f"modulus must be >= 1, got {n}")
    if coefficients is None:  # one pass: this is the per-trial cost of estimate_phi_n
        return _vanishes(Counter([e % n for e in exponents]), n)
    exponents, coefficients = list(exponents), list(coefficients)
    if len(coefficients) != len(exponents):
        raise InvalidParametersError("need exactly one coefficient per exponent")
    vec: dict[int, int] = {}
    for e, c in zip(exponents, coefficients):
        vec[e % n] = vec.get(e % n, 0) + c
    return _vanishes({l: c for l, c in vec.items() if c}, n)


def divides_phi_structural(poly: SparsePoly, n: int) -> bool:
    """Structural test via prime-power peeling; no dense polynomial is built."""
    return root_power_sum_is_zero((0,) + poly.exponents, n)


# --- candidate sweep -----------------------------------------------------------

# above this k the generated products cost more than testing the whole range;
# k = 120 admits 15,850 kernels, k = 121 admits 16,442
_GENERATE_MAX_K = 120


def _guard(N: int, cap: int | None, products: int | float = inf) -> None:
    """Refuse a sweep before anything is listed: its range holds about
    1.9436 N moduli, its cap bounds them, and so do the products it builds."""
    # F(1) = k + 1, so F is non-zero of degree <= N and Phi_n | F forces phi(n) <= N.
    # About zeta(2) zeta(3) / zeta(6) * N = 1.9436 N moduli qualify, counted
    # in integers and rounded up, so that any N has a count.
    refuse_above(min(-(-19436 * N // 10000), inf if cap is None else cap, products), "candidate moduli")


@lru_cache(maxsize=4)
def _candidate_moduli(N: int, k: int | None, cap: int | None) -> tuple[int, ...]:
    """Every n >= 2 with phi(n) <= N and n <= cap (if given), ascending.

    k=None lists them all (full sweep); otherwise only the n whose squarefree
    kernel is admissible for k terms (fs-pruned).  The list comes from a
    depth-first walk over prime powers.  Sweeps use it only for polynomials
    of more than _GENERATE_MAX_K terms, so the cache holds few ranges.
    """
    _guard(N, cap)
    top = inf if cap is None else cap
    budget = inf if k is None else k - 1  # the Conway-Jones cost sum_{p | n} (p - 2)
    primes = primes_up_to(min(N + 1, top) if k is None else min(N + 1, top, k + 1))
    found = []

    def walk(start: int, n: int, phi: int, cost: int) -> None:
        for i in range(start, len(primes)):
            p = primes[i]
            m, f = n * p, phi * (p - 1)
            if f > N or m > top or cost + p - 2 > budget:
                break  # all three only fail more as p grows
            while f <= N and m <= top:
                found.append(m)
                walk(i + 1, m, f, cost + p - 2)
                m, f = m * p, f * p

    walk(0, 1, 1, 0)
    return tuple(sorted(found))


# _largest_modulus walks within these primes for every N the guard lets
# through (N <= 5,145,091)
_WALK_LIMIT = 1024
_WALK_PRIMES = primes_up_to(_WALK_LIMIT)


@lru_cache(maxsize=256)
def _largest_modulus(N: int) -> int:
    """Largest n with phi(n) <= N, by branch and bound over prime powers.

    Extending a node n (totient phi) by primes from p_i on reaches at most
    N * (n / phi) * prod p / (p - 1) over the consecutive run p_i, p_{i+1},
    ... while phi * prod (p - 1) <= N: the j-th new prime is at least
    p_{i+j}, so no extension has more primes or a larger ratio.  The bound
    only falls as i grows, so a node stops at the first i it cannot beat.
    The walk indexes the primes to _WALK_LIMIT, sieved once; a walk that
    looks past them (a direct call far above the guard) sieves twice as far
    and starts again.
    """

    def walk(i: int, n: int, phi: int) -> None:
        nonlocal best
        while phi * (primes[i] - 1) <= N:
            f, num, j = phi, n * N, i
            while f * (primes[j] - 1) <= N:
                f, num, j = f * (primes[j] - 1), num * primes[j], j + 1
            if num // f <= best:
                return
            p = primes[i]
            m, f = n * p, phi * (p - 1)
            while f <= N:
                best = max(best, m)
                walk(i + 1, m, f)
                m, f = m * p, f * p
            i += 1

    limit, primes = _WALK_LIMIT, _WALK_PRIMES
    while True:
        best = 1
        try:
            walk(0, 1, 1)
            return best
        except IndexError:
            limit *= 2
            primes = primes_up_to(limit)


def sweep_cap(N: int) -> int:
    """Largest n with phi(n) <= N: the last modulus a full sweep tests."""
    if N < 1:
        raise InvalidParametersError(f"degree cap must be >= 1, got {N}")
    _guard(N, None)
    return _largest_modulus(N)


@lru_cache(maxsize=64)
def _smooth_ratio(k: int) -> tuple[int, int]:
    """(prod p, prod (p - 1)) over the primes p <= k + 1.

    A (k+1)-smooth n has n / phi(n) = prod_{p | n} p / (p - 1) at most their
    ratio, so phi(n) <= N puts it at most N times that ratio.
    """
    primes = primes_up_to(k + 1)
    return prod(primes), prod(p - 1 for p in primes)


@lru_cache(maxsize=64)
def _partner_kernels(k: int) -> dict[int, int] | None:
    """Admissible kernels for k terms as {m: phi(m)} ascending, or None above _GENERATE_MAX_K."""
    if k > _GENERATE_MAX_K:
        return None
    return {m: totient(m) for m in admissible_kernels(k)}


def _partner_moduli(poly: SparsePoly, k: int | None, cap: int | None) -> Sequence[int]:
    """The moduli of the sweep range that a partner of the constant term allows.

    Exactly the n of the range with n / gcd(n, e_j) admissible and above 1
    for some exponent e_j (see the module docstring), ascending.  Each is
    g * m with g = gcd(n, e_j), so m is prime to e_j / g; g divides n, so it
    uses only the primes of the range.  With d = gcd(g, m), m / d is an
    admissible kernel prime to g, so phi(g * m) = phi(g) * d * phi(m / d)
    and rad(g * m) = rad(g) * (m / d): the range test needs no range.
    """
    N = poly.N
    if k is None:
        _guard(N, cap)  # before factoring, which costs sqrt(e) per whole exponent
    if not poly.exponents:
        return ()  # F = 1 has no cyclotomic factor
    kernels = _partner_kernels(poly.k)
    if kernels is None:
        return _candidate_moduli(N, k, cap)
    # g divides a modulus, whose primes a pruned sweep keeps to k + 1 at most
    factors = [factorize(e, None if k is None else k + 1) for e in poly.exponents]
    if k is not None:
        _guard(N, cap, len(kernels) * sum(prod(a + 1 for _, a in f) for f in factors))
    # every modulus of the range has phi(n) <= N, and a pruned one is (k+1)-smooth
    if k is None:
        top = _largest_modulus(N)
    else:
        num, den = _smooth_ratio(k)
        top = N * num // den
    if cap is not None:
        top = min(top, cap)
    seen, moduli = set(), []
    for e, f in zip(poly.exponents, factors):
        for g, phi_g, rad_g in smooth_divisors(f):
            rest = e // g
            for m in kernels:
                n = g * m
                if n > top:
                    break
                if rest % m and n not in seen:
                    seen.add(n)
                    d = gcd(rad_g, m)
                    if phi_g * d * kernels[m // d] <= N and (k is None or rad_g * (m // d) in kernels):
                        moduli.append(n)
    moduli.sort()
    return moduli


def _factor_moduli(poly: SparsePoly, mode: str, cap: int | None):
    """The candidate moduli whose cyclotomic polynomial divides F, lazily.

    Each distinct q = peel(n)[1] is grouped (or rejected) once per sweep.
    """
    if mode not in ("full-sweep", "fs-pruned"):
        raise InvalidParametersError(f"unknown sweep mode {mode!r}")
    if cap is not None and cap < 1:
        raise InvalidParametersError(f"cap must be >= 1, got {cap}")
    k = poly.k if mode == "fs-pruned" else None
    vec = dict.fromkeys((0,) + poly.exponents, 1)
    classes_by_q: dict[int, dict[int, list[list[int]]] | None] = {}
    for n in _partner_moduli(poly, k, cap):
        p, q, nprime = peel(n)
        if q not in classes_by_q:
            classes_by_q[q] = _column_classes(vec, p, q)
        classes = classes_by_q[q]
        if classes is not None and _classes_vanish(vec, p, nprime, classes):
            yield n


def find_cyclotomic_factors(
    poly: SparsePoly, mode: str = "full-sweep", cap: int | None = None
) -> list[int]:
    """All n in the sweep range whose cyclotomic polynomial divides F.

    mode 'full-sweep' ranges over every n >= 2 with phi(n) <= N; 'fs-pruned'
    over only those whose squarefree kernel passes the term-count test for
    k terms.  A cap further limits both to n <= cap.  Both modes agree on
    whether any factor exists at all.  Only the moduli the exponents allow
    are tested, which finds the same factors as testing the whole range.
    """
    return list(_factor_moduli(poly, mode, cap))


def has_cyclotomic_factor(poly: SparsePoly, mode: str = "full-sweep", cap: int | None = None) -> bool:
    """Whether any cyclotomic polynomial divides F (early-exit sweep)."""
    return any(_factor_moduli(poly, mode, cap))  # every modulus is >= 2, so truthy
