"""Exact detection of cyclotomic divisors of sparse 0,1-polynomials.

Two independent algorithms decide whether the n-th cyclotomic polynomial
divides F.  The structural one decides everywhere; the dense one is kept
only as the tests' and the benchmark's check of it:

* the dense route counts the terms of F by residue mod n (F modulo
  x^n - 1, the constant term on residue 0) and multiplies the counts
  cyclically by prod_{p | n} (x^{n/p} - 1), which every other cyclotomic
  factor of x^n - 1 divides: the n-th cyclotomic polynomial divides F
  exactly when the product is zero mod x^n - 1;

* the structural route never builds the cyclotomic polynomial.  It works
  with the sparse exponent multiset directly: peel n = q n' with q = p^e
  the full power of the largest prime p of n (numtheory.peel).  By the
  Chinese remainder theorem (the cell map in _column_classes) the sum is
  sum_{a < q} zeta_q^a X_a with columns X_a in Z[zeta_{n'}].  The
  q-th cyclotomic polynomial, sum_{t < p} x^{t q/p}, stays irreducible over
  Q(zeta_{n'}), so the sum vanishes exactly when, for each r < q/p, the p
  columns X_{r + t q/p} are equal (Lam-Leung, J. Algebra 224, 2000): each
  vanishes if one is zero, else each minus the smallest vanishes, a sum at
  modulus n' decided by recursion.  Each class is first checked by its
  column weights (see Weights below), which decide it at n' = 1.  A full
  class has p terms or more, so each level passes on at most twice its
  terms, whatever p, which is what makes whole-sweep experiments
  affordable.  The first-peel filter (a one-term
  column in a class short of a column) and the grouping into columns and
  classes depend on q alone, so a sweep runs them once per distinct q.

A sweep's range is exactly the moduli n with phi(n) <= N, the only ones
whose cyclotomic polynomial can divide a non-zero polynomial of degree N.
It can be pruned to moduli whose squarefree kernel survives the term-count
test (see bounds.admissible_kernels).  The range's last modulus,
sweep_cap(N), comes from a branch and bound over prime powers, but no sweep
lists the range: one depth-first walk over prime powers builds only the
moduli that F's first-peel filter allows.  A cap takes no part in the
sweep: it only cuts the ascending factor list.

The first-peel filter holds at every prime power of n, not only the
largest.  For p^v || n, n = p^v n'', the p^v-th cyclotomic polynomial stays
irreducible over Q(zeta_{n''}), so the column criterion holds for that split
too: if the filter rejects q = p^v, the n-th cyclotomic polynomial does not
divide F.  The filter is monotone in v: a one-term column {l} in a class
short of a column at p^v is alone again at p^{v+1}, in a class of one
column.  So the powers of p that pass form a prefix p, p^2, ..., p^{a_p},
checked once per sweep.  The classes at p^{v+1} are the columns at p^v, so
a passing level with a one-key column is the last: that key is alone in
its class one level up, and the filter is not run there.  Above k + 1 no
class holds p columns, so there p passes only if it divides some e_j.

Weights.  The map zeta_{n'} -> 1 is a ring map from Z[zeta_{n'}] onto
Z / Phi_{n'}(1), and Phi_{n'}(1) is 0 at n' = 1, r at n' = r^w and 1 at
every other n'.  A column's image is its weight, the sum of its
coefficients, which in a sweep is its length.  Equal columns have equal
images and a zero column has image 0, so a full class needs its p weights
to agree mod Phi_{n'}(1), and a short class needs each weight to be 0 mod
it.  At n' = 1 a column is its weight, so that decides the class; at a
prime power n' it can only reject; at a composite n' it says nothing.  It
builds no column, and in a sweep it rejects most candidates.

One event.  Some cyclotomic polynomial of the full range divides F exactly
when one of the pruned range does, so the any-factor event has one
generator, the pruned sweep.  The pruned moduli are among the full ones,
which gives one way.  Conversely let the n-th cyclotomic polynomial divide
F and split the sum of zeta_n^t, t in {0, e_1, ..., e_k}, into minimal
vanishing sub-sums P_1, ..., P_s.  By Mann
(Mathematika 12, 1965) and Conway-Jones (Acta Arith. 30, 1976) each P_i is
zeta_n^{t_i} times a sum of m_i-th roots of unity, with m_i squarefree (the
least such), m_i | n and
2 + sum_{p | m_i} (p - 2) <= |P_i|, so the exponents in P_i agree mod
n / m_i.  Let M = lcm(m_i) and n' = prod_{p | M} p^{v_p(n)}, a divisor of n
above 1.  Then zeta_{n'}^{n / m_i} has order exactly m_i, so each P_i still
vanishes with zeta_{n'} in place of zeta_n: it is a rotation of a Galois
conjugate of the same sum, and the n'-th cyclotomic polynomial divides F.
Its kernel M is admissible for k, since
2 + sum_{p | M} (p - 2) <= 2 + sum_i (|P_i| - 2) <= k + 1, and n' | n gives
phi(n') <= phi(n) <= N; as n' <= n, the modes agree under a cap too.

The walk extends n by the passing powers of each prime in ascending order.
It stops on phi(n) > N and, for the pruned range, on the cost
sum_{p | n} (p - 2) > k - 1.  Every node is tested, in ascending order, on
the classes the filter kept for q = peel(n)[1], so factor lists and early
exits are those of the whole range.

The guard refuses a sweep before the filter runs and again before the walk.
A full sweep must factor its exponents to find the primes above k + 1 that
divide one, so it is first refused on the trial divisions, the sum over the
exponents of isqrt(e_j).  Every sweep is then refused on its first-peel
key visits, k + 1 for each prime the filter tries.  Once the filter has
kept the passing powers of each prime, it refuses on the lesser of two
counts of candidate moduli: the range, about 1.9436 N moduli (an exact
integer, so any N has one), and the walk's nodes.  A node takes at most one
passing power of each prime, so a walk has at most prod(1 + a_p) nodes over
the primes p with a_p passing powers, in either mode.
"""

from collections import Counter
from functools import lru_cache
from itertools import chain
from math import inf, isqrt, prod

from .errors import InvalidParametersError, refuse_above
from .numtheory import factorize, peel, primes_up_to
from .sparsepoly import SparsePoly


# --- dense algorithm ---------------------------------------------------------


def divides_phi_dense(poly: SparsePoly, n: int) -> bool:
    """Dense check of the structural test: the residue counts C of F mod
    x^n - 1, constant term included, times the kernel K = prod_{p | n} (x^{n/p} - 1).

    x^n - 1 = prod_{d | n} Phi_d is squarefree.  Every proper divisor d of n
    divides some n/p, so Phi_d divides K, and Phi_n divides none of K's
    factors.  So Phi_n | C exactly when x^n - 1 divides C K, that is when C K
    reduced mod x^n - 1 is zero: one cyclic product per prime of n, O(n omega(n)).
    """
    if n < 1:
        raise InvalidParametersError(f"modulus must be >= 1, got {n}")
    refuse_above(n, "residue counts")
    counts = [0] * n
    for e in (0,) + poly.exponents:
        counts[e % n] += 1
    for p, _ in factorize(n):
        m = n // p
        counts = [counts[i - m] - counts[i] for i in range(n)]
    return not any(counts)


# --- structural algorithm ----------------------------------------------------


def _column_classes(keys, p: int, q: int) -> dict[int, list[list[int]]] | None:
    """The keys in columns by l mod q, and the columns in classes by l mod q/p.

    For n = q n' with q = p^e prime to n', take u n' + v q = 1: then
    zeta_q = zeta_n^{u n'} and zeta_{n'} = zeta_n^{v q} are primitive and
    zeta_n^l = zeta_q^{l mod q} zeta_{n'}^{l mod n'}.  So key l sits in
    column l mod q, and in cell l mod n' of that column's image in
    Z[zeta_{n'}].  Column a is in class a mod q/p with the p columns
    a + t q/p, t < p, which must be equal for the sum to vanish (Lam-Leung,
    see the module docstring).  The classes at q p are the columns at q.

    None when the first-peel filter rejects: a one-term column is not zero,
    so in a class short of a column (where every column must vanish) the sum
    cannot vanish; this rejects almost every (random polynomial, large
    modulus) pair after one pass over the keys.
    """
    step = q // p
    cols: dict[int, list[int]] = {}
    for l in keys:
        cols.setdefault(l % q, []).append(l)
    classes: dict[int, list[list[int]]] = {}
    for a, col in cols.items():
        classes.setdefault(a % step, []).append(col)
    for group in classes.values():
        if len(group) < p and 1 in map(len, group):
            return None
    return classes


def _classes_vanish(
    vec: dict[int, int], weigh, p: int, nprime: int, classes: dict[int, list[list[int]]]
) -> bool:
    """Whether the sum vanishes, given its _column_classes at n = q n'.

    Each column is reduced to Z[zeta_{n'}] by l mod n'; a class vanishes
    when its p columns are equal, or, short of a column, when each is zero.
    First, weigh(keys), the sum of a column's coefficients, must agree
    across a class mod m = Phi_{n'}(1), and be 0 mod m in a class short of
    a column (see "Weights" in the module docstring); this builds no
    column, and at n' = 1 it is the whole test.
    """
    if nprime == 1:
        m = 0
    else:
        r, rw, _ = peel(nprime)
        m = r if rw == nprime else 1
    if m != 1:  # mod 1 every weight agrees
        for group in classes.values():
            weights = {w % m if m else w for w in map(weigh, group)}
            if len(group) < p:
                weights.add(0)  # an absent column weighs 0
            if len(weights) > 1:
                return False
        if not m:
            return True  # in Z a column is its weight
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
    if classes is None:
        return False
    return _classes_vanish(vec, lambda keys: sum(map(vec.__getitem__, keys)), p, nprime, classes)


def divides_phi_structural(poly: SparsePoly, n: int) -> bool:
    """Structural test via prime-power peeling: whether the roots zeta_n^t,
    t in {0, e_1, ..., e_k}, sum to zero.  No dense polynomial is built."""
    if n < 1:
        raise InvalidParametersError(f"modulus must be >= 1, got {n}")
    # one pass: this is the per-trial cost of estimate_phi_n
    return _vanishes(Counter([e % n for e in (0,) + poly.exponents]), n)


# --- candidate sweep -----------------------------------------------------------

# the whole range, every n with phi(n) <= N; the range pruned to admissible kernels
SWEEP_MODES = ("full-sweep", "fs-pruned")


def _guard(N: int, nodes: int | float = inf) -> None:
    """Refuse a sweep before anything is listed: its range holds about
    1.9436 N moduli, and its walk's nodes bound them too."""
    # F(1) = k + 1, so F is non-zero of degree <= N and Phi_n | F forces phi(n) <= N.
    # About zeta(2) zeta(3) / zeta(6) * N = 1.9436 N moduli qualify, counted
    # in integers and rounded up, so that any N has a count.
    refuse_above(min(-(-19436 * N // 10000), nodes), "candidate moduli")


@lru_cache(maxsize=4)
def _candidate_moduli(N: int, k: int | None) -> tuple[int, ...]:
    """Every n >= 2 with phi(n) <= N, ascending.

    k=None lists them all (full sweep); otherwise only the n whose squarefree
    kernel is admissible for k terms (fs-pruned).  The list comes from a
    depth-first walk over prime powers.  No sweep lists its range: this is
    the tests' reference for it.
    """
    _guard(N)
    budget = inf if k is None else k - 1  # the Conway-Jones cost sum_{p | n} (p - 2)
    primes = primes_up_to(N + 1 if k is None else min(N + 1, k + 1))
    found = []

    def walk(start: int, n: int, phi: int, cost: int) -> None:
        for i in range(start, len(primes)):
            p = primes[i]
            m, f = n * p, phi * (p - 1)
            if f > N or cost + p - 2 > budget:
                break  # both only fail more as p grows
            while f <= N:
                found.append(m)
                walk(i + 1, m, f, cost + p - 2)
                m, f = m * p, f * p

    walk(0, 1, 1, 0)
    return tuple(sorted(found))


# _largest_modulus walks within these primes for every N up to 10^9, far
# above the guard's 5,145,091
_WALK_PRIMES = primes_up_to(1024)


@lru_cache(maxsize=256)
def _largest_modulus(N: int) -> int:
    """Largest n with phi(n) <= N, by branch and bound over prime powers.

    Extending a node n (totient phi) by primes from p_i on reaches at most
    N * (n / phi) * prod p / (p - 1) over the consecutive run p_i, p_{i+1},
    ... while phi * prod (p - 1) <= N: the j-th new prime is at least
    p_{i+j}, so no extension has more primes or a larger ratio.  The bound
    only falls as i grows, so a node stops at the first i it cannot beat.
    """
    primes, best = _WALK_PRIMES, 1

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

    walk(0, 1, 1)
    return best


def sweep_cap(N: int) -> int:
    """Largest n with phi(n) <= N: the last modulus a full sweep tests."""
    if N < 1:
        raise InvalidParametersError(f"degree cap must be >= 1, got {N}")
    _guard(N)
    return _largest_modulus(N)


def _sweep_moduli(poly: SparsePoly, k: int | None) -> tuple[list[int], dict[int, dict[int, list[list[int]]]]]:
    """The moduli a sweep tests, ascending, and the first-peel classes of
    every prime power p^v they may hold, by q = p^v.

    Exactly the n of the range that pass the first-peel filter at each
    p^v || n (see the module docstring), built by one depth-first walk that
    extends n by the passing powers of each prime in ascending order.
    """
    N = poly.N
    if not poly.exponents:
        return [], {}  # F = 1 has no cyclotomic factor
    budget = inf if k is None else k - 1  # the Conway-Jones cost sum_{p | n} (p - 2)
    # above k + 1 a class holds fewer than p columns, so p passes only if it
    # divides an exponent; a pruned modulus is (k+1)-smooth.  As k <= N and
    # every e_j <= N, each prime tried has phi(p) <= N.
    primes = primes_up_to(poly.k + 1)
    if k is None:
        refuse_above(sum(isqrt(e) for e in poly.exponents), "trial divisions")
        primes = sorted(set(primes).union(p for e in poly.exponents for p, _ in factorize(e)))
    refuse_above((poly.k + 1) * len(primes), "first-peel key visits")
    keys = (0,) + poly.exponents
    classes_by_q: dict[int, dict[int, list[list[int]]]] = {}
    powers = []  # (p, its passing powers p, p^2, ...)
    for p in primes:
        q, qs = p, []
        # the filter runs at most up to p^(m+1), m the most times p divides an
        # exponent: column 0 there holds only the constant term, a lone key
        while q - q // p <= N:
            classes = _column_classes(keys, p, q)
            if classes is None:
                break  # a one-term column stays alone in its class at every higher power
            classes_by_q[q] = classes
            qs.append(q)
            if 1 in map(len, chain.from_iterable(classes.values())):
                break  # that key is alone in its class at q p, whose classes are these columns
            q *= p
        if qs:
            powers.append((p, qs))
    # a node takes at most one passing power of each prime
    _guard(N, prod(len(qs) + 1 for _, qs in powers))
    found = []

    def walk(start: int, n: int, phi: int, cost: int) -> None:
        for i in range(start, len(powers)):
            p, qs = powers[i]
            if phi * (p - 1) > N or cost + p - 2 > budget:
                break  # both only fail more as p grows
            for q in qs:
                m, f = n * q, phi * (q - q // p)
                if f > N:
                    break
                found.append(m)
                walk(i + 1, m, f, cost + p - 2)

    walk(0, 1, 1, 0)
    found.sort()
    return found, classes_by_q


def _factor_moduli(poly: SparsePoly, mode: str, cap: int | None):
    """The candidate moduli up to the cap whose cyclotomic polynomial divides F, lazily.

    The classes of each q = peel(n)[1] come from the walk's filter.
    """
    if mode not in SWEEP_MODES:
        raise InvalidParametersError(f"unknown sweep mode {mode!r}")
    if cap is not None and cap < 1:
        raise InvalidParametersError(f"cap must be >= 1, got {cap}")
    moduli, classes_by_q = _sweep_moduli(poly, poly.k if mode == "fs-pruned" else None)
    vec = dict.fromkeys((0,) + poly.exponents, 1)
    for n in moduli:
        if cap is not None and n > cap:
            return  # the moduli ascend
        p, q, nprime = peel(n)
        if _classes_vanish(vec, len, p, nprime, classes_by_q[q]):  # a column weighs its length
            yield n


def find_cyclotomic_factors(
    poly: SparsePoly, mode: str = "full-sweep", cap: int | None = None
) -> list[int]:
    """All n in the sweep range whose cyclotomic polynomial divides F.

    mode 'full-sweep' ranges over every n >= 2 with phi(n) <= N; 'fs-pruned'
    over only those whose squarefree kernel passes the term-count test for
    k terms.  A cap cuts the list at n <= cap; the sweep, and so its
    refusal, does not depend on it.  Both modes agree on whether any factor
    exists at all (see "One event" in the module docstring), so they differ
    only in the list.  Only the moduli the exponents allow are tested, which
    finds the same factors as testing the whole range.
    """
    return list(_factor_moduli(poly, mode, cap))


def has_cyclotomic_factor(poly: SparsePoly, mode: str = "full-sweep", cap: int | None = None) -> bool:
    """Whether any cyclotomic polynomial, of n <= cap if given, divides F (early-exit sweep)."""
    return any(_factor_moduli(poly, mode, cap))  # every modulus is >= 2, so truthy
