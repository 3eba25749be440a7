"""Independent oracles for the test suite.

Everything here deliberately avoids the package's own algorithms: cyclotomic
polynomials come from the Moebius product, vanishing checks from 50-digit
numeric evaluation, totients from gcd counting, and the multinomial-model
divisibility probabilities from per-modulus combinatorial structure derived
by hand (single balanced atom for prime n, coordinate matching for prime
powers, pair-difference convolution for n = 2p), and Gram determinants from
fraction-free elimination of the whole matrix.  The one exception is
fincke_pohst_count, the library's former per-point ball count, which shares
the library's float LDL.
"""

from fractions import Fraction
from math import ceil, factorial, floor, gcd, sqrt

import mpmath

from lacunary.lattice import _SLACK, _homogeneous_ldl

mpmath.mp.dps = 50


def phi_brute(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def phi_trial(n: int) -> int:
    """Totient by trial-division factorization; fine up to ~10^7."""
    r = n
    d = 2
    while d * d <= n:
        if n % d == 0:
            r -= r // d
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        r -= r // n
    return r


def mobius(n: int) -> int:
    if n == 1:
        return 1
    m = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            m = -m
        d += 1
    if n > 1:
        m = -m
    return m


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divexact(a, b):
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = a[i + len(b) - 1] // b[-1]
        q[i] = c
        for j, y in enumerate(b):
            a[i + j] -= c * y
    if any(a):  # a raise, not an assert, so the oracle still checks under python -O
        raise ArithmeticError("inexact polynomial division")
    return q


def cyclotomic_via_mobius(n: int) -> list[int]:
    """Coefficients of the n-th cyclotomic polynomial via prod (x^{n/d}-1)^mu(d)."""
    num = [1]
    den = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            mu = mobius(d)
            poly = [-1] + [0] * (n // d - 1) + [1]
            if mu == 1:
                num = _mul(num, poly)
            elif mu == -1:
                den = _mul(den, poly)
    return _divexact(num, den)


def cyclotomic_divides(coeffs, n: int) -> bool:
    """Whether the n-th cyclotomic polynomial divides sum coeffs[i] x^i, by
    long division by the Moebius product (which is monic)."""
    phi = cyclotomic_via_mobius(n)
    f, d = list(coeffs), len(phi) - 1
    for i in range(len(f) - 1, d - 1, -1):
        c, f[i] = f[i], 0
        for j in range(d):
            f[i - d + j] -= c * phi[j]
    return not any(f[:d])


def root_sum_zero_numeric(exponents, n: int, coefficients=None) -> bool:
    """50-digit numeric check of sum coeff * zeta_n^e == 0."""
    if coefficients is None:
        coefficients = [1] * len(list(exponents))
    z = mpmath.mpf(0)
    total = mpmath.mpf(0)
    acc = mpmath.mpc(0)
    for e, c in zip(exponents, coefficients):
        acc += c * mpmath.e ** (2j * mpmath.pi * e / n)
        total += abs(c)
    if total == 0:
        return True
    return abs(acc) < mpmath.mpf(10) ** (-30)


# --- exact multinomial-model divisibility probabilities -----------------------


def _balanced_atom(k: int, n: int) -> Fraction:
    if k % n:
        return Fraction(0)
    m = k // n
    coef = factorial(k)
    for _ in range(n):
        coef //= factorial(m)
    return Fraction(coef, n**k)


def _matched_coordinates(k: int, n: int, copies: int) -> Fraction:
    """P(counts repeat in `copies` identical blocks of length n // copies)."""
    block = n // copies
    if k % copies:
        return Fraction(0)
    s = k // copies  # block sum
    total = 0
    kfac = factorial(k)

    def rec(i, left, denom):
        nonlocal total
        if i == block - 1:
            total += kfac // (denom * factorial(left) ** copies)
            return
        for v in range(left + 1):
            rec(i + 1, left - v, denom * factorial(v) ** copies)

    rec(0, s, 1)
    return Fraction(total, n**k)


def _pair_difference_dp(k: int, m: int) -> Fraction:
    """P over multinomial(k, 2m) that all m (even, odd) pair differences agree.

    Convolves, for each common difference t, the per-pair series
    sum_y z^y / ((y+t)! y!) and reads off the coefficient with total count k.
    """
    n = 2 * m
    total = Fraction(0)
    for t in range(-(k // m), k // m + 1):
        rem = k - m * t
        if rem < 0 or rem % 2:
            continue
        s = rem // 2  # sum of the y_b
        ylo = max(0, -t)
        if m * ylo > s:
            continue
        base = [Fraction(0)] * (s + 1)
        for y in range(ylo, s + 1):
            base[y] = Fraction(1, factorial(y + t) * factorial(y))
        acc = base
        for _ in range(m - 1):
            nxt = [Fraction(0)] * (s + 1)
            for i, a in enumerate(acc):
                if a:
                    for j in range(s + 1 - i):
                        if base[j]:
                            nxt[i + j] += a * base[j]
            acc = nxt
        total += acc[s]
    return Fraction(factorial(k), n**k) * total


def multinomial_relation_probability(k: int, n: int) -> Fraction:
    """Exact P(multinomial count vector evaluates to zero at a primitive root)."""
    if n in (2, 3, 5, 7):
        return _balanced_atom(k, n)
    if n == 4:
        return _matched_coordinates(k, 4, 2)
    if n == 8:
        return _matched_coordinates(k, 8, 2)
    if n == 9:
        return _matched_coordinates(k, 9, 3)
    if n == 6:
        return _pair_difference_dp(k, 3)
    if n == 10:
        return _pair_difference_dp(k, 5)
    raise ValueError(f"no oracle for n={n}")


def relation_probability_direct(k: int, n: int) -> Fraction:
    """Brute-force version: every composition, numeric vanishing check."""
    total = Fraction(0)

    def rec(i, left, counts):
        nonlocal total
        if i == n - 1:
            c = counts + [left]
            if root_sum_zero_numeric(range(n), n, c):
                coef = factorial(k)
                for x in c:
                    coef //= factorial(x)
                total += Fraction(coef, n**k)
            return
        for v in range(left + 1):
            rec(i + 1, left - v, counts + [v])

    rec(0, k, [])
    return total


def bareiss_det(mat: list[list[int]]) -> int:
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


def brute_sweep_max(N: int, search_to: int) -> int:
    return max(n for n in range(1, search_to + 1) if phi_trial(n) <= N)


# --- ball counting by per-point Fincke-Pohst recursion ---------------------------


def fincke_pohst_count(basis, query, anchor) -> int:
    """Points of anchor + lattice in the query ball, one level-1 node per few points.

    Coefficients are fixed from the last down to the first, with interval
    bounds from the float LDL and a 1e-9 slack toward inclusion; the level-1
    loop counts level 0 in closed form.  No workload guard: keep queries small.
    """
    z = [Fraction(a) - c for a, c in zip(anchor, query.center)]
    w = [sum(zi * x for zi, x in zip(z, v)) for v in basis.vectors]
    d, lmat = _homogeneous_ldl(basis.gram, w, sum(zi * zi for zi in z))
    r = basis.rank
    radius_sq = float(query.radius) ** 2
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
