"""Small number-theoretic helpers used across the package.

Everything here is exact integer arithmetic.  A full sweep factors each
exponent by trial division to its square root; a pruned sweep factors none.
"""

from functools import lru_cache

from .errors import InvalidParametersError


def primes_up_to(m: int) -> list[int]:
    """All primes <= m by a plain sieve."""
    if m < 2:
        return []
    sieve = bytearray([1]) * (m + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(m**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, m + 1, p)))
    return [i for i in range(m + 1) if sieve[i]]


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) with p ascending."""
    if n < 1:
        raise InvalidParametersError(f"cannot factor {n}")
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:  # what is left past the square root is a prime
        out.append((n, 1))
    return tuple(out)


def totient(n: int) -> int:
    r = n
    for p, _ in factorize(n):
        r -= r // p
    return r


def totient_sieve(m: int) -> tuple[int, ...]:
    """phi(0..m) as a tuple; phi(0) = 0 by convention."""
    phi = list(range(m + 1))
    for p in range(2, m + 1):
        if phi[p] == p:  # p prime
            for k in range(p, m + 1, p):
                phi[k] -= phi[k] // p
    if m >= 0:
        phi[0] = 0
    return tuple(phi)


# A sweep's working set is a few dozen moduli and their cofactors: 48 for a
# 20-polynomial detect file, 35 for one full sweep at N = 3 * 10^4, k = 13.
@lru_cache(maxsize=8192)
def peel(n: int) -> tuple[int, int, int]:
    """(p, q, n') for n >= 2: p the largest prime of n, q its full power, n = q n'.

    The one order in which the lattice and the vanishing test take n apart.
    """
    p, e = factorize(n)[-1]
    q = p**e
    return p, q, n // q
