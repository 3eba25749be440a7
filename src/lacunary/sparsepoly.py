"""Sparse 0,1-polynomials and the exact distribution of their residue counts.

A polynomial is 1 + x^{e_1} + ... + x^{e_k} with 0 < e_1 < ... < e_k <= N,
stored as the tuple of exponents plus the degree cap N.  Counting the
exponents by residue mod n gives a length-n vector that sums to k.  Both
the exact hypergeometric-style probability of a given count vector and its
multinomial idealization are computed in rational arithmetic.

Text format (shared by the CLI): one polynomial per line, ascending
exponents separated by whitespace, '#' starts a comment line; a line's degree
cap is its largest exponent.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Iterator, Sequence, TextIO

from .errors import InvalidParametersError, PolyParseError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class SparsePoly:
    """Exponent set of 1 + sum x^{e_i}; exponents strictly increasing in [1, N]."""

    exponents: tuple[int, ...]
    N: int

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(self.exponents))
        if self.N < 1:
            raise InvalidParametersError(f"degree cap must be positive, got {self.N}")
        prev = 0
        for e in self.exponents:
            if e <= prev:
                raise InvalidParametersError(
                    f"exponents must be strictly increasing and >= 1, got {self.exponents}"
                )
            prev = e
        if self.exponents and self.exponents[-1] > self.N:
            raise InvalidParametersError(
                f"exponent {self.exponents[-1]} exceeds degree cap {self.N}"
            )

    @property
    def k(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return self.exponents[-1] if self.exponents else 0


# --- deterministic sampling ------------------------------------------------
#
# A counter-based generator (splitmix64 finalizer over a per-trial key) makes
# every draw a pure function of (seed, index), so trials can run in any order
# or on any worker and still reproduce bit-identically.


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class _Stream:
    """64-bit output stream keyed by (seed, index)."""

    __slots__ = ("key", "counter")

    def __init__(self, seed: int, index: int):
        self.key = _mix64((seed & _MASK64) ^ _mix64((index + _GAMMA) & _MASK64))
        self.counter = 0

    def next64(self) -> int:
        self.counter += 1
        return _mix64((self.key + self.counter * _GAMMA) & _MASK64)

    def randbelow(self, m: int) -> int:
        # rejection keeps the draw exactly uniform on [0, m)
        limit = (1 << 64) - ((1 << 64) % m)
        while True:
            r = self.next64()
            if r < limit:
                return r % m
            if not limit:  # m > 2^64: no one-word draw is below the limit
                return self._randbelow_words(m)

    def _randbelow_words(self, m: int) -> int:
        """randbelow for m > 2^64: each draw joins the fewest words that reach m."""
        words = -(-(m - 1).bit_length() // 64)
        span = 1 << 64 * words
        limit = span - span % m
        while True:
            r = 0
            for _ in range(words):
                r = r << 64 | self.next64()
            if r < limit:
                return r % m


def sample_random(k: int, N: int, seed: int, index: int) -> SparsePoly:
    """Uniform random k-subset of [1, N] via Floyd's algorithm.

    Deterministic in (seed, index); trial order never matters.
    """
    if not 1 <= k <= N:
        raise InvalidParametersError(f"need 1 <= k <= N, got k={k}, N={N}")
    stream = _Stream(seed, index)
    chosen: set[int] = set()
    for j in range(N - k + 1, N + 1):
        t = stream.randbelow(j) + 1
        chosen.add(j if t in chosen else t)
    return SparsePoly(tuple(sorted(chosen)), N)


# --- exact distribution of residue counts -----------------------------------


def residue_class_size(j: int, n: int, N: int) -> int:
    """How many integers in [1, N] are congruent to j modulo n."""
    if j == 0:
        return N // n
    return (N - j) // n + 1 if j <= N else 0


def atom_probability(c: Sequence[int], k: int, n: int, N: int) -> Fraction:
    """Exact probability that a uniform k-subset of [1, N] realizes counts c.

    c counts the k exponents by residue mod n, so sum(c) = k.
    """
    c = tuple(c)
    if len(c) != n:
        raise InvalidParametersError(f"count vector must have length n={n}")
    if any(x < 0 for x in c):
        raise InvalidParametersError("counts must be non-negative")
    if sum(c) != k:
        raise InvalidParametersError(f"counts must sum to k={k}")
    if not 1 <= n <= N:
        raise InvalidParametersError(f"need 1 <= n <= N, got n={n}, N={N}")
    ways = 1
    for j, cj in enumerate(c):
        ways *= comb(residue_class_size(j, n, N), cj)
    return Fraction(ways, comb(N, k))


def multinomial_weight(c: Sequence[int], k: int, n: int) -> Fraction:
    """Weight of counts c under the multinomial with k trials, n outcomes."""
    c = tuple(c)
    if len(c) != n:
        raise InvalidParametersError(f"count vector must have length n={n}")
    if any(x < 0 for x in c):
        raise InvalidParametersError("counts must be non-negative")
    if sum(c) != k:
        raise InvalidParametersError(f"counts must sum to k={k}")
    coef = factorial(k)
    for cj in c:
        coef //= factorial(cj)
    return Fraction(coef, n**k)


# --- text format -------------------------------------------------------------


def parse_poly_line(line: str, lineno: int | None = None) -> SparsePoly:
    """Parse one line of the shared text format into a SparsePoly capped at its degree."""
    fields = line.split()
    try:
        exps = tuple(int(f) for f in fields)
    except ValueError:
        raise PolyParseError(f"non-integer exponent in line {lineno}: {line!r}", lineno)
    if not exps:
        raise PolyParseError(f"empty polynomial line {lineno}", lineno)
    try:
        return SparsePoly(exps, exps[-1])
    except InvalidParametersError as exc:
        raise PolyParseError(f"line {lineno}: {exc}", lineno) from exc


def read_poly_file(stream: TextIO | Iterable[str]) -> Iterator[tuple[int, SparsePoly]]:
    """Yield (lineno, SparsePoly) from a stream, skipping comments and blanks."""
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, parse_poly_line(line, lineno)


def format_poly(poly: SparsePoly) -> str:
    return " ".join(str(e) for e in poly.exponents)
