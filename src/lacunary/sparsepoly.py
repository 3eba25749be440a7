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
from functools import lru_cache
from math import comb, factorial
from struct import Struct
from typing import Iterable, Iterator, Sequence, TextIO

from .errors import InvalidParametersError, PolyParseError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_LANES = 256  # words mixed together in one big-integer pass


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
#
# Because the n-th word depends only on the key and n, a trial's words can be
# mixed together: word i sits in bits [128 i, 128 i + 64) of one int, and each
# splitmix step runs once on the whole int.  The lanes cannot interfere.  A
# 64 x 64-bit product fits in its 128-bit lane, so no carry crosses into the
# next one, and every shift is masked back to the low 64 bits of each lane,
# which drops the bits it brings down from the lane above.
#
# Floyd's algorithm draws below j = N - k + 1, ..., N, and a one-word draw
# below j is rejected only when it is at least 2^64 - (2^64 mod j), a limit
# above 2^64 - N since 2^64 mod j < j <= N.  So when every word of a trial is
# below 2^64 - N, none is rejected, and word i is the draw for j = N - k + 1 + i
# exactly as in the sequential stream; otherwise the trial is drawn again,
# one word at a time, from the start of its stream.  Floyd substitutes j for
# a draw t only when t was already chosen, so distinct draws are the sample.


def _mix64(z: int, mask: int = _MASK64) -> int:
    """The splitmix64 finalizer, in every 64-bit lane that mask keeps."""
    z = (z ^ z >> 30 & mask) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ z >> 27 & mask) * 0x94D049BB133111EB & mask
    return z ^ z >> 31 & mask


@lru_cache(maxsize=32)
def _lane_constants(lanes: int) -> tuple[Struct, int, int, int]:
    """The layout of `lanes` words; ints with 1, i * gamma mod 2^64 and 2^64 - 1 in lane i."""
    layout = Struct("<" + "Q8x" * lanes)

    def pack(values):
        return int.from_bytes(layout.pack(*values), "little")

    ones = pack([1] * lanes)
    return layout, ones, pack([i * _GAMMA & _MASK64 for i in range(lanes)]), _MASK64 * ones


class _Stream:
    """64-bit output stream keyed by (seed, index)."""

    __slots__ = ("key", "counter")

    def __init__(self, seed: int, index: int):
        self.key = _mix64((seed & _MASK64) ^ _mix64((index + _GAMMA) & _MASK64))
        self.counter = 0

    def next64(self) -> int:
        self.counter += 1
        return _mix64((self.key + self.counter * _GAMMA) & _MASK64)

    def words(self, count: int) -> list[int]:
        """The next `count` values of next64, mixed _LANES at a time in one int."""
        start = self.counter
        self.counter += count
        out: list[int] = []
        for first in range(start, self.counter, _LANES):
            lanes = min(_LANES, self.counter - first)
            layout, ones, steps, mask = _lane_constants(lanes)
            z = _mix64(((self.key + (first + 1) * _GAMMA) & _MASK64) * ones + steps & mask, mask)
            out += layout.unpack(z.to_bytes(16 * lanes, "little"))
        return out

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
    js = range(N - k + 1, N + 1)
    accepted = (1 << 64) - N  # no word below it is rejected (see above)
    draws = _Stream(seed, index).words(k) if accepted > 0 else None
    if draws and max(draws) < accepted:
        ts = [r % j + 1 for r, j in zip(draws, js)]
    else:
        stream = _Stream(seed, index)
        ts = [stream.randbelow(j) + 1 for j in js]
    del draws
    chosen = set(ts)
    if len(chosen) < k:  # Floyd substituted: replay it on the same draws
        chosen = set()
        for j, t in zip(js, ts):
            chosen.add(j if t in chosen else t)
    return SparsePoly(tuple(sorted(chosen)), N)


# --- exact distribution of residue counts -----------------------------------


def residue_class_size(j: int, n: int, N: int) -> int:
    """How many integers in [1, N] are congruent to j modulo n."""
    if j == 0:
        return N // n
    return (N - j) // n + 1 if j <= N else 0


def _counts(c: Sequence[int], k: int, n: int) -> tuple[int, ...]:
    """c as a tuple, checked to count k items in n classes."""
    c = tuple(c)
    if len(c) != n:
        raise InvalidParametersError(f"count vector must have length n={n}")
    if any(x < 0 for x in c):
        raise InvalidParametersError("counts must be non-negative")
    if sum(c) != k:
        raise InvalidParametersError(f"counts must sum to k={k}")
    return c


def atom_probability(c: Sequence[int], k: int, n: int, N: int) -> Fraction:
    """Exact probability that a uniform k-subset of [1, N] realizes counts c.

    c counts the k exponents by residue mod n, so sum(c) = k.
    """
    c = _counts(c, k, n)
    if not 1 <= n <= N:
        raise InvalidParametersError(f"need 1 <= n <= N, got n={n}, N={N}")
    ways = 1
    for j, cj in enumerate(c):
        ways *= comb(residue_class_size(j, n, N), cj)
    return Fraction(ways, comb(N, k))


def multinomial_weight(c: Sequence[int], k: int, n: int) -> Fraction:
    """Weight of counts c under the multinomial with k trials, n outcomes."""
    c = _counts(c, k, n)
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
