"""Evaluable probability bounds for cyclotomic divisibility of sparse polynomials.

`total_bound` sums per-range bounds over the moduli, and each displayed
inequality it uses is coded once, in the function its row calls.
`admissible_kernels` lists the squarefree kernels that the term-count test
allows; the sweeps in `cyclotomic` generate their moduli from them.  All
logs are natural; fractional factorials go through log-Gamma.  Values
reported in a breakdown are clipped to [0, 1] with the raw value retained,
since the underlying inequalities are asymptotic and raw values above 1
still carry trend information.
"""

from dataclasses import dataclass
from math import exp, isfinite, lgamma, log, pi, sqrt

from .errors import InvalidParametersError, ResourceLimitError
from .numtheory import primes_up_to, totient, totient_sieve

_KERNEL_ENUM_GUARD = 10**6
_MIDRANGE_SUM_GUARD = 10**6


@dataclass(frozen=True)
class BoundRow:
    label: str
    n_lo: int
    n_hi: float  # inf on the unbounded tail row
    value: float  # clipped to [0, 1]
    raw: float
    tag: str


@dataclass(frozen=True)
class BoundBreakdown:
    k: int
    rows: tuple[BoundRow, ...]
    total: float  # sum of the clipped row values


def admissible_kernels(k: int, limit: int = _KERNEL_ENUM_GUARD) -> tuple[int, ...]:
    """All squarefree m with 2 + sum_{p | m}(p - 2) <= k + 1, exhaustively.

    The prime condition forces p <= k + 1, so the enumeration is complete.
    More than `limit` members raise ResourceLimitError.
    """
    if k < 1:
        raise InvalidParametersError(f"term count must be >= 1, got {k}")
    primes = primes_up_to(k + 1)
    budget = k - 1
    members: list[int] = []

    def dfs(idx: int, prod: int, used: int):
        if len(members) > limit:
            raise ResourceLimitError("candidate kernel enumeration exceeds guard")
        members.append(prod)
        for j in range(idx, len(primes)):
            cost = primes[j] - 2
            if used + cost > budget:
                break  # primes ascend, later ones only cost more
            dfs(j + 1, prod * primes[j], used + cost)

    dfs(0, 1, 0)
    return tuple(sorted(members))


def max_admissible_kernel_log(k: int) -> float:
    """log of the largest admissible squarefree kernel, by 0/1 knapsack."""
    if k < 1:
        raise InvalidParametersError(f"term count must be >= 1, got {k}")
    primes = primes_up_to(k + 1)
    budget = k - 1
    best = [0.0] * (budget + 1)
    base = 0.0
    for p in primes:
        w = p - 2
        if w == 0:
            base += log(p)
            continue
        lp = log(p)
        for b in range(budget, w - 1, -1):
            cand = best[b - w] + lp
            if cand > best[b]:
                best[b] = cand
    return base + best[budget]


def default_exponent_constant(k: int) -> float:
    """c with max admissible kernel = exp(c * sqrt(k) * log k)."""
    if k < 2:
        raise InvalidParametersError("need k >= 2")
    return max_admissible_kernel_log(k) / (sqrt(k) * log(k))


def small_n_exact(k: int, n: int) -> float:
    """Leading-order P(the n-th cyclotomic polynomial divides F), n in 2..6.

    For n in {2, 3, 5} the event pins the residue counts to the single
    balanced atom, of magnitude sqrt(2/(pi k)), 1/k and 1/k^2.  For n in
    {4, 6} the event spans many atoms, and the value is the order
    (log k)^2/sqrt(k) or (log k)^4/sqrt(k).
    """
    if n not in (2, 3, 4, 5, 6):
        raise InvalidParametersError(f"n must be in 2..6, got {n}")
    if k < 1:
        raise InvalidParametersError(f"term count must be >= 1, got {k}")
    if n == 4:
        return log(k) ** 2 / sqrt(k)
    if n == 6:
        return log(k) ** 4 / sqrt(k)
    return {2: sqrt(2.0 / (pi * k)), 3: 1.0 / k, 5: 1.0 / (k * k)}[n]


def ball_volume_log(dim: int, radius: float) -> float:
    """log of the volume of a dim-dimensional Euclidean ball; -inf at radius <= 0."""
    if radius <= 0:
        return float("-inf")
    return dim * log(radius) + 0.5 * dim * log(pi) - lgamma(0.5 * dim + 1)


def lattice_ball_bound(k: int, n: int) -> float:
    """Central atom k! / Gamma(k/n + 1)^n / n^k times the lattice-point count
    of the concentration ball, clipped to [0, 1]."""
    if n < 7:
        raise InvalidParametersError(f"lattice ball bound needs n >= 7, got {n}")
    if k < 2:
        raise InvalidParametersError(f"need k >= 2, got {k}")
    rank = n - totient(n)
    v = lgamma(k + 1) - n * lgamma(k / n + 1) - k * log(n)
    v += ball_volume_log(rank, 2.1 * sqrt(k) * log(k))
    return exp(min(v, 0.0))


def chernoff_tail_bound(k: int) -> float:
    """Aggregate 2 k^2 exp(-(log k)^2 / 3) for the far-from-center event.

    The k^2 factor already covers every modulus in the sweep range.
    """
    if k < 3:
        raise InvalidParametersError(f"need k >= 3, got {k}")
    return 2.0 * k * k * exp(-log(k) ** 2 / 3.0)


def _midrange_atom(k: int, n: int, phi: int) -> float:
    """Heaviest-atom bound for one mid-range modulus n, given phi = phi(n).

    Caps the hit probability through the heaviest multinomial atom with
    m = k phi(n) / (2n) trials on phi(n) outcomes.
    """
    # Gaussian form above m = phi, log-Gamma form below, the larger at the tie
    m = k * phi / (2.0 * n)
    if m >= phi:
        log_atom = 0.5 * log(m) - (phi - 1) * 0.5 * log(2.0 * pi)
    if m <= phi:
        small = lgamma(m + 1.0) - m * log(phi) if phi > 1 else 0.0
        log_atom = small if m < phi else max(log_atom, small)
    return exp(log_atom) if log_atom < 700 else float("inf")


def total_bound(k: int, c: float | None = None) -> BoundBreakdown:
    """Assembled per-range upper bound on P(F has a cyclotomic factor).

    Rows partition the moduli: n = 2..6 individually, the lattice-ball and
    far-tail rows up to k/exp(sqrt(log k)), the mid-range up to
    exp(k/(24 log k)), and the closed-form 1/n^2 tail beyond.  Every row
    value is clipped to [0, 1]; the total sums the clipped rows.
    """
    if k < 8:
        raise InvalidParametersError(f"need k >= 8, got {k}")
    if c is not None and not isfinite(c):  # a nan or infinite c bounds nothing
        raise InvalidParametersError(f"kernel-size exponent constant must be finite, got {c}")
    lnk = log(k)
    b1 = max(6, int(k / exp(sqrt(lnk))))
    log_b2 = k / (24.0 * lnk)
    b2 = max(b1, int(exp(log_b2)) if log_b2 < 700 else _MIDRANGE_SUM_GUARD + b1 + 1)
    if b2 - b1 > _MIDRANGE_SUM_GUARD:
        raise ResourceLimitError(
            f"mid-range summation over {b2 - b1} moduli exceeds guard"
        )

    rows = []

    def add(label, lo, hi, raw, tag):
        rows.append(BoundRow(label, lo, hi, min(1.0, raw), raw, tag))

    for n, label in ((2, "balanced atom"), (3, "balanced atom"), (4, "order"),
                     (5, "balanced atom"), (6, "order")):
        add(f"n={n} {label}", n, n, small_n_exact(k, n), "small-n-exact")

    eq3_raw = sum(lattice_ball_bound(k, n) for n in range(7, b1 + 1))
    add("ball count, small moduli", 7, b1, eq3_raw, "eq3-lattice")
    add("far tail, small moduli", 7, b1, chernoff_tail_bound(k), "chernoff-tail")

    if b2 > b1:
        phi = totient_sieve(b2)
        mid_raw = exp(-k / (24.0 * lnk))
        for n in range(b1 + 1, b2 + 1):
            mid_raw += _midrange_atom(k, n, phi[n])
    else:
        mid_raw = 0.0
    add("mid-range moduli", b1 + 1, b2, mid_raw, "midrange-K")

    cc = default_exponent_constant(k) if c is None else c
    log_large = 3.0 * lnk + 2.0 * cc * sqrt(k) * lnk - log(b2)
    large_raw = exp(log_large) if log_large < 700 else float("inf")
    add("residue-split tail", b2 + 1, float("inf"), large_raw, "large-n-residue")

    total = sum(r.value for r in rows)
    return BoundBreakdown(k=k, rows=tuple(rows), total=total)


BOUNDS_CSV_HEADER = "k,range_label,n_lo,n_hi,bound,formula_tag"


def breakdown_to_csv(bb: BoundBreakdown) -> str:
    lines = [BOUNDS_CSV_HEADER]
    for r in bb.rows:
        hi = "inf" if r.n_hi == float("inf") else str(int(r.n_hi))
        lines.append(
            f"{bb.k},{r.label},{r.n_lo},{hi},{r.value!r},{r.tag}"
        )
    return "\n".join(lines) + "\n"
