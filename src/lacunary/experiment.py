"""Seeded Monte Carlo and exhaustive estimation of cyclotomic-divisor events.

Every trial is a pure function of (seed, index), so hit counts are exact
integer sums that do not depend on execution order or worker count.
Estimates carry Wilson 95% intervals, which stay honest near 0 and 1
where most of these probabilities live.
"""

import multiprocessing
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import sqrt

from .cyclotomic import SWEEP_MODES, divides_phi_structural, has_cyclotomic_factor
from .errors import InvalidParametersError, refuse_above
from .sparsepoly import SparsePoly, sample_random

_PARALLEL_MIN_TRIALS = 256


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of one estimation run; exhaustive runs carry the exact value."""

    k: int
    N: int
    n: int | None
    trials: int
    hits: int
    estimate: float
    ci_low: float
    ci_high: float
    seed: int
    mode: str  # 'monte-carlo' or 'exhaustive'
    sweep_mode: str | None = None
    exact_value: Fraction | None = None

    @property
    def ci_half_width(self) -> float:
        return 0.5 * (self.ci_high - self.ci_low)


def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if trials < 1 or not 0 <= hits <= trials:
        raise InvalidParametersError("need 0 <= hits <= trials, trials >= 1")
    z = 1.959963984540054  # the 97.5% quantile of the standard normal
    p = hits / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    low = 0.0 if hits == 0 else max(0.0, center - half)
    high = 1.0 if hits == trials else min(1.0, center + half)
    return low, high


def _hit(poly: SparsePoly, n: int | None) -> bool:
    """The measured event: Phi_n | F for a given n, else any cyclotomic factor.

    Both sweep modes decide the any-factor event alike (see the cyclotomic
    module docstring), so it is always decided by the pruned sweep, and the
    mode is only the report's label.
    """
    if n is not None:
        return divides_phi_structural(poly, n)
    return has_cyclotomic_factor(poly, "fs-pruned")


def _range_hits(args) -> int:
    k, N, n, seed, lo, hi = args
    hits = 0
    for idx in range(lo, hi):
        if _hit(sample_random(k, N, seed, idx), n):
            hits += 1
    return hits


def _run_chunked(events: list[tuple], trials: int, workers: int) -> list[int]:
    """Hits per event (k, N, n, seed) over trials 0..trials-1.

    Each event's trials split into `workers` chunks, or one per trial if
    there are fewer trials; all chunks of all events share one pool of at
    most nproc processes.
    """
    chunks = min(workers, trials)
    bounds = [trials * i // chunks for i in range(chunks + 1)]
    spans = list(zip(bounds, bounds[1:]))
    jobs = [event + span for event in events for span in spans]
    if len(spans) <= 1 or trials < _PARALLEL_MIN_TRIALS:
        hits = [_range_hits(job) for job in jobs]
    else:
        try:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(min(len(jobs), os.cpu_count() or 1)) as pool:
                hits = pool.map(_range_hits, jobs)
        except (OSError, ValueError):
            hits = [_range_hits(job) for job in jobs]
    per = len(spans)
    return [sum(hits[i : i + per]) for i in range(0, len(hits), per)]


def _estimates(events: list[tuple], trials: int, seed: int, workers: int) -> list[EstimateReport]:
    """One Monte Carlo report per event (k, N, n, mode), mode its label."""
    for k, _, n, mode in events:
        if n is None and mode not in SWEEP_MODES:
            raise InvalidParametersError(f"unknown sweep mode {mode!r}")
        refuse_above(k, "exponents per sampled polynomial")  # each holds k exponents
    hits = _run_chunked([(k, N, n, seed) for k, N, n, _ in events], trials, workers)
    reports = []
    for (k, N, n, mode), h in zip(events, hits):
        low, high = wilson_interval(h, trials)
        reports.append(EstimateReport(
            k=k, N=N, n=n, trials=trials, hits=h, estimate=h / trials,
            ci_low=low, ci_high=high, seed=seed, mode="monte-carlo",
            sweep_mode=mode,
        ))
    return reports


def estimate_phi_n(
    k: int, N: int, n: int, trials: int, seed: int, workers: int = 1
) -> EstimateReport:
    """Monte Carlo estimate of P(the n-th cyclotomic polynomial divides F)."""
    if not 1 <= k <= N or trials < 1 or n < 1 or workers < 1:
        raise InvalidParametersError("need 1 <= k <= N, n >= 1, trials >= 1, workers >= 1")
    return _estimates([(k, N, n, None)], trials, seed, workers)[0]


def estimate_any_cyclotomic(
    k: int,
    N: int,
    trials: int,
    seed: int,
    mode: str = "full-sweep",
    workers: int = 1,
) -> EstimateReport:
    """Monte Carlo estimate of P(F has any cyclotomic factor), labelled by a sweep mode."""
    if not 1 <= k <= N or trials < 1 or workers < 1:
        raise InvalidParametersError("need 1 <= k <= N, trials >= 1, workers >= 1")
    return _estimates([(k, N, None, mode)], trials, seed, workers)[0]


def exhaustive_enumeration(
    k: int, N: int, n: int | None = None, mode: str | None = None
) -> EstimateReport:
    """Exact probability by enumerating every exponent subset in lex order.

    n selects the single-modulus event, which takes no sweep mode;
    n=None means 'any cyclotomic factor', labelled by mode (default 'full-sweep').
    """
    if not 1 <= k <= N:
        raise InvalidParametersError(f"need 1 <= k <= N, got k={k}, N={N}")
    if n is None:
        mode = mode or "full-sweep"
        if mode not in SWEEP_MODES:
            raise InvalidParametersError(f"unknown sweep mode {mode!r}")
    elif n < 1 or mode is not None:
        raise InvalidParametersError(f"need n >= 1 and no sweep mode, got n={n}, mode={mode}")
    # C(N, i) grows with i up to N / 2, so C(N, min(k, N - k)) is built one
    # factor at a time and refused as soon as a partial count passes the guard
    total = 1
    for i in range(min(k, N - k)):
        total = total * (N - i) // (i + 1)
        refuse_above(total, f"subsets of {k} of [1, {N}] (a lower bound)")
    hits = 0
    for exps in combinations(range(1, N + 1), k):
        if _hit(SparsePoly(exps, N), n):
            hits += 1
    exact = Fraction(hits, total)
    est = float(exact)
    return EstimateReport(
        k=k, N=N, n=n, trials=total, hits=hits, estimate=est,
        ci_low=est, ci_high=est, seed=0, mode="exhaustive",
        sweep_mode=mode, exact_value=exact,
    )


def decay_series(
    k_list, N: int, trials: int, seed: int, mode: str = "fs-pruned", workers: int = 1
) -> list[EstimateReport]:
    """One any-factor estimate per k, shared degree cap and trial budget,
    labelled by a sweep mode.

    The trials of every k run in one pool.
    """
    ks = list(k_list)
    if not ks or any(not 1 <= k <= N for k in ks) or trials < 1 or workers < 1:
        raise InvalidParametersError(
            "need a non-empty k list with every 1 <= k <= N, trials >= 1, workers >= 1"
        )
    return _estimates([(k, N, None, mode) for k in ks], trials, seed, workers)


# --- serialization -----------------------------------------------------------

CSV_HEADER = "k,N,n_or_any,mode,trials,hits,estimate,ci_low,ci_high,seed"


def _mode_field(report: EstimateReport) -> str:
    if report.sweep_mode:
        return f"{report.mode}:{report.sweep_mode}"
    return report.mode


def reports_to_csv(reports) -> str:
    """CSV_HEADER, then each report's JSON record: strings as they are, numbers by repr."""
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(",".join(v if isinstance(v, str) else repr(v) for v in report_to_json(r).values()))
    return "\n".join(lines) + "\n"


def report_to_json(report: EstimateReport) -> dict:
    return {
        "k": report.k,
        "N": report.N,
        "n_or_any": "any" if report.n is None else report.n,
        "mode": _mode_field(report),
        "trials": report.trials,
        "hits": report.hits,
        "estimate": report.estimate,
        "ci_low": report.ci_low,
        "ci_high": report.ci_high,
        "seed": report.seed,
    }
