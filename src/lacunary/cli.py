"""Command-line surface: detection, basis inspection, bound tables, experiments.

Every run is a pure function of its flags, so repeated invocations produce
byte-identical output at any worker count.  Errors are reported as a single
JSON line on stderr; exit codes: 0 success, 2 parse error, 3 resource limit,
4 invalid parameters.
"""

import argparse
import json
import os
import sys

from .bounds import admissible_kernels, breakdown_to_csv, total_bound
from .cyclotomic import SWEEP_MODES, find_cyclotomic_factors
from .errors import InvalidParametersError, LacunaryError, PolyParseError
from .experiment import (
    decay_series,
    estimate_phi_n,
    exhaustive_enumeration,
    report_to_json,
    reports_to_csv,
)
from .lattice import basis_to_json, build_basis
from .sparsepoly import SparsePoly, read_poly_file


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="lacunary", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, summary, formats=False, seeded=False):
        """A subcommand with --output, plus --format and --seed/--workers where used."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--output", default=None, help="output path (default stdout)")
        if formats:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        if seeded:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
        return p

    p = command("test", "detect factors for each polynomial in a file")
    p.add_argument("file", nargs="?", default=None, help="polynomial file (default stdin)")
    p.add_argument("--mode", choices=SWEEP_MODES, default="full-sweep")

    p = command("factors", "detect factors for one polynomial")
    p.add_argument("exponents", type=int, nargs="+")
    p.add_argument("--mode", choices=SWEEP_MODES, default="full-sweep")

    p = command("basis", "relation-lattice basis for a modulus")
    p.add_argument("--n", type=int, required=True)

    p = command("candidates", "admissible squarefree kernels for k terms", formats=True)
    p.add_argument("--k", type=int, required=True)

    p = command("bounds", "per-range bound table for k terms", formats=True)
    p.add_argument("--k", type=int, required=True)

    p = command("estimate", "Monte Carlo estimate of a divisor event", formats=True, seeded=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="specific modulus (default: any factor)")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--mode", choices=SWEEP_MODES, default=None,
                   help="label of the any-factor event's range (default full-sweep); not with --n")

    p = command("decay", "any-factor estimates across a k list", formats=True, seeded=True)
    p.add_argument("--k-list", required=True, dest="k_list", help="comma-separated k values")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--mode", choices=SWEEP_MODES, default="fs-pruned")

    p = command("enumerate", "exhaustive enumeration of an event", formats=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--mode", choices=SWEEP_MODES, default=None,
                   help="label of the any-factor event's range (default full-sweep); not with --n")

    return top


def _detection_record(poly: SparsePoly, mode: str) -> dict:
    factors = find_cyclotomic_factors(poly, mode=mode)
    return {
        "exponents": list(poly.exponents),
        "factors": factors,
        "has_cyclotomic": bool(factors),
        "mode": mode,
    }


def _run_test(args, out) -> None:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            polys = list(read_poly_file(fh))
    else:
        polys = list(read_poly_file(sys.stdin))
    for _, poly in polys:
        record = _detection_record(poly, args.mode)
        out.write(json.dumps(record) + "\n")


def _run_factors(args, out) -> None:
    poly = SparsePoly(tuple(args.exponents), args.exponents[-1])
    record = _detection_record(poly, args.mode)
    out.write(json.dumps(record) + "\n")


def _run_basis(args, out) -> None:
    record = basis_to_json(build_basis(args.n))
    out.write(json.dumps(record) + "\n")


def _run_candidates(args, out) -> None:
    members = admissible_kernels(args.k)
    if args.format == "json":
        out.write(json.dumps({"k": args.k, "members": list(members)}) + "\n")
    else:
        out.write(",".join(str(m) for m in members) + "\n")


def _run_bounds(args, out) -> None:
    bb = total_bound(args.k)
    if args.format == "json":
        rows = [
            {
                "label": r.label,
                "n_lo": r.n_lo,
                "n_hi": "inf" if r.n_hi == float("inf") else int(r.n_hi),
                "bound": r.value,
                "raw": r.raw if r.raw != float("inf") else "inf",
                "tag": r.tag,
            }
            for r in bb.rows
        ]
        out.write(json.dumps({"k": bb.k, "rows": rows, "total": bb.total}) + "\n")
    else:
        out.write(breakdown_to_csv(bb))


def _emit_reports(args, reports, out) -> None:
    if args.format == "json":
        for r in reports:
            out.write(json.dumps(report_to_json(r)) + "\n")
    else:
        out.write(reports_to_csv(reports))


def _run_estimate(args, out) -> None:
    if args.n is not None:
        if args.mode is not None:
            raise InvalidParametersError("--mode names the any-factor event's range, not with --n")
        reports = [estimate_phi_n(
            args.k, args.N, args.n, args.trials, args.seed, workers=args.workers
        )]
    else:
        reports = decay_series(
            [args.k], args.N, args.trials, args.seed,
            mode=args.mode or "full-sweep", workers=args.workers,
        )
    _emit_reports(args, reports, out)


def _run_decay(args, out) -> None:
    try:
        ks = [int(x) for x in args.k_list.split(",") if x.strip()]
    except ValueError:
        raise InvalidParametersError(f"bad k list {args.k_list!r}")
    reports = decay_series(
        ks, args.N, args.trials, args.seed, mode=args.mode, workers=args.workers
    )
    _emit_reports(args, reports, out)


def _run_enumerate(args, out) -> None:
    report = exhaustive_enumeration(args.k, args.N, n=args.n, mode=args.mode)
    _emit_reports(args, [report], out)


_HANDLERS = {
    "test": _run_test,
    "factors": _run_factors,
    "basis": _run_basis,
    "candidates": _run_candidates,
    "bounds": _run_bounds,
    "estimate": _run_estimate,
    "decay": _run_decay,
    "enumerate": _run_enumerate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="\n") as out:
                _HANDLERS[args.command](args, out)
        else:
            _HANDLERS[args.command](args, sys.stdout)
    except LacunaryError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, PolyParseError) and exc.lineno is not None:
            payload["line"] = exc.lineno
        sys.stderr.write(json.dumps(payload) + "\n")
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
