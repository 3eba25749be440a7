"""One phase of one benchmark workload, run in a fresh interpreter.

    python3 perfbench/phase.py WORKLOAD PHASE --seed S --t0 T [--batch B] [--traced]

`run.py` starts every phase as its own process: `ru_maxrss` is then the
phase's own high-water mark, and the library's unbounded caches start empty,
as they do for every CLI invocation.  `--t0` is the `time.monotonic()` value
read just before the process was started; set-up time runs from there to
the point where the inputs are ready.  The phase prints one JSON object on
stdout.  Result checks happen in `run.py` (see checks.py); work done here
only to feed a check runs outside the timed section.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
WORKERS = os.cpu_count() or 1

# Sizes were chosen on a 2-CPU box so that one round takes a few seconds.
DECAY = {"ks": (3, 5, 7, 9, 11, 13), "N": 10**4, "trials": 300, "mode": "fs-pruned"}
PHI2 = {"k": 199, "N": 10**5, "n": 2, "trials": 8000}
# detect-file: one batch is one file of polynomials, one per degree stratum,
# so every batch costs about the same whatever the seed.
DETECT = {"per_file": 20, "k_lo": 3, "k_hi": 13, "log10_deg_lo": 3.0, "log10_deg_hi": 3.7}
LATTICE = {
    "ns": tuple(range(2, 301)),
    "cells": tuple((n, r) for n in (4, 6, 8, 9, 10, 12) for r in (5, 10, 20)),
    "bound_ks": (256, 512, 1024, 2048),
    "cli_n": 300,
    "cli_k": 2048,
}

perf = time.perf_counter


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Phase:
    """Per-phase state: the optional tracer, the start stamp and the result."""

    def __init__(self, args):
        self.args = args
        self.seed = args.seed
        self.tracer = None
        if args.traced:
            from spans import Tracer

            self.tracer = Tracer(f"{args.workload}:{args.phase}:{args.seed}:{args.batch}")
        self.result: dict = {}

    def fn(self, name: str, f):
        """`f`, wrapped in a span when the phase is traced."""
        return self.tracer.wrap(name, f) if self.tracer else f

    def ready(self) -> None:
        self.result["setup_s"] = time.monotonic() - self.args.t0

    def finish(self, solve_s: float) -> None:
        """End the timed section: its seconds, and the process's peak RSS so far."""
        self.result["solve_s"] = solve_s
        self.result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def out_path(self, name: str) -> Path:
        OUT.mkdir(exist_ok=True)
        return OUT / f"{self.args.workload}-{self.seed}-{self.args.batch}-{name}"


def run_cli(ph: Phase, argv_tail: list[str], name: str) -> None:
    """Time one in-process `lacunary.cli.main` run that writes to a file."""
    from lacunary.cli import main

    path = ph.out_path(name)
    ph.ready()
    t = perf()
    code = main(argv_tail + ["--output", str(path)])
    ph.finish(perf() - t)
    ph.result["exit_code"] = code
    ph.result["output_sha256"] = sha256(path.read_text(encoding="utf-8")) if code == 0 else None


# --- mc-decay ----------------------------------------------------------------


def decay_run(ph: Phase, workers: int) -> None:
    from lacunary import decay_series, reports_to_csv, sweep_cap

    sweep_cap(DECAY["N"])
    ph.ready()
    t = perf()
    reports = decay_series(
        DECAY["ks"], DECAY["N"], DECAY["trials"], ph.seed, mode=DECAY["mode"], workers=workers
    )
    ph.finish(perf() - t)
    ph.result["items"] = DECAY["trials"] * len(DECAY["ks"])
    ph.result["hits"] = {str(r.k): r.hits for r in reports}
    ph.result["output_sha256"] = sha256(reports_to_csv(reports))


def decay_replay(ph: Phase) -> None:
    """The experiment's loop, replayed through public calls at workers = 1."""
    from lacunary import has_cyclotomic_factor, sample_random, sweep_cap

    sample = ph.fn("sparsepoly.sample_random", sample_random)
    has = ph.fn("cyclotomic.has_cyclotomic_factor", has_cyclotomic_factor)
    N, trials, mode = DECAY["N"], DECAY["trials"], DECAY["mode"]
    cap = ph.fn("cyclotomic.sweep_cap", sweep_cap)(N)
    ph.ready()
    hits = {}
    first_call_s = 0.0
    t = perf()
    for k in DECAY["ks"]:
        h = 0
        for i in range(trials):
            poly = sample(k, N, ph.seed, i)
            t_call = perf()
            h += has(poly, mode, cap)
            if i == 0:
                first_call_s += perf() - t_call
        hits[str(k)] = h
    ph.finish(perf() - t)
    ph.result["items"] = trials * len(DECAY["ks"])
    ph.result["hits"] = hits
    ph.result["first_call_s"] = first_call_s


# --- mc-phi2 -----------------------------------------------------------------


def phi2_run(ph: Phase, workers: int) -> None:
    from lacunary import estimate_phi_n, reports_to_csv

    ph.ready()
    t = perf()
    report = estimate_phi_n(PHI2["k"], PHI2["N"], PHI2["n"], PHI2["trials"], ph.seed, workers=workers)
    ph.finish(perf() - t)
    ph.result["items"] = PHI2["trials"]
    ph.result["hits"] = {str(PHI2["k"]): report.hits}
    ph.result["output_sha256"] = sha256(reports_to_csv([report]))


def phi2_replay(ph: Phase) -> None:
    """Public-call replay at workers = 1; the structural route checks each trial."""
    from lacunary import divides_phi_dense, divides_phi_structural, sample_random

    sample = ph.fn("sparsepoly.sample_random", sample_random)
    dense = ph.fn("cyclotomic.divides_phi_dense", divides_phi_dense)
    k, N, n = PHI2["k"], PHI2["N"], PHI2["n"]
    ph.ready()
    hits = disagree = 0
    loop_s = 0.0
    for i in range(PHI2["trials"]):
        t = perf()
        poly = sample(k, N, ph.seed, i)
        hit = dense(poly, n)
        loop_s += perf() - t
        hits += hit
        disagree += hit != divides_phi_structural(poly, n)
    ph.finish(loop_s)
    ph.result["items"] = PHI2["trials"]
    ph.result["hits"] = {str(k): hits}
    ph.result["structural_disagreements"] = disagree


# --- detect-file ---------------------------------------------------------------


def detect_corpus(seed: int, batch: int) -> str:
    """Batch `batch` of the seeded corpus, in the library's text format.

    Polynomial j has degree 10^(3 + (j + u)/20) for a uniform u, so each
    batch holds one polynomial per log-degree stratum; k is uniform on 3..13.
    """
    rng = random.Random(f"perfbench-detect:{seed}:{batch}")
    size, lo, hi = DETECT["per_file"], DETECT["log10_deg_lo"], DETECT["log10_deg_hi"]
    lines = []
    for j in range(size):
        deg = round(10 ** (lo + (hi - lo) * (j + rng.random()) / size))
        k = rng.randint(DETECT["k_lo"], DETECT["k_hi"])
        exps = sorted(rng.sample(range(1, deg), k - 1)) + [deg]
        lines.append(" ".join(map(str, exps)))
    rng.shuffle(lines)
    return f"# detect-file corpus, seed {seed}, batch {batch}\n" + "\n".join(lines) + "\n"


def detect_read(ph: Phase):
    from lacunary import read_poly_file

    path = ph.out_path("corpus.txt")
    path.write_text(detect_corpus(ph.seed, ph.args.batch), encoding="utf-8")
    read = ph.fn("sparsepoly.read_poly_file", lambda fh: list(read_poly_file(fh)))
    with open(path, encoding="utf-8") as fh:
        polys = [poly for _, poly in read(fh)]
    return path, polys


def detect_run(ph: Phase) -> None:
    from lacunary import find_cyclotomic_factors, has_cyclotomic_factor, sweep_cap

    sweep = ph.fn("cyclotomic.sweep_cap", sweep_cap)
    find = ph.fn("cyclotomic.find_cyclotomic_factors", find_cyclotomic_factors)
    _, polys = detect_read(ph)
    ph.ready()
    factors, latency = [], []
    t = perf()
    for poly in polys:
        t_poly = perf()
        factors.append(find(poly, "full-sweep", sweep(poly.N)))
        latency.append(perf() - t_poly)
    ph.finish(perf() - t)
    ph.result["items"] = len(polys)
    ph.result["latency_s"] = latency
    ph.result["factors"] = factors
    ph.result["pruned_has_factor"] = [has_cyclotomic_factor(p, "fs-pruned") for p in polys]
    ph.result["output_sha256"] = sha256("".join(
        json.dumps({
            "exponents": list(p.exponents), "factors": f,
            "has_cyclotomic": bool(f), "mode": "full-sweep",
        }) + "\n"
        for p, f in zip(polys, factors)
    ))


def detect_cli(ph: Phase) -> None:
    path, _ = detect_read(ph)
    run_cli(ph, ["test", str(path)], "cli.out")


# --- lattice -------------------------------------------------------------------


def lattice_bases(ph: Phase) -> None:
    from lacunary import build_basis

    build = ph.fn("lattice.build_basis", build_basis)
    ns = list(LATTICE["ns"])
    random.Random(f"perfbench-lattice:{ph.seed}").shuffle(ns)
    ph.ready()
    rows, t = [], perf()
    for n in ns:
        t_n = perf()
        basis = build(n)
        rows.append({"n": n, "s": perf() - t_n, "rank": basis.rank,
                     "det_bits": basis.gram_det.bit_length(), "det_positive": basis.gram_det > 0})
    ph.finish(perf() - t)
    ph.result["items"] = len(rows)
    ph.result["bases"] = rows


def lattice_balls(ph: Phase) -> None:
    from lacunary import BallQuery, ResourceLimitError, build_basis, enumerate_ball, volume_count_bound

    enum = ph.fn("lattice.enumerate_ball", enumerate_ball)
    vcb = ph.fn("lattice.volume_count_bound", volume_count_bound)
    cells = list(LATTICE["cells"])
    random.Random(f"perfbench-lattice:{ph.seed}").shuffle(cells)
    bases = {n: build_basis(n) for n, _ in cells}
    ph.ready()
    rows, t = [], perf()
    for n, r in cells:
        row = {"n": n, "r": r, "count": None, "refused": False, "error": None}
        t_cell = perf()
        row["bound"] = vcb(bases[n], r)
        try:
            row["count"] = enum(bases[n], BallQuery((0,) * n, r, n), (0,) * n)
        except ResourceLimitError:
            row["refused"] = True
        except Exception as exc:  # reported as a failed operation by the checker
            row["error"] = repr(exc)
        row["s"] = perf() - t_cell
        rows.append(row)
    ph.finish(perf() - t)
    ph.result["items"] = len(rows)
    ph.result["cells"] = rows


def lattice_bounds(ph: Phase) -> None:
    from lacunary import total_bound

    tb = ph.fn("bounds.total_bound", total_bound)
    ks = list(LATTICE["bound_ks"])
    random.Random(f"perfbench-lattice:{ph.seed}").shuffle(ks)
    ph.ready()
    totals, t = {}, perf()
    for k in ks:
        totals[str(k)] = repr(tb(k).total)
    ph.finish(perf() - t)
    ph.result["items"] = len(ks)
    ph.result["totals"] = totals


def lattice_lib(ph: Phase) -> None:
    """Library route of the two CLI commands in `lattice_cli`."""
    from lacunary import basis_to_json, build_basis, total_bound
    from lacunary.bounds import breakdown_to_csv

    ph.ready()
    t = perf()
    text = json.dumps(basis_to_json(build_basis(LATTICE["cli_n"]))) + "\n"
    text += breakdown_to_csv(total_bound(LATTICE["cli_k"]))
    ph.finish(perf() - t)
    ph.result["output_sha256"] = sha256(text)


def lattice_cli(ph: Phase) -> None:
    from lacunary.cli import main

    basis_path, bounds_path = ph.out_path("basis.out"), ph.out_path("bounds.out")
    ph.ready()
    t = perf()
    codes = [
        main(["basis", "--n", str(LATTICE["cli_n"]), "--output", str(basis_path)]),
        main(["bounds", "--k", str(LATTICE["cli_k"]), "--output", str(bounds_path)]),
    ]
    ph.finish(perf() - t)
    ph.result["exit_code"] = max(codes)
    ph.result["output_sha256"] = (
        sha256(basis_path.read_text(encoding="utf-8") + bounds_path.read_text(encoding="utf-8"))
        if not any(codes) else None
    )


def setup_only(ph: Phase) -> None:
    import lacunary  # noqa: F401

    ph.ready()


PHASES = {
    ("mc-decay", "run"): lambda ph: decay_run(ph, WORKERS),
    ("mc-decay", "run1"): lambda ph: decay_run(ph, 1),
    ("mc-decay", "replay"): decay_replay,
    ("mc-decay", "cli"): lambda ph: run_cli(ph, [
        "decay", "--k-list", ",".join(map(str, DECAY["ks"])), "--N", str(DECAY["N"]),
        "--trials", str(DECAY["trials"]), "--seed", str(ph.seed), "--mode", DECAY["mode"],
    ], "cli.out"),
    ("mc-phi2", "run"): lambda ph: phi2_run(ph, WORKERS),
    ("mc-phi2", "run1"): lambda ph: phi2_run(ph, 1),
    ("mc-phi2", "replay"): phi2_replay,
    ("mc-phi2", "cli"): lambda ph: run_cli(ph, [
        "estimate", "--k", str(PHI2["k"]), "--N", str(PHI2["N"]), "--n", str(PHI2["n"]),
        "--trials", str(PHI2["trials"]), "--seed", str(ph.seed),
    ], "cli.out"),
    ("detect-file", "run"): detect_run,
    ("detect-file", "cli"): detect_cli,
    ("lattice", "bases"): lattice_bases,
    ("lattice", "balls"): lattice_balls,
    ("lattice", "bounds"): lattice_bounds,
    ("lattice", "lib"): lattice_lib,
    ("lattice", "cli"): lattice_cli,
    ("lattice", "setup"): setup_only,
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("phase")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--batch", type=int, default=0)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    ph = Phase(args)
    try:
        PHASES[(args.workload, args.phase)](ph)
    except Exception:
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    if ph.tracer:
        ph.result["spans"] = ph.tracer.summary()
        ph.tracer.dump(ph.out_path("spans.jsonl"))
    print(json.dumps(ph.result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
