"""Benchmark of the lacunary library: four workloads, each phase in a fresh process.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--record]

Run from the root of a checkout that holds `src/lacunary`.  Workloads:

  mc-decay     decay_series(k = 3..13 odd, N = 10^4, fs-pruned) at workers = nproc
  mc-phi2      estimate_phi_n(k = 199, N = 10^5, n = 2) at workers = nproc
  detect-file  full-sweep factor lists for a seeded corpus read with read_poly_file
  lattice      build_basis(2..300), the 18 ball cells of acceptance 6, total_bound

With `--trace 0` the workload's timed rounds repeat until `--seconds` have
passed (detect-file runs at least 200 polynomials, lattice one full pass)
and the end-to-end metrics are printed.  With `--trace 1` one traced round
runs at workers = 1, with spans recorded around each public call, and the
per-layer metrics are printed.  Every result is checked (checks.py); at the
default seed the results must also match the fingerprints in
`reference.json`, which `--record` rewrites for the workload instead.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
`--workload all` runs the four in turn (none is dropped) and ends with one
object whose metrics are named `workload.metric`.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from phase import DETECT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("mc-decay", "mc-phi2", "detect-file", "lattice")
DEFAULT_SEED = 1
MIN_ROUNDS = 3
DETECT_MIN_POLYS = 200  # p95 then has at least ten samples beyond it
LATTICE_SETUP_PROBES = 6
HARD_LIMIT_S = 170.0
NAN = float("nan")


class Runner:
    """Starts phases of one workload, each as a fresh process, and keeps their results."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.all: list[dict] = []

    def phase(self, phase: str, batch: int = 0, traced: bool = False) -> dict:
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "phase.py"), self.workload, phase,
               "--seed", str(self.seed), "--batch", str(batch), "--t0", repr(t0)]
        if traced:
            cmd.append("--traced")
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            res = {"error": f"{phase} timed out"}
        else:
            try:
                res = json.loads(out.strip().splitlines()[-1])
            except (IndexError, ValueError):
                res = {"error": f"{phase} exited {proc.returncode}: {err.strip()[-2000:]}"}
        res["batch"] = batch
        self.all.append(res)
        return res

    def time_left(self) -> bool:
        return time.monotonic() < self.deadline - 30.0


# --- untraced runs: end-to-end metrics ----------------------------------------------


def rounds(runner: Runner, seconds: float, phase: str, min_rounds: int, batched: bool = False):
    out = []
    start = time.monotonic()
    while len(out) < min_rounds or (time.monotonic() - start < seconds and runner.time_left()):
        out.append(runner.phase(phase, batch=len(out) if batched else 0))
    return out


def ok(results):
    return [r for r in results if "error" not in r]


def median_of(results, key):
    values = [r[key] for r in ok(results)]
    return statistics.median(values) if values else NAN


def pooled(rounds):
    """(items per second over all rounds, mean seconds per round).

    On a machine whose speed swings between states within seconds, per-round
    rates are bimodal and their median jumps between the modes; the pooled
    ratio moves smoothly with the share of time spent in each state.
    """
    if not rounds:
        return NAN, NAN
    total_s = sum(r["solve_s"] for r in rounds)
    return sum(r["items"] for r in rounds) / total_s, total_s / len(rounds)


def measure(runner: Runner, seconds: float):
    """Run the workload untraced; return (results, metrics, workload-specific extras)."""
    wl = runner.workload
    if wl in ("mc-decay", "mc-phi2"):
        res = {"replay": runner.phase("replay")}
        res["runs"] = rounds(runner, seconds, "run", MIN_ROUNDS)
        timed = ok(res["runs"])
        items_per_s, solve_s = pooled(timed)
        rss = median_of(timed, "rss_mb")
        extras = {"trials_per_s": (items_per_s, "1/s")}
    elif wl == "detect-file":
        min_batches = -(-DETECT_MIN_POLYS // DETECT["per_file"])
        res = {"batches": rounds(runner, seconds, "run", min_batches, batched=True)}
        timed = ok(res["batches"])
        items_per_s, solve_s = pooled(timed)
        rss = median_of(timed, "rss_mb")
        lat_ms = [1000 * x for r in timed for x in r["latency_s"]]
        p95 = statistics.quantiles(lat_ms, n=20)[18] if len(lat_ms) > 1 else NAN
        extras = {
            "polys_per_s": (items_per_s, "1/s"),
            "poly_p50_ms": (statistics.median(lat_ms) if lat_ms else NAN, "ms"),
            "poly_p95_ms": (p95, "ms"),
            "poly_samples": (len(lat_ms), "count"),
        }
    else:
        res = {"bases": [runner.phase("bases")], "balls": runner.phase("balls"),
               "bounds": runner.phase("bounds")}
        for _ in range(LATTICE_SETUP_PROBES):
            runner.phase("setup")
        items_per_s, bases_s = pooled(ok(res["bases"]))
        solve_s = bases_s + sum(r["solve_s"] for r in ok([res["balls"], res["bounds"]]))
        rss = max((r["rss_mb"] for r in ok(res["bases"] + [res["balls"], res["bounds"]])), default=NAN)
        cells = res["balls"].get("cells", [])
        points = sum(c["count"] or 0 for c in cells)
        ball_s = sum(c["s"] for c in cells if not c["refused"])
        extras = {
            "bases_per_s": (items_per_s, "1/s"),
            "ball_points_per_s": (points / ball_s if ball_s else NAN, "1/s"),
        }
    metrics = {
        "setup_s": (median_of(runner.all, "setup_s"), "s"),
        "items_per_s": (items_per_s, "1/s"),
        "solve_s": (solve_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return res, metrics, extras


# --- traced runs: per-layer metrics ----------------------------------------------


LAYER_METRICS = (
    ("sparsepoly.sample_random.calls", "count"),
    ("sparsepoly.sample_random.self_s", "s"),
    ("sparsepoly.read_poly_file.self_s", "s"),
    ("cyclotomic.sweep_cap.calls", "count"),
    ("cyclotomic.sweep_cap.self_s", "s"),
    ("cyclotomic.has_cyclotomic_factor.calls", "count"),
    ("cyclotomic.has_cyclotomic_factor.self_s", "s"),
    ("cyclotomic.has_cyclotomic_factor.hit_frac", "ratio"),
    ("cyclotomic.has_cyclotomic_factor.first_call_s", "s"),
    ("cyclotomic.find_cyclotomic_factors.calls", "count"),
    ("cyclotomic.find_cyclotomic_factors.self_s", "s"),
    ("cyclotomic.find_cyclotomic_factors.factors", "count"),
    ("cyclotomic.divides_phi_dense.calls", "count"),
    ("cyclotomic.divides_phi_dense.self_s", "s"),
    ("cyclotomic.divides_phi_dense.hit_frac", "ratio"),
    ("lattice.build_basis.calls", "count"),
    ("lattice.build_basis.self_s", "s"),
    ("lattice.build_basis.max_s", "s"),
    ("lattice.enumerate_ball.calls", "count"),
    ("lattice.enumerate_ball.self_s", "s"),
    ("lattice.enumerate_ball.points", "count"),
    ("lattice.enumerate_ball.refused", "count"),
    ("lattice.volume_count_bound.self_s", "s"),
    ("bounds.total_bound.calls", "count"),
    ("bounds.total_bound.self_s", "s"),
    ("experiment.estimate.self_s", "s"),
    ("experiment.pool_speedup", "ratio"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def trace(runner: Runner):
    """Run the workload traced; return (results, per-layer values by name).

    A layer the workload bypasses reports 0.  The overhead compares one
    phase run traced with the same phase run plain, each in a fresh process.
    """
    wl = runner.workload
    spans: dict[str, dict] = {}
    values: dict[str, float] = {}

    def take(res):
        if "error" not in res:
            for name, row in res.get("spans", {}).items():
                acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0})
                for f in ("calls", "total_s", "self_s"):
                    acc[f] += row[f]
                acc["max_s"] = max(acc["max_s"], row["max_s"])
        return res

    def overhead(plain, traced):
        if "error" not in plain and "error" not in traced:
            values["trace.overhead_frac"] = traced["solve_s"] / plain["solve_s"] - 1.0

    def cli_self(cli, lib):
        if "error" not in cli and "error" not in lib:
            values["cli.main.self_s"] = cli["solve_s"] - lib["solve_s"]

    if wl in ("mc-decay", "mc-phi2"):
        test = "cyclotomic.has_cyclotomic_factor" if wl == "mc-decay" else "cyclotomic.divides_phi_dense"
        plain = runner.phase("replay")
        traced = take(runner.phase("replay", traced=True))
        res = {"replay": traced, "run1": runner.phase("run1"), "runs": [runner.phase("run")],
               "cli": runner.phase("cli")}
        overhead(plain, traced)
        cli_self(res["cli"], res["runs"][0])
        if "error" not in traced and test in spans:
            values[f"{test}.hit_frac"] = sum(traced["hits"].values()) / spans[test]["calls"]
            loop_s = spans[test]["total_s"] + spans["sparsepoly.sample_random"]["total_s"]
            if "error" not in res["run1"]:
                values["experiment.estimate.self_s"] = res["run1"]["solve_s"] - loop_s
            if wl == "mc-decay":
                values[f"{test}.first_call_s"] = traced["first_call_s"]
        if "error" not in res["run1"] and "error" not in res["runs"][0]:
            values["experiment.pool_speedup"] = res["run1"]["solve_s"] / res["runs"][0]["solve_s"]
    elif wl == "detect-file":
        plain = runner.phase("run")
        traced = take(runner.phase("run", traced=True))
        res = {"batches": [traced], "cli": runner.phase("cli")}
        overhead(plain, traced)
        cli_self(res["cli"], plain)
        if "error" not in traced:
            values["cyclotomic.find_cyclotomic_factors.factors"] = sum(len(f) for f in traced["factors"])
    else:
        plain = runner.phase("bases")
        res = {p: take(runner.phase(p, traced=True)) for p in ("bases", "balls", "bounds")}
        res["bases"] = [res["bases"]]
        res["lib"], res["cli"] = runner.phase("lib"), runner.phase("cli")
        overhead(plain, res["bases"][0])
        cli_self(res["cli"], res["lib"])
        cells = res["balls"].get("cells", [])
        values["lattice.enumerate_ball.points"] = sum(c["count"] or 0 for c in cells)
        values["lattice.enumerate_ball.refused"] = sum(c["refused"] for c in cells)
    for name, unit in LAYER_METRICS:
        span, _, field = name.rpartition(".")
        if name not in values and span in spans and field in ("calls", "self_s", "max_s"):
            values[name] = spans[span][field]
    return res, {name: (values.get(name, 0), unit) for name, unit in LAYER_METRICS}


# --- entry point -------------------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: str, args) -> dict:
    """Run, check and print one workload; return its result object."""
    runner = Runner(workload, args.seed)
    if args.trace:
        res, metrics = trace(runner)
        extras = {}
    else:
        res, metrics, extras = measure(runner, args.seconds)

    tally = checks.Tally()
    checks.CHECKERS[workload](tally, res)
    fp = checks.fingerprint(workload, res)
    if args.record:
        ref = load_reference()
        ref["fingerprints"].setdefault(workload, {}).update(fp)
        REFERENCE.write_text(json.dumps(ref, indent=2) + "\n", encoding="utf-8")
    elif args.seed == DEFAULT_SEED:
        checks.check_reference(tally, fp, load_reference()["fingerprints"].get(workload, {}))

    fail_frac = tally.failed / max(tally.attempted, 1)
    mode = "traced, workers = 1" if args.trace else f"untraced, workers = {os.cpu_count() or 1}"
    print(f"workload {workload}, seed {args.seed}, {mode}")
    for name, (value, unit) in {**metrics, **extras, "fail_frac": (fail_frac, "ratio")}.items():
        print(f"  {name:46s} {value:>16.6g} {unit}")
    if workload in ("mc-decay", "mc-phi2"):
        for label in ("replay", "run1"):
            if label in res and "error" not in res[label]:
                print(f"  hits ({label}) {res[label]['hits']}")
        for r in ok(res["runs"])[:1]:
            print(f"  hits (run) {r['hits']}")
    for problem in tally.problems[:20]:
        print(f"  FAILED: {problem}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="write this run's fingerprints into reference.json (default seed only)")
    args = ap.parse_args()
    if not (ROOT / "src" / "lacunary" / "__init__.py").is_file():
        sys.stderr.write(f"no lacunary sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    if args.record and args.seed != DEFAULT_SEED:
        sys.stderr.write(f"--record needs the default seed {DEFAULT_SEED}\n")
        return 2

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args)))
        return 0
    print("dropped workloads: none")
    results = {wl: run_workload(wl, args) for wl in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{wl}.{name}": m for wl, r in results.items() for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
