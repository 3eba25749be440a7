"""Result checks and fingerprints for the benchmark's workloads.

Every check counts one attempted operation, or one per trial where a trial
is checked on its own, and a failed operation when the result is wrong or
the phase that produced it raised.  `fail_frac` is failed over attempted.
Each checker takes the phase results that `run.py` collected, as plain
dicts, so `test_checks.py` can feed it wrong results without the library.

The fingerprints pin results at the default seed; `reference.json` holds
the recorded ones and every item that differs counts as a failure.
"""

import hashlib
import json
from math import gcd

EXPECTED_REFUSED = {(12, 20)}
DETECT_FINGERPRINT_BATCHES = 10


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.problems.append(what)

    def phase_ok(self, res: dict | None, label: str) -> bool:
        """Count a phase that crashed or never ran as one failed operation."""
        if res is None or "error" in res:
            self.check(False, f"{label} failed: {(res or {}).get('error', 'no result')}")
            return False
        return True


def totient(n: int) -> int:
    return sum(1 for j in range(1, n + 1) if gcd(j, n) == 1)


def factors_sha256(factor_lists) -> str:
    return hashlib.sha256(json.dumps(factor_lists).encode("utf-8")).hexdigest()


def check_mc(tally: Tally, res: dict) -> None:
    """mc-decay and mc-phi2: every experiment agrees with the public-call replay.

    `res` holds `runs` (workers = nproc rounds), `replay`, and in traced
    runs also `run1` (workers = 1) and `cli`.
    """
    replay = res.get("replay")
    if not tally.phase_ok(replay, "replay"):
        return
    want = replay["hits"]
    tally.check(
        replay.get("structural_disagreements", 0) == 0,
        f"dense and structural tests disagree on {replay.get('structural_disagreements')} trials",
        count=replay["items"] if "structural_disagreements" in replay else 1,
    )
    experiments = [("run", r) for r in res.get("runs", [])]
    if "run1" in res:
        experiments.append(("run1", res["run1"]))
    for label, run in experiments:
        if not tally.phase_ok(run, label):
            continue
        for k, h in want.items():
            got = run["hits"].get(k)
            tally.check(got == h, f"{label}: k={k} has {got} hits, the replay {h}")
    if "cli" in res and tally.phase_ok(res["cli"], "cli") and res.get("runs"):
        cli, lib = res["cli"], res["runs"][0]
        tally.check(
            cli["exit_code"] == 0 and cli["output_sha256"] == lib.get("output_sha256"),
            f"cli output differs from the library route (exit {cli['exit_code']})",
        )


def check_detect(tally: Tally, res: dict) -> None:
    """Full-sweep factor lists are non-empty exactly when the pruned sweep hits."""
    batches = res.get("batches", [])
    for b in batches:
        if not tally.phase_ok(b, f"batch {b.get('batch')}"):
            continue
        for factors, pruned in zip(b["factors"], b["pruned_has_factor"]):
            well_formed = factors == sorted(set(factors)) and all(n >= 2 for n in factors)
            tally.check(
                well_formed and bool(factors) == pruned,
                f"batch {b['batch']}: factor list {factors} vs pruned verdict {pruned}",
            )
    if "cli" in res and tally.phase_ok(res["cli"], "cli"):
        cli = res["cli"]
        lib = next((b for b in batches if b.get("batch") == 0 and "error" not in b), {})
        tally.check(
            cli["exit_code"] == 0 and cli["output_sha256"] == lib.get("output_sha256"),
            f"cli output differs from the library route (exit {cli['exit_code']})",
        )


def check_lattice(tally: Tally, res: dict) -> None:
    """Basis ranks and determinants, ball counts under the volume bound, the guard."""
    for bases in res.get("bases", []):
        if not tally.phase_ok(bases, "bases"):
            continue
        for row in bases["bases"]:
            n = row["n"]
            tally.check(
                row["rank"] == n - totient(n) and row["det_positive"],
                f"basis n={n}: rank {row['rank']}, gram_det positive {row['det_positive']}",
            )
    balls = res.get("balls")
    if tally.phase_ok(balls, "balls"):
        for row in balls["cells"]:
            cell = (row["n"], row["r"])
            expect_refused = cell in EXPECTED_REFUSED
            ok = (
                row["error"] is None
                and row["refused"] == expect_refused
                and (row["refused"] or row["count"] <= row["bound"])
            )
            tally.check(ok, f"cell {cell}: count {row['count']}, refused {row['refused']}, "
                            f"bound {row['bound']}, error {row['error']}")
    bounds = res.get("bounds")
    if tally.phase_ok(bounds, "bounds"):
        totals = [float(v) for _, v in sorted(bounds["totals"].items(), key=lambda kv: int(kv[0]))]
        tally.check(all(a > b for a, b in zip(totals, totals[1:])),
                    f"total_bound not strictly decreasing: {totals}")
    if "cli" in res and tally.phase_ok(res["cli"], "cli") and tally.phase_ok(res.get("lib"), "lib"):
        cli = res["cli"]
        tally.check(
            cli["exit_code"] == 0 and cli["output_sha256"] == res["lib"]["output_sha256"],
            f"cli output differs from the library route (exit {cli['exit_code']})",
        )


CHECKERS = {"mc-decay": check_mc, "mc-phi2": check_mc, "detect-file": check_detect,
            "lattice": check_lattice}


def fingerprint(workload: str, res: dict) -> dict:
    """The results that the reference pins, from whatever phases ran cleanly."""

    def ok(r):
        return r is not None and "error" not in r

    fp: dict = {}
    if workload in ("mc-decay", "mc-phi2"):
        if ok(res.get("replay")):
            fp["hits"] = res["replay"]["hits"]
    elif workload == "detect-file":
        fp["batch_factors_sha256"] = {
            str(b["batch"]): factors_sha256(b["factors"])
            for b in res.get("batches", [])
            if ok(b) and b["batch"] < DETECT_FINGERPRINT_BATCHES
        }
    elif workload == "lattice":
        bases = next((b for b in res.get("bases", []) if ok(b)), None)
        if bases:
            fp["gram_det_bits"] = {str(r["n"]): r["det_bits"] for r in bases["bases"]}
        if ok(res.get("balls")):
            fp["ball_counts"] = {
                f"{r['n']},{r['r']}": "refused" if r["refused"] else r["count"]
                for r in res["balls"]["cells"]
            }
        if ok(res.get("bounds")):
            fp["total_bound_repr"] = res["bounds"]["totals"]
    if ok(res.get("cli")) and res["cli"]["output_sha256"]:
        fp["cli_sha256"] = res["cli"]["output_sha256"]
    return fp


def check_reference(tally: Tally, fp: dict, ref: dict) -> None:
    """One operation per fingerprint item; an item missing from `ref` fails."""
    for key, value in fp.items():
        items = value.items() if isinstance(value, dict) else [(None, value)]
        for sub, got in items:
            want = ref.get(key, {}).get(sub) if sub is not None else ref.get(key)
            label = key if sub is None else f"{key}[{sub}]"
            tally.check(got == want, f"fingerprint {label}: {got!r}, reference {want!r}")
