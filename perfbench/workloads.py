"""The four benchmark workloads: seeded inputs, the timed call, digest and checks.

Every workload runs one public bihpo entry point once per fresh process. The
benchmark derives every data, split and corruption seed from the workload
seed itself (`sub_seed`), so the library only ever sees the generated config.

Sizes are chosen so that one call takes 0.5-3 s on a 2-core host: long enough
to time steadily, short enough for several fresh-process repeats per run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

U_LIST = [1, 2, 4, 8, 16]
MEMBERS_R = 10
SWEEP_R = 120
SWEEP_GRID_POINTS = 50
TUNE_U = 8
TUNE_T = 60
CLEAN_T = 300

# criterion 04 accepts |slope + 1| <= 0.25 at R = 200 replicates. The slope's
# spread shrinks like 1/sqrt(R - 1), so the same false-alarm rate at R
# replicates needs the tolerance scaled by sqrt(199 / (R - 1)).
SLOPE_TOL = 0.25 * math.sqrt(199.0 / (MEMBERS_R - 1))
# relative agreement with the benchmark's own numpy re-implementation
REFERENCE_RTOL = 1e-6
# single-split floors for clean. Criterion 08 asks 0.80 / +0.05 of the median
# over five datasets; over 24 seeds one split gave F1 0.81-0.87 and gains of
# +0.08 to +0.26, so these floors sit several spreads below the worst seed.
CLEAN_F1_FLOOR = 0.75
CLEAN_GAIN_FLOOR = 0.0


def sub_seed(seed: int, workload: str, purpose: str) -> int:
    """A 32-bit seed for one purpose, derived from the workload seed."""
    digest = hashlib.sha256(f"{workload}/{purpose}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def artifact_digest(art_dir: Path) -> str:
    """sha256 over every artifact; manifest.json without its wall-clock field."""
    h = hashlib.sha256()
    for path in sorted(p for p in art_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            body = json.loads(data)
            body.pop("wall_clock_seconds", None)
            data = json.dumps(body, sort_keys=True).encode()
        h.update(path.relative_to(art_dir).as_posix().encode() + b"\0" + data + b"\0")
    return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    estimates: int           # hypergradient estimates per call, for estimates_per_s
    setup: Callable          # (seed, run_dir) -> zero-argument timed call
    digest: Callable         # (result, run_dir) -> str
    check: Callable          # (result, run_dir, seed) -> list of failure messages
    # weight of the array loop in the calibration mix (child.calibration_s);
    # chosen by regressing log call time on log loop time over 140 s of
    # alternating calls and loops on a shared 2-core host
    calib_array_share: float = 0.0


# ---------------------------------------------------------------------------
# members: ensemble_variance_curve through the library API

def members_params(seed: int) -> dict:
    return {
        "n": 100, "d": 1, "noise_sigma": 0.5, "gamma": 0.25,
        "beta_seed": sub_seed(seed, "members", "beta"),
        "K": 200, "alpha_in": 0.1, "lambda_eff": 1.0,
        "R": MEMBERS_R, "U_list": U_LIST,
        "curve_seed": sub_seed(seed, "members", "curve"),
    }


# The timed calls look the entry point up on its module when they run, so a
# tracer installed after setup wraps it too.

def _members_setup(seed: int, run_dir: Path):
    from bihpo import diagnostics
    from bihpo.hypergrad import HypergradMethod

    p = members_params(seed)
    design = diagnostics.SweepDesign(n=p["n"], d=p["d"], noise_sigma=p["noise_sigma"],
                                     gamma=p["gamma"], beta_seed=p["beta_seed"])
    method = HypergradMethod(kind="ITD", K=p["K"], alpha_in=p["alpha_in"])
    return lambda: diagnostics.ensemble_variance_curve(
        design, method, p["lambda_eff"], R=p["R"], U_list=p["U_list"], seed=p["curve_seed"],
        workers=1)


def _members_digest(curve, run_dir: Path) -> str:
    return _sha({"points": [[u, float(v).hex()] for u, v in curve.points],
                 "slope": float(curve.slope).hex()})


def _members_check(curve, run_dir: Path, seed: int) -> list[str]:
    from reference import members_curve

    failures = []
    ref_points, ref_slope = members_curve(members_params(seed))
    for (u, v), (ru, rv) in zip(curve.points, ref_points):
        if u != ru or not abs(v - rv) <= REFERENCE_RTOL * abs(rv):
            failures.append(f"variance at U={u}: {v!r} vs reference {rv!r}")
    if len(curve.points) != len(ref_points):
        failures.append(f"{len(curve.points)} curve points, expected {len(ref_points)}")
    if not abs(curve.slope + 1.0) <= SLOPE_TOL:
        failures.append(f"slope {curve.slope:+.4f} not within {SLOPE_TOL:.3f} of -1")
    if not abs(curve.slope - ref_slope) <= REFERENCE_RTOL:
        failures.append(f"slope {curve.slope!r} vs reference {ref_slope!r}")
    return failures


# ---------------------------------------------------------------------------
# config-driven workloads through bihpo.cli.main

def _cli_setup(command: str, config: dict, run_dir: Path):
    import yaml
    from bihpo import cli

    cfg_path = run_dir / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    argv = [command, "--config", str(cfg_path), "--out", str(run_dir / "artifacts")]
    return lambda: cli.main(argv)


def _cli_digest(exit_code, run_dir: Path) -> str:
    return artifact_digest(run_dir / "artifacts")


def _exit_failures(exit_code) -> list[str]:
    return [] if exit_code == 0 else [f"exit code {exit_code}"]


def sweep_config(seed: int) -> dict:
    return {
        "data": {"source": "synthetic",
                 "synthetic": {"n": 100, "d": 1, "noise_sigma": 0.5,
                               "seed": sub_seed(seed, "sweep", "data"),
                               "beta_seed": sub_seed(seed, "sweep", "beta")}},
        "split": {"U": 1, "gamma": 0.25, "master_seed": sub_seed(seed, "sweep", "replicates")},
        "problem": {"kind": "ridge"},
        "method": {"kind": "ITD", "K": 500, "alpha_in": 0.1},
        "biasvar": {"grid": f"0.3:3:{SWEEP_GRID_POINTS}", "R": SWEEP_R, "U": 1},
        "output": {"dir": "out", "formats": ["csv"]},
    }


def _sweep_check(exit_code, run_dir: Path, seed: int) -> list[str]:
    import csv

    failures = _exit_failures(exit_code)
    if failures:
        return failures
    with open(run_dir / "artifacts" / "biasvar.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != SWEEP_GRID_POINTS:
        failures.append(f"{len(rows)} grid rows, expected {SWEEP_GRID_POINTS}")
    for r in rows:
        resid, var, bias_sq = (float(r[k]) for k in ("identity_residual", "variance", "bias_sq"))
        if not resid <= 1e-10:
            failures.append(f"identity residual {resid:.3e} at lambda {r['lambda']}")
        if not var >= bias_sq:
            failures.append(f"variance {var:.3e} < bias^2 {bias_sq:.3e} at lambda {r['lambda']}")
    return failures


def tune_config(seed: int) -> dict:
    return {
        "data": {"source": "synthetic",
                 "synthetic": {"n": 400, "d": 10, "noise_sigma": 0.5, "classes": 2,
                               "seed": sub_seed(seed, "tune", "data"),
                               "beta_seed": sub_seed(seed, "tune", "beta")},
                 "test_fraction": 0.25, "test_seed": sub_seed(seed, "tune", "test")},
        "split": {"U": TUNE_U, "gamma": 0.25, "master_seed": sub_seed(seed, "tune", "splits")},
        "problem": {"kind": "logistic_l2"},
        "method": {"kind": "AID_CG", "K": 100, "alpha_in": 0.2, "Z": 20},
        "strategy": {"kind": "ehg", "T": TUNE_T, "outer": {"kind": "adam", "alpha_out": 0.05},
                     "lambda0": -2.0, "theta0": 0.0},
        "output": {"dir": "out", "formats": ["csv", "json"]},
    }


def _tune_check(exit_code, run_dir: Path, seed: int) -> list[str]:
    from reference import tune_final_lambda

    failures = _exit_failures(exit_code)
    if failures:
        return failures
    final = json.loads((run_dir / "artifacts" / "final.json").read_text())
    lam = final["lambda_raw"][0]
    ref = tune_final_lambda(tune_config(seed))
    if not math.isfinite(lam):
        failures.append(f"final lambda {lam!r} is not finite")
    elif not abs(lam - ref) <= REFERENCE_RTOL * max(1.0, abs(ref)):
        failures.append(f"final lambda {lam!r} vs reference {ref!r}")
    return failures


def clean_config(seed: int) -> dict:
    return {
        "data": {"source": "synthetic",
                 "synthetic": {"n": 1000, "d": 20, "noise_sigma": 0.4, "classes": 4,
                               "seed": sub_seed(seed, "clean", "data"),
                               "beta_seed": sub_seed(seed, "clean", "beta")},
                 "corrupt": {"p": 0.5, "seed": sub_seed(seed, "clean", "corrupt")},
                 "test_fraction": 0.3, "test_seed": sub_seed(seed, "clean", "test")},
        "split": {"U": 1, "gamma": 0.25, "master_seed": sub_seed(seed, "clean", "split")},
        "problem": {"kind": "hyperclean_softmax", "num_classes": 4},
        "method": {"kind": "ITD", "K": 1, "alpha_in": 0.5},
        "strategy": {"kind": "oehg", "T": CLEAN_T, "outer": {"kind": "adam", "alpha_out": 0.05},
                     "alpha_deploy": 0.5, "lambda0": 0.0, "theta0": 0.0},
        "clean": {"threshold": 0.5, "retrain_K": 500, "retrain_alpha": 0.5,
                  "baseline_raw_lambda": -12.0},
        "output": {"dir": "out", "formats": ["csv", "json"]},
    }


def _clean_check(exit_code, run_dir: Path, seed: int) -> list[str]:
    import csv

    from reference import clean_weights

    failures = _exit_failures(exit_code)
    if failures:
        return failures
    art = run_dir / "artifacts"
    report = json.loads((art / "clean_report.json").read_text())
    with open(art / "weights.csv", newline="") as fh:
        weights = [float(r["raw_weight"]) for r in csv.DictReader(fh)]
    f1 = report["f1"]
    gain = report["accuracy_cleaned"] - report["accuracy_baseline"]
    if f1 is None or not f1 >= CLEAN_F1_FLOOR:
        failures.append(f"F1 {f1} below floor {CLEAN_F1_FLOOR}")
    if not gain >= CLEAN_GAIN_FLOOR:
        failures.append(f"accuracy gain {gain:+.4f} below floor {CLEAN_GAIN_FLOOR}")
    ref = clean_weights(clean_config(seed))
    scale = max(1.0, max(abs(x) for x in ref))
    worst = max(abs(a - b) for a, b in zip(weights, ref)) if len(weights) == len(ref) else math.inf
    if not worst <= REFERENCE_RTOL * scale:
        failures.append(f"raw weights differ from reference by {worst:.3e}")
    return failures


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="members",
            estimates=sum(U_LIST) * MEMBERS_R,
            setup=_members_setup, digest=_members_digest, check=_members_check,
        ),
        Workload(
            name="sweep",
            estimates=SWEEP_R * 1 * SWEEP_GRID_POINTS,
            setup=lambda seed, run_dir: _cli_setup("biasvar", sweep_config(seed), run_dir),
            digest=_cli_digest, check=_sweep_check,
        ),
        Workload(
            name="tune",
            estimates=TUNE_U * TUNE_T,
            setup=lambda seed, run_dir: _cli_setup("tune", tune_config(seed), run_dir),
            digest=_cli_digest, check=_tune_check,
        ),
        Workload(
            name="clean",
            estimates=CLEAN_T,
            setup=lambda seed, run_dir: _cli_setup("clean", clean_config(seed), run_dir),
            digest=_cli_digest, check=_clean_check, calib_array_share=0.5,
        ),
    )
}
