"""Experiment command-line runner.

Subcommands: tune (run a configured HPO strategy), biasvar (bias-variance
decomposition sweep), clean (data hyper-cleaning with sample weights), fpc
(finite-population correction verification), check (derivative and engine
self-verification). Exit codes: 0 success, 1 failed checks, 2 config errors
(message names the field path), 3 numerical aborts (message names the step).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    parse_grid,
    validate_config,
)
from .data import (
    TASKS,
    DataView,
    Dataset,
    SplitPlan,
    carve_holdout,
    complements,
    corrupt_labels,
    derive_seed,
    draw_val_sets,
    full_view,
    read_libsvm,
    subset,
    synthetic,
)
from .diagnostics import RidgeOracle, SweepDesign, bias_variance_sweep, fpc_verify
from .errors import ConfigError, ContractViolationError, NumericalError, ParseError
from .hypergrad import HypergradMethod, estimate_hypergrad, finite_diff_hypergrad, inner_solve
from .output import write_csv, write_json
from .problems import (
    TASK_OF_KIND,
    BilevelProblem,
    Check,
    ModelSpec,
    build_problem,
    rel_err,
    sigmoid,
    verify_derivatives,
)
from .strategies import HPOTrace, OuterOptimizer, run_ehg, run_oehg


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    """Materialize the configured data source, matched to the model's task.

    validate_config holds the synthetic data to the model's task and class
    count; a data file is held to them here, once read.
    """
    task = TASK_OF_KIND[cfg.problem.kind]
    d, s = cfg.data, cfg.data.synthetic
    if d.source == "synthetic":
        return synthetic(task, s.n, s.d, s.classes or 2, s.noise_sigma, s.seed, s.beta_seed)
    try:
        ds = read_libsvm(d.source, task=d.task or task)
    except OSError as exc:
        raise ConfigError(f"cannot read data file: {exc}", field_path="data.source") from exc
    if ds.n < 2:
        raise ConfigError(f"the data file has {ds.n} sample; a train/val split needs 2",
                          field_path="data.source")
    if ds.task != task:
        raise ConfigError(
            f"model {cfg.problem.kind!r} needs a {task} dataset, file gives {ds.task}",
            field_path="data.source",
        )
    if task == "multiclass" and ds.num_classes != cfg.problem.num_classes:
        raise ConfigError(
            f"num_classes is {cfg.problem.num_classes} but the data has {ds.num_classes} classes",
            field_path="problem.num_classes",
        )
    return ds


def _holdout(cfg: ExperimentConfig, ds: Dataset) -> tuple[Dataset, np.ndarray, DataView | None]:
    """(pool, pool_idx, test_view): the rows of ds the splits draw from, their
    indices in ds, and the held-out test rows (None when test_fraction is 0)."""
    if cfg.data.test_fraction == 0:
        return ds, np.arange(ds.n), None
    pool_idx, test_idx = carve_holdout(ds.n, cfg.data.test_fraction, cfg.data.test_seed)
    if pool_idx.size < 2:
        raise ConfigError(f"holding out {test_idx.size} of {ds.n} rows leaves {pool_idx.size} "
                          f"to split; a train/val split needs 2", field_path="data.test_fraction")
    return subset(ds, pool_idx), pool_idx, DataView(ds, test_idx)


def _corrupt(cfg: ExperimentConfig, pool: Dataset, vals: np.ndarray
             ) -> tuple[Dataset, np.ndarray]:
    """(data, hit): pool with data.corrupt applied to its train labels, and the
    rows whose label changed. A row that some split of vals validates on keeps
    its label: validation supervision stays clean."""
    c = cfg.data.corrupt
    if c is None or not c.p > 0:
        return pool, np.zeros(pool.n, dtype=bool)
    if pool.task == "regression":
        raise ConfigError("corruption applies to classification labels", field_path="data.corrupt")
    corrupted, clean_mask = corrupt_labels(pool, c.p, c.seed)
    hit = ~clean_mask
    hit[vals.ravel()] = False
    y = np.where(hit, corrupted.y, pool.y)
    return Dataset(X=pool.X, y=y, task=pool.task, num_classes=pool.num_classes), hit


def _resolve_vec(value, dim: int, path: str) -> np.ndarray:
    """A start point of dim entries: a scalar broadcast (None is 0) or a list of dim."""
    if value is None or isinstance(value, (int, float)):
        return np.full(dim, float(value or 0.0))
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != (dim,):
        raise ConfigError(f"expected {dim} entries, got shape {arr.shape}", field_path=path)
    return arr


def _model_spec(cfg: ExperimentConfig, n_weights: int = 0) -> ModelSpec:
    return ModelSpec(
        kind=cfg.problem.kind,
        smoothing_delta=cfg.problem.smoothing_delta,
        num_classes=cfg.problem.num_classes,
        n_weights=n_weights,
    )


def _problem(cfg: ExperimentConfig, d: int, n_weights: int = 0
             ) -> tuple[BilevelProblem, np.ndarray, np.ndarray]:
    """(problem, lam0, theta0): the configured model on d features and its start point."""
    problem = build_problem(_model_spec(cfg, n_weights), d)
    return (problem,
            _resolve_vec(cfg.strategy.lambda0, problem.hyper_dim, "strategy.lambda0"),
            _resolve_vec(cfg.strategy.theta0, problem.param_dim, "strategy.theta0"))


def _run_strategy(cfg: ExperimentConfig, problem: BilevelProblem, data: Dataset,
                  vals: np.ndarray, lam0: np.ndarray, theta0: np.ndarray,
                  test_view: DataView | None, columns: bool = True) -> HPOTrace:
    """The configured strategy on the splits of data whose validation rows are
    vals; single and ehg both run the ehg loop.

    oehg deploys on the first split's train rows for hyperclean_softmax, whose
    weights are those rows', and on all of data otherwise. columns=False skips
    the trace columns, for a command that writes none of them.
    """
    st = cfg.strategy
    if st.kind == "oehg":
        deploy_view = (DataView(data, complements(data.n, vals[0]))
                       if cfg.problem.kind == "hyperclean_softmax" else full_view(data))
        return run_oehg(problem, data, vals, st.T, cfg.method.alpha_in, st.outer,
                        st.alpha_deploy, lam0, theta0, deploy_view=deploy_view,
                        test_view=test_view, columns=columns)
    return run_ehg(problem, data, vals, cfg.method, st.outer, st.T, lam0, theta0,
                   test_view=test_view, warm_start=st.warm_start, columns=columns)


class _Manifest:
    """Written at start (status running) and finalized after the run.

    Used as a context manager: a command that raises inside it leaves the
    manifest "failed", with the error message and, for a numerical abort,
    the outer step index.
    """

    def __init__(self, out_dir: Path, command: str, cfg0: dict, seeds: dict):
        self.path = out_dir / "manifest.json"
        self.body = {
            "artifact_version": __version__,
            "command": command,
            "config": cfg0,
            "seeds": seeds,
            "status": "running",
            "outputs": [],
            "wall_clock_seconds": None,
        }
        self._t0 = time.monotonic()
        write_json(self.path, self.body)

    def finalize(self, outputs: list[str]) -> None:
        self.body["status"] = "complete"
        self.body["outputs"] = sorted(outputs)
        self.body["wall_clock_seconds"] = time.monotonic() - self._t0
        write_json(self.path, self.body)

    def __enter__(self) -> "_Manifest":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is None:
            return
        self.body["status"] = "failed"
        self.body["error"] = str(exc)
        self.body["failed_step"] = getattr(exc, "step_index", None)
        self.body["wall_clock_seconds"] = time.monotonic() - self._t0
        write_json(self.path, self.body)


def _trace_rows(trace: HPOTrace) -> tuple[list[str], list[list]]:
    """trace.csv: one row per outer step and split, with the columns the trace holds."""
    names = list(trace.columns)
    header = ["step", "split_id", "lambda_norm", "raw_lambda_json", *names]
    rows: list[list] = []
    for t in range(len(trace.lambdas) - 1):
        lam = trace.lambdas[t]
        lam_json = json.dumps([float(x) for x in lam])
        lam_norm = float(np.linalg.norm(lam))
        values = zip(*(trace.columns[name][t].tolist() for name in names))
        rows.extend([t, i, lam_norm, lam_json, *row] for i, row in enumerate(values))
    return header, rows


def cmd_tune(cfg: ExperimentConfig, out_dir: Path) -> int:
    validate_config(cfg, "tune")
    pool, _, test_view = _holdout(cfg, build_dataset(cfg))
    vals = draw_val_sets(pool.n, cfg.split)
    if cfg.strategy.kind == "single":
        vals = vals[:1]  # single runs split 0 alone, so only its rows stay clean
    data, _ = _corrupt(cfg, pool, vals)
    n_weights = pool.n - vals.shape[1] if cfg.problem.kind == "hyperclean_softmax" else 0
    problem, lam0, theta0 = _problem(cfg, pool.d, n_weights)

    with _Manifest(
        out_dir, "tune", config_to_dict(cfg),
        {"data_seed": cfg.data.synthetic.seed, "beta_seed": cfg.data.synthetic.beta_seed,
         "master_seed": cfg.split.master_seed, "test_seed": cfg.data.test_seed},
    ) as manifest:
        trace = _run_strategy(cfg, problem, data, vals, lam0, theta0, test_view)
        outputs = []
        if "csv" in cfg.output.formats:
            header, rows = _trace_rows(trace)
            write_csv(out_dir / "trace.csv", header, rows)
            outputs.append("trace.csv")
        if "json" in cfg.output.formats:
            lam_final = trace.final_lambda
            final = {
                "lambda_raw": [float(x) for x in lam_final],
                "lambda_effective": [float(x) for x in problem.effective(lam_final)],
                "per_split_theta": [[float(x) for x in th] for th in trace.final_thetas],
                "deployed_theta": ([float(x) for x in trace.deployed_theta]
                                   if trace.deployed_theta is not None else None),
                "final_val_losses": trace.columns["val_loss"][-1].tolist(),
                "config": config_to_dict(cfg),
            }
            write_json(out_dir / "final.json", final)
            outputs.append("final.json")
        manifest.finalize(outputs)
    return 0


def cmd_biasvar(cfg: ExperimentConfig, out_dir: Path) -> int:
    validate_config(cfg, "biasvar")
    s = cfg.data.synthetic
    design = SweepDesign(n=s.n, d=s.d, noise_sigma=s.noise_sigma, gamma=cfg.split.gamma,
                         beta_seed=s.beta_seed, mode=cfg.split.mode)
    bv = cfg.biasvar
    method = "oracle" if bv.estimator == "oracle" else cfg.method
    grid = parse_grid(bv.grid)
    spec = _model_spec(cfg)
    with _Manifest(
        out_dir, "biasvar", config_to_dict(cfg),
        {"sweep_seed": cfg.split.master_seed, "beta_seed": s.beta_seed},
    ) as manifest:
        report = bias_variance_sweep(
            design, method, grid, R=bv.R, U=bv.U, seed=cfg.split.master_seed,
            spec=spec, ref_K=bv.ref_K,
        )
        rows = [
            [r.lambda_eff, r.error, r.variance, r.bias_sq, r.identity_residual,
             report.R, report.U]
            for r in report.rows
        ]
        write_csv(out_dir / "biasvar.csv",
                  ["lambda", "error", "variance", "bias_sq", "identity_residual", "R", "U"],
                  rows)
        manifest.finalize(["biasvar.csv"])
    return 0


def _train_softmax(X: np.ndarray, y: np.ndarray, num_classes: int, K: int,
                   alpha: float, raw_lambda: float) -> np.ndarray:
    """Plain weakly regularized softmax fit, used for baselines and retraining."""
    ds = Dataset(X=X, y=y, task="multiclass", num_classes=num_classes)
    problem = build_problem(ModelSpec(kind="softmax_l2", num_classes=num_classes), ds.d)
    traj = inner_solve(problem, np.array([raw_lambda]), np.zeros(problem.param_dim),
                       full_view(ds), K, alpha)
    return traj.final.reshape(ds.d, num_classes)


def _accuracy(W: np.ndarray, view: DataView) -> float:
    pred = np.argmax(view.X @ W, axis=1)
    return float(np.mean(pred == view.y))


def cmd_clean(cfg: ExperimentConfig, out_dir: Path) -> int:
    validate_config(cfg, "clean")
    pool, pool_idx, test_view = _holdout(cfg, build_dataset(cfg))
    num_classes = pool.num_classes
    vals = draw_val_sets(pool.n, cfg.split)  # validate_config holds clean to U = 1
    train_idx = complements(pool.n, vals[0])
    dirty, hit = _corrupt(cfg, pool, vals)
    mask_train = hit[train_idx]
    corrupt_seed = cfg.data.corrupt.seed if cfg.data.corrupt is not None else 0

    problem, lam0, theta0 = _problem(cfg, pool.d, n_weights=len(train_idx))

    with _Manifest(
        out_dir, "clean", config_to_dict(cfg),
        {"data_seed": cfg.data.synthetic.seed, "corrupt_seed": corrupt_seed,
         "master_seed": cfg.split.master_seed, "test_seed": cfg.data.test_seed},
    ) as manifest:
        # clean writes only the learned weights: its trace keeps no columns, and
        # the test rows score the retrained fits below
        trace = _run_strategy(cfg, problem, dirty, vals, lam0, theta0, test_view=None,
                              columns=False)
        u = trace.final_lambda
        sig = sigmoid(u)
        threshold = cfg.clean.threshold
        flagged = sig < threshold  # low weight = predicted corrupt

        n_true = int(mask_train.sum())
        f1 = None
        f1_reason = None
        if n_true == 0:
            f1_reason = "not applicable: no corrupted samples in the training split"
        else:
            tp = int(np.sum(flagged & mask_train))
            fp = int(np.sum(flagged & ~mask_train))
            fn = int(np.sum(~flagged & mask_train))
            f1 = (2.0 * tp / (2.0 * tp + fp + fn)) if (2 * tp + fp + fn) > 0 else 0.0

        train_view = DataView(dirty, train_idx)
        keep = ~flagged
        if not np.any(keep):
            keep = np.ones_like(keep)
        cl = cfg.clean
        W_clean = _train_softmax(train_view.X[keep], train_view.y[keep], num_classes,
                                 cl.retrain_K, cl.retrain_alpha, cl.baseline_raw_lambda)
        W_dirty = _train_softmax(train_view.X, train_view.y, num_classes,
                                 cl.retrain_K, cl.retrain_alpha, cl.baseline_raw_lambda)

        report = {
            "f1": f1,
            "f1_reason": f1_reason,
            "threshold": threshold,
            "n_train": int(len(train_idx)),
            "n_corrupted_true": n_true,
            "n_flagged": int(flagged.sum()),
            "mean_weight_clean": (float(np.mean(sig[~mask_train]))
                                  if np.any(~mask_train) else None),
            "mean_weight_corrupted": (float(np.mean(sig[mask_train])) if n_true > 0 else None),
            "config": config_to_dict(cfg),
        }
        if test_view is not None:
            report["accuracy_cleaned"] = _accuracy(W_clean, test_view)
            report["accuracy_baseline"] = _accuracy(W_dirty, test_view)
            if trace.deployed_theta is not None:
                W_dep = trace.deployed_theta.reshape(pool.d, num_classes)
                report["accuracy_deployed"] = _accuracy(W_dep, test_view)

        sample_ids = pool_idx[train_idx]
        rows = [
            [int(sample_ids[i]), float(u[i]), float(sig[i]), int(not mask_train[i])]
            for i in range(len(train_idx))
        ]
        write_csv(out_dir / "weights.csv",
                  ["sample_id", "raw_weight", "sigmoid_weight", "is_clean_truth"], rows)
        write_json(out_dir / "clean_report.json", report)
        manifest.finalize(["weights.csv", "clean_report.json"])
    if f1_reason:
        print(f"warning: {f1_reason}", file=sys.stderr)
    return 0


def cmd_fpc(n: int, gamma: float, U_values: list[int], samples: int, seed: int,
            out_dir: Path | None, d: int = 1, noise_sigma: float = 0.5,
            lambda_eff: float = 1.0) -> int:
    if not (lambda_eff > 0 and math.isfinite(lambda_eff)):
        raise ConfigError("lambda_eff must be positive and finite", field_path="lambda_eff")
    ds = synthetic("regression", n, d, 0, noise_sigma, seed=derive_seed(seed, 1),
                   beta_seed=derive_seed(seed, 2))
    problem = build_problem(ModelSpec(kind="ridge"), d)
    lam_raw = math.log(lambda_eff)
    rows = []
    for U in U_values:
        rep = fpc_verify(ds, gamma, U, lam_raw, problem, samples, derive_seed(seed, 100 + U))
        rows.append([rep.n, rep.gamma, rep.U, rep.V, rep.sigma_sq, rep.mc_estimate,
                     rep.exact_without, rep.with_replacement, rep.samples])
        print(
            f"n={rep.n} gamma={rep.gamma:g} U={rep.U} V={rep.V} "
            f"sigma_sq={rep.sigma_sq:.6e} mc={rep.mc_estimate:.6e} "
            f"exact_without={rep.exact_without:.6e} with_replacement={rep.with_replacement:.6e}"
        )
    if out_dir is not None:
        write_csv(out_dir / "fpc.csv",
                  ["n", "gamma", "U", "V", "sigma_sq", "mc_estimate",
                   "exact_without", "with_replacement", "samples"], rows)
    return 0


# ---------------------------------------------------------------------------
# self-verification suite

def _zoo_dataset(kind: str, n: int, d: int, seed: int) -> Dataset:
    """Seeded data of the task a zoo model fits: regression, +-1 labels or 3 classes."""
    task = TASK_OF_KIND[kind]
    return synthetic(task, n, d, 3 if task == "multiclass" else 2,
                     0.3 if task == "regression" else 0.4, seed, 1 + TASKS.index(task))


def _zoo_problem(kind: str, ds: Dataset, n_weights: int = 0,
                 smoothing_delta: float = 1e-3) -> BilevelProblem:
    """The zoo model of kind on ds; hyperclean_softmax weighs n_weights train rows."""
    spec = ModelSpec(kind=kind, smoothing_delta=smoothing_delta,
                     num_classes=ds.num_classes, n_weights=n_weights)
    return build_problem(spec, ds.d)


def _zoo_instance(kind: str, data_seed: int, split_seed: int):
    """Small seeded (problem, train view, val view) triple for a zoo model."""
    if TASK_OF_KIND[kind] == "multiclass":
        ds = _zoo_dataset(kind, 16 if kind == "hyperclean_softmax" else 30, 3, data_seed)
    else:
        ds = _zoo_dataset(kind, 24, 4, data_seed)
    val_idx = draw_val_sets(ds.n, SplitPlan(U=1, gamma=0.25, master_seed=split_seed))[0]
    train = DataView(ds, complements(ds.n, val_idx))
    n_weights = train.m if kind == "hyperclean_softmax" else 0
    return _zoo_problem(kind, ds, n_weights), train, DataView(ds, val_idx)


def _check_instances(seed: int = 20240601):
    """One instance per zoo model; each task draws its data from its own stream."""
    return {kind: _zoo_instance(kind, derive_seed(seed, 3 + TASKS.index(task)),
                                derive_seed(seed, 6))
            for kind, task in TASK_OF_KIND.items()}


def check_model(kind: str, problem: BilevelProblem, train: DataView, val: DataView,
                seed: int = 13) -> list[Check]:
    """Derivative and engine cross-checks for one model, each named kind/..."""
    checks = [dataclasses.replace(c, name=f"{kind}/deriv/{c.name}")
              for c in verify_derivatives(problem, train, val, trials=5, seed=seed)]

    rng = np.random.Generator(np.random.PCG64(seed + 1))
    lam = 0.3 * rng.standard_normal(problem.hyper_dim)
    theta0 = 0.5 * rng.standard_normal(problem.param_dim)
    alpha = 0.05

    def estimate(kind: str, K: int, start=theta0, Z: int = 0) -> np.ndarray:
        """The estimator's hypergradient after K inner steps at alpha from start."""
        method = HypergradMethod(kind=kind, K=K, alpha_in=alpha, Z=Z)
        return estimate_hypergrad(problem, lam, start, train, val, method).grad

    g_fd = finite_diff_hypergrad(problem, lam, theta0, train, val, 5, alpha)
    checks.append(Check(f"{kind}/itd_vs_fd", rel_err(estimate("ITD", 5) - g_fd, g_fd), 1e-4))

    # run_oehg's first update (one split, gd at unit step) against one-step ITD;
    # its split trains on the rows that val leaves, which are train's
    lam_oe = run_oehg(problem, train.dataset, val.idx[None], 1, alpha,
                      OuterOptimizer(kind="gd", alpha_out=1.0), alpha, lam, theta0,
                      deploy_view=train).lambdas[1]
    g_one = estimate("ITD", 1)
    checks.append(Check(f"{kind}/oehg_one_step", rel_err(lam_oe - (lam - g_one), g_one), 1e-10))

    # the FP-vs-CG agreement check needs a strictly SPD Hessian; the
    # hyperclean inner loss is unregularized (PSD only), so FP has no
    # contraction guarantee there and the check is skipped
    if problem.supports_aid and kind != "hyperclean_softmax":
        g_cg = estimate("AID_CG", 50, Z=200)
        g_fp = estimate("AID_FP", 50, Z=4000)  # fixed-point step = alpha
        checks.append(Check(f"{kind}/aid_fp_vs_cg", rel_err(g_cg - g_fp, g_cg), 1e-6))

    if kind == "ridge":
        oracle = RidgeOracle(train, val)
        theta_hat = oracle.theta_hat(float(np.exp(lam[0])))
        exact = oracle.hypergrad_raw(float(lam[0]))
        g_aid = estimate("AID_CG", 0, start=theta_hat, Z=problem.param_dim + 2)
        checks.append(Check("ridge/aid_vs_oracle", rel_err(g_aid[0] - exact, exact), 1e-6))
        g500 = estimate("ITD", 500, start=np.zeros(problem.param_dim))
        checks.append(Check("ridge/itd_bias_k500", rel_err(g500[0] - exact, exact), 1e-4))
    return checks


def run_zoo_checks(seed: int = 20240601) -> list[Check]:
    """check_model's checks of every zoo kind, sorted by name."""
    checks = []
    for kind, (problem, train, val) in _check_instances(seed).items():
        checks.extend(check_model(kind, problem, train, val))
    return sorted(checks, key=lambda c: c.name)


def cmd_check(out_dir: Path | None) -> int:
    checks = run_zoo_checks()
    passed = all(c.passed for c in checks)
    for c in checks:
        status = "ok" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: max_err={c.max_err:.3e} tol={c.tol:.1e}")
    print(f"check: {'all passed' if passed else 'FAILURES PRESENT'}")
    if out_dir is not None:
        rows = [{**dataclasses.asdict(c), "passed": c.passed} for c in checks]
        write_json(out_dir / "check_report.json", {"passed": passed, "checks": rows})
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _add_common(sub: argparse.ArgumentParser) -> argparse.ArgumentParser:
    sub.add_argument("--config", required=True, help="YAML config path")
    sub.add_argument("--out", default=None, help="output directory (overrides output.dir)")
    sub.add_argument("--seed", type=int, default=None,
                     help="override split.master_seed")
    return sub


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bihpo",
        description="Bilevel hyperparameter optimization experiments",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("tune", help="run the configured HPO strategy"))
    _add_common(sub.add_parser("biasvar", help="bias-variance decomposition sweep"))
    _add_common(sub.add_parser("clean", help="data hyper-cleaning run"))
    fpc = sub.add_parser("fpc", help="finite-population correction verification")
    fpc.add_argument("--n", type=int, required=True)
    fpc.add_argument("--gamma", type=float, required=True)
    fpc.add_argument("--U", type=str, required=True, help="comma-separated ensemble sizes")
    fpc.add_argument("--samples", type=int, default=100000)
    fpc.add_argument("--seed", type=int, default=0)
    fpc.add_argument("--out", default=None)
    fpc.add_argument("--d", type=int, default=1)
    fpc.add_argument("--noise-sigma", type=float, default=0.5)
    fpc.add_argument("--lambda-eff", type=float, default=1.0)
    chk = sub.add_parser("check", help="derivative and engine self-verification")
    chk.add_argument("--out", default=None)
    return ap


def _load_with_overrides(args) -> tuple[ExperimentConfig, Path]:
    cfg = load_config(args.config)
    if args.seed is not None:
        raw = config_to_dict(cfg)
        raw["split"]["master_seed"] = int(args.seed)
        cfg = config_from_dict(raw)
    return cfg, Path(args.out or cfg.output.dir)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config_commands = {"tune": cmd_tune, "biasvar": cmd_biasvar, "clean": cmd_clean}
        if args.command in config_commands:
            return config_commands[args.command](*_load_with_overrides(args))
        if args.command == "fpc":
            sizes = [x for x in args.U.split(",") if x.strip()]
            if not sizes or not all(x.strip().isdecimal() for x in sizes):
                raise ConfigError(f"--U must list ensemble sizes, got {args.U!r}", field_path="U")
            U_values = [int(x) for x in sizes]
            out = Path(args.out) if args.out else None
            return cmd_fpc(args.n, args.gamma, U_values, args.samples, args.seed, out,
                           d=args.d, noise_sigma=args.noise_sigma,
                           lambda_eff=args.lambda_eff)
        if args.command == "check":
            return cmd_check(Path(args.out) if args.out else None)
        raise ConfigError(f"unknown command {args.command!r}", field_path="")
    except ParseError as exc:
        where = f" (line {exc.line})" if exc.line else ""
        print(f"config parse error{where}: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        where = f" [{exc.field_path}]" if exc.field_path else ""
        print(f"config error{where}: {exc}", file=sys.stderr)
        return 2
    except ContractViolationError as exc:
        where = f" [{exc.field}]" if exc.field else ""
        print(f"config error{where}: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        where = f" (step {exc.step_index})" if exc.step_index is not None else ""
        print(f"numerical error{where}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
