"""Acceptance gate: the ten primary empirical criteria at their stated tolerances.

Every test prints one `criterion NN ...: PASS/FAIL` line (shown with -s/-rA;
under plain pytest -v the per-test PASSED/FAILED line carries the same verdict)
and enforces the criterion's runtime budget on top of its tolerance.
"""

import json
import math
import time

import numpy as np
import yaml

from bihpo.cli import _accuracy, _train_softmax, main
from bihpo.data import (
    DataView,
    Dataset,
    Split,
    SplitPlan,
    carve_holdout,
    corrupt_labels,
    derive_seed,
    full_view,
    gen_linear,
    gen_multiclass,
    make_splits,
    subset,
)
from bihpo.diagnostics import (
    RidgeOracle,
    SweepDesign,
    bias_variance_sweep,
    ensemble_variance_curve,
    fpc_verify,
)
from bihpo.hypergrad import (
    HypergradMethod,
    aid_hypergrad,
    estimate_hypergrad,
    finite_diff_hypergrad,
    inner_solve,
    itd_hypergrad,
)
from bihpo.problems import MODEL_KINDS, ModelSpec, build_problem, sigmoid
from bihpo.strategies import OuterOptimizer, run_ehg, run_oehg
from helpers import zoo_instance


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_itd_matches_finite_differences():
    t0 = time.monotonic()
    worst = 0.0
    for kind in MODEL_KINDS:
        prob, tr, va = zoo_instance(kind)
        for K in (1, 5, 20):
            method = HypergradMethod(kind="ITD", K=K, alpha_in=0.05)
            for probe in range(20):
                rng = np.random.Generator(
                    np.random.PCG64(derive_seed(4242, probe * 31 + K)))
                lam = 0.4 * rng.standard_normal(prob.hyper_dim)
                th0 = 0.5 * rng.standard_normal(prob.param_dim)
                g = estimate_hypergrad(prob, lam, th0, tr, va, method).grad
                fd = finite_diff_hypergrad(prob, lam, th0, tr, va, K, 0.05, eps=1e-7)
                rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
                worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    verdict(1, "ITD matches central differences", worst < 1e-4 and elapsed < 30.0,
            f"worst rel err {worst:.2e} over 480 probes, {elapsed:.1f}s")


def test_criterion_02_implicit_gradient_exactness():
    t0 = time.monotonic()
    worst = 0.0
    for d in range(1, 11):
        n = 12 * d
        ds, _ = gen_linear(n, d, 0.3, seed=derive_seed(321, d), beta_seed=d)
        split = make_splits(n, SplitPlan(U=1, gamma=0.25,
                                         master_seed=derive_seed(654, d)))[0]
        tr, va = split.train_view(ds), split.val_view(ds)
        prob = build_problem(ModelSpec(kind="ridge"), d)
        oracle = RidgeOracle(tr, va)
        for u in (-0.5, 0.0, 0.8):
            theta = oracle.theta_hat(math.exp(u))
            g = aid_hypergrad(prob, np.array([u]), theta, tr, va,
                              solver="cg", Z=d).grad
            exact = oracle.hypergrad_raw(u)
            worst = max(worst, abs(g[0] - exact) / max(abs(exact), 1e-12))
    elapsed = time.monotonic() - t0
    verdict(2, "AID-CG exact at the inner optimum", worst < 1e-6 and elapsed < 5.0,
            f"worst rel err {worst:.2e} for d = 1..10, {elapsed:.1f}s")


def test_criterion_03_itd_bias_decays_geometrically():
    ds, _ = gen_linear(50, 1, 0.3, seed=31, beta_seed=6)
    split = make_splits(50, SplitPlan(U=1, gamma=0.25, master_seed=13))[0]
    tr, va = split.train_view(ds), split.val_view(ds)
    prob = build_problem(ModelSpec(kind="ridge"), 1)
    exact = RidgeOracle(tr, va).hypergrad_raw(0.0)
    # step chosen for contraction factor q = 0.8: errors stay well above the
    # float floor across the whole K schedule, so the decay is cleanly monotone
    L, mu = RidgeOracle(tr, va).curvature(1.0)
    alpha = 0.4 / (L + mu)
    lam = np.array([0.0])
    errs = []
    for K in (5, 10, 20, 50, 100, 200):
        traj = inner_solve(prob, lam, np.zeros(1), tr, K, alpha)
        errs.append(abs(itd_hypergrad(prob, lam, traj, tr, va).grad[0] - exact))
    monotone = all(a > b for a, b in zip(errs, errs[1:]))
    verdict(3, "ITD bias decays monotonically in K", monotone and errs[-1] < 1e-3,
            "errors " + " > ".join(f"{e:.1e}" for e in errs))


def test_criterion_04_ensemble_variance_slope():
    t0 = time.monotonic()
    design = SweepDesign(n=100, d=1, noise_sigma=0.5, gamma=0.25)
    method = HypergradMethod(kind="ITD", K=200, alpha_in=0.1)
    curve = ensemble_variance_curve(design, method, 1.0, R=200,
                                    U_list=[1, 2, 4, 8, 16], seed=77)
    elapsed = time.monotonic() - t0
    verdict(4, "ensemble variance scales like 1/U",
            abs(curve.slope + 1.0) <= 0.25 and elapsed < 120.0,
            f"log-log slope {curve.slope:+.4f}, {elapsed:.1f}s")


def test_criterion_05_bias_variance_identity_sweep():
    t0 = time.monotonic()
    design = SweepDesign(n=100, d=1, noise_sigma=0.5, gamma=0.25)
    method = HypergradMethod(kind="ITD", K=500, alpha_in=0.1)
    grid = [float(x) for x in np.linspace(0.3, 3.0, 50)]
    report = bias_variance_sweep(design, method, grid, R=500, U=1, seed=99)
    elapsed = time.monotonic() - t0
    worst_resid = max(r.identity_residual for r in report.rows)
    var_dominates = all(r.variance >= r.bias_sq for r in report.rows)
    verdict(5, "error = variance + bias^2 on the 50-point sweep",
            worst_resid <= 1e-10 and var_dominates and elapsed < 180.0,
            f"max identity residual {worst_resid:.1e}, variance >= bias^2 at "
            f"all {len(report.rows)} points, {elapsed:.1f}s")


def test_criterion_06_finite_population_correction():
    t0 = time.monotonic()
    ds, _ = gen_linear(6, 1, 0.5, seed=derive_seed(777, 1),
                       beta_seed=derive_seed(777, 2))
    prob = build_problem(ModelSpec(kind="ridge"), 1)
    devs = []
    ok = True
    for U in (1, 3, 7, 15):
        rep = fpc_verify(ds, 0.5, U, 0.0, prob, samples=100_000,
                         seed=derive_seed(777, 100 + U))
        assert rep.V == 15
        if U == 15:
            ok = ok and rep.mc_estimate == 0.0 and rep.exact_without == 0.0
            devs.append("U=15 exact 0")
        else:
            dev = abs(rep.mc_estimate - rep.exact_without) / rep.exact_without
            ok = ok and dev <= 0.05
            devs.append(f"U={U} dev {dev:.3f}")
    elapsed = time.monotonic() - t0
    verdict(6, "without-replacement correction verified", ok and elapsed < 30.0,
            ", ".join(devs) + f", {elapsed:.1f}s")


def _final_test_loss(prob, pool, lam, test_view):
    traj = inner_solve(prob, lam, np.zeros(prob.param_dim), full_view(pool),
                       400, 0.1)
    return prob.outer_loss(lam, traj.final, test_view)


def test_criterion_07_ensemble_beats_single_split():
    t0 = time.monotonic()
    prob = build_problem(ModelSpec(kind="ridge"), 5)
    method = HypergradMethod(kind="ITD", K=60, alpha_in=0.1)
    wins = 0
    for s in range(20):
        ds, _ = gen_linear(100, 5, 0.1, seed=derive_seed(1000, s),
                           beta_seed=derive_seed(2000, s))
        pool_idx, test_idx = carve_holdout(100, 0.3, derive_seed(3000, s))
        pool = subset(ds, pool_idx)
        test_view = DataView(ds, test_idx)
        splits = make_splits(pool.n, SplitPlan(U=5, gamma=0.25,
                                               master_seed=derive_seed(4000, s)))
        lam0, th0 = np.array([0.0]), np.zeros(5)
        single = run_ehg(prob, pool, splits[:1], method,
                         OuterOptimizer(kind="gd", alpha_out=0.5), 30, lam0, th0)
        ehg = run_ehg(prob, pool, splits, method,
                      OuterOptimizer(kind="gd", alpha_out=0.5), 30, lam0, th0)
        loss_single = _final_test_loss(prob, pool, single.final_lambda, test_view)
        loss_ehg = _final_test_loss(prob, pool, ehg.final_lambda, test_view)
        wins += int(loss_ehg <= loss_single)
    elapsed = time.monotonic() - t0
    verdict(7, "EHG (U=5) generalizes at least as well as single-split",
            wins >= 14 and elapsed < 120.0, f"wins {wins}/20, {elapsed:.1f}s")


def test_criterion_08_hyper_cleaning_recovers_corrupted_labels():
    t0 = time.monotonic()
    f1s, gains = [], []
    for s in range(5):
        ds, _ = gen_multiclass(1000, 20, 4, 0.4, seed=derive_seed(500, s),
                               beta_seed=derive_seed(600, s))
        pool_idx, test_idx = carve_holdout(1000, 0.3, derive_seed(700, s))
        pool = subset(ds, pool_idx)
        test_view = DataView(ds, test_idx)
        split = make_splits(pool.n, SplitPlan(U=1, gamma=0.25,
                                              master_seed=derive_seed(800, s)))[0]
        corrupted, clean_mask = corrupt_labels(pool, 0.5, derive_seed(900, s))
        y = pool.y.copy()
        y[split.train_idx] = corrupted.y[split.train_idx]
        dirty = Dataset(X=pool.X, y=y, task="multiclass", num_classes=4)
        mask_train = ~clean_mask[split.train_idx]

        n_w = len(split.train_idx)
        prob = build_problem(ModelSpec(kind="hyperclean_softmax", num_classes=4,
                                       n_weights=n_w), pool.d)
        trace = run_oehg(prob, dirty, [split], T=300, alpha_in=0.5,
                         opt=OuterOptimizer(kind="adam", alpha_out=0.05),
                         alpha_deploy=0.5, lam0=np.zeros(n_w),
                         theta0=np.zeros(prob.param_dim),
                         deploy_view=split.train_view(dirty))
        flagged = sigmoid(trace.final_lambda) < 0.5
        tp = int(np.sum(flagged & mask_train))
        fp = int(np.sum(flagged & ~mask_train))
        fn = int(np.sum(~flagged & mask_train))
        f1s.append(2.0 * tp / (2.0 * tp + fp + fn))

        train_view = split.train_view(dirty)
        keep = ~flagged
        W_clean = _train_softmax(train_view.X[keep], train_view.y[keep], 4,
                                 500, 0.5, -12.0)
        W_dirty = _train_softmax(train_view.X, train_view.y, 4, 500, 0.5, -12.0)
        gains.append(_accuracy(W_clean, test_view) - _accuracy(W_dirty, test_view))
    elapsed = time.monotonic() - t0
    med_f1 = float(np.median(f1s))
    med_gain = float(np.median(gains))
    verdict(8, "hyper-cleaning F1 and retrain gain",
            med_f1 >= 0.80 and med_gain >= 0.05 and elapsed < 180.0,
            f"median F1 {med_f1:.3f}, median accuracy gain "
            f"{100.0 * med_gain:+.1f}pp, {elapsed:.1f}s")


def test_criterion_09_online_one_step_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for kind in MODEL_KINDS:
        prob, tr, va = zoo_instance(kind)
        rng = np.random.Generator(np.random.PCG64(derive_seed(31337, 1)))
        lam = 0.3 * rng.standard_normal(prob.hyper_dim)
        shadow = 0.5 * rng.standard_normal(prob.param_dim)
        # run_oehg's first update: one split, gd at unit step, so lam1 = lam - g
        split = Split(train_idx=tr.idx, val_idx=va.idx, seed=0)
        lam1 = run_oehg(prob, tr.dataset, [split], T=1, alpha_in=0.05,
                        opt=OuterOptimizer(kind="gd", alpha_out=1.0), alpha_deploy=0.05,
                        lam0=lam, theta0=shadow, deploy_view=tr).lambdas[1]
        traj = inner_solve(prob, lam, shadow, tr, 1, 0.05)
        ref = itd_hypergrad(prob, lam, traj, tr, va).grad
        worst = max(worst, float(np.linalg.norm(lam1 - (lam - ref))
                                 / max(np.linalg.norm(ref), 1e-12)))
    elapsed = time.monotonic() - t0
    verdict(9, "OEHG step equals one-step unrolling",
            worst < 1e-10 and elapsed < 10.0,
            f"worst rel err {worst:.1e} across the zoo, {elapsed:.1f}s")


def _artifact_bytes(out_dir):
    """Data artifacts only: the manifest carries wall-clock run metadata."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.name != "manifest.json"}


def test_criterion_10_cli_determinism(tmp_path):
    tune_cfg = {
        "data": {"synthetic": {"n": 60, "d": 3, "noise_sigma": 0.3, "seed": 11,
                               "beta_seed": 2}, "test_fraction": 0.2},
        "split": {"U": 3, "gamma": 0.25, "master_seed": 5},
        "method": {"kind": "ITD", "K": 25, "alpha_in": 0.1},
        "strategy": {"kind": "ehg", "T": 20,
                     "outer": {"kind": "gd", "alpha_out": 0.5}, "lambda0": 1.0},
    }
    biasvar_cfg = {
        "data": {"synthetic": {"n": 60, "d": 2, "noise_sigma": 0.5}},
        "split": {"U": 1, "gamma": 0.25, "master_seed": 3},
        "method": {"kind": "ITD", "K": 20, "alpha_in": 0.1},
        "biasvar": {"grid": "0.5:2:3", "R": 4, "U": 2},
    }
    clean_cfg = {
        "data": {"synthetic": {"n": 60, "d": 3, "noise_sigma": 0.4, "seed": 7,
                               "beta_seed": 3, "classes": 4},
                 "test_fraction": 0.25, "corrupt": {"p": 0.5, "seed": 3}},
        "split": {"U": 1, "gamma": 0.6, "master_seed": 2},
        "problem": {"kind": "hyperclean_softmax", "num_classes": 4},
        "method": {"kind": "ITD", "K": 1, "alpha_in": 0.5},
        "strategy": {"kind": "oehg", "T": 60, "alpha_deploy": 0.5,
                     "outer": {"kind": "adam", "alpha_out": 0.05}},
    }
    jobs = []
    for name, cfg in (("tune", tune_cfg), ("biasvar", biasvar_cfg),
                      ("clean", clean_cfg)):
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        jobs.append((name, ["--config", str(path)]))
    jobs.append(("fpc", ["--n", "6", "--gamma", "0.5", "--U", "1,3,15",
                         "--samples", "500", "--seed", "9"]))
    jobs.append(("check", []))

    mismatched = []
    for name, argv in jobs:
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{name}{run}"
            assert main([name, *argv, "--out", str(out)]) == 0
            outs.append(_artifact_bytes(out))
        if outs[0] != outs[1] or not outs[0]:
            mismatched.append(name)
    verdict(10, "CLI reruns are byte-identical", not mismatched,
            "all of tune/biasvar/clean/fpc/check reproduce exactly"
            if not mismatched else f"mismatch in {mismatched}")
