"""Closed-form ridge oracle, bias-variance decomposition, variance scaling, FPC."""

import dataclasses
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bihpo import diagnostics
from bihpo.data import (
    DataView,
    Dataset,
    SplitPlan,
    StackedView,
    complements,
    derive_seed,
    draw_val_sets,
    full_view,
    gen_linear,
    gen_multiclass,
    make_splits,
    split_stacks,
    synthetic,
    val_size,
)
from bihpo.diagnostics import (
    RidgeOracle,
    SweepDesign,
    _replicate_stacks,
    _stacked_estimates,
    bias_variance_sweep,
    ensemble_variance_curve,
    fpc_verify,
    fpc_with_replacement,
    fpc_without_replacement,
)
from bihpo.errors import (
    ContractViolationError,
    InfeasiblePlanError,
    NumericalError,
    SingularMatrixError,
)
from bihpo.hypergrad import (
    FORWARD_ARRAYS,
    HypergradMethod,
    estimate_hypergrad,
    forward_hypergrad,
    inner_solve,
)
from bihpo.problems import ModelSpec, build_problem

DESIGN = SweepDesign(n=60, d=2, noise_sigma=0.5, gamma=0.25)
RIDGE = ModelSpec(kind="ridge")
ITD25 = HypergradMethod(kind="ITD", K=25, alpha_in=0.1)


def tiny_pair():
    """Two-point train set and one-point validation set, both 1-d."""
    tr = full_view(Dataset(X=np.array([[1.0], [1.0]]), y=np.array([1.0, 1.0]),
                           task="regression"))
    va = full_view(Dataset(X=np.array([[1.0]]), y=np.array([0.0]),
                           task="regression"))
    return tr, va


def ridge_views(n=40, d=3, seed=17):
    ds, _ = gen_linear(n, d, 0.3, seed=seed, beta_seed=2)
    split = make_splits(n, SplitPlan(U=1, gamma=0.25, master_seed=3))[0]
    return DataView(ds, split.train_idx), DataView(ds, split.val_idx)


# ---------------------------------------------------------------------------
# closed form

def test_closed_form_identity_design_no_regularization():
    view = full_view(Dataset(X=np.eye(2), y=np.array([1.0, 2.0]), task="regression"))
    assert_allclose(RidgeOracle(view, view).theta_hat(0.0), [1.0, 2.0])


def test_closed_form_two_point_hand_value():
    # A = 1, b = 1 after the 1/m normalization, so (1 + 1) theta = 1
    tr, va = tiny_pair()
    assert_allclose(RidgeOracle(tr, va).theta_hat(1.0), [0.5])


def test_closed_form_is_stationary_point_of_inner_loss():
    tr, va = ridge_views()
    prob = build_problem(ModelSpec(kind="ridge"), 3)
    for le in (0.1, 1.0, 5.0):
        theta = RidgeOracle(tr, va).theta_hat(le)
        g = prob.inner_grad_theta(np.array([math.log(le)]), theta, tr)
        assert np.linalg.norm(g) < 1e-10


def test_oracle_hand_hypergrad_and_unit_conventions():
    # theta_hat(1) = 1/2, dtheta = -1/4, val resid = 1/2:
    # d valMSE / d lambda_eff = 2 * (1/2) * (-1/4) = -1/4 in the mean-normalized
    # convention; conventions that keep the unnormalized sum X^T X + lambda I
    # report the same derivative as -1/8 (divide by m_train = 2).
    tr, va = tiny_pair()
    oracle = RidgeOracle(tr, va)
    assert_allclose(oracle.hypergrad_eff(1.0), -0.25, atol=1e-14)
    assert_allclose(oracle.hypergrad_eff(1.0) / tr.m, -0.125, atol=1e-14)
    assert_allclose(oracle.hypergrad_raw(0.0), -0.25, atol=1e-14)


def test_oracle_raw_coordinate_chain_rule():
    tr, va = ridge_views()
    oracle = RidgeOracle(tr, va)
    for u in (-1.0, 0.0, 0.7):
        assert_allclose(oracle.hypergrad_raw(u),
                        math.exp(u) * oracle.hypergrad_eff(math.exp(u)), rtol=1e-14)


def test_oracle_zero_validation_residual_gives_zero_gradient():
    tr, va0 = tiny_pair()
    theta = RidgeOracle(tr, va0).theta_hat(1.0)
    va = full_view(Dataset(X=np.array([[1.0]]), y=np.array([theta[0]]),
                           task="regression"))
    assert RidgeOracle(tr, va).hypergrad_eff(1.0) == 0.0


def test_oracle_matches_central_difference_of_val_loss():
    tr, va = ridge_views()
    oracle = RidgeOracle(tr, va)
    eps = 1e-6
    for le in (0.3, 1.0, 2.5):
        fd = (oracle.val_loss(le + eps) - oracle.val_loss(le - eps)) / (2 * eps)
        assert_allclose(oracle.hypergrad_eff(le), fd, rtol=1e-7)


def test_oracle_rejects_negative_regularization():
    tr, va = tiny_pair()
    with pytest.raises(ContractViolationError):
        RidgeOracle(tr, va).theta_hat(-0.5)


def test_oracle_refuses_a_singular_system():
    # a duplicated feature column makes X^T X singular, so lambda_eff = 0 has no unique solution
    X = np.random.Generator(np.random.PCG64(4)).standard_normal((12, 2))
    ds = Dataset(X=np.column_stack([X, X[:, 0]]), y=np.arange(12.0), task="regression")
    oracle = RidgeOracle(full_view(ds), full_view(ds))
    with pytest.raises(SingularMatrixError):
        oracle.theta_hat(0.0)
    with pytest.raises(SingularMatrixError):
        oracle.hypergrad_eff(np.array([1.0, 0.0]))
    assert np.all(np.isfinite(oracle.theta_hat(1e-3)))


def test_curvature_matches_hessian_eigenvalues():
    tr, va = ridge_views()
    A, _ = tr.gram
    eigs = np.linalg.eigvalsh(A)
    L, mu = RidgeOracle(tr, va).curvature(0.7)
    assert_allclose(L, 2.0 * (eigs[-1] + 0.7))
    assert_allclose(mu, 2.0 * (eigs[0] + 0.7))
    assert L >= mu > 0


def test_long_inner_solve_reaches_closed_form():
    tr, va = ridge_views()
    prob = build_problem(ModelSpec(kind="ridge"), 3)
    traj = inner_solve(prob, np.array([0.0]), np.zeros(3), tr, K=2000, alpha_in=0.1)
    assert np.linalg.norm(traj.final - RidgeOracle(tr, va).theta_hat(1.0)) < 1e-8


# ---------------------------------------------------------------------------
# the oracle on a lambda grid and on stacked views agrees with its scalar calls

def test_oracle_grid_fast_path_matches_oracle():
    tr, va = ridge_views()
    grid = np.array([0.3, 0.9, 1.7, 4.2])
    oracle = RidgeOracle(tr, va)
    fast = oracle.hypergrad_raw(np.log(grid))
    thetas = oracle.theta_hat(grid)
    assert fast.shape == (4,) and thetas.shape == (4, 3)
    for le, g, theta in zip(grid, fast, thetas):
        assert_allclose(g, oracle.hypergrad_raw(math.log(le)), rtol=1e-12)
        assert_allclose(theta, oracle.theta_hat(le), rtol=1e-12)


def test_stacked_oracle_matches_per_view_oracles():
    ds, _ = gen_linear(40, 3, 0.3, seed=5, beta_seed=2)
    vals = draw_val_sets(40, SplitPlan(U=4, gamma=0.25, master_seed=6))
    views = [(DataView(ds, tr), DataView(ds, va)) for tr, va in zip(complements(40, vals), vals)]
    oracle = RidgeOracle(*split_stacks(ds.X, ds.y, vals))
    grid = np.array([0.5, 2.0])
    assert oracle.theta_hat(grid).shape == (4, 2, 3)
    L, mu = oracle.curvature(0.7)
    for i, (tr, va) in enumerate(views):
        one = RidgeOracle(tr, va)
        assert_allclose(oracle.theta_hat(1.3)[i], one.theta_hat(1.3), rtol=1e-12)
        assert_allclose(oracle.dtheta_dlambda(grid)[i], one.dtheta_dlambda(grid), rtol=1e-12)
        assert_allclose(oracle.val_loss(grid)[i], one.val_loss(grid), rtol=1e-12)
        assert_allclose(oracle.hypergrad_raw(0.2)[i], one.hypergrad_raw(0.2), rtol=1e-12)
        assert (L[i], mu[i]) == one.curvature(0.7)


# ---------------------------------------------------------------------------
# bias-variance decomposition

def test_bias_variance_identity_holds_exactly():
    rep = bias_variance_sweep(DESIGN, ITD25, [0.5, 1.0, 2.0], R=6, U=2, seed=3)
    assert rep.R == 6 and rep.U == 2
    for row in rep.rows:
        assert row.identity_residual <= 1e-10
        assert row.variance >= 0.0
        assert row.bias_sq >= 0.0
        assert_allclose(row.error, row.variance + row.bias_sq, atol=1e-10)


def test_oracle_estimator_has_exactly_zero_bias():
    rep = bias_variance_sweep(DESIGN, "oracle", [0.5, 1.0], R=5, U=1, seed=4)
    for row in rep.rows:
        assert row.bias_sq == 0.0
        assert row.error == row.variance


def test_truncation_bias_grows_as_k_shrinks():
    short = bias_variance_sweep(DESIGN, HypergradMethod(kind="ITD", K=3, alpha_in=0.1),
                                [1.0], R=8, U=1, seed=9)
    long = bias_variance_sweep(DESIGN, HypergradMethod(kind="ITD", K=200, alpha_in=0.1),
                               [1.0], R=8, U=1, seed=9)
    assert short.rows[0].bias_sq > 10.0 * long.rows[0].bias_sq


def refused(field, fn, *args, **kwargs):
    """Whether fn(*args, **kwargs) raises a ContractViolationError naming field."""
    with pytest.raises(ContractViolationError) as err:
        fn(*args, **kwargs)
    return err.value.field == field


def test_bias_variance_sweep_validation():
    with pytest.raises(ContractViolationError):
        bias_variance_sweep(DESIGN, ITD25, [1.0], R=1, U=1, seed=0)
    with pytest.raises(ContractViolationError):
        bias_variance_sweep(DESIGN, ITD25, [1.0], R=2, U=0, seed=0)
    with pytest.raises(ContractViolationError):
        bias_variance_sweep(DESIGN, ITD25, [-1.0], R=2, U=1, seed=0)
    with pytest.raises(ContractViolationError):
        bias_variance_sweep(DESIGN, "oracle", [1.0], R=2, U=1, seed=0,
                            spec=ModelSpec(kind="elastic_net", smoothing_delta=0.5))
    assert refused("lam_grid", bias_variance_sweep, DESIGN, ITD25, [], R=2, U=1, seed=0)
    assert refused("lam_grid", bias_variance_sweep, DESIGN, ITD25, [1.0, math.nan],
                   R=2, U=1, seed=0)
    assert refused("R", bias_variance_sweep, DESIGN, ITD25, [1.0], R=2.5, U=1, seed=0)
    assert refused("U", bias_variance_sweep, DESIGN, ITD25, [1.0], R=2, U=2.5, seed=0)
    # hyperclean's lam is per-row weights sigmoid(u), not a strength on lam_grid's exp scale
    assert refused("spec", bias_variance_sweep, DESIGN, ITD25, [1.0], R=2, U=1, seed=0,
                   spec=ModelSpec(kind="hyperclean_softmax", num_classes=3, n_weights=48))


def test_bias_variance_sweep_decomposes_a_classification_model():
    # the replicates are drawn with +-1 labels for logistic_l2; the reference is ITD at ref_K
    report = bias_variance_sweep(DESIGN, ITD25, [0.5, 1.0], R=4, U=2, seed=5,
                                 spec=ModelSpec(kind="logistic_l2"), ref_K=100)
    for row in report.rows:
        assert row.identity_residual <= 1e-10
        assert row.error > 0.0 and math.isfinite(row.error)


def test_variance_curve_falls_with_U_for_softmax():
    curve = ensemble_variance_curve(DESIGN, ITD25, 1.0, R=30, U_list=[1, 2, 4, 8], seed=3,
                                    spec=ModelSpec(kind="softmax_l2", num_classes=3))
    assert curve.slope < 0.0


@pytest.mark.parametrize("field, value", [
    ("n", 40.0), ("n", 1), ("d", 0), ("d", 2.5),
    ("noise_sigma", math.nan), ("noise_sigma", math.inf), ("noise_sigma", -0.1),
    ("noise_sigma", "0.5"),
    ("gamma", 0.0), ("gamma", math.nan),
    ("mode", "bogus"),
    ("beta_seed", -1), ("beta_seed", 1.5),
])
def test_sweep_design_names_the_field_it_refuses(field, value):
    fields = dict(n=60, d=2, noise_sigma=0.5, gamma=0.25)
    assert refused(field, SweepDesign, **{**fields, field: value})


# ---------------------------------------------------------------------------
# variance vs ensemble size

def test_variance_curve_slope_near_minus_one():
    curve = ensemble_variance_curve(DESIGN, ITD25, 1.0, R=150,
                                    U_list=[1, 2, 4, 8], seed=5)
    assert abs(curve.slope + 1.0) < 0.2
    variances = [v for _, v in curve.points]
    assert all(a > b for a, b in zip(variances, variances[1:]))


def test_variance_curve_validation():
    with pytest.raises(ContractViolationError):
        ensemble_variance_curve(DESIGN, ITD25, 1.0, R=1, U_list=[1, 2], seed=0)
    with pytest.raises(ContractViolationError):
        ensemble_variance_curve(DESIGN, ITD25, 1.0, R=5, U_list=[2], seed=0)
    with pytest.raises(ContractViolationError):
        ensemble_variance_curve(DESIGN, ITD25, 1.0, R=5, U_list=[1, 2], seed=0, workers=0)
    assert refused("U_list", ensemble_variance_curve, DESIGN, ITD25, 1.0, R=5,
                   U_list=[1, 2.5], seed=0)
    assert refused("U_list", ensemble_variance_curve, DESIGN, ITD25, 1.0, R=5,
                   U_list=[1, 1], seed=0)
    assert refused("lam_eff", ensemble_variance_curve, DESIGN, ITD25, -1.0, R=5,
                   U_list=[1, 2], seed=0)
    assert refused("lam_eff", ensemble_variance_curve, DESIGN, ITD25, math.nan, R=5,
                   U_list=[1, 2], seed=0)
    assert refused("R", ensemble_variance_curve, DESIGN, ITD25, 1.0, R=2.5,
                   U_list=[1, 2], seed=0)


def per_member_curve(design, method, lam_eff, R, U_list, seed, spec):
    """The member-at-a-time loop the stacked pass replaced: one estimate per member."""
    problem = build_problem(spec, design.d)
    lam = np.full(problem.hyper_dim, math.log(lam_eff))
    counter, points = 0, []
    for U in U_list:
        means = []
        for _ in range(R):
            acc = None
            for _ in range(U):
                ds, _ = gen_linear(design.n, design.d, design.noise_sigma,
                                   seed=derive_seed(seed, 2 * counter), beta_seed=design.beta_seed)
                plan = SplitPlan(U=1, gamma=design.gamma, master_seed=derive_seed(seed, 2 * counter + 1))
                split = make_splits(ds.n, plan)[0]
                tr, va = DataView(ds, split.train_idx), DataView(ds, split.val_idx)
                g = estimate_hypergrad(problem, lam, np.zeros(problem.param_dim), tr, va,
                                       method).grad
                acc = g.copy() if acc is None else acc + g
                counter += 1
            means.append(acc / U)
        M = np.stack(means)
        points.append((U, float(np.mean(np.sum((M - M.mean(axis=0)) ** 2, axis=1)))))
    return points


def cut_runs(monkeypatch, members, spec, method):
    """Make every stacked run of method on spec (at DESIGN.d features) hold `members` members."""
    problem = build_problem(spec, DESIGN.d)
    monkeypatch.setattr(diagnostics, "RUN_BYTES",
                        members * diagnostics._member_bytes(problem, method))


@pytest.mark.parametrize("spec, method", [
    (ModelSpec(kind="ridge"), ITD25),
    (ModelSpec(kind="elastic_net", smoothing_delta=0.5),
     HypergradMethod(kind="AID_CG", K=25, alpha_in=0.1, Z=5)),
], ids=["ridge", "elastic_net"])
def test_variance_curve_matches_per_member_loop_for_any_run_cut(monkeypatch, spec, method):
    kwargs = dict(R=4, U_list=[1, 2, 3], seed=12, spec=spec)
    whole = ensemble_variance_curve(DESIGN, method, 0.7, **kwargs)
    for size in (1, 5, 7):  # 5 and 7 cut inside an ensemble of U = 2 or 3 members
        cut_runs(monkeypatch, size, spec, method)
        assert ensemble_variance_curve(DESIGN, method, 0.7, **kwargs) == whole  # bitwise
    ref = per_member_curve(DESIGN, method, 0.7, **kwargs)
    for (u, v), (ru, rv) in zip(whole.points, ref):
        assert u == ru
        assert abs(v - rv) <= 1e-12 * rv


def test_sweep_memory_stays_within_the_run_budget():
    # the shape of the benchmark's sweep at R = 12: 600 ITD members of K = 500
    # on d = 1. Ridge ITD runs forward and keeps no trajectory, so they run as
    # one stacked run, and the whole sweep's peak stays near one budget
    design = SweepDesign(n=100, d=1, noise_sigma=0.5, gamma=0.25)
    method = HypergradMethod(kind="ITD", K=500, alpha_in=0.1)
    tracemalloc.start()
    try:
        bias_variance_sweep(design, method, np.linspace(0.3, 3.0, 50), R=12, U=1, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * diagnostics.RUN_BYTES


@pytest.mark.parametrize("method", [HypergradMethod(kind="AID_CG", K=100, alpha_in=0.1, Z=10),
                                    "oracle"], ids=["AID_CG", "oracle"])
def test_sweep_memory_at_d20_grows_with_a_run_not_the_sweep(method):
    # 2,000 members at d = 20. AID keeps trajectories, so its members run
    # 72 at a time (129 before the run budget counted their matrices), and
    # each run gathers its own members' Gram pairs from the replicate
    # stack; the oracle solves its systems in blocks of 13 replicates. The replicate stack (about 1.4 MB) is alive throughout.
    # Peaks: about 3.2 and 0.4 MB when each replicate was drawn in turn, 4.0
    # and 3.1 MB with runs of 129; 16.0 and 7.8 MB if the member stack or
    # the oracle held the whole sweep at once
    design = SweepDesign(n=100, d=20, noise_sigma=0.5, gamma=0.25)
    tracemalloc.start()
    try:
        bias_variance_sweep(design, method, np.linspace(0.3, 3.0, 50), R=40, U=1, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * diagnostics.RUN_BYTES


def test_forward_sweep_memory_at_d20_counts_the_matrices_of_a_run():
    # 2,000 forward ITD members at d = 20 keep no trajectory, so a run's
    # memory is the Gram matrices it gathers and the Hessian its binding
    # builds, each r x r per member. Counting only iterates let 1,638
    # members run at once, with peaks of 6.4 and 10.8 RUN_BYTES before and
    # after the binding built one H; counting the matrices gives about 1.5
    design = SweepDesign(n=100, d=20, noise_sigma=0.5, gamma=0.25)
    method = HypergradMethod(kind="ITD", K=60, alpha_in=0.1)
    tracemalloc.start()
    try:
        bias_variance_sweep(design, method, np.linspace(0.3, 3.0, 50), R=40, U=1, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * diagnostics.RUN_BYTES


@pytest.mark.parametrize("kind", ["ridge", "lasso_smooth"])
def test_a_forward_member_holds_at_most_forward_arrays(kind):
    # the run budget gives a forward member FORWARD_ARRAYS (r,) arrays beside
    # its MEMBER_MATRICES r x r ones: the two Gram matrices of its views, read
    # here before tracing starts, and the two its binding builds (2A, and H
    # for ridge). At r = 1 every array a member holds is one value, so the
    # peak counts them all; the outer step's (p,) rows count as whole arrays.
    # Ridge reads 7, and lasso_smooth 7 too (10 when each pseudo-Huber call
    # computed the value, the gradient and the Hessian diagonal together)
    B = 6000
    rng = np.random.Generator(np.random.PCG64(2))
    train, val = (StackedView(rng.standard_normal((B, 20, 1)), rng.standard_normal((B, 20)))
                  for _ in range(2))
    train.gram, val.gram
    prob = build_problem(ModelSpec(kind=kind, smoothing_delta=0.5), 1)
    lam, theta0 = np.full((B, 1), -0.5), 0.1 * rng.standard_normal((B, 1))
    method = HypergradMethod(kind="ITD", K=5, alpha_in=0.05)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        forward_hypergrad(prob, lam, theta0, train, val, method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = (peak - base) / (B * 8) - (diagnostics.MEMBER_MATRICES - 2)
    assert round(arrays) <= FORWARD_ARRAYS


@pytest.mark.parametrize("kind", ["ridge", "lasso_smooth"])
def test_a_forward_member_holds_at_most_forward_arrays_while_members_retire(kind):
    # as above, over enough steps that members retire: the state saved for
    # the comparison, the retired rows and the live members' binding all fit
    # in the budget. Ridge reads 7 and lasso_smooth 8
    B = 6000
    rng = np.random.Generator(np.random.PCG64(2))
    train, val = (StackedView(rng.standard_normal((B, 20, 1)), rng.standard_normal((B, 20)))
                  for _ in range(2))
    train.gram, val.gram
    prob = build_problem(ModelSpec(kind=kind, smoothing_delta=0.5), 1)
    lam, theta0 = np.full((B, 1), -0.5), 0.1 * rng.standard_normal((B, 1))
    method = HypergradMethod(kind="ITD", K=200, alpha_in=0.1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = forward_hypergrad(prob, lam, theta0, train, val, method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.median(res.diagnostics["steps"]) < method.K
    arrays = (peak - base) / (B * 8) - (diagnostics.MEMBER_MATRICES - 2)
    assert round(arrays) <= FORWARD_ARRAYS


def count_runs(monkeypatch):
    """Record the member count of every stacked estimate the diagnostics run."""
    runs, estimate = [], diagnostics.estimate_hypergrad

    def counting(problem, lam, theta0, train, val, method):
        runs.append(len(train))
        return estimate(problem, lam, theta0, train, val, method)

    monkeypatch.setattr(diagnostics, "estimate_hypergrad", counting)
    return runs


def test_d1_sweep_and_variance_curve_each_run_as_one_stacked_estimate(monkeypatch):
    # the benchmark's two diagnostic shapes at d = 1: a 50-point sweep of 120
    # replicates (ITD, K = 500) and a variance curve of 310 members (K = 200)
    design = SweepDesign(n=100, d=1, noise_sigma=0.5, gamma=0.25)
    runs = count_runs(monkeypatch)
    bias_variance_sweep(design, HypergradMethod(kind="ITD", K=500, alpha_in=0.1),
                        np.linspace(0.3, 3.0, 50), R=120, U=1, seed=3)
    assert runs == [6000]
    runs.clear()
    ensemble_variance_curve(design, HypergradMethod(kind="ITD", K=200, alpha_in=0.1), 1.0,
                            R=10, U_list=[1, 2, 4, 8, 16], seed=3)
    assert runs == [310]


@pytest.mark.parametrize("runs", [1, 2])
def test_variance_curve_divergence_names_member_and_step(monkeypatch, runs):
    # the 9 members run whole or cut into runs of 5 and 4
    diverging = HypergradMethod(kind="ITD", K=400, alpha_in=5.0)
    if runs == 2:
        cut_runs(monkeypatch, 5, ModelSpec(kind="ridge"), diverging)
    with pytest.raises(NumericalError) as err:
        ensemble_variance_curve(DESIGN, diverging, 1.0, R=3, U_list=[1, 2], seed=0)
    m, step = err.value.member, err.value.step_index
    assert f"at step {step}" in str(err.value) and f"(member {m})" in str(err.value)
    # the named member, run alone, diverges at the named step
    ds, _ = gen_linear(DESIGN.n, DESIGN.d, DESIGN.noise_sigma, seed=derive_seed(0, 2 * m))
    split = make_splits(ds.n, SplitPlan(U=1, gamma=DESIGN.gamma,
                                        master_seed=derive_seed(0, 2 * m + 1)))[0]
    with pytest.raises(NumericalError) as alone:
        inner_solve(build_problem(ModelSpec(kind="ridge"), DESIGN.d), np.zeros(1),
                    np.zeros(DESIGN.d), DataView(ds, split.train_idx), 400, 5.0)
    assert alone.value.step_index == step


def test_member_run_names_members_by_ensemble_index(monkeypatch):
    # runs of 4 members; only member 7, in the second run, has a step size
    # beyond 2/L (at lambda_eff = e^6), so that its inner loop overflows
    method = HypergradMethod(kind="ITD", K=200, alpha_in=0.1)
    cut_runs(monkeypatch, 4, ModelSpec(kind="ridge"), method)
    train, val = _replicate_stacks(DESIGN, RIDGE, 1, 0, 10)
    lam = np.array([[6.0 if c == 7 else 0.0] for c in range(10)])
    with pytest.raises(NumericalError) as err:
        _stacked_estimates(build_problem(ModelSpec(kind="ridge"), DESIGN.d), method, train, val,
                           lam)
    assert err.value.member == 7
    assert "(member 7)" in str(err.value)


# ---------------------------------------------------------------------------
# replicate stacks

TASK_SPECS = {"regression": RIDGE, "binary": ModelSpec(kind="logistic_l2"),
              "multiclass": ModelSpec(kind="softmax_l2", num_classes=3)}


# the regression cases are named by U and mode alone, the others by their task too
@pytest.mark.parametrize("task, U, mode", [
    pytest.param(task, U, mode, id="-".join([str(U), mode] + [task] * (task != "regression")))
    for task in TASK_SPECS for U in (1, 3) for mode in ("with_replacement", "without_replacement")
])
def test_replicate_stacks_hold_the_rows_of_gen_linear_and_make_splits(task, U, mode):
    # member j * U + u holds split u of the rows that data.synthetic draws for
    # the spec's task, with 2 classes for a binary kind
    design = SweepDesign(n=12, d=3, noise_sigma=0.5, gamma=0.5, beta_seed=4, mode=mode)
    spec = TASK_SPECS[task]
    train, val = _replicate_stacks(design, spec, U, 21, 4)
    assert len(train) == len(val) == 4 * U
    assert train.num_classes == val.num_classes == spec.num_classes
    for j in range(4):
        ds = synthetic(task, design.n, design.d, spec.num_classes or 2, design.noise_sigma,
                       seed=derive_seed(21, 2 * j), beta_seed=design.beta_seed)
        plan = SplitPlan(U=U, gamma=design.gamma, mode=mode, master_seed=derive_seed(21, 2 * j + 1))
        for u, split in enumerate(make_splits(ds.n, plan)):
            for stack, idx in ((train, split.train_idx), (val, split.val_idx)):
                assert stack.X[j * U + u].tobytes() == ds.X[idx].tobytes()
                assert stack.y[j * U + u].tobytes() == ds.y[idx].tobytes()


@pytest.mark.parametrize("mode", ["with_replacement", "without_replacement"])
def test_a_replicate_is_the_same_in_a_draw_of_twice_the_count(mode):
    # n = 6 at gamma = 0.5 has C(6, 2) = 15 validation sets, so the U = 4
    # splits of some replicates redraw a duplicate
    design = SweepDesign(n=6, d=2, noise_sigma=0.5, gamma=0.5, beta_seed=4, mode=mode)
    small, large = (_replicate_stacks(design, RIDGE, 4, 9, count) for count in (5, 10))
    for part in ("X", "y"):
        for one, two in zip(small, large):
            assert getattr(one, part).tobytes() == getattr(two, part)[:20].tobytes()


def test_replicate_stacks_redraw_duplicate_splits_as_make_splits_does():
    # n = 4 at gamma = 1 gives m_val = 2, and U = 6 asks for all C(4, 2) = 6
    # validation sets: every replicate must redraw the sets its earlier
    # splits already hold
    design = SweepDesign(n=4, d=2, noise_sigma=0.5, gamma=1.0, beta_seed=4)
    train, val = _replicate_stacks(design, RIDGE, 6, 21, 3)
    for j in range(3):
        ds, _ = gen_linear(design.n, design.d, design.noise_sigma, seed=derive_seed(21, 2 * j),
                           beta_seed=design.beta_seed)
        plan = SplitPlan(U=6, gamma=1.0, master_seed=derive_seed(21, 2 * j + 1))
        splits = make_splits(ds.n, plan)
        assert len({s.val_idx.tobytes() for s in splits}) == 6
        for u, split in enumerate(splits):
            for stack, idx in ((train, split.train_idx), (val, split.val_idx)):
                assert stack.X[j * 6 + u].tobytes() == ds.X[idx].tobytes()
                assert stack.y[j * 6 + u].tobytes() == ds.y[idx].tobytes()


def test_replicate_stacks_refuse_an_infeasible_plan_before_any_draw(monkeypatch):
    draws = []
    monkeypatch.setattr(diagnostics, "_draw_rows", lambda *args: draws.append(args))
    design = SweepDesign(n=4, d=2, noise_sigma=0.5, gamma=1.0)
    with pytest.raises(InfeasiblePlanError) as err:
        _replicate_stacks(design, RIDGE, 7, 21, 3)
    assert err.value.field_path == "split.U"
    assert "C(4, 2) = 6" in str(err.value)
    assert draws == []
    # with replacement, the same U is a plan like any other
    monkeypatch.undo()
    train, _ = _replicate_stacks(dataclasses.replace(design, mode="with_replacement"), RIDGE,
                                 7, 21, 3)
    assert len(train) == 21


def record_stacks(monkeypatch):
    """Record the replicate stacks each diagnostic draws and every stack taken from a stack."""
    drawn, taken = [], []
    draw, take = diagnostics._replicate_stacks, StackedView.take

    def recording_draw(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    def recording_take(self, index):
        taken.append((self, take(self, index)))
        return taken[-1][1]

    monkeypatch.setattr(diagnostics, "_replicate_stacks", recording_draw)
    monkeypatch.setattr(StackedView, "take", recording_take)
    return drawn, taken


def test_ridge_sweep_members_never_gather_train_rows(monkeypatch):
    method = HypergradMethod(kind="ITD", K=50, alpha_in=0.1)
    design = SweepDesign(n=100, d=1, noise_sigma=0.5, gamma=0.25)
    problem = build_problem(ModelSpec(kind="ridge"), design.d)
    monkeypatch.setattr(diagnostics, "RUN_BYTES", 20 * diagnostics._member_bytes(problem, method))
    drawn, taken = record_stacks(monkeypatch)
    bias_variance_sweep(design, method, np.linspace(0.3, 3.0, 5), R=6, U=2, seed=3)
    (train, _), = drawn
    from_train = [(parent, stack) for parent, stack in taken if parent is train]
    members = {id(stack) for _, stack in from_train if len(stack) == 60}
    runs = [stack for parent, stack in taken if id(parent) in members]
    assert len(members) == 1 and len(runs) == 3  # 60 members in runs of 20
    for _, stack in from_train:
        assert "X" not in vars(stack)
    for stack in runs:  # each run gathers its own Gram pairs from train
        assert "gram" in vars(stack) and "X" not in vars(stack)
        assert len(stack.gram[0]) == 20
    member_stack, = (stack for _, stack in from_train if id(stack) in members)
    assert "gram" not in vars(member_stack)  # the whole sweep's pairs are never gathered


def test_non_ridge_sweep_draws_each_replicate_once(monkeypatch):
    draws = []
    draw = diagnostics._draw_rows

    def counting_draw(*args):
        draws.append(draw(*args))
        return draws[-1]

    monkeypatch.setattr(diagnostics, "_draw_rows", counting_draw)
    bias_variance_sweep(DESIGN, ITD25, [0.5, 1.0], R=3, U=2, seed=7,
                        spec=ModelSpec(kind="lasso_smooth", smoothing_delta=0.5), ref_K=40)
    # one draw of all R = 3 replicates: the method's run and the ref_K run read the same stack
    (X, _), = draws
    assert len(X) == 3


# ---------------------------------------------------------------------------
# the sweep against a per-member loop

def per_member_sweep(design, method, grid, R, U, seed, spec, ref_K):
    """The sweep one estimate at a time: (error, variance, bias^2) per grid point."""
    problem = build_problem(spec, design.d)
    p, theta0 = problem.hyper_dim, np.zeros(problem.param_dim)
    alpha_in = 0.1 if method == "oracle" else method.alpha_in
    ref_method = HypergradMethod(kind="ITD", K=ref_K, alpha_in=alpha_in)
    ghat = np.zeros((R, len(grid), p))
    gref = np.zeros((R, len(grid), p))
    for j in range(R):
        ds, _ = gen_linear(design.n, design.d, design.noise_sigma,
                           seed=derive_seed(seed, 2 * j), beta_seed=design.beta_seed)
        plan = SplitPlan(U=U, gamma=design.gamma, master_seed=derive_seed(seed, 2 * j + 1))
        for l, le in enumerate(grid):
            lam = np.full(p, math.log(le))
            for s in make_splits(ds.n, plan):
                tr, va = DataView(ds, s.train_idx), DataView(ds, s.val_idx)
                if spec.kind == "ridge":
                    ref = np.array([RidgeOracle(tr, va).hypergrad_raw(lam[0])])
                else:
                    ref = estimate_hypergrad(problem, lam, theta0, tr, va, ref_method).grad
                est = (ref if method == "oracle"
                       else estimate_hypergrad(problem, lam, theta0, tr, va, method).grad)
                ghat[j, l] += est
                gref[j, l] += ref
    ghat, gref = ghat / U, gref / U
    gtilde, gbar = ghat.mean(axis=0), gref.mean(axis=0)
    return [(float(np.mean(np.sum((ghat[:, l] - gbar[l]) ** 2, axis=1))),
             float(np.mean(np.sum((ghat[:, l] - gtilde[l]) ** 2, axis=1))),
             float(np.sum((gtilde[l] - gbar[l]) ** 2)))
            for l in range(len(grid))]


@pytest.mark.parametrize("spec, method", [
    (ModelSpec(kind="ridge"), ITD25),
    (ModelSpec(kind="ridge"), HypergradMethod(kind="AID_CG", K=25, alpha_in=0.1, Z=3)),
    (ModelSpec(kind="elastic_net", smoothing_delta=0.5), ITD25),
    (ModelSpec(kind="ridge_per_param"), ITD25),
    (ModelSpec(kind="ridge"), "oracle"),
], ids=["ridge-ITD", "ridge-AID_CG", "elastic_net-ITD", "ridge_per_param-ITD", "oracle"])
def test_sweep_matches_per_member_loop_for_any_run_cut(monkeypatch, spec, method):
    # DESIGN has d = 2, so ridge_per_param reads two raw coordinates
    grid = [0.5, 1.0, 2.0]
    kwargs = dict(R=3, U=2, seed=7, spec=spec, ref_K=60)
    whole = bias_variance_sweep(DESIGN, method, grid, **kwargs)
    if method != "oracle":
        for size in (1, 4):  # a replicate is 3 grid points x 2 splits = 6 members
            cut_runs(monkeypatch, size, spec, method)
            assert bias_variance_sweep(DESIGN, method, grid, **kwargs) == whole  # bitwise
    ref = per_member_sweep(DESIGN, method, grid, **kwargs)
    for row, (err, var, bias_sq) in zip(whole.rows, ref):
        assert abs(row.error - err) <= 1e-12 * err
        assert abs(row.variance - var) <= 1e-12 * var
        assert abs(row.bias_sq - bias_sq) <= 1e-12 * err


def test_diverging_sweep_names_member_and_step():
    diverging = HypergradMethod(kind="ITD", K=400, alpha_in=5.0)
    with pytest.raises(NumericalError) as err:
        bias_variance_sweep(DESIGN, diverging, [0.5, 1.0], R=2, U=2, seed=0)
    m, step = err.value.member, err.value.step_index
    assert m is not None and step is not None
    assert f"at step {step}" in str(err.value) and f"(member {m})" in str(err.value)


def test_diverging_sweep_point_is_refused():
    # at lambda_eff = 10, L = 2 (eigmax(A) + 10) is near 23 > 2 / alpha_in, so the
    # inner loop diverges, yet stays finite: without the growth rule the row
    # reads an error of 6.0e23
    design = SweepDesign(n=100, d=5, noise_sigma=0.5, gamma=0.25)
    method = HypergradMethod(kind="ITD", K=50, alpha_in=0.1)
    with pytest.raises(NumericalError) as err:
        bias_variance_sweep(design, method, [1.0, 10.0], R=50, U=4, seed=3)
    assert f"(member {err.value.member})" in str(err.value)


# ---------------------------------------------------------------------------
# finite-population correction

def test_fpc_formulas_hand_values():
    assert fpc_without_replacement(15, 15, 3.0) == 0.0
    assert fpc_without_replacement(15, 1, 3.0) == 3.0  # U = 1: plain variance
    assert_allclose(fpc_without_replacement(15, 3, 3.0), 12 * 3.0 / (3 * 14))
    assert fpc_with_replacement(4, 2.0) == 0.5
    assert fpc_without_replacement(1, 1, 7.0) == 0.0


def test_fpc_guards():
    with pytest.raises(ContractViolationError):
        fpc_without_replacement(5, 6, 1.0)
    with pytest.raises(ContractViolationError):
        fpc_without_replacement(5, 0, 1.0)
    with pytest.raises(ContractViolationError):
        fpc_with_replacement(0, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 400), st.floats(1e-6, 50.0))
def test_fpc_without_never_exceeds_with(V, sigma_sq):
    for U in {1, 2, V // 2 or 1, V}:
        with_r = fpc_with_replacement(U, sigma_sq)
        assert fpc_without_replacement(V, U, sigma_sq) <= with_r * (1.0 + 1e-12)


def fpc_instance():
    ds, _ = gen_linear(6, 1, 0.5, seed=8, beta_seed=1)
    return ds, build_problem(ModelSpec(kind="ridge"), 1)


def test_fpc_verify_full_population_is_exact_zero():
    ds, prob = fpc_instance()
    rep = fpc_verify(ds, 0.5, U=15, lam_raw=0.0, problem=prob, samples=50, seed=1)
    assert rep.V == 15
    assert rep.mc_estimate == 0.0  # ascending index order reproduces the mean
    assert rep.exact_without == 0.0


def test_fpc_verify_single_split_recovers_population_variance():
    ds, prob = fpc_instance()
    rep = fpc_verify(ds, 0.5, U=1, lam_raw=0.0, problem=prob, samples=10, seed=1)
    assert_allclose(rep.exact_without, rep.sigma_sq, rtol=1e-14)
    assert rep.with_replacement == rep.sigma_sq


def test_fpc_verify_monte_carlo_matches_formula():
    ds, prob = fpc_instance()
    rep = fpc_verify(ds, 0.5, U=3, lam_raw=0.0, problem=prob, samples=4000, seed=2)
    assert rep.exact_without > 0
    assert abs(rep.mc_estimate - rep.exact_without) < 0.05 * rep.exact_without


def test_fpc_verify_draws_in_blocks_with_every_bit(monkeypatch):
    # blocks of 7 rows of uniforms (16 bytes per entry of V = 15), 4000 = 571 * 7 + 3
    ds, prob = fpc_instance()
    whole = fpc_verify(ds, 0.5, U=3, lam_raw=0.4, problem=prob, samples=4000, seed=2)
    monkeypatch.setattr(diagnostics, "RUN_BYTES", 7 * 16 * 15)
    assert fpc_verify(ds, 0.5, U=3, lam_raw=0.4, problem=prob, samples=4000, seed=2) == whole


@pytest.mark.parametrize("kind", ["ridge", "lasso_smooth"])
def test_fpc_verify_matches_per_split_loop(kind):
    ds, _ = fpc_instance()
    prob = build_problem(ModelSpec(kind=kind, smoothing_delta=1e-3), 1)
    method = HypergradMethod(kind="ITD", K=30, alpha_in=0.1)
    rep = fpc_verify(ds, 0.5, U=3, lam_raw=0.4, problem=prob, samples=10, seed=0, method=method)
    stats = []
    for train_idx, val_idx in all_splits(ds.n, 0.5):
        tr, va = DataView(ds, train_idx), DataView(ds, val_idx)
        if kind == "ridge":
            stats.append([RidgeOracle(tr, va).hypergrad_raw(0.4)])
        else:
            stats.append(estimate_hypergrad(prob, np.array([0.4]), np.zeros(1), tr, va,
                                            method).grad)
    S = np.array(stats)
    Xbar = S.mean(axis=0)
    sigma_sq = float(np.mean(np.sum((S - Xbar) ** 2, axis=1)))
    # the same U-subset draws, which pin each statistic to its split
    rng = np.random.Generator(np.random.PCG64(0))
    order = np.sort(np.argsort(rng.random((10, 15)), axis=1)[:, :3], axis=1)
    mc = float(np.mean(np.sum((S[order].mean(axis=1) - Xbar) ** 2, axis=1)))
    assert rep.V == len(stats) == 15
    assert abs(rep.sigma_sq - sigma_sq) <= 1e-12 * sigma_sq
    assert abs(rep.mc_estimate - mc) <= 1e-12 * mc


def all_splits(n, gamma):
    """Every (train, val) index pair of range(n) at ratio gamma, validation sets
    in lexicographic order."""
    return [(np.setdiff1d(np.arange(n), val), np.array(val))
            for val in combinations(range(n), val_size(n, gamma))]


def fpc_population_stacks(monkeypatch, ds, gamma, problem, method=None):
    """The train and val stacks fpc_verify builds of the split population, and its report."""
    stacks, draw = [], diagnostics.split_stacks

    def recording_draw(*args):
        stacks.append(draw(*args))
        return stacks[-1]

    monkeypatch.setattr(diagnostics, "split_stacks", recording_draw)
    rep = fpc_verify(ds, gamma, U=1, lam_raw=0.0, problem=problem, samples=2, seed=0,
                     method=method)
    (train, val), = stacks
    return train, val, rep


@pytest.mark.parametrize("n, d, gamma", [(6, 1, 0.5), (9, 3, 0.25)])
def test_fpc_population_stack_holds_the_rows_of_every_enumerated_split(monkeypatch, n, d, gamma):
    ds, _ = gen_linear(n, d, 0.5, seed=n, beta_seed=1)
    train, val, _ = fpc_population_stacks(monkeypatch, ds, gamma,
                                          build_problem(ModelSpec(kind="ridge"), d))
    splits = all_splits(ds.n, gamma)
    assert len(train) == len(val) == len(splits)
    for u, (train_idx, val_idx) in enumerate(splits):
        for stack, idx in ((train, train_idx), (val, val_idx)):
            assert stack.X[u].tobytes() == ds.X[idx].tobytes()
            assert stack.y[u].tobytes() == ds.y[idx].tobytes()


def test_fpc_verify_takes_a_softmax_problem_with_the_one_hot_of_every_split(monkeypatch):
    ds, _ = gen_multiclass(10, 2, 3, 0.3, seed=1)
    train, val, rep = fpc_population_stacks(
        monkeypatch, ds, 0.25, build_problem(ModelSpec(kind="softmax_l2", num_classes=3), ds.d),
        HypergradMethod(kind="ITD", K=5, alpha_in=0.1))
    assert np.isfinite(rep.sigma_sq) and np.isfinite(rep.mc_estimate)
    splits = all_splits(ds.n, 0.25)
    assert len(train) == len(val) == len(splits) == rep.V
    for u, (train_idx, val_idx) in enumerate(splits):
        for stack, view in ((train, DataView(ds, train_idx)), (val, DataView(ds, val_idx))):
            assert stack.one_hot[u].tobytes() == view.one_hot.tobytes()


def test_fpc_verify_needs_method_for_non_ridge():
    ds, _ = fpc_instance()
    prob = build_problem(ModelSpec(kind="lasso_smooth", smoothing_delta=1e-3), 1)
    with pytest.raises(ContractViolationError):
        fpc_verify(ds, 0.5, U=3, lam_raw=0.0, problem=prob, samples=10, seed=0)
    rep = fpc_verify(ds, 0.5, U=3, lam_raw=0.0, problem=prob, samples=10, seed=0,
                     method=HypergradMethod(kind="ITD", K=30, alpha_in=0.1))
    assert np.isfinite(rep.mc_estimate)
