"""Hypergradient estimators: unrolling, truncation, implicit solves."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from bihpo.data import (
    DataView,
    Dataset,
    SplitPlan,
    complements,
    draw_val_sets,
    full_view,
    gen_linear,
    make_splits,
    split_stacks,
    synthetic,
)
from bihpo.diagnostics import RidgeOracle, SweepDesign, _replicate_stacks
from bihpo.errors import ContractViolationError, NumericalError
from bihpo.hypergrad import (
    HypergradMethod,
    aid_hypergrad,
    contraction_params,
    estimate_hypergrad,
    finite_diff_hypergrad,
    forward_hypergrad,
    forward_mode,
    inner_solve,
    itd_hypergrad,
)
from bihpo import problems
from bihpo.linalg import row_dot
from bihpo.problems import MODEL_KINDS, ModelSpec, build_problem
from helpers import count_softmax_rows, stack, zoo_dataset, zoo_instance, zoo_lambda, zoo_problem

RIDGE1 = build_problem(ModelSpec(kind="ridge"), 1)


def aid_method(kind="AID_CG", Z=10, fp_step=0.0):
    """An AID method with K = 0: estimate_hypergrad then runs AID at theta0 itself."""
    return HypergradMethod(kind=kind, K=0, alpha_in=0.1, Z=Z, fp_step=fp_step)


def ridge_setup(n=40, d=3, seed=17, u=-0.2):
    ds, _ = gen_linear(n, d, 0.3, seed=seed, beta_seed=2)
    split = make_splits(n, SplitPlan(U=1, gamma=0.25, master_seed=3))[0]
    prob = build_problem(ModelSpec(kind="ridge"), d)
    return prob, DataView(ds, split.train_idx), DataView(ds, split.val_idx), np.array([u])


# ---------------------------------------------------------------------------
# inner solve

def test_inner_solve_zero_steps_returns_start_point():
    prob, tr, _, lam = ridge_setup()
    th0 = np.array([0.3, -0.1, 0.7])
    traj = inner_solve(prob, lam, th0, tr, K=0, alpha_in=0.1)
    assert traj.K == 0
    assert_array_equal(traj.final, th0)
    assert len(traj.thetas) == 1


def test_inner_solve_first_step_hand_value():
    # grad at theta = 0 is -(2/m) X^T y = -2 here, so theta_1 = 2 * alpha
    ds = Dataset(X=np.array([[1.0], [1.0]]), y=np.array([1.0, 1.0]), task="regression")
    traj = inner_solve(RIDGE1, np.array([0.0]), np.zeros(1), full_view(ds),
                       K=1, alpha_in=0.1)
    assert_allclose(traj.final, [0.2])


def test_inner_solve_converges_to_closed_form():
    prob, tr, va, lam = ridge_setup()
    traj = inner_solve(prob, lam, np.zeros(3), tr, K=500, alpha_in=0.1)
    theta_star = RidgeOracle(tr, va).theta_hat(math.exp(lam[0]))
    assert np.linalg.norm(traj.final - theta_star) < 1e-6


def test_inner_solve_divergence_raises_with_step_index():
    prob, tr, _, lam = ridge_setup()
    with pytest.raises(NumericalError) as err:
        inner_solve(prob, lam, np.zeros(3), tr, K=2000, alpha_in=50.0)
    assert err.value.step_index is not None
    assert err.value.step_index >= 1


def test_inner_solve_rejects_bad_budget():
    prob, tr, _, lam = ridge_setup()
    with pytest.raises(ContractViolationError):
        inner_solve(prob, lam, np.zeros(3), tr, K=-1, alpha_in=0.1)
    with pytest.raises(ContractViolationError):
        inner_solve(prob, lam, np.zeros(3), tr, K=1, alpha_in=0.0)


# ---------------------------------------------------------------------------
# ITD

def test_itd_zero_steps_is_direct_outer_gradient():
    # outer losses carry no explicit hyper dependence, so K = 0 gives zero
    prob, tr, va, lam = ridge_setup()
    traj = inner_solve(prob, lam, np.array([0.5, 0.5, 0.5]), tr, K=0, alpha_in=0.1)
    res = itd_hypergrad(prob, traj, va)
    assert_array_equal(res.grad, np.zeros(1))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_itd_matches_finite_differences(kind):
    prob, tr, va = zoo_instance(kind)
    lam = zoo_lambda(prob)
    th0 = np.zeros(prob.param_dim)
    K, alpha = 15, 0.05
    traj = inner_solve(prob, lam, th0, tr, K, alpha)
    got = itd_hypergrad(prob, traj, va).grad
    want = finite_diff_hypergrad(prob, lam, th0, tr, va, K, alpha, eps=1e-6)
    assert_allclose(got, want, rtol=2e-4, atol=1e-7)


def test_itd_long_run_matches_ridge_oracle():
    prob, tr, va, lam = ridge_setup()
    traj = inner_solve(prob, lam, np.zeros(3), tr, K=500, alpha_in=0.1)
    got = itd_hypergrad(prob, traj, va).grad
    want = RidgeOracle(tr, va).hypergrad_raw(float(lam[0]))
    assert_allclose(got, [want], atol=1e-4)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 30), st.floats(-1.0, 0.5))
def test_itd_matches_forward_mode_recurrence_1d(seed, K, u):
    """For d = 1 ridge, d theta_K / du has a scalar forward recurrence:
    s_{k+1} = s_k (1 - 2 alpha (A + e^u)) - 2 alpha e^u theta_k."""
    ds, _ = gen_linear(12, 1, 0.4, seed=seed % 997, beta_seed=5)
    split = make_splits(12, SplitPlan(U=1, gamma=0.5, master_seed=1))[0]
    tr, va = DataView(ds, split.train_idx), DataView(ds, split.val_idx)
    A, b = tr.gram
    A, b = float(A[0, 0]), float(b[0])
    alpha, le = 0.05, math.exp(u)
    theta, s = 0.0, 0.0
    for _ in range(K):  # s uses the pre-step theta
        new_theta = theta - alpha * (2.0 * (A * theta - b) + 2.0 * le * theta)
        s = s * (1.0 - 2.0 * alpha * (A + le)) - 2.0 * alpha * le * theta
        theta = new_theta
    xv, yv = va.X[:, 0], va.y
    want = (2.0 / va.m) * float((xv * theta - yv) @ xv) * s
    lam = np.array([u])
    traj = inner_solve(RIDGE1, lam, np.zeros(1), tr, K, alpha)
    got = itd_hypergrad(RIDGE1, traj, va).grad
    assert_allclose(got, [want], rtol=1e-9, atol=1e-12)
    # estimate_hypergrad runs ridge ITD by forward accumulation
    method = HypergradMethod(kind="ITD", K=K, alpha_in=alpha)
    assert forward_mode(RIDGE1, method)
    got = estimate_hypergrad(RIDGE1, lam, np.zeros(1), tr, va, method).grad
    assert_allclose(got, [want], rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# truncated reverse mode

def test_trhg_full_window_equals_itd_bitwise():
    prob, tr, va, lam = ridge_setup()
    traj = inner_solve(prob, lam, np.zeros(3), tr, K=60, alpha_in=0.08)
    assert_array_equal(itd_hypergrad(prob, traj, va, h=60).grad,
                       itd_hypergrad(prob, traj, va).grad)


def test_trhg_window_one_matches_hand_formula():
    prob, tr, va, lam = ridge_setup()
    traj = inner_solve(prob, lam, np.zeros(3), tr, K=20, alpha_in=0.08)
    a = prob.outer_grad_theta(lam, traj.final, va)
    want = -traj.alpha_in * prob.inner_mixed_vp(lam, traj.thetas[19], tr, a)
    assert_allclose(itd_hypergrad(prob, traj, va, h=1).grad, want)


def test_trhg_error_shrinks_with_window():
    prob, tr, va, lam = ridge_setup(seed=17)
    traj = inner_solve(prob, lam, np.zeros(3), tr, K=80, alpha_in=0.08)
    full = itd_hypergrad(prob, traj, va).grad
    errs = [np.linalg.norm(itd_hypergrad(prob, traj, va, h).grad - full)
            for h in (1, 2, 5, 10, 20, 40, 80)]
    assert all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
    assert errs[-1] == 0.0


def test_trhg_rejects_bad_window():
    for h in (0, 6, 2.5):
        with pytest.raises(ContractViolationError) as err:
            HypergradMethod(kind="TRHG", K=5, alpha_in=0.08, h=h)
        assert err.value.field == "h"


# ---------------------------------------------------------------------------
# AID

def test_aid_zero_outer_gradient_gives_zero_hypergrad():
    # noiseless data with theta at the truth: validation residual is zero
    ds, beta = gen_linear(20, 3, 0.0, seed=9, beta_seed=4)
    split = make_splits(20, SplitPlan(U=1, gamma=0.25, master_seed=2))[0]
    prob = build_problem(ModelSpec(kind="ridge"), 3)
    res = estimate_hypergrad(prob, np.array([0.0]), beta, DataView(ds, split.train_idx),
                             DataView(ds, split.val_idx), aid_method(Z=10))
    assert_array_equal(res.grad, np.zeros(1))


def test_aid_cg_matches_dense_implicit_solve():
    prob, tr, va, lam = ridge_setup()
    theta = RidgeOracle(tr, va).theta_hat(math.exp(lam[0]))
    A, _ = tr.gram
    H = 2.0 * (A + math.exp(lam[0]) * np.eye(3))
    v = np.linalg.solve(H, prob.outer_grad_theta(lam, theta, va))
    want = -prob.inner_mixed_vp(lam, theta, tr, v)
    got = estimate_hypergrad(prob, lam, theta, tr, va, aid_method(Z=3)).grad
    assert_allclose(got, want, rtol=1e-8)


@pytest.mark.parametrize("kind", ["AID_CG", "AID_FP"], ids=["cg", "fp"])
def test_aid_at_closed_form_matches_oracle(kind):
    prob, tr, va, lam = ridge_setup()
    le = math.exp(lam[0])
    oracle = RidgeOracle(tr, va)
    theta = oracle.theta_hat(le)
    L, _ = oracle.curvature(le)
    res = estimate_hypergrad(prob, lam, theta, tr, va,
                             aid_method(kind, Z=4000, fp_step=1.0 / L))
    want = oracle.hypergrad_raw(float(lam[0]))
    assert_allclose(res.grad, [want], atol=1e-6)
    assert res.diagnostics["aid_residual"] < 1e-8


def test_aid_evaluates_the_curvature_once_per_solve(monkeypatch):
    # the logistic curvature sigmoid(t) sigmoid(-t) is bound at theta_K once,
    # so a solve's sigmoid count does not grow with its iterations
    calls = []
    original = problems.sigmoid
    monkeypatch.setattr(problems, "sigmoid", lambda x: calls.append(1) or original(x))
    prob, tr, _ = zoo_instance("logistic_l2")
    hessian = prob.bind_inner(np.zeros(1), tr).hessian(np.ones(prob.param_dim))
    assert len(calls) == 2
    for _ in range(5):
        hessian(np.ones(prob.param_dim))
    assert len(calls) == 2

    d = 12
    ds = zoo_dataset("logistic_l2", 60, d, seed=5)
    prob = zoo_problem("logistic_l2", ds)
    vals = draw_val_sets(ds.n, SplitPlan(U=3, gamma=0.25, master_seed=4))
    tr, va = split_stacks(ds.X, ds.y, vals)
    theta = 0.3 * np.random.Generator(np.random.PCG64(6)).standard_normal((3, d))
    per_solve = []
    for Z in (5, 20):
        calls.clear()
        res = estimate_hypergrad(prob, np.array([-1.0]), theta, tr, va, aid_method(Z=Z))
        per_solve.append(len(calls))
        assert res.diagnostics["solver_iters"].max() > (5 if Z == 20 else 4)
    assert per_solve[0] == per_solve[1]


@pytest.mark.parametrize("Z", [3, 40])
def test_aid_cg_applies_the_hessian_once_per_iteration_and_once_for_its_residual(Z):
    # AID_CG binds the Hessian at theta_K once; CG applies its map once per
    # iteration of its longest member and spends none on checking the
    # operator, and aid_residual applies it once more
    d = 12
    ds = zoo_dataset("logistic_l2", 60, d, seed=5)
    prob = zoo_problem("logistic_l2", ds)
    vals = draw_val_sets(ds.n, SplitPlan(U=3, gamma=0.25, master_seed=4))
    tr, va = split_stacks(ds.X, ds.y, vals)
    binds, products = [], []

    def bind_inner(lam, view):
        inner = prob.bind_inner(lam, view)

        def hessian(theta):
            binds.append(1)
            hvp = inner.hessian(theta)
            return lambda v: products.append(1) or hvp(v)

        return inner._replace(hessian=hessian)

    counting = dataclasses.replace(prob, bind_inner=bind_inner)
    theta = 0.3 * np.random.Generator(np.random.PCG64(6)).standard_normal((3, d))
    method = HypergradMethod(kind="AID_CG", K=5, alpha_in=0.1, Z=Z)
    res = estimate_hypergrad(counting, np.array([-1.0]), theta, tr, va, method)
    counts = res.diagnostics["solver_iters"]
    assert (counts.max() == Z) == (Z == 3)
    assert len(binds) == 1
    assert len(products) == counts.max() + 1
    plain = estimate_hypergrad(prob, np.array([-1.0]), theta, tr, va, method)
    assert res.grad.tobytes() == plain.grad.tobytes()


def test_reverse_pass_evaluates_the_softmax_once_per_point(monkeypatch):
    # the reverse pass reads the probabilities at theta_k in its mixed and
    # Hessian products; the binding evaluates them once for both, and the
    # solve's last gradient, at theta_{K-1}, leaves them in the binding's slot
    prob, tr, va = zoo_instance("hyperclean_softmax")
    assert tr.m != va.m
    rows = count_softmax_rows(monkeypatch)
    traj = inner_solve(prob, zoo_lambda(prob), np.zeros(prob.param_dim), tr, 3, 0.1)
    assert rows == [tr.m] * 3
    rows.clear()
    itd_hypergrad(prob, traj, va)
    # the outer gradient at theta_3, then theta_1 and theta_0 (theta_2's is the solve's)
    assert rows == [va.m, tr.m, tr.m]


def test_aid_refused_for_nonsmooth_hessian():
    prob, tr, va = zoo_instance("svm_sqhinge")
    assert not prob.supports_aid
    with pytest.raises(ContractViolationError):
        estimate_hypergrad(prob, np.array([0.0]), np.zeros(prob.param_dim), tr, va,
                           aid_method())


def test_aid_validation():
    prob, tr, va, lam = ridge_setup()
    with pytest.raises(ContractViolationError):
        aid_hypergrad(prob, inner_solve(prob, lam, np.zeros(3), tr, 0, 0.1), va,
                      HypergradMethod(kind="ITD", K=5))
    for kind, over, field in [("AID_CG", {"Z": 0}, "Z"), ("AID_FP", {"Z": 2.0}, "Z"),
                              ("AID_FP", {"fp_step": -1.0}, "fp_step"),
                              ("AID_CG", {"fp_step": "0.1"}, "fp_step")]:
        with pytest.raises(ContractViolationError) as err:
            aid_method(kind, **{"Z": 5, **over})
        assert err.value.field == field


# ---------------------------------------------------------------------------
# finite differences as the independent oracle

def test_finite_diff_halving_shows_quadratic_order():
    prob, tr, va, lam = ridge_setup()
    traj = inner_solve(prob, lam, np.zeros(3), tr, K=80, alpha_in=0.08)
    exact = itd_hypergrad(prob, traj, va).grad
    errs = {eps: np.linalg.norm(
        finite_diff_hypergrad(prob, lam, np.zeros(3), tr, va, 80, 0.08, eps=eps)
        - exact) for eps in (1e-2, 1e-3)}
    ratio = errs[1e-2] / errs[1e-3]
    assert 50.0 < ratio < 200.0  # central differences: error ~ eps^2
    assert errs[1e-3] < 1e-9


# ---------------------------------------------------------------------------
# contraction bookkeeping

def test_contraction_params_frozen_values():
    assert contraction_params(2.0, 1.0, 0.5) == 0.5
    assert contraction_params(2.0, 2.0, 0.5) == 0.0  # alpha = 2/(L+mu) exactly
    assert contraction_params(4.0, 1.0, 0.4) == pytest.approx(0.6)


def test_contraction_params_guards():
    with pytest.raises(ContractViolationError):
        contraction_params(4.0, 1.0, 0.6)  # alpha > 2/L
    with pytest.raises(ContractViolationError):
        contraction_params(1.0, 2.0, 0.1)  # mu > L
    with pytest.raises(ContractViolationError):
        contraction_params(1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# configured front end

def test_method_config_validation():
    with pytest.raises(ContractViolationError):
        HypergradMethod(kind="magic", K=5, alpha_in=0.1)
    with pytest.raises(ContractViolationError):
        HypergradMethod(kind="ITD", K=-1, alpha_in=0.1)
    with pytest.raises(ContractViolationError):
        HypergradMethod(kind="TRHG", K=5, alpha_in=0.1, h=6)
    with pytest.raises(ContractViolationError):
        HypergradMethod(kind="AID_CG", K=5, alpha_in=0.1, Z=0)
    # counts are integers (numpy ints too) and step sizes real numbers
    for bad in ({"K": 2.7}, {"K": "7"}, {"K": True}, {"alpha_in": "0.1"},
                {"alpha_in": float("nan")}):
        with pytest.raises(ContractViolationError) as err:
            HypergradMethod(**{"kind": "ITD", "K": 5, "alpha_in": 0.1, **bad})
        assert err.value.field == next(iter(bad))
    assert HypergradMethod(kind="ITD", K=np.int64(5), alpha_in=np.float32(0.1)).K == 5


def test_estimate_hypergrad_dispatch_consistency():
    prob, tr, va, lam = ridge_setup()
    th0 = np.zeros(3)
    itd = estimate_hypergrad(prob, lam, th0, tr, va,
                             HypergradMethod(kind="ITD", K=40, alpha_in=0.08))
    trhg = estimate_hypergrad(prob, lam, th0, tr, va,
                              HypergradMethod(kind="TRHG", K=40, alpha_in=0.08, h=40))
    assert_array_equal(itd.grad, trhg.grad)
    traj = inner_solve(prob, lam, th0, tr, 40, 0.08)
    aid = estimate_hypergrad(prob, lam, th0, tr, va,
                             HypergradMethod(kind="AID_CG", K=40, alpha_in=0.08, Z=8))
    same = aid_hypergrad(prob, traj, va, aid_method(Z=8))
    assert_array_equal(aid.grad, same.grad)


def test_estimate_hypergrad_propagates_divergence():
    prob, tr, va, lam = ridge_setup()
    method = HypergradMethod(kind="ITD", K=3000, alpha_in=80.0)
    with pytest.raises(NumericalError) as err:
        estimate_hypergrad(prob, lam, np.ones(3), tr, va, method)
    assert "non-finite" in str(err.value)


# ---------------------------------------------------------------------------
# stacked estimates

BATCH_METHODS = (
    HypergradMethod(kind="ITD", K=30, alpha_in=0.05),
    HypergradMethod(kind="TRHG", K=30, alpha_in=0.05, h=10),
    HypergradMethod(kind="AID_CG", K=60, alpha_in=0.05, Z=20),
    HypergradMethod(kind="AID_FP", K=60, alpha_in=0.05, Z=400),
)
# every kind with every estimator it offers (the squared hinge has no AID)
KIND_METHODS = [
    (kind, method) for kind in MODEL_KINDS for method in BATCH_METHODS
    if kind != "svm_sqhinge" or not method.kind.startswith("AID")
]


def member_views(n_members=5, d=3, kind="ridge"):
    """Per-member (train, val) views, each member with its own dataset and split."""
    trains, vals = [], []
    for c in range(n_members):
        ds = zoo_dataset(kind, 24, d, seed=40 + c)
        split = make_splits(ds.n, SplitPlan(U=1, gamma=0.25, master_seed=c))[0]
        trains.append(DataView(ds, split.train_idx))
        vals.append(DataView(ds, split.val_idx))
    return trains, vals


def member_problem(kind, trains):
    n_weights = trains[0].m if kind == "hyperclean_softmax" else 0
    return zoo_problem(kind, trains[0].dataset, n_weights, smoothing_delta=0.5)


def rel_diff(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


@pytest.mark.parametrize("kind, method", KIND_METHODS,
                         ids=[f"{k}-{m.kind}" for k, m in KIND_METHODS])
def test_stacked_estimate_matches_per_member_calls(kind, method):
    trains, vals = member_views(kind=kind)
    prob = member_problem(kind, trains)
    rng = np.random.Generator(np.random.PCG64(5))
    lam = 0.4 * rng.standard_normal((len(trains), prob.hyper_dim))
    theta0 = 0.1 * rng.standard_normal(prob.param_dim)
    res = estimate_hypergrad(prob, lam, theta0, stack(trains), stack(vals), method)
    assert res.grad.shape == (len(trains), prob.hyper_dim)
    for i, (tr, va) in enumerate(zip(trains, vals)):
        one = estimate_hypergrad(prob, lam[i], theta0, tr, va, method)
        assert rel_diff(res.grad[i], one.grad) <= 1e-12
        assert rel_diff(res.inner_final[i], one.inner_final) <= 1e-12
        for key, value in one.diagnostics.items():
            if key == "solver_iters":
                assert res.diagnostics[key][i] == value
            else:
                assert abs(res.diagnostics[key][i] - value) <= 1e-12 * max(1.0, abs(value))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_stacked_losses_match_per_member(kind):
    trains, vals = member_views(kind=kind)
    prob = member_problem(kind, trains)
    rng = np.random.Generator(np.random.PCG64(8))
    lam = 0.4 * rng.standard_normal((len(trains), prob.hyper_dim))
    theta = rng.standard_normal((len(trains), prob.param_dim))
    inner = prob.inner_loss(lam, theta, stack(trains))
    outer = prob.outer_loss(lam, theta, stack(vals))
    assert inner.shape == outer.shape == (len(trains),)
    for i, (tr, va) in enumerate(zip(trains, vals)):
        assert abs(inner[i] - prob.inner_loss(lam[i], theta[i], tr)) <= 1e-12 * abs(inner[i])
        assert abs(outer[i] - prob.outer_loss(lam[i], theta[i], va)) <= 1e-12 * abs(outer[i])


@pytest.mark.parametrize("method", BATCH_METHODS[:3], ids=lambda m: m.kind)
@pytest.mark.parametrize("stacked", [False, True], ids=["view", "stacked"])
def test_estimate_binds_the_inner_objective_once(method, stacked):
    # the estimator reuses the binding its inner solve stepped with
    trains, vals = member_views()
    prob = build_problem(ModelSpec(kind="ridge"), 3)
    bind, views = prob.bind_inner, []
    prob = dataclasses.replace(
        prob, bind_inner=lambda lam, view: views.append(view) or bind(lam, view))
    train, val = (stack(trains), stack(vals)) if stacked else (trains[0], vals[0])
    estimate_hypergrad(prob, np.zeros(1), np.zeros(3), train, val, method)
    assert len(views) == 1 and views[0] is train


def test_stacked_estimate_broadcasts_shared_lambda_and_start():
    trains, vals = member_views()
    prob = build_problem(ModelSpec(kind="ridge"), 3)
    method = BATCH_METHODS[0]
    lam = np.array([0.2])
    shared = estimate_hypergrad(prob, lam, np.zeros(3), stack(trains),
                                stack(vals), method)
    stacked = estimate_hypergrad(prob, np.tile(lam, (5, 1)), np.zeros((5, 3)),
                                 stack(trains), stack(vals), method)
    assert_array_equal(shared.grad, stacked.grad)


def scaled_member(c, scale):
    """Member c of member_views with its features scaled, which scales L by scale^2."""
    ds, _ = gen_linear(24, 3, 0.3, seed=40 + c, beta_seed=1)
    big = Dataset(X=scale * ds.X, y=ds.y, task="regression")
    split = make_splits(big.n, SplitPlan(U=1, gamma=0.25, master_seed=c))[0]
    return DataView(big, split.train_idx), DataView(big, split.val_idx)


def test_stacked_estimate_names_diverging_member():
    trains, vals = member_views()
    # member 2 sees features scaled by 30, so alpha_in is far beyond its 2/L
    trains[2], vals[2] = scaled_member(2, 30.0)
    prob = build_problem(ModelSpec(kind="ridge"), 3)
    method = HypergradMethod(kind="ITD", K=400, alpha_in=0.1)
    with pytest.raises(NumericalError) as err:
        estimate_hypergrad(prob, np.zeros(1), np.zeros(3), stack(trains),
                           stack(vals), method)
    assert err.value.member == 2
    assert f"step {err.value.step_index}" in str(err.value)
    assert "(member 2)" in str(err.value)
    with pytest.raises(NumericalError) as alone:
        inner_solve(prob, np.zeros(1), np.zeros(3), trains[2], 400, 0.1)
    assert alone.value.step_index == err.value.step_index
    assert alone.value.member is None


def stepwise_failure(prob, lam, theta0, train, K, alpha_in):
    """(step, member) of the first non-finite inner gradient, checking every step."""
    lam = np.broadcast_to(lam, np.shape(theta0)[:-1] + lam.shape[-1:])
    grad = prob.bind_inner(lam, train).grad
    theta = np.array(theta0, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            g = grad(theta)
            bad = ~np.isfinite(g).all(axis=-1)
            if bad.any():
                return k, (int(np.argmax(bad)) if bad.ndim else None)
            theta = theta - alpha_in * g
    return None


def test_members_diverging_at_different_steps_name_the_first():
    trains, vals = member_views()
    # member 3 (L x 100) diverges, and member 1 (L x 900) diverges sooner
    trains[1], vals[1] = scaled_member(1, 30.0)
    trains[3], vals[3] = scaled_member(3, 10.0)
    prob = build_problem(ModelSpec(kind="ridge"), 3)
    lam, K, alpha = np.zeros(1), 400, 0.1
    step_1 = stepwise_failure(prob, lam, np.zeros(3), trains[1], K, alpha)[0]
    step_3 = stepwise_failure(prob, lam, np.zeros(3), trains[3], K, alpha)[0]
    assert step_1 < step_3
    with pytest.raises(NumericalError) as err:
        inner_solve(prob, lam, np.zeros(3), stack(trains), K, alpha)
    expected = stepwise_failure(prob, lam, np.zeros((5, 3)), stack(trains), K, alpha)
    assert (err.value.step_index, err.value.member) == expected == (step_1, 1)
    # without member 1, the stack fails where member 3 does, and names it
    rest = [trains[i] for i in (0, 2, 3, 4)]
    with pytest.raises(NumericalError) as err:
        inner_solve(prob, lam, np.zeros(3), stack(rest), K, alpha)
    assert (err.value.step_index, err.value.member) == (step_3, 2)
    assert f"step {step_3}" in str(err.value)


def test_overflowing_update_is_named_at_the_next_step():
    # grad = -theta doubles theta each step: from 1e300 the gradient stays
    # finite, and the update theta - (-theta) overflows at step 27
    prob, tr, _, lam = ridge_setup()
    bind = prob.bind_inner
    prob = dataclasses.replace(prob, bind_inner=lambda lam, view: bind(lam, view)._replace(
        grad=lambda theta: -theta))
    theta0 = np.full(3, 1e300)
    with pytest.raises(NumericalError) as err:
        inner_solve(prob, lam, theta0, tr, K=40, alpha_in=1.0)
    assert err.value.step_index == 28
    assert stepwise_failure(prob, lam, theta0, tr, 40, 1.0) == (28, None)
    # overflowing on the last step leaves no gradient to check: the solve
    # ended non-finite, at that step
    with pytest.raises(NumericalError, match="the inner solve ended non-finite") as err:
        inner_solve(prob, lam, theta0, tr, K=28, alpha_in=1.0)
    assert err.value.step_index == 27
    assert stepwise_failure(prob, lam, theta0, tr, 28, 1.0) is None


def last_step_overflow_views(scale=1.0):
    """(train, val) of a ridge split whose solve at alpha_in 5 and lam 0
    overflows on step 226, with every gradient before it finite; at scale
    0.01 and lam CALM_LAM the solve converges."""
    ds = synthetic("regression", 40, 1, 0, 0.5, 3, 1)
    ds = Dataset(X=scale * ds.X, y=ds.y, task="regression")
    val = draw_val_sets(40, SplitPlan(U=1, gamma=0.25, master_seed=0))[0]
    return DataView(ds, complements(40, val)), DataView(ds, val)


# a raw lam at which alpha_in 5 is below 2/L for the scaled-down split: at
# lam 0 the penalty alone puts L at 2 or more for ridge and ridge_per_param
CALM_LAM = -5.0


# ITD runs forward on ridge and by the reverse pass on ridge_per_param
FAILED_SOLVE_CASES = [
    (kind, HypergradMethod(kind=method, K=227, alpha_in=5.0, Z=10 if method != "ITD" else 0))
    for kind, method in (("ridge", "ITD"), ("ridge_per_param", "ITD"),
                         ("ridge", "AID_CG"), ("ridge", "AID_FP"))]


@pytest.mark.parametrize("kind, method", FAILED_SOLVE_CASES,
                         ids=[f"{k}-{m.kind}" for k, m in FAILED_SOLVE_CASES])
def test_a_solve_that_ends_non_finite_is_named_alike_by_every_estimator(kind, method):
    tr, va = last_step_overflow_views()
    prob = build_problem(ModelSpec(kind=kind), 1)
    lam, theta0 = np.zeros(1), np.zeros(1)
    assert forward_mode(prob, method) == (kind == "ridge" and method.kind == "ITD")
    assert stepwise_failure(prob, lam, theta0, tr, 227, 5.0) is None
    for run in (lambda: inner_solve(prob, lam, theta0, tr, 227, 5.0),
                lambda: estimate_hypergrad(prob, lam, theta0, tr, va, method)):
        with pytest.raises(NumericalError,
                           match="^the inner solve ended non-finite at step 226$") as err:
            run()
        assert (err.value.step_index, err.value.member) == (226, None)


@pytest.mark.parametrize("kind, method", FAILED_SOLVE_CASES,
                         ids=[f"{k}-{m.kind}" for k, m in FAILED_SOLVE_CASES])
def test_a_stacked_solve_that_ends_non_finite_names_its_first_such_member(kind, method):
    calm, wild = last_step_overflow_views(0.01), last_step_overflow_views()
    members = [calm, wild, calm, wild]
    train, val = stack([m[0] for m in members]), stack([m[1] for m in members])
    prob = build_problem(ModelSpec(kind=kind), 1)
    lam, theta0 = np.array([[CALM_LAM], [0.0], [CALM_LAM], [0.0]]), np.zeros(1)
    assert stepwise_failure(prob, lam, np.zeros((4, 1)), train, 227, 5.0) is None
    for run in (lambda: inner_solve(prob, lam, theta0, train, 227, 5.0),
                lambda: estimate_hypergrad(prob, lam, theta0, train, val, method)):
        with pytest.raises(NumericalError,
                           match="ended non-finite at step 226 \\(member 1\\)$") as err:
            run()
        assert (err.value.step_index, err.value.member) == (226, 1)
    # the calm member alone solves to a finite theta_K
    assert np.all(np.isfinite(inner_solve(prob, lam[0], theta0, calm[0], 227, 5.0).final))


# ---------------------------------------------------------------------------
# a solve whose gradient norm grows is refused

GROWTH_MESSAGE = ("the inner gradient norm at step 199 exceeds its norm at step 0, so the "
                  "inner steps diverge: lower method.alpha_in")


def test_a_growing_member_is_named_by_its_index_in_the_callers_stack():
    # at lam 2.5, alpha_in 0.1 is above 2/L for member 3, whose gradient norm
    # grows about 7e45-fold over 200 steps while theta_K stays finite; the
    # other four retire from the forward pass at steps 128 and 144, which
    # compacts the stack to members 2 and 3, then to member 3 alone
    trains, vals = member_views()
    prob = build_problem(ModelSpec(kind="ridge"), 3)
    lam = np.zeros((5, 1))
    lam[3] = 2.5
    train, val = stack(trains), stack(vals)
    method = HypergradMethod(kind="ITD", K=200, alpha_in=0.1)
    assert forward_mode(prob, method)
    assert stepwise_failure(prob, lam, np.zeros((5, 3)), train, 200, 0.1) is None
    calm = forward_hypergrad(prob, np.zeros((5, 1)), np.zeros(3), train, val, method)
    assert np.all(calm.diagnostics["steps"] < 200)
    bind, bound = prob.bind_inner, []
    counting = dataclasses.replace(
        prob, bind_inner=lambda lam, view: bound.append(len(view)) or bind(lam, view))
    for run in (lambda: estimate_hypergrad(counting, lam, np.zeros(3), train, val, method),
                lambda: inner_solve(prob, lam, np.zeros(3), train, 200, 0.1)):
        with pytest.raises(NumericalError, match=f"^{GROWTH_MESSAGE} \\(member 3\\)$") as err:
            run()
        assert (err.value.step_index, err.value.member) == (199, 3)
    assert bound == [5, 2, 1]
    with pytest.raises(NumericalError, match=f"^{GROWTH_MESSAGE}$") as err:
        estimate_hypergrad(prob, lam[3], np.zeros(3), trains[3], vals[3], method)
    assert (err.value.step_index, err.value.member) == (199, None)


def logistic_d1_views(seed):
    """(train, val) of a one-feature logistic_l2 split of 40 rows."""
    ds = synthetic("binary", 40, 1, 2, 0.4, seed, 2)
    val = draw_val_sets(40, SplitPlan(U=1, gamma=0.25, master_seed=seed))[0]
    return DataView(ds, complements(40, val)), DataView(ds, val)


def test_a_member_that_retires_in_a_two_cycle_is_still_refused():
    # at alpha_in 2 and lam -1, seed 3's solve settles into a two-cycle
    # between theta near 0.59 and -1.47, whose gradient norms (about 1.03)
    # exceed the 0.39 at theta = 0: its state repeats, so the forward pass
    # retires it, and its gradient at the retirement check has the bits of
    # its gradient at step K - 1. Members 1 and 2 retire together, which
    # compacts the stack to member 0 (seed 6, still moving at step K)
    prob = build_problem(ModelSpec(kind="logistic_l2"), 1)
    (c_tr, c_va), (s_tr, s_va) = logistic_d1_views(3), logistic_d1_views(6)
    train, val = stack([s_tr, c_tr, c_tr]), stack([s_va, c_va, c_va])
    lam = np.full((3, 1), -1.0)
    method = HypergradMethod(kind="ITD", K=200, alpha_in=2.0)
    assert forward_mode(prob, method)
    bind, bound = prob.bind_inner, []
    counting = dataclasses.replace(
        prob, bind_inner=lambda lam, view: bound.append(len(view)) or bind(lam, view))
    message = GROWTH_MESSAGE + " \\(member 1\\)$"
    with pytest.raises(NumericalError, match=message) as err:
        estimate_hypergrad(counting, lam, np.zeros(1), train, val, method)
    assert bound == [3, 1] and err.value.step_index == 199
    with pytest.raises(NumericalError, match=message):
        inner_solve(prob, lam, np.zeros(1), train, 200, 2.0)
    steady = forward_hypergrad(prob, lam[0], np.zeros(1), s_tr, s_va, method)
    assert steady.diagnostics["steps"] == 200


def test_a_solve_started_at_its_fixed_point_is_not_refused():
    # as from a converged warm start: theta repeats from step 0, so the
    # gradient at the last step has the bits of the one at step 0
    prob, tr, va, lam = ridge_setup()
    start = inner_solve(prob, lam, np.zeros(3), tr, K=3000, alpha_in=0.1).final
    traj = inner_solve(prob, lam, start, tr, K=50, alpha_in=0.1)
    assert all(t.tobytes() == start.tobytes() for t in traj.thetas)
    for kind in ("ITD", "AID_CG"):
        method = HypergradMethod(kind=kind, K=50, alpha_in=0.1, Z=10 * (kind != "ITD"))
        res = estimate_hypergrad(prob, lam, start, tr, va, method)
        assert res.inner_final.tobytes() == start.tobytes()


def test_a_healthy_lasso_smooth_solve_whose_gradient_norm_rises_still_returns():
    # at delta = 1e-6 the pseudo-Huber curvature puts alpha_in far above 2/L,
    # so near its minimizer the solve bounces across the kink: its gradient
    # norm rises, yet theta stays near the minimizer
    _, tr, va, _ = ridge_setup()
    prob = build_problem(ModelSpec(kind="lasso_smooth", smoothing_delta=1e-6), 3)
    lam = np.zeros(1)
    start = inner_solve(prob, lam, np.zeros(3), tr, K=3000, alpha_in=0.01).final
    traj = inner_solve(prob, lam, start, tr, K=20, alpha_in=0.1)
    grad = prob.bind_inner(lam, tr).grad
    norms = [np.linalg.norm(grad(traj.thetas[k])) for k in (0, 19)]
    assert norms[1] > 1.01 * norms[0]
    assert np.linalg.norm(traj.final - start) < 0.2
    res = estimate_hypergrad(prob, lam, start, tr, va,
                             HypergradMethod(kind="ITD", K=20, alpha_in=0.1))
    assert res.inner_final.tobytes() == traj.final.tobytes()
    assert np.all(np.isfinite(res.grad))


# ---------------------------------------------------------------------------
# forward mode

# the kinds with one raw hyperparameter, whose ITD and TRHG run forward
FORWARD_KINDS = ("ridge", "lasso_smooth", "logistic_l2", "svm_sqhinge", "softmax_l2")
FORWARD_METHODS = [HypergradMethod(kind="ITD", K=30, alpha_in=0.05)] + [
    HypergradMethod(kind="TRHG", K=30, alpha_in=0.05, h=h) for h in (1, 15, 30)]


def test_forward_mode_is_itd_and_trhg_on_one_hyperparameter_kinds():
    for kind in MODEL_KINDS:
        prob = member_problem(kind, member_views(kind=kind)[0])
        assert prob.has_dgrad_dlam == (kind in FORWARD_KINDS), kind
        for method in BATCH_METHODS:
            assert forward_mode(prob, method) == (
                kind in FORWARD_KINDS and method.kind in ("ITD", "TRHG"))


@pytest.mark.parametrize("stacked", [False, True], ids=["view", "stacked"])
@pytest.mark.parametrize("method", FORWARD_METHODS,
                         ids=lambda m: f"{m.kind}-h{m.h}" if m.h else m.kind)
@pytest.mark.parametrize("kind", FORWARD_KINDS)
def test_forward_estimate_matches_reverse_pass(kind, method, stacked):
    trains, vals = member_views(kind=kind)
    prob = member_problem(kind, trains)
    rng = np.random.Generator(np.random.PCG64(6))
    lam = 0.4 * rng.standard_normal((len(trains), 1))
    theta0 = 0.1 * rng.standard_normal((len(trains), prob.param_dim))
    if stacked:
        train, val = stack(trains), stack(vals)
    else:
        train, val, lam, theta0 = trains[0], vals[0], lam[0], theta0[0]
    got = estimate_hypergrad(prob, lam, theta0, train, val, method)
    traj = inner_solve(prob, lam, theta0, train, method.K, method.alpha_in)
    want = itd_hypergrad(prob, traj, val, h=method.h or None)
    assert got.grad.shape == want.grad.shape
    assert rel_diff(got.grad, want.grad) <= 1e-12
    # the forward pass takes the inner steps of inner_solve, with their bits
    assert_array_equal(got.inner_final, traj.final)


@pytest.mark.parametrize("method", FORWARD_METHODS[:2], ids=lambda m: m.kind)
@pytest.mark.parametrize("kind", FORWARD_KINDS)
def test_stacked_forward_member_keeps_the_bits_of_its_own_call(kind, method):
    trains, vals = member_views(kind=kind)
    prob = member_problem(kind, trains)
    rng = np.random.Generator(np.random.PCG64(7))
    lam = 0.4 * rng.standard_normal((len(trains), 1))
    theta0 = 0.1 * rng.standard_normal(prob.param_dim)
    res = forward_hypergrad(prob, lam, theta0, stack(trains), stack(vals), method)
    for i, (tr, va) in enumerate(zip(trains, vals)):
        one = forward_hypergrad(prob, lam[i], theta0, tr, va, method)
        assert_array_equal(res.grad[i], one.grad)
        assert_array_equal(res.inner_final[i], one.inner_final)


@pytest.mark.parametrize("method", FORWARD_METHODS[:2], ids=lambda m: m.kind)
def test_stacked_d1_ridge_member_keeps_the_bits_of_its_own_call(method):
    # at d = 1 the bound H = 2A + c2 multiplies elementwise (_matvec's
    # multiply path, which the benchmark's sweep runs) on a stack as on a view
    trains, vals = member_views(n_members=7, d=1)
    prob = member_problem("ridge", trains)
    rng = np.random.Generator(np.random.PCG64(9))
    lam = 0.4 * rng.standard_normal((len(trains), 1))
    res = forward_hypergrad(prob, lam, np.zeros(1), stack(trains), stack(vals), method)
    for i, (tr, va) in enumerate(zip(trains, vals)):
        one = forward_hypergrad(prob, lam[i], np.zeros(1), tr, va, method)
        assert res.grad[i].tobytes() == one.grad.tobytes()
        assert res.inner_final[i].tobytes() == one.inner_final.tobytes()


def test_forward_estimate_names_an_overflow_on_the_last_step():
    # as in test_overflowing_update_is_named_at_the_next_step: the update
    # overflows at step 27, so the failed solve names step 28 when there is
    # one, and step 27 when it is the last
    prob, tr, va, lam = ridge_setup()
    bind = prob.bind_inner
    prob = dataclasses.replace(prob, bind_inner=lambda lam, view: bind(lam, view)._replace(
        grad=lambda theta: -theta))
    theta0 = np.full(3, 1e300)
    for K, step in ((40, 28), (28, 27)):
        with pytest.raises(NumericalError) as err:
            estimate_hypergrad(prob, lam, theta0, tr, va,
                               HypergradMethod(kind="ITD", K=K, alpha_in=1.0))
        assert err.value.step_index == step


# ---------------------------------------------------------------------------
# forward members retire once their state repeats

def plain_forward(prob, lam, theta0, train, val, method):
    """(grad, theta_K, states) of a forward estimate by all K steps, with the
    forward pass's operations; states holds (theta_k, Z_k) for k = 1 .. K."""
    K, alpha = method.K, method.alpha_in
    first = K - method.h if method.kind == "TRHG" else 0
    lam = np.broadcast_to(lam, np.shape(theta0)[:-1] + np.shape(lam)[-1:])
    inner = prob.bind_inner(lam, train)
    theta = np.array(theta0, dtype=np.float64)
    Z, states = np.zeros_like(theta), []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            if k >= first:
                step = inner.hessian(theta)(Z)
                step += inner.dgrad_dlam(theta)
                step *= alpha
                Z = Z - step
            g = inner.grad(theta)
            g *= alpha
            theta = theta - g
            states.append((theta, Z))
        a = prob.outer_grad_theta(lam, theta, val)
        grad = prob.outer_grad_lambda(lam, theta, val) + row_dot(Z, a)[..., None]
    return grad, theta, states


def u_at(train, alpha, alpha_L):
    """Raw lam at which alpha * L(H) = alpha_L for ridge's H = 2A + 2 e^u I:
    above 1 the iterates oscillate about the fixed point, and above 2 they
    diverge."""
    L = np.linalg.eigvalsh(2.0 * train.gram[0]).max()
    return math.log((alpha_L / alpha - L) / 2.0)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def assert_forward_is_plain(prob, lam, theta0, train, val, method):
    """The forward estimate has the bits of plain_forward's; returns it and its states."""
    got = forward_hypergrad(prob, lam, theta0, train, val, method)
    grad, theta, states = plain_forward(prob, lam, theta0, train, val, method)
    assert same_bits(got.grad, grad)
    assert same_bits(got.inner_final, theta)
    return got, states


def member_state(states, k, i=None):
    """The bits of (theta_k, Z_k) of states, of member i of a stack."""
    theta, Z = states[k - 1]
    return (theta, Z) if i is None else (theta[i], Z[i])


@pytest.mark.parametrize("K", [200, 201])
def test_a_forward_view_retires_at_a_fixed_point_or_a_two_cycle(K):
    trains, vals = member_views(n_members=2, d=1)
    prob = member_problem("ridge", trains)
    method = HypergradMethod(kind="ITD", K=K, alpha_in=0.1)
    cycle_u = u_at(trains[1], 0.1, 1.3)
    for tr, va, u, period in ((trains[0], vals[0], 0.0, 1), (trains[1], vals[1], cycle_u, 2)):
        got, states = assert_forward_is_plain(prob, np.array([u]), np.zeros(1), tr, va, method)
        assert isinstance(got.diagnostics["steps"], int)
        assert got.diagnostics["steps"] < K
        last, before = member_state(states, K), member_state(states, K - 1)
        # the member ends at a fixed point, or in a true two-cycle
        assert (same_bits(last, before)) == (period == 1)
        assert same_bits(last, member_state(states, K - 2))


@pytest.mark.parametrize("K", [200, 201])
@pytest.mark.parametrize("d", [1, 5])
def test_stacked_members_retire_with_the_bits_of_all_k_steps(d, K):
    # members 1 and 3 oscillate (alpha L just above 1) and the others move to
    # a fixed point; member 4 starts far out and is still moving at step K
    trains, vals = member_views(n_members=5, d=d)
    prob = member_problem("ridge", trains)
    method = HypergradMethod(kind="ITD", K=K, alpha_in=0.1)
    lam = np.zeros((5, 1))
    lam[1, 0], lam[3, 0] = (u_at(trains[i], 0.1, 1.3) for i in (1, 3))
    lam[4, 0] = -3.0
    theta0 = np.zeros((5, d))
    theta0[4] = 1e3
    got, states = assert_forward_is_plain(prob, lam, theta0, stack(trains), stack(vals), method)
    steps = got.diagnostics["steps"]
    assert steps.shape == (5,)
    assert np.all(steps[:4] < K) and steps[4] == K
    for i in range(5):
        last = member_state(states, K, i)
        assert same_bits(last, member_state(states, K - 2, i)) == (i < 4)
        assert same_bits(last, member_state(states, K - 1, i)) == (i in (0, 2))
        one = forward_hypergrad(prob, lam[i], theta0[i], trains[i], vals[i], method)
        assert same_bits(got.grad[i], one.grad)
        assert same_bits(got.inner_final[i], one.inner_final)


def test_trhg_members_retire_only_once_their_window_is_open():
    # theta settles long before the window opens (at a fixed point or in a
    # two-cycle), and Z is 0 until it does, so the state repeats early; a
    # member may retire at step K - h + 2 at the soonest, with a tangent
    # stepped twice
    trains, vals = member_views(n_members=4, d=1)
    prob = member_problem("ridge", trains)
    K, h = 200, 40
    method = HypergradMethod(kind="TRHG", K=K, alpha_in=0.1, h=h)
    lam = np.array([[u_at(tr, 0.1, c)] for tr, c in zip(trains, (0.7, 1.3, 0.7, 1.3))])
    got, states = assert_forward_is_plain(prob, lam, np.zeros((4, 1)), stack(trains),
                                          stack(vals), method)
    assert all(same_bits(member_state(states, 100, i), member_state(states, 98, i))
               for i in range(4))
    steps = got.diagnostics["steps"]
    assert np.all(steps >= K - h + 2) and np.any(steps < K)
    for i in range(4):
        one = forward_hypergrad(prob, lam[i], np.zeros(1), trains[i], vals[i], method)
        assert same_bits(got.grad[i], one.grad)


def test_forward_steps_are_k_for_members_that_never_retire():
    trains, vals = member_views()
    prob = member_problem("ridge", trains)
    method = FORWARD_METHODS[0]
    got = forward_hypergrad(prob, np.zeros(1), np.zeros(3), stack(trains), stack(vals), method)
    assert_array_equal(got.diagnostics["steps"], np.full(5, method.K))
    assert forward_hypergrad(prob, np.zeros(1), np.zeros(3), trains[0], vals[0],
                             method).diagnostics["steps"] == method.K


def test_the_sweeps_forward_members_retire_in_under_a_quarter_of_k():
    # the benchmark sweep's shape: ridge, d = 1, n = 100, K = 500; nearly all
    # members reach a fixed point or a two-cycle long before step K
    design = SweepDesign(n=100, d=1, noise_sigma=0.5, gamma=0.25)
    train, val = _replicate_stacks(design, ModelSpec(kind="ridge"), 1, 3, 40)
    lam = np.log(np.linspace(0.3, 3.0, 40))[:, None]
    method = HypergradMethod(kind="ITD", K=500, alpha_in=0.1)
    got = estimate_hypergrad(RIDGE1, lam, np.zeros(1), train, val, method)
    assert np.median(got.diagnostics["steps"]) < method.K / 4


def recording_binds(prob):
    """prob whose bind_inner records the lam of every binding."""
    lams, bind = [], prob.bind_inner
    return lams, dataclasses.replace(
        prob, bind_inner=lambda lam, view: lams.append(lam.copy()) or bind(lam, view))


@pytest.mark.parametrize("start", ["diverging", "nan"])
def test_a_failure_after_members_retired_is_named_in_the_whole_stack(start):
    # five of six members reach a fixed point and leave the stack; member 3
    # overflows from a start far out (alpha L = 2.5), or starts at NaN. The
    # failure names its step and member in the whole stack, as a plain
    # stepping loop over the whole stack does
    trains, vals = member_views(n_members=6, d=1)
    lams, prob = recording_binds(member_problem("ridge", trains))
    lam = np.zeros((6, 1))
    lam[3, 0] = u_at(trains[3], 0.1, 2.5)
    theta0 = np.zeros((6, 1))
    theta0[3] = 1e250 if start == "diverging" else np.nan
    method = HypergradMethod(kind="ITD", K=400, alpha_in=0.1)
    message = r"^inner gradient became non-finite at step \d+ \(member 3\)$"
    with pytest.raises(NumericalError, match=message) as err:
        forward_hypergrad(prob, lam, theta0, stack(trains), stack(vals), method)
    expected = stepwise_failure(prob, lam, theta0, stack(trains), 400, 0.1)
    assert (err.value.step_index, err.value.member) == expected
    assert (expected[0] > 0) == (start == "diverging")
    # members retired (a binding of fewer members) before the whole stack
    # replayed, and member 3 never did: its state never repeats, or repeats
    # bit for bit but is not finite
    counts = [len(x) for x in lams]
    assert counts[0] == counts[-1] == 6 and min(counts) < 6
    assert all(lam[3, 0] in x for x in lams)


# ---------------------------------------------------------------------------
# the loops step in place on arrays of their own

IN_PLACE_METHODS = [HypergradMethod(kind="ITD", K=12, alpha_in=0.05),
                    HypergradMethod(kind="TRHG", K=12, alpha_in=0.05, h=5),
                    HypergradMethod(kind="AID_CG", K=12, alpha_in=0.05, Z=5)]


@pytest.mark.parametrize("start", ["view", "shared", "per_member"])
@pytest.mark.parametrize("kind", ["ridge", "logistic_l2", "elastic_net"])
def test_estimates_never_write_into_their_callers_arrays(kind, start):
    # ridge and logistic_l2 run ITD and TRHG forward, elastic_net by the
    # reverse pass; a DataView's theta0 and a stack's (B, r) theta0 reach the
    # loops as the caller's own arrays
    trains, vals = member_views(kind=kind)
    prob = member_problem(kind, trains)
    p, r = prob.hyper_dim, prob.param_dim
    rng = np.random.Generator(np.random.PCG64(3))
    if start == "view":
        train, val, lam = trains[0], vals[0], 0.3 * rng.standard_normal(p)
    else:
        train, val = stack(trains), stack(vals)
        lam = 0.3 * rng.standard_normal((5, p))
    theta0 = 0.1 * rng.standard_normal((5, r) if start == "per_member" else r)
    inputs = [lam, theta0] + [x for view in (train, val) for x in (view.X, view.y, *view.gram)]
    before = [x.copy() for x in inputs]

    traj = inner_solve(prob, lam, theta0, train, 12, 0.05)
    thetas = traj.thetas
    assert not any(np.shares_memory(a, b) for i, a in enumerate(thetas) for b in thetas[i + 1:])
    assert not any(np.shares_memory(t, theta0) for t in thetas)
    recorded = [t.copy() for t in thetas]
    itd_hypergrad(prob, traj, val)
    itd_hypergrad(prob, traj, val, h=5)
    aid_hypergrad(prob, traj, val, IN_PLACE_METHODS[2])
    assert all(t.tobytes() == u.tobytes() for t, u in zip(traj.thetas, recorded))
    if prob.has_dgrad_dlam:
        for method in IN_PLACE_METHODS[:2]:
            forward_hypergrad(prob, lam, theta0, train, val, method)
    for method in IN_PLACE_METHODS:
        res = estimate_hypergrad(prob, lam, theta0, train, val, method)
        assert not np.shares_memory(res.inner_final, theta0)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(inputs, before))


def test_diverging_forward_estimate_from_a_callers_stack_names_the_step_and_member():
    # the failed solve takes its steps again from the caller's (B, r) theta0,
    # which the forward pass must leave as it was given
    trains, vals = member_views()
    trains[2], vals[2] = scaled_member(2, 30.0)
    prob = build_problem(ModelSpec(kind="ridge"), 3)
    method = HypergradMethod(kind="ITD", K=400, alpha_in=0.1)
    assert forward_mode(prob, method)
    theta0 = np.full((5, 3), 0.01)
    with pytest.raises(NumericalError) as err:
        estimate_hypergrad(prob, np.zeros((5, 1)), theta0, stack(trains),
                           stack(vals), method)
    expected = stepwise_failure(prob, np.zeros(1), np.full((5, 3), 0.01), stack(trains),
                                400, 0.1)
    assert (err.value.step_index, err.value.member) == expected
    assert expected[0] > 0 and expected[1] == 2
    assert np.all(theta0 == 0.01)


def test_stacked_views_refused_for_bad_shapes():
    trains, vals = member_views()
    ridge = build_problem(ModelSpec(kind="ridge"), 3)
    bad_calls = [
        (np.zeros((4, 1)), np.zeros(3), stack(trains), stack(vals)),
        (np.zeros(1), np.zeros((5, 2)), stack(trains), stack(vals)),
        (np.zeros(1), np.zeros(3), stack(trains), stack(vals[:4])),
        (np.zeros(1), np.zeros(3), stack(trains), vals[0]),
    ]
    for lam, theta0, train, val in bad_calls:
        with pytest.raises(ContractViolationError):
            estimate_hypergrad(ridge, lam, theta0, train, val, BATCH_METHODS[2])
