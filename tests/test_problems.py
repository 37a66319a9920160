"""Model zoo: losses, gradients, second-order products, derivative checker."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from bihpo.data import DataView, Dataset, SplitPlan, full_view, gen_linear, gen_multiclass, make_splits
from bihpo.errors import ConfigError, ContractViolationError
from bihpo.problems import (
    MODEL_KINDS,
    ModelSpec,
    _log_softmax,
    _row_max,
    _row_sum,
    build_problem,
    sigmoid,
    verify_derivatives,
)
from helpers import zoo_instance

RIDGE = build_problem(ModelSpec(kind="ridge"), 1)


def regression_views(n=30, d=4, seed=5):
    ds, _ = gen_linear(n, d, 0.3, seed=seed, beta_seed=1)
    split = make_splits(n, SplitPlan(U=1, gamma=0.25, master_seed=7))[0]
    return ds, split.train_view(ds), split.val_view(ds)


# ---------------------------------------------------------------------------
# frozen hand values

def test_ridge_grad_at_zero_is_pure_data_term():
    ds = Dataset(X=np.eye(2), y=np.array([1.0, 2.0]), task="regression")
    prob = build_problem(ModelSpec(kind="ridge"), 2)
    g = prob.inner_grad_theta(np.array([0.7]), np.zeros(2), full_view(ds))
    assert_allclose(g, -(2.0 / 2.0) * ds.X.T @ ds.y)  # regularizer term vanishes


def test_ridge_one_feature_hand_gradient():
    # X = [[1],[1]], Y = (1,1), theta = 0.5, lambda_eff = 2:
    # (2/m) sum (x theta - y) x + 2 lambda_eff theta = -1.0 + 2.0 = 1.0
    ds = Dataset(X=np.array([[1.0], [1.0]]), y=np.array([1.0, 1.0]), task="regression")
    g = RIDGE.inner_grad_theta(np.array([math.log(2.0)]), np.array([0.5]), full_view(ds))
    assert_allclose(g, [1.0], atol=1e-14)


def test_ridge_inner_loss_value():
    ds = Dataset(X=np.array([[1.0], [1.0]]), y=np.array([1.0, 1.0]), task="regression")
    val = RIDGE.inner_loss(np.array([math.log(2.0)]), np.array([0.5]), full_view(ds))
    assert_allclose(val, 0.25 + 2.0 * 0.25)  # mean residual^2 + lambda * theta^2


def test_elastic_net_coordinate_roles():
    # u[0] scales the smoothed-L1 term, u[1] the squared-L2 term
    ds = Dataset(X=np.zeros((2, 2)), y=np.zeros(2), task="regression")
    delta = 1e-6
    prob = build_problem(ModelSpec(kind="elastic_net", smoothing_delta=delta), 2)
    lam = np.array([math.log(2.0), math.log(3.0)])
    theta = np.array([1.0, 0.0])
    expect = 2.0 * (math.sqrt(1.0 + delta**2) - delta) + 3.0 * 1.0
    assert_allclose(prob.inner_loss(lam, theta, full_view(ds)), expect, rtol=1e-12)


def test_ridge_per_param_hand_values():
    ds = Dataset(X=np.zeros((2, 3)), y=np.zeros(2), task="regression")
    prob = build_problem(ModelSpec(kind="ridge_per_param"), 3)
    assert prob.hyper_dim == 3
    lam = np.zeros(3)
    theta = np.array([1.0, -2.0, 0.5])
    # reg = sum_j e^{2 u_j} theta_j^2; at u = 0 it is ||theta||^2
    assert_allclose(prob.inner_loss(lam, theta, full_view(ds)), 1.0 + 4.0 + 0.25)
    v = np.array([1.0, 1.0, 1.0])
    assert_allclose(prob.inner_mixed_vp(lam, theta, full_view(ds), v), 4.0 * theta * v)


def test_logistic_loss_at_zero():
    ds = Dataset(X=np.ones((4, 2)), y=np.array([1.0, -1, 1, -1]), task="binary")
    prob = build_problem(ModelSpec(kind="logistic_l2"), 2)
    assert_allclose(prob.inner_loss(np.array([-30.0]), np.zeros(2), full_view(ds)),
                    math.log(2.0), rtol=1e-9)


def test_svm_sqhinge_at_zero():
    ds = Dataset(X=np.array([[1.0, 0.0], [0.0, 1.0]]), y=np.array([1.0, -1.0]),
                 task="binary")
    prob = build_problem(ModelSpec(kind="svm_sqhinge"), 2)
    lam = np.array([-30.0])  # effectively unregularized
    # all margins are 1 at theta = 0: loss = 1, grad = -(2/m) X^T y
    assert_allclose(prob.inner_loss(lam, np.zeros(2), full_view(ds)), 1.0, rtol=1e-9)
    assert_allclose(prob.inner_grad_theta(lam, np.zeros(2), full_view(ds)),
                    [-1.0, 1.0], atol=1e-9)
    assert prob.supports_aid is False


def test_softmax_loss_at_zero_is_log_k():
    ds, _ = gen_multiclass(12, 3, 4, 0.2, seed=3, beta_seed=3)
    prob = build_problem(ModelSpec(kind="softmax_l2", num_classes=4), 3)
    loss = prob.inner_loss(np.array([-30.0]), np.zeros(prob.param_dim), full_view(ds))
    assert_allclose(loss, math.log(4.0), rtol=1e-9)


def test_hyperclean_zero_weights_halve_mean_ce():
    ds, _ = gen_multiclass(10, 3, 3, 0.2, seed=4, beta_seed=4)
    view = full_view(ds)
    clean = build_problem(
        ModelSpec(kind="hyperclean_softmax", num_classes=3, n_weights=10), 3)
    plain = build_problem(ModelSpec(kind="softmax_l2", num_classes=3), 3)
    rng = np.random.Generator(np.random.PCG64(0))
    theta = rng.standard_normal(clean.param_dim)
    weighted = clean.inner_loss(np.zeros(10), theta, view)
    # sigma(0) = 1/2 on every sample; plain softmax at lambda_eff -> 0 is mean CE
    mean_ce = plain.inner_loss(np.array([-60.0]), theta, view)
    assert_allclose(weighted, 0.5 * mean_ce, rtol=1e-9)


def test_hyperclean_requires_aligned_view():
    ds, _ = gen_multiclass(10, 3, 3, 0.2, seed=4, beta_seed=4)
    prob = build_problem(
        ModelSpec(kind="hyperclean_softmax", num_classes=3, n_weights=6), 3)
    bad = DataView(ds, np.arange(10))  # 10 rows, 6 weights
    with pytest.raises(ContractViolationError):
        prob.inner_loss(np.zeros(6), np.zeros(prob.param_dim), bad)


# ---------------------------------------------------------------------------
# spec validation

def test_build_problem_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        build_problem(ModelSpec(kind="mystery"), 3)


def test_model_spec_validation():
    with pytest.raises(ConfigError):
        ModelSpec(kind="lasso_smooth", smoothing_delta=0.0)
    with pytest.raises(ConfigError):
        ModelSpec(kind="softmax_l2", num_classes=1)
    with pytest.raises(ConfigError):
        ModelSpec(kind="hyperclean_softmax", num_classes=3, n_weights=0)


# ---------------------------------------------------------------------------
# finite-difference verification across the zoo

@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_zoo_derivatives_match_finite_differences(kind):
    prob, train, val = zoo_instance(kind)
    report = verify_derivatives(prob, train, val, trials=5, seed=13)
    worst = max(c.max_rel_err for c in report.checks)
    assert report.passed, f"{kind}: worst relative error {worst:.3e}"


def test_ridge_derivative_report_is_tight():
    prob, train, val = zoo_instance("ridge")
    report = verify_derivatives(prob, train, val, trials=10, seed=0)
    assert report.passed
    assert max(c.max_rel_err for c in report.checks) < 1e-6


def test_lasso_smoothing_makes_it_twice_differentiable():
    prob, train, val = zoo_instance("lasso_smooth")
    assert verify_derivatives(prob, train, val, trials=5, seed=2).passed


# ---------------------------------------------------------------------------
# structural invariants

def test_ridge_hvp_matches_assembled_hessian():
    _, train, _ = regression_views()
    prob = build_problem(ModelSpec(kind="ridge"), 4)
    lam = np.array([0.4])
    A, _ = train.gram
    H = 2.0 * (A + math.exp(0.4) * np.eye(4))
    rng = np.random.Generator(np.random.PCG64(1))
    for _ in range(5):
        v = rng.standard_normal(4)
        got = prob.inner_hvp(lam, rng.standard_normal(4), train, v)
        assert_allclose(got, H @ v, rtol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(-1.5, 1.5), st.floats(-3.0, 1.0))
def test_ridge_strong_convexity(seed, scale, u):
    ds, train, _ = regression_views(seed=seed % 50 + 2)
    prob = build_problem(ModelSpec(kind="ridge"), 4)
    lam = np.array([u])
    rng = np.random.Generator(np.random.PCG64(seed))
    t0 = scale * rng.standard_normal(4)
    t1 = scale * rng.standard_normal(4)
    f0 = prob.inner_loss(lam, t0, train)
    f1 = prob.inner_loss(lam, t1, train)
    g1 = prob.inner_grad_theta(lam, t1, train)
    gap = f0 - f1 - g1 @ (t0 - t1) - math.exp(u) * np.sum((t0 - t1) ** 2)
    assert gap >= -1e-9 * max(1.0, abs(f0), abs(f1))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_hvp_linearity(kind):
    prob, train, _ = zoo_instance(kind)
    rng = np.random.Generator(np.random.PCG64(5))
    lam = 0.3 * rng.standard_normal(prob.hyper_dim)
    theta = 0.5 * rng.standard_normal(prob.param_dim)
    u, w = rng.standard_normal(prob.param_dim), rng.standard_normal(prob.param_dim)
    a, b = 0.7, -1.3
    lhs = prob.inner_hvp(lam, theta, train, a * u + b * w)
    rhs = (a * prob.inner_hvp(lam, theta, train, u)
           + b * prob.inner_hvp(lam, theta, train, w))
    assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-12)


def test_hyperclean_weights_stay_in_unit_interval():
    prob, train, _ = zoo_instance("hyperclean_softmax")
    for u in (-50.0, -1.0, 0.0, 1.0, 50.0):
        lam = np.full(prob.hyper_dim, u)
        loss = prob.inner_loss(lam, np.zeros(prob.param_dim), train)
        assert 0.0 <= loss <= math.log(3.0) + 1e-9  # weights in (0,1) bound the CE


def test_sigmoid_is_exact_at_the_extremes_and_silent():
    x = np.array([-800.0, 800.0, -np.inf, np.inf, np.nan, 0.0])
    # logistic margins y x theta of +800 and -800
    view = full_view(Dataset(X=np.array([[1.0], [-1.0]]), y=np.array([1.0, 1.0]), task="binary"))
    prob = build_problem(ModelSpec(kind="logistic_l2"), 1)
    theta = np.array([800.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = sigmoid(x)
        g = prob.inner_grad_theta(np.zeros(1), theta, view)
        h = prob.inner_hvp(np.zeros(1), theta, view, np.ones(1))
    assert s[0] == 0.0 and s[1] == 1.0 and s[2] == 0.0 and s[3] == 1.0 and s[5] == 0.5
    assert np.isnan(s[4])
    assert np.all(np.isfinite(g)) and np.all(np.isfinite(h))


def test_sigmoid_matches_the_overflow_free_form():
    x = np.random.Generator(np.random.PCG64(3)).normal(0.0, 20.0, 10_000)
    e = np.exp(-np.abs(x))
    stable = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    assert_allclose(sigmoid(x), stable, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("k", range(2, 13))
@pytest.mark.parametrize("rows", [(57,), (3, 57)], ids=["single", "stacked"])
def test_class_axis_folds_match_numpy_reductions(rows, k):
    rng = np.random.Generator(np.random.PCG64(k))
    Z = rng.normal(0.0, 5.0, rows + (k,))
    E = np.exp(Z - Z.max(axis=-1, keepdims=True))
    # the hvp and mixed sums: products of probabilities and directions of either sign
    PdZ = E * rng.standard_normal(Z.shape)
    assert _row_max(Z).tobytes() == Z.max(axis=-1, keepdims=True).tobytes()
    if k < 8:  # numpy adds in index order: the same bits
        for A in (E, PdZ):
            assert _row_sum(A).tobytes() == A.sum(axis=-1, keepdims=True).tobytes()
    else:  # numpy sums pairwise: the last ulp may differ
        assert_allclose(_row_sum(E), E.sum(axis=-1, keepdims=True), rtol=1e-15, atol=0.0)


def test_log_softmax_is_finite_and_silent_at_huge_logits():
    Z = np.array([[800.0, -800.0, 0.0, 799.0],
                  [-800.0, -800.0, -800.0, -800.0],
                  [800.0, 800.0, -800.0, 800.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Zs, S, P = _log_softmax(Z)
        P_stacked = _log_softmax(np.stack([Z, -Z]))[2]
    for probs in (P, P_stacked[0], P_stacked[1]):
        assert np.all(np.isfinite(probs))
        assert_allclose(probs.sum(axis=-1), 1.0, rtol=0.0, atol=1e-15)
    assert_array_equal(P_stacked[0], P)
    assert np.all(np.isfinite(Zs)) and np.all(S >= 1.0)


def test_outer_loss_has_no_direct_lambda_dependence():
    for kind in MODEL_KINDS:
        prob, _, val = zoo_instance(kind)
        rng = np.random.Generator(np.random.PCG64(8))
        lam = rng.standard_normal(prob.hyper_dim)
        theta = rng.standard_normal(prob.param_dim)
        g = prob.outer_grad_lambda(lam, theta, val)
        assert_allclose(g, np.zeros(prob.hyper_dim))
