"""Model zoo: losses, gradients, second-order products, derivative checker."""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from bihpo.data import (
    DataView,
    Dataset,
    SplitPlan,
    full_view,
    gen_linear,
    gen_multiclass,
    make_splits,
)
from bihpo import problems
from bihpo.errors import ConfigError, ContractViolationError
from bihpo.hypergrad import HypergradMethod, estimate_hypergrad
from bihpo.problems import (
    MODEL_KINDS,
    ModelSpec,
    _log_softmax,
    _softmax,
    build_problem,
    sigmoid,
    verify_derivatives,
)
from helpers import stack, zoo_dataset, zoo_instance, zoo_problem

RIDGE = build_problem(ModelSpec(kind="ridge"), 1)


def regression_views(n=30, d=4, seed=5):
    ds, _ = gen_linear(n, d, 0.3, seed=seed, beta_seed=1)
    split = make_splits(n, SplitPlan(U=1, gamma=0.25, master_seed=7))[0]
    return ds, DataView(ds, split.train_idx), DataView(ds, split.val_idx)


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
    checks = verify_derivatives(prob, train, val, trials=5, seed=13)
    worst = max(c.max_err for c in checks)
    assert all(c.passed for c in checks), f"{kind}: worst relative error {worst:.3e}"


def test_ridge_derivative_report_is_tight():
    prob, train, val = zoo_instance("ridge")
    checks = verify_derivatives(prob, train, val, trials=10, seed=0)
    assert all(c.passed for c in checks)
    assert max(c.max_err for c in checks) < 1e-6


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_dgrad_dlam_is_checked_where_the_kind_provides_it(kind):
    prob, train, val = zoo_instance(kind)
    names = [c.name for c in verify_derivatives(prob, train, val, trials=2, seed=3)]
    assert ("inner_dgrad_dlam" in names) == prob.has_dgrad_dlam
    assert (prob.bind_inner(np.zeros(prob.hyper_dim), train).dgrad_dlam is None) == (
        not prob.has_dgrad_dlam)
    assert prob.has_dgrad_dlam == (prob.hyper_dim == 1)


def test_wrong_dgrad_dlam_fails_its_check():
    prob, train, val = zoo_instance("logistic_l2")
    bind = prob.bind_inner

    def doubled(lam, view):
        inner = bind(lam, view)
        return inner._replace(dgrad_dlam=lambda theta: 2.0 * inner.dgrad_dlam(theta))

    checks = verify_derivatives(dataclasses.replace(prob, bind_inner=doubled), train, val,
                                trials=2, seed=3)
    assert [c.name for c in checks if not c.passed] == ["inner_dgrad_dlam"]


def test_lasso_smoothing_makes_it_twice_differentiable():
    prob, train, val = zoo_instance("lasso_smooth")
    assert all(c.passed for c in verify_derivatives(prob, train, val, trials=5, seed=2))


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


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_one_binding_gives_the_bits_of_the_callbacks(kind):
    # a solve binds once and reuses the binding at every theta; it must give
    # what the callbacks, which bind per call, give on a view and on a stack
    members = [zoo_instance(kind, seed=s) for s in (11, 12, 13)]
    prob = members[0][0]
    rng = np.random.Generator(np.random.PCG64(8))
    p, r = prob.hyper_dim, prob.param_dim
    stacked = stack([train for _, train, _ in members])
    for lam, view, shape in ((0.3 * rng.standard_normal(p), members[0][1], (r,)),
                             (0.3 * rng.standard_normal((3, p)), stacked, (3, r))):
        inner = prob.bind_inner(lam, view)
        for _ in range(3):
            theta, v = rng.standard_normal(shape), rng.standard_normal(shape)
            assert same_bits(inner.grad(theta), prob.inner_grad_theta(lam, theta, view))
            assert same_bits(inner.hessian(theta)(v), prob.inner_hvp(lam, theta, view, v))
            assert same_bits(inner.mixed(theta, v), prob.inner_mixed_vp(lam, theta, view, v))
            if view is stacked:  # and each member's row is its own view's
                for b, (_, train, _) in enumerate(members):
                    assert same_bits(inner.grad(theta)[b],
                                     prob.inner_grad_theta(lam[b], theta[b], train))
                    assert same_bits(inner.hessian(theta)(v)[b],
                                     prob.inner_hvp(lam[b], theta[b], train, v[b]))
                    assert same_bits(inner.mixed(theta, v)[b],
                                     prob.inner_mixed_vp(lam[b], theta[b], train, v[b]))


def derivative(inner, name, theta, v):
    """One bound derivative at theta: grad, the Hessian product with v, or the mixed product."""
    if name == "grad":
        return inner.grad(theta)
    if name == "hessian":
        return inner.hessian(theta)(v)
    return inner.mixed(theta, v)


def binding_arrays(*functions):
    """Every array that bound functions reach through their closures: the
    constants of the bind and what a binding keeps between calls."""
    arrays, seen, todo = [], set(), list(functions)
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            arrays.append(x)
        elif isinstance(x, (list, tuple)):
            todo.extend(x)
        elif callable(x):
            todo.extend(cell.cell_contents for cell in getattr(x, "__closure__", None) or ())
    return arrays


def view_arrays(view):
    """Every array a view holds or derives (read here, so each is materialized)."""
    arrays = [view.X, view.y, view.Xt, view.yXt, *view.gram]
    if isinstance(view, DataView):
        arrays += [view.dataset.X, view.dataset.y]
        classes = view.dataset.num_classes
    else:
        classes = view.num_classes
    return arrays + [view.one_hot] if classes else arrays


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_every_bound_function_returns_a_fresh_array(kind, d):
    # the stepping loops scale and subtract in place on what a binding
    # returns, so no result may alias its arguments, the view, the binding's
    # own arrays (the softmax slot of probabilities among them) or an earlier
    # result. A second call at the same theta reads the slot where a binding
    # keeps one
    trains = []
    for seed in (11, 12, 13):
        ds = zoo_dataset(kind, 24, d, seed=seed)
        split = make_splits(ds.n, SplitPlan(U=1, gamma=0.25, master_seed=seed))[0]
        trains.append(DataView(ds, split.train_idx))
    n_weights = trains[0].m if kind == "hyperclean_softmax" else 0
    prob = zoo_problem(kind, trains[0].dataset, n_weights, smoothing_delta=0.5)
    rng = np.random.Generator(np.random.PCG64(8))
    p, r = prob.hyper_dim, prob.param_dim
    for lam, view, shape in ((0.3 * rng.standard_normal(p), trains[0], (r,)),
                             (0.3 * rng.standard_normal((3, p)), stack(trains), (3, r))):
        theta, v = rng.standard_normal(shape), rng.standard_normal(shape)
        inner = prob.bind_inner(lam, view)
        calls = [lambda: inner.grad(theta), lambda: inner.hessian(theta)(v),
                 lambda: inner.mixed(theta, v)]
        if prob.has_dgrad_dlam:
            calls.append(lambda: inner.dgrad_dlam(theta))
        held = [theta, v, lam, *view_arrays(view)]
        before = [x.copy() for x in held]
        outputs = []
        for call in calls:
            outputs += [call(), call()]
            assert all(isinstance(x, np.ndarray) and x.flags.writeable for x in outputs[-2:])
        kept = binding_arrays(*inner, inner.hessian(theta))
        assert kept
        for i, out in enumerate(outputs):
            assert not any(np.shares_memory(out, x) for x in held + kept + outputs[:i])
        assert all(x.tobytes() == y.tobytes() for x, y in zip(held, before))
        # nor does overwriting a result reach a later one through the slot
        fresh = prob.bind_inner(lam, view)
        inner.grad(theta).fill(np.nan)
        for name in ("mixed", "hessian", "grad"):
            assert same_bits(derivative(inner, name, theta, v), derivative(fresh, name, theta, v))


@pytest.mark.parametrize("stacked", [False, True], ids=["view", "stacked"])
@pytest.mark.parametrize("kind", ["softmax_l2", "hyperclean_softmax"])
def test_softmax_slot_keys_theta_by_its_value(kind, stacked):
    # the binding keeps the probabilities at the last theta it evaluated; the
    # loops step theta in place on one array, so a slot keyed by the array's
    # identity would hand the old point's probabilities to the new point
    members = [zoo_instance(kind, seed=s) for s in (11, 12, 13)]
    prob = members[0][0]
    view = stack([train for _, train, _ in members]) if stacked else members[0][1]
    shape = (3, prob.param_dim) if stacked else (prob.param_dim,)
    rng = np.random.Generator(np.random.PCG64(4))
    lam = 0.3 * rng.standard_normal(shape[:-1] + (prob.hyper_dim,))
    first, second, v = rng.standard_normal((3,) + shape)
    for before in ("grad", "hessian", "mixed"):
        for after in ("grad", "hessian", "mixed"):
            inner, fresh = prob.bind_inner(lam, view), prob.bind_inner(lam, view)
            theta = first.copy()
            derivative(inner, before, theta, v)
            theta[...] = second
            assert same_bits(derivative(inner, after, theta, v),
                             derivative(fresh, after, second, v))
    if not stacked:  # the same bytes in another shape are another point
        inner = prob.bind_inner(lam, view)
        inner.grad(first)
        assert same_bits(inner.grad(first[None]), prob.bind_inner(lam, view).grad(first[None]))


@pytest.mark.parametrize("kind, fn, per_bind, per_mixed", [
    ("ridge", "_coef", 1, 0),
    ("elastic_net", "_coef", 2, 0),
    # the weights once; their derivative only where the reverse pass asks for it
    ("hyperclean_softmax", "sigmoid", 1, 1),
])
def test_binding_computes_its_lam_constants_once(monkeypatch, kind, fn, per_bind, per_mixed):
    prob, train, _ = zoo_instance(kind)
    calls = []
    original = getattr(problems, fn)
    monkeypatch.setattr(problems, fn, lambda *args: calls.append(1) or original(*args))
    lam = np.zeros(prob.hyper_dim)
    inner = prob.bind_inner(lam, train)
    assert len(calls) == per_bind
    theta = np.ones(prob.param_dim)
    for _ in range(4):
        inner.grad(theta), inner.hessian(theta)(theta), inner.mixed(theta, theta)
    assert len(calls) == per_bind + 4 * per_mixed


def fused_reference(kind, lam, A, b, theta, v):
    """The two-term form of a quadratic inner objective: 2 (A theta - b) + c2 theta
    and 2 A v + c2 v, with c2 the L2 term's 2 e^u (ridge) or 2 e^{2 u_j}."""
    c2 = 2.0 * (np.exp(lam) if kind == "ridge" else np.exp(2.0 * lam))
    A = np.asarray(A)
    return (2.0 * ((A @ theta[..., None])[..., 0] - b) + c2 * theta,
            2.0 * (A @ v[..., None])[..., 0] + c2 * v)


def rel_err_at_most(got, want, tol):
    return np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


@pytest.mark.parametrize("d", [1, 5, 20])
@pytest.mark.parametrize("kind", ["ridge", "ridge_per_param"])
def test_quadratic_binding_steps_on_one_hessian_matrix(kind, d):
    # the squared loss plus an L2 penalty binds H = 2A + c2 I once: every
    # theta gets the same prebuilt map, and grad and H v agree with the
    # two-term form to 1e-13, on a view and on a stack
    prob = build_problem(ModelSpec(kind=kind), d)
    trains = [regression_views(n=40, d=d, seed=s)[1] for s in (3, 4, 5)]
    rng = np.random.Generator(np.random.PCG64(d))
    p = prob.hyper_dim
    for lam, view, shape in ((0.4 * rng.standard_normal(p), trains[0], (d,)),
                             (0.4 * rng.standard_normal((3, p)), stack(trains), (3, d))):
        inner = prob.bind_inner(lam, view)
        t1, t2, v = (rng.standard_normal(shape) for _ in range(3))
        assert inner.hessian(t1) is inner.hessian(t2)
        A, b = view.gram
        for theta in (t1, t2):
            want_grad, want_hv = fused_reference(kind, lam, A, b, theta, v)
            assert rel_err_at_most(inner.grad(theta), want_grad, 1e-13)
            assert rel_err_at_most(inner.hessian(theta)(v), want_hv, 1e-13)


def test_non_quadratic_binding_still_binds_its_hessian_at_each_theta():
    prob, train, _ = zoo_instance("logistic_l2")
    inner = prob.bind_inner(np.zeros(1), train)
    t1, t2 = np.zeros(prob.param_dim), np.ones(prob.param_dim)
    v = np.ones(prob.param_dim)
    assert inner.hessian(t1) is not inner.hessian(t2)
    assert not np.array_equal(inner.hessian(t1)(v), inner.hessian(t2)(v))


L2_PAIR = problems._sum(problems._exp_l2(0), problems._exp_l2(1))


@pytest.mark.parametrize("a, b", [
    (problems._SQUARED, problems._SQUARED),
    (problems._exp_l2(0), problems._exp_l2(1)),
    (problems._SQUARED, L2_PAIR),
], ids=["matrix+matrix", "diagonal+diagonal", "matrix+diagonals"])
def test_sum_of_affine_terms_is_affine(a, b):
    # the rule is general: any two terms with affine gradients sum to one,
    # whose binding agrees with the sum of the two terms' own bindings
    term = problems._sum(a, b)
    _, train, _ = regression_views()
    rng = np.random.Generator(np.random.PCG64(3))
    lam = rng.standard_normal(term.hyper_dim)
    theta, v = rng.standard_normal((2, 4))
    inner = term.bind(lam, train)
    assert term.affine is not None and inner.hessian(theta) is inner.hessian(v)
    in_a, in_b = a.bind(lam, train), b.bind(lam, train)
    assert rel_err_at_most(inner.grad(theta), in_a.grad(theta) + in_b.grad(theta), 1e-13)
    assert rel_err_at_most(inner.hessian(theta)(v),
                           in_a.hessian(theta)(v) + in_b.hessian(theta)(v), 1e-13)


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


def test_fused_logistic_derivative_has_the_bits_of_the_sigmoid_form():
    rng = np.random.Generator(np.random.PCG64(4))
    t = np.concatenate([
        [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, 709.78, -709.78, 745.2, -745.2, 1e-300],
        np.linspace(-60.0, 60.0, 24_001), rng.normal(0.0, 300.0, 10_000)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fused = problems._logistic_dphi(t)
        reference = -sigmoid(-t)
    assert same_bits(fused, reference)
    assert np.signbit(fused[:2]).all() and fused[4] == 0.0 and fused[5] == -1.0


@pytest.mark.parametrize("d", [1, 10, 20])
@pytest.mark.parametrize("B", [1, 8, 523])
@pytest.mark.parametrize("kind", ["logistic_l2", "svm_sqhinge"])
def test_stacked_margin_products_are_per_member_and_match_matmul(kind, B, d):
    # the margin losses read their label-folded rows feature-major, so their
    # sums run in another order than matmul's: each stacked row must keep
    # its own view's bits, and agree with the matmul form to 1e-13
    loss, dphi, d2phi = {
        "logistic_l2": (problems._LOGISTIC, lambda t: -sigmoid(-t),
                        lambda t: sigmoid(t) * sigmoid(-t)),
        "svm_sqhinge": (problems._SQ_HINGE, lambda t: -2.0 * np.maximum(0.0, 1.0 - t),
                        lambda t: 2.0 * (t < 1.0)),
    }[kind]
    rng = np.random.Generator(np.random.PCG64(100 * B + d))
    n, m = 60, 40
    ds = Dataset(X=rng.standard_normal((n, d)), y=rng.choice([-1.0, 1.0], n), task="binary")
    views = [DataView(ds, rng.choice(n, m, replace=False)) for _ in range(B)]
    theta, v = rng.standard_normal((B, d)), rng.standard_normal((B, d))
    grad, hessian, _, _ = loss.bind(None, stack(views))
    g, hv = grad(theta), hessian(theta)(v)
    for b, view in enumerate(views):
        grad_b, hessian_b, _, _ = loss.bind(None, view)
        assert same_bits(g[b], grad_b(theta[b]))
        assert same_bits(hv[b], hessian_b(theta[b])(v[b]))
        X, y = view.X, view.y
        t = y * (X @ theta[b])
        for got, want in ((g[b], X.T @ (y * dphi(t)) / m),
                          (hv[b], X.T @ (d2phi(t) * (X @ v[b])) / m)):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_sigmoid_matches_the_overflow_free_form():
    x = np.random.Generator(np.random.PCG64(3)).normal(0.0, 20.0, 10_000)
    e = np.exp(-np.abs(x))
    stable = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    assert_allclose(sigmoid(x), stable, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("k", range(2, 13))
@pytest.mark.parametrize("rows", [(57,), (3, 57)], ids=["single", "stacked"])
def test_class_axis_folds_match_numpy_reductions(rows, k):
    # class-major logits (..., k, m): numpy reduces the class axis by folding
    # the k contiguous rows left to right, with no pairwise sum at any k, so
    # a member's bits do not depend on the stacking or on k
    rng = np.random.Generator(np.random.PCG64(k))
    Z = np.moveaxis(rng.normal(0.0, 5.0, rows + (k,)), -1, -2).copy()

    def rows_of(A):
        return [A[..., j:j + 1, :] for j in range(k)]

    Zs, S = _log_softmax(Z)
    P = _softmax(Z.copy())
    M = functools.reduce(np.maximum, rows_of(Z))
    assert Zs.tobytes() == (Z - M).tobytes()
    E = np.exp(Zs)
    assert S.tobytes() == functools.reduce(np.add, rows_of(E)).tobytes()
    assert P.tobytes() == (E / S).tobytes()
    # the hvp and mixed sums: products of probabilities and directions of either sign
    PdZ = P * rng.standard_normal(Z.shape)
    assert (PdZ.sum(axis=-2, keepdims=True).tobytes()
            == functools.reduce(np.add, rows_of(PdZ)).tobytes())


@pytest.mark.parametrize("kind", ["softmax_l2", "hyperclean_softmax"])
@pytest.mark.parametrize("k", range(2, 13))
@pytest.mark.parametrize("B", [1, 3], ids=["single", "stacked"])
def test_stacked_softmax_members_have_the_bits_of_their_own_views(B, k, kind):
    # the class reductions run over the k rows of each member's own (k, m)
    # block, so a member's numbers may not depend on the stacking at any k
    ds, _ = gen_multiclass(76, 3, k, 0.5, seed=k, beta_seed=2)
    splits = make_splits(ds.n, SplitPlan(U=B, gamma=1.0 / 3.0, master_seed=k))
    trains = [DataView(ds, s.train_idx) for s in splits]
    vals = [DataView(ds, s.val_idx) for s in splits]
    m = trains[0].m
    assert m == 57
    prob = build_problem(ModelSpec(kind=kind, num_classes=k, n_weights=m), 3)
    rng = np.random.Generator(np.random.PCG64(k))
    lam = 0.5 * rng.standard_normal((B, prob.hyper_dim))
    theta, v = rng.standard_normal((2, B, prob.param_dim))
    train, val = stack(trains), stack(vals)
    losses = (prob.inner_loss(lam, theta, train), prob.outer_loss(lam, theta, val))
    # in either call order at one theta: the later calls read the first's probabilities
    for order in (("grad", "hessian", "mixed"), ("grad", "mixed", "hessian")):
        inner = prob.bind_inner(lam, train)
        got = {name: derivative(inner, name, theta, v) for name in order}
        for b in range(B):
            own = prob.bind_inner(lam[b], trains[b])
            for name in order:
                assert same_bits(got[name][b], derivative(own, name, theta[b], v[b]))
    for b in range(B):
        assert same_bits(losses[0][b], prob.inner_loss(lam[b], theta[b], trains[b]))
        assert same_bits(losses[1][b], prob.outer_loss(lam[b], theta[b], vals[b]))
        # and the row-major softmax of X W, to rounding
        X, Y = trains[b].X, np.eye(k)[trains[b].y.astype(np.int64)]
        Z = X @ theta[b].reshape(3, k)
        P = np.exp(Z - Z.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
        w = sigmoid(lam[b])[:, None] if kind == "hyperclean_softmax" else 1.0
        data_grad = (X.T @ ((P - Y) * w) / m).ravel()
        if kind == "softmax_l2":
            data_grad = data_grad + 2.0 * np.exp(lam[b, 0]) * theta[b]
        assert np.linalg.norm(got["grad"][b] - data_grad) <= 1e-13 * np.linalg.norm(data_grad)


@pytest.mark.parametrize("method", [HypergradMethod(kind="ITD", K=30, alpha_in=0.2),
                                    HypergradMethod(kind="TRHG", K=30, alpha_in=0.2, h=10)],
                         ids=["ITD", "TRHG"])
@pytest.mark.parametrize("kind", ["ridge", "lasso_smooth", "elastic_net", "ridge_per_param"])
def test_stacked_d1_members_have_the_bits_of_their_own_views(kind, method):
    # at d = 1 every Gram product is one multiply (problems._matvec); the
    # diagnostics run their members stacked, so each member's numbers may
    # not depend on the stacking, signed zeros included
    B = 5
    ds, _ = gen_linear(40, 1, 0.5, seed=3, beta_seed=1)
    splits = make_splits(ds.n, SplitPlan(U=B, gamma=0.25, master_seed=4))
    trains = [DataView(ds, s.train_idx) for s in splits]
    vals = [DataView(ds, s.val_idx) for s in splits]
    prob = build_problem(ModelSpec(kind=kind, smoothing_delta=0.5), 1)
    rng = np.random.Generator(np.random.PCG64(6))
    lam = 0.5 * rng.standard_normal((B, prob.hyper_dim))
    theta, v = rng.standard_normal((2, B, 1))
    theta[0], v[1] = -0.0, -0.0
    train, val = stack(trains), stack(vals)
    inner = prob.bind_inner(lam, train)
    assert (inner.dgrad_dlam is None) == (not prob.has_dgrad_dlam)
    got = (inner.grad(theta), inner.hessian(theta)(v), inner.mixed(theta, v),
           inner.dgrad_dlam(theta) if prob.has_dgrad_dlam else None)
    res = estimate_hypergrad(prob, lam, theta, train, val, method)
    for b in range(B):
        own = prob.bind_inner(lam[b], trains[b])
        want = (own.grad(theta[b]), own.hessian(theta[b])(v[b]), own.mixed(theta[b], v[b]),
                own.dgrad_dlam(theta[b]) if prob.has_dgrad_dlam else None)
        for stacked, single in zip(got, want):
            assert single is None or same_bits(stacked[b], single)
        one = estimate_hypergrad(prob, lam[b], theta[b], trains[b], vals[b], method)
        assert same_bits(res.grad[b], one.grad)
        assert same_bits(res.inner_final[b], one.inner_final)


def test_log_softmax_is_finite_and_silent_at_huge_logits():
    # class-major logits: one column per row of data, one row per class
    Z = np.array([[800.0, -800.0, 0.0, 799.0],
                  [-800.0, -800.0, -800.0, -800.0],
                  [800.0, 800.0, -800.0, 800.0]]).T.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Zs, S = _log_softmax(Z)
        P, P_stacked = _softmax(Z.copy()), _softmax(np.stack([Z, -Z]))
    for probs in (P, P_stacked[0], P_stacked[1]):
        assert np.all(np.isfinite(probs))
        assert_allclose(probs.sum(axis=-2), 1.0, rtol=0.0, atol=1e-15)
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
