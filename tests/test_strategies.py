"""Outer-loop strategies: optimizers, ensemble averaging, online updates."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bihpo.data import (
    DataView,
    Dataset,
    SplitPlan,
    complements,
    draw_val_sets,
    full_view,
    gen_linear,
    synthetic,
)
from bihpo.errors import ContractViolationError, NumericalError
from bihpo.hypergrad import HypergradMethod, estimate_hypergrad, inner_solve
from bihpo.problems import MODEL_KINDS, ModelSpec, build_problem
from bihpo.strategies import (
    OPTIMIZER_KINDS,
    OuterOptimizer,
    optimizer_step,
    run_ehg,
    run_oehg,
)
from helpers import count_softmax_rows, stack, zoo_dataset, zoo_instance, zoo_lambda, zoo_problem

ITD25 = HypergradMethod(kind="ITD", K=25, alpha_in=0.08)


def ridge_setup(n=40, d=3, U=1, seed=17):
    ds, _ = gen_linear(n, d, 0.3, seed=seed, beta_seed=2)
    vals = draw_val_sets(n, SplitPlan(U=U, gamma=0.25, master_seed=3))
    return build_problem(ModelSpec(kind="ridge"), d), ds, vals


def split_views(ds, vals):
    """Each split's (train, val) DataViews, for the per-split references."""
    return [(DataView(ds, tr), DataView(ds, va)) for tr, va in zip(complements(ds.n, vals), vals)]


# ---------------------------------------------------------------------------
# outer optimizers

def test_gd_step_hand_value():
    opt = OuterOptimizer(kind="gd", alpha_out=0.1)
    new, state = optimizer_step(opt, np.array([1.0]), np.array([2.0]))
    assert_allclose(new, [0.8])
    assert state is None


def test_adam_first_step_is_sign_scaled():
    opt = OuterOptimizer(kind="adam", alpha_out=0.01)
    lam = np.array([0.5, -1.0])
    new, _ = optimizer_step(opt, lam, np.array([3.0, -0.5]))
    assert_allclose(new, lam - 0.01 * np.array([1.0, -1.0]), atol=1e-6)


@pytest.mark.parametrize("kind", ["gd", "adam"])
def test_zero_gradient_leaves_lambda_unchanged(kind):
    opt = OuterOptimizer(kind=kind, alpha_out=0.3)
    lam = np.array([0.4, -0.7])
    assert_array_equal(optimizer_step(opt, lam, np.zeros(2))[0], lam)


def test_gd_is_linear_in_the_gradient():
    opt = OuterOptimizer(kind="gd", alpha_out=0.25)
    lam = np.zeros(3)
    g = np.array([1.0, -2.0, 0.5])
    d1 = lam - optimizer_step(opt, lam, g)[0]
    d2 = lam - optimizer_step(opt, lam, 2.0 * g)[0]
    assert_allclose(d2, 2.0 * d1)


def test_adam_state_is_returned_not_kept():
    # the optimizer holds settings only: a sequence replayed from no state
    # repeats exactly, and the returned moments carry the step count
    opt = OuterOptimizer(kind="adam", alpha_out=0.05)
    seq = [np.array([g]) for g in (0.5, -0.2, 0.9)]

    def replay():
        lam, state = np.array([1.0]), None
        for g in seq:
            lam, state = optimizer_step(opt, lam, g, state)
        return lam, state

    (first, state), (second, _) = replay(), replay()
    assert_array_equal(first, second)
    assert state[2] == 3


@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_optimizer_step_never_writes_into_what_it_is_given(kind):
    # the update runs in place on arrays of its own: the lam, g and moments
    # it is given keep their bits, and what it returns shares no memory with them
    opt = OuterOptimizer(kind=kind, alpha_out=0.05)
    lam, state = np.array([0.4, -0.7, 1.2]), None
    for g in (np.array([0.5, -2.0, 0.1]), np.array([-0.3, 0.2, 4.0]), np.zeros(3)):
        given = [lam, g] + ([] if state is None else list(state[:2]))
        before = [x.copy() for x in given]
        new_lam, new_state = optimizer_step(opt, lam, g, state)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(given, before))
        returned = [new_lam] + ([] if new_state is None else list(new_state[:2]))
        for i, x in enumerate(returned):
            assert not any(np.shares_memory(x, y) for y in given + returned[:i])
        if state is not None:
            assert new_state[2] == state[2] + 1
        lam, state = new_lam, new_state


def test_runs_sharing_an_adam_optimizer_are_independent():
    prob, ds, vals = ridge_setup(U=3)
    opt = OuterOptimizer(kind="adam", alpha_out=0.1)
    runs = [run_ehg(prob, ds, vals, ITD25, opt, 8, np.array([0.3]), np.zeros(3))
            for _ in range(2)]
    for x, y in zip(runs[0].lambdas, runs[1].lambdas):
        assert_array_equal(x, y)


def test_optimizer_validation():
    with pytest.raises(ContractViolationError):
        OuterOptimizer(kind="rmsprop", alpha_out=0.1)
    with pytest.raises(ContractViolationError):
        OuterOptimizer(kind="gd", alpha_out=0.0)
    with pytest.raises(ContractViolationError) as err:
        OuterOptimizer(kind="gd", alpha_out=float("nan"))
    assert err.value.field == "alpha_out"
    with pytest.raises(ContractViolationError):
        optimizer_step(OuterOptimizer(kind="gd", alpha_out=0.1),
                       np.zeros(2), np.zeros(3))


# ---------------------------------------------------------------------------
# single-split runs: run_ehg on one split

def test_run_single_trivial_composition():
    # K = 0 hypergradients are zero, so lambda never moves
    prob, ds, vals = ridge_setup()
    method = HypergradMethod(kind="ITD", K=0, alpha_in=0.1)
    th0 = np.array([0.2, 0.2, 0.2])
    trace = run_ehg(prob, ds, vals[:1], method,
                    OuterOptimizer(kind="gd", alpha_out=0.5), 3,
                    np.array([0.7]), th0)
    assert len(trace.lambdas) == 4
    for lam in trace.lambdas:
        assert_array_equal(lam, [0.7])
    assert_array_equal(trace.final_thetas[0], th0)


def test_run_single_two_steps_match_hand_replication():
    prob, ds, vals = ridge_setup()
    (tr, va), = split_views(ds, vals)
    method = HypergradMethod(kind="ITD", K=1, alpha_in=0.05)
    lam0, th0 = np.array([0.3]), np.zeros(3)
    trace = run_ehg(prob, ds, vals, method,
                    OuterOptimizer(kind="gd", alpha_out=0.4), 2, lam0, th0)

    lam = lam0.copy()
    for _ in range(2):
        g = estimate_hypergrad(prob, lam, th0, tr, va, method).grad
        lam = lam - 0.4 * g
    assert_array_equal(trace.final_lambda, lam)
    assert sorted(trace.columns) == ["hypergrad_norm", "train_loss", "val_loss"]
    assert all(len(rows) == 2 for rows in trace.columns.values())
    bare = run_ehg(prob, ds, vals, method, OuterOptimizer(kind="gd", alpha_out=0.4), 2,
                   lam0, th0, test_view=full_view(ds), columns=False)
    assert bare.columns == {}


def _same_run(a, b):
    # bitwise the same lambda path, final thetas and deployed model
    for x, y in [(a.lambdas, b.lambdas), (a.final_thetas, b.final_thetas),
                 ([a.deployed_theta], [b.deployed_theta])]:
        assert len(x) == len(y)
        assert all(u is v is None or u.tobytes() == v.tobytes() for u, v in zip(x, y))


@pytest.mark.parametrize("warm_start", [False, True])
def test_ehg_without_columns_takes_the_same_path(warm_start):
    prob, ds, vals = ridge_setup(U=3)
    runs = [run_ehg(prob, ds, vals, ITD25, OuterOptimizer(kind="adam", alpha_out=0.1), 5,
                    np.array([0.3]), np.zeros(3), test_view=full_view(ds),
                    warm_start=warm_start, columns=columns)
            for columns in (True, False)]
    assert sorted(runs[0].columns) == ["hypergrad_norm", "test_loss", "train_loss", "val_loss"]
    assert runs[1].columns == {}
    _same_run(*runs)


@pytest.mark.parametrize("method", [ITD25, HypergradMethod(kind="AID_CG", K=25, alpha_in=0.08,
                                                            Z=5)], ids=["ITD", "AID_CG"])
def test_warm_started_ehg_never_writes_into_its_callers_arrays(method):
    # each warm start is the previous estimate's theta_K, which forward mode
    # stepped in place; the next estimate must step on a copy of it
    prob, ds, vals = ridge_setup(U=3)
    lam0, theta0 = np.array([0.3]), np.full(3, 0.1)
    inputs = [lam0, theta0, ds.X, ds.y]
    before = [x.copy() for x in inputs]
    runs = [run_ehg(prob, ds, vals, method, OuterOptimizer(kind="adam", alpha_out=0.1), 5,
                    lam0, theta0, test_view=full_view(ds), warm_start=True)
            for _ in range(2)]
    assert all(x.tobytes() == y.tobytes() for x, y in zip(inputs, before))
    assert not any(np.shares_memory(t, theta0) for t in runs[0].final_thetas)
    _same_run(*runs)


def test_oehg_without_columns_takes_the_same_path():
    prob, ds, vals = ridge_setup(U=3)
    runs = [run_oehg(prob, ds, vals, T=5, alpha_in=0.08,
                     opt=OuterOptimizer(kind="adam", alpha_out=0.1), alpha_deploy=0.05,
                     lam0=np.array([0.3]), theta0=np.zeros(3), test_view=full_view(ds),
                     columns=columns)
            for columns in (True, False)]
    assert "test_loss" in runs[0].columns
    assert runs[1].columns == {}
    assert runs[1].deployed_theta is not None
    _same_run(*runs)


def test_run_rejects_bad_plan():
    prob, ds, vals = ridge_setup()
    opt = OuterOptimizer(kind="gd", alpha_out=0.4)
    with pytest.raises(ContractViolationError):
        run_ehg(prob, ds, vals, ITD25, opt, 0, np.array([0.3]), np.zeros(3))
    with pytest.raises(ContractViolationError):
        run_ehg(prob, ds, vals, ITD25, opt, 1, np.array([0.3, 0.1]), np.zeros(3))


@pytest.mark.parametrize("vals, message", [
    ([[-1, 0]], "ascending within"),
    ([[3, 1]], "ascending within"),
    ([[1, 1]], "ascending within"),
    ([[0, 5]], "ascending within"),
    ([[0, 2], [1, 0]], "ascending within"),
    ([0, 1], "integer array"),
    ([[0.0, 1.0]], "integer array"),
    (np.empty((0, 2), dtype=np.int64), "integer array"),
    (np.empty((1, 0), dtype=np.int64), "integer array"),
    ([[0, 1, 2, 3, 4]], "integer array"),
], ids=["negative", "unsorted", "repeated", "past-the-end", "second-row", "1-D", "float",
        "no-split", "no-val-row", "no-train-row"])
def test_runs_refuse_bad_validation_sets(vals, message):
    # each row must be a split's validation rows of the 5-row pool, strictly
    # ascending, leaving at least one train row
    prob, ds, _ = ridge_setup(n=5)
    opt = OuterOptimizer(kind="gd", alpha_out=0.4)
    with pytest.raises(ContractViolationError, match=message):
        run_ehg(prob, ds, vals, ITD25, opt, 1, np.array([0.3]), np.zeros(3))
    with pytest.raises(ContractViolationError, match=message):
        run_oehg(prob, ds, vals, T=1, alpha_in=0.1, opt=opt,
                 alpha_deploy=0.1, lam0=np.array([0.3]), theta0=np.zeros(3))


@pytest.mark.parametrize("shape", [(2, 3), (1,)])
def test_runs_refuse_a_misshapen_theta0(shape):
    prob, ds, vals = ridge_setup()
    opt = OuterOptimizer(kind="gd", alpha_out=0.3)
    bad = np.zeros(shape)
    with pytest.raises(ContractViolationError, match="theta0"):
        run_ehg(prob, ds, vals, ITD25, opt, 1, np.array([0.3]), bad)
    with pytest.raises(ContractViolationError, match="theta0"):
        run_oehg(prob, ds, vals, T=1, alpha_in=0.1, opt=opt,
                 alpha_deploy=0.1, lam0=np.array([0.3]), theta0=bad)


# ---------------------------------------------------------------------------
# ensemble averaging

def test_ehg_single_split_equals_run_single(tmp_path):
    # the CLI's single strategy is the ehg loop on the first split alone
    import yaml
    from bihpo.cli import main

    cfg = {
        "data": {"synthetic": {"n": 60, "d": 3, "noise_sigma": 0.3, "seed": 11,
                               "beta_seed": 2}},
        "split": {"U": 3, "gamma": 0.25, "master_seed": 5},
        "method": {"kind": "ITD", "K": 25, "alpha_in": 0.1},
        "strategy": {"kind": "single", "T": 5,
                     "outer": {"kind": "gd", "alpha_out": 0.5}, "lambda0": 1.0},
        "output": {"formats": ["json"]},
    }
    path = tmp_path / "single.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["tune", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    final = json.loads((tmp_path / "out" / "final.json").read_text())

    ds, _ = gen_linear(60, 3, 0.3, seed=11, beta_seed=2)
    vals = draw_val_sets(60, SplitPlan(U=3, gamma=0.25, master_seed=5))
    trace = run_ehg(build_problem(ModelSpec(kind="ridge"), 3), ds, vals[:1],
                    HypergradMethod(kind="ITD", K=25, alpha_in=0.1),
                    OuterOptimizer(kind="gd", alpha_out=0.5), 5, np.array([1.0]), np.zeros(3))
    assert final["lambda_raw"] == [float(x) for x in trace.final_lambda]
    assert len(final["per_split_theta"]) == 1


@pytest.mark.parametrize("copies", [2, 4])
def test_ehg_duplicated_split_is_bitwise_single(copies):
    # averaging U identical gradients reproduces one gradient exactly for
    # these U (the running sum stays exactly representable)
    prob, ds, vals = ridge_setup()
    opt = lambda: OuterOptimizer(kind="gd", alpha_out=0.4)
    one = run_ehg(prob, ds, vals[:1], ITD25, opt(), 6, np.array([0.3]), np.zeros(3))
    rep = run_ehg(prob, ds, vals[[0] * copies], ITD25, opt(), 6,
                  np.array([0.3]), np.zeros(3))
    for x, y in zip(one.lambdas, rep.lambdas):
        assert_array_equal(x, y)


def test_ehg_first_update_is_mean_of_split_gradients():
    prob, ds, vals = ridge_setup(U=3)
    lam0, th0 = np.array([0.3]), np.zeros(3)
    trace = run_ehg(prob, ds, vals, ITD25,
                    OuterOptimizer(kind="gd", alpha_out=0.4), 1, lam0, th0)
    grads = [estimate_hypergrad(prob, lam0, th0, tr, va, ITD25).grad
             for tr, va in split_views(ds, vals)]
    gsum = grads[0].copy()
    for g in grads[1:]:
        gsum += g
    assert_array_equal(trace.lambdas[1], lam0 - 0.4 * (gsum / 3))


def test_ehg_is_deterministic():
    prob, ds, vals = ridge_setup(U=4)
    runs = [run_ehg(prob, ds, vals, ITD25,
                    OuterOptimizer(kind="adam", alpha_out=0.1), 5,
                    np.array([0.3]), np.zeros(3)) for _ in range(2)]
    for x, y in zip(runs[0].lambdas, runs[1].lambdas):
        assert_array_equal(x, y)
    assert runs[0].columns.keys() == runs[1].columns.keys()
    for name, rows in runs[0].columns.items():
        assert_array_equal(np.stack(rows), np.stack(runs[1].columns[name]))


def test_ehg_final_thetas_solved_at_final_lambda():
    prob, ds, vals = ridge_setup(U=2)
    trace = run_ehg(prob, ds, vals, ITD25,
                    OuterOptimizer(kind="gd", alpha_out=0.4), 4,
                    np.array([0.3]), np.zeros(3))
    assert len(trace.final_thetas) == 2
    from bihpo.hypergrad import inner_solve
    for (tr, _), theta in zip(split_views(ds, vals), trace.final_thetas):
        traj = inner_solve(prob, trace.final_lambda, np.zeros(3), tr, ITD25.K, ITD25.alpha_in)
        assert_array_equal(theta, traj.final)


def test_ehg_test_view_populates_trace():
    prob, ds, vals = ridge_setup()
    tv = full_view(ds)
    with_t = run_ehg(prob, ds, vals, ITD25,
                     OuterOptimizer(kind="gd", alpha_out=0.4), 2,
                     np.array([0.3]), np.zeros(3), test_view=tv)
    without = run_ehg(prob, ds, vals, ITD25,
                      OuterOptimizer(kind="gd", alpha_out=0.4), 2,
                      np.array([0.3]), np.zeros(3))
    assert np.stack(with_t.columns["test_loss"]).shape == (2, 1)
    assert np.all(np.isfinite(with_t.columns["test_loss"]))
    assert "test_loss" not in without.columns


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_test_loss_on_one_view_is_bitwise_that_on_stacked_copies(kind):
    # the outer loop reads its test view unstacked against all U split thetas
    prob, _, view = zoo_instance(kind)
    U = 4
    rng = np.random.Generator(np.random.PCG64(5))
    lams = 0.3 * rng.standard_normal((U, prob.hyper_dim))
    thetas = rng.standard_normal((U, prob.param_dim))
    on_view = prob.outer_loss(lams, thetas, view)
    assert on_view.shape == (U,)
    assert on_view.tobytes() == prob.outer_loss(lams, thetas,
                                                stack([view] * U)).tobytes()


def test_warm_start_changes_later_iterates_but_stays_finite():
    prob, ds, vals = ridge_setup()
    method = HypergradMethod(kind="ITD", K=5, alpha_in=0.08)
    cold = run_ehg(prob, ds, vals[:1], method,
                   OuterOptimizer(kind="gd", alpha_out=0.4), 6,
                   np.array([0.3]), np.zeros(3), warm_start=False)
    warm = run_ehg(prob, ds, vals[:1], method,
                   OuterOptimizer(kind="gd", alpha_out=0.4), 6,
                   np.array([0.3]), np.zeros(3), warm_start=True)
    assert not np.array_equal(cold.final_lambda, warm.final_lambda)
    assert np.all(np.isfinite(warm.final_lambda))
    assert np.all(np.isfinite(warm.final_thetas[0]))


# ---------------------------------------------------------------------------
# online ensemble

@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_oehg_split_hypergrad_is_one_step_itd(kind):
    # run_oehg's first update on one split is a gd step on one-step ITD, and
    # its shadow is that estimate's inner iterate
    prob, tr, va = zoo_instance(kind)
    lam = zoo_lambda(prob)
    th0 = np.zeros(prob.param_dim)
    trace = run_oehg(prob, tr.dataset, va.idx[None], T=1, alpha_in=0.05,
                     opt=OuterOptimizer(kind="gd", alpha_out=0.3),
                     alpha_deploy=0.05, lam0=lam, theta0=th0, deploy_view=tr)
    ref = estimate_hypergrad(prob, lam, th0, tr, va,
                             HypergradMethod(kind="ITD", K=1, alpha_in=0.05))
    assert_array_equal(trace.lambdas[1], lam - 0.3 * ref.grad)
    assert_array_equal(trace.final_thetas[0], ref.inner_final)


def test_oehg_trace_shape_and_deployed_update():
    prob, ds, vals = ridge_setup(U=3)
    th0 = np.zeros(3)
    trace = run_oehg(prob, ds, vals, T=1, alpha_in=0.08,
                     opt=OuterOptimizer(kind="gd", alpha_out=0.3),
                     alpha_deploy=0.08, lam0=np.array([0.3]), theta0=th0)
    assert len(trace.lambdas) == 2
    assert len(trace.final_thetas) == 3
    # deployed model takes one full-data GD step at the freshly updated lambda
    want = th0 - 0.08 * prob.inner_grad_theta(trace.lambdas[1], th0, full_view(ds))
    assert_array_equal(trace.deployed_theta, want)


def test_oehg_lambda_update_uses_mean_of_one_step_grads():
    prob, ds, vals = ridge_setup(U=2)
    lam0, th0 = np.array([0.3]), np.zeros(3)
    trace = run_oehg(prob, ds, vals, T=1, alpha_in=0.08,
                     opt=OuterOptimizer(kind="gd", alpha_out=0.3),
                     alpha_deploy=0.08, lam0=lam0, theta0=th0)
    one_step = HypergradMethod(kind="ITD", K=1, alpha_in=0.08)
    grads = [estimate_hypergrad(prob, lam0, th0, tr, va, one_step).grad
             for tr, va in split_views(ds, vals)]
    gsum = grads[0] + grads[1]
    assert_array_equal(trace.lambdas[1], lam0 - 0.3 * (gsum / 2))


def test_oehg_long_run_beats_the_starting_lambda():
    from bihpo.diagnostics import RidgeOracle
    prob, ds, vals = ridge_setup(U=3, n=80)
    trace = run_oehg(prob, ds, vals, T=400, alpha_in=0.05,
                     opt=OuterOptimizer(kind="adam", alpha_out=0.05),
                     alpha_deploy=0.05, lam0=np.array([2.0]), theta0=np.zeros(3))
    assert len(trace.lambdas) == 401
    final_val = np.mean(trace.columns["val_loss"][-1])
    # fully converged ridge solutions at the starting hyperparameter
    at_start = np.mean([RidgeOracle(tr, va).val_loss(np.exp(2.0))
                        for tr, va in split_views(ds, vals)])
    assert final_val < 0.5 * at_start
    assert trace.final_lambda[0] < 0.0  # moved well away from lam0 = 2


def test_oehg_validation():
    prob, ds, vals = ridge_setup()
    opt = OuterOptimizer(kind="gd", alpha_out=0.3)
    with pytest.raises(ContractViolationError):
        run_oehg(prob, ds, vals, T=0, alpha_in=0.1, opt=opt,
                 alpha_deploy=0.1, lam0=np.array([0.0]), theta0=np.zeros(3))
    with pytest.raises(ContractViolationError):
        run_oehg(prob, ds, vals, T=1, alpha_in=-0.1, opt=opt,
                 alpha_deploy=0.1, lam0=np.array([0.0]), theta0=np.zeros(3))
    with pytest.raises(ContractViolationError, match="alpha_deploy"):
        run_oehg(prob, ds, vals, T=1, alpha_in=0.1, opt=opt,
                 alpha_deploy=0.0, lam0=np.array([0.0]), theta0=np.zeros(3))


def test_an_oehg_step_evaluates_one_softmax_on_its_train_binding(monkeypatch):
    # one-step ITD reads the probabilities at theta_0 in the inner step's
    # grad and again in the reverse pass's mixed; its binding evaluates them
    # once. The outer gradient reads the validation rows, and the deployed
    # model's step binds the train rows again, on its own binding
    prob, ds, vals, deploy_view = kind_setup("hyperclean_softmax", U=1)
    m_train, m_val = ds.n - vals.shape[1], vals.shape[1]
    assert m_train != m_val and deploy_view.m == m_train
    rows = count_softmax_rows(monkeypatch)
    run_oehg(prob, ds, vals, 1, 0.05, OuterOptimizer(kind="adam", alpha_out=0.05), 0.05,
             zoo_lambda(prob), np.zeros(prob.param_dim), deploy_view=deploy_view,
             columns=False)
    assert rows == [m_train, m_val, m_train]


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_oehg_is_warm_started_one_step_ehg(kind):
    # the deployed model only adds to the trace: lambda and the shadows follow
    # ehg with one-step ITD from each split's previous iterate, whose final
    # re-solve is one more shadow step
    prob, ds, vals, deploy_view = kind_setup(kind)
    opt = OuterOptimizer(kind="adam", alpha_out=0.05)
    lam, th0 = zoo_lambda(prob), np.zeros(prob.param_dim)
    online = run_oehg(prob, ds, vals, 6, 0.05, opt, 0.05, lam, th0, deploy_view=deploy_view)
    ehg = run_ehg(prob, ds, vals, HypergradMethod(kind="ITD", K=1, alpha_in=0.05), opt, 5,
                  lam, th0, warm_start=True)
    assert len(ehg.lambdas) == 6
    for got, want in zip(online.lambdas, ehg.lambdas):
        assert_array_equal(got, want)
    assert_array_equal(np.stack(online.final_thetas), np.stack(ehg.final_thetas))


# ---------------------------------------------------------------------------
# the stacked ensemble step against a per-split loop

STACK_METHODS = (
    HypergradMethod(kind="ITD", K=20, alpha_in=0.05),
    HypergradMethod(kind="TRHG", K=20, alpha_in=0.05, h=5),
    HypergradMethod(kind="AID_CG", K=30, alpha_in=0.05, Z=10),
    HypergradMethod(kind="AID_FP", K=30, alpha_in=0.05, Z=100),
)
# every kind with every estimator it offers (the squared hinge has no AID)
KIND_METHODS = [
    (kind, method) for kind in MODEL_KINDS for method in STACK_METHODS
    if kind != "svm_sqhinge" or not method.kind.startswith("AID")
]


def kind_setup(kind, U=3):
    """A zoo problem with U splits, and the view the deployed model trains on."""
    ds = zoo_dataset(kind, 40, 3, seed=31)
    vals = draw_val_sets(ds.n, SplitPlan(U=U, gamma=0.25, master_seed=5))
    deploy_view = DataView(ds, complements(ds.n, vals[0]))
    n_weights = deploy_view.m if kind == "hyperclean_softmax" else 0
    prob = zoo_problem(kind, ds, n_weights, smoothing_delta=0.5)
    return prob, ds, vals, deploy_view


def assert_close(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.all(np.abs(actual - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


def trace_scalars(trace):
    names = ("hypergrad_norm", "train_loss", "val_loss", "test_loss")
    steps = zip(*(trace.columns[name] for name in names))
    return [(t, i, *values) for t, rows in enumerate(steps) for i, values in enumerate(zip(*rows))]


def assert_trace_matches(trace, lambdas, rows, final_thetas):
    assert len(trace.lambdas) == len(lambdas)
    for got, want in zip(trace.lambdas, lambdas):
        assert_close(got, want)
    got_rows = trace_scalars(trace)
    assert [r[:2] for r in got_rows] == [r[:2] for r in rows]
    assert_close([r[2:] for r in got_rows], [r[2:] for r in rows])
    assert_close(np.stack(trace.final_thetas), np.stack(final_thetas))


def per_split_ehg(prob, ds, vals, method, opt, T, lam, theta0, test_view, warm_start):
    """run_ehg written as one estimate_hypergrad call per split and step."""
    views = split_views(ds, vals)
    starts, state, lambdas, rows = [theta0] * len(views), None, [lam], []
    for t in range(T):
        grads, finals = [], []
        for i, ((tr, va), start) in enumerate(zip(views, starts)):
            res = estimate_hypergrad(prob, lam, start, tr, va, method)
            theta = res.inner_final
            grads.append(res.grad)
            finals.append(theta)
            rows.append((t, i, np.linalg.norm(res.grad), prob.inner_loss(lam, theta, tr),
                         prob.outer_loss(lam, theta, va), prob.outer_loss(lam, theta, test_view)))
        if warm_start:
            starts = finals
        lam, state = optimizer_step(opt, lam, sum(grads) / len(grads), state)
        lambdas.append(lam)
    final = [inner_solve(prob, lam, start, tr, method.K, method.alpha_in).final
             for (tr, _), start in zip(views, starts)]
    return lambdas, rows, final


@pytest.mark.parametrize("warm_start", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("kind, method", KIND_METHODS,
                         ids=[f"{k}-{m.kind}" for k, m in KIND_METHODS])
def test_stacked_ehg_matches_per_split_loop(kind, method, warm_start):
    prob, ds, vals, _ = kind_setup(kind)
    opt = OuterOptimizer(kind="adam", alpha_out=0.05)
    lam0, th0 = zoo_lambda(prob), np.zeros(prob.param_dim)
    test_view = full_view(ds)
    trace = run_ehg(prob, ds, vals, method, opt, 3, lam0, th0, test_view=test_view,
                    warm_start=warm_start)
    assert_trace_matches(trace, *per_split_ehg(prob, ds, vals, method, opt, 3, lam0, th0,
                                               test_view, warm_start))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_stacked_oehg_matches_per_split_loop(kind):
    prob, ds, vals, deploy_view = kind_setup(kind)
    opt = OuterOptimizer(kind="adam", alpha_out=0.05)
    lam, th0 = zoo_lambda(prob), np.zeros(prob.param_dim)
    test_view = full_view(ds)
    trace = run_oehg(prob, ds, vals, 4, 0.05, opt, 0.05, lam, th0,
                     deploy_view=deploy_view, test_view=test_view)

    one_step = HypergradMethod(kind="ITD", K=1, alpha_in=0.05)
    views = split_views(ds, vals)
    shadows, deployed, state, lambdas, rows = [th0] * len(views), th0, None, [lam], []
    for t in range(4):
        results = [estimate_hypergrad(prob, lam, shadow, tr, va, one_step)
                   for (tr, va), shadow in zip(views, shadows)]
        shadows = [res.inner_final for res in results]
        new_lam, state = optimizer_step(opt, lam, sum(r.grad for r in results) / len(views),
                                        state)
        deployed = deployed - 0.05 * prob.inner_grad_theta(new_lam, deployed, deploy_view)
        test_loss = prob.outer_loss(new_lam, deployed, test_view)
        rows += [(t, i, np.linalg.norm(res.grad), prob.inner_loss(lam, res.inner_final, tr),
                  prob.outer_loss(lam, res.inner_final, va), test_loss)
                 for i, (res, (tr, va)) in enumerate(zip(results, views))]
        lam = new_lam
        lambdas.append(lam)
    assert_trace_matches(trace, lambdas, rows, shadows)
    assert_close(trace.deployed_theta, deployed)


def test_ehg_names_the_diverging_split():
    # row 0 has features 100x the others; only split 2 trains on it, and
    # alpha_in is far beyond that split's 2/L
    ds, _ = gen_linear(40, 3, 0.3, seed=17, beta_seed=2)
    X = ds.X.copy()
    X[0] *= 100.0
    ds = Dataset(X=X, y=ds.y, task="regression")
    vals = [[0, *range(1, 8)], [0, *range(8, 15)], list(range(15, 23)), [0, *range(23, 30)]]
    vals = np.array(vals)
    prob = build_problem(ModelSpec(kind="ridge"), 3)
    method = HypergradMethod(kind="ITD", K=200, alpha_in=0.1)
    with pytest.raises(NumericalError, match="split 2 failed at outer step 0: inner gradient"
                                             " became non-finite at step") as err:
        run_ehg(prob, ds, vals, method, OuterOptimizer(kind="gd", alpha_out=0.1), 3,
                np.zeros(1), np.zeros(3))
    assert err.value.step_index == 0
    assert err.value.__cause__.member == 2


def test_ehg_keeps_the_inner_step_of_a_solve_that_ends_non_finite():
    # the ridge split whose solve at alpha_in 5 overflows on its last step,
    # 226, with every gradient before it finite: the outer step's error
    # names the outer step, and its message the inner one
    ds = synthetic("regression", 40, 1, 0, 0.5, 3, 1)
    vals = draw_val_sets(40, SplitPlan(U=1, gamma=0.25, master_seed=0))
    prob = build_problem(ModelSpec(kind="ridge"), 1)
    method = HypergradMethod(kind="ITD", K=227, alpha_in=5.0)
    with pytest.raises(NumericalError, match="^split 0 failed at outer step 0: the inner solve"
                                             " ended non-finite at step 226$") as err:
        run_ehg(prob, ds, vals, method, OuterOptimizer(kind="gd", alpha_out=0.1), 3,
                np.zeros(1), np.zeros(1))
    assert err.value.step_index == 0
    assert (err.value.__cause__.step_index, err.value.__cause__.member) == (226, 0)
