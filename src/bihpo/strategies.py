"""Outer-loop optimizers and the HPO strategies.

Both strategies run one outer loop. Each outer step takes one stacked
hypergradient estimate on the U train/val splits and steps lambda on the
arithmetic mean of the U split hypergradients (an ordered, index-ascending
reduction, so results are reproducible under any execution order).

run_ehg: every outer step re-solves each split's inner problem from theta0
(or, with warm_start, from its previous iterate); with one split it is the
single-split strategy. run_oehg is that loop with warm-started one-step ITD,
so U shadow models advance one inner step per outer step, plus a deployed
model that takes one GD step at each new lambda.

Both take the splits as vals, the (U, m_val) array of the pool's validation
rows, one ascending row per split; split u trains on the rest of the pool.
Every split has the same train and validation sizes, so the U splits stack:
split_stacks gathers them into two StackedViews, and each outer step is one
estimate_hypergrad call on them, whose inner iterates are one (U, r) array.
Each split's estimate is bitwise the one it would get alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DataView, Dataset, StackedView, full_view, split_stacks
from .errors import ContractViolationError, NumericalError, require_real
from .hypergrad import HypergradMethod, estimate_hypergrad, inner_solve
from .linalg import Vec, _first_member, ordered_mean, row_norm
from .problems import BilevelProblem, check_args

OPTIMIZER_KINDS = ("gd", "adam")
STRATEGY_KINDS = ("single", "ehg", "oehg")
# Adam's decay rates of its first and second moments, and its denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class OuterOptimizer:
    """Settings of constant-step GD or Adam on the raw hyperparameters.

    This is also the config's `strategy.outer` section, with these defaults.
    The optimizer holds no state: Adam's moments live in the run that steps
    with it (see optimizer_step), so runs that share one optimizer stay
    independent.
    """

    kind: str = "gd"
    alpha_out: float = 0.1

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ContractViolationError(f"kind must be one of {OPTIMIZER_KINDS}", field="kind")
        require_real(self.alpha_out, "alpha_out")
        if not self.alpha_out > 0:
            raise ContractViolationError("alpha_out must be > 0", field="alpha_out")


def optimizer_step(
    opt: OuterOptimizer, lam: Vec, g: Vec, state: tuple | None = None
) -> tuple[np.ndarray, tuple | None]:
    """One update of the raw hyperparameters: returns (new lam, new state).

    state is None before the first step; Adam returns its (m, v, t) moments
    for the next step, GD returns None.
    """
    lam = np.asarray(lam, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if lam.shape != g.shape:
        raise ContractViolationError(
            f"lam shape {lam.shape} does not match gradient shape {g.shape}"
        )
    # each update runs in place on an array of its own (the new moments, or a
    # temporary), with the operands of lam - alpha * m_hat / (sqrt(v_hat) + eps)
    if opt.kind == "gd":
        step = opt.alpha_out * g
        return np.subtract(lam, step, out=step), None
    m, v, t = state if state is not None else (np.zeros_like(lam), np.zeros_like(lam), 0)
    t += 1
    m = ADAM_BETA1 * m
    m += (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v
    gg = g * g
    gg *= 1.0 - ADAM_BETA2
    v += gg
    step = m / (1.0 - ADAM_BETA1**t)  # m_hat
    den = v / (1.0 - ADAM_BETA2**t)  # v_hat
    np.sqrt(den, out=den)
    den += ADAM_EPS
    step *= opt.alpha_out
    step /= den
    return np.subtract(lam, step, out=step), (m, v, t)


@dataclass
class HPOTrace:
    """lambdas[t] is the raw lambda BEFORE step t; length T+1 after a run.

    columns holds the per-split trace values by name, in trace.csv's column
    order, each a list with one (U,) row per outer step, row t taken at
    lambdas[t]: hypergrad_norm, train_loss, val_loss and, when the run has a
    test view, test_loss (for oehg the deployed model's loss, the same for
    every split). A run made with columns=False evaluates none of them and
    leaves columns empty.
    final_thetas holds the per-split inner solutions at the final lambda
    (ehg) or the shadow iterates (oehg); deployed_theta is oehg-only.
    """

    lambdas: list[np.ndarray] = field(default_factory=list)
    columns: dict[str, list[np.ndarray]] = field(default_factory=dict)
    final_thetas: tuple[np.ndarray, ...] = ()
    deployed_theta: np.ndarray | None = None

    @property
    def final_lambda(self) -> np.ndarray:
        return self.lambdas[-1]

    def add_step(self, row: dict[str, np.ndarray], lam_after: np.ndarray) -> None:
        """Record one outer step: its row of each column and the lambda it stepped to."""
        for name, values in row.items():
            self.columns.setdefault(name, []).append(values)
        self.lambdas.append(lam_after.copy())


def _finite_or_abort(values: np.ndarray, what: str, per_split: bool = False) -> np.ndarray:
    """values, or a NumericalError saying what became non-finite; with one value
    per split it names the first non-finite split as its member."""
    if not np.all(np.isfinite(values)):
        member = _first_member(~np.isfinite(values)) if per_split else None
        raise NumericalError(f"{what} became non-finite", member=member)
    return values


def _split_evals(
    problem: BilevelProblem,
    lams: np.ndarray,
    thetas: np.ndarray,
    grads: np.ndarray,
    train: StackedView,
    val: StackedView,
    test_view: DataView | None,
) -> dict[str, np.ndarray]:
    """Each split's trace values at its final inner iterate, one (U,) row per column.

    The row is in trace.csv's column order; the losses are checked for
    finiteness before the hypergradient norm. The one test view is read
    against all U thetas at once: a loss on a DataView broadcasts over their
    leading axis with the bits of U stacked copies.
    """
    # overflow at a diverged but finite iterate surfaces as the explicit
    # non-finite checks, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        losses = {"train_loss": _finite_or_abort(problem.inner_loss(lams, thetas, train),
                                                 "train loss", per_split=True),
                  "val_loss": _finite_or_abort(problem.outer_loss(lams, thetas, val),
                                               "val loss", per_split=True)}
        if test_view is not None:
            losses["test_loss"] = _finite_or_abort(problem.outer_loss(lams, thetas, test_view),
                                                   "test loss", per_split=True)
        norm = _finite_or_abort(row_norm(grads), "hypergradient norm", per_split=True)
    return {"hypergrad_norm": norm, **losses}


def _outer_loop(
    problem: BilevelProblem,
    ds: Dataset,
    vals: np.ndarray,
    method: HypergradMethod,
    opt: OuterOptimizer,
    T: int,
    lam0: Vec,
    theta0: Vec,
    test_view: DataView | None,
    warm_start: bool,
    deploy: tuple[float, DataView] | None = None,
    columns: bool = True,
) -> HPOTrace:
    """The outer loop of both strategies; the module docstring describes it.

    deploy = (alpha_deploy, deploy_view) adds the deployed model, whose loss is
    then the test loss; without it each split is evaluated on test_view and
    solved once more at the final lambda. columns=False skips every trace
    column (_split_evals and the deployed test loss); the lambda path and the
    final models are the same. A NumericalError of an outer step, or of the
    final solve, which counts as step T, is raised again naming the step
    and, when it names a member, the split; its trace attribute is the
    HPOTrace of the outer steps that finished.
    """
    if T < 1:
        raise ContractViolationError("T must be >= 1")
    lam, theta = check_args(problem, lam0, theta0, names=("lam0", "theta0"))
    lam, starts = lam.copy(), theta.copy()
    train, val = split_stacks(ds.X, ds.y, vals, ds.num_classes)
    split_test = None if deploy is not None else test_view
    deployed = starts
    state = None
    trace = HPOTrace(lambdas=[lam.copy()])
    try:
        for t in range(T):
            lams = lam[None].repeat(len(train), axis=0)  # one row per split
            res = estimate_hypergrad(problem, lams, starts, train, val, method)
            row = (_split_evals(problem, lams, res.inner_final, res.grad, train, val, split_test)
                   if columns else {})
            if warm_start:
                starts = res.inner_final
            # a finite but huge hypergradient can overflow lambda or Adam's
            # second moment (which would freeze lambda); that surfaces as this
            # explicit check, not a warning
            with np.errstate(over="ignore", invalid="ignore"):
                lam, state = optimizer_step(opt, lam, ordered_mean(res.grad), state)
            if not (np.isfinite(lam).all() and (state is None or np.isfinite(state[1]).all())):
                raise NumericalError("outer update became non-finite")
            if deploy is not None:
                alpha_deploy, deploy_view = deploy
                # overflow surfaces as the explicit non-finite checks, not a warning
                with np.errstate(over="ignore", invalid="ignore"):
                    update = alpha_deploy * problem.bind_inner(lam, deploy_view).grad(deployed)
                    deployed = _finite_or_abort(deployed - update, "deployed model")
                    if columns and test_view is not None:
                        test_loss = problem.outer_loss(lam, deployed, test_view)
                        row["test_loss"] = np.full(len(train),
                                                   _finite_or_abort(test_loss, "test loss"))
            trace.add_step(row, lam)
        if deploy is None:
            t = T  # the final solve, at lambdas[T]
            trace.final_thetas = tuple(
                inner_solve(problem, lam, starts, train, method.K, method.alpha_in).final)
    except NumericalError as exc:
        what = exc.args[0]
        failed = NumericalError(f"{what} at outer step {t}" if exc.member is None
                                else f"split {exc.member} failed at outer step {t}: {what}",
                                step_index=t)
        failed.trace = trace  # the outer steps that finished
        raise failed from exc
    if deploy is not None:
        trace.final_thetas = tuple(starts.copy())
        trace.deployed_theta = deployed.copy()
    return trace


def run_ehg(
    problem: BilevelProblem,
    ds: Dataset,
    vals: np.ndarray,
    method: HypergradMethod,
    opt: OuterOptimizer,
    T: int,
    lam0: Vec,
    theta0: Vec,
    test_view: DataView | None = None,
    warm_start: bool = False,
    columns: bool = True,
) -> HPOTrace:
    """Ensemble strategy: lambda steps on the mean of U per-split hypergradients.

    vals (U, m_val) holds each split's validation rows of ds, ascending; the
    split trains on the rest. Every outer step re-solves each split's inner
    problem from theta0 (or from the previous iterate when warm_start). After
    the last lambda update each split is solved once more at the final lambda
    so final_thetas matches it. With one split this is the single-split
    strategy. columns=False skips the trace columns, for callers that read
    only lambdas and final_thetas.
    """
    return _outer_loop(problem, ds, vals, method, opt, T, lam0, theta0, test_view,
                       warm_start, columns=columns)


def run_oehg(
    problem: BilevelProblem,
    ds: Dataset,
    vals: np.ndarray,
    T: int,
    alpha_in: float,
    opt: OuterOptimizer,
    alpha_deploy: float,
    lam0: Vec,
    theta0: Vec,
    deploy_view: DataView | None = None,
    test_view: DataView | None = None,
    columns: bool = True,
) -> HPOTrace:
    """Online ensemble strategy: run_ehg's loop with warm-started one-step ITD.

    After each lambda update the deployed model takes one GD step of size
    alpha_deploy on deploy_view (default: the full dataset); trace test losses
    are its losses, and final_thetas are the shadow iterates. columns=False
    skips the trace columns, the deployed model's test loss among them; the
    deployed model itself is still stepped and checked for finiteness.
    """
    if not alpha_deploy > 0:
        raise ContractViolationError("alpha_deploy must be > 0")
    one_step = HypergradMethod(kind="ITD", K=1, alpha_in=alpha_in)  # refuses alpha_in <= 0
    if deploy_view is None:
        deploy_view = full_view(ds)
    return _outer_loop(problem, ds, vals, one_step, opt, T, lam0, theta0, test_view,
                       warm_start=True, deploy=(alpha_deploy, deploy_view), columns=columns)
