"""Outer-loop optimizers and the HPO strategies.

run_ehg: each outer step re-solves the inner problem from theta0 on U
train/val splits and steps lambda on the arithmetic mean of the U per-split
hypergradients (ordered, index-ascending reduction so results are
reproducible under any execution order); with one split it is the
single-split strategy. run_oehg: online variant where U shadow models
advance one inner step per outer step and lambda is updated by one-step ITD
through that step; a separately deployed model tracks the current lambda.

Every split of a plan has the same train and validation sizes, so the U
splits stack: each outer step of either strategy is one estimate_hypergrad
call on StackedViews of the U splits, whose inner iterates are one (U, r)
array. Each split's estimate is bitwise the one it would get alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DataView, Dataset, Split, StackedView, full_view
from .errors import ContractViolationError, NumericalError, require_real
from .hypergrad import HypergradMethod, estimate_hypergrad, inner_solve
from .linalg import Vec, ordered_mean, row_norm
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
    if opt.kind == "gd":
        return lam - opt.alpha_out * g, None
    m, v, t = state if state is not None else (np.zeros_like(lam), np.zeros_like(lam), 0)
    t += 1
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    return lam - opt.alpha_out * m_hat / (np.sqrt(v_hat) + ADAM_EPS), (m, v, t)


@dataclass
class HPOTrace:
    """lambdas[t] is the raw lambda BEFORE step t; length T+1 after a run.

    columns holds the per-split trace values by name, each a list with one
    (U,) row per outer step, row t taken at lambdas[t]: hypergrad_norm,
    train_loss, val_loss and, when the run has a test view, test_loss (for
    oehg the deployed model's loss, the same for every split).
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


def _finite_or_abort(values: np.ndarray, what: str, step: int) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"{what} became non-finite at outer step {step}", step_index=step)
    return values


def _finite_splits_or_abort(values: np.ndarray, what: str, step: int) -> np.ndarray:
    """values, one per split, or a NumericalError naming the first non-finite split
    in _ensemble_grad's form."""
    if not np.all(np.isfinite(values)):
        split = int(np.argmin(np.isfinite(values)))
        raise NumericalError(f"split {split} failed at outer step {step}: {what} became "
                             "non-finite", step_index=step)
    return values


def _split_evals(
    problem: BilevelProblem,
    lams: np.ndarray,
    thetas: np.ndarray,
    grads: np.ndarray,
    train: StackedView,
    val: StackedView,
    test_view: StackedView | None,
    step: int,
) -> dict[str, np.ndarray]:
    """Each split's trace values at its final inner iterate, one (U,) row per column."""
    # overflow at a diverged but finite iterate surfaces as the explicit
    # non-finite checks, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        row = {"train_loss": _finite_splits_or_abort(problem.inner_loss(lams, thetas, train),
                                                     "train loss", step),
               "val_loss": _finite_splits_or_abort(problem.outer_loss(lams, thetas, val),
                                                   "val loss", step)}
        if test_view is not None:
            row["test_loss"] = _finite_splits_or_abort(
                problem.outer_loss(lams, thetas, test_view), "test loss", step)
        row["hypergrad_norm"] = _finite_splits_or_abort(row_norm(grads), "hypergradient norm",
                                                        step)
    return row


def _prepare(problem: BilevelProblem, ds: Dataset, splits: list[Split], T: int,
             lam0: Vec, theta0: Vec):
    """Validated copies of lam0 and theta0, and the splits' stacked train and val views.

    The splits must share their train and validation sizes, as every plan's do.
    """
    if T < 1:
        raise ContractViolationError("T must be >= 1")
    if not splits:
        raise ContractViolationError("need at least one split")
    lam, theta = check_args(problem, lam0, theta0, names=("lam0", "theta0"))
    train = StackedView([s.train_view(ds) for s in splits])
    val = StackedView([s.val_view(ds) for s in splits])
    return lam.copy(), theta.copy(), train, val


def _ensemble_grad(
    problem: BilevelProblem,
    lam: np.ndarray,
    starts: np.ndarray,
    train: StackedView,
    val: StackedView,
    method: HypergradMethod,
    step: int,
    test_view: StackedView | None,
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """One stacked estimate of every split from its start point, (r,) or (U, r).

    Returns the mean of the split hypergradients (an index-ascending sum, so
    it does not depend on execution order), the splits' final inner iterates
    (U, r) and their row of each trace column.
    """
    lams = lam[None].repeat(len(train), axis=0)  # one row per split
    try:
        res = estimate_hypergrad(problem, lams, starts, train, val, method)
    except NumericalError as exc:
        raise NumericalError(
            f"split {exc.member} failed at outer step {step}: {exc.args[0]}", step_index=step
        ) from exc
    row = _split_evals(problem, lams, res.inner_final, res.grad, train, val, test_view, step)
    return ordered_mean(res.grad), res.inner_final, row


def run_ehg(
    problem: BilevelProblem,
    ds: Dataset,
    splits: list[Split],
    method: HypergradMethod,
    opt: OuterOptimizer,
    T: int,
    lam0: Vec,
    theta0: Vec,
    test_view: DataView | None = None,
    warm_start: bool = False,
) -> HPOTrace:
    """Ensemble strategy: lambda steps on the mean of U per-split hypergradients.

    Every outer step re-solves each split's inner problem from theta0 (or from
    the previous iterate when warm_start). After the last lambda update each
    split is solved once more at the final lambda so final_thetas matches it.
    With one split this is the single-split strategy.
    """
    lam, starts, train, val = _prepare(problem, ds, splits, T, lam0, theta0)
    test_views = None if test_view is None else StackedView([test_view] * len(splits))
    state = None
    trace = HPOTrace(lambdas=[lam.copy()])
    for t in range(T):
        gmean, finals, row = _ensemble_grad(problem, lam, starts, train, val, method, t,
                                            test_views)
        if warm_start:
            starts = finals
        lam, state = optimizer_step(opt, lam, gmean, state)
        trace.add_step(row, lam)

    final = inner_solve(problem, lam, starts, train, method.K, method.alpha_in).final
    trace.final_thetas = tuple(final)
    return trace


def run_oehg(
    problem: BilevelProblem,
    ds: Dataset,
    splits: list[Split],
    T: int,
    alpha_in: float,
    opt: OuterOptimizer,
    alpha_deploy: float,
    lam0: Vec,
    theta0: Vec,
    deploy_view: DataView | None = None,
    test_view: DataView | None = None,
) -> HPOTrace:
    """Online ensemble strategy.

    Per outer step: each shadow takes one inner GD step, and its hypergradient
    is one-step ITD started from the shadow; lambda steps on the ordered mean
    of those; the deployed model then takes one GD step on deploy_view
    (default: the full dataset) at the new lambda with step alpha_deploy.
    Trace test losses are evaluated on the deployed model.
    """
    if not alpha_deploy > 0:
        raise ContractViolationError("alpha_deploy must be > 0")
    one_step = HypergradMethod(kind="ITD", K=1, alpha_in=alpha_in)  # refuses alpha_in <= 0
    lam, theta_start, train, val = _prepare(problem, ds, splits, T, lam0, theta0)
    if deploy_view is None:
        deploy_view = full_view(ds)
    shadows = theta_start
    deployed = theta_start
    state = None
    trace = HPOTrace(lambdas=[lam.copy()])
    for t in range(T):
        gmean, shadows, row = _ensemble_grad(problem, lam, shadows, train, val, one_step, t,
                                             None)
        lam, state = optimizer_step(opt, lam, gmean, state)
        # overflow surfaces as the explicit non-finite checks, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            deployed = _finite_or_abort(
                deployed - alpha_deploy * problem.inner_grad_theta(lam, deployed, deploy_view),
                "deployed model", t)
            if test_view is not None:
                test_loss = _finite_or_abort(problem.outer_loss(lam, deployed, test_view),
                                             "test loss", t)
                row["test_loss"] = np.full(len(splits), test_loss)
        trace.add_step(row, lam)

    trace.final_thetas = tuple(shadows.copy())
    trace.deployed_theta = deployed.copy()
    return trace
