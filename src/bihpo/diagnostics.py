"""Closed-form ridge oracle and Monte-Carlo estimator diagnostics.

The oracle works in the library's mean-normalized convention: the inner ridge
objective is (1/m)||X theta - y||^2 + lambda_eff ||theta||^2, so the
stationarity system is (X^T X / m + lambda_eff I) theta = X^T y / m and
d theta / d lambda_eff = -(X^T X / m + lambda_eff I)^{-1} theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import (
    SPLIT_MODES,
    DataView,
    Dataset,
    SplitPlan,
    StackedView,
    _all_val_sets,
    _draw_rows,
    _fill_val_sets,
    _generators,
    _plan_val_size,
    _require_gamma,
    derive_seed,
    split_stacks,
)
from .errors import (
    ContractViolationError,
    NumericalError,
    SingularMatrixError,
    require_count,
    require_real,
)
from .hypergrad import FORWARD_ARRAYS, HypergradMethod, estimate_hypergrad, forward_mode
from .linalg import ordered_mean, row_dot
from .problems import TASK_OF_KIND, BilevelProblem, ModelSpec, build_problem


@dataclass(eq=False)
class RidgeOracle:
    """Closed-form inner solution and exact hypergradient for ridge.

    train and val are DataViews, or StackedViews of B members each. Every
    method takes lambda_eff (u for hypergrad_raw) as a float or as a 1-D grid
    of G values, and solves the systems A_b + lambda_eff_g I of all members
    and grid points in one stacked np.linalg.solve. Results have a leading
    member axis for StackedViews, then a grid axis for a grid: theta_hat is
    (B, G, d) with both and (d,) with neither, where hypergrad_eff is a float.
    """

    train: DataView | StackedView
    val: DataView | StackedView

    def __post_init__(self):
        # one leading member axis throughout, of length 1 for DataViews
        A, b = self.train.gram
        X = self.val.X
        self._stacked = A.ndim == 3
        self._A = A.reshape(-1, *A.shape[-2:])
        self._b = b.reshape(-1, b.shape[-1])
        self._X = X.reshape(-1, *X.shape[-2:])
        self._y = self.val.y.reshape(-1, 1, X.shape[-2])
        self._eigs = np.linalg.eigvalsh(self._A)  # (B, d), ascending

    def _grid(self, lambda_eff) -> np.ndarray:
        lam = np.asarray(lambda_eff, dtype=np.float64)
        if lam.ndim > 1 or not np.all(np.isfinite(lam)) or np.any(lam < 0):
            raise ContractViolationError("lambda_eff must be finite and >= 0")
        return lam.reshape(-1)

    def _out(self, values: np.ndarray, lambda_eff):
        """values (B, G, ...) without the axes that the views and lambda_eff lack."""
        if np.ndim(lambda_eff) == 0:
            values = values[:, 0]
        if not self._stacked:
            values = values[0]
        return float(values) if values.ndim == 0 else values

    def _closed_form(self, lambda_eff, derivative: bool = True):
        """theta_hat and, if derivative, d theta_hat / d lambda_eff: (B, G, d) each.

        Raises SingularMatrixError when lambda_eff + eigmin(A) <= 1e-12 *
        (lambda_eff + eigmax(A)) for any member and grid point.
        """
        lam = self._grid(lambda_eff)
        lo = self._eigs[:, :1] + lam  # (B, G)
        hi = self._eigs[:, -1:] + lam
        singular = lo <= 1e-12 * hi
        if singular.any():
            i, g = np.argwhere(singular)[0]
            raise SingularMatrixError(
                f"A + lambda_eff I is singular to working precision at lambda_eff = "
                f"{lam[g]:.3e}: eigenvalues {lo[i, g]:.3e} to {hi[i, g]:.3e}",
                member=int(i) if self._stacked else None,
            )
        B, d = self._b.shape
        systems = self._A[:, None] + lam[:, None, None] * np.eye(d)  # (B, G, d, d)
        theta = np.linalg.solve(systems, np.broadcast_to(self._b[:, None, :, None],
                                                         (B, lam.size, d, 1)))
        dtheta = np.linalg.solve(systems, -theta)[..., 0] if derivative else None
        return theta[..., 0], dtheta

    def _val_residual(self, theta: np.ndarray) -> np.ndarray:
        """X_val theta - y_val per member and grid point, (B, G, m)."""
        return theta @ self._X.swapaxes(-1, -2) - self._y

    def theta_hat(self, lambda_eff):
        return self._out(self._closed_form(lambda_eff, derivative=False)[0], lambda_eff)

    def dtheta_dlambda(self, lambda_eff):
        return self._out(self._closed_form(lambda_eff)[1], lambda_eff)

    def val_loss(self, lambda_eff):
        r = self._val_residual(self._closed_form(lambda_eff, derivative=False)[0])
        return self._out(row_dot(r, r) / r.shape[-1], lambda_eff)

    def hypergrad_eff(self, lambda_eff):
        """d (validation MSE) / d lambda_eff through the closed form."""
        theta, dtheta = self._closed_form(lambda_eff)
        resid = self._val_residual(theta)
        grad = (2.0 / resid.shape[-1]) * np.einsum("bgi,bgi->bg", resid @ self._X, dtheta)
        return self._out(grad, lambda_eff)

    def hypergrad_raw(self, u):
        """Same derivative in the raw (log) coordinate: chain factor e^u."""
        le = np.exp(u)
        return le * self.hypergrad_eff(le)

    def curvature(self, lambda_eff):
        """(L, mu) of the inner Hessian 2(X^T X / m) + 2 lambda_eff I."""
        lam = self._grid(lambda_eff)
        L = 2.0 * (self._eigs[:, -1:] + lam)
        mu = 2.0 * (self._eigs[:, :1] + lam)
        return self._out(L, lambda_eff), self._out(mu, lambda_eff)


# ---------------------------------------------------------------------------
# members of the diagnostics, estimated in stacked runs

# Bytes that one stacked estimate of B members may hold: B * _member_bytes.
# Reverse mode holds each member's trajectory, (K + 1) * r * 8 bytes, and
# forward mode a few vectors, FORWARD_ARRAYS * r * 8; each member also holds
# MEMBER_MATRICES r x r matrices. Longer member stacks run as several
# contiguous runs. The exact ridge reference solves its systems in blocks of
# replicates by the same budget.
RUN_BYTES = 2 << 20
# r x r matrices that a member of a run holds beside its iterates, for the
# squared-loss kinds: the train and val Gram matrices that the run gathers,
# and the inner Hessian H = 2A + c2 I that its binding builds, with the 2A it
# is built from. The other kinds read the rows that the stacks hold already.
MEMBER_MATRICES = 4


def _replicate_stacks(design: SweepDesign, spec: ModelSpec, U: int, seed: int, count: int
                      ) -> tuple[StackedView, StackedView]:
    """Train and val stacks of count replicates of U splits each, replicate-major.

    Replicate j draws the rows of data.synthetic for spec's task (with
    spec.num_classes classes, or 2 for a binary kind) from derive_seed(seed,
    2j), and its U splits, as draw_val_sets does, from the SplitPlan whose
    master seed is derive_seed(seed, 2j + 1). So member j * U + u holds the
    rows of split u's train and val views of replicate j's dataset. The seeds
    of all replicates are derived at once; the rows of all replicates are one
    _draw_rows call, whose generator is re-seeded per replicate, and the
    splits one _fill_val_sets draw, so each keeps the bits of a fresh
    Generator(PCG64(seed)). The plan differs between replicates only in its
    master seed, so it is built and checked once, before any replicate is drawn.
    """
    n, d, task = design.n, design.d, TASK_OF_KIND[spec.kind]
    k = spec.num_classes if task == "multiclass" else 0  # the class count of task's Dataset
    plan = SplitPlan(U=U, gamma=design.gamma, mode=design.mode)
    vals = np.empty((count, U, _plan_val_size(n, plan)), dtype=np.int64)
    seeds = derive_seed(seed, np.arange(2 * count, dtype=np.uint64)).reshape(count, 2)
    X, y = _draw_rows(task, n, d, k or 2, design.noise_sigma, _generators(seeds[:, 0]), count,
                      design.beta_seed)
    _fill_val_sets(vals, n, plan.mode, seeds[:, 1])

    return split_stacks(X, y, vals, k)


def _member_bytes(problem: BilevelProblem, method: HypergradMethod) -> int:
    """Bytes of inner iterates and matrices that one member of a stacked estimate holds."""
    r = problem.param_dim
    arrays = FORWARD_ARRAYS if forward_mode(problem, method) else method.K + 1
    return (arrays + MEMBER_MATRICES * r) * r * 8


def _stacked_estimates(problem: BilevelProblem, method: HypergradMethod,
                       train: StackedView, val: StackedView, lam: np.ndarray) -> np.ndarray:
    """Hypergradients of the members of train and val from theta = 0, one row each.

    lam holds each member's raw hyperparameters, (B, p). The members run as
    contiguous runs: a run is as many members as keep their iterates and
    matrices (_member_bytes) within RUN_BYTES, estimated by one estimate_hypergrad
    call on the run's take slices of train and val, which gather the run's
    members only (a slice of a stack built from rows reads views of its
    arrays). Each member's row is bitwise the same wherever the runs are
    cut. A NumericalError names the failing member by its index in the
    stacks.
    """
    size = max(1, RUN_BYTES // _member_bytes(problem, method))
    rows = []
    for first in range(0, len(train), size):
        run = slice(first, first + size)
        try:
            grad = estimate_hypergrad(problem, lam[run], np.zeros(problem.param_dim),
                                      train.take(run), val.take(run), method).grad
        except NumericalError as exc:
            if exc.member is None:
                raise
            raise NumericalError(exc.args[0], exc.step_index, first + exc.member) from None
        rows.append(grad)
    return np.concatenate(rows)


def _u_means(rows: np.ndarray, U: int) -> np.ndarray:
    """Means of consecutive groups of U rows, each an index-ascending sum."""
    return ordered_mean(rows.reshape(-1, U, rows.shape[-1]).swapaxes(0, 1))


def _mean_sq_dist(rows: np.ndarray, center: np.ndarray) -> float:
    """Mean over the rows of the squared distance of each row to center."""
    return float(np.mean(np.sum((rows - center) ** 2, axis=1)))


# ---------------------------------------------------------------------------
# bias-variance decomposition over replicated (dataset, split-set) draws

@dataclass(frozen=True)
class SweepDesign:
    """The replicate datasets' size, noise and ground-truth seed for
    data.synthetic, plus the split protocol; the model spec picks their task.

    Each field is checked once, here, and a refusal names its field.
    """

    n: int
    d: int
    noise_sigma: float
    gamma: float
    beta_seed: int = 0
    mode: str = "without_replacement"

    def __post_init__(self):
        require_count(self.n, "n", minimum=2)
        require_count(self.d, "d", minimum=1)
        require_real(self.noise_sigma, "noise_sigma")
        if self.noise_sigma < 0:
            raise ContractViolationError("noise_sigma must be finite and >= 0",
                                         field="noise_sigma")
        _require_gamma(self.gamma)
        if self.mode not in SPLIT_MODES:
            raise ContractViolationError(f"mode must be one of {SPLIT_MODES}", field="mode")
        require_count(self.beta_seed, "beta_seed")


@dataclass(frozen=True)
class BiasVarianceRow:
    lambda_eff: float
    error: float
    variance: float
    bias_sq: float
    identity_residual: float


@dataclass(frozen=True)
class BiasVarianceReport:
    rows: tuple[BiasVarianceRow, ...]
    R: int
    U: int


def _oracle_means(train: StackedView, val: StackedView, lam_grid: list[float], U: int
                  ) -> np.ndarray:
    """U-split means of the exact raw-coordinate ridge hypergradients of
    replicate stacks on the effective grid, (R, n_lam, 1).

    One RidgeOracle solves each block of replicates whose systems,
    (k * U, n_lam, d, d), fit in RUN_BYTES, and at least one replicate.
    """
    lam = np.asarray(lam_grid, dtype=np.float64)
    R, d = len(train) // U, train.gram[1].shape[-1]
    block = max(1, RUN_BYTES // (U * lam.size * d * d * 8)) * U
    grads = []
    for first in range(0, R * U, block):
        rows = slice(first, first + block)
        grads.append(lam * RidgeOracle(train.take(rows), val.take(rows)).hypergrad_eff(lam))
    grads = np.concatenate(grads)  # (R * U, n_lam)
    # rows in replicate -> grid point -> split order
    return _u_means(grads.reshape(R, U, -1).swapaxes(1, 2).reshape(-1, 1), U).reshape(R, -1, 1)


def bias_variance_sweep(
    design: SweepDesign,
    method: HypergradMethod | str,
    lam_grid,
    R: int,
    U: int,
    seed: int,
    spec: ModelSpec = ModelSpec(kind="ridge"),
    ref_K: int = 2000,
) -> BiasVarianceReport:
    """Empirical error = variance + bias^2 decomposition per grid point.

    Draws R replicate (dataset, split-set) pairs of spec's task (any kind but
    hyperclean_softmax, whose lam is per-row weights, not one strength); the
    estimate ghat_j is the U-split ensemble mean of `method` hypergradients
    (raw coordinates, every coordinate of lam at log lambda_eff); the
    reference gbar is the replicate mean of exact oracle hypergradients
    (ridge) or of ITD at ref_K inner steps (every other model). gtilde is the
    sample mean of the ghat_j, which makes the decomposition an algebraic
    identity. lam_grid is in
    effective (positive) coordinates. The R replicates are drawn once, as one
    stack (see _replicate_stacks); the R * len(lam_grid) * U members are one
    take of it, ordered replicate -> grid point -> split, and run in stacked
    runs (see _stacked_estimates).
    """
    require_count(R, "R", minimum=2)
    require_count(U, "U", minimum=1)
    lam_grid = [float(x) for x in lam_grid]
    if not lam_grid:
        raise ContractViolationError("lam_grid needs at least one value", field="lam_grid")
    if not all(x > 0 and math.isfinite(x) for x in lam_grid):
        raise ContractViolationError("lam_grid values must be positive and finite "
                                     "(effective scale)", field="lam_grid")
    if spec.kind == "hyperclean_softmax":  # its lam is per-row weights, not one strength
        raise ContractViolationError("lam_grid does not apply to hyperclean_softmax", field="spec")
    problem = build_problem(spec, design.d)
    exact = spec.kind == "ridge"
    if method == "oracle" and not exact:
        raise ContractViolationError("method='oracle' requires the ridge model")
    n_lam, p = len(lam_grid), problem.hyper_dim
    train, val = _replicate_stacks(design, spec, U, seed, R)
    if exact:
        gref = _oracle_means(train, val, lam_grid, U)

    if method == "oracle":
        ghat = gref
    else:
        # member (j, l, u) is split u of replicate j at grid point l
        shape = (R, n_lam, U)
        index = np.broadcast_to(np.arange(R * U).reshape(R, 1, U), shape).reshape(-1)
        raw = np.array([math.log(x) for x in lam_grid])  # np.log may differ in the last bit
        lams = np.broadcast_to(raw[None, :, None, None], (*shape, p)).reshape(-1, p)
        member_train, member_val = train.take(index), val.take(index)

        def ensemble_means(est: HypergradMethod) -> np.ndarray:
            grads = _stacked_estimates(problem, est, member_train, member_val, lams)
            return _u_means(grads, U).reshape(R, n_lam, p)

        ghat = ensemble_means(method)
        if not exact:
            gref = ensemble_means(HypergradMethod(kind="ITD", K=ref_K, alpha_in=method.alpha_in))
    gtilde = ghat.mean(axis=0)  # (n_lam, p)
    gbar = gref.mean(axis=0)

    rows = []
    for li, lam_eff in enumerate(lam_grid):
        err = _mean_sq_dist(ghat[:, li], gbar[li])
        var = _mean_sq_dist(ghat[:, li], gtilde[li])
        bias_sq = float(np.sum((gtilde[li] - gbar[li]) ** 2))
        rows.append(
            BiasVarianceRow(
                lambda_eff=lam_eff,
                error=err,
                variance=var,
                bias_sq=bias_sq,
                identity_residual=abs(err - var - bias_sq),
            )
        )
    return BiasVarianceReport(rows=tuple(rows), R=R, U=U)


# ---------------------------------------------------------------------------
# ensemble variance vs U under independent resampling

@dataclass(frozen=True)
class VarianceCurve:
    points: tuple[tuple[int, float], ...]  # (U, sample variance of ensemble mean)
    slope: float


def ensemble_variance_curve(
    design: SweepDesign,
    method: HypergradMethod,
    lam_eff: float,
    R: int,
    U_list,
    seed: int,
    spec: ModelSpec = ModelSpec(kind="ridge"),
    workers: int = 1,
) -> VarianceCurve:
    """Sample variance of the U-member ensemble mean when every member is an
    independent (dataset, split) resample; slope of log-variance vs log-U.

    With independent members Var(mean) = sigma^2 / U exactly, so the fitted
    slope should sit near -1. The members draw the data of spec's task, and
    the sum(U_list) * R of them run in stacked runs (see _stacked_estimates).
    workers is accepted for callers of the former process pool and must be 1.
    """
    require_count(R, "R", minimum=2)
    if workers != 1:
        raise ContractViolationError(f"the members run in one process: workers must be 1, "
                                     f"got {workers}")
    U_list = list(U_list)
    for u in U_list:
        require_count(u, "U_list", minimum=1)
    U_list = [int(u) for u in U_list]
    if len(set(U_list)) < 2:
        raise ContractViolationError(f"U_list needs at least two distinct values, got {U_list}",
                                     field="U_list")
    require_real(lam_eff, "lam_eff")
    if not lam_eff > 0:
        raise ContractViolationError(f"lam_eff must be positive and finite, got {lam_eff!r}",
                                     field="lam_eff")
    problem = build_problem(spec, design.d)
    # member c draws its dataset and split from the seed pair of replicate c;
    # the members of (U, replicate j) are contiguous, U by U, over U_list
    count = sum(U_list) * R
    train, val = _replicate_stacks(design, spec, 1, seed, count)
    lam = np.full((count, problem.hyper_dim), math.log(lam_eff))
    grads = _stacked_estimates(problem, method, train, val, lam)

    points, first = [], 0
    for U in U_list:
        M = _u_means(grads[first:first + R * U], U)
        first += R * U
        points.append((U, _mean_sq_dist(M, M.mean(axis=0))))
    logs_u = np.log([p[0] for p in points])
    logs_v = np.log([p[1] for p in points])
    slope = float(np.polyfit(logs_u, logs_v, 1)[0])
    return VarianceCurve(points=tuple(points), slope=slope)


# ---------------------------------------------------------------------------
# finite-population correction for without-replacement split sampling

@dataclass(frozen=True)
class FpcReport:
    n: int
    gamma: float
    U: int
    V: int
    sigma_sq: float
    mc_estimate: float
    exact_without: float
    with_replacement: float
    samples: int


def fpc_without_replacement(V: int, U: int, sigma_sq: float) -> float:
    """(V - U) sigma^2 / (U (V - 1)); 0 when U = V (and when V = 1)."""
    if not (1 <= U <= V):
        raise ContractViolationError("need 1 <= U <= V")
    if V == 1:
        return 0.0
    return (V - U) * sigma_sq / (U * (V - 1))


def fpc_with_replacement(U: int, sigma_sq: float) -> float:
    if U < 1:
        raise ContractViolationError("U must be >= 1")
    return sigma_sq / U


def fpc_verify(
    ds: Dataset,
    gamma: float,
    U: int,
    lam_raw: float,
    problem: BilevelProblem,
    samples: int,
    seed: int,
    method: HypergradMethod | None = None,
) -> FpcReport:
    """Exhaustively enumerate the split population and check the correction.

    The per-split statistic is the raw-coordinate hypergradient, for all V
    splits at once: one stacked closed form (RidgeOracle) for ridge, otherwise
    the supplied estimator method from theta = 0 in stacked runs (see
    _stacked_estimates). sigma^2 is the population variance (1/V normalizer);
    the Monte-Carlo term estimates E ||xbar - Xbar||^2 over `samples` draws of
    U-subsets without replacement.
    """
    if samples < 1:
        raise ContractViolationError("samples must be >= 1", field="samples")
    if problem.kind != "ridge" and method is None:
        raise ContractViolationError("non-ridge problems need an explicit estimator method")
    vals = _all_val_sets(ds.n, gamma)
    V = len(vals)
    if not (1 <= U <= V):
        raise ContractViolationError(f"need 1 <= U <= V = {V}, got U = {U}", field="U")

    train, val = split_stacks(ds.X, ds.y, vals, ds.num_classes)
    if problem.kind == "ridge":
        S = RidgeOracle(train, val).hypergrad_raw(lam_raw)[:, None]  # (V, 1)
    else:
        lam = np.full((V, problem.hyper_dim), lam_raw)
        S = _stacked_estimates(problem, method, train, val, lam)  # (V, p)
    Xbar = S.mean(axis=0)
    sigma_sq = _mean_sq_dist(S, Xbar)

    rng = np.random.Generator(np.random.PCG64(seed))
    # vectorized without-replacement draws: top-U of a random permutation per
    # row, in blocks of rows whose uniforms and argsort fit RUN_BYTES; one
    # generator's consecutive blocks are its single draw, bit for bit
    block = max(1, RUN_BYTES // (16 * V))
    means = []
    for rows in range(0, samples, block):
        order = np.argsort(rng.random((min(block, samples - rows), V)), axis=1)[:, :U]
        order = np.sort(order, axis=1)  # ascending so U = V reproduces Xbar bitwise
        means.append(S[order].mean(axis=1))  # (block rows, p)
    mc = _mean_sq_dist(np.concatenate(means), Xbar)

    return FpcReport(
        n=ds.n,
        gamma=gamma,
        U=U,
        V=V,
        sigma_sq=sigma_sq,
        mc_estimate=mc,
        exact_without=fpc_without_replacement(V, U, sigma_sq),
        with_replacement=fpc_with_replacement(U, sigma_sq),
        samples=samples,
    )
