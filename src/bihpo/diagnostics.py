"""Closed-form ridge oracle and Monte-Carlo estimator diagnostics.

The oracle works in the library's mean-normalized convention: the inner ridge
objective is (1/m)||X theta - y||^2 + lambda_eff ||theta||^2, so the
stationarity system is (X^T X / m + lambda_eff I) theta = X^T y / m and
d theta / d lambda_eff = -(X^T X / m + lambda_eff I)^{-1} theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from .data import (
    DataView,
    Dataset,
    SplitPlan,
    StackedView,
    derive_seed,
    enumerate_all_splits,
    gen_linear,
    make_splits,
)
from .errors import ContractViolationError, NumericalError
from .hypergrad import HypergradMethod, estimate_hypergrad, inner_solve, itd_hypergrad
from .linalg import Vec, dense_solve
from .problems import BilevelProblem, ModelSpec, build_problem


@dataclass(eq=False)
class RidgeOracle:
    """Closed-form inner solution and exact hypergradient for ridge."""

    train: DataView
    val: DataView

    def __post_init__(self):
        A, b = self.train.gram
        self._A = A
        self._b = b

    def _system(self, lambda_eff: float) -> np.ndarray:
        return self._A + lambda_eff * np.eye(self._A.shape[0])

    def theta_hat(self, lambda_eff: float) -> np.ndarray:
        if lambda_eff < 0:
            raise ContractViolationError("lambda_eff must be >= 0")
        return dense_solve(self._system(lambda_eff), self._b)

    def dtheta_dlambda(self, lambda_eff: float) -> np.ndarray:
        return dense_solve(self._system(lambda_eff), -self.theta_hat(lambda_eff))

    def val_loss(self, lambda_eff: float) -> float:
        r = self.val.X @ self.theta_hat(lambda_eff) - self.val.y
        return float(r @ r) / self.val.m

    def hypergrad_eff(self, lambda_eff: float) -> float:
        """d (validation MSE) / d lambda_eff through the closed form."""
        theta = self.theta_hat(lambda_eff)
        dtheta = dense_solve(self._system(lambda_eff), -theta)
        resid = self.val.X @ theta - self.val.y
        return float((2.0 / self.val.m) * (resid @ (self.val.X @ dtheta)))

    def hypergrad_raw(self, u: float) -> float:
        """Same derivative in the raw (log) coordinate: chain factor e^u."""
        le = math.exp(u)
        return le * self.hypergrad_eff(le)

    def curvature(self, lambda_eff: float) -> tuple[float, float]:
        """(L, mu) of the inner Hessian 2(X^T X / m) + 2 lambda_eff I."""
        eigs = np.linalg.eigvalsh(self._A)
        return 2.0 * (float(eigs[-1]) + lambda_eff), 2.0 * (float(eigs[0]) + lambda_eff)


# ---------------------------------------------------------------------------
# bias-variance decomposition over replicated (dataset, split-set) draws

@dataclass(frozen=True)
class SweepDesign:
    """Synthetic linear-Gaussian replicate generator plus the split protocol."""

    n: int
    d: int
    noise_sigma: float
    gamma: float
    beta_seed: int = 0
    mode: str = "without_replacement"


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


def _ridge_itd_grid(train: DataView, val: DataView, lam_grid_eff, K: int,
                    alpha: float) -> np.ndarray:
    """Raw-coordinate ITD hypergradients for ridge on a whole lambda grid.

    Batched form of inner_solve + itd_hypergrad (same recurrence, one matrix
    op per step instead of one python call per grid point); cross-checked
    against the generic engine in the test suite. theta0 = 0.
    """
    A, b = train.gram
    lam = np.asarray(lam_grid_eff, dtype=np.float64)
    L = lam[:, None]
    d = A.shape[0]
    thetas = np.zeros((K + 1, lam.size, d))
    th = np.zeros((lam.size, d))
    for k in range(K):
        th = th - alpha * (2.0 * (th @ A - b) + 2.0 * L * th)
        thetas[k + 1] = th
    resid = th @ val.X.T - val.y
    a = (2.0 / val.m) * (resid @ val.X)
    g = np.zeros(lam.size)
    for k in range(K - 1, -1, -1):
        g -= alpha * (2.0 * lam * np.einsum("ij,ij->i", thetas[k], a))
        a = a - alpha * (2.0 * (a @ A) + 2.0 * L * a)
    return g


def _ridge_oracle_grid(train: DataView, val: DataView, lam_grid_eff) -> np.ndarray:
    """Exact raw-coordinate ridge hypergradients on a whole lambda grid."""
    A, b = train.gram
    lam = np.asarray(lam_grid_eff, dtype=np.float64)
    d = A.shape[0]
    systems = A[None, :, :] + lam[:, None, None] * np.eye(d)
    rhs = np.broadcast_to(b[:, None], (lam.size, d, 1))
    theta = np.linalg.solve(systems, rhs)[..., 0]
    dtheta = np.linalg.solve(systems, -theta[..., None])[..., 0]
    resid = theta @ val.X.T - val.y
    grad_eff = (2.0 / val.m) * np.einsum("ij,ij->i", resid @ val.X, dtheta)
    return lam * grad_eff


def _replicate_task(args):
    """One replicate: hypergradient estimates and references on every grid point.

    Module-level so process pools can pickle it. Returns two (n_lam, p) arrays.
    """
    (spec, design, method, lam_grid, data_seed, split_seed, U, ref_K) = args
    ds, _ = gen_linear(design.n, design.d, design.noise_sigma, seed=data_seed,
                       beta_seed=design.beta_seed)
    problem = build_problem(spec, ds.d)
    plan = SplitPlan(U=U, gamma=design.gamma, mode=design.mode, master_seed=split_seed)
    splits = make_splits(ds.n, plan)
    views = [(s.train_view(ds), s.val_view(ds)) for s in splits]
    theta0 = np.zeros(problem.param_dim)
    n_lam = len(lam_grid)
    p = problem.hyper_dim

    if method == "oracle" and spec.kind != "ridge":
        raise ContractViolationError("method='oracle' requires the ridge model")

    if spec.kind == "ridge" and (
        method == "oracle" or (isinstance(method, HypergradMethod) and method.kind == "ITD")
    ):
        est_sum = np.zeros(n_lam)
        ref_sum = np.zeros(n_lam)
        for train, val in views:
            ref_grid = _ridge_oracle_grid(train, val, lam_grid)
            est_grid = (ref_grid if method == "oracle"
                        else _ridge_itd_grid(train, val, lam_grid, method.K, method.alpha_in))
            est_sum += est_grid
            ref_sum += ref_grid
        return (est_sum / len(views))[:, None], (ref_sum / len(views))[:, None]

    oracles = [RidgeOracle(tr, va) for tr, va in views] if spec.kind == "ridge" else None
    ghat = np.zeros((n_lam, p))
    gref = np.zeros((n_lam, p))
    for li, lam_eff in enumerate(lam_grid):
        lam = np.array([math.log(lam_eff)])
        est = np.zeros(p)
        ref = np.zeros(p)
        for i, (train, val) in enumerate(views):
            est += estimate_hypergrad(problem, lam, theta0, train, val, method).grad
            if oracles is not None:
                ref += np.array([oracles[i].hypergrad_raw(lam[0])])
            else:
                traj = inner_solve(problem, lam, theta0, train, ref_K, method.alpha_in)
                ref += itd_hypergrad(problem, lam, traj, train, val).grad
        ghat[li] = est / len(views)
        gref[li] = ref / len(views)
    return ghat, gref


def bias_variance_sweep(
    design: SweepDesign,
    method: HypergradMethod | str,
    lam_grid,
    R: int,
    U: int,
    seed: int,
    spec: ModelSpec = ModelSpec(kind="ridge"),
    ref_K: int = 2000,
    workers: int = 1,
) -> BiasVarianceReport:
    """Empirical error = variance + bias^2 decomposition per grid point.

    Draws R replicate (dataset, split-set) pairs; the estimate ghat_j is the
    U-split ensemble mean of `method` hypergradients (raw coordinates); the
    reference gbar is the replicate mean of exact oracle hypergradients
    (ridge) or of a high-K reverse-mode reference (other models). gtilde is
    the sample mean of the ghat_j, which makes the decomposition an algebraic
    identity. lam_grid is in effective (positive) coordinates.
    """
    if R < 2:
        raise ContractViolationError("R must be >= 2")
    if U < 1:
        raise ContractViolationError("U must be >= 1")
    if workers < 1:
        raise ContractViolationError(f"workers must be >= 1, got {workers}")
    lam_grid = [float(x) for x in lam_grid]
    if any(x <= 0 for x in lam_grid):
        raise ContractViolationError("lam_grid values must be positive (effective scale)")
    tasks = [
        (spec, design, method, lam_grid,
         derive_seed(seed, 2 * j), derive_seed(seed, 2 * j + 1), U, ref_K)
        for j in range(R)
    ]
    if workers > 1:
        with get_context("fork").Pool(processes=workers) as pool:
            results = pool.map(_replicate_task, tasks)
    else:
        results = [_replicate_task(t) for t in tasks]

    ghat = np.stack([r[0] for r in results])  # (R, n_lam, p)
    gref = np.stack([r[1] for r in results])
    gtilde = ghat.mean(axis=0)                # (n_lam, p)
    gbar = gref.mean(axis=0)

    rows = []
    for li, lam_eff in enumerate(lam_grid):
        err = float(np.mean(np.sum((ghat[:, li] - gbar[li]) ** 2, axis=1)))
        var = float(np.mean(np.sum((ghat[:, li] - gtilde[li]) ** 2, axis=1)))
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


def _members_task(args):
    """ITD/TRHG/AID hypergradients of a contiguous run of ensemble members.

    Each member draws its own dataset and split from its seed pair; the run
    is then estimated as one stacked pass. Module-level so process pools can
    pickle it. Returns a (members, p) array, or the NumericalError of a
    failing member, named by its index in the whole ensemble.
    """
    (spec, design, method, lam_raw, first, seeds) = args
    trains, vals = [], []
    for data_seed, split_seed in seeds:
        ds, _ = gen_linear(design.n, design.d, design.noise_sigma, seed=data_seed,
                           beta_seed=design.beta_seed)
        plan = SplitPlan(U=1, gamma=design.gamma, mode=design.mode, master_seed=split_seed)
        split = make_splits(ds.n, plan)[0]
        trains.append(split.train_view(ds))
        vals.append(split.val_view(ds))
    problem = build_problem(spec, design.d)
    try:
        return estimate_hypergrad(
            problem, np.full(problem.hyper_dim, lam_raw), np.zeros(problem.param_dim),
            StackedView(trains), StackedView(vals), method,
        ).grad
    except NumericalError as exc:
        if exc.member is None:
            raise
        # returned, not raised, so that the caller reports the failure of the
        # first failing run whichever pool process finishes first
        return NumericalError(exc.args[0], exc.step_index, first + exc.member)


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
    slope should sit near -1. spec must be a batched (regression) model: all
    sum(U_list) * R members run as one stacked estimate, whose trajectory
    holds (K + 1) * members * d floats. workers > 1 splits the members into
    that many contiguous runs, one stacked estimate per pool process; the
    result is bitwise the same for every worker count.
    """
    if R < 2:
        raise ContractViolationError("R must be >= 2")
    if workers < 1:
        raise ContractViolationError(f"workers must be >= 1, got {workers}")
    U_list = [int(u) for u in U_list]
    if any(u < 1 for u in U_list) or len(U_list) < 2:
        raise ContractViolationError("need at least two U values, all >= 1")
    if not build_problem(spec, design.d).batched:
        raise ContractViolationError(
            f"ensemble_variance_curve needs a regression model, got {spec.kind!r}"
        )
    lam_raw = math.log(lam_eff)
    seeds = []
    layout = []  # (U, replicate j) -> member indices
    for U in U_list:
        for j in range(R):
            layout.append((U, j, range(len(seeds), len(seeds) + U)))
            for _ in range(U):
                c = len(seeds)
                seeds.append((derive_seed(seed, 2 * c), derive_seed(seed, 2 * c + 1)))
    bounds = np.linspace(0, len(seeds), min(workers, len(seeds)) + 1).astype(int)
    tasks = [(spec, design, method, lam_raw, int(a), seeds[a:b])
             for a, b in zip(bounds[:-1], bounds[1:])]
    if len(tasks) > 1:
        with get_context("fork").Pool(processes=len(tasks)) as pool:
            runs = pool.map(_members_task, tasks)
    else:
        runs = [_members_task(tasks[0])]
    for run in runs:
        if isinstance(run, NumericalError):
            raise run
    grads = np.concatenate(runs)

    points = []
    for U in U_list:
        means = []
        for (u_val, _, members) in layout:
            if u_val != U:
                continue
            acc = grads[members[0]].copy()
            for idx in members[1:]:
                acc += grads[idx]
            means.append(acc / U)
        M = np.stack(means)
        center = M.mean(axis=0)
        var = float(np.mean(np.sum((M - center) ** 2, axis=1)))
        points.append((U, var))
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

    The per-split statistic is the raw-coordinate hypergradient: exact oracle
    for ridge, otherwise the supplied estimator method. sigma^2 is the
    population variance (1/V normalizer); the Monte-Carlo term estimates
    E ||xbar - Xbar||^2 over `samples` draws of U-subsets without replacement.
    """
    if samples < 1:
        raise ContractViolationError("samples must be >= 1")
    splits = enumerate_all_splits(ds.n, gamma)
    V = len(splits)
    if not (1 <= U <= V):
        raise ContractViolationError(f"need 1 <= U <= V = {V}, got U = {U}")

    stats = []
    theta0 = np.zeros(problem.param_dim)
    lam = np.array([lam_raw]) if problem.hyper_dim == 1 else np.full(problem.hyper_dim, lam_raw)
    for s in splits:
        train, val = s.train_view(ds), s.val_view(ds)
        if problem.kind == "ridge":
            stats.append(np.array([RidgeOracle(train, val).hypergrad_raw(lam_raw)]))
        else:
            if method is None:
                raise ContractViolationError(
                    "non-ridge problems need an explicit estimator method"
                )
            stats.append(estimate_hypergrad(problem, lam, theta0, train, val, method).grad)
    S = np.stack(stats)  # (V, p)
    Xbar = S.mean(axis=0)
    sigma_sq = float(np.mean(np.sum((S - Xbar) ** 2, axis=1)))

    rng = np.random.Generator(np.random.PCG64(seed))
    # vectorized without-replacement draws: top-U of a random permutation per row
    order = np.argsort(rng.random((samples, V)), axis=1)[:, :U]
    order = np.sort(order, axis=1)  # ascending so U = V reproduces Xbar bitwise
    means = S[order].mean(axis=1)  # (samples, p)
    mc = float(np.mean(np.sum((means - Xbar) ** 2, axis=1)))

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
