"""Bilevel problem contract and the regularized model zoo.

A BilevelProblem packages the first- and second-order directional derivatives
of the inner (training) and outer (validation) objectives. All losses are
means (1/m normalization), so gradients are comparable across split sizes.
Outer objectives are the pure data loss on the validation view.

Hyperparameters are optimized in raw unconstrained coordinates: positive
regularization coefficients are exponentiated (lambda_eff = exp(u)) and
hypercleaning sample weights pass through a sigmoid, so every hypergradient
reported by the library is with respect to the raw coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import expit, logsumexp

from .data import DataView, StackedView
from .errors import ConfigError, ContractViolationError
from .linalg import Vec, row_dot

MODEL_KINDS = (
    "ridge",
    "lasso_smooth",
    "elastic_net",
    "logistic_l2",
    "svm_sqhinge",
    "softmax_l2",
    "ridge_per_param",
    "hyperclean_softmax",
)

_SOFTMAX_KINDS = ("softmax_l2", "hyperclean_softmax")


@dataclass(frozen=True)
class ModelSpec:
    """Which zoo model to build and its structural knobs.

    smoothing_delta is the pseudo-Huber width for the smoothed L1 penalty;
    num_classes is required for the softmax variants; n_weights is the
    training-pool size for hyperclean_softmax (one sigmoid weight per row).
    """

    kind: str
    smoothing_delta: float = 1e-6
    num_classes: int = 0
    n_weights: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}", field_path="problem.kind")
        if self.kind in ("lasso_smooth", "elastic_net") and not self.smoothing_delta > 0:
            raise ConfigError(
                "smoothing_delta must be > 0 for smoothed-L1 models",
                field_path="problem.smoothing_delta",
            )
        if self.kind in _SOFTMAX_KINDS and self.num_classes < 2:
            raise ConfigError(
                f"{self.kind} requires num_classes >= 2", field_path="problem.num_classes"
            )
        if self.kind == "hyperclean_softmax" and self.n_weights < 1:
            raise ConfigError(
                "hyperclean_softmax requires n_weights >= 1 (training-pool size)",
                field_path="problem.n_weights",
            )


@dataclass(frozen=True)
class BilevelProblem:
    """Derivative callbacks of the inner/outer objectives, all pure.

    Callbacks take raw hyperparameters lam (length hyper_dim), parameters
    theta (length param_dim), and a DataView; the *_vp variants additionally
    take the direction v (length param_dim). inner_mixed_vp returns the
    cross second derivative d/d_lam (d inner / d theta) contracted with v,
    a vector of length hyper_dim. When batched, the callbacks also take a
    leading member axis, lam (B, hyper_dim), theta and v (B, param_dim), with
    a StackedView of B members, and return one value per member.
    """

    hyper_dim: int
    param_dim: int
    inner_loss: Callable[[Vec, Vec, DataView], float]
    inner_grad_theta: Callable[[Vec, Vec, DataView], Vec]
    inner_hvp: Callable[[Vec, Vec, DataView, Vec], Vec]
    inner_mixed_vp: Callable[[Vec, Vec, DataView, Vec], Vec]
    outer_loss: Callable[[Vec, Vec, DataView], float]
    outer_grad_theta: Callable[[Vec, Vec, DataView], Vec]
    outer_grad_lambda: Callable[[Vec, Vec, DataView], Vec]
    hyper_domain: tuple[np.ndarray, np.ndarray]
    effective: Callable[[Vec], Vec]
    kind: str = ""
    supports_aid: bool = True
    batched: bool = False


def _check_dims(lam: Vec, theta: Vec, p: int, r: int) -> tuple[Vec, Vec]:
    lam = np.asarray(lam, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    if lam.shape != (p,):
        raise ContractViolationError(f"lam must have shape ({p},), got {lam.shape}")
    if theta.shape != (r,):
        raise ContractViolationError(f"theta must have shape ({r},), got {theta.shape}")
    return lam, theta


def _free_domain(p: int) -> tuple[np.ndarray, np.ndarray]:
    return np.full(p, -np.inf), np.full(p, np.inf)


# ---------------------------------------------------------------------------
# shared loss pieces

def _matvec(A: np.ndarray, x: Vec) -> Vec:
    """A x over the last axes, batched over any leading member axis (A @ x for 1-D x)."""
    return (A @ x[..., None])[..., 0]


def _quad_loss(theta: Vec, view: DataView | StackedView) -> float:
    A, b = view.gram
    c = row_dot(view.y, view.y) / view.m
    return row_dot(theta, _matvec(A, theta)) - 2.0 * row_dot(b, theta) + c


def _quad_grad(theta: Vec, view: DataView | StackedView) -> Vec:
    A, b = view.gram
    return 2.0 * (_matvec(A, theta) - b)


def _quad_hvp(view: DataView | StackedView, v: Vec) -> Vec:
    A, _ = view.gram
    return 2.0 * _matvec(A, v)


def _phuber(theta: Vec, delta: float) -> tuple[float, Vec, Vec]:
    """Pseudo-Huber sum_j (sqrt(theta_j^2 + delta^2) - delta): value, grad, diag Hessian."""
    s = np.sqrt(theta * theta + delta * delta)
    return np.sum(s - delta, axis=-1), theta / s, (delta * delta) / (s * s * s)


def _logistic_parts(theta: Vec, view: DataView):
    z = view.X @ theta
    yz = view.y * z
    return z, yz


def _softmax_probs(Z: np.ndarray) -> np.ndarray:
    Zs = Z - Z.max(axis=1, keepdims=True)
    E = np.exp(Zs)
    return E / E.sum(axis=1, keepdims=True)


def _ce_per_sample(view: DataView, W: np.ndarray) -> np.ndarray:
    Z = view.X @ W
    lse = logsumexp(Z, axis=1)
    return lse - Z[np.arange(view.m), view.labels]


# ---------------------------------------------------------------------------
# builders: regression with exp-reparameterized penalties
#
# The regression callbacks are batch-transparent: lam (..., p), theta and v
# (..., r) and a DataView or StackedView broadcast over the leading member
# axis, so one call serves a whole stack of members. They do not re-check
# shapes; the estimator entry points do that once per call.

def _coef(lam: Vec, j: int) -> Vec:
    """e^{u_j} per member, with a trailing axis so it broadcasts against theta."""
    return np.exp(lam[..., j:j + 1])


def _build_regression_penalized(kind: str, d: int, delta: float) -> BilevelProblem:
    """ridge / lasso_smooth / elastic_net: mean squared error + penalties.

    elastic_net raw coordinates: u[0] weights the smoothed L1 term, u[1] the
    squared L2 term.
    """
    p = 2 if kind == "elastic_net" else 1

    def reg_value(lam: Vec, theta: Vec) -> float:
        if kind == "ridge":
            return _coef(lam, 0)[..., 0] * row_dot(theta, theta)
        val, _, _ = _phuber(theta, delta)
        if kind == "lasso_smooth":
            return _coef(lam, 0)[..., 0] * val
        return _coef(lam, 0)[..., 0] * val + _coef(lam, 1)[..., 0] * row_dot(theta, theta)

    def reg_grad(lam: Vec, theta: Vec) -> Vec:
        if kind == "ridge":
            return (2.0 * _coef(lam, 0)) * theta
        _, g, _ = _phuber(theta, delta)
        if kind == "lasso_smooth":
            return _coef(lam, 0) * g
        return _coef(lam, 0) * g + (2.0 * _coef(lam, 1)) * theta

    def reg_hvp(lam: Vec, theta: Vec, v: Vec) -> Vec:
        if kind == "ridge":
            return (2.0 * _coef(lam, 0)) * v
        _, _, h = _phuber(theta, delta)
        if kind == "lasso_smooth":
            return _coef(lam, 0) * (h * v)
        return _coef(lam, 0) * (h * v) + (2.0 * _coef(lam, 1)) * v

    def reg_mixed(lam: Vec, theta: Vec, v: Vec) -> Vec:
        # d/d_u of reg_grad, contracted with v; exp reparameterization makes
        # each coordinate e^{u_j} * (its penalty gradient) . v
        if kind == "ridge":
            return 2.0 * _coef(lam, 0) * row_dot(theta, v)[..., None]
        _, g, _ = _phuber(theta, delta)
        if kind == "lasso_smooth":
            return _coef(lam, 0) * row_dot(g, v)[..., None]
        return np.concatenate(
            [
                _coef(lam, 0) * row_dot(g, v)[..., None],
                2.0 * _coef(lam, 1) * row_dot(theta, v)[..., None],
            ],
            axis=-1,
        )

    def inner_loss(lam, theta, view):
        return _quad_loss(theta, view) + reg_value(lam, theta)

    def inner_grad(lam, theta, view):
        return _quad_grad(theta, view) + reg_grad(lam, theta)

    def inner_hvp(lam, theta, view, v):
        return _quad_hvp(view, v) + reg_hvp(lam, theta, v)

    def inner_mixed(lam, theta, view, v):
        return reg_mixed(lam, theta, v)

    def outer_loss(lam, theta, view):
        return _quad_loss(theta, view)

    def outer_grad_theta(lam, theta, view):
        return _quad_grad(theta, view)

    def outer_grad_lambda(lam, theta, view):
        return np.zeros(theta.shape[:-1] + (p,))

    return BilevelProblem(
        hyper_dim=p,
        param_dim=d,
        inner_loss=inner_loss,
        inner_grad_theta=inner_grad,
        inner_hvp=inner_hvp,
        inner_mixed_vp=inner_mixed,
        outer_loss=outer_loss,
        outer_grad_theta=outer_grad_theta,
        outer_grad_lambda=outer_grad_lambda,
        hyper_domain=_free_domain(p),
        effective=np.exp,
        kind=kind,
        batched=True,
    )


def _build_ridge_per_param(d: int) -> BilevelProblem:
    """Mean squared error + sum_j (lambda_j theta_j)^2 with lambda_j = e^{u_j} (p = r)."""
    p = d

    def inner_loss(lam, theta, view):
        w = np.exp(2.0 * lam)
        return _quad_loss(theta, view) + row_dot(w, theta * theta)

    def inner_grad(lam, theta, view):
        return _quad_grad(theta, view) + 2.0 * np.exp(2.0 * lam) * theta

    def inner_hvp(lam, theta, view, v):
        return _quad_hvp(view, v) + 2.0 * np.exp(2.0 * lam) * v

    def inner_mixed(lam, theta, view, v):
        return 4.0 * np.exp(2.0 * lam) * theta * v

    def outer_loss(lam, theta, view):
        return _quad_loss(theta, view)

    def outer_grad_theta(lam, theta, view):
        return _quad_grad(theta, view)

    return BilevelProblem(
        hyper_dim=p,
        param_dim=d,
        inner_loss=inner_loss,
        inner_grad_theta=inner_grad,
        inner_hvp=inner_hvp,
        inner_mixed_vp=inner_mixed,
        outer_loss=outer_loss,
        outer_grad_theta=outer_grad_theta,
        outer_grad_lambda=lambda lam, theta, view: np.zeros(theta.shape[:-1] + (p,)),
        hyper_domain=_free_domain(p),
        effective=np.exp,
        kind="ridge_per_param",
        batched=True,
    )


def _build_binary_l2(kind: str, d: int) -> BilevelProblem:
    """logistic_l2 / svm_sqhinge: mean binary data loss + e^u ||theta||^2.

    Labels must be in {-1, +1}. The squared hinge has a piecewise-linear
    gradient, so its Hessian is discontinuous at the margin; AID is not
    offered for it.
    """
    p = 1
    logistic = kind == "logistic_l2"

    def data_loss(theta, view):
        _, yz = _logistic_parts(theta, view)
        if logistic:
            return float(np.mean(np.logaddexp(0.0, -yz)))
        h = np.maximum(0.0, 1.0 - yz)
        return float(np.mean(h * h))

    def data_grad(theta, view):
        _, yz = _logistic_parts(theta, view)
        if logistic:
            s = expit(-yz)
            return -(view.X.T @ (view.y * s)) / view.m
        h = np.maximum(0.0, 1.0 - yz)
        return -(2.0 / view.m) * (view.X.T @ (view.y * h))

    def data_hvp(theta, view, v):
        _, yz = _logistic_parts(theta, view)
        Xv = view.X @ v
        if logistic:
            w = expit(yz) * expit(-yz)
            return (view.X.T @ (w * Xv)) / view.m
        active = (1.0 - yz) > 0.0
        return (2.0 / view.m) * (view.X.T @ (active * Xv))

    def inner_loss(lam, theta, view):
        lam, theta = _check_dims(lam, theta, p, d)
        return data_loss(theta, view) + math.exp(lam[0]) * float(theta @ theta)

    def inner_grad(lam, theta, view):
        lam, theta = _check_dims(lam, theta, p, d)
        return data_grad(theta, view) + (2.0 * math.exp(lam[0])) * theta

    def inner_hvp(lam, theta, view, v):
        lam, theta = _check_dims(lam, theta, p, d)
        return data_hvp(theta, view, v) + (2.0 * math.exp(lam[0])) * v

    def inner_mixed(lam, theta, view, v):
        lam, theta = _check_dims(lam, theta, p, d)
        return np.array([2.0 * math.exp(lam[0]) * float(theta @ v)])

    def outer_loss(lam, theta, view):
        _, theta = _check_dims(lam, theta, p, d)
        return data_loss(theta, view)

    def outer_grad_theta(lam, theta, view):
        _, theta = _check_dims(lam, theta, p, d)
        return data_grad(theta, view)

    return BilevelProblem(
        hyper_dim=p,
        param_dim=d,
        inner_loss=inner_loss,
        inner_grad_theta=inner_grad,
        inner_hvp=inner_hvp,
        inner_mixed_vp=inner_mixed,
        outer_loss=outer_loss,
        outer_grad_theta=outer_grad_theta,
        outer_grad_lambda=lambda lam, theta, view: np.zeros(p),
        hyper_domain=_free_domain(p),
        effective=np.exp,
        kind=kind,
        supports_aid=logistic,
    )


def _build_softmax_l2(d: int, k: int) -> BilevelProblem:
    """Mean multiclass cross-entropy + e^u ||W||_F^2; theta = W (d x k) flattened row-major."""
    p, r = 1, d * k

    def ce_loss(theta, view):
        return float(np.mean(_ce_per_sample(view, theta.reshape(d, k))))

    def ce_grad(theta, view):
        W = theta.reshape(d, k)
        P = _softmax_probs(view.X @ W)
        return ((view.X.T @ (P - view.one_hot)) / view.m).reshape(r)

    def ce_hvp(theta, view, v):
        W = theta.reshape(d, k)
        P = _softmax_probs(view.X @ W)
        dZ = view.X @ v.reshape(d, k)
        term = P * dZ - P * (P * dZ).sum(axis=1, keepdims=True)
        return ((view.X.T @ term) / view.m).reshape(r)

    def inner_loss(lam, theta, view):
        lam, theta = _check_dims(lam, theta, p, r)
        return ce_loss(theta, view) + math.exp(lam[0]) * float(theta @ theta)

    def inner_grad(lam, theta, view):
        lam, theta = _check_dims(lam, theta, p, r)
        return ce_grad(theta, view) + (2.0 * math.exp(lam[0])) * theta

    def inner_hvp(lam, theta, view, v):
        lam, theta = _check_dims(lam, theta, p, r)
        return ce_hvp(theta, view, v) + (2.0 * math.exp(lam[0])) * v

    def inner_mixed(lam, theta, view, v):
        lam, theta = _check_dims(lam, theta, p, r)
        return np.array([2.0 * math.exp(lam[0]) * float(theta @ v)])

    def outer_loss(lam, theta, view):
        _, theta = _check_dims(lam, theta, p, r)
        return ce_loss(theta, view)

    def outer_grad_theta(lam, theta, view):
        _, theta = _check_dims(lam, theta, p, r)
        return ce_grad(theta, view)

    return BilevelProblem(
        hyper_dim=p,
        param_dim=r,
        inner_loss=inner_loss,
        inner_grad_theta=inner_grad,
        inner_hvp=inner_hvp,
        inner_mixed_vp=inner_mixed,
        outer_loss=outer_loss,
        outer_grad_theta=outer_grad_theta,
        outer_grad_lambda=lambda lam, theta, view: np.zeros(p),
        hyper_domain=_free_domain(p),
        effective=np.exp,
        kind="softmax_l2",
    )


def _build_hyperclean_softmax(d: int, k: int, n_weights: int) -> BilevelProblem:
    """Per-sample sigmoid-weighted training CE; unweighted validation CE.

    Inner: (1/m) sum_i sigmoid(u_i) CE_i, no regularizer. The i-th raw weight
    is positionally aligned with the i-th row of the (ascending-index) train
    view, so inner callbacks require views with exactly n_weights rows.
    """
    p, r = n_weights, d * k

    def _require_aligned(view: DataView):
        if view.m != n_weights:
            raise ContractViolationError(
                f"hyperclean train view must have exactly {n_weights} rows, got {view.m}"
            )

    def inner_loss(lam, theta, view):
        lam, theta = _check_dims(lam, theta, p, r)
        _require_aligned(view)
        return float(expit(lam) @ _ce_per_sample(view, theta.reshape(d, k))) / view.m

    def inner_grad(lam, theta, view):
        lam, theta = _check_dims(lam, theta, p, r)
        _require_aligned(view)
        W = theta.reshape(d, k)
        P = _softmax_probs(view.X @ W)
        G = (P - view.one_hot) * expit(lam)[:, None]
        return ((view.X.T @ G) / view.m).reshape(r)

    def inner_hvp(lam, theta, view, v):
        lam, theta = _check_dims(lam, theta, p, r)
        _require_aligned(view)
        W = theta.reshape(d, k)
        P = _softmax_probs(view.X @ W)
        dZ = view.X @ v.reshape(d, k)
        term = (P * dZ - P * (P * dZ).sum(axis=1, keepdims=True)) * expit(lam)[:, None]
        return ((view.X.T @ term) / view.m).reshape(r)

    def inner_mixed(lam, theta, view, v):
        lam, theta = _check_dims(lam, theta, p, r)
        _require_aligned(view)
        W = theta.reshape(d, k)
        P = _softmax_probs(view.X @ W)
        dZ = view.X @ v.reshape(d, k)
        sig_prime = expit(lam) * expit(-lam)
        return sig_prime * ((P - view.one_hot) * dZ).sum(axis=1) / view.m

    def outer_loss(lam, theta, view):
        _, theta = _check_dims(lam, theta, p, r)
        return float(np.mean(_ce_per_sample(view, theta.reshape(d, k))))

    def outer_grad_theta(lam, theta, view):
        _, theta = _check_dims(lam, theta, p, r)
        W = theta.reshape(d, k)
        P = _softmax_probs(view.X @ W)
        return ((view.X.T @ (P - view.one_hot)) / view.m).reshape(r)

    return BilevelProblem(
        hyper_dim=p,
        param_dim=r,
        inner_loss=inner_loss,
        inner_grad_theta=inner_grad,
        inner_hvp=inner_hvp,
        inner_mixed_vp=inner_mixed,
        outer_loss=outer_loss,
        outer_grad_theta=outer_grad_theta,
        outer_grad_lambda=lambda lam, theta, view: np.zeros(p),
        hyper_domain=_free_domain(p),
        effective=expit,
        kind="hyperclean_softmax",
    )


def build_problem(spec: ModelSpec, feature_dim: int) -> BilevelProblem:
    """Instantiate a zoo model for a given feature dimension."""
    if feature_dim < 1:
        raise ConfigError("feature_dim must be >= 1", field_path="problem")
    if spec.kind in ("ridge", "lasso_smooth", "elastic_net"):
        return _build_regression_penalized(spec.kind, feature_dim, spec.smoothing_delta)
    if spec.kind == "ridge_per_param":
        return _build_ridge_per_param(feature_dim)
    if spec.kind in ("logistic_l2", "svm_sqhinge"):
        return _build_binary_l2(spec.kind, feature_dim)
    if spec.kind == "softmax_l2":
        return _build_softmax_l2(feature_dim, spec.num_classes)
    if spec.kind == "hyperclean_softmax":
        return _build_hyperclean_softmax(feature_dim, spec.num_classes, spec.n_weights)
    raise ConfigError(f"unknown model kind {spec.kind!r}", field_path="problem.kind")


# ---------------------------------------------------------------------------
# finite-difference verification

@dataclass(frozen=True)
class DerivativeCheck:
    name: str
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


@dataclass(frozen=True)
class DerivativeReport:
    checks: tuple[DerivativeCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[str]:
        return [f"{c.name}: {c.max_rel_err:.3e} >= {c.tol:.1e}" for c in self.checks if not c.passed]


def _fd_step(x: np.ndarray) -> float:
    return 1e-5 * (1.0 + float(np.linalg.norm(x)))


def _fd_grad(f: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    h = _fd_step(x)
    g = np.zeros_like(x)
    for j in range(x.shape[0]):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        g[j] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def _rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
    return float(np.linalg.norm(approx - exact) / max(1.0, np.linalg.norm(exact)))


def verify_derivatives(
    problem: BilevelProblem,
    train: DataView,
    val: DataView,
    trials: int = 10,
    seed: int = 0,
    tol: float = 1e-4,
) -> DerivativeReport:
    """Compare every analytic derivative against central finite differences.

    For `trials` random (lam, theta, v) probes, reports the max relative
    error per derivative; the report passes iff all stay below tol.
    """
    if trials < 1:
        raise ContractViolationError("trials must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    p, r = problem.hyper_dim, problem.param_dim
    worst = {
        "inner_grad_theta": 0.0,
        "outer_grad_theta": 0.0,
        "outer_grad_lambda": 0.0,
        "inner_hvp": 0.0,
        "inner_mixed_vp": 0.0,
    }
    for _ in range(trials):
        lam = 0.5 * rng.standard_normal(p)
        theta = rng.standard_normal(r)
        v = rng.standard_normal(r)

        g = problem.inner_grad_theta(lam, theta, train)
        fd = _fd_grad(lambda t: problem.inner_loss(lam, t, train), theta)
        worst["inner_grad_theta"] = max(worst["inner_grad_theta"], _rel_err(fd, g))

        og = problem.outer_grad_theta(lam, theta, val)
        fd = _fd_grad(lambda t: problem.outer_loss(lam, t, val), theta)
        worst["outer_grad_theta"] = max(worst["outer_grad_theta"], _rel_err(fd, og))

        ol = problem.outer_grad_lambda(lam, theta, val)
        fd = _fd_grad(lambda u: problem.outer_loss(u, theta, val), lam)
        worst["outer_grad_lambda"] = max(worst["outer_grad_lambda"], _rel_err(fd, ol))

        hv = problem.inner_hvp(lam, theta, train, v)
        h = _fd_step(theta) / max(1.0, float(np.linalg.norm(v)))
        fd_hv = (
            problem.inner_grad_theta(lam, theta + h * v, train)
            - problem.inner_grad_theta(lam, theta - h * v, train)
        ) / (2.0 * h)
        worst["inner_hvp"] = max(worst["inner_hvp"], _rel_err(fd_hv, hv))

        mv = problem.inner_mixed_vp(lam, theta, train, v)
        fd_mv = _fd_grad(
            lambda u: float(problem.inner_grad_theta(u, theta, train) @ v), lam
        )
        worst["inner_mixed_vp"] = max(worst["inner_mixed_vp"], _rel_err(fd_mv, mv))

    checks = tuple(DerivativeCheck(name, err, tol) for name, err in worst.items())
    return DerivativeReport(checks=checks)
