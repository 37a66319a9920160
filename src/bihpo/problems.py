"""Bilevel problem contract and the regularized model zoo.

A BilevelProblem packages the first- and second-order directional derivatives
of the inner (training) and outer (validation) objectives. Every zoo model
is a data loss plus a penalty on theta; one composition derives all of its
callbacks from that pair. All losses are means (1/m normalization), so
gradients are comparable across split sizes. Outer objectives are the pure
(unweighted) data loss on the validation view.

Hyperparameters are optimized in raw unconstrained coordinates: positive
regularization coefficients are exponentiated (lambda_eff = exp(u)) and
hypercleaning sample weights pass through a sigmoid, so every hypergradient
reported by the library is with respect to the raw coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

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

# the squared-loss models, the only ones that fit the synthetic regression
# data of the diagnostics and of `bihpo biasvar`
REGRESSION_KINDS = ("ridge", "lasso_smooth", "elastic_net", "ridge_per_param")
_SOFTMAX_KINDS = ("softmax_l2", "hyperclean_softmax")


def sigmoid(x):
    """The logistic function 1 / (1 + e^{-x}), elementwise.

    Below x = -709.78, e^{-x} overflows to inf and the result is 0. That
    overflow is expected, so it raises no RuntimeWarning.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


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
    a vector of length hyper_dim. Every callback also takes a leading member
    axis, lam (B, hyper_dim), theta and v (B, param_dim), with a StackedView
    of B members, and then returns one value per member.
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
    effective: Callable[[Vec], Vec]
    kind: str = ""
    supports_aid: bool = True


def check_args(
    problem: BilevelProblem, lam: Vec, theta: Vec, *views, names=("lam", "theta")
) -> tuple[Vec, Vec]:
    """Validate lam/theta against the problem and views once, at an entry point.

    The callbacks themselves do not re-check shapes. With DataViews (or no
    views) lam must be (p,) and theta (r,). With StackedViews of B members
    each may also be (B, p) / (B, r); both come back as (B, p) / (B, r).
    names label lam and theta in the messages.
    """
    p, r = problem.hyper_dim, problem.param_dim
    lam_name, theta_name = names
    lam = np.asarray(lam, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    n_stacked = sum(isinstance(v, StackedView) for v in views)
    if n_stacked == 0:
        if lam.shape != (p,):
            raise ContractViolationError(f"{lam_name} must have shape ({p},), got {lam.shape}")
        if theta.shape != (r,):
            raise ContractViolationError(
                f"{theta_name} must have shape ({r},), got {theta.shape}"
            )
        return lam, theta
    if n_stacked != len(views) or len({len(v) for v in views}) != 1:
        raise ContractViolationError(
            "train and val must both be stacked views with the same member count"
        )
    B = len(views[0])
    if lam.shape not in ((p,), (B, p)):
        raise ContractViolationError(
            f"{lam_name} must have shape ({p},) or ({B}, {p}), got {lam.shape}"
        )
    if theta.shape not in ((r,), (B, r)):
        raise ContractViolationError(
            f"{theta_name} must have shape ({r},) or ({B}, {r}), got {theta.shape}"
        )
    return _per_member(lam, B), _per_member(theta, B)


def _per_member(x: np.ndarray, B: int) -> np.ndarray:
    """x as (B, dim): rows already per member stay as they are, a shared (dim,) is repeated."""
    return x if x.ndim == 2 else x[None].repeat(B, axis=0)


# ---------------------------------------------------------------------------
# terms of the inner objective: data losses and penalties
#
# Every term callable takes (lam, theta, view); hvp and mixed also take the
# direction v. A data loss given lam=None is its unweighted form, which is
# the outer objective. Every term broadcasts over a leading member axis:
# lam (..., p), theta and v (..., r) with a StackedView, whose rows are
# (B, m, d). Each member then goes through the same numpy kernel call as a
# DataView would, so its bits do not depend on the stacking.

@dataclass(frozen=True)
class _Term:
    """One summand of the inner objective and its theta derivatives.

    mixed is d/d_lam of grad contracted with v, for the term that reads lam;
    hyper_dim is how many raw lam coordinates it reads and effective maps
    them to their effective scale. smooth=False marks a discontinuous
    Hessian, which rules out AID.
    """

    value: Callable
    grad: Callable
    hvp: Callable
    mixed: Callable | None = None
    hyper_dim: int = 0
    effective: Callable[[Vec], Vec] = np.exp
    smooth: bool = True


def _matvec(A: np.ndarray, x: Vec) -> Vec:
    """A x over the last axes, batched over any leading member axis (A @ x for 1-D x)."""
    return (A @ x[..., None])[..., 0]


def _quad_value(lam, theta, view):
    A, b = view.gram
    c = row_dot(view.y, view.y) / view.m
    return row_dot(theta, _matvec(A, theta)) - 2.0 * row_dot(b, theta) + c


def _quad_grad(lam, theta, view):
    A, b = view.gram
    return 2.0 * (_matvec(A, theta) - b)


def _quad_hvp(lam, theta, view, v):
    A, _ = view.gram
    return 2.0 * _matvec(A, v)


# mean squared error, from the view's Gram pair (X^T X / m, X^T y / m)
_SQUARED = _Term(value=_quad_value, grad=_quad_grad, hvp=_quad_hvp)


def _margin_loss(phi, dphi, d2phi, smooth: bool = True) -> _Term:
    """Mean of phi(y x^T theta) over the rows of a binary view (labels +-1)."""

    def margins(theta, view):
        return view.y * _matvec(view.X, theta)

    def back(view, s):
        """X^T s / m: per-row weights s (..., m) mapped back to theta."""
        return _matvec(view.X.swapaxes(-1, -2), s) / view.m

    return _Term(
        value=lambda lam, theta, view: np.mean(phi(margins(theta, view)), axis=-1),
        grad=lambda lam, theta, view: back(view, view.y * dphi(margins(theta, view))),
        hvp=lambda lam, theta, view, v: back(
            view, d2phi(margins(theta, view)) * _matvec(view.X, v)),
        smooth=smooth,
    )


_LOGISTIC = _margin_loss(
    lambda t: np.logaddexp(0.0, -t),
    lambda t: -sigmoid(-t),
    lambda t: sigmoid(t) * sigmoid(-t),
)
# the squared hinge has a piecewise-linear gradient: its Hessian jumps at the margin
_SQ_HINGE = _margin_loss(
    lambda t: np.maximum(0.0, 1.0 - t) ** 2,
    lambda t: -2.0 * np.maximum(0.0, 1.0 - t),
    lambda t: 2.0 * ((1.0 - t) > 0.0),
    smooth=False,
)


def _row_max(Z: np.ndarray) -> np.ndarray:
    """Z.max(axis=-1, keepdims=True), folded over the columns with np.maximum.

    numpy restarts its reduce loop for every row, which dominates on the
    short class axis: at (560, 4) the reduction takes about 39 us and the
    np.exp of the same array 3.6 us. The fold makes k - 1 elementwise passes
    instead and is faster up to about 12-15 classes at 560 rows (k = 10:
    about 30 vs 45 us; k = 20: about 75 vs 50 us). The max does not depend
    on the order, so the bits are numpy's for every k.
    """
    M = Z[..., 0:1]
    for j in range(1, Z.shape[-1]):
        M = np.maximum(M, Z[..., j:j + 1])
    return M


def _row_sum(Z: np.ndarray) -> np.ndarray:
    """Z.sum(axis=-1, keepdims=True), folded over the columns left to right.

    Below 8 items numpy adds in index order, so for k < 8 these are the same
    additions and the same bits, except that numpy starts from +0.0: a row
    of negative zeros sums to +0 there and to -0 here. From k = 8 numpy sums
    pairwise and the two may differ in the last ulp. Speed as for _row_max.
    """
    S = Z[..., 0:1]
    for j in range(1, Z.shape[-1]):
        S = S + Z[..., j:j + 1]
    return S


def _log_softmax(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise shifted logits Z - max, their sum of exponentials S, and the
    probabilities E / S; the log-probabilities are Z - max - log S."""
    Zs = Z - _row_max(Z)
    E = np.exp(Zs)
    S = _row_sum(E)
    return Zs, S, E / S


def _softmax_ce(d: int, k: int, n_weights: int = 0) -> _Term:
    """Mean multiclass cross-entropy; theta = W (d x k) flattened row-major.

    With n_weights, the inner loss weighs row i by sigmoid(u_i): the i-th raw
    weight belongs to the i-th row of the (ascending-index) train view, so
    weighted calls require views with exactly n_weights rows.
    """
    r = d * k

    def weights(lam, view):
        if lam is None or not n_weights:
            return None
        if view.m != n_weights:
            raise ContractViolationError(
                f"hyperclean train view must have exactly {n_weights} rows, got {view.m}"
            )
        return sigmoid(lam)

    def logits(x, view):
        """X W with W the (..., d, k) reshape of x: (..., m, k)."""
        return view.X @ x.reshape(x.shape[:-1] + (d, k))

    def back(view, G):
        """X^T G / m, flattened to theta's layout (..., r)."""
        out = (view.X.swapaxes(-1, -2) @ G) / view.m
        return out.reshape(out.shape[:-2] + (r,))

    def probs(theta, view):
        return _log_softmax(logits(theta, view))[2]

    def value(lam, theta, view):
        Zs, S, _ = _log_softmax(logits(theta, view))
        # the one-hot row picks the label's shifted logit exactly: the others add zeros
        ce = np.log(S[..., 0]) - np.einsum("...k,...k->...", Zs, view.one_hot)
        w = weights(lam, view)
        return np.mean(ce, axis=-1) if w is None else row_dot(w, ce) / view.m

    def grad(lam, theta, view):
        G = probs(theta, view) - view.one_hot
        w = weights(lam, view)
        if w is not None:
            G = G * w[..., None]
        return back(view, G)

    def hvp(lam, theta, view, v):
        P = probs(theta, view)
        PdZ = P * logits(v, view)
        term = PdZ - P * _row_sum(PdZ)
        w = weights(lam, view)
        if w is not None:
            term = term * w[..., None]
        return back(view, term)

    def mixed(lam, theta, view, v):
        sig_prime = weights(lam, view) * sigmoid(-lam)  # the weights check the rows too
        dZ = logits(v, view)
        return sig_prime * _row_sum((probs(theta, view) - view.one_hot) * dZ)[..., 0] / view.m

    return _Term(value=value, grad=grad, hvp=hvp, mixed=mixed,
                 hyper_dim=n_weights, effective=sigmoid)


def _coef(lam: Vec, j: int) -> Vec:
    """e^{u_j} per member, with a trailing axis so it broadcasts against theta."""
    return np.exp(lam[..., j:j + 1])


def _exp_l2(j: int = 0) -> _Term:
    """e^{u_j} ||theta||^2."""
    return _Term(
        value=lambda lam, theta, view: _coef(lam, j)[..., 0] * row_dot(theta, theta),
        grad=lambda lam, theta, view: (2.0 * _coef(lam, j)) * theta,
        hvp=lambda lam, theta, view, v: (2.0 * _coef(lam, j)) * v,
        mixed=lambda lam, theta, view, v: 2.0 * _coef(lam, j) * row_dot(theta, v)[..., None],
        hyper_dim=1,
    )


def _phuber(theta: Vec, delta: float) -> tuple[Vec, Vec, Vec]:
    """Pseudo-Huber sum_j (sqrt(theta_j^2 + delta^2) - delta): value, grad, diag Hessian."""
    s = np.sqrt(theta * theta + delta * delta)
    return np.sum(s - delta, axis=-1), theta / s, (delta * delta) / (s * s * s)


def _exp_phuber(delta: float, j: int = 0) -> _Term:
    """e^{u_j} times the pseudo-Huber smoothing of ||theta||_1."""
    return _Term(
        value=lambda lam, theta, view: _coef(lam, j)[..., 0] * _phuber(theta, delta)[0],
        grad=lambda lam, theta, view: _coef(lam, j) * _phuber(theta, delta)[1],
        hvp=lambda lam, theta, view, v: _coef(lam, j) * (_phuber(theta, delta)[2] * v),
        mixed=lambda lam, theta, view, v: (
            _coef(lam, j) * row_dot(_phuber(theta, delta)[1], v)[..., None]),
        hyper_dim=1,
    )


def _sum(a: _Term, b: _Term) -> _Term:
    """a + b over disjoint lam coordinates, a's before b's (as in their mixed products)."""
    return _Term(
        value=lambda lam, theta, view: a.value(lam, theta, view) + b.value(lam, theta, view),
        grad=lambda lam, theta, view: a.grad(lam, theta, view) + b.grad(lam, theta, view),
        hvp=lambda lam, theta, view, v: a.hvp(lam, theta, view, v) + b.hvp(lam, theta, view, v),
        mixed=lambda lam, theta, view, v: np.concatenate(
            [a.mixed(lam, theta, view, v), b.mixed(lam, theta, view, v)], axis=-1),
        hyper_dim=a.hyper_dim + b.hyper_dim,
    )


def _exp_l2_per_coord(d: int) -> _Term:
    """sum_j (lambda_j theta_j)^2 with lambda_j = e^{u_j}, one u_j per coordinate."""
    return _Term(
        value=lambda lam, theta, view: row_dot(np.exp(2.0 * lam), theta * theta),
        grad=lambda lam, theta, view: 2.0 * np.exp(2.0 * lam) * theta,
        hvp=lambda lam, theta, view, v: 2.0 * np.exp(2.0 * lam) * v,
        mixed=lambda lam, theta, view, v: 4.0 * np.exp(2.0 * lam) * theta * v,
        hyper_dim=d,
    )


_NO_PENALTY = _Term(
    value=lambda lam, theta, view: 0.0,
    grad=lambda lam, theta, view: 0.0,
    hvp=lambda lam, theta, view, v: 0.0,
)


# ---------------------------------------------------------------------------
# composition

def _compose(kind: str, param_dim: int, loss: _Term, penalty: _Term) -> BilevelProblem:
    """The seven callbacks of inner = loss + penalty and outer = unweighted loss.

    Exactly one of the two terms reads lam (the penalty, or a weighted loss);
    its raw coordinates are the hyperparameters. The outer objective does
    not read lam, so its lam gradient is zero.
    """
    reader = loss if loss.hyper_dim else penalty
    p = reader.hyper_dim

    def inner_loss(lam, theta, view):
        return loss.value(lam, theta, view) + penalty.value(lam, theta, view)

    def inner_grad_theta(lam, theta, view):
        return loss.grad(lam, theta, view) + penalty.grad(lam, theta, view)

    def inner_hvp(lam, theta, view, v):
        return loss.hvp(lam, theta, view, v) + penalty.hvp(lam, theta, view, v)

    def outer_grad_lambda(lam, theta, view):
        return np.zeros(theta.shape[:-1] + (p,))

    return BilevelProblem(
        hyper_dim=p,
        param_dim=param_dim,
        inner_loss=inner_loss,
        inner_grad_theta=inner_grad_theta,
        inner_hvp=inner_hvp,
        inner_mixed_vp=reader.mixed,
        outer_loss=lambda lam, theta, view: loss.value(None, theta, view),
        outer_grad_theta=lambda lam, theta, view: loss.grad(None, theta, view),
        outer_grad_lambda=outer_grad_lambda,
        effective=reader.effective,
        kind=kind,
        supports_aid=loss.smooth,
    )


def build_problem(spec: ModelSpec, feature_dim: int) -> BilevelProblem:
    """Instantiate a zoo model for a given feature dimension.

    Each kind is a data loss plus a penalty on theta (see the module
    docstring for the raw coordinates).
    """
    if feature_dim < 1:
        raise ConfigError("feature_dim must be >= 1", field_path="problem")
    d, k, delta = feature_dim, spec.num_classes, spec.smoothing_delta
    zoo = {
        "ridge": lambda: (_SQUARED, _exp_l2(), d),
        "lasso_smooth": lambda: (_SQUARED, _exp_phuber(delta), d),
        # u[0] weights the smoothed L1 term, u[1] the squared L2 term
        "elastic_net": lambda: (_SQUARED, _sum(_exp_phuber(delta, 0), _exp_l2(1)), d),
        "ridge_per_param": lambda: (_SQUARED, _exp_l2_per_coord(d), d),
        "logistic_l2": lambda: (_LOGISTIC, _exp_l2(), d),
        "svm_sqhinge": lambda: (_SQ_HINGE, _exp_l2(), d),
        "softmax_l2": lambda: (_softmax_ce(d, k), _exp_l2(), d * k),
        "hyperclean_softmax": lambda: (_softmax_ce(d, k, spec.n_weights), _NO_PENALTY, d * k),
    }
    if spec.kind not in zoo:
        raise ConfigError(f"unknown model kind {spec.kind!r}", field_path="problem.kind")
    loss, penalty, r = zoo[spec.kind]()
    return _compose(spec.kind, r, loss, penalty)


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


def _rel_err(approx: np.ndarray, exact, name: str) -> float:
    exact = np.asarray(exact)
    if exact.shape != approx.shape:
        raise ContractViolationError(
            f"{name} returned shape {exact.shape}, expected {approx.shape}"
        )
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
    error per derivative; the report passes iff all stay below tol. A
    derivative of the wrong shape raises ContractViolationError.
    """
    if trials < 1:
        raise ContractViolationError("trials must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    p, r = problem.hyper_dim, problem.param_dim
    worst = dict.fromkeys(
        ("inner_grad_theta", "outer_grad_theta", "outer_grad_lambda", "inner_hvp",
         "inner_mixed_vp"), 0.0)

    def track(name, fd, exact):
        worst[name] = max(worst[name], _rel_err(fd, exact, name))

    for _ in range(trials):
        lam = 0.5 * rng.standard_normal(p)
        theta = rng.standard_normal(r)
        v = rng.standard_normal(r)

        track("inner_grad_theta",
              _fd_grad(lambda t: problem.inner_loss(lam, t, train), theta),
              problem.inner_grad_theta(lam, theta, train))
        track("outer_grad_theta",
              _fd_grad(lambda t: problem.outer_loss(lam, t, val), theta),
              problem.outer_grad_theta(lam, theta, val))
        track("outer_grad_lambda",
              _fd_grad(lambda u: problem.outer_loss(u, theta, val), lam),
              problem.outer_grad_lambda(lam, theta, val))
        h = _fd_step(theta) / max(1.0, float(np.linalg.norm(v)))
        fd_hv = (
            problem.inner_grad_theta(lam, theta + h * v, train)
            - problem.inner_grad_theta(lam, theta - h * v, train)
        ) / (2.0 * h)
        track("inner_hvp", fd_hv, problem.inner_hvp(lam, theta, train, v))
        track("inner_mixed_vp",
              _fd_grad(lambda u: float(problem.inner_grad_theta(u, theta, train) @ v), lam),
              problem.inner_mixed_vp(lam, theta, train, v))

    checks = tuple(DerivativeCheck(name, err, tol) for name, err in worst.items())
    return DerivativeReport(checks=checks)
