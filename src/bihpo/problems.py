"""Bilevel problem contract and the regularized model zoo.

A BilevelProblem packages the first- and second-order directional derivatives
of the inner (training) and outer (validation) objectives. Every zoo model
is a data loss plus a penalty on theta; one composition derives all of its
callbacks from that pair. All losses are means (1/m normalization), so
gradients are comparable across split sizes. Outer objectives are the pure
(unweighted) data loss on the validation view.

The inner theta derivatives are bound in two stages: bind_inner(lam, view)
computes what depends on lam once per solve (exp(u), the hyperclean
weights) and reads what depends on the view alone from the view's cache
(the Gram pair, the label-folded rows y x^T stored feature-major), and its
hessian(theta) computes the curvature factors at one theta (the per-row
margin curvature, the softmax probabilities, the pseudo-Huber diagonal)
once, returning v -> H(theta) v. The batched products are single numpy
gufunc calls (np.matvec, np.vecmat, np.vecdot), so a stacked member gets
the bits of its own unstacked call. At d = 1, _matvec is one elementwise
multiply with the bits of np.matvec.

A term whose gradient is affine in theta gives its pair (H, g), with
grad(theta) = H theta - g: the squared loss (2A, 2b) from the Gram pair, the
L2 penalties their diagonal. The sum of two such terms is again one, built
once per bind as H = H_a + H_b, so a quadratic inner objective (ridge,
ridge_per_param) steps on H = 2A + c2 I, and its hessian(theta) is the same
prebuilt map v -> H v for every theta. Any other sum adds its terms' own
derivatives.

Hyperparameters are optimized in raw unconstrained coordinates: positive
regularization coefficients are exponentiated (lambda_eff = exp(u)) and
hypercleaning sample weights pass through a sigmoid, so every hypergradient
reported by the library is with respect to the raw coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .data import DataView, StackedView
from .errors import ConfigError, ContractViolationError
from .linalg import Vec, row_dot

# the data task of each zoo model, in the order config messages list the kinds
TASK_OF_KIND = {
    "ridge": "regression",
    "lasso_smooth": "regression",
    "elastic_net": "regression",
    "logistic_l2": "binary",
    "svm_sqhinge": "binary",
    "softmax_l2": "multiclass",
    "ridge_per_param": "regression",
    "hyperclean_softmax": "multiclass",
}
MODEL_KINDS = tuple(TASK_OF_KIND)
# the kinds whose inner Hessian is discontinuous, which rules out AID
NONSMOOTH_KINDS = ("svm_sqhinge",)
# the kinds with a pseudo-Huber (smoothed L1) penalty, which reads smoothing_delta
SMOOTHED_L1_KINDS = ("lasso_smooth", "elastic_net")


@np.errstate(over="ignore")
def sigmoid(x):
    """The logistic function 1 / (1 + e^{-x}), elementwise.

    Below x = -709.78, e^{-x} overflows to inf and the result is 0. That
    overflow is expected, so it raises no RuntimeWarning.
    """
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
        if self.kind in SMOOTHED_L1_KINDS and not self.smoothing_delta > 0:
            raise ConfigError(
                "smoothing_delta must be > 0 for smoothed-L1 models",
                field_path="problem.smoothing_delta",
            )
        if TASK_OF_KIND[self.kind] == "multiclass" and self.num_classes < 2:
            raise ConfigError(
                f"{self.kind} requires num_classes >= 2", field_path="problem.num_classes"
            )
        if self.kind == "hyperclean_softmax" and self.n_weights < 1:
            raise ConfigError(
                "hyperclean_softmax requires n_weights >= 1 (training-pool size)",
                field_path="problem.n_weights",
            )


class InnerBinding(NamedTuple):
    """The inner objective's theta derivatives at one (lam, view), over theta only.

    grad(theta), hessian(theta)(v) and mixed(theta, v) are the
    inner_grad_theta, inner_hvp and inner_mixed_vp of BilevelProblem with lam
    and the view fixed; what depends on those alone is computed once, when
    bound. hessian(theta) likewise computes the factors of H(theta) that do
    not depend on v once, and returns the map v -> H(theta) v.
    dgrad_dlam(theta) is J = d/d_lam grad(theta) for the one raw lam
    coordinate, in theta's shape, which forward mode steps with; it is None
    where the problem's has_dgrad_dlam is False.

    Every bound function returns a new array, which shares no memory with
    its arguments, the view, an earlier result or what the binding keeps,
    so its caller may overwrite it: the stepping loops of hypergrad scale
    and subtract in place on it. A binding may keep what it computed at the
    last theta it saw, keyed by a copy of theta's bits, never by the array's
    identity: the softmax binding keeps its probabilities there, which its
    grad, hessian and mixed read at a theta with those bits and never write
    into. A function may leave numpy's overflow warnings to its caller (the
    logistic gradient does): the loops run under np.errstate, and the
    per-call callbacks of BilevelProblem enter it themselves.
    """

    grad: Callable[[Vec], Vec]
    hessian: Callable[[Vec], Callable[[Vec], Vec]]
    mixed: Callable[[Vec, Vec], Vec]
    dgrad_dlam: Callable[[Vec], Vec] | None


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

    bind_inner(lam, view) returns the InnerBinding of the inner theta
    derivatives at that lam and view; an estimate binds once, in its inner
    solve, and its reverse pass or AID solve reuses that binding; an AID
    solve binds its Hessian at theta_K once for all its iterations. inner_grad_theta,
    inner_hvp and inner_mixed_vp are the same functions, bound per call.
    has_dgrad_dlam says, once per problem, whether the binding's dgrad_dlam
    is provided, and so whether ITD and TRHG run in forward mode.
    """

    hyper_dim: int
    param_dim: int
    bind_inner: Callable[[Vec, DataView], InnerBinding]
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
    has_dgrad_dlam: bool = False


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
    B = check_views(*views)
    if B is None:
        if lam.shape != (p,):
            raise ContractViolationError(f"{lam_name} must have shape ({p},), got {lam.shape}")
        if theta.shape != (r,):
            raise ContractViolationError(
                f"{theta_name} must have shape ({r},), got {theta.shape}"
            )
        return lam, theta
    if lam.shape not in ((p,), (B, p)):
        raise ContractViolationError(
            f"{lam_name} must have shape ({p},) or ({B}, {p}), got {lam.shape}"
        )
    if theta.shape not in ((r,), (B, r)):
        raise ContractViolationError(
            f"{theta_name} must have shape ({r},) or ({B}, {r}), got {theta.shape}"
        )
    return _per_member(lam, B), _per_member(theta, B)


def check_views(*views) -> int | None:
    """B for StackedViews of B members each, None for DataViews; refuses anything else."""
    n_stacked = sum(isinstance(v, StackedView) for v in views)
    if n_stacked == 0:
        return None
    if n_stacked != len(views) or len({len(v) for v in views}) != 1:
        raise ContractViolationError(
            "train and val must both be stacked views with the same member count"
        )
    return len(views[0])


def _per_member(x: np.ndarray, B: int) -> np.ndarray:
    """x as (B, dim): rows already per member stay as they are, a shared (dim,) is repeated."""
    return x if x.ndim == 2 else x[None].repeat(B, axis=0)


# ---------------------------------------------------------------------------
# terms of the inner objective: data losses and penalties
#
# A term's value takes (lam, theta, view) and its theta derivatives come from
# one bind(lam, view). A data loss given lam=None is its unweighted form,
# which is the outer objective.
# Every term broadcasts over a leading member axis: lam (..., p), theta and
# v (..., r) with a StackedView, whose rows are (B, m, d). Each member then
# goes through the same numpy kernel call as a DataView would, so its bits do
# not depend on the stacking. A hoisted factor keeps numpy's left-to-right
# order: (2.0 * e) * theta is bound as c2 = 2.0 * e, then c2 * theta.

@dataclass(frozen=True)
class _Term:
    """One summand of the inner objective: its value and its bound theta derivatives.

    bind(lam, view) computes what depends on lam and the view alone, once,
    and returns the InnerBinding of the term over theta; hessian(theta)
    returns the map v -> H(theta) v, and mixed also takes the direction v.
    mixed is d/d_lam of grad contracted with v, or None for a term that does
    not read lam; hyper_dim is how many raw lam coordinates it reads and
    effective maps them to their effective scale. dgrad_dlam(theta) is
    d/d_lam of grad itself, in theta's shape, for a term that reads one
    coordinate and has_dgrad_dlam, and None otherwise.

    A term whose gradient is affine in theta also has affine(lam, view),
    which returns its (_Affine, mixed, dgrad_dlam); its bind steps on that
    pair (see _affine_term).
    """

    value: Callable
    bind: Callable
    hyper_dim: int = 0
    effective: Callable[[Vec], Vec] = np.exp
    has_dgrad_dlam: bool = False
    affine: Callable | None = None


class _Affine(NamedTuple):
    """grad(theta) = H theta - g, for a gradient affine in theta.

    H is a matrix (..., r, r) or, if diagonal, its diagonal: (..., r), or
    (..., 1) for a multiple of the identity. g is (..., r), or None for 0.
    """

    H: np.ndarray
    g: np.ndarray | None = None
    diagonal: bool = False


def _matvec(A: np.ndarray, x: Vec) -> Vec:
    """A x over the last axes, batched over any leading member axis (A @ x for 1-D x).

    One np.matvec call, which gives the bits of (A @ x[..., None])[..., 0].
    At d = 1 the product is one multiply, A[..., 0] * x, in place of
    np.matvec's one BLAS call per member (a fifth of the time at 6,000
    members). np.matvec accumulates from +0, so where the product is -0.0 it
    returns +0.0; adding 0.0, in place on the product, turns -0.0 into +0.0
    and leaves every other value alone, +-inf and NaN included, so both
    paths give the same bits.
    An x whose last axis is not 1 still goes to np.matvec, which refuses it.
    """
    if A.shape[-1] == 1 == x.shape[-1]:
        out = A[..., 0] * x
        out += 0.0
        return out
    return np.matvec(A, x)


def _quad_value(lam, theta, view):
    A, b = view.gram
    c = row_dot(view.y, view.y) / view.m
    return row_dot(theta, _matvec(A, theta)) - 2.0 * row_dot(b, theta) + c


def _affine_binding(pair: _Affine, mixed, dgrad_dlam) -> InnerBinding:
    """The binding of a gradient affine in theta: grad = H theta - g, and
    hessian(theta) is the one map v -> H v, whatever theta."""
    H, g, diagonal = pair
    if diagonal:
        def product(x):
            return H * x
    else:
        def product(x):
            return _matvec(H, x)

    def grad(theta):
        out = product(theta)
        out -= g
        return out

    return InnerBinding(product if g is None else grad, lambda theta: product, mixed,
                        dgrad_dlam)


def _affine_term(affine: Callable, **kwargs) -> _Term:
    """The term whose affine(lam, view) returns (_Affine, mixed, dgrad_dlam)."""
    return _Term(bind=lambda lam, view: _affine_binding(*affine(lam, view)), affine=affine,
                 **kwargs)


def _add_affine(a: _Affine, b: _Affine) -> _Affine:
    """a + b: two matrices or two diagonals add, and a diagonal adds onto a
    matrix's diagonal, so each entry of H is one sum."""
    if a.diagonal == b.diagonal:
        H = a.H + b.H
    else:
        matrix, diag = (b, a) if a.diagonal else (a, b)
        H, i = matrix.H.copy(), np.arange(matrix.H.shape[-1])
        H[..., i, i] += diag.H
    g = b.g if a.g is None else a.g if b.g is None else a.g + b.g
    return _Affine(H, g, a.diagonal and b.diagonal)


def _quad_affine(lam, view):
    A, b = view.gram
    # 2 (A theta - b) with the factor 2 in H and g: scaling by 2 is exact, so
    # both forms give the same bits
    return _Affine(2.0 * A, 2.0 * b), None, None


# mean squared error, from the view's Gram pair (X^T X / m, X^T y / m)
_SQUARED = _affine_term(_quad_affine, value=_quad_value)


def _margin_loss(phi, dphi, d2phi) -> _Term:
    """Mean of phi(y x^T theta) over the rows of a binary view (labels +-1).

    The view folds the labels into the rows once, feature-major: its yXt is
    the C-contiguous (..., d, m) array of y_i x_ij (a label flips signs
    only, which is exact), which every bind reads. Both products read it
    along memory: the margins are
    np.vecmat(theta, yXt) and the map of per-row weights back to theta is
    np.matvec(yXt, s). Each member goes through the same gufunc kernel as
    its DataView would, so its bits do not depend on the stacking; they
    need not be those of y * (X theta), whose sums run in another order.
    """

    def value(lam, theta, view):
        return np.mean(phi(view.y * _matvec(view.X, theta)), axis=-1)

    def bind(lam, view):
        yXt, m = view.yXt, view.m

        def grad(theta):
            return np.matvec(yXt, dphi(np.vecmat(theta, yXt))) / m

        def hessian(theta):
            curvature = d2phi(np.vecmat(theta, yXt))

            def hvp(v):
                s = np.vecmat(v, yXt)
                s *= curvature
                out = np.matvec(yXt, s)
                out /= m
                return out

            return hvp

        return InnerBinding(grad, hessian, None, None)

    return _Term(value=value, bind=bind)


@np.errstate(over="ignore")
def _logistic_dphi(t):
    """d/dt log(1 + e^{-t}) = -sigmoid(-t), as -1 / (1 + e^t) in one pass.

    It has the bits of -sigmoid(-t) everywhere, +-0 and +-inf included.
    Above t = 709.78, e^t overflows to inf and the result is -0, which is
    expected and raises no RuntimeWarning.
    """
    return -1.0 / (1.0 + np.exp(t))


# the binding steps with the bare function: every caller of a binding runs
# under np.errstate (see InnerBinding), so the guard of each call is not needed
_LOGISTIC = _margin_loss(
    lambda t: np.logaddexp(0.0, -t),
    _logistic_dphi.__wrapped__,
    lambda t: sigmoid(t) * sigmoid(-t),
)
# the squared hinge has a piecewise-linear gradient: its Hessian jumps at the
# margin, so svm_sqhinge is in NONSMOOTH_KINDS
_SQ_HINGE = _margin_loss(
    lambda t: np.maximum(0.0, 1.0 - t) ** 2,
    lambda t: -2.0 * np.maximum(0.0, 1.0 - t),
    lambda t: 2.0 * ((1.0 - t) > 0.0),
)


def _log_softmax(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class-major logits Z (..., k, m): the shifted logits Z - max and their
    sum of exponentials S (..., 1, m), each over the class axis -2; the
    log-probabilities are Z - max - log S."""
    Zs = Z - Z.max(axis=-2, keepdims=True)
    return Zs, np.exp(Zs).sum(axis=-2, keepdims=True)


def _softmax(Z: np.ndarray) -> np.ndarray:
    """The probabilities E / S of class-major logits Z (..., k, m), with E and S
    those of _log_softmax, computed in place on Z, which the caller hands over."""
    Z -= Z.max(axis=-2, keepdims=True)
    np.exp(Z, out=Z)
    Z /= Z.sum(axis=-2, keepdims=True)
    return Z


def _softmax_ce(d: int, k: int, n_weights: int = 0) -> _Term:
    """Mean multiclass cross-entropy; theta = W (d x k) flattened row-major.

    The logits are class-major, W^T X^T (..., k, m), read from the view's
    feature-major rows Xt against its class-major one-hot labels (..., k, m):
    every reduction over the k classes then adds or compares k contiguous
    rows of m values, in class order, with elementwise passes. The gradient
    maps back through the rows X as (G X)^T / m.

    With n_weights, the inner loss weighs row i by sigmoid(u_i): the i-th raw
    weight belongs to the i-th row of the (ascending-index) train view, so
    weighted calls require views with exactly n_weights rows.

    A binding keeps the probabilities P at the last theta it evaluated, in
    one slot keyed by theta's shape and bytes (a copy, so a theta stepped in
    place is seen as the new point it is). grad, hessian and mixed read P
    from the slot at a theta with those bits and compute and store it
    otherwise: one softmax serves the grad and mixed of an OEHG step, the
    mixed and hessian of each reverse step, and the hessian and grad of each
    forward step. None of them writes into P, so every output is still a new
    array.
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

    def logits(Xt, x):
        """W^T X^T with W the (..., d, k) reshape of x: (..., k, m)."""
        return x.reshape(x.shape[:-1] + (d, k)).swapaxes(-1, -2) @ Xt

    def value(lam, theta, view):
        Zs, S = _log_softmax(logits(view.Xt, theta))
        # the one-hot column picks the label's shifted logit exactly: the others add zeros
        ce = np.log(S[..., 0, :]) - (Zs * view.one_hot).sum(axis=-2)
        w = weights(lam, view)
        return np.mean(ce, axis=-1) if w is None else row_dot(w, ce) / view.m

    def bind(lam, view):
        X, Xt, one_hot, m = view.X, view.Xt, view.one_hot, view.m
        w = weights(lam, view)
        w_row = None if w is None else w[..., None, :]

        last = [None, None]  # the key of the last theta evaluated, and its P

        def back(G):
            """(G X)^T / m for G (..., k, m), flattened to theta's layout (..., r)."""
            out = G @ X
            out /= m
            return out.swapaxes(-1, -2).reshape(out.shape[:-2] + (r,))

        def probs(theta):
            key = theta.shape, theta.tobytes()
            if key != last[0]:
                last[:] = key, _softmax(logits(Xt, theta))
            return last[1]

        def weighted(G):
            if w_row is not None:
                G *= w_row
            return G

        def grad(theta):
            return back(weighted(probs(theta) - one_hot))

        def hessian(theta):
            P = probs(theta)

            def hvp(v):
                PdZ = P * logits(Xt, v)
                return back(weighted(PdZ - P * PdZ.sum(axis=-2, keepdims=True)))

            return hvp

        def mixed(theta, v):
            sig_prime = w * sigmoid(-lam)
            G = probs(theta) - one_hot
            G *= logits(Xt, v)
            out = G.sum(axis=-2)
            out *= sig_prime
            out /= m
            return out

        return InnerBinding(grad, hessian, None if w is None else mixed, None)

    return _Term(value=value, bind=bind, hyper_dim=n_weights, effective=sigmoid)


def _coef(lam: Vec, j: int) -> Vec:
    """e^{u_j} per member, with a trailing axis so it broadcasts against theta."""
    return np.exp(lam[..., j:j + 1])


def _exp_l2(j: int = 0) -> _Term:
    """e^{u_j} ||theta||^2, whose gradient is c2 theta with c2 = 2 e^{u_j}. It
    is linear in e^{u_j}, so d/d_u_j of the gradient is the gradient itself,
    which affine also returns as dgrad_dlam."""

    def affine(lam, view):
        c2 = 2.0 * _coef(lam, j)
        return (_Affine(c2, diagonal=True),
                lambda theta, v: c2 * row_dot(theta, v)[..., None],
                lambda theta: c2 * theta)

    return _affine_term(
        affine,
        value=lambda lam, theta, view: _coef(lam, j)[..., 0] * row_dot(theta, theta),
        hyper_dim=1,
        has_dgrad_dlam=True,
    )


# The pseudo-Huber sum_j (sqrt(theta_j^2 + delta^2) - delta) and its theta
# derivatives each read the root s = sqrt(theta^2 + delta^2) alone, and each
# caller computes only the one it reads, in place on its own fresh root.

def _phuber_root(theta: Vec, delta: float) -> Vec:
    s = theta * theta
    s += delta * delta
    return np.sqrt(s, out=s)


def _phuber_grad(theta: Vec, delta: float) -> Vec:
    """theta / s, the pseudo-Huber gradient."""
    s = _phuber_root(theta, delta)
    return np.divide(theta, s, out=s)


def _phuber_diag(theta: Vec, delta: float) -> Vec:
    """delta^2 / s^3, the diagonal of the pseudo-Huber Hessian."""
    s = _phuber_root(theta, delta)
    cube = s * s
    cube *= s
    return np.divide(delta * delta, cube, out=cube)


def _exp_phuber(delta: float, j: int = 0) -> _Term:
    """e^{u_j} times the pseudo-Huber smoothing of ||theta||_1; like _exp_l2,
    its gradient is its own dgrad_dlam."""

    def bind(lam, view):
        c = _coef(lam, j)

        def grad(theta):
            g = _phuber_grad(theta, delta)
            g *= c
            return g

        def hessian(theta):
            diag = _phuber_diag(theta, delta)

            def hvp(v):
                out = diag * v
                out *= c
                return out

            return hvp

        return InnerBinding(grad,
                            hessian,
                            lambda theta, v: c * row_dot(_phuber_grad(theta, delta), v)[..., None],
                            grad)

    def value(lam, theta, view):
        s = _phuber_root(theta, delta)
        s -= delta
        return _coef(lam, j)[..., 0] * np.sum(s, axis=-1)

    return _Term(
        value=value,
        bind=bind,
        hyper_dim=1,
        has_dgrad_dlam=True,
    )


def _sum(a: _Term, b: _Term) -> _Term:
    """a + b. A term that does not read lam passes the other's mixed product
    and dgrad_dlam through; two that do read disjoint lam coordinates, a's
    before b's, and have no dgrad_dlam. If both gradients are affine in
    theta, so is the sum's, and its binding steps on one H = H_a + H_b,
    built once per bind; otherwise it adds the two terms' own derivatives."""

    def lam_part(mixed_a, dgrad_a, mixed_b, dgrad_b):
        if mixed_a is None:
            return mixed_b, dgrad_b
        if mixed_b is None:
            return mixed_a, dgrad_a
        return (lambda theta, v: np.concatenate(
            [mixed_a(theta, v), mixed_b(theta, v)], axis=-1)), None

    def affine(lam, view):
        (pair_a, mixed_a, dgrad_a), (pair_b, mixed_b, dgrad_b) = (
            a.affine(lam, view), b.affine(lam, view))
        return _add_affine(pair_a, pair_b), *lam_part(mixed_a, dgrad_a, mixed_b, dgrad_b)

    def bind(lam, view):
        (grad_a, hess_a, mixed_a, dgrad_a), (grad_b, hess_b, mixed_b, dgrad_b) = (
            a.bind(lam, view), b.bind(lam, view))

        # each bound function returns a new array, so the sum adds in place on a's
        def grad(theta):
            out = grad_a(theta)
            out += grad_b(theta)
            return out

        def hessian(theta):
            hvp_a, hvp_b = hess_a(theta), hess_b(theta)

            def hvp(v):
                out = hvp_a(v)
                out += hvp_b(v)
                return out

            return hvp

        return InnerBinding(grad, hessian, *lam_part(mixed_a, dgrad_a, mixed_b, dgrad_b))

    reader = b if b.hyper_dim else a
    term = dict(
        value=lambda lam, theta, view: a.value(lam, theta, view) + b.value(lam, theta, view),
        hyper_dim=a.hyper_dim + b.hyper_dim,
        effective=reader.effective,
        has_dgrad_dlam=reader.has_dgrad_dlam and not (a.hyper_dim and b.hyper_dim),
    )
    if a.affine and b.affine:
        return _affine_term(affine, **term)
    return _Term(bind=bind, **term)


def _exp_l2_per_coord(d: int) -> _Term:
    """sum_j (lambda_j theta_j)^2 with lambda_j = e^{u_j}, one u_j per coordinate."""

    def affine(lam, view):
        e2 = np.exp(2.0 * lam)
        c2, c4 = 2.0 * e2, 4.0 * e2
        return _Affine(c2, diagonal=True), lambda theta, v: c4 * theta * v, None

    return _affine_term(
        affine,
        value=lambda lam, theta, view: row_dot(np.exp(2.0 * lam), theta * theta),
        hyper_dim=d,
    )


# ---------------------------------------------------------------------------
# composition

def _compose(kind: str, param_dim: int, loss: _Term, penalty: _Term | None) -> BilevelProblem:
    """The callbacks of inner = loss + penalty and outer = unweighted loss.

    Exactly one of the two terms reads lam (the penalty, or a weighted loss
    with no penalty); its raw coordinates are the hyperparameters. The outer
    objective does not read lam, so its lam gradient is zero. The three
    inner theta derivatives are bind_inner's, bound for the one call. The
    two gradients run under np.errstate(over="ignore"), which the stepping
    loops enter once and a per-call caller does not (see InnerBinding).
    """
    inner = loss if penalty is None else _sum(loss, penalty)
    p = inner.hyper_dim

    bind_inner = inner.bind

    @np.errstate(over="ignore")
    def inner_grad_theta(lam, theta, view):
        return bind_inner(lam, view).grad(theta)

    @np.errstate(over="ignore")
    def outer_grad_theta(lam, theta, view):
        return loss.bind(None, view).grad(theta)

    def outer_grad_lambda(lam, theta, view):
        return np.zeros(theta.shape[:-1] + (p,))

    return BilevelProblem(
        hyper_dim=p,
        param_dim=param_dim,
        bind_inner=bind_inner,
        inner_loss=inner.value,
        inner_grad_theta=inner_grad_theta,
        inner_hvp=lambda lam, theta, view, v: bind_inner(lam, view).hessian(theta)(v),
        inner_mixed_vp=lambda lam, theta, view, v: bind_inner(lam, view).mixed(theta, v),
        outer_loss=lambda lam, theta, view: loss.value(None, theta, view),
        outer_grad_theta=outer_grad_theta,
        outer_grad_lambda=outer_grad_lambda,
        effective=inner.effective,
        kind=kind,
        supports_aid=kind not in NONSMOOTH_KINDS,
        has_dgrad_dlam=inner.has_dgrad_dlam,
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
        "hyperclean_softmax": lambda: (_softmax_ce(d, k, spec.n_weights), None, d * k),
    }
    loss, penalty, r = zoo[spec.kind]()
    return _compose(spec.kind, r, loss, penalty)


# ---------------------------------------------------------------------------
# finite-difference verification

@dataclass(frozen=True)
class Check:
    """One self-check: the worst error max_err it saw and its bound tol."""

    name: str
    max_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_err < self.tol


def rel_err(diff, scale) -> float:
    """||diff|| / max(1, ||scale||): an error relative to its scale, absolute below 1."""
    return float(np.linalg.norm(diff) / max(1.0, np.linalg.norm(scale)))


def central_diff(f: Callable, x: np.ndarray, dx, h: float):
    """(f(x + h dx) - f(x - h dx)) / 2h: the derivative of f at x along dx."""
    return (f(x + h * dx) - f(x - h * dx)) / (2.0 * h)


def _fd_step(x: np.ndarray) -> float:
    return 1e-5 * (1.0 + float(np.linalg.norm(x)))


def _fd_grad(f: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    h = _fd_step(x)
    return np.array([central_diff(f, x, e, h) for e in np.eye(x.shape[0])])


def verify_derivatives(
    problem: BilevelProblem,
    train: DataView,
    val: DataView,
    trials: int = 10,
    seed: int = 0,
    tol: float = 1e-4,
) -> tuple[Check, ...]:
    """Compare every analytic derivative against central finite differences.

    For `trials` random (lam, theta, v) probes, returns one Check per
    derivative with its max relative error; each passes iff that stays below
    tol. A derivative of the wrong shape raises ContractViolationError. A
    problem that has_dgrad_dlam also gets inner_dgrad_dlam, against central
    differences of the bound inner gradient in lam.
    """
    if trials < 1:
        raise ContractViolationError("trials must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    p, r = problem.hyper_dim, problem.param_dim
    names = ["inner_grad_theta", "outer_grad_theta", "outer_grad_lambda", "inner_hvp",
             "inner_mixed_vp"]
    if problem.has_dgrad_dlam:
        names.append("inner_dgrad_dlam")
    worst = dict.fromkeys(names, 0.0)

    def track(name, fd, exact):
        exact = np.asarray(exact)
        if exact.shape != fd.shape:
            raise ContractViolationError(
                f"{name} returned shape {exact.shape}, expected {fd.shape}"
            )
        worst[name] = max(worst[name], rel_err(fd - exact, exact))

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
        track("inner_hvp",
              central_diff(lambda t: problem.inner_grad_theta(lam, t, train), theta, v,
                           _fd_step(theta) / max(1.0, float(np.linalg.norm(v)))),
              problem.inner_hvp(lam, theta, train, v))
        track("inner_mixed_vp",
              _fd_grad(lambda u: float(problem.inner_grad_theta(u, theta, train) @ v), lam),
              problem.inner_mixed_vp(lam, theta, train, v))
        if problem.has_dgrad_dlam:
            track("inner_dgrad_dlam",
                  central_diff(lambda u: problem.inner_grad_theta(u, theta, train), lam, 1.0,
                               _fd_step(lam)),
                  problem.bind_inner(lam, train).dgrad_dlam(theta))

    return tuple(Check(name, err, tol) for name, err in worst.items())
