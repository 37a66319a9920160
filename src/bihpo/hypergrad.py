"""Hypergradient estimation engines.

inner_solve runs K full-batch gradient steps and records the trajectory
with its checked lam, its train view and the InnerBinding it stepped with.
itd_hypergrad differentiates through the unrolled trajectory by reverse
accumulation with Hessian- and mixed-vector products (no matrices are ever
materialized), over all K steps or, for TRHG, the last h; aid_hypergrad
solves the inner-Hessian linear system approximately and applies the
implicit-function-theorem formula. Both read lam, train and the binding from
the trajectory, so an estimate binds once and cannot mix two lams or train
views. All hypergradients are in raw hyper coordinates because the problem
callbacks already are. The AID operator is the binding's Hessian at theta_K,
so all Z iterations reuse its curvature factors; the reverse pass binds the
Hessian at each theta_k. A quadratic inner objective (ridge, ridge_per_param)
binds one matrix H = 2A + c2 I, and its hessian(theta) returns the same map
for every theta, so those per-step binds build nothing.

One loop, _steps, takes every inner step: inner_solve keeps every iterate,
forward_hypergrad has it carry the tangent beside theta, and a failed solve
is named by replaying it. Each theta_k is an array of its own: the step
scales the new array that its gradient returns (see InnerBinding) and
writes theta_k - alpha_in * g into it; the tangent's step likewise writes
Z_k - alpha_in * (H Z_k + J) into the new array of its Hessian product. The
adjoint updates in place on an array of the reverse pass's own. Each
in-place operation has the operands of the expression it replaces, in
either order, so it rounds alike.

forward_hypergrad computes the same ITD and TRHG derivatives by forward
accumulation: it carries the tangent d theta_k / d lam beside theta through
the inner steps and keeps no trajectory, so its memory does not grow with K.
It needs the binding's dgrad_dlam, which a problem provides when it has one
raw hyperparameter (has_dgrad_dlam). estimate_hypergrad runs ITD and TRHG
forward on such a problem (see forward_mode) and reverse otherwise; the two
agree up to the order of their sums. A forward member retires, and takes no
more steps, once its state (theta, Z) repeats bit for bit two steps later
(see _steps): a step is a fixed map of the member's own state, so its
theta_K and Z_K are then known exactly. Gradient descent on a strongly
convex inner loss contracts, so its iterates reach a floating-point fixed
point, or a two-point rounding cycle, long before a large K: on the
benchmark's sweep (ridge, d = 1, K = 500) the median member retires at step
60. A member in a longer cycle, or still moving at step K, takes all K
steps, and the reverse pass and AID, which read the trajectory or solve at
theta_K, take them all.

Every entry point also takes StackedView train/val views of B members, for
every model kind, with lam (p,) or (B, p) and theta (r,) or (B, r): the same
code then runs all B estimates at once, one numpy op per inner step, and
returns one row per member. The ensemble strategies and both diagnostics
estimate only this way. Shapes are validated once per estimate, not in the
callbacks: lam and theta by inner_solve, val by the estimator; the budget's
rules are HypergradMethod's, checked once when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import DataView, StackedView
from .errors import ContractViolationError, NumericalError, require_count, require_real
from .linalg import LinearOperator, Vec, cg_solve, fixed_point_solve, row_dot, row_norm
from .problems import BilevelProblem, InnerBinding, central_diff, check_args, check_views

METHOD_KINDS = ("ITD", "TRHG", "AID_FP", "AID_CG")
AID_KINDS = ("AID_FP", "AID_CG")
# residual tolerance of the AID linear solves, relative to max(1, ||b||)
AID_TOL = 1e-12


@dataclass(frozen=True)
class InnerTrajectory:
    """theta_0 ... theta_K from K gradient steps at step size alpha_in.

    lam ((p,), or (B, p) for a stacked solve) and train are what the solve
    checked and stepped on, and inner is their InnerBinding; the estimators
    read all three from here.
    """

    thetas: tuple[np.ndarray, ...]  # each (r,), or (B, r) for a stacked solve
    alpha_in: float
    lam: np.ndarray
    train: DataView | StackedView
    inner: InnerBinding

    @property
    def K(self) -> int:
        return len(self.thetas) - 1

    @property
    def final(self) -> np.ndarray:
        return self.thetas[-1]


@dataclass(frozen=True)
class HypergradMethod:
    """Which estimator to run and its budget; also the config's `method` section.

    K: inner gradient steps. Z: linear-solver iterations (AID only).
    h: truncation window, 1 <= h <= K (TRHG only). fp_step: step size of the
    AID fixed-point solver; 0 means reuse alpha_in. Counts must be integers
    and step sizes finite real numbers; each rule is checked here only.
    """

    kind: str = "ITD"
    K: int = 50
    alpha_in: float = 0.1
    Z: int = 0
    h: int = 0
    fp_step: float = 0.0

    def __post_init__(self):
        if self.kind not in METHOD_KINDS:
            raise ContractViolationError(f"kind must be one of {METHOD_KINDS}", field="kind")
        for name in ("K", "Z", "h"):
            require_count(getattr(self, name), name)
        require_real(self.alpha_in, "alpha_in")
        if not self.alpha_in > 0:
            raise ContractViolationError("alpha_in must be > 0", field="alpha_in")
        require_real(self.fp_step, "fp_step")
        if not self.fp_step >= 0:
            raise ContractViolationError("fp_step must be >= 0", field="fp_step")
        if self.kind == "TRHG" and not (1 <= self.h <= self.K):
            raise ContractViolationError("TRHG requires 1 <= h <= K", field="h")
        if self.kind in AID_KINDS and self.Z < 1:
            raise ContractViolationError("AID requires Z >= 1", field="Z")


@dataclass(frozen=True)
class HypergradResult:
    """grad in raw hyper coordinates, the final inner iterate, and diagnostics."""

    grad: np.ndarray
    inner_final: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _nonfinite(what: str, x: np.ndarray, step: int | None = None) -> NumericalError:
    """NumericalError for a non-finite x, naming the first failing member of a batch."""
    member = None if x.ndim < 2 else int(np.argmin(np.isfinite(x).all(axis=-1)))
    return NumericalError(what, step_index=step, member=member)


def inner_solve(
    problem: BilevelProblem,
    lam: Vec,
    theta0: Vec,
    train: DataView | StackedView,
    K: int,
    alpha_in: float,
) -> InnerTrajectory:
    """K steps of theta <- theta - alpha_in * grad inner by _steps, trajectory recorded."""
    if alpha_in <= 0:
        raise ContractViolationError("alpha_in must be > 0")
    if K < 0:
        raise ContractViolationError("K must be >= 0")
    lam, start = check_args(problem, lam, theta0, train)
    inner = problem.bind_inner(lam, train)
    thetas = []
    # overflow surfaces as the explicit non-finite check, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        _steps(inner, start, K, alpha_in, thetas)
    return InnerTrajectory(thetas=tuple(thetas), alpha_in=alpha_in, lam=lam, train=train,
                           inner=inner)


# steps from one retirement check of the forward pass to the next (see
# _steps); even, so that every check falls on a step of K's parity
RETIRE_EVERY = 8


def _steps(inner: InnerBinding, start: Vec, K: int, alpha_in: float,
           thetas: list | None = None, replay: bool = False,
           tangent: tuple[int, Callable[[np.ndarray | None], InnerBinding]] | None = None):
    """K steps theta <- theta - alpha_in * grad(theta) from start, on inner's
    gradient; returns (theta_K, Z_K, steps).

    Each theta_k is an array of its own; thetas, if given, receives theta_0
    (a copy of start) ... theta_K. Finiteness is checked once, on theta_K: a
    non-finite iterate stays non-finite, since NaN propagates and inf minus
    anything is inf or NaN. A non-finite theta_K raises NumericalError by
    _raise_failed_solve, which replays the whole stack's binding, so no
    caller is handed one. replay, _raise_failed_solve's own switch, checks
    each gradient instead and skips that check. The caller holds the
    errstate. Without a tangent, Z_K is None and steps is K.

    tangent = (first, bind) also carries the forward pass's tangent
    Z = d theta_k / d lam, 0 up to step first: at the pre-step theta_k,
    Z <- Z - alpha_in * (H(theta_k) Z + J(theta_k)), J = dgrad_dlam(theta_k).
    bind(live) binds the members at rows live of the stack, and bind(None)
    the whole stack. A member then retires, and takes no more steps, once
    its state (theta, Z) is finite and equals, bit for bit, its state two
    steps earlier, with both states at or after step first. From first on a
    step is the same map of each member's own state, and a member's bits do
    not depend on the stack it runs in, so the member's states repeat with
    period 1 or 2 up to step K, and its state at any later step of K's
    parity is its theta_K and Z_K. So the check runs every RETIRE_EVERY
    steps, at steps of K's parity, against the one state saved two steps
    before: no copy is made, since each step's theta and Z are new arrays.
    A stack's retired members leave it once they are at least half of its
    live ones: the first time, the stack's state arrays become the output
    and its retired rows stay where they are; later, each retired row is
    written into the output once. The live rows are gathered and bound by
    bind, and the steps stop when no member is live. steps holds the steps
    each member took, K for one that never retired: an int for one member
    on a DataView, (B,) for a stack.
    """
    grad, out = inner.grad, None
    theta, Z, saved, steps = start.copy(), None, None, K
    if tangent is not None:
        first, bind = tangent
        hessian, dgrad, Z = inner.hessian, inner.dgrad_dlam, np.zeros_like(start)
    for k in range(K):
        if thetas is not None:
            thetas.append(theta)
        if Z is not None and k >= first:
            step = hessian(theta)(Z)
            step += dgrad(theta)
            step *= alpha_in
            Z = np.subtract(Z, step, out=step)  # Z - step, into the new step
        g = grad(theta)
        if replay and not np.all(np.isfinite(g)):
            raise _nonfinite(f"inner gradient became non-finite at step {k}", g, step=k)
        g *= alpha_in
        theta = np.subtract(theta, g, out=g)  # theta - g, into the new g
        if Z is None or k < first:
            continue
        left = K - 1 - k  # steps after this one
        if left % RETIRE_EVERY == 2 and left > RETIRE_EVERY:
            saved = theta, Z
            continue
        if saved is None or left % RETIRE_EVERY:
            continue
        same = theta.view(np.int64) == saved[0].view(np.int64)
        same &= Z.view(np.int64) == saved[1].view(np.int64)
        saved = None
        if theta.ndim == 1:
            if same.all() and np.all(np.isfinite(theta)) and np.all(np.isfinite(Z)):
                steps = k + 1
                break
            continue
        done, same = same.all(axis=-1), None
        if 2 * np.count_nonzero(done) < len(done):
            done = None
            continue
        done &= np.isfinite(theta).all(axis=-1)  # a non-finite state never retires
        done &= np.isfinite(Z).all(axis=-1)
        if out is None:
            # the whole stack's state is the output: its retired rows stay put
            out, live, steps = (theta, Z), np.arange(len(done)), np.full(len(done), K)
        else:
            out[0][live[done]], out[1][live[done]] = theta[done], Z[done]
        steps[live[done]] = k + 1
        np.logical_not(done, out=done)  # the live rows: no second mask outlives the check
        live, theta, Z, done = live[done], theta[done], Z[done], None
        inner = grad = hessian = dgrad = None  # let go before the live members are bound
        if not len(live):
            break
        inner = bind(live)
        grad, hessian, dgrad = inner.grad, inner.hessian, inner.dgrad_dlam
    if out is not None:
        if len(live):
            out[0][live], out[1][live] = theta, Z
        theta, Z = out
    elif Z is not None and theta.ndim == 2:
        steps = np.full(len(theta), K)
    if not (replay or np.all(np.isfinite(theta))):
        _raise_failed_solve(inner if out is None else bind(None), start, K, alpha_in)
    if thetas is not None:
        thetas.append(theta)
    return theta, Z, steps


def _raise_failed_solve(inner: InnerBinding, start: Vec, K: int, alpha_in: float) -> None:
    """Raise NumericalError for a solve from start whose theta_K is non-finite.

    Replays the K steps through _steps with the solve's binding inner, so
    with the same bits, and names the step (and the first failing member of
    a stack) of the first non-finite gradient. An update that overflows
    shows in the gradient of the next step; one that overflows on the last
    step leaves no gradient to check, so the solve ended non-finite at step
    K - 1, named in the message too (so a caller that raises again with its
    own step keeps it) and by the member of theta_K.
    """
    theta = _steps(inner, start, K, alpha_in, replay=True)[0]
    if not K:
        raise _nonfinite("the inner solve ended non-finite", theta)
    raise _nonfinite(f"the inner solve ended non-finite at step {K - 1}", theta, step=K - 1)


def forward_mode(problem: BilevelProblem, method: HypergradMethod) -> bool:
    """Whether estimate_hypergrad runs method by forward accumulation (no trajectory)."""
    return method.kind in ("ITD", "TRHG") and problem.has_dgrad_dlam


# (r,) arrays that one member of a forward pass holds at once, temporaries
# included: theta and the tangent, the state saved two steps before a
# retirement check, the new arrays of a step (the Hessian product that
# becomes the next tangent, with the curvature factors it reads, and the
# gradient that becomes the next theta), and at the end the outer gradient
# with its temporaries. Retired rows stay in the state arrays the pass
# started with, and the first binding is let go once the live members have
# their own. For ridge and lasso_smooth, tracemalloc reads 7 and 8 at r = 1
# while members retire (5 and 6 over K = 5, which saves no state), where the
# (p,) rows of the outer step count as whole arrays, and about 2.5 for ridge
# at r = 20.
FORWARD_ARRAYS = 8


def forward_hypergrad(
    problem: BilevelProblem,
    lam: Vec,
    theta0: Vec,
    train: DataView | StackedView,
    val: DataView | StackedView,
    method: HypergradMethod,
) -> HypergradResult:
    """ITD or TRHG hypergradient of a problem with dgrad_dlam, by forward accumulation.

    Runs the K inner steps of inner_solve, with the same bits, and carries
    the tangent Z = d theta_k / d lam, of theta's shape since lam has one
    raw coordinate, beside them (see _steps); then
    g = grad_lam outer(theta_K) + <Z, grad_theta outer(theta_K)>.
    TRHG's window h starts Z = 0 at step K - h; ITD is h = K.
    A non-finite theta_K raises as in inner_solve. diagnostics["steps"]
    holds the steps each member took before it retired (K if it never did).
    """
    K, alpha = method.K, method.alpha_in
    first = K - method.h if method.kind == "TRHG" else 0
    lam, start = check_args(problem, lam, theta0, train, val)

    def bind(live=None):
        """The binding of the members at live, or of all of them."""
        if live is None:
            return problem.bind_inner(lam, train)
        return problem.bind_inner(lam[live], train.take(live))

    # as in inner_solve and itd_hypergrad: overflow surfaces as the explicit
    # non-finite checks, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        theta, Z, steps = _steps(bind(), start, K, alpha, tangent=(first, bind))
        a = problem.outer_grad_theta(lam, theta, val)
        g = problem.outer_grad_lambda(lam, theta, val) + row_dot(Z, a)[..., None]
    if not np.all(np.isfinite(g)):
        raise _nonfinite("forward accumulation produced a non-finite hypergradient", g)
    return HypergradResult(grad=g, inner_final=theta, diagnostics={"steps": steps})


def itd_hypergrad(
    problem: BilevelProblem,
    traj: InnerTrajectory,
    val: DataView | StackedView,
    h: int | None = None,
) -> HypergradResult:
    """Exact derivative of lam -> outer(lam, theta_K(lam)) by reverse accumulation.

    g = grad_lam outer(theta_K); a = grad_theta outer(theta_K);
    for k = K-1 .. 0: g -= alpha_in * mixed_vp(theta_k, a); a -= alpha_in * H(theta_k) a.
    With a window h (TRHG, 1 <= h <= K) the mixed-product terms stop after
    the h most recent steps (k = K-1 .. K-h); h = K is the full pass.
    """
    check_views(traj.train, val)
    lam, theta_K, inner, alpha = traj.lam, traj.final, traj.inner, traj.alpha_in
    # Adjoint propagation below K - h contributes nothing once the mixed
    # accumulation stops, so the loop covers only the window, and the
    # adjoint of its oldest step, which nothing reads, is not computed.
    steps = range(traj.K - 1, traj.K - 1 - (traj.K if h is None else h), -1)
    # a diverged but finite trajectory overflows here: that surfaces as the
    # explicit non-finite check below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        g = problem.outer_grad_lambda(lam, theta_K, val).astype(np.float64, copy=True)
        a = problem.outer_grad_theta(lam, theta_K, val)
        for k in steps:
            theta_k = traj.thetas[k]
            dg = inner.mixed(theta_k, a)
            dg *= alpha
            g -= dg
            if k != steps[-1]:
                da = inner.hessian(theta_k)(a)
                da *= alpha
                a -= da
    if not np.all(np.isfinite(g)):
        raise _nonfinite("reverse accumulation produced a non-finite hypergradient", g)
    return HypergradResult(grad=g, inner_final=theta_K)


def aid_hypergrad(
    problem: BilevelProblem,
    traj: InnerTrajectory,
    val: DataView | StackedView,
    method: HypergradMethod,
) -> HypergradResult:
    """Implicit-function-theorem hypergradient at the trajectory's last iterate theta_K.

    Solves H(theta_K) v = grad_theta outer(theta_K) with method.Z iterations
    of CG (AID_CG) or of the fixed-point scheme at step fp_step, or alpha_in
    when fp_step is 0 (AID_FP), then grad = grad_lam outer - mixed_vp(theta_K, v).
    The Hessian is bound at theta_K once, so every iteration reuses its
    curvature factors.
    Diagnostics carry the achieved linear-system residual norm and the
    solver iterations used (per member when stacked; each member's solve
    stops on its own).
    """
    if not problem.supports_aid:
        raise ContractViolationError(
            f"AID is not offered for model kind {problem.kind!r} "
            "(inner Hessian is discontinuous)"
        )
    if method.kind not in AID_KINDS:
        raise ContractViolationError(f"aid_hypergrad needs an AID method, got {method.kind!r}")
    check_views(traj.train, val)
    lam, theta_K, inner = traj.lam, traj.final, traj.inner
    # as in itd_hypergrad: overflow at a diverged theta_K surfaces as the
    # solvers' and the explicit non-finite checks, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        b = problem.outer_grad_theta(lam, theta_K, val)
        op = LinearOperator(dim=problem.param_dim, apply=inner.hessian(theta_K))
        counts = np.zeros(b.shape[:-1], dtype=np.int64)  # iterations of each member
        if method.kind == "AID_CG":
            v, _ = cg_solve(op, b, max_iters=method.Z, tol=AID_TOL, counts=counts)
        else:
            v, _ = fixed_point_solve(op, b, step=method.fp_step or method.alpha_in,
                                     max_iters=method.Z, tol=AID_TOL, counts=counts)
        residual = row_norm(op(v) - b)
        g = problem.outer_grad_lambda(lam, theta_K, val) - inner.mixed(theta_K, v)
    if not np.all(np.isfinite(g)):
        raise _nonfinite("AID produced a non-finite hypergradient", g)
    return HypergradResult(
        grad=g,
        inner_final=theta_K,
        diagnostics={
            "aid_residual": residual,
            "solver_iters": counts if counts.ndim else int(counts),
        },
    )


def finite_diff_hypergrad(
    problem: BilevelProblem,
    lam: Vec,
    theta0: Vec,
    train: DataView,
    val: DataView,
    K: int,
    alpha_in: float,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central differences of lam -> outer(lam, theta_K(lam)) per raw coordinate.

    Re-runs inner_solve for every perturbation; this is the test oracle for
    the reverse-accumulation engines.
    """
    if eps <= 0:
        raise ContractViolationError("eps must be > 0")
    lam = np.asarray(lam, dtype=np.float64)

    def unrolled(u: np.ndarray) -> float:
        traj = inner_solve(problem, u, theta0, train, K, alpha_in)
        return problem.outer_loss(u, traj.final, val)

    return np.array([central_diff(unrolled, lam, e, eps) for e in np.eye(lam.shape[0])])


def contraction_params(L: float, mu: float, alpha_in: float) -> float:
    """Contraction constant q of the inner GD map for an (L, mu) convex loss.

    q = (L - mu)/(L + mu) exactly at alpha_in = 2/(L + mu); otherwise
    q = max(1 - alpha_in*mu, alpha_in*L - 1). Requires alpha_in <= 2/L, else
    the map is not a contraction.
    """
    if not (L >= mu > 0):
        raise ContractViolationError("need L >= mu > 0")
    if alpha_in <= 0:
        raise ContractViolationError("alpha_in must be > 0")
    if alpha_in > 2.0 / L:
        raise ContractViolationError(
            f"alpha_in = {alpha_in} exceeds 2/L = {2.0 / L}: not a contraction"
        )
    if alpha_in == 2.0 / (L + mu):
        return (L - mu) / (L + mu)
    return max(1.0 - alpha_in * mu, alpha_in * L - 1.0)


def estimate_hypergrad(
    problem: BilevelProblem,
    lam: Vec,
    theta0: Vec,
    train: DataView | StackedView,
    val: DataView | StackedView,
    method: HypergradMethod,
) -> HypergradResult:
    """Run the configured estimator end to end (inner solve + hypergradient).

    ITD and TRHG run forward (forward_hypergrad) where forward_mode says so,
    and otherwise as inner_solve plus the reverse pass; AID always solves at
    the trajectory's theta_K. With StackedView train/val views of B members,
    runs all B estimates as one stacked pass and returns grad (B, p) and
    inner_final (B, r).
    """
    if forward_mode(problem, method):
        return forward_hypergrad(problem, lam, theta0, train, val, method)
    traj = inner_solve(problem, lam, theta0, train, method.K, method.alpha_in)
    if method.kind in AID_KINDS:
        return aid_hypergrad(problem, traj, val, method)
    return itd_hypergrad(problem, traj, val, h=method.h if method.kind == "TRHG" else None)
