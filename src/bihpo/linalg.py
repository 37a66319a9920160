"""Batched dot products and matrix-free iterative solvers.

Vectors are plain float64 numpy arrays (Vec: 1-D). Iterative solvers operate
on a LinearOperator so callers can pass Hessian-vector products without ever
materializing the matrix. The operators and iterative solvers also take a batch of B independent systems as (B, dim)
arrays, one row per member, and stop each member on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractViolationError, NumericalError

Vec = np.ndarray

# Residual growth on this many consecutive iterations counts as divergence.
_DIVERGENCE_PATIENCE = 10


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the last axis, batched over any leading axes.

    One np.vecdot call, which gives the bits of the matmul
    (a[..., None, :] @ b[..., :, None])[..., 0, 0], so 1-D operands get
    exactly the bits of a @ b.
    """
    return np.vecdot(a, b)


def row_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, batched over any leading axes."""
    return np.sqrt(row_dot(x, x))


def ordered_mean(x: np.ndarray) -> np.ndarray:
    """Mean over the first axis as an index-ascending sum divided by the count.

    The additions run in index order (numpy's mean sums pairwise), so a mean
    of stacked rows has the bits of the same rows added one by one.
    """
    acc = x[0].copy()
    for row in x[1:]:
        acc += row
    return acc / len(x)


def _as_batch(x, dim: int, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != dim:
        raise ContractViolationError(
            f"{name} must have shape ({dim},) or (B, {dim}), got {x.shape}"
        )
    return x


def _first_member(mask: np.ndarray) -> int | None:
    """Index of the first member flagged in a batch mask; None when unbatched."""
    return int(np.argmax(mask)) if mask.ndim else None


@dataclass(frozen=True)
class LinearOperator:
    """Matrix-free linear map on R^dim, applied to (dim,) or (B, dim) arrays.

    apply must be linear; the iterative solvers additionally assume symmetry
    (and, for convergence guarantees, positive definiteness), which is not
    checked here. Batched solves pass (B, dim) rows, one system per member.
    A call checks the shapes of its argument and its result; cg_solve calls
    the operator once, for its first product, and apply itself for the
    others.
    """

    dim: int
    apply: Callable[[Vec], Vec]

    def __call__(self, x: Vec) -> Vec:
        x = _as_batch(x, self.dim, "x")
        y = np.asarray(self.apply(x), dtype=np.float64)
        if y.shape != x.shape:
            raise ContractViolationError(
                f"operator returned shape {y.shape}, expected {x.shape}"
            )
        return y


def _iterations_run(iters: np.ndarray, counts: np.ndarray | None) -> int:
    """Iterations a solve ran: the most any member needed. counts, if given,
    receives each member's own count."""
    if counts is not None:
        counts[...] = iters
    return int(iters.max())


def _target_residual(b: Vec, tol: float) -> np.ndarray:
    # Relative stopping rule per member, floored so b = 0 still terminates.
    return tol * np.maximum(1.0, row_norm(b))


def cg_solve(
    op: LinearOperator, b: Vec, max_iters: int, tol: float = 1e-10,
    counts: np.ndarray | None = None,
) -> tuple[Vec, int]:
    """Conjugate gradients for op x = b with op symmetric positive definite.

    Starts from x0 = 0 and stops when ||r|| <= tol * max(1, ||b||) or after
    max_iters iterations, returning (x, iters_used). Raises NumericalError on
    non-finite iterates or CG breakdown (p^T A p <= 0), naming the iteration.
    A (B, dim) right-hand side solves B systems at once: each member stops on
    its own rule and keeps its iterate from then on, and an error also names
    the first failing member. iters_used then counts the iterations until the
    last member stopped (one op product each); counts, a (B,) int array, if
    given receives each member's own count.

    The first product goes through op, which checks its shapes, and the
    others call op.apply. While every member is live, the steps take no
    masks; once one has stopped, each step masks the stopped members out.
    """
    b = _as_batch(b, op.dim, "b")
    if max_iters < 0:
        raise ContractViolationError("max_iters must be >= 0")

    target = _target_residual(b, tol)
    x = np.zeros_like(b)
    r = b.copy()
    rs = row_dot(r, r)
    live = np.sqrt(rs) > target  # members still iterating
    every = live.all()  # no member has stopped yet
    iters = np.zeros(live.shape, dtype=np.int64)
    p = r.copy()
    product = op
    for it in range(1, max_iters + 1):
        if not (every or live.any()):
            break
        Ap = product(p)
        product = op.apply
        pAp = row_dot(p, Ap)
        ok = (pAp > 0.0) & (pAp < np.inf)  # False at NaN, +-inf and pAp <= 0
        if not every:
            ok |= ~live  # a stopped member never breaks down
        if not ok.all():
            i = _first_member(~ok)
            raise NumericalError(
                f"cg breakdown at iteration {it}: p^T A p = {pAp if i is None else pAp[i]}",
                step_index=it, member=i,
            )
        # stopped members take a zero step, so x and r stay where they stopped
        alpha = rs / pAp if every else np.where(live, rs, 0.0) / np.where(live, pAp, 1.0)
        x += alpha[..., None] * p
        r -= alpha[..., None] * Ap
        rs_new = row_dot(r, r)
        finite = np.isfinite(rs_new)
        if not finite.all():
            raise NumericalError(
                f"cg produced non-finite residual at iteration {it}",
                step_index=it, member=_first_member(~finite),
            )
        if every:
            iters[...] = it
            live = np.sqrt(rs_new) > target
            every = live.all()
        else:
            iters = np.where(live, it, iters)
            live = live & (np.sqrt(rs_new) > target)
        beta = rs_new / rs if every else np.where(live, rs_new, 0.0) / np.where(live, rs, 1.0)
        p *= beta[..., None]
        p += r
        rs = rs_new
    return x, _iterations_run(iters, counts)


def fixed_point_solve(
    op: LinearOperator, b: Vec, step: float, max_iters: int, tol: float = 1e-10,
    counts: np.ndarray | None = None,
) -> tuple[Vec, int]:
    """Richardson iteration v <- v - step * (op v - b) from v0 = 0.

    Converges iff the spectrum of (I - step * op) lies inside the unit circle.
    Stops on ||op v - b|| <= tol * max(1, ||b||); raises NumericalError if the
    residual grows for 10 consecutive iterations (divergence) or goes
    non-finite, naming the iteration. A (B, dim) right-hand side solves B
    systems at once, and iters_used and counts report as in cg_solve.
    """
    b = _as_batch(b, op.dim, "b")
    if max_iters < 0:
        raise ContractViolationError("max_iters must be >= 0")
    if step <= 0.0:
        raise ContractViolationError("step must be positive")

    target = _target_residual(b, tol)
    v = np.zeros_like(b)
    prev = np.full(target.shape, np.inf)
    growth = np.zeros(target.shape, dtype=np.int64)
    iters = np.zeros(target.shape, dtype=np.int64)
    live = np.ones(target.shape, dtype=bool)  # members still iterating
    for it in range(1, max_iters + 1):
        res = op(v) - b
        rnorm = row_norm(res)
        bad = live & ~np.isfinite(rnorm)
        if bad.any():
            raise NumericalError(
                f"fixed-point iteration produced non-finite residual at iteration {it}",
                step_index=it, member=_first_member(bad),
            )
        live = live & (rnorm > target)
        if not live.any():
            break
        growth = np.where(rnorm > prev, growth + 1, 0)
        diverging = live & (growth >= _DIVERGENCE_PATIENCE)
        if diverging.any():
            i = _first_member(diverging)
            raise NumericalError(
                f"fixed-point iteration diverging at iteration {it}: residual grew "
                f"{_DIVERGENCE_PATIENCE} consecutive times "
                f"(last {rnorm if i is None else rnorm[i]:.3e})",
                step_index=it, member=i,
            )
        prev = rnorm
        v = v - step * np.where(live[..., None], res, 0.0)
        iters = np.where(live, it, iters)
    return v, _iterations_run(iters, counts)
