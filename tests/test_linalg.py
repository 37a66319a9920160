"""Matrix-free solvers: CG and fixed-point iteration, single and batched."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bihpo.errors import ContractViolationError, NumericalError
from bihpo.linalg import LinearOperator, cg_solve, fixed_point_solve, row_dot
from bihpo.problems import _matvec
from helpers import as_operator


def random_spd(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


# ---------------------------------------------------------------------------
# cg_solve

def test_cg_identity_one_iteration():
    x, iters = cg_solve(as_operator(np.eye(2)), np.array([4.0, 5.0]), 10, tol=1e-12)
    assert_allclose(x, [4.0, 5.0])
    assert iters == 1


def test_cg_diagonal():
    x, _ = cg_solve(as_operator(np.diag([2.0, 4.0])), np.array([2.0, 4.0]), 10)
    assert_allclose(x, [1.0, 1.0], atol=1e-12)


def test_cg_matches_dense_solve():
    A = random_spd(5, seed=0)
    rng = np.random.Generator(np.random.PCG64(1))
    b = rng.standard_normal(5)
    x, _ = cg_solve(as_operator(A), b, max_iters=5)
    assert_allclose(x, np.linalg.solve(A, b), rtol=1e-8, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10_000))
def test_cg_finite_termination(n, seed):
    # n iterations of CG solve an n-dimensional SPD system exactly
    A = random_spd(n, seed)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    b = rng.standard_normal(n)
    x, _ = cg_solve(as_operator(A), b, max_iters=n, tol=0.0)
    exact = np.linalg.solve(A, b)
    assert np.linalg.norm(x - exact) <= 1e-8 * max(1.0, np.linalg.norm(exact))


def test_cg_nonfinite_breakdown_names_iteration():
    bad = LinearOperator(dim=2, apply=lambda v: v * np.inf)
    with pytest.raises(NumericalError) as err:
        cg_solve(bad, np.ones(2), 5)
    assert err.value.step_index is not None


# ---------------------------------------------------------------------------
# fixed_point_solve

def test_fp_identity_one_step():
    v, iters = fixed_point_solve(as_operator(np.eye(2)), np.array([1.0, 2.0]),
                                 step=1.0, max_iters=10)
    assert_allclose(v, [1.0, 2.0])
    assert iters == 1


def test_fp_geometric_limit():
    v, _ = fixed_point_solve(as_operator(np.array([[2.0]])), np.array([4.0]),
                             step=0.25, max_iters=500, tol=1e-8)
    assert_allclose(v, [2.0], atol=1e-7)


def test_fp_hand_fixed_point():
    v, _ = fixed_point_solve(as_operator(np.diag([2.0, 0.5])), np.array([2.0, 1.0]),
                             step=0.9, max_iters=2000, tol=1e-12)
    assert_allclose(v, [1.0, 2.0], atol=1e-10)


def test_fp_divergence_detected():
    # step far beyond 2/L: residual grows every iteration
    with pytest.raises(NumericalError):
        fixed_point_solve(as_operator(np.diag([4.0, 1.0])), np.ones(2),
                          step=1.0, max_iters=100)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10_000))
def test_fp_agrees_with_cg(n, seed):
    A = random_spd(n, seed)
    rng = np.random.Generator(np.random.PCG64(seed + 7))
    b = rng.standard_normal(n)
    L = float(np.linalg.eigvalsh(A)[-1])
    x_cg, _ = cg_solve(as_operator(A), b, max_iters=5 * n, tol=1e-12)
    x_fp, _ = fixed_point_solve(as_operator(A), b, step=1.0 / L,
                                max_iters=20_000, tol=1e-12)
    assert np.linalg.norm(x_cg - x_fp) <= 1e-8 * max(1.0, np.linalg.norm(x_cg))


# ---------------------------------------------------------------------------
# LinearOperator

def test_operator_shape_check():
    op = as_operator(np.eye(3))
    with pytest.raises(ContractViolationError):
        op(np.ones(2))


# ---------------------------------------------------------------------------
# batched solves: one (B, dim) right-hand side, each member stopping on its own

DIAG = np.array([1.0, 2.0, 3.0, 4.0])
DIAG_OP = LinearOperator(dim=4, apply=lambda x: x * DIAG)
# rows needing 0, 1, 2 and 4 CG iterations (b = 0, one, two, four eigen-directions)
BATCH_B = np.array([[0.0, 0.0, 0.0, 0.0],
                    [1.0, 0.0, 0.0, 0.0],
                    [1.0, 1.0, 0.0, 0.0],
                    [1.0, -2.0, 0.5, 3.0]])


def test_batched_cg_matches_row_by_row():
    iters = np.full(4, -1)
    X, ran = cg_solve(DIAG_OP, BATCH_B, max_iters=10, tol=1e-12, counts=iters)
    assert list(iters) == [0, 1, 2, 4]
    assert ran == 4  # until the last member stopped
    for b, x, it in zip(BATCH_B, X, iters):
        x1, it1 = cg_solve(DIAG_OP, b, max_iters=10, tol=1e-12)
        assert same_bits(x, x1)
        assert it == it1


def test_batched_fixed_point_matches_row_by_row():
    iters = np.full(4, -1)
    V, ran = fixed_point_solve(DIAG_OP, BATCH_B, step=0.2, max_iters=500, tol=1e-10,
                               counts=iters)
    assert iters[0] == 0 and len(set(iters.tolist())) > 2
    assert ran == iters.max() < 500
    for b, v, it in zip(BATCH_B, V, iters):
        v1, it1 = fixed_point_solve(DIAG_OP, b, step=0.2, max_iters=500, tol=1e-10)
        assert same_bits(v, v1)
        assert it == it1


def member_operators(seed, B, d):
    """B SPD matrices (B, d, d), member 0 with 1 distinct eigenvalue, member i
    with i + 1 (capped at d), as one batched operator applied with np.matvec
    and as B unstacked ones."""
    rng = np.random.Generator(np.random.PCG64(seed))
    A = np.empty((B, d, d))
    for i in range(B):
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        levels = rng.uniform(0.5, 50.0, min(i + 1, d))
        A[i] = (Q * levels[rng.permutation(np.arange(d) % len(levels))]) @ Q.T
    return (LinearOperator(dim=d, apply=lambda x: np.matvec(A, x)),
            [LinearOperator(dim=d, apply=lambda x, a=a: np.matvec(a, x)) for a in A])


@pytest.mark.parametrize("seed", range(6))
def test_batched_cg_members_keep_their_own_bits_and_counts(seed):
    # members stop at different iterations while others go on, one has b = 0
    # and some run into max_iters: each keeps the bits and count of its own
    # unstacked solve
    B, d, max_iters = 9, 12, 6
    op, ops = member_operators(seed, B, d)
    b = np.random.Generator(np.random.PCG64(seed + 100)).standard_normal((B, d))
    b[seed % B] = 0.0
    counts = np.full(B, -1)
    X, ran = cg_solve(op, b, max_iters=max_iters, tol=1e-10, counts=counts)
    assert counts.min() == 0 and counts.max() == ran == max_iters
    assert len(set(counts.tolist())) >= 4
    for member, (row, x, it) in enumerate(zip(b, X, counts)):
        x1, it1 = cg_solve(ops[member], row, max_iters=max_iters, tol=1e-10)
        assert same_bits(x, x1)
        assert it == it1


def test_cg_checks_the_operator_on_its_first_product_only():
    products = []
    misshapen = LinearOperator(dim=4, apply=lambda x: products.append(1) or x[..., :2])
    with pytest.raises(ContractViolationError, match="operator returned shape"):
        cg_solve(misshapen, BATCH_B, 10)
    assert len(products) == 1
    # one product per CG iteration, none spent on the check
    products.clear()
    op = LinearOperator(dim=4, apply=lambda x: products.append(1) or x * DIAG)
    _, ran = cg_solve(op, BATCH_B, 10)
    assert len(products) == ran == 4


def test_batched_cg_breakdown_names_member():
    signs = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])  # member 1 is indefinite
    op = LinearOperator(dim=2, apply=lambda x: x * signs)
    with pytest.raises(NumericalError) as err:
        cg_solve(op, np.array([[1.0, 2.0], [0.0, 1.0], [3.0, 1.0]]), 5)
    assert err.value.member == 1
    assert err.value.step_index == 1


# ---------------------------------------------------------------------------
# batched products: one numpy gufunc call, with matmul's bits

def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("B", [1, 8, 523])
@pytest.mark.parametrize("d", [1, 10, 20])
def test_gufuncs_keep_matmul_bits(B, d):
    rng = np.random.Generator(np.random.PCG64(1000 * B + d))
    m = 7

    def matvec_ref(A, x):
        return (A @ x[..., None])[..., 0]

    def dot_ref(a, b):
        return (a[..., None, :] @ b[..., :, None])[..., 0, 0]

    x1 = rng.standard_normal(d)
    xB = rng.standard_normal((B, d))
    xBt = rng.standard_normal((d, B)).swapaxes(0, 1)  # (B, d), strided rows
    A2 = rng.standard_normal((m, d))
    A3 = rng.standard_normal((B, m, d))
    A3t = rng.standard_normal((B, d, m)).swapaxes(-1, -2)  # (B, m, d) view
    Asq = rng.standard_normal((B, d, d))
    for A, x in ((A2, x1), (A2.T.copy(), rng.standard_normal(m)), (A2.T, rng.standard_normal(m)),
                 (A3, xB), (A3, xBt), (A3t, xB), (A3.swapaxes(-1, -2), rng.standard_normal((B, m))),
                 (Asq, xB), (Asq.swapaxes(-1, -2), xBt)):
        assert same_bits(_matvec(A, x), matvec_ref(A, x))

    y3 = rng.standard_normal((B, m, d))
    for a, b in ((x1, rng.standard_normal(d)), (xB, rng.standard_normal((B, d))), (xB, xBt),
                 (xBt, xBt), (A3, y3), (A3t, y3), (A3t, A3t), (A3.swapaxes(0, 1), y3.swapaxes(0, 1))):
        assert same_bits(row_dot(a, b), dot_ref(a, b))


# signed zeros, infinities, NaN, a subnormal and huge values: every (A, x)
# pair of them, where np.matvec returns +0.0 for a -0.0 product
_SPECIAL = (0.0, -0.0, 1.5, -2.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, -1e300)


def test_d1_matvec_keeps_np_matvec_bits_at_signed_zeros_infs_and_nan():
    a, x = (v.ravel() for v in np.meshgrid(_SPECIAL, _SPECIAL))
    cases = [(a[:, None, None], x[:, None])]  # (B, 1, 1) with (B, 1)
    cases += [(a[:, None], np.array([t])) for t in _SPECIAL]  # (m, 1) rows with a (1,) theta
    cases += [(np.array([[s]]), np.array([t])) for s, t in zip(a, x)]  # (1, 1) with 1-D x
    with np.errstate(all="ignore"):
        for A, v in cases:
            assert same_bits(_matvec(A, v), np.matvec(A, v))
    # the cases where a bare product would keep the sign of zero
    assert same_bits(np.matvec(np.array([[1.5]]), np.array([-0.0])), np.array([0.0]))
    assert same_bits(np.matvec(np.array([[-2.0]]), np.array([0.0])), np.array([0.0]))


@pytest.mark.parametrize("B", [1, 8, 523, 6000])
def test_d1_matvec_has_np_matvec_bits(B):
    rng = np.random.Generator(np.random.PCG64(B))
    m = 7

    def draw(*shape):  # normals with a quarter of the entries special
        special = rng.choice(np.array(_SPECIAL), shape)
        return np.where(rng.random(shape) < 0.25, special, rng.standard_normal(shape))

    A = draw(B, 1, 1)
    cases = [(A, draw(B, 1)), (A, draw(1)),  # each member's x, and one shared x
             (draw(1, B, 1).swapaxes(0, 1), draw(1, B).swapaxes(0, 1)),  # strided views
             (draw(B, m, 1), draw(B, 1)),  # stacked (m, 1) rows, the margin losses' value
             (draw(m, 1), draw(1)), (draw(1, 1), draw(1))]
    with np.errstate(all="ignore"):
        for A, x in cases:
            assert same_bits(_matvec(A, x), np.matvec(A, x))
