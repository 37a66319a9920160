"""Small seeded problem instances shared across test modules."""

import numpy as np

from bihpo.data import Dataset, SplitPlan, gen_linear, gen_multiclass, make_splits
from bihpo.linalg import LinearOperator
from bihpo.problems import REGRESSION_KINDS, ModelSpec, build_problem


def as_operator(A):
    """A dense square matrix as a LinearOperator on (dim,) or (B, dim) arrays."""
    A = np.asarray(A, dtype=np.float64)
    return LinearOperator(dim=A.shape[0], apply=lambda x: x @ A.T)


def zoo_dataset(kind, n, d, seed):
    """Seeded data of the task a zoo model fits: regression, +-1 labels or 3 classes."""
    if kind in REGRESSION_KINDS:
        return gen_linear(n, d, 0.3, seed=seed, beta_seed=1)[0]
    if kind in ("logistic_l2", "svm_sqhinge"):
        raw, _ = gen_multiclass(n, d, 2, 0.4, seed=seed, beta_seed=2)
        return Dataset(X=raw.X, y=2.0 * raw.y - 1.0, task="binary")
    return gen_multiclass(n, d, 3, 0.4, seed=seed, beta_seed=3)[0]


def zoo_problem(kind, ds, n_weights=0, smoothing_delta=1e-3):
    """The zoo model of kind on ds; hyperclean_softmax weighs n_weights train rows."""
    spec = ModelSpec(kind=kind, smoothing_delta=smoothing_delta,
                     num_classes=ds.num_classes, n_weights=n_weights)
    return build_problem(spec, ds.d)


def zoo_instance(kind, seed=11):
    """Small seeded (problem, train, val) triple for any zoo model."""
    if kind in REGRESSION_KINDS or kind in ("logistic_l2", "svm_sqhinge"):
        ds = zoo_dataset(kind, 24, 4, seed)
    else:
        ds = zoo_dataset(kind, 16 if kind == "hyperclean_softmax" else 30, 3, seed)
    split = make_splits(ds.n, SplitPlan(U=1, gamma=0.25, master_seed=9))[0]
    n_weights = len(split.train_idx) if kind == "hyperclean_softmax" else 0
    return zoo_problem(kind, ds, n_weights), split.train_view(ds), split.val_view(ds)


def zoo_lambda(problem, scale=0.3, seed=21):
    """A mild random raw hyper vector sized for the problem."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return scale * rng.standard_normal(problem.hyper_dim)
