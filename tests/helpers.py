"""Small seeded problem instances shared across test modules.

The zoo recipe is the one `bihpo check` builds its instances with; the tests
draw from their own seeds.
"""

import numpy as np

from bihpo import problems
from bihpo.cli import _zoo_dataset as zoo_dataset  # noqa: F401
from bihpo.cli import _zoo_instance
from bihpo.cli import _zoo_problem as zoo_problem  # noqa: F401
from bihpo.data import StackedView
from bihpo.linalg import LinearOperator


def as_operator(A):
    """A dense square matrix as a LinearOperator on (dim,) or (B, dim) arrays."""
    A = np.asarray(A, dtype=np.float64)
    return LinearOperator(dim=A.shape[0], apply=lambda x: x @ A.T)


def stack(views):
    """The rows of equally sized DataViews, of one class count, as one StackedView."""
    return StackedView(np.stack([v.X for v in views]), np.stack([v.y for v in views]),
                       views[0].dataset.num_classes)


def zoo_instance(kind, seed=11):
    """Small seeded (problem, train, val) triple for any zoo model."""
    return _zoo_instance(kind, data_seed=seed, split_seed=9)


def zoo_lambda(problem, scale=0.3, seed=21):
    """A mild random raw hyper vector sized for the problem."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return scale * rng.standard_normal(problem.hyper_dim)


def count_softmax_rows(monkeypatch):
    """The row count m of every softmax a binding evaluates, in call order."""
    rows, original = [], problems._softmax
    monkeypatch.setattr(problems, "_softmax", lambda Z: rows.append(Z.shape[-1]) or original(Z))
    return rows
