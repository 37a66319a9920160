"""Datasets, views, and seeded train/validation split plans.

All randomness flows through numpy PCG64 generators. Per-split seeds are
derived from a master seed by splitmix64-mixing the split counter, so split i
is reproducible in isolation (no generator state threads between splits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np
from numpy.random import PCG64, Generator

from .errors import ContractViolationError, InfeasiblePlanError, ParseError

TASKS = ("regression", "binary", "multiclass")
SPLIT_MODES = ("with_replacement", "without_replacement")

_MASK64 = (1 << 64) - 1
# enumerate_all_splits materializes every partition; refuse combinatorial blowups.
_ENUMERATION_CAP = 1_000_000


def splitmix64(x: int) -> int:
    """One splitmix64 scramble of a u64 (reference constants)."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master_seed: int, counter: int) -> int:
    """Stateless per-stream seed: mix the counter into the master seed."""
    return splitmix64((master_seed ^ splitmix64(counter)) & _MASK64)


def _rng(seed: int) -> Generator:
    return Generator(PCG64(seed))


@dataclass(frozen=True)
class Dataset:
    """Feature matrix X (n x d), targets y (n,), and a task tag.

    binary labels live in {-1, +1}; multiclass labels are integers in
    [0, num_classes). Regression targets are unconstrained floats.
    """

    X: np.ndarray
    y: np.ndarray
    task: str
    num_classes: int = 0

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if X.ndim != 2:
            raise ContractViolationError(f"X must be 2-D, got ndim={X.ndim}")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ContractViolationError(
                f"y must be 1-D with length {X.shape[0]}, got shape {y.shape}"
            )
        if self.task not in TASKS:
            raise ContractViolationError(f"unknown task {self.task!r}")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ContractViolationError("dataset contains non-finite values")
        if self.task == "binary" and not np.all(np.isin(y, (-1.0, 1.0))):
            raise ContractViolationError("binary labels must be in {-1, +1}")
        if self.task == "multiclass":
            if self.num_classes < 2:
                raise ContractViolationError("multiclass requires num_classes >= 2")
            if not np.all(y == np.round(y)) or y.min() < 0 or y.max() >= self.num_classes:
                raise ContractViolationError(
                    f"multiclass labels must be integers in [0, {self.num_classes})"
                )

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(eq=False)
class DataView:
    """Read-only row view of a dataset, canonicalized to ascending indices.

    Caches the materialized rows and, for quadratic losses, the Gram pair
    (X^T X / m, X^T y / m), so repeated gradient calls on the same view cost
    O(d^2) instead of O(m d^2).
    """

    dataset: Dataset
    idx: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.idx, dtype=np.int64)
        if idx.ndim != 1 or idx.shape[0] == 0:
            raise ContractViolationError("view index set must be 1-D and non-empty")
        idx = np.sort(idx)
        if idx[0] < 0 or idx[-1] >= self.dataset.n:
            raise ContractViolationError("view indices out of range")
        if np.any(idx[1:] == idx[:-1]):
            raise ContractViolationError("view indices must be distinct")
        self.idx = idx

    @property
    def m(self) -> int:
        return self.idx.shape[0]

    @cached_property
    def X(self) -> np.ndarray:
        return self.dataset.X[self.idx]

    @cached_property
    def y(self) -> np.ndarray:
        return self.dataset.y[self.idx]

    @cached_property
    def labels(self) -> np.ndarray:
        return self.y.astype(np.int64)

    @cached_property
    def one_hot(self) -> np.ndarray:
        k = self.dataset.num_classes
        out = np.zeros((self.m, k))
        out[np.arange(self.m), self.labels] = 1.0
        return out

    @cached_property
    def gram(self) -> tuple[np.ndarray, np.ndarray]:
        A = self.X.T @ self.X / self.m
        b = self.X.T @ self.y / self.m
        return A, b


@dataclass(eq=False)
class StackedView:
    """B equally sized views stacked along a leading member axis.

    Carries what the data losses read, member by member: the row count m,
    the rows X (B, m, d), the targets y (B, m), the one-hot labels (B, m, k)
    and the Gram pair (B, d, d) / (B, d). Each is stacked from the member
    views' own values on first use, so a squared loss never stacks the rows
    and a classification loss never the Gram pairs.
    """

    views: tuple[DataView, ...]

    def __post_init__(self):
        self.views = tuple(self.views)
        if not self.views:
            raise ContractViolationError("a stacked view needs at least one member view")
        shapes = {(v.m, v.dataset.d) for v in self.views}
        if len(shapes) != 1:
            raise ContractViolationError(
                f"stacked member views must share (rows, features), got {sorted(shapes)}"
            )

    def __len__(self) -> int:
        return len(self.views)

    @property
    def m(self) -> int:
        return self.views[0].m

    @cached_property
    def X(self) -> np.ndarray:
        return np.stack([v.X for v in self.views])

    @cached_property
    def y(self) -> np.ndarray:
        return np.stack([v.y for v in self.views])

    @cached_property
    def one_hot(self) -> np.ndarray:
        return np.stack([v.one_hot for v in self.views])

    @cached_property
    def gram(self) -> tuple[np.ndarray, np.ndarray]:
        grams = [v.gram for v in self.views]
        return np.stack([A for A, _ in grams]), np.stack([b for _, b in grams])


def full_view(dataset: Dataset) -> DataView:
    return DataView(dataset, np.arange(dataset.n))


@dataclass(frozen=True)
class Split:
    """Disjoint train/val index sets covering a pool, plus the seed that drew it."""

    train_idx: np.ndarray
    val_idx: np.ndarray
    seed: int

    def train_view(self, dataset: Dataset) -> DataView:
        return DataView(dataset, self.train_idx)

    def val_view(self, dataset: Dataset) -> DataView:
        return DataView(dataset, self.val_idx)


@dataclass(frozen=True)
class SplitPlan:
    """U splits at validation/train ratio gamma, drawn from master_seed.

    with_replacement draws each split independently (duplicates possible);
    without_replacement redraws duplicates so all U validation sets are
    pairwise distinct, which requires U <= C(n, m_val).
    """

    U: int
    gamma: float
    mode: str = "without_replacement"
    master_seed: int = 0

    def __post_init__(self):
        if self.U < 1:
            raise ContractViolationError("U must be >= 1")
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ContractViolationError("gamma must be positive and finite")
        if self.mode not in SPLIT_MODES:
            raise ContractViolationError(f"unknown split mode {self.mode!r}")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def val_size(n: int, gamma: float) -> int:
    """m_val = round(n * gamma / (1 + gamma)), clamped to [1, n-1]."""
    if n < 2:
        raise ContractViolationError("need n >= 2 to form a train/val split")
    m = _round_half_up(n * gamma / (1.0 + gamma))
    return min(max(m, 1), n - 1)


def make_splits(n: int, plan: SplitPlan) -> list[Split]:
    """Draw plan.U train/val splits of range(n) per the plan's mode."""
    m_val = val_size(n, plan.gamma)
    if plan.mode == "without_replacement":
        total = math.comb(n, m_val)
        if plan.U > total:
            raise InfeasiblePlanError(
                f"plan asks for U={plan.U} distinct splits but only "
                f"C({n}, {m_val}) = {total} exist",
                field_path="split.U",
            )
    seen: set[bytes] = set()  # each val is a sorted int64 array, so its bytes are exact
    budget = 1000 * plan.U + 1000
    splits = []
    for i in range(plan.U):
        seed_i = derive_seed(plan.master_seed, i)
        rng = _rng(seed_i)
        while True:
            val = np.sort(rng.choice(n, size=m_val, replace=False))
            key = val.tobytes()
            if plan.mode == "with_replacement" or key not in seen:
                break
            budget -= 1
            if budget <= 0:
                raise InfeasiblePlanError(
                    "resampling budget exhausted while rejecting duplicate splits",
                    field_path="split.U",
                )
        seen.add(key)
        mask = np.ones(n, dtype=bool)
        mask[val] = False
        splits.append(Split(train_idx=np.nonzero(mask)[0], val_idx=val, seed=seed_i))
    return splits


def enumerate_all_splits(n: int, gamma: float) -> list[Split]:
    """All C(n, m_val) splits, validation sets in lexicographic order."""
    m_val = val_size(n, gamma)
    total = math.comb(n, m_val)
    if total > _ENUMERATION_CAP:
        raise InfeasiblePlanError(
            f"C({n}, {m_val}) = {total} exceeds the enumeration cap {_ENUMERATION_CAP}"
        )
    splits = []
    for i, combo in enumerate(combinations(range(n), m_val)):
        val = np.asarray(combo, dtype=np.int64)
        mask = np.ones(n, dtype=bool)
        mask[val] = False
        splits.append(Split(train_idx=np.nonzero(mask)[0], val_idx=val, seed=i))
    return splits


def carve_holdout(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Split range(n) into (pool_idx, test_idx) with |test| = round(n * fraction).

    fraction = 0 keeps everything in the pool; otherwise the test size is
    clamped to [1, n-1]. Both index vectors come back sorted.
    """
    if not (0.0 <= fraction < 1.0):
        raise ContractViolationError("holdout fraction must be in [0, 1)")
    if fraction == 0.0:
        return np.arange(n), np.empty(0, dtype=np.int64)
    size = min(max(_round_half_up(n * fraction), 1), n - 1)
    rng = _rng(seed)
    test = np.sort(rng.choice(n, size=size, replace=False))
    mask = np.ones(n, dtype=bool)
    mask[test] = False
    return np.nonzero(mask)[0], test


def subset(dataset: Dataset, idx: np.ndarray) -> Dataset:
    """Materialize a row subset as a standalone dataset."""
    idx = np.asarray(idx, dtype=np.int64)
    return Dataset(
        X=dataset.X[idx].copy(),
        y=dataset.y[idx].copy(),
        task=dataset.task,
        num_classes=dataset.num_classes,
    )


@lru_cache(maxsize=64)
def _shared_beta(beta_seed: int, d: int) -> np.ndarray:
    """The ground-truth coefficients of gen_linear, drawn once per (beta_seed, d)."""
    beta = _rng(beta_seed).standard_normal(d)
    beta.flags.writeable = False
    return beta


def gen_linear(
    n: int, d: int, noise_sigma: float, seed: int, beta_seed: int = 0
) -> tuple[Dataset, np.ndarray]:
    """y = X beta + eps with X_ij ~ N(0,1), beta ~ N(0,I_d), eps ~ N(0, sigma^2).

    Returns (dataset, beta). beta is drawn from its own seed so replicate
    datasets (fresh seed) share the same ground-truth coefficient vector.
    """
    if n < 1 or d < 1:
        raise ContractViolationError("gen_linear needs n >= 1 and d >= 1")
    if noise_sigma < 0:
        raise ContractViolationError("noise_sigma must be >= 0")
    beta = _shared_beta(beta_seed, d).copy()
    rng = _rng(seed)
    X = rng.standard_normal((n, d))
    eps = rng.standard_normal(n) * noise_sigma
    return Dataset(X=X, y=X @ beta + eps, task="regression"), beta


def gen_multiclass(
    n: int, d: int, num_classes: int, noise_sigma: float, seed: int, beta_seed: int = 0
) -> tuple[Dataset, np.ndarray]:
    """Labels = argmax(X W + noise); returns (dataset, W) with W ~ N(0,1) per entry."""
    if n < 1 or d < 1 or num_classes < 2:
        raise ContractViolationError("gen_multiclass needs n,d >= 1 and num_classes >= 2")
    if noise_sigma < 0:
        raise ContractViolationError("noise_sigma must be >= 0")
    W = _rng(beta_seed).standard_normal((d, num_classes))
    rng = _rng(seed)
    X = rng.standard_normal((n, d))
    logits = X @ W + rng.standard_normal((n, num_classes)) * noise_sigma
    y = np.argmax(logits, axis=1).astype(np.float64)
    return Dataset(X=X, y=y, task="multiclass", num_classes=num_classes), W


def corrupt_labels(
    dataset: Dataset, p: float, seed: int
) -> tuple[Dataset, np.ndarray]:
    """Independently replace each label with a uniformly random WRONG one.

    Returns (corrupted dataset, clean_mask) where clean_mask is True on rows
    left untouched. Classification tasks only; p = 0 returns an identical
    copy and an all-True mask.
    """
    if dataset.task == "regression":
        raise ContractViolationError("corrupt_labels applies to classification tasks")
    if not (0.0 <= p <= 1.0):
        raise ContractViolationError("corruption probability must be in [0, 1]")
    rng = _rng(seed)
    hit = rng.random(dataset.n) < p
    y = dataset.y.copy()
    if dataset.task == "binary":
        y[hit] = -y[hit]
    else:
        k = dataset.num_classes
        old = y[hit].astype(np.int64)
        # uniform over the k-1 wrong labels: draw in [0, k-2], skip the true one
        draw = rng.integers(0, k - 1, size=old.shape[0])
        y[hit] = (draw + (draw >= old)).astype(np.float64)
    return (
        Dataset(X=dataset.X.copy(), y=y, task=dataset.task, num_classes=dataset.num_classes),
        ~hit,
    )


def read_libsvm(path: str, task: str | None = None) -> Dataset:
    """Read a sparse 'label idx:value ...' text file into a dense Dataset.

    Feature indices are 1-based. Label handling when task is not forced:
    all-integer labels in {-1,+1} or {0,1} become binary (0 mapped to -1);
    three or more distinct integer labels become multiclass with classes
    remapped, in sorted order, to 0..k-1; anything else is regression.
    """
    labels: list[float] = []
    rows: list[list[tuple[int, float]]] = []
    max_feat = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            try:
                lab = float(parts[0])
            except ValueError as exc:
                raise ParseError(
                    f"line {lineno}: bad label {parts[0]!r}", line=lineno
                ) from exc
            feats = []
            for token in parts[1:]:
                try:
                    idx_s, val_s = token.split(":", 1)
                    j = int(idx_s)
                    v = float(val_s)
                except ValueError as exc:
                    raise ParseError(
                        f"line {lineno}: bad feature token {token!r}", line=lineno
                    ) from exc
                if j < 1:
                    raise ParseError(
                        f"line {lineno}: feature index {j} must be >= 1", line=lineno
                    )
                feats.append((j, v))
                max_feat = max(max_feat, j)
            labels.append(lab)
            rows.append(feats)
    if not rows:
        raise ParseError("file contains no samples")
    X = np.zeros((len(rows), max(max_feat, 1)))
    for i, feats in enumerate(rows):
        for j, v in feats:
            X[i, j - 1] = v
    y = np.asarray(labels)

    if task == "regression":
        return Dataset(X=X, y=y, task="regression")
    distinct = np.unique(y)
    integral = bool(np.all(y == np.round(y)))
    if task is None:
        if integral and set(distinct.tolist()) <= {-1.0, 1.0}:
            task = "binary"
        elif integral and set(distinct.tolist()) <= {0.0, 1.0}:
            task = "binary"
        elif integral and distinct.shape[0] > 2:
            task = "multiclass"
        else:
            task = "regression"
    if task == "binary":
        if set(distinct.tolist()) <= {0.0, 1.0}:
            y = np.where(y > 0.5, 1.0, -1.0)
        elif not set(distinct.tolist()) <= {-1.0, 1.0}:
            raise ParseError("binary task requires labels in {-1,+1} or {0,1}")
        return Dataset(X=X, y=y, task="binary")
    if task == "multiclass":
        if not integral:
            raise ParseError("multiclass task requires integer labels")
        remap = {v: i for i, v in enumerate(sorted(distinct.tolist()))}
        y = np.asarray([remap[v] for v in y], dtype=np.float64)
        return Dataset(X=X, y=y, task="multiclass", num_classes=len(remap))
    return Dataset(X=X, y=y, task="regression")
