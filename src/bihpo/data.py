"""Datasets, views, and seeded train/validation split plans.

All randomness flows through numpy PCG64 generators. Per-split seeds are
derived from a master seed by splitmix64-mixing the split counter, so split i
is reproducible in isolation (no generator state threads between splits).
A draw of many seeds runs one generator, re-seeded by state per seed
(_generators), with the bits of Generator(PCG64(seed)).

Splits and holdouts are m-subsets of range(n) that _subsets draws from each
stream's raw PCG64 words, by Floyd's algorithm over Lemire's bounded
integers (the two that Generator.choice(n, m, replace=False) runs), in one
numpy pass over all the streams of a draw. A subset has the bits of
np.sort(Generator(PCG64(seed)).choice(n, m, replace=False)) except where
numpy shuffles a tail instead (n > 10000 and m > n // 50), and a split that
redraws a duplicate takes its stream's next words.

A pool's U splits are their validation index sets vals (U, m_val), one
ascending row per split (draw_val_sets); a split trains on the rest of the
pool (complements). split_stacks gathers the train and val rows of all U
splits into two StackedViews, the one way a stack of splits is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np
from numpy.random import PCG64, Generator

from .errors import (
    ContractViolationError,
    InfeasiblePlanError,
    ParseError,
    require_count,
    require_real,
)

TASKS = ("regression", "binary", "multiclass")
SPLIT_MODES = ("with_replacement", "without_replacement")

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# _all_val_sets materializes every partition; refuse combinatorial blowups.
_ENUMERATION_CAP = 1_000_000


def splitmix64(x):
    """One splitmix64 scramble of a u64, or of each of a uint64 array (reference constants)."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master_seed, counter):
    """Stateless per-stream seed: mix the counter into the master seed (taken
    mod 2^64). Either may be a uint64 array; the seeds then broadcast."""
    return splitmix64((master_seed & _MASK64) ^ splitmix64(counter))


def _rng(seed: int) -> Generator:
    return Generator(PCG64(seed))


def _pcg64_states(seeds: np.ndarray) -> tuple[list[int], list[int]]:
    """The 128-bit (state, inc) that PCG64(seed) starts in, for each seed of
    the uint64 array seeds: two lists of ints.

    SeedSequence(seed) hashes the seed's two 32-bit words into a pool of 4
    and draws 8 words from it (NEP 19), in uint32 arithmetic, done here in
    uint64 masked to 32 bits. PCG64 takes the first two 64-bit words as the
    128-bit seed s and the last two as the stream i, and steps its LCG twice
    (pcg64_srandom): inc = 2i + 1, state = (inc + s) M + inc.
    """
    def hasher(const: int, mult: int):
        """SeedSequence's hashmix; its constant steps on each call."""
        def hashmix(value):
            nonlocal const
            value = value ^ const
            const = const * mult & _MASK32
            value = value * const & _MASK32
            return value ^ value >> 16
        return hashmix

    hashmix, zero = hasher(0x43B0D7E5, 0x931E8875), np.zeros_like(seeds)
    pool = [hashmix(word) for word in (seeds & _MASK32, seeds >> 32, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (pool[dst] * 0xCA01F9DD - hashmix(pool[src]) * 0x4973F715) & _MASK32
                pool[dst] = mixed ^ mixed >> 16
    draw = hasher(0x8B51F9DD, 0x58F38DED)
    words = [draw(pool[i % 4]) for i in range(8)]
    s_hi, s_lo, i_hi, i_lo = ((lo | hi << 32).tolist() for lo, hi in zip(words[0::2], words[1::2]))
    incs = [((hi << 64 | lo) << 1 | 1) & _MASK128 for hi, lo in zip(i_hi, i_lo)]
    return [((inc + (hi << 64 | lo)) * _PCG64_MULT + inc) & _MASK128
            for inc, hi, lo in zip(incs, s_hi, s_lo)], incs


def _generators(seeds: np.ndarray):
    """Generator(PCG64(seed)) for each seed of the uint64 array seeds in turn,
    as one generator re-seeded by state: each is spent once the next is drawn."""
    rng = _rng(0)
    state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    for value, inc in zip(*_pcg64_states(seeds.ravel())):
        state["state"] = {"state": value, "inc": inc}
        rng.bit_generator.state = state
        yield rng


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

    Caches the materialized rows, their feature-major copy and class-major
    one-hot labels for the softmax loss, the label-folded feature-major rows
    for the margin losses, and, for quadratic losses, the Gram pair
    (X^T X / m, X^T y / m), so repeated gradient calls on the same view
    cost O(d^2) instead of O(m d^2), and repeated binds fold no rows.
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
    def Xt(self) -> np.ndarray:
        """The rows feature-major, C-contiguous: (d, m)."""
        return _feature_major(self.X)

    @cached_property
    def yXt(self) -> np.ndarray:
        """The rows with their labels folded in, feature-major, C-contiguous: (d, m)."""
        return _folded(self.X, self.y)

    @cached_property
    def one_hot(self) -> np.ndarray:
        """The labels one-hot and class-major: (k, m)."""
        return _one_hot(self.y, self.dataset.num_classes)

    @cached_property
    def gram(self) -> tuple[np.ndarray, np.ndarray]:
        return _gram(self.X, self.y)


# The formulas of a view's values; they broadcast over a leading member axis.

def _feature_major(X: np.ndarray) -> np.ndarray:
    """The rows feature-major, C-contiguous: (..., d, m)."""
    return np.ascontiguousarray(X.swapaxes(-1, -2))


def _folded(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The rows times their labels, y_i x_ij, feature-major, C-contiguous: (..., d, m)."""
    return np.multiply(y[..., None, :], X.swapaxes(-1, -2), order="C")


def _one_hot(y: np.ndarray, num_classes: int) -> np.ndarray:
    """The integer labels y one-hot and class-major: (..., k, m)."""
    if num_classes < 2:
        raise ContractViolationError("a view with no classes has no one_hot")
    return (y[..., None, :] == np.arange(num_classes)[:, None]).astype(np.float64)


def _gram(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gram pair (X^T X / m, X^T y / m): (..., d, d) and (..., d)."""
    Xt, m = X.swapaxes(-1, -2), X.shape[-2]
    return Xt @ X / m, np.matvec(Xt, y) / m


class StackedView:
    """B equally sized member views stacked along a leading member axis.

    StackedView(X, y, num_classes) holds the members' rows X (B, m, d),
    targets y (B, m) and class count (0 for no classes, and so no one_hot),
    and derives from them on first read, by the formulas a DataView uses,
    the feature-major rows Xt (B, d, m), the label-folded rows yXt
    (B, d, m), the one-hot labels (B, k, m) and the Gram pair (B, d, d) /
    (B, d). So every member's values have the bits of its own DataView's.
    split_stacks builds the train and val stacks of a pool's splits this
    way. stack.take(index) holds no rows: it gathers each value of its
    members, as it is first read, from stack or, if stack was itself taken,
    from the stack it was taken from (a slice of a stack not taken gives
    views of its arrays). So a take that reads Gram pairs never gathers rows.
    """

    _taken = None  # (source, index) of a stack made by take

    def __init__(self, X, y, num_classes: int = 0):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 3 or 0 in X.shape[:2] or y.shape != X.shape[:2]:
            raise ContractViolationError(
                f"stacked rows must be (B, m, d) and targets (B, m) with B, m >= 1, "
                f"got {X.shape} and {y.shape}"
            )
        self.X, self.y, self.num_classes = X, y, num_classes
        self._size, self.m = y.shape

    def take(self, index) -> StackedView:
        """The members at index, a slice or a 1-D integer array, as a stack of their own.

        Nothing is gathered up front: each value is gathered when the new
        stack first reads it. A take of a taken stack gathers from the stack
        that was taken from, so it holds its own members only.
        """
        members = np.arange(self._size)[index]
        if members.ndim != 1 or members.size == 0:
            raise ContractViolationError("take needs a 1-D index of at least one member")
        source = self
        if self._taken is not None:
            source, outer = self._taken
            index = np.arange(len(source))[outer][index]
        stack = StackedView.__new__(StackedView)
        stack._size, stack.m, stack.num_classes = members.size, self.m, self.num_classes
        stack._taken = (source, index)
        return stack

    def _gather(self, name: str):
        """A taken stack's value name: its source's, at its members."""
        source, index = self._taken
        value = getattr(source, name)
        return tuple(part[index] for part in value) if isinstance(value, tuple) else value[index]

    def __len__(self) -> int:
        return self._size

    # a stack that holds its rows shadows these two with its own attributes
    X = cached_property(lambda self: self._gather("X"))
    y = cached_property(lambda self: self._gather("y"))

    @cached_property
    def Xt(self) -> np.ndarray:
        return self._gather("Xt") if self._taken else _feature_major(self.X)

    @cached_property
    def yXt(self) -> np.ndarray:
        return self._gather("yXt") if self._taken else _folded(self.X, self.y)

    @cached_property
    def one_hot(self) -> np.ndarray:
        return self._gather("one_hot") if self._taken else _one_hot(self.y, self.num_classes)

    @cached_property
    def gram(self) -> tuple[np.ndarray, np.ndarray]:
        return self._gather("gram") if self._taken else _gram(self.X, self.y)


def full_view(dataset: Dataset) -> DataView:
    return DataView(dataset, np.arange(dataset.n))


@dataclass(frozen=True)
class Split:
    """Disjoint train/val index sets covering a pool."""

    train_idx: np.ndarray
    val_idx: np.ndarray


@dataclass(frozen=True)
class SplitPlan:
    """U splits at validation/train ratio gamma, drawn from master_seed.

    with_replacement draws each split independently (duplicates possible);
    without_replacement redraws duplicates so all U validation sets are
    pairwise distinct, which requires U <= C(n, m_val). This is also the
    config's `split` section, with these defaults.
    """

    U: int = 5
    gamma: float = 0.25
    mode: str = "without_replacement"
    master_seed: int = 0

    def __post_init__(self):
        require_count(self.U, "U", minimum=1)
        _require_gamma(self.gamma)
        if self.mode not in SPLIT_MODES:
            raise ContractViolationError(f"mode must be one of {SPLIT_MODES}", field="mode")
        require_count(self.master_seed, "master_seed")


def _require_gamma(gamma) -> None:
    """Refuse a validation/train ratio that is not a positive, finite real number."""
    require_real(gamma, "gamma")
    if not gamma > 0.0:
        raise ContractViolationError("gamma must be positive and finite", field="gamma")


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
    vals = draw_val_sets(n, plan)
    return [Split(train_idx=train, val_idx=val) for train, val in zip(complements(n, vals), vals)]


def draw_val_sets(n: int, plan: SplitPlan) -> np.ndarray:
    """The validation index sets of plan's splits of range(n), ascending, one
    row per split: (U, m_val). Split u's train rows are complements(n, vals[u]).
    Split u draws from derive_seed(plan.master_seed, u), by _fill_val_sets."""
    vals = np.empty((plan.U, _plan_val_size(n, plan)), dtype=np.int64)
    _fill_val_sets(vals, n, plan.mode, plan.master_seed)
    return vals


def _plan_val_size(n: int, plan: SplitPlan, field_path: str = "split.U") -> int:
    """m_val of plan's splits of range(n), once the plan is feasible there:
    without_replacement refuses U > C(n, m_val), naming field_path."""
    m_val = val_size(n, plan.gamma)
    if plan.mode == "without_replacement":
        total = math.comb(n, m_val)
        if plan.U > total:
            raise InfeasiblePlanError(
                f"plan asks for U={plan.U} distinct splits but only "
                f"C({n}, {m_val}) = {total} exist",
                field_path=field_path,
            )
    return m_val


def _fill_val_sets(vals: np.ndarray, n: int, mode: str, master_seeds) -> None:
    """Fill vals (..., U, m_val) with the validation sets of feasible plans of
    range(n) in mode, one ascending row per split: the U splits of pool i
    draw from master_seeds[i], an int or a uint64 array of vals' leading shape.

    Split u of a pool draws from derive_seed(its master seed, u), all of them
    from one generator re-seeded per split (_generators) by one _subsets
    draw; without_replacement redraws a set that an earlier split of its pool
    already has.
    """
    U, m_val = vals.shape[-2:]
    masters = np.asarray(master_seeds & _MASK64, dtype=np.uint64)[..., None]
    seeds = derive_seed(masters, np.arange(U, dtype=np.uint64)).ravel()
    distinct = U if mode == "without_replacement" else 1
    vals[...] = _subsets(n, m_val, seeds, _generators(seeds), distinct).reshape(vals.shape)


def _subsets(n: int, m: int, seeds, rngs, distinct: int = 1) -> np.ndarray:
    """Ascending m-subsets of range(n), 1 <= m < n < 2^31, one row per seed of
    seeds: (S, m) int64. rngs yields Generator(PCG64(seed)) for each seed in
    turn; each gives its first ceil(m/2) raw words, and _floyd draws every row
    from them at once. So row i has the bits of np.sort(Generator(PCG64(
    seeds[i])).choice(n, m, replace=False)) wherever numpy runs Floyd's
    algorithm too (n <= 10000 or m <= n // 50).

    distinct > 1 takes the rows as pools of distinct consecutive rows: a row
    that an earlier row of its pool holds is drawn again, from the words
    that follow in its stream, until it is new.
    """
    width = (m + 1) // 2
    words = np.array([rng.bit_generator.random_raw(width) for rng in rngs])
    streams = {}

    def more(i: int, count: int) -> np.ndarray:
        """The next count words of row i's stream, past those drawn already."""
        if i not in streams:
            streams[i] = _rng(int(seeds[i])).bit_generator
            streams[i].random_raw(width)
        return streams[i].random_raw(count)

    rows = _floyd(words, n, m, more)
    if distinct == 1:
        return rows
    for pool in range(0, len(rows), distinct):
        seen: set[bytes] = set()  # each row is a sorted int64 array, so its bytes are exact
        budget = 1000 * distinct + 1000
        for i in range(pool, pool + distinct):
            while (key := rows[i].tobytes()) in seen:
                budget -= 1
                if budget <= 0:
                    raise InfeasiblePlanError(
                        "resampling budget exhausted while rejecting duplicate splits",
                        field_path="split.U",
                    )
                rows[i] = _floyd(more(i, width)[None], n, m, lambda _, count: more(i, count))[0]
            seen.add(key)
    return rows


def _floyd(words: np.ndarray, n: int, m: int, more) -> np.ndarray:
    """Floyd's m-subset of range(n) drawn from each row of words (S, ceil(m/2)),
    ascending: (S, m) int64. more(row, count) gives the next count words of
    a row's stream, for the rare row whose own words do not suffice.

    Each uint64 word is two 32-bit draws, its low half first, as numpy's
    next_uint32 buffers them. Step c draws v_c from [0, j_c], j_c = n - m + c,
    by Lemire's multiply-shift: v_c = (u_c (j_c + 1)) >> 32, rejected while
    the low 32 bits of the product fall below (2^32 - j_c - 1) mod (j_c + 1).
    A row where some low bits fall below j_c + 1, and so may reject, takes
    its draws from a scalar pass over its stream instead. Floyd then keeps
    v_c, or j_c if v_c is taken: if it occurred earlier in the row, or if
    v_c = j_i for an earlier step i that kept j_i. That rule points back
    only, so it is iterated from the repeats until no step changes.
    """
    halves = np.empty((len(words), 2 * words.shape[1]), dtype=np.uint64)
    halves[:, 0::2] = words & _MASK32
    halves[:, 1::2] = words >> 32
    spans = np.arange(n - m + 1, n + 1, dtype=np.uint64)  # j_c + 1
    scaled = halves[:, :m] * spans
    v = (scaled >> 32).astype(np.int64)
    for i in np.flatnonzero(((scaled & _MASK32) < spans).any(axis=1)).tolist():
        v[i] = _lemire_draws(words[i], n, m, lambda count: more(i, count))

    # each row's (v_c, c) ascending, as v_c << shift | c: a v_c equal to the
    # one before it repeats an earlier step's
    shift, starts = m.bit_length(), np.arange(0, v.size, m)[:, None]
    keys = np.sort(v << shift | np.arange(m), axis=1)
    ranked = keys >> shift
    repeat = np.zeros(v.size, dtype=bool)
    repeat[((keys[:, 1:] & (1 << shift) - 1) + starts)[ranked[:, 1:] == ranked[:, :-1]]] = True
    repeat = repeat.reshape(v.shape)
    tops = np.arange(n - m, n)  # j_c
    chained = (v >= n - m) & (v < tops)  # v_c = j_i of a step i < c
    earlier = np.where(chained, v - (n - m), 0) + starts  # i, as a flat index
    taken = repeat
    while not np.array_equal(step := repeat | chained & taken.ravel()[earlier], taken):
        taken = step
    return np.sort(np.where(taken, tops, v), axis=1)


def _lemire_draws(words: np.ndarray, n: int, m: int, more) -> list[int]:
    """Floyd's m draws v_c in [0, n - m + c] from the 32-bit stream of one row's
    words, then of more(count)'s, by Lemire's method with its rejections."""
    def stream():
        chunk = words
        while True:
            for word in chunk.tolist():
                yield word & _MASK32
                yield word >> 32
            chunk = more(1)

    halves, draws = stream(), []
    for span in range(n - m + 1, n + 1):
        threshold = ((1 << 32) - span) % span
        scaled = next(halves) * span
        while scaled & _MASK32 < threshold:
            scaled = next(halves) * span
        draws.append(scaled >> 32)
    return draws


def complements(n: int, vals: np.ndarray) -> np.ndarray:
    """The train index sets of range(n) left by validation sets vals (..., m_val), ascending."""
    mask = np.ones(vals.shape[:-1] + (n,), dtype=bool)
    np.put_along_axis(mask, vals, False, axis=-1)
    train = np.flatnonzero(mask)  # one index array, not one per axis as np.nonzero gives
    train %= n
    return train.reshape(vals.shape[:-1] + (n - vals.shape[-1],))


def split_stacks(X: np.ndarray, y: np.ndarray, vals, num_classes: int = 0
                 ) -> tuple[StackedView, StackedView]:
    """The train and val stacks of the splits of pools X (..., n, d), y (..., n)
    of num_classes classes whose validation index sets are vals (..., U, m_val),
    in C order of vals' leading axes (pool-major).

    Each row of vals must be strictly ascending within [0, n), with
    1 <= m_val < n, so that every member's rows are those of its DataView.
    """
    n, d = X.shape[-2:]
    vals = np.asarray(vals)
    if (not np.issubdtype(vals.dtype, np.integer) or vals.ndim < 2 or vals.shape[-2] < 1
            or not 1 <= vals.shape[-1] < n):
        raise ContractViolationError(
            f"validation index sets must be an integer array (..., U, m_val) with U >= 1 "
            f"and 1 <= m_val < n = {n}, got {vals.dtype} {vals.shape}"
        )
    if not (np.all(vals[..., 0] >= 0) and np.all(vals[..., -1] < n)
            and np.all(vals[..., 1:] > vals[..., :-1])):
        raise ContractViolationError(
            f"each validation index set must be strictly ascending within [0, {n})"
        )

    def members(idx):
        rows = np.take_along_axis(X[..., None, :, :], idx[..., None], axis=-2)
        targets = np.take_along_axis(y[..., None, :], idx, axis=-1)
        return StackedView(rows.reshape(-1, idx.shape[-1], d),
                           targets.reshape(-1, idx.shape[-1]), num_classes)

    return members(complements(n, vals)), members(vals)


def _all_val_sets(n: int, gamma: float) -> np.ndarray:
    """Every validation index set of range(n) at ratio gamma, in lexicographic
    order, one ascending row per split: (C(n, m_val), m_val)."""
    _require_gamma(gamma)
    m_val = val_size(n, gamma)
    total = math.comb(n, m_val)
    if total > _ENUMERATION_CAP:
        raise InfeasiblePlanError(
            f"C({n}, {m_val}) = {total} exceeds the enumeration cap {_ENUMERATION_CAP}"
        )
    return np.array(list(combinations(range(n), m_val)), dtype=np.int64)


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
    test = _subsets(n, size, [seed], [_rng(seed)])[0]
    return complements(n, test[None])[0], test


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
def _shared_beta(beta_seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """The ground truth of the synthetic tasks, drawn once per (beta_seed, shape):
    the coefficients beta (d,) of regression, or W (d, k) of k classes."""
    beta = _rng(beta_seed).standard_normal(shape)
    beta.flags.writeable = False
    return beta


def _draw_rows(task: str, n: int, d: int, classes: int, noise_sigma: float, rng: Generator,
               beta_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows X (n, d) and targets y (n,) of synthetic, drawn from rng, with
    no checks: synthetic's draw at seed when rng is Generator(PCG64(seed)).
    X and then the noise are one standard_normal draw, sliced."""
    normals = rng.standard_normal(n * (d + (1 if task == "regression" else classes)))
    X, noise = normals[:n * d].reshape(n, d), normals[n * d:]
    if task == "regression":
        return X, X @ _shared_beta(beta_seed, (d,)) + noise * noise_sigma
    logits = X @ _shared_beta(beta_seed, (d, classes)) + noise.reshape(n, classes) * noise_sigma
    y = np.argmax(logits, axis=1).astype(np.float64)
    return X, 2.0 * y - 1.0 if task == "binary" else y


def synthetic(task: str, n: int, d: int, classes: int, noise_sigma: float, seed: int,
              beta_seed: int = 0) -> Dataset:
    """Seeded data of a task, with X_ij ~ N(0, 1) and noise eps ~ N(0, sigma^2).

    regression: y = X beta + eps, beta ~ N(0, I_d); classes is ignored.
    multiclass: y = argmax(X W + eps) over classes >= 2 classes, W_jc ~ N(0, 1).
    binary: the same labels of classes = 2, mapped from 0/1 to -1/+1.
    The ground truth is drawn from beta_seed alone, so replicate datasets
    (fresh seed) share it.
    """
    if task not in TASKS:
        raise ContractViolationError(f"task must be one of {TASKS}, got {task!r}", field="task")
    for name, size in (("n", n), ("d", d)):
        if size < 1:
            raise ContractViolationError(f"synthetic needs {name} >= 1, got {size}", field=name)
    if task != "regression" and (classes < 2 or task == "binary" and classes != 2):
        raise ContractViolationError(f"{task} data cannot have {classes} classes", field="classes")
    require_real(noise_sigma, "noise_sigma")
    if noise_sigma < 0:
        raise ContractViolationError("noise_sigma must be >= 0", field="noise_sigma")
    X, y = _draw_rows(task, n, d, classes, noise_sigma, _rng(seed), beta_seed)
    return Dataset(X=X, y=y, task=task, num_classes=classes if task == "multiclass" else 0)


def gen_linear(
    n: int, d: int, noise_sigma: float, seed: int, beta_seed: int = 0
) -> tuple[Dataset, np.ndarray]:
    """synthetic regression data, y = X beta + eps; returns (dataset, beta)."""
    ds = synthetic("regression", n, d, 0, noise_sigma, seed, beta_seed)
    return ds, _shared_beta(beta_seed, (d,)).copy()


def gen_multiclass(
    n: int, d: int, num_classes: int, noise_sigma: float, seed: int, beta_seed: int = 0
) -> tuple[Dataset, np.ndarray]:
    """synthetic multiclass data, labels = argmax(X W + eps); returns (dataset, W)."""
    ds = synthetic("multiclass", n, d, num_classes, noise_sigma, seed, beta_seed)
    return ds, _shared_beta(beta_seed, (d, num_classes)).copy()


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
