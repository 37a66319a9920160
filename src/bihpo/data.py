"""Datasets, views, and seeded train/validation split plans.

All randomness flows through numpy PCG64 streams. Per-split seeds are
derived from a master seed by splitmix64-mixing the split counter, so split i
is reproducible in isolation (no generator state threads between splits).
Every stream keeps the bits of Generator(PCG64(seed)). The start state of
many seeds is one vectorized pass (_pcg64_states); rows come from one
generator, re-seeded by that state per seed (_generators), each filling its
row of one buffer of normals (_draw_rows), and the rest of the row recipe
runs once over the whole stack.

Splits and holdouts are m-subsets of range(n) that _subsets draws from each
stream's leading raw PCG64 words, which one jump-ahead pass computes for all
the streams of a draw with no generator (_pcg64_words: the k-th word is
XSL-RR of the LCG state A_k s_0 + C_k inc). It draws by Floyd's algorithm
over Lemire's bounded integers (the two that Generator.choice(n, m,
replace=False) runs), in one numpy pass over all the streams. A subset has
the bits of np.sort(Generator(PCG64(seed)).choice(n, m, replace=False))
except where numpy shuffles a tail instead (n > 10000 and m > n // 50), and
a split that redraws a duplicate takes its stream's next words.

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
# _pcg64_words holds a few temporaries of twice this many uint64 at once
_WORDS_BLOCK = 1 << 16
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


def _u64(value) -> np.ndarray:
    """A uint64 array of value. The seeding and jump-ahead passes take their
    constants as arrays: numpy converts a Python int operand on every call,
    which costs about as much as an operation on a few words."""
    return np.array(value, dtype=np.uint64)


_LOW32, _BITS = _u64(_MASK32), {k: _u64(k) for k in (1, 16, 32, 58, 63, 64)}


def _hash_steps(init: int, mult: int, count: int) -> tuple[list[int], list[int]]:
    """The constants of count steps of SeedSequence's hashmix: the one each
    step xors in, and the one it then multiplies by (the next)."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return consts[:-1], consts[1:]


def _seed_hashes() -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The (xor, mult) constants of SeedSequence's hashmix steps (NEP 19),
    each (rows, 1) uint64: one per pool word, then, for each source word,
    one per pool word (its 3 mixes; the source's own row is a 0 placeholder),
    then one per drawn word."""
    xor, mult = _hash_steps(0x43B0D7E5, 0x931E8875, 16)
    hashes = [(xor[:4], mult[:4])]
    for src in range(4):
        first = 4 + 3 * src
        hashes.append(tuple(c[first:first + src] + [0] + c[first + src:first + 3]
                            for c in (xor, mult)))
    hashes.append(_hash_steps(0x8B51F9DD, 0x58F38DED, 8))
    return tuple((_u64(x)[:, None], _u64(m)[:, None]) for x, m in hashes)


_SEED_HASHES, _MIX_L, _MIX_R = _seed_hashes(), _u64(0xCA01F9DD), _u64(0x4973F715)


def _seed_halves(seeds: np.ndarray) -> np.ndarray:
    """The 128-bit seed s and stream i that PCG64(seed) reads from
    SeedSequence(seed), for each seed of the uint64 array seeds: (4, S)
    uint64, the high and low 64-bit halves of s, then of i.

    SeedSequence hashes the seed's two 32-bit words into a pool of 4, mixes
    each pool word into the other 3, and draws 8 words from the pool, in
    uint32 arithmetic, done here in uint64 masked to 32 bits; the mixes of
    one source word are one pass over the pool.
    """
    def hashmix(value, xor, mult):
        value = (value ^ xor) * mult & _LOW32
        return value ^ value >> _BITS[16]

    (xor, mult), *mixes, draws = _SEED_HASHES
    pool = np.zeros((4, seeds.size), dtype=np.uint64)
    np.bitwise_and(seeds, _LOW32, out=pool[0])
    np.right_shift(seeds, _BITS[32], out=pool[1])
    pool = hashmix(pool, xor, mult)
    for src, (xor, mult) in enumerate(mixes):
        mixed = (pool * _MIX_L - hashmix(pool[src], xor, mult) * _MIX_R) & _LOW32
        mixed ^= mixed >> _BITS[16]
        mixed[src] = pool[src]
        pool = mixed
    words = hashmix(np.concatenate([pool, pool]), *draws)
    return words[0::2] | words[1::2] << _BITS[32]


@lru_cache(maxsize=16)
def _jumps(count: int) -> tuple[np.ndarray, ...]:
    """The LCG jump-ahead constants of steps j = 0..count, as (2, 1, count + 1)
    uint64 arrays (hi, lo, lo's low 32 bits, lo's high 32 bits): row 0 holds
    A_{j+1} = M^(j+1) and row 1 C_{j+2} = sum_{i <= j+1} M^i, mod 2^128.

    PCG64(seed) starts at s_0 = M s + (M + 1) inc (pcg64_srandom) from its
    seed s and increment inc, and steps s_{k+1} = M s_k + inc, so s_k =
    A_k s_0 + C_k inc = A_{k+1} s + C_{k+2} inc, with A_k = M^k and C_k =
    sum_{i < k} M^i.
    """
    consts, power, total = [], _PCG64_MULT, 1 + _PCG64_MULT
    for _ in range(count + 1):
        consts.append((power, total))
        power = power * _PCG64_MULT & _MASK128
        total = (total + power) & _MASK128
    hi, lo = (_u64([[c >> shift & _MASK64 for c in row] for row in zip(*consts)])[:, None]
              for shift in (64, 0))
    parts = hi, lo, lo & _LOW32, lo >> _BITS[32]
    for part in parts:  # every caller shares them
        part.flags.writeable = False
    return parts


def _lcg_states(seeds: np.ndarray, steps: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The LCG states s_j of PCG64(seed) at steps j (a slice of range(count +
    1)) for each seed of the uint64 array seeds, as their high and low 64-bit
    halves, (S, J) each, and the seeds' increments inc, (2, S): high, low.

    s_j = A_{j+1} s + C_{j+2} inc (mod 2^128, _jumps) is two 128-bit products
    in one pass over both, in 64-bit halves: the low halves' full product
    from 32-bit limbs, the cross terms wrapping mod 2^64.
    """
    halves = _seed_halves(seeds)
    i_hi, i_lo = halves[2:]
    i_hi <<= _BITS[1]  # inc = 2i + 1
    i_hi |= i_lo >> _BITS[63]
    i_lo <<= _BITS[1]
    i_lo |= _BITS[1]
    x_hi, x_lo = halves[0::2, :, None], halves[1::2, :, None]  # (2, S, 1): s, inc
    x_lo0, x_lo1 = x_lo & _LOW32, x_lo >> _BITS[32]
    a_hi, a_lo, a_lo0, a_lo1 = (part[..., steps] for part in _jumps(steps.stop - 1))
    low = a_lo * x_lo
    t, y, z = a_lo0 * x_lo0, a_lo0 * x_lo1, a_lo1 * x_lo0
    t >>= _BITS[32]
    t += y & _LOW32
    t += z & _LOW32
    t >>= _BITS[32]  # the carry out of the low halves' low 64 bits
    t += a_hi * x_lo
    t += a_lo * x_hi
    t += a_lo1 * x_lo1
    t += y >> _BITS[32]
    t += z >> _BITS[32]
    (p, q), (hi_p, hi_q) = low, t
    lo = p + q
    hi = (p & q | (p | q) & ~lo) >> _BITS[63]  # the carry of lo
    hi += hi_p
    hi += hi_q
    return hi, lo, halves[2:]


def _pcg64_states(seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit (state, inc) that PCG64(seed) starts in, for each seed of
    the uint64 array seeds: two (2, S) uint64 arrays, the high and then the
    low 64-bit halves of each (_lcg_states at step 0)."""
    hi, lo, inc = _lcg_states(seeds, slice(0, 1))
    return np.concatenate([hi.T, lo.T]), inc


def _pcg64_words(seeds: np.ndarray, count: int) -> np.ndarray:
    """The first count raw words of PCG64(seed), those of its random_raw(count),
    for each seed of the uint64 array seeds: (S, count) uint64.

    Word k is XSL-RR of the LCG state s_k, k = 1..count (_lcg_states): the
    state's high half xor its low half, rotated right by its top 6 bits. The
    seeds run in blocks of about _WORDS_BLOCK words.
    """
    words = np.empty((seeds.size, count), dtype=np.uint64)
    rows = max(_WORDS_BLOCK // count, 1)
    for first in range(0, seeds.size, rows):
        hi, x, _ = _lcg_states(seeds[first:first + rows], slice(1, count + 1))
        x ^= hi
        rot = hi >> _BITS[58]
        out = words[first:first + rows]
        np.right_shift(x, rot, out=out)
        rot = _BITS[64] - rot
        rot &= _BITS[63]
        out |= x << rot
    return words


def _generators(seeds: np.ndarray):
    """Generator(PCG64(seed)) for each seed of the uint64 array seeds in turn,
    as one generator re-seeded by state: each is spent once the next is drawn."""
    rng = _rng(0)
    state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    states, incs = _pcg64_states(seeds.ravel())
    for s_hi, s_lo, i_hi, i_lo in zip(*states.tolist(), *incs.tolist()):
        state["state"] = {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}
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
    by one _subsets draw; without_replacement redraws a set that an earlier
    split of its pool already has.
    """
    U, m_val = vals.shape[-2:]
    masters = np.asarray(master_seeds & _MASK64, dtype=np.uint64)[..., None]
    seeds = derive_seed(masters, np.arange(U, dtype=np.uint64)).ravel()
    distinct = U if mode == "without_replacement" else 1
    vals[...] = _subsets(n, m_val, seeds, distinct).reshape(vals.shape)


def _subsets(n: int, m: int, seeds: np.ndarray, distinct: int = 1) -> np.ndarray:
    """Ascending m-subsets of range(n), 1 <= m < n < 2^31, one row per seed of
    the uint64 array seeds: (S, m) int64. Each row takes its stream's first
    ceil(m/2) raw PCG64 words from one jump-ahead pass (_pcg64_words), and
    _floyd draws every row from them at once. So row i has the bits of
    np.sort(Generator(PCG64(seeds[i])).choice(n, m, replace=False)) wherever
    numpy runs Floyd's algorithm too (n <= 10000 or m <= n // 50).

    distinct > 1 takes the rows as pools of distinct consecutive rows: a row
    that an earlier row of its pool holds is drawn again, from the words
    that follow in its stream, until it is new.
    """
    width = (m + 1) // 2
    words = _pcg64_words(seeds, width)
    streams = {}

    def more(i: int, count: int) -> np.ndarray:
        """The next count words of row i's stream, past those drawn already."""
        if i not in streams:
            streams[i] = PCG64(int(seeds[i]))
            streams[i].advance(width)
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
    clamped to [1, n-1]. Both index vectors come back sorted. The test rows
    are a _subsets draw from seed, an int >= 0 taken mod 2^64 as a master
    seed is.
    """
    require_count(seed, "seed")
    if not (0.0 <= fraction < 1.0):
        raise ContractViolationError("holdout fraction must be in [0, 1)")
    if fraction == 0.0:
        return np.arange(n), np.empty(0, dtype=np.int64)
    size = min(max(_round_half_up(n * fraction), 1), n - 1)
    test = _subsets(n, size, np.array([seed & _MASK64], dtype=np.uint64))[0]
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


def _draw_rows(task: str, n: int, d: int, classes: int, noise_sigma: float, rngs, count: int,
               beta_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows X (C, n, d) and targets y (C, n) of synthetic for each of the
    C = count generators that rngs yields, with no checks: row j is
    synthetic's draw at seed when the j-th is Generator(PCG64(seed)).
    Each generator fills its row of one (C, n (d + e)) buffer of normals by
    one standard_normal call, X and then the noise (e = 1 for regression,
    classes otherwise); the rest runs once over the whole stack.
    """
    extra = 1 if task == "regression" else classes
    normals = np.empty((count, n * (d + extra)))
    for row, rng in zip(normals, rngs, strict=True):
        rng.standard_normal(out=row)
    X, noise = normals[:, :n * d].reshape(count, n, d), normals[:, n * d:]
    # the logits, or the regression targets, take the scaled noise's place
    # (a + b is b + a, bit for bit), so the draw holds no second (C, n) array
    noise *= noise_sigma
    if task == "regression":
        noise += X @ _shared_beta(beta_seed, (d,))
        return X, noise
    logits = noise.reshape(count, n, classes)
    logits += X @ _shared_beta(beta_seed, (d, classes))
    y = np.argmax(logits, axis=-1).astype(np.float64)
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
    require_count(seed, "seed")
    require_count(beta_seed, "beta_seed")
    X, y = _draw_rows(task, n, d, classes, noise_sigma, [_rng(seed)], 1, beta_seed)
    return Dataset(X=X[0], y=y[0], task=task, num_classes=classes if task == "multiclass" else 0)


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
    require_count(seed, "seed")
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
