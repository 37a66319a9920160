"""Datasets, seeded splits, generators, corruption, libsvm ingestion."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from bihpo import data
from bihpo.data import (
    DataView,
    Dataset,
    SplitPlan,
    StackedView,
    _all_val_sets,
    _draw_rows,
    _fill_val_sets,
    _floyd,
    _generators,
    _pcg64_states,
    _pcg64_words,
    _subsets,
    carve_holdout,
    complements,
    corrupt_labels,
    derive_seed,
    draw_val_sets,
    full_view,
    gen_linear,
    gen_multiclass,
    make_splits,
    read_libsvm,
    split_stacks,
    splitmix64,
    subset,
    synthetic,
    val_size,
)
from bihpo.errors import ContractViolationError, InfeasiblePlanError, ParseError


# ---------------------------------------------------------------------------
# seeding

def test_splitmix64_reference_values():
    # published splitmix64 sequence for seed 1234567: next() adds the golden
    # constant to the state and scrambles, which is splitmix64(state) here
    expected = [6457827717110365317, 3203168211198807973, 9817491932198370423]
    state = 1234567
    outs = []
    for _ in range(3):
        outs.append(splitmix64(state))
        state = (state + 0x9E3779B97F4A7C15) % (1 << 64)
    assert outs == expected


def test_derive_seed_is_deterministic_and_spread():
    a = derive_seed(42, 0)
    assert a == derive_seed(42, 0)
    seen = {derive_seed(42, i) for i in range(1000)}
    assert len(seen) == 1000
    assert derive_seed(42, 1) != derive_seed(43, 1)


@pytest.mark.parametrize("master", [0, 42, 2**63 + 5, 2**64 - 1, 2**70 + 3])
def test_derive_seed_of_an_array_is_the_scalar_seed_of_each_counter(master):
    # a master seed past 2^64 (a config may give one) is taken mod 2^64 on both paths
    counters = np.array([0, 1, 2, 7, 2**32, 2**64 - 1], dtype=np.uint64)
    seeds = derive_seed(master, counters)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [derive_seed(master, int(c)) for c in counters]
    masters = np.array([master & (2**64 - 1)], dtype=np.uint64)[:, None]
    assert derive_seed(masters, counters).tolist() == [seeds.tolist()]


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def seeds_and_edges(seed, count):
    """The edge seeds, then count random uint64 seeds."""
    random = np.random.default_rng(seed).integers(0, 2**64, count, dtype=np.uint64)
    return np.concatenate([np.array(EDGE_SEEDS, dtype=np.uint64), random])


def test_batch_pcg64_states_are_numpys():
    seeds = seeds_and_edges(31, 1000)
    states, incs = _pcg64_states(seeds)
    assert states.dtype == incs.dtype == np.uint64
    assert states.shape == incs.shape == (2, seeds.size)
    for seed, (s_hi, s_lo), (i_hi, i_lo) in zip(seeds.tolist(), states.T.tolist(),
                                                 incs.T.tolist()):
        assert np.random.PCG64(seed).state["state"] == {"state": s_hi << 64 | s_lo,
                                                        "inc": i_hi << 64 | i_lo}


@pytest.mark.parametrize("count", [1, 2, 13, 150, 5000])
def test_jump_ahead_words_are_numpys_raw_words(count):
    seeds = seeds_and_edges(34, 300)
    words = _pcg64_words(seeds, count)
    assert words.dtype == np.uint64 and words.shape == (seeds.size, count)
    for seed, row in zip(seeds.tolist(), words):
        assert row.tobytes() == np.random.PCG64(seed).random_raw(count).tobytes()


def test_reseeded_generator_draws_as_a_fresh_one():
    seeds = np.array([5, 2**40 + 1, 5, 0], dtype=np.uint64)
    for seed, rng in zip(seeds.tolist(), _generators(seeds)):
        fresh = np.random.Generator(np.random.PCG64(seed))
        assert rng.bit_generator.state == fresh.bit_generator.state
        assert rng.choice(100, 25, replace=False).tobytes() == \
            fresh.choice(100, 25, replace=False).tobytes()
        assert rng.standard_normal(7).tobytes() == fresh.standard_normal(7).tobytes()
        # an odd number of 32-bit draws leaves half a 64-bit word buffered,
        # which the next re-seed must drop
        rng.integers(0, 2**31, size=3)
        while not rng.bit_generator.state["has_uint32"]:
            rng.integers(0, 2**31)


# ---------------------------------------------------------------------------
# Dataset / DataView

def test_dataset_validation():
    with pytest.raises(ContractViolationError):
        Dataset(X=np.ones((3, 2)), y=np.ones(2), task="regression")
    with pytest.raises(ContractViolationError):
        Dataset(X=np.ones((2, 1)), y=np.array([0.0, 2.0]), task="binary")
    with pytest.raises(ContractViolationError):
        Dataset(X=np.ones((2, 1)), y=np.array([0.0, 3.0]), task="multiclass",
                num_classes=3)


def test_view_sorts_indices_and_caches_gram():
    ds = Dataset(X=np.arange(8.0).reshape(4, 2), y=np.arange(4.0), task="regression")
    v = DataView(ds, np.array([3, 0, 2]))
    assert_array_equal(v.idx, [0, 2, 3])
    A, b = v.gram
    assert_allclose(A, v.X.T @ v.X / v.m)
    assert_allclose(b, v.X.T @ v.y / v.m)


def member_views(d, k=None):
    """Five train views of one dataset with d features (k classes when given),
    and the train stack of their splits."""
    if k is None:
        ds, _ = gen_linear(60, d, 0.5, seed=d, beta_seed=1)
    else:
        ds, _ = gen_multiclass(60, d, k, 0.3, seed=d, beta_seed=1)
    vals = draw_val_sets(ds.n, SplitPlan(U=5, gamma=0.25, master_seed=d))
    views = [DataView(ds, train) for train in complements(ds.n, vals)]
    return views, split_stacks(ds.X, ds.y, vals, ds.num_classes)[0]


@pytest.mark.parametrize("d", [1, 3, 10, 20])
def test_rows_stack_has_the_bits_of_its_member_views(d):
    views, _ = member_views(d)
    stack = StackedView(np.stack([v.X for v in views]), np.stack([v.y for v in views]))
    assert len(stack) == 5 and stack.m == views[0].m
    A, b = stack.gram
    for i, v in enumerate(views):
        assert A[i].tobytes() == v.gram[0].tobytes()
        assert b[i].tobytes() == v.gram[1].tobytes()


def test_take_gathers_members_as_they_are_read():
    views, stack = member_views(3)
    for index in (np.array([4, 0, 4]), slice(1, 3)):
        taken = stack.take(index)
        assert len(taken) == len(np.arange(5)[index])
        A = taken.gram[0]
        assert "X" not in vars(taken)  # the Gram pair is gathered, not recomputed
        for row, i in zip(A, np.arange(5)[index]):
            assert row.tobytes() == views[i].gram[0].tobytes()
        assert_array_equal(taken.X, np.stack([views[i].X for i in np.arange(5)[index]]))
    with pytest.raises(ContractViolationError):
        stack.take(slice(5, 9))
    with pytest.raises(ContractViolationError):
        StackedView(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ContractViolationError, match="no one_hot"):
        StackedView(np.ones((2, 3, 1)), np.ones((2, 3))).one_hot
    rows = StackedView(np.stack([v.X for v in views]), np.stack([v.y for v in views]))
    index = np.array([3, 1, 3])
    for s, picked in ((rows, range(5)), (rows.take(index), index),
                      (stack.take(index), index), (rows.take(index).take([2, 0]), [3, 3])):
        for name in ("Xt", "yXt"):
            got = getattr(s, name)
            assert got.flags.c_contiguous and len(got) == len(picked)
            for row, i in zip(got, picked):
                assert row.tobytes() == getattr(views[i], name).tobytes()


@pytest.mark.parametrize("d", [1, 3, 10, 20])
def test_view_gram_keeps_the_bits_of_the_plain_products(d):
    for v in member_views(d)[0] + [full_view(gen_linear(m, d, 0.5, seed=m)[0]) for m in (1, 2, 7)]:
        A, b = v.gram
        assert A.tobytes() == (v.X.T @ v.X / v.m).tobytes()
        assert b.tobytes() == (v.X.T @ v.y / v.m).tobytes()


def test_softmax_caches_are_feature_and_class_major():
    views, stack = member_views(3, k=4)
    for v in views:
        assert v.Xt.flags.c_contiguous and v.Xt.shape == (3, v.m)
        assert_array_equal(v.Xt, v.X.T)
        assert v.one_hot.shape == (4, v.m)
        assert_array_equal(v.one_hot.argmax(axis=0), v.y)
        assert_array_equal(v.one_hot.sum(axis=0), 1.0)
    index = np.array([4, 0, 4])
    taken = stack.take(index)
    for name in ("Xt", "one_hot"):
        assert getattr(stack, name).flags.c_contiguous
        for got, i in [*zip(getattr(stack, name), range(5)),
                       *zip(getattr(taken, name), index)]:
            assert got.tobytes() == getattr(views[i], name).tobytes()


def test_take_of_a_take_gathers_only_its_own_members():
    views, stack = member_views(3)
    members = stack.take(np.array([4, 0, 4, 2]))
    for index, picked in ((slice(1, 3), [0, 4]), (np.array([3, 0]), [2, 4])):
        run = members.take(index)
        for row, i in zip(run.gram[0], picked):
            assert row.tobytes() == views[i].gram[0].tobytes()
        assert_array_equal(run.y, np.stack([views[i].y for i in picked]))
    assert "gram" not in vars(members) and "y" not in vars(members)


@pytest.mark.parametrize("d", [1, 10])
@pytest.mark.parametrize("task", ["regression", "binary", "multiclass"])
def test_split_stacks_hold_the_bits_of_each_splits_views(task, d):
    # the strategies and the diagnostics stack a plan's splits by split_stacks
    # alone, so each member must be its split's DataView, value by value
    ds = synthetic(task, 40, d, 3 if task == "multiclass" else 2, 0.4, seed=d, beta_seed=1)
    vals = draw_val_sets(ds.n, SplitPlan(U=4, gamma=0.25, master_seed=d))
    train, val = split_stacks(ds.X, ds.y, vals, ds.num_classes)
    names = ("X", "y", "Xt", "yXt", "gram") + (("one_hot",) if ds.num_classes else ())
    for stack, rows in ((train, complements(ds.n, vals)), (val, vals)):
        assert len(stack) == 4 and stack.num_classes == ds.num_classes
        for u, idx in enumerate(rows):
            view = DataView(ds, idx)
            for name in names:
                got, want = getattr(stack, name), getattr(view, name)
                for g, w in zip(got, want) if name == "gram" else [(got, want)]:
                    assert g[u].shape == w.shape and g[u].tobytes() == w.tobytes(), (name, u)


@pytest.mark.parametrize("idx, message", [
    ([3, 0, 3], "distinct"),
    ([1, 1], "distinct"),
    ([0, 2, 0, 2], "distinct"),
    ([0, 4], "out of range"),
    ([-1, 2], "out of range"),
    ([], "non-empty"),
])
def test_view_refuses_bad_indices(idx, message):
    ds = Dataset(X=np.arange(8.0).reshape(4, 2), y=np.arange(4.0), task="regression")
    with pytest.raises(ContractViolationError, match=message):
        DataView(ds, np.array(idx, dtype=np.int64))


# ---------------------------------------------------------------------------
# val_size / splits

def test_val_size_examples():
    assert val_size(10, 1.0) == 5
    assert val_size(22, 1.0 / 11.0) == 2
    assert val_size(6, 0.5) == 2
    # clamping: tiny gamma still leaves one validation point
    assert val_size(5, 1e-6) == 1
    assert val_size(5, 1e6) == 4


def test_make_splits_partition_and_determinism():
    plan = SplitPlan(U=4, gamma=0.5, mode="without_replacement", master_seed=9)
    splits = make_splits(12, plan)
    again = make_splits(12, plan)
    assert len(splits) == 4
    for s, t in zip(splits, again):
        assert_array_equal(s.train_idx, t.train_idx)
        assert_array_equal(s.val_idx, t.val_idx)
        assert len(np.intersect1d(s.train_idx, s.val_idx)) == 0
        assert_array_equal(np.sort(np.concatenate([s.train_idx, s.val_idx])),
                           np.arange(12))


def test_make_splits_exhausts_distinct_partitions():
    splits = make_splits(6, SplitPlan(U=15, gamma=0.5, mode="without_replacement",
                                      master_seed=3))
    val_sets = {tuple(s.val_idx) for s in splits}
    assert len(val_sets) == 15
    assert all(len(s.val_idx) == 2 for s in splits)


def test_make_splits_infeasible():
    with pytest.raises(InfeasiblePlanError):
        make_splits(6, SplitPlan(U=16, gamma=0.5, mode="without_replacement",
                                 master_seed=3))


@pytest.mark.parametrize("over,field", [
    ({"U": 0}, "U"), ({"U": 2.0}, "U"), ({"U": "5"}, "U"),
    ({"gamma": 0.0}, "gamma"), ({"gamma": float("inf")}, "gamma"), ({"gamma": "0.3"}, "gamma"),
    ({"mode": "bootstrap"}, "mode"), ({"master_seed": -1}, "master_seed"),
])
def test_split_plan_names_the_field_it_refuses(over, field):
    with pytest.raises(ContractViolationError) as err:
        SplitPlan(**over)
    assert err.value.field == field


def test_make_splits_with_replacement_allows_duplicates():
    splits = make_splits(4, SplitPlan(U=30, gamma=1.0 / 3.0, mode="with_replacement",
                                      master_seed=0))
    assert len(splits) == 30  # 4 distinct partitions exist; duplicates tolerated


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 40), st.floats(0.05, 1.0), st.integers(1, 5),
       st.integers(0, 2**32))
def test_split_partition_property(n, gamma, U, seed):
    plan = SplitPlan(U=U, gamma=gamma, mode="with_replacement", master_seed=seed)
    for s in make_splits(n, plan):
        assert len(s.val_idx) >= 1 and len(s.train_idx) >= 1
        assert_array_equal(np.sort(np.concatenate([s.train_idx, s.val_idx])),
                           np.arange(n))


def test_all_val_sets_counts():
    assert len(_all_val_sets(4, 1.0 / 3.0)) == 4
    assert len(_all_val_sets(6, 0.5)) == 15
    assert len(_all_val_sets(22, 1.0 / 11.0)) == 231


def test_all_val_sets_lexicographic_and_guarded():
    vals = [tuple(val) for val in _all_val_sets(5, 0.25)]
    assert vals == sorted(vals)
    with pytest.raises(InfeasiblePlanError):
        _all_val_sets(40, 0.5)


def test_carve_holdout():
    pool, test = carve_holdout(10, 0.3, seed=1)
    assert len(test) == 3 and len(pool) == 7
    assert_array_equal(np.sort(np.concatenate([pool, test])), np.arange(10))
    pool0, test0 = carve_holdout(10, 0.0, seed=1)
    assert len(test0) == 0 and len(pool0) == 10
    with pytest.raises(ContractViolationError):
        carve_holdout(10, 0.3, seed=-1)


def test_carve_holdout_draws_the_set_of_numpys_choice():
    for seed in (1, 77, 2**40 + 3):
        pool, test = carve_holdout(300, 0.2, seed)
        fresh = np.random.Generator(np.random.PCG64(seed))
        assert test.tobytes() == np.sort(fresh.choice(300, 60, replace=False)).tobytes()
        assert pool.tobytes() == complements(300, test[None])[0].tobytes()
    # a seed of 2^64 or more is taken mod 2^64, as a master seed is
    assert carve_holdout(300, 0.2, 2**64 + 77)[1].tobytes() == \
        carve_holdout(300, 0.2, 77)[1].tobytes()


# ---------------------------------------------------------------------------
# the subset draw: Floyd's algorithm over Lemire's bounded draws

def choice_sets(n, m, seeds):
    return np.array([np.sort(np.random.Generator(np.random.PCG64(seed)).choice(
        n, m, replace=False)) for seed in seeds.tolist()])


# every m of the small pools; at the large ones the edges, the 1/50 share past
# which numpy shuffles a tail instead once n > 10000 (so at 20000 only up to
# it), and the middle
SUBSET_CASES = ([(n, m) for n in (2, 3, 5, 8, 13, 31) for m in range(1, n)]
                + [(n, m) for n in (100, 1000, 10000)
                   for m in (1, 2, n // 50, n // 4, n // 2, n - 1)]
                + [(20000, 400)])


@pytest.mark.parametrize("n, m", SUBSET_CASES)
def test_subsets_are_the_sets_of_numpys_choice(n, m):
    seeds = derive_seed(n * 10007 + m, np.arange(24 if n < 10000 else 6, dtype=np.uint64))
    rows = _subsets(n, m, seeds)
    assert rows.dtype == np.int64 and rows.shape == (seeds.size, m)
    assert rows.tobytes() == choice_sets(n, m, seeds).tobytes()


def test_subsets_of_seeds_whose_choice_rejects_a_draw():
    # at these seeds numpy's Lemire draw rejects a word: choice spends more
    # than the ceil(m/2) words of a stream with no rejection
    n, m, seeds = 10000, 5000, np.array([12433, 12636, 12434], dtype=np.uint64)
    for seed, rejects in zip(seeds.tolist(), (True, True, False)):
        rng = np.random.Generator(np.random.PCG64(seed))
        rng.choice(n, m, replace=False, shuffle=False)
        plain = np.random.PCG64(seed)
        plain.random_raw(m // 2)
        assert (rng.bit_generator.state["state"] != plain.state["state"]) == rejects
    assert _subsets(n, m, seeds).tobytes() == \
        choice_sets(n, m, seeds).tobytes()


def words_of(halves):
    """uint64 words whose 32-bit halves, low half first, are halves."""
    halves = np.array(halves, dtype=np.uint64)
    return halves[0::2] | halves[1::2] << np.uint64(32)


def test_floyd_takes_j_for_a_taken_draw_by_both_rules():
    # n = 5, m = 3 draws v_0 in [0, 2], v_1 in [0, 3], v_2 in [0, 4]: v = 1, 1, 3.
    # v_1 repeats v_0, so step 1 takes j_1 = 3; v_2 = 3 is then taken, though
    # no earlier v is 3, so step 2 takes j_2 = 4
    words = words_of([0x80000000, 0x60000000, 0xB3333333, 0])
    assert _floyd(words[None], 5, 3, more=None).tolist() == [[1, 3, 4]]


def test_floyd_redraws_a_rejected_draw_from_the_rows_stream():
    # n = 10, m = 3 draws into spans 8, 9 and 10, whose Lemire thresholds are
    # 0, 4 and 6. Step 0 draws 4 from 2^31 (low bits 0, no rejection); step 1
    # rejects 0 twice in a row, then draws 4 from 2^31, taken, so it keeps
    # j_1 = 8; step 2 needs a fifth half, from a word past the row's own two,
    # and draws 9 from 2^32 - 1
    asked = []

    def more(row, count):
        asked.append((row, count))
        return words_of([0xFFFFFFFF, 5])

    words = np.stack([words_of([0x40000001, 0x80000001, 0x40000001, 0]),
                      words_of([0x80000000, 0, 0, 0x80000000])])
    rows = _floyd(words, 10, 3, more)
    assert asked == [(1, 1)]
    # row 0 draws 2, 4, 2 with no low bits below their span, in the one pass
    assert rows.tolist() == [[2, 4, 9], [4, 8, 9]]
    # given the fifth half in its own words, the row asks for none
    asked.clear()
    longer = words_of([0x80000000, 0, 0, 0x80000000, 0xFFFFFFFF, 5])
    assert _floyd(longer[None], 10, 3, more).tolist() == [[4, 8, 9]] and asked == []


def test_a_pool_drawn_in_a_batch_is_the_pool_drawn_alone():
    masters = np.array([[3, 2**63 + 1], [0, 3]], dtype=np.uint64)
    for mode in ("with_replacement", "without_replacement"):
        vals = np.empty((2, 2, 4, val_size(9, 1.0)), dtype=np.int64)
        _fill_val_sets(vals, 9, mode, masters)
        for index in np.ndindex(2, 2):
            plan = SplitPlan(U=4, gamma=1.0, mode=mode, master_seed=int(masters[index]))
            assert vals[index].tobytes() == draw_val_sets(9, plan).tobytes()


def test_a_duplicate_split_is_redrawn_from_its_streams_next_words():
    # n = 4 at gamma = 1 has C(4, 2) = 6 validation sets; U = 6 asks for all
    # of them, so most splits redraw, each from the words that follow its own
    # in its stream, until it holds a set no earlier split holds
    plan = SplitPlan(U=6, gamma=1.0, master_seed=11)
    vals = draw_val_sets(4, plan)
    assert vals.tobytes() == draw_val_sets(4, plan).tobytes()
    seen = set()
    for u, val in enumerate(vals):
        stream = np.random.PCG64(derive_seed(11, u))

        def more(_, count):
            return stream.random_raw(count)

        expected = _floyd(more(0, 1)[None], 4, 2, more)[0]
        while tuple(expected) in seen:
            expected = _floyd(more(0, 1)[None], 4, 2, more)[0]
        seen.add(tuple(expected))
        assert val.tolist() == expected.tolist()
    assert len(seen) == 6


def test_duplicate_redraws_keep_their_budget(monkeypatch):
    # a draw that only ever gives one set exhausts the budget of 1000 U + 1000
    # redraws of a pool, and is refused as before
    calls = []

    def floyd(words, n, m, more):
        calls.append(len(words))
        return np.tile(np.arange(m), (len(words), 1))

    monkeypatch.setattr(data, "_floyd", floyd)
    with pytest.raises(InfeasiblePlanError, match="resampling budget exhausted") as err:
        draw_val_sets(8, SplitPlan(U=3, gamma=1.0, master_seed=0))
    assert err.value.field_path == "split.U"
    assert calls == [3] + [1] * 3999


# ---------------------------------------------------------------------------
# generators

def test_gen_linear_zero_noise_is_exact():
    ds, beta = gen_linear(20, 3, 0.0, seed=5, beta_seed=2)
    assert_allclose(ds.y, ds.X @ beta)


def test_gen_linear_deterministic():
    a, _ = gen_linear(100, 5, 0.1, seed=11, beta_seed=0)
    b, _ = gen_linear(100, 5, 0.1, seed=11, beta_seed=0)
    assert_array_equal(a.X, b.X)
    assert_array_equal(a.y, b.y)
    c, _ = gen_linear(100, 5, 0.1, seed=12, beta_seed=0)
    assert not np.array_equal(a.X, c.X)


def test_gen_multiclass_labels_in_range():
    ds, W = gen_multiclass(50, 4, 3, 0.2, seed=8, beta_seed=1)
    assert ds.task == "multiclass" and ds.num_classes == 3
    assert set(np.unique(ds.y)).issubset({0.0, 1.0, 2.0})
    assert W.shape == (4, 3)


# sha256 of the rows X and targets y that _draw_rows gives for 16 rows at noise
# 0.4 and beta_seed 7, with 3 classes for multiclass: every synthetic draw of
# the library (the commands, `bihpo check`, the diagnostics) has these bits
RECIPE_SHA256 = {
    ("regression", 0, 1): "35375de5977f7ed62964bc6d606233529f9e34676a72385b311c2187637dcee8",
    ("regression", 0, 3): "b8a75b3a2d3cadcb3ab8ae31f22aaf39e2e7c6b3998eb8034e9400f386e4a20d",
    ("regression", 1000, 1): "fb0dd6df7654617a8a151eada3d814c0da3dd9da93970429acbfec522bfe76ff",
    ("regression", 1000, 3): "730c18aa3b1374332c5ea2391ecec402e8b5629714669856d0f02d72d07d2ca2",
    ("binary", 0, 1): "35b75e5d6896ce014929bfbea5e944a02db33fd84c62f9a71faef1a06804622c",
    ("binary", 0, 3): "a2f7050b8ca64378f1419c1ecbab632c7e1f91cbdfff56c042f67af1d5e9a413",
    ("binary", 1000, 1): "4651d73eb1a289f6012666eb929a471fa480f6b57c7a7571a1f23d9647d39f50",
    ("binary", 1000, 3): "8a21dde7aba8a7cf42be9f8d69b8081019412da047dc5e7f09627d3fdadf78c1",
    ("multiclass", 0, 1): "33514eabc434a0ebfb84749ee81acb03bed808396b5d96325e0df2a15d1f93d3",
    ("multiclass", 0, 3): "2f48152bcbc22be7540d60a06d2bced2ad30dc836a999ab52e2d941184006926",
    ("multiclass", 1000, 1): "8caf92f553ef16f230279369d71b25b5f0346e3faddb3cd902a519043d80f7c4",
    ("multiclass", 1000, 3): "703a1360a443957cd5c820cca51effb18421eb09a94e7822f2f532e545cdab46",
}


@pytest.mark.parametrize("task, seed, d", sorted(RECIPE_SHA256))
def test_synthetic_recipe_keeps_its_bits(task, seed, d):
    X, y = _draw_rows(task, 16, d, 3 if task == "multiclass" else 2, 0.4,
                      [np.random.Generator(np.random.PCG64(seed))], 1, 7)
    assert X.shape == (1, 16, d) and y.shape == (1, 16)
    digest = hashlib.sha256(X[0].tobytes() + y[0].tobytes()).hexdigest()
    assert digest == RECIPE_SHA256[task, seed, d]
    ds = synthetic(task, 16, d, 3 if task == "multiclass" else 2, 0.4, seed, 7)
    assert ds.X.tobytes() == X[0].tobytes() and ds.y.tobytes() == y[0].tobytes()


@pytest.mark.parametrize("count", [1, 50, 310])
@pytest.mark.parametrize("d", [1, 3, 20])  # d >= 2 multiplies through BLAS
@pytest.mark.parametrize("task", ["regression", "binary", "multiclass"])
def test_a_stack_of_rows_is_synthetics_draw_at_each_seed(task, d, count):
    classes = 4 if task == "multiclass" else 2
    seeds = derive_seed(count * 100 + d, np.arange(count, dtype=np.uint64))
    X, y = _draw_rows(task, 12, d, classes, 0.3, _generators(seeds), count, 5)
    assert X.shape == (count, 12, d) and y.shape == (count, 12)
    for j, seed in enumerate(seeds.tolist()):
        ds = synthetic(task, 12, d, classes, 0.3, seed, 5)
        assert X[j].tobytes() == ds.X.tobytes() and y[j].tobytes() == ds.y.tobytes()


def test_generators_are_synthetic_with_its_ground_truth():
    ds, beta = gen_linear(20, 3, 0.3, seed=4, beta_seed=2)
    assert ds.y.tobytes() == synthetic("regression", 20, 3, 0, 0.3, 4, 2).y.tobytes()
    ds, W = gen_multiclass(20, 3, 4, 0.3, seed=4, beta_seed=2)
    assert ds.y.tobytes() == synthetic("multiclass", 20, 3, 4, 0.3, 4, 2).y.tobytes()
    W[:] = 0.0  # the caller's copy; the next draw keeps its ground truth
    assert gen_multiclass(20, 3, 4, 0.3, seed=4, beta_seed=2)[1].any()


@pytest.mark.parametrize("task, classes, field", [
    ("binary", 3, "classes"), ("binary", 0, "classes"), ("multiclass", 1, "classes"),
    ("multiclass", 0, "classes"), ("ranking", 2, "task")])
def test_synthetic_refuses_a_task_or_class_count_it_cannot_draw(task, classes, field):
    with pytest.raises(ContractViolationError) as err:
        synthetic(task, 10, 2, classes, 0.3, seed=0)
    assert err.value.field == field


@pytest.mark.parametrize("noise_sigma", [float("nan"), float("inf")])
def test_generators_refuse_non_finite_noise(noise_sigma):
    # a nan noise scale would make every gen_multiclass argmax label 0, silently
    for draw in (lambda: gen_linear(10, 2, noise_sigma, seed=0),
                 lambda: gen_multiclass(10, 2, 3, noise_sigma, seed=0)):
        with pytest.raises(ContractViolationError) as err:
            draw()
        assert err.value.field == "noise_sigma"


@pytest.mark.parametrize("draw, field", [
    (lambda seed: synthetic("regression", 10, 2, 0, 0.3, seed=seed), "seed"),
    (lambda seed: synthetic("binary", 10, 2, 2, 0.3, seed=0, beta_seed=seed), "beta_seed"),
    (lambda seed: corrupt_labels(synthetic("binary", 10, 2, 2, 0.3, seed=0), 0.5, seed=seed),
     "seed"),
], ids=["synthetic", "beta_seed", "corrupt_labels"])
@pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
def test_data_seeds_are_refused_by_name(draw, field, seed):
    # numpy's own refusal of a negative seed names no field
    with pytest.raises(ContractViolationError) as err:
        draw(seed)
    assert err.value.field == field


# ---------------------------------------------------------------------------
# corruption

def test_corrupt_labels_p0_identity():
    ds, _ = gen_multiclass(30, 3, 4, 0.1, seed=2, beta_seed=2)
    out, clean = corrupt_labels(ds, 0.0, seed=1)
    assert_array_equal(out.y, ds.y)
    assert clean.all()


def test_corrupt_labels_p1_binary_flips_all():
    ds = Dataset(X=np.ones((6, 1)), y=np.array([1.0, -1, 1, -1, 1, -1]), task="binary")
    out, clean = corrupt_labels(ds, 1.0, seed=0)
    assert_array_equal(out.y, -ds.y)
    assert not clean.any()


def test_corrupt_labels_never_keeps_label():
    ds, _ = gen_multiclass(500, 3, 4, 0.1, seed=4, beta_seed=4)
    out, clean = corrupt_labels(ds, 1.0, seed=9)
    assert np.all(out.y != ds.y)
    assert set(np.unique(out.y)).issubset({0.0, 1.0, 2.0, 3.0})


def test_corrupt_labels_concentration():
    ds, _ = gen_multiclass(10_000, 2, 3, 0.1, seed=6, beta_seed=6)
    _, clean = corrupt_labels(ds, 0.5, seed=3)
    frac = 1.0 - clean.mean()
    assert abs(frac - 0.5) < 0.02


# ---------------------------------------------------------------------------
# libsvm reader

def test_read_libsvm_hand_example(tmp_path):
    f = tmp_path / "toy.txt"
    f.write_text("1 1:0.5 3:2.0\n-1 2:1.0\n")
    ds = read_libsvm(str(f))
    assert ds.task == "binary"
    assert_allclose(ds.X, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
    assert_allclose(ds.y, [1.0, -1.0])


def test_read_libsvm_regression(tmp_path):
    f = tmp_path / "reg.txt"
    f.write_text("2.5 1:1\n")
    ds = read_libsvm(str(f))
    assert ds.task == "regression"
    assert_allclose(ds.X, [[1.0]])
    assert_allclose(ds.y, [2.5])


def test_read_libsvm_zero_one_maps_to_pm1(tmp_path):
    f = tmp_path / "b.txt"
    f.write_text("0 1:1\n1 1:2\n")
    ds = read_libsvm(str(f))
    assert ds.task == "binary"
    assert_allclose(ds.y, [-1.0, 1.0])


def test_read_libsvm_errors(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ParseError):
        read_libsvm(str(empty))
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1:0.5\n1 nonsense\n")
    with pytest.raises(ParseError) as err:
        read_libsvm(str(bad))
    assert err.value.line == 2


def test_subset_and_full_view():
    ds, _ = gen_linear(10, 2, 0.1, seed=0, beta_seed=0)
    sub = subset(ds, np.array([1, 3, 5]))
    assert sub.n == 3
    assert_array_equal(sub.X, ds.X[[1, 3, 5]])
    fv = full_view(ds)
    assert fv.m == 10
