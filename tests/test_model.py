import dataclasses
import functools
import gc
import itertools
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import powertree as pt
from powertree import model
from powertree.workload import Dataset


def make_dataset(X, y, period=1000, freq=1e8):
    X = np.asarray(X)
    if X.ndim == 1:
        X = X[:, None]
    names = tuple(f"f{j}" for j in range(X.shape[1]))
    return Dataset(X.astype(np.int64), np.asarray(y, dtype=np.float64),
                   names, period, freq)


def brute_force_best_split(X, y, min_leaf=1):
    """Independent oracle: scan every feature and midpoint, recomputing
    subset variances from scratch; ties keep the lowest feature index then
    the lowest threshold."""
    m = len(y)
    parent_sse = np.var(y) * m
    best = None
    for j in range(X.shape[1]):
        xs = np.unique(X[:, j])
        for lo, hi in zip(xs, xs[1:]):
            thr = (lo + hi) / 2.0
            mask = X[:, j] <= thr
            nl, nr = int(mask.sum()), int((~mask).sum())
            if nl < min_leaf or nr < min_leaf:
                continue
            sse = np.var(y[mask]) * nl + np.var(y[~mask]) * nr
            red = (parent_sse - sse) / m
            if red > 0 and (best is None or red > best[2]):
                best = (j, thr, red)
    return best


def oracle_grow(dataset, hp):
    """fit_tree driven by brute_force_best_split on each node's own rows."""
    X = dataset.features.astype(np.float64)
    y = dataset.powers.astype(np.float64)
    root_var = float(np.var(y))
    nodes = []

    def build(rows, depth):
        yy = y[rows]
        m = int(rows.size)
        var = float(np.var(yy))
        i = len(nodes)
        nodes.append([m, var, float(yy.mean()), depth, 0, 0.0, 0.0, -1, -1])
        if depth >= hp.max_depth or m < hp.min_split_sample:
            return i
        if np.all(yy == yy[0]):
            return i
        if root_var == 0.0 or var / root_var < hp.min_leaf_impurity:
            return i
        if m < 2 * hp.min_leaf_sample:  # no cut leaves min_leaf each side
            return i
        found = brute_force_best_split(X[rows], yy, hp.min_leaf_sample)
        if found is None:
            return i
        j, thr, red = found
        mask = X[rows, j] <= thr
        left = build(rows[mask], depth + 1)
        right = build(rows[~mask], depth + 1)
        nodes[i][4:] = [j, thr, red, left, right]
        return i

    build(np.arange(len(dataset), dtype=np.intp), 0)
    return pt.DecisionTree(*(np.array(column) for column in zip(*nodes)),
                           dataset.n_features, dataset.clock_freq,
                           dataset.feature_names)


NODE_ARRAYS = ("n_samples", "impurity", "value", "node_depth", "feature",
               "threshold", "reduction", "left", "right")


def assert_growths_identical(got, expect):
    for name in NODE_ARRAYS:
        a, b = getattr(got, name), getattr(expect, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert (got.n_features, got.model_freq, got.feature_ids) \
        == (expect.n_features, expect.model_freq, expect.feature_ids)


def assert_loaded_arrays_equal(back, tree):
    """Every node array of a reloaded tree equals the fitted one's, except
    value on decision nodes, which the document does not store."""
    for name in NODE_ARRAYS:
        a, b = getattr(back, name), getattr(tree, name)
        assert a.dtype == b.dtype, name
        if name == "value":
            leaf = tree.left < 0
            assert np.isnan(a[~leaf]).all()
            a, b = a[leaf], b[leaf]
        assert np.array_equal(a, b), name


STUMP_X = np.array([[1], [2], [3], [4]])
STUMP_Y = np.array([0.0, 0.0, 10.0, 10.0])


def stump(X, y, min_leaf_sample=1):
    """(threshold, impurity decrease) of the root split of a depth-1
    fit_tree, or None when the root stays a leaf."""
    tree = pt.fit_tree(make_dataset(X, y),
                       pt.HyperParams(1, 2, min_leaf_sample, 0.0))
    if tree.left[0] < 0:
        return None
    return tree.threshold[0], tree.reduction[0]


class TestBestSplit:
    def test_constant_targets_no_split(self):
        assert stump(STUMP_X, np.ones(4)) is None

    def test_hand_computed_stump(self):
        # variance 25 -> 0, threshold between 2 and 3
        thr, red = stump(STUMP_X, STUMP_Y)
        assert thr == 2.5
        assert red == pytest.approx(25.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 15, size=(20, 3))
        y = 5.0 + rng.normal(size=20)  # powers are non-negative
        for j in range(3):
            got = stump(X[:, [j]], y)
            expect = brute_force_best_split(X[:, [j]], y)
            if expect is None:
                assert got is None
            else:
                assert got[0] == expect[1]
                assert got[1] == pytest.approx(expect[2], rel=1e-9)

    def test_min_leaf_skips_starving_splits(self):
        x = np.array([[1], [2], [3], [4], [5], [6]])
        y = np.array([0.0, 0, 0, 0, 0, 100.0])
        thr, _ = stump(x, y, min_leaf_sample=2)
        assert thr == 4.5  # the 5/1 cut at 5.5 is forbidden

    def test_offset_targets_keep_the_best_threshold(self):
        # the prefix-sum scores of this column cancel on the 1e6 offset and
        # rank the cut at 0.5 (decrease 2.67e-8) above the one at 3.5
        # (7.11e-8); only the exact score orders them right
        x = np.array([[3], [2], [1], [1], [0], [0], [0], [0], [4], [3]])
        y = 1e6 + 1e-3 * np.array([3.0, 2, 2, 3, 2, 2, 2, 2, 3, 1])
        thr, red = stump(x, y)
        assert thr == 3.5
        assert (thr, red) == brute_force_best_split(x, y)[1:]


class TestHyperParams:
    @pytest.mark.parametrize("field, value", [
        ("max_depth", 2.5), ("max_depth", 3.0), ("min_split_sample", True),
        ("min_leaf_sample", 2.5), ("min_leaf_sample", "2")])
    def test_non_integer_limit_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            pt.HyperParams(**{field: value})

    @pytest.mark.parametrize("value", [False, True, "0.01", np.nan])
    def test_non_number_impurity_rejected(self, value):
        with pytest.raises(ValueError,
                           match="min_leaf_impurity must be a finite number"):
            pt.HyperParams(min_leaf_impurity=value)

    def test_numpy_integer_limits_accepted(self):
        hp = pt.HyperParams(np.int64(3), np.int32(4), np.uint8(2), 0.0)
        assert (hp.max_depth, hp.min_split_sample, hp.min_leaf_sample) \
            == (3, 4, 2)


class TestStopped:
    """model._stopped, the one statement of HyperParams' stop tests."""

    def test_equality_boundaries(self):
        stopped = model._stopped
        assert stopped(3, 10, 0.5, 1.0, 3, 5, 0.1) is True  # depth == max
        assert stopped(2, 10, 0.5, 1.0, 3, 5, 0.1) is False
        assert stopped(2, 5, 0.5, 1.0, 3, 5, 0.1) is False  # n == min_split
        assert stopped(2, 4, 0.5, 1.0, 3, 5, 0.1) is True
        # a ratio equal to min_impurity, rounded as the test rounds it
        ratio = 0.3 / 0.7
        assert stopped(0, 10, 0.3, 0.7, 3, 5, ratio) is False
        assert stopped(0, 10, 0.3, 0.7, 3, 5,
                       math.nextafter(ratio, 1.0)) is True

    def test_zero_root_variance_stops_every_node_without_warning(self):
        impurity = np.array([0.0, 1e-300, 0.5, 2.0])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert model._stopped(0, 100, 0.0, 0.0, 5, 2, 0.0) is True
            assert model._stopped(0, 100, 0.0, -0.0, 5, 2, 0.0) is True
            got = model._stopped(np.arange(4), 100, impurity, 0.0, 5, 2, 0.0)
        assert got.tolist() == [True] * 4

    def test_broadcast_form_agrees_with_scalar_form(self):
        # node statistics along one axis, limits along the other, as the
        # cut-back of a grown tree reads them
        nodes = list(itertools.product([0, 2, 3, 4], [4, 5, 6],
                                       [0.0, 0.3, 0.5], [0.0, 0.7, 1.0]))
        limits = list(itertools.product([3, 4], [5, 6],
                                        [0.0, 0.3 / 0.7, 0.5]))
        got = model._stopped(*map(np.array, zip(*nodes)),
                             *(np.array(c)[:, None] for c in zip(*limits)))
        expect = [[model._stopped(*node, *limit) for node in nodes]
                  for limit in limits]
        assert {type(v) for row in expect for v in row} == {bool}
        assert got.dtype == bool
        assert got.tolist() == expect


class TestFitTree:
    def test_constant_targets_single_leaf(self):
        ds = make_dataset([[1], [2], [3]], [5.0, 5.0, 5.0])
        tree = pt.fit_tree(ds, pt.HyperParams(max_depth=4, min_split_sample=2,
                                              min_leaf_sample=1,
                                              min_leaf_impurity=0.0))
        assert tree.left[0] < 0
        assert tree.value[0] == 5.0
        assert tree.depth == 0

    def test_stump_example(self):
        ds = make_dataset(STUMP_X, STUMP_Y)
        tree = pt.fit_tree(ds, pt.HyperParams(1, 2, 1, 0.0))
        assert tree.left[0] >= 0
        assert tree.feature[0] == 0 and tree.threshold[0] == 2.5
        assert tree.value[tree.left[0]] == 0.0
        assert tree.value[tree.right[0]] == 10.0
        assert tree.depth == 1

    def test_empty_dataset_rejected(self):
        ds = make_dataset(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            pt.fit_tree(ds, pt.HyperParams())

    def test_counts_too_large_to_rank_rejected(self):
        X = np.array([[2**62, 0, 1], [0, 2**62, 1]])
        ds = make_dataset(X, [1.0, 2.0], period=2**62)
        with pytest.raises(ValueError, match="too large to rank"):
            pt.fit_tree(ds, pt.HyperParams(2, 2, 1, 0.0))

    def test_fit_leaves_no_reference_cycle(self):
        # a cycle would keep each fit's arrays alive until the cyclic
        # collector happens to run
        rng = np.random.default_rng(3)
        ds = make_dataset(rng.integers(0, 300, (400, 20)),
                          rng.uniform(1.0, 9.0, 400))
        gc.collect()
        gc.disable()
        try:
            pt.fit_tree(ds, pt.HyperParams(8, 2, 1, 0.0))
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("high", [5 * 10**5, 2**40])
    def test_large_counts_fit_in_little_memory(self, high):
        # histograms over every count up to the period would take hundreds
        # of megabytes at 5e5, over each column's ranks one
        rng = np.random.default_rng(4)
        X = rng.integers(0, high, (400, 20))
        y = rng.uniform(1.0, 9.0, 400)
        ds = make_dataset(X, y, period=2 * high)
        tracemalloc.start()
        try:
            tree = pt.fit_tree(ds, pt.HyperParams(8, 2, 1, 0.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert (tree.feature[0], tree.threshold[0], tree.reduction[0]) \
            == brute_force_best_split(X, y)

    @pytest.mark.parametrize("hp", [
        pt.HyperParams(3, 5, 2, 0.01),
        pt.HyperParams(8, 2, 1, 0.0),
        pt.HyperParams(2, 10, 5, 0.05),
    ])
    def test_growth_constraints_hold_on_every_node(self, hp):
        rng = np.random.default_rng(0)
        ds = make_dataset(rng.integers(0, 30, (200, 4)), rng.uniform(1.0, 9.0, 200))
        tree = pt.fit_tree(ds, hp)
        assert tree.depth <= hp.max_depth
        root_var = tree.impurity[0]

        def walk(i, depth):
            if tree.left[i] < 0:
                assert depth <= hp.max_depth
                return
            assert tree.n_samples[i] >= hp.min_split_sample
            assert tree.n_samples[tree.left[i]] >= hp.min_leaf_sample
            assert tree.n_samples[tree.right[i]] >= hp.min_leaf_sample
            assert tree.impurity[i] / root_var >= hp.min_leaf_impurity
            assert tree.reduction[i] > 0
            walk(tree.left[i], depth + 1)
            walk(tree.right[i], depth + 1)

        walk(0, 0)

    def test_leaf_values_are_routed_means(self):
        rng = np.random.default_rng(1)
        X = rng.integers(0, 20, (120, 3))
        y = rng.uniform(0.0, 10.0, 120)
        ds = make_dataset(X, y)
        tree = pt.fit_tree(ds, pt.HyperParams(4, 5, 2, 0.0))

        def route(i, rows):
            if tree.left[i] < 0:
                assert tree.value[i] == pytest.approx(y[rows].mean(),
                                                      rel=1e-12)
                assert tree.n_samples[i] == len(rows)
                return
            mask = X[rows, tree.feature[i]] <= tree.threshold[i]
            route(tree.left[i], rows[mask])
            route(tree.right[i], rows[~mask])

        route(0, np.arange(120))

    def test_every_node_split_matches_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.integers(0, 12, (50, 4))
        y = rng.uniform(0.0, 10.0, 50)
        ds = make_dataset(X, y)
        hp = pt.HyperParams(5, 4, 2, 0.0)
        tree = pt.fit_tree(ds, hp)
        checked = 0

        def walk(i, rows):
            nonlocal checked
            if tree.left[i] < 0:
                return
            expect = brute_force_best_split(X[rows], y[rows],
                                            hp.min_leaf_sample)
            assert expect is not None
            assert tree.feature[i] == expect[0]
            assert tree.threshold[i] == expect[1]
            checked += 1
            mask = X[rows, tree.feature[i]] <= tree.threshold[i]
            walk(tree.left[i], rows[mask])
            walk(tree.right[i], rows[~mask])

        walk(0, np.arange(50))
        assert checked > 0


@st.composite
def tie_heavy_growths(draw):
    """Small integer datasets full of value ties, with duplicated and
    constant columns (or, in a minority, none at all), counts that may be
    spread sparsely so that their ranks differ from them, targets on up to
    four levels that may sit on a large offset (constant in a minority),
    and growth limits around min_leaf_sample in {1, 3, 5}.  Every element
    is drawn, none filled with one repeated value, so that most cases grow
    a split."""
    m = draw(st.integers(1, 40))
    n_feat = draw(st.sampled_from([1, 2, 3, 4, 5, 0]))
    X = draw(arrays(np.int64, (m, n_feat), fill=st.nothing(),
                    elements=st.integers(0, draw(st.integers(1, 4)))))
    if n_feat > 1 and draw(st.booleans()):
        X[:, draw(st.integers(1, n_feat - 1))] = X[:, 0]
    if n_feat and draw(st.booleans()):
        X[:, draw(st.integers(0, n_feat - 1))] = draw(st.integers(0, 4))
    if draw(st.booleans()):
        # a strictly increasing map per column: thresholds then fall
        # between counts that are not adjacent integers
        X = (X * draw(arrays(np.int64, n_feat,
                             elements=st.sampled_from([1, 3, 1000])))
             + draw(arrays(np.int64, n_feat, elements=st.integers(0, 10))))
    levels = draw(arrays(np.int64, m, elements=st.integers(0, 3),
                         fill=st.nothing()))
    y = (draw(st.sampled_from([0.0, 1.0, 1e6]))
         + draw(st.sampled_from([1e-3, 1.0])) * levels)
    if draw(st.booleans()):
        y = y + draw(arrays(np.float64, m, elements=st.floats(0.0, 1e-3),
                            fill=st.nothing()))
    hp = pt.HyperParams(draw(st.integers(1, 6)), draw(st.integers(2, 6)),
                        draw(st.sampled_from([1, 3, 5])),
                        draw(st.sampled_from([0.0, 0.01])))
    return make_dataset(X, y, period=5000), hp


class TestGrowthMatchesBruteForce:
    """fit_tree (per-column count ranks, binned sums, exact scores only for
    near-top candidates) against oracle_grow (every candidate of every
    node scored exactly): all nine node arrays must be bitwise equal."""

    @given(tie_heavy_growths())
    # the prefix-sum score ranks the cut at 0.5 above the one at 1.5
    @example((make_dataset([1, 0, 2, 2], 1e6 + 1e-3 * np.array([1, 0, 0, 0])),
              pt.HyperParams(1, 2, 1, 0.0)))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_on_tie_heavy_data(self, case):
        ds, hp = case
        assert_growths_identical(pt.fit_tree(ds, hp), oracle_grow(ds, hp))

    @pytest.mark.parametrize("hp", [pt.HyperParams(8, 5, 5, 0.001),
                                    pt.HyperParams(8, 2, 1, 0.0)])
    def test_matches_oracle_on_power_data(self, hp):
        # the 20 most active nets: the width the protocol fits after RFE
        d = pt.generate_design(pt.hybrid_design_spec(seed=3))
        ds = pt.simulate_dataset(d, 400, 300, seed=4)
        ds = ds.select_features(pt.rank_signals_by_activity(ds, 20))
        assert_growths_identical(pt.fit_tree(ds, hp), oracle_grow(ds, hp))


@functools.cache
def power_data():
    """The power data of TestGrowthMatchesBruteForce."""
    d = pt.generate_design(pt.hybrid_design_spec(seed=3))
    ds = pt.simulate_dataset(d, 400, 300, seed=4)
    return ds.select_features(pt.rank_signals_by_activity(ds, 20))


def drop_columns(ds, keep):
    """ds with only the columns keep marks."""
    return ds.select_features([n for n, k in zip(ds.feature_names, keep) if k])


def assert_regrowth_matches(ds, hp, keep):
    """_grow_many from ds's tree over the columns keep marks equals
    fit_tree there."""
    sub = drop_columns(ds, keep)
    [tree] = model._grow_many(sub, [np.arange(len(ds))], hp,
                              pt.fit_tree(ds, hp))
    assert_growths_identical(tree, pt.fit_tree(sub, hp))


class TestRegrowth:
    """_grow_many reusing a tree grown over more columns against fit_tree
    from scratch: all nine node arrays must be bitwise equal."""

    @given(tie_heavy_growths(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_fit_tree_on_tie_heavy_data(self, case, data):
        ds, hp = case
        keep = data.draw(arrays(bool, ds.n_features))
        assert_regrowth_matches(ds, hp, keep)

    @given(st.sampled_from([pt.HyperParams(8, 5, 5, 0.001),
                            pt.HyperParams(8, 2, 1, 0.0)]),
           arrays(bool, 20))
    @settings(max_examples=20, deadline=None)
    def test_matches_fit_tree_on_power_data(self, hp, keep):
        assert_regrowth_matches(power_data(), hp, keep)

    @given(tie_heavy_growths(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_only_prior_columns_in_prior_order_are_accepted(self, case, data):
        ds, hp = case
        prior = pt.fit_tree(
            drop_columns(ds, data.draw(arrays(bool, ds.n_features))), hp)
        names = data.draw(st.permutations(ds.feature_names))
        names = names[:data.draw(st.integers(0, len(names)))]
        sub = ds.select_features(names)
        grow = functools.partial(model._grow_many, sub, [np.arange(len(ds))],
                                 hp, prior)
        if names == [n for n in prior.feature_ids if n in names]:
            assert_growths_identical(grow()[0], pt.fit_tree(sub, hp))
        else:
            with pytest.raises(ValueError, match="prior"):
                grow()

    def test_kept_splits_are_not_searched(self, monkeypatch):
        ds = power_data()
        hp = pt.HyperParams(4, 5, 5, 0.001)
        tree = pt.fit_tree(ds, hp)
        used = np.unique(tree.feature[tree.left >= 0])
        searched = []
        search = model._best_splits

        def recording(keys, values, nodes, *args):
            searched.extend(rows.size for rows, _, _ in nodes)
            return search(keys, values, nodes, *args)

        monkeypatch.setattr(model, "_best_splits", recording)

        def regrow(dropped):
            """The node sizes _grow_many searches with the dropped columns
            gone."""
            keep = np.ones(ds.n_features, dtype=bool)
            keep[dropped] = False
            sub = drop_columns(ds, keep)
            searched.clear()
            model._grow_many(sub, [np.arange(len(ds))], hp, tree)
            return searched

        assert regrow(np.setdiff1d(np.arange(ds.n_features), used)) == []
        assert regrow(tree.feature[0])[0] == len(ds)


@st.composite
def row_set_growths(draw):
    """A tie_heavy_growths case, its counts maybe spread past the bounds of
    _ranks' table (so that they are ranked by the sort), and 1 to 4 row
    sets of it, each a shuffled non-empty subset of its rows."""
    ds, hp = draw(tie_heavy_growths())
    if draw(st.booleans()):
        X = ds.features.astype(np.int64)
        ds = make_dataset(X * 2**17 + X, ds.powers, period=2**40)
    n = len(ds)
    row_sets = [np.array(draw(st.permutations(range(n)))[
        :draw(st.integers(1, n))]) for _ in range(draw(st.integers(1, 4)))]
    return ds, hp, row_sets


class TestGrowMany:
    """_grow_many's trees, grown together over one rank table, against
    fit_tree on each row set's own rows: all nine node arrays must be
    bitwise equal."""

    @given(row_set_growths())
    @settings(max_examples=200, deadline=None)
    def test_each_tree_is_fit_tree_on_its_rows(self, case):
        ds, hp, row_sets = case
        trees = model._grow_many(ds, row_sets, hp)
        assert len(trees) == len(row_sets)
        for rows, tree in zip(row_sets, trees):
            assert_growths_identical(tree, pt.fit_tree(ds.take(rows), hp))

    @given(row_set_growths(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_regrowth_is_fit_tree_on_the_kept_columns(self, case, data):
        ds, hp, row_sets = case
        rows = row_sets[0]
        sub = drop_columns(ds, data.draw(arrays(bool, ds.n_features)))
        [tree] = model._grow_many(sub, [rows], hp,
                                  pt.fit_tree(ds.take(rows), hp))
        assert_growths_identical(tree, pt.fit_tree(sub.take(rows), hp))

    def test_moments_are_numpy_mean_and_var(self):
        # past 128 values numpy's pairwise sums split into blocks
        rng = np.random.default_rng(0)
        for n in range(1, 301):
            for y in (rng.normal(size=n), 1e6 + rng.uniform(0.0, 1e-3, n),
                      rng.integers(0, 4, n).astype(np.float64)):
                assert model._moments(y) == (np.mean(y), np.var(y))


@st.composite
def cut_back_cases(draw):
    """A tie-heavy integer dataset, maybe with constant targets, the tree
    grown at loose limits on a shuffled subset of its rows, and
    combinations of those limits with tighter ones taken from the grown
    tree's decision nodes (their depths, sizes and variance ratios), so
    that each stop test sits on its boundary."""
    n = draw(st.integers(10, 60))
    # every element drawn, not filled with one value
    X = draw(arrays(np.int64, (n, draw(st.integers(1, 3))),
                    elements=st.integers(0, 4), fill=st.nothing()))
    if draw(st.integers(0, 7)) == 0:  # zero root variance
        y = np.full(n, 3.0)
    else:
        y = draw(arrays(np.float64, n, elements=st.integers(1, 6).map(float),
                        fill=st.nothing()))
    ds = make_dataset(X, y)
    sub = ds.take(np.array(draw(st.permutations(range(n)))[
        :draw(st.integers(n // 2, n))]))
    loosest = pt.HyperParams(draw(st.integers(2, 8)), draw(st.integers(2, 4)),
                             draw(st.integers(1, 3)),
                             draw(st.sampled_from([0.0, 0.01])))
    grown = pt.fit_tree(sub, loosest)
    inner = grown.left >= 0
    depths = grown.node_depth[inner & (grown.node_depth >= 1)]
    sizes = grown.n_samples[inner]
    # empty, so no 0 / 0, when a zero root variance leaves the root a leaf
    ratios = grown.impurity[inner] / grown.impurity[0]

    def axis(loose, tighter):
        """loose and up to two of the tighter values."""
        tighter = sorted(set(tighter.tolist()) - {loose})
        return [loose] + (draw(st.lists(st.sampled_from(tighter), max_size=2,
                                        unique=True)) if tighter else [])

    hps = [pt.HyperParams(d, s, loosest.min_leaf_sample, i)
           for d, s, i in itertools.product(
               axis(loosest.max_depth, depths),
               axis(loosest.min_split_sample, sizes),
               axis(loosest.min_leaf_impurity, ratios[ratios < 1.0]))]
    return ds, sub, grown, hps


class TestCutBack:
    """_truncated_predict of a grown tree against predict_tree_batch of
    fit_tree at each combination's own limits: every prediction must be
    bitwise equal, not only the fold scores built from them."""

    @given(cut_back_cases())
    @settings(max_examples=100, deadline=None)
    def test_matches_fit_tree_predictions(self, case):
        ds, sub, grown, hps = case
        got = model._truncated_predict(grown, ds.features, hps)
        assert got.shape == (len(hps), len(ds))
        for hp, row in zip(hps, got):
            expect = pt.predict_tree_batch(pt.fit_tree(sub, hp), ds.features)
            assert row.dtype == expect.dtype
            assert row.tobytes() == expect.tobytes(), hp


def fast_score(y, order, k):
    """The prefix-sum score of the cut after the first k of order, with
    the operations of model._best_splits on columns whose every count bin
    holds one row."""
    ys = y[order]
    cy = np.cumsum(ys)
    m = len(y)
    sl = cy[k - 1]
    sr = cy[-1] - sl
    return (sl * sl / k + sr * sr / (m - k) - cy[-1] * cy[-1] / m) / m


class TestSplitTies:
    # columns 0 and 1 cut the rows into {0..3} | {4..7} through different
    # sort orders; column 2 alternates and explains almost nothing
    X = np.stack([np.arange(8), np.arange(8) ^ 1, np.arange(8) % 2],
                 axis=1).astype(np.float64)

    def targets(self, seed):
        rng = np.random.default_rng(seed)
        return 1e6 + 10.0 * (np.arange(8) >= 4) + rng.uniform(0, 1e-3, 8)

    def test_lowest_feature_wins_a_tie_the_fast_scores_break(
            self, monkeypatch):
        rescored = []
        moments = model._moments

        def recording(y):
            rescored.append(tuple(y))
            return moments(y)

        monkeypatch.setattr(model, "_moments", recording)
        keys, values = model._ranks(self.X)
        rows = np.arange(8)
        fast_prefers_1 = 0
        for seed in range(200):
            y = self.targets(seed)
            fast = [fast_score(y, np.argsort(self.X[:, j], kind="stable"), 4)
                    for j in range(2)]
            fast_prefers_1 += fast[1] > fast[0]
            rescored.clear()
            [got] = model._best_splits(keys, values,
                                       [(rows, y, float(np.var(y)))], 1)
            assert got[:3] == brute_force_best_split(self.X, y, 1)
            assert got[:2] == (0, 3.5)
            # column 2 scores far below the winner and is never re-scored;
            # the partition columns 0 and 1 share is scored once, its left
            # side then its right
            far = brute_force_best_split(self.X[:, [2]], y, 1)
            assert far is None or got[2] - far[2] > 20.0
            assert rescored == [tuple(y[:4]), tuple(y[4:])]
        # the band matters: re-scoring the fast winner alone would pick 1
        assert fast_prefers_1 > 0


@st.composite
def count_matrices(draw):
    """Non-negative integer counts, as int64 or as integer-valued floats,
    with zero columns or zero rows, constant columns, and widths on both
    sides of _ranks' switch from the table to the sort."""
    m = draw(st.integers(0, 30))
    n_feat = draw(st.integers(0, 5))
    # up to 2**17 keeps the table at most 5 * (2**17 + 1) cells
    high = draw(st.sampled_from([0, 1, 4, 300, 2**16 // max(n_feat, 1) - 1,
                                 2**16 // max(n_feat, 1), 2**17]))
    X = draw(arrays(np.int64, (m, n_feat), elements=st.integers(0, high)))
    if n_feat and draw(st.booleans()):
        X[:, draw(st.integers(0, n_feat - 1))] = draw(st.integers(0, high))
    return X.astype(draw(st.sampled_from([np.int64, np.float64])))


class TestRanks:
    @given(count_matrices())
    # either side of the table's bounds: F * W at 2**16, and at n * F
    # above it
    @example(np.full((1, 1), 2**16 - 1))
    @example(np.full((1, 1), 2**16))
    @example(np.arange(2**16 + 8)[:, None])
    @example(np.arange(2**16 + 8)[:, None] + 1)
    @settings(max_examples=300, deadline=None)
    def test_table_and_sort_agree(self, X):
        width = int(X.max(initial=0)) + 1
        by_sort = model._ranks_by_sort(X, width)
        for got in (model._ranks_by_table(X, width), model._ranks(X)):
            for a, b in zip(got, by_sort):  # keys, then values
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)

    def test_table_peaks_below_sort(self):
        # select's first fit ranks 8000 x 200 counts of at most 300
        X = np.random.default_rng(7).integers(0, 301, (8000, 200))
        peaks = []
        for path in (model._ranks_by_table, model._ranks_by_sort):
            tracemalloc.start()
            try:
                path(X, 301)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1]


    @pytest.mark.parametrize("width", [8, 2**17])  # the table, the sort
    def test_keys_row_major_whatever_the_layout(self, width):
        # select_features returns column-major counts
        X = np.asfortranarray(np.random.default_rng(3).integers(
            0, width, (50, 4)).astype(np.uint16 if width < 2**16 else
                                     np.uint32))
        for keys in (model._ranks(X)[0], model._ranks(np.ascontiguousarray(
                X))[0]):
            assert keys.dtype == np.intp and keys.flags.c_contiguous

    def test_root_search_reads_the_keys_uncopied(self):
        # select's first fit: 8000 x 200 counts of at most 300, whose keys
        # take 12.8 MB; the search bins them in bounded blocks of rows, so
        # the fit peaks little above ranking the counts, where a copy of
        # the root's keys would add 12.8 MB and its weights 25.6 MB more
        rng = np.random.default_rng(7)
        X = rng.integers(0, 301, (8000, 200)).astype(np.uint16)
        ds = Dataset(X, rng.uniform(1.0, 9.0, 8000),
                     tuple(f"f{j}" for j in range(200)), 300, 1e8)
        peaks = []
        for fit in (lambda: model._ranks(X),
                    lambda: pt.fit_tree(ds, pt.HyperParams(3, 2, 1, 0.0))):
            tracemalloc.start()
            try:
                fit()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 4 * 2**20


@st.composite
def narrow_and_wide(draw):
    """A small dataset, its counts up to a period on either side of a
    dtype's bound, and the same dataset with int64 counts forced in past
    Dataset's cast: the storage every Dataset had before the narrow rule."""
    period = draw(st.sampled_from([1, 255, 256, 300, 2**16, 2**33]))
    m, n_feat = draw(st.integers(12, 30)), draw(st.integers(2, 4))
    high = draw(st.sampled_from([period, min(period, 6)]))
    X = draw(arrays(np.int64, (m, n_feat), elements=st.integers(0, high)))
    # positive, so that every MAE% is defined; tied or spread
    y = draw(arrays(np.float64, m, elements=st.one_of(
        st.integers(1, 4).map(float), st.floats(0.5, 10.0))))
    narrow = Dataset(X, y, tuple(f"f{j}" for j in range(n_feat)), period,
                     1e8)
    wide = dataclasses.replace(narrow)
    object.__setattr__(wide, "features", X)
    return narrow, wide


class TestNarrowCountsMatchInt64:
    """Every function that reads a Dataset's counts gives the same bits on
    the narrow storage as on int64 counts."""

    @given(narrow_and_wide(), st.integers(1, 6), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equal(self, pair, depth, leaf):
        narrow, wide = pair
        assert narrow.features.dtype == np.min_scalar_type(
            narrow.period_cycles)
        assert wide.features.dtype == np.int64
        assert np.array_equal(narrow.features, wide.features)
        hp = pt.HyperParams(depth, 2, leaf, 0.0)
        tree = pt.fit_tree(narrow, hp)
        assert_growths_identical(tree, pt.fit_tree(wide, hp))
        # predict_tree_batch read every count as float64 before
        for X in (narrow.features, wide.features,
                  wide.features.astype(np.float64)):
            assert pt.predict_tree_batch(tree, X).tobytes() == \
                pt.predict_tree_batch(tree, narrow.features).tobytes()
        # repr round-trips floats exactly, so equal text means equal bits
        assert repr(pt.rfe(narrow, hp)) == repr(pt.rfe(wide, hp))
        grid = pt.Grid((1, depth), (2, 5), (leaf,), (0.0, 0.01))
        a, b = (pt.grid_search_cv(ds, grid, 3, 1) for ds in (narrow, wide))
        assert repr(a) == repr(b)
        assert_growths_identical(a.best_model, b.best_model)
        sizes = [len(narrow) // 2]  # above the 4 features, within a pool
        assert repr(pt.learning_curve(narrow, hp, sizes, 2, 1)) == \
            repr(pt.learning_curve(wide, hp, sizes, 2, 1))
        a, b = pt.fit_linear(narrow), pt.fit_linear(wide)
        assert (a.weights.tobytes(), repr(a.intercept)) == \
            (b.weights.tobytes(), repr(b.intercept))
        assert pt.rank_signals_by_activity(narrow, narrow.n_features) == \
            pt.rank_signals_by_activity(wide, wide.n_features)
        assert pt.dataset_csv_text(narrow) == pt.dataset_csv_text(wide)


class TestPredict:
    def test_single_leaf(self):
        ds = make_dataset([[1], [2]], [3.0, 3.0])
        tree = pt.fit_tree(ds, pt.HyperParams())
        assert pt.predict_tree(tree, [999]) == 3.0

    def test_stump_predictions(self):
        tree = pt.fit_tree(make_dataset(STUMP_X, STUMP_Y),
                           pt.HyperParams(1, 2, 1, 0.0))
        assert pt.predict_tree(tree, [2]) == 0.0
        assert pt.predict_tree(tree, [3]) == 10.0

    def test_dimension_mismatch(self):
        tree = pt.fit_tree(make_dataset(STUMP_X, STUMP_Y), pt.HyperParams())
        with pytest.raises(ValueError):
            pt.predict_tree(tree, [1, 2])

    # a NaN row was sent right and given a leaf
    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf]],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("batch, single, fit", [
        (pt.predict_tree_batch, pt.predict_tree,
         lambda ds: pt.fit_tree(ds, pt.HyperParams(1, 2, 1, 0.0))),
        (pt.predict_linear_batch, pt.predict_linear, pt.fit_linear)],
        ids=["tree", "linear"])
    def test_non_finite_feature_rejected(self, batch, single, fit, bad):
        fitted = fit(make_dataset(STUMP_X, STUMP_Y))
        for predict, X in ((batch, [[3.0], bad]), (single, bad)):
            with pytest.raises(ValueError, match="features must be finite"):
                predict(fitted, X)
        assert batch(fitted, np.array([[3], [2]], np.uint16)).shape == (2,)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        ds = make_dataset(rng.integers(0, 25, (150, 4)), rng.uniform(0.0, 10.0, 150))
        tree = pt.fit_tree(ds, pt.HyperParams(6, 4, 2, 0.0))
        X = rng.integers(0, 25, (80, 4))
        batch = pt.predict_tree_batch(tree, X)
        single = np.array([pt.predict_tree(tree, x) for x in X])
        assert (batch == single).all()

    def test_piecewise_constant_between_thresholds(self):
        rng = np.random.default_rng(4)
        ds = make_dataset(rng.integers(0, 25, (100, 3)), rng.uniform(0.0, 10.0, 100))
        tree = pt.fit_tree(ds, pt.HyperParams(5, 4, 2, 0.0))
        thresholds = sorted(set(tree.threshold[tree.left >= 0].tolist()))
        x = np.array([7.0, 7.0, 7.0])
        base = pt.predict_tree(tree, x)
        # nudge a coordinate without crossing any threshold
        eps = min(abs(7.0 - t) for t in thresholds) / 2 or 0.1
        for j in range(3):
            bumped = x.copy()
            bumped[j] += eps
            assert pt.predict_tree(tree, bumped) == base

    def test_rule_text_interpreter_oracle(self):
        rng = np.random.default_rng(5)
        ds = make_dataset(rng.integers(0, 25, (150, 4)), rng.uniform(0.0, 10.0, 150))
        tree = pt.fit_tree(ds, pt.HyperParams(5, 4, 2, 0.0))
        rules = pt.rule_text(tree)

        def interpret(lines, x, indent=0):
            line = lines.pop(0)
            pad = "    " * indent
            if line.startswith(pad + "value:"):
                return float(line.split(":", 1)[1])
            assert line.startswith(pad + "if x[")
            cond = line[len(pad) + 3:-1]
            idx = int(cond[cond.index("[") + 1:cond.index("]")])
            thr = float(cond.split("<=")[1])
            if x[idx] <= thr:
                value = interpret(lines, x, indent + 1)
                skip_else(lines, indent)
                return value
            skip_branch(lines, indent + 1)
            assert lines.pop(0) == pad + "else:"
            return interpret(lines, x, indent + 1)

        def skip_branch(lines, indent):
            pad = "    " * indent
            if lines[0].startswith(pad + "value:"):
                lines.pop(0)
                return
            lines.pop(0)
            skip_branch(lines, indent + 1)
            lines.pop(0)  # else:
            skip_branch(lines, indent + 1)

        def skip_else(lines, indent):
            pad = "    " * indent
            assert lines.pop(0) == pad + "else:"
            skip_branch(lines, indent + 1)

        for _ in range(50):
            x = rng.integers(0, 25, 4)
            lines = [l for l in rules.splitlines() if not l.startswith("#")]
            assert interpret(lines, x) == pt.predict_tree(tree, x)


class TestImportances:
    def test_single_leaf_all_zero(self):
        tree = pt.fit_tree(make_dataset([[1], [2]], [3.0, 3.0]),
                           pt.HyperParams())
        imp = pt.feature_importances(tree)
        assert imp.dtype == np.float64 and (imp == 0).all()

    def test_stump_concentrates_on_split_feature(self):
        X = np.hstack([STUMP_X, np.zeros((4, 1), dtype=int)])
        tree = pt.fit_tree(make_dataset(X, STUMP_Y), pt.HyperParams(1, 2, 1, 0.0))
        imp = pt.feature_importances(tree)
        assert imp[0] == 1.0 and imp[1] == 0.0

    def test_normalized(self):
        rng = np.random.default_rng(6)
        ds = make_dataset(rng.integers(0, 25, (200, 5)), rng.uniform(0.0, 10.0, 200))
        tree = pt.fit_tree(ds, pt.HyperParams(5, 4, 2, 0.0))
        imp = pt.feature_importances(tree)
        assert imp.sum() == pytest.approx(1.0, rel=1e-12)
        assert (imp >= 0).all()


class TestLinear:
    def test_recovers_exact_affine_rule(self):
        rng = np.random.default_rng(7)
        X = rng.integers(0, 300, (200, 5))
        w = np.array([0.5, -0.2, 1.5, 0.0, 2.0]) * 1e-3
        y = X @ w + 0.125
        model = pt.fit_linear(make_dataset(X, y))
        assert np.allclose(model.weights, w, rtol=1e-9, atol=1e-15)
        assert model.intercept == pytest.approx(0.125, rel=1e-9)

    def test_single_prediction_is_batch_of_one(self):
        rng = np.random.default_rng(10)
        X = rng.integers(0, 300, (40, 3))
        model = pt.fit_linear(make_dataset(X, X @ np.array([1e-3, 0, 2e-3])))
        single = [pt.predict_linear(model, x) for x in X]
        assert single == pytest.approx(pt.predict_linear_batch(model, X),
                                       rel=1e-12)

    @pytest.mark.parametrize("predict, bad", [
        (pt.predict_linear, [1, 2]), (pt.predict_linear, [[1, 2, 3]]),
        (pt.predict_linear_batch, [[1, 2]]),
        (pt.predict_linear_batch, [1, 2, 3])])
    def test_width_mismatch_rejected(self, predict, bad):
        model = pt.LinearModel(np.array([1e-3, 0.0, 2e-3]), 0.5, 1e8)
        with pytest.raises(ValueError, match="feature dimensionality mismatch"):
            predict(model, bad)

    def test_zero_features_gives_intercept(self):
        rng = np.random.default_rng(8)
        X = rng.integers(1, 300, (50, 2))
        y = X @ np.array([1e-3, 2e-3]) + 0.5
        model = pt.fit_linear(make_dataset(X, y))
        assert pt.predict_linear(model, [0, 0]) == pytest.approx(
            model.intercept)

    def test_collinear_features_fall_back_to_least_squares(self):
        rng = np.random.default_rng(9)
        a = rng.integers(0, 300, 60)
        X = np.stack([a, a], axis=1)  # exactly duplicated column
        y = 2e-3 * a + 1.0
        model = pt.fit_linear(make_dataset(X, y))
        pred = pt.predict_linear_batch(model, X)
        assert np.allclose(pred, y, rtol=1e-6)

    @pytest.mark.parametrize("y", [np.ones(12), np.arange(1.0, 13.0)],
                             ids=["constant", "rising"])
    def test_collinear_large_counts_are_solved(self, y):
        # a Gram matrix with entries near 1e9 is singular to any ridge far
        # below its float resolution; least squares needs no scale rule
        X = np.array([[0, 0]] + [[17168, 17168]] * 11)
        model = pt.fit_linear(make_dataset(X, y, period=65536))
        assert np.isfinite(model.weights).all()
        assert model.weights[0] == model.weights[1]
        fit = np.array([y[0], *[y[1:].mean()] * 11])
        assert pt.predict_linear_batch(model, X) == pytest.approx(fit)

    def test_residuals_orthogonal_to_features(self):
        rng = np.random.default_rng(10)
        X = rng.integers(0, 300, (300, 4))
        y = X @ np.array([1, 2, 3, 4.0]) * 1e-3 + rng.normal(0, 0.1, 300) + 5.0
        ds = make_dataset(X, y)
        model = pt.fit_linear(ds)
        resid = y - pt.predict_linear_batch(model, X)
        Xc = X - X.mean(axis=0)
        dots = Xc.T @ resid
        scale = np.linalg.norm(Xc, axis=0) * np.linalg.norm(resid)
        assert (np.abs(dots) <= 1e-6 * scale).all()

    def test_needs_more_samples_than_features(self):
        with pytest.raises(ValueError):
            pt.fit_linear(make_dataset(np.zeros((3, 3), dtype=int),
                                       np.zeros(3)))

    W = np.array([1e-3, 2e-3])

    @pytest.mark.parametrize("args, message", [
        ((np.array([1e-3, np.nan]), 0.5, 1e8), "weights must be a finite"),
        ((np.array([np.inf]), 0.5, 1e8), "weights must be a finite"),
        ((np.array([1, 2]), 0.5, 1e8), "weights must be a finite"),
        ((np.array([[1e-3]]), 0.5, 1e8), "weights must be a finite"),
        (([1e-3, 2e-3], 0.5, 1e8), "weights must be a finite"),
        ((W, np.inf, 1e8), "intercept must be a finite number"),
        ((W, np.nan, 1e8), "intercept must be a finite number"),
        ((W, "0.5", 1e8), "intercept must be a finite number"),
        ((W, 0.5, 0.0), "model_freq must be finite and > 0"),
        ((W, 0.5, -1e8), "model_freq must be finite and > 0"),
        ((W, 0.5, np.inf), "model_freq must be a finite number"),
        ((W, 0.5, True), "model_freq must be a finite number"),
        ((W, 0.5, 1e8, ("a", "a")), "feature_ids must be unique"),
        ((W, 0.5, 1e8, ("a",)), "one feature per weight"),
        ((W, 0.5, 1e8, ("a", 2)), r"feature_ids\[1\] must be a string"),
        ((W, 0.5, 1e8, "ab"), "feature_ids must be a list"),
    ])
    def test_bad_field_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            pt.LinearModel(*args)

    def test_ids_are_stored_as_a_tuple(self):
        model = pt.LinearModel(self.W, 0.5, 1e8, ["a", "b"])
        assert model.feature_ids == ("a", "b")
        assert pt.LinearModel(self.W, 0.5, 1e8).feature_ids == ()

    @pytest.mark.parametrize("key, value, message", [
        ("model_freq_hz", 0.0, "model_freq must be finite and > 0"),
        ("feature_ids", ["n0", "n0"], "feature_ids must be unique"),
        ("feature_ids", ["n0"], "feature_ids must name one feature per weight"),
    ])
    def test_loaded_model_checked_and_named(self, key, value, message):
        doc = json.loads(pt.linear_text(
            pt.LinearModel(self.W, 0.5, 1e8, ("n0", "n1"))))
        doc[key] = value
        with pytest.raises(ValueError, match=f"^linear.json: {message}"):
            pt.parse_linear(json.dumps(doc), "linear.json")

    def test_underfits_nonlinear_data_versus_tree(self):
        d = pt.generate_design(pt.hybrid_design_spec(seed=3))
        ds = pt.simulate_dataset(d, 800, 300, seed=4)
        tree = pt.fit_tree(ds, pt.HyperParams(6, 5, 5, 0.001))
        lin = pt.fit_linear(ds)
        tree_mae = pt.mae_percent(pt.predict_tree_batch(tree, ds.features),
                                  ds.powers)
        lin_mae = pt.mae_percent(pt.predict_linear_batch(lin, ds.features),
                                 ds.powers)
        assert tree_mae < lin_mae


class TestScalePrediction:
    def test_identity(self):
        assert pt.scale_prediction(0.7, 1e8, 1e8) == 0.7

    def test_half_frequency_halves_power(self):
        assert pt.scale_prediction(0.5, 100e6, 50e6) == 0.25

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=50, deadline=None)
    def test_depends_only_on_frequency_ratio(self, c):
        base = pt.scale_prediction(0.7, 100e6, 40e6)
        assert pt.scale_prediction(0.7, 100e6 * c, 40e6 * c) \
            == pytest.approx(base, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pt.scale_prediction(1.0, 0.0, 1e8)

    def test_matches_retrained_model_exactly(self):
        d = pt.generate_design(pt.linear_design_spec(seed=2))
        ds = pt.simulate_dataset(d, 400, 300, seed=9)
        hp = pt.HyperParams(5, 5, 5, 0.001)
        tree = pt.fit_tree(ds, hp)
        for ratio in (0.5, 2.0):
            scaled_ds = Dataset(ds.features, ds.powers * ratio,
                                ds.feature_names, 300, ds.clock_freq * ratio)
            retrained = pt.fit_tree(scaled_ds, hp)
            for i in range(0, 400, 7):
                a = pt.scale_prediction(pt.predict_tree(tree, ds.features[i]),
                                        ds.clock_freq, ds.clock_freq * ratio)
                b = pt.predict_tree(retrained, ds.features[i])
                assert a == b


class TestEnsemble:
    def _stump(self, value_left, value_right):
        X = np.array([[0], [0], [10], [10]])
        y = np.array([value_left] * 2 + [value_right] * 2)
        return pt.fit_tree(make_dataset(X, y), pt.HyperParams(1, 2, 1, 0.0))

    @staticmethod
    def _rows(names, X):
        """A dataset whose columns carry ``names``."""
        X = np.array(X, dtype=np.int64)
        return Dataset(X, np.zeros(len(X)), tuple(names), 1000, 1e8)

    def test_sum_of_components(self):
        trees = [self._stump(1.2, 1.2), self._stump(0.8, 0.8),
                 self._stump(0.5, 0.5)]
        em = pt.EnsembleModel(((trees[0], ("a",)), (trees[1], ("b",)),
                               (trees[2], ("c",))))
        got = pt.predict_ensemble(em, self._rows("cab", [[1, 1, 1]]))
        assert got.shape == (1,)
        assert got[0] == pytest.approx(2.5, rel=1e-12)

    def test_single_component_equals_tree(self):
        tree = self._stump(0.0, 10.0)
        em = pt.EnsembleModel(((tree, ("a",)),))
        got = pt.predict_ensemble(em, self._rows("a", [[10], [0]]))
        assert list(got) == [pt.predict_tree(tree, [10]),
                             pt.predict_tree(tree, [0])]

    def test_component_count_mismatch(self):
        em = pt.EnsembleModel(((self._stump(1, 1), ("a",)),
                               (self._stump(2, 2), ("b",))))
        with pytest.raises(ValueError, match="unknown feature name: 'b'"):
            pt.predict_ensemble(em, self._rows("a", [[1], [2]]))

    def test_overlapping_feature_sets_rejected(self):
        with pytest.raises(ValueError):
            pt.EnsembleModel(((self._stump(1, 1), ("a",)),
                              (self._stump(2, 2), ("a",))))


class TestMaePercent:
    def test_perfect_predictions(self):
        assert pt.mae_percent([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        assert pt.mae_percent([1.0, 1.0], [2.0, 2.0]) == 50.0

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariant(self, c):
        pred = np.array([1.0, 3.0, 2.0])
        truth = np.array([2.0, 2.5, 2.0])
        assert pt.mae_percent(pred * c, truth * c) == pytest.approx(
            pt.mae_percent(pred, truth), rel=1e-12)

    def test_rejects_zero_mean_truth(self):
        with pytest.raises(ValueError):
            pt.mae_percent([1.0], [0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            pt.mae_percent([1.0], [1.0, 2.0])


def _stump():
    return pt.fit_tree(make_dataset([0, 0, 10, 10], [1.0, 1.0, 2.0, 2.0]),
                       pt.HyperParams(1, 2, 1, 0.0))


def _edited_tree_text(key, value):
    """A stump's model.json with one top-level field set to value."""
    doc = json.loads(pt.tree_text(_stump()))
    doc[key] = value
    return json.dumps(doc)


class TestRangeChecks:
    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda: pt.HyperParams(max_depth=0),
                     "max_depth must be >= 1, not 0", id="max_depth"),
        pytest.param(lambda: pt.HyperParams(min_split_sample=1),
                     "min_split_sample must be >= 2, not 1",
                     id="min_split_sample"),
        pytest.param(lambda: pt.HyperParams(min_leaf_sample=0),
                     "min_leaf_sample must be >= 1, not 0",
                     id="min_leaf_sample"),
        pytest.param(lambda: pt.EnsembleModel(((_stump(), ("a", "b")),)),
                     "feature-id subset must match the tree width",
                     id="EnsembleModel-width"),
        # built, and only predict_ensemble failed
        pytest.param(lambda: pt.EnsembleModel(((_stump(), ("x", "x")),)),
                     "component feature ids must be unique",
                     id="EnsembleModel-repeat"),
        # accepted, and gave a tree with model_freq 0.0 or -5.0
        pytest.param(lambda: pt.parse_tree(_edited_tree_text(
            "model_freq_hz", 0), "model.json"),
            "model.json: field 'model_freq_hz' must be finite and > 0, "
            "not 0.0", id="parse_tree-model_freq_hz-zero"),
        pytest.param(lambda: pt.parse_tree(_edited_tree_text(
            "model_freq_hz", -5), "model.json"),
            "model.json: field 'model_freq_hz' must be finite and > 0, "
            "not -5.0", id="parse_tree-model_freq_hz-negative"),
        pytest.param(lambda: pt.parse_tree(_edited_tree_text(
            "feature_ids", ["a", "a"]), "model.json"),
            "model.json: field 'feature_ids' must be unique",
            id="parse_tree-feature_ids"),
        # nan and inf were returned
        pytest.param(lambda: pt.scale_prediction(1.0, float("nan"), 1e8),
                     "model_freq must be a finite number, not nan",
                     id="scale_prediction-nan"),
        pytest.param(lambda: pt.scale_prediction(1.0, 1e8, float("inf")),
                     "current_freq must be a finite number, not inf",
                     id="scale_prediction-inf"),
        pytest.param(lambda: pt.scale_prediction(float("nan"), 1e8, 1e8),
                     "prediction must be a finite number, not nan",
                     id="scale_prediction-prediction-nan"),
        pytest.param(lambda: pt.scale_prediction(float("inf"), 1e8, 5e7),
                     "prediction must be a finite number, not inf",
                     id="scale_prediction-prediction-inf"),
        pytest.param(lambda: pt.scale_prediction(1.0, 0.0, 1e8),
                     "model_freq must be finite and > 0, not 0.0",
                     id="scale_prediction-zero"),
        pytest.param(lambda: pt.scale_prediction(1.0, 1e8, -1),
                     "current_freq must be finite and > 0, not -1",
                     id="scale_prediction-negative"),
        # nan was returned, with a RuntimeWarning for an infinite truth
        pytest.param(lambda: pt.mae_percent([np.nan, 1.0], [1.0, 1.0]),
                     "predictions must be finite", id="mae_percent-nan"),
        pytest.param(lambda: pt.mae_percent([-np.inf, 1.0], [1.0, 1.0]),
                     "predictions must be finite", id="mae_percent-inf"),
        pytest.param(lambda: pt.mae_percent([1.0, 1.0], [np.inf, 1.0]),
                     "truths must be finite", id="mae_percent-truth-inf"),
        pytest.param(lambda: pt.mae_percent([1.0, 1.0], [1.0, np.nan]),
                     "truths must be finite", id="mae_percent-truth-nan"),
    ])
    def test_rejected(self, make, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                make()


class TestSerialization:
    def test_tree_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(11)
        ds = make_dataset(rng.integers(0, 300, (300, 6)),
                          rng.uniform(0.5, 8.0, 300))
        tree = pt.fit_tree(ds, pt.HyperParams(6, 5, 2, 0.001))
        path = tmp_path / "tree.json"
        pt.save_tree(tree, path)
        back = pt.parse_tree(path.read_text(), path)
        assert back.depth == tree.depth
        assert back.n_features == tree.n_features
        assert back.model_freq == tree.model_freq
        assert back.feature_ids == tree.feature_ids
        assert_loaded_arrays_equal(back, tree)
        X = rng.integers(0, 300, (100, 6))
        assert (pt.predict_tree_batch(tree, X)
                == pt.predict_tree_batch(back, X)).all()

    def test_permuted_document_loads_into_preorder(self, tmp_path):
        rng = np.random.default_rng(14)
        ds = make_dataset(rng.integers(0, 300, (200, 4)),
                          rng.uniform(0.5, 8.0, 200))
        tree = pt.fit_tree(ds, pt.HyperParams(5, 5, 2, 0.001))
        path = tmp_path / "tree.json"
        pt.save_tree(tree, path)
        doc = json.loads(path.read_text())
        n = len(doc["nodes"])
        assert n > 7
        # the root stays first, every other node moves; children re-indexed
        perm = np.concatenate([[0], 1 + rng.permutation(n - 1)])
        new_index = {int(old): new for new, old in enumerate(perm)}
        nodes = [dict(doc["nodes"][old]) for old in perm]
        for node in nodes:
            if node["kind"] == "decision":
                node["left"] = new_index[node["left"]]
                node["right"] = new_index[node["right"]]
        assert nodes != doc["nodes"]
        doc["nodes"] = nodes
        permuted = tmp_path / "permuted.json"
        permuted.write_text(json.dumps(doc))
        back = pt.parse_tree(permuted.read_text(), permuted)
        assert_loaded_arrays_equal(back, tree)
        pt.save_tree(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_second_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(12)
        ds = make_dataset(rng.integers(0, 300, (100, 3)),
                          rng.uniform(0.5, 8.0, 100))
        tree = pt.fit_tree(ds, pt.HyperParams(4, 5, 2, 0.001))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        pt.save_tree(tree, a)
        pt.save_tree(pt.parse_tree(a.read_text(), a), b)
        assert a.read_bytes() == b.read_bytes()

    # an explicit id names a case by its fault, apart from its message
    @pytest.mark.parametrize("mutate, message", [
        pytest.param(lambda doc: doc["nodes"][0].update(left=999),
                     "node 0: child index 999 outside [0, 7)",
                     id="<lambda>-tree node 0: child index 999 outside "
                        "[0, 7)"),
        (lambda doc: doc.update(nodes=[]), "tree document has no nodes"),
        pytest.param(lambda doc: doc["nodes"][1].pop("kind"),
                     "tree node 1: missing field 'kind'",
                     id="<lambda>-tree node 1 lacks 'kind'"),
        pytest.param(lambda doc: doc["nodes"][2].pop("value"),
                     "tree node 2: missing field 'value'",
                     id="<lambda>-tree node 2 lacks 'value'"),
        pytest.param(lambda doc: doc["nodes"][1].update(left=0),
                     "node 1: child 0 is reached twice",
                     id="<lambda>-tree node 1: child 0 is reached twice"),
        pytest.param(lambda doc: doc["nodes"][0].update(right=1),
                     "node 0: child 1 is reached twice",
                     id="<lambda>-tree node 0: child 1 is reached twice"),
        (lambda doc: doc["nodes"][1].update(feature=1),
         "tree node 1: feature 1 outside [0, 1)"),
        pytest.param(lambda doc: doc["nodes"][0].update(threshold="high"),
                     "tree node 0: field 'threshold' must be a finite "
                     "number, not 'high'",
                     id="<lambda>-tree node 0: could not convert"),
        (lambda doc: doc["nodes"][3].update(kind="branch"),
         "tree node 3: kind 'branch' is neither"),
        (lambda doc: doc.update(depth=3),
         "records depth 3, its nodes reach depth 2"),
        pytest.param(lambda doc: doc.pop("n_features"),
                     "missing field 'n_features'",
                     id="<lambda>-lacks 'n_features'"),
        (lambda doc: doc.update(feature_ids=["f0", "f1"]),
         "2 feature_ids for n_features 1"),
        pytest.param(lambda doc: doc["nodes"].append(dict(doc["nodes"][2])),
                     "node 7 is not reached from the root",
                     id="<lambda>-tree node 7 is not reached from the root"),
        pytest.param(lambda doc: doc["nodes"][5].update(n_samples=-1),
                     "tree node 5: n_samples -1 outside [0, 2**63)",
                     id="<lambda>-tree node 5: n_samples -1 is negative"),
        pytest.param(lambda doc: doc["nodes"][2].update(value=float("nan")),
                     "tree node 2: field 'value' must be a finite number, "
                     "not nan",
                     id="<lambda>-tree node 2: leaf value nan is not finite"),
        pytest.param(lambda doc: doc["nodes"][6].update(value=float("-inf")),
                     "tree node 6: field 'value' must be a finite number, "
                     "not -inf",
                     id="<lambda>-tree node 6: leaf value -inf is not finite"),
        pytest.param(lambda doc: doc["nodes"][0].update(feature=0.9),
                     "tree node 0: field 'feature' must be an integer, "
                     "not 0.9",
                     id="<lambda>-tree node 0: feature must be an integer, "
                        "not 0.9"),
        pytest.param(lambda doc: doc["nodes"][1].update(feature=True),
                     "tree node 1: field 'feature' must be an integer, "
                     "not True",
                     id="<lambda>-tree node 1: feature must be an integer, "
                        "not True"),
        pytest.param(lambda doc: doc["nodes"][5].update(n_samples=4.5),
                     "tree node 5: field 'n_samples' must be an integer, "
                     "not 4.5",
                     id="<lambda>-tree node 5: n_samples must be an integer, "
                        "not 4.5"),
        pytest.param(lambda doc: doc.update(n_features=2.7),
                     "field 'n_features' must be an integer, not 2.7",
                     id="<lambda>-tree document: n_features must be an "
                        "integer, not 2.7"),
        pytest.param(lambda doc: doc.update(depth=True),
                     "field 'depth' must be an integer, not True",
                     id="<lambda>-tree document: depth must be an integer, "
                        "not True"),
        pytest.param(lambda doc: doc["nodes"][0].update(left=1.0),
                     "tree node 0: field 'left' must be an integer, not 1.0",
                     id="<lambda>-tree node 0: left must be an integer, "
                        "not 1.0"),
        pytest.param(lambda doc: doc["nodes"][0].update(impurity=float("nan")),
                     "tree node 0: field 'impurity' must be a finite number, "
                     "not nan",
                     id="<lambda>-tree node 0: impurity must be a finite "
                        "number, not nan"),
        pytest.param(lambda doc: doc["nodes"][1].update(reduction="0.5"),
                     "tree node 1: field 'reduction' must be a finite "
                     "number, not '0.5'",
                     id="<lambda>-tree node 1: reduction must be a finite "
                        "number, not '0.5'"),
        pytest.param(lambda doc: doc.update(model_freq_hz="1e8"),
                     "field 'model_freq_hz' must be a finite number, "
                     "not '1e8'",
                     id="<lambda>-tree document: model_freq_hz must be a "
                        "finite number, not '1e8'"),
        # a float64 column would save every n_samples as a float
        pytest.param(lambda doc: doc["nodes"][3].update(n_samples=10**19),
                     "tree node 3: n_samples 10000000000000000000 outside "
                     "[0, 2**63)",
                     id="<lambda>-tree document: an n_samples is outside "
                        "the int64 range"),
        (lambda doc: doc["nodes"].__setitem__(4, [1]),
         "tree node 4 is not an object"),
    ])
    def test_malformed_document_rejected(self, tmp_path, mutate, message):
        X = np.arange(1, 9)[:, None]
        y = np.array([0.0, 0.0, 5.0, 5.0, 20.0, 20.0, 30.0, 30.0])
        tree = pt.fit_tree(make_dataset(X, y), pt.HyperParams(2, 2, 1, 0.0))
        path = tmp_path / "tree.json"
        pt.save_tree(tree, path)
        doc = json.loads(path.read_text())
        assert [n["kind"] for n in doc["nodes"]] == [
            "decision", "decision", "leaf", "leaf", "decision", "leaf",
            "leaf"]
        mutate(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(message)):
            pt.parse_tree(path.read_text(), path)

    def test_linear_round_trip(self):
        rng = np.random.default_rng(13)
        X = rng.integers(0, 300, (100, 4))
        y = X @ np.array([1, 2, 3, 4.0]) * 1e-3 + 0.25
        model = pt.fit_linear(make_dataset(X, y))
        back = pt.parse_linear(pt.linear_text(model))
        assert (back.weights == model.weights).all()
        assert back.intercept == model.intercept
        assert back.model_freq == model.model_freq


def _mutant(data, text: str) -> bytes:
    """text with bit flips, truncated, or with one value (a JSON scalar
    after a key or on a list line, or a CSV cell after a comma or a line
    break) replaced by another value of the same document or by an odd one:
    a wrong type, a non-finite or an out-of-range number."""
    raw = bytearray(text.encode())
    kind = data.draw(st.sampled_from(["flip", "truncate", "splice"]))
    if kind == "flip":
        for bit in data.draw(st.lists(st.integers(0, 8 * len(raw) - 1),
                                      min_size=1, max_size=4)):
            raw[bit // 8] ^= 1 << (bit % 8)
        return bytes(raw)
    if kind == "truncate":
        return bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    values = list(re.finditer(rb'(?:": |\n *|,)(-?[\w.+]+|"[^"\n]*"(?!:))',
                              raw))
    at = data.draw(st.sampled_from(values)).span(1)
    new = data.draw(st.one_of(
        st.sampled_from(values).map(lambda m: m.group(1)),
        st.sampled_from([b"true", b"null", b'"0.5"', b"[]", b"{}", b"-1",
                         b"1e400", b"-Infinity", b"Infinity", b"NaN",
                         b"1" + b"0" * 400, b"1e300", b"2.5", b"-0.0"])))
    return bytes(raw[:at[0]] + new + raw[at[1]:])


def assert_plain(values, kind) -> None:
    """Each value is a Python ``kind``: an int is never a bool, a float is
    finite."""
    for v in values:
        assert type(v) is kind and (kind is not float or math.isfinite(v)), v


class TestModelFuzz:
    """Mutants of a small model.json and linear.json, as in the image fuzz
    of test_hwsim: each parses or raises ValueError; what parses holds
    plain finite floats and ints in its number fields, and quantizes or
    predicts, or raises ValueError."""

    X = np.arange(1, 9)[:, None] * np.array([1, 3, 7])
    DS = make_dataset(X, [0.0, 0.0, 5.0, 5.0, 20.0, 20.0, 30.0, 30.0])
    TREE = pt.tree_text(pt.fit_tree(DS, pt.HyperParams(2, 2, 1, 0.0)))
    LINEAR = pt.linear_text(pt.fit_linear(DS))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_tree_mutant_parses_or_fails_cleanly(self, data):
        try:
            tree = pt.parse_tree(_mutant(data, self.TREE))
        except ValueError:
            return
        leaves = tree.left < 0
        assert_plain([tree.model_freq, *tree.value[leaves].tolist()] + [
            v for a in (tree.impurity, tree.threshold, tree.reduction)
            for v in a.tolist()], float)
        assert_plain([tree.n_features] + [
            v for a in (tree.n_samples, tree.feature, tree.left, tree.right)
            for v in a.tolist()], int)
        assert_plain(tree.feature_ids, str)
        try:
            pt.quantize(tree)
        except ValueError:
            pass

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_linear_mutant_parses_or_fails_cleanly(self, data):
        try:
            linear = pt.parse_linear(_mutant(data, self.LINEAR))
        except ValueError:
            return
        assert_plain([linear.intercept, linear.model_freq,
                      *linear.weights.tolist()], float)
        assert_plain(linear.feature_ids, str)
        try:
            pt.predict_linear_batch(linear, self.X)
        except ValueError:
            pass
