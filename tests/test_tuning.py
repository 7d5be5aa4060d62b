import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import powertree as pt
from powertree.tuning import CvResult, CvRow, _fold_pools
from powertree.workload import Dataset


def make_dataset(X, y, freq=1e8):
    X = np.asarray(X)
    names = tuple(f"f{j}" for j in range(X.shape[1]))
    return Dataset(X.astype(np.int64), np.asarray(y, dtype=np.float64),
                   names, 1000, freq)


class TestKfold:
    def test_ten_singletons(self):
        folds = pt.kfold_split(10, 10, seed=0)
        assert len(folds) == 10
        assert all(len(f) == 1 for f in folds)

    def test_two_thousand_in_ten_folds_of_200(self):
        folds = pt.kfold_split(2000, 10, seed=0)
        assert [len(f) for f in folds] == [200] * 10

    @given(st.integers(2, 60), st.data())
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, data):
        k = data.draw(st.integers(2, n))
        folds = pt.kfold_split(n, k, seed=data.draw(st.integers(0, 99)))
        sizes = sorted(len(f) for f in folds)
        assert sizes[-1] - sizes[0] <= 1
        merged = np.concatenate(folds)
        assert sorted(merged.tolist()) == list(range(n))

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            pt.kfold_split(5, 6, seed=0)

    @pytest.mark.parametrize("call, message", [
        (lambda ds: pt.kfold_split(10, 2.5, 0), "k must be an integer"),
        (lambda ds: pt.kfold_split(10.0, 2, 0), "n_samples must be an integer"),
        (lambda ds: pt.kfold_split(10, 2, 1.5), "seed must be an integer"),
        (lambda ds: pt.grid_search_cv(ds, pt.Grid((2,), (5,), (5,), (0.01,)),
                                      2.5), "k must be an integer"),
        (lambda ds: pt.learning_curve(ds, pt.HyperParams(), [50.0]),
         "sizes[0] must be an integer, not 50.0")],
        ids=["kfold-k", "kfold-n_samples", "kfold-seed", "grid_search-k",
             "learning_curve-sizes"])
    def test_non_integer_argument_rejected(self, call, message):
        ds = make_dataset(np.arange(40)[:, None], np.arange(40.0))
        with pytest.raises(ValueError, match=re.escape(message)):
            call(ds)

    def test_deterministic(self):
        a = pt.kfold_split(100, 7, seed=3)
        b = pt.kfold_split(100, 7, seed=3)
        assert all((x == y).all() for x, y in zip(a, b))


class TestRangeChecks:
    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda: pt.kfold_split(10, 1, 0), "k must be >= 2, not 1",
                     id="kfold_split-k"),
        pytest.param(lambda: pt.kfold_split(10, 11, 0),
                     "k must not exceed n_samples", id="kfold_split-n"),
        pytest.param(lambda: pt.grid_search_cv(
            make_dataset(np.arange(5)[:, None], np.ones(5)), pt.Grid(), k=10),
            "dataset smaller than the number of folds", id="grid_search_cv"),
        pytest.param(lambda: pt.learning_curve(
            make_dataset(np.arange(40).reshape(20, 2), np.ones(20)),
            pt.HyperParams(), [2, 5], k=2),
            "smallest size must exceed the feature count",
            id="learning_curve"),
    ])
    def test_rejected(self, make, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()


class TestGrid:
    def test_default_grid_counts_576_combinations(self):
        assert len(pt.Grid().combinations()) == 6 * 4 * 4 * 6 == 576

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            pt.Grid(max_depth=())

    @pytest.mark.parametrize("axis, values, message", [
        ("max_depth", (3, 2.5), "max_depth[1] must be an integer, not 2.5"),
        ("min_split_sample", (True,), "min_split_sample[0] must be an integer"),
        ("min_leaf_sample", (0,), "min_leaf_sample must be >= 1"),
        ("min_leaf_impurity", (0.01, 1.5), "min_leaf_impurity must lie in"),
        ("max_depth", 3, "max_depth must be a list, not 3"),
        ("min_leaf_impurity", (0.01, "0.02"),
         "min_leaf_impurity[1] must be a finite number, not '0.02'")])
    def test_invalid_axis_value_rejected(self, axis, values, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            pt.Grid(**{axis: values})

    def test_axes_are_stored_as_tuples(self):
        grid = pt.Grid(max_depth=[3, 4], min_leaf_impurity=[0, 0.5])
        assert grid.max_depth == (3, 4)
        assert [type(v) for v in grid.min_leaf_impurity] == [float, float]
        assert hash(grid) == hash(pt.Grid(max_depth=(3, 4),
                                          min_leaf_impurity=(0.0, 0.5)))

    @pytest.mark.parametrize("values", [(False,), ("0.01",)])
    def test_non_number_impurity_rejected(self, values):
        with pytest.raises(ValueError,
                           match=re.escape("min_leaf_impurity[0] must be a "
                                           "finite number")):
            pt.Grid(min_leaf_impurity=values)


def two_level_dataset(n=400, seed=0):
    """Learnable exactly at depth 2+, not at depth 1: the target needs
    nested splits on two features."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, (n, 2)) * 10
    y = np.where((X[:, 0] > 5) ^ (X[:, 1] > 5), 8.0, 2.0)
    return make_dataset(X, y)


class TestGridSearch:
    def test_single_combination_is_best(self):
        ds = two_level_dataset()
        grid = pt.Grid(max_depth=(4,), min_split_sample=(5,),
                       min_leaf_sample=(5,), min_leaf_impurity=(0.001,))
        res = pt.grid_search_cv(ds, grid, k=5, seed=1)
        assert len(res.rows) == 1
        assert res.best_params == grid.combinations()[0]

    def test_selects_depth_that_fits_structure(self):
        ds = two_level_dataset()
        grid = pt.Grid(max_depth=(1, 3), min_split_sample=(5,),
                       min_leaf_sample=(5,), min_leaf_impurity=(0.001,))
        res = pt.grid_search_cv(ds, grid, k=5, seed=1)
        assert res.best_params.max_depth == 3
        deep = next(r for r in res.rows if r.params.max_depth == 3)
        assert deep.mean_score == pytest.approx(0.0, abs=1e-9)

    def test_fold_scores_counted_per_combination(self):
        ds = two_level_dataset()
        grid = pt.Grid(max_depth=(1, 2), min_split_sample=(5,),
                       min_leaf_sample=(5,), min_leaf_impurity=(0.001,))
        res = pt.grid_search_cv(ds, grid, k=7, seed=1)
        assert all(len(r.fold_scores) == 7 for r in res.rows)

    def test_deterministic(self):
        ds = two_level_dataset()
        grid = pt.Grid(max_depth=(1, 3), min_split_sample=(5, 10),
                       min_leaf_sample=(5,), min_leaf_impurity=(0.001,))
        a = pt.grid_search_cv(ds, grid, k=5, seed=9)
        b = pt.grid_search_cv(ds, grid, k=5, seed=9)
        assert a.rows == b.rows
        assert a.best_params == b.best_params

    def test_validation_is_held_out(self):
        # random targets cannot be predicted on held-out samples, so a
        # leaked evaluation would be the only way to score near zero
        rng = np.random.default_rng(5)
        X = np.arange(120)[:, None] * 3
        y = rng.uniform(1.0, 9.0, 120)
        ds = make_dataset(X, y)
        grid = pt.Grid(max_depth=(16,), min_split_sample=(2,),
                       min_leaf_sample=(1,), min_leaf_impurity=(0.0,))
        res = pt.grid_search_cv(ds, grid, k=5, seed=1)
        train_mae = pt.mae_percent(
            pt.predict_tree_batch(res.best_model, ds.features), ds.powers)
        assert train_mae == pytest.approx(0.0, abs=1e-9)  # memorizes train
        assert res.best_score > 10.0  # but cannot memorize validation

    def test_tie_breaks_prefer_simpler_model(self):
        # constant targets: every combination scores identically
        X = np.arange(40)[:, None]
        ds = make_dataset(X, np.full(40, 3.0))
        grid = pt.Grid(max_depth=(2, 5), min_split_sample=(5,),
                       min_leaf_sample=(5,), min_leaf_impurity=(0.01, 0.05))
        res = pt.grid_search_cv(ds, grid, k=4, seed=1)
        assert res.best_params.max_depth == 2
        assert res.best_params.min_leaf_impurity == 0.05


def naive_grid_search_cv(dataset, grid, k, seed):
    """Reference search: one fit_tree per combination per fold."""
    folds = pt.kfold_split(len(dataset), k, seed)
    rows = []
    for hp in grid.combinations():
        scores = []
        for fold, pool in zip(folds, _fold_pools(folds)):
            tree = pt.fit_tree(dataset.take(pool), hp)
            pred = pt.predict_tree_batch(tree, dataset.features[fold])
            scores.append(pt.mae_percent(pred, dataset.powers[fold]))
        rows.append(CvRow(hp, tuple(scores), float(np.mean(scores))))
    best = min(rows, key=lambda r: (
        r.mean_score, r.params.max_depth, -r.params.min_leaf_impurity,
        r.params.min_split_sample, r.params.min_leaf_sample))
    return CvResult(tuple(rows), best.params, best.mean_score, k, seed,
                    pt.fit_tree(dataset, best.params))


def assert_same_search(fast, slow):
    assert fast.rows == slow.rows
    # repr round-trips floats exactly, so equal text means equal bits
    assert pt.cv_table_text(fast) == pt.cv_table_text(slow)
    assert fast.best_params == slow.best_params
    assert fast.best_score == slow.best_score
    assert pt.rule_text(fast.best_model) == pt.rule_text(slow.best_model)


def axis(values):
    return st.lists(st.sampled_from(values), min_size=2, max_size=2,
                    unique=True).map(tuple)


@st.composite
def search_cases(draw):
    n = draw(st.integers(8, 40))
    X = draw(arrays(np.int64, (n, draw(st.integers(1, 3))),
                    elements=st.integers(0, 4)))
    if draw(st.booleans()):  # a duplicated column ties every split on it
        X = np.hstack([X, X[:, :1]])
    if draw(st.booleans()):  # constant targets: zero root variance
        y = np.full(n, float(draw(st.integers(1, 5))))
    else:
        y = draw(arrays(np.float64, n, elements=st.integers(1, 6).map(float)))
    grid = pt.Grid(max_depth=draw(axis([1, 2, 3, 12])),
                   min_split_sample=draw(axis([2, 3, 5, 9])),
                   min_leaf_sample=draw(axis([1, 2, 3, 4])),
                   min_leaf_impurity=(0.0, draw(st.sampled_from(
                       [0.01, 0.1, 0.3]))))
    return make_dataset(X, y), grid, draw(st.integers(2, 4)), \
        draw(st.integers(0, 99))


class TestGridSearchMatchesNaiveOracle:
    @given(search_cases())
    @settings(max_examples=80, deadline=None)
    def test_small_integer_datasets(self, case):
        ds, grid, k, seed = case
        assert_same_search(pt.grid_search_cv(ds, grid, k, seed),
                           naive_grid_search_cv(ds, grid, k, seed))

    def test_synthetic_power_dataset(self):
        design = pt.generate_design(pt.DesignSpec(
            n_linear_nets=12, n_nonlinear_units=2, correlation_groups=2,
            seed=4))
        ds = pt.simulate_dataset(design, 300, 60, seed=8)
        grid = pt.Grid(max_depth=(2, 9), min_split_sample=(5, 20),
                       min_leaf_sample=(1, 5, 10),
                       min_leaf_impurity=(0.0, 0.001, 0.05))
        fast = pt.grid_search_cv(ds, grid, k=5, seed=3)
        assert_same_search(fast, naive_grid_search_cv(ds, grid, 5, 3))
        assert len({r.mean_score for r in fast.rows}) > 10

    def test_limits_equal_to_node_statistics(self):
        # Limits taken from the nodes of one fold's tree sit exactly on the
        # boundary of each stop test (depth >= d, n < s, ratio < i).
        rng = np.random.default_rng(2)
        ds = make_dataset(rng.integers(0, 8, (120, 3)),
                          rng.integers(1, 20, 120).astype(float))
        k, seed = 4, 5
        pool = _fold_pools(pt.kfold_split(len(ds), k, seed))[0]
        tree = pt.fit_tree(ds.take(pool), pt.HyperParams(12, 2, 2, 0.0))
        inner = 1 + np.flatnonzero(tree.left[1:] >= 0)  # below the root
        ratios = sorted({r for r in (tree.impurity[inner] / tree.impurity[0])
                         .tolist() if r < 1.0})
        sizes = sorted(set(tree.n_samples[inner].tolist()))
        grid = pt.Grid(max_depth=(2, 3, 12), min_split_sample=(2,) + tuple(
            sizes[::4]), min_leaf_sample=(2, 3),
            min_leaf_impurity=(0.0,) + tuple(ratios[::4]))
        assert len(grid.combinations()) >= 3 * 4 * 2 * 4
        assert_same_search(pt.grid_search_cv(ds, grid, k, seed),
                           naive_grid_search_cv(ds, grid, k, seed))


class TestLearningCurve:
    def test_full_size_matches_cv_score(self):
        ds = two_level_dataset(n=300)
        hp = pt.HyperParams(3, 5, 5, 0.001)
        k, seed = 5, 11
        pool = 300 - 300 // k
        points = pt.learning_curve(ds, hp, [50, pool], k=k, seed=seed)
        grid = pt.Grid(max_depth=(3,), min_split_sample=(5,),
                       min_leaf_sample=(5,), min_leaf_impurity=(0.001,))
        res = pt.grid_search_cv(ds, grid, k=k, seed=seed)
        assert points[-1].tree_val == pytest.approx(res.best_score, rel=1e-12)

    def test_sizes_validated(self):
        ds = two_level_dataset(n=100)
        hp = pt.HyperParams(3, 5, 5, 0.001)
        with pytest.raises(ValueError):
            pt.learning_curve(ds, hp, [50, 30], k=5, seed=0)
        with pytest.raises(ValueError):
            pt.learning_curve(ds, hp, [2, 99], k=5, seed=0)

    def test_text_output(self):
        ds = two_level_dataset(n=200)
        points = pt.learning_curve(ds, pt.HyperParams(3, 5, 5, 0.001),
                                   [40, 80], k=5, seed=0)
        text = pt.learning_curve_text(points)
        lines = text.strip().splitlines()
        assert lines[0] == "size,tree_train,tree_val,linear_train,linear_val"
        assert len(lines) == 3


class TestCvTableText:
    def test_row_count_and_header(self):
        ds = two_level_dataset(n=200)
        grid = pt.Grid(max_depth=(1, 2), min_split_sample=(5,),
                       min_leaf_sample=(5,), min_leaf_impurity=(0.01,))
        res = pt.grid_search_cv(ds, grid, k=4, seed=2)
        lines = pt.cv_table_text(res).strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("max_depth,min_split_sample")
        assert lines[0].count("fold_") == 4
