"""Cross-validated hyper-parameter search and learning curves."""

from __future__ import annotations

import itertools
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .model import (DecisionTree, HyperParams, _grow_many, _truncated_predict,
                    fit_linear, fit_tree, mae_percent, predict_linear_batch,
                    predict_tree_batch)
from .workload import Dataset, _at_least, _check_fields, _table_text, _value

__all__ = [
    "Grid",
    "CvRow",
    "CvResult",
    "LearningPoint",
    "kfold_split",
    "grid_search_cv",
    "learning_curve",
    "cv_table_text",
    "learning_curve_text",
]


@dataclass(frozen=True)
class Grid:
    """Candidate hyper-parameter sets; defaults give 6*4*4*6 = 576 combos."""

    max_depth: tuple[int, ...] = (3, 4, 5, 6, 7, 8)
    min_split_sample: tuple[int, ...] = (5, 10, 15, 20)
    min_leaf_sample: tuple[int, ...] = (5, 10, 15, 20)
    min_leaf_impurity: tuple[float, ...] = (0.001, 0.01, 0.02, 0.03, 0.04, 0.05)

    def __post_init__(self) -> None:
        _check_fields(self)
        for name in ("max_depth", "min_split_sample", "min_leaf_sample",
                     "min_leaf_impurity"):
            if not getattr(self, name):
                raise ValueError(f"{name} set must be non-empty")
        self.combinations()  # each one must be valid HyperParams

    def combinations(self) -> list[HyperParams]:
        return [HyperParams(d, s, l, i) for d, s, l, i in itertools.product(
            sorted(self.max_depth), sorted(self.min_split_sample),
            sorted(self.min_leaf_sample), sorted(self.min_leaf_impurity))]


@dataclass(frozen=True)
class CvRow:
    params: HyperParams
    fold_scores: tuple[float, ...]
    mean_score: float


@dataclass(frozen=True)
class CvResult:
    rows: tuple[CvRow, ...]
    best_params: HyperParams
    best_score: float
    k: int
    seed: int
    best_model: DecisionTree = field(repr=False, compare=False, default=None)


def kfold_split(n_samples: int, k: int, seed: int) -> list[np.ndarray]:
    """Shuffled partition into k folds with sizes differing by at most one."""
    if _at_least(k, int, 2, "k") > _value(n_samples, int, "n_samples"):
        raise ValueError("k must not exceed n_samples")
    rng = np.random.default_rng(_value(seed, int, "seed"))
    return list(np.array_split(rng.permutation(n_samples), k))


def _fold_pools(folds: list[np.ndarray]) -> list[np.ndarray]:
    """Training pool per fold: the other folds, concatenated in order."""
    return [np.concatenate([f for j, f in enumerate(folds) if j != i])
            for i in range(len(folds))]


def grid_search_cv(dataset: Dataset, grid: Grid, k: int = 10,
                   seed: int = 0) -> CvResult:
    """Exhaustive grid search scored by mean validation MAE% over k folds.

    Score ties prefer simpler models, in this order: smaller max_depth,
    larger min_leaf_impurity, smaller min_split_sample, then smaller
    min_leaf_sample.  The returned best_model is retrained on the entire
    dataset (training plus validation folds).

    Per min_leaf_sample value, the k fold trees are grown together at the
    grid's loosest limits (model._grow_many), and each combination is
    scored on them cut back to its own limits (model._truncated_predict),
    bitwise as if it were fitted on its own.
    """
    if len(dataset) < _value(k, int, "k"):
        raise ValueError("dataset smaller than the number of folds")
    combos = grid.combinations()
    folds = kfold_split(len(dataset), k, seed)
    pools = _fold_pools(folds)
    X = dataset.features
    scores: list[list[float]] = [[] for _ in combos]
    for leaf in sorted(set(grid.min_leaf_sample)):
        members = [c for c, hp in enumerate(combos)
                   if hp.min_leaf_sample == leaf]
        loosest = HyperParams(max(grid.max_depth), min(grid.min_split_sample),
                              leaf, min(grid.min_leaf_impurity))
        for fold, grown in zip(folds, _grow_many(dataset, pools, loosest)):
            preds = _truncated_predict(grown, X[fold],
                                       [combos[c] for c in members])
            for c, pred in zip(members, preds):
                scores[c].append(mae_percent(pred, dataset.powers[fold]))
    rows = [CvRow(hp, tuple(s), float(np.mean(s)))
            for hp, s in zip(combos, scores)]

    best = min(rows, key=lambda r: (
        r.mean_score, r.params.max_depth, -r.params.min_leaf_impurity,
        r.params.min_split_sample, r.params.min_leaf_sample))
    best_model = fit_tree(dataset, best.params)
    return CvResult(tuple(rows), best.params, best.mean_score, k, seed,
                    best_model)


@dataclass(frozen=True)
class LearningPoint:
    size: int
    tree_train: float
    tree_val: float
    linear_train: float
    linear_val: float


def learning_curve(dataset: Dataset, hp: HyperParams, sizes: list[int],
                   k: int = 10, seed: int = 0) -> list[LearningPoint]:
    """Mean train/validation MAE% versus training-set size, for both the
    tree and the linear baseline.

    Per fold and size, only the first `size` samples of the fold's training
    pool are used; fold assignment matches grid_search_cv for the same seed.
    The k trees of one size are grown together (model._grow_many).
    """
    folds = kfold_split(len(dataset), k, seed)
    pools = _fold_pools(folds)
    min_pool = min(len(p) for p in pools)
    sizes = _value(list(sizes), [int], "sizes")
    if list(sizes) != sorted(sizes):
        raise ValueError("sizes must be ascending")
    if not sizes or sizes[0] < 1 or sizes[-1] > min_pool:
        raise ValueError(f"sizes must lie in [1, {min_pool}]")
    if sizes[0] <= dataset.n_features:
        raise ValueError("smallest size must exceed the feature count")

    points = []
    for size in sizes:
        acc = np.zeros(4)
        trees = _grow_many(dataset, [pool[:size] for pool in pools], hp)
        for fold, pool, tree in zip(folds, pools, trees):
            sub = dataset.take(pool[:size])
            lin = fit_linear(sub)
            acc += [
                mae_percent(predict_tree_batch(tree, sub.features), sub.powers),
                mae_percent(predict_tree_batch(tree, dataset.features[fold]),
                            dataset.powers[fold]),
                mae_percent(predict_linear_batch(lin, sub.features), sub.powers),
                mae_percent(predict_linear_batch(lin, dataset.features[fold]),
                            dataset.powers[fold]),
            ]
        acc /= k
        points.append(LearningPoint(size, *acc))
    return points


def cv_table_text(result: CvResult) -> str:
    head = [f.name for f in fields(HyperParams)]
    head += [f"fold_{i}" for i in range(result.k)] + ["mean"]
    return _table_text(head, ((*astuple(row.params), *row.fold_scores,
                               row.mean_score) for row in result.rows))


def learning_curve_text(points: list[LearningPoint]) -> str:
    return _table_text([f.name for f in fields(LearningPoint)],
                       map(astuple, points))
