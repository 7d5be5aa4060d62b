"""Recursive feature elimination driven by tree feature importances."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (HyperParams, _grow_many, feature_importances, mae_percent,
                    predict_tree_batch)
from .workload import Dataset, _table_text

__all__ = ["RfeStep", "RfeResult", "rfe", "rfe_history_text"]


@dataclass(frozen=True)
class RfeStep:
    iteration: int
    dropped: tuple[str, ...]
    train_mae_percent: float


@dataclass(frozen=True)
class RfeResult:
    retained: tuple[str, ...]  # ordered by final importance, descending
    history: tuple[RfeStep, ...]


def rfe(dataset: Dataset, hp: HyperParams,
        target_fraction: float = 0.2) -> RfeResult:
    """Iteratively drop the least-important 10% of remaining features.

    Zero-importance features go first regardless of the 10% cap; at least one
    feature is dropped per iteration, and the loop stops once
    ceil(target_fraction * n_original) features remain.  Importance ties drop
    the feature that appears later in the dataset's column order.

    Each iteration's tree, and the final refit's, is fit_tree's on the
    remaining features.  It is grown from the previous tree: every split on
    a surviving feature is kept as it was, and only the subtrees under a
    dropped feature's splits are searched again (model._grow_many says why
    that is exact).
    """
    if len(dataset) == 0:
        raise ValueError("cannot select features on an empty dataset")
    if not (0.0 < target_fraction <= 1.0):
        raise ValueError("target_fraction must lie in (0, 1]")
    if dataset.n_features < 2:
        raise ValueError("need at least 2 features")

    original = dataset.feature_names
    position = {name: i for i, name in enumerate(original)}
    n_target = math.ceil(target_fraction * len(original))
    remaining = list(original)
    history: list[RfeStep] = []
    iteration = 0
    tree = remap = None
    every_row = [np.arange(len(dataset))]

    while len(remaining) > n_target:
        sub = dataset.select_features(remaining)
        [tree] = _grow_many(sub, every_row, hp, tree, remap)
        imp = feature_importances(tree)
        train_mae = mae_percent(predict_tree_batch(tree, sub.features), sub.powers)

        n_drop = max(1, int(0.1 * len(remaining)))
        n_zero = int((imp == 0.0).sum())
        n_drop = max(n_drop, n_zero)
        n_drop = min(n_drop, len(remaining) - n_target)

        order = sorted(range(len(remaining)),
                       key=lambda j: (imp[j], -position[remaining[j]]))
        dropped = tuple(remaining[j] for j in order[:n_drop])
        history.append(RfeStep(iteration, dropped, train_mae))
        iteration += 1
        gone = set(dropped)
        kept = np.array([name not in gone for name in remaining])
        remap = np.where(kept, np.cumsum(kept) - 1, -1)
        remaining = [name for name in remaining if name not in gone]

    [final] = _grow_many(dataset.select_features(remaining), every_row, hp,
                         tree, remap)
    imp = feature_importances(final)
    ranked = sorted(range(len(remaining)),
                    key=lambda j: (-imp[j], position[remaining[j]]))
    retained = tuple(remaining[j] for j in ranked)
    return RfeResult(retained, tuple(history))


def rfe_history_text(result: RfeResult) -> str:
    """Elimination audit trail as delimited text."""
    return _table_text(
        ["iteration", "n_dropped", "train_mae_percent", "dropped"],
        ((step.iteration, len(step.dropped), step.train_mae_percent,
          ";".join(step.dropped)) for step in result.history))
