"""Recursive feature elimination driven by tree feature importances."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (HyperParams, _grow_many, feature_importances, mae_percent,
                    predict_tree_batch)
from .workload import Dataset, _table_text, _value

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

    Each iteration's tree, and the final one's, is fit_tree's on the
    remaining features.  It is grown from the previous tree, matched by
    feature name: every split on a surviving feature is kept as it was, and
    only the subtrees under a dropped feature's splits are searched again
    (model._grow_many says why that is exact).
    """
    if len(dataset) == 0:
        raise ValueError("cannot select features on an empty dataset")
    if not 0.0 < _value(target_fraction, float, "target_fraction") <= 1.0:
        raise ValueError("target_fraction must lie in (0, 1]")
    if dataset.n_features < 2:
        raise ValueError("need at least 2 features")

    original = dataset.feature_names
    position = {name: i for i, name in enumerate(original)}
    n_target = math.ceil(target_fraction * len(original))
    remaining = list(original)
    history: list[RfeStep] = []
    tree = None

    while True:
        sub = dataset.select_features(remaining)
        [tree] = _grow_many(sub, [np.arange(len(sub))], hp, tree)
        imp = feature_importances(tree)
        if len(remaining) <= n_target:
            break
        train_mae = mae_percent(predict_tree_batch(tree, sub.features), sub.powers)

        n_zero = int((imp == 0.0).sum())
        n_drop = min(max(1, int(0.1 * len(remaining)), n_zero),
                     len(remaining) - n_target)

        order = sorted(range(len(remaining)),
                       key=lambda j: (imp[j], -position[remaining[j]]))
        dropped = tuple(remaining[j] for j in order[:n_drop])
        history.append(RfeStep(len(history), dropped, train_mae))
        remaining = [name for name in remaining if name not in dropped]

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
