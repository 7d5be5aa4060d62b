"""Regression models over activity counts.

Greedy binary regression trees (variance-minimizing CART), an ordinary
least-squares baseline, frequency-scaled prediction, additive ensembles of
per-component trees, and the MAE% metric used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .workload import (_KINDS, Dataset, _check_fields, _field, _json_doc,
                       _json_text, _names, _positive, _value)

__all__ = [
    "HyperParams",
    "DecisionTree",
    "LinearModel",
    "EnsembleModel",
    "fit_tree",
    "predict_tree",
    "predict_tree_batch",
    "feature_importances",
    "fit_linear",
    "predict_linear",
    "predict_linear_batch",
    "scale_prediction",
    "predict_ensemble",
    "mae_percent",
    "tree_text",
    "parse_tree",
    "save_tree",
    "linear_text",
    "parse_linear",
    "rule_text",
]


@dataclass(frozen=True)
class HyperParams:
    """Tree growth limits.  A node stays a leaf at depth max_depth or
    deeper, with fewer than min_split_sample samples, or with a target
    variance below min_leaf_impurity times the root's (every node, when
    that is zero): _stopped states these tests.  A split must leave at
    least min_leaf_sample samples on each side."""

    max_depth: int = 6
    min_split_sample: int = 5
    min_leaf_sample: int = 5
    min_leaf_impurity: float = 0.01

    def __post_init__(self) -> None:
        _check_fields(self, max_depth=1, min_split_sample=2, min_leaf_sample=1)
        if not (0.0 <= self.min_leaf_impurity < 1.0):
            raise ValueError("min_leaf_impurity must lie in [0, 1)")


def _stopped(depth, n_samples, impurity, root_var, max_depth, min_split,
             min_impurity):
    """Whether HyperParams' limits stop a node of this depth, n_samples
    and impurity, root_var being the root's impurity.  The arguments
    broadcast; Python numbers give a bool.  A zero root_var stops every
    node, and is divided as 1.0 so that no warning is raised."""
    zero = root_var == 0.0
    return ((depth >= max_depth) | (n_samples < min_split) | zero
            | (impurity / (root_var + zero) < min_impurity))


@dataclass(eq=False)
class DecisionTree:
    """A fitted tree as one array entry per node, in preorder (a node, its
    left subtree, then its right subtree); node 0 is the root.

    n_samples, impurity (population variance of the training targets that
    reached the node, in W^2), value (their mean) and node_depth are kept
    on every node.  A decision node sends x[feature] <= threshold to its
    left child and records the impurity decrease its split achieved; a leaf
    has left == right == -1, feature 0, threshold 0.0 and reduction 0.0.
    A tree read by parse_tree has value NaN on its decision nodes, which
    powertree-tree-v1 does not store.
    """

    n_samples: np.ndarray
    impurity: np.ndarray
    value: np.ndarray
    node_depth: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    reduction: np.ndarray
    left: np.ndarray
    right: np.ndarray
    n_features: int
    model_freq: float
    feature_ids: tuple[str, ...]

    @property
    def depth(self) -> int:
        return int(self.node_depth.max())

    def n_leaves(self) -> int:
        return int((self.left < 0).sum())


_KINDS["tuple[tuple[DecisionTree, tuple[str, ...]], ...]"] = [
    (DecisionTree, [str])]  # an EnsembleModel's (tree, feature ids) pairs


@dataclass(frozen=True)
class LinearModel:
    """power = features @ weights + intercept, in watts at model_freq.

    weights must be a finite 1-D float array, intercept finite and
    model_freq finite and > 0; feature_ids, when given, are unique strings,
    one per weight, and are stored as a tuple."""

    weights: np.ndarray  # watts per count
    intercept: float
    model_freq: float
    feature_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check_fields(self, model_freq=_positive, feature_ids=_names)
        w = self.weights
        if not (w.ndim == 1 and w.dtype.kind == "f" and np.isfinite(w).all()):
            raise ValueError("weights must be a finite 1-D float array")
        if self.feature_ids and len(self.feature_ids) != w.size:
            raise ValueError("feature_ids must name one feature per weight")


@dataclass(frozen=True)
class EnsembleModel:
    """Additive combination of per-component trees over disjoint features."""

    components: tuple[tuple[DecisionTree, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        _check_fields(self)
        seen: set[str] = set()
        for tree, ids in self.components:
            if len(_names(ids, "component feature ids")) != tree.n_features:
                raise ValueError("feature-id subset must match the tree width")
            overlap = seen & set(ids)
            if overlap:
                raise ValueError(f"component feature sets overlap: {sorted(overlap)}")
            seen |= set(ids)


def _ranks(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """keys (n, F) = f * B + the rank of X[r, f] in column f of the integer
    counts X, and values (F, B) = the count of each rank (0.0 past the
    column's last), B being the most distinct counts in any column.

    Counts below a bound W fill a presence table of F * W cells; when that
    is no larger than X (or 2**16 cells) the table ranks them with no sort,
    and wider counts are sorted."""
    n_feat = X.shape[1]
    width = int(X.max(initial=0)) + 1
    if width * n_feat > np.iinfo(np.int64).max:  # the keys would wrap
        raise ValueError("activity counts too large to rank")
    if width * n_feat <= max(X.size, 2**16):
        return _ranks_by_table(X, width)
    return _ranks_by_sort(X, width)


def _ranks_by_table(X: np.ndarray,
                    width: int) -> tuple[np.ndarray, np.ndarray]:
    """_ranks of counts in [0, width), from a (F, width) table: a count's
    rank is the number of distinct counts below it in its column."""
    n_feat = X.shape[1]
    flat = X.astype(np.intp)
    flat += np.arange(n_feat, dtype=np.intp) * width
    seen = np.zeros((n_feat, width), dtype=bool)
    seen.reshape(-1)[flat] = True
    # the table may have as many cells as X: int32 halves it
    table = np.cumsum(seen, axis=1, dtype=np.int32 if n_feat * width < 2**31
                      else np.intp)
    n_bins = int(table[:, -1].max(initial=0))
    col, count = np.nonzero(seen)
    values = np.zeros((n_feat, n_bins))
    values[col, table[col, count] - 1] = count
    table += (np.arange(n_feat, dtype=table.dtype) * n_bins - 1)[:, None]
    keys = table.reshape(-1)[flat]
    del flat  # freed before keys' intp copy is made
    # row-major whatever X's layout, so a row's keys are one run of memory
    return keys.astype(np.intp, order="C"), values


def _ranks_by_sort(X: np.ndarray,
                   width: int) -> tuple[np.ndarray, np.ndarray]:
    """_ranks of counts in [0, width), by one np.unique over all n * F
    (column, count) keys."""
    n_feat = X.shape[1]
    # the narrowest unsigned type that holds the keys sorts fastest
    kind = np.min_scalar_type(width * n_feat)
    flat, inverse = np.unique(np.arange(n_feat, dtype=kind) * width
                              + X.astype(kind), return_inverse=True)
    col = (flat // width).astype(np.intp)
    rank = np.arange(flat.size) - np.searchsorted(col, col)
    n_bins = int(rank.max(initial=-1)) + 1
    values = np.zeros((n_feat, n_bins))
    values[col, rank] = flat % width
    # numpy versions differ in the inverse's shape, not in its flat order
    return (col * n_bins + rank)[inverse.reshape(X.shape)], values


# A chunk of nodes searched together holds at most _CHUNK_CELLS (node,
# feature, bin) histogram cells, or one node with more, and is binned in
# blocks of at most _CHUNK_ENTRIES (row, feature) key entries, or of as
# many as the chunk has cells.
_CHUNK_ENTRIES = 2**15
_CHUNK_CELLS = 2**14


def _moments(y: np.ndarray) -> tuple[float, float]:
    """(mean, variance) of y, bitwise np.mean(y) and np.var(y): the same
    pairwise sums, taken in the same order."""
    mean = np.add.reduce(y) / y.size
    d = y - mean
    d *= d
    return float(mean), float(np.add.reduce(d) / y.size)


def _best_splits(keys: np.ndarray, values: np.ndarray, nodes: list,
                 min_leaf: int) -> list:
    """The best split of each node, or None where no candidate scores
    strictly above zero: (feature, threshold, impurity_decrease, left, and
    the (targets, mean, variance) of each side), left marking the node's
    rows that go left.

    keys and values are _ranks of the counts; a node is (rows, y, var):
    its rows of the counts in their order, its targets y in that order,
    and var = np.var(y).  A candidate is a midpoint of consecutive distinct
    counts of one feature in the node that leaves at least min_leaf rows on
    each side.  Its score is the decrease of mean squared deviation,
    var(parent) - weighted var(children), taken from the two children's
    variances over their targets in the node's order (_moments), which
    depends on the partition alone.  The highest score wins; among equal
    scores the lowest feature, then the lowest threshold.  That is the rule
    an exhaustive scan applies.

    Every candidate first gets a fast score from the count and sum(y) of
    each (node, feature, rank) cell, summed cumulatively over the ranks:
    with nl rows and the sum sl on its left, nr = m - nl rows and
    sr = sum(y) - sl on its right,
    fast = (sl**2 / nl + sr**2 / nr - sum(y)**2 / m) / m, the decrease with
    the sums of squares of the parent and its children cancelled.  Only the
    candidates whose fast score is at least top - tol are scored exactly,
    top being the node's best fast score.  A candidate whose partition a
    lower one already had scores the same and is not scored again.  Let
    S = sum(y**2) over the node's m rows.  A sum of k terms, in any order
    and grouping (here within each block of rows, then over the blocks,
    then over the ranks), errs by at most (k - 1) eps / 2 times the sum of
    its terms' magnitudes, to first order, and sum|y| <= sqrt(m S).  The
    largest error of a fast score is in sr**2 / nr, where sr = sum(y) - sl
    cancels: sr errs by up to m eps sqrt(m S), and |sr| / nr <= sqrt(S), so
    the term errs by up to 2 m eps sqrt(m) S, or 2 eps sqrt(m) S after the
    final division by m.  sl**2 / nl errs by half as much and
    sum(y)**2 / m by eps S, and with the rounding of the operations
    themselves a fast score lies within E_fast = (3 sqrt(m) + 8) eps S of
    the exact decrease of its candidate, and the exact score (pairwise sums
    of squared deviations from a rounded mean) within
    E_exact = (1 + 6 / m) eps S of it.  Were a candidate k outside the band
    to score at least as high as the fast winner f, then
    top - E_fast - E_exact <= score(f) <= score(k)
    <= fast(k) + E_fast + E_exact < top - tol + E_fast + E_exact, that is
    tol < 2 (E_fast + E_exact) <= (6 sqrt(m) + 30) eps S.  So with
    tol = 16 (sqrt(m) + 4) eps S = 16 m (sqrt(m) + 4) eps (S / m), over
    twice that first-order bound (the margin covers the second-order terms,
    and the rounding of S itself, for any m up to 2**32), no candidate
    outside the band can beat or tie the winner, and the result is the one
    scoring every candidate exactly would give, whatever order and grouping
    the fast sums took.

    The nodes are searched in chunks of at most _CHUNK_CELLS cells, and a
    chunk's rows are binned in blocks of at most _CHUNK_ENTRIES entries or
    the chunk's cells, whichever is more, so no temporary grows with the
    rows times the features beyond the histogram itself.
    """
    if values.size == 0:  # no feature, no candidate
        return [None] * len(nodes)
    per_chunk = max(1, _CHUNK_CELLS // values.size)
    return [found for lo in range(0, len(nodes), per_chunk)
            for found in _search_chunk(keys, values,
                                       nodes[lo:lo + per_chunk], min_leaf)]


def _search_chunk(keys: np.ndarray, values: np.ndarray, nodes: list,
                  min_leaf: int) -> list:
    """_best_splits of one chunk of nodes, binned together by one pair of
    np.bincount calls per block of rows over node-offset keys; a node's
    rows may span blocks, whose sums add up in its cells."""
    n_feat, n_bins = values.shape
    k_nodes, cells = len(nodes), values.size
    rows = np.concatenate([r for r, _, _ in nodes])
    ys = np.concatenate([y for _, y, _ in nodes])
    m = np.array([r.size for r, _, _ in nodes])
    starts = np.cumsum(m) - m
    shift = np.repeat(np.arange(k_nodes) * cells, m)[:, None]
    # a block's temporaries are no larger than the chunk's cells, which
    # exist anyway, so binning costs O(entries + cells)
    step = max(1, max(_CHUNK_ENTRIES, k_nodes * cells) // n_feat)

    def binned(lo: int) -> tuple[np.ndarray, np.ndarray]:
        """The count and sum(y) of each (node, feature, rank) cell over
        the rows [lo, lo + step) of the chunk."""
        flat = keys[rows[lo:lo + step]]
        flat += shift[lo:lo + step]
        flat = flat.ravel()
        return (np.bincount(flat, minlength=k_nodes * cells),
                np.bincount(flat, np.repeat(ys[lo:lo + step], n_feat),
                            k_nodes * cells))

    count, sy = binned(0)
    for lo in range(step, rows.size, step):
        more = binned(lo)
        count += more[0]
        sy += more[1]
    # one row of ranks per (node, feature), summed cumulatively in place
    count, cy = count.reshape(-1, n_bins), sy.reshape(-1, n_bins)
    filled = count > 0
    nl = np.cumsum(count, axis=1, out=count)
    np.cumsum(cy, axis=1, out=cy)
    # cutting after a non-empty bin leaves nl samples on the left
    cand = (filled & (nl >= min_leaf) & (
        nl <= np.repeat(m - min_leaf, n_feat)[:, None])).ravel().nonzero()[0]
    out: list = [None] * k_nodes
    if cand.size == 0:
        return out
    row = cand // n_bins
    node = row // n_feat
    tot, mk = cy[:, -1][row], m[node]
    nl, sl = nl.ravel()[cand], cy.ravel()[cand]
    sr = tot - sl
    red = (sl * sl / nl + sr * sr / (mk - nl) - tot * tot / mk) / mk
    # the candidates of a node are a run of cand
    per = np.bincount(node, minlength=k_nodes)
    has = per > 0
    tol = (16.0 * (np.sqrt(m[has]) + 4.0) * np.finfo(np.float64).eps
           * np.add.reduceat(ys * ys, starts)[has])
    floor = np.maximum.reduceat(red, (np.cumsum(per) - per)[has]) - tol
    band = cand[red >= np.repeat(floor, per[has])]
    node, f = np.divmod(band // n_bins, n_feat)
    scored: set[tuple[int, bytes]] = set()
    # candidates in (node, feature, threshold) order, so the first of equal
    # scores is the lowest
    for i, j, r in zip(node.tolist(), f.tolist(), (band % n_bins).tolist()):
        node_rows, y, var = nodes[i]
        left = keys[:, j][node_rows] <= j * n_bins + r
        # a partition already scored for a lower candidate scores the same
        # and cannot win
        key = (i, left.tobytes())
        if key in scored:
            continue
        scored.add(key)
        yl, yr = y[left], y[~left]
        (ml, vl), (mr, vr) = _moments(yl), _moments(yr)
        score = (var * y.size - (vl * yl.size + vr * yr.size)) / y.size
        if score > 0.0 and (out[i] is None or score > out[i][2]):
            above = r + 1 + int(np.flatnonzero(filled[i * n_feat + j,
                                                      r + 1:])[0])
            out[i] = (j, float(0.5 * (values[j, r] + values[j, above])),
                      score, left, (yl, ml, vl), (yr, mr, vr))
    return out


def fit_tree(dataset: Dataset, hp: HyperParams) -> DecisionTree:
    """Grow a variance-minimizing binary regression tree.

    A node becomes a leaf when hp's limits stop it (HyperParams), it is
    pure, or no candidate split reduces variance (candidates that would
    starve a child below min_leaf_sample are skipped).

    Each column's counts are ranked once, and the tree is grown level by
    level, each level's nodes binned by rank together (_grow_many).
    """
    return _grow_many(dataset, [np.arange(len(dataset))], hp)[0]


def _grow_many(dataset: Dataset, row_sets: list, hp: HyperParams,
               prior: DecisionTree | None = None) -> list[DecisionTree]:
    """[fit_tree(dataset.take(rows), hp) for rows in row_sets], bit for bit,
    grown together level by level over the ranks of dataset's counts, taken
    once.

    Each row set keeps its order, and a split partitions its node's rows
    stably, so every node's targets are in the order fit_tree takes them
    in.  A node stops when _stopped says so or its targets are pure.  A
    child's n_samples, impurity and value are the ones its parent's winning
    split was scored with (_moments over the same targets in the same
    order), so only the roots take a variance of their own.  At each level
    the nodes of all trees that do not stop are searched together
    (_best_splits), and each tree is emitted in preorder at the end.

    Sharing one rank table across row sets is exact.  A rank that none of
    a node's rows hold adds an exact 0.0 to every cumulative sum after it,
    and a candidate sits only after a rank that some row holds, between
    two counts the node holds.  So a node has the candidates, thresholds
    and partitions that ranks of its own rows would give it; only the
    grouping of its fast sums differs, which the band of _best_splits
    covers.

    prior, if given, is the tree fit_tree grew with hp on the one row
    set's rows and targets over wider columns, of which dataset keeps some,
    by name, in their order (else ValueError).  A prior leaf stays a leaf,
    and a prior split on a kept feature keeps its threshold, reduction,
    n_samples, impurity and value, its children mirroring prior's children.
    A prior split on a dropped feature, and every node below it, is
    searched afresh.  That gives fit_tree's tree bit for bit:
    * a node's rows depend only on its ancestors' splits, which it shares
      with its prior node, so n_samples, impurity and value are the same;
    * the stopping rules read only the node's rows, so a node stopped by one
      stops again, and one that passed them passes again;
    * a kept split was the best candidate over a superset of the node's
      candidates, and deleting columns keeps their order, so the tie rule
      (the lowest feature, then the lowest threshold) still picks it;
    * its exact score and threshold depend on the node's rows and the
      split's column alone;
    * a node with no candidate scoring above zero has none in a subset.
    """
    if prior is not None:
        column = {name: j for j, name in enumerate(dataset.feature_names)}
        moved = [column.get(name, -1) for name in prior.feature_ids]
        if [j for j in moved if j >= 0] != list(range(dataset.n_features)):
            raise ValueError("columns must be some of prior's, in order")
    X = dataset.features
    y = dataset.powers.astype(np.float64)
    min_rows = max(hp.min_split_sample, 2 * hp.min_leaf_sample)
    ranked = None  # _ranks(X), taken on the first search
    # per tree, one [n_samples, impurity, value, feature, threshold,
    # reduction] record and one () or (left, right) per node, in the order
    # the nodes were made
    records: list[list[list]] = [[] for _ in row_sets]
    children: list[list[tuple]] = [[] for _ in row_sets]
    opened: list[tuple] = []  # (tree, node, rows, targets, prior node)

    def make(t: int, rows: np.ndarray, stats: tuple, ys: np.ndarray,
             p: int) -> int:
        """Node of tree t over rows, with (n_samples, impurity, value) stats
        and the rows' targets ys, mirroring prior node p (-1 for none): its
        index.  Unless it mirrors a prior leaf, it is open on the next
        level."""
        i = len(records[t])
        records[t].append([*stats, 0, 0.0, 0.0])
        children[t].append(())
        if p < 0 or prior.left[p] >= 0:  # a prior leaf stays a leaf
            opened.append((t, i, rows, ys, p))
        return i

    root_var = []
    for t, rows in enumerate(row_sets):
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size == 0:
            raise ValueError("cannot fit on an empty dataset")
        ys = y[rows]
        mean, var = _moments(ys)
        root_var.append(var)
        make(t, rows, (rows.size, var, mean), ys, -1 if prior is None else 0)
    depth = 0
    while opened:
        level, opened = opened, []
        # (tree, node, rows, left, and (stats, targets, prior node) of each
        # child)
        splits, search = [], []
        for node in level:
            t, i, rows, ys, p = node
            if p >= 0 and moved[prior.feature[p]] >= 0:
                j, thr = moved[prior.feature[p]], prior.threshold[p]
                records[t][i][3:] = [j, float(thr), float(prior.reduction[p])]
                left = X[rows, j] <= thr
                splits.append((t, i, rows, left, [
                    ((int(prior.n_samples[q]), float(prior.impurity[q]),
                      float(prior.value[q])), ys[side], q) for q, side in (
                        (prior.left[p], left), (prior.right[p], ~left))]))
                continue
            n, var = records[t][i][:2]
            # min_rows also stops nodes that can have no candidate split
            if (_stopped(depth, n, var, root_var[t], hp.max_depth, min_rows,
                         hp.min_leaf_impurity)
                    or np.minimum.reduce(ys) == np.maximum.reduce(ys)):
                continue
            search.append(node)
        if search:
            if ranked is None:
                ranked = _ranks(X)
            for (t, i, rows, ys, _), found in zip(search, _best_splits(
                    *ranked, [(rows, ys, records[t][i][1])
                              for t, i, rows, ys, _ in search],
                    hp.min_leaf_sample)):
                if found is not None:
                    f, thr, red, left, *sides = found
                    records[t][i][3:] = [f, thr, red]
                    splits.append((t, i, rows, left, [
                        ((side.size, var, mean), side, -1)
                        for side, mean, var in sides]))
        for t, i, rows, left, (lo, hi) in splits:
            children[t][i] = (make(t, rows[left], *lo),
                              make(t, rows[~left], *hi))
        depth += 1
    return [_tree_from_records(r, c, dataset.n_features, dataset.clock_freq,
                               dataset.feature_names)
            for r, c in zip(records, children)]


def _node_arrays(records: list[list]) -> list[np.ndarray]:
    """DecisionTree's nine node arrays from one record per node; an integer
    outside the int64 range raises OverflowError."""
    return [np.array(column, dtype=kind) for column, kind in zip(
        zip(*records), (np.int64, np.float64, np.float64, np.int64, np.int64,
                        np.float64, np.float64, np.int64, np.int64))]


def _paths(tree: DecisionTree, X: np.ndarray) -> np.ndarray:
    """(tree.depth + 1, n_rows) array: paths[d, r] is the node at depth d
    on row r's root-to-leaf path, or its leaf if the path ends higher up."""
    rows = np.arange(X.shape[0])
    paths = np.zeros((tree.depth + 1, rows.size), dtype=np.intp)
    for d in range(1, paths.shape[0]):
        cur = paths[d - 1]
        go_left = X[rows, tree.feature[cur]] <= tree.threshold[cur]
        paths[d] = np.where(tree.left[cur] < 0, cur,
                            np.where(go_left, tree.left[cur], tree.right[cur]))
    return paths


def _truncated_predict(grown: DecisionTree, X: np.ndarray,
                       hps: list[HyperParams]) -> np.ndarray:
    """Predictions for X of the grown tree cut back to each of hps, as a
    (len(hps), n_rows) array: row c is bitwise predict_tree_batch(
    fit_tree(data, hps[c]), X) when grown is fit_tree(data, loosest) and
    hps[c] has loosest's min_leaf_sample and limits no looser.

    Only min_leaf_sample changes which split a node takes.  The other
    three limits are monotone tests of the node alone (_stopped), so a
    node that loosest's limits stop, hp's stop too, and a node that no
    limit stops takes the same split under either.  A pure node, or one
    with too few rows for two min_leaf_sample children, is a leaf under
    both.  So fit_tree's tree at hp is a prefix of grown, with grown's node
    statistics: a node is a leaf of it exactly when it is a leaf of grown
    or _stopped fires at hp's limits.  Each row is predicted the value of
    the first such node on its path in grown.
    """
    paths = _paths(grown, X)
    stop = (grown.left < 0) | _stopped(
        grown.node_depth, grown.n_samples, grown.impurity, grown.impurity[0],
        *(np.array([getattr(hp, name) for hp in hps])[:, None] for name in (
            "max_depth", "min_split_sample", "min_leaf_impurity")))
    # the first stopping node on each path; a path's leaf always stops
    first = stop[:, paths].argmax(axis=1)
    return grown.value[paths[first, np.arange(X.shape[0])]]


def predict_tree(tree: DecisionTree, features) -> float:
    """Root-to-leaf traversal for one feature vector: a batch of one."""
    return float(predict_tree_batch(tree, np.asarray(features)[None])[0])


def _feature_matrix(X, width: int) -> np.ndarray:
    """X as an (n, width) array of integers or finite floats, uncast."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != width:
        raise ValueError(f"expected (n, {width}) features")
    if X.dtype.kind not in "iuf" or X.dtype.kind == "f" \
            and not np.isfinite(X).all():
        raise ValueError("features must be finite integers or floats")
    return X


def predict_tree_batch(tree: DecisionTree, X) -> np.ndarray:
    # an integer or float is compared with a float64 threshold exactly, uncast
    return tree.value[_paths(tree, _feature_matrix(X, tree.n_features))[-1]]


def feature_importances(tree: DecisionTree) -> np.ndarray:
    """Per-feature sum of (sample fraction x impurity decrease), normalized
    to unit sum.  All zeros for a single-leaf tree."""
    split = tree.left >= 0
    # bincount adds the weights in preorder; it counts in integers when
    # there is no split
    imp = np.bincount(tree.feature[split],
                      tree.n_samples[split] / tree.n_samples[0]
                      * tree.reduction[split],
                      minlength=tree.n_features).astype(np.float64)
    total = imp.sum()
    return imp / total if total > 0 else imp


def fit_linear(dataset: Dataset) -> LinearModel:
    """Ordinary least squares on raw activity counts.

    Solves centered normal equations; an exactly collinear design matrix,
    whose Gram matrix has no Cholesky factor, takes their minimum-norm
    least-squares solution instead, which needs no scale rule.
    """
    n, n_feat = len(dataset), dataset.n_features
    if n <= n_feat:
        raise ValueError("need more samples than features")
    X = dataset.features.astype(np.float64)
    y = dataset.powers.astype(np.float64)
    xm = X.mean(axis=0)
    ym = float(y.mean())
    Xc = X - xm
    g = Xc.T @ Xc
    b = Xc.T @ (y - ym)
    try:
        np.linalg.cholesky(g)  # positive-definiteness probe
        w = np.linalg.solve(g, b)
    except np.linalg.LinAlgError:
        w = np.linalg.lstsq(g, b, rcond=None)[0]
    intercept = ym - float(xm @ w)
    return LinearModel(w, intercept, dataset.clock_freq, dataset.feature_names)


def predict_linear(model: LinearModel, features) -> float:
    """One feature vector, predicted as a batch of one."""
    return float(predict_linear_batch(model, np.asarray(features)[None])[0])


def predict_linear_batch(model: LinearModel, X) -> np.ndarray:
    X = _feature_matrix(X, model.weights.size)
    return X.astype(np.float64, copy=False) @ model.weights + model.intercept


def scale_prediction(p: float, model_freq: float, current_freq: float) -> float:
    """Retarget a prediction to another clock: power is proportional to f."""
    return _value(p, float, "prediction") * (
        _positive(current_freq, "current_freq")
        / _positive(model_freq, "model_freq"))


def predict_ensemble(em: EnsembleModel, dataset: Dataset) -> np.ndarray:
    """Per row of ``dataset``, the sum of the component trees' predictions,
    each tree reading the columns its feature ids name."""
    return sum((predict_tree_batch(tree, dataset.select_features(ids).features)
                for tree, ids in em.components), np.zeros(len(dataset)))


def mae_percent(predictions, truths) -> float:
    """100 * mean(|pred - truth|) / mean(truth), both means finite."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(truths, dtype=np.float64)
    if p.shape != t.shape or p.ndim != 1 or p.size == 0:
        raise ValueError("predictions and truths must be equal-length, non-empty")
    mt = float(t.mean())
    if not math.isfinite(mt):
        raise ValueError("truths must be finite")
    if mt <= 0:
        raise ValueError("mean true power must be positive")
    mae = float(np.mean(np.abs(p - t)))
    if not math.isfinite(mae):
        raise ValueError("predictions must be finite")
    return 100.0 * mae / mt


# ---------------------------------------------------------------------------
# Persistence: nodes listed in pre-order with explicit child indices.

def _tree_to_doc(tree: DecisionTree) -> dict:
    n, imp, val, feat, thr, red, left, right = (a.tolist() for a in (
        tree.n_samples, tree.impurity, tree.value, tree.feature,
        tree.threshold, tree.reduction, tree.left, tree.right))
    nodes: list[dict] = []
    for i in range(len(n)):
        node = {"n_samples": n[i], "impurity": imp[i]}
        if left[i] < 0:
            node.update(kind="leaf", value=val[i])
        else:
            node.update(kind="decision", feature=feat[i], threshold=thr[i],
                        left=left[i], right=right[i], reduction=red[i])
        nodes.append(node)
    return {
        "format": "powertree-tree-v1",
        "model_freq_hz": tree.model_freq,
        "n_features": tree.n_features,
        "feature_ids": list(tree.feature_ids),
        "depth": tree.depth,
        "nodes": nodes,
    }


def _preorder(children):
    """(node, depth) of each node in preorder from node 0, of the tree in
    which node i has the children ``children[i]``: ``()`` or ``(left,
    right)``.  A child outside the list, a node reached twice (which also
    rules out cycles) or never reached raises ValueError."""
    n, seen, stack = len(children), {0}, [(0, 0)]
    while stack:
        i, depth = stack.pop()
        yield i, depth
        for c in children[i]:
            if not 0 <= c < n:
                raise ValueError(f"node {i}: child index {c} outside [0, {n})")
            if c in seen:
                raise ValueError(f"node {i}: child {c} is reached twice")
            seen.add(c)
        stack.extend((c, depth + 1) for c in reversed(children[i]))
    if len(seen) < n:
        raise ValueError(f"node {min(set(range(n)) - seen)} is not reached "
                         "from the root")


def _tree_from_doc(doc: dict, source) -> DecisionTree:
    """Rebuild a tree from its document, its nodes in preorder whatever
    their order in the document.  A malformed document raises ValueError
    naming ``source`` and the node or field at fault: a field missing or
    not of its kind by ``workload._value``, a model_freq_hz not above 0,
    feature_ids repeated or not one per feature, no nodes, a node that is
    not an object or of no known kind, an n_samples outside [0, 2**63), a
    feature outside [0, n_features), nodes that are not one tree by
    ``_preorder``, or a recorded depth the nodes do not reach."""
    n_features = _field(doc, "n_features", int, source)
    feature_ids = _names(_field(doc, "feature_ids", [str], source),
                         f"{source}: field 'feature_ids'")
    model_freq = _positive(_field(doc, "model_freq_hz", float, source),
                           f"{source}: field 'model_freq_hz'")
    depth = _field(doc, "depth", int, source)
    if len(feature_ids) != n_features:
        raise ValueError(f"{source}: {len(feature_ids)} feature_ids for "
                         f"n_features {n_features}")
    nodes = doc.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        raise ValueError(f"{source}: tree document has no nodes")
    records, children = [], []  # in document order
    for i, node in enumerate(nodes):
        at = f"{source}: tree node {i}"
        if not isinstance(node, dict):
            raise ValueError(f"{at} is not an object")
        kind = _field(node, "kind", str, at)
        n_samples = _field(node, "n_samples", int, at)
        if not 0 <= n_samples < 1 << 63:  # an int64 column
            raise ValueError(f"{at}: n_samples {n_samples} outside [0, 2**63)")
        record = [n_samples, _field(node, "impurity", float, at)]
        if kind == "leaf":
            records.append(record + [_field(node, "value", float, at), 0,
                                     0.0, 0.0])
            children.append(())
        elif kind == "decision":
            feature = _field(node, "feature", int, at)
            if not 0 <= feature < n_features:
                raise ValueError(f"{at}: feature {feature} outside "
                                 f"[0, {n_features})")
            records.append(record + [np.nan, feature,
                                     _field(node, "threshold", float, at),
                                     _field(node, "reduction", float, at)])
            children.append((_field(node, "left", int, at),
                             _field(node, "right", int, at)))
        else:
            raise ValueError(f"{at}: kind {kind!r} is neither 'leaf' nor "
                             "'decision'")
    try:
        tree = _tree_from_records(records, children, n_features, model_freq,
                                  feature_ids)
    except ValueError as e:
        raise ValueError(f"{source}: {e}") from None
    if tree.depth != depth:
        raise ValueError(f"{source}: tree document records depth {depth}, "
                         f"its nodes reach depth {tree.depth}")
    return tree


def _tree_from_records(records: list, children: list, n_features: int,
                       model_freq: float, feature_ids) -> DecisionTree:
    """The tree whose node i, in any order, has the record records[i]
    (n_samples, impurity, value, feature, threshold, reduction) and the
    children children[i], () or (left, right): its nodes in preorder, as
    _preorder orders and checks them."""
    order = list(_preorder(children))
    position = {i: p for p, (i, _) in enumerate(order)}
    rows = [[*records[i][:3], d, *records[i][3:],
             *([position[c] for c in children[i]] or (-1, -1))]
            for i, d in order]
    return DecisionTree(*_node_arrays(rows), n_features, model_freq,
                        feature_ids)


def tree_text(tree: DecisionTree) -> str:
    return _json_text(_tree_to_doc(tree))


def parse_tree(text: str | bytes, source="tree") -> DecisionTree:
    return _tree_from_doc(_json_doc(text, "powertree-tree-v1", source), source)


def save_tree(tree: DecisionTree, path: str | Path) -> None:
    Path(path).write_text(tree_text(tree))


def linear_text(model: LinearModel) -> str:
    doc = {
        "format": "powertree-linear-v1",
        "model_freq_hz": model.model_freq,
        "feature_ids": list(model.feature_ids),
        "weights": [float(w) for w in model.weights],
        "intercept": model.intercept,
    }
    return _json_text(doc)


def parse_linear(text: str | bytes, source="linear model") -> LinearModel:
    doc = _json_doc(text, "powertree-linear-v1", source)
    args = (
        np.array(_field(doc, "weights", [float], source), dtype=np.float64),
        _field(doc, "intercept", float, source),
        _field(doc, "model_freq_hz", float, source),
        _field(doc, "feature_ids", [str], source))
    try:
        return LinearModel(*args)
    except ValueError as e:
        raise ValueError(f"{source}: {e}") from None


def rule_text(tree: DecisionTree) -> str:
    """Human-readable if/else rules equivalent to the tree."""
    lines = ["# features: " + " ".join(tree.feature_ids)]
    # in preorder, a right child's subtree follows its sibling's "else:"
    is_right = np.zeros(tree.left.size, dtype=bool)
    is_right[tree.right[tree.right >= 0]] = True
    val, feat, thr, left = (a.tolist() for a in (
        tree.value, tree.feature, tree.threshold, tree.left))
    for i, depth in enumerate(tree.node_depth.tolist()):
        if is_right[i]:
            lines.append("    " * (depth - 1) + "else:")
        pad = "    " * depth
        if left[i] < 0:
            lines.append(f"{pad}value: {val[i]!r}")
        else:
            lines.append(f"{pad}if x[{feat[i]}] <= {thr[i]!r}:")
    return "\n".join(lines) + "\n"
