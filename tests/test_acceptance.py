"""Acceptance suite: one test per release criterion.

Each test prints one ``ACCEPTANCE nn <label>: PASS`` line (run pytest with
``-s`` to see them live).  The heavyweight modeling protocol (2000 samples,
80/20 split, 100 candidate signals, recursive elimination to 20, the full
576-combination ten-fold grid search) runs once in a session fixture and is
shared by the criteria that evaluate it.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

import powertree as pt
from powertree.cli import main as cli_main
from powertree.hwsim import THRESHOLD_BITS, VALUE_BITS, MemNode
from powertree.workload import Dataset


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {label}: FAIL")
        raise
    print(f"\nACCEPTANCE {num:02d} {label}: PASS")


# ---------------------------------------------------------------------------
# Shared full-protocol run (criteria 3, 4, 7, 8).

RFE_HP = pt.HyperParams(max_depth=8, min_split_sample=5, min_leaf_sample=5,
                        min_leaf_impurity=0.001)
CURVE_SIZES = [50, 100, 200, 400]


@dataclass
class Protocol:
    design: pt.SyntheticDesign
    train: Dataset
    test: Dataset
    candidates: list
    retained: tuple
    tree: pt.DecisionTree
    linear: pt.LinearModel
    tree_mae: float
    linear_mae: float
    curve: list
    n_cv_rows: int
    elapsed: float


@pytest.fixture(scope="session")
def protocol() -> Protocol:
    t0 = time.monotonic()
    design = pt.generate_design(pt.hybrid_design_spec(seed=1))
    ds = pt.simulate_dataset(design, 2000, 300, seed=5)
    perm = np.random.default_rng(7).permutation(2000)
    train, test = ds.take(perm[:1600]), ds.take(perm[1600:])

    candidates = pt.rank_signals_by_activity(train, 100)
    rfe = pt.rfe(train.select_features(candidates), RFE_HP,
                 target_fraction=0.2)
    train_sel = train.select_features(rfe.retained)
    test_sel = test.select_features(rfe.retained)

    cv = pt.grid_search_cv(train_sel, pt.Grid(), k=10, seed=11)
    tree = cv.best_model
    linear = pt.fit_linear(train_sel)
    tree_mae = pt.mae_percent(pt.predict_tree_batch(tree, test_sel.features),
                              test_sel.powers)
    linear_mae = pt.mae_percent(
        pt.predict_linear_batch(linear, test_sel.features), test_sel.powers)
    curve = pt.learning_curve(train_sel, RFE_HP, CURVE_SIZES, k=10, seed=11)
    return Protocol(design, train, test, candidates, rfe.retained, tree,
                    linear, tree_mae, linear_mae, curve, len(cv.rows),
                    time.monotonic() - t0)


# ---------------------------------------------------------------------------

def oracle_walk(image, features):
    addr, depth = 0, 0
    while True:
        node = pt.node_decode(int(image.words[addr]))
        if node.is_leaf:
            return node.value, depth
        addr = node.left if int(features[node.feature]) <= node.threshold \
            else node.right
        depth += 1


def random_image(rng, depth, n_features=8):
    words = []

    def build(level):
        idx = len(words)
        words.append(None)
        go_deeper = level < depth and (idx == level or rng.random() < 0.6)
        if not go_deeper:
            words[idx] = pt.node_encode(MemNode(
                True, value=int(rng.integers(0, 1 << VALUE_BITS))))
            return idx
        words[idx] = None
        feature = int(rng.integers(0, n_features))
        threshold = int(rng.integers(0, 1 << THRESHOLD_BITS))
        left = build(level + 1)
        right = build(level + 1)
        words[idx] = pt.node_encode(MemNode(False, feature=feature,
                                            threshold=threshold,
                                            left=left, right=right))
        return idx

    build(0)
    return pt.TreeMemoryImage(np.array(words, dtype=np.uint64), len(words),
                              depth)


def test_01_engine_matches_software_oracle_exactly():
    with criterion(1, "hardware engine equals software traversal"):
        t0 = time.monotonic()
        rng = np.random.default_rng(2024)
        pairs = 0
        for depth in range(1, 9):
            for _ in range(5):
                image = random_image(rng, depth)
                for _ in range(250):
                    x = rng.integers(0, 1 << THRESHOLD_BITS, 8)
                    value, cycles, trace = pt.engine_invoke(image, x)
                    expect_value, leaf_depth = oracle_walk(image, x)
                    assert value == expect_value
                    assert cycles == 2 * leaf_depth + 1
                    assert cycles <= 2 * image.max_depth + 1
                    assert trace[0] == "I" and trace[-1] == "R"
                    pairs += 1
        elapsed = time.monotonic() - t0
        assert pairs >= 10_000
        assert elapsed < 10.0, f"engine check took {elapsed:.1f}s"


def brute_force_best_split(X, y, min_leaf):
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


def test_02_cart_matches_exhaustive_split_oracle():
    with criterion(2, "CART equals exhaustive best-split oracle"):
        t0 = time.monotonic()
        rng = np.random.default_rng(99)
        hps = [pt.HyperParams(4, 4, 2, 0.0), pt.HyperParams(6, 2, 1, 0.0),
               pt.HyperParams(3, 8, 3, 0.01)]
        nodes_checked = 0
        # targets spread over [0, 10), then over [1e6, 1e6 + 1e-3), where
        # prefix-sum scores cancel badly and only exact scores rank cuts
        for offset, spread in [(0.0, 10.0)] * 30 + [(1e6, 1e-3)] * 30:
            m = int(rng.integers(10, 51))
            n_feat = int(rng.integers(1, 6))
            X = rng.integers(0, 20, (m, n_feat))
            y = offset + rng.uniform(0.0, spread, m)
            names = tuple(f"f{j}" for j in range(n_feat))
            ds = Dataset(X.astype(np.int64), y, names, 1000, 1e8)
            for hp in hps:
                tree = pt.fit_tree(ds, hp)
                root_var = tree.impurity[0]

                def walk(i, rows, depth):
                    nonlocal nodes_checked
                    yy = y[rows]
                    if tree.left[i] < 0:
                        # stopping must be justified by one of the rules
                        pure = bool(np.all(yy == yy[0]))
                        impure_frac = (root_var > 0
                                       and np.var(yy) / root_var
                                       < hp.min_leaf_impurity)
                        no_gain = brute_force_best_split(
                            X[rows], yy, hp.min_leaf_sample) is None
                        assert (depth >= hp.max_depth
                                or len(rows) < hp.min_split_sample
                                or pure or impure_frac or root_var == 0
                                or no_gain)
                        return
                    expect = brute_force_best_split(X[rows], yy,
                                                    hp.min_leaf_sample)
                    assert expect is not None
                    assert tree.feature[i] == expect[0]
                    assert tree.threshold[i] == expect[1]
                    nodes_checked += 1
                    mask = X[rows, tree.feature[i]] <= tree.threshold[i]
                    walk(tree.left[i], rows[mask], depth + 1)
                    walk(tree.right[i], rows[~mask], depth + 1)

                walk(0, np.arange(m), 0)
        elapsed = time.monotonic() - t0
        assert nodes_checked > 100
        assert elapsed < 30.0, f"oracle comparison took {elapsed:.1f}s"


def test_03_tree_beats_linear_by_at_least_five_points(protocol):
    with criterion(3, "tree vs linear accuracy gap"):
        assert len(protocol.candidates) == 100
        assert protocol.n_cv_rows == 576
        assert protocol.tree_mae < protocol.linear_mae
        gap = protocol.linear_mae - protocol.tree_mae
        assert gap >= 5.0, (f"gap {gap:.2f} points (tree "
                            f"{protocol.tree_mae:.2f}%, linear "
                            f"{protocol.linear_mae:.2f}%)")
        assert protocol.elapsed < 60.0, \
            f"protocol took {protocol.elapsed:.0f}s"
        print(f"\n  tree {protocol.tree_mae:.2f}% vs linear "
              f"{protocol.linear_mae:.2f}% (gap {gap:.2f}, "
              f"{protocol.elapsed:.0f}s)", end="")


def test_04_learning_curve_shapes(protocol):
    with criterion(4, "learning-curve shapes"):
        by_size = {p.size: p for p in protocol.curve}
        half, full = by_size[CURVE_SIZES[-2]], by_size[CURVE_SIZES[-1]]
        linear_change = abs(full.linear_val - half.linear_val)
        tree_drop = half.tree_val - full.tree_val
        assert linear_change < 1.0, f"linear moved {linear_change:.2f} points"
        assert tree_drop >= 1.0, f"tree dropped only {tree_drop:.2f} points"
        print(f"\n  final doubling {half.size}->{full.size}: tree "
              f"{half.tree_val:.2f}->{full.tree_val:.2f}, linear "
              f"{half.linear_val:.2f}->{full.linear_val:.2f}", end="")


def test_05_ensemble_close_to_retrained_monolithic():
    with criterion(5, "ensemble vs retrained monolithic model"):
        t0 = time.monotonic()
        hp = pt.HyperParams(8, 5, 5, 0.001)
        spec_a = pt.DesignSpec(60, 2, correlation_groups=2, seed=21)
        spec_b = pt.DesignSpec(60, 0, nonlinear_strength=0.0,
                               correlation_groups=1, seed=22)
        ds_a = pt.simulate_dataset(pt.generate_design(spec_a), 2000, 300, 31)
        ds_b = pt.simulate_dataset(pt.generate_design(spec_b), 2000, 300, 32)
        composite = pt.compose_datasets([("a", ds_a), ("b", ds_b)])
        perm = np.random.default_rng(7).permutation(2000)
        tr, te = perm[:1600], perm[1600:]

        tree_a = pt.fit_tree(ds_a.take(tr), hp)
        tree_b = pt.fit_tree(ds_b.take(tr), hp)
        em = pt.EnsembleModel((
            (tree_a, tuple("a." + f for f in ds_a.feature_names)),
            (tree_b, tuple("b." + f for f in ds_b.feature_names))))
        test = composite.take(te)
        ensemble_mae = pt.mae_percent(pt.predict_ensemble(em, test),
                                      test.powers)

        mono = pt.fit_tree(composite.take(tr), hp)
        mono_mae = pt.mae_percent(pt.predict_tree_batch(mono, test.features),
                                  test.powers)
        diff = abs(ensemble_mae - mono_mae)
        assert diff <= 2.0, (f"ensemble {ensemble_mae:.2f}% vs monolithic "
                             f"{mono_mae:.2f}%")
        assert time.monotonic() - t0 < 300.0
        print(f"\n  ensemble {ensemble_mae:.2f}% vs monolithic "
              f"{mono_mae:.2f}% (diff {diff:.2f})", end="")


def test_06_frequency_scaled_predictions():
    with criterion(6, "frequency-scaled prediction accuracy"):
        design = pt.generate_design(pt.linear_design_spec(seed=2))
        ds = pt.simulate_dataset(design, 1000, 300, seed=9)
        tr, te = np.arange(800), np.arange(800, 1000)
        tree = pt.fit_tree(ds.take(tr), pt.HyperParams(6, 5, 5, 0.001))
        base_mae = pt.mae_percent(
            pt.predict_tree_batch(tree, ds.features[te]), ds.powers[te])
        for ratio in (0.5, 2.0):
            freq = design.clock_freq * ratio
            # same activities replayed at the new frequency scale the true
            # power exactly, because the ground truth is linear in f
            truths = ds.powers[te] * ratio
            scaled = np.array([
                pt.scale_prediction(pt.predict_tree(tree, ds.features[i]),
                                    design.clock_freq, freq) for i in te])
            mae = pt.mae_percent(scaled, truths)
            assert abs(mae - base_mae) <= 0.2
            assert mae == base_mae  # exactly zero degradation when linear


def test_07_quantization_error_bound(protocol):
    with criterion(7, "quantization bound and zero reassignments"):
        image = pt.quantize(protocol.tree)
        # case-exhaustive per node: the two integers bracketing the stored
        # threshold route identically under the real and floored compare
        tree = protocol.tree
        for i in range(tree.left.size):
            if tree.left[i] < 0:
                assert tree.value[i] >= 0
                continue
            stored = int(np.floor(tree.threshold[i]))
            for x in (stored, stored + 1):
                assert (x <= tree.threshold[i]) == (x <= stored)
        rng = np.random.default_rng(17)
        X = rng.integers(0, 301, (1000, protocol.tree.n_features))
        soft = pt.predict_tree_batch(protocol.tree, X)
        for x, expect in zip(X, soft):
            value, _, _ = pt.engine_invoke(image, x)
            watts = pt.dequantize_mw(image, value) / 1000.0
            assert abs(watts - expect) <= 0.5e-3 + 1e-12


def test_08_rfe_contract(protocol):
    with criterion(8, "recursive feature elimination contract"):
        assert len(protocol.candidates) == 100
        assert len(protocol.retained) == 20
        assert set(protocol.retained) <= set(protocol.candidates)

        # planted-relevance dataset: only f0/f1 carry signal
        rng = np.random.default_rng(23)
        X = rng.integers(0, 200, (600, 10))
        y = 0.01 * X[:, 0] + 0.02 * X[:, 1] \
            + 1e-4 * np.sqrt(X[:, 0] * X[:, 1])
        names = tuple(f"f{j}" for j in range(10))
        planted = Dataset(X.astype(np.int64), y, names, 300, 1e8)
        result = pt.rfe(planted, RFE_HP, target_fraction=0.2)
        assert set(result.retained) == {"f0", "f1"}

        full = pt.fit_tree(planted, RFE_HP)
        sub = planted.select_features(result.retained)
        refit = pt.fit_tree(sub, RFE_HP)
        full_mae = pt.mae_percent(
            pt.predict_tree_batch(full, planted.features), planted.powers)
        refit_mae = pt.mae_percent(
            pt.predict_tree_batch(refit, sub.features), sub.powers)
        assert abs(refit_mae - full_mae) <= 1.0


def test_09_pdn_lut_and_improvement():
    with criterion(9, "regulator LUT and efficiency improvement"):
        model = pt.PdnModel()
        grid = np.linspace(0.5, 20.0, 79)
        lut = pt.build_lut(model, grid)
        for p in grid:
            best = max(range(1, model.max_phases + 1),
                       key=lambda n: (pt.efficiency(model, p, n), -n))
            assert lut.lookup(p) == best

        _, eff = pt.shed(model, lut, [1.0, 20.0])
        expect = 1.0 - (1.12 + 22.1) / (1.504 + 22.1)
        assert eff == pytest.approx(expect, rel=1e-9)

        rng = np.random.default_rng(5)
        for _ in range(50):
            powers = rng.uniform(0.0, 25.0, rng.integers(1, 40))
            _, eff = pt.shed(model, lut, powers)
            assert eff >= -1e-12

        loads = np.linspace(0.01, 40.0, 500)
        decisions = [pt.optimal_phases(model, p) for p in loads]
        assert all(b >= a for a, b in zip(decisions, decisions[1:]))


def test_10_pipeline_determinism(tmp_path):
    with criterion(10, "byte-identical reruns"):
        spec = {"n_linear_nets": 24, "n_nonlinear_units": 2,
                "correlation_groups": 2, "seed": 5}
        outs = []
        for name in ("one", "two"):
            base = tmp_path / name
            base.mkdir()
            (base / "design_spec.json").write_text(json.dumps(spec))
            cfg = {
                "design_spec": "design_spec.json",
                "period_cycles": 60, "n_samples": 300,
                "train_fraction": 0.8, "seed": 3,
                "grid": {"max_depth": [3, 5], "min_split_sample": [5],
                         "min_leaf_sample": [5],
                         "min_leaf_impurity": [0.001, 0.01]},
                "cv_folds": 5, "monitor_periods": 4, "out_dir": "out",
            }
            (base / "config.json").write_text(json.dumps(cfg))
            for command in ("gen", "select", "tune", "train", "quantize",
                            "monitor", "shed", "report"):
                assert cli_main([command, "--config",
                                 str(base / "config.json")]) == 0
            outs.append(base / "out")
        for artifact in sorted(p.name for p in outs[0].iterdir()):
            a = (outs[0] / artifact).read_bytes()
            b = (outs[1] / artifact).read_bytes()
            assert a == b, f"{artifact} differs between identical runs"
