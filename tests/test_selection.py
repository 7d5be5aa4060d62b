import numpy as np
import pytest

import powertree as pt
from powertree import model, selection
from powertree.workload import Dataset

HP = pt.HyperParams(max_depth=6, min_split_sample=5, min_leaf_sample=5,
                    min_leaf_impurity=0.001)


def planted_dataset(n_features=10, n_samples=600, seed=0):
    """Only columns 0 and 1 carry signal; the rest are pure noise."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 200, (n_samples, n_features))
    y = 0.01 * X[:, 0] + 0.02 * X[:, 1] + 1e-4 * (X[:, 0] * X[:, 1]) ** 0.5
    names = tuple(f"f{j}" for j in range(n_features))
    return Dataset(X.astype(np.int64), y, names, 300, 1e8)


class TestRfe:
    def test_target_one_keeps_everything(self):
        ds = planted_dataset()
        result = pt.rfe(ds, HP, target_fraction=1.0)
        assert sorted(result.retained) == sorted(ds.feature_names)
        assert result.history == ()

    def test_retained_count_is_ceiling(self):
        ds = planted_dataset()
        result = pt.rfe(ds, HP, target_fraction=0.25)
        assert len(result.retained) == 3  # ceil(0.25 * 10)

    def test_planted_features_survive(self):
        ds = planted_dataset()
        result = pt.rfe(ds, HP, target_fraction=0.2)
        assert set(result.retained) == {"f0", "f1"}

    def test_refit_close_to_full_fit(self):
        ds = planted_dataset()
        result = pt.rfe(ds, HP, target_fraction=0.2)
        full = pt.fit_tree(ds, HP)
        sub = ds.select_features(result.retained)
        refit = pt.fit_tree(sub, HP)
        full_mae = pt.mae_percent(pt.predict_tree_batch(full, ds.features),
                                  ds.powers)
        refit_mae = pt.mae_percent(pt.predict_tree_batch(refit, sub.features),
                                   sub.powers)
        assert abs(refit_mae - full_mae) <= 1.0

    def test_monotone_shrinkage(self):
        ds = planted_dataset(n_features=40)
        result = pt.rfe(ds, HP, target_fraction=0.1)
        remaining = 40
        for step in result.history:
            assert len(step.dropped) >= 1
            remaining -= len(step.dropped)
            assert remaining >= 4
        assert remaining == 4
        dropped_all = [f for step in result.history for f in step.dropped]
        assert sorted(dropped_all + list(result.retained)) \
            == sorted(ds.feature_names)
        assert len(set(dropped_all)) == len(dropped_all)

    def test_zero_importance_features_go_first(self):
        ds = planted_dataset()
        tree = pt.fit_tree(ds, HP)
        imp = pt.feature_importances(tree)
        zero = {ds.feature_names[j] for j in range(10) if imp[j] == 0.0}
        result = pt.rfe(ds, HP, target_fraction=0.2)
        first_dropped = set(result.history[0].dropped)
        assert zero <= first_dropped

    def test_deterministic(self):
        ds = planted_dataset()
        a = pt.rfe(ds, HP, 0.2)
        b = pt.rfe(ds, HP, 0.2)
        assert a == b

    def test_bad_arguments(self):
        ds = planted_dataset()
        with pytest.raises(ValueError):
            pt.rfe(ds, HP, target_fraction=0.0)
        with pytest.raises(ValueError):
            pt.rfe(ds, HP, target_fraction=1.5)
        for bad in (True, "0.5"):
            with pytest.raises(ValueError,
                               match="target_fraction must be a finite number"):
                pt.rfe(ds, HP, target_fraction=bad)
        one = ds.select_features(["f0"])
        with pytest.raises(ValueError):
            pt.rfe(one, HP, 0.5)

    def test_history_text(self):
        ds = planted_dataset()
        result = pt.rfe(ds, HP, 0.2)
        text = pt.rfe_history_text(result)
        lines = text.strip().splitlines()
        assert lines[0] == "iteration,n_dropped,train_mae_percent,dropped"
        assert len(lines) == len(result.history) + 1
        assert lines[1].startswith("0,")

    @pytest.mark.parametrize("hp", [HP, pt.HyperParams(8, 2, 1, 0.0)])
    @pytest.mark.parametrize("seed", [1, 5])
    def test_regrowth_equals_fresh_fits(self, monkeypatch, hp, seed):
        # RFE's trees reuse the previous one's surviving splits; fitting
        # each from scratch must give the same result
        d = pt.generate_design(pt.hybrid_design_spec(seed=seed))
        ds = pt.simulate_dataset(d, 400, 300, seed=seed + 1)
        ds = ds.select_features(pt.rank_signals_by_activity(ds, 40))
        result = pt.rfe(ds, hp, 0.2)
        monkeypatch.setattr(selection, "_grow_many", lambda sub, rows, hp,
                            *prior: [model.fit_tree(sub, hp)])
        assert len(result.history) > 1
        assert pt.rfe(ds, hp, 0.2) == result


class TestRangeChecks:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="cannot select features on an "
                           "empty dataset"):
            pt.rfe(planted_dataset().take([]), HP)
