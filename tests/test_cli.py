import hashlib
import json
from pathlib import Path

import numpy as np

import powertree as pt
from powertree.cli import main

SPEC = {
    "n_linear_nets": 20,
    "n_nonlinear_units": 2,
    "correlation_groups": 2,
    "seed": 5,
}


def write_config(base: Path, **overrides) -> Path:
    (base / "design_spec.json").write_text(json.dumps(SPEC))
    cfg = {
        "design_spec": "design_spec.json",
        "period_cycles": 60,
        "n_samples": 240,
        "train_fraction": 0.8,
        "seed": 3,
        "top_candidates": 100,
        "rfe_target_fraction": 0.2,
        "grid": {"max_depth": [3, 5], "min_split_sample": [5],
                 "min_leaf_sample": [5], "min_leaf_impurity": [0.001, 0.01]},
        "cv_folds": 4,
        "monitor_periods": 4,
        "out_dir": "out",
    }
    cfg.update(overrides)
    path = base / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def refresh_provenance(edited: Path) -> None:
    """Record an edited artifact's new digest wherever it is an input, so
    that provenance passes and only its contents are at fault."""
    digest = hashlib.sha256(edited.read_bytes()).hexdigest()
    for prov in edited.parent.glob("*.prov.json"):
        doc = json.loads(prov.read_text())
        if edited.name in doc["inputs"]:
            doc["inputs"][edited.name] = digest
            prov.write_text(json.dumps(doc))


def run_pipeline(cfg: Path, commands=("gen", "select", "tune", "train",
                                      "quantize", "monitor", "shed",
                                      "report")):
    for command in commands:
        code = main([command, "--config", str(cfg)])
        assert code == 0, f"{command} failed"


class TestPipeline:
    def test_all_commands_succeed(self, tmp_path):
        cfg = write_config(tmp_path)
        run_pipeline(cfg)
        out = tmp_path / "out"
        for name in ("design.json", "dataset.csv", "split.json",
                     "selection.json", "rfe_history.csv", "cv_results.csv",
                     "best_params.json", "model.json", "linear.json",
                     "model_rules.txt", "image.bin", "monitor.csv",
                     "shed.csv", "shed_summary.json", "report.csv",
                     "learning_curve.csv"):
            assert (out / name).is_file(), name
            assert (out / (name + ".prov.json")).is_file(), name

    def test_report_contains_both_model_columns(self, tmp_path):
        cfg = write_config(tmp_path)
        run_pipeline(cfg)
        lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
        head = lines[0].split(",")
        assert "tree_mae_percent" in head and "linear_mae_percent" in head
        row = dict(zip(head, lines[1].split(",")))
        assert float(row["tree_mae_percent"]) >= 0
        assert float(row["linear_mae_percent"]) >= 0
        assert row["n_test"] == "48"

    def test_cv_results_row_count(self, tmp_path):
        cfg = write_config(tmp_path)
        run_pipeline(cfg, ("gen", "select", "tune"))
        lines = (tmp_path / "out" / "cv_results.csv").read_text().splitlines()
        assert len(lines) == 1 + 4  # header + 2*1*1*2 combinations

    def test_monitor_estimates_match_model_predictions(self, tmp_path):
        cfg = write_config(tmp_path)
        run_pipeline(cfg, ("gen", "select", "tune", "train", "quantize",
                           "monitor"))
        out = tmp_path / "out"
        tree = pt.load_tree(out / "model.json")
        lines = (out / "monitor.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["period", "cycles", "estimate_mw"]
        assert tuple(header[3:]) == tree.feature_ids
        image = pt.load_image(out / "image.bin")
        for line in lines[1:]:
            cells = line.split(",")
            feats = np.array([int(v) for v in cells[3:]])
            soft = pt.predict_tree(tree, feats)
            expect_mw = int(np.floor(soft * 1000.0 + 0.5)) * image.leaf_unit
            assert float(cells[2]) == expect_mw
            assert int(cells[1]) <= 2 * image.max_depth + 1

    def test_shed_output(self, tmp_path):
        cfg = write_config(tmp_path)
        run_pipeline(cfg, ("gen", "select", "tune", "train", "quantize",
                           "monitor", "shed"))
        out = tmp_path / "out"
        summary = json.loads((out / "shed_summary.json").read_text())
        assert summary["n_periods"] == 4
        lines = (out / "shed.csv").read_text().splitlines()
        assert lines[0] == "period,power_w,phases,cumulative_eff_impv"
        assert len(lines) == 5


class TestExitCodes:
    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["gen", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["gen", "--config", str(bad)]) == 2

    def test_missing_design_spec_key(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"n_samples": 10}))
        assert main(["gen", "--config", str(cfg)]) == 2

    def test_missing_upstream_artifact(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["select", "--config", str(cfg)]) == 2

    def test_stale_artifact_detected(self, tmp_path):
        cfg = write_config(tmp_path)
        run_pipeline(cfg, ("gen", "select"))
        dataset = tmp_path / "out" / "dataset.csv"
        dataset.write_text(dataset.read_text() + "\n")
        assert main(["tune", "--config", str(cfg)]) == 3

    def test_ragged_dataset_row_is_input_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        run_pipeline(cfg, ("gen",))
        dataset = tmp_path / "out" / "dataset.csv"
        lines = dataset.read_text().splitlines()
        lines[5] = "1,0.5"
        dataset.write_text("\n".join(lines) + "\n")
        refresh_provenance(dataset)
        capsys.readouterr()
        assert main(["select", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 6" in err

    def test_malformed_model_is_input_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        run_pipeline(cfg, ("gen", "select", "tune", "train"))
        model_json = tmp_path / "out" / "model.json"
        doc = json.loads(model_json.read_text())
        doc["nodes"][0]["left"] = 999
        model_json.write_text(json.dumps(doc))
        refresh_provenance(model_json)
        capsys.readouterr()
        assert main(["quantize", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "tree node 0" in err

    def test_config_change_detected(self, tmp_path):
        cfg = write_config(tmp_path)
        run_pipeline(cfg, ("gen",))
        write_config(tmp_path, seed=4)
        assert main(["select", "--config", str(cfg)]) == 3


class TestDeterminism:
    def test_identical_seeds_identical_artifacts(self, tmp_path):
        outs = []
        for d in ("one", "two"):
            base = tmp_path / d
            base.mkdir()
            cfg = write_config(base)
            run_pipeline(cfg)
            outs.append(base / "out")
        for name in ("design.json", "dataset.csv", "split.json",
                     "selection.json", "best_params.json", "model.json",
                     "linear.json", "image.bin", "monitor.csv", "shed.csv",
                     "report.csv", "learning_curve.csv"):
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_seed_override_changes_dataset(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["gen", "--config", str(cfg)]) == 0
        first = (tmp_path / "out" / "dataset.csv").read_bytes()
        assert main(["gen", "--config", str(cfg), "--seed", "99"]) == 0
        assert (tmp_path / "out" / "dataset.csv").read_bytes() != first


class TestEnsembleCommand:
    def test_ensemble_happy_path(self, tmp_path):
        # train two small models whose feature ids are disjoint by prefixing
        rng_specs = (("a", 11), ("b", 12))
        model_paths = []
        parts = []
        for name, seed in rng_specs:
            spec = pt.DesignSpec(**dict(SPEC, seed=seed))
            design = pt.generate_design(spec)
            ds = pt.simulate_dataset(design, 200, 60, seed=seed)
            prefixed = pt.Dataset(ds.features, ds.powers,
                                  tuple(f"{name}.{f}" for f in ds.feature_names),
                                  ds.period_cycles, ds.clock_freq)
            tree = pt.fit_tree(prefixed, pt.HyperParams(4, 5, 5, 0.001))
            path = tmp_path / f"model_{name}.json"
            pt.save_tree(tree, path)
            model_paths.append(path)
            parts.append((name, ds))
        comp = pt.compose_datasets(parts)
        pt.save_dataset(comp, tmp_path / "composite.csv")
        cfg = write_config(tmp_path, ensemble={
            "components": [p.name for p in model_paths],
            "dataset": "composite.csv",
        })
        assert main(["ensemble", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "ensemble.json").read_text())
        assert doc["n_components"] == 2
        assert doc["mae_percent"] >= 0

    def test_missing_block_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["ensemble", "--config", str(cfg)]) == 2
