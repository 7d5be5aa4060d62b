import ast
import hashlib
import json
import os
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powertree as pt
from powertree import cli
from powertree.cli import main
from test_model import _mutant

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
    """Record an edited artifact's new digest in its own sidecar and
    wherever it is an input, so that provenance passes and only its
    contents are at fault."""
    digest = hashlib.sha256(edited.read_bytes()).hexdigest()
    for prov in edited.parent.glob("*.prov.json"):
        doc = json.loads(prov.read_text())
        if prov.name == edited.name + ".prov.json":
            doc["sha256"] = digest
        if edited.name in doc["inputs"]:
            doc["inputs"][edited.name] = digest
        prov.write_text(json.dumps(doc))


def config_error(cfg: Path, capsys, command: str, **overrides) -> str:
    """The stderr of ``command`` run on the finished pipeline of ``cfg``
    with ``overrides`` in its config, once it has exited 2."""
    write_config(cfg.parent, **overrides)
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 2
    return capsys.readouterr().err


COMMANDS = ("gen", "select", "tune", "train", "quantize", "monitor", "shed",
            "report")


def run_pipeline(cfg: Path, commands=COMMANDS):
    for command in commands:
        code = main([command, "--config", str(cfg)])
        assert code == 0, f"{command} failed"


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """A directory holding a config and every artifact of its pipeline."""
    base = tmp_path_factory.mktemp("finished")
    run_pipeline(write_config(base))
    return base


@pytest.fixture
def pipeline(finished, tmp_path):
    """The config of a private copy of the finished pipeline."""
    shutil.copytree(finished, tmp_path / "copy")
    return tmp_path / "copy" / "config.json"


def json_edit(mutate):
    """A text edit that applies mutate to the parsed JSON document."""
    def edit(text: str) -> str:
        doc = json.loads(text)
        mutate(doc)
        return json.dumps(doc)
    return edit


# (artifact, edit of its text, command that reads it, expected message)
BAD_INPUTS = [
    ("linear.json", json_edit(lambda d: d.pop("intercept")), "report",
     "linear.json: missing field 'intercept'"),
    ("monitor.csv", lambda t: t.splitlines()[0] + "\n1\n", "shed",
     "monitor.csv, line 2: 1 cells, header has "),
    ("design.json", json_edit(lambda d: d.pop("vdd_v")), "monitor",
     "design.json: missing field 'vdd_v'"),
    ("split.json", json_edit(lambda d: d["train"].append(10 ** 6)), "select",
     "split.json: rows must be a list of indices in [0, 240)"),
    ("selection.json", json_edit(lambda d: d.pop("retained")), "tune",
     "selection.json: missing field 'retained'"),
    ("best_params.json", json_edit(lambda d: d.update(max_depth="deep")),
     "train", "best_params.json: field 'max_depth'"),
    ("best_params.json", json_edit(lambda d: d.update(max_depth=0)),
     "report", "best_params.json: max_depth must be >= 1"),
    ("dataset.csv.meta.json", json_edit(lambda d: d.pop("clock_freq_hz")),
     "select", "dataset.csv meta: missing field 'clock_freq_hz'"),
    ("model.json", json_edit(
        lambda d: d["nodes"][-1].update(value=float("nan"))), "quantize",
     "field 'value' must be a finite number, not nan"),
    ("dataset.csv", lambda t: re.sub(r"\n\d+,", "\n" + "9" * 20 + ",", t,
                                     count=1), "select",
     "dataset.csv, line 2: cell 1 is not 1 to 18 ASCII digits"),
    # a repeat would train on one column twice under one feature id
    ("selection.json", json_edit(
        lambda d: d["retained"].__setitem__(1, d["retained"][0])), "train",
     "selection.json: field 'retained' must be unique"),
    ("monitor.csv", lambda t: t.replace("estimate_mw", "estimate_w", 1),
     "shed", "monitor.csv, line 1: the header must begin with "
     "'period,cycles,estimate_mw'"),
]

# Values outside their field's domain or kind, as above: a bool, a string
# or a non-finite number is never a number.
BAD_VALUES = [
    ("dataset.csv.meta.json", json_edit(lambda d: d.update(clock_freq_hz=0)),
     "select", "dataset.csv: clock_freq must be finite and > 0"),
    ("best_params.json", json_edit(lambda d: d.update(max_depth=2.5)),
     "train", "best_params.json: field 'max_depth'"),
    ("model.json", json_edit(
        lambda d: d["nodes"][0].update(threshold=float("inf"))), "quantize",
     "tree node 0: field 'threshold' must be a finite number, not inf"),
    ("split.json", json_edit(lambda d: d["train"].__setitem__(0, 0.9)),
     "select", "split.json: field 'train'[0] must be an integer, not 0.9"),
    ("split.json", json_edit(lambda d: d["train"].__setitem__(1, True)),
     "select", "split.json: field 'train'[1] must be an integer, not True"),
    ("split.json", json_edit(lambda d: d["test"].__setitem__(0, "7")),
     "select", "split.json: field 'test'[0] must be an integer, not '7'"),
    ("linear.json", json_edit(lambda d: d.update(feature_ids="ab")), "report",
     "linear.json: field 'feature_ids' must be a list, not 'ab'"),
    ("design.json", json_edit(lambda d: d.update(vdd_v="1.0")), "monitor",
     "design.json: field 'vdd_v' must be a finite number, not '1.0'"),
    ("dataset.csv.meta.json", json_edit(
        lambda d: d.update(clock_freq_hz="1e8")), "select",
     "dataset.csv meta: field 'clock_freq_hz' must be a finite number, "
     "not '1e8'"),
    ("best_params.json", json_edit(lambda d: d.update(min_leaf_impurity=False)),
     "train", "best_params.json: field 'min_leaf_impurity' must be a finite "
     "number, not False"),
    ("best_params.json", json_edit(
        lambda d: d.update(min_leaf_impurity="0.01")), "report",
     "best_params.json: field 'min_leaf_impurity' must be a finite number, "
     "not '0.01'"),
    ("monitor.csv", lambda t: re.sub(r"^(\d+,\d+,)[^,]+", r"\1nan", t,
                                     count=1, flags=re.M), "shed",
     "monitor.csv, line 2: estimate_mw must be a finite number, not nan"),
    # text float() reads but the writer never makes: a space, an
    # underscore, a missing cell
    ("monitor.csv", lambda t: re.sub(r"^(\d+,\d+,)", r"\1 ", t, count=1,
                                     flags=re.M), "shed",
     "monitor.csv, line 2: estimate_mw must be a finite number, not ' "),
    ("monitor.csv", lambda t: re.sub(r"^(\d+,\d+,)[^,]+", r"\g<1>1_0", t,
                                     count=1, flags=re.M), "shed",
     "monitor.csv, line 2: estimate_mw must be a finite number, not '1_0'"),
    ("monitor.csv", lambda t: re.sub(r"^(\d+),(\d+),", r"\1,\g<2>0_0,", t,
                                     count=1, flags=re.M), "shed",
     "monitor.csv, line 2: cycles must be an integer, not '"),
    ("monitor.csv", lambda t: re.sub(r",\d+$", "", t, count=1, flags=re.M),
     "shed", "monitor.csv, line 2: 6 cells, header has 7"),
]

# Integer fields holding a JSON true, as above: a bool is not an integer.
BAD_BOOLS = [
    ("best_params.json", json_edit(lambda d: d.update(max_depth=True)),
     "train", "best_params.json: field 'max_depth' must be an integer, "
     "not True"),
    ("dataset.csv.meta.json", json_edit(lambda d: d.update(period_cycles=True)),
     "select", "dataset.csv meta: field 'period_cycles' must be an integer, "
     "not True"),
]

# Integer config keys, each with a fractional value, and the first command
# that reads it.
FRACTIONAL_KEYS = [
    ("seed", 3.5, "gen"), ("period_cycles", 60.5, "gen"),
    ("n_samples", 240.5, "gen"), ("top_candidates", 100.5, "select"),
    ("cv_folds", 4.5, "tune"), ("monitor_periods", 4.5, "monitor"),
    ("lut_grid_watts", [0.25, 2.0, 128.5], "shed"),
    ("learning_curve_sizes", [40.5, 80], "report"),
]

# The same keys, each with a JSON true where the integer belongs: a bool is
# not an integer, as in Dataset.
BOOLEAN_KEYS = [
    ("seed", True, "gen"), ("period_cycles", True, "gen"),
    ("n_samples", True, "gen"), ("top_candidates", True, "select"),
    ("cv_folds", True, "tune"), ("monitor_periods", True, "monitor"),
    ("lut_grid_watts", [0.25, 2.0, True], "shed"),
    ("learning_curve_sizes", [True, 80], "report"),
]

# List config keys with a value of the wrong shape or entry type, the
# command that reads each, and the start of its error message.
BAD_LISTS = [
    ("lut_grid_watts", 5, "shed", "config key lut_grid_watts must be a list"),
    ("lut_grid_watts", [0.25, 40], "shed",
     "config key lut_grid_watts must be a list of 3 entries"),
    ("lut_grid_watts", None, "shed", "config key lut_grid_watts must be"),
    ("lut_grid_watts", [None, 40, 128], "shed",
     "config key lut_grid_watts[0] must be a finite number, not None"),
    ("learning_curve_sizes", 5, "report",
     "config key learning_curve_sizes must be a list"),
]

# Config values of the wrong kind, the command that reads each, and the
# start of its error message.
BAD_KINDS = [
    ("train_fraction", [0.8], "gen",
     "config key train_fraction must be a fraction in (0, 1), not [0.8]"),
    ("rfe_target_fraction", [0.2], "select",
     "config key rfe_target_fraction must be a fraction in (0, 1)"),
    ("rfe_target_fraction", True, "select",
     "config key rfe_target_fraction must be a fraction in (0, 1), not True"),
    ("design_spec", dict(SPEC, n_linear_nets=20.5), "gen",
     "bad design_spec: n_linear_nets must be an integer, not 20.5"),
    ("design_spec", dict(SPEC, n_linear_nets=True), "gen",
     "bad design_spec: n_linear_nets must be an integer, not True"),
    ("design_spec", None, "gen", "bad design_spec: "),
    ("pdn", {"max_phases": 2.5}, "shed",
     "bad pdn: max_phases must be an integer, not 2.5"),
    ("pdn", {"transition_loss": False}, "shed",
     "bad pdn: transition_loss must be a finite number, not False"),
    ("grid", {"max_depth": 5}, "tune", "bad grid: "),
    ("grid", {"max_depth": [2.5]}, "gen",
     "bad grid: max_depth[0] must be an integer, not 2.5"),
    ("out_dir", 7, "gen", "config key out_dir must be a string, not 7"),
    ("out_dir", "design_spec.json", "gen",
     "cannot make the output directory "),
    ("ensemble", {"components": ["nope.json"], "dataset": "x.csv"},
     "ensemble", "config key ensemble.dataset must be the path of a file"),
    ("pdn", {"per_phase_fixed_loss": 10 ** 400}, "shed",
     "bad pdn: per_phase_fixed_loss must be a finite number, not 1000"),
    ("lut_grid_watts", [0.25, 10 ** 400, 128], "shed",
     "config key lut_grid_watts[1] must be a finite number, not 1000"),
]



def unique_ids(ids: list[str]) -> list[str]:
    """ids, each repeat of an earlier one numbered by its occurrence."""
    seen: dict[str, int] = {}
    for i, name in enumerate(ids):
        seen[name] = seen.get(name, 0) + 1
        ids[i] = name if seen[name] == 1 else f"{name}-{seen[name]}"
    return ids


def deeper_header(raw: bytes) -> bytes:
    """image.bin with its header's max_depth raised by 5."""
    magic, n_nodes, max_depth, unit = struct.unpack_from("<4sIII", raw)
    return struct.pack("<4sIII", magic, n_nodes, max_depth + 5, unit) \
        + raw[16:]


def unreachable_word(raw: bytes) -> bytes:
    """image.bin with a word appended that no walk reaches, its children
    dangling, and n_nodes raised by 1 to cover it."""
    magic, n_nodes, max_depth, unit = struct.unpack_from("<4sIII", raw)
    word = pt.node_encode(pt.MemNode(False, left=n_nodes + 5,
                                     right=n_nodes + 6))
    return struct.pack("<4sIII", magic, n_nodes + 1, max_depth, unit) \
        + raw[16:] + struct.pack("<Q", word)


# The files each command writes, sidecars aside.
WRITES = {
    "gen": ("design.json", "dataset.csv", "dataset.csv.meta.json",
            "split.json"),
    "select": ("selection.json", "rfe_history.csv"),
    "tune": ("cv_results.csv", "best_params.json"),
    "train": ("model.json", "linear.json", "model_rules.txt"),
    "quantize": ("image.bin",), "monitor": ("monitor.csv",),
    "shed": ("shed.csv", "phase_lut.json", "shed_summary.json"),
    "report": ("report.csv", "learning_curve.csv"),
}

# The inputs each artifact's sidecar records, written out by hand.
SPLIT = ("dataset.csv", "dataset.csv.meta.json", "split.json")
RECORDED_INPUTS = {
    "design.json": (), "dataset.csv": ("design.json",),
    "dataset.csv.meta.json": ("design.json",),
    "split.json": ("dataset.csv", "dataset.csv.meta.json"),
    "selection.json": SPLIT, "rfe_history.csv": SPLIT,
    "cv_results.csv": (*SPLIT, "selection.json"),
    "best_params.json": (*SPLIT, "selection.json"),
    **dict.fromkeys(("model.json", "linear.json", "model_rules.txt"),
                    (*SPLIT, "selection.json", "best_params.json")),
    "image.bin": ("model.json",),
    "monitor.csv": ("design.json", "selection.json", "image.bin"),
    **dict.fromkeys(("shed.csv", "phase_lut.json", "shed_summary.json"),
                    ("design.json", "monitor.csv")),
    **dict.fromkeys(("report.csv", "learning_curve.csv"),
                    (*SPLIT, "selection.json", "best_params.json",
                     "model.json", "linear.json")),
    "ensemble_predictions.csv": (), "ensemble.json": (),
}

# Every artifact a later command reads, with one command that reads it.
CONSUMED = [("design.json", "monitor"), ("dataset.csv", "select"),
            ("dataset.csv.meta.json", "select"), ("split.json", "select"),
            ("selection.json", "tune"), ("best_params.json", "train"),
            ("model.json", "quantize"), ("linear.json", "report"),
            ("image.bin", "monitor"), ("monitor.csv", "shed")]


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
        model_json = out / "model.json"
        tree = pt.parse_tree(model_json.read_text(), model_json)
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

    def test_quantize_reports_monitor_overhead(self, pipeline, capsys):
        # the structure memory holds one 64-bit word per node, and an
        # engine walk takes at most 2 * max_depth + 1 cycles
        image_bin = pipeline.parent / "out" / "image.bin"
        before = image_bin.read_bytes()
        capsys.readouterr()
        assert main(["quantize", "--config", str(pipeline)]) == 0
        out = capsys.readouterr().out
        assert image_bin.read_bytes() == before
        bits = int(re.search(r"structure memory (\d+) bits", out)[1])
        cycles = int(re.search(r"worst-case latency (\d+) cycles", out)[1])
        assert bits == 8 * (len(before) - struct.calcsize("<4sIII"))
        assert cycles == 2 * pt.load_image(image_bin).max_depth + 1

    def test_monitor_reports_its_overhead(self, pipeline, capsys):
        # one counter_width-bit counter per retained signal, and the
        # slowest engine walk the run logged, against the period
        out_dir = pipeline.parent / "out"
        before = (out_dir / "monitor.csv").read_bytes()
        capsys.readouterr()
        assert main(["monitor", "--config", str(pipeline)]) == 0
        out = capsys.readouterr().out
        assert (out_dir / "monitor.csv").read_bytes() == before
        retained = json.loads((out_dir / "selection.json").read_text())[
            "retained"]
        assert f"counter bits {20 * len(retained)}," in out
        worst = max(int(line.split(",")[1])
                    for line in before.decode().splitlines()[1:])
        assert f"worst latency {worst} of 60 cycles" in out

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

    def test_every_table_parses(self, finished):
        # each table: its header, then rows of as many cells, each cell a
        # number but in the text columns
        out = finished / "out"
        retained = json.loads((out / "selection.json").read_text())["retained"]
        heads = {
            "cv_results.csv": ["max_depth", "min_split_sample",
                               "min_leaf_sample", "min_leaf_impurity",
                               "fold_0", "fold_1", "fold_2", "fold_3", "mean"],
            "learning_curve.csv": ["size", "tree_train", "tree_val",
                                   "linear_train", "linear_val"],
            "rfe_history.csv": ["iteration", "n_dropped", "train_mae_percent",
                                "dropped"],
            "shed.csv": ["period", "power_w", "phases", "cumulative_eff_impv"],
            "monitor.csv": ["period", "cycles", "estimate_mw", *retained],
            "report.csv": ["dataset", "n_train", "n_test", "tree_mae_percent",
                           "linear_mae_percent"],
        }
        text = {("report.csv", "dataset"), ("rfe_history.csv", "dropped")}
        for name, head in heads.items():
            lines = (out / name).read_text().split("\n")
            assert lines[0].split(",") == head, name
            assert len(lines) > 2 and lines[-1] == "", name
            for line in lines[1:-1]:
                cells = line.split(",")
                assert len(cells) == len(head), (name, line)
                for column, cell in zip(head, cells):
                    if (name, column) not in text:
                        float(cell)


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
        assert err.startswith("error: ") \
            and "model.json: node 0: child index 999 outside" in err

    @pytest.mark.parametrize("edit, fault", [
        (deeper_header, "image.bin: deepest leaf at depth"),
        (unreachable_word,
         r"image\.bin: node \d+ is not reached from the root"),
    ], ids=["max_depth-raised", "unreachable-word"])
    def test_malformed_image_is_input_error(self, pipeline, capsys, edit,
                                            fault):
        image = pipeline.parent / "out" / "image.bin"
        image.write_bytes(edit(image.read_bytes()))
        refresh_provenance(image)
        capsys.readouterr()
        assert main(["monitor", "--config", str(pipeline)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(fault, err)

    def test_non_string_unit_input_is_input_error(self, pipeline, capsys):
        design = pipeline.parent / "out" / "design.json"
        doc = json.loads(design.read_text())
        doc["nonlinear_units"][0][0].append([1])
        design.write_text(json.dumps(doc))
        refresh_provenance(design)
        capsys.readouterr()
        assert main(["monitor", "--config", str(pipeline)]) == 2
        assert re.search(r"design\.json: field 'nonlinear_units'\[0\]\[0\]"
                         r"\[\d+\] must be a string, not \[1\]",
                         capsys.readouterr().err)

    def test_config_change_detected(self, tmp_path):
        cfg = write_config(tmp_path)
        run_pipeline(cfg, ("gen",))
        write_config(tmp_path, seed=4)
        assert main(["select", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("gen_flags, select_flags, code", [
        (["--period", "40"], [], 3), (["--seed", "99"], [], 3),
        (["--seed", "99"], ["--seed", "99"], 0)])
    def test_overrides_enter_provenance(self, tmp_path, gen_flags,
                                        select_flags, code):
        cfg = str(write_config(tmp_path))
        assert main(["gen", "--config", cfg, *gen_flags]) == 0
        assert main(["select", "--config", cfg, *select_flags]) == code

    def test_non_integer_rfe_limit_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rfe_params={"min_leaf_sample": 2.5})
        capsys.readouterr()
        assert main(["gen", "--config", str(cfg)]) == 2
        assert "min_leaf_sample must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, edit, command, message", BAD_INPUTS + BAD_VALUES + BAD_BOOLS,
        ids=unique_ids([f"{n}-{c}" for n, _, c, _ in BAD_INPUTS]
                       + [f"{n}-{c}-value" for n, _, c, _ in BAD_VALUES]
                       + [f"{n}-{c}-true" for n, _, c, _ in BAD_BOOLS]))
    def test_bad_input_names_file_and_field(self, pipeline, capsys, name,
                                            edit, command, message):
        path = pipeline.parent / "out" / name
        path.write_text(edit(path.read_text()))
        refresh_provenance(path)
        capsys.readouterr()
        assert main([command, "--config", str(pipeline)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "key, value, command", FRACTIONAL_KEYS + BOOLEAN_KEYS,
        ids=[k for k, _, _ in FRACTIONAL_KEYS]
        + [f"{k}-true" for k, _, _ in BOOLEAN_KEYS])
    def test_fractional_integer_key_is_config_error(self, pipeline, capsys,
                                                    key, value, command):
        err = config_error(pipeline, capsys, command, **{key: value})
        assert err.startswith(f"error: config key {key}") \
            and "must be an integer" in err

    @pytest.mark.parametrize("key, value, command, message", BAD_LISTS,
                             ids=["lut_grid_watts-int", "lut_grid_watts-2",
                                  "lut_grid_watts-null",
                                  "lut_grid_watts-null-entry",
                                  "learning_curve_sizes-int"])
    def test_bad_list_key_is_config_error(self, pipeline, capsys, key, value,
                                          command, message):
        err = config_error(pipeline, capsys, command, **{key: value})
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("command", ["select", "train", "report"])
    def test_edited_dataset_meta_is_stale(self, pipeline, command):
        meta = pipeline.parent / "out" / "dataset.csv.meta.json"
        meta.write_text(json_edit(lambda d: d.update(clock_freq_hz=5e7))(
            meta.read_text()))
        assert main([command, "--config", str(pipeline)]) == 3

    @pytest.mark.parametrize("name, command", CONSUMED)
    def test_missing_sidecar_is_stale(self, pipeline, name, command):
        (pipeline.parent / "out" / f"{name}.prov.json").unlink()
        assert main([command, "--config", str(pipeline)]) == 3

    def test_truncated_model_is_stale(self, pipeline, capsys):
        model_json = pipeline.parent / "out" / "model.json"
        model_json.write_bytes(model_json.read_bytes()[:100])
        capsys.readouterr()
        assert main(["quantize", "--config", str(pipeline)]) == 3
        assert "model.json is stale" in capsys.readouterr().err

    def test_changed_input_of_an_input_is_stale(self, pipeline, capsys):
        # best_params.json is fresh by its own sidecar, but model.json's
        # sidecar recorded the bytes it was trained from
        edit_best_params(pipeline.parent / "out")
        capsys.readouterr()
        assert main(["quantize", "--config", str(pipeline)]) == 3
        assert ("model.json is stale: input best_params.json changed since "
                "it was produced") in capsys.readouterr().err

    @pytest.mark.parametrize("omit", [RECORDED_INPUTS["model.json"],
                                      ("best_params.json",)],
                             ids=["all", "one"])
    def test_input_its_sidecar_omits_is_checked(self, pipeline, capsys,
                                                omit):
        # the table, not model.json's sidecar, names the inputs checked
        out = pipeline.parent / "out"
        edit_best_params(out)
        sidecar = out / "model.json.prov.json"
        doc = json.loads(sidecar.read_text())
        doc["inputs"] = {n: d for n, d in doc["inputs"].items()
                         if n not in omit}
        sidecar.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["quantize", "--config", str(pipeline)]) == 3
        assert ("model.json is stale: input best_params.json changed since "
                "it was produced") in capsys.readouterr().err


def edit_best_params(out: Path) -> None:
    """Edit best_params.json and record its new digest in its own sidecar
    only, so that it is fresh and the artifacts made from it are not."""
    params = out / "best_params.json"
    params.write_text(json_edit(lambda d: d.update(max_depth=3))(
        params.read_text()))
    sidecar = out / "best_params.json.prov.json"
    doc = json.loads(sidecar.read_text())
    doc["sha256"] = hashlib.sha256(params.read_bytes()).hexdigest()
    sidecar.write_text(json.dumps(doc))


def context(cfg: Path) -> cli.Context:
    return cli.Context(cli.build_parser().parse_args(
        ["gen", "--config", str(cfg)]))


class TestConfigTable:
    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, perod_cycles=40)
        capsys.readouterr()
        assert main(["gen", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == \
            "error: unknown config key perod_cycles\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value, command, message", BAD_KINDS,
        ids=["train_fraction-list", "rfe_target_fraction-list",
             "rfe_target_fraction-true", "design_spec-fraction",
             "design_spec-true", "design_spec-null", "pdn-fraction",
             "pdn-false", "grid-int", "grid-fraction", "out_dir-int",
             "out_dir-file",
             "ensemble-no-file", "pdn-huge", "lut_grid_watts-huge"])
    def test_bad_kind_is_config_error(self, pipeline, capsys, key, value,
                                      command, message):
        err = config_error(pipeline, capsys, command, **{key: value})
        assert err.startswith(f"error: {message}")

    def test_whole_document_checked_before_any_command(self, pipeline,
                                                       capsys):
        # quantize reads no key, yet a bad key of any command stops it
        err = config_error(pipeline, capsys, "quantize",
                           lut_grid_watts=[0.25, 2.0, 1.5])
        assert err.startswith("error: config key lut_grid_watts[2]")

    @pytest.mark.parametrize("key", ["rfe_params", "grid", "pdn",
                                     "learning_curve_sizes"])
    def test_null_is_the_default(self, tmp_path, key):
        null = context(write_config(tmp_path, **{key: None}))
        doc = json.loads((tmp_path / "config.json").read_text())
        del doc[key]
        (tmp_path / "config.json").write_text(json.dumps(doc))
        absent = context(tmp_path / "config.json")
        assert null.cfg == absent.cfg
        assert null._config == absent._config

    def test_sidecars_record_only_the_keys_of_their_command(self, finished):
        written = {c: [p.name for p in (finished / "out").iterdir()
                       if p.name in names] for c, names in WRITES.items()}
        assert sum(map(len, written.values())) * 2 == len(
            list((finished / "out").iterdir()))
        for command, names in written.items():
            keys = sorted(k for k, (_, _, readers) in cli._KEYS.items()
                          if command in readers)
            for name in names:
                prov = finished / "out" / f"{name}.prov.json"
                assert sorted(json.loads(prov.read_text())["config"]) \
                    == keys, name

    def test_config_digest_is_the_value_seen(self, tmp_path):
        # the same design spec inline, in its file, and with a default
        # spelt out is one value to gen
        base = context(write_config(tmp_path))._config["gen"]
        inline = context(write_config(tmp_path, design_spec=SPEC))
        spelt = context(write_config(tmp_path, design_spec=dict(SPEC, vdd=1.0)))
        assert inline._config["gen"] == spelt._config["gen"] == base
        assert context(write_config(tmp_path, seed=4))._config["gen"][
            "seed"] != base["seed"]

    def test_edit_to_shed_key_leaves_upstream_fresh(self, pipeline):
        write_config(pipeline.parent, lut_grid_watts=[0.5, 30.0, 64])
        assert main(["shed", "--config", str(pipeline)]) == 0
        assert main(["report", "--config", str(pipeline)]) == 0
        assert main(["monitor", "--config", str(pipeline)]) == 0

    def test_design_spec_file_edit_is_stale(self, pipeline, capsys):
        spec = pipeline.parent / "design_spec.json"
        spec.write_text(json.dumps(dict(SPEC, n_linear_nets=30)))
        capsys.readouterr()
        assert main(["select", "--config", str(pipeline)]) == 3
        assert "dataset.csv is stale: it was produced with a different " \
            "config key design_spec; rerun the pipeline from 'gen'" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("flags, key", [(["--seed", "4"], "seed"),
                                            (["--period", "40"],
                                             "period_cycles")])
    def test_stale_message_names_the_key(self, pipeline, capsys, flags, key):
        capsys.readouterr()
        assert main(["monitor", "--config", str(pipeline), *flags]) == 3
        assert f"different config key {key};" in capsys.readouterr().err

    def test_commands_index_exactly_their_table_keys(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        commands = [n for n in tree.body if isinstance(n, ast.FunctionDef)
                    and n.name.startswith("cmd_")]
        assert sorted(n.name[4:] for n in commands) == sorted(cli._COMMANDS)
        for func in commands:
            uses = [n for n in ast.walk(func)
                    if isinstance(n, ast.Attribute) and n.attr == "cfg"]
            keys = [n.slice.value for n in ast.walk(func)
                    if isinstance(n, ast.Subscript)
                    and isinstance(n.value, ast.Attribute)
                    and n.value.attr == "cfg"
                    and isinstance(n.slice, ast.Constant)]
            assert len(keys) == len(uses), f"{func.name} reads cfg otherwise"
            assert set(keys) == {k for k, (_, _, readers) in cli._KEYS.items()
                                 if func.name[4:] in readers}, func.name
        # only commands, and the Context that checks it, touch cfg
        others = [n for n in tree.body if n not in commands and not (
            isinstance(n, ast.ClassDef) and n.name == "Context")]
        assert [n.lineno for top in others for n in ast.walk(top)
                if isinstance(n, ast.Attribute) and n.attr == "cfg"] == []

    def test_commands_write_exactly_their_table_artifacts(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        for func in tree.body:
            if not (isinstance(func, ast.FunctionDef)
                    and func.name.startswith("cmd_")):
                continue
            names = [call.args[0] for call in ast.walk(func)
                     if isinstance(call, ast.Call)
                     and getattr(call.func, "attr", None) == "write_artifact"]
            assert all(isinstance(n, ast.Constant) and isinstance(n.value, str)
                       for n in names), f"{func.name} names a file otherwise"
            assert [n.value for n in names] == [
                n for n, (command, _) in cli._ARTIFACTS.items()
                if command == func.name[4:]], func.name

    def test_values_pass_one_rule(self):
        # every _field call names a kind of workload._value, never a
        # converter, and only _value asks whether a value is a bool
        def is_kind(node):
            if isinstance(node, (ast.List, ast.Tuple)):
                return all(map(is_kind, node.elts))
            return (isinstance(node, ast.Name)
                    and node.id in ("int", "float", "str")
                    or isinstance(node, ast.Subscript)
                    and getattr(node.value, "id", None) == "_KINDS")

        def asks_bool(node):
            return (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "isinstance"
                    and "bool" in {n.id for n in ast.walk(node.args[1])
                                   if isinstance(n, ast.Name)})

        fields = 0
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) \
                        and getattr(node.func, "id", None) == "_field":
                    fields += 1
                    assert is_kind(node.args[2]), \
                        f"{path.name}:{node.lineno} passes no kind"
            asked = {n.lineno for n in ast.walk(tree) if asks_bool(n)}
            if path.name == "workload.py":
                value = next(f for f in tree.body if getattr(f, "name", None)
                             == "_value")
                rule = {n.lineno for n in ast.walk(value) if asks_bool(n)}
                assert rule and rule <= asked
                asked -= rule
            assert not asked, f"{path.name} asks for a bool on {asked}"
        assert fields >= 10

    def test_fields_pass_one_call(self):
        # a value dataclass checks its fields by one _check_fields call,
        # its first statement, and every annotation names a kind; no
        # __post_init__ hands a self.<field> to _value or a range helper,
        # which leaves two _names calls on ids that are no field: the net
        # ids and an ensemble's component ids
        def reads_field(node):
            return (isinstance(node, ast.Attribute)
                    and getattr(node.value, "id", None) == "self"
                    or isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "getattr"
                    and getattr(node.args[0], "id", None) == "self")

        helpers = {"_value", "_positive", "_names", "_at_least"}
        checked, first, left = set(), set(), []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            classes = [c for c in ast.walk(ast.parse(path.read_text()))
                       if isinstance(c, ast.ClassDef)]
            for cls in classes:
                post = [f for f in cls.body
                        if getattr(f, "name", None) == "__post_init__"]
                if not post:
                    continue
                checked.add(cls.name)
                head = getattr(post[0].body[0], "value", None)
                if getattr(getattr(head, "func", None), "id", None) \
                        == "_check_fields":
                    first.add(cls.name)
                for call in ast.walk(post[0]):
                    if isinstance(call, ast.Call) \
                            and getattr(call.func, "id", None) in helpers:
                        where = f"{path.name}:{call.lineno}"
                        assert not any(reads_field(a) for a in call.args), \
                            f"{where} checks a field by hand"
                        left.append((cls.name, call.func.id))
        assert len(checked) == 15 and first == checked
        assert None not in cli._KINDS.values()
        assert sorted(left) == [("EnsembleModel", "_names"),
                                ("SyntheticDesign", "_names")]

    def test_ranges_pass_one_rule(self):
        # a lower bound, a positive number and distinct names are each
        # raised by one helper beside workload._value; only mae_percent
        # says "must be positive", of the mean of a whole array
        owner = {"must be >= ": ("workload.py", "_at_least"),
                 "must be finite and > 0": ("workload.py", "_positive"),
                 "must be unique": ("workload.py", "_names"),
                 "must be positive": ("model.py", "mae_percent")}
        gone = ("must be non-negative", "loss parameters", "repeats a name")
        raised = set()
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                text = " ".join(
                    n.value for r in ast.walk(top) if isinstance(r, ast.Raise)
                    for n in ast.walk(r) if isinstance(n, ast.Constant)
                    and isinstance(n.value, str))
                where = f"{path.name}:{top.lineno}"
                for phrase, helper in owner.items():
                    if phrase in text:
                        raised.add(phrase)
                        assert (path.name, getattr(top, "name", None)) \
                            == helper, f"{where} raises {phrase!r}"
                assert not [g for g in gone if g in text], where
        assert raised == set(owner)

    def test_readme_table_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Configuration keys\n")[1].split("\n#")[0]
        rows = re.findall(r"^\| `(\w+)` \|.*\|(.*)\|$", section, re.M)
        assert sorted(k for k, _ in rows) == sorted(cli._KEYS)
        for key, readers in rows:
            assert re.findall(r"`(\w+)`", readers) == list(
                cli._KEYS[key][2]), key

    def test_readme_artifact_table_follows_the_table(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Artifacts\n")[1].split("\n#")[0]
        rows = re.findall(r"^\| `([\w.]+)` \| `(\w+)` \|(.*)\|$", section,
                          re.M)
        assert [name for name, _, _ in rows] == list(cli._ARTIFACTS)
        for name, command, inputs in rows:
            assert (command, tuple(re.findall(r"`([\w.]+)`", inputs))) \
                == cli._ARTIFACTS[name], name


def test_json_is_read_in_one_place():
    # every artifact goes through _json_doc; the provenance sidecar read
    # in _stale is tolerant on purpose
    readers = set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef) and any(
                    isinstance(n, ast.Attribute) and n.attr == "loads"
                    and getattr(n.value, "id", None) == "json"
                    for n in ast.walk(func)):
                readers.add(f"{path.name}:{func.name}")
    assert readers == {"workload.py:_json_doc", "cli.py:_stale"}


class TestPipelineFuzz:
    """Mutants of the JSON inputs of train, by the fuzz of test_model, each
    written with its digest refreshed wherever it is recorded so that the
    parser is reached: train exits 0 or 2, never with a traceback."""

    @pytest.fixture(scope="class")
    def trained(self, finished, tmp_path_factory):
        copy = tmp_path_factory.mktemp("fuzz") / "copy"
        shutil.copytree(finished, copy)
        return copy / "config.json"

    @pytest.mark.parametrize("name", ["split.json", "selection.json",
                                      "best_params.json"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mutant_is_read_or_rejected(self, trained, name, data):
        path = trained.parent / "out" / name
        original = path.read_text()
        path.write_bytes(_mutant(data, original))
        refresh_provenance(path)
        try:
            assert main(["train", "--config", str(trained)]) in (0, 2)
        finally:
            path.write_text(original)
            refresh_provenance(path)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_monitor_mutant_is_read_or_rejected(self, trained, data):
        # shed reads monitor.csv only through workload._table_rows
        path = trained.parent / "out" / "monitor.csv"
        original = path.read_text()
        path.write_bytes(_mutant(data, original))
        refresh_provenance(path)
        try:
            assert main(["shed", "--config", str(trained)]) in (0, 2)
        finally:
            path.write_text(original)
            refresh_provenance(path)


class TestConfigFuzz:
    """Mutants of a config document that sets every key but ensemble, by
    the fuzz of test_model, read by Context for any command: each is read
    or rejected with the ConfigError or ValueError that main reports,
    exiting 2, never with another exception."""

    @pytest.fixture(scope="class")
    def document(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("config_fuzz")
        cfg = write_config(
            base, rfe_params={"max_depth": 8, "min_leaf_sample": 5},
            pdn={"max_phases": 4, "nominal_power": 16.0},
            lut_grid_watts=[0.25, 2.0, 8], learning_curve_sizes=[50, 100])
        # one value a line, where _mutant finds list values too
        return base / "mutant.json", json.dumps(json.loads(cfg.read_text()),
                                                indent=1)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutant_is_read_or_rejected(self, document, data):
        path, text = document
        path.write_bytes(_mutant(data, text))
        command = data.draw(st.sampled_from(sorted(cli._COMMANDS)))
        try:
            cli.Context(cli.build_parser().parse_args(
                [command, "--config", str(path)]))
        except (cli.ConfigError, ValueError):
            pass


@pytest.mark.parametrize("parse, text, field", [
    (pt.parse_linear, pt.linear_text(
        pt.LinearModel(np.array([1e-3]), 0.5, 1e8, ("n0",))), "intercept"),
    (pt.parse_design, pt.design_text(
        pt.generate_design(pt.DesignSpec(**SPEC))), "vdd_v"),
], ids=["parse_linear-intercept", "parse_design-vdd_v"])
def test_loader_names_file_and_missing_field(tmp_path, parse, text, field):
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError,
                       match=re.escape(f"{path}: missing field '{field}'")):
        parse(json_edit(lambda d: d.pop(field))(text), source=path)


def test_help_describes_every_subcommand():
    lines = cli.build_parser().format_help().splitlines()
    for name in cli._COMMANDS:
        line = next(l for l in lines if l.split()[:1] == [name])
        assert len(line.split()) > 1, name


class TestArtifactDoor:
    def test_interrupted_write_keeps_previous_files(self, tmp_path,
                                                    monkeypatch):
        ctx = cli.Context(cli.build_parser().parse_args(
            ["gen", "--config", str(write_config(tmp_path))]))
        ctx.write_artifact("design.json", "old\n")
        before = {p.name: p.read_bytes() for p in ctx.out.iterdir()}

        def fail(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            ctx.write_artifact("design.json", "new\n")
        assert {p.name: p.read_bytes() for p in ctx.out.iterdir()} == before

    def test_interrupted_sidecar_write_leaves_artifact_stale(
            self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        run_pipeline(cfg, ("gen",))
        ctx = cli.Context(cli.build_parser().parse_args(
            ["gen", "--config", str(cfg)]))
        real_replace = os.replace

        def fail_sidecar(src, dst):
            if str(dst).endswith(".prov.json"):
                raise OSError("disk full")
            real_replace(src, dst)
        monkeypatch.setattr(os, "replace", fail_sidecar)
        with pytest.raises(OSError):
            ctx.write_artifact("design.json", '{"nets": []}\n')
        monkeypatch.undo()
        assert sorted(p.name for p in ctx.out.iterdir()
                      if p.name.endswith(".tmp")) == []
        assert main(["select", "--config", str(cfg)]) == 3

    def test_cli_writes_only_through_write_artifact(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        context = next(n for n in tree.body
                       if isinstance(n, ast.ClassDef) and n.name == "Context")
        writer = next(n for n in context.body if isinstance(n, ast.FunctionDef)
                      and n.name == "write_artifact")
        inside = {id(n) for n in ast.walk(writer)}

        def callee(call: ast.Call) -> str:
            f = call.func
            return f.attr if isinstance(f, ast.Attribute) else \
                getattr(f, "id", "")
        writes = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and (
            callee(n) in ("write_text", "write_bytes", "open")
            or callee(n).startswith("save_"))]
        assert writes, "write_artifact no longer writes"
        assert [n.lineno for n in writes if id(n) not in inside] == []

    def test_each_command_hashes_and_writes_each_file_once(self, tmp_path,
                                                          monkeypatch):
        cfg = write_config(tmp_path)
        real_read, real_replace = cli._read_hashed, os.replace
        real_write = Path.write_bytes
        hashed, replaced, written = [], [], []

        def read(path):
            hashed.append(path.name)
            return real_read(path)

        def replace(src, dst):
            replaced.append(Path(dst).name)
            real_replace(src, dst)

        def write(path, data):
            written.append(path.name)
            return real_write(path, data)
        monkeypatch.setattr(cli, "_read_hashed", read)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(Path, "write_bytes", write)
        pinned = {"select": {"design.json", *SPLIT},
                  "monitor": {"design.json", *SPLIT, "model.json",
                              "image.bin", "selection.json"},
                  "shed": {"design.json", "image.bin", "monitor.csv",
                           "selection.json"}}
        for command in COMMANDS:
            hashed.clear()
            replaced.clear()
            written.clear()
            assert main([command, "--config", str(cfg)]) == 0
            # its inputs and their inputs, each once
            inputs = {n for own in WRITES[command]
                      for n in RECORDED_INPUTS[own]}.difference(
                          WRITES[command])
            assert sorted(hashed) == sorted(inputs.union(
                *(RECORDED_INPUTS[n] for n in inputs))), command
            assert set(hashed) == pinned.get(command, set(hashed)), command
            assert sorted(replaced) == sorted(set(replaced)), command
            assert len(written) == len(replaced), command
            if command == "gen":
                assert replaced.count("dataset.csv") == 1


class TestArtifactTable:
    def test_runs_write_exactly_the_table(self, pipeline):
        # gen ... report, then ensemble: each artifact with one sidecar,
        # which records the inputs of the hand-written graph
        assert main(["ensemble", "--config",
                     str(ensemble_config(pipeline.parent))]) == 0
        out = pipeline.parent / "out"
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*RECORDED_INPUTS, *(f"{n}.prov.json" for n in RECORDED_INPUTS)])
        assert sorted(cli._ARTIFACTS) == sorted(RECORDED_INPUTS)
        for name, inputs in RECORDED_INPUTS.items():
            prov = json.loads((out / f"{name}.prov.json").read_text())
            assert sorted(prov["inputs"]) == sorted(inputs), name

    def test_every_artifact_is_checked_by_one_rule(self, pipeline):
        # the check a status listing would run over the whole table
        cfg = ensemble_config(pipeline.parent)
        assert main(["ensemble", "--config", str(cfg)]) == 0
        out, config = pipeline.parent / "out", context(cfg)._config
        digests = {n: hashlib.sha256((out / n).read_bytes()).hexdigest()
                   for n in cli._ARTIFACTS}
        for name in cli._ARTIFACTS:
            assert json.loads((out / f"{name}.prov.json").read_text()) \
                == cli._record(config, digests, name), name
        for gone in cli._ARTIFACTS:
            sidecar = out / f"{gone}.prov.json"
            kept = sidecar.read_bytes()
            sidecar.unlink()
            assert {n: cli._stale(out, config, digests, n)
                    for n in cli._ARTIFACTS} == {
                n: "its provenance sidecar is missing or unreadable"
                if n == gone else None for n in cli._ARTIFACTS}
            sidecar.write_bytes(kept)

    @pytest.mark.parametrize("name", ["monitor.csv", "ensemble.json",
                                      "shed.txt"])
    def test_undeclared_write_raises_and_writes_nothing(self, pipeline,
                                                        name):
        out = pipeline.parent / "out"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        ctx = cli.Context(cli.build_parser().parse_args(
            ["shed", "--config", str(pipeline)]))
        with pytest.raises(ValueError, match="is not an artifact of 'shed'"):
            ctx.write_artifact(name, "x\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


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


def ensemble_config(base: Path) -> Path:
    """A config whose ensemble block names two small models, with disjoint
    feature ids by prefixing, and their composite dataset."""
    parts = []
    for name, seed in (("a", 11), ("b", 12)):
        design = pt.generate_design(pt.DesignSpec(**dict(SPEC, seed=seed)))
        ds = pt.simulate_dataset(design, 200, 60, seed=seed)
        prefixed = pt.Dataset(ds.features, ds.powers,
                              tuple(f"{name}.{f}" for f in ds.feature_names),
                              ds.period_cycles, ds.clock_freq)
        tree = pt.fit_tree(prefixed, pt.HyperParams(4, 5, 5, 0.001))
        pt.save_tree(tree, base / f"model_{name}.json")
        parts.append((name, ds))
    pt.save_dataset(pt.compose_datasets(parts), base / "composite.csv")
    return write_config(base, ensemble={
        "components": ["model_a.json", "model_b.json"],
        "dataset": "composite.csv",
    })


class TestEnsembleCommand:
    def test_ensemble_happy_path(self, tmp_path):
        cfg = ensemble_config(tmp_path)
        assert main(["ensemble", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "ensemble.json").read_text())
        assert doc["n_components"] == 2
        assert doc["mae_percent"] >= 0

    def test_predictions_are_the_component_sum(self, tmp_path):
        cfg = ensemble_config(tmp_path)
        assert main(["ensemble", "--config", str(cfg)]) == 0
        comp = pt.load_dataset(tmp_path / "composite.csv")
        paths = [tmp_path / f"model_{n}.json" for n in "ab"]
        expect = sum(pt.predict_tree_batch(
            tree, comp.select_features(tree.feature_ids).features)
            for tree in (pt.parse_tree(p.read_text(), p) for p in paths))
        lines = (tmp_path / "out" / "ensemble_predictions.csv").read_text()
        got = [float(line.split(",")[1]) for line in lines.splitlines()[1:]]
        assert got == list(expect)

    @pytest.mark.parametrize("name", ["model_b.json", "composite.csv",
                                      "composite.csv.meta.json"])
    def test_input_edit_changes_recorded_digest(self, tmp_path, name):
        cfg = ensemble_config(tmp_path)
        out = tmp_path / "out"

        def recorded() -> list[str]:
            assert main(["ensemble", "--config", str(cfg)]) == 0
            return [json.loads((out / f"{n}.prov.json").read_text())[
                "config"]["ensemble"] for n in ("ensemble.json",
                                                "ensemble_predictions.csv")]
        before = recorded()
        path = tmp_path / name
        text = path.read_text()
        path.write_text(text + text.splitlines()[-1] + "\n"  # one more row
                        if name.endswith(".csv") else
                        json.dumps(json.loads(text), indent=2))
        after = recorded()
        assert before[0] == before[1] and after[0] == after[1]
        assert after[0] != before[0]

    def test_missing_block_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["ensemble", "--config", str(cfg)]) == 2

    def test_non_integer_component_field_is_input_error(self, tmp_path,
                                                        capsys):
        # component trees are config paths without a sidecar: only the
        # loader stands between a malformed field and the predictions
        cfg = ensemble_config(tmp_path)
        path = tmp_path / "model_a.json"
        doc = json.loads(path.read_text())
        doc["nodes"][0]["feature"] = 0.9
        path.write_text(json.dumps(doc))
        assert main(["ensemble", "--config", str(cfg)]) == 2
        assert "field 'feature' must be an integer, not 0.9" \
            in capsys.readouterr().err
