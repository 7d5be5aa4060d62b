"""The three benchmark workloads.

Each workload has a set-up (not timed into wall_s), a pass (the timed body,
closed loop: every call waits for the previous one), a check of one pass's
outputs, and a summary of the outputs that feeds the metrics and the
behaviour fingerprint.  Calls into powertree go through the tracer so that
a traced run can time each one from outside.

A pass calls ``lap(name)`` after each of its steps; the laps cover the
pass without gaps.  Every pass of a run does the same work, so the run
reports each step's fastest lap (see run.py), and steps are kept short
where the public calls allow it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np
import powertree as pt

import checks

# The acceptance protocol's fixed sizes and elimination parameters.
N_SAMPLES = 2000
N_TRAIN = 1600
PERIOD = 300
TOP_M = 100
RFE_HP = pt.HyperParams(max_depth=8, min_split_sample=5, min_leaf_sample=5,
                        min_leaf_impurity=0.001)
CURVE_SIZES = [50, 100, 200, 400]
K_FOLDS = 10


@dataclass(frozen=True)
class Seeds:
    """All inputs derive from one seed; seed 1 gives the acceptance suite's
    design 1, data 5, split 7 and CV 11."""

    design: int
    data: int
    split: int
    cv: int
    trace: int

    @classmethod
    def from_seed(cls, s: int) -> "Seeds":
        return cls(design=s, data=s + 4, split=s + 6, cv=s + 10, trace=s + 7)


def rule_nodes(text: str) -> int:
    """Node count of a tree from its rule_text (one line per node)."""
    return sum(1 for line in text.splitlines()
               if line.lstrip().startswith(("if ", "value:")))


def _acceptance_split(seeds: Seeds, tr):
    design = tr.call("workload.generate_design", pt.generate_design,
                     pt.hybrid_design_spec(seeds.design))
    data = tr.call("workload.simulate_dataset", pt.simulate_dataset, design,
                   N_SAMPLES, PERIOD, seeds.data)
    perm = np.random.default_rng(seeds.split).permutation(N_SAMPLES)
    return design, data.take(perm[:N_TRAIN]), data.take(perm[N_TRAIN:])


def _cv_rank(cv) -> tuple:
    """grid_search_cv's own order on its best row: score, then the simpler
    model (smaller max_depth, larger min_leaf_impurity, ...)."""
    p = cv.best_params
    return (cv.best_score, p.max_depth, -p.min_leaf_impurity,
            p.min_split_sample, p.min_leaf_sample)


class Protocol:
    """The acceptance protocol on a fixed sub-grid of the 576-point grid.

    The grid search runs as one grid_search_cv call per min_leaf_sample
    value.  Only min_leaf_sample changes which split a node takes; the other
    three axes are stopping rules, so each call holds every combination
    that could share one grown tree per fold.  The best of the four calls,
    in grid_search_cv's own order, is the best of the whole grid.  The
    learning curve likewise runs one call per size.  Shorter calls give
    shorter steps, whose fastest times a run can measure (see run.py).
    """

    name = "protocol"
    setup_repeats = 9
    min_passes = 4
    pass_s = 10.0  # nominal, on a 2-core x86_64 host
    # All four min_leaf_sample values and two values on every other axis
    # (32 combinations, eight per min_leaf_sample), taken from the middle
    # of the 576-point grid's ranges.
    grid = pt.Grid(max_depth=(4, 6), min_split_sample=(10, 20),
                   min_leaf_sample=(5, 10, 15, 20),
                   min_leaf_impurity=(0.01, 0.05))

    def sizes(self) -> dict:
        return {"samples": N_SAMPLES, "train": N_TRAIN, "nets": 120,
                "period_cycles": PERIOD, "candidates": TOP_M, "retained": 20,
                "grid": {k: list(v) for k, v in asdict(self.grid).items()},
                "combinations": len(self.grid.combinations()),
                "cv_folds": K_FOLDS, "curve_sizes": CURVE_SIZES}

    def setup(self, seeds: Seeds, tr, work: Path):
        design, train, test = _acceptance_split(seeds, tr)
        return SimpleNamespace(seeds=seeds, design=design, train=train,
                               test=test)

    def run_pass(self, st, tr, lap):
        cands = tr.call("workload.rank_signals_by_activity",
                        pt.rank_signals_by_activity, st.train, TOP_M)
        lap("rank")
        sel = tr.call("selection.rfe", pt.rfe,
                      st.train.select_features(cands), RFE_HP, 0.2)
        train = st.train.select_features(sel.retained)
        test = st.test.select_features(sel.retained)
        lap("rfe")
        cvs = []
        for leaf in self.grid.min_leaf_sample:
            sub = pt.Grid(self.grid.max_depth, self.grid.min_split_sample,
                          (leaf,), self.grid.min_leaf_impurity)
            cvs.append(tr.call("tuning.grid_search_cv", pt.grid_search_cv,
                               train, sub, K_FOLDS, st.seeds.cv))
            lap(f"grid_leaf{leaf}")
        cv = min(cvs, key=_cv_rank)
        rows = [row for c in cvs for row in c.rows]
        tree = tr.call("model.fit_tree", pt.fit_tree, train, cv.best_params)
        linear = tr.call("model.fit_linear", pt.fit_linear, train)
        pred_tree = tr.call("model.predict_tree_batch", pt.predict_tree_batch,
                            tree, test.features)
        pred_linear = tr.call("model.predict_linear_batch",
                              pt.predict_linear_batch, linear, test.features)
        lap("final")
        curve = []
        for size in CURVE_SIZES:
            curve += tr.call("tuning.learning_curve", pt.learning_curve,
                             train, RFE_HP, [size], K_FOLDS, st.seeds.cv)
            lap(f"curve{size}")
        return SimpleNamespace(sel=sel, cv=cv, rows=rows, tree=tree, test=test,
                               pred_tree=pred_tree, pred_linear=pred_linear,
                               curve=curve)

    def check(self, st, out) -> dict[str, int]:
        tree_mae = pt.mae_percent(out.pred_tree, out.test.powers)
        linear_mae = pt.mae_percent(out.pred_linear, out.test.powers)
        curve_ok = ([p.size for p in out.curve] == CURVE_SIZES and all(
            np.isfinite([p.tree_train, p.tree_val, p.linear_train,
                         p.linear_val]).all() for p in out.curve))
        return {
            "rfe_retains_20": int(len(out.sel.retained) != 20),
            "cv_row_per_combination": int(
                len(out.rows) != len(self.grid.combinations())
                or {r.params for r in out.rows}
                != set(self.grid.combinations())),
            "final_fit_equals_cv_best": int(
                pt.rule_text(out.tree) != pt.rule_text(out.cv.best_model)),
            "tree_beats_linear_by_5":
                int(not (linear_mae - tree_mae >= 5.0)),
            "learning_curve_points": int(not curve_ok),
        }

    def summarize(self, st, out) -> dict:
        rules = pt.rule_text(out.tree)
        return {
            "metrics": {
                "tree_test_mae_pct": pt.mae_percent(out.pred_tree,
                                                    out.test.powers),
                "linear_test_mae_pct": pt.mae_percent(out.pred_linear,
                                                      out.test.powers),
                "cv_best_mae_pct": out.cv.best_score,
            },
            "counts": {
                "selection.rfe_iterations": len(out.sel.history),
                "tuning.combinations": len(out.rows),
                # k fits per combination and one refit per call.
                "tuning.fits_nominal": len(out.rows) * K_FOLDS
                + len(self.grid.min_leaf_sample),
                "model.tree_nodes": rule_nodes(rules),
                "model.tree_depth": out.tree.depth,
            },
            "fingerprint": {
                "best_params": asdict(out.cv.best_params),
                "retained": list(out.sel.retained),
                "tree_nodes": rule_nodes(rules),
                "tree_depth": out.tree.depth,
                "rule_text_sha256": checks.sha256_bytes(rules.encode()),
            },
        }


class MonitorLong:
    """A long monitor run: counters, engine walk and phase shedding.

    The monitor consumes the trace window by window, as it would a stream:
    period_features and the engine run on window_periods periods at a time.
    Counters reset at every period boundary, so the windows give the same
    features as one call on the whole trace (the oracle check compares them
    with the whole trace).
    """

    name = "monitor_long"
    setup_repeats = 3
    min_passes = 3
    pass_s = 1.0
    n_periods = 100
    window_periods = 10
    lut_grid = np.linspace(0.25, 40.0, 128)

    def sizes(self) -> dict:
        return {"samples": N_SAMPLES, "train": N_TRAIN, "nets": 120,
                "candidates": TOP_M, "counters": 20, "tree": asdict(RFE_HP),
                "periods": self.n_periods, "period_cycles": PERIOD,
                "window_periods": self.window_periods,
                "lut_points": len(self.lut_grid)}

    def setup(self, seeds: Seeds, tr, work: Path):
        design, train, _ = _acceptance_split(seeds, tr)
        cands = tr.call("workload.rank_signals_by_activity",
                        pt.rank_signals_by_activity, train, TOP_M)
        sel = tr.call("selection.rfe", pt.rfe, train.select_features(cands),
                      RFE_HP, 0.2)
        tree = tr.call("model.fit_tree", pt.fit_tree,
                       train.select_features(sel.retained), RFE_HP)
        image = tr.call("hwsim.quantize", pt.quantize, tree)
        return SimpleNamespace(seeds=seeds, design=design, sel=sel, tree=tree,
                               image=image, rules=pt.rule_text(tree))

    def run_pass(self, st, tr, lap):
        trace = tr.call("workload.synthesize_trace", pt.synthesize_trace,
                        st.design, self.n_periods, PERIOD, st.seeds.trace)
        sub = trace.select_signals(st.sel.retained)
        cfg = pt.MonitorConfig(n_counters=len(st.sel.retained),
                               estimation_period=PERIOD)
        lap("trace")
        feats, estimates, cycles = [], [], []
        sim_s = 0.0
        window = self.window_periods * PERIOD
        for c0 in range(0, sub.n_cycles, window):
            t0 = perf_counter()
            part = pt.ToggleTrace(sub.signal_ids, sub.levels[:, c0:c0 + window])
            part_feats = tr.call("hwsim.period_features", pt.period_features,
                                 part, cfg)
            for f in part_feats:
                value, cyc, _ = tr.call("hwsim.engine_invoke",
                                        pt.engine_invoke, st.image, f)
                estimates.append(pt.dequantize_mw(st.image, value))
                cycles.append(cyc)
            feats.extend(part_feats)
            sim_s += perf_counter() - t0
            lap(f"window{c0 // window}")
        regulator = pt.PdnModel()
        lut = tr.call("pdn.build_lut", pt.build_lut, regulator, self.lut_grid)
        powers = [st.design.static_power + mw / 1000.0 for mw in estimates]
        rows = tr.call("pdn.shed_rows", pt.shed_rows, regulator, lut, powers)
        decisions, eff = tr.call("pdn.shed", pt.shed, regulator, lut, powers)
        lap("pdn")
        return SimpleNamespace(trace=trace, sub=sub, feats=feats,
                               estimates=estimates, cycles=cycles, sim_s=sim_s,
                               rows=rows, decisions=decisions, eff=eff)

    def check(self, st, out) -> dict[str, int]:
        expected = checks.edge_counts(out.sub.levels, PERIOD)
        X = np.array(out.feats, dtype=np.int64)
        software = pt.predict_tree_batch(st.tree, X)
        shed_ok = (len(out.rows) == self.n_periods
                   and [r[2] for r in out.rows] == out.decisions
                   and out.rows[-1][3] == out.eff)
        return {
            "period_features_vs_oracle":
                int(checks.feature_mismatches(out.feats, expected) > 0),
            "engine_vs_software_tree": checks.engine_failures(
                out.estimates, out.cycles, st.image, X, software,
                st.tree.depth),
            "shed_rows_agree_with_shed": int(not shed_ok),
        }

    def summarize(self, st, out) -> dict:
        full = checks.edge_counts(out.trace.levels, PERIOD)
        truth_mw = [1000.0 * pt.dynamic_power(st.design, row, PERIOD)
                    for row in full]
        cycles_simulated = self.n_periods * PERIOD
        return {
            "metrics": {
                "sim_cycles_per_s": cycles_simulated / out.sim_s,
                "monitor_mae_pct": pt.mae_percent(out.estimates, truth_mw),
                "est_cycles_max": max(out.cycles),
                "shed_eff_impv_pct": 100.0 * out.eff,
            },
            "counts": {
                "selection.rfe_iterations": len(st.sel.history),
                "model.tree_nodes": st.image.n_nodes,
                "model.tree_depth": st.tree.depth,
                "hwsim.counter_steps":
                    cycles_simulated * len(st.sel.retained),
                "hwsim.engine_calls": len(out.cycles),
                "hwsim.engine_cycles_total": sum(out.cycles),
            },
            "fingerprint": {
                "params": asdict(RFE_HP),
                "retained": list(st.sel.retained),
                "tree_nodes": st.image.n_nodes,
                "tree_depth": st.tree.depth,
                "rule_text_sha256": checks.sha256_bytes(st.rules.encode()),
                "estimates_sha256": checks.sha256_bytes(
                    json.dumps([out.estimates, out.cycles]).encode()),
            },
        }


def _report_maes(out_dir: Path) -> tuple[float, float]:
    """(tree, linear) test MAE% from the report stage's report.csv."""
    row = (out_dir / "report.csv").read_text().splitlines()[1].split(",")
    return float(row[3]), float(row[4])


CLI_STAGES = ("gen", "select", "tune", "train", "quantize", "monitor", "shed",
              "report")


class CliChain:
    """gen -> report, one `python -m powertree` process per stage."""

    name = "cli_chain"
    setup_repeats = 5
    min_passes = 3  # byte-identity is checked across repeats
    pass_s = 10.0
    design_spec = {"n_linear_nets": 240, "n_nonlinear_units": 3,
                   "correlation_groups": 3}
    n_samples = 10000
    grid = {"max_depth": [6, 8], "min_split_sample": [5],
            "min_leaf_sample": [5], "min_leaf_impurity": [0.001]}
    cv_folds = 5

    def __init__(self, root: Path):
        self.src = root / "src"

    def config(self, seeds: Seeds) -> dict:
        # The CLI derives split, CV and monitor seeds as seed + 1, 2, 3.
        cfg = dict(self.sizes(), seed=seeds.data)
        cfg["design_spec"] = dict(self.design_spec, seed=seeds.design)
        return cfg

    def sizes(self) -> dict:
        # Nets of one correlation group share their activity totals, so the
        # candidate list must exceed two groups (160 nets) to keep all three.
        return {"design_spec": self.design_spec, "n_samples": self.n_samples,
                "period_cycles": PERIOD, "train_fraction": 0.8,
                "top_candidates": 200, "rfe_target_fraction": 0.1,
                "grid": self.grid, "cv_folds": self.cv_folds,
                "monitor_periods": 100, "learning_curve_sizes": [400, 1600]}

    def setup(self, seeds: Seeds, tr, work: Path):
        cfg = self.config(seeds)
        design = tr.call("workload.generate_design", pt.generate_design,
                         pt.DesignSpec(**cfg["design_spec"]))
        data = tr.call("workload.simulate_dataset", pt.simulate_dataset,
                       design, self.n_samples, PERIOD, seeds.data)
        work.mkdir(parents=True, exist_ok=True)
        config_path = work / "config.json"
        config_path.write_text(json.dumps(cfg, indent=1, sort_keys=True))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
        return SimpleNamespace(seeds=seeds, design=design, data=data,
                               config=config_path, work=work, env=env,
                               passes=0, first=None)

    def _stage(self, st, stage: str, out_dir: Path) -> int:
        proc = subprocess.run(
            [sys.executable, "-m", "powertree", stage, "--config",
             str(st.config), "--out", str(out_dir)],
            cwd=st.work, env=st.env, capture_output=True, text=True,
            timeout=170)
        if proc.returncode != 0:
            sys.stderr.write(f"stage {stage} exited {proc.returncode}:\n"
                             f"{proc.stderr}\n")
        return proc.returncode

    def run_pass(self, st, tr, lap):
        st.passes += 1
        out_dir = st.work / f"pass{st.passes}"
        codes = {}
        for stage in CLI_STAGES:
            codes[stage] = tr.call(f"cli.{stage}", self._stage, st, stage,
                                   out_dir)
            lap(stage)
        return SimpleNamespace(out_dir=out_dir, codes=codes)

    def check(self, st, out) -> dict[str, int]:
        digests = checks.artifact_digests(out.out_dir)
        if st.first is None:
            st.first = digests
        tree_mae, linear_mae = _report_maes(out.out_dir)
        return {
            "stages_exit_0": sum(1 for c in out.codes.values() if c != 0),
            "artifacts_identical_across_repeats":
                checks.artifact_mismatches(st.first, digests),
            "tree_beats_linear_by_5":
                int(not (linear_mae - tree_mae >= 5.0)),
        }

    def io_roundtrip(self, st, tr) -> dict[str, int]:
        """save_dataset/load_dataset called directly on the chain's dataset:
        the bytes must equal gen's CSV and the load must equal the data."""
        path = st.work / "roundtrip.csv"
        tr.call("workload.save_dataset", pt.save_dataset, st.data, path, None,
                st.design.vdd)
        same_bytes = (checks.sha256_bytes(path.read_bytes())
                      == st.first["dataset.csv"])
        back = tr.call("workload.load_dataset", pt.load_dataset, path)
        same_data = (back.feature_names == st.data.feature_names
                     and np.array_equal(back.features, st.data.features)
                     and np.array_equal(back.powers, st.data.powers))
        return {"save_dataset_equals_gen_csv": int(not same_bytes),
                "load_dataset_roundtrip": int(not same_data)}

    def summarize(self, st, out) -> dict:
        d = out.out_dir
        digests = checks.artifact_digests(d)
        tree_mae, linear_mae = _report_maes(d)
        best = json.loads((d / "best_params.json").read_text())
        rules = (d / "model_rules.txt").read_text()
        image = pt.load_image(d / "image.bin")
        n_rows = len((d / "cv_results.csv").read_text().splitlines()) - 1
        return {
            "metrics": {
                "tree_test_mae_pct": tree_mae,
                "linear_test_mae_pct": linear_mae,
            },
            "counts": {
                "selection.rfe_iterations": len(
                    (d / "rfe_history.csv").read_text().splitlines()) - 1,
                "tuning.combinations": n_rows,
                "tuning.fits_nominal": n_rows * best["k"] + 1,
                "model.tree_nodes": image.n_nodes,
                "model.tree_depth": image.max_depth,
                "cli.bytes_written": sum(p.stat().st_size
                                         for p in d.iterdir()),
            },
            "fingerprint": {
                "best_params": {k: best[k] for k in (
                    "max_depth", "min_split_sample", "min_leaf_sample",
                    "min_leaf_impurity")},
                "retained": json.loads(
                    (d / "selection.json").read_text())["retained"],
                "tree_nodes": image.n_nodes,
                "tree_depth": image.max_depth,
                "rule_text_sha256": checks.sha256_bytes(rules.encode()),
                "artifact_set_sha256": checks.set_digest(digests),
            },
        }


def make(name: str, root: Path):
    if name == "cli_chain":
        return CliChain(root)
    return {"protocol": Protocol, "monitor_long": MonitorLong}[name]()
