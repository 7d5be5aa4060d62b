"""Pipeline driver: generate, select, tune, train, quantize, monitor,
ensemble, shed, report.

Every output file gets a ``<name>.prov.json`` sidecar recording the SHA-256
of the files the producing command read, plus the hash of the (pre-override)
config document.  Commands refuse to consume artifacts whose recorded inputs
no longer match, so stale pipelines fail loudly with exit code 3; bad or
missing configuration, and input the library rejects with ValueError, exit
with code 2.

All randomness flows from the config seed: dataset synthesis uses ``seed``,
the train/test split ``seed + 1``, cross-validation folds ``seed + 2`` and
the monitor stimulus ``seed + 3``.  Reruns with identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import hwsim, model, pdn, selection, tuning, workload

__all__ = ["main", "ConfigError", "StaleArtifactError"]


class ConfigError(Exception):
    pass


class StaleArtifactError(Exception):
    pass


_DEFAULTS = {
    "period_cycles": 300,
    "n_samples": 2000,
    "train_fraction": 0.8,
    "seed": 0,
    "top_candidates": 100,
    "rfe_target_fraction": 0.2,
    "cv_folds": 10,
    "monitor_periods": 8,
    "out_dir": "out",
}


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha256_file(path: Path) -> str:
    return _sha256_bytes(path.read_bytes())


def _load_json(path: Path, what: str) -> dict:
    if not path.is_file():
        raise ConfigError(f"{what} not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what} is not valid JSON: {path} ({e})") from None


class Context:
    """Resolved configuration plus provenance-checked artifact access."""

    def __init__(self, args: argparse.Namespace):
        config_path = Path(args.config)
        doc = _load_json(config_path, "config")
        self.config_sha = _sha256_bytes(
            json.dumps(doc, sort_keys=True).encode())
        self.cfg = dict(_DEFAULTS)
        self.cfg.update(doc)
        self.base = config_path.parent
        if args.seed is not None:
            self.cfg["seed"] = args.seed
        if args.period is not None:
            self.cfg["period_cycles"] = args.period
        if args.grid is not None:
            self.cfg["grid"] = _load_json(Path(args.grid), "grid file")
        out = Path(args.out) if args.out is not None else \
            self.base / str(self.cfg["out_dir"])
        self.out = out
        self.out.mkdir(parents=True, exist_ok=True)

    # -- config access ------------------------------------------------------

    def value(self, key: str):
        if key not in self.cfg:
            raise ConfigError(f"config key missing: {key}")
        return self.cfg[key]

    def design_spec(self) -> workload.DesignSpec:
        raw = self.value("design_spec")
        if isinstance(raw, str):
            raw = _load_json(self.base / raw, "design spec")
        if not isinstance(raw, dict):
            raise ConfigError("design_spec must be a path or an object")
        raw = dict(raw)
        if "capacitance_range" in raw:
            raw["capacitance_range"] = tuple(raw["capacitance_range"])
        try:
            return workload.DesignSpec(**raw)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad design spec: {e}") from None

    def hyper_params(self, key: str, default: model.HyperParams) -> model.HyperParams:
        raw = self.cfg.get(key)
        if raw is None:
            return default
        try:
            return model.HyperParams(**raw)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad {key}: {e}") from None

    def grid(self) -> tuning.Grid:
        raw = self.cfg.get("grid")
        if raw is None:
            return tuning.Grid()
        try:
            return tuning.Grid(**{k: tuple(v) for k, v in raw.items()})
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad grid: {e}") from None

    def pdn_model(self) -> pdn.PdnModel:
        raw = self.cfg.get("pdn") or {}
        try:
            return pdn.PdnModel(**raw)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad pdn block: {e}") from None

    # -- provenance ---------------------------------------------------------

    def _prov_path(self, path: Path) -> Path:
        return path.with_name(path.name + ".prov.json")

    def write_artifact(self, name: str, data: bytes | str,
                       inputs: list[str]) -> Path:
        path = self.out / name
        if isinstance(data, str):
            data = data.encode()
        path.write_bytes(data)
        prov = {
            "config_sha256": self.config_sha,
            "inputs": {n: _sha256_file(self.out / n) for n in sorted(inputs)},
        }
        self._prov_path(path).write_text(
            json.dumps(prov, indent=1, sort_keys=True) + "\n")
        return path

    def artifact(self, name: str, producer: str) -> Path:
        """Path of an input artifact, verified fresh."""
        path = self.out / name
        if not path.is_file():
            raise ConfigError(f"missing artifact {name}; run '{producer}' first")
        prov_path = self._prov_path(path)
        if prov_path.is_file():
            prov = json.loads(prov_path.read_text())
            if prov.get("config_sha256") != self.config_sha:
                raise StaleArtifactError(
                    f"{name} was produced under a different config; "
                    f"rerun the pipeline from '{producer}'")
            for dep, digest in prov.get("inputs", {}).items():
                dep_path = self.out / dep
                if not dep_path.is_file() or _sha256_file(dep_path) != digest:
                    raise StaleArtifactError(
                        f"{name} is stale: input {dep} changed since it was "
                        f"produced; rerun '{producer}'")
        return path


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _preflight(ctx: Context, *inputs: tuple[str, str]) -> None:
    """Verify freshness of every input artifact before loading any."""
    for name, producer in inputs:
        ctx.artifact(name, producer)


def _load_split(ctx: Context) -> tuple[np.ndarray, np.ndarray]:
    doc = _load_json(ctx.artifact("split.json", "gen"), "split")
    return (np.array(doc["train"], dtype=np.intp),
            np.array(doc["test"], dtype=np.intp))


def _load_selection(ctx: Context) -> list[str]:
    doc = _load_json(ctx.artifact("selection.json", "select"), "selection")
    return list(doc["retained"])


def _load_best_params(ctx: Context) -> model.HyperParams:
    doc = _load_json(ctx.artifact("best_params.json", "tune"), "best params")
    return model.HyperParams(doc["max_depth"], doc["min_split_sample"],
                             doc["min_leaf_sample"], doc["min_leaf_impurity"])


def _train_dataset(ctx: Context) -> workload.Dataset:
    ds = workload.load_dataset(ctx.artifact("dataset.csv", "gen"))
    train, _ = _load_split(ctx)
    return ds.take(train)


# ---------------------------------------------------------------------------
# Commands.

def cmd_gen(ctx: Context) -> int:
    spec = ctx.design_spec()
    seed = int(ctx.value("seed"))
    period = int(ctx.value("period_cycles"))
    n_samples = int(ctx.value("n_samples"))
    frac = float(ctx.value("train_fraction"))
    if not (0.0 < frac < 1.0):
        raise ConfigError("train_fraction must lie in (0, 1)")

    design = workload.generate_design(spec)
    tmp = ctx.out / "design.json"
    workload.save_design(design, tmp)
    ctx.write_artifact("design.json", tmp.read_bytes(), [])

    dataset = workload.simulate_dataset(design, n_samples, period, seed)
    csv_path = ctx.out / "dataset.csv"
    workload.save_dataset(dataset, csv_path, vdd=design.vdd)
    ctx.write_artifact("dataset.csv", csv_path.read_bytes(), ["design.json"])

    perm = np.random.default_rng(seed + 1).permutation(n_samples)
    n_train = int(round(frac * n_samples))
    split = {"seed": seed + 1, "train": sorted(int(i) for i in perm[:n_train]),
             "test": sorted(int(i) for i in perm[n_train:])}
    ctx.write_artifact("split.json", _dump_json(split), ["dataset.csv"])
    print(f"gen: {n_samples} samples x {dataset.n_features} signals, "
          f"period {period} cycles -> {ctx.out}")
    return 0


def cmd_select(ctx: Context) -> int:
    _preflight(ctx, ("dataset.csv", "gen"), ("split.json", "gen"))
    train_ds = _train_dataset(ctx)
    top = min(int(ctx.value("top_candidates")), train_ds.n_features)
    candidates = workload.rank_signals_by_activity(train_ds, top)
    hp = ctx.hyper_params("rfe_params", model.HyperParams())
    result = selection.rfe(train_ds.select_features(candidates), hp,
                           float(ctx.value("rfe_target_fraction")))
    doc = {"candidates": candidates, "retained": list(result.retained)}
    ctx.write_artifact("selection.json", _dump_json(doc),
                       ["dataset.csv", "split.json"])
    ctx.write_artifact("rfe_history.csv", selection.rfe_history_text(result),
                       ["dataset.csv", "split.json"])
    print(f"select: {top} candidates -> {len(result.retained)} retained "
          f"in {len(result.history)} iterations")
    return 0


def cmd_tune(ctx: Context) -> int:
    _preflight(ctx, ("selection.json", "select"), ("dataset.csv", "gen"),
               ("split.json", "gen"))
    train_ds = _train_dataset(ctx)
    retained = _load_selection(ctx)
    ds = train_ds.select_features(retained)
    k = int(ctx.value("cv_folds"))
    seed = int(ctx.value("seed")) + 2
    result = tuning.grid_search_cv(ds, ctx.grid(), k, seed)
    inputs = ["dataset.csv", "split.json", "selection.json"]
    ctx.write_artifact("cv_results.csv", tuning.cv_table_text(result), inputs)
    hp = result.best_params
    doc = {"max_depth": hp.max_depth, "min_split_sample": hp.min_split_sample,
           "min_leaf_sample": hp.min_leaf_sample,
           "min_leaf_impurity": hp.min_leaf_impurity,
           "mean_score": result.best_score, "k": k, "seed": seed}
    ctx.write_artifact("best_params.json", _dump_json(doc), inputs)
    print(f"tune: {len(result.rows)} combinations, best {hp} "
          f"(mean validation MAE {result.best_score:.2f}%)")
    return 0


def cmd_train(ctx: Context) -> int:
    _preflight(ctx, ("best_params.json", "tune"), ("selection.json", "select"),
               ("dataset.csv", "gen"), ("split.json", "gen"))
    train_ds = _train_dataset(ctx)
    retained = _load_selection(ctx)
    hp = _load_best_params(ctx)
    ds = train_ds.select_features(retained)
    tree = model.fit_tree(ds, hp)
    linear = model.fit_linear(ds)
    inputs = ["dataset.csv", "split.json", "selection.json", "best_params.json"]
    tmp = ctx.out / "model.json"
    model.save_tree(tree, tmp)
    ctx.write_artifact("model.json", tmp.read_bytes(), inputs)
    tmp = ctx.out / "linear.json"
    model.save_linear(linear, tmp)
    ctx.write_artifact("linear.json", tmp.read_bytes(), inputs)
    ctx.write_artifact("model_rules.txt", model.rule_text(tree), inputs)
    print(f"train: tree depth {tree.depth}, {tree.n_leaves()} leaves, "
          f"{len(retained)} features")
    return 0


def cmd_quantize(ctx: Context) -> int:
    tree = model.load_tree(ctx.artifact("model.json", "train"))
    image = hwsim.quantize(tree)
    tmp = ctx.out / "image.bin"
    hwsim.save_image(image, tmp)
    ctx.write_artifact("image.bin", tmp.read_bytes(), ["model.json"])
    print(f"quantize: {image.n_nodes} node words, max depth {image.max_depth}, "
          f"{image.leaf_unit} mW/LSB")
    return 0


def cmd_monitor(ctx: Context) -> int:
    _preflight(ctx, ("image.bin", "quantize"), ("selection.json", "select"),
               ("design.json", "gen"))
    design = workload.load_design(ctx.artifact("design.json", "gen"))
    retained = _load_selection(ctx)
    image = hwsim.load_image(ctx.artifact("image.bin", "quantize"))
    period = int(ctx.value("period_cycles"))
    seed = int(ctx.value("seed")) + 3
    n_periods = int(ctx.value("monitor_periods"))
    trace = workload.synthesize_trace(design, n_periods, period, seed)
    trace = trace.select_signals(retained)
    mon = hwsim.MonitorConfig(n_counters=len(retained),
                              estimation_period=period)
    feats = hwsim.period_features(trace, mon)
    lines = ["period,cycles,estimate_mw," + ",".join(retained)]
    for p, f in enumerate(feats):
        value, cycles, _ = hwsim.engine_invoke(image, f)
        mw = hwsim.dequantize_mw(image, value)
        lines.append(f"{p},{cycles},{mw!r}," + ",".join(str(v) for v in f))
    ctx.write_artifact("monitor.csv", "\n".join(lines) + "\n",
                       ["design.json", "selection.json", "image.bin"])
    print(f"monitor: {len(feats)} periods of {period} cycles, "
          f"{len(retained)} counters")
    return 0


def cmd_ensemble(ctx: Context) -> int:
    block = ctx.cfg.get("ensemble")
    if not isinstance(block, dict) or "components" not in block \
            or "dataset" not in block:
        raise ConfigError("config needs an ensemble block with "
                          "'components' and 'dataset'")
    trees = [model.load_tree(ctx.base / p) for p in block["components"]]
    em = model.EnsembleModel(tuple((t, t.feature_ids) for t in trees))
    composite = workload.load_dataset(ctx.base / block["dataset"])
    preds = np.zeros(len(composite))
    for tree, ids in em.components:
        sub = composite.select_features(ids)
        preds += model.predict_tree_batch(tree, sub.features)
    mae = model.mae_percent(preds, composite.powers)
    lines = ["sample,prediction_w,truth_w"]
    for i, (p, t) in enumerate(zip(preds, composite.powers)):
        lines.append(f"{i},{float(p)!r},{float(t)!r}")
    ctx.write_artifact("ensemble_predictions.csv", "\n".join(lines) + "\n", [])
    ctx.write_artifact("ensemble.json", _dump_json(
        {"mae_percent": mae, "n_components": len(trees)}), [])
    print(f"ensemble: {len(trees)} components, MAE {mae:.2f}%")
    return 0


def cmd_shed(ctx: Context) -> int:
    _preflight(ctx, ("monitor.csv", "monitor"), ("design.json", "gen"))
    design = workload.load_design(ctx.artifact("design.json", "gen"))
    monitor_path = ctx.artifact("monitor.csv", "monitor")
    lines = monitor_path.read_text().splitlines()
    mw = [float(line.split(",")[2]) for line in lines[1:]]
    powers = [design.static_power + v / 1000.0 for v in mw]

    regulator = ctx.pdn_model()
    grid_spec = ctx.cfg.get("lut_grid_watts",
                            [0.25, 2.0 * regulator.nominal_power, 128])
    lo, hi, n = float(grid_spec[0]), float(grid_spec[1]), int(grid_spec[2])
    lut = pdn.build_lut(regulator, np.linspace(lo, hi, n))
    rows = pdn.shed_rows(regulator, lut, powers)
    decisions, eff = [r[2] for r in rows], rows[-1][3]

    ctx.write_artifact("shed.csv", pdn.shed_table_text(rows),
                       ["design.json", "monitor.csv"])
    tmp = ctx.out / "phase_lut.json"
    pdn.save_lut(lut, tmp)
    ctx.write_artifact("phase_lut.json", tmp.read_bytes(),
                       ["design.json", "monitor.csv"])
    hist = {str(n): decisions.count(n)
            for n in range(1, regulator.max_phases + 1)}
    ctx.write_artifact("shed_summary.json", _dump_json(
        {"eff_impv": eff, "n_periods": len(powers), "phases": hist}),
        ["design.json", "monitor.csv"])
    print(f"shed: {len(powers)} periods, efficiency improvement {eff:.4f}")
    return 0


def cmd_report(ctx: Context) -> int:
    _preflight(ctx, ("model.json", "train"), ("linear.json", "train"),
               ("best_params.json", "tune"), ("selection.json", "select"),
               ("dataset.csv", "gen"), ("split.json", "gen"))
    ds = workload.load_dataset(ctx.artifact("dataset.csv", "gen"))
    train, test = _load_split(ctx)
    retained = _load_selection(ctx)
    tree = model.load_tree(ctx.artifact("model.json", "train"))
    linear = model.load_linear(ctx.artifact("linear.json", "train"))
    hp = _load_best_params(ctx)

    test_ds = ds.take(test).select_features(retained)
    tree_mae = model.mae_percent(
        model.predict_tree_batch(tree, test_ds.features), test_ds.powers)
    lin_mae = model.mae_percent(
        model.predict_linear_batch(linear, test_ds.features), test_ds.powers)
    inputs = ["dataset.csv", "split.json", "selection.json", "model.json",
              "linear.json", "best_params.json"]
    report = ["dataset,n_train,n_test,tree_mae_percent,linear_mae_percent",
              f"dataset,{len(train)},{len(test)},{tree_mae!r},{lin_mae!r}"]
    ctx.write_artifact("report.csv", "\n".join(report) + "\n", inputs)

    train_ds = ds.take(train).select_features(retained)
    k = int(ctx.value("cv_folds"))
    pool = len(train) - (len(train) + k - 1) // k
    sizes = ctx.cfg.get("learning_curve_sizes") or \
        [pool // 8, pool // 4, pool // 2, pool]
    sizes = sorted({int(s) for s in sizes})
    points = tuning.learning_curve(train_ds, hp, sizes, k,
                                   int(ctx.value("seed")) + 2)
    ctx.write_artifact("learning_curve.csv",
                       tuning.learning_curve_text(points), inputs)
    print(f"report: test MAE tree {tree_mae:.2f}% vs linear {lin_mae:.2f}% "
          f"({len(test)} held-out samples)")
    return 0


# ---------------------------------------------------------------------------

_COMMANDS = {
    "gen": cmd_gen,
    "select": cmd_select,
    "tune": cmd_tune,
    "train": cmd_train,
    "quantize": cmd_quantize,
    "monitor": cmd_monitor,
    "ensemble": cmd_ensemble,
    "shed": cmd_shed,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powertree",
        description="Decision-tree power modeling and monitor simulation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in _COMMANDS.items():
        p = sub.add_parser(name, help=func.__doc__)
        p.add_argument("--config", required=True, help="pipeline config JSON")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--period", type=int, default=None,
                       help="estimation period override, cycles")
        p.add_argument("--grid", default=None,
                       help="hyper-parameter grid JSON override")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ctx = Context(args)
        return args.func(ctx)
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except StaleArtifactError as e:
        print(f"stale artifact: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
