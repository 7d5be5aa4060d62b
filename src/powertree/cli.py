"""Pipeline driver: generate, select, tune, train, quantize, monitor,
ensemble, shed, report.

``_KEYS`` is the config's one table and ``_ARTIFACTS`` the artifacts'.
``Context`` applies the command-line overrides and checks every key by the
rule of its kind (an unknown key or a bad value exits 2, naming the key),
then the command's inputs, before the command runs.  It is the one door to
the output directory: a command parses the bytes that were checked and
writes only its own artifacts, each atomically.  Every artifact has a
``<name>.prov.json`` sidecar recording the SHA-256 of the artifact, of each
input ``_ARTIFACTS`` gives it and, under ``config``, of each key its command
reads (of a file's bytes for a file path).  An input is stale, exit 3, if
its sidecar is missing, its producer's keys changed (the message names the
first such key), its bytes differ from its sidecar or one of its recorded
inputs changed.  Each artifact is hashed at most once per command.

All randomness flows from the config seed: dataset synthesis uses ``seed``,
the train/test split ``seed + 1``, cross-validation folds ``seed + 2`` and
the monitor stimulus ``seed + 3``.  Reruns with identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import hwsim, model, pdn, selection, tuning, workload
from .workload import (_KINDS, _field, _json_doc, _json_text, _names,
                       _table_rows, _table_text, _value)

__all__ = ["main", "ConfigError", "StaleArtifactError"]


class ConfigError(Exception):
    pass


class StaleArtifactError(Exception):
    pass


_REQUIRED = object()  # the default of a key that has none

# Each config key: its kind (``workload._value``'s, one of _WANT's, or a
# dataclass, which checks the kind of each field by its annotation), its
# default as JSON (None: the command derives it) and the commands reading it.
_KEYS = {
    "design_spec": (workload.DesignSpec, _REQUIRED, ("gen",)),
    "seed": (int, 0, ("gen", "tune", "monitor", "report")),
    "period_cycles": (int, 300, ("gen", "monitor")),
    "n_samples": (int, 2000, ("gen",)),
    "train_fraction": ("fraction", 0.8, ("gen",)),
    "top_candidates": (int, 100, ("select",)),
    "rfe_params": (model.HyperParams, {}, ("select",)),
    "rfe_target_fraction": ("fraction", 0.2, ("select",)),
    "grid": (tuning.Grid, {}, ("tune",)),
    "cv_folds": (int, 10, ("tune", "report")),
    "monitor_periods": (int, 8, ("monitor",)),
    "pdn": (pdn.PdnModel, {}, ("shed",)),
    "lut_grid_watts": ((float, float, int), None, ("shed",)),
    "learning_curve_sizes": ([int], None, ("report",)),
    "ensemble": ("ensemble", _REQUIRED, ("ensemble",)),
    "out_dir": (str, "out", ()),
}
_WANT = {"fraction": "a fraction in (0, 1)", "file": "the path of a file",
         "ensemble": "an object of 'components' and 'dataset' paths"}

# Every artifact in pipeline order, with the command that writes it and the
# inputs its sidecar records; a command reads those it does not write.
_SPLIT = ("dataset.csv", "dataset.csv.meta.json", "split.json")
_ARTIFACTS = {name: (command, inputs) for command, names, inputs in (
    ("gen", ("design.json",), ()),
    ("gen", ("dataset.csv", "dataset.csv.meta.json"), ("design.json",)),
    ("gen", ("split.json",), _SPLIT[:2]),
    ("select", ("selection.json", "rfe_history.csv"), _SPLIT),
    ("tune", ("cv_results.csv", "best_params.json"),
     (*_SPLIT, "selection.json")),
    ("train", ("model.json", "linear.json", "model_rules.txt"),
     (*_SPLIT, "selection.json", "best_params.json")),
    ("quantize", ("image.bin",), ("model.json",)),
    ("monitor", ("monitor.csv",),
     ("design.json", "selection.json", "image.bin")),
    ("shed", ("shed.csv", "phase_lut.json", "shed_summary.json"),
     ("design.json", "monitor.csv")),
    ("report", ("report.csv", "learning_curve.csv"),
     (*_SPLIT, "selection.json", "best_params.json", "model.json",
      "linear.json")),
    ("ensemble", ("ensemble_predictions.csv", "ensemble.json"), ()),
) for name in names}


def _sha256(data) -> str:
    """SHA-256 of bytes, or of a checked config value's canonical JSON (a
    file's bytes in it as their digest, a dataclass as its fields)."""
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True, default=lambda v: (
            _sha256(v) if isinstance(v, bytes) else dataclasses.asdict(v))
        ).encode()
    return hashlib.sha256(data).hexdigest()


def _read_hashed(path: Path) -> tuple[bytes, str]:
    """An artifact's bytes and their SHA-256."""
    data = path.read_bytes()
    return data, _sha256(data)


def _load_json(path: Path, what: str) -> dict:
    if not path.is_file():
        raise ConfigError(f"{what} not found: {path}")
    return _json_doc(path.read_text(), None, f"{what} {path}")


def _build(what: str, make):
    """make(), with its TypeError, ValueError or AttributeError reported as
    a ConfigError naming what was being built."""
    try:
        return make()
    except (TypeError, ValueError, AttributeError) as e:
        raise ConfigError(f"bad {what}: {e}") from None


class Context:
    """The checked configuration plus the one door to pipeline artifacts."""

    def __init__(self, args: argparse.Namespace):
        config_path = Path(args.config)
        doc = _load_json(config_path, "config")
        grid = args.grid and _load_json(Path(args.grid), "grid file")
        doc.update((k, v) for k, v in (("seed", args.seed), ("grid", grid),
                                       ("period_cycles", args.period))
                   if v is not None)
        unknown = sorted(set(doc) - set(_KEYS))
        if unknown:
            raise ConfigError(f"unknown config key {unknown[0]}")
        self.base, self.command = config_path.parent, args.command
        self.cfg = {}  # config key -> checked value
        for key, (kind, default, readers) in _KEYS.items():
            if key in doc:
                self.cfg[key] = self._check(key, doc[key], kind)
            elif default is _REQUIRED and self.command in readers:
                raise ConfigError(f"config key missing: {key}")
            else:
                self.cfg[key] = None if default in (None, _REQUIRED) else \
                    self._check(key, default, kind)
        sha = {key: _sha256(value) for key, value in self.cfg.items()}
        self._config = {c: {k: sha[k] for k, (_, _, r) in _KEYS.items()
                            if c in r} for c in _COMMANDS}  # by command
        self.out = Path(args.out or self.base / self.cfg["out_dir"])
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot make the output directory {self.out}: "
                              f"{e.strerror}") from None
        self._digests: dict[str, str] = {}  # artifact name -> SHA-256
        self._checked: dict[str, bytes] = {}  # checked inputs, until read
        self._check_inputs()

    def _check(self, key: str, value, kind):
        """The value of config key ``key`` checked by the one rule of its
        kind, else ConfigError or ValueError naming it."""
        if kind == "fraction" and isinstance(value, float) and 0 < value < 1:
            return value
        if kind == "file" and isinstance(value, str) \
                and (self.base / value).is_file():
            return value, (self.base / value).read_bytes()
        if kind == "ensemble" and isinstance(value, dict) \
                and set(value) == {"components", "dataset"} \
                and isinstance(value["components"], list):
            data = self._check(f"{key}.dataset", value["dataset"], "file")
            meta = self._check(f"{key}.dataset", f"{data[0]}.meta.json", "file")
            return [self._check(f"{key}.components", p, "file")
                    for p in value["components"]], data, meta
        if dataclasses.is_dataclass(kind):  # null builds its defaults
            if kind is workload.DesignSpec and isinstance(value, str):
                value = _load_json(self.base / value, "design spec")
            value = {} if value is None else value
            if isinstance(value, dict):
                return _build(key, lambda: kind(**value))
        elif not isinstance(kind, str):  # null leaves a list to the command
            return None if value is None and isinstance(kind, list) else \
                _value(value, kind, f"config key {key}")
        want = _WANT.get(kind) or f"an object of {kind.__name__} fields"
        raise ConfigError(f"config key {key} must be {want}, not {value!r}")

    def write_artifact(self, name: str, data: bytes | str) -> Path:
        """Atomically write one of the command's artifacts, then its sidecar
        recording the inputs ``_ARTIFACTS`` gives it."""
        command, inputs = _ARTIFACTS.get(name, ("", ()))
        if command != self.command:
            raise ValueError(f"{name} is not an artifact of '{self.command}'")
        if isinstance(data, str):
            data = data.encode()
        digest = _sha256(data)
        prov = {"config": self._config[self.command], "sha256": digest,
                "inputs": {n: self._digests[n] for n in sorted(inputs)}}
        path, sidecar = self.out / name, self.out / f"{name}.prov.json"
        for target, payload in ((path, data),
                                (sidecar, _json_text(prov).encode())):
            tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
            try:
                tmp.write_bytes(payload)
                os.replace(tmp, target)
            except BaseException:
                tmp.unlink(missing_ok=True)
                raise
        self._digests[name] = digest
        return path

    def _check_inputs(self) -> None:
        """Check the command's inputs fresh, all before any is loaded."""
        own = {n for n, (c, _) in _ARTIFACTS.items() if c == self.command}
        names = [n for n in _ARTIFACTS if n not in own
                 and any(n in _ARTIFACTS[o][1] for o in own)]
        for name in names:
            path = self.out / name
            if not path.is_file():
                raise ConfigError(f"missing artifact {name}; "
                                  f"run '{_ARTIFACTS[name][0]}' first")
            self._checked[name], self._digests[name] = _read_hashed(path)
        for name in names:
            if reason := self._stale(name):
                raise StaleArtifactError(
                    f"{name} is stale: {reason}; rerun the pipeline from "
                    f"'{_ARTIFACTS[name][0]}'")

    def _stale(self, name: str) -> str | None:
        """Why an input artifact is stale, or None if it is fresh."""
        try:
            prov = json.loads((self.out / f"{name}.prov.json").read_bytes())
            config, own = dict(prov["config"]), prov["sha256"]
            deps = dict(prov["inputs"])
        except (OSError, ValueError, KeyError, TypeError):
            return "its provenance sidecar is missing or unreadable"
        expected = self._config[_ARTIFACTS[name][0]]
        changed = [k for k in _KEYS if config.get(k) != expected.get(k)]
        if changed:
            return f"it was produced with a different config key {changed[0]}"
        if own != self._digests[name]:
            return "its bytes differ from the digest its sidecar records"
        for dep, digest in sorted(deps.items()):
            if dep not in self._digests and (self.out / dep).is_file():
                _, self._digests[dep] = _read_hashed(self.out / dep)
            if self._digests.get(dep) != digest:
                return f"input {dep} changed since it was produced"
        return None

    def read(self, name: str) -> bytes:
        """The checked bytes of one of the command's inputs, once."""
        return self._checked.pop(name)


def _split_dataset(ctx: Context) -> tuple[workload.Dataset, workload.Dataset]:
    """The dataset's train and test rows, as split.json lists them."""
    ds = workload.parse_dataset(ctx.read("dataset.csv"),
                                ctx.read("dataset.csv.meta.json"),
                                "dataset.csv")
    doc = _json_doc(ctx.read("split.json"), None, "split.json")
    rows = [_field(doc, key, [int], "split.json") for key in ("train", "test")]
    return _build("split.json", lambda: (ds.take(rows[0]), ds.take(rows[1])))


def _load_selection(ctx: Context) -> tuple[str, ...]:
    doc = _json_doc(ctx.read("selection.json"), None, "selection.json")
    return _names(_field(doc, "retained", [str], "selection.json"),
                  "selection.json: field 'retained'")


def _load_best_params(ctx: Context) -> model.HyperParams:
    doc = _json_doc(ctx.read("best_params.json"), None, "best_params.json")
    values = {f.name: _field(doc, f.name, _KINDS[f.type], "best_params.json")
              for f in dataclasses.fields(model.HyperParams)}
    return _build("best_params.json", lambda: model.HyperParams(**values))


# ---------------------------------------------------------------------------
# Commands.

def cmd_gen(ctx: Context) -> int:
    """Generate the design, simulate its dataset and split the rows."""
    seed, n_samples = ctx.cfg["seed"], ctx.cfg["n_samples"]
    period = ctx.cfg["period_cycles"]
    design = workload.generate_design(ctx.cfg["design_spec"])
    ctx.write_artifact("design.json", workload.design_text(design))
    dataset = workload.simulate_dataset(design, n_samples, period, seed)
    ctx.write_artifact("dataset.csv", workload.dataset_csv_text(dataset))
    ctx.write_artifact("dataset.csv.meta.json",
                       workload.dataset_meta_text(dataset, design.vdd))
    perm = np.random.default_rng(seed + 1).permutation(n_samples)
    n_train = int(round(ctx.cfg["train_fraction"] * n_samples))
    split = {"seed": seed + 1, "train": sorted(int(i) for i in perm[:n_train]),
             "test": sorted(int(i) for i in perm[n_train:])}
    ctx.write_artifact("split.json", _json_text(split))
    print(f"gen: {n_samples} samples x {dataset.n_features} signals, "
          f"period {period} cycles -> {ctx.out}")
    return 0


def cmd_select(ctx: Context) -> int:
    """Keep the signals recursive feature elimination retains."""
    train_ds = _split_dataset(ctx)[0]
    top = min(ctx.cfg["top_candidates"], train_ds.n_features)
    candidates = workload.rank_signals_by_activity(train_ds, top)
    result = selection.rfe(train_ds.select_features(candidates),
                           ctx.cfg["rfe_params"], ctx.cfg["rfe_target_fraction"])
    doc = {"candidates": candidates, "retained": list(result.retained)}
    ctx.write_artifact("selection.json", _json_text(doc))
    ctx.write_artifact("rfe_history.csv", selection.rfe_history_text(result))
    print(f"select: {top} candidates -> {len(result.retained)} retained "
          f"in {len(result.history)} iterations")
    return 0


def cmd_tune(ctx: Context) -> int:
    """Grid-search the tree hyper-parameters by cross-validation."""
    ds = _split_dataset(ctx)[0].select_features(_load_selection(ctx))
    k, seed = ctx.cfg["cv_folds"], ctx.cfg["seed"] + 2
    result = tuning.grid_search_cv(ds, ctx.cfg["grid"], k, seed)
    ctx.write_artifact("cv_results.csv", tuning.cv_table_text(result))
    hp = result.best_params
    doc = dict(dataclasses.asdict(hp), mean_score=result.best_score, k=k,
               seed=seed)
    ctx.write_artifact("best_params.json", _json_text(doc))
    print(f"tune: {len(result.rows)} combinations, best {hp} "
          f"(mean validation MAE {result.best_score:.2f}%)")
    return 0


def cmd_train(ctx: Context) -> int:
    """Fit the power-model tree and the linear baseline."""
    retained = _load_selection(ctx)
    ds = _split_dataset(ctx)[0].select_features(retained)
    tree = model.fit_tree(ds, _load_best_params(ctx))
    ctx.write_artifact("model.json", model.tree_text(tree))
    ctx.write_artifact("linear.json", model.linear_text(model.fit_linear(ds)))
    ctx.write_artifact("model_rules.txt", model.rule_text(tree))
    print(f"train: tree depth {tree.depth}, {tree.n_leaves()} leaves, "
          f"{len(retained)} features")
    return 0


def cmd_quantize(ctx: Context) -> int:
    """Quantize the tree into the monitor's memory image."""
    image = hwsim.quantize(model.parse_tree(ctx.read("model.json"),
                                            "model.json"))
    ctx.write_artifact("image.bin", hwsim.image_bytes(image))
    print(f"quantize: {image.n_nodes} node words, max depth {image.max_depth}, "
          f"{image.leaf_unit} mW/LSB, structure memory {64 * image.n_nodes} "
          f"bits, worst-case latency {2 * image.max_depth + 1} cycles")
    return 0


def cmd_monitor(ctx: Context) -> int:
    """Run the hardware monitor and log its period estimates."""
    design = workload.parse_design(ctx.read("design.json"), "design.json")
    retained = _load_selection(ctx)
    image = hwsim.parse_image(ctx.read("image.bin"), "image.bin")
    period = ctx.cfg["period_cycles"]
    trace = workload.synthesize_trace(design, ctx.cfg["monitor_periods"],
                                      period, ctx.cfg["seed"] + 3)
    counters = hwsim.MonitorConfig(len(retained), period)
    rows = hwsim.run_monitor(trace.select_signals(retained), image, counters)
    ctx.write_artifact("monitor.csv", _table_text(
        ["period", "cycles", "estimate_mw", *retained],
        ((p, cycles, hwsim.dequantize_mw(image, value), *f)
         for p, value, cycles, f in rows)))
    print(f"monitor: {len(rows)} periods of {period} cycles, "
          f"{len(retained)} counters, counter bits "
          f"{counters.n_counters * counters.counter_width}, worst latency "
          f"{max(cycles for _, _, cycles, _ in rows)} of {period} cycles")
    return 0


def cmd_ensemble(ctx: Context) -> int:
    """Score an additive ensemble of trees on a composite dataset."""
    components, (name, data), (_, meta) = ctx.cfg["ensemble"]
    trees = [model.parse_tree(text, source) for source, text in components]
    em = model.EnsembleModel([(t, t.feature_ids) for t in trees])
    composite = workload.parse_dataset(data, meta, name)
    preds = model.predict_ensemble(em, composite)
    mae = model.mae_percent(preds, composite.powers)
    ctx.write_artifact("ensemble_predictions.csv", _table_text(
        ["sample", "prediction_w", "truth_w"],
        zip(range(len(preds)), preds, composite.powers)))
    ctx.write_artifact("ensemble.json", _json_text(
        {"mae_percent": mae, "n_components": len(trees)}))
    print(f"ensemble: {len(trees)} components, MAE {mae:.2f}%")
    return 0


def cmd_shed(ctx: Context) -> int:
    """Choose regulator phases per period from the monitor estimates."""
    design = workload.parse_design(ctx.read("design.json"), "design.json")
    estimates = _table_rows(ctx.read("monitor.csv"), [
        ("period", int), ("cycles", int), ("estimate_mw", float)], int,
        "monitor.csv")
    powers = [design.static_power + mw / 1000.0 for _, _, mw, *_ in estimates]
    regulator = ctx.cfg["pdn"]
    lo, hi, n = ctx.cfg["lut_grid_watts"] or (
        0.25, 2.0 * regulator.nominal_power, 128)
    lut = pdn.build_lut(regulator, np.linspace(lo, hi, n))
    rows = pdn.shed_rows(regulator, lut, powers)
    decisions, eff = [r[2] for r in rows], rows[-1][3]
    ctx.write_artifact("shed.csv", pdn.shed_table_text(rows))
    ctx.write_artifact("phase_lut.json", pdn.lut_text(lut))
    hist = {str(n): decisions.count(n)
            for n in range(1, regulator.max_phases + 1)}
    ctx.write_artifact("shed_summary.json", _json_text(
        {"eff_impv": eff, "n_periods": len(powers), "phases": hist}))
    print(f"shed: {len(powers)} periods, efficiency improvement {eff:.4f}")
    return 0


def cmd_report(ctx: Context) -> int:
    """Compare tree and linear test error; write the learning curve."""
    train_ds, test_ds = _split_dataset(ctx)
    retained = _load_selection(ctx)
    tree = model.parse_tree(ctx.read("model.json"), "model.json")
    linear = model.parse_linear(ctx.read("linear.json"), "linear.json")
    hp = _load_best_params(ctx)
    test_ds = test_ds.select_features(retained)
    tree_mae = model.mae_percent(
        model.predict_tree_batch(tree, test_ds.features), test_ds.powers)
    lin_mae = model.mae_percent(
        model.predict_linear_batch(linear, test_ds.features), test_ds.powers)
    ctx.write_artifact("report.csv", _table_text(
        ["dataset", "n_train", "n_test", "tree_mae_percent",
         "linear_mae_percent"],
        [("dataset", len(train_ds), len(test_ds), tree_mae, lin_mae)]))
    train_ds = train_ds.select_features(retained)
    k = ctx.cfg["cv_folds"]
    pool = len(train_ds) - (len(train_ds) + k - 1) // k
    sizes = ctx.cfg["learning_curve_sizes"]
    sizes = [pool // 8, pool // 4, pool // 2, pool] if sizes is None else sizes
    curve = tuning.learning_curve(train_ds, hp, sorted(set(sizes)), k,
                                  ctx.cfg["seed"] + 2)
    ctx.write_artifact("learning_curve.csv", tuning.learning_curve_text(curve))
    print(f"report: test MAE tree {tree_mae:.2f}% vs linear {lin_mae:.2f}% "
          f"({len(test_ds)} held-out samples)")
    return 0


# ---------------------------------------------------------------------------

_COMMANDS = {"gen": cmd_gen, "select": cmd_select, "tune": cmd_tune,
             "train": cmd_train, "quantize": cmd_quantize,
             "monitor": cmd_monitor, "ensemble": cmd_ensemble,
             "shed": cmd_shed, "report": cmd_report}


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
        p.add_argument("--grid", help="hyper-parameter grid JSON override")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(Context(args))
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except StaleArtifactError as e:
        print(f"stale artifact: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
