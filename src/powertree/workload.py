"""Synthetic gate-level workloads with closed-form dynamic power.

Stands in for an RTL simulation and power-analysis toolchain.  A design is a
random netlist of capacitive nets plus DSP-like arithmetic units whose power
is a nonlinear function of input activity.  Per-period toggle activity is
synthesized with grouped (correlated) toggle rates, and every activity sample
is labeled with the exact dynamic power it dissipates, so regression models
and the hardware-monitor simulator can be checked against ground truth.

Power model
-----------
For a period of ``L`` cycles the activity of net ``i`` is its positive-edge
count ``a_i``, normalized to ``alpha_i = a_i / L``.  Dynamic power is

    P = sum_i alpha_i * C_i * vdd^2 * f            (capacitive nets)
      + sum_u coeff_u * mean(alpha over unit inputs)^2   (nonlinear units)

Static power is a configurable constant kept out of ``dynamic_power``; it is
only added back where total logic power is needed (phase shedding).

Stimulus model
--------------
Nets belong to equal-sized correlation groups.  Each period draws one toggle
rate per group from a three-mode regime mixture (idle / half / busy, with
small uniform jitter), imitating applications that switch between discrete
activity regimes; a net then emits ``0/1`` pulses as independent Bernoulli
events at its group's rate, one pulse slot per two cycles.  Nets in the same
group therefore carry strongly correlated, largely redundant activity, which
is what recursive feature elimination is expected to prune.  All nonlinear
units of a design average nets drawn from one shared pair of groups (think
of a MAC cluster fed by two buses); the resulting squared-mean power has
regime curvature and a cross-group interaction that a linear model cannot
represent but a tree resolves with a handful of splits.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

__all__ = [
    "DEFAULT_NONLINEAR_STRENGTH",
    "DesignSpec",
    "Net",
    "NonlinearUnit",
    "SyntheticDesign",
    "ToggleTrace",
    "Dataset",
    "generate_design",
    "activity",
    "dynamic_power",
    "simulate_dataset",
    "synthesize_trace",
    "rank_signals_by_activity",
    "compose_datasets",
    "hybrid_design_spec",
    "linear_design_spec",
    "design_text",
    "parse_design",
    "dataset_csv_text",
    "dataset_meta_text",
    "parse_dataset",
    "save_dataset",
    "load_dataset",
]

# Documented default: sized so the nonlinear units carry most of the power
# budget on hybrid designs, which makes the tree-vs-linear accuracy gap
# clearly visible.
DEFAULT_NONLINEAR_STRENGTH = 8.0

# Activity-regime mixture: per period, each group's toggle rate is one of
# these modes plus uniform jitter of +-RATE_JITTER.
RATE_MODES = (0.05, 0.5, 0.95)
RATE_JITTER = 0.02


@dataclass(frozen=True)
class DesignSpec:
    """Parameters for random design generation."""

    n_linear_nets: int
    n_nonlinear_units: int = 0
    capacitance_range: tuple[float, float] = (2e-10, 1.2e-9)
    vdd: float = 1.0
    clock_freq: float = 100e6
    static_power: float = 0.5
    nonlinear_strength: float = DEFAULT_NONLINEAR_STRENGTH
    correlation_groups: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        _check_fields(self, n_linear_nets=0, n_nonlinear_units=0,
                      vdd=_positive, clock_freq=_positive, static_power=0,
                      nonlinear_strength=0, correlation_groups=1)
        cmin, cmax = self.capacitance_range
        if not (cmin > 0 and cmin <= cmax):
            raise ValueError("capacitance_range must satisfy 0 < min <= max")
        if self.n_linear_nets + self.n_nonlinear_units < 1:
            raise ValueError("design must contain at least one net or unit")
        if self.n_nonlinear_units > 0 and self.n_linear_nets == 0:
            raise ValueError("nonlinear units need nets to draw inputs from")


@dataclass(frozen=True)
class Net:
    id: str
    capacitance: float
    group: int

    def __post_init__(self) -> None:
        _check_fields(self, capacitance=0, group=0)


@dataclass(frozen=True)
class NonlinearUnit:
    inputs: tuple[str, ...]
    coefficient: float

    def __post_init__(self) -> None:
        _check_fields(self)
        if not self.inputs:
            raise ValueError("nonlinear unit with no inputs")


@dataclass(frozen=True)
class SyntheticDesign:
    """A concrete random netlist; the ground-truth power generator."""

    nets: tuple[Net, ...]
    nonlinear_units: tuple[NonlinearUnit, ...]
    vdd: float
    clock_freq: float
    static_power: float

    def __post_init__(self) -> None:
        _check_fields(self, vdd=_positive, clock_freq=_positive,
                      static_power=0)
        known = set(_names([n.id for n in self.nets], "net ids"))
        for u in self.nonlinear_units:
            missing = set(u.inputs) - known
            if missing:
                raise ValueError(f"unit references unknown nets: {sorted(missing)}")

    @property
    def n_nets(self) -> int:
        return len(self.nets)

    @property
    def net_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nets)

    def capacitance_array(self) -> np.ndarray:
        return np.array([n.capacitance for n in self.nets], dtype=np.float64)

    def group_array(self) -> np.ndarray:
        return np.array([n.group for n in self.nets], dtype=np.intp)

    def unit_index_arrays(self) -> list[np.ndarray]:
        pos = {n.id: i for i, n in enumerate(self.nets)}
        return [
            np.array([pos[s] for s in u.inputs], dtype=np.intp)
            for u in self.nonlinear_units
        ]

    def with_clock_freq(self, clock_freq: float) -> "SyntheticDesign":
        """Same netlist retargeted to a different operating frequency."""
        return replace(self, clock_freq=clock_freq)


def _binary(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is 0 or 1, as
    ``((a == 0) | (a == 1)).all()`` decides it.  A bool array needs no
    check, and an integer one a single max reduction, with no temporary of
    a's size; any other dtype takes that elementwise test."""
    if a.dtype == bool:
        return True
    if a.dtype.kind == "i":  # a negative entry read as unsigned exceeds 1
        a = a.view(a.dtype.str.replace("i", "u"))
    if a.dtype.kind == "u":
        return bool(a.max(initial=0) <= 1)
    return bool(((a == 0) | (a == 1)).all())


@dataclass(frozen=True)
class ToggleTrace:
    """Cycle-resolved signal levels, one row per signal.

    levels must all be 0 or 1, checked by at most one reduction for bool
    and integer dtypes and by the elementwise test for any other.  The
    cumulative transition count s(sig, t) counts positive edges over the
    first t cycles, with the edge detector assumed to start from level 0.
    It is non-decreasing and grows by at most one per cycle.
    """

    signal_ids: tuple[str, ...]
    levels: np.ndarray  # (n_signals, n_cycles), values 0/1

    def __post_init__(self) -> None:
        _check_fields(self, signal_ids=_names)
        if self.levels.ndim != 2 or self.levels.shape[0] != self.n_signals:
            raise ValueError("levels must be (n_signals, n_cycles)")
        if not _binary(self.levels):
            raise ValueError("levels must be 0/1")

    @property
    def n_signals(self) -> int:
        return len(self.signal_ids)

    @property
    def n_cycles(self) -> int:
        return self.levels.shape[1]

    def signal_index(self, sig: str) -> int:
        try:
            return self.signal_ids.index(sig)
        except ValueError:
            raise ValueError(f"unknown signal id: {sig!r}") from None

    def cumulative_counts(self, sig: str) -> np.ndarray:
        """s(sig, t) for t = 0..n_cycles."""
        lv = self.levels[self.signal_index(sig)]
        prev = np.concatenate(([0], lv[:-1]))
        edges = (lv == 1) & (prev == 0)
        return np.concatenate(([0], np.cumsum(edges)))

    def select_signals(self, ids: list[str] | tuple[str, ...]) -> "ToggleTrace":
        rows = [self.signal_index(s) for s in ids]
        return ToggleTrace(tuple(ids), self.levels[rows])


def _value(value, kind, name: str):
    """``value`` checked as ``kind``, else ValueError "<name> must be ...":
    ``int`` (never a bool) or ``float`` (an integer or float that a float
    holds finitely), returned as a Python one, ``str``, ``[kind]`` (a list
    or tuple of any length) or ``(kind, ...)`` (one entry per kind),
    returned as a tuple; only an entry that raises has its name built."""
    if kind is int:
        ok, want = isinstance(value, (int, np.integer)), "an integer"
    elif kind is float:
        ok, want = (math.isfinite(value) if isinstance(value, (float, np.floating))
                    else isinstance(value, (int, np.integer))
                    and abs(value) <= sys.float_info.max), "a finite number"
    elif kind is str:
        ok, want = isinstance(value, str), "a string"
    else:
        if isinstance(value, (list, tuple)) and (isinstance(kind, list)
                                                 or len(value) == len(kind)):
            kinds = kind * len(value) if isinstance(kind, list) else kind
            try:
                return tuple(map(_value, value, kinds, [name] * len(value)))
            except ValueError:
                for i, (entry, each) in enumerate(zip(value, kinds)):
                    _value(entry, each, f"{name}[{i}]")
        ok, want = False, ("a list" if isinstance(kind, list)
                           else f"a list of {len(kind)} entries")
    if ok and not isinstance(value, bool):
        return kind(value) if kind is float or kind is int else value
    raise ValueError(f"{name} must be {want}, not {value!r}")


# an integer's types, for a hot loop's check: int or a numpy integer, no bool
_INTEGER_TYPES = frozenset([int, *(np.dtype(c).type
                                   for c in np.typecodes["AllInteger"])])


def _at_least(value, kind, low, name: str):
    """``value`` checked as ``kind`` by ``_value``, then as ``>= low``."""
    checked = _value(value, kind, name)
    if checked >= low:
        return checked
    raise ValueError(f"{name} must be >= {low}, not {value!r}")


def _positive(value, name: str) -> float:
    """``value`` checked as a float by ``_value``, then as ``> 0``."""
    checked = _value(value, float, name)
    if checked > 0:
        return checked
    raise ValueError(f"{name} must be finite and > 0, not {value!r}")


def _names(ids, name: str) -> tuple[str, ...]:
    """``ids`` checked as ``[str]`` by ``_value``, then as distinct."""
    ids = _value(ids, [str], name)
    if len(set(ids)) == len(ids):
        return ids
    raise ValueError(f"{name} must be unique")


# Each field annotation of the value dataclasses: the _value kind it names,
# or None for a field its class checks itself.
_KINDS = {"int": int, "float": float, "str": str,
          "tuple[float, float]": (float, float), "tuple[int, ...]": [int],
          "tuple[float, ...]": [float], "tuple[str, ...]": [str],
          "np.ndarray": None, "tuple[Net, ...]": None,
          "tuple[NonlinearUnit, ...]": None}


def _check_fields(obj, **rules) -> None:
    """Check each field of the frozen dataclass ``obj`` as the kind its
    annotation names and by its rule in ``rules``, if it has one: a lower
    bound (``_at_least``), ``_positive`` or ``_names``, called as
    ``rule(value, name)``.  Store what the check returns: a float field
    holds a float, a list field a tuple.  A field of kind None is left to
    its class to check, and kept as it is."""
    for f in fields(obj):
        kind, rule = _KINDS[f.type], rules.get(f.name)
        if kind is not None:
            value = getattr(obj, f.name)
            object.__setattr__(obj, f.name, (
                _value(value, kind, f.name) if rule is None
                else rule(value, f.name) if callable(rule)
                else _at_least(value, kind, rule, f.name)))


def _count_dtype(period_cycles: int) -> np.dtype:
    """The narrowest unsigned dtype that holds every count in
    [0, period_cycles]; a period past the uint64 range needs no more than
    uint64, as no integer array holds a larger count."""
    return np.min_scalar_type(min(period_cycles, np.iinfo(np.uint64).max))


@dataclass(frozen=True)
class Dataset:
    """Activity counts labelled with their true dynamic power.

    features holds the counts in the narrowest unsigned dtype that holds
    period_cycles (uint16 for a 300-cycle period): every count is checked
    to lie in [0, period_cycles] before it is cast, so none can wrap.
    """

    features: np.ndarray  # (n_samples, n_features) integer counts
    powers: np.ndarray  # (n_samples,) watts
    feature_names: tuple[str, ...]
    period_cycles: int
    clock_freq: float

    def __post_init__(self) -> None:
        _check_fields(self, feature_names=_names, period_cycles=1,
                      clock_freq=_positive)
        f, p = self.features, self.powers
        if f.ndim != 2 or p.ndim != 1 or f.shape[0] != p.shape[0]:
            raise ValueError("features must be (n, F) with matching powers (n,)")
        if f.shape[1] != len(self.feature_names):
            raise ValueError("feature_names must match feature columns")
        if not np.issubdtype(f.dtype, np.integer):
            raise ValueError(f"activity counts must be integers, not {f.dtype}")
        if not np.isfinite(p).all():
            raise ValueError("true dynamic power must be finite")
        if f.size:
            if f.min() < 0 or f.max() > self.period_cycles:
                raise ValueError("activity counts must lie in [0, period_cycles]")
            if p.min() < 0:
                raise ValueError("true dynamic powers must all be >= 0")
        object.__setattr__(self, "features", f.astype(
            _count_dtype(self.period_cycles), copy=False))

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def take(self, rows) -> "Dataset":
        rows = np.asarray(rows)
        if rows.ndim != 1 or rows.size and not (
                np.issubdtype(rows.dtype, np.integer)
                and rows.min() >= 0 and rows.max() < len(self)):
            raise ValueError(f"rows must be a list of indices in "
                             f"[0, {len(self)})")
        rows = rows.astype(np.intp)
        return Dataset(self.features[rows], self.powers[rows],
                       self.feature_names, self.period_cycles, self.clock_freq)

    def select_features(self, names) -> "Dataset":
        pos = {n: i for i, n in enumerate(self.feature_names)}
        try:
            cols = [pos[n] for n in names]
        except KeyError as e:
            raise ValueError(f"unknown feature name: {e.args[0]!r}") from None
        return Dataset(self.features[:, cols], self.powers,
                       names, self.period_cycles, self.clock_freq)


def generate_design(spec: DesignSpec) -> SyntheticDesign:
    """Draw a random design. Deterministic given spec.seed."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_linear_nets
    width = max(3, len(str(max(n - 1, 0))))
    ids = tuple(f"net_{i:0{width}d}" for i in range(n))
    cmin, cmax = spec.capacitance_range
    caps = rng.uniform(cmin, cmax, size=n)

    n_groups = min(spec.correlation_groups, n) if n else 1
    group_of = np.empty(n, dtype=np.intp)
    group_of[rng.permutation(n)] = np.arange(n) % n_groups
    nets = tuple(Net(ids[i], float(caps[i]), int(group_of[i])) for i in range(n))

    # Per-unit budget sized against the full-activity capacitive power so
    # nonlinear_strength stays dimensionless.
    mean_cap = 0.5 * (cmin + cmax)
    unit_scale = (spec.nonlinear_strength * spec.vdd ** 2 * spec.clock_freq
                  * mean_cap * max(n, 1) / max(spec.n_nonlinear_units, 1))
    units = []
    if spec.n_nonlinear_units:
        # All units of a design sit between one shared pair of groups.
        shared = rng.choice(n_groups, size=min(2, n_groups), replace=False)
        pool = [i for i in range(n) if group_of[i] in shared]
        for _ in range(spec.n_nonlinear_units):
            k = min(len(pool), int(rng.integers(8, 17)))
            chosen = rng.choice(pool, size=k, replace=False)
            coeff = float(unit_scale * rng.uniform(0.5, 1.5))
            units.append(NonlinearUnit(
                tuple(ids[int(i)] for i in sorted(chosen)), coeff))

    return SyntheticDesign(nets, tuple(units), spec.vdd, spec.clock_freq,
                           spec.static_power)


def _draw_rates(rng: np.random.Generator, shape) -> np.ndarray:
    """Per-group toggle rates: a regime mode plus uniform jitter."""
    modes = np.asarray(RATE_MODES)[rng.integers(0, len(RATE_MODES), size=shape)]
    return modes + rng.uniform(-RATE_JITTER, RATE_JITTER, size=shape)


def activity(trace: ToggleTrace, sig: str, t_start: int, t_end: int) -> int:
    """Positive-edge count of ``sig`` over cycles (t_start, t_end]."""
    _at_least(t_end, int, _at_least(t_start, int, 0, "t_start"), "t_end")
    if t_end > trace.n_cycles:
        raise ValueError(f"t_end must not exceed n_cycles {trace.n_cycles}")
    s = trace.cumulative_counts(sig)
    return int(s[t_end] - s[t_start])


def _dynamic_power_batch(design: SyntheticDesign, counts: np.ndarray,
                         period_cycles: int) -> np.ndarray:
    alphas = np.divide(counts, period_cycles, dtype=np.float64)
    per_net = design.capacitance_array() * design.vdd ** 2 * design.clock_freq
    p = alphas @ per_net
    for unit, idx in zip(design.nonlinear_units, design.unit_index_arrays()):
        ubar = alphas[:, idx].mean(axis=1)
        p = p + unit.coefficient * ubar * ubar
    return p


def dynamic_power(design: SyntheticDesign, activities, period_cycles: int) -> float:
    """Exact dynamic power of one period, excluding static power."""
    a = np.asarray(activities, dtype=np.float64)
    if a.shape != (design.n_nets,):
        raise ValueError(f"expected {design.n_nets} activities, got shape {a.shape}")
    _at_least(period_cycles, int, 1, "period_cycles")
    if a.size and (a.min() < 0 or a.max() > period_cycles):
        raise ValueError("activities must lie in [0, period_cycles]")
    return float(_dynamic_power_batch(design, a[None, :], period_cycles)[0])


def simulate_dataset(design: SyntheticDesign, n_samples: int,
                     period_cycles: int, seed: int) -> Dataset:
    """Synthesize per-period activity features labeled with true power.

    Each period draws one toggle rate per correlation group; each net's edge
    count is then binomial over the period's pulse slots at its group's rate.
    Deterministic given seed.
    """
    _at_least(n_samples, int, 1, "n_samples")
    _at_least(period_cycles, int, 1, "period_cycles")
    rng = np.random.default_rng(_value(seed, int, "seed"))
    group = design.group_array()
    n_groups = int(group.max()) + 1 if group.size else 1
    half = period_cycles // 2
    rates = _draw_rates(rng, (n_samples, n_groups))
    counts = np.empty((n_samples, design.n_nets),
                      dtype=_count_dtype(period_cycles))  # each <= half
    # drawn in blocks of rows, in order: the draws of one call over all
    # rows, without its n x F int64 result or float64 rates
    step = max(1, 2**16 // max(design.n_nets, 1))
    for lo in range(0, n_samples, step):
        counts[lo:lo + step] = rng.binomial(half, rates[lo:lo + step, group])
    powers = _dynamic_power_batch(design, counts, period_cycles)
    return Dataset(counts, powers, design.net_ids, period_cycles,
                   design.clock_freq)


def synthesize_trace(design: SyntheticDesign, n_periods: int,
                     period_cycles: int, seed: int) -> ToggleTrace:
    """Cycle-level level trace matching the simulate_dataset stimulus model.

    Pulses occupy the odd cycle of each two-cycle slot, so every pulse is a
    clean rising edge and period boundaries never hide or fabricate edges.
    """
    _at_least(n_periods, int, 1, "n_periods")
    _at_least(period_cycles, int, 1, "period_cycles")
    rng = np.random.default_rng(_value(seed, int, "seed"))
    group = design.group_array()
    n_groups = int(group.max()) + 1 if group.size else 1
    half = period_cycles // 2
    levels = np.zeros((design.n_nets, n_periods * period_cycles), dtype=np.uint8)
    for p in range(n_periods):
        rates = _draw_rates(rng, n_groups)
        # each pulse written straight into its odd cycle of period p
        np.less(rng.random((design.n_nets, half)), rates[group][:, None],
                out=levels[:, p * period_cycles + 1:(p + 1) * period_cycles:2],
                casting="unsafe")
    return ToggleTrace(design.net_ids, levels)


def rank_signals_by_activity(dataset: Dataset, top_m: int = 100) -> list[str]:
    """Signal ids sorted by total activity, descending; ties keep dataset order."""
    if not (1 <= _value(top_m, int, "top_m") <= dataset.n_features):
        raise ValueError("top_m must lie in [1, n_features]")
    totals = dataset.features.sum(axis=0)
    order = sorted(range(dataset.n_features), key=lambda j: (-int(totals[j]), j))
    return [dataset.feature_names[j] for j in order[:top_m]]


def compose_datasets(parts: list[tuple[str, Dataset]]) -> Dataset:
    """Additive composite of sub-designs: features concatenated under
    ``prefix.name`` columns, powers summed sample-wise."""
    if not parts:
        raise ValueError("need at least one part")
    n = len(parts[0][1])
    period = parts[0][1].period_cycles
    freq = parts[0][1].clock_freq
    for _, ds in parts:
        if len(ds) != n or ds.period_cycles != period or ds.clock_freq != freq:
            raise ValueError("parts must share sample count, period and clock")
    names = tuple(f"{prefix}.{f}" for prefix, ds in parts
                  for f in ds.feature_names)
    features = np.hstack([ds.features for _, ds in parts])
    powers = np.sum([ds.powers for _, ds in parts], axis=0)
    return Dataset(features, powers, names, period, freq)


def hybrid_design_spec(seed: int = 1) -> DesignSpec:
    """Documented default hybrid workload: capacitive nets plus DSP-like
    units, sized for the 100-candidate feature-selection protocol."""
    return DesignSpec(n_linear_nets=120, n_nonlinear_units=3,
                      correlation_groups=3, seed=seed)


def linear_design_spec(seed: int = 2) -> DesignSpec:
    """Purely capacitive workload: power is exactly linear in activity."""
    return DesignSpec(n_linear_nets=60, n_nonlinear_units=0,
                      nonlinear_strength=0.0, correlation_groups=6, seed=seed)


# ---------------------------------------------------------------------------
# Persistence: designs as JSON, datasets as delimited text plus a JSON sidecar.
# Each format has a pure serialiser and parser; save_*/load_* file wrappers
# exist only for the formats that callers read or write as plain files.

def _json_doc(text: str | bytes, fmt: str | None, source) -> dict:
    """The JSON object in ``text``, whose "format" must be ``fmt`` unless
    that is None; anything else raises ValueError naming ``source``."""
    try:
        doc = json.loads(text)
    except ValueError as e:
        raise ValueError(f"{source}: not valid JSON ({e})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{source}: not a JSON object")
    if fmt is not None and doc.get("format") != fmt:
        raise ValueError(f"{source}: not a {fmt} document")
    return doc


def _json_text(doc: dict) -> str:
    """The one layout of every JSON artifact."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _table_text(header, rows) -> str:
    """The one layout of every table artifact: the header line, then one
    line per row, its cells comma-separated as ``str(cell)``."""
    return "".join(",".join(map(str, line)) + "\n" for line in (header, *rows))


def _cell(text: str, kind):
    """The ``kind`` whose ``str`` is ``text``, else ``text`` itself."""
    try:
        value = kind(text)
    except ValueError:
        return text
    return value if str(value) == text else text


def _table_rows(text: str | bytes, columns, rest, source) -> list[tuple]:
    """The rows of a table in ``_table_text``'s layout, as tuples of values.

    The header must begin with the names of ``columns``, pairs of a name and
    a ``_value`` kind; ``rest`` is the kind of every further column.  Each
    later line must hold one cell per header name, each cell the text
    ``str`` gives a value of its column's kind, an int or a finite float (so
    not ``" 1.5"``, ``"1_0"`` or ``"1e3"``); anything else raises ValueError
    naming ``source`` and the line."""
    try:
        lines = (text.decode() if isinstance(text, bytes) else text).split("\n")
    except UnicodeDecodeError as e:
        raise ValueError(f"{source}: {e}") from None
    if lines[-1] == "":  # the newline that ends the last line
        lines.pop()
    header = lines[0].split(",") if lines else []
    names = [name for name, _ in columns]
    if header[:len(names)] != names:
        raise ValueError(f"{source}, line 1: the header must begin with "
                         f"{','.join(names)!r}")
    kinds = [kind for _, kind in columns] + [rest] * (len(header) - len(names))
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{source}, line {lineno}: {len(cells)} cells, "
                             f"header has {len(header)}")
        rows.append(tuple(
            _value(_cell(cell, kind), kind, f"{source}, line {lineno}: {name}")
            for cell, kind, name in zip(cells, kinds, header)))
    return rows


def _field(doc: dict, key: str, kind, source):
    """``doc[key]`` checked as ``kind`` by ``_value``; a missing or bad
    field raises ValueError naming ``source`` and the field."""
    if key not in doc:
        raise ValueError(f"{source}: missing field {key!r}")
    return _value(doc[key], kind, f"{source}: field {key!r}")


def design_text(design: SyntheticDesign) -> str:
    doc = {
        "format": "powertree-design-v1",
        "vdd_v": design.vdd,
        "clock_freq_hz": design.clock_freq,
        "static_power_w": design.static_power,
        "nets": [[n.id, n.capacitance, n.group] for n in design.nets],
        "nonlinear_units": [[list(u.inputs), u.coefficient]
                            for u in design.nonlinear_units],
    }
    return _json_text(doc)


def parse_design(text: str | bytes, source="design") -> SyntheticDesign:
    doc = _json_doc(text, "powertree-design-v1", source)
    nets = _field(doc, "nets", [(str, float, int)], source)
    units = _field(doc, "nonlinear_units", [([str], float)], source)
    scalars = [_field(doc, k, float, source)
               for k in ("vdd_v", "clock_freq_hz", "static_power_w")]
    try:
        return SyntheticDesign(tuple(Net(*n) for n in nets),
                               tuple(NonlinearUnit(*u) for u in units),
                               *scalars)
    except ValueError as e:
        raise ValueError(f"{source}: {e}") from None


# The dataset text is written and parsed in blocks of about this many cells:
# enough to amortise each numpy call, few enough to keep each block's
# temporaries near a megabyte.
_BLOCK_CELLS = 1 << 16
# The widest feature cell the reader accepts; 18 digits always fit in int64.
_MAX_DIGITS = 18


def _row_blocks(n_rows: int, cells_per_row: int) -> list[range]:
    step = max(1, _BLOCK_CELLS // cells_per_row)
    return [range(r, min(r + step, n_rows)) for r in range(0, n_rows, step)]


class _Cells(dict):
    """Count -> its cell text ``"{count},"``, made on first use."""

    def __missing__(self, count: int) -> str:
        cell = self[count] = f"{count},"
        return cell


def dataset_csv_text(dataset: Dataset) -> str:
    """The header line, then per sample its counts in decimal and its power
    as ``repr(float)``, comma-separated; every line ends in a newline, and a
    sample without features is its power cell alone.  A row joins cached
    cells, so ``str`` runs once per distinct count."""
    cells = _Cells()
    pieces = [",".join(list(dataset.feature_names) + ["power_w"]) + "\n"]
    for rows in _row_blocks(len(dataset), dataset.n_features + 1):
        block = slice(rows.start, rows.stop)
        pieces.extend(
            "".join(map(cells.__getitem__, counts)) + f"{power!r}\n"
            for counts, power in zip(
                dataset.features[block].tolist(),
                dataset.powers[block].astype(np.float64).tolist()))
    return "".join(pieces)


def dataset_meta_text(dataset: Dataset, vdd: float | None = None) -> str:
    meta = {
        "period_cycles": dataset.period_cycles,
        "clock_freq_hz": dataset.clock_freq,
    }
    if vdd is not None:
        meta["vdd_v"] = vdd
    return _json_text(meta)


def _line_fault(line: bytes, n_cells: int) -> str | None:
    """How one data line breaks the dataset grammar, or None if it keeps it."""
    if not line:
        return "blank line"
    if b"\r" in line:
        return "carriage return in the line"
    cells = line.split(b",")
    if len(cells) != n_cells:
        return f"{len(cells)} cells, header has {n_cells}"
    for j, cell in enumerate(cells[:-1], 1):
        if not (cell.isdigit() and len(cell) <= _MAX_DIGITS):
            return (f"cell {j} is not 1 to {_MAX_DIGITS} ASCII digits: "
                    f"{cell.decode(errors='replace')!r}")
    try:
        float(cells[-1])
    except ValueError as e:
        return str(e)
    return None


def _parse_rows(data: bytes, buf: np.ndarray, starts: np.ndarray,
                stops: np.ndarray, n_features: int):
    """(counts, powers) of the rows spanning [starts[i], stops[i]) of data,
    or None if one of them breaks the grammar.

    Comma positions give each row's cell count and each cell's bounds; the
    counts are built from one digit gather per digit place."""
    first, end = int(starts[0]), int(stops[-1])
    commas = np.flatnonzero(buf[first:end] == ord(",")) + first
    per_row = np.diff(np.searchsorted(commas, stops), prepend=0)
    if (per_row != n_features).any() or data.find(b"\r", first, end) >= 0:
        return None
    # cell j of a row lies between separators j and j + 1
    sep = np.empty((len(starts), n_features + 2), np.int64)
    sep[:, 0] = starts - 1
    sep[:, 1:-1] = commas.reshape(len(starts), n_features)
    sep[:, -1] = stops
    lo, hi = sep[:, :-2] + 1, sep[:, 1:-1]
    width = hi - lo
    if ((width < 1) | (width > _MAX_DIGITS)).any():
        return None
    counts = np.zeros(width.shape, np.int64)
    for k in range(int(width.max(initial=0))):
        # digit k from the left; a shorter cell re-reads its last digit
        digit = buf[np.minimum(lo + k, hi - 1)] - np.uint8(ord("0"))
        if (digit > 9).any():
            return None
        counts = np.where(k < width, counts * 10 + digit, counts)
    try:
        powers = [float(data[a:b]) for a, b in zip((sep[:, -2] + 1).tolist(),
                                                   stops.tolist())]
    except ValueError:
        return None
    return counts, powers


def parse_dataset(csv_text: str | bytes, meta_text: str | bytes,
                  source="dataset") -> Dataset:
    """Parse the text ``dataset_csv_text`` writes.

    The grammar: a header line of names ending in ``power_w``, then per row
    one cell of 1 to 18 ASCII digits per name and a power cell ``float()``
    reads.  Every line ends in ``\\n`` (the last one's is optional); a blank
    line or a ``\\r`` is an error.  Rows are checked and converted in
    blocks; a block that fails is walked line by line only to name its
    first bad line.  A block's counts are written straight into the
    Dataset's narrow dtype once none exceeds period_cycles.
    """
    meta = _json_doc(meta_text, None, f"{source} meta")
    period = _field(meta, "period_cycles", int, f"{source} meta")
    freq = _field(meta, "clock_freq_hz", float, f"{source} meta")
    data = csv_text.encode() if isinstance(csv_text, str) else csv_text
    if not data:
        raise ValueError(f"{source}: empty file")
    buf = np.frombuffer(data, np.uint8)
    # Line i spans [starts[i], stops[i]); line 0 is the header.
    stops = np.flatnonzero(buf == ord("\n"))
    if not data.endswith(b"\n"):
        stops = np.append(stops, len(data))
    starts = np.concatenate(([0], stops[:-1] + 1))
    header = data[:stops[0]]
    if b"\r" in header:
        raise ValueError(f"{source}, line 1: carriage return in the line")
    try:
        names = header.decode().split(",")
    except UnicodeDecodeError as e:
        raise ValueError(f"{source}, line 1: {e}") from None
    if names[-1] != "power_w":
        raise ValueError(f"{source}: last column must be power_w")
    n_features = len(names) - 1
    try:
        # the meta and the header are checked before any row is read
        empty = Dataset(np.empty((0, n_features), np.uint8), np.empty(0),
                        names[:-1], period, freq)
    except ValueError as e:
        raise ValueError(f"{source}: {e}") from None
    starts, stops = starts[1:], stops[1:]
    features = np.empty((len(stops), n_features), empty.features.dtype)
    powers = np.empty(len(stops), dtype=np.float64)
    for rows in _row_blocks(len(stops), n_features + 1):
        block = slice(rows.start, rows.stop)
        parsed = _parse_rows(data, buf, starts[block], stops[block],
                             n_features)
        if parsed is None:
            for r in rows:
                fault = _line_fault(data[starts[r]:stops[r]], len(names))
                if fault:
                    raise ValueError(f"{source}, line {r + 2}: {fault}")
        counts, powers[block] = parsed
        # checked before the narrow store, which would wrap a larger count
        if counts.max(initial=0) > period:
            raise ValueError(f"{source}: activity counts must lie in "
                             "[0, period_cycles]")
        features[block] = counts
    try:
        return replace(empty, features=features, powers=powers)
    except ValueError as e:
        raise ValueError(f"{source}: {e}") from None


def save_dataset(dataset: Dataset, csv_path: str | Path,
                 meta_path: str | Path | None = None,
                 vdd: float | None = None) -> None:
    csv_path = Path(csv_path)
    csv_path.write_text(dataset_csv_text(dataset))
    if meta_path is None:
        meta_path = csv_path.with_suffix(csv_path.suffix + ".meta.json")
    Path(meta_path).write_text(dataset_meta_text(dataset, vdd))


def load_dataset(csv_path: str | Path,
                 meta_path: str | Path | None = None) -> Dataset:
    csv_path = Path(csv_path)
    if meta_path is None:
        meta_path = csv_path.with_suffix(csv_path.suffix + ".meta.json")
    return parse_dataset(csv_path.read_bytes(), Path(meta_path).read_text(),
                         csv_path)
