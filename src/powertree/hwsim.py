"""Bit-exact model of the in-fabric power monitor.

Three pieces, mirroring the hardware wrapper:

* positive-edge activity counters, one per monitored signal, cleared at
  every estimation-period boundary;
* a tree structure memory holding one 64-bit word per node;
* a four-state engine (idle, node reading, stalling, result outputting)
  that walks the memory once per period using unsigned integer compares
  only.  A leaf at depth d costs exactly 2*d + 1 cycles: two cycles per
  decision level (synchronous memory read plus stall) and one to present
  the result.

``_LAYOUT`` places the fields of a node word; bit 63 is the leaf flag.
Thresholds are stored floored; because activity counts are integers and
training thresholds are midpoints of observed counts, `x <= floor(t)` routes
every integer x exactly as `x <= t` does.  Leaf values round to the nearest
milliwatt.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import DecisionTree, _preorder
from .workload import _INTEGER_TYPES, ToggleTrace, _binary, _check_fields

__all__ = [
    "LEAF_FLAG_BIT",
    "FEATURE_BITS",
    "THRESHOLD_BITS",
    "CHILD_BITS",
    "VALUE_BITS",
    "CounterState",
    "MemNode",
    "TreeMemoryImage",
    "MonitorConfig",
    "MalformedImageError",
    "node_encode",
    "node_decode",
    "quantize",
    "dequantize_mw",
    "counter_step",
    "engine_invoke",
    "period_features",
    "run_monitor",
    "image_bytes",
    "parse_image",
    "save_image",
    "load_image",
    "fsm_trace_text",
]

LEAF_FLAG_BIT = 63
FEATURE_BITS = 15
THRESHOLD_BITS = 20
CHILD_BITS = 14
VALUE_BITS = 16

# (shift, bits) of each MemNode field in the node word, in MemNode's
# order: a decision word holds feature, threshold (as wide as an activity
# counter), left and right; a leaf word sets is_leaf and holds value, in
# leaf_unit milliwatts per LSB
_LAYOUT = {"is_leaf": (LEAF_FLAG_BIT, 1), "feature": (48, FEATURE_BITS),
           "threshold": (28, THRESHOLD_BITS), "left": (14, CHILD_BITS),
           "right": (0, CHILD_BITS), "value": (0, VALUE_BITS)}

IMAGE_MAGIC = b"PTMI"
_HEADER = struct.Struct("<4sIII")  # magic, n_nodes, max_depth, leaf_unit in uW


@dataclass(frozen=True)
class CounterState:
    """One activity counter plus its edge-detector register."""

    width: int = 20
    value: int = 0
    last_level: int = 0

    def __post_init__(self) -> None:
        _check_fields(self)
        if not (1 <= self.width <= 64):
            raise ValueError("width must lie in [1, 64]")
        if not (0 <= self.value < (1 << self.width)):
            raise ValueError("value out of counter range")
        if self.last_level not in (0, 1):
            raise ValueError("last_level must be 0 or 1")


def counter_step(state: CounterState, level: int) -> CounterState:
    """One clock: count a positive edge (previous level 0, current 1)."""
    if level not in (0, 1):
        raise ValueError("level must be 0 or 1")
    value = state.value
    if state.last_level == 0 and level == 1:
        value += 1
        if value >= (1 << state.width):
            raise OverflowError("activity counter overflow")
    return CounterState(state.width, value, level)


@dataclass(frozen=True)
class MemNode:
    """Decoded node word."""

    is_leaf: bool
    feature: int = 0
    threshold: int = 0
    left: int = 0
    right: int = 0
    value: int = 0  # leaf only, in leaf_unit LSBs


def _pack(**fields) -> np.ndarray:
    """uint64 node words from the named fields, each one number or an array
    of one per word; a field not named packs as 0.  A value outside its
    field, checked before any cast, raises ValueError naming the field."""
    words = np.uint64(0)
    for name, values in fields.items():
        shift, bits = _LAYOUT[name]
        v = np.asarray(values)
        fits = (v >= 0) & (v < 1 << bits)
        if not np.all(fits):
            raise ValueError(f"{name}={v.flat[np.argmin(fits)]} does not fit "
                             f"in {bits} bits")
        words = words | v.astype(np.uint64) << shift
    return words


def _unpack(words) -> tuple:
    """Every MemNode field, in MemNode's order, of a word (an int) or of
    each word (a uint64 array), whatever the word's kind."""
    return tuple((words >> shift) & ((1 << bits) - 1)
                 for shift, bits in _LAYOUT.values())


def node_encode(node: MemNode) -> int:
    if node.is_leaf:
        return int(_pack(is_leaf=1, value=node.value))
    return int(_pack(feature=node.feature, threshold=node.threshold,
                     left=node.left, right=node.right))


def node_decode(word: int) -> MemNode:
    if not (0 <= word < (1 << 64)):
        raise ValueError("word must be an unsigned 64-bit value")
    leaf, feature, threshold, left, right, value = _unpack(word)
    if leaf:
        return MemNode(True, value=value)
    return MemNode(False, feature, threshold, left, right)


class MalformedImageError(ValueError):
    """Image violates the tree-memory invariants."""


@dataclass(frozen=True, eq=False)
class TreeMemoryImage:
    """Tree structure memory: word 0 is the root.  Building one proves, on
    a read-only copy of words, that they form a tree whose deepest leaf is
    at max_depth, so every engine walk ends within max_depth decisions."""

    words: np.ndarray  # uint64, breadth-first
    n_nodes: int
    max_depth: int
    leaf_unit: float = 1.0  # milliwatts per LSB

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.n_nodes < 1 or self.words.shape != (self.n_nodes,):
            raise ValueError("words must hold n_nodes >= 1 entries")
        if self.words.dtype != np.uint64:
            raise ValueError(f"words must be uint64, not {self.words.dtype}")
        unit = self.leaf_unit  # image_bytes stores it as u32 microwatts
        uw = round(min(abs(unit), 1 << 32) * 1000)
        if not (1 <= uw < 1 << 32 and uw / 1000 == unit):
            raise ValueError(f"leaf_unit must be a whole number of microwatts "
                             f"in [1, 2**32), not {unit!r} mW")
        object.__setattr__(self, "words", self.words.copy())
        self.words.flags.writeable = False
        # the fields the engine walks, always decoded from the words
        object.__setattr__(self, "_fields",
                           tuple(v.tolist() for v in _unpack(self.words)))
        leaf, _, _, left, right, _ = self._fields
        try:
            depth = max(d for _, d in _preorder([
                () if f else (a, b) for f, a, b in zip(leaf, left, right)]))
        except ValueError as e:
            raise MalformedImageError(str(e)) from None
        if depth != self.max_depth:
            raise MalformedImageError(f"deepest leaf at depth {depth}, but "
                                      f"max_depth is {self.max_depth}")


def quantize(tree: DecisionTree) -> TreeMemoryImage:
    """Encode a fitted tree as integer node words, breadth-first.

    Requires non-negative leaf values, and each field to fit the node word:
    leaf values in 16-bit milliwatts, thresholds floored to 20 bits, the
    node count within the 14-bit child address.
    """
    n = tree.left.size
    if n > (1 << CHILD_BITS):
        raise ValueError("tree exceeds the child-address capacity")
    # breadth-first is level by level, and each level of a preorder tree
    # is already listed left to right
    order = np.argsort(tree.node_depth, kind="stable")
    address = np.empty(n, dtype=np.intp)
    address[order] = np.arange(n)
    leaf = tree.left[order] < 0
    watts = tree.value[order[leaf]]
    if (watts < 0).any():  # in (-0.0005, 0) W it would round to 0 mW
        raise ValueError("leaf values must all be >= 0")
    node = order[~leaf]
    words = np.empty(n, dtype=np.uint64)
    words[leaf] = _pack(is_leaf=1, value=np.floor(watts * 1000.0 + 0.5))
    words[~leaf] = _pack(feature=tree.feature[node],
                         threshold=np.floor(tree.threshold[node]),
                         left=address[tree.left[node]],
                         right=address[tree.right[node]])
    return TreeMemoryImage(words, n, tree.depth)


def dequantize_mw(image: TreeMemoryImage, value: int) -> float:
    """Stored leaf LSBs back to milliwatts."""
    return value * image.leaf_unit


@dataclass(frozen=True)
class MonitorConfig:
    n_counters: int
    estimation_period: int = 300
    counter_width: int = 20

    def __post_init__(self) -> None:
        _check_fields(self, n_counters=1, estimation_period=1)
        if not (1 <= self.counter_width <= 64):
            raise ValueError("counter_width must lie in [1, 64]")
        if self.estimation_period > (1 << self.counter_width):
            raise ValueError("estimation_period must not exceed 2^counter_width")


def engine_invoke(image: TreeMemoryImage,
                  features) -> tuple[int, int, list[str]]:
    """Walk the structure memory once; integer compares only.

    features holds one unsigned int or numpy integer per feature address;
    a float, bool or string raises ValueError.  Returns (leaf value in
    LSBs, cycles consumed, FSM state trace).  The engine reads and stalls
    once per decision, so a leaf at depth d traces I (N S)^d R and costs
    2*d + 1 cycles, at most 2*max_depth + 1.
    """
    buf = list(features)
    if not set(map(type, buf)) <= _INTEGER_TYPES:
        raise ValueError("features must be integers")
    if min(buf, default=0) < 0:
        raise ValueError("features must be unsigned")
    leaf, feature, threshold, left, right, value = image._fields
    addr = decisions = 0
    while not leaf[addr]:
        j = feature[addr]
        if j >= len(buf):
            raise ValueError(f"feature address {j} not covered by "
                             f"the {len(buf)}-entry feature buffer")
        addr = left[addr] if buf[j] <= threshold[addr] else right[addr]
        decisions += 1
    return value[addr], 2 * decisions + 1, ["I", *("N", "S") * decisions, "R"]


def period_features(trace: ToggleTrace,
                    cfg: MonitorConfig) -> list[tuple[int, ...]]:
    """The feature controller's view: per period, the counter values that
    get buffered for the engine.

    Counters and their edge-detector registers are both cleared at period
    boundaries, so period measurements are mutually independent: a
    period's count is its rising edges plus one when it opens at level 1.
    The trailing cycles that do not fill a period are dropped.  A period of
    P cycles holds at most ceil(P / 2) such edges, and MonitorConfig keeps
    P <= 2**counter_width, so no counter can overflow.

    The levels used are checked to be 0/1 again, as ToggleTrace checks
    them (at most one reduction for bool and integer dtypes, the
    elementwise test otherwise), since an array can change in place after
    it was built.
    """
    if trace.n_signals != cfg.n_counters:
        raise ValueError("trace must provide one signal per counter")
    period = cfg.estimation_period
    n_periods = trace.n_cycles // period
    if n_periods == 0:
        raise ValueError("trace shorter than one estimation period")
    used = trace.levels[:, :n_periods * period]
    if not _binary(used):
        raise ValueError("levels must be 0/1")
    # one-byte 0/1 levels read as bool without a copy
    lv = (used.view(bool) if used.dtype.itemsize == 1 else used.astype(bool)
          ).reshape(cfg.n_counters, n_periods, period)
    counts = (lv[..., 1:] & ~lv[..., :-1]).sum(axis=-1) + lv[..., 0]
    return [tuple(row) for row in counts.T.tolist()]


def run_monitor(trace: ToggleTrace, image: TreeMemoryImage,
                cfg: MonitorConfig) -> list[tuple[int, int, int, tuple]]:
    """Per estimation period: count edges, buffer features, invoke the
    engine, reset the counters.  Returns (period, estimate LSBs, cycles,
    features)."""
    return [(p, *engine_invoke(image, f)[:2], f)
            for p, f in enumerate(period_features(trace, cfg))]


def image_bytes(image: TreeMemoryImage) -> bytes:
    unit_uw = int(round(image.leaf_unit * 1000.0))
    header = _HEADER.pack(IMAGE_MAGIC, image.n_nodes, image.max_depth, unit_uw)
    return header + image.words.astype("<u8").tobytes()


def parse_image(raw: bytes, source="image") -> TreeMemoryImage:
    if len(raw) < _HEADER.size:
        raise ValueError(f"{source}: truncated image file")
    magic, n_nodes, max_depth, unit_uw = _HEADER.unpack_from(raw)
    if magic != IMAGE_MAGIC:
        raise ValueError(f"{source}: not a tree memory image")
    body = len(raw) - _HEADER.size
    if body != 8 * n_nodes:
        raise ValueError(f"{source}: body holds {body} bytes, header says "
                         f"{n_nodes} words")
    words = np.frombuffer(raw, dtype="<u8", offset=_HEADER.size)
    try:
        return TreeMemoryImage(words.astype(np.uint64), n_nodes, max_depth,
                               unit_uw / 1000.0)
    except ValueError as e:
        raise type(e)(f"{source}: {e}") from None


def save_image(image: TreeMemoryImage, path: str | Path) -> None:
    Path(path).write_bytes(image_bytes(image))


def load_image(path: str | Path) -> TreeMemoryImage:
    return parse_image(Path(path).read_bytes(), path)


def fsm_trace_text(trace: list[str]) -> str:
    """One state per line with its cycle index, for debug dumps."""
    return "\n".join(f"{i} {s}" for i, s in enumerate(trace)) + "\n"
