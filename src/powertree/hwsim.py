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

Node word layout (bit 63 is the leaf flag)::

    decision: [62:48] feature address   (15 bits)
              [47:28] threshold         (20 bits, matches counter width)
              [27:14] left child index  (14 bits)
              [13:0]  right child index (14 bits)
    leaf:     [15:0]  value             (16 bits, leaf_unit milliwatts/LSB)

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

from .model import DecisionTree
from .workload import ToggleTrace

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

_FEATURE_SHIFT = 48
_THRESHOLD_SHIFT = 28
_LEFT_SHIFT = 14
_FEATURE_MASK = (1 << FEATURE_BITS) - 1
_THRESHOLD_MASK = (1 << THRESHOLD_BITS) - 1
_CHILD_MASK = (1 << CHILD_BITS) - 1
_VALUE_MASK = (1 << VALUE_BITS) - 1

IMAGE_MAGIC = b"PTMI"
_HEADER = struct.Struct("<4sIII")  # magic, n_nodes, max_depth, leaf_unit in uW


@dataclass(frozen=True)
class CounterState:
    """One activity counter plus its edge-detector register."""

    width: int = 20
    value: int = 0
    last_level: int = 0

    def __post_init__(self) -> None:
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


def _check_field(name: str, value: int, bits: int) -> None:
    if not (0 <= value < (1 << bits)):
        raise ValueError(f"{name}={value} does not fit in {bits} bits")


def node_encode(node: MemNode) -> int:
    if node.is_leaf:
        _check_field("value", node.value, VALUE_BITS)
        return (1 << LEAF_FLAG_BIT) | node.value
    _check_field("feature", node.feature, FEATURE_BITS)
    _check_field("threshold", node.threshold, THRESHOLD_BITS)
    _check_field("left", node.left, CHILD_BITS)
    _check_field("right", node.right, CHILD_BITS)
    return ((node.feature << _FEATURE_SHIFT)
            | (node.threshold << _THRESHOLD_SHIFT)
            | (node.left << _LEFT_SHIFT)
            | node.right)


def node_decode(word: int) -> MemNode:
    if not (0 <= word < (1 << 64)):
        raise ValueError("word must be an unsigned 64-bit value")
    if word >> LEAF_FLAG_BIT:
        return MemNode(True, value=word & _VALUE_MASK)
    return MemNode(
        False,
        feature=(word >> _FEATURE_SHIFT) & _FEATURE_MASK,
        threshold=(word >> _THRESHOLD_SHIFT) & _THRESHOLD_MASK,
        left=(word >> _LEFT_SHIFT) & _CHILD_MASK,
        right=word & _CHILD_MASK,
    )


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
        if self.n_nodes < 1 or self.words.shape != (self.n_nodes,):
            raise ValueError("words must hold n_nodes >= 1 entries")
        if self.words.dtype != np.uint64:
            raise ValueError(f"words must be uint64, not {self.words.dtype}")
        if self.leaf_unit <= 0:
            raise ValueError("leaf_unit must be positive")
        object.__setattr__(self, "words", self.words.copy())
        self.words.flags.writeable = False
        words = self.words.tolist()
        reached = [True] + [False] * (self.n_nodes - 1)
        level, depth = [0], -1
        while level:  # breadth-first, one level per pass
            depth += 1
            level = [c for a in level if not words[a] >> LEAF_FLAG_BIT
                     for c in ((words[a] >> _LEFT_SHIFT) & _CHILD_MASK,
                               words[a] & _CHILD_MASK)]
            for c in level:
                if c >= self.n_nodes:
                    raise MalformedImageError(f"dangling child address {c}")
                if reached[c]:
                    raise MalformedImageError(f"node {c} reachable twice")
                reached[c] = True
        if not all(reached):
            raise MalformedImageError(
                f"unreachable node {reached.index(False)}")
        if depth != self.max_depth:
            raise MalformedImageError(f"deepest leaf at depth {depth}, but "
                                      f"max_depth is {self.max_depth}")


def quantize(tree: DecisionTree) -> TreeMemoryImage:
    """Encode a fitted tree as integer node words, breadth-first.

    Requires non-negative thresholds and leaf values; leaf values must fit
    the 16-bit milliwatt field, node count the 14-bit child address field.
    """
    n = tree.left.size
    if n > (1 << CHILD_BITS):
        raise ValueError("tree exceeds the child-address capacity")
    # breadth-first is level by level, and each level of a preorder tree
    # is already listed left to right
    order = np.argsort(tree.node_depth, kind="stable")
    address = np.empty(n, dtype=np.intp)
    address[order] = np.arange(n)
    value, feature, threshold, left, right = (a.tolist() for a in (
        tree.value, tree.feature, tree.threshold, tree.left, tree.right))
    words = np.zeros(n, dtype=np.uint64)
    for k, i in enumerate(order.tolist()):
        if left[i] < 0:
            if value[i] < 0:
                raise ValueError("leaf values must be >= 0")
            mw = np.floor(value[i] * 1000.0 + 0.5)
            if mw >= (1 << VALUE_BITS):
                raise ValueError(f"leaf value {value[i]} W exceeds the "
                                 "16-bit milliwatt range")
            words[k] = node_encode(MemNode(True, value=int(mw)))
        else:
            if threshold[i] < 0:
                raise ValueError("thresholds must be >= 0")
            thr = int(np.floor(threshold[i]))
            words[k] = node_encode(MemNode(
                False, feature=feature[i], threshold=thr,
                left=int(address[left[i]]), right=int(address[right[i]])))
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
        if self.n_counters < 1:
            raise ValueError("n_counters must be >= 1")
        if not (1 <= self.counter_width <= 64):
            raise ValueError("counter_width must lie in [1, 64]")
        if self.estimation_period < 1:
            raise ValueError("estimation_period must be >= 1")
        if self.estimation_period > (1 << self.counter_width):
            raise ValueError("estimation_period must not exceed 2^counter_width")


def engine_invoke(image: TreeMemoryImage,
                  features) -> tuple[int, int, list[str]]:
    """Walk the structure memory once; integer compares only.

    Returns (leaf value in LSBs, cycles consumed, FSM state trace).  The
    trace always matches I (N S)* R and a leaf at depth d costs 2*d + 1
    cycles, at most 2*max_depth + 1.
    """
    buf = tuple(int(v) for v in features)
    if any(v < 0 for v in buf):
        raise ValueError("features must be unsigned")
    words = image.words
    trace = ["I"]
    addr = decisions = 0
    while True:
        word = int(words[addr])
        if word >> LEAF_FLAG_BIT:
            trace.append("R")
            return word & _VALUE_MASK, 2 * decisions + 1, trace
        feature = (word >> _FEATURE_SHIFT) & _FEATURE_MASK
        if feature >= len(buf):
            raise ValueError(f"feature address {feature} not covered by "
                             f"the {len(buf)}-entry feature buffer")
        trace += ("N", "S")
        if buf[feature] <= (word >> _THRESHOLD_SHIFT) & _THRESHOLD_MASK:
            addr = (word >> _LEFT_SHIFT) & _CHILD_MASK
        else:
            addr = word & _CHILD_MASK
        decisions += 1


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
    """
    if trace.n_signals != cfg.n_counters:
        raise ValueError("trace must provide one signal per counter")
    period = cfg.estimation_period
    n_periods = trace.n_cycles // period
    if n_periods == 0:
        raise ValueError("trace shorter than one estimation period")
    used = trace.levels[:, :n_periods * period]
    # levels can change in place after ToggleTrace checked them
    if not ((used == 0) | (used == 1)).all():
        raise ValueError("levels must be 0/1")
    lv = used.astype(bool).reshape(cfg.n_counters, n_periods, period)
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
