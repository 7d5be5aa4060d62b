import ast
import json
import re
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import powertree as pt
from powertree import hwsim
from powertree.hwsim import (CHILD_BITS, FEATURE_BITS, LEAF_FLAG_BIT,
                             THRESHOLD_BITS, VALUE_BITS, MalformedImageError,
                             MemNode)
from powertree.workload import Dataset, ToggleTrace
from test_workload import level_arrays, old_binary


@dataclass(frozen=True)
class EngineState:
    fsm_state: str  # one of I, N, S, R
    current_node: int
    cycle_count: int
    feature_buffer: tuple[int, ...]


def oracle_engine_invoke(image, features):
    """The engine as it was before its walk decoded words inline: a MemNode
    and an EngineState per step, checking every child address and the step
    count itself.  Same contract as pt.engine_invoke on a built image; it
    also walks words no image can be built from."""
    buf = tuple(int(v) for v in features)
    if any(v < 0 for v in buf):
        raise ValueError("features must be unsigned")
    state = EngineState("I", 0, 0, buf)
    trace = ["I"]
    steps = 0
    while True:
        node = pt.node_decode(int(image.words[state.current_node]))
        if node.is_leaf:
            trace.append("R")
            state = EngineState("R", state.current_node,
                                state.cycle_count + 1, buf)
            return node.value, state.cycle_count, trace
        if node.feature >= len(buf):
            raise ValueError(f"feature address {node.feature} not covered by "
                             f"the {len(buf)}-entry feature buffer")
        trace.append("N")
        trace.append("S")
        target = node.left if buf[node.feature] <= node.threshold else node.right
        if not (0 <= target < image.n_nodes):
            raise MalformedImageError(f"dangling child address {target}")
        state = EngineState("S", target, state.cycle_count + 2, buf)
        steps += 1
        if steps > image.n_nodes:
            raise MalformedImageError("cycle detected in structure memory")


def oracle_period_features(levels, period, width):
    """Per full period, fold counter_step over every cycle of every signal,
    starting each period from a cleared counter and edge register."""
    n_sig, n_cycles = levels.shape
    out = []
    for p in range(n_cycles // period):
        row = []
        for s in range(n_sig):
            state = pt.CounterState(width)
            for t in range(p * period, (p + 1) * period):
                state = pt.counter_step(state, int(levels[s, t]))
            row.append(state.value)
        out.append(tuple(row))
    return out


def oracle_walk(image, features):
    """Independent reference: decode words and follow the tree, counting
    the depth of the leaf that is reached."""
    addr, depth = 0, 0
    while True:
        node = pt.node_decode(int(image.words[addr]))
        if node.is_leaf:
            return node.value, depth
        addr = node.left if int(features[node.feature]) <= node.threshold \
            else node.right
        depth += 1


def oracle_tree_depth(words):
    """Independent breadth-first walk from word 0: the depth of the deepest
    leaf, or None if a child address dangles, or a word is reached twice or
    never."""
    words = [int(w) for w in words]
    seen, level, depth = {0}, [0], 0
    while True:
        children = []
        for addr in level:
            node = pt.node_decode(words[addr])
            if not node.is_leaf:
                children += [node.left, node.right]
        if not children:
            return depth if len(seen) == len(words) else None
        for child in children:
            if child >= len(words) or child in seen:
                return None
            seen.add(child)
        level, depth = children, depth + 1


def random_image(rng, depth, n_features=6):
    """Random tree image of exactly this max depth, built word by word; the
    leftmost path (word index == level) always goes to the bottom."""
    words = []

    def build(level):
        idx = len(words)
        words.append(None)
        force_deep = level < depth and (idx == level or rng.random() < 0.6)
        if not force_deep:
            words[idx] = pt.node_encode(MemNode(
                True, value=int(rng.integers(0, 1 << VALUE_BITS))))
            return idx
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


def fitted_image(seed, depth):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 300, (400, 6))
    y = rng.uniform(0.5, 20.0, 400)
    names = tuple(f"f{j}" for j in range(6))
    ds = Dataset(X.astype(np.int64), y, names, 1000, 1e8)
    tree = pt.fit_tree(ds, pt.HyperParams(depth, 4, 2, 0.0))
    return pt.quantize(tree), tree


def leaf_tree(watts):
    """A one-leaf tree holding this power."""
    ds = Dataset(np.array([[0], [1]]), np.array([watts, watts]), ("f0",), 10,
                 1e8)
    return pt.fit_tree(ds, pt.HyperParams())


def split_tree(high):
    """One split between counts 0 and high, at threshold high / 2."""
    ds = Dataset(np.array([[0], [high]]), np.array([1.0, 2.0]), ("f0",),
                 high, 1e8)
    return pt.fit_tree(ds, pt.HyperParams(1, 2, 1, 0.0))


def edited_tree(tree, field, value):
    """The tree read back from its model.json with one field of its root
    set to value."""
    doc = json.loads(pt.tree_text(tree))
    doc["nodes"][0][field] = value
    return pt.parse_tree(json.dumps(doc), "model.json")


def chain_tree(n_decisions, feature=0):
    """A tree of n_decisions decisions on one feature, each with a leaf as
    its left child; in preorder decision, leaf, decision, leaf, ..., leaf,
    leaf."""
    n = 2 * n_decisions + 1
    idx = np.arange(n)
    decision = (idx % 2 == 0) & (idx < n - 1)
    return pt.DecisionTree(
        n_samples=np.full(n, 2), impurity=np.zeros(n), value=np.ones(n),
        node_depth=(idx + 1) // 2, feature=np.where(decision, feature, 0),
        threshold=np.where(decision, 0.5, 0.0), reduction=np.zeros(n),
        left=np.where(decision, idx + 1, -1),
        right=np.where(decision, idx + 2, -1), n_features=feature + 1,
        model_freq=1e8, feature_ids=tuple(f"f{j}" for j in range(feature + 1)))


class TestCounter:
    def test_hand_counted_sequence(self):
        state = pt.CounterState(width=20)
        for level in (0, 1, 0, 1, 1, 0):
            state = pt.counter_step(state, level)
        assert state.value == 2

    def test_constant_high_counts_once(self):
        state = pt.CounterState(width=20)
        for _ in range(50):
            state = pt.counter_step(state, 1)
        assert state.value == 1

    def test_count_bounded_by_cycles(self):
        rng = np.random.default_rng(0)
        state = pt.CounterState(width=20)
        n = 500
        for level in rng.integers(0, 2, n):
            state = pt.counter_step(state, int(level))
        assert state.value <= n

    def test_overflow_raises(self):
        state = pt.CounterState(width=2, value=3, last_level=0)
        with pytest.raises(OverflowError):
            pt.counter_step(state, 1)

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            pt.counter_step(pt.CounterState(), 2)

    @pytest.mark.parametrize("field, value", [
        ("width", 2.5), ("width", True), ("value", True), ("value", 1.0),
        ("last_level", True), ("last_level", 1.0)])
    def test_non_integer_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            pt.CounterState(**{field: value})


class TestNodeWords:
    def test_zero_leaf(self):
        word = pt.node_encode(MemNode(True, value=0))
        assert word >> 63 == 1
        assert word & 0xFFFF == 0

    def test_decision_round_trip(self):
        node = MemNode(False, feature=3, threshold=12, left=1, right=2)
        assert pt.node_decode(pt.node_encode(node)) == node

    def test_all_ones_boundary(self):
        node = MemNode(False, feature=(1 << FEATURE_BITS) - 1,
                       threshold=(1 << THRESHOLD_BITS) - 1,
                       left=(1 << CHILD_BITS) - 1,
                       right=(1 << CHILD_BITS) - 1)
        assert pt.node_decode(pt.node_encode(node)) == node
        leaf = MemNode(True, value=(1 << VALUE_BITS) - 1)
        assert pt.node_decode(pt.node_encode(leaf)) == leaf

    @given(st.integers(0, (1 << FEATURE_BITS) - 1),
           st.integers(0, (1 << THRESHOLD_BITS) - 1),
           st.integers(0, (1 << CHILD_BITS) - 1),
           st.integers(0, (1 << CHILD_BITS) - 1))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, feature, threshold, left, right):
        node = MemNode(False, feature=feature, threshold=threshold,
                       left=left, right=right)
        assert pt.node_decode(pt.node_encode(node)) == node

    @pytest.mark.parametrize("node", [
        MemNode(True, value=1 << VALUE_BITS),
        MemNode(False, feature=1 << FEATURE_BITS),
        MemNode(False, threshold=1 << THRESHOLD_BITS),
        MemNode(False, left=1 << CHILD_BITS),
        MemNode(False, right=-1),
        # checked before any cast to 64 bits, so no OverflowError
        MemNode(False, feature=2**70),
        MemNode(True, value=2**70),
    ])
    def test_field_overflow_rejected(self, node):
        with pytest.raises(ValueError, match="does not fit"):
            pt.node_encode(node)

    def test_layout_declared_once(self):
        # only _pack and _unpack shift a word or mask a field, both by the
        # _LAYOUT table; a 1 << n bound is no word shift
        def word_ops(tree):
            return {n.lineno for n in ast.walk(tree)
                    if isinstance(n, ast.BinOp) and (
                        isinstance(n.op, ast.RShift)
                        or isinstance(n.op, ast.LShift)
                        and getattr(n.left, "value", None) != 1
                        or isinstance(n.op, ast.BitAnd)
                        and ast.Constant in {type(n.left), type(n.right)})}

        tree = ast.parse(Path(hwsim.__file__).read_text())
        helpers = [f for f in tree.body
                   if getattr(f, "name", None) in ("_pack", "_unpack")]
        assert len(helpers) == 2 and all(map(word_ops, helpers))
        assert word_ops(tree) == set().union(*map(word_ops, helpers))


class TestQuantize:
    def test_floored_threshold_routes_integers_identically(self):
        # 12.7 stores as 12; integers cannot fall between 12 and 12.7
        image, tree = fitted_image(seed=0, depth=4)
        for threshold in tree.threshold[tree.left >= 0]:
            stored = int(np.floor(threshold))
            for x in (stored, stored + 1):
                assert (x <= threshold) == (x <= stored)

    def test_leaf_rounds_to_nearest_milliwatt(self):
        ds = Dataset(np.array([[0], [1]]), np.array([0.3142, 0.3142]),
                     ("f0",), 10, 1e8)
        tree = pt.fit_tree(ds, pt.HyperParams())
        image = pt.quantize(tree)
        node = pt.node_decode(int(image.words[0]))
        assert node.is_leaf and node.value == 314
        assert abs(pt.dequantize_mw(image, node.value) - 314.2) <= 0.5

    def test_image_matches_software_tree_on_random_vectors(self):
        rng = np.random.default_rng(1)
        image, tree = fitted_image(seed=1, depth=6)
        for _ in range(1000):
            x = rng.integers(0, 300, 6)
            value, _ = oracle_walk(image, x)
            soft = pt.predict_tree(tree, x)
            assert value == int(np.floor(soft * 1000.0 + 0.5))

    def test_oversized_leaf_rejected(self):
        ds = Dataset(np.array([[0], [1]]), np.array([70.0, 70.0]),
                     ("f0",), 10, 1e8)
        tree = pt.fit_tree(ds, pt.HyperParams())
        with pytest.raises(ValueError):
            pt.quantize(tree)

    @pytest.mark.parametrize("make, field", [
        (lambda: edited_tree(leaf_tree(1.0), "value", -1.0), "leaf value"),
        # rounds to 0 mW, yet is below 0 W
        (lambda: edited_tree(leaf_tree(1.0), "value", -0.0004), "leaf value"),
        (lambda: leaf_tree(65.5355), "value"),  # rounds to 2**16 mW
        (lambda: edited_tree(split_tree(2), "threshold", -0.5), "threshold"),
        (lambda: split_tree(1 << 21), "threshold"),  # threshold 2**20
        (lambda: chain_tree(1, feature=1 << FEATURE_BITS), "feature"),
        (lambda: chain_tree(1 << 13), "child-address"),  # 2**14 + 1 nodes
    ])
    def test_out_of_range_field_rejected(self, make, field):
        with pytest.raises(ValueError, match=field):
            pt.quantize(make())

    @pytest.mark.parametrize("make, field, largest", [
        (lambda: leaf_tree(0.0), "value", 0),
        (lambda: leaf_tree(65.5354), "value", (1 << VALUE_BITS) - 1),
        (lambda: split_tree((1 << 21) - 1), "threshold",
         (1 << THRESHOLD_BITS) - 1),
        (lambda: chain_tree(1, feature=(1 << FEATURE_BITS) - 1), "feature",
         (1 << FEATURE_BITS) - 1),
        # 2**14 - 1 nodes, the last word a right child
        (lambda: chain_tree((1 << 13) - 1), "right", (1 << CHILD_BITS) - 2),
    ])
    def test_boundary_fields_accepted(self, make, field, largest):
        image = pt.quantize(make())
        assert max(getattr(pt.node_decode(int(w)), field)
                   for w in image.words) == largest


class TestEngine:
    def test_single_leaf_costs_one_cycle(self):
        words = np.array([pt.node_encode(MemNode(True, value=42))],
                         dtype=np.uint64)
        image = pt.TreeMemoryImage(words, 1, 0)
        value, cycles, trace = pt.engine_invoke(image, [0])
        assert (value, cycles) == (42, 1)
        assert trace == ["I", "R"]

    @pytest.mark.parametrize("depth", [1, 3, 5])
    def test_cycles_follow_leaf_depth(self, depth):
        rng = np.random.default_rng(depth)
        image = random_image(rng, depth)
        assert oracle_tree_depth(image.words) == image.max_depth
        for _ in range(200):
            x = rng.integers(0, 1 << THRESHOLD_BITS, 6)
            value, cycles, trace = pt.engine_invoke(image, x)
            expect_value, leaf_depth = oracle_walk(image, x)
            assert value == expect_value
            assert cycles == 2 * leaf_depth + 1
            assert cycles <= 2 * image.max_depth + 1

    def test_trace_grammar(self):
        rng = np.random.default_rng(7)
        image = random_image(rng, 4)
        grammar = re.compile(r"^I(NS)*R$")
        for _ in range(100):
            x = rng.integers(0, 1 << THRESHOLD_BITS, 6)
            _, _, trace = pt.engine_invoke(image, x)
            assert grammar.match("".join(trace))

    def test_dangling_address_detected(self):
        words = np.array([pt.node_encode(MemNode(False, feature=0,
                                                 threshold=5, left=1,
                                                 right=9))], dtype=np.uint64)
        with pytest.raises(MalformedImageError,
                           match=re.escape("node 0: child index 1 outside "
                                           "[0, 1)")):
            pt.TreeMemoryImage(words, 1, 1)

    def test_missing_feature_rejected(self):
        image, _ = fitted_image(seed=3, depth=3)
        with pytest.raises(ValueError):
            pt.engine_invoke(image, [1])

    @pytest.mark.parametrize("bad", [
        lambda x: x + 0.7,
        lambda x: [str(v) for v in x],
        lambda x: [True] * len(x),
        lambda x: [*x[:-1].tolist(), np.True_],
    ], ids=["float", "str", "bool", "numpy bool"])
    def test_non_integer_features_rejected(self, bad):
        # each would otherwise be truncated to an integer row
        image, _ = fitted_image(seed=3, depth=3)
        with pytest.raises(ValueError, match="features must be integers"):
            pt.engine_invoke(image, bad(np.arange(6)))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint32,
                                       np.int64, np.uint64, object])
    def test_every_integer_dtype_walks_alike(self, dtype):
        image, _ = fitted_image(seed=3, depth=3)
        rng = np.random.default_rng(3)
        for x in rng.integers(0, 256, (50, 6)):
            assert pt.engine_invoke(image, x.astype(dtype)) \
                == pt.engine_invoke(image, x.tolist())

    def test_cycle_in_memory_detected(self):
        words = np.array([
            pt.node_encode(MemNode(False, feature=0, threshold=5,
                                   left=1, right=1)),
            pt.node_encode(MemNode(False, feature=0, threshold=5,
                                   left=0, right=0)),
        ], dtype=np.uint64)
        with pytest.raises(MalformedImageError,
                           match="node 0: child 1 is reached twice"):
            pt.TreeMemoryImage(words, 2, 1)

    def test_words_are_read_only(self):
        image, _ = fitted_image(seed=3, depth=3)
        with pytest.raises(ValueError, match="read-only"):
            image.words[0] = 0
        # the image holds its own copy: the caller's array stays writable
        # and editing it leaves the proven image as it was
        words = np.array([pt.node_encode(MemNode(True, value=7))],
                         dtype=np.uint64)
        leaf = pt.TreeMemoryImage(words, 1, 0)
        words[0] = pt.node_encode(MemNode(True, value=8))
        assert pt.engine_invoke(leaf, [0])[0] == 7

    @pytest.mark.parametrize("max_depth", [0, 2, 8])
    def test_recorded_depth_must_be_reached(self, max_depth):
        # a depth-1 tree recorded as any other depth
        words = np.array([pt.node_encode(w) for w in (
            MemNode(False, feature=0, threshold=5, left=1, right=2),
            MemNode(True, value=1), MemNode(True, value=2))], dtype=np.uint64)
        with pytest.raises(MalformedImageError,
                           match=f"deepest leaf at depth 1, but max_depth "
                                 f"is {max_depth}"):
            pt.TreeMemoryImage(words, 3, max_depth)

    def test_unreachable_word_rejected(self):
        words = np.array([pt.node_encode(w) for w in (
            MemNode(False, feature=0, threshold=5, left=1, right=2),
            MemNode(True, value=1), MemNode(True, value=2),
            MemNode(False, feature=0, threshold=5, left=9, right=9))],
            dtype=np.uint64)
        with pytest.raises(MalformedImageError,
                           match="node 3 is not reached from the root"):
            pt.TreeMemoryImage(words, 4, 1)


def engine_outcome(engine, image, x):
    """(value, cycles, trace), or the type and message of the error."""
    try:
        return engine(image, x)
    except ValueError as err:
        return type(err), str(err)


def corrupt_word(rng, word, n_features):
    """A decision word with one field redrawn over its whole range, so the
    walk can dangle, loop, read past the feature buffer or turn the other
    way; together the draws cover every field a decision word holds."""
    field = str(rng.choice(["left", "right", "feature", "threshold"]))
    if field == "feature":
        value = int(rng.integers(0, n_features + 3))
    elif field == "threshold":
        value = int(rng.integers(0, 1 << THRESHOLD_BITS))
    elif rng.random() < 0.3:
        value = int(rng.integers(0, 1 << CHILD_BITS))
    else:
        value = int(rng.integers(0, 8))
    return pt.node_encode(replace(pt.node_decode(word), **{field: value}))


class TestEngineMatchesOracle:
    """engine_invoke against the walk it replaced, which built a MemNode and
    an EngineState at every step."""

    @staticmethod
    def probes(rng, image, n_features):
        """Random feature rows, plus rows set to stored thresholds and one
        above them, where <= and < differ."""
        thresholds = [pt.node_decode(int(w)).threshold for w in image.words
                      if not int(w) >> LEAF_FLAG_BIT] or [0]
        rows = [rng.integers(0, 1 << THRESHOLD_BITS, n_features)
                for _ in range(20)]
        for _ in range(20):
            picks = rng.choice(thresholds, n_features)
            rows.append(picks + rng.integers(0, 2, n_features))
        return rows

    @given(st.integers(0, 2**32 - 1), st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_well_formed_images(self, seed, depth):
        rng = np.random.default_rng(seed)
        image = random_image(rng, depth)
        for x in self.probes(rng, image, 6):
            assert pt.engine_invoke(image, x) == oracle_engine_invoke(image, x)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_malformed_images_fail_alike(self, seed, depth):
        """Building raises exactly when the independent walk finds no tree
        of the recorded depth; otherwise the engine equals the oracle."""
        rng = np.random.default_rng(seed)
        image = random_image(rng, depth)
        words = image.words.copy()
        decisions = [i for i, w in enumerate(words)
                     if not int(w) >> LEAF_FLAG_BIT]
        for i in rng.choice(decisions, int(rng.integers(1, 3))):
            words[i] = corrupt_word(rng, int(words[i]), 6)
        if oracle_tree_depth(words) != image.max_depth:
            with pytest.raises(MalformedImageError):
                pt.TreeMemoryImage(words, image.n_nodes, image.max_depth)
            return
        bad = pt.TreeMemoryImage(words, image.n_nodes, image.max_depth)
        rows = self.probes(rng, bad, 6)
        rows.append(rows[0][:2])
        rows.append(np.where(rng.random(6) < 0.5, -1, rows[1]))
        for x in rows:
            assert engine_outcome(pt.engine_invoke, bad, x) \
                == engine_outcome(oracle_engine_invoke, bad, x)

    @pytest.mark.parametrize("words, x, error", [
        # dangling right child
        ([MemNode(False, feature=0, threshold=5, left=1, right=9),
          MemNode(True, value=1)], [6], MalformedImageError),
        # left child loops back to the root
        ([MemNode(False, feature=0, threshold=5, left=0, right=1),
          MemNode(True, value=1)], [0], MalformedImageError),
        # node 1 is its own child
        ([MemNode(False, feature=0, threshold=5, left=1, right=1),
          MemNode(False, feature=0, threshold=5, left=1, right=1)], [0],
         MalformedImageError),
        # feature 3 is past a 2-entry buffer
        ([MemNode(False, feature=3, threshold=5, left=1, right=2),
          MemNode(True, value=1), MemNode(True, value=2)], [0, 0],
         ValueError),
        # negative feature
        ([MemNode(True, value=1)], [0, -1], ValueError),
    ])
    def test_each_error_as_before(self, words, x, error):
        words = np.array([pt.node_encode(w) for w in words], dtype=np.uint64)
        depth = oracle_tree_depth(words)
        if error is MalformedImageError:
            # the oracle fails on these mid-walk; no image of them is built
            unchecked = SimpleNamespace(words=words, n_nodes=len(words))
            assert engine_outcome(oracle_engine_invoke, unchecked, x)[0] \
                is error
            assert depth is None
            with pytest.raises(MalformedImageError,
                               match="child index|reached twice"):
                pt.TreeMemoryImage(words, len(words), 1)
            return
        image = pt.TreeMemoryImage(words, len(words), depth)
        got = engine_outcome(pt.engine_invoke, image, x)
        assert got == engine_outcome(oracle_engine_invoke, image, x)
        assert got[0] is error

    def test_negative_word_rejected_as_before(self):
        # a signed array can hold a word outside [0, 2**64); no image of
        # one can be built, so neither engine ever reads it
        with pytest.raises(ValueError, match="words must be uint64"):
            pt.TreeMemoryImage(np.array([-1], dtype=np.int64), 1, 0)


def pulse_trace(signal_blocks):
    """Concatenate per-period level blocks into one trace."""
    ids = tuple(signal_blocks)
    levels = np.array([np.concatenate(signal_blocks[s]) for s in ids],
                      dtype=np.uint8)
    return ToggleTrace(ids, levels)


class TestMonitor:
    def _image_two_counters(self):
        words = np.array([
            pt.node_encode(MemNode(False, feature=0, threshold=2,
                                   left=1, right=2)),
            pt.node_encode(MemNode(True, value=100)),
            pt.node_encode(MemNode(True, value=200)),
        ], dtype=np.uint64)
        return pt.TreeMemoryImage(words, 3, 1)

    def test_two_periods_two_estimates(self):
        block = [np.array([0, 1, 0, 1, 0, 0], dtype=np.uint8)]
        trace = pulse_trace({"a": block * 2, "b": block * 2})
        cfg = pt.MonitorConfig(n_counters=2, estimation_period=6)
        rows = pt.run_monitor(trace, self._image_two_counters(), cfg)
        assert len(rows) == 2

    def test_identical_periods_identical_estimates(self):
        rng = np.random.default_rng(11)
        block_a = rng.integers(0, 2, 40).astype(np.uint8)
        block_b = rng.integers(0, 2, 40).astype(np.uint8)
        trace = pulse_trace({"a": [block_a, block_a],
                             "b": [block_b, block_b]})
        cfg = pt.MonitorConfig(n_counters=2, estimation_period=40)
        rows = pt.run_monitor(trace, self._image_two_counters(), cfg)
        assert rows[0][1:] == rows[1][1:]

    def test_against_counter_fold_and_engine(self):
        rng = np.random.default_rng(12)
        levels = rng.integers(0, 2, (2, 120)).astype(np.uint8)
        trace = ToggleTrace(("a", "b"), levels)
        cfg = pt.MonitorConfig(n_counters=2, estimation_period=40)
        image = self._image_two_counters()
        rows = pt.run_monitor(trace, image, cfg)
        for p, value, cycles, features in rows:
            states = [pt.CounterState(cfg.counter_width) for _ in range(2)]
            for t in range(p * 40, (p + 1) * 40):
                states = [pt.counter_step(s, int(levels[i, t]))
                          for i, s in enumerate(states)]
            feats = [s.value for s in states]
            assert list(features) == feats
            expect_value, expect_cycles, _ = pt.engine_invoke(image, feats)
            assert (value, cycles) == (expect_value, expect_cycles)

    def test_end_to_end_matches_quantized_software(self):
        spec = pt.DesignSpec(n_linear_nets=20, n_nonlinear_units=2,
                             correlation_groups=2, seed=5)
        design = pt.generate_design(spec)
        ds = pt.simulate_dataset(design, 300, 100, seed=6)
        tree = pt.fit_tree(ds, pt.HyperParams(5, 5, 2, 0.001))
        image = pt.quantize(tree)
        trace = pt.synthesize_trace(design, 5, 100, seed=7)
        cfg = pt.MonitorConfig(n_counters=20, estimation_period=100)
        rows = pt.run_monitor(trace, image, cfg)
        assert [row[3] for row in rows] == pt.period_features(trace, cfg)
        for p, value, cycles, f in rows:
            soft = pt.predict_tree(tree, np.array(f))
            assert value == int(np.floor(soft * 1000.0 + 0.5))
            # per-period counters equal windowed trace activity
            for j, sig in enumerate(trace.signal_ids):
                assert f[j] == pt.activity(trace, sig, p * 100, (p + 1) * 100)

    def test_trace_shorter_than_period_rejected(self):
        trace = ToggleTrace(("a",), np.zeros((1, 10), dtype=np.uint8))
        cfg = pt.MonitorConfig(n_counters=1, estimation_period=20)
        with pytest.raises(ValueError):
            pt.run_monitor(trace, self._image_two_counters(), cfg)

    def test_level_changed_in_place_rejected(self):
        trace = ToggleTrace(("a",), np.zeros((1, 40), dtype=np.uint8))
        trace.levels[0, 17] = 2
        cfg = pt.MonitorConfig(n_counters=1, estimation_period=20)
        with pytest.raises(ValueError):
            pt.period_features(trace, cfg)

    def test_signal_count_mismatch_rejected(self):
        trace = ToggleTrace(("a", "b"), np.zeros((2, 40), dtype=np.uint8))
        with pytest.raises(ValueError):
            pt.period_features(trace, pt.MonitorConfig(n_counters=3,
                                                       estimation_period=20))


@st.composite
def monitor_cases(draw):
    """(levels, period, counter_width): 1-5 signals, periods of 1-16
    cycles, a trailing partial period, and the narrowest counter the period
    allows or up to two bits more."""
    n_sig = draw(st.integers(1, 5))
    period = draw(st.integers(1, 16))
    n_cycles = period * draw(st.integers(1, 5)) \
        + draw(st.integers(0, period - 1))
    narrowest = max(1, (period - 1).bit_length())
    width = draw(st.integers(narrowest, narrowest + 2))
    dtype = draw(st.sampled_from([np.uint8, np.bool_, np.int64]))
    bits = draw(st.lists(st.integers(0, 1), min_size=n_sig * n_cycles,
                         max_size=n_sig * n_cycles))
    return np.array(bits, dtype=dtype).reshape(n_sig, n_cycles), period, width


class TestPeriodFeaturesMatchCounterFold:
    """period_features against the per-cycle counter_step fold it replaced.

    The largest count a period can hold is ceil(P / 2), from alternating
    levels that start at 1, and P <= 2**width gives ceil(P / 2) < 2**width.
    So the fold never raises OverflowError where period_features runs, and
    the vectorised count needs no overflow check of its own.
    """

    @given(monitor_cases())
    @example(case=(np.array([[0, 0, 0, 1, 1, 0, 0, 1]], dtype=np.uint8), 4,
                   2))  # edges on the last cycle of each period
    @example(case=(np.array([[0, 1, 1, 1, 1, 1, 1, 1, 1]], dtype=np.bool_),
                   4, 2))  # periods that open high, a partial period
    @example(case=(np.array([[1, 0, 1, 0, 1, 0, 1, 0]], dtype=np.int64), 4,
                   2))  # the largest count a 2-bit counter meets
    @settings(max_examples=300, deadline=None)
    def test_matches_fold(self, case):
        levels, period, width = case
        cfg = pt.MonitorConfig(n_counters=levels.shape[0],
                               estimation_period=period, counter_width=width)
        trace = ToggleTrace(tuple(f"s{i}" for i in range(levels.shape[0])),
                            levels)
        got = pt.period_features(trace, cfg)
        assert got == oracle_period_features(levels, period, width)
        assert all(type(v) is int for row in got for v in row)

    @given(levels=level_arrays(min_side=1), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_edited_levels_rejected_exactly_as_before(self, levels, data):
        # a trace built over 0/1 levels whose array is then edited in place
        edited = levels.copy()
        levels[...] = 0
        trace = ToggleTrace(tuple(f"s{i}" for i in range(levels.shape[0])),
                            levels)
        levels[...] = edited
        period = data.draw(st.integers(1, levels.shape[1]))
        cfg = pt.MonitorConfig(n_counters=levels.shape[0],
                               estimation_period=period)
        used = edited[:, :levels.shape[1] // period * period]
        if old_binary(used):
            assert pt.period_features(trace, cfg) == oracle_period_features(
                used, period, cfg.counter_width)
        else:
            with pytest.raises(ValueError, match="levels must be 0/1"):
                pt.period_features(trace, cfg)

    @pytest.mark.parametrize("width", [1, 2, 3, 8])
    def test_largest_count_fits(self, width):
        period = 1 << width
        levels = np.tile([1, 0], period)[None, :].astype(np.uint8)
        cfg = pt.MonitorConfig(n_counters=1, estimation_period=period,
                               counter_width=width)
        got = pt.period_features(ToggleTrace(("a",), levels), cfg)
        assert got == [(period // 2,)] * 2
        assert got == oracle_period_features(levels, period, width)


class TestMonitorConfig:
    def test_period_must_fit_counter_width(self):
        with pytest.raises(ValueError):
            pt.MonitorConfig(n_counters=1, estimation_period=5, counter_width=2)
        pt.MonitorConfig(n_counters=1, estimation_period=4, counter_width=2)

    @pytest.mark.parametrize("width", [0, -1, 65])
    def test_counter_width_out_of_range_rejected(self, width):
        with pytest.raises(ValueError, match="counter_width"):
            pt.MonitorConfig(n_counters=1, estimation_period=1,
                             counter_width=width)

    @pytest.mark.parametrize("width", [1, 64])
    def test_counter_width_limits_accepted(self, width):
        pt.MonitorConfig(n_counters=1, estimation_period=1,
                         counter_width=width)


class TestRangeChecks:
    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda: pt.CounterState(4, 16),
                     "value out of counter range", id="CounterState-value"),
        pytest.param(lambda: pt.CounterState(4, -1),
                     "value out of counter range", id="CounterState-negative"),
        pytest.param(lambda: pt.node_decode(-1),
                     "word must be an unsigned 64-bit value",
                     id="node_decode-negative"),
        pytest.param(lambda: pt.node_decode(1 << 64),
                     "word must be an unsigned 64-bit value",
                     id="node_decode-wide"),
        pytest.param(lambda: pt.TreeMemoryImage(np.zeros(2, np.uint64), 3, 0),
                     "words must hold n_nodes >= 1 entries",
                     id="TreeMemoryImage-shape"),
        pytest.param(lambda: pt.TreeMemoryImage(np.zeros(0, np.uint64), 0, 0),
                     "words must hold n_nodes >= 1 entries",
                     id="TreeMemoryImage-empty"),
        # raised AttributeError
        pytest.param(lambda: pt.TreeMemoryImage([1 << 63], 1, 0),
                     "words must be a ndarray, not a list",
                     id="TreeMemoryImage-list"),
        pytest.param(lambda: pt.MonitorConfig(0), "n_counters must be >= 1, "
                     "not 0", id="MonitorConfig-n_counters"),
        pytest.param(lambda: pt.MonitorConfig(3, 0),
                     "estimation_period must be >= 1, not 0",
                     id="MonitorConfig-estimation_period"),
        pytest.param(lambda: pt.quantize(edited_tree(leaf_tree(0.5), "value",
                                                     -0.25)),
                     "leaf values must all be >= 0", id="quantize-leaf"),
    ])
    def test_rejected(self, make, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()


class TestImageFile:
    LEAF = np.array([pt.node_encode(MemNode(True, value=7))], dtype=np.uint64)

    @pytest.mark.parametrize("unit", [1.0, 0.001, 1.001])
    def test_leaf_unit_round_trips_exactly(self, unit):
        image = pt.TreeMemoryImage(self.LEAF, 1, 0, unit)
        assert pt.parse_image(pt.image_bytes(image)).leaf_unit == unit

    # below one microwatt, between two, and past the header's u32
    @pytest.mark.parametrize("unit", [0.0004, 1.0004, 5e6])
    def test_leaf_unit_not_whole_microwatts_rejected(self, unit):
        with pytest.raises(ValueError, match="leaf_unit must be a whole "
                                             "number of microwatts"):
            pt.TreeMemoryImage(self.LEAF, 1, 0, unit)

    # each compares equal to the right int, so only the integer rule stops
    # it before image_bytes' struct.pack
    @pytest.mark.parametrize("field, sizes", [
        ("max_depth", (1, 0.0)), ("max_depth", (1, False)),
        ("n_nodes", (1.0, 0)), ("n_nodes", (True, 0))])
    def test_non_integer_size_rejected(self, field, sizes):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            pt.TreeMemoryImage(self.LEAF, *sizes)

    def test_round_trip_bit_exact(self, tmp_path):
        image, _ = fitted_image(seed=4, depth=5)
        path = tmp_path / "tree.img"
        pt.save_image(image, path)
        back = pt.load_image(path)
        assert back.n_nodes == image.n_nodes
        assert back.max_depth == image.max_depth
        assert back.leaf_unit == image.leaf_unit
        assert (back.words == image.words).all()
        pt.save_image(back, tmp_path / "again.img")
        assert (tmp_path / "tree.img").read_bytes() \
            == (tmp_path / "again.img").read_bytes()

    def test_multi_word_images_compare_without_error(self):
        # words is an array, so a field-wise == of two images would raise
        # on the truth value of an array of more than one element
        image, tree = fitted_image(seed=4, depth=3)
        again = pt.quantize(tree)
        assert image.n_nodes > 1 and image == image and image != again

    def test_header_layout(self, tmp_path):
        image, _ = fitted_image(seed=4, depth=3)
        path = tmp_path / "tree.img"
        pt.save_image(image, path)
        raw = path.read_bytes()
        assert raw[:4] == b"PTMI"
        assert len(raw) == 16 + 8 * image.n_nodes

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_image_of_other_dtype_never_saved(self, tmp_path, dtype):
        # cast to <u8 on save, an int64 -1 would wrap to a valid leaf
        # holding 65535
        path = tmp_path / "tree.img"
        with pytest.raises(ValueError, match="words must be uint64"):
            pt.save_image(pt.TreeMemoryImage(np.array([-1], dtype=dtype), 1,
                                             0), path)
        assert not path.exists()

    @pytest.mark.parametrize("cut", [1, 3, 8])
    def test_short_body_names_source(self, cut):
        raw = pt.image_bytes(fitted_image(seed=4, depth=3)[0])
        with pytest.raises(ValueError, match="image.bin: body holds"):
            pt.parse_image(raw[:-cut], "image.bin")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.img"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(ValueError):
            pt.load_image(path)


class TestImageFuzz:
    """Bit flips, truncation and header edits of a quantized image.  Each
    mutant fails to parse with a ValueError, or every engine walk of it
    ends within 2*max_depth + 1 cycles or raises ValueError."""

    RAW = pt.image_bytes(fitted_image(seed=4, depth=5)[0])

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutant_parses_or_fails_cleanly(self, data):
        raw = bytearray(self.RAW)
        kind = data.draw(st.sampled_from(["flip", "truncate", "header"]))
        if kind == "flip":
            for bit in data.draw(st.lists(st.integers(0, 8 * len(raw) - 1),
                                          min_size=1, max_size=4)):
                raw[bit // 8] ^= 1 << (bit % 8)
        elif kind == "truncate":
            del raw[data.draw(st.integers(0, len(raw) - 1)):]
        else:  # n_nodes, max_depth or leaf unit: nudged or redrawn
            at = data.draw(st.sampled_from([4, 8, 12]))
            old = int.from_bytes(raw[at:at + 4], "little")
            new = data.draw(st.one_of(
                st.integers(-3, 3).map(lambda d: (old + d) % 2**32),
                st.integers(0, 2**32 - 1)))
            raw[at:at + 4] = new.to_bytes(4, "little")
        try:
            image = pt.parse_image(bytes(raw))
        except ValueError:
            return
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for x in rng.integers(0, 301, (20, 6)):
            try:
                _, cycles, _ = pt.engine_invoke(image, x)
            except ValueError:
                continue
            assert cycles <= 2 * image.max_depth + 1


class TestTraceText:
    def test_one_state_per_line(self):
        image, _ = fitted_image(seed=5, depth=3)
        _, _, trace = pt.engine_invoke(image, [0, 0, 0, 0, 0, 0])
        text = pt.fsm_trace_text(trace)
        lines = text.strip().splitlines()
        assert lines[0] == "0 I"
        assert lines[-1] == f"{len(trace) - 1} R"
