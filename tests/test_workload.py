import contextlib
import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, from_dtype

import powertree as pt
from powertree.workload import (_KINDS, RATE_MODES, DesignSpec, Dataset,
                                ToggleTrace, _at_least, _binary, _names,
                                _positive, _table_rows, _table_text)
from test_model import _mutant, assert_plain


TINY = Dataset(np.array([[1, 2], [3, 4]]), np.array([1.0, 2.0]), ("a", "b"),
               300, 1e8)


def small_design(seed=7, **kw):
    args = dict(n_linear_nets=50, n_nonlinear_units=5, correlation_groups=4,
                seed=seed)
    args.update(kw)
    return pt.generate_design(DesignSpec(**args))


class TestDesignSpec:
    def test_zero_design_rejected(self):
        with pytest.raises(ValueError):
            DesignSpec(n_linear_nets=0, n_nonlinear_units=0)

    def test_units_without_nets_rejected(self):
        with pytest.raises(ValueError):
            DesignSpec(n_linear_nets=0, n_nonlinear_units=2)

    @pytest.mark.parametrize("field,value", [
        ("capacitance_range", (0.0, 1e-9)),
        ("capacitance_range", (2e-9, 1e-9)),
        ("vdd", 0.0),
        ("clock_freq", -1.0),
        ("nonlinear_strength", -0.1),
        ("correlation_groups", 0),
    ])
    def test_invalid_fields(self, field, value):
        with pytest.raises(ValueError):
            DesignSpec(n_linear_nets=10, **{field: value})

    # numpy's uniform overflowed on an infinite end
    @pytest.mark.parametrize("bounds, message", [
        ((1e-10, float("inf")), r"capacitance_range\[1\] must be a finite"),
        ((float("nan"), 1e-9), r"capacitance_range\[0\] must be a finite"),
        ((1e-10,), "capacitance_range must be a list of 2 entries")])
    def test_capacitance_range_must_be_two_finite_numbers(self, bounds,
                                                          message):
        with pytest.raises(ValueError, match=message):
            pt.generate_design(DesignSpec(4, capacitance_range=bounds))

    # Integer fields of DesignSpec and PdnModel follow HyperParams's rule: a
    # fraction, an integral float or a bool is not an integer.
    @pytest.mark.parametrize("cls, field", [
        (DesignSpec, "n_linear_nets"), (DesignSpec, "n_nonlinear_units"),
        (DesignSpec, "correlation_groups"), (DesignSpec, "seed"),
        (pt.PdnModel, "max_phases")])
    @pytest.mark.parametrize("value", [2.5, 3.0, True])
    def test_non_integer_count_rejected(self, cls, field, value):
        kw = {"n_linear_nets": 10} if cls is DesignSpec else {}
        with pytest.raises(ValueError,
                           match=f"{field} must be an integer, not {value!r}"):
            cls(**{**kw, field: value})

    def test_numpy_integer_counts_accepted(self):
        spec = DesignSpec(np.int64(10), np.int32(2),
                          correlation_groups=np.uint8(2), seed=np.int64(4))
        assert pt.generate_design(spec).nets == pt.generate_design(
            DesignSpec(10, 2, correlation_groups=2, seed=4)).nets
        assert pt.PdnModel(max_phases=np.int64(3)).max_phases == 3


class TestGenerateDesign:
    def test_deterministic(self):
        spec = DesignSpec(n_linear_nets=30, n_nonlinear_units=3, seed=42)
        assert pt.generate_design(spec) == pt.generate_design(spec)

    def test_structure_by_enumeration(self):
        d = small_design()
        assert d.n_nets == 50
        assert len(d.nonlinear_units) == 5
        ids = set(d.net_ids)
        assert len(ids) == 50
        for unit in d.nonlinear_units:
            assert set(unit.inputs) <= ids
            assert unit.coefficient > 0
        cmin, cmax = DesignSpec(n_linear_nets=1).capacitance_range
        for net in d.nets:
            assert cmin <= net.capacitance <= cmax
        assert set(net.group for net in d.nets) == set(range(4))

    def test_different_seeds_differ(self):
        a = small_design(seed=1)
        b = small_design(seed=2)
        assert a != b


def levels_trace(rows: dict[str, list[int]]) -> ToggleTrace:
    ids = tuple(rows)
    return ToggleTrace(ids, np.array([rows[i] for i in ids], dtype=np.uint8))


class TestActivity:
    def test_empty_interval(self):
        tr = levels_trace({"a": [0, 1, 0, 1, 1, 0]})
        assert pt.activity(tr, "a", 3, 3) == 0

    def test_hand_counted_edges(self):
        # 0->1 at cycles 2 and 4 when scanning 0,1,0,1,1,0
        tr = levels_trace({"a": [0, 1, 0, 1, 1, 0]})
        assert pt.activity(tr, "a", 0, 6) == 2

    def test_leading_one_counts_from_reset(self):
        tr = levels_trace({"a": [1, 1, 0, 1]})
        assert pt.activity(tr, "a", 0, 4) == 2

    def test_reversed_interval_rejected(self):
        tr = levels_trace({"a": [0, 1]})
        with pytest.raises(ValueError):
            pt.activity(tr, "a", 2, 1)
        with pytest.raises(ValueError):
            pt.activity(tr, "a", 0, 3)

    def test_unknown_signal(self):
        tr = levels_trace({"a": [0, 1]})
        with pytest.raises(ValueError):
            pt.activity(tr, "b", 0, 1)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=60),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_interval_and_monotone(self, levels, data):
        tr = levels_trace({"a": levels})
        n = tr.n_cycles
        a = data.draw(st.integers(0, n))
        b = data.draw(st.integers(a, n))
        count = pt.activity(tr, "a", a, b)
        assert 0 <= count <= b - a
        s = tr.cumulative_counts("a")
        assert s[0] == 0
        steps = np.diff(s)
        assert ((steps == 0) | (steps == 1)).all()


class TestDynamicPower:
    def test_zero_activity_zero_power(self):
        d = small_design()
        assert pt.dynamic_power(d, np.zeros(50), 300) == 0.0

    def test_hand_computed_single_net(self):
        # alpha=0.1, C=10 pF, 1 V, 100 MHz -> 0.1 * 10e-12 * 1e8 = 1e-4 W
        d = pt.SyntheticDesign((pt.Net("n", 10e-12, 0),), (), 1.0, 100e6, 0.0)
        assert pt.dynamic_power(d, [30], 300) == pytest.approx(1e-4, rel=1e-12)

    def test_linear_in_frequency(self):
        d = small_design(n_nonlinear_units=0)
        acts = np.arange(50) % 100
        p1 = pt.dynamic_power(d, acts, 300)
        p2 = pt.dynamic_power(d.with_clock_freq(d.clock_freq * 2), acts, 300)
        assert p2 == pytest.approx(2 * p1, rel=1e-12)

    def test_quadratic_in_vdd(self):
        d = small_design(n_nonlinear_units=0)
        from dataclasses import replace
        acts = np.arange(50) % 100
        p1 = pt.dynamic_power(d, acts, 300)
        p2 = pt.dynamic_power(replace(d, vdd=2 * d.vdd), acts, 300)
        assert p2 == pytest.approx(4 * p1, rel=1e-12)

    def test_dimension_mismatch(self):
        d = small_design()
        with pytest.raises(ValueError):
            pt.dynamic_power(d, np.zeros(49), 300)

    def test_activity_above_period_rejected(self):
        d = small_design()
        with pytest.raises(ValueError):
            pt.dynamic_power(d, np.full(50, 301), 300)


class TestSimulateDataset:
    def test_shapes_and_activity_bound(self):
        d = small_design()
        ds = pt.simulate_dataset(d, 2000, 300, seed=3)
        assert len(ds) == 2000
        assert ds.n_features == 50
        assert ds.features.max() <= 300
        assert ds.features.min() >= 0

    def test_singleton(self):
        d = small_design()
        ds = pt.simulate_dataset(d, 1, 300, seed=3)
        assert len(ds) == 1

    def test_labels_match_dynamic_power_oracle(self):
        d = small_design()
        ds = pt.simulate_dataset(d, 50, 300, seed=3)
        for i in range(len(ds)):
            expect = pt.dynamic_power(d, ds.features[i], 300)
            assert ds.powers[i] == pytest.approx(expect, rel=1e-12)

    def test_deterministic(self):
        d = small_design()
        a = pt.simulate_dataset(d, 20, 300, seed=3)
        b = pt.simulate_dataset(d, 20, 300, seed=3)
        assert (a.features == b.features).all()
        assert (a.powers == b.powers).all()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pt.simulate_dataset(small_design(), 0, 300, seed=3)

    def test_peaks_near_its_float_activities(self):
        d = pt.generate_design(pt.DesignSpec(240, 3, correlation_groups=3,
                                             seed=5))
        tracemalloc.start()
        try:
            ds = pt.simulate_dataset(d, 4000, 300, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the power model's float64 activities take 7.7 MB and the uint16
        # counts 1.9 MB; drawing every count at once as int64, from float64
        # rates per net, took 7.7 MB more (14.8 MB in all)
        assert ds.features.dtype == np.uint16
        assert peak < 12 * 2**20


class TestRankSignals:
    def test_full_rank_is_permutation(self):
        ds = pt.simulate_dataset(small_design(), 20, 300, seed=3)
        ranked = pt.rank_signals_by_activity(ds, ds.n_features)
        assert sorted(ranked) == sorted(ds.feature_names)

    def test_ordering(self):
        ds = Dataset(np.array([[100, 900]]), np.array([1.0]), ("a", "b"),
                     1000, 1e8)
        assert pt.rank_signals_by_activity(ds, 2) == ["b", "a"]

    def test_matches_sort_oracle(self):
        ds = pt.simulate_dataset(small_design(), 100, 300, seed=3)
        got = pt.rank_signals_by_activity(ds, 10)
        totals = {name: int(ds.features[:, j].sum())
                  for j, name in enumerate(ds.feature_names)}
        expect = sorted(ds.feature_names,
                        key=lambda n: (-totals[n], ds.feature_names.index(n)))
        assert got == expect[:10]

    def test_zero_top_m_rejected(self):
        ds = pt.simulate_dataset(small_design(), 5, 300, seed=3)
        with pytest.raises(ValueError):
            pt.rank_signals_by_activity(ds, 0)


class TestTrace:
    def test_per_period_activity_bounded_by_half(self):
        d = small_design()
        tr = pt.synthesize_trace(d, 4, 300, seed=1)
        assert tr.n_cycles == 1200
        for sig in tr.signal_ids[:5]:
            for p in range(4):
                a = pt.activity(tr, sig, p * 300, (p + 1) * 300)
                assert 0 <= a <= 150

    def test_deterministic(self):
        d = small_design()
        a = pt.synthesize_trace(d, 2, 100, seed=1)
        b = pt.synthesize_trace(d, 2, 100, seed=1)
        assert (a.levels == b.levels).all()

    def test_select_signals(self):
        d = small_design()
        tr = pt.synthesize_trace(d, 1, 50, seed=1)
        sub = tr.select_signals([d.net_ids[3], d.net_ids[0]])
        assert sub.signal_ids == (d.net_ids[3], d.net_ids[0])
        assert (sub.levels[0] == tr.levels[3]).all()

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_level_outside_0_1_rejected(self, bad):
        levels = np.zeros((2, 6), dtype=np.float64)
        levels[1, 4] = bad
        with pytest.raises(ValueError, match="0/1"):
            ToggleTrace(("a", "b"), levels)

    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int64])
    def test_0_1_levels_accepted(self, dtype):
        levels = np.array([[0, 1, 1, 0], [1, 0, 0, 1]], dtype=dtype)
        assert ToggleTrace(("a", "b"), levels).n_cycles == 4

    def test_zero_cycle_trace_accepted(self):
        assert ToggleTrace(("a",), np.zeros((1, 0), dtype=np.uint8)) \
            .n_cycles == 0


def old_binary(a) -> bool:
    """The elementwise 0/1 test ToggleTrace ran before _binary."""
    return bool(((a == 0) | (a == 1)).all())


LEVEL_DTYPES = [np.bool_, np.uint8, np.uint16, np.uint32, np.uint64,
                np.int8, np.int16, np.int32, np.int64,
                np.float16, np.float32, np.float64]


def _outliers(dtype: np.dtype) -> list:
    """Entries that are not 0/1 but sit near it or at a dtype's edge."""
    if dtype.kind == "b":
        return []
    if dtype.kind == "f":
        return [0.5, np.nan, np.inf, -np.inf, -0.0, 2.0, -1.0,
                float(np.finfo(dtype).max)]
    info = np.iinfo(dtype)
    return [2, info.max] + ([-1, info.min, -2] if dtype.kind == "i" else [])


@st.composite
def level_arrays(draw, min_side=0):
    """A 2-D array of 0/1 entries with up to three others written in, of
    any LEVEL_DTYPES dtype in either byte order, laid out row-major,
    column-major or as a strided (possibly reversed) slice."""
    dtype = np.dtype(draw(st.sampled_from(LEVEL_DTYPES)))
    rows, cols = (draw(st.integers(min_side, 6)) for _ in range(2))
    a = draw(arrays(dtype, (2 * rows, 2 * cols), elements=st.sampled_from(
        [False, True] if dtype.kind == "b" else [0, 1])))
    others = from_dtype(dtype)
    if _outliers(dtype):
        others = st.sampled_from(_outliers(dtype)) | others
    if a.size:
        for _ in range(draw(st.integers(0, 3))):
            a.flat[draw(st.integers(0, a.size - 1))] = draw(others)
    if draw(st.booleans()):
        a = a.astype(dtype.newbyteorder())
    layout = draw(st.sampled_from(["C", "F", "slice"]))
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "slice":
        step = draw(st.sampled_from([1, 2, -1, -2]))
        return a[draw(st.integers(0, 1))::2, ::step]
    return a


class TestLevelCheck:
    """_binary decides exactly what the elementwise test decided."""

    @given(a=level_arrays())
    @settings(max_examples=400, deadline=None)
    def test_matches_elementwise_test(self, a):
        assert _binary(a) == old_binary(a)

    @given(a=level_arrays())
    @settings(max_examples=200, deadline=None)
    def test_trace_rejects_exactly_what_the_test_rejects(self, a):
        ids = tuple(f"s{i}" for i in range(a.shape[0]))
        if old_binary(a):
            assert ToggleTrace(ids, a).levels is a
        else:
            with pytest.raises(ValueError, match="levels must be 0/1"):
                ToggleTrace(ids, a)

    @pytest.mark.parametrize("dtype", LEVEL_DTYPES[1:])
    def test_every_outlier_rejected(self, dtype):
        for bad in _outliers(np.dtype(dtype)):
            levels = np.zeros((2, 6), dtype=dtype)
            levels[1, 4] = bad
            assert _binary(levels) == old_binary(levels)
            if bad != 0:  # -0.0 is a 0
                with pytest.raises(ValueError, match="levels must be 0/1"):
                    ToggleTrace(("a", "b"), levels)

    def test_check_copies_nothing(self):
        # monitor_long's trace: 120 x 30000 uint8 levels, 3.6 MB, where
        # the elementwise test made two bool temporaries of that size
        levels = np.random.default_rng(0).integers(0, 2, (120, 30000),
                                                   dtype=np.uint8)
        ids = tuple(f"n{i}" for i in range(120))
        tracemalloc.start()
        try:
            ToggleTrace(ids, levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_synthesize_trace_peaks_at_its_levels(self):
        design = pt.generate_design(pt.hybrid_design_spec(1))
        tracemalloc.start()
        try:
            trace = pt.synthesize_trace(design, 100, 300, seed=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < trace.levels.nbytes + 2**20


class TestDatasetIO:
    def test_round_trip_exact(self, tmp_path):
        d = small_design()
        ds = pt.simulate_dataset(d, 30, 300, seed=3)
        path = tmp_path / "data.csv"
        pt.save_dataset(ds, path, vdd=d.vdd)
        back = pt.load_dataset(path)
        assert back.feature_names == ds.feature_names
        assert back.period_cycles == ds.period_cycles
        assert back.clock_freq == ds.clock_freq
        assert (back.features == ds.features).all()
        assert (back.powers == ds.powers).all()

    @pytest.mark.parametrize("row", ["1,0.5", "1,2,3,0.5"])
    def test_ragged_row_rejected_with_file_and_line(self, tmp_path, row):
        path = tmp_path / "data.csv"
        pt.save_dataset(Dataset(np.array([[1, 2], [3, 4]]),
                                np.array([0.5, 0.5]), ("a", "b"), 300, 1e8),
                        path)
        lines = path.read_text().splitlines()
        lines[2] = row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"data\.csv, line 3: "):
            pt.load_dataset(path)

    def test_design_round_trip(self):
        d = small_design()
        assert pt.parse_design(pt.design_text(d)) == d

    # an explicit id names the case by its fault, apart from its message
    @pytest.mark.parametrize("net, message", [
        pytest.param(["net_x", 1e-15, 1.7],
                     "field 'nets'[50][2] must be an integer, not 1.7",
                     id="net0-net group must be an integer, not 1.7"),
        pytest.param(["net_x", 1e-15, True],
                     "field 'nets'[50][2] must be an integer, not True",
                     id="net1-net group must be an integer, not True"),
        pytest.param([5, 1e-15, 0],
                     "field 'nets'[50][0] must be a string, not 5",
                     id="net2-net ids must be unique strings"),
        (["net_x", True, 0],
         "field 'nets'[50][1] must be a finite number, not True"),
    ])
    def test_malformed_net_rejected(self, net, message):
        doc = json.loads(pt.design_text(small_design()))
        doc["nets"].append(net)
        with pytest.raises(ValueError, match=re.escape(message)):
            pt.parse_design(json.dumps(doc))

    @pytest.mark.parametrize("bad", [[1], 1, None])
    def test_non_string_unit_input_rejected(self, bad):
        doc = json.loads(pt.design_text(small_design()))
        doc["nonlinear_units"][0][0].append(bad)
        with pytest.raises(ValueError, match=r"field 'nonlinear_units'"
                           r"\[0\]\[0\]\[\d+\] must be a string"):
            pt.parse_design(json.dumps(doc))


# ---------------------------------------------------------------------------
# The dataset codec against the per-cell writer and reader it replaced.

def oracle_csv_text(dataset: Dataset) -> str:
    """Per row, each count followed by a comma, then the power: a row of a
    dataset without features is its power cell alone."""
    lines = [",".join(list(dataset.feature_names) + ["power_w"])]
    for row, p in zip(dataset.features, dataset.powers):
        lines.append("".join(f"{int(v)}," for v in row) + repr(float(p)))
    return "\n".join(lines) + "\n"


def oracle_parse_dataset(csv_text: str, meta_text: str,
                         source="dataset") -> Dataset:
    meta = json.loads(meta_text)
    lines = [(i, l) for i, l in enumerate(csv_text.splitlines(), 1) if l]
    if not lines:
        raise ValueError(f"{source}: empty file")
    header = lines[0][1].split(",")
    if header[-1] != "power_w":
        raise ValueError(f"{source}: last column must be power_w")
    names = tuple(header[:-1])
    features = np.zeros((len(lines) - 1, len(names)), dtype=np.int64)
    powers = np.zeros(len(lines) - 1, dtype=np.float64)
    for i, (lineno, line) in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{source}, line {lineno}: {len(cells)} cells, "
                             f"header has {len(header)}")
        try:
            features[i] = [int(c) for c in cells[:-1]]
            powers[i] = float(cells[-1])
        except ValueError as e:
            raise ValueError(f"{source}, line {lineno}: {e}") from None
    return Dataset(features, powers, names, meta["period_cycles"],
                   meta["clock_freq_hz"])


INT_DTYPES = (np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64)
# 0.0, subnormals, extremes and reprs in exponent form
SPECIAL_POWERS = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 1e16,
                  1.5e300, 1e300, 1.7976931348623157e308)
META = json.dumps({"period_cycles": 300, "clock_freq_hz": 1e8})
NAME = st.text(st.characters(codec="utf-8", categories=("L", "N"))
               | st.sampled_from("_.-"), max_size=4)


@st.composite
def datasets(draw, min_features=0, max_value=None):
    """A small Dataset of any integer dtype, its cells biased towards 0 and
    period_cycles."""
    dtype = draw(st.sampled_from(INT_DTYPES))
    top = int(np.iinfo(dtype).max)
    if max_value is not None:
        top = min(top, max_value)
    period = draw(st.integers(1, top) | st.just(top))
    n_rows = draw(st.integers(0, 5))
    n_features = draw(st.integers(min_features, 4))
    cell = st.sampled_from([0, period]) | st.integers(0, period)
    features = np.array(
        draw(st.lists(st.lists(cell, min_size=n_features,
                               max_size=n_features),
                      min_size=n_rows, max_size=n_rows)),
        dtype=dtype).reshape(n_rows, n_features)
    power = st.sampled_from(SPECIAL_POWERS) | st.floats(
        0.0, allow_nan=False, allow_infinity=False)
    powers = np.array(draw(st.lists(power, min_size=n_rows,
                                    max_size=n_rows)), dtype=np.float64)
    names = tuple(draw(st.lists(NAME, min_size=n_features,
                                max_size=n_features, unique=True)))
    return Dataset(features, powers, names, period, 1e8)


def same_dataset(a: Dataset, b: Dataset) -> bool:
    return (a.feature_names == b.feature_names
            and a.features.shape == b.features.shape
            and np.array_equal(a.features, b.features)
            and a.powers.tobytes() == b.powers.tobytes()
            and a.period_cycles == b.period_cycles)


@contextlib.contextmanager
def small_blocks(cells: int):
    """A context in which the codec works on blocks of ``cells`` cells."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pt.workload, "_BLOCK_CELLS", cells)
        yield


class TestDatasetCodec:
    @settings(max_examples=150, deadline=None)
    @given(datasets(), st.sampled_from([1, 3, 7, 1 << 16]))
    def test_writer_matches_oracle(self, ds, cells):
        with small_blocks(cells):
            assert pt.dataset_csv_text(ds) == oracle_csv_text(ds)

    @settings(max_examples=150, deadline=None)
    @given(datasets(min_features=0, max_value=10 ** 18 - 1), st.booleans(),
           st.booleans(), st.sampled_from([1, 3, 7, 1 << 16]))
    def test_reader_matches_oracle(self, ds, final_newline, as_bytes, cells):
        text = pt.dataset_csv_text(ds)
        if not final_newline:
            text = text[:-1]
        meta = pt.dataset_meta_text(ds)
        with small_blocks(cells):
            back = pt.parse_dataset(text.encode() if as_bytes else text,
                                    meta)
        assert same_dataset(back, oracle_parse_dataset(text, meta))
        assert same_dataset(back, ds)

    # Spellings the per-cell reader accepted that the grammar rejects.
    @pytest.mark.parametrize("text, line", [
        ("a,b,power_w\n1,2,0.5\n 5,4,0.25\n", 3),
        ("a,b,power_w\n1,2,0.5\n+5,4,0.25\n", 3),
        ("a,b,power_w\n1,2,0.5\n1_0,4,0.25\n", 3),
        ("a,b,power_w\n1,2,0.5\n٣,4,0.25\n", 3),
        ("a,b,power_w\n1,2,0.5\n0000000000000000005,4,0.25\n", 3),
        ("a,b,power_w\r\n1,2,0.5\r\n3,4,0.25\r\n", 1),
        ("a,b,power_w\n1,2,0.5\n\n3,4,0.25\n", 3),
        ("a,b,power_w\n1,2,0.5\n3,4,0.25\n\n", 4),
    ], ids=["space", "plus", "underscore", "arabic-indic", "19-digits",
            "crlf", "blank-row", "trailing-blank-row"])
    def test_grammar_rejects_lenient_spellings(self, text, line):
        oracle_parse_dataset(text, META)
        with pytest.raises(ValueError, match=rf"^data\.csv, line {line}: "):
            pt.parse_dataset(text, META, "data.csv")

    @pytest.mark.parametrize("bad, message", [
        ("1,2", "2 cells, header has 3"),
        ("99999999999999999999,2,0.5", "cell 1 is not 1 to 18 ASCII digits"),
        ("1,,0.5", "cell 2 is not 1 to 18 ASCII digits: ''"),
        ("1,x,0.5", "cell 2 is not 1 to 18 ASCII digits: 'x'"),
        ("1,2,watts", "could not convert string to float"),
        ("1,2,0.5\r", "carriage return"),
        ("", "blank line")])
    @pytest.mark.parametrize("cells", [3, 9, 1 << 16])
    @pytest.mark.parametrize("row", [0, 4, 9])
    def test_error_names_first_bad_line(self, bad, message, cells, row):
        lines = ["a,b,power_w"] + [f"{i},7,0.5" for i in range(10)]
        lines[1 + row] = bad
        # a later fault of another kind in the same block is not reported
        lines.insert(2 + row, "1,2,3,0.5")
        text = "\n".join(lines) + "\n"
        with small_blocks(cells):
            with pytest.raises(ValueError) as err:
                pt.parse_dataset(text.encode(), META, "data.csv")
        assert str(err.value).startswith(f"data.csv, line {row + 2}: ")
        assert message in str(err.value)

    def test_zero_column_rows_are_the_power_alone(self):
        ds = Dataset(np.zeros((3, 0), np.int64), np.array([1.0, 0.5, 2e-3]),
                     (), 300, 1e8)
        text = pt.dataset_csv_text(ds)
        assert text == "power_w\n1.0\n0.5\n0.002\n"
        assert same_dataset(pt.parse_dataset(text, META), ds)

    def test_repeated_header_name_rejected(self):
        # select_features(["a"]) would otherwise read the second column
        with pytest.raises(ValueError,
                           match="data.csv: feature_names must be unique"):
            pt.parse_dataset("a,a,power_w\n1,2,0.5\n", META, "data.csv")

    def test_empty_and_header_only(self):
        with pytest.raises(ValueError, match="data.csv: empty file"):
            pt.parse_dataset(b"", META, "data.csv")
        for text in ("a,power_w", "a,power_w\n"):
            ds = pt.parse_dataset(text, META)
            assert ds.features.shape == (0, 1) and ds.feature_names == ("a",)


class TestCompose:
    def test_additive_composite(self):
        a = pt.simulate_dataset(small_design(seed=1), 10, 300, 1)
        b = pt.simulate_dataset(small_design(seed=2), 10, 300, 2)
        comp = pt.compose_datasets([("x", a), ("y", b)])
        assert comp.n_features == 100
        assert comp.feature_names[0] == "x." + a.feature_names[0]
        assert np.allclose(comp.powers, a.powers + b.powers)

    def test_repeated_prefix_rejected(self):
        a = pt.simulate_dataset(small_design(seed=1), 10, 300, 1)
        with pytest.raises(ValueError, match="feature_names must be unique"):
            pt.compose_datasets([("x", a), ("x", a)])

    def test_sample_count_mismatch_rejected(self):
        a = pt.simulate_dataset(small_design(seed=1), 10, 300, 1)
        b = pt.simulate_dataset(small_design(seed=2), 11, 300, 2)
        with pytest.raises(ValueError):
            pt.compose_datasets([("x", a), ("y", b)])


class TestRangeRule:
    """Lower bounds, positive numbers and distinct names each go through
    one helper beside _value: _at_least, _positive and _names."""

    def test_helpers_return_what_value_returns(self):
        assert _at_least(3, int, 1, "k") == 3
        assert type(_at_least(np.uint8(3), int, 1, "k")) is int
        assert _at_least(0, float, 0, "x") == 0.0
        assert type(_at_least(0, float, 0, "x")) is float
        assert _positive(np.int64(2), "f") == 2.0
        assert type(_positive(np.int64(2), "f")) is float
        assert _names(["a", "b"], "ids") == ("a", "b")

    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda: _at_least(0, int, 1, "k"), "k must be >= 1, not 0",
                     id="_at_least"),
        pytest.param(lambda: _at_least(True, int, 1, "k"),
                     "k must be an integer, not True", id="_at_least-kind"),
        pytest.param(lambda: _positive(0, "f"), "f must be finite and > 0, "
                     "not 0", id="_positive"),
        pytest.param(lambda: _positive(float("nan"), "f"),
                     "f must be a finite number, not nan", id="_positive-kind"),
        pytest.param(lambda: _names(("a", "a"), "ids"), "ids must be unique",
                     id="_names"),
        pytest.param(lambda: _names("ab", "ids"), "ids must be a list, not "
                     "'ab'", id="_names-kind"),
        pytest.param(lambda: DesignSpec(4, static_power=-0.5),
                     "static_power must be >= 0, not -0.5",
                     id="DesignSpec-static_power"),
        pytest.param(lambda: DesignSpec(-1), "n_linear_nets must be >= 0, "
                     "not -1", id="DesignSpec-n_linear_nets"),
        pytest.param(lambda: DesignSpec(4, n_nonlinear_units=-2),
                     "n_nonlinear_units must be >= 0, not -2",
                     id="DesignSpec-n_nonlinear_units"),
        pytest.param(lambda: DesignSpec(4, nonlinear_strength=-0.1),
                     "nonlinear_strength must be >= 0, not -0.1",
                     id="DesignSpec-nonlinear_strength"),
        pytest.param(lambda: DesignSpec(4, correlation_groups=0),
                     "correlation_groups must be >= 1, not 0",
                     id="DesignSpec-correlation_groups"),
        pytest.param(lambda: DesignSpec(4, vdd=0.0),
                     "vdd must be finite and > 0, not 0.0", id="DesignSpec-vdd"),
        pytest.param(lambda: DesignSpec(4, clock_freq=-1),
                     "clock_freq must be finite and > 0, not -1",
                     id="DesignSpec-clock_freq"),
        pytest.param(lambda: dataclasses.replace(small_design(), vdd=0.0),
                     "vdd must be finite and > 0, not 0.0",
                     id="SyntheticDesign-vdd"),
        pytest.param(lambda: small_design().with_clock_freq(-1e8),
                     "clock_freq must be finite and > 0, not -100000000.0",
                     id="SyntheticDesign-clock_freq"),
        pytest.param(lambda: ToggleTrace(("a",), np.zeros(4, np.uint8)),
                     "levels must be (n_signals, n_cycles)",
                     id="ToggleTrace-ndim"),
        pytest.param(lambda: ToggleTrace(("a", "b"), np.zeros((1, 4), np.uint8)),
                     "levels must be (n_signals, n_cycles)",
                     id="ToggleTrace-rows"),
        pytest.param(lambda: Dataset(np.zeros((2, 1), np.int64), np.zeros(3),
                                     ("a",), 300, 1e8),
                     "features must be (n, F) with matching powers (n,)",
                     id="Dataset-shape"),
        pytest.param(lambda: Dataset(np.zeros((2, 2), np.int64), np.zeros(2),
                                     ("a",), 300, 1e8),
                     "feature_names must match feature columns",
                     id="Dataset-names"),
        pytest.param(lambda: Dataset(np.zeros((2, 1), np.int64), np.zeros(2),
                                     ("a",), 0, 1e8),
                     "period_cycles must be >= 1, not 0",
                     id="Dataset-period_cycles"),
        # the fields are checked before the arrays: the shape was reported
        pytest.param(lambda: Dataset(np.zeros((2, 1), np.int64), np.zeros(3),
                                     ("a", "a"), 300, 1e8),
                     "feature_names must be unique", id="Dataset-fields-first"),
        # and before the capacitance range
        pytest.param(lambda: DesignSpec(4, capacitance_range=(0.0, 1.0),
                                        vdd=0),
                     "vdd must be finite and > 0, not 0",
                     id="DesignSpec-fields-first"),
        pytest.param(lambda: pt.dynamic_power(small_design(), np.zeros(49), 300),
                     "expected 50 activities, got shape (49,)",
                     id="dynamic_power-count"),
        pytest.param(lambda: pt.dynamic_power(small_design(), np.zeros(50), 0),
                     "period_cycles must be >= 1, not 0",
                     id="dynamic_power-period"),
        # both returned a power
        pytest.param(lambda: pt.dynamic_power(small_design(), np.zeros(50),
                                              300.5),
                     "period_cycles must be an integer, not 300.5",
                     id="dynamic_power-fraction"),
        pytest.param(lambda: pt.dynamic_power(small_design(), np.zeros(50),
                                              True),
                     "period_cycles must be an integer, not True",
                     id="dynamic_power-bool"),
        pytest.param(lambda: pt.simulate_dataset(small_design(), 0, 300, 0),
                     "n_samples must be >= 1, not 0",
                     id="simulate_dataset-n_samples"),
        pytest.param(lambda: pt.simulate_dataset(small_design(), 4, 0, 0),
                     "period_cycles must be >= 1, not 0",
                     id="simulate_dataset-period"),
        pytest.param(lambda: pt.synthesize_trace(small_design(), 0, 300, 0),
                     "n_periods must be >= 1, not 0",
                     id="synthesize_trace-n_periods"),
        pytest.param(lambda: pt.synthesize_trace(small_design(), 2, -3, 0),
                     "period_cycles must be >= 1, not -3",
                     id="synthesize_trace-period"),
        pytest.param(lambda: pt.compose_datasets([]), "need at least one part",
                     id="compose_datasets-empty"),
        pytest.param(lambda: pt.parse_design("[1]"),
                     "design: not a JSON object", id="_json_doc-list"),
        pytest.param(lambda: pt.parse_dataset(b"\xff,power_w\n1,0.5\n", META),
                     "dataset, line 1: 'utf-8' codec can't decode byte 0xff",
                     id="parse_dataset-header-bytes"),
        # IndexError and TypeError before
        pytest.param(lambda: pt.activity(levels_trace({"a": [0, 1, 0]}), "a",
                                         0.5, 3),
                     "t_start must be an integer, not 0.5",
                     id="activity-fraction"),
        pytest.param(lambda: pt.activity(levels_trace({"a": [0, 1, 0]}), "a",
                                         True, 3),
                     "t_start must be an integer, not True", id="activity-bool"),
        pytest.param(lambda: pt.activity(levels_trace({"a": [0, 1, 0]}), "a",
                                         -1, 3),
                     "t_start must be >= 0, not -1", id="activity-negative"),
        pytest.param(lambda: pt.activity(levels_trace({"a": [0, 1, 0]}), "a",
                                         2, 1),
                     "t_end must be >= 2, not 1", id="activity-reversed"),
        pytest.param(lambda: pt.activity(levels_trace({"a": [0, 1, 0]}), "a",
                                         0, 4),
                     "t_end must not exceed n_cycles 3", id="activity-past-end"),
    ])
    def test_rejected(self, make, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()


class TestInvariants:
    def test_rates_stay_probabilities(self):
        assert all(0 < m < 1 for m in RATE_MODES)

    def test_select_features_rejects_a_repeat(self):
        ds = Dataset(np.array([[1, 2]]), np.array([0.5]), ("a", "b"), 300, 1e8)
        assert ds.select_features(["b"]).features.tolist() == [[2]]
        with pytest.raises(ValueError, match="feature_names must be unique"):
            ds.select_features(["b", "b"])

    @pytest.mark.parametrize("make, message", [
        (lambda: DesignSpec(4, vdd=float("nan")),
         "vdd must be a finite number, not nan"),
        (lambda: DesignSpec(4, static_power=float("inf")),
         "static_power must be a finite number, not inf"),
        (lambda: DesignSpec(4, nonlinear_strength="8"),
         "nonlinear_strength must be a finite number, not '8'"),
        (lambda: pt.PdnModel(conduction_resistance=float("nan")),
         "conduction_resistance must be a finite number, not nan"),
        (lambda: pt.PdnModel(output_voltage=float("inf")),
         "output_voltage must be a finite number, not inf"),
        (lambda: pt.MonitorConfig(3, 2.5),
         "estimation_period must be an integer, not 2.5"),
        (lambda: pt.MonitorConfig(True, 300),
         "n_counters must be an integer, not True"),
        (lambda: small_design().with_clock_freq(float("nan")),
         "clock_freq must be a finite number, not nan"),
        (lambda: dataclasses.replace(small_design(), vdd=float("inf")),
         "vdd must be a finite number, not inf"),
        (lambda: dataclasses.replace(small_design(), static_power=-1.0),
         "static_power must be >= 0"),
        (lambda: Dataset(np.array([[1, 2]]), np.array([1.0]), (1, 2), 300,
                         1e8), "feature_names[0] must be a string, not 1"),
        (lambda: pt.simulate_dataset(small_design(), 2.5, 300, 0),
         "n_samples must be an integer, not 2.5"),
        (lambda: pt.simulate_dataset(small_design(), 4, 300, 1.5),
         "seed must be an integer, not 1.5"),
        (lambda: pt.synthesize_trace(small_design(), 2.5, 300, 0),
         "n_periods must be an integer, not 2.5"),
        (lambda: pt.synthesize_trace(small_design(), 2, 300, 1.5),
         "seed must be an integer, not 1.5"),
        (lambda: pt.rank_signals_by_activity(TINY, 2.5),
         "top_m must be an integer, not 2.5"),
        (lambda: pt.rank_signals_by_activity(TINY, True),
         "top_m must be an integer, not True"),
    ], ids=["DesignSpec-vdd", "DesignSpec-static_power",
            "DesignSpec-nonlinear_strength", "PdnModel-conduction_resistance",
            "PdnModel-output_voltage", "MonitorConfig-estimation_period",
            "MonitorConfig-n_counters", "SyntheticDesign-clock_freq",
            "SyntheticDesign-vdd", "SyntheticDesign-static_power",
            "Dataset-feature_names", "simulate_dataset-n_samples",
            "simulate_dataset-seed", "synthesize_trace-n_periods",
            "synthesize_trace-seed", "rank_signals_by_activity-fraction",
            "rank_signals_by_activity-bool"])
    def test_config_number_follows_the_value_rule(self, make, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()

    @pytest.mark.parametrize("make, message", [
        (lambda: pt.Net("n", float("nan"), 0),
         "capacitance must be a finite number, not nan"),
        (lambda: pt.Net("n", -1e-9, 0), "capacitance must be >= 0"),
        (lambda: pt.Net("n", 1e-12, 2.5), "group must be an integer, not 2.5"),
        (lambda: pt.Net("n", 1e-12, -1), "group must be >= 0"),
        (lambda: pt.Net(5, 1e-12, 0), "id must be a string, not 5"),
        (lambda: pt.NonlinearUnit((), 1.0), "nonlinear unit with no inputs"),
        (lambda: pt.NonlinearUnit(("n", 1), 1.0),
         "inputs[1] must be a string, not 1"),
        (lambda: pt.NonlinearUnit(("n",), float("inf")),
         "coefficient must be a finite number, not inf"),
        (lambda: ToggleTrace(("a", "a"), np.zeros((2, 4), np.uint8)),
         "signal_ids must be unique"),
        (lambda: ToggleTrace(("a", 1), np.zeros((2, 4), np.uint8)),
         "signal_ids[1] must be a string, not 1"),
        (lambda: pt.SyntheticDesign((pt.Net("n", 1e-12, 0),) * 2, (), 1.0,
                                    1e8, 0.0), "net ids must be unique"),
        (lambda: pt.SyntheticDesign(
            (pt.Net("n", 1e-12, 0),), (pt.NonlinearUnit(("m",), 1.0),), 1.0,
            1e8, 0.0), "unit references unknown nets: ['m']"),
    ], ids=["Net-nan", "Net-negative", "Net-group-fraction",
            "Net-group-negative", "Net-id", "NonlinearUnit-empty",
            "NonlinearUnit-input", "NonlinearUnit-inf", "ToggleTrace-repeat",
            "ToggleTrace-id", "SyntheticDesign-repeat",
            "SyntheticDesign-unknown"])
    def test_bad_design_part_rejected(self, make, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()

    # each raised AttributeError or TypeError
    @pytest.mark.parametrize("make, message", [
        (lambda: Dataset([[1]], np.array([1.0]), ("a",), 300, 1e8),
         "features must be a ndarray, not a list"),
        (lambda: Dataset(np.array([[1]]), [1.0], ("a",), 300, 1e8),
         "powers must be a ndarray, not a list"),
        (lambda: ToggleTrace(("a",), [[0, 1]]),
         "levels must be a ndarray, not a list"),
        (lambda: pt.SyntheticDesign(("n",), (), 1.0, 1e8, 0.0),
         "nets[0] must be a Net, not a str"),
        (lambda: pt.SyntheticDesign((), ("u",), 1.0, 1e8, 0.0),
         "nonlinear_units[0] must be a NonlinearUnit, not a str"),
        (lambda: pt.SyntheticDesign(pt.Net("n", 1e-12, 0), (), 1.0, 1e8, 0.0),
         "nets must be a list"),
    ], ids=["Dataset-features", "Dataset-powers", "ToggleTrace-levels",
            "SyntheticDesign-net", "SyntheticDesign-unit",
            "SyntheticDesign-nets"])
    def test_field_of_wrong_class_rejected(self, make, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()

    def test_design_parts_are_stored_as_tuples(self):
        net, unit = pt.Net("n", 1e-12, 0), pt.NonlinearUnit(("n",), 1.0)
        design = pt.SyntheticDesign([net], [unit], 1.0, 1e8, 0.0)
        assert type(design.nets) is tuple and type(design.nonlinear_units) \
            is tuple
        assert design == pt.SyntheticDesign((net,), (unit,), 1.0, 1e8, 0.0)

    def test_integer_design_round_trips(self):
        # integers are stored as the floats a loaded design holds, and a
        # numpy integer as a Python one, which JSON can write
        design = pt.SyntheticDesign((pt.Net("n", 1e-12, np.int64(0)),), (),
                                    1, 10**8, 0)
        text = pt.design_text(design)
        assert pt.design_text(pt.parse_design(text)) == text
        assert_plain([design.vdd, design.clock_freq, design.static_power],
                     float)
        assert_plain([design.nets[0].group], int)

    def test_dataset_fields_are_stored_as_their_kinds(self):
        ds = Dataset(np.array([[1]]), np.array([1.0]), ["a"], 300, 10**8)
        assert type(ds.feature_names) is tuple and ds.feature_names == ("a",)
        assert '"clock_freq_hz": 100000000.0' in pt.dataset_meta_text(ds)

    def test_trace_ids_are_stored_as_a_tuple(self):
        trace = ToggleTrace(["a", "b"], np.zeros((2, 4), np.uint8))
        assert trace.signal_ids == ("a", "b")
        assert trace.signal_index("b") == 1

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[301]]), np.array([1.0]), ("a",), 300, 1e8)
        with pytest.raises(ValueError):
            Dataset(np.array([[3]]), np.array([-1.0]), ("a",), 300, 1e8)

    @pytest.mark.parametrize("period, freq, message", [
        (300, 0.0, "clock_freq"), (300, -1e8, "clock_freq"),
        (300, np.nan, "clock_freq"), (300, np.inf, "clock_freq"),
        (60.5, 1e8, "period_cycles"), (300.0, 1e8, "period_cycles"),
        (True, 1e8, "period_cycles"), (0, 1e8, "period_cycles")])
    def test_bad_clock_or_period_rejected(self, period, freq, message):
        with pytest.raises(ValueError, match=message):
            Dataset(np.array([[1]]), np.array([1.0]), ("a",), period, freq)

    @pytest.mark.parametrize("freq", ["1e8", True, None])
    def test_non_number_clock_rejected(self, freq):
        with pytest.raises(ValueError,
                           match="clock_freq must be a finite number"):
            Dataset(np.array([[1]]), np.array([1.0]), ("a",), 300, freq)

    def test_numpy_integer_period_accepted(self):
        ds = Dataset(np.array([[1]]), np.array([1.0]), ("a",), np.int64(300),
                     1e8)
        assert ds.period_cycles == 300

    def test_fractional_meta_period_rejected(self):
        meta = json.dumps({"period_cycles": 60.5, "clock_freq_hz": 1e8})
        with pytest.raises(ValueError, match=re.escape(
                "data.csv meta: field 'period_cycles'")):
            pt.parse_dataset("a,power_w\n1,1.0\n", meta, "data.csv")

    @pytest.mark.parametrize("power", [np.nan, np.inf, -np.inf])
    def test_non_finite_power_rejected(self, power):
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([[3], [4]]), np.array([1.0, power]), ("a",),
                    300, 1e8)

    # a string array raised TypeError; bool and complex ones were stored
    @pytest.mark.parametrize("powers", [
        np.array(["1", "2"]), np.array([True, False]), np.array([1.0, 2j]),
        np.array([1.0, 2.0], dtype=object)], ids=["str", "bool", "complex",
                                                  "object"])
    def test_non_real_powers_rejected(self, powers):
        with pytest.raises(ValueError,
                           match="true dynamic powers must be finite numbers"):
            Dataset(np.array([[3], [4]]), powers, ("a",), 300, 1e8)

    def test_integer_powers_accepted(self):
        ds = Dataset(np.array([[3], [4]]), np.array([1, 2]), ("a",), 300, 1e8)
        assert ds.powers.tolist() == [1, 2]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, bool])
    def test_non_integer_features_rejected(self, dtype):
        with pytest.raises(ValueError, match="integers"):
            Dataset(np.array([[3], [4]], dtype=dtype), np.array([1.0, 2.0]),
                    ("a",), 300, 1e8)

    @pytest.mark.parametrize("rows", [
        np.array([True, False, True]), [0.9], np.array([1.0, 0.0])],
        ids=["mask", "fraction", "float"])
    def test_take_needs_integer_indices(self, rows):
        ds = Dataset(np.array([[1], [2], [3]]), np.array([1.0, 2.0, 3.0]),
                     ("a",), 300, 1e8)
        with pytest.raises(ValueError, match=re.escape(
                "rows must be a list of indices in [0, 3)")):
            ds.take(rows)

    def test_take_reads_integer_indices(self):
        ds = Dataset(np.array([[1], [2], [3]]), np.array([1.0, 2.0, 3.0]),
                     ("a",), 300, 1e8)
        assert ds.take(np.array([2, 0], dtype=np.uint8)).features.tolist() \
            == [[3], [1]]
        assert ds.take((1,)).powers.tolist() == [2.0]
        assert len(ds.take([])) == 0

    def test_unsigned_features_accepted(self):
        ds = Dataset(np.array([[3], [4]], dtype=np.uint16),
                     np.array([1.0, 2.0]), ("a",), 300, 1e8)
        assert len(ds) == 2


class TestNarrowStorage:
    """A Dataset stores its counts in the narrowest unsigned dtype that
    holds period_cycles, and checks every count before it narrows it."""

    @pytest.mark.parametrize("period, dtype", [
        (1, np.uint8), (255, np.uint8), (256, np.uint16), (300, np.uint16),
        (2**16, np.uint32), (2**40, np.uint64), (2**70, np.uint64)])
    def test_dtype_follows_the_period(self, period, dtype):
        ds = Dataset(np.array([[0], [1]]), np.array([1.0, 2.0]), ("a",),
                     period, 1e8)
        assert ds.features.dtype == dtype
        assert ds.features.tolist() == [[0], [1]]

    def test_narrow_counts_kept_as_they_are(self):
        f = np.array([[3, 1], [4, 300]], dtype=np.uint16)
        ds = Dataset(f, np.array([1.0, 2.0]), ("a", "b"), 300, 1e8)
        assert ds.features is f
        for derived in (ds.take([1, 0]), ds.select_features(["b", "a"]),
                        pt.compose_datasets([("x", ds), ("y", ds)])):
            assert derived.features.dtype == np.uint16

    def test_simulated_and_parsed_counts_are_narrow(self):
        ds = pt.simulate_dataset(small_design(), 30, 300, seed=1)
        back = pt.parse_dataset(pt.dataset_csv_text(ds),
                                pt.dataset_meta_text(ds))
        assert ds.features.dtype == back.features.dtype == np.uint16
        assert np.array_equal(back.features, ds.features)

    # 65541 would be stored as 5 in uint16
    @pytest.mark.parametrize("count", [301, 2**16 + 5])
    def test_count_above_the_period_is_never_stored(self, count):
        meta = pt.dataset_meta_text(Dataset(np.zeros((1, 1), np.int64),
                                            np.ones(1), ("a",), 300, 1e8))
        with pytest.raises(ValueError, match=re.escape(
                "dataset: activity counts must lie in [0, period_cycles]")):
            pt.parse_dataset(f"a,power_w\n3,0.5\n{count},1.0\n", meta)

    def test_parse_peaks_below_an_int64_matrix(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.integers(0, 301, (20000, 100)),
                     rng.uniform(0.0, 2.0, 20000),
                     tuple(f"n{j}" for j in range(100)), 300, 1e8)
        csv, meta = pt.dataset_csv_text(ds).encode(), pt.dataset_meta_text(ds)
        del ds
        tracemalloc.start()
        try:
            back = pt.parse_dataset(csv, meta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the counts as int64 would take 15.3 MB alone; as uint16 they take
        # 3.8 MB beside the line index of the 7.3 MB text
        assert back.features.dtype == np.uint16
        assert peak < 12 * 2**20


class TestTableRows:
    """workload._table_rows reads back what _table_text writes, and nothing
    else."""

    COLUMNS = [("period", int), ("estimate_mw", float)]
    TEXT = _table_text(["period", "estimate_mw", "net_a"],
                       [(0, 1.5, 3), (1, 1e-05, 0), (2, 7.0, 12)])

    def test_round_trip(self):
        rows = _table_rows(self.TEXT, self.COLUMNS, int, "t.csv")
        assert rows == [(0, 1.5, 3), (1, 1e-05, 0), (2, 7.0, 12)]
        assert_plain([r[1] for r in rows], float)
        assert _table_rows(self.TEXT.rstrip("\n").encode(), self.COLUMNS,
                           int, "t.csv") == rows

    @pytest.mark.parametrize("text, message", [
        ("period,estimate_mw,net_a\n0,1.5\n", "line 2: 2 cells, header has 3"),
        ("period,estimate_mw,net_a\n0,1.5,3\n\n", "line 3: 1 cells"),
        ("period,estimate_mw,net_a\n0,1.5,3\r\n", "line 2: net_a must be an "
                                                  "integer, not '3\\r'"),
        ("period,estimate_mw,net_a\n0, 1.5,3\n", "line 2: estimate_mw must "
                                                 "be a finite number, not ' "),
        ("period,estimate_mw,net_a\n1_0,1.5,3\n", "line 2: period must be an "
                                                  "integer, not '1_0'"),
        ("period,estimate_mw,net_a\n0.0,1.5,3\n", "line 2: period must be an "
                                                  "integer, not '0.0'"),
        ("period,estimate_mw,net_a\n0,2,3\n", "line 2: estimate_mw must be "
                                              "a finite number, not '2'"),
        ("period,estimate_mw,net_a\n0,inf,3\n", "line 2: estimate_mw must be "
                                                "a finite number, not inf"),
        ("period,estimate_mw,net_a\n0,1e3,3\n", "line 2: estimate_mw must be "
                                                "a finite number, not '1e3'"),
        ("period,estimate,net_a\n", "line 1: the header must begin with "
                                    "'period,estimate_mw'"),
        ("", "line 1: the header must begin with"),
    ])
    def test_text_the_writer_never_makes_is_rejected(self, text, message):
        with pytest.raises(ValueError, match=re.escape(f"t.csv, {message}")):
            _table_rows(text, self.COLUMNS, int, "t.csv")

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutant_read_is_what_the_writer_makes(self, data):
        text = _mutant(data, self.TEXT)
        try:
            rows = _table_rows(text, self.COLUMNS, int, "t.csv")
        except ValueError:
            return
        header = text.decode().split("\n", 1)[0].split(",")
        assert _table_text(header, rows) == text.decode().rstrip("\n") + "\n"


class TestWorkloadFuzz:
    """Mutants of a small design.json, dataset.csv and its meta file, by
    the fuzz of test_model: each parses or raises ValueError, and what
    parses holds plain finite floats and ints in its number fields."""

    DESIGN = pt.design_text(small_design(n_linear_nets=6, n_nonlinear_units=1,
                                         correlation_groups=2))
    META = pt.dataset_meta_text(
        Dataset(np.array([[3]]), np.array([0.5]), ("a",), 300, 1e8), 1.0)
    CSV = pt.dataset_csv_text(Dataset(
        np.array([[3, 0, 300], [12, 7, 1]]), np.array([0.5, 1.25]),
        ("a", "b", "c"), 300, 1e8))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_design_mutant_parses_or_fails_cleanly(self, data):
        try:
            design = pt.parse_design(_mutant(data, self.DESIGN))
        except ValueError:
            return
        assert_plain([design.vdd, design.clock_freq, design.static_power]
                     + [n.capacitance for n in design.nets]
                     + [u.coefficient for u in design.nonlinear_units], float)
        assert_plain([n.group for n in design.nets], int)
        assert_plain([n.id for n in design.nets] + [
            s for u in design.nonlinear_units for s in u.inputs], str)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_dataset_mutant_parses_or_fails_cleanly(self, data):
        csv, meta = self.CSV, self.META
        if data.draw(st.booleans()):
            csv = _mutant(data, csv)
        else:
            meta = _mutant(data, meta)
        try:
            ds = pt.parse_dataset(csv, meta)
        except ValueError:
            return
        assert ds.features.dtype == np.min_scalar_type(
            min(ds.period_cycles, 2**64 - 1))
        assert_plain(ds.powers.tolist() + [ds.clock_freq], float)
        assert_plain([ds.period_cycles], int)
        assert_plain(ds.feature_names, str)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_meta_mutant_parses_or_fails_cleanly(self, data):
        try:
            ds = pt.parse_dataset("a,power_w\n3,0.5\n",
                                  _mutant(data, self.META))
        except ValueError:
            return
        assert_plain([ds.clock_freq], float)
        assert_plain([ds.period_cycles], int)


def assert_holds(value, kind) -> None:
    """``value`` is of the ``workload._value`` kind ``kind``, normalized: a
    list kind as a tuple of plain entries, a class kind as an instance."""
    if isinstance(kind, (list, tuple)):
        kinds = kind * len(value) if isinstance(kind, list) else kind
        assert type(value) is tuple and len(value) == len(kinds), value
        for entry, each in zip(value, kinds):
            assert_holds(entry, each)
    elif kind in (int, float, str):
        assert_plain([value], kind)
    else:
        assert isinstance(value, kind), value


class TestValueClassFuzz:
    """Every field of the 15 value dataclasses drawn from ints, floats (NaN
    and infinities too), bools, strings, None, nets, units, trees, arrays
    of eight dtypes, lists and tuples: each build holds each field in the kind
    its annotation names, as a plain int, finite float, instance or tuple,
    or raises ValueError, never AttributeError or TypeError."""

    TREE = pt.fit_tree(TINY, pt.HyperParams(1, 2, 1, 0.0))
    # a valid value of every field of each class with a field of no default
    VALID = {
        pt.SyntheticDesign: dict(nets=(pt.Net("a", 1e-12, 0),),
                                 nonlinear_units=(), vdd=1.0, clock_freq=1e8,
                                 static_power=0.5),
        ToggleTrace: dict(signal_ids=("a",), levels=np.zeros((1, 4), np.uint8)),
        Dataset: dict(features=np.ones((2, 1), np.int64), powers=np.ones(2),
                      feature_names=("a",), period_cycles=300, clock_freq=1e8),
        pt.LinearModel: dict(weights=np.array([1e-3]), intercept=0.5,
                             model_freq=1e8, feature_ids=("a",)),
        pt.TreeMemoryImage: dict(words=np.array(
            [pt.node_encode(pt.MemNode(True, value=5))], np.uint64),
            n_nodes=1, max_depth=0, leaf_unit=1.0),
        pt.EnsembleModel: dict(components=((TREE, ("a", "b")),)),
    }
    CLASSES = (DesignSpec, pt.HyperParams, pt.Grid, pt.PdnModel,
               pt.PhaseLut, pt.MonitorConfig, pt.CounterState, pt.Net,
               pt.NonlinearUnit, *VALID)
    SCALARS = st.one_of(st.integers(-2, 70), st.integers(), st.floats(),
                        st.floats(0.0, 1.0), st.booleans(),
                        st.text(max_size=3), st.none(), st.sampled_from([
                            pt.Net("a", 1e-12, 0),
                            pt.NonlinearUnit(("a",), 1.0), TREE]))
    ARRAYS = arrays(st.sampled_from([bool, np.uint8, np.int64, np.uint64,
                                     np.float32, np.float64, complex, "U2"]),
                    st.lists(st.integers(0, 3), max_size=2).map(tuple))
    VALUES = st.one_of(SCALARS, ARRAYS, st.lists(SCALARS, max_size=4),
                       st.lists(SCALARS, max_size=4).map(tuple),
                       st.tuples(st.just(TREE), st.lists(st.text(max_size=2),
                                                         max_size=3)))

    @given(st.sampled_from(CLASSES), st.data())
    @settings(max_examples=600, deadline=None)
    def test_build_holds_its_kinds_or_raises_value_error(self, cls, data):
        # a field with a default or a valid value keeps it half the time,
        # so that more builds succeed
        valid = self.VALID.get(cls, {})
        kw = {f.name: data.draw(self.VALUES, label=f.name)
              for f in dataclasses.fields(cls)
              if f.default is dataclasses.MISSING and f.name not in valid
              or data.draw(st.booleans())}
        try:
            obj = cls(**{**valid, **kw})
        except ValueError:
            return
        kinds = [_KINDS[f.type] for f in dataclasses.fields(obj)]
        for f, kind in zip(dataclasses.fields(obj), kinds):
            assert_holds(getattr(obj, f.name), kind)
        if np.ndarray not in kinds:  # an array field is not hashable
            hash(obj)
