import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powertree as pt

MODEL = pt.PdnModel()  # 5 phases, 0.1 W fixed, 0.02 ohm, 1 V


class TestInputPower:
    def test_hand_values_light_load(self):
        assert pt.input_power(MODEL, 1.0, 1) == pytest.approx(1.12, rel=1e-12)
        assert pt.input_power(MODEL, 1.0, 5) == pytest.approx(1.504, rel=1e-12)
        assert pt.efficiency(MODEL, 1.0, 1) == pytest.approx(1 / 1.12, rel=1e-12)

    def test_hand_values_heavy_load(self):
        assert pt.input_power(MODEL, 20.0, 1) == pytest.approx(28.1, rel=1e-12)
        assert pt.input_power(MODEL, 20.0, 5) == pytest.approx(22.1, rel=1e-12)

    def test_zero_load(self):
        assert pt.input_power(MODEL, 0.0, 3) == pytest.approx(0.3, rel=1e-12)
        assert pt.efficiency(MODEL, 0.0, 3) == 0.0

    def test_input_exceeds_load(self):
        for n in range(1, 6):
            for load in (0.0, 0.5, 5.0, 20.0):
                assert pt.input_power(MODEL, load, n) > load

    def test_phase_out_of_range(self):
        with pytest.raises(ValueError):
            pt.input_power(MODEL, 1.0, 0)
        with pytest.raises(ValueError):
            pt.input_power(MODEL, 1.0, 6)

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            pt.input_power(MODEL, -1.0, 1)


class TestRangeChecks:
    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda: pt.PdnModel(max_phases=0),
                     "max_phases must be >= 1, not 0", id="max_phases"),
        pytest.param(lambda: pt.PdnModel(per_phase_fixed_loss=-0.1),
                     "per_phase_fixed_loss must be >= 0, not -0.1",
                     id="per_phase_fixed_loss"),
        pytest.param(lambda: pt.PdnModel(conduction_resistance=-1),
                     "conduction_resistance must be >= 0, not -1",
                     id="conduction_resistance"),
        pytest.param(lambda: pt.PdnModel(transition_loss=-1e-3),
                     "transition_loss must be >= 0, not -0.001",
                     id="transition_loss"),
        pytest.param(lambda: pt.PdnModel(output_voltage=0.0),
                     "output_voltage must be finite and > 0, not 0.0",
                     id="output_voltage"),
        pytest.param(lambda: pt.PhaseLut((0.0, 1.0), (1, 0)),
                     "phase counts must all be >= 1", id="PhaseLut-phases"),
        # each of these returned a number
        pytest.param(lambda: pt.input_power(MODEL, 1.0, 2.5),
                     "n must be an integer in [1, 5], not 2.5",
                     id="input_power-fraction"),
        pytest.param(lambda: pt.input_power(MODEL, 1.0, 2.0),
                     "n must be an integer in [1, 5], not 2.0",
                     id="input_power-float"),
        pytest.param(lambda: pt.input_power(MODEL, 1.0, True),
                     "n must be an integer in [1, 5], not True",
                     id="input_power-bool"),
        pytest.param(lambda: pt.input_power(MODEL, float("nan"), 2),
                     "load must be finite and >= 0, not nan",
                     id="input_power-nan"),
        pytest.param(lambda: pt.input_power(MODEL, float("inf"), 2),
                     "load must be finite and >= 0, not inf",
                     id="input_power-inf"),
        pytest.param(lambda: pt.efficiency(MODEL, float("nan"), 2),
                     "load must be finite and >= 0, not nan",
                     id="efficiency-nan"),
        pytest.param(lambda: pt.efficiency(MODEL, float("inf"), 2),
                     "load must be finite and >= 0, not inf",
                     id="efficiency-inf"),
        pytest.param(lambda: pt.optimal_phases(MODEL, float("nan")),
                     "load must be finite and >= 0, not nan",
                     id="optimal_phases-nan"),
        pytest.param(lambda: pt.build_lut(MODEL, [0.0, 20.0]).lookup(
            float("nan")), "power must be finite, not nan", id="lookup-nan"),
        pytest.param(lambda: pt.build_lut(MODEL, [0.0, 20.0]).lookup(
            float("-inf")), "power must be finite, not -inf", id="lookup-inf"),
    ])
    def test_rejected(self, make, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()

    def test_numpy_phase_count_accepted(self):
        assert pt.input_power(MODEL, 1.0, np.int64(2)) \
            == pt.input_power(MODEL, 1.0, 2)


class TestBuildLut:
    def test_single_phase_model(self):
        model = pt.PdnModel(max_phases=1)
        lut = pt.build_lut(model, [0.5, 10.0, 20.0])
        assert lut.phases == (1,)
        assert lut.breakpoints == (0.5,)

    def test_matches_brute_force_argmax_everywhere(self):
        grid = np.linspace(0.5, 20.0, 79)
        lut = pt.build_lut(MODEL, grid)
        for p in grid:
            best = max(range(1, 6), key=lambda n: (pt.efficiency(MODEL, p, n), -n))
            assert lut.lookup(p) == best

    def test_light_and_heavy_endpoints(self):
        lut = pt.build_lut(MODEL, np.linspace(0.5, 20.0, 79))
        assert lut.lookup(1.0) == 1
        assert lut.lookup(20.0) == 5

    def test_optimal_phases_non_decreasing_in_load(self):
        loads = np.linspace(0.01, 40.0, 400)
        decisions = [pt.optimal_phases(MODEL, p) for p in loads]
        assert all(b >= a for a, b in zip(decisions, decisions[1:]))

    def test_non_ascending_grid_rejected(self):
        with pytest.raises(ValueError):
            pt.build_lut(MODEL, [1.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            pt.build_lut(MODEL, [5.0])
        # a NaN must not drop out of the grid: the LUT would give 10 W 1 phase
        for grid in ([0.25, np.nan, 40.0], [0.25, np.inf]):
            with pytest.raises(ValueError, match=re.escape(
                    "power_grid[1] must be a finite number")):
                pt.build_lut(MODEL, grid)


class TestShed:
    def _lut(self):
        return pt.build_lut(MODEL, np.linspace(0.5, 25.0, 99))

    def test_always_max_phases_improves_nothing(self):
        # heavy loads keep all 5 phases optimal, so savings are zero
        lut = self._lut()
        powers = [20.0, 22.0, 24.0]
        assert all(lut.lookup(p) == 5 for p in powers)
        _, eff = pt.shed(MODEL, lut, powers)
        assert eff == pytest.approx(0.0, abs=1e-15)

    def test_two_period_hand_value(self):
        lut = self._lut()
        decisions, eff = pt.shed(MODEL, lut, [1.0, 20.0])
        assert decisions == [1, 5]
        expect = 1.0 - (1.12 + 22.1) / (1.504 + 22.1)
        assert eff == pytest.approx(expect, rel=1e-9)

    @given(st.lists(st.floats(0.0, 25.0), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_without_transition_loss(self, powers):
        lut = self._lut()
        _, eff = pt.shed(MODEL, lut, powers)
        assert eff >= -1e-12

    def test_transition_loss_charged_per_change(self):
        model = pt.PdnModel(transition_loss=0.5)
        lut = pt.build_lut(model, np.linspace(0.5, 25.0, 99))
        powers = [1.0, 20.0, 1.0]
        decisions, eff = pt.shed(model, lut, powers)
        assert decisions == [1, 5, 1]
        opt = (pt.input_power(model, 1.0, 1) + pt.input_power(model, 20.0, 5)
               + pt.input_power(model, 1.0, 1) + 2 * 0.5)
        mx = (pt.input_power(model, 1.0, 5) + pt.input_power(model, 20.0, 5)
              + pt.input_power(model, 1.0, 5))
        assert eff == pytest.approx(1.0 - opt / mx, rel=1e-12)

    def test_causal_decisions(self):
        lut = self._lut()
        a, _ = pt.shed(MODEL, lut, [1.0, 5.0, 20.0])
        b, _ = pt.shed(MODEL, lut, [1.0, 5.0, 3.0])
        assert a[:2] == b[:2]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pt.shed(MODEL, self._lut(), [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_power_rejected(self, bad):
        with pytest.raises(ValueError,
                           match=f"power must be a finite number, not {bad}"):
            pt.shed_rows(MODEL, self._lut(), [1.0, bad, 2.0])

    @pytest.mark.parametrize("breakpoints, phases, message", [
        ((1.0,), (1.5,), "phases[0] must be an integer"),
        ((1.0, 2.0), (1, True), "phases[1] must be an integer"),
        ((np.nan,), (1,), "breakpoints[0] must be a finite number"),
        ((1.0, np.nan), (1, 2), "breakpoints[1] must be a finite number"),
        ((False, 1.0), (1, 2), "breakpoints[0] must be a finite number")])
    def test_bad_lut_entry_rejected(self, breakpoints, phases, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            pt.shed(MODEL, pt.PhaseLut(breakpoints, phases), [2.0, 3.0])

    def test_rows_cumulative_improvement(self):
        lut = self._lut()
        powers = [1.0, 20.0, 2.0, 18.0]
        rows = pt.shed_rows(MODEL, lut, powers)
        assert [r[0] for r in rows] == [0, 1, 2, 3]
        _, eff = pt.shed(MODEL, lut, powers)
        assert rows[-1][3] == eff
        text = pt.shed_table_text(rows)
        assert text.splitlines()[0] == "period,power_w,phases,cumulative_eff_impv"


class TestPersistence:
    def test_lut_round_trip(self):
        lut = pt.build_lut(MODEL, np.linspace(0.5, 25.0, 99))
        doc = json.loads(pt.lut_text(lut))
        assert tuple(doc["breakpoints_w"]) == lut.breakpoints
        assert tuple(doc["phases"]) == lut.phases

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            pt.PdnModel(max_phases=0)
        with pytest.raises(ValueError):
            pt.PdnModel(per_phase_fixed_loss=-0.1)
        with pytest.raises(ValueError):
            pt.PhaseLut((1.0, 0.5), (1, 2))
