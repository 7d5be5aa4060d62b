"""Multi-phase regulator efficiency and runtime phase shedding.

Loss family: each active phase costs a fixed loss, and conduction loss is
(I_out^2 * R) shared across phases, so

    input_power(load, n) = load + n*fixed + (load/V_out)^2 * R / n

Light loads favor few phases (fixed losses dominate), heavy loads favor many
(conduction dominates), and the optimal phase count is non-decreasing in
load.  A lookup table maps power breakpoints to the efficiency-optimal phase
count; the shedding loop applies it per estimation period and reports the
relative input-power saving against always running all phases, charging a
configurable transition loss whenever the phase count changes.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .workload import (_INTEGER_TYPES, _check_fields, _json_text, _positive,
                       _table_text, _value)

__all__ = [
    "PdnModel",
    "PhaseLut",
    "input_power",
    "efficiency",
    "optimal_phases",
    "build_lut",
    "shed",
    "shed_rows",
    "lut_text",
    "shed_table_text",
]


@dataclass(frozen=True)
class PdnModel:
    max_phases: int = 5
    per_phase_fixed_loss: float = 0.1  # watts
    conduction_resistance: float = 0.02  # ohms
    output_voltage: float = 1.0  # volts
    transition_loss: float = 0.0  # average watts over a period, per change
    nominal_power: float = 20.0  # watts

    def __post_init__(self) -> None:
        _check_fields(self, max_phases=1, per_phase_fixed_loss=0,
                      conduction_resistance=0, output_voltage=_positive,
                      transition_loss=0)


@dataclass(frozen=True)
class PhaseLut:
    """Ascending power breakpoints mapped to optimal phase counts.

    A breakpoint's decision applies from that power up to the next
    breakpoint; loads below the first breakpoint use the first decision.
    """

    breakpoints: tuple[float, ...]
    phases: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_fields(self)
        if not self.breakpoints or len(self.breakpoints) != len(self.phases):
            raise ValueError("breakpoints and phases must align, non-empty")
        if any(b >= a for a, b in zip(self.breakpoints[1:], self.breakpoints)):
            raise ValueError("breakpoints must be strictly ascending")
        if min(self.phases) < 1:
            raise ValueError("phase counts must all be >= 1")

    def lookup(self, power: float) -> int:
        if not -math.inf < power < math.inf:
            raise ValueError(f"power must be finite, not {power!r}")
        i = bisect.bisect_right(self.breakpoints, power) - 1
        return self.phases[max(i, 0)]


def input_power(model: PdnModel, load: float, n: int) -> float:
    """Total power drawn from the input rail to deliver `load` on n phases;
    load must be finite and >= 0, n an integer in [1, max_phases]."""
    if not (type(n) in _INTEGER_TYPES and 1 <= n <= model.max_phases):
        raise ValueError(f"n must be an integer in [1, {model.max_phases}], "
                         f"not {n!r}")
    if not 0 <= load < math.inf:
        raise ValueError(f"load must be finite and >= 0, not {load!r}")
    current = load / model.output_voltage
    return (load + n * model.per_phase_fixed_loss
            + current * current * model.conduction_resistance / n)


def efficiency(model: PdnModel, load: float, n: int) -> float:
    total = input_power(model, load, n)
    return load / total if total > 0 else 0.0


def optimal_phases(model: PdnModel, load: float) -> int:
    """Phase count maximizing efficiency; ties pick fewer phases."""
    best_n, best_in = 1, input_power(model, load, 1)
    for n in range(2, model.max_phases + 1):
        p = input_power(model, load, n)
        if p < best_in:
            best_n, best_in = n, p
    return best_n


def _phase_boundary(model: PdnModel, n_from: int, lo: float,
                    hi: float) -> float:
    """Smallest representable load in (lo, hi] whose optimal phase count
    exceeds n_from, found by bisection (the optimum is non-decreasing)."""
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if optimal_phases(model, mid) > n_from:
            hi = mid
        else:
            lo = mid
    return hi


def build_lut(model: PdnModel, power_grid) -> PhaseLut:
    """Tabulate the optimal phase count over an ascending power grid.

    Breakpoints are placed exactly where the optimal count changes: each
    crossing between grid points is bisected down to the float boundary, so
    LUT decisions are pointwise optimal everywhere, not just on the grid.
    """
    grid = _value(list(power_grid), [float], "power_grid")
    if len(grid) < 2:
        raise ValueError("power grid needs at least 2 points")
    if any(b >= a for a, b in zip(grid[1:], grid)):
        raise ValueError("power grid must be strictly ascending")
    decisions = [optimal_phases(model, p) for p in grid]
    if any(b > a for a, b in zip(decisions[1:], decisions)):
        raise ValueError("optimal phase count must be non-decreasing in load")
    breakpoints = [grid[0]]
    phases = [decisions[0]]
    for lo, hi, target in zip(grid, grid[1:], decisions[1:]):
        while phases[-1] != target:
            edge = _phase_boundary(model, phases[-1], lo, hi)
            breakpoints.append(edge)
            phases.append(optimal_phases(model, edge))
            lo = edge
    return PhaseLut(tuple(breakpoints), tuple(phases))


def shed(model: PdnModel, lut: PhaseLut,
         powers) -> tuple[list[int], float]:
    """Phase decision per period plus the efficiency improvement

        1 - sum_i(P_opt(i) + P_loss(i)) / sum_i P_max(i)

    where P_opt / P_max are input powers under the LUT decision and the full
    phase count, and P_loss charges transition_loss whenever the decision
    changes between consecutive periods.  Both are read from shed_rows:
    its phases column and its last cumulative improvement.
    """
    rows = shed_rows(model, lut, powers)
    return [r[2] for r in rows], rows[-1][3]


def shed_rows(model: PdnModel, lut: PhaseLut,
              powers) -> list[tuple[int, float, int, float]]:
    """(period, power, phases, cumulative efficiency improvement) rows;
    each power must be a finite number."""
    powers = [_value(p, float, "power") for p in powers]
    if not powers:
        raise ValueError("powers must be non-empty")
    rows = []
    opt_total = 0.0
    max_total = 0.0
    prev = None
    for i, p in enumerate(powers):
        n = lut.lookup(p)
        opt_total += input_power(model, p, n)
        if prev is not None and n != prev:
            opt_total += model.transition_loss
        max_total += input_power(model, p, model.max_phases)
        rows.append((i, p, n, 1.0 - opt_total / max_total))
        prev = n
    return rows


def shed_table_text(rows) -> str:
    return _table_text(["period", "power_w", "phases", "cumulative_eff_impv"],
                       rows)


def lut_text(lut: PhaseLut) -> str:
    doc = {
        "format": "powertree-lut-v1",
        "breakpoints_w": list(lut.breakpoints),
        "phases": list(lut.phases),
    }
    return _json_text(doc)

