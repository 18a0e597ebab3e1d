"""Switched-mode boost converter model.

Topology: v_s -> L (series resistance r_l) -> [switch to ground | diode -> C || R].
Three affine sub-dynamics are selected by the switch gate and the sign of the
inductor current:

    switch on:                di/dt = (v_s - r_l*i_l) / L
                              dv/dt = -v_o / (R*C)
    switch off, i_l > 0:      di/dt = (v_s - r_l*i_l - v_o) / L
                              dv/dt = i_l/C - v_o/(R*C)
    switch off, i_l = 0:      di/dt = 0          (diode blocks)
                              dv/dt = -v_o / (R*C)

One `step` advances a full PWM period with trailing-edge modulation: the switch
conducts for the first round(duty * n_sub) sub-steps, then opens.  Integration
is fixed-step RK4 on each sub-step; when an off-interval sub-step would drive
i_l below zero, the current is clamped to zero and the converter stays in the
blocked (DCM) branch until the switch closes again.

Each branch is affine, dy/dt = A y + b, so one RK4 sub-step is exactly the
affine map y -> M y + c, with M the degree-4 Taylor polynomial of e^{dt A}
(Moler & Van Loan, "Nineteen dubious ways to compute the exponential of a
matrix", SIAM Review 2003), and k sub-steps are one affine map as well.  The
k-step maps of every branch, k = 0..n_sub, are built once per `PlantParams`
and cached.  A period is then one map for the on-interval, one vectorized
pass over the off-interval's sub-steps to find where the diode stops
conducting, and one map for the blocked remainder.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

__all__ = [
    "ConductionMode",
    "PlantParams",
    "PlantState",
    "derivatives",
    "step",
    "step_averaged",
    "steady_state_hint",
]


class ConductionMode(enum.Enum):
    """Which affine branch was active at the end of the last sub-step."""

    SWITCH_ON = "on"
    SWITCH_OFF_CONDUCTING = "off_conducting"
    SWITCH_OFF_BLOCKED = "off_blocked"


_ON = ConductionMode.SWITCH_ON
_CONDUCTING = ConductionMode.SWITCH_OFF_CONDUCTING
_BLOCKED = ConductionMode.SWITCH_OFF_BLOCKED


@dataclass(frozen=True)
class PlantParams:
    """Converter constants.  Defaults follow the nominal desk setup.

    dt must divide the switching period exactly; the PWM duty is quantized to
    this sub-step grid (1% duty resolution at the default dt = T_s/100).
    """

    r_load: float = 80.0       # load resistance (ohm)
    l_ind: float = 860e-6      # inductance (H)
    c_out: float = 860e-6      # output capacitance (F)
    r_l: float = 0.1           # inductor series resistance (ohm)
    v_s: float = 60.0          # input voltage (V)
    f_sw: float = 20e3         # switching frequency (Hz)
    dt: float = 0.5e-6         # RK4 sub-step (s)

    def __post_init__(self) -> None:
        for field in fields(self):
            if not math.isfinite(getattr(self, field.name)):
                raise ValueError(f"{field.name} must be finite")
        for name in ("r_load", "l_ind", "c_out", "f_sw", "dt"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.r_l < 0.0:
            raise ValueError("r_l must be non-negative")
        n = self.t_sw / self.dt
        if abs(n - round(n)) > 1e-9 * n or round(n) < 1:
            raise ValueError(
                f"dt={self.dt} does not divide the switching period {self.t_sw}"
            )

    @property
    def t_sw(self) -> float:
        """Switching period 1/f_sw (s)."""
        return 1.0 / self.f_sw

    @property
    def substeps(self) -> int:
        """Integration sub-steps per PWM period."""
        return round(self.t_sw / self.dt)


@dataclass(frozen=True)
class PlantState:
    """Converter state at a sub-step boundary: inductor current and output voltage."""

    i_l: float = 0.0
    v_o: float = 0.0
    mode: ConductionMode = ConductionMode.SWITCH_OFF_BLOCKED

    def __post_init__(self) -> None:
        if self.i_l < 0.0:
            raise ValueError("i_l must be non-negative (diode blocks reverse current)")
        if self.v_o < 0.0:
            raise ValueError("v_o must be non-negative")


_Rows = tuple[tuple[float, float, float], tuple[float, float, float]]


def _branch_system(branch: ConductionMode, p: PlantParams) -> _Rows:
    """The affine dynamics of one branch as rows (a_i, a_v, b), one per state
    variable: d(i_l, v_o)/dt = (a_i*i_l + a_v*v_o + b for each row)."""
    inv_rc = 1.0 / (p.r_load * p.c_out)
    if branch is _ON:
        # switch closed: the inductor charges, the capacitor feeds the load
        return (-p.r_l / p.l_ind, 0.0, p.v_s / p.l_ind), (0.0, -inv_rc, 0.0)
    if branch is _CONDUCTING:
        # switch open: the inductor feeds the output through the diode
        return (
            (-p.r_l / p.l_ind, -1.0 / p.l_ind, p.v_s / p.l_ind),
            (1.0 / p.c_out, -inv_rc, 0.0),
        )
    # diode blocks: the inductor rests, the capacitor discharges into the load
    return (0.0, 0.0, 0.0), (0.0, -inv_rc, 0.0)


def _rates(system: _Rows, i_l: float, v_o: float) -> tuple[float, float]:
    """(di_l/dt, dv_o/dt) of an affine system at (i_l, v_o)."""
    (a, b, c), (d, e, f) = system
    return a * i_l + b * v_o + c, d * i_l + e * v_o + f


def derivatives(
    state: PlantState, switch_on: bool, params: PlantParams
) -> tuple[float, float]:
    """Return (di_l/dt, dv_o/dt) for the active affine branch.

    The branch is selected by the gate signal and, with the switch open, the
    sign of i_l (zero current means the diode blocks and the inductor rests).
    """
    if switch_on:
        branch = _ON
    elif state.i_l > 0.0:
        branch = _CONDUCTING
    else:
        branch = _BLOCKED
    return _rates(_branch_system(branch, params), state.i_l, state.v_o)


def _rk4_step(system: _Rows, h: float, i_l: float, v_o: float) -> tuple[float, float]:
    """One classical RK4 step of length h of an affine system."""
    k1 = _rates(system, i_l, v_o)
    k2 = _rates(system, i_l + 0.5 * h * k1[0], v_o + 0.5 * h * k1[1])
    k3 = _rates(system, i_l + 0.5 * h * k2[0], v_o + 0.5 * h * k2[1])
    k4 = _rates(system, i_l + h * k3[0], v_o + h * k3[1])
    return (
        i_l + h * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0]) / 6.0,
        v_o + h * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1]) / 6.0,
    )


class _Propagator:
    """The k-step RK4 maps of one branch, k = 0..n_sub.

    After k sub-steps from (i_l, v_o), state variable r is
    maps[r, 0, k]*i_l + maps[r, 1, k]*v_o + maps[r, 2, k].
    """

    __slots__ = ("maps",)

    def __init__(self, system: _Rows, dt: float, n_sub: int) -> None:
        # One RK4 sub-step of y' = A y + b is the affine map y -> M y + c,
        # M the degree-4 Taylor polynomial of e^{dt A}: the columns of M are
        # the steps of the linear part from the unit vectors, c the step from 0.
        linear = tuple((a, b, 0.0) for a, b, _ in system)
        (m00, m10), (m01, m11) = (
            _rk4_step(linear, dt, *unit) for unit in ((1.0, 0.0), (0.0, 1.0))
        )
        c0, c1 = _rk4_step(system, dt, 0.0, 0.0)
        # k-step maps: M_k = M M_{k-1}, c_k = M c_{k-1} + c
        maps = np.zeros((2, 3, n_sub + 1))
        maps[0, 0, 0] = maps[1, 1, 0] = 1.0
        for k in range(n_sub):
            prev_i, prev_v = maps[0, :, k], maps[1, :, k]
            maps[0, :, k + 1] = m00 * prev_i + m01 * prev_v
            maps[1, :, k + 1] = m10 * prev_i + m11 * prev_v
            maps[0, 2, k + 1] += c0
            maps[1, 2, k + 1] += c1
        maps.setflags(write=False)
        self.maps = maps

    def advance(self, k: int, i_l: float, v_o: float) -> tuple[float, float]:
        """The state after k sub-steps from (i_l, v_o)."""
        (a, b, c), (d, e, f) = self.maps[:, :, k].tolist()
        return a * i_l + b * v_o + c, d * i_l + e * v_o + f

    def values(self, r: int, k: int, i_l: float, v_o: float) -> np.ndarray:
        """State variable r (0: i_l, 1: v_o) after each of the sub-steps
        1..k from (i_l, v_o); entry j equals advance(j + 1)[r] bit for bit."""
        m = self.maps[r, :, 1 : k + 1]
        return m[0] * i_l + m[1] * v_o + m[2]


# A run meets a handful of parameter sets (3 across the scenarios, about 40
# in a full pretrain); at ~15 kB per set, 64 entries stay under 1 MB.
@lru_cache(maxsize=64)
def _propagators(params: PlantParams) -> tuple[_Propagator, _Propagator, _Propagator]:
    """Propagators of the on, conducting and blocked branches."""
    return tuple(
        _Propagator(_branch_system(branch, params), params.dt, params.substeps)
        for branch in (_ON, _CONDUCTING, _BLOCKED)
    )


# (propagator, k, start, end): k sub-steps of one branch from `start`; `end`
# is the state after the last of them, with the DCM clamp applied
_Segment = tuple[_Propagator, int, tuple[float, float], tuple[float, float]]


def _advance(
    state: PlantState, duty: float, params: PlantParams
) -> tuple[PlantState, list[_Segment]]:
    """One PWM period: the end state and the branch segments it went through."""
    if not 0.0 <= duty <= 1.0:
        raise ValueError(f"duty must lie in [0, 1], got {duty}")
    on, conducting, blocked = _propagators(params)
    n_sub = params.substeps
    n_on = round(duty * n_sub)
    n_off = n_sub - n_on
    i_l, v_o = state.i_l, state.v_o
    segments: list[_Segment] = []
    mode = _BLOCKED
    if n_on:
        start = (i_l, v_o)
        i_l, v_o = on.advance(n_on, i_l, v_o)
        if i_l <= 0.0:  # no current left: the off interval starts blocked
            i_l = 0.0
        segments.append((on, n_on, start, (i_l, v_o)))
        mode = _ON
    if n_off and i_l > 0.0:
        dcm = conducting.values(0, n_off, i_l, v_o) <= 0.0
        k = int(dcm.argmax())
        if dcm[k]:
            # DCM entry: clamp at zero for the rest of the off interval
            k += 1
            mode = _BLOCKED
        else:
            k = n_off
            mode = _CONDUCTING
        start = (i_l, v_o)
        i_l, v_o = conducting.advance(k, i_l, v_o)
        if mode is _BLOCKED:
            i_l = 0.0
        segments.append((conducting, k, start, (i_l, v_o)))
        n_off -= k
    if n_off:
        start = (i_l, v_o)
        i_l, v_o = blocked.advance(n_off, i_l, v_o)
        segments.append((blocked, n_off, start, (i_l, v_o)))
        mode = _BLOCKED
    return PlantState(i_l=i_l, v_o=v_o, mode=mode), segments


def step(state: PlantState, duty: float, params: PlantParams) -> PlantState:
    """Advance one full PWM period T_s = 1/f_sw under the given duty cycle."""
    return _advance(state, duty, params)[0]


def step_averaged(
    state: PlantState, duty: float, params: PlantParams
) -> tuple[PlantState, tuple[float, float, float]]:
    """Like `step`, additionally returning (mean i_l, mean v_o, mean v_o^2)
    over the period — the waveform averages needed for power-balance and
    volt-second checks, which per-period boundary samples would bias.

    The means are trapezoid sums over the sub-step boundary values.
    """
    new_state, segments = _advance(state, duty, params)
    # the sub-step boundary values of the period, segment by segment; each
    # segment's last value is its end, where the DCM clamp applies
    rows: tuple[list, list] = ([[state.i_l]], [[state.v_o]])
    for propagator, k, start, end in segments:
        for r in (0, 1):
            values = propagator.values(r, k, *start)
            values[-1] = end[r]
            rows[r].append(values)
    i_l, v_o = (np.concatenate(row) for row in rows)
    n_sub = params.substeps

    def mean(y: np.ndarray) -> float:
        return float((y.sum() - 0.5 * (y[0] + y[-1])) / n_sub)

    return new_state, (mean(i_l), mean(v_o), mean(v_o * v_o))


def steady_state_hint(v_set: float, v_s: float, r_load: float) -> tuple[float, float]:
    """Lossless CCM operating point for a voltage target.

    Volt-second balance gives duty = 1 - v_s/v_set; power balance gives the
    average inductor (= input) current i_set = v_set^2 / (r_load * v_s).
    """
    if v_set <= 0.0 or v_s <= 0.0 or r_load <= 0.0:
        raise ValueError("v_set, v_s, and r_load must be strictly positive")
    if v_s >= v_set:
        raise ValueError(
            f"boost converter cannot step down: need v_s < v_set, "
            f"got v_s={v_s}, v_set={v_set}"
        )
    duty = 1.0 - v_s / v_set
    i_set = v_set * v_set / (r_load * v_s)
    return duty, i_set
