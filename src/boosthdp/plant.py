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
and cached as rows of Python floats.  A period is then one map for the
on-interval, one for the conducting part of the off-interval and one for
the blocked remainder.  The sub-step where the diode stops conducting is
the first whose current, evaluated as the maps evaluate it, is <= 0: a
precomputed floor of that current clears most off-intervals, or their
first sub-steps, without evaluating any, and the rest are evaluated one by
one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "ConductionMode",
    "DUTY_LIMITS",
    "MAX_SUBSTEPS",
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


# the duty window the controllers command within: `step` takes any duty in
# [0, 1], and the PI loop, the HDP duty map and the pretraining teacher all
# keep their commands inside this window
DUTY_LIMITS = (0.05, 0.95)

# the k-step maps take n_sub + 1 float rows per branch (about 0.9 MB at
# 1000 sub-steps), so a dt a million times finer than the period would
# build some 0.9 GB for each parameter set
MAX_SUBSTEPS = 1000


@dataclass(frozen=True)
class PlantParams:
    """Converter constants.  Defaults follow the nominal desk setup.

    dt must divide the switching period exactly, into at most MAX_SUBSTEPS
    sub-steps; the PWM duty is quantized to this sub-step grid (1% duty
    resolution at the default dt = T_s/100).
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
        # first, as an n that overflowed to inf has no round(n)
        if n > MAX_SUBSTEPS + 0.5:
            raise ValueError(
                f"dt={self.dt} makes {n:.0f} sub-steps per switching period; "
                f"at most {MAX_SUBSTEPS}"
            )
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

    @cached_property
    def _propagators(self) -> tuple[_Propagator, _Propagator, _Propagator]:
        # `_propagators(self)`, looked up once per instance: a run passes
        # one instance period after period, and the lru cache's hash and
        # compare of it took 0.8 us per period
        return _propagators(self)


class _State(NamedTuple):
    i_l: float = 0.0
    v_o: float = 0.0
    mode: ConductionMode = _BLOCKED


class PlantState(_State):
    """Converter state at a sub-step boundary: inductor current, output
    voltage and the branch of the last sub-step, as a named tuple (so it
    unpacks, and compares equal to a plain tuple of its fields).

    Every way to build one from fields, the constructor, `_make` and
    `_replace`, checks both signs (ValueError).  `step` builds its results
    with `tuple.__new__`, unchecked: its clamps keep the current
    non-negative, and the voltage rows of its maps, whose coefficients are
    non-negative, keep the voltage so.
    """

    __slots__ = ()

    def __new__(cls, i_l: float = 0.0, v_o: float = 0.0, mode: ConductionMode = _BLOCKED):
        if i_l < 0.0:
            raise ValueError("i_l must be non-negative (diode blocks reverse current)")
        if v_o < 0.0:
            raise ValueError("v_o must be non-negative")
        return _State.__new__(cls, i_l, v_o, mode)

    @classmethod
    def _make(cls, iterable) -> PlantState:
        # the inherited _make, which _replace calls, skips __new__
        return cls(*iterable)


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
    """The k-step RK4 maps of one branch, k = 0..n_sub, as float rows.

    After k sub-steps from (i_l, v_o), with (a, b, c, d, e, f) = rows[k],
    the state is (a*i_l + b*v_o + c, d*i_l + e*v_o + f).  floors[n] is
    (min a_k, min b_k, min c_k) over k = 1..n, the certified floor that
    `first_nonpositive` tests before it scans.
    """

    __slots__ = ("rows", "floors")

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
        a, b, c, d, e, f = row = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
        # floors[0], the floor over no sub-steps, is never read
        floor = (math.inf, math.inf, math.inf)
        rows, floors = [row], [floor]
        for _ in range(n_sub):
            a, b, c, d, e, f = row = (
                m00 * a + m01 * d, m00 * b + m01 * e, m00 * c + m01 * f + c0,
                m10 * a + m11 * d, m10 * b + m11 * e, m10 * c + m11 * f + c1,
            )
            floor = (min(floor[0], a), min(floor[1], b), min(floor[2], c))
            rows.append(row)
            floors.append(floor)
        self.rows = tuple(rows)
        self.floors = tuple(floors)

    def advance(self, k: int, i_l: float, v_o: float) -> tuple[float, float]:
        """The state after k sub-steps from (i_l, v_o)."""
        a, b, c, d, e, f = self.rows[k]
        return a * i_l + b * v_o + c, d * i_l + e * v_o + f

    def values(self, r: int, k: int, i_l: float, v_o: float) -> list[float]:
        """State variable r (0: i_l, 1: v_o) after each of the sub-steps
        1..k from (i_l, v_o); entry j equals advance(j + 1)[r] bit for bit."""
        j = 3 * r
        return [m[j] * i_l + m[j + 1] * v_o + m[j + 2] for m in self.rows[1 : k + 1]]

    def first_nonpositive(self, n: int, i_l: float, v_o: float) -> int:
        """The first k in 1..n with advance(k, i_l, v_o)[0] <= 0, or 0 if
        there is none; i_l > 0.

        Rounding to nearest is monotone, so for v_o >= 0 the rounded
        floors[m] . (i_l, v_o, 1), evaluated in the order `advance` uses,
        lies at or below every rounded i_l of the sub-steps 1..m, and no
        NaN enters those without making that floor NaN or -inf as well.  A
        floor above zero thus clears sub-steps 1..m unevaluated; only those
        past the last floor that clears are scanned (all of them when v_o
        is negative or NaN).
        """
        start = 1
        if v_o >= 0.0:
            floors = self.floors
            a, b, c = floors[n]
            if a * i_l + b * v_o + c > 0.0:
                return 0
            # the floors only fall as m grows: bisect for the first one that
            # does not clear, keeping floors[lo] clear and floors[hi] not
            lo, hi = 0, n
            while hi - lo > 1:
                mid = (lo + hi) // 2
                a, b, c = floors[mid]
                if a * i_l + b * v_o + c > 0.0:
                    lo = mid
                else:
                    hi = mid
            start = hi
        rows = self.rows
        for k in range(start, n + 1):
            a, b, c, _, _, _ = rows[k]
            if a * i_l + b * v_o + c <= 0.0:
                return k
        return 0


# A run meets a handful of parameter sets (3 across the scenarios, about 40
# in a full pretrain); at ~93 kB of float rows per set, 64 entries stay
# under 6 MB.
@lru_cache(maxsize=64)
def _propagators(params: PlantParams) -> tuple[_Propagator, _Propagator, _Propagator]:
    """Propagators of the on, conducting and blocked branches."""
    return tuple(
        _Propagator(_branch_system(branch, params), params.dt, params.substeps)
        for branch in (_ON, _CONDUCTING, _BLOCKED)
    )


# (propagator, k, start): k sub-steps of one branch from the state `start`
_Segment = tuple[_Propagator, int, tuple[float, float]]


def _advance(
    state: PlantState, duty: float, params: PlantParams,
    segments: list[_Segment] | None = None,
) -> PlantState:
    """One PWM period.  Returns the end state and appends to `segments`, if
    given, the branch segments the period went through; each segment ends,
    with the DCM clamp applied, where the next one starts."""
    if not 0.0 <= duty <= 1.0:
        raise ValueError(f"duty must lie in [0, 1], got {duty}")
    on, conducting, blocked = params._propagators
    n_sub = len(on.rows) - 1
    n_on = round(duty * n_sub)
    n_off = n_sub - n_on
    i_l, v_o = state.i_l, state.v_o
    mode = _BLOCKED
    if n_on:
        if segments is not None:
            segments.append((on, n_on, (i_l, v_o)))
        i_l, v_o = on.advance(n_on, i_l, v_o)
        if i_l <= 0.0:  # no current left: the off interval starts blocked
            i_l = 0.0
        mode = _ON
    if n_off and i_l > 0.0:
        # DCM entry after k sub-steps: clamp at zero for the rest of the off
        # interval
        k = conducting.first_nonpositive(n_off, i_l, v_o) or n_off
        if segments is not None:
            segments.append((conducting, k, (i_l, v_o)))
        i_l, v_o = conducting.advance(k, i_l, v_o)
        mode = _CONDUCTING
        if i_l <= 0.0:
            i_l = 0.0
            mode = _BLOCKED
        n_off -= k
    if n_off:
        if segments is not None:
            segments.append((blocked, n_off, (i_l, v_o)))
        i_l, v_o = blocked.advance(n_off, i_l, v_o)
        mode = _BLOCKED
    # unchecked, as the PlantState docstring allows
    return tuple.__new__(PlantState, (i_l, v_o, mode))


def step(state: PlantState, duty: float, params: PlantParams) -> PlantState:
    """Advance one full PWM period T_s = 1/f_sw under the given duty cycle."""
    return _advance(state, duty, params)


def step_averaged(
    state: PlantState, duty: float, params: PlantParams
) -> tuple[PlantState, tuple[float, float, float]]:
    """Like `step`, additionally returning (mean i_l, mean v_o, mean v_o^2)
    over the period — the waveform averages needed for power-balance and
    volt-second checks, which per-period boundary samples would bias.

    The means are trapezoid sums over the sub-step boundary values.
    """
    segments: list[_Segment] = []
    new_state = _advance(state, duty, params, segments)
    # the sub-step boundary values of the period, segment by segment; each
    # segment's last value is its end, where the DCM clamp applies
    ends = [start for _, _, start in segments[1:]] + [(new_state.i_l, new_state.v_o)]
    rows: tuple[list, list] = ([state.i_l], [state.v_o])
    for (propagator, k, start), end in zip(segments, ends):
        for r in (0, 1):
            values = propagator.values(r, k, *start)
            values[-1] = end[r]
            rows[r].extend(values)
    i_l, v_o = (np.array(row) for row in rows)
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
