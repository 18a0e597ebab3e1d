"""Plant model tests: affine branches, RK4 stepping, DCM handling, the
closed-form oracles (RC discharge, volt-second balance, power balance), and
the cached propagators against a per-sub-step RK4 reference."""

import math
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from boosthdp import plant
from boosthdp.plant import (
    ConductionMode,
    PlantParams,
    PlantState,
    _branch_system,
    _propagators,
    derivatives,
    step,
    step_averaged,
    steady_state_hint,
)

NOMINAL = PlantParams()          # Table-style desk values, r_l = 0.1
LOSSLESS = PlantParams(r_l=0.0)


class TestDerivatives:
    def test_switch_on_from_rest(self):
        # di/dt = v_s/L with zero current and no series drop
        s = PlantState(i_l=0.0, v_o=0.0)
        di, dv = derivatives(s, True, LOSSLESS)
        assert di == pytest.approx(60.0 / 860e-6)   # ~69 767 A/s
        assert dv == 0.0

    def test_blocked_branch_is_rc_discharge(self):
        s = PlantState(i_l=0.0, v_o=200.0)
        di, dv = derivatives(s, False, NOMINAL)
        assert di == 0.0
        assert dv == pytest.approx(-200.0 / (80.0 * 860e-6))

    def test_zero_state_zero_input(self):
        p = PlantParams(v_s=0.0)
        s = PlantState()
        for switch_on in (True, False):
            assert derivatives(s, switch_on, p) == (0.0, 0.0)

    def test_off_conducting_branch(self):
        # KCL at the output node: dv/dt = i_l/C - v_o/(R*C)
        s = PlantState(i_l=5.0, v_o=100.0)
        di, dv = derivatives(s, False, NOMINAL)
        assert di == pytest.approx((60.0 - 0.1 * 5.0 - 100.0) / 860e-6)
        assert dv == pytest.approx(5.0 / 860e-6 - 100.0 / (80.0 * 860e-6))


class TestParamsAndState:
    def test_rejects_nonpositive_params(self):
        for kw in ({"r_load": 0.0}, {"l_ind": -1e-6}, {"c_out": 0.0},
                   {"f_sw": 0.0}, {"dt": 0.0}, {"r_l": -0.1}):
            with pytest.raises(ValueError):
                PlantParams(**kw)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [f.name for f in fields(PlantParams)])
    def test_rejects_non_finite_params(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            PlantParams(**{name: value})

    def test_rejects_dt_not_dividing_period(self):
        with pytest.raises(ValueError):
            PlantParams(dt=0.7e-6)

    def test_substep_count(self):
        assert NOMINAL.substeps == 100
        assert PlantParams(dt=5e-6).substeps == 10

    def test_too_many_substeps_refused_before_any_propagator(self, monkeypatch):
        # 10^6 sub-steps per period, whose maps would take some 0.9 GB
        built = []
        monkeypatch.setattr(plant, "_Propagator", lambda *args: built.append(args))
        with pytest.raises(ValueError, match=(
            f"makes 1000000 sub-steps per switching period; at most {plant.MAX_SUBSTEPS}"
        )):
            _propagators(PlantParams(dt=5e-11))
        assert built == []
        limit = PlantParams(dt=NOMINAL.t_sw / plant.MAX_SUBSTEPS)
        assert limit.substeps == plant.MAX_SUBSTEPS

    @pytest.mark.parametrize("kw", [{"dt": 5e-324}, {"f_sw": 5e-324}])
    def test_an_overflowing_substep_count_is_too_many(self, kw):
        # period / dt overflows to inf, which round() cannot take
        with pytest.raises(ValueError, match="makes inf sub-steps per switching period"):
            PlantParams(**kw)

    def test_rejects_negative_state(self):
        with pytest.raises(ValueError):
            PlantState(i_l=-1.0)
        with pytest.raises(ValueError):
            PlantState(v_o=-1.0)

    def test_make_and_replace_check_signs_too(self):
        state = PlantState(i_l=1.0, v_o=2.0)
        with pytest.raises(ValueError):
            PlantState._make((-1.0, 2.0, state.mode))
        with pytest.raises(ValueError):
            state._replace(i_l=-1.0)
        with pytest.raises(ValueError):
            state._replace(v_o=-1.0)
        assert type(state._replace(i_l=3.0)) is PlantState
        assert state._replace(i_l=3.0) == (3.0, 2.0, state.mode)


class TestStep:
    def test_rejects_duty_outside_unit_interval(self):
        s = PlantState()
        for duty in (-0.01, 1.01):
            with pytest.raises(ValueError):
                step(s, duty, NOMINAL)

    def test_dcm_rc_discharge_matches_closed_form(self):
        # duty=0, v_s=0: pure RC decay from 200 V, i_l pinned at zero
        p = PlantParams(v_s=0.0, r_l=0.0)
        s = PlantState(i_l=0.0, v_o=200.0)
        tau = p.r_load * p.c_out
        for k in range(1, 21):
            s = step(s, 0.0, p)
            exact = 200.0 * math.exp(-k * p.t_sw / tau)
            assert s.i_l == 0.0
            assert s.mode is ConductionMode.SWITCH_OFF_BLOCKED
            assert abs(s.v_o - exact) / exact < 1e-9

    def test_blocked_mode_idempotent_with_live_source(self):
        # diode stays blocked for the whole off interval even with v_s > 0
        s = PlantState(i_l=0.0, v_o=200.0)
        tau = NOMINAL.r_load * NOMINAL.c_out
        s1 = step(s, 0.0, NOMINAL)
        assert s1.i_l == 0.0
        assert s1.v_o == pytest.approx(200.0 * math.exp(-NOMINAL.t_sw / tau), rel=1e-9)

    def test_duty_one_equilibrium(self):
        # switch always closed: i_l -> v_s/r_l, output isolated at zero
        s = PlantState()
        for _ in range(2000):  # 100 ms >> L/r_l = 8.6 ms
            s = step(s, 1.0, NOMINAL)
        assert s.i_l == pytest.approx(60.0 / 0.1, rel=1e-3)
        assert s.v_o == 0.0
        assert s.mode is ConductionMode.SWITCH_ON

    def test_volt_second_balance_and_power_balance(self):
        # lossless CCM at duty 0.7: mean v_o = v_s/(1-D) = 200 V, P_in = P_out
        duty, i_hint = steady_state_hint(200.0, 60.0, 80.0)
        s = PlantState(i_l=i_hint, v_o=200.0)
        tails = []
        for k in range(2000):
            s, avg = step_averaged(s, duty, LOSSLESS)
            if k >= 1800:
                tails.append(avg)
        mean_i = sum(a[0] for a in tails) / len(tails)
        mean_v = sum(a[1] for a in tails) / len(tails)
        mean_v2 = sum(a[2] for a in tails) / len(tails)
        assert abs(mean_v - 200.0) / 200.0 < 0.02
        p_in = LOSSLESS.v_s * mean_i
        p_out = mean_v2 / LOSSLESS.r_load
        assert abs(p_in - p_out) / p_out < 0.01

    def test_rk4_convergence_order(self):
        # Richardson check on a strictly-CCM segment; run at a coarse base dt
        # so truncation error sits well above double-precision roundoff.
        def run(dt):
            p = PlantParams(r_l=0.1, dt=dt)
            s = PlantState(i_l=25.0 / 3.0, v_o=200.0)
            min_i = s.i_l
            for _ in range(200):  # 10 ms
                s = step(s, 0.7, p)
                min_i = min(min_i, s.i_l)
            return s, min_i

        base = NOMINAL.t_sw / 10.0
        (s1, m1), (s2, m2), (s4, m4) = run(base), run(base / 2), run(base / 4)
        assert min(m1, m2, m4) > 1.0  # never near the DCM clamp
        e1 = math.hypot(s1.i_l - s2.i_l, s1.v_o - s2.v_o)
        e2 = math.hypot(s2.i_l - s4.i_l, s2.v_o - s4.v_o)
        order = math.log2(e1 / e2)
        print(f"observed RK4 order: {order:.2f}")
        assert order >= 3.5

    def test_nonnegativity_under_random_duty(self):
        rng = np.random.default_rng(42)
        for v0 in (0.0, 300.0):
            s = PlantState(i_l=0.0, v_o=v0)
            for _ in range(300):
                s = step(s, float(rng.uniform(0.0, 1.0)), NOMINAL)
                assert s.i_l >= 0.0
                assert s.v_o >= 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        i_l=st.floats(0.0, 40.0),
        v_o=st.floats(0.0, 400.0),
        duties=st.lists(st.floats(0.0, 1.0), min_size=50, max_size=120),
    )
    @example(i_l=0.0, v_o=0.0, duties=[0.0] * 25 + [1.0] * 25)
    @example(i_l=0.5, v_o=300.0, duties=[0.05] * 50)  # DCM every period
    def test_energy_balance_under_random_duty(self, i_l, v_o, duties):
        # lossless plant: source energy = load energy + change in stored
        # energy, from the waveform means, as criterion 01 books it at
        # steady state; "moved" is the larger of the port energies
        p = LOSSLESS
        s = PlantState(i_l=i_l, v_o=v_o)

        def stored(s):
            return 0.5 * p.l_ind * s.i_l**2 + 0.5 * p.c_out * s.v_o**2

        e_in = e_out = 0.0
        store_0 = stored(s)
        for duty in duties:
            s, (m_i, _, m_v2) = step_averaged(s, duty, p)
            e_in += p.v_s * m_i * p.t_sw
            e_out += m_v2 / p.r_load * p.t_sw
        imbalance = abs(e_in - e_out - (stored(s) - store_0))
        assert imbalance <= 0.01 * max(e_in, e_out)

    def test_mode_tags(self):
        # high output voltage forces DCM within one period at low duty
        s = PlantState(i_l=0.5, v_o=300.0)
        s = step(s, 0.05, NOMINAL)
        assert s.mode is ConductionMode.SWITCH_OFF_BLOCKED
        # heavy conduction keeps the diode carrying current
        s = PlantState(i_l=8.0, v_o=200.0)
        s = step(s, 0.7, NOMINAL)
        assert s.mode is ConductionMode.SWITCH_OFF_CONDUCTING
        assert s.i_l > 0.0


def rk4_reference(state, duty, p):
    """One PWM period integrated sub-step by sub-step with classical RK4 and
    the DCM clamp, the reference the plant's cached k-step maps must
    reproduce.  Every stage evaluates the active branch through the same
    `_branch_system` rows that `derivatives` evaluates; the branch stays fixed
    for all four stages, so a stage may see a negative current.

    Returns the end state and the trapezoid means (i_l, v_o, v_o^2).
    """
    n_sub = p.substeps
    n_on = round(duty * n_sub)
    h = p.dt

    def rk4(mode, i, v):
        rows = _branch_system(mode, p)

        def f(i, v):
            return [a * i + b * v + c for a, b, c in rows]

        k1 = f(i, v)
        k2 = f(i + 0.5 * h * k1[0], v + 0.5 * h * k1[1])
        k3 = f(i + 0.5 * h * k2[0], v + 0.5 * h * k2[1])
        k4 = f(i + h * k3[0], v + h * k3[1])
        return (
            i + h * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0]) / 6.0,
            v + h * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1]) / 6.0,
        )

    i, v = state.i_l, state.v_o
    s_i, s_v, s_v2 = 0.5 * i, 0.5 * v, 0.5 * v * v
    mode = ConductionMode.SWITCH_OFF_BLOCKED
    for _ in range(n_on):
        i, v = rk4(ConductionMode.SWITCH_ON, i, v)
        mode = ConductionMode.SWITCH_ON
        s_i, s_v, s_v2 = s_i + i, s_v + v, s_v2 + v * v
    blocked = i <= 0.0
    if blocked:
        i = 0.0
    for _ in range(n_sub - n_on):
        if blocked:
            i, v = rk4(ConductionMode.SWITCH_OFF_BLOCKED, i, v)
            mode = ConductionMode.SWITCH_OFF_BLOCKED
        else:
            i, v = rk4(ConductionMode.SWITCH_OFF_CONDUCTING, i, v)
            if i <= 0.0:
                i, blocked = 0.0, True
                mode = ConductionMode.SWITCH_OFF_BLOCKED
            else:
                mode = ConductionMode.SWITCH_OFF_CONDUCTING
        s_i, s_v, s_v2 = s_i + i, s_v + v, s_v2 + v * v
    s_i, s_v, s_v2 = s_i - 0.5 * i, s_v - 0.5 * v, s_v2 - 0.5 * v * v
    return PlantState(i_l=i, v_o=v, mode=mode), (s_i / n_sub, s_v / n_sub, s_v2 / n_sub)


def _deviation(values, reference, scale):
    """Largest absolute difference over scale, with the scale floored at
    the smallest normal float: a subnormal carries too few bits for a
    relative bound."""
    worst = max(abs(x - y) for x, y in zip(values, reference))
    return worst / max(scale, sys.float_info.min)


T_SW = NOMINAL.t_sw
DUTIES = st.lists(
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=8
)


class TestPropagatorAgainstRk4:
    """The k-step maps are sub-step RK4 with the DCM clamp, reassociated: the
    same modes, and states and averages equal to rounding."""

    # A start current in (0, 1e-3) A is left out: a sign decision within
    # rounding distance of zero is not reproducible under reassociation.
    @settings(max_examples=150, deadline=None)
    @given(
        i_l=st.one_of(st.just(0.0), st.floats(1e-3, 40.0)),
        v_o=st.floats(0.0, 400.0),
        duties=DUTIES,
        dt=st.sampled_from([T_SW / 10, T_SW / 100]),
    )
    @example(i_l=0.5, v_o=300.0, duties=[0.05, 0.05], dt=T_SW / 100)  # DCM mid-period
    @example(i_l=8.0, v_o=200.0, duties=[0.0, 1.0, 0.7, 0.0], dt=T_SW / 10)
    @example(i_l=0.0, v_o=0.0, duties=[0.0, 1.0], dt=T_SW / 100)
    @example(i_l=0.0, v_o=2.2250738585e-313, duties=[0.0], dt=T_SW / 100)  # subnormal
    def test_matches_reference(self, i_l, v_o, duties, dt):
        p = PlantParams(dt=dt)
        state = reference = PlantState(i_l=i_l, v_o=v_o)
        for duty in duties:
            averaged_state, averages = step_averaged(state, duty, p)
            state = step(state, duty, p)
            assert averaged_state == state
            reference, ref_averages = rk4_reference(reference, duty, p)
            assert state.mode is reference.mode
            assert state.i_l >= 0.0 and state.v_o >= 0.0
            scale = max(reference.i_l, reference.v_o)
            end = (state.i_l, state.v_o)
            assert _deviation(end, (reference.i_l, reference.v_o), scale) <= 1e-12
            avg_scale = max(abs(ref_averages[0]), ref_averages[1])
            assert _deviation(averages[:2], ref_averages[:2], avg_scale) <= 1e-12
            assert _deviation(averages[2:], ref_averages[2:], avg_scale**2) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        i_l=st.floats(0.0, 40.0),
        v_o=st.floats(0.0, 400.0),
        duties=DUTIES,
        dt=st.sampled_from([T_SW / 10, T_SW / 100]),
    )
    def test_invariants(self, i_l, v_o, duties, dt):
        p = PlantParams(dt=dt)
        s = PlantState(i_l=i_l, v_o=v_o)
        for duty in duties:
            s = step(s, duty, p)
            assert s.i_l >= 0.0 and s.v_o >= 0.0
            if s.mode is ConductionMode.SWITCH_OFF_BLOCKED:
                assert s.i_l == 0.0
            if s.mode is ConductionMode.SWITCH_OFF_CONDUCTING:
                assert s.i_l > 0.0


def numpy_first_nonpositive(propagator, n, i_l, v_o):
    """The first k in 1..n after which i_l <= 0, found by one numpy pass
    over the sub-steps 1..n (each i_l evaluated as `advance` evaluates it),
    or 0 if there is none."""
    m = np.array(propagator.rows[1 : n + 1])
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, as in Python
        dcm = m[:, 0] * i_l + m[:, 1] * v_o + m[:, 2] <= 0.0
    k = int(dcm.argmax())
    return k + 1 if dcm[k] else 0


def scanned_step(state, duty, p):
    """One period on the plant's own k-step maps, its DCM entry found by
    the numpy pass above rather than by the certified floors."""
    on, conducting, blocked = _propagators(p)
    n_on = round(duty * p.substeps)
    n_off = p.substeps - n_on
    i, v = state.i_l, state.v_o
    mode = ConductionMode.SWITCH_OFF_BLOCKED
    if n_on:
        i, v = on.advance(n_on, i, v)
        if i <= 0.0:
            i = 0.0
        mode = ConductionMode.SWITCH_ON
    if n_off and i > 0.0:
        k = numpy_first_nonpositive(conducting, n_off, i, v)
        i, v = conducting.advance(k or n_off, i, v)
        mode = ConductionMode.SWITCH_OFF_CONDUCTING
        if k:
            i, mode = 0.0, ConductionMode.SWITCH_OFF_BLOCKED
        n_off -= k or n_off
    if n_off:
        i, v = blocked.advance(n_off, i, v)
        mode = ConductionMode.SWITCH_OFF_BLOCKED
    return PlantState(i_l=i, v_o=v, mode=mode)


def bits(state):
    """A state's values to the bit (float.hex tells -0.0 from 0.0) and mode."""
    return state.i_l.hex(), state.v_o.hex(), state.mode


# the three scenario parameter sets (nominal; the load step's 200 ohm; the
# input step's 54 V), each at both sub-step grids, and a lossless inductor
SCENARIO_PARAMS = [
    PlantParams(v_s=v_s, r_load=r_load, dt=dt, r_l=r_l)
    for v_s, r_load in ((60.0, 80.0), (60.0, 200.0), (54.0, 80.0))
    for dt in (T_SW / 10, T_SW / 100)
    for r_l in (0.1, 0.0)
]
CURRENTS = st.one_of(
    st.just(0.0), st.floats(0.0, 50.0), st.floats(0.0, 1e-307),  # subnormals too
)
VOLTAGES = st.one_of(st.sampled_from([0.0, 1e6]), st.floats(0.0, 1e6))


@st.composite
def near_crossings(draw):
    """(params, n, i_l, v_o): i_l within a few ulps of the current at which
    i_l after sub-step k of the conducting branch is exactly zero, k <= n."""
    p = draw(st.sampled_from(SCENARIO_PARAMS))
    conducting = _propagators(p)[1]
    k = draw(st.integers(1, p.substeps))
    v_o = draw(st.floats(50.0, 1e6))
    a, b, c, _, _, _ = conducting.rows[k]
    i_l = -(b * v_o + c) / a
    assume(i_l > 0.0)
    ulps = draw(st.integers(-4, 4))
    for _ in range(abs(ulps)):
        i_l = math.nextafter(i_l, math.copysign(math.inf, ulps))
    return p, draw(st.integers(k, p.substeps)), i_l, v_o


class TestConductionSearch:
    """The certified floors find the first blocking sub-step that a scan of
    every sub-step finds, so every period keeps its bits."""

    @settings(max_examples=300, deadline=None)
    @given(i_l=CURRENTS, v_o=VOLTAGES,
           duty=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           p=st.sampled_from(SCENARIO_PARAMS))
    @example(i_l=5e-324, v_o=200.0, duty=0.0, p=SCENARIO_PARAMS[0])
    @example(i_l=2.2e-310, v_o=0.0, duty=0.0, p=SCENARIO_PARAMS[2])
    @example(i_l=8.0, v_o=0.0, duty=1.0, p=SCENARIO_PARAMS[1])
    @example(i_l=0.5, v_o=1e6, duty=0.0, p=SCENARIO_PARAMS[3])
    @example(i_l=0.01, v_o=200.0, duty=0.0, p=SCENARIO_PARAMS[0])  # blocks at once
    @example(i_l=8.0, v_o=200.0, duty=0.7, p=SCENARIO_PARAMS[1])  # CCM
    def test_period_matches_the_scan(self, i_l, v_o, duty, p):
        state = PlantState(i_l=i_l, v_o=v_o)
        assert bits(step(state, duty, p)) == bits(scanned_step(state, duty, p))

    @settings(max_examples=300, deadline=None)
    @given(near_crossings())
    def test_near_a_crossing(self, case):
        p, n, i_l, v_o = case
        conducting = _propagators(p)[1]
        assert conducting.first_nonpositive(n, i_l, v_o) == numpy_first_nonpositive(
            conducting, n, i_l, v_o
        )
        state = PlantState(i_l=i_l, v_o=v_o)
        assert bits(step(state, 0.0, p)) == bits(scanned_step(state, 0.0, p))

    @pytest.mark.parametrize("i_l, v_o", [
        (1.0, math.nan), (math.inf, 200.0), (1.0, math.inf), (1.0, -50.0),
        (0.01, -1.0), (math.inf, math.inf), (5e-324, 0.0),
    ])
    # a negative source drives the current below zero at a negative v_o
    @pytest.mark.parametrize("p", [
        SCENARIO_PARAMS[0], PlantParams(v_s=0.0), PlantParams(v_s=-60.0)
    ])
    def test_non_finite_and_negative_inputs_are_scanned(self, i_l, v_o, p):
        conducting = _propagators(p)[1]
        for n in (1, 7, p.substeps):
            assert conducting.first_nonpositive(n, i_l, v_o) == numpy_first_nonpositive(
                conducting, n, i_l, v_o
            )

    @settings(max_examples=200, deadline=None)
    @given(i_l=st.floats(1e-3, 20.0), v_o=st.floats(0.0, 400.0),
           duty=st.floats(0.0, 1.0), dt=st.sampled_from([T_SW / 10, T_SW / 100]))
    def test_a_sourceless_plant_blocks_where_its_floor_first_fails(self, i_l, v_o, duty, dt):
        # with v_s = 0 every coefficient of the conducting current falls with
        # k, so a floor is the current itself and a crossing sits exactly at
        # the first sub-step the floors do not clear
        p = PlantParams(v_s=0.0, dt=dt)
        state = PlantState(i_l=i_l, v_o=v_o)
        assert bits(step(state, duty, p)) == bits(scanned_step(state, duty, p))


class TestSteadyStateHint:
    def test_nominal_point(self):
        duty, i_set = steady_state_hint(200.0, 60.0, 80.0)
        assert duty == pytest.approx(0.7)
        assert i_set == pytest.approx(500.0 / 60.0)  # 500 W nominal at 60 V in

    def test_double_ratio(self):
        duty, _ = steady_state_hint(120.0, 60.0, 80.0)
        assert duty == pytest.approx(0.5)

    def test_sagged_input(self):
        duty, i_set = steady_state_hint(200.0, 54.0, 80.0)
        assert duty == pytest.approx(0.73)
        assert i_set == pytest.approx(40000.0 / (80.0 * 54.0))

    def test_rejects_step_down_and_nonpositive(self):
        with pytest.raises(ValueError):
            steady_state_hint(50.0, 60.0, 80.0)
        with pytest.raises(ValueError):
            steady_state_hint(60.0, 60.0, 80.0)
        for args in ((200.0, 0.0, 80.0), (0.0, 60.0, 80.0), (200.0, 60.0, 0.0)):
            with pytest.raises(ValueError):
                steady_state_hint(*args)
