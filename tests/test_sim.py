"""Tests for the simulation harness, metrics, and the offline pipeline."""

import csv
import math
import struct
from dataclasses import replace
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boosthdp import sim
from boosthdp.baseline import PiController, PiGains
from boosthdp.hdp import (
    V_SCALE,
    HdpConfig,
    HdpController,
    make_action,
    make_critic,
    td_error,
    td_update,
)
from boosthdp.mlp import NonFiniteUpdateError
from boosthdp.plant import DUTY_LIMITS, ConductionMode, PlantParams, PlantState
from boosthdp.sim import (
    Metrics,
    PretrainSettings,
    PretrainingError,
    ScenarioSpec,
    SimulationDiverged,
    TRACE_FIELDS,
    Trace,
    baseline_for_scenario,
    builtin_scenario,
    clone_action,
    compute_metrics,
    current_limit,
    equilibrium_duty,
    generate_excitation_log,
    make_reference_law,
    pretrain_critic,
    run_scenario,
    train_critic_on_log,
    write_trace_csv,
)
from run_reference import RecomputingController, per_call_periods, run_per_call
from td_reference import td_step_1d
from trace_io import TraceRecord, from_rows, read_trace_csv, trace_rows

# the offline critic fit's discount and per-sample rate at shipped defaults
GAMMA, RATE = HdpConfig().gamma, PretrainSettings.learning_rate


class TestScenarioSpec:
    def test_builtin_names_and_tags(self):
        for name in ("startup", "load_change", "input_change"):
            spec = builtin_scenario(name, "HDP")
            assert spec.name == name
            assert spec.controller_tag == "HDP"
            assert spec.duration == pytest.approx(0.05)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            builtin_scenario("brownout")

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="controller_tag"):
            ScenarioSpec("x", 0.05, 60.0, 80.0, controller_tag="PID")

    def test_source_range_enforced(self):
        with pytest.raises(ValueError, match="54-66"):
            ScenarioSpec("x", 0.05, 48.0, 80.0)

    def test_load_range_enforced(self):
        with pytest.raises(ValueError, match="50-200"):
            ScenarioSpec("x", 0.05, 60.0, 80.0, step=(0.02, 60.0, 300.0))

    def test_builtin_steps(self):
        assert builtin_scenario("startup").step is None
        assert builtin_scenario("load_change").step == (0.025, 60.0, 200.0)
        assert builtin_scenario("input_change").step == (0.025, 54.0, 80.0)

    def test_step_that_changes_nothing_rejected(self):
        with pytest.raises(ValueError, match="changes neither"):
            ScenarioSpec("x", 0.05, 60.0, 80.0, step=(0.025, 60.0, 80.0))

    @pytest.mark.parametrize("duration, step, message", [
        (math.inf, None, "duration must be finite and positive"),
        (math.nan, None, "duration must be finite and positive"),
        (0.0, None, "duration must be finite and positive"),
        (-0.05, None, "duration must be finite and positive"),
        (0.05, math.nan, "step time must lie strictly inside"),
        (0.05, math.inf, "step time must lie strictly inside"),
        (0.05, -1.0, "step time must lie strictly inside"),
        (0.05, 0.0, "step time must lie strictly inside"),
        (0.05, 0.05, "step time must lie strictly inside"),
        (0.05, 1.0, "step time must lie strictly inside"),
    ], ids=["duration-inf", "duration-nan", "duration-zero", "duration-negative",
            "step-nan", "step-inf", "step-negative", "step-zero", "step-at-end",
            "step-after-end"])
    def test_run_it_cannot_describe_rejected(self, duration, step, message):
        # a run that never ends, or a step that never happens or always has
        step = None if step is None else (step, 60.0, 100.0)
        with pytest.raises(ValueError, match=message):
            ScenarioSpec("x", duration, 60.0, 80.0, step=step)


class TestEquilibriumDuty:
    def test_lossless_reduces_to_voltsecond_balance(self):
        assert equilibrium_duty(200.0, 60.0, 80.0, 0.0) == pytest.approx(1.0 - 60.0 / 200.0)

    def test_solution_satisfies_steady_state(self):
        # plug the duty back into the averaged model's equilibrium relation
        for v_set, v_s, r_load in ((200.0, 60.0, 80.0), (150.0, 66.0, 50.0), (220.0, 54.0, 200.0)):
            d = equilibrium_duty(v_set, v_s, r_load, 0.1)
            w = 1.0 - d
            i = v_set / (w * r_load)
            assert v_s - 0.1 * i - w * v_set == pytest.approx(0.0, abs=1e-9)

    def test_loss_raises_required_duty(self):
        assert equilibrium_duty(200.0, 60.0, 80.0, 0.1) > equilibrium_duty(200.0, 60.0, 80.0, 0.0)

    def test_unreachable_point_rejected(self):
        # resistive drop alone would eat the whole source
        with pytest.raises(ValueError, match="unreachable"):
            equilibrium_duty(200.0, 6.0, 50.0, 0.5)

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            equilibrium_duty(-200.0, 60.0, 80.0, 0.1)


class TestReferenceLaw:
    def test_zero_error_emits_feedforward(self):
        law = make_reference_law()
        assert law.duty_for(0.0, 0.0) == pytest.approx(law.duty_ff)

    def test_small_signal_stiffness(self):
        # d(duty)/d(e_v) at zero = v_gain * v_sharpness / V_SCALE
        law = make_reference_law()
        h = 1e-6
        slope = (law.duty_for(h, 0.0) - law.duty_for(-h, 0.0)) / (2.0 * h)
        assert slope == pytest.approx(law.v_gain * law.v_sharpness / V_SCALE, rel=1e-6)

    def test_large_error_contribution_saturates(self):
        law = make_reference_law()
        d_50 = law.duty_for(50.0, 0.0)
        d_200 = law.duty_for(200.0, 0.0)
        assert d_200 - d_50 < 0.02
        assert d_200 <= law.duty_ff + law.v_gain + 1e-12

    def test_emergent_current_limit(self):
        # with the voltage term saturated high the command still backs off
        # monotonically as the inductor current climbs, hitting the bottom
        # rail near e_i ~ -(duty_ff + v_gain - d_min) * I_SCALE / i_gain
        law = make_reference_law()
        assert law.duty_for(190.0, 5.0) == pytest.approx(0.95)  # charge rail
        d20, d60 = law.duty_for(200.0, -20.0), law.duty_for(200.0, -60.0)
        assert d20 > d60 > 0.05
        assert law.duty_for(200.0, -100.0) == pytest.approx(0.05)  # full brake

    def test_output_clipped_to_limits(self):
        law = make_reference_law()
        assert law.duty_for(1e6, 1e6) == 0.95
        assert law.duty_for(-1e6, -1e6) == 0.05

    def test_factory_pins_nominal_feedforward(self):
        params = PlantParams()
        law = make_reference_law(params)
        assert law.duty_ff == pytest.approx(
            equilibrium_duty(200.0, params.v_s, params.r_load, params.r_l)
        )


def synthetic_rows(ts, vs, v_set=200.0, v_s=60.0, r_load=80.0):
    return [
        TraceRecord(float(t), float(v), 0.0, 0.5, 0.0, math.nan, "SWITCH_ON",
                    v_set, v_s, r_load)
        for t, v in zip(ts, vs)
    ]


def synthetic_trace(ts, vs, **schedule):
    return from_rows(synthetic_rows(ts, vs, **schedule))


def metrics_from_rows(rows):
    """compute_metrics as it read a list of TraceRecords, row by row: the
    reference for the columnar one."""
    if not rows:
        raise ValueError("empty trace")
    v_set_final = rows[-1].v_set
    t = np.array([r.t for r in rows])
    v = np.array([r.v_o for r in rows])
    sched = np.array([[r.v_set, r.v_s, r.r_load] for r in rows])
    changed = np.any(sched[1:] != sched[:-1], axis=1)
    t_from = t[1:][changed][-1] if changed.any() else t[0]
    sel = t >= t_from
    t_w, v_w = t[sel] - t_from, v[sel]
    dt = t[1] - t[0] if len(t) > 1 else 0.0
    band = 0.02 * v_set_final
    err = v_w - v_set_final
    out = np.abs(err) > band
    if out.any():
        unsettled = bool(out[-1])
        settling = float(t_w[-1] + dt) if unsettled else float(t_w[np.where(out)[0][-1]] + dt)
    else:
        unsettled = False
        settling = 0.0
    overshoot = max(0.0, (float(v_w.max()) - v_set_final) / v_set_final * 100.0)
    n_tail = max(1, len(v_w) // 10)
    sse = float(np.mean(v_w[-n_tail:]) - v_set_final)
    iae = float(np.sum(np.abs(err)) * dt)
    peak = float(np.max(np.abs(err)))
    in_band = ~out
    oscillation = bool(in_band.any() and out[np.argmax(in_band):].any())
    return Metrics(settling, overshoot, sse, iae, peak, oscillation, unsettled)


@st.composite
def metric_rows(draw):
    """Rows of 1 to 60 periods 50 us apart: v_o around the setpoint, and
    each schedule quantity held or stepping once."""
    n = draw(st.integers(1, 60))
    v_os = draw(st.lists(st.floats(150.0, 250.0), min_size=n, max_size=n))
    schedule = []
    for values in ((150.0, 200.0, 220.0), (54.0, 60.0, 66.0), (50.0, 80.0, 200.0)):
        k = draw(st.integers(0, n))
        before, after = draw(st.sampled_from(values)), draw(st.sampled_from(values))
        schedule.append([before] * k + [after] * (n - k))
    return [
        TraceRecord(k * 5e-05, v_o, 0.0, 0.5, 0.0, math.nan, "SWITCH_ON", *sched)
        for k, (v_o, *sched) in enumerate(zip(v_os, *schedule))
    ]


class TestComputeMetrics:
    dt = 50e-6

    def test_constant_at_setpoint(self):
        ts = np.arange(200) * self.dt
        m = compute_metrics(synthetic_trace(ts, np.full(200, 200.0)))
        assert m.settling_time == 0.0
        assert m.overshoot == 0.0
        assert m.iae == pytest.approx(0.0)
        assert not m.oscillation and not m.unsettled

    def test_first_order_rise_settles_at_ln50_tau(self):
        # v = 200 (1 - e^{-t/tau}) crosses the 2% band at t = tau ln 50
        tau = 1e-3
        ts = np.arange(1000) * self.dt
        vs = 200.0 * (1.0 - np.exp(-ts / tau))
        m = compute_metrics(synthetic_trace(ts, vs))
        expect = tau * math.log(50.0)
        print(f"settling {m.settling_time*1e3:.3f} ms vs ln(50)*tau {expect*1e3:.3f} ms")
        assert abs(m.settling_time - expect) <= self.dt
        assert m.overshoot == pytest.approx(0.0, abs=1e-9)

    def test_overshoot_206_peak_is_3_percent(self):
        ts = np.arange(400) * self.dt
        vs = np.full(400, 200.0)
        vs[100] = 206.0
        m = compute_metrics(synthetic_trace(ts, vs))
        assert m.overshoot == pytest.approx(3.0)

    def test_window_starts_at_last_schedule_change(self):
        # perfect tracking after the step; the pre-step mess must not count
        ts = np.arange(400) * self.dt
        vs = np.concatenate([np.full(200, 150.0), np.full(200, 200.0)])
        trace = from_rows(synthetic_rows(ts[:200], vs[:200]) + [
            TraceRecord(float(t), 200.0, 0.0, 0.5, 0.0, math.nan, "SWITCH_ON",
                        200.0, 60.0, 120.0)
            for t in ts[200:]
        ])
        m = compute_metrics(trace)
        assert m.settling_time == 0.0
        assert m.iae == pytest.approx(0.0)

    def test_oscillation_flag_on_band_re_exit(self):
        ts = np.arange(300) * self.dt
        vs = np.full(300, 200.0)
        vs[150] = 210.0  # re-exit after having settled
        m = compute_metrics(synthetic_trace(ts, vs))
        assert m.oscillation
        assert not m.unsettled

    def test_unsettled_trace_flagged_with_window_length(self):
        ts = np.arange(100) * self.dt
        m = compute_metrics(synthetic_trace(ts, np.full(100, 150.0)))
        assert m.unsettled
        assert m.settling_time == pytest.approx(100 * self.dt)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(from_rows([]))

    def test_runs_equal_the_metrics_of_their_rows(self):
        params = PlantParams()
        for name in sim.SCENARIO_NAMES:
            spec = builtin_scenario(name, "PI")
            trace, m = run_scenario(spec, baseline_for_scenario(spec, params), params)
            assert m == compute_metrics(trace) == metrics_from_rows(trace_rows(trace))

    @settings(max_examples=200, deadline=None)
    @given(rows=metric_rows())
    def test_columns_equal_the_metrics_of_their_rows(self, rows):
        assert compute_metrics(from_rows(rows)) == metrics_from_rows(rows)


def first_difference(text, ref):
    """The first line at which two texts, or two byte strings, differ, line
    ends included, or None when they are equal: a failure names a line
    instead of making pytest diff two long texts."""
    lines = zip_longest(text.splitlines(keepends=True), ref.splitlines(keepends=True))
    return next((k for k, (a, b) in enumerate(lines) if a != b), None)


def csv_text(trace):
    """The trace's CSV text, as `write_trace_csv` writes it."""
    return sim.trace_csv_texts([trace], 0)[0]


def csv_module_bytes(path, trace):
    """The trace as `csv.writer` writes it, row by row, every value
    formatted afresh."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_FIELDS)
        writer.writerows(trace_rows(trace))
    return path.read_bytes()


def copied(x):
    """A new float object with the bits of x."""
    return struct.unpack("d", struct.pack("d", x))[0]


# cells for the generated traces: special floats, the three modes, and
# ASCII text that needs quoting (comma, quote, CR, LF) as well as text that
# does not, and None, which csv writes as an empty field
FLOATS = st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, 5e-05, 1e16])
MODES = [mode.name for mode in ConductionMode]
TEXTS = st.sampled_from([*MODES, "a,b", 'q"x', "l\r\nm", "", None]) | st.text(
    st.characters(max_codepoint=127), max_size=6
)


@st.composite
def traces(draw):
    """Traces of 1 to 8 rows whose columns each hold one object throughout,
    step once from one object to another (maybe an equal float as a
    distinct object), or draw each row from a small pool, where a float is
    maybe a distinct copy: so columns hold the same object on consecutive
    rows, equal values as distinct objects, 0.0 beside -0.0, NaN objects,
    and changes."""
    n = draw(st.integers(1, 8))
    columns = []
    for name in TRACE_FIELDS:
        values = TEXTS if name == "mode" else FLOATS
        kind = draw(st.sampled_from(["held", "steps", "pool"]))
        if kind == "held":
            column = [draw(values)] * n
        elif kind == "steps":
            first = draw(values)
            if isinstance(first, float) and draw(st.booleans()):
                second = copied(first)
            else:
                second = draw(values)
            k = draw(st.integers(0, n))
            column = [first] * k + [second] * (n - k)
        else:
            pool = draw(st.lists(values, min_size=1, max_size=3))
            column = []
            for _ in range(n):
                value = draw(st.sampled_from(pool))
                if isinstance(value, float) and draw(st.booleans()):
                    value = copied(value)
                column.append(value)
        columns.append(column)
    return Trace._make(columns)


class Unprintable(float):
    """A float whose repr fails, for a trace write that fails."""

    def __repr__(self):
        raise ValueError("unprintable")


class TestTraceCsv:
    def test_bytes_equal_the_csv_module(self, tmp_path):
        zero, minus_zero = 0.0, -0.0
        a, b = copied(1.25), copied(1.25)
        assert a == b and a is not b
        nan = math.nan
        # 0.0 then -0.0 in u, equal values as distinct objects in i_l, NaN
        # and inf, 5e-05 and 1e16, a source and load step, all three modes
        rows = [
            (0.0, 200.0, a, 0.7, zero, nan, "SWITCH_ON", 200.0, 60.0, 80.0),
            (5e-05, 200.0, b, 0.7, minus_zero, nan, "SWITCH_ON", 200.0, 60.0, 80.0),
            (1e-04, 1e16, b, 0.7, minus_zero, math.inf, "SWITCH_OFF_CONDUCTING",
             200.0, 60.0, 80.0),
            (1.5e-04, 1e16, copied(1.25), 5e-05, zero, -math.inf, "SWITCH_OFF_BLOCKED",
             200.0, 54.0, 200.0),
            (2e-04, copied(nan), 0.0, 5e-05, zero, copied(nan), "SWITCH_OFF_BLOCKED",
             200.0, 54.0, 200.0),
        ]
        trace = from_rows(TraceRecord(*row) for row in rows)
        write_trace_csv(tmp_path / "trace.csv", trace)
        expected = csv_module_bytes(tmp_path / "reference.csv", trace)
        assert (tmp_path / "trace.csv").read_bytes() == expected
        assert b",0.0,nan,SWITCH_ON," in expected and b",-0.0,nan,SWITCH_ON," in expected
        assert b",1e+16," in expected and b",5e-05," in expected

    def test_run_traces_equal_the_csv_module(self, tmp_path):
        params = PlantParams()
        for name in sim.SCENARIO_NAMES:
            spec = builtin_scenario(name, "PI")
            trace, _ = run_scenario(spec, baseline_for_scenario(spec, params), params)
            write_trace_csv(tmp_path / "trace.csv", trace)
            expected = csv_module_bytes(tmp_path / "reference.csv", trace)
            assert first_difference((tmp_path / "trace.csv").read_bytes(), expected) is None

    @settings(max_examples=200, deadline=None)
    @given(trace=traces())
    def test_generated_bytes_equal_the_csv_module(self, tmp_path_factory, trace):
        out = tmp_path_factory.mktemp("traces")
        write_trace_csv(out / "trace.csv", trace)
        assert (out / "trace.csv").read_bytes() == csv_module_bytes(out / "reference.csv", trace)

    def test_block_size_leaves_the_bytes(self, monkeypatch):
        params = PlantParams()
        spec = builtin_scenario("load_change", "PI")
        trace, _ = run_scenario(spec, baseline_for_scenario(spec, params), params)
        texts = []
        for rows in (1, 7, 256, 10**6):
            monkeypatch.setattr(sim, "_TEXT_BLOCK", rows)
            texts.append(csv_text(trace))
        assert [first_difference(text, texts[0]) for text in texts[1:]] == [None] * 3

    def test_two_runs_in_one_process_write_the_same_bytes(self, tmp_path):
        params = PlantParams()
        spec = builtin_scenario("startup", "PI")
        texts = []
        for _ in range(2):
            trace, _ = run_scenario(spec, baseline_for_scenario(spec, params), params)
            texts.append(csv_text(trace))
        assert first_difference(texts[0], texts[1]) is None
        write_trace_csv(tmp_path / "trace.csv", trace)
        assert first_difference(
            (tmp_path / "trace.csv").read_bytes(),
            csv_module_bytes(tmp_path / "reference.csv", trace),
        ) is None

    def test_round_trip_preserves_bytes(self, tmp_path):
        spec = builtin_scenario("startup", "PI")
        pi = baseline_for_scenario(spec, PlantParams())
        trace, _ = run_scenario(spec, pi, PlantParams())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(p1, from_rows(trace_rows(trace)[:200]))
        write_trace_csv(p2, from_rows(read_trace_csv(p1)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_nan_j_est_survives(self, tmp_path):
        rec = TraceRecord(0.0, 1.0, 2.0, 0.5, 0.1, math.nan, "SWITCH_ON",
                          200.0, 60.0, 80.0)
        p = tmp_path / "t.csv"
        write_trace_csv(p, from_rows([rec]))
        back = read_trace_csv(p)[0]
        assert math.isnan(back.j_est)
        assert back.v_o == rec.v_o

    def test_failed_write_keeps_previous_file(self, tmp_path):
        rec = TraceRecord(0.0, 1.0, 2.0, 0.5, 0.1, math.nan, "SWITCH_ON",
                          200.0, 60.0, 80.0)
        p = tmp_path / "t.csv"
        write_trace_csv(p, from_rows([rec]))
        before = p.read_bytes()
        # a value whose text fails, in the last of many rows
        bad = from_rows([rec] * 4999 + [rec._replace(v_o=Unprintable(1.0))])
        with pytest.raises(ValueError, match="unprintable"):
            write_trace_csv(p, bad)
        assert p.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["t.csv"]

    def test_header_checked(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(p)


class TestRunScenario:
    def test_deterministic(self):
        params = PlantParams()
        spec = builtin_scenario("startup", "PI")
        t1, m1 = run_scenario(spec, baseline_for_scenario(spec, params), params)
        t2, m2 = run_scenario(spec, baseline_for_scenario(spec, params), params)
        assert t1 == t2
        assert m1 == m2

    def test_trace_shape_and_spacing(self):
        params = PlantParams()
        spec = builtin_scenario("startup", "PI")
        trace, _ = run_scenario(spec, baseline_for_scenario(spec, params), params)
        assert all(len(column) == round(spec.duration / params.t_sw) for column in trace)
        dts = np.diff(trace.t)
        assert np.allclose(dts, params.t_sw)

    def test_causality_future_schedule_irrelevant(self):
        # two load schedules that agree up to 25 ms must produce identical
        # prefixes under the same controller
        params = PlantParams()
        base = builtin_scenario("load_change", "PI", params)
        alt = replace(base, step=(0.025, 60.0, 120.0))
        t1, _ = run_scenario(base, baseline_for_scenario(base, params), params)
        t2, _ = run_scenario(alt, baseline_for_scenario(alt, params), params)
        n_pre = round(0.025 / params.t_sw)
        assert trace_rows(t1)[:n_pre] == trace_rows(t2)[:n_pre]
        assert t1.r_load[n_pre + 1] != t2.r_load[n_pre + 1]

    def test_tag_controller_mismatch_rejected(self):
        params = PlantParams()
        spec = builtin_scenario("startup", "HDP")
        with pytest.raises(ValueError, match="does not match tag"):
            run_scenario(spec, PiController(), params)

    def test_controller_of_another_type_rejected_before_any_period(self, monkeypatch):
        # a wrapper with control_step, run_periods and reset_transition_buffer
        # passes the tag check, which asks only that it is no PiController
        class Wrapper:
            def __init__(self, controller):
                self.controller = controller

            def __getattr__(self, name):
                return getattr(self.controller, name)

        def no_period(*args):
            raise AssertionError("a period was simulated")

        monkeypatch.setattr(sim, "step", no_period)
        spec = builtin_scenario("startup", "HDP")
        wrapped = Wrapper(HdpController(make_critic(), make_action()))
        with pytest.raises(ValueError, match=(
            "controller Wrapper is neither a PiController nor an HdpController"
        )):
            run_scenario(spec, wrapped, PlantParams())

    def test_divergence_guard_raises(self):
        # constant 0.93 duty drives the averaged equilibrium far past 2x200 V
        params = PlantParams()
        spec = builtin_scenario("startup", "PI")
        runaway = PiController(kp=0.0, ki=0.0, duty_ff=0.93)
        with pytest.raises(SimulationDiverged, match="exceeded 2x"):
            run_scenario(spec, runaway, params)

    def test_divergence_guard_catches_nan(self, monkeypatch):
        # a NaN output voltage compares false against any bound, so the guard
        # has to be written to fail on it rather than pass it
        monkeypatch.setattr(sim, "step", lambda state, duty, params: PlantState(v_o=math.nan))
        params = PlantParams()
        spec = builtin_scenario("startup", "PI")
        with pytest.raises(SimulationDiverged, match="v_o=nan"):
            run_scenario(spec, baseline_for_scenario(spec, params), params)

    @pytest.mark.parametrize("tag", ["PI", "HDP"])
    def test_divergence_guard_catches_nan_current(self, monkeypatch, tag):
        # NaN in i_l, where v_o stays in range: a PI run would otherwise
        # carry it into every later row, and an HDP run into its nets
        params = PlantParams()
        spec = builtin_scenario("startup", tag)
        controller = (baseline_for_scenario(spec, params) if tag == "PI"
                      else HdpController(make_critic(seed=0), make_action(seed=50)))
        monkeypatch.setattr(
            sim, "step", lambda state, duty, params: PlantState(i_l=math.nan, v_o=200.0)
        )
        with pytest.raises(SimulationDiverged, match=rf"startup/{tag}: i_l=nan A"):
            run_scenario(spec, controller, params)

    def test_divergence_guard_bounds_the_current(self, monkeypatch):
        params = PlantParams()
        limit = current_limit(params)
        assert limit == 2.0 * 66.0 / params.r_l
        assert current_limit(replace(params, r_l=0.0)) == math.inf
        spec = builtin_scenario("startup", "PI")
        for i_l, fails in ((limit, False), (math.nextafter(limit, math.inf), True)):
            monkeypatch.setattr(
                sim, "step", lambda state, duty, params, i_l=i_l: PlantState(i_l, 200.0)
            )
            run = lambda: run_scenario(spec, baseline_for_scenario(spec, params), params)
            if fails:
                with pytest.raises(SimulationDiverged, match="current limit at t=0.000050 s"):
                    run()
            else:
                run()

    def test_non_finite_initial_state_rejected(self):
        for state in (PlantState(i_l=math.nan), PlantState(v_o=math.inf)):
            with pytest.raises(ValueError, match="initial state must be finite"):
                ScenarioSpec("s", 0.01, 60.0, 80.0, initial_state=state)

    def test_trace_columns_round_trip_through_rows(self):
        params = PlantParams()
        spec = builtin_scenario("load_change", "PI")
        trace, _ = run_scenario(spec, baseline_for_scenario(spec, params), params)
        rows = trace_rows(trace)
        assert len(rows) == len(trace.t) and all(type(r) is TraceRecord for r in rows)
        assert rows[1] == tuple(column[1] for column in trace)
        back = from_rows(rows)
        assert type(back) is Trace and back == trace

    def test_max_periods_bounds_a_scenario(self, monkeypatch):
        # the shipped scenario is 1000 periods; a bound of 1000 admits it
        params = PlantParams()
        spec = builtin_scenario("startup", "PI", params)
        monkeypatch.setattr(sim, "MAX_PERIODS", 1000)
        trace, _ = run_scenario(spec, baseline_for_scenario(spec, params), params)
        assert len(trace.t) == 1000
        monkeypatch.setattr(sim, "MAX_PERIODS", 999)
        with pytest.raises(ValueError, match="makes 1000 periods"):
            run_scenario(spec, baseline_for_scenario(spec, params), params)

    def test_step_that_starts_no_period_rejected_before_any_period(self, monkeypatch):
        # 100 periods of 50 us: the last starts at 4.95 ms, before the step
        def no_period(*args):
            raise AssertionError("a period was simulated")

        monkeypatch.setattr(sim, "step", no_period)
        params = PlantParams()
        spec = ScenarioSpec("x", 0.005, 60.0, 80.0, step=(0.00499, 60.0, 100.0))
        with pytest.raises(ValueError, match=(
            "switching period 5e-05 s starts no period at or after the 0.00499 s "
            "step of the 0.005 s x scenario"
        )):
            run_scenario(spec, baseline_for_scenario(spec, params), params)

    def test_pi_trace_has_nan_cost_estimate(self):
        params = PlantParams()
        spec = builtin_scenario("startup", "PI")
        trace, _ = run_scenario(spec, baseline_for_scenario(spec, params), params)
        assert all(map(math.isnan, trace.j_est))


def short_run(tag, config, params=PlantParams(), twin=RecomputingController):
    """A 5 ms run from the nominal equilibrium, with a load step at its
    middle, and two controllers on the same fresh nets: (spec,
    HdpController, twin), the twin by default the reference that recomputes
    every pass with the public 1-D API."""
    spec = replace(builtin_scenario("load_change", tag, params), duration=0.005,
                   step=(0.0025, 60.0, 200.0))
    nets = lambda: (make_critic(seed=3), make_action(seed=53), config)
    return spec, HdpController(*nets()), twin(*nets())


def net_bytes(controller):
    return controller.critic.params.tobytes(), controller.action.params.tobytes()


def column_bytes(columns):
    """The float columns' bits and the modes of six run columns."""
    return [np.array(column).tobytes() for column in columns[:5]], columns[5]


class TestHeldRun:
    """run_scenario runs an HDP controller's periods in one generated loop
    on the nets' held parameter lists: the same bits, traces and final
    nets, as the control step written with the public 1-D API, one call
    per period (`run_reference`), and the nets at their last accepted step
    however the run ends."""

    CONFIG = HdpConfig(lr_critic=1e-2, lr_action=1e-3)

    @pytest.mark.parametrize("tag", ["HDP", "HDP-frozen"])
    def test_same_bits_as_per_call_steps(self, tag):
        params = PlantParams()
        spec, held, ref = short_run(tag, self.CONFIG, params)
        start = net_bytes(held)
        trace, metrics = run_scenario(spec, held, params)
        ref_trace, ref_metrics = run_per_call(spec, ref, params)
        assert first_difference(csv_text(trace), csv_text(ref_trace)) is None
        assert metrics == ref_metrics
        assert net_bytes(held) == net_bytes(ref)
        assert (net_bytes(held) == start) == (tag == "HDP-frozen")

    def test_refused_step_leaves_last_accepted_nets(self):
        params = PlantParams()
        spec, held, ref = short_run("HDP", HdpConfig(lr_critic=1e300), params)
        start = net_bytes(held)
        with pytest.raises(NonFiniteUpdateError):
            run_scenario(spec, held, params)
        with pytest.raises(NonFiniteUpdateError):
            run_per_call(spec, ref, params)
        assert net_bytes(held) == net_bytes(ref)
        assert all(a != b for a, b in zip(net_bytes(held), start))

    def test_diverged_run_writes_the_lists_back(self, monkeypatch):
        params = PlantParams()
        spec, held, ref = short_run("HDP", self.CONFIG, params)
        start = net_bytes(held)
        plant_step = sim.step
        periods = []

        def nan_at_period_30(state, duty, params):
            periods.append(None)
            if len(periods) % 30 == 0:
                return PlantState(i_l=math.nan, v_o=state.v_o)
            return plant_step(state, duty, params)

        monkeypatch.setattr(sim, "step", nan_at_period_30)
        for run, controller in ((run_scenario, held), (run_per_call, ref)):
            with pytest.raises(SimulationDiverged, match="i_l=nan A .* at t=0.001500 s"):
                run(spec, controller, params)
        assert net_bytes(held) == net_bytes(ref)
        assert all(a != b for a, b in zip(net_bytes(held), start))

    @pytest.mark.parametrize("nudged", [False, True], ids=["same_duty", "nudged_duty"])
    @pytest.mark.parametrize("calls_first", [True, False], ids=["calls_run", "run_calls"])
    def test_calls_and_a_run_follow_one_another(self, calls_first, nudged):
        # 30 control_step calls then a run of the rest, or a run of 30
        # periods then calls: the stored transition crosses between them,
        # its pass rerun at the duty applied; the bits are those of calls
        # alone, nudged alike
        params = PlantParams()
        spec, mixed, per_call = short_run("HDP", self.CONFIG, params, twin=HdpController)
        segments = sim._segments(spec, params.t_sw)
        parts = [sim._within(segments, 0, 30), sim._within(segments, 30, 100)]
        runs = [per_call_periods, sim._run_periods]
        if not calls_first:
            runs.reverse()

        def drive(controller, runs):
            columns = ([], [], [], [], [], [])
            state, duty = spec.initial_state, 0.0
            for i, (run, part) in enumerate(zip(runs, parts)):
                if i and nudged:
                    duty += 1e-3
                state, duty = run(controller, True, state, duty, part, params, columns)
            return column_bytes(columns)

        assert drive(mixed, runs) == drive(per_call, [per_call_periods] * 2)
        assert net_bytes(mixed) == net_bytes(per_call)


def step_pair(tag, params=PlantParams()):
    """The shipped load and input steps under one tag, which share their
    first half."""
    return [builtin_scenario(name, tag, params) for name in ("load_change", "input_change")]


def fresh_controller(spec, params=PlantParams()):
    """A fresh controller for the spec: PI from its gains, HDP on fresh
    nets that learn fast enough to move within a run."""
    if spec.controller_tag == "PI":
        return baseline_for_scenario(spec, params)
    return HdpController(make_critic(seed=3), make_action(seed=53),
                         HdpConfig(lr_critic=1e-2, lr_action=1e-3))


class TestRunScenarios:
    """Specs that start alike run their shared periods once, and each gets
    the bits `run_scenario` gives it with a fresh controller."""

    @pytest.mark.parametrize("tag", sim.CONTROLLER_TAGS)
    def test_same_bits_as_independent_runs(self, tag):
        params = PlantParams()
        specs = step_pair(tag, params)
        controller = fresh_controller(specs[0], params)
        branch, outcomes = sim.run_scenarios(specs, controller, params)
        assert branch == 500
        alone = [fresh_controller(spec, params) for spec in specs]
        for spec, (trace, metrics), own in zip(specs, outcomes, alone):
            ref_trace, ref_metrics = run_scenario(spec, own, params)
            assert first_difference(
                csv_text(trace), csv_text(ref_trace)
            ) is None
            assert list(map(len, trace)) == list(map(len, ref_trace))
            assert metrics == ref_metrics
        texts = sim.trace_csv_texts([trace for trace, _ in outcomes], branch)
        assert [first_difference(text, csv_text(trace))
                for text, (trace, _) in zip(texts, outcomes)] == [None, None]
        if tag != "PI":
            # the nets hold what the lead spec's run left
            assert net_bytes(controller) == net_bytes(alone[0])
            unmoved = net_bytes(alone[0]) == net_bytes(fresh_controller(specs[0]))
            assert unmoved == (tag == "HDP-frozen")

    def test_one_spec_shares_every_period(self):
        params = PlantParams()
        spec = builtin_scenario("startup", "PI", params)
        branch, [(trace, _)] = sim.run_scenarios(
            [spec], baseline_for_scenario(spec, params), params
        )
        assert branch == len(trace.t) == 1000

    @pytest.mark.parametrize("tag", ["PI", "HDP"])
    def test_failure_after_the_branch_leaves_the_sibling(self, monkeypatch, tag):
        # the plant returns NaN once the load has stepped to 200 ohm, which
        # only load_change's branch reaches
        params = PlantParams()
        specs = step_pair(tag, params)
        plant_step = sim.step

        def nan_at_the_top_load(state, duty, params):
            if params.r_load == 200.0:
                return PlantState(i_l=math.nan, v_o=state.v_o)
            return plant_step(state, duty, params)

        monkeypatch.setattr(sim, "step", nan_at_the_top_load)
        controller = fresh_controller(specs[0], params)
        _, (failed, (trace, metrics)) = sim.run_scenarios(specs, controller, params)
        assert type(failed) is SimulationDiverged
        assert str(failed) == (f"load_change/{tag}: i_l=nan A exceeded the 1320.0 A "
                               "current limit at t=0.025050 s")
        ref_trace, ref_metrics = run_scenario(specs[1], fresh_controller(specs[1]), params)
        assert first_difference(csv_text(trace), csv_text(ref_trace)) is None
        assert metrics == ref_metrics

    def test_failure_in_the_shared_periods_ends_every_run(self, monkeypatch):
        params = PlantParams()
        specs = step_pair("PI", params)
        monkeypatch.setattr(
            sim, "step", lambda state, duty, params: PlantState(v_o=math.nan)
        )
        _, outcomes = sim.run_scenarios(specs, baseline_for_scenario(specs[0], params), params)
        assert [str(exc) for exc in outcomes] == [
            f"{name}/PI: v_o=nan V exceeded 2x setpoint 200.0 V at t=0.000050 s"
            for name in ("load_change", "input_change")
        ]
        assert all(type(exc) is SimulationDiverged for exc in outcomes)

    def test_refused_update_in_the_shared_periods_ends_every_run(self):
        params = PlantParams()
        specs = step_pair("HDP", params)
        controller = HdpController(make_critic(seed=3), make_action(seed=53),
                                   HdpConfig(lr_critic=1e300))
        _, outcomes = sim.run_scenarios(specs, controller, params)
        assert all(type(exc) is NonFiniteUpdateError for exc in outcomes)

    def test_a_spec_it_cannot_run_fails_alone(self):
        # the step of "late" starts no 50 us period of the 5 ms run
        params = PlantParams()
        early = ScenarioSpec("early", 0.005, 60.0, 80.0, step=(0.0025, 60.0, 100.0))
        late = replace(early, name="late", step=(0.00499, 60.0, 100.0))
        pi = baseline_for_scenario(early, params)
        branch, (refused, (trace, metrics)) = sim.run_scenarios([late, early], pi, params)
        assert type(refused) is ValueError and "late scenario" in str(refused)
        assert branch == 100
        ref_trace, ref_metrics = run_scenario(early, baseline_for_scenario(early, params), params)
        assert first_difference(csv_text(trace), csv_text(ref_trace)) is None
        assert metrics == ref_metrics

    @pytest.mark.parametrize("change", [
        dict(duration=0.04), dict(v_s=61.0), dict(r_load=81.0),
        dict(initial_state=PlantState()), dict(controller_tag="HDP"),
    ], ids=["duration", "v_s", "r_load", "initial_state", "tag"])
    def test_specs_that_start_apart_rejected(self, change):
        params = PlantParams()
        specs = step_pair("PI", params)
        specs[1] = replace(specs[1], **change)
        with pytest.raises(ValueError, match="must be one or more, and share"):
            sim.run_scenarios(specs, baseline_for_scenario(specs[0], params), params)

    def test_no_spec_rejected(self):
        with pytest.raises(ValueError, match="must be one or more"):
            sim.run_scenarios([], PiController(), PlantParams())


class TestBaselinePrep:
    def test_startup_keeps_virgin_integrator(self):
        spec = builtin_scenario("startup", "PI")
        pi = baseline_for_scenario(spec, PlantParams())
        assert pi.integ == 0.0

    def test_running_start_preloads_operating_duty(self):
        params = PlantParams()
        spec = builtin_scenario("load_change", "PI", params)
        pi = baseline_for_scenario(spec, params)
        d_eq = equilibrium_duty(200.0, 60.0, 80.0, params.r_l)
        # at zero error the emitted duty is exactly the operating duty
        assert pi.pi_step(0.0) == pytest.approx(d_eq)

    def test_warm_start_formula(self):
        params = PlantParams(r_l=0.1)
        gains = PiGains(kp=1e-3, ki=0.4, duty_ff=0.3)
        spec = builtin_scenario("input_change", "PI", params)
        pi = baseline_for_scenario(spec, params, gains)
        d_eq = equilibrium_duty(200.0, spec.v_s, spec.r_load, 0.1)
        assert pi.integ == (d_eq - gains.duty_ff) / gains.ki

    def test_no_preload_without_integral_gain(self):
        params = PlantParams()
        spec = builtin_scenario("load_change", "PI", params)
        pi = baseline_for_scenario(spec, params, PiGains(kp=1e-3, ki=0.0, duty_ff=0.3))
        assert pi.integ == 0.0

    def test_original_instance_untouched(self):
        # each call builds a fresh loop: running one leaves the next as built
        params = PlantParams()
        spec = builtin_scenario("load_change", "PI", params)
        first = baseline_for_scenario(spec, params)
        start = first.integ
        first.pi_step(50.0)
        second = baseline_for_scenario(spec, params)
        assert second is not first
        assert first.integ != start
        assert second.integ == start

    def test_given_gains_at_the_switching_period(self):
        params = PlantParams(f_sw=40e3, dt=0.25e-6)
        gains = PiGains(kp=1e-3, ki=0.4, duty_ff=0.3)
        for name in sim.SCENARIO_NAMES:
            pi = baseline_for_scenario(builtin_scenario(name, "PI", params), params, gains)
            assert (pi.kp, pi.ki, pi.duty_ff, pi.dt_ctrl) == (1e-3, 0.4, 0.3, params.t_sw)

    def test_default_pi_updates_once_per_switching_period(self):
        # at 40 kHz the period is 25 us; a 50 us integrator step would
        # integrate the error twice as fast as the loop runs
        for params in (PlantParams(), PlantParams(f_sw=40e3, dt=0.25e-6)):
            spec = builtin_scenario("load_change", "PI", params)
            pi = baseline_for_scenario(spec, params)
            assert pi.dt_ctrl == params.t_sw


class TestExcitationLog:
    params = PlantParams()

    def small_log(self, **kw):
        law = make_reference_law(self.params)
        kw.setdefault("n_episodes", 1)
        kw.setdefault("n_holds", 3)
        return generate_excitation_log(law, self.params, **kw)

    def test_size_accounts_for_hold_boundaries(self):
        log = self.small_log()
        periods = round(0.01 / self.params.t_sw)
        assert len(log) == 1 * 3 * (periods - 1)

    def test_deterministic_per_seed(self):
        a = self.small_log(seed=7)
        b = self.small_log(seed=7)
        c = self.small_log(seed=8)
        assert all(
            (x1 == x2).all() and (y1 == y2).all() and u1 == u2
            for (x1, y1, u1), (x2, y2, u2) in zip(a, b)
        )
        assert any((x1 != x2).any() for (x1, _, _), (x2, _, _) in zip(a, c))

    def test_transition_chaining_within_hold(self):
        log = self.small_log()
        # inside a hold, each tuple's successor input is the next tuple's input
        for (x1, nxt, _), (x2, _, _) in zip(log[:50], log[1:51]):
            assert (nxt == x2).all()

    def test_max_periods_bounds_a_hold(self, monkeypatch):
        # the default hold is 200 periods; a bound of 200 admits it, 199 not
        monkeypatch.setattr(sim, "MAX_PERIODS", 200)
        assert len(self.small_log(n_holds=1)) == 199
        monkeypatch.setattr(sim, "MAX_PERIODS", 199)
        with pytest.raises(ValueError, match="makes 200 periods"):
            self.small_log(n_holds=1)

    def test_max_periods_bounds_the_whole_log(self, monkeypatch):
        # two one-hold episodes take 400 periods, each hold 200: a bound of
        # 200 admits each hold but refuses the log, before any period runs
        def no_period(*args):
            raise AssertionError("a period was simulated")

        monkeypatch.setattr(sim, "MAX_PERIODS", 200)
        monkeypatch.setattr(sim, "step", no_period)
        with pytest.raises(ValueError) as err:
            self.small_log(n_episodes=2, n_holds=1)
        assert str(err.value) == (
            "switching period 5e-05 s makes 200 periods per 0.01 s excitation hold "
            "and 400 in [pretrain] n_episodes x n_holds = 2 x 1 holds; at most 200"
        )

    def test_rows_are_normalized_and_bounded(self):
        d_min, d_max = DUTY_LIMITS
        for x_now, x_next, u in self.small_log():
            assert x_now.shape == (5,) and x_next.shape == (5,)
            assert d_min <= x_now[4] <= d_max
            assert u >= 0.0


def two_state_chain(u: float, gamma: float):
    """Self-loop pair with constant utility; the fixed point is
    J = u / (1 - gamma) at both states."""
    x_a = np.array([0.2, 0.1, 0.1, 0.0, 0.5])
    x_b = np.array([0.8, 0.4, -0.1, 0.1, 0.7])
    return [(x_a, x_b, u), (x_b, x_a, u)]


def three_forward_sweep(critic, log, gamma, learning_rate, seed, max_epochs, lr_decay_epochs=8.0):
    """train_critic_on_log's sweep written with the public 1-D forward and
    the 1-D TD step: per transition the target, the value and its cache,
    and the value again right after the update for the epoch mean.  Entry 0
    is the whole-log residual of one batched pass, as in
    train_critic_on_log.  It leaves out the stopping rules, which depend
    only on the history."""
    x_now, x_next, u = map(np.array, zip(*log))
    j, _ = critic.forward(np.concatenate((x_now, x_next)))
    resid = td_error(j[:len(u), 0], j[len(u):, 0], u, gamma)
    history = [float(np.mean(resid * resid))]

    def value(x):
        return float(critic.forward(x)[0][0])

    rng = np.random.default_rng(seed)
    order = np.arange(len(log))
    for epoch in range(max_epochs):
        lr = learning_rate
        if lr_decay_epochs > 0.0:
            lr /= 1.0 + epoch / lr_decay_epochs
        rng.shuffle(order)
        sq_sum = 0.0
        for idx in order:
            x_now, x_next, u = log[idx]
            target = value(x_next)
            _, cache = critic.forward(x_now)
            td_step_1d(critic, cache, target, u, gamma, lr)
            after = td_error(value(x_now), target, u, gamma)
            sq_sum += after * after
        history.append(sq_sum / len(log))
    return history


def td_update_sweep(critic, log, gamma, learning_rate, seed, max_epochs, lr_decay_epochs=8.0):
    """train_critic_on_log's sweep as one `hdp.td_update` per transition on
    the critic's kernel passes: the target and the value at the present
    parameters, the step, and the value again after it; the step is
    written into critic.params.  Entry 0 and the stopping rules are left
    out, as in three_forward_sweep."""
    x_now, x_next, u = map(np.array, zip(*log))
    j, _ = critic.forward(np.concatenate((x_now, x_next)))
    resid = td_error(j[:len(u), 0], j[len(u):, 0], u, gamma)
    history = [float(np.mean(resid * resid))]
    forward = critic.kernels.forward
    rng = np.random.default_rng(seed)
    order = np.arange(len(log))
    for epoch in range(max_epochs):
        lr = learning_rate
        if lr_decay_epochs > 0.0:
            lr /= 1.0 + epoch / lr_decay_epochs
        rng.shuffle(order)
        sq_sum = 0.0
        for idx in order:
            x, x_next, u = log[idx]
            x, p = x.tolist(), critic.params.tolist()
            target = forward(p, x_next.tolist())[-1]
            critic.params[:] = p = td_update(critic, p, forward(p, x), target, u, gamma, lr)
            after = td_error(forward(p, x)[-1], target, u, gamma)
            sq_sum += after * after
        history.append(sq_sum / len(log))
    return history


def excitation_log_200():
    params = PlantParams()
    law = make_reference_law(params)
    return generate_excitation_log(law, params, seed=0, n_episodes=1, n_holds=2)[:200]


class TestTrainCriticOnLog:
    def test_matches_the_three_forward_sweep(self):
        log = excitation_log_200()
        critic, reference = make_critic(seed=0), make_critic(seed=0)
        hist = train_critic_on_log(critic, log, GAMMA, RATE, seed=1, max_epochs=3)
        ref_hist = three_forward_sweep(reference, log, GAMMA, RATE, seed=1, max_epochs=3)
        assert len(hist) == 4
        assert hist == ref_hist
        assert hist[-1] < hist[0]
        assert critic.params.tobytes() == reference.params.tobytes()

    def test_same_bits_as_td_update_per_transition(self):
        log = excitation_log_200()
        critic, reference = make_critic(seed=0), make_critic(seed=0)
        hist = train_critic_on_log(critic, log, GAMMA, RATE, seed=1, max_epochs=3)
        ref_hist = td_update_sweep(reference, log, GAMMA, RATE, seed=1, max_epochs=3)
        assert hist == ref_hist
        assert critic.params.tobytes() == reference.params.tobytes()

    def test_non_finite_step_mid_epoch_leaves_the_net_as_the_epoch_found_it(self):
        log = excitation_log_200()
        bad = 100
        x_now, x_next, _ = log[bad]
        log[bad] = (x_now, x_next, float("nan"))
        order = np.arange(len(log))
        np.random.default_rng(1).shuffle(order)
        assert 0 < list(order).index(bad) < len(log) - 1  # inside the first epoch
        critic, reference = make_critic(seed=0), make_critic(seed=0)
        with pytest.raises(NonFiniteUpdateError):
            train_critic_on_log(critic, log, GAMMA, RATE, seed=1, max_epochs=3)
        # the reference loop accepts the steps before the bad one; the
        # refused epoch writes none of them
        with pytest.raises(NonFiniteUpdateError):
            three_forward_sweep(reference, log, GAMMA, RATE, seed=1, max_epochs=3)
        assert not np.array_equal(reference.params, make_critic(seed=0).params)
        assert critic.params.tobytes() == make_critic(seed=0).params.tobytes()

    def test_zero_utility_log_converges_to_zero(self):
        log = two_state_chain(0.0, GAMMA)
        critic = make_critic(seed=0)
        hist = train_critic_on_log(
            critic, log, GAMMA, 0.05, max_epochs=120, lr_decay_epochs=0.0,
        )
        assert hist[-1] < 1e-6

    def test_constant_utility_matches_geometric_value(self):
        u = 0.3
        log = two_state_chain(u, GAMMA)
        critic = make_critic(seed=0)
        train_critic_on_log(critic, log, GAMMA, 0.05, max_epochs=400, lr_decay_epochs=0.0)
        target = u / (1.0 - GAMMA)
        for x, _, _ in log:
            j = float(critic.forward(x)[0][0])
            print(f"J={j:.4f} target={target:.4f}")
            assert j == pytest.approx(target, abs=1e-2)

    def test_history_starts_with_untrained_residual(self):
        log = two_state_chain(0.3, GAMMA)
        critic = make_critic(seed=0)
        hist = train_critic_on_log(critic, log, GAMMA, 0.05, max_epochs=3)
        # entry 0 is a pure evaluation: recomputing it on a fresh critic of
        # the same seed gives the same number
        fresh = make_critic(seed=0)
        sq = 0.0
        for x_now, x_next, u in log:
            r = (float(fresh.forward(x_now)[0][0])
                 - GAMMA * float(fresh.forward(x_next)[0][0]) - u)
            sq += r * r
        assert hist[0] == pytest.approx(sq / len(log))
        assert len(hist) == 4

    def test_stops_at_plateau_before_the_cap(self):
        log = two_state_chain(0.3, GAMMA)
        hist = train_critic_on_log(make_critic(seed=0), log, GAMMA, 0.01, max_epochs=400,
                                   lr_decay_epochs=0.0)
        assert len(hist) == 258  # the untrained residual, then 257 epochs
        # the last epoch is the first, from epoch 5 on, to improve the mean
        # by a fraction in [0, 1e-4)
        gains = [(a - b) / a for a, b in zip(hist[4:-1], hist[5:])]
        assert 0.0 <= gains[-1] < 1e-4
        assert not any(0.0 <= g < 1e-4 for g in gains[:-1])

    def test_no_progress_raises(self):
        log = two_state_chain(0.3, GAMMA)
        with pytest.raises(PretrainingError, match="first 5 epochs"):
            # a frozen critic cannot improve
            train_critic_on_log(make_critic(seed=0), log, GAMMA, 0.0, max_epochs=10)

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train_critic_on_log(make_critic(seed=0), [], GAMMA, RATE)


class TestPretrainAndClone:
    params = PlantParams()

    def test_pretrain_smoke_decreases_residual(self):
        law = make_reference_law(self.params)
        log = generate_excitation_log(law, self.params, seed=0,
                                      n_episodes=1, n_holds=3)
        critic, hist = pretrain_critic(log, GAMMA, seed=0, max_epochs=8)
        print("residual history:", [f"{h:.4f}" for h in hist])
        assert hist[-1] < hist[0]
        assert list(critic.layer_sizes) == [5, 5, 5, 1]

    def test_clone_learns_the_teacher(self):
        law = make_reference_law(self.params)
        log = generate_excitation_log(law, self.params,
                                      n_episodes=1, n_holds=3)
        action = make_action(seed=0)
        mse_short = clone_action(action, log, epochs=1)
        action = make_action(seed=0)
        mse_long = clone_action(action, log, epochs=25)
        print(f"clone mse: 1 epoch {mse_short:.5f} -> 25 epochs {mse_long:.5f}")
        assert mse_long < mse_short
        assert mse_long < 2e-3
        # the cloned net reproduces the law's duty on a log state
        x, _, _ = log[len(log) // 2]
        d_min, d_max = DUTY_LIMITS
        y = float(action.forward(x[:4])[0][0])
        duty_net = d_min + (d_max - d_min) * y
        assert duty_net == pytest.approx(x[4], abs=0.05)

    def test_clone_empty_log_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            clone_action(make_action(seed=0), [])

    @pytest.mark.parametrize("key", ["learning_rate", "clone_learning_rate"])
    @pytest.mark.parametrize("rate", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_rate_rejected(self, key, rate):
        with pytest.raises(ValueError, match="pretraining rates must be finite"):
            PretrainSettings(**{key: rate})

    def test_clone_no_better_than_a_constant_raises(self):
        # a huge rate saturates the sigmoid; the fit is then worse than
        # predicting the mean target
        law = make_reference_law(self.params)
        log = generate_excitation_log(law, self.params,
                                      n_episodes=1, n_holds=2)
        with np.errstate(over="ignore"), pytest.raises(
            PretrainingError, match="not below the variance of its targets"
        ):
            clone_action(make_action(seed=0), log, epochs=2,
                         learning_rate=1e200)


def public_clone(action, log, seed, epochs, learning_rate):
    """clone_action's loop written with the public 1-D forward, grad_weights
    and apply_update."""
    d_min, d_max = DUTY_LIMITS
    x_now = np.array([x for x, _, _ in log])
    targets = np.clip((x_now[:, 4] - d_min) / (d_max - d_min), 0.02, 0.98)
    rng = np.random.default_rng(seed)
    order = np.arange(len(log))
    mse = 0.0
    for epoch in range(epochs):
        lr = learning_rate / (1.0 + epoch / 8.0)
        rng.shuffle(order)
        sq_sum = 0.0
        for idx in order:
            y, cache = action.forward(x_now[idx, :4])
            err = float(y[0]) - float(targets[idx])
            action.apply_update(action.grad_weights(cache, [err]), lr)
            sq_sum += err * err
        mse = sq_sum / len(log)
    return mse


class TestOfflineStagesGolden:
    """The offline stages run on the nets' kernels; their results must be
    the bits of the same loops written with the public 1-D API."""

    @pytest.fixture(scope="class")
    def log(self):
        params = PlantParams()
        law = make_reference_law(params)
        return generate_excitation_log(law, params, seed=0, n_episodes=1, n_holds=2)

    def test_train_critic_on_log_matches_public_reference_loop(self, log):
        critic, reference = make_critic(seed=0), make_critic(seed=0)
        hist = train_critic_on_log(critic, log, GAMMA, RATE, seed=1, max_epochs=3)
        ref_hist = three_forward_sweep(reference, log, GAMMA, RATE, seed=1, max_epochs=3)
        assert len(hist) == 4
        assert hist == ref_hist
        assert critic.params.tobytes() == reference.params.tobytes()

    def test_non_finite_clone_step_leaves_the_net_as_the_epoch_found_it(self, log):
        log = list(log)
        bad = 100
        x_now, x_next, u = log[bad]
        log[bad] = (np.concatenate(([np.nan], x_now[1:])), x_next, u)
        order = np.arange(len(log))
        np.random.default_rng(2).shuffle(order)
        assert 0 < list(order).index(bad) < len(log) - 1  # inside the first epoch
        action, reference = make_action(seed=0), make_action(seed=0)
        rate = PretrainSettings.clone_learning_rate
        with pytest.raises(NonFiniteUpdateError):
            clone_action(action, log, seed=2, epochs=3, learning_rate=rate)
        # the reference loop accepts the steps before the bad one; the
        # refused epoch writes none of them
        with pytest.raises(NonFiniteUpdateError):
            public_clone(reference, log, seed=2, epochs=3, learning_rate=rate)
        assert not np.array_equal(reference.params, make_action(seed=0).params)
        assert action.params.tobytes() == make_action(seed=0).params.tobytes()

    def test_clone_action_matches_public_reference_loop(self, log):
        action, reference = make_action(seed=0), make_action(seed=0)
        rate = PretrainSettings.clone_learning_rate
        mse = clone_action(action, log, seed=2, epochs=3, learning_rate=rate)
        ref_mse = public_clone(reference, log, seed=2, epochs=3,
                               learning_rate=rate)
        assert mse == ref_mse
        assert action.params.tobytes() == reference.params.tobytes()


class TestClosedLoopHdp:
    def test_untrained_controller_triggers_divergence_guard(self):
        # random nets have no reason to regulate; the guard must catch the
        # runaway rather than let the sweep run on garbage
        params = PlantParams()
        spec = builtin_scenario("startup", "HDP-frozen")
        ctrl = HdpController(
            critic=make_critic(seed=1), action=make_action(seed=1),
            config=HdpConfig(),
        )
        try:
            _, m = run_scenario(spec, ctrl, params)
            # an untrained sigmoid can also park mid-range and never settle
            assert m.unsettled
        except SimulationDiverged:
            pass
