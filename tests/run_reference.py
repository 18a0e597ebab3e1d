"""A scenario's HDP periods written with the public one-step API: the
reference that `sim` runs, whose periods run in one generated loop
(`HdpController.run_periods`), must match bit for bit.  Each period builds a
checked `ControllerInput` and calls `control_step`, which, outside a hold,
runs in a one-period hold of its own; the segments, the plant step (`sim`'s
binding, read per call) and the divergence guard are the harness's."""

from dataclasses import replace

from boosthdp import sim
from boosthdp.hdp import ControllerInput, utility
from boosthdp.plant import steady_state_hint


def per_call_periods(controller, learn, state, duty, segments, params, columns):
    """`sim._run_periods` for an HdpController, one control_step per
    period: the same arguments and the same return."""
    t_sw, i_max = params.t_sw, sim.current_limit(params)
    for periods, v_s, r_load in segments:
        segment_params = params
        if v_s != params.v_s or r_load != params.r_load:
            segment_params = replace(params, v_s=v_s, r_load=r_load)
        _, i_set = steady_state_hint(sim.V_SET, v_s, r_load)
        for k in periods:
            i_l, v_o, mode = state
            e_v, e_i = sim.V_SET - v_o, i_set - i_l
            duty, j_est = controller.control_step(ControllerInput(v_o, i_l, e_v, e_i, duty), learn)
            for column, value in zip(columns, (v_o, i_l, duty, utility(e_v, e_i), j_est, mode)):
                column.append(value)
            state = sim.step(state, duty, segment_params)
            if not (state.v_o <= 2.0 * sim.V_SET and state.i_l <= i_max):
                raise sim.SimulationDiverged(
                    f"{sim._runaway(state, i_max)} at t={k * t_sw + t_sw:.6f} s"
                )
    return state, duty


def run_per_call(spec, controller, params):
    """`sim.run_scenario` of one HDP spec, one control_step per period."""
    segments = sim._segments(spec, params.t_sw)
    controller.reset_transition_buffer()
    columns = ([], [], [], [], [], [])
    per_call_periods(controller, spec.controller_tag == "HDP", spec.initial_state, 0.0,
                     segments, params, columns)
    trace = sim._trace(segments, columns, params.t_sw)
    return trace, sim.compute_metrics(trace)
