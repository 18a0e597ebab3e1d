"""HDP periods written with public APIs: the references that the generated
period code (`hdp._generate_run`) must match bit for bit.

`RecomputingController` is the control step written from the nets' 1-D
forward, grad_input, grad_weights and apply_update, independent of the
generated code.  `per_call_periods` runs a scenario's periods one
`control_step` call each, on any controller with that method: it builds a
checked `ControllerInput` per period, and takes the segments, the plant
step (`sim`'s binding, read per call) and the divergence guard from the
harness.  Each `HdpController.control_step` takes the nets' parameters
from their `params` and writes its steps back into them."""

from dataclasses import replace

import numpy as np

from boosthdp import sim
from boosthdp.hdp import I_SCALE, V_SCALE, ControllerInput, utility
from boosthdp.plant import DUTY_LIMITS, steady_state_hint
from td_reference import td_step_1d


class RecomputingController:
    """The control step, learning or frozen, written from the public
    forward, grad_input, grad_weights and apply_update, with every pass
    recomputed: the reference for `HdpController.control_step` and
    `HdpController.run_periods`."""

    def __init__(self, critic, action, config):
        self.critic, self.action, self.config = critic, action, config
        self.prev = None

    def reset_transition_buffer(self):
        self.prev = None

    def duty(self, y):
        d_min, d_max = DUTY_LIMITS
        return d_min + float(y[0]) * (d_max - d_min)

    def control_step(self, m, learn=True):
        cfg = self.config
        state = [m.v_o / V_SCALE, m.i_l / I_SCALE, m.e_v / V_SCALE, m.e_i / I_SCALE]
        a = np.array(state)
        y, action_cache = self.action.forward(a)
        if learn:
            x_hat = np.array(state + [self.duty(y)])
            if self.prev is not None:
                state_prev, u_prev = self.prev
                j_hat, _ = self.critic.forward(x_hat)
                _, cache = self.critic.forward(np.array(state_prev + [m.duty_prev]))
                td_step_1d(self.critic, cache, float(j_hat[0]), u_prev, cfg.gamma, cfg.lr_critic)
            _, cache = self.critic.forward(x_hat)
            dj_dx = self.critic.grad_input(cache, np.ones(1))
            d_min, d_max = DUTY_LIMITS
            grads = self.action.grad_weights(action_cache, [dj_dx[-1] * (d_max - d_min)])
            self.action.apply_update(grads, cfg.lr_action)
            y, _ = self.action.forward(a)
        duty = self.duty(y)
        j_now, _ = self.critic.forward(np.array(state + [duty]))
        self.prev = (state, utility(m.e_v, m.e_i))
        return duty, float(j_now[0])


def per_call_periods(controller, learn, state, duty, segments, params, columns):
    """`sim._run_periods` for an HDP controller, one control_step per
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
