"""The TD step on a 1-D forward cache, written with the public gradient API:
the reference that `hdp.td_update`, which steps on a critic kernel pass,
must match bit for bit."""

from boosthdp.hdp import td_error


def td_step_1d(critic, cache, target, u_now, gamma, learning_rate):
    """One semi-gradient step of `critic` on the 1-D pass in `cache` toward
    u_now + gamma * target; returns the residual before the step."""
    resid = td_error(float(cache.activations[-1][0]), target, u_now, gamma)
    # loss 0.5*resid^2, so d(loss)/d(output) is the residual itself
    critic.apply_update(critic.grad_weights(cache, [resid]), learning_rate)
    return resid
