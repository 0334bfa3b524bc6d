"""Fixed-step classical RK4: the tests' independent reference integrator.

The package integrates with LSODA alone; the tests compare it with this loop,
which steps with ``flows._rk4_step`` (looked up at each step, so a test can
count the calls) and records where ``flows.rk4_record_times`` says.
"""

import numpy as np

from contractkit import flows
from contractkit.errors import DivergenceError
from contractkit.flows import Trajectory, as_vector_field, rk4_steps


def rk4(f, u0, t_span, dt, record_every=1):
    """RK4 over t_span at the step ``rk4_steps`` takes for ``dt``, recording
    t0, every ``record_every``-th step and the last, at exactly t1.  Stats
    count the steps as ``accepted``/``rejected`` and the evaluations of f as
    ``nfev``.  A step that leaves the floats raises ``DivergenceError`` with
    the state before it."""
    f = as_vector_field(f)
    u = np.array(u0, dtype=float).reshape(-1)
    t0, t1 = float(t_span[0]), float(t_span[1])
    nsteps, dt_eff = rk4_steps(t0, t1, dt)
    times, states, t = [t0], [u.copy()], t0
    for step in range(nsteps):
        u_new = flows._rk4_step(f.eval, t, u, dt_eff)
        if not np.isfinite(u_new).all():
            raise DivergenceError(f"state became non-finite at t={t + dt_eff:.6g}",
                                  t=t + dt_eff, last_state=u)
        u = u_new
        # exactly t1 after the last step, where t0 + nsteps * dt_eff may
        # round one ulp past it
        t = t1 if step == nsteps - 1 else t0 + (step + 1) * dt_eff
        if (step + 1) % record_every == 0 or step == nsteps - 1:
            times.append(t)
            states.append(u.copy())
    return Trajectory(np.asarray(times), np.asarray(states),
                      stats={"accepted": nsteps, "rejected": 0, "nfev": 4 * nsteps})
