"""Deterministic reference epidemic, start to finish.

Maps the default agent parameters onto compartmental rates, prints the
headline reproduction numbers, integrates a 200-day trajectory and
reports the peak.  Writes ode_trajectory.csv next to this script.
"""

import dataclasses
import os

from sepaird.ode import (
    abm_to_ode,
    basic_reproduction,
    effective_reproduction,
    integrate,
    seeded_state,
)
from sepaird.params import SimParams

OUT = os.path.join(os.path.dirname(__file__), "output")


def main():
    p = SimParams()
    op = abm_to_ode(p)
    print("compartmental rates mapped from the agent defaults:")
    print(f"  beta={op.beta}  alpha={op.alpha}  mu={op.mu}  gamma={op.gamma}")
    print(f"  R0 = {basic_reproduction(op)}")
    print(f"  R0 under symptomatic isolation = "
          f"{basic_reproduction(dataclasses.replace(op, isolate=True))}")
    print(f"  R0 at 80% social distancing = "
          f"{basic_reproduction(dataclasses.replace(op, delta=0.8))}")

    s0 = seeded_state(p.n_agents, p.n_initial_infected, "P")
    trajectory = integrate(s0, op, horizon=200.0, dt=0.05)

    rows = list(zip(trajectory.times.tolist(), trajectory.states.tolist()))
    peak_t, peak_load = 0.0, 0.0
    for t, (S, E, P, A, I, R, D) in rows:
        load = E + P + A + I
        if load > peak_load:
            peak_t, peak_load = t, load
    final = rows[-1][1]
    print(f"\npeak infection load {peak_load:.0f} agents "
          f"({peak_load / p.n_agents:.1%}) on day {peak_t:.1f}")
    print(f"day 200: susceptible share {final[0] / p.n_agents:.1%}, "
          f"deaths {final[-1]:.0f}, Rt = {effective_reproduction(final, op):.3f}")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "ode_trajectory.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,S,E,P,A,I,R,D\n")
        for t, state in rows:
            fh.write(",".join(repr(v) for v in [t, *state]) + "\n")
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
