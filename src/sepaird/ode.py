"""Deterministic SEPAIRD reference model.

Compartments: Susceptible, Exposed (latent), Pre-symptomatic, permanently
Asymptomatic, symptomatic Infected, Recovered, Dead.  Transmission comes
from P, A and (unless isolated) I; uniform social distancing scales the
force of infection by ``1 - delta``.  The two policies may be combined,
composing multiplicatively.

A state is one float64 vector of the seven masses in ``COMPARTMENTS``
order; ``effective_reproduction`` also takes an ``(n, 7)`` stack of them.
The living population ``N = S+E+P+A+I+R`` (excluding D) normalizes the
force of infection and the effective reproduction number.  The rate
formula has one home, ``_rate_function``, which both ``derivative`` and
``integrate`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import SimParams

COMPARTMENTS = ("S", "E", "P", "A", "I", "R", "D")


class OdeError(ValueError):
    """Degenerate parameters or a diverged integration."""


@dataclass(frozen=True)
class OdeParams:
    """Rates of the compartmental model.

    beta:  infectious contacts per day
    alpha: 1 / latent days
    mu:    1 / pre-symptomatic days
    gamma: 1 / symptomatic days
    nu:    symptomatic share, in (0, 1)
    lam:   survival probability of a symptomatic course, in (0, 1)
    delta: social-distancing fraction, in [0, 1]
    isolate: symptomatic cases removed from transmission
    """

    beta: float
    alpha: float
    mu: float
    gamma: float
    nu: float
    lam: float
    delta: float = 0.0
    isolate: bool = False


def abm_to_ode(p: SimParams) -> OdeParams:
    """Map agent-level parameters to compartmental rates.

    Uses ``beta = daily_contacts * infectiousness`` and converts the
    wild-type course day marks into phase rates.
    """
    if p.latent_end0 <= 0.0 or p.incubation_end0 <= p.latent_end0 or p.duration0 <= p.incubation_end0:
        raise OdeError("zero-length phase: course day marks must be strictly ordered")
    return OdeParams(
        beta=p.daily_contacts * min(p.infectiousness0, 1.0),
        alpha=1.0 / p.latent_end0,
        mu=1.0 / (p.incubation_end0 - p.latent_end0),
        gamma=1.0 / (p.duration0 - p.incubation_end0),
        nu=p.symptomatic_chance0,
        lam=1.0 - p.fatality0,
        delta=p.social_distancing,
        isolate=p.isolate_symptomatic,
    )


def seeded_state(n_agents: float, n_infected: float, compartment: str = "P") -> np.ndarray:
    """Disease-free population with ``n_infected`` seeded into one compartment."""
    if compartment not in COMPARTMENTS or compartment in ("S", "D"):
        raise OdeError(f"cannot seed infections into compartment {compartment!r}")
    y = np.zeros(len(COMPARTMENTS))
    y[0] = n_agents - n_infected
    y[COMPARTMENTS.index(compartment)] = n_infected
    return y


def _living(y):
    """Living population ``S+E+P+A+I+R`` of a state, or of each state when
    the seven entries of ``y`` are arrays; OdeError once any is gone."""
    S, E, P, A, I, R, _ = y
    living = S + E + P + A + I + R
    if np.any(living <= 0.0):
        raise OdeError("population extinct")
    return living


def _rate_function(p: OdeParams):
    """The model's rates with the constants of ``p`` bound: a function of
    the seven masses ``(S, E, P, A, I, R, D)`` that returns their time
    derivatives as a tuple of floats, which sum to zero."""
    beta, alpha, mu, gamma, nu, lam = p.beta, p.alpha, p.mu, p.gamma, p.nu, p.lam
    kept, asymptomatic, fatal, isolate = 1.0 - p.delta, 1.0 - nu, 1.0 - lam, p.isolate

    def rates(S, E, P, A, I, R, D):
        living = S + E + P + A + I + R  # not _living: four calls per RK4 step
        if living <= 0.0:
            raise OdeError("population extinct")
        infectious = P + A if isolate else I + P + A
        force = S * beta * kept * infectious / living
        latent_end = E * alpha
        presymptomatic_end = P * mu
        return (
            -force,
            force - latent_end,
            latent_end - presymptomatic_end,
            presymptomatic_end * asymptomatic - A * gamma,
            presymptomatic_end * nu - I * gamma,
            A * gamma + I * lam * gamma,
            I * fatal * gamma,
        )

    return rates


def derivative(y: np.ndarray, p: OdeParams) -> np.ndarray:
    """Time derivative of the seven compartments; components sum to zero."""
    return np.array(_rate_function(p)(*y.tolist()))


def _clip_negatives(y) -> list:
    """``np.maximum(y, 0.0)`` over floats: a zero of either sign becomes +0.0."""
    return [v if v > 0.0 else 0.0 for v in y]


@dataclass
class Trajectory:
    """Fixed-step solution: ``states[i]`` is the state at ``times[i]``."""

    times: np.ndarray
    states: np.ndarray
    clip_count: int = 0


# Longest integration accepted; the arrays are sized before the first
# step, so a tiny ``dt`` must fail here rather than in the allocator.
MAX_STEPS = 1_000_000


def integrate(y0: np.ndarray, p: OdeParams, horizon: float, dt: float = 0.05) -> Trajectory:
    """Classical fixed-step RK4 over ``[0, horizon]`` from state ``y0``;
    ``horizon`` must be a whole number of steps ``dt``.

    Total mass is checked to 1e-9 relative at every step; float-noise
    negatives above -1e-12 are clipped to zero and counted.  The steps run
    on seven Python floats in the operation order of the array form
    ``y + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4)``, so the states are the same
    bytes.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise OdeError(f"dt must be finite and > 0, got {dt}")
    if not (math.isfinite(horizon) and horizon >= dt):
        raise OdeError(f"horizon must be finite and >= dt, got {horizon}")
    if horizon / dt > MAX_STEPS:
        raise OdeError(f"horizon {horizon} at dt {dt} needs more than {MAX_STEPS} steps")
    n_steps = int(round(horizon / dt))
    if abs(n_steps * dt - horizon) > 1e-9 * horizon:
        raise OdeError(f"horizon {horizon} is not a whole number of steps of dt {dt}")
    times = np.arange(n_steps + 1) * dt
    states = np.zeros((n_steps + 1, len(COMPARTMENTS)))
    states[0] = y0
    S, E, P, A, I, R, D = states[0].tolist()
    mass0 = float(states[0].sum())
    tolerance = 1e-9 * max(mass0, 1.0)
    clip_count = 0
    rates = _rate_function(p)
    h = 0.5 * dt
    sixth = dt / 6.0
    isfinite = math.isfinite
    for i in range(n_steps):
        s1, e1, p1, a1, i1, r1, d1 = rates(S, E, P, A, I, R, D)
        s2, e2, p2, a2, i2, r2, d2 = rates(
            S + h * s1, E + h * e1, P + h * p1, A + h * a1, I + h * i1, R + h * r1, D + h * d1
        )
        s3, e3, p3, a3, i3, r3, d3 = rates(
            S + h * s2, E + h * e2, P + h * p2, A + h * a2, I + h * i2, R + h * r2, D + h * d2
        )
        s4, e4, p4, a4, i4, r4, d4 = rates(
            S + dt * s3, E + dt * e3, P + dt * p3, A + dt * a3, I + dt * i3, R + dt * r3,
            D + dt * d3,
        )
        S = S + sixth * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
        E = E + sixth * (e1 + 2.0 * e2 + 2.0 * e3 + e4)
        P = P + sixth * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
        A = A + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        I = I + sixth * (i1 + 2.0 * i2 + 2.0 * i3 + i4)
        R = R + sixth * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
        D = D + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        if not (isfinite(S) and isfinite(E) and isfinite(P) and isfinite(A)
                and isfinite(I) and isfinite(R) and isfinite(D)):
            raise OdeError("integration diverged")
        low = min(S, E, P, A, I, R, D)
        if low < 0.0:
            if low < -1e-12:
                raise OdeError(f"integration diverged: compartment reached {low}")
            y = (S, E, P, A, I, R, D)
            clip_count += sum(v < 0.0 for v in y)
            S, E, P, A, I, R, D = _clip_negatives(y)
        if abs(S + E + P + A + I + R + D - mass0) > tolerance:
            raise OdeError("integration diverged: mass not conserved")
        states[i + 1] = S, E, P, A, I, R, D
    return Trajectory(times=times, states=states, clip_count=clip_count)


def basic_reproduction(p: OdeParams) -> float:
    """Secondary infections of one case in a fully susceptible population:
    ``(1 - delta) * (beta / mu + sigma * beta / gamma)``, where ``sigma``,
    the share of courses that still transmit after the pre-symptomatic
    phase, is ``1 - nu`` under isolation and 1 otherwise."""
    sigma = 1.0 - p.nu if p.isolate else 1.0
    return (p.beta / p.mu + p.beta * sigma / p.gamma) * (1.0 - p.delta)


def effective_reproduction(y, p: OdeParams):
    """Reproduction number scaled by the current susceptible share: a float
    for one state, an array of one value per row for an ``(n, 7)`` stack.
    Each row's value is the bytes its state alone gives."""
    if np.ndim(y) == 1:
        return float(basic_reproduction(p) * y[0] / _living(y))
    states = np.asarray(y, dtype=np.float64)
    return basic_reproduction(p) * states[:, 0] / _living(states.T)


@dataclass(frozen=True)
class FitnessSensitivities:
    """Partial derivatives of the effective reproduction number.

    ``signs`` maps each quantity to -1, 0 or +1.  Higher values mark
    directions in which a variant gains evolutionary fitness.
    """

    derivatives: dict
    signs: dict


def fitness_sensitivities(y, p: OdeParams) -> FitnessSensitivities:
    """Closed-form gradient of ``R_t = basic_reproduction(p) * S / N`` over
    (beta, gamma, mu, nu, S, N).

    S and N are treated as independent arguments of R_t, so the S
    derivative holds the living population fixed.  Without isolation the
    nu derivative is exactly zero (nu does not enter the formula).
    """
    S, N = float(y[0]), _living(y)
    r0 = basic_reproduction(p)
    scale = (1.0 - p.delta) * S / N
    sigma = 1.0 - p.nu if p.isolate else 1.0
    derivatives = {
        "beta": scale * (1.0 / p.mu + sigma / p.gamma),
        "gamma": -scale * sigma * p.beta / p.gamma**2,
        "mu": -scale * p.beta / p.mu**2,
        "nu": -scale * p.beta / p.gamma if p.isolate else 0.0,
        "S": r0 / N,
        "N": -r0 * S / N**2,
    }
    signs = {name: int(d > 0.0) - int(d < 0.0) for name, d in derivatives.items()}
    return FitnessSensitivities(derivatives=derivatives, signs=signs)
