"""Deterministic SEPAIRD reference model.

Compartments: Susceptible, Exposed (latent), Pre-symptomatic, permanently
Asymptomatic, symptomatic Infected, Recovered, Dead.  Transmission comes
from P, A and (unless isolated) I; uniform social distancing scales the
force of infection by ``1 - delta``.  The two policies may be combined,
composing multiplicatively.

A state is one float64 vector of the seven masses in ``COMPARTMENTS``
order.  The living population ``N = S+E+P+A+I+R`` (excluding D)
normalizes the force of infection and the effective reproduction number.
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


def _living(y) -> float:
    """Living population ``S+E+P+A+I+R``; OdeError once it is gone."""
    S, E, P, A, I, R, _ = y
    living = S + E + P + A + I + R
    if living <= 0.0:
        raise OdeError("population extinct")
    return living


def derivative(y: np.ndarray, p: OdeParams) -> np.ndarray:
    """Time derivative of the seven compartments; components sum to zero."""
    return np.array(_rates(y.tolist(), p))


def _rates(y, p: OdeParams) -> tuple:
    """``derivative`` over a sequence of seven floats, as a tuple."""
    S, E, P, A, I, R, D = y
    living = S + E + P + A + I + R  # not _living(y): four calls per RK4 step
    if living <= 0.0:
        raise OdeError("population extinct")
    infectious = P + A if p.isolate else I + P + A
    force = S * p.beta * (1.0 - p.delta) * infectious / living
    dS = -force
    dE = force - E * p.alpha
    dP = E * p.alpha - P * p.mu
    dA = P * p.mu * (1.0 - p.nu) - A * p.gamma
    dI = P * p.mu * p.nu - I * p.gamma
    dR = A * p.gamma + I * p.lam * p.gamma
    dD = I * (1.0 - p.lam) * p.gamma
    return dS, dE, dP, dA, dI, dR, dD


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
    """Classical fixed-step RK4 over ``[0, horizon]`` from state ``y0``.

    Total mass is checked to 1e-9 relative at every step; float-noise
    negatives above -1e-12 are clipped to zero and counted.  The steps run
    on Python floats in the operation order of the array form
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
    times = np.arange(n_steps + 1) * dt
    states = np.zeros((n_steps + 1, len(COMPARTMENTS)))
    states[0] = y0
    y = states[0].tolist()
    mass0 = float(states[0].sum())
    clip_count = 0
    h = 0.5 * dt
    sixth = dt / 6.0
    isfinite = math.isfinite
    for i in range(n_steps):
        k1 = _rates(y, p)
        k2 = _rates([a + h * b for a, b in zip(y, k1)], p)
        k3 = _rates([a + h * b for a, b in zip(y, k2)], p)
        k4 = _rates([a + dt * b for a, b in zip(y, k3)], p)
        y = [
            a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        ]
        if not all(map(isfinite, y)):
            raise OdeError("integration diverged")
        low = min(y)
        if low < 0.0:
            if low < -1e-12:
                raise OdeError(f"integration diverged: compartment reached {low}")
            clip_count += sum(v < 0.0 for v in y)
            y = _clip_negatives(y)
        S, E, P, A, I, R, D = y
        if abs(S + E + P + A + I + R + D - mass0) > 1e-9 * max(mass0, 1.0):
            raise OdeError("integration diverged: mass not conserved")
        states[i + 1] = y
    return Trajectory(times=times, states=states, clip_count=clip_count)


def basic_reproduction(p: OdeParams) -> float:
    """Secondary infections of one case in a fully susceptible population:
    ``(1 - delta) * (beta / mu + sigma * beta / gamma)``, where ``sigma``,
    the share of courses that still transmit after the pre-symptomatic
    phase, is ``1 - nu`` under isolation and 1 otherwise."""
    sigma = 1.0 - p.nu if p.isolate else 1.0
    return (p.beta / p.mu + p.beta * sigma / p.gamma) * (1.0 - p.delta)


def effective_reproduction(y, p: OdeParams) -> float:
    """Reproduction number scaled by the current susceptible share."""
    return float(basic_reproduction(p) * y[0] / _living(y))


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
