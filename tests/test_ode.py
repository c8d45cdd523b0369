import dataclasses
import math

import numpy as np
import pytest

from sepaird.ode import (
    _clip_negatives,
    COMPARTMENTS,
    OdeError,
    OdeParams,
    abm_to_ode,
    basic_reproduction,
    derivative,
    effective_reproduction,
    fitness_sensitivities,
    integrate,
    seeded_state,
)
from sepaird.params import SimParams

DEFAULTS = abm_to_ode(SimParams())


def test_compartment_names():
    assert COMPARTMENTS == ("S", "E", "P", "A", "I", "R", "D")


def test_abm_to_ode_rates():
    p = DEFAULTS
    assert p.beta == pytest.approx(0.625, abs=1e-15)
    assert p.alpha == pytest.approx(0.25, abs=1e-15)
    assert p.mu == pytest.approx(0.5, abs=1e-15)
    assert p.gamma == pytest.approx(0.5, abs=1e-15)
    assert p.nu == pytest.approx(0.7, abs=1e-15)
    assert p.lam == pytest.approx(0.99, abs=1e-15)


def test_abm_to_ode_clamps_infectiousness():
    p = abm_to_ode(dataclasses.replace(SimParams(), infectiousness0=3.0))
    assert p.beta == pytest.approx(10.0)  # probability clamps at 1


@pytest.mark.parametrize(
    "overrides",
    [
        {"latent_end0": 4.0, "incubation_end0": 4.0 + 1e-13},
        {"incubation_end0": 7.999999999999999, "duration0": 8.0},
    ],
)
def test_abm_to_ode_rejects_near_degenerate(overrides):
    # a vanishing phase length maps to an unbounded rate
    p = dataclasses.replace(SimParams(), **overrides)
    try:
        mapped = abm_to_ode(p)
    except OdeError as exc:
        assert "zero-length phase" in str(exc)
    else:
        assert math.isfinite(mapped.mu) and math.isfinite(mapped.gamma)


def test_basic_reproduction_default():
    assert abs(basic_reproduction(DEFAULTS) - 2.5) <= 1e-12


def test_presymptomatic_share_half():
    share = (DEFAULTS.beta / DEFAULTS.mu) / basic_reproduction(DEFAULTS)
    assert abs(share - 0.5) <= 1e-12


def test_isolation_r0():
    iso = dataclasses.replace(DEFAULTS, isolate=True)
    assert abs(basic_reproduction(iso) - 1.625) <= 1e-12


def test_distancing_r0():
    dist = dataclasses.replace(DEFAULTS, delta=0.8)
    assert abs(basic_reproduction(dist) - 0.5) <= 1e-12


def test_isolation_never_raises_r0():
    rng = np.random.default_rng(17)
    for _ in range(300):
        p = OdeParams(
            beta=rng.uniform(0.05, 3.0),
            alpha=rng.uniform(0.05, 2.0),
            mu=rng.uniform(0.05, 2.0),
            gamma=rng.uniform(0.05, 2.0),
            nu=rng.uniform(0.0, 1.0),
            lam=rng.uniform(0.0, 1.0),
        )
        iso = dataclasses.replace(p, isolate=True)
        assert basic_reproduction(iso) <= basic_reproduction(p) + 1e-15
        if p.nu == 0.0:
            assert basic_reproduction(iso) == basic_reproduction(p)
    flat = dataclasses.replace(p, nu=0.0)
    assert basic_reproduction(dataclasses.replace(flat, isolate=True)) == basic_reproduction(flat)


def test_effective_reproduction_linear_in_s():
    # move mass between S and R, keeping the living total fixed
    lo = np.array([2000.0, 0.0, 0.0, 0.0, 0.0, 8000.0, 0.0])
    hi = np.array([4000.0, 0.0, 0.0, 0.0, 0.0, 6000.0, 0.0])
    assert effective_reproduction(hi, DEFAULTS) == pytest.approx(
        2.0 * effective_reproduction(lo, DEFAULTS), rel=1e-14
    )


def test_effective_reproduction_full_population():
    s = seeded_state(10000, 0, compartment="E")
    assert effective_reproduction(s, DEFAULTS) == pytest.approx(2.5, abs=1e-12)


def test_effective_reproduction_extinct_population():
    dead = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10000.0])
    with pytest.raises(OdeError, match="extinct"):
        effective_reproduction(dead, DEFAULTS)
    # one extinct row fails the whole stack
    stack = np.array([seeded_state(10000, 10), dead, seeded_state(10000, 10)])
    with pytest.raises(OdeError, match="extinct"):
        effective_reproduction(stack, DEFAULTS)


@pytest.mark.parametrize("overrides", [dict(), dict(isolate=True, delta=0.3)])
def test_effective_reproduction_of_a_stack_is_each_row_alone(overrides):
    p = dataclasses.replace(DEFAULTS, **overrides)
    states = integrate(seeded_state(10000, 10, compartment="P"), p, horizon=200.0, dt=0.1).states
    one = effective_reproduction(states[-1].tolist(), p)
    assert type(one) is float
    rows = np.array([effective_reproduction(row.tolist(), p) for row in states])
    assert effective_reproduction(states, p).tobytes() == rows.tobytes()


def test_seeded_state_compartments():
    s = seeded_state(100, 10, compartment="P")
    assert s.dtype == np.float64 and s.shape == (len(COMPARTMENTS),)
    assert s[0] == 90.0 and s[2] == 10.0 and s.sum() == 100.0
    e = seeded_state(100, 10, compartment="E")
    assert e[1] == 10.0
    for bad in ("S", "D", "Z"):
        with pytest.raises(OdeError):
            seeded_state(100, 10, compartment=bad)


def test_derivative_conserves_mass():
    s = seeded_state(1.0, 0.001, compartment="I")
    S, E, P, A, I, R, D = derivative(s, DEFAULTS)
    assert abs(S + E + P + A + I + R + D) <= 1e-12


def test_derivative_conserves_mass_randomized():
    rng = np.random.default_rng(3)
    for _ in range(200):
        parts = rng.dirichlet(np.ones(7))  # unit-scale state
        S, E, P, A, I, R, D = derivative(parts, DEFAULTS)
        total = S + E + P + A + I + R + D
        assert abs(total) <= 1e-12


def test_integrated_mass_constant():
    s0 = seeded_state(10000, 10, compartment="E")
    traj = integrate(s0, DEFAULTS, horizon=300.0, dt=0.05)
    totals = traj.states.sum(axis=1)
    assert np.max(np.abs(totals - 10000.0)) <= 1e-6
    assert traj.clip_count == 0


def test_trajectory_shape_and_monotone_compartments():
    s0 = seeded_state(10000, 10, compartment="E")
    traj = integrate(s0, DEFAULTS, horizon=200.0, dt=0.1)
    assert traj.times.shape == (2001,)
    assert traj.states.shape == (2001, 7)
    S = traj.states[:, 0]
    R = traj.states[:, 5]
    D = traj.states[:, 6]
    assert np.all(np.diff(S) <= 1e-9)
    assert np.all(np.diff(R) >= -1e-9)
    assert np.all(np.diff(D) >= -1e-9)
    assert np.all(traj.states >= -1e-12)


def test_effective_reproduction_declines_with_susceptibles():
    s0 = seeded_state(10000, 10, compartment="E")
    traj = integrate(s0, DEFAULTS, horizon=120.0, dt=0.05)
    assert traj.times[20] == pytest.approx(1.0) and traj.times[-1] == pytest.approx(120.0)
    early = effective_reproduction(traj.states[20], DEFAULTS)
    late = effective_reproduction(traj.states[-1], DEFAULTS)
    assert early > 2.0 > late


def test_rk4_convergence_order():
    """Halving dt should scale the endpoint error by about 2**4."""
    s0 = seeded_state(10000, 10, compartment="E")
    ref = integrate(s0, DEFAULTS, horizon=30.0, dt=0.0125).states[-1]
    errs = []
    for dt in (0.4, 0.2, 0.1):
        y = integrate(s0, DEFAULTS, horizon=30.0, dt=dt).states[-1]
        errs.append(np.linalg.norm(y - ref))
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(orders) >= 3.5


def test_integrate_argument_validation():
    s0 = seeded_state(100, 1)
    with pytest.raises(OdeError):
        integrate(s0, DEFAULTS, horizon=10.0, dt=0.0)
    with pytest.raises(OdeError):
        integrate(s0, DEFAULTS, horizon=0.01, dt=0.05)


@pytest.mark.parametrize("horizon, dt", [(1.1, 0.4), (1.0, 0.4)], ids=["past", "short"])
def test_integrate_rejects_a_horizon_that_is_no_whole_number_of_steps(horizon, dt):
    # round() would integrate to 1.2000000000000002 and to 0.8
    with pytest.raises(OdeError, match=f"horizon {horizon} .* dt {dt}"):
        integrate(seeded_state(100, 1), DEFAULTS, horizon=horizon, dt=dt)


def test_sensitivity_signs_at_defaults():
    s = seeded_state(10000, 10, compartment="E")
    sens = fitness_sensitivities(s, DEFAULTS)
    assert sens.signs["beta"] == 1
    assert sens.signs["gamma"] == -1
    assert sens.signs["mu"] == -1
    assert sens.signs["nu"] == 0  # no isolation: symptomatic share is neutral
    assert sens.signs["S"] == 1
    assert sens.signs["N"] == -1


def test_sensitivity_nu_negative_under_isolation():
    s = seeded_state(10000, 10, compartment="E")
    sens = fitness_sensitivities(s, dataclasses.replace(DEFAULTS, isolate=True))
    assert sens.signs["nu"] == -1
    assert sens.signs["mu"] == -1
    assert sens.signs["beta"] == 1


def test_sensitivity_derivatives_match_closed_form():
    s = seeded_state(10000, 100, compartment="E")
    s[0] -= 2000.0
    s[5] += 1500.0  # S/N well below 1, so every partial carries its S/N factor
    S, N = s[0], s[:6].sum()
    for isolate in (False, True):
        p = dataclasses.replace(DEFAULTS, delta=0.3, isolate=isolate)
        kept = 1 - p.delta
        sigma = 1 - p.nu if isolate else 1
        expected = {
            "beta": kept * (1 / p.mu + sigma / p.gamma) * S / N,
            "gamma": -kept * sigma * p.beta / p.gamma**2 * S / N,
            "mu": -kept * p.beta / p.mu**2 * S / N,
            "nu": -kept * p.beta / p.gamma * S / N if isolate else 0.0,
            "S": basic_reproduction(p) / N,
            "N": -basic_reproduction(p) * S / N**2,
        }
        sens = fitness_sensitivities(s, p)
        assert sens.derivatives == pytest.approx(expected, rel=1e-12, abs=0.0)


def _array_rk4(y0, p, horizon, dt):
    """The array form of ``integrate``'s steps, as the byte reference."""
    y = np.array(y0, dtype=np.float64)
    states = [y]
    for _ in range(int(round(horizon / dt))):
        k1 = derivative(y, p)
        k2 = derivative(y + 0.5 * dt * k1, p)
        k3 = derivative(y + 0.5 * dt * k2, p)
        k4 = derivative(y + dt * k3, p)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if y.min() < 0.0:
            y = np.maximum(y, 0.0)
        states.append(y)
    return np.array(states)


@pytest.mark.parametrize(
    "overrides, compartment",
    [
        (dict(), "E"),
        (dict(isolate=True, delta=0.3), "P"),
        # survival a hair above 1 drains D by float noise: clipped every step
        (dict(lam=float(np.nextafter(1.0, 2.0))), "I"),
    ],
)
def test_integrate_matches_array_form_bytes(overrides, compartment):
    p = dataclasses.replace(DEFAULTS, **overrides)
    s0 = seeded_state(10000, 10, compartment=compartment)
    traj = integrate(s0, p, horizon=60.0, dt=0.1)
    assert traj.states.tobytes() == _array_rk4(s0, p, 60.0, 0.1).tobytes()
    assert (traj.clip_count > 0) == ("lam" in overrides)


def test_clip_maps_signed_zeros_like_numpy_maximum():
    y = [-0.0, 0.0, -1e-13, 2.5, -5e-324, 1e-300, -0.0]
    assert np.array(_clip_negatives(y)).tobytes() == np.maximum(np.array(y), 0.0).tobytes()
