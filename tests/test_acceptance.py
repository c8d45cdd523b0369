"""Release acceptance gate.

One test per criterion; each prints the measured values next to its
threshold so a failing line documents exactly what was observed.  The
statistical criteria run 100 seeded replications per arm through the
same seed-derivation path as the sweep harness, so every number here is
reproducible bit for bit.
"""

import dataclasses

import numpy as np
import pytest
from scipy.stats import binomtest, mannwhitneyu

import sepaird.abm as abm
from sepaird.abm import init_world, run
from sepaird.montecarlo import (
    Scenario,
    SweepDataset,
    notched_box,
    quantile_series,
    replication_seed,
)
from sepaird.ode import (
    abm_to_ode,
    basic_reproduction,
    fitness_sensitivities,
    integrate,
    seeded_state,
)
from sepaird.params import SimParams
from sepaird.phylo import active_variant_stats, variant_r0, variant_r0_adapted
from sepaird.rng import RngStream

N = 10_000
REPS = 100
BASE_SEED = 42
WILD = np.array([0.0625, 4.0, 6.0, 8.0, 0.7, 0.01])


def _arm(scenario: Scenario, horizon: int, collect, reps: int = REPS) -> list:
    base = dataclasses.replace(SimParams(), horizon=horizon)
    out = []
    for rep in range(reps):
        p = dataclasses.replace(
            scenario.apply(base),
            seed=replication_seed(BASE_SEED, scenario, rep),
        )
        out.append(collect(init_world(p)))
    return out


def _final_variant_means(w):
    run(w)
    s = active_variant_stats(w)
    return (
        s.mean_infectiousness,
        s.mean_latent_end,
        s.mean_incubation_end,
        s.mean_duration,
        s.mean_symptomatic_chance,
        s.mean_adapted_ratio,
    )


def _sign_test(values, reference, direction) -> float:
    """One-sided sign test against a reference level; ties are dropped."""
    values = np.asarray(values)
    wins = int((values > reference).sum() if direction == "greater"
               else (values < reference).sum())
    n_eff = int((values != reference).sum())
    if n_eff == 0:
        return 1.0
    return binomtest(wins, n_eff, 0.5, alternative="greater").pvalue


@pytest.fixture(scope="module")
def selection_arms():
    """ϕ=2%, strong cross-immunity, no distancing; isolation off and on."""
    arms = {}
    for label, isolate in (("off", False), ("on", True)):
        scenario = Scenario(0.02, 0.9, 0.99, isolate, 0.0)
        rows = _arm(scenario, horizon=500, collect=_final_variant_means)
        arms[label] = {
            key: np.array([r[pos] for r in rows])
            for pos, key in enumerate(("i", "l", "b", "d", "v", "ar"))
        }
    return arms


@pytest.fixture(scope="module")
def wave_runs():
    """100 mutation-free unmitigated waves plus the matching ODE numbers."""

    def collect(w):
        peak = 0

        def cb(world):
            nonlocal peak
            peak = max(peak, world.n_infected)

        run(w, callback=cb)
        return int(w.ever_infected.sum()) / N, peak / N

    scenario = Scenario(0.0, 0.5, 0.99, False, 0.0)
    rows = _arm(scenario, horizon=200, collect=collect)
    cums = np.array([r[0] for r in rows])
    peaks = np.array([r[1] for r in rows])

    op = abm_to_ode(SimParams())
    trajectory = integrate(seeded_state(N, 10, "P"), op, horizon=200.0, dt=0.05)
    ode_peak = 0.0
    ode_cum = None
    for S, E, P, A, I, R, D in trajectory.states.tolist():
        ode_peak = max(ode_peak, (E + P + A + I) / N)
        ode_cum = (N - S) / N
    return cums, peaks, ode_cum, ode_peak


@pytest.fixture(scope="module")
def mortality_arms():
    """Distancing 0.5, mutation off vs 2%: cumulative mortality per step."""

    def collect(w):
        traj = np.empty(500)

        def cb(world):
            traj[world.step_index - 1] = world.cum_deaths / N

        run(w, callback=cb)
        return traj

    arms = {}
    for phi in (0.0, 0.02):
        scenario = Scenario(phi, 0.5, 0.99, False, 0.5)
        arms[phi] = np.vstack(_arm(scenario, horizon=500, collect=collect))
    return arms


def test_c1_analytical_identities():
    op = abm_to_ode(SimParams())
    r0 = basic_reproduction(op)
    pre_share = (op.beta / op.mu) / (op.beta / op.mu + op.beta / op.gamma)
    r0_iso = basic_reproduction(dataclasses.replace(op, isolate=True))
    r0_dist = basic_reproduction(dataclasses.replace(op, delta=0.8))
    adapted = variant_r0_adapted(WILD, 10)
    ratio = adapted / variant_r0(WILD, 10)
    print(f"C1 r0={r0!r} pre-symptomatic share={pre_share!r} "
          f"iso={r0_iso!r} adapted={adapted!r} ratio={ratio!r} delta08={r0_dist!r}")
    assert abs(r0 - 2.5) < 1e-12
    assert abs(pre_share - 0.5) < 1e-12
    assert abs(r0_iso - 1.625) < 1e-12
    assert abs(adapted - 1.625) < 1e-12
    assert abs(ratio - 0.65) < 1e-12
    assert abs(r0_dist - 0.5) < 1e-12


def test_c2_sensitivity_signs():
    rng = RngStream(2024)
    expected = {"beta": 1, "gamma": -1, "mu": -1, "S": 1, "N": -1}
    violations = 0
    for _ in range(1000):
        isolate = rng.uniform() < 0.5
        op = abm_to_ode(SimParams())
        op = dataclasses.replace(
            op,
            beta=0.05 + 4.0 * rng.uniform(),
            gamma=0.05 + 2.0 * rng.uniform(),
            mu=0.05 + 2.0 * rng.uniform(),
            nu=0.01 + 0.98 * rng.uniform(),
            delta=0.95 * rng.uniform(),
            isolate=bool(isolate),
        )
        n_total = 100.0 + 1e6 * rng.uniform()
        s = seeded_state(n_total, n_total * (0.01 + 0.5 * rng.uniform()), "P")
        signs = fitness_sensitivities(s, op).signs
        want = dict(expected, nu=-1 if op.isolate else 0)
        if any(signs[k] != want[k] for k in want):
            violations += 1
    print(f"C2 sign violations over 1000 draws: {violations}")
    assert violations == 0


def test_c3_ode_abm_agreement(wave_runs):
    cums, peaks, ode_cum, ode_peak = wave_runs
    med_cum = float(np.median(cums))
    med_peak = float(np.median(peaks))
    cum_gap = abs(med_cum - ode_cum)
    peak_gap = abs(med_peak - ode_peak) / ode_peak
    print(f"C3 median cum@200={med_cum:.4f} vs ode {ode_cum:.4f} "
          f"(gap {cum_gap * 100:.2f}pp, limit 5pp); "
          f"median peak={med_peak:.4f} vs ode {ode_peak:.4f} "
          f"(rel gap {peak_gap * 100:.1f}%, limit 20%)")
    assert cum_gap < 0.05
    assert peak_gap < 0.20


def test_c4_subcritical_extinction():
    def collect(w):
        ext = [None]

        def cb(world):
            if ext[0] is None and world.n_infected == 0:
                ext[0] = world.step_index

        run(w, callback=cb)
        return ext[0], int(w.ever_infected.sum()) / N

    scenario = Scenario(0.01, 0.5, 0.99, False, 0.8)
    rows = _arm(scenario, horizon=200, collect=collect)
    extinct = sum(1 for step, _ in rows if step is not None and step < 200)
    med_final = float(np.median([share for _, share in rows]))
    print(f"C4 extinct before step 200: {extinct}/100 (need >=95); "
          f"median final cumulative share {med_final:.4f} (limit 0.01)")
    assert extinct >= 95
    assert med_final < 0.01


def test_c5_directional_selection(selection_arms):
    arm = selection_arms["off"]
    clauses = []
    for key, reference, direction, label in (
        ("i", 0.0625, "greater", "mean infectiousness"),
        ("d", 8.0, "greater", "mean duration"),
        ("l", 4.0, "less", "mean latent period"),
    ):
        med = float(np.median(arm[key]))
        med_ok = med > reference if direction == "greater" else med < reference
        p = _sign_test(arm[key], reference, direction)
        ok = med_ok and p < 0.01
        clauses.append(ok)
        print(f"C5 {label}: median {med:.4f} vs wild {reference} "
              f"({direction}), sign-test p={p:.3g} -> {'PASS' if ok else 'FAIL'}")
    assert all(clauses), "directional selection clauses failed (see printed values)"


def test_c6_policy_directed_evolution(selection_arms):
    on, off = selection_arms["on"], selection_arms["off"]

    med_b_on, med_b_off = float(np.median(on["b"])), float(np.median(off["b"]))
    p_b = mannwhitneyu(on["b"], off["b"], alternative="greater").pvalue
    b_ok = med_b_on > med_b_off and p_b < 0.01
    print(f"C6 incubation: median {med_b_on:.4f} (iso) vs {med_b_off:.4f}, "
          f"rank-test p={p_b:.3g} -> {'PASS' if b_ok else 'FAIL'}")

    med_v_on, med_v_off = float(np.median(on["v"])), float(np.median(off["v"]))
    p_v = mannwhitneyu(on["v"], off["v"], alternative="less").pvalue
    v_ok = med_v_on < med_v_off and p_v < 0.01
    print(f"C6 symptomatic chance: median {med_v_on:.4f} (iso) vs {med_v_off:.4f}, "
          f"rank-test p={p_v:.3g} -> {'PASS' if v_ok else 'FAIL'}")

    med_ar_on, med_ar_off = float(np.median(on["ar"])), float(np.median(off["ar"]))
    ar_ok = med_ar_on > med_ar_off
    print(f"C6 adapted ratio: median {med_ar_on:.4f} (iso) vs {med_ar_off:.4f} "
          f"-> {'PASS' if ar_ok else 'FAIL'}")

    assert b_ok and v_ok and ar_ok, "policy-evolution clauses failed (see printed values)"


def test_c7_short_run_indistinguishability(mortality_arms):
    a, b = mortality_arms[0.0], mortality_arms[0.02]
    med_a, med_b = np.median(a, axis=0), np.median(b, axis=0)
    iqr_a = np.quantile(a, 0.75, axis=0) - np.quantile(a, 0.25, axis=0)
    iqr_b = np.quantile(b, 0.75, axis=0) - np.quantile(b, 0.25, axis=0)
    gap = np.abs(med_a - med_b)[:100]
    band = np.maximum(iqr_a, iqr_b)[:100]
    # one death is the metric's quantum; a single-death median gap cannot
    # evidence distinguishability even when the band is equally narrow
    overlap = np.all((gap < band) | (gap <= 1.0 / N))
    worst = int(np.argmax(gap - band))
    print(f"C7 first-100-step overlap: {'holds' if overlap else 'violated'} "
          f"(worst step {worst + 1}: gap {gap[worst]:.5f} vs band {band[worst]:.5f}); "
          f"mortality@500 {med_b[499]:.4f} (mutating) vs {med_a[499]:.4f}")
    assert overlap
    assert med_b[499] > med_a[499]


def test_c8_property_oracles():
    checks = []

    # binomial infection counts: one carrier, 10 contacts at 0.0625
    counts = []
    for rep in range(400):
        p = SimParams(n_agents=1000, n_initial_infected=1, course_sd_frac=0.0,
                      mutation_prob=0.0, seed=rep)
        w = init_world(p)
        w.counter[0] = w.course_marks[0, 0]
        w.contact_phase(np.flatnonzero(w.variant_of >= 0))
        counts.append(w.n_infected - 1)
    se = np.sqrt(10 * 0.0625 * 0.9375 / 400)
    checks.append(("binomial contacts", abs(np.mean(counts) - 0.625) <= 3 * se))

    # Bernoulli death fraction over one full mutation-free epidemic
    w = init_world(SimParams(mutation_prob=0.0, seed=404))
    while w.step_index < 500 and w.n_infected > 0:
        w.step()
    rate = w.cum_deaths / w.cum_infections
    se = np.sqrt(0.01 * 0.99 / w.cum_infections)
    checks.append(("death fraction", abs(rate - 0.01) <= 3 * se))

    # cross-immunity chain: grandparent cluster lands with probability 0.25
    w = init_world(SimParams(n_agents=10, n_initial_infected=0,
                             cross_immunity=0.5, seed=77))
    c1 = w.registry.add_cluster(0)
    c2 = w.registry.add_cluster(c1)
    hits = 0
    for _ in range(4000):
        w.immune[0, :] = False
        w.grant_immunity(np.array([0]), np.array([c2]))
        hits += bool(w.immune[0, 0])
    se = np.sqrt(0.25 * 0.75 / 4000)
    checks.append(("chain probability", abs(hits / 4000 - 0.25) <= 3 * se))

    # determinism: equal seeds give byte-identical worlds
    p = SimParams(n_agents=500, n_initial_infected=5, mutation_prob=0.1,
                  drift_prob=0.5, horizon=40, seed=9)
    checks.append(("determinism", run(init_world(p)).state_bytes()
                   == run(init_world(p)).state_bytes()))

    # conservation through an evolving run
    w = init_world(p)
    conserved = True
    for _ in range(40):
        w.step()
        conserved &= int(w.alive.sum()) + w.cum_deaths == 500
        conserved &= w.n_infected == int((w.variant_of >= 0).sum())
    checks.append(("conservation", conserved))

    # quantile and box oracles on hand-built datasets
    from test_montecarlo import make_row

    sc = Scenario(0.02, 0.5, 0.99, True, 0.0)
    ds = SweepDataset.from_rows(
        make_row(sc, rep, 1, mortality=float(rep + 1)) for rep in range(100)
    )
    (q,) = quantile_series(ds, "mortality", (0.5,))
    checks.append(("quantile oracle", q["value"] == pytest.approx(50.5)))
    ds = SweepDataset.from_rows(
        make_row(sc, rep, 1, mortality=v)
        for rep, v in enumerate((1.0, 2.0, 3.0, 4.0, 100.0))
    )
    (box,) = notched_box(ds, "mortality", 1)
    checks.append(("box oracle", (box["median"], box["q1"], box["q3"], box["whisker_high"],
                                  box["outliers"]) == (3.0, 2.0, 4.0, 4.0, (100.0,))))

    for name, ok in checks:
        print(f"C8 {name}: {'PASS' if ok else 'FAIL'}")
    assert all(ok for _, ok in checks)
