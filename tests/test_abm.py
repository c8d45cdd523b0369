import dataclasses

import numpy as np
import pytest

import sepaird.abm as abm
from sepaird.abm import init_world, run
from sepaird.montecarlo import Scenario, collect_world_run
from sepaird.params import ConfigError, SimParams
from sepaird.rng import RngStream
from sepaird.variants import DURATION, LATENT_END

WILD = np.array([0.0625, 4.0, 6.0, 8.0, 0.7, 0.01])


class PresetNormals:
    """Stands in for RngStream when a test needs exact course draws.

    Takes the unrounded marks wanted from ``WILD`` at ``sigma`` and hands
    ``draw_course`` the standard normals that produce exactly them.
    """

    def __init__(self, raw, sigma):
        means = WILD[LATENT_END : DURATION + 1].tolist()
        self.values = [(r - m) / (m * sigma) for r, m in zip(raw, means)]
        assert [m + m * sigma * z for m, z in zip(means, self.values)] == raw

    def normal(self, loc, scale, size=None):
        assert (loc, scale, size) == (0.0, 1.0, 3)
        return np.array(self.values)


# -- course draws ----------------------------------------------------


def test_draw_course_zero_sd_hits_means():
    marks = abm.draw_course(WILD, 0.0, RngStream(1))
    assert type(marks) is tuple and all(type(m) is int for m in marks)
    assert marks == (4, 6, 8)


def test_draw_course_truncates_and_rounds():
    marks = abm.draw_course(WILD, 0.1, PresetNormals([-1.0, 5.4, 8.5], 0.1))
    assert marks == (0, 5, 9)


def test_draw_course_rounds_halves_away_from_zero():
    # banker's rounding would give (2, 6, 8) here
    marks = abm.draw_course(WILD, 0.1, PresetNormals([2.5, 6.5, 8.5], 0.1))
    assert marks == (3, 7, 9)


def test_draw_course_keeps_degenerate_order():
    # symptom day before the latent end stays as drawn; no reordering
    marks = abm.draw_course(WILD, 0.1, PresetNormals([5.0, 2.0, 4.0], 0.1))
    assert marks == (5, 2, 4)


def test_draw_course_matches_array_formula():
    # the scalar path must give the marks of numpy's array form and consume
    # exactly the same draws, over random rows and spreads including 0
    gen = np.random.default_rng(2024)
    rows = np.zeros((20_000, WILD.size))
    rows[:, LATENT_END : DURATION + 1] = gen.uniform(1e-3, 40.0, size=(20_000, 3))
    # quarter-day means: with sigma 0 the halves must round away from zero
    rows[::2, LATENT_END : DURATION + 1] = gen.integers(1, 160, size=(10_000, 3)) / 4
    sigmas = gen.uniform(0.0, 3.0, 20_000)
    sigmas[::7] = 0.0
    old, new = RngStream(99), RngStream(99)
    for row, sigma in zip(rows, sigmas):
        means = row[LATENT_END : DURATION + 1]
        expected = np.floor(np.maximum(old.normal(means, means * sigma), 0.0) + 0.5)
        assert abm.draw_course(row, float(sigma), new) == tuple(expected.astype(np.int64).tolist())
    assert old.uniform() == new.uniform()


# -- world construction ----------------------------------------------


def test_initial_world_state(tiny_params):
    w = init_world(tiny_params())
    assert w.step_index == 0
    assert w.n_living == 200
    assert w.n_infected == 5
    assert w.cum_infections == 5
    assert w.cum_deaths == 0
    assert np.flatnonzero(w.variant_of >= 0).tolist() == [0, 1, 2, 3, 4]
    assert np.all(w.variant_of[:5] == 0)
    assert np.all(w.counter[:5] == 0)
    assert np.all(w.symptomatic[:5] == abm._UNDETERMINED)
    assert w.alive.all() and not w.immune.any()
    assert w.registry.n_variants == 1
    assert w.last_active_variants == (0,)
    assert w.active_variants().tolist() == [0]


def test_world_rejects_invalid_params():
    with pytest.raises(ConfigError):
        init_world(SimParams(n_agents=0))


def test_world_without_seed_infections(tiny_params):
    w = init_world(tiny_params(n_initial_infected=0))
    assert w.n_infected == 0
    assert w.last_active_variants == (0,)  # wild type stands in for stats


def test_run_respects_horizon_and_callback(tiny_params):
    w = init_world(tiny_params(horizon=25))
    seen = []
    run(w, callback=lambda world: seen.append(world.step_index))
    assert w.step_index == 25
    assert seen == list(range(1, 26))


# -- statistical oracles ----------------------------------------------


def test_single_carrier_infections_match_binomial():
    """One carrier, 10 contacts at transmit chance 0.0625: the count of
    fresh infections per contact phase behaves like Binomial(10, 0.0625)."""
    p_hit, eta, reps = 0.0625, 10, 400
    counts = []
    for rep in range(reps):
        p = SimParams(
            n_agents=1000,
            n_initial_infected=1,
            course_sd_frac=0.0,
            mutation_prob=0.0,
            seed=rep,
        )
        w = init_world(p)
        w.counter[0] = w.latent_end[0]  # move the carrier into its window
        w.contact_phase()
        counts.append(w.n_infected - 1)
    counts = np.array(counts)
    assert counts.max() <= eta
    mean = eta * p_hit
    se = np.sqrt(eta * p_hit * (1 - p_hit) / reps)
    assert abs(counts.mean() - mean) <= 3 * se


def test_resolved_courses_die_at_fatality_rate():
    """Deaths among resolved courses track the wild-type fatality 0.01."""
    p = SimParams(mutation_prob=0.0, seed=404)
    w = init_world(p)
    while w.step_index < 500 and w.n_infected > 0:
        w.step()
    assert w.n_infected == 0
    resolved = w.cum_infections
    assert resolved > 5000  # the wave must actually happen
    rate = w.cum_deaths / resolved
    se = np.sqrt(0.01 * 0.99 / resolved)
    assert abs(rate - 0.01) <= 3 * se


def test_immunity_chain_probability():
    """Recovery immunity spreads over a three-cluster chain with per-edge
    chance 0.5: the grandparent cluster lands with probability 0.25."""
    p = SimParams(n_agents=10, n_initial_infected=0, cross_immunity=0.5, seed=77)
    w = init_world(p)
    c1 = w.registry.add_cluster(0)
    c2 = w.registry.add_cluster(c1)
    trials = 4000
    root_hits = mid_hits = 0
    for _ in range(trials):
        w.immune[0, :] = False
        w.grant_immunity(0, c2)
        assert w.immune[0, c2]  # the infecting cluster is certain
        if w.immune[0, 0]:
            assert w.immune[0, c1]  # immunity reaches root only through c1
            root_hits += 1
        if w.immune[0, c1]:
            mid_hits += 1
    se_mid = np.sqrt(0.5 * 0.5 / trials)
    se_root = np.sqrt(0.25 * 0.75 / trials)
    assert abs(mid_hits / trials - 0.5) <= 3 * se_mid
    assert abs(root_hits / trials - 0.25) <= 3 * se_root


def test_immunity_branches_from_middle_node():
    # from the middle of a chain the walk tries parent and child independently
    p = SimParams(n_agents=4, n_initial_infected=0, cross_immunity=0.5, seed=5)
    w = init_world(p)
    c1 = w.registry.add_cluster(0)
    c2 = w.registry.add_cluster(c1)
    trials = 4000
    up = down = both = 0
    for _ in range(trials):
        w.immune[0, :] = False
        w.grant_immunity(0, c1)
        u, d = bool(w.immune[0, 0]), bool(w.immune[0, c2])
        up += u
        down += d
        both += u and d
    se = np.sqrt(0.25 / trials)
    assert abs(up / trials - 0.5) <= 3 * se
    assert abs(down / trials - 0.5) <= 3 * se
    se_both = np.sqrt(0.25 * 0.75 / trials)
    assert abs(both / trials - 0.25) <= 3 * se_both  # independent edges


# -- infection mechanics ----------------------------------------------


def test_try_infect_mutation_and_drift_bookkeeping(tiny_params):
    w = init_world(tiny_params(mutation_prob=1.0, drift_prob=1.0))
    w.immune[120, 0] = True  # recovered from the wild cluster
    w.try_infect(0, 50)
    assert w.variant_of[50] == 1
    assert w.registry.n_variants == 2
    assert w.registry.n_clusters == 2
    assert w.registry.variant_cluster[1] == 1
    # drift grant with cross_immunity 0.5 is random; structure is not
    assert not w.immune[50, 1]  # the first carrier gains nothing


def test_drift_grant_certain_and_impossible(tiny_params):
    for psi, expected in ((1.0, True), (0.0, False)):
        w = init_world(tiny_params(mutation_prob=1.0, drift_prob=1.0, cross_immunity=psi))
        w.immune[120:130, 0] = True
        w.try_infect(0, 50)
        assert bool(w.immune[120:130, 1].all()) is expected
        assert not w.immune[130:, 1].any()  # never granted without base immunity


def test_mutation_without_drift_keeps_cluster(tiny_params):
    w = init_world(tiny_params(mutation_prob=1.0, drift_prob=0.0))
    w.try_infect(0, 50)
    assert w.registry.n_variants == 2
    assert w.registry.n_clusters == 1
    assert w.registry.variant_cluster[1] == 0


def test_every_infection_mutates_when_certain(tiny_params):
    p = tiny_params(mutation_prob=1.0, drift_prob=1.0, horizon=30)
    w = run(init_world(p))
    assert w.cum_mutations == w.cum_infections - p.n_initial_infected
    assert w.cum_drifts == w.cum_mutations


def test_zero_mutation_prob_keeps_single_variant(tiny_params):
    w = run(init_world(tiny_params(mutation_prob=0.0, horizon=40)))
    assert w.registry.n_variants == 1
    assert w.registry.n_clusters == 1
    assert set(np.unique(w.variant_of)) <= {-1, 0}


def test_no_reinfection_within_cluster():
    # perfect immunity inside a cluster: each agent is infected at most once
    p = SimParams(n_agents=2000, mutation_prob=0.0, seed=11, n_initial_infected=5)
    w = init_world(p)
    while w.step_index < 400 and w.n_infected > 0:
        w.step()
    assert w.n_infected == 0
    assert w.cum_infections == int(w.ever_infected.sum())


def test_immediate_resolution_course(tiny_params, monkeypatch):
    # a zero-length course resolves on the next progression without transmitting
    monkeypatch.setattr(abm, "draw_course", lambda v, s, rng: (0, 0, 0))
    w = init_world(tiny_params(n_initial_infected=8))
    w.step()
    assert w.n_infected == 0
    assert w.cum_infections == 8
    assert int(w.ever_infected.sum()) == 8


def test_isolation_blocks_all_transmission():
    """Symptoms at the latent boundary plus certain symptomatic courses:
    isolation must silence the epidemic entirely."""
    base = SimParams(
        n_agents=400,
        n_initial_infected=8,
        incubation_end0=4.4,  # rounds onto the latent end
        symptomatic_chance0=1.0,
        course_sd_frac=0.0,
        mutation_prob=0.0,
        horizon=60,
        seed=13,
    )
    isolated = run(init_world(dataclasses.replace(base, isolate_symptomatic=True)))
    assert isolated.cum_infections == 8
    assert isolated.n_infected == 0
    open_world = run(init_world(base))
    assert open_world.cum_infections > 8


def test_distancing_scales_transmission():
    counts = {}
    for delta in (0.0, 0.8):
        p = SimParams(
            n_agents=3000,
            n_initial_infected=50,
            course_sd_frac=0.0,
            mutation_prob=0.0,
            social_distancing=delta,
            seed=17,
        )
        w = init_world(p)
        w.counter[:50] = 4
        w.contact_phase()
        counts[delta] = w.n_infected - 50
    # expected means 31.25 vs 6.25; a 3-sigma band keeps this stable
    assert counts[0.8] < counts[0.0] * 0.5


def test_dead_agents_never_contacted():
    p = SimParams(n_agents=50, n_initial_infected=10, fatality0=1.0,
                  course_sd_frac=0.0, mutation_prob=0.0, horizon=100, seed=3)
    w = run(init_world(p))
    # everyone infected eventually dies; the dead must never rejoin
    assert w.cum_deaths == w.cum_infections
    assert not np.any(w.variant_of[~w.alive] >= 0)
    assert w.n_living == 50 - w.cum_deaths


# -- audits over instrumented runs -------------------------------------


def _audit(world):
    n = world.params.n_agents
    assert int(world.alive.sum()) + world.cum_deaths == n
    assert world.n_living == int(world.alive.sum())
    infected = world.variant_of >= 0
    assert world.n_infected == int(infected.sum())
    counts = world.active_count[: world.registry.n_variants]
    assert np.all(counts >= 0)
    assert int(counts.sum()) == int(infected.sum())
    assert not np.any(infected & ~world.alive)
    assert not np.any(world.isolated & ~infected)
    assert np.all(world.variant_of[infected] < world.registry.n_variants)
    assert np.all(world.ever_infected[infected])
    # nobody holds an active infection of a cluster they are immune to
    idx = np.where(infected)[0]
    clusters = world.registry.variant_cluster[world.variant_of[idx]]
    assert not np.any(world.immune[idx, clusters])
    # isolation implies a decided symptomatic course
    assert np.all(world.symptomatic[world.isolated] == 1)


def test_step_audit_under_active_evolution(tiny_params):
    p = tiny_params(
        n_agents=300,
        n_initial_infected=6,
        mutation_prob=0.15,
        drift_prob=0.5,
        cross_immunity=0.7,
        cross_protection=0.9,
        isolate_symptomatic=True,
        social_distancing=0.1,
        horizon=50,
        seed=21,
    )
    w = init_world(p)
    _audit(w)
    prev = (0, 0)
    for _ in range(p.horizon):
        w.step()
        _audit(w)
        assert (w.cum_infections, w.cum_deaths) >= prev
        prev = (w.cum_infections, w.cum_deaths)


def test_cluster_growth_beyond_initial_capacity(tiny_params):
    # immunity matrix starts with 8 cluster columns and must grow cleanly
    p = tiny_params(n_agents=150, mutation_prob=1.0, drift_prob=1.0,
                    cross_immunity=0.9, horizon=30, seed=2)
    w = init_world(p)
    for _ in range(p.horizon):
        w.step()
        _audit(w)
    assert w.registry.n_clusters > 8


def test_event_log_matches_counters(tiny_params):
    p = tiny_params(mutation_prob=0.2, drift_prob=0.4, horizon=40, seed=9)
    w = run(init_world(p, log_events=True))
    names = [e[1] for e in w.events]
    assert set(names) <= {"infection", "mutation", "drift", "death", "recovery"}
    assert names.count("infection") == w.cum_infections
    assert names.count("mutation") == w.cum_mutations
    assert names.count("drift") == w.cum_drifts
    assert names.count("death") == w.cum_deaths
    assert names.count("recovery") == w.cum_infections - w.cum_deaths - w.n_infected
    steps = [e[0] for e in w.events]
    assert steps == sorted(steps)


def test_events_disabled_by_default(tiny_params):
    assert init_world(tiny_params()).events is None


# -- determinism -------------------------------------------------------


def test_equal_seeds_equal_state_bytes(tiny_params):
    p = tiny_params(mutation_prob=0.1, drift_prob=0.5, isolate_symptomatic=True,
                    social_distancing=0.2, horizon=35)
    a, b = run(init_world(p)), run(init_world(p))
    assert a.state_bytes() == b.state_bytes()


def test_equal_seeds_equal_metric_rows(tiny_params):
    p = tiny_params(mutation_prob=0.1, horizon=30)
    rows_a = collect_world_run(init_world(p))
    rows_b = collect_world_run(init_world(p))
    assert rows_a.tobytes() == rows_b.tobytes()


def test_different_seed_diverges(tiny_params):
    p = tiny_params(horizon=20)
    a = run(init_world(p))
    b = run(init_world(dataclasses.replace(p, seed=p.seed + 1)))
    assert a.state_bytes() != b.state_bytes()


def test_world_state_after_extinction():
    p = SimParams(n_agents=300, n_initial_infected=4, social_distancing=0.9,
                  mutation_prob=0.0, horizon=120, seed=29)
    w = run(init_world(p))
    assert w.n_infected == 0
    assert np.all(w.variant_of == -1)
    assert not w.isolated.any()
    assert len(w.last_active_variants) >= 1


def test_step_on_extinct_world_only_advances_clock():
    # seed 9 mutates, drifts once and dies out at step 24
    p = SimParams(n_agents=400, n_initial_infected=5, mutation_prob=0.2, drift_prob=0.5,
                  social_distancing=0.7, horizon=30, seed=9)
    w, twin = run(init_world(p)), run(init_world(p))
    assert w.n_infected == 0 and w.cum_drifts == 1
    before = w.state_bytes()
    for _ in range(5):
        w.step()
    after = w.state_bytes()
    assert np.frombuffer(after[:8], dtype=np.int64)[0] == 35
    assert after[8:] == before[8:]
    assert w.rng.uniform(size=4).tolist() == twin.rng.uniform(size=4).tolist()


def test_scenario_metric_row_fields(tiny_params):
    from sepaird.montecarlo import CSV_COLUMNS, MetricRow, metric_row

    p = tiny_params(horizon=10)
    w = run(init_world(p))
    sc = Scenario(p.mutation_prob, p.cross_immunity, p.cross_protection,
                  p.isolate_symptomatic, p.social_distancing)
    values = metric_row(w, replication=3)
    assert type(values) is tuple and len(values) == len(CSV_COLUMNS)
    row = MetricRow(*values)
    assert row.scenario == sc
    assert row.step == 10
    assert row.replication == 3
    assert row.share_infected == pytest.approx(w.n_infected / p.n_agents)
    assert row.mortality == pytest.approx(w.cum_deaths / p.n_agents)
    assert row.cumulative_infected_share == pytest.approx(
        int(w.ever_infected.sum()) / p.n_agents
    )
    assert row.extinct == (w.n_infected == 0)
