import dataclasses
from collections import deque

import numpy as np
import pytest

import sepaird.abm as abm
from sepaird.abm import init_world, run
from sepaird.montecarlo import Scenario, collect_world_run
from sepaird.params import ConfigError, SimParams
from sepaird.rng import RngStream
from sepaird.variants import DURATION, INFECTIOUSNESS, LATENT_END, grown, spawn_variant

WILD = np.array([0.0625, 4.0, 6.0, 8.0, 0.7, 0.01])


def preset_normals(raw, sigma):
    """The standard normals that make ``draw_course`` see exactly the
    unrounded marks ``raw`` from ``WILD`` at ``sigma``, as one course row."""
    means = WILD[LATENT_END : DURATION + 1].tolist()
    values = [(r - m) / (m * sigma) for r, m in zip(raw, means)]
    assert [m + m * sigma * z for m, z in zip(means, values)] == raw
    return np.array([values])


# -- course draws ----------------------------------------------------


def test_draw_course_zero_sd_hits_means():
    marks = abm.draw_course(WILD[None], 0.0, RngStream(1).normal(0.0, 1.0, (1, 3)))
    assert marks.dtype == np.int64 and marks.shape == (1, 3)
    assert marks.tolist() == [[4, 6, 8]]


def test_draw_course_truncates_and_rounds():
    marks = abm.draw_course(WILD[None], 0.1, preset_normals([-1.0, 5.4, 8.5], 0.1))
    assert marks.tolist() == [[0, 5, 9]]


def test_draw_course_rounds_halves_away_from_zero():
    # banker's rounding would give (2, 6, 8) here
    marks = abm.draw_course(WILD[None], 0.1, preset_normals([2.5, 6.5, 8.5], 0.1))
    assert marks.tolist() == [[3, 7, 9]]


def test_draw_course_keeps_degenerate_order():
    # symptom day before the latent end stays as drawn; no reordering
    marks = abm.draw_course(WILD[None], 0.1, preset_normals([5.0, 2.0, 4.0], 0.1))
    assert marks.tolist() == [[5, 2, 4]]


def test_draw_course_matches_array_formula():
    # marks from standard normals drawn three per course must be those of
    # numpy's normal(means, means * sigma) over the same draws, over random
    # rows and spreads including 0
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
        marks = abm.draw_course(row[None], float(sigma), new.normal(0.0, 1.0, 3)[None])
        assert marks.tolist() == [expected.astype(np.int64).tolist()]
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
    assert w.last_active_variants.tolist() == [0]
    assert w.active_variants().tolist() == [0]


def test_world_rejects_invalid_params():
    with pytest.raises(ConfigError):
        init_world(SimParams(n_agents=0))


def test_world_without_seed_infections(tiny_params):
    w = init_world(tiny_params(n_initial_infected=0))
    assert w.n_infected == 0
    assert w.last_active_variants.tolist() == [0]  # wild type stands in for stats


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
        w.counter[0] = w.course_marks[0, 0]  # move the carrier into its window
        w.contact_phase(np.flatnonzero(w.variant_of >= 0))
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
        w.grant_immunity(np.array([0]), np.array([c2]))
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
        w.grant_immunity(np.array([0]), np.array([c1]))
        u, d = bool(w.immune[0, 0]), bool(w.immune[0, c2])
        up += u
        down += d
        both += u and d
    se = np.sqrt(0.25 / trials)
    assert abs(up / trials - 0.5) <= 3 * se
    assert abs(down / trials - 0.5) <= 3 * se
    se_both = np.sqrt(0.25 * 0.75 / trials)
    assert abs(both / trials - 0.25) <= 3 * se_both  # independent edges


def _scalar_walk(world, agents, clusters):
    """Reference immunity walk: per agent a breadth-first search with one
    ``bernoulli`` per neighbor not yet held, parent first, then children."""
    psi = world.params.cross_immunity
    for agent, cluster in zip(agents, clusters):
        row = world.immune[agent]
        row[cluster] = True
        queue = deque([cluster])
        while queue:
            for neighbor in world.registry.neighbor_table[queue.popleft()]:
                if not row[neighbor] and world.rng.bernoulli(psi):
                    row[neighbor] = True
                    queue.append(neighbor)


def _walk_world(psi, parents, held_share):
    p = SimParams(n_agents=60, n_initial_infected=0, cross_immunity=psi, seed=21)
    w = init_world(p)
    for parent in parents:
        w.registry.add_cluster(parent)
    w.immune = grown(w.immune, w.registry.n_clusters, axis=1)
    gen = np.random.default_rng(5)
    w.immune[:, : w.registry.n_clusters] = gen.random((60, w.registry.n_clusters)) < held_share
    w.rng.integers(0, 10, size=3)  # leaves a half-word cached for the next integers draw
    return w


@pytest.mark.parametrize(
    "psi, shape, held_share",
    [(0.0, "tree", 0.3), (0.5, "tree", 0.2), (0.9, "chain", 0.0), (1.0, "chain", 0.0)],
)
def test_batched_immunity_walk_matches_scalar_walk(psi, shape, held_share):
    # a 30-cluster random tree, or a 48-cluster chain whose long walks (470
    # draws at psi 1) outrun the first block of 4 * 10 + 16 and make it double
    gen = np.random.default_rng(9)
    if shape == "tree":
        parents = [int(gen.integers(0, c)) for c in range(1, 30)]
    else:
        parents = list(range(47))
    batched, scalar = _walk_world(psi, parents, held_share), _walk_world(psi, parents, held_share)
    n_clusters = batched.registry.n_clusters
    agents = gen.permutation(60)[:10] if shape == "tree" else np.arange(10)
    clusters = gen.integers(0, n_clusters, 10) if shape == "tree" else np.full(10, n_clusters - 1)
    batched.grant_immunity(agents, clusters)
    _scalar_walk(scalar, agents.tolist(), clusters.tolist())
    assert np.array_equal(batched.immune, scalar.immune)
    if psi == 1.0:
        assert batched.immune[agents, :n_clusters].all()
    assert batched.rng.integers(0, 10, size=3).tolist() == scalar.rng.integers(0, 10, size=3).tolist()
    assert batched.rng.uniform() == scalar.rng.uniform()


# -- infection mechanics ----------------------------------------------


def _infect(w, variant, target):
    """One mutating infection outside a contact phase, its course started
    at once, after the mutation roll that the contact phase makes first."""
    assert w.rng.bernoulli(w.params.mutation_prob)
    course = np.empty((1, 3))
    w.variant_of[target] = w.try_infect(variant, target, course[0])
    w._begin_courses(np.array([target]), course)


def test_try_infect_mutation_and_drift_bookkeeping(tiny_params):
    w = init_world(tiny_params(mutation_prob=1.0, drift_prob=1.0))
    w.immune[120, 0] = True  # recovered from the wild cluster
    _infect(w, 0, 50)
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
        _infect(w, 0, 50)
        assert bool(w.immune[120:130, 1].all()) is expected
        assert not w.immune[130:, 1].any()  # never granted without base immunity


def test_mutation_without_drift_keeps_cluster(tiny_params):
    w = init_world(tiny_params(mutation_prob=1.0, drift_prob=0.0))
    _infect(w, 0, 50)
    assert w.registry.n_variants == 2
    assert w.registry.n_clusters == 1
    assert w.registry.variant_cluster[1] == 0


def _scalar_infect(w, source_variant, target):
    """Reference infection: the mutation roll, then the mutating path's
    draws, the course normals and the cross-immunity rolls, in stream v1
    order; returns the course normals."""
    p = w.params
    variant = source_variant
    new_cluster = -1
    if w.rng.bernoulli(p.mutation_prob):
        drift = w.rng.bernoulli(p.drift_prob)
        variant = spawn_variant(
            w.registry, source_variant, drift, p.mutation_mean, p.mutation_sd, w.rng
        )
        w.active_count = grown(w.active_count, w.registry.n_variants)
        w._log("mutation", target, variant)
        if drift:
            w.immune = grown(w.immune, w.registry.n_clusters, axis=1)
            new_cluster = int(w.registry.variant_cluster[variant])
            w._log("drift", target, variant)
    normals = w.rng.normal(0.0, 1.0, 3)
    w.variant_of[target] = variant
    w._log("infection", target, variant)
    if new_cluster >= 0:
        holders = np.where(w.immune[:, w.registry.cluster_parents[new_cluster]])[0]
        if holders.size:
            rolls = w.rng.uniform(size=holders.size)
            w.immune[holders[rolls < p.cross_immunity], new_cluster] = True
    return normals


def _scalar_contact_phase(w, blocked):
    """Reference contact phase: the successful contacts in (carrier,
    contact) order, each infecting its target in turn unless an earlier
    one already did; ``blocked`` counts the contacts that were blocked.
    Returns the agents it infected, as ``World.contact_phase`` does."""
    infected = np.where(w.variant_of >= 0)[0]
    count = w.counter[infected]
    latent_end, _, end_day = w.course_marks[infected].T
    window = (latent_end <= count) & (count < end_day)
    carriers = infected[window & ~w.isolated[infected]]
    if carriers.size == 0 or w.n_living <= 1:
        return np.empty(0, dtype=np.int64)
    living = np.where(w.alive)[0]
    eta = w.params.daily_contacts
    positions = np.searchsorted(living, carriers)
    idx = w.rng.integers(0, living.size - 1, size=(carriers.size, eta))
    idx += idx >= positions[:, None]
    targets = living[idx]
    rolls = w.rng.uniform(size=(carriers.size, eta))
    source = w.variant_of[carriers]
    infectiousness = np.minimum(w.registry.props_matrix[source, INFECTIOUSNESS], 1.0)
    transmit = infectiousness * (1.0 - w.params.social_distancing)
    clusters = w.registry.variant_cluster[source]
    open_target = w.variant_of[targets] < 0
    susceptible = ~w.immune[targets, clusters[:, None]]
    rows, cols = np.nonzero(open_target & susceptible & (rolls < transmit[:, None]))
    agents, normals = [], []
    for variant, target in zip(source[rows].tolist(), targets[rows, cols].tolist()):
        if w.variant_of.item(target) < 0:
            normals.append(_scalar_infect(w, variant, target))
            agents.append(target)
        else:
            blocked.append(target)
    agents = np.array(agents, dtype=np.int64)
    if agents.size:
        w._begin_courses(agents, np.array(normals))
    return agents


# isolation on: symptomatic carriers drop out of the carrier list; high
# fatality: deaths leave gaps in the living agents that contacts draw from
_CONTACT_CASES = [
    pytest.param(psi, log_events, {}, id=f"{psi}-{log_events}")
    for psi in (0.0, 0.5, 1.0)
    for log_events in (False, True)
] + [
    pytest.param(0.5, False, dict(isolate_symptomatic=True), id="isolation"),
    pytest.param(0.5, True, dict(fatality0=0.4), id="high_fatality"),
    pytest.param(0.5, False, dict(isolate_symptomatic=True, fatality0=0.4),
                 id="isolation-high_fatality"),
]


@pytest.mark.parametrize("psi,log_events,overrides", _CONTACT_CASES)
def test_contact_phase_matches_scalar_reference(psi, log_events, overrides):
    # 20 contacts a day among 300 agents hit many targets twice in a phase;
    # mutation 0.3 with drift 0.5 sends a third of the infections down the
    # mutating path and grows the cluster tree as the run goes
    p = SimParams(n_agents=300, n_initial_infected=10, daily_contacts=20, mutation_prob=0.3,
                  drift_prob=0.5, cross_immunity=psi, horizon=60, seed=13, **overrides)
    batched, scalar = init_world(p, log_events), init_world(p, log_events)
    blocked = []
    # the reference lists the infected agents itself
    scalar.contact_phase = lambda infected: _scalar_contact_phase(scalar, blocked)
    isolated_peak = 0
    for _ in range(p.horizon):
        batched.step()
        scalar.step()
        assert batched.state_bytes() == scalar.state_bytes()
        isolated_peak = max(isolated_peak, int(batched.isolated.sum()))
    assert blocked and batched.cum_mutations > 10 and batched.cum_drifts > 5
    assert (isolated_peak > 0) == p.isolate_symptomatic
    assert (batched.cum_deaths > 50) == (p.fatality0 > 0.1)
    assert batched.events == scalar.events
    assert batched.rng.uniform() == scalar.rng.uniform()
    next_integers = [w.rng.integers(0, 1000, size=3).tolist() for w in (batched, scalar)]
    assert next_integers[0] == next_integers[1]
    assert batched.rng.normal(0.0, 1.0, 3).tolist() == scalar.rng.normal(0.0, 1.0, 3).tolist()


@pytest.mark.parametrize(
    "seed,distancing,hits",
    [
        pytest.param(5, 1.0, 0, id="every_roll_fails"),
        # the one hit mutates, so try_infect draws inside the phase
        pytest.param(1, 0.0, 1, id="one_hit"),
    ],
)
def test_contact_phase_edges_match_scalar_reference(seed, distancing, hits):
    # five seed courses of exactly four latent days carry in the fifth
    # phase; 3 contacts each draw 15 half-words, so one is held back after
    # the phase's integers call
    p = SimParams(n_agents=300, n_initial_infected=5, daily_contacts=3, course_sd_frac=0.0,
                  mutation_prob=0.5, social_distancing=distancing, seed=seed)
    batched, scalar = init_world(p), init_world(p)
    for _ in range(4):
        batched.step()
        scalar.step()
    blocked = []
    new = batched.contact_phase(np.flatnonzero(batched.variant_of >= 0))
    assert new.tolist() == _scalar_contact_phase(scalar, blocked).tolist()
    assert new.size == hits and not blocked
    assert batched.registry.n_variants == 1 + hits
    assert batched.state_bytes() == scalar.state_bytes()
    assert batched.rng.generator.bit_generator.state["has_uint32"] == 1
    next_integers = [w.rng.integers(0, 1000, size=3).tolist() for w in (batched, scalar)]
    assert next_integers[0] == next_integers[1]
    assert batched.rng.uniform(size=4).tolist() == scalar.rng.uniform(size=4).tolist()


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
    monkeypatch.setattr(abm, "draw_course", lambda props, s, z: np.zeros((len(z), 3), np.int64))
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
        w.contact_phase(np.flatnonzero(w.variant_of >= 0))
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


def test_isolation_flags_and_deaths_are_derived():
    p = SimParams(n_agents=300, n_initial_infected=20, symptomatic_chance0=1.0,
                  fatality0=0.5, isolate_symptomatic=True, horizon=30, seed=5)
    w = init_world(p)
    assert "isolated" not in vars(w) and "cum_deaths" not in vars(w)
    with pytest.raises(ValueError):
        w.isolated[0] = True
    off = init_world(dataclasses.replace(p, isolate_symptomatic=False))
    for _ in range(p.horizon):
        w.step()
        off.step()
        active = w.variant_of >= 0
        assert np.array_equal(w.isolated, active & (w.symptomatic == 1))
        assert not off.isolated.any()
        assert w.cum_deaths == p.n_agents - int(w.alive.sum())
    assert w.isolated.any() and (off.symptomatic[off.variant_of >= 0] == 1).any()
    assert w.cum_deaths > 0


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


def test_last_active_variants_follows_the_active_set():
    # seed 9 mutates, drifts once and dies out at step 24
    p = SimParams(n_agents=400, n_initial_infected=5, mutation_prob=0.2, drift_prob=0.5,
                  social_distancing=0.7, horizon=30, seed=9)
    w = init_world(p)
    sets = []
    while w.n_infected:
        w.step()
        last = w.last_active_variants
        assert isinstance(last, np.ndarray) and last.dtype == np.int64
        if w.n_infected:
            assert last.tolist() == w.active_variants().tolist()
            sets.append(last.tolist())
    assert w.step_index == 24 and any(s != [0] for s in sets)
    assert w.last_active_variants.tolist() == sets[-1]
    while w.step_index < p.horizon:
        w.step()
        assert w.last_active_variants.tolist() == sets[-1]


def test_step_shares_the_infected_list_between_phases():
    # course_sd_frac 1 rounds many day marks to 0 or 1, so courses begun in
    # a contact phase draw symptoms or resolve in the same step; the twin's
    # phases list the infected agents afresh.  The run passes through both
    # ways of extending the list: sorting a short one and a second pass
    p = SimParams(n_agents=2000, n_initial_infected=10, daily_contacts=8, course_sd_frac=1.0,
                  mutation_prob=0.3, drift_prob=0.5, fatality0=0.3, horizon=60, seed=3)
    shared, fresh = init_world(p), init_world(p)
    fresh.contact_phase = lambda infected: abm.World.contact_phase(
        fresh, np.flatnonzero(fresh.variant_of >= 0))
    fresh.progression_phase = lambda infected: abm.World.progression_phase(
        fresh, np.flatnonzero(fresh.variant_of >= 0))
    short = 0
    for _ in range(p.horizon):
        short += 8 * shared.n_infected < p.n_agents
        shared.step()
        fresh.step()
        assert shared.state_bytes() == fresh.state_bytes()
    assert 0 < short < p.horizon and shared.cum_deaths > 100


def test_run_moves_an_extinct_world_to_its_horizon(monkeypatch):
    # seed 9 mutates, drifts once and dies out at step 24
    p = SimParams(n_agents=400, n_initial_infected=5, mutation_prob=0.2, drift_prob=0.5,
                  social_distancing=0.7, horizon=80, seed=9)
    stepped, w, called = init_world(p), init_world(p), init_world(p)
    while stepped.step_index < p.horizon:
        stepped.step()
    while w.n_infected:
        w.step()
        called.step()
    assert w.step_index == 24
    steps = []
    step = abm.World.step
    monkeypatch.setattr(abm.World, "step", lambda self: steps.append(self) or step(self))
    assert run(w) is w
    assert steps == [] and w.step_index == p.horizon
    assert w.state_bytes() == stepped.state_bytes()
    assert w.rng.uniform(size=4).tolist() == stepped.rng.uniform(size=4).tolist()
    # a callback still sees every step
    seen = []
    run(called, callback=lambda world: seen.append(world.step_index))
    assert seen == list(range(25, p.horizon + 1)) and len(steps) == len(seen)
    assert called.state_bytes() == stepped.state_bytes()


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
