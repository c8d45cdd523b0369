import numpy as np
import pytest
from hypothesis import given, strategies as st

from sepaird.abm import init_world, run
from sepaird.params import SimParams
from sepaird.phylo import (
    active_variant_stats,
    summarize_variants,
    variant_r0,
    variant_r0_adapted,
)
from sepaird.rng import RngStream
from sepaird.variants import (
    DURATION,
    FATALITY,
    INFECTIOUSNESS,
    PROP_NAMES,
    Registry,
    spawn_variant,
)

WILD = np.array([0.0625, 4.0, 6.0, 8.0, 0.7, 0.01])
ETA = 10


def props(**overrides):
    row = WILD.copy()
    for name, value in overrides.items():
        row[PROP_NAMES.index(name)] = value
    return row


# -- reproduction numbers ----------------------------------------------


def test_wild_type_reproduction_numbers():
    assert variant_r0(WILD, ETA) == pytest.approx(2.5, abs=1e-12)
    assert variant_r0_adapted(WILD, ETA) == pytest.approx(1.625, abs=1e-12)


def test_r0_clamps_infectiousness_at_one():
    assert variant_r0(props(infectiousness=3.0), ETA) == pytest.approx(40.0)


def test_r0_floors_negative_window():
    v = props(duration=3.0)  # ends before the latent period does
    assert variant_r0(v, ETA) == 0.0
    assert variant_r0_adapted(v, ETA) == 0.0


def test_adapted_equals_r0_without_symptoms():
    v = props(symptomatic_chance=0.0)
    assert variant_r0_adapted(v, ETA) == variant_r0(v, ETA)


def test_adapted_equals_r0_when_symptoms_after_end():
    v = props(incubation_end=11.0)  # onset past the course end
    assert variant_r0_adapted(v, ETA) == variant_r0(v, ETA)


def test_adapted_zero_when_always_symptomatic_at_latent_end():
    v = props(symptomatic_chance=1.0, incubation_end=4.0)
    assert variant_r0_adapted(v, ETA) == 0.0


@given(
    st.floats(0.001, 5.0),
    st.floats(0.0, 20.0),
    st.floats(0.0, 20.0),
    st.floats(0.0, 20.0),
    st.floats(0.0, 3.0),
)
def test_adapted_never_exceeds_r0(i, latent, onset, end, sympt):
    v = np.array([i, latent, onset, end, sympt, 0.01])
    r0 = variant_r0(v, ETA)
    adapted = variant_r0_adapted(v, ETA)
    assert 0.0 <= adapted <= r0 + 1e-12


# -- tree distances ----------------------------------------------------


def chain_registry(depth):
    reg = Registry(WILD)
    rng = RngStream(1)
    vid = 0
    for _ in range(depth):
        vid = spawn_variant(reg, vid, drift=True, theta=0.0, sigma_i=0.1, rng=rng)
    return reg, vid


# -- per-variant and aggregate stats ------------------------------------


def test_variant_stats_fields():
    reg, tip = chain_registry(3)
    s = summarize_variants(reg, np.array([tip]), ETA, extinct=False)
    row = reg.props_matrix[tip]
    r0, adapted = variant_r0(row, ETA), variant_r0_adapted(row, ETA)
    assert s.n_variants == 1
    assert s.mean_r0 == r0
    assert s.mean_adapted_ratio == pytest.approx(adapted / r0)
    assert s.mean_phylo_distance == 3
    assert reg.cluster_depths[reg.variant_cluster[tip]] == 3


def test_variant_stats_ratio_defaults_to_one_without_spread():
    reg = Registry(props(duration=4.0))  # window collapses to zero
    s = summarize_variants(reg, np.array([0]), ETA, extinct=False)
    assert s.mean_r0 == 0.0
    assert s.mean_adapted_ratio == 1.0


def test_summary_matches_per_variant_means():
    reg, _ = chain_registry(6)
    ids = np.arange(reg.n_variants)
    summary = summarize_variants(reg, ids, ETA, extinct=False)
    rows = reg.props_matrix
    r0s = [variant_r0(rows[v], ETA) for v in ids]
    ratios = [variant_r0_adapted(rows[v], ETA) / r0 if r0 > 0.0 else 1.0
              for v, r0 in zip(ids, r0s)]
    assert summary.n_variants == 7
    assert not summary.extinct
    assert summary.mean_r0 == pytest.approx(np.mean(r0s))
    assert summary.mean_adapted_ratio == pytest.approx(np.mean(ratios))
    # variant v of the chain is v mutations deep
    assert summary.mean_phylo_distance == pytest.approx(np.mean(ids))
    assert summary.max_antigenic_distance == 6
    assert summary.mean_infectiousness == pytest.approx(
        np.mean([rows[v, INFECTIOUSNESS] for v in ids])
    )
    assert summary.mean_duration == pytest.approx(np.mean([rows[v, DURATION] for v in ids]))
    assert summary.mean_fatality == pytest.approx(np.mean([rows[v, FATALITY] for v in ids]))


def test_max_antigenic_distance_includes_extinct_clusters():
    reg, _ = chain_registry(4)
    deep_before = summarize_variants(reg, np.array([0]), ETA, False)
    assert deep_before.max_antigenic_distance == 4
    reg.add_cluster(reg.n_clusters - 1)  # a cluster no variant occupies
    deep_after = summarize_variants(reg, np.array([0]), ETA, False)
    assert deep_after.max_antigenic_distance == 5


def test_active_stats_on_fresh_world(tiny_params):
    w = init_world(tiny_params())
    s = active_variant_stats(w)
    assert not s.extinct
    assert s.n_variants == 1
    assert s.mean_r0 == pytest.approx(2.5)
    assert s.mean_adapted_ratio == pytest.approx(0.65)
    assert s.mean_phylo_distance == 0.0
    assert s.max_antigenic_distance == 0


def test_active_stats_after_extinction_keep_last_survivors():
    p = SimParams(n_agents=300, n_initial_infected=4, social_distancing=0.9,
                  mutation_prob=0.0, horizon=150, seed=31)
    w = run(init_world(p))
    assert w.n_infected == 0
    s = active_variant_stats(w)
    assert s.extinct
    assert s.n_variants == len(w.last_active_variants) >= 1
    assert s.mean_r0 == pytest.approx(2.5)  # only the wild type ever lived


def test_active_stats_without_any_infection(tiny_params):
    w = init_world(tiny_params(n_initial_infected=0))
    s = active_variant_stats(w)
    assert s.extinct
    assert s.n_variants == 1  # wild type stands in so means stay defined


def test_active_stats_track_current_variants(tiny_params):
    w = init_world(tiny_params(mutation_prob=1.0, drift_prob=1.0))
    assert w.rng.bernoulli(w.params.mutation_prob)  # the contact phase's mutation roll
    course = np.empty((1, 3))
    w.variant_of[50] = w.try_infect(0, 50, course[0])
    w._begin_courses(np.array([50]), course)  # the course starts at once
    s = active_variant_stats(w)
    assert s.n_variants == 2
    assert s.mean_phylo_distance == pytest.approx(0.5)
    assert s.max_antigenic_distance == 1


def test_active_stats_memo_reuses_a_summary_while_its_inputs_hold(tiny_params):
    w = init_world(tiny_params())
    memo = {}
    first = active_variant_stats(w, memo)
    assert active_variant_stats(w, memo) is first
    # a drift whose mutant left the active set in the step it was born
    w.registry.add_cluster(0)
    drifted = active_variant_stats(w, memo)
    assert drifted.max_antigenic_distance == 1 and first.max_antigenic_distance == 0
    assert drifted == active_variant_stats(w)
    # the last infection ends: the same ids now stand for the last survivors
    w.active_count[:] = 0
    extinct = active_variant_stats(w, memo)
    assert extinct.extinct and not drifted.extinct
    assert extinct == active_variant_stats(w)
    assert len(memo) == 1
