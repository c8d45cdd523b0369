import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from sepaird.params import SimParams
from sepaird.rng import RngStream
from sepaird.variants import (
    DURATION,
    FATALITY,
    INCUBATION_END,
    INFECTIOUSNESS,
    LATENT_END,
    N_PROPS,
    PROP_NAMES,
    SYMPTOMATIC_CHANCE,
    Registry,
    mutate_props,
    spawn_variant,
    wild_type_props,
)

WILD = np.array([0.0625, 4.0, 6.0, 8.0, 0.7, 0.01])


def test_wild_type_props_mapping():
    p = SimParams()
    w = wild_type_props(p)
    assert w.dtype == np.float64
    assert np.array_equal(w, WILD)


def test_prop_names_cover_fields():
    assert PROP_NAMES == (
        "infectiousness",
        "latent_end",
        "incubation_end",
        "duration",
        "symptomatic_chance",
        "fatality",
    )
    columns = (INFECTIOUSNESS, LATENT_END, INCUBATION_END, DURATION, SYMPTOMATIC_CHANCE, FATALITY)
    assert columns == tuple(range(N_PROPS))
    assert WILD.shape == (len(PROP_NAMES),)


def test_zero_sigma_is_identity():
    child = mutate_props(WILD, theta=0.0, sigma_i=0.0, rng=RngStream(1))
    assert np.array_equal(child, WILD)  # exact, not approximate


def test_mutation_is_multiplicative():
    rng_a, rng_b = RngStream(3), RngStream(3)
    child = mutate_props(WILD, 0.0, 0.05, rng_a)
    shocks = rng_b.normal(0.0, 0.05, size=6)
    expected = WILD * (1.0 + np.maximum(shocks, -0.99))
    assert np.array_equal(child, expected)


@given(
    theta=st.floats(-5.0, 5.0),
    sigma=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_props_stay_strictly_positive(theta, sigma, seed):
    """The -0.99 shock floor keeps every property above zero forever."""
    rng = RngStream(seed)
    props = WILD
    for _ in range(5):
        props = mutate_props(props, theta, sigma, rng)
        assert np.all(props > 0.0)
        # the floor also bounds the cumulative shrink: factor >= 0.01 per step
        assert np.all(props >= 0.01**5 * WILD * 0.999)


def test_floor_bounds_single_step_shrink():
    rng = RngStream(99)
    for _ in range(300):
        child = mutate_props(WILD, theta=-50.0, sigma_i=0.1, rng=rng)
        assert np.all(child >= 0.01 * WILD * (1 - 1e-12))


def test_registry_initial_state():
    reg = Registry(WILD)
    assert reg.n_variants == 1
    assert reg.n_clusters == 1
    assert reg.variant_parents.tolist() == [-1]
    assert reg.variant_cluster.tolist() == [0]
    assert reg.variant_depth.tolist() == [0]
    assert reg.cluster_parents.tolist() == [-1]
    assert reg.cluster_depths.tolist() == [0]


def test_spawn_without_drift_keeps_cluster():
    reg = Registry(WILD)
    rng = RngStream(4)
    vid = spawn_variant(reg, 0, drift=False, theta=0.0, sigma_i=0.05, rng=rng)
    assert vid == 1
    assert reg.variant_parents[vid] == 0
    assert reg.variant_cluster[vid] == 0
    assert reg.variant_depth[vid] == 1
    assert reg.n_clusters == 1


def test_spawn_with_drift_opens_child_cluster():
    reg = Registry(WILD)
    rng = RngStream(4)
    vid = spawn_variant(reg, 0, drift=True, theta=0.0, sigma_i=0.05, rng=rng)
    assert reg.variant_cluster[vid] == 1
    assert reg.cluster_parents[1] == 0
    assert reg.cluster_depths[1] == 1
    assert reg.n_clusters - 1 == 1


def test_registry_tree_invariants_after_random_growth():
    reg = Registry(WILD)
    rng = RngStream(12)
    drifts = 0
    for k in range(300):
        parent = int(rng.integers(0, reg.n_variants))
        drift = bool(rng.bernoulli(0.25))
        drifts += drift
        spawn_variant(reg, parent, drift, theta=0.0, sigma_i=0.3, rng=rng)
    assert reg.n_variants == 301
    assert reg.n_variants - 1 == 300
    assert reg.n_clusters - 1 == drifts
    assert reg.n_clusters == 1 + drifts
    parents, clusters, depths = reg.variant_parents, reg.variant_cluster, reg.variant_depth
    assert parents[0] == -1
    for vid in range(1, reg.n_variants):
        parent = parents[vid]
        assert 0 <= parent < vid  # creation order is append-only
        assert depths[vid] == depths[parent] + 1
        # a non-drift child shares its parent's cluster; a drift child's
        # cluster has the parent's cluster as its own parent
        if clusters[vid] != clusters[parent]:
            assert reg.cluster_parents[clusters[vid]] == clusters[parent]
    assert reg.cluster_parents[0] == -1 and reg.cluster_depths[0] == 0
    for cid in range(1, reg.n_clusters):
        cl_parent = reg.cluster_parents[cid]
        assert 0 <= cl_parent < cid
        assert reg.cluster_depths[cid] == reg.cluster_depths[cl_parent] + 1


def test_cluster_neighbors_order():
    reg = Registry(WILD)
    a = reg.add_cluster(0)
    b = reg.add_cluster(0)
    c = reg.add_cluster(a)
    assert list(reg.neighbor_table[0]) == [a, b]  # root has no parent
    assert list(reg.neighbor_table[a]) == [0, c]  # parent first, then children
    assert list(reg.neighbor_table[c]) == [a]


def test_cluster_children_creation_order():
    reg = Registry(WILD)
    kids = [reg.add_cluster(0) for _ in range(4)]
    assert reg.neighbor_table[0] == tuple(kids)  # the root has no parent


def test_max_cluster_depth_tracks_all_clusters():
    reg = Registry(WILD)
    a = reg.add_cluster(0)
    b = reg.add_cluster(a)
    reg.add_cluster(0)
    assert reg.max_cluster_depth() == 2
    assert reg.cluster_depths[b] == 2


def test_props_matrix_rows_match_records():
    reg = Registry(WILD)
    rng = RngStream(2)
    for k in range(40):
        spawn_variant(reg, k % reg.n_variants, bool(k % 5 == 0), 0.0, 0.1, rng)
    mat = reg.props_matrix
    assert mat.shape == (41, 6)
    assert np.array_equal(mat[0], WILD)
    # each row is its recorded parent's row under the replayed shocks
    replay = RngStream(2)
    for vid in range(1, reg.n_variants):
        expected = mutate_props(mat[reg.variant_parents[vid]], 0.0, 0.1, replay)
        assert np.array_equal(mat[vid], expected)


def test_growth_preserves_early_records():
    """Capacity doubling must copy, not alias or repeat-fill, both tables."""
    reg = Registry(WILD)
    rng = RngStream(6)
    first = spawn_variant(reg, 0, True, 0.0, 0.2, rng)
    spawn_variant(reg, first, True, 0.0, 0.2, rng)
    columns = ("props_matrix", "variant_parents", "variant_cluster", "variant_depth")
    variant_rows = [getattr(reg, name)[:3].copy() for name in columns]
    cluster_rows = [reg.cluster_parents[:3].copy(), reg.cluster_depths[:3].copy()]
    # every spawn drifts, so both tables grow past their 64-row start
    for k in range(200):
        spawn_variant(reg, k % reg.n_variants, True, 0.0, 0.2, rng)
    assert reg.n_variants == reg.n_clusters == 203
    for name, before in zip(columns, variant_rows):
        assert np.array_equal(getattr(reg, name)[:3], before), name
    assert np.array_equal(reg.cluster_parents[:3], cluster_rows[0])
    assert np.array_equal(reg.cluster_depths[:3], cluster_rows[1])
    assert np.array_equal(reg.props_matrix[0], WILD)
    assert reg.variant_parents[1:3].tolist() == [0, 1]
    assert reg.variant_cluster[1:3].tolist() == [1, 2]
    assert reg.variant_depth[1:3].tolist() == [1, 2]
    assert reg.cluster_parents[1:3].tolist() == [0, 1]
    assert reg.cluster_depths[1:3].tolist() == [1, 2]


def test_spawn_consumes_fixed_draw_count():
    # one shock per property: equal streams stay aligned across spawns
    reg_a, reg_b = Registry(WILD), Registry(WILD)
    rng_a, rng_b = RngStream(31), RngStream(31)
    for k in range(10):
        ra = spawn_variant(reg_a, 0, False, 0.0, 0.05, rng_a)
        rb = spawn_variant(reg_b, 0, False, 0.0, 0.05, rng_b)
        assert np.array_equal(reg_a.props_matrix[ra], reg_b.props_matrix[rb])

