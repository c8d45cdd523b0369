import numpy as np
import pytest

from sepaird.rng import RngStream, derive_seed, fnv1a64, splitmix64

MASK64 = (1 << 64) - 1


def _splitmix64_reference(x: int) -> int:
    # independent transcription of the finalizer constants
    z = (x + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def test_splitmix64_known_value():
    # published first output of the sequence seeded with 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF


@pytest.mark.parametrize("x", [0, 1, 42, 2**63, MASK64, 123456789123456789])
def test_splitmix64_matches_reference(x):
    assert splitmix64(x) == _splitmix64_reference(x)


def test_fnv1a64_known_values():
    # offset basis for empty input, published digests for short strings
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_derive_seed_deterministic():
    assert derive_seed(42, "k", 3) == derive_seed(42, "k", 3)


def test_derive_seed_sensitivity():
    baseline = derive_seed(42, "scenario-a", 0)
    assert derive_seed(42, "scenario-a", 1) != baseline
    assert derive_seed(42, "scenario-b", 0) != baseline
    assert derive_seed(43, "scenario-a", 0) != baseline


def test_derive_seed_range():
    for rep in range(50):
        s = derive_seed(99, "x", rep)
        assert 0 <= s <= MASK64


def test_derive_seed_spread():
    # replication streams must not collide for any realistic sweep size
    seeds = {derive_seed(42, f"key{k}", r) for k in range(20) for r in range(200)}
    assert len(seeds) == 20 * 200


def test_equal_seeds_equal_sequences():
    a, b = RngStream(1234), RngStream(1234)
    for _ in range(200):
        assert a.uniform() == b.uniform()
    assert np.array_equal(a.normal(0.0, 1.0, size=32), b.normal(0.0, 1.0, size=32))
    assert np.array_equal(a.integers(0, 100, size=32), b.integers(0, 100, size=32))


def test_distinct_seeds_distinct_sequences():
    a, b = RngStream(1), RngStream(2)
    assert [a.uniform() for _ in range(8)] != [b.uniform() for _ in range(8)]


def test_bernoulli_edge_probabilities():
    rng = RngStream(5)
    assert not any(rng.bernoulli(0.0) for _ in range(200))
    assert all(rng.bernoulli(1.0) for _ in range(200))


def test_bernoulli_mean_within_three_se():
    rng = RngStream(11)
    n, p = 4000, 0.3
    hits = sum(rng.bernoulli(p) for _ in range(n))
    se = (p * (1 - p) / n) ** 0.5
    assert abs(hits / n - p) <= 3 * se


def test_integers_bounds():
    rng = RngStream(8)
    draws = rng.integers(3, 9, size=2000)
    assert draws.min() >= 3
    assert draws.max() <= 8


def test_uniform_unit_interval():
    rng = RngStream(13)
    draws = np.array([rng.uniform() for _ in range(1000)])
    assert np.all((draws >= 0.0) & (draws < 1.0))


# -- raw draw pins: a numpy change to one primitive fails on that primitive


def test_uniform_draws_are_pinned():
    rng = RngStream(2021)
    draws = [rng.uniform(), rng.uniform()] + rng.uniform(size=3).tolist()
    assert draws == [
        0.7569478279346672,
        0.9413818664611987,
        0.5924630350580581,
        0.31884171313655263,
        0.6260738378870166,
    ]


def test_normal_draws_are_pinned():
    rng = RngStream(2021)
    assert rng.normal(0.0, 1.0, 6).tolist() == [
        -0.06886119500819549,
        -0.6869655932770377,
        -0.7884867974769655,
        1.0760068491209613,
        -0.010524167057618498,
        -0.4556526304453662,
    ]


def test_integers_draws_are_pinned():
    # 32-bit ranges draw half-words (one is left cached after the odd-sized
    # first call); the last range needs whole 64-bit words
    rng = RngStream(2021)
    assert rng.integers(0, 10, size=5).tolist() == [7, 7, 4, 9, 6]
    assert rng.integers(0, 9999, size=(2, 2)).tolist() == [[5924, 5220], [3188, 6058]]
    assert rng.integers(0, 2**40, size=2).tolist() == [39047910805, 277216523588]


# -- moving the stream back over scalar draws


@pytest.mark.parametrize("held", [False, True], ids=["no_half_word", "held_half_word"])
@pytest.mark.parametrize("k", [0, 1, 7, 1000])
def test_rewind_undoes_uniform_draws(k, held):
    rng = RngStream(31)
    if held:
        rng.integers(0, 10, size=3)  # three 32-bit draws hold one half-word back
    before = rng.generator.bit_generator.state
    assert before["has_uint32"] == held
    for _ in range(k):
        rng.uniform()
    rng.rewind(k)
    assert rng.generator.bit_generator.state == before


def _live(rng):
    """The state that later draws read: a half-word is dead once drawn."""
    state = rng.generator.bit_generator.state
    return {**state, "uinteger": state["uinteger"] if state["has_uint32"] else None}


def test_rewind_after_a_block_matches_scalar_draws():
    # the immunity walk's pattern: a block read ahead, then rewound over the
    # draws it did not use, leaves the stream where the scalar draws would
    walked, scalar = RngStream(31), RngStream(31)
    for w in (walked, scalar):
        w.integers(0, 10, size=3)
    for block, used in ((5, 2), (40, 40), (16, 0), (1000, 999)):
        walked.uniform(size=block)
        walked.rewind(block - used)
        for _ in range(used):
            scalar.uniform()
        assert _live(walked) == _live(scalar)
        assert walked.integers(0, 10, size=1).tolist() == scalar.integers(0, 10, size=1).tolist()
    assert walked.normal(0.0, 1.0, 5).tolist() == scalar.normal(0.0, 1.0, 5).tolist()


def test_rewind_drops_only_a_spent_half_word():
    # once the held half-word is drawn, the value left behind never reaches
    # a draw, and a rewind need not keep it
    rewound, plain = RngStream(31), RngStream(31)
    for rng in (rewound, plain):
        rng.integers(0, 10, size=4)
        assert rng.generator.bit_generator.state["has_uint32"] == 0
    rewound.uniform(size=6)
    rewound.rewind(6)
    assert rewound.integers(0, 10, size=5).tolist() == plain.integers(0, 10, size=5).tolist()
    assert rewound.generator.bit_generator.state == plain.generator.bit_generator.state


@pytest.mark.parametrize("size", [0, 1, 2, 3, 50, 51])
def test_half_word_view_reads_the_generator_state(size):
    rng = RngStream(77)
    for high in (10, 2**20, 2**40):
        rng.integers(0, high, size=size)
        state = rng.generator.bit_generator.state
        assert rng._c_state.has_uint32 == state["has_uint32"]
        assert rng._c_state.uinteger == state["uinteger"]


# -- the generator's methods, bound once


@pytest.mark.parametrize("cached_half_word", [False, True])
def test_bound_draws_match_bernoulli_and_normal(cached_half_word):
    # the contact phase's bound random() and standard_normal(out=row) must
    # make the draws of bernoulli and normal(0.0, 1.0, 3), draw for draw,
    # also after an integers call that holds a 32-bit half-word back
    bound, methods = RngStream(57), RngStream(57)
    if cached_half_word:
        bound.integers(0, 10, size=3)
        methods.integers(0, 10, size=3)
        assert bound.generator.bit_generator.state["has_uint32"] == 1
    random, standard_normal = bound.generator.random, bound.generator.standard_normal
    rows = np.empty((300, 3))
    chances = np.random.default_rng(8).random(300)
    for row, chance in zip(rows, chances):
        assert (random() < chance) == methods.bernoulli(chance)
        standard_normal(out=row)
        assert row.tolist() == methods.normal(0.0, 1.0, 3).tolist()
        assert bound.generator.bit_generator.state == methods.generator.bit_generator.state
    assert bound.integers(0, 10, size=3).tolist() == methods.integers(0, 10, size=3).tolist()
    assert bound.uniform() == methods.uniform()
