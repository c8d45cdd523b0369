import dataclasses

import pytest

from sepaird.params import (
    ConfigError,
    SimParams,
    load_params,
    params_from_config,
    params_to_config,
    parse_config_text,
    parse_scalar,
    validate_params,
)


def test_defaults_are_valid():
    p = SimParams()
    assert validate_params(p) is p


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_agents", 0),
        ("n_initial_infected", -1),
        ("n_initial_infected", 201),
        ("daily_contacts", 0),
        ("infectiousness0", -0.1),
        ("fatality0", 1.5),
        ("symptomatic_chance0", -0.01),
        ("course_sd_frac", -0.2),
        ("mutation_prob", 1.01),
        ("mutation_sd", -1.0),
        ("cross_immunity", 2.0),
        ("cross_protection", -0.5),
        ("drift_prob", 1.5),
        ("social_distancing", 1.2),
        ("latent_end0", 0.0),
        ("latent_end0", -3.0),
        ("duration0", 0.0),
        ("horizon", 0),
        ("mutation_sd", float("nan")),
        ("mutation_sd", float("inf")),
        ("course_sd_frac", float("nan")),
        ("mutation_mean", float("nan")),
        ("mutation_mean", float("-inf")),
        ("duration0", float("inf")),
    ],
)
def test_invalid_field_rejected(field, value):
    p = dataclasses.replace(SimParams(n_agents=200), **{field: value})
    with pytest.raises(ConfigError):
        validate_params(p)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_rejected(seed):
    # the random stream masks its seed to 64 bits, so these would alias
    # seeds 2**64 - 1 and 0
    p = dataclasses.replace(SimParams(), seed=seed)
    with pytest.raises(ConfigError, match="seed"):
        validate_params(p)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seed_at_the_64_bit_bounds_accepted(seed):
    p = dataclasses.replace(SimParams(), seed=seed)
    assert validate_params(p) is p


@pytest.mark.parametrize(
    "latent,incubation,duration",
    [(6.0, 6.0, 8.0), (4.0, 8.0, 8.0), (4.0, 3.0, 8.0), (4.0, 6.0, 5.0)],
)
def test_course_marks_must_increase(latent, incubation, duration):
    p = SimParams(latent_end0=latent, incubation_end0=incubation, duration0=duration)
    with pytest.raises(ConfigError):
        validate_params(p)


def test_config_round_trip():
    p = SimParams(
        n_agents=1234,
        mutation_prob=0.015,
        isolate_symptomatic=True,
        social_distancing=0.35,
        seed=99,
    )
    assert params_from_config(params_to_config(p)) == p


def test_config_round_trip_defaults():
    p = SimParams()
    assert params_from_config(params_to_config(p)) == p


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\nn_agents = 500\nseed = 3   # trailing comment\n"
    p = params_from_config(text)
    assert p.n_agents == 500
    assert p.seed == 3


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        params_from_config("not_a_field = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        params_from_config("n_agents = 10\nn_agents = 20\n")


def test_missing_separator_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("n_agents 10\n")


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        params_from_config("n_agents = ten\n")
    with pytest.raises(ConfigError):
        params_from_config("isolate_symptomatic = maybe\n")


def test_parse_scalar_types():
    assert parse_scalar("n_agents", "250") == 250
    assert parse_scalar("mutation_prob", "0.02") == 0.02
    assert parse_scalar("isolate_symptomatic", "true") is True
    assert parse_scalar("isolate_symptomatic", "false") is False


def test_bool_not_parsed_as_int():
    with pytest.raises(ConfigError):
        parse_scalar("n_agents", "true")


def test_load_params_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n_agents = 321\nhorizon = 12\n", encoding="utf-8")
    p = load_params(str(path))
    assert (p.n_agents, p.horizon) == (321, 12)


def test_validated_config_rejected_on_load(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("social_distancing = 1.5\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_params(str(path))
