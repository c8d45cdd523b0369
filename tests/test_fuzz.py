"""Property tests: the text parsers reject bad input only with their own errors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepaird.montecarlo import CSV_COLUMNS, DatasetError, grid_from_text, read_dataset
from sepaird.params import ConfigError, SimParams, parse_config_text

PARSE_ERRORS = (ConfigError, DatasetError)

# Arbitrary text, plus lines built from the parsers' own keys and separators so
# that examples get past the first syntax check often enough to matter.
_KEYS = st.sampled_from(
    ["n_agents", "seed", "mutation_prob", "isolate_symptomatic", "social_distancing", "x"]
)
_CELLS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["true", "false", "0", "-0.0", "1e999", "nan", "-inf", "1_0", " 3 "]),
)
_LINES = st.one_of(
    st.text(max_size=40),
    st.builds(lambda k, cells: f"{k} = {', '.join(cells)}", _KEYS, st.lists(_CELLS, max_size=4)),
)
_TEXTS = st.lists(_LINES, max_size=6).map("\n".join)


@given(_TEXTS)
def test_parse_config_text_raises_only_config_error(text):
    try:
        parse_config_text(text)
    except PARSE_ERRORS:
        pass


@given(_TEXTS)
def test_grid_from_text_raises_only_parse_errors(text):
    try:
        grid_from_text(text, SimParams())
    except PARSE_ERRORS:
        pass


# The file is written as UTF-8, so lone surrogates are left out.
_UTF8 = st.characters(codec="utf-8")
_ROW_CELLS = st.one_of(
    st.text(st.characters(codec="utf-8", exclude_characters=",\r\n"), max_size=6),
    st.sampled_from(["true", "false", "0", "1", "0.5", "nan", "1e999", "-3"]),
)
_ROWS = st.one_of(
    st.text(_UTF8, max_size=60),
    st.lists(_ROW_CELLS, min_size=len(CSV_COLUMNS), max_size=len(CSV_COLUMNS)).map(",".join),
)


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "dataset.csv"


@given(lines=st.lists(_ROWS, max_size=5))
def test_read_dataset_raises_only_dataset_error(dataset_path, lines):
    text = ",".join(CSV_COLUMNS) + "\n" + "\n".join(lines)
    dataset_path.write_text(text, encoding="utf-8")
    try:
        read_dataset(dataset_path)
    except DatasetError:
        pass
