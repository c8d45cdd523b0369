import dataclasses
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from sepaird import montecarlo
from sepaird.abm import init_world, run
from sepaird.montecarlo import (
    BOX_COLUMNS,
    BOX_DTYPE,
    CSV_COLUMNS,
    DATASET_DTYPE,
    METRIC_FIELDS,
    DatasetError,
    MetricRow,
    QUANTILE_COLUMNS,
    QUANTILE_DTYPE,
    SCENARIO_FIELDS,
    Scenario,
    SweepDataset,
    SweepGrid,
    collect_world_run,
    grid_from_text,
    metric_row,
    notched_box,
    quantile_series,
    read_boxes,
    read_dataset,
    read_quantiles,
    replication_seed,
    sweep,
    validate_grid,
    write_atomically,
    write_boxes,
    write_dataset,
    write_manifest,
    write_quantiles,
    _sweep_task,
    _sweep_tasks,
)
from sepaird.params import ConfigError, SimParams, parse_config_text
from sepaird.phylo import ActiveVariantSummary
from sepaird.rng import derive_seed
from sepaird.variants import PROP_NAMES

BASE_SCENARIO = Scenario(0.02, 0.5, 0.99, True, 0.0)


def make_row(scenario, replication, step, **metrics):
    values = dict(
        mutation_prob=scenario.mutation_prob,
        cross_immunity=scenario.cross_immunity,
        cross_protection=scenario.cross_protection,
        isolate_symptomatic=scenario.isolate_symptomatic,
        social_distancing=scenario.social_distancing,
        replication=replication,
        step=step,
        share_infected=0.0,
        mortality=0.0,
        cumulative_infected_share=0.0,
        mean_r0=0.0,
        mean_adapted_ratio=1.0,
        max_antigenic_distance=0,
        mean_phylo_distance=0.0,
        mean_infectiousness=0.0,
        mean_latent_end=0.0,
        mean_incubation_end=0.0,
        mean_duration=0.0,
        mean_symptomatic_chance=0.0,
        mean_fatality=0.0,
        active_variant_count=1,
        extinct=False,
    )
    values.update(metrics)
    return MetricRow(**values)


def scenarios_of(table):
    """The scenario of each row of an aggregation table."""
    return [Scenario(*values) for values in table[list(SCENARIO_FIELDS)].tolist()]


@pytest.fixture(scope="module")
def mini_grid():
    base = SimParams(n_agents=200, n_initial_infected=5, horizon=15, seed=42)
    return SweepGrid(
        base=base,
        mutation_prob=(0.0, 0.05),
        cross_immunity=(0.5,),
        cross_protection=(0.99,),
        isolate_symptomatic=(False,),
        social_distancing=(0.0, 0.4),
        replications=2,
    )


@pytest.fixture(scope="module")
def mini_dataset(mini_grid):
    return sweep(mini_grid)


# -- scenarios and grids ------------------------------------------------


def test_scenario_key_format_is_stable():
    # replication seeds hash this string; changing it would silently
    # reshuffle every published dataset
    assert BASE_SCENARIO.key() == (
        "mutation_prob=0.02,cross_immunity=0.5,cross_protection=0.99,"
        "isolate_symptomatic=true,social_distancing=0.0"
    )


# equal to one another under ==, so keyed, seeded and spelled alike
EQUAL_SCENARIOS = [
    Scenario(0.0, 0.5, 0.99, True, 0.0),
    Scenario(0.0, 0.5, 0.99, np.bool_(True), 0.0),
    Scenario(0.0, 0.5, 0.99, True, 0),
    Scenario(0.0, 0.5, 0.99, True, -0.0),
]


@pytest.mark.parametrize(
    "scenario", EQUAL_SCENARIOS, ids=["plain", "numpy-bool", "int-zero", "negative-zero"]
)
def test_equal_scenarios_are_keyed_seeded_and_spelled_alike(tmp_path, scenario):
    assert scenario == EQUAL_SCENARIOS[0]
    key = (
        "mutation_prob=0.0,cross_immunity=0.5,cross_protection=0.99,"
        "isolate_symptomatic=true,social_distancing=0.0"
    )
    assert scenario.key() == key
    assert replication_seed(42, scenario, 3) == derive_seed(42, key, 3)
    grid = SweepGrid(SimParams(), *((getattr(scenario, name),) for name in SCENARIO_FIELDS),
                     replications=1)
    manifest, dataset = tmp_path / "manifest.csv", tmp_path / "dataset.csv"
    write_manifest(grid, manifest)
    write_dataset(SweepDataset.from_rows([make_row(scenario, 0, 1)]), dataset)
    n = len(SCENARIO_FIELDS)
    cells = [path.read_text().splitlines()[1].split(",")[:n] for path in (manifest, dataset)]
    assert cells == [["0.0", "0.5", "0.99", "true", "0.0"]] * 2


def test_scenario_key_joins_the_manifest_scenario_cells(tmp_path, mini_grid):
    path = tmp_path / "manifest.csv"
    write_manifest(mini_grid, path)
    keys = [
        ",".join(f"{name}={text}" for name, text in zip(SCENARIO_FIELDS, line.split(",")))
        for line in path.read_text().splitlines()[1:]
    ]
    scenarios = mini_grid.scenarios()
    assert keys == [s.key() for s in scenarios for _ in range(mini_grid.replications)]


def test_scenario_apply_round_trip(base_params):
    p = BASE_SCENARIO.apply(base_params)
    assert p.mutation_prob == 0.02
    assert p.isolate_symptomatic is True
    assert p.n_agents == base_params.n_agents  # untouched fields survive


def test_grid_enumerates_full_product(mini_grid):
    combos = mini_grid.scenarios()
    assert len(combos) == 4
    expected = [
        Scenario(m, 0.5, 0.99, False, d)
        for m, d in itertools.product((0.0, 0.05), (0.0, 0.4))
    ]
    assert combos == expected


def test_grid_axes_are_the_scenario_fields():
    names = tuple(f.name for f in dataclasses.fields(SweepGrid))
    assert names == ("base", *SCENARIO_FIELDS, "replications")


def test_variant_summary_is_in_row_order():
    # metric_row splices the summary's leading fields into the row
    start, stop = METRIC_FIELDS.index("mean_r0"), METRIC_FIELDS.index("active_variant_count")
    assert ActiveVariantSummary._fields[: stop - start] == METRIC_FIELDS[start:stop]
    assert ActiveVariantSummary._fields[4 : stop - start] == tuple(
        f"mean_{name}" for name in PROP_NAMES
    )


def test_default_grid_size(base_params):
    assert len(SweepGrid(base=base_params).scenarios()) == 4 * 3 * 2 * 2 * 6


def test_validate_grid_accepts_default(mini_grid):
    assert validate_grid(mini_grid) is mini_grid


def test_validate_grid_rejects_bad_shapes(mini_grid):
    with pytest.raises(DatasetError, match="mutation_prob is empty"):
        validate_grid(dataclasses.replace(mini_grid, mutation_prob=()))
    with pytest.raises(DatasetError, match="replications"):
        validate_grid(dataclasses.replace(mini_grid, replications=0))
    no_steps = dataclasses.replace(mini_grid.base, horizon=0)
    with pytest.raises(ConfigError, match="horizon"):
        validate_grid(dataclasses.replace(mini_grid, base=no_steps))
    with pytest.raises(ConfigError):
        validate_grid(dataclasses.replace(mini_grid, social_distancing=(1.5,)))
    with pytest.raises(DatasetError, match="mutation_prob lists a value twice"):
        validate_grid(dataclasses.replace(mini_grid, mutation_prob=(0.05, 0.05)))


def test_grid_from_text_full(base_params):
    text = """
    # sweep dimensions
    mutation_prob = 0.0, 0.01
    cross_immunity = 0.9
    isolate_symptomatic = false, true

    social_distancing = 0.0, 0.5
    """
    # not the defaults, so the grid must read them from its base
    base = dataclasses.replace(base_params, horizon=30, seed=9)
    grid = grid_from_text(text, base, replications=7)
    assert grid.mutation_prob == (0.0, 0.01)
    assert grid.cross_immunity == (0.9,)
    assert grid.cross_protection == (base_params.cross_protection,)
    assert grid.isolate_symptomatic == (False, True)
    assert grid.social_distancing == (0.0, 0.5)
    assert grid.replications == 7
    assert grid.base is base
    assert (grid.horizon, grid.base_seed) == (30, 9)


def test_grid_from_text_trailing_commas(base_params):
    grid = grid_from_text("mutation_prob = 0.01,\n", base_params)
    assert grid.mutation_prob == (0.01,)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("mutation_prob 0.1", "expected key=value"),
        ("n_agents = 10", "unknown key"),
        ("mutation_prob = 0.1\nmutation_prob = 0.2", "duplicate"),
        ("mutation_prob = 0.01, 0.01", "'mutation_prob' lists a value twice"),
        ("social_distancing = 0.0, -0.0", "'social_distancing' lists a value twice"),
        ("mutation_prob =", "empty value list"),
        ("mutation_prob = abc", "bad value"),
        ("isolate_symptomatic = maybe", "bad value"),
    ],
)
def test_grid_from_text_rejects(text, fragment, base_params):
    with pytest.raises(DatasetError, match=fragment):
        grid_from_text(text, base_params)


@pytest.mark.parametrize(
    "line",
    ["mutation_prob 0.1", "bogus = 1", "mutation_prob = 0.1\nmutation_prob = 0.2"],
    ids=["no-separator", "unknown-key", "duplicate-key"],
)
def test_config_and_grid_files_reject_a_line_alike(line, base_params):
    text = f"# scenario\n\n{line}\n"
    with pytest.raises(ConfigError) as config:
        parse_config_text(text)
    with pytest.raises(DatasetError) as grid:
        grid_from_text(text, base_params)
    assert str(grid.value) == f"grid {config.value}"
    assert str(grid.value).startswith("grid line ")


def test_grid_from_text_reads_negative_zero_as_zero(base_params):
    # -0.0 == 0.0, so a scenario keyed and seeded by "-0.0" would be
    # pooled with the "0.0" one wherever scenarios are grouped
    negative = grid_from_text("social_distancing = -0.0\n", base_params)
    positive = grid_from_text("social_distancing = 0.0\n", base_params)
    assert math.copysign(1.0, negative.social_distancing[0]) == 1.0
    assert negative.scenarios()[0].key() == positive.scenarios()[0].key()


def test_grid_from_text_reports_line_numbers(base_params):
    with pytest.raises(DatasetError, match="grid line 3"):
        grid_from_text("\n\nbogus = 1\n", base_params)


# -- seed derivation -----------------------------------------------------


def test_replication_seeds_ignore_grid_shape():
    # adding scenarios to a grid must never reshuffle existing streams
    s = replication_seed(42, BASE_SCENARIO, 3)
    assert s == replication_seed(42, BASE_SCENARIO, 3)
    assert s != replication_seed(42, BASE_SCENARIO, 4)
    assert s != replication_seed(43, BASE_SCENARIO, 3)
    other = dataclasses.replace(BASE_SCENARIO, social_distancing=0.2)
    assert s != replication_seed(42, other, 3)


def test_replication_seeds_spread():
    seeds = {
        replication_seed(42, BASE_SCENARIO, rep) for rep in range(500)
    }
    assert len(seeds) == 500


# -- sweeps ---------------------------------------------------------------


def test_sweep_row_count_and_order(mini_grid, mini_dataset):
    rows = mini_dataset.rows
    assert len(rows) == 4 * 2 * 15
    combos = mini_grid.scenarios()
    expected_order = [
        (sc, rep, step)
        for sc in combos
        for rep in range(2)
        for step in range(1, 16)
    ]
    assert [(r.scenario, r.replication, r.step) for r in rows] == expected_order


def test_sweep_is_deterministic(mini_grid, mini_dataset):
    again = sweep(mini_grid)
    assert again.rows == mini_dataset.rows


def test_sweep_workers_do_not_change_rows(mini_grid, mini_dataset):
    parallel = sweep(mini_grid, jobs=2)
    assert parallel.rows == mini_dataset.rows


def test_sweep_task_returns_one_table_block(mini_grid):
    # workers send numpy blocks, so no MetricRow is pickled across the pool
    index, block = _sweep_task(next(_sweep_tasks(mini_grid)))
    assert index == 0
    assert block.dtype == DATASET_DTYPE
    assert block["step"].tolist() == list(range(1, mini_grid.horizon + 1))


def test_sweep_holds_the_table_once():
    # runs that die out early on a long horizon: the table dwarfs one world
    grid = SweepGrid(
        base=SimParams(n_agents=50, n_initial_infected=1, horizon=2000, seed=42),
        mutation_prob=(0.0,),
        cross_immunity=(0.5,),
        cross_protection=(0.99,),
        isolate_symptomatic=(False,),
        social_distancing=(0.8,),
        replications=8,
    )
    # the first sweep of a process imports modules that would count too
    sweep(dataclasses.replace(grid, base=dataclasses.replace(grid.base, horizon=5), replications=1))
    tracemalloc.start()
    try:
        dataset = sweep(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * dataset.table.nbytes


def test_sweep_progress_callback(mini_grid):
    ticks = []
    short = dataclasses.replace(mini_grid.base, horizon=3)
    sweep(dataclasses.replace(mini_grid, base=short, replications=1),
          progress=lambda done, total: ticks.append((done, total)))
    assert ticks == [(i, 4) for i in range(1, 5)]


@pytest.mark.parametrize("seed,extinct_at", [(2, None), (9, 24), (11, 40)])
def test_collect_world_run_matches_observing_every_step(seed, extinct_at):
    # seeds 9 and 11 mutate and drift before they die out; seed 2 survives
    p = SimParams(n_agents=400, n_initial_infected=5, mutation_prob=0.2, drift_prob=0.5,
                  social_distancing=0.7, horizon=80, seed=seed)
    block = collect_world_run(init_world(p), replication=3)
    # no memo: the reference summarises the variants afresh at every step
    reference = []
    run(init_world(p), callback=lambda w: reference.append(MetricRow(*metric_row(w, 3))))
    assert block.dtype == DATASET_DTYPE
    assert block.tobytes() == SweepDataset.from_rows(reference).table.tobytes()
    extinct = block["step"][block["extinct"]].tolist()
    assert extinct[:1] == ([extinct_at] if extinct_at else [])
    assert len(extinct) == (p.horizon - extinct_at + 1 if extinct_at else 0)


def test_collect_world_run_refreshes_the_summary_when_only_a_cluster_opens():
    # seed 22: at step 3 a drifted mutant's course ends in the step it began,
    # so the active set is the same as at step 2 while a cluster has opened
    p = SimParams(n_agents=300, n_initial_infected=5, mutation_prob=0.5, drift_prob=0.5,
                  course_sd_frac=0.5, social_distancing=0.5, horizon=6, seed=22)
    seen = []
    run(init_world(p), callback=lambda w: seen.append(
        (w.active_variants().tolist(), w.registry.n_clusters)))
    assert seen[1] == ([0], 1) and seen[2] == ([0], 2)
    block = collect_world_run(init_world(p))
    assert block["max_antigenic_distance"][:3].tolist() == [0, 0, 1]
    reference = []
    run(init_world(p), callback=lambda w: reference.append(MetricRow(*metric_row(w, 0))))
    assert block.tobytes() == SweepDataset.from_rows(reference).table.tobytes()


def test_collect_world_run_of_a_world_at_its_horizon_is_empty():
    p = SimParams(n_agents=100, horizon=3, seed=1)
    w = run(init_world(p))
    block = collect_world_run(w)
    assert block.dtype == DATASET_DTYPE and block.size == 0


def test_sweep_rows_reflect_scenario(mini_dataset):
    for row in mini_dataset.rows:
        assert row.mutation_prob in (0.0, 0.05)
        assert row.social_distancing in (0.0, 0.4)
        assert 0.0 <= row.share_infected <= 1.0
        assert 0.0 <= row.mortality <= 1.0


def test_dataset_scenarios_listing(mini_grid, mini_dataset):
    assert mini_dataset.scenarios() == mini_grid.scenarios()


def test_dataset_is_one_table_with_rows_as_a_view(mini_dataset):
    table = mini_dataset.table
    assert table.dtype.names == CSV_COLUMNS
    assert [table.dtype[name] for name in ("mortality", "step", "extinct")] == [
        np.float64, np.int64, np.bool_
    ]
    assert all(type(row) is MetricRow for row in mini_dataset.rows)
    again = SweepDataset.from_rows(mini_dataset.rows)
    assert again.table.tobytes() == table.tobytes()


# -- dataset serialization -------------------------------------------------


def test_dataset_csv_round_trip(tmp_path, mini_dataset):
    path = tmp_path / "dataset.csv"
    write_dataset(mini_dataset, path)
    assert read_dataset(path).rows == mini_dataset.rows


def test_dataset_csv_shape(tmp_path, mini_dataset):
    path = tmp_path / "dataset.csv"
    write_dataset(mini_dataset, path)
    raw = path.read_bytes().decode("utf-8")
    assert "\r" not in raw
    lines = raw.split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[-1] == ""  # trailing newline
    assert len(lines) == len(mini_dataset.rows) + 2
    first = lines[1].split(",")
    assert len(first) == len(CSV_COLUMNS)
    assert first[CSV_COLUMNS.index("isolate_symptomatic")] in ("true", "false")
    assert first[CSV_COLUMNS.index("extinct")] in ("true", "false")


def test_dataset_write_is_byte_stable(tmp_path, mini_dataset):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(mini_dataset, a)
    write_dataset(mini_dataset, b)
    assert a.read_bytes() == b.read_bytes()


def _format_value(value) -> str:
    """One cell, spelled after the Python type of its value alone."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _reference_csv(table) -> str:
    """The dataset CSV of ``table``, every cell formatted on its own."""
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(_format_value(cell) for cell in row) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def test_write_dataset_matches_formatting_every_cell(tmp_path):
    other = dataclasses.replace(BASE_SCENARIO, social_distancing=0.4)
    rows = [make_row(BASE_SCENARIO, 0, step, mortality=0.25) for step in range(1, 6)]
    # equal to the row before under ==, not in bytes
    rows.append(make_row(BASE_SCENARIO, 0, 6, mortality=0.25, mean_r0=-0.0))
    rows.append(make_row(BASE_SCENARIO, 0, 7, mortality=0.25, mean_r0=0.0))
    rows += [make_row(BASE_SCENARIO, 0, step, mean_r0=math.nan) for step in (8, 9, 10)]
    rows.append(make_row(BASE_SCENARIO, 1, 10, mean_r0=math.nan))  # replication only
    rows.append(make_row(other, 1, 10, mean_r0=math.nan))  # one scenario cell only
    rows.append(make_row(other, 1, 11, mean_r0=math.nan, extinct=True))
    # a run of repeats across the edge of the first block of rows written,
    # then one that ends right before the edge of the second
    rows += [make_row(other, 2, step, share_infected=0.5) for step in range(1, 4200)]
    rows += [make_row(other, 2, step, mean_fatality=1e-300) for step in range(4200, 8180)]
    assert len(rows) == 2 * 4096
    rows.append(make_row(other, 3, 1, mean_fatality=1e-300))
    table = SweepDataset.from_rows(rows).table
    assert np.isnan(table["mean_r0"]).sum() == 6
    path = tmp_path / "dataset.csv"
    write_dataset(SweepDataset(table), path)
    assert path.read_text() == _reference_csv(table)
    lines = path.read_text().splitlines()
    assert lines[6].split(",")[CSV_COLUMNS.index("mean_r0")] == "-0.0"
    assert lines[7].split(",")[CSV_COLUMNS.index("mean_r0")] == "0.0"


def test_write_dataset_of_a_sweep_matches_formatting_every_cell(tmp_path, mini_dataset):
    path = tmp_path / "dataset.csv"
    write_dataset(mini_dataset, path)
    assert path.read_text() == _reference_csv(mini_dataset.table)
    empty = tmp_path / "empty.csv"
    write_dataset(SweepDataset(mini_dataset.table[:0]), empty)
    assert empty.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_read_dataset_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(DatasetError, match="header mismatch"):
        read_dataset(path)


def test_read_dataset_reports_line_numbers(tmp_path, mini_dataset):
    path = tmp_path / "dataset.csv"
    write_dataset(mini_dataset, path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3] + ",extra"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match="line 4"):
        read_dataset(path)


def test_read_dataset_rejects_bad_cells(tmp_path, mini_dataset):
    path = tmp_path / "dataset.csv"
    write_dataset(mini_dataset, path)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[CSV_COLUMNS.index("extinct")] = "perhaps"
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match="line 3"):
        read_dataset(path)


def _cell_edit(column, text, columns=CSV_COLUMNS):
    index = columns.index(column)
    return lambda line: ",".join(
        text if i == index else cell for i, cell in enumerate(line.split(","))
    )


# each edit breaks the data line at file line 5
@pytest.mark.parametrize(
    "edit",
    [
        _cell_edit("step", "1.0"),
        _cell_edit("extinct", "falsey"),
        _cell_edit("isolate_symptomatic", "perhaps"),
        lambda line: "#" + line,
        lambda line: line.rsplit(",", 1)[0],
        lambda line: line + ",0",
        _cell_edit("mutation_prob", "nan"),
        _cell_edit("social_distancing", "-inf"),
        # a text field would drop these trailing NULs
        _cell_edit("extinct", "true\x00"),
        _cell_edit("isolate_symptomatic", "false\x00\x00"),
    ],
    ids=[
        "float-in-int", "falsey", "perhaps", "hash", "short", "long", "nan", "-inf",
        "true-nul", "false-nuls",
    ],
)
@pytest.mark.parametrize("blank_before", [False, True])
def test_read_dataset_names_the_rejected_line(tmp_path, mini_dataset, edit, blank_before):
    path = tmp_path / "dataset.csv"
    write_dataset(mini_dataset, path)
    lines = path.read_text().splitlines()
    lines[4] = edit(lines[4])
    if blank_before:
        # skipped, but still counted
        lines.insert(2, "")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match=f"^line {6 if blank_before else 5}: "):
        read_dataset(path)


def test_read_dataset_reads_negative_zero_scenario_as_zero(tmp_path, mini_dataset):
    # -0.0 == 0.0, so the rows are grouped with the 0.0 scenario; read as
    # written, the sign would leak into that scenario's aggregation cells
    path = tmp_path / "dataset.csv"
    write_dataset(mini_dataset, path)
    column = CSV_COLUMNS.index("social_distancing")
    lines = path.read_text().splitlines()
    for i in range(1, len(lines), 2):
        cells = lines[i].split(",")
        if cells[column] == "0.0":
            cells[column] = "-0.0"
        lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    ds = read_dataset(path)
    assert all(math.copysign(1.0, row.social_distancing) == 1.0 for row in ds.rows)
    signed, plain = tmp_path / "signed.csv", tmp_path / "plain.csv"
    write_quantiles(quantile_series(ds, "mortality"), signed)
    write_quantiles(quantile_series(mini_dataset, "mortality"), plain)
    assert signed.read_bytes() == plain.read_bytes()


# -- aggregation ------------------------------------------------------------


def test_quantile_series_linear_interpolation():
    rows = [
        make_row(BASE_SCENARIO, rep, 1, mortality=float(rep + 1))
        for rep in range(100)
    ]
    ds = SweepDataset.from_rows(rows)
    got = quantile_series(ds, "mortality", (0.05, 0.5, 0.95))
    values = np.arange(1.0, 101.0)
    assert got.dtype == QUANTILE_DTYPE
    assert got["quantile"].tolist() == [0.05, 0.5, 0.95]
    assert scenarios_of(got) == [BASE_SCENARIO] * 3
    assert got["step"].tolist() == [1] * 3
    for value, level in zip(got["value"].tolist(), (0.05, 0.5, 0.95)):
        assert value == pytest.approx(np.quantile(values, level))
    assert got["value"][1] == pytest.approx(50.5)


def test_quantile_series_orders_levels_pointwise(mini_dataset):
    rows = quantile_series(mini_dataset, "share_infected")
    by_key = {}
    columns = (rows[name].tolist() for name in ("step", "value"))
    for scenario, step, value in zip(scenarios_of(rows), *columns):
        by_key.setdefault((scenario, step), []).append(value)
    for values in by_key.values():
        assert values == sorted(values)


def test_quantile_series_is_permutation_invariant(mini_dataset):
    shuffled = list(mini_dataset.rows)
    random.Random(99).shuffle(shuffled)
    ds = SweepDataset.from_rows(shuffled)
    got, expected = quantile_series(ds, "mortality"), quantile_series(mini_dataset, "mortality")
    assert got.dtype == expected.dtype
    assert got.tolist() == expected.tolist()


def test_quantile_series_matches_per_group_quantiles(mini_dataset):
    # groups of 1 to 4 replications, out of order: each group's levels equal
    # a separate np.quantile call over its values
    rng = random.Random(5)
    rows = [
        dataclasses.replace(row, replication=rep)
        for row in mini_dataset.rows
        for rep in range(2)
        if rng.random() < 0.6
    ]
    rng.shuffle(rows)
    levels = (0.1, 0.5, 0.9)
    groups = {}
    for row in rows:
        groups.setdefault((row.scenario, row.step), []).append(row.share_infected)
    expected = [
        (scenario, step, q, float(value))
        for scenario, step in sorted(groups)
        for q, value in zip(levels, np.quantile(groups[scenario, step], levels, method="linear"))
    ]
    got = quantile_series(SweepDataset.from_rows(rows), "share_infected", levels)
    columns = (got[name].tolist() for name in ("step", "quantile", "value"))
    assert list(zip(scenarios_of(got), *columns)) == expected
    assert {len(values) for values in groups.values()} == {1, 2, 3, 4}


def test_quantile_series_rejects_bad_input(mini_dataset):
    with pytest.raises(DatasetError, match="unknown metric"):
        quantile_series(mini_dataset, "bogus")
    with pytest.raises(DatasetError, match="out of"):
        quantile_series(mini_dataset, "mortality", (1.5,))


def test_mortality_quantiles_never_decrease(mini_dataset):
    # cumulative metric: every quantile trace is monotone in the step
    rows = quantile_series(mini_dataset, "mortality")
    series = {}
    columns = (rows[name].tolist() for name in ("quantile", "step", "value"))
    for scenario, quantile, step, value in zip(scenarios_of(rows), *columns):
        series.setdefault((scenario, quantile), []).append((step, value))
    for trace in series.values():
        ordered = [v for _, v in sorted(trace)]
        assert all(a <= b + 1e-15 for a, b in zip(ordered, ordered[1:]))


def _outlier_box():
    """The box of one scenario whose values at step 7 hold one outlier."""
    values = (1.0, 2.0, 3.0, 4.0, 100.0)
    rows = [
        make_row(BASE_SCENARIO, rep, 7, mortality=v) for rep, v in enumerate(values)
    ]
    return notched_box(SweepDataset.from_rows(rows), "mortality", step=7)


def test_notched_box_small_oracle():
    boxes = _outlier_box()
    assert boxes.dtype == BOX_DTYPE
    assert scenarios_of(boxes) == [BASE_SCENARIO]
    (box,) = boxes
    assert box["median"] == 3.0
    assert (box["q1"], box["q3"]) == (2.0, 4.0)
    assert (box["whisker_low"], box["whisker_high"]) == (1.0, 4.0)
    assert box["outliers"] == (100.0,)
    half = 1.58 * 2.0 / np.sqrt(5)
    assert box["notch_low"] == pytest.approx(3.0 - half)
    assert box["notch_high"] == pytest.approx(3.0 + half)


def test_notched_box_requires_data_at_step(mini_dataset):
    with pytest.raises(DatasetError, match="no data at step"):
        notched_box(mini_dataset, "mortality", step=999)


def test_notched_box_per_scenario(mini_dataset):
    boxes = notched_box(mini_dataset, "cumulative_infected_share", step=15)
    assert scenarios_of(boxes) == sorted(mini_dataset.scenarios())
    for b in boxes:
        assert b["whisker_low"] <= b["q1"] <= b["median"] <= b["q3"] <= b["whisker_high"]


# -- aggregate serialization -------------------------------------------------


def test_quantiles_round_trip(tmp_path, mini_dataset):
    rows = quantile_series(mini_dataset, "mortality")
    path = tmp_path / "quantiles.csv"
    write_quantiles(rows, path)
    assert path.read_text().splitlines()[0] == ",".join(QUANTILE_COLUMNS)
    got = read_quantiles(path)
    assert got.dtype == rows.dtype == QUANTILE_DTYPE
    assert got.tolist() == rows.tolist()


def test_boxes_round_trip(tmp_path, mini_dataset):
    rows = np.concatenate([notched_box(mini_dataset, "mortality", step=15), _outlier_box()])
    assert [len(outliers) for outliers in rows["outliers"]] == [0, 0, 0, 0, 1]
    path = tmp_path / "boxes.csv"
    write_boxes(rows, path)
    assert path.read_text().splitlines()[0] == ",".join(BOX_COLUMNS)
    got = read_boxes(path)
    assert got.dtype == rows.dtype == BOX_DTYPE
    assert got.tolist() == rows.tolist()


def test_boxes_round_trip_with_outliers(tmp_path):
    boxes = _outlier_box()
    assert boxes["outliers"][0] == (100.0,)
    path = tmp_path / "boxes.csv"
    write_boxes(boxes, path)
    got = read_boxes(path)
    assert got.dtype == boxes.dtype == BOX_DTYPE
    assert got.tolist() == boxes.tolist()


# each edit breaks the data line at file line 5, the last of four boxes
@pytest.mark.parametrize(
    "edit",
    [
        _cell_edit("outliers", "1.0;nan", BOX_COLUMNS),
        _cell_edit("outliers", "1.0;x", BOX_COLUMNS),
        # Python's float() would read this as 10.0; no float cell may
        _cell_edit("outliers", "1.0;1_0", BOX_COLUMNS),
        _cell_edit("outliers", "1.0\x00", BOX_COLUMNS),
        lambda line: line.rsplit(",", 1)[0],
    ],
    ids=["outlier-nan", "outlier-text", "outlier-underscore", "nul", "short"],
)
@pytest.mark.parametrize("blank_before", [False, True])
def test_read_boxes_names_the_rejected_line(tmp_path, mini_dataset, edit, blank_before):
    path = tmp_path / "boxes.csv"
    write_boxes(notched_box(mini_dataset, "mortality", step=15), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 5
    lines[4] = edit(lines[4])
    if blank_before:
        lines.insert(2, "")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match=f"^line {6 if blank_before else 5}: "):
        read_boxes(path)


@pytest.mark.parametrize("existing", [None, "an earlier dataset\n"], ids=["new", "existing"])
def test_stopped_write_leaves_the_path_as_it_was(tmp_path, monkeypatch, mini_dataset, existing):
    path = tmp_path / "dataset.csv"
    if existing is not None:
        path.write_text(existing)
    full_text = montecarlo._table_text

    def stops_after_one_block(table, split):
        yield next(full_text(table, split))
        raise RuntimeError("stopped")

    monkeypatch.setattr(montecarlo, "_table_text", stops_after_one_block)
    with pytest.raises(RuntimeError, match="stopped"):
        write_dataset(mini_dataset, path)
    if existing is None:
        assert not path.exists()
    else:
        assert path.read_text() == existing
    assert not list(tmp_path.glob("*.partial"))


def test_interrupted_write_removes_its_partial_file(tmp_path):
    def interrupted():
        yield "a first line\n"
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_atomically(tmp_path / "out.csv", interrupted())
    assert list(tmp_path.iterdir()) == []


def test_manifest_lists_every_replication(tmp_path, mini_grid):
    path = tmp_path / "manifest.csv"
    write_manifest(mini_grid, path)
    lines = path.read_text().splitlines()
    assert lines[0].endswith(",replication,seed")
    assert len(lines) == 1 + 4 * 2
    first = lines[1].split(",")
    expected = replication_seed(42, mini_grid.scenarios()[0], 0)
    assert first[-2:] == ["0", str(expected)]
