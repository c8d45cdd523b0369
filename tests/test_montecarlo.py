import dataclasses
import itertools
import math
import multiprocessing
import os
import random
import time
import tracemalloc

import numpy as np
import pytest

from sepaird import montecarlo
from sepaird.abm import World, init_world, run
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
    _BLOCK,
    _replications,
    _sweep_task,
)
from sepaird.params import ConfigError, SimParams, parse_config_text
from sepaird.phylo import ActiveVariantSummary
from sepaird.rng import derive_seed
from sepaird.variants import PROP_NAMES
from test_golden import DEMO_DATASET, _ragged_copy

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
    return SweepDataset.from_tables(sweep(mini_grid))


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


def test_default_grid_file_spells_the_default_grid(base_params):
    path = os.path.join(os.path.dirname(os.path.dirname(DEMO_DATASET)), "default_grid.txt")
    with open(path, encoding="utf-8") as fh:
        grid = grid_from_text(fh.read(), base_params)
    assert grid == SweepGrid(base=base_params)
    assert len(grid.scenarios()) == 288


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
    again = SweepDataset.from_tables(sweep(mini_grid))
    assert again.rows == mini_dataset.rows


def test_sweep_workers_do_not_change_rows(mini_grid, mini_dataset):
    parallel = SweepDataset.from_tables(sweep(mini_grid, jobs=2))
    assert parallel.rows == mini_dataset.rows


def test_sweep_task_returns_one_table_block(mini_grid):
    # workers send numpy blocks, so no MetricRow is pickled across the pool;
    # this replication never dies out, so every row is observed
    block = _sweep_task(mini_grid.base, next(_replications(mini_grid)))
    assert block.dtype == DATASET_DTYPE
    assert block["step"].tolist() == list(range(1, mini_grid.horizon + 1))


# every replication of this grid dies out inside the horizon
DYING_GRID = SweepGrid(
    base=SimParams(n_agents=500, horizon=150, seed=42),
    mutation_prob=(0.0, 0.05),
    cross_immunity=(0.9,),
    cross_protection=(0.99,),
    isolate_symptomatic=(False,),
    social_distancing=(0.6, 0.8),
    replications=4,
)


def test_sweep_task_sends_only_the_observed_rows():
    grid = DYING_GRID
    blocks = list(sweep(grid))
    assert SweepDataset.from_tables(blocks).table.tobytes() == (
        SweepDataset.from_tables(sweep(grid, jobs=2)).table.tobytes()
    )
    sizes = []
    for block, task in zip(blocks, _replications(grid), strict=True):
        rows = _sweep_task(grid.base, task)
        scenario, replication, seed = task
        sizes.append(rows.size)
        # the rows up to the first extinct one, or to the horizon
        assert rows["step"].tolist() == list(range(1, rows.size + 1))
        assert not rows["extinct"][:-1].any()
        assert rows["extinct"][-1] or rows.size == grid.horizon
        # the sweep fills the rest as the whole run would
        p = dataclasses.replace(scenario.apply(grid.base), seed=seed)
        assert block.tobytes() == collect_world_run(init_world(p), replication).tobytes()
        assert block[: rows.size].tobytes() == rows.tobytes()
    assert max(sizes) < grid.horizon


# runs that die out early on a long horizon: a table of them dwarfs one world
STREAMED_GRID = SweepGrid(
    base=SimParams(n_agents=50, n_initial_infected=1, horizon=2000, seed=42),
    mutation_prob=(0.0,),
    cross_immunity=(0.5,),
    cross_protection=(0.99,),
    isolate_symptomatic=(False,),
    social_distancing=(0.8,),
    replications=8,
)


def test_sweep_writes_its_dataset_in_bounded_memory(tmp_path):
    grid = STREAMED_GRID
    path = tmp_path / "dataset.csv"
    # the first sweep of a process imports modules that would count too
    write_dataset(sweep(dataclasses.replace(grid, replications=1)), path)
    table = grid.replications * grid.horizon * DATASET_DTYPE.itemsize
    peaks = {}
    for replications in (8, 32):
        tracemalloc.start()
        try:
            write_dataset(sweep(dataclasses.replace(grid, replications=replications)), path)
            peaks[replications] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 0
    # the writer's buffer and one block of text, never the table
    assert max(peaks.values()) < table, (peaks, table)
    assert peaks[32] < 1.05 * peaks[8], peaks


def test_write_dataset_holds_one_text_block_at_a_time(tmp_path):
    # random cells, so no row repeats the one before and every cell is spelled
    rng = np.random.default_rng(3)
    table = np.zeros(4 * _BLOCK, dtype=DATASET_DTYPE)
    for name in DATASET_DTYPE.names:
        kind = DATASET_DTYPE[name].kind
        if kind == "b":
            table[name] = rng.random(len(table)) < 0.5
        elif kind == "i":
            table[name] = rng.integers(0, 10**6, len(table))
        else:
            table[name] = rng.random(len(table))
    path = tmp_path / "dataset.csv"
    write_dataset(SweepDataset(table), path)  # a first write may fill caches
    tracemalloc.start()
    try:
        write_dataset(SweepDataset(table), path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the text of 512 rows, as many as the writer formats at once; it holds
    # their cells as objects, their lines and the lines' joined string
    block_text = path.stat().st_size / len(table) * 512
    assert peak < 6 * block_text, (peak, block_text)


def test_closing_a_parallel_sweep_stops_its_workers(tmp_path):
    # mutating outbreaks that persist: about 0.2 CPU-s a replication, several
    # seconds for the grid
    grid = SweepGrid(
        base=SimParams(n_agents=3000, horizon=300, seed=42),
        mutation_prob=(0.02,),
        cross_immunity=(0.5,),
        cross_protection=(0.99,),
        isolate_symptomatic=(False,),
        social_distancing=(0.0,),
        replications=48,
    )
    blocks = sweep(grid, jobs=2)
    path = tmp_path / "dataset.csv"

    def one_block():
        yield next(blocks)
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_dataset(one_block(), path)
    start = time.monotonic()
    blocks.close()
    assert time.monotonic() - start < 0.5
    assert multiprocessing.active_children() == []
    assert list(tmp_path.iterdir()) == []


def test_sweep_progress_callback(mini_grid):
    short = dataclasses.replace(mini_grid, base=dataclasses.replace(mini_grid.base, horizon=3))
    for jobs in (1, 2):
        # one tick per block, once the block is taken, in canonical order
        events = []
        blocks = sweep(short, jobs=jobs, progress=lambda done, total: events.append((done, total)))
        for block in blocks:
            events.append(block["replication"].tolist())
        assert events == [e for i in range(8) for e in ([i % 2] * 3, (i + 1, 8))]



@pytest.fixture
def world_steps(monkeypatch):
    """One entry per ``World.step`` call from now on."""
    steps = []
    step = World.step
    monkeypatch.setattr(World, "step", lambda self: steps.append(self) or step(self))
    return steps


@pytest.mark.parametrize("seed,extinct_at", [(2, None), (9, 24), (11, 40)])
def test_collect_world_run_matches_observing_every_step(seed, extinct_at, world_steps):
    # seeds 9 and 11 mutate and drift before they die out; seed 2 survives
    p = SimParams(n_agents=400, n_initial_infected=5, mutation_prob=0.2, drift_prob=0.5,
                  social_distancing=0.7, horizon=80, seed=seed)
    w = init_world(p)
    block = collect_world_run(w, replication=3)
    # the world is stepped through its first extinct row only, yet finished
    assert len(world_steps) == (extinct_at or p.horizon) and w.step_index == p.horizon
    # no memo: the reference summarises the variants afresh at every step
    reference = []
    run(init_world(p), callback=lambda w: reference.append(MetricRow(*metric_row(w, 3))))
    assert block.dtype == DATASET_DTYPE
    assert block.tobytes() == SweepDataset.from_rows(reference).table.tobytes()
    extinct = block["step"][block["extinct"]].tolist()
    assert extinct[:1] == ([extinct_at] if extinct_at else [])
    assert len(extinct) == (p.horizon - extinct_at + 1 if extinct_at else 0)


def test_collect_world_run_without_infections_steps_once(world_steps):
    p = SimParams(n_agents=100, n_initial_infected=0, horizon=30, seed=1)
    block = collect_world_run(init_world(p))
    assert len(world_steps) == 1
    assert block["extinct"].all() and block["step"].tolist() == list(range(1, 31))


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
    # the rows as tables of uneven sizes, one of them empty, cut inside runs,
    # between the two zeros and on either side of the blocks' edges
    cuts = [0, 1, 6, 9, 4095, 4096, 4096, 4097, 5000, 8191, len(table)]
    pieces = tmp_path / "pieces.csv"
    write_dataset((table[a:b] for a, b in zip(cuts, cuts[1:])), pieces)
    assert pieces.read_bytes() == path.read_bytes()


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


def test_read_dataset_names_a_late_bad_line_in_few_parses(tmp_path, mini_dataset, monkeypatch):
    # two full blocks and a few lines, only the last of them at fault
    n_rows = 2 * _BLOCK + 5
    table = np.resize(mini_dataset.table, n_rows)
    path = tmp_path / "dataset.csv"
    write_dataset(SweepDataset(table), path)
    lines = path.read_text().splitlines()
    lines[-1] = _cell_edit("extinct", "perhaps")(lines[-1])
    path.write_text("\n".join(lines) + "\n")
    calls = []
    parse = montecarlo._parse_lines
    monkeypatch.setattr(
        montecarlo, "_parse_lines", lambda *args: calls.append(1) or parse(*args)
    )
    with pytest.raises(DatasetError, match=f"^line {n_rows + 1}: extinct is not true or false"):
        read_dataset(path)
    # one parse per block, then one per line of the rejected third block
    assert len(calls) == 3 + 5


@pytest.mark.parametrize(
    "edit,message",
    [
        (_cell_edit("extinct", "true\x00"), "NUL character"),
        (_cell_edit("mutation_prob", "nan"), "non-finite mutation_prob nan"),
    ],
    ids=["nul", "nan"],
)
def test_read_dataset_names_a_bad_line_in_a_later_block(tmp_path, mini_dataset, edit, message):
    path = tmp_path / "dataset.csv"
    write_dataset(SweepDataset(np.resize(mini_dataset.table, 2 * _BLOCK + 50)), path)
    lines = path.read_text().splitlines()
    lines[2 * _BLOCK + 20] = edit(lines[2 * _BLOCK + 20])
    # blank lines in the first and the second block: skipped, but counted
    lines.insert(_BLOCK + 10, "")
    lines.insert(10, "")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match=f"^line {2 * _BLOCK + 23}: {message}$"):
        read_dataset(path)


def test_read_dataset_joins_blocks_into_the_table_written(tmp_path, mini_dataset):
    table = np.resize(mini_dataset.table, 2 * _BLOCK + 5)
    path = tmp_path / "dataset.csv"
    write_dataset(SweepDataset(table), path)
    read = read_dataset(path).table
    assert read.dtype == DATASET_DTYPE
    assert read.tobytes() == table.tobytes()


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


@pytest.fixture(scope="module", params=["demo", "ragged"])
def full_read(request, tmp_path_factory):
    """A dataset path, the demo dataset or its ragged and shuffled copy,
    and its full read."""
    path = DEMO_DATASET
    if request.param == "ragged":
        path = tmp_path_factory.mktemp("ragged") / "dataset.csv"
        _ragged_copy(path)
    return path, read_dataset(path)


def _box_bytes(boxes):
    """The bytes of a box table's number fields, then the spelling of its outliers."""
    numbers = [name for name in BOX_COLUMNS if name != "outliers"]
    return np.array(boxes[numbers]).tobytes() + repr(boxes["outliers"].tolist()).encode()


@pytest.mark.parametrize("metric", METRIC_FIELDS)
def test_metric_read_keeps_only_what_its_aggregation_reads(full_read, metric):
    path, full = full_read
    narrow = read_dataset(path, metric)
    kept = (*SCENARIO_FIELDS, "step", metric)
    assert narrow.table.dtype.names == kept
    for name in kept:
        assert narrow.table[name].tobytes() == full.table[name].tobytes()
    got, expected = quantile_series(narrow, metric), quantile_series(full, metric)
    assert got.tobytes() == expected.tobytes()
    steps = full.table["step"]
    for step in (steps.min(), steps.max()):
        got, expected = notched_box(narrow, metric, step), notched_box(full, metric, step)
        assert _box_bytes(got) == _box_bytes(expected)


def test_read_dataset_rejects_an_unknown_metric():
    with pytest.raises(DatasetError, match="unknown metric 'step'"):
        read_dataset(DEMO_DATASET, "step")


# at least 10^6 rows: the 3,000 demo rows repeated
MEMORY_ROWS = 10**6


def test_metric_read_holds_a_small_multiple_of_its_kept_columns(tmp_path):
    with open(DEMO_DATASET, encoding="utf-8") as fh:
        header, *body = fh.readlines()
    path = tmp_path / "dataset.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for _ in range(-(-MEMORY_ROWS // len(body))):
            fh.writelines(body)
    # the first read and aggregation of a process import modules that would count too
    quantile_series(read_dataset(DEMO_DATASET, "mortality"), "mortality")
    tracemalloc.start()
    try:
        dataset = read_dataset(path, "mortality")
        quantile_series(dataset, "mortality")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dataset.table) >= MEMORY_ROWS
    # the full table would be 3.3 times the kept columns
    assert peak < 3 * dataset.table.nbytes


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


@pytest.mark.parametrize("shuffled", [False, True])
def test_notched_box_requires_every_scenario_at_step(shuffled):
    # the other scenario's rows stop at step 2, and the first one's -0.0
    # rows are the same scenario as its 0.0 rows
    other = dataclasses.replace(BASE_SCENARIO, social_distancing=0.5)
    signed = dataclasses.replace(BASE_SCENARIO, social_distancing=-0.0)
    rows = [make_row(BASE_SCENARIO, rep, step) for rep in range(3) for step in (1, 2, 3)]
    rows += [make_row(signed, 3, step) for step in (1, 2, 3)]
    rows += [make_row(other, rep, step) for rep in range(3) for step in (1, 2)]
    if shuffled:
        random.Random(5).shuffle(rows)
    dataset = SweepDataset.from_rows(rows)
    assert len(notched_box(dataset, "mortality", step=2)) == 2
    with pytest.raises(DatasetError, match="no data at step 3"):
        notched_box(dataset, "mortality", step=3)


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
