"""Replicated runs over parameter grids and their aggregation statistics.

A sweep expands a parameter grid into scenarios (cartesian product over
mutation probability, the two cross-immunity strengths, isolation, and
social distancing), runs every scenario for a fixed number of
replications, and collects one MetricRow per simulation step.  Each
replication's seed is derived from the base seed and the scenario
content, so results never depend on grid order, execution order, or the
number of worker processes.

The schema is declared once: ``SCENARIO_FIELDS`` are the fields of
``Scenario``, ``CSV_COLUMNS`` the fields of ``MetricRow`` (which extends
``Scenario``), and ``METRIC_FIELDS`` a slice of them; the aggregation
tables' columns are the scenario fields plus those of their row types.

Aggregation is pure: per-step empirical quantile bands and notched box
statistics computed across replications.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
import multiprocessing
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .abm import init_world, run
from .params import SimParams, parse_scalar, validate_params
from .phylo import active_variant_stats
from .rng import derive_seed


class DatasetError(ValueError):
    """Malformed dataset file or an aggregation request it cannot serve."""


DEFAULT_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


@dataclass(frozen=True, order=True)
class Scenario:
    """One cell of the sweep grid: the varied parameters only."""

    mutation_prob: float
    cross_immunity: float
    cross_protection: float
    isolate_symptomatic: bool
    social_distancing: float

    def key(self) -> str:
        """Canonical scenario string; replication seeds hash this, so the
        format is load-bearing and must stay stable."""
        cells = _scenario_cells(self)
        return ",".join(f"{name}={text}" for name, text in zip(SCENARIO_FIELDS, cells))

    def apply(self, base: SimParams) -> SimParams:
        return dataclasses.replace(base, **{name: getattr(self, name) for name in SCENARIO_FIELDS})

    @staticmethod
    def from_params(p: SimParams) -> "Scenario":
        return Scenario(*(getattr(p, name) for name in SCENARIO_FIELDS))


SCENARIO_FIELDS = tuple(f.name for f in dataclasses.fields(Scenario))


@dataclass(frozen=True)
class MetricRow(Scenario):
    """Per-step observables of one replication, after its scenario fields."""

    replication: int
    step: int
    share_infected: float
    mortality: float
    cumulative_infected_share: float
    mean_r0: float
    mean_adapted_ratio: float
    max_antigenic_distance: int
    mean_phylo_distance: float
    mean_infectiousness: float
    mean_latent_end: float
    mean_incubation_end: float
    mean_duration: float
    mean_symptomatic_chance: float
    mean_fatality: float
    active_variant_count: int
    extinct: bool

    @property
    def scenario(self) -> Scenario:
        return Scenario(*(getattr(self, name) for name in SCENARIO_FIELDS))


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(MetricRow))
METRIC_FIELDS = CSV_COLUMNS[CSV_COLUMNS.index("step") + 1 : CSV_COLUMNS.index("extinct")]


def metric_row(w, scenario: Scenario, replication: int) -> MetricRow:
    """Observe a world after a step and freeze the row."""
    n = w.params.n_agents
    stats = active_variant_stats(w)
    return MetricRow(
        **vars(scenario),
        replication=replication,
        step=w.step_index,
        share_infected=w.n_infected / n,
        mortality=w.cum_deaths / n,
        cumulative_infected_share=int(w.ever_infected.sum()) / n,
        mean_r0=stats.mean_r0,
        mean_adapted_ratio=stats.mean_adapted_ratio,
        max_antigenic_distance=stats.max_antigenic_distance,
        mean_phylo_distance=stats.mean_phylo_depth,
        mean_infectiousness=stats.mean_infectiousness,
        mean_latent_end=stats.mean_latent_end,
        mean_incubation_end=stats.mean_incubation_end,
        mean_duration=stats.mean_duration,
        mean_symptomatic_chance=stats.mean_symptomatic_chance,
        mean_fatality=stats.mean_fatality,
        active_variant_count=stats.n_variants if not stats.extinct else 0,
        extinct=w.n_infected == 0,
    )


def _stamped(row: MetricRow, step: int) -> MetricRow:
    """``row`` at another step.  A shallow copy: ``dataclasses.replace`` re-runs
    the frozen ``__init__`` over all 22 fields and takes 2.5 times as long."""
    stamped = copy.copy(row)
    object.__setattr__(stamped, "step", step)
    return stamped


def collect_world_run(w, replication: int = 0) -> list:
    """Advance a fresh world to its horizon, one MetricRow per step.

    An extinct world is frozen, so every row after the first extinct one
    is that row stamped with its own ``step``, not observed again.
    """
    scenario = Scenario.from_params(w.params)
    rows = []

    def observe(world):
        if rows and rows[-1].extinct:
            rows.append(_stamped(rows[-1], world.step_index))
        else:
            rows.append(metric_row(world, scenario, replication))

    run(w, callback=observe)
    return rows


# The sweep grid's value list for each scenario field, in field order.
_GRID_FIELD_OF = {
    "mutation_prob": "mutation_probs",
    "cross_immunity": "cross_immunities",
    "cross_protection": "cross_protections",
    "isolate_symptomatic": "isolations",
    "social_distancing": "distancings",
}


@dataclass(frozen=True)
class SweepGrid:
    """Base parameters plus per-dimension value lists."""

    base: SimParams
    mutation_probs: tuple = (0.0, 0.005, 0.01, 0.02)
    cross_immunities: tuple = (0.0, 0.5, 0.9)
    cross_protections: tuple = (0.9, 0.99)
    isolations: tuple = (False, True)
    distancings: tuple = (0.0, 0.2, 0.4, 0.5, 0.6, 0.8)
    replications: int = 100
    horizon: int = 500
    base_seed: int = 42

    def scenarios(self) -> list:
        axes = (getattr(self, plural) for plural in _GRID_FIELD_OF.values())
        return [Scenario(*combo) for combo in itertools.product(*axes)]


def validate_grid(g: SweepGrid) -> SweepGrid:
    for name, plural in _GRID_FIELD_OF.items():
        values = getattr(g, plural)
        if len(values) == 0:
            raise DatasetError(f"grid dimension {name} is empty")
        if len(set(values)) < len(values):
            raise DatasetError(f"grid dimension {name} lists a value twice")
    if g.replications < 1:
        raise DatasetError("replications must be >= 1")
    if g.horizon < 1:
        raise DatasetError("horizon must be >= 1")
    base = dataclasses.replace(g.base, horizon=g.horizon)
    for scenario in g.scenarios():
        validate_params(scenario.apply(base))
    return g


def grid_from_text(text: str, base: SimParams, replications: int = 100) -> SweepGrid:
    """Parse a grid file: the five sweep dimensions as comma-separated lists.

    Omitted dimensions collapse to the base parameter value.  Lines use
    ``key = v1, v2, ...`` with ``#`` comments; unknown or duplicate keys
    and values listed twice are errors.  Values parse as config values
    do, so ``-0.0`` reads as ``0.0``.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DatasetError(f"grid line {lineno}: expected key=value")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in _GRID_FIELD_OF:
            raise DatasetError(f"grid line {lineno}: unknown dimension {key!r}")
        if key in values:
            raise DatasetError(f"grid line {lineno}: duplicate dimension {key!r}")
        items = [cell.strip() for cell in rhs.split(",")]
        if not any(items):
            raise DatasetError(f"grid line {lineno}: empty value list")
        try:
            parsed = tuple(parse_scalar(key, cell) for cell in items if cell)
        except ValueError as exc:
            raise DatasetError(f"grid line {lineno}: bad value ({exc})") from exc
        if len(set(parsed)) < len(parsed):
            raise DatasetError(f"grid line {lineno}: {key!r} lists a value twice")
        values[key] = parsed
    fields = {
        plural: values.get(key, (getattr(base, key),)) for key, plural in _GRID_FIELD_OF.items()
    }
    return SweepGrid(
        base=base,
        replications=replications,
        horizon=base.horizon,
        base_seed=base.seed,
        **fields,
    )


def replication_seed(base_seed: int, scenario: Scenario, replication: int) -> int:
    return derive_seed(base_seed, scenario.key(), replication)


def _sweep_tasks(grid: SweepGrid):
    """Yield (canonical index, final SimParams, replication) per replication.

    A generator, so a large grid never holds one SimParams per task at once.
    """
    base = dataclasses.replace(grid.base, horizon=grid.horizon)
    pairs = itertools.product(grid.scenarios(), range(grid.replications))
    for index, (scenario, replication) in enumerate(pairs):
        seed = replication_seed(grid.base_seed, scenario, replication)
        yield index, dataclasses.replace(scenario.apply(base), seed=seed), replication


def _sweep_task(task):
    index, p, replication = task
    return index, collect_world_run(init_world(p), replication)


@dataclass(frozen=True)
class SweepDataset:
    """All metric rows of one sweep, in canonical order."""

    rows: tuple

    def scenarios(self) -> list:
        return list(dict.fromkeys(row.scenario for row in self.rows))


def validate_sweep(grid: SweepGrid, jobs: int) -> SweepGrid:
    """Return ``grid`` unchanged if it can be swept by ``jobs`` workers."""
    if jobs < 1:
        raise DatasetError(f"jobs must be >= 1, got {jobs}")
    return validate_grid(grid)


def sweep(grid: SweepGrid, jobs: int = 1, progress=None) -> SweepDataset:
    """Run the full grid; ``jobs`` workers never change the result.

    Rows come back sorted by (scenario ordinal, replication, step).
    ``progress`` is called after each finished replication with
    (done, total).
    """
    validate_sweep(grid, jobs)
    total = len(grid.scenarios()) * grid.replications
    chunks = [None] * total

    def collect(results):
        for done, (index, rows) in enumerate(results, start=1):
            chunks[index] = rows
            if progress is not None:
                progress(done, total)

    if jobs == 1:
        collect(map(_sweep_task, _sweep_tasks(grid)))
    else:
        with multiprocessing.Pool(processes=jobs) as pool:
            collect(pool.imap_unordered(_sweep_task, _sweep_tasks(grid)))
    return SweepDataset(rows=tuple(itertools.chain.from_iterable(chunks)))


# -- serialization ----------------------------------------------------------


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _scenario_cells(scenario: Scenario) -> list:
    return [_format_value(getattr(scenario, name)) for name in SCENARIO_FIELDS]


def _write_table(path, columns, lines) -> None:
    """Write a header of ``columns``, then one line per sequence of cells."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for cells in lines:
            fh.write(",".join(cells) + "\n")


def write_dataset(ds: SweepDataset, path) -> None:
    _write_table(
        path,
        CSV_COLUMNS,
        ([_format_value(getattr(row, name)) for name in CSV_COLUMNS] for row in ds.rows),
    )


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(text)


# One cell parser per dataset column, chosen by the MetricRow field's type.
_PARSERS = tuple(
    {"bool": _parse_bool, "int": int, "float": float}[f.type]
    for f in dataclasses.fields(MetricRow)
)


def _read_table(path, columns, parse) -> list:
    """``parse(cells)`` of every non-blank line under an exact ``columns`` header."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header.split(",") != list(columns):
            raise DatasetError(f"table header mismatch: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != len(columns):
                raise DatasetError(f"line {lineno}: expected {len(columns)} cells")
            try:
                rows.append(parse(cells))
            except ValueError as exc:
                raise DatasetError(f"line {lineno}: bad cell value {exc}") from exc
    return rows


def _parse_metric_row(cells) -> MetricRow:
    return MetricRow(*(parse(cell) for parse, cell in zip(_PARSERS, cells)))


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite {text!r}")
    return value


# Aggregation tables hold only finite numbers: their scenario floats come
# from validated parameters and their statistics from finite groups.
_SCENARIO_PARSERS = tuple(
    _finite if parse is float else parse for parse in _PARSERS[: len(SCENARIO_FIELDS)]
)


def _parse_scenario(cells) -> Scenario:
    return Scenario(*(parse(cell) for parse, cell in zip(_SCENARIO_PARSERS, cells)))


def read_dataset(path) -> SweepDataset:
    """Parse a dataset CSV, enforcing the exact fixed schema."""
    return SweepDataset(rows=tuple(_read_table(path, CSV_COLUMNS, _parse_metric_row)))


# -- aggregation -------------------------------------------------------------


@dataclass(frozen=True)
class QuantileRow:
    scenario: Scenario
    step: int
    quantile: float
    value: float


@dataclass(frozen=True)
class BoxStats:
    scenario: Scenario
    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    notch_low: float
    notch_high: float
    outliers: tuple


def _metric_groups(ds: SweepDataset, metric: str):
    if metric not in METRIC_FIELDS:
        raise DatasetError(f"unknown metric {metric!r}")
    groups: dict = {}
    for row in ds.rows:
        per_step = groups.setdefault(row.scenario, {})
        per_step.setdefault(row.step, []).append(float(getattr(row, metric)))
    return groups


def _group_values(per_step: dict, step: int, metric: str) -> np.ndarray:
    """One aggregation group's values; a nan or inf would corrupt its statistics."""
    values = np.asarray(per_step[step])
    if not np.isfinite(values).all():
        raise DatasetError(f"non-finite {metric} value at step {step}")
    return values


def quantile_series(
    ds: SweepDataset, metric: str, quantiles: Sequence[float] = DEFAULT_QUANTILES
) -> list:
    """Per-scenario, per-step empirical quantiles across replications.

    Quantiles use linear interpolation between order statistics.  Output
    ordering is canonical (sorted scenarios, then step, then the given
    quantile order), independent of row order in the dataset.
    """
    for q in quantiles:
        if not 0.0 <= q <= 1.0:
            raise DatasetError(f"quantile {q} out of [0,1]")
    groups = _metric_groups(ds, metric)
    out = []
    for scenario in sorted(groups):
        per_step = groups[scenario]
        for step in sorted(per_step):
            values = _group_values(per_step, step, metric)
            levels = np.quantile(values, np.asarray(quantiles), method="linear")
            for q, value in zip(quantiles, levels):
                out.append(QuantileRow(scenario, step, float(q), float(value)))
    return out


def notched_box(ds: SweepDataset, metric: str, step: int) -> list:
    """Box statistics per scenario at one step.

    Whiskers sit on the most extreme data within 1.5 IQR of the box;
    values beyond them are listed as outliers.  The notch half-width is
    1.58 IQR / sqrt(n).
    """
    groups = _metric_groups(ds, metric)
    out = []
    for scenario in sorted(groups):
        per_step = groups[scenario]
        if step not in per_step:
            raise DatasetError(f"no data at step {step}")
        values = _group_values(per_step, step, metric)
        q1, median, q3 = (float(v) for v in np.quantile(values, [0.25, 0.5, 0.75]))
        iqr = q3 - q1
        low_fence = q1 - 1.5 * iqr
        high_fence = q3 + 1.5 * iqr
        inside = values[(values >= low_fence) & (values <= high_fence)]
        whisker_low = float(inside.min())
        whisker_high = float(inside.max())
        half_notch = 1.58 * iqr / np.sqrt(values.size)
        outliers = values[(values < whisker_low) | (values > whisker_high)]
        out.append(
            BoxStats(
                scenario=scenario,
                median=median,
                q1=q1,
                q3=q3,
                whisker_low=whisker_low,
                whisker_high=whisker_high,
                notch_low=float(median - half_notch),
                notch_high=float(median + half_notch),
                outliers=tuple(sorted(float(v) for v in outliers)),
            )
        )
    return out


def _table_columns(row_type) -> tuple:
    """The scenario fields, then the fields of ``row_type`` after its scenario."""
    return SCENARIO_FIELDS + tuple(f.name for f in dataclasses.fields(row_type))[1:]


QUANTILE_COLUMNS = _table_columns(QuantileRow)
BOX_COLUMNS = _table_columns(BoxStats)
_BOX_STATS = BOX_COLUMNS[len(SCENARIO_FIELDS) : -1]


def write_quantiles(rows: Sequence[QuantileRow], path) -> None:
    _write_table(
        path,
        QUANTILE_COLUMNS,
        (
            _scenario_cells(row.scenario) + [str(row.step), repr(row.quantile), repr(row.value)]
            for row in rows
        ),
    )


def write_boxes(rows: Sequence[BoxStats], path) -> None:
    _write_table(
        path,
        BOX_COLUMNS,
        (
            _scenario_cells(row.scenario)
            + [repr(getattr(row, name)) for name in _BOX_STATS]
            + [";".join(repr(v) for v in row.outliers)]
            for row in rows
        ),
    )


def read_quantiles(path) -> list:
    n = len(SCENARIO_FIELDS)
    return _read_table(
        path,
        QUANTILE_COLUMNS,
        lambda cells: QuantileRow(
            _parse_scenario(cells), int(cells[n]), _finite(cells[n + 1]), _finite(cells[n + 2])
        ),
    )


def read_boxes(path) -> list:
    n = len(SCENARIO_FIELDS)
    return _read_table(
        path,
        BOX_COLUMNS,
        lambda cells: BoxStats(
            _parse_scenario(cells),
            *(_finite(cell) for cell in cells[n:-1]),
            outliers=tuple(_finite(cell) for cell in cells[-1].split(";") if cell),
        ),
    )


def write_manifest(grid: SweepGrid, path) -> None:
    """One line per scenario and replication with its derived seed."""
    _write_table(
        path,
        SCENARIO_FIELDS + ("replication", "seed"),
        (
            _scenario_cells(scenario)
            + [str(replication), str(replication_seed(grid.base_seed, scenario, replication))]
            for scenario in grid.scenarios()
            for replication in range(grid.replications)
        ),
    )
