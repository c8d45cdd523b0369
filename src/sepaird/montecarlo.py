"""Replicated runs over parameter grids and their aggregation statistics.

A sweep expands a parameter grid into scenarios (cartesian product over
mutation probability, the two cross-immunity strengths, isolation, and
social distancing), runs every scenario for a fixed number of
replications, and collects one MetricRow per simulation step.  Each
replication's seed is derived from the base seed and the scenario
content, so results never depend on grid order, execution order, or the
number of worker processes.

Aggregation is pure: per-step empirical quantile bands and notched box
statistics computed across replications.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .abm import init_world, run
from .params import SimParams, validate_params
from .phylo import active_variant_stats
from .rng import derive_seed


class DatasetError(ValueError):
    """Malformed dataset file or an aggregation request it cannot serve."""


SCENARIO_FIELDS = (
    "mutation_prob",
    "cross_immunity",
    "cross_protection",
    "isolate_symptomatic",
    "social_distancing",
)

METRIC_FIELDS = (
    "share_infected",
    "mortality",
    "cumulative_infected_share",
    "mean_r0",
    "mean_adapted_ratio",
    "max_antigenic_distance",
    "mean_phylo_distance",
    "mean_infectiousness",
    "mean_latent_end",
    "mean_incubation_end",
    "mean_duration",
    "mean_symptomatic_chance",
    "mean_fatality",
    "active_variant_count",
)

CSV_COLUMNS = SCENARIO_FIELDS + ("replication", "step") + METRIC_FIELDS + ("extinct",)

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
        parts = []
        for name in SCENARIO_FIELDS:
            value = getattr(self, name)
            text = _format_value(value)
            parts.append(f"{name}={text}")
        return ",".join(parts)

    def apply(self, base: SimParams) -> SimParams:
        return dataclasses.replace(
            base,
            mutation_prob=self.mutation_prob,
            cross_immunity=self.cross_immunity,
            cross_protection=self.cross_protection,
            isolate_symptomatic=self.isolate_symptomatic,
            social_distancing=self.social_distancing,
        )

    @staticmethod
    def from_params(p: SimParams) -> "Scenario":
        return Scenario(*(getattr(p, name) for name in SCENARIO_FIELDS))


@dataclass(frozen=True)
class MetricRow:
    """Per-step observables of one replication."""

    mutation_prob: float
    cross_immunity: float
    cross_protection: float
    isolate_symptomatic: bool
    social_distancing: float
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


def metric_row(w, scenario: Scenario, replication: int) -> MetricRow:
    """Observe a world after a step and freeze the row."""
    n = w.params.n_agents
    stats = active_variant_stats(w)
    return MetricRow(
        mutation_prob=scenario.mutation_prob,
        cross_immunity=scenario.cross_immunity,
        cross_protection=scenario.cross_protection,
        isolate_symptomatic=scenario.isolate_symptomatic,
        social_distancing=scenario.social_distancing,
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


def collect_world_run(w, replication: int = 0) -> list:
    """Advance a fresh world to its horizon, one MetricRow per step."""
    scenario = Scenario.from_params(w.params)
    rows = []
    run(w, callback=lambda world: rows.append(metric_row(world, scenario, replication)))
    return rows


def collect_run(p: SimParams, replication: int = 0) -> list:
    return collect_world_run(init_world(p), replication)


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
        return [
            Scenario(*combo)
            for combo in itertools.product(
                self.mutation_probs,
                self.cross_immunities,
                self.cross_protections,
                self.isolations,
                self.distancings,
            )
        ]


def validate_grid(g: SweepGrid) -> SweepGrid:
    lists = {
        "mutation_prob": g.mutation_probs,
        "cross_immunity": g.cross_immunities,
        "cross_protection": g.cross_protections,
        "isolate_symptomatic": g.isolations,
        "social_distancing": g.distancings,
    }
    for name, values in lists.items():
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


_GRID_FIELD_OF = {
    "mutation_prob": "mutation_probs",
    "cross_immunity": "cross_immunities",
    "cross_protection": "cross_protections",
    "isolate_symptomatic": "isolations",
    "social_distancing": "distancings",
}


def grid_from_text(text: str, base: SimParams, replications: int = 100) -> SweepGrid:
    """Parse a grid file: the five sweep dimensions as comma-separated lists.

    Omitted dimensions collapse to the base parameter value.  Lines use
    ``key = v1, v2, ...`` with ``#`` comments; unknown or duplicate keys
    and values listed twice are errors.  ``-0.0`` reads as ``0.0``: the two
    compare equal, so they must key and seed one scenario.
    """
    from .params import parse_scalar

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
        values[key] = tuple(0.0 if isinstance(v, float) and v == 0.0 else v for v in parsed)
    fields = {
        _GRID_FIELD_OF[key]: values.get(key, (getattr(base, key),))
        for key in _GRID_FIELD_OF
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


def run_replication(
    base: SimParams, scenario: Scenario, replication: int, base_seed: int, horizon: int
) -> list:
    p = dataclasses.replace(
        scenario.apply(base),
        horizon=horizon,
        seed=replication_seed(base_seed, scenario, replication),
    )
    return collect_run(p, replication)


def _sweep_task(args):
    grid, ordinal, replication = args
    scenario = grid.scenarios()[ordinal]
    rows = run_replication(grid.base, scenario, replication, grid.base_seed, grid.horizon)
    return ordinal, replication, rows


@dataclass(frozen=True)
class SweepDataset:
    """All metric rows of one sweep, in canonical order."""

    rows: tuple

    def scenarios(self) -> list:
        seen = []
        for row in self.rows:
            scenario = row.scenario
            if scenario not in seen:
                seen.append(scenario)
        return seen


def sweep(grid: SweepGrid, jobs: int = 1, progress=None) -> SweepDataset:
    """Run the full grid; ``jobs`` workers never change the result.

    Rows come back sorted by (scenario ordinal, replication, step).
    ``progress`` is called after each finished replication with
    (done, total).
    """
    if jobs < 1:
        raise DatasetError(f"jobs must be >= 1, got {jobs}")
    validate_grid(grid)
    scenario_list = grid.scenarios()
    tasks = [
        (grid, ordinal, replication)
        for ordinal in range(len(scenario_list))
        for replication in range(grid.replications)
    ]
    results = []
    if jobs == 1:
        for task in tasks:
            results.append(_sweep_task(task))
            if progress is not None:
                progress(len(results), len(tasks))
    else:
        with multiprocessing.Pool(processes=jobs) as pool:
            for result in pool.imap_unordered(_sweep_task, tasks):
                results.append(result)
                if progress is not None:
                    progress(len(results), len(tasks))
    results.sort(key=lambda item: (item[0], item[1]))
    rows = []
    for _, _, chunk in results:
        rows.extend(chunk)
    return SweepDataset(rows=tuple(rows))


# -- serialization ----------------------------------------------------------


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def format_row(row: MetricRow) -> str:
    return ",".join(_format_value(getattr(row, name)) for name in CSV_COLUMNS)


def write_dataset(ds: SweepDataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in ds.rows:
            fh.write(format_row(row) + "\n")


_BOOL_COLUMNS = {"isolate_symptomatic", "extinct"}
_INT_COLUMNS = {"replication", "step", "max_antigenic_distance", "active_variant_count"}


def _parse_cell(name: str, text: str):
    if name in _BOOL_COLUMNS:
        if text == "true":
            return True
        if text == "false":
            return False
        raise ValueError(text)
    if name in _INT_COLUMNS:
        return int(text)
    return float(text)


def read_dataset(path) -> SweepDataset:
    """Parse a dataset CSV, enforcing the exact fixed schema."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header.split(",") != list(CSV_COLUMNS):
            raise DatasetError(f"dataset header mismatch: {header!r}")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != len(CSV_COLUMNS):
                raise DatasetError(f"line {lineno}: expected {len(CSV_COLUMNS)} cells")
            try:
                values = {
                    name: _parse_cell(name, cell)
                    for name, cell in zip(CSV_COLUMNS, cells)
                }
            except ValueError as exc:
                raise DatasetError(f"line {lineno}: bad cell value {exc}") from exc
            rows.append(MetricRow(**values))
    return SweepDataset(rows=tuple(rows))


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
            values = np.asarray(per_step[step])
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
        values = np.asarray(per_step[step])
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


QUANTILE_COLUMNS = SCENARIO_FIELDS + ("step", "quantile", "value")
BOX_COLUMNS = SCENARIO_FIELDS + (
    "median",
    "q1",
    "q3",
    "whisker_low",
    "whisker_high",
    "notch_low",
    "notch_high",
    "outliers",
)


def write_quantiles(rows: Sequence[QuantileRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(QUANTILE_COLUMNS) + "\n")
        for row in rows:
            cells = [_format_value(getattr(row.scenario, f)) for f in SCENARIO_FIELDS]
            cells += [str(row.step), repr(row.quantile), repr(row.value)]
            fh.write(",".join(cells) + "\n")


def write_boxes(rows: Sequence[BoxStats], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(BOX_COLUMNS) + "\n")
        for row in rows:
            cells = [_format_value(getattr(row.scenario, f)) for f in SCENARIO_FIELDS]
            cells += [
                repr(row.median),
                repr(row.q1),
                repr(row.q3),
                repr(row.whisker_low),
                repr(row.whisker_high),
                repr(row.notch_low),
                repr(row.notch_high),
                ";".join(repr(v) for v in row.outliers),
            ]
            fh.write(",".join(cells) + "\n")


def _read_table(path, columns):
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
            yield lineno, cells


def _scenario_from_cells(cells, lineno):
    try:
        return Scenario(
            *(_parse_cell(name, cell) for name, cell in zip(SCENARIO_FIELDS, cells))
        )
    except ValueError as exc:
        raise DatasetError(f"line {lineno}: bad scenario value {exc}") from exc


def read_quantiles(path) -> list:
    rows = []
    for lineno, cells in _read_table(path, QUANTILE_COLUMNS):
        scenario = _scenario_from_cells(cells[:5], lineno)
        try:
            rows.append(QuantileRow(scenario, int(cells[5]), float(cells[6]), float(cells[7])))
        except ValueError as exc:
            raise DatasetError(f"line {lineno}: bad cell value {exc}") from exc
    return rows


def read_boxes(path) -> list:
    rows = []
    for lineno, cells in _read_table(path, BOX_COLUMNS):
        scenario = _scenario_from_cells(cells[:5], lineno)
        try:
            stats = [float(c) for c in cells[5:12]]
            outliers = tuple(float(c) for c in cells[12].split(";") if c)
        except ValueError as exc:
            raise DatasetError(f"line {lineno}: bad cell value {exc}") from exc
        rows.append(BoxStats(scenario, *stats, outliers=outliers))
    return rows


def write_manifest(grid: SweepGrid, path) -> None:
    """One line per scenario and replication with its derived seed."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(SCENARIO_FIELDS + ("replication", "seed")) + "\n")
        for scenario in grid.scenarios():
            for replication in range(grid.replications):
                seed = replication_seed(grid.base_seed, scenario, replication)
                cells = [_format_value(getattr(scenario, f)) for f in SCENARIO_FIELDS]
                cells += [str(replication), str(seed)]
                fh.write(",".join(cells) + "\n")
