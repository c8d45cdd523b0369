"""Replicated runs over parameter grids and their aggregation statistics.

A sweep expands a parameter grid into scenarios (cartesian product over
mutation probability, the two cross-immunity strengths, isolation, and
social distancing), runs every scenario for a fixed number of
replications, and collects one row of metrics per simulation step.  Each
replication's seed is derived from the base seed and the scenario
content, so results never depend on grid order, execution order, or the
number of worker processes.

A replication fills its own block of the dataset table.  Its steps are
observed up to the first extinct one, reusing the active-variant summary
while the variant set it describes is unchanged; the frozen steps after
extinction are filled at the end with copies of that row.  The writer
formats the cells on either side of ``step`` once per run of rows whose
bytes on that side are equal.

The schema is declared once: ``SCENARIO_FIELDS`` are the fields of
``Scenario``, ``CSV_COLUMNS`` the fields of ``MetricRow`` (which extends
``Scenario``), and ``METRIC_FIELDS`` a slice of them; the aggregation
tables' columns are the scenario fields plus those of their row types.
A dataset is one numpy structured array with a field per CSV column,
typed float64, int64 or bool after the ``MetricRow`` field; its
``MetricRow`` objects are built only on request.  Reading parses the CSV
in one call and rejects a malformed line, or a non-finite scenario cell,
with its line number.

Aggregation is pure: per-step empirical quantile bands and notched box
statistics computed across replications, grouped by one sort of the
table.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import multiprocessing
import operator
import warnings
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


def _table_columns(row_type) -> tuple:
    """The scenario fields, then the fields of ``row_type`` after its scenario."""
    return SCENARIO_FIELDS + tuple(f.name for f in dataclasses.fields(row_type))[1:]


QUANTILE_COLUMNS = _table_columns(QuantileRow)
BOX_COLUMNS = _table_columns(BoxStats)
_BOX_STATS = BOX_COLUMNS[len(SCENARIO_FIELDS) : -1]


# the type name of every column of the dataset and quantile tables
_FIELD_TYPES = {
    f.name: f.type for row_type in (MetricRow, QuantileRow) for f in dataclasses.fields(row_type)
}


def metric_row(w, scenario: Scenario, replication: int, memo: dict | None = None) -> MetricRow:
    """Observe a world after a step and freeze the row; ``memo`` is passed
    to ``active_variant_stats``."""
    n = w.params.n_agents
    stats = active_variant_stats(w, memo)
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


def collect_world_run(w, replication: int = 0) -> np.ndarray:
    """Advance a fresh world to its horizon: one ``DATASET_DTYPE`` row per step.

    Steps are observed by ``metric_row``, which reuses the variant summary
    while the variant set is unchanged, up to the first extinct row.  An
    extinct world is frozen, so the rows after that one are filled once
    the run has ended: copies of it, each with its own ``step``.
    """
    scenario = Scenario.from_params(w.params)
    first_step = w.step_index
    block = np.empty(w.params.horizon - first_step, dtype=DATASET_DTYPE)
    memo = {}
    observed = 0
    extinct = False

    def observe(world):
        nonlocal observed, extinct
        if extinct:
            return
        row = metric_row(world, scenario, replication, memo)
        block[observed] = _row_values(row)
        observed += 1
        extinct = row.extinct

    run(w, callback=observe)
    if observed < block.size:
        block[observed:] = block[observed - 1]
        block["step"][observed:] = np.arange(first_step + observed + 1, first_step + block.size + 1)
    return block


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


# numpy type of a dataclass field type, and the type its CSV cell is parsed
# into first: a bool cell is read as text wider than "false", so that
# "falsey" cannot be cut down to "false", and is then checked
_NUMPY_TYPES = {"float": np.float64, "int": np.int64, "bool": np.bool_}
_CELL_TYPES = {**_NUMPY_TYPES, "bool": "U6"}


def _table_dtype(columns, types=_NUMPY_TYPES) -> np.dtype:
    return np.dtype([(name, types[_FIELD_TYPES[name]]) for name in columns])


DATASET_DTYPE = _table_dtype(CSV_COLUMNS)
_row_values = operator.attrgetter(*CSV_COLUMNS)


@dataclass(frozen=True, eq=False)
class SweepDataset:
    """All metric rows of one sweep as one structured array, ``DATASET_DTYPE``."""

    table: np.ndarray

    @staticmethod
    def from_rows(rows) -> "SweepDataset":
        return SweepDataset(np.array([_row_values(row) for row in rows], dtype=DATASET_DTYPE))

    @property
    def rows(self) -> tuple:
        return tuple(MetricRow(*values) for values in self.table.tolist())

    def scenarios(self) -> list:
        """The distinct scenarios in order of first appearance."""
        cells = self.table[list(SCENARIO_FIELDS)].tolist()
        return [Scenario(*values) for values in dict.fromkeys(cells)]


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
    blocks = [None] * total

    def collect(results):
        for done, (index, block) in enumerate(results, start=1):
            blocks[index] = block
            if progress is not None:
                progress(done, total)

    if jobs == 1:
        collect(map(_sweep_task, _sweep_tasks(grid)))
    else:
        with multiprocessing.Pool(processes=jobs) as pool:
            collect(pool.imap_unordered(_sweep_task, _sweep_tasks(grid)))
    return SweepDataset(np.concatenate(blocks))


# -- serialization ----------------------------------------------------------


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _scenario_cells(scenario: Scenario) -> tuple:
    return tuple(_format_value(getattr(scenario, name)) for name in SCENARIO_FIELDS)


def _write_table(path, columns, lines) -> None:
    """Write a header of ``columns``, then one line per sequence of cells."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for cells in lines:
            fh.write(",".join(cells) + "\n")


# rows formatted per block: a column formatted whole would hold one Python
# object per cell of the dataset at once
_WRITE_BLOCK = 4096
_CELL_FORMATS = {"float": repr, "int": str, "bool": ("false", "true").__getitem__}
_STEP = CSV_COLUMNS.index("step")
# the bytes of a dataset row before and after its step cell
_BEFORE_STEP = slice(0, DATASET_DTYPE.fields["step"][1])
_AFTER_STEP = slice(_BEFORE_STEP.stop + DATASET_DTYPE["step"].itemsize, DATASET_DTYPE.itemsize)


def _joined_cells(rows: np.ndarray, columns) -> map:
    """The cells of ``columns`` of each of ``rows``, formatted column by
    column and joined by commas."""
    formatted = (map(_CELL_FORMATS[_FIELD_TYPES[name]], rows[name].tolist()) for name in columns)
    return map(",".join, zip(*formatted))


def _new_runs(raw: np.ndarray, part: slice) -> np.ndarray:
    """Whether each row of the byte matrix ``raw`` differs from the row
    before it in the bytes ``part``; the first row always does."""
    new = np.ones(len(raw), dtype=bool)
    new[1:] = (raw[1:, part] != raw[:-1, part]).any(axis=1)
    return new


def _dataset_text(table: np.ndarray):
    """The CSV lines of ``table``, one string per block of rows.

    The cells before ``step`` are formatted once per run of rows whose
    bytes before it are equal, as they are within a replication, and the
    cells after it once per run equal after it, such as the rows of an
    extinct replication.  Every row formats its own ``step``.
    """
    head = tail = None
    for start in range(0, len(table), _WRITE_BLOCK):
        # with the row before, against which the block's first row is compared
        first = max(start - 1, 0)
        rows = np.array(table[first : start + _WRITE_BLOCK], dtype=DATASET_DTYPE)
        raw = rows.view(np.uint8).reshape(rows.size, DATASET_DTYPE.itemsize)
        new_head = _new_runs(raw, _BEFORE_STEP)[start - first :]
        new_tail = _new_runs(raw, _AFTER_STEP)[start - first :]
        rows = rows[start - first :]
        heads = [head, *_joined_cells(rows[new_head], CSV_COLUMNS[:_STEP])]
        tails = [tail, *_joined_cells(rows[new_tail], CSV_COLUMNS[_STEP + 1 :])]
        yield "".join(
            [
                f"{heads[h]},{step},{tails[t]}\n"
                for h, t, step in zip(
                    np.cumsum(new_head).tolist(), np.cumsum(new_tail).tolist(), rows["step"].tolist()
                )
            ]
        )
        head, tail = heads[-1], tails[-1]


def write_dataset(ds: SweepDataset, path) -> None:
    """Format the table column by column: ``repr`` for floats, ``str`` for
    ints and ``true``/``false`` for bools, as ``_format_value`` does.

    A row equal in bytes to the row before it on one side of ``step``
    reuses that row's cells on that side.  Bytes, not ``==``: a ``-0.0``
    after a ``0.0`` is formatted again.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.writelines(_dataset_text(ds.table))


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(text)


def _read_header(fh, columns) -> None:
    header = fh.readline().rstrip("\n")
    if header.split(",") != list(columns):
        raise DatasetError(f"table header mismatch: {header!r}")


def _read_table(path, columns, parse) -> list:
    """``parse(cells)`` of every non-blank line under an exact ``columns`` header."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        _read_header(fh, columns)
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


def _parse_lines(lines, columns, finite) -> np.ndarray:
    """The CSV data ``lines`` as one table of ``columns``, in one C-level parse.

    Blank lines are skipped.  Bool cells must read ``true`` or ``false``,
    the float columns in ``finite`` must be finite, and scenario floats
    read ``-0.0`` as ``0.0``.  Raises ValueError on the first violation.
    """
    with warnings.catch_warnings():
        # a dataset may hold no rows
        warnings.simplefilter("ignore", UserWarning)
        cells = np.loadtxt(
            lines, delimiter=",", comments=None, dtype=_table_dtype(columns, _CELL_TYPES), ndmin=1
        )
    table = np.empty(cells.shape, dtype=_table_dtype(columns))
    for name in columns:
        column = cells[name]
        if _FIELD_TYPES[name] == "bool":
            true = column == "true"
            bad = ~(true | (column == "false"))
            if bad.any():
                raise ValueError(f"{name} is not true or false")
            column = true
        elif name in finite:
            bad = ~np.isfinite(column)
            if bad.any():
                raise ValueError(f"non-finite {name} {float(column[bad][0])!r}")
            if name in SCENARIO_FIELDS:
                column = column + 0.0
        table[name] = column
    return table


def _holds_nul(path) -> bool:
    """Whether the file holds a NUL.  No cell may: a text cell drops
    trailing NULs, so ``true\\x00`` would parse as ``true``."""
    with open(path, "rb") as fh:
        # a NUL byte is a NUL character in UTF-8, and bytes search faster
        return any(b"\x00" in chunk for chunk in iter(functools.partial(fh.read, 1 << 20), b""))


def _read_columns(path, columns, finite) -> np.ndarray:
    """Every non-blank line under an exact ``columns`` header, parsed by
    ``_parse_lines``; a rejected file is parsed again, line by line, only to
    name the first line at fault.  A line that holds a NUL is rejected."""
    with open(path, "r", encoding="utf-8") as fh:
        _read_header(fh, columns)
        try:
            if _holds_nul(path):
                raise ValueError("NUL character")
            return _parse_lines(fh, columns, finite)
        except ValueError as exc:
            error = exc
        fh.seek(0)
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            try:
                if "\x00" in line:
                    raise ValueError("NUL character")
                _parse_lines([line], columns, finite)
            except ValueError as exc:
                # numpy's own position is within this one line
                raise DatasetError(f"line {lineno}: {str(exc).partition(' at row ')[0]}") from None
    raise DatasetError(f"bad table ({error})")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite {text!r}")
    return value


# Aggregation tables hold only finite numbers: their scenario floats come
# from validated parameters and their statistics from finite groups.
_SCENARIO_FLOATS = tuple(name for name in SCENARIO_FIELDS if _FIELD_TYPES[name] == "float")
_SCENARIO_PARSERS = tuple(
    {"bool": _parse_bool, "float": lambda text: _finite(text) + 0.0}[_FIELD_TYPES[name]]
    for name in SCENARIO_FIELDS
)


def _parse_scenario(cells) -> Scenario:
    return Scenario(*(parse(cell) for parse, cell in zip(_SCENARIO_PARSERS, cells)))


def read_dataset(path) -> SweepDataset:
    """Parse a dataset CSV, enforcing the exact fixed schema and finite
    scenario cells."""
    return SweepDataset(_read_columns(path, CSV_COLUMNS, _SCENARIO_FLOATS))


# -- aggregation -------------------------------------------------------------


def _groups(table: np.ndarray, keys) -> tuple:
    """The row order that sorts ``table`` by ``keys`` (stable, first key
    first) and the sorted position at which each run of equal keys starts."""
    order = np.lexsort([table[name] for name in reversed(keys)])
    new_group = np.zeros(order.size, dtype=bool)
    new_group[:1] = True
    for name in keys:
        column = table[name][order]
        new_group[1:] |= column[1:] != column[:-1]
    return order, np.flatnonzero(new_group)


def _metric_values(table: np.ndarray, metric: str, order: np.ndarray) -> np.ndarray:
    """``metric`` in ``order`` as floats; a nan or inf would corrupt its group's statistics."""
    if metric not in METRIC_FIELDS:
        raise DatasetError(f"unknown metric {metric!r}")
    values = table[metric][order].astype(np.float64)
    finite = np.isfinite(values)
    if not finite.all():
        step = table["step"][order[np.argmin(finite)]]
        raise DatasetError(f"non-finite {metric} value at step {step}")
    return values


def _group_quantiles(values: np.ndarray, starts: np.ndarray, levels) -> np.ndarray:
    """``levels`` of each group of sorted ``values``, one row per group start;
    one ``np.quantile`` call per distinct group size."""
    sizes = np.diff(starts, append=values.size)
    out = np.empty((starts.size, len(levels)))
    for size in np.unique(sizes):
        groups = np.flatnonzero(sizes == size)
        block = values[starts[groups, None] + np.arange(size)]
        out[groups] = np.quantile(block, levels, axis=1, method="linear").T
    return out


def _group_scenarios(table: np.ndarray, rows) -> list:
    """The scenario of each of ``rows``, one object per distinct scenario."""
    cells = table[list(SCENARIO_FIELDS)][rows].tolist()
    made = {key: Scenario(*key) for key in dict.fromkeys(cells)}
    return [made[key] for key in cells]


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
    table = ds.table
    order, starts = _groups(table, SCENARIO_FIELDS + ("step",))
    values = _metric_values(table, metric, order)
    levels = [float(q) for q in quantiles]
    firsts = order[starts]
    return [
        QuantileRow(scenario, step, q, value)
        for scenario, step, row in zip(
            _group_scenarios(table, firsts),
            table["step"][firsts].tolist(),
            _group_quantiles(values, starts, levels).tolist(),
        )
        for q, value in zip(levels, row)
    ]


def notched_box(ds: SweepDataset, metric: str, step: int) -> list:
    """Box statistics per scenario at one step.

    Whiskers sit on the most extreme data within 1.5 IQR of the box;
    values beyond them are listed as outliers.  The notch half-width is
    1.58 IQR / sqrt(n).
    """
    table = ds.table
    at_step = table[table["step"] == step]
    order, starts = _groups(at_step, SCENARIO_FIELDS)
    values = _metric_values(at_step, metric, order)
    if starts.size < _groups(table, SCENARIO_FIELDS)[1].size:
        raise DatasetError(f"no data at step {step}")
    quartiles = _group_quantiles(values, starts, [0.25, 0.5, 0.75]).tolist()
    out = []
    for scenario, group, (q1, median, q3) in zip(
        _group_scenarios(at_step, order[starts]), np.split(values, starts[1:]), quartiles
    ):
        iqr = q3 - q1
        low_fence = q1 - 1.5 * iqr
        high_fence = q3 + 1.5 * iqr
        inside = group[(group >= low_fence) & (group <= high_fence)]
        whisker_low = float(inside.min())
        whisker_high = float(inside.max())
        half_notch = 1.58 * iqr / np.sqrt(group.size)
        outliers = group[(group < whisker_low) | (group > whisker_high)]
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
                outliers=tuple(sorted(outliers.tolist())),
            )
        )
    return out


def _table_scenario_cells():
    """``_scenario_cells`` memoised for one aggregation table, whose rows
    repeat a few scenarios; equal scenarios are one group there."""
    return functools.lru_cache(maxsize=None)(_scenario_cells)


def write_quantiles(rows: Sequence[QuantileRow], path) -> None:
    scenario_cells = _table_scenario_cells()
    _write_table(
        path,
        QUANTILE_COLUMNS,
        (
            (*scenario_cells(row.scenario), str(row.step), repr(row.quantile), repr(row.value))
            for row in rows
        ),
    )


def write_boxes(rows: Sequence[BoxStats], path) -> None:
    scenario_cells = _table_scenario_cells()
    _write_table(
        path,
        BOX_COLUMNS,
        (
            (
                *scenario_cells(row.scenario),
                *(repr(getattr(row, name)) for name in _BOX_STATS),
                ";".join(repr(v) for v in row.outliers),
            )
            for row in rows
        ),
    )


def read_quantiles(path) -> list:
    table = _read_columns(path, QUANTILE_COLUMNS, _SCENARIO_FLOATS + ("quantile", "value"))
    scenarios = _group_scenarios(table, slice(None))
    return [
        QuantileRow(scenario, step, quantile, value)
        for scenario, (step, quantile, value) in zip(
            scenarios, table[["step", "quantile", "value"]].tolist()
        )
    ]


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
            (
                *_scenario_cells(scenario),
                str(replication),
                str(replication_seed(grid.base_seed, scenario, replication)),
            )
            for scenario in grid.scenarios()
            for replication in range(grid.replications)
        ),
    )
