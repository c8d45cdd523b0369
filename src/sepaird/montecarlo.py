"""Replicated runs over parameter grids and their aggregation statistics.

A sweep expands a parameter grid into scenarios (cartesian product over
mutation probability, the two cross-immunity strengths, isolation, and
social distancing), runs every scenario for a fixed number of
replications, and collects one row of metrics per simulation step.  The
grid's base parameters hold every other fact of a run, the horizon and
the base seed included.  Each replication's seed is derived from the base
seed and the scenario content, so results never depend on grid order,
execution order, or the number of worker processes.  One generator,
``_replications``, lists the replications and their seeds in canonical
order for the sweep tasks and the manifest.

A replication fills its own block of the dataset table.  ``metric_row``
observes its steps up to the first extinct one, returning each row's
values in column order and reusing the active-variant summary while the
variant set it describes is unchanged; the world then finishes through
``abm.run``, which moves it to its horizon without stepping.  The frozen
steps after extinction are never observed: their rows are copies of the
first extinct row, each with its own step.  A sweep worker sends only the
observed rows.  ``sweep`` is a stream: it yields each replication's block
in canonical order, its tail filled through the same helper as
``collect_world_run``, and never holds the table.  With several workers it
keeps a bounded number of replications submitted and takes their results
in order, so one slow replication holds back only that many finished
ones.  The sweep command writes the blocks as they come, so a sweep
stopped early leaves a partial dataset file that is a byte prefix of the
whole one.

The schema is declared once: ``SCENARIO_FIELDS`` are the fields of
``Scenario``, which also name ``SweepGrid``'s value lists and the keys of
a grid file; ``CSV_COLUMNS`` are the fields of ``MetricRow`` (which
extends ``Scenario``), and ``METRIC_FIELDS`` a slice of them, whose
variant columns lead an ``ActiveVariantSummary`` in the same order.  A
grid file is read by the config reader, ``params.read_key_values``.
Every table is a numpy structured array with a field per CSV column.  A
dataset's, ``DATASET_DTYPE``, is typed float64, int64 or bool after the
``MetricRow`` field; its ``MetricRow`` objects are built only on request.
The quantile, box and manifest tables (``QUANTILE_DTYPE``, ``BOX_DTYPE``
and ``MANIFEST_DTYPE``) start with the same scenario columns.

Every cell is spelled by one table, ``_CELL_FORMATS``, keyed by the kind
of its column's dtype, so the dtype coerces a value before it is spelled;
scenario floats are spelled as ``+0.0`` of their value, so scenarios that
compare equal are spelled, keyed and seeded alike.  One writer,
``_write_table``, takes the rows of a table from an iterable of tables,
one at a time, and formats them column by column in blocks of
``_TEXT_BLOCK`` rows, the cells on either side of one column once per run
of rows whose bytes on that side are equal, across the tables' and the
blocks' edges too, and ``write_atomically`` writes them to
``<path>.partial`` and renames that to the path once complete, or removes
it if the write fails.  One reader, ``_read_columns``, parses a CSV in
blocks of ``_BLOCK`` lines, keeps the columns asked for, joins them, and
rejects a malformed line, a non-finite required cell or outlier, or a NUL,
with its line number; a line is checked whole, whichever columns are kept.

Aggregation is pure: per-step empirical quantile bands and notched box
statistics computed across replications, grouped by one sort of the
table (for a box, of its rows at the step), each returned as a table.  ``validate_request`` checks the metric
and the quantile levels of a request, and needs no dataset.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import itertools
import operator
import os
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .abm import init_world, run
from .params import ConfigError, SimParams, parse_scalar, read_key_values, validate_params
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
        scenario = np.array([_scenario_values(self)], dtype=_SCENARIO_DTYPE)
        (text,) = _joined_cells(scenario, SCENARIO_FIELDS)
        return ",".join(f"{name}={cell}" for name, cell in zip(SCENARIO_FIELDS, text.split(",")))

    def apply(self, base: SimParams) -> SimParams:
        return dataclasses.replace(base, **{name: getattr(self, name) for name in SCENARIO_FIELDS})


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
# the variant columns, ``mean_r0`` up to ``active_variant_count``, lead an
# ``ActiveVariantSummary`` in the same order
_N_VARIANT_COLUMNS = METRIC_FIELDS.index("active_variant_count") - METRIC_FIELDS.index("mean_r0")


# the field type names are numpy's: float64, int64 and bool
DATASET_DTYPE = np.dtype([(f.name, f.type) for f in dataclasses.fields(MetricRow)])
_SCENARIO_DTYPE = np.dtype([(name, DATASET_DTYPE[name]) for name in SCENARIO_FIELDS])
_SCENARIO_FLOATS = tuple(name for name in SCENARIO_FIELDS if _SCENARIO_DTYPE[name].kind == "f")
QUANTILE_DTYPE = np.dtype(
    _SCENARIO_DTYPE.descr + [("step", np.int64), ("quantile", np.float64), ("value", np.float64)]
)
_BOX_STATS = ("median", "q1", "q3", "whisker_low", "whisker_high", "notch_low", "notch_high")
BOX_DTYPE = np.dtype(
    _SCENARIO_DTYPE.descr + [(name, np.float64) for name in _BOX_STATS] + [("outliers", object)]
)
# a seed can reach 2**64 - 1
MANIFEST_DTYPE = np.dtype(_SCENARIO_DTYPE.descr + [("replication", np.int64), ("seed", np.uint64)])
QUANTILE_COLUMNS = QUANTILE_DTYPE.names
BOX_COLUMNS = BOX_DTYPE.names
_scenario_values = operator.attrgetter(*SCENARIO_FIELDS)


def metric_row(w, replication: int, memo: dict | None = None) -> tuple:
    """Observe a world after a step: the values of its row, in
    ``CSV_COLUMNS`` order.  ``memo`` is passed to ``active_variant_stats``."""
    n = w.params.n_agents
    n_infected = w.n_infected
    stats = active_variant_stats(w, memo)
    return (
        *_scenario_values(w.params),
        replication,
        w.step_index,
        n_infected / n,
        w.cum_deaths / n,
        np.count_nonzero(w.ever_infected) / n,
        *stats[:_N_VARIANT_COLUMNS],
        stats.n_variants if n_infected else 0,
        n_infected == 0,
    )


def _observe_run(w, replication: int, block: np.ndarray) -> int:
    """Step ``w`` and write its rows into ``block``, one per step, up to
    its first extinct row; return how many were written.

    Steps are observed by ``metric_row``, which reuses the variant summary
    while the variant set is unchanged.  The world then finishes through
    ``run``, which moves an extinct world to its horizon at once.
    """
    memo = {}
    observed = 0
    while observed < block.size:
        w.step()
        row = metric_row(w, replication, memo)
        block[observed] = row
        observed += 1
        if row[-1]:
            break
    run(w)
    return observed


def _fill_tail(block: np.ndarray, observed: int) -> None:
    """Fill the rows of ``block`` after its first ``observed`` ones.  An
    extinct world is frozen, so they are copies of the last observed row,
    the first extinct one, each with its own ``step``."""
    if observed < block.size:
        block[observed:] = block[observed - 1]
        steps = block["step"]
        steps[observed:] = steps[observed - 1] + np.arange(1, block.size - observed + 1)


def collect_world_run(w, replication: int = 0) -> np.ndarray:
    """Advance a fresh world to its horizon: one ``DATASET_DTYPE`` row per
    step, observed up to the first extinct one and filled after it."""
    block = np.empty(w.params.horizon - w.step_index, dtype=DATASET_DTYPE)
    _fill_tail(block, _observe_run(w, replication, block))
    return block


@dataclass(frozen=True)
class SweepGrid:
    """Base parameters plus the value list of each scenario field, in
    ``SCENARIO_FIELDS`` order.  The horizon and the base seed are the
    base's own."""

    base: SimParams
    mutation_prob: tuple = (0.0, 0.005, 0.01, 0.02)
    cross_immunity: tuple = (0.0, 0.5, 0.9)
    cross_protection: tuple = (0.9, 0.99)
    isolate_symptomatic: tuple = (False, True)
    social_distancing: tuple = (0.0, 0.2, 0.4, 0.5, 0.6, 0.8)
    replications: int = 100

    @property
    def horizon(self) -> int:
        return self.base.horizon

    @property
    def base_seed(self) -> int:
        return self.base.seed

    def scenarios(self) -> list:
        axes = (getattr(self, name) for name in SCENARIO_FIELDS)
        return [Scenario(*combo) for combo in itertools.product(*axes)]


def validate_grid(g: SweepGrid) -> SweepGrid:
    for name in SCENARIO_FIELDS:
        values = getattr(g, name)
        if len(values) == 0:
            raise DatasetError(f"grid dimension {name} is empty")
        if len(set(values)) < len(values):
            raise DatasetError(f"grid dimension {name} lists a value twice")
    if g.replications < 1:
        raise DatasetError("replications must be >= 1")
    for scenario in g.scenarios():
        validate_params(scenario.apply(g.base))
    return g


def grid_from_text(
    text: str, base: SimParams, replications: int = SweepGrid.replications
) -> SweepGrid:
    """Parse a grid file: scenario fields as comma-separated value lists.

    Omitted fields collapse to the base parameter value.  Lines are read
    as config lines are, by ``read_key_values``, with the scenario fields
    as keys; an empty list and a value listed twice are errors too.
    Values parse as config values do, so ``-0.0`` reads as ``0.0``.
    """
    try:
        entries = read_key_values(text, SCENARIO_FIELDS)
    except ConfigError as exc:
        raise DatasetError(f"grid {exc}") from None
    axes = {name: (getattr(base, name),) for name in SCENARIO_FIELDS}
    for key, (lineno, raw) in entries.items():
        items = [cell.strip() for cell in raw.split(",")]
        if not any(items):
            raise DatasetError(f"grid line {lineno}: empty value list")
        try:
            values = tuple(parse_scalar(key, cell) for cell in items if cell)
        except ValueError as exc:
            raise DatasetError(f"grid line {lineno}: bad value ({exc})") from exc
        if len(set(values)) < len(values):
            raise DatasetError(f"grid line {lineno}: {key!r} lists a value twice")
        axes[key] = values
    return SweepGrid(base=base, replications=replications, **axes)


def replication_seed(base_seed: int, scenario: Scenario, replication: int) -> int:
    return derive_seed(base_seed, scenario.key(), replication)


def _replications(grid: SweepGrid):
    """Yield (scenario, replication, seed) per replication, in canonical order."""
    for scenario in grid.scenarios():
        for replication in range(grid.replications):
            yield scenario, replication, replication_seed(grid.base_seed, scenario, replication)


def _sweep_task(base: SimParams, task) -> np.ndarray:
    """Run replication ``(scenario, replication, seed)`` of ``_replications``
    on ``base``: the observed rows of its block, up to the first extinct
    one.  The sweep fills the rest, so a worker never sends the frozen
    tail."""
    scenario, replication, seed = task
    p = dataclasses.replace(scenario.apply(base), seed=seed)
    block = np.empty(p.horizon, dtype=DATASET_DTYPE)
    return block[: _observe_run(init_world(p), replication, block)]


_row_values = operator.attrgetter(*CSV_COLUMNS)


@dataclass(frozen=True, eq=False)
class SweepDataset:
    """All metric rows of one sweep as one structured array, ``DATASET_DTYPE``.

    A dataset read for one metric, by ``read_dataset(path, metric)``, holds
    a packed table of only the scenario columns, ``step`` and that metric:
    enough for ``scenarios``, ``quantile_series`` and ``notched_box`` of
    it, not for ``rows``.
    """

    table: np.ndarray

    @staticmethod
    def from_rows(rows) -> "SweepDataset":
        return SweepDataset(np.array([_row_values(row) for row in rows], dtype=DATASET_DTYPE))

    @staticmethod
    def from_tables(tables) -> "SweepDataset":
        """The rows of ``tables``, such as the blocks of ``sweep``, joined in order."""
        return SweepDataset(np.concatenate([np.empty(0, dtype=DATASET_DTYPE), *tables]))

    @property
    def rows(self) -> tuple:
        return tuple(MetricRow(*values) for values in self.table.tolist())

    def scenarios(self) -> list:
        """The distinct scenarios in order of first appearance."""
        cells = self.table[list(SCENARIO_FIELDS)].tolist()
        return [Scenario(*values) for values in dict.fromkeys(cells)]


def validate_sweep(grid: SweepGrid, jobs: int) -> SweepGrid:
    """Return ``grid`` unchanged if it can be swept by ``jobs`` workers
    into a dataset that numpy can address as one table, as a reader of it
    does."""
    if jobs < 1:
        raise DatasetError(f"jobs must be >= 1, got {jobs}")
    rows = len(grid.scenarios()) * grid.replications * grid.horizon
    if rows * DATASET_DTYPE.itemsize > np.iinfo(np.intp).max:
        raise DatasetError(f"a table of {rows} rows is too large to allocate")
    return validate_grid(grid)


# replications a sweep with jobs > 1 keeps submitted per worker: enough to
# keep every worker busy while the parent waits for the oldest one, and the
# most finished replications a slow one can hold back
_AHEAD_PER_JOB = 4


def sweep(grid: SweepGrid, jobs: int = 1, progress=None):
    """Run the full grid; ``jobs`` workers never change the result.

    Returns a generator of the replications' blocks in canonical order
    (scenario ordinal, then replication): one ``DATASET_DTYPE`` table of
    ``horizon`` rows each, sorted by step, its extinct tail filled from
    the observed rows a worker sent.  ``progress`` is called with (done,
    total) after each block is taken.  The grid is checked at once; no
    replication runs before the first block is asked for, and closing the
    generator stops the workers.
    """
    validate_sweep(grid, jobs)
    return _sweep_blocks(grid, jobs, progress)


def _sweep_blocks(grid: SweepGrid, jobs: int, progress):
    total = len(grid.scenarios()) * grid.replications
    run_task = functools.partial(_sweep_task, grid.base)
    # a generator, so a large grid never holds one task per replication at once
    tasks = _replications(grid)
    with contextlib.ExitStack() as stack:
        if jobs == 1:
            results = map(run_task, tasks)
        else:
            # imported here: only a pool needs it, and it costs every other
            # command's start-up several milliseconds
            import multiprocessing

            pool = stack.enter_context(multiprocessing.Pool(processes=jobs))
            results = _in_order(pool, run_task, tasks, jobs * _AHEAD_PER_JOB)
        for done, rows in enumerate(results, start=1):
            block = np.empty(grid.horizon, dtype=DATASET_DTYPE)
            block[: rows.size] = rows
            _fill_tail(block, rows.size)
            yield block
            if progress is not None:
                progress(done, total)


def _in_order(pool, fn, tasks, ahead: int):
    """``fn`` of each of ``tasks`` on ``pool``, yielded in task order, with
    at most ``ahead`` tasks submitted and not yet yielded."""
    pending = collections.deque(
        pool.apply_async(fn, (task,)) for task in itertools.islice(tasks, ahead)
    )
    while pending:
        result = pending.popleft().get()
        for task in itertools.islice(tasks, 1):
            pending.append(pool.apply_async(fn, (task,)))
        yield result


# -- serialization ----------------------------------------------------------


# the spelling of a cell of each dtype kind, from its Python value
_CELL_FORMATS = {
    "f": repr,
    "i": str,
    "u": str,
    "b": ("false", "true").__getitem__,
    "O": lambda values: ";".join(map(repr, values)),
}


def write_atomically(path, text) -> None:
    """Write the strings of ``text`` to ``<path>.partial``, which replaces
    ``path`` only once all are written, so a write that stops early leaves
    ``path`` as it was.  A write that raises, ``KeyboardInterrupt`` too,
    removes its partial file."""
    partial = f"{os.fspath(path)}.partial"
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(text)
        os.replace(partial, path)
    finally:
        # left only by a write that raised
        if os.path.exists(partial):
            os.remove(partial)


# lines parsed per block: a file parsed whole would hold all its text cells
# at once beside the table
_BLOCK = 4096
# rows formatted per block: the writer holds a block's cells and lines as
# Python objects, up to 1.5 kB a row, so a longer block raises its peak for
# little speed
_TEXT_BLOCK = 512


def _joined_cells(rows: np.ndarray, columns) -> map:
    """The cells of ``columns`` of each of ``rows``, formatted column by
    column and joined by commas.  A scenario float is spelled as ``+0.0``
    of its value, so ``-0.0`` as ``0.0``, as a dataset reads it."""

    def cells(name):
        column = rows[name] + 0.0 if name in _SCENARIO_FLOATS else rows[name]
        return map(_CELL_FORMATS[column.dtype.kind], column.tolist())

    return map(",".join, zip(*map(cells, columns)))


def _new_runs(rows: np.ndarray, columns) -> np.ndarray:
    """Whether each of ``rows`` differs from the row before it in the bytes
    of ``columns``.  The first row always does, and so does every row when
    a column holds objects, whose bytes are references."""
    part = np.dtype([(name, rows.dtype[name]) for name in columns])
    new = np.ones(len(rows), dtype=bool)
    if not part.hasobject:
        raw = np.array(rows[list(columns)], dtype=part).view(np.uint8).reshape(len(rows), -1)
        new[1:] = (raw[1:] != raw[:-1]).any(axis=1)
    return new


def _blocks(tables):
    """The rows of ``tables``, an iterable of tables of one dtype, in blocks
    of ``_TEXT_BLOCK`` rows, the last one shorter.  Each block is yielded
    after the row before it, as rows 1 on of one buffer reused from block
    to block; the first block's row 0 is unset."""
    buffer, filled = None, 0
    for table in tables:
        if buffer is None:
            buffer = np.empty(_TEXT_BLOCK + 1, dtype=table.dtype)
        start = 0
        while start < len(table):
            rows = table[start : start + _TEXT_BLOCK - filled]
            buffer[1 + filled : 1 + filled + len(rows)] = rows
            filled += len(rows)
            start += len(rows)
            if filled == _TEXT_BLOCK:
                yield buffer
                buffer[0] = buffer[_TEXT_BLOCK]
                filled = 0
    if filled:
        yield buffer[: 1 + filled]


def _table_text(tables, split: str):
    """The CSV lines of the rows of ``tables``, an iterable of tables of one
    dtype, one string per block of ``_TEXT_BLOCK`` rows.

    The cells before column ``split`` are formatted once per run of rows
    whose bytes in them are equal, such as a scenario's rows, and the cells
    after it once per run equal in them, such as the rows of an extinct
    replication.  A run goes on across the tables: each row is compared with
    the row before it, whichever table that came from.  Every row formats
    its own ``split`` cell.  Bytes, not ``==``: a ``-0.0`` after a ``0.0`` is
    formatted again.
    """
    head = tail = None
    for rows in _blocks(tables):
        names = rows.dtype.names
        before, after = names[: names.index(split)], names[names.index(split) + 1 :]
        new_head = _new_runs(rows, before)[1:]
        new_tail = _new_runs(rows, after)[1:]
        if head is None:
            # the first row has no row before it
            new_head[0] = new_tail[0] = True
        rows = rows[1:]
        heads = [head, *_joined_cells(rows[new_head], before)]
        tails = [tail, *_joined_cells(rows[new_tail], after)]
        spell = _CELL_FORMATS[rows.dtype[split].kind]
        yield "".join(
            [
                f"{heads[h]},{cell},{tails[t]}\n"
                for h, t, cell in zip(
                    np.cumsum(new_head).tolist(),
                    np.cumsum(new_tail).tolist(),
                    map(spell, rows[split].tolist()),
                )
            ]
        )
        head, tail = heads[-1], tails[-1]


def _write_table(path, tables, dtype: np.dtype, split: str) -> None:
    """Write the rows of ``tables`` as one ``dtype`` table: a header of its
    columns, then the lines of ``_table_text``."""
    lines = _table_text((np.asarray(table, dtype=dtype) for table in tables), split)
    write_atomically(path, itertools.chain([",".join(dtype.names) + "\n"], lines))


def write_dataset(data, path) -> None:
    """Write ``data``, a ``SweepDataset`` or an iterable of ``DATASET_DTYPE``
    tables such as the blocks of ``sweep``, which are taken one at a time.
    The table is formatted column by column, each cell by ``_CELL_FORMATS``,
    reusing the cells on either side of ``step`` of a row equal in bytes
    there to the row before it."""
    tables = [data.table] if isinstance(data, SweepDataset) else data
    _write_table(path, tables, DATASET_DTYPE, "step")


def _read_header(fh, columns) -> None:
    header = fh.readline().rstrip("\n")
    if header.split(",") != list(columns):
        raise DatasetError(f"table header mismatch: {header!r}")


def _loadtxt(lines, dtype) -> np.ndarray:
    """One ``dtype`` row per non-blank line of ``lines``, by numpy's C parser."""
    with warnings.catch_warnings():
        # a table may hold no rows, and an outliers cell no values
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(lines, delimiter=",", comments=None, dtype=dtype, ndmin=1)


def _parse_lines(lines, dtype: np.dtype, finite) -> np.ndarray:
    """The list of CSV data ``lines`` as one ``dtype`` table, in one C-level
    parse.

    Blank lines are skipped, and a line that holds a NUL is rejected: a text
    cell drops trailing NULs, so ``true\\x00`` would parse as ``true``.  A
    bool cell is read as text wider than ``false``, so that ``falsey``
    cannot be cut down to ``false``, and must read ``true`` or ``false``; an
    outliers cell is read as text and split into a tuple of floats.  The
    columns in ``finite`` must be finite, and scenario floats read ``-0.0``
    as ``0.0``.  Raises ValueError on the first violation.
    """
    if "\x00" in "".join(lines):
        raise ValueError("NUL character")
    cell_types = [(name, "U6" if dtype[name].kind == "b" else dtype[name]) for name in dtype.names]
    cells = _loadtxt(lines, cell_types)
    table = np.empty(cells.shape, dtype=dtype)
    for name in dtype.names:
        column = values = cells[name]
        kind = dtype[name].kind
        if kind == "b":
            column = values = column == "true"
            if not (column | (cells[name] == "false")).all():
                raise ValueError(f"{name} is not true or false")
        elif kind == "O":
            # ``;``-joined floats, parsed as float cells are; empty pieces are skipped
            pieces = [_loadtxt(text.split(";"), np.float64) for text in column.tolist()]
            values = np.concatenate([np.empty(0), *pieces])
            column = np.fromiter(
                (tuple(p.tolist()) for p in pieces), dtype=object, count=len(pieces)
            )
        if name in finite:
            bad = ~np.isfinite(values)
            if bad.any():
                raise ValueError(f"non-finite {name} {float(values[bad][0])!r}")
        if name in _SCENARIO_FLOATS:
            column = column + 0.0
        table[name] = column
    return table


def _read_columns(path, dtype: np.dtype, finite, keep=None) -> np.ndarray:
    """Every non-blank line under an exact header of ``dtype``'s columns,
    parsed by ``_parse_lines`` in blocks of ``_BLOCK`` lines, the blocks
    joined in order.  Every cell of a block is parsed and checked, then only
    the fields ``keep`` (every field by default) are copied into a packed
    table of them, so the joined table holds no other column.  The lines of
    a rejected block are parsed again one by one, only to name the first
    line at fault."""
    keep = list(dtype.names if keep is None else keep)
    kept = np.dtype([(name, dtype[name]) for name in keep])
    tables = [np.empty(0, dtype=kept)]
    with open(path, "r", encoding="utf-8") as fh:
        _read_header(fh, dtype.names)
        first = 2
        while block := list(itertools.islice(fh, _BLOCK)):
            try:
                tables.append(np.array(_parse_lines(block, dtype, finite)[keep], dtype=kept))
            except ValueError as error:
                for lineno, line in enumerate(block, start=first):
                    try:
                        _parse_lines([line], dtype, finite)
                    except ValueError as exc:
                        # numpy's own position is within this one line
                        message = str(exc).partition(" at row ")[0]
                        raise DatasetError(f"line {lineno}: {message}") from None
                raise DatasetError(f"bad table ({error})") from None
            first += len(block)
    return np.concatenate(tables)


def read_dataset(path, metric: str | None = None) -> SweepDataset:
    """Parse a dataset CSV, enforcing the exact fixed schema and finite
    scenario cells.  Given a ``metric``, keep only what aggregating it
    reads: the scenario columns, ``step`` and that metric.  Every cell of
    every line is checked either way."""
    keep = None
    if metric is not None:
        validate_request(metric)
        keep = (*SCENARIO_FIELDS, "step", metric)
    return SweepDataset(_read_columns(path, DATASET_DTYPE, _SCENARIO_FLOATS, keep))


# -- aggregation -------------------------------------------------------------


def _groups(table, keys) -> tuple:
    """The row order that sorts ``table`` (a table, or a dict of its
    columns) by ``keys`` (stable, first key first) and the sorted position
    at which each run of equal keys starts."""
    order = np.lexsort([table[name] for name in reversed(keys)])
    new_group = np.zeros(order.size, dtype=bool)
    new_group[:1] = True
    for name in keys:
        column = table[name][order]
        new_group[1:] |= column[1:] != column[:-1]
    return order, np.flatnonzero(new_group)


def _scenario_count(table: np.ndarray) -> int:
    """The number of distinct scenarios in ``table``.  Each run of rows with
    equal scenario cells holds one scenario, so only the first row of each
    run is sorted: one row per block of a table written in scenario order."""
    heads = np.zeros(len(table), dtype=bool)
    heads[:1] = True
    for name in SCENARIO_FIELDS:
        column = table[name]
        heads[1:] |= column[1:] != column[:-1]
    firsts = {name: table[name][heads] for name in SCENARIO_FIELDS}
    return _groups(firsts, SCENARIO_FIELDS)[1].size


def validate_request(metric: str, quantiles: Sequence[float] = ()) -> None:
    """Raise DatasetError unless ``metric`` names a metric column and each
    of ``quantiles`` lies in [0, 1]; it needs no dataset, so a caller can
    check a request before reading one."""
    if metric not in METRIC_FIELDS:
        raise DatasetError(f"unknown metric {metric!r}")
    for q in quantiles:
        if not 0.0 <= q <= 1.0:
            raise DatasetError(f"quantile {q} out of [0,1]")


def _metric_values(table: np.ndarray, metric: str, order: np.ndarray) -> np.ndarray:
    """``metric`` in ``order`` as floats; a nan or inf would corrupt its group's statistics."""
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


def quantile_series(
    ds: SweepDataset, metric: str, quantiles: Sequence[float] = DEFAULT_QUANTILES
) -> np.ndarray:
    """Per-scenario, per-step empirical quantiles across replications, as a
    ``QUANTILE_DTYPE`` table.

    Quantiles use linear interpolation between order statistics.  Output
    ordering is canonical (sorted scenarios, then step, then the given
    quantile order), independent of row order in the dataset.
    """
    validate_request(metric, quantiles)
    table = ds.table
    keys = list(SCENARIO_FIELDS + ("step",))
    order, starts = _groups(table, keys)
    values = _metric_values(table, metric, order)
    levels = np.array(quantiles, dtype=np.float64)
    out = np.empty(starts.size * levels.size, dtype=QUANTILE_DTYPE)
    firsts = np.repeat(order[starts], levels.size)
    for name in keys:
        out[name] = table[name][firsts]
    out["quantile"] = np.tile(levels, starts.size)
    out["value"] = _group_quantiles(values, starts, levels).ravel()
    return out


def notched_box(ds: SweepDataset, metric: str, step: int) -> np.ndarray:
    """Box statistics per scenario at one step, as a ``BOX_DTYPE`` table.

    Whiskers sit on the most extreme data within 1.5 IQR of the box;
    values beyond them are listed as outliers.  The notch half-width is
    1.58 IQR / sqrt(n).
    """
    validate_request(metric)
    table = ds.table
    at_step = table[table["step"] == step]
    order, starts = _groups(at_step, SCENARIO_FIELDS)
    values = _metric_values(at_step, metric, order)
    if starts.size < _scenario_count(table):
        raise DatasetError(f"no data at step {step}")
    sizes = np.diff(starts, append=values.size)
    group = np.repeat(np.arange(starts.size), sizes)
    q1, median, q3 = _group_quantiles(values, starts, [0.25, 0.5, 0.75]).T
    iqr = q3 - q1
    inside = (values >= (q1 - 1.5 * iqr)[group]) & (values <= (q3 + 1.5 * iqr)[group])
    whisker_low = np.minimum.reduceat(np.where(inside, values, np.inf), starts)
    whisker_high = np.maximum.reduceat(np.where(inside, values, -np.inf), starts)
    outside = (values < whisker_low[group]) | (values > whisker_high[group])
    half_notch = 1.58 * iqr / np.sqrt(sizes)
    out = np.empty(starts.size, dtype=BOX_DTYPE)
    out[list(SCENARIO_FIELDS)] = at_step[list(SCENARIO_FIELDS)][order[starts]]
    out["median"], out["q1"], out["q3"] = median, q1, q3
    out["whisker_low"], out["whisker_high"] = whisker_low, whisker_high
    out["notch_low"], out["notch_high"] = median - half_notch, median + half_notch
    groups = zip(np.split(values, starts[1:]), np.split(outside, starts[1:]))
    outliers = (tuple(sorted(v[beyond].tolist())) for v, beyond in groups)
    out["outliers"] = np.fromiter(outliers, dtype=object, count=starts.size)
    return out


def write_quantiles(table: np.ndarray, path) -> None:
    _write_table(path, [table], QUANTILE_DTYPE, "step")


def write_boxes(table: np.ndarray, path) -> None:
    _write_table(path, [table], BOX_DTYPE, "median")


# an aggregation table holds only finite numbers: its scenario floats come
# from validated parameters and its statistics from finite groups
def read_quantiles(path) -> np.ndarray:
    return _read_columns(path, QUANTILE_DTYPE, QUANTILE_COLUMNS)


def read_boxes(path) -> np.ndarray:
    return _read_columns(path, BOX_DTYPE, BOX_COLUMNS)


def write_manifest(grid: SweepGrid, path) -> None:
    """One line per scenario and replication with its derived seed."""
    rows = [(*_scenario_values(s), rep, seed) for s, rep, seed in _replications(grid)]
    _write_table(path, [rows], MANIFEST_DTYPE, "replication")
