"""Command-line surface.

Subcommands: run (single replication), sweep (grid of replicated runs),
ode (reference trajectory), analyze (quantile/box aggregation), plot
(SVG charts).  Exit codes: 0 ok, 2 usage or config error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

from .abm import init_world
from .montecarlo import (
    DEFAULT_QUANTILES,
    DatasetError,
    SweepDataset,
    collect_world_run,
    grid_from_text,
    notched_box,
    quantile_series,
    read_boxes,
    read_dataset,
    read_quantiles,
    replication_seed,
    sweep,
    validate_sweep,
    write_boxes,
    write_dataset,
    write_manifest,
    write_quantiles,
)
from .ode import OdeError, abm_to_ode, effective_reproduction, integrate, seeded_state
from .params import ConfigError, load_params
from .svg import render_notched_boxes, render_quantile_lines

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepaird",
        description="Epidemic simulator with endogenously mutating virus variants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single simulation run, per-step metrics CSV")
    p_run.add_argument("config", help="parameter file (key = value lines)")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", required=True, help="output CSV path")
    p_run.add_argument("--events", default=None, help="also write a per-event audit CSV")

    p_sweep = sub.add_parser("sweep", help="replicated runs over a scenario grid")
    p_sweep.add_argument("config", help="base parameter file")
    p_sweep.add_argument("--grid", required=True, help="grid file with list-valued dimensions")
    p_sweep.add_argument("--reps", type=int, default=100, help="replications per scenario")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: SEPAIRD_JOBS or 1); never affects results",
    )
    p_sweep.add_argument(
        "--progress",
        action="store_true",
        help="one stderr line per finished replication: done/total, rate and ETA",
    )

    p_ode = sub.add_parser("ode", help="deterministic compartmental trajectory CSV")
    p_ode.add_argument("config", help="parameter file")
    p_ode.add_argument("--horizon", type=float, default=None, help="days (default: config horizon)")
    p_ode.add_argument("--dt", type=float, default=0.05, help="integration step in days")
    p_ode.add_argument("--out", required=True, help="output CSV path")

    p_an = sub.add_parser("analyze", help="aggregate a sweep dataset")
    p_an.add_argument("dataset", help="dataset CSV from run or sweep")
    p_an.add_argument("--metric", required=True, help="metric column to aggregate")
    group = p_an.add_mutually_exclusive_group()
    group.add_argument(
        "--quantiles",
        default=None,
        help="comma-separated levels (default 0.05,0.25,0.5,0.75,0.95)",
    )
    group.add_argument("--box-at", type=int, default=None, help="notched-box stats at one step")
    p_an.add_argument("--out", required=True, help="output CSV path")

    p_plot = sub.add_parser("plot", help="render an aggregation table as SVG")
    p_plot.add_argument("table", help="aggregation CSV from analyze")
    p_plot.add_argument("--kind", required=True, choices=("lines", "boxes"))
    p_plot.add_argument("--metric", default="value", help="axis label for the metric")
    p_plot.add_argument("--step", type=int, default=None, help="step label for box titles")
    p_plot.add_argument("--out", required=True, help="output SVG path")
    return parser


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _cmd_run(args) -> int:
    p = load_params(args.config)
    if args.seed is not None:
        p = dataclasses.replace(p, seed=args.seed)
    w = init_world(p, log_events=args.events is not None)
    write_dataset(SweepDataset(collect_world_run(w)), args.out)
    if args.events is not None:
        lines = ["step,event,agent,variant,cluster"]
        lines += [f"{s},{e},{a},{v},{c}" for s, e, a, v, c in w.events]
        _write_text(args.events, "\n".join(lines) + "\n")
    return _EXIT_OK


def _jobs_from(args) -> int:
    if args.jobs is not None:
        return args.jobs
    raw = os.environ.get("SEPAIRD_JOBS", "1")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"SEPAIRD_JOBS must be an integer, got {raw!r}") from None


def _progress_reporter():
    """A ``sweep`` progress callback that writes one stderr line per replication."""
    start = time.monotonic()

    def report(done: int, total: int) -> None:
        rate = done / max(time.monotonic() - start, 1e-9)
        eta = round((total - done) / rate)
        print(
            f"sweep: {done}/{total} replications, {rate:.3g}/s, "
            f"ETA {eta // 3600}:{eta // 60 % 60:02d}:{eta % 60:02d}",
            file=sys.stderr,
            flush=True,
        )

    return report


def _cmd_sweep(args) -> int:
    base = load_params(args.config)
    with open(args.grid, "r", encoding="utf-8") as fh:
        grid = grid_from_text(fh.read(), base, replications=args.reps)
    jobs = _jobs_from(args)
    validate_sweep(grid, jobs)
    os.makedirs(args.out, exist_ok=True)
    dataset = sweep(grid, jobs=jobs, progress=_progress_reporter() if args.progress else None)
    write_dataset(dataset, os.path.join(args.out, "dataset.csv"))
    write_manifest(grid, os.path.join(args.out, "manifest.csv"))
    return _EXIT_OK


def _cmd_ode(args) -> int:
    p = load_params(args.config)
    horizon = args.horizon if args.horizon is not None else float(p.horizon)
    op = abm_to_ode(p)
    s0 = seeded_state(p.n_agents, p.n_initial_infected, "P")
    trajectory = integrate(s0, op, horizon, dt=args.dt)
    lines = ["t,S,E,P,A,I,R,D,Rt"]
    for t, row in zip(trajectory.times.tolist(), trajectory.states):
        state = row.tolist()
        cells = [t, *state, effective_reproduction(state, op)]
        lines.append(",".join(map(repr, cells)))
    _write_text(args.out, "\n".join(lines) + "\n")
    return _EXIT_OK


def _cmd_analyze(args) -> int:
    dataset = read_dataset(args.dataset)
    if args.box_at is not None:
        write_boxes(notched_box(dataset, args.metric, args.box_at), args.out)
        return _EXIT_OK
    if args.quantiles is not None:
        try:
            levels = tuple(float(cell) for cell in args.quantiles.split(",") if cell.strip())
        except ValueError:
            raise DatasetError(f"bad quantile list {args.quantiles!r}") from None
        if not levels:
            raise DatasetError("empty quantile list")
    else:
        levels = DEFAULT_QUANTILES
    write_quantiles(quantile_series(dataset, args.metric, levels), args.out)
    return _EXIT_OK


def _cmd_plot(args) -> int:
    if args.kind == "lines":
        svg = render_quantile_lines(read_quantiles(args.table), args.metric)
    else:
        svg = render_notched_boxes(read_boxes(args.table), args.metric, step=args.step)
    _write_text(args.out, svg)
    return _EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "ode": _cmd_ode,
    "analyze": _cmd_analyze,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, DatasetError, OdeError, UnicodeDecodeError) as exc:
        print(f"sepaird {args.command}: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except OSError as exc:
        print(f"sepaird {args.command}: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
