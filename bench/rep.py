"""One repetition of a benchmark workload, or one set-up probe, in a fresh
process.

    python3 bench/rep.py WORKLOAD INPUTS OUT RESULT [--trace]
    python3 bench/rep.py --setup WORKLOAD INPUTS

A repetition times each command of the workload through
``sepaird.cli.main``, with ``reference_kernel`` timed before and after each
one, checks the outputs, takes their sha256 digests and
writes everything to the JSON file RESULT.  With ``--trace`` the commands
run under ``tracer.Tracer`` and RESULT also holds the per-layer values; the
spans go to OUT/spans.csv.

A set-up probe does only what the program does before its first step or
row: with numpy already imported, it imports sepaird and runs the
workload's entry in ``SETUPS``.  It prints the seconds that took and then
those of ``reference_kernel``, taken in the same process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import filecmp
import hashlib
import json
import os
import resource
import sys
import time
import xml.etree.ElementTree as ET

clock = time.perf_counter
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# seconds of reference_kernel, run before and after every timed command
REFERENCE_SAMPLES = []


def _timed(cli, argv) -> float:
    REFERENCE_SAMPLES.append(reference_kernel())
    start = clock()
    code = cli.main(argv)
    elapsed = clock() - start
    REFERENCE_SAMPLES.append(reference_kernel())
    if code != 0:
        raise RuntimeError(f"sepaird {' '.join(argv)} exited with {code}")
    return elapsed


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _data_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _svg_parses(path: str) -> bool:
    try:
        ET.parse(path)
    except ET.ParseError:
        return False
    return True


@contextlib.contextmanager
def _world_counts(montecarlo):
    """Record the counters of every World that ``montecarlo.run`` finishes."""
    original = montecarlo.run
    worlds = []

    def counted(w, callback=None):
        w = original(w, callback=callback)
        worlds.append((w.cum_infections, w.cum_deaths, w.cum_mutations, w.cum_drifts))
        return w

    montecarlo.run = counted
    try:
        yield worlds
    finally:
        montecarlo.run = original


def _extinction_steps(path: str) -> list:
    """First step with ``extinct`` true, per (scenario, replication) that has one."""
    first = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = next(fh).rstrip("\n").split(",")
        step, extinct = header.index("step"), header.index("extinct")
        for line in fh:
            cells = line.rstrip("\n").split(",")
            key = tuple(cells[:step])
            if cells[extinct] == "true" and key not in first:
                first[key] = int(cells[step])
    return list(first.values())


WORLD_COUNTS = ("abm.infections", "abm.deaths", "variants.mutations", "variants.drifts")


def _world_layers(worlds, extinction_steps) -> dict:
    """World counters summed over runs, and the mean step of extinction
    over the runs that died out (0 when none did)."""
    values = {name: sum(column) for name, column in zip(WORLD_COUNTS, zip(*worlds))}
    values["abm.extinction_step"] = (
        sum(extinction_steps) / len(extinction_steps) if extinction_steps else 0
    )
    return values


def endemic_setup(sd, inputs) -> None:
    sd.abm.init_world(sd.params.load_params(os.path.join(inputs, "params.cfg")))


def endemic_run(sd, inputs, out, tracer):
    from workloads import ODE_CALLS, ODE_DT, ODE_HORIZON

    params = os.path.join(inputs, "params.cfg")
    p = sd.params.load_params(params)
    run_csv, ode_csv = os.path.join(out, "run.csv"), os.path.join(out, "ode.csv")
    ode_argv = ["ode", params, "--horizon", str(ODE_HORIZON), "--dt", str(ODE_DT),
                "--out", ode_csv]
    # the ODE is short, so it runs several times on both sides of the agent
    # run to sample more of the repetition's time
    ode_s = sum(_timed(sd.cli, ode_argv) for _ in range(ODE_CALLS // 2))
    with _world_counts(sd.montecarlo) as worlds:
        run_s = _timed(sd.cli, ["run", params, "--out", run_csv])
    ode_s += sum(_timed(sd.cli, ode_argv) for _ in range(ODE_CALLS - ODE_CALLS // 2))
    peak = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    rows = sd.montecarlo.read_dataset(run_csv).rows
    steps_ok = [row.step for row in rows] == list(range(1, p.horizon + 1))
    with open(ode_csv, "r", encoding="utf-8") as fh:
        next(fh)
        mass_error = max(abs(sum(map(float, line.split(",")[1:8])) - p.n_agents) for line in fh)
    infections = worlds[0][0]
    ode_steps = ODE_CALLS * round(ODE_HORIZON / ODE_DT)
    extinct = [row.step for row in rows if row.extinct][:1]
    layers = _world_layers(worlds, extinct)
    layers["montecarlo.write_dataset.bytes"] = os.path.getsize(run_csv)
    layers["ode.integrate.steps"] = ode_steps
    return {
        "peak_rss_mb": peak,
        "ratios": {
            "primary_per_s": [infections, run_s],
            "secondary_per_s": [ode_steps, ode_s],
            "infections_per_s": [infections, run_s],
            "ode_s": [ode_s, ODE_CALLS],
        },
        "times": {"run": run_s, "ode": ode_s},
        "traced_s": run_s + ode_s,
        "checks": [
            ["run.csv reads back with exactly horizon rows", steps_ok],
            ["ode trajectory conserves mass within 1e-9", mass_error <= 1e-9 * p.n_agents],
        ],
        "outputs": {"run.csv": run_csv, "ode.csv": ode_csv},
        "layers": layers,
    }


# the parent's serial share (unpickle, sort, write) and the workers' share
J2_CPU = ("montecarlo.sweep.j2_parent_cpu_s", "montecarlo.sweep.j2_worker_cpu_s")


def _sweep_grid(sd, inputs):
    from workloads import SWEEP_REPS

    base = sd.params.load_params(os.path.join(inputs, "params.cfg"))
    with open(os.path.join(inputs, "grid.cfg"), "r", encoding="utf-8") as fh:
        grid = sd.montecarlo.grid_from_text(fh.read(), base, replications=SWEEP_REPS)
    return base, sd.montecarlo.validate_grid(grid)


def sweep_setup(sd, inputs) -> None:
    base, grid = _sweep_grid(sd, inputs)
    first = grid.scenarios()[0]
    seed = sd.montecarlo.replication_seed(grid.base_seed, first, 0)
    sd.abm.init_world(dataclasses.replace(first.apply(base), horizon=grid.horizon, seed=seed))


def subcritical_sweep(sd, inputs, out, tracer):
    from workloads import SWEEP_REPS, SWEEP_SCENARIOS

    params, grid_file = os.path.join(inputs, "params.cfg"), os.path.join(inputs, "grid.cfg")
    _, grid = _sweep_grid(sd, inputs)

    def sweep(jobs):
        directory = os.path.join(out, f"jobs{jobs}")
        argv = ["sweep", params, "--grid", grid_file, "--reps", str(SWEEP_REPS)]
        return directory, _timed(sd.cli, argv + ["--out", directory, "--jobs", str(jobs)])

    with _world_counts(sd.montecarlo) as worlds:
        j1_dir, j1_s = sweep(1)
    if tracer is not None:
        tracer.uninstall()
    parent_cpu, worker_cpu = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN)
    j2_dir, j2_s = sweep(2)
    parent_cpu = _cpu_s(resource.RUSAGE_SELF) - parent_cpu
    worker_cpu = _cpu_s(resource.RUSAGE_CHILDREN) - worker_cpu
    peak = _peak_rss_mb()

    reps = SWEEP_SCENARIOS * SWEEP_REPS
    dataset, manifest = (os.path.join(j1_dir, name) for name in ("dataset.csv", "manifest.csv"))
    layers = _world_layers(worlds, _extinction_steps(dataset))
    layers.update(zip(J2_CPU, (parent_cpu, worker_cpu)))
    layers["montecarlo.write_dataset.bytes"] = os.path.getsize(dataset)
    same = {
        name: filecmp.cmp(os.path.join(j1_dir, name), os.path.join(j2_dir, name), shallow=False)
        for name in ("dataset.csv", "manifest.csv")
    }
    return {
        "peak_rss_mb": peak,
        "ratios": {
            "primary_per_s": [reps, j1_s],
            "secondary_per_s": [reps, j2_s],
            "sweep_reps_per_s_j1": [reps, j1_s],
            "sweep_reps_per_s_j2": [reps, j2_s],
        },
        "times": {"sweep_j1": j1_s, "sweep_j2": j2_s},
        "traced_s": j1_s,
        "checks": [
            ["--jobs 1 and --jobs 2 dataset.csv are byte-identical", same["dataset.csv"]],
            ["--jobs 1 and --jobs 2 manifest.csv are byte-identical", same["manifest.csv"]],
            [
                "dataset.csv has scenarios x replications x horizon rows",
                _data_lines(dataset) == reps * grid.horizon,
            ],
        ],
        "outputs": {"dataset.csv": dataset, "manifest.csv": manifest},
        "layers": layers,
    }


def analyze_dataset(sd, inputs, out, tracer):
    from workloads import (
        BOX_METRIC,
        BOX_STEP,
        DATASET_REPS,
        DATASET_SCENARIOS,
        DATASET_STEPS,
        QUANTILE_METRIC,
    )

    dataset = os.path.join(inputs, "dataset.csv")
    files = {
        name: os.path.join(out, name)
        for name in ("quantiles.csv", "boxes.csv", "quantiles.svg", "boxes.svg")
    }
    quantiles_s = _timed(
        sd.cli, ["analyze", dataset, "--metric", QUANTILE_METRIC, "--out", files["quantiles.csv"]]
    )
    lines_s = _timed(
        sd.cli,
        ["plot", files["quantiles.csv"], "--kind", "lines", "--metric", QUANTILE_METRIC,
         "--out", files["quantiles.svg"]],
    )
    boxes_s = _timed(
        sd.cli,
        ["analyze", dataset, "--metric", BOX_METRIC, "--box-at", str(BOX_STEP),
         "--out", files["boxes.csv"]],
    )
    box_plot_s = _timed(
        sd.cli,
        ["plot", files["boxes.csv"], "--kind", "boxes", "--metric", BOX_METRIC,
         "--step", str(BOX_STEP), "--out", files["boxes.svg"]],
    )
    peak = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    rows = len(DATASET_SCENARIOS) * DATASET_REPS * DATASET_STEPS
    scenarios = len(DATASET_SCENARIOS)
    return {
        "peak_rss_mb": peak,
        "ratios": {
            "primary_per_s": [rows, quantiles_s + lines_s],
            "secondary_per_s": [rows, boxes_s + box_plot_s],
            "analyze_quantiles_rows_per_s": [rows, quantiles_s],
            "analyze_boxes_rows_per_s": [rows, boxes_s],
            "plot_s": [lines_s + box_plot_s, 1],
        },
        "times": {
            "analyze_quantiles": quantiles_s,
            "plot_lines": lines_s,
            "analyze_boxes": boxes_s,
            "plot_boxes": box_plot_s,
        },
        "traced_s": quantiles_s + lines_s + boxes_s + box_plot_s,
        "checks": [
            [
                "quantile table has scenarios x steps x 5 rows",
                _data_lines(files["quantiles.csv"]) == scenarios * DATASET_STEPS * 5,
            ],
            ["box table has one row per scenario", _data_lines(files["boxes.csv"]) == scenarios],
            ["quantile lines SVG parses", _svg_parses(files["quantiles.svg"])],
            ["notched boxes SVG parses", _svg_parses(files["boxes.svg"])],
        ],
        "outputs": files,
        # each analyze reads the whole dataset once
        "layers": {
            "montecarlo.read_dataset.rows": 2 * rows,
            "svg.render_quantile_lines.bytes": os.path.getsize(files["quantiles.svg"]),
        },
    }


WORKLOADS = {
    "endemic_run": endemic_run,
    "subcritical_sweep": subcritical_sweep,
    "analyze_dataset": analyze_dataset,
}

# set-up after the import: parameters, grid and the first world; analyze
# reads no parameters and builds no world
SETUPS = {
    "endemic_run": endemic_setup,
    "subcritical_sweep": sweep_setup,
    "analyze_dataset": lambda sd, inputs: None,
}


# counts a workload takes from its own outputs and inputs, not from spans
OUTPUT_COUNTS = (
    "montecarlo.write_dataset.bytes",
    "montecarlo.read_dataset.rows",
    "ode.integrate.steps",
    "svg.render_quantile_lines.bytes",
)


def layer_values(tracer, extra: dict) -> dict:
    """Every per-layer value a traced repetition gives, zero for unused layers."""
    values = dict.fromkeys(WORLD_COUNTS + ("abm.extinction_step",) + J2_CPU + OUTPUT_COUNTS, 0)
    for name, row in tracer.summary().items():
        for field, value in row.items():
            values[f"{name}.{field}"] = value
    for name, calls in tracer.calls.items():
        values[f"{name}.calls"] = calls
    values.update(extra)
    return values


def _import_sepaird():
    import sepaird
    import sepaird.cli

    here = os.path.realpath(os.path.dirname(sepaird.__file__))
    if here != os.path.realpath(os.path.join(SRC, "sepaird")):
        raise SystemExit(f"rep: imported sepaird from {here}, not from {SRC}")
    return sepaird


def setup_probe(workload: str, inputs: str) -> float:
    import numpy  # noqa: F401  numpy's own import is not sepaird's set-up

    start = clock()
    sepaird = _import_sepaird()
    SETUPS[workload](sepaird, inputs)
    return clock() - start


def reference_kernel() -> float:
    """Seconds of a fixed loop of dict, float and numpy work that does not
    touch sepaird: how fast the host runs right now, a yardstick that no
    change to sepaird can move."""
    import random

    import numpy as np

    draws = random.Random(1)
    totals = {}
    start = clock()
    for i in range(60000):
        key = i % 997
        totals[key] = totals.get(key, 0.0) + draws.random()
    values = np.arange(200000, dtype=float)
    for _ in range(20):
        values = np.sqrt(values + 1.0)
    return clock() - start


def main(argv) -> int:
    if argv[0] == "--setup":
        setup_s = setup_probe(*argv[1:3])
        print(repr(setup_s), repr(reference_kernel()))
        return 0
    workload, inputs, out, result_path = argv[:4]
    traced = "--trace" in argv[4:]
    sepaird = _import_sepaird()
    import numpy

    import tracer as tracing

    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install(sepaird)
    try:
        result = WORKLOADS[workload](sepaird, inputs, out, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["digests"] = {name: _sha256(path) for name, path in result.pop("outputs").items()}
    result["reference_s"] = REFERENCE_SAMPLES
    result["env"] = {"sepaird": sepaird.__version__, "numpy": numpy.__version__}
    extra = result.pop("layers")
    if tracer is not None:
        result["layers"] = layer_values(tracer, extra)
        tracer.write(os.path.join(out, "spans.csv"))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
