"""sepaird benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; sepaird is imported from the
``src`` directory beside ``bench``.  The workload's inputs are generated
from ``--seed`` (see ``workloads.py``).  Repetitions, each in a fresh
process (``rep.py``), run while at least half of the next one fits in
``--seconds``, and at least two run so their output digests can be
compared.

With ``--trace 0`` every repetition is untraced and the result holds the
end-to-end metrics named in ``BENCHMARK.json``.  Every workload reports the
same four.  The two rates count each workload's own unit of work per second
of wall time of its commands, summed over all repetitions:

    workload           primary_per_s                 secondary_per_s
    endemic_run        infections / `run`            ODE steps / `ode` (x4)
    subcritical_sweep  replications / `sweep -j1`    replications / `sweep -j2`
    analyze_dataset    rows / (`analyze` quantiles   rows / (`analyze --box-at`
                       + `plot --kind lines`)        + `plot --kind boxes`)

``setup_s`` is the median over set-up probes, fresh processes that do only
the program's set-up: the import of sepaird (numpy is imported before the
clock starts) plus, for the simulating workloads, ``load_params``, the grid
parse and validation and one ``init_world``.  ``SETUP_PROBES`` of them run
before every repetition.  ``peak_rss_mb`` (median) is the high-water mark
of the repetition's process.

The host this runs on changes speed by up to 1.7x for seconds to minutes
at a time, as other machines' work comes and goes, so measured rates of
one code spread by 15-30% from run to run.  So ``rep.reference_kernel``, a
fixed loop that does not touch sepaird, is timed in each probe and before
and after each timed command, and the three timings are reported as on a
host that runs that kernel in ``REFERENCE_S``: each set-up time is scaled
by its own probe's kernel, and each rate by ``host_slowdown``, the run's
mean kernel time over ``REFERENCE_S``.  A change to sepaird moves them exactly as it moves the
raw times.  The raw figures (setup_s, the two rates, host_slowdown), the
per-command figures (infections_per_s, ode_s, sweep_reps_per_s_j1/j2,
analyze_*_rows_per_s, plot_s) and failed_frac are printed above the result
and kept in the details file.

With ``--trace 1`` untraced and traced repetitions alternate and the result
holds the per-layer metrics, medians over the traced repetitions; layers a
workload does not run read 0.  ``trace.overhead`` is the traced over the
untraced wall time of the traced commands (the sweep is traced at
``--jobs 1`` only).

Every output check, and the digest comparison of each output file against
the first repetition, counts as one attempted operation.  The last line of
standard output is the JSON result; full details, the environment and the
digests go to ``.bench_out/<workload>-seed<N>-trace<T>.json`` and the
spans of the last traced repetition to ``.bench_out/<workload>-spans.csv``.
Exit codes: 0 measured, 1 a repetition crashed or timed out, 2 no sepaird
sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import rep
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
MIN_REPS = 2
# a nominal time of rep.reference_kernel, about what a 2-vCPU 2.1 GHz Xeon
# VM takes on a quiet host; the gated timings are given as if every kernel
# had taken this long
REFERENCE_S = 0.025
# set-up probes before each repetition, so that set-up is sampled all
# through the run and not in one stretch of the host's speed
SETUP_PROBES = 6
# a run must end within 180 s; no repetition starts after this
LAST_START_S = 120.0
CHILD_TIMEOUT_S = 150.0
FIGURE_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "infections_per_s": "1/s",
    "ode_s": "s",
    "sweep_reps_per_s_j1": "1/s",
    "sweep_reps_per_s_j2": "1/s",
    "analyze_quantiles_rows_per_s": "1/s",
    "analyze_boxes_rows_per_s": "1/s",
    "plot_s": "s",
    "primary_per_s": "1/s",
    "secondary_per_s": "1/s",
    "host_slowdown": "ratio",
}


class BenchError(RuntimeError):
    """A repetition crashed or timed out: nothing was measured."""


def _child(argv, env) -> str:
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out after {CHILD_TIMEOUT_S} s: {argv}") from None
    finally:
        # pool workers left behind by a crashed repetition share its group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {argv}\n{stderr[-4000:]}")
    return stdout


def _setup_probes(args, work: str, env) -> list:
    """(set-up seconds, reference kernel seconds) of SETUP_PROBES fresh
    processes."""
    argv = [sys.executable, os.path.join(HERE, "rep.py"), "--setup", args.workload,
            os.path.join(work, "inputs")]
    return [tuple(map(float, _child(argv, env).split())) for _ in range(SETUP_PROBES)]


def _repetition(args, index: int, traced: bool, work: str, env) -> dict:
    out = os.path.join(work, f"rep{index}")
    os.makedirs(out)
    result = os.path.join(work, f"rep{index}.json")
    argv = [sys.executable, os.path.join(HERE, "rep.py"), args.workload,
            os.path.join(work, "inputs"), out, result]
    start = time.monotonic()
    _child(argv + (["--trace"] if traced else []), env)
    wall = time.monotonic() - start
    with open(result, "r", encoding="utf-8") as fh:
        rep = json.load(fh)
    if traced:
        spans = os.path.join(OUT, f"{args.workload}-spans.csv")
        os.replace(os.path.join(out, "spans.csv"), spans)
        rep["spans"] = os.path.relpath(spans, ROOT)
    shutil.rmtree(out)
    rep.update(traced=traced, wall_s=wall)
    return rep


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def _checks(reps) -> list:
    """(name, ok) per output check and per digest compared with repetition 0."""
    checks = []
    for index, rep in enumerate(reps):
        checks += [(f"rep{index}: {name}", ok) for name, ok in rep["checks"]]
        if index:
            for name, digest in reps[0]["digests"].items():
                same = rep["digests"].get(name) == digest
                checks.append((f"rep{index}: {name} digest equals rep0", same))
    return checks


def _layer_metrics(args, spec, reps) -> dict:
    """Medians over the traced repetitions, plus the two ratios that need
    untraced ones."""
    median = statistics.median
    plain = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    values = {name: median([rep["layers"][name] for rep in traced]) for name in traced[0]["layers"]}
    values["trace.overhead"] = median([r["traced_s"] for r in traced]) / median(
        [r["traced_s"] for r in plain]
    )
    values["montecarlo.sweep.speedup_j2"] = (
        median([r["times"]["sweep_j1"] / r["times"]["sweep_j2"] for r in plain])
        if args.workload == "subcritical_sweep"
        else 0
    )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}


def _figures(reps) -> dict:
    """Medians of the per-repetition scalars; each ratio summed over the
    repetitions, so a rate is all the work over all the time it took."""
    figures = {"peak_rss_mb": statistics.median([rep["peak_rss_mb"] for rep in reps])}
    for name in reps[0]["ratios"]:
        figures[name] = sum(rep["ratios"][name][0] for rep in reps) / sum(
            rep["ratios"][name][1] for rep in reps
        )
    return figures


def _end_to_end(figures, probes) -> dict:
    """The gated metrics: timings as on a host that runs the reference
    kernel in REFERENCE_S.  Each set-up time is corrected by the kernel run
    in its own probe, the rates by ``host_slowdown``."""
    return {
        "setup_s": statistics.median(setup * REFERENCE_S / ref for setup, ref in probes),
        "primary_per_s": figures["primary_per_s"] * figures["host_slowdown"],
        "secondary_per_s": figures["secondary_per_s"] * figures["host_slowdown"],
        "peak_rss_mb": figures["peak_rss_mb"],
    }


def measure(args) -> dict:
    started = time.monotonic()
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    work = os.path.join(OUT, f"work-{args.workload}-seed{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["TMPDIR"] = os.path.join(work, "tmp")
    # every import reads compiled bytecode, whatever the caller's settings
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    try:
        os.makedirs(env["TMPDIR"])
        facts = workloads.make_inputs(args.workload, args.seed, os.path.join(work, "inputs"))
        _child([sys.executable, "-c", "import sepaird.cli"], env)  # writes the .pyc files
        reps, probes, cycles = [], [], []
        while True:
            cycle = time.monotonic()
            probes += _setup_probes(args, work, env)
            traced = bool(args.trace) and len(reps) % 2 == 1
            reps.append(_repetition(args, len(reps), traced, work, env))
            cycles.append(time.monotonic() - cycle)
            elapsed = time.monotonic() - started
            # start another cycle of probes and repetition while at least
            # half of it fits in --seconds
            if len(reps) >= MIN_REPS and (
                elapsed + max(cycles[-2:]) / 2 > args.seconds or elapsed > LAST_START_S
            ):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = _checks(reps)
    failed = sum(1 for _, ok in checks if not ok)
    plain = [rep for rep in reps if not rep["traced"]]
    figures = _figures(plain)
    figures["setup_s"] = statistics.median(setup for setup, _ in probes)
    figures["failed_frac"] = failed / len(checks)
    kernels = [ref for _, ref in probes] + [ref for rep in plain for ref in rep["reference_s"]]
    figures["host_slowdown"] = statistics.fmean(kernels) / REFERENCE_S
    if args.trace:
        metrics = _layer_metrics(args, spec, reps)
    else:
        values = _end_to_end(figures, probes)
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": facts,
        "env": {
            "python": platform.python_version(),
            "numpy": reps[0]["env"]["numpy"],
            "sepaird": reps[0]["env"]["sepaird"],
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": _git_commit(),
        },
        "metrics": metrics,
        "figures": figures,
        "checks": [[name, ok] for name, ok in checks],
        "digests": reps[0]["digests"],
        "setup_and_reference_s": probes,
        "repetitions": reps,
    }
    return {"correct": failed == 0, "attempted": len(checks), "failed": failed,
            "metrics": metrics, "details": details}


def _print_report(result, path) -> None:
    details = result["details"]
    print(f"workload {details['workload']}  seed {details['seed']}  "
          f"repetitions {len(details['repetitions'])}  "
          f"checks {result['attempted'] - result['failed']}/{result['attempted']} passed")
    print("environment " + "  ".join(f"{k}={v}" for k, v in details["env"].items()))
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print("figures of the untraced repetitions, as measured:")
    for name, value in details["figures"].items():
        print(f"  {name:40s} {value:>16.6g} {FIGURE_UNITS[name]}")
    for name, ok in details["checks"]:
        if not ok:
            print(f"  FAILED {name}")
    for name, digest in details["digests"].items():
        print(f"  sha256 {digest}  {name}")
    print(f"details: {os.path.relpath(path, ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(rep.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills its repetition's process group on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "sepaird", "__init__.py")):
        print(f"bench: no sepaird sources at {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result["details"], fh, indent=1)
    _print_report(result, path)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
