import builtins
import dataclasses
import errno
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from sepaird.cli import main
from sepaird.montecarlo import (
    BOX_COLUMNS,
    CSV_COLUMNS,
    QUANTILE_COLUMNS,
    DatasetError,
    _BLOCK,
    read_dataset,
)
from sepaird.ode import MAX_STEPS, abm_to_ode, effective_reproduction, integrate, seeded_state
from sepaird.params import SimParams, params_to_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO_DATASET = os.path.join(ROOT, "demos", "output", "dataset.csv")
FAST = SimParams(n_agents=300, n_initial_infected=5, mutation_prob=0.05,
                 drift_prob=0.3, horizon=12, seed=3)


@pytest.fixture()
def config(tmp_path):
    path = tmp_path / "params.cfg"
    path.write_text(params_to_config(FAST))
    return str(path)


@pytest.fixture()
def grid_file(tmp_path):
    path = tmp_path / "grid.cfg"
    path.write_text("mutation_prob = 0.0, 0.05\nsocial_distancing = 0.0, 0.4\n")
    return str(path)


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# -- run -----------------------------------------------------------------


def test_run_writes_per_step_dataset(config, tmp_path):
    out = tmp_path / "run.csv"
    assert main(["run", config, "--out", str(out)]) == 0
    ds = read_dataset(out)
    assert len(ds.rows) == FAST.horizon
    assert [r.step for r in ds.rows] == list(range(1, FAST.horizon + 1))
    assert all(r.replication == 0 for r in ds.rows)
    header = out.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_run_is_deterministic(config, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", config, "--out", str(a)]) == 0
    assert main(["run", config, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_seed_override_changes_outcome(config, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["run", config, "--out", str(a)])
    main(["run", config, "--seed", "99", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_run_seed_outside_64_bits_is_usage_error(config, tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main(["run", config, "--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sepaird run: seed") and err.count("\n") == 1
    assert not out.exists()


def test_run_events_audit(config, tmp_path):
    out, events = tmp_path / "run.csv", tmp_path / "events.csv"
    assert main(["run", config, "--out", str(out), "--events", str(events)]) == 0
    lines = events.read_text().splitlines()
    assert lines[0] == "step,event,agent,variant,cluster"
    assert len(lines) > 1
    kinds = {line.split(",")[1] for line in lines[1:]}
    assert kinds <= {"infection", "mutation", "drift", "death", "recovery"}


def test_run_missing_config_is_io_error(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main(["run", str(tmp_path / "absent.cfg"), "--out", str(out)]) == 3
    assert "sepaird run:" in capsys.readouterr().err
    assert not out.exists()


def test_run_invalid_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_agents = -5\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert "sepaird run:" in capsys.readouterr().err


def test_run_impossible_population_is_usage_error(tmp_path, capsys):
    # 10**15 agents need 909 TiB for their alive flags, beyond any user
    # address space, so the allocation fails before touching memory
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(params_to_config(dataclasses.replace(FAST, n_agents=10**15)))
    out = tmp_path / "run.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sepaird run: ") and err.count("\n") == 1
    assert not out.exists()


def test_run_unwritable_output_is_io_error(config, tmp_path, capsys):
    target = tmp_path / "missing-dir" / "run.csv"
    assert main(["run", config, "--out", str(target)]) == 3
    assert "sepaird run:" in capsys.readouterr().err


def test_run_touches_nothing_but_declared_outputs(config, tmp_path, monkeypatch):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.chdir(scratch)
    out = tmp_path / "run.csv"
    assert main(["run", config, "--out", str(out)]) == 0
    assert os.listdir(scratch) == []


# -- ode -----------------------------------------------------------------


def test_ode_trajectory_csv(config, tmp_path):
    out = tmp_path / "ode.csv"
    assert main(["ode", config, "--horizon", "10", "--dt", "0.5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,S,E,P,A,I,R,D,Rt"
    assert len(lines) == 1 + 21  # grid points 0.0, 0.5, ..., 10.0
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == FAST.n_agents - FAST.n_initial_infected
    assert float(first[-1]) == pytest.approx(2.5 * (295 / 300))


@pytest.mark.parametrize("overrides", [
    {},
    {"isolate_symptomatic": True, "social_distancing": 0.3},
], ids=["default", "isolated-distanced"])
def test_ode_csv_matches_formatting_every_row(tmp_path, overrides):
    # 10,001 rows: more than two of the writer's 4,096-row blocks
    p = dataclasses.replace(FAST, **overrides)
    cfg = tmp_path / "params.cfg"
    cfg.write_text(params_to_config(p))
    out = tmp_path / "ode.csv"
    assert main(["ode", str(cfg), "--horizon", "500", "--dt", "0.05", "--out", str(out)]) == 0
    op = abm_to_ode(p)
    trajectory = integrate(seeded_state(p.n_agents, p.n_initial_infected, "P"), op, 500.0, 0.05)
    expected = ["t,S,E,P,A,I,R,D,Rt\n"]
    for t, row in zip(trajectory.times.tolist(), trajectory.states):
        cells = [t, *row.tolist(), effective_reproduction(row.tolist(), op)]
        expected.append(",".join(map(repr, cells)) + "\n")
    lines = out.read_text().splitlines(keepends=True)
    assert len(lines) == len(expected) == 1 + 10_001
    # the first differing line, not a diff of 1.7 MB of text
    differ = next((i for i, pair in enumerate(zip(lines, expected)) if pair[0] != pair[1]), None)
    assert differ is None, f"line {differ + 1}: {lines[differ]!r} != {expected[differ]!r}"


def test_ode_defaults_to_config_horizon(config, tmp_path):
    out = tmp_path / "ode.csv"
    assert main(["ode", config, "--dt", "1.0", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + FAST.horizon + 1


def test_ode_rejects_degenerate_phases(tmp_path, capsys):
    cfg = tmp_path / "degenerate.cfg"
    cfg.write_text(params_to_config(dataclasses.replace(FAST, incubation_end0=4.0)))
    assert main(["ode", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert "course ordering" in capsys.readouterr().err


@pytest.mark.parametrize("arguments,message", [
    (["--dt", "nan"], "must be finite"),
    (["--horizon", "nan"], "must be finite"),
    (["--horizon", "inf"], "must be finite"),
    (["--dt", "1e-15"], f"more than {MAX_STEPS} steps"),
    (["--horizon", "1.1", "--dt", "0.4"], "horizon 1.1 is not a whole number of steps of dt 0.4"),
    (["--horizon", "1.0", "--dt", "0.4"], "horizon 1.0 is not a whole number of steps of dt 0.4"),
], ids=["--dt-nan", "--horizon-nan", "--horizon-inf", "--dt-1e-15", "--horizon-1.1-past",
        "--horizon-1.0-short"])
def test_ode_rejects_non_finite_arguments(config, tmp_path, capsys, arguments, message):
    out = tmp_path / "x.csv"
    assert main(["ode", config, *arguments, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sepaird ode: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


# -- sweep ---------------------------------------------------------------


def test_sweep_writes_dataset_and_manifest(config, grid_file, tmp_path):
    out = tmp_path / "sweepdir"
    assert main(["sweep", config, "--grid", grid_file, "--reps", "2",
                 "--out", str(out)]) == 0
    ds = read_dataset(out / "dataset.csv")
    assert len(ds.rows) == 4 * 2 * FAST.horizon
    manifest = (out / "manifest.csv").read_text().splitlines()
    assert len(manifest) == 1 + 4 * 2


def test_sweep_worker_count_never_changes_output(config, grid_file, tmp_path):
    solo, duo = tmp_path / "solo", tmp_path / "duo"
    assert main(["sweep", config, "--grid", grid_file, "--reps", "1",
                 "--out", str(solo), "--jobs", "1"]) == 0
    assert main(["sweep", config, "--grid", grid_file, "--reps", "1",
                 "--out", str(duo), "--jobs", "2"]) == 0
    assert (solo / "dataset.csv").read_bytes() == (duo / "dataset.csv").read_bytes()
    assert (solo / "manifest.csv").read_bytes() == (duo / "manifest.csv").read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_progress_reports_on_stderr_only(config, grid_file, tmp_path, capsys, jobs):
    argv = ["sweep", config, "--grid", grid_file, "--reps", "2", "--jobs", jobs]
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    assert main(argv + ["--out", str(quiet)]) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert main(argv + ["--out", str(loud), "--progress"]) == 0
    reported = capsys.readouterr()
    assert reported.out == plain.out
    lines = reported.err.splitlines()
    pattern = re.compile(r"sweep: (\d+)/8 replications, [0-9.e+]+/s, ETA \d+:\d\d:\d\d")
    matches = [pattern.fullmatch(line) for line in lines]
    assert all(matches), lines
    assert [int(m.group(1)) for m in matches] == list(range(1, 9))
    assert lines[-1].endswith("ETA 0:00:00")
    for name in ("dataset.csv", "manifest.csv"):
        assert (quiet / name).read_bytes() == (loud / name).read_bytes()


def test_sweep_jobs_env_fallback(config, grid_file, tmp_path, monkeypatch):
    monkeypatch.setenv("SEPAIRD_JOBS", "2")
    out = tmp_path / "enva"
    assert main(["sweep", config, "--grid", grid_file, "--reps", "1",
                 "--out", str(out)]) == 0
    assert (out / "dataset.csv").exists()


def test_sweep_rejects_bad_jobs_env(config, grid_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SEPAIRD_JOBS", "many")
    assert main(["sweep", config, "--grid", grid_file, "--reps", "1",
                 "--out", str(tmp_path / "x")]) == 2
    assert "SEPAIRD_JOBS" in capsys.readouterr().err


@pytest.mark.parametrize("flag,env", [("0", None), ("-5", None), (None, "0")])
def test_sweep_rejects_jobs_below_one(config, grid_file, tmp_path, monkeypatch, capsys,
                                      flag, env):
    argv = ["sweep", config, "--grid", grid_file, "--reps", "1", "--out", str(tmp_path / "x")]
    if flag is not None:
        argv += ["--jobs", flag]
    if env is not None:
        monkeypatch.setenv("SEPAIRD_JOBS", env)
    assert main(argv) == 2
    assert "jobs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "x" / "dataset.csv").exists()
    assert not (tmp_path / "x").exists()


def test_sweep_rejected_grid_leaves_no_output_dir(config, tmp_path, capsys):
    grid = tmp_path / "grid.cfg"
    grid.write_text("social_distancing = 0.0, 1.5\n")
    assert main(["sweep", config, "--grid", str(grid), "--reps", "1",
                 "--out", str(tmp_path / "x")]) == 2
    assert "social_distancing out of [0,1]" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_sweep_unaddressable_table_leaves_no_output_dir(grid_file, tmp_path, capsys):
    # 4 scenarios x 10**6 replications x 10**12 steps: far past 2**63 bytes
    cfg = tmp_path / "long.cfg"
    cfg.write_text(params_to_config(dataclasses.replace(FAST, horizon=10**12)))
    assert main(["sweep", str(cfg), "--grid", grid_file, "--reps", str(10**6),
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sepaird sweep: ") and err.count("\n") == 1
    assert "too large" in err
    assert not (tmp_path / "x").exists()


def test_sweep_reads_negative_zero_config_as_zero(tmp_path):
    # -0.0 == 0.0, so the base config must key and seed the same scenario
    grid = tmp_path / "grid.cfg"
    grid.write_text("mutation_prob = 0.05\n")
    base = params_to_config(FAST)
    assert "social_distancing = 0.0\n" in base
    manifests = []
    for text in ("-0.0", "0.0"):
        cfg = tmp_path / f"p{text}.cfg"
        cfg.write_text(base.replace("social_distancing = 0.0\n", f"social_distancing = {text}\n"))
        out = tmp_path / f"out{text}"
        assert main(["sweep", str(cfg), "--grid", str(grid), "--reps", "2",
                     "--out", str(out)]) == 0
        manifests.append((out / "manifest.csv").read_bytes())
    assert manifests[0] == manifests[1]


def _env_with_src() -> dict:
    """This environment, with the package's sources first on the path of
    a child interpreter."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_import_leaves_multiprocessing_unloaded():
    # only a sweep with --jobs > 1 opens a pool; every other command starts
    # without paying for the import
    probe = "import sys, sepaird.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=_env_with_src(), check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out == "False\n"


def test_killed_sweep_leaves_a_prefix_of_its_dataset(grid_file, tmp_path):
    # outbreaks that persist in small worlds: ten blocks of rows in about a second
    cfg = tmp_path / "long.cfg"
    cfg.write_text(params_to_config(dataclasses.replace(FAST, n_agents=100, horizon=512)))
    argv = ["sweep", str(cfg), "--grid", grid_file, "--reps", "20", "--jobs", "1"]
    whole = tmp_path / "whole"
    assert main(argv + ["--out", str(whole)]) == 0
    dataset = (whole / "dataset.csv").read_bytes()
    assert dataset.count(b"\n") == 1 + 10 * _BLOCK
    # the end of the header and the first two blocks of rows
    two_blocks = len(b"".join(dataset.splitlines(keepends=True)[: 1 + 2 * _BLOCK]))
    killed = tmp_path / "killed"
    partial = killed / "dataset.csv.partial"
    proc = subprocess.Popen([sys.executable, "-m", "sepaird.cli", *argv, "--out", str(killed)],
                            env=_env_with_src(), start_new_session=True)
    try:
        deadline = time.monotonic() + 60.0
        while not (partial.exists() and partial.stat().st_size > two_blocks):
            assert proc.poll() is None, "the sweep ended before it was killed"
            assert time.monotonic() < deadline
            time.sleep(0.001)
    finally:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
    assert proc.returncode == -signal.SIGKILL
    written = partial.read_bytes()
    assert two_blocks < len(written) < len(dataset)
    assert dataset.startswith(written)
    assert not (killed / "dataset.csv").exists()
    assert (killed / "manifest.csv").read_bytes() == (whole / "manifest.csv").read_bytes()


def test_sweep_rejects_bad_grid(config, tmp_path, capsys):
    grid = tmp_path / "grid.cfg"
    grid.write_text("n_agents = 10, 20\n")
    assert main(["sweep", config, "--grid", str(grid), "--reps", "1",
                 "--out", str(tmp_path / "x")]) == 2
    assert "unknown key" in capsys.readouterr().err


# -- analyze ---------------------------------------------------------------


@pytest.fixture()
def dataset_file(config, tmp_path):
    out = tmp_path / "run.csv"
    main(["run", config, "--out", str(out)])
    return str(out)


def test_analyze_quantiles(dataset_file, tmp_path):
    out = tmp_path / "q.csv"
    assert main(["analyze", dataset_file, "--metric", "mortality",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].endswith("step,quantile,value")
    assert len(lines) == 1 + FAST.horizon * 5  # default levels


def test_analyze_custom_quantiles(dataset_file, tmp_path):
    out = tmp_path / "q.csv"
    assert main(["analyze", dataset_file, "--metric", "mortality",
                 "--quantiles", "0.5", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + FAST.horizon


def test_analyze_box(dataset_file, tmp_path):
    out = tmp_path / "box.csv"
    assert main(["analyze", dataset_file, "--metric", "share_infected",
                 "--box-at", str(FAST.horizon), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2  # one scenario


def test_analyze_box_without_data(dataset_file, tmp_path, capsys):
    assert main(["analyze", dataset_file, "--metric", "share_infected",
                 "--box-at", "999", "--out", str(tmp_path / "x.csv")]) == 2
    assert "no data at step" in capsys.readouterr().err


def test_analyze_unknown_metric(dataset_file, tmp_path, capsys):
    assert main(["analyze", dataset_file, "--metric", "bogus",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "unknown metric" in capsys.readouterr().err


def test_analyze_bad_quantile_list(dataset_file, tmp_path, capsys):
    assert main(["analyze", dataset_file, "--metric", "mortality",
                 "--quantiles", "abc", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["analyze", dataset_file, "--metric", "mortality",
                 "--quantiles", ",", "--out", str(tmp_path / "y.csv")]) == 2


@pytest.mark.parametrize(
    "request_args,message",
    [
        (["--metric", "bogus"], "unknown metric 'bogus'"),
        (["--metric", "mortality", "--quantiles", "0.5,1.5"], "quantile 1.5 out of [0,1]"),
        (["--metric", "mortality", "--quantiles", "abc"], "bad quantile list 'abc'"),
        (["--metric", "bogus", "--box-at", "1"], "unknown metric 'bogus'"),
    ],
    ids=["metric", "level", "list", "box-metric"],
)
def test_analyze_checks_the_request_before_reading(tmp_path, capsys, request_args, message):
    # the dataset does not exist, so a read would exit 3
    absent = str(tmp_path / "absent.csv")
    assert main(["analyze", absent, *request_args, "--out", str(tmp_path / "x.csv")]) == 2
    assert message in capsys.readouterr().err


def test_analyze_missing_dataset(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent.csv"), "--metric", "mortality",
                 "--out", str(tmp_path / "x.csv")]) == 3


def test_analyze_corrupt_dataset(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,dataset\n")
    assert main(["analyze", str(bad), "--metric", "mortality",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "header mismatch" in capsys.readouterr().err


def _with_last_cell(path, columns, column, text, out):
    """Copy the table at ``path`` to ``out`` with one cell of its last row replaced."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[-1].split(",")
    cells[columns.index(column)] = text
    lines[-1] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    return str(out)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("extra", [[], ["--box-at", str(FAST.horizon)]])
def test_analyze_rejects_non_finite_metric(dataset_file, tmp_path, capsys, value, extra):
    bad = _with_last_cell(dataset_file, CSV_COLUMNS, "mortality", value, tmp_path / "bad.csv")
    out = tmp_path / "x.csv"
    assert main(["analyze", bad, "--metric", "mortality", *extra, "--out", str(out)]) == 2
    assert "non-finite mortality value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "column,text",
    [("mean_r0", "abc"), ("extinct", "maybe"), ("mean_duration", "8.0\x00")],
    ids=["float", "bool", "nul"],
)
@pytest.mark.parametrize("extra", [[], ["--box-at", str(FAST.horizon)]], ids=["lines", "box"])
def test_analyze_checks_the_columns_it_does_not_keep(dataset_file, tmp_path, capsys,
                                                     column, text, extra):
    bad = _with_last_cell(dataset_file, CSV_COLUMNS, column, text, tmp_path / "bad.csv")
    with pytest.raises(DatasetError, match=f"^line {FAST.horizon + 1}: ") as full_read:
        read_dataset(bad)
    out = tmp_path / "x.csv"
    assert main(["analyze", bad, "--metric", "share_infected", *extra, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"sepaird analyze: {full_read.value}\n"
    assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["--box-at", "1"]], ids=["lines", "box"])
def test_analyze_rejects_an_empty_dataset(tmp_path, capsys, extra):
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(CSV_COLUMNS) + "\n")
    out = tmp_path / "x.csv"
    assert main(["analyze", str(empty), "--metric", "mortality", *extra, "--out", str(out)]) == 2
    assert "no data" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_analyze_rejects_non_finite_scenario_cell(tmp_path, capsys, value):
    # nan != nan, so each such row would be a one-replication group of its own
    with open(DEMO_DATASET, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    column = CSV_COLUMNS.index("mutation_prob")
    for i in range(7, len(lines), 7):
        cells = lines[i].split(",")
        cells[column] = value
        lines[i] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "x.csv"
    assert main(["analyze", str(bad), "--metric", "mortality", "--out", str(out)]) == 2
    assert "line 8: non-finite mutation_prob" in capsys.readouterr().err
    assert not out.exists()


# -- plot --------------------------------------------------------------------


@pytest.fixture()
def quantile_table(dataset_file, tmp_path):
    out = tmp_path / "q.csv"
    main(["analyze", dataset_file, "--metric", "mortality", "--out", str(out)])
    return str(out)


@pytest.fixture()
def box_table(dataset_file, tmp_path):
    out = tmp_path / "box.csv"
    main(["analyze", dataset_file, "--metric", "mortality",
          "--box-at", str(FAST.horizon), "--out", str(out)])
    return str(out)


def test_plot_lines(quantile_table, tmp_path):
    out = tmp_path / "lines.svg"
    assert main(["plot", quantile_table, "--kind", "lines",
                 "--metric", "mortality", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<svg") or text.startswith("<?xml")
    assert "</svg>" in text
    assert "mortality" in text


def test_plot_boxes(box_table, tmp_path):
    out = tmp_path / "boxes.svg"
    assert main(["plot", box_table, "--kind", "boxes", "--step",
                 str(FAST.horizon), "--out", str(out)]) == 0
    assert "</svg>" in out.read_text()


def test_plot_is_deterministic(quantile_table, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    main(["plot", quantile_table, "--kind", "lines", "--out", str(a)])
    main(["plot", quantile_table, "--kind", "lines", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_plot_empty_table(tmp_path, capsys):
    from sepaird.montecarlo import QUANTILE_COLUMNS

    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(QUANTILE_COLUMNS) + "\n")
    assert main(["plot", str(empty), "--kind", "lines",
                 "--out", str(tmp_path / "x.svg")]) == 2
    assert "no data" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-inf"])
@pytest.mark.parametrize("kind,column", [("lines", "value"), ("boxes", "median"),
                                         ("boxes", "outliers")])
def test_plot_rejects_non_finite_cell(quantile_table, box_table, tmp_path, capsys,
                                      value, kind, column):
    table = quantile_table if kind == "lines" else box_table
    columns = QUANTILE_COLUMNS if kind == "lines" else BOX_COLUMNS
    bad = _with_last_cell(table, columns, column, value, tmp_path / "bad.csv")
    out = tmp_path / "x.svg"
    assert main(["plot", bad, "--kind", kind, "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep", "analyze", "plot"])
def test_undecodable_input_is_a_usage_error(config, tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe" + "n_agents = 10\n".encode("utf-16-le"))
    out = str(tmp_path / "out")
    argv = {
        "run": ["run", str(bad), "--out", out],
        "sweep": ["sweep", config, "--grid", str(bad), "--reps", "1", "--out", out],
        "analyze": ["analyze", str(bad), "--metric", "mortality", "--out", out],
        "plot": ["plot", str(bad), "--kind", "lines", "--out", out],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"sepaird {command}: ") and err.count("\n") == 1
    assert "can't decode" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["ode", "plot"])
def test_stopped_write_leaves_an_earlier_output_as_it_was(config, quantile_table, tmp_path,
                                                          monkeypatch, capsys, command):
    out = tmp_path / "out"
    out.write_text("an earlier output\n")
    real_open = builtins.open

    def open_on_a_full_disk(file, mode="r", *args, **kwargs):
        # a file opened for writing takes ten characters, then the disk is full
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode:
            write = fh.write

            def write_until_full(text):
                write(text[:10])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            fh.write = write_until_full
        return fh

    monkeypatch.setattr(builtins, "open", open_on_a_full_disk)
    argv = {
        "ode": ["ode", config],
        "plot": ["plot", quantile_table, "--kind", "lines"],
    }[command]
    assert main([*argv, "--out", str(out)]) == 3
    assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
    assert out.read_text() == "an earlier output\n"
    assert not list(tmp_path.glob("*.partial"))


def test_plot_requires_kind(quantile_table, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["plot", quantile_table, "--kind", "spirals",
              "--out", str(tmp_path / "x.svg")])
    assert exc.value.code == 2
