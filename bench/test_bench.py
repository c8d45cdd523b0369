"""Tests of the benchmark's own parts: span arithmetic, patch sites and the
generated dataset.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import sepaird  # noqa: E402
import sepaird.cli  # noqa: E402
from sepaird.montecarlo import CSV_COLUMNS, read_dataset  # noqa: E402

import rep  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    names = ["a", "b", "c"]
    # a [0, 10] holds b [1, 4] and b [5, 9]; the first b holds c [2, 3]
    name_of = [0, 1, 2, 1]
    parent_of = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    out = tracing.summarize(names, name_of, parent_of, start, end)
    assert out["a"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert out["b"] == {"calls": 2, "s": 7.0, "self_s": 6.0}
    assert out["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0}


def test_spans_nest_and_close_on_exceptions():
    ticks = iter(range(100))
    t = tracing.Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner = t.span("inner", inner)

    def outer():
        inner(1)
        with pytest.raises(ValueError):
            inner(-1)
        return inner(2)

    assert t.span("outer", outer)() == 2
    assert list(t.parent_of) == [-1, 0, 0, 0]
    assert [t.names[i] for i in t.name_of] == ["outer", "inner", "inner", "inner"]
    summary = t.summary()
    assert summary["inner"] == {"calls": 3, "s": 3.0, "self_s": 3.0}
    assert summary["outer"]["s"] == 7.0
    assert summary["outer"]["self_s"] == 4.0
    assert t._open == []


def _tiny_config(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "n_agents = 300\nn_initial_infected = 5\nhorizon = 30\n"
        "infectiousness0 = 0.2\nmutation_prob = 0.5\ndrift_prob = 0.5\nseed = 3\n"
    )
    return str(cfg)


def test_install_records_every_lookup_site_and_uninstall_restores(tmp_path):
    cfg = _tiny_config(tmp_path)
    plain = tmp_path / "plain.csv"
    traced = tmp_path / "traced.csv"
    originals = (sepaird.abm.spawn_variant, sepaird.montecarlo.run, sepaird.abm.World.try_infect)
    assert sepaird.cli.main(["run", cfg, "--out", str(plain)]) == 0

    t = tracing.Tracer()
    t.install(sepaird)
    try:
        assert sepaird.cli.main(["run", cfg, "--out", str(traced)]) == 0
    finally:
        t.uninstall()

    assert (sepaird.abm.spawn_variant, sepaird.montecarlo.run, sepaird.abm.World.try_infect) == (
        originals
    )
    assert plain.read_bytes() == traced.read_bytes()
    calls = {name: row["calls"] for name, row in t.summary().items()}
    for name in (
        "abm.contact_phase",
        "abm.try_infect",
        "abm.draw_course",
        "abm.progression_phase",
        "abm.grant_immunity",
        "variants.spawn_variant",
        "phylo.active_variant_stats",
        "montecarlo.metric_row",
    ):
        assert calls[name] > 0, name
    for name in ("abm.init_world", "abm.run", "montecarlo.collect_world_run",
                 "montecarlo.write_dataset"):
        assert calls[name] == 1, name
    assert calls["montecarlo.metric_row"] == 30
    assert all(t.calls[name] > 0 for name in ("rng.bernoulli", "rng.normal", "rng.uniform"))


def test_benchmark_json_names_only_metrics_the_benchmark_produces():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    produced = {
        f"{name}.{field}" for name, _ in tracing.SPANS for field in ("calls", "s", "self_s")
    }
    produced |= {f"{name}.calls" for name, _ in tracing.COUNTED}
    produced |= set(rep.WORLD_COUNTS + rep.J2_CPU + rep.OUTPUT_COUNTS)
    produced |= {"abm.extinction_step", "trace.overhead", "montecarlo.sweep.speedup_j2"}
    assert {m["name"] for m in spec["per_layer"]} <= produced
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "primary_per_s", "secondary_per_s", "peak_rss_mb"
    }
    assert {w["name"] for w in spec["workloads"]} == set(rep.WORKLOADS)


def test_generated_dataset_has_the_reader_schema(tmp_path):
    path = tmp_path / "dataset.csv"
    scenarios = workloads.DATASET_SCENARIOS[-4:]
    rows = workloads.write_dataset_csv(str(path), seed=5, scenarios=scenarios, reps=3, steps=40)
    assert rows == 4 * 3 * 40
    assert tuple(workloads.DATASET_COLUMNS) == tuple(CSV_COLUMNS)

    dataset = read_dataset(str(path))
    assert len(dataset.rows) == rows
    assert len(dataset.scenarios()) == 4
    for row in dataset.rows:
        for name in ("share_infected", "mortality", "cumulative_infected_share"):
            share = getattr(row, name)
            count = round(share * workloads.DATASET_AGENTS)
            assert share == count / workloads.DATASET_AGENTS
            assert 0 <= count <= workloads.DATASET_AGENTS
        assert isinstance(row.extinct, bool) and isinstance(row.isolate_symptomatic, bool)
        assert row.extinct == (row.share_infected == 0.0)
        assert (row.active_variant_count == 0) == row.extinct
    # mutating scenarios carry full-precision means
    digits = [len(cell) for line in path.read_text().splitlines()[1:]
              for cell in line.split(",")[10:12]]
    assert max(digits) >= 17


def test_generated_dataset_is_a_function_of_the_seed(tmp_path):
    def write(name, seed):
        path = tmp_path / name
        workloads.write_dataset_csv(
            str(path), seed=seed, scenarios=workloads.DATASET_SCENARIOS[:2], reps=2, steps=30
        )
        return path.read_bytes()

    assert write("a.csv", 11) == write("b.csv", 11)
    assert write("c.csv", 12) != write("a.csv", 11)


def test_setup_probe_runs_each_simulating_workloads_setup(tmp_path):
    assert set(rep.SETUPS) == set(rep.WORKLOADS)
    for workload in ("endemic_run", "subcritical_sweep"):
        inputs = str(tmp_path / workload)
        workloads.make_inputs(workload, 7, inputs)
        assert rep.setup_probe(workload, inputs) > 0.0


def test_end_to_end_timings_are_corrected_by_the_reference_kernel():
    import run

    ref = run.REFERENCE_S
    # probes on a host at full speed, then at half speed
    probes = [(0.05, ref), (0.05, ref), (0.1, 2 * ref), (0.1, 2 * ref), (0.1, 2 * ref)]
    figures = {"primary_per_s": 10.0, "secondary_per_s": 4.0, "peak_rss_mb": 50.0,
               "host_slowdown": 1.6}
    values = run._end_to_end(figures, probes)
    assert values["setup_s"] == pytest.approx(0.05)
    assert values["primary_per_s"] == pytest.approx(16.0)
    assert values["secondary_per_s"] == pytest.approx(6.4)
    assert values["peak_rss_mb"] == 50.0
