"""Cross-version determinism pins.

The other determinism tests compare two runs made in one process; these
compare against sha256 digests recorded once, so a change of code or of a
library version that moves a single simulated or written byte fails here.
A change that alters these digests on purpose must say so and why.
"""

import hashlib
import os
import random

import numpy as np
import pytest

from sepaird.abm import init_world, run
from sepaird.cli import main
from sepaird.montecarlo import (
    SweepDataset,
    SweepGrid,
    quantile_series,
    sweep,
    write_dataset,
    write_manifest,
)
from sepaird.params import SimParams, params_to_config
from sepaird.svg import render_quantile_lines

WORLD_DIGESTS = {
    "mutation_free": (
        dict(mutation_prob=0.0),
        "9ba5cd1fb6d0a50babdc0988ce8e876e42401eeee8eb5d5df803dc97c474d35d",
    ),
    "default": (
        dict(),
        "393c0c862f8882f222bada587545d4c5a0716965773eacc2c61d3f50a018f921",
    ),
    "high_mutation_drift": (
        dict(mutation_prob=0.1, drift_prob=0.5),
        "362a158c6d0e7f030ff17ef717c2c74661f56ae98746cf73ef6337d38e38554c",
    ),
    # every immunity-walk draw fails at psi 0; the run opens 1,337 clusters
    "psi0_mutation_drift": (
        dict(cross_immunity=0.0, mutation_prob=0.1, drift_prob=0.5),
        "0e576ddee727d18b010d9380082ba91cfbfffa10393b4e5a719ada8d60958e97",
    ),
    "psi09_mutation_drift": (
        dict(cross_immunity=0.9, mutation_prob=0.1, drift_prob=0.5),
        "3bc276cad33e3f6ffd2e907ffcb94384f3f4df2ff6a8a00e6868f3ecb807657c",
    ),
    # every immunity-walk draw succeeds at psi 1
    "psi1_mutation_drift": (
        dict(cross_immunity=1.0, mutation_prob=0.05, drift_prob=0.3),
        "ef2241a093d10f287a5820fefb760549c6cfb5401decb1f9f7ddc01f64011da3",
    ),
    # isolation on, and 597 of 2,000 agents die, leaving gaps in the living
    "isolation_high_fatality": (
        dict(isolate_symptomatic=True, fatality0=0.3, mutation_prob=0.1, drift_prob=0.5),
        "dd3519d62a1811dffc4e6c3e9fba654c7cafede34ff0a84580e4cae8e7838d37",
    ),
}

DATASET_DIGEST = "ef307d93e16975c7613f4c961f1bcf5505f2f3e37de4404418306c22e012bfc8"
MANIFEST_DIGEST = "f1520670ef020fa6b0ef30005cb149e57bc6a0aff40ae94713c4210b9b186ed1"
SVG_DIGEST = "7225ab0091639d0e54fabdfc0a55ed75887573454c71136ae36077034227302d"
EVENTS_DIGEST = "4d2227ce4c18b631524ecfb671f78586c8e42bfd6e65785950c277f47fcaa35d"
ODE_DIGEST = "ee726b6a6d0df8d450de39cb957ff77b42bf7ff8b6625db8b56d6c888af6df05"
# every replication of this grid dies out inside the horizon (steps 15-139 of 150)
SUBCRITICAL_DATASET_DIGEST = "86cf0169c03e2ccb9516cc4435768ee1ac1a4ab773284e8e0d225d7e19b72949"
# default SimParams(seed=42): 10k agents, 500 steps, about 125k infections
BENCH_SIZE_DIGEST = "83c2140371db46ed4e72706f283a670c39a76cdbd3e7d530140fbb8f2749221f"
# `sepaird analyze` output per (input, mode); the box step has outliers in both inputs
ANALYZE_MODES = {
    "quantiles": ["--metric", "cumulative_infected_share"],
    "levels": ["--metric", "mortality", "--quantiles", "0.1,0.5,0.9"],
    "boxes": ["--metric", "mortality", "--box-at", "150"],
}
ANALYZE_DIGESTS = {
    ("demo", "quantiles"): "e634e5b6b99eba5f3aae76fe605876c3180e7018399fdc80db268be66730718f",
    ("demo", "levels"): "0b1706444034431a274d4ce3332ed46c4b01daf04c7c91fc427a9c87f8884313",
    ("demo", "boxes"): "66b0b55278e98583f797dd5eb44b64180a27d7c0674733cda8df0d7562394dbe",
    ("ragged", "quantiles"): "bae82fa34e534c244fd422c23cffba8936608874b16ca936c7c1ed9c9775ee4f",
    ("ragged", "levels"): "f3d2d110962d9e96b1049acde9e015eb84308eb04bb8546140d7bab6ec077c4a",
    ("ragged", "boxes"): "764f53f1d82d0057ee90397237eec6be7facda8221523af2cde0e804f1645732",
    ("resized", "quantiles"): "ce7ebe823f86ed52e4fb79a976a6b462872afd182a7f3cd2c25aa0eff8a6139a",
    ("resized", "boxes"): "6de8260c2b4bbafe00d4694bbbb0301dcb9629659270a12e534ddf94cd99de63",
}
DEMO_DATASET = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos", "output", "dataset.csv"
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pin_message(what: str) -> str:
    return f"{what} bytes changed (numpy {np.__version__})"


@pytest.mark.parametrize("name", sorted(WORLD_DIGESTS))
def test_world_state_bytes_are_pinned(name):
    overrides, digest = WORLD_DIGESTS[name]
    p = SimParams(n_agents=2000, horizon=200, seed=7, **overrides)
    w = run(init_world(p))
    assert _sha256(w.state_bytes()) == digest, _pin_message(f"state of {name} run")


def test_event_logging_keeps_state_bytes():
    # deaths and recoveries are logged in a pass of their own; it must make
    # no draw, so the logged run ends in the pinned state of the unlogged one
    overrides, digest = WORLD_DIGESTS["high_mutation_drift"]
    p = SimParams(n_agents=2000, horizon=200, seed=7, **overrides)
    w = run(init_world(p, log_events=True))
    assert _sha256(w.state_bytes()) == digest, _pin_message("state of logged run")
    kinds = [event[1] for event in w.events]
    assert kinds.count("infection") == w.cum_infections
    assert kinds.count("death") == w.cum_deaths


def test_bench_size_state_bytes_are_pinned():
    w = run(init_world(SimParams(seed=42)))
    assert _sha256(w.state_bytes()) == BENCH_SIZE_DIGEST, _pin_message("state of default 10k run")


def test_event_log_is_pinned(tmp_path):
    config = tmp_path / "p.cfg"
    config.write_text(params_to_config(SimParams(n_agents=2000, horizon=200, seed=7)))
    events = tmp_path / "events.csv"
    out = tmp_path / "run.csv"
    assert main(["run", str(config), "--out", str(out), "--events", str(events)]) == 0
    assert _sha256(events.read_bytes()) == EVENTS_DIGEST, _pin_message("event log of default run")


def test_ode_csv_is_pinned(tmp_path):
    config = tmp_path / "p.cfg"
    config.write_text(params_to_config(SimParams()))
    out = tmp_path / "ode.csv"
    assert main(["ode", str(config), "--horizon", "200", "--dt", "0.05", "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == ODE_DIGEST, _pin_message("ode CSV of default params")


@pytest.fixture(scope="module")
def tiny_sweep():
    grid = SweepGrid(
        base=SimParams(n_agents=200, n_initial_infected=5, horizon=20, seed=42),
        mutation_prob=(0.0, 0.05),
        cross_immunity=(0.5,),
        cross_protection=(0.99,),
        isolate_symptomatic=(False, True),
        social_distancing=(0.0,),
        replications=3,
    )
    return grid, SweepDataset.from_tables(sweep(grid))


def test_sweep_files_are_pinned(tmp_path, tiny_sweep):
    grid, dataset = tiny_sweep
    write_dataset(dataset, tmp_path / "dataset.csv")
    write_manifest(grid, tmp_path / "manifest.csv")
    data = (tmp_path / "dataset.csv").read_bytes()
    manifest = (tmp_path / "manifest.csv").read_bytes()
    assert _sha256(data) == DATASET_DIGEST, _pin_message("dataset.csv")
    assert _sha256(manifest) == MANIFEST_DIGEST, _pin_message("manifest.csv")


def test_quantile_svg_is_pinned(tiny_sweep):
    _, dataset = tiny_sweep
    rows = quantile_series(dataset, "share_infected")
    svg = render_quantile_lines(rows, "share_infected").encode("utf-8")
    assert _sha256(svg) == SVG_DIGEST, _pin_message("quantile SVG")


def test_subcritical_sweep_is_pinned(tmp_path):
    grid = SweepGrid(
        base=SimParams(n_agents=500, horizon=150, seed=42),
        mutation_prob=(0.0, 0.05),
        cross_immunity=(0.9,),
        cross_protection=(0.99,),
        isolate_symptomatic=(False,),
        social_distancing=(0.6, 0.8),
        replications=4,
    )
    blocks = list(sweep(grid))
    extinct = [row.extinct for row in SweepDataset.from_tables(blocks).rows]
    assert any(extinct) and not all(extinct)
    # the blocks one at a time, as the sweep command writes them
    write_dataset(iter(blocks), tmp_path / "dataset.csv")
    data = (tmp_path / "dataset.csv").read_bytes()
    assert _sha256(data) == SUBCRITICAL_DATASET_DIGEST, _pin_message("subcritical dataset.csv")


# more than two of the reader's 4096-line blocks, with a blank line opening
# the second, so rows are read and grouped across block boundaries
RESIZED_ROWS = 9000
RESIZED_BLANK_AT = 4096


def _resized_copy(path) -> None:
    """The demo dataset's rows repeated in order up to ``RESIZED_ROWS``, with a
    blank line before data row ``RESIZED_BLANK_AT``, counted from 0."""
    with open(DEMO_DATASET, "r", encoding="utf-8") as fh:
        header, *body = fh.read().splitlines()
    rows = [body[i % len(body)] for i in range(RESIZED_ROWS)]
    rows.insert(RESIZED_BLANK_AT, "")
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def _ragged_copy(path) -> None:
    """The demo dataset with a fifth of its rows deleted and the rest shuffled,
    so aggregation groups hold 1 to 5 replications and arrive out of order."""
    with open(DEMO_DATASET, "r", encoding="utf-8") as fh:
        header, *body = fh.read().splitlines()
    rng = random.Random(2021)
    kept = [line for line in body if rng.random() >= 0.2]
    rng.shuffle(kept)
    path.write_text("\n".join([header, *kept]) + "\n", encoding="utf-8")


@pytest.mark.parametrize("source,mode", sorted(ANALYZE_DIGESTS))
def test_analyze_csv_is_pinned(tmp_path, source, mode):
    dataset = DEMO_DATASET
    if source != "demo":
        dataset = tmp_path / f"{source}.csv"
        {"ragged": _ragged_copy, "resized": _resized_copy}[source](dataset)
    out = tmp_path / "table.csv"
    assert main(["analyze", str(dataset), *ANALYZE_MODES[mode], "--out", str(out)]) == 0
    digest = _sha256(out.read_bytes())
    assert digest == ANALYZE_DIGESTS[source, mode], _pin_message(f"analyze {mode} of {source}")
