"""Benchmark workloads and the inputs each one is given.

Every input is a pure function of the workload seed: the same seed writes
the same bytes.  sepaird itself sees only these files, never the seed.

Each workload is a closed loop with a single client, a batch user who
starts the next command only after the previous one has finished.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

# -- endemic_run ---------------------------------------------------------------
# Why: at default SimParams (10k agents, 500 steps, phi=0.01, psi=0.5) the
# epidemic turns endemic: at seed 42, 124,732 infections in 6 s on a 2-vCPU
# 2.1 GHz Xeon VM.  The contact phase is about three quarters of the run, so
# this is where the per-infection Python work sits (try_infect, draw_course,
# spawn_variant, grant_immunity).  metric_row takes under 2%.  `ode` on the
# same file runs the compartmental reference beside it.
ODE_HORIZON = 500
ODE_DT = 0.05
ODE_CALLS = 4  # per repetition, half before and half after the agent run


def endemic_params(seed: int) -> str:
    return f"# default SimParams; only the seed comes from the benchmark\nseed = {seed}\n"


# -- subcritical_sweep ---------------------------------------------------------
# Why: distancing pushes R0 to <= 1 and almost every replication dies out,
# so the contact-phase work is mostly bypassed and per-step observation
# (metric_row, active_variant_stats), per-step array scans, pool transfer and
# the CSV writer do the work.  Distancing 0.6 and 0.8 are 2 of the 6 default
# distancing values, so scenarios like these are a third of the default grid.
# Run once at --jobs 1 and once at --jobs 2 on the same grid.  12 replications
# per scenario, not 8: near-critical outbreaks make one replication's cost
# heavy-tailed, and 96 replications keep the seed-to-seed spread of the
# throughput near 5%.
SWEEP_REPS = 12
SWEEP_GRID = """\
mutation_prob = 0.0, 0.02
isolate_symptomatic = false, true
social_distancing = 0.6, 0.8
"""
SWEEP_SCENARIOS = 2 * 2 * 2  # the grid's cells


def sweep_params(seed: int) -> str:
    return f"cross_immunity = 0.9\ncross_protection = 0.99\nseed = {seed}\n"


# -- analyze_dataset -----------------------------------------------------------
# Why: no simulation runs, so the dataset reader, the quantile and box
# aggregation and the SVG renderers do all the work.  It reads datasets while
# subcritical_sweep writes them, so a format change that helps one and costs
# the other shows up.  The file is written here, not through
# sepaird.montecarlo.write_dataset, so a change to the writer cannot change
# the reader's input.
DATASET_COLUMNS = (
    "mutation_prob",
    "cross_immunity",
    "cross_protection",
    "isolate_symptomatic",
    "social_distancing",
    "replication",
    "step",
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
    "extinct",
)
DATASET_SCENARIOS = tuple(
    itertools.product((0.0, 0.01), (0.5, 0.9), (0.99,), (False, True), (0.2, 0.6))
)
DATASET_REPS = 25
DATASET_STEPS = 300
DATASET_AGENTS = 10000
QUANTILE_METRIC = "share_infected"
BOX_METRIC = "mortality"
BOX_STEP = DATASET_STEPS

# wild-type means of the nine mean_* columns, in column order, at the
# default calibration: r0, adapted ratio, phylo depth, then the six
# variant properties
_WILD_MEANS = np.array([2.5, 0.65, 0.0, 0.0625, 4.0, 6.0, 8.0, 0.7, 0.01])


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _scenario_block(rng, scenario, reps: int, steps: int, n_agents: int):
    """Per-step columns of ``reps`` chain-binomial epidemics, shape (reps, steps)."""
    mutation_prob, _, _, isolate, distancing = scenario
    beta = 0.25 * (1.0 - distancing) * (0.7 if isolate else 1.0)
    gamma = 0.125
    susceptible = np.full(reps, n_agents - 10, dtype=np.int64)
    infected = np.full(reps, 10, dtype=np.int64)
    shares = np.zeros((3, reps, steps), dtype=np.int64)  # infected, dead, ever
    dead = np.zeros(reps, dtype=np.int64)
    ever = infected.copy()
    for t in range(steps):
        pressure = 1.0 - np.exp(-beta * infected / n_agents)
        new = rng.binomial(susceptible, pressure)
        ending = rng.binomial(infected, gamma)
        died = rng.binomial(ending, 0.01)
        recovered = ending - died
        susceptible += recovered // 2 - new  # waning immunity keeps it endemic
        infected += new - ending
        dead += died
        ever = np.minimum(ever + new, n_agents)
        shares[:, :, t] = infected, dead, ever
    extinct = shares[0] == 0
    # variant means random-walk only when mutation is on, and freeze at the
    # last step that still had an active infection
    index = np.arange(steps)
    frozen = np.maximum.accumulate(np.where(extinct, 0, index), axis=1)[:, :, None]
    sd = 0.002 if mutation_prob > 0.0 else 0.0
    walk = np.cumsum(rng.normal(0.0, sd, size=(reps, steps, 9)), axis=1)
    means = _WILD_MEANS * (1.0 + np.take_along_axis(walk, frozen, axis=1))
    depth = np.cumsum(rng.random((reps, steps)) < 5.0 * mutation_prob, axis=1) / 3.0
    means[:, :, 2] = np.take_along_axis(depth, frozen[:, :, 0], axis=1)
    drifts = np.cumsum(rng.random((reps, steps)) < 0.1 * mutation_prob, axis=1)
    variants = np.where(extinct, 0, 1 + rng.poisson(100.0 * mutation_prob, size=(reps, steps)))
    return shares, means, drifts, variants, extinct


def write_dataset_csv(
    path: str,
    seed: int,
    scenarios=DATASET_SCENARIOS,
    reps: int = DATASET_REPS,
    steps: int = DATASET_STEPS,
    n_agents: int = DATASET_AGENTS,
) -> int:
    """Write a dataset.csv in sepaird's exact schema; returns its row count.

    Share columns are multiples of 1/``n_agents``, integer and bool cells are
    written as the reader expects them, and the mean columns are 17-digit
    ``repr`` floats.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(DATASET_COLUMNS) + "\n")
        for scenario in scenarios:
            head = ",".join(_cell(v) for v in scenario)
            shares, means, drifts, variants, extinct = _scenario_block(
                rng, scenario, reps, steps, n_agents
            )
            share_cells = [
                [[repr(c / n_agents) for c in r] for r in col] for col in shares.tolist()
            ]
            mean_cells = [[[repr(x) for x in s] for s in r] for r in means.tolist()]
            drift_cells = drifts.tolist()
            variant_cells = variants.tolist()
            extinct_cells = extinct.tolist()
            lines = []
            for rep in range(reps):
                for t in range(steps):
                    m = mean_cells[rep][t]
                    lines.append(
                        f"{head},{rep},{t + 1},{share_cells[0][rep][t]},"
                        f"{share_cells[1][rep][t]},{share_cells[2][rep][t]},"
                        f"{m[0]},{m[1]},{drift_cells[rep][t]},{','.join(m[2:])},"
                        f"{variant_cells[rep][t]},"
                        f"{'true' if extinct_cells[rep][t] else 'false'}\n"
                    )
            fh.writelines(lines)
            rows += reps * steps
    return rows


def make_inputs(workload: str, seed: int, directory: str) -> dict:
    """Write the workload's input files under ``directory``; returns their facts."""
    os.makedirs(directory, exist_ok=True)
    facts = {"seed": seed}
    if workload == "endemic_run":
        _write(os.path.join(directory, "params.cfg"), endemic_params(seed))
    elif workload == "subcritical_sweep":
        _write(os.path.join(directory, "params.cfg"), sweep_params(seed))
        _write(os.path.join(directory, "grid.cfg"), SWEEP_GRID)
    elif workload == "analyze_dataset":
        facts["rows"] = write_dataset_csv(os.path.join(directory, "dataset.csv"), seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return facts


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
