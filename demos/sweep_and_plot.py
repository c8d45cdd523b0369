"""A small Monte Carlo sweep, aggregated and plotted.

Crosses two mutation rates with two distancing levels, runs a handful of
replications each, then condenses the dataset into quantile fan lines
and notched boxes rendered as standalone SVG files.  Everything lands in
the output/ directory next to this script; rerunning reproduces the same
bytes.
"""

import os

from sepaird.montecarlo import (
    SweepGrid,
    notched_box,
    quantile_series,
    sweep,
    write_dataset,
    write_manifest,
)
from sepaird.params import SimParams
from sepaird.svg import render_notched_boxes, render_quantile_lines

OUT = os.path.join(os.path.dirname(__file__), "output")


def main():
    grid = SweepGrid(
        base=SimParams(n_agents=2000, n_initial_infected=5, horizon=150, seed=42),
        mutation_prob=(0.0, 0.02),
        cross_immunity=(0.5,),
        cross_protection=(0.99,),
        isolate_symptomatic=(False,),
        social_distancing=(0.0, 0.4),
        replications=5,
    )
    n_scenarios = len(grid.scenarios())
    print(f"sweeping {n_scenarios} scenarios x {grid.replications} replications "
          f"x {grid.horizon} steps")
    dataset = sweep(grid, progress=lambda done, total: print(
        f"  {done}/{total} replications", end="\r"))
    print()

    os.makedirs(OUT, exist_ok=True)
    write_dataset(dataset, os.path.join(OUT, "dataset.csv"))
    write_manifest(grid, os.path.join(OUT, "manifest.csv"))

    quantiles = quantile_series(dataset, "cumulative_infected_share")
    lines_svg = render_quantile_lines(quantiles, "cumulative_infected_share")
    with open(os.path.join(OUT, "attack_rate_lines.svg"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write(lines_svg)

    boxes = notched_box(dataset, "mortality", step=grid.horizon)
    boxes_svg = render_notched_boxes(boxes, "mortality", step=grid.horizon)
    with open(os.path.join(OUT, "mortality_boxes.svg"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write(boxes_svg)

    print(f"final-step mortality medians by scenario:")
    for box in boxes:
        print(f"  mutation {box['mutation_prob']:.0%}, distancing "
              f"{box['social_distancing']:.0%}: median {box['median']:.4f} "
              f"[{box['q1']:.4f}, {box['q3']:.4f}]")
    print(f"\nwrote dataset.csv, manifest.csv and two SVG charts to {OUT}")


if __name__ == "__main__":
    main()
