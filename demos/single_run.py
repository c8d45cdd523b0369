"""One stochastic epidemic with mutations switched on.

Runs a single seeded world, narrates the wave as it unfolds, then walks
the variant registry: which strains were alive at the end, how far they
drifted from the wild type, and what that did to their fitness.  Writes
single_run.csv (per-step metrics) next to this script.
"""

import os

from sepaird.abm import init_world
from sepaird.montecarlo import SweepDataset, collect_world_run, write_dataset
from sepaird.params import SimParams
from sepaird.phylo import active_variant_stats, variant_r0, variant_r0_adapted

OUT = os.path.join(os.path.dirname(__file__), "output")


def main():
    p = SimParams(n_agents=5000, mutation_prob=0.02, drift_prob=0.1,
                  cross_immunity=0.5, horizon=300, seed=7)
    w = init_world(p)
    print(f"{p.n_agents} agents, {p.n_initial_infected} seeded infections, "
          f"mutation chance {p.mutation_prob:.0%} per transmission\n")

    dataset = SweepDataset(collect_world_run(w))
    for row in dataset.rows:
        if row.step % 50 == 0:
            print(f"  step {row.step:3d}: {row.share_infected:6.1%} infected, "
                  f"{row.active_variant_count:3d} active variants, "
                  f"mortality {row.mortality:.2%}")

    reg = w.registry
    print(f"\nfinal tally: {w.cum_infections} infections, {w.cum_deaths} deaths, "
          f"{reg.n_variants} variants in {reg.n_clusters} antigenic clusters")
    print(f"deepest antigenic cluster: {reg.max_cluster_depth()} drift steps from root")

    summary = active_variant_stats(w)
    label = "last surviving" if summary.extinct else "currently active"
    print(f"\n{label} variants ({summary.n_variants}):")
    ids = w.last_active_variants if summary.extinct else w.active_variants()
    for vid in ids[:8]:
        props = reg.props_matrix[vid]
        r0 = variant_r0(props, p.daily_contacts)
        ratio = variant_r0_adapted(props, p.daily_contacts) / r0 if r0 > 0.0 else 1.0
        print(f"  variant {vid:4d}: r0 {r0:5.2f}, adapted ratio {ratio:.2f}, "
              f"{reg.variant_depth[vid]} mutations from wild type")
    print(f"mean r0 of that set: {summary.mean_r0:.2f} (wild type 2.50)")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "single_run.csv")
    write_dataset(dataset, path)
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
