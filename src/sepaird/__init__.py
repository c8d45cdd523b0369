"""Epidemic simulator with endogenously mutating virus variants.

Library layers:

- ``params``: validated simulation parameters and flat config files.
- ``rng``: seeded random streams and stable seed derivation.
- ``variants``: property-row column constants, the mutation kernel, and
  the phylogenetic and antigenic-cluster registries.
- ``ode``: deterministic SEPAIRD compartmental reference model.
- ``abm``: the agent-based evolutionary engine.
- ``phylo``: tree distances and variant fitness metrics.
- ``montecarlo``: replicated sweeps, quantile and box aggregation.
- ``svg``: deterministic chart rendering.
- ``cli``: the ``sepaird`` command.
"""

from .abm import World, draw_course, init_world, run
from .montecarlo import (
    BoxStats,
    DatasetError,
    MetricRow,
    QuantileRow,
    Scenario,
    SweepDataset,
    SweepGrid,
    collect_run,
    grid_from_text,
    metric_row,
    notched_box,
    quantile_series,
    read_dataset,
    replication_seed,
    sweep,
    write_dataset,
)
from .ode import (
    OdeError,
    OdeParams,
    OdeState,
    Trajectory,
    abm_to_ode,
    basic_reproduction,
    derivative,
    effective_reproduction,
    fitness_sensitivities,
    integrate,
    seeded_state,
)
from .params import (
    ConfigError,
    SimParams,
    load_params,
    params_from_config,
    params_to_config,
    validate_params,
)
from .phylo import (
    ActiveVariantSummary,
    VariantStats,
    active_variant_stats,
    antigenic_distance,
    phylogenetic_distance,
    variant_r0,
    variant_r0_adapted,
    variant_stats,
)
from .rng import RngStream, derive_seed
from .variants import (
    ClusterRecord,
    Registry,
    VariantRecord,
    mutate_props,
    spawn_variant,
    wild_type_props,
)

__version__ = "1.0.0"

__all__ = [
    "ActiveVariantSummary",
    "BoxStats",
    "ClusterRecord",
    "ConfigError",
    "DatasetError",
    "MetricRow",
    "OdeError",
    "OdeParams",
    "OdeState",
    "QuantileRow",
    "Registry",
    "RngStream",
    "Scenario",
    "SimParams",
    "SweepDataset",
    "SweepGrid",
    "Trajectory",
    "VariantRecord",
    "VariantStats",
    "World",
    "abm_to_ode",
    "active_variant_stats",
    "antigenic_distance",
    "basic_reproduction",
    "collect_run",
    "derivative",
    "derive_seed",
    "draw_course",
    "effective_reproduction",
    "fitness_sensitivities",
    "grid_from_text",
    "init_world",
    "integrate",
    "load_params",
    "metric_row",
    "mutate_props",
    "notched_box",
    "params_from_config",
    "params_to_config",
    "phylogenetic_distance",
    "quantile_series",
    "read_dataset",
    "replication_seed",
    "run",
    "seeded_state",
    "spawn_variant",
    "sweep",
    "validate_params",
    "variant_r0",
    "variant_r0_adapted",
    "variant_stats",
    "wild_type_props",
    "write_dataset",
]
