"""Epidemic simulator with endogenously mutating virus variants.

Library layers:

- ``params``: validated simulation parameters and flat config files.
- ``rng``: seeded random streams and stable seed derivation.
- ``variants``: property-row column constants, the mutation kernel, and
  the phylogenetic and antigenic-cluster registries.
- ``ode``: deterministic SEPAIRD compartmental reference model.
- ``abm``: the agent-based evolutionary engine.
- ``phylo``: per-variant reproduction numbers and active-variant summaries.
- ``montecarlo``: replicated sweeps, quantile and box aggregation.
- ``svg``: deterministic chart rendering.
- ``cli``: the ``sepaird`` command.
"""

__version__ = "1.0.0"
