"""Variant-level fitness metrics and the active-variant summary.

Every function here is read-only over a Registry (or a World snapshot)
and safe for concurrent use; ``active_variant_stats`` writes only to the
memo it is given.  An ``ActiveVariantSummary`` holds the dataset's
variant columns first, in row order, so a metric row takes them as one
slice.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .variants import (
    DURATION,
    INCUBATION_END,
    INFECTIOUSNESS,
    LATENT_END,
    SYMPTOMATIC_CHANCE,
    Registry,
)


def variant_r0(props: np.ndarray, eta: int) -> float:
    """Expected secondary infections: contacts x infectiousness x window.

    The infectious window runs from the latent end to the course end;
    infectiousness acts as a probability, so it is clamped at 1 and the
    window is floored at 0.  ``props`` is one property row.
    """
    i = min(props[INFECTIOUSNESS], 1.0)
    return float(eta * i * max(props[DURATION] - props[LATENT_END], 0.0))


def variant_r0_adapted(props: np.ndarray, eta: int) -> float:
    """Reproduction number when symptomatic cases are isolated.

    Symptomatic courses (probability ``v_m``) only transmit until symptom
    onset; asymptomatic ones keep the full window.  Windows are floored
    at 0 and probabilities clamped at 1.  Symptom onset at or past the
    course end removes nothing, so the cutoff is capped at the full
    window; the subtraction form keeps adapted == r0 bitwise in that
    case and when ``v_m`` = 0.
    """
    i = min(props[INFECTIOUSNESS], 1.0)
    sympt = min(props[SYMPTOMATIC_CHANCE], 1.0)
    full = max(props[DURATION] - props[LATENT_END], 0.0)
    cut = max(min(props[INCUBATION_END], props[DURATION]) - props[LATENT_END], 0.0)
    return float(eta * i * (full - sympt * (full - cut)))


def _r0_arrays(props: np.ndarray, eta: int):
    """Vectorized (r0, r0_adapted, ratio) for a (n, 6) property block."""
    i = np.minimum(props[:, INFECTIOUSNESS], 1.0)
    sympt = np.minimum(props[:, SYMPTOMATIC_CHANCE], 1.0)
    full = np.maximum(props[:, DURATION] - props[:, LATENT_END], 0.0)
    onset = np.minimum(props[:, INCUBATION_END], props[:, DURATION])
    cut = np.maximum(onset - props[:, LATENT_END], 0.0)
    r0 = eta * i * full
    adapted = eta * i * (full - sympt * (full - cut))
    ratio = np.where(r0 > 0.0, adapted / np.where(r0 > 0.0, r0, 1.0), 1.0)
    return r0, adapted, ratio


class ActiveVariantSummary(NamedTuple):
    """Unweighted means over the active (or last surviving) variant set.

    The fields up to ``mean_fatality`` are the dataset's variant columns,
    in their order, so a row takes them as one slice.
    """

    mean_r0: float
    mean_adapted_ratio: float
    max_antigenic_distance: int
    mean_phylo_distance: float
    mean_infectiousness: float
    mean_latent_end: float
    mean_incubation_end: float
    mean_duration: float
    mean_symptomatic_chance: float
    mean_fatality: float
    n_variants: int
    extinct: bool


def summarize_variants(
    registry: Registry, ids: np.ndarray, eta: int, extinct: bool
) -> ActiveVariantSummary:
    """Means over an explicit variant id set; ids must be non-empty."""
    ids = np.asarray(ids, dtype=np.int64)
    props = registry.props_matrix[ids]
    r0, _, ratio = _r0_arrays(props, eta)
    return ActiveVariantSummary(
        float(r0.mean()),
        float(ratio.mean()),
        registry.max_cluster_depth(),
        float(registry.variant_depth[ids].mean()),
        *props.mean(axis=0).tolist(),
        int(ids.size),
        extinct,
    )


def active_variant_stats(w, memo: dict | None = None) -> ActiveVariantSummary:
    """Summary over variants with a live infection right now.

    After extinction the snapshot of the last non-empty active set is
    used instead, so the summary always describes the epidemic's final
    surviving strains.

    ``memo``, a dict kept for one world across its steps, holds the last
    summary under the variant ids, the extinct flag and the cluster count
    it was made from, and returns it again while all three are unchanged.
    Nothing else a summary reads can change: property rows and depths are
    never rewritten.
    """
    ids = w.active_variants()
    extinct = ids.size == 0
    if extinct:
        ids = w.last_active_variants
    if memo is None:
        return summarize_variants(w.registry, ids, w.params.daily_contacts, extinct)
    key = (ids.tobytes(), extinct, w.registry.n_clusters)
    summary = memo.get(key)
    if summary is None:
        memo.clear()
        summary = memo[key] = summarize_variants(
            w.registry, ids, w.params.daily_contacts, extinct
        )
    return summary
