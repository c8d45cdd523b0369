"""Variant and antigenic-cluster registries plus the mutation kernel.

A variant is a vector of six disease properties and a position in the
phylogenetic tree; each variant also belongs to an antigenic cluster.
The registry keeps one table per id space, a row per variant and a row
per cluster, and every public accessor is a field view of one of them.
The property vector exists in one form only: the ``props`` field of a
variant's row, read as a float64 row of ``Registry.props_matrix`` in
``PROP_NAMES`` order and indexed by the column constants
``INFECTIOUSNESS``, ``LATENT_END``, ``INCUBATION_END``, ``DURATION``,
``SYMPTOMATIC_CHANCE`` and ``FATALITY``.
Mutations scale every property by an independent multiplicative Gaussian
shock floored at -0.99, so properties stay strictly positive.  A fraction
of mutations carries an antigenic drift, which opens a new cluster as a
child of the parent variant's cluster.

Properties are stored raw (they may exceed 1 after upward mutations); any
property used as a probability is clamped to 1 at its point of use.
"""

from __future__ import annotations

import numpy as np

from .params import SimParams
from .rng import RngStream

# Column layout of the property vector; fixed order used everywhere.
PROP_NAMES = (
    "infectiousness",
    "latent_end",
    "incubation_end",
    "duration",
    "symptomatic_chance",
    "fatality",
)
N_PROPS = len(PROP_NAMES)
INFECTIOUSNESS, LATENT_END, INCUBATION_END, DURATION, SYMPTOMATIC_CHANCE, FATALITY = range(N_PROPS)

# One row per id.  Variants and clusters each form a tree, so both rows
# hold a parent and a depth; a variant row adds its properties and cluster.
_CLUSTER_ROW = np.dtype([("parent", np.int64), ("depth", np.int64)])
_VARIANT_ROW = np.dtype([("props", np.float64, N_PROPS), ("cluster", np.int64), *_CLUSTER_ROW.descr])

# Multiplicative shocks are floored here so properties never reach zero.
SHOCK_FLOOR = -0.99


def wild_type_props(p: SimParams) -> np.ndarray:
    """Wild-type property row from the run parameters."""
    return np.array([getattr(p, f"{name}0") for name in PROP_NAMES], dtype=np.float64)


def grown(array: np.ndarray, need: int, axis: int = 0) -> np.ndarray:
    """``array`` if it holds ``need`` entries along ``axis``, else a copy
    zero-padded along ``axis`` to the first doubling of its size that does.
    """
    size = array.shape[axis]
    if need <= size:
        return array
    while size < need:
        size *= 2
    shape = list(array.shape)
    shape[axis] = size
    out = np.zeros(shape, dtype=array.dtype)
    out[tuple(map(slice, array.shape))] = array
    return out


def mutate_props(
    parent: np.ndarray, theta: float, sigma_i: float, rng: RngStream
) -> np.ndarray:
    """Apply one multiplicative mutation to every property of a row.

    Each property k becomes ``parent_k * (1 + omega_k)`` with omega_k an
    independent Gaussian(theta, sigma_i) draw floored at -0.99.
    """
    omega = np.maximum(rng.normal(theta, sigma_i, size=N_PROPS), SHOCK_FLOOR)
    return parent * (1.0 + omega)


class Registry:
    """Append-only registries of variants and antigenic clusters.

    Variant and cluster identifiers are dense integers in creation order;
    id 0 is the wild type / root cluster.  Each id space is one numpy
    structured array, one row per id, grown by ``grown`` and written a
    row at a time: a variant row holds its property vector, cluster,
    parent and depth, a cluster row its parent and depth.  The accessors
    (``props_matrix``, ``variant_parents``, ``variant_cluster``,
    ``variant_depth``, ``cluster_parents``, ``cluster_depths``) are field
    views of these tables cut to the ids in use, so the simulation hot
    path can index them in bulk.  ``neighbor_table`` is a list of tuples
    beside the cluster table.
    """

    def __init__(self, wild_props: np.ndarray):
        self._variants = np.zeros(64, dtype=_VARIANT_ROW)
        self.n_variants = 0
        self._clusters = np.zeros(64, dtype=_CLUSTER_ROW)
        self._clusters[0] = (-1, 0)
        self._cl_neighbors: list[tuple] = [()]
        self.n_clusters = 1

        self._append_variant(wild_props, parent=-1, cluster=0, depth=0)

    # -- variants ---------------------------------------------------------

    def _append_variant(self, vec, cluster, parent, depth) -> int:
        vid = self.n_variants
        self._variants = grown(self._variants, vid + 1)
        self._variants[vid] = (vec, cluster, parent, depth)
        self.n_variants += 1
        return vid

    @property
    def props_matrix(self) -> np.ndarray:
        """View of all property vectors, shape (n_variants, 6)."""
        return self._variants["props"][: self.n_variants]

    @property
    def variant_parents(self) -> np.ndarray:
        """Parent of every variant; the wild type's is -1."""
        return self._variants["parent"][: self.n_variants]

    @property
    def variant_cluster(self) -> np.ndarray:
        return self._variants["cluster"][: self.n_variants]

    @property
    def variant_depth(self) -> np.ndarray:
        return self._variants["depth"][: self.n_variants]

    # -- clusters ---------------------------------------------------------

    def add_cluster(self, parent: int) -> int:
        cid = self.n_clusters
        self._clusters = grown(self._clusters, cid + 1)
        self._clusters[cid] = (parent, self._clusters["depth"][parent] + 1)
        self._cl_neighbors.append((parent,))
        self._cl_neighbors[parent] += (cid,)
        self.n_clusters += 1
        return cid

    @property
    def cluster_parents(self) -> np.ndarray:
        """Parent of every cluster; the root's is -1."""
        return self._clusters["parent"][: self.n_clusters]

    @property
    def cluster_depths(self) -> np.ndarray:
        return self._clusters["depth"][: self.n_clusters]

    @property
    def neighbor_table(self) -> list:
        """Every cluster's tree neighbors, indexed by id: a tuple of the
        parent first, then the children in order.  The registry's own list,
        for loops that look many up; read it only."""
        return self._cl_neighbors

    def max_cluster_depth(self) -> int:
        """Deepest antigenic cluster ever created (never decreases)."""
        return int(self.cluster_depths.max())


def spawn_variant(
    registry: Registry,
    parent_id: int,
    drift: bool,
    theta: float,
    sigma_i: float,
    rng: RngStream,
) -> int:
    """Create one mutated child of ``parent_id`` and return its id.

    The child's cluster is the parent's unless ``drift``, in which case a
    fresh cluster is opened as a child of the parent's cluster.
    """
    row = registry._variants[parent_id]
    vec = mutate_props(row["props"], theta, sigma_i, rng)
    parent_cluster = int(row["cluster"])
    cluster = registry.add_cluster(parent_cluster) if drift else parent_cluster
    return registry._append_variant(
        vec,
        parent=parent_id,
        cluster=cluster,
        depth=row["depth"] + 1,
    )
