"""Agent-based evolutionary epidemic engine.

Discrete daily steps over a homogeneously mixing population held in
flat numpy arrays.  Each step runs a contact phase (infectious carriers
meet random living agents, infections may mutate and drift) followed by
a progression phase (counters advance, symptoms appear, courses resolve
into death or recovery with recursive cross-immunity).

Agent state is stored column-wise, one numpy array per fact; a course's
three day marks are drawn as one tuple of ints.  A world with no active
infection is absorbing: its later steps only advance ``step_index``.  A
``World`` is confined to a single execution context for its whole run;
parallelism lives one level up, across independent replications.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .params import SimParams, validate_params
from .rng import RngStream
from .variants import (
    DURATION,
    FATALITY,
    INFECTIOUSNESS,
    LATENT_END,
    SYMPTOMATIC_CHANCE,
    Registry,
    grown,
    spawn_variant,
    wild_type_props,
)

_NO_INFECTION = -1
_UNDETERMINED = -1


def draw_course(props: np.ndarray, sigma_ii: float, rng: RngStream) -> tuple:
    """Draw the day marks (latent end, symptom day, end day) of one course.

    ``props`` is the variant's property row; its latent end, incubation
    end and duration columns are the means.  Each mark is Gaussian with
    standard deviation ``mean * sigma_ii``, truncated below at 0 and
    rounded to the nearest integer (half away from zero), so any ordering
    between the three can occur.  The latent end opens the infectious
    window, the symptom day may turn the course symptomatic, the end day
    resolves it.  ``m + m * sigma_ii * z`` is the arithmetic of numpy's
    ``normal(means, means * sigma_ii)``, so the array form's marks match.
    """
    zl, zs, ze = rng.normal(0.0, 1.0, 3).tolist()
    ml, ms, me = props[LATENT_END : DURATION + 1].tolist()
    return (
        math.floor(max(ml + ml * sigma_ii * zl, 0.0) + 0.5),
        math.floor(max(ms + ms * sigma_ii * zs, 0.0) + 0.5),
        math.floor(max(me + me * sigma_ii * ze, 0.0) + 0.5),
    )


class World:
    """Full simulation state: agents, variant registry, counters, rng."""

    def __init__(self, p: SimParams, log_events: bool = False):
        validate_params(p)
        self.params = p
        self.rng = RngStream(p.seed)
        self.registry = Registry(wild_type_props(p))
        self.step_index = 0
        n = p.n_agents
        self.alive = np.ones(n, dtype=bool)
        self.variant_of = np.full(n, _NO_INFECTION, dtype=np.int64)
        self.counter = np.zeros(n, dtype=np.int64)
        self.latent_end = np.zeros(n, dtype=np.int64)
        self.symptom_day = np.zeros(n, dtype=np.int64)
        self.end_day = np.zeros(n, dtype=np.int64)
        self.symptomatic = np.full(n, _UNDETERMINED, dtype=np.int8)
        self.isolated = np.zeros(n, dtype=bool)
        self.ever_infected = np.zeros(n, dtype=bool)
        self.immune = np.zeros((n, 8), dtype=bool)
        self.active_count = np.zeros(8, dtype=np.int64)
        self.cum_infections = 0
        self.cum_deaths = 0
        # the seed infections are all wild type
        self.last_active_variants: tuple = (0,)
        self.events = [] if log_events else None
        for agent in range(p.n_initial_infected):
            self._infect(agent, 0)

    # -- derived views ------------------------------------------------

    @property
    def n_infected(self) -> int:
        return int(self.active_count[: self.registry.n_variants].sum())

    @property
    def n_living(self) -> int:
        return self.params.n_agents - self.cum_deaths

    @property
    def cum_mutations(self) -> int:
        """Every variant but the wild type came from one mutation."""
        return self.registry.n_variants - 1

    @property
    def cum_drifts(self) -> int:
        """Every cluster but the root came from one drift."""
        return self.registry.n_clusters - 1

    def active_variants(self) -> np.ndarray:
        """Variant ids with at least one active infection, ascending."""
        counts = self.active_count[: self.registry.n_variants]
        return np.where(counts > 0)[0]

    def _log(self, event: str, agent: int, variant: int):
        if self.events is not None:
            cluster = int(self.registry.variant_cluster[variant])
            self.events.append((self.step_index, event, agent, variant, cluster))

    # -- infection -----------------------------------------------------

    def _infect(self, agent: int, variant: int):
        marks = draw_course(self.registry._props[variant], self.params.course_sd_frac, self.rng)
        self.variant_of[agent] = variant
        self.counter[agent] = 0
        self.latent_end[agent], self.symptom_day[agent], self.end_day[agent] = marks
        self.symptomatic[agent] = _UNDETERMINED
        self.ever_infected[agent] = True
        self.active_count[variant] += 1
        self.cum_infections += 1
        self._log("infection", agent, variant)

    def try_infect(self, source_variant: int, target: int):
        """Infect ``target`` from a carrier of ``source_variant``.

        With probability ``mutation_prob`` the transmitted virus is a
        fresh mutant child of the source variant; a fraction
        ``drift_prob`` of mutations also opens a new antigenic cluster.
        On drift, every agent immune to the parent cluster independently
        gains immunity to the new cluster with probability
        ``cross_immunity``.
        """
        assert self.alive.item(target) and self.variant_of.item(target) < 0
        p = self.params
        variant = source_variant
        new_cluster = -1
        if self.rng.bernoulli(p.mutation_prob):
            drift = self.rng.bernoulli(p.drift_prob)
            variant = spawn_variant(
                self.registry,
                source_variant,
                drift,
                p.mutation_mean,
                p.mutation_sd,
                self.rng,
            )
            self.active_count = grown(self.active_count, self.registry.n_variants)
            self._log("mutation", target, variant)
            if drift:
                self.immune = grown(self.immune, self.registry.n_clusters, axis=1)
                new_cluster = int(self.registry.variant_cluster[variant])
                self._log("drift", target, variant)
        self._infect(target, variant)
        if new_cluster >= 0:
            parent_cluster = self.registry.cluster_parents[new_cluster]
            holders = np.where(self.immune[:, parent_cluster])[0]
            if holders.size:
                rolls = self.rng.uniform(size=holders.size)
                self.immune[holders[rolls < p.cross_immunity], new_cluster] = True

    # -- phases ----------------------------------------------------------

    def contact_phase(self):
        """Carriers meet random living agents and transmit.

        Carriers are agents whose counter lies in the infectious window
        ``latent_end <= counter < end_day`` and who are not isolated,
        listed once at phase start in ascending id order.  Each samples
        ``daily_contacts`` living agents uniformly with replacement,
        excluding itself; a contact is infected when it has no active
        infection, is not immune to the carrier's cluster, and a
        transmission roll beats ``infectiousness * (1 - distancing)``.
        An agent infected earlier in the phase blocks later attempts.
        """
        infected = self.variant_of >= 0
        window = (self.latent_end <= self.counter) & (self.counter < self.end_day)
        carriers = np.where(infected & window & ~self.isolated)[0]
        if carriers.size == 0 or self.n_living <= 1:
            return
        living = np.where(self.alive)[0]
        eta = self.params.daily_contacts
        positions = np.searchsorted(living, carriers)
        idx = self.rng.integers(0, living.size - 1, size=(carriers.size, eta))
        idx += idx >= positions[:, None]
        targets = living[idx]
        rolls = self.rng.uniform(size=(carriers.size, eta))
        source = self.variant_of[carriers]
        infectiousness = np.minimum(self.registry.props_matrix[source, INFECTIOUSNESS], 1.0)
        transmit = infectiousness * (1.0 - self.params.social_distancing)
        clusters = self.registry.variant_cluster[source]
        open_target = self.variant_of[targets] < 0
        susceptible = ~self.immune[targets, clusters[:, None]]
        rows, cols = np.nonzero(open_target & susceptible & (rolls < transmit[:, None]))
        variant_of = self.variant_of
        for variant, target in zip(source[rows].tolist(), targets[rows, cols].tolist()):
            if variant_of.item(target) < 0:
                self.try_infect(variant, target)

    def progression_phase(self):
        """Advance every active infection by one day and fire due events.

        Counters increment first.  Courses at or past their symptom day
        (when it precedes the end day) draw the symptomatic flag once;
        symptomatic agents are isolated under the isolation policy.
        Courses at or past their end day resolve: death with probability
        ``fatality``, cut by ``1 - cross_protection`` for agents holding
        any immunity, otherwise recovery with immunity propagation.
        """
        infected = np.where(self.variant_of >= 0)[0]
        if infected.size == 0:
            return
        self.counter[infected] += 1
        count = self.counter[infected]
        symptoms_due = infected[
            (self.symptomatic[infected] == _UNDETERMINED)
            & (count >= self.symptom_day[infected])
            & (self.symptom_day[infected] < self.end_day[infected])
        ]
        props = self.registry.props_matrix
        if symptoms_due.size:
            chance = np.minimum(props[self.variant_of[symptoms_due], SYMPTOMATIC_CHANCE], 1.0)
            flags = self.rng.uniform(size=symptoms_due.size) < chance
            self.symptomatic[symptoms_due] = flags.astype(np.int8)
            if self.params.isolate_symptomatic:
                self.isolated[symptoms_due[flags]] = True
        ending = infected[self.counter[infected] >= self.end_day[infected]]
        if ending.size == 0:
            return
        fatality = np.minimum(props[self.variant_of[ending], FATALITY], 1.0)
        protected = self.immune[ending, : self.registry.n_clusters].any(axis=1)
        fatality = np.where(protected, fatality * (1.0 - self.params.cross_protection), fatality)
        dies = self.rng.uniform(size=ending.size) < fatality
        variants = self.variant_of[ending]
        clusters = self.registry.variant_cluster[variants]
        np.subtract.at(self.active_count, variants, 1)
        self.variant_of[ending] = _NO_INFECTION
        self.isolated[ending] = False
        dead = ending[dies]
        self.alive[dead] = False
        self.cum_deaths += dead.size
        survives = ~dies
        for agent, cluster in zip(ending[survives].tolist(), clusters[survives].tolist()):
            self.grant_immunity(agent, cluster)
        if self.events is not None:  # no draws here: logging keeps the run's bytes
            for agent, variant, died in zip(ending.tolist(), variants.tolist(), dies.tolist()):
                self._log("death" if died else "recovery", agent, variant)

    def grant_immunity(self, agent: int, cluster: int):
        """Add ``cluster`` to the agent's immune set and propagate.

        Breadth-first over the antigenic tree: each neighbor (parent
        first, then children) of a newly acquired cluster that is not
        yet in the set is gained with independent probability
        ``cross_immunity``; a failed draw prunes that branch.
        """
        psi = self.params.cross_immunity
        row = self.immune[agent]
        neighbors = self.registry.cluster_neighbors
        bernoulli = self.rng.bernoulli
        row[cluster] = True
        queue = deque([cluster])
        while queue:
            for neighbor in neighbors(queue.popleft()):
                if not row.item(neighbor) and bernoulli(psi):
                    row[neighbor] = True
                    queue.append(neighbor)

    # -- driver ----------------------------------------------------------

    def step(self):
        """Run one day: contacts, then progression, then bookkeeping.

        A world with no active infection is absorbing: neither phase could
        draw or change anything, so such a step only advances the clock.
        """
        self.step_index += 1
        if self.n_infected == 0:
            return
        self.contact_phase()
        self.progression_phase()
        active = self.active_variants()
        if active.size:
            self.last_active_variants = tuple(int(x) for x in active)

    def state_bytes(self) -> bytes:
        """Canonical byte serialization of the full mutable state."""
        reg = self.registry
        n_cl = reg.n_clusters
        head = np.array(
            [self.step_index, self.n_living, self.cum_infections, self.cum_deaths],
            dtype=np.int64,
        )
        parts = [
            head.tobytes(),
            self.alive.tobytes(),
            self.variant_of.tobytes(),
            self.counter.tobytes(),
            self.latent_end.tobytes(),
            self.symptom_day.tobytes(),
            self.end_day.tobytes(),
            self.symptomatic.tobytes(),
            self.isolated.tobytes(),
            self.ever_infected.tobytes(),
            np.ascontiguousarray(self.immune[:, :n_cl]).tobytes(),
            reg.props_matrix.tobytes(),
            reg.variant_cluster.tobytes(),
            reg.variant_depth.tobytes(),
            np.array(sorted(self.last_active_variants), dtype=np.int64).tobytes(),
            reg.cluster_parents.tobytes(),
        ]
        return b"".join(parts)


def init_world(p: SimParams, log_events: bool = False) -> World:
    """Build the initial population with wild-type seed infections.

    Agents ``0 .. n_initial_infected-1`` start infected (counter 0,
    individually drawn courses); everyone is alive with empty immunity.
    """
    return World(p, log_events=log_events)


def run(w: World, callback=None) -> World:
    """Advance ``w`` to its parameter horizon, calling back after each step."""
    while w.step_index < w.params.horizon:
        w.step()
        if callback is not None:
            callback(w)
    return w
