"""Agent-based evolutionary epidemic engine.

Discrete daily steps over a homogeneously mixing population held in
flat numpy arrays.  Each step runs a contact phase (infectious carriers
meet random living agents, infections may mutate and drift) followed by
a progression phase (counters advance, symptoms appear, courses resolve
into death or recovery with recursive cross-immunity).

Agent state is stored column-wise, one numpy array per fact; the three day
marks of a course are one fact, ``course_marks``, an ``(n_agents, 3)``
block in ``draw_course`` order.  Facts that follow from others (the
isolation flags, the living and dead counts) are derived from them on
read.  Per-agent work is batched per phase without changing a single draw
or its order, and with few numpy calls, since a small step's time is
their fixed cost: the contact phase draws its contacts as one flat block,
finds its infections in numpy, makes each infection's draws in turn
through the generator's bound methods (and ``try_infect`` for a
mutation), and writes ``variant_of`` and the new courses (counter, marks,
flags, one ``bincount`` of the counts) once after its loop; the
progression phase walks the immunity of all of its survivors in one call,
over a byte copy of their rows, drawing its scalar draws ahead as a block
and then rewinding the stream over the ones it did not use.  A step's work
follows its infections, not the population: ``step`` is the only driver of
the phases, listing the infected agents once and handing the list to both,
and the list of the living is remade only after a death.  A world with no
active infection is absorbing: its later steps only advance
``step_index``, so ``run`` without a callback moves it to its horizon at
once.  A ``World`` is confined to a single execution context for its whole
run; parallelism lives one level up, across independent replications.
"""

from __future__ import annotations

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


def draw_course(props: np.ndarray, sigma_ii: float, z: np.ndarray) -> np.ndarray:
    """Day marks (latent end, symptom day, end day) of a batch of courses.

    Row ``i`` of ``props`` is the property row of course ``i``'s variant;
    its latent end, incubation end and duration columns are the means.
    Row ``i`` of ``z`` holds the course's three standard normal draws.
    Each mark is Gaussian with standard deviation ``mean * sigma_ii``,
    truncated below at 0 and rounded to the nearest integer (half away
    from zero), so any ordering between the three can occur.  The latent
    end opens the infectious window, the symptom day may turn the course
    symptomatic, the end day resolves it.  ``m + m * sigma_ii * z`` is the
    arithmetic of numpy's ``normal(means, means * sigma_ii)``.  Returns an
    int64 array of shape ``(len(z), 3)``.
    """
    m = props[:, LATENT_END : DURATION + 1]
    return np.floor(np.maximum(m + m * sigma_ii * z, 0.0) + 0.5).astype(np.int64)


def _first_occurrences(values: np.ndarray) -> np.ndarray:
    """Ascending positions of the first occurrence of each distinct value
    in the non-empty ``values``: a stable sort puts the first one of each
    run of equal values first."""
    if values.size == 1:
        return np.zeros(1, dtype=np.intp)
    order = values.argsort(kind="stable")
    ordered = values[order]
    first = np.empty(values.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    firsts = order[first]
    firsts.sort()
    return firsts


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
        self._living_ids = np.arange(n)
        self.variant_of = np.full(n, _NO_INFECTION, dtype=np.int64)
        self.counter = np.zeros(n, dtype=np.int64)
        self.course_marks = np.zeros((n, 3), dtype=np.int64)
        self.symptomatic = np.full(n, _UNDETERMINED, dtype=np.int8)
        self.ever_infected = np.zeros(n, dtype=bool)
        self.immune = np.zeros((n, 8), dtype=bool)
        self.active_count = np.zeros(8, dtype=np.int64)
        self.cum_infections = 0
        # the seed infections are all wild type
        self.last_active_variants = np.zeros(1, dtype=np.int64)
        self.events = [] if log_events else None
        seeds = np.arange(p.n_initial_infected)
        normals = self.rng.normal(0.0, 1.0, (seeds.size, 3))
        self.variant_of[seeds] = 0
        for agent in seeds.tolist():
            self._log("infection", agent, 0)
        self._begin_courses(seeds, normals)

    # -- derived views ------------------------------------------------

    @property
    def n_infected(self) -> int:
        return int(self.active_count[: self.registry.n_variants].sum())

    @property
    def n_living(self) -> int:
        return int(np.count_nonzero(self.alive))

    @property
    def cum_deaths(self) -> int:
        return self.params.n_agents - self.n_living

    @property
    def isolated(self) -> np.ndarray:
        """Symptomatic agents with an active course while the isolation
        policy is on; all false otherwise.  A fresh read-only array."""
        if self.params.isolate_symptomatic:
            flags = (self.symptomatic == 1) & (self.variant_of >= 0)
        else:
            flags = np.zeros(self.params.n_agents, dtype=bool)
        flags.flags.writeable = False
        return flags

    @property
    def cum_mutations(self) -> int:
        """Every variant but the wild type came from one mutation."""
        return self.registry.n_variants - 1

    @property
    def cum_drifts(self) -> int:
        """Every cluster but the root came from one drift."""
        return self.registry.n_clusters - 1

    def _living(self) -> np.ndarray:
        """The living agents in ascending id order.  Death is permanent, so
        the living set is known by its size, and the list is remade only
        after a death."""
        if self._living_ids.size != self.n_living:
            self._living_ids = np.where(self.alive)[0]
        return self._living_ids

    def active_variants(self) -> np.ndarray:
        """Variant ids with at least one active infection, ascending."""
        counts = self.active_count[: self.registry.n_variants]
        return (counts > 0).nonzero()[0]

    def _log(self, event: str, agent: int, variant: int):
        if self.events is not None:
            cluster = int(self.registry.variant_cluster[variant])
            self.events.append((self.step_index, event, agent, variant, cluster))

    # -- infection -----------------------------------------------------

    def _begin_courses(self, agents: np.ndarray, normals: np.ndarray):
        """Start the courses of newly infected ``agents``, whose
        ``variant_of`` is already set; row ``i`` of ``normals`` holds
        agent ``i``'s course draws."""
        variants = self.variant_of[agents]
        props = self.registry.props_matrix.take(variants, axis=0)
        marks = draw_course(props, self.params.course_sd_frac, normals)
        self.counter[agents] = 0
        self.course_marks[agents] = marks
        self.symptomatic[agents] = _UNDETERMINED
        self.ever_infected[agents] = True
        self.active_count += np.bincount(variants, minlength=self.active_count.size)
        self.cum_infections += agents.size

    def try_infect(self, source_variant: int, target: int, course: np.ndarray) -> int:
        """Infect ``target`` with a fresh mutant child of ``source_variant``.

        The contact phase calls this only for an infection whose mutation
        roll (``mutation_prob``) succeeded.  A fraction ``drift_prob`` of
        mutations also opens a new antigenic cluster; on drift, every agent
        immune to the parent cluster independently gains immunity to the
        new cluster with probability ``cross_immunity``.

        The draws come in the order of stream v1: drift, the mutation
        shocks, the course's three standard normals (written into
        ``course``), then the cross-immunity rolls.  Returns the new
        variant; the caller sets ``variant_of`` and starts the course
        through ``_begin_courses``.
        """
        assert self.alive.item(target) and self.variant_of.item(target) < 0
        p = self.params
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
            self._log("drift", target, variant)
        course[:] = self.rng.normal(0.0, 1.0, 3)
        self._log("infection", target, variant)
        if drift:
            new_cluster = int(self.registry.variant_cluster[variant])
            parent_cluster = self.registry.cluster_parents[new_cluster]
            holders = np.where(self.immune[:, parent_cluster])[0]
            if holders.size:
                rolls = self.rng.uniform(size=holders.size)
                self.immune[holders[rolls < p.cross_immunity], new_cluster] = True
        return variant

    # -- phases ----------------------------------------------------------

    def contact_phase(self, infected: np.ndarray) -> np.ndarray:
        """Carriers meet random living agents and transmit.

        Carriers are agents whose counter lies in the infectious window
        ``latent_end <= counter < end_day`` and who are not isolated,
        listed once at phase start in ascending id order.  Each samples
        ``daily_contacts`` living agents uniformly with replacement,
        excluding itself; a contact is infected when it has no active
        infection, is not immune to the carrier's cluster, and a
        transmission roll beats ``infectiousness * (1 - distancing)``.
        An agent infected earlier in the phase blocks later attempts.

        No draw in the loop below changes which contacts are infected, so
        the phase finds them first, in numpy: each target's first
        successful contact in (carrier, contact) order.  The loop over them
        then makes only each infection's draws, in order: the mutation roll
        through the generator's bound ``random``, then either the mutating
        path (``try_infect``) or the three course normals through its
        bound ``standard_normal``, which gives ``normal(0.0, 1.0)``'s
        values but for the sign of a zero, which ``draw_course`` does not
        see.  ``variant_of`` is written and the courses started once, after
        the loop.

        ``infected`` lists the agents with an active infection in ascending
        id order, as ``np.flatnonzero(variant_of >= 0)`` does.  Returns the
        agents the phase infected.
        """
        count = self.counter[infected]
        # take gathers rows several times faster than indexing a 2-D array
        latent_end, _, end_day = self.course_marks.take(infected, axis=0).T
        carrying = (latent_end <= count) & (count < end_day)
        if self.params.isolate_symptomatic:
            # an infected agent is isolated while its course is symptomatic
            carrying &= self.symptomatic[infected] != 1
        carriers = infected[carrying]
        living = self._living()
        if carriers.size == 0 or living.size <= 1:
            return infected[:0]
        eta = self.params.daily_contacts
        # one flat block draws the words of a (carriers, eta) one, without
        # the cost numpy pays to size a tuple
        idx = self.rng.integers(0, living.size - 1, size=carriers.size * eta)
        rolls = self.rng.uniform(size=(carriers.size, eta))
        source = self.variant_of[carriers]
        infectiousness = np.minimum(self.registry.props_matrix[:, INFECTIOUSNESS][source], 1.0)
        transmit = infectiousness * (1.0 - self.params.social_distancing)
        # only the contacts whose roll transmits, a few percent of them, are
        # looked up, in (carrier, contact) order
        flat = (rolls < transmit[:, None]).ravel().nonzero()[0]
        if flat.size == 0:
            return infected[:0]
        rows = flat // eta
        picks = idx[flat]
        picks += picks >= living.searchsorted(carriers[rows])
        targets = living[picks]
        clusters = self.registry.variant_cluster[source[rows]]
        infecting = (self.variant_of[targets] < 0) & ~self.immune[targets, clusters]
        rows, hits = rows[infecting], targets[infecting]
        if rows.size == 0:
            return infected[:0]
        first = _first_occurrences(hits)
        agents = hits[first]
        variants = source[rows[first]].tolist()
        normals = np.empty((first.size, 3))
        generator = self.rng.generator
        random, standard_normal = generator.random, generator.standard_normal
        mutation_prob = self.params.mutation_prob
        events = self.events
        for i, course in enumerate(normals):
            if random() < mutation_prob:
                variants[i] = self.try_infect(variants[i], agents.item(i), course)
            else:
                standard_normal(out=course)
                if events is not None:
                    self._log("infection", agents.item(i), variants[i])
        self.variant_of[agents] = variants
        self._begin_courses(agents, normals)
        return agents

    def progression_phase(self, infected: np.ndarray):
        """Advance every active infection by one day and fire due events.

        Counters increment first.  Courses at or past their symptom day
        (when it precedes the end day) draw the symptomatic flag once.
        Courses at or past their end day resolve: death with probability
        ``fatality``, cut by ``1 - cross_protection`` for agents holding
        any immunity, otherwise recovery with immunity propagation.
        ``infected`` is as for ``contact_phase``.
        """
        count = self.counter[infected] + 1
        self.counter[infected] = count
        _, symptom_day, end_day = self.course_marks.take(infected, axis=0).T
        symptoms_due = infected[
            (self.symptomatic[infected] == _UNDETERMINED)
            & (count >= symptom_day)
            & (symptom_day < end_day)
        ]
        props = self.registry.props_matrix
        if symptoms_due.size:
            chance = np.minimum(props[:, SYMPTOMATIC_CHANCE][self.variant_of[symptoms_due]], 1.0)
            self.symptomatic[symptoms_due] = self.rng.uniform(size=symptoms_due.size) < chance
        ending = infected[count >= end_day]
        if ending.size == 0:
            return
        variants = self.variant_of[ending]
        fatality = np.minimum(props[:, FATALITY][variants], 1.0)
        protected = self.immune[ending, : self.registry.n_clusters].any(axis=1)
        fatality = np.where(protected, fatality * (1.0 - self.params.cross_protection), fatality)
        dies = self.rng.uniform(size=ending.size) < fatality
        clusters = self.registry.variant_cluster[variants]
        self.active_count -= np.bincount(variants, minlength=self.active_count.size)
        self.variant_of[ending] = _NO_INFECTION
        self.alive[ending[dies]] = False
        survives = ~dies
        self.grant_immunity(ending[survives], clusters[survives])
        if self.events is not None:  # no draws here: logging keeps the run's bytes
            for agent, variant, died in zip(ending.tolist(), variants.tolist(), dies.tolist()):
                self._log("death" if died else "recovery", agent, variant)

    def grant_immunity(self, agents, clusters):
        """Add each agent's cluster to its immune set and propagate.

        ``agents`` (distinct) and ``clusters`` are equal-length int
        arrays.  Agent by agent, in order, the walk goes breadth-first over
        the antigenic tree: each neighbor (parent first, then children) of
        a newly acquired cluster that is not yet in the set is gained when
        a scalar ``uniform()`` draw falls below ``cross_immunity``; a
        failed draw prunes that branch.

        The draws are those of that order, but none is made one by one.
        With one cluster there is nothing to draw.  Otherwise they are read
        from a block drawn ahead through the generator's bound ``random``;
        whenever the walk runs out, a further block as long as all drawn so
        far is appended, and at the end the stream is rewound over the
        draws not used.  The walk reads and writes a byte copy of the
        agents' immunity rows, written back once.
        """
        immune = self.immune
        immune[agents, clusters] = True
        n_clusters = self.registry.n_clusters
        if n_clusters == 1 or agents.size == 0:
            return
        psi = self.params.cross_immunity
        neighbors = self.registry.neighbor_table
        held = bytearray(immune[agents, :n_clusters])
        size = min(agents.size * (n_clusters - 1), 4 * agents.size + 16)
        random = self.rng.generator.random
        draws = random(size).tolist()
        used = 0
        row = 0
        for cluster in clusters.tolist():
            queue = [cluster]
            for node in queue:  # first in, first out: the loop reaches appended nodes
                for neighbor in neighbors[node]:
                    if not held[row + neighbor]:
                        if used == size:
                            draws += random(size).tolist()
                            size *= 2
                        used += 1
                        if draws[used - 1] < psi:
                            held[row + neighbor] = 1
                            queue.append(neighbor)
            row += n_clusters
        immune[agents, :n_clusters] = np.frombuffer(held, dtype=bool).reshape(-1, n_clusters)
        self.rng.rewind(size - used)

    # -- driver ----------------------------------------------------------

    def step(self):
        """Run one day: contacts, then progression, then bookkeeping.

        A world with no active infection is absorbing: neither phase could
        draw or change anything, so such a step only advances the clock.
        The phases share one list of the infected agents, to which the
        contact phase only adds.
        """
        self.step_index += 1
        # numpy scans for != faster than for >= 0, which selects the same agents
        infected = (self.variant_of != _NO_INFECTION).nonzero()[0]
        if infected.size == 0:
            return
        new = self.contact_phase(infected)
        if new.size:
            infected = np.concatenate((infected, new))
            # sorting a short list costs less than a second pass over everyone
            if 8 * infected.size < self.params.n_agents:
                infected.sort()
            else:
                infected = (self.variant_of != _NO_INFECTION).nonzero()[0]
        self.progression_phase(infected)
        active = self.active_variants()
        if active.size:
            self.last_active_variants = active

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
            np.ascontiguousarray(self.course_marks.T).tobytes(),
            self.symptomatic.tobytes(),
            self.isolated.tobytes(),
            self.ever_infected.tobytes(),
            np.ascontiguousarray(self.immune[:, :n_cl]).tobytes(),
            reg.props_matrix.tobytes(),
            reg.variant_cluster.tobytes(),
            reg.variant_depth.tobytes(),
            self.last_active_variants.tobytes(),
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
    """Advance ``w`` to its parameter horizon, calling back after each step.

    Without a callback, a world with no active infection moves to the
    horizon at once: it is absorbing, so its later steps would only
    advance ``step_index``.
    """
    horizon = w.params.horizon
    while w.step_index < horizon:
        if callback is None and w.n_infected == 0:
            w.step_index = horizon
            break
        w.step()
        if callback is not None:
            callback(w)
    return w
