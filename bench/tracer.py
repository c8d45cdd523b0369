"""In-memory spans and call counters around sepaird's public functions.

A span is one call: its name, start, end and the span that was open when
it started.  Spans are kept in flat arrays while the workload runs and are
written out only at the end.  A span's self time is its duration minus the
durations of its direct children.

Functions are patched where they are looked up, not where they are
defined: ``abm`` imports ``spawn_variant`` by name, ``montecarlo`` imports
``init_world``, ``run`` and ``active_variant_stats`` by name, and ``cli``
imports the commands' library calls by name.
"""

from __future__ import annotations

import functools
import time
from array import array

# (span name, [(module, attribute), ...]) for every traced function; the
# dotted module name is relative to the ``sepaird`` package
SPANS = (
    ("abm.contact_phase", [("abm", "World.contact_phase")]),
    ("abm.try_infect", [("abm", "World.try_infect")]),
    ("abm.draw_course", [("abm", "draw_course")]),
    ("abm.progression_phase", [("abm", "World.progression_phase")]),
    ("abm.grant_immunity", [("abm", "World.grant_immunity")]),
    ("abm.init_world", [("cli", "init_world"), ("montecarlo", "init_world")]),
    ("abm.run", [("montecarlo", "run")]),
    ("variants.spawn_variant", [("abm", "spawn_variant")]),
    ("phylo.active_variant_stats", [("montecarlo", "active_variant_stats")]),
    ("montecarlo.metric_row", [("montecarlo", "metric_row")]),
    (
        "montecarlo.collect_world_run",
        [("cli", "collect_world_run"), ("montecarlo", "collect_world_run")],
    ),
    ("montecarlo.sweep", [("cli", "sweep")]),
    ("montecarlo.write_dataset", [("cli", "write_dataset")]),
    ("montecarlo.write_manifest", [("cli", "write_manifest")]),
    ("montecarlo.read_dataset", [("cli", "read_dataset")]),
    ("montecarlo.quantile_series", [("cli", "quantile_series")]),
    ("montecarlo.notched_box", [("cli", "notched_box")]),
    ("montecarlo.write_quantiles", [("cli", "write_quantiles")]),
    ("montecarlo.write_boxes", [("cli", "write_boxes")]),
    ("montecarlo.read_quantiles", [("cli", "read_quantiles")]),
    ("montecarlo.read_boxes", [("cli", "read_boxes")]),
    ("ode.integrate", [("cli", "integrate")]),
    ("ode.effective_reproduction", [("cli", "effective_reproduction")]),
    ("svg.render_quantile_lines", [("cli", "render_quantile_lines")]),
    ("svg.render_notched_boxes", [("cli", "render_notched_boxes")]),
)

# draw primitives, counted without spans: they run millions of times
COUNTED = (
    ("rng.bernoulli", [("rng", "RngStream.bernoulli")]),
    ("rng.normal", [("rng", "RngStream.normal")]),
    ("rng.uniform", [("rng", "RngStream.uniform")]),
)


class Tracer:
    """Span recorder; ``install`` patches sepaird, ``uninstall`` restores it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self.name_of = array("l")
        self.parent_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.calls: dict = {}
        self._open: list = []
        self._patches: list = []

    def span(self, name: str, fn):
        """Wrap ``fn`` so each call records one span named ``name``."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        name_of, parent_of, start, end = self.name_of, self.parent_of, self.start, self.end
        stack, clock = self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_of.append(name_id)
            parent_of.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def counter(self, name: str, fn):
        """Wrap ``fn`` so each call only adds one to ``self.calls[name]``."""
        calls = self.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, package):
        """Patch every function in ``SPANS`` and ``COUNTED`` inside ``package``."""
        for name, sites in SPANS:
            for module, attribute in sites:
                self._patch(package, module, attribute,
                            lambda fn, name=name: self.span(name, fn))
        for name, sites in COUNTED:
            for module, attribute in sites:
                self._patch(package, module, attribute,
                            lambda fn, name=name: self.counter(name, fn))

    def uninstall(self):
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _patch(self, package, module, attribute, make):
        owner = getattr(package, module)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf]
        self._patches.append((owner, leaf, original))
        setattr(owner, leaf, make(original))

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        return summarize(self.names, self.name_of, self.parent_of, self.start, self.end)

    def write(self, path: str) -> None:
        """Write every span as CSV: index, parent index, name, start, end."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            names = self.names
            for i, (n, p, s, e) in enumerate(
                zip(self.name_of, self.parent_of, self.start, self.end)
            ):
                fh.write(f"{i},{p},{names[n]},{s!r},{e!r}\n")


def summarize(names, name_of, parent_of, start, end) -> dict:
    """Aggregate spans by name into calls, total and self time.

    Self time is a span's duration minus the durations of the spans whose
    parent it is; grandchildren are already inside those children.
    """
    duration = [e - s for s, e in zip(start, end)]
    children = [0.0] * len(duration)
    for index, parent in enumerate(parent_of):
        if parent >= 0:
            children[parent] += duration[index]
    out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in names}
    for index, name_id in enumerate(name_of):
        row = out[names[name_id]]
        row["calls"] += 1
        row["s"] += duration[index]
        row["self_s"] += duration[index] - children[index]
    return out
