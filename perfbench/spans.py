"""Spans and call aggregates recorded from outside the library.

``instrument`` rebinds public names of ``sueflow`` in this process only and
restores them on exit. Coarse boundaries (parse, solve, each oracle call,
averaging, the diagnostic, the CLI's weight sweep) become spans; the hot
per-edge cost methods are aggregated into a call count and a self time
instead of one span per call.

Self time is a call's duration minus the durations of the traced calls it
made, so the self times of every span and aggregate under a root add up
to the root's duration.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

# (module, name the module calls through, span name): rebound while tracing.
# Spans are named after the layer that does the work.
SPAN_TARGETS = (
    ("solver", "network_loading", "loading.network_loading"),
    ("solver", "dual_smooth_value", "loading.dual_smooth_value"),
    ("solver", "entropy_term", "solver.average.entropy_term"),
    ("solver", "surrogate_primal", "solver.average.surrogate_primal"),
    ("cli", "parse_network", "cli.parse_network"),
    ("cli", "validate_hierarchy", "model.validate_hierarchy"),
    ("cli", "solve", "solver.solve"),
    ("cli", "lipschitz_bound_diagnostic", "solver.lipschitz_bound_diagnostic"),
    ("cli", "hierarchical_weights", "loading.hierarchical_weights"),
)
# Per-edge cost methods, aggregated per method over all cost classes.
AGGREGATE_METHODS = ("prox_conjugate", "conjugate", "integral")


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Spans and aggregates of one traced request at a time."""

    request: int = 0
    spans: list[dict] = field(default_factory=list)
    stats: dict[str, Stat] = field(default_factory=dict)
    newton_steps: int = 0
    _open: list[dict] = field(default_factory=list)
    _child: list[float] = field(default_factory=lambda: [0.0])
    _in_prox: int = 0

    def begin(self, request: int) -> None:
        """Start a new request: aggregates restart, spans accumulate."""
        self.request = request
        self.stats = {}
        self.newton_steps = 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        rec = {"request": self.request, "id": len(self.spans), "name": name,
               "parent": self._open[-1]["id"] if self._open else None}
        self.spans.append(rec)
        self._open.append(rec)
        self._child.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            child = self._child.pop()
            self._open.pop()
            rec.update(start=start, end=end, self_s=(end - start) - child)
            self._child[-1] += end - start

    def _aggregate(self, name: str, fn, args):
        self._child.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dt = time.perf_counter() - start
            child = self._child.pop()
            stat = self.stats.setdefault(name, Stat())
            stat.calls += 1
            stat.self_s += dt - child
            self._child[-1] += dt

    def span_self(self, name: str) -> float:
        return sum(s["self_s"] for s in self.spans
                   if s["request"] == self.request and s["name"] == name)

    def span_count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["request"] == self.request and s["name"] == name)

    def total_self(self) -> float:
        """Self time of the current request's last top-level span, its
        descendants and the aggregates."""
        mine = [s for s in self.spans if s["request"] == self.request]
        root = [s for s in mine if s["parent"] is None][-1]
        spans = sum(s["self_s"] for s in mine if s["start"] >= root["start"])
        return spans + sum(stat.self_s for stat in self.stats.values())


def _span_wrapper(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)
    return traced


def _aggregate_wrapper(tracer: Tracer, name: str, fn, is_prox: bool):
    if is_prox:
        def traced(*args):
            tracer._in_prox += 1
            try:
                return tracer._aggregate(name, fn, args)
            finally:
                tracer._in_prox -= 1
    else:
        def traced(*args):
            return tracer._aggregate(name, fn, args)
    return traced


def _newton_counter(tracer: Tracer, fn):
    # Inside prox_conjugate each travel_time call is one Newton step.
    def counted(*args):
        if tracer._in_prox:
            tracer.newton_steps += 1
        return fn(*args)
    return counted


@contextlib.contextmanager
def instrument(sueflow, tracer: Tracer):
    """Rebind the traced names of the ``sueflow`` package; restore on exit."""
    undo = []

    def rebind(owner, attr, replacement):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    try:
        for module_name, attr, span_name in SPAN_TARGETS:
            module = getattr(sueflow, module_name)
            rebind(module, attr, _span_wrapper(tracer, span_name, getattr(module, attr)))
        for cls in (sueflow.costs.ConstantCost, sueflow.costs.AffineCost,
                    sueflow.costs.PowerCost):
            for attr in AGGREGATE_METHODS:
                rebind(cls, attr, _aggregate_wrapper(tracer, f"costs.{attr}",
                                                     cls.__dict__[attr],
                                                     attr == "prox_conjugate"))
            rebind(cls, "travel_time", _newton_counter(tracer, cls.__dict__["travel_time"]))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
