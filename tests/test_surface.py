"""The public surface: the names ``sueflow`` exports, and the library names
that the benchmark's tracer, ``perfbench/spans.py``, rebinds by name."""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import sueflow
import sueflow.cli  # the tracer rebinds names of the cli module too
from sueflow import costs, loading, model, oracle, solver

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

PUBLIC = [
    "__version__",
    "AffineCost",
    "ConstantCost",
    "LinkCost",
    "PowerCost",
    "LoadingError",
    "LoadResult",
    "MassLeakError",
    "NoPathError",
    "dual_objective",
    "dual_smooth_value",
    "hierarchical_weights",
    "network_loading",
    "Edge",
    "LevelGraph",
    "NetworkHierarchy",
    "ODPair",
    "ODRef",
    "Violation",
    "validate_hierarchy",
    "BacktrackBudgetError",
    "GapCertificate",
    "IterationRecord",
    "SolverConfig",
    "alpha_step",
    "lipschitz_bound_diagnostic",
    "solve",
]


class TestPublicNames:
    def test_all_is_the_explicit_list(self):
        assert sueflow.__all__ == PUBLIC
        for name in PUBLIC:
            assert hasattr(sueflow, name), name

    def test_every_module_export_resolves(self):
        for module in (costs, loading, model, oracle, solver):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_removed_names_are_gone(self):
        for name in ("duality_gap", "softmin_potentials"):
            assert not hasattr(sueflow, name)
        assert not hasattr(solver, "duality_gap")
        assert not hasattr(loading, "softmin_potentials")
        for cls in (costs.LinkCost, costs.ConstantCost, costs.AffineCost, costs.PowerCost):
            assert not hasattr(cls, "conjugate_derivative"), cls.__name__
        assert "wall_time" not in {f.name for f in dataclasses.fields(solver.IterationRecord)}
        # Optional fields would let a certificate be built without them.
        for field in dataclasses.fields(solver.GapCertificate):
            assert field.default is dataclasses.MISSING, field.name
        # The loading module compiles and keeps each level's one plan; the
        # model keeps graph facts only.
        for name in ("LevelProgram", "Step", "longest_path_bounds", "_longest_routes"):
            assert not hasattr(model, name), name
            assert name not in model.__all__
        for name in ("program", "cyclic_plan", "_program"):
            assert not hasattr(model.LevelIndex, name), name
        plan_slots = [s for s in model.LevelIndex.__slots__ if "plan" in s or "program" in s]
        assert plan_slots == ["plan"]
        assert "longest_path_bounds" not in loading.__all__


def load_spans(monkeypatch):
    """``perfbench/spans.py`` as a module, imported from its path unedited."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while they are built.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class TestTracerPins:
    def test_instrument_rebinds_every_pin_and_restores_it(self, monkeypatch):
        spans = load_spans(monkeypatch)
        pins = [(getattr(sueflow, module), attr) for module, attr, _ in spans.SPAN_TARGETS]
        pins += [
            (cls, attr)
            for cls in (costs.ConstantCost, costs.AffineCost, costs.PowerCost)
            for attr in (*spans.AGGREGATE_METHODS, "travel_time")
        ]
        originals = [owner.__dict__[attr] for owner, attr in pins]
        with spans.instrument(sueflow, spans.Tracer()):
            for (owner, attr), original in zip(pins, originals):
                assert owner.__dict__[attr] is not original, attr
        for (owner, attr), original in zip(pins, originals):
            assert owner.__dict__[attr] is original, attr
