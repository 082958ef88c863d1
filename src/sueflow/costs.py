"""Parametric link congestion costs.

Every cost family is a non-decreasing travel time ``tau(f)`` on flows
``f >= 0`` with a closed-form running integral ``sigma``, the convex
conjugate ``sigma*`` of that integral (maximised over nonnegative flows),
the conjugate derivative (the inverse time map), and the scalar prox of
the conjugate that the composite solver applies edge by edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "LinkCost",
    "ConstantCost",
    "AffineCost",
    "PowerCost",
    "cost_from_dict",
    "cost_to_dict",
]

# Inner solves for prox/root operations.
_ROOT_ITERS = 200


class LinkCost:
    """Base class for travel-time families ``tau(f)``, ``f >= 0``."""

    def travel_time(self, f: float) -> float:
        """Time experienced at flow ``f``; non-decreasing in ``f``."""
        raise NotImplementedError

    def integral(self, f: float) -> float:
        """Running integral of the time map from 0 to ``f`` (convex)."""
        raise NotImplementedError

    def conjugate(self, t: float) -> float:
        """sup over f >= 0 of ``f*t - integral(f)``; ``+inf`` above the domain."""
        raise NotImplementedError

    def conjugate_derivative(self, t: float) -> float:
        """The flow ``f >= 0`` with ``tau(f) = t``; 0 at or below free flow."""
        raise NotImplementedError

    def prox_conjugate(self, v: float, step: float) -> float:
        """argmin over t of ``(t - v)**2 / (2*step) + conjugate(t)``."""
        raise NotImplementedError

    @property
    def free_flow_time(self) -> float:
        return self.travel_time(0.0)

    def _check_flow(self, f: float) -> None:
        if f < 0.0:
            raise ValueError(f"flow must be nonnegative, got {f}")

    def _check_step(self, step: float) -> None:
        if step <= 0.0:
            raise ValueError(f"prox step must be positive, got {step}")


@dataclass(frozen=True)
class ConstantCost(LinkCost):
    """Flow-independent time ``tau(f) = t0``."""

    t0: float

    def __post_init__(self) -> None:
        if self.t0 <= 0.0:
            raise ValueError(f"constant cost requires t0 > 0, got {self.t0}")

    def travel_time(self, f: float) -> float:
        self._check_flow(f)
        return self.t0

    def integral(self, f: float) -> float:
        self._check_flow(f)
        return self.t0 * f

    def conjugate(self, t: float) -> float:
        # sup_{f>=0} f*(t - t0) is 0 up to t0 and +inf beyond.
        return 0.0 if t <= self.t0 else math.inf

    def conjugate_derivative(self, t: float) -> float:
        if t > self.t0:
            raise ValueError(
                f"time {t} above the conjugate domain upper bound {self.t0}"
            )
        return 0.0

    def prox_conjugate(self, v: float, step: float) -> float:
        self._check_step(step)
        return min(v, self.t0)


@dataclass(frozen=True)
class AffineCost(LinkCost):
    """Linear congestion ``tau(f) = a + b*f`` with ``a >= 0``, ``b > 0``."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if self.a < 0.0:
            raise ValueError(f"affine cost requires a >= 0, got {self.a}")
        if self.b <= 0.0:
            raise ValueError(f"affine cost requires b > 0, got {self.b}")

    def travel_time(self, f: float) -> float:
        self._check_flow(f)
        return self.a + self.b * f

    def integral(self, f: float) -> float:
        self._check_flow(f)
        return self.a * f + 0.5 * self.b * f * f

    def conjugate(self, t: float) -> float:
        if t <= self.a:
            return 0.0
        d = t - self.a
        return d * d / (2.0 * self.b)

    def conjugate_derivative(self, t: float) -> float:
        return max(0.0, (t - self.a) / self.b)

    def prox_conjugate(self, v: float, step: float) -> float:
        self._check_step(step)
        if v <= self.a:
            return v
        # Stationarity of (t - v)^2/(2 step) + (t - a)^2/(2 b) on t >= a.
        return (self.b * v + step * self.a) / (self.b + step)


@dataclass(frozen=True)
class PowerCost(LinkCost):
    """BPR-style polynomial congestion.

    ``tau(f) = t0 * (1 + beta * (f / cap) ** mu)`` with ``t0, beta, cap > 0``
    and exponent ``mu >= 1``.
    """

    t0: float
    beta: float
    cap: float
    mu: float

    def __post_init__(self) -> None:
        if self.t0 <= 0.0:
            raise ValueError(f"power cost requires t0 > 0, got {self.t0}")
        if self.beta <= 0.0:
            raise ValueError(f"power cost requires beta > 0, got {self.beta}")
        if self.cap <= 0.0:
            raise ValueError(f"power cost requires cap > 0, got {self.cap}")
        if self.mu < 1.0:
            raise ValueError(f"power cost requires mu >= 1, got {self.mu}")

    def travel_time(self, f: float) -> float:
        self._check_flow(f)
        return self.t0 * (1.0 + self.beta * (f / self.cap) ** self.mu)

    def integral(self, f: float) -> float:
        self._check_flow(f)
        ratio = f / self.cap
        return self.t0 * f + self.t0 * self.beta * self.cap / (self.mu + 1.0) * ratio ** (
            self.mu + 1.0
        )

    def conjugate(self, t: float) -> float:
        if t <= self.t0:
            return 0.0
        f = self.conjugate_derivative(t)
        return f * t - self.integral(f)

    def conjugate_derivative(self, t: float) -> float:
        if t <= self.t0:
            return 0.0
        return self.cap * ((t - self.t0) / (self.t0 * self.beta)) ** (1.0 / self.mu)

    def prox_conjugate(self, v: float, step: float) -> float:
        self._check_step(step)
        if v <= self.t0:
            return v
        # The minimiser satisfies t = v - step*f with tau(f) = t, so solve
        # q(f) = tau(f) - v + step*f = 0 on [0, (v - t0)/step]. q is strictly
        # increasing (q' >= step) with no derivative singularity, unlike the
        # same root in the t variable, so safeguarded Newton is reliable.
        lo, hi = 0.0, (v - self.t0) / step
        f = hi
        for _ in range(_ROOT_ITERS):
            q = self.travel_time(f) - v + step * f
            if abs(q) <= 1e-15 * (1.0 + abs(v)) or hi - lo <= 1e-16 * (1.0 + hi):
                break
            if q > 0.0:
                hi = f
            else:
                lo = f
            slope = (
                self.t0 * self.beta * self.mu / self.cap * (f / self.cap) ** (self.mu - 1.0)
                + step
            )
            f_new = f - q / slope
            if not lo < f_new < hi:
                f_new = 0.5 * (lo + hi)
            if f_new == f:
                break
            f = f_new
        # Report the time through tau(f): near the free-flow kink the form
        # v - step*f cancels catastrophically while tau keeps full precision.
        return self.travel_time(f)


_COST_TYPES = {
    "constant": (ConstantCost, ("t0",)),
    "affine": (AffineCost, ("a", "b")),
    "power": (PowerCost, ("t0", "beta", "cap", "mu")),
}


def cost_from_dict(obj: dict) -> LinkCost:
    """Build a cost from its file form, rejecting unknown types and keys."""
    if not isinstance(obj, dict):
        raise ValueError(f"cost must be an object, got {type(obj).__name__}")
    kind = obj.get("type")
    if kind not in _COST_TYPES:
        raise ValueError(f"unknown cost type {kind!r}")
    cls, fields = _COST_TYPES[kind]
    extra = set(obj) - {"type", *fields}
    if extra:
        raise ValueError(f"unknown cost keys {sorted(extra)} for type {kind!r}")
    missing = [k for k in fields if k not in obj]
    if missing:
        raise ValueError(f"missing cost keys {missing} for type {kind!r}")
    params = {}
    for k in fields:
        val = obj[k]
        if not isinstance(val, (int, float)) or isinstance(val, bool) or not math.isfinite(val):
            raise ValueError(f"cost parameter {k!r} must be a finite number, got {val!r}")
        params[k] = float(val)
    return cls(**params)


def cost_to_dict(cost: LinkCost) -> dict:
    if isinstance(cost, ConstantCost):
        return {"type": "constant", "t0": cost.t0}
    if isinstance(cost, AffineCost):
        return {"type": "affine", "a": cost.a, "b": cost.b}
    if isinstance(cost, PowerCost):
        return {"type": "power", "t0": cost.t0, "beta": cost.beta, "cap": cost.cap, "mu": cost.mu}
    raise TypeError(f"unknown cost class {type(cost).__name__}")
