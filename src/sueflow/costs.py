"""Parametric link congestion costs.

Every cost family is a non-decreasing travel time ``tau(f)`` on flows
``f >= 0`` with a closed-form running integral ``sigma``, the convex
conjugate ``sigma*`` of that integral (maximised over nonnegative flows),
and the prox of the conjugate.

The solver and the loading module's objectives do not call these methods
edge by edge: a ``CostTable`` compiles the plain-edge costs of a network
into the one form ``tau(f) = a + c*(f/s)**mu``, which holds every family
(a constant cost has ``c = 0``, an affine cost ``s = mu = 1``), and
evaluates the summed conjugate and the summed integral with one array
formula each. Its prox is one closed form too, except on power costs,
where it solves for the edge flow behind each prox point by Newton's
method, over a block of their parameters compiled with the table; the
solver passes the flows of its latest loading, near which that root lies
once the steps settle, so Newton starts there. The root's equation is
convex and increasing in the flow, so Newton needs no bracket: after its
first step it falls to the root monotonically. The per-edge methods are
the table's independent reference, for the oracle and the table's tests;
elsewhere in the library only ``travel_time`` runs, for free-flow times.
The per-edge ``prox_conjugate`` is the scalar form of the table's prox,
and ``PowerCost.prox_conjugate`` is the prox of a one-cost table, started
cold. numpy is imported only by the table and its Newton kernel, so
parsing and validation never load it.

This module holds only the math; the ``cli`` module reads the file form
of a cost. Each class's constructor rejects a parameter that is
non-finite or out of range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "LinkCost",
    "ConstantCost",
    "AffineCost",
    "PowerCost",
    "CostTable",
    "ProxConvergenceError",
]

# Newton iterations allowed to the power-cost prox before it gives up.
_ROOT_ITERS = 200


class ProxConvergenceError(ArithmeticError):
    """The power-cost prox did not converge within ``_ROOT_ITERS`` steps, or
    a table's prox, or the solver's mirror step, has no finite answer in
    floats."""


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
        if not 0.0 < self.t0 < math.inf:
            raise ValueError(f"constant cost requires finite t0 > 0, got {self.t0}")

    def travel_time(self, f: float) -> float:
        self._check_flow(f)
        return self.t0

    def integral(self, f: float) -> float:
        self._check_flow(f)
        return self.t0 * f

    def conjugate(self, t: float) -> float:
        # sup_{f>=0} f*(t - t0) is 0 up to t0 and +inf beyond.
        return 0.0 if t <= self.t0 else math.inf

    def prox_conjugate(self, v: float, step: float) -> float:
        self._check_step(step)
        return min(v, self.t0)


@dataclass(frozen=True)
class AffineCost(LinkCost):
    """Linear congestion ``tau(f) = a + b*f`` with finite ``a >= 0``, ``b > 0``."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.a < math.inf:
            raise ValueError(f"affine cost requires finite a >= 0, got {self.a}")
        if not 0.0 < self.b < math.inf:
            raise ValueError(f"affine cost requires finite b > 0, got {self.b}")

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

    def prox_conjugate(self, v: float, step: float) -> float:
        self._check_step(step)
        if v <= self.a:
            return v
        # Stationarity of (t - v)^2/(2 step) + (t - a)^2/(2 b) on t >= a, in
        # the table's form. The exact root lies in [a, v]; a plus a
        # nonnegative term never falls below a, and the clamp removes
        # rounding past v.
        return min(self.a + self.b / (self.b + step) * (v - self.a), v)


@dataclass(frozen=True)
class PowerCost(LinkCost):
    """BPR-style polynomial congestion.

    ``tau(f) = t0 * (1 + beta * (f / cap) ** mu)`` with finite ``t0, beta,
    cap > 0`` and exponent ``mu >= 1``.
    """

    t0: float
    beta: float
    cap: float
    mu: float

    def __post_init__(self) -> None:
        if not 0.0 < self.t0 < math.inf:
            raise ValueError(f"power cost requires finite t0 > 0, got {self.t0}")
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"power cost requires finite beta > 0, got {self.beta}")
        if not 0.0 < self.cap < math.inf:
            raise ValueError(f"power cost requires finite cap > 0, got {self.cap}")
        if not 1.0 <= self.mu < math.inf:
            raise ValueError(f"power cost requires finite mu >= 1, got {self.mu}")

    def travel_time(self, f: float) -> float:
        self._check_flow(f)
        try:
            return self.t0 * (1.0 + self.beta * (f / self.cap) ** self.mu)
        except OverflowError:  # Python's float power raises where numpy's is inf
            return math.inf

    def integral(self, f: float) -> float:
        self._check_flow(f)
        ratio = f / self.cap
        try:
            return self.t0 * f + self.t0 * self.beta / (self.mu + 1.0) * (f * ratio**self.mu)
        except OverflowError:
            return math.inf

    def conjugate(self, t: float) -> float:
        if t <= self.t0:
            return 0.0
        # f*t - integral(f) at tau(f) = t, simplified so that nothing cancels
        # near free flow.
        d = t - self.t0
        f = self.cap * (d / (self.t0 * self.beta)) ** (1.0 / self.mu)
        return f * d * self.mu / (self.mu + 1.0)

    def prox_conjugate(self, v: float, step: float) -> float:
        self._check_step(step)
        if v <= self.t0:
            return v
        import numpy as np

        return float(CostTable([self]).prox(np.array([v]), step)[0])


class _NewtonBlock(NamedTuple):
    """The power costs of a ``CostTable``, compiled once for
    ``_power_prox``: their positions ``at`` in the table and, per position,
    ``a``, ``c``, ``s``, ``1/mu``, ``mu - 1`` and the slope coefficient
    ``c*mu/s`` of ``tau'(f) = c*mu/s * (f/s)**(mu - 1)``."""

    at: np.ndarray
    a: np.ndarray
    c: np.ndarray
    s: np.ndarray
    inv_mu: np.ndarray
    mu_1: np.ndarray
    slope: np.ndarray


def _power_prox(block: _NewtonBlock, v, step, flows=None):
    """Prox of the power-cost conjugates of ``block``, elementwise, at the
    table's ``v`` (and flow estimates ``flows``) at the block's positions.

    Above ``a`` the minimiser satisfies ``t = v - step*f`` with ``tau(f) =
    t``, so each element solves ``q(f) = tau(f) - v + step*f = 0``. ``q``
    is convex and strictly increasing (``q' >= step``) with no derivative
    singularity, unlike the same root in the t variable, so Newton needs no
    bracket: from any ``f >= 0`` the tangent's root lies at or right of
    ``q``'s, and from there on Newton falls to the root monotonically.
    Newton starts at ``flows``, an estimate of the root, clamped into ``[0,
    hi]`` with ``hi = min((v - a)/step, tau^-1(v))``, above the root, so
    that a negative or NaN estimate starts at 0 and one above ``hi`` (or
    ``+inf``) at ``hi``; without an estimate it starts at ``hi``. The first
    step is clamped at ``hi`` too. An element stops once ``|q| <= 1e-15 v``
    or, after that first step, once ``f`` stops decreasing, when rounding
    has taken it to the root. An element at or below ``a`` never steps: its
    ``hi`` is 0, and its answer ``min(a, v) = v``, the identity.
    The loop runs until its slowest element has stopped and raises
    ``ProxConvergenceError`` if that takes more than ``_ROOT_ITERS`` steps.
    It runs under its caller's ``np.errstate``: where a bound, a power or a
    slope overflows (a huge excess over a tiny ``c``, a flow far above a
    tiny ``s``, a huge ``mu``), an element may end in NaN, or in ``-inf``
    once ``tau`` overflows, which ``CostTable.prox`` rejects; every finite
    path keeps its bits.
    """
    import numpy as np

    a, c, s = block.a, block.c, block.s
    v = v[block.at]
    excess = np.fmax(v - a, 0.0)
    hi = np.minimum(excess / step, s * (excess / c) ** block.inv_mu)
    f = hi if flows is None else np.fmin(np.fmax(flows[block.at], 0.0), hi)
    # Relative to v (> a > 0), with no absolute term: in another unit of
    # time the same Newton steps stop at the same element.
    q_tol = 1e-15 * v
    live = v > a
    for k in range(_ROOT_ITERS):
        r = f / s
        r_1 = r**block.mu_1  # the one power of the pass, shared by tau and q'
        # tau(f) as a plus the congestion term, which rounds once: near the
        # free-flow kink a*(1 + beta*r**mu) loses the last bits of t - a.
        tau = a + c * (r_1 * r)
        q = tau - v + step * f
        live &= np.abs(q) > q_tol
        if not np.count_nonzero(live):
            break
        f_new = np.minimum(f - q / (block.slope * r_1 + step), hi)
        live &= f_new < f if k else f_new != f
        f = np.where(live, f_new, f)
    else:
        raise ProxConvergenceError(
            f"power-cost prox did not converge in {_ROOT_ITERS} Newton steps "
            f"(step {step!r}, {int(live.sum())} of {v.size} elements left)"
        )
    # Report the time through tau(f), not v - step*f, which cancels
    # catastrophically near the kink. A prox never exceeds v; the clamp only
    # removes rounding in tau.
    return np.minimum(tau, v)


# Each cost class's (a, c, s, mu) in the table's form.
_TABLE_FORMS = {
    ConstantCost: lambda cost: (cost.t0, 0.0, 1.0, 1.0),
    AffineCost: lambda cost: (cost.a, cost.b, 1.0, 1.0),
    PowerCost: lambda cost: (cost.t0, cost.t0 * cost.beta, cost.cap, cost.mu),
}


class CostTable:
    """Plain-edge costs compiled into the one form ``tau(f) = a + c*(f/s)**mu``.

    ``costs`` is in the network's canonical plain-edge order, and so are the
    arrays ``a``, ``c``, ``s``, ``mu`` and the arrays the kernels take and
    return. A constant cost compiles to ``(t0, 0, 1, 1)``, an affine cost to
    ``(a, b, 1, 1)`` and a power cost to ``(t0, t0*beta, cap, mu)``. The
    power costs, whose prox has no closed form, are also compiled into the
    ``_NewtonBlock`` of ``_power_prox``; it is ``None`` without one.
    """

    def __init__(self, costs: Sequence[LinkCost]) -> None:
        import numpy as np

        forms = []
        for cost in costs:
            if type(cost) not in _TABLE_FORMS:
                raise TypeError(f"unknown cost class {type(cost).__name__}")
            forms.append(_TABLE_FORMS[type(cost)](cost))
        self.a, self.c, self.s, self.mu = np.array(forms, dtype=np.float64).reshape(-1, 4).T
        at = np.flatnonzero([type(cost) is PowerCost for cost in costs])
        a, c, s, mu = self.a[at], self.c[at], self.s[at], self.mu[at]
        with np.errstate(over="ignore"):  # a slope past the float range is +inf
            slope = c * mu / s
        self._newton = _NewtonBlock(at, a, c, s, 1.0 / mu, mu - 1.0, slope) if at.size else None
        # Where c = 0 the conjugate's domain ends at a, so d = t - a is 0 in it
        # and any divisor serves.
        self._c_div = np.where(self.c > 0.0, self.c, 1.0)
        # The integral's coefficient leaves out s, which enters through the
        # ratio f/s instead: c*s/(mu + 1) passes the float range at a huge
        # cap where the integral itself does not.
        self._int_coef = self.c / (self.mu + 1.0)

    def prox(self, v: np.ndarray, step: float, flows: np.ndarray | None = None) -> np.ndarray:
        """Elementwise ``argmin_t (t - v)**2 / (2*step) + conjugate(t)``.

        The identity up to ``a``; above it, the closed form
        ``min(a + c*(v - a)/(c + step), v)``, which is ``a`` when ``c = 0``,
        except on the power costs, which take the array Newton of
        ``_power_prox``. ``flows``, in plain-edge order, estimates each
        edge's flow ``(v - t)/step`` at the answer; Newton starts there
        instead of at the top of its range. Any estimate gives the same
        answer up to Newton's tolerance.

        The kernels run without numpy warnings. In exact arithmetic the
        answer lies between ``min(a, v)`` and ``v``, but where a power
        cost's Newton leaves the float range it may end in NaN or, once
        ``tau`` overflows and the step falls to ``-inf``, in ``-inf``. An
        answer that is NaN, or infinite at a finite ``v``, raises
        ``ProxConvergenceError`` naming the step and the number of such
        edges; an infinite ``v`` may give an infinite answer. An infinite
        step, a step weight past the float range, raises
        ``ProxConvergenceError`` too.
        """
        import numpy as np

        if step <= 0.0:
            raise ValueError(f"prox step must be positive, got {step}")
        if step == math.inf:
            raise ProxConvergenceError("the prox step overflows to inf")
        v = np.asarray(v, dtype=np.float64)
        a, c = self.a, self.c
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # fmax takes the negative excess below a to 0, and so the NaN of
            # 0 * inf at a constant cost's v = +inf.
            t = np.minimum(a + np.fmax(c / (c + step) * (v - a), 0.0), v)
            if self._newton is not None:
                if flows is not None:
                    flows = np.asarray(flows, dtype=np.float64)
                t[self._newton.at] = _power_prox(self._newton, v, step, flows)
        bad = np.count_nonzero(np.isnan(t) | np.isinf(t) & np.isfinite(v))
        if bad:
            raise ProxConvergenceError(
                f"the prox at step {step!r} is not finite for {bad} of {t.size} plain edges"
            )
        return t

    def conjugate(self, t: np.ndarray) -> float:
        """Sum of the conjugates at ``t``; ``+inf`` outside the domain or
        once a term overflows."""
        import numpy as np

        d = np.maximum(t - self.a, 0.0)
        if (d[self.c == 0.0] > 0.0).any():
            return math.inf
        # f*t - integral(f) at tau(f) = t, simplified so that nothing cancels
        # near free flow.
        with np.errstate(over="ignore"):
            f = self.s * (d / self._c_div) ** (1.0 / self.mu)
            terms = f * d * self.mu / (self.mu + 1.0)
        return _ordered_sum(0.0, terms)

    def integral(self, f: np.ndarray, start: float = 0.0) -> float:
        """``start`` plus the sum of the cost integrals at the flows ``f``;
        ``+inf`` once a term's power overflows, as at a flow far above a
        tiny ``cap``, and wherever the sum is no number: a coefficient that
        underflowed to 0 times a power that overflowed, or an infinite
        ``start`` against an infinite term. So a primal value from this
        sum is never NaN, and one that is not finite certifies nothing."""
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):
            power = f * (f / self.s) ** self.mu
            # A constant cost (c = 0) has no congestion term, whatever its power.
            terms = self.a * f + np.where(self.c > 0.0, self._int_coef * power, 0.0)
        total = _ordered_sum(start, terms)
        return math.inf if math.isnan(total) else total


def _ordered_sum(start: float, values: np.ndarray) -> float:
    """``start`` plus ``values`` added left to right in plain-edge order: the
    order of the per-edge loops that the table replaces, so a sum of the same
    values keeps its bits. A sum past the float range is infinite, and one
    of opposite infinities NaN."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.add.accumulate(np.concatenate(([start], values)))[-1])
