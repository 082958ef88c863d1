"""Adaptive accelerated composite gradient method and gap certificates.

The driver minimises ``smooth(t) + sum_e conjugate_e(t_e)`` where the
composite part separates over coordinates, each carrying a link-cost
conjugate. No Lipschitz constant is supplied: ``L0`` is only the first
local estimate. Each later iteration first tries a multiple of the secant
curvature measured over the last accepted step, kept between half of the
last accepted estimate and that estimate. Until the quadratic upper bound
holds at the proximal trial point, a rejected trial raises the estimate to
the larger of its double and that multiple of the curvature the failed
trial measured, which exceeds the rejected estimate. The step weights
follow the recursion ``alpha' ** 2 * L' - alpha' = alpha ** 2 * L``, which
makes the mixing weight ``1 / (alpha' * L')`` a valid convex-combination
coefficient and the weight sum telescope into the accumulated ``A``.

The composite step is vectorised: the iterates are float64 arrays, the
link-cost conjugates are compiled once per solve into a ``CostTable`` of
one cost form, and each prox, the summed conjugate of the dual value and
the cost integrals of the primal value run as one array formula over all
edges, with a Newton iteration only where a power cost's prox needs it.
Both proxes of an iteration start that Newton iteration at the flows of
the loading just made, minus the gradient: the prox's flow variable
``(v - t)/step`` is minus the gradient plus the step's own move over its
step size, so it tends to the loading's flows as the iterates settle.
Lists appear only where the network loading is called and where ``solve``
returns.

For the network dual, any primal-feasible pair of flows and nested entropy
yields a computable duality gap by weak duality: dual value at the estimate
sequence plus the (path-free) primal value at that pair. Two candidates are
kept, and the smaller primal value certifies: the weighted averages of flows
and route entropies over the gradient points, whose gap decays at the
accelerated rate, and the single loading of lowest primal value seen so far,
whose gap falls with the dual value's error while the average still carries
the weight of the early loadings. The gap is nonnegative up to round-off and
vanishes exactly at equilibrium. The run stops once the gap reaches
``gap_tol``, or once it is within a few units of round-off of ``|dual| +
|primal|``, where the two values agree to their last bits, or at
``max_iters``; the certificate's ``stop`` field names which
(``gap_reached``, ``roundoff`` or ``iteration_cap``).
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .costs import CostTable
from .loading import (
    LoadResult,
    _SmoothOverflow,
    dual_smooth_value,
    entropy_term,
    network_loading,
    surrogate_primal,  # unused here; perfbench/spans.py traces solver.surrogate_primal
)
from .model import NetworkHierarchy, longest_path_bounds

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SolverConfig",
    "IterationRecord",
    "GapCertificate",
    "BacktrackBudgetError",
    "alpha_step",
    "minimize_composite",
    "solve",
    "lipschitz_bound_diagnostic",
]


# Multiple of the measured secant curvature tried next: after an accepted
# step at the next iteration, after a rejected one within the same iteration.
_SECANT_MARGIN = 1.5
# Units of round-off in |dual| + |primal| below which a gap is noise.
_ROUNDOFF_ULPS = 8.0
# Rejected trials allowed within one iteration; each at least doubles the
# local Lipschitz estimate, so 60 of them raise it by at least 2 ** 60.
_MAX_BACKTRACKS = 60


class BacktrackBudgetError(Exception):
    """One iteration rejected more trials of the local Lipschitz estimate
    than the per-iteration budget allows."""


@dataclass(frozen=True)
class SolverConfig:
    L0: float = 1.0
    max_iters: int = 20000
    gap_tol: float = 1e-8

    def __post_init__(self) -> None:
        if not (_is_real(self.L0) and math.isfinite(self.L0) and self.L0 > 0.0):
            raise ValueError(f"L0 must be finite and positive, got {self.L0!r}")
        iters = self.max_iters
        if isinstance(iters, bool) or not isinstance(iters, int) or iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not (_is_real(self.gap_tol) and self.gap_tol >= 0.0):  # NaN fails too
            raise ValueError(f"gap_tol must be nonnegative, got {self.gap_tol!r}")


def _is_real(value) -> bool:
    """A real number that is not a ``bool``."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class IterationRecord:
    iter: int
    L_used: float
    n_func_evals: int  # cumulative
    dual_value: float
    gap: float | None
    alpha: float
    A: float


@dataclass
class GapCertificate:
    """Dual value at the estimate plus primal value at the certifying pair.

    ``avg_flows`` and ``avg_entropy`` are that pair: every level's edge flows
    and the nested entropy term of the point with the smaller primal value,
    which ``primal_point`` names. ``"average"`` is the weighted average over
    all loadings made at the gradient points, ``"loading"`` the single
    loading of lowest primal value among them. ``stop`` says why the run that
    produced it ended: ``"gap_reached"``, ``"roundoff"`` or
    ``"iteration_cap"`` (see ``_stop_reason``).
    """

    dual_value: float
    primal_value: float
    gap: float
    T: int
    avg_flows: list[list[float]]
    avg_entropy: float
    stop: str
    primal_point: str


def alpha_step(alpha_k: float, L_k: float, L_next: float) -> tuple[float, float]:
    """Next step weight and mixing coefficient.

    Returns ``(alpha_next, tau)`` with ``alpha_next * L_next >= 1`` so the
    mixing weight ``tau = 1 / (alpha_next * L_next)`` lies in (0, 1].
    It solves ``a**2 L_next - a = alpha_k**2 L_k`` through the unit-free
    products ``alpha L``: no ``L`` is squared, so it may lie near either end
    of the float range.
    """
    root = 1.0 + math.sqrt(1.0 + 4.0 * (alpha_k * L_k) * (alpha_k * L_next))
    return root / (2.0 * L_next), 2.0 / root


@dataclass
class StepInfo:
    """Snapshot of one accepted iteration handed to the acceptance hook:
    the step weight, the gradient point with the loading made there, and
    the dual value at the new estimate."""

    alpha: float
    x: np.ndarray
    aux: object
    dual_value: float


def minimize_composite(
    smooth,
    table: CostTable,
    t0: Sequence[float],
    cfg: SolverConfig,
    on_accept: Callable[[StepInfo], float | None] | None = None,
) -> tuple[np.ndarray, list[IterationRecord]]:
    """Run the adaptive accelerated loop from ``t0``.

    ``smooth`` duck-types two methods: ``value_and_grad(t) -> (value, grad,
    aux)`` and ``value(t) -> value``; both count as one oracle call each and
    receive float64 arrays. ``table`` is the compiled ``CostTable`` of the
    composite part, one cost per coordinate; the loop sees the costs only
    through its ``prox`` and ``conjugate``. ``on_accept`` may return a
    duality gap, which both lands in the history and stops the loop once it
    reaches ``cfg.gap_tol`` or round-off (see ``_stop_reason``).
    """
    import numpy as np

    y = np.array(t0, dtype=np.float64)
    z = y.copy()
    alpha = 0.0
    A = 0.0
    L_acc = L_next = cfg.L0
    evals = 0
    history: list[IterationRecord] = []

    for k in range(cfg.max_iters):
        L = L_next
        backtracks = 0
        while True:
            alpha_next, tau = alpha_step(alpha, L_acc, L)
            x = tau * z + (1.0 - tau) * y
            fx, grad, aux = smooth.value_and_grad(x)
            grad = np.asarray(grad, dtype=np.float64)
            flows = -grad
            evals += 1
            y_next = table.prox(x - grad / L, 1.0 / L, flows)
            fy = smooth.value(y_next)
            evals += 1
            d = y_next - x
            # Products that overflow are infinite: the secant below is then
            # no number, and a rejection falls back to doubling L.
            with np.errstate(over="ignore"):
                grad_d = float(grad @ d)
                d_d = float(d @ d)
            # Curvature of the smooth part along the trial step.
            L_sec = 2.0 * (fy - fx - grad_d) / d_d if d_d > 0.0 else 0.0
            # Quadratic upper bound of the smooth part at the trial point, up
            # to a round-off slack relative to |fx|, so free of the time unit.
            if fy <= fx + grad_d + 0.5 * L * d_d + 1e-12 * abs(fx):
                break
            backtracks += 1
            if backtracks > _MAX_BACKTRACKS:
                raise BacktrackBudgetError(
                    f"no acceptable local Lipschitz estimate within "
                    f"{_MAX_BACKTRACKS} backtracks at iteration {k}"
                )
            L = max(2.0 * L, _SECANT_MARGIN * L_sec) if math.isfinite(L_sec) else 2.0 * L
        z = table.prox(z - alpha_next * grad, alpha_next, flows)
        y = y_next
        alpha = alpha_next
        A += alpha_next
        L_acc = L
        L_next = _next_estimate(L, L_sec)

        dual_value = fy + table.conjugate(y)
        gap = None
        if on_accept is not None:
            gap = on_accept(StepInfo(alpha=alpha_next, x=x, aux=aux, dual_value=dual_value))
        history.append(
            IterationRecord(
                iter=k + 1,
                L_used=L,
                n_func_evals=evals,
                dual_value=dual_value,
                gap=gap,
                alpha=alpha_next,
                A=A,
            )
        )
        if _stop_reason(gap, dual_value, cfg.gap_tol) is not None:
            break
    return y, history


def _next_estimate(L: float, L_sec: float) -> float:
    """First estimate tried at the next iteration after ``L`` was accepted.

    ``L_sec = 2 (fy - fx - <grad, d>) / <d, d>`` is the secant curvature of
    the smooth part over the accepted step ``d`` (0 when ``d`` is 0), which
    the accepted bound caps at about ``L``. The next trial follows it
    down, ``_SECANT_MARGIN * L_sec``, by at most half of ``L`` per iteration
    and never above ``L``; the secant keeps ``L`` from falling below
    curvature the last step has already seen, which would cost a rejected
    trial at the next iteration.

    The at-most-halving keeps the universal method's oracle bound. Each
    iteration costs two oracle calls per trial. A rejected trial raises
    ``L`` to ``max(2 L, _SECANT_MARGIN * L_sec)`` of the failed step, so at
    least doubles it, and this function at most halves it once per
    iteration. Over ``k`` iterations with ``r`` rejections, ``log2`` of the
    last accepted estimate over ``L0`` is then at least ``r - (k - 1)``, so
    ``2k + 2r <= 4k + 2 log2(L_max / L0) + O(1)`` calls. Since ``L_sec``
    never exceeds the smooth part's Lipschitz constant ``L_f`` and a rejected
    ``L`` lies below ``L_sec``, every accepted ``L`` stays at most ``2 L_f``
    (or ``L0``), as under plain doubling.
    """
    return max(0.5 * L, min(L, _SECANT_MARGIN * L_sec))


def _stop_reason(gap: float | None, dual_value: float, gap_tol: float) -> str | None:
    """Why a run with this certificate stops, or ``None`` to go on.

    ``"gap_reached"`` once ``gap <= gap_tol``; ``"roundoff"`` once the gap is
    within ``_ROUNDOFF_ULPS`` units of round-off of ``|dual| + |primal|``,
    where the dual and primal values agree to their last bits and further
    iterations only move the gap by rounding, possibly below zero. Both
    scales are relative, so the stop does not depend on the unit of time.
    A gap that is not finite certifies nothing and never stops a run.
    """
    if gap is None or not math.isfinite(gap):
        return None
    if gap <= gap_tol:
        return "gap_reached"
    primal_value = gap - dual_value
    if gap <= _ROUNDOFF_ULPS * sys.float_info.epsilon * (abs(dual_value) + abs(primal_value)):
        return "roundoff"
    return None


def _plain_positions(net: NetworkHierarchy) -> np.ndarray:
    """Position of each plain edge, in plain-edge order, among the edges of
    every level concatenated in level order."""
    import numpy as np

    offsets = [0, *itertools.accumulate(len(level.edges) for level in net.levels)]
    return np.array([offsets[k] + pos for k, pos in net.plain_edge_order()], dtype=np.intp)


class _DualSmooth:
    """Smooth-oracle adapter: loading supplies value, gradient, and extras.

    ``plain`` is ``_plain_positions(net)``: the gradient is minus the flows
    it picks from the loading's concatenated levels. ``flows`` keeps that
    concatenation for the latest gradient's loading.
    """

    def __init__(self, net: NetworkHierarchy, plain: np.ndarray) -> None:
        self.net = net
        self.plain = plain
        self.flows: np.ndarray | None = None

    def value_and_grad(self, t: np.ndarray) -> tuple[float, np.ndarray, LoadResult]:
        import numpy as np

        result = network_loading(self.net, t.tolist())
        self.flows = np.concatenate(result.flows)
        return result.smooth_value, -self.flows[self.plain], result

    def value(self, t: np.ndarray) -> float:
        """The smooth value at a trial point; NaN where it leaves the float
        range, which no descent test accepts, so the trial is rejected."""
        try:
            return dual_smooth_value(self.net, t.tolist())
        except _SmoothOverflow:
            return math.nan


class _PrimalCandidates:
    """Primal candidates of the certificate: the weighted running averages of
    flows and nested entropy terms, and the single loading of lowest primal
    value so far.

    Flows are one array over every edge of every level, in level order,
    whose plain edges sit at ``plain`` (``_plain_positions``); the cost
    integrals of the primal values go through ``table``.
    """

    def __init__(self, net: NetworkHierarchy, table: CostTable, plain: np.ndarray) -> None:
        import numpy as np

        self.net = net
        self.table = table
        self.weight = 0.0
        offsets = list(itertools.accumulate(len(level.edges) for level in net.levels))
        self.level_ends = offsets[:-1]
        self.plain = plain
        self.flow_sums = np.zeros(offsets[-1])
        self.entropy_sum = 0.0
        self.average_value = math.inf
        self.loading: tuple[float, np.ndarray | None, float] = (math.inf, None, math.nan)

    def add(self, alpha: float, result: LoadResult, flows: np.ndarray) -> float:
        """Fold in the loading made with step weight ``alpha``, whose flows
        ``flows`` concatenates; returns the smaller primal value of the two
        candidates."""
        entropy = entropy_term(self.net, result)
        self.weight += alpha
        self.flow_sums += alpha * flows
        self.entropy_sum += alpha * entropy
        self.average_value = self.table.integral(
            self.flow_sums[self.plain] / self.weight, start=self.entropy_sum / self.weight
        )
        value = self.table.integral(flows[self.plain], start=entropy)
        if value < self.loading[0]:
            self.loading = (value, flows, entropy)
        return min(self.average_value, self.loading[0])

    def point(self) -> tuple[str, float, list[list[float]], float]:
        """The certifying candidate: its name, primal value, per-level flows
        and nested entropy term. The average wins ties."""
        import numpy as np

        if self.average_value <= self.loading[0]:
            kind, value = "average", self.average_value
            flows, entropy = self.flow_sums / self.weight, self.entropy_sum / self.weight
        else:
            kind, (value, flows, entropy) = "loading", self.loading
        return kind, value, [part.tolist() for part in np.split(flows, self.level_ends)], entropy


def solve(
    net: NetworkHierarchy,
    cfg: SolverConfig | None = None,
    t0: Sequence[float] | None = None,
) -> tuple[list[float], GapCertificate, list[IterationRecord]]:
    """Equilibrium solve of the network dual from free-flow times.

    Returns the final dual point, the duality-gap certificate at the primal
    candidate of smaller value (see ``GapCertificate``), and the
    per-iteration history.
    """
    cfg = cfg or SolverConfig()
    start = net.free_flow_times() if t0 is None else [float(v) for v in t0]
    table = CostTable(net.plain_costs())
    plain = _plain_positions(net)
    candidates = _PrimalCandidates(net, table, plain)
    smooth = _DualSmooth(net, plain)

    def on_accept(info: StepInfo) -> float:
        # The accepted loading is the latest gradient's: a trial's value
        # call loads no flows.
        return info.dual_value + candidates.add(info.alpha, info.aux, smooth.flows)

    t_final, history = minimize_composite(smooth, table, start, cfg, on_accept)
    kind, primal_value, flows, entropy = candidates.point()
    certificate = GapCertificate(
        dual_value=history[-1].dual_value,
        primal_value=primal_value,
        gap=history[-1].gap,
        T=history[-1].iter,
        avg_flows=flows,
        avg_entropy=entropy,
        stop=_stop_reason(history[-1].gap, history[-1].dual_value, cfg.gap_tol)
        or "iteration_cap",
        primal_point=kind,
    )
    return t_final.tolist(), certificate, history


def lipschitz_bound_diagnostic(net: NetworkHierarchy) -> float:
    """A-priori curvature bound of the smooth dual term (diagnostic only);
    ``inf`` when a level-1 OD pair's routes may cross a cyclic level."""
    gamma_min = min(net.gammas)
    total = 0.0
    for od, length in zip(net.levels[0].od_pairs, longest_path_bounds(net)[0]):
        total += od.demand * length * length
    return total / gamma_min
