"""
Derivative-free minimizer in the COBYLA family: a linear model of the cost on
a coordinate probe stencil drives normalized descent steps of trust-radius
length, and the radius halves whenever neither the step nor the stencil finds
an improvement.

Evaluation schedule, relied on by callers: evaluation 1 is theta0 itself and
evaluations 2 .. dim+1 probe theta0 with coordinate j-1 offset by +rho_init.
A caller that already knows the cost at theta0 passes it in as evaluation 1.
The cost sees a (B, dim) stack of points per call: each stencil is one stack,
so a caller can evaluate its dim probes as one batch. Every evaluated row
lands in the trace, in order; the reported final energy is the trace minimum,
so reporting is monotone even though the walk is not.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OptimizerConfig:
    rho_init: float = 0.5
    tol: float = 1e-6
    max_evals: int = 500
    threshold: float | None = None

    def __post_init__(self):
        for name in ("rho_init", "tol", "threshold"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.rho_init <= 0:
            raise ValueError(f"rho_init must be positive, got {self.rho_init}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_evals < 2:
            raise ValueError(f"max_evals must be at least 2, got {self.max_evals}")


@dataclass(frozen=True)
class TraceEntry:
    index: int  # 1-based evaluation number
    params: tuple[float, ...]
    energy: float


@dataclass(frozen=True)
class OptimizationTrace:
    entries: tuple[TraceEntry, ...]
    termination: str  # "converged" | "max-evals" | "threshold"

    @property
    def evaluations(self) -> int:
        return len(self.entries)

    @property
    def best_entry(self) -> TraceEntry:
        return min(self.entries, key=lambda e: e.energy)

    @property
    def final_energy(self) -> float:
        return self.best_entry.energy

    @property
    def best_params(self) -> tuple[float, ...]:
        return self.best_entry.params


class _Stop(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def minimize(cost, theta0, config: OptimizerConfig | None = None,
             cost0: float | None = None) -> OptimizationTrace:
    """Minimize a cost over R^dim starting from theta0.

    cost takes a (B, dim) array of points and returns their B values. Each
    stencil is one call of up to dim rows; evaluation 1 and each line-search
    step are 1-row calls. cost0, when given, is the known cost at theta0: it
    becomes evaluation 1 and cost is not called there. Stops when the trust
    radius shrinks below tol ("converged"), when a value reaches
    config.threshold ("threshold"), or when max_evals evaluations (rows) have
    been spent ("max-evals"). A stencil that would pass the budget is cut to
    the rows left, so no row beyond max_evals is computed; the rows of a call
    are recorded in order, and a threshold crossed mid-stencil ends the trace
    at the crossing row and discards the rest of the batch.
    """
    if config is None:
        config = OptimizerConfig()
    x = np.array(theta0, dtype=float).reshape(-1)
    dim = len(x)
    if dim == 0:
        raise ValueError("theta0 must have at least one parameter")
    if config.max_evals < dim + 2:
        raise ValueError(
            f"max_evals must be at least dim + 2 = {dim + 2}, got {config.max_evals}")
    entries: list[TraceEntry] = []

    def record(point: np.ndarray, value: float) -> None:
        if not np.isfinite(value):
            raise ValueError(f"cost returned a non-finite value {value!r} at {point!r}")
        entries.append(TraceEntry(index=len(entries) + 1,
                                  params=tuple(point.tolist()),
                                  energy=value))
        if config.threshold is not None and value <= config.threshold:
            raise _Stop("threshold")

    def evaluate(points: np.ndarray) -> np.ndarray:
        # rows past the budget are dropped before cost sees them
        points = points[:config.max_evals - len(entries)]
        if len(points) == 0:
            raise _Stop("max-evals")
        values = np.asarray(cost(points), dtype=float)
        if values.shape != (len(points),):
            raise ValueError(f"cost returned shape {values.shape} for {len(points)} points")
        for point, value in zip(points, values):
            record(point, float(value))
        return values

    termination = "converged"
    try:
        if cost0 is None:
            fx = evaluate(x[None])[0]
        else:
            fx = float(cost0)
            record(x, fx)
        rho = config.rho_init
        while rho >= config.tol:
            # forward-difference stencil; the very first pass is the documented
            # probe pattern at rho_init
            probes = np.tile(x, (dim, 1))
            probes[np.arange(dim), np.arange(dim)] += rho
            stencil = evaluate(probes)
            if len(stencil) < dim:
                raise _Stop("max-evals")
            gradient = (stencil - fx) / rho
            norm = float(np.linalg.norm(gradient))
            moved = False
            if norm > 0:
                direction = -gradient / norm
                while True:
                    candidate = x + rho * direction
                    fc = evaluate(candidate[None])[0]
                    if fc < fx - 1e-15 * (1 + abs(fx)):
                        x, fx = candidate, fc
                        moved = True
                    else:
                        break
            if not moved:
                j_best = int(np.argmin(stencil))
                if stencil[j_best] < fx - 1e-15 * (1 + abs(fx)):
                    best = x.copy()
                    best[j_best] += rho
                    x, fx = best, stencil[j_best]
                else:
                    rho /= 2
    except _Stop as stop:
        termination = stop.reason
    return OptimizationTrace(entries=tuple(entries), termination=termination)
