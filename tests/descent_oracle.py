"""The tests' one-step oracle for dqes.optimize.minimize.

The same descent with a line search that takes one step per cost call: each
candidate x + rho * direction is evaluated alone, recorded, and tested before
the next is built. minimize asks for several line-search steps in one call and
records only the ones this loop takes, so for a cost that gives each row a
value depending on that row alone, every minimize and lockstep trace must
equal this loop's. The loop builds its TraceEntry rows one at a time, so a
trace's entries, which it builds from its columns when first read, are held
to them as well.
"""

import math

import numpy as np

from dqes.optimize import OptimizationTrace, OptimizerConfig, TraceEntry


class _Stop(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def one_step_entries(cost, theta0, config: OptimizerConfig | None = None,
                     cost0: float | None = None) -> tuple[tuple[TraceEntry, ...], str]:
    """(entries, termination) of the trace minimize must give: cost is called
    once for evaluation 1 (unless cost0 is given), once per stencil, and once
    per line-search step."""
    if config is None:
        config = OptimizerConfig()
    x = np.array(theta0, dtype=float).reshape(-1)
    dim = len(x)
    entries: list[TraceEntry] = []

    def record(points: np.ndarray, values: np.ndarray) -> None:
        for k, (point, value) in enumerate(zip(points.tolist(), values.tolist())):
            if not math.isfinite(value):
                raise ValueError(f"cost returned a non-finite value {value!r} at {points[k]!r}")
            entries.append(TraceEntry(index=len(entries) + 1, params=tuple(point),
                                      energy=value))
            if config.threshold is not None and value <= config.threshold:
                raise _Stop("threshold")

    def evaluate(points: np.ndarray) -> np.ndarray:
        points = points[:config.max_evals - len(entries)]
        if len(points) == 0:
            raise _Stop("max-evals")
        values = np.asarray(cost(points), dtype=float)
        record(points, values)
        return values

    termination = "converged"
    try:
        if cost0 is None:
            fx = evaluate(x[None])[0]
        else:
            fx = float(cost0)
            record(x[None], np.array([fx]))
        rho = config.rho_init
        while rho >= config.tol:
            probes = np.repeat(x[None], dim, axis=0)
            probes.flat[::dim + 1] += rho
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
    return tuple(entries), termination


def trace_of(entries: tuple[TraceEntry, ...], termination: str) -> OptimizationTrace:
    """The OptimizationTrace whose columns hold these entries' rows."""
    return OptimizationTrace(params=tuple(entry.params for entry in entries),
                             energies=tuple(entry.energy for entry in entries),
                             termination=termination)


def one_step_minimize(cost, theta0, config: OptimizerConfig | None = None,
                      cost0: float | None = None) -> OptimizationTrace:
    """The trace minimize must give, as one_step_entries describes it."""
    return trace_of(*one_step_entries(cost, theta0, config, cost0))
