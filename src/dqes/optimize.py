"""
Derivative-free minimizer in the COBYLA family: a linear model of the cost on
a coordinate probe stencil drives normalized descent steps of trust-radius
length, and the radius halves whenever neither the step nor the stencil finds
an improvement.

Evaluation schedule, relied on by callers: evaluation 1 is theta0 itself and
evaluations 2 .. dim+1 probe theta0 with coordinate j-1 offset by +rho_init.
A caller that already knows the cost at theta0 passes it in as evaluation 1.
The trace holds the rows the descent takes, in order; the reported final
energy is the trace minimum, so reporting is monotone even though the walk is
not.

The line search asks for several steps at once, as asynchronous parallel
pattern search evaluates several trial points at once (Hough, Kolda &
Torczon, SIAM J. Sci. Comput. 23(1), 2001): 2 steps, then twice as many as its
last ask while every step is accepted. It records the accepted steps and the
first rejected one, exactly the rows a one-step-per-call search would
evaluate, and drops the rest of the ask unread. After _STREAK (4) line
searches in a row whose first ask took exactly 1 step, the first ask also
carries the stencil at its first step: the next iteration reads it if the
search takes 1 step again, and it is dropped unread otherwise. So the rows
computed are the rows recorded plus the dropped steps and stencils, and the
trace is the one-step search's trace provided each row's value depends on
that row alone.

The descent is an ask/tell generator, the interface of pycma (Hansen, "The
CMA Evolution Strategy: A Tutorial", arXiv:1604.00772) and Optuna (Akiba et
al., KDD 2019): `descent` yields each (B, dim) batch of points it wants
evaluated (evaluation 1, a stencil or a line-search ask, cut to the budget),
is sent their B values, and returns the OptimizationTrace. `lockstep` drives
descents, joining their batches into one cost call; each row's value depends
on that row alone, so every trace is the one a lone descent gives, and
`minimize` is `lockstep` over one descent.
"""

import math
from dataclasses import dataclass
from functools import cached_property

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
    """The rows a descent took, in order, as two columns that `descent`
    extends one batch at a time: row i evaluated params[i] and got
    energies[i]. Equality, hash and repr read the columns and termination
    only; `entries`, the TraceEntry rows, is built when first read."""

    params: tuple[tuple[float, ...], ...]
    energies: tuple[float, ...]
    termination: str  # "converged" | "max-evals" | "threshold"

    @cached_property
    def entries(self) -> tuple[TraceEntry, ...]:
        # built on first read: the descent and the fit never read them
        return tuple(TraceEntry(index, params, energy) for index, (params, energy)
                     in enumerate(zip(self.params, self.energies), 1))

    @property
    def evaluations(self) -> int:
        return len(self.energies)

    @cached_property
    def _best(self) -> int:
        # the row of the first minimum, as min over entries gives; computed
        # once: final_energy and best_params both read it
        return self.energies.index(min(self.energies))

    @property
    def final_energy(self) -> float:
        return self.energies[self._best]

    @property
    def best_params(self) -> tuple[float, ...]:
        return self.params[self._best]


class _Stop(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def descent(theta0, config: OptimizerConfig | None = None, cost0: float | None = None):
    """The ask/tell descent `minimize` runs: yields each (B, dim) batch of
    points, is sent their B cost values, and returns the OptimizationTrace.
    The arguments are checked when it is started with send(None). A stencil
    asked ahead is built, cut and recorded as an asked one; see _STREAK."""
    if config is None:
        config = OptimizerConfig()
    x = np.array(theta0, dtype=float).reshape(-1)
    dim = len(x)
    if dim == 0:
        raise ValueError("theta0 must have at least one parameter")
    if config.max_evals < dim + 2:
        raise ValueError(
            f"max_evals must be at least dim + 2 = {dim + 2}, got {config.max_evals}")
    threshold = config.threshold
    params: list[tuple[float, ...]] = []  # the trace's columns
    energies: list[float] = []

    def record(points: np.ndarray, values: np.ndarray) -> None:
        # rows are checked in order; a threshold row ends the trace there
        rows, row_values = points.tolist(), values.tolist()
        for k, value in enumerate(row_values):
            if not math.isfinite(value):
                raise ValueError(f"cost returned a non-finite value {value!r} at {points[k]!r}")
            if threshold is not None and value <= threshold:
                del rows[k + 1:], row_values[k + 1:]
                params.extend(map(tuple, rows))
                energies.extend(row_values)
                raise _Stop("threshold")
        params.extend(map(tuple, rows))
        energies.extend(row_values)

    def cut(points: np.ndarray) -> np.ndarray:
        # rows past the budget are dropped before they are asked for or read
        points = points[:config.max_evals - len(energies)]
        if len(points) == 0:
            raise _Stop("max-evals")
        return points

    def stencil_at(point: np.ndarray) -> np.ndarray:
        probes = point[None].repeat(dim, axis=0)
        probes.reshape(-1)[::dim + 1] += rho  # the diagonal: probe j offsets coordinate j
        return probes

    termination = "converged"
    try:
        if cost0 is None:  # evaluation 1; max_evals >= 2, so it is never cut
            cost0 = np.asarray((yield x[None]), dtype=float).item(0)
        fx = float(cost0)
        record(x[None], np.array([fx]))
        rho = config.rho_init
        streak = 0  # line searches in a row whose first ask took exactly 1 step
        ahead = None  # (points, values) of this stencil, asked with the last line search
        while rho >= config.tol:
            # forward-difference stencil; the very first pass is the documented
            # probe pattern at rho_init
            if ahead is None:
                probes = cut(stencil_at(x))
                stencil = np.asarray((yield probes), dtype=float)
            else:  # asked with the last line search
                probes = cut(ahead[0])
                stencil, ahead = ahead[1][:len(probes)], None
            record(probes, stencil)
            if len(stencil) < dim:
                raise _Stop("max-evals")
            gradient = (stencil - fx) / rho
            largest = max(map(abs, gradient.tolist()))
            if largest > _PLAIN_NORM_LIMIT:  # a square could overflow
                # a power of two scales the norm and keeps the direction's bits
                gradient = np.ldexp(gradient, -math.frexp(largest)[1])
            # what np.linalg.norm computes for a real vector, bit for bit
            norm = math.sqrt(gradient.dot(gradient))
            moved = False
            if norm > 0:
                step = rho * (-gradient / norm)
                size = 2
                while True:
                    # the next size steps at once: row i is row i-1 + step, the
                    # point the one-step search would build
                    rows = np.empty((size + 1, dim))
                    rows[0], rows[1:] = x, step
                    asked = np.add.accumulate(rows, out=rows)[1:]
                    guess = size == 2 and streak >= _STREAK
                    if guess:  # the stencil at the first step, built as the loop builds it
                        asked = np.concatenate([asked, stencil_at(rows[1])])
                    asked = cut(asked)
                    told = np.asarray((yield asked), dtype=float)
                    candidates, values = asked[:size], told[:size]
                    taken = 0
                    for fc in values.tolist():
                        if not fc < fx - 1e-15 * (1 + abs(fx)):
                            break
                        fx = fc
                        taken += 1
                    if size == 2:
                        streak = streak + 1 if taken == 1 else 0
                        if guess and taken == 1 and len(candidates) == 2:
                            ahead = asked[2:], told[2:]
                    # the accepted steps and the first rejected one; the rest is unread
                    record(candidates[:taken + 1], values[:taken + 1])
                    if taken:
                        x = candidates[taken - 1]
                        moved = True
                    if taken < len(candidates):
                        break
                    size *= 2
            if not moved:
                j_best = int(stencil.argmin())
                value = stencil.item(j_best)
                if value < fx - 1e-15 * (1 + abs(fx)):
                    best = x.copy()
                    best[j_best] += rho
                    x, fx = best, value
                else:
                    rho /= 2
    except _Stop as stop:
        termination = stop.reason
    return OptimizationTrace(params=tuple(params), energies=tuple(energies),
                             termination=termination)


# Largest gradient component descent takes the plain norm of: squares of at
# most 2^1000 sum below the float64 range for up to 2^23 parameters. A larger
# component has the gradient scaled by a power of two first.
_PLAIN_NORM_LIMIT = 2.0**500

# Line searches in a row whose first ask took exactly 1 step (0 or 2 resets
# the count) before a first ask carries the stencil at its first step: after
# 4, the H2 fits take 1 step again 1,467 times in 1,476; VQE runs never reach 4.
_STREAK = 4

# Descents in flight at once: a small circuit costs little more for 4 rows than
# for 1, and with `done` a wider flight runs more descents past the last one used.
_WIDTH = 4


def lockstep(cost, descents, done: float | None = None) -> list[OptimizationTrace]:
    """Run descents (`descent` generators) over one cost; return their traces.

    Descents begin in index order, up to _WIDTH in flight, each taken from the
    iterable only when a slot frees. Each round joins every ask into one cost
    call and sends each descent its own values. When descent j ends with
    final_energy <= done, the later ones are dropped and the earlier ones run
    to their end: the result is the traces of descents 0 .. j, or of all.

    The traces are the ones each descent gives alone, with one step per
    line-search call, only if cost gives each row a value that depends on that
    row alone: the batches it is given vary in size and mix descents, a line
    search reads only a prefix of the steps it asked for, and a stencil asked
    ahead is read an iteration later or not at all."""
    pending = iter(descents)
    traces: dict[int, OptimizationTrace] = {}
    flight: dict[int, tuple] = {}  # index -> (its descent, the points it asks for)
    begun, limit = 0, math.inf  # descents from index limit on are dropped

    def tell(index: int, steps, values) -> None:
        nonlocal limit
        try:
            flight[index] = steps, steps.send(values)
        except StopIteration as end:
            flight.pop(index, None)
            traces[index] = end.value
            if done is not None and end.value.final_energy <= done:
                limit = index + 1
                for later in [i for i in flight if i > index]:
                    del flight[later]

    while True:
        while len(flight) < _WIDTH and begun < limit:
            steps = next(pending, None)
            if steps is None:
                limit = begun
            else:
                begun += 1
                tell(begun - 1, steps, None)  # send(None) starts a descent
        if not flight:
            return [traces[i] for i in range(limit)]
        asked = list(flight.items())
        rows = np.concatenate([points for _, (_, points) in asked])
        values = np.asarray(cost(rows), dtype=float)
        if values.shape != (len(rows),):
            raise ValueError(f"cost returned shape {values.shape} for {len(rows)} points")
        offset = 0
        for index, (steps, points) in asked:
            if index < limit:  # not dropped this round
                tell(index, steps, values[offset:offset + len(points)])
            offset += len(points)


def minimize(cost, theta0, config: OptimizerConfig | None = None,
             cost0: float | None = None) -> OptimizationTrace:
    """Minimize a cost over R^dim starting from theta0.

    cost takes a (B, dim) array of points and returns their B values: a 1-row
    call for evaluation 1, one call of up to dim rows per stencil, and the
    line-search asks of the module docstring, whose first ask carries the next
    stencil after 4 (_STREAK) single-step line searches in a row. cost0, when
    given, is the known cost at theta0: it becomes evaluation 1 and cost is
    not called there. Stops when the trust radius shrinks below tol
    ("converged"), when a value reaches config.threshold ("threshold"), or when
    max_evals evaluations (recorded rows) have been spent ("max-evals"). Each
    call is cut to the rows the budget has left, so no call asks for a row the
    trace could not hold; the rows computed are the rows recorded plus the
    dropped steps and stencils, and can pass max_evals. The rows of a call are
    recorded in order, and a threshold crossed mid-call ends the trace there.
    """
    return lockstep(cost, [descent(theta0, config, cost0)])[0]
