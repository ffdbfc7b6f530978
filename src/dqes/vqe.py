"""
VQE driver: landscape-informed initialization strategies, the fit of ansatz
parameters to a target state, and the run that minimizes the energy.

Initialization strategies:
- ShiftedMubInit: start the optimizer at zero parameters with the MUB state
  itself as the circuit input.
- ParameterFitInit: solve for parameters that prepare the MUB state from
  |0...0> and start there; when the state is outside the ansatz family, fall
  back to the ShiftedMubInit start (recorded on the result), with no fit
  when a Y-only ansatz cannot reach it.
- RandomStateInit: a seeded Haar-random input state, optimizer at zero.

_resolve_init decides every start. The ansatz is the identity at zero, so a
start at the MUB state with zero parameters, shifted or fallen back, takes
the landscape energy as evaluation 1, scored by the sweep's own kernel: it
equals the landscape record by construction.
"""

from dataclasses import dataclass

import numpy as np

from .ansatz import AnsatzSpec, compile_ansatz
from .landscape import score_spec
from .mub import PartialMubSpec, _partition_classes, realize_partial_state
from .optimize import OptimizationTrace, OptimizerConfig, descent, lockstep, minimize
from .paulis import Observable, compile_observable
from .states import StateVector, random_state, zero_state


@dataclass(frozen=True)
class ShiftedMubInit:
    spec: PartialMubSpec

    def label(self) -> str:
        return self.spec.label()


@dataclass(frozen=True)
class ParameterFitInit:
    spec: PartialMubSpec
    seed: int = 0

    def label(self) -> str:
        return "fit-" + self.spec.label()


@dataclass(frozen=True)
class RandomStateInit:
    seed: int

    def label(self) -> str:
        return f"random{self.seed}"


InitStrategy = ShiftedMubInit | ParameterFitInit | RandomStateInit


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting ansatz parameters to a target state."""

    reachable: bool
    params: tuple[float, ...]
    starts_used: int


@dataclass(frozen=True)
class VqeResult:
    init: InitStrategy
    ansatz: AnsatzSpec
    trace: OptimizationTrace
    initial_state: StateVector
    used_fallback: bool = False

    @property
    def label(self) -> str:
        return self.init.label()

    @property
    def initial_energy(self) -> float:
        return self.trace.energies[0]

    @property
    def final_energy(self) -> float:
        return self.trace.final_energy


# Verdict line for reachability; well above the fit's typical 1e-15 residual
# and tight enough that a fit start reproduces the landscape energy to 1e-6.
_REACHABLE_INFIDELITY = 1e-9

_FIT_CONFIG = OptimizerConfig(rho_init=0.5, tol=1e-10, max_evals=4000, threshold=1e-16)


def _infidelities(target: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """1 - |<target|row>|^2 for each row of a (B, 2^n) stack.

    Each value equals 1.0 - abs(np.dot(np.conj(target), row)) ** 2 bit for bit.
    The squares are Python's float ** 2 (libm pow) of the scalar abs: numpy's
    ** 2 on an array is np.square, and it and np.abs move the last bits.
    """
    return np.array([1.0 - abs(z) ** 2 for z in np.vecdot(target, rows).tolist()])


# A start whose best infidelity reaches this is the last start the search uses.
_FIT_DONE = 1e-14

# Most starts one fit runs.
_FIT_STARTS = 32


def fit_parameters_to_state(spec: AnsatzSpec, target: StateVector, seed: int = 0) -> FitResult:
    """Multi-start search for parameters with U(theta)|0...0> = target up to phase.

    Start i, for i below _FIT_STARTS (32), descends from theta0 drawn
    uniformly from [-pi, pi)^P by default_rng([seed, i]). The rule is
    sequential: run starts 0, 1, ... in order, keep the lowest infidelity, and
    stop after the first start that reaches 1e-14. The starts run through
    optimize.lockstep with done=1e-14, which returns traces 0 .. j of which
    only the last can reach 1e-14, so their first minimum is the sequential
    loop's result.

    Reachable iff the best fidelity is at least 1 - 1e-9; the verdict carries
    the best parameters found either way.
    """
    if target.n != spec.n:
        raise ValueError(f"target has {target.n} qubits but ansatz is on {spec.n}")
    zero = zero_state(spec.n).amps
    circuit = compile_ansatz(spec)

    def infidelity(thetas) -> np.ndarray:
        return _infidelities(target.amps, circuit(thetas, zero))

    descents = (descent(np.random.default_rng([seed, i]).uniform(
        -np.pi, np.pi, spec.parameter_count), _FIT_CONFIG) for i in range(_FIT_STARTS))
    traces = lockstep(infidelity, descents, done=_FIT_DONE)
    best = min(traces, key=lambda trace: trace.final_energy)
    return FitResult(reachable=best.final_energy <= _REACHABLE_INFIDELITY, params=best.best_params,
                     starts_used=len(traces))


def _resolve_init(init: InitStrategy, obs: Observable, spec: AnsatzSpec):
    """(input state, starting parameters, known evaluation 1, used_fallback) of a start.

    A start at the MUB state with zero parameters, a ShiftedMubInit or a fit
    that fell back, knows evaluation 1: score_spec(obs, init.spec), the
    landscape energy. Any other start leaves it to the cost (None). A Y-only
    fit that can only fall back is not run.
    """
    zeros = np.zeros(spec.parameter_count)
    if isinstance(init, RandomStateInit):
        return random_state(spec.n, init.seed), zeros, None, False
    if not isinstance(init, (ShiftedMubInit, ParameterFitInit)):
        raise TypeError(f"unknown initialization strategy {type(init).__name__}")
    target = realize_partial_state(init.spec)
    run_fit = isinstance(init, ParameterFitInit)
    if run_fit and spec.rotation_axes == ("Y",):
        # a Y-only circuit prepares real vectors, which reach fidelity 1/2 at best
        # with a MUB state whose class has a member with an odd number of Y letters
        members = _partition_classes(init.spec.k)[init.spec.basis_index]
        run_fit = not any((x & z).bit_count() & 1 for x, z in members)
    if run_fit:
        fit = fit_parameters_to_state(spec, target, seed=init.seed)
        if fit.reachable:
            return zero_state(spec.n), np.asarray(fit.params, dtype=float), None, False
    # the MUB state at zero parameters: a shifted start, or a fit that fell back
    return target, zeros, score_spec(obs, init.spec), isinstance(init, ParameterFitInit)


def run_vqe(obs: Observable, spec: AnsatzSpec, init: InitStrategy,
            config: OptimizerConfig | None = None) -> VqeResult:
    """One optimization run; the result's final energy is the trace minimum.

    The cost maps each row theta of a (B, P) parameter stack to
    <psi(theta)|H|psi(theta)>, psi = U(theta) initial, through the circuit and
    the observable compiled once. Each row's state equals the gate-by-gate
    reference of tests/reference_path.py bit for bit, and its energy lies within
    1e-14 * max(1, W) of the term-by-term sum there; row i's value does not
    depend on the other rows.
    """
    if obs.n != spec.n:
        raise ValueError(f"observable is on {obs.n} qubits but ansatz is on {spec.n}")
    initial, theta_start, known, used_fallback = _resolve_init(init, obs, spec)
    circuit, energy = compile_ansatz(spec), compile_observable(obs)
    trace = minimize(lambda thetas: energy(circuit(thetas, initial.amps)), theta_start, config,
                     cost0=known)
    return VqeResult(init=init, ansatz=spec, trace=trace, initial_state=initial,
                     used_fallback=used_fallback)
