"""
Dense statevector core.

Conventions used across the package:
- Qubits are numbered 1..n and qubit 1 is the leftmost (most significant) bit
  of the basis-state label, so |q1 q2 ... qn> has amplitude index
  sum_k q_k * 2**(n-k). Qubit q therefore lives on bit position n - q.
- States are immutable after construction and always normalized.
- A state vector is capped at 12 qubits. Sweeps never build one, so they go
  further (mub.MAX_SWEEP_QUBITS); dense algebra above 12 qubits is out of scope.
"""

from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 12

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on n qubits, amplitudes in basis-label order."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        _check_qubit_count(self.n)
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (2**self.n,):
            raise ValueError(f"expected {2**self.n} amplitudes for n={self.n}, got shape {amps.shape}")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ValueError(f"state is not normalized: sum of |amps|^2 = {norm_sq!r}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)


def _check_qubit_count(n: int) -> None:
    """Raise ValueError unless n qubits fit a state vector; called before any allocation."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be between 1 and {MAX_QUBITS}, got {n}")


def zero_state(n: int) -> StateVector:
    """|0...0> on n qubits."""
    return basis_state(n, 0)


def basis_state(n: int, index: int) -> StateVector:
    """Computational basis state |index> with qubit 1 as the most significant bit."""
    _check_qubit_count(n)
    if not 0 <= index < 2**n:
        raise ValueError(f"basis index must be in [0, {2**n}), got {index}")
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


def _layout(n: int, target: int) -> np.ndarray:
    """Gather index that lays a 2^n state out as the (2, 2^(n-1)) operand of a
    2x2 matrix on qubit target: row j of the operand holds the amplitudes whose
    target bit is j, in index order, so operand.flat[p] = amps[layout[p]].

    It is the order np.tensordot moves qubit target into in the tests'
    gate-by-gate reference (tests/reference_path.py, _apply_single), so one
    gather hands np.matmul the operand that reference multiplies.
    """
    a, b = 2 ** (target - 1), 2 ** (n - target)
    return np.arange(2**n).reshape(a, 2, b).transpose(1, 0, 2).reshape(-1)


def _cnot_source(n: int, control: int, target: int) -> np.ndarray:
    """Gather index of a CNOT: the new amplitude i is the old amplitude src[i]."""
    idx = np.arange(2**n)
    flip = idx ^ (1 << (n - target))
    return np.where((idx >> (n - control)) & 1 == 1, flip, idx)


def bloch_coordinates(state: StateVector) -> tuple[float, float, float]:
    """(<X>, <Y>, <Z>) of a single-qubit state."""
    if state.n != 1:
        raise ValueError(f"Bloch coordinates are defined for one qubit, got n={state.n}")
    a0, a1 = state.amps
    x = 2 * np.real(np.conj(a0) * a1)
    y = 2 * np.imag(np.conj(a0) * a1)
    z = np.abs(a0) ** 2 - np.abs(a1) ** 2
    return (float(x), float(y), float(z))


def random_state(n: int, seed: int) -> StateVector:
    """Haar-random pure state: normalized complex Gaussian vector."""
    _check_qubit_count(n)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector(n, v / np.linalg.norm(v))

