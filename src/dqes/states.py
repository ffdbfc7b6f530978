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
_UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on n qubits, amplitudes in basis-label order."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be between 1 and {MAX_QUBITS}, got {self.n}")
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (2**self.n,):
            raise ValueError(f"expected {2**self.n} amplitudes for n={self.n}, got shape {amps.shape}")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ValueError(f"state is not normalized: sum of |amps|^2 = {norm_sq!r}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return 2**self.n


@dataclass(frozen=True)
class Gate:
    """Single-qubit unitary on `target`, or a CNOT when `control` is set.

    Qubit indices are 1-based. For a CNOT the matrix field must be None.
    """

    target: int
    matrix: np.ndarray | None = None
    control: int | None = None

    def __post_init__(self):
        if self.target < 1:
            raise ValueError(f"target qubit must be >= 1, got {self.target}")
        if self.control is None:
            if self.matrix is None:
                raise ValueError("single-qubit gate requires a 2x2 matrix")
            m = np.asarray(self.matrix, dtype=complex)
            if m.shape != (2, 2):
                raise ValueError(f"gate matrix must be 2x2, got shape {m.shape}")
            dev = float(np.max(np.abs(m.conj().T @ m - np.eye(2))))
            if dev > _UNITARY_TOL:
                raise ValueError(f"gate matrix is not unitary (deviation {dev:.3e})")
            m = m.copy()
            m.flags.writeable = False
            object.__setattr__(self, "matrix", m)
        else:
            if self.matrix is not None:
                raise ValueError("CNOT takes no matrix")
            if self.control < 1:
                raise ValueError(f"control qubit must be >= 1, got {self.control}")
            if self.control == self.target:
                raise ValueError(f"control and target must differ, both are {self.target}")

    @property
    def is_cnot(self) -> bool:
        return self.control is not None


# Fixed 2x2 matrices; rotation angles follow the exp(-i theta A / 2) convention.
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_SDG = np.array([[1, 0], [0, -1j]], dtype=complex)


def _ry_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz_matrix(theta: float) -> np.ndarray:
    return np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=complex)


def ry(theta: float, target: int) -> Gate:
    return Gate(target=target, matrix=_ry_matrix(theta))


def rz(theta: float, target: int) -> Gate:
    return Gate(target=target, matrix=_rz_matrix(theta))


def cnot(control: int, target: int) -> Gate:
    return Gate(target=target, control=control)


def zero_state(n: int) -> StateVector:
    """|0...0> on n qubits."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be between 1 and {MAX_QUBITS}, got {n}")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    return StateVector(n, amps)


def basis_state(n: int, index: int) -> StateVector:
    """Computational basis state |index> with qubit 1 as the most significant bit."""
    if not 0 <= index < 2**n:
        raise ValueError(f"basis index must be in [0, {2**n}), got {index}")
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """New state with the gate applied; the input state is untouched."""
    n = state.n
    if gate.target > n or (gate.control is not None and gate.control > n):
        raise ValueError(f"gate acts on qubit beyond register size {n}")
    if gate.is_cnot:
        amps = _apply_cnot(state.amps, n, gate.control, gate.target)
    else:
        amps = _apply_single(state.amps, n, gate.target, gate.matrix)
    return StateVector(n, amps)


def _apply_single(amps: np.ndarray, n: int, target: int, matrix: np.ndarray) -> np.ndarray:
    # axis q-1 of the [2]*n reshape is qubit q (qubit 1 varies slowest)
    psi = amps.reshape([2] * n)
    psi = np.moveaxis(np.tensordot(matrix, psi, axes=([1], [target - 1])), 0, target - 1)
    return np.ascontiguousarray(psi).reshape(-1)


def _layout(n: int, target: int) -> np.ndarray:
    """Gather index that lays a 2^n state out as the (2, 2^(n-1)) operand of a
    2x2 matrix on qubit target: row j of the operand holds the amplitudes whose
    target bit is j, in index order, so operand.flat[p] = amps[layout[p]].

    It is the order np.tensordot moves qubit target into inside _apply_single,
    so one gather hands np.matmul the operand apply_gate multiplies.
    """
    a, b = 2 ** (target - 1), 2 ** (n - target)
    return np.arange(2**n).reshape(a, 2, b).transpose(1, 0, 2).reshape(-1)


def _cnot_source(n: int, control: int, target: int) -> np.ndarray:
    """Gather index of a CNOT: the new amplitude i is the old amplitude src[i]."""
    idx = np.arange(2**n)
    flip = idx ^ (1 << (n - target))
    return np.where((idx >> (n - control)) & 1 == 1, flip, idx)


def _apply_cnot(amps: np.ndarray, n: int, control: int, target: int) -> np.ndarray:
    return amps[_cnot_source(n, control, target)]


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    return complex(np.vdot(a.amps, b.amps))


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
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector(n, v / np.linalg.norm(v))


def states_equal(a: StateVector, b: StateVector, tol: float = 1e-10) -> bool:
    """Equality up to global phase: |<a|b>| = 1 within tol."""
    return abs(abs(inner_product(a, b)) - 1.0) <= tol
