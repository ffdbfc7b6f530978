"""The tests' gate-by-gate reference path.

One validated Gate and one validated StateVector per step: build_ansatz lists
the circuit's gates in application order, apply_gate applies one of them, and
pauli_apply applies one Pauli string. dqes runs none of this; its compiled
circuit (dqes.ansatz.compile_ansatz) is held to it bit for bit, and its
compiled observable (dqes.paulis.compile_observable), which sums each X
mask's terms in one pass, to 1e-14 * max(1, W) of the sum of pauli_apply
term by term. prepare_state and expectation_exact run those kernels on
one validated StateVector, the form the tests compare states and energies in,
and basis_state builds the computational basis states they start from.
"""

from dataclasses import dataclass

import numpy as np

from dqes.ansatz import AnsatzSpec, compile_ansatz
from dqes.mub import MubSet
from dqes.paulis import Observable, PauliString, _pauli_action, compile_observable
from dqes.states import StateVector, _cnot_source

_UNITARY_TOL = 1e-10


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


# Rotation angles follow the exp(-i theta A / 2) convention.
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


def _apply_cnot(amps: np.ndarray, n: int, control: int, target: int) -> np.ndarray:
    return amps[_cnot_source(n, control, target)]


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    return complex(np.vdot(a.amps, b.amps))


def basis_state(n: int, index: int) -> StateVector:
    """Computational basis state |index> with qubit 1 as the most significant bit."""
    if not 0 <= index < 2**n:
        raise ValueError(f"basis index must be in [0, {2**n}), got {index}")
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


def states_equal(a: StateVector, b: StateVector, tol: float = 1e-10) -> bool:
    """Equality up to global phase: |<a|b>| = 1 within tol."""
    return abs(abs(inner_product(a, b)) - 1.0) <= tol


def parameter_vector(spec: AnsatzSpec, params) -> np.ndarray:
    """params as one finite vector of the spec's parameter count, checked here
    rather than by the kernel the reference is held against."""
    vec = np.asarray(params, dtype=float)
    if vec.shape != (spec.parameter_count,):
        raise ValueError(f"ansatz takes {spec.parameter_count} parameters, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise ValueError("parameters must be finite")
    return vec


def build_ansatz(spec: AnsatzSpec, params) -> tuple[Gate, ...]:
    """The full gate sequence for one parameter binding, application order."""
    vec = parameter_vector(spec, params)
    gates: list[Gate] = []
    # V(0)^dagger: the inverse of the bare CX-chain product, one chain per layer
    for _ in range(spec.layers):
        for q in range(spec.n - 1, 0, -1):
            gates.append(cnot(q, q + 1))
    k = 0
    for layer in range(spec.layers + 1):
        for q in range(1, spec.n + 1):
            for axis in spec.rotation_axes:
                gates.append(ry(vec[k], q) if axis == "Y" else rz(vec[k], q))
                k += 1
        if layer < spec.layers:
            for q in range(1, spec.n):
                gates.append(cnot(q, q + 1))
    return tuple(gates)


def pauli_apply(pauli: PauliString, state: StateVector) -> StateVector:
    """P|psi> without building the 2^n x 2^n matrix."""
    if pauli.n != state.n:
        raise ValueError(f"Pauli string has {pauli.n} letters but state has {state.n} qubits")
    src, phase = _pauli_action(state.amps.size, pauli.x_mask, pauli.z_mask)
    return StateVector(state.n, phase * state.amps[src])


def shift_mub_set(mubs: MubSet, spec: AnsatzSpec, theta0) -> MubSet:
    """Every state of every basis moved by U(theta0) through compile_ansatz, one
    column at a time: a mutually unbiased set that is no stabilizer set."""
    if mubs.n != spec.n:
        raise ValueError(f"ansatz is on {spec.n} qubits but MUB set is on {mubs.n}")
    circuit = compile_ansatz(spec)
    return MubSet(n=mubs.n, bases=tuple(
        np.column_stack([circuit([theta0], basis[:, j])[0] for j in range(2**mubs.n)])
        for basis in mubs.bases))


def prepare_state(spec: AnsatzSpec, params, initial: StateVector) -> StateVector:
    """U(params) applied to the initial state, by compile_ansatz."""
    if initial.n != spec.n:
        raise ValueError(f"ansatz is on {spec.n} qubits but state has {initial.n}")
    return StateVector(spec.n, compile_ansatz(spec)([params], initial.amps)[0])


def expectation_exact(obs: Observable, state: StateVector) -> float:
    """<psi|H|psi> by compile_observable, exact up to float arithmetic."""
    if obs.n != state.n:
        raise ValueError(f"observable is on {obs.n} qubits but state has {state.n}")
    return float(compile_observable(obs)(state.amps[None])[0])
