"""
Hardware-efficient ansatz that is exactly the identity at zero parameters.

Layout: U(theta) = V(theta) * V(0)^dagger, where V is the standard stack of
single-qubit rotation layers (Ry, optionally followed by Rz, per qubit)
interleaved with CX chains (qubit k controls k+1), closed by a final rotation
layer. V(0) is the product of the bare CX chains, so prepending its inverse
makes every rotation-at-zero circuit collapse to the identity permutation, in
exact IEEE arithmetic, not merely up to tolerance. Acting on |0...0> the
prefix is a no-op, so the usual expressiveness from the all-zeros state is
unchanged.

Parameter order: layer-major, then qubit, then axis (Y before Z), with
layers + 1 rotation layers in total.

build_ansatz and apply_gate are the reference: one validated Gate and one
validated StateVector per step. compile_ansatz is the kernel every caller
runs, on a stack of parameter vectors at once: each rotation is the same 2x2
product on raw amplitudes, stacked over the rows, and everything between two
rotations (a change of target qubit, a CX chain, the V(0)^dagger prefix) is
folded into one precomputed gather, so every row equals the reference bit for
bit.
"""

from dataclasses import dataclass

import numpy as np

from .mub import MubSet
from .states import MAX_QUBITS, Gate, StateVector, _cnot_source, _layout, cnot, ry, rz

_ALLOWED_AXES = (("Y",), ("Y", "Z"))


@dataclass(frozen=True)
class AnsatzSpec:
    """Shape of the circuit: register size, entangling depth, rotation axes."""

    n: int
    layers: int = 1
    rotation_axes: tuple[str, ...] = ("Y",)

    def __post_init__(self):
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"register size must be in [1, {MAX_QUBITS}], got {self.n}")
        if self.layers < 1:
            raise ValueError(f"need at least one entangling layer, got {self.layers}")
        axes = tuple(self.rotation_axes)
        if axes not in _ALLOWED_AXES:
            raise ValueError(f"rotation_axes must be ('Y',) or ('Y', 'Z'), got {axes!r}")
        object.__setattr__(self, "rotation_axes", axes)

    @property
    def parameter_count(self) -> int:
        return self.n * len(self.rotation_axes) * (self.layers + 1)


# Parameters are plain float vectors bound to a spec by length.
ParameterVector = np.ndarray


def as_parameter_vector(spec: AnsatzSpec, params) -> np.ndarray:
    vec = np.asarray(params, dtype=float)
    if vec.shape != (spec.parameter_count,):
        raise ValueError(
            f"ansatz takes {spec.parameter_count} parameters, got shape {vec.shape}")
    return as_parameter_rows(spec, vec[None])[0]


def as_parameter_rows(spec: AnsatzSpec, params) -> np.ndarray:
    """A (B, P) stack of parameter vectors, each row checked as as_parameter_vector does."""
    rows = np.asarray(params, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != spec.parameter_count:
        raise ValueError(
            f"ansatz takes rows of {spec.parameter_count} parameters, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise ValueError("parameters must be finite")
    return rows


def build_ansatz(spec: AnsatzSpec, params) -> tuple[Gate, ...]:
    """The full gate sequence for one parameter binding, application order."""
    vec = as_parameter_vector(spec, params)
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


def _cx_chain_source(n: int, controls) -> np.ndarray:
    """One gather index for the CX gates (q, q + 1), applied in the order given."""
    src = np.arange(2**n)
    for q in controls:
        src = src[_cnot_source(n, q, q + 1)]
    return src


def compile_ansatz(spec: AnsatzSpec):
    """Function (thetas, amps) -> the (B, 2^n) stack whose row i is U(thetas[i]) amps.

    thetas must be a (B, P) stack of parameter vectors of the spec and amps one
    2^n array; neither is checked. Every row equals build_ansatz plus
    apply_gate bit for bit: gathers only move amplitudes, the B * P rotation
    matrices hold the values _ry_matrix and _rz_matrix give, and each rotation
    is the product apply_gate forms, stacked over the rows.

    Each rotation's product is left in its qubit's _layout order. One gather
    per rotation, built here, takes the last product to the next operand: it
    undoes the last layout, runs any CX chain (or the V(0)^dagger prefix) in
    between, and lays the state out for the next qubit. A gather that would
    keep every amplitude in place is skipped, and one more restores the order.
    """
    n, layers = spec.n, spec.layers
    axes = len(spec.rotation_axes)
    identity = np.arange(2**n)
    chain = _cx_chain_source(n, range(1, n))
    # source maps the state to the flat array at hand: state[i] = flat[source[i]]
    source = _cx_chain_source(n, [q for _ in range(layers) for q in range(n - 1, 0, -1)])
    gathers = []
    for layer in range(layers + 1):
        for q in range(1, n + 1):
            layout = _layout(n, q)
            for _ in range(axes):
                gather = source[layout]
                gathers.append(None if np.array_equal(gather, identity) else gather)
                source = np.argsort(layout)  # the product sits in layout order
        if layer < layers:
            source = source[chain]
    restore = None if np.array_equal(source, identity) else source

    def circuit(thetas: np.ndarray, amps: np.ndarray) -> np.ndarray:
        # matrices[k] is the (B, 2, 2) stack of parameter k's rotations
        matrices = np.zeros((spec.parameter_count, len(thetas), 2, 2), dtype=complex)
        for offset, axis in enumerate(spec.rotation_axes):
            block, angles = matrices[offset::axes], thetas.T[offset::axes]
            if axis == "Y":
                c, s = np.cos(angles / 2), np.sin(angles / 2)
                block[..., 0, 0] = block[..., 1, 1] = c
                block[..., 0, 1] = -s
                block[..., 1, 0] = s
            else:
                block[..., 0, 0] = np.exp(-1j * angles / 2)
                block[..., 1, 1] = np.exp(1j * angles / 2)
        # one input row; the first rotation broadcasts it against the B matrices
        flat = np.ascontiguousarray(amps)[None]
        for matrix, gather in zip(matrices, gathers):
            if gather is not None:
                flat = flat.take(gather, axis=1)
            flat = np.matmul(matrix, flat.reshape(len(flat), 2, -1)).reshape(len(matrix), -1)
        return flat if restore is None else flat.take(restore, axis=1)

    return circuit


def prepare_state(spec: AnsatzSpec, params, initial: StateVector) -> StateVector:
    """U(params) applied to the initial state."""
    if initial.n != spec.n:
        raise ValueError(f"ansatz is on {spec.n} qubits but state has {initial.n}")
    vec = as_parameter_vector(spec, params)
    return StateVector(spec.n, compile_ansatz(spec)(vec[None], initial.amps)[0])


def shift_mub_set(mubs: MubSet, spec: AnsatzSpec, theta0) -> MubSet:
    """Shift every state of every basis; unitarity keeps the set mutually unbiased."""
    if mubs.n != spec.n:
        raise ValueError(f"ansatz is on {spec.n} qubits but MUB set is on {mubs.n}")
    circuit = compile_ansatz(spec)
    vec = as_parameter_vector(spec, theta0)
    shifted = []
    for basis in mubs.bases:
        cols = [circuit(vec[None], StateVector(mubs.n, basis[:, j]).amps)[0]
                for j in range(2**mubs.n)]
        shifted.append(np.column_stack(cols))
    return MubSet(n=mubs.n, bases=tuple(shifted))
