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

compile_ansatz is the kernel every caller runs, on a stack of parameter
vectors at once: each rotation is the same 2x2 product on raw amplitudes,
stacked over the rows, and everything between two rotations (a change of
target qubit, a CX chain, the V(0)^dagger prefix) is folded into one
precomputed gather. The tests keep the gate-by-gate reference, one validated
gate and one validated state per step (tests/reference_path.py), and hold
every row to it bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .states import MAX_QUBITS, _cnot_source, _layout

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


def _cx_chain_source(n: int, controls) -> np.ndarray:
    """One gather index for the CX gates (q, q + 1), applied in the order given."""
    src = np.arange(2**n)
    for q in controls:
        src = src[_cnot_source(n, q, q + 1)]
    return src


def compile_ansatz(spec: AnsatzSpec):
    """Function (thetas, amps) -> the (B, 2^n) stack whose row i is U(thetas[i]) amps.

    thetas must be a (B, P) stack of finite parameter vectors of the spec, and
    the circuit raises ValueError otherwise; amps is one 2^n array. Every row
    equals the gate-by-gate reference bit for bit: gathers only move
    amplitudes, the B * P rotation matrices hold the values of the
    reference's Ry and Rz matrices, and each rotation is the product the
    reference forms for one gate, stacked over the rows.

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

    def circuit(thetas, amps: np.ndarray) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != spec.parameter_count:
            raise ValueError(f"ansatz takes rows of {spec.parameter_count} parameters, "
                             f"got shape {thetas.shape}")
        if not np.isfinite(thetas).all():
            raise ValueError("parameters must be finite")
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
