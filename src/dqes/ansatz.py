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
    reference's Ry and Rz matrices, and each rotation gives the bits of the
    product the reference forms for one gate, stacked over the rows.

    An Ry matrix is real, so from n = 3 on its stack multiplies the (re, im)
    float view of the operand: one real matmul in place of a complex one, at
    half the flops. The complex product of a real matrix forms the same
    products and sums for each part, plus products with the matrix's zero
    imaginary parts, which leave a nonzero sum as it is;
    test_real_ry_matmul_equals_the_complex_product holds numpy and BLAS to
    giving the same bits, signed zeros included. Rz, whose matrix is complex,
    keeps the complex product, and so does Ry at n = 1 and 2, where the two
    products differ: at n = 1 in value, at n = 2 in the sign of a zero.

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
    # Ry stays complex where the real view would move bits: at n = 1 the (2, 1)
    # operand takes numpy's matrix-vector route, whose sums differ from the view's
    # (2, 2) product, and at n = 2 the complex 2x2 product can give -0 for an
    # amplitude that the view gives as +0 (OpenBLAS's SkylakeX kernel does so)
    ry_dtype = float if n > 2 else complex

    def circuit(thetas, amps: np.ndarray) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != spec.parameter_count:
            raise ValueError(f"ansatz takes rows of {spec.parameter_count} parameters, "
                             f"got shape {thetas.shape}")
        if not np.isfinite(thetas).all():
            raise ValueError("parameters must be finite")
        # matrices[k] is the (B, 2, 2) stack of parameter k's rotations
        angles = thetas.T
        ry = np.zeros((len(angles) // axes, len(thetas), 2, 2), dtype=ry_dtype)
        c, s = np.cos(angles[::axes] / 2), np.sin(angles[::axes] / 2)
        ry[..., 0, 0] = ry[..., 1, 1] = c
        ry[..., 0, 1] = -s
        ry[..., 1, 0] = s
        matrices = ry
        if axes == 2:
            rz = np.zeros(ry.shape, dtype=complex)
            rz[..., 0, 0] = np.exp(-1j * angles[1::2] / 2)
            rz[..., 1, 1] = np.exp(1j * angles[1::2] / 2)
            matrices = [matrix for pair in zip(ry, rz) for matrix in pair]
        # one input row; the first rotation broadcasts it against the B matrices.
        # It must be complex and contiguous, or a float view would pair the wrong floats.
        flat = np.ascontiguousarray(amps, dtype=complex)[None]
        for matrix, gather in zip(matrices, gathers):
            if gather is not None:
                flat = flat.take(gather, axis=1)
            if matrix.dtype == complex:
                flat = np.matmul(matrix, flat.reshape(len(flat), 2, -1)).reshape(len(matrix), -1)
            else:  # a real matrix acts on the (re, im) float view: one real matmul
                operand = flat.view(float).reshape(len(flat), 2, -1)
                flat = np.matmul(matrix, operand).reshape(len(matrix), -1).view(complex)
        return flat if restore is None else flat.take(restore, axis=1)

    return circuit
