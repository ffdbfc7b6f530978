"""The tests' dense oracle for Pauli-sum observables.

Each term's matrix is a Kronecker product of 2 x 2 letter matrices, leftmost
letter on qubit 1. It reads only the letters, not the symplectic masks that
every dqes kernel (and dqes.paulis.observable_matrix) works from, so it checks
those kernels from outside.
"""

import numpy as np

LETTER_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_matrix(obs) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the observable, one np.kron chain per term."""
    dim = 2**obs.n
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, pauli in obs.terms:
        m = LETTER_MATRICES[pauli.letters[0]]
        for c in pauli.letters[1:]:
            m = np.kron(m, LETTER_MATRICES[c])
        out += coeff * m
    return out
