"""The tests' dense oracle for Pauli-sum observables, the letter rules for
Pauli strings, and the brute-force Max-Cut that the Max-Cut observable is
checked against.

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


def weight(pauli) -> int:
    """Qubits a Pauli string acts on: its letters other than I."""
    return sum(letter != "I" for letter in pauli.letters)


def commutes(p, q) -> bool:
    """Two strings of one length anticommute on each qubit where both letters
    are non-identity and differ, so they commute iff such qubits are even."""
    if len(p.letters) != len(q.letters):
        raise ValueError(f"string lengths differ: {len(p.letters)} vs {len(q.letters)}")
    return sum("I" not in (a, b) and a != b for a, b in zip(p.letters, q.letters)) % 2 == 0


def cut_value(graph, assignment: int) -> int:
    """Edges cut by the bipartition encoded as a basis label (node 0 = MSB)."""
    n = graph.node_count
    if not 0 <= assignment < 2**n:
        raise ValueError(f"assignment must be in [0, {2**n}), got {assignment}")
    side = [(assignment >> (n - 1 - i)) & 1 for i in range(n)]
    return sum(1 for u, v in graph.edges if side[u] != side[v])


def max_cut_brute_force(graph) -> tuple[int, int]:
    """(best cut value, lowest achieving assignment) over all 2^n bipartitions."""
    n = graph.node_count
    labels = np.arange(2**n)
    cuts = np.zeros(2**n, dtype=np.int64)
    for u, v in graph.edges:
        cuts += ((labels >> (n - 1 - u)) & 1) != ((labels >> (n - 1 - v)) & 1)
    best = int(np.argmax(cuts))
    return int(cuts[best]), best
