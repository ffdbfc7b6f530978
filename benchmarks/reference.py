"""
Computations the benchmark checks dqes against. Nothing here imports dqes:
every value is derived from the term lists the benchmark wrote, with the
package's documented conventions (qubit 1 is the most significant bit of a
basis label, Pauli letter k acts on qubit k + 1).
"""

import itertools

import numpy as np

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_hamiltonian(n: int, terms) -> np.ndarray:
    """sum coeff * (P_1 kron ... kron P_n) as a dense 2^n x 2^n matrix."""
    h = np.zeros((2**n, 2**n), dtype=complex)
    for coeff, letters in terms:
        m = np.ones((1, 1), dtype=complex)
        for c in letters:
            m = np.kron(m, _PAULI[c])
        h += coeff * m
    return h


def diagonal_energy(terms, bits: str) -> float:
    """<b|H|b> for the basis state whose qubit q reads bits[q - 1].

    Only terms made of I and Z letters have a diagonal; each contributes
    coeff * (-1)^(number of Z letters sitting on a 1 bit).
    """
    total = 0.0
    for coeff, letters in terms:
        if set(letters) <= {"I", "Z"}:
            ones = sum(1 for c, b in zip(letters, bits) if c == "Z" and b == "1")
            total += coeff * (-1) ** ones
    return total


def max_cut(nodes: int, edges) -> int:
    """Largest number of edges any bipartition of the nodes cuts."""
    best = 0
    for sides in itertools.product((0, 1), repeat=nodes):
        best = max(best, sum(1 for u, v in edges if sides[u] != sides[v]))
    return best


def embed(small: np.ndarray, subset, n: int) -> np.ndarray:
    """State vector with `small` on the 1-based qubits `subset` and |0> elsewhere."""
    k = len(subset)
    out = np.zeros(2**n, dtype=complex)
    for m, amp in enumerate(small):
        bits = ["0"] * n
        for pos, qubit in enumerate(subset):
            bits[qubit - 1] = format(m, f"0{k}b")[pos]
        out[int("".join(bits), 2)] = amp
    return out


def mub_deviation(bases) -> float:
    """Worst deviation from orthonormality inside a basis and from
    |<a|b>|^2 = 1/d across bases."""
    d = bases[0].shape[0]
    worst = 0.0
    for i, a in enumerate(bases):
        worst = max(worst, float(np.max(np.abs(a.conj().T @ a - np.eye(d)))))
        for b in bases[i + 1:]:
            worst = max(worst, float(np.max(np.abs(np.abs(a.conj().T @ b) ** 2 - 1 / d))))
    return worst
