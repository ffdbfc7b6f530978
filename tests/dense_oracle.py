"""The tests' dense oracles: Pauli-sum observables as matrices, the MUB
columns and class signs by projection, the MUB class partition sorted by
letter string, the letter rules for Pauli strings, and the brute-force
Max-Cut that the Max-Cut observable is checked against.

Each term's matrix is a Kronecker product of 2 x 2 letter matrices, leftmost
letter on qubit 1. It reads only the letters, not the symplectic masks that
every dqes kernel (and dqes.paulis.observable_matrix) works from, so it checks
those kernels from outside.

dqes.mub builds each basis and each class sign in closed form from its
class's generators. Here a basis is the stabilizer projection of
computational seeds, in floating point, and a sign is a Pauli's expectation on
those columns: the construction the closed form replaced, kept as its oracle.
dqes.mub sorts the Pauli classes by an integer key; here they are sorted by
the letter strings themselves.
"""

import numpy as np

from dqes import mub
from dqes.mub import MubSet, _class_generators, _partition_classes
from dqes.paulis import Observable, PauliString, _pauli_action

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


def from_masks(n: int, x_mask: int, z_mask: int) -> PauliString:
    """The n-letter Pauli string with these symplectic masks, qubit 1 on bit n - 1."""
    out = []
    for k in range(n):
        bit = 1 << (n - 1 - k)
        xa, za = bool(x_mask & bit), bool(z_mask & bit)
        out.append("Y" if xa and za else "X" if xa else "Z" if za else "I")
    return PauliString("".join(out))


def letter_sorted_classes(n: int) -> list[tuple[tuple[int, int], ...]]:
    """dqes.mub._partition_classes(n) with every sort keyed on the letter string:
    pure Z, pure X, then {(x, C^i x)} ordered by their smallest member, C read
    from mub._FIELD_GENERATORS[n]."""
    rows = mub._FIELD_GENERATORS[n]
    xs = range(1, 2**n)

    def letters(mask_pair):
        return from_masks(n, *mask_pair).letters

    def times_c(v):
        return sum(((row & v).bit_count() & 1) << (n - 1 - r) for r, row in enumerate(rows))

    field = []
    images = list(xs)
    for _ in range(2**n - 1):
        images = [times_c(z) for z in images]
        field.append(tuple(sorted(zip(xs, images), key=letters)))
    z_class = tuple(sorted(((0, z) for z in xs), key=letters))
    x_class = tuple(sorted(((x, 0) for x in xs), key=letters))
    return [z_class, x_class] + sorted(field, key=lambda cls: letters(cls[0]))


def joint_eigenbasis(gens: list[tuple[int, int]], n: int) -> np.ndarray:
    """Columns: stabilizer projections of computational seeds, phase-fixed.

    Column j is the first seed, in index order, whose projection onto
    generator-k eigenvalue (-1)^(bit n - 1 - k of j) survives, normalized and
    turned so its first nonzero amplitude is real positive.
    """
    d = 2**n
    actions = [_pauli_action(d, x, z) for x, z in gens]
    cols = np.zeros((d, d), dtype=complex)
    for j in range(d):
        for seed in range(d):
            v = np.zeros(d, dtype=complex)
            v[seed] = 1.0
            for k, (src, phase) in enumerate(actions):
                sign = -1.0 if (j >> (n - 1 - k)) & 1 else 1.0
                v = (v + sign * (phase * v[src])) / 2
            norm = np.linalg.norm(v)
            if norm > 1e-6:
                v = v / norm
                lead = int(np.argmax(np.abs(v) > 1e-8))
                v = v * (np.conj(v[lead]) / abs(v[lead]))
                cols[:, j] = v
                break
        else:
            raise AssertionError("no computational seed survived the stabilizer projection")
    return cols


def projected_mub_set(n: int) -> MubSet:
    """build_full_mub_set(n) by projection: one joint eigenbasis per class."""
    return MubSet(n=n, bases=tuple(joint_eigenbasis(_class_generators(cls, n), n)
                                   for cls in _partition_classes(n)))


def projected_class_signs(mubs: MubSet) -> tuple[np.ndarray, np.ndarray]:
    """dqes.mub._class_signs from the projected columns: each class member's
    expectation on the basis of its class, checked to lie within 1e-9 of +-1."""
    k = mubs.n
    basis = np.zeros(4**k, dtype=np.intp)
    signs = np.zeros((4**k, 2**k))
    for b, (cls, states) in enumerate(zip(_partition_classes(k), mubs.bases)):
        for x, z in cls:
            matrix = kron_matrix(Observable(k, ((1.0, from_masks(k, x, z)),)))
            values = np.einsum("ir,ij,jr->r", states.conj(), matrix, states)
            sign = np.where(values.real < 0, -1.0, 1.0)
            assert np.max(np.abs(values - sign)) < 1e-9
            basis[(x << k) | z], signs[(x << k) | z] = b, sign
    return basis, signs


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
