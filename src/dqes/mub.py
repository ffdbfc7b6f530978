"""
Mutually unbiased bases for 1 to 3 qubits, and partial-tensor extensions.

Construction: the 4^n - 1 non-identity Pauli strings split into 2^n + 1
classes of 2^n - 1 mutually commuting strings; the joint eigenbasis of each
class is one basis, and eigenbases of disjoint commuting classes are mutually
unbiased. The classes come from the Galois-field construction (Wootters &
Fields 1989; Bandyopadhyay et al., quant-ph/0103162): with Paulis written as
(x, z) bit masks, class 0 is pure Z {(0, z)}, class 1 pure X {(x, 0)}, and the
rest are {(x, C^i x)} for i = 1 .. 2^n - 1, where C is a symmetric GF(2)
matrix whose powers and 0 form GF(2^n). One generator C per n, in
_FIELD_GENERATORS, fixes the partition, and that table alone decides which n
have a full set. Basis 0 is therefore the computational basis and basis 1 the
transversal-Hadamard basis. Each class is sorted by letter string, and
classes 2 and up are ordered by their lexicographically smallest member
(I < X < Y < Z, plain string order).

State order inside a basis: the class generators are its greedy
lexicographically-first independent subset, reversed so the lex-largest
generator binds the most significant index bit; state j is the joint
eigenvector with generator-k eigenvalue (-1)^(bit k of j), phase-fixed so the
first nonzero amplitude is real positive.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .paulis import PauliString, _pauli_action
from .states import MAX_QUBITS, StateVector

# Row masks of one symmetric GF(2) matrix C per K, row r on bit K - 1 - r like
# qubit r + 1. {0} and the powers of C form GF(2^K) as symmetric matrices, and
# a K appears here exactly when its full MUB set can be built.
_FIELD_GENERATORS = {1: (0b1,), 2: (0b11, 0b10), 3: (0b111, 0b110, 0b100)}
MAX_MUB_QUBITS = max(_FIELD_GENERATORS)
# Largest register a sweep takes. Sweeps never build a 2^n state vector; they
# place a subset's qubits with int64 bit masks, qubit q on bit n - q.
MAX_SWEEP_QUBITS = 62


@dataclass(frozen=True)
class MubSet:
    """A list of orthonormal bases on n qubits, pairwise unbiased.

    bases[b] is a 2^n x 2^n matrix whose column j is state j of basis b.
    classes[b] lists the commuting Pauli strings stabilizing basis b (absent
    for sets not produced by the Pauli-class construction).
    """

    n: int
    bases: tuple[np.ndarray, ...]
    classes: tuple[tuple[PauliString, ...], ...] | None = None

    def __post_init__(self):
        frozen = []
        for b in self.bases:
            m = np.asarray(b, dtype=complex)
            if m.shape != (2**self.n, 2**self.n):
                raise ValueError(f"basis matrix must be {2**self.n}x{2**self.n}, got {m.shape}")
            m = m.copy()
            m.flags.writeable = False
            frozen.append(m)
        object.__setattr__(self, "bases", tuple(frozen))

    @property
    def n_bases(self) -> int:
        return len(self.bases)


@dataclass(frozen=True)
class MubCertification:
    """Result of checking orthonormality and pairwise unbiasedness."""

    n: int
    n_bases: int
    max_orthonormality_deviation: float
    max_unbiasedness_deviation: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class PartialMubSpec:
    """One K-qubit MUB state placed on a qubit subset, |0> elsewhere.

    subset is a strictly increasing tuple of 1-based qubit indices; K is its
    length. For a full sweep (K = n) the subset covers every qubit. The K-qubit
    state is column state_index of build_full_mub_set(K).bases[basis_index],
    the one discretization every sweep and VQE start uses.
    """

    n: int
    subset: tuple[int, ...]
    basis_index: int
    state_index: int

    def __post_init__(self):
        k = len(self.subset)
        _check_sweep_size(self.n, k)
        if list(self.subset) != sorted(set(self.subset)):
            raise ValueError(f"subset must be strictly increasing, got {self.subset}")
        if self.subset[0] < 1 or self.subset[-1] > self.n:
            raise ValueError(f"subset {self.subset} is outside qubits 1..{self.n}")
        if not 0 <= self.basis_index <= 2**k:
            raise ValueError(f"basis index must be in [0, {2**k}], got {self.basis_index}")
        if not 0 <= self.state_index < 2**k:
            raise ValueError(f"state index must be in [0, {2**k}), got {self.state_index}")

    @property
    def k(self) -> int:
        return len(self.subset)

    def label(self) -> str:
        qubits = "-".join(str(q) for q in self.subset)
        return f"b{self.basis_index}s{self.state_index}q{qubits}"


# --- Pauli-class partition ---------------------------------------------------


def _partition_classes(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Partition the non-identity Paulis into 2^n + 1 commuting classes.

    Returns (x_mask, z_mask) pairs sorted by letter string inside each class:
    classes[0] is pure Z, classes[1] pure X, and the rest are {(x, C^i x)} for
    i = 1 .. 2^n - 1, ordered by their smallest member.
    """
    rows = _FIELD_GENERATORS[n]
    xs = range(1, 2**n)

    def letters(mask_pair):
        return PauliString.from_masks(n, *mask_pair).letters

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


def _class_generators(cls, n: int) -> list[tuple[int, int]]:
    # cls is already in lex order: greedy lex-first independent subset,
    # reversed: lex-largest binds the MSB
    gens: list[tuple[int, int]] = []
    span = {(0, 0)}
    for m in cls:
        if m not in span:
            gens.append(m)
            span |= {(a[0] ^ m[0], a[1] ^ m[1]) for a in span}
        if len(gens) == n:
            break
    return gens[::-1]


def _joint_eigenbasis(gens: list[tuple[int, int]], n: int) -> np.ndarray:
    """Columns: stabilizer projections of computational seeds, phase-fixed."""
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
            raise RuntimeError("no computational seed survived the stabilizer projection")
    return cols


@cache
def build_full_mub_set(n: int) -> MubSet:
    """All 2^n + 1 mutually unbiased bases for n <= MAX_MUB_QUBITS, built once per n."""
    if n not in _FIELD_GENERATORS:
        raise ValueError(f"full MUB construction is limited to n <= {MAX_MUB_QUBITS}, got n={n}")
    bases = []
    letter_classes = []
    for cls in _partition_classes(n):
        gens = _class_generators(cls, n)
        bases.append(_joint_eigenbasis(gens, n))
        letter_classes.append(tuple(PauliString.from_masks(n, x, z) for x, z in cls))
    return MubSet(n=n, bases=tuple(bases), classes=tuple(letter_classes))


def verify_mub_set(mubs: MubSet, tol: float = 1e-10) -> MubCertification:
    """Check every within-basis pair for orthonormality and every cross-basis
    pair for |<psi|phi>| = 1/sqrt(d), reporting worst-case deviations."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    d = 2**mubs.n
    target = 1.0 / np.sqrt(d)
    eye = np.eye(d)
    orth = 0.0
    unbias = 0.0
    for i, bi in enumerate(mubs.bases):
        orth = max(orth, float(np.max(np.abs(bi.conj().T @ bi - eye))))
        for bj in mubs.bases[i + 1:]:
            overlap = np.abs(bi.conj().T @ bj)
            unbias = max(unbias, float(np.max(np.abs(overlap - target))))
    return MubCertification(
        n=mubs.n,
        n_bases=mubs.n_bases,
        max_orthonormality_deviation=orth,
        max_unbiasedness_deviation=unbias,
        tolerance=tol,
        passed=orth < tol and unbias < tol,
    )


def _check_sweep_size(n: int, k: int) -> None:
    """Raise ValueError unless a sweep of K-qubit states on n qubits is possible."""
    if not 1 <= n <= MAX_SWEEP_QUBITS:
        raise ValueError(f"register size must be in [1, {MAX_SWEEP_QUBITS}], got {n}")
    if not 1 <= k <= MAX_MUB_QUBITS:
        raise ValueError(f"subset size must be in [1, {MAX_MUB_QUBITS}], got {k}")
    if k > n:
        raise ValueError(f"subset size {k} exceeds register size {n}")


def realize_partial_state(spec: PartialMubSpec) -> StateVector:
    """Tensor the chosen state of build_full_mub_set(K) onto spec.subset with
    |0> on the rest.

    MUB-state qubit k maps to register qubit spec.subset[k], so amplitude m of
    the K-qubit state lands on the index whose subset bits spell m.
    """
    if spec.n > MAX_QUBITS:
        raise ValueError(
            f"state vectors are limited to {MAX_QUBITS} qubits, spec is on {spec.n}")
    small = build_full_mub_set(spec.k).bases[spec.basis_index][:, spec.state_index]
    # bits[m, p]: bit p of m, most significant first, for qubit spec.subset[p]
    bits = (np.arange(2**spec.k)[:, None] >> np.arange(spec.k - 1, -1, -1)) & 1
    amps = np.zeros(2**spec.n, dtype=complex)
    amps[(bits << (spec.n - np.array(spec.subset))).sum(axis=1)] = small
    return StateVector(spec.n, amps)


def encode_mub_set(mubs: MubSet) -> str:
    """JSON export: {"n": n, "bases": [basis][state][amplitude] = [re, im]}."""
    import json

    doc = {
        "n": mubs.n,
        "bases": [
            [[[float(a.real), float(a.imag)] for a in basis[:, j]] for j in range(2**mubs.n)]
            for basis in mubs.bases
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
