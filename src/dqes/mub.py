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
(I < X < Y < Z, plain string order). Both sorts use an integer key whose
order is that letter-string order: one base-4 digit per qubit, qubit 1
leading, with I, X, Y, Z = 0, 1, 2, 3.

State order inside a basis: the class generators are its greedy
lexicographically-first independent subset, reversed so the lex-largest
generator binds the most significant index bit; state j is the joint
eigenvector with generator-k eigenvalue (-1)^(bit n - 1 - k of j).

Each state is a stabilizer state, so it follows in closed form from GF(2) and
i-power arithmetic (Aaronson & Gottesman, quant-ph/0406196), with no
projection in floating point: under the product g^a of the generators that
the bits of a pick, state j has eigenvalue (-1)^|a & j|. Basis 0 is the
identity; in every other basis state j is 2^(-n/2) sum_a (-1)^|a & j| g^a |0>,
whose first amplitude is real positive.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

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
    """

    n: int
    bases: tuple[np.ndarray, ...]

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


def _letter_key(mask_pair: tuple[int, int]) -> int:
    """A Pauli's rank in letter-string order: digit 2z + (x ^ z) per qubit in
    base 4, qubit 1 leading. The binary digits of a mask read in base 4 put
    bit k on digit k."""
    x, z = mask_pair
    return 2 * int(f"{z:b}", 4) + int(f"{x ^ z:b}", 4)


def _partition_classes(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Partition the non-identity Paulis into 2^n + 1 commuting classes.

    Returns (x_mask, z_mask) pairs sorted by letter string inside each class:
    classes[0] is pure Z, classes[1] pure X, and the rest are {(x, C^i x)} for
    i = 1 .. 2^n - 1, ordered by their smallest member.
    """
    rows = _FIELD_GENERATORS[n]
    xs = range(1, 2**n)

    def times_c(v):
        return sum(((row & v).bit_count() & 1) << (n - 1 - r) for r, row in enumerate(rows))

    field = []
    images = list(xs)
    for _ in range(2**n - 1):
        images = [times_c(z) for z in images]
        field.append(tuple(sorted(zip(xs, images), key=_letter_key)))
    z_class = tuple(sorted(((0, z) for z in xs), key=_letter_key))
    x_class = tuple(sorted(((x, 0) for x in xs), key=_letter_key))
    return [z_class, x_class] + sorted(field, key=lambda cls: _letter_key(cls[0]))


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


def _class_members(cls, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, z, power) over a = 0 .. 2^n - 1, gens[0] on the most significant bit:
    g^a = i^e P(x[a], z[a]) with P|u> = i^|x & z| (-1)^(z.u) |u ^ x>, and
    P(x[a], z[a]) is i^power[a, j] = i^(e + 2 |a & j|) = +-1 on state j.

    As P(x, z) = i^|x & z| X^x Z^z, P(x, z) P(x', z') = i^p P(x ^ x', z ^ z')
    with p = |x & z| + |x' & z'| + 2 |z & x'| - |(x ^ x') & (z ^ z')|.
    """
    x = z = e = np.zeros(1, dtype=np.int64)
    for gx, gz in _class_generators(cls, n):
        moved = (e + np.bitwise_count(x & z) + (gx & gz).bit_count()
                 + 2 * np.bitwise_count(z & gx) - np.bitwise_count((x ^ gx) & (z ^ gz)))
        x = np.stack([x, x ^ gx], axis=1).ravel()
        z = np.stack([z, z ^ gz], axis=1).ravel()
        e = np.stack([e, moved % 4], axis=1).ravel()
    a = np.arange(2**n)
    return x, z, (e[:, None] + 2 * np.bitwise_count(a[:, None] & a)) % 4


def _stabilized_basis(cls, n: int) -> np.ndarray:
    """The 2^n x 2^n basis, column j state j, that a class other than pure Z stabilizes."""
    r = 1 / np.sqrt(2**n)
    # r times i^0 .. i^3, from (re, im) pairs: -1j would give a real part of -0.0
    powers = np.array([complex(r, 0.0), complex(0.0, r), complex(-r, 0.0), complex(0.0, -r)])
    x, z, power = _class_members(cls, n)  # each x once, as the class is not Z's
    cols = np.empty((2**n, 2**n), dtype=complex)
    cols[x] = powers[(power + np.bitwise_count(x & z)[:, None]) % 4]
    return cols


def build_full_mub_set(n: int) -> MubSet:
    """All 2^n + 1 mutually unbiased bases for n <= MAX_MUB_QUBITS: the states
    every sweep and VQE start draws from, though none of them builds this set."""
    if n not in _FIELD_GENERATORS:
        raise ValueError(f"full MUB construction is limited to n <= {MAX_MUB_QUBITS}, got n={n}")
    classes = _partition_classes(n)[1:]
    return MubSet(n=n, bases=(np.eye(2**n), *(_stabilized_basis(cls, n) for cls in classes)))


@cache
def _class_signs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(basis, signs) by local column: basis[c] is the basis whose class holds the
    Pauli of column c, and signs[c] its +-1 values on that basis's 2^K states.
    Column 0, the identity, is in no class and its row is unused.
    """
    basis = np.zeros(4**k, dtype=np.intp)
    signs = np.zeros((4**k, 2**k))
    for b, cls in enumerate(_partition_classes(k)):
        x, z, power = _class_members(cls, k)
        column = ((x << k) | z)[1:]  # a = 0 is the identity
        basis[column], signs[column] = b, 1.0 - power[1:]
    basis.flags.writeable = signs.flags.writeable = False
    return basis, signs


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
    |0> on the rest, building only the one basis it lies in.

    MUB-state qubit k maps to register qubit spec.subset[k], so amplitude m of
    the K-qubit state lands on the index whose subset bits spell m.
    """
    if spec.n > MAX_QUBITS:
        raise ValueError(
            f"state vectors are limited to {MAX_QUBITS} qubits, spec is on {spec.n}")
    k, b = spec.k, spec.basis_index
    basis = np.eye(2**k) if b == 0 else _stabilized_basis(_partition_classes(k)[b], k)
    small = basis[:, spec.state_index]
    # bits[m, p]: bit p of m, most significant first, for qubit spec.subset[p]
    bits = (np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
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
