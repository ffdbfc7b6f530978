"""MUB construction, certification, and partial-state realization."""

import hashlib
import itertools
import json

import numpy as np
import pytest
from dense_oracle import (commutes, from_masks, letter_sorted_classes, projected_class_signs,
                          projected_mub_set)
from reference_path import basis_state, inner_product, states_equal

from dqes import mub
from dqes.landscape import run_partial_dqes
from dqes.mub import (
    MAX_MUB_QUBITS,
    MubSet,
    PartialMubSpec,
    _class_signs,
    build_full_mub_set,
    encode_mub_set,
    realize_partial_state,
    verify_mub_set,
)
from dqes.paulis import Observable, PauliString
from dqes.states import StateVector, zero_state


def mub_state(mubs: MubSet, basis: int, state: int) -> StateVector:
    """State state of basis basis: column state of mubs.bases[basis]."""
    return StateVector(mubs.n, mubs.bases[basis][:, state])


def bits(array: np.ndarray) -> np.ndarray:
    """The int64 view of a float64 or complex128 array, so signed zeros count."""
    return np.ascontiguousarray(array).view(np.int64)


def test_single_qubit_bases_are_the_pauli_eigenbases():
    mubs = build_full_mub_set(1)
    assert mubs.n_bases == 3
    # basis 0: computational; basis 1: |+>, |->; basis 2: |+i>, |-i>
    assert np.array_equal(mubs.bases[0], np.eye(2))
    r = 1 / np.sqrt(2)
    assert np.allclose(mubs.bases[1], np.array([[r, r], [r, -r]]), atol=1e-15)
    assert np.allclose(mubs.bases[2], np.array([[r, r], [1j * r, -1j * r]]), atol=1e-15)


def test_basis_zero_is_computational_and_basis_one_is_hadamard():
    for n in (1, 2, 3):
        mubs = build_full_mub_set(n)
        d = 2**n
        assert np.array_equal(mubs.bases[0], np.eye(d))
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        transversal = h
        for _ in range(n - 1):
            transversal = np.kron(transversal, h)
        assert np.max(np.abs(mubs.bases[1] - transversal)) < 1e-15


def test_certification_passes_for_all_supported_sizes():
    # 2^n + 1 bases of 2^n states each: 6, 20, 72 states
    expected_states = {1: 6, 2: 20, 3: 72}
    for n in (1, 2, 3):
        mubs = build_full_mub_set(n)
        orth, unbias = verify_mub_set(mubs)
        assert mubs.n_bases == 2**n + 1
        assert mubs.n_bases * 2**n == expected_states[n]
        assert orth < 1e-10
        assert unbias < 1e-10


def test_cross_basis_overlaps_hit_the_unbiased_magnitude():
    mubs = build_full_mub_set(2)
    target = 0.5  # 1/sqrt(4)
    for b1, b2 in itertools.combinations(range(mubs.n_bases), 2):
        for i in range(4):
            for j in range(4):
                overlap = abs(inner_product(mub_state(mubs, b1, i), mub_state(mubs, b2, j)))
                assert abs(overlap - target) < 1e-10


def test_first_amplitude_phase_convention():
    # every constructed state leads with a real positive amplitude
    for n in (1, 2, 3):
        mubs = build_full_mub_set(n)
        for b in range(mubs.n_bases):
            for s in range(2**n):
                amps = mubs.bases[b][:, s]
                lead = amps[np.flatnonzero(np.abs(amps) > 1e-8)[0]]
                assert abs(lead.imag) < 1e-14
                assert lead.real > 0


def class_letters(n: int) -> list[list[PauliString]]:
    """The Pauli classes of the field construction as strings, class by class."""
    return [[from_masks(n, x, z) for x, z in cls]
            for cls in mub._partition_classes(n)]


def test_stabilizer_classes_partition_the_pauli_group():
    for n in (1, 2, 3):
        classes = class_letters(n)
        assert len(classes) == 2**n + 1
        seen = set()
        for cls in classes:
            assert len(cls) == 2**n - 1
            for p, q in itertools.combinations(cls, 2):
                assert commutes(p, q)
            seen.update(p.letters for p in cls)
        assert len(seen) == 4**n - 1
    # class 0 stabilizes the computational basis, class 1 the Hadamard basis
    classes = class_letters(2)
    assert [p.letters for p in classes[0]] == ["IZ", "ZI", "ZZ"]
    assert [p.letters for p in classes[1]] == ["IX", "XI", "XX"]


def test_build_is_bounded():
    with pytest.raises(ValueError, match="limited to n <= 3"):
        build_full_mub_set(4)


def test_mub_set_validation():
    with pytest.raises(ValueError, match="must be 2x2"):
        MubSet(n=1, bases=(np.eye(4),))


def test_basis_matrices_are_read_only():
    mubs = build_full_mub_set(2)
    with pytest.raises(ValueError):
        mubs.bases[0][0, 0] = 2.0


def test_partial_spec_label_format():
    spec = PartialMubSpec(n=8, subset=(1, 2, 8), basis_index=0, state_index=7)
    assert spec.label() == "b0s7q1-2-8"
    assert spec.k == 3
    full = PartialMubSpec(n=2, subset=(1, 2), basis_index=4, state_index=3)
    assert full.label() == "b4s3q1-2"


def test_partial_spec_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        PartialMubSpec(n=4, subset=(2, 1), basis_index=0, state_index=0)
    with pytest.raises(ValueError, match="outside qubits"):
        PartialMubSpec(n=4, subset=(3, 5), basis_index=0, state_index=0)
    with pytest.raises(ValueError, match="subset size"):
        PartialMubSpec(n=8, subset=(1, 2, 3, 4), basis_index=0, state_index=0)
    with pytest.raises(ValueError, match="basis index"):
        PartialMubSpec(n=4, subset=(1, 2), basis_index=5, state_index=0)
    with pytest.raises(ValueError, match="state index"):
        PartialMubSpec(n=4, subset=(1, 2), basis_index=0, state_index=4)


def sweep(n, k):
    """The K-partial sweep of one Z string on n qubits."""
    return run_partial_dqes(Observable.from_strings(n, [(1.0, "Z" * n)]), k)


def test_partial_spec_counts():
    # C(n,K) * (2^K + 1) * 2^K
    assert len(sweep(1, 1).energies) == 6
    assert len(sweep(2, 2).energies) == 20
    assert len(sweep(10, 2).energies) == 900
    assert len(sweep(8, 3).energies) == 4032


def test_partial_spec_enumeration_order():
    report = sweep(3, 2)
    specs = [report.record(i).spec for i in (0, 1, 4, 20)]
    assert specs[0].subset == (1, 2) and specs[0].basis_index == 0 and specs[0].state_index == 0
    assert specs[1].state_index == 1
    assert specs[2].basis_index == 1
    # subsets advance last: (1,2) block is 5 * 4 = 20 specs long
    assert specs[3].subset == (1, 3)


def test_partial_spec_bounds():
    with pytest.raises(ValueError, match="subset size must be in"):
        sweep(8, 4)
    with pytest.raises(ValueError, match="exceeds register size"):
        sweep(2, 3)
    # sweeps place qubits with int64 masks, so registers stop at 62 qubits
    with pytest.raises(ValueError, match=r"register size must be in \[1, 62\]"):
        sweep(63, 2)


def test_realize_places_computational_states_by_subset():
    # basis 0, state 3 on qubits (1, 3) of a 3-qubit register: |1 0 1> = index 5
    spec = PartialMubSpec(n=3, subset=(1, 3), basis_index=0, state_index=3)
    assert states_equal(realize_partial_state(spec), basis_state(3, 5))


def test_realize_scatters_superposition_amplitudes():
    # |-> on qubit 2 of three: amplitudes on indices 000 and 010
    spec = PartialMubSpec(n=3, subset=(2,), basis_index=1, state_index=1)
    amps = realize_partial_state(spec).amps
    r = 1 / np.sqrt(2)
    assert abs(amps[0] - r) < 1e-15
    assert abs(amps[2] + r) < 1e-15
    assert np.count_nonzero(amps) == 2


def test_realized_states_are_orthonormal_within_a_basis():
    specs = [PartialMubSpec(n=4, subset=(2, 4), basis_index=3, state_index=s) for s in range(4)]
    states = [realize_partial_state(sp) for sp in specs]
    for i in range(4):
        for j in range(4):
            expected = 1.0 if i == j else 0.0
            assert abs(abs(inner_product(states[i], states[j])) - expected) < 1e-12


def test_full_subset_realization_matches_the_mub_state():
    mubs = build_full_mub_set(2)
    for b in range(5):
        for s in range(4):
            spec = PartialMubSpec(n=2, subset=(1, 2), basis_index=b, state_index=s)
            assert states_equal(realize_partial_state(spec), mub_state(mubs, b, s))


def embedded(column: np.ndarray, n: int, subset: tuple[int, ...]) -> np.ndarray:
    """column on the qubits of subset, |0> elsewhere: amplitude m goes to the index
    whose subset bits spell m, placed here one bit at a time."""
    k = len(subset)
    amps = np.zeros(2**n, dtype=complex)
    for m in range(2**k):
        amps[sum(((m >> (k - 1 - p)) & 1) << (n - q) for p, q in enumerate(subset))] = column[m]
    return amps


def test_realization_places_each_amplitude_on_its_subset_bits():
    for n, k in [(1, 1), (3, 2), (5, 3)]:
        for subset in itertools.combinations(range(1, n + 1), k):
            for b, basis in enumerate(build_full_mub_set(k).bases):
                for s in range(2**k):
                    spec = PartialMubSpec(n=n, subset=subset, basis_index=b, state_index=s)
                    assert np.array_equal(bits(realize_partial_state(spec).amps),
                                          bits(embedded(basis[:, s], n, subset)))


def test_encode_mub_set_round_trips_amplitudes():
    mubs = build_full_mub_set(1)
    doc = json.loads(encode_mub_set(mubs))
    assert doc["n"] == 1
    assert len(doc["bases"]) == 3
    for b, basis in enumerate(doc["bases"]):
        for s, state in enumerate(basis):
            amps = np.array([re + 1j * im for re, im in state])
            assert np.allclose(amps, mubs.bases[b][:, s])


def test_zero_tail_state_from_unit_subset():
    # a 1-qubit computational pick leaves the register in a pure basis state
    spec = PartialMubSpec(n=5, subset=(5,), basis_index=0, state_index=1)
    assert states_equal(realize_partial_state(spec), basis_state(5, 1))
    assert realize_partial_state(
        PartialMubSpec(n=5, subset=(1,), basis_index=0, state_index=0)
    ).amps[0] == 1.0


def test_max_mub_qubits_constant():
    assert MAX_MUB_QUBITS == 3


def test_zero_state_is_every_basis_zero_member():
    # state 0 of basis 0 is |0...0> for every n
    for n in (1, 2, 3):
        mubs = build_full_mub_set(n)
        assert states_equal(mub_state(mubs, 0, 0), zero_state(n))


# Frozen oracle for the field construction: the full class letter lists and the
# sha256 of the JSON export of every supported K, pinned from the backtracking
# class search that the construction replaced.
FROZEN_CLASSES = {
    1: [["Z"], ["X"], ["Y"]],
    2: [["IZ", "ZI", "ZZ"], ["IX", "XI", "XX"], ["IY", "YI", "YY"],
        ["XY", "YZ", "ZX"], ["XZ", "YX", "ZY"]],
    3: [["IIZ", "IZI", "IZZ", "ZII", "ZIZ", "ZZI", "ZZZ"],
        ["IIX", "IXI", "IXX", "XII", "XIX", "XXI", "XXX"],
        ["IIY", "IYI", "IYY", "YII", "YIY", "YYI", "YYY"],
        ["IXY", "XYX", "XZZ", "YYZ", "YZX", "ZIY", "ZXI"],
        ["IXZ", "XYY", "XZX", "YIZ", "YXI", "ZYX", "ZZY"],
        ["IYX", "XXZ", "XZY", "YXY", "YZZ", "ZIX", "ZYI"],
        ["IYZ", "XIZ", "XYI", "YXX", "YZY", "ZXY", "ZZX"],
        ["IZX", "XXY", "XYZ", "YIX", "YZI", "ZXZ", "ZYY"],
        ["IZY", "XIY", "XZI", "YXZ", "YYX", "ZXX", "ZYZ"]],
}
FROZEN_EXPORT_SHA256 = {
    1: "27c913bfffd5fb15d570f6a15ce4349111f28b7c32b07f47a69183097f4d52d2",
    2: "6fa19eb58b99f23a295680752c30ea789065ffd4ff3ae3d058c87b24d73bd634",
    3: "1905efa83604f283a7b78a174dc84fbd22c297f0e950b955667024cb9ab2dfca",
}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_frozen_classes(k):
    assert [[p.letters for p in cls] for cls in class_letters(k)] == FROZEN_CLASSES[k]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_frozen_export_bytes(k):
    text = encode_mub_set(build_full_mub_set(k))
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_EXPORT_SHA256[k]


# Symmetric GF(2) generators for K = 4 and 5 whose powers and 0 form GF(2^K),
# rows as in mub._FIELD_GENERATORS. The package stops at K = 3; these sizes
# check the closed form where a term lands on a larger class.
LARGER_FIELD_GENERATORS = {4: (0b0001, 0b0011, 0b0110, 0b1101), 5: (1, 2, 5, 11, 22)}


@pytest.fixture
def larger_fields(monkeypatch):
    for k, rows in LARGER_FIELD_GENERATORS.items():
        monkeypatch.setitem(mub._FIELD_GENERATORS, k, rows)
    monkeypatch.setattr(mub, "MAX_MUB_QUBITS", max(LARGER_FIELD_GENERATORS))
    yield
    # cached K = 4 signs would outlive the patch
    _class_signs.cache_clear()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_partition_equals_the_letter_sorted_oracle(k, monkeypatch):
    # the integer sort key orders Paulis as their letter strings do
    for size, rows in {**LARGER_FIELD_GENERATORS, 6: (1, 2, 5, 11, 22, 44)}.items():
        monkeypatch.setitem(mub._FIELD_GENERATORS, size, rows)
    assert mub._partition_classes(k) == letter_sorted_classes(k)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_closed_form_columns_and_signs_equal_the_projection_bit_for_bit(k, larger_fields):
    oracle = projected_mub_set(k)
    built = build_full_mub_set(k)
    assert built.n_bases == len(oracle.bases) == 2**k + 1
    for closed, projected in zip(built.bases, oracle.bases):
        assert np.array_equal(bits(closed), bits(projected))
    basis, signs = _class_signs(k)
    oracle_basis, oracle_signs = projected_class_signs(oracle)
    assert np.array_equal(basis, oracle_basis)
    assert np.array_equal(bits(signs), bits(oracle_signs))


@pytest.mark.parametrize("k", [4, 5])
def test_realization_equals_the_embedded_column_on_larger_fields(k, larger_fields):
    # every fifth state of each basis: a state takes milliseconds at K = 5
    n, subset = k + 2, tuple(range(2, k + 2))
    for b, basis in enumerate(build_full_mub_set(k).bases):
        for s in range(0, 2**k, 5):
            spec = PartialMubSpec(n=n, subset=subset, basis_index=b, state_index=s)
            assert np.array_equal(bits(realize_partial_state(spec).amps),
                                  bits(embedded(basis[:, s], n, subset)))
