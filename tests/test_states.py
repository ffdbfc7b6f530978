"""Register construction and the qubit-1-is-MSB convention, with self-tests of
the gate-by-gate reference path the kernel tests compare against."""

import numpy as np
import pytest
from reference_path import (Gate, apply_gate, basis_state, cnot, inner_product, ry, rz,
                            states_equal)

from dqes.states import (
    MAX_QUBITS,
    StateVector,
    bloch_coordinates,
    random_state,
    zero_state,
)

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]])
SDG = np.array([[1, 0], [0, -1j]])


def test_zero_state_amplitudes():
    psi = zero_state(3)
    assert psi.n == 3
    assert psi.amps.shape == (8,)
    assert psi.amps[0] == 1.0
    assert np.all(psi.amps[1:] == 0.0)


def test_basis_state_indexing():
    # |101> on 3 qubits is index 5 (qubit 1 on the leftmost/most significant bit)
    psi = basis_state(3, 5)
    assert psi.amps[5] == 1.0
    assert np.count_nonzero(psi.amps) == 1


def test_qubit_count_bounds():
    with pytest.raises(ValueError, match="between 1 and 12"):
        zero_state(0)
    with pytest.raises(ValueError, match="between 1 and 12"):
        zero_state(MAX_QUBITS + 1)
    with pytest.raises(ValueError, match="basis index"):
        basis_state(2, 4)
    # refused before 2^40 amplitudes are allocated
    with pytest.raises(ValueError, match="between 1 and 12, got 40"):
        zero_state(40)
    with pytest.raises(ValueError, match="between 1 and 12, got 40"):
        random_state(40, 0)


def test_state_requires_normalization():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(1, np.array([1.0, 1.0]))


def test_state_amps_are_read_only():
    psi = zero_state(2)
    with pytest.raises(ValueError):
        psi.amps[0] = 0.5


def test_wrong_amplitude_count_rejected():
    with pytest.raises(ValueError, match="expected 4 amplitudes"):
        StateVector(2, np.array([1.0, 0.0]))


def test_gate_rejects_non_unitary_matrix():
    with pytest.raises(ValueError, match="not unitary"):
        Gate(target=1, matrix=np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_gate_rejects_bad_shapes_and_targets():
    with pytest.raises(ValueError, match="must be 2x2"):
        Gate(target=1, matrix=np.eye(3))
    with pytest.raises(ValueError, match="target qubit"):
        Gate(target=0, matrix=np.eye(2))
    with pytest.raises(ValueError, match="no matrix"):
        Gate(target=2, control=1, matrix=np.eye(2))


def test_cnot_control_must_differ_from_target():
    with pytest.raises(ValueError, match="control and target must differ"):
        cnot(2, 2)


def test_x_on_qubit_one_is_most_significant_flip():
    # the ordering convention in one line: X on qubit 1 of |00> gives |10>, index 2
    psi = apply_gate(zero_state(2), Gate(target=1, matrix=X))
    assert states_equal(psi, basis_state(2, 2))
    psi = apply_gate(zero_state(2), Gate(target=2, matrix=X))
    assert states_equal(psi, basis_state(2, 1))


def test_hadamard_superposition():
    psi = apply_gate(zero_state(2), Gate(target=1, matrix=H))
    # |+0> spreads over indices 0 and 2
    expected = np.zeros(4)
    expected[0] = expected[2] = 1 / np.sqrt(2)
    assert np.allclose(psi.amps, expected)


def test_cnot_truth_table():
    # control 1, target 2: |10> -> |11>, |11> -> |10>, |0x> untouched
    assert states_equal(apply_gate(basis_state(2, 2), cnot(1, 2)), basis_state(2, 3))
    assert states_equal(apply_gate(basis_state(2, 3), cnot(1, 2)), basis_state(2, 2))
    assert states_equal(apply_gate(basis_state(2, 0), cnot(1, 2)), basis_state(2, 0))
    assert states_equal(apply_gate(basis_state(2, 1), cnot(1, 2)), basis_state(2, 1))
    # reversed roles: control 2, target 1
    assert states_equal(apply_gate(basis_state(2, 1), cnot(2, 1)), basis_state(2, 3))


def test_bell_state_from_h_and_cnot():
    psi = apply_gate(apply_gate(zero_state(2), Gate(target=1, matrix=H)), cnot(1, 2))
    assert abs(psi.amps[0] - 1 / np.sqrt(2)) < 1e-12
    assert abs(psi.amps[3] - 1 / np.sqrt(2)) < 1e-12
    assert abs(psi.amps[1]) < 1e-12 and abs(psi.amps[2]) < 1e-12


def test_gate_beyond_register_rejected():
    with pytest.raises(ValueError, match="beyond register size"):
        apply_gate(zero_state(2), Gate(target=3, matrix=H))


def test_rotation_gates_match_matrices():
    theta = 0.7321
    psi = apply_gate(zero_state(1), ry(theta, 1))
    assert abs(psi.amps[0] - np.cos(theta / 2)) < 1e-12
    assert abs(psi.amps[1] - np.sin(theta / 2)) < 1e-12
    phi = apply_gate(psi, rz(theta, 1))
    assert abs(phi.amps[0] - np.exp(-1j * theta / 2) * psi.amps[0]) < 1e-12
    assert abs(phi.amps[1] - np.exp(+1j * theta / 2) * psi.amps[1]) < 1e-12


def test_s_dagger_then_h_rotates_y_eigenstate_to_zero():
    # |+i> = (|0> + i|1>)/sqrt(2) measures +1 along Y; Sdg then H maps it to |0>
    plus_i = StateVector(1, np.array([1.0, 1.0j]) / np.sqrt(2))
    rotated = apply_gate(apply_gate(plus_i, Gate(target=1, matrix=SDG)), Gate(target=1, matrix=H))
    assert states_equal(rotated, zero_state(1))


def test_gates_preserve_norm():
    rng = np.random.default_rng(11)
    psi = random_state(3, seed=4)
    for gate in (Gate(target=2, matrix=H), ry(rng.uniform(-np.pi, np.pi), 3), cnot(3, 1), rz(1.1, 1)):
        psi = apply_gate(psi, gate)
        assert abs(np.sum(np.abs(psi.amps) ** 2) - 1.0) < 1e-12


def test_inner_product_and_mismatch():
    assert abs(inner_product(zero_state(2), basis_state(2, 3))) == 0.0
    plus = apply_gate(zero_state(1), Gate(target=1, matrix=H))
    assert abs(inner_product(zero_state(1), plus) - 1 / np.sqrt(2)) < 1e-12
    with pytest.raises(ValueError, match="qubit counts differ"):
        inner_product(zero_state(1), zero_state(2))


def test_bloch_coordinates_of_axis_states():
    assert np.allclose(bloch_coordinates(zero_state(1)), (0.0, 0.0, 1.0))
    plus = apply_gate(zero_state(1), Gate(target=1, matrix=H))
    assert np.allclose(bloch_coordinates(plus), (1.0, 0.0, 0.0), atol=1e-12)
    plus_i = StateVector(1, np.array([1.0, 1.0j]) / np.sqrt(2))
    assert np.allclose(bloch_coordinates(plus_i), (0.0, 1.0, 0.0), atol=1e-12)
    with pytest.raises(ValueError, match="one qubit"):
        bloch_coordinates(zero_state(2))


def test_random_state_is_seeded_and_normalized():
    a = random_state(4, seed=9)
    b = random_state(4, seed=9)
    c = random_state(4, seed=10)
    assert np.array_equal(a.amps, b.amps)
    assert not np.array_equal(a.amps, c.amps)
    assert abs(np.sum(np.abs(a.amps) ** 2) - 1.0) < 1e-12


def test_states_equal_ignores_global_phase():
    psi = random_state(2, seed=3)
    shifted = StateVector(2, np.exp(0.42j) * psi.amps)
    assert states_equal(psi, shifted)
    assert not states_equal(psi, basis_state(2, 0))
