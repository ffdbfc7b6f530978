"""Ansatz layout, exact identity at zero parameters, and MUB shifting."""

import numpy as np
import pytest
from reference_path import (apply_gate, build_ansatz, parameter_vector, prepare_state,
                            shift_mub_set)

from dqes.ansatz import AnsatzSpec, compile_ansatz
from dqes.mub import build_full_mub_set, verify_mub_set
from dqes.paulis import Observable
from dqes.states import basis_state, bloch_coordinates, random_state, zero_state
from dqes.vqe import vqe_cost


def test_parameter_count():
    assert AnsatzSpec(n=2).parameter_count == 4
    assert AnsatzSpec(n=2, rotation_axes=("Y", "Z")).parameter_count == 8
    assert AnsatzSpec(n=1, rotation_axes=("Y", "Z")).parameter_count == 4
    assert AnsatzSpec(n=4, layers=3, rotation_axes=("Y", "Z")).parameter_count == 32


def test_spec_validation():
    with pytest.raises(ValueError, match="register size"):
        AnsatzSpec(n=0)
    with pytest.raises(ValueError, match="entangling layer"):
        AnsatzSpec(n=2, layers=0)
    with pytest.raises(ValueError, match="rotation_axes"):
        AnsatzSpec(n=2, rotation_axes=("Z",))


def test_parameter_vector_validation():
    # the compiled circuit checks its own rows; the reference keeps a check of its own
    spec = AnsatzSpec(n=2)
    circuit, amps = compile_ansatz(spec), basis_state(2, 0).amps
    for bad in ([0.0, 0.0, 0.0, 0.0], [[0.0, 0.0]], np.zeros((2, 5))):
        with pytest.raises(ValueError, match="takes rows of 4 parameters, got shape"):
            circuit(bad, amps)
    with pytest.raises(ValueError, match="must be finite"):
        circuit([[0.0, np.inf, 0.0, 0.0]], amps)
    with pytest.raises(ValueError, match="takes 4 parameters"):
        parameter_vector(spec, [0.0, 0.0])
    with pytest.raises(ValueError, match="must be finite"):
        parameter_vector(spec, [0.0, np.nan, 0.0, 0.0])
    with pytest.raises(ValueError, match="takes rows of 4 parameters, got shape \\(1, 2\\)"):
        prepare_state(spec, [0.0, 0.0], basis_state(2, 0))


def test_gate_sequence_layout():
    # n = 3, one layer, Y only: descending unentangler chain, rotations,
    # ascending chain, closing rotations
    spec = AnsatzSpec(n=3)
    gates = build_ansatz(spec, np.zeros(6))
    assert len(gates) == 2 + 3 + 2 + 3
    assert gates[0].control == 2 and gates[0].target == 3
    assert gates[1].control == 1 and gates[1].target == 2
    assert all(g.matrix is not None for g in gates[2:5])
    assert gates[5].control == 1 and gates[5].target == 2
    assert gates[6].control == 2 and gates[6].target == 3
    # depth scales with layers: layers chains on each side of the rotations
    deep = build_ansatz(AnsatzSpec(n=3, layers=2), np.zeros(9))
    assert len(deep) == 2 * 2 + 3 * 3 + 2 * 2


def test_identity_at_zero_is_exact():
    # U(0) = V(0) V(0)^dagger collapses to a permutation identity, so the
    # amplitudes come back bit-for-bit equal, not merely close
    for n, layers, axes in [(1, 1, ("Y",)), (2, 1, ("Y",)), (3, 2, ("Y", "Z")),
                            (4, 3, ("Y",)), (2, 2, ("Y", "Z"))]:
        spec = AnsatzSpec(n=n, layers=layers, rotation_axes=axes)
        zeros = np.zeros(spec.parameter_count)
        for seed in range(3):
            psi = random_state(n, seed=seed)
            assert np.array_equal(prepare_state(spec, zeros, psi).amps, psi.amps)
        assert np.array_equal(prepare_state(spec, zeros, zero_state(n)).amps,
                              zero_state(n).amps)


def test_unentangler_prefix_is_noop_on_zero_state():
    # CX chains fix |0...0>, so from the all-zeros state the circuit reduces
    # to the plain rotation/entangler stack
    spec = AnsatzSpec(n=3, layers=2)
    rng = np.random.default_rng(17)
    params = rng.uniform(-np.pi, np.pi, spec.parameter_count)
    full = prepare_state(spec, params, zero_state(3))
    state = zero_state(3)
    for gate in build_ansatz(spec, params)[spec.layers * 2:]:
        state = apply_gate(state, gate)
    assert np.allclose(full.amps, state.amps, atol=1e-14)


def test_single_qubit_rotations():
    spec = AnsatzSpec(n=1)
    # Ry(pi/2) puts |0> on the +x axis; the second rotation is still zero
    psi = prepare_state(spec, [np.pi / 2, 0.0], zero_state(1))
    assert np.allclose(bloch_coordinates(psi), (1.0, 0.0, 0.0), atol=1e-12)
    # with Y and Z axes the Rz(pi/2) then carries +x to +y
    yz = AnsatzSpec(n=1, rotation_axes=("Y", "Z"))
    psi = prepare_state(yz, [np.pi / 2, np.pi / 2, 0.0, 0.0], zero_state(1))
    assert np.allclose(bloch_coordinates(psi), (0.0, 1.0, 0.0), atol=1e-12)


def test_prepare_state_checks_register_size():
    # the reference helper checks the register, as vqe_cost does in the package
    with pytest.raises(ValueError, match="ansatz is on 2 qubits but state has 3"):
        prepare_state(AnsatzSpec(n=2), np.zeros(4), zero_state(3))
    with pytest.raises(ValueError, match="ansatz is on 2 qubits but state has 3"):
        vqe_cost(Observable.from_strings(2, [(1.0, "ZI")]), AnsatzSpec(n=2), zero_state(3))


def test_shift_preserves_norm_and_zero_shift_is_identity():
    spec = AnsatzSpec(n=2, rotation_axes=("Y", "Z"))
    psi = random_state(2, seed=5)
    assert np.array_equal(prepare_state(spec, np.zeros(8), psi).amps, psi.amps)
    rng = np.random.default_rng(3)
    shifted = prepare_state(spec, rng.uniform(-1, 1, 8), psi)
    assert abs(np.sum(np.abs(shifted.amps) ** 2) - 1.0) < 1e-12


def test_shifted_mub_set_stays_mutually_unbiased():
    # conjugating every basis by the same unitary preserves all overlaps
    mubs = build_full_mub_set(2)
    spec = AnsatzSpec(n=2, rotation_axes=("Y", "Z"))
    for seed in range(3):
        rng = np.random.default_rng(seed)
        theta0 = rng.uniform(-np.pi, np.pi, spec.parameter_count)
        shifted = shift_mub_set(mubs, spec, theta0)
        cert = verify_mub_set(shifted, tol=1e-9)
        assert cert.passed


def test_shift_mub_set_checks_register_size():
    with pytest.raises(ValueError, match="MUB set is on 1"):
        shift_mub_set(build_full_mub_set(1), AnsatzSpec(n=2), np.zeros(4))


def test_nonzero_parameters_move_basis_states():
    spec = AnsatzSpec(n=2)
    params = np.array([0.3, -0.7, 0.2, 0.9])
    moved = prepare_state(spec, params, basis_state(2, 2))
    assert abs(abs(np.vdot(moved.amps, basis_state(2, 2).amps)) - 1.0) > 1e-3
