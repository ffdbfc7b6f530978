"""Pauli algebra, expectation values, and the observable JSON codec."""

import itertools

import numpy as np
import pytest
from dense_oracle import commutes, from_masks, kron_matrix, weight
from reference_path import expectation_exact, pauli_apply

from dqes.paulis import (
    _MAX_WEIGHT,
    Observable,
    PauliString,
    compile_observable,
    decode_observable,
    encode_observable,
    load_observable,
    observable_hash,
    observable_matrix,
)
from dqes.states import StateVector, basis_state, random_state, zero_state


def test_pauli_masks_follow_bit_convention():
    # qubit q sits on bit n - q: for XYZI, X and Y set x_mask (bits 3, 2),
    # Y and Z set z_mask (bits 2, 1)
    p = PauliString("XYZI")
    assert p.x_mask == 0b1100
    assert p.z_mask == 0b0110
    assert p.n == 4
    assert weight(p) == 3
    assert PauliString("II").x_mask == PauliString("II").z_mask == 0


def test_pauli_letter_validation():
    with pytest.raises(ValueError, match="at least one letter"):
        PauliString("")
    with pytest.raises(ValueError, match=r"invalid Pauli letter 'Q' at position 2"):
        PauliString("XZQI")


def test_from_masks_round_trip():
    for letters in ("I", "Y", "XZ", "ZYXI", "IIXY"):
        p = PauliString(letters)
        assert from_masks(p.n, p.x_mask, p.z_mask).letters == letters


def test_commutation_rules():
    assert not commutes(PauliString("X"), PauliString("Z"))
    assert commutes(PauliString("XX"), PauliString("ZZ"))
    assert commutes(PauliString("XI"), PauliString("IZ"))
    assert not commutes(PauliString("XY"), PauliString("ZY"))
    with pytest.raises(ValueError, match="lengths differ"):
        commutes(PauliString("X"), PauliString("XX"))
    # the letter rule is the symplectic form of the masks
    letters = ["".join(t) for t in itertools.product("IXYZ", repeat=2)]
    for p, q in itertools.product(map(PauliString, letters), repeat=2):
        anti = (p.x_mask & q.z_mask).bit_count() + (q.x_mask & p.z_mask).bit_count()
        assert commutes(p, q) == (anti % 2 == 0)


def test_pauli_apply_matches_dense_matrix():
    # P|psi> by bit arithmetic must agree with the Kronecker-product matrix
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        letters = ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(8)]
        for s in letters:
            p = PauliString(s)
            psi = random_state(n, seed=int(rng.integers(1_000_000)))
            dense = kron_matrix(Observable.from_strings(n, [(1.0, s)]))
            assert np.allclose(pauli_apply(p, psi).amps, dense @ psi.amps, atol=1e-12)


def test_pauli_apply_length_mismatch():
    with pytest.raises(ValueError, match="2 letters but state has 1"):
        pauli_apply(PauliString("XZ"), zero_state(1))


def test_observable_canonicalizes_terms():
    # duplicates merge, exact zeros drop, order is lexicographic
    obs = Observable.from_strings(2, [(0.5, "ZZ"), (0.25, "XI"), (0.25, "ZZ"), (0.0, "IZ")])
    assert [(p.letters, c) for c, p in obs.terms] == [("XI", 0.25), ("ZZ", 0.75)]
    cancel = Observable.from_strings(1, [(1.0, "X"), (-1.0, "X")])
    assert cancel.terms == ()


def test_observable_validation():
    with pytest.raises(ValueError, match="at least one qubit"):
        Observable.from_strings(0, [])
    with pytest.raises(ValueError, match=r"^W = sum \|coeff\| = nan must be at most 2\^485"):
        Observable.from_strings(1, [(float("nan"), "X")])
    with pytest.raises(ValueError, match="observable is on 2 qubits"):
        Observable.from_strings(2, [(1.0, "X")])


def test_merged_coefficients_must_stay_finite():
    # each coefficient is finite, but the two Z terms merge into inf, and so W is inf
    with pytest.raises(ValueError, match=r"^W = sum \|coeff\| = inf must be at most 2\^485"):
        Observable.from_strings(1, [(1e308, "X"), (1e308, "Z"), (1e308, "Z")])
    # the bound holds for the merged terms: duplicates that cancel leave W = 0
    assert Observable.from_strings(1, [(1e308, "Z"), (-1e308, "Z")]).terms == ()


def test_w_may_reach_the_bound_and_not_pass_it():
    # split in two so a record reaches W; the next float after 2^485 is 2^485 + 2^433
    assert _MAX_WEIGHT == 2.0**485 and np.nextafter(_MAX_WEIGHT, np.inf) == 2.0**485 + 2.0**433
    at = Observable.from_strings(2, [(2.0**484, "ZI"), (2.0**484, "IZ")])
    assert sum(abs(coeff) for coeff, _ in at.terms) == _MAX_WEIGHT
    message = (r"^W = sum \|coeff\| = 9\.989595361011177e\+145 must be at most "
               r"2\^485 = 9\.989595361011175e\+145$")
    with pytest.raises(ValueError, match=message):
        Observable.from_strings(2, [(2.0**484, "ZI"), (2.0**484 + 2.0**433, "IZ")])


def test_expectation_on_eigenstates():
    z = Observable.from_strings(1, [(1.0, "Z")])
    x = Observable.from_strings(1, [(1.0, "X")])
    plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2))
    minus = StateVector(1, np.array([1.0, -1.0]) / np.sqrt(2))
    assert abs(expectation_exact(z, zero_state(1)) - 1.0) < 1e-14
    assert abs(expectation_exact(z, basis_state(1, 1)) + 1.0) < 1e-14
    assert abs(expectation_exact(x, plus) - 1.0) < 1e-14
    assert abs(expectation_exact(x, minus) + 1.0) < 1e-14
    assert abs(expectation_exact(z, plus)) < 1e-14


def test_expectation_matches_dense_sandwich():
    # <psi|H|psi> against psi^dag M psi for random observables up to 3 qubits
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        for trial in range(5):
            pairs = [(float(rng.normal()), "".join(rng.choice(list("IXYZ"), size=n)))
                     for _ in range(6)]
            obs = Observable.from_strings(n, pairs)
            psi = random_state(n, seed=100 * n + trial)
            dense = float(np.real(np.vdot(psi.amps, kron_matrix(obs) @ psi.amps)))
            assert abs(expectation_exact(obs, psi) - dense) < 1e-10


def test_expectation_is_linear():
    rng = np.random.default_rng(5)
    a = Observable.from_strings(2, [(0.3, "XZ"), (-1.1, "ZI")])
    b = Observable.from_strings(2, [(0.7, "XZ"), (0.2, "YY")])
    combined = Observable(2, a.terms + b.terms)
    for seed in range(10):
        psi = random_state(2, seed=seed + int(rng.integers(100)))
        total = expectation_exact(a, psi) + expectation_exact(b, psi)
        assert abs(expectation_exact(combined, psi) - total) < 1e-12


def test_compiled_observable_rejects_an_imaginary_residue():
    # the rows are not checked, so an unnormalized row scales the rounding error
    # of the imaginary parts of XY's terms until it passes the 1e-10 tolerance
    energies = compile_observable(Observable.from_strings(2, [(1.0, "XY"), (0.5, "ZZ")]))
    psi = random_state(2, seed=3).amps
    values = energies(np.stack([psi, 1e4 * psi]))
    assert values[1] == pytest.approx(1e8 * values[0])
    with pytest.raises(ValueError, match=r"expectation has imaginary residue -4\.255e-02$"):
        energies(np.stack([psi, 1e8 * psi]))


def test_imaginary_residue_bound_scales_with_the_coefficients():
    # at 1e8 the rounding of a unit row's imaginary parts passes 1e-10 but not
    # 1e-10 * W, W = 2e8; the same rows of the unit observable stay below 1e-10
    rows = np.stack([random_state(2, seed=s).amps for s in range(20)])
    unit = Observable.from_strings(2, [(1.0, "ZI"), (1.0, "XX")])
    large = Observable.from_strings(2, [(1e8, "ZI"), (1e8, "XX")])
    assert compile_observable(unit)(rows) == pytest.approx(compile_observable(large)(rows) / 1e8)
    assert np.abs(compile_observable(large)(rows)).max() <= 2e8


def test_expectation_qubit_mismatch():
    obs = Observable.from_strings(2, [(1.0, "ZZ")])
    with pytest.raises(ValueError, match="on 2 qubits but state has 1"):
        expectation_exact(obs, zero_state(1))


def test_observable_matrix_is_hermitian():
    obs = Observable.from_strings(2, [(0.4, "XY"), (1.5, "ZI"), (-0.2, "YY")])
    m = observable_matrix(obs)
    assert np.allclose(m, m.conj().T)


def test_codec_round_trip_is_byte_stable():
    obs = Observable.from_strings(2, [(0.25, "ZZ"), (-1.5, "XI")])
    text = encode_observable(obs)
    again = decode_observable(text)
    assert again == obs
    assert encode_observable(again) == text
    assert text.endswith("\n")


def test_hash_is_order_independent():
    a = Observable.from_strings(2, [(0.25, "ZZ"), (-1.5, "XI")])
    b = Observable.from_strings(2, [(-1.5, "XI"), (0.25, "ZZ")])
    assert observable_hash(a) == observable_hash(b)
    c = Observable.from_strings(2, [(-1.5, "XI"), (0.3, "ZZ")])
    assert observable_hash(a) != observable_hash(c)


def test_decode_rejects_malformed_documents():
    with pytest.raises(ValueError, match="malformed JSON at line 1"):
        decode_observable("{not json")
    with pytest.raises(ValueError, match="JSON object at the top level"):
        decode_observable("[1, 2]")
    with pytest.raises(ValueError, match="missing required key 'n'"):
        decode_observable('{"terms": []}')
    with pytest.raises(ValueError, match="missing required key 'terms'"):
        decode_observable('{"n": 2}')
    with pytest.raises(ValueError, match="'n' must be a positive integer"):
        decode_observable('{"n": 0, "terms": []}')
    with pytest.raises(ValueError, match="'terms' must be an array"):
        decode_observable('{"n": 1, "terms": {}}')


def test_decode_reports_term_positions():
    with pytest.raises(ValueError, match=r"terms\[0\] must be an object"):
        decode_observable('{"n": 1, "terms": [5]}')
    with pytest.raises(ValueError, match=r"terms\[0\] needs both 'coeff' and 'pauli'"):
        decode_observable('{"n": 1, "terms": [{"coeff": 1.0}]}')
    with pytest.raises(ValueError, match=r"terms\[1\].coeff must be a number"):
        decode_observable('{"n": 1, "terms": [{"coeff": 1, "pauli": "Z"}, {"coeff": true, "pauli": "X"}]}')
    with pytest.raises(ValueError, match=r"terms\[0\].pauli: invalid letter 'Q' at position 1"):
        decode_observable('{"n": 2, "terms": [{"coeff": 1.0, "pauli": "XQ"}]}')
    with pytest.raises(ValueError, match=r"terms\[0\].pauli has 1 letters, expected n=2"):
        decode_observable('{"n": 2, "terms": [{"coeff": 1.0, "pauli": "X"}]}')


def test_decode_rejects_non_finite_numbers():
    with pytest.raises(ValueError, match="non-finite number Infinity"):
        decode_observable('{"n": 1, "terms": [{"coeff": Infinity, "pauli": "X"}]}')
    # a literal past float64's range is refused, not an OverflowError, with one
    # message for a float and an integer of any length
    huge = "1" + "0" * 400
    for literal in ("1e400", "-" + huge, "9" * 309, "1" + "0" * 4300):
        with pytest.raises(ValueError, match=r"^terms\[0\].coeff is outside the float64 range"):
            decode_observable('{"n": 1, "terms": [{"coeff": %s, "pauli": "Z"}]}' % literal)
    # one just inside the range decodes, and then meets the bound on W
    with pytest.raises(ValueError, match=r"^W = sum \|coeff\| = 1e\+308 must be at most"):
        decode_observable('{"n": 1, "terms": [{"coeff": %s, "pauli": "Z"}]}' % ("9" * 308))
    # an integer within the bound decodes to the float of the same value
    inside = int("9" * 145)
    assert decode_observable('{"n": 1, "terms": [{"coeff": %d, "pauli": "Z"}]}'
                             % inside).terms[0][0] == float(inside)
    with pytest.raises(ValueError, match="coefficient of 'XY' is too large for a float64"):
        Observable.from_strings(2, [(1.0, "ZZ"), (-int(huge), "XY")])


def test_save_and_load_name_the_file_on_errors(tmp_path):
    path = tmp_path / "obs.json"
    obs = Observable.from_strings(1, [(1.0, "X"), (0.5, "Z")])
    path.write_text(encode_observable(obs))
    assert load_observable(path) == obs
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1}')
    with pytest.raises(ValueError, match="bad.json.*missing required key 'terms'"):
        load_observable(bad)
    # a file that is not text names the file too
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'\xff{"n": 1}')
    with pytest.raises(ValueError, match="^.*binary.json: .*codec can't decode byte 0xff"):
        load_observable(binary)
