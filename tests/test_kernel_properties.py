"""Property tests: the compiled circuit and observable, on one row and on stacks
of rows, against the gate-by-gate and term-by-term reference paths, the dense
observable matrix against the Kronecker oracle, and the observable file round trip."""

import ctypes
import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from dense_oracle import kron_matrix
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_path import apply_gate, build_ansatz, pauli_apply
from test_cli import child_env

from dqes.ansatz import AnsatzSpec, compile_ansatz
from dqes.paulis import (Observable, _weight, compile_observable, decode_observable,
                         encode_observable, load_observable, observable_matrix)
from dqes.states import StateVector, random_state
from dqes.vqe import _infidelities

angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False, allow_infinity=False)


@st.composite
def circuits(draw, max_n=6):
    """(spec, theta, input state)."""
    n = draw(st.integers(1, max_n))
    spec = AnsatzSpec(n=n, layers=draw(st.integers(1, 3)),
                      rotation_axes=draw(st.sampled_from([("Y",), ("Y", "Z")])))
    theta = np.array(draw(st.lists(angles, min_size=spec.parameter_count,
                                   max_size=spec.parameter_count)))
    return spec, theta, random_state(n, draw(st.integers(0, 2**32 - 1)))


@st.composite
def observables(draw, max_n=6, n=None):
    n = draw(st.integers(1, max_n)) if n is None else n
    letters = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    coeffs = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    pairs = draw(st.lists(st.tuples(coeffs, letters), min_size=1, max_size=8))
    return Observable.from_strings(n, pairs)


def reference_prepare(spec, theta, state):
    for gate in build_ansatz(spec, theta):
        state = apply_gate(state, gate)
    return state.amps


def reference_expectation(obs, state):
    total = 0.0 + 0.0j
    for coeff, pauli in obs.terms:
        total += coeff * np.vdot(state.amps, pauli_apply(pauli, state).amps)
    return float(total.real)


def assert_near_reference(value, obs, state):
    """The compiled kernel sums each X mask's terms in one pass, the reference
    one term at a time: on a unit row they agree to 1e-14 * max(1, W)."""
    expected = reference_expectation(obs, state)
    assert abs(value - expected) <= 1e-14 * max(1.0, _weight(obs.terms)), (value, expected)


@settings(max_examples=60, deadline=None)
@given(case=circuits())
def test_compiled_circuit_equals_the_gate_sequence(case):
    spec, theta, state = case
    circuit = compile_ansatz(spec)
    assert np.array_equal(circuit(theta[None], state.amps)[0],
                          reference_prepare(spec, theta, state))
    assert np.array_equal(circuit(np.zeros((1, spec.parameter_count)), state.amps)[0], state.amps)


@settings(max_examples=60, deadline=None)
@given(obs=observables(), seed=st.integers(0, 2**32 - 1))
def test_compiled_observable_equals_the_term_sum(obs, seed):
    state = random_state(obs.n, seed)
    value = compile_observable(obs)(state.amps[None])[0]
    assert_near_reference(value, obs, state)
    dense = float(np.vdot(state.amps, kron_matrix(obs) @ state.amps).real)
    assert abs(value - dense) <= 1e-12


@st.composite
def merging_observables(draw):
    """Observables whose terms repeat a few strings, so that duplicates merge, with
    coefficients of either sign down to subnormal magnitudes."""
    n = draw(st.integers(1, 6))
    pool = draw(st.lists(st.text(alphabet="IXYZ", min_size=n, max_size=n), min_size=1, max_size=4))
    coeffs = st.floats(-1e2, 1e2, allow_nan=False) | st.sampled_from([1e-3, -1e-3, 5e-324, -2e-300])
    pairs = draw(st.lists(st.tuples(coeffs, st.sampled_from(pool)), min_size=1, max_size=12))
    return Observable.from_strings(n, pairs)


@settings(max_examples=80, deadline=None)
@given(obs=merging_observables())
def test_scattered_matrix_equals_the_kron_oracle_bytes(obs):
    assert observable_matrix(obs).tobytes() == kron_matrix(obs).tobytes()


@settings(max_examples=30, deadline=None)
@given(case=circuits(max_n=4), data=st.data())
def test_vqe_cost_equals_the_reference_composition(case, data):
    spec, theta, state = case
    obs = data.draw(observables(n=spec.n))
    # the circuit half is bitwise, the observable half within the kernel's bound
    prepared = reference_prepare(spec, theta, state)
    value = compile_observable(obs)(compile_ansatz(spec)(theta[None], state.amps))[0]
    assert value == compile_observable(obs)(prepared[None])[0]
    assert_near_reference(value, obs, StateVector(spec.n, prepared))


@st.composite
def stacks(draw, max_n=6):
    """(spec, a (B, P) parameter stack with B in 1..19, input state)."""
    n = draw(st.integers(1, max_n))
    spec = AnsatzSpec(n=n, layers=draw(st.integers(1, 3)),
                      rotation_axes=draw(st.sampled_from([("Y",), ("Y", "Z")])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    thetas = rng.uniform(-2 * np.pi, 2 * np.pi, (draw(st.integers(1, 19)), spec.parameter_count))
    return spec, thetas, random_state(n, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None)
@given(case=stacks())
def test_stacked_circuit_rows_equal_the_gate_sequence(case):
    spec, thetas, state = case
    circuit = compile_ansatz(spec)
    rows = circuit(thetas, state.amps)
    assert rows.shape == (len(thetas), state.amps.size)
    for theta, row in zip(thetas, rows):
        assert np.array_equal(row, reference_prepare(spec, theta, state))
    for row in circuit(np.zeros_like(thetas), state.amps):
        assert np.array_equal(row, state.amps)


@settings(max_examples=60, deadline=None)
@given(obs=observables(max_n=8), count=st.integers(1, 19), seed=st.integers(0, 2**32 - 1))
def test_stacked_energies_equal_the_term_sums(obs, count, seed):
    rng = np.random.default_rng(seed)
    rows = np.stack([random_state(obs.n, seed + i).amps for i in range(count)])
    # fancy indexing on axis 1 returns a stack whose rows are not unit-stride
    shuffled = rows[:, rng.permutation(2**obs.n)]
    energies = compile_observable(obs)
    for stack in (rows, shuffled):
        values = energies(stack)
        assert values.shape == (count,)
        for value, row in zip(values, stack):
            assert_near_reference(value, obs, StateVector(obs.n, row))


# The suites above stop at n <= 6 for circuits and n <= 8 for energies; these
# fixed-seed cases reach the sizes where a gather composed across CX chains,
# or a sum over long rows, has the most room to go wrong.
def test_large_stacked_circuit_rows_equal_the_gate_sequence():
    rng = np.random.default_rng(10)
    for n in (10, 12):
        # Y alone runs one real-view product after another; YZ alternates them
        # with complex ones
        for axes in (("Y",), ("Y", "Z")):
            spec = AnsatzSpec(n=n, layers=2, rotation_axes=axes)
            circuit = compile_ansatz(spec)
            state = random_state(n, seed=n)
            for count in (1, 24):
                thetas = rng.uniform(-2 * np.pi, 2 * np.pi, (count, spec.parameter_count))
                rows = circuit(thetas, state.amps)
                assert rows.shape == (count, state.amps.size)
                for theta, row in zip(thetas, rows):
                    expected = reference_prepare(spec, theta, state)
                    assert np.array_equal(row, expected), (n, axes, count)


def test_circuit_rows_do_not_depend_on_the_input_form():
    # the circuit takes a float view of its input; a float64 or strided input
    # viewed as it stands would pair the wrong floats as (re, im)
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 6):
        spec = AnsatzSpec(n=n, layers=2)
        circuit = compile_ansatz(spec)
        thetas = rng.uniform(-2 * np.pi, 2 * np.pi, (5, spec.parameter_count))
        state = random_state(n, seed=n).amps
        real = rng.standard_normal(2**n)
        strided = np.column_stack([state, state])[:, 0]
        assert not strided.flags.c_contiguous
        for amps in (real, strided):
            expected = circuit(thetas, np.ascontiguousarray(amps, dtype=complex))
            assert circuit(thetas, amps).tobytes() == expected.tobytes(), (n, amps.dtype)


def test_large_stacked_energies_equal_the_term_sums():
    n = 10
    rng = np.random.default_rng(40)
    # every fourth term is diagonal (I and Z only), which takes no gather
    alphabets = ["IZ", "IXYZ", "IXYZ", "IXYZ"]
    pairs = [(float(rng.uniform(-2, 2)), "".join(rng.choice(list(alphabets[t % 4]), n)))
             for t in range(40)]
    obs = Observable.from_strings(n, pairs)
    energies = compile_observable(obs)
    for count in (1, 24):
        rows = np.stack([random_state(n, seed=count + i).amps for i in range(count)])
        shuffled = rows[:, rng.permutation(2**n)]
        for stack in (rows, shuffled):
            values = energies(stack)
            assert values.shape == (count,)
            for value, row in zip(values, stack):
                assert_near_reference(value, obs, StateVector(n, row))


def test_vecdot_sums_complex_rows_as_vdot_does():
    # the fit's _infidelities relies on this: np.vecdot over a stack gives each
    # row the sum np.vdot gives it; a numpy or BLAS upgrade that reroutes
    # either call fails here rather than as a bare hash mismatch in the pins
    rng = np.random.default_rng(2024)
    for dim in [2**k for k in range(1, 13)] + [3, 5, 17, 100, 1000]:
        for count in range(1, 17):
            a, b = rng.standard_normal((2, count, dim)) + 1j * rng.standard_normal((2, count, dim))
            expected = [np.vdot(x, y) for x, y in zip(a, b)]
            assert np.array_equal(np.vecdot(a, b), expected), (dim, count)


def test_real_ry_matmul_equals_the_complex_product():
    # compile_ansatz relies on this from n = 2 on: a real Ry stack times the
    # (re, im) float view of a complex operand gives the complex product's
    # bytes, signed zeros included, from n = 3 on, and its values at n = 2,
    # where an exact zero may come out with the other sign (no output sees
    # it); a numpy or BLAS upgrade that breaks either fails here rather than
    # as a bare hash mismatch in the pins
    rng = np.random.default_rng(2026)
    for n in range(2, 13):
        width = 2 ** (n - 1)
        for count in range(1, 34):
            # zero angles, as a stencil's untouched parameters have, put -0 in the matrix
            angles = rng.uniform(-2 * np.pi, 2 * np.pi, count) * (rng.random(count) < 0.7)
            c, s = np.cos(angles / 2), np.sin(angles / 2)
            real = np.empty((count, 2, 2))
            real[:, 0, 0] = real[:, 1, 1] = c
            real[:, 0, 1], real[:, 1, 0] = -s, s
            # one row broadcast against the stack, as the first rotation has it, and count rows
            for rows in (1, count):
                # exact zeros of either sign, as MUB states and |0> on the other qubits have
                shape = (rows, 2, 2 * width)
                parts = rng.standard_normal(shape) * (rng.random(shape) < 0.6)
                parts *= rng.choice([-1.0, 1.0], shape)
                expected = np.matmul(real.astype(complex), parts.view(complex))
                got = np.matmul(real, parts).view(complex)
                if n > 2:
                    assert got.tobytes() == expected.tobytes(), (n, count, rows)
                    continue
                got, expected = got.view(float), expected.view(float)
                assert np.array_equal(got, expected), (n, count, rows)
                moved = got.view(np.int64) != expected.view(np.int64)
                assert (got[moved] == 0).all() and (expected[moved] == 0).all(), (count, rows)


def openblas_core() -> str:
    """Name of the kernel OpenBLAS chose in this process, or '' where it cannot be read."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return ""
    libraries = {line.split(maxsplit=5)[-1] for line in maps.splitlines()
                 if "openblas" in line.lower()}
    names = ("openblas_get_corename", "openblas_get_corename64_",
             "scipy_openblas_get_corename64_", "scipy_openblas_get_corename")
    for library in sorted(libraries):
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for name in names:
            corename = getattr(handle, name, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return ""


def child_python(script, *args, **settings):
    """stdout of `python -c script *args` run in this directory with settings
    added to the environment. Its first line must name the OpenBLAS kernel the
    child loaded: the test is skipped when OPENBLAS_CORETYPE asks for a kernel
    the child did not run, since the comparison would then show nothing."""
    core = settings.get("OPENBLAS_CORETYPE")
    if core and "openblas" not in np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]:
        pytest.skip("numpy is not linked to OpenBLAS, so OPENBLAS_CORETYPE picks nothing")
    script = "import test_kernel_properties as t; print(t.openblas_core(), flush=True); " + script
    done = subprocess.run([sys.executable, "-c", script, *args], cwd=Path(__file__).parent,
                          env=child_env(**settings), capture_output=True, text=True, timeout=300)
    loaded, _, rest = done.stdout.partition("\n")
    if core and loaded.lower() != core.lower():
        pytest.skip(f"a child Python did not run OpenBLAS's {core} kernel "
                    f"(it reported {loaded!r}, exit code {done.returncode})")
    assert done.returncode == 0, done.stderr
    return rest


@pytest.mark.parametrize("core", ["Haswell", "Sandybridge"])
def test_real_ry_matmul_equals_the_complex_product_under_other_kernels(core):
    # OpenBLAS picks its kernel from the CPU; these are the kernels AVX2 and
    # AVX CPUs get, so the canary speaks for them from a CPU with AVX-512 too
    child_python("t.test_real_ry_matmul_equals_the_complex_product()", OPENBLAS_CORETYPE=core)


def test_each_row_energy_is_the_one_row_energy():
    # row i of a B-row call equals the 1-row call bit for bit, whatever B and
    # whatever the layout of the input: the descent's trace relies on it
    rng = np.random.default_rng(29)
    for n in range(1, 11):
        dim = 2**n
        pairs = [(float(rng.uniform(-2, 2)), "".join(rng.choice(list("IXYZ"), n)))
                 for _ in range(8)] + [(0.5, "Z" * n)]
        energies = compile_observable(Observable.from_strings(n, pairs))
        base = np.stack([random_state(n, seed=100 * n + i).amps for i in range(40)])
        singles = np.array([energies(row[None])[0] for row in base])
        for count in range(1, 41):
            rows = base[:count]
            wide = np.zeros((2 * count, 2 * dim), dtype=complex)
            wide[::2, ::2] = rows
            pick = rng.permutation(40)[:count]
            # a fancy index on axis 1 returns a Fortran-order stack
            for stack, expected in ((rows, singles[:count]),
                                    (np.asfortranarray(rows), singles[:count]),
                                    (wide[::2, ::2], singles[:count]),
                                    (base[pick][:, np.arange(dim)], singles[pick])):
                assert energies(stack).tobytes() == expected.tobytes(), (n, count)


def test_compiled_observable_mixes_scales_on_one_x_mask():
    # 1e8 and 1e-8 terms share the X mask 0b100, so their phases are added
    # into one weight vector before any row is read
    obs = Observable.from_strings(3, [(1e8, "XZI"), (1e-8, "XII"), (-1e-8, "YZZ"),
                                      (1e-8, "YIZ"), (1.0, "ZZZ")])
    energies = compile_observable(obs)
    rows = np.stack([random_state(3, seed=s).amps for s in range(16)])
    for value, row in zip(energies(rows), rows):
        assert_near_reference(value, obs, StateVector(3, row))


def energy_digest() -> str:
    """sha256 of compile_observable's energies for 300 seeded random observables
    (n = 1..10, 1 to 12 terms) on seeded stacks of 1 to 8 unit rows."""
    rng = np.random.default_rng(2029)
    digest = hashlib.sha256()
    for case in range(300):
        n = case % 10 + 1
        pairs = [(float(rng.uniform(-2, 2)), "".join(rng.choice(list("IXYZ"), n)))
                 for _ in range(rng.integers(1, 13))]
        parts = rng.standard_normal((2, rng.integers(1, 9), 2**n))
        rows = parts[0] + 1j * parts[1]
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        digest.update(compile_observable(Observable.from_strings(n, pairs))(rows).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("setting", [{"OPENBLAS_CORETYPE": "Haswell"},
                                     {"OPENBLAS_CORETYPE": "Sandybridge"},
                                     {"OPENBLAS_NUM_THREADS": "2"}],
                         ids=["Haswell", "Sandybridge", "two-threads"])
def test_energies_do_not_depend_on_the_blas_kernel_or_thread_count(setting):
    # the observable kernel makes no BLAS call, so a child Python on another
    # kernel, or on two BLAS threads, writes the same energy bytes
    assert child_python("print(t.energy_digest())", **setting).strip() == energy_digest()


def test_vqe_pin_and_residue_do_not_depend_on_the_blas_kernel(tmp_path):
    # on an AVX2 CPU OpenBLAS runs its Haswell kernel: the H2 fit pin and the
    # residue message must read there as they read here
    script = ("import sys, pathlib, test_cli, test_paulis; "
              "test_paulis.test_compiled_observable_rejects_an_imaginary_residue(); "
              "test_cli.test_vqe_outputs_match_their_frozen_hashes(pathlib.Path(sys.argv[1]), "
              "('--fixture', 'H2_075', '--strategy', 'fit', '--init', 'top-1,random-1'))")
    child_python(script, str(tmp_path), OPENBLAS_CORETYPE="Haswell")


@settings(max_examples=30, deadline=None)
@given(case=stacks(max_n=4), data=st.data())
def test_stacked_vqe_cost_equals_the_reference_composition(case, data):
    spec, thetas, state = case
    obs = data.draw(observables(n=spec.n))
    values = compile_observable(obs)(compile_ansatz(spec)(thetas, state.amps))
    assert values.shape == (len(thetas),)
    prepared = np.stack([reference_prepare(spec, theta, state) for theta in thetas])
    assert values.tobytes() == compile_observable(obs)(prepared).tobytes()
    for value, row in zip(values, prepared):
        assert_near_reference(value, obs, StateVector(spec.n, row))


@settings(max_examples=40, deadline=None)
@given(obs=observables())
def test_observable_file_round_trip(obs, tmp_path_factory):
    assert decode_observable(encode_observable(obs)) == obs
    path = tmp_path_factory.mktemp("obs") / "obs.json"
    path.write_text(encode_observable(obs))
    assert load_observable(path) == obs


def test_fit_overlaps_equal_the_per_row_form():
    # the fit's infidelities, one np.vecdot per call, against the per-row
    # np.dot they replaced; a rewrite to np.abs or numpy's ** 2 fails here
    rng = np.random.default_rng(2025)
    for dim in (2, 4, 8, 16):
        for count in range(1, 40):
            parts = rng.standard_normal((2, count + 1, dim))
            states = parts[0] + 1j * parts[1]
            states /= np.linalg.norm(states, axis=1)[:, None]
            target, rows = states[0], states[1:]
            expected = [1.0 - abs(np.dot(np.conj(target), row)) ** 2 for row in rows]
            assert _infidelities(target, rows).tolist() == expected, (dim, count)

