"""
Acceptance checks for the workbench, one test per shipped claim.

Each test prints a single PASS/FAIL line; run them with output visible:

    pytest tests/test_acceptance.py -v -s

Claims with stated runtime budgets measure wall-clock time around the work
they time, so a slow box can fail them honestly.
"""

import time
from contextlib import contextmanager

import numpy as np
from reference_path import shift_mub_set

from dqes.ansatz import AnsatzSpec, prepare_state
from dqes.landscape import export_csv, rank_initial_states, run_full_dqes, run_partial_dqes
from dqes.mub import build_full_mub_set, verify_mub_set
from dqes.optimize import OptimizerConfig, minimize
from dqes.paulis import expectation_exact
from dqes.problems import (
    ISING_STRONG_ZZ,
    ISING_WEAK_ZZ,
    cut_value,
    exact_spectrum,
    max_cut_brute_force,
    maxcut_hamiltonian,
    molecule_fixture,
    random_graph,
    single_qubit_xy,
    transverse_field_ising,
)
from dqes.states import basis_state, random_state, zero_state
from dqes.vqe import ShiftedMubInit, run_vqe

CHEMICAL_ACCURACY = 1.6e-3


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {summary}")
        raise
    print(f"PASS criterion {number}: {summary}")


def full_starts(report, count):
    return [ShiftedMubInit(spec=rec.spec) for rec in rank_initial_states(report, count)]


def test_criterion_1_mub_certification():
    with criterion(1, "MUB sets for n=1,2,3 certify at 1e-10 with 6/20/72 states in < 1 s"):
        expected_states = {1: 6, 2: 20, 3: 72}
        start = time.perf_counter()
        for n in (1, 2, 3):
            mubs = build_full_mub_set(n)
            cert = verify_mub_set(mubs, tol=1e-10)
            assert cert.passed, f"n={n} deviations {cert.max_orthonormality_deviation:.3e}"
            assert cert.n_bases * 2**n == expected_states[n]
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"certification took {elapsed:.2f} s"


def test_criterion_2_partial_sweep_cardinality():
    with criterion(2, "8-choose-3 sweep enumerates and scores 4032 records in < 5 s"):
        start = time.perf_counter()
        obs = maxcut_hamiltonian(random_graph(8, 0.5, seed=42))
        report = run_partial_dqes(obs, 3)
        assert len(report.energies) == 4032
        assert len(report.records) == 4032
        last = report.record(4031).spec
        assert (last.subset, last.basis_index, last.state_index) == ((6, 7, 8), 8, 7)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"sweep took {elapsed:.2f} s"


def test_criterion_3_h2_landscape_minimum():
    with criterion(3, "H2 sweep bottoms out at a computational state at -1.82172107"):
        report = run_full_dqes(molecule_fixture("H2_075"))
        best = report.min_record()
        assert best.spec.basis_index == 0
        computational_min = min(r.energy for r in report.records[:4])
        assert best.energy == computational_min
        assert abs(best.energy - (-1.82172107)) < 1e-8


def test_criterion_4_heh_landscape_minimum():
    with criterion(4, "HeH+ sweep bottoms out at |01> at -3.91127550"):
        report = run_full_dqes(molecule_fixture("HeH+_100"))
        best = report.min_record()
        assert best.spec.basis_index == 0
        assert best.spec.state_index == 1
        assert abs(best.energy - (-3.91127550)) < 1e-8


def test_criterion_5_chemical_accuracy():
    with criterion(5, "top-3 starts reach chemical accuracy on H2 and HeH+ in < 10 s"):
        start = time.perf_counter()
        spec = AnsatzSpec(n=2)
        for name in ("H2_075", "HeH+_100"):
            obs = molecule_fixture(name)
            report = run_full_dqes(obs, name=name)
            exact = exact_spectrum(obs).ground_energy
            finals = []
            for init in full_starts(report, 3):
                result = run_vqe(obs, spec, init)
                assert result.trace.evaluations <= 500
                assert abs(result.final_energy - exact) < CHEMICAL_ACCURACY, (
                    f"{name} from {result.label}: gap "
                    f"{abs(result.final_energy - exact):.2e}")
                finals.append(result.final_energy)
            if name == "HeH+_100":
                # the |01> start (ranked first) must win outright
                assert finals[0] < finals[1] and finals[0] < finals[2]
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"six optimizations took {elapsed:.2f} s"


def test_criterion_6_single_qubit_eigensolver():
    with criterion(6, "X+Y runs from |-> and |-i> converge to -sqrt(2) within 1e-3"):
        obs = single_qubit_xy()
        spec = AnsatzSpec(n=1, rotation_axes=("Y", "Z"))
        report = run_full_dqes(obs)
        minimal = [rec for rec in report.records if abs(rec.energy + 1.0) < 1e-9]
        assert [rec.label() for rec in minimal] == ["b1s1q1", "b2s1q1"]
        for rec in minimal:
            result = run_vqe(obs, spec, ShiftedMubInit(spec=rec.spec))
            assert abs(result.final_energy + np.sqrt(2)) < 1e-3


def test_criterion_7_ising_basis_separation():
    with criterion(7, "weak and strong ZZ chains bottom out in different bases, {0, 1}"):
        weak = run_full_dqes(transverse_field_ising(3, *ISING_WEAK_ZZ))
        strong = run_full_dqes(transverse_field_ising(3, *ISING_STRONG_ZZ))
        weak_basis = weak.min_record().spec.basis_index
        strong_basis = strong.min_record().spec.basis_index
        assert weak_basis != strong_basis
        assert {weak_basis, strong_basis} == {0, 1}


def test_criterion_8_maxcut_oracle_equivalence():
    with criterion(8, "20 seeded graphs: ground state = max cut, diagonal = |E|-2*cut, < 30 s"):
        start = time.perf_counter()
        node_counts = (4, 5, 6, 7, 8, 9, 10)
        for seed in range(20):
            nodes = node_counts[seed % len(node_counts)]
            graph = random_graph(nodes, 0.4 if seed % 2 else 0.6, seed=seed)
            assert graph.edges, f"seed {seed} drew an empty graph"
            obs = maxcut_hamiltonian(graph)
            best_cut, best_assignment = max_cut_brute_force(graph)
            assert cut_value(graph, best_assignment) == best_cut
            energies = np.array([expectation_exact(obs, basis_state(nodes, x))
                                 for x in range(2**nodes)])
            for x in range(2**nodes):
                expected = len(graph.edges) - 2 * cut_value(graph, x)
                assert abs(energies[x] - expected) < 1e-9
            assert abs(energies.min() - (len(graph.edges) - 2 * best_cut)) < 1e-9
            assert cut_value(graph, int(energies.argmin())) == best_cut
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"oracle comparison took {elapsed:.2f} s"


def test_criterion_9_property_suites(tmp_path):
    with criterion(9, "floor, identity-at-zero, probe pattern, shifted MUBs, CSV reruns"):
        # variational floor: 100 random states per observable stay above E0
        for obs in (molecule_fixture("H2_075"), molecule_fixture("HeH+_100"),
                    single_qubit_xy()):
            floor = exact_spectrum(obs).ground_energy - 1e-9
            for seed in range(100):
                assert expectation_exact(obs, random_state(obs.n, seed=seed)) >= floor

        # identity at zero parameters, bit-for-bit
        for n, layers, axes in [(1, 1, ("Y", "Z")), (2, 1, ("Y",)), (3, 2, ("Y", "Z"))]:
            spec = AnsatzSpec(n=n, layers=layers, rotation_axes=axes)
            for seed in range(5):
                psi = random_state(n, seed=seed)
                out = prepare_state(spec, np.zeros(spec.parameter_count), psi)
                assert np.array_equal(out.amps, psi.amps)

        # optimizer probes: evaluations 2..dim+1 offset one coordinate by rho_init
        theta0 = np.array([0.5, -0.25, 1.0, 0.0])
        trace = minimize(lambda xs: np.sum(np.square(xs - 1.0), axis=1), theta0,
                         OptimizerConfig(rho_init=0.5))
        for j in range(4):
            expected = theta0.copy()
            expected[j] += 0.5
            assert trace.entries[1 + j].params == tuple(expected)

        # unitary shifts preserve mutual unbiasedness at 1e-9
        spec = AnsatzSpec(n=2, rotation_axes=("Y", "Z"))
        mubs = build_full_mub_set(2)
        for seed in range(5):
            theta0 = np.random.default_rng(seed).uniform(-np.pi, np.pi, spec.parameter_count)
            assert verify_mub_set(shift_mub_set(mubs, spec, theta0), tol=1e-9).passed

        # CSV exports are byte-identical across reruns
        sweep = maxcut_hamiltonian(random_graph(8, 0.5, seed=42))
        full = molecule_fixture("HeH+_100")
        for run in (lambda: run_partial_dqes(sweep, 3), lambda: run_full_dqes(full)):
            first, second = tmp_path / "a.csv", tmp_path / "b.csv"
            export_csv(run(), first)
            export_csv(run(), second)
            assert first.read_bytes() == second.read_bytes()
