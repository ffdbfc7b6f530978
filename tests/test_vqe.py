"""VQE runs: initialization strategies, convergence, and the variational floor."""

import numpy as np
import pytest
from descent_oracle import one_step_entries, one_step_minimize
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_path import expectation_exact, inner_product, prepare_state

from dqes import vqe
from dqes.ansatz import AnsatzSpec, compile_ansatz
from dqes.landscape import rank_initial_states, run_full_dqes, score_spec
from dqes.mub import PartialMubSpec, realize_partial_state
from dqes.optimize import OptimizerConfig, lockstep
from dqes.paulis import compile_observable
from dqes.problems import exact_spectrum, fixture, single_qubit_xy
from dqes.states import StateVector, random_state, zero_state
from dqes.vqe import (
    FitResult,
    ParameterFitInit,
    RandomStateInit,
    ShiftedMubInit,
    fit_parameters_to_state,
    run_vqe,
    vqe_cost,
)

H2 = fixture("H2_075")
H2_SPEC = AnsatzSpec(n=2)


def full_spec(basis: int, state: int, n: int = 2) -> PartialMubSpec:
    return PartialMubSpec(n=n, subset=tuple(range(1, n + 1)), basis_index=basis,
                          state_index=state)


def test_cost_at_zero_matches_the_input_state_energy():
    psi = random_state(2, seed=6)
    cost = vqe_cost(H2, H2_SPEC, psi)
    assert cost(np.zeros((1, 4)))[0] == expectation_exact(H2, psi)


def test_cost_checks_register_sizes():
    with pytest.raises(ValueError, match="observable is on 2 qubits"):
        vqe_cost(H2, AnsatzSpec(n=3), zero_state(3))
    with pytest.raises(ValueError, match="observable is on 2 qubits"):
        run_vqe(H2, AnsatzSpec(n=3), RandomStateInit(seed=0))


def test_shifted_mub_run_starts_at_the_landscape_energy():
    # evaluation 1 is the landscape value itself: U(0) is the exact identity
    report = run_full_dqes(H2)
    rec = report.min_record()
    result = run_vqe(H2, H2_SPEC, ShiftedMubInit(spec=rec.spec))
    assert result.initial_energy == rec.energy
    assert result.label == "b0s1q1-2"
    assert not result.used_fallback


def test_h2_ground_state_from_best_start():
    result = run_vqe(H2, H2_SPEC, ShiftedMubInit(spec=full_spec(0, 1)))
    exact = exact_spectrum(H2).ground_energy
    assert result.trace.termination == "converged"
    assert result.trace.evaluations <= 500
    assert abs(result.final_energy - exact) < 1e-9
    # the best parameters reproduce the reported final energy
    best = prepare_state(H2_SPEC, result.trace.best_params, result.initial_state)
    assert abs(expectation_exact(H2, best) - result.final_energy) < 1e-12


def test_xy_eigensolver_from_minimal_starts():
    obs = single_qubit_xy()
    spec = AnsatzSpec(n=1, rotation_axes=("Y", "Z"))
    for basis in (1, 2):
        result = run_vqe(obs, spec, ShiftedMubInit(spec=full_spec(basis, 1, n=1)))
        assert abs(result.final_energy + np.sqrt(2)) < 1e-6


def test_fit_init_reproduces_the_landscape_start():
    # parameter fit: same starting energy to the documented 1e-6, from |00>
    spec = full_spec(0, 1)
    rec_energy = [r.energy for r in run_full_dqes(H2).records][1]
    result = run_vqe(H2, H2_SPEC, ParameterFitInit(spec=spec))
    assert result.label == "fit-b0s1q1-2"
    assert not result.used_fallback
    assert abs(result.initial_energy - rec_energy) < 1e-6
    assert abs(result.final_energy - exact_spectrum(H2).ground_energy) < 1e-6


def fit_with_starts(spec, target, starts, seed):
    """fit_parameters_to_state with _FIT_STARTS set to starts for the one call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vqe, "_FIT_STARTS", starts)
        return fit_parameters_to_state(spec, target, seed)


def fit_fidelity(spec, fit, target) -> float:
    """|<target|U(fit.params)|0...0>|^2 through the compiled circuit."""
    row = compile_ansatz(spec)(np.array([fit.params]), zero_state(spec.n).amps)[0]
    return abs(np.vdot(target.amps, row)) ** 2


def test_fit_parameters_reach_a_real_target():
    spec = AnsatzSpec(n=2)
    target = realize_partial_state(full_spec(1, 2))
    fit = fit_with_starts(spec, target, 8, 1)
    assert fit.reachable
    fidelity = fit_fidelity(spec, fit, target)
    assert fidelity > 1 - 1e-9
    assert 1 <= fit.starts_used <= 8
    prepared = prepare_state(spec, np.array(fit.params), zero_state(2))
    assert abs(abs(inner_product(prepared, target)) ** 2 - fidelity) < 1e-12


def test_fit_reports_unreachable_targets():
    # a Y-only circuit keeps amplitudes real; |-i> needs a complex phase and
    # caps the overlap at 1/2
    spec = AnsatzSpec(n=1)
    target = StateVector(1, np.array([1.0, -1.0j]) / np.sqrt(2))
    fit = fit_with_starts(spec, target, 4, 0)
    assert not fit.reachable
    assert abs(fit_fidelity(spec, fit, target) - 0.5) < 1e-6
    assert fit.starts_used == 4


def sequential_fit(spec, target, starts, seed):
    """The fit as one start after another, each through the one-step descent with
    a per-row np.dot overlap: the oracle the lockstep fit must equal."""
    zero = zero_state(spec.n).amps
    conj_target = np.conj(target.amps)
    circuit = compile_ansatz(spec)

    def infidelity(thetas) -> list:
        psis = circuit(thetas, zero)
        return [1.0 - abs(np.dot(conj_target, psi)) ** 2 for psi in psis]

    config = OptimizerConfig(rho_init=0.5, tol=1e-10, max_evals=4000, threshold=1e-16)
    best_value = np.inf
    best_params: tuple[float, ...] = ()
    used = 0
    for start in range(starts):
        rng = np.random.default_rng([seed, start])
        theta0 = rng.uniform(-np.pi, np.pi, spec.parameter_count)
        trace = one_step_minimize(infidelity, theta0, config)
        used = start + 1
        if trace.final_energy < best_value:
            best_value = trace.final_energy
            best_params = trace.best_params
        if best_value <= 1e-14:
            break
    return FitResult(reachable=best_value <= 1e-9, params=best_params, starts_used=used)


@st.composite
def fit_cases(draw):
    """(ansatz, target, starts, seed): a MUB state, which the ansatz may reach,
    or a Haar-random state, which a Y-only ansatz cannot (its amplitudes are real)."""
    n = draw(st.integers(1, 3))
    spec = AnsatzSpec(n=n, rotation_axes=draw(st.sampled_from([("Y",), ("Y", "Z")])))
    if draw(st.booleans()):
        target = realize_partial_state(full_spec(draw(st.integers(0, 2**n)),
                                                 draw(st.integers(0, 2**n - 1)), n=n))
    else:
        target = random_state(n, draw(st.integers(0, 2**32 - 1)))
    return spec, target, draw(st.integers(1, 8)), draw(st.integers(0, 3))


@settings(max_examples=20, deadline=None)
@given(case=fit_cases())
# reachable: start 3 of 8 reaches 1e-14, so starts 4..7 are closed or never begun
@example(case=(AnsatzSpec(n=2), realize_partial_state(full_spec(1, 2)), 8, 0))
# unreachable: every one of the 8 starts runs to its end
@example(case=(AnsatzSpec(n=2), random_state(2, 5), 8, 1))
def test_lockstep_fit_equals_the_sequential_fit(case):
    spec, target, starts, seed = case
    assert fit_with_starts(spec, target, starts, seed) == \
        sequential_fit(spec, target, starts, seed)


def test_the_fit_examples_cover_both_outcomes():
    # the explicit examples above: an early stop and a search that spends every start
    early = fit_with_starts(AnsatzSpec(n=2), realize_partial_state(full_spec(1, 2)), 8, 0)
    assert early.reachable and early.starts_used == 4
    spent = fit_with_starts(AnsatzSpec(n=2), random_state(2, 5), 8, 1)
    assert not spent.reachable and spent.starts_used == 8


def test_h2_top3_fits_make_a_known_number_of_circuit_calls(monkeypatch):
    # each line search asks for 2, 4, 8, ... steps in one call, and after 4
    # single-step line searches in a row also the stencil at its first step;
    # one step per call, the same fits take 3,516 calls of 14,556 rows
    calls = []

    def counting(spec):
        circuit = compile_ansatz(spec)

        def counted(thetas, amps):
            calls.append(len(thetas))
            return circuit(thetas, amps)

        return counted

    monkeypatch.setattr(vqe, "compile_ansatz", counting)
    targets = [realize_partial_state(rec.spec)
               for rec in rank_initial_states(run_full_dqes(H2), 3)]
    fits = [fit_parameters_to_state(H2_SPEC, target) for target in targets]
    assert (len(calls), sum(calls)) == (1420, 15755)
    assert [fit.starts_used for fit in fits] == [2, 1, 4]
    assert fits == [sequential_fit(H2_SPEC, target, 32, 0) for target in targets]


def test_h2_top3_vqe_runs_make_a_known_number_of_cost_calls(monkeypatch):
    # the VQE runs after the fits never reach 4 single-step line searches in a
    # row, so they ask for no stencil ahead: the same calls as before it
    calls = []

    def counting(obs):
        energies = compile_observable(obs)

        def counted(rows):
            calls.append(len(rows))
            return energies(rows)

        return counted

    monkeypatch.setattr(vqe, "compile_observable", counting)
    for rec in rank_initial_states(run_full_dqes(H2), 3):
        run_vqe(H2, H2_SPEC, ParameterFitInit(spec=rec.spec))
    assert (len(calls), sum(calls)) == (331, 993)


def test_the_fit_builds_no_trace_entries(monkeypatch):
    runs = []

    def spy(cost, descents, done=None):
        traces = lockstep(cost, descents, done)
        runs.append((cost, traces))
        return traces

    monkeypatch.setattr(vqe, "lockstep", spy)
    fit = fit_with_starts(H2_SPEC, realize_partial_state(full_spec(1, 2)), 8, 0)
    [(cost, traces)] = runs
    assert fit.starts_used == len(traces) == 4
    # the fit has read final_energy and best_params of every trace
    assert not any("entries" in vars(trace) for trace in traces)
    for start, trace in enumerate(traces):
        theta0 = np.random.default_rng([0, start]).uniform(-np.pi, np.pi, H2_SPEC.parameter_count)
        entries, termination = one_step_entries(cost, theta0, vqe._FIT_CONFIG)
        assert (trace.entries, trace.termination) == (entries, termination)


def test_fit_fallback_keeps_the_run_going():
    # unreachable fit falls back to the shifted start and flags it
    obs = single_qubit_xy()
    spec = AnsatzSpec(n=1)
    init = ParameterFitInit(spec=full_spec(2, 1, n=1))
    result = run_vqe(obs, spec, init)
    assert result.used_fallback
    target = realize_partial_state(full_spec(2, 1, n=1))
    assert abs(abs(inner_product(result.initial_state, target)) - 1.0) < 1e-12
    # evaluation 1 is the landscape record, as for a shifted start
    assert result.initial_energy == score_spec(obs, init.spec)
    assert result.trace.params[0] == (0.0, 0.0)


def test_fit_validation():
    spec = AnsatzSpec(n=2)
    with pytest.raises(ValueError, match="target has 1 qubits"):
        fit_parameters_to_state(spec, zero_state(1))


def test_random_state_init_is_seeded():
    a = run_vqe(H2, H2_SPEC, RandomStateInit(seed=7), OptimizerConfig(max_evals=20, tol=1e-300))
    b = run_vqe(H2, H2_SPEC, RandomStateInit(seed=7), OptimizerConfig(max_evals=20, tol=1e-300))
    assert a.label == "random7"
    assert a.trace.entries == b.trace.entries
    assert np.array_equal(a.initial_state.amps, random_state(2, seed=7).amps)


def test_unknown_init_strategy_rejected():
    with pytest.raises(TypeError, match="unknown initialization strategy"):
        run_vqe(H2, H2_SPEC, object())  # type: ignore[arg-type]


def test_final_energy_is_the_trace_minimum():
    result = run_vqe(H2, H2_SPEC, RandomStateInit(seed=3),
                     OptimizerConfig(max_evals=60, tol=1e-300))
    assert result.final_energy == min(e.energy for e in result.trace.entries)
    assert result.trace.termination == "max-evals"


def test_variational_floor():
    # no state, random or optimized, dips below the dense ground energy
    for obs in (H2, single_qubit_xy()):
        floor = exact_spectrum(obs).ground_energy - 1e-9
        for seed in range(100):
            assert expectation_exact(obs, random_state(obs.n, seed=seed)) >= floor


def test_optimized_energies_respect_the_floor():
    exact = exact_spectrum(H2).ground_energy
    for basis in range(5):
        result = run_vqe(H2, H2_SPEC, ShiftedMubInit(spec=full_spec(basis, 0)))
        assert result.final_energy >= exact - 1e-9
