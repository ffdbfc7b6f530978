"""Derivative-free descent: probe pattern, terminations, and determinism."""

import numpy as np
import pytest

from dqes.optimize import OptimizationTrace, OptimizerConfig, TraceEntry, minimize


def quadratic(center):
    center = np.asarray(center, dtype=float)
    return lambda x: float(np.sum((np.asarray(x) - center) ** 2))


def test_probe_pattern_is_single_coordinate_offsets():
    # evaluation 1 is theta0; evaluations 2..dim+1 step exactly rho_init along
    # one coordinate each
    theta0 = np.array([0.25, -0.5, 1.0])
    trace = minimize(quadratic([1.0, 1.0, 1.0]), theta0, OptimizerConfig(rho_init=0.5))
    assert trace.entries[0].params == (0.25, -0.5, 1.0)
    assert trace.entries[1].params == (0.75, -0.5, 1.0)
    assert trace.entries[2].params == (0.25, 0.0, 1.0)
    assert trace.entries[3].params == (0.25, -0.5, 1.5)


def test_known_cost_at_theta0_is_evaluation_one():
    calls = []

    def cost(x):
        calls.append(tuple(x))
        return quadratic([1.0, 1.0])(x)

    trace = minimize(cost, np.zeros(2), OptimizerConfig(max_evals=10), cost0=123.0)
    assert trace.entries[0].params == (0.0, 0.0)
    assert trace.entries[0].energy == 123.0
    assert (0.0, 0.0) not in calls
    assert len(calls) == trace.evaluations - 1


def test_trace_indices_are_contiguous():
    trace = minimize(quadratic([0.5]), np.array([0.0]), OptimizerConfig(max_evals=50))
    assert [e.index for e in trace.entries] == list(range(1, trace.evaluations + 1))


def test_converges_on_a_quadratic_bowl():
    trace = minimize(quadratic([1.0, -2.0]), np.zeros(2))
    assert trace.termination == "converged"
    assert trace.evaluations <= 500
    assert trace.final_energy < 1e-9
    best = np.array(trace.best_params)
    assert np.max(np.abs(best - [1.0, -2.0])) < 1e-4


def test_converges_on_a_nonsmooth_valley():
    trace = minimize(lambda x: float(np.sum(np.abs(x))), np.array([3.3, -1.7]))
    assert trace.termination == "converged"
    assert trace.final_energy < 1e-4


def test_max_evals_termination():
    config = OptimizerConfig(tol=1e-300, max_evals=40)
    trace = minimize(quadratic([2.0, 2.0, 2.0]), np.zeros(3), config)
    assert trace.termination == "max-evals"
    assert trace.evaluations == 40


def test_threshold_termination():
    config = OptimizerConfig(threshold=0.5, max_evals=500)
    trace = minimize(quadratic([1.0, 1.0]), np.zeros(2), config)
    assert trace.termination == "threshold"
    assert trace.final_energy <= 0.5
    # the stop happens at the crossing evaluation, not at convergence
    assert trace.evaluations < 500


def test_best_entry_is_the_trace_minimum():
    trace = minimize(quadratic([0.3]), np.array([2.0]), OptimizerConfig(max_evals=30, tol=1e-300))
    energies = [e.energy for e in trace.entries]
    assert trace.final_energy == min(energies)
    assert trace.best_entry.energy == min(energies)
    assert trace.best_params == trace.entries[energies.index(min(energies))].params


def test_runs_are_deterministic():
    a = minimize(quadratic([1.0, 2.0]), np.array([0.1, 0.2]))
    b = minimize(quadratic([1.0, 2.0]), np.array([0.1, 0.2]))
    assert a.entries == b.entries
    assert a.termination == b.termination


def test_eval_budget_must_cover_the_stencil():
    with pytest.raises(ValueError, match=r"max_evals must be at least dim \+ 2 = 5"):
        minimize(quadratic([0.0, 0.0, 0.0]), np.zeros(3), OptimizerConfig(max_evals=4))


def test_empty_start_rejected():
    with pytest.raises(ValueError, match="at least one parameter"):
        minimize(quadratic([]), np.array([]))


def test_non_finite_cost_rejected():
    with pytest.raises(ValueError, match="non-finite value"):
        minimize(lambda x: float("nan"), np.zeros(2))


def test_config_validation():
    with pytest.raises(ValueError, match="rho_init"):
        OptimizerConfig(rho_init=0.0)
    with pytest.raises(ValueError, match="tol"):
        OptimizerConfig(tol=-1.0)
    with pytest.raises(ValueError, match="max_evals"):
        OptimizerConfig(max_evals=1)


def test_trace_properties_on_a_synthetic_trace():
    entries = (
        TraceEntry(index=1, params=(0.0,), energy=3.0),
        TraceEntry(index=2, params=(0.5,), energy=1.0),
        TraceEntry(index=3, params=(1.0,), energy=2.0),
    )
    trace = OptimizationTrace(entries=entries, termination="max-evals")
    assert trace.evaluations == 3
    assert trace.final_energy == 1.0
    assert trace.best_params == (0.5,)
    assert trace.best_entry.index == 2


def test_descent_never_reports_worse_than_start():
    rng = np.random.default_rng(0)
    for trial in range(5):
        center = rng.uniform(-2, 2, size=4)
        theta0 = rng.uniform(-2, 2, size=4)
        trace = minimize(quadratic(center), theta0)
        assert trace.final_energy <= trace.entries[0].energy + 1e-15
