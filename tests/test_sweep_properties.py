"""Property tests: table sweeps against the dense reference path, and the
evaluation-1 contract of shifted MUB starts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqes.ansatz import AnsatzSpec
from dqes.landscape import run_full_dqes, run_partial_dqes
from dqes.mub import realize_partial_state
from dqes.optimize import OptimizerConfig
from dqes.paulis import Observable, expectation_exact
from dqes.problems import ISING_STRONG_ZZ, ISING_WEAK_ZZ, transverse_field_ising
from dqes.vqe import ShiftedMubInit, run_vqe


@st.composite
def observables(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    letters = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    coeffs = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    pairs = draw(st.lists(st.tuples(coeffs, letters), min_size=1, max_size=8))
    return Observable.from_strings(n, pairs)


def assert_matches_dense(obs, report):
    for rec in report.records:
        dense = expectation_exact(obs, realize_partial_state(rec.spec))
        assert abs(rec.energy - dense) <= 1e-12, (rec.label(), rec.energy, dense)


@settings(max_examples=40, deadline=None)
@given(obs=observables(), k=st.integers(1, 3))
def test_partial_sweep_matches_the_dense_path(obs, k):
    k = min(k, obs.n)
    assert_matches_dense(obs, run_partial_dqes(obs, k))


@settings(max_examples=40, deadline=None)
@given(obs=observables(max_n=3))
def test_full_sweep_matches_the_dense_path(obs):
    assert_matches_dense(obs, run_full_dqes(obs))


@pytest.mark.parametrize("couplings", [ISING_WEAK_ZZ, ISING_STRONG_ZZ],
                         ids=["ising_fig7", "ising_fig8"])
def test_shifted_start_reproduces_every_full_sweep_record(couplings):
    # includes the records whose table value and dense value differ by 1 ulp
    obs = transverse_field_ising(3, *couplings)
    spec = AnsatzSpec(n=3)
    config = OptimizerConfig(max_evals=spec.parameter_count + 2)
    for rec in run_full_dqes(obs).records:
        result = run_vqe(obs, spec, ShiftedMubInit(rec.spec), config)
        assert result.initial_energy == rec.energy, rec.label()
