"""Property tests: table sweeps against the dense reference path, records of
large registers against their reduced observables, and the evaluation-1
contract of shifted MUB starts."""

import numpy as np
import pytest
from dense_oracle import kron_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from dqes.ansatz import AnsatzSpec
from dqes.landscape import rank_initial_states, run_full_dqes, run_partial_dqes, score_spec
from dqes.mub import build_full_mub_set, realize_partial_state
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


@st.composite
def sparse_observables(draw, max_n=30):
    # low-weight terms, so that many of them survive on some K-subset
    n = draw(st.integers(3, max_n))
    letters = st.dictionaries(st.integers(0, n - 1), st.sampled_from("XYZ"), max_size=4)
    coeffs = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    pairs = draw(st.lists(st.tuples(coeffs, letters), min_size=1, max_size=8))
    return Observable.from_strings(
        n, [(c, "".join(on.get(q, "I") for q in range(n))) for c, on in pairs])


def reduced_energy(obs, spec):
    """Dense K-qubit energy of the record's MUB state under obs reduced to its
    subset: each term with an X or Y letter off the subset is dropped (it has
    expectation 0 on |0>), and each off-subset Z becomes I (it gives +1)."""
    terms = []
    for coeff, pauli in obs.terms:
        off = [letter for q, letter in enumerate(pauli.letters, 1) if q not in spec.subset]
        if not any(letter in "XY" for letter in off):
            terms.append((coeff, "".join(pauli.letters[q - 1] for q in spec.subset)))
    if not terms:
        return 0.0
    psi = build_full_mub_set(spec.k).bases[spec.basis_index][:, spec.state_index]
    matrix = kron_matrix(Observable.from_strings(spec.k, terms))
    return float(np.vdot(psi, matrix @ psi).real)


@settings(max_examples=25, deadline=None)
@given(obs=sparse_observables(), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_records_match_their_reduced_observable_at_any_n(obs, k, seed):
    report = run_partial_dqes(obs, k)
    count = len(report.energies)
    sample = np.random.default_rng(seed).choice(count, size=min(40, count), replace=False)
    for rec in [report.record(int(i)) for i in sample] + rank_initial_states(report, 3):
        assert abs(rec.energy - reduced_energy(obs, rec.spec)) <= 1e-12, rec.label()
        assert score_spec(obs, rec.spec) == rec.energy


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
