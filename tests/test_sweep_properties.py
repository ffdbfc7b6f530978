"""Property tests: table sweeps against the dense reference path, records of
large registers against their reduced observables, the evaluation-1
contract of MUB-state starts, and finite outputs up to the bound on W."""

import re

import numpy as np
import pytest
from dense_oracle import kron_matrix
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_path import expectation_exact

from dqes.ansatz import AnsatzSpec
from dqes.landscape import (basis_statistics, rank_initial_states, run_full_dqes, run_partial_dqes,
                            score_spec)
from dqes.mub import build_full_mub_set, realize_partial_state
from dqes.optimize import OptimizerConfig
from dqes.paulis import Observable
from dqes.problems import ISING_STRONG_ZZ, ISING_WEAK_ZZ, single_qubit_xy, transverse_field_ising
from dqes.svg import scatter_svg
from dqes.vqe import ParameterFitInit, ShiftedMubInit, run_vqe


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


def seeded_observable(n, seed):
    """Four Pauli strings with Gaussian coefficients, drawn from the seed."""
    rng = np.random.default_rng(seed)
    return Observable.from_strings(n, [(float(rng.normal()), "".join(rng.choice(list("IXYZ"), n)))
                                       for _ in range(4)])


# Records of states with complex amplitudes, which a Y-only ansatz cannot
# prepare from |0...0>, so their parameter fits fall back. Scored by the
# statevector kernel instead of the sweep's, evaluation 1 of each fallback but
# the n = 2 ones lands one ulp or so off the record.
FALLBACK_RECORDS = {
    "xy1": (single_qubit_xy(), ("b2s0q1", "b2s1q1")),
    "random-n2": (seeded_observable(2, 0), ("b2s0q1-2", "b3s1q1-2")),
    "random-n3-seed0": (seeded_observable(3, 0), ("b3s0q1-2-3", "b3s7q1-2-3", "b6s5q1-2-3")),
    "random-n3-seed1": (seeded_observable(3, 1), ("b4s0q1-2-3", "b4s6q1-2-3")),
}


@pytest.mark.parametrize("case", sorted(FALLBACK_RECORDS))
def test_every_mub_state_start_at_zero_takes_its_record_energy(case):
    obs, labels = FALLBACK_RECORDS[case]
    spec = AnsatzSpec(n=obs.n)
    config = OptimizerConfig(max_evals=spec.parameter_count + 2)
    records = [rec for rec in run_full_dqes(obs).records if rec.label() in labels]
    assert len(records) == len(labels)
    for rec in records:
        shifted = run_vqe(obs, spec, ShiftedMubInit(rec.spec), config)
        fit = run_vqe(obs, spec, ParameterFitInit(rec.spec), config)
        assert fit.used_fallback and not shifted.used_fallback, rec.label()
        for result in (shifted, fit):
            assert result.trace.params[0] == (0.0,) * spec.parameter_count
            assert result.initial_energy == rec.energy, (result.label, result.initial_energy)


@st.composite
def observables_within_the_bound(draw):
    # at most 8 terms of magnitude at most 2^482, so W <= 2^485; letters over
    # I and Z alone put every term in one class, where records reach +-W
    n = draw(st.integers(1, 4))
    alphabet = draw(st.sampled_from(["IZ", "IXYZ"]))
    letters = st.text(alphabet=alphabet, min_size=n, max_size=n)
    coeffs = st.floats(-2.0**482, 2.0**482)
    pairs = draw(st.lists(st.tuples(coeffs, letters), min_size=1, max_size=8))
    return Observable.from_strings(n, pairs)


@settings(max_examples=60, deadline=None)
@given(obs=observables_within_the_bound())
@example(obs=Observable.from_strings(3, [(2.0**482, "ZII"), (2.0**482, "IZI"), (2.0**482, "IIZ"),
                                         (2.0**482, "ZZI"), (2.0**482, "ZIZ"), (2.0**482, "IZZ"),
                                         (2.0**482, "ZZZ"), (2.0**482, "III")]))
@example(obs=Observable.from_strings(2, [(2.0**484, "II"), (2.0**484, "II")]))
@example(obs=Observable.from_strings(1, [(2.0**485, "Z")]))
def test_every_output_is_finite_for_w_within_the_bound(obs):
    for k in range(1, min(obs.n, 3) + 1):
        report = run_partial_dqes(obs, k)
        assert np.isfinite(report.energies).all()
        assert report.min_ties() >= 1
        for per_subset in (False, True):
            for stats in basis_statistics(report, per_subset=per_subset):
                figures = (stats.min_energy, stats.max_energy, stats.mean_energy, stats.variance)
                assert np.isfinite(figures).all(), stats
        svg = scatter_svg(report)
        assert not re.search(r"inf|nan", svg, re.IGNORECASE)
        coordinates = re.findall(r' (?:c[xy]|[xy][12]?)="([^"]*)"', svg)
        assert coordinates and np.isfinite([float(c) for c in coordinates]).all()
