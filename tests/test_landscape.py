"""Exhaustive sweeps: record enumeration, frozen energies, stats, CSV export."""

import itertools
import json
from functools import cache

import numpy as np
import pytest
from dense_oracle import kron_matrix
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_path import expectation_exact, shift_mub_set

from dqes.ansatz import AnsatzSpec
from dqes.landscape import (
    BasisStats,
    LandscapeRecord,
    LandscapeReport,
    _class_signs,
    _csv_chunks,
    basis_statistics,
    export_csv,
    rank_initial_states,
    run_full_dqes,
    run_partial_dqes,
    score_spec,
)
from dqes.manifest import file_sha256
from dqes.mub import MubSet, PartialMubSpec, build_full_mub_set, realize_partial_state
from dqes.paulis import Observable, PauliString, observable_hash
from dqes.problems import (
    ISING_STRONG_ZZ,
    ISING_WEAK_ZZ,
    fixture,
    maxcut_hamiltonian,
    random_graph,
    single_qubit_xy,
    transverse_field_ising,
)
from dqes.svg import scatter_svg

H2_DIAGONAL = [-1.06658017, -1.82172107, -0.26673071, -1.06658017]


def test_h2_full_sweep_minimum():
    report = run_full_dqes(fixture("H2_075"))
    assert report.kind == "full"
    assert len(report.records) == 20
    best = report.min_record()
    assert best.label() == "b0s1q1-2"
    assert best.index == 1
    assert abs(best.energy + 1.82172107) < 1e-8


def test_h2_full_sweep_energies_by_basis():
    report = run_full_dqes(fixture("H2_075"))
    energies = [r.energy for r in report.records]
    # basis 0 walks the computational diagonal
    for got, want in zip(energies[:4], H2_DIAGONAL):
        assert abs(got - want) < 1e-8
    # basis 1 (transversal Hadamard) sees II +- XX only
    hadamard_expected = [-0.87363149, -1.23717457, -1.23717457, -0.87363149]
    for got, want in zip(energies[4:8], hadamard_expected):
        assert abs(got - want) < 1e-8
    # the remaining bases are blind to every term but II
    for e in energies[8:]:
        assert abs(e + 1.05540303) < 1e-12


def test_full_sweep_mean_is_the_identity_coefficient():
    # non-identity Paulis are traceless, so each full basis averages to c_II
    report = run_full_dqes(fixture("HeH+_100"))
    for stats in basis_statistics(report):
        assert abs(stats.mean_energy + 3.04506092) < 1e-10
        assert stats.count == 4


def test_heh_full_sweep_minimum_and_ranking():
    report = run_full_dqes(fixture("HeH+_100"))
    best = report.min_record()
    assert best.label() == "b0s1q1-2"
    assert abs(best.energy + 3.91127550) < 1e-8
    top = rank_initial_states(report, 3)
    assert [r.label() for r in top] == ["b0s1q1-2", "b0s0q1-2", "b0s3q1-2"]
    # the tied pair keeps enumeration order
    assert abs(top[1].energy - top[2].energy) < 1e-12


def test_xy_full_sweep_energies():
    report = run_full_dqes(single_qubit_xy())
    energies = [r.energy for r in report.records]
    expected = [0.0, 0.0, 1.0, -1.0, 1.0, -1.0]
    assert len(energies) == 6
    for got, want in zip(energies, expected):
        assert abs(got - want) < 1e-12
    assert report.min_record().spec.basis_index == 1


def test_ising_sweeps_separate_bases():
    weak = run_full_dqes(transverse_field_ising(3, *ISING_WEAK_ZZ))
    strong = run_full_dqes(transverse_field_ising(3, *ISING_STRONG_ZZ))
    assert len(weak.records) == 72 and len(strong.records) == 72
    # weak coupling: all-|-> state; strong coupling: staggered computational state
    assert weak.min_record().label() == "b1s7q1-2-3"
    assert abs(weak.min_record().energy + 0.82494819) < 1e-8
    assert strong.min_record().spec.basis_index == 0
    assert abs(strong.min_record().energy + 1.22872912) < 1e-8
    assert {weak.min_record().spec.basis_index, strong.min_record().spec.basis_index} == {1, 0}


def test_records_reproduce_their_energies():
    obs = transverse_field_ising(3, *ISING_WEAK_ZZ)
    report = run_full_dqes(obs)
    for rec in report.records[::7]:
        state = realize_partial_state(rec.spec)
        assert abs(expectation_exact(obs, state) - rec.energy) < 1e-12


def test_partial_sweep_cardinality_and_order():
    obs = transverse_field_ising(4, *ISING_WEAK_ZZ)
    report = run_partial_dqes(obs, 2)
    # C(4,2) * 5 * 4
    assert len(report.records) == 120
    assert report.kind == "partial"
    assert report.k == 2
    assert [r.index for r in report.records] == list(range(120))
    assert report.records[0].spec.subset == (1, 2)
    assert report.records[-1].spec.subset == (3, 4)


def test_partial_sweep_reruns_are_identical():
    obs = maxcut_hamiltonian(random_graph(6, 0.5, seed=7))
    first = run_partial_dqes(obs, 2)
    second = run_partial_dqes(obs, 2)
    assert [r.energy for r in first.records] == [r.energy for r in second.records]
    assert [r.label() for r in first.records] == [r.label() for r in second.records]


def test_maxcut_partial_sweep_frozen_minimum():
    # 8 nodes, K = 3: C(8,3) * 9 * 8 = 4032 records
    obs = maxcut_hamiltonian(random_graph(8, 0.5, seed=42))
    report = run_partial_dqes(obs, 3)
    assert len(report.records) == 4032
    best = report.min_record()
    assert best.energy == -6.0
    assert best.label() == "b0s7q1-2-8"
    assert best.index == 367


def test_full_sweep_size_guard():
    obs = transverse_field_ising(4, 0.1, 0.1)
    with pytest.raises(ValueError, match="partial sweep"):
        run_full_dqes(obs)


# --- the dense oracle of the class-sign kernel ---------------------------------
#
# Row b * 2^K + s of the table is state s of basis b; column (x << K) | z is the
# Pauli with K-qubit symplectic masks x and z.


def stabilizer_table(mubs: MubSet) -> np.ndarray:
    """<psi|P|psi> for every state of the set and every K-qubit Pauli P.

    Raises ValueError unless every value lies within 1e-9 of 0 or +-1, as it
    does for the Pauli-class construction; the table holds the rounded values.
    """
    k = mubs.n
    states = np.concatenate(mubs.bases, axis=1)  # column b * 2^K + s
    table = np.empty((states.shape[1], 4**k), dtype=complex)
    for letters in itertools.product("IXYZ", repeat=k):
        pauli = PauliString("".join(letters))
        matrix = kron_matrix(Observable(k, ((1.0, pauli),)))
        table[:, (pauli.x_mask << k) | pauli.z_mask] = np.einsum(
            "ir,ij,jr->r", states.conj(), matrix, states)
    rounded = np.rint(table.real)
    worst = float(np.max(np.abs(table - rounded)))
    if worst > 1e-9:
        raise ValueError(
            f"MUB set on {k} qubits is not a stabilizer set: a Pauli expectation lies "
            f"{worst:.3e} from 0 or +-1")
    rounded.flags.writeable = False
    return rounded


@cache
def dense_table(k):
    return stabilizer_table(build_full_mub_set(k))


def table_energies(obs, k):
    """Every record's energy from the dense table: on each subset a term adds its
    coefficient times the table column of its subset letters, all 2^K + 1 bases
    at once, and nothing when it has an X or Y off the subset."""
    table = dense_table(k)
    out = []
    for subset in itertools.combinations(range(1, obs.n + 1), k):
        energies = np.zeros(table.shape[0])
        for coeff, pauli in obs.terms:
            if any(pauli.letters[q - 1] in "XY" for q in range(1, obs.n + 1) if q not in subset):
                continue
            local = PauliString("".join(pauli.letters[q - 1] for q in subset))
            energies += coeff * table[:, (local.x_mask << k) | local.z_mask]
        out.append(energies)
    return np.concatenate(out)


def test_stabilizer_table_holds_exact_pauli_expectations():
    for k in (1, 2, 3):
        mubs = build_full_mub_set(k)
        table = stabilizer_table(mubs)
        assert table.shape == ((2**k + 1) * 2**k, 4**k)
        assert set(np.unique(table)) <= {-1.0, 0.0, 1.0}
        # column 0 is the identity; row b * 2^k + s is state s of basis b
        assert np.all(table[:, 0] == 1.0)
        z_first = PauliString("Z" + "I" * (k - 1))
        column = (z_first.x_mask << k) | z_first.z_mask
        for state in range(2**k):
            assert table[state, column] == (-1.0 if state >> (k - 1) else 1.0)


def test_stabilizer_table_rejects_non_stabilizer_sets():
    spec = AnsatzSpec(n=2)
    shifted = shift_mub_set(build_full_mub_set(2), spec, np.full(spec.parameter_count, 0.3))
    with pytest.raises(ValueError, match="not a stabilizer set"):
        stabilizer_table(shifted)


def test_class_signs_put_each_pauli_on_the_one_basis_of_its_class():
    for k in (1, 2, 3):
        basis, signs = _class_signs(k)
        columns = np.arange(1, 4**k)
        assert np.array_equal(np.bincount(basis[columns], minlength=2**k + 1),
                              np.full(2**k + 1, 2**k - 1))
        assert np.all(np.abs(signs[columns]) == 1.0)
        # the dense table is nonzero on that basis alone, where it holds the signs
        blocks = dense_table(k).T.reshape(4**k, 2**k + 1, 2**k)
        for c in columns:
            assert np.flatnonzero(np.any(blocks[c] != 0.0, axis=1)).tolist() == [basis[c]]
            assert np.array_equal(blocks[c, basis[c]], signs[c])


def test_class_signs_reject_a_basis_its_class_does_not_stabilize(monkeypatch):
    spec = AnsatzSpec(n=2)
    mubs = build_full_mub_set(2)
    shifted = shift_mub_set(mubs, spec, np.full(spec.parameter_count, 0.3))
    relabelled = MubSet(n=2, bases=shifted.bases, classes=mubs.classes)
    monkeypatch.setattr("dqes.landscape.build_full_mub_set", lambda k: relabelled)
    with pytest.raises(ValueError, match=f"Pauli {mubs.classes[0][0].letters} lies"):
        _class_signs.__wrapped__(2)


@st.composite
def sweep_cases(draw):
    """(observable, K) with n <= 8 whose terms take every branch of the kernel:
    on subset 1..K, a Y on qubit n lies off the subset and a Z there leaves the
    term all I on it, whenever n > K."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, min(3, n)))
    coeffs = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    sparse = st.dictionaries(st.integers(0, n - 1), st.sampled_from("XYZ"), max_size=3).map(
        lambda on: "".join(on.get(q, "I") for q in range(n)))
    letters = sparse | st.text(alphabet="IXYZ", min_size=n, max_size=n)
    pairs = draw(st.lists(st.tuples(coeffs, letters), min_size=1, max_size=10))
    pairs += [(draw(coeffs), "I" * (n - 1) + letter) for letter in "YZ"]
    return Observable.from_strings(n, pairs), k


@settings(max_examples=60, deadline=None)
@given(case=sweep_cases())
def test_class_sign_sweep_equals_dense_table_scoring(case):
    obs, k = case
    assert np.array_equal(run_partial_dqes(obs, k).energies, table_energies(obs, k))


def test_score_spec_reproduces_each_record_bit_for_bit():
    wide = transverse_field_ising(5, *ISING_STRONG_ZZ)
    narrow = transverse_field_ising(3, 0.4, 0.7)
    for obs, report in ((wide, run_partial_dqes(wide, 2)), (narrow, run_full_dqes(narrow))):
        for rec in report.records:
            assert score_spec(obs, rec.spec) == rec.energy


def test_basis_statistics_grouping():
    report = run_full_dqes(fixture("H2_075"))
    stats = basis_statistics(report)
    assert [s.basis_index for s in stats] == [0, 1, 2, 3, 4]
    assert all(s.subset is None for s in stats)
    b0 = stats[0]
    assert abs(b0.min_energy + 1.82172107) < 1e-8
    assert abs(b0.max_energy + 0.26673071) < 1e-8
    assert b0.variance > 0.1
    # flat bases have (numerically) zero spread
    for s in stats[2:]:
        assert s.variance < 1e-29


def test_basis_statistics_per_subset():
    obs = transverse_field_ising(3, *ISING_WEAK_ZZ)
    report = run_partial_dqes(obs, 2)
    stats = basis_statistics(report, per_subset=True)
    # 3 subsets * 5 bases, each over 4 states
    assert len(stats) == 15
    assert all(s.count == 4 for s in stats)
    assert stats[0].subset == (1, 2)


def test_basis_statistics_requires_records():
    empty = LandscapeReport(observable_name="x", observable_hash="0", n=1, k=1,
                            kind="full", subsets=np.empty((0, 1), dtype=np.int64),
                            energies=np.empty(0))
    with pytest.raises(ValueError, match="no records"):
        basis_statistics(empty)
    with pytest.raises(ValueError):
        empty.min_record()


def test_rank_bounds():
    report = run_full_dqes(single_qubit_xy())
    with pytest.raises(ValueError, match=r"k must be in \[1, 6\]"):
        rank_initial_states(report, 0)
    with pytest.raises(ValueError, match=r"k must be in \[1, 6\]"):
        rank_initial_states(report, 7)
    assert len(rank_initial_states(report, 6)) == 6


def csv_text(report) -> str:
    """The records CSV export_csv writes, joined from its chunks."""
    return "".join(_csv_chunks(report))


def test_csv_layout():
    report = run_full_dqes(fixture("H2_075"))
    lines = csv_text(report).splitlines()
    assert lines[0] == "index,subset,basis,state,energy"
    assert lines[1] == "0,1-2,0,0,-1.06658017"
    assert lines[2] == "1,1-2,0,1,-1.82172107"
    assert lines[3] == "2,1-2,0,2,-0.26673071"
    assert len(lines) == 21


def test_csv_subset_column_for_partial_sweeps():
    obs = maxcut_hamiltonian(random_graph(8, 0.5, seed=42))
    report = run_partial_dqes(obs, 3)
    lines = csv_text(report).splitlines()
    assert lines[368].startswith("367,1-2-8,0,7,-6")


def test_export_csv_writes_data_and_sidecar(tmp_path):
    report = run_full_dqes(fixture("H2_075"))
    path = tmp_path / "h2.csv"
    export_csv(report, path, sidecar_fields={"argv": ["unit-test"]})
    assert path.read_text() == csv_text(report)
    sidecar = json.loads((tmp_path / "h2.csv.manifest.json").read_text())
    assert sidecar["observable_name"] == report.observable_name
    assert sidecar["observable_sha256"] == observable_hash(fixture("H2_075"))
    assert sidecar["record_count"] == 20
    assert sidecar["argv"] == ["unit-test"]
    assert sidecar["output_sha256"] == file_sha256(path)


def test_export_is_byte_identical_across_reruns(tmp_path):
    obs = maxcut_hamiltonian(random_graph(7, 0.5, seed=13))
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    export_csv(run_partial_dqes(obs, 2), first)
    export_csv(run_partial_dqes(obs, 2), second)
    assert first.read_bytes() == second.read_bytes()


def test_report_identity_fields():
    obs = fixture("H2_075")
    report = run_full_dqes(obs, name="h2")
    assert report.observable_name == "h2"
    assert report.observable_hash == observable_hash(obs)
    assert report.n == 2 and report.k == 2


# --- columnar report against the per-spec path ---------------------------------
#
# The oracle is the record list a sweep built before reports became columnar:
# every spec, subset-lex then basis then state, each scored alone by
# score_spec, and every reader written over that list.


def oracle_records(obs, k):
    specs = [PartialMubSpec(n=obs.n, subset=subset, basis_index=basis, state_index=state)
             for subset in itertools.combinations(range(1, obs.n + 1), k)
             for basis in range(2**k + 1) for state in range(2**k)]
    return [LandscapeRecord(index=i, spec=spec, energy=score_spec(obs, spec))
            for i, spec in enumerate(specs)]


def fold(values):
    """Left-to-right float sum; sum() is compensated from Python 3.12 on."""
    total = 0.0
    for e in values:
        total += e
    return total


def oracle_statistics(records, per_subset):
    groups = {}
    for rec in records:
        key = (rec.spec.subset if per_subset else None, rec.spec.basis_index)
        groups.setdefault(key, []).append(rec.energy)
    stats = []
    for subset, basis in sorted(groups, key=lambda g: (g[1], g[0] or ())):
        energies = groups[(subset, basis)]
        mean = fold(energies) / len(energies)
        var = fold((e - mean) ** 2 for e in energies) / len(energies)
        stats.append(BasisStats(basis, subset, len(energies), min(energies), max(energies),
                                mean, var))
    return stats


def oracle_csv(records):
    lines = ["index,subset,basis,state,energy"]
    for rec in records:
        subset = "-".join(str(q) for q in rec.spec.subset)
        lines.append(f"{rec.index},{subset},{rec.spec.basis_index},{rec.spec.state_index},"
                     f"{rec.energy:.12g}")
    return "\n".join(lines) + "\n"


COLUMNAR_CASES = {
    "h2_full": (fixture("H2_075"), 2, "full"),
    "ising_fig8_full": (transverse_field_ising(3, *ISING_STRONG_ZZ), 3, "full"),
    "maxcut6_k2": (maxcut_hamiltonian(random_graph(6, 0.5, seed=7)), 2, "partial"),
    "maxcut8_k3": (maxcut_hamiltonian(random_graph(8, 0.5, seed=42)), 3, "partial"),
    "ising5_k1": (transverse_field_ising(5, 0.4, 0.7), 1, "partial"),
}


@pytest.mark.parametrize("case", sorted(COLUMNAR_CASES))
def test_columnar_readers_match_the_per_spec_path(case):
    obs, k, kind = COLUMNAR_CASES[case]
    report = run_full_dqes(obs) if kind == "full" else run_partial_dqes(obs, k)
    oracle = oracle_records(obs, k)
    by_energy = sorted(oracle, key=lambda r: r.energy)
    assert report.min_record() == min(oracle, key=lambda r: r.energy)
    # the full ranking orders every tie by enumeration
    for count in (1, 3, len(oracle)):
        assert rank_initial_states(report, count) == by_energy[:count]
    for per_subset in (False, True):
        assert basis_statistics(report, per_subset) == oracle_statistics(oracle, per_subset)
    assert csv_text(report) == oracle_csv(oracle)
    lowest = by_energy[0].energy
    assert report.min_ties() == sum(1 for r in oracle if r.energy - lowest <= 1e-12)
    assert report.records == tuple(oracle)
    assert report.records is report.records


def random_coefficient_report():
    """A K = 3 sweep of random Pauli strings with Gaussian coefficients, whose
    energies are nearly all distinct."""
    rng = np.random.default_rng(11)
    pairs = [(float(rng.normal()), "".join(rng.choice(list("IXYZ"), size=6)))
             for _ in range(12)]
    return run_partial_dqes(Observable.from_strings(6, pairs), 3)


def special_energy_report():
    """A hand-built report whose energies repeat 0.0, -0.0, a subnormal and
    1e300 in both orders among ordinary values."""
    specials = [0.0, -0.0, 5e-324, 1e300, -1e300, -0.0, 0.0, -2.5, 1 / 3, 5e-324]
    energies = np.resize(specials, 3 * 20)
    return LandscapeReport(observable_name="specials", observable_hash="0", n=3, k=2,
                           kind="partial", subsets=[(1, 2), (1, 3), (2, 3)], energies=energies)


@pytest.mark.parametrize("make_report", [random_coefficient_report, special_energy_report])
def test_streamed_csv_matches_the_per_record_oracle(make_report, tmp_path):
    report = make_report()
    expected = oracle_csv(report.records)
    export_csv(report, tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_bytes() == expected.encode()


def test_csv_tells_negative_zero_from_zero():
    report = special_energy_report()
    lines = csv_text(report).splitlines()
    assert lines[1:3] == ["0,1-2,0,0,0", "1,1-2,0,1,-0"]
    # a dedup keyed on the value merges -0.0 into 0.0 and prints one text for both
    by_value = {energy: f"{energy:.12g}" for energy in report.energies.tolist()}
    assert [by_value[e] for e in report.energies.tolist()] != \
        [f"{e:.12g}" for e in report.energies.tolist()]


def test_rankings_keep_enumeration_order_on_ties():
    # Max-Cut energies are integers, so most records tie with others
    report = run_partial_dqes(maxcut_hamiltonian(random_graph(8, 0.5, seed=42)), 3)
    top = rank_initial_states(report, 40)
    for a, b in zip(top, top[1:]):
        assert (a.energy, a.index) < (b.energy, b.index)
    assert report.min_ties() > 1


def test_sweep_readers_build_no_record_per_state(monkeypatch):
    built = []
    validate = PartialMubSpec.__post_init__

    def counting(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(PartialMubSpec, "__post_init__", counting)
    report = run_partial_dqes(transverse_field_ising(10, *ISING_STRONG_ZZ), 3)
    rank_initial_states(report, 3)
    basis_statistics(report)
    csv_text(report)
    scatter_svg(report)
    assert len(report.energies) == 8640
    assert len(built) <= 3


def test_report_checks_its_columns():
    with pytest.raises(ValueError, match="2 subsets need 40 energies"):
        LandscapeReport(observable_name="x", observable_hash="0", n=3, k=2, kind="partial",
                        subsets=[(1, 2), (1, 3)], energies=np.zeros(39))
    report = run_partial_dqes(transverse_field_ising(4, *ISING_WEAK_ZZ), 2)
    assert report.subsets.shape == (6, 2)
    assert not report.subsets.flags.writeable and not report.energies.flags.writeable


def test_partial_sweeps_run_past_the_state_vector_cap():
    obs = transverse_field_ising(20, *ISING_STRONG_ZZ)
    report = run_partial_dqes(obs, 3)
    assert len(report.energies) == 1140 * 72
    best = report.min_record()
    assert score_spec(obs, best.spec) == best.energy
    with pytest.raises(ValueError, match="limited to 12 qubits"):
        realize_partial_state(best.spec)
