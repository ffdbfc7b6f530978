"""Built-in observables, random graphs, Max-Cut encoding, and exact ground energies."""

import dataclasses

import numpy as np
import pytest
from dense_oracle import cut_value, kron_matrix, max_cut_brute_force, weight
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_path import basis_state, expectation_exact

from dqes.paulis import Observable, _x_mask_form, compile_observable, observable_matrix
from dqes.problems import (
    FIXTURES,
    ISING_STRONG_ZZ,
    ISING_WEAK_ZZ,
    GraphSpec,
    check_maxcut_nodes,
    encode_graph,
    exact_spectrum,
    fixture,
    maxcut_hamiltonian,
    random_graph,
    single_qubit_xy,
    transverse_field_ising,
)
from dqes.states import random_state


def test_h2_fixture_terms():
    obs = fixture("H2_075")
    assert obs.n == 2
    coeffs = {p.letters: c for c, p in obs.terms}
    assert len(coeffs) == 5
    assert abs(coeffs["II"] + 1.05540303) < 1e-12
    assert abs(coeffs["IZ"] - 0.38874759) < 1e-12
    assert abs(coeffs["ZI"] + 0.38874759) < 1e-12
    assert abs(coeffs["ZZ"] + 0.01117714) < 1e-12
    assert abs(coeffs["XX"] - 0.18177154) < 1e-12


def test_heh_fixture_terms():
    obs = fixture("HeH+_100")
    assert obs.n == 2
    assert len(obs.terms) == 9
    coeffs = {p.letters: c for c, p in obs.terms}
    assert abs(coeffs["II"] + 3.04506092) < 1e-12
    assert abs(coeffs["ZX"] + 0.11926145) < 1e-12
    assert abs(coeffs["XZ"] - 0.11926145) < 1e-12
    assert abs(coeffs["XX"] - 0.11714671) < 1e-12


def test_h2_computational_diagonal():
    # diagonal terms only: II + (+-)IZ + (+-)ZI + (+-)ZZ per bit pattern
    obs = fixture("H2_075")
    expected = [-1.06658017, -1.82172107, -0.26673071, -1.06658017]
    for index, value in enumerate(expected):
        assert abs(expectation_exact(obs, basis_state(2, index)) - value) < 1e-10


def test_heh_computational_diagonal():
    obs = fixture("HeH+_100")
    expected = [-3.18400738, -3.91127550, -1.90095342, -3.18400738]
    for index, value in enumerate(expected):
        assert abs(expectation_exact(obs, basis_state(2, index)) - value) < 1e-10


def test_molecule_ground_energies():
    # dense-diagonalization oracles, frozen to 1e-9
    assert abs(exact_spectrum(fixture("H2_075")).ground_energy + 1.8426866891) < 1e-9
    assert abs(exact_spectrum(fixture("HeH+_100")).ground_energy + 3.9185595436) < 1e-9


def test_lih_points_at_the_file_path():
    with pytest.raises(ValueError, match="observable JSON file"):
        fixture("LiH_160")


def test_unknown_fixture_lists_the_builtins():
    with pytest.raises(ValueError, match="unknown fixture 'H3_000'; available: H2_075, HeH\\+_100, "
                                         "ising_fig7, ising_fig8, xy1"):
        fixture("H3_000")


def test_fixture_table_builds_every_builtin():
    assert sorted(FIXTURES) == ["H2_075", "HeH+_100", "ising_fig7", "ising_fig8", "xy1"]
    # each call builds the molecule afresh from the one table of terms
    assert fixture("H2_075") == fixture("H2_075") != fixture("HeH+_100")
    assert fixture("xy1") == single_qubit_xy()
    assert fixture("ising_fig7") == transverse_field_ising(3, *ISING_WEAK_ZZ)
    assert fixture("ising_fig8") == transverse_field_ising(3, *ISING_STRONG_ZZ)


def test_single_qubit_xy_observable():
    obs = single_qubit_xy()
    assert [(p.letters, c) for c, p in obs.terms] == [("X", 1.0), ("Y", 1.0)]
    assert abs(exact_spectrum(obs).ground_energy + np.sqrt(2)) < 1e-12


def test_ising_chain_terms():
    obs = transverse_field_ising(3, *ISING_STRONG_ZZ)
    coeffs = {p.letters: c for c, p in obs.terms}
    # open chain: 2 nearest-neighbour ZZ couplings plus 3 transverse X fields
    assert set(coeffs) == {"ZZI", "IZZ", "XII", "IXI", "IIX"}
    assert abs(coeffs["ZZI"] - ISING_STRONG_ZZ[0]) < 1e-15
    assert abs(coeffs["IIX"] - ISING_STRONG_ZZ[1]) < 1e-15
    with pytest.raises(ValueError, match="chain length"):
        transverse_field_ising(1, 0.1, 0.1)


def test_printed_ising_coefficients():
    assert ISING_WEAK_ZZ == (0.04645122, 0.27498273)
    assert ISING_STRONG_ZZ == (0.61436456, 0.32435029)


def test_graph_spec_validation():
    with pytest.raises(ValueError, match="at least 2 nodes"):
        GraphSpec(node_count=1, edges=((0, 1),))
    with pytest.raises(ValueError, match="self loop"):
        GraphSpec(node_count=3, edges=((1, 1),))
    with pytest.raises(ValueError, match="outside nodes"):
        GraphSpec(node_count=3, edges=((0, 3),))
    with pytest.raises(ValueError, match="duplicate edge"):
        GraphSpec(node_count=3, edges=((0, 1), (1, 0)))


def test_graph_spec_normalizes_edges():
    graph = GraphSpec(node_count=4, edges=((2, 0), (3, 1), (0, 1)))
    assert graph.edges == ((0, 1), (0, 2), (1, 3))


def test_random_graph_is_seeded():
    a = random_graph(8, 0.5, seed=42)
    b = random_graph(8, 0.5, seed=42)
    assert a == b
    assert len(a.edges) == 12  # frozen draw for this seed
    assert random_graph(8, 0.5, seed=43) != a


def test_random_graph_density_extremes():
    assert random_graph(5, 0.0, seed=1).edges == ()
    assert len(random_graph(5, 1.0, seed=1).edges) == 10
    with pytest.raises(ValueError, match="edge probability"):
        random_graph(5, 1.5, seed=1)


@pytest.mark.parametrize("settings, message", [
    ({"seed": 1, "edge_prob": float("nan")}, r"edge probability must be in \[0, 1\], got nan"),
    ({"seed": 1, "edge_prob": float("inf")}, r"edge probability must be in \[0, 1\], got inf"),
    ({"seed": 1, "edge_prob": 7.0}, r"edge probability must be in \[0, 1\], got 7.0"),
    ({"seed": 1, "edge_prob": -0.5}, r"edge probability must be in \[0, 1\], got -0.5"),
    ({"seed": -1}, "seed must be a non-negative integer, got -1"),
    ({"seed": -1, "edge_prob": 0.5}, "seed must be a non-negative integer, got -1"),
], ids=["nan", "inf", "above-1", "below-0", "negative-seed", "negative-seed-with-prob"])
def test_graph_spec_rejects_bad_generator_settings(settings, message):
    with pytest.raises(ValueError, match=message):
        GraphSpec(node_count=3, edges=((0, 1),), **settings)


def test_random_graph_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -2"):
        random_graph(5, 0.5, seed=-2)


def test_cut_value_counts_crossing_edges():
    # path 0-1-2; assignment bit for node 0 is the most significant
    graph = GraphSpec(node_count=3, edges=((0, 1), (1, 2)))
    assert cut_value(graph, 0b000) == 0
    assert cut_value(graph, 0b010) == 2
    assert cut_value(graph, 0b100) == 1
    assert cut_value(graph, 0b111) == 0
    with pytest.raises(ValueError, match="assignment"):
        cut_value(graph, 8)


def test_brute_force_max_cut_on_known_graphs():
    triangle = GraphSpec(node_count=3, edges=((0, 1), (1, 2), (0, 2)))
    cut, assignment = max_cut_brute_force(triangle)
    assert cut == 2
    assert cut_value(triangle, assignment) == 2
    square = GraphSpec(node_count=4, edges=((0, 1), (1, 2), (2, 3), (0, 3)))
    cut, assignment = max_cut_brute_force(square)
    assert cut == 4
    assert cut_value(square, assignment) == 4


def test_maxcut_hamiltonian_identity():
    # <x| H |x> = |E| - 2 * cut(x) for every assignment
    graph = random_graph(6, 0.5, seed=7)
    obs = maxcut_hamiltonian(graph)
    assert all(weight(p) == 2 for _, p in obs.terms)
    assert len(obs.terms) == len(graph.edges)
    for x in range(2**6):
        energy = expectation_exact(obs, basis_state(6, x))
        assert abs(energy - (len(graph.edges) - 2 * cut_value(graph, x))) < 1e-9


def test_maxcut_hamiltonian_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="no edges"):
        maxcut_hamiltonian(GraphSpec(node_count=3, edges=()))
    big = GraphSpec(node_count=63, edges=((0, 1),))
    with pytest.raises(ValueError, match="above 62 nodes"):
        maxcut_hamiltonian(big)
    with pytest.raises(ValueError, match="above 62 nodes are not supported, got 63"):
        check_maxcut_nodes(63)
    check_maxcut_nodes(62)


def test_exact_spectrum_fields():
    obs = fixture("H2_075")
    result = exact_spectrum(obs)
    assert [field.name for field in dataclasses.fields(result)] == ["ground_energy"]
    assert type(result.ground_energy) is float
    # variational: no basis state lies below the ground energy
    assert all(result.ground_energy <= expectation_exact(obs, basis_state(2, x))
               for x in range(4))


def assert_equals_eigh_of_the_kron_oracle(obs):
    """exact_spectrum(obs) holds eigh's lowest eigenvalue bit for bit, sign bit included."""
    ground_energy = np.linalg.eigh(kron_matrix(obs))[0][0]
    assert np.float64(exact_spectrum(obs).ground_energy).tobytes() == ground_energy.tobytes()


@pytest.mark.parametrize("name", [*sorted(FIXTURES), "maxcut8"])
def test_exact_spectrum_equals_eigh_of_the_kron_oracle(name):
    obs = (maxcut_hamiltonian(random_graph(8, 0.5, seed=42)) if name == "maxcut8"
           else fixture(name))
    assert_equals_eigh_of_the_kron_oracle(obs)


@st.composite
def diagonal_observables(draw):
    """Z-strings with small-integer coefficients (many tied levels), with
    floats in [-2, 2], or with tiny ones (LAPACK's zheevd rescales, and rounds,
    a matrix whose entries all lie below 2^-485, about 1e-146), or a Max-Cut
    graph's unit ZZ terms."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["integer", "float", "tiny", "maxcut"]))
    if kind == "maxcut" and n > 1:
        graph = random_graph(n, draw(st.sampled_from([0.3, 0.6, 1.0])), draw(st.integers(0, 999)))
        if graph.edges:
            return maxcut_hamiltonian(graph)
    bound = 1e-100 if kind == "tiny" else 2.0
    coeffs = (st.integers(-3, 3).map(float) if kind == "integer"
              else st.floats(-bound, bound, allow_nan=False, allow_infinity=False))
    letters = st.text(alphabet="IZ", min_size=n, max_size=n)
    return Observable.from_strings(n, draw(st.lists(st.tuples(coeffs, letters), max_size=8)))


@settings(max_examples=150, deadline=None)
@given(obs=diagonal_observables())
def test_diagonal_spectrum_equals_eigh_of_the_kron_oracle(obs):
    # the minimum of the oracle's diagonal at every scale, and eigh's lowest
    # eigenvalue too unless eigh rescales the matrix
    diagonal = np.diag(kron_matrix(obs)).real
    ground_energy = np.float64(exact_spectrum(obs).ground_energy)
    assert ground_energy.tobytes() == diagonal.min().tobytes()
    largest = np.abs(diagonal).max()
    if largest == 0.0 or largest >= 2.0**-485:
        assert_equals_eigh_of_the_kron_oracle(obs)


def test_diagonal_observables_call_no_eigh(monkeypatch):
    def no_eigh(matrix):
        raise AssertionError("eigh was called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    graph = random_graph(10, 0.5, seed=42)
    result = exact_spectrum(maxcut_hamiltonian(graph))
    assert result.ground_energy == len(graph.edges) - 2 * max_cut_brute_force(graph)[0]
    with pytest.raises(AssertionError, match="eigh was called"):
        exact_spectrum(fixture("H2_075"))


def test_an_observable_whose_terms_all_cancel_reads_as_zero(monkeypatch):
    # XX - XX merges to no term and an empty X-mask form, which exact_spectrum
    # reads as a zero diagonal, with no eigh
    def no_eigh(matrix):
        raise AssertionError("eigh was called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    obs = Observable.from_strings(2, ((1.0, "XX"), (-1.0, "XX")))
    assert obs.terms == () and _x_mask_form(obs) == {}
    rows = np.stack([random_state(2, seed).amps for seed in range(3)])
    assert compile_observable(obs)(rows).tobytes() == np.zeros(3).tobytes()
    assert observable_matrix(obs).tobytes() == np.zeros((4, 4), dtype=complex).tobytes()
    assert np.float64(exact_spectrum(obs).ground_energy).tobytes() == np.float64(0.0).tobytes()


def scaled(obs, factor):
    return Observable(obs.n, tuple((coeff * factor, pauli) for coeff, pauli in obs.terms))


@pytest.mark.parametrize("obs, factor", [
    (fixture("H2_075"), 1e8),
    (transverse_field_ising(8, 1.0, 0.7), 1e7),
    (transverse_field_ising(10, 1.0, 0.7), 1e12),
], ids=["H2x1e8", "ising8x1e7", "ising10x1e12"])
def test_exact_spectrum_of_an_observable_in_small_units(obs, factor):
    # the residual check scales with the spectrum, so units do not decide it
    unscaled = exact_spectrum(obs)
    result = exact_spectrum(scaled(obs, factor))
    target = factor * unscaled.ground_energy
    assert abs(result.ground_energy - target) <= 1e-14 * abs(target)


@pytest.mark.parametrize("factor", [1.0, 1e8])
def test_exact_spectrum_rejects_a_wrong_eigenvector(monkeypatch, factor):
    eigh = np.linalg.eigh

    def skewed(matrix):
        eigenvalues, vectors = eigh(matrix)
        vectors[:, 0] = vectors[:, 0] + 1e-6 * vectors[:, 1]
        return eigenvalues, vectors

    monkeypatch.setattr(np.linalg, "eigh", skewed)
    with pytest.raises(RuntimeError, match="eigensolver residual"):
        exact_spectrum(scaled(fixture("H2_075"), factor))


def test_exact_spectrum_size_cap():
    obs = Observable.from_strings(11, [(1.0, "Z" * 11)])
    with pytest.raises(ValueError, match="limited to n <= 10"):
        exact_spectrum(obs)


@pytest.mark.parametrize("terms", [
    [(1e308, "ZI"), (1e308, "IZ")],  # diagonal: the entry on |00> would be 2e308
    [(1e308, "ZI"), (1e308, "IZ"), (1.0, "XX")],  # the same entry, through the matrix
    [(1e308, "XI"), (1e308, "IX")],  # finite entries, eigenvalues +-2e308
], ids=["diagonal", "matrix-entry", "eigenvalue"])
def test_exact_spectrum_refuses_a_spectrum_past_the_float64_range(terms):
    # W = sum |coeff| is inf, so the observable is refused before any spectrum
    with pytest.raises(ValueError, match=r"^W = sum \|coeff\| = inf must be at most 2\^485"):
        exact_spectrum(Observable.from_strings(2, terms))


def test_exact_spectrum_checks_a_spectrum_at_the_bound():
    # W = 2^485: the diagonal path, and eigh on entries that reach the bound but
    # do not pass it, so eigh does not rescale them
    half = 2.0**484
    diagonal = exact_spectrum(Observable.from_strings(2, [(half, "ZI"), (half, "IZ")]))
    assert diagonal.ground_energy == -2 * half
    for terms, ground in (([(half, "ZI"), (half, "XX")], -2**0.5 * half),
                          ([(half, "XI"), (half, "IX")], -2 * half)):
        exact = exact_spectrum(Observable.from_strings(2, terms))
        assert exact.ground_energy == pytest.approx(ground, rel=1e-12)


def _graph_from_text(text):
    # the test's own reading of the format: the package writes graph text only
    seed = edge_prob = None
    lines = text.splitlines()
    if lines[0].startswith("# seed "):
        words = lines.pop(0).split()
        seed = int(words[2])
        if len(words) == 5:
            edge_prob = float(words[4])
    node_count = int(lines[0].removeprefix("nodes "))
    edges = tuple(tuple(int(x) for x in line.split()) for line in lines[1:])
    return GraphSpec(node_count=node_count, edges=edges, seed=seed, edge_prob=edge_prob)


def test_graph_codec_round_trip():
    # a generated graph's text opens with its generator settings, as provenance
    graph = random_graph(6, 0.4, seed=3)
    text = encode_graph(graph)
    assert text == "# seed 3 edge-prob 0.4\nnodes 6\n0 1\n0 2\n0 5\n1 4\n2 3\n2 4\n"
    again = _graph_from_text(text)
    assert again == graph
    assert again.seed == 3 and again.edge_prob == 0.4
    assert encode_graph(again) == text


def test_graph_codec_without_provenance():
    graph = GraphSpec(node_count=3, edges=((2, 0),))
    text = encode_graph(graph)
    assert text == "nodes 3\n0 2\n"
    again = _graph_from_text(text)
    assert again.node_count == 3 and again.edges == ((0, 2),)
    assert again.seed is None and again.edge_prob is None
    assert encode_graph(GraphSpec(node_count=2, edges=(), seed=5)) == "# seed 5\nnodes 2\n"
