"""
Problem Hamiltonians: molecule fixtures, transverse-field Ising chains,
Max-Cut observables on unweighted graphs, and a dense exact eigensolver.

Graph nodes are 0-based and node i sits on qubit i + 1, so an assignment
bitstring reads left to right like a basis-state label.
"""

from dataclasses import dataclass
from functools import partial
from itertools import combinations

import numpy as np

from .mub import MAX_SWEEP_QUBITS
from .paulis import Observable, _x_mask_form, observable_matrix

# Two-qubit tapered molecular Hamiltonians at fixed geometry, coefficients in
# Hartree. Keys are <molecule>_<separation in hundredths of an Angstrom>.
_MOLECULES = {
    "H2_075": (2, (
        (-1.05540303, "II"),
        (+0.38874759, "IZ"),
        (-0.38874759, "ZI"),
        (-0.01117714, "ZZ"),
        (+0.18177154, "XX"),
    )),
    "HeH+_100": (2, (
        (-3.04506092, "II"),
        (+0.50258052, "IZ"),
        (+0.11926278, "IX"),
        (-0.50258052, "ZI"),
        (+0.11926278, "XI"),
        (-0.13894646, "ZZ"),
        (-0.11926145, "ZX"),
        (+0.11926145, "XZ"),
        (+0.11714671, "XX"),
    )),
}

# Published coefficient pairs (c_zz, c_x) for the two 3-qubit chain examples.
ISING_WEAK_ZZ = (0.04645122, 0.27498273)
ISING_STRONG_ZZ = (0.61436456, 0.32435029)


def single_qubit_xy() -> Observable:
    """X + Y on one qubit; ground energy -sqrt(2)."""
    return Observable.from_strings(1, ((1.0, "X"), (1.0, "Y")))


def transverse_field_ising(n: int, c_zz: float, c_x: float) -> Observable:
    """Open chain: c_zz * sum Z_i Z_{i+1} + c_x * sum X_i."""
    if not 2 <= n <= MAX_SWEEP_QUBITS:
        raise ValueError(f"chain length must be in [2, {MAX_SWEEP_QUBITS}], got {n}")
    terms = []
    for i in range(n - 1):
        terms.append((c_zz, "I" * i + "ZZ" + "I" * (n - i - 2)))
    for i in range(n):
        terms.append((c_x, "I" * i + "X" + "I" * (n - i - 1)))
    return Observable.from_strings(n, terms)


# Every built-in observable by name: the molecules plus the paper's 1- and
# 3-qubit examples.
FIXTURES = {
    "H2_075": partial(Observable.from_strings, *_MOLECULES["H2_075"]),
    "HeH+_100": partial(Observable.from_strings, *_MOLECULES["HeH+_100"]),
    "xy1": single_qubit_xy,
    "ising_fig7": lambda: transverse_field_ising(3, *ISING_WEAK_ZZ),
    "ising_fig8": lambda: transverse_field_ising(3, *ISING_STRONG_ZZ),
}


def fixture(name: str) -> Observable:
    """Built-in observable by name, one of FIXTURES."""
    if name in FIXTURES:
        return FIXTURES[name]()
    if name.startswith("LiH"):
        raise ValueError(
            "LiH is not built in; supply its 10-qubit Hamiltonian as an "
            "observable JSON file instead (landscape --observable FILE)")
    raise ValueError(f"unknown fixture {name!r}; available: {', '.join(sorted(FIXTURES))}")


@dataclass(frozen=True)
class GraphSpec:
    """Unweighted simple graph; edges as sorted (u, v) pairs with u < v."""

    node_count: int
    edges: tuple[tuple[int, int], ...]
    seed: int | None = None
    edge_prob: float | None = None

    def __post_init__(self):
        _check_graph_settings(self.node_count, self.seed, self.edge_prob)
        seen = set()
        norm = []
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self loop at node {u}")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(f"edge ({u}, {v}) is outside nodes 0..{self.node_count - 1}")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        object.__setattr__(self, "edges", tuple(sorted(norm)))


def _check_graph_settings(node_count: int, seed: int | None, edge_prob: float | None) -> None:
    """Checks a graph's size and the generator settings it records, which a
    GraphSpec and random_graph share."""
    if node_count < 2:
        raise ValueError(f"graph needs at least 2 nodes, got {node_count}")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    # a nan fails both comparisons
    if edge_prob is not None and not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {edge_prob}")


def random_graph(node_count: int, edge_prob: float, seed: int) -> GraphSpec:
    """Erdos-Renyi draw: each pair (u, v) in lex order gets an independent coin."""
    _check_graph_settings(node_count, seed, edge_prob)
    rng = np.random.default_rng(seed)
    edges = tuple((u, v) for u, v in combinations(range(node_count), 2)
                  if rng.random() < edge_prob)
    return GraphSpec(node_count=node_count, edges=edges, seed=seed, edge_prob=edge_prob)


def check_maxcut_nodes(n: int) -> None:
    """Refuses a Max-Cut register too large to sweep, before C(n, 2) coins are drawn."""
    if n > MAX_SWEEP_QUBITS:
        raise ValueError(f"graphs above {MAX_SWEEP_QUBITS} nodes are not supported, got {n}")


def maxcut_hamiltonian(graph: GraphSpec) -> Observable:
    """sum over edges of Z_u Z_v; on a basis state this equals |E| - 2 * cut."""
    n = graph.node_count
    check_maxcut_nodes(n)
    if not graph.edges:
        raise ValueError("graph has no edges, the Max-Cut observable would be empty")
    terms = []
    for u, v in graph.edges:
        letters = ["I"] * n
        letters[u] = "Z"
        letters[v] = "Z"
        terms.append((1.0, "".join(letters)))
    return Observable.from_strings(n, terms)


# Largest register exact_spectrum diagonalizes: a dense 2^10 x 2^10 matrix.
MAX_EXACT_QUBITS = 10


@dataclass(frozen=True)
class ExactSpectrumResult:
    """Dense diagonalization output: the lowest eigenvalue."""

    ground_energy: float


# np.linalg.eigh (LAPACK zheevd) rescales a matrix whose largest entry lies
# outside [2^-485, 2^485] before it diagonalizes, and that rescaling rounds.
# No entry passes 2^485, the bound on sum |coeff| (paulis._MAX_WEIGHT).
_EIGH_UNSCALED_MIN = 2.0**-485


def exact_spectrum(obs: Observable) -> ExactSpectrumResult:
    """Ground energy via dense Hermitian diagonalization (n <= MAX_EXACT_QUBITS).

    An observable with no X or Y letter is diagonal: the real part of the x = 0
    group of its X-mask form (paulis._x_mask_form), or zeros with no term left.
    Unless eigh would rescale it, its ground energy is the diagonal's minimum,
    read with no matrix built: eigh returns the sorted diagonal, which holds no
    -0.0 (a sum that starts at +0.0 never reaches -0.0), so the two agree bit
    for bit.
    """
    if obs.n > MAX_EXACT_QUBITS:
        raise ValueError(f"exact spectrum is limited to n <= {MAX_EXACT_QUBITS}, got n={obs.n}")
    if all(pauli.x_mask == 0 for _, pauli in obs.terms):
        diagonal = _x_mask_form(obs).get(0, np.zeros(2**obs.n, dtype=complex)).real
        largest = float(np.abs(diagonal).max())
        if largest == 0.0 or largest >= _EIGH_UNSCALED_MIN:
            return ExactSpectrumResult(ground_energy=float(diagonal.min()))
    matrix = observable_matrix(obs)
    eigenvalues, vectors = np.linalg.eigh(matrix)
    ground = vectors[:, 0]
    bound = 1e-8 * max(1.0, float(np.abs(eigenvalues).max()))  # relative to the spectrum
    residual = float(np.linalg.norm(matrix @ ground - eigenvalues[0] * ground))
    if residual > bound:
        raise RuntimeError(f"eigensolver residual {residual:.3e} exceeds {bound:.3g}")
    return ExactSpectrumResult(ground_energy=float(eigenvalues[0]))


# --- graph file text ---------------------------------------------------------
#
# Text format: for a generated graph a '# seed <S> edge-prob <P>' line, which
# records the generator settings as provenance only (nothing reads the file
# back), then a 'nodes <N>' line and one unweighted edge 'u v' per line (0-based).


def encode_graph(graph: GraphSpec) -> str:
    lines = []
    if graph.seed is not None:
        prob = "" if graph.edge_prob is None else f" edge-prob {graph.edge_prob!r}"
        lines.append(f"# seed {graph.seed}{prob}")
    lines.append(f"nodes {graph.node_count}")
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"
