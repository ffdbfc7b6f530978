"""
Exhaustive cost evaluation over discretized state sets.

A full sweep scores every state of the complete MUB set (n <= MAX_MUB_QUBITS).
A partial sweep scores every K-qubit MUB state tensored with |0> on the
remaining qubits, over all K-subsets, which scales to larger registers; the
full sweep is its K = n case. Both read Pauli expectations from a per-K
stabilizer table instead of building 2^n state vectors. Records are produced
in a fixed enumeration order (subset lex, then basis, then state), so reports
and their CSV exports are deterministic.

A report stores a sweep as columns: the K-subsets as one int array and the
energies as one float64 array in enumeration order. Readers work on the
columns; a LandscapeRecord is built only for a record a caller asks for.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mub import MAX_MUB_QUBITS, MubSet, PartialMubSpec, _check_sweep_size, build_full_mub_set
from .paulis import Observable, PauliString, observable_hash, observable_matrix


@dataclass(frozen=True)
class LandscapeRecord:
    """One scored state: its spec, enumeration index, and exact energy."""

    index: int
    spec: PartialMubSpec
    energy: float

    def label(self) -> str:
        return self.spec.label()


@dataclass(frozen=True, eq=False)
class LandscapeReport:
    """All records of one sweep, as columns, plus the observable's identity.

    subsets is a (C(n,K), K) array of 1-based qubit indices in lex order;
    energies holds every record's energy in enumeration order, subset, then
    basis, then state. So record i lies on subset i // records_per_subset,
    and its remainder splits into basis and state by divmod with 2^K.
    """

    observable_name: str
    observable_hash: str
    n: int
    k: int
    kind: str  # "full" or "partial"
    subsets: np.ndarray
    energies: np.ndarray

    def __post_init__(self):
        subsets = np.asarray(self.subsets, dtype=np.int64).reshape(-1, self.k).view()
        energies = np.asarray(self.energies, dtype=np.float64).view()
        expected = len(subsets) * self.records_per_subset
        if energies.shape != (expected,):
            raise ValueError(f"{len(subsets)} subsets need {expected} energies, "
                             f"got shape {energies.shape}")
        subsets.flags.writeable = False
        energies.flags.writeable = False
        object.__setattr__(self, "subsets", subsets)
        object.__setattr__(self, "energies", energies)

    @property
    def records_per_subset(self) -> int:
        """Records on one subset: (2^K + 1) bases of 2^K states."""
        return (2**self.k + 1) * 2**self.k

    def record(self, index: int) -> LandscapeRecord:
        """Record index, built from the columns."""
        subset, rest = divmod(index, self.records_per_subset)
        basis, state = divmod(rest, 2**self.k)
        spec = PartialMubSpec(n=self.n, subset=tuple(self.subsets[subset].tolist()),
                              basis_index=basis, state_index=state)
        return LandscapeRecord(index=index, spec=spec, energy=float(self.energies[index]))

    @cached_property
    def records(self) -> tuple[LandscapeRecord, ...]:
        """Every record, built on first access and kept."""
        return tuple(self.record(i) for i in range(len(self.energies)))

    def min_record(self) -> LandscapeRecord:
        """The lowest-energy record; the first one in enumeration order on a tie."""
        if not len(self.energies):
            raise ValueError("report has no records")
        return self.record(int(np.argmin(self.energies)))

    def min_ties(self) -> int:
        """Records within 1e-12 of the lowest energy, the minimum itself included."""
        return int(np.count_nonzero(self.energies - self.energies.min() <= 1e-12))


@dataclass(frozen=True)
class BasisStats:
    """Energy summary for one group of records."""

    basis_index: int
    subset: tuple[int, ...] | None
    count: int
    min_energy: float
    max_energy: float
    mean_energy: float
    variance: float


# --- stabilizer-table kernel ----------------------------------------------------
#
# Every MUB state is a stabilizer state, so each K-qubit Pauli expectation on
# it is exactly 0 or +-1. A sweep reads these from a table instead of building
# 2^n vectors. Row b * 2^K + s of the table is state s of basis b; column
# (x << K) | z is the Pauli with K-qubit symplectic masks x and z.


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
        matrix = observable_matrix(Observable(k, ((1.0, pauli),)))
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


_TABLES: dict[int, np.ndarray] = {}


def _table(k: int) -> np.ndarray:
    """The table of build_full_mub_set(k), built on first use."""
    if k not in _TABLES:
        _TABLES[k] = stabilizer_table(build_full_mub_set(k))
    return _TABLES[k]


def _term_columns(obs: Observable, subsets: np.ndarray) -> np.ndarray:
    """Table column of each term's letters on each subset, shape (subsets, terms).

    A term with an X or Y letter off a subset gets column 4^K, the zero column
    of the padded table: its expectation on |0> there is 0. Z letters off the
    subset act on |0> and contribute +1, so only the subset's letters count.
    Qubit q sits on bit n - q of a term's masks; subset position p becomes
    local bit K - 1 - p, as in the K-letter string of the subset's letters.
    """
    k = subsets.shape[1]
    shifts = obs.n - subsets  # (subsets, K): bit of each subset qubit
    on_subset = np.bitwise_or.reduce(np.int64(1) << shifts, axis=1)
    local_bits = np.int64(1) << np.arange(k - 1, -1, -1, dtype=np.int64)
    cols = np.empty((len(subsets), len(obs.terms)), dtype=np.intp)
    for t, (_, pauli) in enumerate(obs.terms):
        x = ((np.int64(pauli.x_mask) >> shifts) & 1) @ local_bits
        z = ((np.int64(pauli.z_mask) >> shifts) & 1) @ local_bits
        off_xy = (np.int64(pauli.x_mask) & ~on_subset) != 0
        cols[:, t] = np.where(off_xy, 4**k, (x << k) | z)
    return cols


def _subset_energies(obs: Observable, table: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Energies of every table row on every subset, shape (len(subsets), rows).

    Terms are added one at a time in canonical order with elementwise
    arithmetic, so one row comes out bit for bit the same whatever else is
    scored with it.
    """
    # row c of padded is table column c; row 4^K is the zero column of off-subset X/Y terms
    padded = np.vstack([table.T, np.zeros((1, table.shape[0]))])
    cols = _term_columns(obs, subsets)
    energies = np.zeros((len(subsets), table.shape[0]))
    for t, (coeff, _) in enumerate(obs.terms):
        energies += coeff * padded[cols[:, t]]
    return energies


def score_spec(obs: Observable, spec: PartialMubSpec) -> float:
    """The energy a sweep gives the state of spec, from the same kernel."""
    if obs.n != spec.n:
        raise ValueError(f"observable is on {obs.n} qubits but spec is on {spec.n}")
    energies = _subset_energies(obs, _table(spec.k), np.array([spec.subset], dtype=np.int64))
    return float(energies[0, spec.basis_index * 2**spec.k + spec.state_index])


def _sweep(obs: Observable, k: int, kind: str, name: str) -> LandscapeReport:
    """Every K-qubit MUB state on every K-subset; K = n is the full sweep."""
    _check_sweep_size(obs.n, k)
    subsets = np.array(list(itertools.combinations(range(1, obs.n + 1), k)),
                       dtype=np.int64)
    # rows run basis, then state, so the flattened energies run subset, basis, state
    energies = _subset_energies(obs, _table(k), subsets).ravel()
    return LandscapeReport(
        observable_name=name,
        observable_hash=observable_hash(obs),
        n=obs.n,
        k=k,
        kind=kind,
        subsets=subsets,
        energies=energies,
    )


def run_full_dqes(obs: Observable, *, name: str = "observable") -> LandscapeReport:
    """Score all (2^n + 1) * 2^n states of the complete MUB set."""
    if obs.n > MAX_MUB_QUBITS:
        raise ValueError(f"full sweeps need a complete MUB set (n <= {MAX_MUB_QUBITS}), "
                         f"got n={obs.n}; use a partial sweep")
    return _sweep(obs, obs.n, "full", name)


def run_partial_dqes(obs: Observable, k: int, name: str = "observable") -> LandscapeReport:
    """Score every K-local MUB product state: C(n,K) * (2^K + 1) * 2^K records."""
    return _sweep(obs, k, "partial", name)


def basis_statistics(report: LandscapeReport, per_subset: bool = False) -> list[BasisStats]:
    """Min/max/mean/variance of energies grouped by basis (optionally by subset too).

    Variance is the population variance over the group. Each group's energies
    are summed in enumeration order with Python's sum, so the figures do not
    depend on numpy's summation order.
    """
    if not len(report.energies):
        raise ValueError("report has no records")
    grid = report.energies.reshape(len(report.subsets), 2**report.k + 1, 2**report.k)
    if per_subset:
        groups = [(tuple(subset), b, grid[s, b])
                  for b in range(grid.shape[1])
                  for s, subset in enumerate(report.subsets.tolist())]
    else:
        groups = [(None, b, grid[:, b]) for b in range(grid.shape[1])]
    stats = []
    for subset, basis, values in groups:
        energies = values.ravel().tolist()
        count = len(energies)
        mean = sum(energies) / count
        var = sum((e - mean) ** 2 for e in energies) / count
        stats.append(BasisStats(
            basis_index=basis,
            subset=subset,
            count=count,
            min_energy=min(energies),
            max_energy=max(energies),
            mean_energy=mean,
            variance=var,
        ))
    return stats


def rank_initial_states(report: LandscapeReport, k: int) -> list[LandscapeRecord]:
    """The k lowest-energy records, ties broken by enumeration order."""
    if not 1 <= k <= len(report.energies):
        raise ValueError(f"k must be in [1, {len(report.energies)}], got {k}")
    order = np.argsort(report.energies, kind="stable")[:k]
    return [report.record(int(i)) for i in order]


# --- CSV export ----------------------------------------------------------------
#
# Columns: index,subset,basis,state,energy. The subset is dash-joined qubit
# indices; energies carry 12 significant digits. Output is byte-identical
# across reruns, volatile metadata lives in the sidecar manifest.


def landscape_csv_text(report: LandscapeReport) -> str:
    tails = [f"{b},{s}," for b in range(2**report.k + 1) for s in range(2**report.k)]
    energies = report.energies.tolist()
    lines = ["index,subset,basis,state,energy"]
    index = 0
    for subset in report.subsets.tolist():
        head = "-".join(map(str, subset))
        for tail in tails:
            lines.append(f"{index},{head},{tail}{energies[index]:.12g}")
            index += 1
    return "\n".join(lines) + "\n"


def export_csv(report: LandscapeReport, path, sidecar_fields: dict | None = None) -> None:
    """Write the records CSV and its <path>.manifest.json sidecar."""
    from .manifest import write_sidecar, write_text_atomic

    write_text_atomic(path, landscape_csv_text(report))
    fields = {
        "observable_name": report.observable_name,
        "observable_sha256": report.observable_hash,
        "n": report.n,
        "k": report.k,
        "kind": report.kind,
        "record_count": len(report.energies),
    }
    if sidecar_fields:
        fields.update(sidecar_fields)
    write_sidecar(path, fields)
