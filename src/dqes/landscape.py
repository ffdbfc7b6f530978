"""
Exhaustive cost evaluation over discretized state sets.

A full sweep scores every state of the complete MUB set (n <= 3). A partial
sweep scores every K-qubit MUB state tensored with |0> on the remaining
qubits, over all K-subsets, which scales to larger registers; the full sweep
is its K = n case. Both read Pauli expectations from a per-K stabilizer table
instead of building 2^n state vectors. Records are produced in a fixed
enumeration order (subset lex, then basis, then state), so reports and their
CSV exports are deterministic.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .mub import MubSet, PartialMubSpec, build_full_mub_set, enumerate_partial_specs
from .paulis import Observable, PauliString, observable_hash, observable_matrix


@dataclass(frozen=True)
class LandscapeRecord:
    """One scored state: its spec, enumeration index, and exact energy."""

    index: int
    spec: PartialMubSpec
    energy: float

    def label(self) -> str:
        return self.spec.label()


@dataclass(frozen=True)
class LandscapeReport:
    """All records of one sweep plus the observable's identity."""

    observable_name: str
    observable_hash: str
    n: int
    k: int
    kind: str  # "full" or "partial"
    records: tuple[LandscapeRecord, ...]

    def min_record(self) -> LandscapeRecord:
        return min(self.records, key=lambda r: r.energy)


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


def _term_columns(obs: Observable, subset: tuple[int, ...]) -> list[int]:
    """Table column of each term's letters on subset, or -1 when the term has
    an X or Y letter off the subset (its expectation on |0> there is 0).
    Z letters off the subset act on |0> and contribute +1."""
    k = len(subset)
    off = [q - 1 for q in range(1, obs.n + 1) if q not in subset]
    cols = []
    for _, pauli in obs.terms:
        if any(pauli.letters[i] in "XY" for i in off):
            cols.append(-1)
        else:
            local = PauliString("".join(pauli.letters[q - 1] for q in subset))
            cols.append((local.x_mask << k) | local.z_mask)
    return cols


def _subset_energies(obs: Observable, table: np.ndarray, subsets) -> np.ndarray:
    """Energies of every table row on every subset, shape (len(subsets), rows).

    Terms are added one at a time in canonical order with elementwise
    arithmetic, so one row comes out bit for bit the same whatever else is
    scored with it.
    """
    # column -1 of the padded table is the zero column of off-subset X/Y terms
    padded = np.hstack([table, np.zeros((table.shape[0], 1))])
    cols = np.array([_term_columns(obs, s) for s in subsets], dtype=np.intp).reshape(
        len(subsets), len(obs.terms))
    energies = np.zeros((len(subsets), table.shape[0]))
    for t, (coeff, _) in enumerate(obs.terms):
        energies += coeff * padded[:, cols[:, t]].T
    return energies


def score_spec(obs: Observable, spec: PartialMubSpec) -> float:
    """The energy a sweep gives the state of spec, from the same kernel."""
    if obs.n != spec.n:
        raise ValueError(f"observable is on {obs.n} qubits but spec is on {spec.n}")
    energies = _subset_energies(obs, _table(spec.k), [spec.subset])
    return float(energies[0, spec.basis_index * 2**spec.k + spec.state_index])


def _sweep(obs: Observable, k: int, kind: str, name: str) -> LandscapeReport:
    """Every K-qubit MUB state on every K-subset; K = n is the full sweep."""
    specs = enumerate_partial_specs(obs.n, k)
    subsets = list(dict.fromkeys(spec.subset for spec in specs))
    # specs run subset, basis, state: the order of the flattened energy rows
    energies = _subset_energies(obs, _table(k), subsets).ravel()
    return LandscapeReport(
        observable_name=name,
        observable_hash=observable_hash(obs),
        n=obs.n,
        k=k,
        kind=kind,
        records=tuple(LandscapeRecord(index=i, spec=spec, energy=float(energies[i]))
                      for i, spec in enumerate(specs)),
    )


def run_full_dqes(obs: Observable, *, name: str = "observable") -> LandscapeReport:
    """Score all (2^n + 1) * 2^n states of the complete MUB set."""
    if obs.n > 3:
        raise ValueError(
            f"full sweeps need a complete MUB set (n <= 3), got n={obs.n}; use a partial sweep")
    return _sweep(obs, obs.n, "full", name)


def run_partial_dqes(obs: Observable, k: int, name: str = "observable") -> LandscapeReport:
    """Score every K-local MUB product state: C(n,K) * (2^K + 1) * 2^K records."""
    return _sweep(obs, k, "partial", name)


def basis_statistics(report: LandscapeReport, per_subset: bool = False) -> list[BasisStats]:
    """Min/max/mean/variance of energies grouped by basis (optionally by subset too).

    Variance is the population variance over the group.
    """
    if not report.records:
        raise ValueError("report has no records")
    groups: dict[tuple, list[float]] = {}
    for rec in report.records:
        key = (rec.spec.subset, rec.spec.basis_index) if per_subset else (None, rec.spec.basis_index)
        groups.setdefault(key, []).append(rec.energy)
    stats = []
    for (subset, basis) in sorted(groups, key=lambda g: (g[1], g[0] or ())):
        energies = groups[(subset, basis)]
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
    if not 1 <= k <= len(report.records):
        raise ValueError(f"k must be in [1, {len(report.records)}], got {k}")
    return sorted(report.records, key=lambda r: r.energy)[:k]


# --- CSV export ----------------------------------------------------------------
#
# Columns: index,subset,basis,state,energy. The subset is dash-joined qubit
# indices; energies carry 12 significant digits. Output is byte-identical
# across reruns, volatile metadata lives in the sidecar manifest.


def landscape_csv_text(report: LandscapeReport) -> str:
    lines = ["index,subset,basis,state,energy"]
    for rec in report.records:
        subset = "-".join(str(q) for q in rec.spec.subset)
        lines.append(f"{rec.index},{subset},{rec.spec.basis_index},{rec.spec.state_index},"
                     f"{rec.energy:.12g}")
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
        "record_count": len(report.records),
    }
    if sidecar_fields:
        fields.update(sidecar_fields)
    write_sidecar(path, fields)
