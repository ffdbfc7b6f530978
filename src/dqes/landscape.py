"""
Exhaustive cost evaluation over discretized state sets.

A full sweep scores every state of the complete MUB set (n <= MAX_MUB_QUBITS).
A partial sweep scores every K-qubit MUB state tensored with |0> on the
remaining qubits, over all K-subsets, which scales to larger registers; the
full sweep is its K = n case. Neither builds a 2^n state vector: each
non-identity K-qubit Pauli lies in one commuting class of build_full_mub_set(K),
so on a subset a term is +-1 on the states of that class's basis and 0 on the
rest, and the sweep adds it to that one basis. The dense table of every Pauli
on every state is the tests' oracle (tests/test_landscape.py). Records are
produced in a fixed enumeration order (subset lex, then basis, then state), so
reports and their CSV exports are deterministic.

A report stores a sweep as columns: the K-subsets as one int array and the
energies as one float64 array in enumeration order. Readers work on the
columns; a LandscapeRecord is built only for a record a caller asks for.
"""

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .manifest import write_output
from .mub import MAX_MUB_QUBITS, PartialMubSpec, _check_sweep_size, build_full_mub_set
from .paulis import Observable, _pauli_action, observable_hash


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


# --- class-sign kernel --------------------------------------------------------
#
# A non-identity K-qubit Pauli is exactly 0 on every basis but the one of its
# class, since the bases are mutually unbiased. Skipping those zeros keeps
# every bit: energies start at +0.0 and x + +-0.0 == x. Local column
# (x << K) | z names the Pauli with K-qubit symplectic masks x and z.


@cache
def _class_signs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(basis, signs) by local column: basis[c] is the basis whose class holds the
    Pauli of column c, and signs[c] its +-1 values on that basis's 2^K states.
    Column 0, the identity, is in no class and its row is unused.

    Raises ValueError naming the Pauli unless each value lies within 1e-9 of +-1.
    """
    mubs = build_full_mub_set(k)
    basis = np.zeros(4**k, dtype=np.intp)
    signs = np.zeros((4**k, 2**k))
    for b, (cls, states) in enumerate(zip(mubs.classes, mubs.bases)):
        for pauli in cls:
            src, phase = _pauli_action(2**k, pauli.x_mask, pauli.z_mask)
            values = np.sum(states.conj() * phase[:, None] * states[src], axis=0)
            sign = np.where(values.real < 0, -1.0, 1.0)
            worst = float(np.max(np.abs(values - sign)))
            if worst > 1e-9:
                raise ValueError(f"Pauli {pauli.letters} lies {worst:.3e} from +-1 on a state "
                                 f"of basis {b}, the basis of its class")
            column = (pauli.x_mask << k) | pauli.z_mask
            basis[column], signs[column] = b, sign
    basis.flags.writeable = signs.flags.writeable = False
    return basis, signs


def _subset_energies(obs: Observable, subsets: np.ndarray) -> np.ndarray:
    """Energies of every MUB state on every subset, shape (subsets, 2^K + 1, 2^K).

    On a subset a term whose letters there are all I adds its coefficient to
    every state, one with an X or Y off the subset adds 0 (its qubits there are
    |0>), and any other adds coefficient times its signs to the one basis of
    its class; Z letters off the subset give +1. Terms are added one at a time
    in canonical order with elementwise arithmetic, so one state's energy comes
    out bit for bit the same whatever else is scored with it. Qubit q sits on
    bit n - q of a term's masks; subset position p becomes local bit K - 1 - p,
    as in the K-letter string of the subset's letters.
    """
    k = subsets.shape[1]
    basis, signs = _class_signs(k)
    shifts = obs.n - subsets  # (subsets, K): bit of each subset qubit
    on_subset = np.bitwise_or.reduce(np.int64(1) << shifts, axis=1)
    local_bits = np.int64(1) << np.arange(k - 1, -1, -1, dtype=np.int64)
    energies = np.zeros((len(subsets), 2**k + 1, 2**k))
    for coeff, pauli in obs.terms:
        x = ((np.int64(pauli.x_mask) >> shifts) & 1) @ local_bits
        z = ((np.int64(pauli.z_mask) >> shifts) & 1) @ local_bits
        kept = (np.int64(pauli.x_mask) & ~on_subset) == 0  # no X or Y off the subset
        column = (x << k) | z
        energies[kept & (column == 0)] += coeff
        rows = np.flatnonzero(kept & (column != 0))
        energies[rows, basis[column[rows]]] += coeff * signs[column[rows]]
    return energies


def score_spec(obs: Observable, spec: PartialMubSpec) -> float:
    """The energy a sweep gives spec's state, by its kernel."""
    if obs.n != spec.n:
        raise ValueError(f"observable is on {obs.n} qubits but spec is on {spec.n}")
    energies = _subset_energies(obs, np.array([spec.subset], dtype=np.int64))
    return float(energies[0, spec.basis_index, spec.state_index])


def _sweep(obs: Observable, k: int, kind: str, name: str) -> LandscapeReport:
    """Every K-qubit MUB state on every K-subset; K = n is the full sweep."""
    _check_sweep_size(obs.n, k)
    subsets = np.array(list(itertools.combinations(range(1, obs.n + 1), k)),
                       dtype=np.int64)
    return LandscapeReport(
        observable_name=name,
        observable_hash=observable_hash(obs),
        n=obs.n,
        k=k,
        kind=kind,
        subsets=subsets,
        energies=_subset_energies(obs, subsets).ravel(),
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
    are folded strictly left to right, in enumeration order, by
    np.add.accumulate, so the figures depend neither on numpy's pairwise
    summation nor on the Python version.
    """
    if not len(report.energies):
        raise ValueError("report has no records")
    bases = 2**report.k + 1
    groups = report.energies.reshape(len(report.subsets), bases, -1).transpose(1, 0, 2)
    if per_subset:
        subsets = [tuple(subset) for subset in report.subsets.tolist()]
    else:
        groups, subsets = groups.reshape(bases, 1, -1), [None]
    count = groups.shape[-1]
    means = np.add.accumulate(groups, axis=-1)[..., -1] / count
    variances = np.add.accumulate((groups - means[..., None]) ** 2, axis=-1)[..., -1] / count
    figures = zip(groups.min(axis=-1).ravel().tolist(), groups.max(axis=-1).ravel().tolist(),
                  means.ravel().tolist(), variances.ravel().tolist())
    return [BasisStats(basis, subset, count, *figure)
            for (basis, subset), figure in zip(itertools.product(range(bases), subsets), figures)]


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


def _csv_chunks(report: LandscapeReport) -> Iterator[str]:
    """The records CSV as chunks: the header, then one string per subset
    holding that subset's (2^K + 1) * 2^K lines.

    Each distinct energy is formatted once. Energies are told apart by their
    float64 bits, not their values: -0.0 == 0.0, but they print as -0 and 0.
    """
    yield "index,subset,basis,state,energy\n"
    bits, which = np.unique(report.energies.view(np.int64), return_inverse=True)
    texts = [f"{energy:.12g}" for energy in bits.view(np.float64).tolist()]
    tails = [f"{b},{s}," for b in range(2**report.k + 1) for s in range(2**report.k)]
    start = 0
    for subset in report.subsets.tolist():
        head = "-".join(map(str, subset))
        stop = start + len(tails)
        yield "".join([f"{index},{head},{tail}{texts[w]}\n" for index, tail, w
                       in zip(range(start, stop), tails, which[start:stop].tolist())])
        start = stop


def export_csv(report: LandscapeReport, path, sidecar_fields: dict | None = None) -> None:
    """Write the records CSV and its <path>.manifest.json sidecar.

    The CSV streams to disk one subset at a time, so memory does not grow with
    the size of its text; like every output it goes through write_output.
    """
    write_output(path, _csv_chunks(report), {
        "observable_name": report.observable_name,
        "observable_sha256": report.observable_hash,
        "n": report.n,
        "k": report.k,
        "kind": report.kind,
        "record_count": len(report.energies),
        **(sidecar_fields or {}),
    })
