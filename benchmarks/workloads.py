"""
The benchmark's workloads. Each one writes its input observable from a seed,
runs units of work through dqes's public API with every default left in
place, and checks each unit against the computations in reference.py or
against properties the method must have.

A workload's set-up (load the input file, build the MUB sets it needs from a
cold cache) is a class method, so that a fresh interpreter can run exactly
that and nothing else when the set-up time is measured.
"""

import itertools
import json
from math import comb
from pathlib import Path

import numpy as np

import dqes
import reference


class CheckFailed(Exception):
    """An output of dqes disagrees with the independent computation."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def write_observable(path: Path, n: int, terms) -> None:
    """The documented observable file: {"n": N, "terms": [{"coeff", "pauli"}, ...]}."""
    doc = {"n": n, "terms": [{"coeff": c, "pauli": p} for c, p in terms]}
    path.write_text(json.dumps(doc, indent=2) + "\n")


def pauli_letters(n: int, letters_by_qubit: dict) -> str:
    """An n-letter Pauli string from {0-based qubit: letter}, identity elsewhere."""
    return "".join(letters_by_qubit.get(q, "I") for q in range(n))


def record_bits(spec) -> str:
    """Bitstring of the basis state a basis-0 record scored: state index bits
    on the subset qubits (first subset qubit most significant), 0 elsewhere."""
    bits = ["0"] * spec.n
    for pos, qubit in enumerate(spec.subset):
        bits[qubit - 1] = format(spec.state_index, f"0{len(spec.subset)}b")[pos]
    return "".join(bits)


def min_ties(records) -> int:
    """Records within 1e-12 of the lowest energy."""
    lowest = min(r.energy for r in records)
    return sum(1 for r in records if r.energy - lowest <= 1e-12)


class Workload:
    name = ""
    mub_sizes: tuple[int, ...] = ()

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.n, self.terms = self.make_terms(seed)
        self.input_path = out_dir / f"{self.name}.json"
        write_observable(self.input_path, self.n, self.terms)
        self.first = None  # what the first unit produced; every later unit must repeat it
        self.kept = None   # the first unit's outputs, for the dense checks after the run

    @classmethod
    def setup(cls, input_path):
        """Load the input and build the MUB sets the unit needs."""
        obs = dqes.load_observable(input_path)
        mubs = {k: dqes.build_full_mub_set(k) for k in cls.mub_sizes}
        return obs, mubs

    def start(self) -> None:
        self.obs, self.mubs = self.setup(self.input_path)

    def make_terms(self, seed: int) -> tuple[int, list]:
        """(register size, [(coeff, Pauli letters), ...]) of the input observable."""
        raise NotImplementedError

    def check_records(self, report, expected: int) -> None:
        records = report.records
        check(len(records) == expected, f"{len(records)} records, expected {expected}")
        for rec in records:
            if rec.spec.basis_index == 0:
                want = reference.diagonal_energy(self.terms, record_bits(rec.spec))
                check(abs(rec.energy - want) <= 1e-12,
                      f"record {rec.index} ({rec.label()}) has energy {rec.energy!r}, "
                      f"its basis state has {want!r}")

    def check_vqe(self, report, results) -> None:
        """Properties every run has, and exact agreement with the first unit."""
        for res in results:
            first_eval = res.trace.entries[0].energy
            check(res.final_energy <= first_eval,
                  f"{res.label}: final {res.final_energy!r} above evaluation 1 {first_eval!r}")
        finals = tuple(r.final_energy for r in results)
        if self.first is None:
            self.first = finals
            self.kept = report, results
        check(finals == self.first, f"final energies {finals} differ from the first unit's {self.first}")

    def run_unit(self):
        raise NotImplementedError

    def check_unit(self, outputs) -> tuple[int, dict]:
        """(cost evaluations the outputs report, per-unit counts); raises CheckFailed."""
        raise NotImplementedError

    def check_dense(self) -> None:
        """Checks that allocate dense matrices; run once the memory peak is read."""


class SweepK3(Workload):
    name = "sweep_k3"
    mub_sizes = (3,)
    N = 10
    K = 3
    C_ZZ, C_X = 0.61436456, 0.32435029  # the paper's strong-coupling chain, ISING_STRONG_ZZ
    SAMPLE = 64

    def make_terms(self, seed):
        """Open chain c_zz Z_i Z_i+1 + c_x X_i; the seed places chain sites on
        qubits and orders the terms in the file."""
        rng = np.random.default_rng([seed, 1])
        site = rng.permutation(self.N)
        terms = [(self.C_ZZ, pauli_letters(self.N, {site[i]: "Z", site[i + 1]: "Z"}))
                 for i in range(self.N - 1)]
        terms += [(self.C_X, pauli_letters(self.N, {q: "X"})) for q in range(self.N)]
        return self.N, [terms[i] for i in rng.permutation(len(terms))]

    def start(self):
        super().start()
        self.csv_path = self.out_dir / "landscape.csv"

    def run_unit(self):
        report = dqes.run_partial_dqes(self.obs, self.K)
        top = dqes.rank_initial_states(report, 3)
        stats = dqes.basis_statistics(report)
        dqes.export_csv(report, self.csv_path)
        return report, top, stats

    def check_unit(self, outputs):
        report, top, stats = outputs
        records = report.records
        self.check_records(report, comb(self.N, self.K) * (2**self.K + 1) * 2**self.K)
        energies = [r.energy for r in records]
        check([r.energy for r in top] == sorted(energies)[:3], "ranking is not the 3 lowest energies")
        for st in stats:
            group = [r.energy for r in records if r.spec.basis_index == st.basis_index]
            check(st.count == len(group) and st.min_energy == min(group)
                  and st.max_energy == max(group)
                  and abs(st.mean_energy - sum(group) / len(group)) <= 1e-12,
                  f"basis {st.basis_index} statistics disagree with its records")
        csv = self.csv_path.read_bytes()
        check(csv.startswith(b"index,subset,basis,state,energy\n")
              and csv.count(b"\n") == len(records) + 1, "CSV does not hold one line per record")
        if self.first is None:
            self.first = csv
            self.kept = report
        check(csv == self.first, "CSV differs from the first unit's")
        counts = {"landscape.records": len(records), "landscape.min_ties": min_ties(records),
                  "landscape.export_csv.bytes": len(csv)}
        return len(records), counts

    def check_dense(self):
        records = self.kept.records
        h = reference.dense_hamiltonian(self.N, self.terms)
        spectrum = np.linalg.eigvalsh(h)
        lo, hi = spectrum[0] - 1e-9, spectrum[-1] + 1e-9
        outside = [r.index for r in records if not lo <= r.energy <= hi]
        check(not outside, f"records {outside[:5]} lie outside the spectrum [{lo}, {hi}]")
        bases = self.mubs[self.K].bases
        check(reference.mub_deviation(bases) < 1e-10, "K=3 MUB set is not mutually unbiased")
        rng = np.random.default_rng([self.seed, 2])
        for i in sorted(rng.choice(len(records), size=self.SAMPLE, replace=False)):
            rec = records[i]
            psi = reference.embed(bases[rec.spec.basis_index][:, rec.spec.state_index],
                                  rec.spec.subset, self.N)
            want = float(np.vdot(psi, h @ psi).real)
            check(abs(rec.energy - want) <= 1e-10,
                  f"record {rec.index} has energy {rec.energy!r}, dense matrix gives {want!r}")


class VqeMultistart(Workload):
    name = "vqe_multistart"
    mub_sizes = (2,)
    NODES = 8
    EDGES = 14  # a fixed edge count keeps the work per unit the same on every seed
    K = 2

    def make_terms(self, seed):
        """Z_u Z_v per edge of a graph with EDGES edges drawn from the seed."""
        rng = np.random.default_rng([seed, 1])
        pairs = list(itertools.combinations(range(self.NODES), 2))
        self.edges = sorted(pairs[i] for i in rng.choice(len(pairs), self.EDGES, replace=False))
        self.random_seeds = [int(s) for s in rng.integers(0, 2**31, size=2)]
        self.floor = len(self.edges) - 2 * reference.max_cut(self.NODES, self.edges)
        terms = [(1.0, pauli_letters(self.NODES, {u: "Z", v: "Z"})) for u, v in self.edges]
        return self.NODES, [terms[i] for i in rng.permutation(len(terms))]

    def run_unit(self):
        report = dqes.run_partial_dqes(self.obs, self.K)
        top = dqes.rank_initial_states(report, 2)
        spec = dqes.AnsatzSpec(n=self.NODES)
        inits = ([dqes.ShiftedMubInit(spec=r.spec) for r in top]
                 + [dqes.RandomStateInit(seed=s) for s in self.random_seeds])
        results = [dqes.run_vqe(self.obs, spec, init) for init in inits]
        exact = dqes.exact_spectrum(self.obs)
        return report, top, results, exact

    def check_unit(self, outputs):
        report, top, results, exact = outputs
        self.check_records(report, comb(self.NODES, self.K) * (2**self.K + 1) * 2**self.K)
        check(abs(exact.ground_energy - self.floor) <= 1e-9,
              f"exact ground energy {exact.ground_energy!r}, |E| - 2 maxcut = {self.floor}")
        for res in results:
            check(res.final_energy >= self.floor - 1e-9,
                  f"{res.label}: final {res.final_energy!r} below |E| - 2 maxcut = {self.floor}")
        for rec, res in zip(top, results):
            check(res.trace.entries[0].energy == rec.energy,
                  f"{res.label}: evaluation 1 {res.trace.entries[0].energy!r} is not its "
                  f"landscape energy {rec.energy!r}")
        self.check_vqe(report, results)
        counts = {"landscape.records": len(report.records),
                  "landscape.min_ties": min_ties(report.records),
                  "vqe.known_first_evals": len(top), "vqe.fit.fallbacks": 0}
        return len(report.records) + sum(r.trace.evaluations for r in results), counts


class FitH2(Workload):
    name = "fit_h2"
    mub_sizes = (2,)
    # H2 at 0.75 Angstrom, two-qubit tapered, coefficients in Hartree (the paper's example)
    TERMS = ((-1.05540303, "II"), (0.38874759, "IZ"), (-0.38874759, "ZI"),
             (-0.01117714, "ZZ"), (0.18177154, "XX"))

    def make_terms(self, seed):
        """The fixed H2 terms; the seed only orders them in the file."""
        rng = np.random.default_rng([seed, 1])
        return 2, [self.TERMS[i] for i in rng.permutation(len(self.TERMS))]

    def run_unit(self):
        report = dqes.run_full_dqes(self.obs)
        top = dqes.rank_initial_states(report, 3)
        spec = dqes.AnsatzSpec(n=2)
        results = [dqes.run_vqe(self.obs, spec, dqes.ParameterFitInit(spec=r.spec)) for r in top]
        return report, top, results

    def check_unit(self, outputs):
        report, top, results = outputs
        self.check_records(report, (2**2 + 1) * 2**2)
        known = 0
        for rec, res in zip(top, results):
            first_eval = res.trace.entries[0].energy
            reproduces = abs(first_eval - rec.energy) <= 1e-6
            check(res.used_fallback or reproduces,
                  f"{res.label}: reachable fit starts at {first_eval!r}, "
                  f"its landscape energy is {rec.energy!r}")
            known += reproduces
        self.check_vqe(report, results)
        counts = {"landscape.records": len(report.records),
                  "landscape.min_ties": min_ties(report.records),
                  "vqe.known_first_evals": known,
                  "vqe.fit.fallbacks": sum(1 for r in results if r.used_fallback)}
        return len(report.records) + sum(r.trace.evaluations for r in results), counts

    def check_dense(self):
        report, results = self.kept
        spectrum = np.linalg.eigvalsh(reference.dense_hamiltonian(2, self.terms))
        ground = spectrum[0]
        for res in results:
            check(abs(res.final_energy - ground) <= 1.6e-3,
                  f"{res.label}: final {res.final_energy!r} is not within 1.6e-3 of {ground!r}")
        check(all(spectrum[0] - 1e-9 <= r.energy <= spectrum[-1] + 1e-9 for r in report.records),
              "a record lies outside the spectrum")
        check(reference.mub_deviation(self.mubs[2].bases) < 1e-10,
              "2-qubit MUB set is not mutually unbiased")


WORKLOADS = {w.name: w for w in (SweepK3, VqeMultistart, FitH2)}
