"""
Command-line workbench around the library: certify and export MUB sets, sweep
cost landscapes to CSV/SVG, run landscape-initialized VQE, and generate
problem inputs.

Data outputs (CSV, JSON, SVG) are deterministic for a fixed seed; every
output file gets a <file>.manifest.json sidecar carrying argv, seeds, input
hashes, the output hash, and a timestamp. Each command refuses an output
path no write could create (a directory, or a path under a file) before any
work, and computes all of its outputs before it writes the first one, so a
bad path or a failed computation writes no file; it then writes each file
and its sidecar through manifest.write_output.
DQES_OUTPUT_DIR sets the directory used when --out is omitted.

Exit codes: 0 success, 1 runtime or validation failure, 2 usage error.
"""

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path

from . import problems
from ._version import __version__
from .ansatz import AnsatzSpec, compile_ansatz
from .landscape import (LandscapeReport, basis_statistics, export_csv, rank_initial_states,
                        run_full_dqes, run_partial_dqes)
from .manifest import file_sha256, sidecar_path, write_output
from .mub import MAX_MUB_QUBITS, PartialMubSpec, build_full_mub_set, encode_mub_set, verify_mub_set
from .optimize import OptimizerConfig
from .paulis import Observable, encode_observable, load_observable, observable_hash
from .states import StateVector, bloch_coordinates
from .svg import scatter_svg
from .vqe import (ParameterFitInit, RandomStateInit, ShiftedMubInit, VqeResult, run_vqe)

def _out_path(args, default: str) -> Path:
    """--out if given, else default inside DQES_OUTPUT_DIR (default: the working directory)."""
    return Path(args.out) if args.out else Path(os.environ.get("DQES_OUTPUT_DIR", ".")) / default


def _fields(args, seeds: dict, input_hashes: dict) -> dict:
    """Sidecar fields of a run: its argv, then its seeds and input hashes if it has any."""
    fields = {"argv": args.argv, "seeds": seeds, "input_sha256": input_hashes}
    return {key: value for key, value in fields.items() if value}


def _resolve_observable(args) -> tuple[Observable, str, dict]:
    """(observable, display name, input-hash fields) from --fixture or --observable."""
    if args.fixture is not None:
        obs = problems.fixture(args.fixture)
        return obs, args.fixture, {}
    obs = load_observable(args.observable)
    name = Path(args.observable).stem
    return obs, name, {str(args.observable): file_sha256(args.observable)}


def _reject_bad_outputs(args, outputs) -> None:
    """Refuse an output (flag, path) that no write can create, as it or its
    sidecar is a directory or the nearest existing parent is not one, and any
    two paths the command touches, its --observable input, each output and each
    output's sidecar, that resolve to the same file."""
    touched = {}
    if getattr(args, "observable", None):
        touched[Path(args.observable).resolve()] = ("--observable", args.observable)
    for flag, path in outputs:
        if path.is_dir():
            raise ValueError(f"{flag} {path} is a directory; give a file path")
        if sidecar_path(path).is_dir():
            raise ValueError(f"{flag} {path}: its sidecar {sidecar_path(path)} is a directory")
        parent = next(p for p in path.parents if p.exists())
        if not parent.is_dir():
            raise ValueError(f"{flag} {path}: {parent} is not a directory")
        for file in (path.resolve(), sidecar_path(path.resolve())):
            if file in touched:
                other_flag, other = touched[file]
                raise ValueError(f"{flag} {path} and {other_flag} {other} would be the same "
                                 f"file, or one the other's sidecar; give {flag} a different path")
            touched[file] = (flag, path)


# --- mub ---------------------------------------------------------------------


def cmd_mub(args) -> int:
    if args.action == "verify":
        mubs = build_full_mub_set(args.n)
        cert = verify_mub_set(mubs, tol=args.tol)
        print(f"n={cert.n}: {cert.n_bases} bases, {cert.n_bases * 2**cert.n} states")
        print(f"max orthonormality deviation: {cert.max_orthonormality_deviation:.3e}")
        print(f"max unbiasedness deviation:   {cert.max_unbiasedness_deviation:.3e}")
        print(f"{'PASS' if cert.passed else 'FAIL'} (tol {cert.tolerance:g})")
        return 0 if cert.passed else 1
    # export
    out = _out_path(args, f"mub{args.n}.json")
    _reject_bad_outputs(args, [("--out", out)])
    write_output(out, encode_mub_set(build_full_mub_set(args.n)), _fields(args, {}, {}))
    print(f"wrote {out}")
    return 0


# --- landscape -----------------------------------------------------------------


def _sweep_report(obs: Observable, name: str, full: bool, k: int | None) -> LandscapeReport:
    """The complete sweep when full, else the K-partial sweep with K = k or min(n, 3)."""
    if full:
        return run_full_dqes(obs, name=name)
    return run_partial_dqes(obs, k if k is not None else min(obs.n, MAX_MUB_QUBITS), name=name)


def cmd_landscape(args) -> int:
    obs, name, input_hashes = _resolve_observable(args)
    out = _out_path(args, "landscape.csv")
    _reject_bad_outputs(args, [("--out", out)] + ([("--plot", Path(args.plot))] if args.plot else []))
    report = _sweep_report(obs, name, args.full, args.k)
    svg = scatter_svg(report) if args.plot else None
    fields = _fields(args, {}, input_hashes)
    export_csv(report, out, sidecar_fields=fields)
    plot = write_output(args.plot, svg, fields) if args.plot else None
    print(f"observable: {name} (n={obs.n}, {len(obs.terms)} terms)")
    print(f"records: {len(report.energies)} ({report.kind} sweep, K={report.k})")
    best = report.min_record()
    print(f"min energy: {best.energy:.12g} at {best.label()} (index {best.index})")
    print(f"records within 1e-12 of the min: {report.min_ties()}")
    print(f"{'basis':>6} {'count':>6} {'min':>14} {'max':>14} {'mean':>14} {'variance':>12}")
    for st in basis_statistics(report, per_subset=args.per_subset):
        tag = f"{st.basis_index}" if st.subset is None else f"{st.basis_index}@{'-'.join(map(str, st.subset))}"
        print(f"{tag:>6} {st.count:>6} {st.min_energy:>14.8g} {st.max_energy:>14.8g} "
              f"{st.mean_energy:>14.8g} {st.variance:>12.6g}")
    print(f"wrote {out}")
    if plot:
        print(f"wrote {plot}")
    return 0


# --- vqe -----------------------------------------------------------------------


def _parse_init_atoms(text: str) -> list[tuple]:
    atoms = []
    for raw in text.split(","):
        atom = raw.strip()
        if atom.startswith("top-"):
            count = _positive_int(atom[4:], atom)
            atoms.append(("top", count))
        elif atom.startswith("random-"):
            count = _positive_int(atom[7:], atom)
            atoms.append(("random", count))
        elif atom.startswith("spec:"):
            body = atom[5:]
            subset = None
            if "@" in body:
                body, subset_text = body.split("@", 1)
                subset = tuple(_atom_int(t, atom) for t in subset_text.split("-"))
            parts = body.split(":")
            if len(parts) != 2:
                raise ValueError(f"bad init atom {atom!r}; expected spec:BASIS:STATE[@q1-q2-...]")
            basis, state = (_atom_int(t, atom) for t in parts)
            atoms.append(("spec", basis, state, subset))
        else:
            raise ValueError(
                f"bad init atom {atom!r}; expected top-K, random-K, or spec:BASIS:STATE[@subset]")
    return atoms


def _atom_int(text: str, atom: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad init atom {atom!r}: {text!r} is not an integer") from None


def _positive_int(text: str, atom: str) -> int:
    value = _atom_int(text, atom)
    if value < 1:
        raise ValueError(f"bad init atom {atom!r}: count must be >= 1")
    return value


def _build_inits(atoms, obs, name, args) -> list:
    mub_init = partial(ParameterFitInit, seed=args.seed) if args.strategy == "fit" else ShiftedMubInit
    inits = []
    report = None
    for atom in atoms:
        if atom[0] == "top":
            if report is None:
                report = _sweep_report(obs, name, False, args.k)
            if atom[1] > len(report.energies):
                raise ValueError(f"--init top-{atom[1]}: the K={report.k} sweep has "
                                 f"{len(report.energies)} records")
            for rec in rank_initial_states(report, atom[1]):
                inits.append(mub_init(spec=rec.spec))
        elif atom[0] == "random":
            inits.extend(RandomStateInit(seed=args.seed + i) for i in range(atom[1]))
        else:
            _, basis, state, subset = atom
            if subset is None:
                if obs.n > MAX_MUB_QUBITS:
                    raise ValueError(
                        f"spec:... needs an explicit @subset for n={obs.n} (register above "
                        f"{MAX_MUB_QUBITS} qubits)")
                subset = tuple(range(1, obs.n + 1))
            spec = PartialMubSpec(n=obs.n, subset=subset, basis_index=basis, state_index=state)
            inits.append(mub_init(spec=spec))
    return inits


def _run_file_names(label: str, n: int) -> tuple[str, ...]:
    """The files of one run: its trace and, on a single qubit, its Bloch path."""
    return (f"trace_{label}.csv",) + ((f"bloch_{label}.csv",) if n == 1 else ())


def _trace_csv(result: VqeResult) -> str:
    trace = result.trace
    count = len(trace.params[0])
    lines = ["eval,energy," + ",".join(f"theta_{i}" for i in range(count))]
    for index, (params, energy) in enumerate(zip(trace.params, trace.energies), 1):
        row = ",".join(f"{p:.12g}" for p in params)
        lines.append(f"{index},{energy:.12g},{row}")
    return "\n".join(lines) + "\n"


def _bloch_csv(result: VqeResult) -> str:
    # single-qubit runs only: Bloch vector of the state at each evaluation
    spec = result.ansatz
    states = compile_ansatz(spec)(result.trace.params, result.initial_state.amps)
    lines = ["eval,x,y,z"]
    for index, amps in enumerate(states, 1):
        x, y, z = bloch_coordinates(StateVector(spec.n, amps))
        lines.append(f"{index},{x:.12g},{y:.12g},{z:.12g}")
    return "\n".join(lines) + "\n"


def _energy_text(energy: float) -> str:
    """Fixed point below 1e8 in magnitude, else exponent form: no 150-digit lines."""
    return f"{energy:.8f}" if abs(energy) < 1e8 else f"{energy:.8e}"


def cmd_vqe(args) -> int:
    obs, name, input_hashes = _resolve_observable(args)
    if args.k is not None and args.k > obs.n:
        raise ValueError(f"--k {args.k}: subset size {args.k} exceeds register size {obs.n}")
    axes = args.axes
    if axes is None:
        # a Y-only single-qubit circuit cannot leave the real plane
        axes = "YZ" if obs.n == 1 else "Y"
    spec = AnsatzSpec(n=obs.n, layers=args.layers,
                      rotation_axes=("Y",) if axes == "Y" else ("Y", "Z"))
    if args.max_evals < spec.parameter_count + 2:
        # each run's first stencil needs the start and one probe per parameter
        raise ValueError(f"--max-evals {args.max_evals}: must be at least the "
                         f"{spec.parameter_count} parameters + 2 = {spec.parameter_count + 2}")
    config = OptimizerConfig(rho_init=args.rho_init, tol=args.tol,
                             max_evals=args.max_evals, threshold=args.threshold)
    inits = _build_inits(_parse_init_atoms(args.init), obs, name, args)
    labels = [init.label() for init in inits]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        # each run writes trace_<label>.csv, so a repeated label would overwrite a trace
        raise ValueError(f"duplicate start label {', '.join(repeated)} in --init {args.init!r}")
    out_dir = _out_path(args, "vqe")
    file_names = [*(f for label in labels for f in _run_file_names(label, obs.n)), "summary.json"]
    _reject_bad_outputs(args, [("--out", out_dir / f) for f in file_names])
    exact = problems.exact_spectrum(obs) if obs.n <= problems.MAX_EXACT_QUBITS else None
    results = [run_vqe(obs, spec, init, config) for init in inits]
    outputs, runs_doc = {}, []
    for result in results:
        # zip stops at the trace when the run has no Bloch path
        for file_name, render in zip(_run_file_names(result.label, obs.n),
                                     (_trace_csv, _bloch_csv)):
            outputs[file_name] = render(result)
        entry = {
            "label": result.label,
            "init": type(result.init).__name__,
            "initial_energy": result.initial_energy,
            "final_energy": result.final_energy,
            "evaluations": result.trace.evaluations,
            "termination": result.trace.termination,
        }
        if result.used_fallback:
            entry["used_fallback"] = True
        if exact is not None:
            entry["gap_to_exact"] = result.final_energy - exact.ground_energy
        runs_doc.append(entry)
        print(f"{result.label}: initial {_energy_text(result.initial_energy)} -> final "
              f"{_energy_text(result.final_energy)} in {result.trace.evaluations} evals "
              f"({result.trace.termination})")
    summary = {
        "observable": {"name": name, "n": obs.n, "sha256": observable_hash(obs)},
        "ansatz": {"layers": spec.layers, "rotation_axes": list(spec.rotation_axes),
                   "parameter_count": spec.parameter_count},
        "optimizer": {"rho_init": config.rho_init, "tol": config.tol,
                      "max_evals": config.max_evals, "threshold": config.threshold},
        "strategy": args.strategy,
        "runs": runs_doc,
    }
    if exact is not None:
        summary["exact_ground_energy"] = exact.ground_energy
        print(f"exact ground energy: {_energy_text(exact.ground_energy)}")
    outputs["summary.json"] = json.dumps(summary, indent=2) + "\n"
    fields = _fields(args, {"seed": args.seed}, input_hashes)
    for file_name, text in outputs.items():
        write_output(out_dir / file_name, text, fields)
    print(f"wrote {out_dir}")
    return 0


# --- problem -----------------------------------------------------------------


def cmd_problem(args) -> int:
    seeds = {"seed": args.seed} if getattr(args, "seed", None) is not None else {}
    fields = _fields(args, seeds, {})
    if args.kind == "maxcut":
        problems.check_maxcut_nodes(args.nodes)
        graph = problems.random_graph(args.nodes, args.edge_prob, args.seed)
        prefix = _out_path(args, f"maxcut{args.nodes}")
        texts = {Path(f"{prefix}.graph.txt"): problems.encode_graph(graph),
                 Path(f"{prefix}.json"): encode_observable(problems.maxcut_hamiltonian(graph))}
        _reject_bad_outputs(args, [("--out", path) for path in texts])
        for path, text in texts.items():
            write_output(path, text, fields)
        print(f"graph: {graph.node_count} nodes, {len(graph.edges)} edges "
              f"(seed {args.seed}, edge prob {args.edge_prob})")
        for path in texts:
            print(f"wrote {path}")
        return 0
    if args.kind == "ising":
        obs = problems.transverse_field_ising(args.n, args.czz, args.cx)
        out = _out_path(args, f"ising{args.n}.json")
    else:  # fixture
        obs = problems.fixture(args.name)
        out = _out_path(args, f"{args.name}.json")
    _reject_bad_outputs(args, [("--out", out)])
    write_output(out, encode_observable(obs), fields)
    print(f"observable: n={obs.n}, {len(obs.terms)} terms")
    print(f"wrote {out}")
    return 0


# --- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    k_choices = tuple(range(1, MAX_MUB_QUBITS + 1))
    parser = argparse.ArgumentParser(
        prog="dqes",
        description="Exhaustive MUB-state cost sweeps and landscape-initialized VQE.")
    parser.add_argument("--version", action="version", version=f"dqes {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    mub = sub.add_parser("mub",
                         help=f"certify or export the full MUB sets (n <= {MAX_MUB_QUBITS})")
    mub_sub = mub.add_subparsers(dest="action", required=True)
    verify = mub_sub.add_parser("verify", help="check orthonormality and unbiasedness")
    verify.add_argument("n", type=int, choices=k_choices)
    verify.add_argument("--tol", type=float, default=1e-10)
    export = mub_sub.add_parser("export", help="write the bases as JSON amplitude pairs")
    export.add_argument("n", type=int, choices=k_choices)
    export.add_argument("--out", default=None)
    mub.set_defaults(func=cmd_mub)

    landscape = sub.add_parser("landscape", help="sweep every discretized state, write CSV")
    _add_observable_args(landscape)
    mode = landscape.add_mutually_exclusive_group(required=True)
    mode.add_argument("--full", action="store_true",
                      help=f"complete MUB sweep (n <= {MAX_MUB_QUBITS})")
    mode.add_argument("--k", type=int, choices=k_choices, default=None,
                      help="partial sweep with K-qubit MUB states")
    landscape.add_argument("--out", default=None, help="records CSV path")
    landscape.add_argument("--plot", default=None, help="also write an SVG scatter here")
    landscape.add_argument("--per-subset", action="store_true",
                           help="basis statistics per qubit subset instead of aggregated")
    landscape.set_defaults(func=cmd_landscape)

    vqe = sub.add_parser("vqe", help="run VQE from landscape-ranked or random starts")
    _add_observable_args(vqe)
    vqe.add_argument("--init", required=True,
                     help="comma list of top-K, random-K, spec:BASIS:STATE[@q1-q2-...]")
    vqe.add_argument("--k", type=int, choices=k_choices, default=None,
                     help="K of the partial sweep that ranks the top starts "
                          f"(default min(n, {MAX_MUB_QUBITS}))")
    vqe.add_argument("--layers", type=int, default=1)
    vqe.add_argument("--axes", choices=("Y", "YZ"), default=None,
                     help="rotation axes (default Y; YZ for single-qubit registers)")
    vqe.add_argument("--strategy", choices=("shift", "fit"), default="shift",
                     help="realize MUB starts by state shift or by parameter fit")
    vqe.add_argument("--seed", type=int, default=0)
    vqe.add_argument("--out", default=None, help="output directory")
    vqe.add_argument("--rho-init", type=float, default=0.5)
    vqe.add_argument("--tol", type=float, default=1e-6)
    vqe.add_argument("--max-evals", type=int, default=500)
    vqe.add_argument("--threshold", type=float, default=None)
    vqe.set_defaults(func=cmd_vqe)

    problem = sub.add_parser("problem", help="generate problem inputs")
    problem_sub = problem.add_subparsers(dest="problem_action", required=True)
    gen = problem_sub.add_parser("gen", help="write a graph/observable pair or a fixture")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    maxcut = gen_sub.add_parser("maxcut", help="random graph plus its Max-Cut observable")
    maxcut.add_argument("--nodes", type=int, required=True)
    maxcut.add_argument("--edge-prob", type=float, default=0.5)
    maxcut.add_argument("--seed", type=int, default=0)
    maxcut.add_argument("--out", default=None, help="output path prefix")
    ising = gen_sub.add_parser("ising", help="transverse-field Ising chain observable")
    ising.add_argument("--n", type=int, required=True)
    ising.add_argument("--czz", type=float, required=True)
    ising.add_argument("--cx", type=float, required=True)
    ising.add_argument("--out", default=None)
    fixture = gen_sub.add_parser("fixture", help="write a built-in fixture observable")
    fixture.add_argument("name")
    fixture.add_argument("--out", default=None)
    problem.set_defaults(func=cmd_problem)

    return parser


def _add_observable_args(parser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--fixture", default=None,
                        help=f"built-in observable: {', '.join(sorted(problems.FIXTURES))}")
    source.add_argument("--observable", default=None, help="observable JSON file")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = ["dqes", *argv]
    try:
        if getattr(args, "seed", 0) < 0:
            # a run that never draws from the seed (vqe --init top-1 with the shift
            # strategy) would otherwise write the negative seed into every sidecar
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
