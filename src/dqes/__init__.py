"""
Discretized exhaustive search over mutually unbiased bases: exact cost
landscapes of few-qubit observables, and VQE runs initialized from the best
landscape states.

`import dqes` loads only the version. Each public name, and each submodule,
is imported the first time it is read, so a landscape-only process never
loads the VQE stack.
"""

import importlib as _importlib

from ._version import __version__

# the public names of each submodule; every submodule is public under its own name too
_EXPORTS = {
    "ansatz": ("AnsatzSpec", "compile_ansatz"),
    "landscape": ("BasisStats", "LandscapeRecord", "LandscapeReport", "basis_statistics",
                  "export_csv", "rank_initial_states", "run_full_dqes", "run_partial_dqes"),
    "manifest": ("write_output", "write_text_atomic"),
    "mub": ("MubSet", "PartialMubSpec", "build_full_mub_set", "encode_mub_set",
            "realize_partial_state", "verify_mub_set"),
    "optimize": ("OptimizationTrace", "OptimizerConfig", "TraceEntry", "descent", "lockstep",
                 "minimize"),
    "paulis": ("Observable", "PauliString", "compile_observable", "decode_observable",
               "encode_observable", "load_observable", "observable_hash", "observable_matrix"),
    "problems": ("ExactSpectrumResult", "GraphSpec", "exact_spectrum", "fixture",
                 "maxcut_hamiltonian", "random_graph", "single_qubit_xy",
                 "transverse_field_ising"),
    "states": ("StateVector", "bloch_coordinates", "random_state", "zero_state"),
    "vqe": ("FitResult", "ParameterFitInit", "RandomStateInit", "ShiftedMubInit", "VqeResult",
            "fit_parameters_to_state", "run_vqe"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    """Import the submodule behind a public name on first read, and keep the value."""
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _importlib.import_module(f"{__name__}.{_SOURCE[name]}")
    value = module if name == _SOURCE[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return [*__all__, "__version__"]
