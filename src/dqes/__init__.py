"""
Discretized exhaustive search over mutually unbiased bases: exact cost
landscapes of few-qubit observables, and VQE runs initialized from the best
landscape states.
"""

from ._version import __version__
from .ansatz import AnsatzSpec, compile_ansatz, prepare_state
from .landscape import (BasisStats, LandscapeRecord, LandscapeReport, basis_statistics,
                        export_csv, rank_initial_states, run_full_dqes, run_partial_dqes)
from .manifest import RunManifest, write_output, write_sidecar, write_text_atomic
from .mub import (MubCertification, MubSet, PartialMubSpec, build_full_mub_set,
                  encode_mub_set, realize_partial_state, verify_mub_set)
from .optimize import OptimizationTrace, OptimizerConfig, TraceEntry, descent, lockstep, minimize
from .paulis import (Observable, PauliString, compile_observable, decode_observable,
                     encode_observable, expectation_exact, load_observable, observable_hash,
                     observable_matrix)
from .problems import (ExactSpectrumResult, GraphSpec, cut_value, exact_spectrum, fixture,
                       max_cut_brute_force, maxcut_hamiltonian, molecule_fixture,
                       random_graph, single_qubit_xy, transverse_field_ising)
from .states import StateVector, basis_state, bloch_coordinates, random_state, zero_state
from .vqe import (FitResult, ParameterFitInit, RandomStateInit, ShiftedMubInit, VqeResult,
                  fit_parameters_to_state, run_vqe, vqe_cost)

__all__ = [name for name in dir() if not name.startswith("_")]
