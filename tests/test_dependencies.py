"""The package imports nothing at run time beyond the standard library and
numpy, and writes its outputs through one function."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dqes

ALLOWED = {"numpy", "dqes"}


def absolute_imports(path: Path) -> set[str]:
    """Top-level names of the absolute imports in a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def package_imports(path: Path) -> set[str]:
    """The dqes modules a module imports from, relatively or by absolute name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("dqes")):
            module = (node.module or "").removeprefix("dqes").strip(".")
            names.update([module.split(".")[0]] if module else (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names if a.name.startswith("dqes."))
    return names


def calls_by_function(path: Path) -> list[tuple[str | None, str]]:
    """(innermost enclosing function or None, called name) for each call in a module."""
    calls = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                calls.append((owner, func.attr if isinstance(func, ast.Attribute)
                              else getattr(func, "id", None)))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else owner)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return calls


MODULES = sorted(Path(dqes.__file__).parent.glob("*.py"))


def test_runtime_imports_are_stdlib_or_numpy():
    assert len(MODULES) > 10
    found = set().union(*(absolute_imports(path) for path in MODULES))
    assert "numpy" in found
    assert found - set(sys.stdlib_module_names) <= ALLOWED


def test_the_guard_sees_a_third_party_import(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("import os\nfrom scipy.linalg import eigh\nfrom . import paulis\n")
    assert absolute_imports(module) == {"os", "scipy"}


def test_the_mub_partition_reads_no_pauli_letters():
    # classes sort by an integer key on the GF(2) masks, not by PauliString letters
    mub_module = next(path for path in MODULES if path.stem == "mub")
    assert "paulis" not in package_imports(mub_module)
    assert "states" in package_imports(mub_module)


def test_the_guard_sees_every_form_of_package_import(tmp_path):
    module = tmp_path / "probe.py"
    for line in ("from .paulis import PauliString", "from . import paulis",
                 "from dqes.paulis import PauliString", "import dqes.paulis"):
        module.write_text(f"import numpy\n{line}\n")
        assert package_imports(module) == {"paulis"}


def test_sidecars_and_directories_are_made_only_by_write_output():
    # every output and its sidecar go through the one atomic writer, from here
    callers = {"write_text_atomic": set(), "mkdir": set()}
    for path in MODULES:
        for owner, name in calls_by_function(path):
            if name in callers:
                callers[name].add(f"{path.stem}.{owner}")
    assert callers == {"write_text_atomic": {"manifest.write_output"},
                       "mkdir": {"manifest.write_output"}}


FILE_OPENERS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def test_files_are_opened_only_by_the_writer_and_the_observable_reader():
    # each hashes the bytes it moves, so no file is read a second time to hash it
    callers = {f"{path.stem}.{owner}" for path in MODULES
               for owner, name in calls_by_function(path) if name in FILE_OPENERS}
    assert callers == {"manifest.write_text_atomic", "paulis.read_observable"}


def test_only_dqes_mub_builds_the_dense_mub_set():
    # sweeps and VQE starts read signs and columns from the class generators
    callers = {f"{path.stem}.{owner}" for path in MODULES
               for owner, name in calls_by_function(path) if name == "build_full_mub_set"}
    assert callers == {"cli.cmd_mub"}


def test_only_the_x_mask_form_reads_pauli_actions():
    # the kernel, the dense matrix and the diagonal spectrum read one decomposition
    callers = {f"{path.stem}.{owner}" for path in MODULES
               for owner, name in calls_by_function(path) if name == "_pauli_action"}
    assert callers == {"paulis._x_mask_form"}


def test_the_guard_sees_calls_in_nested_functions(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("def outer():\n    def inner():\n        out.parent.mkdir()\n"
                      "    write_text_atomic(p, '')\n\nPath('.').mkdir()\n")
    calls = calls_by_function(module)
    assert ("inner", "mkdir") in calls and ("outer", "write_text_atomic") in calls
    assert (None, "mkdir") in calls


# The gate-by-gate reference lives in tests/reference_path.py, and the code
# nothing ran is gone: the graph-file reader, the writers that skip the
# sidecar, the duplicate views, the wrappers around what the circuit, the
# CLI and the fixture table do themselves, and the brute-force Max-Cut and
# the Pauli letter rules, now in tests/dense_oracle.py, and the one-state
# wrappers prepare_state and expectation_exact, now in tests/reference_path.py,
# and the stabilizer projection that built the MUB columns, now the
# joint_eigenbasis oracle in tests/dense_oracle.py, and the Pauli string from
# its masks, now from_masks there too, and the fields no command read: the
# fit's fidelity and the exact spectrum's ground state, and the diagonal the
# spectrum summed itself, now the x = 0 group of paulis._x_mask_form, and
# the sidecar writer and file hash that read each output back from disk, now
# write_output with the hash write_text_atomic takes as it writes, and the
# file_sha256 oracle in tests/test_manifest.py, and the streak count after
# which the descent asked for the next stencil ahead with its line search, a
# second schedule that stopped paying once Ry became real at n = 2, and the
# wrappers with one caller each: the VQE cost run_vqe composes itself, the
# basis state zero_state builds itself, now basis_state in
# tests/reference_path.py, and the certificate whose verdict dqes mub verify
# judges against its own --tol, and the first of two passes over dqes vqe's
# --init list: the atom parser and its count check, now one _build_inits that
# reads each atom as it goes, and the sweep helper each command now calls
# itself; and the scale below which the diagonal ground energy was left to eigh.
# A definition of any of these names under src/dqes brings a second path, or an
# unused one, back into the package.
REFERENCE_ONLY = {"Gate", "apply_gate", "build_ansatz", "pauli_apply", "expectation_sampled",
                  "shift_mub_set", "enumerate_partial_specs", "decode_graph", "load_graph",
                  "save_graph", "save_observable", "landscape_csv_text", "best_entry",
                  "final_state", "as_parameter_rows", "as_parameter_vector", "RunManifest",
                  "molecule_fixture", "cut_value", "max_cut_brute_force", "commutes_with",
                  "is_identity", "weight", "prepare_state", "expectation_exact",
                  "_joint_eigenbasis", "from_masks", "fidelity", "ground_state", "_diagonal",
                  "write_sidecar", "file_sha256", "_STREAK", "vqe_cost", "basis_state",
                  "MubCertification", "_parse_init_atoms", "_positive_int", "_sweep_report",
                  "_EIGH_UNSCALED_MIN"}


def defined_names(path: Path) -> set[str]:
    """Names a module binds by def, class or assignment, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def test_the_reference_path_is_not_in_the_package():
    found = {f"{path.stem}.{name}" for path in MODULES
             for name in defined_names(path) & REFERENCE_ONLY}
    assert found == set()
    assert all(hasattr(dqes, name) for name in dqes.__all__)


def test_the_guard_sees_every_kind_of_definition(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("class Gate:\n    pass\n\ndef outer():\n    def apply_gate():\n"
                      "        pass\n\npauli_apply = None\n")
    assert defined_names(module) >= {"Gate", "outer", "apply_gate", "pauli_apply"}


SUBMODULES = ("ansatz", "landscape", "manifest", "mub", "optimize", "paulis", "problems", "states",
              "vqe")
VQE_STACK = {"dqes.ansatz", "dqes.optimize", "dqes.vqe", "dqes.problems"}


def child_json(code: str):
    """The JSON a fresh interpreter prints after running code with this checkout's dqes."""
    src = str(Path(dqes.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out)


def modules_loaded_by(code: str) -> set[str]:
    """The dqes modules a fresh interpreter holds after running code."""
    return set(child_json(f"import json, sys\n{code}\nprint(json.dumps(sorted("
                          "m for m in sys.modules if m.split('.')[0] == 'dqes')))"))


def test_importing_the_package_loads_only_its_version():
    assert modules_loaded_by("import dqes") == {"dqes", "dqes._version"}


@pytest.fixture
def observable_file(tmp_path):
    path = tmp_path / "obs.json"
    path.write_text(json.dumps({"n": 3, "terms": [{"coeff": 0.5, "pauli": "ZZI"},
                                                  {"coeff": -1.0, "pauli": "IXI"}]}))
    return path


def test_loading_an_observable_and_a_mub_set_loads_no_sweep_or_vqe(observable_file):
    loaded = modules_loaded_by(f"import dqes\nobs = dqes.load_observable({str(observable_file)!r})"
                               "\ndqes.build_full_mub_set(2)")
    assert {"dqes.paulis", "dqes.mub"} <= loaded
    assert not loaded & (VQE_STACK | {"dqes.landscape"})


def test_a_partial_sweep_and_its_csv_load_no_vqe(observable_file, tmp_path):
    loaded = modules_loaded_by(
        f"import dqes\nobs = dqes.load_observable({str(observable_file)!r})\n"
        f"dqes.export_csv(dqes.run_partial_dqes(obs, 2), {str(tmp_path / 'l.csv')!r})")
    assert {"dqes.landscape", "dqes.manifest"} <= loaded
    assert not loaded & VQE_STACK
    assert (tmp_path / "l.csv").is_file()


def test_every_public_name_and_submodule_resolves_in_a_fresh_process():
    found = child_json(
        "import json, sys\nimport dqes\n"
        f"same = [getattr(dqes, m) is sys.modules['dqes.' + m] for m in {SUBMODULES!r}]\n"
        "names = {}\nexec('from dqes import *', names)\n"
        "print(json.dumps([same, dqes.__all__, sorted(set(names) - {'__builtins__'})]))")
    same, names, star = found
    assert same == [True] * len(SUBMODULES)
    assert len(names) == 60 and names == sorted(names) and set(SUBMODULES) <= set(names)
    assert star == names


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        dqes.no_such_name
    assert not hasattr(dqes, "no_such_name")
    assert set(dqes.__all__) <= set(dir(dqes))
