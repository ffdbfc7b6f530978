"""The package imports nothing at run time beyond the standard library and
numpy, and writes its outputs through one function."""

import ast
import sys
from pathlib import Path

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
    callers = {"write_sidecar": set(), "mkdir": set()}
    for path in MODULES:
        for owner, name in calls_by_function(path):
            if name in callers:
                callers[name].add(f"{path.stem}.{owner}")
    assert callers == {"write_sidecar": {"manifest.write_output"},
                       "mkdir": {"manifest.write_output"}}


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
                      "    write_sidecar(p, {})\n\nPath('.').mkdir()\n")
    calls = calls_by_function(module)
    assert ("inner", "mkdir") in calls and ("outer", "write_sidecar") in calls
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
# spectrum summed itself, now the x = 0 group of paulis._x_mask_form.
# A definition of any of these names under src/dqes brings a second path, or an
# unused one, back into the package.
REFERENCE_ONLY = {"Gate", "apply_gate", "build_ansatz", "pauli_apply", "expectation_sampled",
                  "shift_mub_set", "enumerate_partial_specs", "decode_graph", "load_graph",
                  "save_graph", "save_observable", "landscape_csv_text", "best_entry",
                  "final_state", "as_parameter_rows", "as_parameter_vector", "RunManifest",
                  "molecule_fixture", "cut_value", "max_cut_brute_force", "commutes_with",
                  "is_identity", "weight", "prepare_state", "expectation_exact",
                  "_joint_eigenbasis", "from_masks", "fidelity", "ground_state", "_diagonal"}


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
