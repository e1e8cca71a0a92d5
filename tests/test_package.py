"""The package's public names, and what `import fockmzi` and each command load."""

import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import fockmzi
import oracles

SRC = Path(fockmzi.__file__).resolve().parents[1]
# every name `fockmzi` exports, by the submodule that defines it
EXPORTED = {
    "fock": ("BlockObservable", "BlockUnitary", "TwoModeState", "build_j_operator", "j_bands", "make_basis_state"),
    "elements": ("BALANCED", "CONVENTIONS", "ONE_ARM", "SYMMETRIC", "InterferometerPipeline", "split"),
    "states": ("SCHEME_NAMES", "SchemeTag", "TruncationError", "coherent_amplitudes", "dual_fock", "noon",
               "split_port_a", "yurke_bosonic", "yurke_fermionic_analog"),
    "schemes": ("SchemeSetup", "build_setup", "observable_noon_flip", "pulled_back_jz"),
    "estimation": ("ModelMismatchError", "NoPhaseInformationError", "OutcomeHistogram", "PosteriorDistribution",
                   "bayes_posterior", "classical_fisher", "ensemble_sensitivity", "min_sensitivity",
                   "phase_sweep", "posterior_mean", "posterior_std", "sample_outcomes", "scaling_fit"),
    "lithography": ("DepositionCurve", "InsufficientGridError", "deposition_rate", "fringe_period",
                    "noon_fidelity_sweep"),
    "rosetta": ("QubitRegister", "cnot", "collective_phase", "expect_flip_product", "ghz_prepare", "hadamard"),
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTED.items() for n in names])
def test_exported_name_is_the_submodule_object(module, name):
    assert getattr(fockmzi, name) is getattr(import_module(f"fockmzi.{module}"), name)
    assert name in dir(fockmzi) and name in fockmzi.__all__


# names `fockmzi` exported until the reference forms moved to tests/oracles.py, by their old submodule
MOVED_TO_ORACLES = {
    "fock": ("apply", "expectation", "j_observable", "number_observable", "spectral_exponential", "variance"),
    "elements": ("beam_splitter", "phase_shifter"),
    "states": ("coherent_vacuum", "single_port_fock"),
    "estimation": ("sensitivity",),
    "rosetta": ("phase_gate",),
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in MOVED_TO_ORACLES.items() for n in names])
def test_moved_name_is_an_oracle_not_an_export(module, name):
    assert callable(getattr(oracles, name))
    assert not hasattr(import_module(f"fockmzi.{module}"), name)
    assert name not in dir(fockmzi) and name not in fockmzi.__all__
    with pytest.raises(AttributeError, match=name):
        getattr(fockmzi, name)


def test_exports_are_exactly_the_listed_names():
    assert sorted(fockmzi.__all__) == sorted(n for names in EXPORTED.values() for n in names)


def test_from_import_and_unknown_names():
    from fockmzi import SchemeTag, build_setup  # noqa: F401

    namespace = {}
    exec("from fockmzi import *", namespace)
    assert {n for names in EXPORTED.values() for n in names} <= set(namespace)

    with pytest.raises(AttributeError, match="no_such_name"):
        fockmzi.no_such_name  # noqa: B018


# public src names that no src code calls, kept because acceptance criteria are stated on them
# (1/sqrt(N) for independent trials; no single splitter makes a N00N state beyond two photons)
UNCALLED_BY_SRC = {"ensemble_sensitivity", "noon_fidelity_sweep"}
# public methods of public src classes that no src code calls, by the benchmark script that does
UNCALLED_METHODS = {
    "InterferometerPipeline.evolve": "perfbench/tracer.py",
    "InterferometerPipeline.output_generator": "perfbench/setup_time.py",
}


def attribute_root(node: ast.Attribute) -> ast.expr:
    """The expression an attribute chain starts from: `np` for `np.linalg.norm`."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def test_every_public_src_name_has_a_src_caller():
    """src/ holds what the commands run: reference forms only the tests call live in
    tests/oracles.py.  A name counts as called where src/ code names it; the strings
    of _EXPORTS do not count.  A public method of a public class counts as called
    where src/ code reads it as an attribute of anything but an imported module, so
    `np.linalg.norm` is no call to a `norm` method."""
    defined, methods, named, read = set(), set(), set(), set()
    for path in sorted((SRC / "fockmzi").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                methods.update(f"{node.name}.{item.name}" for item in node.body
                               if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
                if node.module is None:  # `from . import estimation` imports modules
                    modules.update(alias.asname or alias.name for alias in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
                root = attribute_root(node)
                if not (isinstance(root, ast.Name) and root.id in modules):
                    read.add(node.attr)
    assert sorted(defined - named - UNCALLED_BY_SRC) == []
    assert UNCALLED_BY_SRC <= defined
    assert sorted(m for m in methods if m.partition(".")[2] not in read) == sorted(UNCALLED_METHODS)


@pytest.mark.parametrize("method, script", sorted(UNCALLED_METHODS.items()))
def test_uncalled_method_is_used_by_its_benchmark_script(method, script):
    assert method.partition(".")[2] in (SRC.parent / script).read_text(encoding="utf-8")


# methods src/ classes had until their only callers, the tests, took them as oracle functions
MOVED_METHODS = {
    ("fock", "TwoModeState", "amplitude"): "amplitude",
    ("fock", "TwoModeState", "norm"): "norm",
    ("fock", "BlockObservable", "dense"): "dense",
    ("rosetta", "QubitRegister", "norm"): "register_norm",
}


@pytest.mark.parametrize("module, cls, method", sorted(MOVED_METHODS))
def test_moved_method_is_an_oracle_not_a_method(module, cls, method):
    assert callable(getattr(oracles, MOVED_METHODS[module, cls, method]))
    assert not hasattr(getattr(import_module(f"fockmzi.{module}"), cls), method)


# the only `fockmzi` modules each src module may import: the layers run one way, from the
# primitives (fock) through the wiring (schemes) and the reductions (estimation) up to the commands
ALLOWED_IMPORTS = {
    "__init__": set(),
    "fock": set(),
    "elements": {"fock"},
    "states": {"fock"},
    "schemes": {"elements", "fock", "states"},
    "estimation": {"elements", "fock"},
    "lithography": {"elements", "fock"},
    "rosetta": {"estimation", "schemes", "states"},
    "cli": {"elements", "estimation", "fock", "lithography", "rosetta", "schemes", "states"},
}


def src_imports(path: Path) -> set[str]:
    """The sibling modules a src module imports anywhere in its body, `from .x import y` or `from . import x`."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.update([node.module] if node.module else [alias.name for alias in node.names])
    return imported


@pytest.mark.parametrize("module", sorted(ALLOWED_IMPORTS))
def test_module_imports_only_its_allowed_layers(module):
    assert src_imports(SRC / "fockmzi" / f"{module}.py") <= ALLOWED_IMPORTS[module]


def test_every_src_module_has_its_allowed_imports_listed():
    assert {path.stem for path in (SRC / "fockmzi").glob("*.py")} == set(ALLOWED_IMPORTS)


LOADED = """
import json, sys
{code}
print(json.dumps(sorted(m for m in sys.modules if m.startswith("fockmzi."))))
"""


def loaded_after(code: str) -> set[str]:
    """The `fockmzi.*` modules a fresh interpreter holds after running code."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", LOADED.format(code=code)], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return {name.removeprefix("fockmzi.") for name in json.loads(proc.stdout.splitlines()[-1])}


def test_import_fockmzi_loads_no_submodule():
    assert loaded_after("import fockmzi") == set()


@pytest.mark.parametrize("argv, modules", [
    (["hom"], {"cli", "fock", "elements", "states"}),
    (["litho"], {"cli", "fock", "elements", "states", "lithography"}),
    (["rosetta", "--n-max", "2", "--phi-grid", "0:1:3"],
     {"cli", "fock", "elements", "states", "schemes", "estimation", "rosetta"}),
])
def test_command_loads_only_what_it_runs(tmp_path, argv, modules):
    out = tmp_path / "table.csv"
    loaded = loaded_after(f"from fockmzi.cli import main\nassert main({argv + ['--output', str(out)]!r}) == 0")
    assert out.exists()
    assert loaded == modules


def test_wiring_loads_no_reduction():
    assert loaded_after("import fockmzi.schemes") == {"schemes", "elements", "fock", "states"}


PERFBENCH = SRC.parent / "perfbench"


def run_perfbench_script(tmp_path, script: str, *args: str) -> subprocess.CompletedProcess:
    """Run a perfbench script as the benchmark does, in a fresh interpreter with PYTHONPATH=src,
    from tmp_path and writing no bytecode, so anything it writes lands under tmp_path."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, str(PERFBENCH / script), *args], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)


def test_benchmark_set_up_script_runs_every_workload_setup(tmp_path, monkeypatch):
    """setup_time.py calls build_setup, SchemeTag, SchemeSetup.cutoff and output_generator."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = import_module("workloads")
    specs = [f"{scheme}:{n}" for w in workloads.WORKLOADS.values() for scheme, n in w.setups]
    assert specs
    proc = run_perfbench_script(tmp_path, "setup_time.py", *specs)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.splitlines()[-1]) > 0
    assert list(tmp_path.iterdir()) == []


def test_benchmark_tracer_resolves_every_boundary_it_wraps(tmp_path):
    """tracer.py's install looks up every LAYER_MODULES module and CLASS_BOUNDARIES attribute."""
    out = tmp_path / "spans.json"
    proc = run_perfbench_script(tmp_path, "tracer.py", str(out), "--", "hom")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n_a,n_b,probability\n")
    assert json.loads(out.read_text(encoding="utf-8"))["exit"] == 0
    assert list(tmp_path.iterdir()) == [out]
