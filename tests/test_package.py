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
    "schemes": ("SchemeSetup", "build_setup", "pulled_back_jz"),
    "estimation": ("ModelMismatchError", "NoPhaseInformationError", "OutcomeHistogram", "PosteriorDistribution",
                   "bayes_posterior", "classical_fisher", "ensemble_sensitivity", "min_sensitivity",
                   "observable_noon_flip", "phase_sweep", "posterior_mean", "posterior_std", "sample_outcomes",
                   "scaling_fit"),
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


def test_every_public_src_name_has_a_src_caller():
    """src/ holds what the commands run: reference forms only the tests call live in
    tests/oracles.py.  A name counts as called where src/ code names it; the strings
    of _EXPORTS do not count."""
    defined, named = set(), set()
    for path in sorted((SRC / "fockmzi").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(node.name for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    assert sorted(defined - named - UNCALLED_BY_SRC) == []
    assert UNCALLED_BY_SRC <= defined


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
])
def test_command_loads_only_what_it_runs(tmp_path, argv, modules):
    out = tmp_path / "table.csv"
    loaded = loaded_after(f"from fockmzi.cli import main\nassert main({argv + ['--output', str(out)]!r}) == 0")
    assert out.exists()
    assert loaded == modules  # neither estimation, schemes nor rosetta
