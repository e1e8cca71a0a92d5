"""`import fockmzi` before numpy pins OpenBLAS to one thread unless the caller chose a count, and no
command's stdout depends on that count.

The pin cases run in a fresh interpreter, because OpenBLAS reads its thread
count once, when numpy loads it; one reads the count of the test process
itself.  The count is read with the ctypes getter of perfbench/probe_env.py.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fockmzi
from stdout_manifest import BLAS_THREAD_COMMANDS

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(fockmzi.__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
UNSET = {k: None for k in BLAS_VARS}

PROBE = """
import json, os, sys
{imports}
sys.path.insert(0, {perfbench!r})
from probe_env import blas_info
print(json.dumps({{"threads": blas_info()["threads"], "env": {{k: os.environ.get(k) for k in {names!r}}}}}))
"""


def probe(imports="import fockmzi", **blas_env):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(blas_env, PYTHONPATH=str(SRC))
    code = PROBE.format(imports=imports, perfbench=str(ROOT / "perfbench"), names=BLAS_VARS)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    result = json.loads(proc.stdout)
    if result["threads"] is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS with a thread-count getter")
    return result


def test_import_pins_openblas_to_one_thread():
    result = probe()
    assert result["threads"] == 1
    assert result["env"] == UNSET


def test_import_after_numpy_changes_nothing():
    default = probe(imports="import numpy")["threads"]
    result = probe(imports="import numpy\nimport fockmzi")
    assert result["threads"] == default
    assert result["env"] == UNSET


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS caps its thread count at the CPUs it sees")
@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"])
def test_explicit_thread_count_wins_and_environment_is_kept(var):
    result = probe(**{var: "2"})
    assert result["threads"] == 2
    assert result["env"] == {**UNSET, var: "2"}


def test_tests_run_one_openblas_thread():
    # conftest.py imports fockmzi before numpy, so the tests run BLAS as the CLI does
    if any(os.environ.get(k) for k in BLAS_VARS):
        pytest.skip("a BLAS thread count was chosen in the environment")
    spec = importlib.util.spec_from_file_location("probe_env", ROOT / "perfbench" / "probe_env.py")
    probe_env = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe_env)
    threads = probe_env.blas_info()["threads"]
    if threads is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS with a thread-count getter")
    assert threads == 1


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS caps its thread count at the CPUs it sees")
@pytest.mark.parametrize("argv", BLAS_THREAD_COMMANDS, ids=" ".join)
def test_stdout_does_not_depend_on_the_blas_thread_count(argv):
    assert probe(OPENBLAS_NUM_THREADS="2")["threads"] == 2
    printed = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env.update(OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-m", "fockmzi.cli", *argv], env=env, capture_output=True, timeout=120,
                              check=True)
        printed.append(proc.stdout)
    assert printed[0] == printed[1]
