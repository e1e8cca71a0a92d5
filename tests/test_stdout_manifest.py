"""Every command of tests/stdout_manifest.json prints the recorded bytes, stderr and exit code, and
every command README.md shows is one of them and succeeds.

The manifest pins bytes on the numpy and BLAS it was written with; elsewhere
the last digits may differ, so each case is skipped there.
"""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from stdout_manifest import MANIFEST, blas, run

RECORDED = json.loads(MANIFEST.read_text(encoding="utf-8"))
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("entry", RECORDED["commands"], ids=lambda entry: " ".join(entry["argv"]))
def test_stdout_matches_manifest(entry):
    here = (np.__version__, blas())
    if here != (RECORDED["numpy"], RECORDED["blas"]):
        pytest.skip(f"manifest written with numpy {RECORDED['numpy']} and {RECORDED['blas']}, "
                    f"this is numpy {here[0]} and {here[1]}")
    assert run(entry["argv"]) == entry


def readme_commands() -> list[list[str]]:
    """The arguments of every `fockmzi ...` line inside README.md's code fences, trailing comments dropped."""
    commands, fenced = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("fockmzi "):
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_shows_commands():
    assert readme_commands()


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_commands_are_manifest_entries_that_succeed(argv):
    codes = {tuple(entry["argv"]): entry["code"] for entry in RECORDED["commands"]}
    assert codes.get(tuple(argv)) == 0
