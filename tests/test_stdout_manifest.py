"""Every command of tests/stdout_manifest.json prints the recorded bytes, stderr and exit code.

The manifest pins bytes on the numpy and BLAS it was written with; elsewhere
the last digits may differ, so each case is skipped there.
"""

import json

import numpy as np
import pytest

from stdout_manifest import MANIFEST, blas, run

RECORDED = json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", RECORDED["commands"], ids=lambda entry: " ".join(entry["argv"]))
def test_stdout_matches_manifest(entry):
    here = (np.__version__, blas())
    if here != (RECORDED["numpy"], RECORDED["blas"]):
        pytest.skip(f"manifest written with numpy {RECORDED['numpy']} and {RECORDED['blas']}, "
                    f"this is numpy {here[0]} and {here[1]}")
    assert run(entry["argv"]) == entry
