"""The stdout manifest: the sha256 of what each listed `fockmzi` command prints.

`tests/test_stdout_manifest.py` runs every command of `stdout_manifest.json`
through `cli.main` in-process and compares its exit code, stderr and stdout
hash with the recorded ones.  A change that moves bytes on purpose rewrites
the manifest with

    PYTHONPATH=src python tests/stdout_manifest.py

and lists each moved command with its old and new hash in CHANGES.md.  Every command stays
below the block sizes where the BLAS thread count moves the last digits.
"""

import contextlib
import hashlib
import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from fockmzi import cli

MANIFEST = Path(__file__).with_name("stdout_manifest.json")

SCHEME_SIZES = {
    "single-port-fock": 3,
    "coherent": 4,
    "dual-fock": 2,
    "noon": 3,
    "yurke-fermionic-analog": 3,
    "yurke-bosonic": 4,
}
SCALING_RANGES = {
    "single-port-fock": "1:4",
    "coherent": "1:3",
    "dual-fock": "1:4",
    "noon": "1:4",
    "yurke-fermionic-analog": "1:5:2",
    "yurke-bosonic": "2:6:2",
}
FRAMES = ([], ["--convention", "symmetric"])
BAYES_7 = ["--phi", "0.7", "--shots", "1000", "--seed", "7", "--estimator", "bayes"]


def _benchmark() -> list[list[str]]:
    """The benchmark's commands, as perfbench/workloads.py lists them, with its seeded `sample` commands
    for seeds 0-9."""
    sys.dont_write_bytecode = True  # leave perfbench/ as it is checked out
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WORKLOADS

    return [list(c.argv) for seed in range(10) for w in WORKLOADS.values() for c in w.commands(seed)]


def _readme() -> list[list[str]]:
    return [
        ["sensitivity", "--scheme", "noon", "--n", "4", "--phi-grid", "0:3.1:100"],
        ["scaling", "--scheme", "single-port-fock", "--n-range", "1:20"],
        ["scaling", "--scheme", "noon", "--n-range", "1:20"],
        ["scaling", "--scheme", "yurke-fermionic-analog", "--n-range", "3:13:2"],
        ["litho", "--n", "4", "--points", "512"],
        ["rosetta", "--n-max", "12", "--phi-grid", "0:6.2832:100"],
        ["sample", "--scheme", "yurke-bosonic", "--n", "4", *BAYES_7],
        ["sample", "--scheme", "dual-fock", "--n", "2", *BAYES_7],
        ["sample", "--scheme", "single-port-fock", "--n", "3", *BAYES_7],
    ]


def _per_scheme() -> list[list[str]]:
    commands = []
    for scheme, n in SCHEME_SIZES.items():
        for frame in FRAMES:
            commands.append(["sensitivity", "--scheme", scheme, "--n", str(n), *frame])
            commands.append(["sample", "--scheme", scheme, "--n", str(n), *BAYES_7, *frame])
    for scheme, n_range in SCALING_RANGES.items():
        for metric in ("fisher", "min-sensitivity"):
            commands.append(["scaling", "--scheme", scheme, "--n-range", n_range, "--metric", metric,
                             "--phi-grid", "0.005:3.1:200"])
    return commands


def _coherent() -> list[list[str]]:
    """Coherent light at the sizes and frames whose cutoff search the truncation code runs."""
    commands = []
    for n in (0, 1, 2, 3, 7, 25, 100, 400):
        grid = "0:3.1:60" if n <= 100 else "0.1:3:8"
        for frame in FRAMES:
            commands.append(["sensitivity", "--scheme", "coherent", "--n", str(n), "--phi-grid", grid, *frame])
    commands += [
        ["scaling", "--scheme", "coherent", "--n-range", "4:64:4"],
        ["scaling", "--scheme", "coherent", "--n-range", "4:64:20", "--metric", "fisher", "--phi-grid", "0.01:3.1:40"],
        ["sample", "--scheme", "coherent", "--n", "4", *BAYES_7],
        ["sample", "--scheme", "coherent", "--n", "100", *BAYES_7],
        ["sensitivity", "--scheme", "coherent", "--n", "2000", "--phi-grid", "0.1:3:3"],
        ["sensitivity", "--scheme", "coherent", "--n", "1000000", "--phi-grid", "0.1:3:3"],
    ]
    return commands


def _failures() -> list[list[str]]:
    """The exit-2 cases that tests/test_cli.py runs in-process, and an input too large to allocate."""
    return [
        ["sensitivity", "--scheme", "coherent", "--n", "1987642"],
        ["scaling", "--scheme", "dual-fock", "--metric", "min-sensitivity", "--n-range", "1:3"],
        ["scaling", "--scheme", "noon", "--metric", "fisher", "--n-range", "1:3", "--phi-grid", "0:1e-300:2"],
        ["scaling", "--scheme", "dual-fock", "--n-range", "0:2"],
        ["scaling", "--scheme", "coherent", "--n-range", "0:2"],
        ["sensitivity", "--scheme", "dual-fock", "--n", "1", "--phi-grid", "1e308:1.7e308:3"],
        ["rosetta", "--n-max", "2", "--phi-grid", "1e308:1.7e308:2"],
        ["sample", "--scheme", "dual-fock", "--n", "2", "--phi", "1.7e308", "--estimator", "bayes"],
        ["litho", "--wavelength", "1e308", "--points", "192"],
        ["litho", "--wavelength", "3e307"],
        ["litho", "--wavelength", "1e307"],
        ["litho", "--n", str(10**320)],
        ["litho", "--n", str(10**30), "--wavelength", "1e-300", "--points", "192"],
        ["litho", "--n", str(10**15), "--wavelength", "1e-300", "--points", "192"],
        ["sample", "--scheme", "noon", "--n", "2", "--shots", "0", "--estimator", "bayes"],
        ["sample", "--scheme", "noon", "--n", "2", "--shots", "0", "--estimator", "bayes", "--bayes-points", "3"],
        ["sample", "--scheme", "coherent", "--n", "0", "--shots", "5", "--estimator", "bayes"],
        ["sensitivity", "--scheme", "noon", "--n", str(10**15)],  # numpy's out-of-memory line
    ]


def commands() -> list[list[str]]:
    listed = [*_benchmark(), *_readme(), *_per_scheme(), *_coherent(), *_failures()]
    return [argv for i, argv in enumerate(listed) if argv not in listed[:i]]


def blas() -> str:
    """Name and version of numpy's BLAS, as numpy reports it."""
    try:
        info = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def run(argv: list[str]) -> dict:
    """Run one command through cli.main in this process: its exit code, stderr (with any warning, one line
    each) and the sha256 of its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    stderr = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return {"argv": argv, "code": code, "stderr": stderr,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def main() -> int:
    entries = [run(argv) for argv in commands()]
    header = json.dumps({"numpy": np.__version__, "blas": blas()})[:-1]
    body = ",\n  ".join(map(json.dumps, entries))  # one command a line, so a diff names the moved ones
    MANIFEST.write_text(f'{header}, "commands": [\n  {body}\n]}}\n', encoding="utf-8")
    print(f"wrote {len(entries)} commands to {MANIFEST}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
