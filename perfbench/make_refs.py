"""Write the reference tables of the deterministic workload commands.

    python3 perfbench/make_refs.py

Run from the root of a checkout.  The committed references were produced at
the seed commit; regenerate them only when a change to the output is intended.
"""

import gzip
import os
import subprocess
import sys
from pathlib import Path

from gate import REFS
from workloads import WORKLOADS


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    REFS.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        for command in workload.commands(0):
            if command.ref is None:
                continue
            out = subprocess.run([sys.executable, "-m", "fockmzi.cli", *command.argv], env=env,
                                 capture_output=True, check=True).stdout
            with open(REFS / f"{command.ref}.csv.gz", "wb") as raw:
                with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as f:  # byte-stable archive
                    f.write(out)
            print(f"{command.ref}: {len(out)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
