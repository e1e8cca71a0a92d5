"""Print the seconds a fresh interpreter spends on `import fockmzi` plus, for
each SCHEME:N argument, `schemes.build_setup` and `analysis.output_generator`.

    PYTHONPATH=src python3 perfbench/setup_time.py coherent:25 noon:20
"""

import sys
import time


def main(specs: list[str]) -> float:
    start = time.perf_counter()
    import fockmzi  # the import is part of the measured set-up

    for spec in specs:
        scheme, n = spec.split(":")
        setup = fockmzi.build_setup(fockmzi.SchemeTag(scheme, int(n)))
        setup.analysis.output_generator(setup.cutoff)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(main(sys.argv[1:])))
