"""The benchmark's workloads: `fockmzi` command lines, their requested phase
points, the setups they build, and the checks applied to their output.

Only the `sample` commands depend on the seed (their `--seed` and `--phi`);
every other command is deterministic and is compared with a reference table
produced at the seed commit (see `make_refs.py`).
"""

import math
import random
from dataclasses import dataclass
from typing import Callable

import gate


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    points: int  # phase points the inputs request (never what the code does internally)
    ref: str | None = None  # reference table stem under refs/, None for seeded commands
    invariants: tuple[Callable[[gate.Table], list[str]], ...] = ()
    loose_columns: tuple[str, ...] = ()  # compared at gate.LOOSE_REL_TOL


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[int], list[Command]]
    setups: tuple[tuple[str, int], ...] = ()  # (scheme, n) built by setup_time.py


def _sweep_dense(seed: int) -> list[Command]:
    return [
        Command(("sensitivity", "--scheme", "coherent", "--n", "25", "--phi-grid", "0:3.1:60"),
                points=60, ref="sweep_dense_coherent25"),
    ]


def _scan_small(seed: int) -> list[Command]:
    return [
        Command(("scaling", "--scheme", "single-port-fock", "--n-range", "1:12",
                 "--phi-grid", "0.005:3.1365926535897931:240"),
                points=12 * 240, ref="scan_small_single_port_scaling"),
        Command(("sensitivity", "--scheme", "noon", "--n", "20", "--phi-grid", "0:3.1:600"),
                points=600, ref="scan_small_noon20", invariants=(gate.noon_sensitivity(20),)),
    ]


def _sample(scheme: str, n: int, bayes_points: int, period: float, rng: random.Random) -> Command:
    phi = rng.uniform(0.0, period)
    seed = rng.randrange(2**31)
    shots = 10000
    argv = ("sample", "--scheme", scheme, "--n", str(n), "--phi", repr(phi), "--shots", str(shots),
            "--seed", str(seed), "--estimator", "bayes", "--bayes-points", str(bayes_points))
    return Command(argv, points=bayes_points + 1, invariants=(gate.sample(shots, phi, period),))


def _estimate(seed: int) -> list[Command]:
    rng = random.Random(seed)
    return [
        _sample("dual-fock", 10, 512, 2.0 * math.pi, rng),
        _sample("noon", 8, 1024, 2.0 * math.pi / 8, rng),
        Command(("scaling", "--scheme", "dual-fock", "--n-range", "1:4",
                 "--phi-grid", "0.005:3.1365926535897931:200"),
                points=4 * 200, ref="estimate_dual_fock_fisher", loose_columns=("fisher",)),
    ]


def _crosscheck(seed: int) -> list[Command]:
    return [
        Command(("rosetta", "--n-max", "14", "--phi-grid", "0:6.2832:120"),
                points=14 * 120, ref="crosscheck_rosetta14", invariants=(gate.max_discrepancy(1e-12),)),
        Command(("litho", "--n", "8", "--points", "6000"),
                points=6000, ref="crosscheck_litho8", invariants=(gate.period_ratio(8),)),
        Command(("hom",), points=0, ref="crosscheck_hom", invariants=(gate.hom_coincidence(1e-12),)),
    ]


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-dense", _sweep_dense, (("coherent", 25),)),
        Workload("scan-small", _scan_small, tuple(("single-port-fock", n) for n in range(1, 13)) + (("noon", 20),)),
        Workload("estimate", _estimate, (("dual-fock", 10), ("noon", 8)) + tuple(("dual-fock", n) for n in range(1, 5))),
        Workload("crosscheck", _crosscheck),
    )
}
