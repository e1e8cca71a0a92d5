"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
"""

import math

import numpy as np

from fockmzi.cli import main
from fockmzi.elements import BALANCED
from fockmzi.estimation import classical_fisher, min_sensitivity, phase_sweep, photon_sweep, scaling_fit
from fockmzi.fock import make_basis_state
from fockmzi.lithography import deposition_rate, fringe_period
from fockmzi.rosetta import MAX_QUBITS, flip_expectations
from fockmzi.schemes import build_setup, observable_noon_flip
from fockmzi.states import COHERENT_TAIL_TOL, SchemeTag, noon
from oracles import (
    apply,
    beam_splitter,
    coherent_tail_mass,
    ensemble_sensitivity,
    expectation,
    noon_fidelity_sweep,
    number_observable,
    phase_derivative,
    sensitivity,
)


def report(num: int, ok: bool, detail: str):
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_shot_noise_limit():
    phis = np.linspace(0.13, 2.95, 20)
    worst = 0.0
    for n in range(1, 101):
        for phi in phis:
            worst = max(worst, abs(ensemble_sensitivity(n, phi) - 1 / math.sqrt(n)))
    report(1, worst < 1e-10, f"ensemble sensitivity = 1/sqrt(N), worst |err| {worst:.2e}")


def test_criterion_02_heisenberg_limit():
    worst = 0.0
    checked = 0
    for n in range(1, 21):
        obs = observable_noon_flip(n)
        gen = number_observable("b", n)
        for phi in np.linspace(0.02, 3.12, 37):
            value = sensitivity(noon(n, phi), obs, gen)
            if abs(math.sin(n * phi)) > 1e-12:
                assert math.isfinite(value)
                worst = max(worst, abs(value - 1 / n))
                checked += 1
    report(2, worst < 1e-10 and checked > 600,
           f"path-entangled sensitivity = 1/N at {checked} grid points, worst |err| {worst:.2e}")


def test_criterion_03_oscillation_frequency():
    worst = 0.0
    grid = np.linspace(0.0, 2 * math.pi, 200)
    for n in range(1, 21):
        obs = observable_noon_flip(n)
        for phi in grid:
            worst = max(worst, abs(expectation(obs, noon(n, phi)) - math.cos(n * phi)))
    report(3, worst < 1e-12, f"<flip> = cos(N phi) pointwise, worst |err| {worst:.2e}")


def test_criterion_04_hom_suppression():
    probs = apply(beam_splitter(BALANCED, 2), make_basis_state(1, 1)).probabilities()
    ok = (
        probs[(1, 1)] < 1e-12
        and abs(probs[(2, 0)] - 0.5) < 1e-12
        and abs(probs[(0, 2)] - 0.5) < 1e-12
    )
    report(4, ok, f"coincidence {probs[(1, 1)]:.2e}, bunched {probs[(2, 0)]:.15f}/{probs[(0, 2)]:.15f}")


def test_criterion_05_sorting_noise():
    worst_tv = 0.0
    for n in range(1, 21):
        out = apply(beam_splitter(BALANCED, n), make_basis_state(n, 0)).probabilities()
        tv = 0.5 * sum(
            abs(out[(k, n - k)] - math.comb(n, k) / 2**n) for k in range(n + 1)
        )
        worst_tv = max(worst_tv, tv)
    report(5, worst_tv < 1e-12, f"splitter output vs binomial, worst TV distance {worst_tv:.2e}")


def test_criterion_06_yurke_scaling():
    grid = np.linspace(0.005, math.pi - 0.005, 800)
    slopes = {}
    for name, sizes in (("yurke-fermionic-analog", range(3, 14, 2)),
                        ("yurke-bosonic", range(4, 13, 2))):
        points = []
        for n in sizes:
            setup = build_setup(SchemeTag(name, n))
            _, _, delta = phase_sweep(setup.analysis, setup.input_state, setup.observable, grid)
            points.append((n, min_sensitivity(grid, delta)[1]))
        slopes[name], _ = scaling_fit(points)
    ok = all(-1.2 <= s <= -0.8 for s in slopes.values())
    report(6, ok, "min-sensitivity slopes " + ", ".join(f"{k}={v:.3f}" for k, v in slopes.items()))


def test_criterion_07_dual_fock():
    worst_deriv = 0.0
    for n in (1, 2, 3, 5):
        setup = build_setup(SchemeTag("dual-fock", n))
        gen = setup.analysis.output_generator(setup.cutoff)
        for phi in np.linspace(0.0, math.pi, 100):
            evolved = setup.analysis.evolve(setup.input_state, phi)
            worst_deriv = max(worst_deriv, abs(phase_derivative(evolved, setup.observable, gen)))
    points = []
    for n in range(2, 13):
        setup = build_setup(SchemeTag("dual-fock", n))
        best = np.max(classical_fisher(setup.sampling, setup.input_state, np.linspace(0.05, math.pi / 2, 20)))
        points.append((n, best))
    slope, _ = scaling_fit(points)
    ok = worst_deriv < 1e-10 and 1.7 <= slope <= 2.3
    report(7, ok, f"|d<Jz>/dphi| max {worst_deriv:.2e}, Fisher slope {slope:.3f}")


def test_criterion_08_lithography():
    lam = 1.0
    single_period = 2.0 * lam
    xs = np.linspace(0.25 * single_period, 3.25 * single_period, 2048)
    p_single = fringe_period(xs, deposition_rate("single", 1, xs, lam))
    worst_ratio = 0.0
    for n in range(1, 9):
        xn = np.linspace(0.25 * single_period / n, 3.25 * single_period / n, 2048)
        p_noon = fringe_period(xn, deposition_rate("noon", n, xn, lam))
        worst_ratio = max(worst_ratio, abs(p_single / p_noon - n) / n)
    shared = np.linspace(0.0, 6.0, 3000)
    gap = np.max(np.abs(
        deposition_rate("classical-two-photon", 2, shared, lam)
        - deposition_rate("single", 1, shared, lam) ** 2
    ))
    ok = worst_ratio < 1e-6 and gap < 1e-12
    report(8, ok, f"period-ratio rel err {worst_ratio:.2e}, classical-vs-single^2 gap {gap:.2e}")


def test_criterion_09_splitter_insufficiency():
    grid = np.linspace(0.0, math.pi, 10_001)
    reachable = {pair: noon_fidelity_sweep(*pair, grid)[1] for pair in [(1, 0), (1, 1)]}
    capped = {pair: noon_fidelity_sweep(*pair, grid)[1]
              for pair in [(2, 1), (2, 2), (3, 2), (3, 3)]}
    ok = all(f >= 1 - 1e-10 for f in reachable.values()) and all(f <= 0.99 for f in capped.values())
    report(9, ok, "fidelities " + ", ".join(f"{p}={f:.4f}" for p, f in {**reachable, **capped}.items()))


def test_criterion_10_rosetta_stone():
    grid = np.linspace(0.0, 2 * math.pi, 100)
    worst = max(float(np.max(np.abs(np.subtract(*flip_expectations(n, grid))))) for n in range(1, MAX_QUBITS + 1))
    report(10, worst < 1e-12, f"qubit-vs-Fock discrepancy max {worst:.2e}")


def test_criterion_11_coherent_shot_noise():
    worst_rel = 0.0
    grid = np.linspace(0.1, math.pi - 0.1, 301)
    for nbar in (1, 4, 9):
        setup = build_setup(SchemeTag("coherent", nbar))
        assert coherent_tail_mass(nbar, setup.cutoff) < COHERENT_TAIL_TOL
        _, _, delta = photon_sweep(setup.analysis, setup.light, grid)
        _, best = min_sensitivity(grid, delta)
        worst_rel = max(worst_rel, abs(best - 1 / math.sqrt(nbar)) * math.sqrt(nbar))
    report(11, worst_rel < 0.02, f"min sensitivity vs 1/sqrt(nbar), worst rel err {worst_rel:.2e}")


def test_criterion_12_cli_determinism(tmp_path):
    runs = [
        ["sample", "--scheme", "noon", "--n", "2", "--phi", "0.3",
         "--shots", "1000", "--seed", "7"],
        ["sensitivity", "--scheme", "yurke-bosonic", "--n", "6",
         "--phi-grid", "0.05:3:40"],
        ["scaling", "--scheme", "noon", "--n-range", "1:8", "--phi-grid", "0.01:3:40"],
    ]
    ok = True
    for i, argv in enumerate(runs):
        a, b = tmp_path / f"run{i}a.csv", tmp_path / f"run{i}b.csv"
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    report(12, ok, f"{len(runs)} repeated invocations byte-identical")
