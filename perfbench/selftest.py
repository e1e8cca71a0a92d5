"""Self-test of the benchmark at tiny sizes: the output gate, span attribution
and the traced run.

    python3 perfbench/selftest.py        (from the root of a checkout)
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import gate
import tracer

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _with_cell(table: gate.Table, row: int, column: str, value: str) -> gate.Table:
    rows = [list(r) for r in table.rows]
    rows[row][table.header.index(column)] = value
    return gate.Table(table.header, rows, dict(table.footers))


def test_gate_fails_on_corrupted_reference_cell():
    ref = gate.parse_table(gate.load_reference("sweep_dense_coherent25"))
    assert gate.compare(ref, ref) == []
    value = float(ref.rows[7][ref.header.index("variance")])
    assert gate.compare(_with_cell(ref, 7, "variance", repr(value * (1 + 1e-11))), ref) == []
    assert gate.compare(_with_cell(ref, 7, "variance", repr(value * (1 + 1e-7))), ref)
    assert gate.compare(_with_cell(ref, 7, "n", "26"), ref)
    assert gate.compare(_with_cell(ref, 7, "scheme", "noon"), ref)
    assert gate.compare(gate.Table(ref.header, ref.rows[:-1], ref.footers), ref)


def test_gate_inf_cells_and_roundoff_floor():
    ref = gate.parse_table("a,b\n1,inf\n2,1e-17\n")
    assert gate.compare(gate.parse_table("a,b\n1,inf\n2,3e-16\n"), ref) == []
    assert gate.compare(gate.parse_table("a,b\n1,1e300\n2,1e-17\n"), ref)
    assert gate.compare(gate.parse_table("a,b\n1,inf\n2,2e-12\n"), ref)


def test_gate_loose_fisher_column_and_footer():
    ref = gate.parse_table(gate.load_reference("estimate_dual_fock_fisher"))
    fisher = float(ref.rows[2][2])
    near = _with_cell(ref, 2, "fisher", repr(fisher * (1 + 1e-7)))
    assert gate.compare(near, ref, ("fisher",)) == []
    assert gate.compare(near, ref)
    assert gate.compare(_with_cell(ref, 2, "fisher", repr(fisher * (1 + 1e-5))), ref, ("fisher",))
    slope = float(ref.footers["slope"])
    moved = gate.Table(ref.header, ref.rows, {**ref.footers, "slope": repr(slope * (1 + 1e-5))})
    assert gate.compare(moved, ref, ("fisher",))


def test_invariants():
    noon = gate.parse_table("scheme,n,phi,expectation,variance,sensitivity\nnoon,4,0,1,0,inf\nnoon,4,1,0.5,0.5,0.25\n")
    assert gate.noon_sensitivity(4)(noon) == []
    assert gate.noon_sensitivity(4)(_with_cell(noon, 1, "sensitivity", "0.2500001"))
    hist = gate.parse_table("n_a,n_b,count\n2,0,60\n0,2,40\n# posterior_mean=0.51\n# posterior_std=0.01\n")
    assert gate.sample(100, 0.5, 1.0)(hist) == []
    assert gate.sample(100, 0.5 + 1.0, 1.0)(hist) == []  # compared modulo the period
    assert gate.sample(101, 0.5, 1.0)(hist)
    assert gate.sample(100, 0.7, 1.0)(hist)
    assert gate.max_discrepancy(1e-12)(gate.parse_table("n\n1\n# max_discrepancy=2e-12\n"))
    assert gate.period_ratio(8)(gate.parse_table("x\n1\n# period_ratio_single_over_noon=8.0001\n"))
    assert gate.hom_coincidence(1e-12)(gate.parse_table("n_a,n_b,probability\n1,1,1e-3\n"))


def test_self_times_split_concurrent_leaves():
    spans = [
        (1, None, "root", 0.0, 10.0, 0),
        (2, 1, "child", 1.0, 4.0, 0),
        (3, 2, "grandchild", 2.0, 3.0, 0),
        (4, 1, "worker", 5.0, 9.0, 1),
        (5, 1, "worker", 6.0, 8.0, 2),
    ]
    own = tracer.self_times(spans)
    assert own == {1: 3.0, 2: 2.0, 3: 1.0, 4: 3.0, 5: 1.0}
    assert tracer.tree_problems(spans, own) == []
    assert tracer.tree_problems(spans + [(6, 99, "orphan", 0.0, 1.0, 0)], own | {6: 1.0})
    assert tracer.tree_problems(spans + [(6, 2, "outside", 3.5, 4.5, 0)], own | {6: 0.5})


def _traced(tmp: Path, *argv: str):
    spans_path = tmp / "spans.json"
    out = subprocess.run([sys.executable, str(HERE / "tracer.py"), str(spans_path), "--", *argv],
                         env=ENV, capture_output=True, check=True).stdout
    plain = subprocess.run([sys.executable, "-m", "fockmzi.cli", *argv],
                           env=ENV, capture_output=True, check=True).stdout
    assert out == plain, "tracing changed the output"
    data = json.loads(spans_path.read_text(encoding="utf-8"))
    spans = data["spans"]
    own = tracer.self_times(spans)
    assert tracer.tree_problems(spans, own) == []
    roots = [s for s in spans if s[1] is None]
    assert [s[2] for s in roots] == ["cli.main"]
    assert abs(sum(own.values()) - (roots[0][4] - roots[0][3])) < 1e-9
    assert data["counters"]["cli.write_table.bytes"] == len(out)
    return {s[2] for s in spans}, data["counters"]


def test_traced_pipeline_command(tmp: Path):
    names, counters = _traced(tmp, "sensitivity", "--scheme", "coherent", "--n", "2",
                              "--phi-grid", "0:3:6", "--threads", "2")
    for name in ("elements.beam_splitter", "fock.BlockUnitary", "elements.evolve", "fock.apply",
                 "estimation.sensitivity", "schemes.build_setup", "states.coherent_vacuum", "cli.grid_map"):
        assert name in names, name
    assert counters["fock.apply.flops_computed"] > 0 and counters["splitter_keys"] == 1


def test_traced_crosscheck_commands(tmp: Path):
    names, _ = _traced(tmp, "rosetta", "--n-max", "3", "--phi-grid", "0:6:4")
    assert {"rosetta.ghz_prepare", "rosetta.QubitRegister", "cli.grid_map"} <= names
    assert not names & {"elements.evolve", "elements.phase_shifter", "schemes.build_setup"}
    names, counters = _traced(tmp, "hom")
    assert "elements.beam_splitter" in names and counters["splitter_keys"] == 1


def test_every_per_layer_metric_is_traced(tmp: Path):
    names, counters = set(), set()
    for argv in (("sensitivity", "--scheme", "coherent", "--n", "2", "--phi-grid", "0:3:3"),
                 ("scaling", "--scheme", "single-port-fock", "--n-range", "1:3", "--phi-grid", "0.1:3:4"),
                 ("scaling", "--scheme", "dual-fock", "--n-range", "1:3", "--phi-grid", "0.1:3:4"),
                 ("sample", "--scheme", "noon", "--n", "2", "--shots", "10", "--estimator", "bayes",
                  "--bayes-points", "16"),
                 ("rosetta", "--n-max", "2", "--phi-grid", "0:6:2"),
                 ("litho", "--n", "2", "--points", "192"),
                 ("hom",)):
        more_names, more_counters = _traced(tmp, *argv)
        names |= more_names
        counters |= set(more_counters)
    derived = {"elements.splitter_builds_per_setup", "estimation.evolves_per_point"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for metric in spec["per_layer"]:
        name = metric["name"]
        base, _, suffix = name.rpartition(".")
        if suffix in ("calls", "s") and not name.startswith("trace."):
            assert base in names, name
        else:
            assert name in counters or name in derived or name.startswith("trace."), name


def main() -> int:
    tmp = Path(".perfbench_out") / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        fn(tmp) if fn.__code__.co_argcount else fn()
        print(f"ok {name}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
