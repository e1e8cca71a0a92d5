import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import fockmzi
from fockmzi.cli import UsageError, build_parser, fmt, fmt_column, main, parse_grid, parse_n_range, write_table
from fockmzi.estimation import ModelMismatchError, NoPhaseInformationError
from fockmzi.fock import NumericalFailure
from fockmzi.lithography import InsufficientGridError
from fockmzi.states import TruncationError


def run_cli(tmp_path, *argv, name="out.csv"):
    out = tmp_path / name
    code = main(list(argv) + ["--output", str(out)])
    text = out.read_text(encoding="utf-8") if out.exists() else None
    return code, text


def rows_of(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def footers_of(text):
    return [l[2:] for l in text.strip().splitlines() if l.startswith("# ")]


def test_fmt_serialization():
    assert fmt(4) == "4"
    assert fmt(math.inf) == "inf"
    assert fmt(0.25) == "0.25"
    assert fmt(1 / 3) == "0.33333333333333331"


def test_fmt_edge_values():
    cases = [
        (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"), (-0.0, "-0"),
        (5e-324, "4.9406564584124654e-324"), (np.float64(0.1), "0.10000000000000001"),
        (np.float64(-math.inf), "-inf"), (np.int64(-7), "-7"), (True, "1"),
    ]
    for value, text in cases:
        assert fmt(value) == text


@pytest.mark.parametrize("column", [
    np.array([math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e300, 0.1, 1 / 3, 2.0]),
    np.array([0, -7, 2**62, np.iinfo(np.int64).min], dtype=np.int64),
    np.array([]),
    np.array([], dtype=np.int64),
])
def test_fmt_column_equals_fmt_of_each_cell(column):
    assert fmt_column(column) == [fmt(v) for v in column]


def test_write_table_writes_bounded_pieces(tmp_path, monkeypatch):
    rows = [[str(i), str(i * i)] for i in range(2500)]
    expected = "".join(line + "\n" for line in ["i,sq", *map(",".join, rows), "# total=2500"])

    class Recorder:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

        def flush(self):
            pass

    out = Recorder()
    monkeypatch.setattr("sys.stdout", out)
    write_table(None, ["i", "sq"], rows, ["total=2500"])
    assert "".join(out.writes) == expected
    assert len(out.writes) == 3 and max(w.count("\n") for w in out.writes) == 1000

    path = tmp_path / "sub" / "table.csv"
    write_table(path, ["i", "sq"], rows, ["total=2500"])
    assert path.read_bytes() == expected.encode("utf-8")
    with pytest.raises(UsageError, match="cannot be written"):
        write_table(tmp_path, ["i", "sq"], rows, [])


@pytest.mark.parametrize("argv", [
    ["sensitivity", "--scheme", "noon", "--n", "3", "--phi-grid", "0:3.1:2500"],
    ["scaling", "--n-range", "1:5"],
    ["hom"],
    ["litho", "--points", "2500"],
    ["rosetta", "--n-max", "3", "--phi-grid", "0:6.2832:700"],
    ["sample", "--scheme", "dual-fock", "--n", "6", "--phi", "0.7", "--estimator", "bayes"],
    ["sample", "--shots", "0"],
], ids=" ".join)
def test_rows_read_twice_give_the_lines_written(tmp_path, argv):
    """The rows a run_* returns are re-iterable, not a generator: perfbench's tracer reads them again
    after write_table.  Both readings give the table's lines."""
    args = build_parser().parse_args(argv)
    _, rows, _ = args.run(args)
    first = [",".join(row) for row in rows]
    assert [",".join(row) for row in rows] == first
    _, text = run_cli(tmp_path, *argv)
    assert first == [line for line in text.splitlines()[1:] if not line.startswith("#")]


class _Sink:
    """A stdout that keeps nothing."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [
    ["litho", "--points", "200000"],
    ["sensitivity", "--scheme", "coherent", "--n", "25", "--phi-grid", "0:3.1:200000"],
], ids=" ".join)
def test_table_text_is_not_held_whole(monkeypatch, argv):
    """A table is formatted a write at a time, so what a command allocates is its numeric columns,
    8 B a cell (litho's 200 000 rows: four columns, 6.4 MB), not ~75 B of text a cell."""
    monkeypatch.setattr("sys.stdout", _Sink())
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6


def test_parse_grid():
    grid = parse_grid("0:3.1:100")
    assert grid.size == 100 and grid[0] == 0.0 and grid[-1] == 3.1
    for bad in ("0:3.1", "3:1:10", "0:1:1", "a:b:c"):
        with pytest.raises(Exception):
            parse_grid(bad)


def test_parse_n_range():
    assert parse_n_range("1:5") == [1, 2, 3, 4, 5]
    assert parse_n_range("3:13:2") == [3, 5, 7, 9, 11, 13]


def test_sensitivity_noon_constant_quarter(tmp_path):
    code, text = run_cli(tmp_path, "sensitivity", "--scheme", "noon", "--n", "4",
                         "--phi-grid", "0:3.1:100")
    assert code == 0
    header, rows = rows_of(text)
    assert header == ["scheme", "n", "phi", "expectation", "variance", "sensitivity"]
    assert len(rows) == 100
    finite = [float(r[5]) for r in rows if r[5] != "inf"]
    assert len(finite) >= 99
    assert max(abs(v - 0.25) for v in finite) < 1e-12
    # expectation column tracks cos(4 phi)
    for r in rows[:10]:
        assert abs(float(r[3]) - math.cos(4 * float(r[2]))) < 1e-12


def test_sensitivity_dual_fock_all_divergent(tmp_path):
    code, text = run_cli(tmp_path, "sensitivity", "--scheme", "dual-fock", "--n", "3",
                         "--phi-grid", "0.1:3:40")
    assert code == 0
    _, rows = rows_of(text)
    assert all(r[5] == "inf" for r in rows)


def test_malformed_grid_exits_1_without_file(tmp_path):
    out = tmp_path / "never.csv"
    code = main(["sensitivity", "--scheme", "noon", "--n", "2",
                 "--phi-grid", "nonsense", "--output", str(out)])
    assert code == 1
    assert not out.exists()


def test_truncation_failure_exits_2(tmp_path):
    out = tmp_path / "never.csv"
    # the first size whose tail needs a cutoff past states.COHERENT_CUTOFF_CAP
    code = main(["sensitivity", "--scheme", "coherent", "--n", "1987642", "--output", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("scheme, n", [
    ("yurke-bosonic", 10**21),  # past the largest array numpy can index
    ("noon", 10**29),
    ("dual-fock", 10**24),
    ("noon", 10**15),
])
def test_size_too_large_to_hold_exits_2_at_once(capsys, scheme, n):
    code = main(["sensitivity", "--scheme", scheme, "--n", str(n)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("out of memory: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, reason", [
    (["sensitivity", "--scheme", "single-port-fock", "--n", str(10**21)], "do not fit numpy's 64-bit integers"),
    (["sample", "--scheme", "single-port-fock", "--n", str(2**63)], "do not fit numpy's 64-bit integers"),
    (["sensitivity", "--scheme", "coherent", "--n", str(10**400)], "no cutoff up to"),  # sqrt(n) would overflow
    (["sensitivity", "--scheme", "single-port-fock", "--n", str(10**15)], "divergent at every phase"),
    (["sensitivity", "--scheme", "single-port-fock", "--n", str(2 * 10**14), "--convention", "symmetric"],
     "divergent at every phase"),
    (["scaling", "--scheme", "single-port-fock", "--n-range", f"{10**15}:{10**15 + 2}"], "divergent at every phase"),
])
def test_port_a_light_past_its_limits_exits_2_saying_which(capsys, argv, reason):
    # its weights hold no array of the photon number, so the limits are the draws' integers, the coherent
    # cutoff cap and, for a sweep, the light whose largest slope N/2 is below the divergence threshold
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("numerical failure: ") and reason in err and err.count("\n") == 1, err


@pytest.mark.parametrize("n_range, spread", [
    (f"{10**15}:{10**15 + 2}", "log n spans 0,"),  # the three logs are one float
    (f"{10**12}:{10**12 + 2}", "log n spans 2e-12,"),  # distinct logs, whose rounding still moves the slope 0.5 %
])
def test_scaling_refuses_sizes_too_close_to_fit_in_log(capsys, n_range, spread):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy RankWarning on the way
        code = main(["scaling", "--scheme", "single-port-fock", "--n-range", n_range, "--metric", "fisher",
                     "--phi-grid", "0:1:3"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("numerical failure: sizes ") and spread in err and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["sensitivity", "--n", str(9 * 10**13), "--phi-grid", "1.5:1.6:2"],
    ["sensitivity", "--n", str(18 * 10**13), "--phi-grid", "1.5:1.6:2", "--convention", "symmetric"],
    ["scaling", "--n-range", f"{10**15}:{3 * 10**15}:{10**15}", "--metric", "fisher", "--phi-grid", "0:1:3"],
    ["sample", "--n", str(2**63 - 1), "--shots", "10", "--estimator", "bayes"],
])
def test_port_a_light_just_inside_its_limits_runs(tmp_path, argv):
    code, text = run_cli(tmp_path, *argv, "--scheme", "single-port-fock")
    assert code == 0
    _, rows = rows_of(text)
    assert rows and all(math.isfinite(float(row[-1])) for row in rows)


@pytest.mark.parametrize("argv", [
    ["sensitivity", "--n", str(10**12), "--phi-grid", "0.5:2.5:5"],
    ["sample", "--n", str(10**15), "--phi", "0.7", "--shots", "100", "--estimator", "bayes"],
])
def test_single_port_fock_holds_no_array_of_its_photon_number(tmp_path, argv):
    # N photons in port A are one weight: no log-factorial table, split state or block is built
    code, text = run_cli(tmp_path, *argv, "--scheme", "single-port-fock")
    assert code == 0
    header, rows = rows_of(text)
    if header[-1] == "sensitivity":
        assert len(rows) == 5 and all(float(row[-1]) == pytest.approx(1e-6, rel=1e-15) for row in rows)
    else:
        assert sum(int(row[2]) for row in rows) == 100 and all(int(a) + int(b) == 10**15 for a, b, _ in rows)


@pytest.mark.parametrize("cls, base", [
    (TruncationError, ValueError),
    (NoPhaseInformationError, RuntimeError),
    (ModelMismatchError, RuntimeError),
    (InsufficientGridError, ValueError),
])
def test_failure_classes_are_numerical_failures_and_keep_their_base(cls, base):
    assert issubclass(cls, NumericalFailure) and issubclass(cls, base)


def test_no_phase_information_exits_2(tmp_path, capsys):
    # each run has a size without phase information: every point divergent, or a Fisher information of 0
    for i, argv in enumerate([
        ["scaling", "--scheme", "dual-fock", "--metric", "min-sensitivity", "--n-range", "1:3"],
        ["scaling", "--scheme", "noon", "--metric", "fisher", "--n-range", "1:3", "--phi-grid", "0:1e-300:2"],
        ["scaling", "--scheme", "dual-fock", "--n-range", "0:2"],
        ["scaling", "--scheme", "coherent", "--n-range", "0:2"],
    ]):
        out = tmp_path / f"never{i}.csv"
        code = main([*argv, "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err.startswith("numerical failure: ") and "n=" in err and "Traceback" not in err, err
        assert not out.exists()


@pytest.mark.filterwarnings("error")  # a numpy overflow or invalid-value warning fails the test
@pytest.mark.parametrize("argv", [
    ["sensitivity", "--scheme", "dual-fock", "--n", "1", "--phi-grid", "1e308:1.7e308:3"],
    ["rosetta", "--n-max", "2", "--phi-grid", "1e308:1.7e308:2"],
    ["sample", "--scheme", "dual-fock", "--n", "2", "--phi", "1.7e308", "--estimator", "bayes"],
])
def test_phase_overflowing_the_generator_exits_2_before_any_cell(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""  # the table, nan cells and all, is never written
    assert err.startswith("numerical failure: phase ") and "not finite" in err and "Traceback" not in err, err


@pytest.mark.parametrize("argv, flag", [
    (["litho", "--wavelength", "1e308", "--points", "192"], "--wavelength"),  # the grid end 6.5 * 1e308 overflows
    (["litho", "--wavelength", "3e307"], "--wavelength"),  # so does 6.5 * 3e307
    (["litho", "--wavelength", "1e307"], "--wavelength"),  # only pi times the grid end overflows
    (["litho", "--n", str(10**320)], "--n"),  # n times the largest phase overflows
])
def test_litho_phase_overflow_exits_2_naming_the_flag(capsys, argv, flag):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert caught == []  # no numpy RuntimeWarning
    assert out == ""
    assert err.startswith(f"numerical failure: {flag}") and err.count("\n") == 1 and "not finite" in err, err


@pytest.mark.parametrize("n", [10**30, 10**15])
def test_litho_period_underflow_exits_2_naming_both_flags(capsys, n):
    # the noon period 2 * wavelength / n underflows to 0 (10**30), or to a subnormal that
    # keeps under 1e-9 relative precision (10**15); the grid would resolve no fringe
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["litho", "--n", str(n), "--wavelength", "1e-300", "--points", "192"])
    out, err = capsys.readouterr()
    assert code == 2
    assert caught == []
    assert out == ""
    assert err.startswith("numerical failure: --wavelength") and "--n" in err and err.count("\n") == 1, err


def test_litho_subnormal_period_still_resolved(tmp_path):
    code, text = run_cli(tmp_path, "litho", "--n", "100000000", "--wavelength", "1e-300", "--points", "192")
    assert code == 0
    ratio = dict(f.split("=") for f in footers_of(text))["period_ratio_single_over_noon"]
    assert float(ratio) == pytest.approx(1e8, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["sample", "--scheme", "noon", "--n", "2", "--shots", "0", "--estimator", "bayes"],
    ["sample", "--scheme", "noon", "--n", "2", "--shots", "0", "--estimator", "bayes", "--bayes-points", "3"],
    ["sample", "--scheme", "coherent", "--n", "0", "--shots", "5", "--estimator", "bayes"],
])
def test_flat_posterior_has_no_mean_and_exits_2(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("numerical failure: ") and "flat" in err, err


def test_scaling_noon_slope_minus_one(tmp_path):
    code, text = run_cli(tmp_path, "scaling", "--scheme", "noon", "--n-range", "1:20",
                         "--phi-grid", "0.01:3.1:60")
    assert code == 0
    footer = footers_of(text)[0]
    slope = float(footer.split("slope=")[1].split()[0])
    assert abs(slope + 1.0) < 1e-9


def test_scaling_single_port_slope_half(tmp_path):
    code, text = run_cli(tmp_path, "scaling", "--scheme", "single-port-fock",
                         "--n-range", "1:20", "--phi-grid", "0.05:3.09:400")
    assert code == 0
    slope = float(footers_of(text)[0].split("slope=")[1].split()[0])
    assert abs(slope + 0.5) < 0.02


def test_scaling_yurke_band(tmp_path):
    code, text = run_cli(tmp_path, "scaling", "--scheme", "yurke-fermionic-analog",
                         "--n-range", "3:13:2", "--phi-grid", "0.005:3.1366:800")
    assert code == 0
    slope = float(footers_of(text)[0].split("slope=")[1].split()[0])
    assert -1.2 <= slope <= -0.8


def test_scaling_dual_fock_uses_fisher(tmp_path):
    code, text = run_cli(tmp_path, "scaling", "--scheme", "dual-fock",
                         "--n-range", "2:8", "--phi-grid", "0.05:1.5:25")
    assert code == 0
    header, rows = rows_of(text)
    assert header[2] == "fisher"
    slope = float(footers_of(text)[0].split("slope=")[1].split()[0])
    assert 1.7 <= slope <= 2.3


def test_hom_table(tmp_path):
    code, text = run_cli(tmp_path, "hom")
    assert code == 0
    _, rows = rows_of(text)
    probs = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
    assert probs[(1, 1)] < 1e-12
    assert probs[(2, 0)] == pytest.approx(0.5, abs=1e-12)
    assert probs[(0, 2)] == pytest.approx(0.5, abs=1e-12)


def test_litho_period_ratio_footer(tmp_path):
    code, text = run_cli(tmp_path, "litho", "--n", "4", "--points", "512")
    assert code == 0
    ratio = None
    for footer in footers_of(text):
        if footer.startswith("period_ratio_single_over_noon="):
            ratio = float(footer.split("=")[1])
    assert ratio is not None
    assert abs(ratio - 4.0) / 4.0 < 1e-6


def test_rosetta_table(tmp_path):
    code, text = run_cli(tmp_path, "rosetta", "--n-max", "6", "--phi-grid", "0:6.2832:50")
    assert code == 0
    _, rows = rows_of(text)
    assert len(rows) == 6 * 50
    assert max(float(r[4]) for r in rows) < 1e-12


def test_sample_repeat_is_byte_identical(tmp_path):
    args = ("sample", "--scheme", "noon", "--n", "2", "--phi", "0.3",
            "--shots", "1000", "--seed", "7")
    code1, text1 = run_cli(tmp_path, *args, name="a.csv")
    code2, text2 = run_cli(tmp_path, *args, name="b.csv")
    assert code1 == code2 == 0
    assert text1 == text2
    _, rows = rows_of(text1)
    assert sum(int(r[2]) for r in rows) == 1000


def test_sample_bayes_footer(tmp_path):
    code, text = run_cli(tmp_path, "sample", "--scheme", "dual-fock", "--n", "2",
                         "--phi", "0.7", "--shots", "500", "--seed", "3",
                         "--estimator", "bayes")
    assert code == 0
    footers = footers_of(text)
    assert any(f.startswith("posterior_mean=") for f in footers)
    assert any(f.startswith("posterior_std=") for f in footers)


def test_bayes_points_below_two_is_usage_error(tmp_path, capsys):
    for points in ("1", "0", "-3"):
        out = tmp_path / f"never{points}.csv"
        code = main(["sample", "--scheme", "single-port-fock", "--n", "1", "--estimator", "bayes",
                     "--bayes-points", points, "--output", str(out)])
        assert code == 1
        assert not out.exists()
        assert "--bayes-points" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config, flag", [
    (["sensitivity", "--phi-grid", "0:inf:5"], None, "--phi-grid"),
    (["sensitivity"], "phi-grid = -inf:0:5\n", "--phi-grid"),
    (["sensitivity", "--phi-grid", "0:nan:5"], None, "--phi-grid"),
    (["rosetta", "--phi-grid", "0:inf:3"], None, "--phi-grid"),
    (["sample", "--phi", "nan"], None, "--phi"),
    (["sample", "--phi", "inf"], None, "--phi"),
    (["sample"], "phi = -inf\n", "--phi"),
    (["litho", "--wavelength", "-1"], None, "--wavelength"),
    (["litho", "--wavelength", "0"], None, "--wavelength"),
    (["litho", "--wavelength", "nan"], None, "--wavelength"),
    (["litho"], "wavelength = inf\n", "--wavelength"),
    (["sample", "--seed", str(2**64)], None, "--seed"),
    (["sample", "--seed", str(-(2**63) - 1)], None, "--seed"),
    (["sample"], f"seed = {7 + 2**64}\n", "--seed"),
    (["sample", "--shots", str(2**63)], None, "--shots"),
    (["sample", "--shots", "-1"], None, "--shots"),
])
def test_non_finite_or_out_of_range_numbers_are_usage_errors(tmp_path, capsys, argv, config, flag):
    out = tmp_path / "never.csv"
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config, encoding="utf-8")
        argv = argv + ["--config", str(cfg)]
    code = main(argv + ["--output", str(out)])
    assert code == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()



@pytest.mark.parametrize("argv, config, flag", [
    (["sensitivity"], "n = abc\n", "--n"),
    (["sample"], "shots = 1.5\n", "--shots"),
    (["scaling", "--n-range", "1:3"], "metric = bogus\n", "--metric"),
    (["sample"], "estimator = mle\n", "--estimator"),
    (["sensitivity"], "convention = both\n", "--convention"),
    (["sensitivity"], "scheme = laser\n", "--scheme"),
    (["scaling"], "n-range = 5:1\n", "--n-range"),
    (["scaling", "--n-range", "1:2"], None, "--n-range"),
    (["scaling", "--n", "5", "--n-range", "1:3"], None, "--n"),
    (["sensitivity", "--scheme", "noon", "--noon-framing", "input"], None, "--noon-framing"),
    (["scaling", "--noon-framing", "input"], None, "--noon-framing"),
    (["sample", "--noon-framing", "input"], None, "--noon-framing"),
])
def test_config_values_are_checked_like_flags(tmp_path, capsys, argv, config, flag):
    out = tmp_path / "never.csv"
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config, encoding="utf-8")
        argv = argv + ["--config", str(cfg)]
    code = main(argv + ["--output", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert flag in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, config, flags", [
    ("sensitivity", "n = 2\nconvention = symmetric\nphi-grid = -1:1:7\n",
     ["--n", "2", "--convention", "symmetric", "--phi-grid=-1:1:7"]),
    ("sample", "phi = -0.4\nestimator = bayes\n", ["--phi=-0.4", "--estimator", "bayes"]),
    # a UTF-8 byte-order mark ahead of the first key, as some editors write one
    pytest.param("sensitivity", "\ufeffn = 3\nscheme = noon\n", ["--n", "3", "--scheme", "noon"],
                 id="byte-order-mark"),
])
def test_config_and_flags_give_identical_output(tmp_path, command, config, flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config, encoding="utf-8")
    code1, via_config = run_cli(tmp_path, command, "--config", str(cfg), name="config.csv")
    code2, via_flags = run_cli(tmp_path, command, *flags, name="flags.csv")
    _, defaults = run_cli(tmp_path, command, name="defaults.csv")
    assert code1 == code2 == 0
    assert via_config == via_flags != defaults


def test_config_file_not_utf8_is_usage_error_naming_it(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"n = \xff\n")
    out = tmp_path / "never.csv"
    assert main(["sensitivity", "--config", str(cfg), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(cfg) in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("sensitivity", "--scheme", "noon", "--n", "2"),
    ("scaling", "--scheme", "noon", "--n-range", "1:4"),
    ("sample", "--scheme", "noon", "--n", "2"),
], ids=lambda argv: argv[0])
def test_config_keys_of_other_subcommands_are_ignored(tmp_path, argv):
    cfg = tmp_path / "run.cfg"
    # retired keys are skipped too: a cutoff of 1 would drop the populated block 2
    cfg.write_text("n-max = 3\npoints = 7\nnoon-framing = input\ncutoff = 1\nthreads = 4\ninvert-second-bs = true\n",
                   encoding="utf-8")
    code, via_config = run_cli(tmp_path, *argv, "--config", str(cfg), name="config.csv")
    _, defaults = run_cli(tmp_path, *argv, name="defaults.csv")
    assert code == 0
    assert via_config == defaults


@pytest.mark.parametrize("argv", [
    ("sensitivity", "--scheme", "coherent", "--n", "4"),
    ("scaling", "--scheme", "coherent", "--n-range", "1:3"),
    ("sample", "--scheme", "noon", "--n", "2"),
    ("rosetta", "--n-max", "2"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("retired", [
    ("--cutoff", "60"), ("--threads", "4"), ("--invert-second-bs",), ("--no-invert-second-bs",),
], ids=lambda retired: retired[0])
def test_retired_option_is_an_unrecognized_argument(tmp_path, capsys, retired, argv):
    out = tmp_path / "never.csv"
    assert main([*argv, *retired, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: unrecognized arguments: {' '.join(retired)}\n"
    assert not out.exists()


def test_config_file_supplies_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme = noon\nn = 2\nphi-grid = 0.1:3:20\n", encoding="utf-8")
    code, text = run_cli(tmp_path, "sensitivity", "--config", str(cfg), name="c1.csv")
    assert code == 0
    _, rows = rows_of(text)
    assert rows[0][0] == "noon" and rows[0][1] == "2" and len(rows) == 20
    # a flag beats the file
    code, text = run_cli(tmp_path, "sensitivity", "--config", str(cfg), "--n", "3", name="c2.csv")
    assert code == 0
    _, rows = rows_of(text)
    assert rows[0][1] == "3"


def test_output_dir_env_var(tmp_path, monkeypatch):
    outdir = tmp_path / "results"
    monkeypatch.setenv("FOCKMZI_OUTDIR", str(outdir))
    code = main(["hom", "--output", "hom.csv"])
    assert code == 0
    assert (outdir / "hom.csv").exists()
    # absolute paths ignore the env var
    absolute = tmp_path / "abs.csv"
    code = main(["hom", "--output", str(absolute)])
    assert code == 0
    assert absolute.exists()


def test_stdout_when_no_output(capsys):
    assert main(["hom"]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("n_a,n_b,probability\n")
    assert captured.endswith("\n")
    assert "\r" not in captured


def test_seventeen_digit_cells(tmp_path):
    code, text = run_cli(tmp_path, "sensitivity", "--scheme", "single-port-fock",
                         "--n", "1", "--phi-grid", "0.1:1:3")
    assert code == 0
    _, rows = rows_of(text)
    value = rows[0][3]
    # <J_z> of one photon through the interferometer is -cos(phi)/2
    assert float(value) == pytest.approx(-math.cos(0.1) / 2, abs=1e-12)
    mantissa = value.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
    assert len(mantissa) >= 16


@pytest.mark.parametrize("output", ["", "existing-dir"])
def test_unwritable_output_is_usage_error(tmp_path, monkeypatch, capsys, output):
    (tmp_path / "existing-dir").mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FOCKMZI_OUTDIR", raising=False)
    assert main(["hom", f"--output={output}"]) == 1
    err = capsys.readouterr().err
    assert "--output" in err
    assert "Traceback" not in err


SRC = Path(fockmzi.__file__).resolve().parents[1]


def cli_child(*argv: str, stdout) -> subprocess.Popen:
    """`fockmzi` in a fresh interpreter, writing its stdout to the given file or pipe."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.Popen([sys.executable, "-m", "fockmzi.cli", *argv], env=env, stdout=stdout,
                            stderr=subprocess.PIPE, text=True)


def assert_one_stdout_error_line(proc: subprocess.Popen) -> None:
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: stdout cannot be written"), err


def test_stdout_closed_early_is_usage_error():
    proc = cli_child("sensitivity", "--scheme", "noon", "--n", "4", "--phi-grid", "0:1:20000",
                     stdout=subprocess.PIPE)
    assert proc.stdout.readline() == "scheme,n,phi,expectation,variance,sensitivity\n"
    proc.stdout.close()  # the table is far larger than a pipe buffer, so later writes find no reader
    assert_one_stdout_error_line(proc)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_on_full_device_is_usage_error():
    with open("/dev/full", "w") as full:
        proc = cli_child("hom", stdout=full)
    assert_one_stdout_error_line(proc)


def test_out_of_memory_is_one_error_line_and_exit_two():
    resource = pytest.importorskip("resource")
    limit = 1_000_000 * 1024  # bytes of address space, below the 1.49 GiB phase table this command needs

    def cap_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "fockmzi.cli", "sensitivity", "--scheme", "noon",
                           "--n", "1000000", "--phi-grid", "0:3.1:100"], env=env, capture_output=True, text=True,
                          timeout=120, preexec_fn=cap_address_space)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("out of memory: Unable to allocate"), proc.stderr


def test_n_range_too_long_to_list_names_the_flag_and_its_size_count():
    """The sizes of --n-range are listed before anything counts them; a range no memory can list exits 2 with
    a line naming the flag and how many sizes it holds.  The child's address space is capped, so no
    allocation of that list can succeed."""
    resource = pytest.importorskip("resource")
    limit = 1_000_000 * 1024

    def cap_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    spec = "1000000000000:1000000000000002"
    proc = subprocess.run([sys.executable, "-m", "fockmzi.cli", "scaling", "--scheme", "single-port-fock",
                           "--n-range", spec, "--metric", "fisher", "--phi-grid", "0:1:3"], env=env,
                          capture_output=True, text=True, timeout=120, preexec_fn=cap_address_space)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"out of memory: --n-range '{spec}' holds {10**15 - 10**12 + 3} sizes, "
                           "more than memory can list\n")


def test_largest_shot_count_accepted(tmp_path):
    code, text = run_cli(tmp_path, "sample", "--scheme", "noon", "--n", "2", "--shots", str(2**63 - 1))
    assert code == 0
    _, rows = rows_of(text)
    assert sum(int(r[2]) for r in rows) == 2**63 - 1


def test_unknown_scheme_is_usage_error(tmp_path):
    out = tmp_path / "never.csv"
    code = main(["sensitivity", "--scheme", "thermal", "--n", "2", "--output", str(out)])
    assert code == 1
    assert not out.exists()


def test_scaling_rejects_wrong_parity_range(tmp_path):
    out = tmp_path / "never.csv"
    code = main(["scaling", "--scheme", "yurke-fermionic-analog",
                 "--n-range", "2:8:2", "--output", str(out)])
    assert code == 1
    assert not out.exists()


def test_negative_seed_accepted(tmp_path):
    code, text = run_cli(tmp_path, "sample", "--scheme", "noon", "--n", "2",
                         "--phi", "0.4", "--shots", "100", "--seed", "-12345")
    assert code == 0
    _, rows = rows_of(text)
    assert sum(int(r[2]) for r in rows) == 100
