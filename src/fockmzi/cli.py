"""Command-line experiment runner.

Subcommands configure a scheme, sweep the phase or the photon number, and
emit deterministic comma-separated tables: header line first, `#`-prefixed
footer lines for fit results, LF endings, every numeric cell at 17
significant digits.  Each run_* returns its table as (header, rows,
footers) and main writes it.  Exit codes: 0 success, 1 usage error, 2
numerical failure or out of memory.
"""

import argparse
import itertools
import math
import os
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

# only the modules the parser needs (and the fock they import); each run_*
# imports the rest itself, so a command loads only the modules it runs
from .elements import CONVENTIONS, ONE_ARM, SPLITTER, InterferometerPipeline
from .fock import NumericalFailure, make_basis_state
from .states import SCHEME_NAMES, SchemeTag

OUTDIR_ENV = "FOCKMZI_OUTDIR"
_LINES_PER_WRITE = 1000

Table = tuple[list[str], list[Sequence[str]], list[str]]  # header, rows, footers


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of exiting; flags must be spelled in full, so
    `scaling --n` is an error, not an abbreviation of `--n-range`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def fmt(value) -> str:
    """One numeric cell, formatted as a one-cell column."""
    return fmt_column([value])[0]


def fmt_column(values) -> list[str]:
    """The cells of a 1-d numeric column, formatted in one pass: ints verbatim, floats at 17 significant digits."""
    column = np.asarray(values)
    if column.dtype.kind in "iu":
        return list(map(str, column.tolist()))
    return list(map(float.__format__, column.astype(float, copy=False).tolist(), itertools.repeat(".17g")))


def parse_grid(spec: str) -> np.ndarray:
    """Phase grid 'start:stop:count' with inclusive endpoints."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"--phi-grid {spec!r} must be start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"--phi-grid {spec!r}: {exc}") from None
    if count < 2:
        raise UsageError(f"--phi-grid {spec!r}: count must be >= 2")
    if not math.isfinite(stop - start):  # also catches an infinite or NaN endpoint
        raise UsageError(f"--phi-grid {spec!r}: endpoints and their span must be finite")
    if not start < stop:
        raise UsageError(f"--phi-grid {spec!r}: start must be below stop")
    return np.linspace(start, stop, count)


def parse_n_range(spec: str) -> list[int]:
    """Inclusive integer range 'start:stop[:step]'."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise UsageError(f"--n-range {spec!r} must be start:stop[:step]")
    try:
        start, stop = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError as exc:
        raise UsageError(f"--n-range {spec!r}: {exc}") from None
    if step < 1 or stop < start:
        raise UsageError(f"--n-range {spec!r}: need stop >= start and step >= 1")
    sizes = range(start, stop + 1, step)
    try:
        return list(sizes)
    except MemoryError:
        raise MemoryError(f"--n-range {spec!r} holds {len(sizes)} sizes, more than memory can list") from None


def load_config_file(path: str) -> dict[str, str]:
    """key = value lines; '#' comments and blank lines ignored, and so is a UTF-8 byte-order mark."""
    entries = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


_NOT_OPTIONS = ("command", "run", "config")


def _config_flags(path: str, options: dict) -> list[str]:
    """Config entries as flags of the subcommand whose parsed `options` are given.

    A key becomes `--key=value` (so values starting with '-' parse); keys the
    subcommand does not define are skipped.
    """
    flags = []
    for key, value in load_config_file(path).items():
        dest = key.replace("-", "_")
        if "_" not in key and dest not in _NOT_OPTIONS and dest in options:
            flags.append(f"--{key}={value}")
    return flags


def resolve_output_path(output: str | None) -> Path | None:
    if output is None:
        return None
    path = Path(output)
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not path.is_absolute():
        path = Path(outdir) / path
    return path


def write_table(path: Path | None, header: list[str], rows: list[Sequence[str]], footers: list[str]) -> None:
    lines = itertools.chain([",".join(header)], (",".join(row) for row in rows),
                            (f"# {footer}" for footer in footers))
    if path is None:
        try:
            _write_lines(sys.stdout, lines)
            sys.stdout.flush()
        except OSError as exc:  # e.g. a closed pipe or a full device
            # the text still buffered goes to the null device, so the flush at exit cannot fail again
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            raise UsageError(f"stdout cannot be written: {exc.strerror or exc}") from None
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", newline="\n") as out:
            _write_lines(out, lines)
    except OSError as exc:  # e.g. the path names a directory
        raise UsageError(f"--output {str(path)!r} cannot be written: {exc.strerror or exc}") from None


def _write_lines(out, lines) -> None:
    """Write LF-terminated lines, _LINES_PER_WRITE to a write: the text held at
    once stays bounded, and an unbuffered stream is not written line by line."""
    while chunk := list(itertools.islice(lines, _LINES_PER_WRITE)):
        out.write("\n".join(chunk) + "\n")


def _scheme_tag(args) -> SchemeTag:
    try:
        return SchemeTag(args.scheme, args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _setup(args, tag: SchemeTag):
    from .schemes import build_setup

    return build_setup(tag, convention=args.convention)


# the four quantities of a setup, each in closed form for port-A light and from the Fock-space input otherwise

def _sweep(setup, grid: np.ndarray):
    """The setup's mean, variance and sensitivity over the grid."""
    from . import estimation

    if setup.light is not None:
        return estimation.photon_sweep(setup.analysis, setup.light, grid)
    return estimation.phase_sweep(setup.analysis, setup.input_state, setup.observable, grid)


def _fisher(setup, grid: np.ndarray) -> np.ndarray:
    """The setup's Fisher information at each phase of the grid."""
    from . import estimation

    if setup.light is not None:
        return estimation.photon_fisher(setup.light, grid)
    return estimation.classical_fisher(setup.sampling, setup.input_state, grid)


def _sample(setup, phi: float, shots: int, seed: int):
    """The setup's seeded outcome histogram at phi."""
    from . import estimation

    if setup.light is not None:
        return estimation.sample_photons(setup.light, phi, shots, seed)
    return estimation.sample_outcomes(setup.sampling, setup.input_state, phi, shots, seed)


def _posterior(hist, setup, grid: np.ndarray):
    """The setup's posterior over the grid given the histogram."""
    from . import estimation

    if setup.light is not None:
        return estimation.photon_posterior(hist, setup.light, grid)
    return estimation.bayes_posterior(hist, setup.sampling, setup.input_state, grid)


def run_sensitivity(args) -> Table:
    grid = parse_grid(args.phi_grid)
    tag = _scheme_tag(args)
    sweep = _sweep(_setup(args, tag), grid)
    rows = list(zip(itertools.repeat(tag.name), itertools.repeat(fmt(tag.n)), *map(fmt_column, (grid, *sweep))))
    return ["scheme", "n", "phi", "expectation", "variance", "sensitivity"], rows, []


def run_scaling(args) -> Table:
    from . import estimation

    ns = parse_n_range(args.n_range)
    if len(ns) < 3:
        raise UsageError(f"--n-range {args.n_range!r} must contain at least 3 sizes")
    grid = parse_grid(args.phi_grid)
    metric = args.metric
    if metric == "auto":
        metric = "fisher" if args.scheme == "dual-fock" else "min-sensitivity"
    try:
        tags = [SchemeTag(args.scheme, n) for n in ns]
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    column = "fisher" if metric == "fisher" else "min_sensitivity"

    def point(tag: SchemeTag) -> float:
        setup = _setup(args, tag)
        where = f"n={tag.n} metric={column}"
        if metric == "fisher":
            value = float(np.max(_fisher(setup, grid)))
            if value == 0.0:  # the log-log fit needs a positive value
                raise estimation.NoPhaseInformationError(f"{where}: Fisher information is 0 at every grid point")
            return value
        try:
            return estimation.min_sensitivity(grid, _sweep(setup, grid)[2])[1]
        except estimation.NoPhaseInformationError as exc:
            raise estimation.NoPhaseInformationError(f"{where}: {exc}") from None

    values = [point(tag) for tag in tags]
    slope, intercept = estimation.scaling_fit(list(zip(ns, values)))
    rows = [[args.scheme, fmt(n), fmt(v)] for n, v in zip(ns, values)]
    footers = [f"slope={fmt(slope)} intercept={fmt(intercept)} metric={column}"]
    return ["scheme", "n", column], rows, footers


def run_hom(args) -> Table:
    out = InterferometerPipeline(ONE_ARM, before=SPLITTER).evolve(make_basis_state(1, 1), 0.0)
    rows = [[fmt(na), fmt(nb), fmt(p)] for (na, nb), p in out.probabilities().items()]
    return ["n_a", "n_b", "probability"], rows, []


def run_litho(args) -> Table:
    from .lithography import deposition_rate, fringe_period

    n, points, lam = args.n, args.points, args.wavelength
    if n < 1:
        raise UsageError(f"--n must be >= 1, got {n}")
    if points < 192:
        raise UsageError(f"--points must be >= 192 (three periods at 64 points each), got {points}")
    if not (math.isfinite(lam) and lam > 0):
        raise UsageError(f"--wavelength must be positive and finite, got {lam}")
    single_period = 2.0 * lam
    # the largest phases: pi x at the grid end x = 6.5 wavelength, and the noon curve's n * 6.5 pi
    if not math.isfinite(math.pi * (3.25 * single_period)):
        raise NumericalFailure(f"--wavelength {lam!r}: pi times the grid end, 6.5 * wavelength, is not finite")
    if n > sys.float_info.max / (6.5 * math.pi):  # an int comparison, exact even past the float range
        raise NumericalFailure("--n is too large: n times the largest phase, 6.5 * pi, is not finite")
    if math.ulp(single_period / n) > 1e-9 * (single_period / n):  # zero or subnormal: one float step is too coarse
        raise NumericalFailure(f"--wavelength {lam!r} and --n {n}: the noon period 2 * wavelength / n, "
                               f"{single_period / n:.3g}, is too small to resolve")

    # shared grid for the table; periods measured on per-kind grids (three
    # periods each, offset a quarter period so maxima are interior)
    shared_x = np.linspace(0.25 * single_period, 3.25 * single_period, points)
    curves = {
        "single": deposition_rate("single", 1, shared_x, lam),
        "classical_two_photon": deposition_rate("classical-two-photon", 2, shared_x, lam),
        f"noon_{n}": deposition_rate("noon", n, shared_x, lam),
    }
    rows = list(zip(*map(fmt_column, (shared_x, *curves.values()))))

    def measured_period(kind: str, nn: int) -> float:
        period = single_period / (nn if kind == "noon" else 1)
        xs = np.linspace(0.25 * period, 3.25 * period, points)
        return fringe_period(xs, deposition_rate(kind, nn, xs, lam))

    p_single = measured_period("single", 1)
    p_classical = measured_period("classical-two-photon", 2)
    p_noon = measured_period("noon", n)
    footers = [
        f"period_single={fmt(p_single)}",
        f"period_classical_two_photon={fmt(p_classical)}",
        f"period_noon={fmt(p_noon)}",
        f"period_ratio_single_over_noon={fmt(p_single / p_noon)}",
    ]
    return ["x"] + list(curves), rows, footers


def run_rosetta(args) -> Table:
    from . import rosetta

    if not 1 <= args.n_max <= rosetta.MAX_QUBITS:
        raise UsageError(f"--n-max must be in [1, {rosetta.MAX_QUBITS}], got {args.n_max}")
    grid = parse_grid(args.phi_grid)

    phis = fmt_column(grid)
    rows, worst = [], 0.0
    for n in range(1, args.n_max + 1):
        qubit_values, fock_values = rosetta.flip_expectations(n, grid)
        discrepancy = np.abs(qubit_values - fock_values)
        rows.extend(zip(itertools.repeat(fmt(n)), phis, *map(fmt_column, (qubit_values, fock_values, discrepancy))))
        worst = max(worst, float(np.max(discrepancy)))
    return ["n", "phi", "qubit_value", "fock_value", "discrepancy"], rows, [f"max_discrepancy={fmt(worst)}"]


def run_sample(args) -> Table:
    from . import estimation

    if not math.isfinite(args.phi):
        raise UsageError(f"--phi must be finite, got {args.phi}")
    if not 0 <= args.shots < 2**63:
        raise UsageError(f"--shots must be in [0, 2**63), got {args.shots}")
    if not -(2**63) <= args.seed < 2**64:
        raise UsageError(f"--seed must be a 64-bit integer, signed or not, in [-2**63, 2**64), got {args.seed}")
    if args.bayes_points < 2:
        raise UsageError(f"--bayes-points must be >= 2, got {args.bayes_points}")
    tag = _scheme_tag(args)
    setup = _setup(args, tag)
    hist = _sample(setup, args.phi, args.shots, args.seed)
    ordered = sorted(hist.counts.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][1]))
    rows = [[fmt(na), fmt(nb), fmt(c)] for (na, nb), c in ordered]
    footers = []
    if args.estimator == "bayes":
        grid = np.linspace(0.0, setup.likelihood_period, args.bayes_points, endpoint=False)
        posterior = _posterior(hist, setup, grid)
        footers.append(f"posterior_mean={fmt(estimation.posterior_mean(posterior))}")
        footers.append(f"posterior_std={fmt(estimation.posterior_std(posterior))}")
    return ["n_a", "n_b", "count"], rows, footers


def _add_scheme_options(sub, scheme: str, n: int | None):
    """Scheme flags with this subcommand's defaults; n=None means no --n (scaling sweeps it)."""
    sub.add_argument("--scheme", choices=SCHEME_NAMES, default=scheme)
    if n is not None:
        sub.add_argument("--n", type=int, default=n)
    sub.add_argument("--convention", choices=CONVENTIONS, default=ONE_ARM)


def _add_common(sub):
    sub.add_argument("--output", help=f"output file; relative paths land under ${OUTDIR_ENV} when set")
    sub.add_argument("--config", help="key = value file supplying defaults; flags win")


def build_parser() -> _Parser:
    parser = _Parser(prog="fockmzi", description="Two-mode Fock interferometry experiments.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("sensitivity", help="phase sweep of expectation/variance/sensitivity")
    _add_scheme_options(s, "single-port-fock", 1)
    s.add_argument("--phi-grid", default="0:3.1415926535897931:100", help="start:stop:count, inclusive endpoints")
    _add_common(s)
    s.set_defaults(run=run_sensitivity)

    s = subs.add_parser("scaling", help="photon-number sweep with log-log fit")
    _add_scheme_options(s, "noon", None)
    s.add_argument("--n-range", default="1:20", help="start:stop[:step], inclusive")
    s.add_argument("--phi-grid", default="0.005:3.1365926535897931:800", help="phase grid searched per size")
    s.add_argument("--metric", choices=("auto", "min-sensitivity", "fisher"), default="auto")
    _add_common(s)
    s.set_defaults(run=run_scaling)

    s = subs.add_parser("hom", help="two-photon coincidence suppression at a 50/50 splitter")
    _add_common(s)
    s.set_defaults(run=run_hom)

    s = subs.add_parser("litho", help="deposition-rate curves and fringe-period ratios")
    s.add_argument("--n", type=int, default=2, help="photon number of the path-entangled exposure")
    s.add_argument("--points", type=int, default=512, help="samples per curve")
    s.add_argument("--wavelength", type=float, default=1.0)
    _add_common(s)
    s.set_defaults(run=run_litho)

    s = subs.add_parser("rosetta", help="qubit-circuit vs Fock cross-check table")
    s.add_argument("--n-max", type=int, default=12)
    s.add_argument("--phi-grid", default="0:6.2831853071795862:100")
    _add_common(s)
    s.set_defaults(run=run_rosetta)

    s = subs.add_parser("sample", help="seeded outcome histogram, optional Bayesian estimate")
    _add_scheme_options(s, "noon", 2)
    s.add_argument("--phi", type=float, default=0.0, help="true phase used for sampling")
    s.add_argument("--shots", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--estimator", choices=("none", "bayes"), default="none")
    s.add_argument("--bayes-points", type=int, default=2048)
    _add_common(s)
    s.set_defaults(run=run_sample)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config entries go in as flags ahead of the explicit ones, which therefore win
            args = parser.parse_args([args.command, *_config_flags(args.config, vars(args)), *argv[1:]])
        write_table(resolve_output_path(args.output), *args.run(args))
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"out of memory: {exc}" if str(exc) else "out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
