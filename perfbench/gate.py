"""Output gate: reference tables from the seed commit, cell by cell, plus
physics invariants that hold independently of any reference.

Tolerances:
- integer cells, `inf` cells and text cells match exactly;
- float cells match within REL_TOL relative, with an ABS_FLOOR absolute floor
  for roundoff-sized cells such as expectations at interference nulls;
- loose columns (the central-difference `fisher` column) and the fit footer
  of a loose table match within LOOSE_REL_TOL, so an exact analytic Fisher
  information still passes against the seed's finite differences.
"""

import gzip
import re
from dataclasses import dataclass
from pathlib import Path

REL_TOL = 1e-9
ABS_FLOOR = 1e-12
LOOSE_REL_TOL = 1e-6

REFS = Path(__file__).resolve().parent / "refs"
_INT = re.compile(r"-?\d+\Z")


@dataclass(frozen=True)
class Table:
    header: list[str]
    rows: list[list[str]]
    footers: dict[str, str]  # key=value tokens of the '# ' footer lines

    def column(self, name: str) -> list[str]:
        i = self.header.index(name)
        return [row[i] for row in self.rows]


def parse_table(text: str) -> Table:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty output")
    body = [line for line in lines if not line.startswith("#")]
    footers = {}
    for line in lines:
        if line.startswith("# "):
            for token in line[2:].split():
                key, _, value = token.partition("=")
                footers[key] = value
    return Table(body[0].split(","), [line.split(",") for line in body[1:]], footers)


def load_reference(stem: str) -> str:
    with gzip.open(REFS / f"{stem}.csv.gz", "rt", encoding="utf-8", newline="") as f:
        return f.read()


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _cell_problem(got: str, want: str, exact: bool, rel: float) -> bool:
    if exact or want in ("inf", "-inf", "nan") or not _is_float(want):
        return got != want
    if not _is_float(got):
        return True
    g, w = float(got), float(want)
    return not abs(g - w) <= max(rel * abs(w), ABS_FLOOR)


def compare(table: Table, ref: Table, loose_columns=()) -> list[str]:
    """Problems found comparing an output table with its reference."""
    if table.header != ref.header:
        return [f"header {table.header} != reference {ref.header}"]
    if len(table.rows) != len(ref.rows):
        return [f"{len(table.rows)} rows != reference {len(ref.rows)}"]
    if set(table.footers) != set(ref.footers):
        return [f"footer keys {sorted(table.footers)} != reference {sorted(ref.footers)}"]
    problems = []
    for j, name in enumerate(ref.header):
        # a column is integer when every reference cell is; a float column may hold "0"
        exact = all(_INT.match(row[j]) for row in ref.rows)
        rel = LOOSE_REL_TOL if name in loose_columns else REL_TOL
        for i, (row, ref_row) in enumerate(zip(table.rows, ref.rows)):
            if len(row) != len(ref_row):
                return [f"row {i} has {len(row)} cells, reference {len(ref_row)}"]
            if _cell_problem(row[j], ref_row[j], exact, rel):
                problems.append(f"row {i} column {name}: {row[j]} != reference {ref_row[j]}")
    footer_rel = LOOSE_REL_TOL if loose_columns else REL_TOL
    for key, want in ref.footers.items():
        if _cell_problem(table.footers[key], want, bool(_INT.match(want)), footer_rel):
            problems.append(f"footer {key}: {table.footers[key]} != reference {want}")
    return problems


def _float_or_none(text: str | None) -> float | None:
    return float(text) if text is not None and _is_float(text) else None


def noon_sensitivity(n: int, rel: float = 1e-10):
    """Path-entangled sensitivity is exactly 1/N at every finite grid point."""
    def check(table: Table) -> list[str]:
        finite = [float(v) for v in table.column("sensitivity") if v != "inf"]
        bad = [v for v in finite if abs(v - 1.0 / n) > rel / n]
        return [f"noon sensitivity {bad[0]!r} != 1/{n} at {len(bad)} points"] if bad or not finite else []
    return check


def max_discrepancy(limit: float):
    """Qubit circuit and Fock simulator agree to roundoff."""
    def check(table: Table) -> list[str]:
        value = _float_or_none(table.footers.get("max_discrepancy"))
        return [] if value is not None and value <= limit else [f"max_discrepancy {value} > {limit}"]
    return check


def period_ratio(n: int, rel: float = 1e-6):
    """Lithography fringe period compresses exactly N-fold."""
    def check(table: Table) -> list[str]:
        value = _float_or_none(table.footers.get("period_ratio_single_over_noon"))
        ok = value is not None and abs(value - n) <= rel * n
        return [] if ok else [f"period ratio {value} != {n}"]
    return check


def hom_coincidence(limit: float):
    """Twin photons never leave a balanced splitter by different ports."""
    def check(table: Table) -> list[str]:
        for row in table.rows:
            if row[0] == "1" and row[1] == "1":
                p = float(row[2])
                return [] if p <= limit else [f"HOM coincidence probability {p} > {limit}"]
        return []  # an exactly-null outcome may be omitted
    return check


def sample(shots: int, phi_true: float, period: float, sigmas: float = 5.0):
    """Counts sum to the shots and the posterior covers the true phase.

    The posterior mean is compared with phi_true modulo the likelihood period.
    """
    def check(table: Table) -> list[str]:
        problems = []
        total = sum(int(c) for c in table.column("count"))
        if total != shots:
            problems.append(f"counts sum to {total}, expected {shots}")
        mean = _float_or_none(table.footers.get("posterior_mean"))
        std = _float_or_none(table.footers.get("posterior_std"))
        if mean is None or std is None:
            return problems + ["missing posterior footers"]
        miss = abs((mean - phi_true + period / 2.0) % period - period / 2.0)
        if not miss <= sigmas * std:
            problems.append(f"|posterior_mean - phi| = {miss} > {sigmas} * posterior_std {std}")
        return problems
    return check


def check_output(command, text: str, refs: dict[str, Table]) -> list[str]:
    """Every problem with one command's stdout; refs caches parsed references by stem."""
    try:
        table = parse_table(text)
        problems = []
        if command.ref is not None:
            if command.ref not in refs:
                refs[command.ref] = parse_table(load_reference(command.ref))
            problems += compare(table, refs[command.ref], command.loose_columns)
        for invariant in command.invariants:
            problems += invariant(table)
    except (ValueError, IndexError, OSError) as exc:
        return [f"unreadable output: {exc}"]
    return problems
