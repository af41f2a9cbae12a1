"""Output check for one benchmark repetition.

Every output row the program writes is one attempted operation: each sweep
row, each row of the two `best` tables and each chart. A row fails when it
is missing, malformed, or breaks a check below; the failures are the
benchmark's failed operations.

On every seed:
- the sweep holds exactly the workload's (T, scheme) grid, in order, with the
  requested N and seed;
- every numeric value is finite, and `cmi_ab_given_e` is empty only where
  the 2^b x 2^b x 2^b histogram can exceed the program's 2^24-cell budget;
- delta_direct == i_ab - max(i_ae, i_be) and delta_reverse == i_ab - i_be,
  to the resolution of the nine printed significant digits;
- symbol MI is identical across numberings for each (T, positioning, bits);
- each `best` row names the scheme the documented tie-break picks from the
  sweep rows, and each chart is an SVG document.

On REFERENCE_SEED the 19 seed-era columns and both `best` tables must also
match, cell for cell, the reference written by `make_reference.py`. Columns
are matched by name, so the program may add columns.
"""

from __future__ import annotations

import csv
import math
import os
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from workloads import BEST_MODES, CHARTS, CSV_NAME, REFERENCE_DIR, REFERENCE_SEED, Workload

# The sweep CSV schema of the seed version, checked by name.
SEED_COLUMNS = (
    "transmission", "positioning", "numbering", "bits", "samples", "seed",
    "i_ab", "i_ae", "i_be", "i_ab_sym", "i_ae_sym", "i_be_sym",
    "ber_ab", "ber_ae", "ber_be", "delta_direct", "delta_reverse",
    "cmi_ab_given_e", "label_collisions",
)
FLOAT_COLUMNS = SEED_COLUMNS[6:18]
SYMBOL_COLUMNS = ("i_ab_sym", "i_ae_sym", "i_be_sym")
CMI_CELL_CAPACITY = 1 << 24


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str, rows: int = 1) -> None:
        self.failed += rows
        if len(self.problems) < 20:
            self.problems.append(problem)


def _ulp9(text: str) -> float:
    """Half a unit in the last place of a value printed with 9 significant digits."""
    x = abs(float(text))
    if x == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(x)) - 8)


def _agrees(printed: str, *terms: tuple[str, float]) -> bool:
    """Whether ``printed`` equals sum(sign * value) to the printed resolution."""
    exact = sum(sign * float(text) for text, sign in terms)
    slack = _ulp9(printed) + sum(_ulp9(text) for text, _ in terms)
    return abs(float(printed) - exact) <= slack * (1 + 1e-9) + 1e-15


def _row_problem(row: dict) -> str | None:
    for col in FLOAT_COLUMNS:
        text = row[col]
        if col == "cmi_ab_given_e" and text == "":
            if 8 ** int(row["bits"]) <= CMI_CELL_CAPACITY:
                return "cmi_ab_given_e missing below the capacity limit"
            continue
        try:
            value = float(text)
        except (TypeError, ValueError):
            return f"{col}={text!r} is not a number"
        if not math.isfinite(value):
            return f"{col}={text!r} is not finite"
    if not (row["label_collisions"] or "").isdigit():
        return f"label_collisions={row['label_collisions']!r}"
    larger = max((row["i_ae"], row["i_be"]), key=float)
    if not _agrees(row["delta_direct"], (row["i_ab"], 1), (larger, -1)):
        return "delta_direct != i_ab - max(i_ae, i_be)"
    if not _agrees(row["delta_reverse"], (row["i_ab"], 1), (row["i_be"], -1)):
        return "delta_reverse != i_ab - i_be"
    return None


def _read(path: str) -> tuple[list[str], list[dict]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def _winner(rows: list[dict], mode: str) -> str:
    """The documented tie-break: max delta, then fewer bits, lower BER, scheme name."""
    return min(
        (-float(r[f"delta_{mode}"]), int(r["bits"]), float(r["ber_ab"]),
         f"{r['positioning']}:{r['numbering']}:{r['bits']}")
        for r in rows
    )[3]


def check_outputs(workload: Workload, seed: int, outdir: str) -> Result:
    """Check every output of one repetition written to ``outdir``."""
    result = Result()
    reference = os.path.join(REFERENCE_DIR, workload.reference)
    compare = seed == REFERENCE_SEED
    expected = [
        (f"{t:.9g}", pos, num, str(b))
        for t in workload.t_grid
        for pos, num, b in workload.schemes
    ]
    ts = list(dict.fromkeys(key[0] for key in expected))

    result.attempted += len(expected)
    rows: list[dict] = []
    try:
        header, rows = _read(os.path.join(outdir, CSV_NAME))
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        result.fail(f"sweep CSV unreadable: {exc}", len(expected))
    else:
        missing = [c for c in SEED_COLUMNS if c not in header]
        if missing:
            result.fail(f"sweep CSV lacks columns {missing}", len(expected))
            rows = []
        elif len(rows) != len(expected):
            result.fail(f"sweep CSV has {len(rows)} rows, expected {len(expected)}",
                        abs(len(rows) - len(expected)))
            result.attempted += max(0, len(rows) - len(expected))
    ref_rows = _read(os.path.join(reference, CSV_NAME))[1] if compare else []

    by_t = defaultdict(list)  # rows that passed their own checks
    bad_t = set(ts[len(rows) // len(workload.schemes):])  # T with missing rows
    for i, (key, row) in enumerate(zip(expected, rows)):
        got = tuple(row[c] for c in ("transmission", "positioning", "numbering", "bits"))
        if got != key:
            problem = f"row {i} is {got}, expected {key}"
        elif (row["samples"], row["seed"]) != (str(workload.samples), str(seed)):
            problem = f"row {i} has samples/seed {row['samples']}/{row['seed']}"
        else:
            problem = _row_problem(row)
        if problem is None and compare:
            diff = [c for c in SEED_COLUMNS if row[c] != ref_rows[i][c]]
            if diff:
                problem = f"row {i} differs from the reference in {diff}"
        if problem is None:
            by_t[key[0]].append(row)
        else:
            result.fail(problem)
            bad_t.add(key[0])

    # Symbol MI ignores the numbering: rows off their group's common value fail.
    for t, members in by_t.items():
        groups = defaultdict(list)
        for r in members:
            groups[(r["positioning"], r["bits"])].append(r)
        for (pos, bits), group in groups.items():
            common = {c: Counter(r[c] for r in group).most_common(1)[0][0] for c in SYMBOL_COLUMNS}
            for r in group:
                if any(r[c] != common[c] for c in SYMBOL_COLUMNS):
                    result.fail(f"symbol MI at T={t} {pos}:{r['numbering']}:{bits} "
                                "differs from the other numberings")
                    bad_t.add(t)

    for mode in BEST_MODES:
        name = f"best_{mode}.csv"
        result.attempted += len(ts)
        try:
            best_header, best_rows = _read(os.path.join(outdir, name))
        except (OSError, csv.Error, UnicodeDecodeError) as exc:
            result.fail(f"{name} unreadable: {exc}", len(ts))
            continue
        if best_header != ["transmission", "scheme"] or len(best_rows) != len(ts):
            result.fail(f"{name} has header {best_header} and {len(best_rows)} rows", len(ts))
            continue
        ref_best = _read(os.path.join(reference, name))[1] if compare else []
        for i, (t, row) in enumerate(zip(ts, best_rows)):
            if row["transmission"] != t:
                result.fail(f"{name} row {i} is T={row['transmission']}, expected {t}")
            elif t in bad_t:
                result.fail(f"{name} T={t} rests on sweep rows that failed")
            elif row["scheme"] != _winner(by_t[t], mode):
                result.fail(f"{name} T={t} names {row['scheme']}, "
                            f"the sweep gives {_winner(by_t[t], mode)}")
            elif compare and row != ref_best[i]:
                result.fail(f"{name} row {i} differs from the reference")

    for _, _, svg in CHARTS:
        result.attempted += 1
        try:
            root = ET.parse(os.path.join(outdir, svg)).getroot()
        except (OSError, ET.ParseError) as exc:
            result.fail(f"{svg}: {exc}")
            continue
        if not root.tag.endswith("svg"):
            result.fail(f"{svg} root element is {root.tag}")
    return result
