"""Output checks that decide whether one CLI invocation completed.

One operation is one invocation plus its check.  It fails on an exit code
other than 0 or 1, a missing result file, any failed check, or an exit
code that disagrees with the certificate verdicts the files carry (exit 1
exactly when some verdict is false, so a known-red certificate counts as
completed).  The checks recompute reported values by an independent path:

- scan-t1, scan-t3: |L| at the reported argmax by the single-character
  `l_value`, to 1e-9;
- scan-t3: both dual-route residuals of the attached certificate <= 1e-9;
- census: counts nondecreasing along the delta grid and <= q - 2;
- certify: S1 and S2 by the character (group DFT) route, to 1e-9
  relative, and ratio >= the provable finite-chain bound;
- oracle-check: "all checks passed" on stdout.

Every check runs after the timed passes.  `compare_to_reference` adds a
comparison against a record taken at a fixed commit: floats to 1e-9
relative, integers, strings and verdicts exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field

TOL = 1e-9
# `ratio >= provable_bound` holds up to the rounding of both sums
BOUND_ROUNDING = 1e-12

_ORACLE_LINE = re.compile(r"^q=(\d+)\s+(.+?)\s+(PASS|FAIL)\b")


@dataclass
class Outcome:
    """What one CLI invocation left behind."""

    argv: list[str]
    exit: int
    stdout: str = ""
    files: dict[str, bytes] = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def q_list(self) -> list[int]:
        return [int(q) for q in self.argv[self.argv.index("--q") + 1].split(",")]

    @property
    def sigma(self) -> float:
        return float(self.argv[self.argv.index("--sigma") + 1]) if "--sigma" in self.argv else 1.0

    def csv_rows(self, q: int) -> list[dict]:
        text = self.files[f"{self.command}_q{q}.csv"].decode("utf-8")
        return list(csv.DictReader(io.StringIO(text)))

    def report(self, q: int) -> dict:
        return json.loads(self.files[f"{self.command}_q{q}.json"])


def close(a: float, b: float, tol: float = TOL) -> bool:
    """|a - b| <= tol * max(|a|, |b|, 1)."""
    return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


class ProgramOracle:
    """Recomputes checked values with the program's single-character and
    character-route functions; imported only when a check first needs them."""

    def __init__(self):
        self._groups = {}

    def _group(self, q: int):
        from lextremes.chargroup import build_group

        if q not in self._groups:
            self._groups[q] = build_group(q)
        return self._groups[q]

    def abs_l(self, q: int, index: int, sigma: float) -> float:
        from lextremes.lfunc import l_value

        return abs(l_value(self._group(q).character(index), sigma).value)

    def quotient_sums(self, q: int, cutoff: float, y: float, n: int, k: int) -> tuple[complex, float]:
        from lextremes.resonance import square_sum_characters, weighted_sum_characters
        from lextremes.resonator import linear_scheme

        scheme = linear_scheme(cutoff)
        group = self._group(q)
        return (
            weighted_sum_characters(group, scheme, 1.0, y, n, k),
            square_sum_characters(group, scheme, n),
        )


def check_argmax(q: int, sigma: float, row: dict, report: dict, oracle) -> list[str]:
    """The reported maximum is |L| at the reported argmax."""
    reported = float(row["max_abs_l"])
    index = int(report["argmax_index"])
    recomputed = oracle.abs_l(q, index, sigma)
    if not close(reported, recomputed):
        return [f"q={q}: max_abs_l {reported!r} but |L(chi_{index})| = {recomputed!r}"]
    return []


def check_routes(q: int, report: dict) -> list[str]:
    extras = report["quotient"]["extras"]
    return [
        f"q={q}: {key} = {extras[key]!r} > {TOL}"
        for key in ("s1_route_rel_diff", "s2_route_rel_diff")
        if not extras[key] <= TOL
    ]


def check_census(q: int, rows: list[dict]) -> list[str]:
    counts = [int(row["count"]) for row in rows]
    problems = []
    if any(b < a for a, b in zip(counts, counts[1:])):
        problems.append(f"q={q}: census counts {counts} decrease along the delta grid")
    if any(not 0 <= c <= q - 2 for c in counts):
        problems.append(f"q={q}: census counts {counts} outside [0, q-2]")
    return problems


def check_certificate(q: int, row: dict, report: dict, oracle) -> list[str]:
    s1 = complex(float(row["s1_real"]), float(row["s1_imag"]))
    s2 = float(row["s2"])
    s1_char, s2_char = oracle.quotient_sums(q, float(row["cutoff"]), float(row["y"]), int(row["n"]), int(row["k"]))
    problems = []
    if not abs(s1 - s1_char) <= TOL * abs(s1):
        problems.append(f"q={q}: S1 {s1!r} vs character route {s1_char!r}")
    if not abs(s2 - s2_char) <= TOL * abs(s2):
        problems.append(f"q={q}: S2 {s2!r} vs character route {s2_char!r}")
    ratio, bound = float(row["ratio"]), report["report"]["extras"]["provable_bound"]
    if not ratio >= bound * (1 - BOUND_ROUNDING):
        problems.append(f"q={q}: ratio {ratio!r} below the provable bound {bound!r}")
    return problems


def _verdict(value: str) -> bool:
    if value not in ("true", "false"):
        raise ValueError(f"verdict cell {value!r} is neither true nor false")
    return value == "true"


def check(outcome: Outcome, oracle) -> list[str]:
    """Problems with one invocation's output; empty when it completed."""
    if outcome.exit not in (0, 1):
        return [f"exit code {outcome.exit}"]
    if outcome.command == "oracle-check":
        if outcome.exit != 0 or "all checks passed" not in outcome.stdout:
            return ["oracle-check did not report 'all checks passed'"]
        return []
    missing = [
        name
        for q in outcome.q_list
        for name in (f"{outcome.command}_q{q}.csv", f"{outcome.command}_q{q}.json")
        if name not in outcome.files
    ]
    if missing:
        return [f"missing result files {missing}"]
    problems: list[str] = []
    verdicts: list[bool] = []
    try:
        for q in outcome.q_list:
            rows = outcome.csv_rows(q)
            report = outcome.report(q)
            if outcome.command in ("scan-t1", "scan-t3"):
                problems += check_argmax(q, outcome.sigma, rows[0], report, oracle)
            if outcome.command == "scan-t3":
                problems += check_routes(q, report)
                verdicts.append(bool(report["quotient"]["certificate"]["passed"]))
            if outcome.command == "census":
                problems += check_census(q, rows)
            if outcome.command == "certify":
                problems += check_certificate(q, rows[0], report, oracle)
                verdicts.append(_verdict(rows[0]["certificate_passed"]))
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        return problems + [f"unreadable result: {exc!r}"]
    expected_exit = 0 if all(verdicts) else 1
    if outcome.exit != expected_exit:
        problems.append(f"exit code {outcome.exit} but the verdicts {verdicts} call for {expected_exit}")
    return problems


def same_output(first: Outcome, later: Outcome) -> list[str]:
    """A repeat of a checked invocation completes when it exits the same way
    and writes byte-identical CSV (the CLI promises reproducible CSV)."""
    if later.exit != first.exit:
        return [f"exit code {later.exit}, first pass {first.exit}"]
    if first.command == "oracle-check":
        return [] if "all checks passed" in later.stdout else ["oracle-check did not report 'all checks passed'"]
    wanted = sorted(name for name in first.files if name.endswith(".csv"))
    return [f"{name} differs from the first pass" for name in wanted if later.files.get(name) != first.files[name]]


# ----------------------------------------------------------------------
# reference record


def _cell(text: str):
    if text in ("true", "false", ""):
        return text
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def record(outcome: Outcome) -> dict:
    """The parts of an invocation's output that the reference keeps."""
    entry = {"argv": outcome.argv, "exit": outcome.exit}
    if outcome.command == "oracle-check":
        entry["checks"] = [list(m.groups()) for line in outcome.stdout.splitlines() if (m := _ORACLE_LINE.match(line))]
    else:
        entry["csv"] = {
            name: data.decode("utf-8").splitlines()
            for name, data in sorted(outcome.files.items())
            if name.endswith(".csv")
        }
    return entry


def _same_cell(ref: str, got: str) -> bool:
    a, b = _cell(ref), _cell(got)
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=TOL)
    return a == b


def compare_to_reference(outcomes: list[Outcome], reference: list[dict]) -> list[str]:
    """Differences between one pass and the reference record of the same inputs."""
    if len(outcomes) != len(reference):
        return [f"{len(outcomes)} invocations, reference has {len(reference)}"]
    problems = []
    for outcome, ref in zip(outcomes, reference):
        got = record(outcome)
        label = " ".join(ref["argv"])
        if got["argv"] != ref["argv"]:
            problems.append(f"invocation {got['argv']} but the reference ran {ref['argv']}")
            continue
        if got["exit"] != ref["exit"]:
            problems.append(f"{label}: exit {got['exit']}, reference {ref['exit']}")
        if "checks" in ref and got["checks"] != ref["checks"]:
            problems.append(f"{label}: checks {got['checks']}, reference {ref['checks']}")
        for name, ref_lines in ref.get("csv", {}).items():
            lines = got["csv"].get(name)
            if lines is None or len(lines) != len(ref_lines) or lines[0] != ref_lines[0]:
                problems.append(f"{label}: {name} has other rows or columns than the reference")
                continue
            header = ref_lines[0].split(",")
            for ref_line, line in zip(ref_lines[1:], lines[1:]):
                ref_row, row = ref_line.split(","), line.split(",")
                if len(row) != len(ref_row):
                    problems.append(f"{label}: {name} has a row of {len(row)} cells, reference {len(ref_row)}")
                    continue
                problems += [
                    f"{label}: {name} {column} = {b}, reference {a}"
                    for column, a, b in zip(header, ref_row, row)
                    if not _same_cell(a, b)
                ]
    return problems
