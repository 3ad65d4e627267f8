"""Tests of the benchmark's own code: seed draw, output gate, span recorder.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import layers  # noqa: E402
import moduli  # noqa: E402
import run  # noqa: E402
from spans import SpanRecorder, self_times  # noqa: E402


def _factor(n: int) -> list[int]:
    primes, d = [], 2
    while d * d <= n:
        while n % d == 0:
            primes.append(d)
            n //= d
        d += 1
    return primes + ([n] if n > 1 else [])


@pytest.mark.parametrize("role", sorted(moduli.ROLES))
def test_draw_is_deterministic_and_obeys_its_class(role):
    spec = moduli.ROLES[role]
    for seed in range(6):
        q = moduli.draw(seed, role)
        assert q == moduli.draw(seed, role)
        assert spec.lo <= q <= spec.hi
        assert _factor(q) == [q]
        largest = max(_factor(q - 1))
        if spec.klass == "rough":
            assert largest > 1000
        if spec.klass == "smooth":
            assert largest <= 13
    assert len({moduli.draw(seed, role) for seed in range(20)}) > 1


def test_smooth_band_has_the_41_primes():
    assert len(moduli.candidates("B")) == 41


def _outcome(tmp_path, argv) -> gate.Outcome:
    from lextremes import cli

    code = cli.main([*argv, "--output-dir", str(tmp_path), "--jobs", "1"])
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    return gate.Outcome(argv=argv, exit=code, files=files)


def _edit_csv(outcome: gate.Outcome, name: str, column: str, change) -> None:
    header, row = outcome.files[name].decode().splitlines()
    cells = row.split(",")
    i = header.split(",").index(column)
    cells[i] = repr(change(float(cells[i])))
    outcome.files[name] = f"{header}\n{','.join(cells)}\n".encode()


def test_gate_rejects_a_perturbed_max_abs_l(tmp_path):
    outcome = _outcome(tmp_path, ["scan-t1", "--q", "1009"])
    oracle = gate.ProgramOracle()
    assert gate.check(outcome, oracle) == []
    _edit_csv(outcome, "scan-t1_q1009.csv", "max_abs_l", lambda v: v * (1 + 1e-6))
    problems = gate.check(outcome, oracle)
    assert len(problems) == 1 and "max_abs_l" in problems[0]


def test_gate_rejects_a_route_residual_of_1e_6(tmp_path):
    outcome = _outcome(tmp_path, ["scan-t3", "--q", "1009", "--sigma", "0.75"])
    assert gate.check(outcome, gate.ProgramOracle()) == []
    report = json.loads(outcome.files["scan-t3_q1009.json"])
    report["quotient"]["extras"]["s2_route_rel_diff"] = 1e-6
    outcome.files["scan-t3_q1009.json"] = json.dumps(report).encode()
    problems = gate.check(outcome, gate.ProgramOracle())
    assert len(problems) == 1 and "s2_route_rel_diff" in problems[0]


def test_gate_counts_a_red_certificate_as_completed_only_with_exit_1(tmp_path):
    outcome = _outcome(tmp_path, ["certify", "--q", "10007", "--N", "10000", "--K", "10000"])
    assert outcome.exit == 1  # the known-red certificate at q = 10007
    assert gate.check(outcome, gate.ProgramOracle()) == []
    outcome.exit = 0
    assert gate.check(outcome, gate.ProgramOracle()) != []


def test_reference_comparison_tolerates_1e_12_and_rejects_1e_6(tmp_path):
    outcome = _outcome(tmp_path, ["scan-t1", "--q", "1009"])
    reference = [gate.record(outcome)]
    for factor, agrees in ((1 + 1e-12, True), (1 + 1e-6, False)):
        copy = gate.Outcome(outcome.argv, outcome.exit, files=dict(outcome.files))
        _edit_csv(copy, "scan-t1_q1009.csv", "max_abs_l", lambda v: v * factor)
        assert (gate.compare_to_reference([copy], reference) == []) == agrees


def _toy_modules():
    core = types.ModuleType("toy.core")
    exec(
        "def inner():\n    return 1\n"
        "def outer():\n    return inner() + inner()\n"
        "def _private():\n    return 0\n",
        core.__dict__,
    )
    package = types.ModuleType("toy")
    package.outer = core.outer
    return core, package


def test_span_recorder_self_time_on_a_nested_call():
    core, package = _toy_modules()
    ticks = iter([0.0, 1.0, 3.0, 4.0, 8.0, 10.0])
    recorder = SpanRecorder(clock=lambda: next(ticks))
    assert recorder.install([core, package], "toy.") == ["core.inner", "core.outer"]
    assert package.outer() == 2
    names = [span["name"] for span in recorder.spans]
    assert names == ["core.outer", "core.inner", "core.inner"]
    assert [span["parent"] for span in recorder.spans] == [None, 0, 0]
    assert self_times(recorder.spans) == [10.0 - 2.0 - 4.0, 2.0, 4.0]


def test_span_recorder_restores_the_wrapped_functions():
    core, package = _toy_modules()
    originals = (core.inner, core.outer, core._private)
    recorder = SpanRecorder()
    recorder.install([core, package], "toy.")
    assert core.outer is not originals[1] and package.outer is core.outer
    assert core._private is originals[2]
    recorder.restore()
    assert (core.inner, core.outer, core._private) == originals
    assert package.outer is originals[1]


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
