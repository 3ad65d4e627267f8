"""Benchmark of the `lextremes` command line on seeded moduli.

    python3 bench/run.py --workload sigma1-group --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
Every invocation is a fresh `python -m lextremes.cli ... --jobs 1`
process.  A pass runs every invocation of the workload once, in order;
passes repeat until `--seconds` have been measured (at least one pass).

With `--trace 0` the last stdout line reports the end-to-end metrics:
setup_s (median of fresh `import lextremes.cli` processes), wall_s (median
pass time), peak_rss_mb (median over passes of the largest per-process
peak RSS) and ok_share (completed operations / attempted).  With
`--trace 1` it reports the per-layer metrics of `layers.py`, from one
untraced pass, one traced pass and one tracemalloc pass.  Outputs of every
pass are checked by `gate.py` after the timed passes.  A fuller record
(moduli, factorizations, versions, per-pass numbers, problems) goes to
`.bench_work/result-<workload>-<seed>-<trace>.json`.

`--record` instead runs one pass and stores its outputs as the reference
for that seed in `bench/reference.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

DEFAULT_SEED = 1
SETUP_REPEATS = 3
RUN_DEADLINE_S = 170.0  # every child is killed past this, so a run ends within 180 s

# workload -> (modulus roles, invocations built from the drawn moduli)
WORKLOADS = {
    "sigma1-group": ("AB", lambda m: [
        ["scan-t1", "--q", f"{m['A']},{m['B']}"],
        ["census", "--q", f"{m['A']},{m['B']}"],
    ]),
    "certify-resonance": ("CD", lambda m: [
        ["certify", "--q", f"{m['C']},{m['D']}", "--N", "100000", "--K", "100000"],
    ]),
    "strip-sigma": ("E", lambda m: [
        ["scan-t3", "--q", str(m["E"]), "--sigma", "0.75"],
        ["scan-t3", "--q", str(m["E"]), "--sigma", "0.55"],
    ]),
    "oracle-single": ("F", lambda m: [
        ["oracle-check", "--q", str(m["F"])],
    ]),
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_share": "ratio"}

sys.path[:0] = [str(BENCH), str(SRC)]  # the gate recomputes values with the program
import gate  # noqa: E402
import layers  # noqa: E402
import moduli  # noqa: E402


class Child:
    """Runs one process to completion and reads its own rusage."""

    def __init__(self, env: dict, deadline: float):
        self.env = env
        self.deadline = deadline

    def run(self, cmd: list[str], tag: str) -> dict:
        out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall_s": wall,
            "rss_mb": usage.ru_maxrss / 1024,
            "exit": proc.returncode,
            "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
            "stderr": err_path.read_text(encoding="utf-8", errors="replace"),
        }


def child_command(tag: str, mode: str | None) -> list[str]:
    """The CLI process of one invocation; `mode` "spans" or "malloc" runs it under `spans.py`."""
    if mode is None:
        return [sys.executable, "-m", "lextremes.cli"]
    opts = ["--malloc"] if mode == "malloc" else []
    spans_file = str(WORK / f"{tag}.spans.json")
    return [sys.executable, "-X", "importtime", str(BENCH / "spans.py"), "--out", spans_file, *opts, "--"]


def run_pass(child: Child, invocations: list[list[str]], tag: str, mode: str | None = None) -> dict:
    """One pass: every invocation once, in order, each in a fresh output directory."""
    outdir = WORK / "out"
    results = []
    for i, argv in enumerate(invocations):
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        extra = ["--jobs", "1", "--output-dir", str(outdir)]
        result = child.run([*child_command(f"{tag}-{i}", mode), *argv, *extra], f"{tag}-{i}")
        result["outcome"] = gate.Outcome(
            argv=argv,
            exit=result["exit"],
            stdout=result["stdout"],
            files={p.name: p.read_bytes() for p in outdir.iterdir() if p.is_file()},
        )
        results.append(result)
    return {
        "wall_s": sum(r["wall_s"] for r in results),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
        "invocations": results,
    }


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per module from `-X importtime` output."""
    times = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line.split("|")
            if cumulative.strip().isdigit():
                times[name.strip()] = int(cumulative) / 1e6
    return times


def read_spans(tag: str) -> dict:
    """Spans a traced child wrote; none when it died before writing them."""
    path = WORK / f"{tag}.spans.json"
    return json.loads(path.read_text()) if path.is_file() else {"wrapped": [], "spans": []}


def check_passes(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every invocation of every pass."""
    oracle = gate.ProgramOracle()
    attempted = failed = 0
    problems = []
    firsts = [r["outcome"] for r in passes[0]["invocations"]]
    for n, one_pass in enumerate(passes):
        for first, result in zip(firsts, one_pass["invocations"]):
            outcome = result["outcome"]
            try:
                found = gate.check(outcome, oracle) if n == 0 else gate.same_output(first, outcome)
            except Exception:  # a check that cannot run fails the operation, not the run
                found = [traceback.format_exc(limit=3)]
            attempted += 1
            if found:
                failed += 1
                stderr_tail = result["stderr"].strip().splitlines()[-1:]
                problems += [f"pass {n} {' '.join(outcome.argv)}: {p}" for p in found + stderr_tail]
    return attempted, failed, problems


def machine_info() -> dict:
    try:
        l3 = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        l3 = None
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"python": platform.python_version(), **versions, "nproc": os.cpu_count(), "l3_bytes": l3}


def metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store one pass as the seed's reference")
    args = parser.parse_args(argv)

    if not (SRC / "lextremes" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'lextremes'}; run from the root of a checkout", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    roles, build = WORKLOADS[args.workload]
    drawn = {role: moduli.draw(args.seed, role) for role in roles}
    invocations = build(drawn)

    shutil.rmtree(WORK / "out", ignore_errors=True)
    WORK.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    child = Child(env, deadline)
    import_cmd = [sys.executable, "-c", "import lextremes.cli"]
    child.run(import_cmd, "warmup")  # compiles bytecode once, as an installed package would have

    values: dict[str, float] = {}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "moduli": {role: moduli.describe(q) for role, q in drawn.items()},
              "invocations": invocations, "machine": machine_info()}
    if args.record:
        passes = [run_pass(child, invocations, "pass0")]
    elif args.trace == 0:
        setup = [child.run(import_cmd, f"setup{i}")["wall_s"] for i in range(SETUP_REPEATS)]
        passes = []
        measured = 0.0
        while not passes or measured < args.seconds:
            passes.append(run_pass(child, invocations, f"pass{len(passes)}"))
            measured += passes[-1]["wall_s"]
        values["setup_s"] = statistics.median(setup)
        values["wall_s"] = statistics.median(p["wall_s"] for p in passes)
        values["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
        record["setup_s"] = setup
    else:
        passes = [
            run_pass(child, invocations, "pass0"),
            run_pass(child, invocations, "traced", "spans"),
            run_pass(child, invocations, "malloc", "malloc"),
        ]
        spans = [read_spans(f"traced-{i}") for i in range(len(invocations))]
        malloc = [read_spans(f"malloc-{i}") for i in range(len(invocations))]
        traced_invocations = [
            {"q_list": r["outcome"].q_list, "spans": s["spans"], "wall_s": r["wall_s"], "imports": import_times(r["stderr"])}
            for r, s in zip(passes[1]["invocations"], spans)
        ]
        values = layers.layer_metrics(traced_invocations, [x for m in malloc for x in m["spans"]], passes[0]["wall_s"])
        record["absent"] = layers.absent_names(spans[0]["wrapped"])

    attempted, failed, problems = check_passes(passes)
    if args.trace == 0:
        values["ok_share"] = (attempted - failed) / attempted
    references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    first = [r["outcome"] for r in passes[0]["invocations"]]
    if args.record:
        for problem in problems:
            print(f"problem: {problem}")
        if problems:
            return 1
        references[args.workload] = {"seed": args.seed, "invocations": [gate.record(o) for o in first]}
        REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
        print(f"recorded {args.workload} at seed {args.seed} in {REFERENCE.relative_to(ROOT)}")
        return 0
    if args.seed == DEFAULT_SEED:
        if args.workload in references:
            found = gate.compare_to_reference(first, references[args.workload]["invocations"])
            problems += [f"reference: {p}" for p in found]
        else:
            problems.append(f"reference: no record for {args.workload}")

    record.update(
        passes=[{"wall_s": p["wall_s"], "peak_rss_mb": p["peak_rss_mb"],
                 "invocations": [{k: r[k] for k in ("wall_s", "rss_mb", "exit")} for r in p["invocations"]]}
                for p in passes],
        attempted=attempted, failed=failed, problems=problems, values=values,
        run_s=time.monotonic() - started,
    )
    (WORK / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in problems:
        print(f"problem: {problem}")
    print("info:", json.dumps({k: record[k] for k in ("moduli", "machine", "absent") if k in record} | {"passes": len(passes)}))
    units = END_TO_END if args.trace == 0 else layers.PER_LAYER
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metric_block(values, units),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
