"""Command-line entry point: experiment orchestration and result files.

Commands
--------
certify      linear-scheme quotient certificate (+ principal exclusion) per q
scan-t1      extreme-value scan of |L(1, chi)|
census       threshold census of |L(1, chi)| over a delta grid
scan-t3      extreme-value scan of log |L(sigma, chi)|, sigma in (1/2, 1)
oracle-check dual-oracle and known-value self checks, no files written

Flags override values from an optional flat `key = value` config file
(`#` starts a comment; unknown keys are rejected).  Every run writes one
CSV and/or JSON file per modulus, named `<command>_q<q>.<ext>`, into the
output directory; files are written to a temporary name and atomically
renamed, so failed runs leave no partial files.  Reruns with identical
configuration produce byte-identical CSV.

Exit codes: 0 success, 1 certificate failure, 2 configuration error,
3 I/O failure, 4 internal error (any other exception while computing a
modulus, oracle-check's included, such as a MemoryError or a broken worker
pool under --jobs; one stderr line names the command, q and exception
type, and no output directory is created).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, make_dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import numth
from .chargroup import _share_cpus, build_group, dft_over_group, orthogonality_sum
from .extremes import scan_sigma1, scan_sigma_strip, threshold_census
from .lfunc import l_value, l_value_batch
from .resonance import (
    _character_sums, _congruence_sums, _half_weight_cutoff, _tables, exclude_principal, ratio_certificate
)
from .resonator import linear_scheme

_COMMAND_HELP = {
    "certify": "linear-scheme quotient certificate per q",
    "scan-t1": "extreme-value scan of |L(1, chi)|",
    "census": "threshold census of |L(1, chi)|",
    "scan-t3": "extreme-value scan of log |L(sigma, chi)|",
    "oracle-check": "dual-oracle and known-value self checks",
}
COMMANDS = tuple(_COMMAND_HELP)


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


def _list_of(kind: type) -> Callable[[str], tuple]:
    """A parser of comma-separated `kind` values."""

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(part.strip()) for part in text.split(",") if part.strip())
        except ValueError as exc:
            raise ConfigError(f"expected a comma-separated list of {kind.__name__} values, got {text!r}") from exc

    return parse


class _Key(NamedTuple):
    default: object
    parse: Callable[[str], object]
    flag: str
    commands: tuple[str, ...]
    keyword: str | None  # the commands' driver keyword; None for a run setting
    help: str | None = None
    attr: str | None = None  # the RunConfig attribute, when it is not the key


# One row per config key: the config file, the flags of each command, RunConfig
# and each driver's keyword arguments are all derived from this table.
_KEYS = {
    "q": _Key((), _list_of(int), "--q", COMMANDS, None, "comma-separated prime moduli", "q_list"),
    "sigma": _Key(None, float, "--sigma", ("scan-t3",), "sigma"),
    "delta": _Key(
        (0.5, 1.0, 2.0, 3.0), _list_of(float), "--delta", ("census",), "deltas", "comma-separated deltas", "delta_list"
    ),
    "b": _Key(1.4, float, "--B", ("certify",), "b"),
    "epsilon": _Key(0.0, float, "--epsilon", ("scan-t1",), "epsilon"),
    "a_sigma": _Key(None, float, "--a-sigma", ("scan-t3",), "a_sigma"),
    "x_cap": _Key(1e5, float, "--x-cap", ("scan-t3",), "x_cap"),
    "y_min": _Key(20.0, float, "--y-min", ("scan-t3",), "y_min"),
    "n": _Key(10**4, int, "--N", ("certify", "scan-t3"), "n_limit"),
    "k": _Key(10**4, int, "--K", ("certify", "scan-t3"), "k_limit"),
    "y": _Key(1e4, float, "--Y", ("certify",), "y"),
    "tol": _Key(1.0, float, "--tol", ("scan-t3",), "census_tol"),
    "tau_budget": _Key(0.05, float, "--tau-budget", ("certify", "scan-t3"), "tau_budget"),
    "output_dir": _Key("results", str, "--output-dir", COMMANDS, None),
    "format": _Key("both", str, "--format", COMMANDS, None, "csv, json or both"),
    "jobs": _Key(1, int, "--jobs", COMMANDS, None),
}

RunConfig = make_dataclass(
    "RunConfig",
    ["command", *(row.attr or key for key, row in _KEYS.items())],
    frozen=True,
    namespace={"__module__": __name__, "__doc__": "A run's command and one attribute per row of _KEYS."},
)


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower().replace("-", "_")
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lextremes", description="Extreme values of Dirichlet L-functions mod a prime."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in _COMMAND_HELP.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", default=None, help="flat key = value config file")
        for key, row in _KEYS.items():
            if command in row.commands:
                p.add_argument(row.flag, dest=key, default=argparse.SUPPRESS, type=row.parse, help=row.help)
    return parser


def parse_config(argv) -> RunConfig:
    """Merge defaults, config-file values and explicit flags into a RunConfig."""
    parser = _build_parser()
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help / --version paths exit cleanly
            raise
        # argparse exits with 2 on bad flags, which matches our contract,
        # but surface it as ConfigError so callers can handle it uniformly
        raise ConfigError("invalid command line") from exc
    merged = {key: row.default for key, row in _KEYS.items()}
    if namespace.config:
        for key, raw in _read_config_file(namespace.config).items():
            try:
                merged[key] = _KEYS[key].parse(raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from exc
    merged.update((key, getattr(namespace, key)) for key in _KEYS if hasattr(namespace, key))
    config = RunConfig(namespace.command, *merged.values())  # merged keeps the table's order
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    for key, row in _KEYS.items():
        value = getattr(config, row.attr or key)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, float) and not math.isfinite(item):
                raise ConfigError(f"{key} must be finite, got {item}")
    if not config.q_list:
        raise ConfigError("q list must be nonempty")
    least = 5 if config.command in ("oracle-check", "certify") else 17  # 17: the iterated-log guard
    for q in config.q_list:
        try:
            numth.check_modulus(q, least)
        except ValueError as exc:
            raise ConfigError(f"{config.command}: {exc}") from exc
    if config.format not in ("csv", "json", "both"):
        raise ConfigError(f"format must be csv, json or both, got {config.format!r}")
    for key, low in (("jobs", 1), ("epsilon", 0), ("tol", 0), ("x_cap", 2)):
        if getattr(config, key) < low:
            raise ConfigError(f"{key} must be >= {low}")
    if config.x_cap > 1e8:  # scan-t3 sieves up to x <= x_cap: a mask of at most 100 MB
        raise ConfigError(f"x_cap must be <= 1e8, got {config.x_cap}")
    if not 0 <= config.tau_budget < 1:
        raise ConfigError(f"tau_budget must lie in [0, 1), got {config.tau_budget}")
    if not (1 <= config.n < 2**63 and 1 <= config.k < 2**63):
        raise ConfigError("N and K must lie in [1, 2**63)")
    if config.command == "certify" and config.b <= math.log(4):
        raise ConfigError(f"B = {config.b} violates B > log 4 = {math.log(4):.6f}")
    if config.command == "census":
        if not config.delta_list or any(d <= 0 for d in config.delta_list):
            raise ConfigError("delta grid must be nonempty with every delta > 0")
    if config.command == "scan-t3":
        if config.sigma is None:
            raise ConfigError("scan-t3 requires --sigma")
        if not 0.5 < config.sigma < 1.0:
            raise ConfigError(f"sigma = {config.sigma} violates sigma in (1/2, 1)")
        for q in config.q_list:  # every cutoff, before any modulus builds its group
            try:
                _half_weight_cutoff(q, config.sigma, config.a_sigma, config.y_min)
            except ValueError as exc:
                raise ConfigError(f"scan-t3 at q={q}: {exc}") from exc


# ----------------------------------------------------------------------
# result computation and persistence


class _Layout(NamedTuple):
    """One modulus's result as written: the CSV header and rows, the JSON
    payload, and the certificate that decides the exit code (None without one)."""

    header: list[str]
    rows: list[list]
    payload: dict
    certificate: object = None


# the scans and the census share one CSV layout; certify's one row ends with the principal-excluded sums
_SCAN_HEADER = [
    "q", "sigma", "delta", "threshold", "count",
    "max_abs_l", "bound", "margin", "exponent_emp", "exponent_ref",
]
_CERTIFY_HEADER = [
    "q", "sigma", "scheme_kind", "cutoff", "x", "y", "n", "k",
    "s1_real", "s1_imag", "s2", "ratio", "lower_bound",
    "tail_fraction", "r0_sq", "l_r0_sq", "certificate_passed",
    "certificate_margin", "tau_cert", "tau_budget",
    "s1_star_real", "s1_star_imag", "s2_star", "ratio_star", "certificate_star_passed",
]


def _compute_one(command: str, q: int, config: RunConfig) -> _Layout:
    kwargs = {
        row.keyword: getattr(config, row.attr or key) for key, row in _KEYS.items()
        if row.keyword and command in row.commands
    }
    if command == "certify":
        report = ratio_certificate(q, **kwargs)
        starred = exclude_principal(report)
        cert = report.certificate
        row = [
            report.q, report.sigma, report.scheme.kind, report.scheme.cutoff, report.x, report.y, report.n, report.k,
            report.s1.real, report.s1.imag, report.s2, report.ratio, report.lower_bound, report.tail_fraction,
            *report.principal_terms, cert.passed, cert.margin, cert.tau_cert, cert.tau_budget,
            starred.s1.real, starred.s1.imag, starred.s2, starred.ratio, starred.certificate.passed,
        ]
        payload = {"report": asdict(report), "principal_excluded": asdict(starred)}
        return _Layout(_CERTIFY_HEADER, [row], payload, cert)
    if command == "census":
        r = threshold_census(q, **kwargs)
        cells = zip(r.deltas, r.thresholds, r.counts, r.exponents_emp, r.exponents_ref)
        rows = [[r.q, r.sigma, d, t, c, r.max_abs_l, "", "", emp, ref] for d, t, c, emp, ref in cells]
        return _Layout(_SCAN_HEADER, rows, asdict(r))
    r = (scan_sigma1 if command == "scan-t1" else scan_sigma_strip)(q, **kwargs)
    row = [r.q, r.sigma, "", "", "", r.max_abs_l, r.bound_value, r.margin, "", ""]
    return _Layout(_SCAN_HEADER, [row], asdict(r), r.quotient.certificate if command == "scan-t3" else None)


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)  # a float's str is its shortest round-trip repr


def _csv_bytes(header: list[str], rows: list[list]) -> bytes:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _json_sanitize(obj):
    """Complex values become [re, im] and NaN becomes null, inside any nesting
    of dicts, lists and tuples (the shapes `dataclasses.asdict` produces)."""
    if isinstance(obj, float) and math.isnan(obj):
        return None
    if isinstance(obj, complex):
        return [_json_sanitize(obj.real), _json_sanitize(obj.imag)]
    if isinstance(obj, dict):
        return {k: _json_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_sanitize(v) for v in obj]
    return obj


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(_json_sanitize(payload), indent=2, sort_keys=True) + "\n").encode("utf-8")


def _atomic_write(path: Path, data: bytes) -> None:
    handle = tempfile.NamedTemporaryFile(dir=path.parent, prefix=path.name + ".", delete=False)
    try:
        handle.write(data)
        handle.flush()
        # the temp file is created 0600; give the result the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(handle.fileno(), 0o666 & ~umask)
        os.fsync(handle.fileno())
        handle.close()
        os.replace(handle.name, path)
    except BaseException:
        handle.close()
        with contextlib.suppress(OSError):
            os.unlink(handle.name)
        raise


def _result_files(command: str, q: int, result: _Layout, config: RunConfig) -> dict[str, bytes]:
    """The files of one modulus, in the formats that config.format asks for."""
    files = {}
    if config.format in ("csv", "both"):
        files[f"{command}_q{q}.csv"] = _csv_bytes(result.header, result.rows)
    if config.format in ("json", "both"):
        files[f"{command}_q{q}.json"] = _json_bytes(result.payload)
    return files


def _internal_error(command: str, q, exc: Exception) -> int:
    """Exit 4 with one stderr line for an exception while computing q; exit 1
    stays reserved for a failed certificate or check."""
    detail = "the input did not fit in memory" if isinstance(exc, MemoryError) else " ".join(str(exc).split())
    print(f"{command}: internal error at q={q}: {type(exc).__name__}: {detail}", file=sys.stderr)
    return 4


def run(config: RunConfig) -> int:
    """Execute the configured command; returns the process exit code."""
    if config.command == "oracle-check":
        return oracle_check(config.q_list)
    results, q = {}, None  # q stays None only if the pool fails before any modulus starts
    try:
        # the pool starts all its workers at the first submit, so it gets no more than there are
        # moduli; each worker takes its share of the CPUs for its threaded stages
        workers = min(config.jobs, len(config.q_list))
        if workers > 1:
            with concurrent.futures.ProcessPoolExecutor(workers, initializer=_share_cpus, initargs=(workers,)) as pool:
                # at most `workers` moduli in flight and none submitted after a failure: the pool
                # hands submitted calls to its workers' queue early, out of reach of cancelling
                futures = {}
                for q in config.q_list:
                    busy = [future for future in futures.values() if not future.done()]
                    if len(busy) == workers:
                        concurrent.futures.wait(busy, return_when=concurrent.futures.FIRST_COMPLETED)
                    if any(future.done() and future.exception() is not None for future in futures.values()):
                        break
                    futures[q] = pool.submit(_compute_one, config.command, q, config)
                for q, future in futures.items():
                    results[q] = future.result()
        else:
            for q in config.q_list:
                results[q] = _compute_one(config.command, q, config)
    except ValueError as exc:
        # an operation-level precondition (e.g. a cutoff reaching the modulus)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        return _internal_error(config.command, q, exc)
    # made only once every modulus is computed: a failed computation leaves no directory
    outdir = Path(config.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 3
    all_passed = True
    try:
        for q in sorted(results):
            certificate = results[q].certificate
            if certificate is not None and not certificate.passed:
                all_passed = False
                print(
                    f"{config.command}: certificate failed at q={q}: tau_cert={certificate.tau_cert:.6g}"
                    f" > tau_budget={certificate.tau_budget:.6g}, margin={certificate.margin:.6g}",
                    file=sys.stderr,
                )
            for name, data in _result_files(config.command, q, results[q], config).items():
                _atomic_write(outdir / name, data)
    except OSError as exc:
        print(f"error: writing results failed: {exc}", file=sys.stderr)
        return 3
    return 0 if all_passed else 1


# ----------------------------------------------------------------------
# oracle-check


def _check_rows_for(q: int) -> list[tuple[str, bool, str]]:
    # one function per row, so each row's arrays are freed before the next runs
    group = build_group(q)
    return [
        _orthogonality_row(group),
        _group_dft_row(group),
        _batch_vs_single_row(group, 1.0, "digamma"),
        _batch_vs_single_row(group, 0.75, "hurwitz"),
        _dual_oracle_row(group),
    ]


def _orthogonality_row(group) -> tuple[str, bool, str]:
    phi = group.phi
    value_diag = orthogonality_sum(group, 1, group.q + 1)
    value_off = orthogonality_sum(group, 2, 1)
    ok = abs(value_diag - phi) <= 1e-9 * phi and abs(value_off) <= 1e-9 * phi
    return ("orthogonality", ok, f"diag={value_diag:.6f} off={value_off:.2e}")


def _group_dft_row(group) -> tuple[str, bool, str]:
    q = group.q
    f = np.random.default_rng(q).standard_normal(q - 1)
    transformed = dft_over_group(group, f)  # j <= h = (q-1)/2
    residues = np.arange(1, q)
    worst = 0.0
    for j in range(0, transformed.size, max(1, transformed.size // 16)):
        naive = np.sum(f * group.character_values(j, residues))
        worst = max(worst, abs(naive - transformed[j]) / max(abs(naive), 1.0))
    return ("group-dft vs naive", worst <= 1e-9, f"max rel diff {worst:.2e}")


def _batch_vs_single_row(group, sigma: float, label: str) -> tuple[str, bool, str]:
    half = l_value_batch(group, sigma).half  # j = 1..h
    worst = 0.0
    for j in range(1, half.size + 1, max(1, half.size // 8)):
        single = l_value(group.character(j), sigma)
        worst = max(worst, abs(single.value - complex(half[j - 1])))
    return (f"batch vs single ({label})", worst <= 1e-9, f"max abs diff {worst:.2e}")


def _dual_oracle_row(group) -> tuple[str, bool, str]:
    q = group.q
    x = min(7.0, q - 1.5)
    # both routes read one set of terms (N = K = 512), each route once
    tables = _tables(q, linear_scheme(x), 512, (1.0, max(x, 100.0), 512))
    s1_char, s2_char, _ = _character_sums(group, *tables)
    s1_cong, s2_cong = _congruence_sums(q, *tables)[1:3]
    d2 = abs(s2_char - s2_cong) / s2_cong
    d1 = abs(s1_char - s1_cong) / abs(s1_cong)
    return ("dual-oracle quotient sums", d1 <= 1e-9 and d2 <= 1e-9, f"s1 {d1:.2e} s2 {d2:.2e}")


def oracle_check(q_list) -> int:
    """Run the self-check suite and print one PASS/FAIL line per check;
    returns 0, 1 when a check fails, or 4 when a check raises."""
    all_ok = True
    for q in q_list:
        try:
            rows = _check_rows_for(q)
        except Exception as exc:
            return _internal_error("oracle-check", q, exc)
        for name, ok, detail in rows:
            all_ok &= ok
            print(f"q={q:<8} {name:<28} {'PASS' if ok else 'FAIL'}  {detail}")
    print("oracle-check:", "all checks passed" if all_ok else "FAILURES detected")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
