import argparse
import ast
import concurrent.futures
import dataclasses
import hashlib
import inspect
import json
import math
import multiprocessing
import os
import pathlib
import re
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import lextremes
from lextremes import chargroup, cli, enumerate_coeffs, extremes, lfunc, linear_scheme, numth, resonance
from lextremes.cli import COMMANDS, ConfigError, main, oracle_check, parse_config, run

from conftest import run_probe


class TestParseConfig:
    def test_certify_flags(self):
        config = parse_config(["certify", "--q", "10007", "--B", "1.4"])
        assert config.command == "certify"
        assert config.q_list == (10007,)
        assert config.b == 1.4
        assert config.n == 10**4 and config.k == 10**4 and config.y == 1e4  # defaults

    def test_b_below_log4_rejected(self, tmp_path, capsys):
        # the driver owns the rule; run() turns its ValueError into exit 2 before any work
        out = tmp_path / "out"
        assert main(["certify", "--q", "10007", "--B", "1.0", "--output-dir", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "b must exceed log 4" in err[0]

    def test_scan_t3_valid(self):
        config = parse_config(["scan-t3", "--q", "1009", "--sigma", "0.75"])
        assert config.command == "scan-t3"
        assert config.sigma == 0.75
        assert config.tol == 1.0

    def test_scan_t3_needs_sigma(self):
        with pytest.raises(ConfigError):
            parse_config(["scan-t3", "--q", "1009"])

    def test_composite_q_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(["census", "--q", "4"])

    def test_empty_q_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(["scan-t1"])

    def test_small_q_guard(self):
        with pytest.raises(ConfigError):
            parse_config(["scan-t1", "--q", "13"])  # iterated-log guard
        assert parse_config(["scan-t1", "--q", "17"]).q_list == (17,)
        # certify and oracle-check allow small toy moduli
        assert parse_config(["certify", "--q", "7"]).q_list == (7,)
        with pytest.raises(ConfigError):
            parse_config(["certify", "--q", "3"])

    def test_sigma_range(self):
        with pytest.raises(ConfigError):
            parse_config(["scan-t3", "--q", "1009", "--sigma", "0.5"])
        with pytest.raises(ConfigError):
            parse_config(["scan-t3", "--q", "1009", "--sigma", "1.0"])

    def test_delta_grid_validation(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["census", "--q", "1009", "--delta", "0.5,-1", "--output-dir", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "deltas in (0, 709.78]" in err[0]

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# experiment defaults\n"
            "q = 1009, 10007\n"
            "b = 1.5   # overridden on the command line\n"
            "n = 500\n"
        )
        config = parse_config(["certify", "--config", str(cfg), "--B", "1.7"])
        assert config.q_list == (1009, 10007)
        assert config.b == 1.7  # flag wins
        assert config.n == 500  # file wins over default

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("quux = 3\n")
        with pytest.raises(ConfigError):
            parse_config(["certify", "--q", "7", "--config", str(cfg)])

    def test_config_file_bad_syntax(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(ConfigError):
            parse_config(["certify", "--q", "7", "--config", str(cfg)])

    @pytest.mark.parametrize("key", sorted(key for key, row in cli._KEYS.items() if row.parse is float) + ["delta"])
    def test_non_finite_floats_rejected(self, tmp_path, key):
        # nan and inf pass float(); each must stop at parse time with exit 2
        row = cli._KEYS[key]
        command = row.commands[0]
        base = ["--q", "101", *(["--sigma", "0.75"] if command == "scan-t3" and key != "sigma" else [])]
        cfg = tmp_path / "run.cfg"
        for text in ("nan", "inf", "-inf"):
            value = f"0.5,{text}" if key == "delta" else text
            with pytest.raises(ConfigError, match="must be finite"):
                parse_config([command, *base, f"{row.flag}={value}"])
            cfg.write_text(f"{key} = {value}\n")
            with pytest.raises(ConfigError, match="must be finite"):
                parse_config([command, *base, "--config", str(cfg)])


# module-level, so that a worker process under --jobs can unpickle them
def _raise_memory_error(command, q, config):
    raise MemoryError


def _raise_runtime_error(command, q, config):
    raise RuntimeError("kernel\nfailed")  # a multi-line message still prints one line


def _check_rows_raise_memory_error(q):
    raise MemoryError


def _kill_worker(command, q, config):
    os._exit(1)


def _raise_at_17_else_mark(command, q, config):
    # every other modulus leaves a marker next to the output directory, then runs a while
    if q == 17:
        raise RuntimeError("kernel failed")
    (pathlib.Path(config.output_dir).parent / f"started_{q}").touch()
    time.sleep(0.5)


_COMPUTE_ONE = cli._compute_one


def _compute_and_note_threads(command, q, config):
    # a worker notes its thread count W next to the output directory, then computes as usual
    (pathlib.Path(config.output_dir).parent / f"threads_{q}").write_text(str(chargroup._thread_count()))
    return _COMPUTE_ONE(command, q, config)


class TestRun:
    def test_certify_toy_smoke(self, tmp_path):
        code = main(["certify", "--q", "7", "--output-dir", str(tmp_path)])
        assert code == 0
        csv_path = tmp_path / "certify_q7.csv"
        json_path = tmp_path / "certify_q7.json"
        assert csv_path.exists() and json_path.exists()
        payload = json.loads(json_path.read_text())
        assert payload["report"]["q"] == 7
        assert payload["report"]["certificate"]["passed"] is True
        assert payload["principal_excluded"]["s2"] == pytest.approx(
            payload["report"]["s2"] - payload["report"]["principal_terms"][0]
        )

    def test_census_csv_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["census", "--q", "17", "--output-dir", str(out1)]) == 0
        assert main(["census", "--q", "17", "--output-dir", str(out2)]) == 0
        assert (out1 / "census_q17.csv").read_bytes() == (out2 / "census_q17.csv").read_bytes()

    def test_census_one_row_per_delta(self, tmp_path):
        assert main(["census", "--q", "17", "--delta", "0.5,1,2", "--output-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "census_q17.csv").read_text().strip().splitlines()
        assert lines[0].split(",")[:5] == ["q", "sigma", "delta", "threshold", "count"]
        assert len(lines) == 1 + 3

    def test_scan_t1_smoke(self, tmp_path):
        assert main(["scan-t1", "--q", "17", "--format", "json", "--output-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "scan-t1_q17.json").read_text())
        assert payload["q"] == 17
        assert payload["max_abs_l"] > 0

    def test_scan_t3_smoke_and_quotient(self, tmp_path):
        code = main(
            ["scan-t3", "--q", "101", "--sigma", "0.75", "--format", "json", "--output-dir", str(tmp_path)]
        )
        payload = json.loads((tmp_path / "scan-t3_q101.json").read_text())
        assert payload["sigma"] == 0.75
        # exit code mirrors the attached quotient certificate
        assert code == (0 if payload["quotient"]["certificate"]["passed"] else 1)

    def test_scan_t3_prime_cutoff_power_overflow(self, tmp_path, capsys):
        # (log q)**(3/(sigma-1/2)) overflows a float here; x falls back to x_cap
        code = main(["scan-t3", "--q", "100003", "--sigma", "0.51", "--output-dir", str(tmp_path)])
        assert code in (0, 1)
        assert (tmp_path / "scan-t3_q100003.csv").exists()
        assert "Traceback" not in capsys.readouterr().err

    def test_scan_t3_forwards_certificate_truncations(self, tmp_path):
        argv = ["scan-t3", "--q", "1009", "--sigma", "0.75", "--N", "50", "--K", "7", "--tau-budget", "0"]
        main([*argv, "--format", "json", "--output-dir", str(tmp_path)])
        quotient = json.loads((tmp_path / "scan-t3_q1009.json").read_text())["quotient"]
        assert (quotient["n"], quotient["k"]) == (50, 7)
        assert quotient["certificate"]["tau_budget"] == 0.0

    def test_exit_code_1_when_certificate_over_budget(self, tmp_path):
        # q = 10007 at the default truncations consumes 7.1% slack, over the
        # default 5% budget; files are still written
        code = main(["certify", "--q", "10007", "--output-dir", str(tmp_path)])
        assert code == 1
        assert (tmp_path / "certify_q10007.json").exists()

    def test_certify_builds_no_group(self, tmp_path, monkeypatch):
        import lextremes.cli as cli_module

        def no_group(q):
            raise AssertionError("certify must not build a character group")

        monkeypatch.setattr(cli_module, "build_group", no_group)
        assert main(["certify", "--q", "1009", "--output-dir", str(tmp_path)]) == 0
        assert main(["certify", "--q", "10007", "--output-dir", str(tmp_path)]) == 1

    def test_failed_certificate_prints_one_stderr_line(self, tmp_path, capsys):
        assert main(["certify", "--q", "1009", "--output-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        assert main(["certify", "--q", "1009,10007", "--output-dir", str(tmp_path)]) == 1
        cert = json.loads((tmp_path / "certify_q10007.json").read_text())["report"]["certificate"]
        assert capsys.readouterr().err.splitlines() == [
            f"certify: certificate failed at q=10007: tau_cert={cert['tau_cert']:.6g}"
            f" > tau_budget={cert['tau_budget']:.6g}, margin={cert['margin']:.6g}"
        ]

    def test_failed_scan_t3_certificate_prints_its_line(self, tmp_path, capsys, monkeypatch):
        import dataclasses

        import lextremes.cli as cli_module
        from lextremes.resonance import CertificateResult

        real_scan = cli_module.scan_sigma_strip

        def failing_scan(*args, **kwargs):
            report = real_scan(*args, **kwargs)
            failed = CertificateResult(False, -0.25, 0.5, 0.05)
            return dataclasses.replace(report, quotient=dataclasses.replace(report.quotient, certificate=failed))

        monkeypatch.setattr(cli_module, "scan_sigma_strip", failing_scan)
        assert main(["scan-t3", "--q", "101", "--sigma", "0.75", "--output-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "scan-t3: certificate failed at q=101: tau_cert=0.5 > tau_budget=0.05, margin=-0.25"
        ]

    def test_exit_code_2_from_main(self):
        assert main(["certify", "--q", "7", "--B", "1.0"]) == 2
        assert main(["census", "--q", "4"]) == 2
        assert main(["census"]) == 2

    def test_census_delta_past_the_float_range_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["census", "--q", "17", "--delta", "1e308", "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: census requires") and "e**delta" in err[0]
        assert not out.exists()

    def test_n_and_k_past_int64_rejected_before_any_work(self, capsys):
        for flag in ("--N", "--K"):
            assert main(["certify", "--q", "1009", flag, "99999999999999999999"]) == 2
            assert capsys.readouterr().err.startswith("error: N and K must lie in")
        with pytest.raises(ConfigError):
            parse_config(["scan-t3", "--q", "1009", "--sigma", "0.75", "--K", str(2**63)])
        assert parse_config(["certify", "--q", "1009", "--N", str(2**63 - 1)]).n == 2**63 - 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--q", "101", "--tau-budget=-0.01"],
            ["certify", "--q", "101", "--tau-budget=1"],
            ["scan-t3", "--q", "10007", "--sigma", "0.75", "--tau-budget=-1"],
            ["scan-t3", "--q", "10007", "--sigma", "0.75", "--tau-budget=2"],
            ["scan-t3", "--q", "10007", "--sigma", "0.75", "--tol=-1"],
            ["scan-t3", "--q", "10007", "--sigma", "0.75", "--x-cap=1.5"],
            ["scan-t3", "--q", "10007", "--sigma", "0.75", "--x-cap=1.0000001e8"],
            ["scan-t3", "--q", "17", "--sigma", "0.6", "--x-cap=1e11"],  # once asked the sieve for 1e11 bytes
        ],
    )
    def test_budget_tol_and_cap_ranges_rejected_before_any_work(self, tmp_path, capsys, argv):
        if argv[0] == "scan-t3" and "--tol=-1" not in argv:  # the cutoff loop of cli._validate checks these
            with pytest.raises(ConfigError):
                parse_config(argv)
        out = tmp_path / "out"
        assert main([*argv, "--output-dir", str(out)]) == 2
        assert not out.exists()  # no directory, no group, no file
        key = argv[-1].split("=")[0].lstrip("-").replace("-", "_")  # tau_budget, tol or x_cap
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and key in err[0]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_prime_past_modulus_limit_exits_2_before_any_work(self, tmp_path, capsys, command):
        # 2**31 + 11 is prime; certify used to ask numpy for a 16 GiB residue table
        sigma = ["--sigma", "0.75"] if command == "scan-t3" else []
        out = tmp_path / "out"
        assert main([command, "--q", "2147483659", *sigma, "--output-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert not out.exists()

    def test_huge_prime_q_rejected_without_trial_division(self, monkeypatch):
        # 2**61 - 1 is prime; trial division would run up to its root, about 1.5e9
        def no_trial_division(n):
            raise AssertionError(f"is_prime({n}) was called")

        monkeypatch.setattr(numth, "is_prime", no_trial_division)
        with pytest.raises(ConfigError, match=r"2\*\*31"):
            parse_config(["scan-t1", "--q", str(2**61 - 1)])

    def test_budget_tol_and_cap_range_ends_accepted(self):
        base = ["scan-t3", "--q", "10007", "--sigma", "0.75"]
        config = parse_config([*base, "--tau-budget=0", "--tol=0", "--x-cap=2"])
        assert (config.tau_budget, config.tol, config.x_cap) == (0.0, 0.0, 2.0)
        assert parse_config([*base, "--x-cap=1e8"]).x_cap == 1e8
        assert parse_config([*base, "--tau-budget=0.999"]).tau_budget == 0.999

    def test_unwritable_output_dir(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main(["census", "--q", "17", "--output-dir", str(blocker / "sub")])
        assert code == 3

    def test_operation_error_leaves_no_created_directory(self, tmp_path, capsys):
        # the series cutoff check runs inside the certificate, and run() makes
        # the output directory only after every modulus is computed, so a
        # rejected run creates no directory and leaves existing ones alone
        argv = ["certify", "--q", "101", "--Y", "2", "--output-dir"]
        assert main([*argv, str(tmp_path / "new" / "deep")]) == 2
        assert "series cutoff" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        (tmp_path / "kept").mkdir()
        assert main([*argv, str(tmp_path / "kept" / "deep")]) == 2
        assert [p.name for p in tmp_path.rglob("*")] == ["kept"]

    def test_operation_error_wins_over_unwritable_output_dir(self, tmp_path, capsys):
        # the computation fails before the output directory is tried
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        argv = ["certify", "--q", "101", "--Y", "2"]
        assert main([*argv, "--output-dir", str(blocker / "sub")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "series cutoff" in err[0]

    def test_scan_t3_cutoffs_are_checked_before_any_group_is_built(self, tmp_path, capsys, monkeypatch):
        # q = 17 rejects the default y_min = 20; q = 101 must not be computed first
        monkeypatch.setattr(cli, "_compute_one", _raise_memory_error)
        assert main(["scan-t3", "--q", "101,17", "--sigma", "0.75", "--output-dir", str(tmp_path / "out")]) == 2
        assert "half-weight cutoff y = 20.000 must lie in (0, q = 17)" in capsys.readouterr().err

    def test_compute_failure_of_any_kind_leaves_no_directory(self, tmp_path, monkeypatch):
        def crash(*args):
            raise RuntimeError("compute failed")

        monkeypatch.setattr(cli, "_compute_one", crash)
        assert main(["census", "--q", "17", "--output-dir", str(tmp_path / "new" / "deep")]) == 4
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "crash,line",
        [
            (_raise_memory_error, "MemoryError: the input did not fit in memory"),
            (_raise_runtime_error, "RuntimeError: kernel failed"),
        ],
    )
    def test_compute_exception_exits_4_with_one_line(self, tmp_path, capsys, monkeypatch, jobs, crash, line):
        # exit 1 stays reserved for a failed certificate
        monkeypatch.setattr(cli, "_compute_one", crash)
        argv = ["census", "--q", "17,19", "--jobs", jobs, "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 4
        assert capsys.readouterr().err.splitlines() == [f"census: internal error at q=17: {line}"]
        assert list(tmp_path.iterdir()) == []

    def test_oracle_check_exception_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_check_rows_for", _check_rows_raise_memory_error)
        assert main(["oracle-check", "--q", "101"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "oracle-check: internal error at q=101: MemoryError: the input did not fit in memory"
        ]

    def test_broken_worker_pool_exits_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_compute_one", _kill_worker)
        argv = ["census", "--q", "17,19", "--jobs", "2", "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("census: internal error at q=17: BrokenProcessPool: ")
        assert list(tmp_path.iterdir()) == []

    def test_failure_under_jobs_starts_no_further_modulus(self, tmp_path, capsys, monkeypatch):
        # the exit waits only for the moduli already running, not for the rest of the list
        monkeypatch.setattr(cli, "_compute_one", _raise_at_17_else_mark)
        argv = ["census", "--q", "17,19,23,29,31", "--jobs", "2", "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 4
        assert capsys.readouterr().err.splitlines() == ["census: internal error at q=17: RuntimeError: kernel failed"]
        assert not (tmp_path / "started_31").exists()
        assert not (tmp_path / "out").exists()

    def test_no_partial_files_on_failure(self, tmp_path, monkeypatch):
        # force the writing step to fail after computation and check that no
        # output file (partial or complete) is left behind
        import lextremes.cli as cli_module

        def boom(path, data):
            raise OSError("disk full")

        monkeypatch.setattr(cli_module, "_atomic_write", boom)
        code = main(["census", "--q", "17", "--output-dir", str(tmp_path / "out")])
        assert code == 3
        produced = list((tmp_path / "out").glob("census*"))
        assert produced == []

    @pytest.mark.parametrize("fmt,unused", [("csv", "_json_bytes"), ("json", "_csv_bytes")])
    def test_only_the_asked_format_is_built(self, tmp_path, monkeypatch, fmt, unused):
        def fail(*args):
            raise AssertionError(f"{unused} called for --format {fmt}")

        monkeypatch.setattr(cli, unused, fail)
        assert main(["census", "--q", "17", "--format", fmt, "--output-dir", str(tmp_path)]) == 0
        assert [path.name for path in tmp_path.iterdir()] == [f"census_q17.{fmt}"]

    def test_jobs_flag_parallel_results_match(self, tmp_path):
        seq, par = tmp_path / "seq", tmp_path / "par"
        args = ["census", "--q", "17,19", "--format", "csv"]
        assert main(args + ["--output-dir", str(seq)]) == 0
        assert main(args + ["--output-dir", str(par), "--jobs", "2"]) == 0
        for name in ("census_q17.csv", "census_q19.csv"):
            assert (seq / name).read_bytes() == (par / name).read_bytes()

    def test_pool_has_no_more_workers_than_moduli(self, tmp_path, monkeypatch):
        # the pool launches all its workers at the first submit, so --jobs 100000
        # would fork 100,000 processes; this pool records its size and starts none
        pools = []

        class InlinePool:
            def __init__(self, max_workers, initializer, initargs):
                pools.append((max_workers, initializer, initargs))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        assert main(["census", "--q", "17,19", "--jobs", "100000", "--output-dir", str(tmp_path / "a")]) == 0
        assert main(["census", "--q", "17,19,23", "--jobs", "2", "--output-dir", str(tmp_path / "b")]) == 0
        assert main(["census", "--q", "17", "--jobs", "100000", "--output-dir", str(tmp_path / "c")]) == 0
        assert pools == [(2, chargroup._share_cpus, (2,)), (2, chargroup._share_cpus, (2,))]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="checks forking after threaded stages")
    def test_jobs_after_threaded_stages_match_serial_in_workers_with_their_share(self, tmp_path, monkeypatch):
        extremes.scan_sigma1(300809)  # several blocks per thread in each stage, on every CPU this process may use
        args = ["scan-t1", "--q", "1009,1031", "--format", "csv"]
        assert main([*args, "--output-dir", str(tmp_path / "serial")]) == 0
        monkeypatch.setattr(cli, "_compute_one", _compute_and_note_threads)
        assert main([*args, "--output-dir", str(tmp_path / "pool"), "--jobs", "2"]) == 0
        for q in (1009, 1031):
            name = f"scan-t1_q{q}.csv"
            assert (tmp_path / "pool" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()
            assert int((tmp_path / f"threads_{q}").read_text()) == max(1, chargroup._thread_count() // 2)

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o002, 0o664)])
    def test_result_files_follow_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            assert main(["census", "--q", "17", "--output-dir", str(tmp_path)]) == 0
        finally:
            os.umask(old)
        for name in ("census_q17.csv", "census_q17.json"):
            assert (tmp_path / name).stat().st_mode & 0o777 == mode


# sha256 of CSVs written by the reference implementation (numpy 2.4); any
# change to the numerics or the CSV layout of these commands shows up here.
# The values go through numpy's FFT, so a numpy whose FFT rounds differently
# needs them re-recorded after checking the difference is rounding only.
# A command key carries its extra arguments; bare "scan-t3" runs at sigma 0.75.
# The Hurwitz kernel has a head of M = 12 terms at every sigma.  The sigma 0.55
# digest at q = 1009 was re-recorded when the head shrank from M = 200 terms:
# max_abs_l and margin moved by under 3e-15 relative, toward the mpmath value.
# The certify digests pin the whole row, principal-excluded columns included.
# The q = 101 certify digests (CSV and JSON) were re-recorded when S1 came
# to be summed by pairwise row sums and one exactly rounded finish in place
# of OpenBLAS gemvs: S1 moved by 2.7e-16 relative and every moved cell by under 7.2e-15.
# The q = 10007 scan-t1, census and scan-t3 digests were re-recorded when
# one kernel K = zeta - 1/(sigma - 1) (K = -psi at sigma = 1), centred on
# the residue grid, replaced the digamma and Hurwitz kernels: max_abs_l moved
# by under 3e-16 relative and margin by under 9e-16, and the RMS error of all
# L-values mod 10007 against a 30-digit reference fell at sigma = 1 and 0.75.
GOLDEN_CSV_SHA256 = {
    (101, "certify"): "4cf576bc8f744f2ea86e25f522a6515e76f6f550e2b20d2b297a835eabceb7c8",
    (1009, "certify"): "523184c0783522fb37aab3b018c533771255c6c9d1799fecba1e88121bfa4def",
    (1009, "scan-t1"): "faa301620758c7634699c4854cae36d52a72a419273b10379d89a8fa550d34de",
    (1009, "census"): "303fefac7c31731e2dcdbee6724d0d05aaa21ffcef8f6ec183d656636cfd6404",
    (1009, "scan-t3"): "29f12253467684c9adf517c3a09a0076f5ae8c8b2f01e00e84a06d40a1539018",
    (10007, "scan-t1"): "b18218503c1fe0623e9164b70abafa58e756807c35a54039be70494a38d4a625",
    (10007, "census"): "ef64eaec20c504bcb0329846d0d83a9dd00c0d681b2bd55be0b5e02e7a6c0b8d",
    (10007, "scan-t3"): "01dc18f072d7dee0c27a20e9c2e491fb887fd0db34d14d21d4575fc46410e2dd",
    (1009, "scan-t3 --sigma 0.55"): "3e3ad132f75aafecdd66ecb059305e273e3c5907e407d7f5b6f3cd00effc6cb0",
    (10007, "scan-t3 --sigma 0.55"): "5eed909110e16b15fe4ca33203b2db3bfc5411c1f1ee04b9c423820fbc64d0ff",
}


@pytest.mark.parametrize("q,command", sorted(GOLDEN_CSV_SHA256))
def test_golden_csv(tmp_path, q, command):
    name, *extra = command.split()
    if command == "scan-t3":
        extra = ["--sigma", "0.75"]
    assert main([name, "--q", str(q), *extra, "--format", "csv", "--output-dir", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / f"{name}_q{q}.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_CSV_SHA256[q, command]



# sha256 of JSON files written by the reference implementation, with every
# `elapsed_seconds` line removed (the only field that changes between runs).
# Every other byte is pinned: key names and order, float formatting, the
# [re, im] encoding of complex values and null for NaN.  The numerics are the
# ones the CSV goldens above pin, so the same re-recording rules apply.
# The q = 101 scan-t1 and census and the q = 1009 scan-t1 digests were
# re-recorded when psi(a/q) for a <= (q-1)/2 began to come from the
# reflection formula: their L(1) cells moved by under 4e-16 relative, and
# the L-values moved closer to a 30-digit reference in RMS.  The q = 101
# scan-t3 and the q = 1009 scan-t1 digests were re-recorded with the single
# centred kernel: every moved cell moved by under 3e-15 relative (margin) and
# under 3e-16 (every |L|), and every moved |L| toward that reference.  The
# q = 1009 scan-t3 digest was re-recorded when the character route came to
# sum the half spectrum exactly: only s1_route_rel_diff moved (1.97e-16 -> 0).
GOLDEN_JSON_SHA256 = {
    (101, "certify"): "2104257f7f8b3672c3f789df6eae969aeca5a305cc1743bb6cc1bbd965b031f2",
    (101, "scan-t1"): "94c1125eaeb75f6d321515a7abfe5f7f7bc9bc7d7aebc06b9864f21425cce662",
    (101, "census"): "66663aee5b55c22f3e9d5803ab17e71e04230929f9f30729d88cb9d20e553ef4",
    (101, "scan-t3"): "afbebe87d8bfe923bff0ce19657b26728d5ba0434afd342344a0b836c045b249",
    (1009, "certify"): "07bbd5a0d7ea58c80cb864a87002f99c98df44c89031738d3593b5a46029d9dd",
    (1009, "scan-t1"): "be44ae37d56a991171b0b17a496245bf5df0bd998e5f8a0bac1d324dd40f373a",
    (1009, "census"): "2f238fb549b5b2abe8001eb6aa58561b25a60e58273bdda7115de75e7b7de950",
    (1009, "scan-t3"): "b473fdca091bc892671a9338718b53973e7e9875e9cdbd04ff3254fd5286ccf7",
}


@pytest.mark.parametrize("q,command", sorted(GOLDEN_JSON_SHA256))
def test_golden_json(tmp_path, q, command):
    extra = ["--sigma", "0.75"] if command == "scan-t3" else []
    main([command, "--q", str(q), *extra, "--format", "json", "--output-dir", str(tmp_path)])
    data = (tmp_path / f"{command}_q{q}.json").read_bytes()
    kept = re.sub(rb'\n *"elapsed_seconds": [^\n]*', b"", data)
    assert hashlib.sha256(kept).hexdigest() == GOLDEN_JSON_SHA256[q, command]


# The command-line surface: each command's options and the config key each
# one sets, the keys a config file accepts, and the RunConfig attributes.
COMMON_OPTIONS = {"--q": "q", "--config": "config", "--output-dir": "output_dir", "--format": "format", "--jobs": "jobs"}
CLI_OPTIONS = {
    "certify": {**COMMON_OPTIONS, "--B": "b", "--N": "n", "--K": "k", "--Y": "y", "--tau-budget": "tau_budget"},
    "scan-t1": {**COMMON_OPTIONS, "--epsilon": "epsilon"},
    "census": {**COMMON_OPTIONS, "--delta": "delta"},
    "scan-t3": {
        **COMMON_OPTIONS, "--sigma": "sigma", "--a-sigma": "a_sigma", "--x-cap": "x_cap", "--y-min": "y_min",
        "--N": "n", "--K": "k", "--tol": "tol", "--tau-budget": "tau_budget",
    },
    "oracle-check": COMMON_OPTIONS,
}
CONFIG_KEYS = {
    "q", "sigma", "delta", "b", "epsilon", "a_sigma", "x_cap", "y_min",
    "n", "k", "y", "tol", "tau_budget", "output_dir", "format", "jobs",
}


def test_cli_options_per_command():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(CLI_OPTIONS)
    for command, sub in commands.items():
        options = {s: a.dest for a in sub._actions for s in a.option_strings if s not in ("-h", "--help")}
        assert options == CLI_OPTIONS[command], command


def test_config_file_keys(tmp_path):
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key.replace('_', '-')} = 1\n" for key in sorted(CONFIG_KEYS)))
    assert set(cli._read_config_file(str(cfg))) == CONFIG_KEYS
    for key in ("config", "command", "q_list", "delta_list"):
        cfg.write_text(f"{key} = 1\n")
        with pytest.raises(ConfigError):
            cli._read_config_file(str(cfg))


def test_run_config_attributes():
    fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
    assert fields == (CONFIG_KEYS - {"q", "delta"}) | {"command", "q_list", "delta_list"}


# Each command's driver, and a value for every flag it reads, off both the
# flag's default and the driver's, under the driver keyword it must reach.
RUN_SETTINGS = {"--q", "--output-dir", "--format", "--jobs"}
DRIVER_CALLS = {
    "certify": ("ratio_certificate", {
        "--B": ("b", 1.5), "--N": ("n_limit", 700), "--K": ("k_limit", 900), "--Y": ("y", 2e4),
        "--tau-budget": ("tau_budget", 0.1),
    }),
    "scan-t1": ("scan_sigma1", {"--epsilon": ("epsilon", 0.25)}),
    "census": ("threshold_census", {"--delta": ("deltas", (0.75, 1.5))}),
    "scan-t3": ("scan_sigma_strip", {
        "--sigma": ("sigma", 0.7), "--a-sigma": ("a_sigma", 0.4), "--x-cap": ("x_cap", 5e4),
        "--y-min": ("y_min", 25.0), "--N": ("n_limit", 700), "--K": ("k_limit", 900),
        "--tol": ("census_tol", 0.5), "--tau-budget": ("tau_budget", 0.1),
    }),
}


@pytest.mark.parametrize("command", sorted(DRIVER_CALLS))
def test_every_key_reaches_its_driver(monkeypatch, command):
    name, flags = DRIVER_CALLS[command]
    assert set(flags) == {row.flag for row in cli._KEYS.values() if command in row.commands} - RUN_SETTINGS
    parameters = inspect.signature(getattr(cli, name)).parameters
    calls = []

    class Called(Exception):
        pass

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        raise Called

    monkeypatch.setattr(cli, name, record)
    argv = [command, "--q", "1009"]
    for flag, (_, value) in flags.items():
        argv += [flag, ",".join(map(str, value)) if isinstance(value, tuple) else str(value)]
    with pytest.raises(Called):
        cli._compute_one(command, 1009, parse_config(argv))
    assert calls == [((1009,), {keyword: value for keyword, value in flags.values()})]
    assert set(parameters) == {"q", *calls[0][1]}  # every parameter the driver takes
    for keyword, value in calls[0][1].items():
        assert value != parameters[keyword].default, keyword


@pytest.mark.parametrize("command", sorted(DRIVER_CALLS))
def test_cli_defaults_are_the_drivers_defaults(monkeypatch, command):
    # a value the driver requires is given as the CLI's (scan-t3's sigma is the one flag without a default)
    given = {"certify": {"b": 1.4}, "census": {"deltas": (0.5, 1.0, 2.0, 3.0)}, "scan-t3": {"sigma": 0.75}}
    given = given.get(command, {})
    name = DRIVER_CALLS[command][0]
    driver, calls = getattr(cli, name), []

    def recorded(*args, **kwargs):
        calls.append((kwargs, driver(*args, **kwargs)))
        return calls[-1][1]

    def timeless(report):
        if hasattr(report, "elapsed_seconds"):
            report = dataclasses.replace(report, elapsed_seconds=0.0)
        return cli._json_bytes(dataclasses.asdict(report))

    monkeypatch.setattr(cli, name, recorded)
    argv = [command, "--q", "101", *(["--sigma", "0.75"] if command == "scan-t3" else [])]
    cli._compute_one(command, 101, parse_config(argv))
    [(passed, report)] = calls
    if command == "certify":  # the driver turns y = None into max(x, 1e4), which is 1e4 for every q < 2**31
        assert passed.pop("y") == 1e4
    parameters = inspect.signature(driver).parameters
    assert passed == {**{k: p.default for k, p in parameters.items() if k not in ("q", "y")}, **given}
    assert timeless(report) == timeless(driver(101, **given))


# certify CSV rows recorded before the congruence S1 kernel was regrouped by
# residue class; the new summation order may move the last ulps of s1, ratio
# and margin, so floats compare to 1e-12 relative and everything else exactly.
CERTIFY_HEADER = (
    "q,sigma,scheme_kind,cutoff,x,y,n,k,s1_real,s1_imag,s2,ratio,lower_bound,tail_fraction,"
    "r0_sq,l_r0_sq,certificate_passed,certificate_margin,tau_cert,tau_budget,s1_star_real,"
    "s1_star_imag,s2_star,ratio_star,certificate_star_passed"
)
CERTIFY_RECORD = {
    1009: (
        "1009,1.0,linear,9.554656006847093,9.554656006847093,10000.0,10000,10000,"
        "22294.384711608414,0.0,7336.390296443633,3.038876587906695,2.464204327204856,"
        "0.284356681290118,806.6313553509457,7892.728342221103,true,0.6978824770620817,0.0,0.05,"
        "14401.65636938731,0.0,6529.758941092688,2.2055418123869273,false"
    ),
    10007: (
        "10007,1.0,linear,14.608727921717403,14.608727921717403,10000.0,10000,10000,"
        "636012.2627088946,0.0,222959.70944781636,2.852588318687924,3.0714259146100855,"
        "0.7271442347287812,7800.17619903293,76345.05164786443,false,-0.06526630019165713,"
        "0.07124951146670999,0.05,559667.2110610302,0.0,215159.53324878344,2.6011731974427614,false"
    ),
}


def _cell_matches(got: str, want: str) -> bool:
    if "." not in want:  # ints, strings and verdicts
        return got == want
    return math.isclose(float(got), float(want), rel_tol=1e-12)


@pytest.mark.parametrize("q", sorted(CERTIFY_RECORD))
def test_certify_csv_matches_record(tmp_path, q):
    main(["certify", "--q", str(q), "--format", "csv", "--output-dir", str(tmp_path)])
    header, row = (tmp_path / f"certify_q{q}.csv").read_text().splitlines()
    assert header == CERTIFY_HEADER
    cells = dict(zip(header.split(","), row.split(",")))
    want = dict(zip(CERTIFY_HEADER.split(","), CERTIFY_RECORD[q].split(",")))
    mismatched = {key: (cells[key], want[key]) for key in want if not _cell_matches(cells[key], want[key])}
    assert mismatched == {}


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as excinfo:
        parse_config(["--help"])
    assert excinfo.value.code == 0
    assert "certify" in capsys.readouterr().out


class TestOracleCheck:
    def test_passes_on_small_moduli(self, capsys):
        assert oracle_check([5, 7, 101]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_passes_at_a_split_modulus(self, capsys):
        # (q-1)/2 = 5 * 103: the group DFT takes the Good-Thomas split
        assert oracle_check([1031]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_cli_entry(self, capsys):
        assert main(["oracle-check", "--q", "7"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_composite_q_exit_2(self):
        assert main(["oracle-check", "--q", "4"]) == 2

    def test_empty_exit_2(self):
        assert main(["oracle-check"]) == 2

    def test_golden_stdout(self, capsys):
        # sha256 of the whole report at q = 101 and 1009: every residual it
        # prints comes from the table, DFT and single-character L-value paths.
        # Re-recorded with the single centred kernel: only the four "batch
        # vs single" residuals moved, each still below 8e-16.  Re-recorded
        # when S1 lost its BLAS call: the dual-oracle s1 residual at q = 101
        # fell from 3.51e-16 to 1.18e-16, and nothing else moved.  Re-recorded
        # for the coprime-pair S1 kernel: the dual-oracle s1 residual at
        # q = 1009 fell from 1.36e-16 to 8.51e-18 (S1 moved 1.35 -> 0.35 ulp
        # from the exact prime-weight sum), and nothing else moved.
        # Re-recorded for the two-table long-double twiddles and the exact
        # half-spectrum character route: the orthogonality residuals fell
        # (1.54e-15 -> 1.08e-19, 9.51e-14 -> 2.71e-19), the four batch vs
        # single residuals fell (3.34e-16 -> 2.99e-16, 4.65e-16 -> 4.58e-16,
        # 5.18e-16 -> 4.97e-16, 7.73e-16 -> 6.28e-16), group-dft vs naive went
        # 1.30e-15 -> 8.33e-16 and 1.82e-15 -> 2.12e-15 (over every j at
        # q = 1009 both routes moved toward a long-double DFT: the group DFT
        # 6.97e-16 -> 5.91e-16 RMS relative, the naive sum 7.49e-16 ->
        # 4.63e-16), and the dual-oracle s1 residual went 1.18e-16 -> 1.17e-16
        # and 8.51e-18 -> 0, while s2 went 0 -> 1.38e-16 at q = 1009 (S2 is
        # now summed exactly over j <= h).  Re-recorded when the group DFT
        # took real vectors only: group-dft vs naive now transforms a real
        # draw and samples j <= h, 8.33e-16 -> 2.35e-15 and 2.12e-15 ->
        # 5.33e-15, each at an entry of modulus 0.8-1.5 and below
        # eps ||f||_2 sqrt(q-1) in absolute terms (the transform keeps its
        # bits); the batch vs single rows sample j <= h, which at q = 1009
        # moved 4.97e-16 -> 4.00e-16 and 6.28e-16 -> 3.51e-16
        assert oracle_check([101, 1009]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "399f9dc2b3d28db43f175895a03f6f84153cd212bcb93ef83eb19c6a6478240b"

    def test_peak_memory_per_residue(self, capsys):
        # tracemalloc peak of a second run in one process (the first fills
        # numpy's FFT plan cache and the single-character tables' caches):
        # measured 73.92 B per residue at W = 1 and 2, and up to 77.13 B at
        # W >= 3, where the six-block stages run on three threads; the group
        # DFT of a complex draw and the full-length mirrors of the spectrum
        # and the L-values read 89.94 B
        q = 98017
        oracle_check([q])
        tracemalloc.start()
        try:
            oracle_check([q])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "FAIL" not in capsys.readouterr().out
        assert peak <= 78 * q + 64 * 1024

    @pytest.mark.parametrize("q", [101, 1031])
    def test_dual_oracle_row_transforms_and_enumerates_once(self, group_of, monkeypatch, q):
        # both routes read one set of terms: one real group DFT each of the
        # resonator and the series residue sums, one enumeration of each
        calls = {"dft": 0, "coeffs": 0, "series": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(chargroup, "_half_spectrum", counted("dft", chargroup._half_spectrum))
        monkeypatch.setattr(resonance, "enumerate_coeffs", counted("coeffs", resonance.enumerate_coeffs))
        monkeypatch.setattr(resonance, "_series_support", counted("series", resonance._series_support))
        name, ok, _ = cli._dual_oracle_row(group_of(q))
        assert name == "dual-oracle quotient sums" and ok
        assert calls == {"dft": 2, "coeffs": 1, "series": 1}


def test_cli_import_loads_no_scipy():
    probe = "import sys, lextremes.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert run_probe(probe).strip() == "[]"


def test_scan_t3_and_census_load_no_numpy_ma(tmp_path):
    # np.isin and np.union1d go through np.unique, whose np.ma.is_masked imports numpy.ma (about 13 ms)
    runs = [["scan-t3", "--q", "1009", "--sigma", "0.75", "--tol", "0.3"], ["census", "--q", "1009"]]
    probe = "import sys; from lextremes import cli; "
    probe += f"[cli.main([*a, '--output-dir', {str(tmp_path)!r}]) for a in {runs}]; print('numpy.ma' in sys.modules)"
    assert run_probe(probe).strip().splitlines()[-1] == "False"
    assert json.loads((tmp_path / "scan-t3_q1009.json").read_text())["excluded_indices"]  # the census ran and excluded


def test_certify_at_the_largest_modulus_under_a_memory_cap(tmp_path):
    # 2**31 - 1 is the largest modulus certify accepts.  Its residue tables
    # follow N and K, not q, so the run fits a 3 GiB address space (q-long
    # float64 tables would need 16 GiB each); the cap binds the child only.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    q = 2**31 - 1
    src = os.path.dirname(os.path.dirname(lextremes.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = [sys.executable, "-m", "lextremes.cli", "certify", "--q", str(q), "--output-dir", str(tmp_path)]
    out = subprocess.run(argv, capture_output=True, text=True, env=env, preexec_fn=cap, timeout=120)
    assert out.returncode in (0, 1), out.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"certify_q{q}.csv", f"certify_q{q}.json"]
    header, row = (line.split(",") for line in (tmp_path / f"certify_q{q}.csv").read_text().splitlines())
    cells = dict(zip(header, row))
    # N = K = 10**4 and every km <= 10**8 < q, so km = n (mod q) only when
    # km = n: S1 is phi(q) * sum_m w_m sum_k w_km / k over every k <= 10**4
    coeffs = enumerate_coeffs(linear_scheme(float(cells["x"])), 10**4)
    w = dict(zip(coeffs.ns.tolist(), coeffs.weights.tolist()))
    direct = math.fsum(w[m] * w.get(k * m, 0.0) / k for m in w for k in range(1, 10**4 // m + 1))
    assert float(cells["s1_real"]) == pytest.approx((q - 1) * direct, rel=1e-12)


def test_no_unused_module_imports():
    # stdlib stand-in for a linter: every module-level import of a package
    # module (the __init__ re-exports aside) is used somewhere in that module
    package = pathlib.Path(lextremes.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_no_dead_private_names():
    # every module-level private function, class and constant of the package
    # is read somewhere in the package outside its own definition
    package = pathlib.Path(lextremes.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    reads = []  # (module, line, name) of every name load, attribute and imported name
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                reads.append((module, node.lineno, node.attr))
            elif isinstance(node, ast.alias):
                reads.append((module, node.lineno, node.name))
    checked, dead = 0, []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("_") or name.startswith("__"):
                    continue
                checked += 1
                if not any(
                    read == name and not (m == module and node.lineno <= line <= node.end_lineno)
                    for m, line, read in reads
                ):
                    dead.append(f"{module}:{node.lineno}: {name}")
    assert checked > 50 and dead == []


def test_arrays_are_summed_exactly_by_one_kernel():
    # exact sums of arrays go through `numth._exact_sum`: no math.fsum over a
    # memoryview or a .tolist(), and none at all in lfunc or chargroup
    package = pathlib.Path(lextremes.__file__).parent
    calls = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("math.fsum", "fsum"):
                calls.append((path.name, node.lineno, ast.unparse(node.args[0])))
    assert calls, "the scan found no math.fsum call at all"
    banned = [
        f"{module}:{line}: math.fsum({arg})"
        for module, line, arg in calls
        if module in ("lfunc.py", "chargroup.py") or arg.startswith("memoryview(") or arg.endswith(".tolist()")
    ]
    assert banned == []


def test_full_residue_tables_are_made_only_by_chargroup():
    # a character sum of terms goes through `chargroup._term_sums`: no other
    # module asks `numth._residue_sums` for a table of a given size
    package = pathlib.Path(lextremes.__file__).parent
    calls = [
        (path.name, node)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("_residue_sums")
    ]
    sized = [
        f"{module}:{node.lineno}: {ast.unparse(node)}"
        for module, node in calls
        if module != "chargroup.py" and (len(node.args) > 3 or any(kw.arg == "size" for kw in node.keywords))
    ]
    assert sized == []
    assert {module for module, _ in calls} >= {"chargroup.py", "resonance.py"}, "the scan missed a known call"


def test_group_tables_are_read_only_by_chargroup():
    # the layout of a group's tables is chargroup's decision: no other module
    # of the package reads a private attribute of a CharacterGroup
    package = pathlib.Path(lextremes.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    group_class = next(
        node for node in trees["chargroup.py"].body if isinstance(node, ast.ClassDef) and node.name == "CharacterGroup"
    )
    names = {node.attr for node in ast.walk(group_class) if isinstance(node, ast.Attribute)}
    names |= {node.name for node in group_class.body if isinstance(node, ast.FunctionDef)}
    private = {name for name in names if name.startswith("_") and not name.startswith("__")}
    assert {"_roots", "_steps"} <= private
    reads = [
        f"{module}:{node.lineno}: .{node.attr}"
        for module, tree in trees.items()
        if module != "chargroup.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert reads == []


def test_cli_validate_leaves_the_drivers_rules_to_them():
    # each rule on a driver's argument has one owner, the driver: cli._validate compares
    # none of those arguments, by attribute or by name, so no copy of a rule can drift
    tree = ast.parse(inspect.getsource(cli._validate))
    compared = {
        node.attr if isinstance(node, ast.Attribute) else node.value
        for compare in ast.walk(tree)
        if isinstance(compare, ast.Compare)
        for node in ast.walk(compare)
        if isinstance(node, (ast.Attribute, ast.Constant))
    }
    named = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert {"format", "jobs", "n", "k", "sigma"} <= compared, "the scan missed a comparison cli._validate keeps"
    assert (compared | named) & {"b", "delta_list", "epsilon", "tol", "tau_budget", "x_cap"} == set()


def _no_group(q):
    raise AssertionError(f"build_group({q}) was called")


# Each argument rule, the driver call that owns it, and the values just outside its domain.
_ARGUMENT_RULES = {
    "b > log 4": (lambda group, v: resonance.ratio_certificate(101, v), [math.log(4)], "b must exceed"),
    "certify tau_budget in [0, 1)": (
        lambda group, v: resonance.ratio_certificate(101, 1.4, tau_budget=v), [-5e-324, 1.0], "tau_budget"
    ),
    "scan-t3 tau_budget in [0, 1)": (
        lambda group, v: extremes.scan_sigma_strip(1009, 0.75, tau_budget=v), [-5e-324, 1.0], "tau_budget"
    ),
    "epsilon >= 0": (lambda group, v: extremes.scan_sigma1(1009, v), [-5e-324], "epsilon"),
    "delta in (0, 709.78]": (
        lambda group, v: extremes.threshold_census(1009, (0.5, v)), [0.0, math.nextafter(709.78, math.inf)], "delta"
    ),
    "scan-t3 census_tol >= 0": (
        lambda group, v: extremes.scan_sigma_strip(1009, 0.75, census_tol=v), [-5e-324], "census_tol"
    ),
    "approx_error_census tol >= 0": (
        lambda group, v: lfunc.approx_error_census(group, 0.75, 100.0, v, np.ones(50)), [-5e-324], "tol"
    ),
    "sigma in (1/2, 1)": (lambda group, v: extremes.scan_sigma_strip(1009, v), [0.5, 1.0], "sigma"),
    "x_cap in [2, 1e8]": (
        lambda group, v: extremes.scan_sigma_strip(1009, 0.75, x_cap=v),
        [math.nextafter(2, 0), math.nextafter(1e8, 2e8)],
        "x_cap",
    ),
}


@pytest.mark.parametrize("rule", sorted(_ARGUMENT_RULES))
def test_each_driver_refuses_its_arguments_before_any_group(monkeypatch, group_of, rule):
    call, outside, named = _ARGUMENT_RULES[rule]
    group = group_of(101)  # for the census, which takes its group from its caller
    for module in (chargroup, extremes, cli):
        monkeypatch.setattr(module, "build_group", _no_group)
    for value in (math.nan, *outside):
        with pytest.raises(ValueError, match=named):
            call(group, value)


def test_half_weight_certificate_refuses_a_nan_y_min(monkeypatch, group_of):
    # max() dropped the nan: y = 1.41 at q = 101, an empty resonator and a certificate passed against 0
    def no_work(*args):
        raise AssertionError("the certificate started its work")

    monkeypatch.setattr(resonance, "enumerate_coeffs", no_work)
    with pytest.raises(ValueError, match="y_min = nan"):
        resonance.half_weight_certificate(group_of(101), 0.75, y_min=math.nan)


# Every key's (valid, invalid) values for the CLI-contract property test: its
# domain and its edges.  q, N, K, --jobs and --x-cap stay small, so that no
# drawn run needs much memory or time (scan-t3 sieves up to its x-cap).
# --x-cap draws past its bound of 1e8; a run at the bound sieves up to 1e8
# (4 s and 200 MB at q = 101, sigma = 0.75), so the range-end test above
# accepts 1e8 without running it.
_CONTRACT_VALUES = {
    "q": (["17", "19", "101"], ["0", "-7", "4", "15", "2147483659", "1.5", "abc"]),  # 5 and 7 by command
    "sigma": (["0.51", "0.75", "0.99"], ["0.5", "1", "0", "-1", "1e308", "nan"]),
    "delta": (["0.5,1", "3", "709.78"], ["710", "1e308", "0", "-1", "nan", ""]),
    "b": (["1.4", "2", "1e308"], ["1.3", "0", "-1", "nan"]),
    "epsilon": (["0", "0.5", "1e308"], ["-1", "nan"]),
    "a_sigma": (["0.5", "0", "-1", "1e308"], ["nan"]),
    "x_cap": (["2", "50", "1e5"], ["1.5", "0", "-1", "nan", "1.0000001e8", "1e11", "inf"]),
    "y_min": (["20", "2", "0", "-1", "1e308"], ["nan"]),
    "n": (["1", "50", "300"], ["0", "-5", "9223372036854775808", "1.5"]),
    "k": (["1", "50", "300"], ["0", "-5", "9223372036854775808", "1.5"]),
    "y": (["1e4", "2", "0", "-1", "1e308"], ["nan"]),
    "tol": (["1", "0", "1e308"], ["-1", "nan"]),
    "tau_budget": (["0.05", "0", "0.99"], ["1", "-0.1", "nan"]),
    "format": (["csv", "json", "both"], ["xml"]),
    "jobs": (["1", "2"], ["0", "-1"]),
}


@st.composite
def _cli_runs(draw):
    """A command, its q list and some of its keys (sigma always), each given as
    a flag or in a config file, and whether any value lies outside its
    domain; half the runs draw from the valid values only."""
    command = draw(st.sampled_from(COMMANDS))
    valid_only = draw(st.booleans())
    invalid = []

    def value(key):
        valid, outside = _CONTRACT_VALUES[key]
        if key == "q" and command in ("certify", "oracle-check"):  # they take q >= 5, the scans q >= 17
            valid = valid + ["5", "7"]
        elif key == "q":
            outside = outside + ["5", "7"]
        chosen = draw(st.sampled_from(valid if valid_only else valid + outside))
        invalid.append(chosen in outside)
        return chosen

    values = {"q": ",".join(value("q") for _ in range(draw(st.integers(1, 2))))}
    for key, row in cli._KEYS.items():
        if key not in ("q", "output_dir") and command in row.commands and (key == "sigma" or draw(st.booleans())):
            values[key] = value(key)
    return command, values, draw(st.sets(st.sampled_from(sorted(values)))), any(invalid)


def test_contract_values_cover_every_key():
    assert set(_CONTRACT_VALUES) == set(cli._KEYS) - {"output_dir"}


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=_cli_runs())
@example(run=("scan-t3", {"q": "101,17", "sigma": "0.51"}, set(), False))  # q = 17's cutoff failed after 101 ran
@example(run=("scan-t3", {"q": "17", "sigma": "0.51", "a_sigma": "0", "y_min": "0"}, {"y_min"}, False))  # cutoff y = 0
@example(run=("census", {"q": "17", "delta": "1e308"}, set(), True))  # e**delta overflowed
@example(run=("certify", {"q": "101", "tau_budget": "1"}, {"tau_budget"}, True))  # once ignored, then unchecked
@example(run=("scan-t3", {"q": "101", "sigma": "0.75", "tol": "-1"}, set(), True))  # once rejected after the batch
@example(run=("scan-t3", {"q": "101", "sigma": "0.75", "x_cap": "1.5"}, set(), True))  # the same
@example(run=("scan-t3", {"q": "42379", "sigma": "0.51"}, set(), False))  # (log q)**300 overflowed
def test_cli_contract(tmp_path, monkeypatch, capsys, run):
    # exit 0, 1 or 2 and no traceback, and 2 for any value outside its domain;
    # exit 2 before any group is built; an output directory only at exit 0
    # or 1; a rerun writes the same CSV bytes
    command, values, in_file, invalid = run
    work = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
    builds = work / "builds"  # appended to by worker processes under --jobs too

    def noted_build_group(q):
        with open(builds, "a") as note:
            note.write(f"{q}\n")
        return chargroup.build_group(q)

    for module in (cli, extremes):
        monkeypatch.setattr(module, "build_group", noted_build_group)
    (work / "run.cfg").write_text("".join(f"{key} = {values[key]}\n" for key in in_file))
    flags = [f"{cli._KEYS[key].flag}={value}" for key, value in values.items() if key not in in_file]
    argv = [command, *flags, "--config", str(work / "run.cfg")]
    codes = [main([*argv, f"--output-dir={work / name}"]) for name in ("first", "second")]
    out, err = capsys.readouterr()
    assert codes[0] in ((2,) if invalid else (0, 1, 2)), err
    assert codes[1] == codes[0]
    assert "Traceback" not in out + err
    if codes[0] == 2:  # the one exit 2 that needs the L-values: a census that excluded every character
        assert not builds.exists() or "excluded every character" in err
    if codes[0] not in (0, 1) or command == "oracle-check":
        assert not (work / "first").exists()
    else:
        first = sorted(path.name for path in (work / "first").glob("*.csv"))
        assert first == sorted(path.name for path in (work / "second").glob("*.csv"))
        assert all((work / "first" / name).read_bytes() == (work / "second" / name).read_bytes() for name in first)
