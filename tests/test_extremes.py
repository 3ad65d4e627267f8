import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lextremes import (
    CensusReport,
    approx_error_census,
    l_value_batch,
    reference_constants,
    scan_sigma1,
    scan_sigma_strip,
    sieve_primes,
    sigma1_upper_check,
    threshold_census,
)
from lextremes import extremes
from lextremes.chargroup import CharacterGroup, build_group
from lextremes.cli import _json_bytes
from lextremes.extremes import _resonator_abs_sq_all
from lextremes.resonator import half_scheme, linear_scheme

from conftest import ODD_PRIMES

EULER_GAMMA = 0.5772156649015329


def complex_resonator_abs_sq(group, scheme) -> np.ndarray:
    """|R(chi_j)|**2 as the complex product over primes, divided out over
    all q-1 characters with `values_at` and its own weight formula: the
    oracle for the real half-group kernel."""
    values = np.ones(group.q - 1, dtype=complex)
    for p in sieve_primes(int(scheme.cutoff)).tolist():
        if p > scheme.cutoff:
            continue
        w = 1 - p / scheme.cutoff if scheme.kind == "linear" else 0.5
        if w > 0:
            values /= 1 - w * group.values_at(p)
    return np.abs(values) ** 2


class TestResonatorScan:
    @settings(max_examples=40, deadline=None)
    @given(
        q=st.sampled_from(ODD_PRIMES),
        kind=st.sampled_from(["linear", "half"]),
        cutoff=st.floats(2.0, 100.0),
    )
    @example(q=3, kind="linear", cutoff=7.5)  # cutoff past q: the prime 3 drops out
    @example(q=10007, kind="linear", cutoff=math.log(10007) * math.log(math.log(10007)) / 1.4)
    def test_matches_complex_product(self, group_of, q, kind, cutoff):
        scheme = linear_scheme(cutoff) if kind == "linear" else half_scheme(cutoff)
        group = group_of(q)
        got = _resonator_abs_sq_all(group, scheme)
        want = complex_resonator_abs_sq(group, scheme)
        assert got.shape == (q - 1,)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert np.array_equal(got[1:], got[:0:-1])

    def test_uses_no_character_table(self, monkeypatch):
        def refuse(self, n):
            raise AssertionError("the resonator scan evaluated values_at")

        monkeypatch.setattr(CharacterGroup, "values_at", refuse)
        scan_sigma1(1009)
        scan_sigma_strip(1009, 0.75)

    @pytest.mark.parametrize("q", [1009, 10007])
    def test_resonant_index_is_lower_of_its_pair(self, q):
        # |R|**2 ties exactly on a conjugate pair and argmax keeps the first
        for report in (scan_sigma1(q), scan_sigma_strip(q, 0.75)):
            assert 1 <= report.resonant_index <= (q - 1) // 2


class TestLeanGroup:
    """The whole-group drivers read only `power_residues` and the lower half
    of the root table, so they never build dlog or the full root table."""

    def test_whole_group_paths_build_no_single_character_tables(self, monkeypatch):
        groups = []

        def capture(q):
            groups.append(build_group(q))
            return groups[-1]

        monkeypatch.setattr(extremes, "build_group", capture)
        scan_sigma1(1009)
        threshold_census(1009, [0.5, 1.0])
        scan_sigma_strip(1009, 0.75)
        assert len(groups) == 3
        for group in groups:
            assert "dlog" not in vars(group)
            assert group._roots.size == (group.q - 1) // 2 + 1

    # at q = 98017, h = 2**4 * 3 * 1021 takes the Good-Thomas split;
    # at q = 97021, h = 2 * 3**2 * 5 * 7**2 * 11 is one plain FFT
    @pytest.mark.parametrize("q", [98017, 97021])
    def test_sigma1_peak_at_most_44_bytes_per_residue(self, q):
        # the group (12 B) and the L-value batch (32 B) at the peak; the
        # resonator scan stays below it (40 B).  The fixed allowance covers
        # the prime lists and small arrays (measured 1.5 KiB).
        allowance = 64 * 1024
        scan_sigma1(q)  # numpy's FFT plan cache is traced too; fill it first
        for run in (lambda: scan_sigma1(q), lambda: threshold_census(q, [0.5, 1.0])):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 44 * q + allowance


class TestConstants:
    def test_values(self):
        const = reference_constants()
        assert const.e_gamma == pytest.approx(1.781072, abs=5e-7)
        assert const.c == pytest.approx(1.326634, abs=5e-7)
        assert const.c == pytest.approx(1 + math.log(math.log(4)), abs=1e-15)
        assert const.c0 == -0.395
        assert const.conjectural_offset == pytest.approx(-0.395 + 1 - math.log(2), abs=1e-15)
        assert const.conjectural_offset == pytest.approx(-0.088, abs=5e-4)


class TestScanSigma1:
    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            scan_sigma1(5)
        with pytest.raises(ValueError):
            scan_sigma1(13)

    def test_bound_arithmetic_q10007(self):
        report = scan_sigma1(10007)
        lq = math.log(10007.0)
        expected = math.exp(EULER_GAMMA) * (
            math.log(lq) + math.log(math.log(lq)) - (1 + math.log(math.log(4)))
        )
        assert report.bound_value == pytest.approx(expected, abs=1e-12)
        assert report.bound_value == pytest.approx(3.012608, abs=1e-5)

    def test_argmax_consistency(self, group_of):
        report = scan_sigma1(1009)
        labs = [abs(complex(v)) for v in l_value_batch(group_of(1009), 1.0).values]
        assert report.max_abs_l == pytest.approx(max(labs), abs=1e-14)
        assert labs[report.argmax_index - 1] == pytest.approx(report.max_abs_l, abs=1e-14)

    @pytest.mark.parametrize("q", [3, 5, 1009, 10007])
    @pytest.mark.parametrize("sigma", [1.0, 0.75])
    def test_abs_l_bit_identical_to_python_abs(self, group_of, q, sigma):
        # scans and censuses compare |L| against thresholds and take argmax,
        # so the array path must round exactly like abs(complex); it mirrors
        # the lower half, which at q = 3 is the one real character alone
        values = l_value_batch(group_of(q), sigma).values
        expected = [abs(complex(v)) for v in values]
        assert l_value_batch(group_of(q), sigma).abs_values().tolist() == expected

    @pytest.mark.parametrize(
        "q,margin,argmax,resonant",
        [
            (1009, 1.0634714145071023, 99, 504),
            # 76 = 10006 - 9930: the pair's tie now goes to the lower index
            (10007, 1.0901415993635952, 1185, 76),
        ],
    )
    def test_margin_regression(self, q, margin, argmax, resonant):
        report = scan_sigma1(q)
        assert report.margin == pytest.approx(margin, abs=1e-9)
        assert report.argmax_index == argmax
        assert report.resonant_index == resonant

    @pytest.mark.parametrize("q", [1009, 10007])
    def test_resonant_character_beats_median(self, group_of, q):
        # the resonator's pick has |L(1, chi)| at least the group median;
        # verified on first run, asserted as a hard invariant thereafter
        report = scan_sigma1(q)
        labs = np.array([abs(complex(v)) for v in l_value_batch(group_of(q), 1.0).values])
        assert report.resonant_abs_l >= np.median(labs)
        assert report.max_abs_l >= report.resonant_abs_l


class TestThresholdCensus:
    def test_reference_exponent_closed_form(self):
        report = threshold_census(17, [0.5])
        assert report.exponents_ref[0] == pytest.approx(1 - math.exp(-0.5), abs=1e-12)
        assert report.exponents_ref[0] == pytest.approx(0.393469, abs=5e-7)

    def test_counts_regression_q1009(self):
        report = threshold_census(1009, [0.5, 1.0, 2.0, 3.0])
        assert report.counts == (267, 955, 1007, 1007)
        assert report.counts[-1] >= 1  # at least one extreme character at delta=3

    def test_monotone_and_capped(self):
        report = threshold_census(1009, [0.5, 1.0, 2.0, 3.0])
        assert all(a <= b for a, b in zip(report.counts, report.counts[1:]))
        assert all(c <= 1009 - 2 for c in report.counts)  # phi(q) - 1 non-principal

    def test_empirical_exponents_in_unit_interval(self):
        report = threshold_census(1009, [0.5, 1.0, 2.0, 3.0])
        for count, exponent in zip(report.counts, report.exponents_emp):
            if count >= 1:
                assert 0.0 <= exponent <= 1.0

    def test_b_values_recorded(self):
        report = threshold_census(1009, [0.5])
        lq2 = math.log(math.log(1009))
        expected = math.exp(0.5) * math.exp(-1 / math.sqrt(lq2)) * math.log(4)
        assert report.b_values[0] == pytest.approx(expected, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            threshold_census(1009, [])
        with pytest.raises(ValueError):
            threshold_census(1009, [0.5, -1.0])
        with pytest.raises(ValueError):
            threshold_census(15, [0.5])


class TestScanSigmaStrip:
    def test_sigma_one_rejected(self):
        with pytest.raises(ValueError):
            scan_sigma_strip(1009, 1.0)
        with pytest.raises(ValueError):
            scan_sigma_strip(1009, 0.5)

    def test_cutoff_past_modulus_rejected_before_the_group_is_built(self, monkeypatch):
        # y = max(..., y_min) = 1e6 >= q: refused before the group and the L-value batch
        def no_group(q):
            raise AssertionError("build_group was called")

        monkeypatch.setattr(extremes, "build_group", no_group)
        with pytest.raises(ValueError, match="half-weight cutoff"):
            scan_sigma_strip(300809, 0.75, y_min=1e6)

    def test_target_shape_q10007(self):
        report = scan_sigma_strip(10007, 0.75)
        lq = math.log(10007.0)
        expected = lq**0.25 * math.log(lq) ** (-0.75)
        assert report.bound_value == pytest.approx(expected, abs=1e-12)
        assert report.bound_value == pytest.approx(0.958, abs=5e-4)

    @pytest.mark.parametrize(
        "q,c_hat,max_log",
        [
            (1009, 1.6145595681273741, 1.5966018802853934),
            (10007, 2.043281185855075, 1.9569579014587715),
        ],
    )
    def test_c_hat_regression(self, q, c_hat, max_log):
        report = scan_sigma_strip(q, 0.75)
        assert report.c_hat == pytest.approx(c_hat, abs=1e-9)
        assert report.max_log_abs_l == pytest.approx(max_log, abs=1e-9)
        assert report.c_hat > 0
        assert report.margin == pytest.approx(report.max_log_abs_l - report.bound_value, abs=1e-12)

    def test_attached_quotient_certificate(self):
        report = scan_sigma_strip(1009, 0.75)
        assert report.quotient is not None
        assert report.quotient.certificate.passed
        assert report.excluded_indices == ()
        assert report.max_abs_l == pytest.approx(math.exp(report.max_log_abs_l), rel=1e-12)

    @pytest.mark.parametrize(
        "q,sigma,tol,x,excluded",
        [
            (101, 0.95, 0.1, math.log(101) ** (3 / 0.45), 45),  # x from the formula, about 2.68e4
            (1009, 0.75, 0.3, 1e5, 41),  # x at the cap
            (211, 0.99, 0.15, math.log(211) ** (3 / 0.49), 33),  # the cap 1e5 would exclude 37
        ],
        ids=["q101-formula", "q1009-cap", "q211-formula"],
    )
    def test_census_uses_the_certificate_cutoff(self, group_of, q, sigma, tol, x, excluded):
        report = scan_sigma_strip(q, sigma, census_tol=tol)
        assert report.quotient.x == pytest.approx(x, rel=1e-12)
        group = group_of(q)
        census = approx_error_census(group, sigma, report.quotient.x, tol, l_value_batch(group, sigma).abs_values())
        assert report.excluded_indices == census.indices
        assert len(census.indices) == excluded

    def test_census_excluding_every_character_is_refused(self):
        with pytest.raises(ValueError, match="excluded every character"):
            scan_sigma_strip(101, 0.75, census_tol=0.0)


class TestUpperCheck:
    def test_bound_arithmetic_q1009(self):
        result = sigma1_upper_check(1009)
        assert result.bound == pytest.approx(math.log(1009) / 3 * 1.5, abs=1e-12)
        assert result.bound == pytest.approx(3.458, abs=5e-4)
        assert result.ok  # 3.3199 <= 3.4584

    def test_q17_runs_and_reports_violation(self):
        # measured: max |L(1, chi)| = 1.6485 exceeds 0.5 log 17 = 1.4166, so
        # the desk-scale slack 0.5 is not yet enough at q = 17
        result = sigma1_upper_check(17)
        assert result.max_abs_l == pytest.approx(1.6484937069983838, abs=1e-9)
        assert result.ok is (result.max_abs_l <= result.bound)
        assert not result.ok

    def test_infinite_slack_always_ok(self):
        assert sigma1_upper_check(17, slack=math.inf).ok

    @pytest.mark.parametrize("q", [17, 101, 1009])
    def test_reads_the_sigma1_scan(self, group_of, q):
        max_abs = sigma1_upper_check(q).max_abs_l
        assert max_abs == scan_sigma1(q).max_abs_l
        assert max_abs == l_value_batch(group_of(q), 1.0).abs_values().max()

    def test_runs_no_resonator_scan(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("the upper check ran the resonator scan")

        monkeypatch.setattr(extremes, "_resonator_abs_sq_all", no_scan)
        assert sigma1_upper_check(101).max_abs_l == pytest.approx(2.4934830959899292, abs=1e-12)


class TestReportSerialization:
    def test_scan_report_round_trip(self):
        report = scan_sigma1(1009)
        parsed = json.loads(_json_bytes(dataclasses.asdict(report)))
        for key in ("max_abs_l", "bound_value", "margin", "resonant_abs_l"):
            assert parsed[key] == pytest.approx(getattr(report, key), abs=1e-12)
        assert parsed["q"] == 1009 and parsed["argmax_index"] == report.argmax_index

    def test_census_report_round_trip(self):
        report = threshold_census(1009, [0.5, 1.0])
        parsed = json.loads(_json_bytes(dataclasses.asdict(report)))
        assert parsed["counts"] == list(report.counts)
        for got, expected in zip(parsed["thresholds"], report.thresholds):
            assert got == pytest.approx(expected, abs=1e-12)
        assert parsed["constants"]["c"] == pytest.approx(1.3266342599782809, abs=1e-12)

    def test_strip_scan_includes_quotient(self):
        report = scan_sigma_strip(1009, 0.75)
        parsed = json.loads(_json_bytes(dataclasses.asdict(report)))
        assert parsed["quotient"]["certificate"]["passed"] is True
        assert parsed["c_hat"] == pytest.approx(report.c_hat, abs=1e-12)

    def test_nan_in_a_tuple_field_becomes_null(self):
        # an empty census cell has exponent_emp = log(0) -> NaN; JSON has no NaN
        report = CensusReport(1009, 1.0, (9.0,), (4.0,), (0,), (math.nan,), (0.9,), (1.0,), 3.0)
        data = _json_bytes(dataclasses.asdict(report))
        assert b"NaN" not in data
        assert json.loads(data)["exponents_emp"] == [None]
