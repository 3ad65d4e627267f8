import dataclasses
import hashlib
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
    l_value,
    l_value_batch,
    reference_constants,
    scan_sigma1,
    scan_sigma_strip,
    sieve_primes,
    sigma1_upper_check,
    threshold_census,
)
from lextremes import chargroup, cli, extremes, lfunc, numth
from lextremes.chargroup import CharacterGroup, build_group
from lextremes.cli import _json_bytes
from lextremes.extremes import _resonator_log_abs_all
from lextremes.resonator import half_scheme, linear_scheme

from conftest import ODD_PRIMES, SPLIT_Q, all_l_values

EULER_GAMMA = 0.5772156649015329


def complex_resonator_abs_sq(group, scheme) -> np.ndarray:
    """|R(chi_j)|**2 as the complex product over primes, divided out over
    all q-1 characters with `values_at` and its own weight formula: the
    oracle for the log-series group DFT kernel."""
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
    @example(q=SPLIT_Q, kind="half", cutoff=40.0)  # the Good-Thomas split of the group DFT
    @example(q=10007, kind="linear", cutoff=100.0)  # w_2 = 0.98: the longest series drawn
    def test_matches_complex_product(self, group_of, q, kind, cutoff):
        scheme = linear_scheme(cutoff) if kind == "linear" else half_scheme(cutoff)
        group = group_of(q)
        got = np.exp(2 * _resonator_log_abs_all(group, scheme))  # j = 0..h: the conjugates tie
        want = complex_resonator_abs_sq(group, scheme)
        assert got.shape == ((q - 1) // 2 + 1,)
        np.testing.assert_allclose(got, want[: got.size], rtol=1e-12, atol=0)
        np.testing.assert_allclose(got[1:], want[::-1][: got.size - 1], rtol=1e-12, atol=0)

    def test_uses_no_character_table(self, monkeypatch):
        def refuse(self, n):
            raise AssertionError("the resonator scan evaluated values_at")

        monkeypatch.setattr(CharacterGroup, "values_at", refuse)
        scan_sigma1(1009)
        scan_sigma_strip(1009, 0.75)

    @pytest.mark.parametrize("q", [1009, SPLIT_Q])
    def test_resonant_index_skips_an_excluded_pair(self, group_of, q):
        # the search runs over j <= h, so an excluded pair must drop out there
        group, scheme = group_of(q), linear_scheme(20.0)
        first = extremes._resonant_index(group, scheme)
        second = extremes._resonant_index(group, scheme, (first, q - 1 - first))
        want = complex_resonator_abs_sq(group, scheme)
        want[[0, first, q - 1 - first]] = 0.0
        assert 1 <= second <= (q - 1) // 2 and second != first
        assert want[second] == pytest.approx(want.max(), rel=1e-12)

    @pytest.mark.parametrize("q", [1009, 10007])
    def test_resonant_index_is_lower_of_its_pair(self, q):
        # |R|**2 ties exactly on a conjugate pair and argmax keeps the first
        for report in (scan_sigma1(q), scan_sigma_strip(q, 0.75)):
            assert 1 <= report.resonant_index <= (q - 1) // 2


class TestLeanGroup:
    """The whole-group drivers stream the powers of g and the twiddles by
    blocks, so they never build dlog or the root table."""

    def test_whole_group_paths_build_no_single_character_tables(self, monkeypatch):
        groups = []

        def capture(q):
            groups.append(build_group(q))
            return groups[-1]

        monkeypatch.setattr(extremes, "build_group", capture)
        q = 20011  # q - 1 > _BLOCK: the step table is shorter than the group
        scan_sigma1(q)
        threshold_census(q, [0.5, 1.0])
        scan_sigma_strip(q, 0.75)
        assert len(groups) == 3
        for group in groups:
            arrays = {name: v for name, v in vars(group).items() if isinstance(v, np.ndarray)}
            assert list(arrays) == ["_steps", "_roots_lo", "_roots_hi"]  # and the twiddle tables, 2**8 roots each
            assert arrays["_steps"].size == chargroup._BLOCK < q - 1 and arrays["_roots_lo"].size <= 2**8

    def test_single_values_build_no_dlog(self):
        # l_value reads chi_j(g**k) = root[jk mod (q-1)] along the cached
        # power-order kernel
        group = build_group(1009)
        for sigma in (1.0, 0.75):
            for j in (0, 1, 504, 1007):
                if (sigma, j) != (1.0, 0):
                    l_value(group.character(j), sigma)
        assert "dlog" not in vars(group)

    # at q = 98017, h = 2**4 * 3 * 1021 takes the Good-Thomas split;
    # at q = 97021, h = 2 * 3**2 * 5 * 7**2 * 11 is one plain FFT
    @pytest.mark.parametrize("q", [98017, 97021])
    def test_sigma1_peak_at_most_36_bytes_per_residue(self, q):
        # the name keeps the bound this pin began with; it asserts 24 B now.
        # Past the allowance, scan-t1 measured 18.4 B at W = 1, 20.5 B at
        # W = 2 and up to 22.6 B at W >= 3 (98017 and 97021), the census 17.5
        # and 16.3 B at any W.  A group holds its 64 KB step table and two
        # twiddle tables of 2**9 and 2**8 roots.  The scan's peak is the
        # resonator's residue table (8 B) beside the transform's buffer (8 B)
        # it is gathered into, plus each thread's block of powers (128 KB, up
        # to three threads at this q), whose quotient is formed in the buffer;
        # the census's is the buffer beside the sigma = 1 kernel's block work
        # arrays, or on the split path beside the (p, r) array (8 B).
        # The fixed allowance covers the prime lists and small arrays.
        allowance = 64 * 1024
        scan_sigma1(q)  # numpy's FFT plan cache is traced too; fill it first
        for run in (lambda: scan_sigma1(q), lambda: threshold_census(q, [0.5, 1.0])):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 24 * q + allowance

    @pytest.mark.parametrize("q", [98017, 97021])
    def test_strip_peak_at_most_56_bytes_per_residue(self, q):
        # the name keeps the bound this pin began with; it asserts 30 B now.
        # Past the allowance, measured 24.9 B at W = 1, 27.0 B at W = 2 and
        # 28.3 to 29.0 B at W >= 3, as the threads interleave (q = 98017 and
        # 97021).  At W = 1 the certificate's series transform sets the peak
        # (its residue table and buffer beside |R|**2 on j <= h); at W >= 3
        # the L-value batch does, its buffer beside the kernel's block work
        # arrays on three threads.  Every driver reads j <= h only, so no
        # array of q entries is mirrored.  Same allowance as above.
        allowance = 64 * 1024
        scan_sigma_strip(q, 0.75)  # fill numpy's FFT plan cache first
        tracemalloc.start()
        try:
            scan_sigma_strip(q, 0.75)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30 * q + allowance


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
        labs = [abs(complex(v)) for v in all_l_values(l_value_batch(group_of(1009), 1.0))]
        assert report.max_abs_l == pytest.approx(max(labs), abs=1e-14)
        assert labs[report.argmax_index - 1] == pytest.approx(report.max_abs_l, abs=1e-14)

    @pytest.mark.parametrize("q", [3, 5, 1009, 10007])
    @pytest.mark.parametrize("sigma", [1.0, 0.75])
    def test_abs_l_bit_identical_to_python_abs(self, group_of, q, sigma):
        # scans and censuses compare |L| against thresholds and take argmax,
        # so the array path must round exactly like abs(complex), over the
        # lower half, which at q = 3 is the one real character alone
        batch = l_value_batch(group_of(q), sigma)
        expected = [abs(complex(v)) for v in all_l_values(batch)]
        assert batch.half_abs().tolist() == expected[: (q - 1) // 2]
        assert expected == expected[: (q - 1) // 2] + expected[: (q - 3) // 2][::-1]  # conjugates tie

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
        labs = np.array([abs(complex(v)) for v in all_l_values(l_value_batch(group_of(q), 1.0))])
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

    @pytest.mark.parametrize("q", [1009, 10007])
    def test_counts_on_a_tie_match_the_full_spectrum(self, monkeypatch, q):
        # thresholds exactly at |L(1, chi_h)| (the real character, counted
        # once) and at a conjugate pair's value, and one ulp below each: the
        # half count 2 #{j < h above} + [j = h above] equals the count over
        # all q - 2 characters.  With c = loglog q + logloglog q - 1.5 (exact
        # in floats here) the threshold at delta = 0.5 is e_gamma itself.
        h = (q - 1) // 2
        half = l_value_batch(build_group(q), 1.0).half_abs()
        full = np.concatenate((half, half[-2::-1]))  # j = 1..q-2: conjugates tie
        _, log2_q, log3_q = extremes._iterated_logs(q)
        for j, members in ((h, 1), (h // 2, 2)):
            counts = []
            for threshold in (full[j - 1], np.nextafter(full[j - 1], 0)):
                constants = extremes.Constants(e_gamma=float(threshold), c=log2_q + log3_q - 1.5, c0=0.0, conjectural_offset=0.0)
                monkeypatch.setattr(extremes, "reference_constants", lambda: constants)
                report = threshold_census(q, [0.5])
                assert report.thresholds == (threshold,)
                assert report.counts == (int(np.sum(full > threshold)),)
                counts.append(report.counts[0])
            assert counts[1] - counts[0] == members
        # the census that scan-t3 excludes is closed under j <-> q-1-j, so
        # its resonator search over j <= h sees every excluded pair
        monkeypatch.undo()
        excluded = set(scan_sigma_strip(1009, 0.75, census_tol=0.3).excluded_indices)
        assert excluded and excluded == {1008 - j for j in excluded}

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

    def test_delta_past_the_float_range_rejected_before_the_group(self, monkeypatch):
        # e**delta must be a float: the grid's bound 709.78 is accepted, and
        # anything above it is rejected before any group is built
        largest = 709.78
        assert math.isfinite(threshold_census(17, [largest]).b_values[0])

        def no_group(q):
            raise AssertionError("a group was built")

        monkeypatch.setattr(extremes, "build_group", no_group)
        for delta in (np.nextafter(largest, math.inf), 1e308, math.inf, math.nan):
            with pytest.raises(ValueError, match="e\\*\\*delta"):
                threshold_census(17, [0.5, delta])


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
        census = approx_error_census(group, sigma, report.quotient.x, tol, l_value_batch(group, sigma).half_abs())
        assert report.excluded_indices == census.indices
        assert len(census.indices) == excluded

    @pytest.mark.parametrize("q", [10007, SPLIT_Q])
    def test_four_transforms_per_modulus_at_the_defaults(self, monkeypatch, q):
        # pi(x) <= K: the census reads the certificate's series transform, so
        # the resonator terms, the series, the L-values and the resonator
        # scan take one half-spectrum transform each
        calls = []

        def counted(group, buffer):
            calls.append(group.q)
            return half_spectrum(group, buffer)

        half_spectrum = chargroup._half_spectrum
        for module in (chargroup, lfunc):
            monkeypatch.setattr(module, "_half_spectrum", counted)
        report = scan_sigma_strip(q, 0.75)
        assert len(numth.sieve_primes(int(report.quotient.x))) <= 10**4
        assert calls == [q] * 4

    # (q, sigma, tol) -> sha256 of the CSV, and the count, sum and sha256 (of
    # the str of the list) of the JSON's excluded_indices, as recorded when
    # the census transformed every prime itself: with K = 100 < pi(x) it now
    # adds the transform of the primes past the 100th to the certificate's
    K100_RECORD = {
        (1009, "0.75", "0.3"): (
            "19914fbb185caea0f809a8a99b881c5434914b4cb7e11c6dbb0b20bd0a474865", 41, 20664, "e556caa70933d41d"
        ),
        (10007, "0.55", "0.5"): (
            "5eed909110e16b15fe4ca33203b2db3bfc5411c1f1ee04b9c423820fbc64d0ff", 883, 4417649, "c2a9d2bd1b07d13b"
        ),
    }

    @pytest.mark.parametrize("q,sigma,tol", sorted(K100_RECORD))
    def test_census_past_the_series_truncation_matches_the_record(self, tmp_path, monkeypatch, q, sigma, tol):
        calls = []
        census = lfunc._approx_error_census
        monkeypatch.setattr(extremes, "_approx_error_census", lambda *a: calls.append(a[5]) or census(*a))
        for fmt in ("csv", "json"):
            argv = ["scan-t3", "--q", str(q), "--sigma", sigma, "--K", "100", "--tol", tol, "--format", fmt]
            cli.main([*argv, "--output-dir", str(tmp_path)])
        excluded = json.loads((tmp_path / f"scan-t3_q{q}.json").read_text())["excluded_indices"]
        digest = hashlib.sha256((tmp_path / f"scan-t3_q{q}.csv").read_bytes()).hexdigest()
        record = (digest, len(excluded), sum(excluded), hashlib.sha256(str(excluded).encode()).hexdigest()[:16])
        assert record == self.K100_RECORD[q, sigma, tol]
        assert calls == [100, 100]

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
        assert max_abs == l_value_batch(group_of(q), 1.0).half_abs().max()

    def test_runs_no_resonator_scan(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("the upper check ran the resonator scan")

        monkeypatch.setattr(extremes, "_resonator_log_abs_all", no_scan)
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
