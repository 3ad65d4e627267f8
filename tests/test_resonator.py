import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lextremes import (
    WeightScheme,
    coeff,
    enumerate_coeffs,
    half_scheme,
    linear_scheme,
    log_principal_square,
    lower_bound_product,
    mertens_product,
    resonator_value,
    second_moment_integral,
    second_moment_product,
    sieve_primes,
    smooth_numbers,
    weight,
)

EULER_GAMMA = 0.5772156649015329


class TestWeight:
    def test_linear_examples(self):
        scheme = linear_scheme(3)
        assert weight(scheme, 2) == pytest.approx(1 / 3, abs=1e-15)
        assert weight(scheme, 3) == 0.0
        assert weight(scheme, 5) == 0.0

    def test_half_example(self):
        assert weight(half_scheme(10), 7) == 0.5
        assert weight(half_scheme(10), 11) == 0.0

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            weight(linear_scheme(10), 6)


class TestCoeff:
    def test_example_12(self):
        assert coeff(linear_scheme(5), 12) == pytest.approx(0.144, abs=1e-15)

    def test_one(self):
        assert coeff(linear_scheme(5), 1) == 1.0
        assert coeff(half_scheme(2), 1) == 1.0

    def test_killed_by_zero_weight(self):
        assert coeff(linear_scheme(3), 6) == 0.0

    @pytest.mark.parametrize("scheme", [linear_scheme(12), half_scheme(7)])
    def test_complete_multiplicativity(self, scheme):
        values = {n: coeff(scheme, n) for n in range(1, 301)}
        for m in range(1, 301):
            for n in range(1, 300 // m + 1):
                assert values[m] * values[n] == pytest.approx(values[m * n], abs=1e-12)


class TestResonatorValue:
    def test_principal_mod7(self, group_of):
        chi0 = group_of(7).character(0)
        value = resonator_value(linear_scheme(3), chi0)
        assert value == pytest.approx(1.5, abs=1e-14)
        assert abs(value) ** 2 == pytest.approx(2.25, abs=1e-13)

    def test_half_single_factor(self, group_of):
        # mod 5 with g = 2: chi_2(2) = e^{pi i} = -1
        group = group_of(5)
        assert group.character_values(2, np.array([2]))[0] == pytest.approx(-1.0, abs=1e-14)
        assert resonator_value(half_scheme(2), group.character(2)) == pytest.approx(2 / 3, abs=1e-14)

    def test_empty_product(self, group_of):
        assert resonator_value(linear_scheme(1.5), group_of(7).character(3)) == 1.0

    def test_cutoff_must_stay_below_modulus(self, group_of):
        with pytest.raises(ValueError):
            resonator_value(linear_scheme(7), group_of(5).character(1))

    def test_series_product_consistency(self, group_of):
        # |sum_{n<=N} w_n chi(n) - R(chi)| <= tail(N) for every character
        group = group_of(101)
        scheme = linear_scheme(10)
        coeffs = enumerate_coeffs(scheme, 10**4)
        by_residue = np.zeros(101, dtype=complex)
        np.add.at(by_residue, coeffs.ns % 101, coeffs.weights.astype(complex))
        for j in range(100):
            truncated = complex(np.sum(by_residue[1:] * group.character_values(j, np.arange(1, 101))))
            full = resonator_value(scheme, group.character(j))
            assert abs(truncated - full) <= coeffs.tail + 1e-12


def descent_coeffs(scheme: WeightScheme, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference enumeration: recursive descent over the primes with w_p > 0,
    one Python call per entry, multiplying weights in ascending prime order."""
    live = [(p, weight(scheme, p)) for p in sieve_primes(int(scheme.cutoff)).tolist()]
    live = [(p, w) for p, w in live if w > 0]
    ns, ws = [], []

    def descend(idx, n, w):
        ns.append(n)
        ws.append(w)
        for j in range(idx, len(live)):
            p, wp = live[j]
            if n * p > limit:
                break
            descend(j, n * p, w * wp)

    descend(0, 1, 1.0)
    order = np.argsort(ns)
    return np.array(ns, dtype=np.int64)[order], np.array(ws)[order]


class TestEnumerateCoeffs:
    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(["linear", "half"]),
        cutoff=st.integers(min_value=2, max_value=3000),
        limit=st.integers(min_value=1, max_value=2 * 10**5),
    )
    @example(kind="half", cutoff=2, limit=1)
    @example(kind="linear", cutoff=5, limit=3)  # every prime above isqrt(3) = 1
    @example(kind="half", cutoff=3000, limit=2)
    @example(kind="linear", cutoff=2000, limit=10**5)  # 2000 > isqrt(10**5) = 316
    def test_closure_equals_descent(self, kind, cutoff, limit):
        scheme = WeightScheme(kind, float(cutoff))
        coeffs = enumerate_coeffs(scheme, limit)
        ns, ws = descent_coeffs(scheme, limit)
        assert coeffs.ns.dtype == np.int64
        assert np.array_equal(coeffs.ns, ns) and np.array_equal(coeffs.weights, ws)
        smooth, _ = descent_coeffs(half_scheme(cutoff), limit)
        assert np.array_equal(smooth_numbers(cutoff, limit), smooth)

    def test_rejects_limit_past_int64(self):
        with pytest.raises(ValueError):
            enumerate_coeffs(half_scheme(7), 2**63)

    def test_geometric_toy(self):
        coeffs = enumerate_coeffs(linear_scheme(3), 8)
        assert coeffs.ns.tolist() == [1, 2, 4, 8]
        assert coeffs.weights.tolist() == pytest.approx([1.0, 1 / 3, 1 / 9, 1 / 27], abs=1e-15)
        assert coeffs.total == pytest.approx(1.5, abs=1e-15)
        assert coeffs.tail == pytest.approx(1.5 - 40 / 27, abs=1e-15)

    def test_half_y2_n1(self):
        coeffs = enumerate_coeffs(half_scheme(2), 1)
        assert coeffs.ns.tolist() == [1] and coeffs.weights.tolist() == [1.0]
        assert coeffs.total == 2.0
        assert coeffs.tail == 1.0

    def test_tail_nonnegative_and_decreasing(self):
        scheme = linear_scheme(5)
        tails = [enumerate_coeffs(scheme, n).tail for n in (10, 100, 1000, 10000)]
        assert all(t >= 0 for t in tails)
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    def test_entries_match_coeff(self):
        scheme = half_scheme(7)
        coeffs = enumerate_coeffs(scheme, 500)
        for n, w in zip(coeffs.ns.tolist(), coeffs.weights.tolist()):
            assert w == pytest.approx(coeff(scheme, n), abs=1e-15)
        # exactly the smooth support
        expected = [n for n in range(1, 501) if coeff(scheme, n) > 0]
        assert coeffs.ns.tolist() == expected


class TestClosedFormProducts:
    def test_log_principal_square_small(self):
        assert log_principal_square(linear_scheme(3)) == pytest.approx(
            2 * math.log(1.5), abs=1e-15
        )
        assert log_principal_square(linear_scheme(1.5)) == 0.0

    @pytest.mark.parametrize("x", [3, 10, 100, 1000])
    def test_log_principal_square_identity(self, x, group_of):
        # closed form equals log |R(chi_0)|^2 computed from the product
        scheme = linear_scheme(x)
        closed = log_principal_square(scheme)
        product = 1.0
        for p in sieve_primes(int(x)).tolist():
            product /= 1 - (1 - p / x)
        assert closed == pytest.approx(2 * math.log(product), abs=1e-12)

    def test_rejects_half_scheme(self):
        with pytest.raises(ValueError):
            log_principal_square(half_scheme(10))
        with pytest.raises(ValueError):
            lower_bound_product(half_scheme(10))

    def test_lower_bound_product_x3(self):
        result = lower_bound_product(linear_scheme(3))
        assert result.value == pytest.approx(1.2, abs=1e-15)

    def test_lower_bound_product_empty(self):
        assert lower_bound_product(linear_scheme(1.5)).value == 1.0

    @pytest.mark.parametrize("x", [3, 10, 100, 1000])
    def test_factorization_multiplies_back(self, x):
        result = lower_bound_product(linear_scheme(x))
        assert result.mertens_factor * result.correction_factor == pytest.approx(
            result.value, rel=1e-12
        )

    def test_x1000_against_mertens_shape(self):
        value = lower_bound_product(linear_scheme(1000)).value
        lx = math.log(1000)
        assert value >= math.exp(EULER_GAMMA) * lx * (1 - 1 / lx - 1 / lx**2)

    def test_correction_factor_term_bound(self):
        # per prime: -log((p-1)/(p-w_p)) <= 1/x + 2/(p x)
        for x in (10.0, 100.0, 1000.0):
            scheme = linear_scheme(x)
            for p in sieve_primes(int(x)).tolist():
                w = weight(scheme, p)
                per_prime = -math.log((p - 1) / (p - w))
                assert per_prime <= 1 / x + 2 / (p * x) + 1e-15


class TestMertensProduct:
    def test_x10(self):
        assert mertens_product(10) == pytest.approx(4.375, abs=1e-14)

    def test_x2(self):
        assert mertens_product(2) == pytest.approx(2.0, abs=1e-15)

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            mertens_product(1.5)

    @pytest.mark.parametrize("x", [10, 100, 1000, 10**4, 10**5, 10**6])
    def test_two_sided_bounds(self, x):
        value = mertens_product(x)
        reference = math.exp(EULER_GAMMA) * math.log(x)
        half_width = reference / (2 * math.log(x) ** 2)
        assert reference - half_width <= value <= reference + half_width


class TestSecondMomentProduct:
    def test_linear_x3(self):
        assert second_moment_product(linear_scheme(3)).value == pytest.approx(1.125, abs=1e-14)

    def test_half_y2(self):
        assert second_moment_product(half_scheme(2)).value == pytest.approx(4 / 3, abs=1e-14)

    def test_log_ratio_at_1e4(self):
        # desk-scale gap to the asymptotic comparator, frozen as a regression
        # value: the (1+o(1)) factor is ~1.384 here, not yet within 25%
        result = second_moment_product(linear_scheme(1e4))
        assert result.log_value == pytest.approx(922.3318191205501, rel=1e-10)
        assert result.log_comparator == pytest.approx((2 - math.log(4)) * 1e4 / math.log(1e4), rel=1e-12)
        assert result.log_value / result.log_comparator == pytest.approx(1.384212471227395, abs=1e-9)


class TestSecondMomentIntegral:
    def test_rejects_below_ten(self):
        with pytest.raises(ValueError):
            second_moment_integral(9.9)

    def test_rejects_nan_and_inf(self):
        # both once returned nan, after numpy RuntimeWarnings
        for x in (math.nextafter(10.0, 0), math.nan, math.inf):
            with pytest.raises(ValueError, match="finite x >= 10"):
                second_moment_integral(x)
        for x in (10.0, 1e300):
            assert 0 < second_moment_integral(x).total < math.inf

    def test_main_part_near_log2_over_logx(self):
        result = second_moment_integral(1e4)
        assert 0.9 <= result.main_part * math.log(1e4) / math.log(2) <= 1.1

    def test_tail_part_order(self):
        result = second_moment_integral(1e6)
        assert result.tail_part * math.log(1e6) ** 2 <= 10.0

    def test_decreasing_in_x(self):
        totals = [second_moment_integral(x).total for x in (1e2, 1e3, 1e4)]
        assert totals[0] > totals[1] > totals[2]

    def test_clamped_split_below_14(self):
        # for x in [10, 14) the nominal split exceeds the upper limit
        result = second_moment_integral(10.0)
        assert result.tail_part == 0.0
        assert result.total == result.main_part > 0


# second_moment_integral(x) as (total, main_part) from the adaptive-quadrature
# route it replaced (scipy quad at relative error 1e-10 in t)
QUAD_RECORD = {
    10.0: (0.35835651920202827, 0.35835651920202827),
    10.5: (0.35428267248348444, 0.35428267248348444),
    12.0: (0.34283816797677275, 0.34283816797677275),
    20.0: (0.298614821984132, 0.29053843021861026),
    50.0: (0.23088071199113905, 0.21699782087688824),
    1e2: (0.19237065673620724, 0.18012931958333905),
    1e3: (0.1182596733770619, 0.11364876430261245),
    1e4: (0.08430888177721192, 0.08265999588065784),
    1e5: (0.06559686034431464, 0.06489415066265214),
    1e6: (0.05375618184461222, 0.05340013154439887),
    1e7: (0.0455652282798556, 0.045360572541724334),
    1e8: (0.039551681770849605, 0.03942326394925566),
    1e12: (0.025905645364594516, 0.02587278590961508),
}


def _mp_integral(mpmath, a, b, log_x):
    """int_a^b dt / ((log(2-t) + log x) t) in t, broken at t = 2 - 2**-k."""
    points = [a]
    k = 1
    while 2 - mpmath.mpf(2) ** -k <= a:
        k += 1
    while 2 - mpmath.mpf(2) ** -k < b:
        points.append(2 - mpmath.mpf(2) ** -k)
        k += 1
    points.append(b)
    return mpmath.quad(lambda t: 1 / ((mpmath.log(2 - t) + log_x) * t), points)


class TestSecondMomentIntegralAccuracy:
    @pytest.mark.parametrize("x", sorted(QUAD_RECORD))
    def test_against_mpmath(self, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            log_x = mpmath.log(mpmath.mpf(x))
            upper = 2 - 2 / mpmath.mpf(x)
            split = min(2 - log_x**-2, upper)
            main = _mp_integral(mpmath, mpmath.mpf(1), split, log_x)
            tail = _mp_integral(mpmath, split, upper, log_x) if split < upper else mpmath.mpf(0)
            expected = (main + tail, main, tail)
            result = second_moment_integral(x)
            for got, want in zip((result.total, result.main_part, result.tail_part), expected):
                if want == 0:
                    assert got == 0.0
                else:
                    assert float(abs((got - want) / want)) <= 1e-13

    @pytest.mark.parametrize("x", sorted(QUAD_RECORD))
    def test_matches_quad_record(self, x):
        total, main_part = QUAD_RECORD[x]
        result = second_moment_integral(x)
        assert result.total == pytest.approx(total, rel=1e-12, abs=0)
        assert result.main_part == pytest.approx(main_part, rel=1e-12, abs=0)
