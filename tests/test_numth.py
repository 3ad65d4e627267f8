import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lextremes import (
    factorize,
    is_prime,
    mangoldt,
    numth,
    primitive_root,
    sieve_primes,
    smooth_numbers,
)

from conftest import gpf_table
from reference import exact_float_sum


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


class TestSievePrimes:
    def test_first_primes(self):
        primes = sieve_primes(10)
        assert primes.tolist() == [2, 3, 5, 7]
        assert primes.dtype == np.int64 and not primes.flags.writeable

    def test_empty_range(self):
        assert sieve_primes(1).size == 0
        assert sieve_primes(0).tolist() == []

    def test_100_has_25_entries_all_prime(self):
        primes = sieve_primes(100)
        assert len(primes) == 25
        assert all(trial_division_prime(int(p)) for p in primes)
        # and no prime missing
        assert [n for n in range(101) if trial_division_prime(n)] == primes.tolist()

    def test_strictly_increasing(self):
        primes = sieve_primes(10**4)
        assert np.all(np.diff(primes) > 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sieve_primes(-1)


class TestMangoldt:
    def test_prime_power(self):
        assert mangoldt(8) == pytest.approx(math.log(2), abs=1e-15)

    def test_two_prime_factors(self):
        assert mangoldt(12) == 0.0

    def test_large_prime(self):
        assert trial_division_prime(9973)
        assert mangoldt(9973) == pytest.approx(math.log(9973), abs=1e-12)

    def test_summatory_identity(self):
        # sum over divisors of Lambda(d) equals log n
        limit = 10**4
        divisors = [[] for _ in range(limit + 1)]
        for d in range(1, limit + 1):
            for m in range(d, limit + 1, d):
                divisors[m].append(d)
        values = {d: mangoldt(d) for d in range(1, limit + 1)}
        for n in range(2, limit + 1):
            total = math.fsum(values[d] for d in divisors[n])
            assert abs(total - math.log(n)) < 1e-12


class TestSmoothNumbers:
    def test_example_3_20(self):
        assert smooth_numbers(3, 20).tolist() == [1, 2, 3, 4, 6, 8, 9, 12, 16, 18]

    def test_no_primes_allowed(self):
        assert smooth_numbers(1, 10).tolist() == [1]

    def test_powers_of_two(self):
        assert smooth_numbers(2, 9).tolist() == [1, 2, 4, 8]

    def test_against_gpf_filter(self):
        limit = 10**4
        gpf = gpf_table(limit)
        for bound in range(1, 51):
            expected = [n for n in range(1, limit + 1) if gpf[n] <= bound]
            assert smooth_numbers(bound, limit).tolist() == expected

    def test_large_limit_small_bound_stays_cheap(self):
        values = smooth_numbers(5, 10**9)
        assert values[0] == 1 and values[-1] <= 10**9
        assert all(max(p for p, _ in factorize(v)) <= 5 for v in values[1:])

    def test_memory_follows_output_not_limit(self):
        # 768 outputs; a table indexed by n <= 10**7 would hold 80 MB
        tracemalloc.start()
        try:
            smooth_numbers(5, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_closure_peak_per_output_entry(self):
        # the output is 16 B per entry (int64 n, float64 weight); retired parts
        # and loop temporaries must be gone before the final sort and gather
        primes = sieve_primes(10**4)
        weights = np.ones(primes.size)
        tracemalloc.start()
        try:
            ns, _ = numth._smooth_closure(primes, weights, 10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 45 * ns.size

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            smooth_numbers(0, 10)
        with pytest.raises(ValueError):
            smooth_numbers(3, 0)
        with pytest.raises(ValueError):
            smooth_numbers(3, 2**63)  # past int64


BLOCK = numth._SUM_BLOCK


@st.composite
def float_arrays(draw):
    """Finite float64 arrays over every exponent, subnormals and both zeros
    included, of length 0, 1, a few, or next to the block boundary; some
    cancel heavily: x, then -x, then one tiny term."""
    pool = np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12)))
    n = draw(st.sampled_from([0, 1, 2, 5, 31, BLOCK - 1, BLOCK, BLOCK + 1]))
    x = pool[np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(pool.size, size=n)]
    if draw(st.booleans()):
        x = np.concatenate([x, -x, [draw(st.floats(-1e-300, 1e-300))]])
    return x


class TestExactSum:
    @settings(max_examples=40, deadline=None)
    @given(float_arrays())
    @example(np.array([0.1] * (BLOCK - 1) + [-0.1] * (BLOCK - 1) + [5e-324]))
    @example(np.array([-0.0]))
    @example(np.array([1.0, 2.0**-53, 2.0**-106]))  # a tie that only the last term breaks, upward
    def test_matches_fsum_and_the_exact_sum_bit_for_bit(self, x):
        try:
            want = exact_float_sum(x)
        except OverflowError:
            with pytest.raises(OverflowError):
                numth._exact_sum(x)
            return
        got = numth._exact_sum(x)
        assert got.hex() == want.hex()
        try:
            fsum = math.fsum(x)
        except OverflowError:  # fsum can overflow midway where the sum itself fits
            return
        assert got.hex() == fsum.hex()

    def test_exact_where_fsum_overflows_midway(self):
        x = np.array([1e308, 1e308, -1e308])
        with pytest.raises(OverflowError, match="intermediate overflow"):
            math.fsum(x)
        assert numth._exact_sum(x) == 1e308

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf on the way
    def test_rejects_a_sum_past_the_float_range_and_non_finite_entries(self):
        with pytest.raises(OverflowError):
            numth._exact_sum(np.array([1e308, 1e308]))
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                numth._exact_sum(np.array([bad]))
            with pytest.raises(ValueError):
                numth._exact_sum(np.array([1.0, bad, -1.0]))

    def test_block_and_fold_sizes_move_no_bit(self, monkeypatch):
        # 7-entry blocks folded every 14 entries: the fold runs dozens of
        # times without an array of 2**25 entries
        rng = np.random.default_rng(2)
        x = np.ldexp(rng.standard_normal(300), rng.integers(-1100, 1000, 300))
        x = np.concatenate([x, -x[::-1], [2.0**-1074, 0.1]])
        want = numth._exact_sum(x)
        assert want.hex() == exact_float_sum(x).hex()
        monkeypatch.setattr(numth, "_SUM_BLOCK", 7)
        monkeypatch.setattr(numth, "_SUM_FLUSH", 16)
        assert numth._exact_sum(x).hex() == want.hex()
        assert numth._exact_sum(x[:-1]).hex() == exact_float_sum(x[:-1]).hex() == "0x0.0000000000001p-1022"


class TestFactorize:
    def test_example(self):
        assert factorize(12) == ((2, 2), (3, 1))

    def test_one(self):
        assert factorize(1) == ()

    def test_semiprime(self):
        assert factorize(9991) == ((97, 1), (103, 1))

    def test_reconstructs_n(self):
        for n in range(1, 2000):
            fac = factorize(n)
            product = 1
            for p, e in fac:
                assert trial_division_prime(p)
                product *= p**e
            assert product == n
            assert list(fac) == sorted(fac)

    @pytest.mark.parametrize(
        "n,expected",
        [
            (2**31 - 1, ((2**31 - 1, 1),)),
            (2**31 - 2, ((2, 1), (3, 2), (7, 1), (11, 1), (31, 1), (151, 1), (331, 1))),
            (46337**2, ((46337, 2),)),  # the last divisor meets p * p == m exactly
            (46327 * 46337, ((46327, 1), (46337, 1))),  # two primes next to sqrt(2**31)
        ],
    )
    def test_near_the_modulus_limit(self, n, expected):
        assert factorize(n) == expected


class TestPrimitiveRoot:
    def test_examples(self):
        assert primitive_root(7) == 3
        assert primitive_root(5) == 2

    def test_rejects_non_prime_and_two(self):
        with pytest.raises(ValueError):
            primitive_root(4)
        with pytest.raises(ValueError):
            primitive_root(2)

    def test_order_is_exactly_q_minus_1(self):
        # multiplicative order verified by direct iteration, independent of
        # the factor-based criterion used in the implementation
        for q in sieve_primes(1000).tolist():
            if q == 2:
                continue
            g = primitive_root(q)
            value, order = g, 1
            while value != 1:
                value = value * g % q
                order += 1
            assert order == q - 1


@pytest.mark.parametrize(
    "q, least, accepted",
    [
        (2, 3, False),
        (4, 3, False),
        (2**31 + 11, 3, False),  # prime, past the bound
        (2**61 - 1, 3, False),  # prime, past the bound
        (3, 3, True),
        (2**31 - 1, 3, True),
        (13, 17, False),
        (17, 17, True),
        (3, 5, False),
        (5, 5, True),
    ],
)
def test_check_modulus(monkeypatch, q, least, accepted):
    # the bound is tested before primality: trial division never sees n >= 2**31
    trial_division = numth.is_prime

    def guarded_is_prime(n):
        if n >= 2**31:
            raise AssertionError(f"is_prime({n}) ran before the bound was tested")
        return trial_division(n)

    monkeypatch.setattr(numth, "is_prime", guarded_is_prime)
    if accepted:
        numth.check_modulus(q, least)
    else:
        with pytest.raises(ValueError):
            numth.check_modulus(q, least)


def test_is_prime_matches_trial_division():
    for n in range(0, 3000):
        assert is_prime(n) == trial_division_prime(n)
