import math
import tracemalloc

import numpy as np
import pytest

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
