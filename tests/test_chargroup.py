import math
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lextremes import build_group, chargroup, dft_over_group, numth, orthogonality_sum
from lextremes.chargroup import _good_thomas_split, _powers
from lextremes.lfunc import _residue_values, _zeta_kernel

from conftest import (
    BLOCK_SETTINGS,
    ODD_PRIMES,
    SPLIT_Q,
    TESTS,
    blocks_that_change_bits,
    full_spectrum,
    half_spectrum,
    in_residue_order,
    longdouble_dft,
    run_probe,
    same_bits,
    twiddles_off_their_pins,
    whole_tables,
)


def full_length_dft(group, f) -> np.ndarray:
    """The full-length formula: reorder along powers of g, then one
    length-(q-1) inverse FFT times q-1; the oracle for the half-length
    kernel of dft_over_group."""
    return np.fft.ifft(np.asarray(f)[_powers(group.g, group.q, group.q - 1) - 1]) * (group.q - 1)


def per_character_orthogonality(group, m: int, n: int) -> float:
    """Sum of chi(m) * conj(chi(n)) by one gather per character index: the
    oracle for the table-driven orthogonality_sum."""
    total = 0j
    for j in range(group.q - 1):
        chi_m, chi_n = group.character_values(j, np.array([m, n])).tolist()
        total += chi_m * chi_n.conjugate()
    return total.real


@st.composite
def character_arguments(draw):
    """(q, j, ns): an odd prime, a character index and arguments in [0, 20q],
    with 0 and the multiples of q drawn as often as the other residues."""
    q = draw(st.sampled_from(ODD_PRIMES))
    j = draw(st.integers(0, q - 2))
    n = st.integers(0, 20 * q)
    ns = draw(st.lists(st.one_of(n, n.map(lambda v: v // q * q)), min_size=1, max_size=8))
    return q, j, np.array(ns)


class TestBuildGroup:
    def test_q5_tables(self, group_of):
        group = group_of(5)
        assert group.g == 2
        assert {a: int(group.dlog[a]) for a in range(1, 5)} == {1: 0, 2: 1, 4: 2, 3: 3}

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            build_group(9)
        with pytest.raises(ValueError):
            build_group(2)

    def test_q101_order(self, group_of):
        assert group_of(101).phi == 100

    def test_modulus_limit(self):
        with pytest.raises(ValueError):
            build_group(2**31 + 11)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(ODD_PRIMES))
    def test_tables_match_pow(self, q):
        group = build_group(q)
        expected = [pow(group.g, k, q) for k in range(q - 1)]
        assert group.dlog[0] == -1
        assert group.dlog[expected].tolist() == list(range(q - 1))

    def test_block_powers_exact_near_int64_limit(self):
        # q < 2**31 keeps the doubling products below 2**62; check them against
        # exact integer powers at the largest prime the limit admits
        q, g = 2**31 - 1, 7  # 7 is a primitive root of this Mersenne prime
        powers = _powers(g, q, 10**4)
        assert powers.dtype == np.int64
        assert powers.tolist() == [pow(g, k, q) for k in range(10**4)]

    def test_tables_are_int32(self, group_of):
        group = group_of(1009)
        assert group.dlog.dtype == np.int32

    @pytest.mark.parametrize("q", [1009, 98017])
    def test_root_table_upper_half_is_exact_mirror(self, group_of, q):
        group = group_of(q)
        group.values_at(1)  # a single-character path builds the full table
        roots = group._roots
        n, h = q - 1, (q - 1) // 2
        assert np.array_equal(roots[:0:-1], np.conj(roots[1:]))
        assert roots[h] == -1  # the order-2 character is exactly real
        # roots[:h] are the DFT's twiddles, products of the two tables
        assert same_bits(roots[:h], whole_tables(q)[3][:h])

    @pytest.mark.parametrize("q", [1009, 98017])
    def test_retained_tables_at_most_24_bytes_per_residue(self, group_of, q):
        # the two twiddle tables, about 2 sqrt(q) long-double complex, are bounded on their own
        group = build_group(q)
        group.values_at(1)  # dlog and the full root table, as a single-character path leaves them
        twiddles = group._roots_lo.nbytes + group._roots_hi.nbytes
        held = sum(v.nbytes for v in vars(group).values() if isinstance(v, np.ndarray))
        assert held - twiddles <= 24 * q
        assert twiddles <= 32 * 4 * math.isqrt(q)

    @pytest.mark.parametrize("q", [1009, 98017])
    def test_new_group_holds_only_its_step_and_twiddle_tables(self, q):
        # g**k for k < min(_BLOCK, q-1) as int32, 64 KB at most, and the two
        # twiddle tables; a single character path then builds dlog and the
        # full root table
        group = build_group(q)
        arrays = [v for v in vars(group).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 3 and group._steps.nbytes == 4 * min(chargroup._BLOCK, q - 1)
        assert group._roots_lo.size + group._roots_hi.size <= 4 * math.isqrt(q)
        group.values_at(2)
        assert "dlog" in vars(group)
        assert group._roots.size == q - 1
        complex_tables = [v for v in vars(group).values() if isinstance(v, np.ndarray) and v.dtype == complex]
        assert sum(v.size >= q - 1 for v in complex_tables) == 1

    @pytest.mark.parametrize("q", [3, 5, 1009, 2**31 - 1])
    def test_twiddle_tables_hold_at_most_2_16_roots_each(self, q):
        # L is the least power of 2 with L**2 >= q - 1; built without the
        # bijection check, which at q = 2**31 - 1 takes 2 GB
        group = chargroup.CharacterGroup(q, numth.primitive_root(q))
        span = group._roots_lo.size
        assert span * span >= q - 1 > (span // 2) ** 2
        assert group._roots_hi.size == -(-(q - 1) // span)
        assert max(span, group._roots_hi.size) <= 2**16

    def test_bijection_check_fires(self, monkeypatch):
        real_powers = chargroup._powers

        def repeated(g, q, count):
            powers = real_powers(g, q, count)
            powers[-1] = powers[0]  # residue 1 twice, g**(q-2) never
            return powers

        monkeypatch.setattr(chargroup, "_powers", repeated)
        with pytest.raises(AssertionError, match="not a bijection"):
            build_group(1009)


class TestTableEvaluation:
    # At q = 98017 the exponent j * ind(a) reaches 9.6e9 > 2**31, so a product
    # formed in int32 would wrap and pick the wrong root.  The expected value
    # is read from the root table at (j*k) mod (q-1) with a = g**k, computed
    # with Python integers, so it does not go through dlog.
    Q = 98017
    INDICES = (1, 2, 48_000, 49_009, 98_014, 98_015)
    EXPONENTS = (0, 1, 7, 49_007, 49_008, 65_537, 98_000, 98_015)

    def expected(self, group, j, k):
        return group._roots[j * k % (group.q - 1)]

    def test_character_values(self, group_of):
        group = group_of(self.Q)
        for j in self.INDICES:
            values = group.character_values(j, np.arange(1, self.Q))
            for k in self.EXPONENTS:
                assert values[pow(group.g, k, self.Q) - 1] == self.expected(group, j, k)

    def test_values_at(self, group_of):
        group = group_of(self.Q)
        for k in self.EXPONENTS:
            values = group.values_at(pow(group.g, k, self.Q) + 3 * self.Q)
            for j in self.INDICES:
                assert values[j] == self.expected(group, j, k)

    def test_character_value(self, group_of):
        # arguments past q gather the root of their residue
        group = group_of(self.Q)
        ns = np.array([pow(group.g, k, self.Q) + 5 * self.Q for k in self.EXPONENTS])
        for j in self.INDICES:
            expected = [self.expected(group, j, k) for k in self.EXPONENTS]
            assert group.character_values(j, ns).tolist() == expected


class TestCharValue:
    def test_principal_is_one_on_coprime(self, group_of):
        assert group_of(7).character_values(0, np.array([10]))[0] == pytest.approx(1.0)

    def test_zero_on_multiples_of_q(self, group_of):
        for j in range(4):
            assert group_of(5).character_values(j, np.array([10]))[0] == 0

    def test_i_at_2_mod_5(self, group_of):
        assert group_of(5).character_values(1, np.array([2]))[0] == pytest.approx(1j, abs=1e-15)

    def test_unit_modulus_on_coprime(self, group_of):
        for q in (5, 101, 1009):
            group = group_of(q)
            for j in (1, q // 2, q - 2):
                assert np.max(np.abs(np.abs(group.character_values(j, np.arange(1, q))) - 1)) < 1e-14

    def test_conjugate_character(self, group_of):
        group = group_of(11)
        residues = np.arange(1, 11)
        for j in range(10):
            conjugate = group.character_values((-j) % 10, residues)
            assert np.array_equal(conjugate, np.conj(group.character_values(j, residues)))

    @settings(max_examples=40, deadline=None)
    @given(character_arguments())
    def test_multiplicativity(self, drawn):
        # chi(m) chi(n) = chi(mn) on one gather, which also matches the
        # all-characters table, vanishes exactly on multiples of q, and is
        # exactly conjugated by the index q - 1 - j
        q, j, ns = drawn
        group = build_group(q)
        values = group.character_values(j, ns)
        assert values.tolist() == [group.values_at(int(n))[j] for n in ns]
        assert np.array_equal(values == 0, ns % q == 0)
        products = group.character_values(j, np.multiply.outer(ns, ns))
        assert np.all(np.abs(np.multiply.outer(values, values) - products) < 1e-12)
        assert np.array_equal(group.character_values(q - 1 - j, ns), np.conj(values))


class TestOrthogonality:
    def test_trivial_examples(self, group_of):
        assert orthogonality_sum(group_of(5), 2, 3) == pytest.approx(0.0, abs=1e-12)
        assert orthogonality_sum(group_of(5), 3, 3) == pytest.approx(4.0, abs=1e-12)
        assert orthogonality_sum(group_of(7), 1, 8) == pytest.approx(6.0, abs=1e-12)

    def test_rejects_noncoprime(self, group_of):
        with pytest.raises(ValueError):
            orthogonality_sum(group_of(5), 5, 3)

    @pytest.mark.parametrize("q", [5, 7, 11])
    def test_full_pair_grid(self, group_of, q):
        group = group_of(q)
        for m in range(1, 51):
            if m % q == 0:
                continue
            for n in range(1, 51):
                if n % q == 0:
                    continue
                expected = (q - 1.0) if (m - n) % q == 0 else 0.0
                assert orthogonality_sum(group, m, n) == pytest.approx(expected, abs=1e-10)

    def test_sampled_pairs_q101(self, group_of):
        group = group_of(101)
        for m, n in [(1, 1), (2, 103), (3, 50), (17, 17 + 101), (50, 49)]:
            expected = 100.0 if (m - n) % 101 == 0 else 0.0
            assert orthogonality_sum(group, m, n) == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        q=st.sampled_from(ODD_PRIMES),
        m=st.integers(1, 10**6),
        n=st.integers(1, 10**6),
        diagonal=st.booleans(),
    )
    def test_matches_per_character_loop(self, q, m, n, diagonal):
        if diagonal:
            n = m + q * (n % 5)
        assume(m % q != 0 and n % q != 0)
        group = build_group(q)
        got = orthogonality_sum(group, m, n)
        assert abs(got - per_character_orthogonality(group, m, n)) <= 1e-9 * group.phi

    @pytest.mark.parametrize("q", [5, 101, 1009, 10007, 98017])
    def test_diagonal_is_exactly_phi(self, group_of, q):
        group = group_of(q)
        for m in (1, 2, q // 2, q - 1):
            for n in (m, m + q, m + 7 * q):
                assert orthogonality_sum(group, m, n) == q - 1


class TestGroupDft:
    def test_constant_vector(self, group_of):
        group = group_of(7)
        out = dft_over_group(group, np.ones(6))
        assert out.shape == (4,)  # j = 0..(q-1)/2
        assert out[0] == pytest.approx(6.0, abs=1e-12)
        assert np.max(np.abs(out[1:])) < 1e-12

    def test_delta_at_identity(self, group_of):
        group = group_of(5)
        f = np.zeros(4)
        f[0] = 1.0  # residue a = 1
        out = dft_over_group(group, f)
        assert np.max(np.abs(out - 1.0)) < 1e-12

    def test_length_mismatch_rejected(self, group_of):
        for shape in ((7,), (6, 1), (3, 6), (2, 3, 6), ()):
            with pytest.raises(ValueError):
                dft_over_group(group_of(7), np.ones(shape))

    def test_complex_input_rejected(self, group_of):
        # a complex vector's spectrum has no conjugate symmetry: no half holds it
        for f in (np.ones(6, dtype=complex), np.ones(6) * 1j, np.ones(6, dtype=np.complex64)):
            with pytest.raises(ValueError, match="real"):
                dft_over_group(group_of(7), f)

    @pytest.mark.parametrize("q", [101, 1009, 10007])
    def test_matches_naive_summation(self, group_of, q):
        group = group_of(q)
        rng = np.random.default_rng(q)
        f = rng.standard_normal(q - 1) + 1j * rng.standard_normal(q - 1)
        out = full_spectrum(group, f)
        indices = sorted({0, 1, 2, q // 3, q // 2, q - 2} | set(range(0, q - 1, max(1, (q - 1) // 24))))
        for j in indices:
            naive = complex(np.sum(f * group.character_values(j, np.arange(1, q))))
            assert abs(out[j] - naive) <= 1e-9 * max(1.0, abs(naive))

    def test_full_naive_q101(self, group_of):
        group = group_of(101)
        rng = np.random.default_rng(7)
        f = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        out = full_spectrum(group, f)
        for j in range(100):
            naive = complex(np.sum(f * group.character_values(j, np.arange(1, 101))))
            assert abs(out[j] - naive) <= 1e-9 * max(1.0, abs(naive))

    def test_parseval_consistency(self, group_of):
        # sum_j |F[j]|^2 = (q-1) * sum_a |f(a)|^2 for any f
        group = group_of(101)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(100)
        out = full_spectrum(group, f)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(100 * np.sum(f**2), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(q=st.sampled_from(ODD_PRIMES), seed=st.integers(0, 2**32 - 1))
    @example(q=3, seed=0)
    @example(q=5, seed=1)
    @example(q=7, seed=2)
    @example(q=SPLIT_Q, seed=3)
    @example(q=19037, seed=4)  # (q-1)/2 = 2*4759: a split with r = 2
    def test_matches_full_length_formula(self, q, seed):
        group = build_group(q)
        rng = np.random.default_rng(seed)
        real = rng.standard_normal(q - 1)
        # integer input must be cast to float before z is packed as a complex view
        integer = rng.integers(-5, 6, q - 1)
        for f in (real, real + 1j * rng.standard_normal(q - 1), integer):
            got, want = full_spectrum(group, f), full_length_dft(group, f)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(f).sum())

    @settings(max_examples=40, deadline=None)
    @given(q=st.sampled_from(ODD_PRIMES), seed=st.integers(0, 2**32 - 1))
    @example(q=3, seed=0)
    @example(q=5, seed=1)
    @example(q=7, seed=2)
    @example(q=SPLIT_Q, seed=3)
    def test_real_input_is_exactly_conjugate_symmetric(self, q, seed):
        # out[q-1-j] = conj out[j] leaves the half j <= h, and makes the sums
        # of the two characters that are their own conjugates, j = 0 and h, real
        group = build_group(q)
        out = dft_over_group(group, np.random.default_rng(seed).standard_normal(q - 1))
        assert out.shape == ((q + 1) // 2,)
        assert out[0].imag == 0 and out[-1].imag == 0

    @staticmethod
    def recorded_iffts(group, monkeypatch):
        """(input shape, axis) of every np.fft.ifft call for one vector."""
        calls = []
        ifft = np.fft.ifft

        def recording_ifft(a, *args, axis=-1, **kwargs):
            calls.append((np.shape(a), axis))
            return ifft(a, *args, axis=axis, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", recording_ifft)
        n = group.q - 1
        dft_over_group(group, np.ones(n))
        monkeypatch.undo()
        return calls

    def test_runs_one_half_length_fft(self, group_of, monkeypatch):
        for q in (1009, 10007):  # h = 2**3 * 3**2 * 7 and h prime: no split
            h = (q - 1) // 2
            assert self.recorded_iffts(group_of(q), monkeypatch) == [((h,), -1)]

    def test_split_runs_no_length_h_fft(self, group_of, monkeypatch):
        # h = 515 = 103 * 5: batched FFTs of lengths 5 (axis -1) and 103 (axis -2)
        assert self.recorded_iffts(group_of(SPLIT_Q), monkeypatch) == [((103, 5), -1), ((103, 5), -2)]

    # tracemalloc peak of one real-vector call per h = (q-1)/2, in bytes, as
    # measured at W = 1 (45.59, 34.79 and 32.90 B); at q = 300809 the split's
    # row blocks run on up to five threads, each with its own block scratch,
    # and read up to 36.6 B at W >= 5.  It was 48.34, 48.02 and 48.01 B with
    # the output mirrored to full length, 80.2, 64.1 and 64.1 B with separate
    # mirror, even and odd arrays, and 48.10 B at q = 10007 with a length-h
    # root table
    PEAK_PER_H = {10007: 45.7, 98017: 34.9, 300809: 37.0}

    @pytest.mark.parametrize("q", sorted(PEAK_PER_H))
    def test_peak_memory_per_h(self, group_of, q):
        # prime h, split and split: the output is the transform's buffer of
        # h + 1 complex (16 B per h), and a split adds its (p, r) array (16 B
        # per h); at q = 10007 one block of the epilogue's E, O and twiddles
        # (24 B per h at this h) sits beside the buffer
        group = group_of(q)
        h = (q - 1) // 2
        f = np.random.default_rng(q).standard_normal(q - 1)
        dft_over_group(group, f)  # numpy's FFT plan cache is traced too; fill it first
        tracemalloc.start()
        try:
            dft_over_group(group, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_PER_H[q] * h
        assert peak < 50 * h

    def test_split_rule(self):
        assert _good_thomas_split(515) == (103, 5)
        assert _good_thomas_split(492854) == (2969, 166)  # q = 985709
        for h in (1, 2, 3, 504, 5003, 2**10, 3**9):  # p**2 <= h, or h = p
            assert _good_thomas_split(h) is None

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended-precision longdouble")
    @pytest.mark.parametrize("sigma", [1.0, 0.75, 0.55])
    def test_accuracy_against_longdouble(self, group_of, sigma):
        # Standard FFT error bound ||y_hat - y||_2 <= c u log2(n) ||y||_2 with
        # unit roundoff u = eps/2; Parseval gives ||y||_2 = sqrt(n) ||f||_2, so
        # with c = 2 the RMS error over the n outputs is <= eps log2(n) ||f||_2.
        for q in (1009, SPLIT_Q):  # one plain and one split transform
            group = group_of(q)
            n = group.q - 1
            f = in_residue_order(group, _residue_values(group, sigma))
            out = full_spectrum(group, f)
            ref_re, ref_im = longdouble_dft(group, f)
            sq_err = (out.real.astype(np.longdouble) - ref_re) ** 2 + (out.imag.astype(np.longdouble) - ref_im) ** 2
            rms = float(np.sqrt(sq_err.mean()))
            assert rms <= np.finfo(float).eps * np.log2(n) * np.linalg.norm(f)


def packed_full_length_dft(group, f) -> np.ndarray:
    """The packed real transform as it was before the half spectrum: gather f
    into power order through the Ruritanian map where h splits, one
    half-length FFT, then E + w**j O for every j < h from a full-length
    mirror of conj Z[-j], and the upper half mirrored.  Its twiddles w**j are
    the group's root table, the two-table products of `chargroup._twiddles`
    (before those, one np.exp per entry); with them its rounding is what
    every golden and pin was recorded with."""
    n = group.q - 1
    h = n // 2
    positions = (_powers(group.g, group.q, n) - 1).astype(np.int32)
    split = _good_thomas_split(h)
    if split:
        p, r = split
        ruritanian = r * np.arange(p)[:, None] + p * np.arange(r)
        np.subtract(ruritanian, h, out=ruritanian, where=ruritanian >= h)
        positions = positions.view(np.int64)[ruritanian].view(np.int32)
    z = np.asarray(f[positions], dtype=float).view(complex)
    if split:
        np.fft.ifft(z, axis=-1, norm="forward", out=z)
        np.fft.ifft(z, axis=-2, norm="forward", out=z)
        spec = z.ravel()[np.tile(np.arange(p) * r, r) + np.tile(np.arange(r), p)]
    else:
        spec = np.fft.ifft(z, norm="forward")
    out = np.empty(n, dtype=complex)
    mirror = out[h:]
    mirror[0] = spec[0].conjugate()
    np.conjugate(spec[:0:-1], out=mirror[1:])
    even = np.add(spec, mirror, out=out[:h])
    even *= 0.5
    odd = np.subtract(spec, mirror, out=spec)
    odd *= -0.5j
    out[h] = even[0] - odd[0]
    odd *= group._roots[:h]
    even += odd
    np.conjugate(out[h - 1 : 0 : -1], out=out[h + 1 :])
    return out


def residue_order_kernel(q: int, s: float) -> np.ndarray:
    """The centred residue kernel at a = 1..q-1 in residue order, as it was
    evaluated before the power-order kernel (reflected at s = 1)."""
    if s != 1.0:
        return _zeta_kernel(s, np.arange(1, q) / q) + math.expm1((s - 1) * math.log(q)) / (1 - s)
    h = (q - 1) // 2
    out = np.empty(q - 1)
    np.subtract(_zeta_kernel(1.0, np.arange(h + 1, q) / q), math.log(q), out=out[h:])
    pi_cot = np.tan(np.arange(1, h + 1) * (math.pi / q))
    np.divide(math.pi, pi_cot, out=pi_cot)
    np.add(out[h:][::-1], pi_cot, out=out[:h])
    return out


class TestBlocks:
    def test_stages_keep_every_bit_at_any_thread_count_and_block_size(self):
        # the root table, the residue kernel at sigma = 1, 0.75 and 0.55, the
        # L-values and their moduli, and the half spectrum of a random vector
        assert blocks_that_change_bits(BLOCK_SETTINGS) == []

    def test_stages_keep_every_bit_with_every_simd_target_disabled(self):
        # numpy's baseline loops take their own paths through block tails; one
        # W per block size keeps the child short
        umath = pytest.importorskip("numpy._core._multiarray_umath")  # the module path from numpy 2.0 on
        settings = [(1, 7), (2, 1024), (3, chargroup._BLOCK)]
        probe = f"import sys; sys.path.insert(0, {TESTS!r}); import conftest;"
        probe += f"print(conftest.blocks_that_change_bits({settings}), conftest.twiddles_off_their_pins())"
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(umath.__cpu_dispatch__))
        assert run_probe(probe, env).strip() == "[] []"

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended-precision longdouble")
    def test_twiddle_tables_and_products_keep_their_pins(self):
        # T_lo and T_hi at q = 5, 7, 11, 13 and SPLIT_Q bit for bit, each
        # entry within half an ulp of mpmath, and the run-wise product of
        # every range against the whole-array one
        pytest.importorskip("mpmath")
        assert twiddles_off_their_pins() == []

    def test_caller_and_helpers_take_blocks_in_turn(self, monkeypatch):
        # every block once, the caller among the threads; three blocks run inline
        monkeypatch.setattr(chargroup, "_thread_count", lambda: 3)
        monkeypatch.setattr(chargroup, "_BLOCK", 10)
        seen = []

        def note(a, b):
            seen.append((a, b, threading.current_thread().name))
            time.sleep(0.001)

        chargroup._blocks(note, 95, 2)
        assert sorted(block[:2] for block in seen) == [(a, min(a + 5, 95)) for a in range(0, 95, 5)]
        assert threading.current_thread().name in {name for *_, name in seen}
        assert 2 <= len({name for *_, name in seen}) <= 3
        seen.clear()
        chargroup._blocks(note, 30)
        assert seen == [(a, a + 10, threading.current_thread().name) for a in (0, 10, 20)]

    def test_worker_processes_share_the_cpus(self, monkeypatch):
        monkeypatch.setattr(chargroup, "_processes", 1)
        cpus = chargroup._thread_count()
        chargroup._share_cpus(2)
        assert chargroup._thread_count() == max(1, cpus // 2)
        chargroup._share_cpus(10**6)
        assert chargroup._thread_count() == 1


class TestHalfSpectrum:
    # q = 5, 7, 11 and 13 have one or two pairs (j, h - j), where numpy picks
    # its complex-multiply loop by layout; 13 (h = 3*2), 1031 and 98017 split
    @pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 101, 1009, 10007, 97021, 98017])
    @pytest.mark.parametrize("sigma", [1.0, 0.75, 0.55])
    def test_l_value_kernel_and_transform_keep_every_bit(self, group_of, q, sigma):
        group = group_of(q)
        h = (q - 1) // 2
        kernel = residue_order_kernel(q, sigma)
        assert same_bits(_residue_values(group, sigma), kernel[_powers(group.g, q, q - 1) - 1])
        half = half_spectrum(group, _residue_values(group, sigma))
        assert same_bits(half, packed_full_length_dft(group, kernel)[: h + 1])

    @settings(max_examples=40, deadline=None)
    @given(q=st.sampled_from(ODD_PRIMES), seed=st.integers(0, 2**32 - 1))
    @example(q=3, seed=0)
    @example(q=5, seed=1)
    @example(q=7, seed=2)
    @example(q=13, seed=3)
    @example(q=SPLIT_Q, seed=4)
    @example(q=19037, seed=5)  # (q-1)/2 = 2*4759: a split with r = 2
    def test_random_vectors_keep_every_bit(self, q, seed):
        group = build_group(q)
        f = np.random.default_rng(seed).standard_normal(q - 1)
        want = packed_full_length_dft(group, f)
        assert same_bits(half_spectrum(group, f[_powers(group.g, q, q - 1) - 1]), want[: (q + 1) // 2])
        assert same_bits(dft_over_group(group, f), want[: (q + 1) // 2])

    # The buffer the transform runs in (h + 1 complex, 16 B per h) is counted
    # here, where before the caller held the input: the bounds kept their
    # figures, so they are 16 B per h tighter.  Measured 44.38 (its one block
    # of E, O and twiddles is 24 B per h at this h), 25.50, 34.78 and 33.83 B;
    # a split adds its (p, r) array, 16 B per h.
    @pytest.mark.parametrize("q,per_h", [(10007, 32), (97021, 32), (98017, 40), (300809, 40)])
    def test_peak_memory_per_h(self, group_of, q, per_h):
        group = group_of(q)
        h = (q - 1) // 2
        x = np.random.default_rng(q).standard_normal(q - 1)
        half_spectrum(group, x)  # numpy's FFT plan cache is traced too; fill it first
        tracemalloc.start()
        try:
            half_spectrum(group, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= per_h * h + 64 * 1024

    def test_runs_in_the_buffer_it_is_handed(self, group_of):
        # l_value_batch and _term_sums write the vector into the buffer and hand
        # it over: the spectrum comes back in it, and beside it the plain path
        # holds one block's E, O and twiddles (_BLOCK // 2 pairs, 48 B each)
        # and its index range, nothing whose size grows with h
        q = 97021
        group = group_of(q)
        h = (q - 1) // 2
        buffer = np.ones(h + 1, dtype=complex)
        assert chargroup._half_spectrum(group, buffer) is buffer
        tracemalloc.start()
        try:
            chargroup._half_spectrum(group, buffer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 28 * chargroup._BLOCK + 64 * 1024
