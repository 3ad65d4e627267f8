"""The group of Dirichlet characters modulo an odd prime q.

Characters are indexed by an exponent j against a fixed primitive root g:

    chi_j(g**k) = exp(2*pi*i * j*k / (q-1)),   chi_j(n) = 0 when q | n.

A single character is the plain pair (group, j), evaluated at any
arguments through a discrete-log table, or along the powers of g with
none (`power_values`).  A sum of the whole group against a real vector
is one DFT along those powers (`dft_over_group`); `_term_sums` is the
package's one character sum of terms (n, a_n).  A real vector's spectrum
has out[q-1-j] = conj out[j], so `_half_spectrum` forms only j <= (q-1)/2,
from one complex FFT of length h = (q-1)/2, in the (h + 1)-complex buffer
the vector was written into, and every path reads that half.  When the
largest prime p of h has p**2 > h (numpy would take its Bluestein path)
and h != p, that FFT is split by the Good-Thomas map into batched FFTs of
the coprime lengths p and h/p.

The whole-group stages run by `_blocks` on W threads, W the CPUs this
process may use over the worker processes sharing them.  Each entry is
computed alike in any block, and sums, argmax and scatters stay serial,
so no output bit depends on W or on the block size.  They hold no array
of size q but the vector they work on: the powers of g (`_power_block`)
and the twiddles (`_twiddles`, from two tables of about sqrt(q)) come by blocks.
"""

from __future__ import annotations

import concurrent.futures
import functools
import math
import os
import threading

import numpy as np

from . import numth

# entries per block of a whole-group stage: a few such arrays per thread stay
# in a core's cache; at 2**13 the lock hand-off at each numpy call made two
# threads slower than one, and above 2**14 the scratch breaks the memory pins
_BLOCK = 1 << 14

# processes that share this process's CPUs: a `--jobs` pool sets it in each worker
_processes = 1


def _share_cpus(processes: int) -> None:
    """Divide this process's CPUs among `processes` worker processes."""
    global _processes
    _processes = processes


def _thread_count() -> int:
    """W: the CPUs this process may use over the processes sharing them, at least 1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, cpus // _processes)


def _blocks(fn, n: int, width: int = 1) -> None:
    """Call fn(a, b) over consecutive blocks [a, b) of range(n) of _BLOCK //
    width units (at least one), taken in turn by the caller and up to W - 1
    helper threads of a pool made for this call, as many as give each thread
    two blocks or more; a range of three blocks or fewer runs inline.  Each
    fn writes the entries of its own block only.

    A thread's start and a lock hand-off for each numpy call cost more than
    a share of under two blocks saves, and at q ~ 10**5 the blocks' scratch
    of W threads would rival the data (the tracemalloc pins hold at any W).
    """
    size = max(1, _BLOCK // width)
    starts = iter(range(0, n, size))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                a = next(starts, n)
            if a == n:
                return
            fn(a, min(a + size, n))

    helpers = min(_thread_count(), -(-n // size) // 2) - 1
    if helpers < 1:
        return work()
    with concurrent.futures.ThreadPoolExecutor(helpers) as pool:
        futures = [pool.submit(work) for _ in range(helpers)]
        work()
    for future in futures:
        future.result()


def _powers(g: int, q: int, count: int) -> np.ndarray:
    """g**k mod q for k = 0..count-1 as an int64 array, by doubling: entries
    m..2m-1 are entries 0..m-1 times g**m mod q.  Both factors are below
    q < 2**31, so each product stays below 2**62 and is exact in int64."""
    powers = np.ones(count, dtype=np.int64)
    m = 1
    while m < count:
        block = powers[m : 2 * m]
        np.multiply(powers[: block.size], pow(g, m, q), out=block)
        block -= block // q * q  # floor_divide by a scalar is cheaper than %
        m *= 2
    return powers


def _power_block(group: CharacterGroup, a: int, b: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """g**k mod q for k in [a, b) as int64, b - a <= _BLOCK (blocks of `_blocks`):
    g**a times the head of the step table, mod q (products below q**2 < 2**62); the quotient goes to `scratch`."""
    q, out = group.q, np.empty(b - a, dtype=np.int64)  # a short step table fails to broadcast into it
    np.multiply(group._steps[: b - a], pow(group.g, a, q), out=out, dtype=np.int64)
    quotient = np.floor_divide(out, q, out=scratch)  # floor_divide by a scalar is cheaper than %
    out -= np.multiply(quotient, q, out=quotient)
    return out


def _twiddles(group: CharacterGroup, a: int, b: int, out: np.ndarray) -> np.ndarray:
    """w**e = T_lo[e mod L] * T_hi[e div L] for e in [a, b), into out: each root with e <= (q-1)/4, the others being
    exact negations and conjugates of these, within about half an ulp.  Each run of one e div L is a slice of T_lo
    times an entry of T_hi ("subvector scaling", Van Loan, Computational Frameworks for the FFT, 1992, 1.4) in long
    double, which no SIMD level runs, rounded once."""
    lo, hi = group._roots_lo, group._roots_hi
    for e in (a, *range(a - a % lo.size + lo.size, b, lo.size)):  # the runs' starts
        end, (m, l) = min(e - e % lo.size + lo.size, b), divmod(e, lo.size)
        np.multiply(lo[l : l + end - e], hi[m], out=out[e - a : end - a], casting="unsafe")
    return out


class CharacterGroup:
    """Full character group mod an odd prime q, with O(1) evaluation tables.

    Attributes:
        q: the prime modulus
        g: the smallest primitive root mod q
        phi: group order q - 1
        dlog: int32 array of length q, built on first access;
              dlog[a] = k with g**k = a (mod q), dlog[0] = -1 (sentinel for q | n)

    dlog fits int32 because q < 2**31 (`numth.check_modulus`); every
    product of a character index with an entry is formed in int64.  A
    new group holds `_steps`, g**k for k < min(_BLOCK, q-1) in int32, and the long-double
    T_lo = w**l for l < L, T_hi = w**(mL) for mL < q-1, L = 2**ceil(log2 sqrt(q-1)), 2**16 or
    fewer apiece (`_twiddles`; libm's cos and sin of long-double angles, no SIMD dispatch).
    A single-character path builds dlog and the root table `_roots[k] = exp(2 pi i k/(q-1))`,
    k < q-1: `_twiddles` up to h/2, h = (q-1)/2, -conj of entry h-k up to h, exactly -1 at h and
    the conjugate of entry q-1-k above it, at most 24 bytes per residue in all: folded
    indices into a half table made `character_values` twice as slow at q = 98017.
    """

    def __init__(self, q: int, g: int):
        self.q = q
        self.g = g
        self.phi = q - 1
        self._steps = _powers(g, q, min(_BLOCK, q - 1)).astype(np.int32)
        self._steps.setflags(write=False)
        span = 1 << ((q - 2).bit_length() + 1) // 2  # L, the least power of 2 with L**2 >= q - 1
        angles = (k * (8 * np.arctan(np.longdouble(1))) / (q - 1) for k in (np.arange(span), np.arange(0, q - 1, span)))
        self._roots_lo, self._roots_hi = (np.cos(a) + 1j * np.sin(a) for a in angles)  # long double

    @functools.cached_property
    def dlog(self) -> np.ndarray:
        dlog = np.full(self.q, -1, dtype=np.int32)
        _blocks(lambda a, b: np.put(dlog, _power_block(self, a, b), np.arange(a, b)), self.q - 1)
        dlog.setflags(write=False)
        return dlog

    @functools.cached_property
    def _roots(self) -> np.ndarray:
        h = (self.q - 1) // 2
        roots = np.empty(self.q - 1, dtype=complex)
        _blocks(lambda a, b: _twiddles(self, a, b, roots[a:b]), h // 2 + 1)
        upper = np.conjugate(roots[h - h // 2 - 1 : 0 : -1], out=roots[h // 2 + 1 : h])
        np.negative(upper, out=upper)  # w**(h-e) = -conj w**e
        roots[h] = -1.0  # the order-2 character is exactly real
        np.conjugate(roots[h - 1 : 0 : -1], out=roots[h + 1 :])
        roots.setflags(write=False)
        return roots

    def character(self, index: int) -> tuple[CharacterGroup, int]:
        """chi_index as the pair (group, index) that single-character functions take."""
        if not 0 <= index <= self.q - 2:
            raise ValueError(f"character index must lie in [0, {self.q - 2}], got {index}")
        return self, index

    def character_values(self, index: int, ns: np.ndarray) -> np.ndarray:
        """chi_index(n) for every n of the int array `ns` (zeros where q | n)."""
        self.character(index)  # an index outside [0, q-2] would alias another character
        ns = np.asarray(ns)
        logs = self.dlog[ns - ns // self.q * self.q]  # the sentinel -1 where q | n
        exponents = np.multiply(logs, index, dtype=np.int64)
        exponents -= exponents // (self.q - 1) * (self.q - 1)  # floor_divide by a scalar is cheaper than %
        values = self._roots[exponents]
        values[logs < 0] = 0
        return values

    def power_values(self, index: int) -> np.ndarray:
        """chi_index(g**k) = root[index*k mod (q-1)] for k = 0..q-2, with no dlog."""
        self.character(index)
        exponents = np.arange(self.q - 1, dtype=np.int64) * index
        exponents -= exponents // (self.q - 1) * (self.q - 1)
        return self._roots[exponents]

    def values_at(self, n: int) -> np.ndarray:
        """chi_j(n) for every j (zeros when q | n): chi_j(g**m) = chi_m(g**j)."""
        r = n % self.q
        if r == 0:
            return np.zeros(self.q - 1, dtype=complex)
        return self.power_values(int(self.dlog[r]))

    def __repr__(self) -> str:
        return f"CharacterGroup(q={self.q}, g={self.g})"


def build_group(q: int) -> CharacterGroup:
    """Construct the character group mod q (`numth.check_modulus`),
    verifying that k -> g**k mod q is a bijection onto 1..q-1."""
    numth.check_modulus(q)
    group = CharacterGroup(q, numth.primitive_root(q))
    seen = np.zeros(q, dtype=bool)  # 1 byte per residue, freed on return
    _blocks(lambda a, b: np.put(seen, _power_block(group, a, b), True), q - 1)
    if not seen[1:].all():
        raise AssertionError(f"the powers of g={group.g} mod q={q} are not a bijection")
    return group


def orthogonality_sum(group: CharacterGroup, m: int, n: int) -> float:
    """Sum of chi(m) * conj(chi(n)) over all chi, by direct summation.

    Equals phi(q) when m = n (mod q) and 0 otherwise.  The q - 1 products
    come from the evaluation tables and are added by `numth._exact_sum`, so
    the sum is exactly rounded and independent of `dft_over_group`: it stays
    the obviously-correct oracle for the DFT-based paths.
    """
    q = group.q
    if math.gcd(m * n, q) != 1:
        raise ValueError(f"orthogonality_sum requires gcd(mn, q) = 1, got m={m}, n={n}, q={q}")
    return numth._exact_sum((group.values_at(m) * np.conj(group.values_at(n))).real)


def dft_over_group(group: CharacterGroup, f: np.ndarray) -> np.ndarray:
    """out[j] = sum_{a=1}^{q-1} f(a) * chi_j(a) for j = 0..h, h = (q-1)/2, for a
    real f; out[q-1-j] = conj out[j] is the rest, as chi_{q-1-j} = conj chi_j.

    `f` holds the values at residues 1..q-1 (entry i at a = i+1).  It is read
    in power order, by blocks of powers, into the (h + 1)-complex buffer that
    `_half_spectrum` transforms in place and returns.  A complex f is
    refused: its spectrum has no conjugate symmetry, so no half of it holds
    the rest; transform its real and imaginary parts apart.
    """
    f = np.asarray(f)
    if f.shape != (group.q - 1,):
        raise ValueError(f"expected {group.q - 1} residue values, got shape {f.shape}")
    if np.iscomplexobj(f):
        raise ValueError("dft_over_group takes a real vector; transform the real and imaginary parts apart")
    f = f.astype(float, copy=False)
    buffer = np.empty((group.q + 1) // 2, dtype=complex)

    def gather(a, b):  # one int64 block: the quotient goes to the destination, which "clip" does not buffer
        index = _power_block(group, a, b, buffer.view(float)[a:b].view(np.int64))
        np.take(f, np.subtract(index, 1, out=index), out=buffer.view(float)[a:b], mode="clip")

    _blocks(gather, group.q - 1)
    del f  # frees a temporary argument, as `_term_sums` passes, before the transform (CPython >= 3.11)
    return _half_spectrum(group, buffer)


def _term_sums(group: CharacterGroup, ns: np.ndarray, values: np.ndarray) -> np.ndarray:
    """out[j] = sum_i values[i] * chi_j(ns[i]) for j = 0..(q-1)/2: the group
    DFT of the terms' residue sums 1..q-1."""
    return dft_over_group(group, numth._residue_sums(group.q, ns, values, group.q)[1:])


def _half_spectrum(group: CharacterGroup, out: np.ndarray) -> np.ndarray:
    """out[j] = sum_k x[k] * chi_j(g**k) for j = 0..h, h = (q-1)/2, for a real
    vector x in power order held by the float view of the buffer `out`, of
    h + 1 complex, which it returns; out[q-1-j] = conj(out[j]) is the rest.

    x viewed as complex, z[m] = x[2m] + i*x[2m+1], has one unscaled length-h
    FFT Z, in place.  With E[j] = (Z[j] + conj Z[h-j])/2 and
    O[j] = -i(Z[j] - conj Z[h-j])/2 (indices mod h), out[j] = E[j] + w**j O[j]
    (w = exp(2 pi i/(q-1))) and out[h] = E[0] - O[0] (Sorensen, Jones,
    Heideman and Burrus, IEEE TASSP 1987).  E and O are formed by blocks of j <= h/2 only, as
    E[h-j] = conj E[j] and O[h-j] = conj O[j], and as w**(h-j) = -conj w**j (q - 1 = 2h), one twiddle from
    `_twiddles` (the same bits at every dispatch level) and one product P = w**j O[j] (whose loop is
    dispatched) give out[j] = E[j] + P and out[h-j] = conj(E[j] - P): the buffer and each thread's
    three block arrays are alive.

    Where h has a prime factor p with p**2 > h and h != p (numpy's Bluestein
    case), z is gathered into a (p, r) array, r = h/p, by the Ruritanian map
    (r*a + p*b) mod h, both axes take batched in-place FFTs and Z[k] is read
    back into the buffer from (k mod p, k mod r), each step by blocks: the
    (p, r) array and the buffer are alive at the peak.  At q = 985709 on a
    2-vCPU Xeon this took 38-61 ms on two threads, and numpy's Bluestein FFT
    of length h alone 170 ms.
    """
    h = (group.q - 1) // 2
    split = _good_thomas_split(h)
    if split:
        p, r = split
        grid = np.empty((p, r), dtype=complex)

        def rows(a, b):
            # Ruritanian map (r*a + p*b) mod h; every index is below 2h, so "wrap" subtracts h once
            np.take(out[:h], _progressions(r * np.arange(a, b), p, r), out=grid[a:b], mode="wrap")
            np.fft.ifft(grid[a:b], axis=-1, norm="forward", out=grid[a:b])

        _blocks(rows, p, r)
        _blocks(lambda a, b: np.fft.ifft(grid[:, a:b], axis=-2, norm="forward", out=grid[:, a:b]), r, p)

        def read(a, b):
            # Z[k] sits at flat index (k mod p)*r + k mod r = (k*r + k mod r) mod h, that
            # is (r*r*u mod h + (r+1)*v) mod h for k = r*u + v: below 2h before the mod
            index = _progressions(r * r * np.arange(a, b) % h, r + 1, r)
            np.take(grid.ravel(), index, out=out[a * r : b * r].reshape(-1, r), mode="wrap")

        _blocks(read, p, r)
        del grid
    else:
        np.fft.ifft(out[:h], norm="forward", out=out[:h])  # unscaled: sum_m z[m] exp(2 pi i jm/h)
    m = h // 2 + 1  # j = 0..h/2; their partners h-j > h/2 fill out[m:h]

    def pairs(j0, j1):
        # reads and writes out[j] and out[h-j] for j in [j0, j1) only
        lo = max(j0, 1)  # the partner of j = 0 is out[0]
        even = np.empty(j1 - j0, dtype=complex)
        even[0] = out[0]
        even[lo - j0 :] = out[h - j1 + 1 : h - lo + 1][::-1]  # Z[h-j], made conj Z[h-j]
        np.conjugate(even, out=even)
        odd = np.subtract(out[j0:j1], even)
        np.add(out[j0:j1], even, out=even)
        even *= 0.5
        odd *= -0.5j
        if j0 == 0:
            out[h] = even[0] - odd[0]
        # the twiddles get a block array of their own: a product written into a
        # one-entry view of its own input takes another numpy loop, an ulp off
        np.multiply(odd, _twiddles(group, j0, j1, np.empty(j1 - j0, dtype=complex)), out=out[j0:j1])  # P
        hi = min(j1, h - m + 1)  # j = h/2 is its own partner
        partners = np.subtract(even[lo - j0 : hi - j0], out[lo:hi], out=out[h - hi + 1 : h - lo + 1][::-1])
        np.conjugate(partners, out=partners)  # out[h-j] = conj(E[j] - P) for j = lo..hi-1
        out[j0:j1] += even

    _blocks(pairs, m, 2)  # E, O and the twiddles: three arrays of _BLOCK // 2 pairs
    return out


def _progressions(starts: np.ndarray, step: int, width: int) -> np.ndarray:
    """starts[:, None] + step * arange(width) as one int64 array, summed along
    its rows in place: a broadcasting sum would allocate iterator buffers."""
    out = np.empty((starts.size, width), dtype=np.int64)
    out[:, 0] = starts
    out[:, 1:] = step
    return np.cumsum(out, axis=1, out=out)


def _good_thomas_split(h: int) -> tuple[int, int] | None:
    """(p, h/p) for the largest prime p of h when numpy would run a length-h
    FFT through Bluestein (p**2 > h) and h is not p itself; None otherwise.

    p**2 > h means p divides h exactly once, so p and h/p are coprime.
    """
    if h < 2:
        return None
    p = numth.factorize(h)[-1][0]
    if p * p <= h or p == h:
        return None
    return p, h // p
