"""The group of Dirichlet characters modulo an odd prime q.

Characters are indexed by an exponent j against a fixed primitive root g:

    chi_j(g**k) = exp(2*pi*i * j*k / (q-1)),   chi_j(n) = 0 when q | n.

A single character is the plain pair (group, j), evaluated at any
arguments through a discrete-log table, or along the powers of g with
none (`power_values`).  A sum of the whole group against any vector is one
length-(q-1) DFT along those powers; `_term_sums` is the package's one
character sum of terms (n, a_n).  Every vector the package transforms is
real, so out[q-1-j] = conj out[j]: `_half_spectrum` forms j <= (q-1)/2
from one complex FFT of length h = (q-1)/2, and the whole-group paths
read that half only.  When the largest prime p of h has p**2 > h (numpy
would take its Bluestein path) and h != p, that FFT is split by the
Good-Thomas map into batched FFTs of the coprime lengths p and h/p.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import numth


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


class CharacterGroup:
    """Full character group mod an odd prime q, with O(1) evaluation tables.

    Attributes:
        q: the prime modulus
        g: the smallest primitive root mod q
        phi: group order q - 1
        power_residues: int32 array of length q-1; entry k is g**k mod q
        dlog: int32 array of length q, built on first access;
              dlog[a] = k with g**k = a (mod q), dlog[0] = -1 (sentinel for q | n)

    Both tables fit int32 because q < 2**31 (`numth.check_modulus`); every
    product of a character index with a table entry is formed in int64.  The
    private root table `_roots[k] = exp(2 pi i k/(q-1))` holds k <= h = (q-1)/2
    in a new group (exactly -1 at k = h), all that the whole-group paths read:
    12 bytes per residue.  The first single-character evaluation replaces it
    by the full table, its exact mirror `_roots[q-1-k] = conj(_roots[k])`, so
    a group holds at most 24: reading the half through folded indices made
    `character_values` twice as slow at q = 98017.
    """

    def __init__(self, q: int, g: int):
        self.q = q
        self.g = g
        self.phi = q - 1
        self.power_residues = _powers(g, q, q - 1).astype(np.int32)
        self.power_residues.setflags(write=False)
        # one shared root-of-unity table fixes the rounding profile everywhere
        h = (q - 1) // 2
        roots = np.empty(h + 1, dtype=complex)
        roots[:h] = np.exp(2j * math.pi * np.arange(h) / (q - 1))
        roots[h] = -1.0
        roots.setflags(write=False)
        self._roots = roots

    @functools.cached_property
    def dlog(self) -> np.ndarray:
        dlog = np.full(self.q, -1, dtype=np.int32)
        dlog[self.power_residues] = np.arange(self.q - 1, dtype=np.int32)
        dlog.setflags(write=False)
        return dlog

    def _full_roots(self) -> np.ndarray:
        """The root table over every k < q-1, mirrored from the lower half on
        first use; it replaces the half table, so the group holds one of them."""
        if self._roots.size < self.q - 1:
            h = (self.q - 1) // 2
            roots = np.empty(self.q - 1, dtype=complex)
            roots[: h + 1] = self._roots
            np.conjugate(roots[h - 1 : 0 : -1], out=roots[h + 1 :])
            roots.setflags(write=False)
            self._roots = roots
        return self._roots

    def character(self, index: int) -> tuple[CharacterGroup, int]:
        """chi_index as the pair (group, index) that single-character functions take."""
        if not 0 <= index <= self.q - 2:
            raise ValueError(f"character index must lie in [0, {self.q - 2}], got {index}")
        return self, index

    def character_values(self, index: int, ns: np.ndarray) -> np.ndarray:
        """chi_index(n) for every n of the int array `ns` (zeros where q | n)."""
        ns = np.asarray(ns)
        logs = self.dlog[ns - ns // self.q * self.q]  # the sentinel -1 where q | n
        exponents = np.multiply(logs, index, dtype=np.int64)
        exponents -= exponents // (self.q - 1) * (self.q - 1)  # floor_divide by a scalar is cheaper than %
        values = self._full_roots()[exponents]
        values[logs < 0] = 0
        return values

    def power_values(self, index: int) -> np.ndarray:
        """chi_index(g**k) = root[index*k mod (q-1)] for k = 0..q-2, with no dlog."""
        exponents = np.arange(self.q - 1, dtype=np.int64) * index
        exponents -= exponents // (self.q - 1) * (self.q - 1)
        return self._full_roots()[exponents]

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
    seen[group.power_residues] = True
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
    """out[j] = sum_{a=1}^{q-1} f(a) * chi_j(a) for every character index j.

    `f` holds the values at residues 1..q-1 (entry i at a = i+1).  A real f
    is read in power order, transformed by `_half_spectrum` and mirrored;
    the output and the half spectrum are alive at the peak, 48 bytes per
    (q-1)/2.  A complex f is transformed as dft(f.real) + i*dft(f.imag).
    """
    f = np.asarray(f)
    if f.shape != (group.q - 1,):
        raise ValueError(f"expected {group.q - 1} residue values, got shape {f.shape}")
    if np.iscomplexobj(f):
        return dft_over_group(group, f.real) + 1j * dft_over_group(group, f.imag)
    return _mirrored(_half_spectrum(group, f[group.power_residues - 1]), 0)


def _mirrored(half: np.ndarray, first: int) -> np.ndarray:
    """The entries j = first..q-2 of a spectrum from half[i] at j = first + i
    <= (q-1)/2, by out[q-1-j] = conj(out[j]); `first` is 0 or 1."""
    out = np.empty(2 * half.size - 2 + first, dtype=half.dtype)
    out[: half.size] = half
    np.conjugate(half[1 - first : -1][::-1], out=out[half.size :])
    return out


def _term_sums(group: CharacterGroup, ns: np.ndarray, values: np.ndarray) -> np.ndarray:
    """out[j] = sum_i values[i] * chi_j(ns[i]) for j = 0..(q-1)/2, the
    `_half_spectrum` of the terms' residue sums 1..q-1 in power order."""
    return _half_spectrum(group, numth._residue_sums(group.q, ns, values, group.q)[group.power_residues])


def _half_spectrum(group: CharacterGroup, x: np.ndarray) -> np.ndarray:
    """out[j] = sum_k x[k] * chi_j(g**k) for j = 0..h, h = (q-1)/2, for a real
    vector x in power order; out[q-1-j] = conj(out[j]) is the rest.

    x viewed as complex, z[m] = x[2m] + i*x[2m+1], has one unscaled length-h
    FFT Z, written into out[:h]; x is let go there, so an input handed over
    as a temporary is freed.  With E[j] = (Z[j] + conj Z[h-j])/2 and
    O[j] = -i(Z[j] - conj Z[h-j])/2 (indices mod h), out[j] = E[j] + w**j O[j]
    (w = exp(2 pi i/(q-1)), from the root table) and out[h] = E[0] - O[0]
    (Sorensen, Jones, Heideman and Burrus, IEEE TASSP 1987).  E and O are
    formed for j <= h/2 and give E[h-j] = conj E[j], O[h-j] = conj O[j], so
    out and two arrays of h/2 + 1 are alive at the peak: 32 bytes per h.

    Where h has a prime factor p with p**2 > h and h != p (numpy's Bluestein
    case), z is gathered into a (p, r) array, r = h/p, by the Ruritanian map
    (r*a + p*b) mod h, both axes take batched in-place FFTs and Z[k] is read
    at (k mod p, k mod r): 0.10 s against Bluestein's 0.20 s at q = 985709.
    """
    h = (group.q - 1) // 2
    z = np.ascontiguousarray(x, dtype=float).view(complex)
    del x
    split = _good_thomas_split(h)
    if split:
        p, r = split
        # Ruritanian map (r*a + p*b) mod h; every entry is below 2h
        ruritanian = r * np.arange(p)[:, None] + p * np.arange(r)
        np.subtract(ruritanian, h, out=ruritanian, where=ruritanian >= h)
        z = z[ruritanian]
        del ruritanian
        # unscaled 2-D transform in place; entry (k mod p, k mod r) is Z[k]
        np.fft.ifft(z, axis=-1, norm="forward", out=z)
        np.fft.ifft(z, axis=-2, norm="forward", out=z)
        crt = np.tile(np.arange(p) * r, r)
        crt += np.tile(np.arange(r), p)  # (k mod p) * r + k mod r
        out = np.empty(h + 1, dtype=complex)
        np.take(z.ravel(), crt, out=out[:h], mode="clip")  # mode="raise" would buffer out
    else:
        out = np.empty(h + 1, dtype=complex)
        np.fft.ifft(z, norm="forward", out=out[:h])  # unscaled: sum_m z[m] exp(2 pi i jm/h)
    del z
    m = h // 2 + 1  # j = 0..h/2; their partners h-j > h/2 fill out[m:h]
    even = out[-np.arange(m) % h]  # Z[h-j], made conj Z[h-j]
    np.conjugate(even, out=even)
    odd = np.subtract(out[:m], even)
    np.add(out[:m], even, out=even)
    even *= 0.5
    odd *= -0.5j
    out[h] = even[0] - odd[0]
    # twiddle products go to contiguous arrays apart from their inputs: into
    # a one-entry reversed view numpy multiplies by another loop, an ulp off
    np.multiply(odd, group._roots[:m], out=out[:m])
    out[:m] += even
    # out[m:h] holds the partners h-j of j = h-m down to 1
    np.multiply(np.conjugate(odd, out=odd)[h - m : 0 : -1], group._roots[m:h], out=out[m:h])
    out[m:h] += np.conjugate(even, out=even)[h - m : 0 : -1]
    return out


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
