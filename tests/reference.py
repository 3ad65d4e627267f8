"""Test-only references computed from the definitions in exact arithmetic.

Nothing here imports `lextremes`: the references take plain numbers and
arrays, so a fault in the package cannot enter them.
"""

from __future__ import annotations

from fractions import Fraction


def _scaled(table) -> tuple[list[int], int]:
    """Integers t[i] and an exponent e with t[i] / 2**e exactly table[i]."""
    ratios = [float(x).as_integer_ratio() for x in table]
    e = max(d for _, d in ratios).bit_length() - 1
    return [n << (e - d.bit_length() + 1) for n, d in ratios], e


def exact_s1(q: int, v, w) -> Fraction:
    """S1 = phi(q) * sum_{a, c} V[a] V[c] W[c * a**(-1) mod q], exactly.

    `v` and `w` are residue tables (entry i holds the sum over the terms
    congruent to i mod q) of any length up to q; entries past the end are
    zero.  Every float is an integer over a power of two, so the lattice is
    summed in integers and divided once.
    """
    v_int, ev = _scaled(v)
    w_int, ew = _scaled(w)
    support = [(a, x) for a, x in enumerate(v_int) if x and a % q]
    total = 0
    for a, va in support:
        a_inv = pow(a, -1, q)
        inner = 0
        for c, vc in support:
            r = c * a_inv % q
            if r < len(w_int):
                inner += vc * w_int[r]
        total += va * inner
    return Fraction((q - 1) * total, 1 << (2 * ev + ew))


def exact_float_sum(xs) -> float:
    """The sum of the floats xs as a Fraction, rounded once to the nearest
    float (ties to even) by float(); OverflowError past the float range.

    The Fraction is built as one integer over a power of two (`_scaled`),
    which is the exact sum and far quicker than adding Fractions one by one.
    """
    if len(xs) == 0:
        return 0.0
    ints, e = _scaled(xs)
    return float(Fraction(sum(ints), 1 << e))
