"""The paper's composition factors of gl(m), computed from (m, field, form).

Nothing here imports `lieclassical`: the benchmark checks the program's
outputs against these closed formulas, never against the program itself or
a stored copy of its output.  Fields are given as (characteristic, degree),
with characteristic 0 for Q.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction


def thm_1_1(m):
    """Thm 1.1: characteristic 2, alternating form, even m >= 4.

    m + 6 factors when 4 | m, else m + 4; two of them are nontrivial of
    dimension m(m-1)/2 - 2 (resp. - 1), and the rest are trivial lines.
    """
    if m < 4 or m % 2:
        raise ValueError("Thm 1.1 needs even m >= 4")
    four = m % 4 == 0
    count = m + 6 if four else m + 4
    big = m * (m - 1) // 2 - (2 if four else 1)
    return [big, big] + [1] * (count - 2)


def thm_1_3_1_4(m, char, symplectic, disc_square=False):
    """Thms 1.3 and 1.4: characteristic l != 2, symplectic resp. orthogonal.

    gl = L + M with M = L-perp; M cap sl has codimension 1 in M, and it
    contains the scalars exactly when l | m, which splits off one more
    trivial line.  For the orthogonal form with m = 4 and a square
    discriminant, L = so(4) is a sum of two 3-dimensional ideals (Note 9.1).
    """
    if char == 2:
        raise ValueError("Thms 1.3/1.4 need characteristic other than 2")
    dim_l = m * (m + 1) // 2 if symplectic else m * (m - 1) // 2
    dim_m = m * m - dim_l
    if symplectic and m == 2:
        return [1, 3]
    if char and m % char == 0:
        dims = [1, dim_m - 2, 1]
    else:
        dims = [dim_m - 1, 1]
    if not symplectic and m == 4 and disc_square:
        return dims + [3, 3]
    return dims + [dim_l]


def thm_4_1(m, char):
    """Thm 4.1: gl(m) as an sl(m)-module; the scalars lie in sl iff l | m."""
    if char and m % char == 0:
        return [1, m * m - 2, 1]
    return [m * m - 1, 1]


def note_9_2_lattice(q):
    """Proper nonzero submodules of M cap sl for so(3) over GF(q), q = 9.

    The scalars s, plus one 3-dimensional graph submodule for each of the
    q + 1 points of the projective line over GF(q), because X/s and Y/s are
    isomorphic: 1 + (q + 1) members.
    """
    return [1] + [3] * (q + 1)


def same_factors(computed, expected):
    """True when two factor-dimension lists agree as multisets."""
    return Counter(computed) == Counter(expected)


# ---------------------------------------------------------------------------
# Square classes of discriminants


def is_square(a, char, degree=1):
    """Whether a lies in the squares of the field.

    Over Q, a is a Fraction (or int).  Over GF(p^degree), a is an integer
    standing for an element of the prime field GF(p): Euler's criterion
    decides it in GF(p), and every element of GF(p) is a square in
    GF(p^2), since GF(p^2)* is cyclic of order divisible by 2(p - 1).
    """
    if char == 0:
        a = Fraction(a)
        if a < 0:
            return False
        num, den = a.numerator, a.denominator
        return math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den
    a %= char
    if a == 0 or char == 2 or degree % 2 == 0:
        return True
    return pow(a, (char - 1) // 2, char) == 1


def det(rows, char):
    """Determinant by Gaussian elimination over GF(char), or over Q if char is 0."""
    n = len(rows)
    if char:
        a = [[x % char for x in r] for r in rows]
    else:
        a = [[Fraction(x) for x in r] for r in rows]
    d = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = -d
        d *= a[c][c]
        inv = pow(a[c][c], -1, char) if char else 1 / a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] * inv
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
                if char:
                    a[r] = [x % char for x in a[r]]
        if char:
            d %= char
    return d
