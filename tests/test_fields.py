"""Field arithmetic checks, including randomized axiom suites."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from lieclassical.fields import GF, QQ, QuadraticField, field_from_token, is_prime, quadratic_nonresidue


def test_quadratic_nonresidue_small_primes():
    assert quadratic_nonresidue(3) == 2
    assert quadratic_nonresidue(5) == 2
    assert quadratic_nonresidue(7) == 3


def test_quadratic_nonresidue_matches_the_squares():
    for p in filter(is_prime, range(3, 400)):
        squares = {i * i % p for i in range(p)}
        assert quadratic_nonresidue(p) == min(set(range(1, p)) - squares)


@pytest.mark.parametrize("p", [2**31 - 1, 3037000493])
def test_gf_p2_builds_fast_for_large_primes(p):
    # 3037000493 is the largest prime GF accepts; it is 1 mod 4, so -1 is a
    # square there and the nonresidue is found by testing 2, 3, ...
    t0 = time.perf_counter()
    K = QuadraticField(p)
    assert GF(p, 2).nonresidue == K.nonresidue
    assert time.perf_counter() - t0 < 0.5
    r = K.nonresidue
    assert r < p - 1 and pow(r, (p - 1) // 2, p) == p - 1
    assert all(pow(s, (p - 1) // 2, p) == 1 for s in range(2, r))


def test_quadratic_nonresidue_rejects_two():
    with pytest.raises(ValueError):
        quadratic_nonresidue(2)


def test_gf4_unsupported():
    with pytest.raises(ValueError):
        GF(2, 2)


def test_prime_field_basics():
    K = GF(5)
    assert K.add(3, 4) == 2
    assert K.mul(3, 4) == 2
    assert K.inv(2) == 3
    assert K.neg(1) == 4
    assert K.is_square(4) and not K.is_square(2)
    assert sorted(K.elements()) == [0, 1, 2, 3, 4]


def test_quadratic_field_basics():
    K = GF(3, 2)
    # x^2 = 2 = -1 mod 3
    assert K.nonresidue == 2
    x = (0, 1)
    assert K.mul(x, x) == K.of(-1)
    assert K.order() == 9
    for a in K.elements():
        if not K.is_zero(a):
            assert K.mul(a, K.inv(a)) == K.one()


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_quadratic_is_square_matches_the_squares(p):
    # Euler's criterion on the norm against the brute-force squares of GF(p^2)
    K = GF(p, 2)
    squares = {K.mul(x, x) for x in K.elements()}
    assert len(squares) == (p * p + 1) // 2
    assert all(K.is_square(a) == (a in squares) for a in K.elements())


def test_rational_is_square():
    assert QQ.is_square(Fraction(4, 9))
    assert not QQ.is_square(Fraction(2))
    assert not QQ.is_square(Fraction(-1))


def test_field_tokens_round_trip():
    for K in (QQ, GF(7), GF(3, 2)):
        assert field_from_token(K.token) == K


def test_scalar_format_round_trip():
    rng = random.Random(7)
    for K in (QQ, GF(2), GF(7), GF(5, 2)):
        for _ in range(50):
            a = K.random(rng)
            assert K.parse(K.fmt(a)) == a


def test_field_axioms_randomized():
    rng = random.Random(0)
    for K in (QQ, GF(2), GF(3), GF(7), GF(3, 2), GF(5, 2)):
        for _ in range(200):
            a, b, c = (K.random(rng) for _ in range(3))
            assert K.add(K.add(a, b), c) == K.add(a, K.add(b, c))
            assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
            assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
            assert K.add(a, K.neg(a)) == K.zero()
            if not K.is_zero(a):
                assert K.mul(a, K.inv(a)) == K.one()


def test_primes_beyond_int64_products_refused():
    assert GF(2**31 - 1).char == 2**31 - 1
    for token in ("4294967311", "4294967311^2", str(2**61 - 1)):
        with pytest.raises(ValueError, match="too large"):
            field_from_token(token)
