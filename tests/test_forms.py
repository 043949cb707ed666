"""Form classification and congruence normal forms."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from lieclassical.fields import GF, QQ
from lieclassical.forms import (
    classify,
    diagonalize_symmetric,
    discriminant_is_square,
    standard_symplectic_gram,
)
from lieclassical.linalg import Mat
from scalar_reference import diagonalize_by_scalars, from_int_rows, symplectic_basis


def test_classify_standard_j():
    J = standard_symplectic_gram(QQ, 4)
    f = classify(J)
    assert f.alternating and f.nondegenerate and not f.symmetric


def test_classify_identity_gf2():
    f = classify(Mat.identity(GF(2), 2))
    assert f.symmetric and not f.alternating and f.nondegenerate


def test_classify_zero():
    f = classify(Mat.zeros(QQ, 3, 3))
    assert f.symmetric and f.alternating and not f.nondegenerate


def test_symplectic_fixed_point():
    J = standard_symplectic_gram(GF(5), 4)
    res = symplectic_basis(J)
    assert res.normal_form == J
    assert res.transform.transpose() @ J @ res.transform == J


def test_symplectic_scaled_2x2():
    A = from_int_rows(QQ, [[0, 2], [-2, 0]])
    res = symplectic_basis(A)
    assert res.normal_form == standard_symplectic_gram(QQ, 2)
    assert res.transform.transpose() @ A @ res.transform == res.normal_form


def rand_alternating(K, m, rng):
    A = [[K.zero()] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            a = K.random(rng)
            A[i][j] = a
            A[j][i] = K.neg(a)
    return Mat(K, A)


def rand_symmetric(K, m, rng):
    A = [[K.zero()] * m for _ in range(m)]
    for i in range(m):
        A[i][i] = K.random(rng)
        for j in range(i + 1, m):
            a = K.random(rng)
            A[i][j] = a
            A[j][i] = a
    return Mat(K, A)


def test_symplectic_random_gf3():
    rng = random.Random(11)
    found = 0
    while found < 10:
        A = rand_alternating(GF(3), 4, rng)
        if GF(3).is_zero(A.det()):
            continue
        found += 1
        res = symplectic_basis(A)
        assert res.normal_form == standard_symplectic_gram(GF(3), 4)
        assert res.transform.transpose() @ A @ res.transform == res.normal_form


def test_diagonalize_char2_example():
    A = from_int_rows(GF(2), [[1, 1], [1, 0]])
    res = diagonalize_symmetric(A)
    assert res.normal_form == Mat.identity(GF(2), 2)
    assert res.transform.transpose() @ A @ res.transform == res.normal_form


def test_diagonalize_already_diagonal():
    A = Mat.diag(QQ, [Fraction(2), Fraction(3)])
    res = diagonalize_symmetric(A)
    assert res.normal_form == A


def test_diagonalize_random():
    rng = random.Random(12)
    for K in (GF(7), GF(2), QQ, GF(3)):
        for m in (3, 5):
            for _ in range(15):
                A = rand_symmetric(K, m, rng)
                f = classify(A)
                if K.char == 2 and f.alternating and not A.is_zero():
                    continue
                res = diagonalize_symmetric(A)
                D = res.transform.transpose() @ A @ res.transform
                assert D == res.normal_form
                assert all(
                    K.is_zero(D.rows[i][j]) for i in range(m) for j in range(m) if i != j
                )
                assert not K.is_zero(res.transform.det())


def test_diagonalize_rejects_char2_alternating():
    A = from_int_rows(GF(2), [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        diagonalize_symmetric(A)


def test_char2_alternating_complement_case():
    # diag(1) + hyperbolic plane: e1 has square 1 but its complement is
    # alternating, forcing the basis-repair path
    A = from_int_rows(GF(2), [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    res = diagonalize_symmetric(A)
    D = res.normal_form
    assert res.transform.transpose() @ A @ res.transform == D
    K = GF(2)
    assert all(K.is_zero(D.rows[i][j]) for i in range(3) for j in range(3) if i != j)
    assert all(D.rows[i][i] == 1 for i in range(3))


def _outcome(diagonalize, A):
    """(transform, normal form), or the error a diagonalization raises."""
    try:
        res = diagonalize(A)
    except ValueError as exc:
        return "ValueError", str(exc)
    return res.transform, res.normal_form


def _symmetric_cases(K, m, rng):
    """A random symmetric matrix, one with a zero diagonal (alternating in
    characteristic 2, a pair step elsewhere), and P' (diag(1, d) + H + 0) P
    for hyperbolic planes H and a random P: in characteristic 2 the
    complement of the first vector turns alternating."""
    yield rand_symmetric(K, m, rng)
    A = rand_symmetric(K, m, rng)
    yield A - Mat.diag(K, A.diagonal())
    B = [[K.zero()] * m for _ in range(m)]
    B[0][0] = K.one()
    at = 1
    if m > 3:
        B[1][1], at = K.random(rng), 2
    while at + 2 <= m:
        B[at][at + 1] = B[at + 1][at] = K.one()
        at += 2
    P = Mat(K, [[K.random(rng) for _ in range(m)] for _ in range(m)])
    yield P.transpose() @ Mat(K, B) @ P


@pytest.mark.parametrize("K", [GF(2), GF(3), GF(5), GF(3, 2), GF(5, 2), QQ],
                         ids=lambda K: K.token)
def test_diagonalize_matches_the_scalar_reference(K):
    # same transform and normal form, or the same error, as the one-vector-
    # at-a-time diagonalization
    rng = random.Random(15)
    for m in range(1, 7):
        for _ in range(8):
            for A in _symmetric_cases(K, m, rng):
                assert _outcome(diagonalize_symmetric, A) == _outcome(diagonalize_by_scalars, A)
    not_symmetric = Mat.unit(K, 2, 2, 0, 1)
    assert _outcome(diagonalize_symmetric, not_symmetric) == (
        "ValueError", "diagonalization needs a symmetric form")


def test_discriminant_examples():
    assert discriminant_is_square(classify(Mat.diag(GF(5), [1, 2, 3, 4])))
    assert discriminant_is_square(classify(Mat.identity(QQ, 4)))
    assert not discriminant_is_square(classify(Mat.diag(GF(3), [1, 2])))


def test_discriminant_congruence_invariant():
    rng = random.Random(13)
    K = GF(7)
    for _ in range(40):
        A = rand_symmetric(K, 4, rng)
        if K.is_zero(A.det()):
            continue
        S = Mat(K, [[K.random(rng) for _ in range(4)] for _ in range(4)])
        if K.is_zero(S.det()):
            continue
        B = S.transpose() @ A @ S
        assert discriminant_is_square(classify(A)) == discriminant_is_square(classify(B))


def test_alternating_iff_skew_zero_diag_odd_char():
    rng = random.Random(14)
    K = GF(5)
    for _ in range(40):
        A = rand_alternating(K, 4, rng)
        f = classify(A)
        assert f.alternating == (A.transpose() == -A)
