"""The array-built structured matrices against their scalar construction.

Each builder in `linalg`, `liealg` and `repmod` that makes a structured
matrix straight from arrays is compared, over GF(2), GF(3), GF(9), GF(25)
and Q for m = 2..5, with the entry-by-entry construction it replaced
(`scalar_reference.py`): identity, unit and diagonal matrices, the text
format, the sym/alt split, Gamma, Omega and Delta of the tensor square, the
tensor action, the ad stack and the conjugation modules.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from lieclassical.fields import GF, QQ
from lieclassical.forms import classify, standard_symplectic_gram
from lieclassical.liealg import ad_gl, ad_stack, gl_subspace, skew_adjoint_algebra
from lieclassical.linalg import Mat, kron
from lieclassical.repmod import (
    adjoint_module,
    conjugation_modules,
    sym_alt_subspaces,
    tensor_square,
)
from scalar_reference import (
    ad_by_kron,
    delta_by_scalars,
    diag_by_scalars,
    gamma_by_scalars,
    identity_by_scalars,
    omega_by_scalars,
    sym_alt_by_scalars,
    tensor_action_by_kron,
    to_text_by_scalars,
    unit_by_scalars,
)

FIELDS = [GF(2), GF(3), GF(3, 2), GF(5, 2), QQ]
SIZES = [2, 3, 4, 5]
GRID = [(K, m) for K in FIELDS for m in SIZES]


def _ids(K_m):
    K, m = K_m
    return f"{K.token}-m{m}"


def _random_mat(K, r, c, rng):
    return Mat(K, [[K.random(rng) for _ in range(c)] for _ in range(r)])


def _random_invertible(K, m, rng):
    while True:
        A = _random_mat(K, m, m, rng)
        if not K.is_zero(A.det()):
            return A


@pytest.mark.parametrize("K_m", GRID, ids=map(_ids, GRID))
def test_identity_unit_diag(K_m):
    K, m = K_m
    rng = random.Random(m)
    assert Mat.identity(K, m) == identity_by_scalars(K, m)
    assert Mat.zeros(K, m, m + 1) == Mat(K, [[K.zero()] * (m + 1)] * m)
    for i in range(m):
        for j in range(m + 1):
            assert Mat.unit(K, m, m + 1, i, j) == unit_by_scalars(K, m, m + 1, i, j)
    for _ in range(5):
        entries = [K.random(rng) if rng.random() < 0.7 else K.zero() for _ in range(m)]
        assert Mat.diag(K, entries) == diag_by_scalars(K, entries)
    assert Mat.diag(K, [K.zero()] * m) == Mat.zeros(K, m, m)
    assert Mat.diag(K, []) == Mat.zeros(K, 0, 0)


def test_integer_lift_reduces_and_pairs():
    a = np.array([[-1, 0, 7], [12, -9, 2]], dtype=np.int64)
    for K in FIELDS:
        assert Mat.from_ints(K, a) == Mat(K, [[K.of(x) for x in r] for r in a.tolist()])


@pytest.mark.parametrize("K_m", GRID, ids=map(_ids, GRID))
def test_to_text_matches_scalar_format(K_m):
    K, m = K_m
    rng = random.Random(10 + m)
    for M in (_random_mat(K, m, m + 1, rng), -_random_mat(K, m, m, rng),
              Mat.zeros(K, m, m), Mat.identity(K, m), Mat.zeros(K, 0, m), Mat.zeros(K, m, 0),
              Mat(K, [])):
        text = M.to_text()
        assert text == to_text_by_scalars(M)
        if M.nrows and M.ncols:
            assert Mat.from_text(text) == M


@pytest.mark.parametrize(
    "rows",
    [
        [[Fraction(1, 2), Fraction(-3, 4)], [Fraction(0), Fraction(5)]],
        [[Fraction(-7, 6), Fraction(2, 3), Fraction(-1, 2)]],
        [[Fraction(2**70, 3), Fraction(-(2**64) - 1, 2)], [Fraction(0), Fraction(1, 6)]],
        [[Fraction(1, 2**64), Fraction(-3, 2**64)], [Fraction(0), Fraction(7, 2**64)]],
        [[Fraction(-(2**63))], [Fraction(2**63, 5)]],
    ],
)
def test_to_text_over_q_denominators_and_large_entries(rows):
    M = Mat(QQ, rows)
    text = M.to_text()
    assert text == to_text_by_scalars(M)
    assert Mat.from_text(text) == M


def test_to_text_keeps_huge_numerators_on_object_arrays():
    M = Mat(QQ, [[Fraction(2**80 + 1, 3), Fraction(-(2**90), 9)]])
    assert M.a.dtype == object
    assert M.to_text() == to_text_by_scalars(M) == f"1 2 Q\n{2**80 + 1}/3 -{2**90}/9\n"


@pytest.mark.parametrize("K_m", GRID, ids=map(_ids, GRID))
def test_sym_alt_subspaces(K_m):
    K, m = K_m
    assert sym_alt_subspaces(m, K) == sym_alt_by_scalars(m, K)


def _forms(K, m, rng):
    """Non-symmetric invertible Gram matrices, and over GF(2) for even m a
    random alternating one P'JP."""
    forms = [_random_invertible(K, m, rng) for _ in range(2)]
    if K.char == 2 and m % 2 == 0:
        P = _random_invertible(K, m, rng)
        forms.append(P.transpose() @ standard_symplectic_gram(K, m) @ P)
    return forms


@pytest.mark.parametrize("K_m", GRID, ids=map(_ids, GRID))
def test_tensor_square_maps(K_m):
    K, m = K_m
    rng = random.Random(20 + m)
    saw_nonsymmetric = False
    for A in _forms(K, m, rng):
        form = classify(A)
        L = skew_adjoint_algebra(A)
        ts = tensor_square(form, L)
        gamma = gamma_by_scalars(A)
        assert ts.gamma == gamma
        if not form.symmetric:
            # T -> T'A and T -> (T'A)' differ, so a transposed Gamma fails
            assert ts.gamma.transpose() != gamma
            saw_nonsymmetric = True
        assert ts.omega == omega_by_scalars(A)
        if K.char == 2 and form.alternating:
            assert ts.delta == delta_by_scalars(A)
            assert not ts.delta.is_zero()
        else:
            assert ts.delta is None
        assert ts.module.action_mats() == [tensor_action_by_kron(x) for x in L.basis_mats()]
    assert saw_nonsymmetric


@pytest.mark.parametrize("K_m", GRID, ids=map(_ids, GRID))
def test_ad_stack_against_kron(K_m):
    K, m = K_m
    rng = random.Random(30 + m)
    X = _random_mat(K, 3, m * m, rng)
    mats = [X[i : i + 1, :].reshape(m, m) for i in range(3)]
    ads = [ad_by_kron(x) for x in mats]
    assert [ad_gl(x) for x in mats] == ads
    assert ad_stack(X) == Mat.from_blocks([[a] for a in ads])
    assert ad_stack(X[:0, :]) == Mat.zeros(K, 0, m * m)
    for A in _forms(K, m, rng):
        L = skew_adjoint_algebra(A)
        module = adjoint_module(L, gl_subspace(K, m))
        assert module.action_mats() == [ad_by_kron(x) for x in L.basis_mats()]


@pytest.mark.parametrize("K_m", GRID, ids=map(_ids, GRID))
def test_conjugation_modules_against_kron(K_m):
    K, n = K_m
    eye = identity_by_scalars(K, n)
    Z, A = conjugation_modules(n, K)
    units = [unit_by_scalars(K, n, n, i, j) for i in range(n) for j in range(n)]
    assert Z.labels() == A.labels() == [f"a{i}{j}" for i in range(n) for j in range(n)]
    assert Z.action_mats() == [kron(a, eye) + kron(eye, a) for a in units]
    assert A.action_mats() == [-kron(a.transpose(), eye) - kron(eye, a.transpose()) for a in units]


def test_ad_stack_over_q_with_large_numerators():
    # every numerator fits int64 but x_00 - x_11 = 2 big does not: the stack
    # must switch to Python ints rather than wrap
    big = 2**62 + 1
    x = Mat(QQ, [[Fraction(big), Fraction(1)], [Fraction(2), Fraction(-big)]])
    assert x.a.dtype == np.int64
    assert ad_gl(x) == ad_by_kron(x)
    assert ad_gl(x).rows[1][1] == 2 * big
