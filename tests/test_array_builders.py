"""The array-built structured matrices against their scalar construction.

Each builder in `linalg`, `liealg` and `repmod` that makes a structured
matrix straight from arrays is compared, over GF(2), GF(3), GF(9), GF(25)
and Q for m = 2..5, with the entry-by-entry construction it replaced
(`scalar_reference.py`): identity, unit and diagonal matrices, the text
format, the sym/alt split, Gamma, Omega and Delta of the tensor square, the
tensor action, the ad stack and the conjugation modules.  The module
operations that work on a module's whole stack are compared with their
per-generator construction: Hom spaces from one Kronecker-sum stack, the
reduction of a rational module mod p and the Heisenberg polynomial modules.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from lieclassical.fields import GF, QQ
from lieclassical.forms import classify, standard_symplectic_gram
from lieclassical.liealg import ad_gl, ad_stack, gl_subspace, skew_adjoint_algebra, sl_subspace
from lieclassical.linalg import Mat, kron, kron_sum_stack
from lieclassical.repmod import (
    LieModule,
    adjoint_module,
    conjugation_modules,
    dual_module,
    heisenberg_poly_module,
    heisenberg_poly_module_on_basis,
    hom_space,
    reduce_module_mod_p,
    sym_alt_subspaces,
    tensor_square,
)
from scalar_reference import (
    ad_by_kron,
    cleared_by_scalars,
    delta_by_scalars,
    diag_by_scalars,
    gamma_by_scalars,
    heisenberg_mats_by_scalars,
    hom_space_by_kron,
    identity_by_scalars,
    omega_by_scalars,
    stacked,
    sym_alt_by_scalars,
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
    if not r:
        return Mat.zeros(K, 0, c)
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
        ts = tensor_square(form)
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
        assert module.action_mats() == [ad_by_kron(x) for x in L.matrices(m, m)]


@pytest.mark.parametrize("K_m", GRID, ids=map(_ids, GRID))
def test_conjugation_modules_against_kron(K_m):
    K, n = K_m
    eye = identity_by_scalars(K, n)
    Z, A = conjugation_modules(n, K)
    units = [unit_by_scalars(K, n, n, i, j) for i in range(n) for j in range(n)]
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


@pytest.mark.parametrize("K", FIELDS, ids=[K.token for K in FIELDS])
def test_kron_sum_stack_of_different_sizes_against_kron(K):
    rng = random.Random(40)
    for a, b in ((2, 3), (3, 1), (1, 2), (0, 2), (2, 0)):
        for g in (0, 1, 3):
            X, Y = _random_mat(K, g, a * a, rng), _random_mat(K, g, b * b, rng)
            for sign in (1, -1):
                blocks = [kron(x.reshape(a, a), identity_by_scalars(K, b))
                          + kron(identity_by_scalars(K, a), y.reshape(b, b)).scale(K.of(sign))
                          for x, y in ((X[[i], :], Y[[i], :]) for i in range(g))]
                assert kron_sum_stack(X, Y, sign) == stacked(K, a * b, blocks)


def _random_module(K, g, n, rng):
    return LieModule(K, g, _random_mat(K, g * n, n, rng))


def _direct_sum(M):
    """M + M, block diagonal generator by generator."""
    z = Mat.zeros(M.field, M.dim, M.dim)
    return LieModule(M.field, M.count, stacked(M.field, 2 * M.dim, [
        Mat.from_blocks([[a, z], [z, a]]) for a in M.action_mats()]))


@pytest.mark.parametrize("K", FIELDS, ids=[K.token for K in FIELDS])
def test_hom_space_against_per_generator_kron(K):
    rng = random.Random(41)
    for g in (0, 1, 2, 3):
        for n1, n2 in ((2, 3), (3, 2), (0, 2), (2, 0), (0, 0), (1, 1), (3, 3)):
            M1, M2 = _random_module(K, g, n1, rng), _random_module(K, g, n2, rng)
            pairs = [(M1, M2), (M1, M1), (M1, _direct_sum(M1)), (_direct_sum(M1), M1),
                     (M1, dual_module(M1)), (LieModule(K, g, Mat.zeros(K, g * n1, n1)), M2)]
            for A, B in pairs:
                H = hom_space(A, B)
                assert H == hom_space_by_kron(A, B)
                assert H.ambient == A.dim * B.dim
    # the sl(2) and gl(2) modules of the ad action, whose Hom spaces are not 0
    for L in (sl_subspace(K, 2), gl_subspace(K, 2)):
        M = adjoint_module(L, gl_subspace(K, 2))
        assert hom_space(M, M) == hom_space_by_kron(M, M)
        assert hom_space(M, M).dim >= 1


def test_reduce_module_mod_p_clears_each_generator():
    big = 2**70 + 3
    q = [[Fraction(1, 10), Fraction(2, 3)], [Fraction(0), Fraction(7, 5)]]  # 5 | 30
    integral = [[Fraction(2), Fraction(4)], [Fraction(-6), Fraction(0)]]
    huge = [[Fraction(big, 3), Fraction(1)], [Fraction(big), Fraction(-big, 9)]]
    tiny = [[Fraction(1, 2**70), Fraction(0)], [Fraction(0), Fraction(1, 7)]]
    zero = [[Fraction(0)] * 2] * 2
    mats = [Mat(QQ, rows) for rows in (q, integral, huge, tiny, zero)]
    M = LieModule(QQ, len(mats), stacked(QQ, 2, mats))
    assert M.stack.a.dtype == object
    for p in (2, 3, 5, 7, 11):
        R = reduce_module_mod_p(M, p)
        assert (R.field, R.count, R.dim) == (GF(p), M.count, M.dim)
        assert R.action_mats() == [cleared_by_scalars(A, p) for A in mats]
    # int64 numerators with their own denominators, and one generator alone
    small = LieModule(QQ, 2, stacked(QQ, 2, mats[:2]))
    assert small.stack.a.dtype == np.int64
    assert reduce_module_mod_p(small, 5).action_mats() == [cleared_by_scalars(A, 5)
                                                          for A in mats[:2]]


HEISENBERG_FIELDS = [GF(2), GF(3), GF(5), GF(3, 2)]


@pytest.mark.parametrize("K", HEISENBERG_FIELDS, ids=[K.token for K in HEISENBERG_FIELDS])
def test_heisenberg_module_against_scalar_builder(K):
    nonzero = [x for x in K.elements() if not K.is_zero(x)]
    for n in (1, 2):
        monomials = list(itertools.product(range(K.char), repeat=n))
        for alpha in nonzero[:3]:  # 1 and, past GF(2), an alpha != 1
            want = heisenberg_mats_by_scalars(K, n, alpha, monomials)
            M = heisenberg_poly_module(K, n, alpha)
            assert (M.count, M.dim) == (2 * n + 1, K.char**n)
            assert M.action_mats() == want
            shuffled = monomials[::-1]
            assert (heisenberg_poly_module_on_basis(K, n, alpha, shuffled).action_mats()
                    == heisenberg_mats_by_scalars(K, n, alpha, shuffled))
    # Prop 12.2's order of the monomials of h(2) in characteristic 2
    if K.char == 2:
        order = [(0, 1), (0, 0), (1, 0), (1, 1)]
        assert (heisenberg_poly_module_on_basis(K, 2, K.one(), order).action_mats()
                == heisenberg_mats_by_scalars(K, 2, K.one(), order))
