"""Classical algebras inside gl(m): construction, derived series, quotients."""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import pytest

from lieclassical.fields import GF, QQ
from lieclassical.forms import standard_symplectic_gram
from lieclassical.liealg import (
    bracket,
    bracket_rows,
    derived_series,
    gl_subspace,
    heisenberg,
    is_bracket_closed,
    is_simple,
    lie_isomorphic_by_structure,
    quotient_algebra,
    scalars_subspace,
    self_adjoint_module,
    skew_adjoint_algebra,
    sl_subspace,
    trace_gram,
    trace_orthogonal_complement,
)
from lieclassical.linalg import Mat, Subspace, kernel
from scalar_reference import (
    adjoint_star,
    check_jacobi,
    from_int_rows,
    op_matrix,
    span_rows,
    table_bracket,
    unvec,
)


def test_bracket_sl2():
    e = Mat.unit(QQ, 2, 2, 0, 1)
    f = Mat.unit(QQ, 2, 2, 1, 0)
    h = Mat.diag(QQ, [Fraction(1), Fraction(-1)])
    assert bracket(e, f) == h
    assert bracket(h, e) == e.scale(Fraction(2))


def test_skew_adjoint_symplectic_dims():
    for K in (QQ, GF(3), GF(5)):
        for m in (2, 4, 6):
            J = standard_symplectic_gram(K, m)
            L = skew_adjoint_algebra(J)
            assert L.dim == m * (m + 1) // 2
            assert is_bracket_closed(L)
            M = self_adjoint_module(J)
            assert M.dim == m * (m - 1) // 2


def test_skew_adjoint_orthogonal_dims():
    L = skew_adjoint_algebra(Mat.identity(GF(7), 3))
    assert L.dim == 3
    assert is_bracket_closed(L)


def test_char2_l_equals_m():
    J = standard_symplectic_gram(GF(2), 4)
    L = skew_adjoint_algebra(J)
    assert L == self_adjoint_module(J)


def test_derived_series_orthogonal_gf2():
    L = skew_adjoint_algebra(Mat.identity(GF(2), 2))
    assert [a.dim for a in derived_series(L)] == [3, 1, 0]


def test_derived_series_symplectic_gf2_m4():
    J = standard_symplectic_gram(GF(2), 4)
    L = skew_adjoint_algebra(J)
    assert [a.dim for a in derived_series(L)] == [10, 6, 5, 1, 0]


def test_trace_complement_of_scalars_is_sl():
    for K in (QQ, GF(5)):
        m = 3
        perp = trace_orthogonal_complement(scalars_subspace(K, m), gl_subspace(K, m))
        assert perp == sl_subspace(K, m)


@pytest.mark.parametrize("K", [GF(5), GF(3, 2), QQ], ids=lambda K: K.token)
@pytest.mark.parametrize("rows", [0, 1, 4])
def test_trace_gram_is_the_trace_of_each_product(K, rows):
    # entry (i, j) is tr(x_i y_j) for the rows vec(x_i) of X and vec(y_j) of Y
    rng, m = random.Random(rows), 3
    X = Mat(K, [[K.random(rng) for _ in range(m * m)] for _ in range(rows)]) if rows \
        else Mat.zeros(K, 0, m * m)
    Y = Mat(K, [[K.random(rng) for _ in range(m * m)] for _ in range(5)])
    G = trace_gram(X, Y)
    assert (G.nrows, G.ncols) == (rows, 5)
    for i in range(rows):
        for j in range(5):
            x, y = X[[i], :].reshape(m, m), Y[[j], :].reshape(m, m)
            assert G.rows[i][j] == (x @ y).trace()


def test_adjoint_star_involution_and_antihomomorphism():
    rng = random.Random(21)
    K = GF(7)
    J = standard_symplectic_gram(K, 4)
    for _ in range(20):
        X = Mat(K, [[K.random(rng) for _ in range(4)] for _ in range(4)])
        Y = Mat(K, [[K.random(rng) for _ in range(4)] for _ in range(4)])
        assert adjoint_star(adjoint_star(X, J), J) == X
        assert adjoint_star(X @ Y, J) == adjoint_star(Y, J) @ adjoint_star(X, J)


def test_gl_splits_into_l_plus_m_odd_char():
    K = GF(5)
    J = standard_symplectic_gram(K, 4)
    L = skew_adjoint_algebra(J)
    M = self_adjoint_module(J)
    assert (L + M).dim == 16
    assert L.intersect(M).dim == 0


def test_l_m_bracket_rules():
    # [L, M] lies in M and [M, M] lies in L
    rng = random.Random(22)
    K = GF(7)
    J = standard_symplectic_gram(K, 4)
    L = skew_adjoint_algebra(J)
    M = self_adjoint_module(J)
    lmats = L.matrices(4, 4)
    mmats = M.matrices(4, 4)
    for _ in range(30):
        x = rng.choice(lmats)
        y, y2 = rng.choice(mmats), rng.choice(mmats)
        assert M.residuals(bracket(x, y).reshape(1, 16)).is_zero()
        assert L.residuals(bracket(y, y2).reshape(1, 16)).is_zero()


def test_heisenberg_structure():
    h = heisenberg(QQ, 2)
    assert h.dim == 5
    assert (h.table.nrows, h.table.ncols) == (25, 5)
    assert check_jacobi(h)
    unit = Mat.identity(QQ, 5)
    u1, v1 = unit[0:1, :], unit[2:3, :]
    z = table_bracket(h, u1, v1)
    assert z == unit[4:5, :]
    assert table_bracket(h, v1, u1) == -z
    # z is central
    for i in range(5):
        assert table_bracket(h, z, unit[i : i + 1, :]).is_zero()


def _random_mat(K, m, rng):
    return Mat(K, [[K.random(rng) for _ in range(m)] for _ in range(m)])


def _vec_rows(K, m, mats):
    """The rows vec(x) of the m x m matrices mats, none for an empty list."""
    if not mats:
        return Mat.zeros(K, 0, m * m)
    return Mat.from_blocks([[x.reshape(1, m * m)] for x in mats])


@pytest.mark.parametrize("K", [GF(2), GF(5), GF(3, 2), QQ], ids=repr)
def test_bracket_rows_match_pairwise_brackets(K):
    rng = random.Random(11)
    for m, a, b in [(1, 1, 1), (2, 3, 2), (3, 2, 4), (4, 5, 3), (3, 0, 2), (3, 2, 0),
                    (2, 0, 0)]:
        xs = [_random_mat(K, m, rng) for _ in range(a)]
        ys = [_random_mat(K, m, rng) for _ in range(b)]
        rows = bracket_rows(_vec_rows(K, m, xs), _vec_rows(K, m, ys))
        assert (rows.field, rows.nrows, rows.ncols) == (K, a * b, m * m)
        assert rows.rows == [bracket(x, y).vec() for x in xs for y in ys]


@pytest.mark.parametrize("K", [GF(2), GF(5), GF(3, 2), QQ], ids=repr)
def test_adjoint_spaces_match_their_defining_conditions(K):
    # L(A) = {X : X'A + AX = 0} and M(A) = {Y : Y'A - AY = 0} as kernels of
    # the conditions applied to each unit matrix
    rng = random.Random(12)
    for m in range(1, 5):
        for A in (_random_mat(K, m, rng), Mat.identity(K, m)):
            def condition(sign):
                def fn(v):
                    X = unvec(K, v, m, m)
                    return (X.transpose() @ A + (A @ X).scale(K.of(sign))).vec()
                return kernel(op_matrix(K, m * m, m * m, fn))
            assert skew_adjoint_algebra(A) == condition(1)
            assert self_adjoint_module(A) == condition(-1)


def test_quotient_gl2_by_scalars():
    K = GF(5)
    L = gl_subspace(K, 2)
    Q, reps = quotient_algebra(L, scalars_subspace(K, 2))
    assert Q.dim == 3
    assert check_jacobi(Q)


def _assert_table_defines_brackets(ideal, Q, reps):
    """[r_i, r_j] - sum_k T[i q + j, k] r_k lies in the ideal for all i, j,
    the r_i read off the rows vec(r_i) of reps."""
    q, T, m = Q.dim, Q.table.rows, math.isqrt(reps.ncols)
    reps = [reps[[i], :].reshape(m, m) for i in range(reps.nrows)]
    for i in range(q):
        for j in range(q):
            rest = bracket(reps[i], reps[j])
            for k in range(q):
                rest = rest - reps[k].scale(T[i * q + j][k])
            assert ideal.residuals(rest.reshape(1, ideal.ambient)).is_zero(), (i, j)


@pytest.mark.parametrize("K", [GF(5), GF(3, 2), QQ], ids=lambda K: K.token)
def test_quotient_table_on_default_and_shifted_representatives(K):
    # gl(3)/s: representatives that differ by scalars are the same cosets,
    # so they give the same table
    L, s = gl_subspace(K, 3), scalars_subspace(K, 3)
    Q, reps = quotient_algebra(L, s)
    assert Q.dim == 8 and (Q.table.nrows, Q.table.ncols) == (64, 8)
    _assert_table_defines_brackets(s, Q, reps)
    rng = random.Random(23)
    eye = Mat.identity(K, 3)
    shifted = reps + Mat.from_blocks([[eye.scale(K.random(rng)).reshape(1, 9)]
                                      for _ in range(reps.nrows)])
    Q2, reps2 = quotient_algebra(L, s, reps=shifted)
    assert reps2 == shifted and reps2 != reps
    _assert_table_defines_brackets(s, Q2, reps2)
    assert Q2.table == Q.table


@pytest.mark.parametrize("K", [GF(5), GF(3, 2), QQ], ids=lambda K: K.token)
def test_quotient_by_the_whole_algebra_is_zero(K):
    L = sl_subspace(K, 2)
    Q, reps = quotient_algebra(L, L)
    assert Q.dim == 0 and (reps.nrows, reps.ncols) == (0, 4)
    assert (Q.table.nrows, Q.table.ncols) == (0, 0)
    assert not is_simple(Q)


def test_quotient_rejects_non_ideal():
    K = QQ
    L = gl_subspace(K, 2)
    not_ideal = span_rows(K, 4, [Mat.unit(K, 2, 2, 0, 1).vec()])
    with pytest.raises(ValueError):
        quotient_algebra(L, not_ideal)


def test_quotient_rejects_dependent_representatives():
    K = GF(5)
    L = gl_subspace(K, 2)
    e, f = Mat.unit(K, 2, 2, 0, 1), Mat.unit(K, 2, 2, 1, 0)
    # e + scalar and e are one coset modulo the scalars
    with pytest.raises(ValueError, match="representatives are dependent modulo the ideal"):
        quotient_algebra(L, scalars_subspace(K, 2),
                         reps=_vec_rows(K, 2, [e, e + Mat.identity(K, 2), f]))


def test_quotient_rejects_an_ideal_outside_the_algebra():
    K = GF(3)
    L = sl_subspace(K, 2)
    with pytest.raises(ValueError, match="ideal is not contained in the algebra"):
        quotient_algebra(L, scalars_subspace(K, 2))


def test_quotient_rejects_a_bracket_outside_the_algebra():
    # span(e, f) is no subalgebra: [e, f] = h leaves it
    K = QQ
    e, f = Mat.unit(K, 2, 2, 0, 1), Mat.unit(K, 2, 2, 1, 0)
    L = span_rows(K, 4, [e.vec(), f.vec()])
    with pytest.raises(ValueError, match="vector not in subspace"):
        quotient_algebra(L, Subspace.zero(K, 4))


def _nonzero_constants(Q):
    """(i, j, k) for every nonzero coefficient of e_k in [e_i, e_j], the
    entry of the table in row i * dim + j and column k."""
    return [(r // Q.dim, r % Q.dim, k) for r, row in enumerate(Q.table.rows)
            for k, c in enumerate(row) if not Q.field.is_zero(c)]


def _lift_block(K, n, piece, where):
    """piece on the diagonal blocks, or in the upper or lower corner."""
    Z = Mat.zeros(K, n, n)
    blocks = {"diag": [[piece, Z], [Z, piece]], "upper": [[Z, piece], [Z, Z]],
              "lower": [[Z, Z], [piece, Z]]}
    return Mat.from_blocks(blocks[where])


def _symplectic_gf2(m):
    K = GF(2)
    L = skew_adjoint_algebra(standard_symplectic_gram(K, m))
    return K, L, derived_series(L)[2]


@pytest.mark.parametrize("m, expect", [
    (4, [(0, 2, 4), (1, 3, 4), (2, 0, 4), (3, 1, 4)]),
    (6, [(0, 3, 6), (1, 4, 6), (2, 5, 6), (3, 0, 6), (4, 1, 6), (5, 2, 6)]),
])
def test_quotient_by_second_derived_is_heisenberg_table(m, expect):
    # L/L^(2) on the representatives of Thm 1.1(6): [b_i, c_i] = [c_i, b_i] = a
    # in characteristic 2 (recorded from the scalar membership tests)
    K, L, L2 = _symplectic_gf2(m)
    n = m // 2
    a = _lift_block(K, n, Mat.unit(K, n, n, 0, 0), "diag")
    bs = [_lift_block(K, n, Mat.unit(K, n, n, i, i), "upper") for i in range(n)]
    cs = [_lift_block(K, n, Mat.unit(K, n, n, i, i), "lower") for i in range(n)]
    Q, _ = quotient_algebra(L, L2, reps=_vec_rows(K, m, bs + cs + [a]))
    assert Q.dim == m + 1
    assert _nonzero_constants(Q) == expect


def test_quotient_of_second_derived_by_scalars_is_unchanged():
    # L^(2)/s for m = 8 over GF(2): the table and the chosen representatives,
    # as digests recorded from the scalar membership tests
    K, _, L2 = _symplectic_gf2(8)
    Q, reps = quotient_algebra(L2, scalars_subspace(K, 8))
    nonzero = _nonzero_constants(Q)
    assert Q.dim == 26 and len(nonzero) == 288
    assert hashlib.sha256(repr(nonzero).encode()).hexdigest() == (
        "d4e5f70e9ee3c02f2e7f5ffed476ac7c2c42f1405699aedfeecc1e90463a593d")
    assert hashlib.sha256(repr([list(r) for r in reps.rows]).encode()).hexdigest() == (
        "ff64b507e4e94a21dc038d1d21a8da5605f277460889c0f71093777eae2a9180")


def _brackets_preserved_pairwise(Q, H, M):
    """Reference: M [e_i, e_j] against [M e_i, M e_j], one pair at a time."""
    q, images = Q.dim, M.transpose()
    return all((M @ Q.table[i * q + j : i * q + j + 1, :].transpose()).transpose()
               == table_bracket(H, images[i : i + 1, :], images[j : j + 1, :])
               for i in range(q) for j in range(q))


@pytest.mark.parametrize("K", [GF(5), GF(3, 2), QQ], ids=lambda K: K.token)
def test_structure_isomorphism_matches_pairwise_check(K):
    # on h(2) = <u1, u2, v1, v2, z>, u_i -> a u_i, v_i -> b v_i, z -> a b z
    # is an automorphism, and so is it followed by u1 -> u1 + c z
    rng = random.Random(17)
    h = heisenberg(K, 2)
    checked = set()
    for _ in range(8):
        a, b, c = (K.random(rng) for _ in range(3))
        if K.is_zero(a) or K.is_zero(b):
            continue
        auto = Mat.diag(K, [a, a, b, b, K.mul(a, b)]) + Mat.unit(K, 5, 5, 4, 0).scale(c)
        other = Mat(K, [[K.random(rng) for _ in range(5)] for _ in range(5)])
        for M in (auto, other, auto + Mat.unit(K, 5, 5, 0, 2).scale(a)):
            if not K.is_zero(M.det()):
                verdict = lie_isomorphic_by_structure(h, h, M)
                assert verdict == _brackets_preserved_pairwise(h, h, M)
                checked.add(verdict)
    assert checked == {True, False}


def test_structure_isomorphism_identity():
    h = heisenberg(GF(3), 1)
    eye = Mat.identity(GF(3), 3)
    assert lie_isomorphic_by_structure(h, h, eye)
    bad = from_int_rows(GF(3), [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    # swapping u and v flips the sign of [u, v], so this is not a morphism
    assert not lie_isomorphic_by_structure(h, h, bad)
