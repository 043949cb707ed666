"""Exact linear algebra: RREF, kernels, Kronecker products, subspaces."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy import GF as SYMPY_GF, QQ as SYMPY_QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

from lieclassical.fields import GF, QQ
from lieclassical.linalg import (
    BLAS_MIN_MULADDS,
    Echelon,
    EchelonGFp,
    Mat,
    Subspace,
    charpoly,
    distinct_degree_parts,
    _chunking,
    _lazy_cap,
    _reduce,
    _times,
    echelon,
    gfp2_matmul,
    gfp_matmul,
    irreducible_factor,
    kernel,
    kron,
    matvec,
    null_spaces,
    poly_at,
    rref,
)
from charpoly_reference import charpoly_by_scalars
from echelon_reference import ScalarEchelon
from scalar_reference import from_int_rows, op_matrix, span_rows, stacked, unvec


def rand_mat(K, r, c, rng):
    return Mat(K, [[K.random(rng) for _ in range(c)] for _ in range(r)])


def test_rref_proportional_rows():
    M = from_int_rows(QQ, [[1, 2], [2, 4]])
    red, rank, pivots = rref(M)
    assert rank == 1
    assert pivots == (0,)
    assert red.rows[0] == [Fraction(1), Fraction(2)]


def test_rref_identity_gf5():
    red, rank, pivots = rref(Mat.identity(GF(5), 3))
    assert rank == 3 and pivots == (0, 1, 2)


def test_rref_permutation_gf2():
    M = from_int_rows(GF(2), [[0, 1], [1, 0]])
    red, rank, _ = rref(M)
    assert rank == 2
    assert red == Mat.identity(GF(2), 2)


def test_rref_idempotent_and_canonical():
    rng = random.Random(1)
    for K in (QQ, GF(2), GF(5), GF(3, 2)):
        for _ in range(30):
            M = rand_mat(K, 4, 5, rng)
            red, rank, _ = rref(M)
            red2, rank2, _ = rref(red)
            assert red2 == red and rank2 == rank
            # row-equivalent input gives the identical RREF
            perm = Mat(K, [M.rows[i] for i in (2, 0, 3, 1)])
            assert rref(perm)[0] == red


def test_rank_nullity():
    rng = random.Random(2)
    for K in (QQ, GF(3), GF(5, 2)):
        for _ in range(30):
            M = rand_mat(K, 3, 6, rng)
            _, rank, _ = rref(M)
            ker = kernel(M)
            assert rank + ker.dim == 6
            for v in ker.basis.rows:
                assert all(K.is_zero(a) for a in matvec(M, v))


def test_kernel_parity_gf2():
    ker = kernel(from_int_rows(GF(2), [[1, 1]]))
    assert ker.basis.rows == [[1, 1]]


def test_kernel_identity_is_zero():
    assert kernel(Mat.identity(QQ, 2)).dim == 0


def _old_kernel(M):
    """The right kernel by the previous path: eliminate M, then eliminate the
    vectors e_f - sum_i R[i][f] e_(pivot i) once more."""
    R = Subspace.span(M)
    free = R.nonpivots()
    rows = []
    for f in free:
        v = [M.field.zero()] * M.ncols
        v[f] = M.field.one()
        for i, piv in enumerate(R.pivots):
            v[piv] = M.field.neg(R.basis.rows[i][f])
        rows.append(v)
    return span_rows(M.field, M.ncols, rows)


def _sparse_mat(K, r, c, rng):
    """A random r x c matrix with random zero columns, so pivots skip columns."""
    zero = {j for j in range(c) if rng.random() < 0.3}
    return Mat(K, [[K.zero() if j in zero else K.random(rng) for j in range(c)] for _ in range(r)])


@pytest.mark.parametrize("K", [GF(2), GF(5), GF(3, 2), QQ], ids=lambda K: K.token)
def test_kernels_from_reversed_columns_match_two_eliminations(K):
    # one elimination of M with its columns reversed gives the canonical kernel
    rng = random.Random(11)
    shapes = [(r, c) for r in (1, 3, 5) for c in (1, 4, 6)]
    for r, c in shapes * 4:
        M = _sparse_mat(K, r, c, rng)
        right, left = null_spaces(M)
        assert kernel(M) == right == _old_kernel(M)
        assert left == _old_kernel(M.transpose())
    assert kernel(Mat.zeros(K, 2, 3)) == Subspace.full(K, 3)
    assert null_spaces(Mat.identity(K, 3)) == (Subspace.zero(K, 3), Subspace.zero(K, 3))


def _subspaces(K, n, rng):
    """The zero and full subspaces of F^n and random ones between them."""
    yield Subspace.zero(K, n)
    yield Subspace.full(K, n)
    for k in [k for k in (1, 2, n - 1, n) if k]:
        yield Subspace.span(_sparse_mat(K, k, n, rng))


@pytest.mark.parametrize("K", [GF(2), GF(5), GF(3, 2), QQ], ids=lambda K: K.token)
def test_subspaces_built_from_known_rref_match_span(K):
    # the image of a canonical C in U's coordinates, and V in U's coordinates,
    # are already canonical: both equal Subspace.span of the same rows
    rng = random.Random(12)
    n = 6
    for U in _subspaces(K, n, rng):
        for C in _subspaces(K, U.dim, rng):
            V = U.lift_subspace(C)
            assert V == Subspace.span(C.basis @ U.basis)
            assert U.coords_subspace(V) == C == Subspace.span(U.coords_of(V.basis))
        # a V of U not built by lift_subspace
        V = Subspace.span(rand_mat(K, 2, U.dim, rng) @ U.basis) if U.dim else U
        assert U.coords_subspace(V) == Subspace.span(U.coords_of(V.basis))
        if U.dim < n:
            outside = next(v for v in (Mat.identity(K, n)[[j], :] for j in range(n))
                           if not U.residuals(v).is_zero())
            with pytest.raises(ValueError, match="not in subspace"):
                U.coords_subspace(Subspace.span(Mat.from_blocks([[U.basis], [outside]])))


@pytest.mark.parametrize("K", [GF(5), GF(3, 2), QQ], ids=lambda K: K.token)
def test_nonzero_rows_of_empty_and_mixed_matrices(K):
    # a matrix with no rows has no nonzero row; one with no columns neither
    for r, c in ((0, 3), (0, 0), (3, 0)):
        assert Mat.zeros(K, r, c).nonzero_rows() == []
    # a GF(p^2) row counts as nonzero when either half of an entry is
    one = K.one() if K.degree == 1 else (0, 1)
    X = Mat(K, [[K.zero()] * 3, [K.zero(), one, K.zero()], [K.zero()] * 3, [one] * 3])
    assert X.nonzero_rows() == [1, 3]


def test_kron_units():
    e11 = Mat.unit(QQ, 2, 2, 0, 0)
    assert kron(e11, Mat.identity(QQ, 2)) == Mat.diag(QQ, [Fraction(1)] * 2 + [Fraction(0)] * 2)
    assert kron(Mat.identity(GF(3), 2), Mat.identity(GF(3), 3)) == Mat.identity(GF(3), 6)


def test_vec_identity_row_major():
    # row-major flattening satisfies vec(A X B) = kron(A, B') vec(X)
    rng = random.Random(3)
    K = GF(7)
    for _ in range(30):
        A, X, B = (rand_mat(K, 2, 2, rng) for _ in range(3))
        lhs = (A @ X @ B).vec()
        rhs = matvec(kron(A, B.transpose()), X.vec())
        assert lhs == rhs


def test_subspace_lattice_basics():
    K = QQ
    e1 = [K.one(), K.zero(), K.zero()]
    e2 = [K.zero(), K.one(), K.zero()]
    U = span_rows(K, 3, [e1])
    W = span_rows(K, 3, [e2])
    assert (U + W).dim == 2
    assert U.intersect(W).dim == 0
    assert (U + W).contains(U)


def test_subspace_modular_dimension_law():
    rng = random.Random(4)
    K = GF(5)
    for _ in range(40):
        U = span_rows(K, 6, [[K.random(rng) for _ in range(6)] for _ in range(3)])
        W = span_rows(K, 6, [[K.random(rng) for _ in range(6)] for _ in range(3)])
        assert (U + W).dim + U.intersect(W).dim == U.dim + W.dim
        assert U.intersect(U) == U


def test_subspace_coords_lift_round_trip():
    rng = random.Random(5)
    K = GF(7)
    U = span_rows(K, 5, [[K.random(rng) for _ in range(5)] for _ in range(3)])
    for _ in range(20):
        v = Mat(K, [[K.random(rng) for _ in range(U.dim)]]) @ U.basis
        assert U.residuals(v).is_zero()
        assert U.coords_of(v) @ U.basis == v


def test_op_matrix_transpose_operator():
    K = GF(3)
    T = op_matrix(K, 4, 4, lambda v: unvec(K, v, 2, 2).transpose().vec())
    for _ in range(5):
        rng = random.Random(6)
        X = rand_mat(K, 2, 2, rng)
        assert matvec(T, X.vec()) == X.transpose().vec()


def test_matrix_text_round_trip():
    rng = random.Random(8)
    for K in (QQ, GF(2), GF(7), GF(3, 2)):
        M = rand_mat(K, 3, 4, rng)
        again = Mat.from_text(M.to_text())
        assert again == M
        assert again.to_text() == M.to_text()


def test_det_inv():
    M = from_int_rows(QQ, [[2, 1], [1, 1]])
    assert M.det() == Fraction(1)
    assert M @ M.inv() == Mat.identity(QQ, 2)
    K = GF(7)
    N = from_int_rows(K, [[3, 1], [5, 2]])
    assert N @ N.inv() == Mat.identity(K, 2)


def test_echelon_gfp_matches_generic():
    rng = random.Random(10)
    K = GF(5)
    rows = [[K.random(rng) for _ in range(8)] for _ in range(6)]
    gen = ScalarEchelon(K, 8)
    fast = EchelonGFp(K, 8)
    for r in rows:
        assert gen.add(r) == (fast.add_rows(Mat(K, [r])).nrows == 1)
    assert gen.subspace() == fast.subspace()


def _python_matmul(A, B, p):
    """Reference product: Python integers, reduced once at the end."""
    cols = list(zip(*B.rows))
    return [[sum(a * b for a, b in zip(r, c)) % p for c in cols] for r in A.rows]


def test_gfp_products_exact_near_int64_limit():
    # one product of residues is close to 2^62 here, so an unsplit int64 sum wraps
    p = 2**31 - 1
    K = GF(p)
    rng = random.Random(11)
    for _ in range(5):
        A, B = rand_mat(K, 8, 8, rng), rand_mat(K, 8, 8, rng)
        assert (A @ B).rows == _python_matmul(A, B, p)
        if not K.is_zero(A.det()):
            Ainv = A.inv()
            assert (Ainv @ A).rows == _python_matmul(Ainv, A, p)
            assert Ainv @ A == Mat.identity(K, 8)


P_F64_TOP, P_F64_NEXT = 94906249, 94906297  # (p-1)^2 + p - 1 < 2^53 for the first only
# (p, m, k, n, dtype the product runs in); k = 9007 is one float64 chunk at p = 1000003
PRODUCT_EDGES = [
    (P_F64_TOP, 16, 16, 16, np.float64),  # chunks of one term
    (P_F64_NEXT, 16, 16, 16, np.int64),
    (1000003, 1, 9007, 1, np.float64),
    (1000003, 1, 9008, 1, np.float64),  # two chunks
    (1000003, 2, 9008 * 3, 1, np.float64),
    (1000003, 15, 16, 17, np.int64),  # just below the crossover
    (1000003, 16, 16, 16, np.float64),
    (3037000493, 16, 16, 16, np.int64),  # P_MAX, chunks of one term
    (3037000493, 2, 3, 2, np.int64),
    # 1024 entries in the product: its reduction takes the floor-division path
    (3037000493, 32, 3, 32, np.int64),
    (P_F64_TOP, 32, 16, 32, np.float64),
]


def _edge_operands(p, m, k, n):
    """All-(p-1) operands, and the same with the last term of every sum made
    (p-2)^2: that sum is odd, so a chunk too long for its dtype would sum to
    an odd integer above 2^53 (2^63), which float64 (int64) cannot hold."""
    a, b = np.full((m, k), p - 1, dtype=np.int64), np.full((k, n), p - 1, dtype=np.int64)
    a_odd, b_odd = a.copy(), b.copy()
    a_odd[:, -1] = b_odd[-1, :] = p - 2
    return [(a, b), (a_odd, b_odd)]


def _exact_product(a, b, p):
    """a @ b mod p in Python ints."""
    return (a.astype(object) @ b.astype(object)) % p


@pytest.mark.parametrize("p, m, k, n, dtype", PRODUCT_EDGES)
def test_gfp_product_exact_on_both_paths(p, m, k, n, dtype):
    assert _chunking(m * k * n, p)[0] is dtype
    for a, b in _edge_operands(p, m, k, n):
        out = gfp_matmul(a, b, p)
        assert out.dtype == np.int64
        assert np.array_equal(out, _exact_product(a, b, p))


@pytest.mark.parametrize("p, m, k, n, dtype", PRODUCT_EDGES)
def test_gfp2_product_exact_on_both_paths(p, m, k, n, dtype, monkeypatch):
    # one product, [[a0, r a1], [a1, a0]] @ [b0; b1], 4 m k n multiply-adds:
    # the path of the GF(p) product a0 @ b0 at every edge but 15 x 16 x 17,
    # where 4 m k n is past the float64 crossover and m k n is not
    import lieclassical.linalg as linalg

    pair_dtype = np.float64 if (m, k, n) == (15, 16, 17) else dtype
    assert _chunking(4 * m * k * n, p)[0] is pair_dtype
    shapes, matmul = [], linalg.gfp_matmul
    monkeypatch.setattr(linalg, "gfp_matmul",
                        lambda a, b, p: shapes.append((a.shape, b.shape)) or matmul(a, b, p))
    r = GF(p, 2).nonresidue
    (a1, b1), (a0, b0) = _edge_operands(p, m, k, n)
    a1 = a1 * pow(r, -1, p) % p  # r a1 = p - 1: the top block row all p - 1
    c0, c1 = gfp2_matmul(np.array([a0, a1]), np.array([b0, b1]), p, r)
    assert shapes == [((2 * m, 2 * k), (2 * k, n))]
    x0, x1, y0, y1 = (z.astype(object) for z in (a0, a1, b0, b1))
    assert np.array_equal(c0, (x0 @ y0 + r * (x1 @ y1)) % p)
    assert np.array_equal(c1, (x0 @ y1 + x1 @ y0) % p)


def test_product_dtype_and_chunk_length():
    # the crossover counts multiply-adds; float64 needs a chunk of one term
    assert _chunking(BLAS_MIN_MULADDS - 1, 5) == (np.int64, (2**63 - 5) // 16)
    assert _chunking(BLAS_MIN_MULADDS, 5) == (np.float64, (2**53 - 5) // 16)
    assert _chunking(BLAS_MIN_MULADDS, 1000003) == (np.float64, 9007)
    assert _chunking(BLAS_MIN_MULADDS, P_F64_TOP) == (np.float64, 1)
    assert _chunking(BLAS_MIN_MULADDS, P_F64_NEXT) == (np.int64, 1023)


def _schoolbook_matmul(A, B):
    """Reference product: the scalar loop over the Field API."""
    K = A.field
    out = []
    for r in A.rows:
        out_row = []
        for c in B.transpose().rows:
            acc = K.zero()
            for a, b in zip(r, c):
                acc = K.add(acc, K.mul(a, b))
            out_row.append(acc)
        out.append(out_row)
    return out


P31, P_MAX = 2**31 - 1, 3037000493  # P_MAX: the largest prime GF accepts
# the default nonresidues are small; p - 1 (P31 is 3 mod 4) and p - 2 (2 is a
# nonresidue mod P_MAX, -1 a square) make r (a1 b1) as large as it can be
GF2_FIELDS = [GF(3, 2), GF(5, 2), GF(7, 2), GF(P31, 2), GF(P_MAX, 2),
              GF(P31, 2, nonresidue=P31 - 1), GF(P_MAX, 2, nonresidue=P_MAX - 2)]
# GF(p^2) about the pair cap (2^63 - p) // ((1 + r)(p-1)^2), r the default
# nonresidue: r = 3; r = 31 (cap 128); r = 2 with caps 1 and 0, the second
# past the bound, where products are reduced before they are added
PAIR_CAP_FIELDS = [GF(7, 2), GF(47453111, 2), GF(1753413037, 2), GF(1753413059, 2)]


def test_pair_cap_fields_sit_at_the_cap_edges():
    assert [(K.nonresidue, _lazy_cap(K)) for K in PAIR_CAP_FIELDS[1:]] == [(31, 128), (2, 1), (2, 0)]
    assert PAIR_CAP_FIELDS[0].nonresidue == 3
    # the GF(p) cap is the one with r = 0
    assert [_lazy_cap(GF(p)) for p in (P31, P_MAX)] == [2, 1]


REDUCE_PRIMES = [2, 3, 5, P_F64_TOP, P31, P_MAX]


@pytest.mark.parametrize("p", REDUCE_PRIMES)
def test_reduction_matches_python_mod_at_the_int64_edges(p):
    # the extremes a reduction meets: a product chunk of k terms sums to at
    # most k (p-1)^2 + p - 1, a panel after `cap` updates to at least
    # -cap (p-1)^2, one update to -(p-1)^2; small and large arrays take the
    # % and the floor-division paths
    cap = k = (2**63 - p) // (p - 1) ** 2
    top = (p - 1) ** 2
    edges = [-cap * top, -cap * top + 1, -top, -top + 1, -p, -1, 0, 1, p - 1, p, top,
             k * top + p - 1, k * top + p - 2]
    assert min(edges) >= -(2**63) and max(edges) < 2**63
    for size in (len(edges), 1024, 3000):
        values = np.resize(np.array(edges, dtype=np.int64), size)
        assert _reduce(p, values.copy()).tolist() == [x % p for x in values.tolist()]


@pytest.mark.parametrize("K", [GF(2), GF(3), GF(P31), GF(P_MAX), GF(3, 2), *GF2_FIELDS[-2:],
                               *PAIR_CAP_FIELDS], ids=str)
def test_entrywise_products_match_python_ints(K):
    # every pair of elements with coordinates in {0, 1, 2, p - 2, p - 1}, in
    # a short array and repeated past a thousand entries
    p = K.char

    def product(a, b):
        if K.degree == 1:
            return a * b % p
        (a0, a1), (b0, b1) = a, b
        return (a0 * b0 + K.nonresidue * a1 * b1) % p, (a0 * b1 + a1 * b0) % p

    coords = sorted({0, 1, 2 % p, p - 2, p - 1})
    elems = coords if K.degree == 1 else list(itertools.product(coords, coords))
    xs, ys = zip(*itertools.product(elems, elems))
    want = list(map(product, xs, ys))
    for reps in (1, 1100 // len(xs) + 1):
        x, y = Mat(K, [list(xs) * reps]).a, Mat(K, [list(ys) * reps]).a
        assert np.array_equal(_times(K, x, y), Mat(K, [want * reps]).a)


@st.composite
def gf2_products(draw, K):
    """A pair (A, B) over K of compatible shapes up to 5x5.  A Mat without
    rows has no columns, and one without columns leaves nothing to multiply
    against, so a 0 in n or k zeroes the dimensions after it: the empty
    shapes are 0x0 @ 0x0, n x 0 @ 0x0 and n x k @ k x 0."""
    n, k, m = (draw(st.integers(0, 5)) for _ in range(3))
    k = k if n else 0
    m = m if k else 0
    p = K.char
    coord = st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1)
    entry = st.tuples(coord, coord)
    return (Mat(K, [[draw(entry) for _ in range(k)] for _ in range(n)]),
            Mat(K, [[draw(entry) for _ in range(m)] for _ in range(k)]))


@pytest.mark.parametrize("K", GF2_FIELDS, ids=lambda K: f"{K.char}^2-r{K.nonresidue}")
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_gf2_product_matches_schoolbook(K, data):
    A, B = data.draw(gf2_products(K))
    prod = A @ B
    assert prod.rows == _schoolbook_matmul(A, B)
    assert (prod.nrows, prod.ncols) == (A.nrows, B.ncols)
    assert all(type(x) is tuple for r in prod.rows for x in r)


@pytest.mark.parametrize("K", GF2_FIELDS[-2:] + PAIR_CAP_FIELDS,
                         ids=["p31", "pmax", *map(str, PAIR_CAP_FIELDS)])
def test_gf2_product_with_largest_residues(K):
    top = (K.char - 1, K.char - 1)
    for n, k, m in ((1, 6, 1), (6, 1, 6), (4, 4, 4)):
        A, B = Mat(K, [[top] * k] * n), Mat(K, [[top] * m] * k)
        assert (A @ B).rows == _schoolbook_matmul(A, B)


@pytest.mark.parametrize("K", [GF(3, 2), GF(P31, 2)], ids=["gf9", "p31"])
def test_gf2_inverse_times_matrix_is_identity(K):
    rng = random.Random(13)
    for n in (1, 2, 5, 8):
        A = rand_mat(K, n, n, rng)
        if K.is_zero(A.det()):
            continue
        assert A.inv() @ A == Mat.identity(K, n) == A @ A.inv()


def _gauss_jordan(rows, K, ncols):
    """Reference RREF: scalar Gauss-Jordan elimination over the Field API;
    returns (rows, pivots) with the zero rows last."""
    work = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(work)) if not K.is_zero(work[r][col])), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = K.inv(work[rank][col])
        work[rank] = [K.mul(inv, x) for x in work[rank]]
        for r in range(len(work)):
            f = work[r][col]
            if r != rank and not K.is_zero(f):
                work[r] = [K.sub(x, K.mul(f, y)) for x, y in zip(work[r], work[rank])]
        pivots.append(col)
    return work, pivots


def _sympy_rref(rows, K, ncols):
    """Reference RREF: sympy's DomainMatrix over GF(p) or QQ."""
    if K == QQ:
        dom = SYMPY_QQ
        entries = [[dom(x.numerator, x.denominator) for x in r] for r in rows]

        def back(x):
            return Fraction(int(x.numerator), int(x.denominator))
    else:
        dom = SYMPY_GF(K.char)
        entries = [[dom(x) for x in r] for r in rows]

        def back(x):
            return int(x) % K.char
    red, pivots = DomainMatrix(entries, (len(rows), ncols), dom).rref()
    return [[back(x) for x in r] for r in red.to_list()], list(pivots)


@st.composite
def row_sets(draw, K):
    """(ncols, rows) over K: 0 to 6 rows of 1 to 6 entries, each row either
    random or a random combination of the rows before it, so the rank can
    fall short of the row count (zero rows included)."""
    if K == QQ:
        entry = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    else:
        p = K.char
        coord = st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1)
        entry = coord if K.order() == p else st.tuples(coord, coord)
    ncols = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        if rows and draw(st.booleans()):
            row = [K.zero()] * ncols
            for r in rows:
                c = draw(entry)
                row = [K.add(a, K.mul(c, b)) for a, b in zip(row, r)]
        else:
            row = [draw(entry) for _ in range(ncols)]
        rows.append(row)
    return ncols, rows


def _assert_rref_is(K, ncols, rows, ref_rows, ref_pivots):
    """The field family's one echelon basis (EchelonGFp over finite fields,
    Echelon over Q), the scalar reference echelon, Subspace.span and
    rref all give the reference RREF of rows."""
    rank = len(ref_pivots)
    pivots = tuple(ref_pivots)
    want = Subspace(Mat(K, ref_rows[:rank]) if rank else Mat.zeros(K, 0, ncols), pivots)
    ech = echelon(K, ncols)
    assert type(ech) is (Echelon if K == QQ else EchelonGFp)
    assert ech.add_rows(Mat(K, rows) if rows else Mat.zeros(K, 0, ncols)).nrows == rank
    assert ech.dim == rank and ech.subspace() == want
    ref = ScalarEchelon(K, ncols)
    assert sum(ref.add(r) for r in rows) == ref.dim == rank
    assert ref.subspace() == want
    S = span_rows(K, ncols, rows)
    assert S == want and isinstance(S.basis, Mat)
    assert _entries_are_scalars(K, S.basis.rows)
    if rows:
        assert rref(Mat(K, rows)) == (Mat(K, ref_rows), rank, pivots)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_echelon_matches_subspace(data):
    K = data.draw(st.sampled_from([GF(2), GF(3), GF(P31), QQ]), label="field")
    ncols, rows = data.draw(row_sets(K))
    _assert_rref_is(K, ncols, rows, *_sympy_rref(rows, K, ncols))


@pytest.mark.parametrize("K", GF2_FIELDS[:4], ids=lambda K: f"{K.char}^2-r{K.nonresidue}")
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gf2_echelon_matches_gauss_jordan(K, data):
    ncols, rows = data.draw(row_sets(K))
    _assert_rref_is(K, ncols, rows, *_gauss_jordan(rows, K, ncols))


def _fraction_matmul(A, B):
    """Reference product: the schoolbook loop in Fractions."""
    cols = list(zip(*B.rows))
    return [[sum((a * b for a, b in zip(r, c)), Fraction(0)) for c in cols] for r in A.rows]


def _sympy_matmul(A, B):
    """Reference product: sympy's DomainMatrix over QQ."""
    def dm(M):
        rows = [[SYMPY_QQ(x.numerator, x.denominator) for x in r] for r in M.rows]
        return DomainMatrix(rows, (M.nrows, M.ncols), SYMPY_QQ)

    prod = dm(A).matmul(dm(B)).to_list()
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in r] for r in prod]


def _q_matrix(draw, r, c, numerators, denominators):
    return Mat(QQ, [[Fraction(draw(numerators), draw(denominators)) for _ in range(c)]
                    for _ in range(r)])


@st.composite
def q_products(draw, numerators, denominators):
    """A pair (A, B) of Q matrices of compatible shapes, 1x1 up to 6x6."""
    n, k, m = (draw(st.integers(1, 6)) for _ in range(3))
    return (_q_matrix(draw, n, k, numerators, denominators),
            _q_matrix(draw, k, m, numerators, denominators))


def _assert_exact_product(A, B):
    prod = A @ B
    assert prod.rows == _fraction_matmul(A, B) == _sympy_matmul(A, B)
    assert all(type(x) is Fraction for r in prod.rows for x in r)


@settings(max_examples=150, deadline=None)
@given(q_products(st.integers(-50, 50), st.integers(1, 12)))
def test_q_product_with_denominators(pair):
    _assert_exact_product(*pair)


@settings(max_examples=100, deadline=None)
@given(q_products(st.integers(2**31, 2**40) | st.integers(-2**40, -2**31), st.just(1)))
def test_q_product_integers_above_2_31(pair):
    _assert_exact_product(*pair)


@settings(max_examples=100, deadline=None)
@given(q_products(st.integers(-2**70, 2**70), st.integers(1, 2**20)))
def test_q_product_beyond_int64(pair):
    _assert_exact_product(*pair)


def test_q_product_at_the_int64_edge():
    # 2^62 + 2^62 = 2^63 wraps in int64: the bound ncols*max|a|*max|b| = 2^63
    # must send this product to Python integers
    big = Fraction(2**62)
    for sign in (1, -1):
        A = Mat(QQ, [[sign * big, sign * big]])
        B = Mat(QQ, [[Fraction(1)], [Fraction(1)]])
        assert (A @ B).rows == [[Fraction(sign * 2**63)]]
    # with a denominator the cleared integers, not the entries, set the bound
    A = Mat(QQ, [[Fraction(2**61, 3), Fraction(1, 2)]])
    B = Mat(QQ, [[Fraction(3)], [Fraction(2**62)]])
    assert (A @ B).rows == [[Fraction(2**62)]]
    _assert_exact_product(A, B)


def test_q_product_zero_and_thin_shapes():
    rng = random.Random(12)
    for n, k, m in ((1, 5, 1), (5, 1, 5), (1, 1, 1), (1, 4, 3), (3, 4, 1)):
        A, B = rand_mat(QQ, n, k, rng), rand_mat(QQ, k, m, rng)
        _assert_exact_product(A, B)
        _assert_exact_product(Mat.zeros(QQ, n, k), B)
        assert (A @ Mat.zeros(QQ, k, m)) == Mat.zeros(QQ, n, m)
    assert (Mat(QQ, [[Fraction(1, 2)] * 3]) @ Mat(QQ, [[], [], []])).rows == [[]]


def test_q_product_of_a_zero_or_empty_factor_with_large_entries():
    # a zero or column-free factor must not send the other's entries above
    # 2^63 to int64
    big = Mat(QQ, [[Fraction(2**70), Fraction(-(2**64), 3)]])
    assert (Mat.zeros(QQ, 2, 1) @ big) == Mat.zeros(QQ, 2, 2)
    assert (big.transpose() @ Mat(QQ, [[]])).rows == [[], []]
    _assert_exact_product(big.transpose(), Mat.zeros(QQ, 1, 3))


# ---------------------------------------------------------------------------
# Characteristic polynomials and distinct-degree factors against sympy


X = sympy.Symbol("x")


def _shaped_matrices(K, rng, n):
    """Dense, sparse, nilpotent, scalar and block-diagonal n x n matrices: the
    shapes that end a Krylov block early, so that several blocks make up the
    characteristic polynomial."""
    z = K.zero()
    yield rand_mat(K, n, n, rng)
    yield Mat(K, [[K.random(rng) if rng.random() < 0.25 else z for _ in range(n)]
                  for _ in range(n)])
    yield Mat(K, [[K.random(rng) if j > i else z for j in range(n)] for i in range(n)])
    yield Mat.identity(K, n).scale(K.random(rng))
    h = n // 2
    B = rand_mat(K, h, h, rng)
    yield Mat(K, [r + [z] * (n - h) for r in B.rows]
              + [[z] * h + r for r in rand_mat(K, n - h, n - h, rng).rows])


def _sympy_poly(f, p):
    return sympy.Poly(list(reversed(f)), X, modulus=p)


@pytest.mark.parametrize("p", [2, 3, 5, 1000003])
def test_charpoly_matches_sympy_mod_p(p):
    K = GF(p)
    rng = random.Random(p)
    for n in range(1, 9):
        for A in _shaped_matrices(K, rng, n):
            f = charpoly(A)
            ref = sympy.Matrix(A.rows).charpoly(X).as_expr()
            assert _sympy_poly(f, p) == sympy.Poly(ref, X, modulus=p)
            assert len(f) == n + 1 and f[-1] == 1
            assert poly_at(f, A).is_zero()  # Cayley-Hamilton


def test_charpoly_gf9_matches_determinants():
    # two monic polynomials of degree n < 9 that agree at all nine points of
    # GF(9) are equal, so det(tI - A) at every t pins det(xI - A) down
    K = GF(3, 2)
    rng = random.Random(9)
    for n in range(1, 9):
        for A in _shaped_matrices(K, rng, n):
            f = charpoly(A)
            assert len(f) == n + 1 and f[-1] == K.one()
            for t in K.elements():
                value = K.zero()
                for c in reversed(f):
                    value = K.add(K.mul(value, t), c)
                assert value == (Mat.identity(K, n).scale(t) - A).det()


CHARPOLY_FIELDS = [GF(2), GF(5), GF(P_MAX), GF(3, 2), *GF2_FIELDS[-2:], *PAIR_CAP_FIELDS]


def _top_matrix(K, n):
    """The n x n matrix with every entry p - 1 (both residues over GF(p^2)),
    which makes every intermediate product as large as it can be."""
    top = (K.char - 1, K.char - 1) if K.degree == 2 else K.char - 1
    return Mat(K, [[top] * n for _ in range(n)])


@pytest.mark.parametrize("K", CHARPOLY_FIELDS, ids=repr)
def test_charpoly_matches_scalar_reference(K):
    rng = random.Random(K.char)
    for n in (0, 1, 2, 3, 5, 12, 48):
        for A in [*_shaped_matrices(K, rng, n), _top_matrix(K, n)]:
            assert charpoly(A) == charpoly_by_scalars(A)


def _field_entries(K):
    """Entries of K, favouring 0, 1 and p - 1 (pairs of them over GF(p^2))."""
    p = K.char
    coord = st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1)
    return coord if K.degree == 1 else st.tuples(coord, coord)


@st.composite
def derogatory_matrices(draw, K):
    """n x n matrices, n <= 8, whose minimal polynomial is usually a proper
    factor of the characteristic one, so their Krylov blocks end early: zero,
    scalar, repeated diagonal blocks, nilpotent, and block sums whose blocks
    share an eigenvalue; optionally conjugated by a random unitriangular
    product, so that no unit vector is an eigenvector by construction."""
    entry = _field_entries(K)
    n = draw(st.integers(0, 8), label="n")
    kind = draw(st.sampled_from(["zero", "scalar", "repeated", "nilpotent", "shared"]))
    z = K.zero()
    if kind == "zero":
        A = Mat.zeros(K, n, n)
    elif kind == "scalar":
        A = Mat.identity(K, n).scale(draw(entry))
    elif kind == "repeated":
        k = draw(st.sampled_from([k for k in (1, 2, 3, 4) if n % k == 0]))
        B = Mat(K, [[draw(entry) for _ in range(k)] for _ in range(k)])
        A = kron(Mat.identity(K, n // k), B)
    elif kind == "nilpotent":
        A = Mat(K, [[draw(entry) if j > i else z for j in range(n)] for i in range(n)])
    else:
        # c on the diagonal of an upper triangular first block, and c in the
        # corner of an upper block triangular second one
        c, h = draw(entry), draw(st.integers(0, n))
        rows = [[c if j == i else draw(entry) if j > i else z for j in range(h)] + [z] * (n - h)
                for i in range(h)]
        rows += [[z] * h + [c if (i, j) == (h, h) else z if j == h else draw(entry)
                            for j in range(h, n)] for i in range(h, n)]
        A = Mat(K, rows)
    if n and draw(st.booleans(), label="conjugate"):
        lower = Mat(K, [[K.one() if i == j else draw(entry) if j < i else z for j in range(n)]
                        for i in range(n)])
        P = lower @ lower.transpose()  # unit lower times unit upper: invertible
        A = P @ A @ P.inv()
    return A


# the finite fields at both ends of every bound: GF(2), small odd p, 2^31 - 1
# (lazy cap 2), P_MAX (cap 1), GF(9), GF(P_MAX^2) and the pair cap's edges
ECHELON_FIELDS = [GF(2), GF(3), GF(P31), GF(P_MAX), GF(3, 2), GF(P_MAX, 2), *PAIR_CAP_FIELDS]


@pytest.mark.parametrize("K", ECHELON_FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_krylov_charpoly_of_derogatory_matrices(K, data):
    A = data.draw(derogatory_matrices(K))
    f = charpoly(A)
    assert f == charpoly_by_scalars(A)
    assert len(f) == A.nrows + 1 and f[-1] == K.one()


@pytest.mark.parametrize("K", ECHELON_FIELDS, ids=str)
def test_krylov_charpoly_of_empty_and_one_by_one(K):
    one = K.one()
    assert charpoly(Mat.zeros(K, 0, 0)) == [one]
    for a in (K.zero(), one, K.neg(one)):
        assert charpoly(Mat(K, [[a]])) == [K.neg(a), one]


def test_charpoly_refuses_the_rationals():
    with pytest.raises(ValueError, match="finite field"):
        charpoly(Mat.identity(QQ, 3))


def test_charpoly_makes_no_per_entry_field_calls(monkeypatch):
    # the array path calls the field only for one inverse per column; a
    # scalar Hessenberg reduction would make about n^3 calls
    K, n = GF(5), 48
    A = rand_mat(K, n, n, random.Random(48))
    f, calls = _count_field_calls(monkeypatch, K, lambda: charpoly(A))
    assert f == charpoly_by_scalars(A)
    assert calls["mul"] + calls["sub"] + calls["add"] <= 2 * n
    assert calls["inv"] <= n


def _count_field_calls(monkeypatch, K, fn):
    """fn() and the number of calls it made to each of K.mul, K.sub, K.add
    and K.inv."""
    calls = {"mul": 0, "sub": 0, "add": 0, "inv": 0}
    for name in calls:
        def counted(*args, name=name, fn=getattr(K, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(K, name, counted, raising=False)
    out = fn()
    monkeypatch.undo()
    return out, calls


def test_gf9_echelon_makes_no_per_entry_field_calls(monkeypatch):
    # the pair-array echelon calls the field only for one inverse per pivot;
    # the scalar one made about n^3 calls for an n x n matrix
    from lieclassical.repmod import LieModule, spin

    K, n = GF(3, 2), 48
    rng = random.Random(49)
    A = rand_mat(K, n, n, rng)
    S, calls = _count_field_calls(monkeypatch, K, lambda: span_rows(K, n, A.rows))
    assert calls["mul"] + calls["sub"] + calls["add"] <= 2 * n
    ref = ScalarEchelon(K, n)
    for r in A.rows:
        ref.add(r)
    assert S == ref.subspace()
    M = LieModule(K, 2, stacked(K, n, [rand_mat(K, n, n, rng), rand_mat(K, n, n, rng)]))
    seed = [K.random(rng) for _ in range(n)]
    S, calls = _count_field_calls(monkeypatch, K, lambda: spin(M, Mat(K, [seed])))
    assert calls["mul"] + calls["sub"] + calls["add"] <= 2 * n
    assert S.dim == n


def _assert_blocks_insert_like_scalar(K, n, blocks):
    """EchelonGFp given each block whole, by `add` and `add_rows` in turn,
    keeps the rows, the dimension and the subspace that ScalarEchelon keeps
    when it inserts the same rows one at a time."""
    fast, ref = EchelonGFp(K, n), ScalarEchelon(K, n)
    for j, rows in enumerate(blocks):
        want = [i for i, r in enumerate(rows) if ref.dim < n and ref.add(r)]
        M = Mat(K, rows) if rows else Mat.zeros(K, 0, n)
        if j % 2:
            assert fast.add_rows(M) == M[want, :]
        else:
            assert fast.add(M.a) == want
        assert fast.dim == ref.dim
        assert fast.subspace() == ref.subspace()


def _block_rows(K, n, count, rng):
    """count rows of F^n, mostly zero rows, repeats and combinations of
    earlier rows, so new pivots turn up late in a block; entries favour 0, 1
    and p - 1."""
    p = K.char

    def coord():
        return rng.choice([0, 1, p - 1, rng.randrange(p)])

    def entry():
        return (coord(), coord()) if K.degree == 2 else coord()

    rows = []
    for _ in range(count):
        kind = rng.choice(["zero", "repeat", "combination", "combination", "fresh"])
        row = [K.zero()] * n
        if kind == "fresh":
            row = [entry() for _ in range(n)]
        elif kind == "repeat" and rows:
            row = list(rng.choice(rows))
        elif kind == "combination":
            for r in rng.sample(rows, min(len(rows), 2)):
                c = entry()
                row = [K.add(a, K.mul(c, b)) for a, b in zip(row, r)]
        rows.append(row)
    return rows


@pytest.mark.parametrize("K", ECHELON_FIELDS, ids=str)
def test_echelon_gfp_blocks_match_scalar_insertion(K):
    # blocks of up to 4n + 2 rows (several panels), after up to two earlier
    # blocks (a seeded basis), often filling the basis part way through
    rng = random.Random(f"echelon blocks {K.char} {K.degree}")
    for _ in range(15):
        n = rng.randrange(1, 7)
        blocks = [_block_rows(K, n, rng.randrange(4 * n + 3), rng) for _ in range(3)]
        _assert_blocks_insert_like_scalar(K, n, blocks)


@pytest.mark.parametrize("K", ECHELON_FIELDS, ids=str)
def test_echelon_gfp_block_edge_cases(K):
    p, n = K.char, 4
    z, one = K.zero(), K.one()
    top = (p - 1, p - 1) if K.degree == 2 else p - 1
    e = [[one if i == j else z for j in range(n)] for i in range(n)]
    # a zero-column ambient space takes no row
    _assert_blocks_insert_like_scalar(K, 0, [[[]] * 3, [], [[]]])
    # entries p - 1 everywhere; over GF(p) the pivot row [1, p-1, ...] times
    # the entry p - 1 of the next row takes the update to its extreme -(p-1)^2
    tops = [[one] + [top] * (n - 1), [top] + [z] * (n - 1), [top] * n,
            [top, top, z, top], [top] * n]
    _assert_blocks_insert_like_scalar(K, n, [tops, tops[::-1] * 2])
    # zero and repeated rows around pivots that arrive in the third panel,
    # after a seeded basis; then a block that fills the basis at its 2nd row
    late = [[z] * n] * (2 * n) + [e[0], e[0], [z] * n, e[3]] + [e[0]] * n
    _assert_blocks_insert_like_scalar(K, n, [[e[1]], late, [e[0], e[2], e[3], e[2]]])


@pytest.mark.parametrize("K", ECHELON_FIELDS, ids=str)
def test_echelon_gfp_carried_columns_follow_the_rows(K):
    # rows [x_i | e_i]: the carried columns hold no pivot, the same rows are
    # kept as without them, and each basis row [b | t] has b = t X
    rng = random.Random(f"carried columns {K.char} {K.degree}")
    for _ in range(15):
        n = rng.randrange(1, 7)
        rows = _block_rows(K, n, rng.randrange(2 * n + 3), rng)
        X = Mat(K, rows) if rows else Mat.zeros(K, 0, n)
        plain, carried = EchelonGFp(K, n), EchelonGFp(K, n, carry=X.nrows)
        assert carried.add(Mat.from_blocks([[X, Mat.identity(K, X.nrows)]]).a) == plain.add(X.a)
        S, ref = carried.subspace(), plain.subspace()
        assert S.pivots == ref.pivots and S.basis[:, :n] == ref.basis
        assert S.basis[:, :n] == S.basis[:, n:] @ X


def test_pair_panel_past_its_cap_inverts():
    # [M | I] in one panel of 130 pivots over GF(47453111^2), whose panel is
    # reduced after 128 updates; M is p - 1 (both residues) but for 1 on its
    # diagonal, so the inverse read off the carried columns is checked by an
    # independent product
    K, n = GF(47453111, 2), 130
    assert _lazy_cap(K) < n
    top = (K.char - 1, K.char - 1)
    M = Mat(K, [[K.one() if i == j else top for j in range(n)] for i in range(n)])
    assert M.inv() @ M == Mat.identity(K, n)


def test_span_reduces_each_panel_with_one_product(monkeypatch):
    # a block goes in panels of `ambient` rows: one product reduces each
    # panel, and only panels with new pivots take a second one
    import lieclassical.linalg as linalg

    K, rng = GF(2), np.random.default_rng(15)
    products = []
    matmul = linalg.gfp_matmul
    monkeypatch.setattr(linalg, "gfp_matmul", lambda *args: products.append(1) or matmul(*args))
    for rank in (50, 64):
        M = Mat(K, (rng.integers(0, 2, (2304, rank)) @ rng.integers(0, 2, (rank, 64)) % 2).tolist())
        products.clear()
        S = Subspace.span(M)
        assert len(products) <= -(-2304 // 64) + 1
        assert S.residuals(M).is_zero() and S.dim <= rank


def test_spin_inserts_each_round_with_one_echelon_add(monkeypatch):
    from lieclassical import repmod

    K, n = GF(5), 10
    shift = Mat(K, [[1 if i == j + 1 else 0 for j in range(n)] for i in range(n)])
    M = repmod.LieModule(K, 1, shift)
    adds, rounds = [], []
    add, images = EchelonGFp.add, repmod._images
    monkeypatch.setattr(EchelonGFp, "add", lambda self, X: adds.append(1) or add(self, X))
    monkeypatch.setattr(repmod, "_images", lambda S, X: rounds.append(1) or images(S, X))
    S = repmod.spin(M, Mat.identity(K, n)[[0], :])
    assert S.dim == n and len(rounds) == n - 1
    assert len(adds) == len(rounds) + 1


@pytest.mark.parametrize("p", [2, 3, 5, 1000003])
def test_distinct_degree_parts_match_sympy_factors(p):
    K = GF(p)
    rng = random.Random(100 + p)
    for n in range(1, 9):
        for A in _shaped_matrices(K, rng, n):
            f = charpoly(A)
            parts = dict(distinct_degree_parts(K, f))
            expect = {}
            for fac, _ in _sympy_poly(f, p).factor_list()[1]:
                d = fac.degree()
                expect[d] = expect.get(d, sympy.Poly(1, X, modulus=p)) * fac.monic()
            assert set(parts) == set(expect)
            for d, g in parts.items():
                assert _sympy_poly(g, p) == expect[d]
                # splitting a part gives one of sympy's irreducible factors
                h = _sympy_poly(irreducible_factor(K, g, d, rng), p)
                assert h.degree() == d and h.is_irreducible
                assert expect[d].rem(h).is_zero


# ---------------------------------------------------------------------------
# kernel and inverse against sympy's DomainMatrix


DIFF_FIELDS = [GF(2), GF(5), GF(P31), GF(P_MAX), QQ]


def _sympy_dm(M):
    K = M.field
    if K == QQ:
        rows = [[SYMPY_QQ(x.numerator, x.denominator) for x in r] for r in M.rows]
        return DomainMatrix(rows, (M.nrows, M.ncols), SYMPY_QQ)
    dom = SYMPY_GF(K.char)
    return DomainMatrix([[dom(x) for x in r] for r in M.rows], (M.nrows, M.ncols), dom)


def _from_sympy(K, rows):
    if K == QQ:
        return [[Fraction(int(x.numerator), int(x.denominator)) for x in r] for r in rows]
    return [[int(x) % K.char for x in r] for r in rows]


def _low_rank(K, r, c, rank, rng):
    """An r x c matrix of rank at most `rank` (a product through rank columns)."""
    if rank == 0:
        return Mat.zeros(K, r, c)
    return rand_mat(K, r, rank, rng) @ rand_mat(K, rank, c, rng)


@pytest.mark.parametrize("K", DIFF_FIELDS, ids=repr)
def test_kernel_matches_sympy_nullspace(K):
    rng = random.Random(21)
    for r, c in ((1, 1), (2, 5), (5, 2), (4, 4), (6, 7), (7, 6)):
        for rank in range(min(r, c) + 1):
            M = _low_rank(K, r, c, rank, rng)
            null = _sympy_dm(M).nullspace()
            ker = kernel(M)
            assert ker.dim == null.shape[0]
            if ker.dim:
                red, pivots = null.rref()
                assert ker.basis.rows == _from_sympy(K, red.to_list())
                assert ker.pivots == tuple(pivots)


NULL_FIELDS = [GF(2), GF(5), GF(P31), GF(P_MAX), GF(3, 2), GF(P_MAX, 2), *PAIR_CAP_FIELDS, QQ]


def _null_space_cases(K, rng):
    """Random, singular, zero, invertible and non-square matrices, with the
    empty shapes."""
    for r, c in ((0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4), (6, 7), (7, 6)):
        yield rand_mat(K, r, c, rng)
        yield Mat.zeros(K, r, c)
        for rank in range(1, min(r, c)):
            yield _low_rank(K, r, c, rank, rng)
    for n in (1, 3, 6):
        lower = Mat(K, [[K.one() if i == j else K.random(rng) if j < i else K.zero()
                         for j in range(n)] for i in range(n)])
        yield lower @ lower.transpose()
        yield Mat.identity(K, n)


@pytest.mark.parametrize("K", NULL_FIELDS, ids=str)
def test_null_spaces_match_both_kernels(K):
    rng = random.Random(f"null spaces {K}")
    for M in _null_space_cases(K, rng):
        right, left = null_spaces(M)
        assert right == kernel(M)
        assert left == kernel(M.transpose())
        assert (M @ right.basis.transpose()).is_zero() and (left.basis @ M).is_zero()


@pytest.mark.parametrize("K", DIFF_FIELDS, ids=repr)
def test_inverse_matches_sympy_inv(K):
    rng = random.Random(22)
    for n in (1, 2, 3, 5, 8):
        for _ in range(4):
            M = rand_mat(K, n, n, rng)
            try:
                ref = _from_sympy(K, _sympy_dm(M).inv().to_list())
            except DMNonInvertibleMatrixError:
                with pytest.raises(ValueError, match="singular"):
                    M.inv()
                continue
            assert M.inv().rows == ref
        with pytest.raises(ValueError, match="singular"):
            _low_rank(K, n, n, n - 1, rng).inv()


# ---------------------------------------------------------------------------
# The array operations against scalar loops over the Field API


def _entries_are_scalars(K, rows):
    if K.degree == 2:
        return all(type(x) is tuple and all(type(c) is int for c in x) for r in rows for x in r)
    return all(type(x) is (Fraction if K == QQ else int) for r in rows for x in r)


def _scalar_kron(A, B):
    K = A.field
    return [[K.mul(a, b) for a in ra for b in rb] for ra in A.rows for rb in B.rows]


def _check_array_operations(A, B, C, c, v):
    """A, B of one shape r x k, C of any shape, c a scalar, v of length r."""
    K = A.field
    (r, k) = A.nrows, A.ncols
    expect = {
        "add": ([[K.add(a, b) for a, b in zip(x, y)] for x, y in zip(A.rows, B.rows)], A + B),
        "sub": ([[K.sub(a, b) for a, b in zip(x, y)] for x, y in zip(A.rows, B.rows)], A - B),
        "neg": ([[K.neg(a) for a in x] for x in A.rows], -A),
        "scale": ([[K.mul(c, a) for a in x] for x in A.rows], A.scale(c)),
        "transpose": ([[A.rows[i][j] for i in range(r)] for j in range(k)], A.transpose()),
        "kron": (_scalar_kron(A, C), kron(A, C)),
    }
    shapes = {"transpose": (k, r), "kron": (r * C.nrows, k * C.ncols)}
    for name, (ref, got) in expect.items():
        assert got.rows == ref, name
        assert (got.nrows, got.ncols) == shapes.get(name, (r, k)), name
        assert _entries_are_scalars(K, got.rows), name
    trace = K.zero()
    for i in range(min(r, k)):
        trace = K.add(trace, A.rows[i][i])
    assert A.trace() == trace and type(A.trace()) is type(trace)
    w = [K.zero()] * k
    for x, a in zip(v, A.rows):
        w = [K.add(s, K.mul(x, t)) for s, t in zip(w, a)]
    assert matvec(A.transpose(), v) == w
    assert _entries_are_scalars(K, [matvec(A.transpose(), v)])
    ker = kernel(A)
    assert isinstance(ker.basis, Mat) and _entries_are_scalars(K, ker.basis.rows)
    assert _entries_are_scalars(K, span_rows(K, k, A.rows).basis.rows)


def _edge_coord(p):
    return st.sampled_from([0, 1, p - 2, p - 1]) | st.integers(0, p - 1)


Q_EDGE = st.sampled_from([0, 1, -1, 2**62, 2**63 - 1, -(2**63 - 1), 2**63, 2**64 + 1]) | \
    st.integers(-(2**70), 2**70)
ARRAY_FIELDS = {
    "gf-pmax": (GF(P_MAX), _edge_coord(P_MAX)),
    "gf-pmax2": (GF(P_MAX, 2, nonresidue=P_MAX - 2),
                 st.tuples(_edge_coord(P_MAX), _edge_coord(P_MAX))),
    "q": (QQ, st.builds(Fraction, Q_EDGE, st.integers(1, 2**20) | st.just(1))),
}


@pytest.mark.parametrize("name", ARRAY_FIELDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_array_operations_match_field_loops(name, data):
    K, entry = ARRAY_FIELDS[name]
    # 0 x 0 and n x 0 included: a matrix without rows has no columns
    r = data.draw(st.integers(0, 4), label="rows")
    k = data.draw(st.integers(0, 4), label="cols") if r else 0
    A, B, C = (Mat(K, [[data.draw(entry) for _ in range(cc)] for _ in range(rr)])
               for rr, cc in ((r, k), (r, k), (data.draw(st.integers(1, 3)),) * 2))
    v = [data.draw(entry) for _ in range(r)]
    _check_array_operations(A, B, C, data.draw(entry), v)


@pytest.mark.parametrize("name", ARRAY_FIELDS)
def test_array_operations_on_empty_shapes(name):
    K, _ = ARRAY_FIELDS[name]
    for M in (Mat(K, []), Mat(K, [[], [], []]), Mat.zeros(K, 0, 3), Mat.zeros(K, 3, 0)):
        _check_array_operations(M, M, Mat.identity(K, 2), K.one(), [K.one()] * M.nrows)
    assert Mat.zeros(K, 0, 3).transpose().rows == [[], [], []]
    assert kron(Mat(K, [[], []]), Mat.identity(K, 2)).rows == [[], [], [], []]


@pytest.mark.parametrize("name", ARRAY_FIELDS)
def test_rows_refuse_writes(name):
    # .rows is derived from the array, so a write into it could only be lost
    K, _ = ARRAY_FIELDS[name]
    M = Mat.identity(K, 2)
    writes = (lambda r: r.__setitem__(0, r[1]), lambda r: r.pop(),
              lambda r: r[0].__setitem__(0, K.zero()), lambda r: r[1].append(K.one()))
    for write in writes:
        with pytest.raises(TypeError):
            write(M.rows)
    assert M == Mat.identity(K, 2) and M.rows == [[K.one(), K.zero()], [K.zero(), K.one()]]
    assert type(M.vec()) is list


def test_q_sums_and_scalings_at_the_int64_edge():
    # 2^62 + 2^62 = 2^63 wraps in int64: every operation must leave int64 first
    big = Mat(QQ, [[Fraction(2**62), Fraction(-(2**62))]])
    edge = [[Fraction(2**63), Fraction(-(2**63))]]
    assert (big + big).rows == edge
    assert (big - (-big)).rows == edge
    assert big.scale(Fraction(2)).rows == edge
    assert kron(big, Mat(QQ, [[Fraction(2)]])).rows == edge
    # over a common denominator the scaled numerators set the bound
    A, B = Mat(QQ, [[Fraction(2**62, 3)]]), Mat(QQ, [[Fraction(2**62, 5)]])
    assert (A + B).rows == [[Fraction(2**65, 15)]]
    assert Mat.from_blocks([[A, B]]).rows == [[Fraction(2**62, 3), Fraction(2**62, 5)]]
    # a zero matrix over a denominator beyond 2^63 is the zero matrix over 1
    assert Mat.zeros(QQ, 1, 2).scale(Fraction(1, 2**80)) == Mat.zeros(QQ, 1, 2)
