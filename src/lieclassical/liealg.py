"""Matrix Lie algebras inside gl(m) and a few abstract companions.

Elements of algebras and modules are stored vectorized (row-major, length
m*m): a Lie subalgebra of gl(m) is its `Subspace` of F^(m*m), m the square
root of its ambient, so all structural computation reduces to exact
subspace operations.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import Field
from .linalg import Mat, Subspace, kernel, kron, kron_sum_stack


def bracket(X: Mat, Y: Mat) -> Mat:
    return X @ Y - Y @ X


def ad_gl(x: Mat) -> Mat:
    """ad x = [x, -] on gl(m) in row-major coordinates."""
    return ad_stack(x.reshape(1, x.nrows * x.ncols))


def ad_stack(X: Mat) -> Mat:
    """The stack of ad x for the rows vec(x) of X: x y - y x has
    vec(x y) = kron(x, I) vec(y) and vec(y x) = kron(I, x') vec(y)."""
    return kron_sum_stack(X, X[:, transposed_positions(math.isqrt(X.ncols))], -1)


def transposed_positions(m):
    """The row-major positions of X' read in row-major order: vec(X') is
    vec(X) at these positions."""
    return [j * m + i for i in range(m) for j in range(m)]


def gl_subspace(K: Field, m: int) -> Subspace:
    return Subspace.full(K, m * m)


def sl_subspace(K: Field, m: int) -> Subspace:
    return kernel(Mat.identity(K, m).reshape(1, m * m))


def scalars_subspace(K: Field, m: int) -> Subspace:
    return Subspace.span(Mat.identity(K, m).reshape(1, m * m))


def is_bracket_closed(L: Subspace) -> bool:
    """[L, L] in L, from the brackets of every pair of basis matrices."""
    return L.residuals(bracket_rows(L.basis, L.basis)).is_zero()


def skew_adjoint_algebra(A: Mat) -> Subspace:
    """L(A) = {X : X'A = -AX}, the symplectic/orthogonal algebra of A."""
    return kernel(_adjoint_condition(A, 1))


def self_adjoint_module(A: Mat) -> Subspace:
    """M(A) = {Y : Y'A = AY}, an L(A)-submodule of gl(m)."""
    return kernel(_adjoint_condition(A, -1))


def _adjoint_condition(A: Mat, sign) -> Mat:
    """The matrix of X -> X'A + sign AX on row-major vecs: vec(AX) is
    kron(A, I) vec X."""
    xt_a, ax = transpose_product(A), kron(A, Mat.identity(A.field, A.nrows))
    return xt_a + ax if sign > 0 else xt_a - ax


def transpose_product(A: Mat) -> Mat:
    """The matrix of X -> X'A on row-major vecs: vec(X'A) is kron(I, A')
    vec X', which reads vec X at the transposed positions."""
    m = A.nrows
    return kron(Mat.identity(A.field, m), A.transpose())[:, transposed_positions(m)]


def derived_series(L: Subspace):
    """[L, L^(1), L^(2), ...] iterated until stabilization: L^(k+1) is spanned
    by the brackets of the pairs i < j of L^(k)'s basis."""
    series = [L]
    while series[-1].dim:
        B, q = series[-1].basis, series[-1].dim
        pairs = [i * q + j for i in range(q) for j in range(i + 1, q)]
        nxt = Subspace.span(bracket_rows(B, B)[pairs, :])
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def trace_gram(X: Mat, Y: Mat) -> Mat:
    """The matrix of tr(x y) for the rows vec(x) of X and vec(y) of Y:
    tr(x y) = <vec(x'), vec(y)>, and vec(x') is vec(x) at the transposed
    positions."""
    return X[:, transposed_positions(math.isqrt(X.ncols))] @ Y.transpose()


def trace_orthogonal_complement(U: Subspace, within: Subspace) -> Subspace:
    """{x in `within` : tr(x u) = 0 for all u in U}."""
    return within.lift_subspace(kernel(trace_gram(U.basis, within.basis)))


class StructureConstants:
    """Abstract Lie algebra on a basis e_0 .. e_(q-1), held as its q^2 x q
    structure constants `table`: row i q + j holds the coordinates of
    [e_i, e_j]."""

    def __init__(self, field: Field, table: Mat):
        self.field = field
        self.table = table

    @property
    def dim(self):
        return self.table.ncols


def heisenberg(K: Field, n: int) -> StructureConstants:
    """h(n): basis u_1..u_n, v_1..v_n, z with [u_i, v_i] = z central."""
    if n < 1:
        raise ValueError("need n >= 1")
    d = 2 * n + 1
    table = np.zeros((d * d, d), dtype=np.int64)
    u = np.arange(n)
    table[u * d + n + u, d - 1] = 1
    table[(n + u) * d + u, d - 1] = -1
    return StructureConstants(K, Mat.from_ints(K, table))


def quotient_algebra(L: Subspace, ideal: Subspace, reps: Mat | None = None):
    """Structure constants of L/ideal on coset representatives.

    Returns (StructureConstants, reps) where reps has the rows vec(x) of
    elements x of L whose cosets form the chosen basis.  Raises if `ideal`
    is not an ideal of L.
    With R the q x q matrix of the representatives' coordinates modulo the
    ideal, the table is the brackets' coordinates modulo the ideal times
    R^-1: the representatives are a basis of L/ideal, so R is invertible
    and the constants are unique.
    """
    K = L.field
    if not L.contains(ideal):
        raise ValueError("ideal is not contained in the algebra")
    if not ideal.residuals(bracket_rows(L.basis, ideal.basis)).is_zero():
        raise ValueError("subspace is not an ideal")
    # coordinates of the ideal inside L
    coords_I = Subspace.span(ideal.basis[:, list(L.pivots)])
    q = L.dim - ideal.dim
    if reps is None:
        reps = L.basis[coords_I.nonpivots(), :]
    if reps.nrows != q:
        raise ValueError(f"need {q} coset representatives, got {reps.nrows}")
    if not q:
        return StructureConstants(K, Mat.zeros(K, 0, 0)), reps

    def reduced(X):
        return coords_I.residuals(L.coords_of(X))

    red_reps = reduced(reps)
    if Subspace.span(red_reps).dim != q:
        raise ValueError("representatives are dependent modulo the ideal")
    table = reduced(bracket_rows(reps, reps)) @ red_reps.inv()
    return StructureConstants(K, table), reps


def bracket_rows(X: Mat, Y: Mat) -> Mat:
    """The rows vec([x_i, y_j]) for the rows vec(x_i) of X and vec(y_j) of
    Y, y running fastest.  Two products: the x_i stacked times the y_j side
    by side has the blocks x_i y_j, and the y_j stacked times the x_i side
    by side the blocks y_j x_i; one row gather each puts them in the order
    (i, j, row)."""
    K, m, a, b = X.field, math.isqrt(X.ncols), X.nrows, Y.nrows
    if not a * b:
        return Mat.zeros(K, 0, m * m)

    def products(P, Q, order):
        # Q's rows read at the transposed positions are the vecs of the q';
        # stacked and transposed, they are the q side by side
        side = Q[:, transposed_positions(m)].reshape(Q.nrows * m, m).transpose()
        rows = (P.reshape(P.nrows * m, m) @ side).reshape(P.nrows * m * Q.nrows, m)
        return rows[order.ravel(), :]

    irj = np.arange(a * m * b).reshape(a, m, b).transpose(0, 2, 1)
    jri = np.arange(b * m * a).reshape(b, m, a).transpose(2, 0, 1)
    return (products(X, Y, irj) - products(Y, X, jri)).reshape(a * b, m * m)


def lie_isomorphic_by_structure(Q: StructureConstants, H: StructureConstants, M: Mat) -> bool:
    """Does the linear map M (Q-coords to H-coords) preserve all brackets?"""
    if Q.dim != H.dim or M.nrows != H.dim or M.ncols != Q.dim:
        return False
    K = Q.field
    if K.is_zero(M.det()):
        return False
    # all brackets at once: M [e_i, e_j] is row (i, j) of T_Q M', and
    # [M e_i, M e_j] = sum_ab M_ai M_bj [f_a, f_b] is row (i, j) of kron(M', M') T_H
    Mt = M.transpose()
    return Q.table @ Mt == kron(Mt, Mt) @ H.table


def is_simple(alg, primes=None) -> bool:
    """Simplicity of alg, a subalgebra of gl(m) (its `Subspace`) or a
    `StructureConstants`, via irreducibility of the adjoint module (over Q
    at the given primes, see `repmod.irreducible`).

    Ideals of a Lie algebra are exactly the submodules of its adjoint
    module, so dim > 1 plus an irreducible adjoint module is simplicity.
    """
    from .repmod import LieModule, irreducible

    if alg.dim <= 1:
        return False
    if isinstance(alg, Subspace):
        # the structure constants of the basis: no gl(m) action is built
        alg = StructureConstants(alg.field, alg.coords_of(bracket_rows(alg.basis, alg.basis)))
    # column j of ad(e_i) is table row i q + j, so row r q + i of the table's
    # transpose, reshaped, is row r of ad(e_i); one gather orders them by i
    q = alg.dim
    stack = alg.table.transpose().reshape(q * q, q)[transposed_positions(q), :]
    return irreducible(LieModule(alg.field, q, stack), primes)[0]
