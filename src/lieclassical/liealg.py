"""Matrix Lie algebras inside gl(m) and a few abstract companions.

Elements of algebras and modules are stored vectorized (row-major, length
m*m), so all structural computation reduces to exact subspace operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import Field
from .linalg import Mat, Subspace, kernel, kron, kron_sum_stack, solve_many


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


@dataclass(frozen=True)
class MatLieAlg:
    """A Lie subalgebra of gl(m), held as a subspace of F^{m*m}."""

    m: int
    space: Subspace
    label: str = dc_field(default="", compare=False)

    @property
    def field(self) -> Field:
        return self.space.field

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis_mats(self):
        return self.space.matrices(self.m, self.m)

    def contains(self, X: Mat) -> bool:
        return self.space.contains_vector(X.vec())

    def is_bracket_closed(self) -> bool:
        mats = self.basis_mats()
        return self.space.residuals(bracket_rows(self.field, self.m, mats, mats)).is_zero()

    def with_space(self, space: Subspace, label=""):
        return MatLieAlg(self.m, space, label or self.label)


def skew_adjoint_algebra(A: Mat, label="") -> MatLieAlg:
    """L(A) = {X : X'A = -AX}, the symplectic/orthogonal algebra of A."""
    return MatLieAlg(A.nrows, kernel(_adjoint_condition(A, 1)), label or "L(A)")


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


def derived_space(m: int, space: Subspace) -> Subspace:
    K = space.field
    mats = space.matrices(m, m)
    pairs = [i * len(mats) + j for i in range(len(mats)) for j in range(i + 1, len(mats))]
    return Subspace.span(bracket_rows(K, m, mats, mats)[pairs, :])


def derived(L: MatLieAlg) -> MatLieAlg:
    return L.with_space(derived_space(L.m, L.space))


def derived_series(L: MatLieAlg):
    """[L, L^(1), L^(2), ...] iterated until stabilization."""
    series = [L]
    while True:
        nxt = derived(series[-1])
        if nxt.space == series[-1].space:
            break
        series.append(nxt)
        if nxt.dim == 0:
            break
    return series


def trace_pairing(x: Mat, y: Mat):
    return (x @ y).trace()


def trace_orthogonal_complement(U: Subspace, within: Subspace) -> Subspace:
    """{x in `within` : tr(x u) = 0 for all u in U}."""
    m2 = U.ambient
    m = math.isqrt(m2)
    if m * m != m2:
        raise ValueError("ambient dimension is not a square")
    if not within.dim:
        return within
    # tr(XU) = <vec(X), vec(U')>, so each u contributes one linear constraint
    # vec(u'), the entries of vec(u) at the transposed positions
    C = U.basis[:, transposed_positions(m)]
    coords_kernel = kernel(C @ within.basis.transpose())
    return Subspace.span(coords_kernel.basis @ within.basis)


class StructureConstants:
    """Abstract Lie algebra on a named basis with an explicit bracket table."""

    def __init__(self, field: Field, labels, table):
        self.field = field
        self.labels = list(labels)
        self.table = table  # table[i][j] = coefficient vector of [e_i, e_j]

    @property
    def dim(self):
        return len(self.labels)

    def bracket_coeffs(self, x, y):
        K = self.field
        out = [K.zero()] * self.dim
        for i, a in enumerate(x):
            if K.is_zero(a):
                continue
            for j, b in enumerate(y):
                if K.is_zero(b):
                    continue
                c = K.mul(a, b)
                for k, t in enumerate(self.table[i][j]):
                    if not K.is_zero(t):
                        out[k] = K.add(out[k], K.mul(c, t))
        return out

    def adjoint_matrices(self):
        """ad(e_i) as dim x dim matrices (columns indexed by e_j)."""
        return [Mat(self.field, self.table[i]).transpose() for i in range(self.dim)]


def heisenberg(K: Field, n: int) -> StructureConstants:
    """h(n): basis u_1..u_n, v_1..v_n, z with [u_i, v_i] = z central."""
    if n < 1:
        raise ValueError("need n >= 1")
    d = 2 * n + 1
    labels = [f"u{i+1}" for i in range(n)] + [f"v{i+1}" for i in range(n)] + ["z"]
    table = [[[K.zero()] * d for _ in range(d)] for _ in range(d)]
    for i in range(n):
        table[i][n + i] = [K.zero()] * (d - 1) + [K.one()]
        table[n + i][i] = [K.zero()] * (d - 1) + [K.neg(K.one())]
    return StructureConstants(K, labels, table)


def quotient_algebra(L: MatLieAlg, ideal: Subspace, reps=None):
    """Structure constants of L/ideal on coset representatives.

    Returns (StructureConstants, reps) where reps are matrices in L whose
    cosets form the chosen basis.  Raises if `ideal` is not an ideal of L.
    """
    K = L.field
    if not L.space.contains(ideal):
        raise ValueError("ideal is not contained in the algebra")
    basis = L.basis_mats()
    ideal_mats = ideal.matrices(L.m, L.m)
    if not ideal.residuals(bracket_rows(K, L.m, basis, ideal_mats)).is_zero():
        raise ValueError("subspace is not an ideal")
    # coordinates of the ideal inside L
    coords_I = Subspace.span(ideal.basis[:, list(L.space.pivots)])
    q = L.dim - ideal.dim
    if reps is None:
        reps = [basis[j] for j in coords_I.nonpivots()]
    if len(reps) != q:
        raise ValueError(f"need {q} coset representatives, got {len(reps)}")
    if not q:
        return StructureConstants(K, [], []), reps

    def reduced(X):
        return coords_I.residuals(L.space.coords_of(X))

    red_reps = reduced(Mat.from_blocks([[X.reshape(1, L.m * L.m)] for X in reps]))
    if Subspace.span(red_reps).dim != q:
        raise ValueError("representatives are dependent modulo the ideal")

    brackets = reduced(bracket_rows(K, L.m, reps, reps))
    coords = solve_many(red_reps.transpose(), brackets.rows)
    if coords is None:
        raise AssertionError("bracket left the span of the representatives")
    table = [coords[i * q : (i + 1) * q] for i in range(q)]
    labels = [f"r{i}" for i in range(q)]
    return StructureConstants(K, labels, table), reps


def bracket_rows(K: Field, m: int, xs, ys) -> Mat:
    """The matrix whose rows are the vecs of [x, y] for x in xs and y in ys,
    y running fastest: two products of the stacks, X Y of blocks x_i y_j and
    Y X of blocks y_j x_i, whose rows are read in the order (i, j, row)."""
    a, b = len(xs), len(ys)
    if not a * b:
        return Mat.zeros(K, 0, m * m)
    xy = (Mat.from_blocks([[x] for x in xs]) @ Mat.from_blocks([ys])).reshape(a * m * b, m)
    yx = (Mat.from_blocks([[y] for y in ys]) @ Mat.from_blocks([xs])).reshape(b * m * a, m)
    irj, jri = np.arange(a * m * b).reshape(a, m, b), np.arange(b * m * a).reshape(b, m, a)
    return (xy[irj.transpose(0, 2, 1).ravel(), :]
            - yx[jri.transpose(2, 0, 1).ravel(), :]).reshape(a * b, m * m)


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
    return _table(Q) @ Mt == kron(Mt, Mt) @ _table(H)


def _table(A: StructureConstants) -> Mat:
    """The q^2 x q matrix T whose row (i, j) holds the coordinates of [e_i, e_j]."""
    return Mat(A.field, [row for rows in A.table for row in rows])


def is_simple(alg, budget: int | None = None) -> bool:
    """Simplicity via irreducibility of the adjoint module.

    Ideals of a Lie algebra are exactly the submodules of its adjoint
    module, so dim > 1 plus an irreducible adjoint module is simplicity.
    """
    from .repmod import LieModule, adjoint_module, certify_irreducible

    if alg.dim <= 1:
        return False
    if isinstance(alg, StructureConstants):
        mats = alg.adjoint_matrices()
        module = LieModule(alg.field, alg.dim, [(f"ad{i}", a) for i, a in enumerate(mats)])
    else:
        module = adjoint_module(alg, alg.space)
    res = certify_irreducible(module, budget=budget)
    if res.status == "budget-exceeded":
        raise ValueError("irreducibility budget exceeded")
    return res.status == "irreducible"
