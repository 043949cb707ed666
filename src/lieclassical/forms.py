"""Bilinear form classification and congruence normal forms.

A form is carried by its Gram matrix A; f(u, v) = u' A v.  We produce the
standard symplectic Gram matrix and a diagonalizing basis for symmetric
forms, including the non-alternating characteristic 2 case where the usual
orthogonal-complement recursion needs extra care.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field
from .linalg import Mat, Subspace


@dataclass(frozen=True)
class BilForm:
    gram: Mat
    symmetric: bool
    alternating: bool
    nondegenerate: bool

    @property
    def field(self) -> Field:
        return self.gram.field

    @property
    def m(self) -> int:
        return self.gram.nrows


@dataclass(frozen=True)
class CongruenceResult:
    """Invertible S with S' A S = normal_form."""

    transform: Mat
    normal_form: Mat


def classify(A: Mat) -> BilForm:
    if A.nrows != A.ncols:
        raise ValueError("Gram matrix must be square")
    K = A.field
    symmetric = A == A.transpose()
    skew = A.transpose() == -A
    alternating = skew and all(K.is_zero(a) for a in A.diagonal())
    nondeg = not K.is_zero(A.det())
    return BilForm(A, symmetric, alternating, nondeg)


def standard_symplectic_gram(K: Field, m: int) -> Mat:
    if m % 2:
        raise ValueError("symplectic Gram needs even size")
    n = m // 2
    Z = Mat.zeros(K, n, n)
    eye = Mat.identity(K, n)
    return Mat.from_blocks([[Z, eye], [-eye, Z]])


def diagonalize_symmetric(A: Mat) -> CongruenceResult:
    """S with S' A S diagonal, for a symmetric A that is not alternating in
    characteristic 2.  The chosen vectors and a basis R of their complement
    are Mat rows, and each step reads the Gram matrix R A R' once: the first
    w with q(w) = f(w, w) != 0 is chosen and one product projects the rest
    of R away from it, or else the first pair with f(w_i, w_j) != 0 is used."""
    form = classify(A)
    if not form.symmetric:
        raise ValueError("diagonalization needs a symmetric form")
    K, char2 = A.field, A.field.char == 2
    if char2 and form.alternating and not A.is_zero():
        raise ValueError("alternating form in characteristic 2 has no diagonal Gram")
    done, R = Mat.zeros(K, 0, A.nrows), Mat.identity(K, A.nrows)
    while R.nrows:
        r = R.nrows
        G = R @ A @ R.transpose()
        nonzero = G.reshape(r * r, 1).nonzero_rows()  # row-major positions
        chosen = [k // (r + 1) for k in nonzero if k % (r + 1) == 0]
        if chosen:
            i = chosen[0]
            rest, u = [k for k in range(r) if k != i], R[[i], :]
            done = Mat.from_blocks([[done], [u]])
            P = R[rest, :] - G[rest, [i]].scale(K.inv(G.rows[i][i])) @ u
            R = P[P.nonzero_rows(), :]
            continue
        if not nonzero:  # f vanishes on span(R)
            done = Mat.from_blocks([[done], [R]])
            break
        # q vanishes on R and G is symmetric: its first nonzero entry is
        # f(w_i, w_j) with i < j
        i, j = divmod(nonzero[0], r)
        if not char2:  # q(w_i + w_j) = 2 f(w_i, w_j) != 0
            R = (Mat.identity(K, r) + Mat.unit(K, r, r, i, j)) @ R
            continue
        # char 2: the complement went alternating.  Take the hyperbolic pair
        # v = w_i / f(w_i, w_j), w_j and swap the last chosen vector u for
        # u + v.  Squares add in characteristic 2, so q(u + v) = q(u) != 0,
        # and the projection of w_j into the new complement has square
        # 1/q(u) != 0, so progress is guaranteed.  A vector was chosen
        # already: on R = I, G = A, whose zero diagonal makes it alternating.
        u = done[[done.nrows - 1], :]
        u2 = u + R[[i], :].scale(K.inv(G.rows[i][j]))
        done = Mat.from_blocks([[done[: done.nrows - 1, :]], [u2]])
        W = Mat.from_blocks([[R], [u]])
        q = (u2 @ A @ u2.transpose()).rows[0][0]
        # the projections carry one dependency: R is a basis of their span
        R = Subspace.span(W - (W @ A @ u2.transpose()).scale(K.inv(q)) @ u2).basis
    S = done.transpose()
    D = S.transpose() @ A @ S
    if D != Mat.diag(K, D.diagonal()):
        raise AssertionError("diagonalization failed to reach diagonal form")
    if K.is_zero(S.det()):
        raise AssertionError("diagonalizing transform is singular")
    return CongruenceResult(S, D)


def discriminant_is_square(form: BilForm) -> bool:
    if not form.nondegenerate:
        raise ValueError("discriminant of a degenerate form")
    return form.field.is_square(form.gram.det())
