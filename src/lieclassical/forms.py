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


def _form_value(A: Mat, u, v):
    return (Mat(A.field, [u]) @ A @ Mat(A.field, [v]).transpose()).rows[0][0]


def standard_symplectic_gram(K: Field, m: int) -> Mat:
    if m % 2:
        raise ValueError("symplectic Gram needs even size")
    n = m // 2
    Z = Mat.zeros(K, n, n)
    eye = Mat.identity(K, n)
    return Mat.from_blocks([[Z, eye], [-eye, Z]])


def diagonalize_symmetric(A: Mat) -> CongruenceResult:
    form = classify(A)
    if not form.symmetric:
        raise ValueError("diagonalization needs a symmetric form")
    K = A.field
    char2 = K.char == 2
    if char2 and form.alternating and not A.is_zero():
        raise ValueError("alternating form in characteristic 2 has no diagonal Gram")
    m = A.nrows
    done = []
    remaining = list(Mat.identity(K, m).rows)
    while remaining:
        # everything orthogonal to `done` lives in span(remaining)
        vals = [_form_value(A, w, w) for w in remaining]
        idx = next((i for i, q in enumerate(vals) if not K.is_zero(q)), None)
        if idx is None:
            if not char2:
                # f(w,w)=0 everywhere; if some f(w1,w2)=c != 0 then w1+w2 works
                pair = _nonzero_pair(A, remaining)
                if pair is None:
                    done.extend(remaining)
                    break
                i, j, c = pair
                remaining[i] = [K.add(a, b) for a, b in zip(remaining[i], remaining[j])]
                continue
            # char 2: the complement went alternating.  Take a hyperbolic
            # pair v, w there (f(v, w) = 1) and swap the last chosen vector
            # u for u + v.  Squares add in characteristic 2, so
            # q(u + v) = q(u) != 0, and the projection of w into the new
            # complement has square 1/q(u) != 0, so progress is guaranteed.
            pair = _nonzero_pair(A, remaining)
            if pair is None:
                done.extend(remaining)
                break
            if not done:
                raise ValueError("alternating form in characteristic 2 has no diagonal Gram")
            i, j, c = pair
            v = [K.mul(K.inv(c), a) for a in remaining[i]]
            u = done.pop()
            u2 = [K.add(a, b) for a, b in zip(u, v)]
            done.append(u2)
            projected = _orth_complement(A, remaining + [u], u2)
            # the projections carry one dependency; rebuild an independent basis
            remaining = list(Subspace.from_rows(K, m, projected).basis.rows)
            continue
        u = remaining.pop(idx)
        done.append(u)
        remaining = _orth_complement(A, remaining, u)
    S = Mat(K, done).transpose()
    D = S.transpose() @ A @ S
    if D != Mat.diag(K, D.diagonal()):
        raise AssertionError("diagonalization failed to reach diagonal form")
    if K.is_zero(S.det()):
        raise AssertionError("diagonalizing transform is singular")
    return CongruenceResult(S, D)


def _nonzero_pair(A: Mat, vectors):
    K = A.field
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            c = _form_value(A, vectors[i], vectors[j])
            if not K.is_zero(c):
                return i, j, c
    return None


def _orth_complement(A: Mat, vectors, u):
    """Replace each vector by its f-projection away from u (q(u) != 0)."""
    K = A.field
    q = _form_value(A, u, u)
    qinv = K.inv(q)
    out = []
    for w in vectors:
        c = K.mul(qinv, _form_value(A, u, w))
        w2 = [K.sub(a, K.mul(c, b)) for a, b in zip(w, u)]
        if any(not K.is_zero(a) for a in w2):
            out.append(w2)
    return out


def discriminant_is_square(form: BilForm) -> bool:
    if not form.nondegenerate:
        raise ValueError("discriminant of a degenerate form")
    return form.field.is_square(form.gram.det())
