"""Dense exact linear algebra over the supported fields.

A `Mat` holds one numpy array in the format of its field family: int64
residues over GF(p); int64 residue pairs A0 + A1 w over GF(p^2) =
GF(p)[w]/(w^2 - r), the pair on a leading axis of length 2; over Q, integer
numerators over one positive common denominator, kept in lowest terms (int64
while every numerator is below 2^63 in absolute value, Python ints
otherwise).  Arithmetic, products, Kronecker products and submatrices are
exact array operations, a GF(p^2) product one GF(p) product of a 2 x 2
block embedding; structured matrices are built from arrays and the text
format is read off them; `Mat.rows` is a derived, read-only list of
canonical scalars for det and the scalar algorithms.

A `Subspace` holds its canonical RREF basis as one `Mat` next to its pivots,
and reduces, tests membership, takes coordinates and lifts them with
products of that basis at its non-pivot columns; one whose canonical basis
is known (an image of coordinates, coordinates in a larger subspace) is
built without elimination.  Each field family has one incremental echelon
basis whose fully reduced rows are the RREF; rref, kernels (one elimination
of M with its columns reversed; `null_spaces`: of [M reversed | I]),
subspaces, spins and the Krylov characteristic polynomial go through it:
`EchelonGFp` on the residue (pair) arrays over every finite field, a block
of rows at a time, with optional carried columns that hold no pivot, and
`Echelon` on primitive Python-int rows, fraction-free, over Q, one row at a
time.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import GF, Field, field_from_token


class Mat:
    """Immutable dense matrix over one exact field, held as one array in the
    format of its field family (see the module docstring)."""

    __slots__ = ("field", "a", "d")

    def __init__(self, field: Field, rows):
        rows = [list(r) for r in rows]
        shape = (len(rows), len(rows[0]) if rows else 0)
        d = 1
        if field.degree == 2:
            a = np.array(rows, dtype=np.int64).reshape(*shape, 2).transpose(2, 0, 1) % field.char
        elif field.char:
            a = np.array(rows, dtype=np.int64).reshape(shape) % field.char
        else:
            d = math.lcm(*(x.denominator for r in rows for x in r))
            num = [[x.numerator * (d // x.denominator) for x in r] for r in rows]
            a, d = _lowest_terms(np.array(num, dtype=object).reshape(shape), d)
        self.field, self.a, self.d = field, a, d

    @classmethod
    def _of(cls, field, a, d=1):
        """The matrix of an array in field's format: canonical residues over
        GF(p) and GF(p^2), any integer numerators over d over Q."""
        M = cls.__new__(cls)
        if not field.char:
            a, d = _lowest_terms(a, d)
        M.field, M.a, M.d = field, a, d
        return M

    @property
    def nrows(self):
        return self.a.shape[-2]

    @property
    def ncols(self):
        return self.a.shape[-1]

    @property
    def rows(self):
        """The entries as read-only lists of canonical scalars (Python ints,
        pairs or Fractions), derived from the array: writing into them
        raises, since the write could only be lost."""
        return _ReadOnly(map(_ReadOnly, self._scalar_rows()))

    def _scalar_rows(self):
        K = self.field
        if K.degree == 2:
            return [list(zip(r0, r1)) for r0, r1 in zip(*(x.tolist() for x in self.a))]
        if not K.char:
            d = self.d
            return [[Fraction(x, d) for x in r] for r in self.a.tolist()]
        return self.a.tolist()

    @classmethod
    def from_ints(cls, field, a):
        """The matrix over field of an int64 array of integers: residues mod p,
        pairs with a zero w part over GF(p^2), numerators over 1 over Q."""
        a = _mod(field, a.astype(np.int64))
        if field.degree == 2:
            pair = np.zeros((2, *a.shape), dtype=np.int64)
            pair[0] = a
            a = pair
        return cls._of(field, a)

    @classmethod
    def zeros(cls, field, r, c):
        return cls.from_ints(field, np.zeros((r, c), dtype=np.int64))

    @classmethod
    def identity(cls, field, n):
        return cls.from_ints(field, np.eye(n, dtype=np.int64))

    @classmethod
    def unit(cls, field, r, c, i, j):
        """The canonical matrix with a single 1 in position (i, j)."""
        a = np.zeros((r, c), dtype=np.int64)
        a[i, j] = 1
        return cls.from_ints(field, a)

    @classmethod
    def diag(cls, field, entries):
        """The diagonal matrix of entries: one 1 x n matrix of them, scattered
        onto the diagonal."""
        row, n = cls(field, [entries]), len(entries)
        a = np.zeros(row.a.shape[:-2] + (n, n), dtype=row.a.dtype)
        a[..., np.arange(n), np.arange(n)] = row.a[..., 0, :]
        return cls._of(field, a, row.d)

    @classmethod
    def from_blocks(cls, blocks):
        """Assemble from a 2D grid of matrices with matching shapes."""
        arrays, d = _aligned([b for row in blocks for b in row])
        it = iter(arrays)
        grid = [np.concatenate([next(it) for _ in row], axis=-1) for row in blocks]
        return cls._of(blocks[0][0].field, np.concatenate(grid, axis=-2), d)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.d == other.d
            and np.array_equal(self.a, other.a)
        )

    def __hash__(self):
        return hash((self.field, self.a.shape, self.d, tuple(self.a.ravel().tolist())))

    def __add__(self, other):
        (a, b), d = _aligned([self, other], terms=2)
        return Mat._of(self.field, _mod(self.field, a + b), d)

    def __sub__(self, other):
        (a, b), d = _aligned([self, other], terms=2)
        return Mat._of(self.field, _mod(self.field, a - b), d)

    def __neg__(self):
        return Mat._of(self.field, _mod(self.field, -self.a), self.d)

    def scale(self, c):
        K, a = self.field, self.a
        if K.char:
            return Mat._of(K, _times(K, a, np.reshape(c, a.shape[:-2] + (1, 1))))
        c = Fraction(c)
        (a,) = _exact(_height(a) * max(abs(c.numerator), 1), a)
        return Mat._of(K, a * c.numerator, self.d * c.denominator)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        K, a, b = self.field, self.a, other.a
        if K.char:
            return Mat._of(K, _dot(K, a, b))
        # Q: (a / d_a) @ (b / d_b) = (a @ b) / (d_a d_b); no entry of a @ b,
        # nor any partial sum, exceeds ncols max|a| max|b| in absolute value
        a, b = _exact(self.ncols * _height(a) * _height(b), a, b)
        return Mat._of(K, a @ b, self.d * other.d)

    def __getitem__(self, key):
        """The submatrix M[rows, cols]; each index is a slice or a list."""
        rows, cols = key
        return Mat._of(self.field, self.a[..., rows, :][..., cols], self.d)

    def transpose(self):
        return Mat._of(self.field, np.swapaxes(self.a, -1, -2), self.d)

    def reshape(self, r, c):
        """The same entries, read row by row, as an r x c matrix."""
        return Mat._of(self.field, self.a.reshape(*self.a.shape[:-2], r, c), self.d)

    def trace(self):
        K = self.field
        diag = np.diagonal(self.a, axis1=-2, axis2=-1).tolist()
        if K.degree == 2:
            return tuple(sum(x) % K.char for x in diag)
        if K.char:
            return sum(diag) % K.char
        return Fraction(sum(diag), self.d)

    def diagonal(self):
        return [r[i] for i, r in enumerate(self._scalar_rows())]

    def is_zero(self):
        return not self.a.any()

    def nonzero_rows(self):
        """The indices of the rows with a nonzero entry."""
        nonzero = (self.a != 0).any(axis=-1)  # over GF(p^2): in either half
        return np.flatnonzero(nonzero.any(axis=0) if nonzero.ndim == 2 else nonzero).tolist()

    def vec(self):
        """Row-major flattening."""
        return self.reshape(1, self.nrows * self.ncols)._scalar_rows()[0]

    def cleared_mod(self, p):
        """Over Q: each row times the least common denominator of its own
        entries, an integer row, reduced mod p, over GF(p).  Row r is a_r / d,
        and that denominator is d / gcd(d, a_r)."""
        a = self.a.astype(object) if self.d >= 2**63 else self.a
        g = np.gcd(np.gcd.reduce(a, axis=-1, keepdims=True), self.d)
        return Mat._of(GF(p), (a // g % p).astype(np.int64))

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of non-square matrix")
        K = self.field
        a = self._scalar_rows()
        n = self.nrows
        det = K.one()
        for col in range(n):
            piv = next((r for r in range(col, n) if not K.is_zero(a[r][col])), None)
            if piv is None:
                return K.zero()
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                det = K.neg(det)
            det = K.mul(det, a[col][col])
            inv = K.inv(a[col][col])
            for r in range(col + 1, n):
                if K.is_zero(a[r][col]):
                    continue
                f = K.mul(a[r][col], inv)
                a[r] = [K.sub(x, K.mul(f, y)) for x, y in zip(a[r], a[col])]
        return det

    def inv(self):
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        # [M | I] always has rank n; M is invertible iff its pivots are M's columns
        red, _, pivots = rref(Mat.from_blocks([[self, Mat.identity(self.field, n)]]))
        if pivots != tuple(range(n)):
            raise ValueError("matrix is singular")
        return red[:, n:]

    def to_text(self):
        """The header `rows cols token`, then one line per row: residues over
        GF(p), a+b*x over GF(p^2), n or n/d in lowest terms over Q."""
        K, a = self.field, self.a
        if K.degree == 2:
            rows = [[f"{x}+{y}*x" for x, y in zip(r0, r1)]
                    for r0, r1 in zip(a[0].tolist(), a[1].tolist())]
        elif K.char:
            rows = [map(str, r) for r in a.tolist()]
        else:
            # entry x / d in lowest terms: divide both by gcd(x, d), which is
            # d for x = 0, so zeros read 0; a d beyond int64 needs int objects
            a = a.astype(object) if self.d >= 2**63 else a
            g = np.gcd(a, self.d)
            rows = [[f"{x}" if e == 1 else f"{x}/{e}" for x, e in zip(r, s)]
                    for r, s in zip((a // g).tolist(), (self.d // g).tolist())]
        lines = [f"{self.nrows} {self.ncols} {K.token}"] + [" ".join(r) for r in rows]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str):
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        header = lines[0].split()
        if len(header) != 3:
            raise ValueError(f"bad matrix header: {lines[0]!r}")
        r, c = int(header[0]), int(header[1])
        K = field_from_token(header[2])
        if len(lines) != r + 1:
            raise ValueError(f"expected {r} rows, got {len(lines) - 1}")
        rows = []
        for ln in lines[1:]:
            entries = ln.split()
            if len(entries) != c:
                raise ValueError(f"expected {c} entries in row: {ln!r}")
            rows.append([K.parse(e) for e in entries])
        return cls(K, rows)

    def __repr__(self):
        return f"Mat({self.field!r}, {self.nrows}x{self.ncols})"


class _ReadOnly(list):
    """A list that refuses every write."""

    def _refuse(self, *args):
        raise TypeError("Mat.rows is read-only: build lists of rows and call Mat(field, rows)")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse


def _mod(K, a):  # in place over finite fields
    return _reduce(K.char, a) if K.char else a


def _height(a):
    """The largest absolute value in an integer array, at least 1."""
    return max(int(abs(a).max()), 1) if a.size else 1


def _exact(bound, *arrays):
    """The integer arrays in int64 when no value the operation at hand makes
    exceeds bound < 2^63 in absolute value, else in Python ints."""
    dtype = np.int64 if bound < 2**63 else object
    return [x.astype(dtype, copy=False) for x in arrays]


def _lowest_terms(num, d):
    """num / d with the gcd of d and all numerators divided out, in int64
    when every numerator fits.  A zero matrix gets d = 1 and keeps its
    numerators (g = d then, which need not fit in int64)."""
    if d != 1:
        g = math.gcd(d, int(np.gcd.reduce(num, axis=None)))
        if g > 1:
            num, d = num // g if num.any() else num, d // g
    if num.dtype == object and _height(num) < 2**63:
        num = num.astype(np.int64)
    return num, d


def _aligned(mats, terms=1):
    """The arrays of mats over one denominator D, and D (1 outside Q); over Q
    in int64 unless a sum of `terms` entries could reach 2^63."""
    if mats[0].field.char:
        return [M.a for M in mats], 1
    D = math.lcm(*(M.d for M in mats))
    scales = [D // M.d for M in mats]
    arrays = _exact(terms * max(_height(M.a) * s for M, s in zip(mats, scales)),
                    *(M.a for M in mats))
    return [x * s if s > 1 else x for x, s in zip(arrays, scales)], D


def _times(K, x, y):
    """The entrywise product of broadcastable arrays with as many axes, in
    the format of the finite field K (over GF(p^2) the pair on the leading
    axis), reduced once: x0 y0 + r x1 y1 <= (1 + r)(p-1)^2; where
    `_lazy_cap` is 0, each product of two residues is reduced first."""
    p = K.char
    if K.degree == 1:
        return _reduce(p, x * y)
    t = x[:, None] * y[None, :]  # t[i, j] = x_i y_j
    t = t if _lazy_cap(K) else _reduce(p, t)
    out = t[0] + t[1, ::-1]  # (x0 y0 + x1 y1, x0 y1 + x1 y0)
    out[0] += (K.nonresidue - 1) * t[1, 1]
    return _reduce(p, out)


def _lazy_cap(K):
    """How many unreduced products of residues, each at most (1 + r)(p-1)^2
    (r = 0 over GF(p)), an int64 residue can take; 0 over GF(p^2) from
    p = 1753413059 on for r = 2."""
    r = K.nonresidue if K.degree == 2 else 0
    return (2**63 - K.char) // ((1 + r) * (K.char - 1) ** 2)


def matvec(M: Mat, v):
    """M v as a list, for a vector v of scalars."""
    return (M @ Mat(M.field, [v]).transpose()).vec()


def kron(A: Mat, B: Mat) -> Mat:
    """Kronecker product; (kron(A,B))[(i,k),(j,l)] = A[i][j]*B[k][l]."""
    if A.field != B.field:
        raise ValueError("field mismatch in kron")
    K = A.field
    x, y = A.a[..., :, None, :, None], B.a[..., None, :, None, :]
    d = 1
    if K.char:
        out = _times(K, x, y)
    else:
        x, y = _exact(_height(A.a) * _height(B.a), x, y)
        out, d = x * y, A.d * B.d
    return Mat._of(K, out.reshape(*out.shape[:-4], A.nrows * B.nrows, A.ncols * B.ncols), d)


def kron_sum_stack(X: Mat, Y: Mat, sign) -> Mat:
    """The stack of kron(x, I) + sign kron(I, y), one ab x ab block per pair
    of rows vec(x), vec(y) of X and Y (x a x a, y b x b), built in one
    array: block entry [(i,k),(j,l)] is x_ij d_kl + sign d_ij y_kl."""
    K, g, a, b = X.field, X.nrows, math.isqrt(X.ncols), math.isqrt(Y.ncols)
    (x, y), d = _aligned([X, Y], terms=2)
    x, y = x.reshape(*x.shape[:-1], a, a), y.reshape(*y.shape[:-1], b, b)
    out = np.zeros(x.shape[:-2] + (a, b, a, b), dtype=x.dtype)
    for k in range(b):
        out[..., :, k, :, k] = x
    for i in range(a):
        out[..., i, :, i, :] = _mod(K, out[..., i, :, i, :] + sign * y)
    return Mat._of(K, out.reshape(*out.shape[:-5], g * a * b, a * b), d)


# ---------------------------------------------------------------------------
# Products over GF(p) and GF(p^2)


# Products of at least this many multiply-adds m k n run in float64 BLAS when
# the prime allows it; below, int64 is as fast.  Measured on one core: even at
# 16^3, float64 5x faster at 64^3 (CHANGES.md has the table).
BLAS_MIN_MULADDS = 4096


def gfp_matmul(a, b, p):
    """a @ b mod p for int64 arrays of residues in [0, p), exact for every
    prime GF accepts; returns int64 residues.

    Delayed reduction (Dumas, Giorgi and Pernet, FFLAS-FFPACK, ACM TOMS
    2008): k products of residues sum to at most k (p-1)^2, so the inner
    dimension is cut into chunks of k terms (`_chunking`), each chunk's sum
    an integer the chunk's dtype holds exactly, and the running sum is
    reduced in int64 after each chunk.
    """
    dtype, k = _chunking(a.size * b.shape[-1], p)
    out = None
    for s in range(0, max(a.shape[-1], 1), k):
        # float64 operand copies are freed once multiplied; the sum is reduced
        # in int64, where floor division is about 4x faster than on float64
        x, y = a[..., s : s + k], b[..., s : s + k, :]
        t = x.astype(dtype, copy=False) @ y.astype(dtype, copy=False)
        t = t.astype(np.int64, copy=False)
        if out is not None:
            t += out
        out = _reduce(p, t)
    return out


def _chunking(muladds, p):
    """(dtype, k) for a product of muladds multiply-adds mod p, k the longest
    chunk with k (p-1)^2 + p - 1 below the dtype's exact limit: float64 (2^53,
    products in BLAS) from BLAS_MIN_MULADDS on if k >= 1 there, else int64
    (2^63; the only exact choice for (p-1)^2 + p - 1 >= 2^53, p <= 3037000493)."""
    k = (2**53 - p) // (p - 1) ** 2
    if muladds >= BLAS_MIN_MULADDS and k:
        return np.float64, k
    return np.int64, (2**63 - p) // (p - 1) ** 2


def gfp2_matmul(a, b, p, r):
    """a @ b over GF(p^2) = GF(p)[w]/(w^2 - r) for int64 pair arrays of
    residues a = a0 + a1 w and b, of shapes (2, m, k) and (2, k, n).

    One gfp_matmul product (4 m k n multiply-adds, float64 or int64 as for
    GF(p)) of a's 2 x 2 block embedding by the stacked b:
    [[a0, r a1], [a1, a0]] @ [b0; b1] = [a0 b0 + r a1 b1; a1 b0 + a0 b1].
    r a1 is reduced first, so it is exact for every prime GF accepts.
    """
    m, k, n = *a.shape[1:], b.shape[-1]
    left = np.concatenate([a, a[::-1]], axis=-1)  # rows [a0, a1] over [a1, a0]
    left[0, :, k:] *= r
    _reduce(p, left[0, :, k:])
    return gfp_matmul(left.reshape(2 * m, 2 * k), b.reshape(2 * k, n), p).reshape(2, m, n)


def _dot(K, a, b):
    """a @ b for arrays in the format of the finite field K."""
    if K.degree == 2:
        return gfp2_matmul(a, b, K.char, K.nonresidue)
    return gfp_matmul(a, b, K.char)


# ---------------------------------------------------------------------------
# Row reduction


def rref(M: Mat):
    """Canonical reduced row echelon form; returns (matrix, rank, pivots): the
    canonical basis of the row space, then zero rows."""
    S = Subspace.span(M)
    red = Mat.from_blocks([[S.basis], [Mat.zeros(M.field, M.nrows - S.dim, M.ncols)]])
    return red, S.dim, S.pivots


def kernel(M: Mat) -> "Subspace":
    """Right kernel {v : M v = 0} as a canonical subspace, from one
    elimination of M with its columns reversed."""
    return _kernel_of_rref(Subspace.span(M[:, ::-1]))


def null_spaces(M: Mat):
    """The right and left kernels {v : M v = 0} and {w : w M = 0} from one
    elimination of [M reversed | I]: its rows with pivots among M's columns
    are the RREF of M with its columns reversed, and the others, cut to the I
    columns, the canonical basis of the left kernel (w M = 0 does not depend
    on the order of M's columns)."""
    n = M.ncols
    S = Subspace.span(Mat.from_blocks([[M[:, ::-1], Mat.identity(M.field, M.nrows)]]))
    k = sum(j < n for j in S.pivots)
    return (_kernel_of_rref(Subspace(S.basis[:k, :n], S.pivots[:k])),
            Subspace(S.basis[k:, n:], tuple(j - n for j in S.pivots[k:])))


def _kernel_of_rref(R: "Subspace") -> "Subspace":
    """{v : M v = 0} from the canonical basis R of M with its columns reversed:
    e_f - sum_i R[i][f] e_(pivot i), per free column f, ends at f, so reversed
    and in reverse order these vectors are already the canonical basis."""
    K, n = R.field, R.ambient
    free = R.nonpivots()
    if not free:
        return Subspace.zero(K, n)
    # the kernel vectors with their coordinates in the order pivots, free
    vecs = Mat.from_blocks([[-R.basis[:, free].transpose(), Mat.identity(K, len(free))]])
    order = sorted(range(n), key=[*R.pivots, *free].__getitem__)
    return Subspace(vecs[::-1, order[::-1]], tuple(n - 1 - f for f in reversed(free)))


# ---------------------------------------------------------------------------
# Characteristic polynomials and their distinct-degree factors.  A polynomial
# is a list of coefficients, lowest degree first, with no trailing zeros.


def charpoly(A: Mat):
    """det(xI - A) over a finite field: the product of the minimal polynomials
    of Krylov blocks, each relative to the span of the blocks before it
    (Dumas, Pernet and Wan, ISSAC 2005).  A block spins e_s, s the first
    column outside that span, by doubling: rows 2^j .. 2^(j+1) - 1 of e_s,
    e_s A', e_s A'^2, ... are rows 0 .. 2^j - 1 times A'^(2^j).  The rows go
    into one echelon beside an identity, so each basis row carries its
    combination of Krylov rows; the first row that enlarges no span is its
    entries at the pivots times those combinations, one product."""
    K, n = A.field, A.nrows
    if not K.char:
        raise ValueError("charpoly needs a finite field")
    eye = Mat.identity(K, n).a
    ech = EchelonGFp(K, n, carry=n)
    powers = [np.swapaxes(A.a, -1, -2)]  # powers[j] = A'^(2^j)
    blocks = []
    while ech.dim < n:
        base, s = ech.dim, min(set(range(n)).difference(ech.pivots))
        rows = new = np.concatenate([eye[..., s : s + 1, :], powers[0][..., s : s + 1, :]], axis=-2)
        for j in itertools.count(1):
            dim, k = ech.dim, min(new.shape[-2], n - ech.dim)
            kept = len(ech.add(np.concatenate([new[..., :k, :], eye[..., dim : dim + k, :]], axis=-1)))
            if kept < new.shape[-2]:
                break
            if j == len(powers):
                powers.append(_dot(K, powers[-1], powers[-1]))
            new = _dot(K, rows[..., : n - ech.dim + 1, :], powers[j])
            rows = np.concatenate([rows, new], axis=-2)
        c = _dot(K, new[..., kept : kept + 1, :][..., ech.pivots], ech.mat[..., n + base : n + ech.dim])
        blocks.append(Mat._of(K, _mod(K, -c)).vec() + [K.one()])
    return functools.reduce(functools.partial(_pmul, K), blocks) if blocks else [K.one()]


def poly_at(f, A: Mat) -> Mat:
    """f(A) for f of degree at least 1, by Horner's rule."""
    eye = Mat.identity(A.field, A.nrows)
    out = A.scale(f[-1])
    for k, c in enumerate(reversed(f[:-1])):
        if k:
            out = out @ A
        out = out + eye.scale(c)
    return out


def _pdivmod(K, f, g):
    """(quotient, remainder) of f by a nonzero g."""
    r, dg = list(f), len(g) - 1
    inv = K.inv(g[-1])
    quo = [K.zero()] * max(len(f) - dg, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = K.mul(r[k + dg], inv)
        if not K.is_zero(c):
            for j, b in enumerate(g):
                r[k + j] = K.sub(r[k + j], K.mul(c, b))
    return _ptrim(K, quo), _ptrim(K, r[:dg])


def _ptrim(K, f):
    while f and K.is_zero(f[-1]):
        f.pop()
    return f


def _psub(K, a, b):
    z = K.zero()
    return _ptrim(K, [K.sub(x, y) for x, y in itertools.zip_longest(a, b, fillvalue=z)])


def _pmul(K, a, b):
    prod = [K.zero()] * (len(a) + len(b))
    for i, x in enumerate(a):
        if not K.is_zero(x):
            for j, y in enumerate(b):
                prod[i + j] = K.add(prod[i + j], K.mul(x, y))
    return _ptrim(K, prod)


def _pmulmod(K, a, b, f):
    return _pdivmod(K, _pmul(K, a, b), f)[1]


def _ppowmod(K, a, e, f):
    out = [K.one()]
    for bit in bin(e)[2:]:
        out = _pmulmod(K, out, out, f)
        if bit == "1":
            out = _pmulmod(K, out, a, f)
    return out


def _pgcd(K, a, b):
    """Monic gcd of a nonzero a and any b."""
    while b:
        a, b = b, _pdivmod(K, a, b)[1]
    inv = K.inv(a[-1])
    return [K.mul(inv, c) for c in a]


def distinct_degree_parts(K, f):
    """Yield (d, g) for d = 1, 2, ...: g is the product of the distinct monic
    irreducible factors of degree d of the monic f over the finite field K
    (parts equal to 1 are skipped).  f need not be squarefree: every power of
    a found factor is divided out before the next degree."""
    q = K.order()
    x = [K.zero(), K.one()]
    rest, h, d = f, x, 0  # h = x^(q^d) mod rest
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        h = _ppowmod(K, h, q, rest)
        g = _pgcd(K, rest, _psub(K, h, x))
        if len(g) > 1:
            yield d, g
            while len(g) > 1:
                rest = _pdivmod(K, rest, g)[0]
                g = _pgcd(K, rest, g)
            h = _pdivmod(K, h, rest)[1]
    # every factor left has degree > d and their degrees add up to < 2(d+1)
    if len(rest) > 1:
        yield len(rest) - 1, rest


def irreducible_factor(K, g, d, rng):
    """A monic irreducible factor of g, a product of distinct monic
    irreducibles of degree d over the finite field K: random splitting by
    gcd(g, a^((q^d-1)/2) - 1) (Cantor and Zassenhaus, Math. Comp. 1981), in
    characteristic 2 by gcd(g, a + a^2 + a^4 + ... + a^(q^d/2))."""
    q = K.order()
    while len(g) - 1 > d:
        a = _ptrim(K, [K.random(rng) for _ in range(len(g) - 1)])
        if K.char == 2:
            t = s = a
            for _ in range((q**d).bit_length() - 2):
                s = _pmulmod(K, s, s, g)
                t = _psub(K, t, s)  # minus is plus in characteristic 2
        else:
            t = _psub(K, _ppowmod(K, a, (q**d - 1) // 2, g), [K.one()])
        h = _pgcd(K, g, t)
        if 1 < len(h) < len(g):
            g = h if 2 * len(h) <= len(g) + 1 else _pdivmod(K, g, h)[0]
    return g


# ---------------------------------------------------------------------------
# Subspaces


@dataclass(frozen=True)
class Subspace:
    """Subspace of F^N held as its canonical RREF basis: the rows of `basis`,
    in the array format of the field, sorted by pivot, each 1 at its own pivot
    and 0 at the others."""

    basis: Mat
    pivots: tuple

    @classmethod
    def span(cls, X: Mat) -> "Subspace":
        """The row space of X."""
        ech = echelon(X.field, X.ncols)
        ech.add_rows(X)
        return ech.subspace()

    @classmethod
    def zero(cls, field, ambient):
        return cls(Mat.zeros(field, 0, ambient), ())

    @classmethod
    def full(cls, field, ambient):
        return cls(Mat.identity(field, ambient), tuple(range(ambient)))

    @property
    def field(self):
        return self.basis.field

    @property
    def ambient(self):
        return self.basis.ncols

    @property
    def dim(self):
        return self.basis.nrows

    def nonpivots(self):
        pivset = set(self.pivots)
        return [j for j in range(self.ambient) if j not in pivset]

    def matrices(self, r, c):
        """The basis vectors as r x c matrices, each read row by row."""
        stack = self.basis.reshape(self.dim * r, c)
        return [stack[i * r : (i + 1) * r, :] for i in range(self.dim)]

    def residuals(self, X: Mat) -> Mat:
        """The residuals of X's rows, X - X[:, pivots] B, at the non-pivot
        columns: the basis rows are 1 at their own pivot and 0 at the others,
        so the residuals are zero at the pivots."""
        if not self.pivots:
            return X
        free = self.nonpivots()
        eliminated = X[:, list(self.pivots)] @ self.basis[:, free]  # before X[:, free]: lower peak
        return X[:, free] - eliminated

    def reduce(self, v):
        """Residual of the vector v after eliminating the pivot coordinates."""
        free = dict(zip(self.nonpivots(), self.residuals(Mat(self.field, [v])).vec()))
        return [free.get(j, self.field.zero()) for j in range(self.ambient)]

    def coords_of(self, X: Mat) -> Mat:
        """The coordinates of X's rows relative to the canonical basis, their
        entries at the pivots; raises unless every row lies in the subspace."""
        if not self.residuals(X).is_zero():
            raise ValueError("vector not in subspace")
        return X[:, list(self.pivots)]

    def lift_subspace(self, C: "Subspace") -> "Subspace":
        """The subspace with coordinates C (canonical in F^dim) in this basis:
        C.basis @ basis is already canonical, its pivots ours at C's."""
        return Subspace(C.basis @ self.basis, tuple(self.pivots[j] for j in C.pivots))

    def coords_subspace(self, V: "Subspace") -> "Subspace":
        """V, a subspace of this one, in this basis's coordinates: V's entries
        at our pivots, already canonical, since V's pivots are some of ours;
        raises unless V lies in this subspace."""
        at = {j: k for k, j in enumerate(self.pivots)}
        return Subspace(self.coords_of(V.basis), tuple(at[j] for j in V.pivots))

    def contains(self, other: "Subspace") -> bool:
        return self.residuals(other.basis).is_zero()

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_compat(other)
        return Subspace.span(Mat.from_blocks([[self.basis], [other.basis]]))

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compat(other)
        if not self.dim or not other.dim:
            return Subspace.zero(self.field, self.ambient)
        # x = a·U = b·W  <=>  (a, b) in ker [U' | -W']; a != 0 on every nonzero
        # (a, b), so the kernel's pivots are a's and its rows cut to a canonical
        ker = kernel(Mat.from_blocks([[self.basis.transpose(), -other.basis.transpose()]]))
        return self.lift_subspace(Subspace(ker.basis[:, : self.dim], ker.pivots))

    def _check_compat(self, other):
        if self.field != other.field or self.ambient != other.ambient:
            raise ValueError("subspace ambient/field mismatch")

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


# ---------------------------------------------------------------------------
# Incremental echelon bases, one per field family: the elimination behind
# rref, subspaces, the spinning closure and charpoly.  Rows are kept fully
# reduced (zero in every other pivot column), so sorted by pivot and normalized
# they are the RREF basis.  `add_rows` hands a Mat's rows to `add`, one block.


def echelon(field, ambient):
    """An empty echelon basis of F^ambient: residue arrays over finite fields,
    fraction-free integer rows over Q."""
    return (EchelonGFp if field.char else Echelon)(field, ambient)


class Echelon:
    """Growing echelon basis over Q, fraction-free: primitive rows of Python
    ints, each zero at the other rows' pivots."""

    def __init__(self, field, ambient):
        self.field = field
        self.ambient = ambient
        self.rows = []
        self.pivots = []

    @property
    def dim(self):
        return len(self.rows)

    def add(self, v) -> bool:
        """Insert the integer row v (a row of numerators: the common
        denominator of a Q matrix does not change its row space); returns
        True if it enlarged the span."""
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c:
                a = row[piv]
                v = _primitive([a * x - c * y for x, y in zip(v, row)])
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return False
        v = _primitive(v)
        a = v[piv]
        for i, row in enumerate(self.rows):
            c = row[piv]
            if c:
                self.rows[i] = _primitive([a * x - c * y for x, y in zip(row, v)])
        self.rows.append(v)
        self.pivots.append(piv)
        return True

    def add_rows(self, M: Mat) -> Mat:
        kept = [i for i, r in enumerate(M.a.tolist()) if self.dim < self.ambient and self.add(r)]
        return M[kept, :]

    def subspace(self) -> Subspace:
        order = sorted(range(self.dim), key=self.pivots.__getitem__)
        rows = [self.rows[i] for i in order]
        pivots = tuple(self.pivots[i] for i in order)
        # row / row[pivot] over the common denominator d of the pivot entries
        d = math.lcm(*(r[j] for r, j in zip(rows, pivots)))
        num = [[x * (d // r[j]) for x in r] for r, j in zip(rows, pivots)]
        a = np.array(num, dtype=object).reshape(len(rows), self.ambient)
        return Subspace(Mat._of(self.field, a, d), pivots)


def _primitive(v):
    """The integer row v divided by the gcd of its entries."""
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


class EchelonGFp:
    """Growing echelon basis over GF(p) or GF(p^2) as one array in the
    field's format: its rows are zero at every other pivot, so rows X reduce
    in one product, X - X[:, pivots] basis.  Rows may carry `carry` more
    columns, which take part in every row operation but hold no pivot."""

    def __init__(self, field, ambient, carry=0):
        self.field = field
        self.ambient = ambient
        self.pair = field.degree == 2
        self.mat = Mat.zeros(field, 0, ambient + carry).a
        self.pivots = []

    @property
    def dim(self):
        return self.mat.shape[-2]

    def add(self, X) -> list:
        """Insert the rows of X, canonical residues of shape (k, ambient +
        carry) (a pair of such arrays over GF(p^2)), in order until the basis
        fills; returns the indices of the rows that enlarged the span.  Block
        elimination (Dumas, Giorgi and Pernet, ACM TOMS 2008) in panels of at
        most `ambient` rows: one product reduces a panel against the basis,
        Gauss-Jordan runs on the panel, and one product clears its new pivots
        from the basis."""
        K, p, n = self.field, self.field.char, self.ambient
        kept = []
        for s in range(0, X.shape[-2], n or 1):
            if self.dim == n:
                break
            W = X[..., s : s + n, :]
            W = _reduce(p, W - _dot(K, W[..., self.pivots], self.mat)) if self.pivots else W.copy()
            rows, pivs = self._eliminate(W)
            if rows:
                V = W[..., rows, :]
                if self.pivots:
                    self.mat = _reduce(p, self.mat - _dot(K, self.mat[..., pivs], V))
                self.mat = np.concatenate([self.mat, V], axis=-2)
                self.pivots += pivs
                kept += [s + r for r in rows]
        return kept

    def _eliminate(self, W):
        """Gauss-Jordan in place on the reduced panel W until the basis would
        fill, pivoting in the first row left that is nonzero in the first
        `ambient` columns (so it keeps the rows a row-by-row insertion keeps);
        returns (rows, pivots).  Over odd p each update is subtracted
        unreduced, so the panel is reduced only after `_lazy_cap` of them and
        at the end; in between, only the rows and columns a pivot reads are
        (over GF(2) the updates are XORs of reduced entries).  Over GF(p^2) a
        pivot takes two GF(p) products, each update entry below 2 (p-1)^2,
        whose products are reduced first where the cap is 0."""
        K, p, n = self.field, self.field.char, self.ambient
        cap, lazy = _lazy_cap(K), 0
        times = np.matmul if cap else functools.partial(gfp_matmul, p=p)
        rows, pivs, r = [], [], -1
        while len(pivs) < n - self.dim and r + 1 < W.shape[-2]:
            if lazy:  # the next row; the whole panel once a row has no pivot
                _reduce(p, W[..., r + 1, :])
            rest = W[..., r + 1 : r + 2 if lazy else None, :n]
            nz = np.logical_or(*rest) if self.pair else rest != 0
            i, piv = divmod(int(nz.argmax()), n)
            if not nz[i, piv]:
                if not lazy:
                    break
                _reduce(p, W)
                lazy = 0
                continue
            r += 1 + i
            # subtract column piv times the normalized pivot row v from every
            # row, then set row r to v, which is zero left of piv
            col = _reduce(p, W[..., piv]) if lazy else W[..., piv]
            if p == 2:
                v = W[r, None, piv:].copy()
                W[:, piv:] ^= col[:, None] * v
            elif self.pair:
                # E = ([v0; r v1], [v1; v0]) for v the pivot row times the
                # pivot's inverse: the rows (c0, c1) times E are c v
                i0, i1 = K.inv(tuple(W[:, r, piv].tolist()))
                ri0, ri1 = K.nonresidue * i0 % p, K.nonresidue * i1 % p
                N = np.array([[i0, ri1], [ri1, ri0], [i1, i0], [i0, ri1]])
                E = _reduce(p, times(N, W[:, r, piv:])).reshape(2, 2, -1)
                W[..., piv:] -= times(col.T, E)
                v = E[:, :1]
            else:
                v = _times(K, W[r, None, piv:], K.inv(int(W[r, piv])))
                W[:, piv:] -= col[:, None] * v
            lazy += p > 2
            W[..., r, None, piv:] = v
            rows.append(r)
            pivs.append(piv)
            if lazy >= cap:
                _reduce(p, W)
                lazy = 0
        if lazy:
            _reduce(p, W)
        return rows, pivs

    def add_rows(self, M: Mat) -> Mat:
        return M[self.add(M.a), :]

    def subspace(self) -> Subspace:
        order = sorted(range(self.dim), key=self.pivots.__getitem__)
        return Subspace(Mat._of(self.field, self.mat[..., order, :]),
                        tuple(self.pivots[i] for i in order))


def _reduce(p, t):
    """The int64 array t mod p, in place: a mask for p = 2, else numpy's %
    below a thousand entries (one call) and its floor division by a scalar
    above (three calls, several times faster per entry; CHANGES.md)."""
    if p == 2:
        t &= 1
    elif t.size < 1024:
        t %= p
    else:
        t -= t // p * p
    return t
