"""Dense exact linear algebra over the supported fields.

Matrices are row-major lists of canonical scalars; everything is exact.  Every
product is one array product: int64 over GF(p), pairs of int64 arrays over
GF(p^2), integers with cleared denominators over Q.  Row reduction over GF(p)
and GF(p^2) is one incremental echelon basis (int64 rows over GF(p), scalar
pairs over GF(p^2)) whose fully reduced rows are the RREF; it serves rref,
subspaces and spins alike.  Over Q it is fraction-free.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import Field, PrimeField, QuadraticField, RationalField, field_from_token


class Mat:
    """Immutable dense matrix over one exact field."""

    __slots__ = ("field", "rows")

    def __init__(self, field: Field, rows):
        self.field = field
        self.rows = [list(r) for r in rows]

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def zeros(cls, field, r, c):
        z = field.zero()
        return cls(field, [[z] * c for _ in range(r)])

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def unit(cls, field, r, c, i, j):
        """The canonical matrix with a single 1 in position (i, j)."""
        m = cls.zeros(field, r, c)
        m.rows[i][j] = field.one()
        return m

    @classmethod
    def diag(cls, field, entries):
        n = len(entries)
        m = cls.zeros(field, n, n)
        for i, d in enumerate(entries):
            m.rows[i][i] = d
        return m

    @classmethod
    def from_int_rows(cls, field, rows):
        return cls(field, [[field.of(x) for x in row] for row in rows])

    @classmethod
    def from_blocks(cls, blocks):
        """Assemble from a 2D grid of matrices with matching shapes."""
        rows = []
        for block_row in blocks:
            for i in range(block_row[0].nrows):
                row = []
                for b in block_row:
                    row.extend(b.rows[i])
                rows.append(row)
        return cls(blocks[0][0].field, rows)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, tuple(tuple(r) for r in self.rows)))

    def __add__(self, other):
        K = self.field
        return Mat(K, [[K.add(a, b) for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other):
        K = self.field
        return Mat(K, [[K.sub(a, b) for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __neg__(self):
        K = self.field
        return Mat(K, [[K.neg(a) for a in r] for r in self.rows])

    def scale(self, c):
        K = self.field
        return Mat(K, [[K.mul(c, a) for a in r] for r in self.rows])

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        return _matmul(self, other)

    def transpose(self):
        return Mat(self.field, [list(col) for col in zip(*self.rows)]) if self.rows else Mat(self.field, [])

    def trace(self):
        K = self.field
        acc = K.zero()
        for i in range(min(self.nrows, self.ncols)):
            acc = K.add(acc, self.rows[i][i])
        return acc

    def is_zero(self):
        K = self.field
        return all(K.is_zero(a) for r in self.rows for a in r)

    def vec(self):
        """Row-major flattening."""
        return [a for r in self.rows for a in r]

    @classmethod
    def unvec(cls, field, v, r, c):
        return cls(field, [v[i * c : (i + 1) * c] for i in range(r)])

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of non-square matrix")
        K = self.field
        a = [list(r) for r in self.rows]
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
        aug = Mat(self.field, [self.rows[i] + Mat.identity(self.field, n).rows[i] for i in range(n)])
        red, rank, _ = rref(aug)
        if rank < n:
            raise ValueError("matrix is singular")
        return Mat(self.field, [r[n:] for r in red.rows])

    def to_text(self):
        K = self.field
        lines = [f"{self.nrows} {self.ncols} {K.token}"]
        for r in self.rows:
            lines.append(" ".join(K.fmt(a) for a in r))
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


def matvec(M: Mat, v):
    K = M.field
    out = []
    for r in M.rows:
        acc = K.zero()
        for a, b in zip(r, v):
            if not K.is_zero(a):
                acc = K.add(acc, K.mul(a, b))
        out.append(acc)
    return out


def kron(A: Mat, B: Mat) -> Mat:
    """Kronecker product; (kron(A,B))[(i,k),(j,l)] = A[i][j]*B[k][l]."""
    if A.field != B.field:
        raise ValueError("field mismatch in kron")
    K = A.field
    rows = []
    for i in range(A.nrows):
        for k in range(B.nrows):
            row = []
            for j in range(A.ncols):
                a = A.rows[i][j]
                row.extend(K.mul(a, b) for b in B.rows[k])
            rows.append(row)
    return Mat(K, rows)


def unit_vector(field, n, j):
    """The j-th standard basis vector of F^n."""
    e = [field.zero()] * n
    e[j] = field.one()
    return e


def op_matrix(field, n_in, n_out, fn) -> Mat:
    """Matrix of a linear map given as a vector function (columns = images)."""
    cols = [fn(unit_vector(field, n_in, j)) for j in range(n_in)]
    return Mat(field, [[cols[j][i] for j in range(n_in)] for i in range(n_out)])


# ---------------------------------------------------------------------------
# Row reduction


def gfp_matmul(a, b, p):
    """a @ b mod p for int64 arrays of residues in [0, p), exact for every
    prime GF accepts.

    Delayed reduction: k products of residues sum to at most k (p-1)^2, so the
    inner dimension is cut into chunks of k with k (p-1)^2 + p - 1 < 2^63 and
    the running sum is reduced after each chunk (Dumas, Giorgi and Pernet,
    FFLAS-FFPACK, ACM TOMS 2008).
    """
    k = (2**63 - p) // (p - 1) ** 2
    n = a.shape[-1]
    if n <= k:
        return (a @ b) % p
    out = (a[..., :k] @ b[..., :k, :]) % p
    for s in range(k, n, k):
        out = (out + a[..., s : s + k] @ b[..., s : s + k, :]) % p
    return out


def gfp_reduce(rows, basis, pivots, p):
    """Residuals of rows of residues mod p against a fully reduced echelon basis.

    A fully reduced row is zero in every other pivot column, so eliminating
    the pivot coordinates one row at a time equals rows - rows[:, pivots] @ basis.
    """
    coeffs = rows.take(pivots, axis=-1)
    if not coeffs.any():
        return rows
    return (rows - gfp_matmul(coeffs, basis, p)) % p


def gfp2_matmul(a, b, p, r):
    """a @ b over GF(p^2) = GF(p)[w]/(w^2 - r) for pairs (a0, a1), (b0, b1)
    of int64 arrays of residues, a = a0 + a1 w; returns the pair of a @ b.

    Karatsuba: c0 = a0 b0 + r a1 b1, c1 = (a0 + a1)(b0 + b1) - a0 b0 - a1 b1,
    three gfp_matmul products.  Exact for every prime GF accepts: a0 + a1 and
    b0 + b1 are reduced first, so gfp_matmul sees residues only, and with
    t0 = a0 b0, t1 = a1 b1 reduced, t0 + r t1 <= p (p-1) < 2^63 (p <= 3037000493).
    """
    (a0, a1), (b0, b1) = a, b
    t0 = gfp_matmul(a0, b0, p)
    t1 = gfp_matmul(a1, b1, p)
    s = gfp_matmul((a0 + a1) % p, (b0 + b1) % p, p)
    return (t0 + r * t1) % p, (s - t0 - t1) % p


def _matmul(A: Mat, B: Mat):
    """A @ B as one array or integer product, empty shapes included."""
    K = A.field
    if isinstance(K, PrimeField):
        return Mat(K, gfp_matmul(_array(A.rows, A), _array(B.rows, B), K.char).tolist())
    if isinstance(K, QuadraticField):
        a, b = _array(A.rows, A, (2,)), _array(B.rows, B, (2,))
        c0, c1 = gfp2_matmul((a[..., 0], a[..., 1]), (b[..., 0], b[..., 1]), K.char, K.nonresidue)
        return Mat(K, [list(zip(r0, r1)) for r0, r1 in zip(c0.tolist(), c1.tolist())])
    # Q: (a / d_A) @ (b / d_B) = (a @ b) / (d_A d_B) with integer a, b; the
    # sum of ncols products is at most ncols max|a| max|b| in absolute value
    # (maxima taken as at least 1, so a zero factor cannot send the other's
    # large entries to int64): int64 is exact below 2^63, Python ints above
    a, d_a = _cleared(A.rows)
    b, d_b = _cleared(B.rows)
    bound = A.ncols * max(_max_abs(a), 1) * max(_max_abs(b), 1)
    dtype = np.int64 if bound < 2**63 else object
    prod = (_array(a, A, dtype=dtype) @ _array(b, B, dtype=dtype)).tolist()
    d = d_a * d_b
    if d == 1:
        return Mat(K, [[Fraction(x) for x in row] for row in prod])
    return Mat(K, [[Fraction(x, d) for x in row] for row in prod])


def _array(rows, M: Mat, entry_shape=(), dtype=np.int64):
    return np.array(rows, dtype=dtype).reshape(M.nrows, M.ncols, *entry_shape)


def _cleared(rows):
    """(ints, d) with rows = ints / d, d the lcm of the denominators."""
    d = math.lcm(*(x.denominator for r in rows for x in r))
    return [[x.numerator * (d // x.denominator) for x in r] for r in rows], d


def _max_abs(ints):
    return max((abs(x) for r in ints for x in r), default=0)


def rref(M: Mat):
    """Canonical reduced row echelon form; returns (matrix, rank, pivots).

    Fraction-free elimination over Q; over GF(p) and GF(p^2) the rows are
    fed into an incremental echelon basis, whose rows sorted by pivot are
    the RREF basis."""
    K = M.field
    if isinstance(K, RationalField):
        basis, pivots = _rref_rational(M.rows, M.ncols)
    else:
        ech = (EchelonGFp if isinstance(K, PrimeField) else Echelon)(K, M.ncols)
        for r in M.rows:
            ech.add(r)
        S = ech.subspace()
        basis, pivots = S.basis, S.pivots
    zero = [K.zero()] * M.ncols
    return Mat(K, [*basis, *[zero] * (M.nrows - len(basis))]), len(basis), tuple(pivots)


def _rref_rational(rows, ncols):
    """(basis rows, pivots) of the RREF: fraction-free elimination on
    primitive integer rows, normalized at the end."""
    work = []
    for r in rows:
        den = math.lcm(*[f.denominator for f in r]) if r else 1
        ints = [int(f * den) for f in r]
        g = math.gcd(*ints) if any(ints) else 1
        if g > 1:
            ints = [x // g for x in ints]
        work.append(ints)
    nrows = len(work)
    rank = 0
    pivots = []
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pv = work[rank][col]
        for r in range(nrows):
            if r == rank or not work[r][col]:
                continue
            f = work[r][col]
            work[r] = [pv * x - f * y for x, y in zip(work[r], work[rank])]
            g = math.gcd(*work[r]) if any(work[r]) else 1
            if g > 1:
                work[r] = [x // g for x in work[r]]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return [[Fraction(x, work[i][pv]) for x in work[i]] for i, pv in enumerate(pivots)], pivots


def solve(A: Mat, b):
    """One solution of A x = b, or None if inconsistent."""
    sols = solve_many(A, [b])
    return None if sols is None else sols[0]


def solve_many(A: Mat, bs):
    """One solution of A x = b for each of the nonempty list bs, from one rref
    of [A | b_1 ... b_k]; None unless every system is consistent."""
    K, n = A.field, A.ncols
    red, rank, pivots = rref(Mat(K, [row + list(c) for row, c in zip(A.rows, zip(*bs))]))
    if pivots and pivots[-1] >= n:
        return None
    sols = [[K.zero()] * n for _ in bs]
    for i, col in enumerate(pivots):
        for x, c in zip(sols, red.rows[i][n:]):
            x[col] = c
    return sols


def kernel(M: Mat) -> "Subspace":
    """Right kernel {v : M v = 0} as a canonical subspace."""
    K = M.field
    red, rank, pivots = rref(M)
    n = M.ncols
    pivset = set(pivots)
    free = [j for j in range(n) if j not in pivset]
    basis = []
    for f in free:
        v = [K.zero()] * n
        v[f] = K.one()
        for i, col in enumerate(pivots):
            v[col] = K.neg(red.rows[i][f])
        basis.append(v)
    return Subspace.from_rows(K, n, basis)


# ---------------------------------------------------------------------------
# Characteristic polynomials and their distinct-degree factors.  A polynomial
# is a list of coefficients, lowest degree first, with no trailing zeros.


def charpoly(A: Mat):
    """det(xI - A), by a similarity to upper Hessenberg form and the
    recurrence on its leading minors (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.2.9)."""
    K = A.field
    n = A.nrows
    H = [list(r) for r in A.rows]
    for c in range(n - 2):
        piv = next((r for r in range(c + 1, n) if not K.is_zero(H[r][c])), None)
        if piv is None:
            continue
        if piv != c + 1:
            H[piv], H[c + 1] = H[c + 1], H[piv]
            for row in H:
                row[piv], row[c + 1] = row[c + 1], row[piv]
        inv = K.inv(H[c + 1][c])
        for r in range(c + 2, n):
            u = K.mul(H[r][c], inv)
            if K.is_zero(u):
                continue
            # row r -= u row c+1, then column c+1 += u column r
            H[r] = [K.sub(a, K.mul(u, b)) for a, b in zip(H[r], H[c + 1])]
            for row in H:
                row[c + 1] = K.add(row[c + 1], K.mul(u, row[r]))
    # p_k = (x - h_kk) p_{k-1} - sum_r h_{r,k} (h_{r+1,r} ... h_{k,k-1}) p_{r-1}
    polys = [[K.one()]]
    for k in range(1, n + 1):
        p = [K.zero()] + polys[-1]
        for i, c in enumerate(polys[-1]):
            p[i] = K.sub(p[i], K.mul(H[k - 1][k - 1], c))
        t = K.one()
        for r in range(k - 1, 0, -1):
            t = K.mul(t, H[r][r - 1])
            if K.is_zero(t):
                break
            coef = K.mul(t, H[r - 1][k - 1])
            for i, c in enumerate(polys[r - 1]):
                p[i] = K.sub(p[i], K.mul(coef, c))
        polys.append(p)
    return polys[-1]


def poly_at(f, A: Mat) -> Mat:
    """f(A) for f of degree at least 1, by Horner's rule."""
    K = A.field
    out = A.scale(f[-1])
    for k, c in enumerate(reversed(f[:-1])):
        if k:
            out = out @ A
        for i, row in enumerate(out.rows):
            row[i] = K.add(row[i], c)
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


def _pmulmod(K, a, b, f):
    prod = [K.zero()] * (len(a) + len(b))
    for i, x in enumerate(a):
        if not K.is_zero(x):
            for j, y in enumerate(b):
                prod[i + j] = K.add(prod[i + j], K.mul(x, y))
    return _pdivmod(K, _ptrim(K, prod), f)[1]


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


def roots(K, f, rng):
    """The distinct roots in the finite field K of the monic f, sorted."""
    out = []
    for d, g in distinct_degree_parts(K, f):
        while d == 1 and len(g) > 1:
            x_minus_root = irreducible_factor(K, g, 1, rng)
            out.append(K.neg(x_minus_root[0]))
            g = _pdivmod(K, g, x_minus_root)[0]
        break
    return sorted(out)


# ---------------------------------------------------------------------------
# Subspaces


@dataclass(frozen=True)
class Subspace:
    """Subspace of F^N held as a canonical RREF basis (rows)."""

    field: Field
    ambient: int
    basis: tuple
    pivots: tuple

    @classmethod
    def from_rows(cls, field, ambient, rows):
        if not rows:
            return cls(field, ambient, (), ())
        red, rank, pivots = rref(Mat(field, rows))
        basis = tuple(tuple(r) for r in red.rows[:rank])
        return cls(field, ambient, basis, pivots)

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, (), ())

    @classmethod
    def full(cls, field, ambient):
        eye = Mat.identity(field, ambient)
        return cls(field, ambient, tuple(tuple(r) for r in eye.rows), tuple(range(ambient)))

    @property
    def dim(self):
        return len(self.basis)

    def basis_matrix(self) -> Mat:
        return Mat(self.field, [list(r) for r in self.basis])

    def reduce(self, v):
        """Residual of v after eliminating the pivot coordinates."""
        return _reduce(self.field, v, self.basis, self.pivots)

    def contains_vector(self, v) -> bool:
        K = self.field
        return all(K.is_zero(a) for a in self.reduce(v))

    def coords(self, v):
        """Coordinates relative to the canonical basis (requires membership)."""
        if not self.contains_vector(v):
            raise ValueError("vector not in subspace")
        return [v[p] for p in self.pivots]

    def lift(self, coords):
        K = self.field
        out = [K.zero()] * self.ambient
        for c, row in zip(coords, self.basis):
            if K.is_zero(c):
                continue
            out = [K.add(a, K.mul(c, b)) for a, b in zip(out, row)]
        return out

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(list(r)) for r in other.basis)

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_compat(other)
        return Subspace.from_rows(
            self.field, self.ambient, [list(r) for r in self.basis + other.basis]
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compat(other)
        if not self.basis or not other.basis:
            return Subspace.zero(self.field, self.ambient)
        # x = a·U = b·W  <=>  (a, b) in ker [U' | -W'].
        K = self.field
        stacked = Mat(
            K,
            [
                [self.basis[i][r] for i in range(self.dim)]
                + [K.neg(other.basis[j][r]) for j in range(other.dim)]
                for r in range(self.ambient)
            ],
        )
        ker = kernel(stacked)
        rows = [self.lift(list(k)[: self.dim]) for k in ker.basis]
        return Subspace.from_rows(self.field, self.ambient, rows)

    def _check_compat(self, other):
        if self.field != other.field or self.ambient != other.ambient:
            raise ValueError("subspace ambient/field mismatch")

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


# ---------------------------------------------------------------------------
# Incremental echelon bases: the elimination behind rref over finite fields
# and the spinning closure.  Rows are kept normalized and fully reduced (zero
# in every other pivot column), so sorted by pivot they are the RREF basis.


class Echelon:
    """Growing echelon basis on scalars of any field."""

    def __init__(self, field, ambient):
        self.field = field
        self.ambient = ambient
        self.rows = []
        self.pivots = []

    @property
    def dim(self):
        return len(self.rows)

    def add(self, v) -> bool:
        """Insert v; returns True if it enlarged the span."""
        K = self.field
        r = _reduce(K, v, self.rows, self.pivots)
        piv = next((i for i, a in enumerate(r) if not K.is_zero(a)), None)
        if piv is None:
            return False
        inv = K.inv(r[piv])
        r = [K.mul(inv, a) for a in r]
        for i, row in enumerate(self.rows):
            c = row[piv]
            if not K.is_zero(c):
                self.rows[i] = [K.sub(a, K.mul(c, b)) for a, b in zip(row, r)]
        self.rows.append(r)
        self.pivots.append(piv)
        return True

    def subspace(self) -> Subspace:
        return _sorted_subspace(self.field, self.ambient, self.rows, self.pivots)


class EchelonGFp:
    """Growing echelon basis over GF(p) as one int64 array: fully reduced
    rows make reducing a vector a single product (`gfp_reduce`)."""

    def __init__(self, field, ambient):
        self.field = field
        self.p = field.char
        self.ambient = ambient
        self.mat = np.zeros((0, ambient), dtype=np.int64)
        self.pivots = []

    @property
    def dim(self):
        return self.mat.shape[0]

    def add(self, v) -> bool:
        r = gfp_reduce(np.array(v, dtype=np.int64) % self.p, self.mat, self.pivots, self.p)
        nz = np.nonzero(r)[0]
        if nz.size == 0:
            return False
        piv = int(nz[0])
        r = (r * pow(int(r[piv]), self.p - 2, self.p)) % self.p
        if self.pivots:
            col = self.mat[:, piv].copy()
            self.mat = (self.mat - np.outer(col, r)) % self.p
        self.mat = np.vstack([self.mat, r[None, :]])
        self.pivots.append(piv)
        return True

    def subspace(self) -> Subspace:
        return _sorted_subspace(self.field, self.ambient, self.mat.tolist(), self.pivots)


def _reduce(K, v, rows, pivots):
    """Residual of v after eliminating the pivot coordinates of fully reduced
    rows: each row is zero at the other pivots, so the order does not matter."""
    v = list(v)
    for row, piv in zip(rows, pivots):
        c = v[piv]
        if not K.is_zero(c):
            v = [K.sub(a, K.mul(c, b)) for a, b in zip(v, row)]
    return v


def _sorted_subspace(field, ambient, rows, pivots):
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return Subspace(field, ambient, tuple(tuple(rows[i]) for i in order),
                    tuple(pivots[i] for i in order))
