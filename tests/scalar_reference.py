"""Scalar constructions that the tests use as references or as helpers.

The first part is the entry-by-entry construction of the structured
matrices that `linalg`, `liealg` and `repmod` build on arrays: identity,
unit and diagonal matrices, the text format, the sym/alt split, the
tensor-square maps Gamma, Omega and Delta, and ad x as a difference of two
Kronecker products.  The second part holds helpers that only the tests
call: operator matrices of vector functions, integer matrices, vecs read
back as matrices, symplectic bases, the Jacobi identity, the f-adjoint, and
the block modules of gl(r) + gl(n) with their duality check.
"""

from __future__ import annotations

from lieclassical.forms import CongruenceResult, classify, standard_symplectic_gram
from lieclassical.linalg import Mat, Subspace, kron
from lieclassical.repmod import LieModule, dual_module


def unit_vector(field, n, j):
    """The j-th standard basis vector of F^n."""
    e = [field.zero()] * n
    e[j] = field.one()
    return e


def op_matrix(field, n_in, n_out, fn) -> Mat:
    """Matrix of a linear map given as a vector function (columns = images)."""
    return Mat(field, [fn(unit_vector(field, n_in, j)) for j in range(n_in)]).transpose()


def from_int_rows(field, rows) -> Mat:
    return Mat(field, [[field.of(x) for x in row] for row in rows])


def unvec(field, v, r, c) -> Mat:
    """The r x c matrix whose row-major entries are the vector v."""
    return Mat(field, [v]).reshape(r, c)


# ---------------------------------------------------------------------------
# Structured matrices, one scalar at a time


def diag_by_scalars(field, entries) -> Mat:
    z = field.zero()
    return Mat(field, [[d if i == j else z for j in range(len(entries))]
                       for i, d in enumerate(entries)])


def identity_by_scalars(field, n) -> Mat:
    return diag_by_scalars(field, [field.one()] * n)


def unit_by_scalars(field, r, c, i, j) -> Mat:
    rows = [[field.zero()] * c for _ in range(r)]
    rows[i][j] = field.one()
    return Mat(field, rows)


def to_text_by_scalars(M: Mat) -> str:
    K = M.field
    lines = [f"{M.nrows} {M.ncols} {K.token}"]
    for r in M.rows:
        lines.append(" ".join(K.fmt(a) for a in r))
    return "\n".join(lines) + "\n"


def sym_alt_by_scalars(n, K):
    """S^2 and Lambda^2 as the spans of e_ii, e_ij + e_ji and e_ij - e_ji."""
    sym_rows, alt_rows = [], []
    for i in range(n):
        sym_rows.append(unit_by_scalars(K, n, n, i, i).vec())
        for j in range(i + 1, n):
            sym_rows.append((unit_by_scalars(K, n, n, i, j) + unit_by_scalars(K, n, n, j, i)).vec())
            alt_rows.append((unit_by_scalars(K, n, n, i, j) - unit_by_scalars(K, n, n, j, i)).vec())
    return Subspace.from_rows(K, n * n, sym_rows), Subspace.from_rows(K, n * n, alt_rows)


def gamma_by_scalars(A: Mat) -> Mat:
    """The matrix of T -> T' A on row-major vecs, column by column."""
    K, m = A.field, A.nrows
    return op_matrix(K, m * m, m * m, lambda t: (unvec(K, t, m, m).transpose() @ A).vec())


def omega_by_scalars(A: Mat) -> Mat:
    return Mat(A.field, [A.vec()])


def delta_by_scalars(A: Mat) -> Mat:
    K, m, rows = A.field, A.nrows, A.rows
    return Mat(K, [[rows[i][j] if i < j else K.zero() for i in range(m) for j in range(m)]])


def ad_by_kron(x: Mat) -> Mat:
    """ad x = kron(x, I) - kron(I, x')."""
    eye = identity_by_scalars(x.field, x.nrows)
    return kron(x, eye) - kron(eye, x.transpose())


def tensor_action_by_kron(x: Mat) -> Mat:
    """x on V (x) V: kron(x, I) + kron(I, x)."""
    eye = identity_by_scalars(x.field, x.nrows)
    return kron(x, eye) + kron(eye, x)


# ---------------------------------------------------------------------------
# Helpers only the tests call


def _form_value(A: Mat, u, v):
    return (Mat(A.field, [u]) @ A @ Mat(A.field, [v]).transpose()).rows[0][0]


def symplectic_basis(A: Mat) -> CongruenceResult:
    """Basis u_1..u_n, v_1..v_n with Gram [[0, I], [-I, 0]]."""
    form = classify(A)
    if not (form.alternating and form.nondegenerate):
        raise ValueError("symplectic basis needs a nondegenerate alternating form")
    K = A.field
    m = A.nrows
    us, vs = [], []
    remaining = Mat.identity(K, m).rows
    while remaining:
        u = remaining[0]
        partner = next(
            (w for w in remaining[1:] if not K.is_zero(_form_value(A, u, w))), None
        )
        if partner is None:
            raise ValueError("form is degenerate on the working complement")
        c = K.inv(_form_value(A, u, partner))
        v = [K.mul(c, a) for a in partner]
        us.append(u)
        vs.append(v)
        new_remaining = []
        for w in remaining:
            if w is u or w is partner:
                continue
            # project w into the f-complement of span{u, v}
            fu = _form_value(A, u, w)
            fv = _form_value(A, v, w)
            # w + f(v,w) u - f(u,w) v is orthogonal to both u and v
            w2 = [
                K.sub(K.add(a, K.mul(fv, b1)), K.mul(fu, b2))
                for a, b1, b2 in zip(w, u, v)
            ]
            new_remaining.append(w2)
        remaining = [w for w in new_remaining if any(not K.is_zero(a) for a in w)]
    S = Mat(K, us + vs).transpose()
    J = standard_symplectic_gram(K, 2 * len(us))
    check = S.transpose() @ A @ S
    if check != J:
        raise AssertionError("symplectic reduction did not reach J")
    return CongruenceResult(S, J)


def check_jacobi(S) -> bool:
    """The Jacobi identity on every triple of basis elements of the
    StructureConstants S."""
    K = S.field
    d = S.dim
    unit = [unit_vector(K, d, i) for i in range(d)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                a = S.bracket_coeffs(unit[i], S.table[j][k])
                b = S.bracket_coeffs(unit[j], S.table[k][i])
                c = S.bracket_coeffs(unit[k], S.table[i][j])
                s = [K.add(K.add(x, y), z) for x, y, z in zip(a, b, c)]
                if any(not K.is_zero(x) for x in s):
                    return False
    return True


def adjoint_star(X: Mat, A: Mat) -> Mat:
    """X* = A^{-1} X' A, the f-adjoint for an invertible Gram matrix A."""
    return A.inv() @ X.transpose() @ A


def block_modules(r, n, K):
    """The gl(r) (+) gl(n) modules Z = M_{r x n} (a.s = as, b.s = -sb) and
    A = M_{n x r} (a.t = -ta, b.t = bt); in row-major coordinates
    vec(x y z) = kron(x, z') vec(y)."""
    eye_r, eye_n = Mat.identity(K, r), Mat.identity(K, n)
    gens_z, gens_a = [], []
    for i in range(r):
        for j in range(r):
            a = Mat.unit(K, r, r, i, j)
            gens_z.append((f"a{i}{j}", kron(a, eye_n)))
            gens_a.append((f"a{i}{j}", -kron(eye_n, a.transpose())))
    for i in range(n):
        for j in range(n):
            b = Mat.unit(K, n, n, i, j)
            gens_z.append((f"b{i}{j}", -kron(eye_r, b.transpose())))
            gens_a.append((f"b{i}{j}", kron(b, eye_r)))
    return LieModule(K, r * n, gens_z), LieModule(K, n * r, gens_a)


def block_duality_check(r, n, K) -> bool:
    """phi: A -> Z*, phi_t(s) = tr(t s), intertwines the actions and is bijective."""
    Z, A = block_modules(r, n, K)
    Zdual = dual_module(Z)
    phi = op_matrix(
        K,
        n * r,
        r * n,
        lambda v: [
            (unvec(K, v, n, r) @ unvec(K, unit_vector(K, r * n, j), r, n)).trace()
            for j in range(r * n)
        ],
    )
    if K.is_zero(phi.det()):
        return False
    for (_, aA), (_, aZ) in zip(A.generators, Zdual.generators):
        if phi @ aA != aZ @ phi:
            return False
    return True
