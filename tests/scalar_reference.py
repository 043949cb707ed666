"""Scalar constructions that the tests use as references or as helpers.

The first part is the entry-by-entry construction of the structured
matrices that `linalg`, `liealg` and `repmod` build on arrays: identity,
unit and diagonal matrices, the text format, the sym/alt split, the
tensor-square maps Gamma, Omega and Delta, ad x as a difference of two
Kronecker products, Hom spaces one generator at a time, the Heisenberg
polynomial modules and the clearing of one generator's denominators.  The
second part holds helpers that only the tests call: operator matrices of
vector functions, integer matrices, vecs read back as matrices, spans of
scalar rows, module stacks of matrix lists, symplectic bases, the
congruence diagonalization of a symmetric form one vector at a time, the
star map of 4 x 4 alternating matrices one entry at a time, brackets read
off a structure-constant table, the Jacobi identity, the f-adjoint, and
the block modules of gl(r) + gl(n) with their duality check.
"""

from __future__ import annotations

import math

from lieclassical.fields import GF
from lieclassical.forms import CongruenceResult, classify, standard_symplectic_gram
from lieclassical.linalg import Mat, Subspace, kernel, kron
from lieclassical.repmod import LieModule, dual_module


def unit_vector(field, n, j):
    """The j-th standard basis vector of F^n."""
    e = [field.zero()] * n
    e[j] = field.one()
    return e


def op_matrix(field, n_in, n_out, fn) -> Mat:
    """Matrix of a linear map given as a vector function (columns = images)."""
    return Mat(field, [fn(unit_vector(field, n_in, j)) for j in range(n_in)]).transpose()


def coords_by_scalars(U: Subspace, v):
    """The coordinates of the scalar vector v in U's canonical basis."""
    return U.coords_of(Mat(U.field, [v])).vec()


def lift_by_scalars(U: Subspace, coords):
    """The scalar vector with the given coordinates in U's canonical basis."""
    return (Mat(U.field, [coords]) @ U.basis).vec()


def from_int_rows(field, rows) -> Mat:
    return Mat(field, [[field.of(x) for x in row] for row in rows])


def unvec(field, v, r, c) -> Mat:
    """The r x c matrix whose row-major entries are the vector v."""
    return Mat(field, [v]).reshape(r, c)


def span_rows(field, ambient, rows) -> Subspace:
    """The span of scalar rows in F^ambient (the zero subspace for none)."""
    return Subspace.span(Mat(field, rows)) if rows else Subspace.zero(field, ambient)


def stacked(field, n, mats) -> Mat:
    """The n x n matrices stacked in order, a module's stack (0 x n for none)."""
    return Mat.from_blocks([[a] for a in mats]) if mats else Mat.zeros(field, 0, n)


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
    return span_rows(K, n * n, sym_rows), span_rows(K, n * n, alt_rows)


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


def hom_space_by_kron(M1: LieModule, M2: LieModule) -> Subspace:
    """Hom(M1, M2) one generator at a time: the kernel of the blocks
    kron(I, a1') - kron(a2, I), all of F^(n2 n1) without generators."""
    K, n1, n2 = M1.field, M1.dim, M2.dim
    eye1, eye2 = identity_by_scalars(K, n1), identity_by_scalars(K, n2)
    blocks = [kron(eye2, a1.transpose()) - kron(a2, eye1)
              for a1, a2 in zip(M1.action_mats(), M2.action_mats())]
    if not blocks:
        return Subspace.full(K, n1 * n2)
    return kernel(Mat.from_blocks([[b] for b in blocks]))


def heisenberg_mats_by_scalars(K, n, alpha, monomials):
    """The actions of u_1..u_n, v_1..v_n, z on the truncated polynomial
    module with the given monomial basis, entry by entry: u_i = d/dx_i,
    v_i = alpha x_i (0 on x_i^(p-1)), z = alpha I."""
    p = K.char
    index = {mo: i for i, mo in enumerate(monomials)}
    d = len(monomials)
    gens = []
    for i in range(n):
        du = [[K.zero()] * d for _ in range(d)]
        for mo, col in index.items():
            if mo[i] > 0:
                lower = list(mo)
                lower[i] -= 1
                du[index[tuple(lower)]][col] = K.of(mo[i])
        gens.append(Mat(K, du))
    for i in range(n):
        mv = [[K.zero()] * d for _ in range(d)]
        for mo, col in index.items():
            if mo[i] < p - 1:
                upper = list(mo)
                upper[i] += 1
                mv[index[tuple(upper)]][col] = alpha
        gens.append(Mat(K, mv))
    gens.append(identity_by_scalars(K, d).scale(alpha))
    return gens


def cleared_by_scalars(A: Mat, p) -> Mat:
    """The rational matrix A times the least common denominator of its
    entries, reduced mod p."""
    d = math.lcm(*(x.denominator for r in A.rows for x in r))
    return Mat(GF(p), [[int(x * d) % p for x in r] for r in A.rows])


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


def diagonalize_by_scalars(A: Mat) -> CongruenceResult:
    """`forms.diagonalize_symmetric` one scalar at a time: the chosen and
    remaining vectors are lists, and every form value is its own product."""
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
            remaining = list(span_rows(K, m, projected).basis.rows)
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


def star_by_scalars(s: Mat) -> Mat:
    """`repmod.star_map` on one 4x4 alternating matrix, entry by entry: the
    upper entries a, b, c, d, e, f of s in row-major order go to f, -e, d, c,
    -b, a, and the lower entries are their negatives."""
    K = s.field
    if s.nrows != 4 or s.ncols != 4:
        raise ValueError("star map needs a 4x4 matrix")
    if K.char == 2:
        raise ValueError("star map needs characteristic != 2")
    rows = s.rows
    a, b, c = rows[0][1], rows[0][2], rows[0][3]
    d, e, f = rows[1][2], rows[1][3], rows[2][3]
    n = K.neg
    out = [[K.zero()] * 4 for _ in range(4)]
    upper = {(0, 1): f, (0, 2): n(e), (0, 3): d, (1, 2): c, (1, 3): n(b), (2, 3): a}
    for (i, j), val in upper.items():
        out[i][j] = val
        out[j][i] = n(val)
    return Mat(K, out)


def table_bracket(S, x: Mat, y: Mat) -> Mat:
    """[x, y] in the StructureConstants S for 1 x dim coordinate rows x and
    y: kron(x, y) holds the products x_i y_j at i * dim + j, the table's row
    of [e_i, e_j]."""
    return kron(x, y) @ S.table


def check_jacobi(S) -> bool:
    """The Jacobi identity on every triple of basis elements of the
    StructureConstants S."""
    d = S.dim
    eye = Mat.identity(S.field, d)
    unit = [eye[i : i + 1, :] for i in range(d)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                s = (table_bracket(S, unit[i], table_bracket(S, unit[j], unit[k]))
                     + table_bracket(S, unit[j], table_bracket(S, unit[k], unit[i]))
                     + table_bracket(S, unit[k], table_bracket(S, unit[i], unit[j])))
                if not s.is_zero():
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
            gens_z.append(kron(a, eye_n))
            gens_a.append(-kron(eye_n, a.transpose()))
    for i in range(n):
        for j in range(n):
            b = Mat.unit(K, n, n, i, j)
            gens_z.append(-kron(eye_r, b.transpose()))
            gens_a.append(kron(b, eye_r))
    return (LieModule(K, len(gens_z), stacked(K, r * n, gens_z)),
            LieModule(K, len(gens_a), stacked(K, n * r, gens_a)))


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
    for aA, aZ in zip(A.action_mats(), Zdual.action_mats()):
        if phi @ aA != aZ @ phi:
            return False
    return True
