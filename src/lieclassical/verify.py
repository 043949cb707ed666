"""Theorem runners: each builds the relevant algebras and modules, checks
every structural claim, and returns a Report with expected versus computed
evidence for each claim."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .fields import GF, QQ, Field
from .forms import (
    BilForm,
    classify,
    diagonalize_symmetric,
    discriminant_is_square,
    standard_symplectic_gram,
)
from .liealg import (
    MatLieAlg,
    bracket,
    bracket_rows,
    derived_series,
    gl_subspace,
    heisenberg,
    is_simple,
    lie_isomorphic_by_structure,
    quotient_algebra,
    scalars_subspace,
    self_adjoint_module,
    skew_adjoint_algebra,
    sl_subspace,
    trace_orthogonal_complement,
    trace_pairing,
    transposed_positions,
)
from .linalg import Mat, Subspace, echelon, irreducible_factor, kernel, solve
from .repmod import (
    LieModule,
    adjoint_module,
    certify_irreducible,
    composition_series,
    conjugation_modules,
    dual_module,
    factor_module,
    first_primes_coprime_to,
    gamma_image,
    heisenberg_poly_module,
    heisenberg_poly_module_on_basis,
    hom_space,
    invariant_under,
    line_reps,
    modp_irreducible,
    quotient_module,
    representation_kernel,
    respects_brackets,
    restrict_module,
    restrict_to_sl,
    star_map,
    sym_alt_subspaces,
    tensor_square,
    trivial_actions,
)


@dataclass
class Claim:
    label: str
    paper_ref: str
    expected: object
    computed: object
    passed: bool
    method: str


@dataclass
class Report:
    case: str
    field: Field
    m: int
    claims: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def check(self, label, ref, expected, computed, method="exact"):
        self.claims.append(
            Claim(label, ref, _ser(expected), _ser(computed), expected == computed, method)
        )

    def to_dict(self):
        return {
            "case": self.case,
            "field": {"char": self.field.char, "degree": self.field.degree},
            "m": self.m,
            "claims": [
                {
                    "label": c.label,
                    "paper_ref": c.paper_ref,
                    "expected": c.expected,
                    "computed": c.computed,
                    "pass": c.passed,
                    "method": c.method,
                }
                for c in self.claims
            ],
            "pass": self.passed,
        }


def _ser(x):
    if isinstance(x, Mat):
        return x.to_text()
    if isinstance(x, Subspace):
        # the basis rows as they stand: "0 0" for the zero subspace
        return (x.basis if x.dim else Mat(x.field, [])).to_text()
    if isinstance(x, (list, tuple)):
        return [_ser(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    return x


# ---------------------------------------------------------------------------
# Shared constructions


def _block_span(K, m, blocks):
    """Span of m x m matrices assembled from (i, j, mat) block placements."""
    eye = Mat.identity(K, m)
    rows = []
    for placements in blocks:
        X = Mat.zeros(K, m, m)
        for i0, j0, piece in placements:
            X = X + eye[:, i0 : i0 + piece.nrows] @ piece @ eye[j0 : j0 + piece.ncols, :]
        rows.append(X.vec())
    return Subspace.from_rows(K, m * m, rows)


def _symplectic_block_space(K, n, b_diag, c_diag, traceless_a):
    """span of [[A, B], [C, A']] with B, C symmetric (optionally zero-diagonal)
    and A optionally traceless; the char-2 symplectic algebra shapes."""
    m = 2 * n
    blocks = []
    for i in range(n):
        for j in range(n):
            a = Mat.unit(K, n, n, i, j)
            if traceless_a and i == j:
                continue
            blocks.append([(0, 0, a), (n, n, a.transpose())])
    if traceless_a:
        for i in range(n - 1):
            a = Mat.unit(K, n, n, i, i) + Mat.unit(K, n, n, n - 1, n - 1)
            blocks.append([(0, 0, a), (n, n, a)])
    # the symmetric units: e_ii (trace 1) and e_ij + e_ji (trace 0)
    sym = sym_alt_subspaces(n, K)[0].matrices(n, n)
    for b in sym:
        if b_diag or K.is_zero(b.trace()):
            blocks.append([(0, n, b)])
    for c in sym:
        if c_diag or K.is_zero(c.trace()):
            blocks.append([(n, 0, c)])
    return _block_span(K, m, blocks)


def _fill_between(lo: Subspace, hi: Subspace):
    """Intermediate subspaces refining lo < hi one dimension at a time: lo
    plus the first k basis rows of hi that leave the span of lo and the rows
    before them, read off one echelon basis seeded with lo."""
    ech = echelon(lo.field, lo.ambient)
    ech.add_rows(lo.basis)
    steps = []
    for i in range(hi.dim):
        if ech.add_rows(hi.basis[[i], :]).nrows:
            steps.append(ech.subspace())
    return steps[:-1]  # the last step is hi


def _good_primes(gram: Mat):
    """The first two primes at which a form over Q reduces well (None over a
    finite field): coprime to 2m, to the Gram matrix's denominators and to the
    numerator and denominator of its determinant, so the reduction mod p is a
    nondegenerate form of the same type."""
    K = gram.field
    if K.order() is not None:
        return None
    det = gram.det()
    bad = abs(det.numerator) * det.denominator
    bad *= math.lcm(*(x.denominator for r in gram.rows for x in r))
    return first_primes_coprime_to(2 * gram.nrows * bad, count=2)


def _is_simple_certified(L: MatLieAlg, primes):
    """(simple?, method) with characteristic 0 handled by reduction mod primes.

    Over Q one prime with an irreducible reduction of the adjoint module
    proves simplicity.  "Not simple" needs a witness over Q, so this raises
    instead (`run_thm_1_4` exhibits the so(4) ideal)."""
    K = L.field
    if K.order() is not None:
        return is_simple(L), "spin certification"
    if L.dim <= 1:
        return False, "dimension"
    if modp_irreducible(adjoint_module(L, L.space), primes):
        return True, "mod-p"
    raise ValueError("mod-p certification failed for the adjoint module")


# ---------------------------------------------------------------------------
# Theorem 1.1: characteristic 2, alternating form


def run_thm_1_1(m, p=2) -> Report:
    if p != 2:
        raise ValueError("needs characteristic 2")
    if m < 2 or m % 2:
        raise ValueError("needs even m >= 2")
    K = GF(2)
    rep = Report(f"thm1.1 m={m}", K, m)
    if m == 2:
        return _run_m2_alternating(rep)
    n = m // 2
    J = standard_symplectic_gram(K, m)
    L = skew_adjoint_algebra(J, "L")
    ds = derived_series(L)
    L1, L2 = ds[1], ds[2]
    s = scalars_subspace(K, m)
    sl = sl_subspace(K, m)
    gl = gl_subspace(K, m)
    module = adjoint_module(L, gl)
    four = m % 4 == 0
    x = Mat.from_blocks([[Mat.identity(K, n), Mat.zeros(K, n, n)],
                         [Mat.zeros(K, n, n), Mat.zeros(K, n, n)]])
    U = Subspace.span(Mat.from_blocks([[L.space.basis], [x.reshape(1, m * m)]]))
    rep.check("[x, L] in L", "Thm 1.1", True,
              all(L.contains(bracket(x, y)) for y in L.basis_mats()))
    canonical = [s, L2.space] if four else [L2.space]
    canonical += [L1.space] + _fill_between(L1.space, L.space) + [L.space]
    if four:
        canonical.append(U)
    canonical.append(sl)
    try:
        cs = composition_series(module, candidate_chain=canonical)
        ok = True
    except ValueError:
        ok = False
    rep.check("canonical chain is a composition series", "Thm 1.1", True, ok,
              "spin certification")
    if not ok:
        return rep
    rep.check("factor count", "Thm 1.1", m + 6 if four else m + 4, cs.n_factors,
              "spin certification")
    nontriv = sorted(d for d, t in zip(cs.factor_dims, cs.factor_trivial) if not t)
    want = m * (m - 1) // 2 - (2 if four else 1)
    rep.check("nontrivial factor dims", "Thm 1.1", [want, want], nontriv,
              "spin certification")
    rep.check("L matrix form", "Thm 1.1(3)", _symplectic_block_space(K, n, True, True, False),
              L.space)
    rep.check("L^(1) matrix form", "Thm 1.1(4)",
              _symplectic_block_space(K, n, False, False, False), L1.space)
    rep.check("L^(2) matrix form", "Thm 1.1(5)",
              _symplectic_block_space(K, n, False, False, True), L2.space)
    ts = tensor_square(classify(J), L)
    rep.check("Gamma(S^2) = L", "Thm 7.5", L.space, gamma_image(ts, ts.sym))
    rep.check("Gamma(Lambda^2) = L^(1)", "Thm 7.5", L1.space, gamma_image(ts, ts.alt))
    ker_delta = ts.alt.intersect(kernel(ts.delta))
    rep.check("Gamma(ker Delta) = L^(2)", "Thm 7.5", L2.space,
              gamma_image(ts, ker_delta))
    rep.check("s in L^(2) iff 4|m", "Thm 7.5(6)", four, L2.space.contains(s))
    # h(n) quotient on the canonical representatives
    a = _lift_block(K, n, Mat.unit(K, n, n, 0, 0), "diag")
    bs = [_lift_block(K, n, Mat.unit(K, n, n, i, i), "upper") for i in range(n)]
    cs_reps = [_lift_block(K, n, Mat.unit(K, n, n, i, i), "lower") for i in range(n)]
    Q, _ = quotient_algebra(L, L2.space, reps=bs + cs_reps + [a])
    eye = Mat.identity(K, 2 * n + 1)
    rep.check("L/L^(2) = h(n)", "Thm 1.1(6)", True,
              lie_isomorphic_by_structure(heisenberg(K, n), Q, eye))
    # simplicity of the nontrivial factor algebra
    if four:
        alg, _ = quotient_algebra(L2, s)
        simple = is_simple(alg)
        rep.check("L^(2)/s simple iff m>4", "Thm 12.1", m > 4, simple,
                  "spin certification")
    else:
        simple = is_simple(L2)
        rep.check("L^(2) simple", "Thm 12.1", True, simple, "spin certification")
    return rep


def _lift_block(K, n, piece, where):
    Z = Mat.zeros(K, n, n)
    if where == "diag":
        return Mat.from_blocks([[piece, Z], [Z, piece]])
    if where == "upper":
        return Mat.from_blocks([[Z, piece], [Z, Z]])
    return Mat.from_blocks([[Z, Z], [piece, Z]])


def _run_m2_alternating(rep: Report) -> Report:
    K = rep.field
    J = standard_symplectic_gram(K, 2)
    L = skew_adjoint_algebra(J, "L")
    module = adjoint_module(L, gl_subspace(K, 2))
    cs = composition_series(module)
    rep.check("4 trivial factors", "Note 12.5", ([1, 1, 1, 1], [True] * 4),
              (cs.factor_dims, cs.factor_trivial), "spin certification")
    e = Mat.unit(K, 2, 2, 0, 1)
    f = Mat.unit(K, 2, 2, 1, 0)
    eye = Mat.identity(K, 2)
    S, _ = quotient_algebra(L, Subspace.zero(K, 4), reps=[e, f, eye])
    rep.check("L = h(1)", "Note 12.5", True,
              lie_isomorphic_by_structure(heisenberg(K, 1), S, Mat.identity(K, 3)))
    poly = heisenberg_poly_module(K, 1, K.one())
    rep.check("natural module is F[X]/(X^2)", "Note 12.5",
              [a.to_text() for _, a in poly.generators],
              [a.to_text() for a in (e, f, eye)])
    return rep


# ---------------------------------------------------------------------------
# Theorem 1.2: characteristic 2, symmetric non-alternating diagonal form


def run_thm_1_2(m, diag=None, p=2) -> Report:
    if p != 2:
        raise ValueError("needs characteristic 2")
    K = GF(2)
    if diag is None:
        diag = [K.one()] * m
    if len(diag) != m or any(K.is_zero(d) for d in diag):
        raise ValueError("needs m nonzero diagonal entries")
    A = Mat.diag(K, list(diag))
    form = classify(A)
    if form.alternating:
        raise ValueError("form must not be alternating")
    rep = Report(f"thm1.2 m={m}", K, m)
    L = skew_adjoint_algebra(A, "L")
    ds = derived_series(L)
    L1 = ds[1]
    gl = gl_subspace(K, m)
    module = adjoint_module(L, gl)
    canonical = [L1.space] + _fill_between(L1.space, L.space) + [L.space]
    try:
        cs = composition_series(module, candidate_chain=canonical)
        ok = True
    except ValueError:
        ok = False
    rep.check("canonical chain is a composition series", "Thm 1.2", True, ok,
              "spin certification")
    if not ok:
        return rep
    rep.check("factor count", "Thm 1.2", m + 2, cs.n_factors, "spin certification")
    rep.check("L matrix form", "Thm 1.2", _diag_form_space(K, m, diag, False), L.space)
    rep.check("L^(1) matrix form", "Thm 1.2", _diag_form_space(K, m, diag, True), L1.space)
    if m == 3 or m >= 5:
        rep.check("L^(1) simple", "Thm 8.1", True, is_simple(L1), "spin certification")
        rep.check("dim L^(1)", "Thm 8.1", m * (m - 1) // 2, L1.dim)
    # gl/L = L^(1) as L-modules, witnessed by phi(X) = X + X'
    quo = quotient_module(module, L.space)
    sub = restrict_module(module, L1.space)
    rep.check("gl/L = L^(1) (hom witness)", "Thm 1.2(4)", True,
              _intertwines(_symmetrizer(L.space, L1.space), quo, sub))
    # m-1 free insertions between L^(1) and L: trivial action on L/L^(1)
    between = restrict_module(module, L.space)
    l1_in = Subspace.span(L.space.coords_of(L1.space.basis))
    rep.check("L/L^(1) trivial action", "Thm 1.2", True,
              trivial_actions(quotient_module(between, l1_in)))
    rng = random.Random(7)
    extra = L1.space.residuals(L.space.basis).nonzero_rows()
    rng.shuffle(extra)
    mid = Subspace.span(Mat.from_blocks([[L1.space.basis],
                                         [L.space.basis[extra[: max(1, len(extra) // 2)], :]]]))
    rep.check("random insertion invariant", "Thm 1.2", True,
              invariant_under(mid, module.stack))
    if m == 4:
        square = discriminant_is_square(form)
        simple = is_simple(L1)
        rep.check("m=4 dichotomy", "Prop 10.2", not square, simple, "spin certification")
        if square:
            _check_prop_10_2(rep, K, L1)
    if m == 2:
        # the 1-dimensional exterior square carries the trace character, so
        # every x acts as tr(x) times the identity (it is not the zero action:
        # L is solvable of class 2 but not nilpotent)
        ts = tensor_square(form, L)
        lam = restrict_module(ts.module, ts.alt)
        by_trace = all(a == Mat.identity(K, lam.dim).scale(x.trace())
                       for (_, a), x in zip(lam.generators, L.basis_mats()))
        rep.check("Lambda^2 action is the trace character (m=2)", "Thm 1.2(4)",
                  True, by_trace)
    return rep


def _diag_form_space(K, m, diag, derived_part):
    """{A : d_i A_ij = d_j A_ji}, with zero diagonal for the derived algebra."""
    rows = []
    for i in range(m):
        if not derived_part:
            rows.append(Mat.unit(K, m, m, i, i).vec())
        for j in range(i + 1, m):
            X = Mat.unit(K, m, m, i, j).scale(K.mul(diag[j], K.inv(diag[i])))
            X = X + Mat.unit(K, m, m, j, i)
            rows.append(X.vec())
    return Subspace.from_rows(K, m * m, rows)


def _symmetrizer(Lspace: Subspace, L1space: Subspace) -> Mat:
    """Matrix of gl/L -> L^(1), X + L -> X + X', on the cosets of e_j, j not a
    pivot of L (`quotient_module`'s representatives).  Over GF(2), A = I and L
    is the symmetric matrices: X + X' vanishes on L, is symmetric with zero
    diagonal, commutes with ad y as y' = y, and dim gl/L = m(m-1)/2 = dim L^(1)."""
    m = math.isqrt(Lspace.ambient)
    E = Mat.identity(Lspace.field, m * m)[Lspace.nonpivots(), :]
    return L1space.coords_of(E + E[:, transposed_positions(m)]).transpose()


def _intertwines(T: Mat, quo: LieModule, sub: LieModule) -> bool:
    """T is invertible and T a = b T for every pair of generators a of quo
    and b of sub: an isomorphism quo -> sub."""
    return (T.nrows == T.ncols and not T.field.is_zero(T.det())
            and all(T @ a == b @ T for a, b in zip(quo.action_mats(), sub.action_mats())))


def _check_prop_10_2(rep: Report, K, L1: MatLieAlg):
    m = 4
    # e_ij + e_ji (e_ii for i = j) under the key (i, j), i <= j: the pivot of its row
    sym, _ = sym_alt_subspaces(m, K)
    unit = {divmod(p, m): u for p, u in zip(sym.pivots, sym.matrices(m, m))}
    f1, f2, f3 = unit[0, 1], unit[1, 2], unit[0, 2]
    h1, h2, h3 = unit[2, 3], unit[0, 3], unit[1, 3]
    gs = [f1 + h1, f2 + h2, f3 + h3]
    S = Subspace.from_rows(K, 16, [f.vec() for f in (f1, f2, f3)])
    R = Subspace.from_rows(K, 16, [g.vec() for g in gs])
    rep.check("L^(1) = S + R", "Prop 10.2", L1.space, S + R)
    rmats = R.matrices(m, m)
    rep.check("R abelian", "Prop 10.2", True, bracket_rows(K, m, rmats, rmats).is_zero())
    rep.check("R ideal of L^(1)", "Prop 10.2", True,
              R.residuals(bracket_rows(K, m, L1.basis_mats(), rmats)).is_zero())
    rep.check("S closed under brackets", "Prop 10.2", True, MatLieAlg(m, S).is_bracket_closed())
    rep.check("S simple", "Prop 10.2", True,
              is_simple(MatLieAlg(m, S)), "spin certification")
    # the unique proper nonzero L^(1)-submodule of L^(1) is the abelian
    # ideal R (not S: [f1, g2] lands outside S)
    ad = adjoint_module(L1, L1.space)
    r_in = Subspace.span(L1.space.coords_of(R.basis))
    subs = all_submodules(ad)
    rep.check("R is the only proper nonzero submodule", "Prop 10.2",
              [r_in], [u for u in subs if 0 < u.dim < ad.dim], "maximal-submodule descent")
    # extending the action to all of L makes L^(1) irreducible:
    # [e11, g1] = f1 leaves R
    e11 = Mat.unit(K, m, m, 0, 0)
    rep.check("[e11, g1] = f1 outside R", "Prop 10.2",
              (True, False),
              (bracket(e11, gs[0]) == f1, R.contains_vector(f1.vec())))
    L = skew_adjoint_algebra(Mat.identity(K, m))
    big = restrict_module(adjoint_module(MatLieAlg(m, L.space), gl_subspace(K, m)),
                          L1.space)
    res = certify_irreducible(big)
    rep.check("L^(1) irreducible as L-module", "Prop 10.2", "irreducible",
              res.status, res.method)


def all_submodules(M: LieModule):
    """All submodules, by descent through maximal submodules.  Those of a
    submodule U are the kernels of the nonzero homs from U onto M's composition
    factors (one per isomorphism class: simple S, T are isomorphic iff
    Hom(S, T) != 0), and every proper submodule lies in a maximal one."""
    K = M.field
    chain = composition_series(M).chain if M.dim else []
    simples = []
    for lo, hi in zip(chain, chain[1:]):
        S = factor_module(M, lo, hi)
        if all(hom_space(S, T).dim == 0 for T in simples):
            simples.append(S)
    full, zero = Subspace.full(K, M.dim), Subspace.zero(K, M.dim)
    found = {zero, full}
    work = [full]
    while work:
        U = work.pop()
        sub = M if U.dim == M.dim else restrict_module(M, U)
        for S in simples:
            H = hom_space(sub, S)
            for coeffs in line_reps(K, H.dim):
                null = kernel((Mat(K, [coeffs]) @ H.basis).reshape(S.dim, sub.dim))
                W = Subspace.span(null.basis @ U.basis)
                if W not in found:
                    found.add(W)
                    work.append(W)
    return sorted(found, key=lambda u: (u.dim, u.basis.rows))


# ---------------------------------------------------------------------------
# Theorems 1.3 / 1.4: characteristic != 2


def run_thm_1_3(m, K) -> Report:
    if K.char == 2:
        raise ValueError("needs characteristic != 2")
    if m < 2 or m % 2:
        raise ValueError("needs even m")
    J = standard_symplectic_gram(K, m)
    rep = Report(f"thm1.3 m={m} field={K.token}", K, m)
    _run_char_not2(rep, classify(J), symplectic=True)
    return rep


def run_thm_1_4(m, K, diag=None) -> Report:
    if K.char == 2:
        raise ValueError("needs characteristic != 2")
    if diag is None:
        diag = [K.one()] * m
    if len(diag) != m or any(K.is_zero(d) for d in diag):
        raise ValueError("needs m nonzero diagonal entries")
    A = Mat.diag(K, list(diag))
    rep = Report(f"thm1.4 m={m} field={K.token}", K, m)
    # the series dichotomy needs m >= 4; smaller m have exceptional lattices
    # covered by the small-case runners
    _run_char_not2(rep, classify(A), symplectic=False, skip_series=(m < 4))
    if m == 4:
        square = discriminant_is_square(classify(A))
        L = skew_adjoint_algebra(A)
        try:
            simple, method = _is_simple_certified(L, _good_primes(A))
        except ValueError:
            if K.order() is not None:
                raise
            # over Q "not simple" rests on a proper ideal
            _so4_ideal(L, A)
            simple, method = False, "so(4) ideal"
        rep.check("m=4 dichotomy", "Note 9.1", not square, simple, method)
    return rep


def _run_char_not2(rep: Report, form: BilForm, symplectic: bool, skip_series=False):
    K = form.field
    m = form.m
    A = form.gram
    ref = "Thm 1.3" if symplectic else "Thm 1.4"
    primes = _good_primes(A)
    L = skew_adjoint_algebra(A, "L")
    M = self_adjoint_module(A)
    gl = gl_subspace(K, m)
    sl = sl_subspace(K, m)
    s = scalars_subspace(K, m)
    Msl = M.intersect(sl)
    dim_l = m * (m + 1) // 2 if symplectic else m * (m - 1) // 2
    dim_m = m * (m - 1) // 2 if symplectic else m * (m + 1) // 2
    rep.check("dim L", ref, dim_l, L.dim)
    rep.check("dim M", ref, dim_m, M.dim)
    rep.check("M = L-perp", ref, M, trace_orthogonal_complement(L.space, gl))
    if symplectic:
        rep.check("M matrix form", "Thm 1.3", _m_of_j_space(K, m), M)
    ts = tensor_square(form, L)
    gamma_alt = gamma_image(ts, ts.alt)
    gamma_sym = gamma_image(ts, ts.sym)
    if symplectic:
        rep.check("Gamma(Lambda^2) = M", "Prop 7.1", M, gamma_alt)
        rep.check("Gamma(S^2) = L", "Prop 7.1", L.space, gamma_sym)
        contraction_side = ts.alt
    else:
        rep.check("Gamma(Lambda^2) = L", "Prop 7.1", L.space, gamma_alt)
        rep.check("Gamma(S^2) = M", "Prop 7.1", M, gamma_sym)
        contraction_side = ts.sym
    ker_omega = contraction_side.intersect(kernel(ts.omega))
    rep.check("Gamma(ker Omega) = M cap sl", "Cor 7.1", Msl,
              gamma_image(ts, ker_omega))
    # the composition series, per the l | m dichotomy
    div = K.char != 0 and m % K.char == 0
    module = adjoint_module(L, gl)
    if skip_series:
        if m == 3 or m >= 5:
            simple, smethod = _is_simple_certified(L, primes)
            rep.check("L simple", "Prop 9.1", True, simple, smethod)
        return
    orth_m4_split = (not symplectic and m == 4
                     and discriminant_is_square(form))
    if symplectic and m == 2:
        expected_chain = [M]
        expected_dims = [1, 3]
        rep.check("M = s (m=2)", "Thm 1.3", s, M)
    elif div:
        expected_chain = [s, Msl, M]
        expected_dims = [1, dim_m - 2, 1, m * m - dim_m]
    else:
        expected_chain = [Msl, M]
        expected_dims = [dim_m - 1, 1, m * m - dim_m]
    if orth_m4_split:
        # square discriminant: so(4) is a sum of two 3-dimensional ideals,
        # so the top factor gl/M = L refines into two 3-dimensional pieces
        ideal = _so4_ideal(L, A)
        rep.check("gl/M splits (m=4, square discriminant)", "Note 9.1",
                  3, ideal.dim)
        expected_chain = expected_chain + [M + ideal]
        expected_dims = expected_dims[:-1] + [3, 3]
    if K.order() is not None:
        cs = composition_series(module, candidate_chain=expected_chain)
        method = "spin certification"
        free = composition_series(module)
        rep.check("Jordan-Holder factor multiset", ref, sorted(expected_dims),
                  sorted(free.factor_dims), method)
    else:
        cs = composition_series(module, candidate_chain=expected_chain, mod_p_primes=primes)
        method = "mod-p"
    rep.check("factor dims", ref, expected_dims, cs.factor_dims, method)
    if not (symplectic and m == 2):
        rep.check("M/(M cap sl) trivial", ref, True,
                  trivial_actions(factor_module(module, Msl, M)))
    # L = gl/M as L-modules: projecting coset representatives onto L along
    # M is an explicit intertwiner (cheaper than solving the full Hom system)
    quo = quotient_module(module, M)
    adL = restrict_module(module, L.space)
    rep.check("gl/M = L (hom witness)", ref, True,
              _intertwines(_projection_intertwiner(L.space, M), quo, adL))
    # simplicity of L
    if symplectic or m == 3 or m >= 5:
        simple, smethod = _is_simple_certified(L, primes)
        rep.check("L simple", "Thm 11.1" if symplectic else "Prop 9.1", True,
                  simple, smethod)


def _projection_intertwiner(Lspace: Subspace, M: Subspace) -> Mat:
    """Matrix of gl/M -> L sending a coset to its L-component along M.

    The coset of e_j, j not a pivot of M, has L-coordinates column j of the
    top rows of the inverse of [L basis | M basis] (bases as columns)."""
    B = Mat.from_blocks([[Lspace.basis], [M.basis]])
    return B.transpose().inv()[: Lspace.dim, M.nonpivots()]


def _so4_ideal(L: MatLieAlg, A: Mat) -> Subspace:
    """The proper ideal {X + tau(X)} of L = so(4, A) for a Gram matrix A of
    square determinant, checked ad-invariant.

    tau(X) = delta A^-1 *(X A^-1), with delta^2 = det A and * the star map:
    X -> X A^-1 is onto the alternating matrices, where ad y acts as
    S -> y S + S y' and * turns that into S -> -y' S - S y, so tau commutes
    with ad; and *(A^-1 S A^-1) = A *S A / det A gives tau^2 = 1.  Its
    1-eigenspace is an ideal."""
    delta = _field_sqrt(L.field, A.det())
    if delta is None:
        raise ValueError("no proper ideal found")
    Ainv = A.inv()
    ideal = Subspace.span(Mat.from_blocks(
        [[(X + Ainv @ star_map(X @ Ainv).scale(delta)).reshape(1, 16)]
         for X in L.basis_mats()]))
    adjoint_module(L, ideal)  # raises unless [L, ideal] lies in the ideal
    if not 0 < ideal.dim < L.dim:
        raise ValueError("no proper ideal found")
    return ideal


def _m_of_j_space(K, m):
    """M(J) = {[[P, Q], [R, P']] : Q, R skew-symmetric}."""
    n = m // 2
    blocks = []
    for i in range(n):
        for j in range(n):
            a = Mat.unit(K, n, n, i, j)
            blocks.append([(0, 0, a), (n, n, a.transpose())])
    for i in range(n):
        for j in range(i + 1, n):
            sk = Mat.unit(K, n, n, i, j) - Mat.unit(K, n, n, j, i)
            blocks.append([(0, n, sk)])
            blocks.append([(n, 0, sk)])
    return _block_span(K, m, blocks)


# ---------------------------------------------------------------------------
# Small-case lattices (Notes 9.2 and 9.3)


def run_note_9_2() -> Report:
    K = GF(3, 2)
    i = (0, 1)  # i^2 = -1 in GF(9)
    rep = Report("note9.2", K, 3)
    A = Mat.identity(K, 3)
    L = skew_adjoint_algebra(A)
    M = self_adjoint_module(A)
    Msl = M.intersect(sl_subspace(K, 3))
    rep.check("dim M cap sl", "Note 9.2", 5, Msl.dim)
    module = adjoint_module(L, Msl)
    eye = Mat.identity(K, 3)

    def mk(rows):
        return Mat(K, [[i if x == "i" else K.of(x) for x in row] for row in rows])

    x1 = mk([[0, 0, 0], [0, 1, "i"], [0, "i", -1]])
    x2 = mk([[0, "i", -1], ["i", 0, 0], [-1, 0, 0]])
    y1 = mk([[0, 0, 0], [0, -1, "i"], [0, "i", 1]])
    y2 = mk([[0, "i", 1], ["i", 0, 0], [1, 0, 0]])
    X = span_in(Msl, [eye, x1, x2])
    Y = span_in(Msl, [eye, y1, y2])
    s_in = span_in(Msl, [eye])
    rep.check("X cap Y = s", "Note 9.2", s_in, X.intersect(Y))
    subs = all_submodules(module)
    proper = [u for u in subs if 0 < u.dim < module.dim]
    rep.check("s, X, Y are submodules", "Note 9.2", True,
              all(u in proper for u in (s_in, X, Y)), "maximal-submodule descent")
    # the stated trio is not the whole lattice: M0/s = X/s + Y/s with
    # X/s isomorphic to Y/s, so each of the q+1 = 10 lines of the
    # projective line over GF(9) yields an intermediate submodule
    rep.check("11 proper nonzero submodules (s plus 10 graphs)", "Note 9.2",
              [1] + [3] * 10, [u.dim for u in proper], "maximal-submodule descent")
    big = adjoint_module(L, gl_subspace(K, 3))
    s = scalars_subspace(K, 3)

    def in_gl(inner):
        return Subspace.span(inner.basis @ Msl.basis)

    Xq = factor_module(big, s, in_gl(X))
    Yq = factor_module(big, s, in_gl(Y))
    rep.check("X/s isomorphic to Y/s", "Note 9.2", 1, hom_space(Xq, Yq).dim)
    return rep


def span_in(amb: Subspace, mats):
    """The span of the matrices mats, in the coordinates of amb (which holds them)."""
    vecs = Mat.from_blocks([[x.reshape(1, amb.ambient)] for x in mats])
    return Subspace.span(amb.coords_of(vecs))


def run_note_9_3() -> Report:
    K = GF(5)
    i = 2  # 2^2 = -1 mod 5
    rep = Report("note9.3", K, 2)
    A = Mat.identity(K, 2)
    L = skew_adjoint_algebra(A)
    M = self_adjoint_module(A)
    Msl = M.intersect(sl_subspace(K, 2))
    rep.check("dim M cap sl", "Note 9.3", 2, Msl.dim)
    module = adjoint_module(L, Msl)
    x = Mat(K, [[1, i], [i, K.neg(1)]])
    y = Mat(K, [[K.neg(1), i], [i, 1]])
    Fx = span_in(Msl, [x])
    Fy = span_in(Msl, [y])
    subs = all_submodules(module)
    proper = [u for u in subs if 0 < u.dim < module.dim]
    rep.check("proper nonzero submodules are Fx, Fy", "Note 9.3",
              sorted([Fx, Fy], key=lambda u: (u.dim, u.basis.rows)), proper,
              "maximal-submodule descent")
    return rep


# ---------------------------------------------------------------------------
# sl(m) series (Thm 4.1)


def run_sl_series(m, K) -> Report:
    if (m, K.char) == (2, 2):
        raise ValueError("the case m=2 in characteristic 2 is excluded")
    rep = Report(f"sl-series m={m} field={K.token}", K, m)
    sl = sl_subspace(K, m)
    s = scalars_subspace(K, m)
    gl = gl_subspace(K, m)
    L = MatLieAlg(m, sl, "sl")
    module = adjoint_module(L, gl)
    div = K.char != 0 and m % K.char == 0
    expected_chain = [s, sl] if div else [sl]
    expected_dims = [1, m * m - 2, 1] if div else [m * m - 1, 1]
    if K.order() is not None:
        cs = composition_series(module, candidate_chain=expected_chain)
        method = "spin certification"
        free = composition_series(module)
        rep.check("Jordan-Holder factor multiset", "Thm 4.1", sorted(expected_dims),
                  sorted(free.factor_dims), method)
    else:
        primes = first_primes_coprime_to(2 * m, count=2)
        cs = composition_series(module, candidate_chain=expected_chain, mod_p_primes=primes)
        method = "mod-p"
        simple, smethod = _is_simple_certified(L, primes)
        rep.check("sl simple", "Thm 4.1", True, simple, smethod)
    rep.check("factor dims", "Thm 4.1", expected_dims, cs.factor_dims, method)
    # forced terms: the fixed vectors are exactly s, and s sits in sl iff l | m
    rep.check("fixed vectors = s", "Thm 4.1", s, kernel(module.stack))
    rep.check("s in sl iff l|m", "Thm 4.1", div, sl.contains(s))
    if not div:
        rep.check("gl = s + sl", "Thm 4.1", (m * m, 0),
                  ((s + sl).dim, s.intersect(sl).dim))
    return rep


# ---------------------------------------------------------------------------
# sp(2n) inside an orthogonal algebra (Thm 3.1)


def run_sp_so_embedding(n, K) -> Report:
    if n < 2:
        raise ValueError("needs n >= 2")
    if K.char != 0 and (2 * n) % K.char == 0:
        raise ValueError("needs characteristic not dividing 2n")
    m = 2 * n
    rep = Report(f"sp-so n={n} field={K.token}", K, m)
    J = standard_symplectic_gram(K, m)
    L = skew_adjoint_algebra(J, "sp")
    M = self_adjoint_module(J)
    sl = sl_subspace(K, m)
    s = scalars_subspace(K, m)
    W = M.intersect(sl)
    d = 2 * n * n - n - 1
    rep.check("dim M cap sl", "Thm 3.1", d, W.dim)
    # orthogonal decomposition gl = L perp (M cap sl) perp s
    pieces = [L.space, W, s]
    total = L.space + W + s
    orth = all(
        K.is_zero(trace_pairing(xm, ym))
        for a in range(3)
        for b in range(a + 1, 3)
        for xm in pieces[a].matrices(m, m)
        for ym in pieces[b].matrices(m, m)
    )
    rep.check("gl = L perp (M cap sl) perp s", "Thm 3.1", (m * m, True),
              (total.dim, orth))
    module = adjoint_module(L, W)
    rep.check("action faithful", "Thm 3.1", 0, representation_kernel(module, L).dim)
    wm = W.matrices(m, m)
    G = Mat(K, [[trace_pairing(x, y) for y in wm] for x in wm])
    gform = classify(G)
    rep.check("G symmetric nondegenerate non-alternating", "Thm 3.1",
              (True, True, False),
              (gform.symmetric, gform.nondegenerate, gform.alternating))
    LG = skew_adjoint_algebra(G)
    in_lg = all(LG.contains(a) for _, a in module.generators)
    rep.check("image inside L(G)", "Thm 3.1", True, in_lg)
    rep.check("dim L(G)", "Thm 3.1", d * (d - 1) // 2, LG.dim)
    if n == 2:
        image = Subspace.from_rows(K, d * d, [a.vec() for _, a in module.generators])
        rep.check("image = L(G)", "Thm 3.1", LG.space, image)
        rep.check("dim sp(4) = dim L(G) = 10", "Thm 3.1", (10, 10), (L.dim, LG.dim))
    _square_upgrade(rep, "Thm 3.1", G)
    return rep


def _field_sqrt(K, a):
    """A square root of a in K, or None.  Over a finite field of odd
    characteristic, the root of a linear factor of x^2 - a."""
    if not K.is_square(a):
        return None
    if K.order() is None:
        return Fraction(math.isqrt(a.numerator), math.isqrt(a.denominator))
    if K.is_zero(a):
        return a
    f = irreducible_factor(K, [K.neg(a), K.zero(), K.one()], 1, random.Random(0))
    return K.neg(f[0])


def _square_upgrade(rep: Report, ref, G: Mat):
    """Report congruence of G to the identity when the diagonal is all squares."""
    K = G.field
    res = diagonalize_symmetric(G)
    roots = [_field_sqrt(K, d) for d in res.normal_form.diagonal()]
    all_square = all(r is not None and not K.is_zero(r) for r in roots)
    if all_square:
        S = res.transform @ Mat.diag(K, [K.inv(r) for r in roots])
        rep.check("G congruent to identity", ref, Mat.identity(K, G.nrows),
                  S.transpose() @ G @ S)
    else:
        rep.check("G not congruent to identity over this field", ref, False, all_square)


# ---------------------------------------------------------------------------
# sl(4) and so(6) (Thm 5.3), with the sl(3) contrast (Thm 5.4)


def run_sl4_so6(K) -> Report:
    if K.char == 2:
        raise ValueError("needs characteristic != 2")
    rep = Report(f"sl4-so6 field={K.token}", K, 4)
    Z, _ = conjugation_modules(4, K)
    Zsl = restrict_to_sl(Z, 4, K)
    _, alt = sym_alt_subspaces(4, K)
    T = restrict_module(Zsl, alt)  # dim 6
    tmats = alt.matrices(4, 4)
    # the star map in the coordinates of T
    Phi = alt.coords_of(Mat.from_blocks([[star_map(t).reshape(1, 16)] for t in tmats])).transpose()
    Asl = restrict_to_sl(conjugation_modules(4, K)[1], 4, K)
    C = restrict_module(Asl, alt)
    ok = all(Phi @ at == ac @ Phi
             for (_, at), (_, ac) in zip(T.generators, C.generators))
    rep.check("star map equivariant T -> C", "Thm 5.3",
              (True, True), (ok, not K.is_zero(Phi.det())))
    G = Mat(K, [[(star_map(x) @ y).trace() for y in tmats] for x in tmats])
    gf = classify(G)
    rep.check("g symmetric nondegenerate", "Thm 5.3", (True, True),
              (gf.symmetric, gf.nondegenerate))
    invariant = all(
        ((a.transpose() @ G) + (G @ a)).is_zero() for _, a in T.generators
    )
    rep.check("g invariant (image in L(G))", "Thm 5.3", True, invariant)
    LG = skew_adjoint_algebra(G)
    image = Subspace.from_rows(K, 36, [a.vec() for _, a in T.generators])
    rep.check("dim sl(4) = dim L(G) = 15", "Thm 5.3", (15, 15),
              (image.dim, LG.dim))
    rep.check("image = L(G)", "Thm 5.3", LG.space, image)
    _square_upgrade(rep, "Thm 5.3", G)
    # contrast: over sl(3) the exterior square is not self-dual
    Z3sl = restrict_to_sl(conjugation_modules(3, K)[0], 3, K)
    _, alt3 = sym_alt_subspaces(3, K)
    T3 = restrict_module(Z3sl, alt3)
    rep.check("Hom_{sl(3)}(T, T*) = 0", "Thm 5.4", 0,
              hom_space(T3, dual_module(T3)).dim)
    return rep


# ---------------------------------------------------------------------------
# Irreducibility of the block modules (Thms 5.5 and 5.6)


def run_block_irreducibles(n, K) -> Report:
    if n < 2:
        raise ValueError("needs n >= 2")
    if K.order() is None:
        raise ValueError("needs a finite field (certification budget)")
    rep = Report(f"blocks n={n} field={K.token}", K, n)
    Z, A = conjugation_modules(n, K)
    Zsl = restrict_to_sl(Z, n, K)
    Asl = restrict_to_sl(A, n, K)
    sym, alt = sym_alt_subspaces(n, K)
    T = restrict_module(Zsl, alt)
    C = restrict_module(Asl, alt)
    for name, mod, ref in (("T", T, "Thm 5.5"), ("C", C, "Thm 5.5")):
        res = certify_irreducible(mod)
        rep.check(f"{name} irreducible", ref, "irreducible", res.status, res.method)
    if n == 2:
        rep.check("T trivial for n=2", "Thm 5.5", (1, True),
                  (T.dim, trivial_actions(T)))
    if K.char != 2:
        S = restrict_module(Zsl, sym)
        B = restrict_module(Asl, sym)
        for name, mod in (("S", S), ("B", B)):
            res = certify_irreducible(mod)
            rep.check(f"{name} irreducible", "Thm 5.6", "irreducible", res.status,
                      res.method)
    return rep


# ---------------------------------------------------------------------------
# Heisenberg modules (Props 12.2 and 12.3)


def run_heisenberg_cases(n, ell, alpha=None) -> Report:
    K = GF(ell)
    if alpha is None:
        alpha = K.one()
    if K.is_zero(alpha):
        raise ValueError("alpha must be nonzero")
    rep = Report(f"heisenberg n={n} l={ell}", K, 2 * n + 1)
    h = heisenberg(K, n)
    V = heisenberg_poly_module(K, n, alpha)
    rep.check("dim = l^n", "Prop 12.3", ell**n, V.dim)
    rep.check("action respects brackets", "Prop 12.3", True, respects_brackets(V, h))
    rep.check("faithful", "Prop 12.3", 0, representation_kernel(V, h).dim)
    res = certify_irreducible(V)
    rep.check("irreducible", "Prop 12.3", "irreducible", res.status, res.method)
    if (n, ell) == (2, 2) and alpha == K.one():
        _check_prop_12_2(rep)
    return rep


def _check_prop_12_2(rep: Report):
    K = GF(2)
    m, n = 4, 2
    J = standard_symplectic_gram(K, m)
    L = skew_adjoint_algebra(J, "L")
    ds = derived_series(L)
    rep.check("derived dims", "Prop 12.2", [10, 6, 5, 1, 0], [a.dim for a in ds])
    L2, L3 = ds[2].space, ds[3].space
    rep.check("L^(3) = s", "Prop 12.2", scalars_subspace(K, m), L3)
    z2 = Mat.zeros(K, 2, 2)
    s12 = Mat.unit(K, 2, 2, 0, 1) + Mat.unit(K, 2, 2, 1, 0)
    x = Mat.from_blocks([[z2, s12], [z2, z2]])
    y = Mat.from_blocks([[z2, z2], [s12, z2]])
    e = Mat.from_blocks([[Mat.unit(K, 2, 2, 0, 1), z2], [z2, Mat.unit(K, 2, 2, 1, 0)]])
    # f has e21 in the top-left block: the diagonal blocks must be mutual
    # transposes for f to lie in L at all, and then [e, f] = I as required
    f = Mat.from_blocks([[Mat.unit(K, 2, 2, 1, 0), z2], [z2, Mat.unit(K, 2, 2, 0, 1)]])
    eye = Mat.identity(K, m)
    rep.check("L^(2) basis", "Prop 12.2",
              Subspace.from_rows(K, 16, [v.vec() for v in (x, y, e, f, eye)]), L2)
    rep.check("[x,y] = [e,f] = z", "Prop 12.2", (eye, eye), (bracket(x, y), bracket(e, f)))
    # U = L^(2)/s with basis e, x, f, y; g(u,v) reads the bracket in s
    ubasis = [e, x, f, y]
    gram = [[K.zero()] * 4 for _ in range(4)]
    for i2 in range(4):
        for j2 in range(4):
            br = bracket(ubasis[i2], ubasis[j2])
            gram[i2][j2] = K.one() if br == eye else K.zero()
            if not (br == eye or br.is_zero()):
                raise AssertionError("bracket left the scalars")
    gram = Mat(K, gram)
    rep.check("Gram of g on U is J", "Prop 12.2", standard_symplectic_gram(K, 4), gram)
    # the representation R of L on U; kernel L^(2), image 5-dimensional in L(g)
    u_in_l2 = Subspace.from_rows(K, 16, [v.vec() for v in ubasis] + [eye.vec()])
    coords = _coset_coords_factory(u_in_l2, ubasis, eye)
    a = Mat.from_blocks([[Mat.unit(K, 2, 2, 0, 0), z2], [z2, Mat.unit(K, 2, 2, 0, 0)]])
    b1 = Mat.from_blocks([[z2, Mat.unit(K, 2, 2, 0, 0)], [z2, z2]])
    b2 = Mat.from_blocks([[z2, Mat.unit(K, 2, 2, 1, 1)], [z2, z2]])
    c1 = Mat.from_blocks([[z2, z2], [Mat.unit(K, 2, 2, 0, 0), z2]])
    c2 = Mat.from_blocks([[z2, z2], [Mat.unit(K, 2, 2, 1, 1), z2]])

    def R(zmat):
        cols = [coords(bracket(zmat, u)) for u in ubasis]
        return Mat(K, [[cols[j][i] for j in range(4)] for i in range(4)])

    poly = heisenberg_poly_module_on_basis(
        K, n, K.one(), [(0, 1), (0, 0), (1, 0), (1, 1)]
    )
    expected = {lbl: mat for lbl, mat in poly.generators}
    rep.check("R matches the polynomial module", "Prop 12.2",
              [expected[lbl].to_text() for lbl in ("u1", "u2", "v1", "v2", "z")],
              [R(v).to_text() for v in (b1, b2, c1, c2, a)])
    rmats = [R(v) for v in L.basis_mats()]
    kdim = kernel(Mat(K, [rm.vec() for rm in rmats]).transpose()).dim
    rep.check("dim ker R = dim L^(2)", "Prop 12.2", L2.dim, kdim)
    image = Subspace.from_rows(K, 16, [rm.vec() for rm in rmats])
    rep.check("R(L) is 5-dimensional", "Prop 12.2", 5, image.dim)
    Lg = skew_adjoint_algebra(standard_symplectic_gram(K, 4))
    rep.check("R(L) inside L(g)", "Prop 12.2", True, Lg.space.contains(image))
    rep.check("R(L) closed under brackets", "Prop 12.2", True,
              MatLieAlg(4, image).is_bracket_closed())
    # U as a quotient by s: check irreducibility of L^(2)/s under L
    mod5 = adjoint_module(L, u_in_l2)
    s_in = Subspace.span(u_in_l2.coords_of(eye.reshape(1, 16)))
    Umod = quotient_module(mod5, s_in)
    res = certify_irreducible(Umod)
    rep.check("U irreducible", "Prop 12.2", "irreducible", res.status, res.method)


def _coset_coords_factory(span: Subspace, ubasis, eye):
    K = span.field
    B = Mat(K, [v.vec() for v in ubasis] + [eye.vec()]).transpose()

    def coords(mat):
        c = solve(B, mat.vec())
        if c is None:
            raise AssertionError("value left the span of U and s")
        return c[:4]

    return coords


# ---------------------------------------------------------------------------
# Aggregate runner


def run_all(grid=None):
    """Run the whole suite on a desk-scale grid and return the reports."""
    if grid is None:
        grid = default_grid()
    reports = []
    for fn, args in grid:
        try:
            reports.append(fn(*args))
        except Exception as exc:  # collect, do not abort the sweep
            K = QQ
            r = Report(f"{fn.__name__}{args}", K, 0)
            r.check("runner completed", "suite", True, f"error: {exc}")
            reports.append(r)
    reports.sort(key=lambda r: r.case)
    return reports


def default_grid():
    grid = []
    for m in (4, 6, 8, 10):
        grid.append((run_thm_1_1, (m,)))
    grid.append((run_thm_1_1, (2,)))
    for m in (2, 3, 4, 5, 6):
        grid.append((run_thm_1_2, (m,)))
    for K in (GF(3), GF(5), GF(7), QQ):
        for m in (2, 4, 6):
            grid.append((run_thm_1_3, (m, K)))
        for m in (4, 5, 6):
            grid.append((run_thm_1_4, (m, K)))
    grid.append((run_note_9_2, ()))
    grid.append((run_note_9_3, ()))
    for K in (GF(3), GF(5), QQ):
        for m in (2, 3, 4):
            if (m, K.char) == (2, 2):
                continue
            grid.append((run_sl_series, (m, K)))
    grid.append((run_sp_so_embedding, (2, GF(13))))
    grid.append((run_sl4_so6, (GF(7),)))
    grid.append((run_block_irreducibles, (2, GF(5))))
    grid.append((run_block_irreducibles, (3, GF(3))))
    for n, ell in ((1, 2), (1, 3), (2, 2), (2, 3)):
        grid.append((run_heisenberg_cases, (n, ell)))
    return grid
