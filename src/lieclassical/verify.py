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
    bracket,
    bracket_rows,
    derived_series,
    gl_subspace,
    heisenberg,
    is_bracket_closed,
    is_simple,
    lie_isomorphic_by_structure,
    quotient_algebra,
    scalars_subspace,
    self_adjoint_module,
    skew_adjoint_algebra,
    sl_subspace,
    trace_gram,
    trace_orthogonal_complement,
    transposed_positions,
)
from .linalg import Mat, Subspace, echelon, irreducible_factor, kernel, kron
from .repmod import (
    BudgetExceeded,
    LieModule,
    adjoint_module,
    certify_irreducible,
    composition_series,
    conjugation_modules,
    dual_module,
    equivariant,
    factor_module,
    first_primes_coprime_to,
    gamma_image,
    heisenberg_poly_module,
    heisenberg_poly_module_on_basis,
    hom_space,
    invariant_under,
    irreducible,
    line_reps,
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


def _block_form(K, n, bc, traceless):
    """The span of [[A, B], [C, A']] with B and C in the n x n subspace bc and
    A any n x n matrix, or any traceless one: each family of rows vec(piece)
    placed in the 2n x 2n matrices by one product with identity rows."""
    eye = Mat.identity(K, 4 * n * n)

    def at(r, c):  # the rows of I that place an n x n piece with its corner at (r, c)
        return eye[[(r + i) * 2 * n + c + j for i in range(n) for j in range(n)], :]

    a = (sl_subspace(K, n) if traceless else gl_subspace(K, n)).basis
    diagonal = a @ at(0, 0) + a[:, transposed_positions(n)] @ at(n, n)
    return Subspace.span(Mat.from_blocks([[diagonal], [bc.basis @ at(0, n)],
                                          [bc.basis @ at(n, 0)]]))


def _sp_block(K, n, a=None, b=None, c=None):
    """[[a, b], [c, a']], zero where no piece is given."""
    z = Mat.zeros(K, n, n)
    a = z if a is None else a
    return Mat.from_blocks([[a, z if b is None else b], [z if c is None else c, a.transpose()]])


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


def _canonical_series(rep: Report, ref, module: LieModule, chain):
    """The composition series the paper's chain gives, or None, recording
    whether it is one; a spent budget is no verdict and propagates."""
    try:
        cs = composition_series(module, candidate_chain=chain)
    except BudgetExceeded:
        raise
    except ValueError:
        cs = None
    rep.check("canonical chain is a composition series", ref, True, cs is not None,
              "spin certification")
    return cs


# ---------------------------------------------------------------------------
# Theorem 1.1: characteristic 2, alternating form


def run_thm_1_1(m) -> Report:
    if m < 2 or m % 2:
        raise ValueError("needs even m >= 2")
    K = GF(2)
    rep = Report(f"thm1.1 m={m}", K, m)
    if m == 2:
        return _run_m2_alternating(rep)
    n = m // 2
    J = standard_symplectic_gram(K, m)
    L = skew_adjoint_algebra(J)
    ds = derived_series(L)
    L1, L2 = ds[1], ds[2]
    s = scalars_subspace(K, m)
    sl = sl_subspace(K, m)
    four = m % 4 == 0
    x = Mat.from_blocks([[Mat.identity(K, n), Mat.zeros(K, n, n)],
                         [Mat.zeros(K, n, n), Mat.zeros(K, n, n)]])
    U = Subspace.span(Mat.from_blocks([[L.basis], [x.reshape(1, m * m)]]))
    rep.check("[x, L] in L", "Thm 1.1", True,
              L.residuals(bracket_rows(x.reshape(1, m * m), L.basis)).is_zero())
    canonical = [s, L2] if four else [L2]
    canonical += [L1] + _fill_between(L1, L) + [L]
    if four:
        canonical.append(U)
    canonical.append(sl)
    cs = _canonical_series(rep, "Thm 1.1", adjoint_module(L, gl_subspace(K, m)), canonical)
    if cs is None:
        return rep
    rep.check("factor count", "Thm 1.1", m + 6 if four else m + 4, cs.n_factors,
              "spin certification")
    nontriv = sorted(d for d, t in zip(cs.factor_dims, cs.factor_trivial) if not t)
    want = m * (m - 1) // 2 - (2 if four else 1)
    rep.check("nontrivial factor dims", "Thm 1.1", [want, want], nontriv,
              "spin certification")
    # over GF(2), alt is the symmetric matrices with zero diagonal
    sym, alt = sym_alt_subspaces(n, K)
    rep.check("L matrix form", "Thm 1.1(3)", _block_form(K, n, sym, False), L)
    rep.check("L^(1) matrix form", "Thm 1.1(4)", _block_form(K, n, alt, False), L1)
    rep.check("L^(2) matrix form", "Thm 1.1(5)", _block_form(K, n, alt, True), L2)
    ts = tensor_square(classify(J))
    rep.check("Gamma(S^2) = L", "Thm 7.5", L, gamma_image(ts, ts.sym, L))
    rep.check("Gamma(Lambda^2) = L^(1)", "Thm 7.5", L1, gamma_image(ts, ts.alt, L1))
    ker_delta = ts.alt.lift_subspace(kernel(ts.delta @ ts.alt.basis.transpose()))
    rep.check("Gamma(ker Delta) = L^(2)", "Thm 7.5", L2, gamma_image(ts, ker_delta, L2))
    rep.check("s in L^(2) iff 4|m", "Thm 7.5(6)", four, L2.contains(s))
    # h(n) quotient on the canonical representatives
    units = [Mat.unit(K, n, n, i, i) for i in range(n)]
    reps = ([_sp_block(K, n, b=u) for u in units] + [_sp_block(K, n, c=u) for u in units]
            + [_sp_block(K, n, a=units[0])])
    Q, _ = quotient_algebra(L, L2, reps=Mat.from_blocks([[r.reshape(1, m * m)] for r in reps]))
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


def _run_m2_alternating(rep: Report) -> Report:
    K = rep.field
    J = standard_symplectic_gram(K, 2)
    L = skew_adjoint_algebra(J)
    module = adjoint_module(L, gl_subspace(K, 2))
    cs = composition_series(module)
    rep.check("4 trivial factors", "Note 12.5", ([1, 1, 1, 1], [True] * 4),
              (cs.factor_dims, cs.factor_trivial), "spin certification")
    e = Mat.unit(K, 2, 2, 0, 1)
    f = Mat.unit(K, 2, 2, 1, 0)
    eye = Mat.identity(K, 2)
    reps = Mat.from_blocks([[x.reshape(1, 4)] for x in (e, f, eye)])
    S, _ = quotient_algebra(L, Subspace.zero(K, 4), reps=reps)
    rep.check("L = h(1)", "Note 12.5", True,
              lie_isomorphic_by_structure(heisenberg(K, 1), S, Mat.identity(K, 3)))
    poly = heisenberg_poly_module(K, 1, K.one())
    rep.check("natural module is F[X]/(X^2)", "Note 12.5",
              [a.to_text() for a in poly.action_mats()],
              [a.to_text() for a in (e, f, eye)])
    return rep


# ---------------------------------------------------------------------------
# Theorem 1.2: characteristic 2, symmetric non-alternating diagonal form


def run_thm_1_2(m) -> Report:
    """Over GF(2) every nonzero diagonal is I, so the form is the identity."""
    if m < 2:
        raise ValueError("needs m >= 2")
    K = GF(2)
    rep = Report(f"thm1.2 m={m}", K, m)
    L = skew_adjoint_algebra(Mat.identity(K, m))
    L1 = derived_series(L)[1]
    module = adjoint_module(L, gl_subspace(K, m))
    cs = _canonical_series(rep, "Thm 1.2", module, [L1] + _fill_between(L1, L) + [L])
    if cs is None:
        return rep
    rep.check("factor count", "Thm 1.2", m + 2, cs.n_factors, "spin certification")
    # {A : A_ij = A_ji}, and its zero-diagonal part for the derived algebra
    sym, alt = sym_alt_subspaces(m, K)
    rep.check("L matrix form", "Thm 1.2", sym, L)
    rep.check("L^(1) matrix form", "Thm 1.2", alt, L1)
    if m == 3 or m >= 5:
        rep.check("L^(1) simple", "Thm 8.1", True, is_simple(L1), "spin certification")
        rep.check("dim L^(1)", "Thm 8.1", m * (m - 1) // 2, L1.dim)
    # gl/L = L^(1) as L-modules, witnessed by phi(X) = X + X'
    quo = quotient_module(module, L)
    sub = restrict_module(module, L1)
    rep.check("gl/L = L^(1) (hom witness)", "Thm 1.2(4)", True,
              _intertwines(_symmetrizer(L, L1), quo, sub))
    # m-1 free insertions between L^(1) and L: trivial action on L/L^(1)
    rep.check("L/L^(1) trivial action", "Thm 1.2", True,
              trivial_actions(factor_module(module, L1, L)))
    rng = random.Random(7)
    extra = L1.residuals(L.basis).nonzero_rows()
    rng.shuffle(extra)
    mid = Subspace.span(Mat.from_blocks([[L1.basis],
                                         [L.basis[extra[: max(1, len(extra) // 2)], :]]]))
    rep.check("random insertion invariant", "Thm 1.2", True,
              invariant_under(mid, module.stack))
    if m == 4:
        # the discriminant det I = 1 is a square: L^(1) is not simple
        rep.check("m=4 dichotomy", "Prop 10.2", False, is_simple(L1), "spin certification")
        _check_prop_10_2(rep, L1, sub)
    if m == 2:
        # the exterior square F T, T = e12 - e21, carries the trace character:
        # x acts on V (x) V by T -> x T + T x', and x T + T x' = tr(x) T (not
        # the zero action: L is solvable of class 2 but not nilpotent)
        T = Mat.unit(K, 2, 2, 0, 1) - Mat.unit(K, 2, 2, 1, 0)
        by_trace = all(x @ T + T @ x.transpose() == T.scale(x.trace())
                       for x in L.matrices(2, 2))
        rep.check("Lambda^2 action is the trace character (m=2)", "Thm 1.2(4)",
                  True, by_trace)
    return rep


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
    return T.nrows == T.ncols and not T.field.is_zero(T.det()) and equivariant(T, quo, sub)


def _check_prop_10_2(rep: Report, L1: Subspace, sub: LieModule):
    """sub is L^(1) as a module for L = L(I), restricted from L's gl(4) stack."""
    K, m = L1.field, 4
    # e_ij + e_ji (e_ii for i = j) under the key (i, j), i <= j: the pivot of its row
    sym, _ = sym_alt_subspaces(m, K)
    unit = {divmod(p, m): u for p, u in zip(sym.pivots, sym.matrices(m, m))}
    f1, f2, f3 = unit[0, 1], unit[1, 2], unit[0, 2]
    h1, h2, h3 = unit[2, 3], unit[0, 3], unit[1, 3]
    gs = [f1 + h1, f2 + h2, f3 + h3]
    S = Subspace.span(Mat.from_blocks([[f.reshape(1, 16)] for f in (f1, f2, f3)]))
    R = Subspace.span(Mat.from_blocks([[g.reshape(1, 16)] for g in gs]))
    rep.check("L^(1) = S + R", "Prop 10.2", L1, S + R)
    rep.check("R abelian", "Prop 10.2", True, bracket_rows(R.basis, R.basis).is_zero())
    rep.check("R ideal of L^(1)", "Prop 10.2", True,
              R.residuals(bracket_rows(L1.basis, R.basis)).is_zero())
    rep.check("S closed under brackets", "Prop 10.2", True, is_bracket_closed(S))
    rep.check("S simple", "Prop 10.2", True, is_simple(S), "spin certification")
    # the unique proper nonzero L^(1)-submodule of L^(1) is the abelian
    # ideal R (not S: [f1, g2] lands outside S)
    ad = adjoint_module(L1, L1)
    r_in = L1.coords_subspace(R)
    subs = all_submodules(ad)
    rep.check("R is the only proper nonzero submodule", "Prop 10.2",
              [r_in], [u for u in subs if 0 < u.dim < ad.dim], "maximal-submodule descent")
    # extending the action to all of L makes L^(1) irreducible:
    # [e11, g1] = f1 leaves R
    e11 = Mat.unit(K, m, m, 0, 0)
    rep.check("[e11, g1] = f1 outside R", "Prop 10.2",
              (True, False),
              (bracket(e11, gs[0]) == f1, R.residuals(f1.reshape(1, 16)).is_zero()))
    res = certify_irreducible(sub)
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
        sub = restrict_module(M, U)
        for S in simples:
            H = hom_space(sub, S)
            for coeffs in line_reps(K, H.dim):
                null = kernel((Mat(K, [coeffs]) @ H.basis).reshape(S.dim, sub.dim))
                W = U.lift_subspace(null)
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
        raise ValueError("needs even m >= 2")
    J = standard_symplectic_gram(K, m)
    rep = Report(f"thm1.3 m={m} field={K.token}", K, m)
    _run_char_not2(rep, classify(J), symplectic=True)
    return rep


def run_thm_1_4(m, K, diag=None) -> Report:
    if K.char == 2:
        raise ValueError("needs characteristic != 2")
    if m < 2:
        raise ValueError("needs m >= 2")
    if diag is None:
        diag = [K.one()] * m
    if len(diag) != m or any(K.is_zero(d) for d in diag):
        raise ValueError("needs m nonzero diagonal entries")
    A = Mat.diag(K, list(diag))
    rep = Report(f"thm1.4 m={m} field={K.token}", K, m)
    _run_char_not2(rep, classify(A), symplectic=False)
    return rep


def _run_char_not2(rep: Report, form: BilForm, symplectic: bool):
    K = form.field
    m = form.m
    A = form.gram
    ref = "Thm 1.3" if symplectic else "Thm 1.4"
    primes = _good_primes(A)
    method = "mod-p" if primes else "spin certification"
    L = skew_adjoint_algebra(A)
    M = self_adjoint_module(A)
    gl = gl_subspace(K, m)
    s = scalars_subspace(K, m)
    Msl = trace_orthogonal_complement(s, M)
    dim_l = m * (m + 1) // 2 if symplectic else m * (m - 1) // 2
    dim_m = m * (m - 1) // 2 if symplectic else m * (m + 1) // 2
    rep.check("dim L", ref, dim_l, L.dim)
    rep.check("dim M", ref, dim_m, M.dim)
    rep.check("M = L-perp", ref, M, trace_orthogonal_complement(L, gl))
    if symplectic:
        rep.check("M matrix form", "Thm 1.3",
                  _block_form(K, m // 2, sym_alt_subspaces(m // 2, K)[1], False), M)
    ts = tensor_square(form)
    if symplectic:
        rep.check("Gamma(Lambda^2) = M", "Prop 7.1", M, gamma_image(ts, ts.alt, M))
        rep.check("Gamma(S^2) = L", "Prop 7.1", L, gamma_image(ts, ts.sym, L))
        contraction_side = ts.alt
    else:
        rep.check("Gamma(Lambda^2) = L", "Prop 7.1", L, gamma_image(ts, ts.alt, L))
        rep.check("Gamma(S^2) = M", "Prop 7.1", M, gamma_image(ts, ts.sym, M))
        contraction_side = ts.sym
    ker_omega = contraction_side.lift_subspace(
        kernel(ts.omega @ contraction_side.basis.transpose()))
    rep.check("Gamma(ker Omega) = M cap sl", "Cor 7.1", Msl,
              gamma_image(ts, ker_omega, Msl))
    # the series dichotomy of Thm 1.4 needs m >= 4; smaller m have
    # exceptional lattices covered by the small-case runners
    if not symplectic and m < 4:
        if m == 3:
            rep.check("L simple", "Prop 9.1", True, is_simple(L, primes), method)
        return
    # the composition series, per the l | m dichotomy
    div = K.char != 0 and m % K.char == 0
    module = adjoint_module(L, gl)
    orth_m4_split = (not symplectic and m == 4
                     and discriminant_is_square(form))
    if symplectic and m == 2:
        expected_chain, expected_dims = [M], [1, 3]
        rep.check("M = s (m=2)", "Thm 1.3", s, M)
    elif div:
        expected_chain, expected_dims = [s, Msl, M], [1, dim_m - 2, 1, m * m - dim_m]
    else:
        expected_chain, expected_dims = [Msl, M], [dim_m - 1, 1, m * m - dim_m]
    if orth_m4_split:
        # square discriminant: so(4) is a sum of two 3-dimensional ideals,
        # so the top factor gl/M = L refines into two 3-dimensional pieces
        ideal = _so4_ideal(L, A)
        rep.check("gl/M splits (m=4, square discriminant)", "Note 9.1",
                  3, ideal.dim)
        expected_chain = expected_chain + [M + ideal]
        expected_dims = expected_dims[:-1] + [3, 3]
    cs = composition_series(module, candidate_chain=expected_chain, mod_p_primes=primes)
    if not primes:
        free = composition_series(module)
        rep.check("Jordan-Holder factor multiset", ref, sorted(expected_dims),
                  sorted(free.factor_dims), method)
    rep.check("factor dims", ref, expected_dims, cs.factor_dims, method)
    if not (symplectic and m == 2):
        rep.check("M/(M cap sl) trivial", ref, True,
                  trivial_actions(factor_module(module, Msl, M)))
    # L = gl/M as L-modules: projecting coset representatives onto L along
    # M is an explicit intertwiner (cheaper than solving the full Hom system)
    adL = restrict_module(module, L)
    hom = _intertwines(_projection_intertwiner(L, M), quotient_module(module, M), adL)
    rep.check("gl/M = L (hom witness)", ref, True, hom)
    # a split so(4) is not simple: `_so4_ideal` checked its ideal proper and
    # ad-invariant.  Otherwise L is simple when the witness holds, as the
    # certified top factor gl/M is; L is certified itself only when it fails
    simple = not orth_m4_split and (hom or irreducible(adL, primes)[0])
    how = "so(4) ideal" if orth_m4_split and primes else method
    if symplectic or m >= 5:
        rep.check("L simple", "Thm 11.1" if symplectic else "Prop 9.1", True, simple, how)
    else:
        rep.check("m=4 dichotomy", "Note 9.1", not orth_m4_split, simple, how)


def _projection_intertwiner(Lspace: Subspace, M: Subspace) -> Mat:
    """Matrix of gl/M -> L sending a coset to its L-component along M.

    The rows of L's basis reduced modulo M, at M's non-pivot positions, are
    the quotient coordinates of L's basis: the inverse of that q x q matrix,
    transposed, takes a coset's coordinates to L-coordinates."""
    return M.residuals(Lspace.basis).inv().transpose()


def _so4_ideal(L: Subspace, A: Mat) -> Subspace:
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
    # vec(X B) is vec(X) kron(I, B) and vec(B X) is vec(X) kron(B', I)
    Ainv, eye = A.inv(), Mat.identity(L.field, 4)
    stars = star_map(L.basis @ kron(eye, Ainv)) @ kron(Ainv.transpose(), eye)
    ideal = Subspace.span(L.basis + stars.scale(delta))
    if not ideal.residuals(bracket_rows(L.basis, ideal.basis)).is_zero():
        raise ValueError("subspace is not an ideal")  # [L, ideal] leaves the ideal
    if not 0 < ideal.dim < L.dim:
        raise ValueError("no proper ideal found")
    return ideal


# ---------------------------------------------------------------------------
# Small-case lattices (Notes 9.2 and 9.3)


def run_note_9_2() -> Report:
    K = GF(3, 2)
    i = (0, 1)  # i^2 = -1 in GF(9)
    rep = Report("note9.2", K, 3)
    A = Mat.identity(K, 3)
    L = skew_adjoint_algebra(A)
    M = self_adjoint_module(A)
    s = scalars_subspace(K, 3)
    Msl = trace_orthogonal_complement(s, M)
    rep.check("dim M cap sl", "Note 9.2", 5, Msl.dim)
    big = adjoint_module(L, gl_subspace(K, 3))
    module = restrict_module(big, Msl)
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
    Xq = factor_module(big, s, Msl.lift_subspace(X))
    Yq = factor_module(big, s, Msl.lift_subspace(Y))
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
    Msl = trace_orthogonal_complement(scalars_subspace(K, 2), M)
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
    if m < 2:
        raise ValueError("needs m >= 2")
    if (m, K.char) == (2, 2):
        raise ValueError("the case m=2 in characteristic 2 is excluded")
    rep = Report(f"sl-series m={m} field={K.token}", K, m)
    sl = sl_subspace(K, m)
    s = scalars_subspace(K, m)
    gl = gl_subspace(K, m)
    module = adjoint_module(sl, gl)
    div = K.char != 0 and m % K.char == 0
    expected_chain = [s, sl] if div else [sl]
    expected_dims = [1, m * m - 2, 1] if div else [m * m - 1, 1]
    primes = _good_primes(Mat.identity(K, m))
    method = "mod-p" if primes else "spin certification"
    cs = composition_series(module, candidate_chain=expected_chain, mod_p_primes=primes)
    if primes:
        # over Q the chain is [sl]: its certified first factor is sl itself
        rep.check("sl simple", "Thm 4.1", True, cs.chain[1] == sl, method)
    else:
        free = composition_series(module)
        rep.check("Jordan-Holder factor multiset", "Thm 4.1", sorted(expected_dims),
                  sorted(free.factor_dims), method)
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
    L = skew_adjoint_algebra(J)
    M = self_adjoint_module(J)
    s = scalars_subspace(K, m)
    W = trace_orthogonal_complement(s, M)
    d = 2 * n * n - n - 1
    rep.check("dim M cap sl", "Thm 3.1", d, W.dim)
    # orthogonal decomposition gl = L perp (M cap sl) perp s
    pieces = [L, W, s]
    orth = all(trace_gram(pieces[a].basis, pieces[b].basis).is_zero()
               for a, b in ((0, 1), (0, 2), (1, 2)))
    rep.check("gl = L perp (M cap sl) perp s", "Thm 3.1", (m * m, True),
              ((L + W + s).dim, orth))
    module = adjoint_module(L, W)
    rep.check("action faithful", "Thm 3.1", 0, representation_kernel(module, L).dim)
    G = trace_gram(W.basis, W.basis)
    gform = classify(G)
    rep.check("G symmetric nondegenerate non-alternating", "Thm 3.1",
              (True, True, False),
              (gform.symmetric, gform.nondegenerate, gform.alternating))
    LG = skew_adjoint_algebra(G)
    images = module.stack.reshape(module.count, d * d)
    rep.check("image inside L(G)", "Thm 3.1", True, LG.residuals(images).is_zero())
    rep.check("dim L(G)", "Thm 3.1", d * (d - 1) // 2, LG.dim)
    if n == 2:
        rep.check("image = L(G)", "Thm 3.1", LG, Subspace.span(images))
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
    """Report whether the symmetric G is congruent to the identity, and only
    what is proved.  Over a finite field of odd order G = I iff det G is a
    square; over Q a non-square det G or a negative diagonal entry refutes
    it (Sylvester's law), and the congruence is proved when S' G S = I is
    built; any other case is undecided."""
    K, det = G.field, G.det()
    res = diagonalize_symmetric(G)
    diag = res.normal_form.diagonal()
    if (K.is_zero(det) or not K.is_square(det)
            or (K.order() is None and any(d < 0 for d in diag))):
        rep.check("G not congruent to identity over this field", ref, False, False)
        return
    C = _unit_columns(K, diag)
    S = None if C is None else res.transform @ C
    rep.check("G congruent to identity", ref, Mat.identity(K, G.nrows),
              None if S is None else S.transpose() @ G @ S,
              "undecided" if S is None else "exact")


def _unit_columns(K, diag):
    """C with C' D C = I for D = diag(diag), or None when none is found:
    column i is e_i / sqrt(d_i) for a square d_i, and a pair (a, b) of
    non-squares at (i, j) gives the columns x e_i + y e_j and
    (-b y e_i + a x e_j) / sqrt(ab), so a x^2 + b y^2 = 1, for the first
    x = s + t a (x = 0, 1, 2, ... first) with (1 - a x^2) / b = y^2 a
    square: all of GF(p^2), as a non-square a is outside GF(p)."""
    n = len(diag)
    C = [[K.zero()] * n for _ in range(n)]
    unpaired = None
    for j, b in enumerate(diag):
        root = _field_sqrt(K, b)
        if root is not None:
            C[j][j] = K.inv(root)
        elif unpaired is None:
            unpaired = j
        else:
            i, a, unpaired = unpaired, diag[unpaired], None
            xs = (K.add(K.of(s), K.mul(K.of(t), a)) for t in range(K.char) for s in range(K.char))
            roots = ((x, _field_sqrt(K, K.mul(K.sub(K.one(), K.mul(a, K.mul(x, x))), K.inv(b))))
                     for x in xs)
            x, y = next((xy for xy in roots if xy[1] is not None), (None, None))
            if y is None:
                return None
            r = K.inv(_field_sqrt(K, K.mul(a, b)))
            C[i][i], C[j][i] = x, y
            C[i][j], C[j][j] = K.neg(K.mul(K.mul(b, y), r)), K.mul(K.mul(a, x), r)
    return None if unpaired is not None else Mat(K, C)


# ---------------------------------------------------------------------------
# sl(4) and so(6) (Thm 5.3), with the sl(3) contrast (Thm 5.4)


def run_sl4_so6(K) -> Report:
    if K.char == 2:
        raise ValueError("needs characteristic != 2")
    rep = Report(f"sl4-so6 field={K.token}", K, 4)
    Z, A = conjugation_modules(4, K)
    Zsl = restrict_to_sl(Z, 4, K)
    _, alt = sym_alt_subspaces(4, K)
    T = restrict_module(Zsl, alt)  # dim 6
    stars = star_map(alt.basis)
    Phi = alt.coords_of(stars).transpose()  # the star map in the coordinates of T
    Asl = restrict_to_sl(A, 4, K)
    C = restrict_module(Asl, alt)
    rep.check("star map equivariant T -> C", "Thm 5.3",
              (True, True), (equivariant(Phi, T, C), not K.is_zero(Phi.det())))
    G = trace_gram(stars, alt.basis)  # tr(*(x) y)
    gf = classify(G)
    rep.check("g symmetric nondegenerate", "Thm 5.3", (True, True),
              (gf.symmetric, gf.nondegenerate))
    # a' G + G a = 0 for every generator a: its vec lies in L(G)
    LG = skew_adjoint_algebra(G)
    image = Subspace.span(T.stack.reshape(T.count, 36))
    rep.check("g invariant (image in L(G))", "Thm 5.3", True, LG.contains(image))
    rep.check("dim sl(4) = dim L(G) = 15", "Thm 5.3", (15, 15),
              (image.dim, LG.dim))
    rep.check("image = L(G)", "Thm 5.3", LG, image)
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


def run_heisenberg_cases(n, ell) -> Report:
    K = GF(ell)
    rep = Report(f"heisenberg n={n} l={ell}", K, 2 * n + 1)
    h = heisenberg(K, n)
    V = heisenberg_poly_module(K, n, K.one())
    rep.check("dim = l^n", "Prop 12.3", ell**n, V.dim)
    rep.check("action respects brackets", "Prop 12.3", True, respects_brackets(V, h))
    rep.check("faithful", "Prop 12.3", 0, representation_kernel(V, h).dim)
    res = certify_irreducible(V)
    rep.check("irreducible", "Prop 12.3", "irreducible", res.status, res.method)
    if (n, ell) == (2, 2):
        _check_prop_12_2(rep)
    return rep


def _check_prop_12_2(rep: Report):
    K = GF(2)
    m, n = 4, 2
    J = standard_symplectic_gram(K, m)
    L = skew_adjoint_algebra(J)
    ds = derived_series(L)
    rep.check("derived dims", "Prop 12.2", [10, 6, 5, 1, 0], [a.dim for a in ds])
    L2, L3 = ds[2], ds[3]
    rep.check("L^(3) = s", "Prop 12.2", scalars_subspace(K, m), L3)
    e11, e12, e21, e22 = (Mat.unit(K, 2, 2, i, j) for i in range(2) for j in range(2))
    x, y = _sp_block(K, n, b=e12 + e21), _sp_block(K, n, c=e12 + e21)
    e, f = _sp_block(K, n, a=e12), _sp_block(K, n, a=e21)
    eye = Mat.identity(K, m)
    # U = L^(2)/s with basis e, x, f, y; g(u,v) reads the bracket in s
    uvecs = Mat.from_blocks([[v.reshape(1, 16)] for v in (e, x, f, y, eye)])
    U = uvecs[:4, :]
    u_in_l2 = Subspace.span(uvecs)
    rep.check("L^(2) basis", "Prop 12.2", u_in_l2, L2)
    rep.check("[x,y] = [e,f] = z", "Prop 12.2", (eye, eye), (bracket(x, y), bracket(e, f)))
    gram = scalars_subspace(K, m).coords_of(bracket_rows(U, U)).reshape(4, 4)
    rep.check("Gram of g on U is J", "Prop 12.2", standard_symplectic_gram(K, 4), gram)
    # the representation R of L on U; kernel L^(2), image 5-dimensional in L(g)
    to_ubasis = u_in_l2.coords_of(uvecs).inv()  # canonical coordinates to e, x, f, y, I
    a = _sp_block(K, n, a=e11)
    b1, b2 = _sp_block(K, n, b=e11), _sp_block(K, n, b=e22)
    c1, c2 = _sp_block(K, n, c=e11), _sp_block(K, n, c=e22)

    def R(Z):
        # the module of the rows vec(z) of Z: row i 4 + j of the coordinates
        # of [z_i, u_j] on e, x, f, y modulo s is column j of R(z_i)
        coords = (u_in_l2.coords_of(bracket_rows(Z, U)) @ to_ubasis)[:, :4]
        vecs = coords.reshape(Z.nrows, 16)[:, transposed_positions(4)]
        return LieModule(K, Z.nrows, vecs.reshape(Z.nrows * 4, 4))

    poly = heisenberg_poly_module_on_basis(
        K, n, K.one(), [(0, 1), (0, 0), (1, 0), (1, 1)]
    )
    gens = Mat.from_blocks([[v.reshape(1, 16)] for v in (b1, b2, c1, c2, a)])
    rep.check("R matches the polynomial module", "Prop 12.2",
              [a.to_text() for a in poly.action_mats()],  # u1, u2, v1, v2, z
              [r.to_text() for r in R(gens).action_mats()])
    rmod = R(L.basis)
    rep.check("dim ker R = dim L^(2)", "Prop 12.2", L2.dim, representation_kernel(rmod, L).dim)
    image = Subspace.span(rmod.stack.reshape(rmod.count, 16))
    rep.check("R(L) is 5-dimensional", "Prop 12.2", 5, image.dim)
    Lg = skew_adjoint_algebra(standard_symplectic_gram(K, 4))
    rep.check("R(L) inside L(g)", "Prop 12.2", True, Lg.contains(image))
    rep.check("R(L) closed under brackets", "Prop 12.2", True, is_bracket_closed(image))
    # U as a quotient by s: check irreducibility of L^(2)/s under L
    mod5 = adjoint_module(L, u_in_l2)
    s_in = Subspace.span(u_in_l2.coords_of(eye.reshape(1, 16)))
    Umod = quotient_module(mod5, s_in)
    res = certify_irreducible(Umod)
    rep.check("U irreducible", "Prop 12.2", "irreducible", res.status, res.method)


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
        except (BudgetExceeded, MemoryError):
            raise  # no verdict, not a refuted claim: the sweep gives none
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
