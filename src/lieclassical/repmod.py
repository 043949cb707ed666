"""Representation engine: spinning, irreducibility certification, composition
series, weights, Hom spaces and the tensor-square constructions.

Irreducibility over a finite field is certified either by spinning one
representative of every line (small search spaces) or by a kernel-and-dual
argument: for a singular element t of the enveloping algebra, a proper
submodule U either meets null(t), giving a proper spin there, or satisfies
tU = U, forcing every functional in null(t') to kill U, so a full dual spin
rules it out.  Both routes are exact and conclusive.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .fields import Field, PrimeField, GF, is_prime
from .forms import BilForm
from .liealg import MatLieAlg, StructureConstants, bracket
from .linalg import (
    Echelon,
    EchelonGFp,
    Mat,
    Subspace,
    gfp_matmul,
    gfp_reduce,
    kernel,
    kron,
    matvec,
    op_matrix,
)


@dataclass
class LieModule:
    field: Field
    dim: int
    generators: list  # (label, Mat dim x dim)
    # over GF(p): the generators as one int64 array, built on first use by
    # spins and surgery; generators are not changed once a module is built
    _arrays: np.ndarray | None = dc_field(default=None, repr=False, compare=False)

    def action_mats(self):
        return [a for _, a in self.generators]

    def labels(self):
        return [lbl for lbl, _ in self.generators]


def dual_module(M: LieModule) -> LieModule:
    return LieModule(
        M.field, M.dim, [(lbl, -a.transpose()) for lbl, a in M.generators]
    )


def trivial_actions(M: LieModule) -> bool:
    return all(a.is_zero() for _, a in M.generators)


def respects_brackets(M: LieModule, struct: StructureConstants) -> bool:
    """action([x_i, x_j]) = [action(x_i), action(x_j)] for all generator pairs."""
    K = M.field
    mats = M.action_mats()
    for i in range(len(mats)):
        for j in range(len(mats)):
            expect = Mat.zeros(K, M.dim, M.dim)
            for k, c in enumerate(struct.table[i][j]):
                if not K.is_zero(c):
                    expect = expect + mats[k].scale(c)
            if bracket(mats[i], mats[j]) != expect:
                return False
    return True


# ---------------------------------------------------------------------------
# Spinning


def _np_mats(M: LieModule):
    """The generators as one (count, dim, dim) int64 array, converted once per module."""
    if M._arrays is None:
        mats = M.action_mats()
        entries = itertools.chain.from_iterable(itertools.chain.from_iterable(a.rows for a in mats))
        count = len(mats) * M.dim * M.dim
        M._arrays = np.fromiter(entries, dtype=np.int64, count=count).reshape(
            len(mats), M.dim, M.dim
        )
    return M._arrays


def _spin_gfp(p, ambient, gen_arrays, seeds):
    ech = EchelonGFp(p, ambient)
    frontier = []
    for s in seeds:
        v = np.array(s, dtype=np.int64) % p
        if ech.add(v):
            frontier.append(ech.mat[-1])
    while frontier and ech.dim < ambient:
        batch = np.array(frontier, dtype=np.int64)
        frontier = []
        for G in gen_arrays:
            for row in gfp_matmul(batch, G.T, p):
                if ech.add(row):
                    frontier.append(ech.mat[-1])
    return ech


def _spin_generic(K, ambient, mats, seeds):
    ech = Echelon(K, ambient)
    frontier = [list(s) for s in seeds if ech.add(s)]
    while frontier and ech.dim < ambient:
        nxt = []
        for v in frontier:
            for A in mats:
                w = matvec(A, v)
                if ech.add(w):
                    nxt.append(w)
        frontier = nxt
    return ech


def spin(M: LieModule, seeds) -> Subspace:
    """Smallest subspace containing the seeds and invariant under all actions."""
    K = M.field
    if isinstance(K, PrimeField):
        ech = _spin_gfp(K.char, M.dim, _np_mats(M), seeds)
        return ech.subspace(K)
    ech = _spin_generic(K, M.dim, M.action_mats(), seeds)
    return ech.subspace()


# ---------------------------------------------------------------------------
# Irreducibility


@dataclass
class IrredResult:
    status: str  # "irreducible" | "reducible" | "budget-exceeded"
    witness: Subspace | None = None
    method: str = ""


def _line_reps(K, n):
    """One representative per 1-dimensional subspace of F^n (monic leading 1)."""
    elems = K.elements()
    for lead in range(n):
        prefix = [K.zero()] * lead + [K.one()]
        for tail in itertools.product(elems, repeat=n - 1 - lead):
            yield prefix + list(tail)


def _line_reps_in_span(K, rows):
    """Line representatives of the span of independent rows."""
    k = len(rows)
    for coeffs in _line_reps(K, k):
        v = [K.zero()] * len(rows[0])
        for c, r in zip(coeffs, rows):
            if K.is_zero(c):
                continue
            v = [K.add(a, K.mul(c, b)) for a, b in zip(v, r)]
        yield v


def _n_lines(q, d):
    return (q**d - 1) // (q - 1)


_ENUM_CUTOFF = 4096

# enumeration cap; the cli lets LIECOMP_BUDGET or --budget override it
DEFAULT_BUDGET = 10**6


def certify_irreducible(M: LieModule, budget: int | None = None, seed: int = 0) -> IrredResult:
    if budget is None:
        budget = DEFAULT_BUDGET
    K = M.field
    if M.dim == 0:
        return IrredResult("reducible", None, "zero module")
    if M.dim == 1:
        return IrredResult("irreducible", None, "dimension 1")
    q = K.order()
    if q is None:
        raise ValueError("irreducibility certification needs a finite field")
    lines = _n_lines(q, M.dim)
    if lines <= min(budget, _ENUM_CUTOFF):
        return _certify_by_enumeration(M)
    res = _certify_norton(M, seed)
    if res is not None:
        return res
    if lines <= budget:
        return _certify_by_enumeration(M)
    return IrredResult("budget-exceeded", None, "enumeration over budget")


def _certify_by_enumeration(M: LieModule) -> IrredResult:
    K = M.field
    for v in _line_reps(K, M.dim):
        closure = spin(M, [v])
        if closure.dim < M.dim:
            return IrredResult("reducible", closure, "line enumeration")
    return IrredResult("irreducible", None, "line enumeration")


def _dual_spin(M: LieModule, seeds):
    K = M.field
    if isinstance(K, PrimeField):
        return _spin_gfp(K.char, M.dim, _np_mats(M).transpose(0, 2, 1), seeds).subspace(K)
    mats_t = [a.transpose() for a in M.action_mats()]
    return _spin_generic(K, M.dim, mats_t, seeds).subspace()


def _singular_candidates(M: LieModule, rng, max_tries=60):
    """Yield (theta, kernel) for singular enveloping-algebra elements theta."""
    K = M.field
    mats = M.action_mats()
    eye = Mat.identity(K, M.dim)
    tried = 0
    pool = list(mats)
    while tried < max_tries:
        if tried < len(pool):
            theta = pool[tried]
        else:
            a, b = rng.choice(mats), rng.choice(mats)
            theta = a @ b
            for g in mats:
                c = K.random(rng)
                if not K.is_zero(c):
                    theta = theta + g.scale(c)
        tried += 1
        for lam in K.elements():
            shifted = theta - eye.scale(lam) if not K.is_zero(lam) else theta
            ker = kernel(shifted)
            if ker.dim > 0:
                yield shifted, ker


def _certify_norton(M: LieModule, seed: int):
    """Kernel-and-dual certification for one singular enveloping element.

    If U is a proper nonzero submodule, either U meets null(theta), so some
    kernel line spins to a proper submodule, or theta is injective on U, so
    theta U = U and every dual spin started in null(theta') annihilates U.
    Hence all kernel lines spinning full plus one full dual spin is a proof
    of irreducibility, and either failure hands us an explicit submodule.
    """
    K = M.field
    q = K.order()
    rng = random.Random(seed)
    best = None
    for theta, ker in _singular_candidates(M, rng):
        if best is None or ker.dim < best[1].dim:
            best = (theta, ker)
        if best[1].dim <= 2:
            break
    if best is None:
        return None
    theta, ker = best
    if _n_lines(q, ker.dim) > _ENUM_CUTOFF * 4:
        # kernel too fat to sweep; still usable if the first spin is proper
        first = next(_line_reps_in_span(K, [list(r) for r in ker.basis]))
        closure = spin(M, [first])
        if closure.dim < M.dim:
            return IrredResult("reducible", closure, "kernel vector spin")
        return None
    for v in _line_reps_in_span(K, [list(r) for r in ker.basis]):
        closure = spin(M, [v])
        if closure.dim < M.dim:
            return IrredResult("reducible", closure, "kernel vector spin")
    # all kernel lines generate; one dual spin from null(theta') finishes
    dual_ker = kernel(theta.transpose())
    w = next(_line_reps_in_span(K, [list(r) for r in dual_ker.basis]))
    dual_closure = _dual_spin(M, [w])
    if dual_closure.dim == M.dim:
        return IrredResult("irreducible", None, "kernel/dual spin")
    ann = kernel(dual_closure.basis_matrix())
    return IrredResult("reducible", ann, "dual spin annihilator")


# ---------------------------------------------------------------------------
# Module surgery: restriction, quotient


def _basis_array(U: Subspace):
    return np.array(U.basis, dtype=np.int64).reshape(U.dim, U.ambient)


def _module_from_stack(M: LieModule, stack) -> LieModule:
    """M's labels on the (count, d, d) array of new generators."""
    gens = [(lbl, Mat(M.field, a.tolist())) for lbl, a in zip(M.labels(), stack)]
    return LieModule(M.field, stack.shape[1], gens, stack)


def restrict_module(M: LieModule, U: Subspace) -> LieModule:
    """Actions restricted to an invariant subspace, in its RREF coordinates."""
    K = M.field
    if isinstance(K, PrimeField):
        p, piv = K.char, list(U.pivots)
        B = _basis_array(U)
        stack = np.empty((len(M.generators), U.dim, U.dim), dtype=np.int64)
        for A, out in zip(_np_mats(M), stack):
            images = gfp_matmul(B, A.T, p)  # rows are A * u_i
            if gfp_reduce(images, B, piv, p).any():
                raise ValueError("subspace is not invariant")
            out[...] = images[:, piv].T
        return _module_from_stack(M, stack)
    if U.dim == 0:
        # an empty basis matrix has no columns to multiply against
        return LieModule(K, 0, [(lbl, Mat(K, [])) for lbl in M.labels()])
    gens = []
    B = U.basis_matrix()
    for lbl, A in M.generators:
        images = B @ A.transpose()  # rows are A * u_i
        for row in images.rows:
            if not U.contains_vector(row):
                raise ValueError("subspace is not invariant")
        sub = Mat(K, [[row[p] for p in U.pivots] for row in images.rows])
        gens.append((lbl, sub.transpose()))
    return LieModule(K, U.dim, gens)


def quotient_module(M: LieModule, U: Subspace) -> LieModule:
    """Actions on M/U in the coordinates of the non-pivot positions of U."""
    K = M.field
    pivset = set(U.pivots)
    free = [j for j in range(M.dim) if j not in pivset]
    if isinstance(K, PrimeField):
        B, piv = _basis_array(U), list(U.pivots)
        stack = np.empty((len(M.generators), len(free), len(free)), dtype=np.int64)
        for A, out in zip(_np_mats(M), stack):
            reduced = gfp_reduce(A[:, free].T, B, piv, K.char)  # rows are A * e_j
            out[...] = reduced[:, free].T
        return _module_from_stack(M, stack)
    gens = []
    for lbl, A in M.generators:
        cols = A.transpose().rows
        reduced = [U.reduce(cols[j]) for j in free]
        gens.append((lbl, Mat(K, [[img[f] for img in reduced] for f in free])))
    return LieModule(K, len(free), gens)


def quotient_lift(U: Subspace, coords):
    """Canonical preimage in the ambient of a quotient coordinate vector."""
    K = U.field
    pivset = set(U.pivots)
    free = [j for j in range(U.ambient) if j not in pivset]
    v = [K.zero()] * U.ambient
    for c, j in zip(coords, free):
        v[j] = c
    return v


def invariant_under(U: Subspace, A: Mat) -> bool:
    """A U contained in U."""
    return _invariance_test(U)(A)


def _invariance_test(U: Subspace):
    """The predicate A -> (A U contained in U), checked as C (A B')' = 0.

    C has one row per functional vanishing on U, so the product being zero
    says every image A u still satisfies all defining equations of U.  C is
    built once, so testing many generators costs one kernel.
    """
    if U.dim == 0 or U.dim == U.ambient:
        return lambda A: True
    B = U.basis_matrix()
    Ct = _annihilator_matrix(U).transpose()
    return lambda A: ((B @ A.transpose()) @ Ct).is_zero()


def _annihilator_matrix(U: Subspace) -> Mat:
    """Rows c with c . u = 0 for all u in U (a basis of the annihilator)."""
    return kernel(U.basis_matrix()).basis_matrix()


# ---------------------------------------------------------------------------
# Composition series


@dataclass
class CompSeries:
    chain: list  # ascending Subspaces, chain[0] = 0, chain[-1] = full
    factor_dims: list
    factor_trivial: list
    factor_methods: list = dc_field(default_factory=list)

    @property
    def n_factors(self):
        return len(self.factor_dims)


def composition_series(
    M: LieModule,
    candidate_chain=None,
    mod_p_primes=None,
    budget: int | None = None,
    spin_limit: int = 12,
) -> CompSeries:
    if budget is None:
        budget = DEFAULT_BUDGET
    K = M.field
    if candidate_chain is not None:
        if K.order() is not None:
            return _certify_chain_finite(M, candidate_chain, budget)
        return _certify_chain_char0(M, candidate_chain, mod_p_primes, spin_limit)
    if K.order() is None:
        raise ValueError("characteristic 0 needs a candidate chain")
    chain = (
        [Subspace.zero(K, M.dim)]
        + _max_chain(M, budget)
        + [Subspace.full(K, M.dim)]
    )
    return _finish_series(M, chain, ["spin certification"])


def _normalize_chain(M, candidate_chain):
    K = M.field
    chain = list(candidate_chain)
    if not chain or chain[0].dim != 0:
        chain.insert(0, Subspace.zero(K, M.dim))
    if chain[-1].dim != M.dim:
        chain.append(Subspace.full(K, M.dim))
    for term in chain:
        invariant = _invariance_test(term)
        if not all(invariant(A) for _, A in M.generators):
            raise ValueError("candidate chain term is not invariant")
    return chain


def _certify_chain_finite(M, candidate_chain, budget):
    chain = _normalize_chain(M, candidate_chain)
    dims, trivial, methods = [], [], []
    for lo, hi in zip(chain, chain[1:]):
        factor = _factor_module(M, lo, hi)
        dims.append(factor.dim)
        trivial.append(trivial_actions(factor))
        res = certify_irreducible(factor, budget=budget)
        if res.status == "budget-exceeded":
            raise ValueError(
                f"irreducibility budget exceeded on a {factor.dim}-dimensional chain factor"
            )
        if res.status != "irreducible":
            raise ValueError("candidate chain factor is not irreducible")
        methods.append(res.method)
    return CompSeries(chain, dims, trivial, methods)


def _max_chain(M: LieModule, budget):
    """Interior terms of a maximal submodule chain, in M's own coordinates."""
    K = M.field
    if M.dim == 0:
        return []
    res = certify_irreducible(M, budget=budget)
    if res.status == "budget-exceeded":
        raise ValueError("irreducibility budget exceeded in composition series")
    if res.status == "irreducible":
        return []
    W = res.witness
    sub = restrict_module(M, W)
    quot = quotient_module(M, W)
    lower = _max_chain(sub, budget)
    upper = _max_chain(quot, budget)
    chain = []
    for c in lower:
        chain.append(
            Subspace.from_rows(K, M.dim, [W.lift(list(r)) for r in c.basis])
        )
    chain.append(W)
    for c in upper:
        rows = [list(r) for r in W.basis]
        rows += [quotient_lift(W, list(r)) for r in c.basis]
        chain.append(Subspace.from_rows(K, M.dim, rows))
    return chain


def _finish_series(M, chain, default_methods):
    K = M.field
    dims = []
    trivial = []
    methods = []
    for lo, hi in zip(chain, chain[1:]):
        if not hi.contains(lo) or hi.dim <= lo.dim:
            raise AssertionError("chain is not strictly ascending")
        dims.append(hi.dim - lo.dim)
        factor = _factor_module(M, lo, hi)
        trivial.append(trivial_actions(factor))
        methods.append(default_methods[0])
    return CompSeries(chain, dims, trivial, methods)


def _factor_module(M: LieModule, lo: Subspace, hi: Subspace) -> LieModule:
    sub = restrict_module(M, hi) if hi.dim < M.dim else M
    if lo.dim == 0:
        return sub
    K = M.field
    lo_in = (
        Subspace.from_rows(K, sub.dim, [hi.coords(list(r)) for r in lo.basis])
        if hi.dim < M.dim
        else lo
    )
    return quotient_module(sub, lo_in)


def _certify_chain_char0(M, candidate_chain, primes, spin_limit):
    K = M.field
    chain = _normalize_chain(M, candidate_chain)
    dims, trivial, methods = [], [], []
    for lo, hi in zip(chain, chain[1:]):
        factor = _factor_module(M, lo, hi)
        dims.append(factor.dim)
        triv = trivial_actions(factor)
        trivial.append(triv)
        if triv and factor.dim == 1:
            methods.append("trivial factor")
            continue
        if factor.dim <= spin_limit:
            for j in range(factor.dim):
                e = [K.zero()] * factor.dim
                e[j] = K.one()
                if spin(factor, [e]).dim != factor.dim:
                    raise ValueError("candidate factor is reducible (basis spin)")
        ok = _modp_irreducible(factor, primes)
        if not ok:
            raise ValueError("mod-p certification failed for a factor")
        methods.append("mod-p")
    return CompSeries(chain, dims, trivial, methods)


def first_primes_coprime_to(n, count=2, avoid=()):
    out = []
    p = 2
    while len(out) < count:
        if is_prime(p) and n % p != 0 and p not in avoid:
            out.append(p)
        p += 1
    return out


def reduce_module_mod_p(M: LieModule, p: int) -> LieModule:
    """Clear denominators per generator and reduce mod p.

    Scaling a generator by a nonzero rational does not change its invariant
    subspaces, so the reduced module's lattice refines the rational one.
    """
    Kp = GF(p)
    gens = []
    for lbl, A in M.generators:
        den = 1
        for row in A.rows:
            for x in row:
                den = den * x.denominator // math.gcd(den, x.denominator)
        rows = [[(x.numerator * (den // x.denominator)) % p for x in row] for row in A.rows]
        gens.append((lbl, Mat(Kp, rows)))
    return LieModule(Kp, M.dim, gens)


def _modp_irreducible(factor: LieModule, primes) -> bool:
    if primes is None:
        primes = first_primes_coprime_to(2, count=2)
    for p in primes:
        red = reduce_module_mod_p(factor, p)
        res = certify_irreducible(red)
        if res.status != "irreducible":
            return False
    return True


# ---------------------------------------------------------------------------
# Hom spaces and weights


def hom_space(M1: LieModule, M2: LieModule) -> Subspace:
    """All T (dim2 x dim1) with T a1(x) = a2(x) T for every generator."""
    if M1.labels() != M2.labels():
        raise ValueError("generator labels must match")
    K = M1.field
    n1, n2 = M1.dim, M2.dim
    blocks = []
    eye1 = Mat.identity(K, n1)
    eye2 = Mat.identity(K, n2)
    for (_, a1), (_, a2) in zip(M1.generators, M2.generators):
        blocks.append(kron(eye2, a1.transpose()) - kron(a2, eye1))
    stacked = Mat(K, [row for b in blocks for row in b.rows])
    return kernel(stacked)


def hom_members(M1, M2, H: Subspace):
    return [Mat.unvec(H.field, list(r), M2.dim, M1.dim) for r in H.basis]


@dataclass
class WeightTable:
    entries: list  # (weight tuple, eigenspace dim)


def weights(M: LieModule, H) -> WeightTable:
    """Simultaneous eigenspaces of the commuting family H = [(label, Mat)]."""
    K = M.field
    for i in range(len(H)):
        for j in range(i + 1, len(H)):
            if H[i][1] @ H[j][1] != H[j][1] @ H[i][1]:
                raise ValueError("weight family must commute")
    if K.order() is not None:
        candidates = K.elements()
    else:
        candidates = [Fraction(t) for t in range(-6, 7)]
    spaces = [((), Subspace.full(K, M.dim))]
    for _, h in H:
        nxt = []
        for tag, S in spaces:
            for lam in candidates:
                shifted = h - Mat.identity(K, M.dim).scale(lam)
                eig = kernel(shifted)
                piece = S.intersect(eig)
                if piece.dim > 0:
                    nxt.append((tag + (lam,), piece))
        spaces = nxt
    return WeightTable([(tag, S.dim) for tag, S in spaces])


# ---------------------------------------------------------------------------
# Adjoint modules and tensor squares


def adjoint_module(L: MatLieAlg, ambient: Subspace) -> LieModule:
    """ad action of L's basis restricted to an invariant subspace of gl(m)."""
    K = L.field
    basis = L.basis_mats()
    B = ambient.basis_matrix()
    gens = []
    for idx, x in enumerate(basis):
        img_rows = []
        for r in B.rows:
            w = Mat.unvec(K, list(r), L.m, L.m)
            img = bracket(x, w).vec()
            if not ambient.contains_vector(img):
                raise ValueError("ambient subspace is not ad-invariant")
            img_rows.append(img)
        cols = [[row[p] for p in ambient.pivots] for row in img_rows]
        gens.append((f"x{idx}", Mat(K, [[cols[j][i] for j in range(len(cols))] for i in range(len(cols))])))
    return LieModule(K, ambient.dim, gens)


@dataclass
class TensorSquare:
    module: LieModule  # L(f) acting on V (x) V, coordinates T_ij row-major
    gamma: Mat  # m^2 x m^2, T -> T' A
    omega: Mat  # 1 x m^2 functional
    sym: Subspace
    alt: Subspace
    delta: Mat | None  # 1 x m^2 functional on Lambda^2 (char 2, alternating f)


def tensor_square(form: BilForm, L: MatLieAlg) -> TensorSquare:
    if not form.nondegenerate:
        raise ValueError("tensor square needs a nondegenerate form")
    K = form.field
    m = form.m
    A = form.gram
    eye = Mat.identity(K, m)
    gens = []
    for idx, x in enumerate(L.basis_mats()):
        gens.append((f"x{idx}", kron(x, eye) + kron(eye, x)))
    module = LieModule(K, m * m, gens)
    gamma = op_matrix(K, m * m, m * m, lambda t: (Mat.unvec(K, t, m, m).transpose() @ A).vec())
    omega = Mat(K, [[(Mat.unvec(K, e, m, m).transpose() @ A).trace() for e in _units(K, m * m)]])
    sym_rows, alt_rows = [], []
    for i in range(m):
        sym_rows.append(Mat.unit(K, m, m, i, i).vec())
        for j in range(i + 1, m):
            s = Mat.unit(K, m, m, i, j) + Mat.unit(K, m, m, j, i)
            sym_rows.append(s.vec())
            a = Mat.unit(K, m, m, i, j) - Mat.unit(K, m, m, j, i)
            alt_rows.append(a.vec())
    sym = Subspace.from_rows(K, m * m, sym_rows)
    alt = Subspace.from_rows(K, m * m, alt_rows)
    delta = None
    if K.char == 2 and form.alternating:
        drow = [K.zero()] * (m * m)
        for i in range(m):
            for j in range(i + 1, m):
                drow[i * m + j] = A.rows[i][j]
        delta = Mat(K, [drow])
    return TensorSquare(module, gamma, omega, sym, alt, delta)


def _units(K, n):
    z, o = K.zero(), K.one()
    for j in range(n):
        e = [z] * n
        e[j] = o
        yield e


def gamma_image(ts: TensorSquare, U: Subspace) -> Subspace:
    rows = [matvec(ts.gamma, list(r)) for r in U.basis]
    return Subspace.from_rows(U.field, U.ambient, rows)


def star_map(s: Mat) -> Mat:
    """The explicit involution on 4x4 alternating matrices."""
    K = s.field
    if s.nrows != 4 or s.ncols != 4:
        raise ValueError("star map needs a 4x4 matrix")
    if K.char == 2:
        raise ValueError("star map needs characteristic != 2")
    a, b, c = s.rows[0][1], s.rows[0][2], s.rows[0][3]
    d, e, f = s.rows[1][2], s.rows[1][3], s.rows[2][3]
    n = K.neg
    out = Mat.zeros(K, 4, 4)
    upper = {(0, 1): f, (0, 2): n(e), (0, 3): d, (1, 2): c, (1, 3): n(b), (2, 3): a}
    for (i, j), val in upper.items():
        out.rows[i][j] = val
        out.rows[j][i] = n(val)
    return out


# ---------------------------------------------------------------------------
# Block modules Z, A and the duality check


def block_modules(r, n, K):
    """The gl(r) (+) gl(n) modules Z = M_{r x n} and A = M_{n x r}."""
    gens_z, gens_a = [], []
    for i in range(r):
        for j in range(r):
            a = Mat.unit(K, r, r, i, j)
            gens_z.append((f"a{i}{j}", op_matrix(K, r * n, r * n, lambda v, a=a: (a @ Mat.unvec(K, v, r, n)).vec())))
            gens_a.append((f"a{i}{j}", op_matrix(K, n * r, n * r, lambda v, a=a: (-(Mat.unvec(K, v, n, r) @ a)).vec())))
    for i in range(n):
        for j in range(n):
            b = Mat.unit(K, n, n, i, j)
            gens_z.append((f"b{i}{j}", op_matrix(K, r * n, r * n, lambda v, b=b: (-(Mat.unvec(K, v, r, n) @ b)).vec())))
            gens_a.append((f"b{i}{j}", op_matrix(K, n * r, n * r, lambda v, b=b: (b @ Mat.unvec(K, v, n, r)).vec())))
    Z = LieModule(K, r * n, gens_z)
    A = LieModule(K, n * r, gens_a)
    return Z, A


def block_duality_check(r, n, K) -> bool:
    """phi: A -> Z*, phi_t(s) = tr(t s), intertwines the actions and is bijective."""
    Z, A = block_modules(r, n, K)
    Zdual = dual_module(Z)
    phi = op_matrix(
        K,
        n * r,
        r * n,
        lambda v: [
            (Mat.unvec(K, v, n, r) @ Mat.unvec(K, e, r, n)).trace()
            for e in _units(K, r * n)
        ],
    )
    if K.is_zero(phi.det()):
        return False
    for (_, aA), (_, aZ) in zip(A.generators, Zdual.generators):
        if phi @ aA != aZ @ phi:
            return False
    return True


def conjugation_modules(n, K):
    """For r = n: the single-gl(n) modules Z (a.s = as + sa') and A (a.t = -a't - ta)."""
    gens_z, gens_a = [], []
    for i in range(n):
        for j in range(n):
            a = Mat.unit(K, n, n, i, j)
            gens_z.append(
                (
                    f"a{i}{j}",
                    op_matrix(
                        K,
                        n * n,
                        n * n,
                        lambda v, a=a: (
                            (a @ Mat.unvec(K, v, n, n)) + (Mat.unvec(K, v, n, n) @ a.transpose())
                        ).vec(),
                    ),
                )
            )
            gens_a.append(
                (
                    f"a{i}{j}",
                    op_matrix(
                        K,
                        n * n,
                        n * n,
                        lambda v, a=a: (
                            -(a.transpose() @ Mat.unvec(K, v, n, n)) - (Mat.unvec(K, v, n, n) @ a)
                        ).vec(),
                    ),
                )
            )
    return LieModule(K, n * n, gens_z), LieModule(K, n * n, gens_a)


def sym_alt_subspaces(n, K):
    sym_rows, alt_rows = [], []
    for i in range(n):
        sym_rows.append(Mat.unit(K, n, n, i, i).vec())
        for j in range(i + 1, n):
            sym_rows.append((Mat.unit(K, n, n, i, j) + Mat.unit(K, n, n, j, i)).vec())
            alt_rows.append((Mat.unit(K, n, n, i, j) - Mat.unit(K, n, n, j, i)).vec())
    return (
        Subspace.from_rows(K, n * n, sym_rows),
        Subspace.from_rows(K, n * n, alt_rows),
    )


def restrict_to_sl(module: LieModule, n, K) -> LieModule:
    """Keep only the generators spanning sl(n) from an e_ij-indexed family."""
    gens = []
    for lbl, a in module.generators:
        i, j = int(lbl[1]), int(lbl[2])
        if i != j:
            gens.append((lbl, a))
    # traceless diagonal part: e_ii - e_nn combinations
    by_label = {lbl: a for lbl, a in module.generators}
    for i in range(n - 1):
        gens.append((f"h{i}", by_label[f"a{i}{i}"] - by_label[f"a{n-1}{n-1}"]))
    return LieModule(K, module.dim, gens)


# ---------------------------------------------------------------------------
# Heisenberg polynomial modules


def heisenberg_poly_module(K, n: int, alpha) -> LieModule:
    """The truncated polynomial module of h(n) in characteristic p = K.char."""
    p = K.char
    if not (p and is_prime(p)):
        raise ValueError("needs a field of prime characteristic")
    if K.is_zero(alpha):
        raise ValueError("alpha must be nonzero")
    monomials = list(itertools.product(range(p), repeat=n))
    return heisenberg_poly_module_on_basis(K, n, alpha, monomials)


def heisenberg_poly_module_on_basis(K, n: int, alpha, monomials) -> LieModule:
    p = K.char
    index = {mo: i for i, mo in enumerate(monomials)}
    d = len(monomials)
    gens = []
    for i in range(n):
        du = Mat.zeros(K, d, d)
        for mo, col in index.items():
            if mo[i] > 0:
                lower = list(mo)
                lower[i] -= 1
                du.rows[index[tuple(lower)]][col] = K.of(mo[i])
        gens.append((f"u{i+1}", du))
    for i in range(n):
        mv = Mat.zeros(K, d, d)
        for mo, col in index.items():
            if mo[i] < p - 1:
                upper = list(mo)
                upper[i] += 1
                mv.rows[index[tuple(upper)]][col] = alpha
        gens.append((f"v{i+1}", mv))
    gens.append(("z", Mat.identity(K, d).scale(alpha)))
    return LieModule(K, d, gens)


def algebra_adjoint_module(L: MatLieAlg) -> LieModule:
    """The adjoint module of L on itself, in L's own coordinates."""
    from .liealg import _adjoint_action_matrices

    mats = _adjoint_action_matrices(L)
    return LieModule(L.field, L.dim, [(f"ad{i}", a) for i, a in enumerate(mats)])


def representation_kernel(module: LieModule, struct: StructureConstants) -> Subspace:
    """Kernel of the representation of the abstract algebra on the module."""
    K = module.field
    d = struct.dim
    rows_per_coeff = []
    for _, a in module.generators:
        rows_per_coeff.append(a.vec())
    # x = sum c_i e_i acts by sum c_i a_i; kernel is where that operator is 0
    stacked = Mat(K, [[rows_per_coeff[i][k] for i in range(d)] for k in range(module.dim**2)])
    return kernel(stacked)
