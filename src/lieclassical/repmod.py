"""Representation engine: spinning, irreducibility certification, composition
series, weights, Hom spaces and the tensor-square constructions.

Irreducibility over a finite field is certified by the Holt-Rees test
(`certify_irreducible`): a kernel-and-dual spin at an irreducible factor of
the characteristic polynomial of a random element of the enveloping
algebra.  It is exact and conclusive, or reports that its budget ran out.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import GF, Field, is_prime
from .forms import BilForm
from .liealg import (
    MatLieAlg,
    StructureConstants,
    ad_stack,
    bracket,
    transpose_product,
    transposed_positions,
)
from .linalg import (
    Mat,
    Subspace,
    charpoly,
    distinct_degree_parts,
    echelon,
    irreducible_factor,
    kernel,
    kron,
    kron_sum_stack,
    null_spaces,
    poly_at,
    roots,
)


class LieModule:
    """A module over the Lie algebra spanned by labelled generators, built
    from (label, dim x dim action) pairs.  The actions are held stacked into
    one (count * dim) x dim matrix, block i the action of generator i, which
    the surgery and spins multiply with."""

    def __init__(self, field: Field, dim: int, generators):
        mats = [a for _, a in generators]
        self.field, self.dim, self._labels = field, dim, [lbl for lbl, _ in generators]
        self.stack = Mat.from_blocks([[a] for a in mats]) if mats else Mat.zeros(field, 0, dim)

    @classmethod
    def _of_stack(cls, field, labels, stack: Mat):
        M = cls.__new__(cls)
        M.field, M.dim, M._labels, M.stack = field, stack.ncols, labels, stack
        return M

    @property
    def generators(self):
        n = self.dim
        return [(lbl, self.stack[i * n : (i + 1) * n, :]) for i, lbl in enumerate(self._labels)]

    def action_mats(self):
        return [a for _, a in self.generators]

    def labels(self):
        return list(self._labels)

    def on_stack(self, X: Mat) -> "LieModule":
        """The module with these labels whose i-th generator is X[i::count]'
        (X's rows interleave the generators, as `_images` makes them)."""
        g, r = len(self._labels), X.ncols
        return LieModule._of_stack(self.field, self._labels, X.reshape(r, g * r).transpose())

    def __repr__(self):
        return f"LieModule({self.field!r}, dim={self.dim}, {len(self._labels)} generators)"


def dual_module(M: LieModule) -> LieModule:
    return LieModule(
        M.field, M.dim, [(lbl, -a.transpose()) for lbl, a in M.generators]
    )


def trivial_actions(M: LieModule) -> bool:
    return M.stack.is_zero()


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


def _images(S: Mat, X: Mat) -> Mat:
    """The images A_i x_j of the rows x_j of X under the blocks A_i of the
    stack S, as rows: one product, row j * count + i holding A_i x_j."""
    n = S.ncols
    return (X @ S.transpose()).reshape(X.nrows * S.nrows // n if n else 0, n)


def spin(M: LieModule, seeds, transposed=False) -> Subspace:
    """Smallest subspace containing the seeds and invariant under all actions
    (under their transposes if `transposed`: a spin in the dual module).

    Each round feeds the images of the vectors the last round added, one
    product with the stacked generators, to one echelon basis.
    """
    S = (dual_module(M) if transposed else M).stack
    ech = echelon(M.field, M.dim)
    frontier = ech.add_rows(Mat(M.field, seeds))
    while frontier.nrows and ech.dim < M.dim:
        frontier = ech.add_rows(_images(S, frontier))
    return ech.subspace()


# ---------------------------------------------------------------------------
# Irreducibility


@dataclass
class IrredResult:
    status: str  # "irreducible" | "reducible" | "budget-exceeded"
    witness: Subspace | None = None
    method: str = ""


def line_reps(K, n):
    """One representative per 1-dimensional subspace of F^n (monic leading 1)."""
    elems = K.elements()
    for lead in range(n):
        prefix = [K.zero()] * lead + [K.one()]
        for tail in itertools.product(elems, repeat=n - 1 - lead):
            yield prefix + list(tail)


# cap on random elements drawn plus spins per test; the cli lets
# LIECOMP_BUDGET or --budget override it
DEFAULT_BUDGET = 10**6


def certify_irreducible(M: LieModule, budget: int | None = None, seed: int = 0) -> IrredResult:
    """Holt and Rees, "Testing modules for irreducibility" (J. Austral. Math.
    Soc. 1994), with the exceptional case of Ivanyos and Lux (Experiment.
    Math. 2000).

    Draw theta in the enveloping algebra; split its characteristic polynomial
    into distinct-degree parts and each part, lowest degree first, into one
    irreducible factor f, until N = null f(theta) has dim N = deg f.  Then N
    is a simple K[theta]-module, so a proper submodule U either contains N
    (and the spin of any v in N stays in U) or meets it trivially; then f
    divides the characteristic polynomial of theta on V/U, and null f(theta')
    lies in the annihilator of U, where the dual spin of any w stays.  A full
    spin and a full dual spin therefore prove irreducibility, and a proper
    one gives a submodule.  If no factor has dim N = deg f, only a proper
    spin from N of the lowest factor is used, and theta is drawn again.
    Each draw and each spin costs one unit of the budget.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    K = M.field
    if M.dim == 0:
        return IrredResult("reducible", None, "zero module")
    if M.dim == 1:
        return IrredResult("irreducible", None, "dimension 1")
    if K.order() is None:
        raise ValueError("irreducibility certification needs a finite field")
    rng = random.Random(seed)
    used = 0
    while used < budget:
        used += 1
        theta = _random_element(M, rng)
        if used == budget:
            break
        used += 1
        lowest = None
        for d, g in distinct_degree_parts(K, charpoly(theta)):
            null, conull = null_spaces(poly_at(irreducible_factor(K, g, d, rng), theta))
            if null.dim == d:
                break
            lowest = lowest or (null, conull, d)
        else:
            null, conull, d = lowest
        closure = spin(M, [_random_vector(null, rng)])
        if closure.dim < M.dim:
            return IrredResult("reducible", closure, "kernel vector spin")
        if null.dim > d or used == budget:
            continue
        used += 1
        dual = spin(M, [_random_vector(conull, rng)], transposed=True)
        if dual.dim == M.dim:
            return IrredResult("irreducible", None, "kernel/dual spin")
        return IrredResult("reducible", kernel(dual.basis), "dual spin annihilator")
    return IrredResult("budget-exceeded", None, "budget exceeded")


def _random_element(M: LieModule, rng) -> Mat:
    """x y + z for random linear combinations x, y, z of the generators."""
    K, n, g = M.field, M.dim, len(M.labels())
    if not g:
        return Mat.zeros(K, n, n)
    coeffs = Mat(K, [[K.random(rng) for _ in range(g)] for _ in range(3)])
    combos = coeffs @ M.stack.reshape(g, n * n)
    x, y, z = (combos[i : i + 1, :].reshape(n, n) for i in range(3))
    return x @ y + z


def _random_vector(U: Subspace, rng):
    """A uniformly random nonzero vector of U."""
    K = U.field
    while True:
        coeffs = [K.random(rng) for _ in range(U.dim)]
        if not all(K.is_zero(c) for c in coeffs):
            return U.lift(coeffs)


# ---------------------------------------------------------------------------
# Module surgery: restriction, quotient


def restrict_module(M: LieModule, U: Subspace) -> LieModule:
    """Actions restricted to an invariant subspace, in its RREF coordinates."""
    coords = _image_coords(U, M.stack)
    if coords is None:
        raise ValueError("subspace is not invariant")
    return M.on_stack(coords)


def _image_coords(U: Subspace, S: Mat) -> Mat | None:
    """The U-coordinates of the images A_i u_j of U's basis under the blocks
    of the stack S (rows as in `_images`), or None unless every A_i maps U
    into U: A u_j lies in U iff its residual is zero, and then its
    U-coordinates are its entries at U's pivots."""
    images = _images(S, U.basis)
    return images[:, list(U.pivots)] if U.residuals(images).is_zero() else None


def quotient_module(M: LieModule, U: Subspace) -> LieModule:
    """Actions on M/U in the coordinates of the non-pivot positions of U.

    The images A_i e_j of the free unit vectors are columns of the
    generators; their residuals against U, which sit at the free positions,
    are the quotient action.
    """
    S, g = M.stack, len(M.labels())
    free = U.nonpivots()
    images = S.transpose()[free, :].reshape(len(free) * g, M.dim)
    return M.on_stack(U.residuals(images))


def quotient_lift(U: Subspace, C: Mat) -> Mat:
    """Canonical preimages in the ambient of the quotient coordinate rows of
    C: C's columns at U's non-pivot positions, zero at its pivots."""
    return C @ Mat.identity(U.field, U.ambient)[U.nonpivots(), :]


def invariant_under(U: Subspace, S: Mat) -> bool:
    """A U contained in U for every block A of the stack S of ambient x
    ambient matrices (one matrix is a stack of one)."""
    return U.dim in (0, U.ambient) or _image_coords(U, S) is not None


# ---------------------------------------------------------------------------
# Composition series


@dataclass
class CompSeries:
    chain: list  # ascending Subspaces, chain[0] = 0, chain[-1] = full
    factor_dims: list
    factor_trivial: list

    @property
    def n_factors(self):
        return len(self.factor_dims)


def composition_series(
    M: LieModule,
    candidate_chain=None,
    mod_p_primes=None,
    budget: int | None = None,
) -> CompSeries:
    if budget is None:
        budget = DEFAULT_BUDGET
    K = M.field
    if candidate_chain is not None:
        chain = _normalize_chain(M, candidate_chain)
        if K.order() is not None:
            return _series(M, chain, lambda factor: _certified(factor, budget))
        return _series(M, chain, lambda factor: _certified_mod_p(factor, mod_p_primes))
    if K.order() is None:
        raise ValueError("characteristic 0 needs a candidate chain")
    chain = (
        [Subspace.zero(K, M.dim)]
        + _max_chain(M, budget)
        + [Subspace.full(K, M.dim)]
    )
    return _series(M, chain)


def _normalize_chain(M, candidate_chain):
    K = M.field
    chain = list(candidate_chain)
    if not chain or chain[0].dim != 0:
        chain.insert(0, Subspace.zero(K, M.dim))
    if chain[-1].dim != M.dim:
        chain.append(Subspace.full(K, M.dim))
    return chain


def _series(M, chain, certify=lambda factor: None):
    """The factors of an ascending chain; certify(factor) raises unless the
    factor is irreducible.  Restricting M to each proper term hi is the one
    invariance check of the chain (0 and the full space are invariant)."""
    dims, trivial = [], []
    for lo, hi in zip(chain, chain[1:]):
        if not hi.contains(lo) or hi.dim <= lo.dim:
            raise ValueError("chain is not strictly ascending")
        try:
            factor = factor_module(M, lo, hi)
        except ValueError:  # restrict_module refuses a non-invariant hi
            raise ValueError("candidate chain term is not invariant") from None
        dims.append(factor.dim)
        trivial.append(trivial_actions(factor))
        certify(factor)
    return CompSeries(chain, dims, trivial)


def _certified(factor, budget):
    res = certify_irreducible(factor, budget=budget)
    if res.status == "budget-exceeded":
        raise ValueError(
            f"irreducibility budget exceeded on a {factor.dim}-dimensional chain factor"
        )
    if res.status != "irreducible":
        raise ValueError("candidate chain factor is not irreducible")


def _certified_mod_p(factor, primes):
    if factor.dim > 1 and not modp_irreducible(factor, primes):
        raise ValueError("mod-p certification failed for a factor")


def _max_chain(M: LieModule, budget):
    """Interior terms of a maximal submodule chain, in M's own coordinates."""
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
    chain = [Subspace.span(c.basis @ W.basis) for c in lower]
    chain.append(W)
    for c in upper:
        chain.append(Subspace.span(Mat.from_blocks([[W.basis], [quotient_lift(W, c.basis)]])))
    return chain


def factor_module(M: LieModule, lo: Subspace, hi: Subspace) -> LieModule:
    sub = restrict_module(M, hi) if hi.dim < M.dim else M
    if lo.dim == 0:
        return sub
    lo_in = Subspace.span(hi.coords_of(lo.basis)) if hi.dim < M.dim else lo
    return quotient_module(sub, lo_in)


def first_primes_coprime_to(n, count=2):
    out = []
    p = 2
    while len(out) < count:
        if is_prime(p) and n % p != 0:
            out.append(p)
        p += 1
    return out


def reduce_module_mod_p(M: LieModule, p: int) -> LieModule:
    """Clear denominators per generator and reduce mod p.

    Scaling a generator by a nonzero rational does not change its invariant
    subspaces, so the reduced module's lattice refines the rational one.
    """
    gens = [(lbl, A.cleared_mod(p)) for lbl, A in M.generators]
    return LieModule(GF(p), M.dim, gens)


def modp_irreducible(factor: LieModule, primes) -> bool:
    """One prime with an irreducible reduction is enough: a proper rational
    submodule would reduce to a proper submodule at every prime."""
    if primes is None:
        primes = first_primes_coprime_to(2, count=2)
    return any(
        certify_irreducible(reduce_module_mod_p(factor, p)).status == "irreducible"
        for p in primes
    )


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
    if not blocks:
        return Subspace.full(K, n1 * n2)
    return kernel(Mat.from_blocks([[b] for b in blocks]))


def hom_members(M1, M2, H: Subspace):
    return H.matrices(M2.dim, M1.dim)


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
    rng = random.Random(0)
    spaces = [((), Subspace.full(K, M.dim))]
    for _, h in H:
        candidates = (roots(K, charpoly(h), rng) if K.order() is not None
                      else [Fraction(t) for t in range(-6, 7)])
        nxt = []
        for tag, S in spaces:
            for lam in candidates:
                shifted = h - Mat.identity(K, M.dim).scale(lam)
                eig = kernel(shifted)
                piece = S.intersect(eig)
                if piece.dim > 0:
                    nxt.append((tag + (lam,), piece))
        spaces = nxt
    if sum(S.dim for _, S in spaces) != M.dim:
        raise ValueError(f"weight multiplicities do not sum to dim {M.dim}: eigenvalues missed")
    return WeightTable([(tag, S.dim) for tag, S in spaces])


# ---------------------------------------------------------------------------
# Adjoint modules and tensor squares


def adjoint_module(L: MatLieAlg, ambient: Subspace) -> LieModule:
    """ad action of L's basis restricted to an invariant subspace of gl(m)."""
    labels = [f"x{i}" for i in range(L.dim)]
    gl = LieModule._of_stack(L.field, labels, ad_stack(L.space.basis))
    if ambient.dim == gl.dim:
        return gl
    try:
        return restrict_module(gl, ambient)
    except ValueError:
        raise ValueError("ambient subspace is not ad-invariant") from None


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
    X = L.space.basis  # x acts on V (x) V by kron(x, I) + kron(I, x)
    module = LieModule._of_stack(K, [f"x{i}" for i in range(L.dim)], kron_sum_stack(X, X, 1))
    gamma = transpose_product(A)
    omega = A.reshape(1, m * m)  # tr(T' A) = sum of T_ij A_ij
    sym, alt = sym_alt_subspaces(m, K)
    delta = None
    if K.char == 2 and form.alternating:
        # the entries A_ij, i < j, at their row-major positions, zero elsewhere
        upper = [i * m + j for i in range(m) for j in range(i + 1, m)]
        delta = A.reshape(1, m * m)[:, upper] @ Mat.identity(K, m * m)[upper, :]
    return TensorSquare(module, gamma, omega, sym, alt, delta)


def gamma_image(ts: TensorSquare, U: Subspace) -> Subspace:
    return Subspace.span(U.basis @ ts.gamma.transpose())


def star_map(s: Mat) -> Mat:
    """The explicit involution on 4x4 alternating matrices."""
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


# ---------------------------------------------------------------------------
# Conjugation modules Z, A and the sym/alt split


def conjugation_modules(n, K):
    """The gl(n) modules Z (a.s = as + sa') and A (a.t = -a't - ta) on n x n
    matrices, generated by the units a = e_ij (generator i n + j, labelled
    a{i}{j}, with a comma between two-digit indices)."""
    sep = "," if n > 10 else ""
    labels = [f"a{i}{sep}{j}" for i in range(n) for j in range(n)]
    E = Mat.identity(K, n * n)  # rows vec(e_ij)
    Et = E[:, transposed_positions(n)]  # rows vec(e_ij')
    return (LieModule._of_stack(K, labels, kron_sum_stack(E, E, 1)),
            LieModule._of_stack(K, labels, -kron_sum_stack(Et, Et, 1)))


def sym_alt_subspaces(n, K):
    """S^2 and Lambda^2 in row-major coordinates, built as their RREF bases:
    e_ii and e_ij + e_ji, then e_ij - e_ji, for i < j; row (i, j) has its
    pivot at i n + j, and its other entry at j n + i is no pivot."""
    out = []
    for k, sign in ((0, 1), (1, -1)):
        i, j = np.triu_indices(n, k)
        rows = np.arange(len(i))
        a = np.zeros((len(i), n * n), dtype=np.int64)
        a[rows, i * n + j] = 1
        a[rows, j * n + i] += sign * (i != j)
        out.append(Subspace(Mat.from_ints(K, a), tuple((i * n + j).tolist())))
    return tuple(out)


def restrict_to_sl(module: LieModule, n, K) -> LieModule:
    """The generators spanning sl(n) from a family whose generator i n + j
    is e_ij: the e_ij with i != j, then h_i = e_ii - e_nn."""
    gens = module.generators
    off = [g for k, g in enumerate(gens) if k // n != k % n]
    last = gens[n * n - 1][1]
    return LieModule(K, module.dim,
                     off + [(f"h{i}", gens[i * (n + 1)][1] - last) for i in range(n - 1)])


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
        du = [[K.zero()] * d for _ in range(d)]
        for mo, col in index.items():
            if mo[i] > 0:
                lower = list(mo)
                lower[i] -= 1
                du[index[tuple(lower)]][col] = K.of(mo[i])
        gens.append((f"u{i+1}", Mat(K, du)))
    for i in range(n):
        mv = [[K.zero()] * d for _ in range(d)]
        for mo, col in index.items():
            if mo[i] < p - 1:
                upper = list(mo)
                upper[i] += 1
                mv[index[tuple(upper)]][col] = alpha
        gens.append((f"v{i+1}", Mat(K, mv)))
    gens.append(("z", Mat.identity(K, d).scale(alpha)))
    return LieModule(K, d, gens)


def representation_kernel(module: LieModule, alg) -> Subspace:
    """Kernel of the representation on the module of the algebra alg
    (StructureConstants or MatLieAlg) whose basis acts by the generators."""
    # x = sum c_i e_i acts by sum c_i a_i; kernel is where that operator is 0
    n, g = module.dim, min(alg.dim, len(module.labels()))
    return kernel(module.stack[: g * n, :].reshape(g, n * n).transpose())
