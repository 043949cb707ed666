"""Representation engine: spinning, irreducibility certification, composition
series, weights, Hom spaces and the tensor-square constructions.

`irreducible` is the one irreducibility verdict, for every field.  Over a
finite field it is the Holt-Rees test (`certify_irreducible`): a
kernel-and-dual spin at an irreducible factor of the characteristic
polynomial of a random element of the enveloping algebra, exact and
conclusive.  Over Q it is the reduction mod the first given prime that
certifies irreducible; a reducible reduction proves nothing, so no such
prime is an error, not "reducible".  A spent budget raises `BudgetExceeded`
wherever a verdict is asked for: it is never read as reducible.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .fields import GF, Field, is_prime
from .forms import BilForm
from .liealg import (
    StructureConstants,
    ad_stack,
    bracket_rows,
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
    kron_sum_stack,
    null_spaces,
    poly_at,
)


class LieModule:
    """A module over the Lie algebra spanned by `count` generators, built
    from their dim x dim actions stacked in order into one (count * dim) x
    dim matrix: block i is the action of generator i, which is known by its
    position, and the surgery and spins multiply with the stack."""

    def __init__(self, field: Field, count: int, stack: Mat):
        if stack.nrows != count * stack.ncols:
            raise ValueError(f"{count} generators of dim {stack.ncols} need"
                             f" {count * stack.ncols} stack rows, not {stack.nrows}")
        self.field, self.dim, self.count, self.stack = field, stack.ncols, count, stack

    def action_mats(self):
        n = self.dim
        return [self.stack[i * n : (i + 1) * n, :] for i in range(self.count)]

    def on_stack(self, X: Mat) -> "LieModule":
        """The module with as many generators whose i-th is X[i::count]'
        (X's rows interleave the generators, as `_images` makes them)."""
        g, r = self.count, X.ncols
        return LieModule(self.field, g, X.reshape(r, g * r).transpose())

    def __repr__(self):
        return f"LieModule({self.field!r}, dim={self.dim}, {self.count} generators)"


def dual_module(M: LieModule) -> LieModule:
    """The actions -A': the rows vec(A) of the stack read at the transposed positions."""
    g, n = M.count, M.dim
    vecs = M.stack.reshape(g, n * n)[:, transposed_positions(n)]
    return LieModule(M.field, g, -vecs.reshape(g * n, n))


def trivial_actions(M: LieModule) -> bool:
    return M.stack.is_zero()


def respects_brackets(M: LieModule, struct: StructureConstants) -> bool:
    """action([x_i, x_j]) = [action(x_i), action(x_j)] for all generator
    pairs: row i g + j of the table times the stacked vec(action(x_k))."""
    vecs = M.stack.reshape(M.count, M.dim * M.dim)
    return bracket_rows(vecs, vecs) == struct.table @ vecs


# ---------------------------------------------------------------------------
# Spinning


def _images(S: Mat, X: Mat) -> Mat:
    """The images A_i x_j of the rows x_j of X under the blocks A_i of the
    stack S, as rows: one product, row j * count + i holding A_i x_j."""
    n = S.ncols
    return (X @ S.transpose()).reshape(X.nrows * S.nrows // n if n else 0, n)


def spin(M: LieModule, seeds: Mat, transposed=False) -> Subspace:
    """Smallest subspace containing the rows of seeds and invariant under all
    actions (under their transposes if `transposed`: a spin in the dual module).

    Each round feeds the images of the vectors the last round added, one
    product with the stacked generators, to one echelon basis.
    """
    S = (dual_module(M) if transposed else M).stack
    ech = echelon(M.field, M.dim)
    frontier = ech.add_rows(seeds)
    while frontier.nrows and ech.dim < M.dim:
        frontier = ech.add_rows(_images(S, frontier))
    return ech.subspace()


# ---------------------------------------------------------------------------
# Irreducibility


@dataclass
class IrredResult:
    status: str  # "irreducible" | "reducible"
    witness: Subspace | None = None
    method: str = ""


def line_reps(K, n):
    """One representative per 1-dimensional subspace of F^n (monic leading 1)."""
    elems = K.elements()
    for lead in range(n):
        prefix = [K.zero()] * lead + [K.one()]
        for tail in itertools.product(elems, repeat=n - 1 - lead):
            yield prefix + list(tail)


# cap on random elements drawn plus spins per test; the cli's --budget
# overrides it for one command
DEFAULT_BUDGET = 10**6


class BudgetExceeded(ValueError):
    """Certification ran out of its budget: no verdict either way."""


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
    Each draw and each spin costs one unit of the budget (`DEFAULT_BUDGET`
    unless given); a spent budget raises `BudgetExceeded`.
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
        closure = spin(M, _random_vector(null, rng))
        if closure.dim < M.dim:
            return IrredResult("reducible", closure, "kernel vector spin")
        if null.dim > d or used == budget:
            continue
        used += 1
        dual = spin(M, _random_vector(conull, rng), transposed=True)
        if dual.dim == M.dim:
            return IrredResult("irreducible", None, "kernel/dual spin")
        return IrredResult("reducible", kernel(dual.basis), "dual spin annihilator")
    raise BudgetExceeded(f"irreducibility budget exceeded on a {M.dim}-dimensional module")


def irreducible(M: LieModule, primes=None) -> tuple[bool, str]:
    """(irreducible?, method).  Over Q one prime with an irreducible reduction
    is enough, since a proper rational submodule reduces to a proper submodule
    at every prime; a reducible reduction proves nothing, so when no prime
    certifies this raises instead of answering False."""
    if M.field.order() is not None:
        return certify_irreducible(M).status == "irreducible", "spin certification"
    if primes is None:
        raise ValueError("irreducibility over Q needs primes to reduce modulo")
    if any(certify_irreducible(reduce_module_mod_p(M, p)).status == "irreducible" for p in primes):
        return True, "mod-p"
    raise ValueError(f"mod-p certification failed for a {M.dim}-dimensional module")


def _random_element(M: LieModule, rng) -> Mat:
    """x y + z for random linear combinations x, y, z of the generators (0 if none)."""
    K, n, g = M.field, M.dim, M.count
    coeffs = Mat(K, [[K.random(rng) for _ in range(g)] for _ in range(3)])
    combos = coeffs @ M.stack.reshape(g, n * n)
    x, y, z = (combos[i : i + 1, :].reshape(n, n) for i in range(3))
    return x @ y + z


def _random_vector(U: Subspace, rng) -> Mat:
    """A uniformly random nonzero vector of U, as a row."""
    K = U.field
    while True:
        coeffs = [K.random(rng) for _ in range(U.dim)]
        if not all(K.is_zero(c) for c in coeffs):
            return Mat(K, [coeffs]) @ U.basis


# ---------------------------------------------------------------------------
# Module surgery: restriction, factors, quotient


def restrict_module(M: LieModule, U: Subspace) -> LieModule:
    """Actions restricted to an invariant subspace, in its RREF coordinates."""
    return factor_module(M, Subspace.zero(M.field, M.dim), U)


def factor_module(M: LieModule, lo: Subspace, hi: Subspace) -> LieModule:
    """The action on hi/lo, for lo an invariant subspace of hi: in the
    coordinates of hi's basis rows at lo's non-pivot positions (lo taken in
    hi's coordinates), the only rows whose images are computed.  hi is
    invariant iff those images lie in hi, since lo is; raises ValueError
    unless they do.  lo's invariance is not checked."""
    if hi.dim == M.dim:
        return quotient_module(M, lo)
    lo_in = hi.coords_subspace(lo) if lo.dim else Subspace.zero(M.field, hi.dim)
    images = _images(M.stack, hi.basis[lo_in.nonpivots(), :])
    if not hi.residuals(images).is_zero():
        raise ValueError("subspace is not invariant")
    # an image in hi has its hi-coordinates at hi's pivots
    return M.on_stack(lo_in.residuals(images[:, list(hi.pivots)]))


def quotient_module(M: LieModule, U: Subspace) -> LieModule:
    """Actions on M/U in the coordinates of the non-pivot positions of U: M
    itself, not a copy, when U = 0.

    The images A_i e_j of the free unit vectors are columns of the
    generators; their residuals against U, which sit at the free positions,
    are the quotient action.
    """
    if not U.dim:
        return M
    S, g = M.stack, M.count
    free = U.nonpivots()
    images = S.transpose()[free, :].reshape(len(free) * g, M.dim)
    return M.on_stack(U.residuals(images))


def invariant_under(U: Subspace, S: Mat) -> bool:
    """A U contained in U for every block A of the stack S of ambient x
    ambient matrices (one matrix is a stack of one)."""
    return U.dim in (0, U.ambient) or U.residuals(_images(S, U.basis)).is_zero()


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


def composition_series(M: LieModule, candidate_chain=None, mod_p_primes=None) -> CompSeries:
    """A certified composition series of M, one loop over the links (lo, hi)
    of a chain: a candidate chain between 0 and M, or without one, over a
    finite field only, the chain [0, M].  Building each link's factor is the
    one test that lo lies in hi and that hi is invariant; the factor is
    certified `irreducible` as it stands (over Q at the primes
    `mod_p_primes`).  A reducible factor refuses a candidate chain; a free
    search splits it at the witness into the submodule and the quotient,
    each built from the factor and carrying its coordinate rows in M, and
    certifies those in turn, lower first.  Raises ValueError when the chain
    is no composition series, and `BudgetExceeded` when certification runs
    out of budget."""
    K, free = M.field, candidate_chain is None
    if free and K.order() is None:
        raise ValueError("characteristic 0 needs a candidate chain")
    chain = [] if free else list(candidate_chain)
    if not chain or chain[0].dim:
        chain.insert(0, Subspace.zero(K, M.dim))
    if chain[-1].dim != M.dim:
        chain.append(Subspace.full(K, M.dim))
    terms, dims, trivial = chain[:1], [], []
    for lo, hi in zip(chain, chain[1:]):
        if hi.dim <= lo.dim:
            raise ValueError("chain is not strictly ascending")
        # pieces: (module, its coordinate rows in M); hi's rows are the
        # factor's coordinates in a free search, whose one link is (0, M)
        try:
            pieces = [(factor_module(M, lo, hi), hi.basis)]
        except ValueError:  # lo outside hi, or hi not invariant
            raise ValueError("candidate chain term is not invariant" if hi.contains(lo)
                             else "chain is not strictly ascending") from None
        while pieces:
            F, rows = pieces.pop()
            if K.order() is None:
                irreducible(F, mod_p_primes)  # certifies, or raises
            elif (res := certify_irreducible(F)).status == "reducible":
                if not free:
                    raise ValueError("candidate chain factor is not irreducible")
                X = res.witness
                pieces += [(quotient_module(F, X), rows[X.nonpivots(), :]),
                           (restrict_module(F, X), X.basis @ rows)]
                continue
            dims.append(F.dim)
            trivial.append(trivial_actions(F))
            terms.append(Subspace.span(Mat.from_blocks([[terms[-1].basis], [rows]]))
                         if pieces else hi)
    return CompSeries(terms, dims, trivial)


def first_primes_coprime_to(n, count=2):
    out = []
    p = 2
    while len(out) < count:
        if is_prime(p) and n % p != 0:
            out.append(p)
        p += 1
    return out


def reduce_module_mod_p(M: LieModule, p: int) -> LieModule:
    """Clear denominators per generator (a row vec(A) each) and reduce mod p.

    Scaling a generator by a nonzero rational does not change its invariant
    subspaces, so the reduced module's lattice refines the rational one.
    """
    vecs = M.stack.reshape(M.count, M.dim * M.dim).cleared_mod(p)
    return LieModule(GF(p), M.count, vecs.reshape(M.count * M.dim, M.dim))


# ---------------------------------------------------------------------------
# Hom spaces and weights


def hom_space(M1: LieModule, M2: LieModule) -> Subspace:
    """All T (dim2 x dim1) with T a1(x) = a2(x) T for every generator x,
    the generators of M1 and M2 paired by position: the kernel of the stack
    of kron(a2, I) - kron(I, a1') over the generators, since row-major
    vec(a2 T) = kron(a2, I) vec T and vec(T a1) = kron(I, a1') vec T."""
    g, n1, n2 = M1.count, M1.dim, M2.dim
    if M2.count != g:
        raise ValueError("generator counts must match")
    vecs1 = dual_module(M1).stack.reshape(g, n1 * n1)  # the rows vec(-a1')
    return kernel(kron_sum_stack(M2.stack.reshape(g, n2 * n2), vecs1, 1))


def equivariant(T: Mat, M1: LieModule, M2: LieModule) -> bool:
    """T a_i = b_i T for every generator a_i of M1 and b_i of M2, paired by
    position (T is dim2 x dim1): one product per side, each side's blocks
    laid side by side with column c of block i at column c g + i."""
    g, n1, n2 = M1.count, M1.dim, M2.dim
    if M2.count != g:
        raise ValueError("generator counts must match")
    side = M1.stack.reshape(g, n1 * n1).transpose().reshape(n1, n1 * g)
    return T @ side == (M2.stack @ T).reshape(g, n2 * n1).transpose().reshape(n2, n1 * g)


def weights(H) -> list:
    """The weights of the nonempty family H of diagonal n x n matrices,
    sorted, each with its multiplicity: coordinate k has the weight
    (h[k, k] for h in H), exact over every field."""
    diagonals = []
    for h in H:
        diagonals.append(h.diagonal())
        if h != Mat.diag(h.field, diagonals[-1]):
            raise ValueError("weight family must be diagonal")
    return sorted(Counter(zip(*diagonals)).items())


# ---------------------------------------------------------------------------
# Adjoint modules and tensor squares


def adjoint_module(L: Subspace, ambient: Subspace) -> LieModule:
    """ad action of L's basis restricted to an invariant subspace of gl(m)."""
    gl = LieModule(L.field, L.dim, ad_stack(L.basis))
    try:
        return restrict_module(gl, ambient)
    except ValueError:
        raise ValueError("ambient subspace is not ad-invariant") from None


@dataclass
class TensorSquare:
    """The maps on V (x) V (coordinates T_ij row-major) that identify the
    factors of gl(V) as images under Gamma; V (x) V has no L-action here."""
    gamma: Mat  # m^2 x m^2, T -> T' A
    omega: Mat  # 1 x m^2 functional
    sym: Subspace
    alt: Subspace
    delta: Mat | None  # 1 x m^2 functional on Lambda^2 (char 2, alternating f)


def tensor_square(form: BilForm) -> TensorSquare:
    if not form.nondegenerate:
        raise ValueError("tensor square needs a nondegenerate form")
    K = form.field
    m = form.m
    A = form.gram
    gamma = transpose_product(A)
    omega = A.reshape(1, m * m)  # tr(T' A) = sum of T_ij A_ij
    sym, alt = sym_alt_subspaces(m, K)
    delta = None
    if K.char == 2 and form.alternating:
        # the entries A_ij, i < j, at their row-major positions, zero elsewhere
        upper = [i * m + j for i in range(m) for j in range(i + 1, m)]
        delta = A.reshape(1, m * m)[:, upper] @ Mat.identity(K, m * m)[upper, :]
    return TensorSquare(gamma, omega, sym, alt, delta)


def gamma_image(ts: TensorSquare, U: Subspace, V: Subspace) -> Subspace:
    """Gamma(U), for comparison with V.  Gamma is invertible, so Gamma(U) = V
    when dim U = dim V and V holds every row of U Gamma': then V is returned,
    and U Gamma' is eliminated to its canonical basis only otherwise."""
    image = U.basis @ ts.gamma.transpose()
    return V if V.dim == U.dim and V.residuals(image).is_zero() else Subspace.span(image)


def star_map(X: Mat) -> Mat:
    """The explicit involution * on 4x4 alternating matrices, applied to each
    row vec(s) of X: one product by the signed permutation of the
    off-diagonal positions that swaps the entries at (i, j) and (k, l), and
    at (j, i) and (l, k), with the sign of the pair: + for (0, 1) and
    (2, 3), - for (0, 2) and (1, 3), + for (0, 3) and (1, 2)."""
    K = X.field
    if X.ncols != 16:
        raise ValueError("star map needs rows of 4x4 matrices")
    if K.char == 2:
        raise ValueError("star map needs characteristic != 2")
    P = np.zeros((16, 16), dtype=np.int64)
    for (i, j), (k, l), sign in (((0, 1), (2, 3), 1), ((0, 2), (1, 3), -1),
                                 ((0, 3), (1, 2), 1)):
        P[i * 4 + j, k * 4 + l] = P[k * 4 + l, i * 4 + j] = sign
        P[j * 4 + i, l * 4 + k] = P[l * 4 + k, j * 4 + i] = sign
    return X @ Mat.from_ints(K, P)


# ---------------------------------------------------------------------------
# Conjugation modules Z, A and the sym/alt split


def conjugation_modules(n, K):
    """The gl(n) modules Z (a.s = as + sa') and A (a.t = -a't - ta) on n x n
    matrices, generated by the units a = e_ij (generator i n + j)."""
    E = Mat.identity(K, n * n)  # rows vec(e_ij)
    Et = E[:, transposed_positions(n)]  # rows vec(e_ij')
    return (LieModule(K, n * n, kron_sum_stack(E, E, 1)),
            LieModule(K, n * n, -kron_sum_stack(Et, Et, 1)))


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
    d, g = module.dim, n * n - 1
    vecs = module.stack.reshape(n * n, d * d)
    off = vecs[[k for k in range(g) if k // n != k % n], :]
    h = vecs[[i * (n + 1) for i in range(n - 1)], :] - vecs[[g] * (n - 1), :]
    return LieModule(K, g, Mat.from_blocks([[off], [h]]).reshape(g * d, d))


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
    """The truncated polynomial module of h(n) on the given monomial basis:
    its generators are the actions of u_1..u_n, v_1..v_n, z in that order,
    the order of `liealg.heisenberg`'s basis."""
    p = K.char
    index = {mo: i for i, mo in enumerate(monomials)}
    d = len(monomials)
    # du[i] = d/dx_i; mv[i] = x_i (0 on x_i^(p-1)) and mv[n] = 1, each times alpha
    du, mv = np.zeros((n, d, d), dtype=np.int64), np.zeros((n + 1, d, d), dtype=np.int64)
    mv[n] = np.eye(d, dtype=np.int64)
    for mo, col in index.items():
        for i, e in enumerate(mo):
            if e > 0:
                du[i, index[mo[:i] + (e - 1,) + mo[i + 1 :]], col] = e
            if e < p - 1:
                mv[i, index[mo[:i] + (e + 1,) + mo[i + 1 :]], col] = 1
    stack = Mat.from_blocks([[Mat.from_ints(K, du.reshape(n * d, d))],
                             [Mat.from_ints(K, mv.reshape((n + 1) * d, d)).scale(alpha)]])
    return LieModule(K, 2 * n + 1, stack)


def representation_kernel(module: LieModule, alg) -> Subspace:
    """Kernel of the representation on the module of the algebra alg
    (StructureConstants, or the Subspace of a subalgebra of gl(m)) whose
    basis acts by the generators, one generator per basis element."""
    n, g = module.dim, module.count
    if g != alg.dim:
        raise ValueError(f"need one generator per basis element: {g} for dim {alg.dim}")
    # x = sum c_i e_i acts by sum c_i a_i; kernel is where that operator is 0
    return kernel(module.stack.reshape(g, n * n).transpose())
