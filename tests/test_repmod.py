"""Spinning, irreducibility certificates, series, Hom spaces, tensor squares."""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import numpy as np
import pytest

from lieclassical.fields import GF, QQ
from lieclassical.forms import classify, standard_symplectic_gram
from lieclassical.liealg import (
    MatLieAlg,
    StructureConstants,
    bracket,
    gl_subspace,
    heisenberg,
    is_simple,
    self_adjoint_module,
    skew_adjoint_algebra,
    sl_subspace,
)
from lieclassical.linalg import Mat, Subspace, kron_sum_stack, matvec
from lieclassical.repmod import (
    LieModule,
    _random_element,
    adjoint_module,
    certify_irreducible,
    composition_series,
    conjugation_modules,
    dual_module,
    gamma_image,
    heisenberg_poly_module,
    hom_members,
    hom_space,
    invariant_under,
    quotient_lift,
    quotient_module,
    reduce_module_mod_p,
    representation_kernel,
    respects_brackets,
    restrict_module,
    restrict_to_sl,
    spin,
    star_map,
    tensor_square,
    weights,
)
from echelon_reference import ScalarEchelon
from line_enumeration import certify_by_enumeration
from scalar_reference import block_duality_check, op_matrix, unvec


def sl2_natural(K):
    e = Mat.unit(K, 2, 2, 0, 1)
    f = Mat.unit(K, 2, 2, 1, 0)
    h = Mat.diag(K, [K.one(), K.neg(K.one())])
    return LieModule(K, 2, [("e", e), ("f", f), ("h", h)])


def test_spin_full_from_any_seed():
    K = GF(3)
    M = sl2_natural(K)
    assert spin(M, [[K.one(), K.zero()]]).dim == 2
    assert spin(M, [[K.zero(), K.zero()]]).dim == 0


def test_certify_irreducible_natural():
    for K in (GF(2), GF(3), GF(7)):
        res = certify_irreducible(sl2_natural(K))
        assert res.status == "irreducible"


def test_certify_reducible_with_witness():
    K = GF(3)
    e = Mat.unit(K, 2, 2, 0, 1)
    M = LieModule(K, 2, [("e", e)])
    res = certify_irreducible(M)
    assert res.status == "reducible"
    W = res.witness
    assert 0 < W.dim < 2
    for _, a in M.generators:
        assert invariant_under(W, a)


def test_norton_agrees_with_enumeration():
    # the kernel/dual spin test reaches the verdict of sweeping every line
    rng = random.Random(30)
    K = GF(3)
    for _ in range(20):
        gens = [
            (f"g{i}", Mat(K, [[K.random(rng) for _ in range(3)] for _ in range(3)]))
            for i in range(2)
        ]
        M = LieModule(K, 3, gens)
        by_enum = certify_by_enumeration(M)
        by_norton = certify_irreducible(M, seed=1)
        assert by_enum.status == by_norton.status


def _random_modules(K, rng):
    """Small modules of every kind: random sparse and dense generators, direct
    sums S + S of one module with itself (no kernel line of a linear factor
    spins to all of it), and upper triangular (reducible) ones."""
    z = K.zero()
    for n in (2, 3, 4):
        for _ in range(12):
            density = rng.choice([0.3, 0.6, 1.0])
            gens = [(f"g{i}", Mat(K, [[K.random(rng) if rng.random() < density else z
                                       for _ in range(n)] for _ in range(n)]))
                    for i in range(rng.randrange(1, 4))]
            yield LieModule(K, n, gens)
        gens = [(f"g{i}", Mat(K, [[K.random(rng) if j >= r else z for j in range(n)]
                                  for r in range(n)])) for i in range(2)]
        yield LieModule(K, n, gens)
    for _ in range(4):
        S = [Mat(K, [[K.random(rng) for _ in range(2)] for _ in range(2)]) for _ in range(2)]
        yield LieModule(K, 4, [(f"g{i}", Mat(K, [r + [z, z] for r in a.rows]
                                             + [[z, z] + r for r in a.rows]))
                               for i, a in enumerate(S)])


def _so4_nonsquare_mod(p):
    """so(4) of diag(1,1,1,2) reduced mod p: 2 is not a square mod 3 or 5, so
    the adjoint module is irreducible but not absolutely irreducible."""
    L = skew_adjoint_algebra(Mat.diag(QQ, [Fraction(d) for d in (1, 1, 1, 2)]))
    return reduce_module_mod_p(adjoint_module(L, L.space), p)


@pytest.mark.parametrize("K", [GF(2), GF(3), GF(3, 2)], ids=["gf2", "gf3", "gf9"])
def test_certify_matches_enumeration_on_random_modules(K):
    rng = random.Random(40 + K.order())
    for M in _random_modules(K, rng):
        res = certify_irreducible(M, seed=rng.randrange(100))
        assert res.status == certify_by_enumeration(M).status
        if res.status == "reducible":
            W = res.witness
            assert 0 < W.dim < M.dim
            assert all(invariant_under(W, a) for _, a in M.generators)


@pytest.mark.parametrize("M", [
    _so4_nonsquare_mod(3),
    _so4_nonsquare_mod(5),
    # x^2 + 1 is irreducible over GF(3): its companion matrix alone
    LieModule(GF(3), 2, [("c", Mat(GF(3), [[0, 2], [1, 0]]))]),
], ids=["so4-mod3", "so4-mod5", "companion"])
def test_certify_irreducible_not_absolutely_irreducible(M):
    assert certify_by_enumeration(M).status == "irreducible"
    for seed in range(5):
        res = certify_irreducible(M, seed=seed)
        assert (res.status, res.method) == ("irreducible", "kernel/dual spin")


def _sp4_adjoint_gf3():
    """sp(4) over GF(3), simple, as its own adjoint module (dimension 10)."""
    L = skew_adjoint_algebra(standard_symplectic_gram(GF(3), 4))
    return adjoint_module(L, L.space)


@pytest.mark.parametrize("make", [lambda: _so4_nonsquare_mod(5), _sp4_adjoint_gf3],
                         ids=["so4-mod5", "sp4-gf3"])
def test_certify_eliminates_each_f_theta_once(monkeypatch, make):
    # both null spaces of f(theta) come from one elimination of [f(theta) | I]:
    # no kernel call, and neither f(theta) nor its transpose is eliminated alone
    from lieclassical import linalg, repmod

    M = make()
    f_thetas, inserted, kernels = [], [], []
    poly_at, add, kernel = repmod.poly_at, linalg.EchelonGFp.add, linalg.kernel
    monkeypatch.setattr(repmod, "poly_at", lambda f, A: f_thetas.append(poly_at(f, A)) or f_thetas[-1])
    monkeypatch.setattr(linalg.EchelonGFp, "add", lambda self, X: inserted.append(X) or add(self, X))
    monkeypatch.setattr(linalg, "kernel", lambda A: kernels.append(A) or kernel(A))
    monkeypatch.setattr(repmod, "kernel", linalg.kernel)
    for seed in range(3):
        f_thetas.clear(), inserted.clear(), kernels.clear()
        assert certify_irreducible(M, seed=seed).status == "irreducible"
        n = M.dim
        eye = Mat.identity(M.field, n).a
        for F in f_thetas:
            augmented = [X for X in inserted if X.shape[-1] == 2 * n
                         and np.array_equal(X[..., :n], F.a) and np.array_equal(X[..., n:], eye)]
            assert len(augmented) == 1
            assert not any(np.array_equal(X, F.a) or np.array_equal(X, F.transpose().a)
                           for X in inserted)
        assert f_thetas and not kernels


def test_certify_budget_counts_draws_and_spins():
    # an irreducible module needs a draw, a spin and a dual spin: any smaller
    # budget runs out and says so, never "reducible"
    M = sl2_natural(GF(5))
    for budget in (1, 2):
        assert certify_irreducible(M, budget=budget).status == "budget-exceeded"
    assert certify_irreducible(M, budget=10).status == "irreducible"


def test_composition_series_gl2_under_sl2():
    K = GF(3)
    L = MatLieAlg(2, sl_subspace(K, 2))
    M = adjoint_module(L, gl_subspace(K, 2))
    cs = composition_series(M)
    assert sorted(cs.factor_dims) == [1, 3]
    assert sorted(zip(cs.factor_dims, cs.factor_trivial)) == [(1, True), (3, False)]


def test_composition_series_gl2_char2():
    # scalars sit inside sl(2) in characteristic 2
    K = GF(2)
    L = MatLieAlg(2, sl_subspace(K, 2))
    M = adjoint_module(L, gl_subspace(K, 2))
    cs = composition_series(M)
    # ad is trivial on every factor here: [e, f] = I is scalar, so the
    # action on sl/scalars vanishes and everything splits into lines
    assert cs.factor_dims == [1, 1, 1, 1]
    assert all(cs.factor_trivial)


def test_composition_series_char0_candidate_chain():
    K = QQ
    L = MatLieAlg(2, sl_subspace(K, 2))
    M = adjoint_module(L, gl_subspace(K, 2))
    cs = composition_series(M, candidate_chain=[sl_subspace(K, 2)], mod_p_primes=(3, 5))
    assert cs.factor_dims == [3, 1]
    assert cs.factor_trivial == [False, True]


def test_restrict_quotient_dims_and_brackets():
    K = GF(5)
    L = MatLieAlg(2, sl_subspace(K, 2))
    M = adjoint_module(L, gl_subspace(K, 2))
    U = sl_subspace(K, 2)
    sub = restrict_module(M, U)
    quo = quotient_module(M, U)
    assert sub.dim == 3 and quo.dim == 1
    table = [
        [L.space.coords(bracket(x, y).vec()) for y in L.basis_mats()]
        for x in L.basis_mats()
    ]
    struct = StructureConstants(K, [f"x{i}" for i in range(3)], table)
    assert respects_brackets(M, struct)
    assert respects_brackets(sub, struct)
    assert respects_brackets(quo, struct)


def test_is_simple_examples():
    assert is_simple(MatLieAlg(2, sl_subspace(GF(3), 2)))
    assert not is_simple(MatLieAlg(2, gl_subspace(GF(3), 2)))
    assert not is_simple(MatLieAlg(2, sl_subspace(GF(2), 2)))
    J = standard_symplectic_gram(GF(3), 4)
    assert is_simple(skew_adjoint_algebra(J))


def test_hom_space_schur_and_duality():
    K = GF(5)
    V = sl2_natural(K)
    end = hom_space(V, V)
    assert end.dim == 1  # Schur: scalars only
    dual = dual_module(V)
    hv = hom_space(V, dual)
    assert hv.dim == 1  # the 2-dimensional module is self-dual
    T = hom_members(V, dual, hv)[0]
    for (_, a), (_, ad) in zip(V.generators, dual.generators):
        assert T @ a == ad @ T


def test_weights_sl2_natural():
    V = sl2_natural(QQ)
    h = Mat.diag(QQ, [Fraction(1), Fraction(-1)])
    table = weights(V, [("h", h)]).entries
    assert sorted(table) == [((Fraction(-1),), 1), ((Fraction(1),), 1)]


def test_weights_refuse_an_incomplete_table():
    # 7 is not among the eigenvalues tried over Q
    V = LieModule(QQ, 2, [("h", Mat.diag(QQ, [Fraction(7), Fraction(0)]))])
    with pytest.raises(ValueError, match="do not sum to dim 2"):
        weights(V, V.generators)


@pytest.mark.parametrize("K", [GF(5), GF(7), GF(3, 2)], ids=["gf5", "gf7", "gf9"])
def test_weights_over_finite_fields_in_element_order(K):
    # a diagonalisable h = P D P^-1 with repeated eigenvalues: the table lists
    # each eigenvalue once, in the order of K.elements()
    rng = random.Random(50 + K.order())
    n = 5
    for _ in range(5):
        diag = [rng.choice(K.elements()[:4]) for _ in range(n)]
        while True:
            P = Mat(K, [[K.random(rng) for _ in range(n)] for _ in range(n)])
            if not K.is_zero(P.det()):
                break
        h = P @ Mat.diag(K, diag) @ P.inv()
        table = weights(LieModule(K, n, [("h", h)]), [("h", h)]).entries
        assert table == [((lam,), diag.count(lam)) for lam in K.elements() if lam in diag]


def test_weights_adjoint_sl2():
    K = QQ
    L = MatLieAlg(2, sl_subspace(K, 2))
    M = adjoint_module(L, L.space)
    # find the coordinate matrix of ad(h) inside the module generators
    hmat = None
    for (_, a), x in zip(M.generators, L.basis_mats()):
        if x == Mat.diag(K, [Fraction(1), Fraction(-1)]):
            hmat = a
    # basis of sl(2) from RREF need not contain h exactly; build ad(h) directly
    if hmat is None:
        h = Mat.diag(K, [Fraction(1), Fraction(-1)])
        cols = [L.space.coords(bracket(h, y).vec()) for y in L.basis_mats()]
        hmat = Mat(K, [[cols[j][i] for j in range(3)] for i in range(3)])
    table = weights(M, [("h", hmat)]).entries
    assert sorted(table) == [
        ((Fraction(-2),), 1),
        ((Fraction(0),), 1),
        ((Fraction(2),), 1),
    ]


def test_tensor_square_equivariance():
    rng = random.Random(31)
    for K in (GF(3), GF(2)):
        J = standard_symplectic_gram(K, 4)
        L = skew_adjoint_algebra(J)
        ts = tensor_square(classify(J), L)
        mats = L.basis_mats()
        for (_, act), x in zip(ts.module.generators, mats):
            for _ in range(3):
                t = [K.random(rng) for _ in range(16)]
                lhs = matvec(ts.gamma, matvec(act, t))
                gt = unvec(K, matvec(ts.gamma, t), 4, 4)
                rhs = bracket(x, gt).vec()
                assert lhs == rhs


def test_tensor_square_gamma_images_skew_odd_char():
    from lieclassical.liealg import self_adjoint_module

    K = GF(5)
    J = standard_symplectic_gram(K, 4)
    L = skew_adjoint_algebra(J)
    ts = tensor_square(classify(J), L)
    assert gamma_image(ts, ts.alt) == self_adjoint_module(J)
    assert gamma_image(ts, ts.sym) == L.space


def test_tensor_square_delta_char2():
    K = GF(2)
    J = standard_symplectic_gram(K, 4)
    L = skew_adjoint_algebra(J)
    ts = tensor_square(classify(J), L)
    assert ts.delta is not None
    # delta reads off the form: on v (x) w + w (x) v it gives f(v, w)
    t = Mat.unit(K, 4, 4, 0, 2) + Mat.unit(K, 4, 4, 2, 0)
    assert matvec(ts.delta, t.vec()) == [K.one()]


def test_star_map_example():
    K = GF(5)
    s = Mat.unit(K, 4, 4, 0, 1) - Mat.unit(K, 4, 4, 1, 0)
    out = star_map(s)
    assert out == Mat.unit(K, 4, 4, 2, 3) - Mat.unit(K, 4, 4, 3, 2)
    assert star_map(out) == s


def test_block_duality():
    assert block_duality_check(2, 3, GF(3))
    assert block_duality_check(1, 2, QQ)
    assert block_duality_check(2, 2, GF(5))


def test_heisenberg_poly_module():
    for n, p in ((1, 2), (1, 3), (2, 2)):
        K = GF(p)
        h = heisenberg(K, n)
        V = heisenberg_poly_module(K, n, K.one())
        assert V.dim == p**n
        assert respects_brackets(V, h)
        assert representation_kernel(V, h).dim == 0  # faithful
        assert certify_irreducible(V).status == "irreducible"


def _reference_restrict(M, U):
    """Generators on U from coordinates of A u, one basis vector at a time."""
    return [
        op_matrix(M.field, U.dim, U.dim, lambda c, A=A: U.coords(matvec(A, U.lift(c))))
        for A in M.action_mats()
    ]


def _reference_quotient(M, U):
    """Generators on M/U from reduced images of lifted quotient coordinates."""
    free = [j for j in range(M.dim) if j not in U.pivots]
    return [
        op_matrix(
            M.field,
            len(free),
            len(free),
            lambda c, A=A: [U.reduce(matvec(A, quotient_lift(U, Mat(U.field, [c])).vec()))[j]
                             for j in free],
        )
        for A in M.action_mats()
    ]


def _gl_modules():
    """gl(m) as an L(f)-module over small fields and Q, with L(f), M(f) inside."""
    for K in (GF(2), GF(3), GF(5), GF(3, 2), QQ):
        for gram in (standard_symplectic_gram(K, 4), Mat.diag(K, [K.one()] * 3)):
            L = skew_adjoint_algebra(gram)
            M = adjoint_module(L, gl_subspace(K, gram.nrows))
            yield M, [L.space, self_adjoint_module(gram), gl_subspace(K, gram.nrows)]


def test_surgery_matches_reference_on_spun_submodules():
    rng = random.Random(40)
    proper = 0
    for M, pieces in _gl_modules():
        K = M.field
        for _ in range(6):
            piece = rng.choice(pieces)
            seeds = [piece.lift([K.random(rng) for _ in range(piece.dim)])
                     for _ in range(rng.randint(1, 2))]
            U = spin(M, seeds)
            proper += 0 < U.dim < M.dim
            sub, quo = restrict_module(M, U), quotient_module(M, U)
            assert sub.labels() == quo.labels() == M.labels()
            assert sub.action_mats() == _reference_restrict(M, U)
            assert quo.action_mats() == _reference_quotient(M, U)
    assert proper >= 10


def test_non_invariant_subspace_refused():
    rng = random.Random(41)
    for M, _ in _gl_modules():
        K = M.field
        while True:
            S = Subspace.from_rows(K, M.dim, [[K.random(rng) for _ in range(M.dim)]])
            if S.dim and not all(invariant_under(S, a) for a in M.action_mats()):
                break
        with pytest.raises(ValueError, match="subspace is not invariant"):
            restrict_module(M, S)
        with pytest.raises(ValueError, match="candidate chain term is not invariant"):
            composition_series(M, candidate_chain=[S])


def test_spin_exact_near_int64_limit():
    # G = P T P^-1 with T block upper triangular: P (F^4 + 0) is a proper
    # submodule, which wrapped int64 sums would almost surely leave
    p = 2**31 - 1
    K = GF(p)
    rng = random.Random(42)
    n = 8
    while True:
        P = Mat(K, [[K.random(rng) for _ in range(n)] for _ in range(n)])
        if not K.is_zero(P.det()):
            break
    Pinv = P.inv()
    gens = []
    for i in range(2):
        T = Mat(K, [[K.random(rng) if r < 4 or c >= 4 else 0 for c in range(n)]
                    for r in range(n)])
        G = op_matrix(K, n, n, lambda v, T=T: matvec(P, matvec(T, matvec(Pinv, v))))
        gens.append((f"g{i}", G))
    M = LieModule(K, n, gens)
    seed = matvec(P, [K.random(rng) for _ in range(4)] + [0] * 4)
    ref = ScalarEchelon(K, n)
    frontier = [seed] if ref.add(seed) else []
    while frontier:
        images = [matvec(G, v) for v in frontier for G in M.action_mats()]
        frontier = [w for w in images if ref.add(w)]
    assert 0 < ref.dim <= 4
    assert spin(M, [seed]) == ref.subspace()


def test_restrict_to_zero_subspace():
    for K in (QQ, GF(3, 2), GF(5)):
        M = adjoint_module(MatLieAlg(2, sl_subspace(K, 2)), gl_subspace(K, 2))
        R = restrict_module(M, Subspace.zero(K, 4))
        assert R.dim == 0
        assert R.labels() == M.labels()
        assert all(a.rows == [] for a in R.action_mats())


@pytest.mark.parametrize("K", [GF(3, 2), GF(5, 2), GF(5)], ids=["gf9", "gf25", "gf5"])
def test_random_element_matches_scalar_combinations(K):
    M = adjoint_module(MatLieAlg(3, sl_subspace(K, 3)), gl_subspace(K, 3))
    mats = M.action_mats()
    for seed in range(4):
        rng = random.Random(seed)
        coeffs = [[K.random(rng) for _ in mats] for _ in range(3)]
        x, y, z = (functools.reduce(Mat.__add__, map(Mat.scale, mats, cs)) for cs in coeffs)
        assert _random_element(M, random.Random(seed)) == x @ y + z


def test_adjoint_module_refuses_a_non_invariant_ambient():
    for K in (QQ, GF(3, 2), GF(5)):
        L = MatLieAlg(2, sl_subspace(K, 2))
        # the diagonal matrices: [e, h] is a multiple of e, which leaves them
        diag = Subspace.from_rows(K, 4, [Mat.unit(K, 2, 2, i, i).vec() for i in range(2)])
        with pytest.raises(ValueError, match="ambient subspace is not ad-invariant"):
            adjoint_module(L, diag)


def _reference_adjoint(L, ambient):
    """ad action of L's basis on an ad-invariant subspace of gl(m): one bracket
    per pair of basis element and ambient vector, read off in its coordinates."""
    K = L.field
    ws = ambient.matrices(L.m, L.m)
    return [Mat(K, [ambient.coords(bracket(x, w).vec()) for w in ws]).transpose()
            for x in L.basis_mats()]


@pytest.mark.parametrize("K", [GF(2), GF(3), GF(3, 2), QQ], ids=["gf2", "gf3", "gf9", "q"])
def test_adjoint_module_matches_bracket_reference(K):
    for gram in (standard_symplectic_gram(K, 4), Mat.diag(K, [K.one()] * 3)):
        L = skew_adjoint_algebra(gram)
        M = self_adjoint_module(gram)
        m = gram.nrows
        for ambient in (gl_subspace(K, m), L.space, M, M.intersect(sl_subspace(K, m))):
            mod = adjoint_module(L, ambient)
            assert mod.dim == ambient.dim
            assert mod.labels() == [f"x{i}" for i in range(L.dim)]
            assert mod.action_mats() == _reference_adjoint(L, ambient)


@pytest.mark.parametrize("K", [GF(3), GF(3, 2)], ids=["gf3", "gf9"])
def test_generator_free_module(K):
    M = LieModule(K, 2, [])
    assert _random_element(M, random.Random(0)) == Mat.zeros(K, 2, 2)
    assert hom_space(M, M) == Subspace.full(K, 4)
    assert certify_irreducible(M).status == "reducible"
    cs = composition_series(M)
    assert (cs.factor_dims, cs.factor_trivial) == ([1, 1], [True, True])


@pytest.mark.parametrize("n", [4, 11, 12])
def test_restrict_to_sl_selects_by_position(n):
    # with two-digit indices the label a{i}{j} cannot be read back: at n = 12
    # "a111" would be both e_1,11 and e_11,1
    K = GF(3)
    Zsl = restrict_to_sl(conjugation_modules(n, K)[0], n, K)
    labels = Zsl.labels()
    assert len(labels) == len(set(labels)) == n * n - 1
    if n <= 10:
        assert labels == ([f"a{i}{j}" for i in range(n) for j in range(n) if i != j]
                          + [f"h{i}" for i in range(n - 1)])
    # the generators act as e_ij (i != j), then e_ii - e_nn, on s -> x s + s x'
    eye = Mat.identity(K, n * n)
    off = eye[[k for k in range(n * n) if k // n != k % n], :]
    h = eye[[i * (n + 1) for i in range(n - 1)], :] - eye[[n * n - 1] * (n - 1), :]
    X = Mat.from_blocks([[off], [h]])
    assert Subspace.span(X) == sl_subspace(K, n)
    assert Zsl.stack == kron_sum_stack(X, X, 1)
