"""Spinning, irreducibility certificates, series, Hom spaces, tensor squares."""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lieclassical import repmod, verify
from lieclassical.fields import GF, QQ
from lieclassical.forms import classify, standard_symplectic_gram
from lieclassical.liealg import (
    StructureConstants,
    bracket,
    gl_subspace,
    heisenberg,
    is_simple,
    scalars_subspace,
    self_adjoint_module,
    skew_adjoint_algebra,
    sl_subspace,
)
from lieclassical.linalg import Mat, Subspace, kron_sum_stack, matvec
from lieclassical.repmod import (
    BudgetExceeded,
    LieModule,
    _random_element,
    adjoint_module,
    certify_irreducible,
    composition_series,
    conjugation_modules,
    dual_module,
    equivariant,
    factor_module,
    gamma_image,
    heisenberg_poly_module,
    hom_space,
    invariant_under,
    irreducible,
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
from scalar_reference import (
    block_duality_check,
    coords_by_scalars,
    lift_by_scalars,
    op_matrix,
    span_rows,
    stacked,
    star_by_scalars,
    tensor_action_by_kron,
    unvec,
)


def sl2_natural(K):
    e = Mat.unit(K, 2, 2, 0, 1)
    f = Mat.unit(K, 2, 2, 1, 0)
    h = Mat.diag(K, [K.one(), K.neg(K.one())])
    return LieModule(K, 3, stacked(K, 2, [e, f, h]))


def test_spin_full_from_any_seed():
    K = GF(3)
    M = sl2_natural(K)
    assert spin(M, Mat(K, [[K.one(), K.zero()]])).dim == 2
    assert spin(M, Mat(K, [[K.zero(), K.zero()]])).dim == 0


def test_certify_irreducible_natural():
    for K in (GF(2), GF(3), GF(7)):
        res = certify_irreducible(sl2_natural(K))
        assert res.status == "irreducible"


def test_certify_reducible_with_witness():
    K = GF(3)
    e = Mat.unit(K, 2, 2, 0, 1)
    M = LieModule(K, 1, e)
    res = certify_irreducible(M)
    assert res.status == "reducible"
    W = res.witness
    assert 0 < W.dim < 2
    for a in M.action_mats():
        assert invariant_under(W, a)


def test_norton_agrees_with_enumeration():
    # the kernel/dual spin test reaches the verdict of sweeping every line
    rng = random.Random(30)
    K = GF(3)
    for _ in range(20):
        gens = [Mat(K, [[K.random(rng) for _ in range(3)] for _ in range(3)])
                for _ in range(2)]
        M = LieModule(K, 2, stacked(K, 3, gens))
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
            gens = [Mat(K, [[K.random(rng) if rng.random() < density else z
                            for _ in range(n)] for _ in range(n)])
                    for _ in range(rng.randrange(1, 4))]
            yield LieModule(K, len(gens), stacked(K, n, gens))
        gens = [Mat(K, [[K.random(rng) if j >= r else z for j in range(n)] for r in range(n)])
                for _ in range(2)]
        yield LieModule(K, 2, stacked(K, n, gens))
    for _ in range(4):
        S = [Mat(K, [[K.random(rng) for _ in range(2)] for _ in range(2)]) for _ in range(2)]
        yield LieModule(K, 2, stacked(K, 4, [Mat(K, [r + [z, z] for r in a.rows]
                                                 + [[z, z] + r for r in a.rows]) for a in S]))


def _so4_nonsquare_mod(p):
    """so(4) of diag(1,1,1,2) reduced mod p: 2 is not a square mod 3 or 5, so
    the adjoint module is irreducible but not absolutely irreducible."""
    L = skew_adjoint_algebra(Mat.diag(QQ, [Fraction(d) for d in (1, 1, 1, 2)]))
    return reduce_module_mod_p(adjoint_module(L, L), p)


@pytest.mark.parametrize("K", [GF(2), GF(3), GF(3, 2)], ids=["gf2", "gf3", "gf9"])
def test_certify_matches_enumeration_on_random_modules(K):
    rng = random.Random(40 + K.order())
    for M in _random_modules(K, rng):
        res = certify_irreducible(M, seed=rng.randrange(100))
        assert res.status == certify_by_enumeration(M).status
        if res.status == "reducible":
            W = res.witness
            assert 0 < W.dim < M.dim
            assert all(invariant_under(W, a) for a in M.action_mats())


@pytest.mark.parametrize("M", [
    _so4_nonsquare_mod(3),
    _so4_nonsquare_mod(5),
    # x^2 + 1 is irreducible over GF(3): its companion matrix alone
    LieModule(GF(3), 1, Mat(GF(3), [[0, 2], [1, 0]])),
], ids=["so4-mod3", "so4-mod5", "companion"])
def test_certify_irreducible_not_absolutely_irreducible(M):
    assert certify_by_enumeration(M).status == "irreducible"
    for seed in range(5):
        res = certify_irreducible(M, seed=seed)
        assert (res.status, res.method) == ("irreducible", "kernel/dual spin")


def _sp4_adjoint_gf3():
    """sp(4) over GF(3), simple, as its own adjoint module (dimension 10)."""
    L = skew_adjoint_algebra(standard_symplectic_gram(GF(3), 4))
    return adjoint_module(L, L)


@pytest.mark.parametrize("make", [lambda: _so4_nonsquare_mod(5), _sp4_adjoint_gf3],
                         ids=["so4-mod5", "sp4-gf3"])
def test_certify_eliminates_each_f_theta_once(monkeypatch, make):
    # both null spaces of f(theta) come from one elimination of
    # [f(theta) reversed | I], f(theta) with its columns reversed: no kernel
    # call, and neither f(theta) nor its transpose is eliminated alone
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
                         and np.array_equal(X[..., :n], F.a[..., ::-1])
                         and np.array_equal(X[..., n:], eye)]
            assert len(augmented) == 1
            assert not any(np.array_equal(X, G) for X in inserted
                           for G in (F.a, F.a[..., ::-1], F.transpose().a))
        assert f_thetas and not kernels


def test_certify_budget_counts_draws_and_spins():
    # an irreducible module needs a draw, a spin and a dual spin: any smaller
    # budget runs out and raises, never answers "reducible"
    M = sl2_natural(GF(5))
    for budget in (1, 2):
        with pytest.raises(BudgetExceeded, match="budget exceeded on a 2-dimensional module"):
            certify_irreducible(M, budget=budget)
    assert certify_irreducible(M, budget=10).status == "irreducible"


def _so4_diag_1112_adjoint():
    L = skew_adjoint_algebra(Mat.diag(QQ, [Fraction(d) for d in (1, 1, 1, 2)]))
    return adjoint_module(L, L)


def test_irreducible_is_one_verdict_per_field():
    assert irreducible(sl2_natural(GF(5))) == (True, "spin certification")
    K = GF(3)
    gl2 = adjoint_module(sl_subspace(K, 2), gl_subspace(K, 2))
    assert irreducible(gl2)[0] is False
    sl2 = sl_subspace(QQ, 2)
    assert irreducible(adjoint_module(sl2, sl2), (3, 5)) == (True, "mod-p")


def test_irreducible_over_q_refuses_without_a_certifying_prime():
    # 2 is a square mod 7 and mod 17, so so(4) of diag(1,1,1,2) splits at
    # both: a reducible reduction is no verdict over Q
    with pytest.raises(ValueError, match="mod-p certification failed") as info:
        irreducible(_so4_diag_1112_adjoint(), [7, 17])
    assert not isinstance(info.value, BudgetExceeded)
    with pytest.raises(ValueError, match="needs primes"):
        irreducible(sl2_natural(QQ))


def test_spent_budget_is_no_verdict(monkeypatch):
    monkeypatch.setattr(repmod, "DEFAULT_BUDGET", 1)
    with pytest.raises(BudgetExceeded, match="budget exceeded on a 2-dimensional module"):
        irreducible(sl2_natural(GF(5)))
    with pytest.raises(BudgetExceeded, match="6-dimensional"):
        irreducible(_so4_diag_1112_adjoint(), [3, 7])


def test_composition_series_gl2_under_sl2():
    K = GF(3)
    L = sl_subspace(K, 2)
    M = adjoint_module(L, gl_subspace(K, 2))
    cs = composition_series(M)
    assert sorted(cs.factor_dims) == [1, 3]
    assert sorted(zip(cs.factor_dims, cs.factor_trivial)) == [(1, True), (3, False)]


def test_composition_series_gl2_char2():
    # scalars sit inside sl(2) in characteristic 2
    K = GF(2)
    L = sl_subspace(K, 2)
    M = adjoint_module(L, gl_subspace(K, 2))
    cs = composition_series(M)
    # ad is trivial on every factor here: [e, f] = I is scalar, so the
    # action on sl/scalars vanishes and everything splits into lines
    assert cs.factor_dims == [1, 1, 1, 1]
    assert all(cs.factor_trivial)


def test_composition_series_char0_candidate_chain():
    K = QQ
    L = sl_subspace(K, 2)
    M = adjoint_module(L, gl_subspace(K, 2))
    cs = composition_series(M, candidate_chain=[sl_subspace(K, 2)], mod_p_primes=(3, 5))
    assert cs.factor_dims == [3, 1]
    assert cs.factor_trivial == [False, True]


@pytest.mark.parametrize("K", [GF(2), GF(3), GF(3, 2)], ids=["gf2", "gf3", "gf9"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), index=st.integers(0, 42))
def test_free_series_is_a_composition_series(K, seed, index):
    # one of the 43 modules `_random_modules` draws from the seed
    M = next(itertools.islice(_random_modules(K, random.Random(seed)), index, None))
    cs = composition_series(M)
    chain = cs.chain
    assert (chain[0].dim, chain[-1].dim) == (0, M.dim)
    assert all(lo.dim < hi.dim and hi.contains(lo) for lo, hi in zip(chain, chain[1:]))
    assert all(invariant_under(U, M.stack) for U in chain)
    factors = [factor_module(M, lo, hi) for lo, hi in zip(chain, chain[1:])]
    assert all(certify_by_enumeration(F).status == "irreducible" for F in factors)
    assert cs.factor_dims == [F.dim for F in factors]
    assert cs.factor_trivial == [F.stack.is_zero() for F in factors]
    checked = composition_series(M, candidate_chain=chain)
    assert (checked.factor_dims, checked.factor_trivial) == (cs.factor_dims, cs.factor_trivial)


def _recording_certifications(monkeypatch):
    """The modules `certify_irreducible` and `trivial_actions` receive inside
    repmod, in order (the objects themselves)."""
    certified, read = [], []
    certify, trivial = repmod.certify_irreducible, repmod.trivial_actions
    monkeypatch.setattr(repmod, "certify_irreducible",
                        lambda M, *a, **k: certified.append(M) or certify(M, *a, **k))
    monkeypatch.setattr(repmod, "trivial_actions", lambda M: read.append(M) or trivial(M))
    return certified, read


def _finite_gl_modules():
    return [M for M, _ in _gl_modules() if M.field.order() is not None]


def test_free_series_reports_the_modules_it_certified(monkeypatch):
    # each factor is read off the very object certified irreducible: no pass
    # rebuilds the factors of the chain found
    certified, read = _recording_certifications(monkeypatch)
    for M in _finite_gl_modules():
        certified.clear(), read.clear()
        cs = composition_series(M)
        assert len(read) == cs.n_factors >= 2
        assert all(any(F is C for C in certified) for F in read)
        assert len(certified) == 2 * cs.n_factors - 1  # each split: two pieces


def test_free_series_certifies_M_itself_first(monkeypatch):
    certified, _ = _recording_certifications(monkeypatch)
    for M in _finite_gl_modules():
        certified.clear()
        composition_series(M)
        assert certified[0] is M


def test_restrict_quotient_dims_and_brackets():
    K = GF(5)
    L = sl_subspace(K, 2)
    M = adjoint_module(L, gl_subspace(K, 2))
    U = sl_subspace(K, 2)
    sub = restrict_module(M, U)
    quo = quotient_module(M, U)
    assert sub.dim == 3 and quo.dim == 1
    struct = _sl2_structure(L)
    assert respects_brackets(M, struct)
    assert respects_brackets(sub, struct)
    assert respects_brackets(quo, struct)


def _sl2_structure(L):
    """The structure constants of L on its canonical basis, one bracket at a
    time."""
    mats = L.matrices(2, 2)
    table = Mat(L.field, [coords_by_scalars(L, bracket(x, y).vec()) for x in mats for y in mats])
    return StructureConstants(L.field, table)


@pytest.mark.parametrize("K", [GF(5), GF(3, 2), QQ], ids=lambda K: K.token)
def test_respects_brackets_refuses_a_wrong_table_or_generator(K):
    # h(1) on its truncated polynomial module, or over Q sl(2) on gl(2)
    if K.char:
        struct, V = heisenberg(K, 1), heisenberg_poly_module(K, 1, K.one())
    else:
        L = sl_subspace(K, 2)
        struct, V = _sl2_structure(L), adjoint_module(L, gl_subspace(K, 2))
    assert respects_brackets(V, struct)
    # one more e_0 in [e_0, e_1]
    q, T = struct.dim, struct.table
    wrong = StructureConstants(K, T + Mat.unit(K, q * q, q, 1, 0))
    assert not respects_brackets(V, wrong)
    # the first generator doubled: [2 e_0, e_1] has twice the table's value
    gens = [a.scale(K.of(2)) if i == 0 else a for i, a in enumerate(V.action_mats())]
    assert not respects_brackets(LieModule(K, V.count, stacked(K, V.dim, gens)), struct)


def test_is_simple_examples():
    assert is_simple(sl_subspace(GF(3), 2))
    assert not is_simple(gl_subspace(GF(3), 2))
    assert not is_simple(sl_subspace(GF(2), 2))
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
    T = hv.matrices(dual.dim, V.dim)[0]
    for a, ad in zip(V.action_mats(), dual.action_mats()):
        assert T @ a == ad @ T


def test_module_refuses_a_stack_of_the_wrong_shape():
    # the second argument is the generator count: a stack of three 2 x 2
    # generators read as two of them, or with a dim in its place, is refused
    K = GF(5)
    V = sl2_natural(K)
    for count in (2, V.dim + 2, 0):
        with pytest.raises(ValueError, match="stack rows"):
            LieModule(K, count, V.stack)
    with pytest.raises(ValueError, match="stack rows"):
        LieModule(K, 1, Mat.zeros(K, 2, 3))
    assert LieModule(K, 3, V.stack).stack is V.stack
    assert LieModule(K, 2, Mat.zeros(K, 0, 0)).dim == 0
    assert LieModule(K, 0, Mat.zeros(K, 0, 3)).dim == 3


def test_hom_space_refuses_different_generator_counts():
    # generators are paired by position, so both modules need as many
    K = GF(5)
    V = sl2_natural(K)
    fewer = LieModule(K, 2, V.stack[:4, :])
    with pytest.raises(ValueError, match="generator counts must match"):
        hom_space(V, fewer)


def test_weights_sl2_natural():
    h = Mat.diag(QQ, [Fraction(1), Fraction(-1)])
    table = weights([h])
    assert sorted(table) == [((Fraction(-1),), 1), ((Fraction(1),), 1)]


def test_weights_read_any_rational_entry():
    # the weights are the diagonal entries, so no window of eigenvalues is tried
    V = LieModule(QQ, 1, Mat.diag(QQ, [Fraction(7), Fraction(0)]))
    assert weights(V.action_mats()) == [((Fraction(0),), 1), ((Fraction(7),), 1)]


@pytest.mark.parametrize("K", [GF(5), GF(7), GF(3, 2)], ids=["gf5", "gf7", "gf9"])
def test_weights_over_finite_fields_in_element_order(K):
    # a diagonal h with repeated entries: the table lists each entry once, in
    # the order of K.elements(); its conjugate P D P^-1, not diagonal for
    # these seeds, is refused
    rng = random.Random(50 + K.order())
    n = 5
    for _ in range(5):
        diag = [rng.choice(K.elements()[:4]) for _ in range(n)]
        table = weights([Mat.diag(K, diag)])
        assert table == [((lam,), diag.count(lam)) for lam in K.elements() if lam in diag]
        while True:
            P = Mat(K, [[K.random(rng) for _ in range(n)] for _ in range(n)])
            if not K.is_zero(P.det()):
                break
        h = P @ Mat.diag(K, diag) @ P.inv()
        with pytest.raises(ValueError, match="weight family must be diagonal"):
            weights([h])


def test_weights_take_no_charpoly_and_no_kernel(monkeypatch):
    from lieclassical import linalg

    def refuse(*args, **kwargs):
        raise AssertionError("weights must read the diagonal")

    monkeypatch.setattr(linalg, "charpoly", refuse)
    monkeypatch.setattr(linalg, "kernel", refuse)
    monkeypatch.setattr(repmod, "charpoly", refuse)
    monkeypatch.setattr(repmod, "kernel", refuse)
    K = GF(7)
    H = [Mat.diag(K, [1, 6, 0, 1]), Mat.diag(K, [2, 2, 0, 2])]
    assert weights(H) == [((0, 0), 1), ((1, 2), 2), ((6, 2), 1)]


def test_weights_adjoint_sl2():
    K = QQ
    L = sl_subspace(K, 2)
    M = adjoint_module(L, L)
    # find the coordinate matrix of ad(h) inside the module generators
    hmat = None
    for a, x in zip(M.action_mats(), L.matrices(2, 2)):
        if x == Mat.diag(K, [Fraction(1), Fraction(-1)]):
            hmat = a
    # basis of sl(2) from RREF need not contain h exactly; build ad(h) directly
    if hmat is None:
        h = Mat.diag(K, [Fraction(1), Fraction(-1)])
        cols = [coords_by_scalars(L, bracket(h, y).vec()) for y in L.matrices(2, 2)]
        hmat = Mat(K, [[cols[j][i] for j in range(3)] for i in range(3)])
    table = weights([hmat])
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
        ts = tensor_square(classify(J))
        for x in L.matrices(4, 4):
            act = tensor_action_by_kron(x)
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
    ts = tensor_square(classify(J))
    M = self_adjoint_module(J)
    assert gamma_image(ts, ts.alt, M) == M
    assert gamma_image(ts, ts.sym, L) == L
    # compared with a subspace it is not (of another dimension, or of the
    # same one), the image is still its own canonical basis
    assert gamma_image(ts, ts.alt, L) == M
    assert ts.sym != L and gamma_image(ts, ts.sym, ts.sym) == L


def test_tensor_square_delta_char2():
    K = GF(2)
    J = standard_symplectic_gram(K, 4)
    ts = tensor_square(classify(J))
    assert ts.delta is not None
    # delta reads off the form: on v (x) w + w (x) v it gives f(v, w)
    t = Mat.unit(K, 4, 4, 0, 2) + Mat.unit(K, 4, 4, 2, 0)
    assert matvec(ts.delta, t.vec()) == [K.one()]


def test_star_map_example():
    K = GF(5)
    s = (Mat.unit(K, 4, 4, 0, 1) - Mat.unit(K, 4, 4, 1, 0)).reshape(1, 16)
    out = star_map(s)
    assert out == (Mat.unit(K, 4, 4, 2, 3) - Mat.unit(K, 4, 4, 3, 2)).reshape(1, 16)
    assert star_map(out) == s


@pytest.mark.parametrize("K", [GF(3), GF(5), GF(3, 2), QQ], ids=lambda K: K.token)
def test_star_map_on_rows_matches_each_matrix_and_is_an_involution(K):
    rng = random.Random(50)
    upper = [Mat(K, [[K.random(rng) if j > i else K.zero() for j in range(4)]
                     for i in range(4)]) for _ in range(7)]
    alternating = [u - u.transpose() for u in upper]
    X = Mat.from_blocks([[s.reshape(1, 16)] for s in alternating])
    stars = star_map(X)
    assert stars == Mat.from_blocks([[star_by_scalars(s).reshape(1, 16)] for s in alternating])
    assert star_map(stars) == X
    assert star_map(Mat.zeros(K, 0, 16)) == Mat.zeros(K, 0, 16)


def test_star_map_refuses_characteristic_2_and_other_sizes():
    with pytest.raises(ValueError, match="characteristic != 2"):
        star_map(Mat.zeros(GF(2), 1, 16))
    with pytest.raises(ValueError, match="rows of 4x4 matrices"):
        star_map(Mat.zeros(GF(5), 4, 4))


def _equivariant_by_generators(T, M1, M2):
    """Reference: T a = b T, one pair of generators at a time."""
    return all(T @ a == b @ T for a, b in zip(M1.action_mats(), M2.action_mats()))


@pytest.mark.parametrize("K", [GF(2), GF(5), GF(3, 2), QQ], ids=lambda K: K.token)
def test_equivariant_matches_a_per_generator_loop(K):
    # gl(2) acting on itself and on gl(2)/sl(2); the trace row vec(I)' maps
    # gl(2) onto the trivial quotient, and X -> tr(X) I is singular
    gl = gl_subspace(K, 2)
    M = adjoint_module(gl, gl)
    quo = quotient_module(M, sl_subspace(K, 2))
    trace = Mat.identity(K, 2).reshape(1, 4)
    rng = random.Random(51)
    generic = Mat(K, [[K.random(rng) for _ in range(4)] for _ in range(4)])
    cases = [(Mat.identity(K, 4), M, M, True), (Mat.zeros(K, 4, 4), M, M, True),
             (trace.transpose() @ trace, M, M, True), (trace, M, quo, True),
             (generic, M, M, False), (Mat.unit(K, 4, 4, 0, 1), M, M, False),
             (Mat.unit(K, 1, 4, 0, 1), M, quo, False)]
    for T, M1, M2, expected in cases:
        assert _equivariant_by_generators(T, M1, M2) is expected
        assert equivariant(T, M1, M2) is expected
    # no generators: every map is equivariant; generators pair by position
    empty = LieModule(K, 0, Mat.zeros(K, 0, 4))
    assert equivariant(generic, empty, empty)
    with pytest.raises(ValueError, match="generator counts must match"):
        equivariant(generic, M, empty)


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


def test_representation_kernel_refuses_a_partial_generator_set():
    # a module on one generator fewer than dim h(1) would check only part of
    # the algebra, so it is refused rather than read as faithful
    K = GF(3)
    h = heisenberg(K, 1)
    V = heisenberg_poly_module(K, 1, K.one())
    partial = LieModule(K, h.dim - 1, V.stack[: (h.dim - 1) * V.dim, :])
    with pytest.raises(ValueError, match="one generator per basis element"):
        representation_kernel(partial, h)


def _reference_restrict(M, U):
    """Generators on U from coordinates of A u, one basis vector at a time."""
    return [
        op_matrix(M.field, U.dim, U.dim, lambda c, A=A: coords_by_scalars(U, matvec(A, lift_by_scalars(U, c))))
        for A in M.action_mats()
    ]


def quotient_lift(U: Subspace, C: Mat) -> Mat:
    """Canonical preimages in the ambient of the quotient coordinate rows of
    C: C's columns at U's non-pivot positions, zero at its pivots."""
    return C @ Mat.identity(U.field, U.ambient)[U.nonpivots(), :]


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
            yield M, [L, self_adjoint_module(gram), gl_subspace(K, gram.nrows)]


def test_surgery_matches_reference_on_spun_submodules():
    rng = random.Random(40)
    proper = 0
    for M, pieces in _gl_modules():
        K = M.field
        for _ in range(6):
            piece = rng.choice(pieces)
            seeds = Mat(K, [[K.random(rng) for _ in range(piece.dim)]
                            for _ in range(rng.randint(1, 2))]) @ piece.basis
            U = spin(M, seeds)
            proper += 0 < U.dim < M.dim
            sub, quo = restrict_module(M, U), quotient_module(M, U)
            assert sub.count == quo.count == M.count
            assert sub.action_mats() == _reference_restrict(M, U)
            assert quo.action_mats() == _reference_quotient(M, U)
    assert proper >= 10


def test_non_invariant_subspace_refused():
    rng = random.Random(41)
    for M, _ in _gl_modules():
        K = M.field
        while True:
            S = span_rows(K, M.dim, [[K.random(rng) for _ in range(M.dim)]])
            if S.dim and not all(invariant_under(S, a) for a in M.action_mats()):
                break
        with pytest.raises(ValueError, match="subspace is not invariant"):
            restrict_module(M, S)
        with pytest.raises(ValueError, match="candidate chain term is not invariant"):
            composition_series(M, candidate_chain=[S])


def _old_factor(M, lo, hi):
    """hi/lo by the previous path: restrict M to all of hi (the coordinates
    of the image of every basis row), then take the quotient by lo in hi's
    coordinates, eliminated once more."""
    if hi.dim == M.dim:
        return quotient_module(M, lo)
    gens = [hi.coords_of(hi.basis @ A.transpose()).transpose() for A in M.action_mats()]
    sub = LieModule(M.field, M.count, stacked(M.field, hi.dim, gens))
    return quotient_module(sub, Subspace.span(hi.coords_of(lo.basis))) if lo.dim else sub


@pytest.mark.parametrize("run", [lambda: verify.run_thm_1_1(8),
                                 lambda: verify.run_thm_1_3(6, GF(5)),
                                 lambda: verify.run_thm_1_3(4, QQ)],
                         ids=["thm1.1-gf2-m8", "thm1.3-gf5-m6", "thm1.3-q-m4"])
def test_factor_module_matches_restrict_then_quotient(monkeypatch, run):
    # every factor of the canonical chains (and of the free series and the
    # restrictions) equals the one restricting to all of hi first
    calls, factor = [], repmod.factor_module
    for module in (repmod, verify):
        monkeypatch.setattr(module, "factor_module", lambda M, lo, hi: calls.append(
            (M, lo, hi, factor(M, lo, hi))) or calls[-1][-1])
    assert run().passed
    between = 0
    for M, lo, hi, F in calls:
        ref = _old_factor(M, lo, hi)
        assert (F.dim, F.count, F.action_mats()) == (ref.dim, ref.count, ref.action_mats())
        between += 0 < lo.dim and hi.dim < M.dim
    assert between >= 1 and len(calls) >= 4


def test_non_invariant_term_above_an_invariant_one_refused():
    # lo = s is invariant; hi = s + a random line is not, which the images of
    # hi's rows above lo alone must show
    rng = random.Random(43)
    for M, _ in _gl_modules():
        K = M.field
        lo = scalars_subspace(K, math.isqrt(M.dim))
        while True:
            hi = lo + span_rows(K, M.dim, [[K.random(rng) for _ in range(M.dim)]])
            if hi.dim == 2 and not invariant_under(hi, M.stack):
                break
        with pytest.raises(ValueError, match="subspace is not invariant"):
            factor_module(M, lo, hi)
        if K.order() is not None:
            with pytest.raises(ValueError, match="candidate chain term is not invariant"):
                composition_series(M, candidate_chain=[lo, hi])


@pytest.mark.parametrize("K", [GF(2), GF(5), GF(3, 2), QQ], ids=lambda K: K.token)
def test_known_rref_constructors_and_factors_eliminate_nothing(monkeypatch, K):
    from lieclassical import linalg

    L = skew_adjoint_algebra(standard_symplectic_gram(K, 4))
    M = adjoint_module(L, gl_subspace(K, 4))
    s = scalars_subspace(K, 4)
    hi = s + L
    C = Subspace.span(Mat.identity(K, hi.dim)[[0, hi.dim - 1], :])

    def refuse(self, X):
        raise AssertionError("eliminated")

    monkeypatch.setattr(linalg.EchelonGFp, "add", refuse)
    monkeypatch.setattr(linalg.Echelon, "add", refuse)
    assert hi.coords_subspace(hi.lift_subspace(C)) == C
    assert hi.contains(hi.lift_subspace(C)) and hi.coords_subspace(s).dim == 1
    assert factor_module(M, s, hi).dim == hi.dim - 1
    assert factor_module(M, s, gl_subspace(K, 4)).dim == 15
    assert restrict_module(M, hi).dim == hi.dim


@pytest.mark.parametrize("K", [GF(2), GF(5), GF(3, 2), QQ], ids=lambda K: K.token)
def test_dual_module_negates_each_transpose(K):
    L = skew_adjoint_algebra(Mat.diag(K, [K.one(), K.one(), K.of(3)]))
    M = adjoint_module(L, gl_subspace(K, 3))
    dual = dual_module(M)
    assert dual.count == M.count
    assert dual.action_mats() == [-a.transpose() for a in M.action_mats()]


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
        gens.append(G)
    M = LieModule(K, 2, stacked(K, n, gens))
    seed = matvec(P, [K.random(rng) for _ in range(4)] + [0] * 4)
    ref = ScalarEchelon(K, n)
    frontier = [seed] if ref.add(seed) else []
    while frontier:
        images = [matvec(G, v) for v in frontier for G in M.action_mats()]
        frontier = [w for w in images if ref.add(w)]
    assert 0 < ref.dim <= 4
    assert spin(M, Mat(K, [seed])) == ref.subspace()


def test_restrict_to_zero_subspace():
    for K in (QQ, GF(3, 2), GF(5)):
        M = adjoint_module(sl_subspace(K, 2), gl_subspace(K, 2))
        R = restrict_module(M, Subspace.zero(K, 4))
        assert R.dim == 0
        assert R.count == M.count
        assert all(a.rows == [] for a in R.action_mats())


@pytest.mark.parametrize("K", [GF(3, 2), GF(5, 2), GF(5)], ids=["gf9", "gf25", "gf5"])
def test_random_element_matches_scalar_combinations(K):
    M = adjoint_module(sl_subspace(K, 3), gl_subspace(K, 3))
    mats = M.action_mats()
    for seed in range(4):
        rng = random.Random(seed)
        coeffs = [[K.random(rng) for _ in mats] for _ in range(3)]
        x, y, z = (functools.reduce(Mat.__add__, map(Mat.scale, mats, cs)) for cs in coeffs)
        assert _random_element(M, random.Random(seed)) == x @ y + z


def test_adjoint_module_refuses_a_non_invariant_ambient():
    for K in (QQ, GF(3, 2), GF(5)):
        L = sl_subspace(K, 2)
        # the diagonal matrices: [e, h] is a multiple of e, which leaves them
        diag = span_rows(K, 4, [Mat.unit(K, 2, 2, i, i).vec() for i in range(2)])
        with pytest.raises(ValueError, match="ambient subspace is not ad-invariant"):
            adjoint_module(L, diag)


def _reference_adjoint(L, ambient):
    """ad action of L's basis on an ad-invariant subspace of gl(m): one bracket
    per pair of basis element and ambient vector, read off in its coordinates."""
    K, m = L.field, math.isqrt(L.ambient)
    ws = ambient.matrices(m, m)
    return [Mat(K, [coords_by_scalars(ambient, bracket(x, w).vec()) for w in ws]).transpose()
            for x in L.matrices(m, m)]


@pytest.mark.parametrize("K", [GF(2), GF(3), GF(3, 2), QQ], ids=["gf2", "gf3", "gf9", "q"])
def test_adjoint_module_matches_bracket_reference(K):
    for gram in (standard_symplectic_gram(K, 4), Mat.diag(K, [K.one()] * 3)):
        L = skew_adjoint_algebra(gram)
        M = self_adjoint_module(gram)
        m = gram.nrows
        for ambient in (gl_subspace(K, m), L, M, M.intersect(sl_subspace(K, m))):
            mod = adjoint_module(L, ambient)
            assert mod.dim == ambient.dim
            assert mod.action_mats() == _reference_adjoint(L, ambient)


@pytest.mark.parametrize("K", [GF(3), GF(3, 2)], ids=["gf3", "gf9"])
def test_generator_free_module(K):
    M = LieModule(K, 0, Mat.zeros(K, 0, 2))
    assert _random_element(M, random.Random(0)) == Mat.zeros(K, 2, 2)
    assert hom_space(M, M) == Subspace.full(K, 4)
    assert certify_irreducible(M).status == "reducible"
    cs = composition_series(M)
    assert (cs.factor_dims, cs.factor_trivial) == ([1, 1], [True, True])


@pytest.mark.parametrize("n", [4, 11, 12])
def test_restrict_to_sl_selects_by_position(n):
    # generator i n + j of the family is e_ij, also for two-digit indices
    K = GF(3)
    Zsl = restrict_to_sl(conjugation_modules(n, K)[0], n, K)
    # the generators act as e_ij (i != j), then e_ii - e_nn, on s -> x s + s x'
    eye = Mat.identity(K, n * n)
    off = eye[[k for k in range(n * n) if k // n != k % n], :]
    h = eye[[i * (n + 1) for i in range(n - 1)], :] - eye[[n * n - 1] * (n - 1), :]
    X = Mat.from_blocks([[off], [h]])
    assert Subspace.span(X) == sl_subspace(K, n)
    assert Zsl.stack == kron_sum_stack(X, X, 1)


@pytest.mark.parametrize("K", [GF(5), QQ], ids=lambda K: K.token)
def test_non_nested_chain_refused(K):
    # s and sl are invariant and rise in dimension, but s is not in sl (3 is
    # a unit): the chain is not ascending, whatever the terms' invariance
    M = adjoint_module(sl_subspace(K, 3), gl_subspace(K, 3))
    with pytest.raises(ValueError, match="chain is not strictly ascending"):
        composition_series(M, candidate_chain=[scalars_subspace(K, 3), sl_subspace(K, 3)],
                           mod_p_primes=(5, 7))


def test_chain_links_are_tested_for_containment_once(monkeypatch):
    # factor_module's coordinates of lo in hi are each link's one containment
    # test; Subspace.contains only names the fault of a refused link
    K = GF(5)
    M = adjoint_module(sl_subspace(K, 5), gl_subspace(K, 5))
    monkeypatch.setattr(Subspace, "contains", lambda self, other: pytest.fail("tested twice"))
    cs = composition_series(M, candidate_chain=[scalars_subspace(K, 5), sl_subspace(K, 5)])
    assert cs.factor_dims == [1, 23, 1]
