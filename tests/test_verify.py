"""Theorem runners: every claim of each report should pass."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lieclassical import repmod, verify
from lieclassical.cli import main
from lieclassical.fields import GF, QQ
from lieclassical.liealg import (
    derived_series,
    gl_subspace,
    self_adjoint_module,
    skew_adjoint_algebra,
    sl_subspace,
)
from lieclassical.linalg import Mat
from lieclassical.repmod import adjoint_module, quotient_module, restrict_module
from line_enumeration import all_submodules_by_enumeration


def failing(rep):
    return [(c.label, c.expected, c.computed) for c in rep.claims if not c.passed]


def test_thm_1_1_m4():
    rep = verify.run_thm_1_1(4)
    assert failing(rep) == []
    labels = [c.label for c in rep.claims]
    assert "factor count" in labels
    assert "s in L^(2) iff 4|m" in labels


def test_thm_1_1_m2_small_case():
    rep = verify.run_thm_1_1(2)
    assert failing(rep) == []
    assert any(c.label == "L = h(1)" for c in rep.claims)


def test_thm_1_1_rejects_odd_m():
    with pytest.raises(ValueError):
        verify.run_thm_1_1(5)


def test_thm_1_2_m4_dichotomy():
    rep = verify.run_thm_1_2(4)
    assert failing(rep) == []
    # identity form has square discriminant over GF(2), so the runner
    # walks the S + R structure of Prop 10.2
    labels = [c.label for c in rep.claims]
    assert "R is the only proper nonzero submodule" in labels
    assert "L^(1) irreducible as L-module" in labels


def test_thm_1_2_m3():
    rep = verify.run_thm_1_2(3)
    assert failing(rep) == []
    assert any(c.label == "L^(1) simple" for c in rep.claims)


def test_thm_1_3_gf5_m4():
    rep = verify.run_thm_1_3(4, GF(5))
    assert failing(rep) == []


def test_thm_1_3_m2():
    rep = verify.run_thm_1_3(2, GF(7))
    assert failing(rep) == []
    assert any(c.label == "M = s (m=2)" for c in rep.claims)


def test_thm_1_4_m4_square_disc_splits():
    # identity Gram has square discriminant: the top factor gl/M = so(4)
    # refines into two 3-dimensional pieces
    rep = verify.run_thm_1_4(4, GF(3))
    assert failing(rep) == []
    assert any(
        c.label == "gl/M splits (m=4, square discriminant)" for c in rep.claims
    )


def test_thm_1_4_m4_square_disc_splits_over_q():
    # discriminant 4, a square: over Q the ideals of so(4) come from the star map
    rep = verify.run_thm_1_4(4, QQ, [Fraction(d) for d in (1, 1, 2, 2)])
    assert failing(rep) == []
    split = [c for c in rep.claims if c.label == "gl/M splits (m=4, square discriminant)"]
    assert [c.computed for c in split] == [3]
    # so(4) splits at every prime, so "not simple" rests on the ideal over Q
    (dichotomy,) = [c for c in rep.claims if c.label == "m=4 dichotomy"]
    assert (dichotomy.computed, dichotomy.method) == (False, "so(4) ideal")


def test_simplicity_over_q_refused_without_witness():
    # 2 is a square mod 7 and mod 17, so so(4) of diag(1,1,1,2) splits at
    # both primes; it is simple over Q, and no ideal exists to say otherwise
    from lieclassical.linalg import Mat
    from lieclassical.liealg import skew_adjoint_algebra

    L = skew_adjoint_algebra(Mat.diag(QQ, [Fraction(d) for d in (1, 1, 1, 2)]))
    with pytest.raises(ValueError):
        verify._is_simple_certified(L, [7, 17])
    assert verify._is_simple_certified(L, [3, 7]) == (True, "mod-p")


def _thm_1_2_pieces(m):
    K = GF(2)
    L = skew_adjoint_algebra(Mat.identity(K, m))
    L1 = derived_series(L)[1]
    module = adjoint_module(L, gl_subspace(K, m))
    return L, L1, quotient_module(module, L.space), restrict_module(module, L1.space)


@pytest.mark.parametrize("m", range(2, 13))
def test_thm_1_2_symmetrizer_is_an_isomorphism(m):
    # X -> X + X' maps gl/L onto L^(1) and commutes with ad L
    L, L1, quo, sub = _thm_1_2_pieces(m)
    T = verify._symmetrizer(L.space, L1.space)
    assert (T.nrows, T.ncols) == (m * (m - 1) // 2, quo.dim)
    assert verify._intertwines(T, quo, sub)


def test_intertwines_rejects_singular_and_non_equivariant_maps():
    L, L1, quo, sub = _thm_1_2_pieces(5)
    T = verify._symmetrizer(L.space, L1.space)
    assert not verify._intertwines(Mat.zeros(GF(2), T.nrows, T.ncols), quo, sub)
    # L^(1) is simple for m = 5, so a row swap of T is invertible but no
    # longer intertwines
    swapped = T[[1, 0] + list(range(2, T.nrows)), :]
    assert not verify._intertwines(swapped, quo, sub)


SO4_SPLIT_FORMS = [
    (GF(3), [1, 1, 1, 1]), (GF(5), [1, 1, 1, 1]), (GF(7), [1, 1, 1, 1]),
    (GF(3, 2), [1, 1, 1, 1]), (GF(5, 2), [1, 1, 1, 1]),
    (GF(5), [1, 2, 2, 1]), (GF(7), [3, 5, 1, 1]),
    (QQ, [1, 1, 1, 1]), (QQ, [1, 1, 2, 2]), (QQ, [2, 3, 5, 30]),
]


@pytest.mark.parametrize("K,diag", SO4_SPLIT_FORMS,
                         ids=[f"{K.token}-{d}" for K, d in SO4_SPLIT_FORMS])
def test_so4_ideal_for_square_determinant(K, diag):
    A = Mat.diag(K, [K.of(d) for d in diag])
    L = skew_adjoint_algebra(A)
    ideal = verify._so4_ideal(L, A)
    assert ideal.dim == 3 and L.space.contains(ideal)
    assert adjoint_module(L, ideal).dim == 3  # [L, ideal] lies in the ideal


def test_so4_ideal_refused_for_non_square_determinant():
    A = Mat.diag(QQ, [Fraction(d) for d in (1, 1, 1, 2)])
    with pytest.raises(ValueError):
        verify._so4_ideal(skew_adjoint_algebra(A), A)


def test_thm_1_4_m5_simple():
    rep = verify.run_thm_1_4(5, GF(7))
    assert failing(rep) == []
    assert any(c.label == "L simple" for c in rep.claims)


def test_thm_1_4_char0():
    rep = verify.run_thm_1_4(5, QQ)
    assert failing(rep) == []
    methods = {c.method for c in rep.claims}
    assert "mod-p" in methods


def test_note_9_2_full_lattice():
    rep = verify.run_note_9_2()
    assert failing(rep) == []
    assert any(
        c.label == "11 proper nonzero submodules (s plus 10 graphs)"
        for c in rep.claims
    )


def test_note_9_2_lattice_takes_few_spins(monkeypatch):
    # the descent spins only inside the composition series; line enumeration
    # spun all 7,381 lines of the 5-dimensional module over GF(9)
    calls = []
    counted = repmod.spin

    def spin(*args, **kwargs):
        calls.append(1)
        return counted(*args, **kwargs)

    monkeypatch.setattr(repmod, "spin", spin)
    rep = verify.run_note_9_2()
    assert failing(rep) == []
    assert 0 < len(calls) <= 20


def _note_9_2_module(K):
    """Note 9.2's module M cap sl(3) for f = I, under ad of L(f)."""
    A = Mat.identity(K, 3)
    Msl = self_adjoint_module(A).intersect(sl_subspace(K, 3))
    return repmod.adjoint_module(skew_adjoint_algebra(A), Msl)


@pytest.mark.parametrize("K", [GF(7, 2), GF(11, 2)], ids=["gf49", "gf121"])
def test_note_9_2_module_is_simple_off_characteristic_3(K):
    # tr I = 3 is nonzero, so the scalars are not in sl(3) and M cap sl(3) is
    # simple; line enumeration would spin (q^5 - 1)/(q - 1) lines, 5.9 M at q = 49
    module = _note_9_2_module(K)
    assert module.dim == 5
    t0 = time.monotonic()
    subs = verify.all_submodules(module)
    assert time.monotonic() - t0 < 1.0
    assert [u.dim for u in subs] == [0, 5]


FIELDS = {"gf2": (GF(2), 4), "gf3": (GF(3), 4), "gf5": (GF(5), 4),
          "gf9": (GF(3, 2), 3), "gf25": (GF(5, 2), 3)}


@st.composite
def small_modules(draw, K, max_dim):
    """Modules of 0-2 generators: dense, block upper triangular, self-extensions
    [[A, X], [0, A]] (usually non-split) and zero actions.  The entries come
    from a drawn seed, so shrinking never zeroes a large module, whose lattice
    of all subspaces line enumeration could not close in time."""
    kind = draw(st.sampled_from(["dense", "triangular", "extension", "zero"]))
    count = draw(st.integers(0, 2) if kind in ("dense", "zero") else st.integers(1, 2))
    if kind == "zero" or count == 0:
        # every subspace is a submodule: keep to at most 31 lines
        q = K.order()
        max_dim = max(n for n in range(1, max_dim + 1) if (q**n - 1) // (q - 1) <= 31)
    if kind == "extension":
        d = draw(st.integers(1, max_dim // 2))
        n = 2 * d
    else:
        n = draw(st.integers(1, max_dim))
    split = draw(st.integers(1, n)) if kind == "triangular" else n
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    z = K.zero()

    def entry(i, j):
        if kind == "zero" or (i >= split and j < split):
            return z
        if kind == "extension" and (i >= d and j < d):
            return z
        return K.random(rng)

    gens = []
    for g in range(count):
        rows = [[entry(i, j) for j in range(n)] for i in range(n)]
        if kind == "extension":  # the same block A on both diagonal blocks
            for i in range(d):
                rows[d + i][d:] = rows[i][:d]
        gens.append((f"g{g}", Mat(K, rows)))
    return repmod.LieModule(K, n, gens)


@pytest.mark.parametrize("name", FIELDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_all_submodules_matches_line_enumeration(name, data):
    K, max_dim = FIELDS[name]
    M = data.draw(small_modules(K, max_dim))
    assert verify.all_submodules(M) == all_submodules_by_enumeration(M)


def test_all_submodules_on_prop_10_2_module(monkeypatch, capsys):
    # the lattice claim of Prop 10.2 (the adjoint module of L^(1) over GF(2))
    # agrees with line enumeration
    seen = []
    descent = verify.all_submodules

    def recording(M):
        subs = descent(M)
        seen.append((M, subs))
        return subs

    monkeypatch.setattr(verify, "all_submodules", recording)
    assert main(["verify:thm1.2", "--field", "2", "--m", "4"]) == 0
    capsys.readouterr()
    assert [M.dim for M, _ in seen] == [6]
    for M, subs in seen:
        assert subs == all_submodules_by_enumeration(M)
        assert [u.dim for u in subs] == [0, 3, 6]


def test_note_9_3():
    rep = verify.run_note_9_3()
    assert failing(rep) == []


def test_sl_series_char0():
    rep = verify.run_sl_series(3, QQ)
    assert failing(rep) == []


def test_sl_series_divisible_case():
    rep = verify.run_sl_series(3, GF(3))
    assert failing(rep) == []


def test_sl_series_excludes_2_2():
    with pytest.raises(ValueError):
        verify.run_sl_series(2, GF(2))


@pytest.mark.parametrize("K", [GF(2**31 - 1), GF(3037000493), GF(2**31 - 1, 2)],
                         ids=["p31", "pmax", "p31^2"])
def test_field_sqrt_over_large_fields(K):
    rng = random.Random(14)
    for _ in range(10):
        x = K.random(rng)
        root = verify._field_sqrt(K, K.mul(x, x))
        assert root in (x, K.neg(x))
    assert verify._field_sqrt(K, K.zero()) == K.zero()
    nonsquare = next(a for a in (K.random(rng) for _ in range(100)) if not K.is_square(a))
    assert verify._field_sqrt(K, nonsquare) is None


def test_sp_so_embedding_gf13():
    rep = verify.run_sp_so_embedding(2, GF(13))
    assert failing(rep) == []


def test_sl4_so6_gf7():
    rep = verify.run_sl4_so6(GF(7))
    assert failing(rep) == []
    assert any(c.label == "Hom_{sl(3)}(T, T*) = 0" for c in rep.claims)


def test_block_irreducibles():
    assert failing(verify.run_block_irreducibles(2, GF(5))) == []
    assert failing(verify.run_block_irreducibles(3, GF(3))) == []


def test_heisenberg_exceptional_case():
    rep = verify.run_heisenberg_cases(2, 2)
    assert failing(rep) == []
    labels = [c.label for c in rep.claims]
    assert "derived dims" in labels
    assert "R matches the polynomial module" in labels
    assert "U irreducible" in labels


def test_report_dict_schema():
    rep = verify.run_sl_series(2, GF(3))
    d = rep.to_dict()
    assert set(d) == {"case", "field", "m", "claims", "pass"}
    assert set(d["field"]) == {"char", "degree"}
    for claim in d["claims"]:
        assert set(claim) == {
            "label",
            "paper_ref",
            "expected",
            "computed",
            "pass",
            "method",
        }
    assert d["pass"] is True


def test_run_all_collects_errors():
    def boom():
        raise RuntimeError("nope")

    reports = verify.run_all([(boom, ())])
    assert len(reports) == 1
    assert not reports[0].passed
