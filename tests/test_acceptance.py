"""Acceptance criteria: one test per criterion, one pass/fail line each.

Criterion 2 asserts a unique nontrivial factor dimension of 43 for the
m = 10 alternating case and criterion 7 asserts that {s, X, Y} is the
complete submodule lattice of M0 over GF(9).  Both computations
reproducibly return different values (44, and an 11-member lattice), so
those two tests fail; the claims are asserted as stated on purpose.
"""

from __future__ import annotations

import itertools
import random
import time

from lieclassical import verify
from lieclassical.fields import GF, QQ
from lieclassical.forms import classify, standard_symplectic_gram
from lieclassical.liealg import (
    bracket,
    self_adjoint_module,
    skew_adjoint_algebra,
    sl_subspace,
)
from lieclassical.linalg import Mat, Subspace, matvec
from lieclassical.repmod import (
    LieModule,
    adjoint_module,
    certify_irreducible,
    hom_space,
    invariant_under,
    spin,
    tensor_square,
)
from line_enumeration import certify_by_enumeration
from scalar_reference import span_rows, stacked, tensor_action_by_kron, unvec


def report_line(capsys, num, ok, detail=""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_01_dimension_formulas(capsys):
    ok = True
    worst = 0.0
    for K in (GF(3), GF(5), QQ):
        for m in (2, 4, 6, 8, 10):
            t0 = time.monotonic()
            J = standard_symplectic_gram(K, m)
            L = skew_adjoint_algebra(J)
            M = self_adjoint_module(J)
            ok = ok and L.dim == m * (m + 1) // 2 and M.dim == m * (m - 1) // 2
            worst = max(worst, time.monotonic() - t0)
            ok = ok and worst < 1.0
    for m in (2, 4, 6, 8, 10):
        t0 = time.monotonic()
        J = standard_symplectic_gram(GF(2), m)
        ok = ok and skew_adjoint_algebra(J) == self_adjoint_module(J)
        worst = max(worst, time.monotonic() - t0)
        ok = ok and worst < 1.0
    report_line(capsys, 1, ok, f"max case time {worst:.2f}s")


def test_criterion_02_thm_1_1_grid(capsys):
    t0 = time.monotonic()
    expected_counts = {4: 10, 6: 10, 8: 14, 10: 14}
    expected_nontriv = {4: 4, 6: 14, 8: 26, 10: 43}
    problems = []
    for m in (4, 6, 8, 10):
        rep = verify.run_thm_1_1(m)
        got = {c.label: c for c in rep.claims}
        if got["factor count"].computed != expected_counts[m]:
            problems.append(f"m={m} count {got['factor count'].computed}")
        nd = got["nontrivial factor dims"].computed
        if nd != [expected_nontriv[m]] * 2:
            problems.append(f"m={m} nontrivial dims {nd}")
        simple_label = "L^(2)/s simple iff m>4" if m % 4 == 0 else "L^(2) simple"
        if not got[simple_label].passed:
            problems.append(f"m={m} simplicity")
        if not got["s in L^(2) iff 4|m"].passed:
            problems.append(f"m={m} scalar containment")
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 30.0
    report_line(capsys, 2, ok, "; ".join(problems) or f"{elapsed:.1f}s")


def test_criterion_03_thm_1_2_grid(capsys):
    t0 = time.monotonic()
    problems = []
    for m in (2, 3, 4, 5, 6):
        rep = verify.run_thm_1_2(m)
        got = {c.label: c for c in rep.claims}
        if got["factor count"].computed != m + 2:
            problems.append(f"m={m} count")
        if m in (3, 5, 6):
            if not (got["L^(1) simple"].passed and got["dim L^(1)"].computed == m * (m - 1) // 2):
                problems.append(f"m={m} simplicity")
        if m == 4 and not got["m=4 dichotomy"].passed:
            problems.append("m=4 dichotomy")
        if m >= 2 and not got["gl/L = L^(1) (hom witness)"].passed:
            problems.append(f"m={m} hom witness")
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 30.0
    report_line(capsys, 3, ok, "; ".join(problems) or f"{elapsed:.1f}s")


def test_criterion_04_thm_1_3_1_4_grids(capsys):
    t0 = time.monotonic()
    problems = []

    def run(rep, want_dims=None):
        got = {c.label: c for c in rep.claims}
        if not rep.passed:
            problems.append(f"{rep.case}: {[c.label for c in rep.claims if not c.passed]}")
            return got
        if want_dims is not None and got["factor dims"].computed != want_dims:
            problems.append(f"{rep.case}: dims {got['factor dims'].computed}")
        return got

    # symplectic: (m choose 2) - 1 / - 2 per the l | m dichotomy
    run(verify.run_thm_1_3(4, GF(3)), [5, 1, 10])
    run(verify.run_thm_1_3(10, GF(5)), [1, 43, 1, 55])
    for K in (GF(3), GF(5), GF(7), QQ):
        for m in (2, 4, 6):
            run(verify.run_thm_1_3(m, K))
    # orthogonal: (m+1 choose 2) - 1 / - 2 for m >= 4
    run(verify.run_thm_1_4(6, GF(3)), [1, 19, 1, 15])
    got = run(verify.run_thm_1_4(5, GF(7)), [14, 1, 10])
    if not (got and got["L simple"].passed and got["dim L"].computed == 10):
        problems.append("gf7 m=5 simplicity")
    run(verify.run_thm_1_4(9, GF(3)), [1, 43, 1, 36])
    run(verify.run_thm_1_4(10, GF(3)), [54, 1, 45])
    for K in (GF(3), GF(5), GF(7), QQ):
        for m in (4, 5, 6):
            rep = verify.run_thm_1_4(m, K)
            got = run(rep)
            if K is QQ:
                simple = [c for c in rep.claims if c.label == "L simple"]
                if simple and simple[0].method != "mod-p":
                    problems.append(f"{rep.case}: unlabeled char-0 certificate")
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 120.0
    report_line(capsys, 4, ok, "; ".join(problems) or f"{elapsed:.1f}s")


def test_criterion_05_sp4_so5(capsys):
    t0 = time.monotonic()
    rep = verify.run_sp_so_embedding(2, GF(13))
    got = {c.label: c for c in rep.claims}
    elapsed = time.monotonic() - t0
    ok = rep.passed and got["dim L(G)"].computed == 10 and elapsed < 5.0
    report_line(capsys, 5, ok, f"{elapsed:.1f}s")


def test_criterion_06_sl4_so6(capsys):
    t0 = time.monotonic()
    rep = verify.run_sl4_so6(GF(7))
    got = {c.label: c for c in rep.claims}
    elapsed = time.monotonic() - t0
    ok = (
        rep.passed
        and got["dim sl(4) = dim L(G) = 15"].passed
        and got["Hom_{sl(3)}(T, T*) = 0"].computed == 0
        and elapsed < 5.0
    )
    report_line(capsys, 6, ok, f"{elapsed:.1f}s")


def _gf9(K, x, i):
    return i if x == "i" else K.of(x)


def test_criterion_07_small_case_lattices(capsys):
    t0 = time.monotonic()
    # Note 9.2 over GF(9): the criterion demands that {s, X, Y} is the
    # complete set of proper nonzero submodules of M0
    K = GF(3, 2)
    i = (0, 1)
    A = Mat.identity(K, 3)
    L = skew_adjoint_algebra(A)
    Msl = self_adjoint_module(A).intersect(sl_subspace(K, 3))
    module = adjoint_module(L, Msl)

    def mk(rows):
        return Mat(K, [[_gf9(K, x, i) for x in row] for row in rows])

    eye = Mat.identity(K, 3)
    X = verify.span_in(Msl, [eye, mk([[0, 0, 0], [0, 1, "i"], [0, "i", -1]]),
                             mk([[0, "i", -1], ["i", 0, 0], [-1, 0, 0]])])
    Y = verify.span_in(Msl, [eye, mk([[0, 0, 0], [0, -1, "i"], [0, "i", 1]]),
                             mk([[0, "i", 1], ["i", 0, 0], [1, 0, 0]])])
    s = verify.span_in(Msl, [eye])
    proper92 = [u for u in verify.all_submodules(module) if 0 < u.dim < module.dim]
    note92_ok = sorted([s, X, Y], key=lambda u: (u.dim, u.basis.rows)) == proper92

    # Note 9.3 over GF(5)
    K5 = GF(5)
    i5 = 2
    A5 = Mat.identity(K5, 2)
    L5 = skew_adjoint_algebra(A5)
    Msl5 = self_adjoint_module(A5).intersect(sl_subspace(K5, 2))
    module5 = adjoint_module(L5, Msl5)
    Fx = verify.span_in(Msl5, [Mat(K5, [[1, i5], [i5, K5.neg(1)]])])
    Fy = verify.span_in(Msl5, [Mat(K5, [[K5.neg(1), i5], [i5, 1]])])
    proper93 = [u for u in verify.all_submodules(module5) if 0 < u.dim < module5.dim]
    note93_ok = sorted([Fx, Fy], key=lambda u: (u.dim, u.basis.rows)) == proper93

    elapsed = time.monotonic() - t0
    ok = note92_ok and note93_ok and elapsed < 10.0
    detail = f"{elapsed:.1f}s"
    if not note92_ok:
        detail = f"note 9.2 lattice has {len(proper92)} members, not 3"
    report_line(capsys, 7, ok, detail)


def test_criterion_08_heisenberg_suite(capsys):
    t0 = time.monotonic()
    problems = []
    for n, ell in ((1, 2), (1, 3), (2, 2), (2, 3)):
        rep = verify.run_heisenberg_cases(n, ell)
        got = {c.label: c for c in rep.claims}
        if not rep.passed:
            problems.append(f"({n},{ell})")
            continue
        if got["dim = l^n"].computed != ell**n:
            problems.append(f"({n},{ell}) dim")
        if (n, ell) == (2, 2):
            if got["derived dims"].computed != [10, 6, 5, 1, 0]:
                problems.append("derived dims")
            if not got["R(L) is 5-dimensional"].passed:
                problems.append("R(L) dim")
            if not got["U irreducible"].passed:
                problems.append("U")
    # L/L^(2) = h(2) by structure constants, from the alternating m=4 runner
    rep11 = verify.run_thm_1_1(4)
    got11 = {c.label: c for c in rep11.claims}
    if not got11["L/L^(2) = h(n)"].passed:
        problems.append("h(2) quotient")
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 30.0
    report_line(capsys, 8, ok, "; ".join(problems) or f"{elapsed:.1f}s")


PROPERTY_FIELDS = (GF(2), GF(3), GF(5), QQ)
TRIALS = 200


def _rand_mat(K, rng, r, c):
    return Mat(K, [[K.random(rng) for _ in range(c)] for _ in range(r)])


def test_criterion_09_property_suites(capsys):
    failures = []
    for K in PROPERTY_FIELDS:
        rng = random.Random(hash((K.char, K.degree)) & 0xFFFF)
        # trace form invariance: tr([z,x]y) + tr(x[z,y]) = 0
        for _ in range(TRIALS):
            x, y, z = (_rand_mat(K, rng, 3, 3) for _ in range(3))
            lhs = (bracket(z, x) @ y).trace()
            rhs = (x @ bracket(z, y)).trace()
            if not K.is_zero(K.add(lhs, rhs)):
                failures.append(f"phi invariance over {K.token}")
                break
        # Gamma / Omega equivariance on the tensor square
        J = standard_symplectic_gram(K, 4)
        L = skew_adjoint_algebra(J)
        ts = tensor_square(classify(J))
        mats = L.matrices(4, 4)
        acts = [tensor_action_by_kron(x) for x in mats]
        for _ in range(TRIALS):
            idx = rng.randrange(len(acts))
            t = [K.random(rng) for _ in range(16)]
            moved = matvec(acts[idx], t)
            gt = unvec(K, matvec(ts.gamma, t), 4, 4)
            if matvec(ts.gamma, moved) != bracket(mats[idx], gt).vec():
                failures.append(f"Gamma equivariance over {K.token}")
                break
            if not K.is_zero(matvec(ts.omega, moved)[0]):
                failures.append(f"Omega equivariance over {K.token}")
                break
        # RREF canonicity: row-equivalent matrices share one canonical basis
        for _ in range(TRIALS):
            A = _rand_mat(K, rng, 3, 4)
            while True:
                M = _rand_mat(K, rng, 3, 3)
                if not K.is_zero(M.det()):
                    break
            S1 = span_rows(K, 4, [list(r) for r in A.rows])
            S2 = span_rows(K, 4, [list(r) for r in (M @ A).rows])
            S3 = span_rows(K, 4, S1.basis.rows)
            if not (S1 == S2 == S3):
                failures.append(f"rref canonicity over {K.token}")
                break
        # spin idempotence
        for _ in range(TRIALS):
            mod = LieModule(K, 2, stacked(K, 3, [_rand_mat(K, rng, 3, 3),
                                                 _rand_mat(K, rng, 3, 3)]))
            S = spin(mod, Mat(K, [[K.random(rng) for _ in range(3)]]))
            if spin(mod, S.basis) != S:
                failures.append(f"spin idempotence over {K.token}")
                break
        # hom_space members intertwine
        for _ in range(TRIALS):
            g1 = [_rand_mat(K, rng, 2, 2), _rand_mat(K, rng, 2, 2)]
            g2 = [_rand_mat(K, rng, 2, 2), _rand_mat(K, rng, 2, 2)]
            V1, V2 = LieModule(K, 2, stacked(K, 2, g1)), LieModule(K, 2, stacked(K, 2, g2))
            H = hom_space(V1, V2)
            for T in H.matrices(V2.dim, V1.dim):
                for a1, a2 in zip(g1, g2):
                    if T @ a1 != a2 @ T:
                        failures.append(f"hom intertwining over {K.token}")
    report_line(capsys, 9, not failures, "; ".join(sorted(set(failures))))


def _all_subspaces(K, n):
    """Every subspace of K^n, by closing spans of all small vector subsets."""
    vecs = [list(v) for v in itertools.product(K.elements(), repeat=n)]
    vecs = [v for v in vecs if any(not K.is_zero(a) for a in v)]
    seen = {}
    zero = Subspace.zero(K, n)
    seen[zero] = zero
    for size in range(1, n + 1):
        for combo in itertools.combinations(vecs, size):
            S = span_rows(K, n, list(combo))
            seen.setdefault(S, S)
    return list(seen.values())


def test_criterion_10_oracle_equivalence(capsys):
    problems = []
    cases = [(GF(2), (1, 2, 3, 4), 40), (GF(3), (1, 2, 3), 40)]
    for K, dims, count in cases:
        rng = random.Random(17 + K.char)
        subspace_cache = {n: _all_subspaces(K, n) for n in dims}
        for n in dims:
            for _ in range(count):
                ngens = rng.randrange(1, 4)
                mod = LieModule(K, ngens, stacked(K, n, [_rand_mat(K, rng, n, n)
                                                         for _ in range(ngens)]))
                acts = mod.action_mats()
                oracle_reducible = any(
                    0 < U.dim < n and all(invariant_under(U, a) for a in acts)
                    for U in subspace_cache[n]
                )
                res = certify_irreducible(mod)
                if res.status not in ("irreducible", "reducible"):
                    problems.append(f"{K.token} dim {n}: {res.status}")
                    continue
                if (res.status == "reducible") != oracle_reducible:
                    problems.append(f"{K.token} dim {n}: verdict mismatch")
                if res.status == "reducible":
                    W = res.witness
                    if not (0 < W.dim < n and all(invariant_under(W, a) for a in acts)):
                        problems.append(f"{K.token} dim {n}: bad witness")
                if certify_by_enumeration(mod).status != res.status:
                    problems.append(f"{K.token} dim {n}: enumeration mismatch")
    report_line(capsys, 10, not problems, "; ".join(sorted(set(problems))[:4]))
