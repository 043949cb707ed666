"""Tests of the benchmark's own code: the oracle and the workload checks.

    python3 -m pytest perfbench
"""

import json
import math
import os
from fractions import Fraction

import pytest

import oracle
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_thm_1_1_counts_and_dimensions():
    # 4 | m: m + 6 factors with two of m(m-1)/2 - 2; else m + 4 and - 1
    assert sorted(oracle.thm_1_1(8)) == [1] * 12 + [26, 26]
    assert sorted(oracle.thm_1_1(6)) == [1] * 8 + [14, 14]
    assert sorted(oracle.thm_1_1(10)) == [1] * 12 + [44, 44]
    for m in range(4, 16, 2):
        assert sum(oracle.thm_1_1(m)) == m * m


def test_thm_1_3_1_4_dichotomy():
    # symplectic, l does not divide m: M cap sl, then s, then L
    assert oracle.thm_1_3_1_4(8, 5, True) == [27, 1, 36]
    # orthogonal, l | m: s inside M cap sl splits one more trivial line
    assert oracle.thm_1_3_1_4(6, 3, False) == [1, 19, 1, 15]
    assert oracle.thm_1_3_1_4(7, 7, False) == [1, 26, 1, 21]
    # m = 4, orthogonal: so(4) splits exactly for a square discriminant
    assert oracle.thm_1_3_1_4(4, 0, False, disc_square=False) == [9, 1, 6]
    assert oracle.thm_1_3_1_4(4, 0, False, disc_square=True) == [9, 1, 3, 3]
    assert oracle.thm_1_3_1_4(2, 0, True) == [1, 3]
    for m in range(2, 11):
        for char in (0, 3, 5, 7):
            for symp in (True, False) if m % 2 == 0 else (False,):
                assert sum(oracle.thm_1_3_1_4(m, char, symp)) == m * m


def test_thm_4_1_and_note_9_2():
    assert oracle.thm_4_1(5, 0) == [24, 1]
    assert oracle.thm_4_1(6, 3) == [1, 34, 1]
    assert len(oracle.note_9_2_lattice(9)) == 11


def test_oracle_rejects_a_wrong_multiset():
    dims = oracle.thm_1_3_1_4(6, 0, True)
    assert oracle.same_factors([21, 1, 14], dims)
    assert not oracle.same_factors([14, 1, 21, 1], dims)
    assert not oracle.same_factors([15, 21], dims)
    check = workloads.series_report_check(dims)
    report = {"case": "x", "pass": True,
              "claims": [{"label": "factor dims", "computed": [14, 1, 20], "pass": True}]}
    with pytest.raises(workloads.Mismatch):
        check(report)
    report["claims"][0]["computed"] = [14, 1, 21]
    assert check(report) == 1


def test_series_check_properties():
    check = workloads.series_check(4, oracle.thm_1_3_1_4(4, 3, False))
    good = {"chain dims": [0, 9, 10, 16], "factor dims": [9, 1, 6],
            "factor trivial": [False, True, False]}
    assert check(good) == 3
    bad_chains = [
        dict(good, **{"chain dims": [0, 9, 9, 16]}),
        dict(good, **{"factor trivial": [False, False, False]}),
        {"chain dims": [0, 8, 10, 16], "factor dims": [8, 2, 6],
         "factor trivial": [False, False, False]},
    ]
    for out in bad_chains:
        with pytest.raises(workloads.Mismatch):
            check(out)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_square_test_matches_brute_force_mod_p(p):
    squares = {x * x % p for x in range(p)}
    for a in range(p):
        assert oracle.is_square(a, p) == (a in squares)
        assert oracle.is_square(a, p, degree=2)


def test_square_test_matches_isqrt_over_q():
    for num in range(-20, 60):
        for den in range(1, 30):
            a = Fraction(num, den)
            n, d = a.numerator, a.denominator
            want = n >= 0 and math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d
            assert oracle.is_square(a, 0) == want


def test_det_of_congruent_forms():
    import random

    rng = random.Random(0)
    J = workloads._standard_symplectic(8)
    assert oracle.det(J, 0) == 1
    G = workloads._congruent(rng, J, 5)
    assert all(G[i][j] == -G[j][i] % 5 for i in range(8) for j in range(8))
    assert oracle.is_square(oracle.det(G, 5), 5)  # det(P)^2 det(J)
    assert oracle.det([[1, 2], [3, 4]], 0) == -2
    assert oracle.det([[1, 2], [2, 4]], 7) == 0


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert per_layer == tracer.layer_metric_names(workloads.op_names())
