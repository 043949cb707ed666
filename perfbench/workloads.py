"""The benchmark's workloads: CLI command lines, their inputs and their checks.

Each operation is one `lieclassical` command line.  Its check reads the JSON
the command printed and compares the computed values with `oracle`, the
paper's formulas; it returns how many claims it checked, or raises
`Mismatch`.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import oracle

# the fault that makes this operation exit 2 on every run: the mod-p
# certification of a rational series picks the first primes coprime to 2m,
# whatever the form, and 3 divides an entry of diag(1,1,1,1,3)
BAD_PRIME_FAULT = "mod-p certification failed for a factor"


class Mismatch(Exception):
    """A program output that disagrees with the paper or with itself."""


@dataclass
class Op:
    name: str
    argv: list
    check: object  # parsed JSON output -> number of claims checked
    known_fault: str | None = None  # stderr text of a failure this op always hits
    same_factors_as: str | None = None  # op whose factor multiset must match


WORKLOADS = ("gfp-series", "gfp-dense", "rational", "gf9-lattice")


def build(workload, seed, round_no, form_dir):
    """The operations of one round; seeded forms are written into form_dir.

    Only gfp-dense depends on the seed: each round gets its own random forms,
    so a run's median round covers more than one draw of inputs.
    """
    rng = random.Random(f"{workload}:{seed}:{round_no}")
    if workload == "gfp-series":
        return _gfp_series()
    if workload == "gfp-dense":
        return _gfp_dense(rng, form_dir)
    if workload == "rational":
        return _rational()
    if workload == "gf9-lattice":
        return _gf9_lattice()
    raise ValueError(f"unknown workload {workload!r}")


def op_names():
    """The names of every workload's operations, in order."""
    return [op.name for w in WORKLOADS for op in build(w, 0, 0, form_dir=None)]


def _gfp_series():
    return [
        Op("thm1.1-gf2-m8", ["verify:thm1.1", "--field", "2", "--m", "8"],
           thm_1_1_check(8)),
        Op("thm1.3-gf5-m8", ["verify:thm1.3", "--field", "5", "--m", "8"],
           series_report_check(oracle.thm_1_3_1_4(8, 5, True), finite=True)),
        _thm_1_4("thm1.4-gf3-m6", "3", 3, [1] * 6),
    ]


def _gfp_dense(rng, form_dir):
    """Random congruent forms P'JP (GF(5), m=8, two of them) and P'DP (GF(7),
    m=7).

    The factor multiset is a congruence invariant, so each dense series must
    match both the paper and the program's own series for the standard form.
    The cost of a dense series depends on the draw, so a round takes two.
    """
    J = _standard_symplectic(8)
    D = _diagonal([rng.randrange(1, 7) for _ in range(7)])
    sym = _congruent(rng, D, 7)
    sym_square = oracle.is_square(oracle.det(sym, 7), 7)
    ops = []
    for tag in "ab":
        path = _write_form(form_dir, f"alt-gf5-m8-{tag}.txt", _congruent(rng, J, 5), 5)
        ops.append(Op(f"series-gf5-m8-dense-{tag}",
                      ["series", "--field", "5", "--m", "8", "--form", "file:" + path],
                      series_check(8, oracle.thm_1_3_1_4(8, 5, True)),
                      same_factors_as="series-gf5-m8-std"))
    path = _write_form(form_dir, "sym-gf7-m7.txt", sym, 7)
    return ops + [
        Op("series-gf7-m7-dense",
           ["series", "--field", "7", "--m", "7", "--form", "file:" + path],
           series_check(7, oracle.thm_1_3_1_4(7, 7, False, sym_square)),
           same_factors_as="series-gf7-m7-std"),
        Op("series-gf5-m8-std", ["series", "--field", "5", "--m", "8"],
           series_check(8, oracle.thm_1_3_1_4(8, 5, True))),
        Op("series-gf7-m7-std",
           ["series", "--field", "7", "--m", "7", "--form", _diag_spec([1] * 7)],
           series_check(7, oracle.thm_1_3_1_4(7, 7, False, True))),
    ]


def _rational():
    return [
        Op("thm1.3-q-m6", ["verify:thm1.3", "--field", "Q", "--m", "6"],
           series_report_check(oracle.thm_1_3_1_4(6, 0, True))),
        _thm_1_4("thm1.4-q-m6", "Q", 0, [1] * 6),
        _thm_1_4("thm1.4-q-m4-nonsquare", "Q", 0, [1, 1, 1, 2]),
        Op("sl-q-m5", ["verify:sl-series", "--field", "Q", "--m", "5"],
           series_report_check(oracle.thm_4_1(5, 0))),
        # what the next operation should cost once the fault is mended
        _thm_1_4("thm1.4-q-m5-goodprime", "Q", 0, [1, 1, 1, 1, 2]),
        _thm_1_4("thm1.4-q-m5-badprime", "Q", 0, [1, 1, 1, 1, 3], known_fault=BAD_PRIME_FAULT),
    ]


def _thm_1_4(name, field, char, diag, degree=1, known_fault=None):
    """verify:thm1.4 for diag(...); for m = 4 the discriminant's square class
    decides both the factors and the simplicity of so(4) (Note 9.1)."""
    m = len(diag)
    square = oracle.is_square(oracle.det(_diagonal(diag), char), char, degree)
    return Op(name,
              ["verify:thm1.4", "--field", field, "--m", str(m), "--form", _diag_spec(diag)],
              series_report_check(oracle.thm_1_3_1_4(m, char, False, square),
                                  finite=char != 0,
                                  m4_simple=not square if m == 4 else None),
              known_fault)


def _gf9_lattice():
    return [
        Op("note9.2", ["verify:note9.2"], note_9_2_check),
        Op("thm1.3-gf9-m6", ["verify:thm1.3", "--field", "3^2", "--m", "6"],
           series_report_check(oracle.thm_1_3_1_4(6, 3, True), finite=True)),
        _thm_1_4("thm1.4-gf25-m4", "5^2", 5, [1] * 4, degree=2),
    ]


# ---------------------------------------------------------------------------
# Checks of the program's JSON output


def _claims(report):
    if not report.get("pass"):
        failed = [c["label"] for c in report["claims"] if not c["pass"]]
        raise Mismatch(f"{report['case']}: claims failed: {failed}")
    return {c["label"]: c["computed"] for c in report["claims"]}


def _expect(claims, label, ok, what):
    if label not in claims:
        raise Mismatch(f"no claim {label!r} in the report")
    if not ok(claims[label]):
        raise Mismatch(f"{label}: computed {claims[label]!r}, the paper gives {what!r}")


def thm_1_1_check(m):
    dims = oracle.thm_1_1(m)

    def check(report):
        claims = _claims(report)
        _expect(claims, "factor count", lambda c: c == len(dims), len(dims))
        big = sorted(d for d in dims if d > 1)
        _expect(claims, "nontrivial factor dims", lambda c: sorted(c) == big, big)
        return len(claims)

    return check


def series_report_check(dims, finite=False, m4_simple=None):
    """A Thm 1.3/1.4/4.1 report: its factor dims are the paper's multiset."""

    def check(report):
        claims = _claims(report)
        _expect(claims, "factor dims", lambda c: oracle.same_factors(c, dims), dims)
        if finite:
            _expect(claims, "Jordan-Holder factor multiset",
                    lambda c: oracle.same_factors(c, dims), dims)
        if m4_simple is not None:
            _expect(claims, "m=4 dichotomy", lambda c: c == m4_simple, m4_simple)
        return len(claims)

    return check


def note_9_2_check(report):
    claims = _claims(report)
    lattice = oracle.note_9_2_lattice(9)
    label = f"{len(lattice)} proper nonzero submodules (s plus {len(lattice) - 1} graphs)"
    _expect(claims, label, lambda c: oracle.same_factors(c, lattice), lattice)
    return len(claims)


def series_check(m, dims):
    """A `series` output: a strict chain 0 < ... < m^2 whose factors are the
    paper's multiset, with every 1-dimensional factor trivial.  Counts one
    claim per certified factor."""

    def check(out):
        chain, factors, trivial = out["chain dims"], out["factor dims"], out["factor trivial"]
        if chain[0] != 0 or chain[-1] != m * m:
            raise Mismatch(f"chain {chain} does not run from 0 to {m * m}")
        steps = [b - a for a, b in zip(chain, chain[1:])]
        if min(steps) <= 0 or steps != factors:
            raise Mismatch(f"chain {chain} does not rise strictly by {factors}")
        if sum(factors) != m * m or len(trivial) != len(factors):
            raise Mismatch(f"factors {factors} do not add up to {m * m}")
        if not all(t for d, t in zip(factors, trivial) if d == 1):
            raise Mismatch(f"a 1-dimensional factor is not trivial: {trivial}")
        if not oracle.same_factors(factors, dims):
            raise Mismatch(f"factors {sorted(factors)}, the paper gives {sorted(dims)}")
        return len(factors)

    return check


# ---------------------------------------------------------------------------
# Seeded forms over GF(p), as integer matrices


def _diag_spec(entries):
    return "diag:" + ",".join(str(d) for d in entries)


def _diagonal(entries):
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


def _standard_symplectic(m):
    n = m // 2
    J = [[0] * m for _ in range(m)]
    for i in range(n):
        J[i][n + i] = 1
        J[n + i][i] = -1
    return J


def _congruent(rng, A, p):
    """P'AP mod p for a random invertible P."""
    m = len(A)
    while True:
        P = [[rng.randrange(p) for _ in range(m)] for _ in range(m)]
        if oracle.det(P, p):
            break
    AP = [[sum(A[i][k] * P[k][j] for k in range(m)) % p for j in range(m)] for i in range(m)]
    return [[sum(P[k][i] * AP[k][j] for k in range(m)) % p for j in range(m)] for i in range(m)]


def _write_form(form_dir, name, rows, p):
    """Writes the form file; with no form_dir, only names it."""
    if form_dir is None:
        return name
    path = os.path.join(form_dir, name)
    with open(path, "w") as fh:
        fh.write(f"{len(rows)} {len(rows)} {p}\n")
        fh.writelines(" ".join(str(x) for x in r) + "\n" for r in rows)
    return path
