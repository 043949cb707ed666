"""CLI: exit codes, output formats, form ingestion, budget override."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time

import pytest

import lieclassical
from lieclassical import repmod
from lieclassical.cli import build_parser, main
from lieclassical.fields import GF
from lieclassical.linalg import Mat


@pytest.fixture(autouse=True)
def restore_budget():
    saved = repmod.DEFAULT_BUDGET
    yield
    repmod.DEFAULT_BUDGET = saved


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_thm11_text(capsys):
    code, out, _ = run(
        capsys, "verify:thm1.1", "--field", "2", "--m", "4", "--form", "alternating"
    )
    assert code == 0
    assert "thm1.1 m=4" in out
    assert "✓" in out and "✗" not in out


def test_verify_odd_m_is_usage_error(capsys):
    code, out, err = run(
        capsys, "verify:thm1.1", "--field", "2", "--m", "7", "--form", "alternating"
    )
    assert code == 2
    assert "even" in err


def test_verify_wrong_field_is_usage_error(capsys):
    code, _, err = run(
        capsys, "verify:thm1.1", "--field", "3", "--m", "4", "--form", "alternating"
    )
    assert code == 2


def test_sl_series_over_q(capsys):
    code, out, _ = run(capsys, "verify:sl-series", "--field", "Q", "--m", "3")
    assert code == 0
    assert "sl simple" in out


def test_json_round_trips(capsys):
    code, out, _ = run(
        capsys,
        "verify:sl-series",
        "--field",
        "3",
        "--m",
        "2",
        "--output",
        "json",
    )
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_json_schema_fields(capsys):
    _, out, _ = run(
        capsys,
        "verify:thm1.2",
        "--field",
        "2",
        "--m",
        "3",
        "--form",
        "diag:1,1,1",
        "--output",
        "json",
    )
    d = json.loads(out)
    assert d["field"] == {"char": 2, "degree": 1}
    assert d["m"] == 3
    assert d["pass"] is True
    assert all(
        set(c) == {"label", "paper_ref", "expected", "computed", "pass", "method"}
        for c in d["claims"]
    )


def test_unknown_command(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2
    assert "unknown command" in err


def test_unknown_verify_id(capsys):
    code, _, err = run(capsys, "verify:thm9.9", "--field", "2", "--m", "4")
    assert code == 2
    assert "thm9.9" in err


def test_series_command(capsys):
    code, out, _ = run(
        capsys, "series", "--field", "3", "--m", "4", "--form", "alternating"
    )
    assert code == 0
    assert "chain dims: 0 < " in out


def test_series_needs_finite_field(capsys):
    code, _, err = run(
        capsys, "series", "--field", "Q", "--m", "4", "--form", "alternating"
    )
    assert code == 2


def test_algebra_command(capsys):
    code, out, _ = run(
        capsys, "algebra", "--field", "7", "--m", "3", "--form", "diag:1,2,3"
    )
    assert code == 0
    assert "dim L = 3" in out


def test_weights_command(capsys):
    code, out, _ = run(
        capsys, "weights", "--field", "5", "--m", "4", "--form", "alternating"
    )
    assert code == 0
    assert "multiplicity" in out


def test_weights_over_a_large_prime_field(capsys):
    # the eigenvalues are the roots of the characteristic polynomial, so no
    # list of the field's million elements is walked
    t0 = time.monotonic()
    code, out, err = run(
        capsys, "weights", "--field", "1000003", "--m", "4", "--form", "alternating"
    )
    assert code == 0, err
    assert time.monotonic() - t0 < 5.0
    assert "(0, 1000001)  multiplicity 1" in out


def test_hom_command(capsys):
    code, out, _ = run(
        capsys, "hom", "--field", "7", "--m", "4", "--form", "alternating"
    )
    assert code == 0
    assert "dim Hom_L(V, V*) = 1" in out


def test_form_file_ingestion(tmp_path, capsys):
    path = tmp_path / "gram.txt"
    path.write_text(Mat.identity(GF(3), 3).to_text())
    code, out, _ = run(
        capsys, "algebra", "--field", "3", "--m", "3", "--form", f"file:{path}"
    )
    assert code == 0
    assert "dim L = 3" in out


def test_form_file_missing_names_path(capsys):
    code, _, err = run(
        capsys, "algebra", "--field", "3", "--m", "3", "--form", "file:/no/such.txt"
    )
    assert code == 2
    assert "/no/such.txt" in err


def test_form_file_malformed_names_path(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3 3 3\n1 0 0\n")
    code, _, err = run(
        capsys, "algebra", "--field", "3", "--m", "3", "--form", f"file:{path}"
    )
    assert code == 2
    assert str(path) in err


def test_form_file_field_mismatch(tmp_path, capsys):
    path = tmp_path / "gram.txt"
    path.write_text(Mat.identity(GF(5), 2).to_text())
    code, _, err = run(
        capsys, "algebra", "--field", "3", "--m", "2", "--form", f"file:{path}"
    )
    assert code == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify:sl-series",
        "--field",
        "3",
        "--m",
        "2",
        "--output",
        "json",
        "--out",
        str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["pass"] is True


def budgets_seen(monkeypatch):
    """Record the budget of every certification that repmod runs."""
    seen = []
    certify = repmod.certify_irreducible

    def recording(M, budget=None, seed=0):
        seen.append(repmod.DEFAULT_BUDGET if budget is None else budget)
        return certify(M, budget, seed)

    monkeypatch.setattr(repmod, "certify_irreducible", recording)
    return seen


def test_budget_flag_sets_cap(capsys, monkeypatch):
    seen = budgets_seen(monkeypatch)
    default = repmod.DEFAULT_BUDGET
    code, _, _ = run(
        capsys,
        "verify:sl-series",
        "--field",
        "3",
        "--m",
        "2",
        "--budget",
        "500000",
    )
    assert code == 0
    assert seen and set(seen) == {500000}
    assert repmod.DEFAULT_BUDGET == default


def test_budget_env_override(capsys, monkeypatch):
    seen = budgets_seen(monkeypatch)
    default = repmod.DEFAULT_BUDGET
    monkeypatch.setenv("LIECOMP_BUDGET", "123456")
    code, _, _ = run(capsys, "verify:sl-series", "--field", "3", "--m", "2")
    assert code == 0
    assert seen and set(seen) == {123456}
    assert repmod.DEFAULT_BUDGET == default


def test_budget_holds_for_one_command(capsys):
    # both calls in one test: the autouse fixture restores the budget only
    # between tests
    code, _, err = run(capsys, "series", "--field", "5", "--m", "4", "--budget", "2")
    assert code == 2 and "budget exceeded" in err
    code, _, err = run(capsys, "series", "--field", "5", "--m", "4")
    assert code == 0, err


def test_budget_env_invalid(capsys, monkeypatch):
    monkeypatch.setenv("LIECOMP_BUDGET", "lots")
    code, _, err = run(capsys, "verify:sl-series", "--field", "3", "--m", "2")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify:thm1.3", "--field", "1000003", "--m", "4"),
        ("series", "--field", "1000003", "--m", "4"),
        # a spent budget over Q is no failed reduction, and over GF(2) no
        # refuted chain claim
        ("verify:thm1.3", "--field", "Q", "--m", "4"),
        ("verify:sl-series", "--field", "Q", "--m", "3"),
        ("verify:thm1.4", "--field", "Q", "--m", "4", "--form", "diag:1,1,1,2"),
        ("verify:thm1.1", "--field", "2", "--m", "8"),
        ("verify:thm1.2", "--field", "2", "--m", "5"),
        # nor in a claim that one module is irreducible
        ("verify:blocks", "--field", "5", "--m", "4"),
        ("verify:heisenberg", "--field", "2", "--m", "2"),
        # nor in the sweep, as a failed "runner completed" claim per runner
        ("verify:all",),
    ],
)
def test_budget_exhaustion_exits_2_with_message(capsys, argv):
    # a budget of one unit pays for the first random element but not for the
    # spin after it, so certification gives up
    code, out, err = run(capsys, *argv, "--budget", "1")
    assert code == 2
    assert "budget exceeded" in err
    assert "not irreducible" not in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("argv", [
    ("verify:sl-series", "--field", "5", "--m", "1"),
    ("verify:sl-series", "--field", "5", "--m", "0"),
    ("verify:thm1.2", "--field", "2", "--m", "1"),
    ("verify:thm1.4", "--field", "5", "--m", "1"),
])
def test_m_below_2_is_usage_error(capsys, argv):
    # the theorems start at m = 2: a smaller m is refused, not checked against
    # claims that fail or hold vacuously
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err == "error: needs m >= 2\n"
    assert out == ""


def test_thm13_m_0_is_refused_as_below_2(capsys):
    # 0 is even: the refusal names the bound, as thm1.1's does
    code, out, err = run(capsys, "verify:thm1.3", "--field", "5", "--m", "0")
    assert code == 2
    assert err == "error: needs even m >= 2\n"
    assert out == ""


def test_large_prime_field_certifies(capsys):
    # 5 + 1 + 10 for sp(4) over GF(1000003) (Thm 1.3); no line is enumerated
    code, out, err = run(capsys, "verify:thm1.3", "--field", "1000003", "--m", "4",
                         "--output", "json")
    assert code == 0, err
    (dims,) = [c for c in json.loads(out)["claims"] if c["label"] == "factor dims"]
    assert dims["computed"] == [5, 1, 10] and dims["pass"]
    code, out, err = run(capsys, "series", "--field", "1000003", "--m", "4",
                         "--output", "json")
    assert code == 0, err
    assert sorted(json.loads(out)["factor dims"]) == [1, 5, 10]


@pytest.mark.parametrize("argv", [
    ("verify:sp-so", "--field", "2147483647", "--m", "4"),
    ("verify:sl4-so6", "--field", "3037000493"),
    ("verify:sp-so", "--field", "2147483647^2", "--m", "4"),
], ids=["sp-so-p31", "sl4-so6-pmax", "sp-so-p31^2"])
def test_square_roots_over_large_prime_fields(capsys, argv):
    # the congruence claims take square roots in the field; a search through
    # every element does not fit in memory at these primes
    code, out, err = run(capsys, *argv, "--output", "json")
    assert code == 0, err
    report = json.loads(out)
    assert report["pass"] is True
    assert any("congruent to identity" in c["label"] for c in report["claims"])


def test_usage_names_the_installed_command():
    assert build_parser().format_usage().startswith("usage: lieclassical ")


def test_prime_too_large_for_int64_is_usage_error(capsys):
    code, _, err = run(capsys, "series", "--field", "4294967311", "--m", "4")
    assert code == 2
    assert "too large" in err


@pytest.mark.parametrize("diag", ["diag:1,1,1,1,3", "diag:1,1,1,3", "diag:2,7,11,154"])
def test_thm14_over_q_forms_with_bad_primes(capsys, diag):
    # 3 divides the discriminant of the first two, which must not be reduced
    # mod 3; the third has a square discriminant (154^2) and so(4) ideals that
    # are not spanned by a sum or difference of two basis elements
    m = str(diag.count(",") + 1)
    code, out, err = run(capsys, "verify:thm1.4", "--field", "Q", "--m", m,
                         "--form", diag, "--output", "json")
    assert code == 0, err
    report = json.loads(out)
    assert report["pass"] is True
    assert report["claims"] and all(c["pass"] for c in report["claims"])
    if diag == "diag:1,1,1,3":
        # a non-square discriminant: so(4) is simple, certified mod 5
        (dichotomy,) = [c for c in report["claims"] if c["label"] == "m=4 dichotomy"]
        assert dichotomy["computed"] is True


def test_thm14_over_q_one_good_prime_certifies(capsys):
    # 6 is a square mod 5 but not mod 7, so so(4) for diag(1,1,1,6) splits
    # mod 5 and stays irreducible mod 7: one prime certifies it simple
    code, out, err = run(capsys, "verify:thm1.4", "--field", "Q", "--m", "4",
                         "--form", "diag:1,1,1,6", "--output", "json")
    assert code == 0, err
    report = json.loads(out)
    assert report["pass"] is True
    (dichotomy,) = [c for c in report["claims"] if c["label"] == "m=4 dichotomy"]
    assert dichotomy["computed"] is True


def test_out_of_memory_exits_2_without_traceback(capsys, monkeypatch):
    from lieclassical import verify

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(verify, "run_thm_1_2", exhausted)
    code, out, err = run(capsys, "verify:thm1.2", "--field", "2", "--m", "10")
    assert code == 2
    assert err == "error: out of memory in verify:thm1.2\n"
    assert out == ""


def test_out_of_memory_in_the_sweep_exits_2(capsys, monkeypatch):
    # verify:all collects a runner's error as a failed claim, but not this one
    from lieclassical import verify

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(verify, "run_thm_1_1", exhausted)
    code, out, err = run(capsys, "verify:all")
    assert code == 2
    assert err == "error: out of memory in verify:all\n"
    assert out == ""


def test_zero_denominator_over_q_is_usage_error(tmp_path, capsys):
    path = tmp_path / "gram.txt"
    path.write_text("2 2 Q\n1 0\n0 1/0\n")
    for argv, message in [
        (("verify:thm1.4", "--field", "Q", "--m", "4", "--form", "diag:1,1,1,1/0"),
         "error: cannot parse diagonal entries 'diag:1,1,1,1/0'"),
        (("algebra", "--field", "Q", "--m", "2", "--form", f"file:{path}"),
         f"error: bad matrix in {path}"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(message) and "Traceback" not in err
        assert out == ""


# sha256 of `lieclassical verify:all --output json`, recorded before the
# structured matrices and the report text were built on arrays; every change
# that claims only speed must print the same bytes
VERIFY_ALL_JSON_SHA256 = "2b7e61326f659cd24d5fc9160609a2facfd61f34da10d52f1f2dc47adef38b0b"


def _json_stdout_sha256(args):
    """The sha256 of the stdout of `lieclassical.cli args --output json` in a
    fresh process: the budget is module state that other tests set."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lieclassical.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("LIECOMP_BUDGET", None)
    argv = [sys.executable, "-m", "lieclassical.cli", *args, "--output", "json"]
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return hashlib.sha256(proc.stdout).hexdigest()


def test_verify_all_json_is_byte_identical():
    assert _json_stdout_sha256(["verify:all"]) == VERIFY_ALL_JSON_SHA256


# commands whose output verify:all does not cover.  GF(p^2): verify:all
# reaches it only through Note 9.2; these follow every GF(9) and GF(25)
# pivot and product of two theorems, and `series` every random draw of its
# free chain search; recorded before the GF(p^2) arithmetic became one GF(p)
# product per pair product.  Q: the m = 4 dichotomy with a non-square
# discriminant, Thm 1.4 at good primes that skip 3, and sl(5); recorded
# before every irreducibility verdict went through `repmod.irreducible`.
# The direct commands `algebra`, `weights`, `hom` and `series` over GF(p)
# and Q: recorded before they shared one emitter for their output
PINNED_JSON_SHA256 = {
    "verify:thm1.3 --field 3^2 --m 6":
        "9b583b974379202e2529a04031cfd06ea8d54f08eebeecff1a414c90ebe9dad0",
    "verify:thm1.4 --field 5^2 --m 4 --form diag:1,1,1,1":
        "7afbc803280c2954926c405ca8c39d557c23d02ed44d941b208c8293aee44dde",
    "series --field 3^2 --m 6":
        "6ad63abde15f6a25fe1ad087cb3dca22e6ca317a9c20b0c3c37756883cd81cb3",
    "verify:thm1.4 --field Q --m 4 --form diag:1,1,1,2":
        "ee5062e2d0faf9e2d91a7888a598ba692806aeda46cee0901d1cf97df5b5aaa0",
    "verify:thm1.4 --field Q --m 5 --form diag:1,1,1,1,3":
        "09ceb7ab7a9276bbe473f13e1a96ef88a98227be5c0ac148a99395a44c163d7c",
    "verify:sl-series --field Q --m 5":
        "50cf462349211e87b28eb847db8eabebfb7a46040331550546a35a17d8831f30",
    "algebra --field Q --m 4 --form diag:1,2,3,5":
        "56db57742a8c82662142275afc3dc6db914dc3a4cd93dcf345fe483aabaf4f25",
    "weights --field 7 --m 4":
        "96e79fed196698869428f6f0d6c5bdf82146ec1db752b710bad3462cfe442368",
    "hom --field 5 --m 4":
        "8e554aad3a2e96adde7d2b044c7d6b04b5fb7eb0fb8d5f6406a44822ecd25a48",
    "series --field 5 --m 6":
        "b78a4e13aee65bd8a21bc87c91ee5930504f8fc3d1795cdf38641bb6e47b47cf",
}


@pytest.mark.parametrize("command", PINNED_JSON_SHA256)
def test_pinned_json_is_byte_identical(command):
    assert _json_stdout_sha256(command.split()) == PINNED_JSON_SHA256[command]


def test_thm12_m12_runs_under_1gib_address_space():
    # the gl/L = L^(1) witness is the explicit map X -> X + X', not a solved
    # Kronecker system of 78 * 66^2 equations in 66^2 unknowns
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(os.path.abspath(lieclassical.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "lieclassical.cli", "verify:thm1.2", "--field", "2",
            "--m", "12", "--output", "json"]
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=120, preexec_fn=cap)
    assert proc.returncode == 0, proc.stderr.decode()
    report = json.loads(proc.stdout)
    assert report["claims"] and all(c["pass"] for c in report["claims"])
