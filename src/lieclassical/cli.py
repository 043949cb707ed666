"""Command-line front end.

Selects a field and bilinear form, runs verification suites or individual
computations, and emits text or JSON.  Exit code 0 means every requested
claim passed, 1 means some claim failed, 2 means a usage or validation
error, or that the computation ran out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import repmod
from .fields import field_from_token
from .forms import standard_symplectic_gram
from .liealg import (
    ad_gl,
    derived_series,
    gl_subspace,
    skew_adjoint_algebra,
    self_adjoint_module,
)
from .linalg import Mat, Subspace
from .repmod import (
    LieModule,
    adjoint_module,
    composition_series,
    dual_module,
    hom_space,
    weights,
)
from . import verify

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

class CliError(Exception):
    """Usage or validation problem; maps to exit code 2."""


def build_parser():
    p = argparse.ArgumentParser(
        prog="lieclassical",
        description="exact computations with classical Lie algebras inside gl(m)",
    )
    p.add_argument(
        "command",
        help="verify:<id> (ids: %s), verify:all, algebra, series, weights, hom"
        % ", ".join(v for v in VERIFY if v != "all"),
    )
    p.add_argument("--field", default=None, help="Q, a prime p, or p^2")
    p.add_argument("--m", type=int, default=None, help="matrix size")
    p.add_argument(
        "--form",
        default="alternating",
        help="alternating | diag:d1,...,dm | file:PATH",
    )
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.add_argument("--budget", type=int, default=None,
                   help="cap per irreducibility test on random elements drawn plus spins")
    p.add_argument("--out", default=None, help="write output to this path")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        text, all_passed = run_command(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if all_passed else EXIT_FAIL


def run_command(args):
    """Returns (output text, all claims passed).  A --budget holds for this
    command only."""
    budget = args.budget
    if budget is not None and budget <= 0:
        raise CliError("budget must be positive")
    try:
        K = field_from_token("Q" if args.field is None else args.field)
    except ValueError as exc:
        raise CliError(str(exc))
    cmd = args.command
    runners = {"algebra": _run_algebra, "series": _run_series,
               "weights": _run_weights, "hom": _run_hom}
    if cmd not in runners and not cmd.startswith("verify:"):
        raise CliError(f"unknown command {cmd!r}")
    saved = repmod.DEFAULT_BUDGET
    repmod.DEFAULT_BUDGET = budget or saved
    try:
        if cmd in runners:
            return runners[cmd](K, args)
        return _run_verify(cmd[len("verify:"):], K, args)
    finally:
        repmod.DEFAULT_BUDGET = saved


# ---------------------------------------------------------------------------
# Form handling


def load_gram(K, m, form_spec):
    """The Gram matrix selected by --form, validated against field and m."""
    if form_spec == "alternating":
        if m is None or m < 2 or m % 2:
            raise CliError("alternating forms need an even --m of at least 2")
        return standard_symplectic_gram(K, m)
    if form_spec.startswith("diag:"):
        parts = form_spec[len("diag:"):].split(",")
        try:
            diag = [K.parse(s) for s in parts]
        except (ValueError, TypeError):
            raise CliError(f"cannot parse diagonal entries {form_spec!r}")
        if m is not None and len(diag) != m:
            raise CliError(f"--m {m} does not match {len(diag)} diagonal entries")
        if any(K.is_zero(d) for d in diag):
            raise CliError("diagonal entries must be nonzero")
        return Mat.diag(K, diag)
    if form_spec.startswith("file:"):
        path = form_spec[len("file:"):]
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read form file {path}: {exc}")
        try:
            A = Mat.from_text(text)
        except (ValueError, IndexError) as exc:
            raise CliError(f"bad matrix in {path}: {exc}")
        if A.field != K:
            raise CliError(
                f"matrix in {path} is over {A.field.token}, not {K.token}"
            )
        if A.nrows != A.ncols:
            raise CliError(f"matrix in {path} is not square")
        if m is not None and A.nrows != m:
            raise CliError(f"--m {m} does not match {A.nrows} rows in {path}")
        return A
    raise CliError(f"unknown form spec {form_spec!r}")


def _need_m(args):
    if args.m is None:
        raise CliError("this command needs --m")
    return args.m


def _diag_entries(K, m, form_spec):
    A = load_gram(K, m, form_spec)
    diag = A.diagonal()
    if A != Mat.diag(K, diag):
        raise CliError("this command needs a diagonal form")
    return diag


# ---------------------------------------------------------------------------
# verify


def _run_verify(vid, K, args):
    reports = _verify_reports(vid, K, args)
    if args.output == "json":
        payload = [r.to_dict() for r in reports]
        if len(payload) == 1:
            payload = payload[0]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = []
        for r in reports:
            lines.append(f"== {r.case} ==")
            for c in r.claims:
                mark = "✓" if c.passed else "✗"
                lines.append(f"  {mark} {c.label} [{c.method}]")
                if not c.passed:
                    lines.append(f"      expected: {c.expected}")
                    lines.append(f"      computed: {c.computed}")
            lines.append("  result: " + ("pass" if r.passed else "FAIL"))
        text = "\n".join(lines) + "\n"
    return text, all(r.passed for r in reports)


def _verify_reports(vid, K, args):
    """The reports of verify:<vid>; an option the id does not read is refused,
    not ignored."""
    if vid not in VERIFY:
        raise CliError(f"unknown verify id {vid!r}; ids: {', '.join(VERIFY)}")
    reads, runner = VERIFY[vid]
    for opt, default in (("form", "alternating"), ("field", None), ("m", None)):
        if opt not in reads and getattr(args, opt) != default:
            raise CliError(f"verify:{vid} takes no --{opt}")
    m = _need_m(args) if "m" in reads else None
    try:
        return runner(K, m, args.form)
    except ValueError as exc:
        raise CliError(str(exc))


def _needs_gf2(vid, K):
    if K.char != 2 or K.degree != 1:
        raise CliError(f"{vid} needs --field 2")


def _diag_or_none(K, m, form):
    return None if form == "alternating" else _diag_entries(K, m, form)


def _verify_thm_1_1(K, m, form):
    _needs_gf2("thm1.1", K)
    if form != "alternating":
        raise CliError("thm1.1 needs --form alternating")
    return [verify.run_thm_1_1(m)]


def _verify_thm_1_2(K, m, form):
    # over GF(2) every form accepted here is I
    _needs_gf2("thm1.2", K)
    if any(K.is_zero(d) for d in _diag_or_none(K, m, form) or ()):
        raise CliError("needs m nonzero diagonal entries")
    return [verify.run_thm_1_2(m)]


def _verify_sp_so(K, m, form):
    if m % 2:
        raise CliError("sp-so needs even m = 2n")
    return [verify.run_sp_so_embedding(m // 2, K)]


def _verify_heisenberg(K, m, form):
    if K.char == 0 or K.degree != 1:
        raise CliError("heisenberg needs a prime field")
    return [verify.run_heisenberg_cases(m, K.char)]


# verify:<id> -> the options it reads, and its runner (K, m, form) -> reports
VERIFY = {
    "thm1.1": (("field", "m", "form"), _verify_thm_1_1),
    "thm1.2": (("field", "m", "form"), _verify_thm_1_2),
    "thm1.3": (("field", "m"), lambda K, m, form: [verify.run_thm_1_3(m, K)]),
    "thm1.4": (("field", "m", "form"),
               lambda K, m, form: [verify.run_thm_1_4(m, K, _diag_or_none(K, m, form))]),
    "sl-series": (("field", "m"), lambda K, m, form: [verify.run_sl_series(m, K)]),
    "note9.2": ((), lambda K, m, form: [verify.run_note_9_2()]),
    "note9.3": ((), lambda K, m, form: [verify.run_note_9_3()]),
    "sp-so": (("field", "m"), _verify_sp_so),
    "sl4-so6": (("field",), lambda K, m, form: [verify.run_sl4_so6(K)]),
    "blocks": (("field", "m"), lambda K, m, form: [verify.run_block_irreducibles(m, K)]),
    "heisenberg": (("field", "m"), _verify_heisenberg),
    "all": ((), lambda K, m, form: verify.run_all()),
}


# ---------------------------------------------------------------------------
# direct computations


def _algebra_of(K, args):
    """(m, A, L(A)) for the form --form selects."""
    A = load_gram(K, _need_m(args), args.form)
    return A.nrows, A, skew_adjoint_algebra(A)


def _emit(K, m, args, data, lines):
    """The output of a direct command: the field, m and data as JSON, or the
    text lines."""
    if args.output == "json":
        payload = {"field": {"char": K.char, "degree": K.degree}, "m": m, **data}
        return json.dumps(payload, indent=2) + "\n", True
    return "\n".join(lines) + "\n", True


def _run_algebra(K, args):
    m, A, L = _algebra_of(K, args)
    M = self_adjoint_module(A)
    dims = [a.dim for a in derived_series(L)]
    basis = L.basis.to_text()
    data = {"dim L": L.dim, "dim M": M.dim, "derived dims": dims, "L basis": basis}
    return _emit(K, m, args, data, [
        f"L(A) inside gl({m}) over {K.token}",
        f"dim L = {L.dim}, dim M = {M.dim}",
        "derived series dims: " + " ".join(str(d) for d in dims),
        "basis of L (rows are vectorized matrices):",
        basis.rstrip(),
    ])


def _run_series(K, args):
    if K.order() is None:
        raise CliError("series needs a finite field (use verify:thm1.3/thm1.4 for Q)")
    m, _, L = _algebra_of(K, args)
    module = adjoint_module(L, gl_subspace(K, m))
    try:
        cs = composition_series(module)
    except ValueError as exc:
        raise CliError(str(exc))
    dims = [t.dim for t in cs.chain]
    data = {"chain dims": dims, "factor dims": cs.factor_dims,
            "factor trivial": cs.factor_trivial}
    factors = zip(cs.factor_dims, cs.factor_trivial)
    return _emit(K, m, args, data, [
        f"composition series of gl({m}) as an L-module over {K.token}",
        "chain dims: " + " < ".join(str(d) for d in dims),
        "factors: " + ", ".join(f"{d}{' (trivial)' if t else ''}" for d, t in factors),
    ])


def _run_weights(K, args):
    m, _, L = _algebra_of(K, args)
    # the diagonal units e_ii, the identity rows at i (m + 1): a canonical basis
    at = tuple(i * (m + 1) for i in range(m))
    H_space = L.intersect(Subspace(Mat.identity(K, m * m)[list(at), :], at))
    if H_space.dim == 0:
        raise CliError("L contains no nonzero diagonal matrices")
    H = [ad_gl(h) for h in H_space.matrices(m, m)]
    entries = sorted((tuple(K.fmt(w) for w in wt), mult) for wt, mult in weights(H))
    data = {
        "cartan dims": H_space.dim,
        "weights": [{"weight": list(w), "multiplicity": mult} for w, mult in entries],
    }
    lines = [f"weights of gl({m}) for the {H_space.dim} diagonal elements of L"]
    lines += [f"  ({', '.join(w)})  multiplicity {mult}" for w, mult in entries]
    return _emit(K, m, args, data, lines)


def _run_hom(K, args):
    """Hom from the natural module to its dual; f makes V self-dual."""
    m, _, L = _algebra_of(K, args)
    V = LieModule(K, L.dim, L.basis.reshape(L.dim * m, m))
    Vd = dual_module(V)
    H = hom_space(V, Vd)
    data = {"dim Hom(V, V*)": H.dim}
    lines = [f"dim Hom_L(V, V*) = {H.dim} over {K.token}"]
    if H.dim:
        data["witness"] = H.matrices(Vd.dim, V.dim)[0].to_text()
        lines += ["intertwiner:", data["witness"].rstrip()]
    return _emit(K, m, args, data, lines)


if __name__ == "__main__":
    sys.exit(main())
