"""Command-line front end.

Selects a field and bilinear form, runs verification suites or individual
computations, and emits text or JSON.  Exit code 0 means every requested
claim passed, 1 means some claim failed, 2 means a usage or validation
error, or that the computation ran out of memory.
"""

from __future__ import annotations

import argparse
import json
import os
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
    hom_members,
    hom_space,
    weights,
)
from . import verify

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

VERIFY_IDS = (
    "thm1.1",
    "thm1.2",
    "thm1.3",
    "thm1.4",
    "sl-series",
    "note9.2",
    "note9.3",
    "sp-so",
    "sl4-so6",
    "blocks",
    "heisenberg",
    "all",
)


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
        % ", ".join(VERIFY_IDS[:-1]),
    )
    p.add_argument("--field", default="Q", help="Q, a prime p, or p^2")
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
    """Returns (output text, all claims passed).  A --budget or LIECOMP_BUDGET
    holds for this command only."""
    budget = args.budget
    if budget is None and os.environ.get("LIECOMP_BUDGET"):
        try:
            budget = int(os.environ["LIECOMP_BUDGET"])
        except ValueError:
            raise CliError("LIECOMP_BUDGET must be an integer")
    if budget is not None and budget <= 0:
        raise CliError("budget must be positive")
    try:
        K = field_from_token(args.field)
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
    try:
        if vid == "all":
            return verify.run_all()
        if vid == "thm1.1":
            m = _need_m(args)
            if K.char != 2 or K.degree != 1:
                raise CliError("thm1.1 needs --field 2")
            if args.form != "alternating":
                raise CliError("thm1.1 needs --form alternating")
            if m % 2:
                raise CliError("thm1.1 needs even m")
            return [verify.run_thm_1_1(m)]
        if vid == "thm1.2":
            m = _need_m(args)
            if K.char != 2 or K.degree != 1:
                raise CliError("thm1.2 needs --field 2")
            diag = None if args.form == "alternating" else _diag_entries(K, m, args.form)
            return [verify.run_thm_1_2(m, diag)]
        if vid == "thm1.3":
            m = _need_m(args)
            if K.char == 2:
                raise CliError("thm1.3 needs characteristic other than 2")
            if m % 2:
                raise CliError("thm1.3 needs even m")
            return [verify.run_thm_1_3(m, K)]
        if vid == "thm1.4":
            m = _need_m(args)
            if K.char == 2:
                raise CliError("thm1.4 needs characteristic other than 2")
            diag = None if args.form == "alternating" else _diag_entries(K, m, args.form)
            return [verify.run_thm_1_4(m, K, diag)]
        if vid == "sl-series":
            m = _need_m(args)
            return [verify.run_sl_series(m, K)]
        if vid == "note9.2":
            return [verify.run_note_9_2()]
        if vid == "note9.3":
            return [verify.run_note_9_3()]
        if vid == "sp-so":
            m = _need_m(args)
            if m % 2:
                raise CliError("sp-so needs even m = 2n")
            return [verify.run_sp_so_embedding(m // 2, K)]
        if vid == "sl4-so6":
            return [verify.run_sl4_so6(K)]
        if vid == "blocks":
            m = _need_m(args)
            return [verify.run_block_irreducibles(m, K)]
        if vid == "heisenberg":
            m = _need_m(args)
            if K.char == 0 or K.degree != 1:
                raise CliError("heisenberg needs a prime field")
            return [verify.run_heisenberg_cases(m, K.char)]
    except ValueError as exc:
        raise CliError(str(exc))
    raise CliError(f"unknown verify id {vid!r}; ids: {', '.join(VERIFY_IDS)}")


# ---------------------------------------------------------------------------
# direct computations


def _algebra_of(K, args):
    m = _need_m(args)
    A = load_gram(K, m, args.form)
    return A, skew_adjoint_algebra(A)


def _emit(K, m, args, data, lines):
    """The output of a direct command: the field, m and data as JSON, or the
    text lines."""
    if args.output == "json":
        payload = {"field": {"char": K.char, "degree": K.degree}, "m": m, **data}
        return json.dumps(payload, indent=2) + "\n", True
    return "\n".join(lines) + "\n", True


def _run_algebra(K, args):
    A, L = _algebra_of(K, args)
    M = self_adjoint_module(A)
    dims = [a.dim for a in derived_series(L)]
    basis = L.space.basis.to_text()
    data = {"dim L": L.dim, "dim M": M.dim, "derived dims": dims, "L basis": basis}
    return _emit(K, L.m, args, data, [
        f"L(A) inside gl({L.m}) over {K.token}",
        f"dim L = {L.dim}, dim M = {M.dim}",
        "derived series dims: " + " ".join(str(d) for d in dims),
        "basis of L (rows are vectorized matrices):",
        basis.rstrip(),
    ])


def _run_series(K, args):
    if K.order() is None:
        raise CliError("series needs a finite field (use verify:thm1.3/thm1.4 for Q)")
    A, L = _algebra_of(K, args)
    module = adjoint_module(L, gl_subspace(K, L.m))
    try:
        cs = composition_series(module)
    except ValueError as exc:
        raise CliError(str(exc))
    dims = [t.dim for t in cs.chain]
    data = {"chain dims": dims, "factor dims": cs.factor_dims,
            "factor trivial": cs.factor_trivial}
    factors = zip(cs.factor_dims, cs.factor_trivial)
    return _emit(K, L.m, args, data, [
        f"composition series of gl({L.m}) as an L-module over {K.token}",
        "chain dims: " + " < ".join(str(d) for d in dims),
        "factors: " + ", ".join(f"{d}{' (trivial)' if t else ''}" for d, t in factors),
    ])


def _run_weights(K, args):
    A, L = _algebra_of(K, args)
    m = L.m
    diag_rows = [Mat.unit(K, m, m, i, i).vec() for i in range(m)]
    diag = Subspace.from_rows(K, m * m, diag_rows)
    H_space = L.space.intersect(diag)
    if H_space.dim == 0:
        raise CliError("L contains no nonzero diagonal matrices")
    H = [(f"h{i}", ad_gl(h)) for i, h in enumerate(H_space.matrices(m, m))]
    table = weights(H)
    entries = sorted(
        ((tuple(K.fmt(w) for w in wt), mult) for wt, mult in table.entries)
    )
    data = {
        "cartan dims": H_space.dim,
        "weights": [{"weight": list(w), "multiplicity": mult} for w, mult in entries],
    }
    lines = [f"weights of gl({m}) for the {H_space.dim} diagonal elements of L"]
    lines += [f"  ({', '.join(w)})  multiplicity {mult}" for w, mult in entries]
    return _emit(K, m, args, data, lines)


def _run_hom(K, args):
    """Hom from the natural module to its dual; f makes V self-dual."""
    A, L = _algebra_of(K, args)
    V = LieModule(K, L.m, [(f"x{i}", x) for i, x in enumerate(L.basis_mats())])
    Vd = dual_module(V)
    H = hom_space(V, Vd)
    data = {"dim Hom(V, V*)": H.dim}
    lines = [f"dim Hom_L(V, V*) = {H.dim} over {K.token}"]
    if H.dim:
        data["witness"] = hom_members(V, Vd, H)[0].to_text()
        lines += ["intertwiner:", data["witness"].rstrip()]
    return _emit(K, L.m, args, data, lines)


if __name__ == "__main__":
    sys.exit(main())
