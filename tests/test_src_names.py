"""Every function and method defined in `src/` is named somewhere in `src/`
outside its own definition: a def nothing calls is dead code.  The one
exception is a name the benchmark tracer wraps (`perfbench/tracer.py`'s
`TARGETS`), which has to exist for the tracer even when the engine no
longer calls it.  Dunder methods are called by the language and are not
checked."""

from __future__ import annotations

import ast
import io
import os
import tokenize

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src", "lieclassical")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


def _tracer_targets():
    """The last part of each attribute `TARGETS` names, read off the source."""
    tree = ast.parse(open(TRACER).read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS"
                                                for t in node.targets):
            return {attr.split(".")[-1] for _, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracer.py has no TARGETS")


def _sources():
    return {name: open(os.path.join(SRC, name)).read()
            for name in sorted(os.listdir(SRC)) if name.endswith(".py")}


def _name_uses(text):
    """(name, line) for every identifier token: code, not comments or strings."""
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME:
            yield tok.string, tok.start[0]


def unnamed_defs():
    sources = _sources()
    uses = {name: list(_name_uses(text)) for name, text in sources.items()}
    exempt = _tracer_targets()
    dead = []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            f = node.name
            if f in exempt or (f.startswith("__") and f.endswith("__")):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(word == f and not (where == name and line in inside)
                       for where, found in uses.items() for word, line in found):
                dead.append(f"{name}:{node.lineno} {f}")
    return dead


def test_every_src_def_is_named_outside_its_definition():
    assert unnamed_defs() == []
