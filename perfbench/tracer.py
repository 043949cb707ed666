"""Spans around the public functions of each `lieclassical` layer.

The wrappers live here, not in the program: `Tracer.install` replaces each
traced function in every module that holds it (the modules import names
with `from .linalg import kernel`, so patching `linalg` alone would miss
the callers), and the class attributes for methods.  Each call records a
span (name, start, end, parent); a span's self time is its duration minus
the durations of its child spans.  `fields` is not wrapped: its per-scalar
calls are too fine to time without distorting the run.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict
from functools import wraps

# certify_irreducible methods that come from the Norton kernel/dual argument
NORTON_METHODS = ("kernel/dual spin", "kernel vector spin", "dual spin annihilator")

# (module, attribute, span name); "Class.method" patches the class
TARGETS = [
    ("linalg", "matvec", "linalg.matvec"),
    ("linalg", "Mat.__matmul__", "linalg.matmul"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "kernel", "linalg.kernel"),
    ("linalg", "Subspace.reduce", "linalg.subspace_reduce"),
    ("linalg", "Echelon.add", "linalg.echelon_add"),
    ("linalg", "EchelonGFp.add", "linalg.echelon_add"),
    ("repmod", "spin", "repmod.spin"),
    ("repmod", "certify_irreducible", "repmod.certify"),
    ("repmod", "quotient_module", "repmod.quotient_module"),
    ("repmod", "invariant_under", "repmod.invariant_under"),
    ("repmod", "restrict_module", "repmod.restrict_module"),
    ("repmod", "composition_series", "repmod.composition_series"),
    ("repmod", "reduce_module_mod_p", "repmod.reduce_mod_p"),
    ("repmod", "tensor_square", "repmod.tensor_square"),
    ("repmod", "hom_space", "repmod.hom_space"),
    ("liealg", "skew_adjoint_algebra", "liealg.algebra"),
    ("liealg", "self_adjoint_module", "liealg.algebra"),
    ("liealg", "derived_series", "liealg.derived_series"),
    ("liealg", "is_simple", "liealg.is_simple"),
    ("liealg", "quotient_algebra", "liealg.quotient_algebra"),
    ("liealg", "bracket", "liealg.bracket"),
    ("cli", "main", "cli"),
]
# every public function defined in these modules gets one span name per layer
WHOLE_LAYERS = ("forms", "verify")

CALLS = ("linalg.matvec", "linalg.matmul", "linalg.rref", "linalg.kernel",
         "linalg.subspace_reduce", "linalg.echelon_add", "repmod.spin",
         "repmod.certify", "repmod.quotient_module", "repmod.invariant_under",
         "liealg.bracket")
SELF = ("linalg.matvec", "linalg.matmul", "linalg.rref", "linalg.kernel",
        "linalg.subspace_reduce", "linalg.echelon_add", "repmod.spin", "repmod.certify",
        "repmod.quotient_module", "repmod.invariant_under",
        "repmod.restrict_module", "repmod.composition_series",
        "repmod.reduce_mod_p", "repmod.tensor_square", "repmod.hom_space",
        "liealg.algebra", "liealg.derived_series", "liealg.is_simple",
        "liealg.quotient_algebra", "forms", "verify", "cli")
RESULTS = ("linalg.echelon_add.accepted", "repmod.certify.enumeration",
           "repmod.certify.norton", "repmod.certify.reducible")


def layer_metric_names(op_names):
    """Every per-layer metric a traced run prints, in order, with its unit."""
    names = [(f"{n}.calls", "count") for n in CALLS]
    names += [(f"{n}.self_s", "s") for n in SELF]
    names += [(n, "count") for n in RESULTS]
    names += [(f"verify.{op}.s", "s") for op in op_names]
    names.append(("trace.overhead_s", "s"))
    return names


class Tracer:
    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.stack = []  # indices of the open spans
        self.child_s = []  # time covered by the children of each open span
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.results = Counter()

    def install(self):
        """Wrap every target in every loaded `lieclassical` module."""
        pkg = sys.modules["lieclassical"]
        modules = [m for n, m in list(sys.modules.items())
                   if n == "lieclassical" or n.startswith("lieclassical.")]
        targets = list(TARGETS)
        for layer in WHOLE_LAYERS:
            mod = getattr(pkg, layer)
            targets += [(layer, n, layer) for n, f in vars(mod).items()
                        if callable(f) and not n.startswith("_")
                        and getattr(f, "__module__", None) == mod.__name__
                        and not isinstance(f, type)]
        for mod_name, attr, span in targets:
            owner = getattr(pkg, mod_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            traced = self._wrap(original, span)
            setattr(owner, attr, traced)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, traced)

    def _wrap(self, fn, span):
        nid = len(self.names)
        self.names.append(span)
        on_result = {"linalg.echelon_add": self._echelon_result,
                     "repmod.certify": self._certify_result}.get(span)
        clock = time.perf_counter
        stack, child_s = self.stack, self.child_s

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.start.append(clock())
            self.end.append(0.0)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            stack.append(idx)
            child_s.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.end[idx] = t1
                stack.pop()
                dur = t1 - self.start[idx]
                self.self_s[span] += dur - child_s.pop()
                self.calls[span] += 1
                if child_s:
                    child_s[-1] += dur
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _echelon_result(self, accepted):
        if accepted:
            self.results["linalg.echelon_add.accepted"] += 1

    def _certify_result(self, res):
        if res.method == "line enumeration":
            self.results["repmod.certify.enumeration"] += 1
        elif res.method in NORTON_METHODS:
            self.results["repmod.certify.norton"] += 1
        if res.status == "reducible":
            self.results["repmod.certify.reducible"] += 1

    def metrics(self):
        out = {f"{n}.calls": self.calls[n] for n in CALLS}
        out.update({f"{n}.self_s": self.self_s[n] for n in SELF})
        out.update({n: self.results[n] for n in RESULTS})
        return out

    def save(self, path):
        """Write the spans (numpy arrays plus the span names) to path.npz."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names), start=np.frombuffer(self.start),
            end=np.frombuffer(self.end), name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32))
