"""The echelon names the benchmark tracer wraps must be the ones the engine
calls: a kept name that the elimination no longer goes through would record
nothing.  Installing the tracer patches the package for the rest of the
process, so the check runs in a fresh interpreter."""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

SCRIPT = """
import importlib.util, json, random, sys
import lieclassical, lieclassical.cli
from lieclassical.fields import GF, QQ
from lieclassical.linalg import Mat, Subspace
from lieclassical.repmod import LieModule

spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer_mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_mod)
tracer = tracer_mod.Tracer()
tracer.install()
from lieclassical import repmod  # the patched names

def adds():
    return tracer.calls["linalg.echelon_add"]

rng = random.Random(0)
out = {}
for name, K in (("gf9 spin", GF(3, 2)), ("gf5 spin", GF(5))):
    gens = [Mat(K, [[K.random(rng) for _ in range(6)] for _ in range(6)]) for _ in "ab"]
    before = adds()
    repmod.spin(LieModule(K, 2, Mat.from_blocks([[a] for a in gens])),
                Mat(K, [[K.random(rng) for _ in range(6)]]))
    out[name] = adds() - before
before = adds()
Subspace.span(Mat(QQ, [[QQ.of(i * j + 1) for j in range(4)] for i in range(3)]))
out["q span"] = adds() - before
print(json.dumps(out))
"""


def test_traced_echelon_adds_are_called():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    tracer = os.path.join(ROOT, "perfbench", "tracer.py")
    proc = subprocess.run([sys.executable, "-c", SCRIPT, tracer], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(counts) == {"gf9 spin", "gf5 spin", "q span"}
    for name, calls in counts.items():
        assert calls > 0, f"{name}: no traced echelon add"
