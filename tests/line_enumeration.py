"""Line enumeration: spin one vector of every line of the module.

The package does not use it; the tests keep it as an independent reference
for irreducibility verdicts and submodule lattices.  It costs one spin per
line, (q^n - 1)/(q - 1) of them, so it is for small modules only.
"""

from lieclassical.linalg import Subspace
from lieclassical.repmod import IrredResult, line_reps, spin


def certify_by_enumeration(M):
    """Irreducible iff no line spins to a proper submodule."""
    for v in line_reps(M.field, M.dim):
        closure = spin(M, [v])
        if closure.dim < M.dim:
            return IrredResult("reducible", closure, "line enumeration")
    return IrredResult("irreducible", None, "line enumeration")


def all_submodules_by_enumeration(M):
    """All submodules as sums of the cyclic ones, sorted as
    `verify.all_submodules` sorts them."""
    K = M.field
    found = {}
    for v in line_reps(K, M.dim):
        S = spin(M, [v])
        found[S] = S
    work = list(found.values())
    while work:
        cur = work.pop()
        for other in list(found.values()):
            s = cur + other
            if s not in found:
                found[s] = s
                work.append(s)
    zero = Subspace.zero(K, M.dim)
    found[zero] = zero
    return sorted(found.values(), key=lambda u: (u.dim, u.basis.rows))
