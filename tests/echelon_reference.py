"""The incremental echelon basis in scalar field arithmetic.

The package does not use it; the tests keep it as an independent reference
for `linalg.EchelonGFp` and `linalg.Echelon`, which work on the residue
arrays and on fraction-free integer rows.  It runs over the `Field`
interface one entry at a time, so it suits every field but is slow.
"""

from lieclassical.linalg import Mat, Subspace


class ScalarEchelon:
    """Growing echelon basis on scalars of any field: rows kept normalized
    and fully reduced (zero in every other pivot column), so sorted by pivot
    they are the RREF basis."""

    def __init__(self, field, ambient):
        self.field = field
        self.ambient = ambient
        self.rows = []
        self.pivots = []

    @property
    def dim(self):
        return len(self.rows)

    def add(self, v) -> bool:
        """Insert the vector v of scalars; returns True if it enlarged the span."""
        K = self.field
        r = _reduce(K, v, self.rows, self.pivots)
        piv = next((i for i, a in enumerate(r) if not K.is_zero(a)), None)
        if piv is None:
            return False
        inv = K.inv(r[piv])
        r = [K.mul(inv, a) for a in r]
        for i, row in enumerate(self.rows):
            c = row[piv]
            if not K.is_zero(c):
                self.rows[i] = [K.sub(a, K.mul(c, b)) for a, b in zip(row, r)]
        self.rows.append(r)
        self.pivots.append(piv)
        return True

    def subspace(self) -> Subspace:
        K = self.field
        order = sorted(range(self.dim), key=self.pivots.__getitem__)
        if not order:
            return Subspace.zero(K, self.ambient)
        return Subspace(Mat(K, [self.rows[i] for i in order]),
                        tuple(self.pivots[i] for i in order))


def _reduce(K, v, rows, pivots):
    """Residual of v after eliminating the pivot coordinates of fully reduced
    rows: each row is zero at the other pivots, so the order does not matter."""
    v = list(v)
    for row, piv in zip(rows, pivots):
        c = v[piv]
        if not K.is_zero(c):
            v = [K.sub(a, K.mul(c, b)) for a, b in zip(v, row)]
    return v
