"""The characteristic polynomial in scalar field arithmetic.

The package does not use it; the tests keep it as an independent reference
for `linalg.charpoly`, which works on the residue arrays.  It runs over the
`Field` interface one entry at a time, so it suits every field but is slow.
"""


def charpoly_by_scalars(A):
    """det(xI - A), by a similarity to upper Hessenberg form and the
    recurrence on its leading minors (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.2.9)."""
    K = A.field
    n = A.nrows
    H = [list(r) for r in A.rows]
    for c in range(n - 2):
        piv = next((r for r in range(c + 1, n) if not K.is_zero(H[r][c])), None)
        if piv is None:
            continue
        if piv != c + 1:
            H[piv], H[c + 1] = H[c + 1], H[piv]
            for row in H:
                row[piv], row[c + 1] = row[c + 1], row[piv]
        inv = K.inv(H[c + 1][c])
        for r in range(c + 2, n):
            u = K.mul(H[r][c], inv)
            if K.is_zero(u):
                continue
            # row r -= u row c+1, then column c+1 += u column r
            H[r] = [K.sub(a, K.mul(u, b)) for a, b in zip(H[r], H[c + 1])]
            for row in H:
                row[c + 1] = K.add(row[c + 1], K.mul(u, row[r]))
    # p_k = (x - h_kk) p_{k-1} - sum_r h_{r,k} (h_{r+1,r} ... h_{k,k-1}) p_{r-1}
    polys = [[K.one()]]
    for k in range(1, n + 1):
        p = [K.zero()] + polys[-1]
        for i, c in enumerate(polys[-1]):
            p[i] = K.sub(p[i], K.mul(H[k - 1][k - 1], c))
        t = K.one()
        for r in range(k - 1, 0, -1):
            t = K.mul(t, H[r][r - 1])
            if K.is_zero(t):
                break
            coef = K.mul(t, H[r - 1][k - 1])
            for i, c in enumerate(polys[r - 1]):
                p[i] = K.sub(p[i], K.mul(coef, c))
        polys.append(p)
    return polys[-1]
