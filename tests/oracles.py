"""Reference implementations that the package no longer carries, kept as test oracles."""


def det_bareiss(m) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination).

    Works on any square matrix, symmetric or not: the SNF tests read the
    determinants of the unimodular transforms U and V with it, and the
    lattice tests check `GramLattice.det` against it.
    """
    a = [row[:] for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]
