"""Exact rational linear algebra on small dense matrices.

Vectors and matrices are tuples of fractions.Fraction. Everything is
canonicalized through reduced row echelon form so equal subspaces
compare equal as tuples. No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

Vec = tuple
Mat = tuple


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    return Fraction(x)


def vec(xs) -> Vec:
    return tuple(frac(x) for x in xs)


def mat(rows) -> Mat:
    return tuple(vec(r) for r in rows)


def rref(rows) -> Mat:
    """Canonical reduced row echelon form; zero rows dropped."""
    work = [list(r) for r in rows]
    if not work:
        return ()
    ncols = len(work[0])
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r])


def rank(rows) -> int:
    return len(rref(rows))


def sparse_rank(rows) -> int:
    """Rank of sparse rational rows ({col: Fraction}). Used for the large
    stabilizer constraint systems, which are mostly elementary rows."""
    pivots = {}  # col -> normalized sparse row with that leading col
    rk = 0
    for row in rows:
        work = {c: v for c, v in row.items() if v}
        while work:
            lead = min(work)
            if lead not in pivots:
                break
            f = work[lead]
            for c, v in pivots[lead].items():
                nv = work.get(c, 0) - f * v
                if nv:
                    work[c] = nv
                elif c in work:
                    del work[c]
        if work:
            lead = min(work)
            lv = work[lead]
            pivots[lead] = {c: v / lv for c, v in work.items()}
            rk += 1
    return rk


def nullspace(rows, ncols: int) -> Mat:
    """Canonical basis of the right kernel {u : rows . u = 0}."""
    R = rref(rows)
    pivot_cols = []
    for r in R:
        for c, x in enumerate(r):
            if x != 0:
                pivot_cols.append(c)
                break
    free = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fcol in free:
        v = [Fraction(0)] * ncols
        v[fcol] = Fraction(1)
        for r, pc in zip(R, pivot_cols):
            v[pc] = -r[fcol]
        basis.append(tuple(v))
    return rref(basis)


def sum_space(a: Mat, b: Mat) -> Mat:
    return rref(tuple(a) + tuple(b))


def intersection(a: Mat, b: Mat, m: int) -> Mat:
    """Canonical basis of the intersection of two row spaces in Q^m."""
    if not a or not b:
        return ()
    # Zassenhaus: row-reduce [A|A; B|0]. The rows with zero left half
    # carry the intersection in their right half, and since they are the
    # trailing rows of a reduced echelon form they are already its
    # canonical basis.
    zero = (Fraction(0),) * m
    big = [tuple(r) + tuple(r) for r in a] + [tuple(r) + zero for r in b]
    return tuple(r[m:] for r in rref(big) if not any(r[:m]))
