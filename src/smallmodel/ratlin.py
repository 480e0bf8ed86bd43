"""Exact rational linear algebra on small dense matrices.

Vectors and matrices are tuples of fractions.Fraction. Everything is
canonicalized through reduced row echelon form so equal subspaces
compare equal as tuples. No floating point anywhere.

Elimination (rref, sparse_rank) is fraction-free over Z: each input row
is scaled by the lcm of its denominators and reduced with integer row
operations a*row - b*pivot_row. Fractions appear only in outputs, where
rref divides each pivot row by its pivot.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vec = tuple
Mat = tuple

_ZERO = Fraction(0)


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


def _primitive(ints: list) -> list:
    """The integer vector divided by the gcd of its entries."""
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _integer_row(row) -> list:
    """A rational row scaled by the lcm of its denominators, made primitive."""
    ratios = [x.as_integer_ratio() for x in row]
    d = lcm(*(q for _, q in ratios))
    return _primitive([p * (d // q) for p, q in ratios])


def rref(rows) -> Mat:
    """Canonical reduced row echelon form; zero rows dropped.

    The integer rows are made primitive again after every update, which
    keeps their entries small. Each pivot row is divided by its pivot only
    to build the output, so every entry is a Fraction and every pivot is
    Fraction(1)."""
    work = [_integer_row(r) for r in rows]
    if not work:
        return ()
    ncols = len(work[0])
    pivot_cols = []
    for c in range(ncols):
        r = len(pivot_cols)
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow = work[r]
        pv = prow[c]
        for i, row in enumerate(work):
            f = row[c]
            if f and i != r:
                g = gcd(pv, f)
                a, b = pv // g, f // g
                work[i] = _primitive([a * x - b * y for x, y in zip(row, prow)])
        pivot_cols.append(c)
        if len(pivot_cols) == len(work):
            break
    return tuple(
        tuple(Fraction(x, row[c]) if x else _ZERO for x in row)
        for row, c in zip(work, pivot_cols)
    )


def rank(rows) -> int:
    return len(rref(rows))


def sparse_rank(rows) -> int:
    """Rank of sparse rational rows ({col: Fraction}). Used for the large
    stabilizer constraint systems, which are mostly elementary rows.

    Elimination is fraction-free over Z, as in rref. Rows enter and pivot
    rows are stored primitive; in between, a row under reduction is the
    exact rational intermediate times its starting scale and the
    multipliers a applied to it, so its entries stay polynomial in size
    without a gcd per step."""
    pivots = {}  # col -> primitive integer sparse row with that leading col
    for row in rows:
        work = {c: v for c, v in zip(row, _integer_row(row.values())) if v}
        while work:
            lead = min(work)
            prow = pivots.get(lead)
            if prow is None:
                g = gcd(*work.values())
                pivots[lead] = {c: v // g for c, v in work.items()} if g > 1 else work
                break
            g = gcd(prow[lead], work[lead])
            a, b = prow[lead] // g, work[lead] // g
            if a != 1:
                work = {c: a * v for c, v in work.items()}
            for c, v in prow.items():
                nv = work.get(c, 0) - b * v
                if nv:
                    work[c] = nv
                else:
                    work.pop(c, None)
    return len(pivots)


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
