"""Exact linear algebra over Q on small dense matrices, in integers.

A subspace of Q^m is stored as its canonical integer basis: the reduced
row echelon basis, each row scaled to a primitive integer vector (entries
of gcd 1) with a positive pivot. That form is a bijection with the rref,
so equal subspaces compare and hash equal as tuples of ints. Rational
input enters once, through integer_row. No floating point anywhere.

Elimination is fraction-free over Z (Bareiss 1968; Cohen, A Course in
Computational Algebraic Number Theory, 2.2): integer row operations
a*row - b*pivot_row, and no pivot is ever divided out. rref and rank
share one dense kernel: rref clears every other row at each pivot, and
rank reads the pivot count off the echelon form, clearing only the rows
below each pivot. sparse_rank eliminates sparse rows the same way.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _primitive(ints: list) -> list:
    """The integer vector divided by the gcd of its entries."""
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def integer_row(row) -> list:
    """A rational row (a sequence of Fractions, ints or strings that
    Fraction parses) scaled by the lcm of its denominators, made primitive."""
    if all(type(x) is int for x in row):
        return _primitive(list(row))
    ratios = [Fraction(x).as_integer_ratio() if isinstance(x, str) else x.as_integer_ratio()
              for x in row]
    d = lcm(*(q for _, q in ratios))
    return _primitive([p * (d // q) for p, q in ratios])


def _eliminate(rows, reduced: bool):
    """The one elimination kernel: (work, pivot_cols), where the first
    len(pivot_cols) work rows are echelon rows with those pivot columns.

    Each pivot clears every other row when ``reduced`` (rref), and only
    the rows below it otherwise (rank). The work rows are made primitive
    again after every update, which keeps their entries small."""
    work = [_primitive(list(r)) for r in rows]
    pivot_cols = []
    if not work:
        return work, pivot_cols
    n = len(work)
    for c in range(len(work[0])):
        r = len(pivot_cols)
        for pivot in range(r, n):
            if work[pivot][c]:
                break
        else:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow = work[r]
        pv = prow[c]
        for i in range(0 if reduced else r + 1, n):
            row = work[i]
            f = row[c]
            if f and i != r:
                g = gcd(pv, f)
                a, b = pv // g, f // g
                work[i] = _primitive([a * x - b * y for x, y in zip(row, prow)])
        pivot_cols.append(c)
        if r + 1 == n:
            break
    return work, pivot_cols


def rref(rows) -> tuple:
    """Canonical integer basis of the row space of integer rows: the
    reduced echelon rows, each primitive with a positive pivot; zero rows
    dropped. The work rows are returned as they are, up to sign."""
    work, pivot_cols = _eliminate(rows, True)
    return tuple(
        tuple(row) if row[c] > 0 else tuple([-x for x in row])
        for row, c in zip(work, pivot_cols)
    )


def rank(rows) -> int:
    """Rank of integer rows: the pivots of an echelon form, with no back
    substitution and no sign normalisation."""
    return len(_eliminate(rows, False)[1])


def sparse_rank(rows) -> int:
    """Rank of sparse integer rows ({col: int}). Used for the large
    stabilizer constraint systems, which are mostly elementary rows.

    Elimination is fraction-free, as in rref. Pivot rows are stored
    primitive; in between, a row under reduction is the exact rational
    intermediate times the multipliers a applied to it, so its entries
    stay polynomial in size without a gcd per step."""
    pivots = {}  # col -> primitive integer sparse row with that leading col
    for row in rows:
        work = {c: v for c, v in row.items() if v}
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


def nullspace(rows, ncols: int) -> tuple:
    """Canonical integer basis of the right kernel {u : rows . u = 0}."""
    R = rref(rows)
    pivot_cols = [next(c for c, x in enumerate(r) if x) for r in R]
    # one kernel vector per free column, scaled by the lcm of the pivots
    # so that every entry is an integer
    scale = lcm(*(r[pc] for r, pc in zip(R, pivot_cols)))
    basis = []
    for fcol in range(ncols):
        if fcol in pivot_cols:
            continue
        v = [0] * ncols
        v[fcol] = scale
        for r, pc in zip(R, pivot_cols):
            v[pc] = -r[fcol] * (scale // r[pc])
        basis.append(v)
    return rref(basis)


def sum_space(a, b) -> tuple:
    return rref(tuple(a) + tuple(b))


def intersection(a, b, m: int) -> tuple:
    """Canonical integer basis of the intersection of two row spaces in Q^m."""
    if not a or not b:
        return ()
    # Zassenhaus: row-reduce [A|A; B|0]. The rows with zero left half
    # carry the intersection in their right half, and since they are the
    # trailing rows of a canonical basis they are already its canonical
    # basis.
    zero = (0,) * m
    big = [tuple(r) + tuple(r) for r in a] + [tuple(r) + zero for r in b]
    return tuple(r[m:] for r in rref(big) if not any(r[:m]))
