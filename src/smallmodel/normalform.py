"""Integer and mod-p matrix normal forms.

Sparse elimination over Z (Smith invariant factors) and over F_p (rank).
Matrices are given as lists of sparse columns, {row_index: coefficient}.
All arithmetic is exact; a configurable bit bound aborts loudly if
intermediate entries explode instead of silently producing garbage.

Smith reduction eliminates the +-1 pivots first, shortest column and
then shortest row first to limit fill (Dumas-Saunders-Villard 2001),
and runs the Euclidean loop only on the residual, with its entries
reduced modulo a nonzero maximal minor (Cohen, *A Course in
Computational Algebraic Number Theory*, 2.4.14, one Bareiss elimination
per block of the residual) so they cannot grow.
That loop is flat: take the least entry, clear its column and row by
floor quotients, and start again while a remainder is left.
Homology over Z walks the boundaries bottom up and reduces d_(k+1)
without the rows that were unit pivot columns of d_k: each such pivot
is one step of Gaussian elimination on the chain complex, which removes
a (k-1)-cell and a k-cell and leaves d_(k+1) with that k-cell's row
dropped, so the invariant factors of every degree, torsion included,
do not change (Kaczynski-Mrozek-Slusarek, *Homology computation by
reduction of chain complexes*, 1998; Skoldberg, *Morse theory from an
algebraic viewpoint*, 2006). Like clearing over F_p below, this needs
d_k d_(k+1) = 0.

Rank over F_p (p must be prime) reduces each column against the
columns before it by its largest row index. Homology over F_p uses it
with clearing (Chen-Kerber, *Persistent homology computation with a
twist*, 2011), walking from the end of the complex with fewer cells.
Top down, the column of d_k indexed by the lead row of each reduced
column of d_(k+1) is skipped. Bottom up, when the lowest degree has
fewer cells than the top one, the coboundaries d_k^T are reduced
instead (de Silva, Morozov and Vejdemo-Johansson, *Dualities in
persistent (co)homology*, 2011; Bauer, *Ripser*, 2021), and the column
of d_(k+1)^T indexed by the lead row of each reduced column of d_k^T is
skipped: the top-degree cycles of a building are then never reduced.
Both are exact when d_k d_(k+1) = 0, since (d_k d_(k+1))^T =
d_(k+1)^T d_k^T: a reduced column is a boundary (a coboundary) with
its lead in the skipped column's index, so that column is a combination
of the columns before it. A top-down walk hands ``rank_mod_p`` the
complex's own columns, which it copies into residues mod p and never
changes; a bottom-up walk hands it fresh transposed columns of residues
(``_Residues``), which it reduces without a copy. ``complexes.chain_complex`` guarantees
d d = 0 by construction and ``complexes.tensor_total`` by checking its
two factors (and a quotient on its own cells), for the product and for
the diagonal and quotient that ``diagonal.build_diagonal`` takes from it;
a ``ChainComplex`` built with ``check=False`` must satisfy it too.
"""

from __future__ import annotations

import heapq
from math import gcd

DEFAULT_BIT_BOUND = 4096


class PivotExplosion(RuntimeError):
    """An intermediate Smith-reduction entry exceeded the bit bound."""


class _Sparse:
    """Mutable sparse integer matrix, held twice: as rows {i: {j: v}} and
    as columns {j: {i: v}}, each the mirror of the other and with no empty
    line. The input columns are copied in directly, without the rows in
    ``skip`` and without zeros; with a ``modulus`` they are written by
    ``_sub``, which writes every entry an elimination step makes."""

    def __init__(self, columns, bit_bound, modulus=None, skip=frozenset()):
        self.cols = cols = {}
        self.rows = rows = {}
        self.bit_bound = bit_bound
        self.modulus = modulus  # entries kept as residues in (-modulus/2, modulus/2]
        if modulus:
            for j, col in enumerate(columns):
                # column j of the empty matrix minus -1 times the input column
                self._sub(cols, rows, j, col, -1)
            return
        for j, col in enumerate(columns):
            line = {}
            for i, v in col.items():
                if v and i not in skip:
                    line[i] = v
                    row = rows.get(i)
                    if row is None:
                        rows[i] = {j: v}
                    else:
                        row[j] = v
            if not line:
                continue
            cols[j] = line
            if max(line.values()).bit_length() > bit_bound or \
                    min(line.values()).bit_length() > bit_bound:
                i = next(i for i, v in line.items() if v.bit_length() > bit_bound)
                raise PivotExplosion(f"entry at ({i},{j}) exceeds {bit_bound} bits")

    def _sub(self, lines, mirror, dst, line, q):
        """lines[dst] -= q * line, for a ``line`` that is not lines[dst],
        keeping ``mirror`` (the other index) in step: entries are reduced
        modulo the modulus, and one wider than the bit bound raises
        ``PivotExplosion`` naming its (row, column)."""
        target = lines.get(dst)
        if target is None:
            target = lines[dst] = {}
        m = self.modulus
        bound = self.bit_bound
        for k, v in line.items():
            w = target.get(k, 0) - q * v
            if m:
                w %= m
                if 2 * w > m:
                    w -= m
            if w:
                if w.bit_length() > bound:
                    i, j = (dst, k) if lines is self.rows else (k, dst)
                    raise PivotExplosion(f"entry at ({i},{j}) exceeds {bound} bits")
                target[k] = w
                other = mirror.get(k)
                if other is None:
                    mirror[k] = {dst: w}
                else:
                    other[dst] = w
            elif k in target:
                # mirror[k] keeps the entry of ``line``, so it is not left empty
                del target[k]
                del mirror[k][dst]
        if not target:
            del lines[dst]

    def get(self, i, j):
        return self.rows.get(i, {}).get(j, 0)

    def row_op(self, dst, src, q):
        # row[dst] -= q * row[src]
        self._sub(self.rows, self.cols, dst, self.rows.get(src, {}), q)

    def col_op(self, dst, src, q):
        # col[dst] -= q * col[src]
        self._sub(self.cols, self.rows, dst, self.cols.get(src, {}), q)

    def min_entry(self):
        best = None
        for i, row in self.rows.items():
            for j, v in row.items():
                a = abs(v)
                if a == 1:
                    return i, j, v
                if best is None or a < best[0]:
                    best = (a, i, j, v)
        if best is None:
            return None
        return best[1], best[2], best[3]

    def drop_cross(self, i, j):
        """Delete row i and column j."""
        for index, mirror, line in ((self.rows, self.cols, i), (self.cols, self.rows, j)):
            for k in index.pop(line, ()):
                rest = mirror[k]
                del rest[line]
                if not rest:
                    del mirror[k]


def _eliminate_units(mat, lows=None) -> int:
    """Pivot on +-1 entries until none is left; return the pivot count.
    If ``lows`` is a set, the column of every pivot is added to it.

    Columns come off a heap shortest first; in each, the unit with the
    shortest row is the pivot. Its column is cleared by exact row
    operations, after which its row is cleared by column operations that
    change nothing else, so the pivot's row and column are dropped, each
    pivot a factor 1. Only the pivot row's columns change, and they are
    queued again with their new lengths; older heap entries are skipped.
    """
    heap = [(len(col), j) for j, col in mat.cols.items()]
    heapq.heapify(heap)
    pivots = 0
    while heap:
        n, j0 = heapq.heappop(heap)
        col = mat.cols.get(j0)
        if col is None or len(col) != n:
            continue
        units = [i for i, v in col.items() if v == 1 or v == -1]
        if not units:
            continue
        i0 = min(units, key=lambda i: len(mat.rows[i]))
        v = col[i0]
        for i, w in list(col.items()):
            if i != i0:
                mat.row_op(i, i0, w * v)
        touched = [j for j in mat.rows[i0] if j != j0]
        mat.drop_cross(i0, j0)
        pivots += 1
        if lows is not None:
            lows.add(j0)
        for j in touched:
            if j in mat.cols:
                heapq.heappush(heap, (len(mat.cols[j]), j))
    return pivots


def _rank_and_minor(columns):
    """Rank r over Q and the absolute value of a nonzero r x r minor.

    Columns joined by a shared row form one block, and a permutation of
    rows and columns makes the matrix block diagonal, so the rank is the
    sum of the blocks' ranks and the product of their minors is a minor."""
    by_row = {}
    for j, col in enumerate(columns):
        for i in col:
            by_row.setdefault(i, []).append(j)
    seen = set()
    rank, minor = 0, 1
    for j in range(len(columns)):
        if j in seen:
            continue
        seen.add(j)
        block, stack = [], [j]
        while stack:
            col = columns[stack.pop()]
            block.append(col)
            for i in col:
                for k in by_row.pop(i, ()):
                    if k not in seen:
                        seen.add(k)
                        stack.append(k)
        r, m = _bareiss(block)
        rank += r
        minor *= m
    return rank, minor


def _bareiss(columns):
    """Rank and minor of one block, densified, by fraction-free (Bareiss)
    elimination; every entry it makes is a minor."""
    rows = sorted({i for col in columns for i in col})
    at = {i: k for k, i in enumerate(rows)}
    work = []
    for col in columns:
        dense = [0] * len(rows)
        for i, v in col.items():
            dense[at[i]] = v
        work.append(dense)
    rank, prev = 0, 1
    for c in range(len(rows)):
        piv = next((k for k in range(rank, len(work)) if work[k][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        top = work[rank]
        for k in range(rank + 1, len(work)):
            w = work[k]
            a = w[c]
            w[c] = 0
            for cc in range(c + 1, len(rows)):
                w[cc] = (top[c] * w[cc] - a * top[cc]) // prev
        prev = top[c]
        rank += 1
    return rank, abs(prev)


def invariant_factors(columns, bit_bound: int = DEFAULT_BIT_BOUND, *,
                      cleared=frozenset(), lows=None) -> list[int]:
    """Nonzero Smith invariant factors (positive, divisibility-ordered).

    ``columns`` is a list of sparse columns {row: int}. The number of
    factors equals the rank of the matrix over Q. Rows whose index is in
    ``cleared`` are left out, so the caller vouches that leaving them out
    keeps the factors. For d_(k+1) of a complex, row b may go when b is
    the column of a unit pivot of d_k: the column operations that clear
    the pivot's row change the basis of C_k, and in the new basis every
    cycle of d_k keeps its other coordinates and has 0 at b. The columns
    of d_(k+1) are cycles when d_k d_(k+1) = 0, which this needs, as
    clearing over F_p does. If ``lows`` is a set, the column of every
    unit pivot is added to it. A pivot of the Euclidean residual is
    taken modulo a minor, which is no change of basis over Z, and is not
    added.
    """
    mat = _Sparse(columns, bit_bound, skip=cleared)
    factors = [1] * _eliminate_units(mat, lows)
    if not mat.cols:
        return factors
    # The residual's columns span a lattice L of rank r, and det, a nonzero
    # r x r minor, is a multiple of each of its invariant factors. Adding
    # the columns det * I gives factors s_1..s_r followed only by copies
    # of det, and lets every entry be reduced mod det; a pivot v then
    # stands for gcd(v, det).
    residual = list(mat.cols.values())
    rank, det = _rank_and_minor(residual)
    mat = _Sparse(residual, bit_bound, modulus=det)
    # Each round takes the least entry v, or keeps the pivot of the round
    # before, and reduces its column and then its row by floor quotients.
    # That leaves remainders below |v| <= det/2, which the modulus keeps as
    # they are, so a remainder left makes the least entry smaller. A lone
    # pivot that does not divide some entry takes that entry's row into its
    # own, and the round after must leave a remainder in it. Otherwise v is
    # a factor and its row and column go. So each round drops a row, makes
    # the least entry smaller or sets up a round that does: the loop ends.
    pivots = []
    kept = None
    while mat.rows:
        i0, j0, v = kept or mat.min_entry()
        kept = None
        for i in list(mat.cols[j0]):
            if i != i0:
                mat.row_op(i, i0, mat.get(i, j0) // v)
        for j in list(mat.rows[i0]):
            if j != j0:
                mat.col_op(j, j0, mat.get(i0, j) // v)
        if len(mat.cols[j0]) > 1 or len(mat.rows[i0]) > 1:
            continue
        # the pivot's own row holds v alone, so it is never the offender
        offender = next((i for i, row in mat.rows.items() if any(w % v for w in row.values())),
                        None)
        if offender is not None:
            mat.row_op(i0, offender, -1)
            kept = i0, j0, v
            continue
        pivots.append(gcd(v, det))
        mat.drop_cross(i0, j0)
    if len(pivots) > rank:
        raise ArithmeticError(f"{len(pivots)} Smith pivots for a residual of rank {rank}")
    factors += pivots + [det] * (rank - len(pivots))
    # every accepted pivot divides all later entries, so its gcd with det
    # divides them and det after any reduction mod det: the factors come
    # out as a divisibility chain; anything else is a reduction bug
    if any(b % a for a, b in zip(factors, factors[1:])):
        raise ArithmeticError(f"Smith factors out of divisibility order: {factors}")
    return factors


MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n) -> bool:
    """True iff ``n`` is an int and a prime: trial division by the first 13
    primes, then Miller-Rabin with them as bases, which is exact below
    ``MILLER_RABIN_BOUND`` (Sorenson and Webster, 2017). Raises
    ``ValueError`` naming an ``n`` at or above it: no answer is guessed."""
    if not isinstance(n, int) or n < 2:
        return False
    for b in MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:
        return True
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(f"cannot decide whether {n} is prime: Miller-Rabin on the "
                         f"first 13 primes is exact only below {MILLER_RABIN_BOUND}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    for b in MILLER_RABIN_BASES:
        # b proves n composite if b^d != 1 and b^(d 2^r) != -1 for all r < s
        x = pow(b, d, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


class _Residues(dict):
    """A sparse column {row: residue} whose entries are the nonzero
    residues mod p in 1..p-1, made fresh for one ``rank_mod_p`` call over
    F_p, which reduces it in place instead of copying it."""

    __slots__ = ()


def rank_mod_p(columns, p: int, *, cleared=frozenset(), lows=None) -> int:
    """Rank over F_p of a sparse column matrix, given as an iterable of
    columns {row: coefficient}, each read once.

    Columns are reduced left to right; a column's lead is its largest
    row index, and the rank is the number of distinct leads. Columns
    whose index is in ``cleared`` are skipped, so the caller vouches that
    each is a combination of the columns before it. If ``lows`` is a
    set, the lead of every nonzero reduced column is added to it.

    A column is copied into its nonzero residues mod p before it is
    reduced, so the caller's columns never change: the top-down walks of
    ``ChainComplex.homology`` hand in the complex's own columns. Only a
    ``_Residues`` column, which the bottom-up walk makes fresh for this
    call, is reduced as it stands, without a copy. A pivot keeps its
    lead, scaled to 1 mod p, so a column that is a pivot as it comes
    keeps the table it was built with; if that column is the caller's,
    with no entry 0 mod p and its lead 1 mod p, the pivot is the
    caller's column itself, only read.
    """
    if not is_prime(p):
        raise ValueError(f"rank_mod_p needs a prime modulus, got {p!r}")
    pivots = {}  # lead -> its reduced column, the lead 1 mod p
    for j, col in enumerate(columns):
        if j in cleared:
            continue
        if type(col) is _Residues:
            work = col
        else:
            work = {i: v % p for i, v in col.items() if v % p}
        # a copy that dropped no entry of the caller's column and that no
        # step changes may be stored as that column, which is only read
        same = work is not col and len(work) == len(col)
        while work:
            lead = max(work)
            factor = work[lead]
            pivot = pivots.get(lead)
            if pivot is None:
                if factor != 1:
                    inv = pow(factor, p - 2, p)
                    work = {i: v * inv % p for i, v in work.items()}
                elif same:
                    work = col
                pivots[lead] = work
                break
            same = False
            # the pivot's lead is 1 mod p, so this clears work[lead] too
            for i, v in pivot.items():
                # p is prime and v is not 0 mod p, so factor * v is not 0
                # mod p: an entry that becomes 0 was nonzero and is present
                w = (work.get(i, 0) - factor * v) % p
                if w:
                    work[i] = w
                else:
                    del work[i]
    if lows is not None:
        lows.update(pivots)
    return len(pivots)
