"""Finite abstract simplicial complexes and their chain complexes.

Simplices are stored as sorted tuples of vertex indices; boundary signs
come from the induced ordering, so homology is independent of the input
labelling. Chain complexes live over Z or F_p and homology is computed
through the sparse normal forms in :mod:`smallmodel.normalform`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .normalform import _Residues, invariant_factors, is_prime, rank_mod_p
from .report import json_field, json_list


# size guards: a complex is refused when its facets have more than
# MAX_FACES faces, counted facet by facet (2^|f| - 1 each, shared faces
# again), and a tensor product when it has more than MAX_PRODUCT_CELLS cells
MAX_FACES = 2**19
MAX_PRODUCT_CELLS = 2**18


class ComplexError(ValueError):
    pass


def _check_ring(ring):
    if ring == "Z" or is_prime(ring):
        return ring
    raise ComplexError(f"ring must be 'Z' or a prime, got {ring!r}")


class SimplicialComplex:
    """Downward-closed set system on an ordered finite vertex set."""

    def __init__(self, vertices, facets):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ComplexError("duplicate vertex labels")
        index = {v: i for i, v in enumerate(self.vertices)}
        fsets = []
        faces = 0
        for f in facets:
            fs = frozenset(index[v] if v in index else self._missing(v) for v in f)
            if not fs:
                raise ComplexError("empty facet")
            faces += (1 << len(fs)) - 1
            if faces > MAX_FACES:
                raise ComplexError(f"size guard: the facets have more than MAX_FACES = "
                                   f"{MAX_FACES} faces, counted facet by facet")
            fsets.append(fs)
        if not fsets:
            raise ComplexError("complex has no facets (empty complex rejected)")
        # one pass, largest first: a facet already in the downward closure
        # of the earlier ones is a face of one of them (or a repeat)
        maximal = []
        seen = set()
        for f in sorted(fsets, key=len, reverse=True):
            t = tuple(sorted(f))
            if t in seen:
                continue
            maximal.append(f)
            for k in range(1, len(t) + 1):
                seen.update(itertools.combinations(t, k))
        self.facets = frozenset(maximal)
        by_dim: dict[int, list[tuple[int, ...]]] = {}
        for s in seen:
            by_dim.setdefault(len(s) - 1, []).append(s)
        self._simplices = {d: sorted(ss) for d, ss in sorted(by_dim.items())}
        self._index = {
            d: {s: i for i, s in enumerate(ss)} for d, ss in self._simplices.items()
        }
        self._boundaries = None

    @staticmethod
    def _missing(v):
        raise ComplexError(f"facet vertex {v!r} not declared")

    # -- basic queries -------------------------------------------------

    @property
    def dim(self) -> int:
        return max(self._simplices)

    def simplices(self, d: int) -> list[tuple[int, ...]]:
        """Sorted d-simplices as tuples of vertex indices."""
        return self._simplices.get(d, [])

    def all_simplices(self):
        for d in sorted(self._simplices):
            yield from self._simplices[d]

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(self._simplices.get(d, [])) for d in range(self.dim + 1))

    def signed_boundaries(self) -> dict:
        """{d: one column {index of face: (-1)^j} per d-simplex, face j
        dropping vertex j}, for d >= 1. The entries are +-1 over every
        ring, so they are built once, on first use, and every chain
        complex of K shares them: nothing may change them in place."""
        if self._boundaries is None:
            self._boundaries = {}
            for d in range(1, self.dim + 1):
                idx = self._index[d - 1]
                self._boundaries[d] = [
                    {idx[s[:j] + s[j + 1:]]: -1 if j & 1 else 1 for j in range(len(s))}
                    for s in self._simplices[d]
                ]
        return self._boundaries

    def has_simplex(self, s) -> bool:
        t = tuple(sorted(s))
        return self._index.get(len(t) - 1, {}).get(t) is not None

    def is_flag(self) -> bool:
        """True iff every clique of the 1-skeleton spans a simplex; the
        faces of a simplex are simplices, so the maximal cliques decide."""
        adj = {v: set() for (v,) in self.simplices(0)}
        for a, b in self.simplices(1):
            adj[a].add(b)
            adj[b].add(a)
        return all(self.has_simplex(c) for c in maximal_cliques(adj))

    # -- subcomplexes --------------------------------------------------

    def _from_index_facets(self, facets_idx):
        labels = [[self.vertices[i] for i in f] for f in facets_idx]
        used = sorted({i for f in facets_idx for i in f})
        return SimplicialComplex([self.vertices[i] for i in used], labels)

    def delta_sigma(self, sigma) -> "SimplicialComplex":
        """Union of the closed simplices containing sigma."""
        s = set(self._need(sigma))
        facets = [sorted(f) for f in self.facets if s <= f]
        return self._from_index_facets(facets)

    def neighborhood(self, sigma) -> "SimplicialComplex":
        """N(sigma): union of the closed simplices meeting sigma."""
        s = set(self._need(sigma))
        facets = [sorted(f) for f in self.facets if s & f]
        return self._from_index_facets(facets)

    def _need(self, sigma):
        t = tuple(sorted(sigma))
        if not self.has_simplex(t):
            raise ComplexError(f"{sigma} is not a simplex")
        return t

    def relabel(self, mapping) -> "SimplicialComplex":
        verts = [mapping[v] for v in self.vertices]
        facets = [[mapping[self.vertices[i]] for i in f] for f in self.facets]
        return SimplicialComplex(sorted(verts), facets)

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": [str(v) for v in self.vertices],
            "facets": [sorted(str(self.vertices[i]) for i in f) for f in sorted(self.facets, key=sorted)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SimplicialComplex":
        """A complex from ``{"vertices": [...], "facets": [[...], ...]}``;
        a facet that names a vertex twice is refused, not read as a set."""
        facets = [json_list(f, "facet") for f in json_list(json_field(data, "facets"), "facets")]
        for f in facets:
            if len(set(f)) != len(f):
                raise ComplexError(f"facet {f!r} repeats a vertex")
        return cls(json_list(json_field(data, "vertices"), "vertices"), facets)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomologyTable:
    """Per-degree free rank and invariant-factor torsion."""

    reduced: bool
    ring: object
    entries: tuple  # ((degree, rank, (torsion, ...)), ...)

    def rank(self, k: int) -> int:
        for d, r, _ in self.entries:
            if d == k:
                return r
        return 0

    def torsion(self, k: int) -> tuple:
        for d, _, t in self.entries:
            if d == k:
                return t
        return ()

    def nonzero_degrees(self):
        return [d for d, r, t in self.entries if r or t]

    def is_trivial(self) -> bool:
        return not self.nonzero_degrees()

    def euler_characteristic(self) -> int:
        chi = sum((-1) ** d * r for d, r, _ in self.entries)
        return chi

    def to_json(self):
        return [
            {"degree": d, "rank": r, "torsion": list(t)}
            for d, r, t in self.entries
            if r or t
        ]

    def same_groups(self, other: "HomologyTable") -> bool:
        mine = {(d, r, t) for d, r, t in self.entries if r or t}
        theirs = {(d, r, t) for d, r, t in other.entries if r or t}
        return mine == theirs


class ChainComplex:
    """Graded free modules over Z or F_p with sparse boundary columns.

    ``boundaries[k]`` is a list (one per degree-k basis cell) of sparse
    columns {index of (k-1)-cell: coefficient}. Degrees run 0..top; a
    reduced complex carries an augmentation from degree 0 to a rank-1
    degree -1.
    """

    def __init__(self, ring, ranks, boundaries, augmented=False, check=True):
        self.ring = _check_ring(ring)
        self.ranks = list(ranks)
        self.boundaries = {k: cols for k, cols in boundaries.items()}
        self.augmented = augmented
        if check:
            self.check_shapes()
            self.check_dd_zero()

    def rank(self, k):
        if k == -1:
            return 1 if self.augmented else 0
        if 0 <= k < len(self.ranks):
            return self.ranks[k]
        return 0

    @property
    def top(self):
        return len(self.ranks) - 1

    def check_shapes(self):
        for k, cols in self.boundaries.items():
            if len(cols) != self.rank(k):
                raise ComplexError(f"boundary {k} has {len(cols)} columns, rank {self.rank(k)}")
            below = self.rank(k - 1)
            for col in cols:
                if any(not (0 <= i < below) for i in col):
                    raise ComplexError(f"boundary {k} hits indices outside degree {k-1}")

    def check_dd_zero(self):
        mod = None if self.ring == "Z" else self.ring
        for k in sorted(self.boundaries):
            lower = self.boundaries.get(k - 1)
            if lower is None:
                continue
            for col in self.boundaries[k]:
                acc: dict[int, int] = {}
                for i, v in col.items():
                    for i2, v2 in lower[i].items():
                        acc[i2] = acc.get(i2, 0) + v * v2
                for v in acc.values():
                    if (v % mod) if mod else v:
                        raise ComplexError("boundary composition is nonzero")

    def boundary_columns(self, k):
        cols = self.boundaries.get(k)
        return cols if cols is not None else [{} for _ in range(self.rank(k))]

    def homology(self) -> HomologyTable:
        """Free ranks and torsion of H_k for each degree.

        One walk over the degrees, with clearing: the pivot columns found
        in one boundary name the lines of the next one that are skipped.
        Over Z the walk goes bottom up and H_k comes from the Smith
        invariant factors of each boundary. A +-1 pivot that the unit
        phase takes in d_k, at a (k-1)-cell a and a k-cell b, is a step of
        Gaussian elimination on the complex (Kaczynski-Mrozek-Slusarek
        1998): it removes a and b, and the only change it makes to
        d_(k+1) is that row b is dropped. So d_(k+1) is reduced without
        the rows of d_k's unit pivots, with the same invariant factors.
        Over F_p the walk starts from the end with fewer cells (Chen-Kerber
        2011). Top down, a column of d_k indexed by the lead row of a
        reduced column of d_(k+1) is skipped: that column of d_(k+1) is a
        boundary, so d_k sends it to 0, and the skipped column of d_k is a
        combination of the columns before it. When the lowest degree has
        fewer cells than the top one, the walk goes bottom up over the
        coboundaries d_k^T (de Silva-Morozov-Vejdemo-Johansson 2011),
        which have the same ranks, and a column of d_(k+1)^T indexed by
        the lead row of a reduced column of d_k^T is skipped, by the same
        argument with d_(k+1)^T d_k^T = (d_k d_(k+1))^T = 0; so the
        top-degree cycles, all of a building's homology, are never
        reduced. Those columns are the k-cells whose rows the Z walk
        skips. An empty degree skips nothing in the next one. Top down,
        ``rank_mod_p`` copies the complex's shared columns into residues
        mod p; bottom up, ``_transposed`` writes the residues once, and
        ``rank_mod_p`` reduces them without a copy. Every ring
        needs d_k d_(k+1) = 0, which ``chain_complex`` guarantees by
        construction and ``tensor_total`` (also for the diagonal and
        quotient of ``diagonal.build_diagonal``) by checking its two
        factors, and a quotient on its own cells; a complex built with
        ``check=False`` must satisfy it too.
        """
        lowest = -1 if self.augmented else 0
        degrees = range(lowest, self.top + 1)
        over_z = self.ring == "Z"
        up = over_z or self.rank(lowest) < self.rank(self.top)
        rk, tors = {}, {}
        lows = set()
        for k in degrees if up else reversed(degrees):
            cols = self.boundaries.get(k)
            cleared, lows = lows, set()
            if not cols:
                continue
            if over_z:
                facs = invariant_factors(cols, cleared=cleared, lows=lows)
                rk[k] = len(facs)
                tors[k] = tuple(f for f in facs if f > 1)
            else:
                # bottom up, reduce the coboundaries d_k^T, whose columns
                # are the (k-1)-cells
                if up:
                    cols = _transposed(cols, self.rank(k - 1), self.ring)
                rk[k] = rank_mod_p(cols, self.ring, cleared=cleared, lows=lows)
        entries = tuple((k, self.rank(k) - rk.get(k, 0) - rk.get(k + 1, 0), tors.get(k + 1, ()))
                        for k in degrees)
        return HomologyTable(self.augmented, self.ring, entries)


def _transposed(cols, rows, p):
    """The columns of the transpose of ``cols``, a sparse matrix with
    ``rows`` rows, as the nonzero residues mod p: fresh ``_Residues``,
    handed out in order and each dropped once taken, which
    ``rank_mod_p`` reduces without copying them."""
    out = [_Residues() for _ in range(rows)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            v %= p
            if v:
                out[i][j] = v
    out.reverse()
    while out:
        yield out.pop()


def maximal_cliques(adj) -> list:
    """Maximal cliques of the graph {vertex: set of neighbours}, each as a
    sorted list, by Bron-Kerbosch with pivoting (Tomita, Tanaka and
    Takahashi, 2006)."""
    out = []

    def expand(clique, cand, done):
        if not cand and not done:
            out.append(sorted(clique))
            return
        pivot = max(cand | done, key=lambda u: len(cand & adj[u]))
        for u in list(cand - adj[pivot]):
            expand(clique + [u], cand & adj[u], done & adj[u])
            cand.remove(u)
            done.add(u)

    expand([], set(adj), set())
    return out


def chain_complex(K: SimplicialComplex, ring="Z", reduced=False) -> ChainComplex:
    ring = _check_ring(ring)
    ranks = [len(K.simplices(d)) for d in range(K.dim + 1)]
    boundaries = K.signed_boundaries()
    if reduced:
        boundaries = {**boundaries, 0: [{0: 1} for _ in K.simplices(0)]}
    return ChainComplex(ring, ranks, boundaries, augmented=reduced, check=False)


def homology(K: SimplicialComplex, ring="Z", reduced=True) -> HomologyTable:
    """Simplicial homology of K over Z or F_p (reduced by default)."""
    return chain_complex(K, ring, reduced=reduced).homology()


def guard_product(ranks_a, ranks_b) -> None:
    """Refuse a product of complexes with these ranks when it has more
    than MAX_PRODUCT_CELLS cells."""
    na, nb = sum(ranks_a), sum(ranks_b)
    if na * nb > MAX_PRODUCT_CELLS:
        raise ComplexError(f"size guard: {na} x {nb} cells give {na * nb} product cells, "
                           f"more than MAX_PRODUCT_CELLS = {MAX_PRODUCT_CELLS}")


def _blocks(ranks_a, ranks_b) -> dict:
    """The bidegree blocks (i, j) of A (x) B by total degree n = i + j,
    ordered by i: the one walk of a tensor product, from which
    ``total_cells`` and ``tensor_total`` both read their cell order. A
    product with more than MAX_PRODUCT_CELLS cells is refused."""
    guard_product(ranks_a, ranks_b)
    return {n: [(i, n - i) for i in range(max(0, n - len(ranks_b) + 1),
                                          min(n, len(ranks_a) - 1) + 1)]
            for n in range(len(ranks_a) + len(ranks_b) - 1)}


def total_cells(ranks_a, ranks_b) -> dict:
    """Cells of the total complex of A (x) B by degree n, each as
    (i, a, j, b): cell a of degree i of A times cell b of degree j of B,
    i + j = n. Ordered by i, then a, then b; this is the one cell order
    of a tensor product, which ``tensor_total`` builds block by block from
    the same walk, without listing the cells."""
    return {n: [(i, a, j, b) for i, j in blocks
                for a in range(ranks_a[i]) for b in range(ranks_b[j])]
            for n, blocks in _blocks(ranks_a, ranks_b).items()}


def tensor_total(A: ChainComplex, B: ChainComplex, keep=None, closed=True) -> ChainComplex:
    """Total complex of the tensor double complex, with the usual sign
    twist d(a x b) = da x b + (-1)^i a x db for a of degree i.

    With ``keep``, a predicate on the cells (i, a, j, b) of ``total_cells``,
    only the kept cells are built, in that order. A face outside them raises
    when ``closed`` (the kept cells must span a subcomplex: this is
    verified, not assumed) and is dropped otherwise (the quotient by the
    subcomplex on the other cells).

    The product is built one bidegree block (i, j) at a time: cell
    (i, a, j, b) is slot a*|B_j| + b of its block, the blocks of a degree
    laid end to end, and each degree maps its slots to the positions of
    its kept cells (a ``range`` when every cell is kept, None for a dropped
    one). Once per block the columns of d_i on A and d_j on B become (slot,
    coefficient) pairs, so a product column is da x b, shifted by b, then
    (-1)^i a x db, shifted by a*|B_(j-1)|; the two lie in different blocks,
    so no entry is summed, and each keeps its factor's column order.

    The shapes and d∘d of A and B are checked, each factor once. As
    d²(a x b) = d²a x b + a x d²b, the two terms in different bidegrees,
    d∘d vanishes on the product exactly when it does on both factors, and
    then on a kept subcomplex too, whose columns are the product's; so
    these are built unchecked. A quotient is checked on its own cells: its
    d∘d vanishes only if the dropped cells span a subcomplex."""
    if A.ring != B.ring:
        raise ComplexError("ring mismatch in tensor product")
    if A.augmented or B.augmented:
        raise ComplexError("tensor of augmented complexes not supported")
    factors = (A,) if B is A else (A, B)
    for factor in factors:
        factor.check_shapes()
        factor.check_dd_zero()
    blocks = _blocks(A.ranks, B.ranks)
    start, kept, at, ranks = {}, {}, {}, []
    for n, pairs in blocks.items():
        slot, flags = 0, []
        for i, j in pairs:
            start[i, j] = slot
            slot += A.ranks[i] * B.ranks[j]
            if keep is not None:
                kept[i, j] = list(map(bool, map(keep, itertools.product(
                    (i,), range(A.ranks[i]), (j,), range(B.ranks[j])))))
                flags += kept[i, j]
        if keep is None:
            at[n] = range(slot)
            ranks.append(slot)
        else:
            at[n] = [p if f else None
                     for p, f in zip(itertools.accumulate(flags, initial=0), flags)]
            ranks.append(sum(flags))
    # an explicit 0 in a factor column gives no entry of the product
    zeros = not all(all(col.values()) for F in factors
                    for cols in F.boundaries.values() for col in cols)
    a_cols = {i: A.boundary_columns(i) for i in range(1, A.top + 1)}
    b_cols = {j: B.boundary_columns(j) for j in range(1, B.top + 1)}
    boundaries = {}
    for n, pairs in blocks.items():
        if n == 0:
            continue
        below = at[n - 1]
        cols = []
        for i, j in pairs:
            ra, rb = A.ranks[i], B.ranks[j]
            sign = -1 if i & 1 else 1
            da = ([[(start[i - 1, j] + a2 * rb, v) for a2, v in col.items()]
                   for col in a_cols[i]] if i else [()] * ra)
            db = ([[(start[i, j - 1] + b2, sign * v) for b2, v in col.items()]
                   for col in b_cols[j]] if j else [()] * rb)
            step = B.rank(j - 1)
            cells = itertools.product(range(ra), range(rb))
            if keep is not None:
                cells = itertools.compress(cells, kept[i, j])
            for a, b in cells:
                col = {}
                for s, v in da[a]:
                    col[below[s + b]] = v
                shift = a * step
                for s, v in db[b]:
                    col[below[s + shift]] = v
                if None in col:
                    if closed:
                        raise ComplexError("kept cells are not closed under the boundary")
                    del col[None]
                if zeros:
                    col = {k: v for k, v in col.items() if v}
                cols.append(col)
        boundaries[n] = cols
    return ChainComplex(A.ring, ranks, boundaries, check=not closed)
