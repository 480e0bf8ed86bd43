"""The simplicial diagonal in C x C and its quotient, from cell labels.

Cells of the product C x C are pairs (sigma, tau) of simplices with
total degree dim(sigma) + dim(tau). A pair is a diagonal cell when the
union of its two factors spans a simplex of C; for flag complexes this
is exactly the chain-level support of the union of the squares
sigma x sigma. The quotient of the product by the diagonal computes
relative homology (group action specialized to the trivial group, so
equivariant statements reduce to ordinary ones).

Both are built from the cell labels, with d(sigma x tau) = d(sigma) x
tau + (-1)^dim(sigma) sigma x d(tau); the product complex is never built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

from .complexes import ChainComplex, ComplexError, SimplicialComplex, homology, total_cells
from .report import VERIFIED, VIOLATION, Report


def product_cells(K: SimplicialComplex) -> dict:
    """Cells of C x C by total degree as pairs (sigma, tau) of simplices,
    in the order of ``complexes.total_cells``, which ``tensor_total``
    gives its bases."""
    ranks = K.f_vector()
    return {
        n: [(K.simplices(i)[a], K.simplices(j)[b]) for i, a, j, b in cells]
        for n, cells in total_cells(ranks, ranks).items()
    }


@dataclass(frozen=True)
class ProductCells:
    """The labelled cells of C x C by total degree; no boundary."""

    cells: dict


def _is_diagonal_cell(K, pair):
    s, t = pair
    return K.has_simplex(set(s) | set(t))


class _SignedFaces(dict):
    """Sorted simplex -> its codimension-one faces with their boundary
    signs, each computed once; a vertex has none (no augmentation)."""

    def __missing__(self, s):
        faces = tuple((s[:k] + s[k + 1:], -1 if k % 2 else 1)
                      for k in range(len(s))) if len(s) > 1 else ()
        self[s] = faces
        return faces


def _labelled_complex(cells, picked, ring, closed) -> ChainComplex:
    """The chain complex on the product cells ``cells[n][i]`` for i in
    ``picked[n]``, in that order, with each boundary column read off the
    labels. A face outside the picked cells raises when ``closed`` (the
    diagonal must be a subcomplex: this is verified, not assumed) and is
    dropped otherwise (the quotient by the diagonal). Shapes and d∘d are
    checked, since clearing over F_p relies on d∘d = 0."""
    labels = {n: [cells[n][i] for i in idxs] for n, idxs in picked.items()}
    # a pair fixes its degree, so one index serves every degree
    pos = {cell: p for row in labels.values() for p, cell in enumerate(row)}
    faces = _SignedFaces()
    boundaries = {}
    for n in sorted(labels):
        if n == 0:
            continue
        cols = []
        for s, t in labels[n]:
            twist = -1 if len(s) % 2 == 0 else 1
            col = {}
            for face, sign in faces[s]:
                col[pos.get((face, t))] = sign
            for face, sign in faces[t]:
                col[pos.get((s, face))] = twist * sign
            if None in col:  # faces outside the picked cells
                if closed:
                    raise ComplexError("diagonal cells are not closed under the boundary")
                del col[None]
            cols.append(col)
        boundaries[n] = cols
    return ChainComplex(ring, [len(labels[n]) for n in sorted(labels)], boundaries)


@dataclass
class SubquotientComplexes:
    """The diagonal subcomplex of C x C and its quotient, built on first
    access; ``diagonal_cells[n]`` and ``quotient_cells[n]`` index ``product.cells[n]``."""

    product: ProductCells
    diagonal: ChainComplex
    diagonal_cells: dict
    quotient_cells: dict
    ring: object

    @cached_property
    def quotient(self) -> ChainComplex:
        return _labelled_complex(self.product.cells, self.quotient_cells, self.ring, closed=False)


def build_diagonal(K: SimplicialComplex, ring="Z", warn_non_flag=True) -> SubquotientComplexes:
    """Split the cells of C x C into the diagonal subcomplex and the rest.

    Closure of the diagonal under the product boundary is verified, not
    assumed. Non-flag inputs are accepted with a warning: the chain model
    of the diagonal matches the geometric one only for flag complexes.
    """
    if warn_non_flag and not K.is_flag():
        warnings.warn("diagonal chain model applied to a non-flag complex")
    cells = product_cells(K)
    diag_cells, quot_cells = {}, {}
    for n, labels in cells.items():
        on = [_is_diagonal_cell(K, pair) for pair in labels]
        diag_cells[n] = [idx for idx, d in enumerate(on) if d]
        quot_cells[n] = [idx for idx, d in enumerate(on) if not d]
    diag = _labelled_complex(cells, diag_cells, ring, closed=True)
    return SubquotientComplexes(ProductCells(cells), diag, diag_cells, quot_cells, ring)


def _check(name: str, ok: bool, details: dict) -> Report:
    return Report(VERIFIED if ok else VIOLATION, {"check": name, **details})


def check_retraction(K: SimplicialComplex, ring="Z") -> Report:
    """Degreewise H(diagonal) == H(C): the computable shadow of the
    straight-line retraction of the diagonal onto the base."""
    parts = build_diagonal(K, ring, warn_non_flag=False)
    h_diag = parts.diagonal.homology()
    h_base = homology(K, ring, reduced=False)
    return _check("retraction", h_diag.same_groups(h_base),
                  {"H(diagonal)": h_diag.to_json(), "H(C)": h_base.to_json()})


def decomposition_check(K: SimplicialComplex) -> Report:
    """Exact rank bookkeeping: in first-degree i, the diagonal cells in
    total degree i+j are counted by the j-cells of the star closures of
    the i-simplices. Counts cells; builds no chain complex."""
    lhs = {}
    for cells in product_cells(K).values():
        for pair in cells:
            if _is_diagonal_cell(K, pair):
                key = (len(pair[0]) - 1, len(pair[1]) - 1)
                lhs[key] = lhs.get(key, 0) + 1
    mism = []
    table = {}
    for i in range(K.dim + 1):
        stars = [K.delta_sigma(s) for s in K.simplices(i)]
        for j in range(K.dim + 1):
            count = lhs.get((i, j), 0)
            rhs = sum(len(star.simplices(j)) for star in stars)
            table[f"({i},{j})"] = [count, rhs]
            if count != rhs:
                mism.append((i, j, count, rhs))
    return _check("decomposition", not mism, {"bidegree_counts": table, "mismatches": mism})


def long_exact_consistency(K: SimplicialComplex, p: int = 2) -> Report:
    """Over F_p the alternating sums of dim H(CxC), dim H(diagonal) and
    dim H(CxC, diagonal) must satisfy chi(product) = chi(diag) + chi(rel).
    The product's cells are pairs of cells of C, so chi(product) = chi(C)^2."""
    parts = build_diagonal(K, p, warn_non_flag=False)
    chi_prod = sum((-1) ** d * f for d, f in enumerate(K.f_vector())) ** 2
    chi_diag = parts.diagonal.homology().euler_characteristic()
    chi_rel = parts.quotient.homology().euler_characteristic()
    return _check("long-exact-consistency", chi_prod == chi_diag + chi_rel,
                  {"chi_product": chi_prod, "chi_diagonal": chi_diag,
                   "chi_relative": chi_rel})
