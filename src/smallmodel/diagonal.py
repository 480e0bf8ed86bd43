"""Product chains on C x C, the simplicial diagonal, and the quotient.

Cells of the product complex are pairs (sigma, tau) of simplices with
total degree dim(sigma) + dim(tau). A pair is a diagonal cell when the
union of its two factors spans a simplex of C; for flag complexes this
is exactly the chain-level support of the union of the squares
sigma x sigma. The quotient of the product by the diagonal computes
relative homology (group action specialized to the trivial group, so
equivariant statements reduce to ordinary ones).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .complexes import (
    ChainComplex,
    ComplexError,
    SimplicialComplex,
    chain_complex,
    homology,
    tensor_total,
    total_cells,
)
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


class ProductChainComplex:
    """Total complex of C_*(C) tensor C_*(C) with labelled cells."""

    def __init__(self, K: SimplicialComplex, ring="Z"):
        cc = chain_complex(K, ring)
        self.chain = tensor_total(cc, cc)
        self.cells = product_cells(K)

    def cell_count(self, n):
        return len(self.cells.get(n, []))


@dataclass
class SubquotientComplexes:
    """Diagonal subcomplex and quotient of a product complex."""

    product: ProductChainComplex
    diagonal: ChainComplex
    quotient: ChainComplex
    diagonal_cells: dict
    quotient_cells: dict


def _is_diagonal_cell(K, pair):
    s, t = pair
    return K.has_simplex(sorted(set(s) | set(t)))


def build_diagonal(K: SimplicialComplex, ring="Z", warn_non_flag=True) -> SubquotientComplexes:
    """Split product chains into the diagonal subcomplex and its quotient.

    Closure of the diagonal under the product boundary is verified, not
    assumed. Non-flag inputs are accepted with a warning: the chain model
    of the diagonal matches the geometric one only for flag complexes.
    """
    if warn_non_flag and not K.is_flag():
        warnings.warn("diagonal chain model applied to a non-flag complex")
    prod = ProductChainComplex(K, ring)
    diag_cells, quot_cells = {}, {}
    for n, cells in prod.cells.items():
        on = [_is_diagonal_cell(K, pair) for pair in cells]
        diag_cells[n] = [idx for idx, d in enumerate(on) if d]
        quot_cells[n] = [idx for idx, d in enumerate(on) if not d]

    def restrict(cell_lists, complain):
        pos_of = {(n, idx): p for n, idxs in cell_lists.items() for p, idx in enumerate(idxs)}
        ranks = [len(cell_lists[n]) for n in sorted(cell_lists)]
        boundaries = {}
        for n in sorted(cell_lists):
            if n == 0:
                continue
            src_cols = prod.chain.boundary_columns(n)
            cols = []
            for idx in cell_lists[n]:
                col = {}
                for i, v in src_cols[idx].items():
                    # a face outside the list: the diagonal is not closed,
                    # or, in the quotient, a diagonal face that is dropped
                    p = pos_of.get((n - 1, i))
                    if p is not None:
                        col[p] = v
                    elif complain:
                        raise ComplexError("diagonal cells are not closed under the boundary")
                cols.append(col)
            boundaries[n] = cols
        return ChainComplex(ring, ranks, boundaries, check=False)

    diag = restrict(diag_cells, complain=True)
    quot = restrict(quot_cells, complain=False)
    diag.check_dd_zero()
    quot.check_dd_zero()
    return SubquotientComplexes(prod, diag, quot, diag_cells, quot_cells)


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


def quotient_vanishing(K: SimplicialComplex, ring="Z", n: int | None = None) -> Report:
    """Relative homology H_k(C x C, diagonal) through the quotient complex.

    Reports every degree and whether it vanishes; when a threshold n is
    given, flags the degrees k >= n-1 that fail to vanish.
    """
    parts = build_diagonal(K, ring, warn_non_flag=False)
    h = parts.quotient.homology()
    nz = h.nonzero_degrees()
    details = {"H(CxC, diagonal)": h.to_json(), "nonzero_degrees": nz}
    if n is None:
        return _check("quotient-vanishing", not nz, details)
    bad = [k for k in nz if k >= n - 1]
    details["threshold"] = n - 1
    details["failures_at_or_above_threshold"] = bad
    return _check("quotient-vanishing", not bad, details)


def long_exact_consistency(K: SimplicialComplex, p: int = 2) -> Report:
    """Over F_p the alternating sums of dim H(CxC), dim H(diagonal) and
    dim H(CxC, diagonal) must satisfy chi(product) = chi(diag) + chi(rel)."""
    parts = build_diagonal(K, p, warn_non_flag=False)
    chi_prod = sum(
        (-1) ** n * parts.product.cell_count(n) for n in parts.product.cells
    )
    chi_diag = parts.diagonal.homology().euler_characteristic()
    chi_rel = parts.quotient.homology().euler_characteristic()
    return _check("long-exact-consistency", chi_prod == chi_diag + chi_rel,
                  {"chi_product": chi_prod, "chi_diagonal": chi_diag,
                   "chi_relative": chi_rel})
