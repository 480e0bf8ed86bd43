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
    HomologyTable,
    SimplicialComplex,
    chain_complex,
    homology,
    tensor_total,
)
from .report import VERIFIED, VIOLATION, Report


class ProductChainComplex:
    """Total complex of C_*(C) tensor C_*(C) with labelled cells."""

    def __init__(self, K: SimplicialComplex, ring="Z"):
        self.base = K
        self.ring = ring
        cc = chain_complex(K, ring)
        self.chain = tensor_total(cc, cc)
        # labelled cells per degree, aligned with tensor_total ordering
        self.cells = {}
        for n in range(self.chain.top + 1):
            cl = []
            for i in range(min(n, K.dim) + 1):
                j = n - i
                if j > K.dim:
                    continue
                for s in K.simplices(i):
                    for t in K.simplices(j):
                        cl.append((s, t))
            self.cells[n] = cl

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
    diag_pos, quot_pos = {}, {}
    for n, cells in prod.cells.items():
        dlist, qlist = [], []
        for idx, pair in enumerate(cells):
            if _is_diagonal_cell(K, pair):
                diag_pos[(n, idx)] = len(dlist)
                dlist.append(idx)
            else:
                quot_pos[(n, idx)] = len(qlist)
                qlist.append(idx)
        diag_cells[n] = dlist
        quot_cells[n] = qlist

    def restrict(pos_of, cell_lists, complain):
        ranks = [len(cell_lists[n]) for n in sorted(cell_lists)]
        boundaries = {}
        for n in sorted(cell_lists):
            if n == 0:
                continue
            cols = []
            src_cols = prod.chain.boundary_columns(n)
            for idx in cell_lists[n]:
                src = src_cols[idx]
                col = {}
                for i, v in src.items():
                    p = pos_of.get((n - 1, i))
                    if p is None:
                        if complain:
                            raise ComplexError(
                                "diagonal cells are not closed under the boundary"
                            )
                        continue  # quotient: image of a diagonal cell is dropped
                    col[p] = v
                cols.append(col)
            boundaries[n] = cols
        return ChainComplex(ring, ranks, boundaries, check=False)

    diag = restrict(diag_pos, diag_cells, complain=True)
    quot = restrict(quot_pos, quot_cells, complain=False)
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
    the i-simplices."""
    parts = build_diagonal(K, warn_non_flag=False)
    mism = []
    table = {}
    for i in range(K.dim + 1):
        for j in range(K.dim + 1):
            lhs = 0
            for n, cells in parts.product.cells.items():
                if n != i + j:
                    continue
                for idx in parts.diagonal_cells[n]:
                    s, t = cells[idx]
                    if len(s) - 1 == i and len(t) - 1 == j:
                        lhs += 1
            rhs = 0
            for s in K.simplices(i):
                ds = K.delta_sigma(s)
                rhs += len(ds.simplices(j))
            table[f"({i},{j})"] = [lhs, rhs]
            if lhs != rhs:
                mism.append((i, j, lhs, rhs))
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
