"""The simplicial diagonal in C x C and its quotient, as restrictions of
the product.

Cells of the product C x C are pairs (sigma, tau) of simplices with
total degree dim(sigma) + dim(tau), in the order of
``complexes.total_cells``. A pair is a diagonal cell when the union of
its two factors spans a simplex of C; for flag complexes this is exactly
the chain-level support of the union of the squares sigma x sigma. The
quotient of the product by the diagonal computes relative homology
(group action specialized to the trivial group, so equivariant
statements reduce to ordinary ones).

Both are ``tensor_total(C, C)``, the one product boundary, restricted by
the one diagonal rule ``_diagonal_rule`` or by its negation, so the full
product complex is never built.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from math import comb

from .complexes import (
    ChainComplex, SimplicialComplex, chain_complex, guard_product, tensor_total, total_cells,
)
from .report import VERIFIED, VIOLATION, Report


@dataclass(frozen=True)
class ProductCells:
    """The cells of C x C by total degree, as ``complexes.total_cells``
    tuples (i, a, j, b): simplex a of dimension i times simplex b of
    dimension j; no boundary."""

    cells: dict


def _diagonal_rule(K):
    """The predicate on a cell (i, a, j, b) of C x C that is true when the
    union of the two simplices spans a simplex of K. The simplices are held
    as bitmasks of their vertex indices (bit v for vertex v), so a union is
    one ``|`` and a simplex one set lookup."""
    masks = [[sum(1 << v for v in s) for s in K.simplices(d)] for d in range(K.dim + 1)]
    faces = {m for level in masks for m in level}

    def on(cell):
        i, a, j, b = cell
        return masks[i][a] | masks[j][b] in faces

    return on


@dataclass
class SubquotientComplexes:
    """The diagonal subcomplex of C x C on the cells ``on`` keeps; the
    product's cells and the quotient are built on first access."""

    base: ChainComplex
    on: Callable[[tuple], bool]
    diagonal: ChainComplex

    @cached_property
    def product(self) -> ProductCells:
        return ProductCells(total_cells(self.base.ranks, self.base.ranks))

    @cached_property
    def quotient(self) -> ChainComplex:
        return tensor_total(self.base, self.base, keep=lambda c: not self.on(c), closed=False)

    def over(self, ring) -> "SubquotientComplexes":
        """The same split over ``ring``. The columns of C and of the
        diagonal are +-1 over every ring, and d∘d = 0 over Z holds over
        every ring, so both are shared, not built or checked again."""
        return SubquotientComplexes(
            ChainComplex(ring, self.base.ranks, self.base.boundaries, check=False), self.on,
            ChainComplex(ring, self.diagonal.ranks, self.diagonal.boundaries, check=False))


def build_diagonal(K: SimplicialComplex, ring="Z") -> SubquotientComplexes:
    """Split the cells of C x C into the diagonal subcomplex and the rest.

    Closure of the diagonal under the product boundary is verified, not
    assumed. The chain model of the diagonal matches the geometric one
    only for flag complexes; the CLI's ``diagonal`` report says whether
    its input is flag.
    """
    ranks = K.f_vector()
    guard_product(ranks, ranks)  # before C is built
    C = chain_complex(K, ring)
    on = _diagonal_rule(K)
    return SubquotientComplexes(C, on, tensor_total(C, C, keep=on))


def _check(name: str, ok: bool, details: dict) -> Report:
    return Report(VERIFIED if ok else VIOLATION, {"check": name, **details})


def check_retraction(K: SimplicialComplex, ring="Z") -> Report:
    """Degreewise H(diagonal) == H(C): the computable shadow of the
    straight-line retraction of the diagonal onto the base."""
    return _retraction(build_diagonal(K, ring))


def _retraction(parts: SubquotientComplexes) -> Report:
    h_diag = parts.diagonal.homology()
    h_base = parts.base.homology()
    return _check("retraction", h_diag.same_groups(h_base),
                  {"H(diagonal)": h_diag.to_json(), "H(C)": h_base.to_json()})


def decomposition_check(K: SimplicialComplex) -> Report:
    """Exact rank bookkeeping: in first-degree i, the diagonal cells in
    total degree i+j are counted by the j-cells of the star closures of
    the i-simplices. Counts cells, tallied per (i, j) by the rule of
    ``build_diagonal``, against ``_star_count``; builds no chain complex
    and no cell list."""
    ranks = K.f_vector()
    guard_product(ranks, ranks)
    on = _diagonal_rule(K)
    mism = []
    table = {}
    for i in range(K.dim + 1):
        for j in range(K.dim + 1):
            count = sum(map(on, itertools.product((i,), range(ranks[i]), (j,), range(ranks[j]))))
            rhs = _star_count(ranks, i, j)
            table[f"({i},{j})"] = [count, rhs]
            if count != rhs:
                mism.append((i, j, count, rhs))
    return _check("decomposition", not mism, {"bidegree_counts": table, "mismatches": mism})


def _star_count(f, i, j) -> int:
    """The j-simplices of the closed star of each i-simplex, summed over
    the i-simplices, from the f-vector f alone. A j-simplex t lies in the
    closed star of an i-simplex s (``SimplicialComplex.delta_sigma``)
    exactly when s ∪ t is a face u. For u with n vertices there are
    C(n, i+1) choices of s in u, and t holds the n-i-1 vertices of u
    outside s and i+j+2-n of the i+1 in s."""
    return sum(f[n - 1] * comb(n, i + 1) * comb(i + 1, i + j + 2 - n)
               for n in range(1, min(len(f), i + j + 2) + 1))


def long_exact_consistency(parts: SubquotientComplexes) -> Report:
    """Over F_p, the ring of ``parts`` (``build_diagonal(K, p)``, or a
    split built once and read ``over(p)``), the alternating sums of
    dim H(CxC), dim H(diagonal) and dim H(CxC, diagonal) must satisfy
    chi(product) = chi(diag) + chi(rel). The product's cells are pairs of
    cells of C, so chi(product) = chi(C)^2."""
    chi_prod = sum((-1) ** d * f for d, f in enumerate(parts.base.ranks)) ** 2
    chi_diag = parts.diagonal.homology().euler_characteristic()
    chi_rel = parts.quotient.homology().euler_characteristic()
    return _check("long-exact-consistency", chi_prod == chi_diag + chi_rel,
                  {"chi_product": chi_prod, "chi_diagonal": chi_diag,
                   "chi_relative": chi_rel})


def diagonal_checks(K: SimplicialComplex) -> list[Report]:
    """``check_retraction`` over Z, ``decomposition_check`` and
    ``long_exact_consistency`` over F_2, on one build of the diagonal:
    the F_2 check reads the Z build ``over(2)``."""
    parts = build_diagonal(K)
    return [_retraction(parts), decomposition_check(K), long_exact_consistency(parts.over(2))]
