"""Flags of rational subspaces: stabilizer dimensions by exact linear
algebra, the forced-zero rule of permuted coordinate flags (for every
choice of member dimensions at once, one pass per permutation), the
semidirect splitting dimension calculus, induced flags and the
codimension-chain inequality, plus a finite-field building generator.

Stabilizer and orbit dimensions are Lie-algebra dimensions of
linear-algebraic matrix groups. Every number of a pair of flags (E, F) is
read from one cached evaluation of its relative position (_position), the
table of intersection dimensions dim(E_i & F_j): any two flags have a
common adapted basis, in which both stabilizers are spanned by matrix
units. The stabilizer of one flag is also computed as the nullity of its
exact integer constraint system, which split_dims checks its formula
against, and the coordinate-flag combinatorics (forced zero patterns) give
an independent route for cross-checks.

The ranks of the sums E_i + F_j and the induced images (E_{i+1} & F_j) + E_i
are memoized, keyed by canonical bases, and so is the per-flag work:
coordinate_flag per (m, chain), through ``make``, and split_dims per flag,
its self-check included, since a sweep's first flag meets every second
flag. Each memo holds at most MEMO_SIZE entries: coordinate sweeps meet
the same few subspaces and flags over and over, while pairs of general
rational flags share almost none and must not grow the caches. A raise is
never stored, so a refused flag is refused on every call. The criteria's
coordinate sweeps still build their flags once per chain in a local dict:
at m = 6 there are 4,682 chains, more than MEMO_SIZE, and an LRU cache
walked in that order would miss every time.

Coordinate flags realise every relative position (table d) of two
disjoint flags, so the coordinate sweeps are the whole of criteria 2 and
3; flags with general rational entries are drawn in the tests alone.
"""

from __future__ import annotations

import collections
import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import ratlin
from .complexes import SimplicialComplex
from .ratlin import integer_row, rank, rref, sparse_rank
from .report import VERIFIED, VIOLATION, Report, json_field, json_int, json_list, json_rational


class FlagError(ValueError):
    pass


# Bound of every memo in this module. The subspace memos are keyed by
# canonical bases, so equal tuples are equal subspaces.
MEMO_SIZE = 4096

# size guard of RationalFlag.make: the largest ambient dimension it accepts.
# The cost of a pair grows with m and with the number of members; the worst
# known input, two complete flags of dense rows, takes 1.2-1.3 s through
# slm-check at m = 18, 2.1 s at m = 19 and 11 s at m = 24 (2-core machine)
MAX_FLAG_M = 18


@dataclass(frozen=True)
class RationalFlag:
    """Strictly increasing chain of proper nonzero subspaces of Q^m.

    Subspaces are canonical integer bases (ratlin.rref), so two equal
    flags compare and hash equal as values. The empty flag (no subspaces)
    is allowed and plays the role of the trivial simplex conventions."""

    m: int
    subspaces: tuple  # tuple of canonical integer bases

    @classmethod
    def make(cls, m: int, subspaces) -> "RationalFlag":
        if m < 1:
            raise FlagError(f"ambient dimension m must be >= 1, got m = {m}")
        if m > MAX_FLAG_M:
            raise FlagError(f"size guard: m = {m} exceeds MAX_FLAG_M = {MAX_FLAG_M}")
        canon = []
        for sub in subspaces:
            rows = [integer_row(v) for v in sub]
            if any(len(v) != m for v in rows):
                raise FlagError("subspace vectors must have length m")
            basis = rref(rows)
            if not basis:
                raise FlagError("zero subspace in flag")
            canon.append(basis)
        dims = [len(b) for b in canon]
        if any(d >= m for d in dims):
            raise FlagError("flag subspaces must be proper")
        for a, b in zip(canon, canon[1:]):
            if len(a) >= len(b):
                raise FlagError("flag dimensions must strictly increase")
            if ratlin.rank(b + a) != len(b):
                raise FlagError("flag subspaces must be nested")
        return cls(m, tuple(canon))

    @property
    def length(self) -> int:
        return len(self.subspaces)

    def dims(self) -> tuple:
        return tuple(len(b) for b in self.subspaces)

    @functools.cached_property
    def padded(self) -> tuple:
        """Subspace chain with 0 and Q^m attached as conventions."""
        full = tuple((0,) * i + (1,) + (0,) * (self.m - 1 - i) for i in range(self.m))
        return ((),) + self.subspaces + (full,)

    def disjoint_from(self, other: "RationalFlag") -> bool:
        return not (set(self.subspaces) & set(other.subspaces))

    def to_json(self):
        """Each subspace as its rref rows of "p/q" strings: every canonical
        row divided by its pivot."""
        def rational_row(row):
            pivot = next(x for x in row if x)
            return [str(Fraction(x, pivot)) for x in row]

        return {
            "m": self.m,
            "subspaces": [[rational_row(row) for row in b] for b in self.subspaces],
        }

    @classmethod
    def from_json(cls, data):
        def rows(sub):
            return [[json_rational(x, "subspace entry") for x in json_list(row, "subspace row")]
                    for row in json_list(sub, "subspace")]

        return cls.make(json_int(json_field(data, "m", "a flag"), "m"),
                        [rows(sub) for sub in json_list(json_field(data, "subspaces", "a flag"),
                                                        "subspaces")])


def coordinate_flag(m: int, sets) -> RationalFlag:
    """Flag of coordinate subspaces spanned by the given nested index sets
    (0-based), one ``make`` per distinct chain."""
    return _coordinate_flag(m, tuple(tuple(sorted(s)) for s in sets))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _coordinate_flag(m: int, chain: tuple) -> RationalFlag:
    return RationalFlag.make(m, [[[int(j == i) for j in range(m)] for i in s] for s in chain])


def forced_zeros(w) -> tuple:
    """The forced-zero rule of the standard flag moved by a permutation w
    of {0, ..., m-1}, for every choice of member dimensions at once.

    The member of dimension d is w{0, ..., d-1}. With pos = w^-1, it is
    fixed (the coordinate prefix itself) when w maps {0, ..., d-1} onto
    itself, and it forces the matrix entry (i, j), i < j, to zero on its
    stabilizer exactly when it holds j but not i: pos(j) < d <= pos(i).
    Returns (fixed, forcing) as bitmasks over dimensions, bit d for d:
    fixed has the dimensions whose member is fixed, and forcing maps each
    entry (i, j) that some member can force to zero to the dimensions that
    do. A flag with dimension bitmask D and no fixed member has a forced
    zero at (i, j) exactly when forcing[i, j] & D."""
    m = len(w)
    pos = sorted(range(m), key=w.__getitem__)
    fixed = sum(1 << d for d in range(1, m) if max(w[:d]) == d - 1)
    forcing = {(i, j): (1 << pos[i] + 1) - (1 << pos[j] + 1)
               for i, j in itertools.combinations(range(m), 2) if pos[j] < pos[i]}
    return fixed, forcing


# ---------------------------------------------------------------------------
# Stabilizer dimensions: one flag by its constraint system, a pair by its
# relative position.


def _containment_rows(m: int, pairs):
    """Sparse rows over the m*m matrix entries cutting out
    {A : A src <= dst for every (src, dst) pair}: one row u.A.b per
    basis vector b of src and annihilating vector u of dst."""
    rows = []
    for src, dst in pairs:
        ann = ratlin.nullspace(dst, m)
        for b in src:
            for u in ann:
                rows.append({
                    i * m + j: ui * bj
                    for i, ui in enumerate(u) if ui
                    for j, bj in enumerate(b) if bj
                })
    return rows


def _stab_constraint_rows(flag: RationalFlag):
    """Rows cutting out the stabilizer algebra {A : A V <= V for every
    flag subspace}."""
    return _containment_rows(flag.m, ((v, v) for v in flag.subspaces))


def stab_dim(flag: RationalFlag) -> int:
    """Dimension of the matrix algebra preserving every flag subspace, as
    the nullity of its constraint system."""
    return flag.m * flag.m - sparse_rank(_stab_constraint_rows(flag))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _sum_dim(a: tuple, b: tuple) -> int:
    """dim(A + B) for canonical bases a and b."""
    return rank(a + b)


_Position = collections.namedtuple("_Position", "table stab_pair nil_stab images")


@functools.lru_cache(maxsize=1)
def _position(e: RationalFlag, f: RationalFlag) -> _Position:
    """The relative position of (E, F), evaluated in one pass over its
    table d and cached for the last pair, which orbit_codim,
    slm_inequality, induced_flags and f0_subflag all read: d, then
    dim(Stab(E) & Stab(F)) and dim(N & Stab(F)), N the unipotent radical of
    Stab(E), and per graded level of E its proper images (g, l). d runs
    over the padded flags (E_0 = F_0 = 0 and E_a = F_b = Q^m); each entry is
    dim E_i + dim F_j - dim(E_i + F_j), the last from the memo ``_sum_dim``.

    Any two flags have a common adapted basis (they lie in a common
    apartment: Abramenko-Brown, Buildings, 2008), and
    n[k][l] = d[k][l] - d[k-1][l] - d[k][l-1] + d[k-1][l-1] counts its
    vectors at E-level k and F-level l. The matrix unit taking a vector at
    levels (k, l) to one at levels (k', l') preserves both flags when
    k' <= k and l' <= l; these units span Stab(E) & Stab(F), and the ones
    with k' <= k - 1 span N & Stab(F). The image (E_k & F_l) + E_{k-1} has
    dimension g = d[k][l] - d[k-1][l] over E_{k-1}, and level k lists
    (g, l) when it is neither trivial nor full in E_k / E_{k-1}."""
    if e.m != f.m:
        raise FlagError("ambient dimensions differ")
    d = ((0,) * (f.length + 2),) + tuple(
        (0, *(len(ei) + len(fj) - _sum_dim(ei, fj) for fj in f.subspaces), len(ei))
        for ei in e.subspaces
    ) + ((0, *f.dims(), e.m),)
    stab_pair = nil_stab = 0
    images = []
    for lo, hi in zip(d, d[1:]):
        for l in range(1, len(hi)):
            n = hi[l] - lo[l] - hi[l - 1] + lo[l - 1]
            stab_pair += n * hi[l]
            nil_stab += n * lo[l]
        images.append(tuple((hi[j] - lo[j], j) for j in range(1, len(hi) - 1)
                            if 0 < hi[j] - lo[j] < hi[-1] - lo[-1]))
    return _Position(d, stab_pair, nil_stab, tuple(images))


def require_disjoint(e: RationalFlag, f: RationalFlag) -> None:
    """Refuse a pair that shares a subspace: the orbit-codimension bound
    and the codimension chain hold for disjoint flags only."""
    if not e.disjoint_from(f):
        raise FlagError("flags share a subspace")


def stab_pair_dim(e: RationalFlag, f: RationalFlag) -> int:
    """dim(Stab(E) & Stab(F))."""
    return _position(e, f).stab_pair


def orbit_codim(e: RationalFlag, f: RationalFlag) -> int:
    """dim Stab(E) - dim(Stab(E) & Stab(F)): the orbit dimension bound."""
    dims_e = (0, *e.dims(), e.m)
    stab_e = sum((hi - lo) * hi for lo, hi in zip(dims_e, dims_e[1:]))
    return stab_e - stab_pair_dim(e, f)


@dataclass(frozen=True)
class SplitDims:
    """Dimension bookkeeping of the semidirect splitting of a flag
    stabilizer into its unipotent radical and block-diagonal part."""

    graded_dims: tuple
    dim_n: int
    dim_levi: int
    dim_stab: int


@functools.lru_cache(maxsize=MEMO_SIZE)
def split_dims(flag: RationalFlag) -> SplitDims:
    dims = [0] + [len(b) for b in flag.subspaces] + [flag.m]
    graded = tuple(b - a for a, b in zip(dims, dims[1:]))
    dim_n = sum(
        graded[i] * graded[j]
        for i in range(len(graded))
        for j in range(i + 1, len(graded))
    )
    dim_levi = sum(d * d for d in graded)
    total = dim_n + dim_levi
    if total != stab_dim(flag):
        raise FlagError("splitting dimensions disagree with the nullspace computation")
    return SplitDims(graded, dim_n, dim_levi, total)


# ---------------------------------------------------------------------------
# Induced flags in the graded pieces, the inert subflag, the codimension
# chain.


def induced_flags(e: RationalFlag, f: RationalFlag):
    """Induced chains per graded piece and their lengths: the distinct
    proper images (E_{i+1} & F_j) + E_i, shortest first."""
    pieces = []
    for lo, hi, images in zip(e.padded, e.padded[1:], _position(e, f).images):
        # the images of the nested F_j are nested, so distinct ones differ
        # in dimension: one member per dimension builds each of them
        first = {}
        for g, j in images:
            first.setdefault(g, f.subspaces[j - 1])
        pieces.append([_induced_image(lo, hi, first[g]) for g in sorted(first)])
    return pieces, [len(c) for c in pieces]


@functools.lru_cache(maxsize=MEMO_SIZE)
def _induced_image(lo: tuple, hi: tuple, fj: tuple) -> tuple:
    """Canonical basis of (hi & fj) + lo, for canonical bases lo <= hi
    (hi nonzero) and fj."""
    return ratlin.sum_space(ratlin.intersection(hi, fj, len(hi[0])), lo)


def f0_subflag(e: RationalFlag, f: RationalFlag) -> RationalFlag:
    """Subflag of F whose members induce only trivial or full images in
    every graded piece of E."""
    require_disjoint(e, f)
    cut = {j for images in _position(e, f).images for _, j in images}
    return RationalFlag(e.m, tuple(fj for j, fj in enumerate(f.subspaces, 1) if j not in cut))


def slm_inequality(e: RationalFlag, f: RationalFlag) -> Report:
    """Assemble the codimension chain for a disjoint pair of nonempty
    flags and verify the final stabilizer-dimension inequality."""
    nil_stab = _position(e, f).nil_stab
    if not e.subspaces or not f.subspaces:
        raise FlagError("both flags must be nonempty")
    require_disjoint(e, f)
    m = e.m
    dim_n_quot = split_dims(e).dim_n - nil_stab
    pieces, lengths = induced_flags(e, f)
    f0 = f0_subflag(e, f)
    codim = dim_n_quot + sum(1 + L for L in lengths)
    bound = e.length + f.length + 1
    # intermediate chain steps: the inert subflag bounds the N-quotient
    # (the orbit-codimension corollary), and the quotient together with
    # the induced lengths accounts for all of F
    step_orbit = dim_n_quot >= f0.length
    step_count = dim_n_quot + sum(lengths) >= f.length
    # A member of F can induce in a graded piece the same proper subspace
    # as another member, so the naive count length(F0) + sum L(i) can fall
    # short of length(F); it is reported but not required.
    counting_identity = f0.length + sum(lengths) == f.length
    sym = m * (m + 1) // 2
    dim_gk = sym - codim
    lhs = dim_gk + (e.length - 1) + (f.length - 1)
    rhs = sym - 3
    codim_ok, inequality_ok = codim >= bound, lhs <= rhs
    chain_ok = step_orbit and step_count
    return Report(VERIFIED if codim_ok and inequality_ok and chain_ok else VIOLATION, {
        "m": m,
        "length_e": e.length,
        "length_f": f.length,
        "dim_n_quotient": dim_n_quot,         # dim N / (Stab(F) & N)
        "induced_lengths": lengths,
        "length_f0": f0.length,
        "codim": codim,
        "codim_bound": bound,                 # length(E) + length(F) + 1
        "codim_ok": codim_ok,
        "dim_gk": dim_gk,                     # dim(G/K) = m(m+1)/2 - codim
        "lhs": lhs,                           # dim(G/K) + |sigma| + |tau|
        "rhs": rhs,                           # m(m+1)/2 - 3
        "inequality_ok": inequality_ok,
        "chain_ok": chain_ok,                 # both intermediate >= steps hold
        "counting_identity": counting_identity,  # see the note above
    })


# ---------------------------------------------------------------------------
# Coordinate-flag enumeration (exhaustive sweeps).


def subset_chains(m: int):
    """All chains of nonempty proper subsets of {0..m-1}, as tuples of
    frozensets, shortest-first within a deterministic order."""
    subsets = []
    for r in range(1, m):
        for combo in itertools.combinations(range(m), r):
            subsets.append(frozenset(combo))

    chains = []

    def extend(chain):
        chains.append(tuple(chain))
        last = chain[-1]
        for s in subsets:
            if len(s) > len(last) and last < s:
                extend(chain + [s])

    for s in subsets:
        extend([s])
    return chains


def prefix_chains(m: int):
    """Chains of prefix subsets {0..d-1}: representatives of all chains
    up to simultaneous permutation of the coordinates."""
    out = []
    for r in range(1, m):
        for dims in itertools.combinations(range(1, m), r):
            out.append(tuple(frozenset(range(d)) for d in dims))
    return out


# ---------------------------------------------------------------------------
# Finite-field building generator.


def gf_subspaces(m: int, q: int, d: int):
    """Canonical echelon bases of the d-dimensional subspaces of F_q^m."""
    out = []
    for pivots in itertools.combinations(range(m), d):
        free_pos = []
        for r, pc in enumerate(pivots):
            for c in range(pc + 1, m):
                if c not in pivots:
                    free_pos.append((r, c))
        for values in itertools.product(range(q), repeat=len(free_pos)):
            rows = [[0] * m for _ in range(d)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, c), v in zip(free_pos, values):
                rows[r][c] = v
            out.append(tuple(tuple(row) for row in rows))
    return out


def _span_mask(basis, q):
    """The span over F_q of the d rows of ``basis`` as a bitmask over the
    q^m vectors of F_q^m: bit sum(x_c q^(m-1-c)) for each vector x in it,
    so one subspace lies in another when its bits are a subset of theirs."""
    vectors = [(0,) * len(basis[0])]
    for row in basis:
        vectors += [tuple((x + c * y) % q for x, y in zip(v, row))
                    for c in range(1, q) for v in vectors]
    mask = 0
    for v in vectors:
        index = 0
        for x in v:
            index = index * q + x
        mask |= 1 << index
    return mask


# size guard of finite_building: the largest field order q it builds over
MAX_BUILDING_Q = 3


def finite_building(m: int, q: int, max_m: int = 4) -> SimplicialComplex:
    """Order complex of the proper nonzero subspaces of F_q^m: vertices
    are subspaces, simplices are containment chains. Size-guarded."""
    if not (3 <= m <= max_m) or not (2 <= q <= MAX_BUILDING_Q):
        raise FlagError(f"size guard: need 3 <= m <= {max_m}, 2 <= q <= {MAX_BUILDING_Q}")
    # each subspace as its label and the bitmask of its span
    level = {d: [(f"d{d}s{i}", _span_mask(s, q)) for i, s in enumerate(gf_subspaces(m, q, d))]
             for d in range(1, m)}
    succ = {label: [t for t, outer in level[d + 1] if inner & outer == inner]
            for d in range(1, m - 1) for label, inner in level[d]}
    # maximal chains: one subspace of every dimension, nested
    chains = [[label] for label, _ in level[1]]
    for _ in range(m - 2):
        chains = [chain + [t] for chain in chains for t in succ[chain[-1]]]
    return SimplicialComplex([label for d in range(1, m) for label, _ in level[d]], chains)


def complete_flag_count(m: int, q: int) -> int:
    """Number of complete flags in F_q^m: product of q-bracket integers."""
    total = 1
    for k in range(2, m + 1):
        total *= (q**k - 1) // (q - 1)
    return total


def building_ok(K: SimplicialComplex, h, m: int, q: int) -> bool:
    """The rule for the building K of F_q^m with reduced homology h over Z:
    one facet per complete flag, and h free of rank q^(m(m-1)/2) in degree
    m-2 alone (Solomon-Tits)."""
    return (len(K.facets) == complete_flag_count(m, q)
            and h.nonzero_degrees() == [m - 2]
            and h.rank(m - 2) == q ** (m * (m - 1) // 2)
            and h.torsion(m - 2) == ())
