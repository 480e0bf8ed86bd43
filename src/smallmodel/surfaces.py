"""Multicurves on closed surfaces via their cut graphs.

A system of disjoint, pairwise non-homotopic essential curves on a
closed genus-g surface is recorded by its topological type: the pieces
of the cut surface (genus, punctures, boundary components) joined along
curve edges. Stabilizer homological dimensions come from the virtual
dimension formulas for mapping class groups of the pieces, summed over
pieces; the pants anchor (a maximal system has free abelian twist
stabilizer of rank 3g-3) pins the bookkeeping down.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field

from .smallness import Hdim, Orbit, OrbitComplex, PairEntry


class SurfaceError(ValueError):
    pass


# Enumerating all 69,807 types at genus 6 takes 8.6-10.4 s (lemma-sweep
# --g 6 on a 2-core machine, Python 3.11), and one size at genus 7
# (multicurves --g 7 --k 10) did not finish in 20 s: a larger genus is
# refused at once instead of left running with no output.
MAX_GENUS = 6


@dataclass(frozen=True)
class SurfaceType:
    """Connected surface: genus, punctures, boundary components."""

    g: int
    r: int
    s: int

    def __post_init__(self):
        if self.g < 0 or self.r < 0 or self.s < 0:
            raise SurfaceError("negative surface data")

    @property
    def in_formula_range(self) -> bool:
        return 2 * self.g + self.s + self.r > 2


# Every piece of a cut graph shares its SurfaceType with the pieces of the
# same (genus, punctures, boundary) in other graphs: all 69,807 types at
# genus 6 have 126 such triples among them.
_surface_type = functools.lru_cache(maxsize=1024)(SurfaceType)


def harer_dim(t: SurfaceType) -> int:
    """Virtual homological dimension of the mapping class group of t."""
    if not t.in_formula_range:
        raise SurfaceError(f"{t} outside the dimension formula range (need 2g+s+r>2)")
    if t.r == 0 and t.s == 0:
        return 4 * t.g - 5
    if t.g == 0:
        return (2 * t.r + t.s) - 3
    return 4 * t.g - 4 + (2 * t.r + t.s)


@dataclass(frozen=True)
class CutSurfaceGraph:
    """Topological type of a multicurve on a closed surface.

    pieces[i] is the genus of piece i; curve_edges are (a, b, side) with
    side 0 meaning piece a receives the puncture and b the boundary
    component (1 the other way round). Loops (a == b) give piece a both.
    """

    closed_genus: int
    piece_genera: tuple
    curve_edges: tuple  # ((a, b, side), ...)

    _piece_types: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = len(self.piece_genera)
        if v == 0:
            raise SurfaceError("no pieces")
        nbrs = [0] * v  # bit y of nbrs[x] set when pieces x and y share a curve
        r = [0] * v
        s = [0] * v
        for a, b, side in self.curve_edges:
            if not (0 <= a < v and 0 <= b < v) or side not in (0, 1):
                raise SurfaceError("bad curve edge")
            nbrs[a] |= 1 << b
            nbrs[b] |= 1 << a
            if side == 0:
                r[a] += 1
                s[b] += 1
            else:
                r[b] += 1
                s[a] += 1
        seen = frontier = 1
        while frontier:
            x = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = nbrs[x] & ~seen
            seen |= new
            frontier |= new
        if seen != (1 << v) - 1:
            raise SurfaceError("cut graph is not connected")
        b1 = len(self.curve_edges) - v + 1
        if sum(self.piece_genera) + b1 != self.closed_genus:
            raise SurfaceError("piece genera and graph cycles do not add up to the genus")
        if len(self.curve_edges) > max(3 * self.closed_genus - 3, 0):
            raise SurfaceError("more curves than a maximal system allows")
        types = tuple(_surface_type(g, r[i], s[i]) for i, g in enumerate(self.piece_genera))
        for i, t in enumerate(types):
            if not t.in_formula_range:
                raise SurfaceError(f"piece {i} = {t} is not an essential-cut piece")
        object.__setattr__(self, "_piece_types", types)

    def piece_types(self) -> tuple[SurfaceType, ...]:
        """(genus, punctures, boundary components) of each piece, computed
        once when the graph is validated."""
        return self._piece_types

    def to_json(self):
        return {
            "closed_genus": self.closed_genus,
            "pieces": [{"genus": g, "punctures": t.r, "boundary": t.s}
                       for g, t in zip(self.piece_genera, self.piece_types())],
            "curve_edges": [list(e) for e in self.curve_edges],
        }


def multicurve_stab_hdim(G: CutSurfaceGraph) -> int:
    """Homological dimension of the (pointwise) multicurve stabilizer:
    sum of the piece dimensions."""
    return sum(harer_dim(t) for t in G.piece_types())


# ---------------------------------------------------------------------------
# Enumeration of topological types.


def _vertex_type_multisets(g, k, v):
    """Multisets of (genus, degree) for v pieces: degrees sum to 2k,
    genera sum to g - (k - v + 1), genus-0 pieces need degree >= 3."""
    results = []

    def rec(slots_left, deg_left, gen_left, min_pair, acc):
        if slots_left == 0:
            if deg_left == 0 and gen_left == 0:
                results.append(tuple(acc))
            return
        for gen in range(min_pair[0], gen_left + 1):
            if gen * slots_left > gen_left:
                break  # every later slot has genus >= gen
            dmin = 3 if gen == 0 else 1
            dstart = max(dmin, min_pair[1] if gen == min_pair[0] else dmin)
            for d in range(dstart, deg_left - (slots_left - 1) + 1):
                # remaining slots need at least 1 degree each
                rec(slots_left - 1, deg_left - d, gen_left - gen, (gen, d), acc + [(gen, d)])

    rec(v, 2 * k, g - (k - v + 1), (0, 3), [])
    return results


def _multigraphs_with_degrees(degrees, genera):
    """Connected loop-allowing multigraphs on labelled vertices with the
    given degree sequence, as multiplicity dicts {(i,j): k} with i <= j.

    Vertices sharing (degree, genus) are interchangeable, so only the
    matrices that no same-class transposition makes lexicographically
    larger survive (orderly generation: Read 1978, McKay 1998): the
    lex-max representative of every isomorphism class survives, which
    keeps the enumeration complete while collapsing most relabellings.
    Survivors still need an isomorphism dedupe.

    A partial matrix is rejected as soon as a transposition is known to
    win, which cuts only subtrees that yield nothing: inside row i, the
    entry in column j is capped by the one in column j - 1 when both
    columns are of one class and agree on the rows above; once row i is
    complete, each transposition (a i) has its final verdict, and so has
    the component of piece i if no curve end is left to place on it."""
    v = len(degrees)
    cls = list(zip(degrees, genera))
    peers = [[a for a in range(i) if cls[a] == cls[i]] for i in range(v)]
    grid = [[0] * v for _ in range(v)]  # symmetric, loops on the diagonal
    nbrs = [0] * v  # bit j of nbrs[i] set when pieces i != j share a curve
    everyone = (1 << v) - 1
    rem = list(degrees)  # curve ends of each piece not yet placed
    mult = {}
    out = []

    def prefix_ok(i):
        # (a i) with a < i has its final verdict on rows 0..a: a tie there
        # makes row i row a with columns a and i exchanged, and then every
        # later row ties too. Pairs (a b) with b < i were settled when row b
        # completed. A row r < a changes only in columns a and i, so it
        # first differs at column a, where the swap puts grid[r][i].
        row_i = grid[i]
        for a in peers[i]:
            for r in range(a):
                row = grid[r]
                if row[i] != row[a]:
                    if row[i] > row[a]:
                        return False
                    break
            else:
                swapped = row_i[:]
                swapped[a], swapped[i] = row_i[i], row_i[a]
                if swapped > grid[a]:
                    return False
        return True

    def can_connect(i):
        # rows 0..i are complete, so the component of piece i grows only
        # through a piece with curve ends still to place; with none left it
        # is a component of every completion, and must be all of them
        seen = frontier = 1 << i
        while frontier:
            x = (frontier & -frontier).bit_length() - 1
            if rem[x]:
                return True
            frontier &= frontier - 1
            new = nbrs[x] & ~seen
            seen |= new
            frontier |= new
        return seen == everyone

    def rec(i):
        if i == v:
            out.append(dict(mult))
            return

        # where columns j-1 and j agree above row i, (j-1 j) leaves those
        # rows alone and wins at row i if column j outgrows column j - 1
        tied = [i < j - 1 and cls[j - 1] == cls[j]
                and all(grid[r][j - 1] == grid[r][j] for r in range(i))
                for j in range(v)]

        # distribute rem[i] over a loop at i and pairs (i, j > i)
        def pairs(j, left):
            if left == 0:
                if prefix_ok(i) and can_connect(i):
                    rec(i + 1)
                return
            if j == v:
                return
            cap = min(left, rem[j], grid[i][j - 1]) if tied[j] else min(left, rem[j])
            for m in range(cap + 1):
                if m:
                    mult[(i, j)] = m
                    rem[j] -= m
                    grid[i][j] = grid[j][i] = m
                    nbrs[i] |= 1 << j
                    nbrs[j] |= 1 << i
                pairs(j + 1, left - m)
                if m:
                    del mult[(i, j)]
                    rem[j] += m
                    grid[i][j] = grid[j][i] = 0
                    nbrs[i] ^= 1 << j
                    nbrs[j] ^= 1 << i

        saved = rem[i]
        rem[i] = 0
        for loop in range(saved // 2 + 1):
            if loop:
                mult[(i, i)] = loop
                grid[i][i] = loop
            pairs(i + 1, saved - 2 * loop)
            if loop:
                del mult[(i, i)]
                grid[i][i] = 0
        rem[i] = saved

    rec(0)
    return out


def _canonical(genera, mult):
    """Exact isomorphism key of a cut graph by individualisation and
    refinement (McKay, Practical graph isomorphism, 1981; McKay-Piperno
    2014): colour each piece by the rank of its (genus, loops), refine,
    split the first non-singleton cell each way, and keep the least leaf
    encoding (genera and multiplicities relabelled by the discrete
    colouring).

    A refinement round gives piece x the rank of its colour and the
    sorted neighbour signature col[y] * base + k over its curves to other
    pieces y of multiplicity k. With base = 1 + the largest multiplicity
    these integers order as the pairs (col[y], k) do, and neither depends
    on the labelling, so the key is label-free. Rounds stop as soon as
    the colouring is discrete, or when a round splits no cell."""
    v = len(genera)
    nbrs = [[] for _ in range(v)]
    for (i, j), k in mult.items():
        if i != j:
            nbrs[i].append((j, k))
            nbrs[j].append((i, k))
    base = 1 + max(mult.values(), default=0)

    def leaf(col, cells):
        while cells < v:
            sig = [(col[x], tuple(sorted([col[y] * base + k for y, k in nbrs[x]])))
                   for x in range(v)]
            ranked = sorted(set(sig))
            if len(ranked) == cells:
                break
            rank = {s: r for r, s in enumerate(ranked)}
            col = [rank[s] for s in sig]
            cells = len(ranked)
        if cells == v:
            order = sorted(range(v), key=col.__getitem__)
            pos = [0] * v
            for p, x in enumerate(order):
                pos[x] = p
            edges = sorted((pos[i], pos[j], k) if pos[i] <= pos[j] else (pos[j], pos[i], k)
                           for (i, j), k in mult.items())
            return tuple(genera[x] for x in order), tuple(edges)
        size = {}
        for c in col:
            size[c] = size.get(c, 0) + 1
        first = min(c for c, n in size.items() if n > 1)
        best = None
        for x in range(v):
            if col[x] == first:
                key = leaf([2 * c + (y != x) for y, c in enumerate(col)], cells + 1)
                if best is None or key < best:
                    best = key
        return best

    init = [(genera[x], mult.get((x, x), 0)) for x in range(v)]
    rank = {s: r for r, s in enumerate(sorted(set(init)))}
    return leaf([rank[s] for s in init], len(rank))


def _invariant(genera, mult):
    """A label-free invariant of a cut graph: the sorted tuple, over the
    pieces, of (genus, loops) followed by the sorted (neighbour genus,
    neighbour loops, multiplicity, common neighbours) over its curves to
    other pieces. Each is packed into one integer in base 1 + the number of
    curves, which exceeds every loop count, multiplicity and number of
    common neighbours, so no two tuples share an integer. Nothing in it
    reads a piece index, so isomorphic graphs have equal invariants."""
    v = len(genera)
    base = 1 + sum(mult.values())
    code = [g * base for g in genera]
    nbrs = [0] * v  # bit y of nbrs[x] set when pieces x != y share a curve
    for (i, j), k in mult.items():
        if i == j:
            code[i] += k
        else:
            nbrs[i] |= 1 << j
            nbrs[j] |= 1 << i
    sig = [[] for _ in range(v)]
    for (i, j), k in mult.items():
        if i != j:
            common = (nbrs[i] & nbrs[j]).bit_count()
            sig[i].append((code[j] * base + k) * base + common)
            sig[j].append((code[i] * base + k) * base + common)
    return tuple(sorted((code[x], *sorted(sig[x])) for x in range(v)))


def _dedupe(raw):
    """One (genera, mult) pair per isomorphism class: the first raw member.

    Isomorphic candidates have equal invariants, so a candidate whose
    invariant no other candidate shares is alone in its class, and
    _canonical is computed only for candidates that share one (partition
    by a cheap invariant, then label canonically inside a part: McKay
    1981, McKay-Piperno 2014). The classes, and so the first members and
    their order, are those of _canonical alone."""
    invariants = [_invariant(genera, mult) for genera, mult in raw]
    shared = Counter(invariants)
    reps = {}
    for inv, (genera, mult) in zip(invariants, raw):
        key = _canonical(genera, mult) if shared[inv] > 1 else None
        reps.setdefault((inv, key), (genera, mult))
    return list(reps.values())


def _raw_candidates(g, k):
    """Every (genera, mult) the search yields for k curves at genus g, in
    search order: one or more per isomorphism class."""
    raw = []
    for v in range(max(1, k + 1 - g), k + 2):
        for types in _vertex_type_multisets(g, k, v):
            genera = [t[0] for t in types]
            degrees = [t[1] for t in types]
            raw.extend((tuple(genera), mult)
                       for mult in _multigraphs_with_degrees(degrees, genera))
    return raw


def _to_cut_graph(g, genera, mult):
    edges = []
    for (i, j), k in sorted(mult.items()):
        for _ in range(k):
            edges.append((i, j, 0))
    return CutSurfaceGraph(g, tuple(genera), tuple(edges))


def enumerate_multicurves(g: int, k: int) -> list[CutSurfaceGraph]:
    """All topological types of k-curve systems on the closed genus-g
    surface, up to homeomorphism, with a canonical side assignment."""
    if g < 2:
        raise SurfaceError("need genus >= 2")
    if g > MAX_GENUS:
        raise SurfaceError(f"size guard: genus {g} exceeds MAX_GENUS = {MAX_GENUS}")
    if not (1 <= k <= 3 * g - 3):
        raise SurfaceError(f"need 1 <= k <= {3 * g - 3}")
    reps = _dedupe(_raw_candidates(g, k))
    graphs = [_to_cut_graph(g, genera, mult) for genera, mult in reps]
    graphs.sort(key=lambda cg: (len(cg.piece_genera), cg.piece_genera, cg.curve_edges))
    return graphs


# ---------------------------------------------------------------------------
# The stabilizer-dimension sweep and the certificate for the complex of
# curve systems.


def _hdims_by_size(g: int, progress=None) -> dict:
    """{k: stabilizer dimensions of the k-curve types, in enumeration
    order}: each (g, k) is enumerated once. progress(k, number of types),
    when given, is called as each size is done."""
    hdims = {}
    for k in range(1, 3 * g - 2):
        hdims[k] = [multicurve_stab_hdim(cg) for cg in enumerate_multicurves(g, k)]
        if progress:
            progress(k, len(hdims[k]))
    return hdims


def lemma_smallstabilizers_sweep(g: int, hdims: dict | None = None) -> dict:
    """Exhaustive check of hdim(Stab(A u B)) + |A| - 1 + |B| - 1 < 6g - 7.

    Exact branch: every type and every split of its c curves into two
    nonempty parts, where the left side is h + c - 2 for every split.
    Bound branch: the counting argument for parts that intersect,
    hdim <= hdim(Stab(B)) - |A|, over all types of B (with the
    maximal-system case |B| = 3g - 3 called out); its left side
    max(|A|, h_B) + |B| - 2 never decreases in |A|, so |A| = 3g - 3
    decides every size. Each failing type is one row.

    hdims is _hdims_by_size(g), computed here unless the caller has it."""
    if g < 2:
        raise SurfaceError("need genus >= 2")
    bound = 6 * g - 7
    kmax = 3 * g - 3
    if hdims is None:
        hdims = _hdims_by_size(g)
    exact_rows = []
    max_lhs = None
    witness = None
    for c in range(2, kmax + 1):
        for t_idx, h in enumerate(hdims[c]):
            lhs = h + c - 2
            if max_lhs is None or lhs > max_lhs:
                max_lhs = lhs
                witness = {"curves": c, "type_index": t_idx, "split": [1, c - 1],
                           "hdim": h, "lhs": lhs}
            if lhs >= bound:
                exact_rows.append({"curves": c, "type_index": t_idx, "lhs": lhs, "ok": False})
    bound_rows = []
    for b in range(1, kmax + 1):
        for t_idx, hb in enumerate(hdims[b]):
            if b == kmax and hb != kmax:
                # maximal systems are pants decompositions: twist lattice
                bound_rows.append({"B_curves": b, "type_index": t_idx,
                                   "error": "maximal system hdim != 3g-3"})
            lhs = max(kmax, hb) + b - 2
            if lhs >= bound:
                bound_rows.append({"B_curves": b, "type_index": t_idx, "lhs": lhs, "ok": False})
    return {
        "genus": g,
        "bound": bound,
        "passed": not exact_rows and not bound_rows,
        "max_exact_lhs": max_lhs,
        "max_exact_witness": witness,
        "exact_failures": exact_rows,
        "bound_failures": bound_rows,
        "max_hdim_by_size": {k: max(hs) for k, hs in hdims.items()},
    }


def curve_complex_certificate(g: int) -> OrbitComplex:
    """Package the sweep as an orbit certificate: one orbit per
    topological type (dimension = curves - 1, exact hdim) and, for each
    orbit pair, an upper bound on the stabilizer intersection dimension
    covering both the disjoint-union and the intersecting configurations."""
    if g not in (2, 3):
        raise SurfaceError("certificate generator is size-guarded to genus 2 and 3")
    kmax = 3 * g - 3
    hdims = _hdims_by_size(g)
    hmax = {k: max(hs) for k, hs in hdims.items()}
    orbits = []
    size_of = {}
    hdim_of = {}
    for c, hs in hdims.items():
        for idx, h in enumerate(hs):
            label = f"c{c}t{idx}"
            orbits.append(Orbit(label, c - 1, Hdim(h)))
            size_of[label] = c
            hdim_of[label] = h
    pairs = {}
    labels = [o.label for o in orbits]
    for i, la in enumerate(labels):
        for lb in labels[i:]:
            a, b = size_of[la], size_of[lb]
            candidates = [0, hmax.get(a + b, -1) if a + b <= kmax else -1,
                          hdim_of[lb] - a, hdim_of[la] - b]
            entry = PairEntry(la, lb, True, Hdim(max(candidates), exact=False))
            pairs[entry.key()] = entry
    return OrbitComplex(
        boundary_dim=6 * g - 7,
        orbits=orbits,
        pairs=pairs,
        complete=True,
        provenance=f"curve system types, genus {g}",
    )


def pants_decompositions(g: int) -> list[CutSurfaceGraph]:
    return enumerate_multicurves(g, 3 * g - 3)
