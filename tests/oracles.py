"""Independent reference computations shared by the test modules."""

import collections
import itertools
from dataclasses import asdict
from fractions import Fraction

import sympy
from sympy.matrices.normalforms import smith_normal_form

from smallmodel import ratlin
from smallmodel.complexes import (
    ChainComplex,
    ComplexError,
    HomologyTable,
    SimplicialComplex,
    chain_complex,
    tensor_total,
    total_cells,
)
from smallmodel.flags import (
    FlagError,
    RationalFlag,
    _containment_rows,
    _stab_constraint_rows,
    coordinate_flag,
    forced_zeros,
    gf_subspaces,
)
from smallmodel.normalform import invariant_factors
from smallmodel.ratlin import integer_row, rank, rref, sparse_rank
from smallmodel.surfaces import SurfaceError, SurfaceType, _canonical, _dedupe


def brute_maximal_cliques(adj):
    """Maximal cliques of {vertex: neighbours} on vertices 0..n-1, from
    every vertex subset."""
    n = len(adj)
    cliques = [set(c) for r in range(1, n + 1) for c in itertools.combinations(range(n), r)
               if all(b in adj[a] for a, b in itertools.combinations(c, 2))]
    return sorted(sorted(c) for c in cliques if not any(c < d for d in cliques))


def dense_rank_mod_p(rows, p):
    """Plain dense row echelon over F_p, as an independent oracle."""
    work = [[x % p for x in r] for r in rows]
    rank = 0
    col = 0
    ncols = len(work[0]) if work else 0
    while rank < len(work) and col < ncols:
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            col += 1
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        work[rank] = [x * inv % p for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[rank])]
        rank += 1
        col += 1
    return rank


def gf_span(basis, q):
    """The q^d vectors of the span over F_q of the d rows of ``basis``, as
    a frozenset of tuples."""
    return frozenset(
        tuple(sum(c * x for c, x in zip(coeffs, column)) % q for column in zip(*basis))
        for coeffs in itertools.product(range(q), repeat=len(basis))
    )


def building_by_vector_sets(m, q):
    """The building of F_q^m with the labels of ``flags.finite_building``,
    one subspace inside another when its set of vectors (``gf_span``) is a
    subset of theirs, and the maximal chains grown from each line."""
    by_dim = {d: gf_subspaces(m, q, d) for d in range(1, m)}
    labels = {s: f"d{d}s{i}" for d, subs in by_dim.items() for i, s in enumerate(subs)}
    span = {s: gf_span(s, q) for s in labels}
    chains = [[s] for s in by_dim[1]]
    for d in range(2, m):
        chains = [chain + [t] for chain in chains for t in by_dim[d] if span[chain[-1]] <= span[t]]
    return SimplicialComplex(labels.values(), [[labels[s] for s in chain] for chain in chains])


def homology_per_degree(C):
    """Homology of a ChainComplex over Z from the Smith invariant factors
    of every boundary, each reduced from scratch with no row skipped."""
    lowest = -1 if C.augmented else 0
    degrees = range(lowest, C.top + 1)
    facs = {}
    for k in degrees:
        cols = C.boundaries.get(k)
        facs[k] = invariant_factors(cols) if cols else []
    return _homology_from_factors(C, facs)


def homology_by_sympy(C):
    """Homology of a ChainComplex over Z from sympy's Smith normal form of
    every boundary, each as a dense matrix."""
    facs = {}
    for k, cols in C.boundaries.items():
        if cols and C.rank(k - 1):
            smith = smith_normal_form(sympy.Matrix(C.rank(k - 1), len(cols),
                                                   lambda i, j: cols[j].get(i, 0)))
            facs[k] = sorted(int(abs(smith[i, i])) for i in range(min(smith.shape))
                             if smith[i, i])
    return _homology_from_factors(C, facs)


def _homology_from_factors(C, facs):
    """The HomologyTable of C from {k: the nonzero invariant factors of
    d_k, in divisibility order}."""
    lowest = -1 if C.augmented else 0
    entries = []
    for k in range(lowest, C.top + 1):
        r = C.rank(k) - len(facs.get(k, [])) - len(facs.get(k + 1, []))
        tors = tuple(f for f in facs.get(k + 1, []) if f > 1)
        entries.append((k, r, tors))
    return HomologyTable(C.augmented, C.ring, tuple(entries))


def grid_surface(n, twist):
    """The n x n grid on the square as ``SimplicialComplex.from_json``
    data, two triangles per cell, with x wrapping mod n; crossing the top
    edge maps (x, n) to (x, 0) (a torus) or to (-x mod n, 0) (a Klein
    bottle). n >= 3 keeps it simplicial."""
    def v(x, y):
        if y == n:
            x, y = ((-x) % n if twist else x % n), 0
        return f"{x % n}{y}"
    facets = []
    for x in range(n):
        for y in range(n):
            a, b, c, d = v(x, y), v(x + 1, y), v(x, y + 1), v(x + 1, y + 1)
            facets += [[a, b, d], [a, c, d]]
    return {"vertices": sorted({u for f in facets for u in f}), "facets": facets}


class ProductChainComplex:
    """Total complex of C_*(C) tensor C_*(C) from ``tensor_total``, with
    its cells labelled as pairs (sigma, tau) of simplices: the definition
    that the diagonal and quotient are checked against."""

    def __init__(self, K, ring="Z"):
        cc = chain_complex(K, ring)
        self.chain = tensor_total(cc, cc)
        ranks = K.f_vector()
        self.cells = {
            n: [(K.simplices(i)[a], K.simplices(j)[b]) for i, a, j, b in cells]
            for n, cells in total_cells(ranks, ranks).items()
        }

    def restrict(self, cell_lists):
        """The complex on the cells ``cells[n][i]`` for i in
        ``cell_lists[n]``: the subcomplex when they are closed under the
        boundary, else the quotient, with faces outside the lists dropped."""
        pos_of = {(n, idx): p for n, idxs in cell_lists.items() for p, idx in enumerate(idxs)}
        boundaries = {}
        for n in sorted(cell_lists):
            if n == 0:
                continue
            src_cols = self.chain.boundary_columns(n)
            boundaries[n] = [{pos_of[(n - 1, i)]: v for i, v in src_cols[idx].items()
                              if (n - 1, i) in pos_of}
                             for idx in cell_lists[n]]
        ranks = [len(cell_lists[n]) for n in sorted(cell_lists)]
        return ChainComplex(self.chain.ring, ranks, boundaries, check=False)


def tensor_total_reference(A, B, keep=None, closed=True):
    """``complexes.tensor_total`` as it was built before it went block by
    block: every cell of ``total_cells`` listed as an (i, a, j, b) tuple,
    each face looked up in a dict keyed by those tuples, and the two parts
    of a column summed entry by entry. The oracle for the block build's
    ranks, columns and column key order, and for its errors."""
    if A.ring != B.ring:
        raise ComplexError("ring mismatch in tensor product")
    if A.augmented or B.augmented:
        raise ComplexError("tensor of augmented complexes not supported")
    for factor in (A,) if B is A else (A, B):
        factor.check_shapes()
        factor.check_dd_zero()
    cells = total_cells(A.ranks, B.ranks)
    if keep is not None:
        cells = {n: list(filter(keep, cl)) for n, cl in cells.items()}
    index = {cell: pos for cl in cells.values() for pos, cell in enumerate(cl)}
    at = index.get  # None for a face outside the kept cells
    ranks = [len(cl) for cl in cells.values()]
    a_cols = {i: A.boundary_columns(i) for i in range(1, A.top + 1)}
    b_cols = {j: B.boundary_columns(j) for j in range(1, B.top + 1)}
    boundaries = {}
    for n in range(1, len(ranks)):
        cols = []
        for (i, a, j, b) in cells[n]:
            col = {}
            if i > 0:
                for a2, v in a_cols[i][a].items():
                    col[at((i - 1, a2, j, b))] = v
            if j > 0:
                sign = (-1) ** i
                for b2, v in b_cols[j][b].items():
                    key = at((i, a, j - 1, b2))
                    col[key] = col.get(key, 0) + sign * v
            if None in col:
                if closed:
                    raise ComplexError("kept cells are not closed under the boundary")
                del col[None]
            cols.append({k: v for k, v in col.items() if v})
        boundaries[n] = cols
    return ChainComplex(A.ring, ranks, boundaries, check=not closed)


def star_counts(K) -> dict:
    """{(i, j): the j-simplices of the closed star of each i-simplex s,
    summed over s}. The closed star is the union of the facets that
    contain s (``SimplicialComplex.delta_sigma``), so its simplices are
    the nonempty subsets of those facets, counted here as bitmasks of
    vertex indices without building a complex per simplex."""
    subsets = []
    for f in K.facets:
        top = sum(1 << v for v in f)
        sub, m = [], top
        while m:
            sub.append(m)
            m = (m - 1) & top
        subsets.append((top, sub))
    counts = {}
    for i in range(K.dim + 1):
        sizes = collections.Counter()
        for s in K.simplices(i):
            s = sum(1 << v for v in s)
            star = set()
            for top, sub in subsets:
                if top & s == s:
                    star.update(sub)
            sizes.update(map(int.bit_count, star))
        for size, c in sizes.items():
            counts[(i, size - 1)] = c  # a j-simplex has j + 1 vertices
    return counts


def connected(v, mult):
    """Whether the multigraph {(i, j): k} on vertices 0..v-1 is connected."""
    adj = {i: set() for i in range(v)}
    for (i, j), k in mult.items():
        if i != j and k:
            adj[i].add(j)
            adj[j].add(i)
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == v


def canonical_reference(genera, mult):
    """``surfaces._canonical`` as it was before its refinement ran on
    integer signatures: colour each piece by (genus, loops), refine by the
    sorted (neighbour colour, multiplicity) pairs until a round splits no
    cell, split the first non-singleton cell each way, and keep the least
    leaf encoding (genera and multiplicities relabelled by the discrete
    colouring)."""
    v = len(genera)
    nbrs = [[] for _ in range(v)]
    for (i, j), k in mult.items():
        if i != j:
            nbrs[i].append((j, k))
            nbrs[j].append((i, k))

    def leaf(col):
        while True:
            sig = [(col[x], tuple(sorted((col[y], k) for y, k in nbrs[x]))) for x in range(v)]
            rank = {s: r for r, s in enumerate(sorted(set(sig)))}
            cells, col = len(set(col)), [rank[s] for s in sig]
            if len(rank) == cells:
                break
        split = [x for x in range(v) if col.count(col[x]) > 1]
        if not split:
            edges = sorted((*sorted((col[i], col[j])), k) for (i, j), k in mult.items())
            return tuple(g for _, g in sorted(zip(col, genera))), tuple(edges)
        first = min(col[x] for x in split)
        return min(leaf([2 * c + (y != x) for y, c in enumerate(col)])
                   for x in split if col[x] == first)

    return leaf([(genera[x], mult.get((x, x), 0)) for x in range(v)])


def dedupe_reference(raw):
    """``surfaces._dedupe`` before it bucketed by an invariant: one
    (genera, mult) pair per isomorphism class, the first raw member, by
    the canonical key of every candidate."""
    reps = {}
    for genera, mult in raw:
        reps.setdefault(_canonical(genera, mult), (genera, mult))
    return list(reps.values())


def cut_graph_reference(closed_genus, piece_genera, curve_edges):
    """The piece types of a cut graph, or the SurfaceError that refuses it,
    as ``CutSurfaceGraph.__post_init__`` computed them before it walked
    bitmasks and shared the piece types: adjacency lists, a search over a
    set, and a fresh SurfaceType per piece."""
    v = len(piece_genera)
    if v == 0:
        raise SurfaceError("no pieces")
    adj = [[] for _ in range(v)]
    r = [0] * v
    s = [0] * v
    for a, b, side in curve_edges:
        if not (0 <= a < v and 0 <= b < v) or side not in (0, 1):
            raise SurfaceError("bad curve edge")
        adj[a].append(b)
        adj[b].append(a)
        if side == 0:
            r[a] += 1
            s[b] += 1
        else:
            r[b] += 1
            s[a] += 1
    seen = {0}
    frontier = [0]
    while frontier:
        for y in adj[frontier.pop()]:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    if len(seen) != v:
        raise SurfaceError("cut graph is not connected")
    b1 = len(curve_edges) - v + 1
    if sum(piece_genera) + b1 != closed_genus:
        raise SurfaceError("piece genera and graph cycles do not add up to the genus")
    if len(curve_edges) > max(3 * closed_genus - 3, 0):
        raise SurfaceError("more curves than a maximal system allows")
    types = tuple(SurfaceType(g, r[i], s[i]) for i, g in enumerate(piece_genera))
    for i, t in enumerate(types):
        if not t.in_formula_range:
            raise SurfaceError(f"piece {i} = {t} is not an essential-cut piece")
    return types


def partitions(total, n, lo):
    """Nondecreasing n-tuples of integers >= lo that sum to total."""
    if n == 0:
        if total == 0:
            yield ()
        return
    for first in range(lo, total // n + 1):
        for rest in partitions(total - first, n - 1, first):
            yield (first,) + rest


def vertex_type_multisets(g, k, v):
    """Sorted (genus, degree) multisets of v cut pieces for k curves on the
    closed genus-g surface: a partition of the piece genera, then for each
    genus value a partition of its share of the 2k curve ends, genus-0
    pieces taking at least 3. In lexicographic order."""
    out = []
    for genera in partitions(g - (k - v + 1), v, 0):
        classes = sorted(collections.Counter(genera).items())

        def split(c, ends_left, acc):
            if c == len(classes):
                if ends_left == 0:
                    out.append(tuple(sorted(acc)))
                return
            gen, count = classes[c]
            for share in range(ends_left + 1):
                for degrees in partitions(share, count, 3 if gen == 0 else 1):
                    split(c + 1, ends_left - share, acc + [(gen, d) for d in degrees])

        split(0, 2 * k, [])
    return sorted(out)


def enumerate_multicurves_by_matching(g, k):
    """Number of k-curve multicurve types on the closed genus-g surface,
    counted by pairing half-edges (configuration-model construction)
    independently of ``surfaces.enumerate_multicurves``' search;
    exponential, small inputs only."""
    if g < 2 or not (1 <= k <= 3 * g - 3):
        raise SurfaceError("out of range")
    raw = []
    for v in range(max(1, k + 1 - g), k + 2):
        for types in vertex_type_multisets(g, k, v):
            genera = [t[0] for t in types]
            degrees = [t[1] for t in types]
            half = []
            for i, d in enumerate(degrees):
                half.extend([i] * d)

            def match(remaining, mult):
                if not remaining:
                    if connected(len(genera), mult):
                        raw.append((tuple(genera), dict(mult)))
                    return
                a = remaining[0]
                rest = remaining[1:]
                for idx in range(len(rest)):
                    b = rest[idx]
                    key = (min(half[a], half[b]), max(half[a], half[b]))
                    mult[key] = mult.get(key, 0) + 1
                    match(rest[:idx] + rest[idx + 1:], mult)
                    mult[key] -= 1
                    if not mult[key]:
                        del mult[key]

            match(list(range(len(half))), {})
    return len(_dedupe(raw))


# ---------------------------------------------------------------------------
# Flag pairs by constraint systems and graded images: the definitions that
# the table of intersection dimensions in ``flags`` is checked against.


def stab_pair_dim_by_rank(e, f):
    """dim(Stab(E) & Stab(F)) as the nullity of the two stacked
    stabilizer constraint systems."""
    if e.m != f.m:
        raise FlagError("ambient dimensions differ")
    rows = _stab_constraint_rows(e) + _stab_constraint_rows(f)
    return e.m * e.m - sparse_rank(rows)


def nilpotent_constraint_rows(e):
    """Rows cutting out {A : A E_{i+1} <= E_i} (the strictly block-upper
    algebra of the flag)."""
    padded = e.padded
    return _containment_rows(e.m, zip(padded[1:], padded))


def nil_stab_dim_by_rank(e, f):
    """dim(N & Stab(F)), N the strictly block-upper algebra of E, as the
    nullity of the stacked constraint systems."""
    return e.m * e.m - sparse_rank(nilpotent_constraint_rows(e) + _stab_constraint_rows(f))


def pair_table_by_sum_space(e, f):
    """Table d[i][j] = dim(E_i & F_j) over the padded flags, each entry
    from the canonical basis of E_i + F_j, with no memo."""
    return tuple(
        tuple(len(a) + len(b) - len(ratlin.sum_space(a, b)) for b in f.padded)
        for a in e.padded
    )


def graded_images(e, f):
    """Table of the images (E_{i+1} & F_j) + E_i inside Q^m, one row per
    graded level i of E and one entry per member F_j of F."""
    padded = e.padded
    return tuple(
        tuple(ratlin.sum_space(ratlin.intersection(hi, fj, e.m), lo) for fj in f.subspaces)
        for lo, hi in zip(padded, padded[1:])
    )


def _proper(w, lo, hi):
    return len(lo) < len(w) < len(hi)


def induced_flags_by_images(e, f):
    """Induced chains per graded piece and their lengths: the distinct
    proper images, shortest first."""
    padded = e.padded
    pieces = [
        sorted({w for w in images if _proper(w, lo, hi)}, key=len)
        for lo, hi, images in zip(padded, padded[1:], graded_images(e, f))
    ]
    return pieces, [len(c) for c in pieces]


def f0_subflag_by_images(e, f):
    """Subflag of F whose members induce only trivial or full images in
    every graded piece of E."""
    padded = e.padded
    table = graded_images(e, f)
    keep = tuple(
        fj for j, fj in enumerate(f.subspaces)
        if not any(_proper(images[j], lo, hi)
                   for lo, hi, images in zip(padded, padded[1:], table))
    )
    return RationalFlag(e.m, keep)


# ---------------------------------------------------------------------------
# Forced zeros of permuted coordinate flags: the per-flag set rule and the
# stabilizer algebra itself, the references of ``flags.forced_zeros``.


def forced_zero_count_by_sets(m, dims, w):
    """Above-diagonal entries forced to zero on the stabilizer of the
    standard flag with member dimensions ``dims`` moved by the permutation
    w, counted flag by flag on sets: each member is the set w{0..d-1}, and
    (i, j), i < j, is forced when some member holds j but not i. None when
    a member is fixed, that is when w maps {0..d-1} onto itself."""
    moved = [frozenset(w[:d]) for d in dims]
    if any(s == frozenset(range(d)) for d, s in zip(dims, moved)):
        return None
    return sum(1 for i, j in itertools.combinations(range(m), 2)
               if any(j in s and i not in s for s in moved))


def forced_zero_rule_mismatches(m):
    """(checked, mismatches): every (w, dims) at m, the dims a nonempty
    subset of 1..m-1, on which ``flags.forced_zeros`` and
    ``forced_zero_count_by_sets`` disagree, on whether a member is fixed or
    on the count, and the number of pairs with no fixed member."""
    checked, mismatches = 0, []
    dim_sets = [dims for r in range(1, m) for dims in itertools.combinations(range(1, m), r)]
    for w in itertools.permutations(range(m)):
        fixed, forcing = forced_zeros(w)
        for dims in dim_sets:
            bits = sum(1 << d for d in dims)
            got = None if bits & fixed else sum(1 for f in forcing.values() if f & bits)
            expected = forced_zero_count_by_sets(m, dims, w)
            checked += expected is not None
            if got != expected:
                mismatches.append((w, dims, got, expected))
    return checked, mismatches


def forced_zeros_by_nullspace(m, sets):
    """The above-diagonal entries (i, j) that vanish on the whole
    stabilizer algebra of the coordinate flag spanned by the nested index
    sets: a basis of the algebra from ``ratlin.nullspace`` of its
    containment constraints over the m*m matrix entries, read entry by
    entry."""
    rows = _stab_constraint_rows(coordinate_flag(m, sets))
    basis = ratlin.nullspace([[row.get(k, 0) for k in range(m * m)] for row in rows], m * m)
    return {(i, j) for i, j in itertools.combinations(range(m), 2)
            if not any(v[i * m + j] for v in basis)}


# ---------------------------------------------------------------------------
# Random flags drawn entry by entry as Fractions: the flags with general
# rational entries that the pair-table tests read, which no criterion draws.


def random_flag_reference(m, dims, rng):
    """A random flag with the given dimension profile (sorted, in 1..m-1):
    m rows of m small-height entries a/b, each drawn as randint(-5, 5) then
    randint(1, 5) and built as a Fraction, each row cleared by
    ``ratlin.integer_row``, redrawn until the rows have rank m. The flag is
    built from the rref of each prefix with no ``RationalFlag.make``: the
    prefixes of a full-rank draw are nested and proper."""
    while True:
        rows = [integer_row([Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                             for _ in range(m)])
                for _ in range(m)]
        if rank(rows) == m:
            return RationalFlag(m, tuple(rref(rows[:d]) for d in dims))


def random_disjoint_pair(m, rng):
    """Two random flags at m with random dimension profiles, redrawn until
    they share no subspace."""
    while True:
        r1, r2 = rng.randint(1, m - 1), rng.randint(1, m - 1)
        d1, d2 = sorted(rng.sample(range(1, m), r1)), sorted(rng.sample(range(1, m), r2))
        e = random_flag_reference(m, d1, rng)
        f = random_flag_reference(m, d2, rng)
        if e.disjoint_from(f):
            return e, f


# ---------------------------------------------------------------------------
# Relative positions of two flags, enumerated from their margins: the
# completeness oracle of the coordinate sweeps of criteria 2 and 3.


def _margin_matrices(rows, cols):
    """Every nonnegative integer matrix with the given row and column sums,
    as a tuple of row tuples."""
    if not rows:
        if not any(cols):
            yield ()
        return
    for row in itertools.product(*(range(c + 1) for c in cols)):
        if sum(row) == rows[0]:
            for rest in _margin_matrices(rows[1:], tuple(c - x for c, x in zip(cols, row))):
                yield (row,) + rest


def disjoint_positions(m):
    """The set of tables d[i][j] = dim(E_i & F_j), as ``flags._position``
    writes them in its one evaluation of a pair's relative position, of
    every pair of nonempty flags in Q^m that share no subspace, from the
    margins alone: for each pair of dimension profiles, every nonnegative
    integer matrix n whose row sums are the graded dimensions of E and
    whose column sums are those of F (n[k][l] counts the vectors of a
    common adapted basis at E-level k and F-level l), summed into its
    cumulative table d. A table with dim E_i = d[i][j] = dim F_j has
    E_i = F_j, and is dropped."""
    profiles = [(0, *dims, m) for r in range(1, m)
                for dims in itertools.combinations(range(1, m), r)]
    tables = set()
    for pe, pf in itertools.product(profiles, repeat=2):
        graded_e = tuple(b - a for a, b in zip(pe, pe[1:]))
        graded_f = tuple(b - a for a, b in zip(pf, pf[1:]))
        for n in _margin_matrices(graded_e, graded_f):
            d = [[0] * len(pf)]
            for row in n:
                sums = itertools.accumulate(row, initial=0)
                d.append([above + s for above, s in zip(d[-1], sums)])
            if not any(d[i][j] == pe[i] == pf[j]
                       for i in range(1, len(pe) - 1) for j in range(1, len(pf) - 1)):
                tables.add(tuple(map(tuple, d)))
    return tables


# ---------------------------------------------------------------------------
# The symmetric triple form as its 8-term sum, the reference of
# ``cupforms.TripleForm.triple``.


def triple_reference(T, u, v, w):
    """The sum of c_abc u_a v_b w_c over a, b, c in {1, 2}, in Fractions,
    each coefficient read from the field named by the sorted indices."""
    total = Fraction(0)
    for a, b, c in itertools.product((1, 2), repeat=3):
        coefficient = getattr(T, "c" + "".join(map(str, sorted((a, b, c)))))
        total += coefficient * Fraction(u[a - 1]) * Fraction(v[b - 1]) * Fraction(w[c - 1])
    return total


def report_json_reference(rep):
    """``Report.to_json`` as a deep copy: ``asdict`` of the whole report,
    every row copied and every dataclass at any depth turned into a dict."""
    out = asdict(rep)
    return {"status": out["status"], **out["details"]}
