import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (dense_rank_mod_p, grid_surface, homology_by_sympy, homology_per_degree,
                     tensor_total_reference)
from smallmodel import complexes
from smallmodel.complexes import (
    ChainComplex,
    ComplexError,
    SimplicialComplex,
    chain_complex,
    homology,
    tensor_total,
    total_cells,
)
from smallmodel.diagonal import _diagonal_rule, build_diagonal
from smallmodel.flags import finite_building
from smallmodel.normalform import invariant_factors, rank_mod_p


def circle(n=3):
    verts = list(range(n))
    edges = [[i, (i + 1) % n] for i in range(n)]
    return SimplicialComplex(verts, edges)


def sphere2():
    return SimplicialComplex(
        "abcd", [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]]
    )


def projective_plane():
    facets = [
        (1, 2, 6), (2, 3, 6), (3, 4, 6), (4, 5, 6), (1, 5, 6),
        (1, 2, 4), (2, 4, 5), (2, 3, 5), (1, 3, 5), (1, 3, 4),
    ]
    return SimplicialComplex(range(1, 7), facets)


def test_downward_closure_and_f_vector():
    K = SimplicialComplex("abc", [["a", "b", "c"]])
    assert K.f_vector() == (3, 3, 1)
    assert K.has_simplex((0, 1))
    assert K.dim == 2


def test_empty_and_bad_inputs():
    with pytest.raises(ComplexError):
        SimplicialComplex("ab", [])
    with pytest.raises(ComplexError):
        SimplicialComplex("ab", [["a", "z"]])
    with pytest.raises(ComplexError):
        SimplicialComplex("aab", [["a", "b"]])


def test_circle_sphere_homology():
    assert homology(circle()).to_json() == [{"degree": 1, "rank": 1, "torsion": []}]
    assert homology(sphere2()).to_json() == [{"degree": 2, "rank": 1, "torsion": []}]


def test_projective_plane_torsion():
    h = homology(projective_plane())
    assert h.to_json() == [{"degree": 1, "rank": 0, "torsion": [2]}]
    # over F_2 the torsion becomes visible in two degrees
    h2 = homology(projective_plane(), ring=2)
    assert h2.rank(1) == 1 and h2.rank(2) == 1


@pytest.mark.parametrize("k", [1, 2, 30])
def test_wedge_of_projective_planes(k):
    # k copies glued at vertex 1: H_1 = (Z/2)^k and nothing else, and the
    # k factors 2 come out of the residual loop, not the unit pivots
    rp2 = projective_plane()
    facets = [[1 if v == 1 else f"{c}:{v}" for v in (rp2.vertices[i] for i in f)]
              for c in range(k) for f in rp2.facets]
    K = SimplicialComplex(sorted({v for f in facets for v in f}, key=str), facets)
    assert K.f_vector() == (1 + 5 * k, 15 * k, 10 * k)
    assert homology(K).to_json() == [{"degree": 1, "rank": 0, "torsion": [2] * k}]
    h2 = homology(K, ring=2)
    assert h2.nonzero_degrees() == [1, 2] and h2.rank(1) == h2.rank(2) == k


def test_unreduced_vs_reduced():
    two_points = SimplicialComplex("ab", [["a"], ["b"]])
    assert homology(two_points, reduced=False).rank(0) == 2
    assert homology(two_points, reduced=True).rank(0) == 1


def test_flag_detection():
    filled = SimplicialComplex("abc", [["a", "b", "c"]])
    hollow = circle()
    assert filled.is_flag()
    assert not hollow.is_flag()


def test_link_star_neighborhood():
    K = sphere2()
    v = (0,)  # the vertex a
    star = K.delta_sigma(v)
    assert homology(star).is_trivial()  # a cone
    nb = K.neighborhood(v)  # every facet through a: a cone, misses only bcd
    assert homology(nb).is_trivial()
    with pytest.raises(ComplexError):
        K.delta_sigma((0, 1, 2, 3))  # not a simplex


def test_relabel_preserves_homology():
    K = projective_plane()
    mapping = {v: f"x{v * 7 % 13}" for v in K.vertices}
    assert homology(K).same_groups(homology(K.relabel(mapping)))


def test_json_round_trip():
    K = sphere2()
    K2 = SimplicialComplex.from_json(K.to_json())
    assert homology(K).same_groups(homology(K2))
    assert K2.f_vector() == K.f_vector()


def test_euler_characteristic_agreement():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(3, 6)
        facets = set()
        for _ in range(rng.randint(2, 6)):
            size = rng.randint(1, min(4, n))
            facets.add(tuple(sorted(rng.sample(range(n), size))))
        K = SimplicialComplex(range(n), [list(f) for f in facets])
        chi_f = sum((-1) ** d * f for d, f in enumerate(K.f_vector()))
        h = homology(K, reduced=False)
        assert h.euler_characteristic() == chi_f


def test_tensor_total_matches_product_sphere():
    # S2 x S2 has ranks 1, 0, 2, 0, 1 in degrees 0..4 over F_2
    c = chain_complex(sphere2(), 2)
    prod = tensor_total(c, c)
    h = prod.homology()
    assert [h.rank(n) for n in range(5)] == [1, 0, 2, 0, 1]


def test_tensor_total_keeps_a_subcomplex_and_refuses_an_open_set():
    # edge x edge: the square's 2-cell alone is no subcomplex, so it is
    # refused when closed and keeps no boundary in the quotient
    c = chain_complex(SimplicialComplex("ab", [["a", "b"]]))

    def top_only(cell):
        i, _, j, _ = cell
        return i + j == 2

    with pytest.raises(ComplexError, match="not closed"):
        tensor_total(c, c, keep=top_only)
    quotient = tensor_total(c, c, keep=top_only, closed=False)
    assert quotient.ranks == [0, 0, 1]
    assert quotient.boundaries[2] == [{}]
    # keeping every cell is the product itself
    full = tensor_total(c, c, keep=lambda cell: True)
    assert full.boundaries == tensor_total(c, c).boundaries


def test_tensor_total_refuses_a_malformed_factor_by_name():
    # degree 1 names cell 5 of a rank-2 degree 0: the face would read as a
    # cell outside the kept ones, or drop out of a quotient unseen, if the
    # factor's own shapes were not checked first
    bad = ChainComplex(2, [2, 1], {1: [{0: 1, 5: 1}]}, check=False)
    loop = ChainComplex(2, [1, 1], {1: [{}]})
    for A, B in ((bad, loop), (loop, bad), (bad, bad)):
        for closed in (True, False):
            with pytest.raises(ComplexError, match="boundary 1 hits indices outside degree 0"):
                tensor_total(A, B, closed=closed)


@pytest.mark.parametrize("ring", ["Z", 3])
def test_tensor_total_refuses_a_factor_with_nonzero_dd(ring):
    # d_1 d_2 = 2 on the 0-cell, nonzero over Z and F_3; the cells over the
    # bad factor's degree 0 are a subcomplex that holds none of its 2-cells,
    # and the quotient by it has d∘d = 0, yet both are refused
    bad = ChainComplex(ring, [1, 1, 1], {1: [{0: 1}], 2: [{0: 2}]}, check=False)
    point = ChainComplex(ring, [1], {})
    for A, B, side in ((bad, point, 0), (point, bad, 2)):
        def low(cell, side=side):
            return cell[side] == 0

        def high(cell, side=side):
            return cell[side] > 0

        for keep, closed in ((None, True), (low, True), (high, False)):
            with pytest.raises(ComplexError, match="boundary composition is nonzero"):
                tensor_total(A, B, keep=keep, closed=closed)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["Z", 2, 3]))
def test_products_and_diagonals_pass_the_product_checks(seed, ring):
    # tensor_total checks only its factors and builds a product or a kept
    # subcomplex unchecked, since d^2(a x b) = d^2 a x b + a x d^2 b; the
    # checks on the results themselves catch a slip in its sign rule
    rng = random.Random(seed)
    A = chain_complex(random_clique_complex(rng, rng.randint(2, 5)), ring)
    B = chain_complex(random_clique_complex(rng, rng.randint(2, 5)), ring)
    K = random_clique_complex(rng, rng.randint(3, 6))
    for C in (tensor_total(A, B), tensor_total(B, A), tensor_total(A, A),
              build_diagonal(K, ring).diagonal):
        C.check_shapes()
        C.check_dd_zero()


def union_rule(KA, KB, L):
    """The predicate on the cells (i, a, j, b) of A (x) B, A and B the
    chains of KA and KB on shared vertex labels, that holds when the two
    simplices span a simplex of L. Faces of a kept cell span faces of that
    simplex, so the kept cells are closed; with KA = KB = L this is
    ``diagonal._diagonal_rule``."""
    faces = {frozenset(s) for s in L.all_simplices()}

    def on(cell):
        i, a, j, b = cell
        return frozenset(KA.simplices(i)[a]) | frozenset(KB.simplices(j)[b]) in faces

    return on


def built(make, A, B, keep, closed):
    """The ranks and each column's entries, in order, of a product, or the
    text of the ComplexError that refuses it."""
    try:
        C = make(A, B, keep=keep, closed=closed)
    except ComplexError as exc:
        return str(exc)
    return C.ring, C.ranks, [(n, [list(col.items()) for col in cols])
                             for n, cols in C.boundaries.items()]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["Z", 2, 3]))
def test_tensor_total_matches_the_cell_list_reference(seed, ring):
    # the block build against the 4-tuple cell list and its tuple-keyed
    # index: ranks, columns and the key order in each column (pivots are
    # picked in that order), and the same refusal for an open keep
    rng = random.Random(seed)
    KA = random_clique_complex(rng, rng.randint(2, 5))
    KB = random_clique_complex(rng, rng.randint(2, 5))
    A, B = chain_complex(KA, ring), chain_complex(KB, ring)
    # an edge whose column holds an explicit 0 at its second endpoint
    zero = ChainComplex(ring, [2, 1], {1: [{1: 0, 0: 1}]})
    edge = SimplicialComplex(range(2), [[0, 1]])
    cases = [(A, B, KA, KB), (B, A, KB, KA), (A, A, KA, KA), (zero, A, edge, KA),
             (A, zero, KA, edge)]
    for X, Y, KX, KY in cases:
        on = _diagonal_rule(KX) if X is Y else union_rule(KX, KY, KX if rng.random() < 0.5 else KY)
        top = X.top + Y.top
        coin = {}

        def anything(cell):
            return coin.setdefault(cell, rng.random() < 0.7)

        keeps = [(None, True), (on, True), (lambda c: not on(c), False),
                 (lambda c: c[0] + c[2] == top, True), (lambda c: c[1] != 1, True),
                 (lambda c: c[1] != 1, False), (anything, True), (anything, False)]
        for keep, closed in keeps:
            new = built(tensor_total, X, Y, keep, closed)
            assert new == built(tensor_total_reference, X, Y, keep, closed), (keep, closed)
            if keep is on:
                assert not isinstance(new, str), new


def random_clique_complex(rng, n):
    """The clique complex of a random graph on n vertices."""
    edges = {e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6}
    cliques = [
        c
        for k in range(1, n + 1)
        for c in itertools.combinations(range(n), k)
        if all(e in edges for e in itertools.combinations(c, 2))
    ]
    return SimplicialComplex(range(n), cliques)


def ranks_without_clearing(C, p):
    """Homology ranks of C from dense F_p ranks of every boundary."""
    rk = {}
    for k, cols in C.boundaries.items():
        rows = [[col.get(i, 0) for col in cols] for i in range(C.rank(k - 1))]
        rk[k] = dense_rank_mod_p(rows, p)
    lowest = -1 if C.augmented else 0
    return tuple(
        (k, C.rank(k) - rk.get(k, 0) - rk.get(k + 1, 0), ())
        for k in range(lowest, C.top + 1)
    )


def unimodular(rng, n):
    """A random n x n integer matrix of determinant 1 and its inverse."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in a]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        # a becomes E a and inv becomes inv E^-1, for E = I + c e_i e_j^T
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for row in inv:
            row[j] -= c * row[i]
    return a, inv


def random_chain_complex(rng, ranks, ring, factors=None):
    """A chain complex over ``ring`` (F_p or Z) with the given ranks and
    random dense boundaries d_k = A_(k-1) D_k A_k^-1, each A unimodular
    and D_k sending its first r_k cells to the last r_k cells of degree
    k - 1, which D_(k-1) leaves out, so that d_(k-1) d_k = 0. Each of
    those images is scaled by a draw from ``factors`` when it is given,
    so that over Z a factor other than +-1 is torsion."""
    change = [unimodular(rng, n) for n in ranks]
    boundaries = {}
    r = 0
    for k in range(1, len(ranks)):
        r = rng.randint(0, min(ranks[k - 1] - r, ranks[k]))
        scale = [rng.choice(factors) if factors else 1 for _ in range(r)]
        a, below = change[k - 1][0], ranks[k - 1]
        inv = change[k][1]
        cols = []
        for j in range(ranks[k]):
            image = {below - 1 - i: scale[i] * inv[i][j] for i in range(r)}
            col = {t: sum(a[t][s] * x for s, x in image.items()) for t in range(below)}
            if ring != "Z":
                col = {t: v % ring for t, v in col.items()}
            cols.append({t: v for t, v in col.items() if v})
        boundaries[k] = cols
    return ChainComplex(ring, ranks, boundaries)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3, 5]))
def test_clearing_against_dense_ranks(seed, p):
    rng = random.Random(seed)
    K = random_clique_complex(rng, rng.randint(3, 8))
    # one complex walked bottom up (its bottom end has fewer cells) and
    # one walked top down
    ranks = sorted(rng.randint(1, 7) for _ in range(rng.randint(2, 5)))
    ranks[-1] += ranks[0] == ranks[-1]
    examples = [
        random_chain_complex(rng, ranks, p),
        random_chain_complex(rng, ranks[::-1], p),
        chain_complex(K, p, reduced=True),
        chain_complex(K, p, reduced=False),
        tensor_total(
            chain_complex(random_clique_complex(rng, rng.randint(2, 4)), p),
            chain_complex(random_clique_complex(rng, rng.randint(2, 4)), p),
        ),
        build_diagonal(random_clique_complex(rng, rng.randint(3, 5)), p).quotient,
    ]
    for C in examples:
        assert C.homology().entries == ranks_without_clearing(C, p)


@pytest.mark.parametrize("ranks, boundaries, expected", [
    # a rank-0 degree between two nonzero ones, walked top down and bottom up
    ([2, 0, 1], {1: [], 2: [{}]}, [2, 0, 1]),
    ([1, 0, 2], {1: [], 2: [{}, {}]}, [1, 0, 2]),
    # a zero boundary between two nonzero ones: the pivots of d_3 (of
    # d_1^T bottom up) must not skip a column of d_1 (of d_3^T)
    ([1, 1, 1, 1], {1: [{0: 1}], 3: [{0: 1}]}, [0, 0, 0, 0]),
    ([1, 1, 1, 2], {1: [{0: 1}], 3: [{0: 1}, {0: 1}]}, [0, 0, 0, 1]),
])
def test_an_empty_degree_resets_clearing(ranks, boundaries, expected):
    for p in (2, 3):
        C = ChainComplex(p, ranks, boundaries)
        assert [C.homology().rank(k) for k in range(len(ranks))] == expected
        assert C.homology().entries == ranks_without_clearing(C, p)


def assert_three_ways(C):
    """The walk that skips the rows of unit pivots, every boundary reduced
    from scratch, and sympy's Smith forms give one HomologyTable."""
    h = C.homology()
    assert h == homology_per_degree(C)
    assert h == homology_by_sympy(C)
    return h


def shuffled(rng, K):
    """K with its vertices renamed at random, which reorders every
    boundary."""
    names = rng.sample(range(len(K.vertices)), len(K.vertices))
    return K.relabel(dict(zip(K.vertices, names)))


# factors for the hand-built boundaries: units, and torsion
FACTORS = (1, -1, 1, -1, 2, -2, 3, 4, 6)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_homology_over_z_against_every_degree_from_scratch_and_sympy(seed):
    rng = random.Random(seed)
    klein_bottle = SimplicialComplex.from_json(grid_surface(4, twist=True))
    for reduced in (True, False):
        K = random_clique_complex(rng, rng.randint(3, 8))
        assert_three_ways(chain_complex(K, "Z", reduced=reduced))
        h = assert_three_ways(chain_complex(shuffled(rng, projective_plane()), "Z", reduced))
        assert (h.rank(1), h.torsion(1), h.rank(2)) == (0, (2,), 0)
        h = assert_three_ways(chain_complex(shuffled(rng, klein_bottle), "Z", reduced))
        assert (h.rank(1), h.torsion(1), h.rank(2)) == (1, (2,), 0)
    # dense boundaries with torsion, and their product, whose Tor terms
    # sit one degree above the tensor terms
    A = random_chain_complex(rng, [rng.randint(1, 4) for _ in range(rng.randint(2, 4))],
                             "Z", FACTORS)
    B = random_chain_complex(rng, [rng.randint(1, 4) for _ in range(rng.randint(2, 3))],
                             "Z", FACTORS)
    for C in (A, B, tensor_total(A, B)):
        assert_three_ways(C)


def test_homology_over_z_of_products_with_tor_terms():
    # Z/2 in degree 0, squared: Z/2 (x) Z/2 in degree 0 and Tor(Z/2, Z/2)
    # in degree 1
    C = ChainComplex("Z", [1, 1], {1: [{0: 2}]})
    assert assert_three_ways(tensor_total(C, C)).to_json() == [
        {"degree": 0, "rank": 0, "torsion": [2]}, {"degree": 1, "rank": 0, "torsion": [2]}]
    # RP^2 x RP^2 (Kunneth): H_1 = (Z/2)^2, H_2 = Z/2 (x) Z/2 and H_3 =
    # Tor(Z/2, Z/2)
    rp2 = chain_complex(projective_plane(), "Z")
    assert assert_three_ways(tensor_total(rp2, rp2)).entries == (
        (0, 1, ()), (1, 0, (2, 2)), (2, 0, (2,)), (3, 0, (2,)), (4, 0, ()))


@pytest.mark.parametrize("ranks, boundaries, expected", [
    # a rank-0 degree between two nonzero ones: the unit pivot of d_1
    # must not skip row 0 of d_4, which holds the torsion
    ([1, 1, 0, 1, 1], {1: [{0: 1}], 4: [{0: 2}]}, [(0, ()), (0, ()), (0, ()), (0, (2,)), (0, ())]),
    # a zero boundary between two nonzero ones, the same way
    ([1, 1, 1, 1], {1: [{0: 1}], 3: [{0: 3}]}, [(0, ()), (0, ()), (0, (3,)), (0, ())]),
    ([1, 1, 1, 1], {1: [{0: 1}], 2: [{}], 3: [{0: 1}]}, [(0, ()), (0, ()), (0, ()), (0, ())]),
])
def test_an_empty_degree_resets_the_rows_skipped_over_z(ranks, boundaries, expected):
    C = ChainComplex("Z", ranks, boundaries)
    h = assert_three_ways(C)
    assert [(h.rank(k), h.torsion(k)) for k in range(len(ranks))] == expected


def test_homology_over_z_skips_the_rows_of_unit_pivots(monkeypatch):
    calls = []

    def recording(columns, *args, **kwargs):
        factors = invariant_factors(columns, *args, **kwargs)
        calls.append((columns, set(kwargs.get("cleared", ())), set(kwargs.get("lows") or ())))
        return factors

    monkeypatch.setattr(complexes, "invariant_factors", recording)
    # the reduced building of GL_4(F_3): bottom up, one call per boundary,
    # each skipping the rows named by the unit pivots of the one before
    K = finite_building(4, 3)
    C = chain_complex(K, "Z", reduced=True)
    assert C.homology().to_json() == [{"degree": 2, "rank": 3**6, "torsion": []}]
    assert [columns for columns, _, _ in calls] == [C.boundaries[k] for k in (0, 1, 2)]
    (_, skip0, units0), (_, skip1, units1), (_, skip2, _) = calls
    assert skip0 == set() and skip1 == units0 and skip2 == units1
    # the augmentation's one pivot skips a vertex, and d_1 of a connected
    # graph (totally unimodular) has unit pivots only, so d_2, the top
    # boundary, reaches invariant_factors without the rows of a spanning
    # tree's edges
    assert len(units0) == 1
    assert len(skip2) == len(K.vertices) - 1


def test_homology_over_f_p_walks_from_the_smaller_end(monkeypatch):
    calls = []

    def recording(columns, p, **kwargs):
        calls.append(list(columns))
        return rank_mod_p(calls[-1], p, **kwargs)

    monkeypatch.setattr(complexes, "rank_mod_p", recording)
    # the reduced building: degree -1 has one cell, so the walk starts
    # with the single column of the augmentation's transpose
    K = finite_building(4, 3)
    assert homology(K, 3).rank(2) == 3**6
    assert calls[0] == [dict.fromkeys(range(len(K.vertices)), 1)]
    # triangle x circle has ranks 9, 18, 12, 3: top down, from d_3
    calls.clear()
    disc = SimplicialComplex("abc", [["a", "b", "c"]])
    C = tensor_total(chain_complex(disc, 3), chain_complex(circle(), 3))
    assert C.ranks == [9, 18, 12, 3]
    assert [C.homology().rank(n) for n in range(4)] == [1, 1, 0, 0]
    assert calls[0] == C.boundaries[3]



@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6))
def test_is_flag_against_brute_force(seed):
    # random complexes, flag or not, on declared vertices some of which
    # lie in no facet; an unused vertex is not a clique of the 1-skeleton
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    used = rng.randint(1, n)
    facets = [rng.sample(range(used), rng.randint(1, min(used, 4)))
              for _ in range(rng.randint(1, 8))]
    K = SimplicialComplex(range(n), facets)
    verts = [v for (v,) in K.simplices(0)]
    edges = set(K.simplices(1))
    cliques = [c for k in range(1, len(verts) + 1) for c in itertools.combinations(verts, k)
               if all(e in edges for e in itertools.combinations(c, 2))]
    assert K.is_flag() == all(K.has_simplex(c) for c in cliques)


def test_total_cells_order():
    # by degree n, then the first factor's degree i, then a, then b
    assert total_cells([2, 1], [2, 1]) == {
        0: [(0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 1, 0, 1)],
        1: [(0, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 0), (1, 0, 0, 1)],
        2: [(1, 0, 1, 0)],
    }

def test_dd_zero_enforced():
    c = chain_complex(projective_plane(), "Z")
    c.check_dd_zero()
    # corrupt a boundary entry of a copy (the complex's columns are shared
    # by all its chain complexes) and expect the check to fire
    cols = [dict(col) for col in c.boundaries[2]]
    cols[0][0] += 1
    c.boundaries[2] = cols
    with pytest.raises(ComplexError):
        c.check_dd_zero()


def test_chain_complexes_share_the_signed_columns():
    K = projective_plane()
    over_z = chain_complex(K, "Z")
    snapshot = {d: [dict(col) for col in cols] for d, cols in over_z.boundaries.items()}
    reduced = chain_complex(K, 3, reduced=True)
    for d in range(1, K.dim + 1):
        assert reduced.boundaries[d] is over_z.boundaries[d]
    # no degree 0 leaks back into the shared columns from the reduced complex
    assert 0 not in chain_complex(K, 2).boundaries
    for ring in ("Z", 2, 3):
        homology(K, ring=ring)
        homology(K, ring=ring, reduced=False)
    assert over_z.boundaries == snapshot
    # each column is the alternating sum of the faces
    for d, cols in snapshot.items():
        for s, col in zip(K.simplices(d), cols):
            faces = K.simplices(d - 1)
            assert {faces[i]: v for i, v in col.items()} == {
                s[:j] + s[j + 1:]: (-1) ** j for j in range(len(s))}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_facet_filter_against_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    facets = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 6))]
    # nested faces, repeats and equal-size facets, in shuffled order
    for _ in range(rng.randint(0, 6)):
        f = rng.choice(facets)
        facets.append(rng.sample(f, rng.randint(1, len(f))))
    for _ in range(rng.randint(0, 3)):
        facets.append(list(reversed(rng.choice(facets))))
    rng.shuffle(facets)
    K = SimplicialComplex(range(n), facets)
    sets = {frozenset(f) for f in facets}
    maximal = {f for f in sets if not any(f < g for g in sets)}
    assert K.facets == maximal
    faces = {
        sub
        for f in maximal
        for k in range(1, len(f) + 1)
        for sub in itertools.combinations(sorted(f), k)
    }
    for d in range(-1, n + 1):
        assert K.simplices(d) == sorted(s for s in faces if len(s) == d + 1)
