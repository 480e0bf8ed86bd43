import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ProductChainComplex, star_counts
from smallmodel import complexes, diagonal
from smallmodel.complexes import SimplicialComplex, homology, maximal_cliques
from smallmodel.diagonal import (
    build_diagonal,
    check_retraction,
    decomposition_check,
    long_exact_consistency,
)


def filled_triangle():
    return SimplicialComplex("abc", [["a", "b", "c"]])


def two_triangles():
    # two filled triangles glued along an edge: flag, contractible
    return SimplicialComplex("abcd", [["a", "b", "c"], ["b", "c", "d"]])


def hollow_triangle():
    return SimplicialComplex("abc", [["a", "b"], ["b", "c"], ["a", "c"]])


def test_product_cell_counts():
    K = filled_triangle()
    parts = build_diagonal(K)
    total_product = sum(len(cells) for cells in parts.product.cells.values())
    assert total_product == sum(K.f_vector()) ** 2
    # every pair lies in the diagonal of a simplex
    assert all(all(map(parts.on, v)) for v in parts.product.cells.values())
    assert sum(parts.diagonal.ranks) == total_product
    assert parts.quotient.ranks == [0] * len(parts.diagonal.ranks)


def test_retraction_on_flag_complexes():
    for K in (filled_triangle(), two_triangles()):
        rep = check_retraction(K)
        assert rep.passed, rep.details


def test_decomposition_bookkeeping():
    for K in (filled_triangle(), two_triangles(), hollow_triangle()):
        rep = decomposition_check(K)
        assert rep.passed, rep.details["mismatches"]


def test_quotient_vanishing_contractible():
    h = build_diagonal(two_triangles()).quotient.homology()
    assert h.nonzero_degrees() == []


def test_quotient_sees_the_hole():
    # for the circle, H(C x C, diagonal) is nontrivial
    h = build_diagonal(hollow_triangle()).quotient.homology()
    assert h.nonzero_degrees()


def test_long_exact_consistency():
    for K in (filled_triangle(), two_triangles(), hollow_triangle()):
        for p in (2, 3):
            rep = long_exact_consistency(build_diagonal(K, p))
            assert rep.passed, rep.details


def test_diagonal_closed_under_boundary():
    parts = build_diagonal(two_triangles())
    parts.diagonal.check_dd_zero()
    parts.quotient.check_dd_zero()
    h = parts.diagonal.homology()
    assert h.same_groups(homology(two_triangles(), reduced=False))


def random_complex(rng):
    """Random facets on at most 6 vertices: flag or not, mixed dimension."""
    n = rng.randint(1, 6)
    facets = [rng.sample(range(n), rng.randint(1, min(n, 4))) for _ in range(rng.randint(1, 5))]
    return SimplicialComplex(range(n), facets)


def clique_complex(K):
    """The flag complex on the 1-skeleton of K."""
    adj = {v: set() for (v,) in K.simplices(0)}
    for a, b in K.simplices(1):
        adj[a].add(b)
        adj[b].add(a)
    return SimplicialComplex(K.vertices, [[K.vertices[v] for v in c] for c in maximal_cliques(adj)])


def signed_faces(s):
    return [(s[:k] + s[k + 1:], (-1) ** k) for k in range(len(s))] if len(s) > 1 else []


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_product_boundary_matches_the_cell_labels(seed):
    # d(s x t) = ds x t + (-1)^dim(s) s x dt, read off the labels; a drift
    # between tensor_total's bases and the labelled cells breaks this
    K = random_complex(random.Random(seed))
    prod = ProductChainComplex(K)
    for n, cells in prod.cells.items():
        assert len(cells) == prod.chain.rank(n)
        if n == 0:
            continue
        pos = {cell: i for i, cell in enumerate(prod.cells[n - 1])}
        for (s, t), col in zip(cells, prod.chain.boundary_columns(n)):
            expected = {}
            for face, sign in signed_faces(s):
                expected[pos[(face, t)]] = sign
            for face, sign in signed_faces(t):
                expected[pos[(s, face)]] = (-1) ** (len(s) - 1) * sign
            assert col == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_decomposition_table_against_brute_count(seed):
    K = random_complex(random.Random(seed))
    faces = {frozenset(s) for s in K.all_simplices()}
    count = {}
    for s, t in itertools.product(faces, repeat=2):
        if s | t in faces:
            key = f"({len(s) - 1},{len(t) - 1})"
            count[key] = count.get(key, 0) + 1
    rep = decomposition_check(K)
    assert rep.passed
    table = rep.details["bidegree_counts"]
    assert list(table) == [f"({i},{j})" for i in range(K.dim + 1) for j in range(K.dim + 1)]
    assert table == {key: [count.get(key, 0)] * 2 for key in table}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.sampled_from(["Z", 2, 3]))
def test_diagonal_and_quotient_equal_the_restricted_product(seed, flag, ring):
    # the kept-cell restrictions of tensor_total against the full product
    # restricted afterwards, column for column, on flag and non-flag inputs
    K = random_complex(random.Random(seed))
    if flag:
        K = clique_complex(K)
    faces = {frozenset(s) for s in K.all_simplices()}
    parts = build_diagonal(K, ring)
    prod = ProductChainComplex(K, ring)
    assert {n: [(K.simplices(i)[a], K.simplices(j)[b]) for i, a, j, b in cells]
            for n, cells in parts.product.cells.items()} == prod.cells
    on = {n: [frozenset(s) | frozenset(t) in faces for s, t in cells]
          for n, cells in prod.cells.items()}
    assert {n: list(map(parts.on, cells)) for n, cells in parts.product.cells.items()} == on
    for direct, keep in ((parts.diagonal, True), (parts.quotient, False)):
        oracle = prod.restrict({n: [i for i, d in enumerate(v) if d == keep]
                                for n, v in on.items()})
        assert direct.ring == oracle.ring
        assert direct.ranks == oracle.ranks
        assert direct.boundaries == oracle.boundaries


def test_diagonal_checks_past_one_machine_word():
    # 130 vertices, so the vertex bitmasks span three 64-bit words; the
    # labels are strings in shuffled order, so label order is not index order
    rng = random.Random(130)
    labels = [f"w{k}" for k in range(130)]
    rng.shuffle(labels)
    # a cycle through every vertex, with chords between far indices
    edges = [(labels[k], labels[(k + 1) % 130]) for k in range(130)]
    edges += [(labels[a], labels[b]) for a, b in ((0, 2), (63, 65), (64, 66), (1, 64), (2, 64),
                                                 (1, 129), (64, 129), (63, 129), (127, 129))]
    K = clique_complex(SimplicialComplex(labels, edges))
    assert any(len({v // 64 for v in s}) == 3 for s in K.simplices(2))
    faces = {frozenset(K.vertices[v] for v in s) for s in K.all_simplices()}
    assert list(K.vertices) == labels != sorted(labels)

    parts = build_diagonal(K)
    named = {n: [(frozenset(K.vertices[v] for v in K.simplices(i)[a]),
                  frozenset(K.vertices[v] for v in K.simplices(j)[b]))
                 for i, a, j, b in cells]
             for n, cells in parts.product.cells.items()}
    on = {n: [s | t in faces for s, t in cells] for n, cells in named.items()}
    assert {n: list(map(parts.on, cells)) for n, cells in parts.product.cells.items()} == on
    assert parts.diagonal.ranks == [sum(row) for row in on.values()]
    rep = check_retraction(K)
    assert rep.passed, rep.details

    count = {}
    for s, t in itertools.product(faces, repeat=2):
        if s | t in faces:
            key = f"({len(s) - 1},{len(t) - 1})"
            count[key] = count.get(key, 0) + 1
    rep = decomposition_check(K)
    assert rep.passed
    assert rep.details["bidegree_counts"] == {key: [count.get(key, 0)] * 2
                                              for key in rep.details["bidegree_counts"]}


def test_check_retraction_builds_neither_product_nor_quotient(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("check_retraction built the product or the quotient")

    def diagonal_only(A, B, keep=None, closed=True):
        if keep is None or not closed:
            refuse()
        return complexes.tensor_total(A, B, keep=keep, closed=closed)

    monkeypatch.setattr(diagonal, "tensor_total", diagonal_only)
    monkeypatch.setattr(diagonal.SubquotientComplexes, "quotient", property(refuse))
    for K in (filled_triangle(), two_triangles(), hollow_triangle()):
        for ring in ("Z", 2):
            assert check_retraction(K, ring).passed


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_star_counts_against_delta_sigma(seed):
    # the closed stars, counted by bitmask, against the complexes
    # ``delta_sigma`` builds
    K = random_complex(random.Random(seed))
    counts = {}
    for s in K.all_simplices():
        star = K.delta_sigma(s)
        for j in range(star.dim + 1):
            key = (len(s) - 1, j)
            counts[key] = counts.get(key, 0) + len(star.simplices(j))
    assert star_counts(K) == counts


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_star_count_from_the_f_vector_against_the_star_tally(seed, flag):
    # the count that decomposition_check reads from the f-vector against
    # the closed stars tallied by bitmask, every (i, j) up to the dimension
    K = random_complex(random.Random(seed))
    if flag:
        K = clique_complex(K)
    f = K.f_vector()
    tally = star_counts(K)
    for i in range(K.dim + 1):
        for j in range(K.dim + 1):
            assert diagonal._star_count(f, i, j) == tally.get((i, j), 0)


def test_decomposition_check_builds_no_chain_complex(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("decomposition_check built a chain complex or a cell list")

    for name in ("build_diagonal", "chain_complex", "tensor_total", "total_cells"):
        monkeypatch.setattr(diagonal, name, refuse)
    for name in ("ChainComplex", "chain_complex", "tensor_total", "total_cells"):
        monkeypatch.setattr(complexes, name, refuse)
    for K in (two_triangles(), hollow_triangle()):
        assert decomposition_check(K).passed


def test_build_diagonal_lists_the_product_cells_once(monkeypatch):
    # tensor_total walks the blocks of C x C once and keeps the diagonal
    # cells; the quotient, read later, walks them once more, and nothing
    # else does
    calls = []
    walk = complexes._blocks

    def counted(ranks_a, ranks_b):
        calls.append((ranks_a, ranks_b))
        return walk(ranks_a, ranks_b)

    monkeypatch.setattr(complexes, "_blocks", counted)
    parts = build_diagonal(hollow_triangle())
    assert len(calls) == 1
    parts.quotient.homology()
    assert len(calls) == 2


def test_size_guards_refuse_only_past_their_bounds(monkeypatch):
    # a filled triangle has 7 faces, and 49 cells in C x C
    monkeypatch.setattr(complexes, "MAX_FACES", 7)
    monkeypatch.setattr(complexes, "MAX_PRODUCT_CELLS", 49)
    assert check_retraction(filled_triangle()).passed
    with pytest.raises(complexes.ComplexError, match="MAX_FACES = 7"):
        SimplicialComplex("abcd", [["a", "b", "c"], ["c", "d"]])
    monkeypatch.setattr(complexes, "MAX_PRODUCT_CELLS", 48)
    for check in (check_retraction, decomposition_check):
        with pytest.raises(complexes.ComplexError, match="MAX_PRODUCT_CELLS = 48"):
            check(filled_triangle())
