import hashlib
import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smallmodel import surfaces
from smallmodel.surfaces import (
    CutSurfaceGraph,
    SurfaceError,
    SurfaceType,
    curve_complex_certificate,
    enumerate_multicurves,
    harer_dim,
    lemma_smallstabilizers_sweep,
    multicurve_stab_hdim,
    pants_decompositions,
    _canonical,
    _multigraphs_with_degrees,
    _vertex_type_multisets,
)
from smallmodel.smallness import VERIFIED, check_small, vanishing_certificate

from oracles import (canonical_reference, connected, enumerate_multicurves_by_matching,
                     vertex_type_multisets)


def test_harer_formulas():
    assert harer_dim(SurfaceType(2, 0, 0)) == 3
    assert harer_dim(SurfaceType(3, 0, 0)) == 7
    assert harer_dim(SurfaceType(0, 2, 1)) == 2
    assert harer_dim(SurfaceType(0, 1, 2)) == 1
    assert harer_dim(SurfaceType(1, 1, 1)) == 3
    assert harer_dim(SurfaceType(1, 0, 1)) == 1


def test_formula_range_guard():
    for bad in (SurfaceType(0, 1, 1), SurfaceType(0, 0, 2), SurfaceType(1, 0, 0)):
        with pytest.raises(SurfaceError):
            harer_dim(bad)


def test_cut_graph_validation():
    # nonseparating curve on the genus-2 surface
    g = CutSurfaceGraph(2, (1,), ((0, 0, 0),))
    assert multicurve_stab_hdim(g) == 3
    with pytest.raises(SurfaceError):
        CutSurfaceGraph(2, (1, 1), ())  # disconnected
    with pytest.raises(SurfaceError):
        CutSurfaceGraph(2, (1,), ((0, 0, 0), (0, 0, 0)))  # genus bookkeeping off
    with pytest.raises(SurfaceError):
        CutSurfaceGraph(2, (0, 1), ((0, 1, 0),))  # genus-0 piece of degree 1


def test_side_assignment_invariance():
    def flipped(cg, i):
        edges = list(cg.curve_edges)
        a, b, side = edges[i]
        edges[i] = (a, b, 1 - side)
        return CutSurfaceGraph(cg.closed_genus, cg.piece_genera, tuple(edges))

    g = CutSurfaceGraph(2, (1, 1), ((0, 1, 0),))
    assert multicurve_stab_hdim(g) == multicurve_stab_hdim(flipped(g, 0))
    p = pants_decompositions(3)[0]
    for i in range(len(p.curve_edges)):
        assert multicurve_stab_hdim(flipped(p, i)) == multicurve_stab_hdim(p)


def test_enumeration_counts():
    assert len(enumerate_multicurves(2, 1)) == 2
    assert len(enumerate_multicurves(2, 2)) == 2
    assert len(enumerate_multicurves(2, 3)) == 2
    assert [len(enumerate_multicurves(3, k)) for k in range(1, 7)] == [2, 5, 9, 12, 8, 5]


def test_genus_guard():
    # one curve at genus 6: nonseparating, or separating into genera 1+5, 2+4, 3+3
    assert len(enumerate_multicurves(surfaces.MAX_GENUS, 1)) == 4
    for g, k in ((surfaces.MAX_GENUS + 1, 1), (9, 10)):
        with pytest.raises(SurfaceError, match=f"genus {g} exceeds MAX_GENUS = 6"):
            enumerate_multicurves(g, k)
    with pytest.raises(SurfaceError, match="genus 9 exceeds"):
        lemma_smallstabilizers_sweep(9)


def test_vertex_types_against_partitions():
    # every (genus, degree) multiset the enumeration can start from, also for
    # piece counts it never asks for (no genus left, or more pieces than a
    # connected graph on k curves has), against genus and degree partitions
    # that do not stop early on the genus left
    for g in range(2, surfaces.MAX_GENUS + 1):
        for k in range(1, 3 * g - 2):
            for v in range(1, 2 * k + 1):
                assert _vertex_type_multisets(g, k, v) == vertex_type_multisets(g, k, v)


def test_enumeration_against_matching_oracle():
    for g, kmax in ((2, 3), (3, 4)):
        for k in range(1, kmax + 1):
            assert len(enumerate_multicurves(g, k)) == enumerate_multicurves_by_matching(g, k)


def test_pants_counts_and_anchor():
    expected = {2: 2, 3: 5, 4: 17}
    for g, count in expected.items():
        types = pants_decompositions(g)
        assert len(types) == count
        assert {multicurve_stab_hdim(t) for t in types} == {3 * g - 3}


def test_genus6_pants_types():
    # OEIS A005967; every pants decomposition has the twist anchor 3g - 3
    types = pants_decompositions(6)
    assert len(types) == 388
    assert {multicurve_stab_hdim(t) for t in types} == {15}


def test_max_hdim_table_g2():
    assert lemma_smallstabilizers_sweep(2)["max_hdim_by_size"] == {1: 3, 2: 3, 3: 3}


def test_sweep_extreme_case():
    for g in (2, 3):
        rep = lemma_smallstabilizers_sweep(g)
        assert rep["passed"]
        assert rep["max_exact_lhs"] == 6 * g - 8
        assert not rep["exact_failures"] and not rep["bound_failures"]


def test_a_bad_pants_type_is_one_error_row(monkeypatch):
    # one maximal system off the twist anchor used to be reported once per
    # size of A in the bound loop: 3g - 3 identical rows
    g = 3
    hdims = surfaces._hdims_by_size(g)
    hdims[3 * g - 3][0] -= 1
    monkeypatch.setattr(surfaces, "_hdims_by_size", lambda genus: hdims)
    rep = lemma_smallstabilizers_sweep(g)
    assert not rep["passed"]
    assert rep["bound_failures"] == [{"B_curves": 3 * g - 3, "type_index": 0,
                                      "error": "maximal system hdim != 3g-3"}]


def test_a_bad_type_is_one_row_per_branch(monkeypatch):
    # a type whose hdim is too large used to be reported once per split of
    # its curves in the exact branch and once per size of A in the bound one
    g = 3
    hdims = surfaces._hdims_by_size(g)
    hdims[4][0] = 10
    monkeypatch.setattr(surfaces, "_hdims_by_size", lambda genus: hdims)
    rep = lemma_smallstabilizers_sweep(g)
    assert not rep["passed"]
    assert rep["max_exact_lhs"] == 12
    assert rep["max_exact_witness"] == {"curves": 4, "type_index": 0, "split": [1, 3],
                                        "hdim": 10, "lhs": 12}
    assert rep["exact_failures"] == [{"curves": 4, "type_index": 0, "lhs": 12, "ok": False}]
    assert rep["bound_failures"] == [{"B_curves": 4, "type_index": 0, "lhs": 12, "ok": False}]


def test_certificate_passes_smallness():
    for g in (2, 3):
        cert = curve_complex_certificate(g)
        assert cert.boundary_dim == 6 * g - 7
        rep = check_small(cert)
        assert rep.status == VERIFIED
        # pants orbits attain equality in the single inequality
        orbits = rep.details["equality_orbits"]
        assert any(lbl.startswith(f"c{3 * g - 3}") for lbl in orbits)
        assert vanishing_certificate(cert).status == VERIFIED


# ---------------------------------------------------------------------------
# The canonical form against brute-force isomorphism.


@st.composite
def cut_graphs(draw, max_vertices=6):
    """Connected loop multigraphs with genera: (genera, {(i, j): k}), i <= j."""
    v = draw(st.integers(1, max_vertices))
    genera = tuple(draw(st.lists(st.integers(0, 2), min_size=v, max_size=v)))
    mult = {}
    for x in range(1, v):  # a random spanning tree keeps the graph connected
        key = (draw(st.integers(0, x - 1)), x)
        mult[key] = draw(st.integers(1, 2))
    for _ in range(draw(st.integers(0, 6))):
        key = tuple(sorted(draw(st.tuples(st.integers(0, v - 1), st.integers(0, v - 1)))))
        mult[key] = mult.get(key, 0) + 1
    return genera, mult


def relabel(genera, mult, perm):
    """The same graph with vertex i renamed perm[i]."""
    out = [None] * len(genera)
    for i, g in enumerate(genera):
        out[perm[i]] = g
    return tuple(out), {tuple(sorted((perm[i], perm[j]))): k for (i, j), k in mult.items()}


def brute_isomorphic(a, b):
    (ga, ma), (gb, mb) = a, b
    if len(ga) != len(gb):
        return False
    return any(relabel(ga, ma, perm) == (gb, mb)
               for perm in itertools.permutations(range(len(ga))))


def switch(genera, mult, rnd):
    """A degree-preserving switch (a-b, c-d) -> (a-d, c-b) of two edge
    units, or a genus moved between two pieces: most invariants survive."""
    units = [e for e, k in sorted(mult.items()) for _ in range(k)]
    if len(units) >= 2 and rnd.random() < 0.7:
        (a, b), (c, d) = rnd.sample(units, 2)
        out = dict(mult)
        for e in ((a, b), (c, d)):
            out[e] -= 1
        for e in ((a, d), (c, b)):
            e = tuple(sorted(e))
            out[e] = out.get(e, 0) + 1
        return genera, {e: k for e, k in out.items() if k}
    i, j = rnd.randrange(len(genera)), rnd.randrange(len(genera))
    moved = list(genera)
    if moved[i]:
        moved[i] -= 1
        moved[j] += 1
    return tuple(moved), mult


@settings(max_examples=300, deadline=None)
@given(cut_graphs(), st.randoms(use_true_random=False))
def test_canonical_key_survives_relabelling(graph, rnd):
    genera, mult = graph
    perm = list(range(len(genera)))
    rnd.shuffle(perm)
    assert _canonical(*relabel(genera, mult, perm)) == _canonical(genera, mult)


@settings(max_examples=300, deadline=None)
@given(cut_graphs(), cut_graphs(), st.randoms(use_true_random=False), st.integers(0, 2))
def test_canonical_key_decides_isomorphism(graph, other, rnd, how):
    # the second graph is a relabelled near-copy of the first (a switch
    # keeps the degrees), a plain relabelling, or drawn independently
    if how == 0:
        other = switch(*graph, rnd)
        perm = list(range(len(graph[0])))
        rnd.shuffle(perm)
        other = relabel(*other, perm)
    elif how == 1:
        perm = list(range(len(graph[0])))
        rnd.shuffle(perm)
        other = relabel(*graph, perm)
    assume(connected(len(other[0]), other[1]))
    same = _canonical(*graph) == _canonical(*other)
    assert same == brute_isomorphic(graph, other)


def test_canonical_key_splits_what_refinement_cannot():
    # K_{3,3} and the triangular prism: both cubic on six genus-0 pieces,
    # so colour refinement alone leaves one cell; individualisation parts them
    k33 = {(i, j): 1 for i in range(3) for j in range(3, 6)}
    prism = {(0, 1): 1, (1, 2): 1, (0, 2): 1, (3, 4): 1, (4, 5): 1, (3, 5): 1,
             (0, 3): 1, (1, 4): 1, (2, 5): 1}
    genera = (0,) * 6
    assert _canonical(genera, k33) != _canonical(genera, prism)
    rnd = random.Random(0)
    for graph in (k33, prism):
        perm = list(range(6))
        rnd.shuffle(perm)
        assert _canonical(*relabel(genera, graph, perm)) == _canonical(genera, graph)


def raw_candidates(g):
    """Every (genera, mult) the search yields for genus g, before dedupe,
    in the order enumerate_multicurves hands them to it."""
    raw = []
    for k in range(1, 3 * g - 2):
        for v in range(max(1, k + 1 - g), k + 2):
            for types in _vertex_type_multisets(g, k, v):
                genera = tuple(t[0] for t in types)
                raw.extend((genera, mult)
                           for mult in _multigraphs_with_degrees([t[1] for t in types], genera))
    return raw


def class_indices(keys):
    """Each key's class as the index of its first appearance."""
    first = {}
    return [first.setdefault(key, len(first)) for key in keys]


def test_canonical_key_against_reference():
    # the integer signatures and the stop at a discrete colouring change
    # neither the search tree nor its leaves: over every raw candidate at
    # g = 2..5 the key splits the candidates as the reference does (so
    # _dedupe keeps the same first members), and is the reference's key
    raw = [c for g in range(2, 6) for c in raw_candidates(g)]
    assert len(raw) == 5737
    keys = [_canonical(*c) for c in raw]
    reference = [canonical_reference(*c) for c in raw]
    assert class_indices(keys) == class_indices(reference)
    assert max(class_indices(keys)) + 1 == 4979
    assert keys == reference


# sha256 of repr([(piece_genera, curve_edges), ...]) over k = 1..3g-3,
# recorded from the networkx (WL hash + VF2) dedupe for g <= 4 and from
# the unpruned row-prefix search for g = 5: the representatives and their
# order are unchanged
ENUMERATION_SHA256 = {
    2: "5add4f8b69899935d7ae02439d11543842f0b67d2e896a94c0c4efa61526c6ca",
    3: "8429ed656723730aa02338969cd5b50d16af1ef2793b31e2cc6371ba8091e23a",
    4: "1f6e33027c957c2eac9eeaa7960c71485870682e76a3c7cd08bcd2d2e56736cf",
    5: "80376beb7f62df2867da6ecb74df7cfbafb916dec02e54d9706762e4461f829d",
}


@pytest.mark.parametrize("g", sorted(ENUMERATION_SHA256))
def test_enumeration_pinned(g):
    types = [(t.piece_genera, t.curve_edges)
             for k in range(1, 3 * g - 2) for t in enumerate_multicurves(g, k)]
    assert hashlib.sha256(repr(types).encode()).hexdigest() == ENUMERATION_SHA256[g]


# ---------------------------------------------------------------------------
# The pruned search against the row-prefix search it replaced, which also
# emitted disconnected multigraphs: the search keeps the connected ones.


def reference_multigraphs_with_degrees(degrees, genera):
    """The search before pruning moved earlier: after each complete row i,
    every same-class transposition (a b) with a < b <= i is compared over
    rows 0..i only, and a lexicographically larger result rejects."""
    v = len(degrees)
    cls = [(degrees[i], genera[i]) for i in range(v)]
    grid = [[0] * v for _ in range(v)]
    out = []

    def prefix_ok(i):
        for a in range(i + 1):
            for b in range(a + 1, i + 1):
                if cls[a] != cls[b]:
                    continue
                swap = list(range(v))
                swap[a], swap[b] = b, a
                verdict = 0
                for r in range(i + 1):
                    row_s = grid[swap[r]]
                    row_o = grid[r]
                    for c in range(v):
                        d = row_s[swap[c]] - row_o[c]
                        if d:
                            verdict = d
                            break
                    if verdict:
                        break
                if verdict > 0:
                    return False
        return True

    def rec(i, rem, mult):
        if i == v:
            if all(x == 0 for x in rem):
                out.append(dict(mult))
            return

        def pairs(j, left):
            if left == 0:
                if prefix_ok(i):
                    rec(i + 1, rem, mult)
                return
            if j == v:
                return
            for m in range(min(left, rem[j]) + 1):
                if m:
                    mult[(i, j)] = m
                    rem[j] -= m
                    grid[i][j] = grid[j][i] = m
                pairs(j + 1, left - m)
                if m:
                    del mult[(i, j)]
                    rem[j] += m
                    grid[i][j] = grid[j][i] = 0

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

    rec(0, list(degrees), {})
    return out


def connected_reference(degrees, genera):
    return [mult for mult in reference_multigraphs_with_degrees(degrees, genera)
            if connected(len(degrees), mult)]


@st.composite
def vertex_classes(draw):
    """(degrees, genera) for at most six pieces, degrees at most 6 and an
    even total of at most 24 (the twelve curves of a genus-5 pants
    decomposition); sorted by class, as enumerate_multicurves passes them,
    or in any order."""
    pairs = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 2)),
                          min_size=1, max_size=6))
    assume(sum(d for d, _ in pairs) % 2 == 0 and sum(d for d, _ in pairs) <= 24)
    if draw(st.booleans()):
        pairs.sort(key=lambda p: (p[1], p[0]))
    return [d for d, _ in pairs], [g for _, g in pairs]


@settings(max_examples=200, deadline=None)
@given(vertex_classes())
def test_pruned_search_matches_the_row_prefix_search(classes):
    degrees, genera = classes
    assert (_multigraphs_with_degrees(degrees, genera)
            == connected_reference(degrees, genera))


@pytest.mark.parametrize("degrees, genera", [
    ([3] * 6, [0] * 6),
    ([4] * 6, [0, 0, 0, 1, 1, 1]),
    ([5, 5, 5, 5, 2, 2], [0, 1, 0, 1, 0, 1]),
    ([2, 2, 2, 2, 3, 3], [1, 1, 1, 1, 0, 0]),
])
def test_pruned_search_on_crowded_classes(degrees, genera):
    assert (_multigraphs_with_degrees(degrees, genera)
            == connected_reference(degrees, genera))
