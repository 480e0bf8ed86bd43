import pytest

from smallmodel.surfaces import (
    CutSurfaceGraph,
    SurfaceError,
    SurfaceType,
    curve_complex_certificate,
    cut_curve,
    enumerate_multicurves,
    enumerate_multicurves_by_matching,
    harer_dim,
    lemma_smallstabilizers_sweep,
    max_hdim_by_size,
    multicurve_stab_hdim,
    pants_decompositions,
)
from smallmodel.smallness import VERIFIED, check_small, vanishing_certificate


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


def test_cut_rules():
    t = SurfaceType(2, 0, 0)
    assert cut_curve(t, "nonseparating") == [SurfaceType(1, 1, 1)]
    assert cut_curve(t, "separating", (1, 0, 0)) == [
        SurfaceType(1, 1, 0),
        SurfaceType(1, 0, 1),
    ]
    with pytest.raises(SurfaceError):
        cut_curve(SurfaceType(2, 0, 0), "separating", (0, 0, 0))  # sphere piece


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
    g = CutSurfaceGraph(2, (1, 1), ((0, 1, 0),))
    assert multicurve_stab_hdim(g) == multicurve_stab_hdim(g.flip_side(0))
    p = pants_decompositions(3)[0]
    for i in range(p.num_curves):
        assert multicurve_stab_hdim(p.flip_side(i)) == multicurve_stab_hdim(p)


def test_remove_curve():
    p = pants_decompositions(2)[0]
    smaller = p.remove_curve(0)
    assert smaller.num_curves == 2
    assert smaller.closed_genus == 2
    # removing the only curve merges the pieces into the closed surface
    g = CutSurfaceGraph(2, (1, 1), ((0, 1, 0),))
    closed = g.remove_curve(0)
    assert closed.num_curves == 0
    assert closed.piece_genera == (2,)
    assert multicurve_stab_hdim(closed) == 3


def test_enumeration_counts():
    assert len(enumerate_multicurves(2, 1)) == 2
    assert len(enumerate_multicurves(2, 2)) == 2
    assert len(enumerate_multicurves(2, 3)) == 2
    assert [len(enumerate_multicurves(3, k)) for k in range(1, 7)] == [2, 5, 9, 12, 8, 5]


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


def test_max_hdim_table_g2():
    assert max_hdim_by_size(2) == {1: 3, 2: 3, 3: 3}


def test_sweep_extreme_case():
    for g in (2, 3):
        rep = lemma_smallstabilizers_sweep(g)
        assert rep["passed"]
        assert rep["max_exact_lhs"] == 6 * g - 8
        assert not rep["exact_failures"] and not rep["bound_failures"]


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


def test_json_round_trip():
    p = pants_decompositions(2)[0]
    q = CutSurfaceGraph.from_json(p.to_json())
    assert q.piece_genera == p.piece_genera
    assert q.curve_edges == p.curve_edges
    assert multicurve_stab_hdim(q) == 3
