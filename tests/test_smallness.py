import pytest

from smallmodel.complexes import HomologyTable
from smallmodel.smallness import (
    INCONCLUSIVE,
    NOT_OBSTRUCTED,
    OBSTRUCTED,
    VERIFIED,
    VIOLATION,
    CertificateError,
    Hdim,
    HomologySupportProblem,
    Orbit,
    OrbitComplex,
    PairEntry,
    check_small,
    generate_join_model,
    parity_obstruction,
    simply_connected_obstruction,
    vanishing_certificate,
)


def tiny_complex(boundary_dim=3, hdim_v=2, pair_hdim=1, complete=True, exact=True):
    orbits = [Orbit("v", 0, Hdim(hdim_v, exact)), Orbit("e", 1, Hdim(1))]
    pairs = {}
    for a, b, h in (("v", "v", pair_hdim), ("v", "e", pair_hdim), ("e", "e", 0)):
        entry = PairEntry(a, b, True, Hdim(h, exact))
        pairs[entry.key()] = entry
    return OrbitComplex(boundary_dim, orbits, pairs, complete=complete)


def test_hdim_parse_and_render():
    assert Hdim.parse(3) == Hdim(3, True)
    assert Hdim.parse("<=4") == Hdim(4, False)
    assert Hdim.parse(" <= 4") == Hdim(4, False)
    assert Hdim.parse("5") == Hdim(5, True)
    for bad in (1.5, True, "<=1.5", "<=x"):
        with pytest.raises(ValueError, match="hdim must be an integer"):
            Hdim.parse(bad)
    assert str(Hdim(4, False)) == "<=4"
    with pytest.raises(CertificateError):
        Hdim(-1)


def test_verified_certificate():
    rep = check_small(tiny_complex())
    assert rep.status == VERIFIED
    assert rep.passed
    assert rep.details["min_slack"] is not None


def test_exact_violation_names_a_witness():
    rep = check_small(tiny_complex(hdim_v=5))
    assert rep.status == VIOLATION
    assert rep.details["witness"]["kind"] == "single"
    assert rep.details["witness"]["orbit"] == "v"


def test_bound_violation_is_inconclusive():
    # an upper bound that breaks an inequality proves nothing
    rep = check_small(tiny_complex(hdim_v=5, exact=False))
    assert rep.status == INCONCLUSIVE


def test_incomplete_table_never_passes_silently():
    rep = check_small(tiny_complex(complete=False))
    assert rep.status == INCONCLUSIVE
    assert "complete" in rep.details["reason"]


def test_missing_pair_detected():
    X = tiny_complex()
    del X.pairs[("e", "v")]
    rep = check_small(X)
    assert rep.status == INCONCLUSIVE
    assert "missing" in rep.details["reason"]


def test_equality_detection():
    X = tiny_complex(hdim_v=3)
    rep = check_small(X)
    assert rep.status == VERIFIED
    assert rep.details["equality_orbits"] == ["v"]


def test_pass_with_upper_bounds_is_a_pass():
    rep = check_small(tiny_complex(exact=False))
    assert rep.status == VERIFIED


def test_vanishing_certificate_rows():
    cert = vanishing_certificate(tiny_complex())
    assert cert.status == VERIFIED
    assert cert.details["certified_total_degree"] == 3
    assert all(r["ok"] for r in cert.details["rows"])
    bad = vanishing_certificate(tiny_complex(pair_hdim=4))
    assert bad.status == VIOLATION
    assert bad.details["failing_bidegree"] is not None


def test_json_round_trip():
    X = tiny_complex(exact=False)
    Y = OrbitComplex.from_json(X.to_json())
    assert check_small(Y).status == check_small(X).status
    assert Y.orbits == X.orbits


def test_join_model_values():
    X = generate_join_model(3)
    assert X.boundary_dim == 5
    assert len(X.orbits) == 7
    top = X.orbit("f123")
    assert top.dim == 2 and top.hdim == Hdim(3)
    # disjoint pair sharing one factor loses one dimension
    entry = X.pairs[tuple(sorted(("f12", "f13")))]
    assert entry.hdim == Hdim(2)
    rep = check_small(X)
    assert rep.status == VERIFIED
    assert "f123" in rep.details["equality_orbits"]
    assert vanishing_certificate(X).status == VERIFIED


def test_join_model_small_d_rejected():
    with pytest.raises(CertificateError):
        generate_join_model(1)


def test_simply_connected_support():
    sphere = HomologyTable(False, "Z", ((0, 1, ()), (3, 1, ())))
    res = simply_connected_obstruction(HomologySupportProblem(4, 1, sphere))
    assert res["verdict"] == NOT_OBSTRUCTED

    lens_like = HomologyTable(False, "Z", ((0, 1, ()), (1, 0, (5,)), (3, 1, ())))
    res = simply_connected_obstruction(HomologySupportProblem(4, 1, lens_like))
    assert res["verdict"] == OBSTRUCTED
    assert "torsion" in res["reason"]

    wrong_degree = HomologyTable(False, "Z", ((0, 1, ()), (2, 1, ()), (3, 1, ())))
    res = simply_connected_obstruction(HomologySupportProblem(4, 1, wrong_degree))
    assert res["verdict"] == OBSTRUCTED


def test_parity():
    assert parity_obstruction(9, 3, True)["verdict"] == OBSTRUCTED
    assert parity_obstruction(9, 3, False)["verdict"] == NOT_OBSTRUCTED
    assert parity_obstruction(8, 3, True)["verdict"] == NOT_OBSTRUCTED
