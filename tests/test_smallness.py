import hashlib
import json
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from smallmodel.surfaces import curve_complex_certificate


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


@pytest.mark.parametrize("boundary_dim, orbits, pairs, error", [
    (1, [Orbit("v", -5, Hdim(4))], {}, "orbit 'v' dim must be at least 0, got -5"),
    (-1, [Orbit("v", 0, Hdim(0))], {}, "boundary_dim must be at least 0, got -1"),
    (3, [Orbit("v", 0, Hdim(0))], {("v", "w"): PairEntry("v", "w", False)},
     "pair ('v', 'w') names unknown orbit 'w'"),
])
def test_nonsense_certificates_are_refused(boundary_dim, orbits, pairs, error):
    with pytest.raises(CertificateError, match=f"^{re.escape(error)}$"):
        OrbitComplex(boundary_dim, orbits, pairs, complete=True)


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


def test_missing_pairs_keep_the_first_reason():
    X = tiny_complex()
    X.pairs[("v", "v")] = PairEntry("v", "v", True)  # disjoint, no hdim
    del X.pairs[("e", "v")]
    del X.pairs[("e", "e")]
    rep = check_small(X)
    assert rep.status == INCONCLUSIVE
    assert rep.details["reason"] == "pair ('v', 'v') marked disjoint but carries no hdim"
    del X.pairs[("v", "v")]
    assert check_small(X).details["reason"] == (
        "pair table declared complete but pair (v,v) is missing")


def test_a_missing_pair_is_named():
    X = tiny_complex()
    del X.pairs[("v", "v")]
    rep = check_small(X)
    assert rep.status == INCONCLUSIVE
    assert rep.details["reason"] == "pair table declared complete but pair (v,v) is missing"


def test_an_unknown_pair_does_not_stand_in_for_a_missing_one():
    # as many pair keys as the table needs, but one names no orbit: the
    # completeness count takes only pairs of two orbits
    X = tiny_complex()
    X.pairs[("v", "w")] = PairEntry("v", "w", False)
    del X.pairs[("e", "v")]
    assert len(X.pairs) == 3
    rep = check_small(X)
    assert rep.status == INCONCLUSIVE
    assert rep.details["reason"] == "pair table declared complete but pair (v,e) is missing"


@given(st.text(max_size=4), st.text(max_size=4))
def test_pair_key_is_the_sorted_labels(a, b):
    assert PairEntry(a, b, False).key() == tuple(sorted((a, b)))


@pytest.mark.parametrize("edit, error", [
    (lambda data: data["orbits"][0].update(label=None), "orbit label must be a string, got None"),
    (lambda data: data["orbits"][1].update(label=1), "orbit label must be a string, got 1"),
    (lambda data: data["pairs"][0].update(b=0), "pair endpoint must be a string, got 0"),
])
def test_orbit_labels_must_be_strings(edit, error):
    data = tiny_complex().to_json()
    edit(data)
    with pytest.raises(CertificateError, match=f"^{re.escape(error)}$"):
        OrbitComplex.from_json(data)


@pytest.mark.parametrize("first, second", [("v", "e"), ("e", "v")])
def test_a_pair_listed_twice_is_refused(first, second):
    data = tiny_complex().to_json()
    data["pairs"].append({"a": first, "b": second, "disjoint": True, "hdim": 0})
    with pytest.raises(CertificateError, match=r"^pair \('e', 'v'\) listed twice$"):
        OrbitComplex.from_json(data)


def two_orbits(v_hdim, pair_hdim, boundary_dim=3):
    """Orbits v (dim 0) and w (dim 1, hdim 0) and one disjoint pair (v, w):
    lhs is hdim(v) for v's check and hdim(pair) + 1 for the pair's."""
    orbits = [Orbit("v", 0, v_hdim), Orbit("w", 1, Hdim(0))]
    entries = [PairEntry("v", "v", False), PairEntry("w", "v", True, pair_hdim),
               PairEntry("w", "w", False)]
    return OrbitComplex(boundary_dim, orbits, {e.key(): e for e in entries}, complete=True)


# each inequality breaks by one past its limit: n for an orbit, n - 1 for a
# pair (lhs < n); an exact hdim names a witness, an upper bound a reason
@pytest.mark.parametrize("v_hdim, pair_hdim, table, lhs, status, witness, reason", [
    (Hdim(4), Hdim(0), "single", 4, VIOLATION, {"kind": "single", "orbit": "v", "lhs": 4}, ""),
    (Hdim(4, False), Hdim(0), "single", 4, INCONCLUSIVE, None,
     "upper bound on orbit v does not settle the single check"),
    (Hdim(0), Hdim(2), "pairs", 3, VIOLATION, {"kind": "pair", "pair": ["v", "w"], "lhs": 3},
     ""),
    (Hdim(0), Hdim(2, False), "pairs", 3, INCONCLUSIVE, None,
     "upper bound on pair ('v', 'w') does not settle the pair check"),
])
def test_a_broken_inequality_is_a_witness_or_a_reason(v_hdim, pair_hdim, table, lhs, status,
                                                      witness, reason):
    rep = check_small(two_orbits(v_hdim, pair_hdim))
    assert rep.status == status
    assert rep.details["witness"] == witness
    assert rep.details["reason"] == reason
    rows = rep.details["single"] + rep.details["pairs"]
    assert [row for row in rows if not row["ok"]] == [
        row for row in rep.details[table] if row.get("lhs") == lhs]
    # one short of the limit, both inequalities hold
    rep = check_small(two_orbits(Hdim(3, v_hdim.exact), Hdim(1, pair_hdim.exact)))
    assert rep.status == VERIFIED
    assert rep.details["witness"] is None and rep.details["reason"] == ""


def test_a_witness_after_a_reason_keeps_both():
    # the orbit's upper bound breaks first, then the pair's exact value
    rep = check_small(two_orbits(Hdim(4, False), Hdim(2)))
    assert rep.status == VIOLATION
    assert rep.details["witness"] == {"kind": "pair", "pair": ["v", "w"], "lhs": 3}
    assert rep.details["reason"] == "upper bound on orbit v does not settle the single check"


def test_slacks_of_orbits_and_pairs():
    # orbit slacks n - lhs: 3 - 1 (v) and 3 - 1 (w); pair slack n - 1 - lhs:
    # 3 - 1 - 2 = 0
    rep = check_small(two_orbits(Hdim(1), Hdim(1)))
    assert rep.status == VERIFIED
    assert [row["lhs"] for row in rep.details["single"]] == [1, 1]
    assert [row.get("lhs") for row in rep.details["pairs"]] == [None, 2, None]
    assert (rep.details["min_slack"], rep.details["max_slack"]) == (0, 2)
    assert rep.details["equality_orbits"] == []


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
    assert res.status == NOT_OBSTRUCTED

    lens_like = HomologyTable(False, "Z", ((0, 1, ()), (1, 0, (5,)), (3, 1, ())))
    res = simply_connected_obstruction(HomologySupportProblem(4, 1, lens_like))
    assert res.status == OBSTRUCTED
    assert "torsion" in res.details["reason"]

    wrong_degree = HomologyTable(False, "Z", ((0, 1, ()), (2, 1, ()), (3, 1, ())))
    res = simply_connected_obstruction(HomologySupportProblem(4, 1, wrong_degree))
    assert res.status == OBSTRUCTED


def test_parity():
    assert parity_obstruction(9, 3, True).status == OBSTRUCTED
    assert parity_obstruction(9, 3, False).status == NOT_OBSTRUCTED
    assert parity_obstruction(8, 3, True).status == NOT_OBSTRUCTED


def _sha(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def random_orbit_complex(seed):
    """A small orbit certificate: missing, non-disjoint and hdim-less
    pairs, upper bounds, entries listed b-before-a, and every status."""
    rng = random.Random(seed)
    labels = [f"o{i}" for i in range(rng.randint(1, 4))]
    orbits = [Orbit(x, rng.randint(0, 2), Hdim(rng.randint(0, 4), rng.random() < 0.7))
              for x in labels]
    pairs = {}
    for i, a in enumerate(labels):
        for b in labels[i:]:
            if rng.random() < 0.1:
                continue
            if rng.random() < 0.5:
                a, b = b, a
            disjoint = rng.random() < 0.8
            hdim = (Hdim(rng.randint(0, 3), rng.random() < 0.7)
                    if disjoint and rng.random() < 0.95 else None)
            entry = PairEntry(a, b, disjoint, hdim)
            pairs[entry.key()] = entry
    return OrbitComplex(rng.randint(2, 8), orbits, pairs, complete=rng.random() < 0.85)


# sha256 of check_small(X).to_json() and vanishing_certificate(X).to_json(),
# pinned while vanishing_certificate re-derived every pair inequality itself
REPORT_PINS = {
    "curves-g2": (lambda: curve_complex_certificate(2),
                  "a24f974e7d0bf75a4dc306e45aa33602312d6967f4c538462af2707ab67d7649",
                  "afd51328c8d3cda3739625a9d23d04b49d990266c83557882dd8c6eac5e44087"),
    "curves-g3": (lambda: curve_complex_certificate(3),
                  "c394247b0d597317ac8b96dafaeee34fe0aa9b1df6633166c14ea1471fb0a8a8",
                  "653f975c33bb5abb38011d6f3f5aa2df3d03033b183f2064ed98249f90cc8b36"),
    "join-2": (lambda: generate_join_model(2),
               "7d59e571ef06e5da485df9dbdf1863b9e670d8c85fb10d2961ac1dbca4d29e47",
               "702f408698ee1bfa93057d705e6d27ba2590a1cc24854218bc2f53d1e20b8ba2"),
    "join-3": (lambda: generate_join_model(3),
               "82391613f7e12b482ff34a26a3ccb2251ebd8260ea273a206cef425587e0a340",
               "e7170f0842767236bfb333990465041fe0395d674c0c5d2aca7e8cbd2f7261c9"),
    "join-4": (lambda: generate_join_model(4),
               "fe041200a9a5dd603e7958d11dd7211ad1a20864f185f1711f3ab8e5c5dcc0da",
               "8b767f35d67cc94f4b80755ba9b76def77d6813d6970d869ff3443df2d32e58d"),
    "join-5": (lambda: generate_join_model(5),
               "d07d9b70d9ca9e5ee9e08ba113b17c0cb2041b04b3ce29ad104264061c484ad0",
               "d3d3d43a8d507ae788cc07c07673ea1a65dac8bf7125ff51787da48bb5e77853"),
    "join-6": (lambda: generate_join_model(6),
               "299bbea12cfec6ea0939b01a43de6f559a64b8578529c61892fdeeb7af35bd0b",
               "a18b69b7e36c711cc8d9d50a8630092e109a36d80ce88f0eddb398095c35febb"),
    "join-7": (lambda: generate_join_model(7),
               "44aedab5eeb20869d0b61176d04e852010050be997a5a7df710930b63f4d8439",
               "f9e40c9e81cf3dd4a542b64b3a48cf0567b944f979bce438c33f06c8b4b65bc5"),
}


@pytest.mark.parametrize("name", list(REPORT_PINS))
def test_certificate_reports_pinned(name):
    make, check_digest, cert_digest = REPORT_PINS[name]
    X = make()
    assert _sha(check_small(X).to_json()) == check_digest
    assert _sha(vanishing_certificate(X).to_json()) == cert_digest


def test_random_certificate_reports_pinned():
    complexes = [random_orbit_complex(seed) for seed in range(300)]
    reports = [(check_small(X), vanishing_certificate(X)) for X in complexes]
    assert {check.status for check, _ in reports} == {VERIFIED, VIOLATION, INCONCLUSIVE}
    entries = [e for X in complexes for e in X.pairs.values()]
    assert any(e.a > e.b for e in entries)
    assert any(e.disjoint and e.hdim is None for e in entries)
    # re-recorded when a missing pair stopped overwriting an earlier reason;
    # against the old reports, `reason` was the only field that changed
    assert _sha([[c.to_json(), v.to_json()] for c, v in reports]) == (
        "1d81d7d8ae891f8aef654e431073168a4e61adb029799e452325cf6c305e96b0")
