import hashlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import forced_zero_count_by_sets, grid_surface
from smallmodel import acceptance, cli, diagonal, flags
from smallmodel.complexes import HomologyTable, SimplicialComplex
from smallmodel.cli import main
from smallmodel.normalform import PivotExplosion
from smallmodel.report import VIOLATION, Report


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, "--json", *argv)
    return code, json.loads(out)


def test_harer(capsys):
    code, rep = run_json(capsys, "harer", "--g", "2", "--r", "0", "--s", "0")
    assert code == 0
    assert rep["details"]["dim"] == 3
    assert rep["status"] == "verified"


def test_harer_out_of_range_is_input_error(capsys):
    code, rep = run_json(capsys, "harer", "--g", "0", "--r", "1", "--s", "1")
    assert code == 3
    assert rep["status"] == "error"


def test_b2_criterion_obstructed(capsys):
    form = '{"c111":"1","c112":"2","c122":"1","c222":"0"}'
    code, rep = run_json(capsys, "b2-criterion", "--form", form)
    assert code == 0
    assert rep["details"]["status"] == "OBSTRUCTED"


def test_b2_criterion_satisfiable_includes_witness(capsys):
    form = '{"c111":"1","c112":"1","c122":"1","c222":"0"}'
    code, rep = run_json(capsys, "b2-criterion", "--form", form)
    assert code == 0
    assert rep["details"]["status"] == "SATISFIABLE"
    assert rep["details"]["witness"]["s"] == "1"


@pytest.mark.parametrize("argv, error", [
    # read null as JSON and failed on it with a TypeError
    ((), "ValueError: b2-criterion requires --in or --form"),
    # --form was read and ignored, and the run exited 0
    (("--in", "FILE", "--form", '{"c111":"1","c112":"2","c122":"1","c222":"0"}'),
     "ValueError: b2-criterion takes --in or --form, not both"),
    # "list indices must be integers or slices, not str"
    (("--form", "[1, 0, 0, 1]"), "TypeError: a triple form must be a JSON object, got [1, 0, 0, 1]"),
    # KeyError: 'c222'
    (("--form", '{"c111":"1","c112":"2","c122":"1"}'), "ValueError: the triple form has no c222"),
    (("--form", '{"c111":"1"}'), "ValueError: the triple form has no c112, c122, c222"),
])
def test_b2_criterion_input_errors_are_named(tmp_path, capsys, argv, error):
    path = write_json(tmp_path, "form.json", {"c111": "1", "c112": "1", "c122": "1", "c222": "0"})
    code, rep = run_json(capsys, "b2-criterion", *(path if a == "FILE" else a for a in argv))
    assert code == 3
    assert rep["status"] == "error"
    assert rep["details"]["error"] == error


def test_rank_one(capsys):
    code, rep = run_json(capsys, "rank-one", "--k", "2", "--m", "3", "--top", "1")
    assert code == 0
    assert rep["details"]["status"] == "OBSTRUCTED"


def test_homology_from_file(tmp_path, capsys):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({
        "vertices": ["a", "b", "c"],
        "facets": [["a", "b"], ["b", "c"], ["a", "c"]],
    }))
    code, rep = run_json(capsys, "homology", "--in", str(path))
    assert code == 0
    assert rep["details"]["homology"] == [{"degree": 1, "rank": 1, "torsion": []}]


def test_check_small_counterexample_exit_code(tmp_path, capsys):
    cert = {
        "boundary_dim": 1,
        "orbits": [{"label": "v", "dim": 0, "hdim": 5}],
        "pairs": [{"a": "v", "b": "v", "disjoint": True, "hdim": 0}],
        "complete": True,
    }
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, rep = run_json(capsys, "check-small", "--in", str(path))
    assert code == 1
    assert rep["status"] == "counterexample"
    assert rep["details"]["witness"]


def test_check_small_inconclusive_exit_code(tmp_path, capsys):
    cert = {
        "boundary_dim": 5,
        "orbits": [{"label": "v", "dim": 0, "hdim": 1}],
        "pairs": [],
        "complete": False,
    }
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, rep = run_json(capsys, "check-small", "--in", str(path))
    assert code == 2
    assert rep["status"] == "inconclusive"


def test_malformed_input_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, rep = run_json(capsys, "homology", "--in", str(path))
    assert code == 3


@pytest.mark.parametrize("command, payload", [
    ("homology", {"vertices": [1, 2], "facets": 5}),
    ("check-small", [1, 2]),
])
def test_wrongly_shaped_input_is_input_error(tmp_path, capsys, command, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, rep = run_json(capsys, command, "--in", str(path))
    assert code == 3
    assert rep["status"] == "error"
    assert rep["details"]["error"].startswith("TypeError")


STRING_FOR_A_LIST = [
    # once read one character at a time: torsion [2, 3], OBSTRUCTED
    ("sc-obstruction", {"n": 4, "q": 1,
                        "boundary_homology": [{"degree": 0, "rank": 1},
                                              {"degree": 1, "rank": 4, "torsion": "23"}]},
     "torsion"),
    # the row "01" once read as (0, 1), so both pairs were verified
    ("orbit-codim", {"e": {"m": 2, "subspaces": [[[1, 0]]]}, "f": {"m": 2, "subspaces": [["01"]]}},
     "subspace row"),
    ("slm-check", {"e": {"m": 2, "subspaces": [[[1, 0]]]}, "f": {"m": 2, "subspaces": [["01"]]}},
     "subspace row"),
    # once two points, verified
    ("homology", {"vertices": "ab", "facets": "ab"}, "facets"),
]


@pytest.mark.parametrize("command, payload, field", STRING_FOR_A_LIST)
def test_a_string_where_a_list_belongs_is_input_error(tmp_path, capsys, command, payload, field):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    code, rep = run_json(capsys, command, "--in", str(path))
    assert code == 3
    assert rep["status"] == "error"
    assert rep["details"]["error"].startswith(f"TypeError: {field} must be a list")


def test_usage_error_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["harer", "--g", "x", "--r", "0", "--s", "0"])
    assert exc.value.code == 3
    assert "invalid int value" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_pivot_explosion_is_inconclusive(tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise PivotExplosion("entry at (0,0) exceeds 16 bits")

    monkeypatch.setattr(cli, "homology", explode)
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({
        "vertices": ["a", "b", "c"],
        "facets": [["a", "b"], ["b", "c"], ["a", "c"]],
    }))
    code, rep = run_json(capsys, "homology", "--in", str(path))
    assert code == 2
    assert rep["status"] == "inconclusive"
    assert "PivotExplosion" in rep["details"]["reason"]


def test_missing_required_input(capsys):
    code, rep = run_json(capsys, "homology")
    assert code == 3


def test_building_subcommand(capsys):
    code, rep = run_json(capsys, "building", "--m", "3", "--q", "2")
    assert code == 0
    assert rep["details"]["homology"] == [{"degree": 1, "rank": 8, "torsion": []}]
    assert rep["details"]["complete_flags"] == 21


@pytest.mark.parametrize("broken", ["facet count", "torsion"])
def test_building_judged_by_criterion_4s_rule(capsys, monkeypatch, broken):
    # the subcommand once passed a building with the wrong number of
    # facets, or with torsion in its one nonzero degree
    from smallmodel import flags
    from smallmodel.complexes import HomologyTable

    if broken == "facet count":
        monkeypatch.setattr(flags, "complete_flag_count", lambda m, q: 22)
    else:
        monkeypatch.setattr(cli, "homology",
                            lambda K, ring, reduced: HomologyTable(True, ring, ((1, 8, (2,)),)))
    code, rep = run_json(capsys, "building", "--m", "3", "--q", "2")
    assert code == 1 and rep["status"] == "counterexample"


def test_multicurves_subcommand(capsys):
    code, rep = run_json(capsys, "multicurves", "--g", "2", "--k", "3")
    assert code == 0
    assert rep["details"]["count"] == 2
    assert all(t["stab_hdim"] == 3 for t in rep["details"]["types"])


def test_cc_certificate_subcommand(capsys):
    code, rep = run_json(capsys, "cc-certificate", "--g", "2")
    assert code == 0
    assert rep["details"]["check"]["status"] == "verified"


def test_lemma_sweep_subcommand(capsys):
    code, rep = run_json(capsys, "lemma-sweep", "--g", "2")
    assert code == 0
    assert rep["details"]["max_exact_lhs"] == 4


# sha256 of the report without its runtime, pinned before the multicurve
# search emitted connected graphs only: type indices, witnesses and orbit
# labels follow the order of the enumerated representatives
MULTICURVE_PINS = {
    ("lemma-sweep", "5"): "433b2796d8a3f3a2fc35b3a2723af4f94b4a40928e3d9ea1fbe29deb0e9ed6a3",
    ("cc-certificate", "3"): "fc1594436402963f41c92a16d5f6fbc999508735c14c6214117771c7f76dffbf",
}


@pytest.mark.parametrize("command, genus", list(MULTICURVE_PINS))
def test_multicurve_reports_pinned(capsys, command, genus):
    code, rep = run_json(capsys, command, "--g", genus)
    assert code == 0
    del rep["runtime_ms"]
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    assert digest == MULTICURVE_PINS[command, genus]


def test_sc_obstruction_subcommand(tmp_path, capsys):
    payload = {
        "n": 4, "q": 1,
        "boundary_homology": [
            {"degree": 0, "rank": 1}, {"degree": 1, "rank": 4},
            {"degree": 2, "rank": 6}, {"degree": 3, "rank": 1},
        ],
    }
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(payload))
    code, rep = run_json(capsys, "sc-obstruction", "--in", str(path))
    assert code == 0
    assert rep["details"]["status"] == "OBSTRUCTED"


# The obstruction subcommands, one case per verdict: sha256 of the report
# without its runtime, pinned while the three obstruction functions
# returned hand-written dicts. The `sc-obstruction` pins were re-recorded
# when its details key "verdict" became "status", the only field that
# changed. An `sc-obstruction` case is a payload read from sc.json; the
# others are argv.
SC_TORUS_SQUARE = {"n": 4, "q": 1, "boundary_homology": [
    {"degree": 0, "rank": 1}, {"degree": 1, "rank": 4},
    {"degree": 2, "rank": 6}, {"degree": 3, "rank": 1}]}
SC_SPHERE = {"n": 4, "q": 1, "boundary_homology": [{"degree": 0, "rank": 1},
                                                   {"degree": 3, "rank": 1}]}
SC_PARITY = {"n": 9, "q": 3, "chi_zero": True,
             "boundary_homology": [{"degree": 0, "rank": 1}, {"degree": 8, "rank": 1}]}
OBSTRUCTION_PINS = {
    "rank-one-obstructed": (("rank-one", "--top", "1"), "OBSTRUCTED",
                            "78e4f4c28290bbde9ae1e1720c3cd36d91ab33e5d14071e8e0f011c0b0c4447b"),
    "rank-one-inconclusive": (("rank-one", "--top", "0"), "INCONCLUSIVE",
                              "56e72fdfcda0ae48fecddbb5a1632e39b4d6ed068f02620a0b5784d9d3fb11ca"),
    "b2-satisfiable": (("b2-criterion", "--form", '{"c111":"1","c112":"1","c122":"1","c222":"0"}'),
                       "SATISFIABLE",
                       "28beeee45b3dd93c3c733e4259684ff167d666a58d2102cb8b581cd3a30ee13d"),
    "b2-obstructed": (("b2-criterion", "--form", '{"c111":"1","c112":"2","c122":"1","c222":"0"}'),
                      "OBSTRUCTED",
                      "6cc8728fbac0309c3d6512df4eebe8f04fdd554998126844670f0c77143a7a48"),
    "sc-torus-square": (SC_TORUS_SQUARE, "OBSTRUCTED",
                        "3d5f58be644b7f383ab5e79340ced46ae16e0bd014e86e5023293d011149c94e"),
    "sc-sphere": (SC_SPHERE, "INCONCLUSIVE",
                  "06aae641498839099aa39cc375ed59d564b4d762e84bede12a02d9ff7a3a6b9f"),
    "sc-parity": (SC_PARITY, "OBSTRUCTED",
                  "3f92872f260e51a53e92b472a1af547beb2a2bd1b1a7dd6f54bd24075f747684"),
}


@pytest.mark.parametrize("name", list(OBSTRUCTION_PINS))
def test_obstruction_reports_pinned(tmp_path, capsys, monkeypatch, name):
    # the exit-code contract: an obstruction verdict is a finding about the
    # input, never a counterexample, so every verdict exits 0 as verified
    case, verdict, digest = OBSTRUCTION_PINS[name]
    monkeypatch.chdir(tmp_path)  # the relative path keeps inputs-digest fixed
    if isinstance(case, dict):
        write_json(tmp_path, "sc.json", case)
        case = ("sc-obstruction", "--in", "sc.json")
    code, rep = run_json(capsys, *case)
    assert code == 0 and rep["status"] == "verified"
    assert rep["details"]["status"] == verdict
    del rep["runtime_ms"]
    assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() == digest


def test_reports_are_deterministic(capsys):
    _, rep1 = run_json(capsys, "harer", "--g", "3", "--r", "1", "--s", "0")
    _, rep2 = run_json(capsys, "harer", "--g", "3", "--r", "1", "--s", "0")
    rep1.pop("runtime_ms")
    rep2.pop("runtime_ms")
    assert rep1 == rep2


def test_human_readable_mode(capsys):
    code, out = run(capsys, "harer", "--g", "2", "--r", "0", "--s", "0")
    assert code == 0
    assert "dim: 3" in out


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def orbit_certificate(pair_hdim):
    return {
        "boundary_dim": 3,
        "orbits": [{"label": "v", "dim": 0, "hdim": 2}, {"label": "e", "dim": 1, "hdim": 1}],
        "pairs": [{"a": "v", "b": "v", "disjoint": True, "hdim": 1},
                  {"a": "e", "b": "v", "disjoint": True, "hdim": pair_hdim},
                  {"a": "e", "b": "e", "disjoint": True, "hdim": 0}],
        "complete": True,
    }


def coordinate_flag_json(m, sets):
    return {"m": m, "subspaces": [[[int(j == i) for j in range(m)] for i in sorted(s)]
                                  for s in sets]}


def test_certificate_verified(tmp_path, capsys):
    path = write_json(tmp_path, "cert.json", orbit_certificate(pair_hdim=1))
    code, rep = run_json(capsys, "certificate", "--in", path)
    assert code == 0
    assert rep["status"] == rep["details"]["status"] == "verified"
    assert rep["details"]["certified_total_degree"] == 3
    assert rep["details"]["failing_bidegree"] is None
    assert rep["details"]["rows"] and all(r["ok"] for r in rep["details"]["rows"])


def test_certificate_counterexample_names_a_bidegree(tmp_path, capsys):
    path = write_json(tmp_path, "cert.json", orbit_certificate(pair_hdim=4))
    code, rep = run_json(capsys, "certificate", "--in", path)
    assert code == 1
    assert rep["status"] == rep["details"]["status"] == "counterexample"
    # the pair (e, v) fails: e has dimension 1, hdim 4 plus dim(v) = 0
    assert rep["details"]["failing_bidegree"] == [1, 4]
    assert rep["details"]["certified_total_degree"] is None
    assert rep["details"]["rows"] == []


# `smallmodel --json check-small|certificate --in cert.json`: sha256 of the
# report without its runtime, pinned while vanishing_certificate re-derived
# every pair inequality itself
CERTIFICATE_PINS = {
    ("check-small", 1):
        "58a135880d412c9e532988a26ce825f7defd3231a7b427a31619eb0bbe46374a",
    ("check-small", 4):
        "c52bae0c600bd6e5451d7ea3dfd0fb81e7753b3d0bef07f07271c567e940eef0",
    ("certificate", 1):
        "2386413a6d2d3e5ec2976d7d946ffe077267d9e972c10e3f8bbe8a2c76586fe4",
    ("certificate", 4):
        "97a385acc95e218e31ad3d132be80fe585cb41c782164964ebc1dfd2fe313504",
}


@pytest.mark.parametrize("command, pair_hdim", list(CERTIFICATE_PINS))
def test_orbit_certificate_reports_pinned(tmp_path, capsys, monkeypatch, command, pair_hdim):
    monkeypatch.chdir(tmp_path)  # the relative path keeps inputs-digest fixed
    write_json(tmp_path, "cert.json", orbit_certificate(pair_hdim))
    code, rep = run_json(capsys, command, "--in", "cert.json")
    assert code == (0 if pair_hdim == 1 else 1)
    del rep["runtime_ms"]
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    assert digest == CERTIFICATE_PINS[command, pair_hdim]


def test_diagonal_checks_share_the_report_shape(tmp_path, capsys):
    path = write_json(tmp_path, "K.json", {"vertices": [0, 1, 2, 3],
                                           "facets": [[0, 1], [0, 2], [1, 2], [0, 3], [1, 3]]})
    code, rep = run_json(capsys, "diagonal", "--in", path)
    assert code == 0
    assert rep["status"] == "verified"
    assert rep["details"]["flag"] is False
    checks = rep["details"]["checks"]
    assert [c["check"] for c in checks] == ["retraction", "decomposition",
                                            "long-exact-consistency"]
    assert all(c["status"] == "verified" and "passed" not in c for c in checks)
    assert checks[0]["H(diagonal)"] == checks[0]["H(C)"]
    assert checks[1]["mismatches"] == []
    assert checks[1]["bidegree_counts"]["(1,1)"] == [5, 5]
    assert checks[2]["chi_product"] == checks[2]["chi_diagonal"] + checks[2]["chi_relative"]



# `smallmodel --json diagonal --in K.json` for fixed complexes: sha256 of the
# report without its runtime, pinned before the product cell order moved to
# complexes.total_cells and decomposition_check stopped building complexes
DIAGONAL_PINS = {
    "filled-triangle": ({"vertices": ["a", "b", "c"], "facets": [["a", "b", "c"]]},
                        "fbb8b2a7e0cf212a780ad1d6e6b7108f7001d8d2a4c78319c6dc5776e83465c0"),
    "two-triangles": ({"vertices": ["a", "b", "c", "d"],
                       "facets": [["a", "b", "c"], ["b", "c", "d"]]},
                      "df0e4b8bb78b864b95e0945e98d0eb3dd686b223d9c9bd7e702dc71e352c252c"),
    "hollow-triangle": ({"vertices": [0, 1, 2], "facets": [[0, 1], [1, 2], [0, 2]]},
                        "dc29abbb5e2205c1a3cb3a9d31be627467fc48449e9fe16039b19297207b8ddd"),
    "chorded-square": ({"vertices": [0, 1, 2, 3],
                        "facets": [[0, 1], [0, 2], [1, 2], [0, 3], [1, 3]]},
                       "b3c01e911c42d706b4dca13f620e036f0d8f6d56f277960d5ac79782e1109f39"),
    "octahedron": ({"vertices": [0, 1, 2, 3, 4, 5],
                    "facets": [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]},
                   "2c815c91bcadd4dd3616a4ba7f8b723b6a170965f330bf0fad316ff42d6f490e"),
    "hollow-tetrahedron": ({"vertices": [0, 1, 2, 3],
                            "facets": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]},
                           "1b288333ca40742f447440906c105c38e4f62872b20052b476defaf21312af54"),
    "unused-vertex": ({"vertices": [0, 1, 2, 3, 4, 5], "facets": [[0, 1, 2], [2, 3], [4]]},
                      "ee109f64537414ff63e9e32acbef05cb9ce3a5308e71e23c124119973ce584a8"),
}


@pytest.mark.parametrize("name", list(DIAGONAL_PINS))
def test_diagonal_reports_pinned(tmp_path, capsys, monkeypatch, name):
    payload, digest = DIAGONAL_PINS[name]
    monkeypatch.chdir(tmp_path)  # the relative path keeps inputs-digest fixed
    write_json(tmp_path, "K.json", payload)
    code, rep = run_json(capsys, "diagonal", "--in", "K.json")
    assert code == 0 and rep["status"] == "verified"
    del rep["runtime_ms"]
    assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() == digest


# `smallmodel --json homology --in K.json` over Z, reduced and unreduced:
# sha256 of the report without its runtime, pinned before the Z walk
# skipped the rows of unit pivots
HOMOLOGY_PINS = {
    "projective-plane": ({"vertices": [1, 2, 3, 4, 5, 6],
                          "facets": [[1, 2, 6], [2, 3, 6], [3, 4, 6], [4, 5, 6], [1, 5, 6],
                                     [1, 2, 4], [2, 4, 5], [2, 3, 5], [1, 3, 5], [1, 3, 4]]},
                         "17b7ee00bb03f192d822f0dd7827a762b8b397cc881b730d611d38bc6de8c2aa",
                         "0452c6cbb3ecf2132139fd512cb4fcf16de34338dd14c654726dff7753d619bb"),
    "klein-bottle": (grid_surface(4, twist=True),
                     "9e981cae3cb65b1e7243eab4a61361066cec37c87b4c0c933e192ac941b1e23c",
                     "bbba1a41a7e28d56aa405fd3afc622f314c4ea8585f88de0f78838768ea8fe64"),
    "torus": (grid_surface(3, twist=False),
              "5d2278d542ffadae951b97d16d4397378e0fafe18fa134191a71c708a9292084",
              "18d672f56d1990a8e762a49a9471929351386a7a43fe53de3fed4e3cd9740ab6"),
    "hollow-tetrahedron": (DIAGONAL_PINS["hollow-tetrahedron"][0],
                           "379f735b4b440fd4fb4332cabfed0a40ba58f18bff214a21493d54eacbcac64c",
                           "aa646ed1fe6524428d1fa9cbdcd363c4950e3b7b2750c2b872e2df80c42b9abe"),
}


@pytest.mark.parametrize("unreduced", [False, True])
@pytest.mark.parametrize("name", list(HOMOLOGY_PINS))
def test_homology_reports_pinned(tmp_path, capsys, monkeypatch, name, unreduced):
    payload, reduced_digest, unreduced_digest = HOMOLOGY_PINS[name]
    monkeypatch.chdir(tmp_path)  # the relative path keeps inputs-digest fixed
    write_json(tmp_path, "K.json", payload)
    flags = ["--unreduced"] if unreduced else []
    code, rep = run_json(capsys, "homology", "--in", "K.json", *flags)
    assert code == 0 and rep["status"] == "verified"
    del rep["runtime_ms"]
    digest = unreduced_digest if unreduced else reduced_digest
    assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() == digest


# `smallmodel --json orbit-codim|slm-check --in pair.json` for fixed pairs:
# sha256 of the report without its runtime, pinned while the pair
# dimensions came from m*m-variable constraint systems
RANDOM_4 = {"e": {"m": 4, "subspaces": [[["1", "0", "0", "-1517/1980"], ["0", "1", "0", "-91/99"],
                                         ["0", "0", "1", "67/495"]]]},
            "f": {"m": 4, "subspaces": [[["1", "5", "0", "-25/2"]],
                                        [["1", "0", "100/63", "-17/42"],
                                         ["0", "1", "-20/63", "-254/105"]],
                                        [["1", "0", "0", "-451/86"], ["0", "1", "0", "-312/215"],
                                         ["0", "0", "1", "1311/430"]]]}}
RANDOM_5 = {"e": {"m": 5, "subspaces": [[["1", "-3", "-9/8", "15/4", "-3/16"]],
                                        [["1", "0", "0", "-537/443", "573/1772"],
                                         ["0", "1", "0", "-765/443", "53/886"],
                                         ["0", "0", "1", "86/443", "261/886"]],
                                        [["1", "0", "0", "0", "21963/373600"],
                                         ["0", "1", "0", "0", "-23693/74720"],
                                         ["0", "0", "1", "0", "62943/186800"],
                                         ["0", "0", "0", "1", "-81543/373600"]]]},
            "f": {"m": 5, "subspaces": [[["1", "5/6", "1", "5/3", "-5/4"]],
                                        [["1", "0", "0", "-3140/6837", "370/6837"],
                                         ["0", "1", "0", "-1450/2279", "-3505/4558"],
                                         ["0", "0", "1", "18160/6837", "-4535/6837"]]]}}
FLAG_PAIR_PINS = {
    "coordinate-3": ({"e": coordinate_flag_json(3, [{0}]), "f": coordinate_flag_json(3, [{1}])},
                     "91f7e4738b84edd2923ff63341c0019d4d67bed2e0d707b58d7e15ee1550ab86",
                     "70ed04068f047c43ea997d3785225e84d6852bdfd7a20616f16515fe50db341c"),
    "coordinate-4": ({"e": coordinate_flag_json(4, [{0}, {0, 1}]),
                      "f": coordinate_flag_json(4, [{3}])},
                     "a151cbbe34805035ba6a28278ecd87cacb7a09252b1841be8068a69f570a0d67",
                     "0df3ef86b92780d08ebd406f65a9dd9990b44ddee4f6aedb1ad4fa80934069c0"),
    "coordinate-overlap": ({"e": coordinate_flag_json(4, [{0, 1}, {0, 1, 2}]),
                            "f": coordinate_flag_json(4, [{1, 2}, {1, 2, 3}])},
                           "56dfe17eb52fe2acaab1aad24e0114c0a4d69263e710738d5cb5b65361d4cebe",
                           "f0435191e4fa800e72884c9538b831805e56a0762b6b8b9b051360ecd0f71115"),
    "inside-e": ({"e": {"m": 4, "subspaces": [[[1, 1, 0, 0]], [[1, 1, 0, 0], [0, 0, 1, 1]]]},
                  "f": {"m": 4, "subspaces": [[[1, 1, 1, 1]], [[1, 1, 1, 1], [1, -1, 0, 0]]]}},
                 "d774e7e8e581cd469b5788de58242cf2390dcb088efc92a928de4facc76dae36",
                 "9feab5f553380212d625ea34e574156eb7181b65c571402c42522a49b68c289d"),
    "random-4": (RANDOM_4,
                 "23d35952197d5480b8e953995d63aa4f570d816f2a2f151d3c65afae2ca1c1cb",
                 "dc1557939dbfd20fd62ff027619fd3e45438eb7b211be4a3d538e8598e08aa97"),
    "random-5": (RANDOM_5,
                 "0a7872b9de7ed4807275a1936fe204ea7477c9dd0b809980e749342ab6f786f6",
                 "b5ebb35da1ed3729ef29ce932723aab058c3c3cef5eb7148e31b09f9ebe67990"),
}


@pytest.mark.parametrize("command", ["orbit-codim", "slm-check"])
@pytest.mark.parametrize("name", list(FLAG_PAIR_PINS))
def test_flag_pair_reports_pinned(tmp_path, capsys, monkeypatch, name, command):
    payload, orbit_digest, slm_digest = FLAG_PAIR_PINS[name]
    monkeypatch.chdir(tmp_path)  # the relative path keeps inputs-digest fixed
    write_json(tmp_path, "pair.json", payload)
    code, rep = run_json(capsys, command, "--in", "pair.json")
    assert code == 0 and rep["status"] == "verified"
    del rep["runtime_ms"]
    digest = orbit_digest if command == "orbit-codim" else slm_digest
    assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() == digest


def test_slm_check_single_pair(tmp_path, capsys):
    path = write_json(tmp_path, "pair.json", {"e": coordinate_flag_json(4, [{0}, {0, 1}]),
                                              "f": coordinate_flag_json(4, [{3}])})
    code, rep = run_json(capsys, "slm-check", "--in", path)
    assert code == 0
    d = rep["details"]
    assert rep["status"] == d["status"] == "verified"
    assert set(d) == {"status", "m", "length_e", "length_f", "dim_n_quotient",
                      "induced_lengths", "length_f0", "codim", "codim_bound", "codim_ok",
                      "dim_gk", "lhs", "rhs", "inequality_ok", "chain_ok",
                      "counting_identity"}
    assert d["codim_ok"] and d["inequality_ok"] and d["chain_ok"]
    assert (d["codim"], d["codim_bound"], d["lhs"], d["rhs"]) == (6, 4, 5, 7)


def test_lemma_upper(capsys):
    code, rep = run_json(capsys, "lemma-upper", "--m", "3")
    assert code == 0
    d = rep["details"]
    assert rep["status"] == d["status"] == "verified"
    assert (d["number"], d["checked"], d["violations"]) == (1, 12, [])
    assert d["name"] == "forced zeros >= flag length, exhaustive"
    # only the suite times its criteria
    assert "runtime_s" not in d and "passed" not in d and "details" not in d


def test_lemma_upper_reports_a_counterexample(monkeypatch, capsys):
    # the lemma holds, so only a rule that undercounts reaches this path:
    # drop the corner entry (0, m - 1) from the forced zeros of every w
    rule = flags.forced_zeros

    def undercount(w):
        fixed, forcing = rule(w)
        forcing.pop((0, len(w) - 1), None)
        return fixed, forcing

    monkeypatch.setattr(flags, "forced_zeros", undercount)
    code, rep = run_json(capsys, "lemma-upper", "--m", "3")
    assert code == 1
    d = rep["details"]
    assert rep["status"] == d["status"] == "counterexample"
    assert d["checked"] == 12
    expected = []
    for m in (2, 3):
        dim_sets = [dims for r in range(1, m) for dims in itertools.combinations(range(1, m), r)]
        for w in itertools.permutations(range(m)):
            for dims in dim_sets:
                count = forced_zero_count_by_sets(m, dims, w)
                if count is None:
                    continue
                moved = [set(w[:d]) for d in dims]
                count -= any(m - 1 in s and 0 not in s for s in moved)
                if count < len(dims):
                    expected.append({"m": m, "dims": list(dims), "w": list(w), "count": count})
    assert expected and d["violations"] == expected


@pytest.fixture
def fresh_flag_memos():
    memos = [v for v in vars(flags).values() if hasattr(v, "cache_clear")]
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


# The pair whose verdict the two tests below patch, and its rows. The
# theorems hold, so only a patched check reaches the violation rows.
E3_JSON = {"m": 3, "subspaces": [[["1", "0", "0"]]]}
F3_JSON = {"m": 3, "subspaces": [[["0", "1", "0"]], [["0", "1", "0"], ["0", "0", "1"]]]}


def _chosen(e, f):
    return e == flags.coordinate_flag(3, [{0}]) and f == flags.coordinate_flag(3, [{1}, {1, 2}])


def _check_counterexample(capsys, criterion, command, expected):
    rep = criterion(max_m=3, random_per_m=0)
    assert rep.status == "counterexample" and not rep.passed
    assert rep.details["checked"] == 98
    assert rep.details["violations"] == expected
    assert json.loads(json.dumps(rep.to_json()))["violations"] == expected
    cli._human(rep.to_json())
    assert "violations:" in capsys.readouterr().out
    code, out = run(capsys, "--json", command, "--m", "3", "--random", "0")
    assert code == 1
    cli_rep = json.loads(out)
    assert cli_rep["status"] == cli_rep["details"]["status"] == "counterexample"
    assert cli_rep["details"]["violations"] == expected
    code, out = run(capsys, command, "--m", "3", "--random", "0")
    assert code == 1 and out.startswith(f"{command}: counterexample\n") and "kind: coordinate" in out


def test_orbit_codim_sweep_reports_a_counterexample(monkeypatch, capsys, fresh_flag_memos):
    codim = flags.orbit_codim
    monkeypatch.setattr(flags, "orbit_codim",
                        lambda e, f: f.length - 1 if _chosen(e, f) else codim(e, f))
    expected = [{"m": 3, "kind": "coordinate", "e": E3_JSON, "f": F3_JSON, "codim": 1}]
    _check_counterexample(capsys, acceptance.criterion_orbit_codim, "orbit-codim", expected)


def test_slm_sweep_reports_a_counterexample(monkeypatch, capsys, fresh_flag_memos):
    slm = flags.slm_inequality

    def patched(e, f):
        rep = slm(e, f)
        if not _chosen(e, f):
            return rep
        return Report(VIOLATION, {**rep.details, "lhs": 4, "inequality_ok": False})

    monkeypatch.setattr(flags, "slm_inequality", patched)
    expected = [{"m": 3, "kind": "coordinate", "e": E3_JSON, "f": F3_JSON, "report": {
        "status": "counterexample", "m": 3, "length_e": 1, "length_f": 2, "dim_n_quotient": 2,
        "induced_lengths": [0, 1], "length_f0": 1, "codim": 5, "codim_bound": 4,
        "codim_ok": True, "dim_gk": 1, "lhs": 4, "rhs": 3, "inequality_ok": False,
        "chain_ok": True, "counting_identity": True}}]
    _check_counterexample(capsys, acceptance.criterion_slm_pipeline, "slm-check", expected)


# The building of GL_3(F_2) read with reduced rank 7 instead of 8, and the
# row that criterion 4 writes for it. Solomon-Tits holds, so only a patched
# homology reaches a failing row.
BUILDING32_ROW = {"m": 3, "q": 2, "facets": 21, "expected_facets": 21,
                  "homology": [{"degree": 1, "rank": 7, "torsion": []}],
                  "expected_rank": 8, "ok": False}


def test_building_criterion_reports_a_counterexample(monkeypatch, capsys):
    real = acceptance.homology

    def off_by_one(K, ring="Z", reduced=True):
        h = real(K, ring, reduced=reduced)
        if len(K.vertices) != 14:  # the 7 lines and 7 planes of F_2^3
            return h
        return HomologyTable(h.reduced, h.ring,
                             tuple((d, r - (d == 1), t) for d, r, t in h.entries))

    monkeypatch.setattr(acceptance, "homology", off_by_one)
    monkeypatch.setattr(cli, "homology", off_by_one)
    rep = acceptance.criterion_buildings()
    assert rep.status == "counterexample" and not rep.passed
    cases = rep.details["cases"]
    assert cases[0] == BUILDING32_ROW
    assert [(c["m"], c["q"]) for c in cases if c["ok"]] == [(3, 3), (4, 2), (4, 3), (5, 2)]
    assert json.loads(json.dumps(rep.to_json()))["cases"][0] == BUILDING32_ROW
    cli._human(rep.to_json())
    assert capsys.readouterr().out.startswith(
        "status: counterexample\nnumber: 4\nname: building homology: one degree, rank "
        "q^(m(m-1)/2)\ncases:\n  m: 3\n  q: 2\n  facets: 21\n  expected_facets: 21\n"
        "  homology:\n    degree: 1\n    rank: 7\n    torsion:\n\n  expected_rank: 8\n"
        "  ok: False\n\n  m: 3\n  q: 3\n")
    # the suite, in process and through cli.main, on criterion 4 alone
    monkeypatch.setattr(acceptance, "CRITERIA", (acceptance.criterion_buildings,))
    (suite_rep,) = acceptance.run_all()
    assert suite_rep.status == "counterexample" and suite_rep.details["cases"][0] == BUILDING32_ROW
    code, out = run(capsys, "--json", "suite")
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "counterexample"
    (criterion,) = rep["details"]["criteria"]
    assert criterion["number"] == 4 and criterion["status"] == "counterexample"
    assert criterion["cases"][0] == BUILDING32_ROW
    code, out = run(capsys, "suite")
    assert code == 1 and out.startswith("suite: counterexample\n") and "rank: 7" in out
    # and the building subcommand, which reads the same homology
    code, rep = run_json(capsys, "building", "--m", "3", "--q", "2")
    assert code == 1 and rep["status"] == "counterexample"
    assert rep["details"]["homology"] == BUILDING32_ROW["homology"]
    assert rep["details"]["expected_rank"] == 8


def test_diagonal_builds_the_diagonal_once(tmp_path, capsys, monkeypatch):
    # the three checks of the diagonal command, one build of C x C's
    # diagonal among them, report what the three public checks report
    # when each builds its own
    payload = {"vertices": [0, 1, 2, 3], "facets": [[0, 1, 2], [1, 2, 3], [0, 3]]}
    K = SimplicialComplex.from_json(payload)
    separate = [diagonal.check_retraction(K).to_json(), diagonal.decomposition_check(K).to_json(),
                diagonal.long_exact_consistency(diagonal.build_diagonal(K, 2)).to_json()]
    builds = []
    build = diagonal.build_diagonal

    def counted(K, ring="Z"):
        builds.append(ring)
        return build(K, ring)

    monkeypatch.setattr(diagonal, "build_diagonal", counted)
    code, rep = run_json(capsys, "diagonal", "--in", write_json(tmp_path, "K.json", payload))
    assert code == 0 and builds == ["Z"]
    assert rep["details"]["checks"] == separate


def test_suite_prints_each_criterion_as_it_ends(monkeypatch, capsys):
    # the [PASS] line of the first criterion is on stderr before the second
    # one starts; all eleven lines used to come after the last criterion
    seen = []

    def first():
        return acceptance._criterion(1, "first stub", True, {})

    def second():
        seen.append(capsys.readouterr().err)
        return acceptance._criterion(2, "second stub", False, {})

    monkeypatch.setattr(acceptance, "CRITERIA", (first, second))
    code, rep = run_json(capsys, "suite")
    assert seen == ["[PASS] criterion  1 first stub (0.0s)\n"]
    assert code == 1 and rep["status"] == "counterexample"
    assert [c["name"] for c in rep["details"]["criteria"]] == ["first stub", "second stub"]


@pytest.mark.parametrize("command", ["orbit-codim", "slm-check"])
def test_flag_pair_size_guard(tmp_path, capsys, command):
    # MAX_FLAG_M is accepted, one more is refused by name, for either flag
    top = flags.MAX_FLAG_M
    path = write_json(tmp_path, "pair.json", {"e": coordinate_flag_json(top, [{0}, {0, 1}]),
                                              "f": coordinate_flag_json(top, [{top - 1}])})
    code, rep = run_json(capsys, command, "--in", path)
    assert code == 0 and rep["status"] == "verified"
    refused = f"FlagError: size guard: m = {top + 1} exceeds MAX_FLAG_M = {top}"
    for big in ("e", "f"):
        pair = {"e": coordinate_flag_json(top, [{0}]), "f": coordinate_flag_json(top, [{1}]),
                big: coordinate_flag_json(top + 1, [{0}])}
        code, rep = run_json(capsys, command, "--in", write_json(tmp_path, "big.json", pair))
        assert code == 3 and rep["status"] == "error"
        assert rep["details"]["error"] == refused


def test_orbit_codim_rejects_shared_subspace(tmp_path, capsys):
    flag = coordinate_flag_json(3, [{0}])
    path = write_json(tmp_path, "pair.json", {"e": flag, "f": flag})
    code, rep = run_json(capsys, "orbit-codim", "--in", path)
    assert code == 3
    assert rep["status"] == "error"
    assert rep["details"]["error"] == "FlagError: flags share a subspace"


@pytest.mark.parametrize("m", [0, -3])
def test_a_flag_in_no_ambient_space_is_an_input_error(tmp_path, capsys, m):
    # both were verified with codim 0 and exited 0
    flag = {"m": m, "subspaces": []}
    path = write_json(tmp_path, "pair.json", {"e": flag, "f": flag})
    code, rep = run_json(capsys, "orbit-codim", "--in", path)
    assert code == 3
    assert rep["status"] == "error"
    assert rep["details"]["error"] == f"FlagError: ambient dimension m must be >= 1, got m = {m}"


def test_empty_flags_on_a_line_are_verified(tmp_path, capsys):
    flag = {"m": 1, "subspaces": []}
    path = write_json(tmp_path, "pair.json", {"e": flag, "f": flag})
    code, rep = run_json(capsys, "orbit-codim", "--in", path)
    assert code == 0
    assert rep["status"] == "verified"


@pytest.mark.parametrize("command", ["orbit-codim", "slm-check", "rank-one", "b2-criterion"])
def test_null_input_is_not_a_missing_input(tmp_path, capsys, command):
    # a file holding null is a wrongly shaped input, never the default run
    path = write_json(tmp_path, "null.json", None)
    code, rep = run_json(capsys, command, "--in", path)
    assert code == 3
    assert rep["status"] == "error"
    assert rep["details"]["error"].startswith("TypeError")


@pytest.mark.parametrize("argv", [["harer", "--g", "2", "--r", "0", "--s", "0"], ["suite"]])
def test_in_is_a_usage_error_where_it_is_not_read(tmp_path, capsys, argv):
    # the file is never read, so it must not be accepted and hashed
    path = write_json(tmp_path, "cert.json", orbit_certificate(pair_hdim=1))
    with pytest.raises(SystemExit) as exc:
        main(["--json", *argv, "--in", path])
    assert exc.value.code == 3
    assert "unrecognized arguments: --in" in capsys.readouterr().err


@pytest.mark.parametrize("command, payload, field", [
    ("check-small", {**orbit_certificate(1), "boundary_dim": 1.9}, "boundary_dim"),
    ("check-small", {**orbit_certificate(1), "boundary_dim": True}, "boundary_dim"),
    ("check-small", {**orbit_certificate(1),
                     "orbits": [{"label": "v", "dim": 0.9, "hdim": 2},
                                {"label": "e", "dim": 1, "hdim": 1}]}, "orbit dim"),
    ("certificate", {**orbit_certificate(1), "boundary_dim": "3.0"}, "boundary_dim"),
    ("sc-obstruction", {"n": 4.0, "q": 1, "boundary_homology": []}, "n"),
    ("sc-obstruction", {"n": 4, "q": 1,
                        "boundary_homology": [{"degree": 0, "rank": 1.5}]}, "rank"),
    ("rank-one", {"k": 2.5, "m": 3, "top_value": "1"}, "k"),
    ("slm-check", {"e": {**coordinate_flag_json(4, [{0}]), "m": 4.0},
                   "f": coordinate_flag_json(4, [{3}])}, "m"),
])
def test_non_integer_fields_are_input_errors(tmp_path, capsys, command, payload, field):
    # a float is refused by name, never truncated to an integer
    path = write_json(tmp_path, "in.json", payload)
    code, rep = run_json(capsys, command, "--in", path)
    assert code == 3
    assert rep["status"] == "error"
    assert rep["details"]["error"].startswith(f"ValueError: {field} must be an integer, got ")


@pytest.mark.parametrize("table, error", [
    # both used to exit 0, with verdicts OBSTRUCTED and INCONCLUSIVE
    ([{"degree": -1, "rank": -3}, {"degree": 0, "rank": 1}], "degree must be at least 0, got -1"),
    ([{"degree": 0, "rank": 1}, {"degree": 0, "rank": 5}], "degree 0 has two entries"),
    ([{"degree": 0, "rank": -3}], "rank must be at least 0, got -3"),
    ([{"degree": 0, "rank": 1}, {"degree": 1, "rank": 0, "torsion": [2, 1]}],
     "torsion must be at least 2, got 1"),
])
def test_malformed_homology_tables_are_input_errors(tmp_path, capsys, table, error):
    payload = {"n": 4, "q": 1, "boundary_homology": table}
    code, rep = run_json(capsys, "sc-obstruction", "--in", write_json(tmp_path, "in.json", payload))
    assert code == 3
    assert rep["status"] == "error"
    assert rep["details"]["error"] == f"ValueError: {error}"


@pytest.mark.parametrize("payload, error", [
    # these used to exit 0 (verified), 1 (a false counterexample) and 0 (verified)
    ({**orbit_certificate(1), "boundary_dim": 1,
      "orbits": [{"label": "v", "dim": -5, "hdim": 4}],
      "pairs": [{"a": "v", "b": "v", "disjoint": True, "hdim": 0}]},
     "orbit 'v' dim must be at least 0, got -5"),
    ({**orbit_certificate(1), "boundary_dim": -1}, "boundary_dim must be at least 0, got -1"),
    ({**orbit_certificate(1), "pairs": [*orbit_certificate(1)["pairs"],
                                        {"a": "v", "b": "w", "disjoint": False}]},
     "pair ('v', 'w') names unknown orbit 'w'"),
])
def test_nonsense_certificates_are_input_errors(tmp_path, capsys, payload, error):
    path = write_json(tmp_path, "in.json", payload)
    for command in ("check-small", "certificate"):
        code, rep = run_json(capsys, command, "--in", path)
        assert code == 3
        assert rep["status"] == "error"
        assert rep["details"]["error"] == f"CertificateError: {error}"


@pytest.mark.parametrize("command", ["check-small", "certificate"])
@pytest.mark.parametrize("payload, error", [
    # a null label in an incomplete table used to exit 2 (inconclusive), and
    # an int label beside a string one to raise a bare TypeError from the
    # comparison of the two in a pair key
    ({**orbit_certificate(1), "complete": False,
      "orbits": [{"label": None, "dim": 0, "hdim": 2}, {"label": "e", "dim": 1, "hdim": 1}],
      "pairs": []},
     "orbit label must be a string, got None"),
    ({**orbit_certificate(1),
      "orbits": [{"label": "v", "dim": 0, "hdim": 2}, {"label": 7, "dim": 1, "hdim": 1}],
      "pairs": [{"a": "v", "b": "v", "disjoint": True, "hdim": 1},
                {"a": 7, "b": "v", "disjoint": True, "hdim": 1},
                {"a": 7, "b": 7, "disjoint": True, "hdim": 0}]},
     "orbit label must be a string, got 7"),
    ({**orbit_certificate(1), "pairs": [*orbit_certificate(1)["pairs"][:2],
                                        {"a": "e", "b": ["e"], "disjoint": False}]},
     "pair endpoint must be a string, got ['e']"),
])
def test_non_string_orbit_labels_are_input_errors(tmp_path, capsys, command, payload, error):
    code, rep = run_json(capsys, command, "--in", write_json(tmp_path, "in.json", payload))
    assert code == 3
    assert rep["status"] == "error"
    assert rep["details"]["error"] == f"CertificateError: {error}"


@pytest.mark.parametrize("command", ["check-small", "certificate"])
@pytest.mark.parametrize("a, b", [("v", "e"), ("e", "v")])
def test_a_pair_listed_twice_is_an_input_error(tmp_path, capsys, command, a, b):
    # a later entry used to replace an earlier one: an exact violation
    # (lhs 9 >= 3) listed first was hidden and the table reported verified
    cert = orbit_certificate(1)
    cert["pairs"].insert(0, {"a": a, "b": b, "disjoint": True, "hdim": 9})
    code, rep = run_json(capsys, command, "--in", write_json(tmp_path, "in.json", cert))
    assert code == 3
    assert rep["status"] == "error"
    assert rep["details"]["error"] == "CertificateError: pair ('e', 'v') listed twice"


@pytest.mark.parametrize("command", ["homology", "diagonal"])
def test_facet_repeating_a_vertex_is_an_input_error(tmp_path, capsys, command):
    # used to be read as the edge {0, 1}: homology reported verified, f-vector [2, 1]
    payload = {"vertices": [0, 1], "facets": [[0, 0, 1]]}
    code, rep = run_json(capsys, command, "--in", write_json(tmp_path, "in.json", payload))
    assert code == 3
    assert rep["status"] == "error"
    assert rep["details"]["error"] == "ComplexError: facet [0, 0, 1] repeats a vertex"


def test_string_booleans_are_input_errors(tmp_path, capsys):
    # "false" used to be read as true: a v-v pair declared not disjoint, in
    # a table declared incomplete, was reported as a counterexample
    cert = orbit_certificate(1)
    cert["complete"] = "false"
    cert["pairs"][0] = {"a": "v", "b": "v", "disjoint": "false", "hdim": 9}
    code, rep = run_json(capsys, "check-small", "--in", write_json(tmp_path, "in.json", cert))
    assert code == 3
    assert rep["status"] == "error"
    assert rep["details"]["error"] == "ValueError: disjoint must be true or false, got 'false'"


@pytest.mark.parametrize("command, payload, field", [
    ("check-small", {**orbit_certificate(1), "complete": "false"}, "complete"),
    ("check-small", {**orbit_certificate(1), "complete": 1}, "complete"),
    ("certificate", {**orbit_certificate(1),
                     "pairs": [{**p, "disjoint": 0} for p in orbit_certificate(1)["pairs"]]},
     "disjoint"),
    ("sc-obstruction", {"n": 4, "q": 1, "chi_zero": "false",
                        "boundary_homology": [{"degree": 0, "rank": 1}]}, "chi_zero"),
])
def test_non_boolean_fields_are_input_errors(tmp_path, capsys, command, payload, field):
    code, rep = run_json(capsys, command, "--in", write_json(tmp_path, "in.json", payload))
    assert code == 3
    assert rep["status"] == "error"
    assert rep["details"]["error"].startswith(f"ValueError: {field} must be true or false, got ")


@pytest.mark.parametrize("command, payload, field", [
    ("b2-criterion", {"c111": "1", "c112": 0.5, "c122": "1", "c222": "0"}, "c112"),
    ("b2-criterion", {"c111": True, "c112": "2", "c122": "1", "c222": "0"}, "c111"),
    ("b2-criterion", {"c111": "1", "c112": "2", "c122": "1", "c222": "1e9"}, "c222"),
    ("rank-one", {"k": 2, "m": 3, "top_value": 0.5}, "top_value"),
    ("orbit-codim", {"e": {"m": 3, "subspaces": [[[1, 0.5, 0]]]},
                     "f": coordinate_flag_json(3, [{2}])}, "subspace entry"),
])
def test_non_rational_fields_are_input_errors(tmp_path, capsys, command, payload, field):
    # a float is refused by name, never read as its binary fraction
    code, rep = run_json(capsys, command, "--in", write_json(tmp_path, "in.json", payload))
    assert code == 3
    assert rep["status"] == "error"
    assert rep["details"]["error"].startswith(f"ValueError: {field} must be a rational")


def test_rationals_read_ints_and_ratio_strings(tmp_path, capsys):
    form = {"c111": 1, "c112": "2", "c122": "1", "c222": "0"}
    code, rep = run_json(capsys, "b2-criterion", "--in", write_json(tmp_path, "in.json", form))
    assert code == 0
    flags = {"e": {"m": 3, "subspaces": [[[2, "-2/7", 0]]]}, "f": coordinate_flag_json(3, [{2}])}
    code, rep = run_json(capsys, "orbit-codim", "--in", write_json(tmp_path, "f.json", flags))
    assert code == 0


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(*args, timeout=120):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


def test_json_output_is_the_bytes_of_json_dumps(capsys):
    # many batches of encoder pieces, a nested value and one that only
    # default=str can print: streaming must not add or drop a byte
    report = {"rows": [{"i": i, "x": Fraction(i, 7), "ok": i % 2 == 0} for i in range(2000)],
              "command": "stub", "status": "verified"}
    cli._emit(report, True)
    out = capsys.readouterr().out
    expected = json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"
    # digests, so that a failure prints no diff of two 100 KB strings
    assert (len(out), hashlib.sha256(out.encode()).hexdigest()) == (
        len(expected), hashlib.sha256(expected.encode()).hexdigest())


def test_module_form_runs_the_cli():
    proc = _python("-m", "smallmodel", "--json", "harer", "--g", "2", "--r", "0", "--s", "0")
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["status"] == "verified"
    assert rep["details"]["dim"] == 3


@pytest.mark.parametrize("argv, code", [
    # about 200 KB of JSON, more than a pipe holds, so the CLI is still
    # writing when the reader leaves after one byte
    (("multicurves", "--g", "5", "--k", "5"), 0),
    # exited 1, a counterexample, with a BrokenPipeError traceback
    (("lemma-upper", "--m", "3"), 0),
])
def test_a_reader_that_leaves_early_keeps_the_exit_code(argv, code):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.Popen([sys.executable, "-m", "smallmodel", "--json", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == code, stderr
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr


def test_a_closed_stderr_keeps_the_suite_verdict():
    # the first [PASS] line raised BrokenPipeError inside the command, which
    # was reported as an error with exit 3 (``suite 2>&1 | head -c 1``)
    code = ("import sys; from smallmodel import acceptance, cli; "
            "acceptance.CRITERIA = (lambda: acceptance._criterion(1, 'stub', True, {}),); "
            "sys.exit(cli.main(['--json', 'suite']))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stderr.close()
    out = proc.stdout.read()
    assert proc.wait(timeout=120) == 0
    assert json.loads(out)["status"] == "verified"


def test_no_networkx_at_import():
    proc = _python("-c", "import sys, smallmodel, smallmodel.cli, smallmodel.acceptance; "
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_float_coefficient_exits_at_once(tmp_path):
    # 0.1 read as a Fraction has denominator 2**55, which sent the cubic
    # root search into a 17-digit divisor loop that did not finish in 20 s
    path = write_json(tmp_path, "form.json", {"c111": "1", "c112": 0.1, "c122": "1", "c222": "0"})
    proc = _python("-m", "smallmodel", "--json", "b2-criterion", "--in", path)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["details"]["error"].startswith("ValueError: c112 must be a rational")


@pytest.mark.parametrize("argv", [("lemma-sweep", "--g", "9"),
                                  ("multicurves", "--g", "7", "--k", "10")])
def test_genus_past_the_guard_exits_at_once(argv):
    # neither printed anything before a 20 s timeout killed it
    proc = _python("-m", "smallmodel", "--json", *argv, timeout=60)
    assert proc.returncode == 3, proc.stderr
    error = json.loads(proc.stdout)["details"]["error"]
    assert error == f"SurfaceError: size guard: genus {argv[2]} exceeds MAX_GENUS = 6"


@pytest.mark.parametrize("argv, error", [
    # each checked nothing and exited 1, a counterexample, with no violation
    (("orbit-codim", "--m", "1"), "a sweep needs m >= 2, got m = 1"),
    (("orbit-codim", "--m", "0"), "a sweep needs m >= 2, got m = 0"),
    (("slm-check", "--m", "1"), "a sweep needs m >= 2, got m = 1"),
    (("lemma-upper", "--m", "1"), "a sweep needs m >= 2, got m = 1"),
    # read as 0 and exited 0
    (("orbit-codim", "--m", "3", "--random", "-1"), "random pairs per m must be >= 0, got -1"),
    (("slm-check", "--m", "2", "--random", "-5"), "random pairs per m must be >= 0, got -5"),
])
def test_a_sweep_that_would_check_nothing_is_an_input_error(capsys, argv, error):
    code, rep = run_json(capsys, *argv)
    assert code == 3
    assert rep["status"] == "error"
    assert rep["details"]["error"] == f"FlagError: {error}"


@pytest.mark.parametrize("argv, error", [
    # orbit-codim --m 7 printed nothing before a 20 s timeout killed it
    (("orbit-codim", "--m", "7", "--random", "0"), "m = 7 exceeds MAX_PAIR_SWEEP_M = 6"),
    (("slm-check", "--m", "7"), "m = 7 exceeds MAX_PAIR_SWEEP_M = 6"),
    # lemma-upper --m 8 ran past 60 s
    (("lemma-upper", "--m", "8"), "m = 8 exceeds MAX_FORCED_ZEROS_M = 7"),
])
def test_a_sweep_past_its_size_guard_exits_at_once(argv, error):
    proc = _python("-m", "smallmodel", "--json", *argv, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["details"]["error"] == f"FlagError: size guard: {error}"


def _simplex(n):
    return {"vertices": list(range(n)), "facets": [list(range(n))]}


@pytest.mark.parametrize("command, payload, error", [
    # 2047 cells: the retraction check grows about 4x per vertex and took
    # 14 s at 9 vertices
    ("diagonal", _simplex(11), "ComplexError: size guard: 2047 x 2047 cells give 4190209 "
                               "product cells, more than MAX_PRODUCT_CELLS = 262144"),
    # 2**24 - 1 faces would need gigabytes
    ("homology", _simplex(24), "ComplexError: size guard: the facets have more than "
                               "MAX_FACES = 524288 faces, counted facet by facet"),
    # 1,000 disjoint facets of 10 vertices each: 1,023,000 faces
    ("homology", {"vertices": list(range(10000)),
                  "facets": [[10 * i + j for j in range(10)] for i in range(1000)]},
     "ComplexError: size guard: the facets have more than MAX_FACES = 524288 faces, "
     "counted facet by facet"),
])
def test_a_complex_past_the_size_guard_exits_at_once(tmp_path, command, payload, error):
    path = write_json(tmp_path, "K.json", payload)
    proc = _python("-m", "smallmodel", "--json", command, "--in", path, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["details"]["error"] == error


def test_large_prime_ring_answers_at_once(tmp_path):
    # 2**61 - 1: trial division up to its square root never finished
    path = write_json(tmp_path, "tri.json", {"vertices": [0, 1, 2],
                                             "facets": [[0, 1], [1, 2], [0, 2]]})
    proc = _python("-m", "smallmodel", "--json", "homology", "--ring", "2305843009213693951",
                   "--in", path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["details"]["homology"] == [
        {"degree": 1, "rank": 1, "torsion": []}]


def test_31_digit_cubic_coefficient_answers_at_once(tmp_path):
    # the rational root search once tried every divisor up to the square
    # root of c222 and did not finish in 10 s
    path = write_json(tmp_path, "form.json", {"c111": "1", "c112": "2", "c122": "1",
                                              "c222": "1000000000000000000000000000007"})
    proc = _python("-m", "smallmodel", "--json", "b2-criterion", "--in", path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["details"]["status"] == "OBSTRUCTED"


@pytest.mark.parametrize("ring, error", [
    ("3825123056546413051", "ComplexError: ring must be 'Z' or a prime, got 3825123056546413051"),
    ("318665857834031151167461",
     "ComplexError: ring must be 'Z' or a prime, got 318665857834031151167461"),
    ("3317044064679887385961981", "ValueError: cannot decide whether 3317044064679887385961981 "
     "is prime: Miller-Rabin on the first 13 primes is exact only below "
     "3317044064679887385961981"),
])
def test_composite_or_undecided_ring_is_an_input_error(tmp_path, capsys, ring, error):
    path = write_json(tmp_path, "tri.json", {"vertices": [0, 1, 2],
                                             "facets": [[0, 1], [1, 2], [0, 2]]})
    code, rep = run_json(capsys, "homology", "--ring", ring, "--in", path)
    assert code == 3
    assert rep["status"] == "error"
    assert rep["details"]["error"] == error


@pytest.mark.parametrize("command, payload, argv, error", [
    # the file's top value was read and --top 0 ignored, exit 0
    ("rank-one", {"k": 2, "m": 3, "top_value": "1"}, ["--top", "0"],
     "ValueError: rank-one takes --in or --top, not both"),
    ("rank-one", {"k": 2, "m": 3, "top_value": "1"}, ["--m", "3", "--k", "2"],
     "ValueError: rank-one takes --in or --k, --m, not both"),
    ("orbit-codim", "FLAGS", ["--m", "3"], "ValueError: orbit-codim takes --in or --m, not both"),
    ("slm-check", "FLAGS", ["--random", "0"],
     "ValueError: slm-check takes --in or --random, not both"),
])
def test_options_beside_in_are_refused(tmp_path, capsys, command, payload, argv, error):
    if payload == "FLAGS":
        payload = {"e": coordinate_flag_json(4, [{0}]), "f": coordinate_flag_json(4, [{3}])}
    path = write_json(tmp_path, "in.json", payload)
    code, rep = run_json(capsys, command, "--in", path, *argv)
    assert code == 3
    assert rep["status"] == "error"
    assert rep["details"]["error"] == error


# sha256 of the details of each command run without --in or options,
# recorded while the options had their defaults in the parser
DEFAULT_RUN_PINS = {
    "rank-one": "232d0e3dcff64ed885b79dfcd423785b106f1ebf72374931d4479fd8e8d05c88",
    "orbit-codim": "ec129f707c5b92cc83c8e592afd87449dc90dd8b5270c5305d11a3f07f38072e",
    "slm-check": "d083f25194a7d763737308e93611fbfb035258f326c654685b0a2115e4fd1e1a",
}


@pytest.mark.parametrize("command", list(DEFAULT_RUN_PINS))
def test_defaults_apply_without_in(capsys, command):
    code, rep = run_json(capsys, command)
    assert code == 0
    blob = json.dumps(rep["details"], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == DEFAULT_RUN_PINS[command]


@pytest.mark.parametrize("command, field", [
    ("homology", "facets"), ("diagonal", "facets"), ("check-small", "orbits"),
    ("certificate", "orbits"), ("sc-obstruction", "boundary_homology"),
    ("orbit-codim", "e"), ("slm-check", "e"), ("rank-one", "k"),
])
def test_a_missing_field_is_named(tmp_path, capsys, command, field):
    # each was a bare KeyError naming the key only
    path = write_json(tmp_path, "in.json", {})
    code, rep = run_json(capsys, command, "--in", path)
    assert code == 3
    assert rep["details"]["error"] == f"ValueError: the input has no field {field!r}"
    path = write_json(tmp_path, "in.json", ["x"])
    code, rep = run_json(capsys, command, "--in", path)
    assert code == 3
    assert rep["details"]["error"] == "TypeError: the input must be a JSON object, got ['x']"


@pytest.mark.parametrize("command, payload, error", [
    ("check-small", {"boundary_dim": 3, "orbits": [{"label": "v", "hdim": 0}]},
     "ValueError: an orbit has no field 'dim'"),
    ("certificate", {"boundary_dim": 3, "orbits": [{"label": "v", "dim": 0, "hdim": 0}],
                     "pairs": [{"a": "v", "b": "v"}]},
     "ValueError: a pair has no field 'disjoint'"),
    ("check-small", {"orbits": []}, "ValueError: the input has no field 'boundary_dim'"),
    ("check-small", {"boundary_dim": 3, "orbits": [3]},
     "TypeError: an orbit must be a JSON object, got 3"),
    ("sc-obstruction", {"n": 4, "q": 1, "boundary_homology": [{"degree": 0}]},
     "ValueError: a homology entry has no field 'rank'"),
    ("sc-obstruction", {"boundary_homology": []}, "ValueError: the input has no field 'n'"),
    ("slm-check", {"e": {"m": 4}, "f": {"m": 4, "subspaces": []}},
     "ValueError: a flag has no field 'subspaces'"),
    ("orbit-codim", {"e": coordinate_flag_json(4, [{0}])}, "ValueError: the input has no field 'f'"),
    ("rank-one", {"k": 2, "m": 3}, "ValueError: the input has no field 'top_value'"),
    ("homology", {"facets": []}, "ValueError: the input has no field 'vertices'"),
])
def test_a_missing_nested_field_is_named(tmp_path, capsys, command, payload, error):
    path = write_json(tmp_path, "in.json", payload)
    code, rep = run_json(capsys, command, "--in", path)
    assert code == 3
    assert rep["details"]["error"] == error
