import json

import pytest

from smallmodel import cli
from smallmodel.cli import main
from smallmodel.normalform import PivotExplosion


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
    path.write_text(json.dumps({"vertices": "abc", "facets": ["ab", "bc", "ac"]}))
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
    assert rep["details"]["verdict"] == "OBSTRUCTED"


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
