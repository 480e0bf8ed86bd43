import json
from fractions import Fraction

import pytest

from oracles import report_json_reference
from smallmodel.cupforms import SurjectionWitness, TripleForm, compression_criterion_b2
from smallmodel.report import (
    INCONCLUSIVE, VERIFIED, VIOLATION, Report, json_bool, json_int, json_rational,
)


def test_passed_reads_the_status():
    assert Report(VERIFIED, {}).passed
    assert not Report(VIOLATION, {}).passed
    assert not Report(INCONCLUSIVE, {}).passed


def test_to_json_flattens_details_and_keeps_exact_values():
    witness = SurjectionWitness(beta=(Fraction(1), Fraction(-1, 3)), s=Fraction(1),
                                x=Fraction(3, 2), y=Fraction(0))
    rep = Report("SATISFIABLE", {"witness": witness,
                                 "zero_s_roots": [(Fraction(0), Fraction(1, 2))],
                                 "failing_bidegree": (1, 4), "notes": ["n"]})
    out = rep.to_json()
    assert list(out) == ["status", "witness", "zero_s_roots", "failing_bidegree", "notes"]
    # the strings and lists the hand-written to_json methods produced
    assert json.loads(json.dumps(out, default=str)) == {
        "status": "SATISFIABLE",
        "witness": {"beta": ["1", "-1/3"], "s": "1", "x": "3/2", "y": "0"},
        "zero_s_roots": [["0", "1/2"]],
        "failing_bidegree": [1, 4],
        "notes": ["n"],
    }
    # the report itself is left as it was
    assert rep.details["witness"] is witness


def test_to_json_equals_the_deep_copy_on_a_satisfiable_b2_report():
    rep = compression_criterion_b2(TripleForm(*map(Fraction, (1, 1, 1, 0))))
    assert rep.status == "SATISFIABLE"
    assert isinstance(rep.details["witness"], SurjectionWitness)
    assert rep.to_json() == report_json_reference(rep)
    # only the dataclass is converted; the other values are the details' own
    assert rep.to_json()["notes"] is rep.details["notes"]


def test_json_int_reads_ints_and_integer_strings():
    assert json_int(3, "n") == 3
    assert json_int(-2, "n") == -2
    assert json_int("7", "n") == 7
    assert json_int("0", "rank", least=0) == 0


@pytest.mark.parametrize("value", [-1, "-1"])
def test_json_int_refuses_a_value_below_least(value):
    with pytest.raises(ValueError, match=r"^rank must be at least 0, got -1$"):
        json_int(value, "rank", least=0)


@pytest.mark.parametrize("value", [1.9, 2.0, True, False, None, "1.9", "x", "", [1], {}])
def test_json_int_refuses_the_rest_by_name(value):
    with pytest.raises(ValueError, match=r"^boundary_dim must be an integer, got "):
        json_int(value, "boundary_dim")


def test_json_bool_reads_only_true_and_false():
    assert json_bool(True, "complete") is True
    assert json_bool(False, "complete") is False


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, 0.0, [], {}])
def test_json_bool_refuses_the_rest_by_name(value):
    with pytest.raises(ValueError, match=r"^complete must be true or false, got "):
        json_bool(value, "complete")


def test_json_rational_reads_ints_and_rational_strings():
    assert json_rational(3, "c") == 3
    assert json_rational(-4, "c") == -4
    assert json_rational("3", "c") == 3
    assert json_rational("-2/7", "c") == Fraction(-2, 7)
    assert json_rational("0.1", "c") == Fraction(1, 10)
    assert isinstance(json_rational(3, "c"), Fraction)


@pytest.mark.parametrize("value", [0.1, 0.5, 2.0, True, False, None, "x", "", "1/0",
                                   "1e9", "1E-3", [1], {}])
def test_json_rational_refuses_the_rest_by_name(value):
    with pytest.raises(ValueError, match=r"^c112 must be a rational"):
        json_rational(value, "c112")
