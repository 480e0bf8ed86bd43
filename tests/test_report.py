import json
from fractions import Fraction

import pytest

from smallmodel.cupforms import SurjectionWitness
from smallmodel.report import INCONCLUSIVE, VERIFIED, VIOLATION, Report, json_int


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


def test_json_int_reads_ints_and_integer_strings():
    assert json_int(3, "n") == 3
    assert json_int(-2, "n") == -2
    assert json_int("7", "n") == 7


@pytest.mark.parametrize("value", [1.9, 2.0, True, False, None, "1.9", "x", "", [1], {}])
def test_json_int_refuses_the_rest_by_name(value):
    with pytest.raises(ValueError, match=r"^boundary_dim must be an integer, got "):
        json_int(value, "boundary_dim")
