import json
from fractions import Fraction

from smallmodel.cupforms import SurjectionWitness
from smallmodel.report import INCONCLUSIVE, VERIFIED, VIOLATION, Report


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
