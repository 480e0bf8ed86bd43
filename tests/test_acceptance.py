"""Acceptance battery: every criterion runs once and must report [PASS].

The criteria themselves live in smallmodel.acceptance so that the CLI
``smallmodel suite`` and this test file exercise the identical code.
"""

import pytest

from smallmodel import acceptance

RUNTIME_BUDGETS = {1: 60.0, 2: 120.0, 3: 120.0, 4: 300.0, 6: 120.0}


@pytest.fixture(scope="session")
def results():
    return {r.details["number"]: r for r in acceptance.run_all(seed=0)}


@pytest.mark.parametrize("number", list(range(1, 12)))
def test_criterion(results, number):
    r = results[number]
    print(acceptance.line(r))
    assert r.passed, acceptance.line(r) + "\n" + repr(r.details)
    budget = RUNTIME_BUDGETS.get(number)
    if budget is not None:
        assert r.details["runtime_s"] < budget, (
            f"criterion {number} took {r.details['runtime_s']:.1f}s, budget {budget:.0f}s"
        )


def test_all_eleven_present(results):
    assert sorted(results) == list(range(1, 12))
