"""Acceptance battery: every criterion runs once and must report [PASS].

The criteria themselves live in smallmodel.acceptance so that the CLI
``smallmodel suite`` and this test file exercise the identical code.
"""

import hashlib
import itertools
import json
import random

import pytest

from oracles import brute_maximal_cliques
from oracles import report_json_reference
from smallmodel import acceptance
from smallmodel.complexes import maximal_cliques

RUNTIME_BUDGETS = {1: 60.0, 2: 30.0, 3: 30.0, 4: 300.0, 6: 120.0}


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


def test_checked_counts_at_seed_0(results):
    # criteria 2 and 3 sweep the 10,553 coordinate pairs at m = 2..5 alone
    assert [results[n].details["checked"] for n in (1, 2, 3)] == [18867, 10553, 10553]


def test_buildings_over_z_include_gl4_f3_and_gl5_f2(results):
    cases = results[4].details["cases"]
    assert [(c["m"], c["q"]) for c in cases] == [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]
    assert all(c["ok"] for c in cases)
    assert [c["homology"] for c in cases[3:]] == [
        [{"degree": 2, "rank": 3**6, "torsion": []}],
        [{"degree": 3, "rank": 2**10, "torsion": []}],
    ]


# sha256 of criterion 11's report without its runtime, pinned while the
# obstruction functions returned hand-written dicts; re-recorded when the
# key "verdict" of each entry of its "results" became "status", the only
# field that changed
SUPPORT_PIN = "497b91bc7356895fbc3b2ea53d83f4ce68dcdb0f566e710f101978ca4546aa0c"


def test_to_json_equals_the_deep_copy(results):
    for number, r in results.items():
        assert r.to_json() == report_json_reference(r), number


def test_support_report_pinned(results):
    rep = results[11].to_json()
    del rep["runtime_s"]
    assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() == SUPPORT_PIN


# ---------------------------------------------------------------------------
# The clique search behind the random flag complexes of criteria 8 and 9
# and behind SimplicialComplex.is_flag.


def random_graph(rng, n, p):
    adj = {a: set() for a in range(n)}
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < p:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def test_maximal_cliques_match_brute_force():
    rng = random.Random(0)
    for _ in range(200):
        adj = random_graph(rng, rng.randint(1, 10), rng.choice((0.0, 0.2, 0.5, 0.8, 1.0)))
        assert sorted(maximal_cliques(adj)) == brute_maximal_cliques(adj)


def test_random_flag_complex_facets_are_the_maximal_cliques():
    for seed in range(40):
        K = acceptance.random_flag_complex(random.Random(seed))
        n = len(K.vertices)
        adj = {a: set() for a in range(n)}
        for a, b in K.simplices(1):
            adj[a].add(b)
            adj[b].add(a)
        assert K.vertices == tuple(range(n)) and n <= 10
        assert sorted(sorted(f) for f in K.facets) == brute_maximal_cliques(adj)
