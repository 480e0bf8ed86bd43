"""Fuzz the exit-code contract: malformed and wrongly shaped JSON fed to
every subcommand that reads ``--in`` must give exactly one JSON report,
no traceback, and the exit code that belongs to the reported status.

Integers, and the numerators and denominators of rationals, run to 34
digits: the b2 criterion's rational root search is polynomial in the bit
size, so large coefficients are a case to answer, not a slow path. Floats
are arbitrary: every reader of a number refuses them by name.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smallmodel import cli


TRIANGLE = {"vertices": [0, 1, 2, 3], "facets": [[0, 1, 2], [2, 3], [1, 3]]}
CERTIFICATE = {
    "boundary_dim": 3,
    "orbits": [{"label": "v", "dim": 0, "hdim": 2}, {"label": "e", "dim": 1, "hdim": "<=1"}],
    "pairs": [{"a": "v", "b": "v", "disjoint": True, "hdim": 1},
              {"a": "e", "b": "v", "disjoint": False},
              {"a": "e", "b": "e", "disjoint": True, "hdim": 0}],
    "complete": True,
}
FLAG_PAIR = {"e": {"m": 3, "subspaces": [[["1", "2", "0"]], [["1", "0", "0"], ["0", "1", "0"]]]},
             "f": {"m": 3, "subspaces": [[["0", "1", "-2/5"]]]}}
VALID = {
    "homology": TRIANGLE,
    "diagonal": TRIANGLE,
    "check-small": CERTIFICATE,
    "certificate": CERTIFICATE,
    "sc-obstruction": {"n": 4, "q": 1, "chi_zero": False,
                       "boundary_homology": [{"degree": 0, "rank": 1},
                                             {"degree": 1, "rank": 4, "torsion": [2]}]},
    "orbit-codim": FLAG_PAIR,
    "slm-check": FLAG_PAIR,
    "rank-one": {"k": 2, "m": 3, "top_value": "1/2"},
    "b2-criterion": {"c111": "1", "c112": "2", "c122": "1", "c222": "0"},
}


def _paths(doc, prefix=()):
    yield prefix
    children = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in children:
        yield from _paths(value, prefix + (key,))


KEYS = sorted({path[-1] for doc in VALID.values() for path in _paths(doc)
               if path and isinstance(path[-1], str)})


huge = st.integers(10**30, 10**33)  # 31 to 34 digits
integers = st.one_of(st.integers(-3, 8), st.integers(-999_999, 999_999),
                     huge, huge.map(int.__neg__))
strings = st.one_of(
    st.builds(lambda a, b, upper: ("<=" if upper else "") + f"{a}/{b}",
              st.one_of(st.integers(-9, 9), huge, huge.map(int.__neg__)),
              st.one_of(st.integers(0, 9), huge), st.booleans()),
    st.text(alphabet="0123456789/-<= ab", max_size=4),
)
leaves = st.one_of(st.none(), st.booleans(), integers,
                   st.floats(allow_nan=False, allow_infinity=False), strings)
json_values = st.recursive(
    leaves,
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(st.sampled_from(KEYS), kids, max_size=3)),
    max_leaves=8,
)
DELETE = object()


def _like(value):
    """Values of the same JSON kind as ``value``, which keep more of a
    mutated document well shaped."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return integers
    if isinstance(value, str):
        return strings
    return json_values


def _replace(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def file_contents(draw, command):
    kind = draw(st.sampled_from(["text", "json", "mutated", "mutated", "mutated"]))
    if kind == "text":
        return draw(st.text(max_size=20))
    if kind == "json":
        return json.dumps(draw(json_values))
    doc = VALID[command]
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        old = doc
        for key in path:
            old = old[key]
        options = [_like(old), json_values] + ([st.just(DELETE)] if path else [])
        doc = _replace(doc, path, draw(st.one_of(options)))
    return json.dumps(doc)


@pytest.mark.parametrize("command", sorted(VALID))
def test_every_input_gets_one_report_and_its_exit_code(tmp_path_factory, command):
    path = tmp_path_factory.mktemp("fuzz") / "in.json"

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(contents=file_contents(command))
    def check(contents):
        path.write_text(contents)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--json", command, "--in", str(path)])
        assert code in (0, 1, 2, 3)
        report = json.loads(out.getvalue())
        assert isinstance(report, dict) and set(report) >= {"command", "status", "details"}
        assert "Traceback" not in err.getvalue()
        assert code == cli.EXIT[report["status"]]

    check()
