from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from smallmodel.ratlin import intersection, nullspace, rank, rref, sum_space

# Zeros are overweighted so that rank-deficient matrices come up often.
ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


def matrices(min_rows=0, max_rows=4, ncols=None):
    cols = st.just(ncols) if ncols is not None else st.integers(1, 5)
    return cols.flatmap(lambda n: st.lists(
        st.tuples(*[ENTRIES.map(Fraction)] * n), min_size=min_rows, max_size=max_rows,
    ))


def as_fractions(M):
    """Nonzero rows of a sympy matrix as tuples of Fractions."""
    rows = (tuple(Fraction(int(x.p), int(x.q)) for x in M.row(i)) for i in range(M.rows))
    return tuple(r for r in rows if any(r))


def in_row_space(basis, v):
    return rank(tuple(basis) + (v,)) == rank(basis)


@settings(max_examples=80, deadline=None)
@given(matrices(min_rows=1))
def test_rref_matches_sympy(rows):
    reduced, _ = sympy.Matrix(rows).rref()
    assert rref(rows) == as_fractions(reduced)


@settings(max_examples=80, deadline=None)
@given(matrices(min_rows=1))
def test_nullspace_matches_sympy(rows):
    n = len(rows[0])
    kernel = nullspace(rows, n)
    assert kernel == rref(kernel)
    for u in kernel:
        assert all(sum(a * b for a, b in zip(r, u)) == 0 for r in rows)
    theirs = sympy.Matrix(rows).nullspace()
    expected = rref(as_fractions(sympy.Matrix.hstack(*theirs).T)) if theirs else ()
    assert kernel == expected


def test_nullspace_of_nothing_is_the_identity():
    assert nullspace((), 3) == tuple(
        tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)
    )


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), matrices(ncols=n), matrices(ncols=n))))
def test_intersection_is_canonical_and_grassmann(case):
    m, a, b = case
    inter = intersection(a, b, m)
    assert inter == rref(inter)
    for v in inter:
        assert in_row_space(a, v) and in_row_space(b, v)
    assert len(inter) == rank(a) + rank(b) - len(sum_space(a, b))
