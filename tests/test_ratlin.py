from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from smallmodel.ratlin import intersection, nullspace, rank, rref, sparse_rank, sum_space

# Zeros are overweighted so that rank-deficient matrices come up often.
ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
# Numerators and denominators up to 10^20, so that clearing denominators
# and removing contents works on big integers.
BIG = st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**20))
# Small and big Fractions mixed with plain ints: rref must accept both.
MIXED = st.one_of(ENTRIES.map(Fraction), ENTRIES.filter(lambda x: isinstance(x, int)), BIG)


def matrices(min_rows=0, max_rows=4, ncols=None, entries=ENTRIES.map(Fraction)):
    cols = st.just(ncols) if ncols is not None else st.integers(1, 5)
    return cols.flatmap(lambda n: st.lists(
        st.tuples(*[entries] * n), min_size=min_rows, max_size=max_rows,
    ))


def as_fractions(M):
    """Nonzero rows of a sympy matrix as tuples of Fractions."""
    rows = (tuple(Fraction(int(x.p), int(x.q)) for x in M.row(i)) for i in range(M.rows))
    return tuple(r for r in rows if any(r))


def in_row_space(basis, v):
    return rank(tuple(basis) + (v,)) == rank(basis)


@settings(max_examples=150, deadline=None)
@given(matrices(min_rows=1, entries=MIXED))
def test_rref_matches_sympy(rows):
    reduced, _ = sympy.Matrix(rows).rref()
    ours = rref(rows)
    assert ours == as_fractions(reduced)
    # RationalFlag equality, hashing and to_json rely on canonical entries.
    assert all(type(x) is Fraction for row in ours for x in row)
    assert all(next(x for x in row if x) == Fraction(1) for row in ours)


SPARSE_NCOLS = 6


@st.composite
def sparse_systems(draw):
    """{col: Fraction} rows with explicit zeros and empty rows, plus rows
    r_i + t*r_j that depend on earlier ones (t = 0 repeats r_i)."""
    value = st.one_of(ENTRIES.map(Fraction), BIG)
    rows = draw(st.lists(
        st.dictionaries(st.integers(0, SPARSE_NCOLS - 1), value, max_size=4), max_size=8,
    ))
    if rows:
        for i, j, t in draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), value), max_size=3)):
            a, b = rows[i % len(rows)], rows[j % len(rows)]
            rows.append({c: a.get(c, 0) + t * b.get(c, 0) for c in a.keys() | b.keys()})
    return rows


@settings(max_examples=150, deadline=None)
@given(sparse_systems())
def test_sparse_rank_matches_sympy(rows):
    dense = [row.get(c, 0) for row in rows for c in range(SPARSE_NCOLS)]
    assert sparse_rank(rows) == sympy.Matrix(len(rows), SPARSE_NCOLS, dense).rank()


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
