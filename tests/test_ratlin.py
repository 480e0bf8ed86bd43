from fractions import Fraction
from math import gcd

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smallmodel.ratlin import (
    integer_row, intersection, nullspace, rank, rref, sparse_rank, sum_space,
)

# Zeros are overweighted so that rank-deficient matrices come up often.
ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
# Numerators and denominators up to 10^20, so that clearing denominators
# and removing contents works on big integers.
BIG = st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**20))
# Small and big Fractions mixed with plain ints: integer_row must accept both.
MIXED = st.one_of(ENTRIES.map(Fraction), ENTRIES.filter(lambda x: isinstance(x, int)), BIG)


def matrices(min_rows=0, max_rows=4, ncols=None, entries=ENTRIES.map(Fraction)):
    """Rational matrices as lists of row tuples."""
    cols = st.just(ncols) if ncols is not None else st.integers(1, 5)
    return cols.flatmap(lambda n: st.lists(
        st.tuples(*[entries] * n), min_size=min_rows, max_size=max_rows,
    ))


def integer_rows(rows):
    return [integer_row(r) for r in rows]


def canonical(M):
    """Nonzero rows of a sympy matrix, each scaled to a primitive integer
    row with a positive pivot: the canonical integer basis of its rref."""
    out = []
    for i in range(M.rows):
        row = integer_row([Fraction(int(x.p), int(x.q)) for x in M.row(i)])
        if any(row):
            sign = 1 if next(x for x in row if x) > 0 else -1
            out.append(tuple(sign * x for x in row))
    return tuple(out)


def in_row_space(basis, v):
    return rank(tuple(basis) + (v,)) == rank(basis)


@settings(max_examples=150, deadline=None)
@given(matrices(min_rows=1, entries=MIXED),
       st.lists(st.integers(1, 7), min_size=4, max_size=4),
       st.lists(st.booleans(), min_size=4, max_size=4))
def test_rref_matches_sympy(rows, scales, flips):
    reduced, _ = sympy.Matrix(rows).rref()
    ours = rref(integer_rows(rows))
    assert ours == canonical(reduced)
    # RationalFlag equality, hashing and to_json rely on the canonical form:
    # every entry an int, every row primitive, every pivot positive.
    assert all(type(x) is int for row in ours for x in row)
    assert all(gcd(*row) == 1 for row in ours)
    assert all(next(x for x in row if x) > 0 for row in ours)
    # integer rows that are not primitive, or have a negative lead, give
    # the same basis
    scaled = [[(-s if flip else s) * x for x in row]
              for row, s, flip in zip(integer_rows(rows), scales, flips)]
    assert rref(scaled) == ours


@st.composite
def rank_cases(draw):
    """Integer rows with zero rows, repeated rows and rows that combine
    earlier ones mixed in, often more rows than columns."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.sampled_from([0, 0, 1, -1, 2, -3, 10**20]),
                                  min_size=n, max_size=n), max_size=8))
    for kind, i, j, t in draw(st.lists(st.tuples(st.sampled_from("zrc"), st.integers(0, 9),
                                                 st.integers(0, 9), st.integers(-3, 3)),
                                       max_size=4)):
        if kind == "z" or not rows:
            rows.append([0] * n)
        elif kind == "r":
            rows.append(list(rows[i % len(rows)]))
        else:
            a, b = rows[i % len(rows)], rows[j % len(rows)]
            rows.append([x + t * y for x, y in zip(a, b)])
    return n, draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(rank_cases())
@example((3, []))
@example((3, [[0, 0, 0]] * 3))
@example((2, [[1, 2], [2, 4], [1, 2], [0, 0], [-3, -6]]))
@example((2, [[1, 0], [0, 1], [1, 1], [2, 3]]))
def test_rank_is_the_rref_length_and_the_sympy_rank(case):
    n, rows = case
    expected = sympy.Matrix(len(rows), n, [x for row in rows for x in row]).rank()
    assert rank(rows) == len(rref(rows)) == expected


def test_integer_row_reads_fractions_ints_and_strings():
    assert integer_row([Fraction(1, 2), 3, "-2/3", "0"]) == [3, 18, -4, 0]
    assert integer_row([0, 0]) == [0, 0]
    assert integer_row(["4", 6]) == [2, 3]
    assert integer_row((4, -6)) == [2, -3]


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
    cleared = [dict(zip(row, integer_row(row.values()))) for row in rows]
    assert sparse_rank(cleared) == sympy.Matrix(len(rows), SPARSE_NCOLS, dense).rank()


@settings(max_examples=80, deadline=None)
@given(matrices(min_rows=1))
def test_nullspace_matches_sympy(rows):
    n = len(rows[0])
    kernel = nullspace(integer_rows(rows), n)
    assert kernel == rref(kernel)
    for u in kernel:
        assert all(sum(a * b for a, b in zip(r, u)) == 0 for r in rows)
    theirs = sympy.Matrix(rows).nullspace()
    expected = rref(canonical(sympy.Matrix.hstack(*theirs).T)) if theirs else ()
    assert kernel == expected


def test_nullspace_of_nothing_is_the_identity():
    assert nullspace((), 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), matrices(ncols=n), matrices(ncols=n))))
def test_intersection_is_canonical_and_grassmann(case):
    m, a, b = case
    a, b = integer_rows(a), integer_rows(b)
    inter = intersection(a, b, m)
    assert inter == rref(inter)
    for v in inter:
        assert in_row_space(a, v) and in_row_space(b, v)
    assert len(inter) == rank(a) + rank(b) - len(sum_space(a, b))
