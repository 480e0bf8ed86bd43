import random
import re

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_rank_mod_p
from smallmodel.normalform import (
    DEFAULT_BIT_BOUND,
    MILLER_RABIN_BOUND,
    PivotExplosion,
    _eliminate_units,
    _rank_and_minor,
    _Residues,
    _Sparse,
    invariant_factors,
    is_prime,
    rank_mod_p,
)


def cols_from_dense(rows):
    """Dense row-major matrix -> sparse column list."""
    if not rows:
        return []
    ncols = len(rows[0])
    return [
        {i: rows[i][j] for i in range(len(rows)) if rows[i][j]}
        for j in range(ncols)
    ]


def test_identity():
    assert invariant_factors(cols_from_dense([[1, 0], [0, 1]])) == [1, 1]


def test_diagonal_divisibility():
    # diag(2, 3) has Smith form diag(1, 6)
    assert invariant_factors(cols_from_dense([[2, 0], [0, 3]])) == [1, 6]


def test_zero_matrix():
    assert invariant_factors([{}, {}, {}]) == []


def test_known_torsion():
    # boundary matrix of the projective plane yields a factor 2
    m = [[2, 0], [0, 1]]
    assert invariant_factors(cols_from_dense(m)) == [1, 2]


def test_rank_mod_p_drops_on_divisor():
    cols = cols_from_dense([[2, 0], [0, 1]])
    assert rank_mod_p(cols, 2) == 1
    assert rank_mod_p(cols, 3) == 2


def test_pivot_explosion_is_loud():
    with pytest.raises(PivotExplosion):
        invariant_factors(cols_from_dense([[1 << 40, 3], [5, 7]]), bit_bound=16)


def test_a_wide_input_entry_is_named():
    # column 1 holds -9 (4 bits) in row 2 and 9 in row 3: the first of them
    # in column order is named, as an elimination step would name it
    cols = [{0: 1, 2: 7}, {0: 1, 2: -9, 3: 9}]
    with pytest.raises(PivotExplosion, match=re.escape("entry at (2,1) exceeds 3 bits")):
        invariant_factors(cols, bit_bound=3)
    with pytest.raises(PivotExplosion, match=re.escape("entry at (3,1) exceeds 3 bits")):
        invariant_factors(cols, bit_bound=3, cleared={2})
    # rows left out are never read
    assert invariant_factors(cols, bit_bound=3, cleared={2, 3}) == [1]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_sparse_is_filled_as_the_subtraction_would_fill_it(seed):
    # _Sparse copies its input straight into rows and columns; written
    # through _sub instead, one column at a time without the skipped rows,
    # it holds the same entries in the same order
    rng = random.Random(seed)
    dense = sparse_signs(seed)
    cols = cols_from_dense(dense)
    for col in cols:
        if col and rng.random() < 0.3:
            col[rng.choice(list(col))] = 0  # an explicit zero is dropped
    skip = frozenset(i for i in range(len(dense)) if rng.random() < 0.3)
    mat = _Sparse(cols, DEFAULT_BIT_BOUND, skip=skip)
    ref = _Sparse([], DEFAULT_BIT_BOUND)
    for j, col in enumerate(cols):
        ref._sub(ref.cols, ref.rows, j, {i: v for i, v in col.items() if i not in skip}, -1)
    assert_mirrored(mat)
    for got, want in ((mat.cols, ref.cols), (mat.rows, ref.rows)):
        assert list(got) == list(want)
        assert [list(line.items()) for line in got.values()] == \
            [list(line.items()) for line in want.values()]


def watch(monkeypatch, name):
    """Record the arguments of every ``_Sparse.<name>`` call that raises
    ``PivotExplosion``."""
    raised = []
    op = getattr(_Sparse, name)

    def watched(self, *args):
        try:
            op(self, *args)
        except PivotExplosion:
            raised.append(args)
            raise

    monkeypatch.setattr(_Sparse, name, watched)
    return raised


@pytest.mark.parametrize("dense, op, entry", [
    # unit phase: row 1 minus row 0 makes -14 at (1,1)
    ([[1, 7], [1, -7]], "row_op", "(1,1)"),
    # residual loop (no unit, det 36): the least entry -4 at (1,0) is the
    # pivot, row 0 minus row 1 gives [-2, -6], and column 1 plus twice
    # column 0 makes -10 at (0,1)
    ([[-6, 0], [-4, 6]], "col_op", "(0,1)"),
])
def test_bit_bound_trips_inside_an_elimination_step(monkeypatch, dense, op, entry):
    cols = cols_from_dense(dense)
    _Sparse(cols, 3)  # every entry fits at construction
    raised = watch(monkeypatch, op)
    with pytest.raises(PivotExplosion, match=re.escape(f"entry at {entry} exceeds 3 bits")):
        invariant_factors(cols, bit_bound=3)
    assert len(raised) == 1
    assert sorted(invariant_factors(cols)) == sympy_factors(dense)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_against_sympy_smith_form(seed, unitless):
    # with no entry +-1 there is no unit pivot, and the residual loop runs
    # from its first step
    rng = random.Random(seed)
    nr = rng.randint(1, 5)
    nc = rng.randint(1, 5)
    entries = [v for v in range(-6, 7) if not unitless or v not in (-1, 1)]
    dense = [[rng.choice(entries) for _ in range(nc)] for _ in range(nr)]
    mine = invariant_factors(cols_from_dense(dense), bit_bound=DEFAULT_BIT_BOUND)
    M = sympy.Matrix(dense)
    smith = smith_normal_form(M)
    theirs = sorted(abs(smith[i, i]) for i in range(min(nr, nc)) if smith[i, i] != 0)
    assert sorted(mine) == theirs
    assert len(mine) == M.rank()


def sympy_factors(dense):
    smith = smith_normal_form(sympy.Matrix(dense))
    return sorted(abs(smith[i, i]) for i in range(min(smith.shape)) if smith[i, i] != 0)


def unit_heavy(seed):
    """Sparse matrix up to 20x20, mostly +-1 entries, with a few entries
    of 2 or -3 and a few rows scaled by 2, 3 or 6 to plant torsion."""
    rng = random.Random(seed)
    nr = rng.randint(1, 20)
    nc = rng.randint(1, 20)
    density = rng.uniform(0.05, 0.4)
    dense = [
        [rng.choice((1, -1, 1, -1, 1, -1, 2, -3)) if rng.random() < density else 0
         for _ in range(nc)]
        for _ in range(nr)
    ]
    for i in rng.sample(range(nr), rng.randint(0, min(3, nr))):
        t = rng.choice((2, 3, 6))
        dense[i] = [t * x for x in dense[i]]
    return dense


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_unit_heavy_against_sympy_smith_form(seed):
    dense = unit_heavy(seed)
    cols = cols_from_dense(dense)
    mine = invariant_factors(cols)
    assert sorted(mine) == sympy_factors(dense)
    # rank over F_p counts the factors p does not divide
    for p in (2, 3):
        assert rank_mod_p(cols, p) == sum(1 for f in mine if f % p)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_unit_phase_leaves_no_unit(seed):
    dense = unit_heavy(seed)
    mat = _Sparse(cols_from_dense(dense), DEFAULT_BIT_BOUND)
    pivots = _eliminate_units(mat)
    assert all(v not in (1, -1) for row in mat.rows.values() for v in row.values())
    # the unit pivots and the residual's factors make up the whole Smith form
    residual = [mat.cols.get(j, {}) for j in range(len(dense[0]))]
    assert sorted([1] * pivots + invariant_factors(residual)) == sympy_factors(dense)


def sparse_signs(seed):
    """Sparse matrix up to 12x12, mostly zero, its entries mostly +-1."""
    rng = random.Random(seed)
    nr = rng.randint(1, 12)
    nc = rng.randint(1, 12)
    density = rng.uniform(0.05, 0.35)
    return [[rng.choice((1, -1, 1, -1, 1, -1, 2, -2, 3)) if rng.random() < density else 0
             for _ in range(nc)]
            for _ in range(nr)]


def assert_mirrored(mat):
    """``rows`` and ``cols`` hold the same nonzero entries, and no line is empty."""
    transposed = {}
    for i, row in mat.rows.items():
        assert row, f"empty row {i}"
        for j, v in row.items():
            assert v, f"zero stored at ({i},{j})"
            transposed.setdefault(j, {})[i] = v
    assert transposed == mat.cols
    assert all(mat.cols.values())


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_sparse_signs_against_sympy_smith_form(seed):
    dense = sparse_signs(seed)
    cols = cols_from_dense(dense)
    assert sorted(invariant_factors(cols)) == sympy_factors(dense)
    mat = _Sparse(cols, DEFAULT_BIT_BOUND)
    assert_mirrored(mat)
    pivots = _eliminate_units(mat)
    assert_mirrored(mat)
    residual = [mat.cols.get(j, {}) for j in range(len(dense[0]))]
    assert sorted([1] * pivots + invariant_factors(residual)) == sympy_factors(dense)
    # dropping the cross of an entry deletes its row and column from both indexes
    while mat.rows:
        i, j, _ = mat.min_entry()
        mat.drop_cross(i, j)
        assert i not in mat.rows and j not in mat.cols
        assert_mirrored(mat)


def shuffled_blocks(seed):
    """A block-diagonal matrix of 1 to 4 blocks up to 6x6 with entries in
    -6..6, its rows and columns shuffled."""
    rng = random.Random(seed)
    shapes = [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))]
    nc = sum(c for _, c in shapes)
    dense, c0 = [], 0
    for r, c in shapes:
        dense += [[rng.randint(-6, 6) if c0 <= j < c0 + c else 0 for j in range(nc)]
                  for _ in range(r)]
        c0 += c
    rng.shuffle(dense)
    perm = rng.sample(range(nc), nc)
    return [[row[j] for j in perm] for row in dense]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_rank_and_minor(seed, blocks):
    dense = shuffled_blocks(seed) if blocks else unit_heavy(seed)
    cols = cols_from_dense(dense)
    rank, det = _rank_and_minor(cols)
    theirs = sympy_factors(dense)
    assert rank == len(theirs)
    # any nonzero maximal minor is a multiple of the product of the factors
    product = 1
    for f in theirs:
        product *= f
    assert det > 0 and det % product == 0
    assert sorted(invariant_factors(cols)) == theirs


def test_residual_entries_stay_bounded():
    # without the modulus, the Euclidean loop on what the unit pivots leave
    # of this 14 x 13 matrix drives its entries past DEFAULT_BIT_BOUND
    dense = [
        [-1, -1, 0, 0, -1, 0, 0, 0, 1, 0, -1, 1, -1],
        [0, 0, -3, -1, -1, 0, 0, 0, 0, 1, 0, 1, -3],
        [0, 0, 0, 1, 0, 0, -1, -1, 2, -1, 1, 0, 0],
        [2, -3, 0, -3, 0, -1, -1, 1, 0, 0, 1, 0, 1],
        [-3, 2, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0, -1],
        [-3, -3, 0, 0, -1, 0, 0, 0, 0, 2, 0, 1, 0],
        [0, 0, 0, -1, 2, 0, -1, 1, 0, 1, 1, 0, 0],
        [-1, 0, 0, 0, 2, 0, -3, 0, 0, -1, 0, 2, 1],
        [-1, 0, 1, -1, 0, -1, 0, -1, 0, 0, 2, 0, 0],
        [2, 0, 0, 0, 0, -2, -2, 4, 0, 0, 0, 0, -2],
        [1, 1, 1, 0, 2, 0, 1, 1, 0, -1, 1, 0, 1],
        [0, 12, -6, 0, 0, 0, 0, -18, 0, 0, 0, 0, 6],
        [0, -1, 0, 1, 0, 0, -3, 1, 0, 2, 0, -3, 0],
        [0, -2, 0, 0, 0, 4, 0, 0, -6, 0, 0, 0, 0],
    ]
    assert invariant_factors(cols_from_dense(dense)) == [1] * 10 + [2, 2, 8]
    assert sympy_factors(dense) == [1] * 10 + [2, 2, 8]


def sparse_with_fill(rng):
    """A sparse matrix of 10 to 40 rows and columns, some of whose columns
    are sums of multiples of earlier ones: reducing those fills in entries
    and cancels others to zero."""
    nr = rng.randint(10, 40)
    nc = rng.randint(10, 40)
    density = rng.uniform(0.03, 0.2)
    cols = []
    for _ in range(nc):
        if cols and rng.random() < 0.4:
            col = {}
            for src in rng.sample(cols, min(len(cols), rng.randint(2, 4))):
                c = rng.randint(-6, 6)
                for i, v in src.items():
                    col[i] = col.get(i, 0) + c * v
        else:
            col = {i: rng.randint(-6, 6) for i in range(nr) if rng.random() < density}
        cols.append({i: v for i, v in col.items() if v})
    return [[col.get(i, 0) for col in cols] for i in range(nr)]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3, 5]), st.booleans())
def test_rank_mod_p_against_dense_elimination(seed, p, large):
    rng = random.Random(seed)
    if large:
        dense = sparse_with_fill(rng)
    else:
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        dense = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
    assert rank_mod_p(cols_from_dense(dense), p) == dense_rank_mod_p(dense, p)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3, 5]))
def test_rank_mod_p_on_plain_and_residue_columns(seed, p):
    # plain columns, some entries 0 mod p and some leads 1 mod p but not 1,
    # are read and never changed; the same matrix as residue columns, and
    # as columns with entries moved by wide multiples of p, has the same
    # rank and the same leads
    rng = random.Random(seed)
    dense = sparse_with_fill(rng)
    cols = cols_from_dense(dense)
    snapshot = [dict(col) for col in cols]
    wide = [{i: v + p * rng.randint(-10**30, 10**30) for i, v in col.items()} for col in cols]
    wide_snapshot = [dict(col) for col in wide]
    residues = [_Residues({i: v % p for i, v in col.items() if v % p}) for col in cols]
    expected = dense_rank_mod_p(dense, p)
    leads = []
    for columns in (cols, residues, wide, iter(cols)):
        lows = set()
        assert rank_mod_p(columns, p, lows=lows) == expected
        leads.append(lows)
    assert leads[0] == leads[1] == leads[2] == leads[3]
    assert cols == snapshot and wide == wide_snapshot


@pytest.mark.parametrize("p", [4, 1, -3, 0])
def test_rank_mod_p_refuses_a_modulus_that_is_not_prime(p):
    # none is a field: mod 4, 2 has no inverse and the reduction never ends;
    # 1 and -3 give wrong ranks and 0 divides by zero
    with pytest.raises(ValueError, match=f"got {p}$"):
        rank_mod_p([{0: 2}, {0: 1}], p)


def test_cleared_columns_and_lows():
    # columns 0 and 2 are equal, so clearing 2 keeps the rank
    cols = [{0: 1, 2: 1}, {1: 1}, {0: 1, 2: 1}]
    lows = set()
    assert rank_mod_p(cols, 3, cleared={2}, lows=lows) == 2
    assert lows == {2, 1}


def test_is_prime_against_trial_division():
    n = 10**5
    sieve = [False, False] + [True] * (n - 2)
    for d in range(2, 317):
        if sieve[d]:
            sieve[d * d :: d] = [False] * len(range(d * d, n, d))
    assert [k for k in range(-3, n) if is_prime(k)] == [k for k in range(n) if sieve[k]]


@pytest.mark.parametrize("n", [
    3825123056546413051,  # strong pseudoprime to the bases 2..23
    318665857834031151167461,  # strong pseudoprime to the bases 2..37
])
def test_is_prime_refuses_strong_pseudoprimes(n):
    assert not is_prime(n)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, MILLER_RABIN_BOUND - 1))
def test_is_prime_against_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


def test_is_prime_below_and_at_the_bound():
    assert is_prime(2**61 - 1)
    assert is_prime(sympy.prevprime(MILLER_RABIN_BOUND))
    assert not is_prime(MILLER_RABIN_BOUND + 1)  # even: decided by division
    for n in (MILLER_RABIN_BOUND, sympy.nextprime(MILLER_RABIN_BOUND)):
        with pytest.raises(ValueError, match=f"whether {n} is prime"):
            is_prime(n)
