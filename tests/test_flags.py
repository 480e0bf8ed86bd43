import hashlib
import importlib
import itertools
import json
import pkgutil
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    building_by_vector_sets,
    disjoint_positions,
    f0_subflag_by_images,
    forced_zero_rule_mismatches,
    forced_zeros_by_nullspace,
    gf_span,
    induced_flags_by_images,
    nil_stab_dim_by_rank,
    nilpotent_constraint_rows,
    pair_table_by_sum_space,
    random_disjoint_pair,
    random_flag_reference,
    stab_pair_dim_by_rank,
)
import smallmodel
from smallmodel import acceptance, flags
from smallmodel.complexes import homology
from smallmodel.flags import (
    FlagError,
    RationalFlag,
    complete_flag_count,
    coordinate_flag,
    f0_subflag,
    finite_building,
    forced_zeros,
    gf_subspaces,
    induced_flags,
    orbit_codim,
    prefix_chains,
    slm_inequality,
    split_dims,
    stab_dim,
    stab_pair_dim,
    subset_chains,
)
from smallmodel.ratlin import integer_row, rank, rref, sparse_rank


def test_flag_canonicalization_and_validation():
    f1 = RationalFlag.make(3, [[[2, 0, 0]]])
    f2 = RationalFlag.make(3, [[[1, 0, 0]]])
    assert f1 == f2
    with pytest.raises(FlagError):
        RationalFlag.make(3, [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]])  # not proper
    with pytest.raises(FlagError):
        RationalFlag.make(3, [[[1, 0, 0]], [[0, 1, 0]]])  # not nested
    with pytest.raises(FlagError):
        RationalFlag.make(3, [[[0, 0, 0]]])
    # every vector is checked, not only the first row of the basis: this
    # one used to be stored with a vector of length 4
    with pytest.raises(FlagError, match="length m"):
        RationalFlag.make(3, [[[1, 0, 0], [0, 1, 0, 7]]])


def test_json_round_trip_preserves_rationals():
    f = RationalFlag.make(3, [[[Fraction(1, 2), Fraction(1, 3), 0]]])
    g = RationalFlag.from_json(f.to_json())
    assert f == g


# sha256 of to_json over seeded random_disjoint_pair flags at m = 2..5,
# recorded when subspaces were stored as rref matrices of Fractions: the
# canonical integer bases must print exactly the same strings.
TO_JSON_SHA256 = "681ea202b9fe7a28842550ec110f13c73a3d9b0a02784f594b4c31b17728f813"


def test_to_json_prints_the_rational_rref():
    f = RationalFlag.make(3, [[[Fraction(1, 2), Fraction(1, 3), 0]]])
    assert f.subspaces == (((3, 2, 0),),)
    assert f.to_json() == {"m": 3, "subspaces": [[["1", "2/3", "0"]]]}
    h = hashlib.sha256()
    for m in (2, 3, 4, 5):
        rng = random.Random(m)
        for _ in range(20):
            e, f = random_disjoint_pair(m, rng)
            h.update(json.dumps([e.to_json(), f.to_json()], sort_keys=True).encode())
    assert h.hexdigest() == TO_JSON_SHA256


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10**6), st.data())
def test_random_flag_equals_make_on_the_same_prefixes(m, seed, data):
    # the draw builds its flag with no make: replay it and send the
    # prefixes through make's reduction and its proper / increasing /
    # nested checks
    dims = data.draw(st.lists(st.integers(1, m - 1), min_size=1, unique=True).map(sorted))
    rng, replay = random.Random(seed), random.Random(seed)
    f = random_flag_reference(m, dims, rng)
    while True:
        rows = [[Fraction(replay.randint(-5, 5), replay.randint(1, 5)) for _ in range(m)]
                for _ in range(m)]
        if rank([integer_row(r) for r in rows]) == m:
            break
    assert f == RationalFlag.make(m, [rows[:d] for d in dims])
    assert rng.getstate() == replay.getstate()


SMALL = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 5))
COEFF = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def flag_bases(draw):
    """(m, dims, rows): rows a basis of Q^m, the flag spanned by its prefixes."""
    m = draw(st.integers(2, 5))
    rows = draw(st.lists(st.lists(SMALL, min_size=m, max_size=m), min_size=m, max_size=m)
                .filter(lambda rs: rank([integer_row(r) for r in rs]) == m))
    dims = sorted(draw(st.sets(st.integers(1, m - 1), min_size=1)))
    return m, dims, rows


def _encode(draw, x):
    """x as a Fraction, a "p/q" string, or an int when it is one."""
    kind = draw(st.sampled_from(["fraction", "string", "int"]))
    if kind == "string":
        return f"{x.numerator}/{x.denominator}"
    if kind == "int" and x.denominator == 1:
        return int(x)
    return x


@st.composite
def respanned_flags(draw):
    """A flag given twice: by prefixes of a basis, and by other spanning
    sets of the same subspaces (an invertible triangular change of basis,
    redundant combinations, shuffled, entries in mixed encodings)."""
    m, dims, rows = draw(flag_bases())
    subs = []
    for d in dims:
        def combine(coeffs):
            return [sum(c * row[k] for c, row in zip(coeffs, rows[:d])) for k in range(m)]

        spanning = [combine([draw(COEFF.filter(bool)) if j == i else draw(COEFF) if j > i else 0
                             for j in range(d)]) for i in range(d)]
        spanning += [combine([draw(COEFF) for _ in range(d)])
                     for _ in range(draw(st.integers(0, 2)))]
        subs.append([[_encode(draw, x) for x in v] for v in draw(st.permutations(spanning))])
    return RationalFlag.make(m, [rows[:d] for d in dims]), RationalFlag.make(m, subs)


@settings(max_examples=100, deadline=None)
@given(respanned_flags())
def test_spanning_sets_of_one_flag_are_equal_and_hash_equal(flags):
    f, g = flags
    assert f == g
    assert hash(f) == hash(g)


@settings(max_examples=100, deadline=None)
@given(respanned_flags())
def test_json_round_trip(flags):
    f, g = flags
    assert RationalFlag.from_json(json.loads(json.dumps(g.to_json()))) == f


def coordinate_stab_dim_oracle(m, chain):
    """Combinatorial count: entry (i,j) survives unless some set separates
    j from i."""
    forbidden = 0
    for i in range(m):
        for j in range(m):
            if any(j in s and i not in s for s in chain):
                forbidden += 1
    return m * m - forbidden


def test_stab_dim_matches_zero_pattern_count():
    for m in (2, 3, 4):
        for chain in subset_chains(m):
            f = coordinate_flag(m, chain)
            assert stab_dim(f) == coordinate_stab_dim_oracle(m, chain), chain


def test_pair_dim_combinatorial_oracle():
    # every pair of coordinate chains, shared subsets included
    for m in (2, 3, 4):
        chains = subset_chains(m)
        for ce in chains:
            e = coordinate_flag(m, ce)
            for cf in chains:
                f = coordinate_flag(m, cf)
                expected = coordinate_stab_dim_oracle(m, list(ce) + list(cf))
                assert stab_pair_dim(e, f) == expected, (ce, cf)


def forced_zero_positions(w, dims):
    """The entries forced to zero by the members of dimensions dims under
    ``forced_zeros``, or None when w fixes one of them."""
    fixed, forcing = forced_zeros(w)
    bits = sum(1 << d for d in dims)
    return None if bits & fixed else {p for p, f in forcing.items() if f & bits}


def test_forced_zero_examples():
    # <e3> forces (0, 2) and (1, 2); <e2, e3> and <e2> force (0, 1) and (0, 2)
    assert forced_zero_positions((2, 1, 0), (1,)) == {(0, 2), (1, 2)}
    assert forced_zero_positions((1, 2, 0), (1, 2)) == {(0, 1), (0, 2)}
    assert forced_zero_positions((0, 2, 1), (1,)) is None  # fixes <e1>
    assert forced_zeros((0, 2, 1))[0] == 0b10


def test_forced_zeros_match_the_stabilizer_algebra():
    # every moved flag with no fixed member at m <= 4: the entries the rule
    # forces to zero are those that vanish on a basis of the stabilizer
    # algebra, got by exact linear algebra on its containment constraints
    checked = 0
    for m in (2, 3, 4):
        for w in itertools.permutations(range(m)):
            for r in range(1, m):
                for dims in itertools.combinations(range(1, m), r):
                    positions = forced_zero_positions(w, dims)
                    if positions is None:
                        continue
                    checked += 1
                    expected = forced_zeros_by_nullspace(m, [w[:d] for d in dims])
                    assert positions == expected, (w, dims)
                    assert len(positions) >= len(dims)
    assert checked == acceptance.criterion_forced_zeros(4).details["checked"]


def test_forced_zeros_match_the_set_reference():
    # every (w, dims) at m <= 6, fixed members included; CI runs m = 7
    total = 0
    for m in range(2, 7):
        checked, mismatches = forced_zero_rule_mismatches(m)
        assert mismatches == [], mismatches[:3]
        total += checked
    assert total == 18867


def test_split_dims_cross_check():
    f = coordinate_flag(4, [{0}, {0, 1, 2}])
    sd = split_dims(f)
    assert sd.graded_dims == (1, 2, 1)
    assert sd.dim_n == 1 * 2 + 1 * 1 + 2 * 1
    assert sd.dim_levi == 1 + 4 + 1
    assert sd.dim_stab == stab_dim(f)


def test_split_dims_cross_check_random():
    rng = random.Random(5)
    for m in (3, 4):
        for _ in range(5):
            dims = sorted(rng.sample(range(1, m), rng.randint(1, m - 1)))
            f = random_flag_reference(m, dims, rng)
            assert split_dims(f).dim_stab == stab_dim(f)


def test_orbit_codim_basic():
    e = coordinate_flag(2, [{0}])
    f = coordinate_flag(2, [{1}])
    assert orbit_codim(e, f) == 1


def test_induced_and_inert():
    m = 3
    e = coordinate_flag(m, [{0}])
    f = coordinate_flag(m, [{1}])
    pieces, lengths = induced_flags(e, f)
    # <e2> misses <e1> and cuts the 2-dimensional graded piece
    assert lengths == [0, 1]
    f0 = f0_subflag(e, f)
    assert f0.length == 0


def test_induced_and_inert_match_set_arithmetic():
    """On coordinate flags the image of T_j in the graded piece S_{i+1}/S_i
    spans the coordinates (S_{i+1} & T_j) | S_i."""
    for m in (2, 3, 4):
        chains = subset_chains(m)
        for ce in chains:
            e = coordinate_flag(m, ce)
            levels = [frozenset()] + list(ce) + [frozenset(range(m))]
            for cf in chains:
                if set(ce) & set(cf):
                    continue
                f = coordinate_flag(m, cf)
                images = [[(hi & t) | lo for t in cf] for lo, hi in zip(levels, levels[1:])]
                proper = [
                    sorted({w for w in row if len(lo) < len(w) < len(hi)}, key=len)
                    for lo, hi, row in zip(levels, levels[1:], images)
                ]
                pieces, lengths = induced_flags(e, f)
                assert lengths == [len(p) for p in proper], (ce, cf)
                assert pieces == [list(coordinate_flag(m, p).subspaces) for p in proper]
                inert = [
                    t for j, t in enumerate(cf)
                    if all(row[j] in (lo, hi)
                           for lo, hi, row in zip(levels, levels[1:], images))
                ]
                assert f0_subflag(e, f) == coordinate_flag(m, inert), (ce, cf)


def test_nilpotent_rows_cut_out_dim_n():
    rng = random.Random(3)
    cases = [coordinate_flag(m, c) for m in (2, 3, 4) for c in subset_chains(m)]
    for m in (3, 4, 5):
        for _ in range(6):
            dims = sorted(rng.sample(range(1, m), rng.randint(1, m - 1)))
            cases.append(random_flag_reference(m, dims, rng))
    for e in cases:
        dim_nil = e.m * e.m - sparse_rank(nilpotent_constraint_rows(e))
        assert dim_nil == split_dims(e).dim_n, e


@st.composite
def flag_pairs(draw):
    """(E, F) in Q^m, m <= 6, each spanned by prefixes of a list of small
    integer vectors, about one level in four dropped (so either may be
    empty). F's vectors are drawn partly from E's and from the coordinate
    vectors, so the pairs meet in special position and may share
    subspaces."""
    m = draw(st.integers(2, 6))
    vec = st.lists(st.integers(-2, 2), min_size=m, max_size=m)
    units = [[int(i == j) for j in range(m)] for i in range(m)]

    def flag(vectors):
        subs = []
        for k in range(1, len(vectors) + 1):
            basis = rref(vectors[:k])
            if len(subs[-1] if subs else ()) < len(basis) < m and draw(st.integers(0, 3)) < 3:
                subs.append(basis)
        return RationalFlag.make(m, subs)

    ev = draw(st.lists(st.one_of(vec, st.sampled_from(units)), min_size=1, max_size=m))
    fv = draw(st.lists(st.one_of(vec, st.sampled_from(units + ev)), min_size=1, max_size=m))
    if draw(st.booleans()):
        fv = ev[:draw(st.integers(0, len(ev)))] + fv
    return flag(ev), flag(fv)


@settings(max_examples=300, deadline=None)
@given(flag_pairs())
def test_pair_table_matches_constraint_systems(pair):
    e, f = pair
    assert stab_pair_dim(e, f) == stab_pair_dim_by_rank(e, f)
    assert orbit_codim(e, f) == stab_dim(e) - stab_pair_dim_by_rank(e, f)
    assert flags._position(e, f).nil_stab == nil_stab_dim_by_rank(e, f)
    assert induced_flags(e, f) == induced_flags_by_images(e, f)
    if e.disjoint_from(f):
        assert f0_subflag(e, f) == f0_subflag_by_images(e, f)
    else:
        with pytest.raises(FlagError, match="share a subspace"):
            f0_subflag(e, f)


def test_every_position_at_m_4_equals_the_constraint_systems():
    # the pair numbers are functions of the position, so one realising
    # coordinate pair per position checks them all
    sizes = []
    for m in range(2, 5):
        first = {}
        for e, f in acceptance._coordinate_pairs(m):
            first.setdefault(flags._position(e, f).table, (e, f))
        sizes.append(len(first))
        for e, f in first.values():
            assert stab_pair_dim(e, f) == stab_pair_dim_by_rank(e, f), (e, f)
            assert orbit_codim(e, f) == stab_dim(e) - stab_pair_dim_by_rank(e, f), (e, f)
            assert flags._position(e, f).nil_stab == nil_stab_dim_by_rank(e, f), (e, f)
            assert induced_flags(e, f) == induced_flags_by_images(e, f), (e, f)
            assert f0_subflag(e, f) == f0_subflag_by_images(e, f), (e, f)
    assert sizes == [1, 17, 189]


def test_a_pair_evaluates_its_position_once(fresh_memos):
    e, f = coordinate_flag(4, [{0}, {0, 1, 2}]), coordinate_flag(4, [{1}, {1, 3}])
    orbit_codim(e, f)
    slm_inequality(e, f)
    assert flags._position.cache_info().misses == 1
    assert e.padded is e.padded


def _memos():
    return (flags._sum_dim, flags._induced_image, flags._position,
            flags._coordinate_flag, flags.split_dims)


def _interleaved_pairs():
    """Coordinate pairs at m = 3, 4 with a seeded random pair after every
    other one, so that memo entries of both kinds sit side by side."""
    rng = random.Random("memo")
    coordinate = [pair for m in (3, 4) for pair in acceptance._coordinate_pairs(m)]
    for k, pair in enumerate(coordinate[::5]):
        yield pair
        if k % 2:
            yield random_disjoint_pair(rng.randint(2, 6), rng)


def test_memoized_pair_table_equals_the_unmemoized_oracle():
    pairs = list(_interleaved_pairs())
    for _ in range(2):
        for e, f in pairs:
            assert flags._position(e, f).table == pair_table_by_sum_space(e, f), (e, f)
            assert induced_flags(e, f) == induced_flags_by_images(e, f), (e, f)
        # coordinate subspaces recur, so both subspace memos were read
        assert flags._sum_dim.cache_info().hits and flags._induced_image.cache_info().hits
        for memo in _memos():
            memo.cache_clear()


@pytest.fixture
def fresh_memos():
    for memo in _memos():
        memo.cache_clear()
    yield
    for memo in _memos():
        memo.cache_clear()


def _unit_rows(m, chain):
    return [[[int(j == i) for j in range(m)] for i in sorted(s)] for s in chain]


def test_coordinate_flag_is_make_once_per_chain(fresh_memos):
    # m ascending, so a memo keyed without m would hand m = 3 the m = 2 flag
    for m in range(2, 6):
        for chain in subset_chains(m):
            expected = RationalFlag.make(m, _unit_rows(m, chain))
            first = coordinate_flag(m, [set(s) for s in chain])
            assert first == expected, (m, chain)
            for spelled in ([tuple(sorted(s, reverse=True)) for s in chain], list(chain)):
                assert coordinate_flag(m, spelled) is first, (m, chain)
    assert coordinate_flag(2, [{0}]).m == 2 and coordinate_flag(3, [{0}]).m == 3


def test_coordinate_flag_refuses_on_every_call(fresh_memos):
    # lru_cache stores no raise: a bad chain is refused again
    for _ in range(2):
        with pytest.raises(FlagError, match="strictly increase"):
            coordinate_flag(3, [{0, 1}, {0, 1}])
    with pytest.raises(FlagError, match="size guard"):
        coordinate_flag(flags.MAX_FLAG_M + 1, [{0}])
    assert flags._coordinate_flag.cache_info().currsize == 0


def _split_formula(flag):
    dims = (0,) + flag.dims() + (flag.m,)
    graded = tuple(b - a for a, b in zip(dims, dims[1:]))
    dim_n = sum(g * h for i, g in enumerate(graded) for h in graded[i + 1:])
    return graded, dim_n, sum(g * g for g in graded)


def test_split_dims_equals_the_formula_and_the_nullspace(fresh_memos):
    rng = random.Random("split")
    cases = [coordinate_flag(m, c) for m in range(2, 6) for c in subset_chains(m)]
    for m in range(2, 7):
        for _ in range(10):
            dims = sorted(rng.sample(range(1, m), rng.randint(1, m - 1)))
            cases.append(random_flag_reference(m, dims, rng))
    for flag in cases:
        graded, dim_n, dim_levi = _split_formula(flag)
        sd = split_dims(flag)
        assert (sd.graded_dims, sd.dim_n, sd.dim_levi) == (graded, dim_n, dim_levi), flag
        assert sd.dim_stab == dim_n + dim_levi == stab_dim(flag), flag
        assert split_dims(flag) is sd


def test_split_dims_refuses_a_wrong_self_check_on_every_call(fresh_memos, monkeypatch):
    stab = flags.stab_dim
    monkeypatch.setattr(flags, "stab_dim", lambda flag: stab(flag) + 1)
    flag = coordinate_flag(4, [{0}, {0, 1, 2}])
    for _ in range(2):
        with pytest.raises(FlagError, match="splitting dimensions disagree"):
            split_dims(flag)
    assert flags.split_dims.cache_info().currsize == 0


def test_every_memo_is_bounded():
    modules = [importlib.import_module(f"smallmodel.{info.name}")
               for info in pkgutil.iter_modules(smallmodel.__path__)]
    memos = [value for module in modules for value in vars(module).values()
             if hasattr(value, "cache_parameters")]
    assert set(_memos()) <= set(memos)
    assert all(memo.cache_parameters()["maxsize"] is not None for memo in memos)


PAIR_FUNCTIONS = [stab_pair_dim, orbit_codim, induced_flags, f0_subflag, slm_inequality]


@pytest.mark.parametrize("fn", PAIR_FUNCTIONS, ids=lambda fn: fn.__name__)
def test_pair_functions_refuse_different_ambient_dimensions(fn):
    e, f = coordinate_flag(2, [{0}]), coordinate_flag(3, [{1}])
    with pytest.raises(FlagError, match="ambient dimensions differ"):
        fn(e, f)
    with pytest.raises(FlagError, match="ambient dimensions differ"):
        fn(f, e)


# sha256 of (orbit_codim, slm_inequality(...).to_json()) per pair, recorded
# while both were computed from m*m-variable constraint systems: seeded
# random_disjoint_pair flags at m = 2..6, and every criterion-3 coordinate
# pair at m <= 4
PAIR_REPORT_PINS = {
    "random": "aba21def0bcc251cd726137a75cae35106cb60ddea78360b458ccda93820930a",
    "coordinate": "3d1199923dc03adf648af21164396747c0071e7a8e273beb5dca350a88f743aa",
}


def _pinned_pairs(kind):
    if kind == "coordinate":
        for m in range(2, 5):
            yield from acceptance._coordinate_pairs(m)
        return
    for m in range(2, 7):
        rng = random.Random(f"pin:{m}")
        for _ in range(40):
            yield random_disjoint_pair(m, rng)


@pytest.mark.parametrize("kind", list(PAIR_REPORT_PINS))
def test_pair_reports_pinned(kind):
    h = hashlib.sha256()
    for e, f in _pinned_pairs(kind):
        h.update(json.dumps([orbit_codim(e, f), slm_inequality(e, f).to_json()],
                            sort_keys=True).encode())
    assert h.hexdigest() == PAIR_REPORT_PINS[kind]


def test_slm_report_consistency():
    e = coordinate_flag(4, [{0}, {0, 1}])
    f = coordinate_flag(4, [{3}])
    rep = slm_inequality(e, f)
    d = rep.details
    assert d["codim_ok"] and d["inequality_ok"] and d["chain_ok"]
    assert d["dim_gk"] == 4 * 5 // 2 - d["codim"]
    assert d["lhs"] == d["dim_gk"] + (e.length - 1) + (f.length - 1)


def test_slm_rejects_shared_subspace():
    e = coordinate_flag(3, [{0}])
    with pytest.raises(FlagError):
        slm_inequality(e, e)


def test_slm_refuses_an_empty_flag_after_the_ambient_check():
    e, empty = coordinate_flag(3, [{0}]), RationalFlag.make(3, [])
    for pair in ((empty, e), (e, empty)):
        with pytest.raises(FlagError, match="both flags must be nonempty"):
            slm_inequality(*pair)
    with pytest.raises(FlagError, match="ambient dimensions differ"):
        slm_inequality(RationalFlag.make(2, []), e)


def test_chain_enumeration_counts():
    # chains of nonempty proper subsets of an m-set
    assert len(subset_chains(2)) == 2
    assert len(subset_chains(3)) == 12
    # prefix chains: one per nonempty subset of {1..m-1}
    assert len(prefix_chains(4)) == 7
    assert len(prefix_chains(5)) == 15


def test_coordinate_pairs_reach_every_disjoint_position():
    # every value criteria 2 and 3 read from a pair is a function of its
    # table, so this is what lets them sweep the coordinate pairs alone
    sizes = []
    for m in range(2, 6):
        reached = {flags._position(e, f).table for e, f in acceptance._coordinate_pairs(m)}
        assert reached == disjoint_positions(m), m
        sizes.append(len(reached))
    assert sizes == [1, 17, 189, 2193]


def test_random_pair_is_disjoint():
    rng = random.Random(11)
    for m in (3, 4):
        e, f = random_disjoint_pair(m, rng)
        assert e.disjoint_from(f)
        assert orbit_codim(e, f) >= f.length


def gaussian_binomial(m, d, q):
    num = den = 1
    for i in range(d):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_gf_subspace_counts():
    for m, q in ((3, 2), (3, 3), (4, 2)):
        for d in range(1, m):
            assert len(gf_subspaces(m, q, d)) == gaussian_binomial(m, d, q)


# sha256 of K.to_json() for finite_building(m, q), pinned when containment
# became the subset relation between spans
BUILDING_PINS = {
    (3, 2): "b34254f29df6948afdc3eb83597678b2ae837f91c10690accb6bef257a3db090",
    (3, 3): "0ea8481996ee0473445582671b7b76f40728bb1b85794389ba5ceb48825e1191",
    (4, 2): "4d6b517b694d88872f97044226a8c566823abd6e8f4852ca8d29e4f889c02ce4",
    (4, 3): "0c183c34fdca758c9281c0e0e560539344a248169bf15058991183174923280a",
    (5, 2): "ebf55f60ed8438be4091f989ae1e134ef9150a0afaca1de24dbe70e57958cfcd",
}


@pytest.mark.parametrize("m, q", list(BUILDING_PINS))
def test_building_pinned(m, q):
    K = finite_building(m, q, max_m=max(4, m))
    blob = json.dumps(K.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == BUILDING_PINS[(m, q)]


@pytest.mark.parametrize("m, q", [(4, 3), (5, 2)])
def test_span_masks_against_vector_sets(m, q):
    # bit sum(x_c q^(m-1-c)) of the mask is set exactly for the vectors x
    # of the span, for every proper nonzero subspace
    vectors = list(itertools.product(range(q), repeat=m))
    for d in range(1, m):
        for basis in gf_subspaces(m, q, d):
            mask = flags._span_mask(basis, q)
            assert {x for index, x in enumerate(vectors) if mask >> index & 1} == gf_span(basis, q)


@pytest.mark.parametrize("m, q", list(BUILDING_PINS))
def test_building_against_vector_set_containment(m, q):
    K = finite_building(m, q, max_m=max(4, m))
    L = building_by_vector_sets(m, q)
    assert K.vertices == L.vertices
    assert K.facets == L.facets
    assert K.dim == L.dim == m - 2
    assert all(K.simplices(d) == L.simplices(d) for d in range(m - 1))


def test_building_3_2():
    K = finite_building(3, 2)
    assert len(K.vertices) == 7 + 7
    assert len(K.facets) == complete_flag_count(3, 2) == 21
    h = homology(K, "Z", reduced=True)
    assert h.to_json() == [{"degree": 1, "rank": 8, "torsion": []}]


def test_building_5_2_over_z():
    # Solomon-Tits: the building of GL_5(F_2) is a wedge of 2^10 3-spheres
    K = finite_building(5, 2, max_m=5)
    assert len(K.facets) == complete_flag_count(5, 2) == 9765
    h = homology(K, "Z", reduced=True)
    assert h.to_json() == [{"degree": 3, "rank": 1024, "torsion": []}]


@pytest.mark.parametrize("m, q, p", [(4, 3, 3), (5, 2, 2), (5, 2, 3)])
def test_building_over_f_p(m, q, p):
    # Solomon-Tits over F_p: a wedge of q^(m(m-1)/2) spheres of dimension
    # m - 2, so unreduced homology adds only H_0 = F_p
    K = finite_building(m, q, max_m=max(4, m))
    top = {"degree": m - 2, "rank": q ** (m * (m - 1) // 2), "torsion": []}
    assert homology(K, p, reduced=True).to_json() == [top]
    assert homology(K, p, reduced=False).to_json() == [{"degree": 0, "rank": 1, "torsion": []}, top]


def test_building_size_guard():
    with pytest.raises(FlagError):
        finite_building(5, 2)
    with pytest.raises(FlagError):
        finite_building(3, 5)
