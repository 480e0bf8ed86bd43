"""The four benchmark workloads: seeded inputs, the calls into smallmodel
that one item makes, and the known answer each output is checked against.

An item is one unit a user would ask smallmodel to check: one flag pair,
one complex, one (g, k) enumeration, one certificate or one triple form.
``Item.run`` holds only calls into smallmodel and is what the item latency
times; ``Item.check`` compares the output with an answer fixed before the
run and returns the canonical output (hashed against the answers recorded
from the seed code) and a list of problems.

Every call goes through a module attribute (``flags.orbit_codim``, never a
name bound at set-up time), so the traced run sees the wrapped functions.
Independent references used below: the zero pattern of coordinate flags,
building ranks q^(m(m-1)/2), Euler characteristics from f-vectors,
universal coefficients between Z and F_2, the Kunneth formula, OEIS
A005967, the 6g-8 sweep extreme, orbit and pair counts of certificates,
and a root finder for the b2 cubic that shares no code with cupforms.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Any, Callable

from smallmodel import complexes, cupforms, diagonal, flags, smallness, surfaces

WORKLOADS = ("flag-sweep", "flag-random", "homology", "curves-certs")


@dataclass
class Item:
    id: str
    seeded: bool
    run: Callable[[], Any]
    check: Callable[[Any], tuple]  # output -> (canonical output, [problem, ...])


def build(workload: str, seed: int) -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return {
        "flag-sweep": _flag_sweep,
        "flag-random": _flag_random,
        "homology": _homology,
        "curves-certs": _curves_certs,
    }[workload](seed)


def _interleave(heavy, light):
    """Spread the light items evenly among the heavy ones, so that the
    speed probes taken between items (see worker.py) sit close to every
    heavy item."""
    keyed = [((i + 1) / (len(heavy) + 1), item) for i, item in enumerate(heavy)]
    keyed += [((j + 0.5) / len(light), item) for j, item in enumerate(light)]
    return [item for _, item in sorted(keyed, key=lambda pair: pair[0])]


def _rng(seed, part):
    # string seeds hash through sha512, so inputs do not depend on PYTHONHASHSEED
    return random.Random(f"{seed}:{part}")


def _field(report, name):
    """Read a report field whether reports are dataclasses, mappings or
    carry their fields under ``details``."""
    if hasattr(report, name):
        return getattr(report, name)
    if isinstance(report, dict):
        return report[name] if name in report else report["details"][name]
    return report.details[name]


# ---------------------------------------------------------------------------
# flag-sweep and flag-random


SLM_FIELDS = ("m", "length_e", "length_f", "dim_n_quotient", "induced_lengths",
              "length_f0", "codim", "codim_bound", "codim_ok", "dim_gk", "lhs",
              "rhs", "inequality_ok", "chain_ok", "counting_identity")

# Exhaustive sweeps as in criteria 2 and 3, trimmed to fit one pass into a
# few seconds: m = 2, 3 use every ordered pair of disjoint chains, m = 4
# reduces the first chain to prefix representatives (the coordinate
# symmetry reduction the criteria apply at m = 5), and m = 5 keeps every
# SWEEP_M5_STRIDE-th pair of that reduced sweep.
SWEEP_M5_STRIDE = 16


def _sweep_pairs():
    for m in (2, 3, 4, 5):
        second = flags.subset_chains(m)
        first = flags.prefix_chains(m) if m >= 4 else second
        pairs = [(ce, cf) for ce in first for cf in second if not set(ce) & set(cf)]
        if m == 5:
            pairs = pairs[::SWEEP_M5_STRIDE]
        for idx, (ce, cf) in enumerate(pairs):
            yield f"m{m}:{idx}", m, ce, cf


def _free_positions(m, chains):
    """Matrix positions (i, j) that the stabilizer of every coordinate
    chain leaves free: no member S has j in S and i outside S."""
    members = [s for chain in chains for s in chain]
    return sum(
        1 for i in range(m) for j in range(m)
        if not any(j in s and i not in s for s in members)
    )


def _flag_problems(codim, rep, length_f, expected_codim=None):
    problems = []
    if expected_codim is not None and codim != expected_codim:
        problems.append(f"orbit_codim {codim} != zero-pattern count {expected_codim}")
    if codim < length_f:
        problems.append(f"orbit_codim {codim} < length(F) {length_f}")
    for name in ("codim_ok", "inequality_ok", "chain_ok"):
        if _field(rep, name) is not True:
            problems.append(f"slm {name} is not True")
    return problems


def _flag_canon(codim, rep):
    return [codim, [_field(rep, name) for name in SLM_FIELDS]]


def _flag_sweep(seed):
    items = []
    for item_id, m, ce, cf in _sweep_pairs():
        expected = _free_positions(m, [ce]) - _free_positions(m, [ce, cf])

        def run(m=m, ce=ce, cf=cf):
            e = flags.coordinate_flag(m, ce)
            f = flags.coordinate_flag(m, cf)
            return flags.orbit_codim(e, f), flags.slm_inequality(e, f)

        def check(out, cf=cf, expected=expected):
            codim, rep = out
            return _flag_canon(codim, rep), _flag_problems(codim, rep, len(cf), expected)

        items.append(Item(item_id, False, run, check))
    return items


def _rref(rows):
    """Reduced row echelon form over Q; the benchmark's own, used only to
    validate generated inputs."""
    work = [list(r) for r in rows]
    r = 0
    for c in range(len(work[0])):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    return tuple(tuple(row) for row in work[:r])


def _dim_sets(m):
    return [dims for r in range(1, m) for dims in itertools.combinations(range(1, m), r)]


def _random_basis(m, rng):
    """m x m rows of the criteria's entry heights (a/b, |a| <= 5, 1 <= b <= 5),
    redrawn until they span Q^m, so every prefix is a proper subspace."""
    while True:
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(m)]
                for _ in range(m)]
        if len(_rref(rows)) == m:
            return rows


def _flag_random(seed):
    # Every (dims(E), dims(F)) profile pair at m = 4 and every other one at
    # m = 5, the same ones each pass, so that seeds vary the entries and not
    # the mix of shapes.
    rng = _rng(seed, "flag-random")
    items = []
    for m in (4, 5):
        profiles = list(itertools.product(_dim_sets(m), repeat=2))
        for d1, d2 in profiles[:: 1 if m == 4 else 2]:
            while True:
                rows_e = _random_basis(m, rng)
                rows_f = _random_basis(m, rng)
                span_e = {_rref(rows_e[:d]) for d in d1}
                if not span_e & {_rref(rows_f[:d]) for d in d2}:
                    break
            subs_e = [rows_e[:d] for d in d1]
            subs_f = [rows_f[:d] for d in d2]

            def run(m=m, subs_e=subs_e, subs_f=subs_f):
                e = flags.RationalFlag.make(m, subs_e)
                f = flags.RationalFlag.make(m, subs_f)
                return e.dims(), f.dims(), flags.orbit_codim(e, f), flags.slm_inequality(e, f)

            def check(out, d1=d1, d2=d2):
                dims_e, dims_f, codim, rep = out
                problems = _flag_problems(codim, rep, len(d2))
                if (tuple(dims_e), tuple(dims_f)) != (d1, d2):
                    problems.append(f"flag dims {dims_e}, {dims_f} != {d1}, {d2}")
                return _flag_canon(codim, rep), problems

            items.append(Item(f"m{m}:{d1}:{d2}", True, run, check))
    return items


# ---------------------------------------------------------------------------
# homology


BUILDINGS = ((4, 2, ("Z", 2, 3)), (4, 3, ("Z", 2, 3)), (5, 2, (2, 3)))
# Seeded complexes are each the most typical f-vector of several random
# graphs grown to a fixed size, so that a seed changes the complexes but
# hardly their cost. The item groups are sized so that the latency tail
# percentile falls inside the diagonal checks and the median inside the
# Kunneth pairs, each a group of like items.
CLIQUE_CELLS = (300, 600, 1100, 2000)   # on 19 + cells / 220 vertices
DIAGONAL_CHECKS = 12                    # 40 cells on 10 vertices; the product has 1600 cells
KUNNETH_PAIRS = 40                      # both factors 16 cells on 6 vertices


def _clique_complex(rng, cells, n, draws=7):
    """A seeded clique complex on n vertices with about ``cells`` simplices:
    of ``draws`` random graphs grown to that size, the one whose f-vector
    is most typical of them (least total distance to the others), since
    homology cost follows the f-vector. Returns facets, f-vector, faces."""
    drawn = [_grow_clique_complex(rng, cells, n) for _ in range(draws)]

    def distance(a, b):
        return sum(abs(x - y) for x, y in itertools.zip_longest(a[1], b[1], fillvalue=0))

    return min(drawn, key=lambda c: sum(distance(c, other) for other in drawn))


def _grow_clique_complex(rng, cells, n):
    """Add random edges on n vertices until the clique complex has at least
    ``cells`` simplices."""
    adj = {v: set() for v in range(n)}
    edges = list(itertools.combinations(range(n), 2))
    rng.shuffle(edges)
    total = n
    for a, b in edges:
        if total >= cells:
            break
        # the new simplices are {a, b} joined with each clique of N(a) & N(b)
        total += _count_cliques(adj, adj[a] & adj[b])
        adj[a].add(b)
        adj[b].add(a)
    facets = []
    _maximal_cliques(adj, set(), set(adj), set(), facets)
    faces = {frozenset(sub) for f in facets for k in range(1, len(f) + 1)
             for sub in itertools.combinations(f, k)}
    fvec = [0] * max(len(s) for s in faces)
    for s in faces:
        fvec[len(s) - 1] += 1
    return facets, fvec, faces


def _count_cliques(adj, candidates):
    """Number of cliques, the empty one included, inside ``candidates``."""
    total = 1
    cand = sorted(candidates)
    for i, v in enumerate(cand):
        total += _count_cliques(adj, {w for w in cand[i + 1:] if w in adj[v]})
    return total


def _maximal_cliques(adj, clique, cand, done, out):
    """Bron-Kerbosch with pivoting."""
    if not cand and not done:
        out.append(sorted(clique))
        return
    pivot = max(cand | done, key=lambda u: len(adj[u] & cand))
    for v in sorted(cand - adj[pivot]):
        _maximal_cliques(adj, clique | {v}, cand & adj[v], done & adj[v], out)
        cand = cand - {v}
        done = done | {v}


def _homology_table(h):
    return [[d, h.rank(d), list(h.torsion(d))] for d in h.nonzero_degrees()]


def _building_item(m, q, rings):
    rank = q ** (m * (m - 1) // 2)
    facets = 1
    for k in range(2, m + 1):
        facets *= (q**k - 1) // (q - 1)

    def run():
        K = flags.finite_building(m, q, max_m=max(4, m))
        return len(K.facets), [complexes.homology(K, ring) for ring in rings]

    def check(out):
        nfacets, tables = out
        problems = [] if nfacets == facets else [f"{nfacets} facets, expected {facets}"]
        for ring, h in zip(rings, tables):
            if h.nonzero_degrees() != [m - 2] or h.rank(m - 2) != rank or h.torsion(m - 2):
                problems.append(f"over {ring}: {_homology_table(h)}, expected rank "
                                f"{rank} in degree {m - 2} only")
        return [nfacets, [_homology_table(h) for h in tables]], problems

    return Item(f"building:{m}:{q}", False, run, check)


def _clique_item(item_id, facets, fvec, n):
    chi = sum((-1) ** d * f for d, f in enumerate(fvec)) - 1

    def run():
        K = complexes.SimplicialComplex(range(n), facets)
        return K.f_vector(), complexes.homology(K, "Z"), complexes.homology(K, 2)

    def check(out):
        got_f, hz, h2 = out
        problems = []
        if list(got_f) != fvec:
            problems.append(f"f-vector {got_f} != {fvec}")
        for ring, h in (("Z", hz), (2, h2)):
            if h.euler_characteristic() != chi:
                problems.append(f"reduced chi over {ring} is {h.euler_characteristic()}, "
                                f"f-vector gives {chi}")
        # universal coefficients: dim H_d(F_2) = b_d + t_d(2) + t_{d-1}(2)
        even = lambda d: sum(1 for t in hz.torsion(d) if t % 2 == 0)
        for d in range(-1, len(fvec)):
            if h2.rank(d) != hz.rank(d) + even(d) + even(d - 1):
                problems.append(f"F_2 and Z homology disagree in degree {d}")
        return [_homology_table(hz), _homology_table(h2)], problems

    return Item(item_id, True, run, check)


def _diagonal_item(item_id, facets, faces, n):
    diagonal_cells = sum(1 for s in faces for t in faces if s | t in faces)

    def run():
        K = complexes.SimplicialComplex(range(n), facets)
        return diagonal.check_retraction(K, "Z"), diagonal.decomposition_check(K)

    def check(out):
        ret, dec = out
        problems = [f"{name} check failed" for name, rep in (("retraction", ret),
                    ("decomposition", dec)) if _field(rep, "passed") is not True]
        table = _field(dec, "details")["bidegree_counts"]
        counted = sum(lhs for lhs, _ in table.values())
        if counted != diagonal_cells:
            problems.append(f"{counted} diagonal cells, expected {diagonal_cells}")
        return [_field(ret, "passed"), _field(dec, "passed"), table], problems

    return Item(item_id, True, run, check)


def _kunneth_item(item_id, fa, fb):
    def run():
        out = []
        for p in (2, 3):
            ca = complexes.chain_complex(complexes.SimplicialComplex(range(6), fa), p)
            cb = complexes.chain_complex(complexes.SimplicialComplex(range(6), fb), p)
            ca.check_dd_zero()
            cb.check_dd_zero()
            prod = complexes.tensor_total(ca, cb)
            out.append((prod.homology(), ca.homology(), cb.homology()))
        return out

    def check(out):
        problems, canon = [], []
        for p, (hp, ha, hb) in zip((2, 3), out):
            top = max(map(len, fa)) + max(map(len, fb)) - 2
            ranks = [hp.rank(n) for n in range(top + 1)]
            expected = [sum(ha.rank(i) * hb.rank(n - i) for i in range(n + 1))
                        for n in range(top + 1)]
            if ranks != expected:
                problems.append(f"over F_{p}: product ranks {ranks}, Kunneth gives {expected}")
            canon.append(ranks)
        return canon, problems

    return Item(item_id, True, run, check)


def _homology(seed):
    items = [_building_item(m, q, rings) for m, q, rings in BUILDINGS]
    rng = _rng(seed, "clique")
    for cells in CLIQUE_CELLS:
        n = 19 + round(cells / 220)
        facets, fvec, _ = _clique_complex(rng, cells, n)
        items.append(_clique_item(f"clique:{cells}", facets, fvec, n))
    rng = _rng(seed, "diagonal")
    for idx in range(DIAGONAL_CHECKS):
        facets, _, faces = _clique_complex(rng, 40, 10)
        items.append(_diagonal_item(f"diagonal:{idx}", facets, faces, 10))
    rng = _rng(seed, "kunneth")
    light = []
    for idx in range(KUNNETH_PAIRS):
        pair = [_clique_complex(rng, 16, 6)[0] for _ in range(2)]
        light.append(_kunneth_item(f"kunneth:{idx}", *pair))
    return _interleave(items, light)


# ---------------------------------------------------------------------------
# curves-certs


PANTS_COUNTS = {2: 2, 3: 5, 4: 17, 5: 71}  # OEIS A005967
GENUS3_COUNTS = (2, 5, 9, 12, 8, 5)
# one orbit per multicurve type: genus 2 has 2 + 2 + 2 types
CERTIFICATE_ORBITS = {2: 6, 3: sum(GENUS3_COUNTS)}
SWEEP_GENUS = 4
# join models d = 2..JOIN_MAX; d = 8 would add about 1.4 s to a pass, d = 9 about 6 s
JOIN_MAX = 7
B2_DIGITS = range(1, 13)


def _multicurve_item(g, k):
    def run():
        types = surfaces.enumerate_multicurves(g, k)
        return [(tuple(t.piece_genera), len(t.curve_edges), surfaces.multicurve_stab_hdim(t))
                for t in types]

    def check(out):
        problems = []
        hdims = sorted(h for _, _, h in out)
        if k == 3 * g - 3:
            if len(out) != PANTS_COUNTS[g]:
                problems.append(f"{len(out)} pants types, OEIS A005967 gives {PANTS_COUNTS[g]}")
            if set(hdims) != {3 * g - 3}:
                problems.append(f"pants hdims {sorted(set(hdims))} != {{{3 * g - 3}}}")
        if g == 3 and len(out) != GENUS3_COUNTS[k - 1]:
            problems.append(f"{len(out)} types, expected {GENUS3_COUNTS[k - 1]}")
        if any(curves != k for _, curves, _ in out):
            problems.append("a type has the wrong number of curves")
        return [len(out), hdims, sorted(sorted(genera) for genera, _, _ in out)], problems

    return Item(f"multicurves:{g}:{k}", False, run, check)


def _sweep_item(g):
    def run():
        return surfaces.lemma_smallstabilizers_sweep(g)

    def check(rep):
        problems = []
        if rep["passed"] is not True:
            problems.append("sweep did not pass")
        if rep["max_exact_lhs"] != 6 * g - 8:
            problems.append(f"max exact lhs {rep['max_exact_lhs']} != 6g-8 = {6 * g - 8}")
        canon = [rep["passed"], rep["max_exact_lhs"], rep["max_exact_witness"],
                 sorted(rep["max_hdim_by_size"].items()),
                 len(rep["exact_failures"]), len(rep["bound_failures"])]
        return canon, problems

    return Item(f"sweep:{g}", False, run, check)


def _certificate_item(item_id, make, orbits):
    def run():
        cert = make()
        return cert, smallness.check_small(cert), smallness.vanishing_certificate(cert)

    def check(out):
        cert, rep, van = out
        problems = []
        if _field(rep, "status") != smallness.VERIFIED:
            problems.append(f"check_small: {_field(rep, 'status')}")
        if _field(van, "status") != smallness.VERIFIED:
            problems.append(f"vanishing_certificate: {_field(van, 'status')}")
        if not _field(rep, "equality_orbits"):
            problems.append("no orbit attains equality")
        n = len(cert.orbits)
        if n != orbits or len(cert.pairs) != n * (n + 1) // 2:
            problems.append(f"{n} orbits and {len(cert.pairs)} pairs, expected "
                            f"{orbits} and {orbits * (orbits + 1) // 2}")
        canon = [_field(rep, name) for name in ("status", "min_slack", "max_slack",
                                                "equality_orbits")]
        canon += [_field(van, "status"), _field(van, "certified_total_degree"), n]
        return canon, problems

    return Item(item_id, False, run, check)


def _integer_roots(a, b, c):
    """Integer roots of u^3 + a u^2 + b u + c by bisection on the pieces
    where the cubic is monotone; no divisor enumeration."""

    def cubic(u):
        return ((u + a) * u + b) * u + c

    bound = 1 + max(abs(a), abs(b), abs(c))
    cuts = {-bound, bound}
    disc = a * a - 3 * b  # the critical points are (-a +- sqrt(disc)) / 3
    if disc >= 0:
        r = isqrt(disc)
        for s in (-r - 1, -r, r, r + 1):
            for x in ((-a + s) // 3, (-a + s) // 3 + 1):
                cuts.add(min(max(x, -bound), bound))
    cuts = sorted(cuts)
    roots = set()
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo <= 4:  # may hold a critical point: test every integer
            roots.update(u for u in range(lo, hi + 1) if cubic(u) == 0)
            continue
        # monotone on [lo, hi]: find the first u whose sign matches cubic(hi)
        rising = cubic(hi) > cubic(lo)
        a_, b_ = lo, hi
        while a_ < b_:
            mid = (a_ + b_) // 2
            if (cubic(mid) >= 0) == rising:
                b_ = mid
            else:
                a_ = mid + 1
        roots.update(u for u in (a_ - 1, a_, a_ + 1) if lo <= u <= hi and cubic(u) == 0)
    return sorted(roots)


def _b2_expected(c112, c122, c222):
    """SATISFIABLE or OBSTRUCTED for the form (1, c112, c122, c222), from
    the definition: beta = e1 + t e2 with 1 + 3 c112 t + 3 c122 t^2 +
    c222 t^3 = 0, or beta = e2 when c222 = 0. With integer coefficients,
    t = 1/u for an integer root u of u^3 + 3 c112 u^2 + 3 c122 u + c222,
    and u = 0 stands for beta = e2."""
    c = {(0, 0, 0): 1, (0, 0, 1): c112, (0, 1, 1): c122, (1, 1, 1): c222}

    def triple(u, v, w):
        return sum(c[tuple(sorted((i, j, k)))] * u[i] * v[j] * w[k]
                   for i in (0, 1) for j in (0, 1) for k in (0, 1))

    omega = (1, 0)
    for u in _integer_roots(3 * c112, 3 * c122, c222):
        beta = (Fraction(0), Fraction(1)) if u == 0 else (Fraction(1), Fraction(1, u))
        w2b, wb2 = triple(omega, omega, beta), triple(omega, beta, beta)
        if w2b == 0 or wb2 == 0:
            continue
        x, y = wb2 / w2b, w2b / wb2 - 1 / w2b
        disc = 1 - 4 * x * y
        if disc < 0:
            continue
        num, den = disc.numerator, disc.denominator
        if isqrt(num) ** 2 != num or isqrt(den) ** 2 != den:
            continue
        root = Fraction(isqrt(num), isqrt(den))
        if any((1 + sign * root) / (2 * x) != 0 for sign in (1, -1)):
            return cupforms.SATISFIABLE
    return cupforms.OBSTRUCTED


def _b2_item(item_id, coeffs, seeded):
    expected = _b2_expected(*coeffs)

    def run():
        return cupforms.compression_criterion_b2(cupforms.TripleForm(1, *coeffs))

    def check(v):
        status, witness = _field(v, "status"), _field(v, "witness")
        problems = [] if status == expected else [f"{status}, expected {expected}"]
        if status == cupforms.SATISFIABLE:
            bad = cupforms.verify_witness(cupforms.TripleForm(1, *coeffs), witness) \
                if witness is not None else ["no witness"]
            problems += [f"witness: {b}" for b in bad]
        canon = [status, None if witness is None else
                 [str(x) for x in (*witness.beta, witness.s, witness.x, witness.y)]]
        return canon, problems

    return Item(item_id, seeded, run, check)


def _digits(rng, d):
    return rng.choice((-1, 1)) * rng.randrange(10 ** (d - 1), 10**d)


def _magnitude(rng, d):
    """A d-digit integer in [5, 6) * 10^(d-1) with a random sign: the
    divisor search of the seed code costs about sqrt(|c222|), so a fixed
    leading digit keeps its cost from swinging with the seed."""
    return rng.choice((-1, 1)) * (5 * 10 ** (d - 1) + rng.randrange(10 ** (d - 1)))


def _planted_form(rng, d):
    """(c112, c122, c222) with |c222| near a d-digit target that the b2
    criterion satisfies at beta = e1 + e2/u. With a = u + c112, the
    discriminant 1 - 4xy at that beta is r^2 when
    c122 = a^2 (r^2 - 1) / 4 + c112^2; an odd r keeps c122 integral, and
    c222 is then fixed by making u a root of the reversed cubic."""
    k = 1 if d < 9 else 2
    while True:
        u, c112 = _digits(rng, k), _digits(rng, k)
        a = u + c112
        if a:
            break
    r = isqrt(4 * abs(_magnitude(rng, d)) // (3 * abs(u) * a * a) + 1) | 1
    c122 = a * a * (r * r - 1) // 4 + c112 * c112
    return c112, c122, -(u**3 + 3 * c112 * u * u + 3 * c122 * u)


def _curves_certs(seed):
    items = [_multicurve_item(g, k) for g in (2, 3, 4, 5) for k in range(1, 3 * g - 2)]
    items.append(_sweep_item(SWEEP_GENUS))
    for g in CERTIFICATE_ORBITS:
        items.append(_certificate_item(f"certificate:{g}",
                                       lambda g=g: surfaces.curve_complex_certificate(g),
                                       CERTIFICATE_ORBITS[g]))
    for d in range(2, JOIN_MAX + 1):
        items.append(_certificate_item(f"join:{d}",
                                       lambda d=d: smallness.generate_join_model(d),
                                       2**d - 1))
    # criterion 10's fixed forms, then per digit count one satisfiable form
    # with a planted witness and one form with random coefficients
    forms = [_b2_item("b2:1110", (1, 1, 0), False), _b2_item("b2:1210", (2, 1, 0), False)]
    rng = _rng(seed, "b2")
    for d in B2_DIGITS:
        forms.append(_b2_item(f"b2:planted:{d}", _planted_form(rng, d), True))
        forms.append(_b2_item(f"b2:random:{d}", (_digits(rng, d), _digits(rng, d),
                                                  _magnitude(rng, d)), True))
    return _interleave(items, forms)
