"""The full verification battery, shared by the test suite and the CLI.

Each criterion is a function returning a Report whose details carry its
number and name; run_all executes the battery in order, times each
criterion and yields its report as it ends. Random sweeps are seeded and
deterministic.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from . import cupforms, diagonal, flags, smallness, surfaces
from .complexes import SimplicialComplex, chain_complex, homology, maximal_cliques, tensor_total
from .report import NOT_OBSTRUCTED, OBSTRUCTED, SATISFIABLE, VERIFIED, VIOLATION, Report


def _criterion(number: int, name: str, ok: bool, details: dict) -> Report:
    return Report(VERIFIED if ok else VIOLATION, {"number": number, "name": name, **details})


def line(report: Report) -> str:
    d = report.details
    tag = "PASS" if report.passed else "FAIL"
    return f"[{tag}] criterion {d['number']:2d} {d['name']} ({d['runtime_s']:.1f}s)"


# Size guards of the exhaustive sweeps, as the largest m each accepts. The
# pair sweeps have 121,419 coordinate pairs at m = 6 but about 2.6 million
# at m = 7; lemma-upper takes about 0.5 s at m = 7 and, unguarded, about
# 5 s at m = 8 (4,576,159 checked), so its guard is cautious, not tight.
MAX_FORCED_ZEROS_M = 7
MAX_PAIR_SWEEP_M = 6

# The seeded draws of criteria 8, 9 and 10: random flag complexes, pairs of
# them, and rationals whose squares are tested.
DIAGONAL_COMPLEXES = 50
CHAINCORE_PAIRS = 20
SQUARE_CASES = 10000


def _check_sweep(max_m: int, bound: int, name: str, random_per_m: int = 0) -> None:
    """Refuse a sweep that would check nothing or outlast its size guard."""
    if max_m < 2:
        raise flags.FlagError(f"a sweep needs m >= 2, got m = {max_m}")
    if max_m > bound:
        raise flags.FlagError(f"size guard: m = {max_m} exceeds {name} = {bound}")
    if random_per_m < 0:
        raise flags.FlagError(f"random pairs per m must be >= 0, got {random_per_m}")


# ---------------------------------------------------------------------------
# 1. forced zeros of permuted coordinate flags


def criterion_forced_zeros(max_m: int = 6) -> Report:
    _check_sweep(max_m, MAX_FORCED_ZEROS_M, "MAX_FORCED_ZEROS_M")
    checked = 0
    violations = []
    for m in range(2, max_m + 1):
        dim_sets = [(dims, sum(1 << d for d in dims))
                    for r in range(1, m) for dims in itertools.combinations(range(1, m), r)]
        for w in itertools.permutations(range(m)):
            fixed, forcing = flags.forced_zeros(w)
            for dims, bits in dim_sets:
                if bits & fixed:
                    continue
                checked += 1
                count = sum(1 for f in forcing.values() if f & bits)
                if count < len(dims):
                    violations.append({"m": m, "dims": list(dims), "w": list(w),
                                       "count": count})
    return _criterion(1, "forced zeros >= flag length, exhaustive",
                      not violations and checked > 0,
                      {"checked": checked, "violations": violations})


# ---------------------------------------------------------------------------
# 2 and 3. Flag-pair sweeps over exact rationals.
#
# The exhaustive coordinate sweeps quantify over ordered pairs of disjoint
# coordinate-flag chains. Stabilizer and orbit dimensions are invariant
# under a simultaneous permutation of the coordinates, so for m = 5 the
# first chain runs over prefix-chain representatives of the permutation
# classes while the second runs over all chains; for m <= 4 the full
# product is used unreduced.


def _coordinate_pairs(m: int):
    all_chains = flags.subset_chains(m)
    first = flags.prefix_chains(m) if m >= 5 else all_chains
    flag_of = {c: flags.coordinate_flag(m, c) for c in all_chains}
    for ce in first:
        se = set(ce)
        for cf in all_chains:
            if se & set(cf):
                continue
            yield flag_of[ce], flag_of[cf]


def _pair_sweep(max_m: int, random_per_m: int, seed: int, tag: str):
    """(m, kind, e, f) for the coordinate pairs at each m = 2..max_m, then
    ``random_per_m`` seeded random disjoint pairs at that m."""
    _check_sweep(max_m, MAX_PAIR_SWEEP_M, "MAX_PAIR_SWEEP_M", random_per_m)
    for m in range(2, max_m + 1):
        for e, f in _coordinate_pairs(m):
            yield m, "coordinate", e, f
        rng = random.Random((seed, tag, m).__repr__())
        for _ in range(random_per_m):
            yield (m, "random", *flags.random_disjoint_pair(m, rng))


def criterion_orbit_codim(max_m: int = 5, random_per_m: int = 1000,
                          seed: int = 0) -> Report:
    checked = 0
    violations = []
    for m, kind, e, f in _pair_sweep(max_m, random_per_m, seed, "orbit"):
        checked += 1
        codim = flags.orbit_codim(e, f)
        if codim < f.length:
            violations.append({"m": m, "kind": kind, "e": e.to_json(), "f": f.to_json(),
                               "codim": codim})
    return _criterion(2, "orbit codimension >= flag length",
                      not violations and checked > 0,
                      {"checked": checked, "violations": violations,
                       "note": "m=5 exhaustive sweep reduced by coordinate symmetry"})


def criterion_slm_pipeline(max_m: int = 5, random_per_m: int = 500,
                           seed: int = 0) -> Report:
    checked = 0
    violations = []
    for m, kind, e, f in _pair_sweep(max_m, random_per_m, seed, "slm"):
        checked += 1
        rep = flags.slm_inequality(e, f)
        if not rep.passed:
            violations.append({"m": m, "kind": kind, "e": e.to_json(), "f": f.to_json(),
                               "report": rep.to_json()})
    return _criterion(3, "codim chain and stabilizer-dimension inequality",
                      not violations and checked > 0,
                      {"checked": checked, "violations": violations})


# ---------------------------------------------------------------------------
# 4. finite building homology


def criterion_buildings() -> Report:
    cases = []
    ok = True
    for m, q in ((3, 2), (3, 3), (4, 2), (4, 3), (5, 2)):
        K = flags.finite_building(m, q, max_m=max(4, m))
        expected_facets = flags.complete_flag_count(m, q)
        h = homology(K, "Z", reduced=True)
        expected_rank = q ** (m * (m - 1) // 2)
        good = flags.building_ok(K, h, m, q)
        ok = ok and good
        cases.append({"m": m, "q": q, "facets": len(K.facets),
                      "expected_facets": expected_facets,
                      "homology": h.to_json(), "expected_rank": expected_rank,
                      "ok": good})
    return _criterion(4, "building homology: one degree, rank q^(m(m-1)/2)", ok,
                      {"cases": cases})


# ---------------------------------------------------------------------------
# 5. pants anchor


def criterion_pants() -> Report:
    rows = []
    ok = True
    for g in range(2, 6):
        types = surfaces.pants_decompositions(g)
        dims = sorted({surfaces.multicurve_stab_hdim(t) for t in types})
        good = bool(types) and dims == [3 * g - 3]
        ok = ok and good
        rows.append({"g": g, "types": len(types), "hdims": dims,
                     "expected": 3 * g - 3, "ok": good})
    return _criterion(5, "pants stabilizer dimension = 3g-3", ok, {"rows": rows})


# ---------------------------------------------------------------------------
# 6. multicurve stabilizer sweep


def criterion_multicurve_sweep() -> Report:
    rows = []
    ok = True
    for g in (2, 3):
        rep = surfaces.lemma_smallstabilizers_sweep(g)
        good = rep["passed"] and rep["max_exact_lhs"] == 6 * g - 8
        ok = ok and good
        rows.append({"g": g, "passed": rep["passed"],
                     "max_exact_lhs": rep["max_exact_lhs"],
                     "expected_max": 6 * g - 8,
                     "witness": rep["max_exact_witness"], "ok": good})
    return _criterion(6, "stabilizer sweep < 6g-7, extreme case 6g-8", ok, {"rows": rows})


# ---------------------------------------------------------------------------
# 7. certificates pass the smallness checks with equality attained


def criterion_certificates() -> Report:
    rows = []
    ok = True

    def examine(label, cert):
        nonlocal ok
        rep = smallness.check_small(cert)
        van = smallness.vanishing_certificate(cert)
        good = rep.passed and van.passed and bool(rep.details["equality_orbits"])
        ok = ok and good
        rows.append({"model": label, "check": rep.status, "vanishing": van.status,
                     "equality_orbits": rep.details["equality_orbits"], "ok": good})

    for g in (2, 3):
        examine(f"curve systems g={g}", surfaces.curve_complex_certificate(g))
    for d in range(2, 7):
        examine(f"join model d={d}", smallness.generate_join_model(d))
    return _criterion(7, "certificates verified with equality attained", ok, {"rows": rows})


# ---------------------------------------------------------------------------
# 8 and 9. diagonal machinery and chain properties on random flag complexes


def random_flag_complex(rng: random.Random, max_vertices: int = 10,
                        max_cells: int = 60) -> SimplicialComplex:
    """Clique complex of a random graph, resampled until modestly sized."""
    while True:
        n = rng.randint(4, max_vertices)
        p = rng.uniform(0.25, 0.55)
        adj = {a: set() for a in range(n)}
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < p:
                    adj[a].add(b)
                    adj[b].add(a)
        K = SimplicialComplex(range(n), maximal_cliques(adj))
        if sum(K.f_vector()) <= max_cells:
            return K


def non_flag_witness() -> tuple:
    """A graph complex with an unfilled triangle: the neighborhood of the
    chord fails acyclicity."""
    K = SimplicialComplex(range(4), [[0, 1], [0, 2], [1, 2], [0, 3], [1, 3]])
    sigma = (0, 1)
    h = homology(K.neighborhood(sigma), "Z", reduced=True)
    return K, sigma, h


def criterion_diagonal(seed: int = 0) -> Report:
    rng = random.Random((seed, "diagonal").__repr__())
    failures = []
    for idx in range(DIAGONAL_COMPLEXES):
        K = random_flag_complex(rng)
        if not K.is_flag():
            failures.append({"complex": idx, "error": "generator produced non-flag"})
            continue
        ret = diagonal.check_retraction(K, "Z")
        if not ret.passed:
            failures.append({"complex": idx, "check": "retraction",
                             "input": K.to_json(), "details": ret.details})
        dec = diagonal.decomposition_check(K)
        if not dec.passed:
            failures.append({"complex": idx, "check": "decomposition",
                             "input": K.to_json(),
                             "mismatches": dec.details["mismatches"]})
        for s in K.all_simplices():
            if set(s) >= set(range(len(K.vertices))):
                continue  # neighborhoods and star closures of the whole complex
            for name, sub in (("N", K.neighborhood(s)), ("Delta", K.delta_sigma(s))):
                h = homology(sub, "Z", reduced=True)
                if not h.is_trivial():
                    failures.append({"complex": idx, "check": f"{name} acyclic",
                                     "simplex": list(s), "homology": h.to_json(),
                                     "input": K.to_json()})
    Kw, sigma, hw = non_flag_witness()
    witness_ok = (not Kw.is_flag()) and (not hw.is_trivial())
    return _criterion(8, "diagonal retraction, acyclicity, decomposition",
                      not failures and witness_ok,
                      {"complexes": DIAGONAL_COMPLEXES, "failures": failures,
                       "non_flag_witness": {"facets": Kw.to_json()["facets"],
                                            "sigma": list(sigma),
                                            "N_homology": hw.to_json(),
                                            "ok": witness_ok}})


def criterion_chaincore(seed: int = 0) -> Report:
    rng = random.Random((seed, "chaincore").__repr__())
    failures = []
    for idx in range(CHAINCORE_PAIRS):
        A = random_flag_complex(rng, max_vertices=6, max_cells=25)
        B = random_flag_complex(rng, max_vertices=6, max_cells=25)
        for p in (2, 3):
            ca = chain_complex(A, p)
            cb = chain_complex(B, p)
            prod = tensor_total(ca, cb)  # checks dd = 0 on both factors
            hp = prod.homology()
            ha = ca.homology()
            hb = cb.homology()
            for n in range(prod.top + 1):
                expected = sum(
                    ha.rank(i) * hb.rank(n - i) for i in range(n + 1)
                )
                if hp.rank(n) != expected:
                    failures.append({"pair": idx, "p": p, "degree": n,
                                     "got": hp.rank(n), "expected": expected,
                                     "A": A.to_json(), "B": B.to_json()})
        # relabeling invariance over Z
        labels = list(range(len(A.vertices)))
        rng.shuffle(labels)
        mapping = {v: f"v{labels[i]}" for i, v in enumerate(A.vertices)}
        if not homology(A, "Z").same_groups(homology(A.relabel(mapping), "Z")):
            failures.append({"pair": idx, "check": "relabel", "A": A.to_json(),
                             "mapping": {str(k): v for k, v in mapping.items()}})
    return _criterion(9, "dd=0, Kunneth ranks over F2/F3, relabeling invariance",
                      not failures, {"pairs": CHAINCORE_PAIRS, "failures": failures})


# ---------------------------------------------------------------------------
# 10. cup-product module


def criterion_cupforms(seed: int = 0) -> Report:
    failures = []
    for n in (3, 5, 7):
        r = cupforms.rank_one_obstruction(cupforms.projective_space_ring(n))
        if r.status != OBSTRUCTED:
            failures.append({"case": f"projective space n={n}", "result": r.to_json()})

    T = cupforms.TripleForm(1, 1, 1, 0)
    v = cupforms.compression_criterion_b2(T)
    witness = v.details["witness"]
    bad = cupforms.verify_witness(T, witness) if witness else ["no witness"]
    if v.status != SATISFIABLE or bad:
        failures.append({"case": "(1,1,1,0)", "status": v.status, "violations": bad})

    T2 = cupforms.TripleForm(1, 2, 1, 0)
    v2 = cupforms.compression_criterion_b2(T2)
    notes = v2.details["notes"]
    if v2.status != OBSTRUCTED or not any("-2" in n for n in notes):
        failures.append({"case": "(1,2,1,0)", "status": v2.status, "notes": notes})

    rng = random.Random((seed, "squares").__repr__())
    primes = (2, 3, 5, 7, 11, 13)
    square_fails = 0
    for _ in range(SQUARE_CASES):
        s = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        r = s * s
        good = cupforms.rational_is_square(r) and cupforms.rational_sqrt(r) ** 2 == r
        if s != 0:
            nonsq = r * rng.choice(primes)
            good = good and not cupforms.rational_is_square(nonsq)
            good = good and not cupforms.rational_is_square(-r)
        if not good:
            square_fails += 1
    if square_fails:
        failures.append({"case": "rational_is_square", "failures": square_fails})
    return _criterion(10, "cup-product obstructions and rational squares", not failures,
                      {"failures": failures, "square_cases": SQUARE_CASES,
                       "witness": witness})


# ---------------------------------------------------------------------------
# 11. simply-connected support checker


def criterion_support() -> Report:
    from .complexes import HomologyTable

    # boundary of the square of a one-holed torus: four-manifold filling,
    # spheres in degree 0 (q=1), boundary has large H1
    torus_sq = HomologyTable(False, "Z", ((0, 1, ()), (1, 4, ()), (2, 6, ()), (3, 1, ())))
    sphere = HomologyTable(False, "Z", ((0, 1, ()), (3, 1, ())))
    cases = (  # (key, case, expected status, report)
        ("torus_square", "torus-square boundary", OBSTRUCTED,
         smallness.simply_connected_obstruction(smallness.HomologySupportProblem(4, 1, torus_sq))),
        ("parity", "parity q-1=2, d=6, chi=0", OBSTRUCTED,
         smallness.parity_obstruction(n=9, q=3, chi_zero=True)),
        ("sphere", "sphere boundary", NOT_OBSTRUCTED,
         smallness.simply_connected_obstruction(smallness.HomologySupportProblem(4, 1, sphere))),
    )
    failures = [{"case": case, "result": r.to_json()}
                for _, case, want, r in cases if r.status != want]
    return _criterion(11, "homology-support and parity obstructions", not failures,
                      {"failures": failures,
                       "results": {key: r.to_json() for key, _, _, r in cases}})


# ---------------------------------------------------------------------------


CRITERIA = (
    criterion_forced_zeros,
    criterion_orbit_codim,
    criterion_slm_pipeline,
    criterion_buildings,
    criterion_pants,
    criterion_multicurve_sweep,
    criterion_certificates,
    criterion_diagonal,
    criterion_chaincore,
    criterion_cupforms,
    criterion_support,
)

SEEDED = {criterion_orbit_codim, criterion_slm_pipeline, criterion_diagonal,
          criterion_chaincore, criterion_cupforms}


def run_all(seed: int = 0):
    """The report of each criterion, in order, yielded as that criterion
    ends, so that it can be shown before the next one runs."""
    for fn in CRITERIA:
        t0 = time.perf_counter()
        rep = fn(seed=seed) if fn in SEEDED else fn()
        rep.details["runtime_s"] = round(time.perf_counter() - t0, 3)
        yield rep
