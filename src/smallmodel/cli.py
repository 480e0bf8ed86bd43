"""Command-line entry point: every verification as a subcommand.

Reports are JSON with a digest of the inputs, a status in {verified,
counterexample, inconclusive, error} and per-check details. Exit codes:
0 verified, 1 counterexample, 2 inconclusive, 3 bad input.

The obstruction subcommands (rank-one, b2-criterion, sc-obstruction)
report status verified and exit 0 whatever their verdict, which is
details.status: OBSTRUCTED, SATISFIABLE or INCONCLUSIVE. An obstruction
is a finding about the input, not a counterexample, and exit 1 means a
counterexample only.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import time

from . import acceptance, cupforms, diagonal, flags, smallness, surfaces
from .complexes import SimplicialComplex, homology
from .normalform import PivotExplosion
from .report import (INCONCLUSIVE, OBSTRUCTED, VERIFIED, VIOLATION, json_bool, json_field,
                     json_int, json_list, json_rational)

EXIT = {VERIFIED: 0, VIOLATION: 1, INCONCLUSIVE: 2, "error": 3}


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _report(command, inputs, status, details, seed, t0):
    return {
        "command": command,
        "inputs-digest": _digest(inputs),
        "status": status,
        "details": details,
        "seed": seed,
        "runtime_ms": int((time.perf_counter() - t0) * 1000),
    }


def _emit(report, as_json):
    if as_json:
        # the bytes of json.dumps, streamed in batches of the encoder's
        # pieces: never one string of the whole report, and not one write
        # per piece, which took twice as long on a 51 MB report
        pieces = json.JSONEncoder(indent=2, sort_keys=True, default=str).iterencode(report)
        while batch := "".join(itertools.islice(pieces, 4096)):
            sys.stdout.write(batch)
        sys.stdout.write("\n")
        return
    print(f"{report['command']}: {report['status']}")
    _human(report["details"], indent="  ")


def _to_devnull(stream):
    """Point a stream whose reader left (``| head``) at devnull, so that no
    later write, nor the flush at interpreter exit, raises: what is left
    to print is dropped, and the verdict and its exit code stand."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _note(line):
    """Print a progress line on stderr, never on stdout; a closed stderr
    drops it and the rest, and the verdict and its exit code stand."""
    try:
        print(line, file=sys.stderr, flush=True)
    except BrokenPipeError:
        _to_devnull(sys.stderr)


def _human(obj, indent=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                print(f"{indent}{k}:")
                _human(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)):
                _human(item, indent)
                print()
            else:
                print(f"{indent}- {item}")
    else:
        print(f"{indent}{obj}")


def _load(path):
    with open(path) as fh:
        return json.load(fh)


# -- subcommand implementations: each returns (status, details) -------------
# args.infile, not data, says whether --in was given: the file may hold null.


def cmd_homology(args, data):
    K = SimplicialComplex.from_json(data)
    ring = "Z" if args.ring == "Z" else int(args.ring)
    h = homology(K, ring, reduced=not args.unreduced)
    return VERIFIED, {"f_vector": list(K.f_vector()), "homology": h.to_json()}


def cmd_diagonal(args, data):
    K = SimplicialComplex.from_json(data)
    checks = diagonal.diagonal_checks(K)
    ok = all(c.passed for c in checks)
    return (VERIFIED if ok else VIOLATION,
            {"flag": K.is_flag(), "checks": [c.to_json() for c in checks]})


def cmd_check_small(args, data):
    X = smallness.OrbitComplex.from_json(data)
    rep = smallness.check_small(X)
    return rep.status, rep.to_json()


def cmd_certificate(args, data):
    X = smallness.OrbitComplex.from_json(data)
    rep = smallness.vanishing_certificate(X)
    return rep.status, rep.to_json()


def cmd_sc_obstruction(args, data):
    from .complexes import HomologyTable

    entries = {}
    for e in json_list(json_field(data, "boundary_homology"), "boundary_homology"):
        d = json_int(json_field(e, "degree", "a homology entry"), "degree", least=0)
        if d in entries:
            raise ValueError(f"degree {d} has two entries")
        entries[d] = (d, json_int(json_field(e, "rank", "a homology entry"), "rank", least=0),
                      tuple(json_int(t, "torsion", least=2)
                            for t in json_list(e.get("torsion", []), "torsion")))
    n, q = json_int(json_field(data, "n"), "n"), json_int(json_field(data, "q"), "q")
    chi_zero = data.get("chi_zero")
    if chi_zero is not None:
        chi_zero = json_bool(chi_zero, "chi_zero")
    table = HomologyTable(False, "Z", tuple(entries.values()))
    rep = smallness.simply_connected_obstruction(smallness.HomologySupportProblem(n, q, table))
    if chi_zero is not None and rep.status != OBSTRUCTED:
        rep = smallness.parity_obstruction(n, q, chi_zero)
    return VERIFIED, rep.to_json()


def cmd_lemma_upper(args, data):
    rep = acceptance.criterion_forced_zeros(max_m=args.m)
    return rep.status, rep.to_json()


def cmd_orbit_codim(args, data):
    if args.infile:
        e, f = _flag_pair(data)
        flags.require_disjoint(e, f)
        codim = flags.orbit_codim(e, f)
        ok = codim >= f.length
        return (VERIFIED if ok else VIOLATION,
                {"codim": codim, "length_f": f.length, "ok": ok})
    rep = acceptance.criterion_orbit_codim(max_m=args.m)
    return rep.status, rep.to_json()


def _flag_pair(data):
    return tuple(flags.RationalFlag.from_json(json_field(data, name)) for name in ("e", "f"))


def cmd_slm_check(args, data):
    if args.infile:
        rep = flags.slm_inequality(*_flag_pair(data))
    else:
        rep = acceptance.criterion_slm_pipeline(max_m=args.m)
    return rep.status, rep.to_json()


def cmd_building(args, data):
    K = flags.finite_building(args.m, args.q)
    h = homology(K, "Z", reduced=True)
    expected = args.q ** (args.m * (args.m - 1) // 2)
    return (VERIFIED if flags.building_ok(K, h, args.m, args.q) else VIOLATION,
            {"vertices": len(K.vertices), "facets": len(K.facets),
             "homology": h.to_json(), "expected_rank": expected,
             "complete_flags": flags.complete_flag_count(args.m, args.q)})


def cmd_harer(args, data):
    d = surfaces.harer_dim(surfaces.SurfaceType(args.g, args.r, args.s))
    return VERIFIED, {"g": args.g, "r": args.r, "s": args.s, "dim": d}


def cmd_multicurves(args, data):
    types = surfaces.enumerate_multicurves(args.g, args.k)
    return VERIFIED, {
        "g": args.g, "k": args.k, "count": len(types),
        "types": [
            {**t.to_json(), "stab_hdim": surfaces.multicurve_stab_hdim(t)}
            for t in types
        ],
    }


def cmd_lemma_sweep(args, data):
    t0 = time.perf_counter()
    kmax = 3 * args.g - 3

    def progress(k, types):
        _note(f"lemma-sweep g={args.g} k={k}/{kmax}: {types} types "
              f"({time.perf_counter() - t0:.1f}s)")

    rep = surfaces.lemma_smallstabilizers_sweep(
        args.g, surfaces._hdims_by_size(args.g, progress))
    return (VERIFIED if rep["passed"] else VIOLATION, rep)


def cmd_cc_certificate(args, data):
    cert = surfaces.curve_complex_certificate(args.g)
    rep = smallness.check_small(cert)
    return rep.status, {"certificate": cert.to_json(), "check": rep.to_json()}


def cmd_rank_one(args, data):
    if args.infile:
        R = cupforms.RankOneRing(json_int(json_field(data, "k"), "k"),
                                 json_int(json_field(data, "m"), "m"),
                                 json_rational(json_field(data, "top_value"), "top_value"))
    else:
        R = cupforms.RankOneRing(args.k, args.m, json_rational(args.top, "--top"))
    return VERIFIED, cupforms.rank_one_obstruction(R).to_json()


def cmd_b2_criterion(args, data):
    if args.infile and args.form is not None:
        raise ValueError("b2-criterion takes --in or --form, not both")
    if not args.infile:
        if args.form is None:
            raise ValueError("b2-criterion requires --in or --form")
        data = json.loads(args.form)
    T = cupforms.TripleForm.from_json(data)
    return VERIFIED, cupforms.compression_criterion_b2(T).to_json()


def cmd_suite(args, data):
    results = []
    for r in acceptance.run_all(seed=args.seed):
        _note(acceptance.line(r))
        results.append(r)
    ok = all(r.passed for r in results)
    return (VERIFIED if ok else VIOLATION,
            {"criteria": [r.to_json() for r in results]})


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 3 (bad input), not
    argparse's 2, which would read as "inconclusive"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT["error"], f"{self.prog}: error: {message}\n")


def build_parser():
    p = _Parser(
        prog="smallmodel",
        description="stabilizer-dimension and cup-product verification toolkit",
    )
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random draws of suite criteria 8, 9 and 10")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, reads_in=False, needs_in=False, without_in=(), **kwargs):
        # only a subcommand that reads --in accepts it; a stray --in on any
        # other is a usage error, not a file hashed into the digest unread.
        # The options in without_in, (name, default) pairs, are what --in
        # replaces: they parse as None when not given, so that main can
        # refuse one given beside --in, and take their defaults without it
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn, needs_in=needs_in, infile=None, without_in=dict(without_in))
        if reads_in or needs_in:
            sp.add_argument("--in", dest="infile", help="JSON input file")
        for option, default in without_in:
            sp.add_argument(f"--{option}", type=type(default),
                            help=f"default {default}; not with --in")
        return sp

    sp = add("homology", cmd_homology, needs_in=True,
             help="homology of a simplicial complex")
    sp.add_argument("--ring", default="Z", help="'Z' or a prime")
    sp.add_argument("--unreduced", action="store_true")

    add("diagonal", cmd_diagonal, needs_in=True,
        help="diagonal retraction / decomposition / consistency checks")
    add("check-small", cmd_check_small, needs_in=True,
        help="stabilizer-dimension inequalities on an orbit certificate")
    add("certificate", cmd_certificate, needs_in=True,
        help="page-one vanishing certificate from an orbit certificate")
    add("sc-obstruction", cmd_sc_obstruction, needs_in=True,
        help="homology-support obstruction for simply connected fillings")

    sp = add("lemma-upper", cmd_lemma_upper, help="forced-zero sweep")
    sp.add_argument("--m", type=int, default=6)

    add("orbit-codim", cmd_orbit_codim, reads_in=True, without_in=(("m", 5),),
        help="orbit codimension bound")
    add("slm-check", cmd_slm_check, reads_in=True, without_in=(("m", 5),),
        help="codimension-chain inequality")

    sp = add("building", cmd_building, help="finite building homology")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)

    sp = add("harer", cmd_harer, help="virtual homological dimension")
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)

    sp = add("multicurves", cmd_multicurves, help="multicurve types on a surface")
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)

    sp = add("lemma-sweep", cmd_lemma_sweep, help="multicurve stabilizer sweep")
    sp.add_argument("--g", type=int, required=True)

    sp = add("cc-certificate", cmd_cc_certificate,
             help="orbit certificate for curve systems")
    sp.add_argument("--g", type=int, required=True)

    add("rank-one", cmd_rank_one, reads_in=True,
        without_in=(("k", 2), ("m", 3), ("top", "1")), help="one-generator cup obstruction")

    sp = add("b2-criterion", cmd_b2_criterion, reads_in=True,
             help="two-generator surjection criterion")
    sp.add_argument("--form", help="TripleForm JSON string")

    add("suite", cmd_suite, help="run the full verification battery")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    data = None
    inputs = {"argv": [a for a in (argv if argv is not None else sys.argv[1:])]}
    try:
        given = [f"--{option}" for option in args.without_in
                 if getattr(args, option) is not None]
        if args.infile and given:
            raise ValueError(f"{args.command} takes --in or {', '.join(given)}, not both")
        for option, default in args.without_in.items():
            if getattr(args, option) is None:
                setattr(args, option, default)
        if args.infile:
            data = _load(args.infile)
            inputs["data"] = data
        elif args.needs_in:
            raise ValueError(f"{args.command} requires --in")
        status, details = args.fn(args, data)
    except PivotExplosion as exc:
        # a tripped bit bound decides nothing about the input
        status, details = INCONCLUSIVE, {"reason": f"PivotExplosion: {exc}"}
    except Exception as exc:
        status, details = "error", {"error": f"{type(exc).__name__}: {exc}"}
    report = _report(args.command, inputs, status, details, args.seed, t0)
    try:
        _emit(report, args.json)
        sys.stdout.flush()
    except BrokenPipeError:
        _to_devnull(sys.stdout)
    return EXIT.get(status, 3)


if __name__ == "__main__":
    sys.exit(main())
