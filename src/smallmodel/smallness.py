"""Stabilizer-dimension certificates for group actions on flag complexes.

A complex acted on by a group is encoded as orbit data: one record per
simplex orbit carrying the homological dimension of a stabilizer, plus a
pair table carrying, for each pair of orbits that admits a disjoint
representative pair, the homological dimension of the intersection of
the two stabilizers. The two checks are

    (single)  hdim(Stab(s)) + dim(s)            <= boundary_dim
    (pair)    hdim(Stab(s) & Stab(t)) + dim(s) + dim(t) < boundary_dim

and a passing pair sweep yields a page-one vanishing certificate for the
double-complex bookkeeping in total degrees >= boundary_dim.

Homological dimensions are inputs (caller-supplied or generator-derived),
never computed here; entries may be exact values or upper bounds, and a
pass obtained from upper bounds is still a pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import HomologyTable
from .report import (INCONCLUSIVE, NOT_OBSTRUCTED, OBSTRUCTED, VERIFIED, VIOLATION, Report,
                     json_bool, json_field, json_int, json_list)


class CertificateError(ValueError):
    pass


@dataclass(frozen=True)
class Hdim:
    """A homological dimension: exact value or an upper bound '<= value'."""

    value: int
    exact: bool = True

    def __post_init__(self):
        if self.value < 0:
            raise CertificateError("hdim must be nonnegative")

    def __str__(self):
        return str(self.value) if self.exact else f"<={self.value}"

    @classmethod
    def parse(cls, raw):
        if isinstance(raw, str) and raw.strip().startswith("<="):
            return cls(json_int(raw.strip()[2:], "hdim"), False)
        return cls(json_int(raw, "hdim"), True)

    def to_json(self):
        return self.value if self.exact else f"<={self.value}"


@dataclass(frozen=True)
class Orbit:
    label: str
    dim: int
    hdim: Hdim


@dataclass(frozen=True)
class PairEntry:
    a: str
    b: str
    disjoint: bool          # do the two orbits admit a disjoint representative pair
    hdim: Hdim | None = None  # required when disjoint

    def key(self):
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)


@dataclass
class OrbitComplex:
    """Orbit-and-stabilizer certificate data for a group action."""

    boundary_dim: int
    orbits: list
    pairs: dict = field(default_factory=dict)  # key() -> PairEntry
    complete: bool = False
    provenance: str = ""

    def __post_init__(self):
        if self.boundary_dim < 0:
            raise CertificateError(f"boundary_dim must be at least 0, got {self.boundary_dim}")
        self._by_label = {o.label: o for o in self.orbits}
        if len(self._by_label) != len(self.orbits):
            raise CertificateError("duplicate orbit labels")
        for o in self.orbits:
            if o.dim < 0:
                raise CertificateError(f"orbit {o.label!r} dim must be at least 0, got {o.dim}")
        for e in self.pairs.values():
            for label in (e.a, e.b):
                if label not in self._by_label:
                    raise CertificateError(f"pair {e.key()} names unknown orbit {label!r}")

    def orbit(self, label):
        try:
            return self._by_label[label]
        except KeyError:
            raise CertificateError(f"unknown orbit {label!r}") from None

    def pair_entries(self):
        return [self.pairs[k] for k in sorted(self.pairs)]

    def to_json(self):
        return {
            "boundary_dim": self.boundary_dim,
            "orbits": [
                {"label": o.label, "dim": o.dim, "hdim": o.hdim.to_json()}
                for o in self.orbits
            ],
            "pairs": [
                {
                    "a": e.a,
                    "b": e.b,
                    "disjoint": e.disjoint,
                    **({"hdim": e.hdim.to_json()} if e.hdim is not None else {}),
                }
                for e in self.pair_entries()
            ],
            "complete": self.complete,
            "provenance": self.provenance,
        }

    @classmethod
    def from_json(cls, data):
        orbits = [
            Orbit(_json_label(json_field(o, "label", "an orbit"), "orbit label"),
                  json_int(json_field(o, "dim", "an orbit"), "orbit dim"),
                  Hdim.parse(json_field(o, "hdim", "an orbit")))
            for o in json_list(json_field(data, "orbits"), "orbits")
        ]
        pairs = {}
        for e in json_list(data.get("pairs", []), "pairs"):
            entry = PairEntry(
                _json_label(json_field(e, "a", "a pair"), "pair endpoint"),
                _json_label(json_field(e, "b", "a pair"), "pair endpoint"),
                json_bool(json_field(e, "disjoint", "a pair"), "disjoint"),
                Hdim.parse(e["hdim"]) if "hdim" in e else None,
            )
            if entry.key() in pairs:
                raise CertificateError(f"pair {entry.key()} listed twice")
            pairs[entry.key()] = entry
        return cls(
            boundary_dim=json_int(json_field(data, "boundary_dim"), "boundary_dim"),
            orbits=orbits,
            pairs=pairs,
            complete=json_bool(data.get("complete", False), "complete"),
            provenance=data.get("provenance", ""),
        )


def _json_label(value, field):
    """An orbit label of a JSON input: a string, since pair keys order
    their two labels (a null or a number beside a string is refused)."""
    if not isinstance(value, str):
        raise CertificateError(f"{field} must be a string, got {value!r}")
    return value


def check_small(X: OrbitComplex) -> Report:
    """Run the single and pair stabilizer-dimension checks.

    An incomplete pair table can only ever yield 'inconclusive', never a
    silent pass. An upper-bound hdim that satisfies an inequality proves
    it; one that violates it proves nothing either way.
    """
    n = X.boundary_dim
    single_rows, pair_rows, slacks, equality = [], [], [], []
    witness = None
    reason = "" if X.complete else "pair table not declared complete"

    def judge(hdim, lhs, limit, kind, noun, key):
        # the one inequality, lhs <= limit: limit n for an orbit, n - 1 for a
        # pair (lhs < n); it holds with a slack, and a break is a witness
        # when hdim is exact and only a reason when hdim is an upper bound
        nonlocal witness, reason
        if lhs <= limit:
            slacks.append(limit - lhs)
            return True
        if hdim.exact:
            witness = witness or {"kind": kind, noun: list(key) if kind == "pair" else key,
                                  "lhs": lhs}
        else:
            reason = reason or f"upper bound on {noun} {key} does not settle the {kind} check"
        return False

    for o in X.orbits:
        lhs = o.hdim.value + o.dim
        single_rows.append({"orbit": o.label, "hdim": str(o.hdim), "dim": o.dim, "lhs": lhs,
                            "bound": n, "ok": judge(o.hdim, lhs, n, "single", "orbit", o.label)})
        if lhs == n and o.hdim.exact:
            equality.append(o.label)

    seen_pairs = set()
    for e in X.pair_entries():
        key = e.key()
        seen_pairs.add(key)
        if not e.disjoint:
            pair_rows.append({"pair": list(key), "disjoint": False, "ok": True})
        elif e.hdim is None:
            reason = reason or f"pair {key} marked disjoint but carries no hdim"
        else:
            lhs = e.hdim.value + X.orbit(e.a).dim + X.orbit(e.b).dim
            pair_rows.append({"pair": list(key), "disjoint": True, "hdim": str(e.hdim),
                              "lhs": lhs, "bound": n,
                              "ok": judge(e.hdim, lhs, n - 1, "pair", "pair", key)})

    if X.complete:
        # the table is complete when it lists every unordered pair of
        # orbits, a pair of one orbit with itself included; the label pairs
        # are walked only to name the first one missing
        labels = [o.label for o in X.orbits]
        known = set(labels)
        listed = sum(1 for a, b in seen_pairs if a in known and b in known)
        if listed < len(known) * (len(known) + 1) // 2 and not reason:
            a, b = next((a, b) for i, a in enumerate(labels) for b in labels[i:]
                        if ((a, b) if a <= b else (b, a)) not in seen_pairs)
            reason = f"pair table declared complete but pair ({a},{b}) is missing"

    status = VIOLATION if witness is not None else INCONCLUSIVE if reason else VERIFIED
    return Report(status, {
        "single": single_rows,
        "pairs": pair_rows,
        "min_slack": min(slacks) if slacks else None,
        "max_slack": max(slacks) if slacks else None,
        "equality_orbits": equality,
        "witness": witness,
        "reason": reason,
    })


def vanishing_certificate(X: OrbitComplex) -> Report:
    """Page-one vanishing table for total degrees >= boundary_dim.

    For a first-factor orbit of dimension i, the contribution of a
    disjoint orbit pair dies above column hdim + dim(tau); the pair check
    in the rearranged form hdim + dim(tau) < boundary_dim - i certifies
    every bidegree (i, j) with i + j >= boundary_dim. Each row is thus a
    pair row of check_small with i = dim(sigma) taken from both sides.
    """
    base = check_small(X)
    if base.status == VIOLATION:
        # name a bidegree that cannot be certified: the witness's first orbit
        w = base.details["witness"]
        i = X.orbit(w["pair"][0] if w["kind"] == "pair" else w["orbit"]).dim
        return _vanishing(VIOLATION, failing_bidegree=(i, w["lhs"] - i),
                          reason="stabilizer-dimension check failed")
    if base.status == INCONCLUSIVE:
        return _vanishing(INCONCLUSIVE, reason=base.details["reason"])

    # a verified table has one pair row per entry, in entry order
    n = X.boundary_dim
    rows = []
    for e, row in zip(X.pair_entries(), base.details["pairs"]):
        if not row["disjoint"]:
            continue
        for sigma, tau in ((e.a, e.b), (e.b, e.a)):
            i = X.orbit(sigma).dim
            rows.append(
                {
                    "sigma_orbit": sigma,
                    "tau_orbit": tau,
                    "i": i,
                    "hdim": row["hdim"],
                    "tau_dim": X.orbit(tau).dim,
                    "lhs": row["lhs"] - i,
                    "rhs": n - i,
                    "ok": row["ok"],
                }
            )
    return _vanishing(VERIFIED, rows, n)


def _vanishing(status, rows=(), certified_total_degree=None, failing_bidegree=None,
               reason=""):
    return Report(status, {"rows": list(rows),
                           "certified_total_degree": certified_total_degree,
                           "failing_bidegree": failing_bidegree, "reason": reason})


# ---------------------------------------------------------------------------
# Generator: join of infinite discrete sets acted on by a power of the
# rank-two free group (boundary model for a product of one-holed tori).


def generate_join_model(d: int) -> OrbitComplex:
    """Orbit certificate for the d-fold join of infinite discrete sets.

    One orbit per nonempty subset S of factors (a simplex picks a point
    in each chosen factor). A point stabilizer in its own factor is an
    infinite cyclic commutator conjugate (hdim 1); an untouched free
    factor contributes hdim 1; distinct commutator conjugates intersect
    trivially, so a disjoint pair loses one per shared factor.
    """
    if d < 2:
        raise CertificateError("join model needs at least two factors")
    subsets = []
    for mask in range(1, 1 << d):
        subsets.append(frozenset(i for i in range(d) if mask >> i & 1))
    subsets.sort(key=lambda s: (len(s), sorted(s)))

    labelled = [(S, "f" + "".join(str(i + 1) for i in sorted(S))) for S in subsets]
    hdims = [Hdim(d - shared) for shared in range(d + 1)]
    orbits = [Orbit(la, len(S) - 1, hdims[0]) for S, la in labelled]
    pairs = {}
    for i, (S, la) in enumerate(labelled):
        for T, lb in labelled[i:]:
            e = PairEntry(la, lb, True, hdims[len(S & T)])
            pairs[e.key()] = e
    return OrbitComplex(
        boundary_dim=2 * d - 1,
        orbits=orbits,
        pairs=pairs,
        complete=True,
        provenance=f"join model, {d} factors",
    )


# ---------------------------------------------------------------------------
# Homology-support test for simply connected fillings.


@dataclass(frozen=True)
class HomologySupportProblem:
    """Support data for the simply-connected-filling test.

    n is the filling dimension (the boundary has dimension n-1), q-1 the
    dimension of the spheres generating the homology of the universal
    cover, and boundary_homology the integral homology of the boundary.
    """

    n: int
    q: int
    boundary_homology: HomologyTable

    def __post_init__(self):
        if not (1 <= self.q <= self.n):
            raise CertificateError("need 1 <= q <= n")


def simply_connected_obstruction(P: HomologySupportProblem) -> Report:
    """OBSTRUCTED when the boundary homology has torsion anywhere or a
    nonzero group outside {0, q-1, n-q, n-1}; otherwise inconclusive."""
    allowed = sorted({0, P.q - 1, P.n - P.q, P.n - 1})
    for deg, rank, torsion in P.boundary_homology.entries:
        if torsion or (rank and deg not in allowed):
            reason = (f"torsion {list(torsion)} in degree {deg}" if torsion
                      else f"nonzero homology of rank {rank} in degree {deg}")
            return Report(OBSTRUCTED, {"reason": reason, "allowed_degrees": allowed})
    return Report(NOT_OBSTRUCTED, {"reason": "support and torsion tests passed",
                                   "allowed_degrees": allowed})


def parity_obstruction(n: int, q: int, chi_zero: bool) -> Report:
    """Euler-characteristic parity test with d = n - q.

    A vanishing Euler characteristic forces odd-degree homology when
    q-1, d and d+q-1 are all even, which the support test forbids."""
    d = n - q
    evens = {"q-1": (q - 1) % 2 == 0, "d": d % 2 == 0, "d+q-1": (d + q - 1) % 2 == 0}
    if chi_zero and all(evens.values()):
        return Report(OBSTRUCTED, {"d": d, "parities": evens, "reason":
                                   "chi=0 forces odd-degree homology outside the allowed support"})
    return Report(NOT_OBSTRUCTED, {"d": d, "parities": evens,
                                   "reason": "parity test not decisive"})
