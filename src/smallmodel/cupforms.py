"""Cup-product obstructions to compressible fillings, over exact rationals.

Two criteria for a closed oriented boundary. When the relevant rational
cohomology is spanned by a single class omega, any nonvanishing top power
already obstructs. When H^2 is two dimensional on a 6-manifold, a
compressible filling is equivalent to a graded-algebra surjection onto
Q[beta]/beta^3, which reduces to a rational-square condition on the
triple intersection numbers. The candidate betas are the integer roots
of one monic integer cubic, the root 0 standing for beta = e2. The triple
form is evaluated in integers: the four coefficients over one common
denominator, each vector over its own, contracted with no Fraction in the
loop and divided once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt, lcm

from .report import NOT_OBSTRUCTED, OBSTRUCTED, SATISFIABLE, Report, json_rational


class FormError(ValueError):
    pass


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class RankOneRing:
    """One-generator pairing data: omega in degree k with ∫ omega^m."""

    k: int
    m: int
    top_value: Fraction

    def __post_init__(self):
        if self.k < 1:
            raise FormError("generator degree must be positive")
        if self.m <= 1:
            raise FormError("need m > 1")
        object.__setattr__(self, "top_value", _frac(self.top_value))


def rank_one_obstruction(R: RankOneRing) -> Report:
    """A compressible filling would force omega^m = 0; a nonzero top
    pairing rules it out."""
    return Report(OBSTRUCTED if R.top_value != 0 else NOT_OBSTRUCTED,
                  {"k": R.k, "m": R.m, "top_value": str(R.top_value)})


def projective_space_ring(n: int) -> RankOneRing:
    """The degree-2 generator of complex projective n-space."""
    return RankOneRing(k=2, m=n, top_value=Fraction(1))


def _integer_pair(x) -> tuple:
    """(p1, p2, d) with x = (p1, p2) / d in integers, for a pair of ints,
    Fractions or strings that Fraction parses."""
    (p1, q1), (p2, q2) = (Fraction(t).as_integer_ratio() if isinstance(t, str)
                          else t.as_integer_ratio() for t in x)
    return p1 * q2, p2 * q1, q1 * q2


@dataclass(frozen=True)
class TripleForm:
    """Symmetric triple intersection numbers ∫ e_a e_b e_c on a basis
    (e1 = omega, e2) of the rational H^2 of a closed oriented 6-manifold,
    with omega normalized so that c111 = ∫ omega^3 = 1."""

    c111: Fraction
    c112: Fraction
    c122: Fraction
    c222: Fraction

    # (D, n111, n112, n122, n222): the coefficients as c = n / D with one
    # common denominator D, set once the fields are validated
    _scaled: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("c111", "c112", "c122", "c222"):
            object.__setattr__(self, name, _frac(getattr(self, name)))
        if self.c111 != 1:
            raise FormError("omega must be normalized: c111 = 1")
        coeffs = (self.c111, self.c112, self.c122, self.c222)
        D = lcm(*(c.denominator for c in coeffs))
        object.__setattr__(self, "_scaled",
                           (D, *(c.numerator * (D // c.denominator) for c in coeffs)))

    def triple(self, u, v, w) -> Fraction:
        """Trilinear evaluation on coefficient vectors in the (e1, e2)
        basis (entries ints, Fractions or strings), exact.

        The coefficient of u_a v_b w_c depends only on how many of a, b, c
        are 2. Each vector is scaled to integers over its own denominator,
        the integer coefficients are contracted with w, then v, then u, and
        the one division by the product of the denominators comes last."""
        D, n0, n1, n2, n3 = self._scaled
        u1, u2, du = _integer_pair(u)
        v1, v2, dv = _integer_pair(v)
        w1, w2, dw = _integer_pair(w)
        m0, m1, m2 = n0 * w1 + n1 * w2, n1 * w1 + n2 * w2, n2 * w1 + n3 * w2
        return Fraction(u1 * (m0 * v1 + m1 * v2) + u2 * (m1 * v1 + m2 * v2),
                        D * du * dv * dw)

    @classmethod
    def from_json(cls, data):
        names = ("c111", "c112", "c122", "c222")
        if not isinstance(data, dict):
            raise TypeError(f"a triple form must be a JSON object, got {data!r}")
        missing = [name for name in names if name not in data]
        if missing:
            raise ValueError(f"the triple form has no {', '.join(missing)}")
        return cls(*(json_rational(data[name], name) for name in names))


def rational_sqrt(r):
    """The nonnegative rational square root of r, or None when r is not
    the square of a rational: r < 0, or the reduced numerator or
    denominator is not a perfect square."""
    r = _frac(r)
    if r < 0:
        return None
    n, d = r.numerator, r.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return Fraction(rn, rd)


def rational_is_square(r) -> bool:
    """True iff r is the square of a rational."""
    return rational_sqrt(r) is not None


def _integer_roots(b, c, d):
    """The integer roots of the monic integer cubic q(v) = v^3 + b v^2 +
    c v + d, in increasing order.

    They lie within the Cauchy bound 1 + max(|b|, |c|, |d|), and so do the
    real roots of q' = 3 v^2 + 2 b v + c (Gauss-Lucas), which cut that
    range into pieces where q is monotone; each piece holds at most one
    root, found by bisection."""
    bound = 1 + max(abs(b), abs(c), abs(d))

    def value(v):
        return ((v + b) * v + c) * v + d

    cuts = []  # the floors of the real roots of q', in increasing order
    if b * b > 3 * c:
        disc = b * b - 3 * c
        r = isqrt(disc)
        cuts = [(-b - r - (r * r < disc)) // 3, (-b + r) // 3]
    roots = []
    for lo, hi in zip([-bound] + [x + 1 for x in cuts], cuts + [bound]):
        if lo > hi:
            continue
        sign = 1 if value(hi) >= value(lo) else -1
        while lo < hi:  # the first v with sign * q(v) >= 0
            mid = (lo + hi) // 2
            if sign * value(mid) >= 0:
                hi = mid
            else:
                lo = mid + 1
        if value(lo) == 0:
            roots.append(lo)
    return roots


def find_betas(T: TripleForm) -> list:
    """Projective candidates beta with beta^3 = 0 and beta^2 != 0, as
    coefficient pairs in the (e1, e2) basis: (1, t) in increasing t, then
    (0, 1).

    beta = e1 + t e2 has int beta^3 = 1 + 3 c112 t + 3 c122 t^2 + c222 t^3,
    which u = 1/t turns into the monic u^3 + 3 c112 u^2 + 3 c122 u + c222
    (c111 = 1). With D the lcm of the denominators of its coefficients,
    v = D u makes it a monic integer cubic, whose rational roots are
    integers: each root v != 0 gives t = D/v, and the root v = 0, there
    exactly when c222 = 0, is beta = e2. A candidate survives only if
    beta^2 pairs nontrivially against omega."""
    b, c, d = 3 * T.c112, 3 * T.c122, T.c222
    D = lcm(b.denominator, c.denominator, d.denominator)
    roots = _integer_roots(int(b * D), int(c * D ** 2), int(d * D ** 3))
    candidates = sorted((Fraction(1), Fraction(D, v)) for v in roots if v)
    if 0 in roots:
        candidates.append((Fraction(0), Fraction(1)))
    omega = (1, 0)
    return [beta for beta in candidates if T.triple(omega, beta, beta) != 0]


@dataclass(frozen=True)
class SurjectionWitness:
    """Data of a graded-algebra surjection onto Q[beta]/beta^3: phi(omega)
    = s beta with s = x s^2 + y."""

    beta: tuple
    s: Fraction
    x: Fraction
    y: Fraction


def verify_witness(T: TripleForm, w: SurjectionWitness) -> list:
    """Re-evaluate every witness relation from the form; returns the
    list of violated relations (empty when the witness is exact)."""
    omega = (1, 0)
    b3 = T.triple(w.beta, w.beta, w.beta)
    wb2 = T.triple(omega, w.beta, w.beta)
    w2b = T.triple(omega, omega, w.beta)
    bad = []
    if b3 != 0:
        bad.append("beta^3 != 0")
    if wb2 == 0 and b3 == 0:
        bad.append("beta^2 = 0")
    if w2b == 0 or wb2 == 0:
        bad.append("degenerate pairing")
        return bad
    if w.x != wb2 / w2b:
        bad.append("x != int(omega beta^2)/int(omega^2 beta)")
    if w.y != w2b / wb2 - T.c111 / w2b:
        bad.append("y mismatch")
    if w.s != w.x * w.s ** 2 + w.y:
        bad.append("s != x s^2 + y")
    if (2 * w.x * w.s - 1) ** 2 != 1 - 4 * w.x * w.y:
        bad.append("(2xs-1)^2 != 1-4xy")
    if w.s == 0:
        bad.append("s = 0")
    return bad


def _label(beta) -> str:
    return "(" + ", ".join(map(str, beta)) + ")"


def compression_criterion_b2(T: TripleForm) -> Report:
    """Sweep the candidate betas; SATISFIABLE with an exact witness when
    some beta admits a rational s != 0 with s = x s^2 + y, OBSTRUCTED
    when none does. Degenerate pairings are noted, never guessed around.
    The details hold the witness (None when there is none), the notes and
    the candidates whose only solution is s = 0."""
    notes = []
    zero_s = []
    betas = find_betas(T)
    if not betas:
        notes.append("no rational beta with beta^3=0 and beta^2!=0")
    omega = (1, 0)
    for beta in betas:
        w2b = T.triple(omega, omega, beta)
        wb2 = T.triple(omega, beta, beta)
        if w2b == 0 or wb2 == 0:
            notes.append(f"beta={_label(beta)}: degenerate pairing "
                         f"(int omega^2 beta = {w2b}, int omega beta^2 = {wb2})")
            continue
        x = wb2 / w2b
        y = w2b / wb2 - T.c111 / w2b
        disc = 1 - 4 * x * y
        root = rational_sqrt(disc)
        if root is None:
            notes.append(f"beta={_label(beta)}: 1-4xy = {disc} is not a rational square")
            continue
        found_zero = False
        for s in ((1 + root) / (2 * x), (1 - root) / (2 * x)):
            if s == 0:
                found_zero = True
                continue
            witness = SurjectionWitness(beta=beta, s=s, x=x, y=y)
            bad = verify_witness(T, witness)
            if bad:
                raise FormError(f"witness failed re-verification: {bad}")
            return Report(SATISFIABLE, {"witness": witness, "notes": notes,
                                        "zero_s_roots": zero_s})
        if found_zero:
            zero_s.append(beta)
            notes.append(f"beta={_label(beta)}: only s=0 solves s=xs^2+y "
                         "(phi(omega)=0, not accepted as a surjection)")
    return Report(OBSTRUCTED, {"witness": None, "notes": notes, "zero_s_roots": zero_s})
