from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smallmodel.cupforms import (
    NOT_OBSTRUCTED,
    OBSTRUCTED,
    SATISFIABLE,
    FormError,
    RankOneRing,
    TripleForm,
    compression_criterion_b2,
    find_betas,
    projective_space_ring,
    rank_one_obstruction,
    rational_is_square,
    rational_sqrt,
    verify_witness,
)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=40
)


def test_rank_one_projective_spaces():
    for n in (3, 5, 7):
        assert rank_one_obstruction(projective_space_ring(n)).status == OBSTRUCTED


def test_rank_one_zero_top_inconclusive():
    assert rank_one_obstruction(RankOneRing(2, 3, 0)).status == NOT_OBSTRUCTED


def test_rank_one_rescaling_invariance():
    for scale in (Fraction(2), Fraction(-1, 3), Fraction(7, 5)):
        base = rank_one_obstruction(RankOneRing(2, 4, Fraction(3)))
        scaled = rank_one_obstruction(RankOneRing(2, 4, Fraction(3) * scale ** 4))
        assert base.status == scaled.status


def test_rank_one_m_guard():
    with pytest.raises(FormError):
        RankOneRing(2, 1, 1)


def test_triple_form_normalization_enforced():
    with pytest.raises(FormError):
        TripleForm(2, 0, 0, 0)


def test_rational_square_basics():
    assert rational_is_square(Fraction(4, 9))
    assert rational_is_square(0)
    assert not rational_is_square(2)
    assert not rational_is_square(Fraction(-1, 4))
    assert rational_sqrt(Fraction(49, 4)) == Fraction(7, 2)


@settings(max_examples=300, deadline=None)
@given(rationals)
def test_square_round_trip(s):
    r = s * s
    assert rational_is_square(r)
    assert rational_sqrt(r) == abs(s)
    if s != 0:
        assert not rational_is_square(2 * r)
        assert not rational_is_square(-r)


@settings(max_examples=200, deadline=None)
@given(rationals, rationals)
def test_quadratic_identity(x, s):
    # whenever s = x s^2 + y, the discriminant identity holds
    y = s - x * s * s
    assert (2 * x * s - 1) ** 2 == 1 - 4 * x * y


big = st.one_of(st.integers(-10**32, 10**32), st.integers(-30, 30))
coefficients = st.one_of(st.builds(Fraction, big, st.integers(1, 10**6)), rationals)


@st.composite
def b2_forms(draw):
    """(c112, c122, c222) with arbitrary coefficients, or with rational
    roots u planted in the monic u^3 + 3 c112 u^2 + 3 c122 u + c222
    (u = 1/t), double roots and the roots u = 0 (c222 = 0, and with a
    double zero also c122 = 0) included."""
    if draw(st.booleans()):
        c112, c122, c222 = (draw(coefficients) for _ in range(3))
        zeros = draw(st.integers(0, 2))
        return c112, c122 if zeros < 2 else Fraction(0), c222 if zeros < 1 else Fraction(0)
    r1, r2, r3 = (draw(coefficients) for _ in range(3))
    if draw(st.booleans()):
        r2 = r1
    zeros = draw(st.integers(0, 2))
    if zeros:
        r3 = Fraction(0)
    if zeros == 2:
        r2 = Fraction(0)
    return -(r1 + r2 + r3) / 3, (r1 * r2 + r1 * r3 + r2 * r3) / 3, -r1 * r2 * r3


@settings(max_examples=300, deadline=None)
@given(b2_forms())
def test_find_betas_against_sympy(form):
    # the rational roots t of 1 + 3 c112 t + 3 c122 t^2 + c222 t^3, then
    # beta = e2 exactly when c222 = 0, each kept when int omega beta^2 =
    # 1 + 2 c112 t + c122 t^2 (or c122 for e2) is nonzero
    from sympy import QQ, Poly, symbols

    c112, c122, c222 = form
    cubic = [c222, 3 * c122, 3 * c112, Fraction(1)]
    while not cubic[0]:
        cubic = cubic[1:]
    t = symbols("t")
    roots = Poly([QQ(c.numerator, c.denominator) for c in cubic], t, domain=QQ).ground_roots()
    expected = [(Fraction(1), r) for r in sorted(Fraction(int(r.p), int(r.q)) for r in roots)
                if 1 + 2 * c112 * r + c122 * r * r != 0]
    if c222 == 0 and c122 != 0:
        expected.append((Fraction(0), Fraction(1)))
    assert find_betas(TripleForm(1, c112, c122, c222)) == expected


def test_find_betas_examples():
    assert find_betas(TripleForm(1, 0, 0, 1)) == [(Fraction(1), Fraction(-1))]
    assert find_betas(TripleForm(1, 2, 1, 0)) == [(Fraction(0), Fraction(1))]
    # irreducible cubic and no degree-drop: no candidates
    assert find_betas(TripleForm(1, 0, 1, 1)) == []
    # degenerate pairing: beta = e2 has beta^2 pairing to zero, filtered
    assert find_betas(TripleForm(1, 0, 0, 0)) == []


def test_satisfiable_with_exact_witness():
    v = compression_criterion_b2(TripleForm(1, 1, 1, 0))
    assert v.status == SATISFIABLE
    w = v.details["witness"]
    assert w.s == 1 and w.x == 1 and w.y == 0
    assert verify_witness(TripleForm(1, 1, 1, 0), w) == []


def test_obstructed_by_nonsquare():
    v = compression_criterion_b2(TripleForm(1, 2, 1, 0))
    assert v.status == OBSTRUCTED
    assert v.details["witness"] is None
    # criterion 10 matches the "-2"; beta prints as exact rationals, not reprs
    assert v.details["notes"] == ["beta=(0, 1): 1-4xy = -2 is not a rational square"]


def test_notes_hold_no_reprs():
    for T in (TripleForm(1, 2, 1, 0), TripleForm(1, 0, 1, 0),
              TripleForm(1, Fraction(1, 2), Fraction(1, 3), -1)):
        notes = compression_criterion_b2(T).details["notes"]
        assert notes and not any("Fraction(" in note for note in notes), notes


def test_degenerate_pairing_noted():
    v = compression_criterion_b2(TripleForm(1, 0, 0, 0))
    assert v.status == OBSTRUCTED
    assert any("no rational beta" in note for note in v.details["notes"])


def test_json_round_trip():
    T = TripleForm.from_json({"c111": "1", "c112": "2", "c122": "1", "c222": "0"})
    assert T.c112 == 2


def test_triple_evaluation_symmetry():
    T = TripleForm(1, Fraction(1, 2), 3, Fraction(-2, 7))
    u, v, w = (1, 2), (Fraction(1, 3), -1), (0, 5)
    assert T.triple(u, v, w) == T.triple(w, u, v) == T.triple(v, w, u)
