from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circletriples.circle import (
    GAMMA_ELEMENTS,
    GAMMA_IDENTITY,
    I,
    MINUS_I,
    MINUS_ONE,
    ONE,
    CirclePoint,
    GammaElement,
    NormalizedTriple,
    gamma_orbit,
    is_unit,
    point_from_triple,
    pt,
    stereo_project,
    stereo_unproject,
    to_second_octant,
)

# nondegenerate rational circle points, via the rational parametrization
points = (
    st.fractions(min_value=-1000, max_value=1000, max_denominator=100)
    .map(stereo_unproject)
    .filter(lambda x: not is_unit(x))
)


def P(s, t):
    return CirclePoint(Fraction(s), Fraction(t))


class TestConstruction:
    def test_accepts_on_circle(self):
        assert P("3/5", "4/5") == CirclePoint(Fraction(3, 5), Fraction(4, 5))
        assert P(1, 0) == ONE

    def test_rejects_off_circle(self):
        with pytest.raises(ValueError):
            P("1/2", "1/2")

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            CirclePoint(0.6, 0.8)


class TestGroupLaw:
    def test_square_matches_table(self):
        assert P("3/5", "4/5") ** 2 == P("-7/25", "24/25")

    def test_fourth_power_matches_table(self):
        assert P("3/5", "4/5") ** 4 == P("-527/625", "-336/625")

    def test_inverse(self):
        x = P("3/5", "4/5")
        assert x * x.inverse() == ONE
        assert x**-1 == x.inverse()

    @given(points, points)
    def test_closure_and_commutativity(self, x, y):
        assert x * y == y * x  # the product validating on-circle is the closure check

    @given(points, points, points)
    def test_associativity(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(points, st.integers(min_value=-6, max_value=6))
    def test_pow_is_iterated_product(self, x, e):
        expected = ONE
        step = x if e >= 0 else x.inverse()
        for _ in range(abs(e)):
            expected = expected * step
        assert x**e == expected

    @given(points)
    def test_no_small_torsion_outside_units(self, x):
        y = ONE
        for _ in range(24):
            y = y * x
            assert y != ONE


class TestUnits:
    def test_unit_examples(self):
        assert is_unit(MINUS_I)
        assert not is_unit(P("3/5", "4/5"))
        assert not is_unit(P("-15/17", "8/17"))


class TestGamma:
    def test_order_eight_and_closure(self):
        assert len(set(GAMMA_ELEMENTS)) == 8
        composites = {g.compose(h) for g, h in product(GAMMA_ELEMENTS, repeat=2)}
        assert composites == set(GAMMA_ELEMENTS)

    def test_compose_matches_apply(self):
        x = P("3/5", "4/5")
        for g, h in product(GAMMA_ELEMENTS, repeat=2):
            assert g.compose(h).apply(x) == g.apply(h.apply(x))

    def test_nonabelian(self):
        rot = GammaElement(1, False)
        conj = GammaElement(0, True)
        assert rot.compose(conj) != conj.compose(rot)

    def test_orbit_contains_negated_conjugate(self):
        orbit = gamma_orbit(P("3/5", "4/5"))
        assert len(orbit) == 8
        assert P("-3/5", "4/5") in orbit

    def test_unit_orbit_is_the_unit_group(self):
        assert gamma_orbit(ONE) == {ONE, I, MINUS_ONE, MINUS_I}

    def test_orbit_of_squared_point(self):
        assert len(gamma_orbit(P("-7/25", "24/25"))) == 8

    @given(points)
    def test_orbit_size_is_exactly_eight(self, x):
        assert len(gamma_orbit(x)) == 8


class TestSecondOctant:
    def test_moves_into_octant(self):
        y, g = to_second_octant(P("-3/5", "4/5"))
        assert y == P("3/5", "4/5")
        assert g.apply(P("-3/5", "4/5")) == y

    def test_example_with_conjugation(self):
        y, _ = to_second_octant(P("161/289", "-240/289"))
        assert y == P("161/289", "240/289")

    def test_fixed_point(self):
        y, g = to_second_octant(P("3/5", "4/5"))
        assert y == P("3/5", "4/5")
        assert g == GAMMA_IDENTITY

    def test_rejects_units(self):
        with pytest.raises(ValueError):
            to_second_octant(I)

    def test_single_image_certificate_survives_optimization(self, monkeypatch):
        monkeypatch.setattr("circletriples.circle.GAMMA_ELEMENTS", GAMMA_ELEMENTS * 2)
        with pytest.raises(ArithmeticError, match="2 images"):
            to_second_octant(P("3/5", "4/5"))


class TestPt:
    def test_examples(self):
        assert pt(P("-7/25", "24/25")) == NormalizedTriple(7, 24, 25)
        assert pt(P("-117/125", "44/125")) == NormalizedTriple(44, 117, 125)
        assert pt(P("161/289", "-240/289")) == NormalizedTriple(161, 240, 289)

    def test_rejects_units_naming_them(self):
        with pytest.raises(ValueError, match="1, i, -1, -i"):
            pt(MINUS_ONE)

    @given(points)
    def test_gamma_invariance(self, x):
        expected = pt(x)
        for g in GAMMA_ELEMENTS:
            assert pt(g.apply(x)) == expected


class TestTripleRoundtrip:
    def test_point_from_triple_examples(self):
        assert point_from_triple(NormalizedTriple(3, 4, 5)) == P("3/5", "4/5")
        assert point_from_triple(NormalizedTriple(7, 24, 25)) == P("7/25", "24/25")
        assert point_from_triple(NormalizedTriple(161, 240, 289)) == P("161/289", "240/289")

    def test_validator_rejects_bad_triples(self):
        with pytest.raises(ValueError, match="a < b"):
            NormalizedTriple(4, 3, 5)
        with pytest.raises(ValueError, match="common factor"):
            NormalizedTriple(6, 8, 10)
        with pytest.raises(ValueError):
            NormalizedTriple(3, 4, 6)

    @given(points)
    def test_pt_then_point_roundtrip(self, x):
        t = pt(x)
        assert pt(point_from_triple(t)) == t


class TestStereographic:
    def test_examples(self):
        assert stereo_project(MINUS_I) == 0
        assert stereo_project(ONE) == 1
        assert stereo_project(P("3/5", "4/5")) == 3

    def test_unproject_examples(self):
        assert stereo_unproject(0) == MINUS_I
        assert stereo_unproject(3) == P("3/5", "4/5")
        assert stereo_unproject(1) == ONE

    def test_focus_has_no_projection(self):
        with pytest.raises(ValueError):
            stereo_project(I)

    @given(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4))
    def test_project_after_unproject(self, r):
        assert stereo_project(stereo_unproject(r)) == r

    @given(points)
    def test_unproject_after_project(self, x):
        assert stereo_unproject(stereo_project(x)) == x
