"""The group of rational points on the unit circle.

Points s + t*i with s, t rational and s**2 + t**2 = 1 form an abelian group
under complex multiplication. Every such point outside the four units
{1, i, -1, -i} encodes exactly one normalized Pythagorean triple; the eight
points of its orbit under the dihedral symmetry group (rotation by i and
conjugation) all encode the same triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("floats are not allowed; pass Fraction or int")
    return Fraction(x)


@dataclass(frozen=True)
class CirclePoint:
    """A point s + t*i on the unit circle with rational coordinates."""

    s: Fraction
    t: Fraction

    def __post_init__(self):
        object.__setattr__(self, "s", _as_fraction(self.s))
        object.__setattr__(self, "t", _as_fraction(self.t))
        if self.s * self.s + self.t * self.t != 1:
            raise ValueError(f"({self.s}, {self.t}) is not on the unit circle")

    def __mul__(self, other: "CirclePoint") -> "CirclePoint":
        return CirclePoint(
            self.s * other.s - self.t * other.t,
            self.s * other.t + self.t * other.s,
        )

    def conjugate(self) -> "CirclePoint":
        return CirclePoint(self.s, -self.t)

    # on the unit circle the inverse is the conjugate
    inverse = conjugate

    def __pow__(self, e: int) -> "CirclePoint":
        base = self if e >= 0 else self.inverse()
        e = abs(e)
        result = ONE
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __str__(self):
        return f"{self.s} {self.t}"


ONE = CirclePoint(Fraction(1), Fraction(0))
I = CirclePoint(Fraction(0), Fraction(1))
MINUS_ONE = CirclePoint(Fraction(-1), Fraction(0))
MINUS_I = CirclePoint(Fraction(0), Fraction(-1))

#: the four torsion points, indexed by the power of i they equal
UNIT_POINTS = (ONE, I, MINUS_ONE, MINUS_I)


def is_unit(x: CirclePoint) -> bool:
    return x in UNIT_POINTS


@dataclass(frozen=True)
class GammaElement:
    """A circle symmetry: rotate by i**rot, then conjugate if conj is set."""

    rot: int
    conj: bool

    def __post_init__(self):
        if self.rot not in (0, 1, 2, 3):
            raise ValueError("rot must be in {0, 1, 2, 3}")

    def apply(self, x: CirclePoint) -> CirclePoint:
        y = UNIT_POINTS[self.rot] * x
        return y.conjugate() if self.conj else y

    def compose(self, other: "GammaElement") -> "GammaElement":
        """The symmetry 'apply other, then self'."""
        rot = other.rot + (-self.rot if other.conj else self.rot)
        return GammaElement(rot % 4, self.conj ^ other.conj)


GAMMA_IDENTITY = GammaElement(0, False)
GAMMA_ELEMENTS = tuple(
    GammaElement(r, c) for c in (False, True) for r in (0, 1, 2, 3)
)


def gamma_orbit(x: CirclePoint) -> set[CirclePoint]:
    return {g.apply(x) for g in GAMMA_ELEMENTS}


@dataclass(frozen=True)
class NormalizedTriple:
    a: int
    b: int
    c: int

    def __post_init__(self):
        a, b, c = self.a, self.b, self.c
        if not (isinstance(a, int) and isinstance(b, int) and isinstance(c, int)):
            raise TypeError("triple entries must be integers")
        if not 0 < a < b < c:
            raise ValueError(
                f"need 0 < a < b < c, got ({a}, {b}, {c}); a <= b always "
                "sharpens to a < b, since a = b is impossible in integers"
            )
        if a * a + b * b != c * c:
            raise ValueError(f"({a}, {b}, {c}) is not a Pythagorean triple")
        if math.gcd(a, b, c) != 1:
            raise ValueError(f"({a}, {b}, {c}) has a common factor")
        if c % 2 == 0:
            raise ValueError(f"hypotenuse {c} is even, impossible when gcd is 1")

    def __str__(self):
        return f"{self.a} {self.b} {self.c}"


def to_second_octant(x: CirclePoint) -> tuple[CirclePoint, GammaElement]:
    """The unique symmetry image of x with 0 < s < t, and the symmetry.

    s = t never happens for a rational point (it would force s = sqrt(1/2)),
    so for any non-unit point exactly one of the eight images qualifies.
    """
    if is_unit(x):
        raise ValueError("units have no second-octant representative")
    hits = [(g.apply(x), g) for g in GAMMA_ELEMENTS]
    hits = [(y, g) for y, g in hits if 0 < y.s < y.t]
    if len(hits) != 1:
        raise ArithmeticError(f"to_second_octant({x}): {len(hits)} images have 0 < s < t, not 1")
    return hits[0]


def pt(x: CirclePoint) -> NormalizedTriple:
    """The normalized triple encoded by a non-unit rational circle point."""
    if is_unit(x):
        raise ValueError("1, i, -1, -i do not encode a triple")
    y, _ = to_second_octant(x)
    c = y.s.denominator
    if y.t.denominator != c:
        raise ArithmeticError(f"pt({x}): the coordinates of {y} have different denominators")
    return NormalizedTriple(y.s.numerator, y.t.numerator, c)


def point_from_triple(t: NormalizedTriple) -> CirclePoint:
    return CirclePoint(Fraction(t.a, t.c), Fraction(t.b, t.c))


def stereo_project(x: CirclePoint) -> Fraction:
    """Stereographic projection with focus i: x maps to s / (1 - t)."""
    if x == I:
        raise ValueError("the focus i has no projection")
    return x.s / (1 - x.t)


def stereo_unproject(r) -> CirclePoint:
    """Inverse projection: r maps to (2r/(1+r^2), (r^2-1)/(1+r^2))."""
    r = _as_fraction(r)
    d = 1 + r * r
    return CirclePoint(2 * r / d, (r * r - 1) / d)
