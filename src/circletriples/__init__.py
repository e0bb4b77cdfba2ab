"""Exact arithmetic on the rational unit circle and its Pythagorean triples."""

from .circle import (
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
from .exactmath import GaussianInt
from .oracle import brute_rational_points, brute_triples
from .primes import PrimeClass, classify, factorize, is_prime, two_squares
from .structure import (
    BasisFactorization,
    count_triples,
    enumerate_triples,
    factor_point,
    gaussian_factorize,
    hypotenuse_of,
    powers_table,
    recombine,
    zeta_p,
)

__version__ = "0.1.0"
