"""Tests for the half-plane primitives."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cuspkernel import (
    GammaMatrix,
    Point,
    automorphy_factor,
    fixed_point,
    hyp_distance,
    moebius_apply,
    pair_invariant,
)

S = GammaMatrix.S()
T = GammaMatrix.T()
I2 = GammaMatrix.identity()


def rng():
    return np.random.Generator(np.random.Philox(20250809))


def random_gamma(gen, entry_bound=20, m_range=3):
    """A pseudo-random group element via a coprime bottom row."""
    while True:
        c = int(gen.integers(0, entry_bound))
        d = int(gen.integers(-entry_bound, entry_bound + 1))
        if (c, d) != (0, 0) and math.gcd(c, d) == 1:
            break
    if c == 0:
        g = GammaMatrix(d, 0, 0, d)  # +/- identity coset
    else:
        a = pow(d % c, -1, c) if c > 1 else 0
        b = (a * d - 1) // c
        g = GammaMatrix(a, b, c, d)
    m = int(gen.integers(-m_range, m_range + 1))
    g = GammaMatrix.T(m) * g
    if gen.integers(0, 2):
        g = -g
    return g


def random_point(gen, y_lo=0.1, y_hi=3.0):
    return Point(float(gen.uniform(-2, 2)), float(gen.uniform(y_lo, y_hi)))


class TestPoint:
    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            Point(0.0, -1.0)
        with pytest.raises(ValueError):
            Point(0.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Point(math.nan, 1.0)
        with pytest.raises(ValueError):
            Point(0.0, math.inf)


class TestGammaMatrix:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            GammaMatrix(1, 1, 1, 1)

    @pytest.mark.parametrize(
        "g, cls",
        [
            (S, "elliptic"),
            (GammaMatrix(1, -1, 1, 0), "elliptic"),
            (T, "parabolic"),
            (I2, "parabolic"),
            (GammaMatrix(2, 1, 1, 1), "hyperbolic"),
        ],
    )
    def test_trace_classification(self, g, cls):
        assert g.trace_class == cls
        assert (-g).trace_class == cls  # +/- identified

    def test_inverse(self):
        gen = rng()
        for _ in range(50):
            g = random_gamma(gen)
            assert (g * g.inverse()).entries() == (1, 0, 0, 1)


class TestMoebius:
    def test_examples(self):
        w = moebius_apply(S, Point(0, 2))
        assert abs(w.x) < 1e-15 and abs(w.y - 0.5) < 1e-15
        w = moebius_apply(T, Point(0, 1))
        assert w.x == 1.0 and w.y == 1.0
        w = moebius_apply(GammaMatrix(2, 1, 1, 1), Point(0, 1))
        np.testing.assert_allclose((w.x, w.y), (1.5, 0.5), rtol=1e-15)

    def test_imaginary_part_identity(self):
        gen = rng()
        for _ in range(200):
            g, z = random_gamma(gen), random_point(gen)
            w = moebius_apply(g, z)
            j = automorphy_factor(g, z)
            np.testing.assert_allclose(w.y, z.y / abs(j) ** 2, rtol=1e-12)

    @pytest.mark.parametrize("y", [1e155, 1e160, 1e300])
    def test_far_up_the_cusp(self, y):
        # |cz+d|^2 overflows a double here although the image is
        # representable; compare with the exact rational image
        z = Point(0.1, y)
        X, Y = Fraction(z.x), Fraction(z.y)
        for g in (S, GammaMatrix(2, 1, 1, 1), GammaMatrix(1, 0, 3, 1),
                  GammaMatrix(-1, 0, -2, -1)):
            w = moebius_apply(g, z)
            q = (g.c * X + g.d) ** 2 + (g.c * Y) ** 2
            x_ref = ((g.a * X + g.b) * (g.c * X + g.d) + g.a * g.c * Y * Y) / q
            assert w.y == pytest.approx(float(Y / q), rel=1e-15)
            x_ref = float(x_ref)
            assert abs(w.x - x_ref) <= 1e-15 * abs(x_ref) + 1e-320


class TestPairInvariant:
    def test_examples(self):
        assert pair_invariant(Point(0, 1), Point(0, 1)) == 0.0
        assert pair_invariant(Point(0, 1), Point(0, 2)) == 0.125

    def test_symmetry_and_vanishing(self):
        gen = rng()
        for _ in range(100):
            z, w = random_point(gen), random_point(gen)
            assert pair_invariant(z, w) == pair_invariant(w, z)
            assert pair_invariant(z, w) > 0.0

    def test_group_invariance(self):
        g = GammaMatrix(2, 1, 1, 1)
        z, w = Point(0, 1), Point(1, 2)
        u1 = pair_invariant(z, w)
        u2 = pair_invariant(moebius_apply(g, z), moebius_apply(g, w))
        assert abs(u1 - u2) < 1e-12 * (1 + u1)

    def test_group_invariance_random(self):
        gen = rng()
        for _ in range(300):
            g, z, w = random_gamma(gen), random_point(gen), random_point(gen)
            u1 = pair_invariant(z, w)
            u2 = pair_invariant(moebius_apply(g, z), moebius_apply(g, w))
            assert abs(u1 - u2) < 1e-12 * (1 + u1)


class TestDistance:
    def test_vertical_geodesic(self):
        np.testing.assert_allclose(
            hyp_distance(Point(0, 1), Point(0, 4)), math.log(4), rtol=1e-15
        )

    def test_coincident(self):
        assert hyp_distance(Point(0.3, 0.8), Point(0.3, 0.8)) == 0.0

    @pytest.mark.parametrize("y", [1e155, 1e300])
    def test_far_up_the_cusp(self, y):
        # 4 Im z Im w overflows here; the true distance of z and z + 1 is
        # 2 asinh(1/(2y)), about 1/y, not 0
        z, w = Point(0.1, y), Point(1.1, y)
        want = 2.0 * math.asinh(1.0 / (2.0 * y))
        assert hyp_distance(z, w) == pytest.approx(want, rel=1e-15, abs=0.0)
        assert hyp_distance(w, z) == pytest.approx(want, rel=1e-15, abs=0.0)
        assert pair_invariant(z, w) == pytest.approx(
            math.sinh(want / 2.0) ** 2, rel=1e-15, abs=1e-320)

    def test_invariant_past_the_double_range(self):
        # u = 1e400 / 4 overflows although the distance, 400 log 10, is
        # finite; sqrt(u) = 5e199 is still a double
        z, w = Point(0.0, 1e200), Point(0.0, 1e-200)
        assert hyp_distance(z, w) == 921.0340371976183
        assert hyp_distance(w, z) == 921.0340371976183
        assert hyp_distance(z, w) == pytest.approx(400.0 * math.log(10.0),
                                                   rel=1e-15)

    def test_invariant_below_the_normal_range(self):
        # 4 Im z Im w = 4e-600 underflows to 0: u = 2.5e597 is inf, but
        # sqrt(u) = 5e298 and the distance are doubles
        z, w = Point(0.0, 1e-300), Point(0.1, 1e-300)
        assert pair_invariant(z, w) == math.inf
        assert hyp_distance(z, w) == pytest.approx(
            2.0 * math.log(1e299), rel=1e-15)
        # 4e-320 is subnormal: u = 1/4, exactly, from the rescaled root
        assert pair_invariant(Point(0.0, 1e-160), Point(1e-160, 1e-160)) == 0.25

    def test_difference_past_the_double_range(self):
        # Re z - Re w = 2e308 overflows; sqrt(u) = 1e308 does not
        z, w = Point(1e308, 1.0), Point(-1e308, 1.0)
        assert hyp_distance(z, w) == pytest.approx(
            2.0 * (math.log(1e308) + math.log(2.0)), rel=1e-15)
        assert hyp_distance(w, z) == hyp_distance(z, w)

    def test_quarter_invariant(self):
        np.testing.assert_allclose(
            hyp_distance(Point(0, 1), Point(1, 1)), math.acosh(1.5), rtol=1e-15
        )

    def test_metric_on_random_triples(self):
        gen = rng()
        for _ in range(1000):
            a, b, c = (random_point(gen) for _ in range(3))
            dab, dba = hyp_distance(a, b), hyp_distance(b, a)
            assert dab == dba  # symmetric by construction
            assert hyp_distance(a, c) <= dab + hyp_distance(b, c) + 1e-12


class TestFixedPoint:
    def test_inversion_fixes_i(self):
        p = fixed_point(S)
        np.testing.assert_allclose((p.x, p.y), (0.0, 1.0), atol=1e-15)

    def test_order_six_point(self):
        p = fixed_point(GammaMatrix(1, -1, 1, 0))
        np.testing.assert_allclose((p.x, p.y), (0.5, math.sqrt(3) / 2), rtol=1e-15)

    def test_third_elliptic_conjugate(self):
        # oracle: roots of c z^2 + (d-a) z - b with the positive branch
        g = GammaMatrix(0, -1, 1, -1)
        roots = np.roots([g.c, g.d - g.a, -g.b])
        expected = next(r for r in roots if r.imag > 0)
        p = fixed_point(g)
        np.testing.assert_allclose((p.x, p.y), (expected.real, expected.imag),
                                   rtol=1e-12)
        # cross-check: g fixes its fixed point
        q = moebius_apply(g, p)
        assert hyp_distance(p, q) < 1e-12

    def test_rejects_non_elliptic(self):
        with pytest.raises(ValueError):
            fixed_point(T)
        with pytest.raises(ValueError):
            fixed_point(GammaMatrix(2, 1, 1, 1))


class TestAutomorphyFactor:
    def test_examples(self):
        assert automorphy_factor(T, Point(0, 1)) == 1.0
        assert automorphy_factor(S, Point(0, 1)) == 1j

    def test_cocycle(self):
        z = Point(0.3, 0.7)
        lhs = automorphy_factor(S * T, z)
        rhs = automorphy_factor(S, moebius_apply(T, z)) * automorphy_factor(T, z)
        assert abs(lhs - rhs) < 1e-12

    def test_cocycle_random(self):
        gen = rng()
        for _ in range(200):
            g1, g2, z = random_gamma(gen), random_gamma(gen), random_point(gen)
            lhs = automorphy_factor(g1 * g2, z)
            rhs = automorphy_factor(g1, moebius_apply(g2, z)) * automorphy_factor(g2, z)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs) + 1e-12
