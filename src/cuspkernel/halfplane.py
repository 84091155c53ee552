"""Primitives for the upper half-plane and the integer Moebius group.

Everything here is pure, deterministic double-precision arithmetic: the
Moebius action of SL(2,Z), the point-pair invariant u, hyperbolic distance
and the automorphy factor cz+d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


# the smallest positive normal double, sys.float_info.min
_MIN_NORMAL = 2.2250738585072014e-308


@dataclass(frozen=True)
class Point:
    """A point x + iy of the upper half-plane (finite, y > 0)."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x!r}, {self.y!r})")
        if self.y <= 0.0:
            raise ValueError(f"imaginary part must be positive, got {self.y!r}")

    @property
    def as_complex(self) -> complex:
        return complex(self.x, self.y)


@dataclass(frozen=True)
class GammaMatrix:
    """An integer matrix (a, b; c, d) with determinant 1.

    Trace classification identifies +/-g: |a+d| in {0, 1} is elliptic,
    |a+d| == 2 is parabolic (or the identity), |a+d| >= 3 is hyperbolic.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for entry in (self.a, self.b, self.c, self.d):
            if not isinstance(entry, int):
                raise TypeError(f"matrix entries must be int, got {entry!r}")
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(
                f"determinant must be 1: ({self.a},{self.b};{self.c},{self.d})"
            )

    @classmethod
    def identity(cls) -> "GammaMatrix":
        return cls(1, 0, 0, 1)

    @classmethod
    def S(cls) -> "GammaMatrix":
        """Inversion z -> -1/z."""
        return cls(0, -1, 1, 0)

    @classmethod
    def T(cls, m: int = 1) -> "GammaMatrix":
        """Translation z -> z + m."""
        return cls(1, m, 0, 1)

    @property
    def trace(self) -> int:
        return self.a + self.d

    @property
    def trace_class(self) -> str:
        t = abs(self.trace)
        if t < 2:
            return "elliptic"
        if t == 2:
            return "parabolic"
        return "hyperbolic"

    def __mul__(self, other: "GammaMatrix") -> "GammaMatrix":
        return GammaMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "GammaMatrix":
        # -g also has determinant 1 and acts identically on H
        return GammaMatrix(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "GammaMatrix":
        return GammaMatrix(self.d, -self.b, -self.c, self.a)

    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)


def moebius_apply(g: GammaMatrix, z: Point) -> Point:
    """Apply (az+b)/(cz+d).

    The imaginary part is computed as y/|cz+d|^2 directly, which keeps it
    exactly positive and matches the invariant Im(gz) = Im z / |j(g,z)|^2.
    Only when |cz+d|^2 overflows (|cz+d| above about 1e154) are cz+d and
    az+b first divided by s = max(|Re|, |Im|) of cz+d.
    """
    cr = g.c * z.x + g.d
    ci = g.c * z.y
    q = cr * cr + ci * ci
    nr = g.a * z.x + g.b
    ni = g.a * z.y
    if q == math.inf:
        s = max(abs(cr), abs(ci))
        cr, ci, nr, ni = cr / s, ci / s, nr / s, ni / s
        q = cr * cr + ci * ci
        return Point((nr * cr + ni * ci) / q, z.y / s / s / q)
    x_new = (nr * cr + ni * ci) / q
    y_new = z.y / q
    return Point(x_new, y_new)


def pair_invariant(z: Point, w: Point) -> float:
    """u(z, w) = |z - w|^2 / (4 Im z Im w); nonnegative, Gamma-invariant.

    Only where 4 Im z Im w overflows (Im z Im w above about 4.5e307) or
    underflows below the normal range (Im z Im w below about 5.6e-309) is
    u taken as the square of _root_invariant instead, or inf where that
    square overflows.
    """
    dx = z.x - w.x
    dy = z.y - w.y
    den = 4.0 * z.y * w.y
    if not _MIN_NORMAL <= den < math.inf:
        try:
            return _root_invariant(z, w) ** 2
        except OverflowError:
            return math.inf
    return (dx * dx + dy * dy) / den


def _root_invariant(z: Point, w: Point) -> float:
    """sqrt(u(z, w)) = |z - w| / (2 sqrt(Im z) sqrt(Im w)), with no square
    that could overflow or underflow on the way.  Where Re z - Re w
    overflows, both differences are taken of halves, exactly."""
    dx, dy, two = z.x - w.x, z.y - w.y, 2.0
    if math.isinf(dx):
        dx, dy, two = 0.5 * z.x - 0.5 * w.x, 0.5 * z.y - 0.5 * w.y, 1.0
    return math.hypot(dx, dy) / (two * math.sqrt(z.y) * math.sqrt(w.y))


def hyp_distance(z: Point, w: Point) -> float:
    """Hyperbolic distance, via cosh d = 2u + 1.

    Evaluated as 2*asinh(sqrt(u)), which is exact at u = 0 and loses no
    digits for nearby points, unlike acosh(1 + 2u).  Where 4 Im z Im w is
    not a normal double, or u itself overflows, sqrt(u) comes from
    _root_invariant: two points 1e-300 apart far up the cusp are not at
    distance 0, and 1e200 i and 1e-200 i are at distance 400 log 10, not
    inf.  Down at 1e-300 i and 0.1 + 1e-300 i the distance is 598 log 10,
    and 1e308 + i and -1e308 + i are about 1420 apart, not inf.
    """
    if _MIN_NORMAL <= 4.0 * z.y * w.y < math.inf:
        r = math.sqrt(pair_invariant(z, w))
        if r < math.inf:
            return 2.0 * math.asinh(r)
    return 2.0 * math.asinh(_root_invariant(z, w))


def u_from_distance(d: float) -> float:
    """Pair-invariant value corresponding to a hyperbolic distance."""
    s = math.sinh(0.5 * d)
    return s * s


def fixed_point(g: GammaMatrix) -> Point:
    """Upper half-plane fixed point of an elliptic matrix.

    Roots of c z^2 + (d - a) z - b = 0; the discriminant (a+d)^2 - 4 is
    negative exactly in the elliptic case, and the root with positive
    imaginary part is returned.
    """
    if g.trace_class != "elliptic":
        raise ValueError(f"matrix is not elliptic: trace {g.trace}")
    if g.c == 0:
        # cannot happen for det-1 integer matrices with |trace| < 2
        raise ValueError("elliptic matrix must have c != 0")
    disc = g.trace * g.trace - 4
    x = (g.a - g.d) / (2.0 * g.c)
    y = math.sqrt(-disc) / (2.0 * abs(g.c))
    return Point(x, y)


def automorphy_factor(g: GammaMatrix, z: Point) -> complex:
    """The factor j(g, z) = cz + d."""
    return complex(g.c * z.x + g.d, g.c * z.y)
