"""Independent weight-12 reference for checking the benchmark's outputs.

Nothing here imports cuspkernel.  The discriminant form is evaluated from
its product formula Delta(z) = q prod (1 - q^n)^24 after reducing z to the
standard fundamental domain, its coefficients tau(n) come from expanding
that same product, and its Petersson norm is the literature constant.  The
reference integrals of the equidistribution test functions are computed
with mpmath.quad (the 2-D bump in polar coordinates, where the angular
integral is closed-form).
"""

from __future__ import annotations

import cmath
import functools
import math

import mpmath as mp

# <Delta, Delta> = int_F y^12 |Delta|^2 dx dy / y^2
NORM_DELTA_SQ = 1.035362056804320922e-6
THREE_OVER_PI = 3.0 / math.pi
EPS = 2.0 ** -52


def apply(g, z: complex) -> complex:
    a, b, c, d = g
    return (a * z + b) / (c * z + d)


def reduce_to_fundamental(z: complex):
    """(z', g) with z' = g z in the closed standard fundamental domain
    |Re z'| <= 1/2, |z'| >= 1, and g = (a, b, c, d) in SL(2, Z)."""
    if not z.imag > 0.0:
        raise ValueError("z must lie in the upper half-plane")
    a, b, c, d = 1, 0, 0, 1
    for _ in range(10_000):
        n = math.floor(z.real + 0.5)
        if n:
            z -= n
            a, b = a - n * c, b - n * d
        if z.real * z.real + z.imag * z.imag < 1.0:
            z = -1.0 / z
            a, b, c, d = -c, -d, a, b
        else:
            return z, (a, b, c, d)
    raise RuntimeError("reduction did not terminate")


def log_delta(z: complex) -> complex:
    """log Delta(z), defined up to a multiple of 2 pi i.

    Delta(gz) = (cz + d)^12 Delta(z), so the product is evaluated at the
    reduced point, where |q| <= exp(-pi sqrt 3) and a handful of factors
    reach double precision.  Working with the logarithm keeps points far
    up the cusp (y in the thousands) from underflowing.
    """
    zr, (_, _, c, d) = reduce_to_fundamental(z)
    q = cmath.exp(2j * math.pi * zr)
    acc = 2j * math.pi * zr
    qn = q
    while abs(qn) > 1e-18:
        acc += 24.0 * cmath.log(1.0 - qn)
        qn *= q
    return acc - 12.0 * cmath.log(c * z + d)


def delta(z: complex) -> complex:
    return cmath.exp(log_delta(z))


def kernel_r12(z: complex, w: complex) -> complex:
    """R_12(z, w) = (8 pi / 11) (yv)^6 Delta(z) conj Delta(w) / <Delta, Delta>.

    The weight-12 cusp space is spanned by Delta alone, so the normalized
    reproducing kernel is this single product."""
    log_r = (math.log(8.0 * math.pi / 11.0) + 6.0 * math.log(z.imag * w.imag)
             + log_delta(z) + log_delta(w).conjugate() - math.log(NORM_DELTA_SQ))
    if log_r.real < -745.0:
        return 0j
    return cmath.exp(log_r)


def kernel_allowance(ref: complex, terms: int) -> float:
    """Rounding allowance for a kernel value summed from `terms` terms.

    The program sums exactly (fsum), so its rounding comes from the terms
    themselves: each has magnitude at most 1 and an error of a few ulps
    that varies from term to term, so the errors add like a random walk.
    The reference itself is good to a few ulps of |ref|."""
    return 16.0 * EPS * (abs(ref) + math.sqrt(terms))


def tau(n_max: int) -> list:
    """tau(1..n_max) by expanding q prod_{n <= n_max} (1 - q^n)^24."""
    poly = [1] + [0] * (n_max - 1)  # coefficients of q^0 .. q^(n_max-1)
    for n in range(1, n_max):
        for _ in range(24):
            for i in range(n_max - 1, n - 1, -1):
                poly[i] -= poly[i - n]
    return poly  # tau(j) = poly[j - 1]


@functools.cache
def _tau_table() -> tuple:
    return tuple(tau(80))


def horocycle_integral_k12(y: float) -> float:
    """int_{-1/2}^{1/2} of the weight-12 mass density at height y,
    y^12 sum tau(n)^2 exp(-4 pi n y) / <Delta, Delta> (Parseval)."""
    if y < 0.5:
        raise ValueError("the series reference needs y >= 0.5")
    terms = [t * t * math.exp(-4.0 * math.pi * (n + 1) * y)
             for n, t in enumerate(_tau_table())]
    if terms[-1] > 1e-30 * terms[0]:
        raise ValueError("too few tau(n) for this height")
    return y ** 12 * math.fsum(terms) / NORM_DELTA_SQ


def hyp_distance(z: complex, w: complex) -> float:
    return 2.0 * math.asinh(abs(z - w) / (2.0 * math.sqrt(z.imag * w.imag)))


def _bump(t):
    if abs(t) >= 1:
        return mp.mpf(0)
    return mp.exp(-1 / (1 - t * t))


def bump_integral(a: float, b: float, weight: str) -> float:
    """int_a^b psi, psi the flat bump exp(-1/(1-t^2)) rescaled to [a, b],
    against dy/y ("log") or dx ("lin")."""
    with mp.workdps(25):
        a_, b_ = mp.mpf(a), mp.mpf(b)

        def f(s):
            v = _bump((2 * s - (a_ + b_)) / (b_ - a_))
            return v / s if weight == "log" else v

        return float(mp.quad(f, [a_, b_]))


def region_integral(cx: float, cy: float, r: float) -> float:
    """int phi dx dy / y^2 for the radial bump of radius r about cx + i cy.

    In polar coordinates about the centre the angular integral is
    int_0^{2 pi} dt / (cy + rho sin t)^2 = 2 pi cy / (cy^2 - rho^2)^{3/2},
    which leaves one radial quadrature."""
    with mp.workdps(25):
        cy_, r_ = mp.mpf(cy), mp.mpf(r)

        def f(rho):
            return (_bump(rho / r_) * 2 * mp.pi * cy_ * rho
                    / (cy_ * cy_ - rho * rho) ** mp.mpf(1.5))

        return float(mp.quad(f, [0, r_]))


def elliptic_points(min_height: float) -> list:
    """Elliptic points of the strip |Re z| <= 1/2 down to min_height, as the
    images of i and e^{i pi/3} under matrices with small entries."""
    rho = complex(0.5, math.sqrt(3.0) / 2.0)
    found = set()
    for c in range(0, 6):
        for d in range(-6, 7):
            if math.gcd(c, d) != 1 or (c == 0 and d != 1):
                continue
            a = pow(d % c, -1, c) if c > 1 else (0 if c == 1 else 1)
            b = (a * d - 1) // c if c else 0
            for z0 in (1j, rho):
                p = apply((a, b, c, d), z0)
                if p.imag < min_height:
                    continue
                for m in (-1, 0, 1):
                    x = p.real - math.floor(p.real + 0.5) + m
                    if abs(x) <= 0.5 + 1e-12:
                        found.add((round(x, 12), round(p.imag, 12)))
    return [complex(x, y) for x, y in sorted(found)]
