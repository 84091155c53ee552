"""Independent weight-12 oracle: the discriminant form via its q-expansion.

This module never touches the kernel lattice sum: coefficients come from
the 24th power of the pentagonal-number series, evaluation from the
q-expansion with a certified tail, and the Petersson norm from the
fundamental domain integrated exactly in x and by extended-precision
quadrature in y.  At each height y the x-integral of |Delta|^2 is the
diagonal sum of u_n^2 plus the lag autocorrelations sum_m u_m u_{m+d} of
u_n = a_n e^{-2 pi n y}, weighted by sin(2 pi d x0)/(pi d) where the arc
cuts the strip at |x| = x0: one exponential and N - 1 sines per node.  The
one function that compares the two code paths, verify_pretrace, imports
the kernel locally so the independence of the module is auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

from .errors import TailTooLarge
from .halfplane import Point

SQRT3_2 = math.sqrt(3.0) / 2.0

# working precision (decimal digits) of the extended-precision paths; the
# Petersson norm also runs at _DPS + 10 to estimate its quadrature error
_DPS = 30


def _euler_series(n_terms: int) -> list:
    """Coefficients of prod (1 - q^n) up to q^(n_terms-1), by pentagonal numbers."""
    coeffs = [0] * n_terms
    coeffs[0] = 1
    j = 1
    while True:
        done = True
        for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if g < n_terms:
                coeffs[g] += -1 if j % 2 else 1
                done = False
        if done:
            break
        j += 1
    return coeffs


def _mul_trunc(a: list, b: list, n: int) -> list:
    out = [0] * n
    for i, ai in enumerate(a):
        if ai == 0 or i >= n:
            continue
        top = min(n - i, len(b))
        for j in range(top):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


@dataclass(frozen=True)
class QExpansion:
    """Integer Fourier coefficients a(1..N) of a weight-k eigenform."""

    weight: int
    coeffs: tuple  # a(1), a(2), ..., a(N)
    N: int

    def a(self, n: int) -> int:
        if not 1 <= n <= self.N:
            raise IndexError(f"coefficient a({n}) beyond truncation {self.N}")
        return self.coeffs[n - 1]


_delta_cache: dict = {}


def delta_coeffs(N: int) -> QExpansion:
    """Exact coefficients of the weight-12 discriminant form up to a(N).

    q * prod (1-q^n)^24, computed by square-and-multiply on truncated
    integer series; Python integers keep everything exact.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    cached = _delta_cache.get("coeffs")
    if cached is None or len(cached) < N:
        e1 = _euler_series(N)
        e2 = _mul_trunc(e1, e1, N)
        e4 = _mul_trunc(e2, e2, N)
        e8 = _mul_trunc(e4, e4, N)
        e16 = _mul_trunc(e8, e8, N)
        e24 = _mul_trunc(e16, e8, N)
        _delta_cache["coeffs"] = e24  # a(n) = e24[n-1] after the q shift
        cached = e24
    return QExpansion(12, tuple(cached[:N]), N)


def _coeff_tail_bound(N: int, y: float) -> float:
    """Upper bound on sum_{n>N} |a(n)| e^{-2 pi n y}, using |a(n)| <= n^{15/2}."""
    x = math.exp(-2.0 * math.pi * y)
    first = (N + 1) ** 7.5 * x ** (N + 1)
    ratio = x * ((N + 2) / (N + 1)) ** 7.5
    if ratio >= 1.0:
        return math.inf
    return first / (1.0 - ratio)


def eval_delta_mp(z: Point):
    """The discriminant form at z, sum of a(n) e^{2 pi i n z}, in extended
    precision (mpmath), with the q-series tail certified below
    10^-(_DPS+2) of the leading term."""
    with mp.workdps(_DPS + 8):
        y = mp.mpf(z.y)
        lead = mp.e ** (-2 * mp.pi * y)
        target = lead * mp.mpf(10) ** (-(_DPS + 2))
        N = 10
        while _coeff_tail_bound(N, z.y) > float(target):
            N += 5
            if N > 20_000:
                raise TailTooLarge("cannot certify the q-series tail")
        qexp = delta_coeffs(N)
        q = mp.e ** (2j * mp.pi * mp.mpc(z.x, z.y))
        acc = mp.mpc(0)
        for n in range(N, 0, -1):
            acc = (acc + qexp.coeffs[n - 1]) * q
        return acc


@dataclass(frozen=True)
class PeterssonNorm:
    value: float
    error_bound: float
    nodes: int


_norm_cache: dict = {}


def _x_integrated_square(y, x0, coeffs):
    """The integral of |sum_n a_n e^{2 pi i n (x + iy)}|^2 over
    x0 <= |x| <= 1/2, at working precision.

    With q = e^{-2 pi y} and u_n = a_n q^n, the diagonal Fourier pairs give
    (1 - 2 x0) sum u_n^2 and the pairs (m, m + d) give
    -2 sin(2 pi d x0)/(pi d) times the lag-d autocorrelation
    sum_m u_m u_{m+d}: one exponential and N - 1 sines per height.
    """
    q = mp.e ** (-2 * mp.pi * y)
    u = []
    qn = mp.mpf(1)
    for a in coeffs:
        qn *= q
        u.append(a * qn)
    total = (1 - 2 * x0) * mp.fdot(u, u)
    if x0 > 0:
        lags = [mp.fdot(u[:-d], u[d:]) for d in range(1, len(u))]
        pi = +mp.pi  # the constant, evaluated once at working precision
        sincs = [mp.sin(2 * pi * d * x0) / (pi * d) for d in range(1, len(u))]
        total -= 2 * mp.fdot(lags, sincs)
    return total


def _series_tails(N: int, y_cut: float) -> float:
    """Certified bound on what the norm omits beyond a(N): the Fourier pairs
    of the lens and the band below y_cut (each pair shell s weighted by
    int y^10 e^{-2 pi s y} dy from the lowest height up) and the
    coefficients of the strip above it."""
    lens_tail = 0.0
    s = N + 1
    while True:
        # the shell's height integral is Gamma(11, a)/(2 pi s)^11 at most,
        # with a = pi sqrt(3) s >= 20 and Gamma(11, a) <= 2 a^10 e^-a
        a = 2.0 * math.pi * SQRT3_2 * s
        t = (s ** 16 / 2.0 ** 15) * 2.0 * a ** 10 * math.exp(-a) / (
            2.0 * math.pi * s) ** 11
        lens_tail += t
        ratio = math.exp(-2.0 * math.pi * SQRT3_2) * ((s + 1) / s) ** 15
        if ratio < 1.0 and t < 1e-60:
            lens_tail += t * ratio / (1.0 - ratio)
            break
        s += 1
        if s > N + 10_000:
            break
    strip_tail = 0.0
    n = N + 1
    while 4.0 * math.pi * n * y_cut > 20.0:
        # Gamma(11, a) <= 2 a^10 e^-a for a >= 20; y_cut^10 joins the
        # exponent so that it cannot overflow while e^-a underflows
        t = n ** 14 * 2.0 * math.exp(
            10.0 * math.log(y_cut) - 4.0 * math.pi * n * y_cut
        ) / (4.0 * math.pi)
        strip_tail += t
        ratio = math.exp(-4.0 * math.pi * y_cut) * ((n + 1) / n) ** 14
        if ratio < 1.0 and t < 1e-60:
            strip_tail += t * ratio / (1.0 - ratio)
            break
        n += 1
        if n > N + 10_000:
            break
    return lens_tail + strip_tail


def _norm_at(y_cut: float) -> PeterssonNorm:
    """The norm with its error bound, split at height y_cut."""
    N = 30
    qexp = delta_coeffs(N)
    nodes = 0

    def compute(working_dps: int):
        nonlocal nodes
        with mp.workdps(working_dps):
            pi4 = 4 * mp.pi
            # strip above y_cut: sum_n a_n^2 Gamma(11, 4 pi n y_cut)/(4 pi n)^11
            strip = mp.mpf(0)
            for n in range(1, N + 1):
                s = pi4 * n
                strip += mp.mpf(qexp.coeffs[n - 1]) ** 2 * mp.gammainc(
                    11, s * y_cut
                ) / s ** 11

            def lens_integrand(y):
                nonlocal nodes
                nodes += 1
                x0 = mp.sqrt(1 - y * y) if y < 1 else mp.mpf(0)
                return y ** 10 * _x_integrated_square(y, x0, qexp.coeffs)

            lens, lens_err = mp.quad(
                lens_integrand, [mp.sqrt(3) / 2, 1], error=True
            )
            mid = mp.mpf(0)
            mid_err = mp.mpf(0)
            if y_cut > 1.0:
                mid, mid_err = mp.quad(
                    lens_integrand, [1, mp.mpf(y_cut)], error=True
                )
            return strip + lens + mid, lens_err + mid_err

    v1, e1 = compute(_DPS)
    v2, e2 = compute(_DPS + 10)
    value = float(v2)
    err = (abs(float(v1 - v2)) + float(e1 + e2) + _series_tails(N, y_cut)
           + 1e-16 * value)  # floor at double-precision representation
    if not math.isfinite(err):
        raise TailTooLarge(f"norm error bound {err} at y_cut = {y_cut!r}")
    return PeterssonNorm(value, err, nodes)


def petersson_norm_delta(tol: float = 1e-10, y_cut: float = 1.0) -> PeterssonNorm:
    """The squared Petersson norm of the discriminant form, to a relative
    error bound of at most tol.

    Splits the fundamental domain at height y_cut: above it the x-integral
    diagonalizes the Fourier series exactly and the y-integral is a sum of
    upper incomplete gamma values; below it (down to the unit-circle arc)
    the x-integral over x0 <= |x| <= 1/2 is exact too, the diagonal plus
    one lag autocorrelation of the terms a_n q^n weighted by sines of
    2 pi d x0 (_x_integrated_square), and only the height integral is done
    numerically, with tanh-sinh quadrature in extended precision.  The
    reported error combines the quadrature estimates of two precision
    levels with the certified series tails.  One result is cached per
    y_cut; tol only gates it.
    """
    if not 1e-12 <= tol < math.inf:
        raise ValueError(f"tol must be finite and at least 1e-12, got {tol!r}")
    if not 1.0 <= y_cut < math.inf:
        raise ValueError(f"the height cut must be finite and >= 1, got {y_cut!r}")
    result = _norm_cache.get(y_cut)
    if result is None:
        result = _norm_cache[y_cut] = _norm_at(y_cut)
    if result.error_bound > tol * result.value:
        raise TailTooLarge(
            f"norm error bound {result.error_bound:.3e} exceeds tol*value "
            f"{tol * result.value:.3e}"
        )
    return result


def verify_pretrace(z: Point) -> float:
    """Relative residual between y^12 |Delta(z)|^2 / <Delta, Delta> and
    (11/(8 pi)) R_12(z, z), the two sides computed by independent paths:
    the kernel to a tail of 1e-14, the norm to a relative 1e-10."""
    from .kernel import WeightConfig, bergman_R  # local: keeps module independent

    norm = petersson_norm_delta(1e-10)
    with mp.workdps(_DPS):
        dval = eval_delta_mp(z)
        lhs = float(mp.mpf(z.y) ** 12 * abs(dval) ** 2 / mp.mpf(norm.value))
    res = bergman_R(z, z, WeightConfig(12, 1e-14))
    rhs = (11.0 / (8.0 * math.pi)) * res.value.real
    return abs(lhs - rhs) / abs(rhs)
