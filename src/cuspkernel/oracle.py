"""Independent weight-12 oracle: the discriminant form via its q-expansion.

This module never touches the kernel lattice sum: coefficients come from
the 24th power of the pentagonal-number series, evaluation from the
q-expansion with a certified tail, and the Petersson norm from the
Petersson formula, one Kloosterman-Bessel series summed to a cut-off whose
rest is bounded in closed form.  Its coprime-d loop over each modulus is
its own, not the kernel's coset enumeration.  The one function that
compares the two code paths, verify_pretrace, imports the kernel locally
so the independence of the module is auditable.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

import mpmath as mp

from .errors import TailTooLarge
from .halfplane import Point

# working precision (decimal digits) of the extended-precision paths
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


_delta_cache: dict = {}


def delta_coeffs(N: int) -> tuple:
    """Exact coefficients (a(1), ..., a(N)) of the weight-12 discriminant form.

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
    return tuple(cached[:N])


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
        coeffs = delta_coeffs(N)
        q = mp.e ** (2j * mp.pi * mp.mpc(z.x, z.y))
        acc = mp.mpc(0)
        for n in range(N, 0, -1):
            acc = (acc + coeffs[n - 1]) * q
        return acc


@dataclass(frozen=True)
class PeterssonNorm:
    value: float
    error_bound: float
    nodes: int  # Kloosterman moduli c summed


# The rest of the Kloosterman-Bessel series beyond modulus C is at most
# _REST_SCALE / C^10; the series is cut where that falls below _REST, four
# orders under the double floor of the norm (the series itself is about 2.85)
_REST_SCALE = (2.0 * math.pi) ** 12 / (math.factorial(11) * 10.0)
_REST = 1e-20


def _kloosterman(c: int):
    """The Kloosterman sum S(1, 1; c), the sum of cos(2 pi (d + d')/c) over
    d mod c coprime to c with d d' = 1 mod c, at working precision; each
    residue d + d' mod c costs one cosine."""
    counts = Counter((d + pow(d, -1, c)) % c
                     for d in range(c) if math.gcd(d, c) == 1)
    return mp.fsum(n * mp.cospi(mp.mpf(2 * r) / c) for r, n in counts.items())


@functools.lru_cache(maxsize=None)
def _norm(C: int) -> PeterssonNorm:
    """The norm from the Kloosterman-Bessel series summed over c <= C.

    The rest is bounded with |S(1, 1; c)| <= phi(c) < c and |J_11(x)| <=
    (x/2)^11/11! (DLMF 10.14.4): 2 pi (2 pi)^11/11! times the sum of c^-11
    over c > C, at most _REST_SCALE/C^10.  A rest r of the series s moves
    G/s by at most (G/s) r/(s - r).  The floor of 1e-16 relative covers the
    30-digit arithmetic and the rounding to a double (3.8e-17 relative at
    C = 126).
    """
    with mp.workdps(_DPS):
        series = 1 + 2 * mp.pi * mp.fsum(
            _kloosterman(c) / c * mp.besselj(11, 4 * mp.pi / c)
            for c in range(1, C + 1))
        value = float(mp.gamma(11) / (4 * mp.pi) ** 11 / series)
    rest = _REST_SCALE / C ** 10
    err = value * rest / (float(series) - rest) + 1e-16 * value
    if not 0.0 <= err < math.inf:
        raise TailTooLarge(f"norm error bound {err} at cut-off C = {C}")
    return PeterssonNorm(value, err, C)


def petersson_norm_delta(tol: float = 1e-10) -> PeterssonNorm:
    """The squared Petersson norm of the discriminant form, to a relative
    error bound of at most tol.

    The Petersson formula (Iwaniec, Topics in Classical Automorphic Forms,
    Thm 3.6) at weight 12 and m = n = 1, where S_12 is spanned by Delta
    with a(1) = 1, gives <Delta, Delta> = G/s with G = Gamma(11)/(4 pi)^11
    and s = 1 + 2 pi sum_{c >= 1} S(1, 1; c)/c J_11(4 pi/c).  The cut-off
    C is the smallest whose certified rest is below _REST (C = 126); the
    one result is cached, and tol only gates it.
    """
    if not 1e-12 <= tol < math.inf:
        raise ValueError(f"tol must be finite and at least 1e-12, got {tol!r}")
    result = _norm(math.ceil((_REST_SCALE / _REST) ** 0.1))
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
