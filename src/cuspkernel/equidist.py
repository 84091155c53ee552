"""Averaged-mass integrals along vertical geodesics, horizontal segments,
and compact plane regions, with certified per-node error accounting.

The density against the respective base measure is
(k-1)/(8 pi dim) * R_k(z, z); at a bulk point it approaches 2 * (k-1)/(8 pi dim)
-> 3/pi, which is the constant the integrals are compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    CuspKernelError,
    CutoffExceeded,
    NoCuspForms,
    SupportViolation,
)
from .halfplane import Point
from .kernel import WeightConfig, _libm, bergman_R, bergman_R_diagonal
from .modgroup import elliptic_points_in_strip
from .quadrature import adaptive

THREE_OVER_PI = 3.0 / math.pi


def dim_cusp_forms(k: int) -> int:
    """Dimension of the weight-k cusp space for the full modular group."""
    if k % 2 != 0:
        raise ValueError(f"weight must be even, got {k}")
    if k < 0:
        raise ValueError(f"weight must be nonnegative, got {k}")
    if k == 0:
        return 0
    dim_mk = k // 12 + (0 if k % 12 == 2 else 1)
    return max(dim_mk - 1, 0)


def _bump(t):
    """The standard flat template exp(-1/(1-t^2)) on (-1, 1), over an array
    (libm's exp, as in kernel._libm)."""
    out = np.zeros(t.shape)
    inside = np.abs(t) < 1.0
    t = t[inside]
    out[inside] = _libm(math.exp, -1.0 / (1.0 - t * t))
    return out


@dataclass
class TestFunction:
    """A 1-D test function on the interval [a, b]: a smooth bump or an
    indicator.  It carries no measure: the line it is integrated along
    supplies dy/y (vertical) or dx (horizontal)."""

    kind: str  # smooth_bump | indicator
    a: float
    b: float

    def __post_init__(self):
        if self.kind not in ("smooth_bump", "indicator"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"support [{self.a}, {self.b}] must be finite")
        if not self.b > self.a:
            raise ValueError("support must be a nonempty interval")

    @classmethod
    def bump(cls, a: float, b: float) -> "TestFunction":
        return cls("smooth_bump", a, b)

    @classmethod
    def indicator(cls, a: float, b: float) -> "TestFunction":
        return cls("indicator", a, b)

    def __call__(self, s):
        """psi at the nodes s (an array)."""
        s = np.asarray(s, dtype=np.float64)
        inside = ((self.a <= s) & (s <= self.b) if self.kind == "indicator"
                  else (self.a < s) & (s < self.b))
        t = (2.0 * s - (self.a + self.b)) / (self.b - self.a)
        return np.where(inside, self.in_own_variable(t), 0.0)

    def in_own_variable(self, t):
        """psi at s = (a + b)/2 + t (b - a)/2, for the nodes t (an array)."""
        return np.ones(np.shape(t)) if self.kind == "indicator" else _bump(t)


@dataclass
class BumpFunction2D:
    """A radial smooth bump in the plane with its dxdy/y^2 reference integral,
    one quadrature in rho: about cx + i cy a turn integrates in closed form,
    int dt / (cy + rho sin t)^2 = 2 pi cy / (cy^2 - rho^2)^{3/2}."""

    center_x: float
    center_y: float
    radius: float
    reference_integral: float = field(init=False)

    def __post_init__(self):
        cx, cy, r = self.center_x, self.center_y, self.radius
        if not all(map(math.isfinite, (cx, cy, r))):
            raise ValueError("center and radius must be finite")
        if not 0.0 < r < cy:
            raise ValueError("radius must be positive, support above y = 0")
        # below the resolution of the center every chord is one float, and
        # at these heights the radial integrand leaves the doubles
        if (cx - r == cx or cx + r == cx or cy - r == cy or cy + r == cy
                or not 0.0 < cy * cy * cy < math.inf):
            raise ValueError(f"radius {r} about {cx}+{cy}i is past the "
                             "resolution or the range of doubles")
        self.reference_integral = 2.0 * math.pi * cy * _reference(
            lambda rho: _bump(rho / r) * rho / (cy * cy - rho * rho) ** 1.5,
            0.0, r)

    def _chord(self, x: float) -> tuple:
        h2 = self.radius ** 2 - (x - self.center_x) ** 2
        if h2 <= 0.0:
            return (self.center_y, self.center_y)
        h = math.sqrt(h2)
        return (self.center_y - h, self.center_y + h)

    def __call__(self, x, y):
        """phi at the points x + iy (two arrays of one length)."""
        dx, dy = x - self.center_x, y - self.center_y
        return _bump(_libm(math.hypot, dx, dy) / self.radius)


def _reference(f, a: float, b: float) -> float:
    """int_a^b f to 1e-12 relative, or ValueError (a NaN fails too)."""
    ref, err, _, _ = adaptive(f, a, b, rtol=1e-13)
    if not (math.isfinite(ref) and err <= 1e-12 * abs(ref)):
        raise ValueError(f"reference integral {ref!r} did not converge to 1e-12")
    return ref


def _chord_integrals(phi, x, f, **kw):
    """The integrals of f(x, y) dy along the chords of phi's support at the
    abscissae x (an array), all in lockstep: (values, quadrature errors,
    extra errors) as arrays, zero where the chord is empty, and the number
    of nodes."""
    lo, hi = np.array([phi._chord(t) for t in x.tolist()]).reshape(-1, 2).T
    live = np.flatnonzero(hi > lo)
    out = np.zeros((3, len(x)))
    if not live.size:
        return (*out, 0)
    xs = x[live]
    val, qerr, extra, nodes = adaptive(
        lambda y, i: f(xs[i], y), lo[live].tolist(), hi[live].tolist(), **kw)
    out[:, live] = val, qerr, extra
    return (*out, nodes)


class IntegralResult(NamedTuple):
    integral: float
    reference: float
    error: float
    nodes: int


def measure_density(z, cfg: WeightConfig):
    """(density, certified error) at z: the density is
    (k-1)/(8 pi dim) * R_k(z, z), its error the same multiple of the kernel's
    tail bound.  The imaginary part of the kernel on the diagonal must
    vanish within that tail.

    z is a Point, or a list of Points, for which both are arrays, the same
    as at each point on its own, bit for bit (_densities, over the points'
    coordinates); a list raises the error of its first point that would
    raise one on its own."""
    if isinstance(z, Point):
        normalization = _normalization(cfg)
        res = bergman_R(z, z, cfg)
        _check_imaginary_part(res.value.imag, res.tail_bound)
        return normalization * res.value.real, normalization * res.tail_bound
    return _densities(np.array([p.x for p in z]), np.array([p.y for p in z]),
                      cfg)


def _normalization(cfg: WeightConfig) -> float:
    """(k-1)/(8 pi dim), or NoCuspForms where dim is 0."""
    dim = dim_cusp_forms(cfg.k)
    if dim == 0:
        raise NoCuspForms(f"weight {cfg.k} has no cusp forms")
    return (cfg.k - 1) / (8.0 * math.pi * dim)


def _densities(x, y, cfg: WeightConfig):
    """measure_density at the points x + iy (two float arrays), as arrays
    of densities and of their errors, through bergman_R_diagonal: the
    values of measure_density at each point, bit for bit, or the error of
    the first point that raises one there."""
    normalization = _normalization(cfg)
    try:
        values, tails, _ = bergman_R_diagonal(x, y, cfg)
    except CutoffExceeded:
        for point in map(Point, x.tolist(), y.tolist()):
            measure_density(point, cfg)
        raise
    spurious = np.flatnonzero(np.abs(values.imag) > tails + 1e-9)
    if spurious.size:
        j = spurious[0]
        _check_imaginary_part(values.imag[j], tails[j])
    return normalization * values.real, normalization * tails


def _check_imaginary_part(imag: float, tail: float) -> None:
    if abs(imag) > tail + 1e-9:
        raise CuspKernelError(
            f"diagonal kernel has spurious imaginary part {imag:.3e}"
        )


def _integrand(p, x, y, w, cfg: WeightConfig):
    """(p * density / w, |p| * certified density error / w) at the points
    x + iy, as arrays; p is an array, x, y and w (the base-measure
    denominator: y, 1 or y^2) arrays or scalars.  No kernel call where
    p = 0."""
    vals, errs = np.zeros(len(p)), np.zeros(len(p))
    at = np.flatnonzero(p)
    if at.size:
        p, x, y, w = (np.broadcast_to(a, vals.shape)[at] for a in (p, x, y, w))
        dens, derr = _densities(x, y, cfg)
        vals[at] = p * dens / w
        errs[at] = np.abs(p) * derr / w
    return vals, errs


def _check_window(lo: float, hi: float, cfg: WeightConfig, Y: float,
                  what: str) -> None:
    bottom = 1.0 / Y
    top = cfg.support_top()
    if not (lo > bottom and hi < top):
        raise SupportViolation(
            f"{what} [{lo}, {hi}] outside the admissible window "
            f"({bottom:.6g}, {top:.6g}) at k={cfg.k}"
        )


def _vertical_crossings(x: float, elliptic_list, delta: float) -> list:
    """Heights where the vertical line at x enters/leaves a neighborhood."""
    s = math.sinh(0.5 * delta) ** 2
    out = []
    for e in elliptic_list:
        ex, ey = e.location.x, e.location.y
        bb = ey * (1.0 + 2.0 * s)
        disc = bb * bb - (ey * ey + (x - ex) ** 2)
        if disc > 0.0:
            r = math.sqrt(disc)
            out.extend((bb - r, bb + r))
    return out


def _horizontal_crossings(y: float, elliptic_list, delta: float) -> list:
    s = math.sinh(0.5 * delta) ** 2
    out = []
    for e in elliptic_list:
        ex, ey = e.location.x, e.location.y
        # the neighborhood reaches up to ey e^delta < ey (2 + 4 s); twice
        # that high, rhs is far below 0, and the square may overflow
        if y > 2.0 * ey * (2.0 + 4.0 * s):
            continue
        rhs = 4.0 * s * ey * y - (y - ey) ** 2
        if rhs > 0.0:
            r = math.sqrt(rhs)
            out.extend((ex - r, ex + r))
    return out


def _line_integral(psi: TestFunction, at, breaks: list, cfg: WeightConfig,
                   rtol: float) -> IntegralResult:
    """Integral of psi(s) against the mass density along the line
    s -> at(s) = (x, y, w), where w is the denominator of the line's base
    measure, with the reference (3/pi) * int psi(s) ds / w, taken in psi's
    own variable, which resolves a support however narrow beside |a|."""
    val, qerr, extra, nodes = adaptive(
        lambda s: _integrand(psi(s), *at(s), cfg), psi.a, psi.b, rtol=rtol,
        breakpoints=breaks)
    mid, half = 0.5 * (psi.a + psi.b), 0.5 * (psi.b - psi.a)
    ref = half * _reference(
        lambda t: psi.in_own_variable(t) / at(mid + half * t)[2], -1.0, 1.0)
    return IntegralResult(val, THREE_OVER_PI * ref, qerr + extra, nodes)


def integrate_vertical(x: float, psi: TestFunction, cfg: WeightConfig,
                       Y: float, *, unsafe: bool = False,
                       rtol: float = 1e-4) -> IntegralResult:
    """Integral of psi(y) against the mass density along Re z = x, with the
    squeezed-limit reference (3/pi) * int psi dy/y.  Y is the strip
    parameter: the support must lie above 1/Y, and the quadrature breaks
    where the line crosses the cfg.delta_for(Y) neighborhoods of the
    strip's elliptic points."""
    if not abs(x) <= 0.5:
        raise ValueError(f"x must lie in [-1/2, 1/2], got {x!r}")
    if psi.a <= 0:
        raise ValueError("the support on a vertical line must stay above 0")
    elist = elliptic_points_in_strip(Y)  # also rejects a bad Y
    if not unsafe:
        _check_window(psi.a, psi.b, cfg, Y, "support")
    breaks = _vertical_crossings(x, elist, cfg.delta_for(Y))
    return _line_integral(psi, lambda y: (x, y, y), breaks, cfg, rtol)


def integrate_horizontal(y: float, psi: TestFunction, cfg: WeightConfig,
                         Y: float, *, unsafe: bool = False,
                         rtol: float = 1e-4) -> IntegralResult:
    """Integral of psi(x) against the mass density along Im z = y over one
    period, with reference (3/pi) * int psi dx.  psi may be an indicator.
    Y plays the same part as in integrate_vertical."""
    if not 0.0 < y < math.inf:
        raise ValueError(f"y must be positive and finite, got {y!r}")
    elist = elliptic_points_in_strip(Y)  # also rejects a bad Y
    if not unsafe:
        _check_window(y, y, cfg, Y, "height")
        if psi.a < -0.5 - 1e-12 or psi.b > 0.5 + 1e-12:
            raise SupportViolation("support must fit in one period [-1/2, 1/2]")
    breaks = _horizontal_crossings(y, elist, cfg.delta_for(Y))
    return _line_integral(psi, lambda x: (x, y, 1.0), breaks, cfg, rtol)


def integrate_region(phi: BumpFunction2D, cfg: WeightConfig, *,
                     rtol: float = 1e-4, unsafe: bool = False) -> IntegralResult:
    """2-D integral of phi against the mass density with the dxdy/y^2 base
    measure, compared to (3/pi) * int phi dxdy/y^2."""
    if not unsafe:
        if abs(phi.center_x) + phi.radius > 0.5 + 1e-12:
            raise SupportViolation("support leaves |Re z| <= 1/2")
        if math.hypot(phi.center_x, phi.center_y) - phi.radius < 1.0 - 1e-12:
            raise SupportViolation("support dips below the unit circle")
    nodes_total = 0

    def outer(x):
        nonlocal nodes_total
        val, qerr, extra, nodes = _chord_integrals(
            phi, x, lambda x, y: _integrand(phi(x, y), x, y, y * y, cfg),
            rtol=0.25 * rtol)
        nodes_total += nodes
        return (val, qerr + extra)

    val, qerr, extra, nodes = adaptive(
        outer, phi.center_x - phi.radius, phi.center_x + phi.radius, rtol=rtol
    )
    nodes_total += nodes
    ref = THREE_OVER_PI * phi.reference_integral
    return IntegralResult(val, ref, qerr + extra, nodes_total)
