"""Certified evaluation of the normalized reproducing kernel R_k(z, w).

R_k(z, w) is a sum over the full integer Moebius group of normalized terms
t_g(z, w)^k with |t_g| = (1 + u(w, gz))^{-1/2}, where u is the point-pair
invariant.  The sum is organized as translation cosets (c, d) crossed with
translation powers m, because within a coset the image height
Im(gz) = y/|cz+d|^2 is constant and the m-line decays like a power of the
horizontal offset.  Every truncation is accompanied by an analytic upper
bound on the omitted mass, so KernelResult.tail_bound is a genuine
certificate:

  * m-line side tails: sum-vs-integral comparison of h(t)^{-k/2} with
    h(t) = 1 + (t^2 + beta)/alpha convex, giving
    f(M) * (1 + alpha*h(M)/(M*(k-2))) per side beyond offset M;
  * whole quiet cosets: max term times (2 + c_k*(v + v')), where
    c_k = sqrt(pi)*Gamma((k-1)/2)/Gamma(k/2) integrates the line profile;
  * the lattice beyond |cz+d|^2 > R0: dyadic rings, counting lattice points
    by disk packing and bounding each ring by its inner-edge term, closed
    by a geometric series whose ratio is controlled analytically.

The coset loop prunes, sizes each m-line window and adds the tails; it
records each line as one row.  It has two forms, chosen by the expected
size of the coset table: below ARRAY_MIN_COSETS (every weight-1200 call)
a scalar loop over coset_table, from it one array pass over coset_arrays.
Both give the same bits: numpy does only exactly rounded arithmetic, and
every exp, log, log1p, atan2 and square is libm's, mapped over the array
one Python float at a time.  The terms of every row are then evaluated in
one numpy pass per call.  Summation is exact (Shewchuk fsum, fed the term
arrays through a memoryview rather than a list of Python floats), so the
result is order-independent and deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

import numpy as np

from .errors import CutoffExceeded
from .halfplane import (
    GammaMatrix,
    Point,
    automorphy_factor,
    hyp_distance,
    moebius_apply,
    u_from_distance,
)
from .modgroup import (
    MAX_COSETS,
    EllipticPoint,
    coset_arrays,
    coset_table,
    elliptic_points_in_strip,
    min_displacement,
    reduce_to_domain,
    solve_top_row,
    translate_into_strip,
)

_HALF_PI = 0.5 * math.pi
_TWO_PI = 2.0 * math.pi
# most terms one m-line may contribute
_MAX_LINE_TERMS = 5_000_000
# most rounds of growth of one m-line window
_MAX_GROWTH = 200
# coset tables expected to hold this many cosets or more go through the
# array coset loop (_array_lines), smaller ones through the scalar one: at
# about 100 cosets the two take the same time, and at the 6-8 cosets of a
# weight-1200 call numpy's fixed set-up makes the array loop 10x slower
ARRAY_MIN_COSETS = 100

# the squeeze constant A of the admissible window (delta_for, support_top)
SQUEEZE_A = 2.0


@dataclass(frozen=True)
class WeightConfig:
    """Weight and requested tail bound."""

    k: int
    tol: float = 1e-9

    def __post_init__(self):
        if self.k % 2 != 0 or self.k < 4:
            raise ValueError(f"weight must be an even integer >= 4, got {self.k}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")

    def delta_for(self, Y: float) -> float:
        """Neighborhood radius sqrt(128 A) * Y * sqrt(log k / k)."""
        return math.sqrt(128.0 * SQUEEZE_A) * Y * math.sqrt(math.log(self.k) / self.k)

    def support_top(self) -> float:
        """Upper end of the admissible height window, sqrt(k/(17 A log k))."""
        return math.sqrt(self.k / (17.0 * SQUEEZE_A * math.log(self.k)))


@dataclass(frozen=True)
class KernelResult:
    value: complex
    tail_bound: float
    terms_used: int
    cosets_used: int


def b_term(g: GammaMatrix, z: Point, w: Point) -> complex:
    """Normalized single term t_g(z, w) = sqrt(yv) * (2i/(gz - conj(w))) / (cz+d).

    Computed directly from the factors (not via the point-pair invariant),
    so the magnitude identity |t_g| = (1 + u(w, gz))^{-1/2} is a genuine
    cross-check rather than a tautology.  Dividing out one factor at a time
    keeps every intermediate in the double range at any height.
    """
    gz = moebius_apply(g, z)
    t = complex(0.0, 2.0 * math.sqrt(z.y) * math.sqrt(w.y))
    t /= complex(gz.x - w.x, gz.y + w.y)  # gz - conj(w)
    return t / automorphy_factor(g, z)


@functools.lru_cache(maxsize=64)  # once per kernel sum, for a few weights
def _profile_constant(k: float) -> float:
    """sqrt(pi) * Gamma((k-1)/2) / Gamma(k/2): the full-line integral of the
    normalized m-line profile in units of its peak and of v + v'."""
    return math.exp(
        0.5 * math.log(math.pi) + math.lgamma((k - 1.0) / 2.0) - math.lgamma(k / 2.0)
    )


def _side_tail(M: float, alpha: float, beta: float, k: float) -> float:
    """Omitted mass of one m-line side beyond offset M > 0.

    h(t) = 1 + (t^2+beta)/alpha is convex, so the terms at offsets
    M, M+1, ... are bounded by f(M) + integral, and the integral by the
    tangent-line comparison f(M) * alpha * h(M) / (M * (k-2)).
    """
    h = 1.0 + (M * M + beta) / alpha
    f = math.exp(-0.5 * k * math.log(h))
    return f * (1.0 + alpha * h / (M * (k - 2.0)))


def _libm(f, *args):
    """f over arrays (or other iterables) one Python float at a time: every
    value is libm's, bit for bit, where numpy's own exp, log1p or arctan2
    differ in the last bit for a few percent of arguments."""
    lists = [a.tolist() if isinstance(a, np.ndarray) else a for a in args]
    return np.fromiter(map(f, *lists), np.float64, len(lists[0]))


def _side_tails(M, alpha, beta, k: float):
    """_side_tail over arrays, with the same bits."""
    h = 1.0 + (M * M + beta) / alpha
    f = _libm(math.exp, -0.5 * k * _libm(math.log, h))
    return f * (1.0 + alpha * h / (M * (k - 2.0)))


def _shortest_vector_sq(zc: complex) -> float:
    """Squared length of the shortest nonzero vector of the lattice Z + Z z,
    by Gauss-Lagrange basis reduction.  Used as the packing radius for the
    lattice-point counting bound."""
    u, v = complex(1.0, 0.0), zc
    if abs(u) > abs(v):
        u, v = v, u
    for _ in range(128):
        num = v.real * u.real + v.imag * u.imag
        den = u.real * u.real + u.imag * u.imag
        v = v - round(num / den) * u
        if abs(v) >= abs(u):
            break
        u, v = v, u
    return u.real * u.real + u.imag * u.imag


def _lattice_radius(z: Point, w: Point, k: int, tol: float):
    """(R0, tail): a working radius R0 whose lattice tail, the mass of
    every coset with |cz+d|^2 > R0, is at most tol / 2, and that tail."""
    y, v = z.y, w.y
    ck = _profile_constant(k)
    nhk = -0.5 * k  # a term's magnitude is exp(nhk * log(1 + u))

    def npm(R):
        # upper bound on the number of +/- lattice pairs with |cz+d|^2 <= R
        return 0.5 * (math.sqrt(R) / rho + 1.0) ** 2 + 1.0

    def lattice_tail(R0):
        # dyadic rings over Q > R0; each ring bounded by count * inner-edge
        # line bound; closed geometrically (ratio bounded analytically
        # because (1+F(2Q))/(1+F(Q)) = (2s+1)^2/(2(s+1)^2) increases in s)
        total = 0.0
        Q = R0
        term = None
        for _ in range(250):
            # 1 + min u over the coset of size Q is (s+1)^2/(4s)
            s = v * Q / y
            g0 = math.exp(nhk * math.log((s + 1.0) ** 2 / (4.0 * s)))
            term = npm(2.0 * Q) * g0 * (2.0 + ck * (v + y / Q))
            total += term
            growth = (2.0 * s + 1.0) ** 2 / (2.0 * (s + 1.0) ** 2)
            rb = 2.0 * math.exp(nhk * math.log(growth))
            if rb < 1.0 and term < max(1e-4 * total, 1e-300):
                return total + term * rb / (1.0 - rb)
            Q *= 2.0
        return math.inf

    # the working radius must keep the coset table enumerable as well as
    # push the lattice tail under budget.  Below Im z of about 1e-154 the
    # lattice is too fine for these bounds in floating point: the squared
    # shortest vector underflows to 0 or the lattice-point count overflows
    R0 = max(4.0 * y / v, 8.0)
    try:
        rho = 0.5 * math.sqrt(_shortest_vector_sq(z.as_complex))
        while True:
            tail = lattice_tail(R0)
            if tail <= 0.5 * tol:
                return R0, tail
            R0 *= 2.0
            if R0 > 1e14 or npm(R0) > MAX_COSETS:
                raise CutoffExceeded(
                    f"tail bound {tail:.3e} not reachable at tol {tol:.3e}",
                    best_tail_bound=tail,
                )
    except (OverflowError, ZeroDivisionError):
        raise CutoffExceeded(
            f"lattice tail bound not representable at Im z = {y:.3e}",
            best_tail_bound=math.inf,
        ) from None


def _scalar_lines(cosets, z: Point, w: Point, k: int, tol_line: float,
                  tail: float, offdiagonal: bool):
    """The coset loop, one (c, d, Q) triple at a time in scalar libm
    arithmetic.

    A coset whose whole line is below tol_line is pruned; every other line
    gets a window [m_lo, m_hi] grown until both side tails are below
    tol_line / 2.  Each omitted mass is added to tail in coset order.
    Returns (rows, counts, tail): six values per m-line segment, one after
    another, (m_lo - terms before it, X0 - Re w, beta, alpha,
    Im gz + Im w, arg(cz+d)), and each segment's term count.
    """
    y, x = z.y, z.x
    v, uw = w.y, w.x
    ck = _profile_constant(k)
    nhk = -0.5 * k
    half_line = 0.5 * tol_line
    u_cut = (tol_line / 8.0) ** (-2.0 / k) - 1.0

    rows, counts = [], []
    n_terms = 0

    for c, d, Q in cosets:
        vp = y / Q
        alpha = 4.0 * v * vp
        beta = (v - vp) ** 2
        g_max = math.exp(nhk * math.log1p(beta / alpha))
        lf = 2.0 + ck * (v + vp)
        if g_max * lf <= tol_line:
            tail += g_max * lf
            continue
        if c == 0:
            X0 = x
            argden = 0.0
        else:
            a0, _b0 = solve_top_row(c, d)
            X0 = a0 / c - (c * x + d) / (c * Q)
            argden = math.atan2(c * y, c * x + d)
        t0 = uw - X0
        width_sq = alpha * u_cut - beta
        width = math.sqrt(width_sq) if width_sq > 0.0 else 0.0
        # the window below holds more than 2 * width - 1 terms
        if 2.0 * width - 1.0 >= _MAX_LINE_TERMS:
            raise CutoffExceeded("m-line window too large", best_tail_bound=tail)
        m_lo = math.ceil(t0 - width)
        m_hi = math.floor(t0 + width)
        # grow the window until both side tails fit the per-line budget;
        # the pair computed last is that of the final window
        for _ in range(_MAX_GROWTH):
            grew = False
            lo = _side_tail(t0 - (m_lo - 1), alpha, beta, k)
            if lo > half_line:
                m_lo -= max(4, (m_hi - m_lo + 1) // 2)
                grew = True
            hi = _side_tail((m_hi + 1) - t0, alpha, beta, k)
            if hi > half_line:
                m_hi += max(4, (m_hi - m_lo + 1) // 2)
                grew = True
            if not grew:
                break
        else:
            raise CutoffExceeded("m-line window failed to converge",
                                 best_tail_bound=tail)
        tail += lo
        tail += hi
        if m_hi - m_lo + 1 > _MAX_LINE_TERMS:
            raise CutoffExceeded("m-line window too large", best_tail_bound=tail)
        if offdiagonal and c == 0:
            # the identity is not an off-diagonal term: skip m = 0
            segments = ((m_lo, min(m_hi, -1)), (max(m_lo, 1), m_hi))
        else:
            segments = ((m_lo, m_hi),)
        for lo_m, hi_m in segments:
            if lo_m <= hi_m:
                rows += (lo_m - n_terms, X0 - uw, beta, alpha, vp + v, argden)
                counts.append(hi_m - lo_m + 1)
                n_terms += hi_m - lo_m + 1
    return rows, counts, tail


def _array_lines(cosets, z: Point, w: Point, k: int, tol_line: float,
                 tail: float, offdiagonal: bool):
    """_scalar_lines over a coset_arrays table (c, d, Q) in array passes,
    with the same bits.

    numpy does only exactly rounded arithmetic (+ - * / sqrt, floor, ceil)
    on values that are the scalar loop's; every exp, log, log1p, atan2 and
    square goes through libm (_libm), and each top row through
    solve_top_row.  The tail takes its additions in the scalar loop's order
    (with np.add.accumulate): a pruned coset adds g_max lf, a summed line
    lo, then hi.  Each window grows in rounds, hi's step after lo's, as in
    the scalar loop.
    The first coset that ends in CutoffExceeded is handed to the scalar
    loop, which raises it with the same message and tail.
    """
    c_all, d_all, Q_all = cosets
    # the identity coset, first in every table, is the one c = 0 line
    head, head_counts, tail = _scalar_lines(
        [(0, 1, 1.0)], z, w, k, tol_line, tail, offdiagonal)
    c, d, Q = c_all[1:], d_all[1:], Q_all[1:]
    y, x = z.y, z.x
    v, uw = w.y, w.x
    ck = _profile_constant(k)
    nhk = -0.5 * k
    half_line = 0.5 * tol_line
    u_cut = (tol_line / 8.0) ** (-2.0 / k) - 1.0

    vp = y / Q
    alpha = 4.0 * v * vp
    beta = _libm(pow, v - vp, repeat(2))
    # what each coset adds to the tail, in turn: g_max lf (and 0) if it is
    # pruned, else the side tails lo and hi of its final window
    added = np.zeros((len(Q), 2))
    added[:, 0] = (_libm(math.exp, nhk * _libm(math.log1p, beta / alpha))
                   * (2.0 + ck * (v + vp)))
    kept = np.flatnonzero(~(added[:, 0] <= tol_line))
    c, d, Q, vp, alpha, beta = (a[kept] for a in (c, d, Q, vp, alpha, beta))

    top_rows = map(solve_top_row, c.tolist(), d.tolist())
    a0 = np.fromiter(map(itemgetter(0), top_rows), np.int64, len(c))
    cxd = c * x + d
    X0 = a0 / c - cxd / (c * Q)
    argden = _libm(math.atan2, c * y, cxd)
    t0 = uw - X0
    width_sq = alpha * u_cut - beta
    width = np.sqrt(np.where(width_sq > 0.0, width_sq, 0.0))
    m_lo = np.ceil(t0 - width) + 0.0  # -0.0 to 0.0, as the scalar loop's ints
    m_hi = np.floor(t0 + width)
    lo, hi = np.zeros(len(c)), np.zeros(len(c))
    # a line that is sure to end in CutoffExceeded; windows only grow, so
    # one past _MAX_LINE_TERMS stops growing here (its ends stay exact)
    bad = 2.0 * width - 1.0 >= _MAX_LINE_TERMS
    grow = np.flatnonzero(~bad)
    for _ in range(_MAX_GROWTH):
        if not grow.size:
            break
        t, al, be = t0[grow], alpha[grow], beta[grow]
        mlo, mhi = m_lo[grow], m_hi[grow]
        lo_g = _side_tails(t - (mlo - 1.0), al, be, k)
        grew = lo_g > half_line
        step = np.maximum(4.0, (mhi - mlo + 1.0) // 2.0)
        mlo = np.where(grew, mlo - step, mlo)
        hi_g = _side_tails((mhi + 1.0) - t, al, be, k)
        up = hi_g > half_line
        step = np.maximum(4.0, (mhi - mlo + 1.0) // 2.0)
        mhi = np.where(up, mhi + step, mhi)
        grew |= up
        lo[grow], hi[grow], m_lo[grow], m_hi[grow] = lo_g, hi_g, mlo, mhi
        over = mhi - mlo + 1.0 > _MAX_LINE_TERMS
        bad[grow[over]] = True
        grow = grow[grew & ~over]
    bad[grow] = True  # still growing after _MAX_GROWTH rounds

    added[kept, 0] = lo
    added[kept, 1] = hi
    acc = np.add.accumulate(np.concatenate(([tail], added.ravel())))
    if bad.any():
        i = kept[np.flatnonzero(bad)[0]]
        coset = (int(c_all[i + 1]), int(d_all[i + 1]), float(Q_all[i + 1]))
        _scalar_lines([coset], z, w, k, tol_line, float(acc[2 * i]),
                      offdiagonal)
        raise RuntimeError("the array coset loop lost a CutoffExceeded")

    count = (m_hi - m_lo + 1.0).astype(np.int64)
    seg = count > 0
    count = count[seg]
    before = sum(head_counts) + np.cumsum(count) - count
    body = np.column_stack((m_lo[seg] - before, (X0 - uw)[seg], beta[seg],
                            alpha[seg], (vp + v)[seg], argden[seg]))
    return (np.concatenate((head, body.ravel())),
            np.concatenate((np.array(head_counts, dtype=np.int64), count)),
            float(acc[-1]))


def _term_sums(rows, counts, k: int, offdiagonal: bool):
    """(sum, terms) over every term of every segment of a line stage, in
    one array pass: the arithmetic of one line, with each segment's values
    taken out to its terms.  numpy evaluates a long pass in place, reusing
    each temporary that nothing else refers to."""
    tab = np.asarray(rows, dtype=np.float64)
    first, x0, beta, alpha, vpv, argden = (
        tab[0::6], tab[1::6], tab[2::6], tab[3::6], tab[4::6], tab[5::6])
    at = np.arange(len(counts)).repeat(counts)
    n_terms = len(at)
    ms = np.arange(n_terms, dtype=np.float64) + first[at]
    offs = x0[at] + ms
    del ms
    mag = np.exp(-0.5 * k * np.log1p((offs * offs + beta[at]) / alpha[at]))
    if offdiagonal:
        return math.fsum(memoryview(mag)), n_terms
    # float(k): numpy scales by a Python float faster than by an int
    ph = float(k) * (_HALF_PI - np.arctan2(vpv[at], offs) - argden[at])
    del at, offs
    ph = np.remainder(ph + math.pi, _TWO_PI) - math.pi
    re_sum = math.fsum(memoryview(mag * np.cos(ph)))
    im_sum = math.fsum(memoryview(mag * np.sin(ph)))
    return complex(re_sum, im_sum), n_terms


def _sum_terms(z: Point, w: Point, k: int, tol: float, *,
               offdiagonal: bool = False):
    """Shared enumeration engine.

    Returns (complex_or_real_sum, tail_bound, terms_used, cosets_used) for
    the sum over one representative of each +/- pair; callers double both
    the value and the tail for the full group.  The sum is of t_g(z, w)^k,
    or with offdiagonal=True of |t_g(z, w)|^k over g != +/-I.
    """
    R0, tail = _lattice_radius(z, w, k, tol)
    # |cz+d|^2 <= R0 is an ellipse of area pi R0 / y in the (c, d) plane;
    # 6/pi^2 of its lattice points are coprime, two to a +/- pair
    if 3.0 * R0 / (math.pi * z.y) < ARRAY_MIN_COSETS:
        cosets = coset_table(z, R0)
        n_cosets, stage = len(cosets), _scalar_lines
    else:
        cosets = coset_arrays(z, R0)
        n_cosets, stage = len(cosets[0]), _array_lines
    rows, counts, tail = stage(cosets, z, w, k, 0.25 * tol / n_cosets, tail,
                               offdiagonal)
    total, n_terms = _term_sums(rows, counts, k, offdiagonal)
    # terms whose magnitude underflows to zero are each below 5e-324
    tail += n_terms * 5e-324
    return total, tail, n_terms, n_cosets


def bergman_R(z: Point, w: Point, cfg: WeightConfig) -> KernelResult:
    """Evaluate R_k(z, w) with a certified truncation bound <= cfg.tol.

    R_k is 1-periodic in each argument on its own, so z and w are each
    moved into |Re| <= 1/2 first (translate_into_strip, exact in floating
    point).
    """
    _, z = translate_into_strip(z)
    _, w = translate_into_strip(w)
    half, tail, n_terms, n_cosets = _sum_terms(z, w, cfg.k, 0.5 * cfg.tol)
    result = KernelResult(2.0 * half, 2.0 * tail, n_terms, n_cosets)
    if result.tail_bound > cfg.tol:
        raise CutoffExceeded(
            f"achieved tail {result.tail_bound:.3e} exceeds tol {cfg.tol:.3e}",
            best_tail_bound=result.tail_bound,
        )
    return result


def offdiagonal_sum_bound(z: Point):
    """Certified upper bound on sum over g != +/-I of (1 + u(z, gz))^{-2}.

    Used to turn a minimum-displacement value into a certified bound on the
    off-identity kernel mass at any larger weight.
    """
    # the lattice sum is truncated at 5% of a guess of its size, refined
    # twice; the returned value is certified whatever the guess.  For
    # y >= 1 the c = 0 line alone gives a half-sum >= floor(2y)/2 >= y/2
    # (each |m| <= 2y adds >= 1/4), so y/2 is a safe first guess and keeps
    # the first pass within the coset cap at large heights
    guess = max(1.0, 0.5 * z.y)
    for _ in range(3):
        total, tail, _, _ = _sum_terms(
            z, z, 4, 0.05 * max(guess, 1e-3), offdiagonal=True,
        )
        guess = 2.0 * total
    return 2.0 * total + 2.0 * tail


def residual_certificate(z: Point, k: int) -> float:
    """Certified bound on |R_k(z,z) - 2| from the minimum displacement.

    |R_k(z,z) - 2| <= sum_{g != +/-I} (1+u)^{-k/2}
                   <= (1+u_min)^{-(k-4)/2} * sum_{g != +/-I} (1+u)^{-2},
    with u_min certified by the displacement search and the weight-4 sum
    bounded by its own certified enumeration.  Both sums are invariant under
    z -> hz, so they are taken at reduce_to_domain(z), where the lattice
    sum stays small at low points.
    """
    if k % 2 or k < 4:
        raise ValueError("k must be an even integer >= 4")
    z = reduce_to_domain(z)
    _, d_min = min_displacement(z)
    u_min = u_from_distance(d_min)
    s2 = offdiagonal_sum_bound(z)
    return s2 * math.exp(-0.5 * (k - 4) * math.log1p(u_min))


def stabilizer_elements(e: EllipticPoint):
    """The non-central stabilizer elements of an elliptic point."""
    order = e.stabilizer_order
    out = []
    g = e.generator
    acc = g
    for j in range(1, order):
        if 2 * j != order:  # skip the power equal to -I
            out.append(acc)
        acc = acc * g
    return out


def elliptic_correction(z: Point, e: EllipticPoint, k: int) -> complex:
    """Extra kernel mass near an elliptic point: the non-central stabilizer
    terms sum_{g in Stab \\ {+/-I}} t_g(z, z)^k."""
    if k % 2 != 0:
        raise ValueError("weight must be even")
    total = 0.0 + 0.0j
    for g in stabilizer_elements(e):
        total += b_term(g, z, z) ** k
    return total


def asymptotic_residual(z: Point, cfg: WeightConfig, Y: float):
    """Measured deviation of R_k(z,z) from its squeezed-weight prediction,
    together with the analytic bound exp(-delta^2 k/(128 Y^2)) + y exp(-k/(17 y^2)),
    where delta = cfg.delta_for(Y).

    The prediction is the main term 2 plus the stabilizer corrections of
    every elliptic point of the strip within delta of z (far corrections are
    exponentially negligible, so overlapping neighborhoods are harmless).
    """
    delta = cfg.delta_for(Y)
    pred = 2.0 + 0.0j
    for e in elliptic_points_in_strip(Y):
        if hyp_distance(z, e.location) <= delta:
            pred += elliptic_correction(z, e, cfg.k)
    res = bergman_R(z, z, cfg)
    measured = abs(res.value - pred)
    y = z.y
    bound = math.exp(-delta * delta * cfg.k / (128.0 * Y ** 2)) + y * math.exp(
        -cfg.k / (17.0 * y * y)
    )
    return measured, bound
