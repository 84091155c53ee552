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
one Python float at a time; the array pass takes its top rows from one
integer extended Euclid over all its cosets (solve_top_row on arrays).
The terms of every row are then evaluated in one numpy pass per call.
Summation is exact (Shewchuk fsum, fed the term arrays through a
memoryview rather than a list of Python floats), so the result is
order-independent and deterministic.

bergman_R_diagonal evaluates the diagonal at many points at once, bit for
bit as bergman_R at each: the array pass carries an owner index per
coset, so the small tables of all the points go through one coset pass
and one term pass, with one fsum per point.  numpy's exp, log1p, arctan2,
cos, sin and remainder give an element the same bits in a long array as
in a short one, so sharing the term pass changes no point's sum.

residual_certificate needs two sums that do not depend on the weight, the
minimum displacement and a weight-4 off-identity sum; it keeps those of
the last point, so a sweep over weights at one point pays for them once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate, repeat

import numpy as np

from .errors import CutoffExceeded
from .halfplane import (
    GammaMatrix,
    Point,
    automorphy_factor,
    moebius_apply,
    u_from_distance,
)
from .modgroup import (
    MAX_COSETS,
    coset_arrays,
    coset_table,
    min_displacement,
    reduce_to_domain,
    small_coset_arrays,
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
    Im gz + Im w, arg(cz+d)), and each segment's term count; arg(cz+d) is
    0.0 in an offdiagonal sum, which adds only magnitudes.
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
            # a sum of magnitudes never reads arg(cz+d)
            argden = 0.0 if offdiagonal else math.atan2(c * y, c * x + d)
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


def _array_lines(cosets, zs, ws, k: int, tol_lines, tails, offdiagonal: bool):
    """_scalar_lines over the coset tables of one or several pairs (z, w)
    in array passes, with the same bits.

    cosets = (c, d, Q, owner): coset tables (coset_arrays or
    small_coset_arrays) one after another, the cosets of pair j = owner[i]
    (zs[j], ws[j], with tol_lines[j] and starting tail tails[j]) contiguous
    and in increasing j, each table's identity coset first.
    numpy does only exactly rounded arithmetic (+ - * / sqrt, floor, ceil)
    on values that are the scalar loop's; every exp, log, log1p, atan2 and
    square goes through libm (_libm), and the top rows of all the cosets
    through one call of solve_top_row on arrays, whose integer extended
    Euclid gives each the scalar form's a.  Each pair's tail takes its
    additions in the scalar loop's order (np.add.accumulate along one row
    per pair, as long as the longest table): a pruned coset adds g_max lf,
    a summed line lo, then hi.  Each window grows in rounds, hi's step
    after lo's, as in the scalar loop.  The first coset that ends in CutoffExceeded is handed to
    the scalar loop, which raises it with the same message and tail.
    Returns (rows, counts, tails, terms): the rows and counts of every
    pair's segments, pair after pair (the first column counts the terms
    before a segment across all pairs), each pair's tail and each pair's
    number of terms.
    """
    c, d, Q, owner = cosets
    del cosets  # c, d and Q are soon replaced by their unpruned cosets
    n_pairs = len(zs)

    def spread(values, at):
        # a per-pair quantity at the cosets at; one pair's stays a scalar,
        # which broadcasts without a copy per coset
        return np.array(values)[owner[at]] if n_pairs > 1 else values[0]

    xs, ys = [z.x for z in zs], [z.y for z in zs]
    uws, vs = [w.x for w in ws], [w.y for w in ws]
    ck = _profile_constant(k)
    nhk = -0.5 * k
    half_lines = [0.5 * t for t in tol_lines]
    u_cuts = [(t / 8.0) ** (-2.0 / k) - 1.0 for t in tol_lines]

    v = spread(vs, slice(None))
    vp = spread(ys, slice(None)) / Q
    alpha = 4.0 * v * vp
    beta = _libm(pow, v - vp, repeat(2))
    # what each coset adds to the tail, in turn: g_max lf (and 0) if it is
    # pruned, else the side tails lo and hi of its final window
    added = np.zeros((len(Q), 2))
    added[:, 0] = (_libm(math.exp, nhk * _libm(math.log1p, beta / alpha))
                   * (2.0 + ck * (v + vp)))
    kept = np.flatnonzero(~(added[:, 0] <= spread(tol_lines, slice(None))))
    c, d, Q, vp, alpha, beta = (a[kept] for a in (c, d, Q, vp, alpha, beta))
    vpv = vp + spread(vs, kept)
    del v, vp

    # the top rows, but of the identity coset (c = 0), whose line sits at
    # X0 = Re z, with arg(cz+d) = atan2(0, 1) = 0
    top = c != 0
    a0 = np.zeros(len(c), np.int64)
    a0[top], _ = solve_top_row(c[top], d[top])
    x = spread(xs, kept)
    cxd = c * x + d
    # a sum of magnitudes never reads arg(cz+d)
    argden = (np.zeros(len(c)) if offdiagonal
              else _libm(math.atan2, c * spread(ys, kept), cxd))
    with np.errstate(divide="ignore", invalid="ignore"):
        x0 = np.where(top, a0 / c - cxd / (c * Q), x)  # X0
    del top, a0, x, cxd
    x0 -= spread(uws, kept)  # X0 - Re w
    t0 = -x0  # Re w - X0, exactly
    width = alpha * spread(u_cuts, kept) - beta
    width = np.sqrt(np.where(width > 0.0, width, 0.0))
    m_lo = np.ceil(t0 - width) + 0.0  # -0.0 to 0.0, as the scalar loop's ints
    m_hi = np.floor(t0 + width)
    lo, hi = np.zeros(len(c)), np.zeros(len(c))
    # a line that is sure to end in CutoffExceeded; windows only grow, so
    # one past _MAX_LINE_TERMS stops growing here (its ends stay exact)
    bad = 2.0 * width - 1.0 >= _MAX_LINE_TERMS
    del width
    grow = np.flatnonzero(~bad)
    half_line = spread(half_lines, kept)
    for _ in range(_MAX_GROWTH):
        if not grow.size:
            break
        t, al, be = t0[grow], alpha[grow], beta[grow]
        hl = half_line[grow] if n_pairs > 1 else half_line
        mlo, mhi = m_lo[grow], m_hi[grow]
        lo_g = _side_tails(t - (mlo - 1.0), al, be, k)
        grew = lo_g > hl
        step = np.maximum(4.0, (mhi - mlo + 1.0) // 2.0)
        mlo = np.where(grew, mlo - step, mlo)
        hi_g = _side_tails((mhi + 1.0) - t, al, be, k)
        up = hi_g > hl
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
    del t0, lo, hi
    # one row per pair: its starting tail, then two additions per coset
    first = np.searchsorted(owner, np.arange(n_pairs))
    pos = np.arange(len(owner)) - first[owner]
    acc = np.zeros((n_pairs, 2 * int(pos.max(initial=0)) + 3))
    acc[:, 0] = tails
    at = owner * acc.shape[1] + 2 * pos + 1
    acc.reshape(-1)[at] = added[:, 0]
    acc.reshape(-1)[at + 1] = added[:, 1]
    del at, added
    acc = np.add.accumulate(acc, axis=1)
    if bad.any():
        b = np.flatnonzero(bad)[0]
        i = kept[b]
        j = owner[i]
        coset = (int(c[b]), int(d[b]), float(Q[b]))
        _scalar_lines([coset], zs[j], ws[j], k, tol_lines[j],
                      float(acc[j, 2 * pos[i]]), offdiagonal)
        raise RuntimeError("the array coset loop lost a CutoffExceeded")
    tails = acc[:, -1].tolist()
    del acc, pos, d, Q

    # one segment per line, but two for the identity off the diagonal,
    # m <= -1 and m >= 1, since the identity is not an off-diagonal term
    if offdiagonal:
        split = np.arange(len(c)).repeat(np.where(c == 0, 2, 1))
        c, kept, m_lo, m_hi, x0, beta, alpha, vpv, argden = (
            a[split] for a in (c, kept, m_lo, m_hi, x0, beta, alpha, vpv,
                               argden))
        ident = np.flatnonzero(c == 0)
        m_hi[ident[0::2]] = np.minimum(m_hi[ident[0::2]], -1.0)
        m_lo[ident[1::2]] = np.maximum(m_lo[ident[1::2]], 1.0)
    count = (m_hi - m_lo + 1.0).astype(np.int64)
    live = count > 0
    count = count[live]
    before = np.cumsum(count) - count
    body = np.column_stack((m_lo[live] - before, x0[live], beta[live],
                            alpha[live], vpv[live], argden[live]))
    terms = np.bincount(owner[kept[live]], weights=count, minlength=n_pairs)
    return body.ravel(), count, tails, terms.astype(np.int64).tolist()


def _term_sums(rows, counts, k: int, offdiagonal: bool, ends):
    """The sums of the terms [ends[j-1], ends[j]) (from 0 for j = 0) over
    every term of every segment of a line stage, in one array pass: the
    arithmetic of one line, with each segment's values taken out to its
    terms, then one fsum per part.  numpy evaluates a long pass in place,
    reusing each temporary that nothing else refers to."""
    tab = np.asarray(rows, dtype=np.float64)
    first, x0, beta, alpha, vpv, argden = (
        tab[0::6], tab[1::6], tab[2::6], tab[3::6], tab[4::6], tab[5::6])
    at = np.arange(len(counts)).repeat(counts)
    n_terms = len(at)
    ms = np.arange(n_terms, dtype=np.float64) + first[at]
    offs = x0[at] + ms
    del ms
    mag = np.exp(-0.5 * k * np.log1p((offs * offs + beta[at]) / alpha[at]))
    parts = list(zip([0, *ends[:-1]], ends))
    if offdiagonal:
        mag = memoryview(mag)
        return [math.fsum(mag[s:e]) for s, e in parts]
    # float(k): numpy scales by a Python float faster than by an int
    ph = float(k) * (_HALF_PI - np.arctan2(vpv[at], offs) - argden[at])
    del at, offs
    ph = np.remainder(ph + math.pi, _TWO_PI) - math.pi
    re = memoryview(mag * np.cos(ph))
    im = memoryview(mag * np.sin(ph))
    return [complex(math.fsum(re[s:e]), math.fsum(im[s:e])) for s, e in parts]


def _array_sized(z: Point, R0: float) -> bool:
    """Whether the coset table of z at radius R0 is expected to hold
    ARRAY_MIN_COSETS or more cosets: |cz+d|^2 <= R0 is an ellipse of area
    pi R0 / y in the (c, d) plane, and 6/pi^2 of its lattice points are
    coprime, two to a +/- pair."""
    return 3.0 * R0 / (math.pi * z.y) >= ARRAY_MIN_COSETS


def _sum_terms(z: Point, w: Point, k: int, tol: float, *,
               offdiagonal: bool = False):
    """Shared enumeration engine.

    Returns (complex_or_real_sum, tail_bound, terms_used, cosets_used) for
    the sum over one representative of each +/- pair; callers double both
    the value and the tail for the full group.  The sum is of t_g(z, w)^k,
    or with offdiagonal=True of |t_g(z, w)|^k over g != +/-I.
    """
    R0, tail = _lattice_radius(z, w, k, tol)
    if not _array_sized(z, R0):
        cosets = coset_table(z, R0)
        n_cosets = len(cosets)
        rows, counts, tail = _scalar_lines(
            cosets, z, w, k, 0.25 * tol / n_cosets, tail, offdiagonal)
        n_terms = sum(counts)
    else:
        c, d, Q = coset_arrays(z, R0)
        n_cosets = len(c)
        rows, counts, [tail], [n_terms] = _array_lines(
            (c, d, Q, np.zeros(n_cosets, np.int64)), [z], [w], k,
            [0.25 * tol / n_cosets], [tail], offdiagonal)
    [total] = _term_sums(rows, counts, k, offdiagonal, [n_terms])
    # terms whose magnitude underflows to zero are each below 5e-324
    tail += n_terms * 5e-324
    return total, tail, n_terms, n_cosets


def _checked(half, tail: float, n_terms: int, n_cosets: int,
             tol: float) -> KernelResult:
    """The KernelResult of a half sum over the +/- pairs, or CutoffExceeded
    where its tail is above tol."""
    result = KernelResult(2.0 * half, 2.0 * tail, n_terms, n_cosets)
    if result.tail_bound > tol:
        raise CutoffExceeded(
            f"achieved tail {result.tail_bound:.3e} exceeds tol {tol:.3e}",
            best_tail_bound=result.tail_bound,
        )
    return result


def bergman_R(z: Point, w: Point, cfg: WeightConfig) -> KernelResult:
    """Evaluate R_k(z, w) with a certified truncation bound <= cfg.tol.

    R_k is 1-periodic in each argument on its own, so z and w are each
    moved into |Re| <= 1/2 first (translate_into_strip, exact in floating
    point).
    """
    _, z = translate_into_strip(z)
    _, w = translate_into_strip(w)
    return _checked(*_sum_terms(z, w, cfg.k, 0.5 * cfg.tol), cfg.tol)


def bergman_R_diagonal(zs: list, cfg: WeightConfig) -> list:
    """bergman_R(z, z, cfg) at every point z of the list zs, bit for bit.

    A point whose coset table is large enough for the array coset loop is
    a bergman_R call of its own: the call's set-up is small beside its
    work.  The points with small tables (every weight-1200 point) share
    the set-up instead: each has its own lattice radius, as in bergman_R,
    then their coset tables come from one small_coset_arrays pass, their
    cosets go through one _array_lines pass and their terms through one
    _term_sums pass, with one fsum per point.  Where some point fails,
    CutoffExceeded is raised, but not necessarily that of the first point
    to fail in a loop of bergman_R calls; measure_density, which calls
    this, finds that one.
    """
    k, tol = cfg.k, 0.5 * cfg.tol
    results = [None] * len(zs)
    batch, points, radii, tails = [], [], [], []
    for j, z in enumerate(zs):
        _, z = translate_into_strip(z)
        R0, tail = _lattice_radius(z, z, k, tol)
        if _array_sized(z, R0):
            results[j] = bergman_R(z, z, cfg)
        else:
            batch.append(j)
            points.append(z)
            radii.append(R0)
            tails.append(tail)
    if not batch:
        return results
    cosets = small_coset_arrays(points, radii)
    n_cosets = np.bincount(cosets[3], minlength=len(batch)).tolist()
    tol_lines = [0.25 * tol / n for n in n_cosets]
    rows, counts, tails, terms = _array_lines(cosets, points, points, k,
                                              tol_lines, tails, False)
    del cosets
    halves = _term_sums(rows, counts, k, False, list(accumulate(terms)))
    for j, half, tail, n, m in zip(batch, halves, tails, terms, n_cosets):
        # terms whose magnitude underflows to zero are each below 5e-324
        results[j] = _checked(half, tail + n * 5e-324, n, m, cfg.tol)
    return results


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


@functools.lru_cache(maxsize=1)
def _weight_free_sums(z: Point) -> tuple:
    """(u_min, s2) of residual_certificate at a point z of the domain: the
    minimum displacement's u and the weight-4 off-identity sum bound.
    Neither depends on k, so a sweep over weights at one point computes
    them once.  One entry is enough for that sweep; a larger cache would
    only serve exact repeats of unrelated calls, which no caller makes, and
    would let a benchmark that repeats its rounds time the cache instead
    of the sums.  A CutoffExceeded is raised, not kept."""
    _, d_min = min_displacement(z)
    return u_from_distance(d_min), offdiagonal_sum_bound(z)


def residual_certificate(z: Point, k: int) -> float:
    """Certified bound on |R_k(z,z) - 2| from the minimum displacement.

    |R_k(z,z) - 2| <= sum_{g != +/-I} (1+u)^{-k/2}
                   <= (1+u_min)^{-(k-4)/2} * sum_{g != +/-I} (1+u)^{-2},
    with u_min certified by the displacement search and the weight-4 sum
    bounded by its own certified enumeration.  Both sums are invariant under
    z -> hz, so they are taken at reduce_to_domain(z), where the lattice
    sum stays small at low points.  Neither depends on k: the pair of the
    last point is kept (_weight_free_sums), so after the first weight at a
    point the others cost only this formula.
    """
    if k % 2 or k < 4:
        raise ValueError("k must be an even integer >= 4")
    u_min, s2 = _weight_free_sums(reduce_to_domain(z))
    return s2 * math.exp(-0.5 * (k - 4) * math.log1p(u_min))
