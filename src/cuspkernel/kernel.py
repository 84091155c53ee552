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
  * the lattice beyond |cz+d|^2 > R0: rings of ratio 2^(1/4), counting the
    lattice points of each row by row (Cassels's count of an ellipse) and
    bounding each ring by its inner-edge term, closed by a geometric series
    whose ratio is controlled analytically; R0 is the first radius of the
    rings' grid whose tail is within budget, found in one walk up the grid.

On the diagonal bergman_R takes one of three routes (_diagonal), after the
lattice radius R0 of z:
  * a point whose radius is out of reach, or whose table would hold
    REDUCTION_MIN_COSETS cosets or more, is evaluated at reduce_to_domain(z),
    as R_k(gz, gz) = R_k(z, z): a low point with 14k-97k cosets at
    weight 12 becomes one with a few hundred.  The image is exact but for
    one rounding of each coordinate, so this route reaches every point of
    H whose image's height is a float;
  * where the table holds the identity coset alone (R0 < y^2), its
    translation line is Lipschitz's series
    (4 pi y)^k / (k-1)! sum_{n >= 1} n^(k-1) e^(-4 pi n y), wherever that
    is expected to be shorter than the direct window (_lipschitz_shorter):
    a handful of terms, and a geometric bound on the rest, in place of up
    to millions of terms that cancel to about e^(-4 pi y);
  * every other point, and every pair off the diagonal, is the direct sum
    below.

The coset loop (_array_lines) prunes, sizes each m-line window and adds
the tails, in array passes over the tables of coset_arrays; it records
each line as one row.  Its bits are those of a scalar loop over one coset
at a time, which the tests keep as its oracle: numpy does only exactly
rounded arithmetic, every exp, log, log1p, atan2 and square is libm's,
mapped over the array one Python float at a time, and the top rows come
from one integer extended Euclid over all the cosets (solve_top_row on
arrays).  The terms of every row are then evaluated in numpy and summed
exactly, so the result is order-independent and deterministic.  A sum of
EXACT_SUM_MIN_TERMS terms or more is evaluated a _CHUNK of terms at a time,
and each chunk goes into exact buckets by binary exponent (_exact_sums),
with no Python float per term; a smaller sum is evaluated in one pass and
handed to Shewchuk's fsum through a memoryview.  Both are the correctly
rounded exact sum, so they give the same bits.

bergman_R_diagonal evaluates the diagonal at many points at once, given
as two coordinate arrays, bit for bit as bergman_R at each, and with no
Python object per point: the points move into the strip as arrays, their
lattice radii come from one lockstep pass (_lattice_radii, the steps of
_lattice_radius on every point, with one grid of rings for the batch), a
point with a large table, an unreachable radius or a Lipschitz
line takes _diagonal on its own with the radius found, and the array pass
carries an owner index per coset, so the small tables of all the other
points go through one coset pass and one term pass, with one fsum for
each point whose sum has more than one term.  numpy's exp,
log1p, arctan2, cos, sin and remainder give an element the same bits in a
long array as in a short one, so sharing the term pass changes no point's
sum.  A single pair keeps the scalar _lattice_radius, which takes about a
tenth of the lockstep pass's time on one point: 3-5 us at k 200-1600 and
about 40 us at k 12 on a 2-core Xeon.

The weight-4 sum behind residual_certificate (offdiagonal_sum_bound) takes
each m-line in closed form (_weight_4_lines): one coset table, no window.
"""

from __future__ import annotations

import functools
import math
import sys
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
    min_displacement,
    reduce_to_domain,
    solve_top_row,
    translate_into_strip,
)

_HALF_PI = 0.5 * math.pi
_LOG4 = math.log(4.0)
# the ratio of the lattice tail's rings, and the most rings of one walk
# (250 octaves, as many as the dyadic rings before them took)
_RING = 2.0 ** 0.25
_QUARTERS = (1.0, _RING, 2.0 ** 0.5, 2.0 ** 0.75)
_MAX_RINGS = 1000
_TWO_PI = 2.0 * math.pi
# most terms one m-line may contribute
_MAX_LINE_TERMS = 5_000_000
# most rounds of growth of one m-line window
_MAX_GROWTH = 200
# a diagonal point whose coset table is expected to hold this many cosets
# or more is summed at its reduction to the fundamental domain (_diagonal),
# and takes that route on its own in a batch (bergman_R_diagonal); another
# threshold would move points between the routes, and their values in the
# last bits
REDUCTION_MIN_COSETS = 100
# a sum of this many terms or more goes through the exact numpy sum
# (_exact_sums), a _CHUNK of terms at a time, smaller ones through
# math.fsum: at about 2.5k terms the two take the same time (a weight-4
# sum of 2511 terms: 89 us in fsum, 104 in numpy; of 5394 terms: 180 and
# 150; a weight-12 diagonal sum of 4231 terms: 763 and 484)
EXACT_SUM_MIN_TERMS = 2560
# terms per chunk of an exact sum's pass, the fastest of 2^12..2^18 on a
# 2-core Xeon (2 MB L2 a core): bergman_R at 0.2+4672i, tol 1e-12 (890k
# terms), took 101, 82, 77, 67, 85, 85 and 98 ms, and at 0.13+1.1i, tol
# 1e-14 (23k terms), 15.4, 11.1, 10.9, 10.7, 13.8, 13.7 and 11.9 ms
_CHUNK = 1 << 15
# the buckets of _exact_sums, one per biased exponent, and the most values
# of a row that float64 bucket sums take before Python ints take over
_EXPONENTS = 1 << 11
_BUCKET_VALUES = 1 << 26
_HIGH = ~((1 << 26) - 1)  # a double's bits but the low 26 of its fraction
_NEG_ZERO = -1 << 63  # the bits of -0.0
_SCALE = 1 << 1074  # 2^-1074 is the least subnormal

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


def _libm(f, *args):
    """f over arrays (or other iterables) one Python float at a time: every
    value is libm's, bit for bit, where numpy's own exp, log1p or arctan2
    differ in the last bit for a few percent of arguments."""
    lists = [a.tolist() if isinstance(a, np.ndarray) else a for a in args]
    return np.fromiter(map(f, *lists), np.float64, len(lists[0]))


def _side_tails(M, alpha, beta, k: float):
    """Omitted mass of one m-line side beyond offset M > 0, over arrays.

    h(t) = 1 + (t^2+beta)/alpha is convex, so the terms at offsets
    M, M+1, ... are bounded by f(M) + integral, and the integral by the
    tangent-line comparison f(M) * alpha * h(M) / (M * (k-2)).
    """
    h = 1.0 + (M * M + beta) / alpha
    f = _libm(math.exp, -0.5 * k * _libm(math.log, h))
    return f * (1.0 + alpha * h / (M * (k - 2.0)))


@functools.lru_cache(maxsize=4096)  # a diagonal walk's rings repeat
def _ring_factors(s: float, k: int):
    """(g0, rb) of the ring Q < |cz+d|^2 <= rQ (r = _RING) at
    s = Im w Q / Im z >= 1: g0 = (1 + min u)^(-k/2) over a coset of size Q,
    where 1 + min u = (s+1)^2/(4s), and rb = r growth^(-k/2) with
    growth = ((rs+1)/(s+1))^2 / r, the ratio of 1 + min u at rs to that
    at s.  In log and ratio form no large s is squared."""
    nhk = -0.5 * k  # a term's magnitude is exp(nhk * log(1 + u))
    g0 = math.exp(nhk * (2.0 * math.log1p(s) - _LOG4 - math.log(s)))
    ratio = (_RING * s + 1.0) / (s + 1.0)
    return g0, _RING * math.exp(nhk * math.log(ratio * ratio / _RING))


def _grid(start: float, j: int) -> float:
    """The j-th radius of the ring grid from start, start r^j (r = _RING):
    start r^(j mod 4) rounded once, times 2^(j div 4) exactly, so every
    fourth radius is start times a power of two."""
    return start * _QUARTERS[j % 4] * 2.0 ** (j // 4)


def _ring_pairs(Q, Q2, y, grow):
    """Upper bound on the +/- pairs (c, d) with Q < |cz+d|^2 <= Q2, at
    y = Im z (a float or an array) and grow = 2 (1 + 1/y).

    Row c of N(X) = #{(c, d) : |cz+d|^2 <= X} holds the integers d of an
    interval of length 2 L_c, L_c = sqrt(X - c^2 y^2), so 2 L_c - 1 to
    2 L_c + 1 of them, over at most 2 sqrt(X)/y + 1 rows; and the sum of
    2 L_c over the integers c is within max 2 L_c = 2 sqrt(X) of its
    integral pi X / y, as 2 L_c rises and then falls in c (the row-by-row
    count of Cassels, Geometry of Numbers, ch. III).  So N(X) is within
    sqrt(X) grow + 1 of pi X / y, and the ring holds at most
    (N+(Q2) - N-(Q)) / 2 pairs."""
    return 0.5 * (math.pi * (Q2 - Q) / y
                  + grow * (math.sqrt(Q2) + math.sqrt(Q)) + 2.0)


def _table_fits(R, root, y, grow):
    """Whether a coset table of radius R (a float or an array), root its
    square root, stays enumerable: R <= 1e14, and N+(R) / 2 of _ring_pairs,
    a bound on its cosets, at most MAX_COSETS."""
    return (R <= 1e14) & (0.5 * (math.pi * R / y + grow * root + 1.0)
                          <= MAX_COSETS)


def _lattice_radius(z: Point, w: Point, k: int, tol: float):
    """(R0, tail): a working radius R0 whose lattice tail, the mass of
    every coset with |cz+d|^2 > R0, is at most tol / 2, and that tail.

    The rings Q < |cz+d|^2 <= rQ, r = _RING, start at
    Q = max(4 Im z / Im w, 8), so s = Im w Q / Im z >= 4 throughout.  A
    coset of the ring weighs at most g0 (2 + c_k (Im w + Im z / Q)), as
    1 + min u rises in s from s = 1 on and Im g0z = Im z / |cz+d|^2 falls,
    and the ring's term is that times its pairs (_ring_pairs).  Each
    ring's term is at most rb times the one before from ring j on, where
    rb = rb(s_j) of _ring_factors: the pairs grow at most r-fold a ring
    (their parts scale by r, sqrt r and 1), the line factor falls in Q,
    g0 falls by growth(s)^(-k/2) exactly, and growth rises in s, as
    (rs+1)/(s+1) has derivative (r-1)/(s+1)^2 > 0.  So once rb < 1 the
    rings after j weigh at most term * rb / (1 - rb).

    One walk up the grid stops at the first ring whose term / (1 - rb) is
    at most 1e-4 of the budget tol / 2, with that rest; its suffix sums,
    taken from the top down, are the tails of the grid's radii, and R0 is
    the first whose tail is within budget.  A radius past the start must
    keep its table enumerable (_table_fits), which holds up to some radius
    of the grid and not beyond.  A ring whose term is not a number (an
    infinite count or line factor times a g0 that underflows to 0) weighs
    inf."""
    y, v = z.y, w.y
    ck = _profile_constant(k)
    grow, budget = 2.0 * (1.0 + 1.0 / y), 0.5 * tol
    start = max(4.0 * (y / v), 8.0)  # 8 on the diagonal at every height
    grid, terms, rest = [], [], math.inf
    Q2 = start
    for j in range(_MAX_RINGS):
        Q, Q2 = Q2, _grid(start, j + 1)
        # s = Q exactly on the diagonal; v Q would overflow first
        g0, rb = _ring_factors(Q * (v / y), k)
        term = _ring_pairs(Q, Q2, y, grow) * g0 * (2.0 + ck * (v + y / Q))
        grid.append(Q)
        terms.append(math.inf if math.isnan(term) else term)
        if rb < 1.0 and terms[-1] / (1.0 - rb) <= 1e-4 * budget:
            rest = terms[-1] * rb / (1.0 - rb)
            break
    tails = list(accumulate(reversed(terms), initial=rest))[:0:-1]
    j = next((j for j, t in enumerate(tails) if t <= budget), len(grid) - 1)
    while j and not _table_fits(grid[j], math.sqrt(grid[j]), y, grow):
        j -= 1
    best = tails[j]
    if best <= budget:
        return grid[j], best
    if best == math.inf:
        raise CutoffExceeded(
            f"lattice tail bound not representable at Im z = {y:.3e}, "
            f"Im w = {v:.3e}",
            best_tail_bound=math.inf,
        )
    raise CutoffExceeded(
        f"tail bound {best:.3e} not reachable at tol {tol:.3e}",
        best_tail_bound=best,
    )


def _per_value(f, a):
    """f (a Python function of one float) at every entry of the nonempty
    array a, called once per distinct value.  The points of a batch mostly
    share one: then the result is that one float, which broadcasts as the
    array would."""
    first = a[0].item()
    if (a == first).all():
        return f(first)
    values = np.sort(a)
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    return _libm(f, values)[np.searchsorted(values, a)]


def _lattice_radii(x, y, k: int, tol: float):
    """_lattice_radius(z, z, k, tol) at every point z = x + iy of two float
    arrays, in lockstep: arrays of R0 and of the tail, with the same bits,
    and nan in both where _lattice_radius raises CutoffExceeded.

    On the diagonal every point starts from Q = 8 and every ring has
    s = Q, so the batch shares one grid of rings, and g0 and rb are Python
    floats once per ring (_ring_factors).  Each point's ring terms are the
    scalar's arithmetic in numpy's exactly rounded ops, a row of a
    (points x rings) array, zero past the ring where the point stops as
    the scalar does; its rest follows in a last column.  A reversed
    sequential np.add.accumulate takes the suffix sums, adding in the
    scalar's order (the zeros change no sum), and each point's R0 is its
    first grid radius within budget, or nan where that is past its guard.
    """
    n = len(x)
    ck = _profile_constant(k)
    grid, cols, rest = [], [], np.full(n, math.inf)
    live, Q2 = np.arange(n), 8.0
    with np.errstate(all="ignore"):  # Python's floats do not warn
        grow, budget = 2.0 * (1.0 + 1.0 / y), 0.5 * tol
        for j in range(_MAX_RINGS):
            Q, Q2 = Q2, _grid(8.0, j + 1)
            g0, rb = _ring_factors(Q, k)
            yl = y[live]
            term = (_ring_pairs(Q, Q2, yl, grow[live]) * g0
                    * (2.0 + ck * (yl + yl / Q)))
            term[np.isnan(term)] = math.inf
            grid.append(Q)
            cols.append(np.zeros(n))
            cols[-1][live] = term
            if rb < 1.0:
                done = term / (1.0 - rb) <= 1e-4 * budget
                rest[live[done]] = (term * rb / (1.0 - rb))[done]
                live = live[~done]
                if not live.size:
                    break
        cols.append(rest)
        tails = np.add.accumulate(np.stack(cols[::-1], axis=1), axis=1)
        tails = tails[:, :0:-1]  # tails[:, j] is the suffix sum from ring j
        within = tails <= budget
        first = within.argmax(axis=1)
        R0 = np.array(grid)[first]
        ok = within.any(axis=1) & (
            (first == 0) | _table_fits(R0, np.sqrt(R0), y, grow))
        tail = tails[np.arange(n), first]
    return np.where(ok, R0, math.nan), np.where(ok, tail, math.nan)


def _line_starts(c, d, Q, x):
    """X0 = Re g0z of the line of each coset (c, d) (int64 arrays), with
    Q = |cz+d|^2 and x = Re z: a0/c - (cx + d)/(cQ) for c >= 1, the top
    rows from one solve_top_row on arrays, and x for the identity coset."""
    top = c != 0
    a0 = np.zeros(len(c), np.int64)
    a0[top], _ = solve_top_row(c[top], d[top])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(top, a0 / c - (c * x + d) / (c * Q), x)


def _array_lines(cosets, xs, ys, us, vs, k: int, tol_lines, tails):
    """The coset loop over the coset tables of one or several pairs (z, w),
    in array passes.

    cosets = (c, d, Q, owner) of coset_arrays: the cosets of pair
    j = owner[i] (z = xs[j] + i ys[j], w = us[j] + i vs[j], with line
    budget tol_lines[j] and starting tail tails[j], all float arrays)
    contiguous and in increasing j, each table's identity coset first.
    A coset whose whole line is below the budget is pruned and adds
    g_max lf to the tail.  Every other line gets a window [m_lo, m_hi],
    grown in rounds, lo's step and then hi's, until both side tails are
    below half the budget, and adds lo, then hi.  Each pair's tail takes
    its additions in coset order (np.add.accumulate along one row per
    pair, as long as the longest table).

    The bits are those of a loop over one coset at a time in scalar libm
    arithmetic, which the tests keep as the oracle: numpy does only exactly
    rounded arithmetic (+ - * / sqrt, floor, ceil) on values that are that
    loop's; every exp, log, log1p, atan2 and square goes through libm
    (_libm), and the top rows of all the cosets through one call of
    solve_top_row on arrays, whose integer extended Euclid gives each the
    scalar form's a.

    The first coset whose line cannot be summed raises CutoffExceeded:
    "m-line window too large" where its first window holds more than
    2 width - 1 >= _MAX_LINE_TERMS terms, "failed to converge" where it is
    still growing after _MAX_GROWTH rounds, and "too large" again where it
    has grown past _MAX_LINE_TERMS terms.  best_tail_bound is its pair's
    tail before the coset, with the coset's lo and hi added in the last
    case.
    Returns (rows, counts, tails, terms): six values per m-line segment,
    one after another, (m_lo - terms before it across all pairs,
    X0 - Re w, beta, alpha, Im gz + Im w, arg(cz+d)), and each segment's
    term count, pair after pair, and arrays of each pair's tail and each
    pair's number of terms.
    """
    c, d, Q, owner = cosets
    del cosets  # c, d and Q are soon replaced by their unpruned cosets
    n_pairs = len(xs)

    def spread(values, at):
        # a per-pair quantity at the cosets at; one pair's stays a scalar,
        # which broadcasts without a copy per coset
        return values[owner[at]] if n_pairs > 1 else values[0]

    ck = _profile_constant(k)
    nhk = -0.5 * k
    half_lines = 0.5 * tol_lines
    u_cuts = np.broadcast_to(
        _per_value(lambda t: (t / 8.0) ** (-2.0 / k) - 1.0, tol_lines),
        tol_lines.shape)

    v = spread(vs, slice(None))
    vp = spread(ys, slice(None)) / Q
    alpha = 4.0 * v * vp
    try:
        beta = _libm(pow, v - vp, repeat(2))
    except OverflowError:  # as in IEEE arithmetic, a square past 1e308 is inf
        beta = _libm(lambda t: t * t if abs(t) > 1e154 else t ** 2, v - vp)
    # what each coset adds to the tail, in turn: g_max lf (and 0) if it is
    # pruned, else the side tails lo and hi of its final window
    added = np.zeros((len(Q), 2))
    added[:, 0] = (_libm(math.exp, nhk * _libm(math.log1p, beta / alpha))
                   * (2.0 + ck * (v + vp)))
    kept = np.flatnonzero(~(added[:, 0] <= spread(tol_lines, slice(None))))
    c, d, Q, vp, alpha, beta = (a[kept] for a in (c, d, Q, vp, alpha, beta))
    vpv = vp + spread(vs, kept)
    del v, vp

    # X0 - Re w, and arg(cz+d): atan2(0, 1) = 0 for the identity coset
    x = spread(xs, kept)
    argden = _libm(math.atan2, c * spread(ys, kept), c * x + d)
    x0 = _line_starts(c, d, Q, x) - spread(us, kept)
    del x
    t0 = -x0  # Re w - X0, exactly
    width = alpha * spread(u_cuts, kept) - beta
    width = np.sqrt(np.where(width > 0.0, width, 0.0))
    m_lo = np.ceil(t0 - width) + 0.0  # -0.0 to 0.0, as the scalar loop's ints
    m_hi = np.floor(t0 + width)
    lo, hi = np.zeros(len(c)), np.zeros(len(c))
    # a window this wide ends the sum before it grows
    wide = 2.0 * width - 1.0 >= _MAX_LINE_TERMS
    del width
    grow = np.flatnonzero(~wide)
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
        grow = grow[grew]
    stuck = np.zeros(len(c), bool)
    stuck[grow] = True  # still growing after _MAX_GROWTH rounds
    bad = wide | stuck | (m_hi - m_lo + 1.0 > _MAX_LINE_TERMS)

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
        tail = float(acc[owner[i], 2 * pos[i]])  # before coset i
        if stuck[b]:
            raise CutoffExceeded("m-line window failed to converge",
                                 best_tail_bound=tail)
        if not wide[b]:
            tail = float(acc[owner[i], 2 * pos[i] + 2])  # with its lo and hi
        raise CutoffExceeded("m-line window too large", best_tail_bound=tail)
    tails = acc[:, -1]
    del acc, pos, d, Q

    count = (m_hi - m_lo + 1.0).astype(np.int64)
    live = count > 0
    count = count[live]
    before = np.cumsum(count) - count
    body = np.column_stack((m_lo[live] - before, x0[live], beta[live],
                            alpha[live], vpv[live], argden[live]))
    terms = np.bincount(owner[kept[live]], weights=count, minlength=n_pairs)
    return body.ravel(), count, tails, terms.astype(np.int64)


def _terms(cols, at, start: int, k: int):
    """The terms start, start + 1, ... of a term pass, at[i] the segment of
    term start + i and cols the six columns of the segments' rows: a row of
    real parts and one of imaginary parts.  Each term's value is the same
    at any start and in a pass of any length."""
    first, x0, beta, alpha, vpv, argden = cols
    offs = x0[at] + (np.arange(start, start + len(at), dtype=np.float64)
                     + first[at])
    mag = np.exp(-0.5 * k * np.log1p((offs * offs + beta[at]) / alpha[at]))
    # float(k): numpy scales by a Python float faster than by an int
    ph = float(k) * (_HALF_PI - np.arctan2(vpv[at], offs) - argden[at])
    del offs
    ph = np.remainder(ph + math.pi, _TWO_PI) - math.pi
    out = np.empty((2, len(at)))
    np.multiply(mag, np.cos(ph), out=out[0])
    np.multiply(mag, np.sin(ph), out=out[1])
    return out


def _exact_sums(chunks, n_rows: int) -> list:
    """The sums of the n_rows rows of float64 arrays fed as column chunks
    (n_rows, any number of columns), each correctly rounded, as math.fsum
    gives them.

    A double's bucket is its biased exponent E: all of a bucket's values
    are multiples of its quantum 2^(max(E, 1) - 1075) and below 2^53
    quanta.  Each value splits exactly into hi, itself with the low 26 bits
    of its fraction cleared, and lo = value - hi, below 2^26 quanta, and
    np.bincount sums the his and the los of each bucket.  A bucket's sum of
    up to 2^26 values is then a multiple of its quantum below 2^53 of them,
    so float64 holds it exactly; after every 2^26 values of a row, Python
    ints take the buckets over, and the correctly rounded int / int
    division gives the double.  Where the exact sum is zero, it is -0.0 if
    every value is -0.0 and fsum gives -0.0 for that, else 0.0; a row with
    an inf or a nan sums to what fsum gives for its non-finite values,
    which is what fsum gives for the row.  A bucket sum that overflows,
    which only values near the top of the double range can make, raises
    OverflowError, as fsum does where its partial sums overflow; no term of
    a kernel sum is above 1.
    """
    totals = [0] * n_rows
    his, los = np.zeros((n_rows, _EXPONENTS)), np.zeros((n_rows, _EXPONENTS))
    held = 0  # values per row in his and los
    specials = [[] for _ in range(n_rows)]
    neg_zero = [True] * n_rows  # every value of the row so far is -0.0

    def flush():
        for r in range(n_rows):
            if specials[r]:
                continue
            for x in [*his[r][his[r] != 0.0].tolist(),
                      *los[r][los[r] != 0.0].tolist()]:
                n, d = x.as_integer_ratio()
                totals[r] += n << (1075 - d.bit_length())  # x 2^1074
        his[:], los[:] = 0.0, 0.0

    # inf - inf, in lo, and an overflowing bucket sum make no warning
    with np.errstate(invalid="ignore", over="ignore"):
        for vals in chunks:
            if held + vals.shape[1] > _BUCKET_VALUES:
                flush()
                held = 0
            held += vals.shape[1]
            bits = vals.view(np.int64)
            keys = (bits >> 52) & (_EXPONENTS - 1)
            hi = (bits & _HIGH).view(np.float64)
            lo = vals - hi
            for r in range(n_rows):
                h = np.bincount(keys[r], hi[r], _EXPONENTS)
                lo_r = np.bincount(keys[r], lo[r], _EXPONENTS)
                if lo_r[-1] != 0.0:  # an inf or a nan leaves a nan there
                    specials[r] += vals[r][~np.isfinite(vals[r])].tolist()
                neg_zero[r] = (neg_zero[r]
                               and bool((bits[r] == _NEG_ZERO).all()))
                his[r] += h
                los[r] += lo_r
    flush()
    sums = []
    for r in range(n_rows):
        if specials[r]:
            sums.append(math.fsum(specials[r]))
        elif totals[r]:
            sums.append(totals[r] / _SCALE)
        else:
            sums.append(math.fsum((-0.0,)) if neg_zero[r] and held else 0.0)
    return sums


def _term_sums(rows, counts, k: int):
    """The sum of the terms of a line stage, counts[i] of them from segment
    i, as a complex: the arithmetic of one line, with each segment's values
    taken out to its terms (_terms).

    A sum of EXACT_SUM_MIN_TERMS terms or more is evaluated and summed a
    _CHUNK of terms at a time, exactly in numpy (_exact_sums); a smaller
    one is evaluated in one array pass, then summed by math.fsum, fed
    through a memoryview.  Both sums are exact, correctly rounded, so they
    give the same bits.  numpy evaluates a pass in place, reusing each
    temporary that nothing else refers to."""
    tab = np.asarray(rows, dtype=np.float64)
    cols = tuple(tab[i::6] for i in range(6))
    counts = np.asarray(counts)
    n_terms = int(counts.sum())
    if n_terms >= EXACT_SUM_MIN_TERMS:
        last = np.cumsum(counts)  # one past the last term of each segment

        def chunks():
            for s in range(0, n_terms, _CHUNK):
                e = min(s + _CHUNK, n_terms)
                i, j = np.searchsorted(last, [s, e - 1], side="right")
                seg = np.arange(i, j + 1)
                at = seg.repeat(np.minimum(last[seg], e)
                                - np.maximum(last[seg] - counts[seg], s))
                yield _terms(cols, at, s, k)

        sums = _exact_sums(chunks(), 2)
    else:
        vals = _terms(cols, np.arange(len(counts)).repeat(counts), 0, k)
        sums = [math.fsum(memoryview(v)) for v in vals]
    return complex(*sums)


def _part_sums(rows, counts, k: int, ends):
    """The sums of the terms [ends[j-1], ends[j]) (from 0 for j = 0) of a
    line stage on the diagonal, as an array of real parts and one of
    imaginary parts: the terms are evaluated in one array pass (_terms),
    and each part is summed by one math.fsum a row, through a memoryview,
    but for a part of one term.  fsum gives one double as it is, but for a
    -0.0, which it may make 0.0; adding its sum of -0.0 does the same to
    each double, with no Python float per part."""
    tab = np.asarray(rows, dtype=np.float64)
    cols = tuple(tab[i::6] for i in range(6))
    vals = _terms(cols, np.arange(len(counts)).repeat(counts), 0, k)
    starts = np.concatenate(([0], ends[:-1]))
    one = ends - starts == 1
    sums = np.empty((2, len(ends)))
    sums[:, one] = vals[:, starts[one]] + math.fsum((-0.0,))
    views = [memoryview(v) for v in vals]
    for j in np.flatnonzero(~one).tolist():
        sums[:, j] = [math.fsum(v[starts[j]:ends[j]]) for v in views]
    return sums


def _worth_reducing(y, R0):
    """Whether the coset table of a point at height y and radius R0 is
    expected to hold REDUCTION_MIN_COSETS or more cosets: |cz+d|^2 <= R0 is
    an ellipse of area pi R0 / y in the (c, d) plane, and 6/pi^2 of its
    lattice points are coprime, two to a +/- pair.  y and R0 are floats or
    arrays."""
    return 3.0 * R0 / (math.pi * y) >= REDUCTION_MIN_COSETS


def _sum_terms(z: Point, w: Point, k: int, tol: float, R0: float,
               tail: float):
    """Shared enumeration engine, over the cosets with |cz+d|^2 <= R0 of
    the lattice radius (R0, tail) = _lattice_radius(z, w, k, tol).

    Returns (complex_sum, tail_bound, terms_used, cosets_used) for the sum
    of t_g(z, w)^k over one representative of each +/- pair; callers
    double both the value and the tail for the full group.
    """
    with np.errstate(all="ignore"):  # as Python's floats, which do not warn
        cosets = coset_arrays(*np.array([[z.x], [z.y], [R0]]))
        n_cosets = len(cosets[0])
        rows, counts, tails, terms = _array_lines(
            cosets, *np.array([[z.x], [z.y], [w.x], [w.y]]), k,
            np.array([0.25 * tol / n_cosets]), np.array([tail]))
    tail, n_terms = float(tails[0]), int(terms[0])
    total = _term_sums(rows, counts, k)
    # terms whose magnitude underflows to zero are each below 5e-324
    tail += n_terms * 5e-324
    return total, tail, n_terms, n_cosets


def _lipschitz_shorter(y, k: int, tol: float):
    """Whether the identity line of a diagonal sum at height y (a float, or
    an array with the same bits per entry) is expected to take fewer terms
    as _lipschitz_line's series than as the direct window, at the line
    budget b = tol / 4 of a one-coset table.

    Both counts are closed forms.  The direct window starts 2 * 2y
    sqrt(u_cut) + 1 terms wide, u_cut = (b/8)^(-2/k) - 1 as in
    _array_lines.  The series' terms sample the Gamma(k) density of rate
    4 pi y, whose Chernoff tail exp(-k h(x)), h(x) = x - 1 - log x at
    x = 4 pi y n / k, falls below b once k (x - 1)^2 / (2x) >= L = -log b:
    from n = (k + L + sqrt(L^2 + 2 k L)) / (4 pi y) on.
    """
    b = 0.25 * tol
    L = -math.log(b)
    n_series = (k + L + math.sqrt(L * L + 2.0 * k * L)) / (4.0 * math.pi * y)
    n_direct = 4.0 * math.sqrt((b / 8.0) ** (-2.0 / k) - 1.0) * y + 1.0
    return n_series < n_direct


def _lipschitz_line(y: float, k: int, tol: float, tail: float):
    """The identity coset's line of the diagonal half sum at height y, in
    the terms of _sum_terms, with tail the lattice tail beyond it.

    Lipschitz's formula turns sum_m (2iy / (2iy + m))^k into
    (4 pi y)^k / (k-1)! sum_{n >= 1} n^(k-1) e^(-4 pi n y), whose terms are
    each taken from their logarithm.  The ratio of term n + 1 to term n,
    r_n = (1 + 1/n)^(k-1) e^(-4 pi y), falls with n, so once r_n < 1 the
    terms after n sum to at most term n times r_n / (1 - r_n).  The series
    stops where that rest is within the line budget tol / 4 of a one-coset
    table, and the rest goes into the tail.
    """
    beta = 4.0 * math.pi * y  # inf above Im z of about 1.4e307
    head = k * (math.log(y) + math.log(4.0 * math.pi)) - math.lgamma(k)
    terms = []
    n = 0
    while True:
        n += 1
        log_term = head + (k - 1) * math.log(n) - beta * n
        terms.append(math.exp(log_term))
        log_r = (k - 1) * math.log1p(1.0 / n) - beta
        if log_r < 0.0:
            rest = math.exp(log_term + log_r - math.log(-math.expm1(log_r)))
            if rest <= 0.25 * tol:
                break
    # the terms and the rest that underflow to zero are each below 5e-324
    tail += rest + (n + 1) * 5e-324
    return complex(math.fsum(terms)), tail, n, 1


def _diagonal(z: Point, w: Point, k: int, tol: float, radius=None):
    """_sum_terms(z, w, k, tol, ...) for a pair of the strip with w == z,
    by the cheapest of three routes; radius is the lattice radius
    (R0, tail) of z if it is known.

    * Where the radius cannot be reached, or puts the table at
      REDUCTION_MIN_COSETS cosets or more, the sum is taken at
      reduce_to_domain(z), since R_k(gz, gz) = R_k(z, z).  A point of the
      domain comes back as the same object and stays, and an unreached
      radius there is raised.
    * Where the table holds the identity coset alone (R0 < y^2 <=
      |cz+d|^2 for every c >= 1) and _lipschitz_shorter, the sum is
      _lipschitz_line.
    * Else it is the direct _sum_terms at that radius.
    """
    unreached = None
    try:
        R0, tail = radius or _lattice_radius(z, w, k, tol)
    except CutoffExceeded as exc:
        unreached = exc
    if unreached or _worth_reducing(z.y, R0):
        p = reduce_to_domain(z)
        if p is not z:
            z = w = p
            R0, tail = _lattice_radius(z, w, k, tol)
        elif unreached:
            raise unreached
    if R0 < z.y * z.y and _lipschitz_shorter(z.y, k, tol):
        return _lipschitz_line(z.y, k, tol, tail)
    return _sum_terms(z, w, k, tol, R0, tail)


def _checked(half, tail: float, n_terms: int, n_cosets: int,
             tol: float) -> KernelResult:
    """The KernelResult of a half sum over the +/- pairs, or CutoffExceeded
    where its tail is above tol or not a number (a pair of great heights
    whose alpha and beta both overflow)."""
    result = KernelResult(2.0 * half, 2.0 * tail, n_terms, n_cosets)
    if not result.tail_bound <= tol:
        raise CutoffExceeded(
            f"achieved tail {result.tail_bound:.3e} exceeds tol {tol:.3e}",
            best_tail_bound=result.tail_bound,
        )
    return result


def bergman_R(z: Point, w: Point, cfg: WeightConfig) -> KernelResult:
    """Evaluate R_k(z, w) with a certified truncation bound <= cfg.tol.

    R_k is 1-periodic in each argument on its own, so z and w are each
    moved into |Re| <= 1/2 first (translate_into_strip, exact in floating
    point).  An off-diagonal pair is the direct lattice sum.  On the
    diagonal, a point whose table would be large or out of reach is
    evaluated at its reduction to the fundamental domain, and a point
    whose table holds the identity coset alone sums its translation line
    by Lipschitz's formula where that series is the shorter (_diagonal).
    """
    _, z = translate_into_strip(z)
    _, w = translate_into_strip(w)
    k, tol = cfg.k, 0.5 * cfg.tol
    if z == w:
        return _checked(*_diagonal(z, w, k, tol), cfg.tol)
    return _checked(*_sum_terms(z, w, k, tol, *_lattice_radius(z, w, k, tol)),
                    cfg.tol)


def bergman_R_diagonal(x, y, cfg: WeightConfig):
    """bergman_R(z, z, cfg) at every point z = x + iy of two float arrays,
    bit for bit: (values, tails), an array of the kernel values (complex)
    and one of their tail bounds.

    The points move into the strip as arrays: x - rint(x) where
    |x| > 1/2, which is exact, and rint rounds half to even, as round
    does.  Their lattice radii come from one lockstep pass
    (_lattice_radii).  A point whose radius is out of reach, whose coset
    table is large enough to be reduced, or whose translation line takes
    Lipschitz's series, goes the way of bergman_R on its own,
    its radius passed on (_diagonal): the call's set-up is small beside
    its work.  The points with small tables (every weight-1200 point of
    the bulk) share the set-up instead: their coset tables come
    from one coset_arrays call, their cosets go through one
    _array_lines pass and their terms through one _part_sums pass, where a
    point whose sum holds one term (every bulk weight-1200 point) needs no
    fsum.  All of it runs under np.errstate, so a batch makes no numpy
    warning.  Where some point fails, CutoffExceeded is raised, but not
    necessarily that of the first point to fail in a loop of bergman_R
    calls; measure_density, which calls this, finds that one.
    """
    k, tol = cfg.k, 0.5 * cfg.tol
    invalid = np.flatnonzero(~(np.isfinite(x) & np.isfinite(y) & (y > 0.0)))
    if invalid.size:  # the first is no Point: raise its ValueError
        Point(float(x[invalid[0]]), float(y[invalid[0]]))
    x = np.where(np.abs(x) > 0.5, x - np.rint(x), x)
    values, tails = np.empty(len(x), complex), np.empty(len(x))
    with np.errstate(all="ignore"):
        radii, lattice_tails = _lattice_radii(x, y, k, tol)
        own = (np.isnan(radii) | _worth_reducing(y, radii)
               | (radii < y * y) & _lipschitz_shorter(y, k, tol))
        for j in np.flatnonzero(own).tolist():
            z = Point(float(x[j]), float(y[j]))
            radius = (None if math.isnan(radii[j])
                      else (float(radii[j]), float(lattice_tails[j])))
            res = _checked(*_diagonal(z, z, k, tol, radius), cfg.tol)
            values[j], tails[j] = res.value, res.tail_bound
        at = np.flatnonzero(~own)
        if at.size:
            x, y = x[at], y[at]
            cosets = coset_arrays(x, y, radii[at])
            n_cosets = np.bincount(cosets[3], minlength=len(at))
            rows, counts, tail, terms = _array_lines(
                cosets, x, y, x, y, k, 0.25 * tol / n_cosets,
                lattice_tails[at])
            del cosets
            re, im = _part_sums(rows, counts, k, np.cumsum(terms))
            # 2.0 * half as Python's complex product, (2, 0) times (re, im)
            values.real[at] = 2.0 * re - 0.0 * im
            values.imag[at] = 2.0 * im + 0.0 * re
            # terms whose magnitude underflows to zero are each below 5e-324
            tails[at] = 2.0 * (tail + terms * 5e-324)
    over = np.flatnonzero(tails > cfg.tol)
    if over.size:  # as _checked
        tail = float(tails[over[0]])
        raise CutoffExceeded(
            f"achieved tail {tail:.3e} exceeds tol {cfg.tol:.3e}",
            best_tail_bound=tail)
    return values, tails


def _weight_4_lines(x, b):
    """b^4 sum_m ((m + x)^2 + b^2)^-2 over all integers m, at float arrays
    x and b > 0: -b^3/2 times the b-derivative of the partial fractions of
    pi cot (DLMF 4.22.3), (pi/b) sinh(2 pi b)/(cosh(2 pi b) - cos(2 pi x)).
    In E = e^(-2 pi b), C = cos(2 pi x) and D = 1 - 2 C E + E^2, with libm's
    exp and cos, no intermediate overflows."""
    E = _libm(math.exp, -_TWO_PI * b)
    C = _libm(math.cos, _TWO_PI * x)
    D = 1.0 + E * (E - 2.0 * C)
    return (_HALF_PI * b * (1.0 - E * E) / D
            + 2.0 * math.pi ** 2 * (b * E) * b * (C * (1.0 + E * E) - 2.0 * E)
            / (D * D))


def offdiagonal_sum_bound(z: Point):
    """Certified upper bound on sum over g != +/-I of (1 + u(z, gz))^{-2}.

    Used to turn a minimum-displacement value into a certified bound on the
    off-identity kernel mass at any larger weight.  The sum is invariant
    under z -> hz, so it is taken at reduce_to_domain(z), where
    y >= sqrt(3)/2.  On the coset of g0, 1 + u(z, T^m g0 z) =
    ((m + x)^2 + b^2)/alpha with x = Re g0z - Re z, b = Im g0z + y and
    alpha = 4 y Im g0z, so its line is (alpha/b^2)^2 _weight_4_lines(x, b).
    The cosets with |cz+d|^2 <= R0 add their lines, less the identity's
    m = 0 term, exactly 1, and _lattice_radius bounds the rest at 5% of a
    closed-form estimate of the sum: in the bulk 24 = 2 * 4 pi / (pi/3),
    the hyperbolic lattice-point mean, and from y of about 4 up 2 pi y, the
    c = 0 line, capped to stay finite.  Where the bound is above the largest
    float, from y of about 2.8e307 up, it raises CutoffExceeded.

    Rounding, u = 2^-53: Q and X0 come within 5u relative and 11u absolute
    of their exact values; a line moves by at most 6 times the relative
    error of Im g0z = y/Q and 2.4 times the error of x, and the closed form,
    whose second part is below 5% of its first (E < 0.0044), adds 10u:
    128u a line.  The lines are positive, fsum rounds once, and the
    identity's line is at least 2.7, so taking out its 1 scales the error
    by at most 1.6: 210u, which the factor 1 + 2^-44 (512u) covers.
    """
    z = reduce_to_domain(z)
    x, y = z.x, z.y
    tol = 0.05 * min(max(24.0, _TWO_PI * y), 0.5 * sys.float_info.max)
    R0, tail = _lattice_radius(z, z, 4, tol)
    with np.errstate(all="ignore"):  # as Python's floats, which do not warn
        c, d, Q, _ = coset_arrays(*np.array([[x], [y], [R0]]))
        v = y / Q  # Im g0z
        b = v + y
        a = 4.0 * (y / b) * (v / b)  # alpha / b^2
        lines = a * a * _weight_4_lines(_line_starts(c, d, Q, x) - x, b)
    bound = 2.0 * (math.fsum(lines.tolist()) - 1.0 + tail) * (1.0 + 2.0 ** -44)
    if not bound < math.inf:
        raise CutoffExceeded(f"weight-4 sum not representable at Im z = {y:.3e}",
                             best_tail_bound=math.inf)
    return bound


def residual_certificate(z: Point, k: int) -> float:
    """Certified bound on |R_k(z,z) - 2| from the minimum displacement.

    |R_k(z,z) - 2| <= sum_{g != +/-I} (1+u)^{-k/2}
                   <= (1+u_min)^{-(k-4)/2} * sum_{g != +/-I} (1+u)^{-2},
    with u_min certified by the displacement search and the weight-4 sum
    by its closed form (offdiagonal_sum_bound).  Both sums are invariant
    under z -> hz, and each is taken at reduce_to_domain(z).
    """
    if k % 2 or k < 4:
        raise ValueError("k must be an even integer >= 4")
    _, d_min = min_displacement(z)
    s2 = offdiagonal_sum_bound(z)
    return s2 * math.exp(-0.5 * (k - 4) * math.log1p(u_from_distance(d_min)))
