"""Certified evaluation of the normalized reproducing kernel R_k(z, w).

R_k(z, w) is a sum over the full integer Moebius group of normalized terms
t_g(z, w)^k with |t_g| = (1 + u(w, gz))^{-1/2}, where u is the point-pair
invariant.  The sum is organized as translation cosets g0 = (c, d), each
an m-line sum_m (2i sqrt(Im g0z Im w) / (tau + m))^k e^(-ik arg(cz+d)) with
tau = g0z - conj(w), because within a coset the image height
Im(gz) = y/|cz+d|^2 is constant.  A line has two evaluators, and takes
the one with fewer terms by closed-form lengths (_array_lines): its direct
window of terms, or Lipschitz's series sum_m (tau + m)^-k =
(-2 pi i)^k / (k-1)! sum_{n >= 1} n^(k-1) e^(2 pi i n tau), whose term n is
(2 pi sqrt(alpha))^k n^(k-1) e^(-2 pi n Im tau) / (k-1)! at phase
2 pi n Re tau - k arg(cz+d), alpha = 4 Im g0z Im w: a handful of terms
where the window would hold up to millions that cancel.  Every truncation
is accompanied by an analytic upper bound on the omitted mass, so
KernelResult.tail_bound is a genuine certificate:

  * m-line side tails: sum-vs-integral comparison of h(t)^{-k/2} with
    h(t) = 1 + (t^2 + beta)/alpha convex, giving
    f(M) * (1 + alpha*h(M)/(M*(k-2))) per side beyond offset M;
  * the series' rest past term N: term N times r_N / (1 - r_N), as the
    ratio r_n = (1 + 1/n)^(k-1) e^(-2 pi Im tau) of term n + 1 to term n
    falls with n;
  * whole quiet cosets: max term times (2 + c_k*(v + v')), where
    c_k = sqrt(pi)*Gamma((k-1)/2)/Gamma(k/2) integrates the line profile;
  * the lattice beyond |cz+d|^2 > R0: rings of ratio 2^(1/4), counting the
    lattice points of each row by row (Cassels's count of an ellipse) and
    bounding each ring by its inner-edge term, closed by a geometric series
    whose ratio is controlled analytically; R0 is the first radius of the
    rings' grid whose tail is within budget, found in one walk up the grid.

On the diagonal every point of the strip below the unit circle is
evaluated at reduce_to_domain(z), as R_k(gz, gz) = R_k(z, z), before its
lattice radius (_diagonal_pairs): a low point with 14k-97k cosets at weight
12 becomes one with a few hundred, and the image is exact but for one
rounding of each coordinate.  A point of the domain keeps its bits.  Every
pair off the diagonal is the direct sum.

The coset loop (_array_lines) prunes, chooses each line's evaluator and
adds the tails, in array passes over the tables of coset_arrays, and
records each line as one row.  Its bits are those of a scalar loop over
one coset at a time, which the tests keep as its oracle: numpy does only
exactly rounded arithmetic, and the top rows come from one integer
extended Euclid over all the cosets (solve_top_row on arrays).  The bounds
that only price omitted mass, h^(-k/2) of a pruned coset and of each side
tail, are integer powers of 1/h in exactly rounded products
(_inverse_powers).  Two maps per coset stay libm's, one Python float at a
time, as their bits enter the terms and numpy's own differ in the last
bit for some arguments: the square beta = (Im w - Im g0z)^2 (CPython's
x ** 2, not x * x) and arctan2 for arg(cz+d).  The exp, log, log1p and
expm1 of the few series lines are libm's too.  The terms of every row are
then evaluated in numpy and summed exactly, so the result is
order-independent and deterministic: a sum of EXACT_SUM_MIN_TERMS terms or
more a _CHUNK of terms at a time into exact buckets by binary exponent
(_exact_sums), with no Python float per term, a smaller one by Shewchuk's
fsum through a memoryview, which give the same bits.

bergman_R and bergman_R_diagonal, which takes the diagonal at many points
as two coordinate arrays, run the same kernel pass (_kernel_pass): one
coset_arrays call, one _array_lines pass carrying an owner index per
coset, and one term pass whose sums are taken part by part (_part_sums),
bit for bit the same for a pair alone as among others, since numpy's exp,
log, log1p, arctan2, cos, sin and remainder give an element the same bits
in a long array as in a short one.  A batch takes its lattice radii from
one lockstep pass (_lattice_radii, with one grid of rings for the batch),
a single point from the scalar _lattice_radius, which takes about a tenth
of the lockstep pass's time on one point: 3-5 us at k 200-1600 and about
40 us at k 12 on a 2-core Xeon.

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

from .errors import CuspKernelError, CutoffExceeded
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
# the expected cosets of one kernel pass of a batch, which bound its memory:
# on a 2-core Xeon the weight-12 horizontal line (15 points of about 630
# cosets) peaks at 35.0, 36.1 and 36.7 MB in passes of 2^11, 2^12 and 2^13
# cosets, and at 34.6 MB one point at a time; 128 points of 4000 cosets in
# one pass take 240 MB
_PASS_COSETS = 1 << 11
# a sum of this many terms or more goes through the exact numpy sum
# (_exact_sums), a _CHUNK of terms at a time, smaller ones through
# math.fsum: at about 2.5k terms the two take the same time (a weight-4
# sum of 2511 terms: 89 us in fsum, 104 in numpy; of 5394 terms: 180 and
# 150; a weight-12 diagonal sum of 4231 terms: 763 and 484)
EXACT_SUM_MIN_TERMS = 2560
# terms per chunk of an exact sum's pass, the fastest of 2^12..2^18 on a
# 2-core Xeon (2 MB L2 a core): bergman_R at 0.2+4672i, tol 1e-12 (890k
# direct terms then; its line is now one series term), took 101, 82, 77,
# 67, 85, 85 and 98 ms, and at 0.13+1.1i, tol
# 1e-14 (23k terms), 15.4, 11.1, 10.9, 10.7, 13.8, 13.7 and 11.9 ms
_CHUNK = 1 << 15
# values in a row of the term pass, one row per m-line segment
_ROW = 7
# the buckets of _exact_sums, one per biased exponent, and the most values
# of a row that float64 bucket sums take before they are set aside
_EXPONENTS = 1 << 11
_BUCKET_VALUES = 1 << 26
_HIGH = ~((1 << 26) - 1)  # a double's bits but the low 26 of its fraction
_NEG_ZERO = -1 << 63  # the bits of -0.0

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


def _inverse_powers(h, n):
    """(1/h)^n at every entry of the float array h >= 1, n >= 1 whole (an
    int, or k // 2 of a weight given as a float such as 12.0), by
    binary powering of 1/h: square the base for each bit of n, from the
    lowest, and multiply it in where the bit is set.  Only numpy's exactly
    rounded / and * enter, so every SIMD dispatch gives the same bits, and
    the same steps in Python floats give them too.

    Rounding, u = 2^-53: 1/h rounds once and enters n times, the squarings
    round n - popcount(n) times into the result and its products
    popcount(n) - 1 times, so the result is the exact (1/h)^n times 2n - 1
    factors 1 + d, |d| <= u, within gamma_(2n-1) relative (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., ch. 3), hence within
    (2n + popcount(n)) u relative for n <= 2^25, wherever (1/h)^n is at least
    2^-1022: every partial product is then normal.  Below, it underflows as
    a tail bound may, to a subnormal or to 0."""
    n = int(n)
    base = 1.0 / h
    out = None
    while True:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if not n:
            return out
        base = base * base


def _side_tails(M, alpha, beta, k: int):
    """Omitted mass of one m-line side beyond offset M > 0, over arrays.

    h(t) = 1 + (t^2+beta)/alpha is convex, so the terms at offsets
    M, M+1, ... are bounded by f(M) + integral, and the integral by the
    tangent-line comparison f(M) * alpha * h(M) / (M * (k-2)), with
    f = h^(-k/2) (_inverse_powers, k even).
    """
    h = 1.0 + (M * M + beta) / alpha
    f = _inverse_powers(h, k // 2)
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
    array a, called once per distinct value: the points of a batch mostly
    share one."""
    first = a[0].item()
    if (a == first).all():
        return np.full(a.shape, f(first))
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


def _series_reach(b: float, k: int) -> float:
    """The closed-form length of Lipschitz's series at line budget b, times
    its rate lambda = 2 pi Im tau: its terms are at most the Gamma(k)
    density of rate lambda at n, whose Chernoff tail exp(-k h(x)),
    h(x) = x - 1 - log x at x = lambda n / k, falls below b once
    k (x - 1)^2 / (2x) >= L = -log b, from n = (k + L + sqrt(L^2 + 2 k L))
    / lambda on."""
    L = -math.log(b)
    return k + L + math.sqrt(max(L * L + 2.0 * k * L, 0.0))


def _array_lines(cosets, xs, ys, us, vs, k: int, tol_lines, tails):
    """The coset loop over the coset tables of one or several pairs (z, w),
    in array passes.

    cosets = (c, d, Q, owner) of coset_arrays: the cosets of pair
    j = owner[i] (z = xs[j] + i ys[j], w = us[j] + i vs[j], with line
    budget tol_lines[j] and starting tail tails[j], all float arrays)
    contiguous and in increasing j, each table's identity coset first.
    A coset whose whole line is below the budget is pruned and adds
    g_max lf to the tail.  Every other line takes Lipschitz's series where
    its closed-form length N = max(ceil(_series_reach / (2 pi Im tau)), 1)
    is below the first direct window's 2 width + 1 terms and its rest past
    term N is within the budget, and adds that rest.  Every direct line
    gets a window [m_lo, m_hi], grown in rounds, lo's step and then hi's,
    until both side tails are below half the budget, and adds lo, then hi.
    Each pair's tail takes its additions in coset order (one np.bincount,
    which adds each bin's weights in input order).

    The bits are those of a loop over one coset at a time in scalar
    arithmetic, which the tests keep as the oracle: numpy does only exactly
    rounded arithmetic (+ - * / sqrt, floor, ceil) on values that are that
    loop's, the pruned cosets' and the side tails' h^(-k/2) included
    (_inverse_powers); the square beta and arg(cz+d), which enter the
    terms, and the exp, log, log1p and expm1 of the series lines go through
    libm (_libm); and the top rows of all the cosets through one call of
    solve_top_row on arrays, whose integer extended Euclid gives each the
    scalar form's a.

    The first coset whose line cannot be summed raises CutoffExceeded:
    "m-line window too large" where its first window holds more than
    2 width - 1 >= _MAX_LINE_TERMS terms, "failed to converge" where it is
    still growing after _MAX_GROWTH rounds, and "too large" again where its
    window or series runs past _MAX_LINE_TERMS terms.  best_tail_bound is
    its pair's tail before the coset, with the coset's additions in the
    last case.
    Returns (rows, counts, tails, terms): _ROW values per m-line segment,
    one after another, (first, X0 - Re w, beta, alpha, Im gz + Im w,
    arg(cz+d), lead), and each segment's term count, pair after pair, and
    arrays of each pair's tail and each pair's number of terms.  Term i of
    the term pass is m = i + first of a direct row and n = i + first of a
    series row; lead is nan on a direct row, and log((2 pi sqrt(alpha))^k
    / (k-1)!) on a series row, from log Im w and log Im gz, so that no
    alpha that overflows enters it.
    """
    c, d, Q, owner = cosets
    del cosets  # c, d and Q are soon replaced by their unpruned cosets
    n_pairs = len(xs)

    def spread(values, at):
        # a per-pair quantity at the cosets at; one pair's stays a scalar,
        # which broadcasts without a copy per coset
        return values[owner[at]] if n_pairs > 1 else values[0]

    ck = _profile_constant(k)
    half_lines = 0.5 * tol_lines
    # functions of each pair's line budget, once per distinct budget
    u_cuts = _per_value(lambda t: (t / 8.0) ** (-2.0 / k) - 1.0, tol_lines)
    reaches = _per_value(lambda t: _series_reach(t, k), tol_lines)

    v = spread(vs, slice(None))
    vp = spread(ys, slice(None)) / Q
    alpha = 4.0 * v * vp
    try:
        beta = _libm(pow, v - vp, repeat(2))
    except OverflowError:  # as in IEEE arithmetic, a square past 1e308 is inf
        beta = _libm(lambda t: t * t if abs(t) > 1e154 else t ** 2, v - vp)
    r = beta / alpha
    # where alpha or beta overflows, the same ratio with no square
    lost = np.flatnonzero(np.isinf(alpha) | np.isinf(beta))
    if lost.size:
        vl, vpl = spread(vs, lost), vp[lost]
        r[lost] = np.square((vl - vpl) / (2.0 * np.sqrt(vl) * np.sqrt(vpl)))
    # what each coset adds to the tail, in turn: g_max lf (and 0) if it is
    # pruned, the rest (and 0) of a series line, else the side tails lo and
    # hi of its final window
    added = np.zeros((len(Q), 2))
    added[:, 0] = _inverse_powers(1.0 + r, k // 2) * (2.0 + ck * (v + vp))
    del r
    kept = np.flatnonzero(~(added[:, 0] <= spread(tol_lines, slice(None))))
    c, d, Q, vp, alpha, beta = (a[kept] for a in (c, d, Q, vp, alpha, beta))
    vpv = vp + spread(vs, kept)
    del v

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
    lead = np.full(len(c), math.nan)

    # the lines whose series is the shorter, and whose rest at its
    # closed-form length N is within the budget, take the series
    rate = _TWO_PI * vpv
    s = np.flatnonzero(spread(reaches, kept) / rate < 2.0 * width + 1.0)
    if s.size:
        n = np.maximum(np.ceil(spread(reaches, kept[s]) / rate[s]), 1.0)
        log_r = (k - 1) * _libm(math.log1p, 1.0 / n) - rate[s]
        pairs = owner[kept[s]]
        log_q = _per_value(math.log, vs[pairs]) + _libm(math.log, vp[s])
        head = k * (math.log(4.0 * math.pi) + 0.5 * log_q) - math.lgamma(k)
        rest = _libm(math.exp, head + (k - 1) * _libm(math.log, n)
                     - rate[s] * n + log_r) / -_libm(math.expm1, log_r)
        fits = (log_r < 0.0) & (rest <= tol_lines[pairs])
        s = s[fits]
        m_lo[s], m_hi[s], lo[s], lead[s] = 1.0, n[fits], rest[fits], head[fits]
        width[s] = 0.0  # a series line has no window

    # a direct window this wide ends the sum before it grows
    wide = 2.0 * width - 1.0 >= _MAX_LINE_TERMS
    del width
    grow = np.flatnonzero(~wide & np.isnan(lead))
    half_line = spread(half_lines, kept)
    for _ in range(_MAX_GROWTH):
        if not grow.size:
            break
        t, al, be = t0[grow], alpha[grow], beta[grow]
        hl = half_line[grow] if n_pairs > 1 else half_line
        mlo, mhi = m_lo[grow], m_hi[grow]
        # both sides of the window in one call
        lo_g, hi_g = _side_tails(np.array((t - (mlo - 1.0), (mhi + 1.0) - t)),
                                 al, be, k)
        grew = lo_g > hl
        step = np.maximum(4.0, (mhi - mlo + 1.0) // 2.0)
        mlo = np.where(grew, mlo - step, mlo)
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
    if bad.any():
        b = np.flatnonzero(bad)[0]
        i = kept[b]
        # its pair's tail before coset i, or with its additions
        first = np.searchsorted(owner, owner[i])
        end = i if stuck[b] or wide[b] else i + 1
        tail = float(np.add.accumulate(np.concatenate(
            ([tails[owner[i]]], added[first:end].ravel())))[-1])
        raise CutoffExceeded("m-line window failed to converge" if stuck[b]
                             else "m-line window too large",
                             best_tail_bound=tail)
    # bincount adds each pair's weights one after another, in input order:
    # its starting tail, then two additions per coset
    tails = np.bincount(np.concatenate((np.arange(n_pairs), owner.repeat(2))),
                        np.concatenate((tails, added.ravel())))
    del added, d, Q

    count = (m_hi - m_lo + 1.0).astype(np.int64)
    live = count > 0
    count = count[live]
    before = np.cumsum(count) - count
    body = np.column_stack((m_lo[live] - before, x0[live], beta[live],
                            alpha[live], vpv[live], argden[live], lead[live]))
    terms = np.bincount(owner[kept[live]], weights=count, minlength=n_pairs)
    return body.ravel(), count, tails, terms.astype(np.int64)


def _terms(rows, at, index, k: int):
    """Terms of a term pass, as a row of real parts and one of imaginary
    parts: index[i] (a float) is the number of term i in the pass, at[i]
    its segment, and rows the float array of the segments' rows.  Every term
    is evaluated as a direct one, m of (1 + ((X0 - Re w + m)^2 + beta) /
    alpha)^(-k/2) at phase k (pi/2 - arg(tau + m) - arg(cz+d)), and the
    few of series rows again, n of exp(lead + (k-1) log n - 2 pi Im tau n)
    at phase 2 pi (n Re tau mod 1) - k arg(cz+d).  Each term's value is
    the same in a pass of any length and with any other terms."""
    first, x0, beta, alpha, vpv, argden, lead = rows.reshape(-1, _ROW).T
    m = index + first[at]
    offs = x0[at] + m
    mag = np.exp(-0.5 * k * np.log1p((offs * offs + beta[at]) / alpha[at]))
    # float(k): numpy scales by a Python float faster than by an int
    ph = float(k) * (_HALF_PI - np.arctan2(vpv[at], offs) - argden[at])
    del offs
    if not np.isnan(lead).all():
        s = np.flatnonzero(~np.isnan(lead)[at])
        n, row = m[s], at[s]
        mag[s] = np.exp(lead[row] + (k - 1) * np.log(n) - _TWO_PI * vpv[row] * n)
        ph[s] = _TWO_PI * np.remainder(n * x0[row], 1.0) - k * argden[row]
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
    so float64 holds it exactly; after every 2^26 values of a row, the
    nonzero bucket sums are set aside, and the row's sum is one math.fsum
    of all it set aside, the correctly rounded sum of exact doubles.  Where
    the exact sum is zero, it is -0.0 if every value is -0.0 and fsum gives
    -0.0 for that, else 0.0; a row with an inf or a nan sums to what fsum
    gives for its non-finite values, which is what fsum gives for the row.
    A bucket sum that overflows, which only values near the top of the
    double range can make, raises OverflowError, as fsum does where its
    partial sums overflow; no term of a kernel sum is above 1.
    """
    parts = [[] for _ in range(n_rows)]  # the nonzero bucket sums set aside
    his, los = np.zeros((n_rows, _EXPONENTS)), np.zeros((n_rows, _EXPONENTS))
    held = 0  # values per row in his and los
    specials = [[] for _ in range(n_rows)]
    neg_zero = [True] * n_rows  # every value of the row so far is -0.0

    def flush():
        for r in range(n_rows):
            if specials[r]:
                continue
            found = np.concatenate((his[r][his[r] != 0.0],
                                    los[r][los[r] != 0.0]))
            if not np.isfinite(found).all():
                raise OverflowError("a bucket sum overflows")
            parts[r] += found.tolist()
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
        total = math.fsum(specials[r] or parts[r])
        if not total and not specials[r] and neg_zero[r] and held:
            total = math.fsum((-0.0,))
        sums.append(total)
    return sums


def _part_sums(rows, counts, k: int, sizes):
    """The sums of the consecutive parts of a line stage, sizes[j] terms in
    part j and counts[i] from segment i, as a complex array: the arithmetic
    of one line per part, with each segment's values taken out to its
    terms (_terms).

    A part of EXACT_SUM_MIN_TERMS terms or more is evaluated and summed a
    _CHUNK of terms at a time from its own first term, exactly in numpy
    (_exact_sums).  The terms of the other parts are evaluated in one array
    pass, and each part is summed by one math.fsum a row, through a
    memoryview, but for a part of one term: fsum gives one double as it is,
    but for a -0.0, which it may make 0.0, and adding its sum of -0.0 does
    the same to each double, with no Python float per part.  Both sums are
    exact, correctly rounded, so they give the same bits.  numpy evaluates
    a pass in place, reusing each temporary that nothing else refers to."""
    rows, counts = np.asarray(rows, dtype=np.float64), np.asarray(counts)
    ends = np.cumsum(sizes)
    sums = np.zeros(len(sizes), complex)  # fsum gives 0.0 for no terms
    exact = sizes >= EXACT_SUM_MIN_TERMS
    mixed = exact.any()
    if mixed:
        last = np.cumsum(counts)  # one past the last term of each segment

        def chunks(start, end):
            for s in range(start, end, _CHUNK):
                e = min(s + _CHUNK, end)
                i, j = np.searchsorted(last, [s, e - 1], side="right")
                seg = np.arange(i, j + 1)
                at = seg.repeat(np.minimum(last[seg], e)
                                - np.maximum(last[seg] - counts[seg], s))
                yield _terms(rows, at, np.arange(s, e, dtype=np.float64), k)

        big = np.flatnonzero(exact)
        for j, e, n in zip(big.tolist(), ends[big].tolist(),
                           sizes[big].tolist()):
            sums[j] = complex(*_exact_sums(chunks(e - n, e), 2))
        if exact.all():
            return sums
    at = np.arange(len(counts)).repeat(counts)  # the segment of each term
    index = np.arange(len(at), dtype=np.float64)
    if mixed:  # the terms of the other parts
        keep = ~exact.repeat(sizes)
        at, index = at[keep], index[keep]
        sizes = np.where(exact, 0, sizes)
        ends = np.cumsum(sizes)  # in the pass
    vals = _terms(rows, at, index, k)
    one = sizes == 1
    if one.any():
        sums.real[one], sums.imag[one] = (vals[:, ends[one] - 1]
                                          + math.fsum((-0.0,)))
    re, im = map(memoryview, vals)
    rest = np.flatnonzero(sizes > 1).tolist()
    ends, sizes = ends.tolist(), sizes.tolist()
    for j in rest:
        part = slice(ends[j] - sizes[j], ends[j])
        sums[j] = complex(math.fsum(re[part]), math.fsum(im[part]))
    return sums


def _diagonal_pairs(x, y, k: int, tol: float):
    """(x, y, R0, tail): the diagonal points x + iy of the strip at their
    reduce_to_domain images, with their lattice radii, as the kernel pass
    takes them.  A point with x^2 + y^2 >= 1 - 1e-12, which reduce_to_domain
    returns as it is, keeps its bits and makes no Python object.  One point
    takes the scalar _lattice_radius, which gives _lattice_radii's bits in
    about a tenth of the time; a radius out of reach raises its
    CutoffExceeded."""
    with np.errstate(over="ignore"):  # as Python's floats, which do not warn
        low = np.flatnonzero(x * x + y * y < 1.0 - 1e-12).tolist()
    if low:
        x, y = x.astype(float), y.astype(float)  # copies
        for j in low:
            p = reduce_to_domain(Point(float(x[j]), float(y[j])))
            x[j], y[j] = p.x, p.y
    if len(x) == 1:
        z = Point(float(x[0]), float(y[0]))
        return (x, y, *(np.array([t]) for t in _lattice_radius(z, z, k, tol)))
    R0, tail = _lattice_radii(x, y, k, tol)
    for j in np.flatnonzero(np.isnan(R0))[:1].tolist():
        z = Point(float(x[j]), float(y[j]))
        _lattice_radius(z, z, k, tol)  # raises
    return x, y, R0, tail


def _kernel_pass(xs, ys, us, vs, radii, tails, k: int, tol: float):
    """(values, tails, terms, cosets): R_k(z, w) (complex), its tail bound
    and the terms and cosets of the sum over one representative of each
    +/- pair, at the pairs z = xs + i ys, w = us + i vs of the strip with
    their lattice radii (radii, tails), in one coset_arrays call, one
    _array_lines pass and one _part_sums pass."""
    with np.errstate(all="ignore"):  # as Python's floats, which do not warn
        cosets = coset_arrays(xs, ys, radii)
        n_cosets = np.bincount(cosets[3], minlength=len(xs))
        rows, counts, tails, terms = _array_lines(
            cosets, xs, ys, us, vs, k, 0.25 * tol / n_cosets, tails)
        del cosets
        # numpy's 2.0 * complex has the bits of Python's, (2, 0) * (re, im)
        values = 2.0 * _part_sums(rows, counts, k, terms)
    # terms whose magnitude underflows to zero are each below 5e-324
    return values, 2.0 * (tails + terms * 5e-324), terms, n_cosets


def _check_tail(tail: float, tol: float) -> None:
    """CutoffExceeded where a tail bound is above tol or not a number."""
    if not tail <= tol:
        raise CutoffExceeded(f"achieved tail {tail:.3e} exceeds tol {tol:.3e}",
                             best_tail_bound=tail)


def bergman_R(z: Point, w: Point, cfg: WeightConfig) -> KernelResult:
    """Evaluate R_k(z, w) with a certified truncation bound <= cfg.tol.

    R_k is 1-periodic in each argument on its own, so z and w are each
    moved into |Re| <= 1/2 first (translate_into_strip, exact in floating
    point).  Then the pair is the kernel pass on arrays of one
    (_kernel_pass): an off-diagonal pair at its own lattice radius, a
    diagonal point as _diagonal_pairs gives it, at its reduction to the
    fundamental domain where it lies below the unit circle.  The pass
    takes each m-line by the shorter of its two evaluators, the direct
    window or Lipschitz's series (_array_lines).
    """
    _, z = translate_into_strip(z)
    _, w = translate_into_strip(w)
    k, tol = cfg.k, 0.5 * cfg.tol
    if z == w:
        x, y, R0, tail = _diagonal_pairs(np.array([z.x]), np.array([z.y]),
                                         k, tol)
        u, v = x, y
    else:
        R0, tail = (np.array([t]) for t in _lattice_radius(z, w, k, tol))
        x, y, u, v = (np.array([t]) for t in (z.x, z.y, w.x, w.y))
    values, tails, terms, cosets = _kernel_pass(x, y, u, v, R0, tail, k, tol)
    result = KernelResult(complex(values[0]), float(tails[0]), int(terms[0]),
                          int(cosets[0]))
    _check_tail(result.tail_bound, cfg.tol)
    return result


def bergman_R_diagonal(x, y, cfg: WeightConfig):
    """bergman_R(z, z, cfg) at every point z = x + iy of two float arrays,
    bit for bit: (values, tails, terms), an array of the kernel values
    (complex), one of their tail bounds and one of their terms_used.

    The points move into the strip as arrays: x - rint(x) where
    |x| > 1/2, which is exact, and rint rounds half to even, as round
    does.  Then the points below the unit circle move to their reductions
    (_diagonal_pairs), as in bergman_R, and all take their lattice radii
    from one lockstep pass (_lattice_radii).  Consecutive points whose
    tables are expected to hold _PASS_COSETS cosets together share one
    kernel pass (_kernel_pass), with no Python object per point but for
    the points to be reduced.  A batch makes no numpy warning.

    Where some point fails, the batch raises what a loop of bergman_R
    calls raises, the error of the first point that fails on its own (its
    type, message and best_tail_bound): on a CuspKernelError, ValueError or
    OverflowError it runs its points through bergman_R in order.
    """
    try:
        return _diagonal_batch(x, y, cfg)
    except (CuspKernelError, ValueError, OverflowError):
        for z in map(Point, x.tolist(), y.tolist()):
            bergman_R(z, z, cfg)
        raise


def _diagonal_batch(x, y, cfg: WeightConfig):
    """bergman_R_diagonal, but the error of any failing point."""
    k, tol = cfg.k, 0.5 * cfg.tol
    invalid = np.flatnonzero(~(np.isfinite(x) & np.isfinite(y) & (y > 0.0)))
    if invalid.size:  # the first is no Point: raise its ValueError
        Point(float(x[invalid[0]]), float(y[invalid[0]]))
    x = np.where(np.abs(x) > 0.5, x - np.rint(x), x)
    x, y, R0, tail = _diagonal_pairs(x, y, k, tol)
    # |cz+d|^2 <= R0 is an ellipse of area pi R0 / y in the (c, d) plane,
    # and 6/pi^2 of its lattice points are coprime, two to a +/- pair
    with np.errstate(over="ignore"):
        group = np.cumsum(3.0 * R0 / (math.pi * y)) // _PASS_COSETS
    starts = np.flatnonzero(
        group != np.concatenate(([-1.0], group[:-1]))).tolist()
    values, tails = np.empty(len(x), complex), np.empty(len(x))
    terms = np.empty(len(x), np.int64)
    for s, e in zip(starts, [*starts[1:], len(x)]):
        values[s:e], tails[s:e], terms[s:e], _ = _kernel_pass(
            x[s:e], y[s:e], x[s:e], y[s:e], R0[s:e], tail[s:e], k, tol)
    over = tails[~(tails <= cfg.tol)]
    if over.size:
        _check_tail(float(over[0]), cfg.tol)
    return values, tails, terms


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
