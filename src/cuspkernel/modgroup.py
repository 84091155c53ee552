"""Enumeration of SL(2,Z): cosets, elliptic points, displacement bounds.

The minimum-displacement search returns a *certified* global minimum of
d(z, gz) over g != +/-I: every matrix outside the examined window is ruled
out by the height bound u(z, gz) >= (Q-1)^2/(4Q) with Q = |cz+d|^2, so the
search window can be shrunk as better candidates are found.

The reduction to the fundamental domain, the lower bound on a coset
table's size and the kernel's lattice-point count rest on one exact
reduction of the lattice Z + Z z in Python integers (_reduced_basis).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import CutoffExceeded
from .halfplane import (
    GammaMatrix,
    Point,
    fixed_point,
    hyp_distance,
    moebius_apply,
    pair_invariant,
)

SQRT3_2 = math.sqrt(3.0) / 2.0

# order-6 rotation fixing e^{i pi/3}
U_GENERATOR = GammaMatrix(1, -1, 1, 0)

# the most cosets a coset table may hold: 96 MB of coset_arrays
MAX_COSETS = 3_000_000

# the most (c, d) candidates one block of coset_arrays rows may hold
_BLOCK_CANDIDATES = 1 << 16

# the most lines of lattice points that _fewest_cosets counts
_BOUND_LINES = 1024


@dataclass(frozen=True)
class EllipticPoint:
    """An elliptic fixed point with its stabilizer order and a generator."""

    location: Point
    stabilizer_order: int  # order in SL(2,Z), counting -I
    generator: GammaMatrix

    def __post_init__(self):
        if self.stabilizer_order not in (4, 6):
            raise ValueError("modular-group stabilizers have order 4 or 6")
        # a true generator has trace 0 (order 4) or trace 1 (order 6);
        # e.g. the negative of an order-6 generator only has order 3
        want_trace = 0 if self.stabilizer_order == 4 else 1
        if self.generator.trace != want_trace:
            raise ValueError(
                f"generator trace {self.generator.trace} cannot generate a "
                f"cyclic group of order {self.stabilizer_order}"
            )
        # rounding in a computed location grows like 1/Im z, so the check
        # is relative to the height, against the exact fixed-point formula
        fp = fixed_point(self.generator)
        z = self.location
        if math.hypot(fp.x - z.x, fp.y - z.y) > 1e-9 * z.y:
            raise ValueError("generator does not fix the location")


def translate_into_strip(z: Point):
    """(n, T^-n z) with n = round(Re z) when |Re z| > 1/2, else (0, z);
    floating point subtracts the integer n exactly."""
    if abs(z.x) <= 0.5:
        return 0, z
    n = round(z.x)
    return n, Point(z.x - n, z.y)


def reduce_to_domain(z: Point) -> Point:
    """hz in the standard fundamental domain |Re| <= 1/2, |z| >= 1, exact
    but for one rounding of each coordinate.  A point of the domain, or one
    of the strip with |z|^2 within 1e-12 below 1, is returned as it is, the
    same object.  Where hz is above the largest float, CutoffExceeded is
    raised, with an infinite best_tail_bound, as no sum was taken.
    """
    return _reduction(z)[1]


def _reduction(z: Point):
    """(h, hz) of reduce_to_domain(z), h the identity where hz is z.

    With cz + d a shortest vector of Z + Z z and az + b the shortest one
    independent of it, Im hz = +/-y / |cz+d|^2 is the greatest height of
    the orbit, |Re hz| = |Re (az+b) conj(cz+d)| / |cz+d|^2 <= 1/2 and
    |hz| = |az+b| / |cz+d| >= 1; (a, b) is negated where ad - bc = -1.
    Each coordinate is one quotient of the basis's integers, rounded once.
    """
    if abs(z.x) <= 0.5 and z.x * z.x + z.y * z.y >= 1.0 - 1e-12:
        return GammaMatrix.identity(), z
    (a, b), (c, d), (uu, uv, area, _) = _reduced_basis(z.x, z.y)
    if a * d - b * c < 0:
        a, b, uv = -a, -b, -uv
    try:
        w = Point(uv / uu, area / uu)
    except OverflowError:
        raise CutoffExceeded(
            f"the image of Im z = {z.y:.3e} in the domain is above the "
            f"largest float", best_tail_bound=math.inf) from None
    return GammaMatrix(a, b, c, d), w


def _reduced_basis(x: float, y: float):
    """A reduced basis of the lattice Z + Z z, z = x + iy, in exact
    integers: ((a, b), (c, d), (uu, uv, area, one)), cz + d a shortest
    nonzero vector and az + b a shortest one independent of it, and
    uu = |cz+d|^2, uv = Re (az+b) conj(cz+d), area = y and one = 1, each
    times D^2.  With x = X / D and y = Y / D over their common power-of-two
    denominator D, D^2 |cz+d|^2 = (cX + dD)^2 + (cY)^2 is an integer form,
    and its Gauss-Lagrange reduction runs in Python ints.
    """
    (p, q), (r, s) = x.as_integer_ratio(), y.as_integer_ratio()
    D = max(q, s)
    X, Y = p * (D // q), r * (D // s)
    one = D * D
    u, v = (0, 1), (1, 0)  # the vectors 1 and z, and their Gram matrix
    uu, uv, vv = one, X * D, X * X + Y * Y
    if uu > vv:
        u, v, uu, vv = v, u, vv, uu
    while True:  # each swap lowers uu, a positive integer: it ends
        n = (2 * uv + uu) // (2 * uu)  # the integer nearest uv / uu
        v = (v[0] - n * u[0], v[1] - n * u[1])
        vv -= n * (2 * uv - n * uu)
        uv -= n * uu
        if vv >= uu:
            break
        u, v, uu, vv = v, u, vv, uu
    return v, u, (uu, uv, Y * D, one)


def solve_top_row(c, d) -> tuple:
    """Some (a, b) with ad - bc = 1, canonicalized so 0 <= a < c for c >= 1.

    c and d may also be int64 arrays with every c >= 1 (and every |c d|
    below 2^62, so no product wraps): then a and b are arrays, a from one
    extended Euclid run over all the pairs at once, so every a is the
    scalar form's modular inverse, exactly.
    """
    if isinstance(c, np.ndarray):
        return _solve_top_rows(c, d)
    if c == 0:
        if d not in (1, -1):
            raise ValueError("c = 0 requires d = +/-1")
        return (d, 0)  # a = d satisfies a*d = 1 for d = +/-1
    if math.gcd(c, d) != 1:
        raise ValueError("(c, d) must be coprime")
    a = pow(d % c, -1, c) if c > 1 else 0
    b = (a * d - 1) // c
    return (a, b)


def _solve_top_rows(c, d) -> tuple:
    """solve_top_row over int64 arrays c >= 1 and d."""
    n = len(c)
    if n and (c.min() < 1 or int(c.max()) * int(np.abs(d).max()) >= 1 << 62):
        raise ValueError("array top rows need c >= 1 and |c d| < 2^62")
    # the remainders r0, r1 of the pairs at start from (c, d mod c), with
    # s0 d = r0 and s1 d = r1 modulo c; a pair is done at r1 = 0, when
    # s0 d = r0 = gcd(c, d), and leaves the arrays
    at, r0, r1 = np.arange(n), c, d % c
    s0, s1 = np.zeros(n, np.int64), np.ones(n, np.int64)
    inv = np.zeros(n, np.int64)
    while at.size:
        done = r1 == 0
        if done.any():
            inv[at[done]] = s0[done]
            live = ~done
            at = at[live]
            if not at.size:
                break
            r0, r1, s0, s1 = r0[live], r1[live], s0[live], s1[live]
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    a = inv % c  # 0 for c = 1, as in the scalar form
    b, rem = np.divmod(a * d - 1, c)
    if rem.any():  # a d = gcd(c, d) modulo c, which is not 1
        raise ValueError("(c, d) must be coprime")
    return a, b


def coset_row(c: int, z: Point, R: float) -> list:
    """The translation cosets of row c >= 1 with |cz+d|^2 <= R.

    Returns (d, Q) pairs, Q = |cz+d|^2, for every d coprime to c, in
    increasing order of d; the canonical top row of each coset is
    solve_top_row(c, d).  The identity coset (0, 1) is not a row.
    """
    if c < 1:
        raise ValueError("coset rows start at c = 1")
    if c * z.y > math.sqrt(R):  # before squaring, which may overflow
        return []
    cy2 = (c * z.y) ** 2
    if cy2 > R:
        return []
    s = math.sqrt(R - cy2)
    cx = c * z.x
    row = []
    for d in range(math.ceil(-cx - s), math.floor(-cx + s) + 1):
        if math.gcd(c, d) != 1:
            continue
        t = cx + d
        Q = t * t + cy2
        if Q <= R:
            row.append((d, Q))
    return row


def _row_cosets(c, x, y, R):
    """The cosets with |cz+d|^2 <= R of the rows c >= 1 (an int64 array) of
    the points x + iy, where x, y and R are float arrays with one entry per
    row: yields (row, c, d, Q) arrays, a block of at most _BLOCK_CANDIDATES
    candidates d at a time, row indexing the rows, which come in order,
    each with its d increasing.  Every operation is exactly rounded but the
    square (c y)^2, which goes through Python's float power (libm pow), as
    in coset_row.

    A row of more than 4 MAX_COSETS candidates raises CutoffExceeded before
    its count is cast to int64, where at R of about 1e300 it would not fit:
    row 1 of the same table spans at least as many candidates but 2, each
    coprime to 1 and, but for a few rounded at its ends, inside R."""
    cy2 = np.fromiter(map(pow, (c * y).tolist(), repeat(2)), np.float64,
                      len(c))
    rows = np.flatnonzero(cy2 <= R)
    c, cx, cy2, R = c[rows], (c * x)[rows], cy2[rows], R[rows]
    s = np.sqrt(R - cy2)
    d_lo = np.ceil(-cx - s)
    counts = np.maximum(np.floor(-cx + s) - d_lo + 1.0, 0.0)
    if counts.max(initial=0.0) > 4 * MAX_COSETS:
        wide = R[np.argmax(counts > 4 * MAX_COSETS)]
        raise CutoffExceeded(
            f"more than {MAX_COSETS} cosets with |cz+d|^2 <= {wide:.3e}")
    counts = counts.astype(np.int64)
    starts = np.cumsum(counts) - counts
    total = int(counts.sum())
    for j0 in range(0, total, _BLOCK_CANDIDATES):
        j = np.arange(j0, min(j0 + _BLOCK_CANDIDATES, total))
        row = np.searchsorted(starts, j, side="right") - 1
        d = d_lo[row].astype(np.int64) + (j - starts[row])
        c_j = c[row]
        keep = np.gcd(c_j, d) == 1
        row, c_j, d = row[keep], c_j[keep], d[keep]
        t = cx[row] + d
        Q = t * t + cy2[row]
        keep = Q <= R[row]
        yield rows[row[keep]], c_j[keep], d[keep], Q[keep]


def _row_blocks(y, r):
    """The rows c >= 1 with c y <= r of the points of heights y and radii
    r = sqrt(R) (float arrays), as (owner, c) int64 arrays, a block at a
    time, in order of owner and then of c.  A row holds at most
    2 floor(r) + 3 candidates d and a table at most floor(r / y) + 1 rows,
    so a block of at most _BLOCK_CANDIDATES candidates is several whole
    tables or a run of rows of one larger table."""
    width = 2.0 * np.floor(r) + 3.0
    n_rows = np.floor(r / y) + 1.0
    cost = n_rows * width
    # a larger table counts as _BLOCK_CANDIDATES, so it stands alone; the
    # costs are integers, summed exactly
    starts = np.concatenate(
        ([0.0], np.cumsum(np.minimum(cost, _BLOCK_CANDIDATES))))
    j, c0 = 0, 1
    while j < len(y):
        if cost[j] > _BLOCK_CANDIDATES:  # rows c0, c0 + 1, ... of table j
            step = max(1, int(_BLOCK_CANDIDATES // width[j]))
            owner, c = np.full(step, j), np.arange(c0, c0 + step)
            c0 += step
            if c0 > n_rows[j]:
                j, c0 = j + 1, 1
        else:  # the whole tables j, j + 1, ..., e - 1
            e = int(np.searchsorted(starts, starts[j] + _BLOCK_CANDIDATES,
                                    "right")) - 1
            m = n_rows[j:e].astype(np.int64)
            owner = np.arange(j, e).repeat(m)
            c = np.arange(1, len(owner) + 1) - (np.cumsum(m) - m).repeat(m)
            j = e
        keep = c * y[owner] <= r[owner]
        yield owner[keep], c[keep]


@functools.lru_cache(maxsize=1)
def _totients(n: int):
    """Euler's phi(m) for m = 0..n, as an int64 array, by a sieve."""
    phi = np.arange(n + 1)
    for p in range(2, n + 1):
        if phi[p] == p:  # a prime
            phi[p::p] -= phi[p::p] // p
    return phi


def _fewest_cosets(x: float, y: float, R: float) -> float:
    """A lower bound on the number of cosets in the coset table of radius R
    of z = x + iy, as coset_arrays builds it.

    The table holds one entry for each +/- pair of primitive vectors
    cz + d of the lattice Z + Z z with |cz+d|^2 <= R.  Gauss-Lagrange
    reduction of the form |cz+d|^2, in exact integers, gives a primitive
    vector b1 of least length.  The lattice is the union of the lines
    m b2 + n b1 (n an integer) for a b2 completing the basis, the line m
    at distance m h, h = y / |b1|, from 0, and its point n is primitive
    when gcd(m, n) = 1.  For m >= 1 those are distinct pairs, and the
    disk |w|^2 <= R' cuts a run of at least floor(l_m) consecutive n from
    line m, l_m = 2 sqrt(R' - (m h)^2) / |b1|, of which at least
    phi(m) floor(floor(l_m) / m) are coprime to m.  The bound sums these
    over the first _BOUND_LINES lines.

    R' = R (1 - 16 eps (1 + 1/y)) covers the rounding of the table's
    |cz+d|^2 and row ends, whose error grows with c, up to sqrt(R)/y: each
    vector with |cz+d|^2 <= R' is in the table.  Below Im z of about 4e-15
    R' is not positive and the bound is 0.  The float steps after the
    reduction take a slack of 1e-12, far above their rounding.
    """
    R = R * (1.0 - 16.0 * sys.float_info.epsilon * (1.0 + 1.0 / y))
    if not R > 0.0:
        return 0.0
    _, _, (uu, _, _, one) = _reduced_basis(x, y)
    b1 = math.sqrt(uu / one)  # at least min(1, y), far above the least float
    h = y / b1
    m = np.arange(1, _BOUND_LINES + 1)
    with np.errstate(all="ignore"):  # (m h)^2 overflows high up: a true bound
        chord = R * (1.0 - 1e-12) - (m * h) ** 2
        run = np.floor(2.0 * np.sqrt(np.maximum(chord, 0.0)) / b1
                       * (1.0 - 1e-12))
        return float(np.sum(_totients(_BOUND_LINES)[1:] * np.floor(run / m)))


def coset_arrays(x, y, R):
    """Every translation coset with |cz+d|^2 <= R of each point z = x + iy,
    for float arrays x, y and R of one entry per point, one table after
    another: four arrays, c and d (int64), Q = |cz+d|^2 (float64) and the
    index of each coset's point (int64).  A table is the identity coset
    (0, 1, 1.0), then coset_row(c, z, R) for c = 1, 2, ... while
    c y <= sqrt(R), with the same bits; the canonical top row of a coset is
    solve_top_row(c, d).

    The rows are taken a block at a time (_row_blocks: several small
    tables, a run of rows of one table or a slice of one long row, of at
    most _BLOCK_CANDIDATES candidates d), each block's gcd filter and Q in
    one numpy pass (_row_cosets).  Raises CutoffExceeded as soon as a block
    takes a table past MAX_COSETS, or a row spans more than 4 MAX_COSETS
    candidates.  A table that cannot fit is refused before it is built:
    where the expected size 3 R / (pi y) (an ellipse of area pi R / y in
    the (c, d) plane, 6/pi^2 of its lattice points coprime, two to a +/-
    pair) passes MAX_COSETS, a certified lower bound on the size
    (_fewest_cosets) decides, so that no table within the cap is refused.
    """
    with np.errstate(all="ignore"):
        hopeless = np.flatnonzero(3.0 * R / (math.pi * y) > MAX_COSETS)
    for j in hopeless.tolist():
        if _fewest_cosets(float(x[j]), float(y[j]), float(R[j])) > MAX_COSETS:
            raise CutoffExceeded(
                f"more than {MAX_COSETS} cosets with |cz+d|^2 <= {R[j]:.3e}")
    n = len(x)
    held = np.ones(n, np.int64)  # cosets of each table so far
    # each table's identity coset
    parts = [(np.arange(n), np.zeros(n, np.int64), np.ones(n, np.int64),
              np.ones(n))]
    for owner, c in _row_blocks(y, np.sqrt(R)):
        for row, c_j, d, Q in _row_cosets(c, x[owner], y[owner], R[owner]):
            row = owner[row]
            parts.append((row, c_j, d, Q))
            held += np.bincount(row, minlength=n)
            over = np.flatnonzero(held > MAX_COSETS)
            if over.size:
                raise CutoffExceeded(
                    f"more than {MAX_COSETS} cosets with "
                    f"|cz+d|^2 <= {R[over[0]]:.3e}")
    owner, c, d, Q = (np.concatenate(p) for p in zip(*parts))
    order = np.argsort(owner, kind="stable")  # two sorted runs
    return c[order], d[order], Q[order], owner[order]


def _orbit_points_in_strip(z0: Point, q_max: int, order: int,
                           generator0: GammaMatrix):
    """All Gamma-images of z0 at height >= Im(z0)/q_max inside |Re| <= 1/2.

    For the base points used here |c z0 + d|^2 is an integer-valued form,
    so the cosets with form <= q_max are those with Q <= q_max + 1/2 (the
    margin absorbs rounding in Q).  The tolerance on the closed Re-boundary
    is 1e-9, so points landing on both edges are reported twice, once per
    edge.
    """
    tol = 1e-9
    found = {}
    cs, ds, _, _ = coset_arrays(np.array([z0.x]), np.array([z0.y]),
                                np.array([q_max + 0.5]))
    for c, d in zip(cs.tolist(), ds.tolist()):
        a, b = solve_top_row(c, d)
        g0 = GammaMatrix(a, b, c, d)
        base = moebius_apply(g0, z0)
        m_lo = math.ceil(-0.5 - base.x - tol)
        m_hi = math.floor(0.5 - base.x + tol)
        for m in range(m_lo, m_hi + 1):
            g = GammaMatrix.T(m) * g0
            p = Point(base.x + m, base.y)
            key = (round(p.x * 1e9), round(p.y * 1e9))
            if key in found:
                continue
            gen = g * generator0 * g.inverse()
            found[key] = EllipticPoint(p, order, gen)
    return list(found.values())


def elliptic_points_in_strip(Y: float) -> list:
    """Elliptic points of the strip |Re z| <= 1/2, heights down to sqrt(3)/(2Y).

    The classical fundamental domain has its lowest elliptic points at
    height sqrt(3)/2, so the floor sqrt(3)/(2Y) makes Y = 1 return exactly
    the three classical points (order 4 at i, order 6 at e^{+/- i pi/3}) and
    keeps the count bounded by ~3Y as Y grows.  Enumeration is a complete
    finite orbit search: an image g*z0 has height Im(z0)/|c z0 + d|^2, so a
    height floor is an integer bound on the binary quadratic form |c z0 + d|^2.
    The points of the last Y are kept (they are frozen), and each call
    returns a new list of them.
    """
    return list(_elliptic_points(Y))


# one entry: each command line takes one --Y (default 7.0), so the calls
# of a run share one Y; a larger cache would only serve repeats of
# unrelated calls
@functools.lru_cache(maxsize=1)
def _elliptic_points(Y: float) -> tuple:
    """elliptic_points_in_strip(Y) as a tuple; a bad Y raises, and an error
    is not kept."""
    if not 1 <= Y < math.inf:
        raise ValueError(f"Y must be finite and >= 1, got {Y!r}")
    pts = []
    # orbit of i: |c*i + d|^2 = c^2 + d^2, heights 1/(c^2+d^2).  Above Y of
    # about 1.55e308 the bound overflows to inf: the largest float stands
    # in for it, a table as far past the coset cap
    q_max_i = math.floor(min(2.0 * Y / math.sqrt(3.0), sys.float_info.max)
                         + 1e-9)
    pts += _orbit_points_in_strip(Point(0.0, 1.0), q_max_i, 4, GammaMatrix.S())
    # orbit of e^{i pi/3}: |c z0 + d|^2 = c^2 + cd + d^2, heights (sqrt3/2)/form
    q_max_r = math.floor(Y + 1e-9)
    pts += _orbit_points_in_strip(Point(0.5, SQRT3_2), q_max_r, 6, U_GENERATOR)
    pts.sort(key=lambda e: (-e.location.y, e.location.x))
    return tuple(pts)


def min_displacement(z: Point):
    """Certified minimizer of d(z, gz) over g != +/-I.

    Enumerates translation cosets (c, d) and translation powers m, pruning
    with u(z, gz) >= (Q-1)^2/(4Q), Q = |cz+d|^2, which rules out every
    matrix outside the examined window; the window shrinks as the running
    minimum improves, so the returned minimum is global.  Ties within 1e-12
    are broken lexicographically on (c, d, a, b) after canonicalizing to
    c > 0 or (c, d) = (0, 1), among the minimizers at the point searched:
    for a point outside the domain that is hz below, so the g returned
    there need not be the least of the minimizers at z itself.

    d(hz, g hz) = d(z, h^-1 g h z), so a point outside the domain is
    searched at hz = reduce_to_domain(z), where the search window is small
    (below the domain it grows about tenfold for each decade of Im z), and
    its minimizer g returned as h^-1 g h, canonicalized as above, with the
    distance found at hz.  A point whose image is above the largest float
    raises the reduction's CutoffExceeded.
    """
    h, z = _reduction(z)
    g, d = _displacement_search(z)
    g = h.inverse() * g * h
    if g.c < 0 or (g.c == 0 and g.d < 0):
        g = -g
    return g, d


def _displacement_search(z: Point):
    """min_displacement(z) at a point z searched where it is."""
    x, y = z.x, z.y

    candidates = []  # (u, key, GammaMatrix)

    def consider(g: GammaMatrix):
        nonlocal best_u
        gz = moebius_apply(g, z)
        u = pair_invariant(z, gz)
        if g.c < 0 or (g.c == 0 and g.d < 0):
            g = -g
        key = (g.c, g.d, g.a, g.b)
        if u < best_u - 1e-15:
            best_u = u
            candidates.clear()
            candidates.append((u, key, g))
        elif u <= best_u + 1e-12:
            candidates.append((u, key, g))

    # translation line: u = m^2/(4y^2), minimized at m = +/-1
    best_u = math.inf
    for m in (-1, 1):
        consider(GammaMatrix.T(m))

    c = 0
    while True:
        c += 1
        b_cur = best_u + 1e-9
        # admissible Q window: (Q-1)^2/(4Q) <= b  =>  Q in [1/Q+, Q+]
        q_hi = 1.0 + 2.0 * b_cur + 2.0 * math.sqrt(b_cur * (1.0 + b_cur))
        # Q >= c^2 y^2 on this row, and q_hi only shrinks: past it, stop
        if c * y > math.sqrt(q_hi):
            break
        for d, Q in coset_row(c, z, q_hi):
            # the image height alone bounds u(z, gz) >= (Q-1)^2/(4Q)
            if (Q - 1.0) ** 2 / (4.0 * Q) > best_u + 1e-12:
                continue
            a0, b0 = solve_top_row(c, d)
            g0 = GammaMatrix(a0, b0, c, d)
            base = moebius_apply(g0, z)
            vp = base.y
            rhs = 4.0 * y * vp * (best_u + 1e-9) - (vp - y) ** 2
            if rhs < 0.0:
                continue
            w = math.sqrt(rhs)
            m_lo = math.ceil(x - base.x - w)
            m_hi = math.floor(x - base.x + w)
            for m in range(m_lo, m_hi + 1):
                consider(GammaMatrix.T(m) * g0)

    candidates = [t for t in candidates if t[0] <= best_u + 1e-12]
    candidates.sort(key=lambda t: t[1])
    u_min, _, g_min = candidates[0]
    return g_min, hyp_distance(z, moebius_apply(g_min, z))


def sample_bulk(Y: float, delta: float, n: int, rng) -> list:
    """n points of F_delta with Im z < 2, by rejection sampling.

    F_delta is the strip |Re z| <= 1/2, Im z > 1/Y with the hyperbolic
    delta-neighborhoods of elliptic_points_in_strip(Y) removed.
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    elliptic = elliptic_points_in_strip(Y)  # also rejects a bad Y
    out = []
    y_lo = 1.0 / Y
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 1000 * n + 1000:
            raise CutoffExceeded("rejection sampling stalled; delta too large?")
        x = rng.uniform(-0.5, 0.5)
        y = rng.uniform(y_lo, 2.0)
        z = Point(x, y)
        if y > y_lo and all(hyp_distance(z, e.location) > delta
                            for e in elliptic):
            out.append(z)
    return out
