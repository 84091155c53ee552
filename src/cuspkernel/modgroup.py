"""Enumeration of SL(2,Z): cosets, elliptic points, displacement bounds.

The minimum-displacement search returns a *certified* global minimum of
d(z, gz) over g != +/-I: every matrix outside the examined window is ruled
out by the height bound u(z, gz) >= (Q-1)^2/(4Q) with Q = |cz+d|^2, so the
search window can be shrunk as better candidates are found.
"""

from __future__ import annotations

import math
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

# the most cosets a coset table may hold: about half a gigabyte of triples
MAX_COSETS = 3_000_000

# the most (c, d) candidates one block of coset_arrays rows may hold
_BLOCK_CANDIDATES = 1 << 16


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
    """hz in the standard fundamental domain |Re| <= 1/2, |z| >= 1, with the
    translations and inversions S accumulated as one integer matrix h and
    applied once.  A point of the domain, or one with |z|^2 within 1e-12
    below 1, is returned as it is; that margin also makes each inversion
    raise the height, so the loop ends.

    Close to the real line (at Re z = 0.1, below Im z of about 1e-10) h z
    cancels in cz + d and misses the domain, and further down |z|^2, or
    |cz+d|^2 or Im hz in the last step, underflows to 0: each raises
    CutoffExceeded.
    """
    h, p = GammaMatrix.identity(), z
    for _ in range(10_000):
        n, p = translate_into_strip(p)
        h = GammaMatrix.T(-n) * h
        r = p.x * p.x + p.y * p.y
        if r >= 1.0 - 1e-12:
            break
        if r == 0.0:
            raise CutoffExceeded(
                f"|z|^2 underflows reducing Im z = {z.y:.3e} to the domain")
        h, p = GammaMatrix.S() * h, Point(-p.x / r, p.y / r)
    else:
        raise CutoffExceeded("reduction to the fundamental domain did not end")
    if h == GammaMatrix.identity():
        return z
    try:
        w = moebius_apply(h, z)
    except (ZeroDivisionError, ValueError):
        w = None  # |cz+d|^2 or Im hz underflowed to 0
    # rounding moves a true image by far less than these margins
    if w is None or abs(w.x) > 0.5 + 1e-9 or w.x * w.x + w.y * w.y < 1.0 - 1e-9:
        raise CutoffExceeded(
            f"reduction of Im z = {z.y:.3e} to the domain lost the point")
    return w


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


def coset_table(z: Point, R: float) -> list:
    """Every translation coset with |cz+d|^2 <= R, as (c, d, Q) triples:
    the identity coset (0, 1, 1.0) first, then coset_row(c, z, R) for
    c = 1, 2, ... while c^2 y^2 <= R.  Raises CutoffExceeded as soon as a
    row takes the table past MAX_COSETS."""
    cosets = [(0, 1, 1.0)]
    c = 1
    r = math.sqrt(R)  # c y <= r, not c^2 y^2 <= R, which may overflow
    while c * z.y <= r:
        cosets += [(c, d, Q) for d, Q in coset_row(c, z, R)]
        if len(cosets) > MAX_COSETS:
            raise CutoffExceeded(
                f"more than {MAX_COSETS} cosets with |cz+d|^2 <= {R:.3e}")
        c += 1
    return cosets


def _row_cosets(c, x, y, R):
    """The cosets with |cz+d|^2 <= R of the rows c >= 1 (an array) of the
    points x + iy, where x, y and R are scalars, for one point, or arrays
    with one entry per row: yields (row, c, d, Q) arrays, a block of at
    most _BLOCK_CANDIDATES candidates d at a time, row indexing the rows,
    which come in order, each with its d increasing.  Every operation is
    exactly rounded but the square (c y)^2, which goes through Python's
    float power (libm pow), as in coset_row."""
    cy2 = np.fromiter(map(pow, (c * y).tolist(), repeat(2)), np.float64,
                      len(c))
    rows = np.flatnonzero(cy2 <= R)
    per_row = np.ndim(R) > 0
    c, cx, cy2 = c[rows], (c * x)[rows], cy2[rows]
    if per_row:
        R = R[rows]
    s = np.sqrt(R - cy2)
    d_lo = np.ceil(-cx - s)
    counts = np.maximum(np.floor(-cx + s) - d_lo + 1.0, 0.0).astype(np.int64)
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
        keep = Q <= (R[row] if per_row else R)
        yield rows[row[keep]], c_j[keep], d[keep], Q[keep]


def coset_arrays(z: Point, R: float):
    """coset_table(z, R) as three arrays, c and d (int64) and Q (float64),
    in the same order and with the same bits.

    The rows are taken a block at a time (a block of rows, or a slice of
    one long row, of at most _BLOCK_CANDIDATES candidates d), each block's
    gcd filter and Q in one numpy pass (_row_cosets).  Raises
    CutoffExceeded as soon as a block takes the table past MAX_COSETS.
    """
    r = math.sqrt(R)
    # a row holds at most 2 sqrt(R) + 1 candidates d
    step = max(1, _BLOCK_CANDIDATES // (2 * math.floor(r) + 3))
    cs, ds, qs = [np.zeros(1, np.int64)], [np.ones(1, np.int64)], [np.ones(1)]
    n, c0 = 1, 1
    while True:
        c = np.arange(c0, c0 + step, dtype=np.int64)
        c = c[c * z.y <= r]  # a prefix: c y grows with c
        last = len(c) < step
        for _, c_j, d, Q in _row_cosets(c, z.x, z.y, R):
            cs.append(c_j)
            ds.append(d)
            qs.append(Q)
            n += len(Q)
            if n > MAX_COSETS:
                raise CutoffExceeded(
                    f"more than {MAX_COSETS} cosets with |cz+d|^2 <= {R:.3e}")
        if last:
            return np.concatenate(cs), np.concatenate(ds), np.concatenate(qs)
        c0 += step


def small_coset_arrays(zs: list, Rs: list):
    """coset_table(z, R) for each point z of zs and radius R of Rs, one
    table after another, as four arrays: c and d (int64), Q (float64) and
    the index of each coset's point (int64); the same cosets in the same
    order with the same bits.  Every row of every table goes through one
    _row_cosets pass, so the tables must be small: no table is checked
    against MAX_COSETS, and a point with rows 1 to C holds about C^2 y
    cosets or more."""
    n = len(zs)
    x, y = np.array([z.x for z in zs]), np.array([z.y for z in zs])
    r = np.sqrt(Rs)
    # rows c = 1, 2, ... while c y <= r: at most floor(r / y) + 1 of them
    n_rows = np.floor(r / y).astype(np.int64) + 1
    owner = np.arange(n).repeat(n_rows)
    c = np.arange(len(owner)) - (np.cumsum(n_rows) - n_rows)[owner] + 1
    rows = np.flatnonzero(c * y[owner] <= r[owner])
    c, owner = c[rows], owner[rows]
    # each table's identity coset (0, 1, 1.0) first, then its rows
    parts = [(np.arange(n), np.zeros(n, np.int64), np.ones(n, np.int64),
              np.ones(n))]
    parts += [(owner[row], c_j, d, Q) for row, c_j, d, Q in
              _row_cosets(c, x[owner], y[owner], np.asarray(Rs)[owner])]
    owner, c, d, Q = (np.concatenate(p) for p in zip(*parts))
    order = np.argsort(owner, kind="stable")
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
    for c, d, _ in coset_table(z0, q_max + 0.5):
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
    """
    if not 1 <= Y < math.inf:
        raise ValueError(f"Y must be finite and >= 1, got {Y!r}")
    pts = []
    # orbit of i: |c*i + d|^2 = c^2 + d^2, heights 1/(c^2+d^2)
    q_max_i = math.floor(2.0 * Y / math.sqrt(3.0) + 1e-9)
    pts += _orbit_points_in_strip(Point(0.0, 1.0), q_max_i, 4, GammaMatrix.S())
    # orbit of e^{i pi/3}: |c z0 + d|^2 = c^2 + cd + d^2, heights (sqrt3/2)/form
    q_max_r = math.floor(Y + 1e-9)
    pts += _orbit_points_in_strip(Point(0.5, SQRT3_2), q_max_r, 6, U_GENERATOR)
    pts.sort(key=lambda e: (-e.location.y, e.location.x))
    return pts


def min_displacement(z: Point):
    """Certified minimizer of d(z, gz) over g != +/-I.

    Enumerates translation cosets (c, d) and translation powers m, pruning
    with u(z, gz) >= (Q-1)^2/(4Q), Q = |cz+d|^2, which rules out every
    matrix outside the examined window; the window shrinks as the running
    minimum improves, so the returned minimum is global.  Ties within 1e-12
    are broken lexicographically on (c, d, a, b) after canonicalizing to
    c > 0 or (c, d) = (0, 1).  A point with |Re z| > 1/2 is searched at
    T^-n z (see translate_into_strip) and its minimizer g returned as
    T^n g T^-n, with the distance found there.
    """
    n, z = translate_into_strip(z)
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
    gz = moebius_apply(g_min, z)
    if n:
        g_min = GammaMatrix.T(n) * g_min * GammaMatrix.T(-n)
    return g_min, hyp_distance(z, gz)


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
