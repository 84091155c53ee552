"""The scalar coset enumeration and coset loop: the oracle that
modgroup.coset_arrays and kernel._array_lines must reproduce bit for bit.

Each is the plain form of its array counterpart, one coset at a time in
Python ints and floats, with every exp, log, log1p, atan2 and square
libm's.  The loop reads kernel._MAX_LINE_TERMS and kernel._MAX_GROWTH,
and coset_table modgroup.MAX_COSETS, when called, so a test may patch them.
"""

import math

from cuspkernel import CutoffExceeded, Point, kernel, modgroup
from cuspkernel.modgroup import coset_row, solve_top_row


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
        if len(cosets) > modgroup.MAX_COSETS:
            raise CutoffExceeded(
                f"more than {modgroup.MAX_COSETS} cosets with |cz+d|^2 <= {R:.3e}")
        c += 1
    return cosets


def side_tail(M: float, alpha: float, beta: float, k: float) -> float:
    """kernel._side_tails at one offset M > 0, in Python floats."""
    h = 1.0 + (M * M + beta) / alpha
    f = math.exp(-0.5 * k * math.log(h))
    return f * (1.0 + alpha * h / (M * (k - 2.0)))


def scalar_lines(cosets, z: Point, w: Point, k: int, tol_line: float,
                 tail: float):
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
    ck = kernel._profile_constant(k)
    nhk = -0.5 * k
    half_line = 0.5 * tol_line
    u_cut = (tol_line / 8.0) ** (-2.0 / k) - 1.0
    max_terms = kernel._MAX_LINE_TERMS

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
        if 2.0 * width - 1.0 >= max_terms:
            raise CutoffExceeded("m-line window too large", best_tail_bound=tail)
        m_lo = math.ceil(t0 - width)
        m_hi = math.floor(t0 + width)
        # grow the window until both side tails fit the per-line budget;
        # the pair computed last is that of the final window
        for _ in range(kernel._MAX_GROWTH):
            grew = False
            lo = side_tail(t0 - (m_lo - 1), alpha, beta, k)
            if lo > half_line:
                m_lo -= max(4, (m_hi - m_lo + 1) // 2)
                grew = True
            hi = side_tail((m_hi + 1) - t0, alpha, beta, k)
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
        if m_hi - m_lo + 1 > max_terms:
            raise CutoffExceeded("m-line window too large", best_tail_bound=tail)
        if m_lo <= m_hi:
            rows += (m_lo - n_terms, X0 - uw, beta, alpha, vp + v, argden)
            counts.append(m_hi - m_lo + 1)
            n_terms += m_hi - m_lo + 1
    return rows, counts, tail
