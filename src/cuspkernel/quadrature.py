"""Adaptive Gauss-Kronrod quadrature with auxiliary per-node error tracking.

Integrands are array-valued: f(t) takes an array of nodes and returns their
values, or a (values, extra_errors) pair of arrays.  The extra errors (for
us: certified kernel tail bounds at each node) are accumulated with the
quadrature weights into a separate error channel, so the reported total
error covers both the quadrature estimate and the per-point uncertainty.

One call can integrate a list of intervals in lockstep.  Each interval
keeps its own panels, stopping test and panel cap, exactly as if it were
integrated alone; each round, the nodes of every panel pending on any
interval go to the integrand in one call f(t, i), where i holds the index
of the interval each node belongs to.  A panel's rule adds its 15 weighted
values one at a time in a fixed order, so its result does not depend on
the batch it was evaluated in.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import CutoffExceeded

# 15-point Kronrod extension of 7-point Gauss on [-1, 1]: the 33-digit
# QUADPACK qk15 nodes and weights, rounded to double by the parser.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


# a panel's nodes, center + offset * half, in the order its rule adds them:
# -x0, +x0, -x1, +x1, ..., -x6, +x6, and the center last (the offsets
# sign * xi are exact)
_OFFSETS = np.array([s * xi for xi in _XGK
                     for s in ((1.0,) if xi == 0.0 else (-1.0, 1.0))])
_WK = np.array([_WGK[i // 2] for i in range(len(_OFFSETS))])
# the Gauss nodes -x1, -x3, -x5 and +x1, +x3, +x5 as columns of that order
_G_MINUS, _G_PLUS = slice(2, 11, 4), slice(3, 12, 4)
_WG3 = np.array(_WG[:3])


def _sequential_sum(terms):
    """Sums over the last axis, each adding its terms left to right onto
    0.0, as a Python loop would: np.add.accumulate is sequential, where
    np.sum and dot may pair the terms differently."""
    acc = np.zeros((*terms.shape[:-1], terms.shape[-1] + 1))
    acc[..., 1:] = terms
    return np.add.accumulate(acc, axis=-1)[..., -1]


def _gk15(f, lo, hi):
    """Gauss-Kronrod panels [lo[j], hi[j]] (arrays), every node in one call
    f(t): returns the arrays K15, |K15 - G7| and the weighted extra error,
    each scaled by the panel's half width."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    t = center[:, None] + _OFFSETS * half[:, None]
    out = f(t.ravel())
    vals = np.empty((2, *t.shape))  # the values and the extra errors
    rows = vals.reshape(2, -1)
    rows[0], rows[1] = out if isinstance(out, tuple) else (out, 0.0)
    k15, extra = _sequential_sum(_WK * vals)
    vals = vals[0]
    # G7 starts from its center term, the last column
    g7 = np.empty((len(lo), 4))
    g7[:, 0] = _WG[3] * vals[:, -1]
    g7[:, 1:] = _WG3 * (vals[:, _G_MINUS] + vals[:, _G_PLUS])
    g7 = np.add.accumulate(g7, axis=1)[:, -1]
    return k15 * half, np.abs(k15 - g7) * np.abs(half), extra * np.abs(half)


def _lockstep(f, intervals, rtol, atol, max_panels):
    """The adaptive driver over (a, b, breakpoints) intervals, all in
    lockstep: one f(t, i) call per round.  Returns one (integral,
    quad_error, extra_error, nodes) tuple per interval.  Where intervals hit
    max_panels, the first of them raises CutoffExceeded, as in a loop of
    one-interval calls, which would not reach the later ones."""
    n = len(intervals)
    heaps = [[] for _ in range(n)]
    counter, nodes, panels = [0] * n, [0] * n, [0] * n
    results = [(0.0, 0.0, 0.0, 0)] * n
    failed = None
    pending, running = [], []  # (interval, lo, hi) of the panels to evaluate
    for j, (a, b, breakpoints) in enumerate(intervals):
        if a == b:
            continue
        pts = sorted({a, b, *(p for p in breakpoints if a < p < b)})
        pending += [(j, lo, hi) for lo, hi in zip(pts[:-1], pts[1:])]
        panels[j] = len(pts) - 1
        running.append(j)
    while pending:
        owner, lo, hi = np.array(pending).T
        owner = owner.astype(np.int64).repeat(len(_OFFSETS))
        out = (a.tolist() for a in _gk15(lambda t: f(t, owner), lo, hi))
        for (j, s_lo, s_hi), val, err, extra in zip(pending, *out):
            heapq.heappush(heaps[j], (-err, counter[j], s_lo, s_hi, val, err,
                                      extra))
            counter[j] += 1
            nodes[j] += len(_OFFSETS)
        pending, still = [], []
        for j in running:
            heap = heaps[j]
            integral = sum(item[4] for item in heap)
            quad_err = sum(item[5] for item in heap)
            done = quad_err <= max(atol, rtol * abs(integral))
            if not done and panels[j] >= max_panels:
                failed = CutoffExceeded(
                    f"quadrature error {quad_err:.3e} above tolerance after "
                    f"{panels[j]} panels",
                    best_tail_bound=quad_err,
                )
                break  # the intervals after j are not needed
            if not done and heap[0][5] != 0.0:  # bisect the worst panel
                _, _, s_lo, s_hi, *_ = heapq.heappop(heap)
                mid = 0.5 * (s_lo + s_hi)
                pending += [(j, s_lo, mid), (j, mid, s_hi)]
                panels[j] += 1
                still.append(j)
                continue
            results[j] = (math.fsum(item[4] for item in heap),
                          math.fsum(item[5] for item in heap),
                          math.fsum(item[6] for item in heap), nodes[j])
        running = still
    if failed is not None:
        raise failed
    return results


def adaptive(f, a, b, *, rtol=1e-6, atol=0.0, breakpoints=(), max_panels=2000):
    """Adaptive integral of f over [a, b].

    f(t) takes an array of nodes and returns their values or a (values,
    extra_errors) pair.  Returns (integral, quad_error, extra_error, nodes).
    breakpoints inside (a, b) seed the initial panel layout (feature
    boundaries, jumps of indicator integrands, neighborhood edges).  Raises
    CutoffExceeded when the quadrature error is still above tolerance at
    max_panels panels.

    With sequences a and b (and then one sequence of breakpoints per
    interval, or none), the intervals are integrated in lockstep by
    f(t, i), i the interval of each node, and integral, quad_error and
    extra_error are lists, one entry per interval, each equal to what a
    one-interval call would return; nodes counts the integrand's nodes over
    every interval.
    """
    if isinstance(a, (int, float)):
        [res] = _lockstep(lambda t, _: f(t), [(a, b, breakpoints)], rtol, atol,
                          max_panels)
        return res
    intervals = list(zip(a, b, breakpoints or [()] * len(a)))
    results = _lockstep(f, intervals, rtol, atol, max_panels)
    return ([r[0] for r in results], [r[1] for r in results],
            [r[2] for r in results], sum(r[3] for r in results))
