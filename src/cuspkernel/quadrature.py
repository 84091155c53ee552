"""Adaptive Gauss-Kronrod quadrature with auxiliary per-node error tracking.

Integrands may return (value, extra_error) pairs; the extra errors (for us:
certified kernel tail bounds at each node) are accumulated with the
quadrature weights into a separate error channel, so the reported total
error covers both the quadrature estimate and the per-point uncertainty.
"""

from __future__ import annotations

import heapq
import math

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


def _gk15(f, a, b):
    """One Gauss-Kronrod panel: returns (K15, |K15-G7|, extra, nevals)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = {}
    extra = 0.0
    for i, xi in enumerate(_XGK):
        for sign in ((1.0,) if xi == 0.0 else (-1.0, 1.0)):
            t = center + sign * xi * half
            out = f(t)
            if isinstance(out, tuple):
                v, e = out
            else:
                v, e = out, 0.0
            vals[(i, sign)] = v
            extra += _WGK[i] * e
    k15 = 0.0
    for (i, sign), v in vals.items():
        k15 += _WGK[i] * v
    g7 = _WG[3] * vals[(7, 1.0)]
    for j, i in enumerate((1, 3, 5)):
        g7 += _WG[j] * (vals[(i, -1.0)] + vals[(i, 1.0)])
    return k15 * half, abs(k15 - g7) * abs(half), extra * abs(half), len(vals)


def adaptive(f, a, b, *, rtol=1e-6, atol=0.0, breakpoints=(), max_panels=2000):
    """Adaptive integral of f over [a, b].

    f(x) returns either a value or a (value, extra_error) pair.  Returns
    (integral, quad_error, extra_error, nodes).  breakpoints inside (a, b)
    seed the initial panel layout (feature boundaries, jumps of indicator
    integrands, neighborhood edges).  Raises CutoffExceeded when the
    quadrature error is still above tolerance at max_panels panels.
    """
    if a == b:
        return 0.0, 0.0, 0.0, 0
    pts = [a, b]
    for p in sorted(set(breakpoints)):
        if a < p < b:
            pts.append(p)
    pts = sorted(set(pts))
    heap = []
    counter = 0
    total_nodes = 0
    for lo, hi in zip(pts[:-1], pts[1:]):
        val, err, extra, n = _gk15(f, lo, hi)
        total_nodes += n
        heapq.heappush(heap, (-err, counter, lo, hi, val, err, extra))
        counter += 1
    n_panels = len(heap)
    while True:
        integral = sum(item[4] for item in heap)
        quad_err = sum(item[5] for item in heap)
        if quad_err <= max(atol, rtol * abs(integral)):
            break
        if n_panels >= max_panels:
            raise CutoffExceeded(
                f"quadrature error {quad_err:.3e} above tolerance after "
                f"{n_panels} panels",
                best_tail_bound=quad_err,
            )
        item = heapq.heappop(heap)
        lo, hi = item[2], item[3]
        if item[5] == 0.0:
            heapq.heappush(heap, item)
            break
        mid = 0.5 * (lo + hi)
        for s_lo, s_hi in ((lo, mid), (mid, hi)):
            val, err, extra, n = _gk15(f, s_lo, s_hi)
            total_nodes += n
            heapq.heappush(heap, (-err, counter, s_lo, s_hi, val, err, extra))
            counter += 1
        n_panels += 1
    integral = math.fsum(item[4] for item in heap)
    quad_err = math.fsum(item[5] for item in heap)
    extra_err = math.fsum(item[6] for item in heap)
    return integral, quad_err, extra_err, total_nodes
