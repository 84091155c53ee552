"""Seeded inputs of the two workloads.

Each workload joins two parts, and each part is a fixed list of slots:
`kernel_certify` is `kernel_k12` then `certify_bulk`, `equidist_pretrace`
is `equidist_k1200` then `pretrace_cli`.  The parts are not run alone
because the speed of a shared 2-core host wanders by up to 2x in spells
of 5-40 s: only runs of 45 s or more average over enough spells to
repeat, and the time allowed for all runs affords that for two
workloads, not for four.

A slot fixes what drives the cost of its operation (the height band, the
tolerance, the test function) and the seed only jitters the point or
support inside that band, so the cost of a round hardly depends on the
seed while its inputs do.  Numbers are rounded to six decimals: the
command lines and the reference checks then read exactly the same floats.

The fault inputs (F1, F2, F3) do not depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from reference import elliptic_points, hyp_distance

# strip parameters of certify_bulk: F_delta with Y = 7, delta = 0.05
BULK_Y = 7.0
BULK_DELTA = 0.05
CERT_WEIGHTS = (200, 400, 800, 1600)


@dataclass(frozen=True)
class Slot:
    kind: str
    params: dict
    fault: str | None = None


def _r6(v: float) -> float:
    return round(float(v), 6)


def _above_circle(rng, y_lo: float, y_hi: float) -> complex:
    """A point with |Re z| <= 1/2, |z| >= 1 and y in [y_lo, y_hi]."""
    while True:
        x, y = _r6(rng.uniform(-0.5, 0.5)), _r6(rng.uniform(y_lo, y_hi))
        if x * x + y * y >= 1.0:
            return complex(x, y)


def kernel_k12(rng) -> list:
    slots = []
    # diagonal points above the unit circle: cost grows as y falls and as
    # the tolerance tightens (more cosets, longer m-lines)
    for y in (0.95, 1.1, 1.3, 1.55, 1.85, 2.2, 2.5):
        for tol in (1e-12, 1e-13, 1e-14):
            z = _above_circle(rng, y * 0.97, y * 1.03)
            slots.append(Slot("kernel", {"z": z, "w": None, "tol": tol}))
    for y, tol in ((1.0, 1e-12), (1.2, 1e-13), (1.4, 1e-12),
                   (1.6, 1e-13), (1.9, 1e-12), (2.3, 1e-13)):
        z = _above_circle(rng, y * 0.97, y * 1.03)
        w = _above_circle(rng, 0.9, 2.0)
        slots.append(Slot("kernel", {"z": z, "w": w, "tol": tol}))
    # low points: 20k-100k cosets
    for y_lo, y_hi in ((0.08, 0.081), (0.12, 0.122), (0.18, 0.183), (0.27, 0.275)):
        z = complex(_r6(rng.uniform(-0.5, 0.5)), _r6(rng.uniform(y_lo, y_hi)))
        slots.append(Slot("kernel", {"z": z, "w": None, "tol": 1e-12}))
    # high points: one m-line of up to ~1M terms
    for y_lo, y_hi in ((1000, 1050), (2000, 2100), (3000, 3150), (4500, 4700)):
        z = complex(_r6(rng.uniform(-0.5, 0.5)), _r6(rng.uniform(y_lo, y_hi)))
        slots.append(Slot("kernel", {"z": z, "w": None, "tol": 1e-12}))
    # F1: the coset cap makes the tail unreachable; F2: the m-line cap
    slots.append(Slot("kernel", {"z": 0.05j, "w": None, "tol": 1e-9}, "F1"))
    slots.append(Slot("kernel", {"z": complex(0, 1e5), "w": None, "tol": 1e-9},
                      "F2"))
    return slots


def equidist_k1200(rng) -> list:
    slots = []
    # vertical lines keep |x| >= 0.1, where the support stays at hyperbolic
    # distance >= 0.1 from the elliptic point i: at weight 1200 the mass near
    # i is still far from uniform, and a segment through it (x = 0.018,
    # support from 0.96) reads a gap of 1.25%, while every line with
    # |x| >= 0.1 reads -0.083% (the 1/k offset) whatever its support
    for _ in range(18):
        slots.append(Slot("vertical", {
            "x": _r6(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.5)),
            "a": _r6(rng.uniform(0.95, 1.3)),
            "b": _r6(rng.uniform(1.6, 2.2)),
        }))
    for i in range(11):
        y = _r6(rng.uniform(1.15, 2.2))
        psi = ("const", "indicator", "bump")[i % 3]
        a, b = -0.5, 0.5
        if psi != "const":
            a, b = _r6(rng.uniform(-0.5, -0.05)), _r6(rng.uniform(0.05, 0.5))
        slots.append(Slot("horizontal", {"y": y, "psi": psi, "a": a, "b": b,
                                         "k": 1200}))
    # 2-D bumps away from the elliptic points, and one reaching down to the
    # neighbourhood of i (about 3x the quadrature nodes)
    for _ in range(4):
        r = _r6(rng.uniform(0.19, 0.21))
        cx = _r6(rng.uniform(-0.5 + r, 0.5 - r))
        cy = _r6(rng.uniform(1.45, 1.75))
        slots.append(Slot("region", {"cx": cx, "cy": cy, "r": r}))
    slots.append(Slot("region", {"cx": _r6(0.1 + rng.uniform(-0.005, 0.005)),
                                 "cy": _r6(1.2 + rng.uniform(0.0, 0.005)),
                                 "r": 0.2}))
    # weight 12: the horocycle integral has a closed form in tau(n)
    slots.append(Slot("horizontal", {"y": _r6(rng.uniform(1.2, 1.4)),
                                     "psi": "const", "a": -0.5, "b": 0.5,
                                     "k": 12}))
    return slots


def pretrace_cli(rng) -> list:
    return [Slot("pretrace", {"seed": int(rng.integers(0, 2 ** 63))})]


def in_bulk(z: complex, elliptic: list) -> bool:
    if abs(z.real) > 0.5 or z.imag <= 1.0 / BULK_Y:
        return False
    return all(hyp_distance(z, e) > BULK_DELTA for e in elliptic)


def certify_bulk(rng) -> list:
    elliptic = elliptic_points(0.25)
    slots = []
    for y_lo, y_hi in ((1.75, 1.8), (1.47, 1.53), (1.2, 1.25), (0.96, 1.0),
                       (0.76, 0.79)):
        while True:
            z = complex(_r6(rng.uniform(-0.5, 0.5)), _r6(rng.uniform(y_lo, y_hi)))
            if in_bulk(z, elliptic):
                break
        slots.append(Slot("displacement", {"z": z}))
        for k in CERT_WEIGHTS:
            slots.append(Slot("certificate", {"z": z, "k": k}))
    # F3: the weight-4 sum behind the certificate hits the coset cap
    slots.append(Slot("certificate", {"z": 0.3j, "k": CERT_WEIGHTS[0]}, "F3"))
    return slots


PARTS = {"kernel_certify": (kernel_k12, certify_bulk),
         "equidist_pretrace": (equidist_k1200, pretrace_cli)}
WORKLOADS = tuple(PARTS)


def make(workload: str, seed: int) -> list:
    rng = np.random.Generator(np.random.Philox(seed))
    return [slot for part in PARTS[workload] for slot in part(rng)]


def fmt_point(z: complex) -> str:
    """The CLI's a+bi literal."""
    return f"{z.real!r}{z.imag:+}i"
