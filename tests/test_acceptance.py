"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The numbered criteria:

  1. pre-trace identity at 20 seeded points, residual < 1e-8
  2. elliptic signature at i for weights 400/402, within 1e-9
  3. bulk asymptotic at 0.13+1.1i: < 1e-3 at weight 1600, decreasing sweep,
     and always within the displacement-based certificate
  4. vertical-geodesic integral, bump on [1,2] at x = 0.13: gap < 1% at
     weight 1200, decreasing over {300, 600, 1200}
  5. horizontal integrals at y = 1.3 / 1.5: gaps < 1% (constant) and
     < 1.5% (half indicator)
  6. 2-D bump at 0.1+1.2i: gap < 1% at weight 1200
  7. displacement lemmas: 3x1000 bulk samples above delta/(4Y); 10^4
     fixed-point half-distance triples
  8. kernel algebra: magnitude law, Hermitian symmetry, weight-12
     automorphy, truncation certificate
  9. oracle integrity: exact multiplicativity, the norm stable across two
     Kloosterman cut-offs
"""

import math

import numpy as np

from cuspkernel import (
    GammaMatrix,
    Point,
    WeightConfig,
    b_term,
    bergman_R,
    delta_coeffs,
    fixed_point,
    hyp_distance,
    integrate_horizontal,
    integrate_region,
    integrate_vertical,
    min_displacement,
    moebius_apply,
    pair_invariant,
    petersson_norm_delta,
    residual_certificate,
    verify_pretrace,
)
from cuspkernel import BumpFunction2D, oracle
from cuspkernel import TestFunction as BumpSpec
from cuspkernel.cli import pretrace_points
from cuspkernel.modgroup import sample_bulk

from test_halfplane import random_gamma, random_point

SEED = 20250809


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_pretrace_identity():
    worst = 0.0
    for z in pretrace_points(20, SEED):
        worst = max(worst, verify_pretrace(z))
    assert worst < 1e-8
    report(1, f"pre-trace residual at 20 seeded points, max {worst:.3e} < 1e-8")


def test_criterion_2_elliptic_signature():
    i_pt = Point(0.0, 1.0)
    r400 = bergman_R(i_pt, i_pt, WeightConfig(400, 1e-12))
    r402 = bergman_R(i_pt, i_pt, WeightConfig(402, 1e-12))
    assert abs(r400.value - 4.0) < 1e-9
    assert abs(r402.value) < 1e-9
    report(2, f"|R_400(i,i)-4| = {abs(r400.value - 4):.2e}, "
              f"|R_402(i,i)| = {abs(r402.value):.2e}, both < 1e-9")


def test_criterion_3_bulk_asymptotic():
    z = Point(0.13, 1.1)
    residuals = []
    for k in (200, 400, 800, 1600):
        res = bergman_R(z, z, WeightConfig(k, 1e-12))
        measured = abs(res.value - 2.0)
        cert = residual_certificate(z, k)
        assert measured <= cert
        residuals.append(measured)
    assert residuals == sorted(residuals, reverse=True)
    assert residuals[-1] < 1e-3
    report(3, f"|R_k-2| decreasing {['%.2e' % r for r in residuals]}, "
              f"final < 1e-3, all within certificates")


def test_criterion_4_vertical_desk_scale():
    psi = BumpSpec.bump(1.0, 2.0)
    gaps, errs = [], []
    for k in (300, 600, 1200):
        cfg = WeightConfig(k, 1e-9)
        # weights 300 and 600 sit outside the proved support window at
        # A = 2; the sweep runs them with the window check lifted while the
        # k = 1200 endpoint also passes in-window
        unsafe = cfg.support_top() <= psi.b
        res = integrate_vertical(0.13, psi, cfg, 7.0, unsafe=unsafe)
        gaps.append(abs(res.integral - res.reference) / res.reference)
        errs.append(res.error / res.reference)
    assert gaps[-1] < 0.01
    for earlier, later, err in zip(gaps, gaps[1:], errs[1:]):
        assert later <= earlier + err
    report(4, f"vertical gaps {['%.4f%%' % (100*g) for g in gaps]} "
              f"decreasing, final < 1%")


def test_criterion_5_horizontal_desk_scale():
    cfg = WeightConfig(1200, 1e-9)
    const = BumpSpec.indicator(-0.5, 0.5)
    res1 = integrate_horizontal(1.3, const, cfg, 7.0)
    gap1 = abs(res1.integral - res1.reference) / res1.reference
    half = BumpSpec.indicator(0.0, 0.5)
    res2 = integrate_horizontal(1.5, half, cfg, 7.0)
    gap2 = abs(res2.integral - res2.reference) / res2.reference
    assert gap1 < 0.01
    assert gap2 < 0.015
    report(5, f"horizontal gaps: constant {100*gap1:.4f}% < 1%, "
              f"half indicator {100*gap2:.4f}% < 1.5%")


def test_criterion_6_region_desk_scale():
    phi = BumpFunction2D(0.1, 1.2, 0.2)
    res = integrate_region(phi, WeightConfig(1200, 1e-8))
    gap = abs(res.integral - res.reference) / res.reference
    assert gap < 0.01
    report(6, f"2-D bump gap {100*gap:.4f}% < 1% at weight 1200")


def test_criterion_7_lemma_suite():
    worst_margin = math.inf
    for Y in (5.0, 10.0, 20.0):
        delta = 0.05
        rng = np.random.Generator(np.random.Philox(SEED + int(Y)))
        bound = delta / (4.0 * Y)
        for z in sample_bulk(Y, delta, 1000, rng):
            _, d = min_displacement(z)
            assert d > bound
            worst_margin = min(worst_margin, d / bound)
    rng = np.random.Generator(np.random.Philox(SEED))
    seeds = [GammaMatrix.S(), GammaMatrix(1, -1, 1, 0), GammaMatrix(0, -1, 1, -1)]
    for _ in range(10_000):
        w = GammaMatrix.T(int(rng.integers(-4, 5)))
        if rng.integers(0, 2):
            w = w * GammaMatrix.S() * GammaMatrix.T(int(rng.integers(-3, 4)))
        g = w * seeds[int(rng.integers(0, 3))] * w.inverse()
        z = Point(float(rng.uniform(-2, 2)), float(rng.uniform(0.1, 3.0)))
        moved = hyp_distance(z, moebius_apply(g, z))
        delta = float(rng.uniform(0.0, 1.0)) * moved
        if moved > delta:
            assert hyp_distance(z, fixed_point(g)) > delta / 2 - 1e-12
    report(7, f"3x1000 displacement samples above delta/(4Y) "
              f"(worst margin {worst_margin:.1f}x); 10^4 half-distance triples hold")


def test_criterion_8_kernel_algebra():
    rng = np.random.Generator(np.random.Philox(SEED))
    # magnitude law on 10^3 samples at relative 1e-12
    for _ in range(1000):
        g, z, w = random_gamma(rng), random_point(rng), random_point(rng)
        t = b_term(g, z, w)
        want = (1.0 + pair_invariant(w, moebius_apply(g, z))) ** -0.5
        assert abs(abs(t) - want) <= 1e-12 * want

    # Hermitian symmetry at relative 1e-8
    cfg = WeightConfig(12, 1e-12)
    for _ in range(20):
        z = random_point(rng, y_lo=0.6, y_hi=2.0)
        w = random_point(rng, y_lo=0.6, y_hi=2.0)
        a = bergman_R(z, w, cfg)
        bb = bergman_R(w, z, cfg)
        assert abs(a.value - bb.value.conjugate()) <= 1e-8 * abs(a.value) + (
            a.tail_bound + bb.tail_bound
        )

    # weight-12 automorphy at relative 1e-8 for T and S
    k = 12

    def B(z, W):
        return bergman_R(z, Point(-W.x, W.y), cfg).value / (z.y * W.y) ** (k // 2)

    z, W = Point(0.3, 0.7), Point(0.1, 0.9)
    base = B(z, W)
    assert abs(B(Point(z.x + 1, z.y), W) - base) < 1e-8 * abs(base)
    target = z.as_complex ** k * base
    assert abs(B(moebius_apply(GammaMatrix.S(), z), W) - target) < 1e-8 * abs(target)

    # truncation certificate via cutoff tightening on 10^2 inputs
    for _ in range(100):
        z = random_point(rng, y_lo=0.5, y_hi=2.5)
        w = random_point(rng, y_lo=0.5, y_hi=2.5)
        kk = 2 * int(rng.integers(6, 50))
        loose = bergman_R(z, w, WeightConfig(kk, 1e-7))
        tight = bergman_R(z, w, WeightConfig(kk, 1e-11))
        assert abs(loose.value - tight.value) <= loose.tail_bound + tight.tail_bound
    report(8, "magnitude law (1e-12), Hermitian + automorphy (1e-8), "
              "truncation certificate (100 inputs)")


def test_criterion_9_oracle_integrity():
    N = 400
    coeffs = delta_coeffs(N)
    pairs, m = [], 2
    while len(pairs) < 50:
        for n in range(m + 1, N // m + 1):
            if math.gcd(m, n) == 1:
                pairs.append((m, n))
                if len(pairs) == 50:
                    break
        m += 1
    for m, n in pairs:
        assert coeffs[m * n - 1] == coeffs[m - 1] * coeffs[n - 1]
    a = petersson_norm_delta(1e-10)
    b = oracle._norm(2 * a.nodes)
    assert abs(a.value - b.value) <= a.error_bound + b.error_bound
    report(9, f"50 coprime pairs exactly multiplicative; norm stable "
              f"across Kloosterman cut-offs {a.nodes} and {b.nodes} "
              f"({a.value:.6e} vs {b.value:.6e})")
