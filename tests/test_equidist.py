"""Tests for the mass-density integrals and their normalization."""

import math
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from cuspkernel import (
    BumpFunction2D,
    CuspKernelError,
    CutoffExceeded,
    NoCuspForms,
    Point,
    SupportViolation,
    WeightConfig,
    bergman_R,
    dim_cusp_forms,
    integrate_horizontal,
    integrate_region,
    integrate_vertical,
    measure_density,
)
from cuspkernel import TestFunction as BumpSpec
from cuspkernel import equidist, kernel
from cuspkernel.quadrature import adaptive

Y = 7.0  # strip parameter of the line integrals
GOLDEN = Path(__file__).resolve().parent / "golden" / "integrals_k1200.txt"


def valence_dim(k):
    """Independent cusp-form dimension count: monomials in the two basic
    forms of weights 4 and 6 minus the one non-cuspidal direction."""
    count = sum(1 for a in range(k // 4 + 1) for b in range(k // 6 + 1)
                if 4 * a + 6 * b == k)
    return max(count - 1, 0)


class TestDimensions:
    @pytest.mark.parametrize("k, want", [(12, 1), (14, 0), (24, 2)])
    def test_examples(self, k, want):
        assert dim_cusp_forms(k) == want
        assert valence_dim(k) == want

    def test_against_valence_count(self):
        for k in range(4, 400, 2):
            assert dim_cusp_forms(k) == valence_dim(k)

    def test_small_weights_empty(self):
        for k in (0, 2, 4, 6, 8, 10):
            assert dim_cusp_forms(k) == 0

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            dim_cusp_forms(13)

    def test_normalization_limit(self):
        # (k-1)/(8 pi dim) -> 3/(2 pi) along k = 0 mod 12; the density is
        # that normalization times the diagonal kernel
        z = Point(0.23, 1.37)
        vals = []
        for k in (240, 480, 960, 1920):
            cfg = WeightConfig(k, 1e-10)
            vals.append(measure_density(z, cfg)[0]
                        / bergman_R(z, z, cfg).value.real)
        target = 3.0 / (2.0 * math.pi)
        gaps = [abs(v - target) for v in vals]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-3


class TestMeasureDensity:
    def test_bulk_value(self):
        got, err = measure_density(Point(0.13, 1.1), WeightConfig(1200, 1e-9))
        want = (1199 / (8 * math.pi * 100)) * 2.0
        np.testing.assert_allclose(got, want, rtol=1e-4)
        assert 0.0 <= err <= (1199 / (8 * math.pi * 100)) * 1e-9

    def test_vanishing_at_i(self):
        got, _ = measure_density(Point(0, 1), WeightConfig(402, 1e-10))
        assert abs(got) < 1e-9

    def test_positivity(self):
        cfg = WeightConfig(36, 1e-10)
        gen = np.random.Generator(np.random.Philox(4))
        for _ in range(20):
            z = Point(float(gen.uniform(-0.5, 0.5)), float(gen.uniform(0.4, 2.5)))
            dens, err = measure_density(z, cfg)
            assert dens >= -err

    def test_no_cusp_forms(self):
        with pytest.raises(NoCuspForms):
            measure_density(Point(0, 1), WeightConfig(14, 1e-9))

    def test_bulk_convergence_sweep(self):
        # density -> 3/pi with decreasing gaps along k = 0 mod 12; the point
        # must be genuinely bulk (0.23+1.37i is > 0.37 from every elliptic
        # point, so the stabilizer terms are negligible already at k = 240)
        target = 3.0 / math.pi
        gaps = []
        for k in (240, 480, 960, 1920):
            dens, _ = measure_density(Point(0.23, 1.37), WeightConfig(k, 1e-10))
            gaps.append(abs(dens - target))
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-3
        assert [dim_cusp_forms(k) * 12 / k for k in (240, 480, 960, 1920)] == [
            1.0, 1.0, 1.0, 1.0
        ]


def _density_reprs(points, cfg):
    dens, errs = measure_density(points, cfg)
    return [repr((float(d), float(e))) for d, e in zip(dens, errs)]


def _first_error(points, cfg):
    """The error of the first point whose measure_density raises one."""
    for p in points:
        try:
            measure_density(p, cfg)
        except CuspKernelError as exc:
            return type(exc), str(exc), getattr(exc, "best_tail_bound", None)
    return None


class TestBatchedDensity:
    # measure_density over a list of points is, point for point, the
    # one-point measure_density, bit for bit, and raises what the first
    # point to fail would raise on its own

    @pytest.mark.parametrize("k, tol, n", [(1200, 1e-9, 60), (24, 1e-12, 30)])
    def test_bulk_points(self, k, tol, n):
        # the draw holds points below the unit circle, which the batch
        # moves to their reductions, and points of the domain, which keep
        # their bits
        gen = np.random.Generator(np.random.Philox(13))
        points = [Point(float(gen.uniform(-0.5, 0.5)), float(gen.uniform(0.6, 2.2)))
                  for _ in range(n)]
        cfg = WeightConfig(k, tol)
        below = [p.x * p.x + p.y * p.y < 1.0 for p in points]
        assert 0 < sum(below) < n
        want = [repr(measure_density(p, cfg)) for p in points]
        assert _density_reprs(points, cfg) == want

    def test_low_points(self):
        # k 12 below the unit circle: thousands of cosets a point
        cfg = WeightConfig(12, 1e-12)
        points = [Point(0.3, 0.3), Point(-0.2, 0.5), Point(0.13, 1.1),
                  Point(0.4, 0.6)]
        assert all(bergman_R(p, p, cfg).cosets_used >= 100 for p in points)
        want = [repr(measure_density(p, cfg)) for p in points]
        assert _density_reprs(points, cfg) == want

    @pytest.mark.parametrize("k, tol", [(1200, 1e-9), (24, 1e-12)])
    def test_translated_points(self, k, tol):
        # points off the strip move into it as arrays, x - rint(x) where
        # |x| > 1/2: the edges +-0.5 stay, 1.5 and 2.5 round half to even
        cfg = WeightConfig(k, tol)
        points = [Point(x, y) for x in (0.5, -0.5, 1.5, 2.5, -7.3, 0.13)
                  for y in (1.05, 1.9)]
        want = [repr(measure_density(p, cfg)) for p in points]
        assert _density_reprs(points, cfg) == want

    @pytest.mark.parametrize("n", [1, 15])
    def test_small_batches(self, n):
        # one point, and the 15 nodes of one Gauss-Kronrod panel
        gen = np.random.Generator(np.random.Philox(n))
        points = [Point(float(gen.uniform(-0.5, 0.5)), float(gen.uniform(0.9, 2.2)))
                  for _ in range(n)]
        for cfg in (WeightConfig(1200, 1e-9), WeightConfig(12, 1e-12)):
            want = [repr(measure_density(p, cfg)) for p in points]
            assert _density_reprs(points, cfg) == want

    def test_a_batch_far_up_makes_no_warning(self):
        # from 1e200 up, squares such as 4 v Im gz and y^2 overflow; these
        # points hold the identity coset alone, whose line takes Lipschitz's
        # series, and numpy writes no warning on the way
        cfg = WeightConfig(1200, 1e-9)
        points = [Point(0.13, y) for y in (1e200, 3e200, 1e201)]
        want = [repr(measure_density(p, cfg)) for p in points]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _density_reprs(points, cfg) == want

    def test_no_cusp_forms(self):
        points = [Point(0.1, 1.2), Point(0.0, 1.0)]
        with pytest.raises(NoCuspForms, match="weight 14 has no cusp forms"):
            measure_density(points, WeightConfig(14, 1e-9))

    def test_the_first_failure_is_raised(self, monkeypatch):
        # with m-lines capped at 9 terms, 0.13+0.95i and 0.05+1.05i fail in
        # the coset pass with different tails, the two others pass;
        # 0.1+1e-200i fails before it, at the lattice radius of its image
        monkeypatch.setattr(kernel, "_MAX_LINE_TERMS", 9)
        cfg = WeightConfig(24, 1e-9)
        ok, low = [Point(0.3, 1.4), Point(-0.2, 1.9)], Point(0.1, 1e-200)
        fail = [Point(0.13, 0.95), Point(0.05, 1.05)]
        assert _first_error(ok, cfg) is None
        assert _first_error(fail[:1], cfg) != _first_error(fail[1:], cfg)
        for points in ([ok[0], fail[0], fail[1], ok[1]],
                       [ok[0], fail[1], fail[0]],
                       [fail[0], low], [low, fail[0]], [ok[1], low, ok[0]]):
            want = _first_error(points, cfg)
            with pytest.raises(CuspKernelError) as exc:
                measure_density(points, cfg)
            assert (type(exc.value), str(exc.value),
                    getattr(exc.value, "best_tail_bound", None)) == want


def close_to(value):
    """The allowance of a reference against a more exact one: a few ulps
    or 1e-15 relative, whichever is larger."""
    return max(4 * math.ulp(value), 1e-15 * abs(value))


class _Zero1D:
    """A test function that vanishes on its whole support [a, b]."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __call__(self, s):
        return np.zeros(np.shape(s))

    def in_own_variable(self, t):
        return np.zeros(np.shape(t))


class TestTestFunction:
    def test_bump_vanishes_at_endpoints(self):
        psi = BumpSpec.bump(1.0, 2.0)
        assert psi(1.0) == 0.0 and psi(2.0) == 0.0
        assert psi(0.9) == 0.0 and psi(2.1) == 0.0
        assert psi(1.5) == math.exp(-1.0)

    def test_reference_reproducible(self):
        cfg = WeightConfig(1200, 1e-9)
        a = integrate_vertical(0.13, BumpSpec.bump(1.0, 2.0), cfg, Y).reference
        b = integrate_vertical(0.13, BumpSpec.bump(1.0, 2.0), cfg, Y).reference
        assert a == b

    def test_indicator_reference(self):
        # the line supplies the measure: dx on a horizontal line, dy/y on a
        # vertical one
        cfg = WeightConfig(1200, 1e-9)
        psi = BumpSpec.indicator(0.0, 0.5)
        res = integrate_horizontal(1.3, psi, cfg, Y)
        np.testing.assert_allclose(res.reference, 1.5 / math.pi, rtol=1e-12)
        res = integrate_vertical(0.13, BumpSpec.indicator(1.0, 2.0), cfg, Y)
        np.testing.assert_allclose(res.reference, 3.0 / math.pi * math.log(2),
                                   rtol=1e-12)

    @pytest.mark.parametrize("b", [1e-12, 1e-9])
    def test_narrow_support_reference(self, b):
        # an absolute tolerance of 1e-15 left these off by 7.7e-6 and
        # 1.4e-10 relative
        psi = BumpSpec.bump(0.0, b)
        res = integrate_horizontal(1.5, psi, WeightConfig(1200, 1e-9), Y,
                                   unsafe=True)
        with mp.workdps(40):
            want = 3 / mp.pi * mp.quad(
                lambda s: mp.exp(-1 / (1 - (2 * s / b - 1) ** 2)), [0, b])
        assert abs(res.reference - want) <= close_to(float(want))

    @pytest.mark.parametrize("line", ["vertical", "horizontal"])
    def test_narrow_support_away_from_zero(self, line):
        # a support of width 1e-9 at 1.5 (dy/y) and at 0.1 (dx): in the
        # line's coordinate its nodes were resolved to 1e-7 relative only,
        # and the reference did not converge
        cfg, (a, b) = WeightConfig(1200, 1e-9), (0.1, 0.100000001)
        if line == "vertical":
            a, b = 1.5, 1.500000001
            res = integrate_vertical(0.13, BumpSpec.bump(a, b), cfg, Y)
        else:
            res = integrate_horizontal(1.3, BumpSpec.bump(a, b), cfg, Y)
        with mp.workdps(40):
            a, b = mp.mpf(a), mp.mpf(b)
            mid, half = (a + b) / 2, (b - a) / 2
            want = 3 / mp.pi * half * mp.quad(
                lambda t: mp.exp(-1 / (1 - t * t))
                / (mid + half * t if line == "vertical" else 1), [-1, 1])
        assert abs(res.reference - want) <= close_to(float(want))

    @pytest.mark.parametrize("ref, err", [
        (math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0), (1.0, 2e-12)])
    def test_unconverged_reference(self, monkeypatch, ref, err):
        monkeypatch.setattr(equidist, "adaptive",
                            lambda *args, **kw: (ref, err, 0.0, 15))
        with pytest.raises(ValueError):
            equidist._reference(None, 0.0, 1.0)

    def test_bad_support(self):
        with pytest.raises(ValueError):
            BumpSpec.bump(2.0, 1.0)
        with pytest.raises(ValueError):
            BumpSpec("tabulated", 1.0, 2.0)
        # dy/y needs a positive support, with or without the window check
        with pytest.raises(ValueError):
            integrate_vertical(0.13, BumpSpec.bump(-1.0, 1.0),
                               WeightConfig(1200, 1e-9), Y, unsafe=True)
        # a nan x and a height that is no height are the argument's error,
        # not that of a quadrature node, with or without the window check
        cfg = WeightConfig(1200, 1e-9)
        for unsafe in (False, True):
            for x in (math.nan, 0.6, -math.inf):
                with pytest.raises(ValueError, match="x must"):
                    integrate_vertical(x, BumpSpec.bump(1.1, 1.2), cfg, Y,
                                       unsafe=unsafe)
            for y in (math.nan, math.inf, 0.0, -1.3):
                with pytest.raises(ValueError, match="y must"):
                    integrate_horizontal(y, BumpSpec.indicator(-0.5, 0.5),
                                         cfg, Y, unsafe=unsafe)


class TestVertical:
    def test_zero_function(self):
        res = integrate_vertical(0.13, _Zero1D(1.0, 2.0),
                                 WeightConfig(1200, 1e-9), Y)
        assert res.integral == 0.0 and res.reference == 0.0

    def test_bulk_bump_k1200(self):
        psi = BumpSpec.bump(1.0, 2.0)
        res = integrate_vertical(0.13, psi, WeightConfig(1200, 1e-9), Y)
        gap = abs(res.integral - res.reference) / res.reference
        assert gap < 0.01

    def test_elliptic_signature_at_i(self):
        # the geodesic at x = 0 passes through i; the stabilizer terms flip
        # sign with k mod 4 and the integral tracks them
        psi = BumpSpec.bump(0.8, 1.2)
        out = {}
        for k in (400, 402):
            cfg = WeightConfig(k, 1e-10)
            res = integrate_vertical(0.0, psi, cfg, Y)
            dim = dim_cusp_forms(k)
            pred_bulk = res.reference * (k - 1) / (12.0 * dim)
            out[k] = res.integral - pred_bulk
        assert out[400] > 0.0 > out[402]

    def test_window_enforced(self):
        psi = BumpSpec.bump(1.0, 2.0)
        with pytest.raises(SupportViolation):
            integrate_vertical(0.13, psi, WeightConfig(300, 1e-9), Y)
        res = integrate_vertical(0.13, psi, WeightConfig(300, 1e-9), Y,
                                 unsafe=True)
        assert res.integral > 0.0

    def test_convergence_sweep_with_2400(self):
        psi = BumpSpec.bump(1.0, 2.0)
        gaps, errs = [], []
        for k in (300, 600, 1200, 2400):
            cfg = WeightConfig(k, 1e-9)
            unsafe = cfg.support_top() <= psi.b
            res = integrate_vertical(0.13, psi, cfg, Y, unsafe=unsafe)
            gaps.append(abs(res.integral - res.reference) / res.reference)
            errs.append(res.error / res.reference)
        assert gaps[-1] < 0.01
        for earlier, later, err in zip(gaps, gaps[1:], errs[1:]):
            assert later <= earlier + err

    def test_error_accounting(self):
        psi = BumpSpec.bump(1.0, 2.0)
        cfg = WeightConfig(120, 1e-9)
        res = integrate_vertical(0.13, psi, cfg, Y, rtol=1e-4, unsafe=True)
        fine = integrate_vertical(0.13, psi, cfg, Y, rtol=2.5e-5, unsafe=True)
        assert abs(res.integral - fine.integral) < res.error + fine.error


class TestHorizontal:
    def test_constant_k1200(self):
        psi = BumpSpec.indicator(-0.5, 0.5)
        res = integrate_horizontal(1.3, psi, WeightConfig(1200, 1e-9), Y)
        gap = abs(res.integral - res.reference) / res.reference
        assert gap < 0.01
        np.testing.assert_allclose(res.reference, 3.0 / math.pi, rtol=1e-12)

    def test_half_indicator(self):
        psi = BumpSpec.indicator(0.0, 0.5)
        res = integrate_horizontal(1.5, psi, WeightConfig(1200, 1e-9), Y)
        gap = abs(res.integral - res.reference) / res.reference
        assert gap < 0.015
        np.testing.assert_allclose(res.reference, 1.5 / math.pi, rtol=1e-12)

    def test_zero_function(self):
        res = integrate_horizontal(1.3, _Zero1D(-0.25, 0.25),
                                   WeightConfig(1200, 1e-9), Y)
        assert res.integral == 0.0 and res.reference == 0.0

    def test_height_window(self):
        psi = BumpSpec.indicator(-0.5, 0.5)
        with pytest.raises(SupportViolation):
            integrate_horizontal(3.0, psi, WeightConfig(1200, 1e-9), Y)
        with pytest.raises(SupportViolation):
            integrate_horizontal(0.1, psi, WeightConfig(1200, 1e-9), Y)

    def test_convergence_sweep(self):
        psi = BumpSpec.indicator(-0.5, 0.5)
        gaps, errs = [], []
        for k in (300, 600, 1200, 2400):
            cfg = WeightConfig(k, 1e-9)
            unsafe = cfg.support_top() <= 1.3  # k = 300 sits below the window
            res = integrate_horizontal(1.3, psi, cfg, Y, unsafe=unsafe)
            gaps.append(abs(res.integral - res.reference) / res.reference)
            errs.append(res.error / res.reference)
        assert gaps[-1] < 0.01
        for earlier, later, err in zip(gaps, gaps[1:], errs[1:]):
            assert later <= earlier + err

    def test_a_line_far_above_every_neighborhood(self):
        # (y - e_y)^2 overflows above about y = 1.3e154: such a line
        # crosses no neighborhood, and the density on it, which falls like
        # exp(-4 pi y), is 0 in floating point; its error is the lattice
        # tail beyond the identity coset, 8.2e-29 a point at 1e250
        cfg = WeightConfig(1200, 1e-9)
        elist = equidist.elliptic_points_in_strip(Y)
        for y in (1e154, 1e250, 1e300):
            assert equidist._horizontal_crossings(y, elist, cfg.delta_for(Y)) == []
        res = integrate_horizontal(1e250, BumpSpec.indicator(-0.5, 0.5), cfg, Y,
                                   unsafe=True)
        assert res.integral == 0.0 and 0.0 <= res.error < 1e-28


class TestGoldenIntegrals:
    # repr of (integral, reference, error, nodes) at k = 1200, recorded
    # before the three integrals shared one integrand; any change in the
    # arithmetic of the integrand or of the quadrature shows here
    CASES = {
        "vertical": lambda cfg: integrate_vertical(
            0.13, BumpSpec.bump(1.0, 2.0), cfg, Y),
        "horizontal": lambda cfg: integrate_horizontal(
            1.3, BumpSpec.indicator(-0.5, 0.5), cfg, Y),
        "region": lambda cfg: integrate_region(BumpFunction2D(0.1, 1.2, 0.2), cfg),
        # recorded before the line took over the choice of base measure
        "horizontal_bump": lambda cfg: integrate_horizontal(
            1.5, BumpSpec.bump(-0.3, 0.2), cfg, Y),
        # the line passes about 0.22 from rho = (-1 + i sqrt 3)/2
        "vertical_rho": lambda cfg: integrate_vertical(
            -0.31, BumpSpec.bump(0.9, 1.9), cfg, Y),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_bit_identical(self, name):
        want = dict(line.split(" ", 1) for line in GOLDEN.read_text().splitlines())
        got = self.CASES[name](WeightConfig(1200, 1e-9))
        assert repr(tuple(got)) == want[name]


# The nested quadrature that computed BumpFunction2D's reference before the
# radial one, kept as its test oracle: the integral of phi / y^2 along the
# chords of the support, in lockstep, then over x.  Its absolute tolerances
# were 1e-16 and 1e-15; they are scaled here with the chord length and the
# area of the disk, and are those at radius 0.2.
def nested_reference(phi):
    scale = phi.radius / 0.2

    def inner(x):
        val, _, _, _ = equidist._chord_integrals(
            phi, x, lambda x, y: phi(x, y) / (y * y), rtol=1e-12,
            atol=1e-16 * scale)
        return val

    val, _, _, _ = adaptive(
        inner, phi.center_x - phi.radius, phi.center_x + phi.radius,
        rtol=1e-11, atol=1e-15 * scale * scale)
    return val


def radial_reference_mp(cx, cy, r):
    """int phi dxdy/y^2 at 40 digits, in polar coordinates about the
    center: 2 pi cy int_0^r bump(rho/r) rho / (cy^2 - rho^2)^(3/2) drho."""
    with mp.workdps(40):
        cy, r = mp.mpf(cy), mp.mpf(r)
        val, err = mp.quad(
            lambda rho: (mp.exp(-1 / (1 - (rho / r) ** 2)) * rho
                         / (cy * cy - rho * rho) ** mp.mpf(1.5)),
            [0, r / 2, r], error=True)
        assert err < mp.mpf(10) ** -30 * val
        return 2 * mp.pi * cy * val


DISKS = {
    "golden": (0.1, 1.2, 0.2),
    # the bulk disks of perfbench's equidist_pretrace at seed 1
    "bench_1": (0.042511, 1.735725, 0.208121),
    "bench_2": (0.222178, 1.537618, 0.209107),
    "bench_3": (-0.212539, 1.541507, 0.203998),
    "bench_4": (0.253284, 1.497607, 0.207231),
    "about_i": (0.0, 1.0, 0.2),
    "near_the_real_line": (0.3, 0.25, 0.2),
    "small": (0.1, 1.5, 1e-6),
}


class TestRegionReference:
    @pytest.mark.parametrize("name", list(DISKS))
    def test_against_mpmath(self, name):
        want = float(radial_reference_mp(*DISKS[name]))
        got = BumpFunction2D(*DISKS[name]).reference_integral
        assert abs(got - want) <= close_to(want)

    @pytest.mark.parametrize("name", list(DISKS))
    def test_against_the_nested_oracle(self, name):
        phi = BumpFunction2D(*DISKS[name])
        want = nested_reference(phi)
        if name == "golden":
            assert phi.reference_integral == want
        elif name == "small":
            # the oracle's nodes x + iy place a point of the disk only to
            # ulp(cy) / r of its radius
            rel = 4 * math.ulp(phi.center_y) / phi.radius
            assert abs(phi.reference_integral - want) <= rel * want
        else:
            assert abs(phi.reference_integral - want) <= close_to(want)

    @pytest.mark.parametrize("cx, cy, r", [
        (0.1, 1.5, 1e-20),  # every chord is one float
        (0.0, 1e300, 0.2),
        (1e300, 1.5, 0.2),
        (0.0, 1e200, 1e199),  # cy^3 overflows
        (0.0, 1e-110, 1e-111),  # cy^3 underflows
    ])
    def test_unrepresentable_disks(self, cx, cy, r):
        with pytest.raises(ValueError):
            BumpFunction2D(cx, cy, r)


class _Zero2D:
    center_x, center_y, radius = 0.1, 1.2, 0.2
    reference_integral = 0.0

    def _chord(self, x):
        return (self.center_y, self.center_y)

    def __call__(self, x, y):
        return np.zeros(np.shape(x))


class TestRegion:
    def test_zero_function(self):
        res = integrate_region(_Zero2D(), WeightConfig(1200, 1e-8))
        assert res.integral == 0.0 and res.reference == 0.0

    def test_bulk_bump_k1200(self):
        phi = BumpFunction2D(0.1, 1.2, 0.2)
        res = integrate_region(phi, WeightConfig(1200, 1e-8))
        gap = abs(res.integral - res.reference) / res.reference
        assert gap < 0.01

    def test_elliptic_center_gap_decays(self):
        # support around i: the stabilizer contribution carries mass ~ 1/k,
        # so the normalized gap decays across a doubling sweep
        phi = BumpFunction2D(0.0, 1.0, 0.2)
        gaps = []
        for k in (400, 800, 1600):
            res = integrate_region(phi, WeightConfig(k, 1e-8), unsafe=True)
            gaps.append(abs(res.integral - res.reference) / res.reference)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_support_checks(self):
        with pytest.raises(SupportViolation):
            integrate_region(BumpFunction2D(0.45, 1.2, 0.2), WeightConfig(120, 1e-8))
        with pytest.raises(SupportViolation):
            integrate_region(BumpFunction2D(0.0, 1.0, 0.2), WeightConfig(120, 1e-8))

    def test_error_accounting(self):
        phi = BumpFunction2D(0.1, 1.2, 0.2)
        cfg = WeightConfig(120, 1e-9)
        res = integrate_region(phi, cfg, rtol=1e-3)
        fine = integrate_region(phi, cfg, rtol=2.5e-4)
        assert abs(res.integral - fine.integral) < res.error + fine.error
