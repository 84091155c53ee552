"""Tests for the certified kernel evaluation and its analytic contracts."""

import math
import os
import random
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from cuspkernel import (
    CutoffExceeded,
    GammaMatrix,
    Point,
    WeightConfig,
    b_term,
    bergman_R,
    hyp_distance,
    moebius_apply,
    pair_invariant,
    residual_certificate,
)
from cuspkernel import kernel, modgroup, oracle
from cuspkernel.kernel import offdiagonal_sum_bound
from cuspkernel.modgroup import (
    coset_arrays,
    elliptic_points_in_strip,
    reduce_to_domain,
)

from coset_oracle import coset_table, scalar_lines
from radius_oracle import dyadic_radius
from test_modgroup import brute_force_sl2, mp_reduction, one_table
from test_halfplane import random_gamma, random_point

I_PT = Point(0.0, 1.0)
BULK = Point(0.13, 1.1)
SQRT3_2 = math.sqrt(3.0) / 2.0
GOLDEN = Path(__file__).resolve().parent / "golden" / "kernel_regimes.txt"
SRC = Path(__file__).resolve().parent.parent / "src"


def rng(seed=20250809):
    return np.random.Generator(np.random.Philox(seed))


def direct(z, cfg):
    """R_k(z, z) by the direct lattice sum at z itself: the cosets of z's
    own lattice radius, with no reduction and no Lipschitz line."""
    tol = 0.5 * cfg.tol
    radius = kernel._lattice_radius(z, z, cfg.k, tol)
    return kernel._checked(*kernel._sum_terms(z, z, cfg.k, tol, *radius),
                           cfg.tol)


class TestBTerm:
    def test_identity_at_i(self):
        t = b_term(GammaMatrix.identity(), I_PT, I_PT)
        assert abs(abs(t) - 1.0) < 1e-15 and abs(t.imag) < 1e-15

    def test_inversion_at_i(self):
        t = b_term(GammaMatrix.S(), I_PT, I_PT)
        np.testing.assert_allclose((t.real, t.imag), (0.0, -1.0), atol=1e-15)

    def test_translation_at_i(self):
        t = b_term(GammaMatrix.T(), I_PT, I_PT)
        np.testing.assert_allclose((t.real, t.imag), (0.8, 0.4), rtol=1e-15)
        np.testing.assert_allclose(abs(t), (1 + 0.25) ** -0.5, rtol=1e-15)

    def test_magnitude_law(self):
        # |t_g(z, w)| = (1 + u(w, gz))^{-1/2}, exercised on 1000 samples
        gen = rng()
        for _ in range(1000):
            g, z, w = random_gamma(gen), random_point(gen), random_point(gen)
            t = b_term(g, z, w)
            u = pair_invariant(w, moebius_apply(g, z))
            np.testing.assert_allclose(
                abs(t), (1.0 + u) ** -0.5, rtol=1e-12
            )

    def test_sign_flip(self):
        gen = rng(5)
        for _ in range(50):
            g, z, w = random_gamma(gen), random_point(gen), random_point(gen)
            t1 = b_term(g, z, w)
            t2 = b_term(-g, z, w)
            assert abs(t1 + t2) < 1e-12 * abs(t1)

    @pytest.mark.parametrize("y", [1e-300, 1e-200, 1e-160, 1e160, 1e200])
    def test_identity_term_at_every_height(self, y):
        # t_I(z, z) = 1 however far z is from i: no intermediate of the term
        # may overflow or underflow on its way there
        z = Point(0.1, y)
        assert abs(b_term(GammaMatrix.identity(), z, z) - 1.0) < 1e-15
        assert abs(2 * b_term(GammaMatrix.identity(), z, z) ** 12 - 2.0) < 1e-14

    @pytest.mark.parametrize("k", [12, 400, 1600, 10000])
    def test_power_against_extended_precision(self, k):
        # the k-th power of a near-diagonal term, |t|^k >= e^-2, against the
        # same double raised at 40 digits: this checks the power alone (the
        # magnitude law above checks the term)
        gen = rng(k)
        r = math.sqrt(8.0 / k)
        for _ in range(200):
            g, z = random_gamma(gen), random_point(gen)
            gz = moebius_apply(g, z)
            w = Point(gz.x + gz.y * float(gen.uniform(-r, r)),
                      gz.y * math.exp(float(gen.uniform(-r, r))))
            t = b_term(g, z, w)
            with mp.workdps(40):
                want = complex(mp.mpc(t) ** k)
            assert abs(t ** k - want) <= 1e-11 * abs(want)


def brute_force_R(z, w, k, entry_bound=6):
    """Direct long summation over all small matrices (independent oracle)."""
    total = 0j
    for g in brute_force_sl2(entry_bound):
        total += b_term(g, z, w) ** k
    return total


class TestBergmanR:
    def test_weight_400_at_i(self):
        res = bergman_R(I_PT, I_PT, WeightConfig(400, 1e-12))
        assert abs(res.value - 4.0) < 1e-9
        assert res.tail_bound < 1e-12

    def test_weight_402_at_i(self):
        res = bergman_R(I_PT, I_PT, WeightConfig(402, 1e-12))
        assert abs(res.value) < 1e-9

    def test_against_long_summation(self):
        for k in (400, 402):
            res = bergman_R(I_PT, I_PT, WeightConfig(k, 1e-12))
            oracle = brute_force_R(I_PT, I_PT, k)
            assert abs(res.value - oracle) < 1e-11

    def test_long_summation_moderate_weight(self):
        # at k=40 more cosets matter; entry bound 8 covers terms > 1e-18
        z = Point(0.2, 1.3)
        res = bergman_R(z, z, WeightConfig(40, 1e-12))
        oracle = brute_force_R(z, z, 40, entry_bound=8)
        assert abs(res.value - oracle) < 1e-9

    def test_bulk_point(self):
        res = bergman_R(BULK, BULK, WeightConfig(1600, 1e-9))
        assert abs(res.value - 2.0) < 1e-3

    def test_diagonal_real(self):
        gen = rng(3)
        for _ in range(20):
            z = random_point(gen, y_lo=0.5, y_hi=2.5)
            res = bergman_R(z, z, WeightConfig(24, 1e-10))
            assert abs(res.value.imag) <= res.tail_bound + 1e-12

    def test_hermitian_symmetry(self):
        gen = rng(9)
        cfg = WeightConfig(12, 1e-12)
        for _ in range(25):
            z = random_point(gen, y_lo=0.6, y_hi=2.0)
            w = random_point(gen, y_lo=0.6, y_hi=2.0)
            a = bergman_R(z, w, cfg)
            b = bergman_R(w, z, cfg)
            assert abs(a.value - b.value.conjugate()) <= (
                a.tail_bound + b.tail_bound + 1e-12
            )

    def test_weight_automorphy(self):
        # B(gz, w) = (cz+d)^k B(z, w) at k = 12 for g in {T, S}
        k, cfg = 12, WeightConfig(12, 1e-13)

        def B(z, W):
            w = Point(-W.x, W.y)  # -conj(w) = W
            return bergman_R(z, w, cfg).value / (z.y * W.y) ** (k // 2)

        z, W = Point(0.3, 0.7), Point(0.1, 0.9)
        base = B(z, W)
        shifted = B(Point(z.x + 1.0, z.y), W)
        assert abs(shifted - base) < 1e-8 * abs(base)
        inverted = B(moebius_apply(GammaMatrix.S(), z), W)
        target = z.as_complex ** k * base
        assert abs(inverted - target) < 1e-8 * abs(target)

    def test_truncation_certificate(self):
        gen = rng(21)
        for _ in range(100):
            z = random_point(gen, y_lo=0.5, y_hi=2.5)
            w = random_point(gen, y_lo=0.5, y_hi=2.5)
            k = 2 * int(gen.integers(6, 50))
            loose = bergman_R(z, w, WeightConfig(k, 1e-7))
            tight = bergman_R(z, w, WeightConfig(k, 1e-11))
            assert abs(loose.value - tight.value) <= (
                loose.tail_bound + tight.tail_bound
            )

    def test_sign_period_structure_at_i(self):
        for k in (396, 400, 404):
            res = bergman_R(I_PT, I_PT, WeightConfig(k, 1e-10))
            assert abs(res.value - 4.0) < 1e-8
        for k in (398, 402, 406):
            res = bergman_R(I_PT, I_PT, WeightConfig(k, 1e-10))
            assert abs(res.value) < 1e-8

    def test_cutoff_exceeded(self):
        with pytest.raises(CutoffExceeded) as exc:
            bergman_R(I_PT, I_PT, WeightConfig(4, 1e-25))
        assert exc.value.best_tail_bound is not None

    def test_cutoff_guards_coset_table_size(self):
        # at weight 6 a tiny tolerance would need tens of millions of
        # cosets; the guard must refuse quickly instead of building them
        import time

        t0 = time.time()
        with pytest.raises(CutoffExceeded):
            bergman_R(I_PT, I_PT, WeightConfig(6, 1e-13))
        assert time.time() - t0 < 5.0

    def test_coset_table_is_capped_while_it_is_built(self, monkeypatch):
        # the lattice tail meets its budget at the first radius here, so
        # only the count kept while the table is built can refuse it
        z = Point(0.1, 0.01)
        n = len(coset_table(z, 8.0))
        monkeypatch.setattr(modgroup, "MAX_COSETS", n)
        assert len(coset_table(z, 8.0)) == n
        assert len(one_table(z, 8.0)) == n
        monkeypatch.setattr(modgroup, "MAX_COSETS", n - 1)
        with pytest.raises(CutoffExceeded):
            coset_table(z, 8.0)
        with pytest.raises(CutoffExceeded):
            one_table(z, 8.0)
        with pytest.raises(CutoffExceeded):
            direct(z, WeightConfig(1200))

    def test_a_long_row_is_enumerated_in_blocks(self):
        # w far below z puts 4e8 candidates d in row c = 1 of the table;
        # they are taken a block at a time, so the cap refuses the table
        # before it holds much more than MAX_COSETS cosets (24 bytes each)
        z, w = Point(0.1, 1.0), Point(0.2, 1e-16)
        tracemalloc.start()
        try:
            with pytest.raises(CutoffExceeded, match="more than"):
                bergman_R(z, w, WeightConfig(1200))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * modgroup.MAX_COSETS

    def test_diagonal_group_invariance_at_low_point(self):
        # the diagonal kernel is invariant under the group action; a point
        # deep below the fundamental domain and its reduced representative
        # have completely different enumeration geometries, so agreement is
        # a strong end-to-end check of the sum and its tails
        cfg = WeightConfig(12, 1e-12)
        z_low = Point(0.3, 0.04)
        g = GammaMatrix(-4, 1, 3, -1)  # reduces z_low into the standard domain
        img = moebius_apply(g, z_low)
        assert abs(img.x) <= 0.5 and img.x ** 2 + img.y ** 2 >= 1.0
        a = direct(z_low, cfg)
        b = bergman_R(img, img, cfg)
        assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound + 1e-11

    @pytest.mark.parametrize("n", [1, -3, 10 ** 6, 10 ** 9, -10 ** 12])
    def test_far_points_use_the_exact_translate(self, n):
        # R_k is 1-periodic in each argument; each is moved into the strip
        # by subtracting round(x), which floating point does exactly
        cfg = WeightConfig(12, 1e-9)
        z = Point(n + 0.13, 1.1)
        w = Point(0.5 - n, 0.9)
        zs = Point(z.x - round(z.x), z.y)
        ws = Point(w.x - round(w.x), w.y)
        res = bergman_R(z, z, cfg)
        assert res == bergman_R(zs, zs, cfg)
        assert abs(res.value.imag) <= res.tail_bound
        assert bergman_R(z, w, cfg) == bergman_R(zs, ws, cfg)

    @pytest.mark.parametrize("y", [1e-155, 1e-160, 1e-200, 1e-300])
    def test_very_low_point_is_a_cutoff(self, y):
        # 0.1+iy reduces to about 0.5 + 7.7e(-34)/y i, where the weight-1200
        # value is one Lipschitz term and the weight-12 lattice tail is out
        # of reach; the weight-4 sum there is about that of its c = 0 line,
        # 2 pi Im z, and at least the line's 2 pi Im z - 2
        z = Point(0.1, y)
        img = reduce_to_domain(z)
        assert img.y > 7e-34 / y
        with pytest.raises(CutoffExceeded, match="not reachable"):
            bergman_R(z, z, WeightConfig(12))
        res = bergman_R(z, z, WeightConfig(1200))
        assert res == bergman_R(img, img, WeightConfig(1200))
        assert res.tail_bound <= 1e-9
        bound = offdiagonal_sum_bound(z)
        assert bound == offdiagonal_sum_bound(img)
        assert 2.0 * math.pi * img.y - 2.0 <= bound <= 1.1 * 2.0 * math.pi * img.y

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_partner_far_up_the_cusp(self):
        # s = Im w Q / Im z reaches 8e300 here: the ring factors never
        # square it, and (Im w - Im gz)^2 is inf once it overflows, so every
        # term underflows and the sum is 0 within tol
        z = Point(0.2, 1.0)
        for e in range(150, 301, 5):
            res = bergman_R(z, Point(0.1, 10.0 ** e), WeightConfig(12))
            assert res.value == 0 and 0.0 <= res.tail_bound <= 1e-9, e

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("y", [1e78, 1e155, 1e300, 2.0 ** 1000, 1e305,
                                   2e307, 3e307, 1e308, 1.7e308])
    def test_very_high_point_returns_or_cuts_off(self, y):
        # squares such as (c y)^2 and (Q - 1)^2 overflow up here, from
        # 1.4e307 so does 4 pi y, and from 2.9e307 2 pi y; each entry point
        # must still return a finite value or raise CutoffExceeded.  The
        # point is in the domain, and a weight-4 sum that returns lies
        # within that of its c = 0 line, 2 pi y, as at the images of
        # test_very_low_point_is_a_cutoff
        z, w = Point(0.1, y), Point(0.2, 1.0)
        calls = [(offdiagonal_sum_bound, z), (residual_certificate, z, 200)]
        for k in (12, 1200):
            cfg = WeightConfig(k)
            calls += [(bergman_R, a, b, cfg)
                      for a, b in ((z, z), (z, w), (w, z))]
        for f, *args in calls:
            try:
                out = f(*args)
            except CutoffExceeded:
                continue
            assert math.isfinite(getattr(out, "tail_bound", out))
            if f is offdiagonal_sum_bound:
                assert 2.0 * math.pi * y - 2.0 <= out <= 1.1 * 2.0 * math.pi * y
        g, d = modgroup.min_displacement(z)
        assert g.c == 0 and abs(g.b) == 1
        if y < 1e150:
            assert d == pytest.approx(2.0 * math.asinh(0.5 / y), rel=1e-12)

    def test_term_pass_memory_per_term(self):
        # the terms are evaluated and summed a chunk at a time, without a
        # list of one Python float (32 bytes) per term
        z = Point(0.0, 3000.0)
        cfg = WeightConfig(12)
        direct(z, cfg)
        tracemalloc.start()
        try:
            res = direct(z, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.terms_used == 213018
        assert peak < 64 * res.terms_used

    def test_array_stage_memory_per_coset(self):
        # 41k cosets, none of them pruned, and 13k terms: the peak is the
        # array coset loop's, a few float64 columns of the table and one
        # list of Python floats at a time for libm (about 290 bytes a kept
        # coset)
        z = Point(0.159202, 0.080638)
        cfg = WeightConfig(12, 1e-12)
        direct(z, cfg)
        tracemalloc.start()
        try:
            res = direct(z, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.cosets_used == 40788
        assert peak < 320 * res.cosets_used

    def test_periodic_in_each_argument(self):
        cfg = WeightConfig(24, 1e-12)
        z, w = Point(0.21, 0.9), Point(-0.33, 1.3)
        base = bergman_R(z, w, cfg)
        for m, n in ((1, 0), (0, 1), (-1, 2), (3, -1)):
            res = bergman_R(Point(z.x + m, z.y), Point(w.x + n, w.y), cfg)
            assert abs(res.value - base.value) <= 1e-14 * abs(base.value)


def one_pair_array_lines(cosets, z, w, k, tol_line, tail):
    """_array_lines on the table of one pair, in scalar_lines's terms."""
    rows, counts, tails, _ = kernel._array_lines(
        cosets, *np.array([[z.x], [z.y], [w.x], [w.y]]), k,
        np.array([tol_line]), np.array([tail]))
    return rows, counts, float(tails[0])


def both_line_stages(z, w, k, tol, max_cosets=None):
    """The scalar oracle and the array coset loop, each called directly on
    its own table of the radius _sum_terms picks: per stage, the repr of
    (rows, counts, tail), or of the CutoffExceeded it raised.  None for a
    table of more than max_cosets."""
    R0, tail = kernel._lattice_radius(z, w, k, tol)
    table = coset_table(z, R0)
    if max_cosets is not None and len(table) > max_cosets:
        return None
    tol_line = 0.25 * tol / len(table)
    out = []
    for stage, cosets in ((scalar_lines, table),
                          (one_pair_array_lines,
                           coset_arrays(*np.array([[z.x], [z.y], [R0]])))):
        try:
            rows, counts, t = stage(cosets, z, w, k, tol_line, tail)
        except CutoffExceeded as exc:
            out.append(repr((str(exc), exc.best_tail_bound)))
            continue
        rows = np.asarray(rows, dtype=np.float64).tolist()
        out.append(repr((rows, np.asarray(counts).tolist(), t)))
    return out


def assert_same(scalar, array, case=None):
    # the reprs run to megabytes: say where they part instead of a diff
    if scalar != array:
        i = next((i for i, (a, b) in enumerate(zip(scalar, array)) if a != b),
                 min(len(scalar), len(array)))
        at = slice(max(i - 60, 0), i + 60)
        pytest.fail(f"{case}: the stages part at character {i}: "
                    f"{scalar[at]!r} against {array[at]!r}")


class TestArrayCosetLoop:
    # _array_lines must reproduce scalar_lines bit for bit: the rows it
    # hands to the term pass, their counts and the tail, or the same
    # CutoffExceeded with the same tail

    def test_random_cases(self):
        gen = rng(12)
        cases = 0
        while cases < 150:
            k = 2 * round(math.exp(gen.uniform(math.log(2), math.log(600))))
            y = math.exp(gen.uniform(math.log(0.1), math.log(50.0)))
            z = Point(float(gen.uniform(-0.5, 0.5)), y)
            if gen.uniform() < 0.5:
                w = z
            else:
                w = Point(float(gen.uniform(-0.5, 0.5)),
                          y * math.exp(gen.uniform(-1.0, 1.0)))
            tol = 10.0 ** gen.uniform(-14.0, -3.0)
            try:
                # tables past 5000 cosets are skipped for time; the low
                # points below have 20k-100k
                out = both_line_stages(z, w, k, tol, 5000)
            except CutoffExceeded:
                continue  # the lattice radius is out of reach: no table
            if out is not None:
                assert_same(*out, (z, w, k, tol))
                cases += 1

    @pytest.mark.parametrize("z", [Point(0.159202, 0.080638),
                                   Point(-0.301377, 0.121047),
                                   Point(0.420853, 0.181562),
                                   Point(-0.072304, 0.273911)])
    def test_low_points(self, z):
        # the benchmark's low points at k 12, tol 1e-14 (half of it per
        # +/- representative, as bergman_R asks _sum_terms): 24k-97k cosets
        R0, _ = kernel._lattice_radius(z, z, 12, 0.5e-14)
        assert len(coset_table(z, R0)) > 20000
        assert_same(*both_line_stages(z, z, 12, 0.5e-14))

    def test_a_line_past_the_term_cap(self, monkeypatch):
        # at 0.1+0.3i the identity line is shorter than the longest c >= 1
        # line; a cap between the two stops the sum in the array part
        z = Point(0.1, 0.3)
        R0, tail = kernel._lattice_radius(z, z, 12, 1e-12)
        table = coset_table(z, R0)
        _, counts, _ = scalar_lines(table, z, z, 12, 0.25e-12 / len(table),
                                    tail)
        assert counts[0] < max(counts)
        cap = (counts[0] + max(counts)) // 2
        monkeypatch.setattr(kernel, "_MAX_LINE_TERMS", cap)
        scalar, array = both_line_stages(z, z, 12, 1e-12)
        assert "m-line window too large" in scalar
        assert_same(scalar, array)

    def test_a_window_that_does_not_converge(self, monkeypatch):
        # one round of growth only: the first line that has to grow ends
        # the sum, and here that is a c >= 1 line
        z = Point(0.1, 0.3)
        monkeypatch.setattr(kernel, "_MAX_GROWTH", 1)
        R0, tail = kernel._lattice_radius(z, z, 12, 1e-12)
        tol_line = 0.25 * 1e-12 / len(coset_table(z, R0))
        scalar_lines([(0, 1, 1.0)], z, z, 12, tol_line, tail)
        scalar, array = both_line_stages(z, z, 12, 1e-12)
        assert "failed to converge" in scalar
        assert_same(scalar, array)

    @pytest.mark.parametrize("z, w, k, tol", [
        (Point(0.1, 0.3), Point(0.1, 0.3), 12, 1e-12),
        (BULK, Point(-0.2, 0.9), 24, 1e-10),
    ])
    def test_cutoffs_of_every_kind(self, monkeypatch, z, w, k, tol):
        # term caps and growth limits across the windows of a table: a
        # window too wide to start, one grown past the cap and one still
        # growing when the rounds run out end the sum at the first such
        # coset, with the same message and tail
        messages = set()
        for cap in (8, 40, 200, 1000):
            for growth in (1, 2, 200):
                monkeypatch.setattr(kernel, "_MAX_LINE_TERMS", cap)
                monkeypatch.setattr(kernel, "_MAX_GROWTH", growth)
                scalar, array = both_line_stages(z, w, k, tol)
                assert_same(scalar, array, (cap, growth))
                messages.add(scalar.split("'")[1] if "m-line" in scalar
                             else None)
        if z == w:
            assert messages == {"m-line window too large",
                                "m-line window failed to converge", None}

    def test_a_window_past_the_cap_that_still_grows(self, monkeypatch):
        # the identity line at 3i starts at n0 = 2 floor(width) + 1 terms,
        # under a cap of n0 + 1, and grows by 8 terms or more in its one
        # round: past the cap, but still growing, it fails to converge
        z, k, tol_line = Point(0.0, 3.0), 12, 1e-14
        width = 2.0 * z.y * math.sqrt((tol_line / 8.0) ** (-2.0 / k) - 1.0)
        n0 = 2 * math.floor(width) + 1
        monkeypatch.setattr(kernel, "_MAX_LINE_TERMS", n0 + 1)
        monkeypatch.setattr(kernel, "_MAX_GROWTH", 1)
        out = []
        for stage, table in ((scalar_lines, [(0, 1, 1.0)]),
                             (one_pair_array_lines, tuple(
                                 np.array([a]) for a in (0, 1, 1.0, 0)))):
            with pytest.raises(CutoffExceeded) as exc:
                stage(table, z, z, k, tol_line, 0.5)
            out.append((str(exc.value), exc.value.best_tail_bound))
        assert out[0] == out[1] == ("m-line window failed to converge", 0.5)


def test_the_coset_loop_under_the_avx2_dispatch():
    # numpy's AVX-512 exp, log1p and arctan2 round some arguments apart
    # from its AVX2 ones; the coset loop and the weight-4 sum read none of
    # them, so the loop's cases and the golden certificate lines pass in a
    # child whose numpy takes its AVX2 kernels, as on a host without
    # AVX-512
    env = dict(os.environ,
               NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    probe = subprocess.run(
        [sys.executable, "-W", "always::ImportWarning", "-c", "import numpy"],
        capture_output=True, text=True, env=env, timeout=120)
    if probe.returncode or "cannot disable" in probe.stderr:
        pytest.skip(f"numpy cannot disable those features: {probe.stderr}")
    golden = [f"{__file__}::TestGoldenRegimes::test_bit_identical[{name}]"
              for name in TestGoldenRegimes.CASES
              if name.startswith(("offdiagonal_sum_bound", "residual_certificate"))]
    assert len(golden) == 9
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::TestArrayCosetLoop", *golden],
        capture_output=True, text=True, env=env, timeout=600,
        cwd=Path(__file__).resolve().parent)
    assert proc.returncode == 0, proc.stdout[-3000:]


def scalar_radii(points, k, tol):
    """_lattice_radius(z, z, k, tol) at each point, as an (R0, tail) pair,
    or None where it raises CutoffExceeded."""
    out = []
    for z in points:
        try:
            out.append(kernel._lattice_radius(z, z, k, tol))
        except CutoffExceeded:
            out.append(None)
    return out


def array_radii(points, k, tol):
    """kernel._lattice_radii at the points in one batch, in the terms of
    scalar_radii: None where both R0 and the tail are nan."""
    x, y = np.array([[z.x, z.y] for z in points]).T
    R0, tail = kernel._lattice_radii(x, y, k, tol)
    assert (np.isnan(R0) == np.isnan(tail)).all()
    return [None if math.isnan(r) else (r, t)
            for r, t in zip(R0.tolist(), tail.tolist())]


def scalar_error(z, k, tol):
    """The message of the CutoffExceeded that _lattice_radius raises."""
    with pytest.raises(CutoffExceeded) as exc:
        kernel._lattice_radius(z, z, k, tol)
    return str(exc.value)


class TestArrayLatticeRadius:
    # _lattice_radii must give each point of a batch its own
    # _lattice_radius(z, z, k, tol), R0 and tail equal (==), or nan in both
    # where that raises CutoffExceeded

    @pytest.mark.parametrize("k", [12, 24, 48, 400, 1200, 1600])
    def test_random_points(self, k):
        # 400 points a weight, at two tolerances: y log-uniform in
        # [0.05, 5000] and x in [-3, 3], off the strip too; the few points
        # whose radius is out of reach are left out of the batch
        gen = rng(k)
        points = [Point(float(gen.uniform(-3.0, 3.0)),
                        math.exp(gen.uniform(math.log(0.05), math.log(5000.0))))
                  for _ in range(400)]
        for tol in (0.5e-9, 0.5e-14):
            reached = []
            for z in points:
                try:
                    reached.append((z, kernel._lattice_radius(z, z, k, tol)))
                except CutoffExceeded:
                    pass
            assert len(reached) > 390
            batch, want = zip(*reached)
            assert array_radii(batch, k, tol) == list(want)

    def test_radii_that_double(self):
        # k 12 below the unit circle at tol 1e-14: R0 moves up the ring
        # grid from 8 to its 37th, 38th or 39th radius (4871 to 6889),
        # each a point's own
        gen = rng(3)
        points = [Point(float(gen.uniform(-0.5, 0.5)), float(gen.uniform(0.08, 0.6)))
                  for _ in range(60)]
        want = scalar_radii(points, 12, 1e-14)
        assert {R0 for R0, _ in want} == {kernel._grid(8.0, j) for j in (37, 38, 39)}
        assert array_radii(points, 12, 1e-14) == want

    def test_batches_of_one(self):
        for z in (BULK, I_PT, Point(-0.5, 0.3), Point(2.5, 0.07)):
            for k in (12, 1200):
                assert array_radii([z], k, 0.5e-9) == scalar_radii([z], k, 0.5e-9)

    @pytest.mark.parametrize("k", [12, 1200])
    def test_a_point_too_low_to_represent(self, k):
        # at 0.1+1e-310i the ring count pi Q / y overflows from the first
        # ring on, so no bound is representable
        low = Point(0.1, 1e-310)
        assert "not representable" in scalar_error(low, k, 0.5e-9)
        for points in ([low], [BULK, low, I_PT], [low, BULK]):
            want = scalar_radii(points, k, 0.5e-9)
            assert want[points.index(low)] is None
            assert array_radii(points, k, 0.5e-9) == want

    def test_each_failure_is_marked(self):
        # 0.1+1e300i at k 12 is out of reach with a finite tail, 0.1+1e-300i
        # not representable (its rings do not close within _MAX_RINGS): each reads nan in a batch, and the other
        # points of the batch keep their radii
        high, low = Point(0.1, 1e300), Point(0.1, 1e-300)
        assert "not reachable" in scalar_error(high, 12, 0.5e-9)
        for points in ([BULK, high, low], [low, high], [high, BULK, low],
                       [BULK, high, I_PT]):
            want = scalar_radii(points, 12, 0.5e-9)
            assert want.count(None) == len({high, low} & set(points))
            assert array_radii(points, 12, 0.5e-9) == want

    @pytest.mark.parametrize("y", [1e300, 1e305, 2e307, 3e307, 1.7e308])
    @pytest.mark.parametrize("k", [12, 48, 1200, 1600])
    def test_great_heights(self, y, k):
        # on the diagonal s is Q exactly at every height, though y Q
        # overflows from 1.1e307 up.  At k 1200 and 1600 the radius is
        # reached at every height: R0 is 8 or 16, and 32 at 1.7e308, where
        # y + y/Q overflows at Q = 8 and 16 and those rings read inf.  A
        # batch must give each point its own steps beside a bulk point or
        # -0.2+1e300i, whose rings run with its own
        z = Point(0.1, y)
        for points in ([z], [BULK, z], [z, BULK], [Point(-0.2, 1e300), z]):
            want = scalar_radii(points, k, 0.5e-9)
            assert array_radii(points, k, 0.5e-9) == want
            if k >= 1200:
                assert want[points.index(z)] is not None


class TestLatticeTailAudit:
    # the lattice tail of _lattice_radius must bound the cosets beyond R0,
    # each by the weight bound of the tail's derivation, and its R0 must be
    # no larger than the dyadic-ring bound's (radius_oracle)

    def test_the_tail_bounds_the_cosets_beyond_R0(self):
        # 64 seeded pairs, k 4, 12, 24 and 60, half on the diagonal, y in
        # [0.87, 3], tol 1e-14 to 1e-6, and at k 4 on the diagonal the
        # weight-4 sum's budget, 5% of max(24, 2 pi y); the cosets up to
        # 64 R0 weigh at most the tail
        gen = rng(24)
        checked = 0
        for i in range(64):
            k = (4, 12, 24, 60)[i % 4]
            z = Point(float(gen.uniform(-0.5, 0.5)), float(gen.uniform(0.87, 3.0)))
            w = (z if i % 8 < 4 else
                 Point(float(gen.uniform(-0.5, 0.5)), float(gen.uniform(0.87, 3.0))))
            tol = 10.0 ** gen.uniform(-14.0, -6.0)
            if i % 8 == 0:
                tol = 0.05 * max(24.0, 2.0 * math.pi * z.y)
            try:
                R0, tail = kernel._lattice_radius(z, w, k, tol)
            except CutoffExceeded:
                assert dyadic_radius(z, w, k, tol) == math.inf
                continue
            assert R0 <= dyadic_radius(z, w, k, tol), (z, w, k, tol)
            _, _, Q, _ = coset_arrays(*np.array([[z.x], [z.y], [64.0 * R0]]))
            Q = Q[Q > R0]
            s = w.y * Q / z.y
            g_max = np.exp(-0.5 * k * np.log((s + 1.0) ** 2 / (4.0 * s)))
            weights = g_max * (2.0 + kernel._profile_constant(k) * (w.y + z.y / Q))
            assert math.fsum(weights.tolist()) <= tail, (z, w, k, tol)
            checked += 1
        assert checked >= 40


def exact_sum(values):
    """kernel._exact_sums of one row, fed a _CHUNK of values at a time."""
    a = np.asarray(values, dtype=np.float64)
    step = kernel._CHUNK
    chunks = (a[None, s:s + step] for s in range(0, len(a), step))
    return kernel._exact_sums(chunks, 1)[0]


def same_float(a, b):
    """a and b are the same double: equal with the same sign, or both nan."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def random_doubles(gen, n, top=1000):
    """n doubles of random sign, fraction and biased exponent from 0 (the
    subnormals) to that of 2^top; below 2^1001, a million of them cannot
    overflow a partial sum."""
    bits = (gen.integers(0, 1 << 52, n, dtype=np.int64)
            | gen.integers(0, 1024 + top, n, dtype=np.int64) << 52
            | gen.integers(0, 2, n, dtype=np.int64) << 63)
    return bits.view(np.float64)


def one_line_stage(z, k, tol):
    """(rows, counts) of the scalar coset loop of bergman_R(z, z) at k."""
    R0, tail = kernel._lattice_radius(z, z, k, tol)
    cosets = coset_table(z, R0)
    rows, counts, _ = scalar_lines(
        cosets, z, z, k, 0.25 * tol / len(cosets), tail)
    return rows, counts


def first_terms(counts, n):
    """The counts of a line stage cut to its first n > 0 terms."""
    last = np.cumsum(counts)
    i = int(np.searchsorted(last, n))  # the segment of term n - 1
    return [*counts[:i], counts[i] - int(last[i] - n)]


class TestExactSum:
    # _exact_sums must give math.fsum's bits, the sign of zero included
    CHUNK = kernel._CHUNK

    @pytest.mark.parametrize("seed", range(6))
    def test_random_doubles_over_the_exponent_range(self, seed):
        gen = rng(seed)
        for n in (1, 2, 7, 1000, 70_000):
            a = random_doubles(gen, n)
            assert same_float(exact_sum(a), math.fsum(a.tolist()))
            # the small ones alone, subnormals among them, sum near 2^-1022
            tiny = random_doubles(gen, n, top=-1020)
            assert same_float(exact_sum(tiny), math.fsum(tiny.tolist()))

    def test_exact_cancellation(self):
        gen = rng(3)
        a = random_doubles(gen, 50_000)
        tiny = random_doubles(gen, 10, top=-1022)
        both = np.concatenate([a, -a])
        gen.shuffle(both)
        assert same_float(exact_sum(both), 0.0)
        with_tiny = np.concatenate([both, tiny])
        gen.shuffle(with_tiny)
        assert exact_sum(with_tiny) == math.fsum(tiny.tolist()) != 0.0
        # a sum whose double is a midpoint: half-even rounding
        for a in ([1.0, 2.0 ** -53], [1.0, 2.0 ** -53, 2.0 ** -106],
                  [1.0 + 2.0 ** -52, 2.0 ** -53], [2.0 ** 1000, -5e-324]):
            assert same_float(exact_sum(a), math.fsum(a))

    @pytest.mark.parametrize("n", [0, 1, 5, CHUNK + 1])
    def test_zeros(self, n):
        for zero in (0.0, -0.0):
            assert same_float(exact_sum([zero] * n), math.fsum([zero] * n))
        mixed = [-0.0] * n + [0.0]
        assert same_float(exact_sum(mixed), math.fsum(mixed))

    def test_non_finite_values(self):
        for a in ([math.inf, 1.0], [-math.inf, 2.0 ** 1000], [math.nan, 1.0],
                  [math.inf, math.nan], [1.0] * (self.CHUNK + 3) + [-math.inf]):
            assert same_float(exact_sum(a), math.fsum(a))
        with pytest.raises(ValueError):
            math.fsum([math.inf, -math.inf])
        with pytest.raises(ValueError):
            exact_sum([math.inf, -math.inf])

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_lengths_about_a_chunk(self, n):
        a = random_doubles(rng(n), n)
        assert same_float(exact_sum(a), math.fsum(a.tolist()))

    def test_term_passes_of_either_sum(self, monkeypatch):
        # the first n terms of a line stage of 68k terms in 15k segments,
        # either side of the crossover and of a chunk's end, summed exactly
        # in numpy (crossover 1) and by fsum (crossover inf)
        rows, counts = one_line_stage(BULK, 8, 1e-9)
        ends = [kernel.EXACT_SUM_MIN_TERMS - 1, kernel.EXACT_SUM_MIN_TERMS,
                self.CHUNK - 1, self.CHUNK, self.CHUNK + 1, sum(counts)]
        sums = []
        for crossover in (1, math.inf):
            monkeypatch.setattr(kernel, "EXACT_SUM_MIN_TERMS", crossover)
            sums.append([kernel._term_sums(rows, first_terms(counts, n), 8)
                         for n in ends])
        assert sums[0] == sums[1]

    @pytest.mark.parametrize("z, w, tol", [
        (Point(0.2, 4672.0), None, 1e-12),
        (BULK, None, 1e-14),
        (Point(0.16, 0.08), None, 1e-9),
        (BULK, Point(-0.21, 0.9), 1e-12),
    ])
    def test_kernel_values_do_not_depend_on_the_crossover(self, monkeypatch,
                                                          z, w, tol):
        cfg = WeightConfig(12, tol)
        got = []
        for crossover in (1, math.inf):
            monkeypatch.setattr(kernel, "EXACT_SUM_MIN_TERMS", crossover)
            got.append(bergman_R(z, w or z, cfg))
        assert repr(got[0]) == repr(got[1])


class TestGoldenRegimes:
    # repr of each result, recorded before the terms of a sum were
    # evaluated in one array pass: the direct sum at a low point with 65k
    # cosets and on a single c = 0 line of 213k terms, an off-diagonal
    # pair, and the weight-4 off-identity sum behind residual_certificate
    # at three points of F_delta; then bergman_R at the same two points,
    # where it reduces the low point and sums the line by Lipschitz
    CASES = {
        "low": lambda: direct(Point(0.1, 0.12), WeightConfig(12, 1e-12)),
        "line_3000i": lambda: direct(Point(0.0, 3000.0), WeightConfig(12)),
        "offdiag": lambda: bergman_R(
            Point(0.13, 1.1), Point(-0.21, 0.9), WeightConfig(24, 1e-12)),
        "low_reduced": lambda: bergman_R(
            Point(0.1, 0.12), Point(0.1, 0.12), WeightConfig(12, 1e-12)),
        "line_3000i_lipschitz": lambda: bergman_R(
            Point(0.0, 3000.0), Point(0.0, 3000.0), WeightConfig(12)),
    }
    for i, z in enumerate([Point(0.13, 1.1), Point(-0.31, 1.45), Point(0.42, 2.3)]):
        CASES[f"offdiagonal_sum_bound_{i}"] = lambda z=z: offdiagonal_sum_bound(z)
        for k in (200, 1600):
            CASES[f"residual_certificate_{i}_{k}"] = \
                lambda z=z, k=k: residual_certificate(z, k)
    del i, z, k

    @pytest.mark.parametrize("name", list(CASES))
    def test_bit_identical(self, name):
        want = dict(line.split(" ", 1) for line in GOLDEN.read_text().splitlines())
        assert repr(self.CASES[name]()) == want[name]


def identity_line(y, k, tol):
    """The identity coset's line of the diagonal half sum at height y by
    the direct window of the scalar coset loop, at the line budget tol / 4
    of a one-coset table: (sum, tail, terms)."""
    z = Point(0.0, y)
    rows, counts, tail = scalar_lines([(0, 1, 1.0)], z, z, k, 0.25 * tol, 0.0)
    n = sum(counts)
    return kernel._term_sums(rows, counts, k), tail + n * 5e-324, n


def r12_oracle(z):
    """R_12(z, z) = (8 pi / 11) y^12 |Delta(z)|^2 / <Delta, Delta> from the
    q-expansion and the Petersson formula, which share no code with the
    kernel."""
    norm = oracle.petersson_norm_delta(1e-10)
    with mp.workdps(30):
        r = (8 * mp.pi / 11 * mp.mpf(z.y) ** 12
             * abs(oracle.eval_delta_mp(z)) ** 2 / mp.mpf(norm.value))
        return float(r)


class TestDiagonalRoutes:
    # on the diagonal, bergman_R reduces a point whose table is large or out
    # of reach, and sums a line that holds the whole table by Lipschitz's
    # series where that is the shorter; both must agree with the direct sum

    @pytest.mark.parametrize("k", [12, 24, 48])
    def test_low_points_against_the_direct_sum(self, k):
        gen = rng(k)
        cfg = WeightConfig(k, 1e-10)
        for _ in range(3):
            z = Point(float(gen.uniform(-0.5, 0.5)), float(gen.uniform(0.06, 0.14)))
            res, want = bergman_R(z, z, cfg), direct(z, cfg)
            assert res.cosets_used < want.cosets_used  # taken at the reduction
            assert abs(res.value - want.value) <= res.tail_bound + want.tail_bound

    @pytest.mark.parametrize("k", [12, 1200])
    def test_low_points_against_an_mpmath_reduction(self, k):
        # the value at a low point is the one at its exact image: the float
        # reduction's images were off by |dR| up to 0.14 at Im z = 1e-15,
        # far outside tails of about 1.4e-10
        gen = random.Random(7)
        cfg = WeightConfig(k)
        for e in range(5, 16):
            for _ in range(4):
                z = Point(gen.uniform(-0.5, 0.5),
                          gen.uniform(1.0, 10.0) * 10.0 ** -e)
                img = Point(*map(float, mp_reduction(z)))
                res, want = bergman_R(z, z, cfg), bergman_R(img, img, cfg)
                gap = abs(res.value - want.value)
                assert gap <= res.tail_bound + want.tail_bound

    @pytest.mark.parametrize("k", [12, 24, 48, 400])
    def test_lipschitz_against_the_direct_line(self, k):
        # y 3-60 at tol 1e-13, where both are sharp; each line is summed to
        # within its tail, and each takes rounding of a few k eps relative
        # (measured up to 5 k eps): the series from logarithms of size up to
        # k log(4 pi y), the direct window from its terms' phases
        eps = 2.0 ** -52
        for y in np.geomspace(3.0, 60.0, 12).tolist():
            want, tail, _ = identity_line(y, k, 1e-13)
            got, lip_tail, _, cosets = kernel._lipschitz_line(y, k, 1e-13, 0.0)
            assert cosets == 1
            allowance = 8 * k * eps * max(1.0, abs(want))
            assert abs(got - want) <= tail + lip_tail + allowance

    @pytest.mark.parametrize("y", [0.05, 20.0, 3000.0, 1e5])
    def test_weight_12_against_the_oracle(self, y):
        # 0.05i is S(20i), and R_12(z, z) is invariant under S; the
        # q-series converges at 20i, not at 0.05i
        res = bergman_R(Point(0.0, y), Point(0.0, y), WeightConfig(12))
        want = r12_oracle(Point(0.0, max(y, 1.0 / y)))
        assert res.tail_bound <= 1e-9
        assert abs(res.value - want) <= res.tail_bound

    def test_batch_is_bergman_R_on_every_route(self):
        # at k 24: small tables (0.7 <= y <= 1.1), low points that reduce
        # and lines summed by Lipschitz (y >= 7.5), 0.1+1e-12i among them, which
        # reduces to a line at 1e10; at k 1200 also 0.1+4i, whose table
        # holds the identity coset alone but whose direct window is the
        # shorter.  0+5e-324i, whose image is above the largest float,
        # raises in a batch what bergman_R raises there
        cfg = WeightConfig(24, 1e-10)
        points = [Point(0.13, 1.1), Point(-0.4, 0.7), Point(0.3, 0.05),
                  Point(2.2, 0.11), Point(0.0, 12.0), Point(-0.3, 250.0),
                  Point(0.25, 7.5), Point(0.1, 0.3), Point(0.1, 1e-12)]
        routes = {"reduced": 0, "lipschitz": 0}
        for p in points:
            res = bergman_R(p, p, cfg)
            routes["reduced"] += p.y < 0.5
            routes["lipschitz"] += res.terms_used <= 2 and res.cosets_used == 1
        assert routes == {"reduced": 4, "lipschitz": 4}
        for k, batch in ((24, points), (1200, [Point(0.1, 4.0), *points])):
            k_cfg = WeightConfig(k, 1e-10)
            x, y = np.array([[p.x, p.y] for p in batch]).T
            values, tails = kernel.bergman_R_diagonal(x, y, k_cfg)
            want = [bergman_R(p, p, k_cfg) for p in batch]
            assert repr(values.tolist()) == repr([r.value for r in want])
            assert repr(tails.tolist()) == repr([r.tail_bound for r in want])
        lost = Point(0.0, 5e-324)
        with pytest.raises(CutoffExceeded) as one:
            bergman_R(lost, lost, cfg)
        x, y = np.array([[p.x, p.y] for p in [*points, lost]]).T
        with pytest.raises(CutoffExceeded) as batch:
            kernel.bergman_R_diagonal(x, y, cfg)
        assert "above the largest float" in str(one.value)
        assert (str(batch.value), batch.value.best_tail_bound) == (
            str(one.value), math.inf)


class TestMainTerm:
    def test_diagonal_is_two(self):
        for z in (I_PT, BULK, Point(-0.3, 0.62)):
            val = 2 * b_term(GammaMatrix.identity(), z, z) ** 48
            np.testing.assert_allclose((val.real, val.imag), (2.0, 0.0), atol=1e-13)

    def test_example_i_2i(self):
        val = 2 * b_term(GammaMatrix.identity(), Point(0, 1), Point(0, 2)) ** 12
        np.testing.assert_allclose(val.real, 2.0 * (8.0 / 9.0) ** 6, rtol=1e-12)
        assert abs(val.imag) < 1e-12

    def test_magnitude_identity(self):
        # |main/2|^(2/k) = (1 + u(z, w))^{-1}
        gen = rng(31)
        k = 36
        for _ in range(100):
            z, w = random_point(gen), random_point(gen)
            val = 2 * b_term(GammaMatrix.identity(), z, w) ** k
            lhs = abs(val / 2.0) ** (2.0 / k)
            rhs = 1.0 / (1.0 + pair_invariant(z, w))
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


# The paper's elliptic-neighborhood prediction, kept here as a test oracle
# for the kernel: near an elliptic point the kernel is the main term 2 plus
# the non-central stabilizer terms.

def stabilizer_elements(e):
    """The non-central stabilizer elements of an elliptic point."""
    order = e.stabilizer_order
    out = []
    g = e.generator
    acc = g
    for j in range(1, order):
        if 2 * j != order:  # skip the power equal to -I
            out.append(acc)
        acc = acc * g
    return out


def elliptic_correction(z, e, k):
    """Extra kernel mass near an elliptic point: the non-central stabilizer
    terms sum_{g in Stab \\ {+/-I}} t_g(z, z)^k."""
    if k % 2 != 0:
        raise ValueError("weight must be even")
    total = 0.0 + 0.0j
    for g in stabilizer_elements(e):
        total += b_term(g, z, z) ** k
    return total


def asymptotic_residual(z, cfg, Y):
    """Measured deviation of R_k(z,z) from its squeezed-weight prediction,
    together with the analytic bound exp(-delta^2 k/(128 Y^2)) + y exp(-k/(17 y^2)),
    where delta = cfg.delta_for(Y).

    The prediction is the main term 2 plus the stabilizer corrections of
    every elliptic point of the strip within delta of z (far corrections are
    exponentially negligible, so overlapping neighborhoods are harmless).
    """
    delta = cfg.delta_for(Y)
    pred = 2.0 + 0.0j
    for e in elliptic_points_in_strip(Y):
        if hyp_distance(z, e.location) <= delta:
            pred += elliptic_correction(z, e, cfg.k)
    res = bergman_R(z, z, cfg)
    measured = abs(res.value - pred)
    y = z.y
    bound = math.exp(-delta * delta * cfg.k / (128.0 * Y ** 2)) + y * math.exp(
        -cfg.k / (17.0 * y * y)
    )
    return measured, bound


class TestEllipticCorrection:
    def _point_i(self):
        return next(e for e in elliptic_points_in_strip(1)
                    if abs(e.location.x) < 1e-9)

    def test_at_i_mod_four(self):
        e = self._point_i()
        val = elliptic_correction(I_PT, e, 400)
        np.testing.assert_allclose((val.real, val.imag), (2.0, 0.0), atol=1e-10)
        val = elliptic_correction(I_PT, e, 402)
        np.testing.assert_allclose((val.real, val.imag), (-2.0, 0.0), atol=1e-10)

    def test_near_i_matches_kernel(self):
        e = self._point_i()
        z = Point(0.02, 1.0)
        k = 400
        corr = elliptic_correction(z, e, k)
        res = bergman_R(z, z, WeightConfig(k, 1e-14))
        # residual of the corrected prediction is under the analytic bound
        Y = 7.0
        cfg = WeightConfig(k, 1e-14)
        delta = cfg.delta_for(Y)
        bound = math.exp(-delta**2 * k / (128 * Y**2)) + z.y * math.exp(
            -k / (17 * z.y**2)
        )
        assert abs(res.value - 2.0 - corr) < bound

    def test_order_six_element_count(self):
        e6 = next(e for e in elliptic_points_in_strip(1) if e.stabilizer_order == 6)
        assert len(stabilizer_elements(e6)) == 4
        e4 = self._point_i()
        assert len(stabilizer_elements(e4)) == 2


class TestAsymptoticResidual:
    def test_bulk_sweep_under_paper_bound(self):
        for k in (200, 400, 800, 1600):
            cfg = WeightConfig(k, 1e-12)
            res, bound = asymptotic_residual(BULK, cfg, 7.0)
            assert res <= bound

    def test_high_point_regime(self):
        # the analytic bound y e^{-k/(17 y^2)} controls R - (main term 2);
        # R itself tends to 2 here, not to 0
        z = Point(0.0, 3.0)
        for k in (400, 800):
            res = bergman_R(z, z, WeightConfig(k, 1e-12))
            assert abs(res.value - 2.0) <= z.y * math.exp(-k / (17.0 * z.y**2))

    def test_exact_elliptic_center(self):
        cfg = WeightConfig(400, 1e-12)
        res, _bound = asymptotic_residual(I_PT, cfg, 7.0)
        assert res < 1e-9


class TestResidualCertificate:
    def test_bulk_certificate(self):
        for k in (200, 400, 800, 1600):
            cert = residual_certificate(BULK, k)
            res = bergman_R(BULK, BULK, WeightConfig(k, 1e-12))
            assert abs(res.value - 2.0) <= cert
        assert residual_certificate(BULK, 1600) < 1e-3

    def test_certificate_at_large_height(self):
        # the weight-4 sum is about 2 pi y here, the first guess; a
        # tolerance of 5% of it keeps the lattice tail certifiable within
        # the coset cap
        z = Point(-0.007, 200.8)
        cert = residual_certificate(z, 200)
        res = bergman_R(z, z, WeightConfig(200, 1e-12))
        assert math.isfinite(cert)
        assert cert >= abs(res.value - 2.0) - res.tail_bound

    def test_certificate_at_low_point(self):
        # both sums behind the certificate are taken at the reduced point
        # 1/0.3 i, where the weight-4 lattice sum certifies quickly
        z = Point(0.0, 0.3)
        cert = residual_certificate(z, 200)
        res = bergman_R(z, z, WeightConfig(200, 1e-12))
        assert math.isfinite(cert)
        assert cert >= abs(res.value - 2.0) - res.tail_bound

    @pytest.mark.parametrize("y", [1e-12, 1e-50, 1e-155, 1e-200])
    def test_a_point_too_low_to_reduce_is_a_cutoff(self, y):
        # each point reduces to an image at height 1e10 or more, 0.1+1e-50i
        # to 0.4999999999999999+7.7037e16i, whose weight-4 sum is in closed
        # form: the certificate is finite and holds at the image.  At 1e-50
        # a float reduction once returned a point far below the domain,
        # whose displacement search ran for minutes: an alarm turns a hang
        # into a failure
        def hung(signum, frame):
            raise TimeoutError(f"no answer at Im z = {y} within 2 s")

        old = signal.signal(signal.SIGALRM, hung)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            cert = residual_certificate(Point(0.1, y), 200)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
        img = reduce_to_domain(Point(0.1, y))
        res = bergman_R(img, img, WeightConfig(200, 1e-12))
        assert math.isfinite(cert)
        assert cert >= abs(res.value - 2.0) - res.tail_bound

    @pytest.mark.parametrize("z", [Point(0.3, 0.05), Point(0.21, 0.02),
                                   Point(-0.4, 0.003), Point(2.2, 0.11)])
    def test_the_weight_4_sum_is_taken_at_the_reduction(self, z):
        # the sum is invariant under z -> hz; below the domain, where its
        # lattice sum took 1.3 s at 0.3+0.05i and was out of reach at
        # 0.21+0.02i, it is the sum at the image, bit for bit
        img = reduce_to_domain(z)
        assert offdiagonal_sum_bound(z) == offdiagonal_sum_bound(img)

    def test_the_line_sum_against_mpmath(self):
        # the closed form of b^4 sum_m ((m + x)^2 + b^2)^-2 against
        # mpmath's Euler-Maclaurin sum of the line at 30 digits, from the
        # lowest b of the domain, sqrt(3)/2, to 1e3
        gen = rng(4)
        x = np.concatenate(([0.0, 0.5], gen.uniform(-2.1, 2.1, 14)))
        b = np.concatenate(([0.86, 1e3], np.exp(gen.uniform(
            math.log(0.86), math.log(1e3), 14))))
        got = kernel._weight_4_lines(x, b)
        with mp.workdps(30):
            for xi, bi, g in zip(x.tolist(), b.tolist(), got.tolist()):
                xm, bm = mp.mpf(xi), mp.mpf(bi)
                want = mp.nsum(lambda m: bm ** 4 / ((m + xm) ** 2 + bm ** 2) ** 2,
                               [-mp.inf, mp.inf], method="e")
                assert abs(g / want - 1) <= 1e-14, (xi, bi)

    @pytest.mark.parametrize("z", [
        Point(0.13, 1.1), Point(-0.31, 1.45), Point(0.42, 2.3),
        # the centres of the benchmark's four region disks at seed 1
        Point(0.042511, 1.735725), Point(0.222178, 1.537618),
        Point(-0.212539, 1.541507), Point(0.253284, 1.497607)])
    def test_the_bound_against_the_sum_over_100_times_its_radius(self, z):
        # the weight-4 sum over every coset with |cz+d|^2 <= 100 R0, from
        # the scalar coset table and the hyperbolic form of the line's
        # closed form, -(1/2b) d/db of (pi/b) sinh 2 pi b/(cosh 2 pi b -
        # cos 2 pi x): it is below the sum, so below the bound, and the
        # bound is at most 5% above it
        y = z.y
        R0, _ = kernel._lattice_radius(z, z, 4, 0.05 * max(24.0, 2 * math.pi * y))
        lines = []
        for c, d, Q in coset_table(z, 100.0 * R0):
            v = y / Q
            x = (0.0 if c == 0
                 else modgroup.solve_top_row(c, d)[0] / c - (c * z.x + d) / (c * Q)
                 - z.x)
            b = y + v
            sh, ch = math.sinh(2 * math.pi * b), math.cosh(2 * math.pi * b)
            cs = math.cos(2 * math.pi * x)
            lines.append((4.0 * y * v) ** 2 * (
                math.pi / (2 * b ** 3) * sh / (ch - cs)
                + (math.pi / b) ** 2 * (ch * cs - 1.0) / (ch - cs) ** 2))
        partial = 2.0 * (math.fsum(lines) - 1.0)
        bound = offdiagonal_sum_bound(z)
        assert partial <= bound <= 1.05 * partial

    def test_a_point_at_height_1e6(self):
        # the c = 0 line alone is 2 pi y - 2 over g != +/-I; a window of
        # its terms would hold millions of them
        z = Point(0.1, 1e6)
        bound = offdiagonal_sum_bound(z)
        assert 2.0 * math.pi * z.y - 2.0 <= bound <= 1.05 * 2.0 * math.pi * z.y

    def test_offdiagonal_bound_is_upper(self):
        # oracle: partial sum over small matrices can never exceed the bound
        bound = offdiagonal_sum_bound(BULK)
        partial = 0.0
        for g in brute_force_sl2(5):
            if g.entries() in {(1, 0, 0, 1), (-1, 0, 0, -1)}:
                continue
            u = pair_invariant(BULK, moebius_apply(g, BULK))
            partial += (1.0 + u) ** -2
        assert partial <= bound


class TestWeightConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightConfig(13, 1e-9)
        with pytest.raises(ValueError):
            WeightConfig(2, 1e-9)
        with pytest.raises(ValueError):
            WeightConfig(12, -1.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_rejects_non_finite(self, tol):
        with pytest.raises(ValueError):
            WeightConfig(12, tol)

    def test_delta_formula(self):
        cfg = WeightConfig(1200, 1e-9)
        want = math.sqrt(256.0) * 7.0 * math.sqrt(math.log(1200) / 1200)
        np.testing.assert_allclose(cfg.delta_for(7.0), want, rtol=1e-15)

    def test_support_top(self):
        cfg = WeightConfig(1200, 1e-9)
        want = math.sqrt(1200 / (17 * 2.0 * math.log(1200)))
        np.testing.assert_allclose(cfg.support_top(), want, rtol=1e-15)
