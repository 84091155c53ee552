"""Tests for the certified kernel evaluation and its analytic contracts."""

import math
import signal
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
from cuspkernel import kernel, modgroup
from cuspkernel.kernel import offdiagonal_sum_bound
from cuspkernel.modgroup import coset_arrays, coset_table, elliptic_points_in_strip

from test_modgroup import brute_force_sl2
from test_halfplane import random_gamma, random_point

I_PT = Point(0.0, 1.0)
BULK = Point(0.13, 1.1)
# the weights of acceptance criterion 3
SWEEP = (200, 400, 800, 1600)
GOLDEN = Path(__file__).resolve().parent / "golden" / "kernel_regimes.txt"


def rng(seed=20250809):
    return np.random.Generator(np.random.Philox(seed))


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
        assert len(coset_arrays(z, 8.0)[0]) == n
        monkeypatch.setattr(modgroup, "MAX_COSETS", n - 1)
        with pytest.raises(CutoffExceeded):
            coset_table(z, 8.0)
        with pytest.raises(CutoffExceeded):
            coset_arrays(z, 8.0)
        with pytest.raises(CutoffExceeded):
            bergman_R(z, z, WeightConfig(1200))

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
        a = bergman_R(z_low, z_low, cfg)
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
        # below Im z of about 1e-154 the lattice-point count overflows or
        # the shortest vector underflows; both end in CutoffExceeded
        z = Point(0.1, y)
        for k in (12, 1200):
            with pytest.raises(CutoffExceeded) as exc:
                bergman_R(z, z, WeightConfig(k))
            assert exc.value.best_tail_bound == math.inf
        with pytest.raises(CutoffExceeded):
            offdiagonal_sum_bound(z)

    @pytest.mark.parametrize("y", [1e78, 1e155, 1e300])
    def test_very_high_point_returns_or_cuts_off(self, y):
        # squares such as (c y)^2 and (Q - 1)^2 overflow up here; each entry
        # point must still return a finite value or raise CutoffExceeded
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
        g, d = modgroup.min_displacement(z)
        assert g.c == 0 and abs(g.b) == 1
        if y < 1e150:
            assert d == pytest.approx(2.0 * math.asinh(0.5 / y), rel=1e-12)

    def test_term_pass_memory_per_term(self):
        # the terms are evaluated in one array pass and summed through a
        # memoryview, without a list of one Python float (32 bytes) per term
        z = Point(0.0, 3000.0)
        cfg = WeightConfig(12)
        bergman_R(z, z, cfg)
        tracemalloc.start()
        try:
            res = bergman_R(z, z, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.terms_used == 213018
        assert peak < 64 * res.terms_used

    def test_array_stage_memory_per_coset(self):
        # 97k cosets and 16k terms: the peak is the array coset loop's, a
        # few float64 columns of the table and one list of Python floats
        # at a time for libm (about 190 bytes a coset)
        z = Point(0.159202, 0.080638)
        cfg = WeightConfig(12, 1e-12)
        bergman_R(z, z, cfg)
        tracemalloc.start()
        try:
            res = bergman_R(z, z, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.cosets_used == 97033
        assert peak < 224 * res.cosets_used

    def test_periodic_in_each_argument(self):
        cfg = WeightConfig(24, 1e-12)
        z, w = Point(0.21, 0.9), Point(-0.33, 1.3)
        base = bergman_R(z, w, cfg)
        for m, n in ((1, 0), (0, 1), (-1, 2), (3, -1)):
            res = bergman_R(Point(z.x + m, z.y), Point(w.x + n, w.y), cfg)
            assert abs(res.value - base.value) <= 1e-14 * abs(base.value)


def one_pair_array_lines(cosets, z, w, k, tol_line, tail, offdiagonal):
    """_array_lines on the table of one pair, in _scalar_lines's terms."""
    c, d, Q = cosets
    rows, counts, [tail], _ = kernel._array_lines(
        (c, d, Q, np.zeros(len(c), np.int64)), [z], [w], k, [tol_line], [tail],
        offdiagonal)
    return rows, counts, tail


def both_line_stages(z, w, k, tol, offdiagonal=False, max_cosets=None):
    """The scalar and the array coset loop, each called directly on its own
    table of the radius _sum_terms picks: per stage, the repr of
    (rows, counts, tail), or of the CutoffExceeded it raised.  None for a
    table of more than max_cosets."""
    R0, tail = kernel._lattice_radius(z, w, k, tol)
    table = coset_table(z, R0)
    if max_cosets is not None and len(table) > max_cosets:
        return None
    tol_line = 0.25 * tol / len(table)
    out = []
    for stage, cosets in ((kernel._scalar_lines, table),
                          (one_pair_array_lines, coset_arrays(z, R0))):
        try:
            rows, counts, t = stage(cosets, z, w, k, tol_line, tail,
                                    offdiagonal)
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
    # _array_lines must reproduce _scalar_lines bit for bit: the rows it
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
            offdiagonal = bool(gen.uniform() < 0.3)
            try:
                # tables past 5000 cosets are skipped for time; the low
                # points below have 20k-100k
                out = both_line_stages(z, w, k, tol, offdiagonal, 5000)
            except CutoffExceeded:
                continue  # the lattice radius is out of reach: no table
            if out is not None:
                assert_same(*out, (z, w, k, tol, offdiagonal))
                cases += 1

    @pytest.mark.parametrize("z", [Point(0.159202, 0.080638),
                                   Point(-0.301377, 0.121047),
                                   Point(0.420853, 0.181562),
                                   Point(-0.072304, 0.273911)])
    def test_low_points(self, z):
        # the benchmark's low points at k 12, tol 1e-12 (half of it per
        # +/- representative, as bergman_R asks _sum_terms)
        R0, _ = kernel._lattice_radius(z, z, 12, 0.5e-12)
        assert len(coset_table(z, R0)) > 20000
        assert_same(*both_line_stages(z, z, 12, 0.5e-12))

    def test_a_line_past_the_term_cap(self, monkeypatch):
        # at 0.1+0.3i the identity line is shorter than the longest c >= 1
        # line; a cap between the two stops the sum in the array part
        z = Point(0.1, 0.3)
        R0, tail = kernel._lattice_radius(z, z, 12, 1e-12)
        table = coset_table(z, R0)
        _, counts, _ = kernel._scalar_lines(table, z, z, 12, 0.25e-12 / len(table),
                                            tail, False)
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
        kernel._scalar_lines([(0, 1, 1.0)], z, z, 12, tol_line, tail, False)
        scalar, array = both_line_stages(z, z, 12, 1e-12)
        assert "failed to converge" in scalar
        assert_same(scalar, array)


class TestGoldenRegimes:
    # repr of each result, recorded before the terms of a sum were
    # evaluated in one array pass: a low point with 65k cosets, a single
    # c = 0 line of 213k terms, an off-diagonal pair, and the weight-4
    # off-identity sum behind residual_certificate at three points of F_delta
    CASES = {
        "low": lambda: bergman_R(
            Point(0.1, 0.12), Point(0.1, 0.12), WeightConfig(12, 1e-12)),
        "line_3000i": lambda: bergman_R(
            Point(0.0, 3000.0), Point(0.0, 3000.0), WeightConfig(12)),
        "offdiag": lambda: bergman_R(
            Point(0.13, 1.1), Point(-0.21, 0.9), WeightConfig(24, 1e-12)),
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
        # the weight-4 sum is about pi*y here; a first tolerance of 5% of
        # y/2 keeps its lattice tail certifiable within the coset cap
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

    @staticmethod
    def cold(z, k):
        kernel._weight_free_sums.cache_clear()
        return residual_certificate(z, k)

    def test_kept_sums_give_the_cold_bits(self):
        # the k-free sums of the last point are kept: a sweep over k, points
        # interleaved, and images of one point must each give the bits of a
        # call that starts with nothing kept
        z = Point(0.21, 1.22)
        gz = moebius_apply(GammaMatrix(2, 1, 5, 3), z)
        calls = [(p, k) for p in (z, Point(0.0, 1.3), Point(-0.0, 1.3))
                 for k in SWEEP]
        calls += [(p, k) for k in SWEEP
                  for p in (z, gz, Point(z.x + 1.0, z.y), Point(0.0, 0.3))]
        want = [self.cold(p, k) for p, k in calls]
        kernel._weight_free_sums.cache_clear()
        assert [residual_certificate(p, k) for p, k in calls] == want

    def test_a_sweep_sums_once_per_point(self, monkeypatch):
        summed = []

        def counted(z):
            summed.append(z)
            return offdiagonal_sum_bound(z)

        monkeypatch.setattr(kernel, "offdiagonal_sum_bound", counted)
        kernel._weight_free_sums.cache_clear()
        points = [BULK, Point(-0.31, 1.45), BULK]
        for z in points:
            for k in SWEEP:
                residual_certificate(z, k)
        assert summed == points

    def test_a_cutoff_is_not_kept(self, monkeypatch):
        # a weight-4 sum that cuts off raises at every weight of the sweep
        # and leaves nothing behind
        monkeypatch.setattr(kernel, "_MAX_LINE_TERMS", 4)
        kernel._weight_free_sums.cache_clear()
        for k in SWEEP:
            with pytest.raises(CutoffExceeded, match="m-line window"):
                residual_certificate(BULK, k)
        assert kernel._weight_free_sums.cache_info().currsize == 0

    @pytest.mark.parametrize("y", [1e-12, 1e-50, 1e-155, 1e-200])
    def test_a_point_too_low_to_reduce_is_a_cutoff(self, y):
        # at 1e-50 the reduction once returned a point far below the domain,
        # whose displacement search ran for minutes: an alarm turns a hang
        # into a failure
        def hung(signum, frame):
            raise TimeoutError(f"no answer at Im z = {y} within 2 s")

        old = signal.signal(signal.SIGALRM, hung)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            with pytest.raises(CutoffExceeded):
                residual_certificate(Point(0.1, y), 200)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)

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
