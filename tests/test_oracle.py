"""Tests for the weight-12 q-expansion oracle and its Petersson norm."""

import inspect
import math

import mpmath as mp
import numpy as np
import pytest

from cuspkernel import (
    Point,
    TailTooLarge,
    delta_coeffs,
    eval_delta_mp,
    petersson_norm_delta,
    verify_pretrace,
)
from cuspkernel import oracle as oracle_module
from cuspkernel.oracle import PeterssonNorm

# <Delta, Delta> over the fundamental domain with dx dy / y^2, to 19 digits
NORM_LITERATURE = 1.035362056804320922e-6


def naive_product_coeffs(order):
    """Independent oracle: literally expand q * prod_{n<=order}(1-q^n)^24."""
    poly = [1] + [0] * order
    for n in range(1, order + 1):
        for _ in range(24):
            nxt = poly[:]
            for i in range(order + 1 - n):
                nxt[i + n] -= poly[i]
            poly = nxt
    return poly  # poly[j] is the coefficient of q^j; a(n) = poly[n-1]


def is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


class TestCoefficients:
    def test_first_values_against_naive_expansion(self):
        oracle = naive_product_coeffs(12)
        qexp = delta_coeffs(12)
        for n in range(1, 13):
            assert qexp.a(n) == oracle[n - 1]
        assert qexp.a(1) == 1
        assert qexp.a(2) == -24
        assert qexp.a(6) == qexp.a(2) * qexp.a(3) == -6048

    def test_multiplicativity_on_coprime_pairs(self):
        N = 400
        qexp = delta_coeffs(N)
        pairs = []
        m = 2
        while len(pairs) < 50:
            for n in range(m + 1, N // m + 1):
                if math.gcd(m, n) == 1:
                    pairs.append((m, n))
                    if len(pairs) == 50:
                        break
            m += 1
        assert len(pairs) == 50
        for m, n in pairs:
            assert qexp.a(m * n) == qexp.a(m) * qexp.a(n)

    def test_deligne_bound_screen(self):
        qexp = delta_coeffs(400)
        for p in range(2, 401):
            if is_prime(p):
                assert abs(qexp.a(p)) <= 2.0 * p ** 5.5


class TestEvaluation:
    def test_periodicity(self):
        z = Point(0.37, 1.2)
        a = eval_delta_mp(z)
        b = eval_delta_mp(Point(z.x + 1.0, z.y))
        assert abs(a - b) <= 1e-14 * abs(a)

    def test_inversion_relation_at_2i(self):
        # value at i/2 equals 2^12 times the value at 2i
        lhs = eval_delta_mp(Point(0.0, 0.5))
        rhs = 4096.0 * eval_delta_mp(Point(0.0, 2.0))
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_modularity_residual(self):
        for z in (Point(0.3, 1.2), Point(-0.21, 0.9)):
            zc = z.as_complex
            w = -1.0 / zc
            lhs = eval_delta_mp(Point(w.real, w.imag))
            rhs = zc ** 12 * eval_delta_mp(z)
            assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def fourier_pair_sum(y, x0, coeffs):
    """The x-integral of |sum a_n q^n e^{2 pi i n x}|^2 over x0 <= |x| <= 1/2,
    summed over every ordered pair (m, n) of Fourier terms."""
    total = mp.mpf(0)
    for m, am in enumerate(coeffs, 1):
        for n, an in enumerate(coeffs, 1):
            d = abs(m - n)
            weight = (1 - 2 * x0 if d == 0
                      else -mp.sin(2 * mp.pi * d * x0) / (mp.pi * d))
            total += am * an * mp.e ** (-2 * mp.pi * (m + n) * y) * weight
    return total


class TestXIntegratedSquare:
    # lens heights with x0 on the unit circle, and one height above it
    @pytest.mark.parametrize("y", [0.87, 0.93, 0.99, 1.2])
    def test_matches_direct_quadrature_in_x(self, y):
        with mp.workdps(20):
            x0 = mp.sqrt(1 - mp.mpf(y) ** 2) if y < 1 else mp.mpf(0)
            got = oracle_module._x_integrated_square(
                mp.mpf(y), x0, delta_coeffs(30).coeffs)
            # |Delta(-x + iy)| = |Delta(x + iy)|: the two halves are equal
            want = 2 * mp.quad(
                lambda x: abs(eval_delta_mp(Point(float(x), y))) ** 2,
                [x0, 0.5])
        assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("y", [0.87, 0.99, 1.2])
    def test_matches_the_fourier_pair_sum(self, y):
        coeffs = delta_coeffs(30).coeffs
        with mp.workdps(30):
            x0 = mp.sqrt(1 - mp.mpf(y) ** 2) if y < 1 else mp.mpf(0)
            got = oracle_module._x_integrated_square(mp.mpf(y), x0, coeffs)
            want = fourier_pair_sum(mp.mpf(y), x0, coeffs)
            assert abs(got - want) <= mp.mpf(10) ** -26 * want


class TestPeterssonNorm:
    def test_positive_and_scale(self):
        norm = petersson_norm_delta(1e-10)
        assert norm.value > 0.0
        assert norm.error_bound <= 1e-10 * norm.value

    def test_literature_value_within_the_bound(self):
        norm = petersson_norm_delta(1e-10)
        assert abs(norm.value - NORM_LITERATURE) <= norm.error_bound

    def test_repr_is_pinned(self):
        assert repr(petersson_norm_delta(1e-10)) == (
            "PeterssonNorm(value=1.035362056804321e-06, "
            "error_bound=1.0353620568043288e-22, nodes=258)")

    def test_one_result_per_height_cut(self):
        assert petersson_norm_delta(1e-9) is petersson_norm_delta(1e-10)

    def test_tol_gates_the_cached_result(self, monkeypatch):
        loose = PeterssonNorm(1.0, 1e-9, 0)
        monkeypatch.setitem(oracle_module._norm_cache, 3.0, loose)
        assert petersson_norm_delta(1e-8, y_cut=3.0) is loose
        with pytest.raises(TailTooLarge):
            petersson_norm_delta(1e-10, y_cut=3.0)

    @pytest.mark.parametrize("tol, y_cut", [
        (math.nan, 1.0), (math.inf, 1.0), (1e-10, math.nan),
        (1e-10, math.inf), (1e-10, 0.99),
    ])
    def test_rejects_non_finite_or_out_of_range_input(self, tol, y_cut):
        with pytest.raises(ValueError):
            petersson_norm_delta(tol, y_cut)

    def test_non_finite_error_is_not_certified(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "_series_tails", lambda N, y: math.inf)
        with pytest.raises(TailTooLarge):
            petersson_norm_delta(1e-10, y_cut=1.5)
        assert 1.5 not in oracle_module._norm_cache

    def test_lens_tail_does_not_grow_with_the_height_cut(self):
        # each omitted pair shell is weighted by its decaying height
        # integral, so a high cut still certifies
        assert (oracle_module._series_tails(30, 1e4)
                <= oracle_module._series_tails(30, 1.0) < 1e-50)
        norm = petersson_norm_delta(1e-10, y_cut=1e4)
        assert norm.error_bound <= 1e-10 * norm.value
        assert abs(norm.value - NORM_LITERATURE) <= norm.error_bound

    def test_height_cut_consistency(self):
        a = petersson_norm_delta(1e-10, y_cut=1.0)
        b = petersson_norm_delta(1e-10, y_cut=2.0)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound

    def test_rejects_overtight_tol(self):
        with pytest.raises(ValueError):
            petersson_norm_delta(1e-13)


class TestPretrace:
    @pytest.mark.parametrize("z", [Point(0.13, 1.1), Point(0.0, 1.0),
                                   Point(0.25, 2.5)])
    def test_reference_points(self, z):
        assert verify_pretrace(z) < 1e-8

    def test_independence_audit(self):
        # the kernel path must be imported nowhere in this module except
        # inside the single comparison function
        src = inspect.getsource(oracle_module)
        body = inspect.getsource(oracle_module.verify_pretrace)
        assert src.count(body) == 1
        assert "from .kernel import" in body and "bergman_R" in body
        rest = src.replace(body, "")
        for fragment in ("from .kernel", "import kernel", "bergman_R"):
            assert fragment not in rest
