"""Tests for the weight-12 q-expansion oracle and its Petersson norm."""

import cmath
import inspect
import math

import mpmath as mp
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
        coeffs = delta_coeffs(12)
        assert coeffs == tuple(oracle[:12])
        assert coeffs[0] == 1
        assert coeffs[1] == -24
        assert coeffs[5] == coeffs[1] * coeffs[2] == -6048

    def test_multiplicativity_on_coprime_pairs(self):
        N = 400
        coeffs = delta_coeffs(N)
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
            assert coeffs[m * n - 1] == coeffs[m - 1] * coeffs[n - 1]

    def test_deligne_bound_screen(self):
        coeffs = delta_coeffs(400)
        for p in range(2, 401):
            if is_prime(p):
                assert abs(coeffs[p - 1]) <= 2.0 * p ** 5.5


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


def brute_kloosterman(c):
    """S(1, 1; c) as the literal sum of e^{2 pi i (d + d')/c} over the units
    d mod c, each inverse d' found by search."""
    total = 0j
    for d in range(c):
        if math.gcd(d, c) == 1:
            inv = next(e for e in range(c) if (d * e) % c == 1 % c)
            total += cmath.exp(2j * math.pi * (d + inv) / c)
    return total


class TestKloosterman:
    def test_matches_the_exponential_sum(self):
        for c in range(1, 61):
            brute = brute_kloosterman(c)
            assert abs(brute.imag) <= 1e-12 * c
            got = float(oracle_module._kloosterman(c))
            assert abs(got - brute.real) <= 1e-12 * c

    def test_weil_bound_at_primes(self):
        # |S(1, 1; p)| <= 2 sqrt(p), far below the phi(p) the rest bound uses
        for p in range(2, 102):
            if is_prime(p):
                assert abs(oracle_module._kloosterman(p)) <= 2.0 * math.sqrt(p)


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
            "error_bound=1.0353963357308274e-22, nodes=126)")

    def test_one_cached_result(self):
        assert petersson_norm_delta(1e-9) is petersson_norm_delta(1e-10)

    def test_tol_gates_the_cached_result(self, monkeypatch):
        loose = PeterssonNorm(1.0, 1e-9, 0)
        monkeypatch.setattr(oracle_module, "_norm", lambda C: loose)
        assert petersson_norm_delta(1e-8) is loose
        with pytest.raises(TailTooLarge):
            petersson_norm_delta(1e-10)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_non_finite_or_out_of_range_input(self, tol):
        with pytest.raises(ValueError):
            petersson_norm_delta(tol)

    def test_non_finite_error_is_not_certified(self, monkeypatch):
        cached = oracle_module._norm.cache_info().currsize
        monkeypatch.setattr(oracle_module, "_REST_SCALE", math.inf)
        with pytest.raises(TailTooLarge):
            oracle_module._norm(5)
        assert oracle_module._norm.cache_info().currsize == cached

    @pytest.mark.parametrize("C", [2, 10])
    def test_rest_bound_covers_the_omitted_terms(self, C):
        # the closed-form rest against the next 150 terms of the series
        omitted = 2 * math.pi * sum(
            abs(float(oracle_module._kloosterman(c)) / c
                * float(mp.besselj(11, 4 * mp.pi / c)))
            for c in range(C + 1, C + 151))
        assert 0.0 < omitted <= oracle_module._REST_SCALE / C ** 10

    def test_two_kloosterman_cutoffs_agree(self):
        a = petersson_norm_delta(1e-10)
        b = oracle_module._norm(2 * a.nodes)
        assert b.nodes == 2 * a.nodes
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
