"""Direct contracts of the adaptive quadrature engine."""

import math

import numpy as np
import pytest

from cuspkernel import CutoffExceeded
from cuspkernel.quadrature import _gk15, adaptive


def test_polynomial_exact():
    val, err, extra, nodes = adaptive(lambda x: x * x, 0.0, 1.0, rtol=1e-12)
    np.testing.assert_allclose(val, 1.0 / 3.0, rtol=1e-14)
    assert extra == 0.0 and nodes >= 15


def test_closed_form_oscillatory():
    val, err, _, _ = adaptive(math.sin, 0.0, math.pi, rtol=1e-12)
    np.testing.assert_allclose(val, 2.0, rtol=1e-12)
    assert abs(val - 2.0) <= max(err, 1e-13)


def test_extra_channel_is_weighted_sum():
    # constant auxiliary error of 0.1 per node integrates to 0.1 * length
    val, _, extra, _ = adaptive(lambda x: (math.sin(x), 0.1), 0.0, 2.0,
                                rtol=1e-10)
    np.testing.assert_allclose(val, 1.0 - math.cos(2.0), rtol=1e-10)
    np.testing.assert_allclose(extra, 0.2, rtol=1e-6)


def test_breakpoints_make_jumps_exact():
    def steppy(x):
        return 1.0 if x < 0.3 else 2.0

    val, err, _, _ = adaptive(steppy, 0.0, 1.0, rtol=1e-12,
                              breakpoints=(0.3,))
    np.testing.assert_allclose(val, 0.3 + 1.4, rtol=1e-14)
    assert err < 1e-12


def test_narrow_peak_resolved():
    # width-1e-3 bump centered off the initial nodes
    def peak(x):
        return math.exp(-((x - 0.123456) / 1e-3) ** 2)

    val, err, _, nodes = adaptive(peak, 0.0, 1.0, rtol=1e-8)
    np.testing.assert_allclose(val, 1e-3 * math.sqrt(math.pi), rtol=1e-6)
    assert nodes > 100


def test_empty_interval():
    assert adaptive(lambda x: 1.0, 2.0, 2.0) == (0.0, 0.0, 0.0, 0)


def test_stops_loudly_at_the_panel_cap():
    with pytest.raises(CutoffExceeded) as exc:
        adaptive(lambda x: math.sin(1 / x), 1e-4, 1, rtol=1e-12, max_panels=50)
    assert exc.value.best_tail_bound > 1e-12


def test_kronrod_rule_exact_through_degree_22():
    k15, _, _, _ = _gk15(lambda x: x ** 22, -1.0, 1.0)
    assert abs(k15 - 2.0 / 23.0) <= 1e-15 * (2.0 / 23.0)
    ones, _, _, _ = _gk15(lambda x: 1.0, -1.0, 1.0)
    assert abs(ones - 2.0) <= 4e-16
