"""Direct contracts of the adaptive quadrature engine."""

import math

import numpy as np
import pytest

from cuspkernel import CutoffExceeded
from cuspkernel import quadrature
from cuspkernel.quadrature import _gk15, adaptive


def test_polynomial_exact():
    val, err, extra, nodes = adaptive(lambda x: x * x, 0.0, 1.0, rtol=1e-12)
    np.testing.assert_allclose(val, 1.0 / 3.0, rtol=1e-14)
    assert extra == 0.0 and nodes >= 15


def test_closed_form_oscillatory():
    val, err, _, _ = adaptive(np.sin, 0.0, math.pi, rtol=1e-12)
    np.testing.assert_allclose(val, 2.0, rtol=1e-12)
    assert abs(val - 2.0) <= max(err, 1e-13)


def test_extra_channel_is_weighted_sum():
    # constant auxiliary error of 0.1 per node integrates to 0.1 * length
    val, _, extra, _ = adaptive(lambda x: (np.sin(x), 0.1), 0.0, 2.0,
                                rtol=1e-10)
    np.testing.assert_allclose(val, 1.0 - math.cos(2.0), rtol=1e-10)
    np.testing.assert_allclose(extra, 0.2, rtol=1e-6)


def test_breakpoints_make_jumps_exact():
    def steppy(x):
        return np.where(x < 0.3, 1.0, 2.0)

    val, err, _, _ = adaptive(steppy, 0.0, 1.0, rtol=1e-12,
                              breakpoints=(0.3,))
    np.testing.assert_allclose(val, 0.3 + 1.4, rtol=1e-14)
    assert err < 1e-12


def test_narrow_peak_resolved():
    # width-1e-3 bump centered off the initial nodes
    def peak(x):
        return np.exp(-((x - 0.123456) / 1e-3) ** 2)

    val, err, _, nodes = adaptive(peak, 0.0, 1.0, rtol=1e-8)
    np.testing.assert_allclose(val, 1e-3 * math.sqrt(math.pi), rtol=1e-6)
    assert nodes > 100


def test_empty_interval():
    assert adaptive(lambda x: 1.0, 2.0, 2.0) == (0.0, 0.0, 0.0, 0)


def test_stops_loudly_at_the_panel_cap(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PANELS", 50)
    with pytest.raises(CutoffExceeded) as exc:
        adaptive(lambda x: np.sin(1 / x), 1e-4, 1, rtol=1e-12)
    assert exc.value.best_tail_bound > 1e-12


def test_kronrod_rule_exact_through_degree_22():
    # a batch of panels: [-1, 1] twice, the second time beside [0, 1]
    lo, hi = np.array([-1.0, 0.0, -1.0]), np.array([1.0, 1.0, 1.0])
    k15, _, _ = _gk15(lambda x: x ** 22, lo, hi)
    assert abs(k15[0] - 2.0 / 23.0) <= 1e-15 * (2.0 / 23.0)
    assert k15[2] == k15[0]
    ones, _, _ = _gk15(lambda x: 1.0, lo, hi)
    assert abs(ones[0] - 2.0) <= 4e-16


# a lockstep call integrates each interval as a call of its own would
FUNCS = (
    lambda t: np.sin(3.0 * t) + t,
    lambda t: (np.exp(-((t - 0.123456) / 1e-3) ** 2), 0.01 * t),
    lambda t: np.where(t < 0.3, 1.0, 2.0),
    lambda t: np.abs(t - 0.31),
    lambda t: np.sin(1 / t),
)
INTERVALS = [(0.0, 2.0, ()), (0.0, 1.0, ()), (0.0, 1.0, (0.3, 0.7, 5.0)),
             (1.0, -1.0, (0.5,)), (1e-4, 1.0, ())]


def _counting(funcs, seen):
    def f(t, i):
        seen.extend(i.tolist())
        vals, extra = np.zeros(len(t)), np.zeros(len(t))
        for j in np.unique(i).tolist():
            out = funcs[j](t[i == j])
            v, e = out if isinstance(out, tuple) else (out, 0.0)
            vals[i == j], extra[i == j] = v, e
        return vals, extra
    return f


@pytest.mark.parametrize("which", [[0, 1, 2, 3], [2], [3, 1, 1, 0, 2]])
def test_lockstep_equals_separate_calls(which):
    funcs = [FUNCS[j] for j in which]
    intervals = [INTERVALS[j] for j in which]
    seen = []
    vals, errs, extras, nodes = adaptive(
        _counting(funcs, seen), [a for a, _, _ in intervals],
        [b for _, b, _ in intervals], rtol=1e-10,
        breakpoints=[p for _, _, p in intervals])
    alone = [adaptive(f, a, b, rtol=1e-10, breakpoints=p)
             for f, (a, b, p) in zip(funcs, intervals)]
    assert repr((vals, errs, extras)) == repr(tuple(
        [r[i] for r in alone] for i in range(3)))
    assert nodes == sum(r[3] for r in alone)
    assert [seen.count(j) for j in range(len(which))] == [r[3] for r in alone]


def test_lockstep_raises_the_first_panel_cap(monkeypatch):
    # intervals 1 and 3 hit the cap, 3 first: it starts with 5 panels.  A
    # loop of one-interval calls would stop at interval 1
    funcs = [FUNCS[0], FUNCS[4], FUNCS[3], FUNCS[4]]
    intervals = [INTERVALS[0], INTERVALS[4], INTERVALS[3],
                 (1e-5, 0.5, (0.1, 0.2, 0.3, 0.4))]
    monkeypatch.setattr(quadrature, "MAX_PANELS", 50)
    caps = []
    for j in (1, 3):
        with pytest.raises(CutoffExceeded) as alone:
            adaptive(funcs[j], *intervals[j][:2], rtol=1e-12,
                     breakpoints=intervals[j][2])
        caps.append((str(alone.value), alone.value.best_tail_bound))
    assert caps[0] != caps[1]
    with pytest.raises(CutoffExceeded) as lockstep:
        adaptive(_counting(funcs, []), [a for a, _, _ in intervals],
                 [b for _, b, _ in intervals], rtol=1e-12,
                 breakpoints=[p for _, _, p in intervals])
    assert (str(lockstep.value), lockstep.value.best_tail_bound) == caps[0]


def test_lockstep_with_empty_intervals():
    vals, errs, extras, nodes = adaptive(
        lambda t, i: np.ones(len(t)), [2.0, 0.0, 1.0], [2.0, 1.0, 1.0])
    assert (vals, errs, extras, nodes) == ([0.0, 1.0, 0.0], [0.0, 0.0, 0.0],
                                           [0.0, 0.0, 0.0], 15)
