"""Tests of the benchmark itself: the independent reference, and that every
check rejects a deliberately perturbed output of the program."""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from inputs import Slot  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402


def test_delta_at_i_matches_the_gamma_closed_form():
    closed = math.gamma(0.25) ** 24 / (2 ** 24 * math.pi ** 18)
    assert closed == pytest.approx(0.0017853698506421519, rel=1e-15)
    assert ref.delta(1j) == pytest.approx(closed, rel=1e-14)


def test_tau_from_the_product():
    assert ref.tau(10) == [1, -24, 252, -1472, 4830, -6048, -16744, 84480,
                           -113643, -115920]


@pytest.mark.parametrize("z", [0.3 + 0.05j, -0.144 + 0.192j, 2.7 + 0.4j,
                               0.5 + 0.8660254j, 0.1 + 3000j])
def test_reduction_lands_in_the_fundamental_domain(z):
    zr, g = ref.reduce_to_fundamental(z)
    a, b, c, d = g
    assert a * d - b * c == 1
    assert abs(zr.real) <= 0.5 + 1e-12 and abs(zr) >= 1.0 - 1e-12
    assert ref.apply(g, z) == pytest.approx(zr, rel=1e-12)


def test_delta_is_modular_of_weight_12():
    z = 0.23 + 0.71j
    assert ref.delta(-1 / z) == pytest.approx(z ** 12 * ref.delta(z), rel=1e-12)
    assert ref.delta(z + 1) == pytest.approx(ref.delta(z), rel=1e-12)


def test_horocycle_integral_at_1_3():
    assert ref.horocycle_integral_k12(1.3) == pytest.approx(1.80921864162936,
                                                            rel=1e-13)


def test_inputs_follow_the_seed_and_faults_do_not():
    for workload in inputs.WORKLOADS:
        a, b = inputs.make(workload, 5), inputs.make(workload, 6)
        assert a == inputs.make(workload, 5)
        assert a != b
        assert [s for s in a if s.fault] == [s for s in b if s.fault]


def test_vertical_supports_keep_clear_of_i():
    # at weight 1200 a vertical segment through the neighbourhood of i reads
    # a gap above 1%, so the seeded lines keep hyperbolic distance 0.1 from it
    for seed in range(50):
        for s in inputs.make("equidist_pretrace", seed):
            if s.kind == "vertical":
                y = min(max(1.0, s.params["a"]), s.params["b"])
                assert ref.hyp_distance(complex(s.params["x"], y), 1j) >= 0.099


def _one(slot):
    op = workloads.build_op(slot)
    out = op.run(None)
    assert op.check(out) == []
    return op, out


def test_kernel_check_rejects_a_moved_value():
    import json

    p = {"z": 0.21 + 1.7j, "w": 0.4 + 1.1j, "tol": 1e-10}
    _, out = _one(Slot("kernel", p))
    rec = json.loads(out)
    expect = ref.kernel_r12(p["z"], p["w"])
    allowed = rec["tail_bound"] + ref.kernel_allowance(expect, rec["terms_used"])
    moved = dict(rec, re=rec["re"] + 10.0 * allowed)
    assert workloads.check_kernel(p, moved)
    assert workloads.check_kernel(p, dict(rec, tail_bound=2e-10))


@pytest.mark.parametrize("slot", [
    Slot("vertical", {"x": 0.31, "a": 1.1, "b": 1.9}),
    Slot("horizontal", {"y": 1.5, "psi": "indicator", "a": -0.2, "b": 0.4,
                        "k": 1200}),
    Slot("horizontal", {"y": 1.8, "psi": "bump", "a": -0.3, "b": 0.35,
                        "k": 1200}),
])
def test_integral_check_rejects_a_moved_reference_or_gap(slot):
    import json

    op, out = _one(slot)
    rec = json.loads(out)[0]
    expect = workloads.integral_reference(slot)
    bad_ref = dict(rec, reference=rec["reference"] * (1 + 1e-6))
    assert workloads.check_integral(slot, [bad_ref], expect)
    off = 0.02 * rec["reference"]
    bad_gap = dict(rec, integral=rec["reference"] + off, gap=off)
    assert workloads.check_integral(slot, [bad_gap], expect)


def test_weight_12_horocycle_check_rejects_a_moved_integral():
    import json

    slot = Slot("horizontal", {"y": 1.3, "psi": "const", "a": -0.5, "b": 0.5,
                               "k": 12})
    _, out = _one(slot)
    rec = json.loads(out)[0]
    moved = rec["integral"] + 10.0 * rec["reported_error"]
    bad = dict(rec, integral=moved, gap=moved - rec["reference"])
    assert workloads.check_integral(slot, [bad], ref.THREE_OVER_PI)


def test_pretrace_check_rejects_a_large_residual():
    slot = Slot("pretrace", {"seed": 7})
    points = [{"x": 0.1, "y": 1.2, "residual": 1e-12}] * workloads.PRETRACE_POINTS
    good = {"seed": 7, "points": points, "max_residual": 1e-12, "pass": True}
    assert workloads.check_pretrace(slot, good) == []
    worse = points[:-1] + [{"x": 0.1, "y": 1.2, "residual": 2e-8}]
    assert workloads.check_pretrace(slot, dict(good, points=worse,
                                               max_residual=2e-8))
    assert workloads.check_pretrace(slot, dict(good, **{"pass": False}))


def test_displacement_check_rejects_a_wrong_minimum():
    z = 0.27 + 1.33j
    _, (g, d_min) = _one(Slot("displacement", {"z": z}))
    assert workloads.check_displacement(z, g, d_min * 1.01)
    # a translation by 2 is a genuine element, but not the closest one
    far = (1, 2, 0, 1)
    assert workloads.check_displacement(z, far, ref.hyp_distance(z, z + 2))
    assert workloads.check_displacement(z, (1, 0, 0, 1), 0.0)


def test_certificate_check_rejects_a_moved_value():
    _, (cert, value, tail) = _one(Slot("certificate", {"z": 0.2 + 1.9j, "k": 200}))
    assert cert > 1e-12
    assert workloads.check_certificate(1e-12, cert, value + 10 * (cert + tail), tail)


def test_tracer_restores_the_package_and_records_nested_spans():
    import cuspkernel
    import cuspkernel.cli
    import cuspkernel.kernel

    originals = (cuspkernel.cli.main, cuspkernel.kernel.bergman_R,
                 cuspkernel.bergman_R, cuspkernel.kernel.solve_top_row)
    tracer = Tracer()
    tracer.install()
    try:
        workloads.build_op(Slot("kernel", {"z": 0.1 + 1.2j, "w": None,
                                           "tol": 1e-9})).run(None)
    finally:
        tracer.uninstall()
    assert originals == (cuspkernel.cli.main, cuspkernel.kernel.bergman_R,
                         cuspkernel.bergman_R, cuspkernel.kernel.solve_top_row)
    names = [s[0] for s in tracer.spans]
    assert names == ["cli.main", "kernel.bergman_R"]
    assert tracer.spans[1][3] == 0
    m = layer_metrics(tracer.spans, tracer.counts, 1)
    assert m["kernel.bergman_R.calls"][0] == 1
    assert m["modgroup.solve_top_row.calls"][0] > 0
    assert m["cli.main.self_ms"][0] >= 0.0
