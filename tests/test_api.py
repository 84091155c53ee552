"""Pins the public library signatures: each parameter is one some caller sets."""

import dataclasses
import inspect

import pytest

import cuspkernel
from cuspkernel import equidist, errors, halfplane, kernel, modgroup, oracle

EMPTY = inspect.Parameter.empty

SIGNATURES = {
    equidist.integrate_vertical:
        [("x", EMPTY), ("psi", EMPTY), ("cfg", EMPTY), ("Y", EMPTY),
         ("unsafe", False), ("rtol", 1e-4)],
    equidist.integrate_horizontal:
        [("y", EMPTY), ("psi", EMPTY), ("cfg", EMPTY), ("Y", EMPTY),
         ("unsafe", False), ("rtol", 1e-4)],
    equidist.integrate_region:
        [("phi", EMPTY), ("cfg", EMPTY), ("rtol", 1e-4), ("unsafe", False)],
    kernel.offdiagonal_sum_bound: [("z", EMPTY)],
    kernel.residual_certificate: [("z", EMPTY), ("k", EMPTY)],
    oracle.verify_pretrace: [("z", EMPTY)],
    oracle.petersson_norm_delta: [("tol", 1e-10)],
    oracle.eval_delta_mp: [("z", EMPTY)],
    modgroup.min_displacement: [("z", EMPTY)],
    modgroup.sample_bulk:
        [("Y", EMPTY), ("delta", EMPTY), ("n", EMPTY), ("rng", EMPTY)],
    equidist.measure_density: [("z", EMPTY), ("cfg", EMPTY)],
}


@pytest.mark.parametrize("fn", list(SIGNATURES), ids=lambda f: f.__name__)
def test_signature(fn):
    params = inspect.signature(fn).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[fn]


@pytest.mark.parametrize("cls, names", [
    # a 1-D test function carries no measure and no reference integral:
    # the line it is integrated along supplies both
    (equidist.TestFunction, ["kind", "a", "b"]),
    # the squeeze constant A is kernel.SQUEEZE_A, not a setting
    (kernel.WeightConfig, ["k", "tol"]),
])
def test_config_fields(cls, names):
    assert [f.name for f in dataclasses.fields(cls)] == names


def test_line_integrals_do_not_take_a_region():
    assert not hasattr(equidist, "StripRegion")


@pytest.mark.parametrize("cls, member", [
    (halfplane.Point, "from_complex"),
    (equidist.TestFunction, "support"),
])
def test_dead_members_are_gone(cls, member):
    assert member not in vars(cls)


@pytest.mark.parametrize("module, name", [
    (oracle, "eval_delta"),
    (equidist, "MeasureDensity"),
    (equidist, "_density_with_error"),
    (modgroup, "StripRegion"),
    (modgroup, "in_bulk"),
    (halfplane, "LogComplex"),
    (halfplane, "reduce_phase"),
    (modgroup, "write_elliptic_csv"),
    (oracle, "write_coeffs_csv"),
    (oracle, "QExpansion"),
    (oracle, "_x_integrated_square"),
    (oracle, "_series_tails"),
    (kernel, "bergman_main_term"),
    (modgroup, "stabilizer"),
    (errors, "StabilizerSearchFailed"),
    (kernel, "asymptotic_residual"),
    (kernel, "elliptic_correction"),
    (kernel, "stabilizer_elements"),
])
def test_second_entry_points_are_gone(module, name):
    # each quantity has one way in: eval_delta_mp, measure_density,
    # sample_bulk(Y, delta, n, rng), a single term's k-th power is
    # Python's complex power (the main term too), CSV is written by the
    # CLI alone, coefficients are a plain tuple, and the Petersson norm is
    # one Kloosterman-Bessel series; the brute-force stabilizer search is
    # a test oracle, kept in tests/test_modgroup.py, and so is the
    # elliptic-neighborhood prediction, in tests/test_kernel.py
    assert not hasattr(module, name)
    assert not hasattr(cuspkernel, name)


def test_kernel_sum_has_no_mode_keyword():
    # the weight-4 sum is in closed form: the term pass sums t_g^k alone
    params = inspect.signature(kernel._kernel_pass).parameters.values()
    assert [p.name for p in params if p.kind is p.KEYWORD_ONLY] == []
