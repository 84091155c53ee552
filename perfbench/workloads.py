"""The operations of each workload and the checks of their outputs.

Every operation drives cuspkernel through a public entry point:
`cuspkernel.cli.main` in-process (parts kernel_k12, equidist_k1200), the
`cuspkernel` command line in a fresh interpreter (part pretrace_cli), or
the library functions (part certify_bulk).  Entry points are looked up on their
module at call time, so the traced run sees the wrappers it installs.

An operation either returns the program's output, which is then checked
against `reference`, or raises `Failed` when the program reports a failure
(a non-zero exit code, or a CuspKernelError from the library).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import cuspkernel.cli
from cuspkernel import CuspKernelError, Point, WeightConfig
from cuspkernel import kernel as ck_kernel
from cuspkernel import modgroup as ck_modgroup

import inputs
import reference as ref
from inputs import BULK_DELTA, BULK_Y, Slot, fmt_point

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# gap thresholds of the paper-scale acceptance criteria 4-6 at weight 1200
GAP_LIMIT = {"vertical": 0.01, "const": 0.01, "indicator": 0.015,
             "bump": 0.015, "region": 0.01}
PRETRACE_RESIDUAL = 1e-8
PRETRACE_POINTS = 20
SUBPROCESS_TIMEOUT = 170


class Failed(Exception):
    """The program reported that it could not produce the result."""


class Op:
    """One operation: `run` calls the program, `check` lists what is wrong
    with its output (nothing when it is right)."""

    def __init__(self, slot: Slot, run, check):
        self.slot = slot
        self.run = run
        self.check = check


def _cli(argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cuspkernel.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        rc = exc.code if isinstance(exc.code, int) else 2
    if rc != 0:
        raise Failed(f"exit {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# --- kernel_k12 -------------------------------------------------------------

def _kernel_op(slot: Slot) -> Op:
    p = slot.params
    argv = ["kernel", f"--z={fmt_point(p['z'])}", "--k=12", f"--tol={p['tol']!r}"]
    if p["w"] is not None:
        argv.append(f"--w={fmt_point(p['w'])}")
    return Op(slot, lambda tracer: _cli(argv),
              lambda out: check_kernel(p, json.loads(out)))


def check_kernel(p: dict, rec: dict) -> list:
    z = p["z"]
    w = z if p["w"] is None else p["w"]
    value = complex(rec["re"], rec["im"])
    expect = ref.kernel_r12(z, w)
    allow = ref.kernel_allowance(expect, rec["terms_used"])
    problems = []
    if rec["k"] != 12:
        problems.append(f"k = {rec['k']}")
    if not 0.0 <= rec["tail_bound"] <= p["tol"]:
        problems.append(f"tail_bound {rec['tail_bound']:.3e} above tol")
    if not abs(value - expect) <= rec["tail_bound"] + allow:
        problems.append(
            f"R_12 = {value} but the reference gives {expect}: off by "
            f"{abs(value - expect):.3e} > tail {rec['tail_bound']:.3e} "
            f"+ rounding {allow:.3e}")
    return problems


# --- equidist_k1200 ---------------------------------------------------------

def _integral_argv(slot: Slot) -> list:
    p = slot.params
    if slot.kind == "vertical":
        return ["vertical", f"--x={p['x']!r}", f"--support={p['a']!r},{p['b']!r}",
                "--k=1200"]
    if slot.kind == "region":
        return ["region", f"--center={p['cx']!r},{p['cy']!r}",
                f"--radius={p['r']!r}", "--k=1200"]
    psi = "const" if p["psi"] == "const" else f"{p['psi']}:{p['a']!r},{p['b']!r}"
    argv = ["horizontal", f"--y={p['y']!r}", f"--psi={psi}", f"--k={p['k']}"]
    if p["k"] == 12:
        argv.append("--unsafe")
    return argv


def integral_reference(slot: Slot) -> float:
    """(3/pi) int psi, computed without the program."""
    p = slot.params
    if slot.kind == "vertical":
        return ref.THREE_OVER_PI * ref.bump_integral(p["a"], p["b"], "log")
    if slot.kind == "region":
        return ref.THREE_OVER_PI * ref.region_integral(p["cx"], p["cy"], p["r"])
    if p["psi"] == "bump":
        return ref.THREE_OVER_PI * ref.bump_integral(p["a"], p["b"], "lin")
    if p["psi"] == "const":
        return ref.THREE_OVER_PI
    return ref.THREE_OVER_PI * (p["b"] - p["a"])


def _integral_op(slot: Slot) -> Op:
    argv = _integral_argv(slot)
    expect = []  # computed on first use, outside the timed call

    def check(out):
        if not expect:
            expect.append(integral_reference(slot))
        return check_integral(slot, json.loads(out), expect[0])

    return Op(slot, lambda tracer: _cli(argv), check)


def check_integral(slot: Slot, records: list, expect: float) -> list:
    p = slot.params
    if len(records) != 1:
        return [f"{len(records)} records for one weight"]
    rec = records[0]
    k = p.get("k", 1200)
    problems = []
    if rec["k"] != k or rec["nodes"] <= 0:
        problems.append(f"k = {rec['k']}, nodes = {rec['nodes']}")
    if rec["gap"] != rec["integral"] - rec["reference"]:
        problems.append("gap is not integral - reference")
    exact = slot.kind == "horizontal" and p["psi"] != "bump"
    if not _close(rec["reference"], expect, 1e-12 if exact else 1e-9):
        problems.append(f"reference {rec['reference']!r}, independent {expect!r}")
    if k == 12:
        # the weight-12 density integrates to a closed form on a horocycle
        series = ref.horocycle_integral_k12(p["y"])
        slack = rec["reported_error"] + 16.0 * ref.EPS * series
        if not abs(rec["integral"] - series) <= slack:
            problems.append(f"weight-12 horocycle integral {rec['integral']!r}, "
                            f"series {series!r}, beyond {slack:.3e}")
        return problems
    limit = GAP_LIMIT[p["psi"] if slot.kind == "horizontal" else slot.kind]
    if not abs(rec["gap"]) < limit * rec["reference"]:
        problems.append(f"gap {rec['gap'] / rec['reference']:.3%} "
                        f"not under {limit:.1%}")
    return problems


# --- pretrace_cli -----------------------------------------------------------

def _pretrace_op(slot: Slot) -> Op:
    argv = ["pretrace", f"--points={PRETRACE_POINTS}", f"--seed={slot.params['seed']}"]

    def run(tracer):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        if tracer is None:
            cmd = [sys.executable, "-m", "cuspkernel.cli", *argv]
            return _subprocess(cmd, env)
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            dump = Path(tmp) / "spans.json"
            cmd = [sys.executable, str(HERE / "spans.py"), "--dump", str(dump),
                   "--", *argv]
            out = _subprocess(cmd, env)
            tracer.absorb(json.loads(dump.read_text()))
        return out

    return Op(slot, run, lambda out: check_pretrace(slot, json.loads(out)))


def _subprocess(cmd: list, env: dict) -> str:
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    if proc.returncode != 0:
        raise Failed(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc.stdout


def check_pretrace(slot: Slot, payload: dict) -> list:
    residuals = [pt["residual"] for pt in payload["points"]]
    problems = []
    if payload["seed"] != slot.params["seed"] or len(residuals) != PRETRACE_POINTS:
        problems.append("seed or point count differs from the command line")
    if payload["pass"] is not True:
        problems.append("pass is not true")
    if not all(r < PRETRACE_RESIDUAL for r in residuals):
        problems.append(f"residual {max(residuals):.3e} not below "
                        f"{PRETRACE_RESIDUAL:.0e}")
    if residuals and payload["max_residual"] != max(residuals):
        problems.append("max_residual is not the largest residual")
    return problems


# --- certify_bulk -----------------------------------------------------------

def _library(fn, *args):
    try:
        return fn(*args)
    except CuspKernelError as exc:
        raise Failed(f"{type(exc).__name__}: {exc}") from exc


def _displacement_op(slot: Slot) -> Op:
    z = slot.params["z"]

    def run(tracer):
        g, d = _library(ck_modgroup.min_displacement, Point(z.real, z.imag))
        return (g.a, g.b, g.c, g.d), d

    return Op(slot, run, lambda out: check_displacement(z, *out))


def check_displacement(z: complex, g: tuple, d_min: float) -> list:
    problems = []
    bound = BULK_DELTA / (4.0 * BULK_Y)
    if not d_min > bound:
        problems.append(f"d_min {d_min:.3e} not above delta/(4Y) = {bound:.3e}")
    a, b, c, d = g
    if a * d - b * c != 1 or (b == 0 and c == 0 and abs(a) == 1):
        problems.append(f"returned matrix {g} is not in SL(2,Z) minus +-I")
    elif not _close(ref.hyp_distance(z, ref.apply(g, z)), d_min, 1e-10):
        problems.append(f"d(z, gz) = {ref.hyp_distance(z, ref.apply(g, z))!r} "
                        f"for the returned g, reported {d_min!r}")
    best = brute_force_displacement(z, 4)
    if best < d_min * (1.0 - 1e-10):
        problems.append(f"a matrix with entries <= 4 moves z by {best!r} "
                        f"< d_min {d_min!r}")
    return problems


def brute_force_displacement(z: complex, bound: int) -> float:
    """min d(z, gz) over g != +-I in SL(2, Z) with entries of size <= bound."""
    best = math.inf
    rng = range(-bound, bound + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                if a == 0:
                    if b * c != -1:
                        continue
                    ds = rng
                elif (1 + b * c) % a:
                    continue
                else:
                    ds = ((1 + b * c) // a,)
                for d in ds:
                    if abs(d) > bound or (b == 0 and c == 0):
                        continue
                    best = min(best, ref.hyp_distance(z, ref.apply((a, b, c, d), z)))
    return best


def _certificate_op(slot: Slot) -> Op:
    z, k = slot.params["z"], slot.params["k"]
    tol = 1e-12

    def run(tracer):
        pt = Point(z.real, z.imag)
        cert = _library(ck_kernel.residual_certificate, pt, k)
        res = _library(ck_kernel.bergman_R, pt, pt, WeightConfig(k, tol))
        return cert, res.value, res.tail_bound

    return Op(slot, run, lambda out: check_certificate(tol, *out))


def check_certificate(tol: float, cert: float, value: complex, tail: float) -> list:
    problems = []
    if not 0.0 <= tail <= tol:
        problems.append(f"tail_bound {tail:.3e} above tol")
    if not (math.isfinite(cert) and cert >= 0.0):
        problems.append(f"certificate {cert!r}")
    elif not abs(value - 2.0) <= cert + tail:
        problems.append(f"|R_k - 2| = {abs(value - 2.0):.3e} exceeds certificate "
                        f"{cert:.3e} + tail {tail:.3e}")
    return problems


_BUILDERS = {
    "kernel": _kernel_op,
    "vertical": _integral_op,
    "horizontal": _integral_op,
    "region": _integral_op,
    "pretrace": _pretrace_op,
    "displacement": _displacement_op,
    "certificate": _certificate_op,
}


def build_op(slot: Slot) -> Op:
    return _BUILDERS[slot.kind](slot)


def build(workload: str, seed: int) -> list:
    return [build_op(s) for s in inputs.make(workload, seed)]
