"""Command-line front end: kernel evaluation, lemma checks, equidistribution
experiments, and the pre-trace verification, with CSV/JSON output.

Exit codes: 0 success, 2 config or precondition error, 3 resource/cutoff
failure, 4 verification finding.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
import time

import numpy as np

from .errors import CutoffExceeded, CuspKernelError, SupportViolation
from .halfplane import Point
from .kernel import WeightConfig, bergman_R, bergman_R_diagonal
from .modgroup import elliptic_points_in_strip, min_displacement, sample_bulk
from .equidist import (
    BumpFunction2D,
    TestFunction,
    integrate_horizontal,
    integrate_region,
    integrate_vertical,
)
from .oracle import delta_coeffs, verify_pretrace

RNG_NAME = "philox"
# grid points per bergman_R_diagonal call of scan: on a 2-core Xeon a
# 200 x 100 grid at k 1200 took 0.36, 0.24, 0.22 and 0.21 s in batches of
# 64, 256, 1024 and 4096 points (6.7 s one point at a time), at a peak RSS
# of 47-48 MB
SCAN_BATCH = 256


def weight_list(text: str) -> list:
    """Parse a comma-separated list of weights, e.g. '300,600,1200'."""
    return [int(s) for s in text.split(",")]


def parse_point(text: str) -> Point:
    """Parse 'a+bi' / 'a-bi' complex literals into a half-plane point."""
    z = complex(text.replace("i", "j"))
    if z.imag <= 0:
        raise argparse.ArgumentTypeError(f"point must satisfy Im z > 0: {text!r}")
    return Point(z.real, z.imag)


def _rng(seed: int):
    return np.random.Generator(np.random.Philox(seed))


def _emit(args, payload: str) -> None:
    """Write payload to --out (its exact characters) or to stdout."""
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ValueError(f"cannot write --out: {exc}") from exc
    else:
        sys.stdout.write(payload)


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit_csv(args, header, rows) -> None:
    """Write a header and rows as CSV: a float as 17 significant digits,
    anything else (an int, or a string the caller formatted) as it is."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([format(v, ".17g") if isinstance(v, float) else v
                    for v in row])
    _emit(args, buf.getvalue())


def cmd_kernel(args) -> int:
    cfg = WeightConfig(args.k, args.tol)
    res = bergman_R(args.z, args.w if args.w else args.z, cfg)
    record = {
        "k": args.k,
        "re": res.value.real,
        "im": res.value.imag,
        "tail_bound": res.tail_bound,
        "terms_used": res.terms_used,
        "cosets_used": res.cosets_used,
    }
    if args.format == "json":
        _emit(args, _json(record))
    else:
        _emit_csv(args, record.keys(), [record.values()])
    return 0


def cmd_scan(args) -> int:
    try:
        x0, x1, nx, y0, y1, ny = args.grid.split(",")
        x0, x1, y0, y1 = float(x0), float(x1), float(y0), float(y1)
        nx, ny = int(nx), int(ny)
        if nx < 1 or ny < 1 or y0 <= 0 or y1 < y0 or x1 < x0:
            raise ValueError
    except ValueError:
        print("malformed --grid, expected x0,x1,nx,y0,y1,ny", file=sys.stderr)
        return 2
    cfg = WeightConfig(args.k, args.tol)
    xs = [x0] if nx == 1 else [x0 + i * (x1 - x0) / (nx - 1) for i in range(nx)]
    ys = [y0] if ny == 1 else [y0 + j * (y1 - y0) / (ny - 1) for j in range(ny)]
    grid, rows = itertools.product(ys, xs), []
    while batch := list(itertools.islice(grid, SCAN_BATCH)):
        y, x = np.array(batch).T
        values, tails, terms = bergman_R_diagonal(x, y, cfg)
        rows += zip(x.tolist(), y.tolist(), itertools.repeat(args.k),
                    values.real.tolist(), values.imag.tolist(),
                    tails.tolist(), terms.tolist())
    _emit_csv(args, ["x", "y", "k", "re_R", "im_R", "tail_bound",
                     "terms_used"], rows)
    return 0


def cmd_lemmas(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    zs = sample_bulk(args.Y, args.delta, args.samples, _rng(args.seed))
    bound = args.delta / (4.0 * args.Y)
    min_observed = math.inf
    worst = None
    for z in zs:
        _, d = min_displacement(z)
        if d < min_observed:
            min_observed = d
            worst = z
    passed = min_observed > bound
    report = {
        "rng": RNG_NAME,
        "seed": args.seed,
        "Y": args.Y,
        "delta": args.delta,
        "samples": args.samples,
        "bound": bound,
        "min_observed": min_observed,
        "worst_point": {"x": worst.x, "y": worst.y},
        "pass": passed,
    }
    _emit(args, _json(report))
    return 0 if passed else 4


def _run_integral(args, runner, x_or_y=None):
    """One record per weight of --k; runner(k) returns an IntegralResult.
    A line integral's records also carry the line's x_or_y."""
    records = []
    for k in args.k:
        t0 = time.perf_counter()
        res = runner(k)
        ms = 1000.0 * (time.perf_counter() - t0)
        record = {"k": k}
        if x_or_y is not None:
            record["x_or_y"] = x_or_y
        record.update(
            integral=res.integral,
            reference=res.reference,
            gap=res.integral - res.reference,
            reported_error=res.error,
            nodes=res.nodes,
            wall_time_ms=ms,
        )
        records.append(record)
    return records


def _emit_records(args, records) -> None:
    """Sweep results as a JSON list or as CSV rows per weight."""
    if args.format == "csv":
        _emit_csv(args, records[0].keys(), [r.values() for r in records])
    else:
        _emit(args, _json(records))


def cmd_vertical(args) -> int:
    a, b = (float(s) for s in args.support.split(","))
    psi = TestFunction.bump(a, b)
    records = _run_integral(
        args,
        lambda k: integrate_vertical(
            args.x, psi, WeightConfig(k, args.tol), args.Y,
            unsafe=args.unsafe,
        ),
        args.x,
    )
    _emit_records(args, records)
    return 0


def cmd_horizontal(args) -> int:
    if args.psi == "const":
        psi = TestFunction.indicator(-0.5, 0.5)
    elif args.psi.startswith("indicator:"):
        a, b = (float(s) for s in args.psi.split(":", 1)[1].split(","))
        psi = TestFunction.indicator(a, b)
    elif args.psi.startswith("bump:"):
        a, b = (float(s) for s in args.psi.split(":", 1)[1].split(","))
        psi = TestFunction.bump(a, b)
    else:
        print("--psi must be const, indicator:a,b or bump:a,b", file=sys.stderr)
        return 2
    records = _run_integral(
        args,
        lambda k: integrate_horizontal(
            args.y, psi, WeightConfig(k, args.tol), args.Y,
            unsafe=args.unsafe,
        ),
        args.y,
    )
    _emit_records(args, records)
    return 0


def cmd_region(args) -> int:
    cx, cy = (float(s) for s in args.center.split(","))
    phi = BumpFunction2D(cx, cy, args.radius)
    records = _run_integral(
        args,
        lambda k: integrate_region(
            phi, WeightConfig(k, args.tol), unsafe=args.unsafe
        ),
    )
    _emit_records(args, records)
    return 0


def pretrace_points(n: int, seed: int) -> list:
    """Seeded fundamental-domain sample points in the q-series regime."""
    rng = _rng(seed)
    points = []
    while len(points) < n:
        x = rng.uniform(-0.5, 0.5)
        y = rng.uniform(0.95, 2.6)
        if x * x + y * y >= 1.05:
            points.append(Point(x, y))
    return points


def cmd_pretrace(args) -> int:
    if not 0 < args.max_residual < math.inf:
        raise ValueError(
            f"--max-residual must be positive and finite, got {args.max_residual}"
        )
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    reports = []
    worst = 0.0
    for z in pretrace_points(args.points, args.seed):
        res = verify_pretrace(z)
        worst = max(worst, res)
        reports.append({"x": z.x, "y": z.y, "residual": res})
    passed = worst < args.max_residual
    payload = {
        "rng": RNG_NAME,
        "seed": args.seed,
        "tol": args.max_residual,
        "max_residual": worst,
        "points": reports,
        "pass": passed,
    }
    _emit(args, _json(payload))
    return 0 if passed else 4


def cmd_elliptic(args) -> int:
    # repr, not 17 digits: elliptic_Y40.csv pins the shortest form (0.0,1.0)
    rows = [[repr(e.location.x), repr(e.location.y), e.stabilizer_order,
             *e.generator.entries()]
            for e in elliptic_points_in_strip(args.Y)]
    _emit_csv(args, ["x", "y", "stab_order", "gen_a", "gen_b", "gen_c",
                     "gen_d"], rows)
    return 0


def cmd_coeffs(args) -> int:
    _emit_csv(args, ["n", "a_n"], enumerate(delta_coeffs(args.n), 1))
    return 0


# options shared by several subcommands; each subcommand takes only the
# ones its handler reads
_FLAGS = {
    "k": dict(type=int, default=12, help="even weight >= 4"),
    "tol": dict(type=float, default=1e-9, help="requested certified tail bound"),
    "Y": dict(type=float, default=7.0, help="strip parameter"),
    "seed": dict(type=int, default=20250809, help="64-bit RNG seed"),
    "out": dict(default=None, help="output path (default stdout)"),
    "format": dict(choices=("csv", "json"), default="json"),
    "unsafe": dict(action="store_true",
                   help="lift the proved support-window preconditions"),
}

# --k of the integral subcommands: one record per listed weight
_WEIGHTS = dict(type=weight_list, default=[12],
                help="comma-separated even weights >= 4")


def _add_flags(p, *names) -> None:
    for name in names:
        p.add_argument(f"--{name}", **_FLAGS[name])


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command line, built once per process: parsing
    leaves it as it was, and no command changes the namespace it gets (the
    default list of --k is one list, shared by every parse)."""
    ap = argparse.ArgumentParser(
        prog="cuspkernel",
        description="Bergman-kernel numerics for cusp forms on the modular group",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="evaluate R_k(z, w)")
    p.add_argument("--z", type=parse_point, required=True,
                   help="point a+bi; a negative one as --z=-0.3+1.1i")
    p.add_argument("--w", type=parse_point, default=None,
                   help="second point (default z); a negative one as --w=-0.3+1.1i")
    _add_flags(p, "k", "tol", "out", "format")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("scan", help="grid scan of the diagonal kernel")
    p.add_argument("--grid", required=True, help="x0,x1,nx,y0,y1,ny")
    _add_flags(p, "k", "tol", "out")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("lemmas", help="displacement lemma verification")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--delta", type=float, default=0.05,
                   help="neighborhood radius (hyperbolic)")
    _add_flags(p, "Y", "seed", "out")
    p.set_defaults(func=cmd_lemmas)

    line_flags = ("tol", "Y", "out", "format", "unsafe")
    p = sub.add_parser("vertical", help="vertical-geodesic mass integral")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--support", default="1,2", help="bump support a,b")
    p.add_argument("--k", **_WEIGHTS)
    _add_flags(p, *line_flags)
    p.set_defaults(func=cmd_vertical)

    p = sub.add_parser("horizontal", help="horizontal-segment mass integral")
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--psi", default="const",
                   help="const | indicator:a,b | bump:a,b")
    p.add_argument("--k", **_WEIGHTS)
    _add_flags(p, *line_flags)
    p.set_defaults(func=cmd_horizontal)

    p = sub.add_parser("region", help="2-D bump mass integral")
    p.add_argument("--center", default="0.1,1.2", help="cx,cy")
    p.add_argument("--radius", type=float, default=0.2)
    p.add_argument("--k", **_WEIGHTS)
    _add_flags(p, "tol", "out", "format", "unsafe")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("pretrace", help="weight-12 pre-trace verification")
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--max-residual", type=float, default=1e-8,
                   help="largest relative residual that passes")
    _add_flags(p, "seed", "out")
    p.set_defaults(func=cmd_pretrace)

    p = sub.add_parser("elliptic", help="dump elliptic points as CSV")
    _add_flags(p, "Y", "out")
    p.set_defaults(func=cmd_elliptic)

    p = sub.add_parser("coeffs", help="dump discriminant-form coefficients")
    p.add_argument("--n", type=int, default=100)
    _add_flags(p, "out")
    p.set_defaults(func=cmd_coeffs)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        rc = args.func(args)
    except SupportViolation as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except CutoffExceeded as exc:
        print(f"cutoff exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, CuspKernelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as exc:
        print(f"resource limit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return rc


if __name__ == "__main__":
    sys.exit(main())
