"""Spans and counters for the traced run, recorded from outside the package.

`Tracer.install` rebinds every module attribute that holds a traced
function to a wrapper, so the names the callers look up (`cli.bergman_R`,
`equidist.adaptive`, `kernel.solve_top_row`, ...) all go through it; the
two test-function classes get their `__post_init__` wrapped, which is where
they build their reference integrals.  A span is [name, start, end, parent,
note]; spans stay in memory and are written out when the run ends.
Primitives called once per coset or per candidate are only counted.

Run as a script it executes one `cuspkernel` command line under tracing and
writes its spans to `--dump`:

    python3 perfbench/spans.py --dump spans.json -- pretrace --points 20
"""

from __future__ import annotations

import collections
import functools
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module, attribute, span name)
SPANNED = (
    ("kernel", "bergman_R", "kernel.bergman_R"),
    ("kernel", "residual_certificate", "kernel.residual_certificate"),
    ("kernel", "offdiagonal_sum_bound", "kernel.offdiagonal_sum_bound"),
    ("modgroup", "min_displacement", "modgroup.min_displacement"),
    ("modgroup", "elliptic_points_in_strip", "modgroup.elliptic_points_in_strip"),
    ("quadrature", "adaptive", "quadrature.adaptive"),
    ("equidist", "integrate_vertical", "equidist.integrate"),
    ("equidist", "integrate_horizontal", "equidist.integrate"),
    ("equidist", "integrate_region", "equidist.integrate"),
    ("oracle", "petersson_norm_delta", "oracle.petersson_norm_delta"),
    ("oracle", "verify_pretrace", "oracle.verify_pretrace"),
    ("oracle", "eval_delta_mp", "oracle.eval_delta_mp"),
    ("oracle", "delta_coeffs", "oracle.delta_coeffs"),
    ("cli", "main", "cli.main"),
)
COUNTED = (
    ("modgroup", "solve_top_row", "modgroup.solve_top_row"),
    ("halfplane", "moebius_apply", "halfplane.moebius_apply"),
)
# (module, class, method, span name)
METHODS = (
    ("equidist", "TestFunction", "__post_init__", "equidist.reference"),
    ("equidist", "BumpFunction2D", "__post_init__", "equidist.reference"),
)


def _note_kernel(out, args, kwargs):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {"terms": out.terms_used, "cosets": out.cosets_used,
            "tail_to_tol": out.tail_bound / cfg.tol}


def _note_nodes(out, args, kwargs):
    return {"nodes": out[3]}


def _note_norm(out, args, kwargs):
    # repeated calls return the cached object: its nodes were spent once
    return {"nodes": out.nodes, "result": id(out)}


NOTES = {
    "kernel.bergman_R": _note_kernel,
    "quadrature.adaptive": _note_nodes,
    "oracle.petersson_norm_delta": _note_norm,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []
        self._restore = []

    def _spanned(self, name, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)
        from cuspkernel import CuspKernelError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except CuspKernelError as exc:
                rec[4] = {"error": type(exc).__name__}
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                rec[4] = note(out, args, kwargs)
            return out

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        import importlib

        import cuspkernel

        modules = {m: importlib.import_module(f"cuspkernel.{m}") for m in
                   ("halfplane", "modgroup", "kernel", "quadrature", "equidist",
                    "oracle", "cli")}
        holders = [cuspkernel, *modules.values()]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for mod, attr, name in table:
                orig = getattr(modules[mod], attr)
                wrapper = make(name, orig)
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is orig:
                            setattr(holder, key, wrapper)
                            self._restore.append((holder, key, orig))
        for mod, cls_name, meth, name in METHODS:
            cls = getattr(modules[mod], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._spanned(name, orig))
            self._restore.append((cls, meth, orig))

    def uninstall(self):
        while self._restore:
            holder, key, orig = self._restore.pop()
            setattr(holder, key, orig)

    def absorb(self, dump: dict):
        """Add the spans and counts written by a traced child process."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for name, start, end, par, note in dump["spans"]:
            self.spans.append([name, start, end, par + base if par >= 0 else parent,
                               note])
        self.counts.update(dump["counts"])

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def layer_metrics(spans: list, counts: dict, rounds: int) -> dict:
    """Per-layer metrics per traced round, as {name: (value, unit)}."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = collections.Counter()
    total = collections.defaultdict(float)
    self_s = collections.defaultdict(float)
    durations = collections.defaultdict(list)
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child[i]
        durations[name].append(end - start)

    def under_integrate(i):
        while i >= 0:
            if spans[i][0] == "equidist.integrate":
                return True
            i = spans[i][3]
        return False

    kernel_ok = [s for s in spans if s[0] == "kernel.bergman_R"
                 and s[4] is not None and "terms" in s[4]]
    terms = sum(s[4]["terms"] for s in kernel_ok)
    cosets = sum(s[4]["cosets"] for s in kernel_ok)
    kernel_s = sum(s[2] - s[1] for s in kernel_ok)
    cutoff = sum(1 for s in spans if s[0] == "kernel.bergman_R"
                 and s[4] is not None and "error" in s[4])
    nodes = sum(s[4]["nodes"] for s in spans
                if s[0] == "quadrature.adaptive" and s[4])
    integ_nodes = sum(s[4]["nodes"] for i, s in enumerate(spans)
                      if s[0] == "quadrature.adaptive" and s[4] and under_integrate(i))
    integ_calls = sum(1 for i, s in enumerate(spans)
                      if s[0] == "kernel.bergman_R" and under_integrate(s[3]))
    norms = {s[4]["result"]: s[4]["nodes"] for s in spans
             if s[0] == "oracle.petersson_norm_delta" and s[4] and "nodes" in s[4]}

    def per(v):
        return v / rounds

    def ms(name):
        return 1000.0 * per(total[name])

    def self_ms(name):
        return 1000.0 * per(self_s[name])

    def ratio(a, b):
        return a / b if b else 0.0

    def median_ms(name):
        return 1000.0 * statistics.median(durations[name]) if durations[name] else 0.0

    tail_ratios = [s[4]["tail_to_tol"] for s in kernel_ok]
    return {
        "kernel.bergman_R.calls": (per(calls["kernel.bergman_R"]), "count"),
        "kernel.bergman_R.self_ms": (self_ms("kernel.bergman_R"), "ms"),
        "kernel.bergman_R.ms_p50": (median_ms("kernel.bergman_R"), "ms"),
        "kernel.terms": (per(terms), "count"),
        "kernel.cosets": (per(cosets), "count"),
        "kernel.terms_per_coset": (ratio(terms, cosets), "ratio"),
        "kernel.ns_per_term": (ratio(1e9 * kernel_s, terms), "ns"),
        "kernel.tail_to_tol": (statistics.median(tail_ratios) if tail_ratios
                               else 0.0, "ratio"),
        "kernel.cutoff_failed": (per(cutoff), "count"),
        "kernel.residual_certificate.self_ms":
            (self_ms("kernel.residual_certificate"), "ms"),
        "kernel.offdiagonal_sum_bound.calls":
            (per(calls["kernel.offdiagonal_sum_bound"]), "count"),
        "kernel.offdiagonal_sum_bound.self_ms":
            (self_ms("kernel.offdiagonal_sum_bound"), "ms"),
        "modgroup.solve_top_row.calls":
            (per(counts.get("modgroup.solve_top_row", 0)), "count"),
        "modgroup.min_displacement.calls":
            (per(calls["modgroup.min_displacement"]), "count"),
        "modgroup.min_displacement.self_ms":
            (self_ms("modgroup.min_displacement"), "ms"),
        "modgroup.elliptic_points_in_strip.calls":
            (per(calls["modgroup.elliptic_points_in_strip"]), "count"),
        "modgroup.elliptic_points_in_strip.self_ms":
            (self_ms("modgroup.elliptic_points_in_strip"), "ms"),
        "halfplane.moebius_apply.calls":
            (per(counts.get("halfplane.moebius_apply", 0)), "count"),
        "quadrature.adaptive.calls": (per(calls["quadrature.adaptive"]), "count"),
        "quadrature.adaptive.self_ms": (self_ms("quadrature.adaptive"), "ms"),
        "quadrature.nodes": (per(nodes), "count"),
        "equidist.integrate.self_ms": (self_ms("equidist.integrate"), "ms"),
        "equidist.reference.ms": (ms("equidist.reference"), "ms"),
        "equidist.kernel_calls_per_node": (ratio(integ_calls, integ_nodes), "ratio"),
        "oracle.petersson_norm_delta.ms": (ms("oracle.petersson_norm_delta"), "ms"),
        "oracle.petersson_norm_delta.nodes": (per(sum(norms.values())), "count"),
        "oracle.verify_pretrace.calls": (per(calls["oracle.verify_pretrace"]), "count"),
        "oracle.verify_pretrace.self_ms": (self_ms("oracle.verify_pretrace"), "ms"),
        "oracle.eval_delta_mp.ms": (ms("oracle.eval_delta_mp"), "ms"),
        "oracle.delta_coeffs.ms": (ms("oracle.delta_coeffs"), "ms"),
        "cli.main.calls": (per(calls["cli.main"]), "count"),
        "cli.main.self_ms": (self_ms("cli.main"), "ms"),
    }


def main(argv: list) -> int:
    if len(argv) < 3 or argv[0] != "--dump" or argv[2] != "--":
        print("usage: spans.py --dump PATH -- <cuspkernel arguments>", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import cuspkernel.cli

    tracer = Tracer()
    tracer.install()
    try:
        rc = cuspkernel.cli.main(argv[3:])
    finally:
        tracer.uninstall()
        Path(argv[1]).write_text(json.dumps(tracer.dump()))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
