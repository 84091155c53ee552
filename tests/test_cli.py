"""End-to-end tests of the command-line interface and its exit codes."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cuspkernel.cli import build_parser, main, parse_point

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestParsing:
    def test_complex_literals(self):
        z = parse_point("0.13+1.1i")
        assert z.x == 0.13 and z.y == 1.1
        z = parse_point("-0.25+2i")
        assert z.x == -0.25 and z.y == 2.0

    def test_rejects_lower_half(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_point("0.5-1i")


class TestKernelCommand:
    def test_weight_400(self, capsys):
        rc, out, _ = run(capsys, "kernel", "--z", "0+1i", "--k", "400",
                         "--tol", "1e-12")
        assert rc == 0
        rec = json.loads(out)
        assert abs(rec["re"] - 4.0) < 1e-9
        assert rec["tail_bound"] < 1e-12

    def test_weight_402(self, capsys):
        rc, out, _ = run(capsys, "kernel", "--z", "0+1i", "--k", "402",
                         "--tol", "1e-12")
        rec = json.loads(out)
        assert rc == 0 and abs(complex(rec["re"], rec["im"])) < 1e-9

    def test_bulk_1600(self, capsys):
        rc, out, _ = run(capsys, "kernel", "--z", "0.13+1.1i", "--k", "1600")
        rec = json.loads(out)
        assert rc == 0 and abs(rec["re"] - 2.0) < 1e-3

    def test_cutoff_exit_code(self, capsys):
        rc, _, err = run(capsys, "kernel", "--z", "0+1i", "--k", "4",
                         "--tol", "1e-25")
        assert rc == 3 and "cutoff" in err

    def test_csv_format(self, capsys):
        # the CSV row holds the JSON record's values, each float in a
        # form that reads back to the same double
        for points in (("--z", "0+1i"),
                       ("--z", "0.3+0.7i", "--w", "0.1+0.9i")):
            argv = ("kernel", *points, "--k", "400")
            rc, out, _ = run(capsys, *argv, "--format", "csv")
            rc2, out2, _ = run(capsys, *argv)
            assert rc == rc2 == 0
            rec = json.loads(out2)
            header, row = out.splitlines()
            assert header == "k,re,im,tail_bound,terms_used,cosets_used"
            cells = dict(zip(header.split(","), row.split(",")))
            assert cells.keys() == rec.keys()
            for key, value in rec.items():
                if isinstance(value, float):
                    assert float(cells[key]) == value
                else:
                    assert cells[key] == str(value)

    def test_an_unrepresentable_tail_names_both_heights(self, capsys):
        # the lattice tail's ring count pi Q / Im z overflows, as Im z is
        # below the normal doubles
        rc, _, err = run(capsys, "kernel", "--z", "0.1+1e-310i",
                         "--w", "0.1+1i", "--k", "12")
        assert rc == 3
        assert err == ("cutoff exceeded: lattice tail bound not representable"
                       " at Im z = 1.000e-310, Im w = 1.000e+00\n")

    def test_off_diagonal_argument(self, capsys):
        rc, out, _ = run(capsys, "kernel", "--z", "0.3+0.7i", "--w", "0.1+0.9i",
                         "--k", "12", "--tol", "1e-12")
        rec = json.loads(out)
        rc2, out2, _ = run(capsys, "kernel", "--z", "0.1+0.9i", "--w", "0.3+0.7i",
                           "--k", "12", "--tol", "1e-12")
        rec2 = json.loads(out2)
        assert rc == rc2 == 0
        assert abs(rec["re"] - rec2["re"]) < 1e-10
        assert abs(rec["im"] + rec2["im"]) < 1e-10  # Hermitian pair


class TestScanCommand:
    def test_grid_rows(self, capsys):
        rc, out, _ = run(capsys, "scan", "--grid", "0,0.4,3,1,1.4,3",
                         "--k", "36")
        lines = out.strip().splitlines()
        assert rc == 0
        assert lines[0] == "x,y,k,re_R,im_R,tail_bound,terms_used"
        assert len(lines) == 10

    def test_near_zero_density_node(self, capsys):
        rc, out, _ = run(capsys, "scan", "--grid", "0,0,1,1,1,1", "--k", "402")
        row = out.strip().splitlines()[1].split(",")
        assert rc == 0 and abs(float(row[3])) < 1e-9

    def test_deterministic_bytes(self, capsys):
        args = ("scan", "--grid=-0.3,0.3,4,0.9,1.5,3", "--k", "48")
        rc1, out1, _ = run(capsys, *args)
        rc2, out2, _ = run(capsys, *args)
        assert rc1 == rc2 == 0 and out1 == out2

    def test_malformed_grid(self, capsys):
        rc, _, err = run(capsys, "scan", "--grid", "0,1,3")
        assert rc == 2 and "grid" in err


class TestLemmasCommand:
    def test_pass_and_determinism(self, capsys):
        args = ("lemmas", "--Y", "10", "--delta", "0.05", "--samples", "100",
                "--seed", "7")
        rc1, out1, _ = run(capsys, *args)
        rc2, out2, _ = run(capsys, *args)
        assert rc1 == rc2 == 0
        assert out1 == out2
        rec = json.loads(out1)
        assert rec["pass"] and rec["min_observed"] > rec["bound"]
        assert rec["rng"] == "philox"


class TestIntegralCommands:
    def test_vertical_sweep(self, capsys):
        rc, out, _ = run(capsys, "vertical", "--x", "0.13", "--support", "1,2",
                         "--k", "300,600,1200", "--unsafe")
        assert rc == 0
        recs = json.loads(out)
        gaps = [abs(r["gap"]) / r["reference"] for r in recs]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.01

    def test_vertical_window_exit(self, capsys):
        rc, _, err = run(capsys, "vertical", "--x", "0.13", "--support", "1,2",
                         "--k", "300")
        assert rc == 2 and "window" in err

    def test_horizontal_constant(self, capsys):
        rc, out, _ = run(capsys, "horizontal", "--y", "1.3", "--k", "1200")
        recs = json.loads(out)
        assert rc == 0
        assert abs(recs[0]["integral"] - 0.954930) < 0.01

    def test_region(self, capsys):
        rc, out, _ = run(capsys, "region", "--center", "0.1,1.2",
                         "--radius", "0.2", "--k", "120")
        recs = json.loads(out)
        assert rc == 0 and recs[0]["reference"] > 0

    @pytest.mark.parametrize("center, radius", [
        ("0.1,1.5", "1e-20"), ("0,1e300", "0.2"), ("0,1e200", "1e199")])
    def test_unrepresentable_disk(self, capsys, center, radius):
        # every chord of such a disk is one float, or its reference
        # overflows: exit 2, not a perfect gap of 0.0 or a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, "region", f"--center={center}",
                               f"--radius={radius}", "--k", "1200", "--unsafe")
        assert rc == 2 and out == "" and err.startswith("error: ")

    def test_horizontal_bump_psi(self, capsys):
        rc, out, _ = run(capsys, "horizontal", "--y", "1.3", "--k", "1200",
                         "--psi", "bump:-0.4,0.4")
        recs = json.loads(out)
        assert rc == 0
        assert abs(recs[0]["gap"]) / recs[0]["reference"] < 0.01

    def test_bad_psi(self, capsys):
        rc, _, err = run(capsys, "horizontal", "--y", "1.3", "--psi", "wave")
        assert rc == 2 and "psi" in err

    def test_sweep_csv_rows(self, capsys):
        rc, out, _ = run(capsys, "vertical", "--x", "0.13", "--support", "1,2",
                         "--k", "600,1200", "--unsafe", "--format", "csv")
        lines = out.strip().splitlines()
        assert rc == 0
        assert lines[0] == ("k,x_or_y,integral,reference,gap,"
                            "reported_error,nodes,wall_time_ms")
        assert len(lines) == 3
        assert lines[1].startswith("600,0.13,")
        assert lines[2].startswith("1200,0.13,")
        # a region has no line, so no x_or_y column
        rc, out, _ = run(capsys, "region", "--center", "0.1,1.2",
                         "--radius", "0.2", "--k", "120", "--format", "csv")
        lines = out.splitlines()
        assert rc == 0 and len(lines) == 2
        assert lines[0] == ("k,integral,reference,gap,reported_error,"
                            "nodes,wall_time_ms")
        assert lines[1].startswith("120,")

    def test_zero_support_gap(self, capsys):
        # a bump well inside the bulk at high weight: tiny gap
        rc, out, _ = run(capsys, "vertical", "--x", "0.13", "--support",
                         "1.1,1.9", "--k", "1200")
        recs = json.loads(out)
        assert rc == 0
        assert abs(recs[0]["gap"]) / recs[0]["reference"] < 0.01


class TestPretraceCommand:
    def test_residual_threshold_flag(self, capsys):
        rc, out, _ = run(capsys, "pretrace", "--points", "1", "--seed", "42",
                         "--max-residual", "1e-30")
        rec = json.loads(out)
        assert rc == 4 and not rec["pass"] and rec["tol"] == 1e-30

    def test_single_point_passes(self, capsys):
        rc, out, _ = run(capsys, "pretrace", "--points", "1", "--seed", "42")
        rec = json.loads(out)
        assert rc == 0 and rec["pass"]
        assert rec["max_residual"] < 1e-8

    def test_deterministic_bytes(self, capsys):
        args = ("pretrace", "--points", "2", "--seed", "5")
        rc1, out1, _ = run(capsys, *args)
        rc2, out2, _ = run(capsys, *args)
        assert rc1 == rc2 == 0 and out1 == out2


class TestDumpCommands:
    def test_elliptic_csv(self, capsys, tmp_path):
        out_path = tmp_path / "e.csv"
        rc, _, _ = run(capsys, "elliptic", "--Y", "2", "--out", str(out_path))
        assert rc == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "x,y,stab_order,gen_a,gen_b,gen_c,gen_d"
        assert len(lines) == 6

    @pytest.mark.parametrize("Y", ["1e16", "1e300"])
    def test_an_orbit_past_the_coset_cap_is_a_cutoff(self, Y):
        # the orbit of i below height sqrt(3)/(2Y) has about 2Y/sqrt(3)
        # candidates d in row c = 1 of its coset table: at 1e16 a table
        # past the cap, at 1e300 a count past int64's range.  Each must end
        # in the cap's CutoffExceeded, in a child limited to 2 GB of
        # address space, where building the row would end in MemoryError
        rc, _, err = fresh_process(["elliptic", "--Y", Y], address_space=2 << 30)
        assert rc == 3 and err.startswith("cutoff exceeded: more than 3000000")

    @pytest.mark.parametrize("argv", [
        ["elliptic", "--Y", "1.7e308"],
        ["vertical", "--x", "0.13", "--k", "1200", "--Y", "1.7e308"]])
    def test_a_height_floor_past_the_float_range_is_the_caps_cutoff(
            self, capsys, argv):
        # above Y of about 1.55e308 the orbit bound 2Y/sqrt(3) is no float;
        # the table still ends in the cap's cutoff, not in OverflowError
        rc, _, err = run(capsys, *argv)
        assert rc == 3
        assert err.startswith("cutoff exceeded: more than 3000000 cosets")

    def test_coeffs(self, capsys):
        rc, out, _ = run(capsys, "coeffs", "--n", "5")
        lines = out.strip().splitlines()
        assert rc == 0 and lines[0] == "n,a_n"
        assert lines[1] == "1,1" and lines[2] == "2,-24" and len(lines) == 6


class TestGoldenBytes:
    # elliptic generators follow the coset enumeration order, and scan
    # prints 17 digits, so a change in either the order or the rounding
    # of |cz+d|^2 shows here; pretrace pins the oracle path, the Petersson
    # norm included, against the kernel
    @pytest.mark.parametrize("argv, name", [
        (("scan", "--grid=-0.5,0.5,9,0.3,2.5,9", "--k", "24"), "scan_k24.csv"),
        (("elliptic", "--Y", "40"), "elliptic_Y40.csv"),
        (("pretrace", "--points", "20", "--seed", "20250809"),
         "pretrace_p20.json"),
    ])
    def test_output_matches_golden_file(self, capsys, tmp_path, argv, name):
        want = (GOLDEN / name).read_bytes()
        rc, out, _ = run(capsys, *argv)
        assert rc == 0 and out.encode() == want
        path = tmp_path / name
        rc, _, _ = run(capsys, *argv, "--out", str(path))
        assert rc == 0 and path.read_bytes() == want


FLAGS = {
    "kernel": {"z", "w", "k", "tol", "out", "format"},
    "scan": {"grid", "k", "tol", "out"},
    "lemmas": {"samples", "Y", "delta", "seed", "out"},
    "vertical": {"x", "support", "k", "tol", "Y", "out", "format", "unsafe"},
    "horizontal": {"y", "psi", "k", "tol", "Y", "out", "format", "unsafe"},
    "region": {"center", "radius", "k", "tol", "out", "format", "unsafe"},
    "pretrace": {"points", "seed", "max-residual", "out"},
    "elliptic": {"Y", "out"},
    "coeffs": {"n", "out"},
}


class TestFlags:
    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        sub = next(a for a in build_parser()._actions
                   if a.dest == "command")
        got = {}
        for name, parser in sub.choices.items():
            got[name] = {opt[2:] for a in parser._actions
                         for opt in a.option_strings if opt != "--help"
                         and opt != "-h"}
        assert got == FLAGS
        assert sum(len(v) for v in got.values()) == 46

    def test_pretrace_refuses_a_weight(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pretrace", "--k", "24", "--points", "1"])
        assert exc.value.code == 2
        assert "--k" in capsys.readouterr().err


def without_timings(text):
    """An integral record's output but its wall_time_ms, which varies."""
    return re.sub(r'"wall_time_ms": [^,\n]*', '"wall_time_ms": -', text)


def fresh_process(argv, address_space=None):
    """(exit code, stdout, stderr) of the command line in a new interpreter,
    with at most address_space bytes of virtual memory if it is given."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    limit = None
    if address_space is not None:
        resource = pytest.importorskip("resource")
        # a BLAS thread pool reserves address space per core
        env["OPENBLAS_NUM_THREADS"] = "1"

        def limit():
            resource.setrlimit(resource.RLIMIT_AS,
                               (address_space, address_space))
    proc = subprocess.run([sys.executable, "-m", "cuspkernel.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120,
                          preexec_fn=limit)
    return proc.returncode, without_timings(proc.stdout), proc.stderr


class TestParserCache:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("first, then", [
        (["kernel", "--z=0.13+1.1i", "--tol=1e-12"], ["kernel", "--z=0.13+1.1i"]),
        (["horizontal", "--y=1.1", "--k", "300,600"], ["horizontal", "--y=1.1"]),
        (["kernel", "--z=0.13+1.1i", "--w=0.2+1.3i", "--k=24"],
         ["kernel", "--z=0.13+1.1i", "--k=24"]),
    ])
    def test_a_flag_does_not_outlive_its_call(self, capsys, first, then):
        # each call prints what a new process prints: the --tol, --k list
        # or --w of the call before does not leak into the defaults (the
        # horizontal default k = 12 is outside the height window: exit 2)
        for argv in (first, then, first):
            rc, out, err = run(capsys, *argv)
            assert (rc, without_timings(out), err) == fresh_process(argv)


@pytest.mark.parametrize("argv, code", [
    (["lemmas", "--samples", "0"], 2),
    (["lemmas", "--samples", "-3"], 2),
    (["lemmas", "--Y", "1", "--delta", "5", "--samples", "1"], 3),
    (["lemmas", "--Y", "0"], 2),
    (["lemmas", "--delta", "-1"], 2),
    (["lemmas", "--Y", "3", "--samples", "2", "--seed", "1"], 0),
    (["lemmas", "--samples", "x"], 2),
    (["pretrace", "--points", "0"], 2),
    (["elliptic", "--Y", "0.5"], 2),
    (["coeffs", "--n", "0"], 2),
    (["vertical", "--x", "0.1", "--support", "2"], 2),
    (["region", "--center", "0.1", "--k", "120"], 2),
    (["scan", "--grid", "0,0,1,1,1,1", "--k", "7"], 2),
    (["elliptic", "--Y", "inf"], 2),
    (["lemmas", "--Y", "inf"], 2),
    (["coeffs", "--n", "100000000000000000000"], 3),
    (["kernel", "--z", "0+1i", "--tol", "inf"], 2),
    (["lemmas", "--delta", "nan"], 2),
    (["pretrace", "--max-residual", "nan"], 2),
    (["pretrace", "--max-residual", "0"], 2),
    (["vertical", "--x", "0.1", "--k", "1200", "--Y", "nan"], 2),
    (["kernel", "--z", "0+1i", "--out", "no-such-dir/out.json"], 2),
    (["vertical", "--x", "0.1", "--k", "1200", "--support", "1,inf"], 2),
    (["region", "--k", "1200", "--radius", "nan"], 2),
    (["vertical", "--x", "0.1", "--k", "1200,x"], 2),
    (["vertical", "--x", "0.13", "--k", "24", "--sweep", "1200"], 2),
    (["horizontal", "--y", "1.3", "--k", "1200", "--A", "2"], 2),
    (["kernel", "--z", "0.1+1e-200i", "--k", "12"], 3),
    # an off-diagonal pair is not reduced, and the table at 0.1+1e-12i
    # passes the coset cap; 0.1+1e-8i reduces far up the cusp
    (["kernel", "--z", "0.1+1e-12i", "--w", "0.2+1e-12i", "--k", "1200"], 3),
    (["kernel", "--z", "0.1+1e-8i", "--k", "1200"], 0),
    # faults F1 and F2 of the benchmark: a table out of reach, reduced,
    # and a translation line past the term cap, summed by Lipschitz
    (["kernel", "--z", "0+0.05i", "--k", "12"], 0),
    (["kernel", "--z", "0+100000i", "--k", "12"], 0),
    # 0.1+1e-12i reduces to a translation line at height 1e10
    (["kernel", "--z", "0.1+1e-12i", "--k", "1200"], 0),
    # the lattice radius is reached on the diagonal to the top of the
    # doubles, and the translation line there is Lipschitz's, value 0
    (["kernel", "--z", "0.1+1.7e308i", "--k", "1200"], 0),
])
def test_exits_with_a_documented_code(capsys, argv, code):
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == code
    assert "Traceback" not in err


# Property test: every subcommand, argv drawn from a small token pool.  Each
# flag takes one of its cheap valid values or a bad one; flags whose default
# would make a run slow (a weight-12 integral, 1000 lemma samples, 20
# pre-trace points) are always drawn.  A valid pretrace takes --points 1 or 2:
# one kernel evaluation at tol 1e-14 per point, after one Petersson norm of
# under a second that every later run reads from the cache.
BAD = ("0", "-1", "nan", "inf", "x")
# subcommand -> (flags always drawn, flags drawn or left out); flag -> the
# valid tokens it adds to BAD, or None for a switch
COMMANDS = {
    "kernel": ({"z": ("0.13+1.1i", "0.5+0.2i", "0+0.05i", "nan+1i")},
               {"w": ("0.1+0.9i",), "k": ("12", "1200"), "tol": ("1e-6",),
                "format": ("csv", "json"), "out": ()}),
    "scan": ({"grid": ("0,0.2,2,1,1.2,2", "0,0,1,nan,1,1", "0,inf,2,1,1.2,2",
                       "0,1,3")},
             {"k": ("12", "1200"), "tol": ("1e-6",), "out": ()}),
    "lemmas": ({"samples": ("3",)},
               {"Y": ("7", "1"), "delta": ("0.05", "5"), "seed": ("1",),
                "out": ()}),
    "vertical": ({"x": ("0.13", "0.7"), "k": ("1200", "1200,1204")},
                 {"support": ("1,2", "nan,2", "1,inf", "2,1"), "tol": ("1e-6",),
                  "Y": ("7", "1"), "format": ("csv", "json"),
                  "unsafe": None, "out": ()}),
    "horizontal": ({"y": ("1.3", "3"), "k": ("1200", "1200,1204")},
                   {"psi": ("const", "indicator:0,0.5", "bump:-0.4,0.4",
                            "bump:nan,0.4", "indicator:-inf,0.5", "wave"),
                    "tol": ("1e-6",), "Y": ("7", "1"),
                    "format": ("csv", "json"), "unsafe": None, "out": ()}),
    "region": ({"k": ("1200", "1200,1204"), "radius": ("0.02",)},
               {"center": ("0.1,1.2", "0.1,inf", "nan,1.2", "0.1"),
                "tol": ("1e-6",), "format": ("csv", "json"), "unsafe": None,
                "out": ()}),
    "pretrace": ({"points": ("1", "2")},
                 {"max-residual": ("1e-8",), "seed": ("1",), "out": ()}),
    "elliptic": ({}, {"Y": ("7", "1"), "out": ()}),
    "coeffs": ({}, {"n": ("5", "100000000000000000000"), "out": ()}),
}


@pytest.fixture(scope="module")
def out_paths(tmp_path_factory):
    """--out tokens: a writable file, a missing directory, a directory, stdout."""
    d = tmp_path_factory.mktemp("out")
    return (str(d / "out.txt"), str(d / "missing" / "out.txt"), str(d), "")


@st.composite
def argvs(draw, out_paths):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    always, optional = COMMANDS[name]
    flags = list(always.items())
    flags += [item for item in optional.items() if draw(st.booleans())]
    argv = [name]
    for flag, valid in draw(st.permutations(flags)):
        argv.append(f"--{flag}")
        if valid is not None:
            pool = out_paths if flag == "out" else valid + BAD
            argv.append(draw(st.sampled_from(pool)))
    return argv


def test_every_argv_ends_in_a_documented_code(out_paths):
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(argvs(out_paths))
    def check(argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
        assert rc in (0, 2, 3, 4), (argv, rc, err.getvalue())
        assert "Traceback" not in err.getvalue()

    check()
