"""Tests for coset enumeration, elliptic points, and displacement bounds."""

import math
import random
import re
import signal
import sys
import time

import mpmath as mp
import numpy as np
import pytest

from cuspkernel import (
    CutoffExceeded,
    GammaMatrix,
    Point,
    coset_row,
    elliptic_points_in_strip,
    fixed_point,
    hyp_distance,
    min_displacement,
    moebius_apply,
    pair_invariant,
)
from cuspkernel import modgroup
from cuspkernel.modgroup import (
    MAX_COSETS,
    coset_arrays,
    reduce_to_domain,
    sample_bulk,
    solve_top_row,
    translate_into_strip,
)

from coset_oracle import coset_table
from test_halfplane import random_gamma

SQRT3_2 = math.sqrt(3.0) / 2.0


def rng(seed=20250809):
    return np.random.Generator(np.random.Philox(seed))


def one_table(z, R):
    """coset_arrays of the one point z, as a list of (c, d, Q) triples."""
    c, d, Q, owner = coset_arrays(*np.array([[z.x], [z.y], [R]]))
    assert not owner.any()
    return list(zip(c.tolist(), d.tolist(), Q.tolist()))


def mp_reduction(z):
    """The image of the dyadic point z in the standard fundamental domain,
    by translations and inversions in mpmath, as two mpf coordinates.  The
    working precision grows with the depth of z below the real line: 80
    digits and 4 bits more for each binary order of magnitude below 1 (2
    were enough at 300 points from Im z = 1e-300 up, checked against an
    exact rational reduction)."""
    with mp.workprec(266 + 4 * max(0, -math.frexp(z.y)[1])):
        x, y = mp.mpf(z.x), mp.mpf(z.y)
        while True:
            x -= mp.nint(x)
            r = x * x + y * y
            if r >= 1:
                return x, y
            x, y = -x / r, y / r


def rounds_to(got, want):
    """Whether the float got is the mpf want rounded to the nearest float:
    float(want), or either neighbour where want lies within 2^-200 of a tie
    between them, as mp_reduction's error leaves an exact tie undecided
    (0.1+1e-50i goes to Re 1/2 - 2.5 ulp exactly)."""
    if float(want) == got:
        return True
    with mp.workprec(256):
        mid = (mp.mpf(got) + mp.mpf(math.nextafter(got, float(want)))) / 2
        return abs(want - mid) <= abs(want) * mp.mpf(2) ** -200


def assert_is_the_image(w, z):
    """w is mp_reduction(z) with each coordinate rounded once, where the
    edges Re = 1/2 and Re = -1/2, which a translation identifies, count as
    one."""
    x, y = mp_reduction(z)
    wx = w.x
    if abs(wx) == 0.5:
        x, wx = abs(x), 0.5
    assert rounds_to(wx, x) and rounds_to(w.y, y), (z, w, x, y)


def brute_force_sl2(entry_bound):
    """Every determinant-1 integer matrix with entries up to entry_bound."""
    out = []
    r = range(-entry_bound, entry_bound + 1)
    for a in r:
        for b in r:
            for c in r:
                for d in r:
                    if a * d - b * c == 1:
                        out.append(GammaMatrix(a, b, c, d))
    return out


class StabilizerSearchFailed(Exception):
    """The brute-force stabilizer search found a set that is not a group."""


def stabilizer(z0, search_bound=3):
    """Brute-force the full finite group {g : g z0 = z0}.

    Searches all determinant-1 matrices with entries bounded by
    search_bound and verifies the result is closed under multiplication.
    """
    found = [g for g in brute_force_sl2(search_bound)
             if pair_invariant(moebius_apply(g, z0), z0) < 1e-20]
    entries = {g.entries() for g in found}
    for g in found:
        for h in found:
            if (g * h).entries() not in entries:
                raise StabilizerSearchFailed(
                    f"stabilizer not closed at bound {search_bound}; "
                    f"missing {(g * h).entries()}"
                )
    return found


class TestCosetReps:
    # coset representatives come from coset_row (the d of each row c >= 1)
    # and solve_top_row (the canonical top row of each (c, d))

    def test_row_zero_is_refused(self):
        # row 0 holds only the identity coset (0, 1), which callers add
        with pytest.raises(ValueError):
            coset_row(0, Point(0.0, 1.0), 10.0)
        assert coset_row(1, Point(0.0, 1.0), 0.99) == []

    def test_cmax_one_contains_s_coset(self):
        ds = [d for d, _ in coset_row(1, Point(0.0, 1.0), 2.0)]
        assert ds == [-1, 0, 1]  # 0 is the inversion coset (1, 0)

    def test_one_rep_per_pair(self):
        z = Point(0.23, 0.4)
        for c in range(1, 7):
            row = coset_row(c, z, 90.0)
            ds = [d for d, _ in row]
            assert ds == sorted(set(ds))
            for d, Q in row:
                assert math.gcd(c, d) == 1
                assert Q == pytest.approx(abs(c * z.as_complex + d) ** 2,
                                          rel=1e-15)
                assert Q <= 90.0
                a, b = solve_top_row(c, d)
                assert a * d - b * c == 1 and 0 <= a < c

    def test_c5_count_per_period(self):
        # oracle: phi(5) = 4 residues coprime to 5 in any window of 5
        ds = [d for d, _ in coset_row(5, Point(0.0, 0.1), 24.5 ** 2)]
        direct = [d for d in range(-24, 25) if math.gcd(5, d) == 1]
        assert ds == direct
        for start in range(-20, 16):
            window = [d for d in ds if start <= d < start + 5]
            assert len(window) == 4

    def test_table_matches_brute_force(self):
        # oracle: every (c, d) with c > 0 coprime, or the identity (0, 1),
        # whose |cz+d|^2 is at most R
        z = Point(0.31, 0.27)
        R = 40.0
        want = {(0, 1)} | {
            (c, d) for c in range(1, 30) for d in range(-60, 61)
            if math.gcd(c, d) == 1 and abs(c * z.as_complex + d) ** 2 <= R
        }
        for table in (coset_table(z, R), one_table(z, R)):
            assert table[0] == (0, 1, 1.0)
            assert [(c, d) for c, d, _ in table] == sorted(want)

    @pytest.mark.parametrize("block", [None, 40])
    def test_arrays_match_the_table(self, monkeypatch, block):
        # coset_arrays of one point is the scalar coset_table as arrays,
        # triple for triple and bit for bit, also when its rows are taken
        # a few at a time
        if block is not None:
            monkeypatch.setattr(modgroup, "_BLOCK_CANDIDATES", block)
        gen = rng(17)
        for _ in range(150):
            y = math.exp(gen.uniform(math.log(0.01), math.log(50.0)))
            z = Point(float(gen.uniform(-2.0, 2.0)), y)
            # at most about 3000 cosets, and now and then none past (0, 1)
            R = math.exp(gen.uniform(math.log(0.5), math.log(3000.0 * y)))
            c, d, Q, owner = coset_arrays(*np.array([[z.x], [z.y], [R]]))
            assert ({a.dtype for a in (c, d, owner)} == {np.dtype(np.int64)}
                    and Q.dtype == np.float64 and not owner.any())
            table = list(zip(c.tolist(), d.tolist(), Q.tolist()))
            assert repr(table) == repr(coset_table(z, R))

    @pytest.mark.parametrize("block", [None, 40, 2000])
    def test_small_tables_match_the_table(self, monkeypatch, block):
        # coset_arrays of many points is coset_table of each point in turn,
        # with the point's index, triple for triple and bit for bit: small
        # tables that share a block, and at blocks of 2000 candidates now
        # and then a large one that takes blocks of its own between them
        if block is not None:
            monkeypatch.setattr(modgroup, "_BLOCK_CANDIDATES", block)
        gen = rng(19)
        for _ in range(40):
            n = int(gen.integers(1, 25))
            zs = [Point(float(gen.uniform(-2.0, 2.0)),
                        math.exp(gen.uniform(math.log(0.3), math.log(30.0))))
                  for _ in range(n)]
            # up to about 100 cosets a point, or 3000 for one in ten, and
            # now and then none past (0, 1)
            Rs = [math.exp(gen.uniform(math.log(0.5), math.log(
                (3000.0 if gen.uniform() < 0.1 else 100.0) * z.y)))
                for z in zs]
            c, d, Q, owner = coset_arrays(
                np.array([z.x for z in zs]), np.array([z.y for z in zs]),
                np.array(Rs))
            assert {a.dtype for a in (c, d, owner)} == {np.dtype(np.int64)}
            got = list(zip(c.tolist(), d.tolist(), Q.tolist(), owner.tolist()))
            want = [(*t, j) for j, (z, R) in enumerate(zip(zs, Rs))
                    for t in coset_table(z, R)]
            assert repr(got) == repr(want)

    def test_each_table_is_capped(self, monkeypatch):
        # the cap holds per table: tables of at most n cosets each pass a
        # cap of n, and a table of more cosets after them raises with its
        # own radius
        zs = [Point(0.1, 0.5), Point(-0.3, 0.7), Point(0.2, 0.05), Point(0.0, 1.0)]
        Rs = [30.0, 40.0, 2.0, 100.0]
        sizes = [len(coset_table(z, R)) for z, R in zip(zs, Rs)]
        n = max(sizes[:-1])
        assert sizes[-1] > n and sum(sizes[:-1]) > n
        monkeypatch.setattr(modgroup, "MAX_COSETS", n)
        x, y = np.array([[z.x, z.y] for z in zs]).T
        coset_arrays(x[:-1], y[:-1], np.array(Rs[:-1]))
        with pytest.raises(CutoffExceeded, match=r"more than \d+ cosets with "
                           r"\|cz\+d\|\^2 <= 1\.000e\+02"):
            coset_arrays(x, y, np.array(Rs))

    @pytest.mark.parametrize("R", [1e16, 1e38, 1e300])
    def test_a_row_past_the_cap_is_refused_before_it_is_built(self, R):
        # row c = 1 of the table holds about 2 sqrt(R) candidates d: 2e8,
        # then past int64's range; the count alone refuses the table.  A
        # count cast out of range would drop each row and walk the 1e19 or
        # 1e150 rows one by one: the timer ends that
        def hung(signum, frame):
            raise TimeoutError(f"no answer at R = {R} within 10 s")

        old = signal.signal(signal.SIGALRM, hung)
        signal.setitimer(signal.ITIMER_REAL, 10.0)
        try:
            with pytest.raises(CutoffExceeded, match=re.escape(f"<= {R:.3e}")):
                one_table(Point(0.0, 1.0), R)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)

    def test_the_fewest_cosets_are_a_lower_bound(self):
        # oracle: the size of the table coset_arrays builds, at points from
        # the bulk down to Im z = 2e-5 and radii of up to about 30000
        # cosets, near rationals of small denominator too, where the
        # lattice is a few lines of close points and the expected size
        # 3 R / (pi y) can be thousands against a table of 2.  The bound is
        # also within a factor 2 of a table of 300 cosets or more
        gen = rng(23)
        for _ in range(120):
            y = math.exp(gen.uniform(math.log(2e-5), math.log(30.0)))
            x = float(gen.choice([gen.uniform(-0.5, 0.5),
                                  round(gen.uniform(-0.5, 0.5), 1) + 1e-9]))
            R = math.exp(gen.uniform(math.log(0.5), math.log(3e4 * y)))
            size = len(one_table(Point(x, y), R))
            bound = modgroup._fewest_cosets(x, y, R)
            assert bound <= size
            if size >= 300:
                assert bound >= 0.5 * size

    @pytest.mark.parametrize("x, y, R", [(0.1, 1e-12, 8.0), (0.3, 1e-13, 8.0),
                                         (0.0, 1.0, 1.7e308)])
    def test_a_hopeless_table_is_refused_before_it_is_built(self, x, y, R):
        # 0.1+1e-12i: a table of about 7.6e12 cosets, once built up to the
        # cap's 3 million (about 0.9 s) before it raised; its lower bound
        # refuses it at once, with the cap's message
        start = time.perf_counter()
        with pytest.raises(CutoffExceeded, match=re.escape(
                f"more than {MAX_COSETS} cosets with |cz+d|^2 <= {R:.3e}")):
            one_table(Point(x, y), R)
        assert time.perf_counter() - start < 0.5

    def test_same_pair_differs_by_translation(self):
        # canonical rep has 0 <= a < c, so any other valid (a', b') for the
        # same (c, d) is a left translation of it
        a, b = solve_top_row(3, 2)
        g = GammaMatrix(a, b, 3, 2)
        other = GammaMatrix(g.a + 2 * g.c, g.b + 2 * g.d, g.c, g.d)
        shift = other * g.inverse()
        assert (shift.a, shift.c, shift.d) == (1, 0, 1)  # a power of T

    def test_array_top_rows_are_the_scalar_ones(self):
        # random coprime pairs with c >= 1 and d of either sign up to 1e7,
        # c = 1 among them; the scalar form is the reference
        gen = rng(14)
        c = np.concatenate([np.ones(50, np.int64),
                            gen.integers(2, 100, 2000),
                            gen.integers(2, 10**6, 2000)])
        d = gen.integers(-10**7, 10**7 + 1, len(c))
        keep = np.gcd(c, d) == 1
        c, d = c[keep], d[keep]
        a, b = solve_top_row(c, d)
        assert a.dtype == b.dtype == np.int64
        assert list(zip(a.tolist(), b.tolist())) == list(
            map(solve_top_row, c.tolist(), d.tolist()))
        assert (c == 1).sum() >= 40 and (d < 0).sum() > 1000
        empty = np.zeros(0, np.int64)
        assert [len(v) for v in solve_top_row(empty, empty)] == [0, 0]

    @pytest.mark.parametrize("c, d", [([3, 4], [2, 6]), ([5, 0], [2, 1]),
                                      ([2, -3], [1, 1]), ([2**40], [2**30 + 1])])
    def test_array_top_rows_reject_bad_pairs(self, c, d):
        # a common factor, the identity coset, a negative c, and a product
        # c d that int64 arithmetic could wrap
        with pytest.raises(ValueError):
            solve_top_row(np.array(c, np.int64), np.array(d, np.int64))


class TestEllipticPoints:
    def test_classical_points_at_one(self):
        pts = elliptic_points_in_strip(1)
        coords = sorted((round(p.location.x, 9), round(p.location.y, 9),
                         p.stabilizer_order) for p in pts)
        assert coords == [
            (-0.5, round(SQRT3_2, 9), 6),
            (0.0, 1.0, 4),
            (0.5, round(SQRT3_2, 9), 6),
        ]

    def test_both_edges_reported(self):
        pts = elliptic_points_in_strip(1)
        xs = {round(p.location.x, 9) for p in pts if p.stabilizer_order == 6}
        assert xs == {-0.5, 0.5}

    @pytest.mark.parametrize("Y", [1, 2, 5, 10])
    def test_count_bound(self, Y):
        assert len(elliptic_points_in_strip(Y)) <= 3 * Y

    def test_generators_fix_points(self):
        for e in elliptic_points_in_strip(4):
            assert e.location.y > 0.25
            img = moebius_apply(e.generator, e.location)
            assert hyp_distance(img, e.location) < 1e-12
            assert e.generator.trace_class == "elliptic"

    @pytest.mark.parametrize("Y, entry_bound", [(4, 9), (12, 10)])
    def test_against_brute_force_orbit(self, Y, entry_bound):
        # oracle: push i and e^{i pi/3} around with every small matrix
        found = set()
        rho = Point(0.5, SQRT3_2)
        floor = SQRT3_2 / Y  # heights down to sqrt(3)/(2Y)
        for g in brute_force_sl2(entry_bound):
            for base in (Point(0.0, 1.0), rho):
                p = moebius_apply(g, base)
                if abs(p.x) <= 0.5 + 1e-9 and p.y >= floor - 1e-9:
                    found.add((round(p.x, 8), round(p.y, 8)))
        listed = {(round(e.location.x, 8), round(e.location.y, 8))
                  for e in elliptic_points_in_strip(Y)}
        expected = {pt for pt in found if pt[1] >= round(floor, 8)}
        assert listed == expected

    def test_stabilizer_cyclic(self):
        for e in elliptic_points_in_strip(2):
            gen = e.generator
            group = stabilizer(e.location, search_bound=3)
            powers = set()
            acc = GammaMatrix.identity()
            for _ in range(e.stabilizer_order):
                powers.add(acc.entries())
                acc = acc * gen
            assert powers == {g.entries() for g in group}

    def test_low_points_keep_their_generators(self):
        # the lowest points at Y = 400 sit at height 2.2e-3, where the image
        # of a computed location under its generator is 2e-12 away from it
        pts = elliptic_points_in_strip(400)
        assert min(e.location.y for e in pts) < 2.2e-3
        for e in pts:
            fp = fixed_point(e.generator)
            z = e.location
            assert math.hypot(fp.x - z.x, fp.y - z.y) < 1e-12 * z.y

    def test_each_call_returns_a_new_list(self):
        # the points of a Y are kept, but not the list that holds them
        first = elliptic_points_in_strip(7.0)
        first.clear()
        again = elliptic_points_in_strip(7)
        assert len(again) == 11 and again is not elliptic_points_in_strip(7.0)
        assert again == elliptic_points_in_strip(7.0)

    def test_rejects_generator_of_another_point(self):
        from cuspkernel import EllipticPoint

        S = GammaMatrix.S()
        EllipticPoint(Point(0.0, 1.0), 4, S)
        with pytest.raises(ValueError, match="does not fix"):
            EllipticPoint(Point(1.0, 1.0), 4, S)  # S fixes i, not 1 + i
        with pytest.raises(ValueError, match="does not fix"):
            EllipticPoint(Point(0.0, 1.0 + 1e-6), 4, S)

    def test_rejects_wrong_order_generator(self):
        from cuspkernel import EllipticPoint

        rho = Point(0.5, SQRT3_2)
        u = GammaMatrix(1, -1, 1, 0)
        EllipticPoint(rho, 6, u)  # the true order-6 generator
        with pytest.raises(ValueError):
            EllipticPoint(rho, 6, -u)  # order 3 only
        with pytest.raises(ValueError):
            EllipticPoint(rho, 6, u * u)  # order 3 only


class TestStabilizer:
    def test_at_i(self):
        group = stabilizer(Point(0, 1))
        assert len(group) == 4
        entries = {g.entries() for g in group}
        assert (0, -1, 1, 0) in entries and (1, 0, 0, 1) in entries
        assert (-1, 0, 0, -1) in entries and (0, 1, -1, 0) in entries

    def test_at_rho(self):
        group = stabilizer(Point(0.5, SQRT3_2))
        assert len(group) == 6
        assert (1, -1, 1, 0) in {g.entries() for g in group}

    def test_generic_point(self):
        group = stabilizer(Point(0.3, 1.7))
        assert {g.entries() for g in group} == {(1, 0, 0, 1), (-1, 0, 0, -1)}


class TestMinDisplacement:
    def test_at_2i(self):
        g, d = min_displacement(Point(0, 2))
        np.testing.assert_allclose(d, math.acosh(9 / 8), rtol=1e-12)
        assert g.entries() in {(1, 1, 0, 1), (1, -1, 0, 1)}

    def test_at_i_includes_stabilizer(self):
        g, d = min_displacement(Point(0, 1))
        assert d == 0.0
        assert g.entries() == (0, -1, 1, 0)

    def test_matches_brute_force(self):
        # oracle: direct minimum over all small matrices
        pool = [g for g in brute_force_sl2(6)
                if g.entries() not in {(1, 0, 0, 1), (-1, 0, 0, -1)}]
        gen = rng(7)
        for _ in range(25):
            z = Point(float(gen.uniform(-0.5, 0.5)), float(gen.uniform(0.8, 2.0)))
            brute = min(hyp_distance(z, moebius_apply(g, z)) for g in pool)
            _, d = min_displacement(z)
            assert d <= brute + 1e-12
            np.testing.assert_allclose(d, brute, rtol=1e-10)

    def test_deterministic(self):
        z = Point(0.271, 1.313)
        assert min_displacement(z) == min_displacement(z)

    @pytest.mark.parametrize("y", [1e155, 1e300])
    def test_far_up_the_cusp(self, y):
        # a unit translation is the least displacement, 2 asinh(1/(2y)),
        # although 4 Im z Im gz overflows a double
        g, d = min_displacement(Point(0.1, y))
        assert g.c == 0 and abs(g.b) == 1
        want = 2.0 * math.asinh(1.0 / (2.0 * y))
        assert d == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n", [1, -2, 37, 10 ** 6, -10 ** 9, 10 ** 12])
    def test_far_point_gets_the_conjugate(self, n):
        # d(z, gz) is invariant under conjugating g by T^n, so a point far
        # along the real axis is searched at its translate into the strip
        for x0 in (0.13, -0.41, 0.5):
            z = Point(n + x0, 1.1)
            shifted = Point(z.x - round(z.x), z.y)
            assert abs(shifted.x) <= 0.5
            g0, d0 = min_displacement(shifted)
            g, d = min_displacement(z)
            assert g == GammaMatrix.T(round(z.x)) * g0 * GammaMatrix.T(-round(z.x))
            assert d == d0


    @pytest.mark.parametrize("y", [1e-6, 1e-8, 1e-50])
    def test_near_the_real_line(self, y):
        # searched at its reduction, a low point costs what a domain point
        # does; searched where it is, 0.1+1e-6i took 13 s, ten times more
        # per decade further down
        def hung(signum, frame):
            raise TimeoutError(f"no answer at Im z = {y} within 2 s")

        z = Point(0.1, y)
        old = signal.signal(signal.SIGALRM, hung)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            g, d = min_displacement(z)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
        assert g.entries() not in {(1, 0, 0, 1), (-1, 0, 0, -1)}
        assert g.c > 0 or (g.c == 0 and g.d == 1)
        # the minimum displacement is a class function of the orbit
        assert min_displacement(reduce_to_domain(z))[1] == d
        # and g moves z itself by d, up to the rounding of z: one ulp of
        # Re z is ulp / Im z of hyperbolic distance (7.5e-9 off at 1e-8)
        moved = hyp_distance(z, moebius_apply(g, z))
        assert abs(moved - d) <= 64 * math.ulp(z.x) / y

    def test_low_points_against_an_mpmath_reduction(self):
        # the distance at a low point is the one at its exact image: the
        # float reduction's image was off by up to 1.7e-2 of hyperbolic
        # distance at Im z = 1e-15, and its distance at 1e-14 read
        # 0.3293609974823089 where the exact image gives 0.32928316887492437
        gen = random.Random(7)
        for e in range(6, 15):
            for _ in range(4):
                z = Point(gen.uniform(-0.5, 0.5),
                          gen.uniform(1.0, 10.0) * 10.0 ** -e)
                _, d = min_displacement(z)
                _, want = min_displacement(Point(*map(float, mp_reduction(z))))
                assert d == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_below_the_domain_agrees_with_the_direct_search(self):
        z = Point(0.3, 0.05)
        g0, d0 = modgroup._displacement_search(z)
        g, d = min_displacement(z)
        assert d == pytest.approx(d0, rel=1e-12, abs=0.0)
        moved = hyp_distance(z, moebius_apply(g, z))
        assert moved == pytest.approx(d, rel=1e-12, abs=0.0)

    def test_domain_points_are_searched_where_they_are(self):
        gen = rng(31)
        for _ in range(20):
            z = Point(float(gen.uniform(-0.5, 0.5)), float(gen.uniform(1.0, 3.0)))
            if abs(z.as_complex) >= 1.0:
                assert min_displacement(z) == modgroup._displacement_search(z)


class TestTranslationAndReduction:
    def test_strip_points_are_kept(self):
        for z in (Point(0.5, 1.0), Point(-0.5, 0.2), Point(0.0, 3.0)):
            assert translate_into_strip(z) == (0, z)

    @pytest.mark.parametrize("x", [0.5000001, -0.75, 1.5, 2.5, 1e12 + 0.13, -7e15])
    def test_translation_is_exact(self, x):
        n, p = translate_into_strip(Point(x, 0.7))
        assert abs(p.x) <= 0.5 and p.y == 0.7
        assert p.x + n == x  # nothing was rounded away

    def test_domain_points_are_kept(self):
        # rho's nearest double lies 1e-17 inside the unit circle; the
        # relative margin of 1e-12 keeps it
        for z in (Point(0.5, SQRT3_2), Point(-0.31, 1.2), Point(0.0, 1.0),
                  Point(0.2, 40.0)):
            assert reduce_to_domain(z) is z

    def test_reduction_returns_the_domain_representative(self):
        # oracle: an image g z0 of an interior point z0 of the domain
        # reduces back to z0
        gen = rng(23)
        for _ in range(200):
            while True:
                z0 = Point(float(gen.uniform(-0.45, 0.45)),
                           float(gen.uniform(0.9, 3.0)))
                if abs(z0.as_complex) > 1.05:
                    break
            z = moebius_apply(random_gamma(gen), z0)
            w = reduce_to_domain(z)
            assert abs(w.x - z0.x) < 1e-9 and abs(w.y - z0.y) < 1e-9
        w = reduce_to_domain(Point(0.0, 0.3))
        assert (w.x, w.y) == (0.0, 1.0 / 0.3)

    @pytest.mark.parametrize("x, y", [(0.1, 1e-12), (0.1, 1e-50),
                                      (0.1, 1e-155), (0.1, 1e-200),
                                      (0.2887233511355132, 2.479010621819405e-294),
                                      (-0.25, 1.8004005261850446e-163),
                                      (0.5, 5e-324), (0.0, 5e-324)])
    def test_a_point_the_reduction_loses_is_a_cutoff(self, x, y):
        # a reduction in floating point lost the first six: hz cancelled in
        # cz + d (1e-12 gave Re 177635.9, 1e-50 Im 2.56e-48), |z|^2
        # underflowed on the way (1e-200), or Im hz or |cz+d|^2 underflowed
        # in the last step (the next two).  The exact reduction finds each
        # image; it loses only a point whose image is above the largest
        # float, as 2z - 1 takes 0.5+5e-324i to 5e322i and -1/z takes
        # 0+5e-324i to 2e323i
        z = Point(x, y)
        t0 = time.perf_counter()
        if y == 5e-324:
            with pytest.raises(CutoffExceeded,
                               match="above the largest float") as exc:
                reduce_to_domain(z)
            assert exc.value.best_tail_bound == math.inf
        else:
            assert_is_the_image(reduce_to_domain(z), z)
        assert time.perf_counter() - t0 < 1.0

    def test_the_reduction_is_exact_at_every_height(self):
        # dyadic points from Im z = 1e-300 to 1e300, near and far from the
        # strip: each image is in the domain, and is the exact image
        # rounded once.  None is above the largest float: x has a
        # denominator of at most 2^1126, so Im hz <= 1 / (c^2 y) stays
        # below about 1e269
        gen = random.Random(21)
        eps = sys.float_info.epsilon
        for _ in range(300):
            x = gen.uniform(-3.0, 3.0) * 10.0 ** gen.choice([0, 0, 0, 5, 15])
            z = Point(x, 10.0 ** gen.uniform(-300.0, 300.0))
            w = reduce_to_domain(z)
            assert abs(w.x) <= 0.5 and w.x * w.x + w.y * w.y >= 1.0 - 4 * eps
            assert_is_the_image(w, z)


class TestPaperBounds:
    def test_fixed_point_half_distance(self):
        # averaging bound: d(z, z0) >= d(z, gz)/2 for elliptic g fixing z0
        gen = rng(11)
        seeds = [GammaMatrix.S(), GammaMatrix(1, -1, 1, 0), GammaMatrix(0, -1, 1, -1)]
        count = 0
        while count < 10_000:
            w = GammaMatrix.T(int(gen.integers(-4, 5)))
            if gen.integers(0, 2):
                w = w * GammaMatrix.S() * GammaMatrix.T(int(gen.integers(-3, 4)))
            g = w * seeds[int(gen.integers(0, 3))] * w.inverse()
            z = Point(float(gen.uniform(-2, 2)), float(gen.uniform(0.1, 3.0)))
            z0 = fixed_point(g)
            moved = hyp_distance(z, moebius_apply(g, z))
            delta = float(gen.uniform(0.0, 1.0)) * moved
            if moved > delta:
                assert hyp_distance(z, z0) > delta / 2 - 1e-12
            count += 1

    @pytest.mark.parametrize("Y", [5.0, 10.0, 20.0])
    def test_uniform_lower_bound_sampled(self, Y):
        delta = 0.05
        zs = sample_bulk(Y, delta, 200, rng(int(Y)))
        bound = delta / (4.0 * Y)
        for z in zs:
            _, d = min_displacement(z)
            assert d > bound

    def test_non_elliptic_strip_bound(self):
        # u(z, gz) >= min(1/16, y^2/4) for non-elliptic g != +/-I
        pool = [g for g in brute_force_sl2(6)
                if abs(g.trace) >= 2
                and g.entries() not in {(1, 0, 0, 1), (-1, 0, 0, -1)}]
        gen = rng(13)
        Y = 10.0
        for _ in range(1000):
            z = Point(float(gen.uniform(-0.5, 0.5)),
                      float(gen.uniform(1.0 / Y, 2.0)))
            floor = min(1.0 / 16.0, z.y * z.y / 4.0)
            for g in pool:
                u = pair_invariant(z, moebius_apply(g, z))
                assert u >= floor - 1e-12

    def test_displacement_formula(self):
        # u(z, gz) = |c z^2 + (d-a) z - b|^2 / (2y)^2
        gen = rng(17)
        pool = brute_force_sl2(3)
        for _ in range(200):
            g = pool[int(gen.integers(0, len(pool)))]
            if g.entries() in {(1, 0, 0, 1), (-1, 0, 0, -1)}:
                continue
            z = Point(float(gen.uniform(-1, 1)), float(gen.uniform(0.2, 2.5)))
            zc = z.as_complex
            lhs = pair_invariant(z, moebius_apply(g, z))
            rhs = abs(g.c * zc * zc + (g.d - g.a) * zc - g.b) ** 2 / (2 * z.y) ** 2
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


class TestInBulk:
    # sample_bulk draws x, then y, from the rng and keeps the points of
    # F_delta: |x| <= 1/2, 1/Y < y < 2, farther than delta from every
    # elliptic point of the strip

    def test_elliptic_point_excluded(self):
        elist = elliptic_points_in_strip(10.0)
        for z in sample_bulk(10.0, 0.1, 300, rng(5)):
            assert min(hyp_distance(z, e.location) for e in elist) > 0.1

    def test_bulk_point(self):
        # oracle: replay the same draws and filter them independently,
        # with the distance from the pair invariant
        Y, delta, n = 10.0, 0.1, 50
        elist = elliptic_points_in_strip(Y)
        got = sample_bulk(Y, delta, n, rng(8))
        gen = rng(8)
        want = []
        while len(want) < n:
            z = Point(gen.uniform(-0.5, 0.5), gen.uniform(1.0 / Y, 2.0))
            u_min = min(pair_invariant(z, e.location) for e in elist)
            if math.acosh(1.0 + 2.0 * u_min) > delta:
                want.append(z)
        assert got == want

    def test_below_floor(self):
        for z in sample_bulk(10.0, 0.1, 300, rng(6)):
            assert 0.1 < z.y < 2.0 and abs(z.x) <= 0.5

    # also a delta that is not positive and a Y below 1
    @pytest.mark.parametrize("Y, delta", [(math.inf, 0.05), (math.nan, 0.05),
                                          (7.0, math.inf), (7.0, math.nan),
                                          (7.0, 0.0), (7.0, -0.1), (0.5, 0.05)])
    def test_region_rejects_non_finite(self, Y, delta):
        with pytest.raises(ValueError):
            sample_bulk(Y, delta, 1, rng(1))

    @pytest.mark.parametrize("Y", [math.inf, math.nan, 0.5])
    def test_elliptic_search_rejects_non_finite(self, Y):
        for _ in range(2):  # an error is not kept: each call raises
            with pytest.raises(ValueError):
                elliptic_points_in_strip(Y)

    def test_sampler_respects_bulk(self):
        elist = elliptic_points_in_strip(5.0)
        for z in sample_bulk(5.0, 0.05, 100, rng(3)):
            assert abs(z.x) <= 0.5 and 0.2 < z.y < 2.0
            assert all(hyp_distance(z, e.location) > 0.05 for e in elist)
