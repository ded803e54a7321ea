from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bilingap
from bilingap.envelopes import (
    DualCertificate,
    EvaluationPoint,
    dual_certificate,
    envelopes_halfpoint,
    evaluate_bilinear,
    gap_report,
    hull_envelopes_lp,
    mccormick_envelopes,
    mcgap_halfpoint,
)
from bilingap import cuts, envelopes, simplex
from bilingap.cli import main
from bilingap.cuts import ENUMERATION_CAP, all_subset_gamma
from bilingap.errors import CapacityError, CertificateError, InputError, InvariantViolationError
from bilingap.graph import (
    _SLACK, SignedWeightedGraph, VertexSubset, gamma_abs_weight, gamma_weight, write_instance
)
from bilingap.instances import hadamard_instance, random_pm1_complete

from conftest import TRIANGLE, enumerate_cut_values, oracle_hull, oracle_mu, random_int_graph

EDGE = SignedWeightedGraph(2, ((1, 2, 1.0),))


class TestEvaluationPoint:
    def test_partition(self):
        x = EvaluationPoint.from_iterable((0.0, 0.5, 1.0, 0.25))
        assert sorted(x.zero_support.members) == [1]
        assert sorted(x.one_support.members) == [3]
        assert sorted(x.fractional_support.members) == [2, 4]
        assert x.n == 4

    def test_half_point_detection_is_exact(self):
        assert EvaluationPoint.from_iterable((0.0, 0.5, 1.0)).is_half_point
        assert not EvaluationPoint.from_iterable((0.0, 0.5000001, 1.0)).is_half_point
        assert EvaluationPoint.all_half(3).is_half_point
        assert EvaluationPoint.from_iterable(()).is_half_point

    def test_more_coordinates_than_the_bitmask_cap_is_a_capacity_error(self):
        assert EvaluationPoint.all_half(63).fractional_support.mask == (1 << 63) - 1
        with pytest.raises(CapacityError, match="64 coordinates"):
            EvaluationPoint.all_half(64)

    def test_bounds_validated(self):
        with pytest.raises(InputError):
            EvaluationPoint.from_iterable((0.5, 1.2))
        with pytest.raises(InputError):
            EvaluationPoint.from_iterable((-0.1,))

    @pytest.mark.parametrize(
        "coords", [("0.5", 1), (0.5, None), (True, 0.5), (0.5, 1j), (10**400,)]
    )
    def test_rejects_non_real_coordinates(self, coords):
        with pytest.raises(InputError):
            EvaluationPoint(coords)

    def test_accepts_numpy_and_int_coordinates(self):
        x = EvaluationPoint((np.float32(0.5), np.int64(1), 0))
        assert x.coords == (0.5, 1.0, 0.0)
        assert all(type(c) is float for c in x.coords)

    def test_of_varargs(self):
        assert EvaluationPoint.of(0.5, 1.0).coords == (0.5, 1.0)

    def test_reads_a_one_shot_iterator_once(self):
        assert EvaluationPoint(iter([0.5, 0.25])).coords == (0.5, 0.25)
        with pytest.raises(InputError, match="coordinate 2"):
            EvaluationPoint(x for x in (0.5, 1.5))

    @pytest.mark.parametrize("coords", [5, 0.5, None])
    def test_rejects_coordinates_that_are_not_iterable(self, coords):
        with pytest.raises(InputError, match="coordinates must be real numbers"):
            EvaluationPoint(coords)

    @pytest.mark.parametrize("n", [True, 2.5, 3.0, "3", None, np.float64(3.0), -1])
    def test_all_half_rejects_a_non_integer_count(self, n):
        with pytest.raises(InputError, match="coordinate count"):
            EvaluationPoint.all_half(n)

    def test_all_half_takes_a_numpy_count(self):
        assert EvaluationPoint.all_half(np.int64(3)).coords == (0.5, 0.5, 0.5)


class TestEvaluateBilinear:
    def test_single_edge(self):
        assert evaluate_bilinear(EDGE, EvaluationPoint.of(0.5, 0.5)) == 0.25

    def test_triangle(self):
        assert evaluate_bilinear(TRIANGLE, EvaluationPoint.all_half(3)) == 0.75

    def test_mixed(self):
        g = SignedWeightedGraph(3, ((1, 2, 5.0), (1, 3, -2.0)))
        assert evaluate_bilinear(g, EvaluationPoint.of(1.0, 1.0, 0.5)) == 4.0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            evaluate_bilinear(TRIANGLE, EvaluationPoint.of(0.5, 0.5))


class TestMcCormick:
    def test_single_edge_interior(self):
        mcu, mcl = mccormick_envelopes(EDGE, EvaluationPoint.of(0.3, 0.8))
        assert mcu == pytest.approx(0.3, abs=1e-12)
        assert mcl == pytest.approx(0.1, abs=1e-12)

    def test_triangle_half(self):
        assert mccormick_envelopes(TRIANGLE, EvaluationPoint.all_half(3)) == (1.5, 0.0)

    @given(st.integers(0, 10**6), st.integers(2, 8), st.integers(0, 255))
    @settings(max_examples=60, deadline=None)
    def test_exact_at_binary_points(self, seed, n, mask):
        g = random_int_graph(seed, n)
        x = EvaluationPoint.from_iterable(float(mask >> k & 1) for k in range(n))
        mcu, mcl = mccormick_envelopes(g, x)
        bx = evaluate_bilinear(g, x)
        assert mcu == pytest.approx(bx, abs=1e-12)
        assert mcl == pytest.approx(bx, abs=1e-12)

    def test_per_edge_interval_bounds(self):
        # mcu/mcl equal per-edge optima of y over [max(0,xi+xj-1), min(xi,xj)]
        g = SignedWeightedGraph(3, ((1, 2, 2.0), (1, 3, -3.0), (2, 3, 1.0)))
        x = EvaluationPoint.of(0.7, 0.4, 0.9)
        mcu, mcl = mccormick_envelopes(g, x)
        up = lo = 0.0
        for i, j, w in g.edges:
            xi, xj = x.coords[i - 1], x.coords[j - 1]
            y_lo, y_hi = max(0.0, xi + xj - 1.0), min(xi, xj)
            assert y_lo <= y_hi + 1e-12
            up += w * (y_hi if w > 0 else y_lo)
            lo += w * (y_lo if w > 0 else y_hi)
        assert mcu == pytest.approx(up, abs=1e-12)
        assert mcl == pytest.approx(lo, abs=1e-12)


class TestMcgapHalfpoint:
    def test_triangle(self):
        assert mcgap_halfpoint(TRIANGLE, EvaluationPoint.all_half(3)) == 1.5

    def test_pm1_complete_formula(self):
        for n in (2, 5, 9):
            g = random_pm1_complete(n, seed=3)
            assert mcgap_halfpoint(g, EvaluationPoint.all_half(n)) == n * (n - 1) / 4

    def test_binary_point_zero(self):
        x = EvaluationPoint.from_iterable((0.0, 1.0, 1.0))
        assert mcgap_halfpoint(TRIANGLE, x) == 0.0

    def test_rejects_non_half(self):
        with pytest.raises(InputError):
            mcgap_halfpoint(TRIANGLE, EvaluationPoint.of(0.5, 0.5, 0.4))

    @given(st.integers(0, 10**6), st.integers(2, 8), st.integers(0, 3**8 - 1))
    @settings(max_examples=80, deadline=None)
    def test_equals_mccormick_difference(self, seed, n, code):
        g = random_int_graph(seed, n)
        coords = [(0.0, 0.5, 1.0)[(code // 3**k) % 3] for k in range(n)]
        x = EvaluationPoint.from_iterable(coords)
        mcu, mcl = mccormick_envelopes(g, x)
        assert mcgap_halfpoint(g, x) == pytest.approx(mcu - mcl, abs=1e-12)


class TestHullLp:
    def test_single_edge_matches_mccormick(self):
        x = EvaluationPoint.of(0.3, 0.8)
        cav, vex = hull_envelopes_lp(EDGE, x)
        assert cav == pytest.approx(0.3, abs=1e-9)
        assert vex == pytest.approx(0.1, abs=1e-9)

    def test_triangle_half(self):
        cav, vex = hull_envelopes_lp(TRIANGLE, EvaluationPoint.all_half(3))
        assert cav == pytest.approx(1.5, abs=1e-9)
        assert vex == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize(
        "coords", [(0.0, 1.0, 1.0), (0.3, 1.0, 1.0), (0.3, 0.6, 1.0), (0.3, 0.6, 0.2)]
    )
    def test_every_branch_returns_floats(self, coords):
        """f = 0, 1, 2 and >= 3 fractional coordinates, in the LP and in gap_report."""
        g = SignedWeightedGraph(3, ((1, 2, 1.0), (1, 3, -2.0), (2, 3, 1.5)))
        x = EvaluationPoint(coords)
        assert [type(v) for v in hull_envelopes_lp(g, x)] == [float, float]
        rep = gap_report(g, x)
        for key in ("mcu", "mcl", "cav", "vex", "mcgap", "chgap", "ratio"):
            assert type(getattr(rep, key)) is float, key

    def test_binary_point_is_tight(self):
        x = EvaluationPoint.from_iterable((1.0, 0.0, 1.0))
        cav, vex = hull_envelopes_lp(TRIANGLE, x)
        bx = evaluate_bilinear(TRIANGLE, x)
        assert cav == pytest.approx(bx, abs=1e-12)
        assert vex == pytest.approx(bx, abs=1e-12)

    def test_linalg_solve_only_for_the_certificates(self, monkeypatch):
        g = random_int_graph(11, 5, edge_prob=0.9)
        x = EvaluationPoint.from_iterable((0.3, 0.45, 0.6, 0.15, 0.8))
        solve = np.linalg.solve
        calls = []

        def counted(a, b):
            calls.append((a.shape, b.shape))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        hull_envelopes_lp(g, x)
        # The start tableau is built in closed form; the only solves are the
        # dual solve B^T pi = c_B of each side's certificate.
        assert calls == [((6, 6), (6,)), ((6, 6), (6,))]

    def test_f16_lp_keeps_one_cached_table(self):
        # a fresh interpreter, so no table is cached yet; the LP's equality
        # matrix is a view of the 8.5 MiB mask table that bit_matrix(16) also
        # views, where a second cached [bits; 1] copy held 16.5 MiB in all
        script = (
            "import random, tracemalloc\n"
            "import numpy as np\n"
            "from bilingap import cuts, envelopes\n"
            "from bilingap.instances import random_pm1_complete\n"
            "g = random_pm1_complete(16, 1)\n"
            "rnd = random.Random(16)\n"
            "x = envelopes.EvaluationPoint([round(rnd.uniform(0.02, 0.98), 3) for _ in range(16)])\n"
            "seen = []\n"
            "solve_min = envelopes.solve_min\n"
            "envelopes.solve_min = lambda a, *rest: seen.append(a) or solve_min(a, *rest)\n"
            "tracemalloc.start()\n"
            "envelopes.hull_envelopes_lp(g, x)\n"
            "size = tracemalloc.get_traced_memory()[0]\n"
            "print(size, all(np.shares_memory(cuts.bit_matrix(16), a) for a in seen), len(seen))\n"
        )
        src = str(Path(bilingap.__file__).resolve().parent.parent)
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        size, shared, solves = out.stdout.split()
        assert (shared, solves) == ("True", "2")
        assert int(size) < 10 * 2**20

    def test_size_cap(self):
        g = SignedWeightedGraph(17, ((1, 2, 1.0),))
        with pytest.raises(CapacityError):
            hull_envelopes_lp(g, EvaluationPoint.from_iterable([0.3] * 17))

    def test_cap_is_on_the_fractional_support_not_n(self):
        # n = 20 > LP_SIZE_CAP, but only the f = 3 fractional coordinates size the LP
        g = random_pm1_complete(20, 1)
        coords = [0.3, 0.7, 0.6] + [0.0] * 10 + [1.0] * 7
        x = EvaluationPoint.from_iterable(coords)
        cav, vex = hull_envelopes_lp(g, x)
        rep = gap_report(g, x)
        assert rep.method == "lp" and (rep.cav, rep.vex) == (cav, vex)
        # the ones fold into a fourth vertex held at 1; the zeros drop out
        w = g.weight_matrix
        ones = range(14, 21)
        edges = [(i, j, w[i, j]) for i, j in ((1, 2), (1, 3), (2, 3))]
        edges += [(i, 4, sum(w[i, o] for o in ones)) for i in (1, 2, 3)]
        folded = SignedWeightedGraph(4, tuple(e for e in edges if e[2]))
        base = gamma_weight(g, VertexSubset.from_members(ones))
        want_cav, want_vex = oracle_hull(folded, [0.3, 0.7, 0.6, 1.0])
        assert (cav, vex) == pytest.approx((base + want_cav, base + want_vex), abs=1e-9)

    @given(st.integers(0, 10**6), st.integers(2, 6), st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_matches_scipy_oracle(self, seed, n, point_seed):
        import random as _random

        g = random_int_graph(seed, n)
        rnd = _random.Random(point_seed)
        coords = [rnd.choice((0.0, 1.0, 0.5, round(rnd.random(), 3))) for _ in range(n)]
        cav, vex = hull_envelopes_lp(g, EvaluationPoint.from_iterable(coords))
        ocav, ovex = oracle_hull(g, coords)
        assert cav == pytest.approx(ocav, abs=1e-7)
        assert vex == pytest.approx(ovex, abs=1e-7)

    def test_certificate_fires_on_a_suboptimal_basis(self, monkeypatch, capsys, tmp_path):
        g = random_int_graph(11, 5, edge_prob=0.9)
        coords = (0.3, 0.45, 0.6, 0.15, 0.8)
        x = EvaluationPoint.from_iterable(coords)
        real_loop = simplex._pivot_loop
        pivots = []

        def counted(tab, basis, tol, max_iter):
            pivots.append(real_loop(tab, basis, tol, max_iter))
            return pivots[-1]

        monkeypatch.setattr(simplex, "_pivot_loop", counted)
        hull_envelopes_lp(g, x)
        assert min(pivots) > 0  # the staircase start is not optimal on either side
        # Stop at the start basis: its value is not the optimum, so the dual
        # certificate must reject it.
        monkeypatch.setattr(simplex, "_pivot_loop", lambda tab, basis, tol, max_iter: 0)
        with pytest.raises(InvariantViolationError, match="dual certificate"):
            hull_envelopes_lp(g, x)
        path = str(tmp_path / "g.json")
        write_instance(g, path)
        point = ",".join(map(str, coords))
        code = main(["eval", "--instance", path, "--point", point])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert "dual certificate" in err and "Traceback" not in err

    def test_certificate_rejects_a_negative_basic_value(self, monkeypatch, capsys, tmp_path):
        g = random_int_graph(11, 5, edge_prob=0.9)
        coords = (0.3, 0.45, 0.6, 0.15, 0.8)
        real_loop = simplex._pivot_loop

        def negated(tab, basis, tol, max_iter):
            status = real_loop(tab, basis, tol, max_iter)
            i = tab[:-1, -1].argmax()  # > 0: the basic values sum to 1
            tab[i, -1] = -tab[i, -1]
            return status

        monkeypatch.setattr(simplex, "_pivot_loop", negated)
        with pytest.raises(InvariantViolationError, match="not primal feasible"):
            hull_envelopes_lp(g, EvaluationPoint.from_iterable(coords))
        path = str(tmp_path / "g.json")
        write_instance(g, path)
        code = main(["eval", "--instance", path, "--point", ",".join(map(str, coords))])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert "not primal feasible" in err and "Traceback" not in err

    def test_large_weights_certify(self, capsys, tmp_path):
        # Rounding in the duals grows with |c| ~ 1e13 here, far above an
        # absolute 1e-9; the certificate's tolerance scales with max|c|, so
        # there is no spurious exit 3.
        scale = 1.37e12
        base = random_int_graph(5, 9, edge_prob=0.8)
        g = SignedWeightedGraph(9, tuple((i, j, w * scale) for i, j, w in base.edges))
        coords = (0.31, 0.5, 0.77, 0.12, 0.64, 0.5, 0.93, 0.28, 0.05)
        cav, vex = hull_envelopes_lp(g, EvaluationPoint.from_iterable(coords))
        ocav, ovex = oracle_hull(g, coords)
        assert cav == pytest.approx(ocav, rel=1e-9, abs=1e-9 * scale)
        assert vex == pytest.approx(ovex, rel=1e-9, abs=1e-9 * scale)
        path = str(tmp_path / "big.json")
        write_instance(g, path)
        code = main(["eval", "--instance", path, "--point", ",".join(map(str, coords))])
        out, _ = capsys.readouterr()
        assert code == 0
        assert json.loads(out)["cav"] == cav

    @pytest.mark.parametrize("f", range(3, 13))
    @pytest.mark.parametrize("kind", ["general", "degenerate"])
    def test_matches_highs_and_pure_bland(self, monkeypatch, f, kind):
        rnd = random.Random(1000 * f + len(kind))
        if kind == "general":
            n = f
            coords = [round(rnd.uniform(0.01, 0.99), 3) for _ in range(n)]
        else:
            # Halves make the LP degenerate; zeros and ones pin coordinates.
            n = f + 2
            coords = [rnd.choice((0.5, 0.5, round(rnd.uniform(0.01, 0.99), 2))) for _ in range(f)]
            coords += [0.0, 1.0]
            rnd.shuffle(coords)
        g = random_int_graph(f, n, edge_prob=0.7)
        x = EvaluationPoint.from_iterable(coords)
        assert len(x.fractional_support.members) == f
        cav, vex = hull_envelopes_lp(g, x)
        ocav, ovex = oracle_hull(g, coords)
        assert cav == pytest.approx(ocav, abs=1e-9)
        assert vex == pytest.approx(ovex, abs=1e-9)
        monkeypatch.setattr(simplex, "_DEGENERATE_RUN", 0)
        bcav, bvex = hull_envelopes_lp(g, x)
        assert cav == pytest.approx(bcav, abs=1e-9)
        assert vex == pytest.approx(bvex, abs=1e-9)


class TestEnvelopesHalfpoint:
    def test_triangle(self):
        x = EvaluationPoint.all_half(3)
        assert envelopes_halfpoint(TRIANGLE, x, 2.0, 0.0) == (1.5, 0.5, 1.0)

    def test_hadamard4_chgap(self):
        h = hadamard_instance(4)
        cav, vex, chgap = envelopes_halfpoint(h, EvaluationPoint.all_half(4), 3.0, -1.0)
        assert chgap == 2.0

    def test_binary_point(self):
        x = EvaluationPoint.from_iterable((1.0, 1.0, 0.0))
        cav, vex, chgap = envelopes_halfpoint(TRIANGLE, x, 0.0, 0.0)
        t_one = x.one_support
        assert chgap == 0.0
        assert cav == vex == gamma_weight(TRIANGLE, t_one)

    def test_rejects_non_half(self):
        with pytest.raises(InputError):
            envelopes_halfpoint(TRIANGLE, EvaluationPoint.of(0.4, 0.5, 0.5), 0.0, 0.0)

    def test_oracle_equivalence_exhaustive_small(self):
        for seed in range(6):
            n = 2 + seed
            g = random_int_graph(seed * 71 + 5, n)
            for coords in itertools.product((0.0, 0.5, 1.0), repeat=n):
                x = EvaluationPoint.from_iterable(coords)
                mu_plus, mu_minus = oracle_mu(g, x.fractional_support)
                cav_cf, vex_cf, _ = envelopes_halfpoint(g, x, mu_plus, mu_minus)
                cav_lp, vex_lp = hull_envelopes_lp(g, x)
                assert cav_lp == pytest.approx(cav_cf, abs=1e-9)
                assert vex_lp == pytest.approx(vex_cf, abs=1e-9)


@st.composite
def graph_and_point(draw):
    seed = draw(st.integers(0, 10**6))
    n = draw(st.integers(2, 8))
    g = random_int_graph(seed, n)
    kind = draw(st.integers(0, 2))
    if kind == 0:
        coords = [draw(st.sampled_from((0.0, 0.5, 1.0))) for _ in range(n)]
    elif kind == 1:
        coords = [draw(st.floats(0.0, 1.0, allow_nan=False)) for _ in range(n)]
    else:
        coords = [0.5] * n
    return g, EvaluationPoint.from_iterable(coords)


class TestSandwichProperty:
    @given(graph_and_point())
    @settings(max_examples=80, deadline=None)
    def test_mcl_vex_b_cav_mcu(self, gx):
        g, x = gx
        mcu, mcl = mccormick_envelopes(g, x)
        cav, vex = hull_envelopes_lp(g, x)
        bx = evaluate_bilinear(g, x)
        assert mcl <= vex + 1e-9
        assert vex <= bx + 1e-9
        assert bx <= cav + 1e-9
        assert cav <= mcu + 1e-9


class TestGapInvariances:
    @given(st.integers(0, 10**6), st.integers(2, 7))
    @settings(max_examples=40, deadline=None)
    def test_sign_flip_and_scaling(self, seed, n):
        g = random_int_graph(seed, n)
        x = EvaluationPoint.all_half(n)
        flipped = SignedWeightedGraph(n, tuple((i, j, -w) for i, j, w in g.edges))
        scaled = SignedWeightedGraph(n, tuple((i, j, 2.5 * w) for i, j, w in g.edges))
        rep = gap_report(g, x)
        rep_f = gap_report(flipped, x)
        rep_s = gap_report(scaled, x)
        assert rep_f.mcgap == pytest.approx(rep.mcgap, abs=1e-9)
        assert rep_f.chgap == pytest.approx(rep.chgap, abs=1e-9)
        assert rep_s.mcgap == pytest.approx(2.5 * rep.mcgap, abs=1e-9)
        assert rep_s.chgap == pytest.approx(2.5 * rep.chgap, abs=1e-9)
        if rep.chgap > 1e-12:
            assert rep_f.ratio == pytest.approx(rep.ratio, abs=1e-9)
            assert rep_s.ratio == pytest.approx(rep.ratio, abs=1e-9)


class TestDualCertificate:
    @pytest.mark.parametrize(
        "mu", [math.nan, math.inf, -math.inf, np.float64(math.nan), True, "1", None, 10**400],
        ids=["nan", "inf", "-inf", "numpy-nan", "True", "str", "None", "10**400"],
    )
    def test_rejects_a_non_finite_or_non_real_mu(self, mu):
        with pytest.raises(
            InputError, match=r"^mu (must be a (finite )?real number|\d+ is beyond the float range)"
        ):
            dual_certificate(TRIANGLE, VertexSubset.full(3), mu, "lower_envelope")

    def test_accepts_numpy_and_int_mu(self):
        for mu in (2, np.int64(2), np.float32(2.0)):
            cert = dual_certificate(TRIANGLE, VertexSubset.full(3), mu, "lower_envelope")
            assert cert.y == -1.0

    def test_triangle_lower(self):
        cert = dual_certificate(TRIANGLE, VertexSubset.full(3), 2.0, "lower_envelope")
        assert cert.y == -1.0
        assert cert.z == {1: 1.0, 2: 1.0, 3: 1.0}
        assert cert.objective == pytest.approx(0.5, abs=1e-12)

    def test_empty_support(self):
        cert = dual_certificate(TRIANGLE, VertexSubset.from_members([]), 0.0, "lower_envelope")
        assert cert.y == 0.0 and cert.z == {} and cert.objective == 0.0

    def test_negative_edge_upper(self):
        g = SignedWeightedGraph(2, ((1, 2, -3.0),))
        cert = dual_certificate(g, VertexSubset.full(2), -3.0, "upper_envelope")
        assert cert.y == 1.5
        assert cert.z == {1: -1.5, 2: -1.5}
        assert cert.objective == pytest.approx(0.0, abs=1e-12)

    def test_wrong_mu_raises_with_witness(self):
        with pytest.raises(CertificateError) as info:
            dual_certificate(TRIANGLE, VertexSubset.full(3), 1.0, "lower_envelope")
        assert info.value.violating_subset is not None

    def test_bad_side_tag(self):
        with pytest.raises(InputError):
            dual_certificate(TRIANGLE, VertexSubset.full(3), 2.0, "vex")

    def test_capacity(self):
        # the cut kernel's cap: mu itself comes from an enumeration of the support
        k = ENUMERATION_CAP + 1
        g = SignedWeightedGraph(k, ((1, 2, 1.0),))
        with pytest.raises(CapacityError, match=f"<= {ENUMERATION_CAP}, got {k}$"):
            dual_certificate(g, VertexSubset.full(k), 0.0, "lower_envelope")

    def test_subset_outside_the_graph_is_an_input_error(self):
        # checked before the size cap, as in extreme_cuts
        g = SignedWeightedGraph(5, ((1, 2, 1.0),))
        with pytest.raises(InputError):
            dual_certificate(g, VertexSubset.full(21), 0.0, "lower_envelope")

    @pytest.mark.parametrize("seed", range(6))
    def test_witness_is_the_first_violating_mask(self, seed):
        g = random_int_graph(seed * 7 + 3, 1 + seed % 6)
        for mask in range(1 << g.n):
            x = VertexSubset(mask)
            verts = sorted(x.members)
            cuts_by_mask = enumerate_cut_values(g, x)
            mu_plus, mu_minus = oracle_mu(g, x)
            near = 0.5 * _SLACK * gamma_abs_weight(g, x)  # half the certificate's tolerance
            dual_certificate(g, x, mu_plus - near, "lower_envelope")
            dual_certificate(g, x, mu_minus + near, "upper_envelope")
            for d in (0.5, 1.0, 3.0):
                for side, mu, violates in (
                    ("lower_envelope", mu_plus - d, lambda c, mu: c > mu + 2e-9),
                    ("upper_envelope", mu_minus + d, lambda c, mu: c < mu - 2e-9),
                ):
                    first = next(m for m, c in cuts_by_mask.items() if violates(c, mu))
                    with pytest.raises(CertificateError) as info:
                        dual_certificate(g, x, mu, side)
                    want = [verts[p] for p in range(len(verts)) if first >> p & 1]
                    assert sorted(info.value.violating_subset.members) == want

    def test_objective_matches_primal_all_subsets(self):
        for seed in range(8):
            g = random_int_graph(seed * 13 + 1, 6)
            for mask in range(1 << 6):
                x = VertexSubset(mask)
                mu_plus, mu_minus = oracle_mu(g, x)
                gam = gamma_weight(g, x)
                lo = dual_certificate(g, x, mu_plus, "lower_envelope")
                hi = dual_certificate(g, x, mu_minus, "upper_envelope")
                assert lo.objective == pytest.approx(0.5 * (gam - mu_plus), abs=1e-9)
                assert hi.objective == pytest.approx(0.5 * (gam - mu_minus), abs=1e-9)


def _counted(calls: list, fn):
    def wrapper(*args):
        calls.append(len(args[0]))
        return fn(*args)

    return wrapper


class TestOneTableBuilder:
    """Every per-mask weight table comes from cuts.subset_gamma, built once per call.

    The certificate builds no table: it runs the cut kernel's scan once.
    """

    def test_certificate_runs_one_scan(self, monkeypatch):
        scans, tables = [], []
        monkeypatch.setattr(envelopes, "subset_gamma", _counted(tables, cuts.subset_gamma))
        monkeypatch.setattr(envelopes, "_form_scan", _counted(scans, cuts._form_scan))
        g = random_int_graph(11, 5)
        for mask in (0, 0b1, 0b10110, 0b11111):
            x = VertexSubset(mask)
            mu_plus, mu_minus = oracle_mu(g, x)
            dual_certificate(g, x, mu_plus, "lower_envelope")
            dual_certificate(g, x, mu_minus, "upper_envelope")
        assert (scans, tables) == ([0, 0, 1, 1, 3, 3, 5, 5], [])

    def test_hull_lp_builds_one_table_when_a_coordinate_is_fractional(self, monkeypatch):
        calls = []
        monkeypatch.setattr(envelopes, "subset_gamma", _counted(calls, cuts.subset_gamma))
        g = random_int_graph(12, 5)
        points = (
            (0.0, 1.0, 1.0, 0.0, 1.0),  # f = 0: no table
            (0.3, 1.0, 0.0, 1.0, 1.0),
            (0.3, 0.6, 0.0, 1.0, 1.0),
            (0.3, 0.6, 0.2, 0.9, 1.0),
        )
        for coords in points:
            hull_envelopes_lp(g, EvaluationPoint(coords))
        assert calls == [1, 2, 4]

    def test_all_subset_gamma_reaches_the_builder_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cuts, "subset_gamma", _counted(calls, cuts.subset_gamma))
        all_subset_gamma(random_int_graph(13, 6), absolute=True)
        assert calls == [6]


class TestGapReport:
    def test_triangle_half(self):
        rep = gap_report(TRIANGLE, EvaluationPoint.all_half(3))
        assert rep.mcgap == pytest.approx(1.5, abs=1e-9)
        assert rep.chgap == pytest.approx(1.0, abs=1e-9)
        assert rep.ratio == pytest.approx(1.5, abs=1e-9)
        assert rep.method == "closed_form"
        assert not rep.degenerate

    def test_hadamard4(self):
        rep = gap_report(hadamard_instance(4), EvaluationPoint.all_half(4))
        assert rep.mcgap == pytest.approx(3.0, abs=1e-9)
        assert rep.chgap == pytest.approx(2.0, abs=1e-9)
        assert rep.ratio == pytest.approx(1.5, abs=1e-9)

    def test_single_edge_ratio_one(self):
        rep = gap_report(EDGE, EvaluationPoint.of(0.5, 0.5))
        assert rep.ratio == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_at_binary(self):
        rep = gap_report(EDGE, EvaluationPoint.of(1.0, 0.0))
        assert rep.degenerate
        assert rep.ratio == 1.0
        assert rep.mcgap == 0.0 and rep.chgap == 0.0

    @pytest.mark.parametrize("s", [1e-13, 1.0])
    def test_small_weights_are_not_degenerate(self, s):
        g = SignedWeightedGraph(3, ((1, 2, s), (1, 3, s), (2, 3, -s)))
        rep = gap_report(g, EvaluationPoint.all_half(3))
        assert not rep.degenerate
        assert rep.ratio == pytest.approx(1.5, rel=1e-12)

    def test_lp_method_at_generic_point(self):
        rep = gap_report(TRIANGLE, EvaluationPoint.of(0.3, 0.7, 0.6))
        assert rep.method == "lp"
        assert rep.mcgap == pytest.approx(rep.mcu - rep.mcl, abs=1e-12)
        assert rep.chgap == pytest.approx(rep.cav - rep.vex, abs=1e-9)

    def test_json_contract_fields(self):
        rep = gap_report(TRIANGLE, EvaluationPoint.all_half(3))
        d = rep.to_json_dict()
        for key in ("point", "mcu", "mcl", "cav", "vex", "mcgap", "chgap",
                    "ratio", "ratio_infinite", "degenerate", "method"):
            assert key in d
        assert d["ratio_infinite"] is False
        assert isinstance(d["ratio"], float)

    def test_negative_hull_gap_raises(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(envelopes, "hull_envelopes_lp", lambda g, x: (0.25 - 2e-9, 0.25))
        with pytest.raises(InvariantViolationError):
            gap_report(TRIANGLE, EvaluationPoint.of(0.3, 0.7, 0.6))
        path = tmp_path / "tri.json"
        write_instance(TRIANGLE, path)
        code = main(["eval", "--instance", str(path), "--point", "0.3,0.7,0.6"])
        assert code == 3
        assert "negative gap" in capsys.readouterr().err

    def test_negative_gap_within_tolerance_is_clamped(self, monkeypatch):
        monkeypatch.setattr(envelopes, "hull_envelopes_lp", lambda g, x: (0.25 - 1e-13, 0.25))
        rep = gap_report(TRIANGLE, EvaluationPoint.of(0.3, 0.7, 0.6))
        assert rep.chgap == 0.0

    def test_halfpoint_beyond_lp_cap_uses_closed_form(self):
        # n = 18 > LP cap, but the fractional support is small
        edges = tuple((i, i + 1, 1.0) for i in range(1, 18))
        g = SignedWeightedGraph(18, edges)
        coords = [1.0] * 16 + [0.5, 0.5]
        rep = gap_report(g, EvaluationPoint.from_iterable(coords))
        assert rep.method == "closed_form"


class TestHalfPointsAreWorstCase:
    def test_sampled_points_never_beat_half_point_ratio(self):
        # The worst mcgap/chgap ratio over sampled generic points should not
        # exceed the exact worst ratio over all half points (corroboration of
        # the half-point reduction; sampled, not a certificate).
        import random as _random

        for seed in (3, 17, 99):
            g = random_int_graph(seed, 5)
            best_c = 0.0
            for coords in itertools.product((0.0, 0.5, 1.0), repeat=5):
                rep = gap_report(g, EvaluationPoint.from_iterable(coords))
                if rep.chgap > 1e-9:
                    best_c = max(best_c, rep.mcgap / rep.chgap)
            rnd = _random.Random(seed)
            for _ in range(60):
                coords = [rnd.random() for _ in range(5)]
                rep = gap_report(g, EvaluationPoint.from_iterable(coords))
                assert rep.mcgap <= best_c * rep.chgap + 1e-7
