"""End-to-end acceptance gate.

Each test covers one headline guarantee, prints a PASS/FAIL line in the
terminal summary, and fails loudly if the guarantee is missed.  Runtime
budgets are asserted where a criterion carries one.
"""
from __future__ import annotations

import itertools
import math
import random
import time

from bilingap.cli import main as cli_main
from bilingap.cuts import (
    all_subset_cut_extremes,
    all_subset_gamma,
    cut_range_bruteforce,
)
from bilingap.envelopes import (
    EvaluationPoint,
    dual_certificate,
    envelopes_halfpoint,
    hull_envelopes_lp,
    mccormick_envelopes,
    mcgap_halfpoint,
)
from bilingap.experiments import (
    ExperimentConfig,
    run_experiment,
    uniform_real_complete,
)
from bilingap.graph import (
    SignedWeightedGraph,
    VertexSubset,
    gamma_abs_weight,
)
from bilingap.hullcheck import check_hull_exact
from bilingap.instances import hadamard_instance, random_pm1_complete

from conftest import random_int_graph, record_acceptance, strip_wall_times


def test_criterion_1_closed_form_vs_lp():
    sizes = [8] * 15 + [7] * 20 + [6] * 35 + [5] * 40 + [4] * 30 + [3] * 30 + [2] * 30
    assert len(sizes) == 200
    start = time.monotonic()
    worst_hull = 0.0
    worst_mc = 0.0
    points_checked = 0
    for idx, n in enumerate(sizes):
        g = random_int_graph(1000 + idx, n)
        mu_plus, mu_minus = all_subset_cut_extremes(g)
        for coords in itertools.product((0.0, 0.5, 1.0), repeat=n):
            x = EvaluationPoint.from_iterable(coords)
            tf = x.fractional_support.mask
            cav_cf, vex_cf, _ = envelopes_halfpoint(g, x, mu_plus[tf], mu_minus[tf])
            cav_lp, vex_lp = hull_envelopes_lp(g, x)
            worst_hull = max(worst_hull, abs(cav_lp - cav_cf), abs(vex_lp - vex_cf))
            mcu, mcl = mccormick_envelopes(g, x)
            worst_mc = max(worst_mc, abs((mcu - mcl) - mcgap_halfpoint(g, x)))
            points_checked += 1
    elapsed = time.monotonic() - start
    ok = worst_hull <= 1e-9 and worst_mc <= 1e-12 and elapsed <= 60.0
    record_acceptance(
        1, "closed form vs LP oracle", ok,
        f"200 graphs, {points_checked} half-points, worst hull dev {worst_hull:.2e}, "
        f"worst mcgap dev {worst_mc:.2e}, {elapsed:.1f}s",
    )
    assert worst_hull <= 1e-9
    assert worst_mc <= 1e-12
    assert elapsed <= 60.0


def test_criterion_2_pm1_complete_desk_scale():
    start = time.monotonic()
    n = 20
    threshold = math.sqrt(n) / 4.0
    met = 0
    exact_every_time = True
    ratios = []
    for seed in range(100):
        g = random_pm1_complete(n, seed)
        x = EvaluationPoint.all_half(n)
        mcgap = mcgap_halfpoint(g, x)
        if mcgap != n * (n - 1) / 4:
            exact_every_time = False
        mu_plus, mu_minus = cut_range_bruteforce(g, g.vertices)
        chgap = 0.5 * (mu_plus - mu_minus)
        ratio = mcgap / chgap if chgap > 0 else math.inf
        ratios.append(ratio)
        if ratio >= threshold:
            met += 1
    elapsed = time.monotonic() - start
    fraction = met / 100.0
    ok = exact_every_time and fraction >= 0.95 and elapsed <= 600.0
    record_acceptance(
        2, "random sign complete graphs at n=20", ok,
        f"mcgap == 95 in all: {exact_every_time}, ratio >= {threshold:.3f} in "
        f"{fraction:.0%} (min ratio {min(ratios):.3f}), {elapsed:.1f}s",
    )
    assert exact_every_time
    assert fraction >= 0.95
    assert elapsed <= 600.0


def test_criterion_3_hadamard_discrepancy_and_ratio():
    start = time.monotonic()
    discrepancy_ok = True
    ratio_ok = True
    details = []
    for n in range(4, 25):
        g = hadamard_instance(n)
        mu_plus, mu_minus = cut_range_bruteforce(g, g.vertices)
        bound = n ** 1.5 / math.sqrt(2.0)
        if mu_plus > bound + 1e-9 or -mu_minus > bound + 1e-9:
            discrepancy_ok = False
            details.append(f"n={n} discrepancy {mu_plus}/{mu_minus} vs {bound:.3f}")
        if n >= 18:
            mcgap = mcgap_halfpoint(g, EvaluationPoint.all_half(n))
            chgap = 0.5 * (mu_plus - mu_minus)
            ratio = mcgap / chgap
            if ratio < math.sqrt(n) / 3.0:
                ratio_ok = False
                details.append(f"n={n} ratio {ratio:.3f} < sqrt(n)/3")
    elapsed = time.monotonic() - start
    ok = discrepancy_ok and ratio_ok and elapsed <= 900.0
    record_acceptance(
        3, "bit inner-product instance bounds", ok,
        (details[0] if details else "n=4..24 within n^1.5/sqrt(2); ratios >= sqrt(n)/3 for n>=18")
        + f", {elapsed:.1f}s",
    )
    assert discrepancy_ok
    assert ratio_ok
    assert elapsed <= 900.0


def test_criterion_4_cut_guarantee_stress():
    start = time.monotonic()
    cfg = ExperimentConfig(
        kind="cutfinder_stress", n_min=3, n_max=50, num_instances=1000, seed_base=0
    )
    records, summary = run_experiment(cfg)
    good_samples = [r for r in records if r.case != "brute_fallback"]
    violations = [r for r in good_samples if not r.meets_guarantee]
    brute_ok = True
    worst_excess = 0.0
    for rec in records:
        if rec.n > 20:
            continue
        g = (
            random_pm1_complete(rec.n, rec.instance_seed)
            if rec.family == "pm1"
            else uniform_real_complete(rec.n, rec.instance_seed)
        )
        mu_plus, mu_minus = cut_range_bruteforce(g, g.vertices)
        excess = abs(rec.weight) - max(mu_plus, -mu_minus)
        worst_excess = max(worst_excess, excess)
        if excess > 1e-9:
            brute_ok = False
    elapsed = time.monotonic() - start
    ok = not violations and brute_ok and elapsed <= 300.0
    record_acceptance(
        4, "randomized cut finder guarantee", ok,
        f"{len(good_samples)}/1000 good-sample runs, {len(violations)} violations, "
        f"fraction meets {summary['fraction_meets_guarantee']:.3f}, "
        f"min bound ratio {summary['min_bound_ratio']:.1f}, "
        f"brute excess {worst_excess:.1e}, {elapsed:.1f}s",
    )
    assert not violations
    assert brute_ok
    assert elapsed <= 300.0


def test_criterion_5_gap_ratio_bound_property():
    start = time.monotonic()
    ratio_ok = True
    subset_ok = True
    points_total = 0
    for idx in range(100):
        n = 2 + idx % 19
        g = random_int_graph(9000 + idx, n)
        rnd = random.Random(5000 + idx)
        if 3 ** n <= 500:
            points = list(itertools.product((0.0, 0.5, 1.0), repeat=n))
        else:
            points = [
                tuple(rnd.choice((0.0, 0.5, 1.0)) for _ in range(n)) for _ in range(500)
            ]
        cap = 600.0 * math.sqrt(n)
        for coords in points:
            x = EvaluationPoint.from_iterable(coords)
            mcgap = mcgap_halfpoint(g, x)
            mu_plus, mu_minus = cut_range_bruteforce(g, x.fractional_support)
            chgap = 0.5 * (mu_plus - mu_minus)
            points_total += 1
            if mcgap > cap * chgap + 1e-9:
                ratio_ok = False
        for _ in range(10):
            mask = rnd.randrange(1, 1 << n)
            x_sub = VertexSubset(mask)
            k = len(x_sub.members)
            mu_plus, mu_minus = cut_range_bruteforce(g, x_sub)
            lower = gamma_abs_weight(g, x_sub) / (600.0 * math.sqrt(k))
            if mu_plus - mu_minus < lower - 1e-9:
                subset_ok = False
    elapsed = time.monotonic() - start
    ok = ratio_ok and subset_ok
    record_acceptance(
        5, "gap ratio upper bound property", ok,
        f"{points_total} half-points over 100 graphs, 1000 induced subsets, "
        f"ratio bound ok {ratio_ok}, subset bound ok {subset_ok}, {elapsed:.1f}s",
    )
    assert ratio_ok
    assert subset_ok


def test_criterion_6_exactness_equivalence():
    start = time.monotonic()
    cfg = ExperimentConfig(kind="hull_census", n_min=2, n_max=8, num_instances=200)
    records, summary = run_experiment(cfg)
    agree = summary["fraction_agree"] == 1.0
    paths_exact = all(r.exact for r in records if r.instance_id.startswith("path"))
    odd_cycles_not_exact = all(
        not r.exact
        for r in records
        if r.instance_id.startswith(("cycle3", "cycle5", "cycle7"))
    )
    trees_exact = True
    rnd = random.Random(77)
    for _ in range(50):
        n = rnd.randrange(2, 9)
        edges = tuple(
            (rnd.randrange(1, v), v, float(rnd.choice((1, -1))))
            for v in range(2, n + 1)
        )
        g = SignedWeightedGraph(n, edges)
        if not check_hull_exact(g).exact:
            trees_exact = False
    elapsed = time.monotonic() - start
    ok = agree and paths_exact and odd_cycles_not_exact and trees_exact
    record_acceptance(
        6, "parity criterion vs numerics", ok,
        f"{summary['total']} instances agree {summary['fraction_agree']:.0%}, "
        f"paths exact {paths_exact}, odd cycles non-exact {odd_cycles_not_exact}, "
        f"random trees exact {trees_exact}, {elapsed:.1f}s",
    )
    assert agree
    assert paths_exact
    assert odd_cycles_not_exact
    assert trees_exact


def test_criterion_7_dual_certificates_exhaustive():
    start = time.monotonic()
    worst = 0.0
    checked = 0
    for idx in range(50):
        n = 2 + idx % 7
        g = random_int_graph(40000 + idx, n)
        mu_plus, mu_minus = all_subset_cut_extremes(g)
        gam = all_subset_gamma(g)
        for mask in range(1 << n):
            x = VertexSubset(mask)
            lo = dual_certificate(g, x, float(mu_plus[mask]), "lower_envelope")
            hi = dual_certificate(g, x, float(mu_minus[mask]), "upper_envelope")
            worst = max(
                worst,
                abs(lo.objective - 0.5 * (gam[mask] - mu_plus[mask])),
                abs(hi.objective - 0.5 * (gam[mask] - mu_minus[mask])),
            )
            checked += 2
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9
    record_acceptance(
        7, "dual certificates", ok,
        f"{checked} certificates over 50 graphs, worst primal-dual gap {worst:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert worst <= 1e-9


def test_criterion_8_cli_determinism(tmp_path, capsys):
    start = time.monotonic()
    runs = [
        ("ratio_sweep", ["--n", "8", "--num-instances", "10"], "csv"),
        ("ratio_sweep", ["--n", "8", "--num-instances", "10"], "json"),
        ("ratio_sweep", ["--n-min", "2", "--n-max", "6", "--num-instances", "4"], "csv"),
        ("cutfinder_stress", ["--n-min", "3", "--n-max", "12", "--num-instances", "20"], "json"),
        ("hull_census", ["--n-min", "3", "--n-max", "5", "--num-instances", "10"], "csv"),
        ("hadamard_ratio", ["--n-min", "4", "--n-max", "10"], "csv"),
    ]
    all_identical = True
    mismatches = []
    for run, (kind, flags, fmt) in enumerate(runs):
        texts = []
        for rep in range(2):
            out = tmp_path / f"{run}-{kind}-{fmt}-{rep}.out"
            code = cli_main(
                ["experiment", kind, *flags, "--out", str(out), "--format", fmt]
            )
            capsys.readouterr()
            assert code == 0
            with open(out) as fh:
                texts.append(strip_wall_times(fh.read()))
        if texts[0] != texts[1]:
            all_identical = False
            mismatches.append(f"{kind}/{fmt}")
    elapsed = time.monotonic() - start
    record_acceptance(
        8, "experiment rerun determinism", all_identical,
        f"{len(runs)} kind/format reruns byte-identical modulo wall times"
        + (f"; mismatches: {mismatches}" if mismatches else "")
        + f", {elapsed:.1f}s",
    )
    assert all_identical, mismatches
