"""Scaling every weight by s scales every value by s and changes no decision.

The paper's gap ratio is a ratio of gaps, so it cannot depend on the unit of
the weights.  Each layer is run on a +/-1 graph and a real-weight graph at
x1e-11, x1 and the largest scale whose total |weight| stays within
MAX_TOTAL_ABS_WEIGHT, and every scaled value must be the x1 value times s
within 1e-9 relative to the graph's total |weight|.
"""

from __future__ import annotations

import json
import math
import random
import sys

import numpy as np
import pytest

from bilingap.cli import main
from bilingap.cuts import all_subset_cut_extremes, all_subset_gamma, extreme_cuts, find_large_cut
from bilingap.envelopes import EvaluationPoint, dual_certificate, gap_report
from bilingap.errors import CertificateError, InputError
from bilingap.experiments import _numeric_exact
from bilingap.graph import MAX_TOTAL_ABS_WEIGHT, SignedWeightedGraph, VertexSubset, write_instance
from bilingap.hullcheck import check_hull_exact, verify_exactness_numerically
from bilingap.instances import random_pm1_complete, uniform_real_complete

N = 9
GRAPHS = {"pm1": random_pm1_complete(N, 9), "real": uniform_real_complete(N, 9)}


def _scaled(g: SignedWeightedGraph, s: float) -> SignedWeightedGraph:
    i, j, w = g._columns
    return SignedWeightedGraph.from_columns(g.n, i, j, w * s)


def _largest_scale(g: SignedWeightedGraph) -> float:
    s = MAX_TOTAL_ABS_WEIGHT / g.total_abs_weight
    while True:
        try:
            _scaled(g, s)
            return s
        except InputError:  # the rounded total landed above the cap
            s = math.nextafter(s, 0.0)


def _points() -> list[EvaluationPoint]:
    rnd = random.Random(N)
    half = [EvaluationPoint.all_half(N)]
    half += [EvaluationPoint.of(*rnd.choices((0.0, 0.5, 1.0), k=N)) for _ in range(12)]
    general = [
        EvaluationPoint.of(*(rnd.choice((0.0, 1.0, round(rnd.random(), 3))) for _ in range(N)))
        for _ in range(4)
    ]
    general.append(EvaluationPoint.of(*(round(rnd.uniform(0.01, 0.99), 3) for _ in range(N))))
    return half + general


def _certifies(g: SignedWeightedGraph, t: VertexSubset, mu: float, side: str) -> bool:
    try:
        dual_certificate(g, t, mu, side)
    except CertificateError:
        return False
    return True


def _layers(g: SignedWeightedGraph) -> tuple[dict, dict]:
    """(values that scale with the weights, decisions that must not move) over every layer."""
    values, decisions = {}, {}
    for x in _points():
        rep = gap_report(g, x)
        values["gaps", x] = (rep.mcu, rep.mcl, rep.cav, rep.vex, rep.mcgap, rep.chgap)
        values["ratio", x] = () if math.isinf(rep.ratio) else (rep.ratio,)
        decisions["gaps", x] = (rep.method, rep.degenerate, math.isinf(rep.ratio))
        if x.is_half_point:
            t = x.fractional_support
            (mx, _), (mn, _) = extreme_cuts(g, t)
            if len(t) > 0:
                for mu, side in ((mx, "lower_envelope"), (mn, "upper_envelope")):
                    cert = dual_certificate(g, t, mu, side)
                    values[side, x] = (cert.y, *cert.z.values())
                    wrong = (_certifies(g, t, m, side) for m in (0.5 * mu, 0.0))
                    decisions[side, x] = (mu == 0.0, *wrong)
    (mx, _), (mn, _) = extreme_cuts(g, g.vertices)
    values["extreme_cuts",] = (mx, mn)
    for budget in (1, 1000):
        for seed in range(4):
            res = find_large_cut(g, seed, budget)
            values["search", seed, budget] = (res.cut.weight, res.bound)
            decisions["search", seed, budget] = (
                res.cut.side, res.case_taken, res.trials_used, res.meets_guarantee
            )
    mu_plus, mu_minus = all_subset_cut_extremes(g)
    values["tables",] = (*mu_plus, *mu_minus, *all_subset_gamma(g), *all_subset_gamma(g, True))
    decisions["census",] = (_numeric_exact(g), check_hull_exact(g).exact)
    rnd = random.Random(g.n)
    subsets = [VertexSubset(rnd.getrandbits(N)) for _ in range(40)]
    decisions["verify",] = tuple(verify_exactness_numerically(g, x) for x in subsets)
    return values, decisions


@pytest.mark.parametrize("name", list(GRAPHS))
def test_every_layer_scales_with_the_weights(name):
    g = GRAPHS[name]
    want_values, want_decisions = _layers(g)
    assert True in want_decisions["verify",] and False in want_decisions["verify",]
    # half the extreme and 0 are wrong mus unless the extreme is 0 itself
    sides = [d for key, d in want_decisions.items() if key[0].endswith("_envelope")]
    assert set(sides) == {(False, False, False), (True, True, True)}
    for s in (1e-11, _largest_scale(g)):
        values, decisions = _layers(_scaled(g, s))
        assert decisions == want_decisions, s
        assert values.keys() == want_values.keys()
        for key, want in want_values.items():
            got = np.array(values[key]) / (1.0 if key[0] == "ratio" else s)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9 * g.total_abs_weight), (s, key)


def test_cut_witnesses_do_not_move_with_the_scale():
    # +/-1 cuts that tie exactly round apart at a scale that is no power of
    # two; the first side within the slack stays the same at every scale
    for seed in range(40):
        g = random_pm1_complete(N, seed)
        sides = {}
        for s in (1e-11, 1.0, 3.7, 2.8e288):
            (_, hi), (_, lo) = extreme_cuts(_scaled(g, s), g.vertices)
            sides[s] = (hi.side, lo.side)
        assert len(set(sides.values())) == 1, (seed, sides)


def test_both_constructors_cap_the_total_at_1e300():
    above = math.nextafter(MAX_TOTAL_ABS_WEIGHT, math.inf)
    for w in (MAX_TOTAL_ABS_WEIGHT, above):
        builds = (
            lambda: SignedWeightedGraph(3, ((1, 2, 0.5 * w), (2, 3, -0.5 * w))),
            lambda: SignedWeightedGraph.from_columns(3, [1, 2], [2, 3], [0.5 * w, -0.5 * w]),
        )
        for build in builds:
            if w == MAX_TOTAL_ABS_WEIGHT:
                assert build().total_abs_weight == MAX_TOTAL_ABS_WEIGHT
            else:
                with pytest.raises(InputError, match="total absolute weight"):
                    build()


def test_eval_ratio_does_not_depend_on_the_unit(capsys, tmp_path):
    g = SignedWeightedGraph(3, ((1, 2, 1.0), (1, 3, 1.0), (2, 3, -1.0)))
    reports = []
    for s in (1.0, 1e-11):
        path = tmp_path / f"x{s}.json"
        write_instance(_scaled(g, s), path)
        assert main(["eval", "--instance", str(path), "--point", "0.3,0.7,0.6"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    unscaled, scaled = reports
    assert not unscaled["ratio_infinite"] and not scaled["ratio_infinite"]
    assert scaled["ratio"] == pytest.approx(unscaled["ratio"], rel=1e-9)
    assert scaled["chgap"] == pytest.approx(1e-11 * unscaled["chgap"], rel=1e-9)


def test_a_subnormal_weight_exits_1(capsys, tmp_path):
    # on these weights the LP's cost tolerance 1e-9 * max|c| would underflow to 0
    path = tmp_path / "subnormal.json"
    path.write_text('{"n": 3, "edges": [[1, 2, 5e-324], [2, 3, 5e-324], [1, 3, -5e-324]]}')
    assert main(["eval", "--instance", str(path), "--point", "0.3,0.7,0.6"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "subnormal weight" in err


@pytest.mark.parametrize("make", [random_pm1_complete, uniform_real_complete])
def test_the_smallest_normal_weights_run_the_lp(make):
    g = make(8, 3)
    i, j, w = g._columns
    tiny = SignedWeightedGraph.from_columns(g.n, i, j, w / np.abs(w).min() * sys.float_info.min)
    assert np.abs(tiny._columns[2]).min() == sys.float_info.min
    rnd = random.Random(30)
    for _ in range(30):
        x = EvaluationPoint.of(*(round(rnd.uniform(0.01, 0.99), 3) for _ in range(g.n)))
        assert gap_report(tiny, x).method == "lp"
