from __future__ import annotations

import json
import math
import os
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bilingap import cli, cuts
from bilingap.cli import main
from bilingap.errors import InvariantViolationError
from bilingap.experiments import EXPERIMENT_KINDS
from bilingap.graph import Cut, SignedWeightedGraph, VertexSubset, read_instance, write_instance
from bilingap.hullcheck import check_hull_exact
from bilingap.instances import (
    INSTANCE_FAMILIES,
    hadamard_instance,
    random_pm1_complete,
    signed_cycle,
)

from conftest import TRIANGLE, strip_wall_times


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_triangle(tmp_path):
    path = str(tmp_path / "tri.json")
    write_instance(TRIANGLE, path)
    return path


class TestGen:
    def test_gen_then_eval_round_trip(self, capsys, tmp_path):
        out = str(tmp_path / "h4.json")
        code, _, err = run_cli(capsys, "gen", "--family", "hadamard", "--n", "4", "--out", out)
        assert code == 0
        assert "wrote" in err and "6 edges" in err
        g = read_instance(out)
        weights = {(i, j): w for i, j, w in g.edges}
        assert weights == {
            (1, 2): 1.0, (1, 3): 1.0, (1, 4): 1.0,
            (2, 3): 1.0, (2, 4): -1.0, (3, 4): -1.0,
        }
        code, out_text, _ = run_cli(capsys, "eval", "--instance", out)
        assert code == 0
        rep = json.loads(out_text)
        assert rep["mcgap"] == pytest.approx(3.0)
        assert rep["chgap"] == pytest.approx(2.0)
        assert rep["ratio"] == pytest.approx(1.5)

    def test_gen_text_format(self, capsys, tmp_path):
        out = str(tmp_path / "inst.txt")
        code, _, _ = run_cli(
            capsys, "gen", "--family", "cycle", "--n", "4", "--signs", "+,+,-,-", "--out", out,
        )
        assert code == 0
        assert (tmp_path / "inst.txt").read_text().startswith("# n 4\n")
        g = read_instance(out)
        assert g.num_edges == 4
        assert g.weight(3, 4) == -1.0

    def test_gen_has_no_format_flag(self, capsys, tmp_path):
        """The --out name alone picks the format."""
        out = tmp_path / "c4.json"
        code, stdout, err = run_cli(
            capsys, "gen", "--family", "hadamard", "--n", "4", "--out", str(out), "--format=text"
        )
        assert (code, stdout) == (1, "")
        assert "unrecognized arguments: --format" in err and not out.exists()

    def test_gen_random_family_needs_seed(self, capsys, tmp_path):
        out = str(tmp_path / "x.json")
        code, _, err = run_cli(
            capsys, "gen", "--family", "random_pm1_complete", "--n", "6", "--out", out
        )
        assert code == 1
        code, _, _ = run_cli(
            capsys, "gen", "--family", "random_pm1_complete", "--n", "6",
            "--seed", "3", "--out", out,
        )
        assert code == 0
        assert read_instance(out).num_edges == 15

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--family", "hadamard", "--n", "4", "--seed", "3"],
             "family 'hadamard' does not take --seed"),
            (["--family", "random_pm1_complete", "--n", "4", "--seed", "1", "--signs=-"],
             "family 'random_pm1_complete' does not take --signs"),
        ],
    )
    def test_gen_rejects_a_flag_its_family_does_not_take(self, capsys, tmp_path, argv, message):
        out = str(tmp_path / "x.json")
        code, stdout, err = run_cli(capsys, "gen", *argv, "--out", out)
        assert code == 1
        assert stdout == "" and message in err
        assert not os.path.exists(out)

    def test_signs_with_a_leading_minus(self, capsys, tmp_path):
        out = str(tmp_path / "c3.json")
        code, _, _ = run_cli(
            capsys, "gen", "--family", "cycle", "--n", "3", "--signs=-,+,+", "--out", out
        )
        assert code == 0
        assert read_instance(out).weight(1, 2) == -1.0
        code, stdout, err = run_cli(
            capsys, "gen", "--family", "cycle", "--n", "3", "--signs", "-,+,+", "--out", out
        )
        assert code == 1
        assert stdout == ""
        assert "usage" in err.lower() and "--signs" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "cut", "maxcut", "hullcheck"])
    def test_text_file_named_json_is_read_as_text(self, capsys, tmp_path, command):
        # the content decides the format, not the name
        code, _, _ = run_cli(
            capsys, "gen", "--family", "cycle", "--n", "4",
            "--signs", "+,+,-,-", "--out", str(tmp_path / "c4.txt"),
        )
        assert code == 0
        (tmp_path / "c4.json").write_text((tmp_path / "c4.txt").read_text())
        outputs = []
        for name in ("c4.json", "c4.txt"):
            code, stdout, err = run_cli(capsys, command, "--instance", str(tmp_path / name))
            assert (code, err) == (0, "")
            outputs.append(stdout)
        assert outputs[0] == outputs[1]


class TestEval:
    def test_default_point_is_all_half(self, capsys, tmp_path):
        inst = write_triangle(tmp_path)
        code, out_text, _ = run_cli(capsys, "eval", "--instance", inst)
        assert code == 0
        rep = json.loads(out_text)
        assert rep["point"] == [0.5, 0.5, 0.5]
        assert rep["mcgap"] == pytest.approx(1.5)
        assert rep["chgap"] == pytest.approx(1.0)

    def test_h_shorthand(self, capsys, tmp_path):
        inst = write_triangle(tmp_path)
        code, out_text, _ = run_cli(capsys, "eval", "--instance", inst, "--point", "h,h,h")
        assert code == 0
        assert json.loads(out_text)["mcgap"] == pytest.approx(1.5)
        code, out2, _ = run_cli(capsys, "eval", "--instance", inst, "--point", "0.5,0.5,0.5")
        assert json.loads(out2) == json.loads(out_text)

    def test_generic_point_uses_lp(self, capsys, tmp_path):
        inst = write_triangle(tmp_path)
        code, out_text, _ = run_cli(
            capsys, "eval", "--instance", inst, "--point", "0.3,0.7,0.6"
        )
        assert code == 0
        rep = json.loads(out_text)
        assert rep["method"] == "lp"
        assert rep["cav"] == pytest.approx(1.2)
        assert rep["vex"] == pytest.approx(0.6)

    def test_wrong_arity_point(self, capsys, tmp_path):
        inst = write_triangle(tmp_path)
        code, _, err = run_cli(capsys, "eval", "--instance", inst, "--point", "0.5,0.5")
        assert code == 1

    def test_bad_point_token(self, capsys, tmp_path):
        inst = write_triangle(tmp_path)
        code, _, _ = run_cli(capsys, "eval", "--instance", inst, "--point", "0.5,x,0.5")
        assert code == 1

    def test_out_of_range_point(self, capsys, tmp_path):
        inst = write_triangle(tmp_path)
        code, _, _ = run_cli(capsys, "eval", "--instance", inst, "--point", "0.5,0.5,1.5")
        assert code == 1


class TestCut:
    def test_json_contract(self, capsys, tmp_path):
        path = str(tmp_path / "mixed.json")
        write_instance(
            SignedWeightedGraph(3, ((1, 2, 5.0), (1, 3, -2.0), (2, 3, 1.0))), path
        )
        code, out_text, _ = run_cli(capsys, "cut", "--instance", path, "--seed", "0")
        assert code == 0
        res = json.loads(out_text)
        assert set(res) == {"side", "weight", "bound", "meets_guarantee", "trials_used", "case"}
        assert res["weight"] == 6.0
        assert res["meets_guarantee"] is True

    def test_budget_flag(self, capsys, tmp_path):
        path = str(tmp_path / "e.json")
        write_instance(SignedWeightedGraph(2, ((1, 2, -7.0),)), path)
        code, out_text, _ = run_cli(
            capsys, "cut", "--instance", path, "--seed", "2", "--budget", "1"
        )
        assert code == 0
        assert json.loads(out_text)["case"] == "brute_fallback"


class TestMaxcut:
    def test_hadamard4_witnesses(self, capsys, tmp_path):
        path = str(tmp_path / "h4.json")
        run_cli(capsys, "gen", "--family", "hadamard", "--n", "4", "--out", path)
        code, out_text, _ = run_cli(capsys, "maxcut", "--instance", path)
        assert code == 0
        res = json.loads(out_text)
        assert res["subset"] == [1, 2, 3, 4]
        assert res["mu_plus"] == 3.0 and res["witness_plus"] == [1]
        assert res["mu_minus"] == -1.0 and res["witness_minus"] == [4]

    def test_subset_flag(self, capsys, tmp_path):
        inst = write_triangle(tmp_path)
        code, out_text, _ = run_cli(capsys, "maxcut", "--instance", inst, "--subset", "1,2")
        assert code == 0
        res = json.loads(out_text)
        assert res["subset"] == [1, 2]
        assert res["mu_plus"] == 1.0

    def test_repeated_subset_label_exits_1(self, capsys, tmp_path):
        inst = write_triangle(tmp_path)
        code, out, err = run_cli(capsys, "maxcut", "--instance", inst, "--subset", "1,1,2")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "vertex 1 repeated" in err

    def test_one_enumeration_pass(self, capsys, tmp_path, enumeration_calls):
        inst = write_triangle(tmp_path)
        code, out_text, _ = run_cli(capsys, "maxcut", "--instance", inst)
        assert code == 0
        assert json.loads(out_text)["mu_plus"] == 2.0
        assert enumeration_calls == [TRIANGLE.vertices]

    def test_capacity_exit_code(self, capsys, tmp_path):
        path = str(tmp_path / "big.json")
        n = cuts.ENUMERATION_CAP + 1
        edges = tuple((i, i + 1, 1.0) for i in range(1, n))
        write_instance(SignedWeightedGraph(n, edges), path)
        code, _, _ = run_cli(capsys, "maxcut", "--instance", path)
        assert code == 2


class TestHullcheck:
    def test_path_exact(self, capsys, tmp_path):
        path = str(tmp_path / "p3.json")
        write_instance(SignedWeightedGraph(3, ((1, 2, 1.0), (2, 3, -1.0))), path)
        code, out_text, _ = run_cli(capsys, "hullcheck", "--instance", path)
        assert code == 0
        res = json.loads(out_text)
        assert res["exact"] is True
        assert res["violating_cycle"] is None

    def test_triangle_not_exact(self, capsys, tmp_path):
        inst = write_triangle(tmp_path)
        code, out_text, _ = run_cli(capsys, "hullcheck", "--instance", inst)
        assert code == 0
        res = json.loads(out_text)
        assert res["exact"] is False
        assert sorted(res["violating_cycle"]) == [1, 2, 3]
        assert res["violating_cycle_edge_counts"] == {"positive": 3, "negative": 0}

    def test_non_edge_cycle_step_exit_3(self, capsys, tmp_path, monkeypatch):
        """A violating cycle that steps off an edge is a bug: invariant error, exit 3."""
        inst = write_triangle(tmp_path)
        monkeypatch.setattr(SignedWeightedGraph, "weight", lambda self, i, j: 0.0)
        with pytest.raises(InvariantViolationError, match="is not an edge"):
            check_hull_exact(TRIANGLE)
        code, out, err = run_cli(capsys, "hullcheck", "--instance", inst)
        assert code == 3
        assert out == ""
        assert err.startswith("invariant violation:") and "Traceback" not in err


class TestExperimentCommand:
    def test_rerun_byte_identical_modulo_times(self, capsys, tmp_path):
        texts = []
        for run in range(2):
            out = str(tmp_path / f"r{run}.csv")
            code, _, _ = run_cli(
                capsys, "experiment", "thm1_montecarlo",
                "--n", "6", "--num-instances", "5", "--out", out,
            )
            assert code == 0
            with open(out) as fh:
                texts.append(strip_wall_times(fh.read()))
        assert texts[0] == texts[1]

    def test_summary_printed_to_stdout(self, capsys, tmp_path):
        out = str(tmp_path / "g.csv")
        code, out_text, _ = run_cli(
            capsys, "experiment", "thm1_montecarlo",
            "--n", "2", "--num-instances", "2", "--out", out,
        )
        assert code == 0
        summary = json.loads(out_text)
        assert summary["fraction_met"] == 1.0

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg_path = str(tmp_path / "cfg.json")
        out = str(tmp_path / "sweep.csv")
        with open(cfg_path, "w") as fh:
            json.dump(
                {
                    "kind": "ratio_sweep", "n_min": 2, "n_max": 3,
                    "num_instances": 2, "output_path": out,
                },
                fh,
            )
        code, out_text, _ = run_cli(
            capsys, "experiment", "--config", cfg_path, "--num-instances", "3"
        )
        assert code == 0
        with open(out) as fh:
            rows = fh.read().splitlines()
        assert len(rows) == 1 + 2 * 3  # header + (n=2,3) x 3 seeds

    def test_config_unknown_key(self, capsys, tmp_path):
        cfg_path = str(tmp_path / "bad.json")
        with open(cfg_path, "w") as fh:
            json.dump({"kind": "ratio_sweep", "n_min": 2, "n_max": 3, "bogus": 1}, fh)
        code, _, _ = run_cli(capsys, "experiment", "--config", cfg_path)
        assert code == 1

    def test_threads_flag_then_config_file_then_default(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "t.jsonl"
        base = {
            "kind": "ratio_sweep", "n_min": 2, "n_max": 3, "num_instances": 2,
            "output_path": str(out), "output_format": "json",
        }

        def config_threads(config: dict, *flags: str) -> int:
            cfg_path.write_text(json.dumps(config))
            code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg_path), *flags)
            assert code == 0
            return json.loads(out.read_text().splitlines()[0])["config"]["threads"]

        assert config_threads({**base, "threads": 2}) == 2
        assert config_threads({**base, "threads": 2}, "--threads", "1") == 1
        assert config_threads(base) == 1

    def test_capacity_exit_code(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "experiment", "thm1_montecarlo", "--n", "30",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2


class TestErrorPaths:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err.lower()

    def test_no_subcommand(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1

    def test_unknown_flag(self, capsys, tmp_path):
        inst = write_triangle(tmp_path)
        code, _, err = run_cli(capsys, "eval", "--instance", inst, "--frob", "1")
        assert code == 1
        assert "usage" in err.lower()

    def test_missing_instance_file(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--instance", "/nonexistent/f.json")
        assert code == 1

    def test_capacity_on_nonhalf_large_n(self, capsys, tmp_path):
        path = str(tmp_path / "n17.json")
        edges = tuple((i, i + 1, 1.0) for i in range(1, 17))
        write_instance(SignedWeightedGraph(17, edges), path)
        point = ",".join(["0.3"] * 17)
        code, _, _ = run_cli(capsys, "eval", "--instance", path, "--point", point)
        assert code == 2
        # the all-half default works fine at n=17 via closed forms
        code, out_text, _ = run_cli(capsys, "eval", "--instance", path)
        assert code == 0
        assert json.loads(out_text)["method"] == "closed_form"

    def test_config_directory(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "experiment", "--config", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_config_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe{")
        code, _, err = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("edge", ["[1.7, 2, 1.0]", "[1, 3, true]"])
    def test_coercible_edge_fields_exit_1(self, capsys, tmp_path, edge):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "edges": [' + edge + "]}")
        code, out, err = run_cli(capsys, "eval", "--instance", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("suffix", [".json", ".txt"])
    def test_a_weight_that_is_no_double_exits_1(self, capsys, tmp_path, suffix):
        path = tmp_path / f"big{suffix}"
        if suffix == ".json":
            path.write_text('{"n": 3, "edges": [[1, 2, 1], [2, 3, -9007199254740993]]}')
        else:
            path.write_text("# n 3\n1 2 1\n2 3 -9007199254740993\n")
        code, out, err = run_cli(capsys, "eval", "--instance", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: edge (2, 3) weight -9007199254740993 is not a float64 value\n"

    @pytest.mark.parametrize("command", ["eval", "cut", "maxcut", "hullcheck"])
    @pytest.mark.parametrize("suffix", [".json", ".txt"])
    def test_overflowing_instance_exit_1(self, capsys, tmp_path, command, suffix):
        # no graph above the cap can be built, so the file is written by hand
        path = tmp_path / f"huge{suffix}"
        edges = ((1, 2, 1e308), (1, 3, 1e308), (2, 3, 1e308))
        if suffix == ".json":
            path.write_text(json.dumps({"n": 3, "edges": edges}))
        else:
            path.write_text("".join(f"{i} {j} {w!r}\n" for i, j, w in edges))
        code, out, err = run_cli(capsys, command, "--instance", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "total absolute weight" in err

    def test_instance_below_weight_cap_gives_finite_json(self, capsys, tmp_path):
        path = str(tmp_path / "big.json")
        w = 0.3e300
        write_instance(SignedWeightedGraph(3, ((1, 2, w), (1, 3, w), (2, 3, -w))), path)
        for argv in (["eval"], ["eval", "--point", "0.3,0.6,0.9"], ["cut"], ["maxcut"]):
            code, out, _ = run_cli(capsys, *argv, "--instance", path)
            assert code == 0
            json.loads(out, parse_constant=lambda c: pytest.fail(f"non-finite {c} in {argv}"))

    def test_non_finite_result_exit_3(self, capsys, tmp_path, monkeypatch):
        def nan_search(g, rng_seed, trial_budget):
            cut = Cut(ground_set=g.vertices, side=VertexSubset(), weight=math.nan)
            return cuts.CutSearchResult(cut, math.inf, False, 1, "case1")

        monkeypatch.setattr(cli, "find_large_cut", nan_search)
        code, out, err = run_cli(capsys, "cut", "--instance", write_triangle(tmp_path))
        assert code == 3
        assert out == ""
        assert "not finite" in err

    def test_thm1_n_range_exit_1(self, capsys):
        code, out, err = run_cli(
            capsys, "experiment", "thm1_montecarlo", "--n-min", "4", "--n-max", "6"
        )
        assert code == 1
        assert out == ""
        assert "one n" in err

    @pytest.mark.parametrize(
        "field, value",
        [("n_min", "2"), ("n_min", 2.5), ("seed_base", "x"), ("num_instances", True), ("output_path", 7)],
    )
    def test_config_field_wrong_type_exit_1(self, capsys, tmp_path, field, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "ratio_sweep", "n_min": 2, "n_max": 3, field: value}))
        code, out, err = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: config field {field} must be")

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_experiment_n_below_two_exit_1(self, capsys, kind):
        code, out, err = run_cli(capsys, "experiment", kind, "--n", "1", "--num-instances", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "2 <= n_min" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["cut", "--instance=--"],
            ["eval", "--instance", "@tri.json", "--point=--"],
            ["experiment", "ratio_sweep", "--n=--"],
            ["experiment", "ratio_sweep", "--n", "3", "--format=--"],
        ],
    )
    def test_double_dash_flag_value_exit_1(self, capsys, tmp_path, argv):
        write_instance(TRIANGLE, tmp_path / "tri.json")
        argv = [a.replace("@", f"{tmp_path}{os.sep}") for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "expected one argument" in err

    # each argv was exit 0 with a coerced value before number tokens were ASCII-only;
    # "@h4.json" is a Hadamard n = 4 instance, "@tri.txt" a text file with the given body
    @pytest.mark.parametrize(
        "argv, body",
        [
            (["hullcheck", "--instance", "@tri.txt"], "# n 13\n1_2 13 1_0.5\n"),
            (["eval", "--instance", "@tri.txt"], "\u0663 4 1.0\n"),
            (["eval", "--instance", "@tri.txt"], "1 2 \u0661.5\n"),
            (["eval", "--instance", "@tri.txt"], "n \u0664\n1 2 1.0\n"),
            (["eval", "--instance", "@h4.json", "--point", "\u0660.\u0665,h,h,h"], None),
            (["eval", "--instance", "@h4.json", "--point", "1_0e-1,h,h,h"], None),
            (["maxcut", "--instance", "@h4.json", "--subset", "\u0663"], None),
            (["maxcut", "--instance", "@h4.json", "--subset", "0_1"], None),
            (["cut", "--instance", "@h4.json", "--seed", "\u0663"], None),
            (["cut", "--instance", "@h4.json", "--budget", "1_000"], None),
            (["gen", "--family", "hadamard", "--n", "\u0664", "--out", "@gen.json"], None),
            (["experiment", "ratio_sweep", "--n", "1_0", "--num-instances", "1"], None),
            (["experiment", "hull_census", "--n", "3", "--threads", "\u0661"], None),
        ],
    )
    def test_non_ascii_or_underscored_numbers_exit_1(self, capsys, tmp_path, argv, body):
        write_instance(hadamard_instance(4), tmp_path / "h4.json")
        if body is not None:
            (tmp_path / "tri.txt").write_text(body, encoding="utf-8")
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert not (tmp_path / "gen.json").exists()

    @pytest.mark.parametrize("threads", ["65", str(2**70)])
    def test_threads_above_cap_exit_2(self, capsys, tmp_path, threads):
        before = threading.active_count()
        code, out, err = run_cli(
            capsys, "experiment", "hull_census", "--n", "3", "--threads", threads,
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == 2
        assert out == ""
        assert f"threads must be <= 64, got {threads}" in err
        assert threading.active_count() == before
        assert not (tmp_path / "r.csv").exists()

    def test_malformed_instance_json(self, capsys, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            fh.write("{not json")
        code, _, _ = run_cli(capsys, "eval", "--instance", path)
        assert code == 1

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (("eval", "--instance"), "[" * 100_000, "nested too deep"),
            (("experiment", "--config"), "[" * 100_000, "nested too deep"),
            (("eval", "--instance"), '{"n": 3, "edges": [[1, 2, 1]], "n": 4}', "duplicate key 'n'"),
            # an integer past Python's 4300-digit limit for int() of a string
            (("eval", "--instance"), '{"n": 3, "edges": [[1, 2, %s]]}' % ("7" * 5000),
             "error: invalid instance JSON: Exceeds the limit"),
            (("experiment", "--config"), '{"kind": "ratio_sweep", "n_min": %s}' % ("7" * 5000),
             "error: invalid config JSON: Exceeds the limit"),
        ],
        ids=["nested_instance", "nested_config", "duplicate_n", "long_int_instance", "long_int_config"],
    )
    def test_strict_json_files_exit_1(self, capsys, tmp_path, argv, text, message):
        path = tmp_path / "strict.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and message in err
        assert err.count("\n") == 1

    def test_duplicate_key_message_has_one_prefix(self, capsys, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"n": 3, "edges": [[1, 2, 1]], "n": 4}')
        code, out, err = run_cli(capsys, "eval", "--instance", str(path))
        assert (code, out, err) == (1, "", "error: invalid instance JSON: duplicate key 'n'\n")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


_REMOVE = object()  # a drawn junk value that deletes the field instead

# values no config field accepts: wrong types, and ints below every floor (seed_base has none)
_JUNK = st.one_of(
    st.text(max_size=3),
    st.floats(),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
    st.sampled_from([-1, 0]),
)
_VALID = {
    "kind": st.sampled_from(EXPERIMENT_KINDS),
    "n_min": st.integers(2, 6),
    "n_max": st.sampled_from([2, 3, 4, 5, 6, 99]),  # 99 is above every kind's cap
    "num_instances": st.integers(1, 3),
    "seed_base": st.integers(-(2**70), 2**70),
    "trial_budget": st.integers(1, 50),
    "output_format": st.sampled_from(["csv", "json"]),
    "threads": st.sampled_from([1, 2]),
}


@st.composite
def experiment_configs(draw):
    """A config object: kind, n_min and n_max plus some optional fields, then up to
    two fields made junk or removed; output_path is never drawn."""
    config = {
        key: draw(valid)
        for key, valid in _VALID.items()
        if key in ("kind", "n_min", "n_max") or draw(st.booleans())
    }
    for key in draw(st.lists(st.sampled_from(list(_VALID)), max_size=2, unique=True)):
        junk = draw(st.one_of(st.just(_REMOVE), _JUNK))
        if junk is _REMOVE:
            config.pop(key, None)
        else:
            config[key] = junk
    return config


class TestExperimentConfigFuzz:
    @given(config=experiment_configs(), with_output=st.booleans())
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_config_file_exit_codes_and_strict_json(self, capsys, tmp_path, config, with_output):
        if with_output:
            config["output_path"] = str(tmp_path / "records.out")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "experiment", "--config", str(path))
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        if out:
            json.loads(out, parse_constant=_reject_constant)
        if code == 0:
            assert out
        else:
            assert out == ""


# JSON values no instance field accepts: out of range, non-integer, bool, huge, wrong type
_BAD_INDEX = st.one_of(
    st.sampled_from([0, -1, 64, 2**63, 10**400]),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
)
_BAD_WEIGHT = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 1e308, -1e308, 10**400, 5e-324]),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.lists(st.integers(-2, 2), max_size=3),
)
_BAD_EDGE = st.one_of(
    st.integers(-2, 2), st.text(max_size=3), st.none(), st.lists(st.integers(1, 4), max_size=4),
    st.dictionaries(st.sampled_from("ijw"), st.integers(1, 3), max_size=3),
)
# text tokens: valid ones mixed with non-integer, non-finite, huge and empty ones
_TEXT_TOKENS = st.sampled_from(
    ["1", "2", "3", "5", "-1", "0", "1.5", "-2.25", "x", "nan", "inf", "-inf", "1e999",
     "99999999999999999999", "True", "0x1", "n", "#", ""]
)


@st.composite
def json_instances(draw):
    """Instance JSON text: an object with n and edges, some fields junk or missing,
    some edges malformed, possibly cut off at a random byte."""
    n = draw(st.integers(1, 6))
    edges = [
        [i, j, draw(st.sampled_from([1.0, -1.0, 2.5, -0.75]))]
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if draw(st.booleans())
    ]
    for e in edges:
        if draw(st.integers(0, 3)) == 0:
            slot = draw(st.sampled_from([0, 1, 2]))
            e[slot] = draw(_BAD_WEIGHT if slot == 2 else _BAD_INDEX)
    if draw(st.booleans()):
        edges.append(draw(_BAD_EDGE))
    data = {"n": n, "edges": edges}
    for key in draw(st.lists(st.sampled_from(["n", "edges"]), max_size=2, unique=True)):
        if draw(st.booleans()):
            data.pop(key)
        else:
            data[key] = draw(_BAD_INDEX)
    text = json.dumps(data)  # non-finite floats become Infinity / NaN tokens
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


@st.composite
def text_instances(draw):
    """Instance text: an optional vertex-count line, then 'i j weight' lines drawn
    from valid and junk tokens, possibly cut off at a random character."""
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["n ", "# n "])) + draw(_TEXT_TOKENS))
    for _ in range(draw(st.integers(0, 5))):
        lines.append(" ".join(draw(st.lists(_TEXT_TOKENS, min_size=2, max_size=4))))
    text = "\n".join(lines) + "\n"
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


class TestInstanceFileFuzz:
    @given(
        command=st.sampled_from(["eval", "cut", "maxcut", "hullcheck"]),
        suffix_and_text=st.one_of(
            st.tuples(st.just(".json"), json_instances()),
            st.tuples(st.just(".txt"), text_instances()),
        ),
    )
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_exit_codes_and_strict_json(self, capsys, tmp_path, command, suffix_and_text):
        suffix, text = suffix_and_text
        path = tmp_path / f"inst{suffix}"
        path.write_text(text)
        code, out, err = run_cli(capsys, command, "--instance", str(path))
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        if code == 0:
            json.loads(out, parse_constant=_reject_constant)
        else:
            assert out == ""


# CLI tokens no flag accepts as written, or accepts only to reject the value later
_JUNK_TOKENS = ["", "1_0", "\u0663", "\u0660.\u0665", "nan", "-1", str(2**70), "--"]
# flags whose junk must stay small: a huge instance count or thread count is not fuzzed
_SMALL_JUNK_TOKENS = [t for t in _JUNK_TOKENS if t != str(2**70)]
# "@name" is a file under tmp_path: one of four fixture instances, or an output file
_FIXTURES = {
    "tri.json": TRIANGLE,
    "k6.json": random_pm1_complete(6, 3),
    "h8.txt": hadamard_instance(8),
    "c5.txt": signed_cycle(5, (1, -1, 1, 1, -1)),
}
_INSTANCE = st.sampled_from(["@" + name for name in _FIXTURES])
_COORD = st.sampled_from(["h", "H", "0", "1", "0.5", "0.25", "1e-1", "7e-1"])
_SEED = st.integers(-(2**70), 2**70).map(str)
_N = st.integers(1, 8).map(str)


def _joined(token, max_size):
    return st.lists(token, min_size=1, max_size=max_size).map(",".join)


_CLI_FLAGS = {
    "gen": {
        "--family": st.sampled_from(list(INSTANCE_FAMILIES)),
        "--n": _N,
        "--seed": _SEED,
        "--signs": _joined(st.sampled_from(["+", "-", "1", "-1"]), 8),
        "--out": st.sampled_from(["@gen.json", "@gen.txt"]),
    },
    "eval": {"--instance": _INSTANCE, "--point": _joined(_COORD, 8)},
    "cut": {"--instance": _INSTANCE, "--seed": _SEED, "--budget": st.integers(1, 50).map(str)},
    "maxcut": {"--instance": _INSTANCE, "--subset": _joined(st.integers(1, 9).map(str), 4)},
    "hullcheck": {"--instance": _INSTANCE},
    "experiment": {
        "kind": st.sampled_from(EXPERIMENT_KINDS),
        "--n": _N,
        "--n-min": _N,
        "--n-max": _N,
        "--num-instances": st.integers(1, 3).map(str),
        "--seed-base": _SEED,
        "--budget": st.integers(1, 50).map(str),
        "--out": st.sampled_from(["@records.csv", "@records.json"]),
        "--format": st.sampled_from(["csv", "json"]),
        "--threads": st.sampled_from(["1", "2"]),
    },
}


_REQUIRED = {
    "gen": ("--family", "--n", "--seed", "--out"),
    "experiment": ("kind", "--n"),
    **dict.fromkeys(("eval", "cut", "maxcut", "hullcheck"), ("--instance",)),
}


@st.composite
def cli_argvs(draw):
    """One subcommand with its required flags and some optional ones, then up to
    two of them dropped or given junk values (--out only dropped, so every output
    stays under tmp_path).  Values go in as "--flag=value" or as two tokens."""
    command = draw(st.sampled_from(sorted(_CLI_FLAGS)))
    required = _REQUIRED.get(command, ())
    values = {
        flag: draw(valid)
        for flag, valid in _CLI_FLAGS[command].items()
        if flag in required or draw(st.booleans())
    }
    instance = _FIXTURES.get(values.get("--instance", "")[1:])
    if "--point" in values and instance is not None and draw(st.booleans()):
        coords = draw(st.lists(_COORD, min_size=instance.n, max_size=instance.n))
        values["--point"] = ",".join(coords)
    junked = []
    if values:
        junked = draw(st.lists(st.sampled_from(sorted(values)), max_size=2, unique=True))
    for flag in junked:
        small = flag in ("--num-instances", "--threads")
        junk = draw(st.sampled_from([_REMOVE] + (_SMALL_JUNK_TOKENS if small else _JUNK_TOKENS)))
        if junk is _REMOVE or flag == "--out":
            del values[flag]
        else:
            values[flag] = junk
    argv = [command]
    for flag, value in values.items():
        if flag == "kind":
            argv.append(value)
        elif draw(st.booleans()) or (value.startswith("-") and flag not in junked):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv


class TestCliArgumentFuzz:
    @given(argv=cli_argvs())
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_exit_codes_and_strict_json(self, capsys, tmp_path, argv):
        for name, g in _FIXTURES.items():
            if not (tmp_path / name).exists():
                write_instance(g, tmp_path / name)
        argv = [a.replace("@", f"{tmp_path}{os.sep}") for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        if code == 0 and argv[0] != "gen":
            json.loads(out, parse_constant=_reject_constant)
        else:
            assert out == ""
