from __future__ import annotations

import json
import math
import threading

import pytest

from bilingap import experiments
from bilingap.errors import CapacityError, InputError, InvariantViolationError
from bilingap.experiments import (
    CENSUS_CSV_FIELDS,
    CUT_CSV_FIELDS,
    EXPERIMENT_KINDS,
    GAP_CSV_FIELDS,
    MAX_THREADS,
    ExperimentConfig,
    run_cutfinder_stress,
    run_experiment,
    run_hadamard_ratio,
    run_hull_census,
    run_ratio_sweep,
    run_thm1_montecarlo,
    uniform_real_complete,
)
from bilingap.hullcheck import check_hull_exact


def strip_times(text: str) -> str:
    lines = text.splitlines()
    if not lines:
        return text
    if lines[0].startswith("{"):
        out = []
        for line in lines:
            obj = json.loads(line)
            for val in obj.values():
                if isinstance(val, dict):
                    val.pop("wall_time_ms", None)
            out.append(json.dumps(obj))
        return "\n".join(out)
    header = lines[0].split(",")
    if "wall_time_ms" not in header:
        return text
    drop = header.index("wall_time_ms")
    return "\n".join(
        ",".join(cell for idx, cell in enumerate(line.split(",")) if idx != drop)
        for line in lines
    )


def read_text(path) -> str:
    with open(path) as fh:
        return fh.read()


class TestConfigValidation:
    def test_kinds(self):
        assert set(EXPERIMENT_KINDS) == {
            "thm1_montecarlo", "hadamard_ratio", "cutfinder_stress",
            "hull_census", "ratio_sweep",
        }
        with pytest.raises(InputError):
            ExperimentConfig(kind="nope", n_min=2, n_max=4)

    def test_n_caps_per_kind(self):
        with pytest.raises(CapacityError):
            ExperimentConfig(kind="thm1_montecarlo", n_min=2, n_max=25)
        with pytest.raises(CapacityError):
            ExperimentConfig(kind="hull_census", n_min=2, n_max=11)
        ExperimentConfig(kind="cutfinder_stress", n_min=3, n_max=50)  # allowed

    def test_other_fields(self):
        with pytest.raises(InputError):
            ExperimentConfig(kind="ratio_sweep", n_min=5, n_max=4)
        with pytest.raises(InputError):
            ExperimentConfig(kind="ratio_sweep", n_min=2, n_max=4, num_instances=0)
        with pytest.raises(InputError):
            ExperimentConfig(kind="ratio_sweep", n_min=2, n_max=4, output_format="xml")
        with pytest.raises(InputError):
            ExperimentConfig(kind="ratio_sweep", n_min=2, n_max=4, threads=0)
        with pytest.raises(InputError):
            ExperimentConfig(kind="ratio_sweep", n_min=2, n_max=4, trial_budget=0)

    def test_threads_capped(self):
        ExperimentConfig(kind="ratio_sweep", n_min=2, n_max=4, threads=MAX_THREADS)
        with pytest.raises(CapacityError, match=f"threads must be <= {MAX_THREADS}"):
            ExperimentConfig(kind="ratio_sweep", n_min=2, n_max=4, threads=MAX_THREADS + 1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_min", "2"),
            ("n_min", 2.5),
            ("n_max", None),
            ("seed_base", "x"),
            ("seed_base", 1.0),
            ("num_instances", True),
            ("trial_budget", False),
            ("threads", 2.0),
            ("output_path", 7),
            ("output_path", False),
            ("kind", 5),
            ("kind", ["ratio_sweep"]),
            ("output_format", None),
        ],
    )
    def test_wrong_field_types_rejected(self, field, value):
        kw = {"kind": "ratio_sweep", "n_min": 2, "n_max": 4, field: value}
        with pytest.raises(InputError, match=f"config field {field} must be"):
            ExperimentConfig(**kw)

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_n_below_two_rejected_for_every_kind(self, kind):
        for n_min, n_max in ((1, 1), (0, 4), (1, 4)):
            if kind == "thm1_montecarlo" and n_min != n_max:
                continue
            with pytest.raises(InputError, match="2 <= n_min"):
                ExperimentConfig(kind=kind, n_min=n_min, n_max=n_max)


class TestThm1MonteCarlo:
    def test_n2_every_instance_ratio_one(self):
        cfg = ExperimentConfig(kind="thm1_montecarlo", n_min=2, n_max=2, num_instances=5)
        records, summary = run_thm1_montecarlo(cfg)
        assert len(records) == 5
        for rec in records:
            assert rec.mcgap == 0.5 and rec.chgap == 0.5
            assert rec.ratio == pytest.approx(1.0)
            assert rec.threshold_met  # sqrt(2)/4 < 1
        assert summary["fraction_met"] == 1.0
        assert summary["threshold"] == pytest.approx(math.sqrt(2.0) / 4.0)

    def test_mcgap_formula_and_seeds(self):
        cfg = ExperimentConfig(
            kind="thm1_montecarlo", n_min=8, n_max=8, num_instances=4, seed_base=100
        )
        records, summary = run_thm1_montecarlo(cfg)
        assert [r.instance_seed for r in records] == [100, 101, 102, 103]
        for rec in records:
            assert rec.mcgap == 8 * 7 / 4
            assert rec.n == 8
        assert summary["num_instances"] == 4
        assert 0.0 <= summary["fraction_met"] <= 1.0
        assert summary["min_ratio"] <= summary["max_ratio"]


    def test_records_equal_ratio_sweep_at_one_n(self):
        kw = dict(n_min=7, n_max=7, num_instances=6, seed_base=40)
        thm1, _ = run_thm1_montecarlo(ExperimentConfig(kind="thm1_montecarlo", **kw))
        sweep, _ = run_ratio_sweep(ExperimentConfig(kind="ratio_sweep", **kw))

        def without_time(records):
            return [{k: v for k, v in r.to_dict().items() if k != "wall_time_ms"} for r in records]

        assert without_time(thm1) == without_time(sweep)

    def test_n_range_rejected(self):
        with pytest.raises(InputError, match="one n"):
            ExperimentConfig(kind="thm1_montecarlo", n_min=4, n_max=6)


class TestRatioSweep:
    def test_record_ordering_and_per_n_summary(self):
        cfg = ExperimentConfig(kind="ratio_sweep", n_min=2, n_max=4, num_instances=3)
        records, summary = run_ratio_sweep(cfg)
        assert [(r.n, r.instance_seed) for r in records] == [
            (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2),
        ]
        assert [row["n"] for row in summary["per_n"]] == [2, 3, 4]
        for row in summary["per_n"]:
            assert row["min_ratio"] <= row["mean_ratio"]


def hadamard_config(n_min: int, n_max: int) -> ExperimentConfig:
    return ExperimentConfig(kind="hadamard_ratio", n_min=n_min, n_max=n_max)


class TestHadamardRatio:
    def test_single_size_and_range_configs_agree(self):
        singles = [run_hadamard_ratio(hadamard_config(n, n)) for n in (4, 8)]
        recs_a = [rec for recs, _ in singles for rec in recs]
        recs_b, sum_b = run_hadamard_ratio(hadamard_config(4, 8))
        rows_b = {row["n"]: row for row in sum_b["rows"]}
        for _, sum_a in singles:
            (row,) = sum_a["rows"]
            assert rows_b[row["n"]]["mu_plus"] == row["mu_plus"]
            assert rows_b[row["n"]]["mu_minus"] == row["mu_minus"]
            assert sum_a["all_within_discrepancy_bound"]
        assert sum_b["all_within_discrepancy_bound"]
        assert [r.n for r in recs_a] == [4, 8]

    def test_frozen_n18_values(self):
        records, summary = run_hadamard_ratio(hadamard_config(18, 18))
        row = summary["rows"][0]
        assert row["mu_plus"] == 32.0
        assert row["mu_minus"] == -9.0
        assert row["discrepancy_ok"]
        rec = records[0]
        assert rec.ratio == pytest.approx(3.7317073170731705, abs=1e-9)
        assert rec.ratio >= math.sqrt(18.0) / 3.0


class TestUniformRealComplete:
    def test_structure_and_range(self):
        g = uniform_real_complete(7, seed=12)
        assert g.num_edges == 21
        for _, _, w in g.edges:
            assert -1.0 <= w < 1.0
            assert w != 0.0

    def test_deterministic(self):
        assert uniform_real_complete(5, 3).edges == uniform_real_complete(5, 3).edges


class TestCutfinderStress:
    def test_small_run_meets_guarantee(self):
        cfg = ExperimentConfig(
            kind="cutfinder_stress", n_min=3, n_max=10, num_instances=20, seed_base=0
        )
        records, summary = run_cutfinder_stress(cfg)
        assert len(records) == 20
        assert summary["fraction_meets_guarantee"] == 1.0
        assert summary["min_bound_ratio"] >= 1.0
        for rec in records:
            assert rec.family in ("pm1", "real")
            assert rec.bound_ratio == pytest.approx(abs(rec.weight) / rec.bound)
        assert sum(summary["case_counts"].values()) == 20

    def test_families_alternate(self):
        cfg = ExperimentConfig(
            kind="cutfinder_stress", n_min=5, n_max=5, num_instances=4, seed_base=7
        )
        records, _ = run_cutfinder_stress(cfg)
        assert [r.family for r in records] == ["pm1", "real", "pm1", "real"]
        assert [r.instance_seed for r in records] == [7, 8, 9, 10]


    def test_instance_seeds_and_sizes(self):
        cfg = ExperimentConfig(
            kind="cutfinder_stress", n_min=3, n_max=5, num_instances=7, seed_base=7
        )
        records, _ = run_cutfinder_stress(cfg)
        assert [(r.instance_seed, r.n) for r in records] == [
            (7, 3), (8, 4), (9, 5), (10, 3), (11, 4), (12, 5), (13, 3),
        ]


class TestHullCensus:
    def test_random_labels_follow_the_instance_rule(self):
        cfg = ExperimentConfig(
            kind="hull_census", n_min=3, n_max=5, num_instances=7, seed_base=7
        )
        records, _ = run_hull_census(cfg)
        assert [r.instance_id for r in records if r.instance_id.startswith("random:")] == [
            "random:n3:s7", "random:n4:s8", "random:n5:s9", "random:n3:s10",
            "random:n4:s11", "random:n5:s12", "random:n3:s13",
        ]
        assert len(records) == (8 + 16 + 32) + (4 + 8 + 16) + 7  # cycles, paths, random

    def test_generators_are_called_through_the_module(self, monkeypatch):
        """A generator replaced on the experiments module is the one the census calls."""
        calls = {}
        for name in ("signed_cycle", "signed_path", "random_signed_graph"):
            original = getattr(experiments, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args)

            monkeypatch.setattr(experiments, name, counted)
        cfg = ExperimentConfig(kind="hull_census", n_min=2, n_max=4, num_instances=5)
        records, _ = run_hull_census(cfg)
        assert calls == {
            "signed_cycle": 8 + 16,
            "signed_path": 2 + 4 + 8,
            "random_signed_graph": 5,
        }
        assert len(records) == sum(calls.values())

    def test_tiny_census_agrees(self):
        cfg = ExperimentConfig(kind="hull_census", n_min=3, n_max=4, num_instances=5)
        records, summary = run_hull_census(cfg)
        assert summary["fraction_agree"] == 1.0
        labels = [r.instance_id for r in records]
        assert sum(1 for s in labels if s.startswith("cycle3:")) == 8
        assert sum(1 for s in labels if s.startswith("cycle4:")) == 16
        assert sum(1 for s in labels if s.startswith("random:")) == 5
        for rec in records:
            assert rec.exact == rec.numeric_exact
            assert rec.agree


# one small config per kind
SMALL_RUNS = {
    "thm1_montecarlo": dict(n_min=5, n_max=5, num_instances=3),
    "ratio_sweep": dict(n_min=3, n_max=5, num_instances=2),
    "hadamard_ratio": dict(n_min=2, n_max=6),
    "cutfinder_stress": dict(n_min=4, n_max=9, num_instances=4),
    "hull_census": dict(n_min=3, n_max=4, num_instances=3),
}


class TestRecordLoop:
    """What _stream adds to every kind: the summary's kind key and each record's wall time."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_kind_first_and_a_wall_time_per_record(self, kind, threads, tmp_path):
        out = tmp_path / "run.jsonl"
        cfg = ExperimentConfig(
            kind=kind, output_path=str(out), output_format="json", threads=threads,
            **SMALL_RUNS[kind],
        )
        records, summary = run_experiment(cfg)
        lines = [json.loads(line) for line in read_text(out).splitlines()]
        assert lines[-1] == {"summary": summary}
        assert list(summary)[0] == "kind" and summary["kind"] == kind
        assert len(lines) == len(records) + 2
        for rec, line in zip(records, lines[1:-1]):
            assert line == {"record": rec.to_dict()}
            assert type(rec.wall_time_ms) is float and rec.wall_time_ms >= 0.0

    def test_workers_run_on_the_calling_thread(self, monkeypatch):
        """threads=2 is accepted and recorded, but every worker call runs serially here."""
        idents = []

        def recorded(g):
            idents.append(threading.get_ident())
            return check_hull_exact(g)

        monkeypatch.setattr(experiments, "check_hull_exact", recorded)
        cfg = ExperimentConfig(kind="hull_census", threads=2, **SMALL_RUNS["hull_census"])
        records, _ = run_experiment(cfg)
        assert len(idents) == len(records) > 2
        assert set(idents) == {threading.get_ident()}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_closed_when_a_worker_raises(self, fmt, monkeypatch, tmp_path):
        """A raising worker leaves the output closed, holding the records written before it."""
        handles = []

        class CapturingWriter(experiments.RecordWriter):
            def __init__(self, *args):
                super().__init__(*args)
                handles.append(self._fh)

        calls = []

        def failing_third(g):
            calls.append(g)
            if len(calls) == 3:
                raise InvariantViolationError("forced")
            return check_hull_exact(g)

        monkeypatch.setattr(experiments, "RecordWriter", CapturingWriter)
        monkeypatch.setattr(experiments, "check_hull_exact", failing_third)
        out = tmp_path / f"census.{fmt}"
        cfg = ExperimentConfig(
            kind="hull_census", output_path=str(out), output_format=fmt,
            **SMALL_RUNS["hull_census"],
        )
        with pytest.raises(InvariantViolationError, match="forced"):
            run_experiment(cfg)
        assert len(handles) == 1 and handles[0].closed
        lines = read_text(out).splitlines()
        assert len(lines) == 1 + 2  # header or config line, then the two finished records
        if fmt == "json":
            assert [list(json.loads(line)) for line in lines] == [["config"], ["record"], ["record"]]
        else:
            assert lines[0] == ",".join(CENSUS_CSV_FIELDS)


class TestRunExperimentAndOutput:
    def test_dispatch_unknown_guarded_by_config(self):
        cfg = ExperimentConfig(kind="thm1_montecarlo", n_min=2, n_max=2, num_instances=2)
        records, summary = run_experiment(cfg)
        assert len(records) == 2

    def test_csv_header_contract(self, tmp_path):
        out = tmp_path / "gaps.csv"
        cfg = ExperimentConfig(
            kind="thm1_montecarlo", n_min=2, n_max=2, num_instances=3,
            output_path=str(out),
        )
        run_experiment(cfg)
        lines = read_text(out).splitlines()
        assert lines[0] == "instance_seed,n,mcgap,chgap,ratio,threshold,threshold_met,wall_time_ms"
        assert len(lines) == 4
        assert lines[1].split(",")[0] == "0"
        assert ",".join(GAP_CSV_FIELDS) == lines[0]

    def test_csv_booleans_lowercase(self, tmp_path):
        out = tmp_path / "gaps.csv"
        cfg = ExperimentConfig(
            kind="thm1_montecarlo", n_min=2, n_max=2, num_instances=1,
            output_path=str(out),
        )
        run_experiment(cfg)
        assert ",true," in read_text(out) or read_text(out).rstrip().endswith("true") or ",true" in read_text(out)

    def test_jsonl_structure(self, tmp_path):
        out = tmp_path / "gaps.jsonl"
        cfg = ExperimentConfig(
            kind="thm1_montecarlo", n_min=2, n_max=2, num_instances=3,
            output_path=str(out), output_format="json",
        )
        run_experiment(cfg)
        lines = read_text(out).splitlines()
        assert len(lines) == 5
        parsed = [json.loads(line) for line in lines]
        assert lines[0] == (
            '{"config": {"kind": "thm1_montecarlo", "n_min": 2, "n_max": 2, "num_instances": 3, '
            '"seed_base": 0, "trial_budget": 1000, "output_format": "json", "threads": 1}}'
        )
        assert all("record" in p for p in parsed[1:4])
        assert "summary" in parsed[4]
        # any prefix is itself a sequence of valid JSON lines
        for line in lines[:-1]:
            json.loads(line)

    def test_threads_do_not_change_output(self, tmp_path):
        texts = {}
        for threads in (1, 2):
            out = tmp_path / f"t{threads}.csv"
            cfg = ExperimentConfig(
                kind="ratio_sweep", n_min=2, n_max=5, num_instances=4,
                output_path=str(out), threads=threads,
            )
            run_experiment(cfg)
            texts[threads] = strip_times(read_text(out))
        assert texts[1] == texts[2]

    def test_rerun_identical_modulo_wall_time(self, tmp_path):
        texts = []
        for run in range(2):
            out = tmp_path / f"r{run}.jsonl"
            cfg = ExperimentConfig(
                kind="cutfinder_stress", n_min=3, n_max=8, num_instances=6,
                output_path=str(out), output_format="json",
            )
            run_experiment(cfg)
            texts.append(strip_times(read_text(out)))
        assert texts[0] == texts[1]

    def test_stress_and_census_csv_headers(self, tmp_path):
        out = tmp_path / "stress.csv"
        cfg = ExperimentConfig(
            kind="cutfinder_stress", n_min=3, n_max=3, num_instances=1,
            output_path=str(out),
        )
        run_experiment(cfg)
        header = read_text(out).splitlines()[0]
        assert header == (
            "instance_seed,n,family,weight,bound,bound_ratio,meets_guarantee,case,"
            "trials_used,wall_time_ms"
        )
        assert ",".join(CUT_CSV_FIELDS) == header
        out2 = tmp_path / "census.csv"
        cfg = ExperimentConfig(
            kind="hull_census", n_min=3, n_max=3, num_instances=1,
            output_path=str(out2),
        )
        run_experiment(cfg)
        header = read_text(out2).splitlines()[0]
        assert header == "instance_id,n,exact,numeric_exact,agree,wall_time_ms"
        assert ",".join(CENSUS_CSV_FIELDS) == header
