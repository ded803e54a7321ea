from __future__ import annotations

import json
import math
import threading
import tracemalloc

import numpy as np
import pytest

from bilingap import experiments
from bilingap.errors import CapacityError, InputError, InvariantViolationError
from bilingap.experiments import (
    EXPERIMENT_KINDS,
    MAX_THREADS,
    CutStressRecord,
    ExperimentConfig,
    GapRecord,
    HullCensusRecord,
    run_experiment,
    uniform_real_complete,
)
from bilingap.hullcheck import check_hull_exact

from conftest import strip_wall_times


def read_text(path) -> str:
    with open(path) as fh:
        return fh.read()


class TestConfigValidation:
    def test_kinds(self):
        assert EXPERIMENT_KINDS == (
            "hadamard_ratio", "cutfinder_stress", "hull_census", "ratio_sweep",
        )
        with pytest.raises(InputError):
            ExperimentConfig(kind="nope", n_min=2, n_max=4)

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_n_caps_per_kind(self, kind):
        """One instance at the kind's cap runs through run_experiment; cap + 1 is refused."""
        cap, _, unread = experiments._KINDS[kind]
        one = {} if "num_instances" in unread else {"num_instances": 1}
        records, summary = run_experiment(ExperimentConfig(kind=kind, n_min=cap, n_max=cap, **one))
        assert summary["kind"] == kind
        assert [r.n for r in records] == [cap]
        with pytest.raises(CapacityError, match=f"supports n <= {cap}, got {cap + 1}"):
            ExperimentConfig(kind=kind, n_min=cap + 1, n_max=cap + 1)

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

    def test_numpy_integer_fields_are_stored_as_ints(self, tmp_path):
        """cutfinder_stress reads every integer field, so each one can differ from its default."""
        out = tmp_path / "run.jsonl"
        ints = dict(n_min=2, n_max=3, num_instances=2, seed_base=5, trial_budget=10, threads=2)
        cfg = ExperimentConfig(
            kind="cutfinder_stress", output_path=str(out), output_format="json",
            **{k: t(v) for (k, v), t in zip(ints.items(), (np.int64, np.int32, np.uint8) * 2)},
        )
        assert cfg == ExperimentConfig(kind="cutfinder_stress", output_path=str(out),
                                       output_format="json", **ints)
        assert all(type(getattr(cfg, k)) is int for k in ints)
        run_experiment(cfg)
        config_line = json.loads(read_text(out).splitlines()[0])
        assert config_line == {"config": cfg.to_json_dict()}
        assert all(type(config_line["config"][k]) is int for k in ints)

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_n_below_two_rejected_for_every_kind(self, kind):
        for n_min, n_max in ((1, 1), (0, 4), (1, 4)):
            with pytest.raises(InputError, match="2 <= n_min"):
                ExperimentConfig(kind=kind, n_min=n_min, n_max=n_max)

    @pytest.mark.parametrize(
        "kind, field",
        [(kind, field) for kind, (_, _, unread) in experiments._KINDS.items() for field in unread],
    )
    def test_unread_field_must_keep_its_default(self, kind, field):
        default = ExperimentConfig.__dataclass_fields__[field].default
        ExperimentConfig(kind=kind, n_min=4, n_max=5, **{field: default})
        with pytest.raises(InputError, match=f"^kind {kind!r} does not take {field}$"):
            ExperimentConfig(kind=kind, n_min=4, n_max=5, **{field: default + 7})

    def test_unread_fields_are_checked_after_the_bounds(self):
        with pytest.raises(InputError, match="num_instances must be >= 1"):
            ExperimentConfig(kind="hadamard_ratio", n_min=4, n_max=5, num_instances=0)
        with pytest.raises(CapacityError, match="supports n <= 24"):
            ExperimentConfig(kind="hadamard_ratio", n_min=4, n_max=25, num_instances=7)


class TestThm1MonteCarlo:
    """The Theorem 1 Monte Carlo run: ratio_sweep at one n, whose summary has one per_n row."""

    def test_n2_every_instance_ratio_one(self):
        cfg = ExperimentConfig(kind="ratio_sweep", n_min=2, n_max=2, num_instances=5)
        records, summary = run_experiment(cfg)
        assert len(records) == 5
        for rec in records:
            assert rec.mcgap == 0.5 and rec.chgap == 0.5
            assert rec.ratio == pytest.approx(1.0)
            assert rec.threshold_met  # sqrt(2)/4 < 1
        (row,) = summary["per_n"]
        assert row["fraction_met"] == 1.0
        assert row["threshold"] == pytest.approx(math.sqrt(2.0) / 4.0)

    def test_mcgap_formula_and_seeds(self):
        cfg = ExperimentConfig(
            kind="ratio_sweep", n_min=8, n_max=8, num_instances=4, seed_base=100
        )
        records, summary = run_experiment(cfg)
        assert [r.instance_seed for r in records] == [100, 101, 102, 103]
        for rec in records:
            assert rec.mcgap == 8 * 7 / 4
            assert rec.n == 8
        assert summary["num_records"] == 4
        (row,) = summary["per_n"]
        assert 0.0 <= row["fraction_met"] <= 1.0
        assert row["min_ratio"] <= row["max_ratio"]

    def test_records_equal_ratio_sweep_at_one_n(self):
        """The one-n run writes the same records as a range sweep does at that n."""
        kw = dict(num_instances=6, seed_base=40)
        one_n, _ = run_experiment(ExperimentConfig(kind="ratio_sweep", n_min=7, n_max=7, **kw))
        sweep, _ = run_experiment(ExperimentConfig(kind="ratio_sweep", n_min=5, n_max=8, **kw))

        def without_time(records):
            return [{k: v for k, v in r.to_dict().items() if k != "wall_time_ms"} for r in records]

        assert without_time(one_n) == without_time([r for r in sweep if r.n == 7])


class TestRatioSweep:
    def test_record_ordering_and_per_n_summary(self):
        cfg = ExperimentConfig(kind="ratio_sweep", n_min=2, n_max=4, num_instances=3)
        records, summary = run_experiment(cfg)
        assert [(r.n, r.instance_seed) for r in records] == [
            (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2),
        ]
        assert [row["n"] for row in summary["per_n"]] == [2, 3, 4]
        for row in summary["per_n"]:
            assert list(row) == [
                "n", "mean_ratio", "min_ratio", "fraction_met", "max_ratio", "threshold",
            ]
            assert row["min_ratio"] <= row["mean_ratio"] <= row["max_ratio"]
            assert row["threshold"] == math.sqrt(row["n"]) / 4.0


def hadamard_config(n_min: int, n_max: int) -> ExperimentConfig:
    return ExperimentConfig(kind="hadamard_ratio", n_min=n_min, n_max=n_max)


class TestHadamardRatio:
    def test_single_size_and_range_configs_agree(self):
        singles = [run_experiment(hadamard_config(n, n)) for n in (4, 8)]
        recs_a = [rec for recs, _ in singles for rec in recs]
        recs_b, sum_b = run_experiment(hadamard_config(4, 8))
        rows_b = {row["n"]: row for row in sum_b["rows"]}
        for _, sum_a in singles:
            (row,) = sum_a["rows"]
            assert rows_b[row["n"]]["mu_plus"] == row["mu_plus"]
            assert rows_b[row["n"]]["mu_minus"] == row["mu_minus"]
            assert sum_a["all_within_discrepancy_bound"]
        assert sum_b["all_within_discrepancy_bound"]
        assert [r.n for r in recs_a] == [4, 8]

    def test_frozen_n18_values(self):
        records, summary = run_experiment(hadamard_config(18, 18))
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
        records, summary = run_experiment(cfg)
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
        records, _ = run_experiment(cfg)
        assert [r.family for r in records] == ["pm1", "real", "pm1", "real"]
        assert [r.instance_seed for r in records] == [7, 8, 9, 10]


    def test_instance_seeds_and_sizes(self):
        cfg = ExperimentConfig(
            kind="cutfinder_stress", n_min=3, n_max=5, num_instances=7, seed_base=7
        )
        records, _ = run_experiment(cfg)
        assert [(r.instance_seed, r.n) for r in records] == [
            (7, 3), (8, 4), (9, 5), (10, 3), (11, 4), (12, 5), (13, 3),
        ]


class TestHullCensus:
    def test_random_labels_follow_the_instance_rule(self):
        cfg = ExperimentConfig(
            kind="hull_census", n_min=3, n_max=5, num_instances=7, seed_base=7
        )
        records, _ = run_experiment(cfg)
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
        records, _ = run_experiment(cfg)
        assert calls == {
            "signed_cycle": 8 + 16,
            "signed_path": 2 + 4 + 8,
            "random_signed_graph": 5,
        }
        assert len(records) == sum(calls.values())

    def test_tiny_census_agrees(self):
        cfg = ExperimentConfig(kind="hull_census", n_min=3, n_max=4, num_instances=5)
        records, summary = run_experiment(cfg)
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

    @pytest.mark.parametrize("kind", ["ratio_sweep", "cutfinder_stress"])
    def test_jobs_stream_to_the_first_worker_call(self, kind, monkeypatch):
        """No whole job list is built up front: the first record starts in little memory."""

        class FirstCall(Exception):
            pass

        def first_call(n, seed):
            raise FirstCall(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(experiments, "random_pm1_complete", first_call)
        cfg = ExperimentConfig(kind=kind, n_min=2, n_max=24, num_instances=20_000)
        tracemalloc.start()
        try:
            with pytest.raises(FirstCall) as raised:
                run_experiment(cfg)
        finally:
            tracemalloc.stop()
        assert raised.value.args[0] < 0.5 * 2**20

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
            assert lines[0] == ",".join(HullCensusRecord.FIELDS)


class TestRunExperimentAndOutput:
    def test_dispatch_unknown_guarded_by_config(self):
        cfg = ExperimentConfig(kind="ratio_sweep", n_min=2, n_max=2, num_instances=2)
        records, summary = run_experiment(cfg)
        assert len(records) == 2

    def test_csv_header_contract(self, tmp_path):
        out = tmp_path / "gaps.csv"
        cfg = ExperimentConfig(
            kind="ratio_sweep", n_min=2, n_max=2, num_instances=3,
            output_path=str(out),
        )
        run_experiment(cfg)
        lines = read_text(out).splitlines()
        assert lines[0] == "instance_seed,n,mcgap,chgap,ratio,threshold,threshold_met,wall_time_ms"
        assert len(lines) == 4
        assert lines[1].split(",")[0] == "0"
        assert ",".join(GapRecord.FIELDS) == lines[0]

    def test_csv_booleans_lowercase(self, tmp_path):
        out = tmp_path / "gaps.csv"
        cfg = ExperimentConfig(
            kind="ratio_sweep", n_min=2, n_max=2, num_instances=1,
            output_path=str(out),
        )
        run_experiment(cfg)
        assert ",true," in read_text(out) or read_text(out).rstrip().endswith("true") or ",true" in read_text(out)

    def test_jsonl_structure(self, tmp_path):
        out = tmp_path / "gaps.jsonl"
        cfg = ExperimentConfig(
            kind="ratio_sweep", n_min=2, n_max=2, num_instances=3,
            output_path=str(out), output_format="json",
        )
        run_experiment(cfg)
        lines = read_text(out).splitlines()
        assert len(lines) == 5
        parsed = [json.loads(line) for line in lines]
        assert lines[0] == (
            '{"config": {"kind": "ratio_sweep", "n_min": 2, "n_max": 2, "num_instances": 3, '
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
            texts[threads] = strip_wall_times(read_text(out))
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
            texts.append(strip_wall_times(read_text(out)))
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
        assert ",".join(CutStressRecord.FIELDS) == header
        out2 = tmp_path / "census.csv"
        cfg = ExperimentConfig(
            kind="hull_census", n_min=3, n_max=3, num_instances=1,
            output_path=str(out2),
        )
        run_experiment(cfg)
        header = read_text(out2).splitlines()[0]
        assert header == "instance_id,n,exact,numeric_exact,agree,wall_time_ms"
        assert ",".join(HullCensusRecord.FIELDS) == header
