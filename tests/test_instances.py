from __future__ import annotations

import math

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilingap.cuts import cut_range_bruteforce
from bilingap.envelopes import EvaluationPoint, mcgap_halfpoint
from bilingap.errors import CapacityError, InputError
from bilingap.cli import main
from bilingap.graph import read_instance
from bilingap.instances import (
    INSTANCE_FAMILIES,
    hadamard_discrepancy_bound,
    hadamard_instance,
    random_pm1_bipartite,
    random_pm1_complete,
    random_signed_graph,
    signed_cycle,
    signed_path,
    uniform_real_complete,
)

from conftest import splitmix64_reference


class TestRandomPm1Complete:
    def test_structure(self):
        g = random_pm1_complete(4, seed=11)
        assert g.n == 4
        assert g.num_edges == 6
        assert all(abs(w) == 1.0 for _, _, w in g.edges)

    def test_deterministic(self):
        a = random_pm1_complete(9, seed=3)
        b = random_pm1_complete(9, seed=3)
        assert a.edges == b.edges
        c = random_pm1_complete(9, seed=4)
        assert c.edges != a.edges

    def test_range_validation(self):
        with pytest.raises(InputError):
            random_pm1_complete(1, seed=0)
        with pytest.raises(CapacityError):
            random_pm1_complete(64, seed=0)

    def test_signed_total_clt_bound(self):
        # 100 seeds at n=20: each total is a sum of 190 fair signs, so the
        # empirical mean should sit well inside 3 sigma / sqrt(100)
        means = [
            sum(w for _, _, w in random_pm1_complete(20, seed).edges) for seed in range(100)
        ]
        assert abs(sum(means) / 100.0) < 3.0 * math.sqrt(190.0) / 10.0

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_lexicographic_draw_order_contract(self, seed):
        # weights must match replaying the generator along (i,j) lexicographic order
        g = random_pm1_complete(6, seed)
        stream = iter(splitmix64_reference(seed, 15))
        expected = {}
        for i in range(1, 7):
            for j in range(i + 1, 7):
                expected[(i, j)] = -1.0 if next(stream) & 1 else 1.0
        assert {(i, j): w for i, j, w in g.edges} == expected


class TestHadamardInstance:
    def test_n4_exact_weights(self):
        g = hadamard_instance(4)
        weights = {(i, j): w for i, j, w in g.edges}
        assert weights == {
            (1, 2): 1.0, (1, 3): 1.0, (1, 4): 1.0,
            (2, 3): 1.0, (2, 4): -1.0, (3, 4): -1.0,
        }

    def test_n2_single_positive_edge(self):
        g = hadamard_instance(2)
        assert g.edges == ((1, 2, 1.0),)

    def test_bit_inner_product_definition(self):
        for n in (5, 8, 13):
            g = hadamard_instance(n)
            for i, j, w in g.edges:
                parity = ((i - 1) & (j - 1)).bit_count() & 1
                assert w == (-1.0 if parity else 1.0)

    def test_discrepancy_bound_small_n(self):
        for n in (2, 4, 8, 12, 16):
            g = hadamard_instance(n)
            mu_plus, mu_minus = cut_range_bruteforce(g, g.vertices)
            bound = hadamard_discrepancy_bound(n)
            assert bound == pytest.approx(n ** 1.5 / math.sqrt(2.0), abs=1e-12)
            assert mu_plus <= bound + 1e-9
            assert -mu_minus <= bound + 1e-9

    def test_range_validation(self):
        with pytest.raises(InputError):
            hadamard_instance(1)
        with pytest.raises(CapacityError):
            hadamard_instance(64)


class TestRandomPm1Bipartite:
    def test_structure(self):
        g = random_pm1_bipartite(3, seed=0)
        assert g.n == 6
        assert g.num_edges == 9
        for i, j, _ in g.edges:
            assert i <= 3 < j  # no edge inside a part

    def test_single_edge(self):
        g = random_pm1_bipartite(1, seed=5)
        assert g.num_edges == 1 and g.n == 2

    def test_range_validation(self):
        with pytest.raises(InputError):
            random_pm1_bipartite(0, seed=0)
        with pytest.raises(CapacityError):
            random_pm1_bipartite(32, seed=0)

    def test_half_point_ratio_montecarlo(self):
        # m=10: gap ratio should clear sqrt(2m)/8 in at least 90% of seeds
        threshold = math.sqrt(20.0) / 8.0
        hits = 0
        for seed in range(50):
            g = random_pm1_bipartite(10, seed)
            mcg = mcgap_halfpoint(g, EvaluationPoint.all_half(20))
            mu_plus, mu_minus = cut_range_bruteforce(g, g.vertices)
            chg = 0.5 * (mu_plus - mu_minus)
            if chg > 0 and mcg / chg >= threshold:
                hits += 1
        assert hits >= 45


SEEDED = (random_pm1_complete, uniform_real_complete, random_signed_graph, random_pm1_bipartite)


class TestNumberRule:
    """Vertex counts and seeds are integers (numpy ones too); bools and floats are rejected."""

    @pytest.mark.parametrize("generate", SEEDED)
    @pytest.mark.parametrize("n", [True, 4.0, 4.5, "4", None, np.float64(4.0)])
    def test_rejects_a_non_integer_vertex_count(self, generate, n):
        with pytest.raises(InputError, match="vertex count must be an integer"):
            generate(n, 0)

    @pytest.mark.parametrize("generate", SEEDED)
    @pytest.mark.parametrize("seed", [1.5, True, "1", None])
    def test_rejects_a_non_integer_seed(self, generate, seed):
        with pytest.raises(InputError, match="seed must be an integer"):
            generate(4, seed)

    @pytest.mark.parametrize("generate", SEEDED)
    def test_numpy_integers_read_as_ints(self, generate):
        g = generate(np.int64(4), np.uint32(9))
        assert type(g.n) is int and g == generate(4, 9)

    @pytest.mark.parametrize("generate", [hadamard_instance, lambda n: signed_path(n, (1,) * 3)])
    @pytest.mark.parametrize("n", [True, 4.0, "4", None])
    def test_rejects_a_non_integer_vertex_count_without_seed(self, generate, n):
        with pytest.raises(InputError, match="vertex count must be an integer"):
            generate(n)

    @pytest.mark.parametrize(
        "signs", [["1", "-1", "1"], [1, -1, True], [1.0, -1.0, np.bool_(True)], [1, -1, None]]
    )
    def test_cycle_rejects_non_number_signs(self, signs):
        with pytest.raises(InputError, match="signs must be the numbers"):
            signed_cycle(3, signs)

    @pytest.mark.parametrize("generate, signs", [(signed_cycle, 5), (signed_path, None)])
    def test_rejects_signs_that_are_not_a_sequence(self, generate, signs):
        with pytest.raises(InputError, match=f"needs a sequence of [23] signs, got {signs}"):
            generate(3, signs)

    def test_numpy_signs_read_as_floats(self):
        g = signed_cycle(3, np.array([1, -1, 1]))
        assert g == signed_cycle(3, (1.0, -1.0, 1.0))
        assert all(type(w) is float for _, _, w in g.edges)


class TestCyclePath:
    def test_cycle_structure(self):
        g = signed_cycle(4, (1, 1, -1, -1))
        assert {(i, j): w for i, j, w in g.edges} == {
            (1, 2): 1.0, (2, 3): 1.0, (3, 4): -1.0, (1, 4): -1.0,
        }

    def test_path_structure(self):
        g = signed_path(4, (1, -1, 1))
        assert {(i, j): w for i, j, w in g.edges} == {
            (1, 2): 1.0, (2, 3): -1.0, (3, 4): 1.0,
        }

    def test_validation(self):
        with pytest.raises(InputError):
            signed_cycle(2, (1, 1))
        with pytest.raises(InputError):
            signed_cycle(3, (1, 1))  # wrong sign count
        with pytest.raises(InputError):
            signed_cycle(3, (1, 1, 2))  # not +-1
        with pytest.raises(InputError):
            signed_path(1, ())
        with pytest.raises(InputError):
            signed_path(3, (1,))


class TestInstanceFamilies:
    # family -> (the gen flags after --n, the generator call they name)
    CASES = {
        "random_pm1_complete": (["--seed", "2"], lambda n: random_pm1_complete(n, 2)),
        "hadamard": ([], hadamard_instance),
        "random_pm1_bipartite": (["--seed", "0"], lambda n: random_pm1_bipartite(n, 0)),
        "cycle": (["--signs=+,+,-,+"], lambda n: signed_cycle(n, (1, 1, -1, 1))),
        "path": (["--signs=-,+,+"], lambda n: signed_path(n, (-1, 1, 1))),
    }

    def test_family_table(self, tmp_path, capsys):
        assert list(INSTANCE_FAMILIES) == list(self.CASES)
        assert main(["gen", "--family", "nope", "--n", "4", "--out", str(tmp_path / "g")]) == 1
        assert {f: arg for f, (_, arg) in INSTANCE_FAMILIES.items()} == {
            "random_pm1_complete": "seed",
            "hadamard": None,
            "random_pm1_bipartite": "seed",
            "cycle": "signs",
            "path": "signs",
        }

    @pytest.mark.parametrize("family", list(CASES))
    def test_gen_builds_the_generator_edges(self, family, tmp_path, capsys):
        flags, build = self.CASES[family]
        n = 3 if family == "random_pm1_bipartite" else 4
        out = tmp_path / "g.json"
        assert main(["gen", "--family", family, "--n", str(n), *flags, "--out", str(out)]) == 0
        expected = build(n)
        g = read_instance(out)
        assert (g.n, g.edges) == (expected.n, expected.edges)
        if family == "random_pm1_bipartite":
            assert g.n == 6  # n is per side

    @pytest.mark.parametrize("family", [f for f, (_, arg) in INSTANCE_FAMILIES.items() if arg])
    def test_gen_needs_its_argument(self, family, tmp_path, capsys):
        arg = INSTANCE_FAMILIES[family][1]
        code = main(["gen", "--family", family, "--n", "4", "--out", str(tmp_path / "g.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert f"requires --{arg}" in captured.err and captured.out == ""
        assert not (tmp_path / "g.json").exists()

    @pytest.mark.parametrize(
        "family, flag",
        [(f, flag) for f, (_, arg) in INSTANCE_FAMILIES.items() for flag in ("seed", "signs")
         if flag != arg],
    )
    def test_gen_rejects_a_flag_the_family_does_not_take(self, family, flag, tmp_path, capsys):
        own, _ = self.CASES[family]
        foreign = {"seed": ["--seed", "3"], "signs": ["--signs=+,+,+,+"]}[flag]
        out = tmp_path / "g.json"
        code = main(["gen", "--family", family, "--n", "4", *own, *foreign, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert f"family {family!r} does not take --{flag}" in captured.err
        assert captured.out == "" and "Traceback" not in captured.err
        assert not out.exists()


def _replay_uniform_real(n: int, outputs) -> dict:
    """Edge weights of uniform_real_complete replayed one output at a time, zeros skipped."""
    stream = iter(outputs)
    expected = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            w = 0.0
            while w == 0.0:
                w = 2.0 * ((next(stream) >> 11) * 2.0**-53) - 1.0
            expected[(i, j)] = w
    return expected


class TestStressAndCensusFamilies:
    @given(st.integers(0, 2**64 - 1), st.integers(2, 12))
    @settings(max_examples=30, deadline=None)
    def test_uniform_real_matches_scalar_replay(self, seed, n):
        g = uniform_real_complete(n, seed)
        expected = _replay_uniform_real(n, splitmix64_reference(seed, n * n))
        assert {(i, j): w for i, j, w in g.edges} == expected

    @given(st.integers(0, 2**64 - 1), st.integers(2, 12))
    @settings(max_examples=30, deadline=None)
    def test_signed_graph_matches_scalar_replay(self, seed, n):
        g = random_signed_graph(n, seed)
        stream = iter(splitmix64_reference(seed, n * (n - 1) // 2))
        expected = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                u = next(stream)
                if u & 1:
                    expected[(i, j)] = -1.0 if u & 2 else 1.0
        assert {(i, j): w for i, j, w in g.edges} == expected

    def test_zero_weight_draw_passes_its_edge_to_the_next_output(self, monkeypatch):
        # outputs 2, 7, 8 and 10 are forced to u = 1/2 exactly (weight 2u - 1 = 0):
        # each is skipped and the next output takes its edge, also inside a top-up block
        from bilingap import rng

        zeroed = (2, 7, 8, 10)
        real_draws = rng.draws

        def patched(seed, start, count):
            u = real_draws(seed, start, count)
            for k in zeroed:
                if start <= k < start + count:
                    u[k - start] = np.uint64(1 << 63)
            return u

        monkeypatch.setattr(rng, "draws", patched)
        outputs = splitmix64_reference(5, 14)
        for k in zeroed:
            outputs[k] = 1 << 63
        weights = {(i, j): w for i, j, w in uniform_real_complete(5, 5).edges}
        assert weights == _replay_uniform_real(5, outputs)
        assert len(weights) == 10 and 0.0 not in weights.values()
        assert weights[(1, 4)] == 2.0 * ((outputs[3] >> 11) * 2.0**-53) - 1.0
