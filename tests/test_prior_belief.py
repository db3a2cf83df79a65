"""Endorsement prior fixed-point tests."""

import math
import random

import pytest

from oracles import prior_linear_solve, prior_rhs, random_sbg
from ldtruth.graph_model import SourceBeliefGraph
from ldtruth.prior_belief import (
    PriorBeliefs,
    PriorConfig,
    compute_prior,
    normalize_prior,
)


def chain_graph():
    sbg = SourceBeliefGraph()
    sbg.add_edge("a.org", "b.org")
    sbg.add_edge("b.org", "c.org")
    return sbg


class TestHandFixtures:
    def test_source_only_vertex(self):
        # no incoming endorsement leaves just the teleport mass
        beliefs = compute_prior(chain_graph())
        assert beliefs.br["a.org"] == pytest.approx(0.15, abs=1e-12)

    def test_chain_second_hop(self):
        beliefs = compute_prior(chain_graph())
        assert beliefs.br["b.org"] == pytest.approx(0.2775, abs=1e-12)
        assert beliefs.br["c.org"] == pytest.approx(0.15 + 0.85 * 0.2775,
                                                    abs=1e-12)

    def test_split_endorsement_with_multiplicity(self):
        # one endorser, three links: two parallel to b, one to c
        sbg = SourceBeliefGraph()
        sbg.add_edge("a.org", "b.org")
        sbg.add_edge("a.org", "b.org")
        sbg.add_edge("a.org", "c.org")
        beliefs = compute_prior(sbg)
        assert beliefs.br["b.org"] == pytest.approx(0.235, abs=1e-12)
        assert beliefs.br["c.org"] == pytest.approx(0.1925, abs=1e-12)

    def test_two_cycle_symmetry(self):
        sbg = SourceBeliefGraph()
        sbg.add_edge("a.org", "b.org")
        sbg.add_edge("b.org", "a.org")
        beliefs = compute_prior(sbg)
        assert beliefs.br["a.org"] == pytest.approx(1.0, abs=1e-7)
        assert beliefs.br["b.org"] == pytest.approx(1.0, abs=1e-7)


class TestFixedPoint:
    def test_recurrence_holds_on_random_multigraphs(self):
        rng = random.Random(29182)
        for _ in range(25):
            sbg = random_sbg(rng, rng.randint(5, 120), rng.randint(8, 600))
            beliefs = compute_prior(sbg)
            assert beliefs.converged
            rhs = prior_rhs(sbg, beliefs.br)
            worst = max(abs(beliefs.br[v] - rhs[v]) for v in sbg.vertices)
            assert worst < 1e-8

    def test_agrees_with_direct_linear_solve(self):
        rng = random.Random(555)
        for _ in range(10):
            sbg = random_sbg(rng, rng.randint(5, 60), rng.randint(8, 200))
            beliefs = compute_prior(sbg)
            exact = prior_linear_solve(sbg)
            for v in sbg.vertices:
                assert beliefs.br[v] == pytest.approx(exact[v], abs=1e-8)

    def test_sweep_cap_flags_nonconvergence(self):
        sbg = random_sbg(random.Random(7), 40, 160)
        beliefs = compute_prior(sbg, PriorConfig(max_sweeps=1))
        assert not beliefs.converged
        assert beliefs.sweeps_used == 1

    def test_deterministic_across_runs(self):
        sbg = random_sbg(random.Random(11), 30, 90)
        a = compute_prior(sbg)
        b = compute_prior(sbg)
        assert a.br == b.br

    def test_empty_graph_has_the_empty_prior(self):
        # no scores, no sweeps, and nothing that failed to converge
        assert compute_prior(SourceBeliefGraph()) == PriorBeliefs(
            br={}, nbr={}, sweeps_used=0, residual=0.0, converged=True)


class TestNormalization:
    def test_min_max(self):
        nbr = normalize_prior({"a": 0.15, "b": 0.65, "c": 0.4})
        assert nbr["a"] == 0.0
        assert nbr["b"] == 1.0
        assert nbr["c"] == pytest.approx(0.5)

    def test_constant_vector_maps_to_half(self):
        nbr = normalize_prior({"a": 0.7, "b": 0.7})
        assert nbr == {"a": 0.5, "b": 0.5}

    def test_no_sources_map_to_nothing(self):
        assert normalize_prior({}) == {}

    def test_range_property(self):
        rng = random.Random(404)
        for _ in range(20):
            raw = {f"s{i}": rng.uniform(0.15, 9.0) for i in range(rng.randint(1, 30))}
            nbr = normalize_prior(raw)
            assert all(0.0 <= value <= 1.0 for value in nbr.values())
            order = sorted(raw, key=raw.get)
            ranks = [nbr[s] for s in order]
            assert ranks == sorted(ranks)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PriorConfig(damping=1.0)
        with pytest.raises(ValueError):
            PriorConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            PriorConfig(tolerance=math.nan)
        with pytest.raises(ValueError):
            PriorConfig(max_sweeps=0)
