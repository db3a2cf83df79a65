"""Vote counting and the score-propagation baseline."""

import math
import random

import pytest

from ldtruth import baselines
from ldtruth.baselines import truthfinder, vote, vote_all
from ldtruth.similarity import sim
from ldtruth.values import NormalizedValue

from oracles import store_from_claims


def number(x):
    return NormalizedValue.from_number(x)


def random_rows(rng, n_sets=12, n_sources=6):
    sources = [f"s{i}.example" for i in range(n_sources)]
    rows = []
    for k in range(n_sets):
        for v in rng.sample(range(80), rng.randrange(2, 5)):
            for s in rng.sample(sources, rng.randrange(1, 4)):
                rows.append((f"e{k}", "p", number(v), s))
    return rows


class TestVote:

    def test_chosen_value_has_maximal_support(self):
        rng = random.Random(5150)
        for trial in range(30):
            store = store_from_claims(random_rows(rng))
            for key, cs in store.conflict_sets.items():
                decision = vote(cs)
                counts = {obj.value: len(obj.sources) for obj in cs.objects}
                assert counts[decision.chosen] == max(counts.values())
                assert decision.scores == tuple(
                    float(len(obj.sources)) for obj in cs.objects)

    def test_tie_takes_canonical_least_value(self):
        store = store_from_claims([
            ("e", "p", number(3), "s1.example"),
            ("e", "p", number(7), "s2.example"),
        ])
        decision = vote(store.conflict_sets[("e", "p")])
        assert decision.chosen == number(3)

    def test_vote_all_is_sorted_by_slot(self):
        rng = random.Random(88)
        store = store_from_claims(random_rows(rng))
        decisions = vote_all(store)
        keys = [(d.entity, d.predicate) for d in decisions]
        assert keys == sorted(store.conflict_sets)


class TestTruthFinderParams:

    def test_defaults(self):
        assert baselines.INITIAL_TRUST == 0.9
        assert baselines.DAMPENING == 0.3
        assert baselines.BASE_SIM == 0.5
        assert baselines.TOL == 1e-4
        assert baselines.MAX_ITER == 50


def two_source_store():
    return store_from_claims([
        ("e", "p", number(10), "s1.example"),
        ("e", "p", number(12), "s2.example"),
    ])


def reference_two_source_run(s, iterations):
    """Recomputed by hand for a symmetric pair of single-claim sources:
    trust feeds log-scores, similarity lends half the rival's score,
    and the damped sigmoid becomes both the confidence and the trust."""
    trust = [0.9, 0.9]
    conf = [0.0, 0.0]
    for _ in range(iterations):
        scores = [-math.log1p(-min(t, 1.0 - 1e-12)) for t in trust]
        adjusted = [scores[0] + 0.5 * s * scores[1],
                    scores[1] + 0.5 * s * scores[0]]
        conf = [1.0 / (1.0 + math.exp(-0.3 * a)) for a in adjusted]
        trust = list(conf)
    return conf, trust


class TestTruthFinder:

    def test_three_rounds_match_hand_reference(self, monkeypatch):
        store = two_source_store()
        s = sim(number(10), number(12))
        monkeypatch.setattr(baselines, "TOL", 1e-12)
        monkeypatch.setattr(baselines, "MAX_ITER", 3)
        decisions, trust, iterations, converged = truthfinder(store)
        want_conf, want_trust = reference_two_source_run(s, 3)
        assert iterations == 3
        assert not converged
        assert trust["s1.example"] == pytest.approx(want_trust[0], abs=1e-12)
        assert trust["s2.example"] == pytest.approx(want_trust[1], abs=1e-12)
        assert decisions[0].scores == (
            pytest.approx(want_conf[0], abs=1e-12),
            pytest.approx(want_conf[1], abs=1e-12))

    def test_symmetric_pair_converges_to_tie(self):
        store = two_source_store()
        decisions, trust, iterations, converged = truthfinder(store)
        assert converged
        assert iterations < 50
        assert trust["s1.example"] == trust["s2.example"]
        # symmetric scores, equal support, equal trust: least value wins
        assert decisions[0].chosen == number(10)

    def test_majority_outranks_contrarian(self):
        store = store_from_claims([
            ("e", "p", number(5), "m1.example"),
            ("e", "p", number(5), "m2.example"),
            ("e", "p", number(50), "c1.example"),
        ])
        decisions, trust, iterations, converged = truthfinder(store)
        assert converged
        assert trust["m1.example"] > trust["c1.example"]
        assert decisions[0].chosen == number(5)

    def test_source_without_conflict_claims_keeps_initial_trust(self):
        store = store_from_claims([
            ("e", "p", number(1), "s1.example"),
            ("e", "p", number(2), "s2.example"),
            ("lonely", "p", number(9), "quiet.example"),
        ])
        _, trust, _, _ = truthfinder(store)
        assert trust["quiet.example"] == 0.9

    def test_rerun_is_identical(self):
        rng = random.Random(7141)
        store = store_from_claims(random_rows(rng))
        first = truthfinder(store)
        second = truthfinder(store)
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[2:] == second[2:]
