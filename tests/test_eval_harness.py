"""Synthetic corpus generation, scoring, and benchmark plumbing."""

import hashlib
import math
import random
import re
from collections import Counter
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies

from ldtruth.baselines import (METHOD_ENGINE, METHOD_TRUTHFINDER, METHOD_VOTE,
                               run_method)
from ldtruth.eval_harness import (
    GoldStandard,
    MissingDecisionError,
    SynthConfig,
    SynthConfigError,
    _weighted_draw,
    accuracy,
    generate,
    no_dominant_config,
    run_benchmark,
)
from ldtruth.pipeline import assemble
from ldtruth.rdf_ingest import FORMAT_NTRIPLES, parse_triples
from ldtruth.truth_engine import Decision
from ldtruth.values import NormalizedValue

SMALL = SynthConfig(n_sources=12, n_entities=40, n_conflict_predicates=60,
                    seed=3)


def assemble_small(cfg=SMALL):
    synth = generate(cfg)
    statements = list(parse_triples(synth.triples, FORMAT_NTRIPLES))
    return synth, assemble(statements, policy="host")


class TestSynthConfig:

    def test_defaults(self):
        cfg = SynthConfig()
        assert cfg.n_sources == 50
        assert cfg.n_entities == 500
        assert cfg.n_conflict_predicates == 2000
        assert cfg.attachment_m == 2
        assert (cfg.reliability_low, cfg.reliability_high) == (0.3, 0.95)
        assert cfg.values_per_conflict == 3
        assert cfg.sameas_fidelity == 0.8
        assert (cfg.claims_min, cfg.claims_max) == (2, 4)
        assert cfg.support_skew == 2.0
        assert cfg.decoy_concentration == 1.0
        assert cfg.near_truth_rate == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"n_sources": 0}, {"n_entities": 0}, {"attachment_m": 0},
        {"reliability_low": 0.9, "reliability_high": 0.3},
        {"reliability_low": -0.1, "reliability_high": 0.5},
        {"values_per_conflict": 1},
        {"values_per_conflict": 20, "n_sources": 10},
        {"sameas_fidelity": 1.5},
        {"claims_min": 1, "claims_max": 4}, {"claims_min": 4, "claims_max": 2},
        {"support_skew": -1.0}, {"decoy_concentration": -0.5},
        {"near_truth_rate": 1.5},
        {"support_skew": math.nan}, {"decoy_concentration": math.nan},
        # more claims per slot than distinct sources to make them
        {"n_sources": 2, "values_per_conflict": 2, "claims_min": 3,
         "claims_max": 3},
        # a near-truth decoy is drawn only beside at least two others
        {"near_truth_rate": 0.3, "values_per_conflict": 2},
    ])
    def test_rejects_impossible_shapes(self, kwargs):
        with pytest.raises(SynthConfigError):
            SynthConfig(**kwargs)

    @pytest.mark.parametrize("name", [
        "n_sources", "n_entities", "n_conflict_predicates", "attachment_m",
        "values_per_conflict", "claims_min", "claims_max", "seed"])
    def test_counts_are_integers(self, name):
        value = getattr(SynthConfig(), name)
        for bad in (value + 0.5, float(value)):
            with pytest.raises(SynthConfigError, match="must be integers"):
                SynthConfig(**{name: bad})


class TestWeightedDraw:
    """Every corpus byte rests on this: a weighted pick draws what
    Random.choices draws for one item, from the same single random()."""

    # skew 0 weighs every rank 1.0; at skew 1100 every rank but rank 0
    # underflows to 0.0, so only one index can be drawn
    @pytest.mark.parametrize("skew", [0.0, 2.0, 1100.0],
                             ids=["flat", "skew_2", "underflow"])
    @settings(max_examples=150, deadline=None)
    @given(seed=strategies.integers(0, 2 ** 64),
           ranks=strategies.integers(1, 40).flatmap(
               lambda n: strategies.permutations(range(n))))
    def test_picks_what_choices_picks(self, skew, seed, ranks):
        cum = list(accumulate((rank + 1.0) ** -skew for rank in ranks))
        population = [f"item{i}" for i in range(len(cum))]
        ours, theirs = random.Random(seed), random.Random(seed)
        draw = _weighted_draw(ours, cum)
        for _ in range(3):
            assert population[draw()] == \
                theirs.choices(population, cum_weights=cum)[0]
            # each took exactly one random(), so the streams stay in step
            assert ours.random() == theirs.random()

    @settings(max_examples=150, deadline=None)
    @given(seed=strategies.integers(0, 2 ** 64),
           weights=strategies.lists(
               strategies.floats(1e-300, 1e300), min_size=1, max_size=40))
    def test_any_positive_weights(self, seed, weights):
        cum = list(accumulate(weights))
        ours, theirs = random.Random(seed), random.Random(seed)
        assert _weighted_draw(ours, cum)() == theirs.choices(
            range(len(cum)), cum_weights=cum)[0]
        assert ours.random() == theirs.random()


class TestGenerate:

    def test_output_is_a_pure_function_of_the_config(self):
        first = generate(SMALL)
        second = generate(SMALL)
        assert first.triples == second.triples
        assert first.gold.to_tsv() == second.gold.to_tsv()
        assert first.reliabilities == second.reliabilities

    # the benchmark's three workload shapes, corpus 0 of seed 7 (see
    # perfbench/workloads.py), and the corpus digest each one pins
    @pytest.mark.parametrize("cfg, digest", [
        (SynthConfig(n_sources=300, n_entities=6500,
                     n_conflict_predicates=375, seed=7),
         "ecf4e31210188421eb77bb24a839e3042c2e520f73d5aa739131f8812ff0e3e6"),
        (replace(no_dominant_config(7), n_entities=200,
                 n_conflict_predicates=800, near_truth_rate=0.3),
         "4a7687976971de6fe572d6921ebedfafabbef22d3b0afe4241d5e27771c078c8"),
        (SynthConfig(n_sources=300, n_entities=6250,
                     n_conflict_predicates=94, seed=7),
         "6ef82a1f112ec30918d62260a461eda944d25f3b8531d5e19d2d810d749e37d5"),
    ], ids=["scale_c8", "loopy_near", "quads_pld_split"])
    def test_benchmark_corpora_do_not_drift(self, cfg, digest):
        triples = generate(cfg).triples.encode("utf-8")
        assert hashlib.sha256(triples).hexdigest() == digest

    def test_forced_draws_do_not_drift(self):
        # near-perfect sources: some slots never draw a disagreement with
        # the truth in them, and take the last draw, which hands the
        # truth to the most reliable supporter
        cfg = SynthConfig(n_sources=30, n_entities=200,
                          n_conflict_predicates=400, reliability_low=0.9,
                          reliability_high=1.0, seed=3)
        synth = generate(cfg)
        triples = synth.triples.encode("utf-8")
        gold = synth.gold.to_tsv().encode("utf-8")
        assert hashlib.sha256(triples).hexdigest() == \
            "0569dbdda6435674546aeb483e3086032ba58f88f7cdeaa153f7af774062c0e2"
        assert hashlib.sha256(gold).hexdigest() == \
            "d17e3fa4ae8114ab0c989e2c939f2c7319d6b02307f06ceb5b7be9a56789447c"

    def test_corpus_parses_strictly(self):
        synth = generate(SMALL)
        statements = list(parse_triples(synth.triples, FORMAT_NTRIPLES,
                                        "strict"))
        assert len(statements) > 0

    def test_perfect_sources_leave_nothing_in_dispute(self):
        cfg = SynthConfig(n_sources=8, n_entities=20,
                          n_conflict_predicates=30,
                          reliability_low=1.0, reliability_high=1.0, seed=1)
        synth = generate(cfg)
        assert synth.gold.truths == {}
        assert synth.unanimous_slots == cfg.n_conflict_predicates
        assert accuracy([], synth.gold) == 1.0

    def test_every_gold_slot_survives_assembly(self):
        synth, built = assemble_small()
        assert len(synth.gold.truths) > 0
        for (cluster, predicate), value in synth.gold.truths.items():
            cs = built.store.conflict_sets[(cluster, predicate)]
            assert value in {obj.value for obj in cs.objects}

    def test_claim_volume_is_heavy_tailed(self):
        cfg = SynthConfig(seed=42)
        _, built = assemble_small(cfg)
        # conflict claims per source, a source with none counting 0
        incidence = built.store.incidence
        counts = sorted((len(incidence.get(f"src{i:03d}.example.org", ()))
                         for i in range(cfg.n_sources)), reverse=True)
        assert sum(counts[:5]) / sum(counts) >= 0.6
        light = sum(1 for c in counts if c <= 25)
        assert light / len(counts) >= 0.6
        ranked = [(math.log(r + 1), math.log(c))
                  for r, c in enumerate(counts) if c > 0]
        slope = np.polyfit([x for x, _ in ranked],
                           [y for _, y in ranked], 1)[0]
        assert slope < -0.5

    def test_skewed_draws_still_reach_every_source(self):
        # one source holds nearly all the activity, so drawing five
        # distinct supporters out of five falls back to taking the first
        # source not yet drawn
        cfg = SynthConfig(n_sources=5, n_entities=10,
                          n_conflict_predicates=10, claims_min=5,
                          claims_max=5, support_skew=10.0,
                          values_per_conflict=2)
        triples = generate(cfg).triples
        assert generate(cfg).triples == triples
        sources = {}
        for host, entity, predicate in re.findall(
                r"<http://(src\d+)\.example\.org/resource/(e\d+)> "
                r"<http://schema\.example\.org/(p\d+)>", triples):
            sources.setdefault((entity, predicate), []).append(host)
        assert len(sources) == cfg.n_conflict_predicates
        for hosts in sources.values():
            assert len(hosts) == len(set(hosts)) == 5

    @pytest.mark.parametrize("low, high", [(2, 2), (3, 5)])
    def test_claims_per_slot_stay_within_bounds(self, low, high):
        cfg = SynthConfig(n_sources=20, n_entities=40,
                          n_conflict_predicates=60, claims_min=low,
                          claims_max=high, seed=3)
        slots = re.findall(r"/resource/(e\d+)> <(http://schema\.example\.org"
                           r"/p\d+)>", generate(cfg).triples)
        per_slot = Counter(slots).values()
        assert (min(per_slot), max(per_slot)) == (low, high)


class TestGoldStandard:

    def test_header_and_sorted_rows(self):
        gold = GoldStandard(truths={
            ("http://a.example/e2", "p"): NormalizedValue.from_number(2),
            ("http://a.example/e1", "p"): NormalizedValue.from_number(1),
        })
        lines = gold.to_tsv().splitlines()
        assert lines[0] == "entity\tpredicate\tkind\tvalue"
        assert lines[1].startswith("http://a.example/e1")


class TestAccuracy:

    def test_counts_matching_fraction(self):
        gold = GoldStandard(truths={
            ("e1", "p"): NormalizedValue.from_number(1),
            ("e2", "p"): NormalizedValue.from_number(2),
        })
        decisions = [
            Decision("e1", "p", NormalizedValue.from_number(1), (2.0, 1.0)),
            Decision("e2", "p", NormalizedValue.from_number(9), (1.0, 2.0)),
        ]
        assert accuracy(decisions, gold) == 0.5

    def test_missing_decision_is_an_error(self):
        gold = GoldStandard(truths={("e1", "p"): NormalizedValue.from_number(1)})
        with pytest.raises(MissingDecisionError):
            accuracy([], gold)

    def test_empty_gold_scores_one(self):
        assert accuracy([], GoldStandard()) == 1.0


class TestNoDominantConfig:

    def test_shape(self):
        cfg = no_dominant_config(7)
        assert cfg.seed == 7
        assert (cfg.reliability_low, cfg.reliability_high) == (0.2, 0.55)
        assert cfg.values_per_conflict == 4
        assert (cfg.claims_min, cfg.claims_max) == (3, 6)
        assert cfg.support_skew == 0.0
        assert cfg.decoy_concentration == 1.8
        assert cfg.near_truth_rate == 0.0


class TestRunMethods:

    def test_reports_each_method(self):
        [row] = run_benchmark(SMALL, seeds=(SMALL.seed,), methods=(
            METHOD_ENGINE, METHOD_VOTE, METHOD_TRUTHFINDER))
        report = row["report"]
        assert set(report) == {METHOD_ENGINE, METHOD_VOTE, METHOD_TRUTHFINDER}
        for method, row in report.items():
            assert 0.0 <= row["accuracy"] <= 1.0
            assert row["seconds"] >= 0.0
        assert report[METHOD_ENGINE]["iterations"] >= 1
        assert isinstance(report[METHOD_ENGINE]["converged"], bool)
        assert len(report[METHOD_ENGINE]["trace"]) == \
            report[METHOD_ENGINE]["iterations"]

    def test_unknown_method_is_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_benchmark(SMALL, seeds=(SMALL.seed,), methods=("guessing",))
        # run_benchmark rejects the name first; run_method checks it too
        with pytest.raises(ValueError, match="unknown method"):
            run_method("guessing", None, None)


class TestRunBenchmark:

    def test_row_structure_and_determinism(self):
        rows = run_benchmark(SMALL, seeds=(0, 1))
        assert [r["seed"] for r in rows] == [0, 1]
        for row in rows:
            assert row["conflict_sets"] > 0
            assert row["unanimous_slots"] >= 0
            assert METHOD_ENGINE in row["report"]
            assert METHOD_VOTE in row["report"]
        again = run_benchmark(SMALL, seeds=(0, 1))
        for row, repeat in zip(rows, again):
            for method in row["report"]:
                assert row["report"][method]["accuracy"] == \
                    repeat["report"][method]["accuracy"]
