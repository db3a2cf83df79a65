"""Trust algebra, per-set fields, and the alternating outer loop."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldtruth import truth_engine
from ldtruth.eval_harness import SynthConfig, generate, no_dominant_config
from ldtruth.mrf import EXACT_NODES
from ldtruth.pipeline import assemble
from ldtruth.prior_belief import PriorBeliefs
from ldtruth.rdf_ingest import (FORMAT_NTRIPLES, ConflictSet, ObjectSupport,
                                parse_triples)
from ldtruth.similarity import sim
from ldtruth.truth_engine import (
    EngineConfig,
    decide,
    object_base_trust,
    pairwise_tables,
    resolve_all,
    select_truth,
    smooth_trust,
    source_trustworthiness,
)
from ldtruth.values import NormalizedValue

from oracles import reference_resolve, rescan_trust, store_from_claims


def number(x):
    return NormalizedValue.from_number(x)


def text(s):
    return NormalizedValue.from_text(s)


def two_object_set(left_sources, right_sources,
                   left=None, right=None):
    left = left if left is not None else number(3)
    right = right if right is not None else number(7)
    objects = tuple(sorted(
        (ObjectSupport(left, tuple(sorted(left_sources))),
         ObjectSupport(right, tuple(sorted(right_sources)))),
        key=lambda o: o.value.sort_key()))
    return ConflictSet("e", "p", objects)


class TestSourceTrustworthiness:

    def test_mean_over_conflict_claims(self):
        # w.example sits in three conflict sets scored 0.2, 0.4, 0.9
        rows = []
        for k, gap in enumerate((1, 2, 3)):
            rows.append((f"e{k}", "p", number(1), "w.example"))
            rows.append((f"e{k}", "p", number(100 + gap), "filler.example"))
        store = store_from_claims(rows)
        tau = {("e0", "p"): [0.2, 0.8],
               ("e1", "p"): [0.4, 0.6],
               ("e2", "p"): [0.9, 0.1]}
        trust = source_trustworthiness(store, tau)
        assert trust["w.example"] == pytest.approx(0.5, abs=1e-12)
        assert trust["filler.example"] == pytest.approx(0.5, abs=1e-12)

    def test_source_outside_conflicts_keeps_start_trust(self):
        rows = [
            ("e0", "p", number(1), "w.example"),
            ("e0", "p", number(2), "filler.example"),
            ("e9", "p", number(5), "lone.example"),
        ]
        store = store_from_claims(rows)
        tau = {("e0", "p"): [1.0, 0.0]}
        trust = source_trustworthiness(store, tau, t0=0.42)
        assert trust["lone.example"] == 0.42
        assert trust["w.example"] == 1.0

    def test_equals_a_full_claim_rescan(self):
        rng = random.Random(5120)
        sources = [f"s{i}.example" for i in range(8)]
        rows = []
        for k in range(30):
            for v in rng.sample(range(9), rng.randrange(1, 4)):
                for s in rng.sample(sources, rng.randrange(1, 4)):
                    rows.append((f"e{k}", "p", number(v), s))
        store = store_from_claims(rows)
        tau = {key: [rng.random() for _ in cs.objects]
               for key, cs in store.conflict_sets.items()}
        assert source_trustworthiness(store, tau, 0.3) == \
            rescan_trust(store, tau, 0.3)


class TestSmoothTrust:

    def test_equal_blend(self):
        out = smooth_trust({"x.example": 0.6}, {"x.example": 0.8})
        assert out["x.example"] == pytest.approx(0.7, abs=1e-12)

    def test_missing_prior_defaults_to_half(self):
        out = smooth_trust({"x.example": 0.6}, {})
        assert out["x.example"] == pytest.approx(0.55, abs=1e-12)


class TestObjectBaseTrust:

    def test_mean_supporter_trust(self):
        cs = two_object_set({"s1.example", "s2.example"}, {"s3.example"})
        smoothed = {"s1.example": 0.7, "s2.example": 0.9, "s3.example": 0.3}
        assert object_base_trust(cs, smoothed) == [
            pytest.approx(0.8, abs=1e-12), pytest.approx(0.3, abs=1e-12)]


class TestPairwiseTables:

    def test_table_entries_follow_similarity(self):
        values = [number(10), number(12), text("station")]
        edges = pairwise_tables(values)
        assert len(edges) == 1
        i, j, psi = edges[0]
        assert (i, j) == (0, 1)
        s = sim(values[0], values[1])
        assert psi == ((math.exp(-0.5 * s), math.exp(-s)),
                       (math.exp(-s), math.exp(s)))

    def test_dissimilar_pair_gets_no_edge(self):
        assert pairwise_tables([number(10), number(1000)]) == []

    def test_threshold_and_coupling_are_configurable(self):
        values = [number(10), number(1000)]
        cfg = EngineConfig(edge_threshold=0.01, coupling=2.0)
        edges = pairwise_tables(values, cfg)
        assert len(edges) == 1
        s = sim(values[0], values[1])
        assert edges[0][2][1][1] == math.exp(2.0 * s)

    def test_cross_kind_pairs_never_couple(self):
        values = [number(1886), text("1886"),
                  NormalizedValue.from_date(1886, 10, 28)]
        assert pairwise_tables(values) == []


class TestUnaryFromBase:
    """``resolve_all``'s unary is (1 - p, p), p the candidate's mean
    supporter trust clamped into [1e-6, 1 - 1e-6]; the first sweep's
    smoothed trust is (nbr + t0) / 2, so a prior of 1.5 or -0.5 puts a
    supporter at trust 1 or 0."""

    @staticmethod
    def first_unary(monkeypatch, nbr):
        seen = []

        def spy(field, *args):
            seen.append(list(field.unary))
            return loopy_bp(field, *args)

        loopy_bp = truth_engine.loopy_bp
        monkeypatch.setattr(truth_engine, "loopy_bp", spy)
        store = store_from_claims([("e", "p", number(3), "a.example"),
                                   ("e", "p", number(7), "b.example"),
                                   ("e", "p", number(7), "c.example")])
        priors = PriorBeliefs(br={}, nbr=nbr, sweeps_used=1, residual=0.0,
                              converged=True)
        resolve_all(store, priors, EngineConfig(outer_max=1))
        return seen[0]

    def test_unary_comes_from_clamped_base(self, monkeypatch):
        # number 3 backed at trust 0.25; number 7 by two sources at trust 1
        unary = self.first_unary(monkeypatch, {
            "a.example": 0.0, "b.example": 1.5, "c.example": 1.5})
        assert unary[0] == (0.75, 0.25)
        # base trust of exactly 1.0 is pulled inside the open interval
        assert unary[1][1] == 1.0 - 1e-6
        assert unary[1][0] == pytest.approx(1e-6, rel=1e-9)

    def test_zero_base_stays_positive(self, monkeypatch):
        # number 3 backed at trust 0; number 7 at 0 and 1, a mean of 0.5
        unary = self.first_unary(monkeypatch, {
            "a.example": -0.5, "b.example": -0.5, "c.example": 1.5})
        assert unary == [(1.0 - 1e-6, 1e-6), (0.5, 0.5)]


class TestSelectTruth:

    def test_highest_probability_wins(self):
        cs = two_object_set({"s1.example"}, {"s2.example"})
        assert select_truth(cs, [0.3, 0.7], {}) == 1

    def test_tie_falls_to_broader_support(self):
        cs = two_object_set({"s1.example"}, {"s2.example", "s3.example"})
        assert select_truth(cs, [0.5, 0.5], {}) == 1

    def test_tie_then_summed_supporter_trust(self):
        cs = two_object_set({"s1.example"}, {"s2.example"})
        smoothed = {"s1.example": 0.9, "s2.example": 0.2}
        assert select_truth(cs, [0.5, 0.5], smoothed) == 0
        smoothed = {"s1.example": 0.2, "s2.example": 0.9}
        assert select_truth(cs, [0.5, 0.5], smoothed) == 1

    def test_full_tie_takes_canonical_least(self):
        cs = two_object_set({"s1.example"}, {"s2.example"})
        assert cs.objects[0].value.sort_key() < cs.objects[1].value.sort_key()
        assert select_truth(cs, [0.5, 0.5], {}) == 0

    def test_decision_record_breaks_ties_by_trust(self):
        cs = two_object_set({"s1.example"}, {"s2.example"})
        decision = decide(cs, [0.5, 0.5],
                          {"s1.example": 0.2, "s2.example": 0.9})
        assert (decision.entity, decision.predicate) == ("e", "p")
        assert decision.chosen == number(7)
        assert decision.scores == (0.5, 0.5)


def outranks(cs, tau, trust, j, i):
    """Whether candidate j comes before candidate i in the documented
    order: truth probability, then supporter count, then summed
    supporter trust (added left to right), then canonical value order."""
    def summed(obj):
        total = 0.0
        for source in obj.sources:
            total += trust.get(source, 0.5)
        return total
    a, b = cs.objects[j], cs.objects[i]
    for x, y in ((tau[j], tau[i]), (len(a.sources), len(b.sources)),
                 (summed(a), summed(b))):
        if x != y:
            return x > y
    return a.value.sort_key() < b.value.sort_key()


@st.composite
def tied_sets(draw):
    """A conflict set whose candidates tie often on every key but the
    last: few distinct probabilities, support counts and trust levels."""
    size = draw(st.integers(min_value=2, max_value=6))
    values = draw(st.lists(st.integers(min_value=0, max_value=20),
                           min_size=size, max_size=size, unique=True))
    pool = [f"s{k}.example" for k in range(6)]
    objects = tuple(sorted(
        (ObjectSupport(number(v), tuple(sorted(draw(st.sets(
            st.sampled_from(pool), min_size=1, max_size=3)))))
         for v in values), key=lambda o: o.value.sort_key()))
    levels = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1 / 3])
    tau = draw(st.lists(st.sampled_from([0.25, 0.5, 0.75]),
                        min_size=size, max_size=size))
    trust = {s: draw(levels) for s in pool if draw(st.booleans())}
    return ConflictSet("e", "p", objects), tau, trust


class TestWinnerKey:

    @settings(max_examples=300, deadline=None)
    @given(tied_sets())
    def test_no_candidate_outranks_the_winner(self, spec):
        cs, tau, trust = spec
        winner = select_truth(cs, tau, trust)
        assert not any(outranks(cs, tau, trust, j, winner)
                       for j in range(len(cs.objects)) if j != winner)

    def test_winner_ignores_candidate_order(self):
        cs = two_object_set({"s1.example"}, {"s2.example", "s3.example"})
        flipped = ConflictSet("e", "p", cs.objects[::-1])
        for tau in ([0.5, 0.5], [0.6, 0.4], [0.4, 0.6]):
            assert (cs.objects[select_truth(cs, tau, {})]
                    == flipped.objects[select_truth(flipped, tau[::-1], {})])


class TestEngineConfig:

    def test_defaults(self):
        cfg = EngineConfig()
        assert cfg.t0 == 0.5
        assert cfg.outer_threshold == 1e-3
        assert cfg.outer_max == 20
        assert cfg.bp_damping == 0.3
        assert cfg.bp_max == 100
        assert cfg.edge_threshold == 0.1
        assert cfg.coupling == 1.0
        assert cfg.dissimilar_false_factor == -0.5

    @pytest.mark.parametrize("kwargs", [
        {"t0": 0.0}, {"t0": 1.0},
        {"outer_threshold": 0.0}, {"bp_tol": -1e-6},
        {"outer_max": 0}, {"bp_max": 0},
        {"bp_damping": 1.0}, {"bp_damping": -0.1},
        {"edge_threshold": 1.5}, {"coupling": 0.0},
        {"outer_threshold": math.nan}, {"bp_tol": math.nan},
        # an iteration cap is a count, so a fraction fails when it is set
        # rather than as a range() argument in the middle of a run
        {"outer_max": 2.5}, {"bp_max": 2.5}, {"outer_max": 20.0},
    ])
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)


class TestCouplingRange:
    """``pairwise_tables`` raises e to at most coupling * max(1, |factor|)
    in magnitude; past 709 the largest entry would overflow."""

    @pytest.mark.parametrize("kwargs", [
        {"coupling": 709.5}, {"coupling": 1000.0}, {"coupling": math.inf},
        {"coupling": 400.0, "dissimilar_false_factor": -2.0},
        {"coupling": 300.0, "dissimilar_false_factor": 3.0},
    ])
    def test_rejects_tables_past_the_float_range(self, kwargs):
        with pytest.raises(ValueError, match="at most 709"):
            EngineConfig(**kwargs)

    def test_nan_coupling_is_not_positive(self):
        with pytest.raises(ValueError, match="coupling must be positive"):
            EngineConfig(coupling=math.nan)

    @pytest.mark.parametrize("kwargs", [
        {"coupling": 709.0}, {"coupling": 709.0,
                              "dissimilar_false_factor": 1.0},
        {"coupling": 354.5, "dissimilar_false_factor": -2.0},
    ])
    def test_largest_accepted_coupling_gives_finite_tables(self, kwargs):
        # similarity 1 - 1e-6, as close to the bound as two values get
        (_, _, psi), = pairwise_tables(
            [number(1_000_000), number(1_000_001)], EngineConfig(**kwargs))
        assert all(0.0 < w < math.inf for row in psi for w in row)


def ladder_rows():
    """Two conflict sets whose candidates never couple, so probabilities
    reduce to supporter trust and every update is a binary-exact halving."""
    return [
        ("e1", "p", number(10), "a.example"),
        ("e1", "p", text("north"), "b.example"),
        ("e2", "p", number(3), "a.example"),
        ("e2", "p", NormalizedValue.from_reference("http://x.example/t"),
         "c.example"),
    ]


def ladder_priors():
    nbr = {"a.example": 1.0, "b.example": 0.0, "c.example": 0.25}
    return PriorBeliefs(br=dict(nbr), nbr=nbr, sweeps_used=1,
                        residual=0.0, converged=True)


def empty_priors():
    return PriorBeliefs(br={}, nbr={}, sweeps_used=0, residual=0.0,
                        converged=True)


class TestResolveAll:

    def test_trust_ladder_snapshots_are_exact(self):
        store = store_from_claims(ladder_rows())
        snaps = []
        for sweeps in (1, 2, 3):
            cfg = EngineConfig(outer_threshold=1e-15, outer_max=sweeps)
            result = resolve_all(store, ladder_priors(), cfg)
            assert result.iterations == sweeps
            assert not result.converged
            assert result.bp_converged
            snaps.append(result.trust.t_smoothed)
        assert [s["a.example"] for s in snaps] == [0.875, 0.9375, 0.96875]
        assert [s["b.example"] for s in snaps] == [0.125, 0.0625, 0.03125]
        assert [s["c.example"] for s in snaps] == [0.3125, 0.28125, 0.265625]

    def test_ladder_probabilities_and_decisions(self):
        store = store_from_claims(ladder_rows())
        cfg = EngineConfig(outer_threshold=1e-15, outer_max=3)
        result = resolve_all(store, ladder_priors(), cfg)
        by_key = {(d.entity, d.predicate): d for d in result.decisions}
        assert by_key[("e1", "p")].chosen == number(10)
        assert by_key[("e1", "p")].scores == (0.9375, 0.0625)
        assert by_key[("e2", "p")].scores == (0.9375, 0.28125)
        assert by_key[("e2", "p")].chosen == number(3)

    def test_ladder_trace_rows_are_exact(self):
        store = store_from_claims(ladder_rows())
        cfg = EngineConfig(outer_threshold=1e-15, outer_max=3)
        trace = resolve_all(store, ladder_priors(), cfg).trace
        assert trace == [(1, 0.21875, 0.25),
                         (2, 0.109375, 0.125),
                         (3, 0.0546875, 0.0625)]

    def test_base_trust_matches_final_smoothed_state(self):
        store = store_from_claims(ladder_rows())
        cfg = EngineConfig(outer_threshold=1e-15, outer_max=3)
        result = resolve_all(store, ladder_priors(), cfg)
        base = object_base_trust(store.conflict_sets[("e1", "p")],
                                 result.trust.t_smoothed)
        assert base == [0.96875, 0.03125]

    def test_no_priors_means_neutral_start_and_instant_convergence(self):
        store = store_from_claims(ladder_rows())
        result = resolve_all(store, empty_priors())
        assert result.converged
        assert result.iterations == 1
        # symmetric evidence, so ties resolve by canonical value order
        by_key = {(d.entity, d.predicate): d for d in result.decisions}
        assert by_key[("e1", "p")].chosen == number(10)
        assert all(v == 0.5 for v in result.trust.t_smoothed.values())

    def test_rerun_is_identical(self):
        rng = random.Random(2460)
        sources = [f"s{i}.example" for i in range(6)]
        rows = []
        for k in range(15):
            for v in rng.sample(range(60), rng.randrange(2, 5)):
                for s in rng.sample(sources, rng.randrange(1, 3)):
                    rows.append((f"e{k}", "p", number(v), s))
        store = store_from_claims(rows)
        first = resolve_all(store, empty_priors())
        second = resolve_all(store, empty_priors())
        assert first.decisions == second.decisions
        assert first.trust.t_smoothed == second.trust.t_smoothed
        assert first.trace == second.trace


class TestMatchesReference:
    """Carrying fields, messages and the claim incidence across sweeps
    changes no decision and no sweep count, and moves tau only by the
    propagation tolerance, which is tight here."""

    @pytest.mark.parametrize("cfg, wide", [
        (SynthConfig(n_sources=12, n_entities=40, n_conflict_predicates=60,
                     seed=2), False),
        (replace(no_dominant_config(3), n_entities=60,
                 n_conflict_predicates=150), False),
        # many unreliable supporters spread over ten values, so some sets
        # have more than EXACT_NODES candidates and run propagation
        (SynthConfig(n_sources=20, n_entities=15, n_conflict_predicates=20,
                     values_per_conflict=10, claims_min=12, claims_max=18,
                     reliability_low=0.1, reliability_high=0.4,
                     decoy_concentration=0.0, support_skew=0.0, seed=2), True),
    ], ids=["default_shape", "no_dominant", "wide_sets"])
    def test_decisions_sweeps_and_tau(self, cfg, wide):
        built = assemble(list(parse_triples(generate(cfg).triples,
                                            FORMAT_NTRIPLES)), policy="host")
        engine = EngineConfig(bp_tol=1e-13, bp_max=5000)
        result = resolve_all(built.store, built.priors, engine)
        chosen, tau, t, sweeps, converged, cold_rounds = reference_resolve(
            built.store, built.priors, engine)
        sizes = [len(cs.objects) for cs in built.store.conflict_sets.values()]
        assert max(sizes) > 2
        assert (max(sizes) > EXACT_NODES) == wide
        assert {(d.entity, d.predicate): d.chosen
                for d in result.decisions} == chosen
        assert (result.iterations, result.converged) == (sweeps, converged)
        assert result.bp_converged
        if wide:
            assert 0 < result.bp_rounds < cold_rounds   # warm starts pay off
        else:
            assert result.bp_rounds == 0    # every set is summed exactly
        scores = {(d.entity, d.predicate): d.scores for d in result.decisions}
        for key, probs in tau.items():
            for got, want in zip(scores[key], probs):
                assert abs(got - want) <= 1e-9
        for source, value in t.items():
            assert abs(result.trust.t[source] - value) <= 1e-9
