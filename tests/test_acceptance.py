"""Top-level acceptance gate.

Eight numbered criteria, each printed as one PASS or FAIL line so a log
scan shows the whole picture at a glance.  Every threshold here is meant
to hold with margin; a tripped assert means behavior drifted, not that a
tolerance was tight.
"""

import hashlib
import random
import resource
import time

import pytest

from ldtruth.cli import main
from ldtruth.eval_harness import (
    METHOD_ENGINE,
    METHOD_VOTE,
    SynthConfig,
    generate,
    no_dominant_config,
    run_benchmark,
)
from ldtruth.graph_model import SourceBeliefGraph
from ldtruth.mrf import MarkovField, loopy_bp
from ldtruth.pipeline import assemble
from ldtruth.prior_belief import compute_prior, normalize_prior
from ldtruth.rdf_ingest import FORMAT_NTRIPLES, parse_triples
from ldtruth.similarity import sim
from ldtruth.truth_engine import (
    EngineConfig,
    object_base_trust,
    resolve_all,
    smooth_trust,
    source_trustworthiness,
)
from ldtruth.values import NormalizedValue

from oracles import (
    enum_marginals,
    prior_rhs,
    random_loopy_field,
    random_sbg,
    random_tree_field,
    store_from_claims,
)


def run_criterion(capsys, n, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"criterion {n}: FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {n}: PASS")


@pytest.fixture(scope="module")
def benchmark_rows():
    start = time.perf_counter()
    rows = run_benchmark(SynthConfig(), seeds=range(10))
    nd_rows = run_benchmark(no_dominant_config(0), seeds=(0, 1, 2),
                            methods=(METHOD_VOTE,))
    elapsed = time.perf_counter() - start
    return rows, nd_rows, elapsed


def test_criterion_1_propagation_matches_enumeration(capsys):
    def body():
        start = time.perf_counter()
        rng = random.Random(101)
        for trial in range(200):
            size = rng.randrange(2, 13)
            unary, edges = random_tree_field(rng, size)
            result = loopy_bp(MarkovField(unary=unary, edges=edges),
                              damping=0.0, tol=1e-12, max_rounds=500)
            exact = enum_marginals(unary, edges)
            for got, want in zip(result.marginals, exact):
                assert abs(got - want) <= 1e-9
        for trial in range(100):
            size = rng.randrange(3, 11)
            unary, edges = random_loopy_field(rng, size)
            result = loopy_bp(MarkovField(unary=unary, edges=edges))
            exact = enum_marginals(unary, edges)
            for got, want in zip(result.marginals, exact):
                assert abs(got - want) <= 0.05
        assert time.perf_counter() - start < 10.0

    run_criterion(capsys, 1, body)


def test_criterion_2_prior_fixed_point(capsys):
    def body():
        start = time.perf_counter()
        rng = random.Random(202)
        shapes = [(20, 60), (100, 500), (300, 2000), (1000, 10000)]
        for n_vertices, n_edges in shapes:
            sbg = random_sbg(rng, n_vertices, n_edges)
            beliefs = compute_prior(sbg)
            assert beliefs.converged
            rhs = prior_rhs(sbg, beliefs.br)
            worst = max(abs(beliefs.br[v] - rhs[v]) for v in sbg.vertices)
            assert worst < 1e-8

        chain = SourceBeliefGraph()
        chain.add_edge("a.org", "b.org")
        beliefs = compute_prior(chain)
        assert abs(beliefs.br["a.org"] - 0.15) <= 1e-12
        assert abs(beliefs.br["b.org"] - 0.2775) <= 1e-12

        multi = SourceBeliefGraph()
        multi.add_edge("a.org", "b.org")
        multi.add_edge("a.org", "b.org")
        multi.add_edge("a.org", "c.org")
        beliefs = compute_prior(multi)
        assert abs(beliefs.br["b.org"] - 0.235) <= 1e-12
        assert abs(beliefs.br["c.org"] - 0.1925) <= 1e-12
        assert time.perf_counter() - start < 5.0

    run_criterion(capsys, 2, body)


def test_criterion_3_trust_algebra(capsys):
    def body():
        # mean conflict-claim probability per source, 0.5 for bystanders
        rows = []
        for k in range(3):
            rows.append((f"e{k}", "p", NormalizedValue.from_number(1),
                         "w.example"))
            rows.append((f"e{k}", "p", NormalizedValue.from_number(50 + k),
                         "filler.example"))
        rows.append(("quiet", "p", NormalizedValue.from_number(7),
                     "lone.example"))
        store = store_from_claims(rows)
        tau = {("e0", "p"): [0.2, 0.8], ("e1", "p"): [0.4, 0.6],
               ("e2", "p"): [0.9, 0.1]}
        trust = source_trustworthiness(store, tau)
        assert abs(trust["w.example"] - 0.5) <= 1e-12
        assert trust["lone.example"] == 0.5

        smoothed = smooth_trust({"x": 0.6}, {"x": 0.8})
        assert abs(smoothed["x"] - 0.7) <= 1e-12
        assert abs(smooth_trust({"x": 0.6}, {})["x"] - 0.55) <= 1e-12

        spread = normalize_prior({"a": 2.0, "b": 5.0, "c": 3.5})
        assert spread == {"a": 0.0, "b": 1.0, "c": 0.5}
        assert normalize_prior({"a": 3.0, "b": 3.0}) == {"a": 0.5, "b": 0.5}

        cs = store.conflict_sets[("e0", "p")]
        base = object_base_trust(cs, {"w.example": 0.7,
                                      "filler.example": 0.9})
        assert abs(base[0] - 0.7) <= 1e-12

        # smoothing invariant at every stored state of truncated runs
        synth = generate(SynthConfig(n_sources=12, n_entities=40,
                                     n_conflict_predicates=60, seed=2))
        built = assemble(list(parse_triples(synth.triples, FORMAT_NTRIPLES)),
                         policy="host")
        nbr = built.priors.nbr
        for cap in range(1, 6):
            cfg = EngineConfig(outer_max=cap, outer_threshold=1e-15)
            state = resolve_all(built.store, built.priors, cfg).trust
            for source, smoothed_value in state.t_smoothed.items():
                blended = (nbr.get(source, 0.5) + state.t[source]) / 2.0
                assert abs(smoothed_value - blended) <= 1e-12

    run_criterion(capsys, 3, body)


def test_criterion_4_beats_vote_on_synthetic_truth(capsys, benchmark_rows):
    def body():
        rows, nd_rows, elapsed = benchmark_rows
        engine = [r["report"][METHOD_ENGINE]["accuracy"] for r in rows]
        vote = [r["report"][METHOD_VOTE]["accuracy"] for r in rows]
        assert len(engine) == 10
        assert sum(engine) / 10 > sum(vote) / 10
        wins = sum(e > v for e, v in zip(engine, vote))
        assert wins >= 8
        for row in nd_rows:
            assert row["report"][METHOD_VOTE]["accuracy"] < 0.5
        assert elapsed < 120.0

    run_criterion(capsys, 4, body)


def test_criterion_5_rapid_early_convergence(capsys, benchmark_rows):
    def body():
        rows, _, _ = benchmark_rows
        converged = 0
        for row in rows:
            report = row["report"][METHOD_ENGINE]
            if report["converged"]:
                assert report["iterations"] <= 20
                converged += 1
            trace = report["trace"]
            if len(trace) >= 5:
                assert trace[4][1] < 0.25 * trace[0][1]
            else:
                assert report["converged"]
        assert converged >= 9

    run_criterion(capsys, 5, body)


MONUMENT_FIXTURE = """\
<http://alpha.example/resource/monument> <http://schema.example.org/height> "NULL" .
<http://alpha.example/resource/monument> <http://schema.example.org/beginningDate> "1886-10-28" .
<http://beta.example/resource/monument> <http://schema.example.org/height> "93"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://beta.example/resource/monument> <http://schema.example.org/beginningDate> "10/28/1886" .
<http://gamma.example/resource/monument> <http://schema.example.org/height> "46.0248"^^<http://www.w3.org/2001/XMLSchema#decimal> .
<http://gamma.example/resource/monument> <http://schema.example.org/beginningDate> "1886-#-#" .
<http://delta.example/resource/monument> <http://schema.example.org/height> "NULL" .
<http://delta.example/resource/monument> <http://schema.example.org/beginningDate> "28 October 1886" .
<http://alpha.example/resource/monument> <http://www.w3.org/2002/07/owl#sameAs> <http://beta.example/resource/monument> .
<http://beta.example/resource/monument> <http://www.w3.org/2002/07/owl#sameAs> <http://gamma.example/resource/monument> .
<http://gamma.example/resource/monument> <http://www.w3.org/2002/07/owl#sameAs> <http://delta.example/resource/monument> .
<http://delta.example/resource/monument> <http://www.w3.org/2002/07/owl#sameAs> <http://alpha.example/resource/monument> .
"""


def test_criterion_6_four_spellings_one_date(capsys):
    def body():
        statements = list(parse_triples(MONUMENT_FIXTURE, FORMAT_NTRIPLES,
                                        "strict"))
        built = assemble(statements, policy="host")
        store = built.store
        assert len(store.conflict_sets) == 2
        # the identity ring gives every host the same structural standing
        assert all(v == 0.5 for v in built.priors.nbr.values())

        date_key = next(key for key in store.conflict_sets
                        if key[1].endswith("beginningDate"))
        cs = store.conflict_sets[date_key]
        full = NormalizedValue.from_date(1886, 10, 28)
        year_only = NormalizedValue.from_date(1886, None, None)
        assert {obj.value for obj in cs.objects} == {full, year_only}
        by_value = {obj.value: obj for obj in cs.objects}
        assert len(by_value[full].sources) == 3
        assert len(by_value[year_only].sources) == 1
        assert sim(full, year_only) == 1.0

        result = resolve_all(store, built.priors)
        decision = next(d for d in result.decisions
                        if (d.entity, d.predicate) == date_key)
        assert decision.chosen == full

    run_criterion(capsys, 6, body)


def test_criterion_7_reruns_are_byte_identical(capsys, tmp_path):
    def body():
        synth = generate(SynthConfig(n_sources=15, n_entities=60,
                                     n_conflict_predicates=100, seed=4))
        corpus = tmp_path / "corpus.nt"
        corpus.write_text(synth.triples)
        outputs = []
        for threads in ("1", "3"):
            out = tmp_path / f"run_{threads}"
            code = main(["resolve", "--input", str(corpus),
                         "--threads", threads, "--out", str(out)])
            assert code == 0
            outputs.append(out)
        for name in ("decisions.jsonl", "trace.csv"):
            assert (outputs[0] / name).read_bytes() == \
                (outputs[1] / name).read_bytes()

    run_criterion(capsys, 7, body)


def test_criterion_8_scale_envelope(capsys, tmp_path):
    def body():
        cfg = SynthConfig(n_sources=300, n_entities=130000,
                          n_conflict_predicates=7500, seed=7)
        triples = generate(cfg).triples
        # the generator's bytes, pinned at full scale
        assert hashlib.sha256(triples.encode("utf-8")).hexdigest() == \
            "fbaef2a2750dbcd1e69d819206dca0ee3410074f2cf92f65a49f46e50026dde1"
        corpus = tmp_path / "scale.nt"
        corpus.write_text(triples)
        out = tmp_path / "out"
        start = time.perf_counter()
        code = main(["resolve", "--input", str(corpus), "--out", str(out)])
        elapsed = time.perf_counter() - start
        assert code in (0, 2)
        with open(out / "decisions.jsonl", encoding="utf-8") as handle:
            decided = sum(1 for _ in handle)
        assert 6500 <= decided <= 7500
        assert elapsed < 300.0
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert peak_kb < 4 * 1024 * 1024

    run_criterion(capsys, 8, body)
