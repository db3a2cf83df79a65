"""The pipeline's records are immutable tuples, and a ``resolve`` run loads
only what it uses."""

import argparse
import ast
import math
import os
import subprocess
import sys
from decimal import Decimal

import pytest

import ldtruth
from ldtruth import cli
from ldtruth.graph_model import EntityClusterMap, SameAsGraph
from ldtruth.mrf import BpResult
from ldtruth.pipeline import Assembled
from ldtruth.prior_belief import PriorBeliefs, PriorConfig
from ldtruth.rdf_ingest import (ClaimStore, ConflictSet, Diagnostic,
                                ObjectSupport, RdfStatement)
from ldtruth.truth_engine import (Decision, EngineConfig, ResolutionResult,
                                  TrustState)
from ldtruth.values import KIND_NUMBER, KIND_TEXT, NormalizedValue

A = NormalizedValue.from_text("a")
B = NormalizedValue.from_text("b")
CANDIDATES = (ObjectSupport(A, ("s1",)), ObjectSupport(B, ("s2",)))
TRUST = TrustState({"s1": 0.5}, {"s1": 0.5})

RECORDS = [
    RdfStatement("http://a.org/s", "http://a.org/p", "x", True, None, "en",
                 "http://a.org/g", 3),
    Diagnostic(3, "malformed", "missing terminating dot"),
    ObjectSupport(A, ("s1",)),
    ConflictSet("e", "p", CANDIDATES),
    ClaimStore([], {}, {}, {}),
    SameAsGraph(set(), []),
    EntityClusterMap({}, {}),
    PriorBeliefs({}, {}, 0, 0.0, True),
    BpResult([0.5], True, 0),
    TRUST,
    Decision("e", "p", A, (1.0, 0.0)),
    ResolutionResult([], TRUST, [], 1, True, True, 0),
    Assembled(None, None, {}),
    A,
    EngineConfig(),
    PriorConfig(),
]


def _id(record):
    return type(record).__name__


class TestImmutableRecords:

    @pytest.mark.parametrize("record", RECORDS, ids=_id)
    def test_no_assignment_and_no_dict(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        assert not hasattr(record, "__dict__")

    @pytest.mark.parametrize("record", RECORDS, ids=_id)
    def test_equals_the_plain_tuple_of_its_fields(self, record):
        fields = tuple(getattr(record, name) for name in record._fields)
        assert record == fields
        try:
            expected = hash(fields)
        except TypeError:   # a field is a list, dict or set
            return
        assert hash(record) == expected

    def test_value_hash_is_the_pair_hash(self):
        for kind, payload in [(KIND_TEXT, "x"), (KIND_NUMBER, Decimal("2.5")),
                              ("date", (1886, 10, None))]:
            assert hash(NormalizedValue(kind, payload)) == \
                hash((kind, payload))

    def test_five_equals_five_point_zero(self):
        five = NormalizedValue.from_number(5)
        assert five == NormalizedValue.from_number(5.0)
        assert hash(five) == hash(NormalizedValue.from_number(5.0))
        assert len({five, NormalizedValue.from_number("5.00")}) == 1


class TestChecksStayOn:

    def test_one_candidate_is_no_conflict_set(self):
        with pytest.raises(ValueError, match="at least two candidates"):
            ConflictSet("e", "p", CANDIDATES[:1])

    @pytest.mark.parametrize("record,change", [
        (A, {"payload": Decimal(1)}),
        (NormalizedValue.from_date(2019, 3, 30), {"payload": (2019, 2, 30)}),
        (ConflictSet("e", "p", CANDIDATES), {"objects": CANDIDATES[:1]}),
        (EngineConfig(), {"bp_tol": math.nan}),
        (PriorConfig(), {"tolerance": math.nan}),
    ], ids=["value_payload", "value_date", "conflict_set", "engine",
            "prior"])
    def test_replace_checks_what_it_builds(self, record, change):
        with pytest.raises(ValueError):
            record._replace(**change)

    def test_replace_keeps_the_type(self):
        cfg = EngineConfig()._replace(coupling=2.0)
        assert type(cfg) is EngineConfig
        assert cfg == EngineConfig(coupling=2.0)

    def test_config_builds_from_flags_and_file(self):
        args = argparse.Namespace(coupling=2.0, t0=None)
        filecfg = {"engine": {"bp_max": "9", "t0": "0.3"},
                   "prior": {"tolerance": "1e-05"}}
        engine = cli._config(args, filecfg, "engine")
        assert type(engine) is EngineConfig
        assert engine == EngineConfig(t0=0.3, coupling=2.0, bp_max=9)
        prior = cli._config(args, filecfg, "prior")
        assert prior == PriorConfig(tolerance=1e-05)
        assert cli._config(args, {}, "synth").seed == 0


# Runs in a fresh interpreter: prints the modules the import and then the
# command added, and exits with the command's exit code.
_GUARD = """\
import sys
before = set(sys.modules)
from ldtruth import cli
print(sorted(set(sys.modules) - before))
code = cli.main(sys.argv[1:])
print(sorted(set(sys.modules) - before))
sys.exit(code)
"""
# what resolve has no use for: eval-only code and its machinery
UNUSED_BY_RESOLVE = {"dataclasses", "configparser", "ldtruth.eval_harness"}


def test_resolve_loads_nothing_it_does_not_run(tmp_path):
    corpus = tmp_path / "tiny.nt"
    corpus.write_text(
        '<http://a.org/e> <http://a.org/p> "1"^^'
        '<http://www.w3.org/2001/XMLSchema#integer> .\n'
        '<http://b.org/e> <http://a.org/p> "2"^^'
        '<http://www.w3.org/2001/XMLSchema#integer> .\n'
        '<http://a.org/e> <http://www.w3.org/2002/07/owl#sameAs> '
        '<http://b.org/e> .\n')
    src = os.path.dirname(os.path.dirname(ldtruth.__file__))
    run = subprocess.run(
        [sys.executable, "-c", _GUARD, "resolve", "--input", str(corpus),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    imported, resolved = map(ast.literal_eval, run.stdout.splitlines())
    assert "ldtruth.cli" in imported
    assert (tmp_path / "out" / "decisions.jsonl").read_text().count("\n") == 1
    assert UNUSED_BY_RESOLVE.isdisjoint(imported)
    assert UNUSED_BY_RESOLVE.isdisjoint(resolved)
